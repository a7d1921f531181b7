"""The scrub prescreen and the detector's speed rewrites must never change
a span: derived RE2 triggers are necessary conditions for their specs on
any text, the positional cue walk finds exactly the matches a full
finditer scan finds, and the fresh-token numeric patterns match exactly
what the lookbehind-first form matched."""

from __future__ import annotations

import functools
import random
import re

import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import example, given, settings, strategies as st

from pipeline.detect import gates, vocab
from pipeline.detect.detector import detect_spans
from pipeline.detect.patterns import (
    _ASCII_FOLDS, _RE2_FOLDS, AGE_CUES_B12, AGE_CUES_TIGHT, _fresh, derive_trigger,
    get_specs, union_trigger,
)
from pipeline.synth.codegen import code_batch
from pipeline.synth.corpus import make_conformance_row

PROFILES = ("conformance", "code")

# alphabet the triggers must survive: digits, the numeric-shape
# punctuation, every whitespace Python's \s holds but RE2's does not
# (\v, \x1c-\x1f, and non-ASCII ones), newline, non-ASCII digits and
# letters (Arabic-Indic digits match Python's \d only; the dotted and
# dotless i, long s and Kelvin sign fold to ASCII letters under
# IGNORECASE and are word characters to Python's \b only), and the
# vocabulary the patterns alternate over
_CHARS = list("0123456789.-/#:@()+_'=\",*[]xXaAmMfF ") + [
    "\v", "\x1c", "\x1d", "\x1e", "\x1f", "\n", "\t",
    "\u0663", "\u0661", "\xe9", "\xfc", "\u4e2d", "\xa0", "\u2028", "\u3000", *_ASCII_FOLDS,
]
# a word with its i, k or s swapped for the non-ASCII letter that folds to it
_FOLD_SWAPS = ("", "i\u0131", "I\u0130", "k\u212a", "s\u017f", "S\u017f")
_WORDS = sorted({
    w for group in (
        vocab.FIRST_NAMES, vocab.LAST_NAMES, vocab.CITIES, vocab.COUNTRIES,
        vocab.STATE_FULL, vocab.STREET_NAMES_BASE, vocab.STREET_TYPES,
        vocab.ORG_WORDS, vocab.ORG_SUFFIXES, vocab.STATE_ABBRS,
        vocab.COUNTRY_CODES, vocab.INITIALS, vocab.EMAIL_DOMAINS,
    ) for w in group
} | {
    " at ", " dot ", "[at]", "[dot]", "(at)", "com", "net", "api_key", "secret",
    "token", "password", "AKIA", "ghp_", "age ", "i'm ", "years old", "yo",
    "born in ", "birthday: ", "ends in ", "call me at ", "phone:", "tel:",
    "apartment ", "suite ", "march ", "jan ", "applied", "(applied", "T00:00:00",
})
_TOKEN = st.one_of(
    st.sampled_from(_CHARS),
    st.tuples(st.sampled_from(_WORDS), st.booleans()).map(lambda wb: wb[0].upper() if wb[1] else wb[0]),
    st.tuples(st.sampled_from(_WORDS), st.sampled_from(_FOLD_SWAPS)).map(
        lambda ws: ws[0].replace(ws[1][:1], ws[1][1:]) if ws[1] else ws[0]),
    st.integers(0, 10**12).map(str),
)


@functools.lru_cache(maxsize=None)
def _trigger_hit(trigger: str, text: str) -> bool:
    return bool(pc.match_substring_regex(pa.array([text]), trigger)[0].as_py())


def _assert_necessary(text: str, profile: str) -> None:
    hits = [s for s in get_specs(profile) if s.compiled.search(text)]
    for s in hits:
        assert _trigger_hit(s.trigger, text), (profile, s.pattern[:80], text)
    if hits:
        assert _trigger_hit(union_trigger(profile), text), (profile, text)


@given(st.lists(_TOKEN, max_size=40).map("".join))
@settings(max_examples=300, deadline=None)
@example("api_key\x1c=\x1cabcdefghij0123456789")
@example("SSN 123\v-\v45 kofi\x1dvexler 4111111111111111\n(45M) applied")
@example("card 0\x1f1234.567.890-1234 +44 20-123 4567 ends in 1234")
@example("SSN \u0663\u0664\u0665-\u0661\u0662-\u0666\u0667\u0668\u0669 \u017fuite 12, \u0130'm 40")
@example("\xe9suite 12 \u212aansas \u4e2d\u017fecret=abcdefghij0123456789")
def test_derived_triggers_are_necessary(text):
    """On any text, any spec with a finditer hit has its derived
    trigger (and the profile's union trigger) fire too."""
    for profile in PROFILES:
        _assert_necessary(text, profile)


def test_derived_triggers_necessary_on_corpus_rows():
    """The same property on real rows: as generated, with every space
    swapped for a whitespace only Python's \\s knows, and with letters
    and digits swapped for non-ASCII ones Python's IGNORECASE and \\d
    take (all of them word characters to Python's \\b, none to RE2's)."""
    texts = [make_conformance_row(i)["text"] for i in range(300)]
    texts += code_batch(range(48), seed=3)["content"].to_pylist()
    non_ascii = str.maketrans("iIksS0123456789", "\u0131\u0130\u212a\u017f\u017f\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
    for k, t in enumerate(texts):
        for variant in (t, t.replace(" ", "\x1c\v"[k % 2]), t.translate(non_ascii)):
            for profile in PROFILES:
                _assert_necessary(variant, profile)


@functools.lru_cache(maxsize=None)
def _reference_re(word: str) -> re.Pattern:
    return re.compile("|".join(gates._fuzzy_alts(word)), re.IGNORECASE)


def _cue_word(cue) -> tuple[str, int]:
    return cue if isinstance(cue, tuple) else (cue, 10_000)


def _nearest_reference(win: str, cues: tuple, from_end: bool) -> int:
    """_nearest as a full finditer scan of every cue's fuzzy regex,
    compiled here straight from _fuzzy_alts."""
    best = 10_000
    for word, maxdist in map(_cue_word, cues):
        for m in _reference_re(word).finditer(win):
            if m.group().lower() in gates._CUE_DENY:
                continue
            dist = (len(win) - m.start()) if from_end else m.start()
            if dist <= maxdist:
                best = min(best, dist)
            if not from_end:
                break
    return best


def _assert_walk_matches_finditer(win: str, cues: tuple) -> None:
    """cue_matches yields, per cue, exactly finditer's matches, and
    _nearest reads the reference distance in both directions."""
    low = gates._cue_lower(win)
    got = [[m.span() for m in ms] for _, ms in gates.cue_matches(cues, win, low)]
    want = [[m.span() for m in _reference_re(w).finditer(win)] for w, _ in map(_cue_word, cues)]
    assert [s for s in got if s] == [s for s in want if s], (win, cues)
    for from_end in (True, False):
        assert gates._nearest(win, cues, from_end=from_end, low=low) == \
            _nearest_reference(win, cues, from_end), (win, cues, from_end)


def test_nearest_prefilter_matches_reference_loop(monkeypatch):
    """Every cue window the first 2000 conformance rows produce, plus
    non-ASCII windows where str.lower() and IGNORECASE folding differ
    (Kelvin sign, long s, dotted and dotless i), gives the same distance
    as a full finditer scan of every cue."""
    calls: list[tuple[str, tuple, bool]] = []
    real = gates._nearest

    def record(win, cues, *, from_end, low):
        calls.append((win, cues, from_end))
        return real(win, cues, from_end=from_end, low=low)

    monkeypatch.setattr(gates, "_nearest", record)
    for i in range(2000):
        detect_spans(make_conformance_row(i)["text"])
    monkeypatch.undo()
    cue_sets = {cues for _, cues, _ in calls}
    calls += [
        (w, cues, fe)
        for w in ("my \u017f\u017fn is", "\u212aall me", "addre\u017f\u017f: ", "Ad dre ss", "SSN: ",
                  "d\u0130al 555", "\u0131nfo: x", "phone n\u0131mber \u4e2d", "na\xefve caf\xe9 \u2603 \u017fhip to",
                  "z\u0131p 02134", "\u017fhip")
        for cues in cue_sets for fe in (True, False)
    ]
    assert len(calls) > 2000
    for win, cues, from_end in calls:
        low = gates._cue_lower(win)
        assert gates._nearest(win, cues, from_end=from_end, low=low) == \
            _nearest_reference(win, cues, from_end), (win, cues, from_end)


CUE_SETS = (
    gates.SSN_CUES, gates.PHONE_CUES, gates.DATE_CUES, gates.ADDRESS_CUES,
    AGE_CUES_TIGHT, AGE_CUES_B12,
    ("missing", "checksum", "pending", "handle", "hope"),  # patterns' trap words
)
# substitutes: letters, fold letters, space, newline, digit, punctuation
_NOISE = "abdeilnsxzAISZ \n7:.'" + "".join(gates.ASCII_FOLDS)
_FILLER = ("the", "me", "is", "at", " ", "\n", "dot", "into", "ssnssn",
           "callcall", "dobdob", "nrnr", "4581", "x", ": ")
_BOUNDED = ("ssn", "dob", "nr", "age:")


def _noisy(rng: random.Random, word: str) -> str:
    """``word`` with up to two substitutions or one adjacent
    transposition, a random case and, sometimes, fold letters."""
    w = list(word)
    r = rng.random()
    if r < 0.35:
        for i in rng.sample(range(len(w)), min(len(w), rng.choice((1, 2)))):
            w[i] = rng.choice(_NOISE)
    elif r < 0.5 and len(w) > 1:
        i = rng.randrange(len(w) - 1)
        w[i], w[i + 1] = w[i + 1], w[i]
    out = "".join(w)
    out = rng.choice((out, out, out.upper(), out.title(),
                      "".join(c.upper() if rng.random() < 0.5 else c for c in out)))
    if rng.random() < 0.2:
        fold, to = rng.choice(("i\u0131", "I\u0130", "k\u212a", "s\u017f", "S\u017f"))
        out = out.replace(fold, to)
    return out


def _adversarial_window(rng: random.Random, words: list[str]) -> str:
    parts = []
    while sum(map(len, parts)) < 70:
        parts.append(_noisy(rng, rng.choice(words)) if rng.random() < 0.6 else rng.choice(_FILLER))
    text = "".join(parts)
    lo = rng.randrange(len(text))
    win = text[lo: lo + rng.randint(1, 60)]
    if rng.random() < 0.3:   # a bounded cue touching the window's start or end
        cue = _noisy(rng, rng.choice(_BOUNDED))
        win = (cue + win) if rng.random() < 0.5 else (win + cue)
    return win[-60:] if rng.random() < 0.5 else win[:60]


def test_cue_walk_matches_finditer_on_adversarial_windows():
    """Seeded windows of noised cue words (substitutions, transpositions,
    case, fold letters), newlines, overlapping repeats, the deny words
    and bounded cues at both window edges: the positional walk equals
    the full finditer scan for every cue set, in both directions."""
    rng = random.Random(20261017)
    n = 0
    for cues in CUE_SETS:
        words = [w for w, _ in map(_cue_word, cues)]
        for _ in range(400):
            _assert_walk_matches_finditer(_adversarial_window(rng, words), cues)
            n += 1
    for win in ("ssnssn", "SSNSSN", "callcall", "ssn", "nr", "age:", "dob",
                "x ssn", "ssn x", "zssn", "S SN:", "m yssn", "into", "dot",
                "Do b", "addrses", "ccall", "dialdial", "\nssn\n", ""):
        for cues in CUE_SETS:
            _assert_walk_matches_finditer(win, cues)
            n += 1
    assert n >= 2900


def test_cue_regex_must_be_fixed_width():
    """The anchor offsets assume every alternative of a cue regex
    consumes exactly len(word) characters; any other width raises."""
    for alts in (["abc", "ab?c"], ["abc", "abcd"], ["abc", "a.*c"], ["ab"]):
        with pytest.raises(ValueError):
            gates._fixed_width_re("abc", alts)
    assert gates._fixed_width_re("ssn", gates._fuzzy_alts("ssn")).fullmatch("S n")


def test_fresh_numeric_patterns_match_lookbehind_first_form():
    """Each spec built on _fresh(atom) finds the same finditer spans as
    the form with the numeric lookbehind in front of the atom."""
    nb = r"(?<![\w.\-#:])(?<!\d/)"
    atoms = (r"\d", r"\(", r"\+", "0")
    texts = [make_conformance_row(i)["text"] for i in range(600)]
    texts += code_batch(range(128), seed=5)["content"].to_pylist()
    texts += ["05/15/1990 a1234 #12345 f5:e9:12 x.123 7/4 (555) 123-4567 +1 555"]
    n_rewritten = 0
    for profile in PROFILES:
        for s in get_specs(profile):
            old = s.pattern
            for a in atoms:
                old = old.replace(_fresh(a), nb + a)
            if old == s.pattern:
                continue
            n_rewritten += 1
            rx = re.compile(old, s.flags)
            for t in texts:
                assert [m.span() for m in s.compiled.finditer(t)] == \
                    [m.span() for m in rx.finditer(t)], (s.pattern, t)
    assert n_rewritten >= 40


def test_derive_trigger_raises_on_untranslatable_constructs():
    """A construct with no sound RE2 translation raises instead of
    falling back to a trigger that could drop spans."""
    for pattern in (r"(a)\1", r"(?P<x>a)(?(x)b|c)", r"(?>ab)", r"a++", r"x{1001}"):
        with pytest.raises(ValueError):
            derive_trigger(pattern, 0)
    # exact outputs: the deriver walks CPython's private re parse trees,
    # so a Python release that reshapes them fails here first
    assert derive_trigger(r"(?<!x)\s\b(?=y)", 0) == r"[\x09-\x0d\x1c-\x20\x{80}-\x{10ffff}]"
    assert derive_trigger(r"a\d", re.IGNORECASE) == r"(?i:a(?-i:[\x30-\x39\x{80}-\x{10ffff}]))"
    assert derive_trigger(r"\bsuite\b|x\B", re.IGNORECASE) == (
        r"(?i:(?:(?:\bs|(?-i:[\x{17f}]))u(?-i:[\x49\x69\x{130}-\x{131}])te\b|x))"
    )


def test_case_fold_tables():
    """gates.ASCII_FOLDS is every non-ASCII character IGNORECASE matches
    to an ASCII one (a scan of every code point), each with the one
    letter it matches, and RE2's (?i) folds a bare letter to the ones
    _RE2_FOLDS says it does, and to no other of them."""
    every = "".join(map(chr, range(0x80, 0x110000)))
    assert sorted(set(re.findall(r"[\x00-\x7f]", every, re.IGNORECASE))) == sorted(_ASCII_FOLDS)
    for c, letter in gates.ASCII_FOLDS.items():
        assert {a for a in map(chr, range(128)) if re.fullmatch(re.escape(a), c, re.IGNORECASE)} == \
            {letter, letter.upper()}
    for letter in "abcdefghijklmnopqrstuvwxyz":
        hit = pc.match_substring_regex(pa.array(list(_ASCII_FOLDS)), f"(?i){letter}")
        assert {c for c, h in zip(_ASCII_FOLDS, hit.to_pylist()) if h} == set(_RE2_FOLDS.get(letter, ""))
