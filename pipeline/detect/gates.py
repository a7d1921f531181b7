"""Validation gates — the deterministic analog of the reference's
confidence-threshold post-filter (evaluation/model_evaluation.py:253-269,
SURVEY.md M24) plus its hard-negative suppression semantics
(pii_synth/generation.py:756-779, M15).

A regex candidate only becomes a span if its gate passes. Gates encode:
- Luhn check for CREDIT_CARD (Luhn-invalid card = hard negative -> O);
- numeric-range checks (years, ages, SSN leading digits);
- context-cue resolution for shape-ambiguous numerics (dotted/spaced
  ddd.ddd.dddd is both an SSN format, generation.py:138-141, and a phone
  variation, generation.py:186-187 — only context distinguishes them).

Cue matching is positional. Every _fuzzy_alts(word) alternative consumes
exactly len(word) characters (checked when the regex is compiled) and
changes at most two of its positions, so a match starting at p leaves
one of the word's anchors (_anchors: the whole word, its halves plus the
middle-pair swap, or its thirds) intact at a fixed offset from p in the
folded window (_cue_lower, which keeps every position). cue_matches tries
the regex only at those starts, in ascending order, skipping starts
inside the previous match: exactly finditer's non-overlapping walk.
"""

from __future__ import annotations

import functools
import re
import re._parser as _sre_parse
from typing import Iterator

DIGITS_RE = re.compile(r"\d")


def luhn_ok(s: str) -> bool:
    digits = [int(c) for c in s if c.isdigit()]
    if not 13 <= len(digits) <= 19:
        return False
    total = 0
    for i, d in enumerate(reversed(digits)):
        if i % 2 == 1:
            d *= 2
            if d > 9:
                d -= 9
        total += d
    return total % 10 == 0


def year_ok(s: str) -> bool:
    try:
        return 1900 <= int(s) <= 2035
    except ValueError:
        return False


# Context cues (case-insensitive) for shape-ambiguous numeric candidates.
# Derived from the reference template vocabulary (generation.py:393-517):
# every cue below is a word the templates place near the corresponding slot.
# An entry may be (word, max_backward_distance) to keep promiscuous cues
# (" at ") from firing across a whole window.
SSN_CUES = (
    "ssn", "social", "sozial", "national id", "tax id",
    # "don't share ur ssn like {ssn}" [templates.py:31]: space-transpose
    # noise glues the cue to "like" ("Ssnl ike"), which the boundary-
    # wrapped "ssn" cue correctly refuses — the 6-char "ur ssn" form gets
    # the standard 1-edit fuzzy budget and needs no boundary
    "ur ssn",
    # "Social Number: {ssn}" [templates.py:26] when noise kills "Social"
    # beyond its 1-edit budget; distance-tight so "lost ur number, mine
    # is {phone}" [templates.py:48, cue ~16 chars out] never fires it
    ("number", 12),
)
PHONE_CUES = (
    # NOTE: bare "number" deliberately absent — it appears in "Social
    # Number: {ssn}" and would outscore the farther "social" cue.
    "phone", "call", "tel", "dial", "contact", "callback", "reach",
    "mine is", "cell", "mobile", "hmu", "calling",
    # 58 not 44: "leaked my info ({email}, {phone}…" with a long email
    # puts the cue ~50 chars back (measured misses at 44)
    ("info", 58),
    (" or ", 6),   # "{email} or {phone}" tail
    ("nr", 8),     # "… {email} nr {phone}." template abbreviation
    (" not ", 6),  # "email me at {email} not {phone}" [templates.py:91]
)
DATE_CUES = (
    "dob", "born", "date", "birthday", "exp", "expected", "registered",
    "joined", "hired", "filled", "arriving", "arrives", "scheduled",
    "signed", "charged", "meeting", "visit", (" by ", 8), (" on ", 8),
    "created",
)
ADDRESS_CUES = (
    "address", ("ship to", 12), ("shipping to", 12), ("ship", 12),
    ("delivery", 24), "apt", "suite", "located", "postcode", "zip",
    (" at ", 8),
)
# (the loose AGE cue set with unbounded "me "/"old"/relationship words
# was retired in r4 — see patterns.AGE_CUES_TIGHT / AGE_CUES_B12)

_WINDOW = 60
_FWD_WINDOW = 14   # forward cues only count when adjacent ("{phone} call me")


def _window_before(text: str, start: int) -> str:
    # NOT lowercased: the cue regexes are IGNORECASE anyway, and the
    # case-scoped boundary (?-i:(?<![a-z])) on short cues needs the real
    # case — lowering the window turned swap-noise like "ZSSN:" / "S SN:"
    # into "zssn:" / "s sn:" whose lowercase neighbor then wrongly
    # blocked the cue (measured 28 SSN->PHONE misses per 4k docs).
    return text[max(0, start - _WINDOW): start]


def _window_after(text: str, end: int) -> str:
    """Forward cues must be in the SAME clause: '7084 call me' counts,
    '...1972. Call 555...' does not (the Call belongs to the next sentence)."""
    win = text[end: end + _FWD_WINDOW]
    for stop in (". ", "\n", "; "):
        idx = win.find(stop)
        if idx >= 0:
            win = win[:idx]
    return win


_BOUNDED_SHORT = ("ssn", "dob", " at ", "call", "dial", "age:", "info")


def _edit_budget(word: str) -> int:
    """Edits _fuzzy_alts tolerates in ``word``: 0 (exact only), 1 (one
    substitution or adjacent transposition) or 2 (also two substitutions).
    Long labels ("address", "ship to") survive 2 edits; "mine is" is
    held to 1 — its 2-edit shadow matched "...ing is" carrier tails."""
    if len(word) >= 7 and word != "mine is":
        return 2
    return 1 if (len(word) >= 5 or word in _BOUNDED_SHORT) else 0


def _fuzzy_alts(word: str) -> list[str]:
    """Exact + one-substitution + one-adjacent-transposition variants.

    The outside-span noise (generation.py:620-673) corrupts ~1/3 of 5-char
    cue words ("SSN:" -> "SZN:", "Contact" -> "C nTact"), so cue matching
    tolerates one edit. Short cues (<5 chars, except "ssn") stay exact-only
    to avoid false matches inside carrier words."""
    alts = [re.escape(word)]
    # The 1-edit wildcard: for unbounded 5-char cues a SPACE substitution
    # lets the alternation bridge two unrelated words ("suite" matched
    # "S ite" inside "statuS iteM" — a measured ADDRESS false positive),
    # so they use a non-space wildcard.  Longer words keep the full
    # wildcard ("C nTact"), and the short boundary-wrapped cues keep it
    # too — "S SN:" / "D Ob" space-noise MUST still match (measured 28
    # SSN misses when it doesn't).
    edits = _edit_budget(word)
    wc = "." if (len(word) >= 6 or word in _BOUNDED_SHORT) else r"[^\s]"
    if edits >= 1:
        for i in range(len(word)):
            alts.append(re.escape(word[:i]) + wc + re.escape(word[i + 1:]))
        for i in range(len(word) - 1):
            if word[i] != word[i + 1]:
                alts.append(
                    re.escape(word[:i] + word[i + 1] + word[i] + word[i + 2:])
                )
    if edits == 2:
        for i in range(0, len(word)):
            for j in range(i + 1, len(word)):
                alts.append(
                    re.escape(word[:i]) + "." + re.escape(word[i + 1: j])
                    + "." + re.escape(word[j + 1:])
                )
    if word in ("ssn", "dob", "call", "dial", "age:", "info"):
        # short fuzzy cues need token boundaries ("s.n" would match inside
        # "santiago", ".ial" inside "social"). The leading boundary blocks
        # only LOWERCASE neighbors — case-scoped (?-i:) so swap-noise like
        # "S SN:" (uppercase neighbor) still matches under IGNORECASE.
        bounded = [rf"(?-i:(?<![a-z]))(?:{a})(?![a-z])" for a in alts]
        # space-transposition noise glues a one-letter word onto the cue
        # ("my ssn" -> "m yssn") — allow the EXACT cue behind a single
        # stray lowercase letter that is itself a word start.
        bounded.append(
            rf"(?-i:(?<=\b[a-z]))(?:{re.escape(word)})(?![a-z])"
        )
        alts = bounded
    if word == "nr":
        # exact-only, BOTH-case boundaries: the case-scoped form fired
        # inside noised "SSNr" and flipped SSNs to PHONE (measured)
        alts = [rf"(?<![a-zA-Z])(?:{a})(?![a-zA-Z])" for a in alts]
    return alts


# Real English tokens that sit one edit from a cue word and appear in the
# templates themselves: "at gmail DOT com" (obfuscated emails) is one
# substitution from the DATE cue "dob" — measured DATE false positives.
# "into" is one substitution from the PHONE cue "info" (carrier prose,
# never a phone label).
_CUE_DENY = frozenset({"dot", "into"})


# the non-ASCII characters sre's IGNORECASE matches to an ASCII letter
# (dotted and dotless i, long s, Kelvin sign), each with that letter
ASCII_FOLDS = {"\u0130": "i", "\u0131": "i", "\u017f": "s", "\u212a": "k"}
_TO_ASCII = str.maketrans(ASCII_FOLDS)


def _cue_lower(win: str) -> str:
    """``win`` folded as IGNORECASE matches it against the ASCII cue
    words: ASCII_FOLDS mapped to their letters, then lower-cased. Every
    character keeps its position (the dotted I, the one character whose
    lower case is two, is mapped first), and a cue's literal characters
    match only ASCII characters or ASCII_FOLDS, so the characters a
    match leaves unchanged read as the lower-case cue here, at the same
    offsets, whatever else the window holds."""
    return win.translate(_TO_ASCII).lower()


def _anchors(word: str) -> tuple[tuple[str, int], ...]:
    """(literal, offset) pairs such that every _fuzzy_alts(word) match
    starting at p has one of the literals at p + offset of the folded
    window. A match changes at most _edit_budget(word) positions: none
    keeps the whole word; one substitution keeps one half, and an
    adjacent transposition either keeps one half or swaps exactly the
    middle pair; two changed positions leave one of three thirds intact."""
    w = word.lower()
    edits = _edit_budget(word)
    if edits == 0:
        return ((w, 0),)
    if edits == 1:
        h = len(w) // 2
        swapped = w[:h - 1] + w[h] + w[h - 1] + w[h + 1:]
        return ((w[:h], 0), (w[h:], h)) + (((swapped, 0),) if swapped != w else ())
    a, b = len(w) // 3, 2 * len(w) // 3
    return ((w[:a], 0), (w[a:b], a), (w[b:], b))


def _fixed_width_re(word: str, alts: list[str]) -> re.Pattern:
    """The IGNORECASE alternation of ``alts``, which must each consume
    exactly len(word) characters: the anchor offsets assume it."""
    pattern = "|".join(alts)
    width = _sre_parse.parse(pattern, re.IGNORECASE).getwidth()
    if width != (len(word), len(word)):
        raise ValueError(f"cue {word!r}: alternatives span {width} characters, not {len(word)}")
    return re.compile(pattern, re.IGNORECASE)


@functools.lru_cache(maxsize=None)
def _cue_table(cues: tuple) -> tuple[tuple, tuple]:
    """(compiled fuzzy regex, max distance) per cue, and each distinct
    anchor literal of the set with the (cue index, offset) pairs it
    anchors."""
    res, places = [], {}
    for i, c in enumerate(cues):
        word, maxdist = c if isinstance(c, tuple) else (c, 10_000)
        res.append((_fixed_width_re(word, _fuzzy_alts(word)), maxdist))
        for lit, off in _anchors(word):
            places.setdefault(lit, []).append((i, off))
    return tuple(res), tuple((lit, tuple(v)) for lit, v in places.items())


def _walk(rx: re.Pattern, win: str, starts: list[int]) -> Iterator[re.Match]:
    """rx's matches in ``win`` at the ascending candidate ``starts``,
    skipping any start before the end of the last match: finditer's own
    non-overlapping walk (lookbehinds still see the window before the
    start). Lazy, so a caller that stops early tries no further start."""
    end = 0
    for p in starts:
        if p >= end:
            m = rx.match(win, p)
            if m:
                yield m
                end = m.end()


def cue_matches(cues: tuple, win: str, low: str) -> Iterator[tuple[int, Iterator[re.Match]]]:
    """(max distance, matches) for each cue of ``cues``, in order, that
    has a candidate start in ``win``: the matches, produced lazily, are
    the ones its regex's finditer(win) yields, and may be none. ``low``
    is _cue_lower(win). A match can start only at an anchor occurrence
    minus its offset, so each regex is tried at those starts alone
    (_walk)."""
    res, lits = _cue_table(cues)
    starts: dict[int, list[int]] = {}
    for lit, places in lits:
        j = low.find(lit)
        while j >= 0:
            for i, off in places:
                if j >= off:
                    starts.setdefault(i, []).append(j - off)
            j = low.find(lit, j + 1)
    for i in sorted(starts):
        rx, maxdist = res[i]
        yield maxdist, _walk(rx, win, sorted(set(starts[i])))


def _nearest(win: str, cues: tuple, *, from_end: bool, low: str) -> int:
    """Distance of the nearest (fuzzy) cue occurrence, or a large
    sentinel: from the window's end to the last match (``from_end``), or
    from its start to the first. ``low`` is _cue_lower(win). Each cue's
    matches are cue_matches(), exactly its regex's finditer walk, and
    deny-listed matches are skipped as before."""
    best = 10_000
    for maxdist, ms in cue_matches(cues, win, low):
        for m in ms:
            if m.group().lower() in _CUE_DENY:
                continue
            dist = (len(win) - m.start()) if from_end else m.start()
            if dist <= maxdist:
                best = min(best, dist)
            if not from_end:
                break
    return best


def resolve_numeric_cue(
    text: str, start: int, end: int, options: list[tuple[str, tuple[str, ...]]],
    default: str | None, fwd_maxdist: int | None = None,
) -> str | None:
    """Pick the label whose cue is nearest to the candidate (backward window
    preferred, then forward); fall back to `default` (may be None = drop).
    ``fwd_maxdist`` caps how far a FORWARD cue may start: bare numerics
    ("{year} you can reach {person}...") kept getting stolen by a phone
    cue two words ahead — pass ~6 so only truly adjacent forward cues
    ("4581 call me") count."""
    back = _window_before(text, start)
    back_low = _cue_lower(back)
    best_label, best_dist = None, 10_000
    for label, cues in options:
        d = _nearest(back, cues, from_end=True, low=back_low)
        if d < best_dist:
            best_label, best_dist = label, d
    if best_label is None:
        fwd = _window_after(text, end)
        fwd_low = _cue_lower(fwd)
        for label, cues in options:
            if label == "ADDRESS":
                continue  # "ship to X" cues point forward — never backward
            d = _nearest(fwd, cues, from_end=False, low=fwd_low)
            if fwd_maxdist is not None and d > fwd_maxdist:
                continue
            if d < best_dist:
                best_label, best_dist = label, d
    return best_label if best_label is not None else default


def pipe_flanked(text: str, start: int, end: int) -> tuple[bool, bool]:
    """(pipe before, pipe after) — the '{person} | {age} | {address} |
    {phone}' CSV template is the only source of pipe-flanked bare values."""
    before = text[max(0, start - 2): start] == "| "
    after = text[end: end + 2] == " |"
    return before, after
