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
"""

from __future__ import annotations

import re

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


def _cue_chunks(word: str) -> tuple[str, ...]:
    """Lower-case literals at least one of which every _fuzzy_alts(word)
    match contains. Exact-only cues need the whole word. A fuzzy match is
    the word with at most 2 positions changed (substitutions or one
    adjacent transposition), so by pigeonhole one of the word's three
    contiguous thirds is intact."""
    w = word.lower()
    if _edit_budget(word) == 0:
        return (w,)
    a, b = len(w) // 3, 2 * len(w) // 3
    return (w[:a], w[a:b], w[b:])


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


_CUE_RE_CACHE: dict[tuple, list[tuple[re.Pattern, int, tuple[str, ...]]]] = {}


def _cue_res(cues: tuple) -> list[tuple[re.Pattern, int, tuple[str, ...]]]:
    """(compiled fuzzy cue, max distance, _cue_chunks) per cue."""
    if cues not in _CUE_RE_CACHE:
        out: list[tuple[re.Pattern, int, tuple[str, ...]]] = []
        for c in cues:
            word, maxdist = c if isinstance(c, tuple) else (c, 10_000)
            rx = re.compile("|".join(_fuzzy_alts(word)), re.IGNORECASE)
            out.append((rx, maxdist, _cue_chunks(word)))
        _CUE_RE_CACHE[cues] = out
    return _CUE_RE_CACHE[cues]


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
    words: ASCII_FOLDS mapped to their letters, then lower-cased. A cue's
    literal characters match only ASCII characters or ASCII_FOLDS, so the
    intact chunk of a match appears in this string, whatever else the
    window holds."""
    return win.translate(_TO_ASCII).lower()


def _nearest(win: str, cues: tuple, *, from_end: bool, low: str) -> int:
    """Distance of nearest (fuzzy) cue occurrence, or a large sentinel.
    ``low`` is _cue_lower(win): a cue whose chunks are all absent from
    it cannot match, so its regex is skipped."""
    best = 10_000
    for rx, maxdist, chunks in _cue_res(cues):
        if not any(c in low for c in chunks):
            continue
        for m in rx.finditer(win):
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
    fwd = _window_after(text, end)
    back_low, fwd_low = _cue_lower(back), _cue_lower(fwd)
    best_label, best_dist = None, 10_000
    for label, cues in options:
        d = _nearest(back, cues, from_end=True, low=back_low)
        if d < best_dist:
            best_label, best_dist = label, d
    if best_label is None:
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
