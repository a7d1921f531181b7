"""Compiled detection patterns for the 9-entity taxonomy (+ code profile).

Every alternative below is derived from a concrete reference sampler format
(citations per block, file pii_synth/generation.py = "G"). The fixture
generator (pipeline/synth/providers.py) emits exactly these shapes, so the
pattern set IS the learned behavior of the reference's RoBERTa model,
re-specified deterministically (SURVEY.md §2.8).

Noise robustness: the reference's inside-span noise turns '-' into ' - '
and '.' into ' . ' (G:695-698), and randomizes case (G:699-701) — hence the
SEP_D / SEP_P separator alternations and IGNORECASE throughout.

Hard negatives (G:756-775) stay O via:
- lookarounds: numeric patterns refuse adjacency to word chars / '-' / '.'
  / '/' / '#', which kills matches inside GUIDs, MACs, SHA1 hex, IPv4 and
  "Ref #12345";
- the Luhn gate for CREDIT_CARD (G:760-761 invalid card = valid minus a digit);
- '@'-handle suppression: EMAIL needs a local part BEFORE the at-sign, and
  PERSON username shapes refuse a preceding '@' (G:769).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Callable, Match, Optional

from pipeline.detect import vocab
from pipeline.detect.gates import (
    ADDRESS_CUES,
    ASCII_FOLDS,
    DATE_CUES,
    PHONE_CUES,
    SSN_CUES,
    _cue_lower,
    cue_matches,
    luhn_ok,
    pipe_flanked,
    resolve_numeric_cue,
    year_ok,
)

# ---------------------------------------------------------------- helpers

SEP_D = r"(?: - |-)"          # dash, or noise-spaced dash
SEP_P = r"(?: \. |\.)"        # dot, or noise-spaced dot


def _fresh(atom: str) -> str:
    """One-character ``atom`` at a fresh numeric-token start: not after a
    word character, '.', '-', '#' or ':' (':' so nothing matches inside
    MAC addresses — "f5:e9:..." is a hard negative), nor after
    digit-slash (nothing matches inside 05/15/1990; a bare '/' stays
    allowed for the "Contact: {email}/{phone}" template shape).

    The lookbehinds sit AFTER the atom and re-check it, so they test the
    same characters as lookbehinds placed first; but the pattern now
    starts with the atom, and sre's first-character skip passes over
    every position that cannot start a match in C instead of trying
    each one."""
    return rf"{atom}(?<![\w.\-#:]{atom})(?<!\d/{atom})"


ND = _fresh(r"\d")             # a digit that starts a fresh numeric token
NPAR, NPLUS, NZERO = _fresh(r"\("), _fresh(r"\+"), _fresh("0")
NA = r"(?![\w\-/:])(?!\.\d)"   # numeric lookahead: token end ('.'+digit barred)


def _alt(words: list[str]) -> str:
    return "(?:" + "|".join(re.escape(w) for w in sorted(words, key=len, reverse=True)) + ")"


FIRST = _alt(vocab.FIRST_NAMES)
LAST = _alt(vocab.LAST_NAMES)
ORGW = _alt([w.lower() for w in vocab.ORG_WORDS])
SUFFIX = _alt([s.lower() for s in vocab.ORG_SUFFIXES])
CITY = _alt([c.lower() for c in vocab.CITIES])
COUNTRY = _alt([c.lower() for c in vocab.COUNTRIES])
STATEF = _alt([s.lower() for s in vocab.STATE_FULL])
SBASE = _alt([s.lower() for s in vocab.STREET_NAMES_BASE])
STYPE = _alt([s.lower() for s in vocab.STREET_TYPES])
ABBR = _alt(vocab.STATE_ABBRS + vocab.COUNTRY_CODES)     # case-sensitive
INITIALS = _alt(vocab.INITIALS)                           # case-sensitive

MONTHS_FULL = [
    "january", "february", "march", "april", "may", "june", "july",
    "august", "september", "october", "november", "december",
]
MONTHS_SHORT = [m[:3] for m in MONTHS_FULL]
MON = _alt(MONTHS_FULL + MONTHS_SHORT)
ORD = r"(?:st|nd|rd|th)"

# email building blocks [G:350-390 samplers; G:708-739 obfuscations]
EATOM = r"[A-Za-z0-9_%+]+"
ELSEP = r"(?:\.(?=\S)| \. | dot |\[dot\])"
# compact at-signs can take an arbitrary-depth obfuscated domain; the bare
# " at " word form is restricted (see _conformance_specs) so it can't
# swallow carrier text like "Contact {person} at {email}".
EAT_COMPACT = r"(?:@| @ |\[at\]| \[at\] | \(at\) )"
EAT_WORD = r" at "
ELOCAL = rf"{EATOM}(?:{ELSEP}{EATOM})*"
# TLD-anchored domain: keeps the " at " obfuscation form (G:719) from
# swallowing a preceding carrier word ("email me at kofi.vexler@..." must
# not match "me at kofi.vexler"). TLD set = generator domains (vocab
# EMAIL_DOMAINS) + the reference's inside-noise typo 'com'->'con' (G:694).
ETLD = r"(?:com|con|net|org|edu|io|co)"
EDOMAIN = rf"{EATOM}(?:{ELSEP}{EATOM})*{ELSEP}{ETLD}(?![\w@])"

GateFn = Callable[[str, Match], Optional[str]]


@dataclass
class PatternSpec:
    label: str | None           # fixed label, or None when gate decides
    pattern: str
    gate: GateFn | None = None
    flags: int = re.IGNORECASE
    group: int = 0
    compiled: re.Pattern = field(init=False)
    # RE2 prescreen derived from ``pattern``: on any text a row with no
    # trigger hit has no finditer hit either (see derive_trigger)
    trigger: str = field(init=False)
    # (words, offset): on ASCII text every match holds one of the words at
    # that offset from its start, or None (see derive_anchor)
    anchor: tuple[frozenset[str], int] | None = field(init=False)

    def __post_init__(self):
        self.compiled = re.compile(self.pattern, self.flags)
        self.trigger = derive_trigger(self.pattern, self.flags)
        self.anchor = derive_anchor(self.pattern, self.flags)


# ---------------------------------------------------------------- gates

def _has_cue(win: str, *words: str) -> bool:
    """Whether a fuzzy match of any trap/cue word sits in ``win``."""
    return any(next(ms, None) is not None for _, ms in cue_matches(words, win, _cue_lower(win)))


def _gate_luhn(text: str, m: Match) -> str | None:
    """CONFORMANCE-ONLY Luhn gate: the trap-word escape below keys on
    the synthetic benchmark's hard-negative vocabulary and must never
    run on real-world text (a Luhn-valid card near a fuzzy 'missing'
    shadow would silently escape scrubbing) — the code profile uses
    :func:`_gate_luhn_plain` instead."""
    if not luhn_ok(m.group()):
        return None
    # hard negative "Card NNNN (missing digit)" [corpus.py
    # hard_negative_strings] fails Luhn BY CONSTRUCTION, but outside-span
    # noise occasionally flips a digit back to Luhn-valid — the trailing
    # marker is the only stable signal (trap-only vocabulary).
    if _has_cue(text[m.end(): m.end() + 16], "missing"):
        return None
    return "CREDIT_CARD"


def _gate_luhn_plain(text: str, m: Match) -> str | None:
    """Real-world Luhn gate (code profile): checksum only, no
    benchmark-vocabulary escapes — conservative toward scrubbing."""
    return "CREDIT_CARD" if luhn_ok(m.group()) else None


def _gate_ssn_letter(text: str, m: Match) -> str | None:
    """Letter-prefixed SSN [G:130,135] vs the 'Acct NNNNNNNN checksum
    pending' hard negative whose leading digit noise turned into a
    letter: reject on the trap's own words (backward 'acct', forward
    'checksum'/'pending' — none appear near true SSN slots)."""
    if re.search(r"(?i)acct\s*$", text[max(0, m.start() - 8): m.start()]):
        return None
    if _has_cue(text[m.end(): m.end() + 24], "checksum", "pending"):
        return None
    return "SSN"


def _gate_username_vocab(text: str, m: Match) -> str | None:
    """lowercase-word+digits username [G:61-69] vs a noise-digitized
    carrier word ('finished' -> 'finish62'): reject when the alpha stem
    is a prefix of a carrier word of exactly the match's length (the
    closed filler vocabulary never overlaps the name vocabularies)."""
    s = m.group()
    stem = s.rstrip("0123456789")
    n = len(s)
    for w in vocab.CARRIER_WORDS:
        if len(w) == n and w.startswith(stem):
            return None
    return "PERSON"


def _gate_person_l2(text: str, m: Match) -> str | None:
    """Letter+2-digit username [G:74] vs a noise-digitized 'SSN'/'Exp'
    cue word: those sit directly BEFORE their structured value ('S57
    5051-9844-6797'), a position no person slot occupies."""
    if re.match(r" ?\d{3,4}[-. ]\d", text[m.end(): m.end() + 7]):
        return None
    return "PERSON"


def _gate_addr_postcode(text: str, m: Match) -> str | None:
    """2-letter+2-digit short postcode vs the 'Handle @{username}' hard
    negative whose '@' noise made the handle look bare: reject when
    preceded by the trap's own cue word."""
    if _has_cue(text[max(0, m.start() - 12): m.start()], "handle"):
        return None
    return "ADDRESS"


def _gate_num9_10(text: str, m: Match) -> str | None:
    """Bare 9-digit -> SSN [G:128,146-147]; bare 10-digit: leading 0 -> SSN
    [G:143-144], else a stripped phone [G:188 phone.replace('-','')]."""
    s = m.group()
    if len(s) == 9:
        return "SSN"
    return "SSN" if s[0] == "0" else "PHONE"


def _gate_phone_prefix(text: str, m: Match) -> str | None:
    """Sampled phone prefixes ("phone: {p}" [G:194-199]) are lowercase,
    but inside-span noise flips their case ("PhoNe: 264-454-5307") —
    match case-insensitively and reject only the canonical CARRIER
    casing ("Phone: " record labels, templates.py:53 etc.), whose value
    is then caught prefix-less by the bare shape. The all-lowercase
    "phone:" stays included: it is the sampled format's own text (the
    lowercase carrier of templates.py:97 colliding with a bare sampled
    value is the rarer reading — measured)."""
    if m.group(1) in ("Phone:", "Tel:", "Call me at"):
        return None
    if not m.group(1).islower():
        # case-noised prefix at a record-field position ("\nPhOne: …",
        # ", PhoNe: …") is the template's own CARRIER label hit by
        # outside-span noise; sampled prefixes sit mid-prose or after
        # another cue ("or call PHone: …"). CSV fields (comma, no
        # space) keep their sampled prefixes.
        pre2 = text[max(0, m.start() - 2): m.start()]
        if pre2.endswith("\n") or pre2 == ", ":
            return None
    return "PHONE"


def _gate_dotspace334(text: str, m: Match) -> str | None:
    """ddd.ddd.dddd / ddd ddd dddd is both an SSN format [G:138-141] and a
    phone variation [G:186-187]. Phone area/exchange groups start 2-9 by
    construction (providers._phone_base, area capped at 989), SSN groups
    are 100-999 — a leading '1' in group 1 or 2, or an area group >= 990,
    proves SSN with zero phone-FP risk. Otherwise nearest context cue
    decides; cueless candidates fall back to the delimiter structure of
    the record templates, then to the digit-shape default PHONE (the
    majority truth at that fallback: measured 22 PHONE vs 9 SSN per 4k
    first-try docs — the residue is irreducible shape ambiguity)."""
    s = m.group()
    tail = s.replace(" ", "").replace(".", "")
    if len(tail) != 10:
        return "PHONE"
    if tail[:3] >= "990":
        return "SSN"  # _phone_base area group is 200-989
    lbl = resolve_numeric_cue(
        text, m.start(), m.end(),
        [("SSN", SSN_CUES), ("PHONE", PHONE_CUES)],
        default=None,
    )
    if lbl is not None:
        return lbl
    # Delimiter-structure fallback — the record templates fix field order:
    #   "… | SSN: {ssn} | Card: …"        [G:449]  ssn has a TRAILING pipe
    #   "{person} | … | {phone}"           [G:464]  phone is the LAST field
    #   "{person},{date},{email},{phone},{ssn}"  [G:463]
    #   "{person};{date};{ssn};{org};{phone}"    [G:466]
    before, after = pipe_flanked(text, m.start(), m.end())
    if after:
        return "SSN"
    if before:
        return "PHONE"
    prev = text[m.start() - 1] if m.start() else ""
    nxt = text[m.end()] if m.end() < len(text) else ""
    if prev == ";":
        return "SSN" if nxt == ";" else "PHONE"
    if prev == ",":
        return "PHONE" if nxt == "," else "SSN"
    return "SSN" if (tail[0] == "1" or tail[3] == "1") else "PHONE"


def _gate_bare4(text: str, m: Match) -> str | None:
    """Bare 4-digit: phone last-4 [G:190], year-only date [G:262], or an
    address building number [G:304]. Cue wins; default year-range -> DATE."""
    before, after = pipe_flanked(text, m.start(), m.end())
    if before:
        return "ADDRESS" if after else "PHONE"  # CSV: addr mid, phone last
    lbl = resolve_numeric_cue(
        text, m.start(), m.end(),
        [("PHONE", PHONE_CUES), ("DATE", DATE_CUES), ("ADDRESS", ADDRESS_CUES)],
        default=None, fwd_maxdist=6,
    )
    if lbl is not None:
        return lbl
    return "DATE" if year_ok(m.group()) else None


def _gate_ssn_cue(text: str, m: Match) -> str | None:
    return resolve_numeric_cue(
        text, m.start(), m.end(), [("SSN", SSN_CUES)], default=None,
    )


# 1-digit M/F forms get only STRONG age cues: the un-bounded relationship
# words ("me ", "old" at any distance in the 60-char window) kept matching
# noise bigrams ("my" -> "m4") far from any age slot.  The template shapes
# that legitimately need them ("My brother is {age} years old") place the
# cue within ~12 chars, so they survive with tight distances.
AGE_CUES_TIGHT = (
    "age", "aged", "i'm", "im ", "i am",
    ("brother", 12), ("partner", 12), ("boyfriend", 12),
    ("girlfriend", 12), ("wife", 12), ("husband", 12), ("friend", 12),
    ("old", 11),
    # "I {age} just broke up" [templates.py:38]: the forward "broke"
    # (noise-tolerant, 1-edit) is the only cue when "I" carries no
    # apostrophe; distance-tight so prose "broke" elsewhere can't adopt
    # stray noise bigrams
    ("broke", 12),
)


def _gate_age_cue(text: str, m: Match) -> str | None:
    """1-digit M/F age forms ("5f", "M4") collide with noise-corrupted
    carrier bigrams ("if" -> "5f", "my" -> "m4") — require a STRONG age
    cue or the CSV pipe-flank ('{person} | {age} | …')."""
    before, after = pipe_flanked(text, m.start(), m.end())
    if before and after:
        return "AGE"
    return resolve_numeric_cue(
        text, m.start(), m.end(), [("AGE", AGE_CUES_TIGHT)], default=None,
    )


# "age:" (colon-anchored) gets a 1-edit fuzzy budget the bare 3-char
# "age" cannot afford (".ge"/"a.e" shadows sit inside are/ave/ago):
# the labeled record template "Age: {age}" survives noise on the word
# ("AgK: 86") because the colon+digit context never follows a shadow.
AGE_CUES_B12 = (("age", 10), ("age:", 10), ("aged", 10), ("i'm", 6),
                ("im ", 6),
                ("i am", 6), ("brother", 12), ("partner", 12),
                ("boyfriend", 12), ("girlfriend", 12), ("wife", 12),
                ("husband", 12), ("friend", 12), ("old", 11),
                # "is leaving me {age}" / "I {age} just broke up"
                # [templates.py:38,41] — template-specific, tight
                ("leaving me", 8), ("broke", 12))


def _gate_bare12(text: str, m: Match) -> str | None:
    """Bare 1-2 digit: age [G:164 str(age_num)] or building number
    [G:305].  AGE cues are distance-tight: a far "age 40" / "i'm 48"
    belonging to ANOTHER value kept adopting stray bare digits 15+ chars
    away (measured spurs); the true bare-age templates put the cue
    within a word."""
    before, after = pipe_flanked(text, m.start(), m.end())
    if before and after:
        return "AGE"  # CSV template: 2nd field is the age
    return resolve_numeric_cue(
        text, m.start(), m.end(),
        [("AGE", AGE_CUES_B12), ("ADDRESS", ADDRESS_CUES)],
        default=None,
    )


def _gate_bare3or5(text: str, m: Match) -> str | None:
    """Bare 3- or 5-digit: building number / postcode with an address cue.
    The shipping template's own tail ('{zip}, hope it arrives by ...') is
    the only stable signal when noise destroys 'shipping to' beyond the
    2-edit budget — resolve's fwd pass skips ADDRESS (its cues point
    forward), so check the template tail directly."""
    before, after = pipe_flanked(text, m.start(), m.end())
    if before:
        return "ADDRESS" if after else "PHONE"
    lbl = resolve_numeric_cue(
        text, m.start(), m.end(),
        [("ADDRESS", ADDRESS_CUES), ("PHONE", PHONE_CUES)],
        default=None,
    )
    if lbl is not None:
        return lbl
    if _has_cue(text[m.end(): m.end() + 12], "hope"):
        return "ADDRESS"
    return None


def _gate_ipv4(text: str, m: Match) -> str | None:
    return "IP" if all(int(o) <= 255 for o in re.findall(r"\d{1,3}", m.group())) else None


# ------------------------------------------------- conformance pattern set

def _conformance_specs() -> list[PatternSpec]:
    P: list[PatternSpec] = []

    # ---- EMAIL [G:350-390, 708-739, M12 noise]
    P.append(PatternSpec("EMAIL", rf"(?<![A-Za-z0-9_%+.]){ELOCAL}{EAT_COMPACT}{EDOMAIN}"))
    # " at " word obfuscation [G:719]: domain must be a 2-part TLD domain
    P.append(PatternSpec("EMAIL", rf"(?<![A-Za-z0-9_%+.]){ELOCAL}{EAT_WORD}{EATOM}{ELSEP}{ETLD}(?![\w@])"))
    # no-at obfuscation: "john dot gmail dot com" [G:730]
    P.append(PatternSpec("EMAIL", rf"(?<![A-Za-z0-9_%+.]){ELOCAL} dot {EATOM} dot {ETLD}(?![\w@])"))

    # ---- CREDIT_CARD: bare 13-19 digits + Luhn [G:46,760-761]
    P.append(PatternSpec(None, rf"{ND}\d{{12,18}}{NA}", gate=_gate_luhn))

    # ---- SSN unique shapes [G:120-153]
    P.append(PatternSpec("SSN", rf"{ND}\d{{2}}{SEP_D}\d{{2}}{SEP_D}\d{{4}}{NA}"))          # 123-45-6789
    P.append(PatternSpec("SSN", rf"{ND}\d{{3}}{SEP_D}\d{{4}}{SEP_D}\d{{4}}{NA}"))          # 1234-5678-9012
    P.append(PatternSpec(None, rf"(?<![\w.\-/#])[A-Z]\d{{7,8}}{NA}", flags=0,
                         gate=_gate_ssn_letter))                           # A12345678
    # case-noised letter prefix ("r99496293"): only with an SSN cue nearby
    P.append(PatternSpec(None, rf"(?<![\w.\-/#])[a-z]\d{{7,8}}{NA}", gate=_gate_ssn_cue, flags=0))
    P.append(PatternSpec(                                                                   # 27.01.06.52.N67.7
        "SSN",
        rf"{ND}\d{SEP_P}\d{{2}}{SEP_P}\d{{2}}{SEP_P}\d{{2}}{SEP_P}[A-Za-z]\d{{2}}{SEP_P}\d{NA}",
    ))

    # ---- PHONE unique shapes [G:180-234, 742-751]
    ph334 = rf"\d{{3}}{SEP_D}\d{{3}}{SEP_D}\d{{4}}"
    # sampled prefixes are lowercase [G:194-199]; carrier labels ("Phone: ")
    # are capitalized — case-sensitive so the carrier prefix stays outside
    P.append(PatternSpec(None, rf"((?:call me at|tel:|phone:)) {ph334}",
                         gate=_gate_phone_prefix))
    P.append(PatternSpec("PHONE", rf"ends in \d{{4}}"))                                     # [G:193]
    P.append(PatternSpec("PHONE", rf"(?:xxx|\*\*\*){SEP_D}(?:xxx|\*\*\*){SEP_D}\d{{4}}"))   # [G:191-192]
    P.append(PatternSpec("PHONE", rf"{ND}\d{{2}}{SEP_D}\d{{3}}{SEP_D}\d{{4}}{NA}"))         # 555-123-4567
    P.append(PatternSpec("PHONE", rf"{ND}\d{{2}}/\d{{3}}/\d{{4}}{NA}"))                     # [G:196 '/']
    P.append(PatternSpec("PHONE", rf"{NPAR}\d{{3}}\) ?\d{{3}}{SEP_D}\d{{4}}{NA}"))          # (555) 123-4567
    P.append(PatternSpec("PHONE", rf"{ND}\d{{2}}{SEP_D}\d{{4}}{NA}"))                       # last-8 [G:189]
    P.append(PatternSpec("PHONE", rf"{NPLUS}1 {ph334}{NA}"))                                # [G:197]
    P.append(PatternSpec("PHONE", rf"{NPLUS}\d{{4,6}}{SEP_D}\d{{3}}{SEP_D}\d{{4}}{NA}"))    # [G:204]
    P.append(PatternSpec("PHONE", rf"{NPLUS}\d{{1,2}}{SEP_D}\d{{3}}{SEP_P}\d{{3}}{SEP_P}\d{{4}}{NA}"))  # [G:207]
    P.append(PatternSpec("PHONE", rf"{NPLUS}\d{{1,2}}{SEP_D}\d{{3}}{SEP_D}\d{{3}}{SEP_P}\d{{4}}{NA}"))  # [G:210]
    P.append(PatternSpec("PHONE", rf"{NZERO}\d{{4}}{SEP_P}\d{{3}}{SEP_P}\d{{3}}{SEP_D}\d{{4}}{NA}"))   # [G:213]
    P.append(PatternSpec("PHONE", rf"{NPLUS}\d{{5,7}} \d{{4}}{NA}"))                        # [G:216]
    P.append(PatternSpec("PHONE", rf"{NZERO}\d{{2}} \d{{4}}{SEP_P}\d{{4}}{NA}"))            # [G:219]
    P.append(PatternSpec("PHONE", rf"{ND}\d{{3}}{SEP_D}\d{{3}}{SEP_D}\d{{4}}{NA}"))         # [G:222]
    P.append(PatternSpec("PHONE", rf"{NPLUS}\d{{1,2}} \d{{2}}{SEP_D}\d{{3}} \d{{4}}{NA}"))  # [G:225]
    P.append(PatternSpec("PHONE", rf"{NZERO}0\d{{2}}{SEP_D}\d{{4}}{NA}"))                   # [G:228]
    P.append(PatternSpec("PHONE", rf"{NPLUS}\d{{1,2}} \d{{3}} \d{{3}} \d{{4}}{NA}"))        # [G:231]
    P.append(PatternSpec("PHONE", rf"{ND}(?: \d){{6,14}}{NA}"))                             # obf spaced [G:747]
    # template-parenthesized last-4 ("Attendees: {person} ({phone})"): no
    # sampled phone format has parens, so the parens are carrier text
    P.append(PatternSpec("PHONE", rf"\((\d{{4}})\)", group=1))
    P.append(PatternSpec("PHONE", rf"{ND}\d{{2}}(?:{SEP_D}\d{{3}}){{1,4}}(?:{SEP_D}\d{{1,2}})?{NA}"))  # obf 3-chunks [G:748]

    # ---- ambiguous numerics (cue-resolved)
    P.append(PatternSpec(None, rf"{ND}\d{{2}}{SEP_P}\d{{3}}{SEP_P}\d{{4}}{NA}", gate=_gate_dotspace334))
    P.append(PatternSpec(None, rf"{ND}\d{{2}} \d{{3}} \d{{1,9}}{NA}", gate=_gate_dotspace334))
    P.append(PatternSpec(None, rf"{ND}\d{{8,9}}{NA}", gate=_gate_num9_10))

    # ---- DATE [G:236-288]
    P.append(PatternSpec("DATE", rf"{ND}\d{{3}}{SEP_D}\d{{2}}{SEP_D}\d{{2}}(?:T00:00:00)?{NA}"))
    P.append(PatternSpec("DATE", rf"{ND}\d?/\d{{1,2}}/\d{{1,4}}{NA}"))  # year%100 can be 1 digit [G:264]
    P.append(PatternSpec("DATE", rf"birthday: \d{{1,2}}/\d{{1,2}}{NA}"))
    P.append(PatternSpec("DATE", rf"\b{MON} \d{{1,2}}{ORD}?, \d{{4}}{NA}"))
    P.append(PatternSpec("DATE", rf"{ND}\d?{ORD} {MON} \d{{4}}{NA}"))
    P.append(PatternSpec("DATE", rf"\b{MON} \d{{4}}{NA}"))
    P.append(PatternSpec("DATE", rf"\b{MON}/\d{{1,2}}{NA}"))
    P.append(PatternSpec("DATE", rf"\bborn in \d{{4}}{NA}"))

    # ---- AGE [G:155-178]
    P.append(PatternSpec("AGE", rf"{ND}\d?[mf]/\d{{1,2}}[mf]{NA}"))
    P.append(PatternSpec("AGE", rf"{ND}\d?(?:{SEP_D}| )?years? ?{SEP_D}?old\b"))
    P.append(PatternSpec("AGE", rf"{ND}\d?yo\b"))
    P.append(PatternSpec("AGE", rf"\bage {ND}\d?{NA}(?! ?[mf]\b)"))
    P.append(PatternSpec("AGE", rf"\bi'm \d{{1,2}}{NA}"))
    # "(45M) applied on …" is the '{person} ({age}) applied …' template
    # parenthesizing a BARE age value — emit the inner span there; any
    # other parenthesized age is the sampled "(45M)" format (parens in
    # the value). "applied" matched with the fuzzy-edit machinery since
    # outside-span noise corrupts it.
    from pipeline.detect.gates import _fuzzy_alts

    applied = "|".join(_fuzzy_alts("applied"))
    agevals = r"(?:\d{1,2}[mf]?|[mf]\d{1,2})"
    # ".{0,2}?" tolerates one glued noise char between ")" and "applied".
    # Double parens = sampled "(33F)" format inside the template's own
    # parens -> the value keeps ONE pair.
    P.append(PatternSpec(
        "AGE", rf"\((\({agevals}\))\).{{0,2}}?(?:{applied})", group=1,
    ))
    P.append(PatternSpec(
        "AGE", rf"(?<!\()\(({agevals})\).{{0,2}}?(?:{applied})", group=1,
    ))
    P.append(PatternSpec("AGE", rf"\({agevals}\)(?!\)|.{{0,2}}?(?:{applied}))"))
    P.append(PatternSpec("AGE", rf"\[\d{{1,2}}[mf]\]"))
    P.append(PatternSpec("AGE", rf"{ND}\d ?[mf]\b(?!{SEP_D})"))
    P.append(PatternSpec("AGE", rf"(?<![\w.\-/#(])[mf]\d{{2}}{NA}"))
    P.append(PatternSpec(None, rf"{ND} ?[mf]\b(?!{SEP_D})", gate=_gate_age_cue))
    P.append(PatternSpec(None, rf"(?<![\w.\-/#(])[mf]\d{NA}", gate=_gate_age_cue))

    # ---- ADDRESS [G:290-348]
    P.append(PatternSpec(
        "ADDRESS",
        rf"{ND}\d{{0,3}} {SBASE} {STYPE}, {CITY}, [A-Z]{{2}} \d{{5}}{NA}",
    ))
    P.append(PatternSpec("ADDRESS", rf"{ND}\d{{0,3}} {SBASE} {STYPE}\b"))
    P.append(PatternSpec("ADDRESS", rf"\b{SBASE} {STYPE}\b"))
    P.append(PatternSpec("ADDRESS", rf"\b{CITY}\b"))
    P.append(PatternSpec("ADDRESS", rf"\b{COUNTRY}\b"))
    P.append(PatternSpec("ADDRESS", rf"\b{STATEF}\b"))
    P.append(PatternSpec("ADDRESS", rf"\b(?:apartment|suite|floor) \d{{1,3}}{NA}"))
    P.append(PatternSpec("ADDRESS", rf"{ND}\d{{4}}, \d{{5}}{NA}"))
    P.append(PatternSpec("ADDRESS", rf"(?<![\w.\-/#]){ABBR}(?![\w\-])", flags=0))
    P.append(PatternSpec(None, rf"(?<![\w.\-/#])[A-Z]{{2}}\d{{2}}{NA}", flags=0,
                         gate=_gate_addr_postcode))

    # ---- ORG: company() analog shapes [G:41]
    P.append(PatternSpec("ORG", rf"\b{ORGW}, {ORGW} and {ORGW}\b"))
    P.append(PatternSpec("ORG", rf"\b{ORGW} {SUFFIX}\b"))
    P.append(PatternSpec("ORG", rf"\b{ORGW}{SEP_D}{ORGW}\b"))

    # ---- PERSON [G:51-118]
    P.append(PatternSpec("PERSON", rf"\b{FIRST} {LAST}\b"))
    P.append(PatternSpec("PERSON", rf"(?<![\w.@]){FIRST}{SEP_P}{LAST}(?:\d{{2}})?{NA}"))
    P.append(PatternSpec("PERSON", rf"(?<![\w.@]){FIRST}_{LAST}(?:\d{{1,2}})?{NA}"))
    P.append(PatternSpec("PERSON", rf"(?<![\w.@]){FIRST}\d{{2,3}}{NA}"))
    P.append(PatternSpec("PERSON", rf"(?<![\w.@])(?:19|20)\d{{2}}{FIRST}{SEP_P}{LAST}{NA}"))
    P.append(PatternSpec("PERSON", rf"(?<![\w.@])(?:19|20)\d{{2}}(?:{FIRST}|{LAST}){NA}"))
    P.append(PatternSpec("PERSON", rf"(?<![\w.@])\d{{2}}(?:{FIRST}|{LAST}){NA}"))
    P.append(PatternSpec(None, rf"(?<![\w.@])[a-z]{{6,20}}\d{{2,6}}{NA}",
                         gate=_gate_username_vocab))
    P.append(PatternSpec("PERSON", rf"(?<![\w.@])[A-Z]\d{{6}}{NA}", flags=0))
    P.append(PatternSpec(None, rf"(?<![\w.@])[A-EG-LN-Z]\d{{2}}{NA}", flags=0,
                         gate=_gate_person_l2))
    P.append(PatternSpec("PERSON", rf"(?<![\w.@]){INITIALS}(?![\w\-])", flags=0))
    P.append(PatternSpec("PERSON", rf"(?<![\w.@']){FIRST}(?![\w.\-])"))

    # ---- residual bare numerics (cue-gated; lowest specificity)
    P.append(PatternSpec(None, rf"{ND}\d{{3}}{NA}", gate=_gate_bare4))
    P.append(PatternSpec(None, rf"{ND}\d{{4}}{NA}", gate=_gate_bare3or5))
    P.append(PatternSpec(None, rf"{ND}\d{{2}}{NA}", gate=_gate_bare3or5))
    P.append(PatternSpec(None, rf"{ND}\d?{NA}", gate=_gate_bare12))

    return P


# ------------------------------------------------------ code profile set

AWS_KEY = r"AKIA[0-9A-Z]{16}"
GH_TOKEN = r"gh[pousr]_[A-Za-z0-9]{36}"
HEX_SECRET = r"(?:api[_-]?key|secret|token|password|passwd)\s*[:=]\s*[\"']?([A-Za-z0-9_\-]{16,64})[\"']?"


def _code_specs() -> list[PatternSpec]:
    """Code-profile detectors (north rule: emails, phones, API keys, IPs).

    IPv4 is scrubbed here although it is a hard *negative* in the
    conformance profile [G:767] — profile flag per SURVEY.md §2.8.
    """
    P: list[PatternSpec] = []
    P.append(PatternSpec("EMAIL", rf"(?<![A-Za-z0-9_%+.])[A-Za-z0-9_%+.]+@[A-Za-z0-9_%+]+(?:\.[A-Za-z0-9_%+]+)+"))
    P.append(PatternSpec("API_KEY", AWS_KEY, flags=0))
    P.append(PatternSpec("API_KEY", GH_TOKEN, flags=0))
    P.append(PatternSpec("API_KEY", HEX_SECRET, group=1))
    P.append(PatternSpec(None, rf"(?<![\w.])\d{{1,3}}\.\d{{1,3}}\.\d{{1,3}}\.\d{{1,3}}(?![\w.])", gate=_gate_ipv4))
    P.append(PatternSpec(None, rf"{ND}\d{{12,18}}{NA}", gate=_gate_luhn_plain))
    P.append(PatternSpec("SSN", rf"{ND}\d{{2}}-\d{{2}}-\d{{4}}{NA}"))
    P.append(PatternSpec("PHONE", rf"{ND}\d{{2}}[-.]\d{{3}}[-.]\d{{4}}{NA}"))
    P.append(PatternSpec("PHONE", rf"{NPAR}\d{{3}}\) ?\d{{3}}-\d{{4}}{NA}"))
    P.append(PatternSpec("PHONE", rf"{NPLUS}\d{{1,2}} \d{{3}} \d{{3}} \d{{4}}{NA}"))
    return P


_SPEC_CACHE: dict[str, list[PatternSpec]] = {}


def get_specs(profile: str = "conformance") -> list[PatternSpec]:
    if profile not in _SPEC_CACHE:
        if profile == "conformance":
            _SPEC_CACHE[profile] = _conformance_specs()
        elif profile == "code":
            _SPEC_CACHE[profile] = _code_specs()
        else:
            raise ValueError(f"unknown detector profile: {profile}")
    return _SPEC_CACHE[profile]


# ------------------------------------------- derived triggers (prescreen)
#
# Every PatternSpec derives its own RE2 trigger from its pattern, so the
# batch stage (ray_pipeline._fired_spans) can skip a spec for any row the
# Arrow scan finds no trigger hit in. An anchored spec (see derive_anchor
# below) uses its trigger on non-ASCII rows only; on ASCII rows its
# anchor words decide, so the prescreen's union (union_trigger) holds the
# unanchored specs' triggers alone. On any text, ASCII or
# not, each trigger is a NECESSARY condition for its pattern by
# construction: every node of the translation accepts at least what the
# sre node it comes from accepts at the same position.
# - Lookarounds, \B and the anchors ^ $ \A \Z are dropped, which can
#   only widen what matches.
# - Every one-character node (class, escape, '.', literal) is emitted as
#   the explicit set of characters Python's own compiled node accepts
#   under the spec's flags: its ASCII members, the non-ASCII characters
#   IGNORECASE folds to ASCII ones (_ASCII_FOLDS), and the whole
#   non-ASCII range when the node can take any other non-ASCII character
#   (\d \w \s '.', negated sets). So the engines' differences in \d, \w,
#   \s (Python's \s also holds \v and \x1c-\x1f) and case folding cannot
#   leak in. A letter stays a bare literal when RE2's own (?i) takes all
#   it must (i needs its class: RE2 does not fold the dotted or dotless
#   i), and a class holding non-ASCII characters is wrapped in (?-i:...)
#   so RE2's folding adds nothing to it.
# - \b is pushed into the alternatives of an adjacent branch until it
#   sits next to a one-character node, and is kept only in front of (or
#   behind) that node's ASCII word characters [0-9A-Za-z_]: where the
#   node consumes one of those, RE2's ASCII \b holds wherever Python's
#   Unicode \b does. The node's other characters are emitted without
#   the \b, and a \b with no one-character neighbour is dropped.
# - An IGNORECASE spec's trigger is wrapped in (?i:...), scoped (?-i:...)
#   groups stay scoped, and lazy repeats become greedy ones (the same
#   set of texts matches).
# A construct the deriver cannot translate raises when the specs are
# built. The deriver walks the parse trees of CPython's private re
# modules; checked on CPython 3.11, and the exact-output assertions in
# tests/test_prescreen.py fail first if a later version reshapes them.

import re._compiler as _sre_compile
import re._constants as _sre
import re._parser as _sre_parse

_ONE_CHAR_OPS = (_sre.LITERAL, _sre.NOT_LITERAL, _sre.ANY, _sre.IN)
_DROPPED_ATS = (_sre.AT_BEGINNING, _sre.AT_BEGINNING_STRING, _sre.AT_END,
                _sre.AT_END_STRING, _sre.AT_NON_BOUNDARY)
_B = (_sre.AT, _sre.AT_BOUNDARY)
_RE2_MAX_REPEAT = 1000
# the non-ASCII characters IGNORECASE matches to an ASCII character;
# tests/test_prescreen.py scans every code point to confirm the list
_ASCII_FOLDS = "".join(ASCII_FOLDS)
# the ones RE2's own (?i) folding already adds to a bare letter
_RE2_FOLDS = {"k": "\u212a", "s": "\u017f"}
_WORD = frozenset(map(ord, "0123456789_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"))


def _char_set(node: tuple, flags: int) -> tuple[frozenset[int], bool]:
    """(the ASCII and _ASCII_FOLDS characters one sre node accepts,
    whether it may accept any other non-ASCII character)."""
    op, av = node
    if op is _sre.IN:
        wide = any(o in (_sre.NEGATE, _sre.CATEGORY)
                   or (o is _sre.LITERAL and a >= 128)
                   or (o is _sre.RANGE and a[1] >= 128) for o, a in av)
    else:
        wide = op is not _sre.LITERAL or av >= 128
    state = _sre_parse.State()
    state.flags = flags
    rx = _sre_compile.compile(_sre_parse.SubPattern(state, [node]), flags)
    codes = frozenset(c for c in [*range(128), *map(ord, _ASCII_FOLDS)] if rx.fullmatch(chr(c)))
    if not (codes or wide):
        raise ValueError(f"no character matches {node!r}")
    return codes, wide


def _set_re2(codes: frozenset[int], wide: bool, flags: int) -> str:
    """RE2 for one character out of ``codes`` (or any non-ASCII one when
    ``wide``); a lone character, or under IGNORECASE a letter with the
    characters RE2's (?i) folds it to, stays a bare literal."""
    ascii_ = sorted(c for c in codes if c < 128)
    if not wide and ascii_:
        ch = chr(ascii_[-1])
        same = {ch}
        if flags & re.IGNORECASE:
            same |= {ch.swapcase(), *_RE2_FOLDS.get(ch.lower(), "")}
        if {chr(c) for c in codes} <= same:
            return ch if ch.isalnum() else rf"\x{ascii_[-1]:02x}"
    runs: list[str] = []
    for c in ascii_ if wide else sorted(codes):
        if runs and c == runs[-1][1] + 1:
            runs[-1][1] = c
        else:
            runs.append([c, c])
    hx = (lambda c: rf"\x{c:02x}" if c < 128 else rf"\x{{{c:x}}}")
    body = "".join(hx(a) + (f"-{hx(b)}" if b > a else "") for a, b in runs)
    cls = "[" + body + (r"\x{80}-\x{10ffff}" if wide else "") + "]"
    # the class lists every character it takes; under (?i) RE2 would fold
    # the long s and Kelvin sign back into s, S, k, K
    if flags & re.IGNORECASE and (wide or max(codes) >= 128):
        return f"(?-i:{cls})"
    return cls


_ONE_CHAR: dict[tuple, str] = {}


def _one_char(node: tuple, flags: int, lead: bool, trail: bool) -> str:
    """One-character node, with a \\b before (``lead``) and/or after
    (``trail``) it kept in front of its ASCII word characters only."""
    key = (repr(node), int(flags), lead, trail)
    if key not in _ONE_CHAR:
        _ONE_CHAR[key] = _one_char_re2(node, flags, lead, trail)
    return _ONE_CHAR[key]


def _one_char_re2(node: tuple, flags: int, lead: bool, trail: bool) -> str:
    codes, wide = _char_set(node, flags)
    if not (lead or trail):
        return _set_re2(codes, wide, flags)
    word, rest = codes & _WORD, codes - _WORD
    parts = []
    if word:
        parts.append((r"\b" if lead else "") + _set_re2(word, False, flags) + (r"\b" if trail else ""))
    if rest or wide:
        parts.append(_set_re2(rest, wide, flags))
    return parts[0] if len(parts) == 1 else "(?:" + "|".join(parts) + ")"


def _push_boundaries(seq) -> list:
    """``seq`` with groups that change no flag inlined and each \\b that
    borders a branch moved into every alternative of it."""
    out: list = []
    for op, av in seq:
        if op is _sre.SUBPATTERN and not (av[1] or av[2]):
            out.extend(_push_boundaries(av[3]))
        else:
            out.append((op, av))
    i, res = 0, []
    while i < len(out):
        op, av = out[i]
        if op is _sre.BRANCH:
            lead = bool(res) and res[-1] == _B
            trail = i + 1 < len(out) and out[i + 1] == _B
            if lead:
                res.pop()
            alts = [[_B] * lead + _push_boundaries(a) + [_B] * trail for a in av[1]]
            res.append((op, (av[0], alts)))
            i += 1 + trail
        else:
            res.append((op, av))
            i += 1
    return res


def _quant(lo: int, hi) -> str:
    hi_s = "" if hi is _sre.MAXREPEAT else str(hi)
    if hi_s == str(lo):
        return "" if lo == 1 else f"{{{lo}}}"
    return {"0,": "*", "1,": "+", "0,1": "?"}.get(f"{lo},{hi_s}", f"{{{lo},{hi_s}}}")


def _factors(seq, flags: int) -> list[tuple[str, bool]]:
    """RE2 translation of an sre sequence as (factor, may match the empty
    string anywhere) pairs whose concatenation is the translation. A
    repeat X{lo,hi} with lo >= 1 is split into X then X{lo-1,hi-1}, so
    the digit that starts every ND pattern is a factor of its own."""
    seq = _push_boundaries(seq)
    out: list[tuple[str, bool]] = []
    for i, (op, av) in enumerate(seq):
        if op in _ONE_CHAR_OPS:
            lead = i > 0 and seq[i - 1] == _B
            trail = i + 1 < len(seq) and seq[i + 1] == _B
            out.append((_one_char((op, av), flags, lead, trail), False))
        elif op is _sre.BRANCH:
            out.append(("(?:" + "|".join(_re2(alt, flags) for alt in av[1]) + ")", False))
        elif op is _sre.SUBPATTERN:
            _, add, drop, sub = av
            inner = (flags | add) & ~drop
            if (inner ^ flags) & re.IGNORECASE:
                head = "(?i:" if inner & re.IGNORECASE else "(?-i:"
            else:
                head = "(?:"
            out.append((head + _re2(sub, inner) + ")", False))
        elif op in (_sre.MAX_REPEAT, _sre.MIN_REPEAT):
            lo, hi, sub = av
            if max(lo, 0 if hi is _sre.MAXREPEAT else hi) > _RE2_MAX_REPEAT:
                raise ValueError(f"repeat {{{lo},{hi}}} exceeds RE2's limit")
            body = _re2(sub, flags)
            if not body:
                continue
            one = len(sub) == 1 and sub[0][0] in _ONE_CHAR_OPS
            atom = body if one else f"(?:{body})"
            if lo >= 1:
                out.append((atom, False))
                lo, hi = lo - 1, hi if hi is _sre.MAXREPEAT else hi - 1
                if hi == 0:
                    continue
            out.append((atom + _quant(lo, hi), lo == 0))
        elif op in (_sre.ASSERT, _sre.ASSERT_NOT):
            continue
        elif op is _sre.AT and av is _sre.AT_BOUNDARY:
            # kept by a one-character neighbour (_one_char), else dropped
            continue
        elif op is _sre.AT and av in _DROPPED_ATS:
            continue
        else:
            raise ValueError(f"cannot derive an RE2 trigger for {op} {av!r}")
    return out


def _re2(seq, flags: int) -> str:
    return "".join(f for f, _ in _factors(seq, flags))


@functools.lru_cache(maxsize=None)
def _trigger_factors(pattern: str, flags: int) -> tuple[bool, tuple[tuple[str, bool], ...]]:
    """(IGNORECASE at top level, top-level factors) of a pattern."""
    tree = _sre_parse.parse(pattern, flags)
    top = tree.state.flags
    if top & (re.LOCALE | re.ASCII):
        raise ValueError("LOCALE/ASCII patterns are not derived")
    return bool(top & re.IGNORECASE), tuple(_factors(tree.data, top))


def _wrap(ci: bool, body: str) -> str:
    return f"(?i:{body})" if ci else body


def derive_trigger(pattern: str, flags: int) -> str:
    """RE2 regex that matches every text ``pattern`` has a finditer hit
    in (see the section comment above); raises ValueError on a construct
    it cannot translate."""
    ci, fs = _trigger_factors(pattern, flags)
    return _wrap(ci, "".join(f for f, _ in fs))


def get_trigger_groups(profile: str = "conformance") -> list[tuple[str, str, list[PatternSpec]]]:
    """[(key, RE2 trigger, [spec])] for a profile, whose OR is a
    necessary condition for any span: the union trigger over the
    unanchored specs (which also fires on every non-ASCII row), and a
    case-insensitive alternation of the anchored specs' words. The batch
    stage (ray_pipeline._prescreen) runs the first as one RE2 pass and
    looks for the words in one Aho-Corasick pass instead; this form is
    for probes that OR RE2 passes."""
    specs = get_specs(profile)
    words = "|".join("".join(c if c.isalnum() else rf"\x{{{ord(c):x}}}" for c in w)
                     for w in anchor_words(profile))
    return [("union", union_trigger(profile), [s for s in specs if s.anchor is None]),
            ("anchors", f"(?i:{words})", [s for s in specs if s.anchor is not None])]


@functools.lru_cache(maxsize=None)
def anchor_words(profile: str = "conformance") -> list[str]:
    """The lower-cased words of every anchored spec of a profile, sorted."""
    return sorted({w.lower() for s in get_specs(profile) if s.anchor is not None for w in s.anchor[0]})


def _core(fs: tuple[tuple[str, bool], ...]) -> tuple[str, ...]:
    """Factors without the leading/trailing ones that can match empty:
    a text has a match of X Y? iff it has a match of X."""
    lo, hi = 0, len(fs)
    while lo < hi and fs[lo][1]:
        lo += 1
    while hi > lo and fs[hi - 1][1]:
        hi -= 1
    return tuple(f for f, _ in fs[lo:hi])


def _contains(outer: tuple[str, ...], inner: tuple[str, ...]) -> bool:
    n = len(inner)
    return any(outer[i: i + n] == inner for i in range(len(outer) - n + 1))


@functools.lru_cache(maxsize=None)
def union_trigger(profile: str = "conformance") -> str:
    """One RE2 alternation of the UNANCHORED specs' triggers plus any
    non-ASCII character. It matches every text some unanchored spec
    trigger matches, and every non-ASCII text; a row it misses is ASCII
    and can skip every unanchored spec, and every anchored spec except at
    its anchor starts (derive_anchor), which the batch stage finds in its
    own pass. The anchored specs' triggers (the vocabulary word lists)
    stay out, which keeps RE2's DFA and its per-call compile small.

    A trigger whose factor sequence contains another trigger's as a
    contiguous run (same case mode) is left out: every text it matches,
    the other matches too. So every ND trigger reduces to the lone digit
    of the 1-2 digit residual's trigger."""
    cores = dict.fromkeys(
        (ci, _core(fs)) for ci, fs in
        (_trigger_factors(s.pattern, s.flags) for s in get_specs(profile) if s.anchor is None)
    )
    keep = [
        (ci, c) for ci, c in cores
        if not any(d != c and dci == ci and _contains(c, d) for dci, d in cores)
    ]
    return "|".join([*(_wrap(ci, "".join(c)) for ci, c in keep), r"[\x{80}-\x{10ffff}]"])


# -------------------------------------------- derived anchors (detect)
#
# A spec's anchor is a set of literal words and an offset such that, on
# ASCII text, every match starting at p holds one of the words at
# p + offset, compared ASCII-case-insensitively. The batch stage
# (ray_pipeline._prescreen) finds every word of every anchored spec in
# one multi-literal pass over every ASCII row: a row with an anchor start
# fires, whether the union trigger hit it or not, and the spec's regex is
# tried only at those starts (gates._walk), exactly as gates.cue_matches
# does for cue words.
# - The walk runs over the top-level sequence of the parse tree. A
#   zero-width node (lookaround, \b, ^, $) is skipped: dropping it can
#   only widen what matches. Each fixed-width node adds its width to the
#   offset; after the first variable-width node no anchor can start.
# - A node is a candidate when it matches only a finite set of strings:
#   a literal, a class of literals, or a branch or capturing group of
#   those. A single string concatenates with the finite node after it,
#   which undoes the parser's factoring of a common prefix out of a
#   branch ("j(?:an|une)").
# - The candidate whose shortest word is longest wins, if that word has
#   at least 3 characters.
# On ASCII text IGNORECASE folds a literal ASCII letter to its two cases
# and nothing else (and a literal fold letter, gates.ASCII_FOLDS, to the
# ASCII letter it folds to), and a case-sensitive literal matches a
# subset of those, so a case-insensitive search for the folded words
# finds a superset of the starts; match() rejects the rest. Non-ASCII
# rows are left to the triggers (the union trigger fires on every one of
# them): there a fold letter in the text matches an ASCII literal under
# IGNORECASE, and the multi-literal pass reports byte offsets.

_ZERO_WIDTH = (_sre.ASSERT, _sre.ASSERT_NOT, _sre.AT)


def _strings(seq) -> set[str] | None:
    """The finite set of strings an sre sequence matches, or None."""
    out = {""}
    for op, av in seq:
        if op in _ZERO_WIDTH:
            continue
        words = _node_strings(op, av)
        if words is None or (len(out) > 1 and len(words) > 1):
            return None
        out = {a + b for a in out for b in words}
    return out


def _node_strings(op, av) -> set[str] | None:
    if op is _sre.LITERAL:
        return {chr(av)}
    if op is _sre.IN and all(o is _sre.LITERAL for o, _ in av):
        return {chr(a) for _, a in av}
    if op is _sre.BRANCH:
        alts = [_strings(alt) for alt in av[1]]
        return None if None in alts else set().union(*alts)
    if op is _sre.SUBPATTERN and not (av[1] or av[2]):
        return _strings(av[3])
    return None


def derive_anchor(pattern: str, flags: int) -> tuple[frozenset[str], int] | None:
    """(words, offset) such that every match of ``pattern`` on ASCII text
    holds one of the words at ``offset`` from its start, compared
    ASCII-case-insensitively (see the section comment above); None when
    no word set of at least 3 characters exists. Under IGNORECASE the
    words are folded as gates._cue_lower folds text: a literal İ ı ſ K
    matches an ASCII letter there."""
    tree = _sre_parse.parse(pattern, flags)
    best, run, run_at, offset = None, None, 0, 0

    def close():
        nonlocal best
        if run and min(map(len, run)) >= 3 and (
                best is None or min(map(len, run)) > min(map(len, best[0]))):
            best = (run, run_at)

    for op, av in tree.data:
        if op in _ZERO_WIDTH:
            continue
        words = _node_strings(op, av)
        if words is not None and run is not None and len(run) == 1:
            (head,) = run
            run = {head + w for w in words}
        else:
            close()
            run, run_at = (words, offset) if offset is not None else (None, 0)
        lo, hi = _sre_parse.SubPattern(tree.state, [(op, av)]).getwidth()
        offset = offset + lo if offset is not None and lo == hi else None
        if run is None and offset is None:
            break
    close()
    if best is None:
        return None
    words, at = best
    if tree.state.flags & re.IGNORECASE:
        words = {_cue_lower(w) for w in words}
    return frozenset(words), at
