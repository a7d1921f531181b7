"""Span data model + overlap resolution + span→BILOU algebra.

Span semantics mirror the reference exactly: character offsets, half-open
[start, end), label in the 9-entity taxonomy
[ref: pii_synth/generation.py:24-29; pii_synth/build_datasets.py:57-60].
"""

from __future__ import annotations

import bisect
import itertools
import operator
import re
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Span:
    start: int
    end: int
    label: str

    def as_dict(self) -> dict:
        return {"start": self.start, "end": self.end, "label": self.label}

    def __iter__(self):
        return iter((self.start, self.end, self.label))


# Detector resolution priority (SURVEY.md §7.5.1): higher-confidence /
# more-specific classes win overlapping candidates.
PRIORITY: dict[str, int] = {
    "EMAIL": 0,
    "CREDIT_CARD": 1,
    "SSN": 2,
    "PHONE": 3,
    "DATE": 4,
    "AGE": 5,
    "ADDRESS": 6,
    "ORG": 7,
    "PERSON": 8,
    # code profile extras
    "API_KEY": 0,
    "IP": 1,
}


def resolve_overlaps(cands: list[tuple] | list[Span]) -> list[Span]:
    """Deterministic non-overlap resolution: accept candidates in order of
    (longer first, class priority, earlier first); skip any overlapping an
    accepted span. Longest-first so a composite match (full street address,
    obfuscated email) beats the short numerics it contains. Returns spans
    sorted by start.

    Each candidate is a (start, end, label) triple (a Span unpacks as
    one) whose label may be a pending gate: a callable with no arguments
    that returns the label, or None for no span. Gates run lazily, one
    length tier at a time, longest first: a candidate that overlaps a
    span accepted in an earlier tier is dropped before its gate runs,
    since that span is strictly longer and wins whatever the gate would
    return. The tier's other gates then run, the labelled survivors are
    sorted by (priority, start), stably, and accepted greedily. Gates are
    pure functions of the text and their match, so skipping one changes
    no span, and on labelled candidates this is exactly the
    (start - end, priority, start) order.

    Accepted spans never overlap, so in (start, end) order their ends are
    sorted too: of the accepted spans starting before a candidate's end,
    the last one has the largest end, and the candidate overlaps one of
    them iff it overlaps that one. A bisect finds it."""
    accepted: list[tuple[int, int, str]] = []
    bounds: list[tuple[int, int]] = []   # accepted (start, end), sorted

    def covered(s: int, e: int) -> bool:
        i = bisect.bisect_left(bounds, (e,))
        return bool(i) and bounds[i - 1][1] > s

    ordered = sorted(cands, key=_neg_len)
    for _, tier in itertools.groupby(ordered, key=_neg_len):
        live = []
        for s, e, label in tier:
            if covered(s, e):
                continue
            if callable(label):
                label = label()
                if label is None:
                    continue
            live.append((PRIORITY.get(label, 99), s, e, label))
        live.sort(key=operator.itemgetter(0, 1))
        for _, s, e, label in live:
            if not covered(s, e):
                bisect.insort(bounds, (s, e))
                accepted.append((s, e, label))
    accepted.sort()
    return [Span(s, e, label) for s, e, label in accepted]


def _neg_len(c: tuple | Span) -> int:
    s, e, _ = c
    return s - e


_WORD_RE = re.compile(r"\S+")


def spans_to_bilou_offsets(
    offsets: list[tuple[int, int]], spans: list[Span],
) -> list[str]:
    """Reference-exact span→token BILOU over ARBITRARY token offsets —
    including a subword tokenizer's offset_mapping, where one word yields
    several tokens. Special tokens (offset (0, 0)) are skipped and keep
    "O" (the reference maps them to -100 at id-encoding time, outside
    this alignment). Overlap rule: tok_end > span_start and
    tok_start < span_end; 1 overlapping token -> U-, else B-/I-*/L-
    [ref: pii_synth/build_datasets.py:57-86]."""
    labels = ["O"] * len(offsets)
    for sp in sorted(spans):
        idxs = [
            i
            for i, (ts, te) in enumerate(offsets)
            if not (ts == 0 and te == 0) and te > sp.start and ts < sp.end
        ]
        if not idxs:
            continue
        if len(idxs) == 1:
            labels[idxs[0]] = "U-" + sp.label
        else:
            labels[idxs[0]] = "B-" + sp.label
            for i in idxs[1:-1]:
                labels[i] = "I-" + sp.label
            labels[idxs[-1]] = "L-" + sp.label
    return labels


def spans_to_bilou(text: str, spans: list[Span]) -> tuple[list[str], list[str]]:
    """Whitespace-word-level BILOU labels.

    Reproduces the reference's span→token alignment rule: a token overlaps a
    span iff tok_end > span_start and tok_start < span_end; single
    overlapping token -> U-, else B-, I-*, L-
    [ref: pii_synth/build_datasets.py:30-106; evaluation/model_evaluation.py:163-221
    — both implement the same overlap rule; merged here per SURVEY.md M19/M21].
    Returns (tokens, labels). Used for conformance metrics only — at scale the
    engine operates on char spans directly (SURVEY.md §1.2).
    """
    tokens: list[tuple[int, int, str]] = [
        (m.start(), m.end(), m.group()) for m in _WORD_RE.finditer(text)
    ]
    labels = spans_to_bilou_offsets([(ts, te) for ts, te, _ in tokens], spans)
    return [t[2] for t in tokens], labels
