"""Core span detector: regex candidates + gates + overlap resolution.

This is the deterministic replacement for the reference's RoBERTa forward
pass + softmax/argmax decode + confidence post-filter
(evaluation/model_evaluation.py:248-281, SURVEY.md M24/M26). Patterns are
compiled once at module import — once per Ray worker process — so the hot
path is pure C-regex scanning (SURVEY.md §7.4: stateless map_batches stage).
"""

from __future__ import annotations

from pipeline.detect.patterns import get_specs
from pipeline.detect.spans import Span, resolve_overlaps


def detect_spans(text: str, profile: str = "conformance", specs=None) -> list[Span]:
    """All PII spans in `text`, non-overlapping, sorted by start.

    `specs` restricts the scan to a subset (the batch stage passes only
    the trigger groups whose Arrow prescreen fired — identical output to
    a full run because each trigger is a necessary condition for its
    group, see patterns.get_trigger_groups)."""
    cands: list[Span] = []
    for spec in (get_specs(profile) if specs is None else specs):
        for m in spec.compiled.finditer(text):
            if spec.gate is not None:
                label = spec.gate(text, m)
                if label is None:
                    continue
            else:
                label = spec.label
            s, e = m.span(spec.group)
            if s < e:
                cands.append(Span(s, e, label))
    return resolve_overlaps(cands)

