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

    `specs` restricts the scan to a subset, kept in get_specs order: the
    batch stage (ray_pipeline._fired_spans) passes only the specs whose
    derived RE2 trigger fired on the row. The output equals a full run
    because on any text each trigger is a necessary condition for its
    spec (patterns.derive_trigger)."""
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

