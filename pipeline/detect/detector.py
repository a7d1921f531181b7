"""Core span detector: regex candidates + gates + overlap resolution.

This is the deterministic replacement for the reference's RoBERTa forward
pass + softmax/argmax decode + confidence post-filter
(evaluation/model_evaluation.py:248-281, SURVEY.md M24/M26). Patterns are
compiled once at module import — once per Ray worker process — so the hot
path is pure C-regex scanning (SURVEY.md §7.4: stateless map_batches stage).
"""

from __future__ import annotations

import functools

from pipeline.detect.gates import _walk
from pipeline.detect.patterns import get_specs
from pipeline.detect.spans import Span, resolve_overlaps


def detect_spans(text: str, profile: str = "conformance", runs=None) -> list[Span]:
    """All PII spans in `text`, non-overlapping, sorted by start.

    With no `runs` every spec of the profile runs a full finditer scan:
    this is the oracle the batch stage is tested against. `runs`
    restricts the scan to (spec, starts) pairs, kept in get_specs order:
    the batch stage (ray_pipeline._fired_spans) passes the specs whose
    derived RE2 trigger fired on the row (starts None: a full finditer
    scan) and the anchored specs with the ascending starts their anchor
    words give (finditer's walk over those starts alone, gates._walk).
    The output equals a full run: on any text each trigger is a
    necessary condition for its spec (patterns.derive_trigger), and on
    ASCII text a match starts only where its anchor allows
    (patterns.derive_anchor).

    Each match's gate is not called here: the candidate carries it as a
    pending label, and resolve_overlaps calls it only if no strictly
    longer accepted span covers the candidate (the gate's label could
    not win there). Empty matches are dropped before any gate."""
    if runs is None:
        runs = [(spec, None) for spec in get_specs(profile)]
    cands: list[tuple] = []
    for spec, starts in runs:
        found = spec.compiled.finditer(text) if starts is None else _walk(spec.compiled, text, starts)
        gate, label, group = spec.gate, spec.label, spec.group
        for m in found:
            s, e = m.span(group)
            if s < e:
                cands.append((s, e, label if gate is None else functools.partial(gate, text, m)))
    return resolve_overlaps(cands)
