"""Redaction / masking contract + content hashing.

Masking contract: each detected span is replaced by "[LABEL]" (the
reference's redaction semantic per its README masking examples); output is
deterministic, idempotent on already-scrubbed text (the bracket tokens
contain no detectable shapes), and hashed with sha256 for the per-row
parity invariant (BASELINE.json.input_hint: "per-row invariant vs the
reference: content sha256 equality").
"""

from __future__ import annotations

from pipeline.detect.detector import detect_spans
from pipeline.detect.spans import Span


def apply_spans(text: str, spans: list[Span]) -> str:
    """Replace each span with [LABEL], right-to-left so offsets stay valid."""
    out = text
    for sp in sorted(spans, reverse=True):
        out = out[: sp.start] + f"[{sp.label}]" + out[sp.end:]
    return out


def scrub_text(text: str, profile: str = "conformance") -> tuple[str, list[Span]]:
    spans = detect_spans(text, profile)
    return apply_spans(text, spans), spans
