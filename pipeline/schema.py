"""Fixed pyarrow schemas for every table (SURVEY.md §1.2).

The reference's dynamic HF-datasets schema is replaced by explicit Arrow
schemas; stages validate their output against these.
"""

from __future__ import annotations

import pyarrow as pa

SPAN_TYPE = pa.list_(
    pa.struct([("start", pa.int32()), ("end", pa.int32()), ("label", pa.string())])
)

# flagship input (BASELINE.json.input_hint)
CODE_FILES = pa.schema(
    [
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("content", pa.string()),
    ]
)

# conformance corpus (FIXTURES.md §2)
CONFORMANCE_DOCS = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("kind", pa.string()),
        ("text", pa.string()),
        ("spans", SPAN_TYPE),
        ("expected_scrubbed", pa.string()),
        ("expected_sha256", pa.string()),
    ]
)

QUALITY_COLUMNS = [
    ("lang_pred", pa.string()),
    ("lang_conf", pa.float64()),
    ("perplexity", pa.float64()),
    ("line_len_mean", pa.float64()),
    ("line_len_max", pa.int64()),
    ("alnum_ratio", pa.float64()),
    ("repetition_score", pa.float64()),
]

SCRUB_COLUMNS = [
    ("n_pii_spans", pa.int64()),
    ("content_scrubbed", pa.string()),
    ("content_sha256", pa.string()),
]

DECIDE_COLUMNS = [
    ("keep", pa.bool_()),
    ("drop_reason", pa.string()),
]

SCRUB_OUT = pa.schema(
    list(CODE_FILES) + QUALITY_COLUMNS + SCRUB_COLUMNS + DECIDE_COLUMNS
)

REPO_STATS = pa.schema(
    [
        ("repo", pa.string()),
        ("n_files", pa.int64()),
        ("n_bytes", pa.int64()),
        ("n_kept", pa.int64()),
        ("n_dup_content", pa.int64()),
        ("keep_rate", pa.float64()),
    ]
)
