"""Single-process golden implementation — the parity reference.

Runs the exact per-row semantics (detect -> scrub -> hash; quality scores
-> keep/drop) in a plain Python loop with no Ray, mirroring the
reference's sequential execution model (SURVEY.md §3.3). Distributed
pipeline output must match this oracle per row (content sha256 equality —
the north-rule invariant).

The oracle deliberately shares the pure functions in pipeline.detect /
pipeline.quality: the parity test then proves the *distributed execution*
(partitioning, batching, actor pools, any-parallelism RNG) preserves
per-row semantics, which is the property a distributed engine must
evidence. Detector *quality* vs ground-truth labels is evidenced
separately (first-try span F1 >= 0.99, pipeline.metrics).
"""

from __future__ import annotations

import pandas as pd

from pipeline._util import sha256_hex
from pipeline.detect.scrub import scrub_text


def oracle_scrub_frame(texts: list[str], profile: str = "conformance") -> pd.DataFrame:
    """Sequential scrub of a list of texts -> DataFrame with spans json,
    scrubbed text and sha256."""
    rows = []
    for t in texts:
        scrubbed, spans = scrub_text(t, profile)
        rows.append(
            {
                "n_spans": len(spans),
                "content_scrubbed": scrubbed,
                "content_sha256": sha256_hex(scrubbed),
            }
        )
    return pd.DataFrame(rows)


def oracle_code_frame(df: pd.DataFrame) -> pd.DataFrame:
    """Sequential full flagship semantics over a code_files frame:
    langid + perplexity + heuristics + scrub + decide. Columns match
    pipeline.ray_pipeline.flagship_pipeline output."""
    from pipeline.quality.heuristics import heuristic_scores
    from pipeline.quality.langid import LangIdModel
    from pipeline.quality.perplexity import PerplexityModel
    from pipeline.quality.decide import decide_row

    lang_model = LangIdModel.default()
    ppl_model = PerplexityModel.default()
    out = []
    for rec in df.to_dict("records"):
        content = rec["content"] if isinstance(rec["content"], str) else ""  # null -> ""
        scores = heuristic_scores(content)
        lang_pred, lang_conf = lang_model.predict_one(content)
        ppl = ppl_model.score_one(content)
        scrubbed, spans = scrub_text(content, profile="code")
        keep, reason = decide_row(
            lang_claim=rec["lang"], lang_pred=lang_pred, lang_conf=lang_conf,
            perplexity=ppl, content_len=len(content), **scores,
        )
        out.append(
            {
                **rec,
                **scores,
                "lang_pred": lang_pred,
                "lang_conf": lang_conf,
                "perplexity": ppl,
                "n_pii_spans": len(spans),
                "content_scrubbed": scrubbed,
                "content_sha256": sha256_hex(scrubbed),
                "keep": keep,
                "drop_reason": reason,
            }
        )
    return pd.DataFrame(out)
