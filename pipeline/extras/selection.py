"""Token-budget corpus selection WITHOUT a global sort: keep the
best-scoring documents until a token budget is exhausted — the "fill
the training run" selection step — in two streaming passes.

Reference scope note: the reference engine (tursunait/roberta-pii-detector)
selects data by fixed thresholds only; this is a charter "training-data
pipeline" addition (data mixing / selection family, beside
pipeline/extras/mixing.py).

The naive formulation is ORDER BY score DESC, id then a running-sum
cutoff — a full-corpus sort + a serial scan, the worst possible shape
at 100 TB.  This operator produces the bit-identical result with:

1. HISTOGRAM — per-batch (score -> sum tokens, count) combiner, then a
   partition._keyed_reduce over DISTINCT SCORES (bounded by the score
   domain, not the corpus; one task up to DRIVER_REDUCE_MAX_BYTES of
   measured partials, bucketed by score above it).  A driver-side
   descending prefix sum finds the boundary score v*: every doc scoring
   > v* fits the budget, the group at v* only partially.
2. BOUNDARY — only the v*-scoring docs (one group) are pulled, ordered
   by id, and cut at the remaining budget; their selected ids broadcast
   via ray.put.
3. FILTER — map-only verdict: score > v*, or score == v* and id in the
   broadcast set.

Selection rule (== the SQL window formulation, hence oracle-exact):
docs ordered by (score DESC, id ASC) are taken while the INCLUSIVE
running token sum stays <= budget.

The only non-streaming piece is the boundary group; a degenerate score
distribution (everything the same score) makes it the whole corpus, so
MAX_BOUNDARY warns — the production fix is a finer score (more distinct
values), not a bigger driver.

Execution-count note (same caveat as exact dedup's double-execution
shape): the input dataset's lineage runs THREE times — histogram,
boundary fetch, verdict — which is inherent to data-dependent-threshold
selection (pass N's predicate depends on pass N-1's global result).
Callers should feed a NARROW projection (id, score, tokens — as
_corpus_budget_select does) so the re-executed lineage is a pruned read
plus cheap maps; if the upstream is expensive, write the projection to
parquet once and select over that.
"""

from __future__ import annotations

import logging
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from pipeline.partition import _sum_by, _sum_reduce

logger = logging.getLogger(__name__)

MAX_BOUNDARY = 4_000_000  # ~32 MB of (id, token) pairs on the driver


def budget_select(
    ds: "ray.data.Dataset", *, score_col: str, token_col: str,
    budget: int | Callable[[int], int], id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Rows of ``ds`` selected by (score DESC, id ASC) inclusive running
    token sum <= budget.  ``budget`` may be a callable receiving the
    corpus-total token count (e.g. ``lambda total: total // 10``)."""
    def partial(t: pa.Table) -> pa.Table:
        return _sum_by(pa.table({
            score_col: t[score_col], "tok": pc.cast(t[token_col], pa.int64()),
            "n": np.ones(len(t), np.int64),
        }), [score_col])

    hist = _sum_reduce(ds, partial, [score_col])
    if hist is None:  # empty input
        return ds
    hist = hist.to_pandas().sort_values(score_col, ascending=False).reset_index(drop=True)
    total = int(hist["tok"].sum())
    b = int(budget(total)) if callable(budget) else int(budget)

    cum = hist["tok"].cumsum().to_numpy()
    over = np.nonzero(cum > b)[0]
    if len(over) == 0:  # everything fits
        return ds

    i = int(over[0])
    v_star = hist[score_col].iloc[i]
    remaining = b - (int(cum[i - 1]) if i > 0 else 0)
    if int(hist["n"].iloc[i]) > MAX_BOUNDARY:
        logger.warning(
            "budget_select: boundary score group %r holds %d rows "
            "(> MAX_BOUNDARY=%d) — the id-ordered cut materializes it "
            "on the driver; use a finer score to shrink the tie group",
            v_star, int(hist["n"].iloc[i]), MAX_BOUNDARY,
        )

    def boundary_rows(t: pa.Table) -> pa.Table:
        m = pc.equal(t[score_col], v_star)
        f = t.filter(m)
        return pa.table({id_col: f[id_col], "tok": pc.cast(f[token_col], pa.int64())})

    bnd = (
        ds.map_batches(boundary_rows, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .sort_values(id_col)
    )
    bcum = bnd["tok"].cumsum().to_numpy()
    sel_ids = bnd[id_col].to_numpy()[bcum <= remaining]
    sel_ref = ray.put(pa.array(sel_ids))

    def verdict(t: pa.Table) -> pa.Table:
        hi = pc.greater(t[score_col], v_star)
        at = pc.and_(
            pc.equal(t[score_col], v_star),
            pc.is_in(t[id_col], value_set=ray.get(sel_ref)),
        )
        return t.filter(pc.or_(hi, at))

    return ds.map_batches(
        verdict, batch_format="pyarrow", zero_copy_batch=True
    )
