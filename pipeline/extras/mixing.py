"""Data-mixing operators for training-set assembly: deterministic
weighted sampling (per-source mixture rates) and greedy sequence
packing (token-budget binning).

- ``weighted_sample``: Bernoulli per row with a DETERMINISTIC hash —
  a golden-ratio Weyl step ``h = (id % M) * A % M`` with
  M = 2147483647 (prime) and A = round(M / phi) = 1327217884 — chosen
  over a stronger bit-mixer precisely because the arithmetic stays
  inside int64 (max intermediate < 2^62, no wraparound anywhere), so
  ANSI SQL reproduces it bit-for-bit and the sample is verifiable
  against the DuckDB oracle, re-runnable, and stable across cluster
  sizes.  A multiplicative map mod a prime is affine, so its sampling
  quality is exactly the 1-D equidistribution of {id*A/M} — the
  golden-ratio multiplier makes that a Weyl sequence with optimal
  discrepancy, correct even for small consecutive id ranges (a plain
  LCG multiplier like 48271 fails there: id*48271 never wraps M for
  id < 44k, so low ids all land below any threshold).  The rate
  threshold compares in the INTEGER domain (h < floor(rate*M)) to
  avoid float-boundary disagreement.  Map-only: no shuffle, no state.
- ``pack_bins``: first-fit-in-order greedy packing of documents into
  token-budget bins, the standard pretraining sequence-packing step.
  Packing is inherently a sequential scan, so it runs per (key,
  shard): rows are bucketed and ordered by [[pipeline/partition.py]]
  ``per_key_ordered`` and each key's docs pack independently — at
  100 TB each shard packs its own bins (bins never straddle shards),
  which is exactly how production packers behave.  The scan itself is
  O(n_bins) searchsorted steps over the cumsum, not O(n_docs) Python.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

_WEYL_M = 2147483647  # 2^31 - 1 (prime)
_WEYL_A = 1327217884  # round(M / golden ratio); coprime to the prime M


def weyl_hash(ids: np.ndarray) -> np.ndarray:
    """h(id) in [0, M): golden-ratio Weyl step on (id mod M).  Max
    intermediate is (M-1)*A < 2^62 — int64-safe, and expressible
    verbatim in SQL: ((id % 2147483647) * 1327217884) % 2147483647
    for NON-NEGATIVE ids.  numpy ``%`` is floored (always yields a
    non-negative remainder) while SQL ``%`` preserves the dividend's
    sign, so for ids that can be negative the SQL mirror needs the
    sign-safe form ``((id % M) + M) % M`` in place of ``id % M`` (see
    sample_order_sql_expr, which emits it)."""
    ids = ids.astype(np.int64, copy=False)
    return (ids % _WEYL_M) * _WEYL_A % _WEYL_M


def sample_mask(ids: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Deterministic Bernoulli: keep row i iff h(id_i) < floor(rate_i*M).
    Integer-domain compare — no float boundary ambiguity vs the oracle."""
    thresh = np.floor(np.asarray(rates, dtype=np.float64) * _WEYL_M).astype(np.int64)
    return weyl_hash(ids) < thresh


def weighted_sample(
    ds: "ray.data.Dataset", *, id_col: str, rate_fn,
) -> "ray.data.Dataset":
    """Filter to a deterministic weighted sample.  ``rate_fn(batch) ->
    np.ndarray[float64]`` assigns each row its keep-rate (e.g. a lookup
    from a source-mixture table); map-only, the corpus streams."""

    def stage(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        mask = sample_mask(ids, rate_fn(t))
        return t.filter(pa.array(mask))

    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


def sample_order_sql_expr(col: str, seed: int = 0) -> str:
    """The ANSI-SQL mirror of the exact-k sample's ordering key —
    sign-safe: the inner ``(x % M + M) % M`` reproduces numpy's floored
    modulo for negative ids too (SQL ``%`` preserves sign), so the
    expression equals ``weyl_hash(id + seed)`` for any int64 id as long
    as ``id + seed`` itself doesn't overflow int64 (numpy would wrap
    silently where SQL errors — keep seeds small)."""
    return (
        f"(((({col} + {seed}) % {_WEYL_M}) + {_WEYL_M}) % {_WEYL_M})"
        f" * {_WEYL_A} % {_WEYL_M}"
    )


def sample_exact_k(
    ds: "ray.data.Dataset", *, id_col: str, k: int, seed: int = 0,
    cols: list[str] | None = None,
) -> pd.DataFrame:
    """Deterministic exact-size-k uniform sample (the reservoir-sampling
    replacement that is re-runnable and SQL-verifiable): the k rows with
    the smallest Weyl-hashed ids win, globally.  One streaming pass —
    each batch emits only its own k smallest candidates (argpartition),
    the driver merges <= k * n_batches tiny partials.  Unlike a true
    reservoir it needs no sequential state, so it parallelizes freely
    and the sample is identical across cluster sizes and run orders.
    Equals ``ORDER BY ((id+seed)%M)*A%M, id LIMIT k`` in SQL."""

    def partial(t: pa.Table) -> pa.Table:
        if cols is not None:
            t = t.select(list(dict.fromkeys([id_col] + cols)))
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = weyl_hash(ids + np.int64(seed))
        if len(h) > k:
            sel = np.sort(np.argpartition(h, k - 1)[:k])
            t = t.take(pa.array(sel))
            h = h[sel]
        return t.append_column("_h", pa.array(h))

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True,
    ).to_pandas()
    out = parts.sort_values(["_h", id_col]).head(k)
    return out.drop(columns=["_h"]).reset_index(drop=True)


def hash_split(
    ds: "ray.data.Dataset", *, id_col: str,
    fractions: tuple = (0.8, 0.1, 0.1),
    names: tuple = ("train", "val", "test"), seed: int = 0,
) -> "ray.data.Dataset":
    """Deterministic disjoint train/val/test assignment — the corpus
    split step of every training-data pipeline, as a MAP-ONLY stage (no
    shuffle, no sequential state): split i owns the Weyl-hash interval
    [floor(cum_i*M), floor(cum_{i+1}*M)).  Identical across cluster
    sizes and run orders, and SQL-verbatim (integer thresholds computed
    once on the driver, so there is no float boundary to disagree on)."""
    if len(fractions) != len(names):
        raise ValueError("fractions and names must align")
    cum = np.cumsum(np.asarray(fractions, dtype=np.float64))
    if not np.isclose(cum[-1], 1.0):
        raise ValueError(f"fractions must sum to 1 (got {cum[-1]})")
    # interior boundaries as exact ints; last bucket catches everything
    bounds = np.floor(cum[:-1] * _WEYL_M).astype(np.int64)
    names_arr = np.asarray(names, dtype=object)

    def assign(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = weyl_hash(ids + np.int64(seed))
        idx = np.searchsorted(bounds, h, side="right")
        return t.append_column(
            "split", pa.array(names_arr[idx], pa.string())
        )

    return ds.map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True,
    )


# ------------------------------------------------------ sequence packing

def pack_greedy(tokens: np.ndarray, budget: int) -> np.ndarray:
    """First-fit-in-order bin ids: a new bin starts when adding the next
    doc would exceed ``budget``; an oversized single doc gets its own
    bin.  O(n_bins) searchsorted steps over the cumsum."""
    tokens = np.asarray(tokens, dtype=np.int64)
    bins = np.empty(len(tokens), dtype=np.int64)
    if not len(tokens):
        return bins
    cum = tokens.cumsum()
    start, b = 0, 0
    base = 0
    while start < len(tokens):
        end = int(np.searchsorted(cum, base + budget, side="right"))
        end = max(end, start + 1)  # oversized doc: own bin
        bins[start:end] = b
        base = int(cum[end - 1])
        b += 1
        start = end
    return bins


def pack_bins(
    ds: "ray.data.Dataset", *, key: str, order_by: list[str],
    token_col: str, budget: int,
) -> "ray.data.Dataset":
    """Per-key greedy sequence packing: rows arrive at the packer
    bucketed and sorted by (key, *order_by); each key's docs pack
    independently into ``bin_id`` 0..n_bins-1 (bin ids are per-key).
    Returns the input rows + bin_id."""
    from pipeline.partition import per_key_ordered

    def pack_frame(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, grp in g.groupby(key, sort=False):
            grp = grp.copy()
            grp["bin_id"] = pack_greedy(grp[token_col].to_numpy(), budget)
            out.append(grp)
        return pd.concat(out, ignore_index=True)

    return per_key_ordered(ds, key=key, order_by=order_by, fn=pack_frame)


def pack_summary(packed: pd.DataFrame, *, key: str, token_col: str,
                 budget: int) -> pd.DataFrame:
    """Per-key packing report: bins used, docs, tokens, mean fill."""
    g = packed.groupby(key)
    out = pd.DataFrame({
        "n_bins": g["bin_id"].nunique(),
        "n_docs": g.size(),
        "total_tokens": g[token_col].sum(),
    }).reset_index()
    out["mean_fill"] = out["total_tokens"] / (out["n_bins"] * budget)
    return out.sort_values(key).reset_index(drop=True)


def temperature_targets(
    counts: pd.DataFrame, *, key_col: str, n_col: str, n_target: int,
    alpha: float = 0.5,
) -> pd.DataFrame:
    """Per-key sample targets under temperature-based mixing
    (p_key proportional to n_key^alpha — the T5/mT5 source-balancing
    rule): k_key = n_target * w_key // sum(w), w_key =
    floor(sqrt(n_key) * 1e6) as int64.

    Only alpha=0.5 is supported: IEEE-754 requires sqrt to be correctly
    rounded, so numpy and DuckDB produce the identical double and the
    targets are bit-portable to the SQL oracle; pow(x, alpha) for other
    alphas is libm-dependent and would break oracle parity.  The floor
    loss means sum(k) <= n_target (never over-budget)."""
    if alpha != 0.5:
        raise NotImplementedError(
            "only alpha=0.5 (sqrt) is bit-portable across engines; "
            f"got alpha={alpha}"
        )
    n = counts[n_col].to_numpy().astype(np.float64)
    w = np.floor(np.sqrt(n) * 1e6).astype(np.int64)
    total = int(w.sum())
    out = counts[[key_col]].copy()
    out["w"] = w
    # n_target * w in PYTHON ints: exact at any magnitude (int64 would
    # silently wrap to negative k around n_target*sqrt(n)*1e6 ~ 2^63,
    # the overflow class asof_join/_GLEN_BITS guard against loudly)
    out["k"] = (
        [(int(n_target) * int(x)) // total for x in w] if total
        else np.int64(0)
    )
    out["k"] = out["k"].astype("int64")
    return out


def temperature_sample(
    ds: "ray.data.Dataset", *, key_col: str, id_col: str, n_target: int,
    alpha: float = 0.5, seed: int = 0,
) -> pd.DataFrame:
    """Deterministic temperature-mixed sample: per-key bottom-k_key rows
    by Weyl-hashed id, with k from ``temperature_targets``.  Two
    streaming passes (counts combiner; two-phase top-n trim) — the only
    driver-sized object is the sample itself (<= n_target rows) plus the
    <= n_keys * max(k) trimmed candidates.  Equals the SQL
    row_number()-over-hash-order <= k_key formulation."""
    from pipeline.extras.corpusstats import value_counts
    from pipeline.partition import topn_per_key

    counts = value_counts(ds, key_col).to_pandas()
    if not len(counts):
        return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                             key_col: pd.Series([], dtype="object")})
    targets = temperature_targets(
        counts, key_col=key_col, n_col="n", n_target=n_target, alpha=alpha,
    )
    kmap = dict(zip(targets[key_col], targets["k"]))
    max_k = int(targets["k"].max())
    if max_k == 0:
        return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                             key_col: pd.Series([], dtype="object")})

    def add_h(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("_h", pa.array(weyl_hash(ids + np.int64(seed))))

    cand = topn_per_key(
        ds.map_batches(add_h, batch_format="pyarrow", zero_copy_batch=True)
        .select_columns([id_col, key_col, "_h"]),
        key=key_col, order_by=["_h", id_col], ascending=[True, True],
        n=max_k,
    ).to_pandas()
    cand["_k"] = cand[key_col].map(kmap)
    out = cand[cand["rnk"] <= cand["_k"]]
    return (
        out[[id_col, key_col]].sort_values(id_col).reset_index(drop=True)
    )
