"""Distributed k-means over an embedding column — the clustering
primitive behind cluster-based corpus curation (SemDeDup-style semantic
dedup, cluster-balanced sampling, topic bucketing).

Reference scope note: no counterpart in the reference engine; charter
"training-data pipeline" addition beside ANN/near-dup
([[pipeline/extras/ann.py]]).

``ann.kmeans_lite`` fits centroids on a driver-side sample (good enough
to seed IVF buckets); this module runs Lloyd iterations over the FULL
dataset, which is what you want when clusters feed curation decisions:

- each iteration is ONE streaming pass: centroids broadcast via
  ``ray.put``, every batch emits per-cluster partial (count, sum) rows —
  at most k rows per batch regardless of batch size, so the collected
  partials are O(n_blocks * k), never O(n).
- the driver reduces partials in canonical (cluster, batch-min-id)
  order, so the centroid update is bit-deterministic for a given block
  layout even though partial ARRIVAL order is not.  (Exact invariance
  across different batchings is a float-summation-order property no
  engine guarantees; tests assert membership stability on separated
  data instead.)
- cosine geometry: vectors and centroids are L2-normalized, assignment
  is argmax dot product, the update renormalizes the mean — spherical
  k-means, matching the cosine metric used by ann/near-dup.

At 10^12 rows each pass streams with backpressure and the only driver
state is k centroids + O(blocks * k) partials; for fewer passes, seed
with a larger ``sample_limit`` (the sample fit is usually 1-2 Lloyd
steps from converged).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from pipeline.extras.ann import _norm_rows, _sample_matrix, _to_matrix


def _seed_farthest(sample: np.ndarray, k: int) -> np.ndarray:
    """Deterministic farthest-point seeding (greedy max-min, the
    deterministic cousin of k-means++): first seed = the sample row with
    the smallest norm-adjusted index (row 0 of the hash sample, itself
    deterministic), each next seed the point LEAST similar to its
    nearest chosen seed.  On separated data this lands one seed per
    cluster, avoiding the split/merge local optima random seeding hits."""
    sample = _norm_rows(sample)
    seeds = [0]
    best = sample @ sample[0]  # similarity to nearest seed so far
    for _ in range(1, min(k, len(sample))):
        nxt = int(np.argmin(best))
        seeds.append(nxt)
        best = np.maximum(best, sample @ sample[nxt])
    cent = sample[seeds].copy()
    if len(cent) < k:  # degenerate tiny sample: pad by repeating
        cent = np.vstack([cent, cent[: k - len(cent)]])
    return cent


def _partial_stage(cent_ref, k: int, d: int, vec_col: str, id_col: str):
    def partial(t: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        m = _norm_rows(_to_matrix(t[vec_col]))
        a = (m @ c.T).argmax(axis=1)
        counts = np.bincount(a, minlength=k)
        sums = np.zeros((k, d), dtype=np.float64)
        np.add.at(sums, a, m)
        present = np.nonzero(counts)[0]
        ids = t[id_col].to_numpy(zero_copy_only=False)
        bmin = np.int64(ids.min()) if len(ids) else np.int64(0)
        return pa.table({
            "cluster": pa.array(present.astype(np.int32)),
            "n": pa.array(counts[present].astype(np.int64)),
            "vsum": pa.FixedSizeListArray.from_arrays(
                pa.array(sums[present].reshape(-1)), d
            ),
            "bmin": pa.array(np.full(len(present), bmin)),
        })

    return partial


def kmeans_fit(
    ds: "ray.data.Dataset", *, k: int = 8, n_iter: int = 5,
    vec_col: str = "embedding", id_col: str = "vec_id", seed: int = 42,
    sample_limit: int = 4096,
) -> np.ndarray:
    """Spherical k-means centroids (k x d, L2-normalized rows): seeded
    by deterministic farthest-point selection on a cross-block hash
    sample, then ``n_iter`` full-data Lloyd passes.  An empty cluster
    keeps its previous centroid; an empty dataset gives a (0, 0) array.
    (``seed`` reserved for future randomized init variants; the default
    init is sample-deterministic.)"""
    sample = _sample_matrix(ds, vec_col, id_col, sample_limit)
    if not len(sample):
        return sample  # no rows: no centroids
    cent = _seed_farthest(sample, k)
    d = cent.shape[1]
    for _ in range(n_iter):
        cent_ref = ray.put(cent)
        parts = ds.map_batches(
            _partial_stage(cent_ref, k, d, vec_col, id_col),
            batch_format="pyarrow", zero_copy_batch=True,
        ).to_pandas()
        parts = parts.sort_values(["cluster", "bmin"], kind="stable")
        clusters = parts["cluster"].to_numpy()
        mat = np.stack(parts["vsum"].to_numpy()).astype(np.float64)
        counts = parts["n"].to_numpy()
        new = cent.copy()
        for c in np.unique(clusters):
            rows = clusters == c
            v = mat[rows].sum(axis=0)
            n = np.linalg.norm(v)
            if counts[rows].sum() > 0 and n > 0:
                new[c] = v / n
        cent = new
    return cent


def kmeans_assign(
    ds: "ray.data.Dataset", centroids: np.ndarray, *,
    vec_col: str = "embedding", out_col: str = "cluster_id",
) -> "ray.data.Dataset":
    """Map-only assignment: argmax cosine against the broadcast
    centroids; appends ``out_col`` (int32)."""
    cent_ref = ray.put(_norm_rows(np.asarray(centroids, dtype=np.float64)))

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        m = _norm_rows(_to_matrix(t[vec_col]))
        a = (m @ c.T).argmax(axis=1).astype(np.int32)
        return t.append_column(out_col, pa.array(a))

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def semantic_dedup(
    ds: "ray.data.Dataset", *, threshold: float = 0.95, k: int = 16,
    n_iter: int = 3, vec_col: str = "embedding", id_col: str = "vec_id",
    sample_limit: int = 4096,
) -> pd.DataFrame:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic dedup by
    k-means clustering the embeddings, then finding cosine >= threshold
    pairs WITHIN clusters only (per-group O(|cluster|^2) matmul, never
    global O(n^2)), then reducing the bounded pair stream to a
    connected-component keep-list ([[pipeline/extras/dedup.py]]
    ``dup_groups`` — canonical = component-min id).

    Near-identical vectors land in the same cluster by construction, so
    the within-cluster scan loses only pairs straddling a cluster
    boundary near the threshold (the standard SemDeDup trade; raise k's
    quality with ``n_iter``/``sample_limit``, or use
    ``ann.embedding_near_dup_pairs``'s multi-probe for boundary recall).
    Returns (id, canonical_id, keep); docs in no pair are implicitly
    kept."""
    from pipeline.extras import ann
    from pipeline.extras.dedup import _bucket_pairs, dup_groups

    cent = kmeans_fit(
        ds, k=k, n_iter=n_iter, vec_col=vec_col, id_col=id_col,
        sample_limit=sample_limit,
    )
    if not len(cent):
        return dup_groups(pd.DataFrame({"a": [], "b": []}))
    pairs = _bucket_pairs(
        kmeans_assign(ds.select_columns([id_col, vec_col]), cent, vec_col=vec_col),
        lambda t: t, ["cluster_id"], ann._cosine_scan(threshold, vec_col),
        id_col=id_col, cap=ann.MAX_EMB_BUCKET, extra=[pa.field("cosine", pa.float64())],
    )
    return dup_groups(pairs.select(["a", "b"]).to_pandas())


def cluster_profile(
    ds: "ray.data.Dataset", centroids: np.ndarray, *,
    vec_col: str = "embedding", id_col: str = "vec_id",
) -> pd.DataFrame:
    """Per-cluster report: size + mean cosine to own centroid (cohesion),
    computed in the same single streaming pass as assignment."""
    cent = _norm_rows(np.asarray(centroids, dtype=np.float64))
    cent_ref = ray.put(cent)
    k = len(cent)

    def partial(t: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        m = _norm_rows(_to_matrix(t[vec_col]))
        s = m @ c.T
        a = s.argmax(axis=1)
        best = s[np.arange(len(a)), a]
        counts = np.bincount(a, minlength=k)
        sims = np.bincount(a, weights=best, minlength=k)
        present = np.nonzero(counts)[0]
        return pa.table({
            "cluster_id": pa.array(present.astype(np.int32)),
            "n": pa.array(counts[present].astype(np.int64)),
            "sim_sum": pa.array(sims[present]),
        })

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True,
    ).to_pandas()
    if parts.empty:  # Dataset.to_pandas keeps no columns at zero rows
        return pd.DataFrame(columns=["cluster_id", "n_vecs", "mean_cosine"])
    g = parts.groupby("cluster_id", sort=True).agg(
        n_vecs=("n", "sum"), sim_sum=("sim_sum", "sum")
    ).reset_index()
    g["mean_cosine"] = g["sim_sum"] / g["n_vecs"]
    return g[["cluster_id", "n_vecs", "mean_cosine"]]
