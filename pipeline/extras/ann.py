"""Similarity search over an embedding column (list<float>).

- Brute-force cosine top-k: the baseline. Query matrix broadcast ONCE via
  ray.put; each map_batches task computes a float64 matmul against its
  batch and emits only its per-query partial top-k (batch_size x k rows,
  not batch_size x n_queries) — the driver merges tiny partials.
- IVF variant (scale path): deterministic k-means-lite centroids on a
  sample, bucket assignment as a map stage, search restricted to the
  nprobe nearest buckets. Same output schema; recall measured vs
  brute-force in tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

# Cap for a degenerate centroid bucket (e.g. a corpus of near-identical
# embeddings — exactly the near-dup use case). The within-bucket scan is a
# vectorized B x B matmul, so the cap bounds memory/compute at ~128 MB per
# group task; truncation is by ascending id (deterministic) and LOGGED.
MAX_EMB_BUCKET = 4096


def _to_matrix(col) -> np.ndarray:
    """list<float> / tensor-extension column -> (n, d) float64 matrix."""
    arr = col
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if hasattr(arr, "values"):  # plain (Large/FixedSize)ListArray
        flat = arr.values.to_numpy(zero_copy_only=False).astype(np.float64)
        return flat.reshape(len(arr), -1)
    # Ray ArrowTensorArray (from_pandas with ndarray cells) and friends
    out = arr.to_numpy(zero_copy_only=False)
    if out.dtype == object:
        out = np.stack(out)
    return out.astype(np.float64).reshape(len(arr), -1)


def _norm_rows(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _topk_indices(s: np.ndarray, ids: np.ndarray, kk: int) -> np.ndarray:
    """Indices of the top-kk scores with a deterministic (score desc,
    id asc) order. Exact score ties AT the k-th boundary are widened past
    argpartition's arbitrary cut so the id tie-break — not partition
    order — decides which side of the boundary survives."""
    if kk >= len(s):
        idx = np.arange(len(s))
    else:
        part = np.argpartition(-s, kk - 1)
        thresh = s[part[kk - 1]]
        idx = np.nonzero(s >= thresh)[0]  # includes all boundary ties
    order = np.lexsort((ids[idx], -s[idx]))
    return idx[order][:kk]


def _scan_topk(
    ds: "ray.data.Dataset", qn: np.ndarray, query_ids: list[int], k: int,
    id_col: str, vec_col: str, candidates,
) -> pd.DataFrame:
    """The one top-k scan behind every search: each batch scores all
    queries in one matmul and emits only its per-query partial top-k;
    the driver merges the tiny partials (score desc, id asc) and ranks.
    `candidates(m)` maps a batch's normalized (n_batch, d) matrix to the
    (n_q, n_batch) bool mask of the rows each query may see."""
    q_ref = ray.put(qn)

    def partial(batch: pa.Table) -> pa.Table:
        q = ray.get(q_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        m = _norm_rows(_to_matrix(batch[vec_col]))
        scores = q @ m.T  # n_q x n_batch
        seen = candidates(m)
        out_q, out_id, out_s = [], [], []
        for qi in range(q.shape[0]):
            s, sub_ids = scores[qi][seen[qi]], ids[seen[qi]]
            if not len(s):
                continue
            sel = _topk_indices(s, sub_ids, min(k, len(s)))
            out_q.extend([query_ids[qi]] * len(sel))
            out_id.extend(sub_ids[sel].tolist())
            out_s.extend(s[sel].tolist())
        return pa.table(
            {"query_id": pa.array(out_q, pa.int64()),
             "vec_id": pa.array(out_id, pa.int64()),
             "score": pa.array(out_s, pa.float64())}
        )

    partials = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=4096, zero_copy_batch=True,
    ).to_pandas()
    if partials.empty:
        return pd.DataFrame(columns=["query_id", "vec_id", "score", "rank"])
    out = []
    for qid, g in partials.groupby("query_id"):
        g = g.sort_values(["score", "vec_id"], ascending=[False, True]).head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1))
        out.append(g)
    res = pd.concat(out).reset_index(drop=True)
    return res[["query_id", "vec_id", "score", "rank"]]


def brute_force_topk(
    ds: "ray.data.Dataset", queries: np.ndarray, query_ids: list[int], k: int = 10,
    *, id_col: str = "vec_id", vec_col: str = "embedding",
) -> pd.DataFrame:
    """Exact cosine top-k of each query over the dataset.
    Returns (query_id, vec_id, score, rank), rank 1..k, ties broken by
    vec_id ascending (deterministic)."""
    qn = _norm_rows(np.asarray(queries, dtype=np.float64))
    return _scan_topk(
        ds, qn, query_ids, k, id_col, vec_col,
        lambda m: np.ones((len(qn), len(m)), dtype=bool),
    )


# ----------------------------------------------------------- IVF variant

def hash_sample_frame(
    ds: "ray.data.Dataset", *, id_col: str, cols: list[str], limit: int,
    seed: int = 42,
) -> pd.DataFrame:
    """Deterministic size-`limit` uniform sample drawn across ALL blocks:
    the rows with the `limit` smallest scrambled-id keys win. `ds.limit(n)`
    takes the FIRST rows — at scale that is one shard of one file, and a
    centroid fit on it silently degrades recall; scrambling the id column
    (seeded) makes the winners a uniform pseudo-random subset regardless
    of file layout, at one streaming pass emitting <= limit rows/batch."""
    from pipeline.extras.dedup import _scramble64

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        key = _scramble64(ids + np.int64(seed))
        if len(key) > limit:
            sel = np.sort(np.argpartition(key, limit - 1)[:limit])
            batch = batch.take(pa.array(sel))
            key = key[sel]
        batch = batch.select([id_col] + [c for c in cols if c != id_col])
        return batch.append_column("_k", pa.array(key))

    parts = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=4096, zero_copy_batch=True,
    ).to_pandas()
    if parts.empty:  # Dataset.to_pandas keeps no columns at zero rows
        return pd.DataFrame(columns=[id_col] + [c for c in cols if c != id_col])
    parts = parts.sort_values(["_k", id_col]).head(limit)
    return parts.drop(columns=["_k"]).reset_index(drop=True)


def _sample_matrix(
    ds: "ray.data.Dataset", vec_col: str, id_col: str, limit: int,
) -> np.ndarray:
    """The hash sample's vectors as an (n, d) float64 matrix; (0, 0) for
    an empty dataset."""
    sample = hash_sample_frame(ds, id_col=id_col, cols=[vec_col], limit=limit)
    if sample.empty:
        return np.empty((0, 0))
    return np.stack(sample[vec_col].to_numpy()).astype(np.float64)


def kmeans_lite(sample: np.ndarray, n_clusters: int, n_iter: int = 8, seed: int = 42) -> np.ndarray:
    """Deterministic Lloyd iterations on normalized vectors."""
    rng = np.random.RandomState(seed)
    sample = _norm_rows(sample)
    cent = sample[rng.choice(len(sample), size=n_clusters, replace=False)].copy()
    for _ in range(n_iter):
        assign = (sample @ cent.T).argmax(axis=1)
        for c in range(n_clusters):
            members = sample[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cent[c] = v / n
    return cent


def ivf_topk(
    ds: "ray.data.Dataset", queries: np.ndarray, query_ids: list[int], k: int = 10,
    *, n_clusters: int = 16, nprobe: int = 4, id_col: str = "vec_id",
    vec_col: str = "embedding", sample_limit: int = 4096,
) -> pd.DataFrame:
    """Approximate top-k: centroids from a driver-side sample (small),
    buckets pruned to the nprobe closest per query. Output schema matches
    brute_force_topk."""
    sample = _sample_matrix(ds, vec_col, id_col, sample_limit)
    if not len(sample):  # the sample draws from every block: ds is empty
        return brute_force_topk(ds, queries, query_ids, k, id_col=id_col, vec_col=vec_col)
    cent = kmeans_lite(sample, n_clusters)
    qn = _norm_rows(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(qn @ cent.T), axis=1)[:, :nprobe]  # n_q x nprobe

    def probed(m: np.ndarray) -> np.ndarray:
        assign = (m @ cent.T).argmax(axis=1)
        return np.stack([np.isin(assign, p) for p in probe])

    return _scan_topk(ds, qn, query_ids, k, id_col, vec_col, probed)


def exact_cosine_pairs(
    ds: "ray.data.Dataset", threshold: float, *,
    id_col: str = "vec_id", vec_col: str = "embedding",
) -> pd.DataFrame:
    """EXACT all-pairs cosine >= threshold (the verifiable baseline; the
    centroid-bucketed embedding_near_dup_pairs is the scale path). The
    normalized corpus matrix is broadcast ONCE via ray.put and every batch
    computes its batch x corpus block, emitting only (a < b) pairs above
    threshold — O(n^2) compute distributed over batches, O(n*d) broadcast
    memory. Suitable while the full matrix fits the object store."""
    corpus = ds.select_columns([id_col, vec_col]).to_pandas()
    if corpus.empty:  # Dataset.to_pandas keeps no columns at zero rows
        return pd.DataFrame(columns=["a", "b", "cosine"])
    ids_all = corpus[id_col].to_numpy()
    m_all = _norm_rows(np.stack(corpus[vec_col].to_numpy()).astype(np.float64))
    ref = ray.put((ids_all, m_all))

    def block(batch: pa.Table) -> pa.Table:
        cids, cm = ray.get(ref)
        bids = batch[id_col].to_numpy(zero_copy_only=False)
        bm = _norm_rows(_to_matrix(batch[vec_col]))
        s = bm @ cm.T  # n_batch x n_corpus
        bi, cj = np.nonzero((s >= threshold) & (bids[:, None] < cids[None, :]))
        return pa.table(
            {"a": pa.array(bids[bi], pa.int64()),
             "b": pa.array(cids[cj], pa.int64()),
             "cosine": pa.array(s[bi, cj], pa.float64())}
        )

    out = ds.map_batches(
        block, batch_format="pyarrow", batch_size=1024, zero_copy_batch=True,
    ).to_pandas()
    return out.sort_values(["a", "b"]).reset_index(drop=True)


def _cosine_scan(threshold: float, vec_col: str):
    """_bucket_pairs scan of one bucket's rows (ascending id): ONE
    normalized matmul + triu mask (no Python pair loop), its (i < j)
    pairs with cosine >= threshold."""
    def scan(g: pa.Table):
        m = _norm_rows(_to_matrix(g[vec_col]))
        s = m @ m.T
        iu, ju = np.nonzero(np.triu(s >= threshold, 1))
        return iu, ju, {"cosine": s[iu, ju]}

    return scan


def embedding_near_dup_pairs(
    ds: "ray.data.Dataset", threshold: float = 0.95, *,
    id_col: str = "vec_id", vec_col: str = "embedding", n_clusters: int = 16,
    n_assign: int = 2,
) -> pd.DataFrame:
    """Embedding-cosine near-dup: bucket by nearest centroids, exact cosine
    within buckets only (per-group O(|bucket|^2), never global O(n^2)).
    Returns (a, b, cosine), a < b, sorted.

    Multi-probe assignment: each vector lands in its `n_assign` nearest
    buckets, so a near-dup pair straddling one bucket boundary still
    co-occurs somewhere (single-assignment missed boundary pairs; the
    standard multi-probe recall/cost trade — n_assign x the bucket rows).
    The buckets reduce through dedup._bucket_pairs, which drops the
    repeat hits of shared buckets; its scan is _cosine_scan, and buckets
    over MAX_EMB_BUCKET members are truncated to the MAX_EMB_BUCKET
    smallest ids with a WARN (mirrors dedup.MAX_BUCKET)."""
    from pipeline.extras.dedup import _bucket_pairs

    empty = pd.DataFrame({"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"),
                          "cosine": pd.Series(dtype="float64")})
    sample = _sample_matrix(ds, vec_col, id_col, 4096)
    if not len(sample):
        return empty
    cent = kmeans_lite(sample, n_clusters)
    cent_ref = ray.put(cent)
    n_assign = min(n_assign, n_clusters)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        m = _norm_rows(_to_matrix(batch[vec_col]))
        s = m @ c.T
        if n_assign == 1:
            top = s.argmax(axis=1)[:, None]
        else:
            top = np.argpartition(-s, n_assign - 1, axis=1)[:, :n_assign]
        out = batch.select([id_col, vec_col]).take(
            pa.array(np.repeat(np.arange(len(batch)), n_assign)))
        return out.append_column(
            "_bucket", pa.array(top.reshape(-1).astype(np.int32))
        )

    return _bucket_pairs(
        ds, assign, ["_bucket"], _cosine_scan(threshold, vec_col), id_col=id_col,
        cap=MAX_EMB_BUCKET, extra=[pa.field("cosine", pa.float64())],
    ).to_pandas()


def lsh_topk(
    ds: "ray.data.Dataset", queries: np.ndarray, query_ids: list[int],
    k: int = 10, *, nbits: int = 8, nprobe: int = 8,
    id_col: str = "vec_id", vec_col: str = "embedding", seed: int = 42,
) -> pd.DataFrame:
    """Approximate top-k via random-hyperplane LSH (the data-independent
    alternative to ivf_topk — no centroid fit, no training pass, so it
    works on a cold corpus and never suffers sample bias).

    Signature = sign bits of v against ``nbits`` seeded Gaussian
    hyperplanes (2**nbits buckets).  Multi-probe: each query searches its
    own bucket plus the buckets reached by flipping its lowest-|margin|
    bits (the classic multi-probe LSH sequence, ordered by summed flipped
    margin), ``nprobe`` buckets total — recall tunes with nprobe at zero
    index-build cost.  The planes and probe sets ride in the scan's
    candidate mask; each batch emits per-query partial top-k rows only.  Output schema
    matches brute_force_topk."""
    rng = np.random.RandomState(seed)
    d = np.asarray(queries).shape[1]
    planes = rng.standard_normal((nbits, d))
    qn = _norm_rows(np.asarray(queries, dtype=np.float64))
    margins = qn @ planes.T                    # n_q x nbits
    qsig = (margins > 0).astype(np.uint32)
    weights = np.uint32(1) << np.arange(nbits, dtype=np.uint32)

    # multi-probe: enumerate flip-subsets of the m lowest-|margin| bits,
    # ranked by summed |margin| of the flipped bits (cheapest flips first)
    m = min(nbits, max(1, int(np.ceil(np.log2(max(nprobe, 2)))) + 1))
    probes: list[np.ndarray] = []
    for qi in range(qn.shape[0]):
        order = np.argsort(np.abs(margins[qi]))[:m]
        cands = []
        for mask in range(1 << m):
            flip = [order[b] for b in range(m) if mask >> b & 1]
            cost = float(np.abs(margins[qi])[flip].sum()) if flip else 0.0
            sig = qsig[qi].copy()
            sig[flip] ^= 1
            cands.append((cost, int((sig * weights).sum())))
        cands.sort()
        probes.append(np.unique([s for _, s in cands[:nprobe]]))

    def probed(m: np.ndarray) -> np.ndarray:
        sigs = ((m @ planes.T > 0).astype(np.uint32) * weights).sum(axis=1)
        return np.stack([np.isin(sigs, p) for p in probes])

    return _scan_topk(ds, qn, query_ids, k, id_col, vec_col, probed)
