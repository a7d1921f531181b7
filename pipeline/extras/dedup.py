"""Deduplication operators over a (doc_id, text) table.

Scale design notes (100 TB / 256 nodes). Every reduce here is a
partition._keyed_reduce of per-batch Arrow partials, so one measured
size (DRIVER_REDUCE_MAX_BYTES) picks one task or bucket_shuffle stages:
- exact: per-batch (sha256, min id, copies) partials -> the same Arrow
  group_by as the fold. Uniform key, no skew.
- MinHash-LSH: per-batch vectorized shingle->minhash, explode to one row
  per band -> _bucket_pairs (per (band, band_hash) bucket: sorted ids,
  capped, all pairs; then one copy per pair) -> exact Jaccard verify of
  the candidates. The all-to-all volume is one (id, band, int64 key) row
  per (doc, band), never the documents themselves. Buckets are capped (a
  degenerate bucket of B docs yields B*(B-1)/2 pairs — cap + WARN log,
  never silently explode).
- SimHash: 63-bit fingerprint, 4x16-bit band bucketing for Hamming<=3
  candidates, exact Hamming in the same _bucket_pairs scan.
- connected components: min-label reduces over bucket_shuffle lookups.
- near-dup by embedding cosine lives in pipeline.extras.ann, and
  SemDeDup in pipeline.extras.clustering; both scan through
  _bucket_pairs.
"""

from __future__ import annotations

import hashlib
import logging
from collections.abc import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

logger = logging.getLogger(__name__)

_MERSENNE = (1 << 61) - 1
N_PERM = 64
N_BANDS = 16  # 4 rows/band -> catches J>=~0.5 pairs w.h.p.
ROWS_PER_BAND = N_PERM // N_BANDS
MAX_BUCKET = 64  # cap degenerate buckets (logged, not silent)


def _perm_params(seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=N_PERM, dtype=np.int64)
    b = rng.randint(0, _MERSENNE, size=N_PERM, dtype=np.int64)
    return a, b


_A, _B = _perm_params()


_WORD_HASH_CACHE: dict[str, int] = {}


def _hash_word(w: str) -> int:
    h = _WORD_HASH_CACHE.get(w)
    if h is None:
        h = int.from_bytes(
            hashlib.blake2b(w.encode(), digest_size=8).digest(), "little"
        ) & ((1 << 61) - 1)
        if len(_WORD_HASH_CACHE) < 1_000_000:  # bounded per-worker cache
            _WORD_HASH_CACHE[w] = h
    return h


# Position multipliers for the k-gram polynomial combine. The first three
# are fixed so k=3 (the default everywhere) is bit-stable across versions;
# higher k extends the list deterministically.
_GRAM_MULTS = [1000003, 999983, 999979]
_G1 = _GRAM_MULTS[0]


def _gram_mults(k: int) -> list[int]:
    while len(_GRAM_MULTS) < k:
        _GRAM_MULTS.append((_GRAM_MULTS[-1] * 999959) % _MERSENNE)
    return _GRAM_MULTS[:k]


def _word_hashes(text: str) -> np.ndarray:
    words = text.split()
    if not words:
        return np.empty(0, dtype=np.int64)
    return np.fromiter(
        (_hash_word(w) for w in words), dtype=np.int64, count=len(words)
    )


def _shingles_from_hashes(hs: np.ndarray, k: int) -> np.ndarray:
    if hs.size == 0:
        return hs
    if hs.size < k:
        return np.unique((hs * _G1).sum(keepdims=True) % _MERSENNE)
    n = hs.size - k + 1
    g = np.zeros(n, dtype=np.int64)
    # accumulate with int64 wraparound (associative), single mod at the
    # end — bit-identical to the historical k=3 expression
    for j, m in enumerate(_gram_mults(k)):
        g = g + hs[j: j + n] * np.int64(m)
    return np.unique(g % _MERSENNE)


def _shingles(text: str, k: int = 3) -> np.ndarray:
    """Word k-gram shingle hashes: per-word blake2b (cached) combined with
    a vectorized polynomial mix — no per-gram string building/hashing."""
    return _shingles_from_hashes(_word_hashes(text), k)


def minhash_signature(text: str) -> np.ndarray:
    sh = _shingles(text)
    if sh.size == 0:
        return np.zeros(N_PERM, dtype=np.int64)
    # (a * x + b) mod p, min over shingles — vectorized N_PERM x n_shingles
    vals = (sh[None, :] * _A[:, None] + _B[:, None]) % _MERSENNE
    return vals.min(axis=1)


# Shingle-count budget per vectorized chunk: N_PERM x chunk int64
# intermediates stay ~16 MB regardless of batch size.
_SIG_CHUNK_SHINGLES = 32_768


def _doc_chunks(arrays: list[np.ndarray], budget: int):
    """Yield (nonempty arrays, their doc indices) greedily packed so each
    chunk's total element count stays <= budget (a single oversized doc
    still gets its own chunk — the `total == 0 or` guard)."""
    n = len(arrays)
    start = 0
    while start < n:
        end = start
        total = 0
        while end < n and (total == 0 or total + arrays[end].size <= budget):
            total += arrays[end].size
            end += 1
        chunk = [a for a in arrays[start:end] if a.size]
        if chunk:
            yield chunk, [i for i in range(start, end) if arrays[i].size]
        start = end


def batch_minhash_signatures(texts: list[str]) -> np.ndarray:
    """(n_docs, N_PERM) signatures with the permutation step vectorized
    ACROSS documents: shingles are concatenated and reduced per doc with
    np.minimum.reduceat, instead of one N_PERM x n_shingles matmul per doc.
    Empty docs get the all-zero signature (matches minhash_signature)."""
    sigs = np.zeros((len(texts), N_PERM), dtype=np.int64)
    shingle_lists = [_shingles(t) for t in texts]
    for chunk, dst in _doc_chunks(shingle_lists, _SIG_CHUNK_SHINGLES):
        cat = np.concatenate(chunk)
        vals = (cat[None, :] * _A[:, None] + _B[:, None]) % _MERSENNE
        offsets = np.cumsum([0] + [s.size for s in chunk])[:-1]
        mins = np.minimum.reduceat(vals, offsets, axis=1)  # N_PERM x docs
        sigs[dst, :] = mins.T
    return sigs


_MIX = np.int64(-7046029254386353131)  # 0x9E3779B97F4A7C15 as signed


def _scramble64(x: np.ndarray) -> np.ndarray:
    """xorshift-multiply finalizer: spreads band tuples over int64 space so
    bucket keys collide only by chance (a collision merges two buckets ->
    extra CANDIDATES for the exact verify stage, never a missed dup)."""
    v = x.astype(np.uint64)
    v ^= v >> np.uint64(33)
    v *= np.uint64(0xFF51AFD7ED558CCD)
    v ^= v >> np.uint64(33)
    return (v >> np.uint64(1)).astype(np.int64)  # keep sign bit clear


def _band_rows(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """Explode each doc to N_BANDS (``id_col``, band, band_hash) rows —
    signatures batched across docs, band keys vectorized (no per-doc
    hashing loop)."""
    texts = batch[text_col].to_pylist()
    sigs = batch_minhash_signatures(texts)  # n x N_PERM
    n = len(texts)
    # combine each band's ROWS_PER_BAND values into one int64 key
    bands = sigs.reshape(n, N_BANDS, ROWS_PER_BAND)
    acc = np.zeros((n, N_BANDS), dtype=np.int64)
    for r in range(ROWS_PER_BAND):
        acc = acc * _MIX + bands[:, :, r]
    keys = _scramble64(acc)
    return pa.table(
        {
            id_col: batch[id_col].take(np.repeat(np.arange(n), N_BANDS)),
            "band": pa.array(np.tile(np.arange(N_BANDS, dtype=np.int32), n)),
            "band_hash": pa.array(keys.reshape(-1)),
        }
    )


def jaccard(a: str, b: str, k: int = 3) -> float:
    sa, sb = set(_shingles(a, k).tolist()), set(_shingles(b, k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def _id_type(ds: "ray.data.Dataset", id_col: str) -> pa.DataType:
    """``ds``' ``id_col`` type, to type an empty output (int64 when
    ``ds`` reports no schema)."""
    from pipeline.partition import _column_types

    return pa.int64() if ds.schema() is None else _column_types(ds)[id_col]


def _distinct_pairs(t: pa.Table) -> pa.Table:
    """``t``'s rows sorted by (a, b), one per (a, b) pair. The copies
    of a pair come from buckets that share it, and agree on every other
    column (the scans are per-pair deterministic), so any one is right."""
    t = t.sort_by([("a", "ascending"), ("b", "ascending")]).combine_chunks()
    a = t["a"].to_numpy(zero_copy_only=False)
    b = t["b"].to_numpy(zero_copy_only=False)
    new = np.ones(len(t), dtype=bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return t.filter(pa.array(new))


def _pair_fold(t: pa.Table, *, bucket: list[str], id_col: str, cap: int,
               scan, extra: Sequence[pa.Field]) -> pa.Table:
    """The one fold of _bucket_pairs' two stages. Over bucket rows (they
    hold the ``bucket`` columns): per exact bucket with 2 or more
    distinct ids, its rows by ascending id, cut to the ``cap`` smallest
    ids (logged, never a silent B*(B-1)/2 explosion); ``scan`` maps such
    a group to local (i < j) row pairs plus the ``extra`` columns' values.
    Over pair rows only the last step runs: one row per (a, b)."""
    if bucket[0] in t.column_names:
        t = t.sort_by([(c, "ascending") for c in bucket + [id_col]]).combine_chunks()
        ids = t[id_col].to_numpy(zero_copy_only=False)
        same = np.ones(max(len(t) - 1, 0), dtype=bool)
        for c in bucket:
            k = t[c].to_numpy(zero_copy_only=False)
            same &= k[1:] == k[:-1]
        keep = np.ones(len(t), dtype=bool)
        keep[1:] = ~(same & (ids[1:] == ids[:-1]))  # an id once per bucket
        starts = np.flatnonzero(np.r_[True, ~same][keep])
        t = t.filter(pa.array(keep))
        sizes = np.diff(np.r_[starts, len(t)])
        none = np.empty(0, np.int64)
        ia, ib = [none], [none]
        vals = {f.name: [np.empty(0, f.type.to_pandas_dtype())] for f in extra}
        for s, n in zip(starts[sizes > 1].tolist(), sizes[sizes > 1].tolist()):
            if n > cap:
                logger.warning(
                    "bucket %s truncated: %d members > cap %d",
                    tuple(t[c][s].as_py() for c in bucket), n, cap,
                )
                n = cap
            iu, ju, cols = scan(t.slice(s, n))
            ia.append(s + iu)
            ib.append(s + ju)
            for f in extra:
                vals[f.name].append(cols[f.name])
        ids = t[id_col]
        t = pa.table(
            [ids.take(pa.array(np.concatenate(ia))), ids.take(pa.array(np.concatenate(ib)))]
            + [pa.array(np.concatenate(vals[f.name]), f.type) for f in extra],
            names=["a", "b"] + [f.name for f in extra],
        )
    return _distinct_pairs(t)


def _bucket_pairs(
    ds: "ray.data.Dataset", combine, bucket: list[str], scan, *,
    id_col: str, cap: int, extra: Sequence[pa.Field] = (),
) -> pa.Table:
    """The near-dup pair reduce behind every bucketed sketch (MinHash and
    SimHash bands, embedding centroid buckets, k-means clusters): one
    partition._keyed_reduce of the per-batch bucket rows ``combine``
    emits (``id_col``, the ``bucket`` columns, whatever ``scan`` reads),
    with _pair_fold as the fold of both stages. Up to
    DRIVER_REDUCE_MAX_BYTES of bucket rows one task scans every bucket
    and drops the pairs found twice; above it stage 1 scans per
    bucket_shuffle bucket of the last ``bucket`` column and stage 2
    drops repeated pairs per bucket of ``a``. Returns (a, b, *extra)
    with a < b, sorted (the pair set is bounded by candidate count,
    never by corpus size), typed as ``ds``' ``id_col`` when it is empty."""
    from pipeline.partition import _keyed_reduce, _to_arrow

    def fold(t: pa.Table) -> pa.Table:
        return _pair_fold(t, bucket=bucket, id_col=id_col, cap=cap, scan=scan,
                          extra=extra)

    out = _keyed_reduce(ds, combine, [(bucket[-1], fold), ("a", fold)])
    out = None if out is None else _to_arrow(out)
    if out is None or "a" not in out.column_names:  # no rows, or no bucket of 2
        id_t = _id_type(ds, id_col)
        return pa.schema([("a", id_t), ("b", id_t), *extra]).empty_table()
    return _distinct_pairs(out)


def _texts_for(ds, ids: set, id_col: str, text_col: str) -> dict:
    """Fetch only the involved docs' texts (broadcast id set + vectorized
    is_in filter), never take_all() on the corpus."""
    import ray as _ray

    id_ref = _ray.put(np.asarray(sorted(ids)))

    def pick(batch: pa.Table) -> pa.Table:
        want = _ray.get(id_ref)
        mask = pc.is_in(batch[id_col], value_set=pa.array(want))
        return batch.filter(mask)

    small = ds.select_columns([id_col, text_col]).map_batches(
        pick, batch_format="pyarrow", batch_size=8192
    ).to_pandas()
    return dict(zip(small[id_col], small[text_col]))


def dup_groups(pairs, *, a_col: str = "a", b_col: str = "b") -> pd.DataFrame:
    """Near-dup pairs -> connected components -> canonical keep-list: the
    step that turns a pair stream into an actionable dedup decision.
    Returns one row per doc that appears in any pair: (id, canonical_id,
    keep) with canonical_id = the component's minimum id (deterministic)
    and keep = (id == canonical_id).

    Runs on the DRIVER by design: the pair set is bounded by candidate
    count (LSH banding caps it — see minhash_lsh_pairs), never by corpus
    size, so union-find over it is a small in-memory reduction — the
    same winners-fit-on-driver contract as the broadcast side of
    keep_first_by. Docs in no pair are implicitly kept and not listed."""
    if isinstance(pairs, ray.data.Dataset):
        from pipeline.partition import _to_arrow

        pairs = _to_arrow(pairs)  # keeps the columns at zero rows
    if isinstance(pairs, pa.Table):
        pairs = pairs.to_pandas()
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(pairs[a_col], pairs[b_col]):
        for v in (a, b):
            if v not in parent:
                parent[v] = v
        ra, rb = find(a), find(b)
        if ra != rb:
            # union by canonical order: smaller id becomes the root, so
            # the component root IS the minimum id
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo

    ids = sorted(parent)
    canon = [find(i) for i in ids]
    return pd.DataFrame({
        "id": ids,
        "canonical_id": canon,
        "keep": [i == c for i, c in zip(ids, canon)],
    })


def dup_groups_distributed(
    pairs, *, a_col: str = "a", b_col: str = "b", max_iter: int = 64,
    finish_local_max_edges: int = 2_000_000,
) -> "ray.data.Dataset":
    """Distributed connected components over a near-dup pair stream —
    the above-winners-fit path for ``dup_groups`` (same output contract:
    one row per doc in any pair, canonical_id = component minimum,
    keep = (id == canonical_id)), with NOTHING component- or pair-sized
    on the driver.

    Algorithm: iterative min-label propagation with pointer doubling
    (a.k.a. shortcutting / hash-to-min) over a hash-partitioned edge
    list.  Each round every node takes the min of (its label, its
    neighbors' labels, its label's label); flooding alone converges in
    O(diameter) rounds, the label-of-label jump makes the reach double
    per round, so convergence is O(log diameter) — a planted 100k-node
    chain (worst-case diameter) converges in 18 rounds, a 100k-pair
    binary tree in 6 (both tested).  Each round is ONE bucketed lookup
    shuffle (both message kinds share it) + one min-label _keyed_reduce
    (its combiner and fold an Arrow group_by min per node) + a
    map-only label checksum for the convergence test (exact diff join
    runs once, to confirm).  Labels materialize per round with their
    lineage CUT (from_arrow_refs): feeding a MaterializedDataset into
    union() replays its logical plan, which turns round times
    exponential otherwise (measured).

    Raises RuntimeError if max_iter rounds don't converge (loud, not
    silent — 64 doubling rounds cover any graph that fits in 2^64).

    The label lookups are pandas merges inside partition.bucket_shuffle
    (bucket_count(|edges|) buckets, so per-bucket memory stays bounded)
    rather than Ray's native Dataset.join, whose hash-shuffle aggregator
    builds zero-column tables for partitions that receive no rows
    (sparse partitions are GUARANTEED here once labels converge onto few
    roots) and crashes in pyarrow.

    Early exit: after the init round the ACTIVE FRONTIER — condensed
    label-graph edges ``(lbl(src), lbl(dst))`` that still cross two
    labels — is measured once.  Near-dup pair streams are LSH cliques
    of diameter 1-2, so the frontier usually collapses to a sliver of
    the input immediately; when it holds ≤ ``finish_local_max_edges``
    rows the components are finished by ONE union-find task over the
    condensed graph plus one relabel shuffle, instead of paying
    O(log diameter) more full rounds.  Contracting each label class
    (all nodes sharing a current label are provably in one component,
    and every label is a member of its component with lbl(node) ≤
    node) preserves connectivity, so the condensed minimum IS the
    component minimum.  Pass ``finish_local_max_edges=0`` to force the
    pure iterative path (chains/trees with a large surviving frontier
    fall through to it automatically)."""
    import ray.data as rd

    from pipeline.partition import _keyed_reduce, bucket_count, bucket_shuffle

    pairs_id_t = None
    if isinstance(pairs, pd.DataFrame):
        # capture the id type BEFORE the Dataset round-trip: an empty
        # pandas frame reaches the emptiness check below with a
        # PandasBlockSchema that carries no Arrow field types
        if a_col in pairs.columns:
            pairs_id_t = pa.Schema.from_pandas(
                pairs[[a_col]], preserve_index=False
            ).field(a_col).type
        pairs = rd.from_pandas(pairs)

    def _snap(ds):
        """Materialize AND cut lineage.  Feeding a MaterializedDataset
        into union() replays its full logical plan instead of reading
        the stored blocks (measured: 2x runtime growth per round ->
        exponential); from_arrow_refs rebuilds a dataset whose lineage
        IS the blocks, so each round executes exactly once."""
        return rd.from_arrow_refs(ds.materialize().to_arrow_refs())

    def to_edges(t: pa.Table) -> pa.Table:
        return pa.concat_tables([
            pa.table({"src": t[a_col], "dst": t[b_col]}),
            pa.table({"src": t[b_col], "dst": t[a_col]}),
        ]).combine_chunks()

    edges = pairs.map_batches(
        to_edges, batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()
    edges = rd.from_arrow_refs(edges.to_arrow_refs())
    sch = edges.schema()
    n_edges = edges.count()
    if sch is None or n_edges == 0:
        # no pairs -> no components; empty frame with the output
        # contract, typed from the (empty) pairs schema when it is
        # known so string-id callers keep a consistent id dtype —
        # int64 only as the truly-untyped fallback
        try:
            empty_t = getattr(sch, "base_schema", sch).field("src").type
        except Exception:
            empty_t = None
        if empty_t is None or pa.types.is_null(empty_t):
            empty_t = pairs_id_t
        if empty_t is None or pa.types.is_null(empty_t):
            empty_t = pa.int64()
        return rd.from_arrow(pa.table({
            "id": pa.array([], empty_t),
            "canonical_id": pa.array([], empty_t),
            "keep": pa.array([], pa.bool_()),
        }))
    id_t = getattr(sch, "base_schema", sch).field("src").type
    n_buckets = bucket_count(n_edges)

    # Labels keep a FIXED block count across rounds: each round unions
    # labels+nbr+jump and reduces, and a bucketed reduce emits one block
    # per bucket — without the coalescing repartition the block count
    # (hence shuffle task count) grows per round, which turns round
    # times exponential (observed 3s -> 5s -> 31s -> ...).
    n_label_blocks = max(8, edges.num_blocks())
    no_labels = pa.table({"node": pa.array([], id_t), "lbl": pa.array([], id_t)})

    def _min_label(t: pa.Table) -> pa.Table:
        g = t.group_by("node", use_threads=False).aggregate([("lbl", "min")])
        return pa.table({"node": g["node"], "lbl": g["lbl_min"]})

    def _labels(ds, combine):
        """Per node the min of its (node, lbl) rows: a _keyed_reduce
        whose fold is _min_label, typed (a bucket_shuffle partition
        that got no bucket leaves a block without columns), in
        n_label_blocks blocks with its lineage cut."""
        out = _keyed_reduce(ds, combine, [("node", _min_label)]).map_batches(
            lambda t: t if t.num_columns else no_labels,
            batch_format="pyarrow", zero_copy_batch=True,
        )
        return _snap(out.repartition(n_label_blocks))

    # initial label = min(node, min neighbor): one flooding round folded
    # into the node-dedup reduce.
    labels = _labels(edges, lambda t: _min_label(pa.table({
        "node": t["src"], "lbl": pc.min_element_wise(t["src"], t["dst"]),
    })))

    def _tagged(ds, k_col: str, x_col: str, tag: int):
        """``ds`` as (key, payload-or-value, tag) rows for a lookup."""
        def f(t: pa.Table) -> pa.Table:
            if not all(c in t.column_names for c in (k_col, x_col)):
                return pa.table({
                    "k": pa.array([], id_t), "x": pa.array([], id_t),
                    "tag": pa.array([], pa.int8()),
                })
            return pa.table({
                "k": t[k_col], "x": t[x_col],
                "tag": pa.array(np.full(t.num_rows, tag, np.int8)),
            })
        return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)

    def _merge_group(g: pd.DataFrame) -> pd.DataFrame:
        prov = g[g["tag"] == 1]
        reqs = g[g["tag"] == 0]
        m = reqs.merge(prov, on="k", how="inner", suffixes=("_p", "_v"))
        return m[["x_p", "x_v"]].rename(columns={"x_p": "a", "x_v": "b"})

    def _lookup(*requests, providers):
        """For each row of each (dataset, key col, payload col) request,
        (payload, lbl(key)) — a many-to-one join against the providers
        label table in ONE bucket_shuffle (several request kinds share
        it)."""
        sides = [_tagged(ds, k, x, 0) for ds, k, x in requests]
        sides.append(_tagged(providers, "node", "lbl", 1))
        return bucket_shuffle(sides, "k", _merge_group, n_buckets)

    def _checksum(lbl_ds) -> int:
        """Wrapping uint64 sum of splitmix-style hashes of the label
        column: labels only ever DECREASE, so an unchanged checksum is
        overwhelming evidence of convergence — and it costs one map-only
        pass (no shuffle), vs a per-round diff join.  A hash-sum
        collision while labels changed is possible in principle, so an
        unchanged checksum triggers ONE exact diff join to confirm."""
        def f(t: pa.Table) -> pa.Table:
            if "lbl" not in t.column_names:
                s = 0
            else:
                h = pd.util.hash_array(t["lbl"].to_pandas().to_numpy())
                s = int(np.sum(h.astype(np.uint64), dtype=np.uint64))
            return pa.table({"s": pa.array([s], pa.uint64())})

        parts = lbl_ds.map_batches(
            f, batch_format="pyarrow", zero_copy_batch=True,
        ).to_pandas()
        return int(np.sum(parts["s"].to_numpy().astype(np.uint64),
                          dtype=np.uint64))

    def _exact_changed(new_ds, old_labels) -> int:
        """Exact count of nodes whose label changed (bucketed diff join
        against old_labels) — runs once, to confirm convergence."""
        diff = _lookup((new_ds, "node", "lbl"), providers=old_labels)
        counts = diff.map_batches(
            lambda t: pa.table({"n": pa.array(
                [int(pc.sum(pc.cast(pc.not_equal(t["a"], t["b"]),
                                    pa.int64())).as_py() or 0)
                 if all(c in t.column_names for c in ("a", "b")) else 0],
                pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        return counts.sum("n")

    converged = False
    if finish_local_max_edges:
        # ---- frontier measurement (one bucketed lookup chain): the
        # condensed edges (lbl(src), lbl(dst)) that still cross two
        # label classes.  Snap BEFORE counting so the local finish
        # reads stored blocks instead of replaying the lookups.
        half = _lookup((edges, "src", "dst"), providers=labels)
        cond = _lookup((half, "a", "b"), providers=labels)

        def _crossing(t: pa.Table) -> pa.Table:
            if not all(c in t.column_names for c in ("a", "b")):
                return pa.table({"a": pa.array([], id_t),
                                 "b": pa.array([], id_t)})
            return t.filter(pc.not_equal(t["a"], t["b"]))

        cond = _snap(cond.map_batches(
            _crossing, batch_format="pyarrow", zero_copy_batch=True,
        ))
        ncond = cond.count()
        if ncond == 0:
            # lbl is constant along every edge => constant per component
            # => it is the component minimum (labels are component
            # members with lbl(node) <= node).  Fully converged.
            converged = True
        elif ncond <= finish_local_max_edges:
            def _local_finish(g: pd.DataFrame) -> pa.Table:
                res = dup_groups(g[["a", "b"]])
                return pa.table({
                    "node": pa.Array.from_pandas(res["id"], type=id_t),
                    "lbl": pa.Array.from_pandas(
                        res["canonical_id"], type=id_t),
                })

            # one bucket: the whole condensed graph in one task
            mapping = bucket_shuffle([cond], "a", _local_finish, n_buckets=1)

            # relabel every node: lbl -> R(lbl) from the mapping, labels
            # absent from the condensed graph keep themselves (their
            # class is its whole component, already at the minimum).
            # Split hit/miss BEFORE the merge: a left merge would
            # null-pad and promote int64 labels to float64 (lossy past
            # 2^53 for hash ids).
            def _relabel_group(g: pd.DataFrame) -> pa.Table:
                prov = g[g["tag"] == 1]
                reqs = g[g["tag"] == 0]
                if not len(reqs):
                    return pa.table({"node": pa.array([], id_t),
                                     "lbl": pa.array([], id_t)})
                known = reqs["k"].isin(prov["k"])
                m = reqs[known].merge(
                    prov, on="k", how="inner", suffixes=("_p", "_v"))
                miss = reqs[~known]
                node = pd.concat([m["x_p"], miss["x"]],
                                 ignore_index=True)
                lbl = pd.concat([m["x_v"], miss["k"]],
                                ignore_index=True)
                return pa.table({
                    "node": pa.Array.from_pandas(node, type=id_t),
                    "lbl": pa.Array.from_pandas(lbl, type=id_t),
                })

            labels = bucket_shuffle(
                [_tagged(labels, "lbl", "node", 0),
                 _tagged(mapping, "node", "lbl", 1)],
                "k", _relabel_group, n_buckets,
            )
            converged = True

    chk = None if converged else _checksum(labels)
    for _ in range(max_iter):
        if converged:
            break
        # ONE bucketed lookup serves both message kinds: edge (src, dst)
        # proposes lbl(src) to dst (flooding), and each node proposes
        # itself lbl(lbl(node)) (pointer doubling).
        msgs = _lookup(
            (edges, "src", "dst"), (labels, "lbl", "node"), providers=labels,
        ).map_batches(
            lambda t: (pa.table({"node": t["a"], "lbl": t["b"]})
                       if all(c in t.column_names for c in ("a", "b"))
                       else pa.table({"node": pa.array([], id_t),
                                      "lbl": pa.array([], id_t)})),
            batch_format="pyarrow", zero_copy_batch=True,
        )

        new = _labels(labels.union(msgs), _min_label)

        new_chk = _checksum(new)
        changed = new_chk != chk
        if not changed:
            # confirm with the exact diff join (hash-sum collision guard)
            changed = bool(_exact_changed(new, labels))
        labels, chk = new, new_chk
        if not changed:
            break
    else:
        raise RuntimeError(
            f"dup_groups_distributed: no convergence in {max_iter} rounds"
        )

    def _final(t: pa.Table) -> pa.Table:
        if not all(c in t.column_names for c in ("node", "lbl")):
            return pa.table({"id": pa.array([], id_t),
                             "canonical_id": pa.array([], id_t),
                             "keep": pa.array([], pa.bool_())})
        return pa.table({
            "id": t["node"],
            "canonical_id": t["lbl"],
            "keep": pc.equal(t["node"], t["lbl"]),
        })

    return labels.map_batches(
        _final, batch_format="pyarrow", zero_copy_batch=True,
    )


def minhash_lsh_pairs(
    ds: "ray.data.Dataset", *, id_col: str = "doc_id", text_col: str = "text",
    threshold: float = 0.6,
) -> "ray.data.Dataset":
    """Candidate pairs via LSH banding, verified with exact n-gram Jaccard.
    Returns (a, b, jaccard) with a < b, deduplicated, sorted.

    The candidates are every pair of ids sharing a (band, band_hash)
    bucket — one _bucket_pairs reduce of the _band_rows (MAX_BUCKET
    caps a bucket). Jaccard is then verified once, on the driver, over
    only the INVOLVED docs' texts (_texts_for: bounded by candidate
    count, never by corpus size)."""
    import ray.data as rd

    cand = _bucket_pairs(
        ds.select_columns([id_col, text_col]),
        lambda t: _band_rows(t, id_col, text_col), ["band", "band_hash"],
        lambda g: (*np.triu_indices(len(g), 1), {}), id_col=id_col, cap=MAX_BUCKET,
    )
    a, b = cand["a"].to_pylist(), cand["b"].to_pylist()
    texts = _texts_for(ds, set(a) | set(b), id_col, text_col) if a else {}
    j = np.array([jaccard(texts[x], texts[y]) for x, y in zip(a, b)], np.float64)
    out = cand.append_column("jaccard", pa.array(j, pa.float64()))
    return rd.from_arrow(out.filter(pa.array(j >= threshold)))


# ------------------------------------------------------------- SimHash


_SIM_SHIFTS = np.arange(63, dtype=np.uint64)
_SIM_POWS = (np.uint64(1) << _SIM_SHIFTS)


def batch_simhash64(texts: list[str]) -> np.ndarray:
    """(n_docs,) int64 simhashes, bit votes reduced across ALL docs' words
    with np.add.reduceat (no per-doc matrix build; chunked so the bits
    matrix stays bounded at ~32k words x 63 int32)."""
    out = np.zeros(len(texts), dtype=np.int64)
    hash_lists = [_word_hashes(t) for t in texts]
    for chunk, dst in _doc_chunks(hash_lists, _SIG_CHUNK_SHINGLES):
        cat = np.concatenate(chunk).astype(np.uint64)
        bits = ((cat[:, None] >> _SIM_SHIFTS[None, :]) & np.uint64(1)).astype(np.int32)
        offsets = np.cumsum([0] + [h.size for h in chunk])[:-1]
        ones = np.add.reduceat(bits, offsets, axis=0)  # docs x 63
        lens = np.array([h.size for h in chunk])[:, None]
        votes = ones * 2 - lens
        sig = ((votes > 0).astype(np.uint64) * _SIM_POWS[None, :]).sum(axis=1)
        out[dst] = sig.astype(np.int64)
    return out


_PC_M1 = np.uint64(0x5555555555555555)
_PC_M2 = np.uint64(0x3333333333333333)
_PC_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_PC_H = np.uint64(0x0101010101010101)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized SWAR popcount over a uint64 array."""
    x = x.astype(np.uint64, copy=True)
    x -= (x >> np.uint64(1)) & _PC_M1
    x = (x & _PC_M2) + ((x >> np.uint64(2)) & _PC_M2)
    x = (x + (x >> np.uint64(4))) & _PC_M4
    return ((x * _PC_H) >> np.uint64(56)).astype(np.int64)


def simhash_pairs(
    ds: "ray.data.Dataset", *, id_col: str = "doc_id", text_col: str = "text",
    max_hamming: int = 3,
) -> "ray.data.Dataset":
    """Near-dup pairs with Hamming(simhash) <= max_hamming: (a, b,
    hamming), a < b, sorted. 4x16-bit band bucketing guarantees recall
    for <=3 bit flips (pigeonhole). One _bucket_pairs reduce of the
    (id, band, key, simhash) rows; each (band, key) bucket is scanned as
    one XOR matrix + SWAR popcount + triu mask (no per-pair Python),
    capped at MAX_BUCKET like minhash."""
    import ray.data as rd

    def sim_rows(batch: pa.Table) -> pa.Table:
        sims = batch_simhash64(batch[text_col].to_pylist())
        n = len(sims)
        keys = (
            (sims.astype(np.uint64)[:, None] >> (np.uint64(16) * np.arange(4, dtype=np.uint64)[None, :]))
            & np.uint64(0xFFFF)
        ).astype(np.int32).reshape(-1)
        return pa.table({
            id_col: batch[id_col].take(np.repeat(np.arange(n), 4)),
            "band": pa.array(np.tile(np.arange(4, dtype=np.int32), n)),
            "key": pa.array(keys),
            "simhash": pa.array(np.repeat(sims, 4)),
        })

    def scan(g: pa.Table):
        sims = g["simhash"].to_numpy().view(np.uint64)
        d = _popcount64(sims[:, None] ^ sims[None, :])
        iu, ju = np.nonzero(np.triu(d <= max_hamming, k=1))
        return iu, ju, {"hamming": d[iu, ju]}

    return rd.from_arrow(_bucket_pairs(
        ds.select_columns([id_col, text_col]), sim_rows, ["band", "key"], scan,
        id_col=id_col, cap=MAX_BUCKET, extra=[pa.field("hamming", pa.int64())],
    ))


# ------------------------------------------------ exact n-gram Jaccard

EXACT_JACCARD_MAX_DOCS = 100_000  # driver cap for the exact baseline
EXACT_JACCARD_PAIR_BUDGET = 50_000_000  # shingle co-occurrence guard


def ngram_jaccard_pairs(
    ds: "ray.data.Dataset", *, id_col: str = "doc_id", text_col: str = "text",
    k: int = 3, threshold: float = 0.5, n_docs_hint: int | None = None,
) -> "ray.data.Dataset":
    """EXACT all-pairs word-k-gram Jaccard >= threshold: (a, b, jaccard),
    a < b. This is the oracle-verifiable DEFINITION of n-gram
    near-duplication; `minhash_lsh_pairs` is the banded approximation of
    the same measure and the 100-TB path.

    Shingling runs distributed (map_batches -> per-doc unique shingle-hash
    sets as list<int64>); the similarity itself runs driver-side over an
    inverted shingle index: sort + group boundaries + per-cardinality
    vectorized pair explosion (np.triu_indices over a (groups, c) member
    matrix) — no per-pair Python loop and no dense doc x vocab matrix.
    Intersections come from one np.unique(return_counts) over combined
    pair keys; unions from per-doc set sizes.

    Scale posture: driver memory is bounded by the TOTAL SHINGLE COUNT
    (8 B per unique gram per doc), so the op refuses corpora above
    EXACT_JACCARD_MAX_DOCS docs, and refuses shingle co-occurrence
    explosions above EXACT_JACCARD_PAIR_BUDGET (a gram shared by g docs
    costs g*(g-1)/2 keys), rather than silently degrading — use the
    banded `minhash_lsh_pairs` there.

    Parity notes vs the string-gram SQL definition: hashed shingles
    (blake2b words + polynomial combine, 61-bit space) collide with
    string grams only by chance; docs with zero words are never paired
    here (SQL's single empty-string gram would pair them at J=1.0); for
    docs with < k words the single combined shingle is order-insensitive.
    Neither edge occurs in corpora with >= k-word documents."""
    import ray as _ray
    import ray.data as rd

    if n_docs_hint is not None and n_docs_hint > EXACT_JACCARD_MAX_DOCS:
        raise ValueError(
            f"ngram_jaccard_pairs is the exact baseline, capped at "
            f"{EXACT_JACCARD_MAX_DOCS} docs (got hint {n_docs_hint}); "
            "use minhash_lsh_pairs for the banded scale path"
        )

    def shingle_batch(batch: pa.Table) -> pa.Table:
        arrays = [_shingles(t, k) for t in batch[text_col].to_pylist()]
        sizes = np.fromiter(
            (a.size for a in arrays), dtype=np.int64, count=len(arrays)
        )
        offsets = np.zeros(len(arrays) + 1, dtype=np.int32)
        np.cumsum(sizes, out=offsets[1:])
        values = (
            np.concatenate(arrays) if arrays else np.empty(0, np.int64)
        )
        lst = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pa.array(values, pa.int64())
        )
        return pa.table({"_id": batch[id_col], "_sh": lst})

    shingled = ds.select_columns([id_col, text_col]).map_batches(
        shingle_batch, batch_format="pyarrow", batch_size=1024,
        zero_copy_batch=True,
    )
    tab = pa.concat_tables(_ray.get(shingled.to_arrow_refs()))
    empty = pd.DataFrame(
        {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"),
         "jaccard": pd.Series(dtype="float64")}
    )
    n = len(tab)
    if n == 0:
        return rd.from_pandas(empty)
    if n > EXACT_JACCARD_MAX_DOCS:
        raise ValueError(
            f"ngram_jaccard_pairs capped at {EXACT_JACCARD_MAX_DOCS} docs "
            f"(got {n}); use minhash_lsh_pairs"
        )
    ids = tab["_id"].to_numpy(zero_copy_only=False)
    lists = tab["_sh"].combine_chunks()
    values = lists.flatten().to_numpy(zero_copy_only=False)
    sizes = np.diff(lists.offsets.to_numpy(zero_copy_only=False)).astype(np.int64)

    doc_idx = np.repeat(np.arange(n, dtype=np.int64), sizes)
    order = np.argsort(values, kind="stable")
    sv, sd = values[order], doc_idx[order]
    starts = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
    counts = np.diff(np.r_[starts, sv.size])
    total_keys = int((counts * (counts - 1) // 2).sum())
    if total_keys > EXACT_JACCARD_PAIR_BUDGET:
        raise ValueError(
            f"shingle co-occurrence explosion: {total_keys} pair keys > "
            f"budget {EXACT_JACCARD_PAIR_BUDGET}; use minhash_lsh_pairs"
        )
    key_parts = []
    for c in np.unique(counts):
        if c < 2:
            continue
        gsel = starts[counts == c]
        # members are ascending within a group (stable sort preserves
        # doc order), so m[:, ii] < m[:, jj] row-wise already
        m = sd[gsel[:, None] + np.arange(int(c))[None, :]]
        ii, jj = np.triu_indices(int(c), 1)
        key_parts.append(m[:, ii].ravel() * n + m[:, jj].ravel())
    if not key_parts:
        return rd.from_pandas(empty)
    uk, inter = np.unique(np.concatenate(key_parts), return_counts=True)
    ia, ib = uk // n, uk % n
    union = sizes[ia] + sizes[ib] - inter
    jac = inter / union
    mask = jac >= threshold
    id_a, id_b = ids[ia[mask]], ids[ib[mask]]
    swap = id_a > id_b
    a = np.where(swap, id_b, id_a)
    b = np.where(swap, id_a, id_b)
    out = pd.DataFrame({"a": a, "b": b, "jaccard": jac[mask]})
    out = out.sort_values(["a", "b"]).reset_index(drop=True)
    return rd.from_pandas(out if len(out) else empty)


# ---------------------------------------------------------- exact dedup

def exact_dedup_stats(
    ds: "ray.data.Dataset", *, id_col: str = "doc_id", text_col: str = "text",
) -> "ray.data.Dataset":
    """One row per distinct text, a null text included: (doc_id = min
    id, n_copies). Equivalent SQL: SELECT min(id), count(*) FROM t GROUP
    BY text. A _keyed_reduce on the text's sha256: each batch combines
    to (sha, min id, copies) per distinct sha, and the fold is the same
    Arrow group_by (min of the mins, sum of the copies)."""
    from pipeline.partition import _keyed_reduce

    def first(t: pa.Table) -> pa.Table:
        g = t.group_by("_sha", use_threads=False).aggregate(
            [("doc_id", "min"), ("n_copies", "sum")])
        return pa.table([g["_sha"], g["doc_id_min"], g["n_copies_sum"]],
                        names=["_sha", "doc_id", "n_copies"])

    def combine(t: pa.Table) -> pa.Table:
        sha = [None if x is None else hashlib.sha256(x.encode()).hexdigest()
               for x in t[text_col].to_pylist()]
        return first(pa.table({
            "_sha": pa.array(sha, pa.string()), "doc_id": t[id_col],
            "n_copies": pa.array(np.ones(len(t), np.int64)),
        }))

    out = _keyed_reduce(ds.select_columns([id_col, text_col]), combine,
                        [("_sha", first)])
    if out is None:
        return ray.data.from_arrow(pa.schema([
            ("doc_id", _id_type(ds, id_col)), ("n_copies", pa.int64()),
        ]).empty_table())
    # a bucket_shuffle partition that got no bucket leaves a block
    # without columns (see partition.bucket_shuffle)
    return out.map_batches(
        lambda t: t.drop(["_sha"]) if t.num_columns else t,
        batch_format="pyarrow", zero_copy_batch=True,
    )
