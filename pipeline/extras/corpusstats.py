"""Corpus-level statistics operators for training-data curation:
vocabulary / term-frequency tables, exact distributed quantiles over
discrete columns, and a HyperLogLog cardinality sketch.

All of them follow the same scale discipline as the rest of the engine:
the per-batch stage REDUCES before anything crosses the wire, and every
keyed merge is ONE partition._keyed_reduce of those per-batch partials:
up to DRIVER_REDUCE_MAX_BYTES of measured partial bytes one task folds
them all, above it the fold runs per bucket of the key (bucket_shuffle).
Null and "" keys are groups like any other, as in SQL GROUP BY.

- ``term_freq``: each batch emits at most |batch vocabulary| partial
  (term, n_occ, n_docs) rows, so the reduce moves vocabulary-sized
  data, never token-sized data.  A natural-text corpus at 100 TB has a
  vocabulary in the tens of millions of terms — the partials are
  ~1e4x smaller than the token stream.
- ``value_counts_quantiles``: exact quantiles over a discrete column
  (int lengths, counts, bucket ids) via a (value, count) merge; only
  distinct values reach the reduce, and the final cumulative-sum rank
  walk runs on a driver table of |distinct values| rows.  For genuinely
  continuous columns, quantize first (the caller picks the resolution)
  — this is the classic histogram-merge quantile, not a full sort.
- ``hll_distinct``: constant-size (2**p registers) sketch per batch,
  tree-reduced with elementwise max; the answer costs O(blocks * 2**p
  bytes) of traffic regardless of row count.  The exact counterpart
  (a two-stage keyed reduce, see __ray_entry__._events_distinct_users)
  is the labeled baseline; this is the 100-TB path when the key set
  itself is too large to shuffle.

Analog in the reference: dataset_stats / label-distribution reporting
[ref: evaluation/model_evaluation.py:240-276 length stats;
synth_checks.ipynb cell 3 histogram] generalized to corpus scale.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from pipeline.partition import (
    _column_types, _keyed_reduce, _sum_by, _sum_reduce, _to_arrow,
    salted_group_counts,
)

_TERM_COUNTS = pa.schema([("term", pa.string()), ("n_occ", pa.int64())])
_VOCAB = _TERM_COUNTS.append(pa.field("n_docs", pa.int64()))


def _top(t: pa.Table, key: str, k: int) -> pa.Table:
    """The ``k`` rows of highest n_occ, ties by ``key`` ascending."""
    return t.sort_by([("n_occ", "descending"), (key, "ascending")]).slice(0, k)


def _key_pos(col, keys: pa.Array) -> np.ndarray:
    """Each row's position in the distinct ``keys``, a null key matching
    the null in ``keys`` (SQL PARTITION BY makes it a partition)."""
    return pc.index_in(col.cast(keys.type), value_set=keys,
                       skip_nulls=False).to_numpy(zero_copy_only=False)


# ------------------------------------------------------------ term freq

def term_freq_partial(batch: pa.Table, *, text_col: str = "text",
                      doc_col: str = "doc_id") -> pa.Table:
    """Per-batch combiner: (term, n_occ, n_docs) partial counts.

    Tokenization is a plain single-space split (matching DuckDB
    ``string_split(text, ' ')`` for the oracle); doc frequency counts
    distinct ``doc_col`` values when the column is present (exact even
    if a document spans several rows WITHIN a batch — a doc must still
    never straddle batches), else distinct batch rows (one row = one
    doc).
    """
    toks = pc.split_pattern(batch[text_col], " ")
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks)
    if doc_col in batch.column_names:
        docs = batch[doc_col].take(parents).to_pandas()
    else:
        docs = parents.to_pandas()
    df = pd.DataFrame({
        "term": flat.to_pandas(),
        "_doc": docs,
    })
    df = df[df["term"] != ""]
    occ = df.groupby("term", sort=False).agg(
        n_occ=("term", "size"), n_docs=("_doc", "nunique")
    ).reset_index()
    return pa.table({
        "term": pa.array(occ["term"], pa.string()),
        "n_occ": pa.array(occ["n_occ"], pa.int64()),
        "n_docs": pa.array(occ["n_docs"], pa.int64()),
    })


def term_freq(ds: "ray.data.Dataset", *, text_col: str = "text",
              doc_col: str = "doc_id", top_k: int | None = None,
              ) -> "ray.data.Dataset":
    """Corpus vocabulary table: total occurrences + document frequency
    per term, optionally trimmed to the top_k most frequent (ties broken
    by term ascending, deterministic)."""
    return _sum_reduce(
        ds, lambda t: term_freq_partial(t, text_col=text_col, doc_col=doc_col),
        ["term"], finish=None if top_k is None else lambda t: _top(t, "term", top_k),
        empty=_VOCAB.empty_table(),
    )


# Above this many distinct terms the vocabulary no longer comes to the
# driver: tfidf_top_terms switches to the distributed join path (mirrors
# dedup.MAX_BUCKET / partition.EXACT_DEDUP_BROADCAST_MAX).  2M string
# terms + two int64 columns is ~100-200 MB on the driver — comfortably
# winners-fit; beyond it a code/web corpus vocabulary (identifiers,
# hashes, URLs) is effectively unbounded and must stay distributed.
TFIDF_MAX_VOCAB = 2_000_000


def _tfidf_partial(batch: pa.Table, *, text_col: str,
                   doc_col: str) -> pa.Table:
    """term_freq_partial plus ONE sentinel row (term "") carrying the
    batch's (row count, doc count) so the corpus doc total falls out of
    the same vocabulary reduce — no separate ds.count() pass.  The ""
    term can never collide with a real term (term_freq_partial filters
    empty tokens)."""
    t = term_freq_partial(batch, text_col=text_col, doc_col=doc_col)
    if doc_col in batch.column_names:
        nd = pc.count_distinct(batch[doc_col]).as_py()
    else:
        nd = batch.num_rows
    sent = pa.table({
        "term": pa.array([""], pa.string()),
        "n_occ": pa.array([batch.num_rows], pa.int64()),
        "n_docs": pa.array([int(nd)], pa.int64()),
    })
    return pa.concat_tables([t, sent])


def tfidf_top_terms(
    ds: "ray.data.Dataset", *, text_col: str = "text",
    id_col: str = "doc_id", top_n: int = 1, variant: str = "log",
    n_docs: int | None = None,
) -> "ray.data.Dataset":
    """Per-document top-``top_n`` TF-IDF terms (keyword extraction /
    topic signal for curation).  Two passes:

    1. the vocabulary with document frequencies (term_freq's combiner,
       plus a sentinel row folding the corpus doc count into the same
       reduce — n_docs costs no extra pass);
    2. scoring.  Two regimes, switched on the MATERIALIZED vocabulary's
       row count (metadata, no extra execution):

       - |vocab| <= TFIDF_MAX_VOCAB (read at call time): the vocabulary
         comes to the driver once and the IDF weights broadcast via
         ray.put as (sorted terms, df) arrays; a map-only pass scores
         each doc's terms (searchsorted lookup, no join shuffle).
       - |vocab| > TFIDF_MAX_VOCAB (WARNs): nothing vocabulary-sized touches
         the driver.  Docs explode into per-doc distinct-term partials
         (doc_id, term, cnt, len), join the vocabulary on term inside
         a partition.bucket_shuffle, score vectorized, then a two-phase
         top-n per doc_id (partition.topn_per_key).  Two all-to-all exchanges over the
         distinct-term stream — the honest cost of exact TF-IDF when
         the vocabulary itself is too large to broadcast.

       Both regimes compute the identical arithmetic on identical
       values, so they agree bit-for-bit (property-tested) — under this
       function's contract that ``id_col`` uniquely identifies rows
       (one row = one document).  A doc spanning multiple rows is OUT of
       contract here: the broadcast regime scores each row separately
       while the distributed regime merges rows per id (term_freq's df
       accounting tolerates multi-row docs, tfidf scoring does not).

    ``variant="log"`` is the classic smooth idf ln((N+1)/(df+1)) + 1.
    ``variant="recip"`` scores cnt*(N+1) / (len*(df+1)) as ONE float64
    division of exact int64 products — libm-free, so DuckDB reproduces
    it bit-for-bit (IEEE division is correctly rounded; ln is
    implementation-defined), which is what the oracle query uses.
    Ties rank by term ascending (deterministic total order)."""
    vocab_agg = _sum_reduce(
        ds, lambda t: _tfidf_partial(t, text_col=text_col, doc_col=id_col),
        ["term"], empty=_VOCAB.empty_table(),
    ).materialize()
    n_vocab = vocab_agg.count() - 1  # minus the "" sentinel row

    if n_vocab > TFIDF_MAX_VOCAB:
        return _tfidf_distributed(
            ds, vocab_agg, n_vocab=n_vocab, text_col=text_col,
            id_col=id_col, top_n=top_n, variant=variant, n_docs=n_docs,
        )

    vocab = _to_arrow(vocab_agg).to_pandas()
    sent_mask = vocab["term"] == ""
    if n_docs is None:
        n_docs = int(vocab.loc[sent_mask, "n_docs"].sum())
    vocab = vocab[~sent_mask].sort_values("term").reset_index(drop=True)
    terms = vocab["term"].to_numpy()
    df_arr = vocab["n_docs"].to_numpy().astype(np.int64)
    ref = ray.put((terms, df_arr, int(n_docs), variant))

    def score(batch: pa.Table) -> pa.Table:
        vterms, vdf, n, var = ray.get(ref)
        toks = pc.split_pattern(batch[text_col], " ")
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        d = pd.DataFrame({"term": flat.to_pandas(), "_p": parents})
        d = d[d["term"] != ""]
        g = d.groupby(["_p", "term"], sort=False).size().reset_index(name="cnt")
        doc_len = d.groupby("_p", sort=False).size()
        g["len"] = doc_len.loc[g["_p"]].to_numpy()
        pos = np.searchsorted(vterms, g["term"].to_numpy())
        g["df"] = vdf[pos]
        if var == "recip":
            g["score"] = (
                (g["cnt"].to_numpy() * np.int64(n + 1)).astype(np.float64)
                / (g["len"].to_numpy() * (g["df"].to_numpy() + 1)).astype(np.float64)
            )
        else:
            idf = np.log((n + 1.0) / (g["df"].to_numpy() + 1.0)) + 1.0
            g["score"] = g["cnt"].to_numpy() / g["len"].to_numpy() * idf
        g = g.sort_values(["_p", "score", "term"],
                          ascending=[True, False, True], kind="mergesort")
        top = g.groupby("_p", sort=False).head(top_n).copy()
        top["rnk"] = top.groupby("_p", sort=False).cumcount() + 1
        return pa.table({
            id_col: pa.array(ids[top["_p"].to_numpy()]),
            "term": pa.array(top["term"].to_numpy(), pa.string()),
            "score": pa.array(top["score"].to_numpy(), pa.float64()),
            "rnk": pa.array(top["rnk"].to_numpy(), pa.int64()),
        })

    return ds.map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True,
    )


def _tfidf_distributed(
    ds: "ray.data.Dataset", vocab_agg: "ray.data.Dataset", *,
    n_vocab: int, text_col: str, id_col: str, top_n: int, variant: str,
    n_docs: int | None,
) -> "ray.data.Dataset":
    """The above-winners-fit TF-IDF regime: vocabulary stays distributed
    (partition.bucket_shuffle on term, pandas merge + score inside each
    bucket; Ray's native Dataset.join builds zero-column tables for
    partitions that receive no rows and crashes in pyarrow, a guaranteed
    failure mode whenever distinct terms ~ partition count), then a
    two-phase top-n per doc.  Arithmetic is identical to the broadcast
    path — the two regimes agree bit-for-bit.

    Bucket count: partition.bucket_count of the vocabulary's total
    occurrence count (sum of the combiner's n_occ — an upper bound on
    the exploded per-doc distinct-term stream this regime shuffles), so
    one bucket's pandas merge frame (id, term, cnt, len, n_docs) stays
    worker-heap-sized at ANY corpus scale — a fixed 64 here would put
    ~1/64 of the whole stream in one frame exactly at the scale this
    path exists for."""
    import warnings

    from pipeline.partition import bucket_count, bucket_shuffle, topn_per_key

    warnings.warn(
        f"tfidf_top_terms: vocabulary has {n_vocab} terms > TFIDF_MAX_VOCAB="
        f"{TFIDF_MAX_VOCAB}; switching to the distributed join path "
        "(two shuffles, nothing vocabulary-sized on the driver)",
        stacklevel=3,
    )
    if n_docs is None:
        sent = vocab_agg.map_batches(
            lambda t: t.filter(pc.equal(t["term"], "")),
            batch_format="pyarrow", zero_copy_batch=True,
        ).to_pandas()
        n_docs = int(sent["n_docs"].sum())
    n = int(n_docs)

    # total token occurrences (sentinel rows add corpus row count —
    # harmless slack in an upper bound); one tiny distributed aggregate
    # over the already-materialized vocabulary
    tot_occ = int(vocab_agg.sum("n_occ"))
    n_buckets = bucket_count(tot_occ + n_vocab)

    def explode(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch[text_col], " ")
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        d = pd.DataFrame({"term": flat.to_pandas(), "_p": parents})
        d = d[d["term"] != ""]
        g = d.groupby(["_p", "term"], sort=False).size().reset_index(name="cnt")
        doc_len = d.groupby("_p", sort=False).size()
        g["len"] = doc_len.loc[g["_p"]].to_numpy() if len(g) else np.array([], np.int64)
        p = g["_p"].to_numpy().astype(np.int64, copy=False)
        # take() keeps the id column's Arrow type even on empty batches
        # (a numpy round-trip would emit a null-typed array and break
        # cross-block schema unification).
        return pa.table({
            id_col: batch[id_col].take(pa.array(p)),
            "term": pa.array(g["term"].to_numpy(), pa.string()),
            "cnt": pa.array(g["cnt"].to_numpy().astype(np.int64, copy=False)),
            "len": pa.array(g["len"].to_numpy().astype(np.int64, copy=False)),
        })

    # the id Arrow type anchors the null-padded union columns; a
    # PandasBlockSchema (from_pandas datasets) has no Arrow fields, so
    # fall back to sniffing ONE row (cheap; this regime is the rare
    # above-winners-fit path) — a silent int64 default here produced a
    # string-vs-int64 schema-unification crash downstream (measured)
    try:
        sch = ds.schema()
        id_t = getattr(sch, "base_schema", sch).field(id_col).type
    except Exception:
        id_t = ds.take_batch(1, batch_format="pyarrow").schema             .field(id_col).type
    var = variant
    int_id = pa.types.is_integer(id_t)

    # Pad the union's int columns with ZEROS, not nulls: nulls in an
    # int64 column force pandas to float64 inside merge_score, which is
    # only exact for |values| < 2^53 — 64-bit hash doc ids would be
    # silently corrupted.  The padding rows are filtered out by tag
    # before any value is read, so the fill value is never observed.
    def tag_terms(t: pa.Table) -> pa.Table:
        return pa.table({
            "tag": pa.array(np.zeros(t.num_rows, np.int8)),
            id_col: t[id_col],
            "term": t["term"],
            "cnt": t["cnt"],
            "len": t["len"],
            "n_docs": pa.array(np.zeros(t.num_rows, np.int64)),
        })

    def tag_vocab(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["term"], ""))
        id_pad = (pa.array(np.zeros(t.num_rows, np.int64)).cast(id_t)
                  if int_id else pa.nulls(t.num_rows, id_t))
        return pa.table({
            "tag": pa.array(np.ones(t.num_rows, np.int8)),
            id_col: id_pad,
            "term": t["term"],
            "cnt": pa.array(np.zeros(t.num_rows, np.int64)),
            "len": pa.array(np.zeros(t.num_rows, np.int64)),
            "n_docs": pc.cast(t["n_docs"], pa.int64()),
        })

    doc_terms = ds.map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True,
    ).map_batches(tag_terms, batch_format="pyarrow", zero_copy_batch=True)
    vocab_tagged = vocab_agg.map_batches(
        tag_vocab, batch_format="pyarrow", zero_copy_batch=True,
    )

    def merge_score(g: pd.DataFrame) -> pd.DataFrame:
        prov = g[g["tag"] == 1][["term", "n_docs"]]
        reqs = g[g["tag"] == 0][[id_col, "term", "cnt", "len"]]
        m = reqs.merge(prov, on="term", how="inner")
        # zero-padded union columns stay int64 end-to-end (no null ->
        # float64 promotion), so ids and counts are exact at any
        # magnitude; astype is a no-op dtype pin
        cnt = m["cnt"].to_numpy().astype(np.int64)
        ln_ = m["len"].to_numpy().astype(np.int64)
        dfv = m["n_docs"].to_numpy().astype(np.int64)
        if var == "recip":
            score = ((cnt * np.int64(n + 1)).astype(np.float64)
                     / (ln_ * (dfv + 1)).astype(np.float64))
        else:
            idf = np.log((n + 1.0) / (dfv + 1.0)) + 1.0
            score = cnt / ln_ * idf
        ids = m[id_col].to_numpy()
        # explicit Arrow types: an EMPTY group would otherwise emit a
        # block whose inferred id type (int64/null) conflicts with the
        # string blocks at schema-unification time
        return pa.table({
            id_col: pa.array(ids, id_t),
            "term": pa.array(m["term"].to_numpy(), pa.string()),
            "score": pa.array(score, pa.float64()),
        })

    scored = bucket_shuffle([doc_terms, vocab_tagged], "term", merge_score,
                            n_buckets)
    out = topn_per_key(
        scored, key=id_col, order_by=["score", "term"],
        ascending=[False, True], n=top_n,
    )
    return out.select_columns([id_col, "term", "score", "rnk"])


_BIGRAMS = pa.schema([("bigram", pa.string()), ("n_occ", pa.int64())])


def bigram_partial(t: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Per-batch bigram combiner: adjacent-token pairs built vectorized
    (Arrow ``binary_join_element_wise`` over the flattened token stream,
    masked to same-document adjacency + nonempty tokens), pre-counted so
    at most |batch bigram vocabulary| rows leave the batch."""
    toks = pc.split_pattern(t[text_col], " ")
    flat = pc.list_flatten(toks).combine_chunks()
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    if len(flat) < 2:
        return _BIGRAMS.empty_table()
    w1, w2 = flat.slice(0, len(flat) - 1), flat.slice(1)
    same_doc = pa.array(parents[:-1] == parents[1:])
    nonempty = pc.and_(pc.not_equal(w1, ""), pc.not_equal(w2, ""))
    mask = pc.and_(same_doc, nonempty)
    big = pc.binary_join_element_wise(w1.filter(mask), w2.filter(mask), " ")
    g = pa.table({"bigram": big}).group_by("bigram").aggregate(
        [([], "count_all")])
    return pa.table({"bigram": g["bigram"],
                     "n_occ": pc.cast(g["count_all"], pa.int64())})


def bigram_counts(
    ds: "ray.data.Dataset", *, text_col: str = "text", top_k: int = 50,
) -> "ray.data.Dataset":
    """Top-``top_k`` word bigrams with exact global counts — the n-gram
    statistics pass of tokenizer/LM-table training.  ``bigram_partial``
    per batch, a vocabulary-sized _keyed_reduce whose one finishing task
    takes the deterministic (count desc, bigram asc) top-k.  For bigram
    vocabularies too large to shuffle, layer ``heavy_hitter_terms``'s
    two-pass sketch on top of the same partial (same trick, different
    key)."""
    return _sum_reduce(
        ds, lambda t: bigram_partial(t, text_col=text_col), ["bigram"],
        finish=lambda t: _top(t, "bigram", top_k), empty=_BIGRAMS.empty_table(),
    )


# ---------------------------------------------------- heavy hitters (2p)

def _local_topm(batch: pa.Table, *, text_col: str, m: int) -> pa.Table:
    """Per-batch SpaceSaving-style summary: exact local counts trimmed
    to the m most frequent terms (count desc, term asc — deterministic).
    A term dropped here had local count <= the m-th local count, which
    bounds the global undercount of any non-candidate by
    sum-over-batches of per-batch thresholds (the standard mergeable-
    summary guarantee)."""
    toks = pc.split_pattern(batch[text_col], " ")
    flat = pc.list_flatten(toks).to_pandas()
    occ = flat[flat != ""].value_counts()
    occ = occ.sort_index().sort_values(ascending=False, kind="mergesort").head(m)
    return pa.table({
        "term": pa.array(occ.index, pa.string()),
        "n_occ": pa.array(occ.to_numpy(), pa.int64()),
    })


def heavy_hitter_terms(
    ds: "ray.data.Dataset", *, text_col: str = "text", top_k: int = 50,
    m: int = 4096,
) -> "ray.data.Dataset":
    """Exact top-k terms WITHOUT a vocabulary-sized shuffle — the 100-TB
    path when even |vocab| partial rows per batch (term_freq) is too much
    traffic.  Two passes:

    1. Sketch: each batch emits its local top-m summary (m rows, not
       |batch vocab|); the merged candidate pool keeps the top ~4k terms
       by summed lower-bound count.  An item can miss the pool only if
       its true count < N_batches * (m-th local count) — for Zipf-like
       text with m >> top_k this is far below the top-k cutoff.
    2. Recount: candidate set broadcast (ray.put), each batch counts
       ONLY candidate occurrences; a candidates-sized reduce yields
       EXACT counts, then the top_k.

    The result is exact whenever pass 1's pool contains the true top-k
    (guaranteed at m >= |vocab|, overwhelmingly likely otherwise);
    traffic is O(blocks * m + |candidates|) rows, independent of corpus
    vocabulary size.  Doc frequency is intentionally absent — it cannot
    be recovered from a candidate recount without a second doc-level
    pass; use term_freq when n_docs is needed."""
    pool = _to_arrow(_sum_reduce(
        ds, lambda t: _local_topm(t, text_col=text_col, m=m), ["term"],
        finish=lambda t: _top(t, "term", m), empty=_TERM_COUNTS.empty_table(),
    ))
    cand = np.sort(pool["term"].to_numpy(zero_copy_only=False))
    cand_ref = ray.put(cand)

    def recount(t: pa.Table) -> pa.Table:
        cands = ray.get(cand_ref)
        toks = pc.split_pattern(t[text_col], " ")
        flat = pc.list_flatten(toks).to_pandas().to_numpy()
        if len(cands) and len(flat):
            pos = np.searchsorted(cands, flat)
            pos[pos == len(cands)] = 0
            hits = flat[cands[pos] == flat]
        else:
            hits = flat[:0]
        if not len(hits):
            return _TERM_COUNTS.empty_table()
        occ = pd.Series(hits).value_counts()
        return pa.table({
            "term": pa.array(occ.index, pa.string()),
            "n_occ": pa.array(occ.to_numpy(), pa.int64()),
        })

    return _sum_reduce(
        ds, recount, ["term"], finish=lambda t: _top(t, "term", top_k),
        empty=_TERM_COUNTS.empty_table(),
    )


# ------------------------------------------------------- exact quantiles

def value_counts(ds: "ray.data.Dataset", col: str) -> "ray.data.Dataset":
    """(value, n) counts, null counted as a value like any other: the
    per-batch combiner and _keyed_reduce of
    partition.salted_group_counts, so only distinct values reach the
    reduce."""
    return salted_group_counts(ds, col)


def quantiles_from_counts(counts: pd.DataFrame, col: str,
                          qs: list[float]) -> list:
    """Discrete quantiles from a (value, n) table, DuckDB
    ``quantile_disc`` semantics: the value at 1-based rank
    ``ceil(q * n_total)`` of the sorted multiset (verified bit-identical
    against DuckDB on integer columns — both compute ceil over the same
    IEEE double product)."""
    # SQL quantile_disc IGNORES null values; a null histogram row (Ray/
    # Arrow groupbys retain null keys) must not count toward n_total
    counts = counts[counts[col].notna()]
    counts = counts.sort_values(col).reset_index(drop=True)
    vals = counts[col].to_numpy()
    cum = counts["n"].to_numpy().cumsum()
    n_total = int(cum[-1]) if len(cum) else 0
    out = []
    for q in qs:
        if n_total == 0:
            out.append(None)
            continue
        rank = min(max(int(math.ceil(q * n_total)), 1), n_total)
        out.append(vals[int(np.searchsorted(cum, rank, side="left"))])
    return out


def value_counts_quantiles(ds: "ray.data.Dataset", col: str,
                           qs: list[float]) -> list:
    """Exact distributed quantiles over a discrete column: histogram
    merge (distinct values shuffle, not rows), then a driver-side rank
    walk over the |distinct|-row result."""
    counts = _to_arrow(value_counts(ds, col)).to_pandas()
    return quantiles_from_counts(counts, col, qs)


def quantiles_cont_from_counts(counts: pd.DataFrame, col: str,
                               qs: list[float]) -> list:
    """INTERPOLATED (continuous) quantiles from a (value, n) table,
    DuckDB ``quantile_cont`` semantics: fractional 0-based rank
    RN = q * (n-1) over the sorted multiset; when RN is integral the
    result is v[RN] exactly, else the weighted sum
    (CRN-RN) * v[floor(RN)] + (RN-FRN) * v[ceil(RN)] — the same IEEE
    double expression DuckDB's Interpolator evaluates, so integer and
    double inputs are bit-portable."""
    # SQL quantile_cont IGNORES null values (same rule as the discrete
    # walk above)
    counts = counts[counts[col].notna()]
    counts = counts.sort_values(col).reset_index(drop=True)
    vals = counts[col].to_numpy()
    cum = counts["n"].to_numpy().cumsum()
    n_total = int(cum[-1]) if len(cum) else 0

    def _at(i: int) -> float:  # 0-based multiset index -> value (double)
        return float(vals[int(np.searchsorted(cum, i + 1, side="left"))])

    out = []
    for q in qs:
        if n_total == 0:
            out.append(None)
            continue
        rn = float(q) * (n_total - 1)
        frn, crn = math.floor(rn), math.ceil(rn)
        if crn == frn:
            out.append(_at(frn))
        else:
            lo, hi = _at(frn), _at(crn)
            out.append((crn - rn) * lo + (rn - frn) * hi)
    return out


def value_counts_quantiles_cont(ds: "ray.data.Dataset", col: str,
                                qs: list[float]) -> list:
    """Exact distributed INTERPOLATED quantiles: the same
    distinct-values-only histogram exchange as value_counts_quantiles,
    finishing with the quantile_cont interpolation instead of the
    discrete rank walk."""
    counts = _to_arrow(value_counts(ds, col)).to_pandas()
    return quantiles_cont_from_counts(counts, col, qs)


# ------------------------------------------------------------ HLL sketch

_HLL_P = 12  # 4096 registers; se ~ 1.04/sqrt(4096) = 1.6%


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mixer (splitmix64 finalizer) — vectorized,
    no Python hash() (which is per-process salted for str and identity
    for int)."""
    z = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z += np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def hll_registers(values: np.ndarray, p: int = _HLL_P) -> np.ndarray:
    """Register array (uint8, 2**p entries) for a batch of int64/uint64
    keys: index = top p hash bits, register = 1 + leading-zero count of
    the remaining 64-p bits (capped)."""
    h = _splitmix64(values)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)  # low bits set: rho <= 64-p+1
    # numpy has no clz and float64 log2 is lossy past 53 bits; compute
    # bit_length exactly with a shift-reduction, then rho = 64 - bl + 1.
    bl = np.zeros(len(rest), dtype=np.uint8)
    r = rest.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        mask = r >= (np.uint64(1) << np.uint64(shift))
        bl[mask] += np.uint8(shift)
        r[mask] >>= np.uint64(shift)
    bl += np.uint8(1)  # bit_length
    rho = (np.uint8(64) - bl + np.uint8(1)).astype(np.uint8)
    regs = np.zeros(1 << p, dtype=np.uint8)
    np.maximum.at(regs, idx, rho)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Classic Flajolet et al. HLL estimator with small-range linear
    counting correction (no bias table — adequate at 1.6% se)."""
    m = float(len(regs))
    alpha = 0.7213 / (1.0 + 1.079 / m)
    inv = np.power(2.0, -regs.astype(np.float64))
    est = alpha * m * m / inv.sum()
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * math.log(m / zeros)
    return est


def hll_distinct(ds: "ray.data.Dataset", col: str, *, p: int = _HLL_P,
                 ) -> float:
    """Approximate distinct count of an integer column.  Stage 1 emits
    one register row per input batch; stage 2 tree-combines 256 rows at
    a time; the driver folds the (tiny) remainder.  Traffic is
    O(blocks * 2**p bytes) independent of row count."""

    def sketch(t: pa.Table) -> pa.Table:
        vals = t[col].to_numpy(zero_copy_only=False).astype(np.int64)
        regs = hll_registers(vals, p)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    def combine(t: pa.Table) -> pa.Table:
        acc = np.zeros(1 << p, dtype=np.uint8)
        for blob in t["regs"].to_pylist():
            np.maximum(acc, np.frombuffer(blob, dtype=np.uint8), out=acc)
        return pa.table({"regs": pa.array([acc.tobytes()], pa.binary())})

    sketches = ds.map_batches(
        sketch, batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(combine, batch_format="pyarrow", batch_size=256)
    acc = np.zeros(1 << p, dtype=np.uint8)
    for row in sketches.take_all():  # <= n_blocks/256 rows, 4 KiB each
        np.maximum(acc, np.frombuffer(row["regs"], dtype=np.uint8), out=acc)
    return hll_estimate(acc)


def hll_distinct_by_key(ds: "ray.data.Dataset", key_col: str, col: str,
                        *, p: int = _HLL_P) -> pd.DataFrame:
    """Approximate distinct count per group (a null key is a group, as in
    SQL GROUP BY), sorted by key with null last: a _keyed_reduce of one
    sketch per (batch, key) whose fold is the per-key elementwise max of
    the registers.  The reduce moves n_keys * 2**p bytes per batch — use
    a smaller p (e.g. 10) when the group count is large."""

    def codes(t: pa.Table) -> tuple[pa.Array, np.ndarray]:
        keys = pc.unique(t[key_col])
        return keys, _key_pos(t[key_col], keys)

    def regs(t: pa.Table) -> np.ndarray:
        return np.frombuffer(b"".join(t["regs"].to_pylist()), np.uint8).reshape(-1, 1 << p)

    def sketch(t: pa.Table) -> pa.Table:
        keys, code = codes(t)
        vals = pd.Series(t[col].to_numpy(zero_copy_only=False).astype(np.int64))
        blobs = [hll_registers(g.to_numpy(), p).tobytes()
                 for _, g in vals.groupby(code, sort=True)]
        return pa.table({key_col: keys, "regs": pa.array(blobs, pa.binary())})

    def merge(t: pa.Table) -> pa.Table:
        keys, code = codes(t)
        acc = np.zeros((len(keys), 1 << p), np.uint8)
        np.maximum.at(acc, code, regs(t))
        return pa.table({key_col: keys,
                         "regs": pa.array([r.tobytes() for r in acc], pa.binary())})

    def estimate(t: pa.Table) -> pa.Table:
        t = t.sort_by(key_col)
        return pa.table({key_col: t[key_col], "n_distinct_est": pa.array(
            [hll_estimate(r) for r in regs(t)], pa.float64())})

    out = _keyed_reduce(ds, sketch, [(key_col, merge)], finish=estimate)
    if out is None:
        return pd.DataFrame({key_col: pd.Series([], dtype=object),
                             "n_distinct_est": pd.Series([], dtype="float64")})
    return _to_arrow(out).to_pandas()


# ------------------------------------------------- group-wise normalize

def _no_rows_with(ds: "ray.data.Dataset", col: str) -> "ray.data.Dataset":
    """Zero rows under ``ds``'s columns plus float64 ``col``: a per-row
    normalize's output on empty input (a map over no rows has no
    schema)."""
    t = pa.schema(list(_column_types(ds).items()) if ds.schema() else []).empty_table()
    return ray.data.from_arrow(t.append_column(col, pa.array([], pa.float64())))


def _scale_per_key(ds: "ray.data.Dataset", key_col: str, val_col: str, out_col: str,
                   keys: pa.Array, center: np.ndarray, scale: np.ndarray,
                   ) -> "ray.data.Dataset":
    """``ds`` plus ``out_col`` = (x - center) / scale of each row's key
    (its position in ``keys``, broadcast once; a null key matches the
    null), 0.0 where the scale is 0 and null where x or the center is
    null (NaN): the map-only pass of the z-score and robust z. No keys
    (empty input): _no_rows_with."""
    if not len(keys):
        return _no_rows_with(ds, out_col)
    ref = ray.put((keys, center, scale))

    def normalize(t: pa.Table) -> pa.Table:
        ks, mu, sg = ray.get(ref)
        pos = _key_pos(t[key_col], ks)
        x = t[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        m, s = mu[pos], sg[pos]
        d = x - m
        z = np.divide(d, s, out=np.zeros_like(x), where=s > 0)
        return t.append_column(out_col, pa.array(z, pa.float64(), mask=np.isnan(d)))

    return ds.map_batches(normalize, batch_format="pyarrow", zero_copy_batch=True)


def groupwise_zscore(
    ds: "ray.data.Dataset", *, key_col: str, val_col: str,
    out_col: str = "zscore",
) -> "ray.data.Dataset":
    """Per-group z-score normalization of an INTEGER signal column —
    calibrates a quality score across heterogeneous sources before a
    single global threshold (each source's distribution maps to mean 0 /
    sd 1, so no source dominates a cut just by being verbose).

    Two passes:

    1. moments: a _keyed_reduce of per-key (n, sum, sumsq, max sq)
       int64 partials per batch over the VALID values (exact — integer
       sums commute, no float accumulation order issues); the tiny
       |keys|-row moment table broadcasts once via ray.put.
    2. normalize: map-only; each row computes
       (x - sum/n) / sqrt(sumsq/n - (sum/n)^2) in float64.  Every
       operation after the exact integer sums is a single correctly-
       rounded IEEE op (cast, divide, multiply, subtract, sqrt), so SQL
       engines reproduce the result bit-for-bit from the same
       expression — no libm, no order-dependent float reduction.

    Groups with zero variance emit 0.0 (not NaN/inf); a null key is a
    group, as in SQL PARTITION BY.  Null values are skipped, as by SQL
    avg / stddev_pop: they count in no group's n, a null value's z is
    null, and so is every z of a group with no valid value.
    ``val_col`` must be integer; per-row int64 squares are
    multiply_checked and the SUMS are guarded by the exact bound
    n * max(v^2) < 2^63 per group (checked in Python ints after the
    reduce — Arrow integer sums wrap silently, so a bound check, not the
    sum itself, is the only sound guard)."""
    def fold(t: pa.Table) -> pa.Table:
        g = t.group_by(key_col, use_threads=False).aggregate(
            [("n", "sum"), ("s", "sum"), ("s2", "sum"), ("m2", "max")])
        return pa.table([g[key_col], g["n_sum"], g["s_sum"], g["s2_sum"], g["m2_max"]],
                        names=[key_col, "n", "s", "s2", "m2"])

    def moments(t: pa.Table) -> pa.Table:
        v = pc.cast(t[val_col], pa.int64())
        v2 = pc.multiply_checked(v, v)  # raises on int64 overflow
        n = pc.cast(pc.is_valid(v), pa.int64())
        return fold(pa.table({key_col: t[key_col], "n": n, "s": v, "s2": v2, "m2": v2}))

    out = _keyed_reduce(ds, moments, [(key_col, fold)])
    if out is None:
        return _no_rows_with(ds, out_col)
    mom = _to_arrow(out)
    for k, nn, m2 in zip(*(mom[c].to_pylist() for c in (key_col, "n", "m2"))):
        if m2 is not None and nn * m2 >= 2 ** 63:
            raise ValueError(
                f"groupwise_zscore: group {k!r} has n*max(v^2) = "
                f"{nn * m2} >= 2^63; the int64 sum of squares "
                f"would wrap silently — rescale the signal first"
            )
    n = mom["n"].to_numpy().astype(np.float64)
    n[n == 0] = np.nan  # no valid value: a null (NaN) mean, sd and z
    mean = mom["s"].to_numpy(zero_copy_only=False).astype(np.float64) / n
    var = mom["s2"].to_numpy(zero_copy_only=False).astype(np.float64) / n - mean * mean
    sd = np.sqrt(np.maximum(var, 0.0))
    return _scale_per_key(ds, key_col, val_col, out_col, mom[key_col].combine_chunks(),
                          mean, sd)


def groupwise_cume_dist(
    ds: "ray.data.Dataset", *, key_col: str, val_col: str,
    out_col: str = "cume_dist",
) -> "ray.data.Dataset":
    """Per-group cumulative-distribution rank of a discrete signal —
    cume_dist(x) = (# rows in the group with value <= x) / group size.
    The rank-normalization cousin of ``groupwise_zscore``: maps every
    source's score distribution onto (0, 1] so a single global cut keeps
    the same FRACTION of each source regardless of scale or shape (the
    window-function normalization, computed WITHOUT a per-key sort).

    Pass 1 is _pair_histogram (distinct pairs reach the reduce, not
    rows); the |keys x distinct values| histogram is cumsum'd on the
    driver and broadcast once.  Pass 2 is a map-only index lookup + ONE
    IEEE division — bit-identical to SQL cume_dist() over the same
    column, a null key being a partition."""
    keys, hist = _pair_histogram(ds, key_col, val_col)
    if not len(hist):
        return _no_rows_with(ds, out_col)
    hist["_cum"] = hist.groupby("_k", sort=False)["n"].cumsum()
    hist["_tot"] = hist.groupby("_k", sort=False)["n"].transform("sum")
    # every (key, value) pair seen in the data has an exact histogram
    # entry, so the per-row lookup is a vectorized index join on (key
    # position, value), no search
    idx = pd.MultiIndex.from_arrays(
        [hist["_k"].to_numpy(), hist[val_col].to_numpy()]
    )
    cums = hist["_cum"].to_numpy().astype(np.float64)
    tot = hist["_tot"].to_numpy().astype(np.float64)
    ref = ray.put((keys, idx, cums, tot))

    def lookup(t: pa.Table) -> pa.Table:
        ks, hidx, c_all, t_all = ray.get(ref)
        pos = hidx.get_indexer(pd.MultiIndex.from_arrays([
            _key_pos(t[key_col], ks),
            t[val_col].to_numpy(zero_copy_only=False),
        ]))
        cd = c_all[pos] / t_all[pos]
        return t.append_column(out_col, pa.array(cd, pa.float64()))

    return ds.map_batches(
        lookup, batch_format="pyarrow", zero_copy_batch=True
    )


def _weighted_median(vals: np.ndarray, wts: np.ndarray) -> float:
    """Median of the multiset where vals[i] (ascending) occurs wts[i]
    times — DuckDB median()/quantile_cont(0.5) semantics: the exact
    middle element for odd N, the mean of the two middles for even N.
    All arithmetic is exact in float64 for integer and half-integer
    values (the only inputs the robust-z pipeline feeds it), so the
    result bit-matches the SQL engine's. No value: NaN (SQL NULL)."""
    if not len(wts):
        return float("nan")
    cum = np.cumsum(wts)
    n = int(cum[-1])
    if n % 2:
        return float(vals[np.searchsorted(cum, (n + 1) // 2)])
    lo = float(vals[np.searchsorted(cum, n // 2)])
    hi = float(vals[np.searchsorted(cum, n // 2 + 1)])
    return (lo + hi) / 2.0


def _pair_histogram(ds: "ray.data.Dataset", key_col: str,
                    val_col: str) -> tuple[pa.Array, pd.DataFrame]:
    """ONE per-(key, value) histogram pass — the shared reduce of the
    grouped normalization/quantile family (cume_dist, robust_z, grouped
    quantiles): a _keyed_reduce of per-batch (key, value) counts, so only
    DISTINCT (key, value) PAIRS reach it, never rows.  Returns the
    distinct keys in order (null last) and the (key, value, n, _k) frame
    sorted by (key, value), ``_k`` being the key's position in them."""
    def count(t: pa.Table) -> pa.Table:
        return _sum_by(pa.table({key_col: t[key_col], val_col: t[val_col],
                                 "n": np.ones(len(t), np.int64)}), [key_col, val_col])

    empty = pa.table({key_col: pa.array([], pa.string()),
                      val_col: pa.array([], pa.int64()), "n": pa.array([], pa.int64())})
    # bucketed on the value (exact: a pair's partials share it), as a
    # few-key column (a source) would keep at most |keys| buckets busy
    t = _to_arrow(_sum_reduce(ds, count, [val_col, key_col], finish=lambda t: t.sort_by(
        [(key_col, "ascending"), (val_col, "ascending")]).select([key_col, val_col, "n"]),
        empty=empty))
    keys = pc.unique(t[key_col])
    return keys, t.to_pandas().assign(_k=_key_pos(t[key_col], keys))


def grouped_quantiles(
    ds: "ray.data.Dataset", *, key_col: str, val_col: str,
    qs: list[float], interpolated: bool = False,
) -> pd.DataFrame:
    """Exact PER-GROUP quantiles — discrete (DuckDB ``quantile_disc``
    semantics, 1-based rank ceil(q*n_k) within each group; the default)
    or, with ``interpolated=True``, continuous (``quantile_cont``'s
    Interpolator expression) — the grouped counterpart of
    value_counts_quantiles(_cont) and the standard quality-filter
    statistic (per-source length p50/p90 thresholds).

    Same exchange shape as groupwise_robust_z: ONE per-(key, value)
    histogram pass — distinct (key, value) PAIRS shuffle, never rows —
    then a vectorized driver-side rank walk over the histogram (one
    searchsorted per (group, q), no Python loop over rows).  The
    driver-side table is bounded by the distinct-pair count, the same
    contract the robust-z/cume_dist family documents."""
    keys, hist = _pair_histogram(ds, key_col, val_col)
    names = [key_col] + [f"p{round(q * 100)}" for q in qs]
    # SQL semantics: quantile_disc IGNORES null values (filtered inside
    # the loop so an all-null-value group still emits its row, with NULL
    # quantiles from the empty frame), and GROUP BY keeps a NULL-key
    # group (keys holds it, last)
    walk = quantiles_cont_from_counts if interpolated else quantiles_from_counts
    rows = []
    for k, (_, g) in zip(keys.to_pylist(), hist.groupby("_k", sort=True)):
        g = g[g[val_col].notna()]
        vals = walk(
            g.rename(columns={val_col: "_v"})[["_v", "n"]], "_v", qs
        )
        rows.append({key_col: k, **{
            f"p{round(q * 100)}": v for q, v in zip(qs, vals)
        }})
    # explicit columns so an all-filtered corpus yields the declared
    # schema (bare DataFrame([]) would be column-less downstream)
    return pd.DataFrame(rows, columns=names)


def groupwise_robust_z(
    ds: "ray.data.Dataset", *, key_col: str, val_col: str,
    out_col: str = "robust_z",
) -> "ray.data.Dataset":
    """Per-group robust scaling (x - median) / MAD — the heavy-tail-safe
    cousin of ``groupwise_zscore`` (doc lengths and quality scores are
    skewed; one 10 MB file drags a mean/sd calibration, but not the
    median/MAD one).  Zero-MAD groups emit 0.0, matching zscore's
    zero-variance convention; null values are skipped, as SQL median()
    does, and get a null ``out_col``, as does every row of a group with
    no value.

    Same shape as ``groupwise_cume_dist``: ONE per-(key, value)
    histogram pass (distinct pairs shuffle, not rows), then BOTH the
    median and the MAD come from that same driver-side histogram — the
    |v - median| distribution is just the histogram re-keyed by
    distance, so no second corpus pass — and a map-only normalize reads
    the broadcast (median, mad) table.  Every float op (int cast,
    subtract, abs, the two-middles mean, one division) is exact or
    correctly rounded on half-integer values, so the doubles bit-match
    DuckDB's median()/abs()/division pipeline."""
    keys, hist = _pair_histogram(ds, key_col, val_col)
    meds, mads = [], []
    for _, g in hist.groupby("_k", sort=True):
        g = g[g[val_col].notna()]  # median() skips nulls; none left: null z
        v = g[val_col].to_numpy().astype(np.float64)
        w = g["n"].to_numpy()
        med = _weighted_median(v, w)
        d = np.abs(v - med)
        order = np.argsort(d, kind="mergesort")
        meds.append(med)
        mads.append(_weighted_median(d[order], w[order]))
    return _scale_per_key(ds, key_col, val_col, out_col, keys,
                          np.array(meds, np.float64), np.array(mads, np.float64))
