"""Training-data ops: dedup (exact/MinHash/SimHash), ANN, textstats,
multimodal plumbing."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds():
    import ray.data as rd

    return rd.read_parquet(f"{SF}/documents.parquet")


def _dup_docs_ds():
    """documents plus synthetic near/exact duplicates with known ids."""
    import ray.data as rd

    base = rd.read_parquet(f"{SF}/documents.parquet").to_pandas()
    rows = base.head(20).copy()
    exact = rows.iloc[:5].copy()
    exact["doc_id"] = exact["doc_id"] + 100000  # exact dups of 0..4
    near = rows.iloc[5:10].copy()
    near["doc_id"] = near["doc_id"] + 200000
    near["text"] = near["text"] + " trailing extra"
    aug = pd.concat([base, exact, near]).reset_index(drop=True)
    return rd.from_pandas(aug), exact, near


def test_exact_dedup_stats():
    ds, exact, _ = _dup_docs_ds()
    from pipeline.extras.dedup import exact_dedup_stats

    out = exact_dedup_stats(ds).to_pandas()
    dup_rows = out[out["n_copies"] > 1]
    assert set(dup_rows["doc_id"]) == set(exact["doc_id"] - 100000)
    assert (dup_rows["n_copies"] == 2).all()


def test_minhash_lsh_finds_planted_dups():
    ds, exact, near = _dup_docs_ds()
    from pipeline.extras.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(ds, threshold=0.6).to_pandas()
    got = set(zip(pairs["a"], pairs["b"]))
    for _, row in exact.iterrows():
        assert (row["doc_id"] - 100000, row["doc_id"]) in got
    for _, row in near.iterrows():
        assert (row["doc_id"] - 200000, row["doc_id"]) in got
    assert (pairs["jaccard"] >= 0.6).all()


def test_minhash_distributed_bucket_path_matches(monkeypatch):
    """Size switch: force the bucketed regime of the bucket-pair reduce
    (DRIVER_REDUCE_MAX_BYTES=-1) and assert identical verified pairs vs
    the one-task regime."""
    import pipeline.extras.dedup as dd
    from pipeline import partition

    ds, _, _ = _dup_docs_ds()
    base = dd.minhash_lsh_pairs(ds, threshold=0.6).to_pandas()
    monkeypatch.setattr(partition, "DRIVER_REDUCE_MAX_BYTES", -1)
    dist = dd.minhash_lsh_pairs(ds, threshold=0.6).to_pandas()
    assert base.sort_values(["a", "b"]).values.tolist() == \
        dist.sort_values(["a", "b"]).values.tolist()


def test_distributed_pair_paths_match(monkeypatch):
    """Force the bucketed pair scan + cross-bucket dedup stages
    (DRIVER_REDUCE_MAX_BYTES=-1) and assert identical output to the
    one-task regime for both minhash and simhash."""
    import pipeline.extras.dedup as dd
    from pipeline import partition

    ds, _, _ = _dup_docs_ds()
    mh_base = dd.minhash_lsh_pairs(ds, threshold=0.6).to_pandas()
    sh_base = dd.simhash_pairs(ds, max_hamming=3).to_pandas()
    monkeypatch.setattr(partition, "DRIVER_REDUCE_MAX_BYTES", -1)
    mh_dist = dd.minhash_lsh_pairs(ds, threshold=0.6).to_pandas()
    sh_dist = dd.simhash_pairs(ds, max_hamming=3).to_pandas()
    for base, dist in ((mh_base, mh_dist), (sh_base, sh_dist)):
        assert base.sort_values(["a", "b"]).values.tolist() == \
            dist.sort_values(["a", "b"]).values.tolist()


def test_batch_signatures_match_single_doc():
    from pipeline.extras.dedup import (
        batch_minhash_signatures, batch_simhash64, minhash_signature,
    )

    texts = ["", "one", "alpha beta gamma delta", "x y z " * 50,
             "alpha beta gamma delta epsilon zeta"]
    sigs = batch_minhash_signatures(texts)
    for i, t in enumerate(texts):
        assert (sigs[i] == minhash_signature(t)).all(), i
    sims = batch_simhash64(texts)
    assert sims[0] == 0  # empty doc
    assert sims[2] != sims[3]
    # stable across chunking boundaries
    assert (batch_simhash64(texts * 3)[:5] == sims).all()


def test_shingles_k_generalized():
    from pipeline.extras.dedup import _shingles, jaccard

    t = "a b c d e f g"
    assert len(_shingles(t, k=2)) == 6
    assert len(_shingles(t, k=3)) == 5
    assert len(_shingles(t, k=4)) == 4
    # k is actually honored: 2-gram overlap differs from 3-gram overlap
    a, b = "a b c d e", "a b x d e"
    assert jaccard(a, b, 2) != jaccard(a, b, 3)


def test_jaccard_semantics():
    from pipeline.extras.dedup import jaccard

    assert jaccard("a b c d e", "a b c d e") == 1.0
    assert jaccard("a b c d e", "v w x y z") == 0.0
    assert 0.0 < jaccard("a b c d e f", "a b c d e zz") < 1.0


def test_simhash_finds_planted_near_dups():
    ds, exact, near = _dup_docs_ds()
    from pipeline.extras.dedup import simhash_pairs

    pairs = simhash_pairs(ds, max_hamming=3).to_pandas()
    got = set(zip(pairs["a"], pairs["b"]))
    for _, row in exact.iterrows():
        assert (row["doc_id"] - 100000, row["doc_id"]) in got
    ham0 = pairs[pairs["hamming"] == 0]
    assert len(ham0) >= len(exact)


def test_brute_force_topk_matches_numpy():
    import ray.data as rd

    from pipeline.extras.ann import brute_force_topk

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    df = ds.to_pandas()
    m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    queries = m[:3]
    got = brute_force_topk(ds, queries, [0, 1, 2], k=5)
    for qi in range(3):
        scores = mn @ mn[qi]
        order = np.lexsort((df["vec_id"].values, -scores))[:5]
        exp_ids = df["vec_id"].values[order].tolist()
        g = got[got["query_id"] == qi].sort_values("rank")
        assert g["vec_id"].tolist() == exp_ids
        assert g["rank"].tolist() == [1, 2, 3, 4, 5]
        assert abs(g["score"].iloc[0] - 1.0) < 1e-9  # self-match first


def test_ivf_recall_vs_brute_force():
    import ray.data as rd

    from pipeline.extras.ann import brute_force_topk, ivf_topk

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    df = ds.to_pandas()
    queries = np.stack(df["embedding"].head(5).to_numpy()).astype(np.float64)
    qids = list(range(5))
    bf = brute_force_topk(ds, queries, qids, k=10)
    ivf = ivf_topk(ds, queries, qids, k=10, n_clusters=8, nprobe=4)
    recalls = []
    for q in qids:
        b = set(bf[bf["query_id"] == q]["vec_id"])
        a = set(ivf[ivf["query_id"] == q]["vec_id"])
        recalls.append(len(a & b) / len(b))
    assert np.mean(recalls) >= 0.5, recalls  # nprobe=4/8 buckets


def test_embedding_near_dup_pairs_finds_planted():
    import ray.data as rd

    from pipeline.extras.ann import embedding_near_dup_pairs

    df = rd.read_parquet(f"{SF}/embeddings.parquet").to_pandas().head(100)
    clone = df.head(3).copy()
    clone["vec_id"] = clone["vec_id"] + 5000
    aug = pd.concat([df, clone]).reset_index(drop=True)
    pairs = embedding_near_dup_pairs(rd.from_pandas(aug), threshold=0.999)
    got = set(zip(pairs["a"], pairs["b"]))
    assert {(0, 5000), (1, 5001), (2, 5002)} <= got


def test_embedding_near_dup_degenerate_bucket(monkeypatch):
    """A bucket of 1k identical vectors must finish in bounded time (the
    pair scan is one vectorized matmul + triu, not a Python pair loop),
    and buckets over MAX_EMB_BUCKET truncate to the smallest ids."""
    import time

    import ray.data as rd

    import pipeline.extras.ann as ann

    rng = np.random.RandomState(0)
    v = rng.randn(8)
    dup = pd.DataFrame({
        "vec_id": np.arange(1000, dtype=np.int64),
        "embedding": [v.copy() for _ in range(1000)],
    })
    t0 = time.monotonic()
    pairs = ann.embedding_near_dup_pairs(rd.from_pandas(dup), threshold=0.999)
    assert time.monotonic() - t0 < 60
    assert len(pairs) == 1000 * 999 // 2  # all-identical: every pair

    monkeypatch.setattr(ann, "MAX_EMB_BUCKET", 32)
    capped = ann.embedding_near_dup_pairs(rd.from_pandas(dup), threshold=0.999)
    assert len(capped) == 32 * 31 // 2  # deterministic: 32 smallest ids
    assert set(capped["a"]) | set(capped["b"]) == set(range(32))


def test_hash_sample_draws_across_files(tmp_path):
    """hash_sample_frame must sample across ALL input files, not take the
    first block like ds.limit() (centroid-fit sample bias)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from pipeline.extras.ann import hash_sample_frame

    rng = np.random.RandomState(1)
    for fi in range(2):
        ids = np.arange(fi * 1000, fi * 1000 + 1000, dtype=np.int64)
        t = pa.table({
            "vec_id": ids,
            "embedding": list(rng.randn(1000, 4)),
        })
        pq.write_table(t, tmp_path / f"part-{fi}.parquet")
    ds = rd.read_parquet(str(tmp_path))
    s1 = hash_sample_frame(ds, id_col="vec_id", cols=["embedding"], limit=200)
    assert len(s1) == 200
    assert (s1["vec_id"] < 1000).any() and (s1["vec_id"] >= 1000).any()
    # deterministic across runs
    s2 = hash_sample_frame(ds, id_col="vec_id", cols=["embedding"], limit=200)
    assert s1["vec_id"].tolist() == s2["vec_id"].tolist()


def test_simhash_bucket_truncation_paths_agree(monkeypatch):
    """A 70-member degenerate bucket (identical texts) exceeds MAX_BUCKET=64:
    the one-task and bucketed regimes must agree on the truncated pair set
    (both keep the 64 smallest ids -> C(64,2) pairs)."""
    import ray.data as rd

    import pipeline.extras.dedup as dd
    from pipeline import partition

    docs = pd.DataFrame({
        "doc_id": np.arange(70, dtype=np.int64),
        "text": ["the same exact document text repeated for everyone"] * 70,
    })
    ds = rd.from_pandas(docs)
    base = dd.simhash_pairs(ds, max_hamming=3).to_pandas()
    assert len(base) == 64 * 63 // 2
    assert set(base["a"]) | set(base["b"]) == set(range(64))
    monkeypatch.setattr(partition, "DRIVER_REDUCE_MAX_BYTES", -1)
    dist = dd.simhash_pairs(ds, max_hamming=3).to_pandas()
    assert base.sort_values(["a", "b"]).values.tolist() == \
        dist.sort_values(["a", "b"]).values.tolist()


def test_textstats_token_counts(docs_ds):
    from pipeline.extras.textstats import token_count_stage

    out = docs_ds.map_batches(token_count_stage, batch_format="pyarrow").to_pandas()
    df = docs_ds.to_pandas()
    exp = df["text"].str.split().str.len()
    assert (out.sort_values("doc_id")["n_tokens_ws"].values == exp.values).all()
    assert (out["n_tokens_bpe"] >= out["n_tokens_ws"]).all()


def test_fingerprint_order_sensitive():
    from pipeline.extras.textstats import fingerprint

    assert fingerprint("a b c") == fingerprint("a b c")
    assert fingerprint("a b c") != fingerprint("c b a")
    assert fingerprint("") == 0


def test_multimodal_plumbing(tmp_path):
    import ray.data as rd

    from pipeline.extras.multimodal import (
        decode_image_real,
        make_fake_image,
        media_pipeline,
        write_media_table,
    )

    write_media_table(tmp_path / "media", 60, n_files=2)
    ds = rd.read_parquet(str(tmp_path / "media"))
    out = media_pipeline(ds, concurrency=2, batch_size=16).to_pandas()
    assert len(out) == 60
    assert out["decode_ok"].all()
    assert (out["pixel_mean"] > 0).all()
    assert "payload" not in out.columns  # binary dropped after decode
    # deterministic features
    p1, _ = make_fake_image(7)
    p2, _ = make_fake_image(7)
    assert p1 == p2
    with pytest.raises(NotImplementedError):
        decode_image_real(p1)


def test_ivf_high_recall_on_clustered_data():
    """The fixture embeddings are near-uniform on the sphere (no cluster
    structure), which caps IVF recall at ~nprobe/n_clusters by
    construction. On data satisfying the IVF premise the implementation
    reaches full recall at nprobe/n_clusters = 1/4."""
    import ray.data as rd

    from pipeline.extras.ann import brute_force_topk, ivf_topk

    rng = np.random.RandomState(0)
    centers = rng.randn(16, 64) * 3
    vecs = np.concatenate([c + rng.randn(125, 64) * 0.3 for c in centers])
    df = pd.DataFrame({"vec_id": np.arange(2000), "embedding": list(vecs)})
    ds = rd.from_pandas(df)
    queries = vecs[:10]
    qids = list(range(10))
    bf = brute_force_topk(ds, queries, qids, k=10)
    ivf = ivf_topk(ds, queries, qids, k=10, n_clusters=16, nprobe=4)
    recalls = []
    for q in qids:
        b = set(bf[bf["query_id"] == q]["vec_id"])
        a = set(ivf[ivf["query_id"] == q]["vec_id"])
        recalls.append(len(a & b) / len(b))
    assert np.mean(recalls) >= 0.95, recalls


# ------------------------------------------------ exact n-gram Jaccard


def test_ngram_jaccard_exact_and_complete():
    """On a 50-doc corpus with planted exact + near dups: every returned
    value equals the reference per-pair jaccard(), and every brute-force
    pair >= threshold is returned (completeness — the property the banded
    minhash path only approximates)."""
    import ray.data as rd

    from pipeline.extras.dedup import jaccard, ngram_jaccard_pairs

    base = rd.read_parquet(f"{SF}/documents.parquet").to_pandas().head(40)
    exact = base.iloc[:5].copy()
    exact["doc_id"] = exact["doc_id"] + 100000
    near = base.iloc[5:10].copy()
    near["doc_id"] = near["doc_id"] + 200000
    near["text"] = near["text"] + " trailing extra"
    aug = pd.concat([base, exact, near]).reset_index(drop=True)

    got = ngram_jaccard_pairs(rd.from_pandas(aug), threshold=0.3).to_pandas()
    got_pairs = dict(zip(zip(got["a"], got["b"]), got["jaccard"]))

    texts = dict(zip(aug["doc_id"], aug["text"]))
    ids = sorted(texts)
    want = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            j = jaccard(texts[a], texts[b])
            if j >= 0.3:
                want[(a, b)] = j
    assert set(got_pairs) == set(want)
    for p, j in want.items():
        assert got_pairs[p] == pytest.approx(j, abs=0), p
    for _, row in exact.iterrows():
        assert got_pairs[(row["doc_id"] - 100000, row["doc_id"])] == 1.0


def test_ngram_jaccard_refuses_scale(monkeypatch):
    """The exact baseline raises (pointing at minhash_lsh_pairs) instead of
    silently degrading: corpus above the doc cap, or a degenerate shared
    gram blowing the pair-key budget."""
    import ray.data as rd

    import pipeline.extras.dedup as dd

    df = pd.DataFrame({"doc_id": [1, 2], "text": ["a b c d", "a b c e"]})
    with pytest.raises(ValueError, match="minhash_lsh_pairs"):
        dd.ngram_jaccard_pairs(rd.from_pandas(df), n_docs_hint=200_000)

    ident = pd.DataFrame(
        {"doc_id": np.arange(40), "text": ["same shared gram text"] * 40}
    )
    monkeypatch.setattr(dd, "EXACT_JACCARD_PAIR_BUDGET", 100)
    with pytest.raises(ValueError, match="explosion"):
        dd.ngram_jaccard_pairs(rd.from_pandas(ident))
    monkeypatch.setattr(dd, "EXACT_JACCARD_MAX_DOCS", 10)
    with pytest.raises(ValueError, match="capped"):
        dd.ngram_jaccard_pairs(rd.from_pandas(ident))


# ------------------------------------------------------- corpusstats ops

def test_hll_registers_deterministic_and_mergeable():
    from pipeline.extras.corpusstats import hll_estimate, hll_registers

    a = np.arange(0, 5000, dtype=np.int64)
    b = np.arange(2500, 8000, dtype=np.int64)
    ra, rb = hll_registers(a), hll_registers(b)
    assert np.array_equal(ra, hll_registers(a))  # process-salt-free
    merged = np.maximum(ra, rb)
    whole = hll_registers(np.arange(0, 8000, dtype=np.int64))
    assert np.array_equal(merged, whole)  # sketch of union == merged sketches
    est = hll_estimate(whole)
    assert abs(est - 8000) / 8000 < 0.05


def test_hll_distinct_accuracy_vs_exact():
    import ray.data as rd

    from pipeline.extras.corpusstats import hll_distinct

    n = 20000
    ids = np.repeat(np.arange(n, dtype=np.int64), 3)  # 60k rows, 20k distinct
    ds = rd.from_arrow(pa.table({"user_id": ids})).repartition(8)
    est = hll_distinct(ds, "user_id")
    assert abs(est - n) / n < 0.05


def test_quantiles_match_duckdb_disc_semantics():
    import duckdb

    from pipeline.extras.corpusstats import quantiles_from_counts

    rng = np.random.default_rng(7)
    vals = rng.integers(0, 50, size=501)
    counts = (
        pd.Series(vals).value_counts().rename_axis("v").reset_index(name="n")
    )
    qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    got = quantiles_from_counts(counts, "v", qs)
    con = duckdb.connect()
    expect = [
        con.execute(
            f"SELECT quantile_disc(x, {q}) FROM (SELECT unnest($1) x)", [vals.tolist()]
        ).fetchone()[0]
        for q in qs
    ]
    assert [int(g) for g in got] == [int(e) for e in expect]


def test_term_freq_batch_invariant(docs_ds):
    """Same vocabulary table whether the corpus arrives as 1 block or 8."""
    from pipeline.extras.corpusstats import term_freq

    one = term_freq(docs_ds.repartition(1), top_k=20).to_pandas()
    many = term_freq(docs_ds.repartition(8), top_k=20).to_pandas()
    pd.testing.assert_frame_equal(
        one.reset_index(drop=True), many.reset_index(drop=True)
    )


# ----------------------------------------------------- decontamination

def test_ngram_contamination_planted():
    import ray.data as rd

    from pipeline.extras.decontaminate import flag_ngram_contamination

    bench = ["the quick brown fox jumps over the lazy dog tonight again"]
    clean = "completely unrelated words about ray data pipelines " * 3
    # contains an 8-gram of the benchmark doc verbatim
    dirty = "prefix words then the quick brown fox jumps over the lazy dog suffix"
    ds = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [clean, dirty, bench[0]],
    }))
    out = flag_ngram_contamination(ds, bench, k=8, concurrency=1).to_pandas()
    out = out.sort_values("doc_id")
    assert out["contaminated"].tolist() == [False, True, True]
    assert out.loc[out.doc_id == 3, "n_bench_hits"].iloc[0] >= \
        out.loc[out.doc_id == 2, "n_bench_hits"].iloc[0] > 0


def test_snippet_contamination_planted():
    import ray.data as rd

    from pipeline.extras.decontaminate import flag_snippet_contamination

    snip = "unique marker phrase xyzzy"
    ds = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2],
        "text": ["nothing to see here", f"leading {snip} trailing"],
    }))
    out = flag_snippet_contamination(ds, [snip]).to_pandas().sort_values("doc_id")
    assert out["contaminated"].tolist() == [False, True]


# ------------------------------------------------- mixing / packing ops

def test_pack_greedy_matches_reference_loop():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from pipeline.extras.mixing import pack_greedy

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=700), max_size=60),
        st.integers(min_value=1, max_value=600),
    )
    def check(tokens, budget):
        got = pack_greedy(np.array(tokens, dtype=np.int64), budget).tolist()
        # reference: plain sequential first-fit-in-order
        ref, b, run = [], 0, 0
        for t in tokens:
            if ref and run + t > budget:
                b, run = b + 1, 0
            ref.append(b)
            run += t
        assert got == ref

    check()


def test_pack_greedy_fill_bound():
    from pipeline.extras.mixing import pack_greedy

    rng = np.random.default_rng(3)
    tokens = rng.integers(1, 400, size=500)
    budget = 512
    bins = pack_greedy(tokens, budget)
    assert (np.diff(bins) >= 0).all()  # contiguous, nondecreasing
    sums = pd.Series(tokens).groupby(bins).sum()
    counts = pd.Series(tokens).groupby(bins).size()
    # a bin over budget can only be a single oversized doc
    assert ((sums <= budget) | (counts == 1)).all()


def test_pack_bins_distributed_matches_driver(docs_ds):
    import ray.data as rd

    from pipeline.extras.mixing import pack_bins, pack_greedy
    from pipeline.extras.textstats import token_count_stage

    ds = docs_ds.map_batches(
        token_count_stage, batch_format="pyarrow", zero_copy_batch=True
    ).select_columns(["doc_id", "source", "n_tokens_ws"])
    got = (
        pack_bins(ds.repartition(8), key="source", order_by=["doc_id"],
                  token_col="n_tokens_ws", budget=256)
        .to_pandas().sort_values(["source", "doc_id"]).reset_index(drop=True)
    )
    ref = ds.to_pandas().sort_values(["source", "doc_id"]).reset_index(drop=True)
    ref["bin_id"] = -1
    for _, grp in ref.groupby("source"):
        ref.loc[grp.index, "bin_id"] = pack_greedy(
            grp["n_tokens_ws"].to_numpy(), 256
        )
    pd.testing.assert_frame_equal(
        got[["source", "doc_id", "bin_id"]], ref[["source", "doc_id", "bin_id"]]
    )


def test_weighted_sample_rate_extremes():
    import ray.data as rd

    from pipeline.extras.mixing import weighted_sample

    df = pd.DataFrame({"doc_id": np.arange(1000, dtype=np.int64)})
    ds = rd.from_pandas(df)
    keep_all = weighted_sample(
        ds, id_col="doc_id", rate_fn=lambda t: np.full(len(t), 1.0)
    ).count()
    keep_none = weighted_sample(
        ds, id_col="doc_id", rate_fn=lambda t: np.zeros(len(t))
    ).count()
    half = weighted_sample(
        ds, id_col="doc_id", rate_fn=lambda t: np.full(len(t), 0.5)
    ).count()
    assert keep_all == 1000 and keep_none == 0
    assert 400 < half < 600  # hash-uniformity sanity


def test_heavy_hitters_exact_with_tiny_sketch(docs_ds):
    """m=8 counters per batch (far below the 31-term vocab) must still
    recover the exact top-5 because the recount pass is exact over the
    candidate pool."""
    from pipeline.extras.corpusstats import heavy_hitter_terms, term_freq

    hh = heavy_hitter_terms(docs_ds, top_k=5, m=8).to_pandas()
    full = term_freq(docs_ds, top_k=5).to_pandas()[["term", "n_occ"]]
    pd.testing.assert_frame_equal(
        hh.reset_index(drop=True).astype({"n_occ": "int64"}),
        full.reset_index(drop=True).astype({"n_occ": "int64"}),
    )


def test_corpusstats_empty_inputs():
    """Zero input rows: every keyed reducer of the extras returns no rows
    under its declared columns (the per-row maps return no rows)."""
    import ray.data as rd

    from pipeline.extras import corpusstats as cs
    from pipeline.extras.corpusstats import (
        hll_estimate, hll_registers, quantiles_from_counts, term_freq,
    )
    from pipeline.extras.paragraphs import line_doc_counts
    from pipeline.extras.selection import budget_select

    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "k": pa.array([], pa.string()),
        "text": pa.array([], pa.string()),
    }))
    datasets = {
        ("term", "n_occ", "n_docs"): term_freq(empty),
        ("term", "n_occ"): cs.heavy_hitter_terms(empty),
        ("bigram", "n_occ"): cs.bigram_counts(empty),
        ("k", "n"): cs.value_counts(empty, "k"),
        ("line", "n_docs"): line_doc_counts(empty),
    }
    for names, ds in datasets.items():
        assert ds.count() == 0 and tuple(ds.schema().names) == names
    frames = {
        ("k", "n_distinct_est"): cs.hll_distinct_by_key(empty, "k", "doc_id"),
        ("k", "p50"): cs.grouped_quantiles(empty, key_col="k", val_col="doc_id",
                                           qs=[0.5]),
    }
    for names, df in frames.items():
        assert len(df) == 0 and tuple(df.columns) == names
    assert cs.value_counts_quantiles(empty, "doc_id", [0.5]) == [None]
    assert cs.value_counts_quantiles_cont(empty, "doc_id", [0.5]) == [None]
    kv = {"key_col": "k", "val_col": "doc_id"}
    for out_col, ds in (("zscore", cs.groupwise_zscore(empty, **kv)),
                        ("cume_dist", cs.groupwise_cume_dist(empty, **kv)),
                        ("robust_z", cs.groupwise_robust_z(empty, **kv))):
        assert ds.count() == 0
        assert ds.schema().names == ["doc_id", "k", "text", out_col]
        assert ds.schema().base_schema.field(out_col).type == pa.float64()
    for ds in (cs.tfidf_top_terms(empty),
               budget_select(empty, score_col="doc_id", token_col="doc_id", budget=1)):
        assert ds.count() == 0
    vc = cs.value_counts(empty, "doc_id")
    assert vc.schema().base_schema == pa.schema([("doc_id", pa.int64()), ("n", pa.int64())])
    assert quantiles_from_counts(
        pd.DataFrame({"v": [], "n": []}), "v", [0.5]
    ) == [None]
    assert hll_estimate(hll_registers(np.empty(0, dtype=np.int64))) == 0.0


_KEYED_BLOCK = 8192  # _keyed_reduce's combiner batch: one batch per block


def _keyed_rows() -> pd.DataFrame:
    """9 distinct rows: the key ``k`` holds null and "" (each more than
    once), the int key ``ik`` null in blocks 0 and 2 only, ``text`` null
    and "" rows and lines split by "\\n". Block b of _keyed_ds is rows
    3b..3b+2 tiled to _KEYED_BLOCK rows, so every key reaches the fold
    from several combiner partials; ``doc_id`` is the row number."""
    df = pd.DataFrame({
        "k": ["a", None, "", None, "a", "b", "", None, "a"],
        "ik": pd.array([1, None, 2, 1, 3, 2, None, 3, 1], dtype="Int64"),
        "v": np.array([3, 1, 4, 1, 5, 9, 2, 6, 5], np.int64),
        "tok": np.array([4, 2, 7, 1, 3, 5, 2, 6, 1], np.int64),
        "text": ["a b\nc", None, "", "a b", "c\na b", "b b", None, "c", "a b\nc"],
    })
    idx = np.concatenate([np.resize([3 * b, 3 * b + 1, 3 * b + 2], _KEYED_BLOCK)
                          for b in range(3)])
    df = df.iloc[idx].reset_index(drop=True)
    return df.assign(doc_id=np.arange(len(df), dtype=np.int64))


def _nulls_as_none(df: pd.DataFrame) -> pd.DataFrame:
    return df.astype(object).where(df.notna(), None).reset_index(drop=True)


def _keyed_ds():
    import ray.data as rd

    t = pa.Table.from_pandas(_keyed_rows(), preserve_index=False)
    return rd.from_arrow([t.slice(i, _KEYED_BLOCK) for i in range(0, len(t), _KEYED_BLOCK)])


def _tokens(df: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, pos, term) per non-empty " "-separated token."""
    toks = df.assign(term=df["text"].fillna("").str.split(" "))[["doc_id", "term"]]
    toks = toks.explode("term").assign(pos=lambda d: d.groupby("doc_id").cumcount())
    return toks[toks["term"] != ""]


def _top_counts(counts: pd.DataFrame, key: str, k: int) -> pd.DataFrame:
    return counts.sort_values(["n_occ", key], ascending=[False, True]).head(k)


def _emb_ds(n_same: int = 0):
    """60 random 16-d vectors (ids 0..59) plus exact copies of vector 0
    (ids 100..102) and of vector 1 (ids 200, 201), in 3 blocks that put
    each copy in another block than its original; with ``n_same``, that
    many identical vectors (ids 0..n_same-1) in 3 blocks instead."""
    import ray.data as rd

    rng = np.random.default_rng(5)
    if n_same:
        ids, m = np.arange(n_same), np.tile(rng.normal(size=16), (n_same, 1))
        blocks = np.array_split(np.arange(n_same), 3)
    else:
        ids = np.r_[np.arange(60), 100, 101, 102, 200, 201]
        m = rng.normal(size=(60, 16))
        m = np.vstack([m, m[[0, 0, 0, 1, 1]]])
        blocks = [np.arange(30), np.r_[30:60, 60, 63], np.array([61, 62, 64])]
    t = pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array(list(m.astype(np.float32)), pa.list_(pa.float32()))})
    return rd.from_arrow([t.take(pa.array(b)) for b in blocks])


def _dedup_case(name):
    """(run, expected frame, sort columns, rtol) for one reduce of the
    dedup family, expected by pandas or the driver union-find."""
    import ray.data as rd

    from pipeline.extras import ann
    from pipeline.extras.clustering import semantic_dedup
    from pipeline.extras.dedup import dup_groups, dup_groups_distributed, exact_dedup_stats

    if name == "exact_dedup_stats":
        df = _keyed_rows()
        exp = df.groupby("text", dropna=False).agg(
            doc_id=("doc_id", "min"), n_copies=("doc_id", "size"))
        return lambda: exact_dedup_stats(_keyed_ds()), exp, ["doc_id"], 0
    if name == "dup_groups_distributed":
        rng = np.random.default_rng(3)
        pairs = pd.DataFrame({"a": rng.integers(0, 60, 120), "b": rng.integers(0, 60, 120)})
        pairs = pairs[pairs.a != pairs.b].drop_duplicates().reset_index(drop=True)
        t = pa.Table.from_pandas(pairs, preserve_index=False)
        blocks = [t.slice(i, 40) for i in range(0, len(t), 40)]
        return (lambda: dup_groups_distributed(rd.from_arrow(blocks)),
                dup_groups(pairs), ["id"], 0)
    fam = {0: [0, 100, 101, 102], 1: [1, 200, 201]}
    if name == "semantic_dedup":
        exp = pd.DataFrame([(i, c, i == c) for c, ids in fam.items() for i in ids],
                           columns=["id", "canonical_id", "keep"])
        return (lambda: semantic_dedup(_emb_ds(), threshold=0.999, k=4),
                exp, ["id"], 0)
    if name == "embedding_near_dup_pairs":
        pairs = [(a, b) for ids in fam.values() for i, a in enumerate(ids) for b in ids[i + 1:]]
        exp = pd.DataFrame(pairs, columns=["a", "b"]).assign(cosine=1.0)
        return (lambda: ann.embedding_near_dup_pairs(_emb_ds(), threshold=0.999),
                exp, ["a", "b"], 1e-9)
    assert name == "embedding_near_dup_pairs_cap"  # run with MAX_EMB_BUCKET = 32
    ii, jj = np.triu_indices(32, 1)
    exp = pd.DataFrame({"a": ii, "b": jj, "cosine": 1.0})
    return (lambda: ann.embedding_near_dup_pairs(_emb_ds(n_same=100), threshold=0.999),
            exp, ["a", "b"], 1e-9)


def _keyed_case(name):
    """(run, expected frame, sort columns, rtol) for one reducer of the
    extras over _keyed_rows, expected by pandas with null as a group (SQL
    GROUP BY / PARTITION BY)."""
    from pipeline.extras import corpusstats as cs
    from pipeline.extras.paragraphs import line_doc_counts
    from pipeline.extras.selection import budget_select

    key = "ik" if name.endswith("_ik") else "k"
    name = name.removesuffix("_ik")
    df = _keyed_rows()
    g = df.groupby(key, dropna=False, sort=False)["v"]
    if name.startswith("value_counts"):
        col = "v" if name == "value_counts_int" else key
        exp = df.groupby(col, dropna=False).size().rename("n").reset_index()
        return lambda: cs.value_counts(_keyed_ds(), col), exp, [col], 0
    if name == "grouped_quantiles":
        exp = g.apply(lambda s: sorted(s)[math.ceil(0.5 * len(s)) - 1])
        return (lambda: cs.grouped_quantiles(_keyed_ds(), key_col=key, val_col="v",
                                             qs=[0.5]),
                exp.rename("p50").reset_index(), [key], 0)
    if name == "groupwise_cume_dist":
        exp = df.assign(cume_dist=g.rank(method="max") / g.transform("size"))
        return (lambda: cs.groupwise_cume_dist(_keyed_ds(), key_col=key, val_col="v"),
                exp, ["doc_id"], 0)
    if name == "groupwise_zscore":
        sd = g.transform(lambda s: s.std(ddof=0))
        z = ((df["v"] - g.transform("mean")) / sd).where(sd > 0, 0.0)
        return (lambda: cs.groupwise_zscore(_keyed_ds(), key_col=key, val_col="v"),
                df.assign(zscore=z), ["doc_id"], 1e-9)
    if name == "groupwise_robust_z":
        med = g.transform("median")
        mad = (df["v"] - med).abs().groupby(df[key], dropna=False).transform("median")
        rz = ((df["v"] - med) / mad).where(mad > 0, 0.0)
        return (lambda: cs.groupwise_robust_z(_keyed_ds(), key_col=key, val_col="v"),
                df.assign(robust_z=rz), ["doc_id"], 0)
    if name == "hll_distinct_by_key":
        # linear counting is within 0.1% of exact at a few distinct values
        exp = g.nunique().rename("n_distinct_est").reset_index()
        return lambda: cs.hll_distinct_by_key(_keyed_ds(), key, "v"), exp, [key], 1e-3
    if name == "budget_select":
        srt = df.sort_values(["v", "doc_id"], ascending=[False, True])
        exp = srt[srt["tok"].cumsum() <= 35_000]  # cut inside the v=5 group
        return (lambda: budget_select(_keyed_ds(), score_col="v", token_col="tok",
                                      budget=35_000), exp, ["doc_id"], 0)
    toks = _tokens(df)
    tf = toks.groupby("term").agg(n_occ=("doc_id", "size"), n_docs=("doc_id", "nunique"))
    tf = tf.reset_index()
    if name == "term_freq":
        return lambda: cs.term_freq(_keyed_ds()), tf, ["term"], 0
    if name == "heavy_hitter_terms":
        return (lambda: cs.heavy_hitter_terms(_keyed_ds(), top_k=2, m=2),
                _top_counts(tf, "term", 2)[["term", "n_occ"]], ["term"], 0)
    if name == "bigram_counts":
        nxt = toks.assign(pos=toks["pos"] - 1)
        pairs = toks.merge(nxt, on=["doc_id", "pos"])
        big = (pairs["term_x"] + " " + pairs["term_y"]).value_counts()
        big = big.rename_axis("bigram").rename("n_occ").reset_index()
        return (lambda: cs.bigram_counts(_keyed_ds(), top_k=3),
                _top_counts(big, "bigram", 3), ["bigram"], 0)
    if name == "tfidf_top_terms":
        cnt = toks.groupby(["doc_id", "term"]).size().rename("cnt").reset_index()
        cnt = cnt.merge(toks.groupby("doc_id").size().rename("len").reset_index())
        cnt = cnt.merge(tf[["term", "n_docs"]])
        n1 = len(df) + 1
        cnt["score"] = cnt["cnt"] * n1 / (cnt["len"] * (cnt["n_docs"] + 1))
        exp = cnt.sort_values(["doc_id", "score", "term"], ascending=[True, False, True])
        exp = exp.groupby("doc_id").head(1).assign(rnk=1)
        return (lambda: cs.tfidf_top_terms(_keyed_ds(), variant="recip"),
                exp[["doc_id", "term", "score", "rnk"]], ["doc_id"], 0)
    assert name == "line_doc_counts"
    lines = df.assign(line=df["text"].str.split("\n")).explode("line")
    lines = lines.dropna(subset=["line"])
    exp = lines[lines["line"] != ""].groupby("line")["doc_id"].nunique()
    return (lambda: line_doc_counts(_keyed_ds(), min_chars=1),
            exp.rename("n_docs").reset_index(), ["line"], 0)


_DEDUP_CASES = {"exact_dedup_stats", "embedding_near_dup_pairs",
                "embedding_near_dup_pairs_cap", "semantic_dedup", "dup_groups_distributed"}


@pytest.mark.parametrize("max_bytes", [None, -1], ids=["one_task", "bucketed"])
@pytest.mark.parametrize("name", [
    "value_counts_str", "value_counts_int", "grouped_quantiles",
    "groupwise_cume_dist", "groupwise_zscore", "groupwise_robust_z",
    "hll_distinct_by_key", "budget_select", "term_freq", "heavy_hitter_terms",
    "bigram_counts", "tfidf_top_terms", "line_doc_counts", "value_counts_ik",
    "grouped_quantiles_ik", "groupwise_cume_dist_ik", "groupwise_zscore_ik",
    "groupwise_robust_z_ik", "hll_distinct_by_key_ik", "exact_dedup_stats",
    "embedding_near_dup_pairs", "embedding_near_dup_pairs_cap", "semantic_dedup",
    "dup_groups_distributed",
])
def test_extras_keyed_reducers_null_and_empty_keys_both_regimes(
    monkeypatch, name, max_bytes,
):
    """Every keyed reducer of the extras (one partition._keyed_reduce
    each) treats null and "" keys as groups like any other, keeps an int
    key's type, and matches pandas in both regimes, over 3 blocks; the
    ``_ik`` cases key on an int column that is null in some blocks only
    (a bucket must not depend on whether its batch holds a null). The
    dedup family's reduces (_dedup_case) match pandas or the driver
    union-find in both regimes too; the ``_cap`` case truncates one
    100-member bucket to its 32 smallest ids."""
    from pipeline import partition
    from pipeline.extras import ann

    if max_bytes is not None:
        monkeypatch.setattr(partition, "DRIVER_REDUCE_MAX_BYTES", max_bytes)
    if name.endswith("_cap"):
        monkeypatch.setattr(ann, "MAX_EMB_BUCKET", 32)
    case = _dedup_case if name in _DEDUP_CASES else _keyed_case
    run, exp, by, rtol = case(name)
    got = run()
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    assert sorted(got.columns) == sorted(exp.columns)
    if name == "value_counts_int":
        assert got["v"].dtype == np.int64
    pd.testing.assert_frame_equal(
        _nulls_as_none(got[list(exp.columns)].sort_values(by)),
        _nulls_as_none(exp.sort_values(by)), check_exact=not rtol, rtol=rtol or 1e-5,
    )


def test_pack_greedy_empty_and_oversized():
    from pipeline.extras.mixing import pack_greedy

    assert pack_greedy(np.empty(0, dtype=np.int64), 10).tolist() == []
    # every doc over budget: one bin each
    assert pack_greedy(np.array([50, 70, 60]), 10).tolist() == [0, 1, 2]


def test_dup_groups_distributed_matches_driver():
    """VERDICT r3 item 3: label-propagation connected components agree
    with the driver union-find on random graphs (int AND string ids) —
    same (id, canonical_id, keep) rows, canonical = component min."""
    from pipeline.extras.dedup import dup_groups, dup_groups_distributed

    for seed in (3, 11, 42):
        rng = np.random.default_rng(seed)
        pairs = pd.DataFrame({
            "a": rng.integers(0, 60, 120), "b": rng.integers(0, 60, 120),
        })
        pairs = pairs[pairs.a != pairs.b].drop_duplicates().reset_index(drop=True)
        ref = dup_groups(pairs).sort_values("id").reset_index(drop=True)
        out = dup_groups_distributed(pairs).to_pandas() \
            .sort_values("id").reset_index(drop=True)
        pd.testing.assert_frame_equal(out, ref, check_dtype=False)

    sp = pd.DataFrame({"a": ["d1", "d2", "d5"], "b": ["d2", "d3", "d6"]})
    ref = dup_groups(sp).sort_values("id").reset_index(drop=True)
    out = dup_groups_distributed(sp).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    pd.testing.assert_frame_equal(out, ref, check_dtype=False)


def test_dup_groups_distributed_local_finish_equals_pure_loop():
    """The frontier early-exit (single union-find task over the
    condensed label graph + one relabel shuffle) must be invisible:
    identical output to the pure iterative path on a graph whose
    frontier SURVIVES the init round (a chain — diameter 40 — so the
    local finish does real work, not just the converged no-op)."""
    from pipeline.extras.dedup import dup_groups_distributed

    i = np.arange(1, 41, dtype=np.int64)
    chain = pd.DataFrame({"a": 1000 + i, "b": 1000 + i - 1})
    # offset ids so canonical != 0 exercises non-trivial minima
    loop = dup_groups_distributed(chain, finish_local_max_edges=0) \
        .to_pandas().sort_values("id").reset_index(drop=True)
    local = dup_groups_distributed(chain, finish_local_max_edges=10**6) \
        .to_pandas().sort_values("id").reset_index(drop=True)
    pd.testing.assert_frame_equal(local, loop, check_dtype=False)
    assert (local["canonical_id"] == 1000).all()
    assert int(local["keep"].sum()) == 1


def test_dup_groups_distributed_planted_100k_component():
    """Planted single component with 100_000 pairs (binary-tree edges
    (i, i//2)): every node must resolve to canonical 0 with exactly one
    keeper, through the distributed path only (the driver union-find
    would also handle this, but here we prove the label-propagation
    converges and is exact at pair counts past toy scale)."""
    import ray.data as rd

    from pipeline.extras.dedup import dup_groups_distributed

    n = 100_001
    i = np.arange(1, n, dtype=np.int64)
    pairs = pd.DataFrame({"a": i, "b": i // 2})
    assert len(pairs) == 100_000
    out = dup_groups_distributed(
        rd.from_pandas(pairs).repartition(8),
        finish_local_max_edges=0,  # force the pure iterative path
    ).to_pandas()
    assert len(out) == n
    assert (out["canonical_id"] == 0).all()
    assert int(out["keep"].sum()) == 1
    assert bool(out.loc[out["id"] == 0, "keep"].iloc[0])


def test_dup_groups_union_find():
    from pipeline.extras.dedup import dup_groups

    # components: {1,2,3,9} via chain, {5,7}; 42 not listed (no pair)
    pairs = pd.DataFrame({"a": [2, 1, 3, 5], "b": [3, 2, 9, 7]})
    out = dup_groups(pairs)
    got = dict(zip(out["id"], out["canonical_id"]))
    assert got == {1: 1, 2: 1, 3: 1, 9: 1, 5: 5, 7: 5}
    keep = dict(zip(out["id"], out["keep"]))
    assert keep == {1: True, 2: False, 3: False, 9: False, 5: True, 7: False}
    # order of pair arrival must not change canonicals
    out2 = dup_groups(pairs.iloc[::-1].reset_index(drop=True))
    assert dict(zip(out2["id"], out2["canonical_id"])) == got


def test_hll_distinct_by_key_accuracy():
    import ray.data as rd

    from pipeline.extras.corpusstats import hll_distinct_by_key

    rng = np.random.default_rng(11)
    n_a, n_b = 5000, 800
    df = pd.DataFrame({
        "k": ["a"] * (n_a * 2) + ["b"] * (n_b * 3),
        "v": np.concatenate([
            np.tile(np.arange(n_a, dtype=np.int64), 2),
            np.tile(np.arange(100000, 100000 + n_b, dtype=np.int64), 3),
        ]),
    }).sample(frac=1.0, random_state=0).reset_index(drop=True)
    out = hll_distinct_by_key(rd.from_pandas(df).repartition(6), "k", "v")
    est = dict(zip(out["k"], out["n_distinct_est"]))
    assert abs(est["a"] - n_a) / n_a < 0.05
    assert abs(est["b"] - n_b) / n_b < 0.05


def test_weyl_hash_equidistribution():
    from pipeline.extras.mixing import sample_mask

    ids = np.arange(10000, dtype=np.int64)
    for rate in (0.1, 0.5, 0.9):
        frac = sample_mask(ids, np.full(len(ids), rate)).mean()
        # golden-ratio Weyl discrepancy on consecutive ids is O(log n / n)
        assert abs(frac - rate) < 0.01, (rate, frac)


# ------------------------------------------------- line dedup (boilerplate)

def test_line_dedup_removes_hot_lines():
    import ray.data as rd

    from pipeline.extras.paragraphs import line_dedup

    banner = "SPDX-License-Identifier: MIT"
    footer = "generated by tool v1"
    docs = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": [
            f"{banner}\nunique body zero\n{footer}",
            f"{banner}\nunique body one",
            f"{banner}\nunique body two\n{footer}",
            f"unique body three\n{footer}",
            "unique body four",
            f"{banner}\n{footer}",  # all lines hot -> becomes ''
        ],
    })
    out = line_dedup(
        rd.from_pandas(docs).repartition(3), min_chars=8, min_doc_freq=3,
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["text_clean"].tolist() == [
        "unique body zero", "unique body one", "unique body two",
        "unique body three", "unique body four", "",
    ]
    assert out["n_lines_removed"].tolist() == [2, 1, 2, 1, 0, 2]


def test_line_dedup_min_chars_gate_and_doc_local_repeats():
    import ray.data as rd

    from pipeline.extras.paragraphs import hot_lines, remove_lines

    # "ok" is short (<8 chars) and repeats everywhere -> never hot;
    # "repeated inside one doc" repeats WITHIN one doc only -> doc
    # frequency 1, never hot.
    docs = pd.DataFrame({
        "doc_id": np.arange(4, dtype=np.int64),
        "text": [
            "ok\nrepeated inside one doc\nrepeated inside one doc",
            "ok\nbody b",
            "ok\nbody c",
            "ok\nbody d",
        ],
    })
    ds = rd.from_pandas(docs)
    hot = hot_lines(ds, min_chars=8, min_doc_freq=2)
    assert hot.to_pylist() == []
    out = remove_lines(ds, hot).to_pandas()
    assert (out["n_lines_removed"] == 0).all()
    assert out["text_clean"].tolist() == docs["text"].tolist()


def test_chunk_words_stage_matches_duckdb():
    import duckdb

    from pipeline.extras.paragraphs import chunk_words_stage

    texts = ["w1 w2 w3 w4 w5 w6 w7", "x y", "lone", "a b c"]
    t = pa.table({"text": texts})
    got = chunk_words_stage(t, words_per_line=3)["text"].to_pylist()
    con = duckdb.connect()
    want = [
        con.execute(
            r"SELECT regexp_replace(?, '((?:\S+ ){2}\S+) ',"
            r" '\1' || chr(10), 'g')", [s],
        ).fetchone()[0]
        for s in texts
    ]
    assert got == want
    assert got[0] == "w1 w2 w3\nw4 w5 w6\nw7"


# ----------------------------------------------------- exact-k sampling

def test_sample_exact_k_matches_global_order_and_partitioning():
    import ray.data as rd

    from pipeline.extras.mixing import sample_exact_k, weyl_hash

    ids = np.arange(1000, dtype=np.int64)
    df = pd.DataFrame({"doc_id": ids, "v": ids * 2})
    want_ids = ids[np.argsort(weyl_hash(ids + 7), kind="stable")][:50]
    for nparts in (1, 7):
        out = sample_exact_k(
            rd.from_pandas(df).repartition(nparts), id_col="doc_id",
            k=50, seed=7,
        )
        assert sorted(out["doc_id"]) == sorted(want_ids.tolist())
        assert (out["v"] == out["doc_id"] * 2).all()


def test_sample_exact_k_smaller_corpus_returns_all():
    import ray.data as rd

    from pipeline.extras.mixing import sample_exact_k

    df = pd.DataFrame({"doc_id": np.arange(5, dtype=np.int64)})
    out = sample_exact_k(rd.from_pandas(df), id_col="doc_id", k=50)
    assert sorted(out["doc_id"]) == [0, 1, 2, 3, 4]


# ------------------------------------------------- distributed k-means

def _planted_clusters(n_per: int = 80, d: int = 16, k: int = 3):
    rng = np.random.default_rng(5)
    centers = rng.normal(size=(k, d)) * 10.0
    vecs, labels = [], []
    for c in range(k):
        vecs.append(centers[c] + rng.normal(scale=0.05, size=(n_per, d)))
        labels.extend([c] * n_per)
    m = np.concatenate(vecs)
    df = pd.DataFrame({
        "vec_id": np.arange(len(m), dtype=np.int64),
        "embedding": list(m.astype(np.float32)),
        "label": np.array(labels, dtype=np.int32),
    })
    return df


def test_kmeans_recovers_planted_clusters_any_partitioning():
    import ray.data as rd

    from pipeline.extras.clustering import kmeans_assign, kmeans_fit

    df = _planted_clusters()
    memberships = []
    for nparts in (1, 6):
        ds = rd.from_pandas(df).repartition(nparts)
        cent = kmeans_fit(ds, k=3, n_iter=4, sample_limit=64)
        out = kmeans_assign(ds, cent).to_pandas().sort_values("vec_id")
        # every planted cluster maps to exactly one fitted cluster
        tab = out.groupby(["label", "cluster_id"]).size().reset_index()
        assert tab.groupby("label")["cluster_id"].count().eq(1).all()
        assert out["cluster_id"].nunique() == 3
        memberships.append(out["cluster_id"].to_numpy())
    # membership is stable across partitionings on separated data
    a, b = memberships
    remap = {}
    for x, y in zip(a, b):
        remap.setdefault(x, y)
        assert remap[x] == y


def test_kmeans_empty_cluster_keeps_centroid_and_profile_sums():
    import ray.data as rd

    from pipeline.extras.clustering import cluster_profile, kmeans_fit

    df = _planted_clusters(n_per=40, k=2)
    ds = rd.from_pandas(df)
    cent = kmeans_fit(ds, k=5, n_iter=3, sample_limit=32)
    assert cent.shape == (5, 16)
    assert np.isfinite(cent).all()
    norms = np.linalg.norm(cent, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)
    prof = cluster_profile(ds, cent)
    assert prof["n_vecs"].sum() == len(df)
    assert (prof["mean_cosine"] > 0.9).all()  # tight planted clusters


def test_semantic_dedup_planted_groups():
    import ray.data as rd

    from pipeline.extras.clustering import semantic_dedup

    rng = np.random.default_rng(9)
    base = rng.normal(size=(200, 12))
    # plant 3 near-dup families: ids (500,501,502), (600,601), (700,701)
    fams = {500: 3, 600: 2, 700: 2}
    rows, ids = [base], [np.arange(200, dtype=np.int64)]
    for start, n in fams.items():
        proto = rng.normal(size=12)
        rows.append(proto + rng.normal(scale=1e-3, size=(n, 12)))
        ids.append(np.arange(start, start + n, dtype=np.int64))
    m = np.concatenate(rows)
    df = pd.DataFrame({
        "vec_id": np.concatenate(ids),
        "embedding": list(m.astype(np.float32)),
    })
    for nparts in (1, 5):
        out = semantic_dedup(
            rd.from_pandas(df).repartition(nparts), threshold=0.999,
            k=4, n_iter=3, sample_limit=64,
        ).sort_values("id").reset_index(drop=True)
        assert out["id"].tolist() == [500, 501, 502, 600, 601, 700, 701]
        assert out["canonical_id"].tolist() == [500, 500, 500, 600, 600, 700, 700]
        assert out["keep"].tolist() == [True, False, False, True, False, True, False]


def test_tfidf_top_terms_recip_and_log():
    import ray.data as rd

    from pipeline.extras.corpusstats import tfidf_top_terms

    # "rare" appears twice in one doc; "common" is in every doc.  (tf has
    # to dominate too: with smooth idf ln((N+1)/(df+1))+1, a single "rare"
    # among two "common" would lose — idf(common)=1.0, idf(rare)=1.92,
    # 2/3*1.0 > 1/3*1.92.)
    docs = pd.DataFrame({
        "doc_id": np.arange(4, dtype=np.int64),
        "text": [
            "common rare rare",
            "common common other",
            "common other other",
            "common filler words",
        ],
    })
    for variant in ("recip", "log"):
        out = tfidf_top_terms(
            rd.from_pandas(docs).repartition(2), top_n=1, variant=variant,
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert len(out) == 4
        assert out.loc[0, "term"] == "rare"      # df=1 beats common (df=4)
        assert (out["rnk"] == 1).all()
        assert out.loc[0, "score"] > out.loc[1, "score"]
    # recip scores are exact rationals: doc0 "rare" = 2*(4+1)/(3*(1+1))
    out = tfidf_top_terms(
        rd.from_pandas(docs), top_n=1, variant="recip",
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out.loc[0, "score"] == 10.0 / 6.0


def test_tfidf_distributed_path_matches_driver(monkeypatch):
    """TFIDF_MAX_VOCAB below the vocabulary size forces the distributed
    join+topn regime; it must agree BIT-FOR-BIT with the broadcast
    regime (same arithmetic on same values) and WARN about the switch."""
    import ray.data as rd

    from pipeline.extras import corpusstats
    from pipeline.extras.corpusstats import tfidf_top_terms

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(40)]
    docs = pd.DataFrame({
        "doc_id": np.arange(30, dtype=np.int64),
        "text": [" ".join(rng.choice(vocab, size=rng.integers(3, 12)))
                 for _ in range(30)],
    })
    for variant in ("recip", "log"):
        ref = tfidf_top_terms(
            rd.from_pandas(docs).repartition(3), top_n=2, variant=variant,
        ).to_pandas().sort_values(["doc_id", "rnk"]).reset_index(drop=True)
        with monkeypatch.context() as m, \
                pytest.warns(UserWarning, match="distributed join path"):
            m.setattr(corpusstats, "TFIDF_MAX_VOCAB", 4)
            out = tfidf_top_terms(
                rd.from_pandas(docs).repartition(3), top_n=2,
                variant=variant,
            ).to_pandas().sort_values(["doc_id", "rnk"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(out[ref.columns], ref)


def test_tfidf_planted_million_distinct_tokens(monkeypatch):
    """VERDICT r3 item 1 'done' criterion: a near-unique-identifier
    corpus (>=1M distinct tokens) runs through the distributed regime
    with nothing vocabulary-sized on the driver, and the answer is
    exactly predictable: every doc's 900 identifier tokens are hapax
    (df=1), so with recip scoring they all tie at (N+1)/(len*2) — far
    above the shared 'zz' bigram — and the term-asc tie-break picks the
    doc's lexicographically smallest identifier."""
    import warnings

    import ray.data as rd

    from pipeline.extras import corpusstats
    from pipeline.extras.corpusstats import tfidf_top_terms

    n_docs, per_doc = 1200, 900
    texts = [
        "zz zz " + " ".join(f"u{i:04d}_{j:03d}" for j in range(per_doc))
        for i in range(n_docs)
    ]
    docs = pd.DataFrame({
        "doc_id": np.arange(n_docs, dtype=np.int64), "text": texts,
    })
    assert n_docs * per_doc >= 1_000_000
    monkeypatch.setattr(corpusstats, "TFIDF_MAX_VOCAB", 10_000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the intended TFIDF_MAX_VOCAB WARN
        out = tfidf_top_terms(
            rd.from_pandas(docs).repartition(8), top_n=1, variant="recip",
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(out) == n_docs
    assert out["term"].tolist() == [f"u{i:04d}_000" for i in range(n_docs)]
    expected = (1 * (n_docs + 1)) / ((per_doc + 2) * 2)
    assert (out["score"] == expected).all()


def test_tfidf_ndocs_folded_two_executions():
    """VERDICT r3 item 4: with n_docs=None the input lineage executes
    exactly TWICE (vocab pass + scoring pass) — the old separate
    ds.count() third pass is folded into the vocabulary groupby via the
    sentinel row."""
    import os
    import tempfile

    import ray.data as rd

    from pipeline.extras.corpusstats import tfidf_top_terms

    docs = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": ["alpha beta", "beta gamma", "gamma delta",
                 "delta eps", "eps zeta", "zeta alpha"],
    })
    with tempfile.TemporaryDirectory() as tmp:
        marker = os.path.join(tmp, "exec.log")

        def trace(t: pa.Table) -> pa.Table:
            with open(marker, "a") as f:
                f.write("x\n")
            return t

        ds = rd.from_pandas(docs).map_batches(
            trace, batch_format="pyarrow", zero_copy_batch=True,
        )
        out = tfidf_top_terms(ds, top_n=1, variant="recip").to_pandas()
        assert len(out) == 6
        with open(marker) as f:
            n_exec = len(f.readlines())
        assert n_exec == 2, f"expected 2 lineage executions, saw {n_exec}"


def test_bigram_counts_adjacency_and_ties():
    import ray.data as rd

    from pipeline.extras.corpusstats import bigram_counts

    docs = pd.DataFrame({
        "doc_id": np.arange(3, dtype=np.int64),
        # "b c" spans docs 0->1 only via the boundary — must NOT count;
        # "a b" appears in docs 0 and 2 (count 2).
        "text": ["a b", "c d", "a b  c"],  # double space -> empty token
    })
    out = bigram_counts(
        rd.from_pandas(docs).repartition(2), top_k=10
    ).to_pandas()
    got = dict(zip(out["bigram"], out["n_occ"]))
    assert got == {"a b": 2, "c d": 1}
    # count-desc, bigram-asc deterministic order
    assert out["bigram"].tolist() == ["a b", "c d"]


def test_bigram_counts_single_word_docs():
    import ray.data as rd

    from pipeline.extras.corpusstats import bigram_counts

    docs = pd.DataFrame({"doc_id": [0, 1], "text": ["solo", "alone"]})
    out = bigram_counts(rd.from_pandas(docs), top_k=5).to_pandas()
    assert len(out) == 0


def test_quantile_threshold_filter():
    import ray.data as rd

    from pipeline.extras.textstats import quantile_threshold_filter

    df = pd.DataFrame({"id": np.arange(8), "v": [1, 2, 3, 4, 5, 6, 7, 8]})
    ds = rd.from_pandas(df).repartition(3)
    kept, thr = quantile_threshold_filter(ds, col="v", q=0.25)
    # quantile_disc(0.25) over 8 values = rank ceil(0.25*8)=2 -> value 2
    assert thr == 2
    got = sorted(kept.to_pandas()["v"].tolist())
    assert got == [2, 3, 4, 5, 6, 7, 8]
    capped, thr2 = quantile_threshold_filter(ds, col="v", q=0.5, keep="le")
    assert thr2 == 4
    assert sorted(capped.to_pandas()["v"].tolist()) == [1, 2, 3, 4]


def test_dedup_lines_within_doc():
    import ray.data as rd

    from pipeline.extras.paragraphs import dedup_lines_within_doc

    docs = pd.DataFrame({
        "doc_id": np.arange(3, dtype=np.int64),
        "text": [
            "a\nb\na\nc\nb",      # dups of a and b -> a,b,c
            "x\nx\nx",            # -> x
            "unique\nlines",      # unchanged
        ],
    })
    out = dedup_lines_within_doc(
        rd.from_pandas(docs).repartition(2)
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["text_clean"].tolist() == ["a\nb\nc", "x", "unique\nlines"]
    assert out["n_lines_removed"].tolist() == [2, 2, 0]


def test_groupwise_zscore():
    import ray.data as rd

    from pipeline.extras.corpusstats import groupwise_zscore

    df = pd.DataFrame({
        "k": ["a"] * 4 + ["b"] * 3,
        "v": np.array([1, 2, 3, 4, 5, 5, 5], dtype=np.int64),
    })
    out = groupwise_zscore(
        rd.from_pandas(df).repartition(3), key_col="k", val_col="v"
    ).to_pandas()
    a = out[out["k"] == "a"].sort_values("v")["zscore"].to_numpy()
    # mean 2.5, sd sqrt(1.25)
    exp = (np.array([1, 2, 3, 4], dtype=np.float64) - 2.5) / np.sqrt(1.25)
    assert np.array_equal(a, exp)
    # zero-variance group -> 0.0, not NaN
    assert (out[out["k"] == "b"]["zscore"] == 0.0).all()


@pytest.mark.parametrize("max_bytes", [None, -1], ids=["one_task", "bucketed"])
def test_groupwise_zscore_skips_null_values(monkeypatch, max_bytes):
    """Null values count in no group's n, as SQL avg / stddev_pop skip
    them: DuckDB's (v - avg(v) OVER w) / stddev_pop(v) OVER w gives
    -1, 1, null for one group holding 1, 3, null, and null for every row
    of a group with no valid value."""
    import ray.data as rd

    from pipeline import partition
    from pipeline.extras.corpusstats import groupwise_zscore

    if max_bytes is not None:
        monkeypatch.setattr(partition, "DRIVER_REDUCE_MAX_BYTES", max_bytes)
    t = pa.table({
        "id": [0, 1, 2, 3, 4],
        "k": ["a", "a", "a", "b", "b"],
        "v": pa.array([1, 3, None, None, None], pa.int64()),
    })
    out = groupwise_zscore(
        rd.from_arrow([t.slice(0, 2), t.slice(2)]), key_col="k", val_col="v",
    ).to_pandas().sort_values("id")
    assert out["zscore"].tolist()[:2] == [-1.0, 1.0]
    assert out["zscore"].isna().tolist() == [False, False, True, True, True]


def test_lsh_recall_vs_brute_force():
    import ray.data as rd

    from pipeline.extras.ann import brute_force_topk, lsh_topk

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    df = ds.to_pandas()
    queries = np.stack(df["embedding"].head(5).to_numpy()).astype(np.float64)
    qids = list(range(5))
    bf = brute_force_topk(ds, queries, qids, k=10)
    # nprobe=8 of 16 buckets — same half-the-space proportion as the IVF
    # recall test (the sf0.001 embeddings are unclustered random vectors,
    # so any bucketing scheme needs a wide probe to recover true top-k)
    lsh = lsh_topk(ds, queries, qids, k=10, nbits=4, nprobe=8)
    recalls = []
    for q in qids:
        b = set(bf[bf["query_id"] == q]["vec_id"])
        a = set(lsh[lsh["query_id"] == q]["vec_id"])
        recalls.append(len(a & b) / len(b))
    assert np.mean(recalls) >= 0.5, recalls
    # the query's own bucket always contains the query vector -> the
    # self-match (score 1.0) must always be found
    for q in qids:
        g = lsh[lsh["query_id"] == q].sort_values("rank")
        assert g["vec_id"].iloc[0] == df["vec_id"].iloc[q]
        assert abs(g["score"].iloc[0] - 1.0) < 1e-9


def test_lsh_nprobe_monotone_recall():
    """More probes can only widen the candidate set."""
    import ray.data as rd

    from pipeline.extras.ann import lsh_topk

    ds = rd.read_parquet(f"{SF}/embeddings.parquet")
    df = ds.to_pandas()
    queries = np.stack(df["embedding"].head(3).to_numpy()).astype(np.float64)
    lo = lsh_topk(ds, queries, [0, 1, 2], k=10, nbits=8, nprobe=2)
    hi = lsh_topk(ds, queries, [0, 1, 2], k=10, nbits=8, nprobe=32)
    assert len(hi) >= len(lo)


def test_groupwise_cume_dist():
    import ray.data as rd

    from pipeline.extras.corpusstats import groupwise_cume_dist

    df = pd.DataFrame({
        "k": ["a"] * 4 + ["b"] * 2,
        "v": np.array([10, 20, 20, 30, 5, 5], dtype=np.int64),
    })
    out = groupwise_cume_dist(
        rd.from_pandas(df).repartition(3), key_col="k", val_col="v"
    ).to_pandas()
    a = out[out["k"] == "a"].sort_values("v")["cume_dist"].tolist()
    # ties share the upper count: 10->1/4, 20->3/4 (x2), 30->1
    assert a == [0.25, 0.75, 0.75, 1.0]
    assert (out[out["k"] == "b"]["cume_dist"] == 1.0).all()


def test_temperature_targets_math():
    import pandas as pd
    import pytest as _pytest

    from pipeline.extras.mixing import temperature_targets

    counts = pd.DataFrame({"source": ["a", "b", "c"], "n": [100, 400, 2500]})
    t = temperature_targets(
        counts, key_col="source", n_col="n", n_target=80, alpha=0.5
    )
    # weights proportional to sqrt(n) = 10, 20, 50 -> k = 10, 20, 50
    assert t["k"].tolist() == [10, 20, 50]
    assert t["k"].sum() <= 80  # floor loss never over-budget
    # temperature flattens: the 25x-bigger source gets only 5x the docs
    assert t["k"].iloc[2] / t["k"].iloc[0] == 5.0
    with _pytest.raises(NotImplementedError):
        temperature_targets(
            counts, key_col="source", n_col="n", n_target=80, alpha=0.3
        )


def test_temperature_sample_deterministic_and_bounded(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from pipeline.extras.mixing import temperature_sample

    tbl = pa.table({
        "doc_id": pa.array(range(300), pa.int64()),
        "source": pa.array(
            ["big"] * 250 + ["small"] * 50
        ),
    })
    a = temperature_sample(
        rd.from_arrow(tbl), key_col="source", id_col="doc_id",
        n_target=30, seed=7,
    )
    b = temperature_sample(
        rd.from_arrow(tbl).repartition(5), key_col="source",
        id_col="doc_id", n_target=30, seed=7,
    )
    assert a.equals(b)  # layout-independent
    per = a.groupby("source").size()
    assert per.sum() <= 30
    # sqrt damping: 5x rows -> ~sqrt(5)x sample, nowhere near 5x
    assert per["big"] / per["small"] < 3


def test_minhash_string_doc_ids_driver_path(ray_session):
    """The driver regime's single to_pandas pull takes any id type:
    string doc ids must still find planted dups."""
    import pyarrow as pa
    import ray.data as rd

    from pipeline.extras.dedup import minhash_lsh_pairs

    texts = [f"some document body number {i} with shared words" for i in range(30)]
    ids = [f"doc-{i:03d}" for i in range(30)]
    # plant exact dups of the first five docs
    texts += texts[:5]
    ids += [f"dup-{i:03d}" for i in range(5)]
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)}))
    pairs = minhash_lsh_pairs(ds, threshold=0.6).to_pandas()
    got = set(zip(pairs["a"], pairs["b"]))
    for i in range(5):
        assert (f"doc-{i:03d}", f"dup-{i:03d}") in got


def test_groupwise_zscore_overflow_guard(ray_session):
    """n * max(v^2) >= 2^63 must raise loudly instead of wrapping the
    int64 sum of squares into garbage z-scores."""
    import pyarrow as pa
    import pytest as _pytest
    import ray.data as rd

    from pipeline.extras.corpusstats import groupwise_zscore

    big = 2_000_000_000  # v^2 = 4e18; x3 rows -> 1.2e19 > 2^63
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "src": pa.array(["a"] * 3),
        "v": pa.array([big, big, big], pa.int64()),
    })
    with _pytest.raises(ValueError, match="2\\^63"):
        groupwise_zscore(
            rd.from_arrow(t), key_col="src", val_col="v"
        ).materialize()


def test_term_freq_doc_frequency_uses_doc_col(ray_session):
    """Two rows sharing a doc_id: document frequency must count ONE doc
    for a term appearing in both rows."""
    import pyarrow as pa

    from pipeline.extras.corpusstats import term_freq_partial

    t = pa.table({
        "doc_id": pa.array([7, 7, 8], pa.int64()),
        "text": pa.array(["foo bar", "foo baz", "foo"]),
    })
    out = term_freq_partial(t)
    row = {r["term"]: (r["n_occ"], r["n_docs"]) for r in out.to_pylist()}
    assert row["foo"] == (3, 2)  # 3 occurrences, docs {7, 8}
    assert row["bar"] == (1, 1)


def test_weighted_median_duckdb_semantics():
    import duckdb

    from pipeline.extras.corpusstats import _weighted_median

    cases = [
        ([1, 2, 4, 9], [1, 1, 1, 1]),   # even: (2+4)/2
        ([1, 2, 9], [1, 1, 1]),          # odd: middle
        ([3], [5]),                      # one value, weight 5
        ([1, 2], [3, 1]),                # weighted even: multiset 1,1,1,2
        ([0, 10], [2, 2]),               # even across a gap: 5.0
    ]
    con = duckdb.connect()
    for vals, wts in cases:
        flat = [v for v, w in zip(vals, wts) for _ in range(w)]
        want = con.execute(
            "SELECT median(x) FROM (SELECT unnest(?) AS x)", [flat]
        ).fetchone()[0]
        got = _weighted_median(
            np.array(vals, dtype=np.float64), np.array(wts)
        )
        assert got == float(want), (vals, wts)


def test_groupwise_robust_z_zero_mad(ray_session):
    """A constant-valued group has MAD 0 and must emit 0.0 (the zscore
    zero-variance convention), not inf/NaN."""
    import ray.data as rd

    from pipeline.extras.corpusstats import groupwise_robust_z

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "src": pa.array(["c", "c", "v", "v"]),
        "v": pa.array([7, 7, 1, 5], pa.int64()),
    })
    out = (
        groupwise_robust_z(rd.from_arrow(t), key_col="src", val_col="v")
        .to_pandas().sort_values("doc_id")
    )
    assert out["robust_z"].tolist() == [0.0, 0.0, -1.0, 1.0]


@pytest.mark.parametrize("src, vals, want", [
    (["s"] * 4, [1, 3, 5, None], [-1.0, 0.0, 1.0, None]),
    (["s"] * 4, [1, 3, None, None], [-1.0, 1.0, None, None]),
    (["a", "a", "b", "b"], [1, 3, None, None], [-1.0, 1.0, None, None]),
])
def test_groupwise_robust_z_skips_null_values(ray_session, tmp_path, src, vals, want):
    """Null values take no part in a group's median and MAD, as with SQL
    median(), and a group with no value gets a null robust_z: the
    doc_robust_z_by_source query against its DuckDB oracle on a 4-row
    table."""
    import duckdb
    import pyarrow.parquet as pq

    import __ray_entry__ as em

    pq.write_table(pa.table({
        "doc_id": pa.array(range(4), pa.int64()), "source": pa.array(src),
        "n_chars": pa.array(vals, pa.int64()),
    }), str(tmp_path / "documents.parquet"))
    got = em._doc_robust_z_by_source(str(tmp_path))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    oracle = con.execute(em.oracle_sql()["doc_robust_z_by_source"]).df()
    pd.testing.assert_frame_equal(got, oracle, check_dtype=False, check_exact=True)
    assert [None if math.isnan(z) else z for z in got["robust_z"]] == want


def test_hash_split_disjoint_complete_and_invariant():
    """hash_split: every row lands in exactly one split, fractions are
    respected approximately, assignment is identical across block
    layouts (map-only determinism), and bad fractions raise."""
    import ray.data as rd

    from pipeline.extras.mixing import hash_split

    docs = pd.DataFrame({"doc_id": np.arange(3000, dtype=np.int64)})
    a = hash_split(rd.from_pandas(docs), id_col="doc_id").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    b = hash_split(rd.from_pandas(docs).repartition(7), id_col="doc_id") \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) == 3000
    frac = a["split"].value_counts(normalize=True)
    assert 0.75 < frac["train"] < 0.85
    assert 0.07 < frac["val"] < 0.13
    assert 0.07 < frac["test"] < 0.13
    with pytest.raises(ValueError):
        hash_split(rd.from_pandas(docs), id_col="doc_id",
                   fractions=(0.5, 0.2), names=("a", "b", "c"))
    with pytest.raises(ValueError):
        hash_split(rd.from_pandas(docs), id_col="doc_id",
                   fractions=(0.5, 0.2), names=("a", "b"))


def test_dup_groups_distributed_empty_and_partitions():
    """No pairs -> empty keep-list (typed frame, no crash); a 4-node
    chain over 64 buckets (most of them empty) produces the same
    components as the driver union-find."""
    from pipeline.extras.dedup import dup_groups, dup_groups_distributed

    empty = pd.DataFrame({"a": pd.Series([], dtype="int64"),
                          "b": pd.Series([], dtype="int64")})
    out = dup_groups_distributed(empty).to_pandas()
    assert len(out) == 0

    # string-id callers must get a string-typed empty frame (the old
    # early return hardcoded int64, breaking the output contract)
    import pyarrow as pa
    sempty = pd.DataFrame({"a": pd.Series([], dtype="string"),
                           "b": pd.Series([], dtype="string")})
    sds = dup_groups_distributed(sempty)
    ssch = sds.schema()
    id_t = getattr(ssch, "base_schema", ssch).field("id").type
    assert pa.types.is_string(id_t) or pa.types.is_large_string(id_t)
    assert len(sds.to_pandas()) == 0

    pairs = pd.DataFrame({"a": [1, 2, 3], "b": [2, 3, 10]})
    ref = dup_groups(pairs).sort_values("id").reset_index(drop=True)
    got = dup_groups_distributed(pairs).to_pandas() \
        .sort_values("id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)


def test_tfidf_distributed_tiny_vocab_sparse_partitions(monkeypatch):
    """Regression: the distributed regime must survive a vocabulary far
    smaller than the partition count (Ray's native join crashed on the
    zero-column empty partitions this produces; the bucketed groupby-join
    does not) — and still match the broadcast regime bit-for-bit."""
    import warnings

    import ray.data as rd

    from pipeline.extras import corpusstats
    from pipeline.extras.corpusstats import tfidf_top_terms

    docs = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": ["aa bb", "bb aa", "aa", "bb", "aa aa", "bb bb"],
    })
    ref = tfidf_top_terms(
        rd.from_pandas(docs).repartition(3), top_n=1, variant="recip",
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setattr(corpusstats, "TFIDF_MAX_VOCAB", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = tfidf_top_terms(
            rd.from_pandas(docs).repartition(3), top_n=1,
            variant="recip",
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(out[ref.columns], ref)


def test_tfidf_distributed_huge_int_ids_exact(monkeypatch):
    """64-bit hash doc ids (> 2^53) through the distributed regime must
    come back bit-exact: the union's int columns are zero-padded, not
    null-padded, so pandas never promotes them to float64 (which is
    lossy above 2^53 and silently corrupted such ids before)."""
    import warnings

    import ray.data as rd

    from pipeline.extras import corpusstats
    from pipeline.extras.corpusstats import tfidf_top_terms

    base = np.int64(2**62)
    ids = base + np.arange(8, dtype=np.int64) * 12345
    assert np.any(ids != ids.astype(np.float64).astype(np.int64))
    docs = pd.DataFrame({
        "doc_id": ids,
        "text": ["aa bb cc", "bb cc", "aa", "cc cc dd", "dd aa",
                 "bb bb", "aa cc", "dd"],
    })
    monkeypatch.setattr(corpusstats, "TFIDF_MAX_VOCAB", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = tfidf_top_terms(
            rd.from_pandas(docs).repartition(3), top_n=1,
            variant="recip",
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert set(out["doc_id"].to_numpy()) == set(ids)


def test_tfidf_distributed_string_ids(monkeypatch):
    """String doc ids through the distributed regime: the null-padded
    union and the merge must preserve the id's Arrow type (a silent
    int64 fallback in the type sniff crashed schema unification)."""
    import warnings

    import ray.data as rd

    from pipeline.extras import corpusstats
    from pipeline.extras.corpusstats import tfidf_top_terms

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(30)]
    docs = pd.DataFrame({
        "doc_id": [f"doc-{i:03d}" for i in range(25)],
        "text": [" ".join(rng.choice(vocab, size=rng.integers(3, 10)))
                 for _ in range(25)],
    })
    ref = tfidf_top_terms(
        rd.from_pandas(docs).repartition(3), top_n=2, variant="recip",
    ).to_pandas().sort_values(["doc_id", "rnk"]).reset_index(drop=True)
    monkeypatch.setattr(corpusstats, "TFIDF_MAX_VOCAB", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = tfidf_top_terms(
            rd.from_pandas(docs).repartition(3), top_n=2,
            variant="recip",
        ).to_pandas().sort_values(["doc_id", "rnk"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(out[ref.columns], ref)
