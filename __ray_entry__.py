"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported — nothing
here calls ray.init()/ray.shutdown().

`queries()` maps SURVEY.md §2 operators (and the charter's training-data
ops) onto the driver's testdata tables; `oracle_sql()` gives the DuckDB
equivalent where ANSI SQL can express the op (float columns are rounded
identically on both sides so the driver's value-hash is stable). Both
are derived from one table, `_REGISTRY`, at the bottom of this module.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa

from pipeline._util import parquet_rows, parquet_schema
from pipeline.quality.normalize import normalize_sql_expr


def _round_ha(x, nd: int):
    """Round half-away-from-zero on float64 — bit-mirrors DuckDB round()
    (both compute floor(|x|*10^nd + 0.5) over the same IEEE doubles),
    whereas pandas/numpy .round() is banker's (half-even) and flips the
    driver value-hash whenever a result lands on an exact half boundary
    (e.g. 0.965: DuckDB 0.97, pandas 0.96 — the double 0.965*100
    multiplies to exactly 96.5). NaN passes through."""
    scale = 10.0 ** nd
    arr = np.asarray(x, dtype=np.float64)
    out = np.sign(arr) * np.floor(np.abs(arr) * scale + 0.5) / scale
    if isinstance(x, pd.Series):
        return pd.Series(out, index=x.index, name=x.name)
    if arr.ndim == 0:
        return float(out)
    return out


def _read(path: str, columns: list[str] | None = None):
    """read_parquet with the pandas schema metadata stripped AT THE
    SOURCE (pipeline._util.parquet_schema): the testdata parquet carries
    pandas metadata whose dict values make pa.Schema unhashable,
    defeating Ray's block-schema dedup ('Failed to hash the schemas' on
    every concat, including inside the read operator itself). A path the
    sniff can't open still reads, without the schema."""
    import ray.data as rd

    sch = parquet_schema(path)
    if sch is None:
        return rd.read_parquet(path, columns=columns)
    if columns is not None:
        sch = pa.schema([sch.field(c) for c in columns])
    return rd.read_parquet(path, schema=sch, columns=columns)


def _docs(sf_dir: str):
    return _read(f"{sf_dir}/documents.parquet")


def _group_sums(ds, keys: list[str], sums: Sequence[str] = (),
                count: str | None = None) -> pd.DataFrame:
    """Per distinct ``keys`` value (null and "" are groups, as in SQL
    GROUP BY) the sum of each ``sums`` column of ``ds`` and, given
    ``count``, its row count (SQL count(*)) under that name, sorted by
    ``keys`` with null last: the queries' one keyed reduce, a
    partition._sum_reduce of per-batch _sum_by partials (only partials
    cross the exchange, never rows). No rows: the same columns, typed
    as in ``ds`` (int64 where a map over no rows left no schema)."""
    from pipeline.partition import _column_types, _sum_by, _sum_reduce, _to_arrow

    cols = [*keys, *sums]

    def combine(t: pa.Table) -> pa.Table:
        return _sum_by(t.select(cols), keys, count)

    out = _sum_reduce(ds, combine, keys,
                      finish=lambda t: t.sort_by([(k, "ascending") for k in keys]))
    if out is not None:
        return _to_arrow(out).to_pandas()
    types = _column_types(ds) if ds.schema() else {}
    empty = pa.schema([(c, types.get(c, pa.int64())) for c in cols]).empty_table()
    return combine(empty).to_pandas()


def entry() -> Any:
    """Flagship pipeline smoke over sf0.001: adapt `documents` to the code
    table shape and run quality+scrub end to end (all rows returned with
    keep/drop annotations)."""
    import ray.data as rd

    from pipeline._util import hex_digest
    from pipeline.ray_pipeline import flagship_pipeline

    ds = _read("/root/testdata/sf0.001/documents.parquet")

    def adapt(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        return pa.table(
            {
                "repo": batch["source"],
                "path": pa.array([f"doc-{i}.txt" for i in ids]),
                "commit": pa.array([hex_digest("doc", i) for i in ids]),
                "lang": batch["lang"],
                "content": batch["text"],
            }
        )

    return flagship_pipeline(
        ds.map_batches(adapt, batch_format="pyarrow"), profile="code",
        n_rows_hint=parquet_rows(ds.input_files()),
    )


# --------------------------------------------------------------- queries

def _doc_length_stats(sf_dir: str) -> pd.DataFrame:
    """A4: sequence-length stats [model.ipynb cell 9 analog] from the
    exact (length, count) histogram: min and max read off its ends, the
    mean and sample sd formed from exact Python-int moment sums with one
    correctly rounded division each (see doc_corr_by_source). Null
    lengths count as docs and nowhere else, as in SQL; no docs (or one,
    for the sd) give NULL."""
    import math

    h = _group_sums(_read(f"{sf_dir}/documents.parquet", columns=["n_chars"]),
                    ["n_chars"], count="n")
    n_docs = int(h["n"].sum())
    h = h[h["n_chars"].notna()]
    x, c = [int(v) for v in h["n_chars"]], [int(v) for v in h["n"]]
    n = sum(c)
    s = sum(v * k for v, k in zip(x, c))
    ss = sum(v * v * k for v, k in zip(x, c))
    return pd.DataFrame([{
        "n_docs": n_docs,
        "mean_chars": _round_ha(s / n, 3) if n else None,
        "min_chars": x[0] if n else None,
        "max_chars": x[-1] if n else None,
        "std_chars": (_round_ha(math.sqrt((n * ss - s * s) / (n * (n - 1))), 3)
                      if n > 1 else None),
    }])


def _doc_minlen_filter(sf_dir: str) -> pd.DataFrame:
    """M23: min-length filter [evaluation/model_evaluation.py:240-241]."""
    import pyarrow.compute as pc

    n = (
        _docs(sf_dir)
        .map_batches(
            lambda t: t.filter(pc.greater_equal(pc.utf8_length(t["text"]), 10)),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        .count()
    )
    return pd.DataFrame([{"n_docs": int(n)}])


def _doc_lang_filter(sf_dir: str) -> pd.DataFrame:
    """M22: language filter + count [evaluation/model_evaluation.py:27]."""
    import pyarrow.compute as pc

    ds = _read(f"{sf_dir}/documents.parquet", columns=["lang"]).map_batches(
        lambda t: t.filter(pc.equal(t["lang"], "en")),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return _group_sums(ds, ["lang"], count="n_docs")


def _doc_source_counts(sf_dir: str) -> pd.DataFrame:
    """A6 analog: grouped counts + byte sums."""
    ds = _read(f"{sf_dir}/documents.parquet", columns=["source", "n_chars"])
    df = _group_sums(ds, ["source"], ["n_chars"], count="n_docs")
    return df.rename(columns={"n_chars": "sum_chars"})[["source", "n_docs", "sum_chars"]]


def _doc_top10_longest(sf_dir: str) -> pd.DataFrame:
    """O3/O4: sort + limit (deterministic tie-break by doc_id)."""
    out = (
        _docs(sf_dir)
        .select_columns(["doc_id", "n_chars"])
        .sort(["n_chars", "doc_id"], descending=[True, False])
        .limit(10)
    )
    return out.to_pandas()


def _doc_token_counts(sf_dir: str) -> pd.DataFrame:
    """Token counting (whitespace) per source, vectorized."""
    from pipeline.extras.textstats import token_count_stage

    ds = _read(f"{sf_dir}/documents.parquet", columns=["source", "text"]).map_batches(
        token_count_stage, batch_format="pyarrow", zero_copy_batch=True)
    return _group_sums(ds, ["source"], ["n_tokens_ws"]).rename(
        columns={"n_tokens_ws": "n_tokens"})


def _doc_alnum_ratio(sf_dir: str) -> pd.DataFrame:
    """Quality heuristic (alnum ratio) per source."""
    from pipeline.quality.heuristics import heuristic_batch

    def stage(batch: pa.Table) -> pa.Table:
        cols = heuristic_batch(batch["text"])
        return pa.table(
            {"source": batch["source"], "avg_alnum": pa.array(cols["alnum_ratio"])}
        )

    ds = _read(f"{sf_dir}/documents.parquet", columns=["source", "text"]).map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True)
    df = _group_sums(ds, ["source"], ["avg_alnum"], count="n")
    df["avg_alnum"] = _round_ha(df["avg_alnum"] / df.pop("n"), 4)
    return df


def _doc_quality(sf_dir: str) -> pd.DataFrame:
    """Per-doc prose quality signals (punct ratio, word count)."""
    from pipeline.extras.textstats import quality_stage

    ds = _docs(sf_dir).map_batches(
        quality_stage, batch_format="pyarrow", zero_copy_batch=True)
    df = _docs_frame(sf_dir, ds, quality_stage, ["doc_id", "n_words", "punct_ratio"])
    df["punct_ratio"] = _round_ha(df["punct_ratio"], 4)
    return df


def _doc_len_histogram(sf_dir: str) -> pd.DataFrame:
    """A4: sequence-length histogram buckets [model.ipynb cell 9;
    synth_checks.ipynb cell 3] — per-batch bucket counts + Sum."""
    import pyarrow.compute as pc

    def bucket(batch: pa.Table) -> pa.Table:
        b = pc.cast(pc.floor(pc.divide(batch["n_chars"], 100)), pa.int64())
        return pa.table({"bucket": b})

    ds = _read(f"{sf_dir}/documents.parquet", columns=["n_chars"]).map_batches(
        bucket, batch_format="pyarrow", zero_copy_batch=True)
    return _group_sums(ds, ["bucket"], count="n_docs")


def _orders_by_nation(sf_dir: str) -> pd.DataFrame:
    """Broadcast join (SURVEY.md §2.4): orders x customer x nation with
    both dimension tables ray.put once; grouped revenue per nation."""
    import pyarrow.parquet as pq

    from pipeline.partition import broadcast_join

    # the dimension tables come to the driver whole, read without Ray (a
    # Ray read of a zero-row file comes back without columns)
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).to_pandas()
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas().rename(columns={"n_nationkey": "c_nationkey"})
    dim = cust.merge(nation, on="c_nationkey").rename(columns={"o_custkey": "c_custkey"})
    orders = _read(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    joined = broadcast_join(
        orders.map_batches(
            lambda t: t.rename_columns(["c_custkey", "o_totalprice"]),
            batch_format="pyarrow",
        ),
        dim, on="c_custkey", columns=["n_name"],
    )
    df = _group_sums(joined, ["n_name"], ["o_totalprice"], count="n_orders")
    df["total_price"] = _round_ha(df.pop("o_totalprice"), 2)
    return df


def _orders_customer_join(sf_dir: str) -> pd.DataFrame:
    """Hash-partitioned large-large join (ray.data Dataset.join): row-level
    orders x customer."""
    import ray.data as rd

    from pipeline.partition import hash_join

    o_path, c_path = f"{sf_dir}/orders.parquet", f"{sf_dir}/customer.parquet"
    n_orders = parquet_rows(o_path)
    if n_orders == 0 or parquet_rows(c_path) == 0:
        # an inner join with an empty side is empty, and Ray's native
        # join fails or hangs on zero-row sides (hash_join's caveat)
        o, c = parquet_schema(o_path), parquet_schema(c_path)
        return pa.schema([o.field("o_orderkey"), c.field("c_name"), o.field("o_totalprice")]) \
            .empty_table().to_pandas()
    orders = _read(o_path, columns=["o_orderkey", "o_custkey", "o_totalprice"])
    cust = _read(c_path, columns=["c_custkey", "c_name"])
    joined = hash_join(orders, cust, on="o_custkey", right_on="c_custkey", n_rows_hint=n_orders)
    df = joined.select_columns(["o_orderkey", "c_name", "o_totalprice"]).to_pandas()
    df["o_totalprice"] = _round_ha(df["o_totalprice"], 2)
    return df.sort_values("o_orderkey").reset_index(drop=True)


def _orders_customer_full(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER join (closes the §2.4 family: broadcast/hash/asof/
    range/anti/semi/full-outer) via pipeline.partition.full_outer_join:
    high-value orders (>450k) FULL OUTER rich customers (acctbal>9000)
    on custkey — unmatched rows on BOTH sides at every sf. The orders
    side streams map-only (per-batch Acero left-outer against the
    broadcast dimension) plus one bounded keys-only matched-set pass;
    unmatched customers are appended null-padded. The output key column
    is the SQL COALESCE of the two keys (never null)."""
    from pipeline.partition import full_outer_join

    orders = _read(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    ).filter(expr="o_totalprice > 450000")
    cust = _read(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_acctbal"],
    ).filter(expr="c_acctbal > 9000").to_pandas()  # broadcast side
    out = full_outer_join(orders, cust, on="o_custkey", right_on="c_custkey")
    df = out.to_pandas()
    df["o_totalprice"] = _round_ha(df["o_totalprice"], 2)
    df["c_acctbal"] = _round_ha(df["c_acctbal"], 2)
    df["c_name"] = df["c_name"].where(df["c_name"].notna(), None)
    return df.sort_values(["o_custkey", "o_orderkey"]).reset_index(drop=True)


def _dedup_exact(sf_dir: str) -> pd.DataFrame:
    """§2.7 exact dedup stats: first doc id + copy count per distinct text."""
    from pipeline.extras.dedup import exact_dedup_stats
    from pipeline.partition import _to_arrow

    df = _to_arrow(exact_dedup_stats(_docs(sf_dir))).to_pandas()
    df["n_copies"] = df["n_copies"].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


def _events_hourly(sf_dir: str) -> pd.DataFrame:
    """Windowed aggregate: tumbling 1-hour count+sum per event_type
    (streaming-shaped workload expressed as a keyed reduce over bucket
    keys)."""
    ds = _read(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])

    def bucket(batch: pa.Table) -> pa.Table:
        from pipeline._util import epoch_floor_div

        return pa.table(
            {
                "event_type": batch["event_type"],
                "hour_bucket": epoch_floor_div(batch["ts"], 3_600_000_000),
                "value": batch["value"],
            }
        )

    df = _group_sums(
        ds.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "hour_bucket"], ["value"], count="n_events",
    )
    df["sum_value"] = _round_ha(df.pop("value"), 3)
    return df


def _events_hopping(sf_dir: str) -> pd.DataFrame:
    """HOPPING event-time windows (size 2h, hop 1h — each event lands in
    the two windows covering it): the overlapping-window counterpart of
    the tumbling events_hourly.  The explode to window starts happens
    in the map before the per-batch combiner, so the exchange ships
    (event_type, win) partial rows, never 2x event rows."""
    ds = _read(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])

    def windows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from pipeline._util import epoch_floor_div

        hour = epoch_floor_div(batch["ts"], 3_600_000_000)
        base = pa.table({
            "event_type": batch["event_type"], "win": hour,
            "value": batch["value"],
        })
        prev = base.set_column(
            1, "win", pc.subtract(base["win"], pa.scalar(1, pa.int64()))
        )
        return pa.concat_tables([base, prev])

    df = _group_sums(
        ds.map_batches(windows, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "win"], ["value"], count="n_events",
    )
    df["sum_value"] = _round_ha(df.pop("value"), 3)
    return df


def _events_user_paths(sf_dir: str) -> pd.DataFrame:
    """Grouped ORDERED string concatenation (SQL string_agg ... ORDER
    BY): each user's event-type journey in time order — the bucketed
    per_key_ordered shuffle (hash(user) % 64 is the one exchange key),
    one vectorized pandas groupby-join per bucket, never one frame per
    user."""
    from pipeline.partition import per_key_ordered

    ds = _read(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def paths(g: pd.DataFrame) -> pd.DataFrame:
        # mirror SQL string_agg: NULL elements are skipped (an all-NULL
        # group aggregates to NULL), and a NULL grouping key still forms
        # its own group (dropna=False); the join is per-group Python
        # either way, so the null-aware lambda costs nothing extra
        agg = g.groupby("user_id", dropna=False)["event_type"].agg(
            lambda s: "->".join(s.dropna()) if s.notna().any() else None
        )
        return agg.rename("path").reset_index()

    out = per_key_ordered(
        ds, key="user_id", order_by=["ts", "event_id"], fn=paths)
    return out.to_pandas().sort_values("user_id").reset_index(drop=True)


def _events_user_sessions(sf_dir: str) -> pd.DataFrame:
    """Sessionization (30-min gap) per user — bucketed per-key ordered
    op: a session starts at each key change or >30-min gap, counted in
    one vectorized pass over each key bucket (per_key_ordered)."""
    from pipeline.partition import per_key_ordered

    ds = _read(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        sec = g["ts"].astype("int64") // 1_000_000
        new = g["user_id"].ne(g["user_id"].shift()) | sec.diff().gt(1800)
        out = (
            new.groupby(g["user_id"]).sum().rename("n_sessions").reset_index()
        )
        out["n_sessions"] = out["n_sessions"].astype("int64")
        return out

    out = per_key_ordered(ds, key="user_id", order_by=["ts"], fn=sessions)
    return out.to_pandas().sort_values("user_id").reset_index(drop=True)


def _events_lag(sf_dir: str) -> pd.DataFrame:
    """Per-key ordered window (lag): previous event's value for the same
    user — bucketed per-key ordered op (per_key_ordered): one vectorized
    groupby(key).shift per key bucket, not one frame per key."""
    import ray.data as rd

    ds = _read(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )

    def lag(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(
            prev_value=_round_ha(g.groupby("user_id")["value"].shift(1), 3)
        )
        return g[["event_id", "prev_value"]]

    from pipeline.partition import per_key_ordered

    out = per_key_ordered(
        ds, key="user_id", order_by=["ts", "event_id"], fn=lag)
    df = out.to_pandas().sort_values("event_id").reset_index(drop=True)
    return df


N_ANN_QUERIES = 5
ANN_K = 10


def _ann_queries(sf_dir: str):
    ds = _read(f"{sf_dir}/embeddings.parquet")
    qdf = ds.filter(expr=f"vec_id < {N_ANN_QUERIES}").to_pandas()
    if qdf.empty:  # an empty read's blocks carry no columns
        return ds, np.empty((0, 0)), []
    qdf = qdf.sort_values("vec_id")
    queries = np.stack(qdf["embedding"].to_numpy()).astype(np.float64)
    return ds, queries, qdf["vec_id"].tolist()


def _ann_topk(sf_dir: str) -> pd.DataFrame:
    """Brute-force cosine top-k (baseline similarity search)."""
    from pipeline.extras.ann import brute_force_topk

    ds, queries, qids = _ann_queries(sf_dir)
    df = brute_force_topk(ds, queries, qids, k=ANN_K)
    df["score"] = _round_ha(df["score"], 4)
    return df.sort_values(["query_id", "rank"]).reset_index(drop=True)


def _ann_topk_ivf(sf_dir: str) -> pd.DataFrame:
    """IVF-bucketed approximate variant (scale path; rows-only check —
    approximate by design)."""
    from pipeline.extras.ann import ivf_topk

    ds, queries, qids = _ann_queries(sf_dir)
    df = ivf_topk(ds, queries, qids, k=ANN_K)
    df["score"] = _round_ha(df["score"], 4)
    return df.sort_values(["query_id", "rank"]).reset_index(drop=True)


def _ann_topk_lsh(sf_dir: str) -> pd.DataFrame:
    """Random-hyperplane LSH approximate variant (data-independent scale
    path: no centroid fit, no sample bias; multi-probe bit flips tune
    recall at zero index-build cost; rows-only check — approximate by
    design, recall vs brute force unit-tested)."""
    from pipeline.extras.ann import lsh_topk

    ds, queries, qids = _ann_queries(sf_dir)
    df = lsh_topk(ds, queries, qids, k=ANN_K, nbits=6, nprobe=16)
    df["score"] = _round_ha(df["score"], 4)
    return df.sort_values(["query_id", "rank"]).reset_index(drop=True)


def _multimodal_features(sf_dir: str) -> pd.DataFrame:
    """Multimodal pillar at the driver level: deterministic fake-codec
    media table (binary payload + typed meta struct, cached under /tmp
    like the PII corpus) -> actor-pool decode/feature stage with SMALL
    batches (binary x concurrency sized to worker heaps) -> per-item
    feature rows.  Rows-only driver check (payloads are not a DuckDB
    view); decode stubs are the charter's honestly-marked seam — the
    Ray-side schema/actor/batch plumbing under test is real."""
    import os

    from pipeline.extras.multimodal import media_pipeline, write_media_table

    n = min(2000, max(200, parquet_rows(f"{sf_dir}/documents.parquet")))
    media_dir = f"/tmp/graft_media_{n}"
    if not os.path.isdir(media_dir):
        write_media_table(media_dir + ".tmp", n, n_files=4)
        try:
            os.rename(media_dir + ".tmp", media_dir)
        except OSError:
            pass  # concurrent writer won; content is deterministic
    ds = _read(media_dir)
    out = media_pipeline(ds).select_columns(
        ["item_id", "pixel_mean", "pixel_std", "decode_ok"]
    )
    df = out.to_pandas().sort_values("item_id").reset_index(drop=True)
    df["pixel_mean"] = _round_ha(df["pixel_mean"], 4)
    df["pixel_std"] = _round_ha(df["pixel_std"], 4)
    return df


def _minhash_pairs(sf_dir: str) -> pd.DataFrame:
    from pipeline.extras.dedup import minhash_lsh_pairs
    from pipeline.partition import _to_arrow

    df = _to_arrow(minhash_lsh_pairs(_docs(sf_dir), threshold=0.5)).to_pandas()
    if len(df):
        df["jaccard"] = df["jaccard"].round(4)
        df = df.sort_values(["a", "b"]).reset_index(drop=True)
    return df


def _near_dup_groups(sf_dir: str) -> pd.DataFrame:
    """Pairs -> connected components -> canonical keep-list (the
    actionable end of near-dedup): union-find over the LSH-verified
    minhash pairs, canonical = component-min doc_id.  Driver-side over
    the candidate-bounded pair set (never corpus-sized); rows-only —
    transitive closure is not ANSI-SQL-expressible without recursion."""
    from pipeline.extras.dedup import dup_groups, minhash_lsh_pairs

    pairs = minhash_lsh_pairs(_docs(sf_dir), threshold=0.5)
    out = dup_groups(pairs)
    out["id"] = out["id"].astype("int64")
    out["canonical_id"] = out["canonical_id"].astype("int64")
    return out.sort_values("id").reset_index(drop=True)


def _near_dup_groups_distributed(sf_dir: str) -> pd.DataFrame:
    """Same contract as near_dup_groups through the ABOVE-winners-fit
    path: distributed min-label propagation with pointer doubling
    (dedup.dup_groups_distributed — one bucketed lookup shuffle + one
    groupby-min per round, lineage cut per round), instead of the driver
    union-find.  Both paths are property-tested equal; this query proves
    the distributed path end-to-end on the real LSH pair stream.
    Rows-only (transitive closure is not ANSI-SQL without recursion)."""
    from pipeline.extras.dedup import dup_groups_distributed, minhash_lsh_pairs
    from pipeline.partition import _to_arrow

    pairs = minhash_lsh_pairs(_docs(sf_dir), threshold=0.5)
    out = _to_arrow(dup_groups_distributed(pairs)).to_pandas()
    out["id"] = out["id"].astype("int64")
    out["canonical_id"] = out["canonical_id"].astype("int64")
    return out.sort_values("id").reset_index(drop=True)


def _ngram_jaccard(sf_dir: str) -> pd.DataFrame:
    """Exact all-pairs word-3-gram Jaccard >= 0.5 — the oracle-verifiable
    definition behind minhash_dup_pairs' LSH approximation (same measure,
    no banding loss). Charter dedup family: n-gram Jaccard."""
    from pipeline.extras.dedup import ngram_jaccard_pairs
    from pipeline.partition import _to_arrow

    df = _to_arrow(ngram_jaccard_pairs(
        _docs(sf_dir), threshold=0.5,
        n_docs_hint=parquet_rows(f"{sf_dir}/documents.parquet"),
    )).to_pandas()
    if len(df):
        df["jaccard"] = _round_ha(df["jaccard"], 4)
        df = df.sort_values(["a", "b"]).reset_index(drop=True)
    return df


def _ngram_dup_groups(sf_dir: str) -> pd.DataFrame:
    """Connected components over the EXACT word-3-gram-Jaccard pair
    stream — the oracle-verifiable twin of near_dup_groups_distributed:
    the same distributed CC operator (min-label propagation + frontier
    early-exit, dedup.dup_groups_distributed), but fed by the
    SQL-expressible exact pair definition so the full pipeline
    (pairs -> closure -> keep-list) is mirrored in ANSI SQL via a
    WITH RECURSIVE reachability closure and driver-hash-checked."""
    from pipeline.extras.dedup import dup_groups_distributed, ngram_jaccard_pairs
    from pipeline.partition import _to_arrow

    pairs = ngram_jaccard_pairs(
        _docs(sf_dir), threshold=0.5,
        n_docs_hint=parquet_rows(f"{sf_dir}/documents.parquet"),
    )
    out = _to_arrow(dup_groups_distributed(pairs)).to_pandas()
    out["id"] = out["id"].astype("int64")
    out["canonical_id"] = out["canonical_id"].astype("int64")
    out["keep"] = out["keep"].astype(bool)
    return out.sort_values("id").reset_index(drop=True)


def _simhash_pairs(sf_dir: str) -> pd.DataFrame:
    from pipeline.extras.dedup import simhash_pairs
    from pipeline.partition import _to_arrow

    df = _to_arrow(simhash_pairs(_docs(sf_dir), max_hamming=6)).to_pandas()
    if len(df):
        df = df.sort_values(["a", "b"]).reset_index(drop=True)
    return df


def _embedding_near_dups(sf_dir: str) -> pd.DataFrame:
    import ray.data as rd

    from pipeline.extras.ann import embedding_near_dup_pairs

    # the fixture embeddings are near-uniform on the sphere (max pairwise
    # cosine ~0.51 at sf0.01) — 0.4 exercises the operator end to end
    ds = _read(f"{sf_dir}/embeddings.parquet")
    df = embedding_near_dup_pairs(ds, threshold=0.4)
    if len(df):
        df["cosine"] = df["cosine"].round(4)
        df = df.sort_values(["a", "b"]).reset_index(drop=True)
    return df


def _scrub_documents(sf_dir: str) -> pd.DataFrame:
    """Conformance-profile scrub of the documents table (rows-only: the
    detector semantics have no SQL equivalent)."""
    import functools

    from pipeline.ray_pipeline import scrub_stage

    stage = functools.partial(scrub_stage, column="text", profile="conformance")
    ds = _docs(sf_dir).map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)
    df = _docs_frame(sf_dir, ds, stage, ["doc_id", "n_pii_spans", "content_sha256"])
    return df.sort_values("doc_id").reset_index(drop=True)


def _pii_corpus_dir(sf_dir: str) -> str:
    """Deterministic PII-bearing conformance corpus under /tmp (cached).
    Capped: the evidence (nonzero spans, all-rows sha parity) doesn't
    sharpen past ~2k rows, and row generation (rejection resampling) is
    the dominant cost; use_ray parallelizes it (per-row keyed RNG keeps
    the rows byte-identical to the sequential path)."""
    import os

    from pipeline.synth.corpus import write_conformance_table

    n = min(2000, max(200, parquet_rows(f"{sf_dir}/documents.parquet")))
    corpus_dir = f"/tmp/graft_pii_corpus_{n}"
    if not os.path.isdir(corpus_dir):
        write_conformance_table(corpus_dir + ".tmp", n, n_files=4, use_ray=True)
        try:
            os.rename(corpus_dir + ".tmp", corpus_dir)
        except OSError:
            pass  # concurrent writer won; content is deterministic
    return corpus_dir


def _scrub_pii_corpus(sf_dir: str) -> pd.DataFrame:
    """Recall-side evidence for the scrub operator on PII-BEARING text.

    The driver testdata documents are PII-free, so `scrub_documents` is a
    false-positive-only gate. This query writes a deterministic
    PII-bearing conformance corpus (the generator knows the true spans,
    hence the expected scrubbed sha256 per row) under /tmp, scrubs it
    with the same Ray stage, and returns per-row span counts plus a
    sha_match flag against the generator's expectation. Rows-only driver
    check (the corpus is not a registered DuckDB view); recall is
    evidenced by sum(n_pii_spans) > 0 with sha_match all-true
    (asserted in tests/test_conformance.py as well)."""
    import pyarrow.compute as pc

    from pipeline._util import clean_batch
    from pipeline.ray_pipeline import conformance_pipeline

    corpus_dir = _pii_corpus_dir(sf_dir)

    ds = _read(
        corpus_dir, columns=["doc_id", "text", "expected_sha256"]
    ).map_batches(clean_batch, batch_format="pyarrow", zero_copy_batch=True)
    out = conformance_pipeline(ds).map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"],
            "n_pii_spans": t["n_pii_spans"],
            "sha_match": pc.equal(t["content_sha256"], t["expected_sha256"]),
        }),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _scored_docs(sf_dir: str):
    """Documents through the flagship's fused scorer (langid +
    perplexity on `text`), in the regime the flagship's scoring_stage
    picks from the footers' row count; both models are fit once and
    broadcast once per Ray session (_put_once), as in the flagship."""
    from pipeline.ray_pipeline import scoring_stage

    return scoring_stage(_docs(sf_dir), column="text", batch_size=512,
                         n_rows_hint=parquet_rows(f"{sf_dir}/documents.parquet"))


def _docs_frame(sf_dir: str, ds, stage, cols: list[str]) -> pd.DataFrame:
    """``ds[cols]`` as a frame, ``ds`` being a ``stage`` map over the
    documents. An empty read's blocks carry no columns, so at zero rows
    the frame is ``stage`` run on the documents' typed empty table."""
    df = ds.select_columns(cols).to_pandas()
    if df.empty:
        empty = parquet_schema(f"{sf_dir}/documents.parquet").empty_table()
        df = stage(empty).select(cols).to_pandas()
    return df


def _langid_documents(sf_dir: str) -> pd.DataFrame:
    """Langid + perplexity over documents (rows-only)."""
    from pipeline.ray_pipeline import QualityScorer

    df = _docs_frame(sf_dir, _scored_docs(sf_dir), QualityScorer(column="text"),
                     ["doc_id", "lang_pred", "perplexity"])
    df["perplexity"] = df["perplexity"].round(3)
    return df.sort_values("doc_id").reset_index(drop=True)


def _doc_fingerprints(sf_dir: str) -> pd.DataFrame:
    """Content fingerprint per doc — md5 variant (exact DuckDB md5()
    parity; the rolling-hash fingerprint_stage is the order-sensitive
    variant, unit-tested in test_extras)."""
    from pipeline.extras.textstats import content_md5_stage

    out = _docs(sf_dir).map_batches(
        content_md5_stage, batch_format="pyarrow", zero_copy_batch=True
    ).select_columns(["doc_id", "fingerprint"])
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _dedup_keep_first(sf_dir: str) -> pd.DataFrame:
    """§2.7 scale-safe keep-first dedup: winner-key aggregate + broadcast
    is_in filter — the wide op moves (sha, doc_id) pairs, never text
    [pipeline.partition.keep_first_by]."""
    import hashlib

    from pipeline.partition import keep_first_by

    def add_sha(t: pa.Table) -> pa.Table:
        # hash straight off the utf-8 buffer — no per-row str round-trip
        from pipeline._util import string_buffers

        col = t["text"].combine_chunks()
        off, data = string_buffers(col)
        mv = memoryview(data)
        hs = [
            hashlib.sha256(mv[off[i]: off[i + 1]]).hexdigest()
            for i in range(len(col))
        ]
        return t.append_column("_sha", pa.array(hs, pa.string()))

    f = f"{sf_dir}/documents.parquet"
    ds = _read(f, columns=["doc_id", "text"]).map_batches(
        add_sha, batch_format="pyarrow", zero_copy_batch=True
    )
    # the filter pass tests doc_id membership only: run it on a raw
    # pruned read so the sha map stage is not re-executed (and text
    # never enters the second pass at all)
    kept = keep_first_by(
        ds, group_col="_sha", order_col="doc_id",
        n_rows_hint=parquet_rows(f),
        filter_ds=_read(f, columns=["doc_id", "source", "n_chars"]),
    )
    df = kept.to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def _lineitem_pricing(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-shaped pricing summary: filtered scan -> derived columns
    (vectorized Arrow kernels) -> grouped multi-aggregate."""
    import datetime

    import pyarrow.compute as pc

    cutoff = datetime.datetime(1998, 9, 2)
    ds = _read(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_tax", "l_shipdate",
        ],
    )

    def _scaled(arr, scale: float):
        # floor(x*scale + 0.5) as int64: per-row IEEE ops are identical in
        # numpy and DuckDB, and integer partial sums are order-free — a
        # float Sum aggregate differs from the sequential oracle in the
        # last ulp depending on reduction order (observed at the cent
        # boundary), so money sums go through scaled integers.
        return pc.cast(
            pc.floor(pc.add(pc.multiply(arr, pa.scalar(scale)), pa.scalar(0.5))),
            pa.int64(),
        )

    def derive(t: pa.Table) -> pa.Table:
        # derived columns only; the per-batch combiner sums them, so at
        # most |flag x status| = 6 rows leave each batch. Means decompose
        # to sum + count; float sums keep the double-reduction class a
        # Mean aggregate has.
        t = t.filter(pc.less_equal(t["l_shipdate"], pa.scalar(cutoff)))
        disc = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        charge = pc.multiply(disc, pc.add(pa.scalar(1.0), t["l_tax"]))
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "sum_qty": t["l_quantity"],
                "base_c": _scaled(t["l_extendedprice"], 100.0),
                "disc_c": _scaled(disc, 10_000.0),
                "charge_c": _scaled(charge, 1_000_000.0),
                "disc_sum": t["l_discount"],
            }
        )

    df = _group_sums(
        ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True),
        ["l_returnflag", "l_linestatus"],
        ["sum_qty", "base_c", "disc_c", "charge_c", "disc_sum"], count="count_order",
    )
    df["avg_qty"] = df["sum_qty"] / df["count_order"]
    df["avg_disc"] = df.pop("disc_sum") / df["count_order"]
    # no final round: int/scale is one IEEE division, bit-identical to the
    # oracle; round(2) would re-introduce a half-boundary rule mismatch
    # (pandas half-even vs DuckDB half-away — observed at .965)
    df["sum_qty"] = _round_ha(df["sum_qty"], 2)
    df["sum_base_price"] = df.pop("base_c") / 100.0
    df["sum_disc_price"] = df.pop("disc_c") / 10_000.0
    df["sum_charge"] = df.pop("charge_c") / 1_000_000.0
    for c in ("avg_qty", "avg_disc"):
        df[c] = _round_ha(df[c], 4)
    return df[["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
               "sum_disc_price", "sum_charge", "avg_qty", "avg_disc", "count_order"]]


def _embedding_pairs_exact(sf_dir: str) -> pd.DataFrame:
    """Exact all-pairs cosine >= 0.4 (verifiable baseline for the
    bucketed near-dup scale path)."""
    import ray.data as rd

    from pipeline.extras.ann import exact_cosine_pairs

    ds = _read(f"{sf_dir}/embeddings.parquet")
    df = exact_cosine_pairs(ds, threshold=0.4)
    df["cosine"] = _round_ha(df["cosine"], 4)
    return df


def _orders_topn_per_cust(sf_dir: str) -> pd.DataFrame:
    """Window rank: top-3 orders by price per customer (SQL:
    row_number() OVER (PARTITION BY ...)) — two-phase topn_per_key:
    per-batch vectorized trim to <=3 rows/(cust, batch), then a small
    final reduce. No full-table shuffle; the exchange only ever moves
    trimmed candidates."""
    from pipeline.partition import topn_per_key

    f = f"{sf_dir}/orders.parquet"
    ds = _read(f, columns=["o_orderkey", "o_custkey", "o_totalprice"])
    out = topn_per_key(
        ds, key="o_custkey",
        order_by=["o_totalprice", "o_orderkey"], ascending=[False, True],
        n=3, rank_col="rnk",
    )
    df = out.to_pandas()
    df["o_totalprice"] = _round_ha(df["o_totalprice"], 2)
    return df.sort_values(["o_custkey", "rnk"]).reset_index(drop=True)


def _events_sliding_mean(sf_dir: str) -> pd.DataFrame:
    """Sliding window over an ordered per-key stream: mean of the current
    + 2 preceding events' value per user (rows-preceding frame) — one
    cython groupby.rolling pass per key bucket (per_key_ordered)."""
    import ray.data as rd

    ds = _read(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        r = (
            g.groupby("user_id", sort=False)["value"]
            .rolling(3, min_periods=1).mean()
        )
        g = g.assign(sliding_mean=_round_ha(r.droplevel(0), 3))
        return g[["event_id", "sliding_mean"]]

    from pipeline.partition import per_key_ordered

    out = per_key_ordered(
        ds, key="user_id", order_by=["ts", "event_id"], fn=roll)
    return out.to_pandas().sort_values("event_id").reset_index(drop=True)


def _customers_no_orders(sf_dir: str) -> pd.DataFrame:
    """Anti-join: customers with no order above $400k (every customer has
    SOME order in this data, so the bare anti-join is empty). The matching
    order-customer key set is filtered + aggregated distinct (keys-only
    wide op) and broadcast as a vectorized is_in filter — the anti-join
    never shuffles the big side."""
    import pyarrow.compute as pc
    import ray as _ray
    import ray.data as rd

    cust = _read(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    okey_parts = (
        _read(
            f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
        )
        .filter(expr="o_totalprice > 400000")
        .map_batches(
            # per-batch distinct combiner: only batch-unique keys leave
            # the task, and the driver union replaces a sorted groupby
            # shuffle (the matching key set must fit the driver anyway —
            # it IS the broadcast side)
            lambda t: pa.table({"o_custkey": pc.unique(t["o_custkey"])}),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        .to_pandas()["o_custkey"].to_numpy()
    )
    ref = _ray.put(pa.array(np.unique(okey_parts)))

    def anti(batch: pa.Table) -> pa.Table:
        have = _ray.get(ref)
        return batch.filter(
            pc.invert(pc.is_in(batch["c_custkey"], value_set=have))
        )

    out = cust.map_batches(anti, batch_format="pyarrow", zero_copy_batch=True)
    df = out.to_pandas()
    if df.empty:
        return pd.DataFrame(columns=["c_custkey", "c_name"])
    return df.sort_values("c_custkey").reset_index(drop=True)


def _customers_urgent_semi(sf_dir: str) -> pd.DataFrame:
    """Semi-join (§2.4 family): customers with at least one 1-URGENT
    order [pipeline.partition.semi_join — per-batch distinct-key
    combiner, broadcast pc.is_in below 2M distinct keys / hash join
    against the deduplicated key set above; the customer side never
    shuffles in the broadcast regime]."""
    from pipeline.partition import semi_join

    cust = _read(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    urgent = _read(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderpriority"]
    ).filter(expr="o_orderpriority == '1-URGENT'").select_columns(
        ["o_custkey"]
    )
    out = semi_join(
        cust, urgent, on="c_custkey", right_on="o_custkey",
        n_rows_hint=parquet_rows(f"{sf_dir}/orders.parquet"),
    )
    return out.to_pandas().sort_values("c_custkey").reset_index(drop=True)


def _orders_rollup(sf_dir: str) -> pd.DataFrame:
    """Hierarchical ROLLUP aggregate: order count + revenue at three
    levels — (status, priority) leaves, per-status subtotals, grand
    total.  ONE distributed pass: per-batch Arrow combiner (scaled-cent
    int sums, <= |status|x|priority| rows leave each batch) -> the
    two-key _group_sums reduce; the subtotal levels re-aggregate
    DRIVER-SIDE from the dimension-sized leaf table (~15 rows at any
    corpus scale — the rollup never re-reads the fact table, unlike a
    naive one-groupby-per-level plan).  'ALL' marks rolled-up levels in both
    engines; money sums via scaled ints + one IEEE division
    (bit-portable, see supplier_revenue)."""
    import pyarrow.compute as pc

    ds = _read(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority", "o_totalprice"],
    )

    def cents(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderstatus": t["o_orderstatus"],
            "o_orderpriority": t["o_orderpriority"],
            "cents": pc.cast(
                pc.floor(pc.add(pc.multiply(t["o_totalprice"], pa.scalar(100.0)),
                                pa.scalar(0.5))),
                pa.int64(),
            ),
        })

    leaf = _group_sums(
        ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        ["o_orderstatus", "o_orderpriority"], ["cents"], count="n_orders",
    )
    # dropna=False: a (hypothetical) NULL dimension value still rolls
    # into its status subtotal.  NOTE: the 'ALL' sentinel contract
    # assumes non-null dimension columns (true here) — a data NULL
    # would label the leaf None on this side but 'ALL' under the SQL
    # COALESCE, which cannot distinguish data NULL from rollup NULL.
    lv1 = leaf.groupby("o_orderstatus", as_index=False, dropna=False).agg(
        cents=("cents", "sum"), n_orders=("n_orders", "sum")
    )
    lv1["o_orderpriority"] = "ALL"
    lv0 = pd.DataFrame({
        "o_orderstatus": ["ALL"], "o_orderpriority": ["ALL"],
        "cents": [int(leaf["cents"].sum())],
        "n_orders": [int(leaf["n_orders"].sum())],
    })
    out = pd.concat([leaf, lv1, lv0], ignore_index=True)
    out["revenue"] = out.pop("cents").astype("int64") / 100.0
    out["n_orders"] = out["n_orders"].astype("int64")
    return out[
        ["o_orderstatus", "o_orderpriority", "n_orders", "revenue"]
    ].sort_values(
        ["o_orderstatus", "o_orderpriority"]
    ).reset_index(drop=True)


_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def _events_type_pivot(sf_dir: str) -> pd.DataFrame:
    """Pivot (conditional aggregation to wide columns): per-day event
    counts and value sums, one column pair per event type.  ONE
    distributed pass — per-batch Arrow combiner on (day, type) with
    scaled-milli int sums, the two-key _group_sums reduce, then the
    ~|days| x |types| leaf table pivots DRIVER-SIDE (dimension-sized at any
    corpus scale; absent combinations fill 0 to match the SQL CASE
    WHEN ... ELSE 0 sums).  Money-style value sums via scaled ints +
    one IEEE division (bit-portable)."""
    import pyarrow.compute as pc

    ds = _read(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def day_milli(t: pa.Table) -> pa.Table:
        from pipeline._util import epoch_floor_div

        # FLOOR division: matches SQL floor(epoch/86400) for pre-epoch
        # timestamps too
        day = epoch_floor_div(t["ts"], 86_400_000_000)
        vm = pc.cast(
            pc.floor(pc.add(pc.multiply(t["value"], pa.scalar(1000.0)),
                            pa.scalar(0.5))),
            pa.int64(),
        )
        return pa.table({"day": day, "event_type": t["event_type"], "vm": vm})

    # count, not a count of vm: a row with a null value still counts
    leaf = _group_sums(
        ds.map_batches(day_milli, batch_format="pyarrow", zero_copy_batch=True),
        ["day", "event_type"], ["vm"], count="n",
    )
    wide = leaf.pivot(index="day", columns="event_type", values=["n", "vm"])
    out = pd.DataFrame({"day": wide.index.astype("int64")})
    for et in _EVENT_TYPES:
        n = (wide[("n", et)] if ("n", et) in wide.columns
             else pd.Series(0, index=wide.index))
        vm = (wide[("vm", et)] if ("vm", et) in wide.columns
              else pd.Series(0, index=wide.index))
        out[f"n_{et}"] = n.fillna(0).astype("int64").to_numpy()
        out[f"val_{et}"] = (
            vm.fillna(0).astype("int64").to_numpy() / 1000.0
        )
    return out.sort_values("day").reset_index(drop=True)


def _doc_corr_by_source(sf_dir: str) -> pd.DataFrame:
    """Grouped Pearson correlation (n_chars vs whitespace token count)
    from EXACT integer moment sums: the distributed pass moves six
    int64 partials per (batch, source) — n, Sx, Sy, Sxx, Syy, Sxy —
    through _group_sums' per-batch combiner and keyed reduce; the driver
    forms the correlation from arbitrary-precision Python ints (no
    int64 wrap, no float accumulation order) with the SAME IEEE
    operation sequence the SQL mirror uses (HUGEINT products -> one
    DOUBLE cast each -> sqrt -> multiply -> divide), so both engines
    emit bit-identical doubles.  A zero-variance source yields NaN in
    both engines (the SQL 0/0 is NULL -> NaN in the compare frame; the
    covariance is 0 whenever a variance is, by Cauchy-Schwarz)."""
    import pyarrow.compute as pc

    ds = _read(f"{sf_dir}/documents.parquet",
               columns=["source", "text", "n_chars"])

    def moments(t: pa.Table) -> pa.Table:
        x = pc.cast(t["n_chars"], pa.int64())
        y = pc.cast(
            pc.count_substring_regex(
                pc.utf8_trim_whitespace(t["text"]), r"\S+"
            ),
            pa.int64(),
        )
        return pa.table({
            "source": t["source"], "sx": x, "sy": y,
            "sxx": pc.multiply(x, x), "syy": pc.multiply(y, y),
            "sxy": pc.multiply(x, y),
        })

    leaf = _group_sums(
        ds.map_batches(moments, batch_format="pyarrow", zero_copy_batch=True),
        ["source"], ["sx", "sy", "sxx", "syy", "sxy"], count="n",
    )
    import math

    corrs = []
    for row in leaf.itertuples(index=False):  # dimension-sized frame
        n, sx, sy = int(row.n), int(row.sx), int(row.sy)
        sxx, syy, sxy = int(row.sxx), int(row.syy), int(row.sxy)
        num = float(n * sxy - sx * sy)
        den = math.sqrt(float(n * sxx - sx * sx)) * math.sqrt(
            float(n * syy - sy * sy)
        )
        # zero-variance source: num is 0 too (Cauchy-Schwarz), and the
        # SQL 0/0 yields NULL -> NaN in the compare frame; mirror it
        corrs.append(num / den if den != 0.0 else float("nan"))
    return pd.DataFrame({
        "source": leaf["source"],
        "n_docs": leaf["n"],
        "corr_chars_tokens": np.array(corrs, dtype=np.float64),
    })


def _doc_mode_lang_by_source(sf_dir: str) -> pd.DataFrame:
    """Grouped MODE (argmax-per-key): each source's most common language
    with a deterministic tie-break (highest count, then smallest lang) —
    per-(source, lang) counts from _group_sums (the exchange only ever
    moves per-(source, lang) counts, never documents), then topn_per_key's
    own mergesort + groupby.head(1) over that |sources| x |langs| frame
    on the driver."""
    ds = _read(f"{sf_dir}/documents.parquet", columns=["source", "lang"])
    counts = _group_sums(ds, ["source", "lang"], count="n_docs")
    top = counts.sort_values(["n_docs", "lang"], ascending=[False, True], kind="mergesort")
    top = top.groupby("source", sort=False, dropna=False).head(1)
    return top.sort_values("source").reset_index(drop=True)


def _events_distinct_users(sf_dir: str) -> pd.DataFrame:
    """Grouped distinct count: exact n-distinct users per event_type
    (SQL count(DISTINCT user_id): a null user is no user) — a two-stage
    _keyed_reduce of the same shape as repo_stats. Each batch leaves its
    distinct (event_type, user_id) pairs; bucketed, stage 1 folds them
    per user_id bucket to exact pairs counted per event_type (a pair
    never spans buckets; bucketing on the 5-value event_type would keep
    at most 5 buckets busy), stage 2 sums those counts per event_type."""
    import pyarrow.compute as pc

    from pipeline.partition import _keyed_reduce, _sum_by, _to_arrow

    keys = ["event_type", "user_id"]
    ds = _read(f"{sf_dir}/events.parquet", columns=keys)

    def per_type(t: pa.Table) -> pa.Table:
        pairs = _sum_by(t.select(keys), keys)
        return _sum_by(pa.table({
            "event_type": pairs["event_type"],
            "n_users": pc.cast(pc.is_valid(pairs["user_id"]), pa.int64()),
        }), ["event_type"])

    out = _keyed_reduce(
        ds, lambda t: _sum_by(t.select(keys), keys),
        [("user_id", per_type), ("event_type", lambda t: _sum_by(t, ["event_type"]))],
        finish=lambda t: t.sort_by("event_type"),
    )
    if out is None:  # no rows: per_type's output on none
        return per_type(ds.schema().base_schema.empty_table()).to_pandas()
    return _to_arrow(out).to_pandas()


def _supplier_revenue(sf_dir: str) -> pd.DataFrame:
    """Fact-dimension revenue rollup, aggregate-then-join: _group_sums
    on the int supplier key (<= n_suppliers partial rows leave each
    batch) -> supplier names merged onto the 1000-row result. Joining
    names BEFORE aggregating would drag a 600k-row string-key shuffle
    (measured 22 s vs ~2 s this way); money sums via scaled ints (see
    lineitem_pricing)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    supp = pq.read_table(  # the dimension side, read on the driver
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).to_pandas().rename(columns={"s_suppkey": "l_suppkey"})
    li = _read(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount"],
    )

    def disc_cents(t: pa.Table) -> pa.Table:
        disc = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        disc_c = pc.cast(
            pc.floor(pc.add(pc.multiply(disc, pa.scalar(10_000.0)), pa.scalar(0.5))),
            pa.int64(),
        )
        return pa.table({"l_suppkey": t["l_suppkey"], "disc_c": disc_c})

    df = _group_sums(
        li.map_batches(disc_cents, batch_format="pyarrow", zero_copy_batch=True),
        ["l_suppkey"], ["disc_c"], count="n_items",
    ).merge(supp, on="l_suppkey")
    df["revenue"] = df.pop("disc_c") / 10_000.0
    return df[["s_name", "n_items", "revenue"]].sort_values(
        "s_name"
    ).reset_index(drop=True)


def _events_clicks_asof(sf_dir: str) -> pd.DataFrame:
    """As-of join: for each click, the latest same-user purchase at or
    before the click [pipeline.partition.asof_join — tagged union, one
    co-partitioning shuffle, per-group merge_asof]."""
    import ray.data as rd

    ev = _read(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )
    from pipeline.partition import asof_join

    clicks = ev.filter(expr="event_type == 'click'").select_columns(
        ["event_id", "user_id", "ts"]
    )
    purchases = ev.filter(expr="event_type == 'purchase'").select_columns(
        ["user_id", "ts", "value"]
    )
    out = asof_join(clicks, purchases, on="ts", by="user_id", right_cols=["value"])
    df = out.to_pandas()
    df["purchase_value"] = _round_ha(df.pop("value_r").astype("float64"), 3)
    return df[["event_id", "purchase_value"]].sort_values(
        "event_id"
    ).reset_index(drop=True)


_PRICE_BANDS = [(0, 0.0, 100_000.0), (1, 100_000.0, 250_000.0),
                (2, 250_000.0, 400_000.0), (3, 400_000.0, 1_000_000.0)]


def _orders_price_band(sf_dir: str) -> pd.DataFrame:
    """Range (non-equi) join: orders banded by [lo, hi) price intervals
    via pipeline.partition.broadcast_range_join (intervals broadcast,
    vectorized searchsorted — the big side never shuffles), then a
    grouped rollup with scaled-int money sums."""
    import pyarrow.compute as pc

    from pipeline.partition import broadcast_range_join

    from pipeline._util import clean_batch

    bands = pd.DataFrame(_PRICE_BANDS, columns=["band_id", "lo", "hi"])
    orders = _read(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    ).map_batches(clean_batch, batch_format="pyarrow", zero_copy_batch=True)
    joined = broadcast_range_join(orders, bands, "o_totalprice")

    def scale(t: pa.Table) -> pa.Table:
        c = pc.cast(
            pc.floor(pc.add(pc.multiply(t["o_totalprice"], pa.scalar(100.0)),
                            pa.scalar(0.5))),
            pa.int64(),
        )
        return pa.table({"band_id": t["band_id"], "price_c": c})

    df = _group_sums(
        joined.map_batches(scale, batch_format="pyarrow", zero_copy_batch=True),
        ["band_id"], ["price_c"], count="n_orders",
    )
    df["total_price"] = df.pop("price_c") / 100.0
    return df


def _corpus_term_freq(sf_dir: str) -> pd.DataFrame:
    """Corpus vocabulary table (top-50 terms by occurrence, doc freq
    alongside): per-batch (term, n_occ, n_docs) combiner -> vocabulary-
    sized keyed reduce -> sort+limit.  The token stream never shuffles."""
    from pipeline.extras.corpusstats import term_freq

    out = term_freq(_docs(sf_dir), top_k=50).to_pandas()
    out["n_occ"] = out["n_occ"].astype("int64")
    out["n_docs"] = out["n_docs"].astype("int64")
    return out.reset_index(drop=True)


def _corpus_heavy_hitters(sf_dir: str) -> pd.DataFrame:
    """Two-pass exact heavy hitters: per-batch top-m SpaceSaving summary
    -> merged candidate pool -> broadcast recount of candidates only —
    no vocabulary-sized shuffle ever (the 100-TB path; term_freq is the
    labeled full-vocabulary baseline with the same oracle semantics)."""
    from pipeline.extras.corpusstats import heavy_hitter_terms

    out = heavy_hitter_terms(_docs(sf_dir), top_k=50).to_pandas()
    out["n_occ"] = out["n_occ"].astype("int64")
    return out.reset_index(drop=True)


def _doc_length_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact distributed quantiles over doc length via (value, count)
    histogram merge — only distinct lengths shuffle; rank walk on the
    driver mirrors DuckDB quantile_disc (1-based rank ceil(q*n))."""
    from pipeline.extras.corpusstats import value_counts_quantiles

    qs = [0.25, 0.5, 0.75, 0.9, 0.99]
    vals = value_counts_quantiles(_docs(sf_dir), "n_chars", qs)
    return pd.DataFrame(
        [{f"p{round(q * 100)}": int(v) for q, v in zip(qs, vals)}]
    )


def _doc_length_pctl_cont(sf_dir: str) -> pd.DataFrame:
    """INTERPOLATED (continuous) percentiles over doc length — the
    quantile_cont counterpart of doc_length_quantiles: the same
    distinct-values-only histogram exchange, finished with DuckDB's
    Interpolator expression ((CRN-RN)*v[floor] + (RN-FRN)*v[ceil] over
    IEEE doubles) instead of the discrete rank walk; bit-portable on
    integer columns."""
    from pipeline.extras.corpusstats import value_counts_quantiles_cont

    qs = [0.25, 0.5, 0.75, 0.9, 0.99]
    vals = value_counts_quantiles_cont(
        _read(f"{sf_dir}/documents.parquet", columns=["n_chars"]),
        "n_chars", qs,
    )
    return pd.DataFrame([{
        # empty corpus: quantiles are None -> NaN, like the oracle's
        # NULL row through .df()
        f"p{round(q * 100)}": (float(v) if v is not None else float("nan"))
        for q, v in zip(qs, vals)
    }])


def _doc_pctl_by_source(sf_dir: str) -> pd.DataFrame:
    """PER-GROUP exact quantiles (corpusstats.grouped_quantiles): the
    per-source length p50/p90 — the standard per-source quality-filter
    thresholds — from ONE (source, n_chars) histogram pass (distinct
    pairs shuffle, never rows), per-group rank walk mirroring DuckDB
    quantile_disc."""
    from pipeline.extras.corpusstats import grouped_quantiles

    df = grouped_quantiles(
        _read(f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]),
        key_col="source", val_col="n_chars", qs=[0.5, 0.9],
    )
    for c in ("p50", "p90"):
        # an all-null-value group carries NULL quantiles — DuckDB's .df()
        # then yields float64 NaN, so only cast when fully non-null
        # (mirroring the oracle's dtype in both regimes)
        if df[c].notna().all():
            df[c] = df[c].astype("int64")
    return df.sort_values("source").reset_index(drop=True)


def _doc_pctl_cont_by_source(sf_dir: str) -> pd.DataFrame:
    """PER-GROUP INTERPOLATED quantiles (grouped_quantiles with
    interpolated=True): per-source length p50/p90 via quantile_cont's
    Interpolator expression — the continuous counterpart of
    doc_pctl_by_source, from the same ONE distinct-pairs histogram
    exchange."""
    from pipeline.extras.corpusstats import grouped_quantiles

    df = grouped_quantiles(
        _read(f"{sf_dir}/documents.parquet", columns=["source", "n_chars"]),
        key_col="source", val_col="n_chars", qs=[0.5, 0.9],
        interpolated=True,
    )
    df["p50"] = df["p50"].astype("float64")
    df["p90"] = df["p90"].astype("float64")
    return df.sort_values("source").reset_index(drop=True)


def _doc_ntile_by_source(sf_dir: str) -> pd.DataFrame:
    """NTILE(4) quartile binning per source (SQL window function; the
    standard quality-binning op: tag each doc with its within-source
    length quartile).  Bucketed per_key_ordered shuffle, then the tile
    index is computed VECTORIZED from (cumcount, group size) with SQL
    NTILE's exact fill rule — the first (n mod k) tiles hold
    ceil(n/k) rows — no per-row Python."""
    from pipeline.partition import per_key_ordered

    K = 4

    def ntile(g: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: SQL PARTITION BY treats NULL keys as one
        # partition (default-dropna would NaN their cumcount and the
        # int64 cast below would emit INT64_MIN garbage)
        i = g.groupby("source", dropna=False).cumcount().to_numpy()
        n = g.groupby("source", dropna=False)["doc_id"].transform(
            "size").to_numpy()
        small, cnt_big = n // K, n % K
        big = small + 1
        in_big = i < cnt_big * big
        tile = np.where(
            in_big,
            i // np.maximum(big, 1),
            cnt_big + (i - cnt_big * big) // np.maximum(small, 1),
        ) + 1
        return pd.DataFrame({
            "doc_id": g["doc_id"], "source": g["source"],
            "n_chars": g["n_chars"], "quartile": tile.astype(np.int64),
        })

    ds = _read(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "n_chars"],
    )
    out = per_key_ordered(
        ds, key="source", order_by=["n_chars", "doc_id"], fn=ntile)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _events_distinct_users_hll(sf_dir: str) -> pd.DataFrame:
    """Approximate grouped distinct count (HyperLogLog, p=12, ~1.6% se):
    the 100-TB path when the key set is too large for the exact
    two-stage keyed reduce (events_distinct_users is the labeled exact
    baseline).  Deterministic (splitmix64 hash, no process salt); no SQL
    oracle — approximate by design, accuracy unit-tested vs exact."""
    from pipeline.extras.corpusstats import hll_distinct_by_key

    ds = _read(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])
    out = hll_distinct_by_key(ds, "event_type", "user_id")
    out["n_distinct_est"] = _round_ha(out["n_distinct_est"], 1)
    return out


def _bench_docs(sf_dir: str) -> pd.DataFrame:
    """Deterministic stand-in benchmark set: the 10 longest docs
    (n_chars desc, doc_id tiebreak — same ordering as doc_top10_longest),
    found with a per-batch partial top-10 trim (each block contributes at
    most 10 candidate rows; no global sort barrier)."""

    def trim(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(
            ["n_chars", "doc_id"], ascending=[False, True]
        )
        # strip the pandas metadata from_pandas attaches: dict-valued
        # metadata makes pa.Schema unhashable and defeats Ray's
        # block-schema dedup (same fix as partition._repo_partials)
        return pa.Table.from_pandas(
            df.head(10), preserve_index=False
        ).replace_schema_metadata(None)

    cand = (
        _docs(sf_dir)
        .select_columns(["doc_id", "text", "n_chars"])
        .map_batches(trim, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .reindex(columns=["doc_id", "text", "n_chars"])  # a map over no rows has none
    )
    return (
        cand.sort_values(["n_chars", "doc_id"], ascending=[False, True])
        .head(10)
        .reset_index(drop=True)
    )


def _decontaminate_snippets(sf_dir: str) -> pd.DataFrame:
    """Benchmark decontamination, substring profile: docs containing the
    first 120 chars of any benchmark doc, counted per source.  Map-only —
    the 10-snippet benchmark side is the broadcast side; the corpus
    streams."""
    from pipeline.extras.decontaminate import flag_snippet_contamination

    snippets = [t[:120] for t in _bench_docs(sf_dir)["text"]]
    flagged = flag_snippet_contamination(_docs(sf_dir), snippets).map_batches(
        lambda t: t.filter(t["contaminated"]), batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return _group_sums(flagged, ["source"], count="n_contaminated")


def _decontaminate_ngrams(sf_dir: str) -> pd.DataFrame:
    """Benchmark decontamination, word-8-gram hash overlap (the LLM
    training-set hygiene pass; shares the dedup shingle hasher).  The SQL
    oracle mirrors the hashed shingles with literal 8-gram strings (same
    convention as ngram_jaccard_pairs) — equal modulo vanishing-probability
    61-bit hash collisions; planted-contamination coverage lives in
    tests/test_extras.py."""
    from pipeline.extras.decontaminate import flag_ngram_contamination

    bench = _bench_docs(sf_dir)["text"].tolist()
    flagged = flag_ngram_contamination(_docs(sf_dir), bench, k=8).map_batches(
        lambda t: t.filter(t["contaminated"]), batch_format="pyarrow",
        zero_copy_batch=True,
    )
    df = _group_sums(flagged, ["source"], ["n_bench_hits"], count="n_contaminated")
    return df.rename(columns={"n_bench_hits": "n_hits"})[
        ["source", "n_contaminated", "n_hits"]]


def _doc_line_dedup(sf_dir: str) -> pd.DataFrame:
    """Corpus-level line dedup / boilerplate removal
    (pipeline/extras/paragraphs.py): lines occurring in >= 3 distinct
    docs are stripped from every doc.  The synthetic corpus is
    single-line, so the query first re-chunks each doc into 3-word lines
    with ONE RE2 global replace that DuckDB's regexp_replace reproduces
    bit-for-bit — both engines then split/count/remove the same lines,
    making the whole pass oracle-exact.  Count pass is a per-batch
    (line, doc)-distinct combiner; removal is map-only against the
    broadcast hot set."""
    import pyarrow.compute as pc

    from pipeline.extras.paragraphs import (
        chunk_words_stage, hot_lines, remove_lines,
    )

    def _chunked():
        ds = _read(
            f"{sf_dir}/documents.parquet", columns=["source", "text"]
        )
        return ds.map_batches(
            chunk_words_stage, batch_format="pyarrow", zero_copy_batch=True,
        )

    hot = hot_lines(_chunked(), min_chars=8, min_doc_freq=3)
    cleaned = remove_lines(_chunked(), hot)

    def stats(t: pa.Table) -> pa.Table:
        changed = pc.cast(pc.greater(t["n_lines_removed"], 0), pa.int64())
        return pa.table({
            "source": t["source"],
            "n_lines_removed": t["n_lines_removed"],
            "n_docs_changed": changed,
        })

    return _group_sums(
        cleaned.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True),
        ["source"], ["n_lines_removed", "n_docs_changed"],
    )


def _doc_normalize(sf_dir: str) -> pd.DataFrame:
    """Unicode normalization (pipeline/quality/normalize.py): the corpus
    is clean ASCII, so the query first MANGLES it deterministically
    (doc_id%3 selects decomposed accents / NBSP spaces / tab+edge
    spaces — the same scalar expressions in both engines), then runs the
    NFC + control-strip + space-fold + collapse + trim chain and
    compares md5/length of the result per row.  Map-only; NFC rides an
    ASCII prescreen so only mangled rows pay the per-row normalize."""
    import pyarrow.compute as pc

    from pipeline.extras.textstats import content_md5_stage
    from pipeline.quality.normalize import normalize_stage

    def mangle(t: pa.Table) -> pa.Table:
        text = t["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        r = ids % 3
        v0 = pc.replace_substring(text, "er", "e\u0301r")  # decomposed acute
        v1 = pc.replace_substring(text, " ", "\u00a0")  # NBSP
        v2 = pc.replace_substring_regex(
            pc.replace_substring_regex(text, "^", "\t "), "$", "  "
        )
        chosen = pc.if_else(
            pa.array(r == 0), v0, pc.if_else(pa.array(r == 1), v1, v2)
        )
        return t.set_column(t.column_names.index("text"), "text", chosen)

    def finish(t: pa.Table) -> pa.Table:
        t = content_md5_stage(t, text_col="text", out_col="text_md5")
        n = pc.cast(pc.utf8_length(t["text"]), pa.int64())
        return pa.table({
            "doc_id": t["doc_id"],
            "text_md5": t["text_md5"],
            "n_chars_norm": n,
        })

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = (
        ds.map_batches(mangle, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(normalize_stage, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
    )
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _doc_blocklist(sf_dir: str) -> pd.DataFrame:
    """Toxicity/blocklist gate (stand-in wordlist — see
    pipeline/quality/blocklist.py): per-source flagged-doc count and
    total hits; one RE2 alternation, map-only, identical semantics in
    the DuckDB oracle (both engines embed RE2)."""
    import pyarrow.compute as pc

    from pipeline.quality.blocklist import blocklist_score_stage

    def stage(t: pa.Table) -> pa.Table:
        t = blocklist_score_stage(t)
        flagged = pc.cast(pc.greater(t["n_blocked"], 0), pa.int64())
        return pa.table({
            "source": t["source"],
            "n_flagged": flagged,
            "n_hits": t["n_blocked"],
        })

    ds = _read(f"{sf_dir}/documents.parquet", columns=["source", "text"])
    return _group_sums(
        ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True),
        ["source"], ["n_flagged", "n_hits"],
    )


def _docs_weighted_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic weighted source-mixing sample: even-numbered
    sources keep 50%, odd keep 20%, via the int64-safe golden-ratio
    Weyl hash (SQL-reproducible bit-for-bit — pipeline/extras/mixing.py);
    map-only, integer-domain threshold compare."""
    import pyarrow.compute as pc

    from pipeline.extras.mixing import weighted_sample

    def rate_fn(t: pa.Table) -> np.ndarray:
        n = pc.cast(
            pc.utf8_slice_codeunits(t["source"], 3, 32), pa.int64()
        ).to_numpy(zero_copy_only=False)
        return np.where(n % 2 == 0, 0.5, 0.2)

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    return _group_sums(weighted_sample(ds, id_col="doc_id", rate_fn=rate_fn),
                       ["source"], count="n_sampled")


def _embedding_kmeans(sf_dir: str) -> pd.DataFrame:
    """Distributed spherical k-means (pipeline/extras/clustering.py):
    full-data Lloyd passes with broadcast centroids and O(blocks*k)
    partial rows, then a per-cluster size/cohesion profile.  No SQL
    oracle (iterative model fitting) — rows-only check; planted-cluster
    recovery and partitioning invariance live in tests/test_extras.py."""
    from pipeline.extras.clustering import cluster_profile, kmeans_fit

    ds = _read(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    cent = kmeans_fit(ds, k=8, n_iter=4)
    prof = cluster_profile(ds, cent)
    prof["mean_cosine"] = _round_ha(prof["mean_cosine"], 4)
    return prof.sort_values("cluster_id").reset_index(drop=True)


def _semantic_dedup(sf_dir: str) -> pd.DataFrame:
    """SemDeDup keep-list (pipeline/extras/clustering.py): k-means
    clusters -> within-cluster cosine pairs -> connected-component
    canonicalization.  Threshold 0.4 because the fixture embeddings are
    near-uniform on the sphere (same rationale as embedding_near_dups).
    No SQL oracle (iterative fit + transitive closure) — rows-only;
    planted-group recovery is unit-tested."""
    from pipeline.extras.clustering import semantic_dedup

    ds = _read(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    out = semantic_dedup(ds, threshold=0.4, k=8, n_iter=3)
    return out.sort_values("id").reset_index(drop=True)


def _docs_sample_k(sf_dir: str) -> pd.DataFrame:
    """Exact-size-k deterministic uniform sample (reservoir replacement,
    pipeline/extras/mixing.py): k smallest Weyl-hashed ids win globally;
    per-batch partial top-k, tiny driver merge.  SQL-reproducible
    ordering key, so the oracle is the literal ORDER BY ... LIMIT k."""
    from pipeline.extras.mixing import sample_exact_k

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    out = sample_exact_k(ds, id_col="doc_id", k=100, seed=7)
    return (
        out[["doc_id", "source"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _docs_cap_per_source(sf_dir: str) -> pd.DataFrame:
    """Per-source quota sampling (cap each domain/source at k docs,
    deterministic keep-first-by-id) — the domain-balancing step of web
    corpus curation.  Two-phase topn_per_key: per-batch trim means the
    exchange moves at most k rows per (source, batch), never the corpus."""
    from pipeline.partition import topn_per_key

    path = f"{sf_dir}/documents.parquet"
    ds = _read(path, columns=["doc_id", "source"])
    out = topn_per_key(
        ds, key="source", order_by=["doc_id"], ascending=[True], n=25,
    ).to_pandas()
    return (
        out[["doc_id", "source"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _doc_dev_from_source_mean(sf_dir: str) -> pd.DataFrame:
    """Per-doc deviation from its source's mean length — the join-back
    enrichment pattern (combiner -> tiny per-source frame -> broadcast
    join -> map-only compute; the corpus never shuffles).  mean is ONE
    IEEE division of an exact int sum by an exact count, and the
    deviation one subtraction — both correctly rounded, so DuckDB
    reproduces the doubles bit-for-bit."""
    from pipeline.partition import broadcast_join

    cols = ["doc_id", "source", "n_chars"]
    ds = _read(f"{sf_dir}/documents.parquet", columns=cols)
    per_source = _group_sums(ds, ["source"], ["n_chars"], count="_n")
    per_source["mean_chars"] = (
        per_source["n_chars"].to_numpy().astype(np.float64)
        / per_source["_n"].to_numpy().astype(np.float64)
    )
    # reindex: a join over no rows comes back without columns
    out = broadcast_join(
        ds, per_source[["source", "mean_chars"]], on="source",
    ).to_pandas().reindex(columns=[*cols, "mean_chars"])
    out["dev_chars"] = out["n_chars"].to_numpy().astype(np.float64) - out["mean_chars"].to_numpy()
    return (
        out[["doc_id", "source", "mean_chars", "dev_chars"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _docs_hash_split(sf_dir: str) -> pd.DataFrame:
    """Deterministic 80/10/10 train/val/test corpus split by Weyl hash
    (pipeline/extras/mixing.hash_split — map-only, no shuffle, identical
    across cluster sizes); reported as per-(split, source) counts.  The
    integer interval boundaries are computed once and inlined into the
    oracle, so both engines compare the SAME ints."""
    from pipeline.extras.mixing import hash_split

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    return _group_sums(hash_split(ds, id_col="doc_id"), ["split", "source"], count="n")


def _doc_tfidf_top(sf_dir: str) -> pd.DataFrame:
    """Per-doc top TF-IDF keyword (pipeline/extras/corpusstats.py):
    vocabulary+df to driver once, IDF broadcast, map-only scoring.
    Uses the 'recip' variant — one float64 division of exact int64
    products — because libm ln() is not bit-portable across engines but
    IEEE division is; the oracle computes the identical expression."""
    from pipeline.extras.corpusstats import tfidf_top_terms

    path = f"{sf_dir}/documents.parquet"
    n = parquet_rows(path)
    ds = _read(path, columns=["doc_id", "text"])
    out = tfidf_top_terms(
        ds, top_n=1, variant="recip", n_docs=n
    ).to_pandas()
    return (
        out[["doc_id", "term", "score"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _corpus_bigrams(sf_dir: str) -> pd.DataFrame:
    """Top-50 word bigrams, exact counts (corpusstats.bigram_counts):
    vectorized same-doc adjacent-pair build + per-batch pre-count, so the
    keyed reduce moves batch-bigram-vocabulary rows, not the token stream."""
    from pipeline.extras.corpusstats import bigram_counts

    out = bigram_counts(
        _read(f"{sf_dir}/documents.parquet", columns=["text"]), top_k=50
    )
    return out.to_pandas().reset_index(drop=True)


def _doc_quality_filter(sf_dir: str) -> pd.DataFrame:
    """Adaptive quality filter (the tier's namesake op, data-dependent
    form): keep docs at/above the corpus p25 word count.  Pass 1 finds
    the threshold by histogram-merge exact quantile (distinct values
    shuffle); pass 2 is a stateless scalar-threshold filter map."""
    import pyarrow.compute as pc

    from pipeline.extras.textstats import quantile_threshold_filter

    def words_only(t: pa.Table) -> pa.Table:
        # lean signal stage: just the vectorized word count — quality_stage
        # also computes a per-row stopword loop the filter never reads,
        # and this stage runs in BOTH passes (quantile + filter)
        n = pc.count_substring_regex(
            pc.utf8_trim_whitespace(t["text"]), r"\S+"
        )
        return pa.table(
            {"doc_id": t["doc_id"], "n_words": pc.cast(n, pa.int64())}
        )

    scored = _docs(sf_dir).map_batches(
        words_only, batch_format="pyarrow", zero_copy_batch=True
    )
    kept, thr = quantile_threshold_filter(scored, col="n_words", q=0.25)
    df = kept.to_pandas().sort_values("doc_id").reset_index(drop=True)
    df["threshold"] = np.int64(thr)
    return df[["doc_id", "n_words", "threshold"]]


def _doc_intra_dedup(sf_dir: str) -> pd.DataFrame:
    """Intra-document repeated-line removal (keep first occurrence,
    preserve order) — map-only, no shuffle (paragraphs.
    dedup_lines_within_doc); the repetition-rewrite cousin of the
    corpus-level doc_line_dedup.  2-word chunking maximizes duplicate
    density on the synthetic word-soup corpus; the rebuilt text is
    hash-compared against DuckDB's window-filtered string_agg rebuild."""
    from pipeline.extras.paragraphs import (
        chunk_words_stage, dedup_lines_within_doc,
    )

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ds = ds.map_batches(
        lambda t: chunk_words_stage(t, words_per_line=2),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    out = dedup_lines_within_doc(ds)
    df = out.select_columns(
        ["doc_id", "text_clean", "n_lines_removed"]
    ).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def _doc_zscore_by_source(sf_dir: str) -> pd.DataFrame:
    """Per-source z-score calibration of doc length
    (corpusstats.groupwise_zscore): exact int64 (n, sum, sumsq) moment
    combiner -> tiny broadcast table -> map-only normalize.  Every
    float op after the exact integer sums is one correctly-rounded IEEE
    op, so the DuckDB oracle reproduces the doubles bit-for-bit."""
    from pipeline.extras.corpusstats import groupwise_zscore

    ds = _read(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "n_chars"],
    )
    out = groupwise_zscore(ds, key_col="source", val_col="n_chars")
    df = out.to_pandas().sort_values("doc_id").reset_index(drop=True)
    return df[["doc_id", "source", "n_chars", "zscore"]]


def _doc_cume_dist_by_source(sf_dir: str) -> pd.DataFrame:
    """Per-source cumulative-distribution rank of doc length
    (corpusstats.groupwise_cume_dist): window-function normalization
    computed WITHOUT a per-key sort — (key, value) histogram combiner ->
    driver cumsum -> broadcast exact-pair lookup + one IEEE division,
    bit-identical to SQL cume_dist()."""
    from pipeline.extras.corpusstats import groupwise_cume_dist

    ds = _read(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "n_chars"],
    )
    out = groupwise_cume_dist(ds, key_col="source", val_col="n_chars")
    df = out.to_pandas().sort_values("doc_id").reset_index(drop=True)
    return df[["doc_id", "source", "n_chars", "cume_dist"]]


def _docs_stratified_sample(sf_dir: str) -> pd.DataFrame:
    """Per-source stratified sample (k docs per source, deterministic):
    the Weyl sample hash as the per-key order + the existing two-phase
    topn_per_key — per-batch trim, tiny reduce.  Oracle: row_number()
    window over the identical integer hash expression."""
    import pyarrow.compute as pc

    from pipeline.extras.mixing import weyl_hash
    from pipeline.partition import topn_per_key

    def add_h(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("_h", pa.array(weyl_hash(ids + 11)))

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    out = topn_per_key(
        ds.map_batches(add_h, batch_format="pyarrow", zero_copy_batch=True),
        key="source", order_by=["_h", "doc_id"], ascending=[True, True],
        n=5,
    ).to_pandas()
    out["rnk"] = out["rnk"].astype("int64")
    return (
        out[["source", "doc_id", "rnk"]]
        .sort_values(["source", "rnk"])
        .reset_index(drop=True)
    )


def _doc_pack_bins(sf_dir: str) -> pd.DataFrame:
    """Greedy sequence packing (budget 512 whitespace tokens) per
    source in doc_id order; per-source bins/docs/tokens/fill report.
    Oracle-checked: first-fit packing is a sequential scan with bin-
    boundary resets, expressed in SQL as a recursive CTE advancing every
    source one row per iteration (all sources recurse in parallel);
    reference-loop equivalence + fill-bound property tests in
    tests/test_extras.py."""
    from pipeline.extras.mixing import pack_bins, pack_summary
    from pipeline.extras.textstats import token_count_stage

    budget = 512
    ds = (
        _read(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "source", "text"],
        )
        .map_batches(token_count_stage, batch_format="pyarrow", zero_copy_batch=True)
        .select_columns(["doc_id", "source", "n_tokens_ws"])
    )
    packed = pack_bins(
        ds, key="source", order_by=["doc_id"],
        token_col="n_tokens_ws", budget=budget,
    ).to_pandas()
    out = pack_summary(packed, key="source", token_col="n_tokens_ws", budget=budget)
    out["n_bins"] = out["n_bins"].astype("int64")
    out["n_docs"] = out["n_docs"].astype("int64")
    out["total_tokens"] = out["total_tokens"].astype("int64")
    out["mean_fill"] = _round_ha(out["mean_fill"], 4)
    return out


def _dedup_incremental(sf_dir: str) -> pd.DataFrame:
    """Incremental (delta) dedup of a new shard against an existing
    corpus (pipeline/extras/incremental.py): Bloom prefilter over a
    ray.put-broadcast bitmap + exact confirm — bit-equal to an
    anti-join, but the existing corpus never reshuffles and only 8-byte
    keys cross the wire (the append-only production shape).  The
    "shard" is derived deterministically from the same table
    (doc_id % 3 == 0; even doc_ids keep their text -> duplicates, odd
    get a ' (rev 2)' suffix -> novel) so the DuckDB LEFT-JOIN oracle
    computes the identical split; the engine result is exact despite
    the approximate prefilter (FPs only grow the confirm set)."""
    import pyarrow.compute as pc

    from pipeline.extras.incremental import novel_against

    existing = _read(f"{sf_dir}/documents.parquet", columns=["text"])

    def mk_shard(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ids % 3 == 0))
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        suffixed = pc.binary_join_element_wise(
            t["text"], pa.scalar(" (rev 2)"), pa.scalar("")
        )
        text = pc.if_else(pa.array(ids % 2 == 0), t["text"], suffixed)
        return pa.table(
            {"doc_id": t["doc_id"], "source": t["source"], "text": text}
        )

    shard = _read(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text"]
    ).map_batches(mk_shard, batch_format="pyarrow", zero_copy_batch=True)

    novel = novel_against(existing, shard).map_batches(
        lambda t: pa.table({
            "source": t["source"],
            "n_novel": pc.cast(t["is_novel"], pa.int64()),
        }),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    df = _group_sums(novel, ["source"], ["n_novel"], count="n_shard")
    df["n_dup"] = df["n_shard"] - df["n_novel"]
    return df[["source", "n_shard", "n_dup", "n_novel"]]


def _doc_repetition(sf_dir: str) -> pd.DataFrame:
    """Gopher-style word-n-gram repetition signals
    (pipeline/extras/repetition.py): top-bigram coverage + duplicated-
    trigram fraction per doc.  Map-only (no shuffle); one lexsort over
    the flat word-hash buffer per batch.  Exact-int products followed by
    ONE IEEE division make the doubles bit-identical to the DuckDB
    window/group oracle — no rounding."""
    from pipeline.extras.repetition import repetition_signals_stage

    ds = _read(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "n_chars"]
    )
    out = ds.map_batches(
        repetition_signals_stage, batch_format="pyarrow", zero_copy_batch=True
    )
    df = out.to_pandas().sort_values("doc_id").reset_index(drop=True)
    return df[["doc_id", "top_bigram_frac", "dup3_frac"]]


def _doc_chunks(sf_dir: str) -> pd.DataFrame:
    """Overlapping word-window chunking (pipeline/extras/chunking.py):
    flat_map-style explode of each doc into 40-word windows at stride
    30.  Map-only; the per-batch loop is over chunk indices (each one a
    vectorized list_slice + binary_join), not rows.  Oracle: the same
    windows via DuckDB list slicing (1-based inclusive == arrow's
    0-based exclusive) over generate_series."""
    from pipeline.extras.chunking import chunk_words_windowed

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(
        chunk_words_windowed, batch_format="pyarrow", zero_copy_batch=True
    )
    df = out.to_pandas().sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    return df[["doc_id", "chunk_idx", "chunk_text", "n_chunk_words"]]


def _corpus_budget_select(sf_dir: str) -> pd.DataFrame:
    """Token-budget corpus selection without a global sort
    (pipeline/extras/selection.py): keep docs by (n_chars DESC, doc_id)
    until 10% of the corpus's whitespace tokens are used — histogram
    prefix-sum finds the boundary score; only the one tie group touches
    the driver.  Bit-equal to the SQL running-sum window formulation."""
    from pipeline.extras.selection import budget_select
    from pipeline.extras.textstats import token_count_stage

    ds = _read(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "n_chars", "text"],
    ).map_batches(
        token_count_stage, batch_format="pyarrow", zero_copy_batch=True
    ).select_columns(["doc_id", "source", "n_chars", "n_tokens_ws"])
    # budget_select replays its input lineage 3x (histogram, boundary,
    # verdict); cache the narrow projection so the replays skip the
    # text read + token regexes (petabyte scale: parquet instead)
    ds = ds.materialize()

    sel = budget_select(
        ds, score_col="n_chars", token_col="n_tokens_ws",
        budget=lambda total: total // 10,
    )
    df = _group_sums(sel, ["source"], ["n_tokens_ws"], count="n_selected")
    return df.rename(columns={"n_tokens_ws": "sel_tokens"})[
        ["source", "n_selected", "sel_tokens"]]


def _doc_ppl_quantiles(sf_dir: str) -> pd.DataFrame:
    """Quantile sketch over a CONTINUOUS model-score column
    (pipeline/extras/sketches.py): perplexity-score the corpus with the
    fused actor-pool scorer, then mergeable equi-weight summaries -> balanced
    tree fold.  Rows-only (model scores have no SQL form); the sketch's
    exact-regime equivalence to quantile_disc and its 2% rank-error
    bound in the approximate regime are pytest-verified
    (tests/test_sketches.py)."""
    from pipeline.extras.sketches import sketch_quantiles

    ds = _scored_docs(sf_dir).select_columns(["perplexity"])
    qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    vals = sketch_quantiles(ds, "perplexity", qs, k=4096)
    return pd.DataFrame({
        "q": np.array(qs, dtype=np.float64),
        "perplexity": _round_ha(np.array(vals, dtype=np.float64), 3),
    })


def _doc_score_quantiles_sketch(sf_dir: str) -> pd.DataFrame:
    """The quantile SKETCH (pipeline/extras/sketches.py) on a
    SQL-expressible continuous column, run in its EXACT regime
    (n_docs <= K=8192 at sf<=0.1, where no compression happens and the
    sketch reproduces DuckDB quantile_disc bit-for-bit) — the
    driver-green counterpart of the rows-only doc_ppl_quantiles (whose
    model-score column has no SQL form).  The score is one IEEE
    division of exact ints (n_chars / (doc_id+1)) so both engines
    compute identical doubles."""
    import pyarrow.compute as pc

    from pipeline.extras.sketches import sketch_quantiles

    ds = _read(f"{sf_dir}/documents.parquet",
               columns=["doc_id", "n_chars"]).map_batches(
        lambda t: pa.table({
            "score": pc.divide(
                pc.cast(t["n_chars"], pa.float64()),
                pc.cast(pc.add(t["doc_id"], 1), pa.float64()),
            ),
        }),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    vals = sketch_quantiles(ds, "score", qs, k=8192)
    return pd.DataFrame({
        "q": np.array(qs, dtype=np.float64),
        "score": np.array(vals, dtype=np.float64),
    })


def _curation_end_to_end(sf_dir: str) -> pd.DataFrame:
    """Composed curation chain — keep-first exact dedup (keys-only
    aggregate) -> adaptive quantile quality floor (histogram threshold)
    -> token-budget selection (no global sort) -> per-source stats —
    verified against ONE full-chain SQL oracle.  Each stage is
    oracle-exact alone; this query proves they stay exact COMPOSED,
    i.e. a user can chain the engine's operators like the reference's
    single-process pipeline and get the same answers.  Dedup groups on
    the vectorized 64-bit content hash (collision caveat as elsewhere);
    the oracle partitions by the text itself."""
    import pyarrow.compute as pc

    from pipeline.extras.incremental import hash_strings64
    from pipeline.extras.selection import budget_select
    from pipeline.extras.textstats import quantile_threshold_filter
    from pipeline.partition import keep_first_by

    path = f"{sf_dir}/documents.parquet"
    n_rows = parquet_rows(path)

    # ws-only token count: the BPE-ish second regex of token_count_stage
    # would be discarded here, so don't pay for it
    def ws_tokens(t: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(
            pc.utf8_trim_whitespace(t["text"]), r"\S+"
        )
        return t.append_column("n_tokens_ws", pc.cast(n, pa.int64()))

    def add_key(t: pa.Table) -> pa.Table:
        col = t["text"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return t.append_column(
            "content_key", pa.array(hash_strings64(col), pa.int64())
        )

    base = _read(
        path, columns=["doc_id", "source", "n_chars", "text"]
    ).map_batches(ws_tokens, batch_format="pyarrow", zero_copy_batch=True)
    keyed = base.map_batches(
        add_key, batch_format="pyarrow", zero_copy_batch=True
    ).select_columns(
        ["doc_id", "source", "n_chars", "n_tokens_ws", "content_key"]
    )
    # filter_ds skips re-running the content hash on the winner-filter
    # pass; n_rows_hint skips the sizing round (same as _dedup_keep_first)
    deduped = keep_first_by(
        keyed, group_col="content_key", order_col="doc_id",
        n_rows_hint=n_rows,
        filter_ds=base.select_columns(
            ["doc_id", "source", "n_chars", "n_tokens_ws"]
        ),
    )
    # the two data-dependent-threshold ops below re-execute their input
    # lineage (2 + 3 passes); cache the NARROW post-dedup projection
    # once so those passes replay 4 int/str columns, not the text read +
    # regex + hash (at petabyte scale: write this projection to parquet
    # instead, per budget_select's docstring)
    slim = deduped.materialize()
    kept, _thr = quantile_threshold_filter(slim, col="n_tokens_ws", q=0.25)
    sel = budget_select(
        kept, score_col="n_chars", token_col="n_tokens_ws",
        budget=lambda total: total // 10,
    )
    df = _group_sums(sel, ["source"], ["n_tokens_ws"], count="n_docs")
    return df.rename(columns={"n_tokens_ws": "n_tokens"})[
        ["source", "n_docs", "n_tokens"]]


def _docs_temperature_sample(sf_dir: str) -> pd.DataFrame:
    """Temperature-based source mixing (alpha=0.5, the T5/mT5 rule:
    sample k_s proportional to sqrt(n_s)) — pipeline/extras/mixing.
    temperature_sample.  sqrt is the one exponent IEEE requires to be
    correctly rounded, so the per-source targets are bit-portable to
    the DuckDB oracle; selection is the deterministic per-source
    bottom-k by Weyl-hashed doc_id (two-phase top-n trim)."""
    from pipeline.extras.mixing import temperature_sample

    ds = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    return temperature_sample(
        ds, key_col="source", id_col="doc_id", n_target=100, seed=23,
    )


def _pii_entity_stats(sf_dir: str) -> pd.DataFrame:
    """Corpus-level per-entity-type PII counts — the A3 entity-count
    analysis at corpus scale (pipeline/ray_pipeline.entity_count_stage):
    trigger-prescreened detection emits per-batch (label, n) combiner
    rows; the keyed reduce moves the 9-entity vocabulary, never text.
    Rows-only (the detector has no SQL form); per-label parity against
    the sequential oracle detector is asserted in
    tests/test_conformance.py."""
    from pipeline.ray_pipeline import entity_count_stage

    counts = _read(_pii_corpus_dir(sf_dir), columns=["text"]).map_batches(
        entity_count_stage, batch_format="pyarrow",
        fn_kwargs={"column": "text", "profile": "conformance"},
        zero_copy_batch=True,
    )
    return _group_sums(counts, ["label"], ["n"]).rename(columns={"n": "n_spans"})


def _doc_robust_z_by_source(sf_dir: str) -> pd.DataFrame:
    """Per-source robust scaling (median/MAD) of doc length
    (corpusstats.groupwise_robust_z) — the heavy-tail-safe member of
    the normalization family beside zscore (mean/sd) and cume_dist
    (rank): one (key, value) histogram pass, median AND MAD both from
    the same driver-side histogram, map-only normalize.  Bit-exact vs
    the DuckDB median()/abs()/division oracle (all half-integer
    arithmetic is exact in float64)."""
    from pipeline.extras.corpusstats import groupwise_robust_z

    ds = _read(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "n_chars"],
    )
    out = groupwise_robust_z(ds, key_col="source", val_col="n_chars")
    df = out.to_pandas().sort_values("doc_id").reset_index(drop=True)
    return df[["doc_id", "source", "n_chars", "robust_z"]]


# name -> (engine fn, DuckDB oracle SQL or None for a rows-only check).
# The driver grades the first 50 entries in this order, so every oracled
# entry comes before every rows-only one (tests/test_oracle_parity.py).
_REGISTRY: dict[str, tuple[Callable[[str], Any], str | None]] = {
    "doc_tfidf_top": (_doc_tfidf_top, """
            WITH w AS (
                SELECT doc_id, unnest(string_split(text, ' ')) AS term
                FROM documents
            ), wf AS (SELECT * FROM w WHERE term <> ''),
            tf AS (
                SELECT doc_id, term, count(*) AS cnt
                FROM wf GROUP BY doc_id, term
            ),
            dl AS (SELECT doc_id, count(*) AS len FROM wf GROUP BY doc_id),
            dfq AS (
                SELECT term, count(DISTINCT doc_id) AS df
                FROM wf GROUP BY term
            ),
            nn AS (SELECT count(*) AS n FROM documents),
            scored AS (
                SELECT t.doc_id, t.term,
                       (t.cnt * (nn.n + 1)) * 1.0
                           / (dl.len * (d.df + 1)) AS score
                FROM tf t JOIN dl USING (doc_id) JOIN dfq d USING (term)
                     CROSS JOIN nn
            )
            SELECT doc_id, term, score FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY doc_id ORDER BY score DESC, term
                ) AS r FROM scored
            ) WHERE r = 1 ORDER BY doc_id
        """),
    "corpus_bigrams": (_corpus_bigrams, """
            WITH t AS (SELECT string_split(text, ' ') AS toks FROM documents),
            p AS (
                SELECT unnest(toks[1:len(toks)-1]) AS w1,
                       unnest(toks[2:len(toks)]) AS w2
                FROM t
            )
            SELECT w1 || ' ' || w2 AS bigram, count(*) AS n_occ
            FROM p WHERE w1 <> '' AND w2 <> ''
            GROUP BY bigram ORDER BY n_occ DESC, bigram LIMIT 50
        """),
    "doc_quality_filter": (_doc_quality_filter, """
            WITH s AS (
                SELECT doc_id,
                       len(regexp_extract_all(text, '\S+')) AS n_words
                FROM documents
            ),
            th AS (SELECT quantile_disc(n_words, 0.25) AS t FROM s)
            SELECT s.doc_id, s.n_words, th.t AS threshold
            FROM s, th WHERE s.n_words >= th.t ORDER BY s.doc_id
        """),
    "doc_intra_dedup": (_doc_intra_dedup, """
            WITH chunked AS (
                SELECT doc_id,
                       regexp_replace(text, '((?:\\S+ ){1}\\S+) ',
                                      '\\1' || chr(10), 'g') AS t
                FROM documents
            ), l AS (
                SELECT doc_id, unnest(string_split(t, chr(10))) AS line,
                       unnest(range(1, len(string_split(t, chr(10)))+1))
                           AS ord
                FROM chunked
            ), f AS (
                SELECT doc_id, line, ord,
                       row_number() OVER (
                           PARTITION BY doc_id, line ORDER BY ord
                       ) AS rn
                FROM l
            )
            SELECT doc_id,
                   string_agg(line, chr(10) ORDER BY ord)
                       FILTER (WHERE rn = 1) AS text_clean,
                   CAST(count(*) FILTER (WHERE rn > 1) AS BIGINT)
                       AS n_lines_removed
            FROM f GROUP BY doc_id ORDER BY doc_id
        """),
    "doc_cume_dist_by_source": (_doc_cume_dist_by_source, """
            SELECT doc_id, source, n_chars,
                   cume_dist() OVER (
                       PARTITION BY source ORDER BY n_chars
                   ) AS cume_dist
            FROM documents ORDER BY doc_id
        """),
    "doc_zscore_by_source": (_doc_zscore_by_source, """
            WITH m AS (
                SELECT source, count(*) AS n,
                       sum(n_chars) AS s, sum(n_chars * n_chars) AS s2
                FROM documents GROUP BY source
            )
            SELECT d.doc_id, d.source, d.n_chars,
                   CASE WHEN sqrt(greatest(
                            m.s2::DOUBLE / m.n
                            - (m.s::DOUBLE / m.n) * (m.s::DOUBLE / m.n),
                            0.0)) > 0
                        THEN (d.n_chars::DOUBLE - m.s::DOUBLE / m.n)
                             / sqrt(greatest(
                                 m.s2::DOUBLE / m.n
                                 - (m.s::DOUBLE / m.n) * (m.s::DOUBLE / m.n),
                                 0.0))
                        ELSE 0.0 END AS zscore
            FROM documents d JOIN m USING (source) ORDER BY d.doc_id
        """),
    "docs_stratified_sample": (_docs_stratified_sample, """
            SELECT source, doc_id, rnk FROM (
                SELECT source, doc_id,
                       row_number() OVER (
                           PARTITION BY source
                           ORDER BY (((doc_id + 11) % 2147483647)
                                     * 1327217884) % 2147483647, doc_id
                       ) AS rnk
                FROM documents
            ) WHERE rnk <= 5 ORDER BY source, rnk
        """),
    "dedup_incremental": (_dedup_incremental, """
            WITH shard AS (
                SELECT doc_id, source,
                       CASE WHEN doc_id % 2 = 0 THEN text
                            ELSE text || ' (rev 2)' END AS text
                FROM documents WHERE doc_id % 3 = 0
            ), existing AS (SELECT DISTINCT text FROM documents)
            SELECT s.source,
                   CAST(count(*) AS BIGINT) AS n_shard,
                   CAST(count(e.text) AS BIGINT) AS n_dup,
                   CAST(count(*) - count(e.text) AS BIGINT) AS n_novel
            FROM shard s LEFT JOIN existing e USING (text)
            GROUP BY s.source ORDER BY s.source
        """),
    "doc_repetition": (_doc_repetition, """
            WITH words AS (
                SELECT doc_id, n_chars,
                       unnest(string_split(text, ' ')) AS w,
                       generate_subscripts(string_split(text, ' '), 1) AS i
                FROM documents
            ), big AS (
                SELECT doc_id, n_chars, w || ' ' || lead(w,1) OVER win AS g
                FROM words WINDOW win AS (PARTITION BY doc_id ORDER BY i)
                QUALIFY lead(w,1) OVER win IS NOT NULL
            ), bcnt AS (
                SELECT doc_id, any_value(n_chars) AS n_chars, g, count(*) AS c
                FROM big GROUP BY doc_id, g
            ), btop AS (
                SELECT doc_id, max(c) AS cmax FROM bcnt GROUP BY doc_id
            ), btop2 AS (
                SELECT b.doc_id, t.cmax, max(length(b.g)) AS glen
                FROM bcnt b JOIN btop t
                  ON b.doc_id = t.doc_id AND b.c = t.cmax
                GROUP BY b.doc_id, t.cmax
            ), tri AS (
                SELECT doc_id,
                       w || ' ' || lead(w,1) OVER win || ' '
                         || lead(w,2) OVER win AS g
                FROM words WINDOW win AS (PARTITION BY doc_id ORDER BY i)
                QUALIFY lead(w,2) OVER win IS NOT NULL
            ), tcnt AS (
                SELECT doc_id, g, count(*) AS c FROM tri GROUP BY doc_id, g
            ), tfrac AS (
                SELECT doc_id,
                       CAST(sum(CASE WHEN c >= 2 THEN c ELSE 0 END) AS DOUBLE)
                           / CAST(sum(c) AS DOUBLE) AS dup3
                FROM tcnt GROUP BY doc_id
            )
            SELECT d.doc_id,
                   COALESCE(CAST(b.cmax * b.glen AS DOUBLE)
                            / CAST(d.n_chars AS DOUBLE), 0.0)
                       AS top_bigram_frac,
                   COALESCE(t.dup3, 0.0) AS dup3_frac
            FROM documents d
            LEFT JOIN btop2 b ON d.doc_id = b.doc_id
            LEFT JOIN tfrac t ON d.doc_id = t.doc_id
            ORDER BY d.doc_id
        """),
    "doc_chunks": (_doc_chunks, """
            WITH w AS (
                SELECT doc_id, string_split(text, ' ') AS ws FROM documents
            ), c AS (
                SELECT doc_id, ws,
                       unnest(generate_series(0, (len(ws) + 29) // 30 - 1)) AS k
                FROM w
            )
            SELECT doc_id, k AS chunk_idx,
                   array_to_string(ws[k*30+1 : k*30+40], ' ') AS chunk_text,
                   CAST(len(ws[k*30+1 : k*30+40]) AS BIGINT) AS n_chunk_words
            FROM c ORDER BY doc_id, k
        """),
    "corpus_budget_select": (_corpus_budget_select, """
            WITH t AS (
                SELECT doc_id, source, n_chars,
                       len(regexp_extract_all(text, '\S+')) AS n_tok
                FROM documents
            ), s AS (
                SELECT *,
                       sum(n_tok) OVER (ORDER BY n_chars DESC, doc_id) AS cum,
                       (SELECT sum(n_tok) FROM t) // 10 AS budget
                FROM t
            )
            SELECT source, CAST(count(*) AS BIGINT) AS n_selected,
                   CAST(sum(n_tok) AS BIGINT) AS sel_tokens
            FROM s WHERE cum <= budget
            GROUP BY source ORDER BY source
        """),
    "docs_hash_split": (_docs_hash_split, """
            WITH h AS (
                SELECT source,
                       ((doc_id % 2147483647) * 1327217884)
                       % 2147483647 AS hv
                FROM documents
            )
            SELECT CASE WHEN hv < 1717986917 THEN 'train'
                        WHEN hv < 1932735282 THEN 'val'
                        ELSE 'test' END AS split,
                   source, CAST(count(*) AS BIGINT) AS n
            FROM h GROUP BY 1, 2 ORDER BY split, source
        """),
    "docs_cap_per_source": (_docs_cap_per_source, """
            SELECT doc_id, source FROM (
                SELECT doc_id, source,
                       row_number() OVER (PARTITION BY source
                                          ORDER BY doc_id) AS rn
                FROM documents
            ) WHERE rn <= 25 ORDER BY doc_id
        """),
    "doc_dev_from_source_mean": (_doc_dev_from_source_mean, """
            WITH m AS (
                SELECT source,
                       CAST(sum(n_chars) AS DOUBLE) / count(*) AS mean_chars
                FROM documents GROUP BY source
            )
            SELECT d.doc_id AS doc_id, d.source AS source,
                   m.mean_chars AS mean_chars,
                   CAST(d.n_chars AS DOUBLE) - m.mean_chars AS dev_chars
            FROM documents d JOIN m USING (source)
            ORDER BY doc_id
        """),
    "doc_score_quantiles_sketch": (_doc_score_quantiles_sketch, """
            WITH s AS (
                SELECT CAST(n_chars AS DOUBLE)
                       / CAST(doc_id + 1 AS DOUBLE) AS score
                FROM documents
            )
            SELECT 0.10::DOUBLE AS q, quantile_disc(score, 0.10) AS score FROM s
            UNION ALL
            SELECT 0.25::DOUBLE, quantile_disc(score, 0.25) FROM s
            UNION ALL
            SELECT 0.50::DOUBLE, quantile_disc(score, 0.50) FROM s
            UNION ALL
            SELECT 0.75::DOUBLE, quantile_disc(score, 0.75) FROM s
            UNION ALL
            SELECT 0.90::DOUBLE, quantile_disc(score, 0.90) FROM s
            UNION ALL
            SELECT 0.99::DOUBLE, quantile_disc(score, 0.99) FROM s
            ORDER BY q
        """),
    "curation_end_to_end": (_curation_end_to_end, """
            WITH dedup AS (
                SELECT doc_id, source, n_chars, text FROM (
                    SELECT *, row_number() OVER (
                        PARTITION BY text ORDER BY doc_id) AS rn
                    FROM documents
                ) WHERE rn = 1
            ), tok AS (
                SELECT doc_id, source, n_chars,
                       len(regexp_extract_all(text, '\S+')) AS n_tok
                FROM dedup
            ), filt AS (
                SELECT * FROM tok
                WHERE n_tok >= (SELECT quantile_disc(n_tok, 0.25) FROM tok)
            ), sel AS (
                SELECT *,
                       sum(n_tok) OVER (ORDER BY n_chars DESC, doc_id) AS cum,
                       (SELECT sum(n_tok) FROM filt) // 10 AS budget
                FROM filt
            )
            SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_tok) AS BIGINT) AS n_tokens
            FROM sel WHERE cum <= budget
            GROUP BY source ORDER BY source
        """),
    "docs_temperature_sample": (_docs_temperature_sample, """
            WITH counts AS (
                SELECT source, count(*) AS n FROM documents GROUP BY source
            ), w AS (
                SELECT source,
                       CAST(floor(sqrt(CAST(n AS DOUBLE)) * 1000000) AS BIGINT)
                           AS w
                FROM counts
            ), k AS (
                SELECT source, (100 * w) // (SELECT sum(w) FROM w) AS k FROM w
            ), r AS (
                SELECT doc_id, source,
                       row_number() OVER (
                           PARTITION BY source
                           ORDER BY (((doc_id + 23) % 2147483647)
                                     * 1327217884) % 2147483647, doc_id
                       ) AS rn
                FROM documents
            )
            SELECT r.doc_id, r.source FROM r JOIN k USING (source)
            WHERE rn <= k ORDER BY r.doc_id
        """),
    "doc_robust_z_by_source": (_doc_robust_z_by_source, """
            WITH med AS (
                SELECT source, median(n_chars) AS med
                FROM documents GROUP BY source
            ), mad AS (
                SELECT d.source, median(abs(d.n_chars - m.med)) AS mad
                FROM documents d JOIN med m USING (source)
                GROUP BY d.source
            )
            SELECT d.doc_id, d.source, d.n_chars,
                   CASE WHEN a.mad = 0 THEN 0.0
                        ELSE (d.n_chars - m.med) / a.mad END AS robust_z
            FROM documents d
            JOIN med m USING (source) JOIN mad a USING (source)
            ORDER BY d.doc_id
        """),
    # ngram_dup_groups: the same exact-Jaccard pair definition as
    # ngram_jaccard_pairs, closed transitively with a WITH RECURSIVE
    # reachability walk (ANSI SQL:1999); canonical = component-min.
    # Closure rows are bounded per component (candidate-pair scale),
    # never corpus scale.
    "ngram_dup_groups": (_ngram_dup_groups, r"""
            WITH RECURSIVE words AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(text, '\s+'),
                                   w -> w <> '') AS ws
                FROM documents
            ), grams AS (
                SELECT doc_id,
                       CASE WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')]
                            ELSE [ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]
                                  FOR i IN generate_series(1, len(ws) - 2)]
                       END AS gs
                FROM words
            ), gset AS (
                SELECT doc_id, unnest(list_distinct(gs)) AS g FROM grams
            ), sizes AS (
                SELECT doc_id, count(*) AS n FROM gset GROUP BY doc_id
            ), inter AS (
                SELECT x.doc_id AS id_a, y.doc_id AS id_b, count(*) AS i
                FROM gset x JOIN gset y
                  ON x.g = y.g AND x.doc_id < y.doc_id
                GROUP BY 1, 2
            ), pairs AS (
                SELECT id_a AS a, id_b AS b
                FROM inter
                JOIN sizes sa ON sa.doc_id = id_a
                JOIN sizes sb ON sb.doc_id = id_b
                WHERE i::DOUBLE / (sa.n + sb.n - i) >= 0.5
            ), edges AS (
                SELECT a, b FROM pairs UNION SELECT b, a FROM pairs
            ), reach(id, r) AS (
                SELECT a, a FROM edges
                UNION
                SELECT reach.id, e.b
                FROM reach JOIN edges e ON e.a = reach.r
            )
            SELECT id, MIN(r) AS canonical_id, (id = MIN(r)) AS keep
            FROM reach GROUP BY id ORDER BY id
        """),
    # Word 8-gram benchmark-overlap over literal gram strings; the
    # engine uses 61-bit hashed shingles (pipeline/extras/dedup.py
    # _shingles) — same sets modulo vanishing-probability hash
    # collisions, so counts match exactly.  The <8-word degenerate
    # gram mirrors ngram_jaccard_pairs' convention.
    "decontaminate_ngrams": (_decontaminate_ngrams, r"""
            WITH bench AS (
                SELECT doc_id, text FROM documents
                ORDER BY n_chars DESC, doc_id ASC LIMIT 10
            ), bwords AS (
                SELECT list_filter(regexp_split_to_array(text, '\s+'),
                                   w -> w <> '') AS ws
                FROM bench
            ), bgrams AS (
                SELECT DISTINCT unnest(
                    CASE WHEN len(ws) < 8 THEN [array_to_string(ws, ' ')]
                         ELSE [array_to_string(ws[i:i+7], ' ')
                               FOR i IN generate_series(1, len(ws) - 7)]
                    END) AS g
                FROM bwords
            ), dwords AS (
                SELECT doc_id, source,
                       list_filter(regexp_split_to_array(text, '\s+'),
                                   w -> w <> '') AS ws
                FROM documents
            ), dgrams AS (
                SELECT doc_id, source, unnest(list_distinct(
                    CASE WHEN len(ws) < 8 THEN [array_to_string(ws, ' ')]
                         ELSE [array_to_string(ws[i:i+7], ' ')
                               FOR i IN generate_series(1, len(ws) - 7)]
                    END)) AS g
                FROM dwords
            ), hits AS (
                SELECT d.doc_id, d.source, count(*) AS n_bench_hits
                FROM dgrams d JOIN bgrams b USING (g)
                GROUP BY d.doc_id, d.source
            )
            SELECT source, count(*) AS n_contaminated,
                   CAST(sum(n_bench_hits) AS BIGINT) AS n_hits
            FROM hits GROUP BY source ORDER BY source
        """),
    "doc_mode_lang_by_source": (_doc_mode_lang_by_source, """
            SELECT source, lang, n_docs FROM (
                SELECT source, lang, CAST(count(*) AS BIGINT) AS n_docs,
                       row_number() OVER (
                           PARTITION BY source
                           ORDER BY count(*) DESC, lang
                       ) AS rnk
                FROM documents GROUP BY source, lang
            ) WHERE rnk = 1 ORDER BY source
        """),
    "orders_customer_full": (_orders_customer_full, """
            SELECT COALESCE(o.o_custkey, c.c_custkey) AS o_custkey,
                   o.o_orderkey,
                   round(o.o_totalprice, 2) AS o_totalprice,
                   c.c_name,
                   round(c.c_acctbal, 2) AS c_acctbal
            FROM (SELECT * FROM orders WHERE o_totalprice > 450000) o
            FULL OUTER JOIN (SELECT * FROM customer WHERE c_acctbal > 9000) c
              ON o.o_custkey = c.c_custkey
            ORDER BY o_custkey, o_orderkey
        """),
    "doc_length_pctl_cont": (_doc_length_pctl_cont, """
            SELECT quantile_cont(n_chars, 0.25) AS p25,
                   quantile_cont(n_chars, 0.50) AS p50,
                   quantile_cont(n_chars, 0.75) AS p75,
                   quantile_cont(n_chars, 0.90) AS p90,
                   quantile_cont(n_chars, 0.99) AS p99
            FROM documents
        """),
    "events_hopping": (_events_hopping, """
            WITH e AS (
                SELECT event_type,
                       CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour,
                       value
                FROM events
            ), x AS (
                SELECT event_type, hour AS win, value FROM e
                UNION ALL
                SELECT event_type, hour - 1 AS win, value FROM e
            )
            SELECT event_type, win, count(*) AS n_events,
                   round(sum(value), 3) AS sum_value
            FROM x GROUP BY event_type, win
        """),
    "events_user_paths": (_events_user_paths, """
            SELECT user_id,
                   string_agg(event_type, '->' ORDER BY ts, event_id) AS path
            FROM events GROUP BY user_id ORDER BY user_id
        """),
    "doc_pctl_by_source": (_doc_pctl_by_source, """
            SELECT source,
                   quantile_disc(n_chars, 0.50) AS p50,
                   quantile_disc(n_chars, 0.90) AS p90
            FROM documents GROUP BY source ORDER BY source
        """),
    "doc_ntile_by_source": (_doc_ntile_by_source, """
            SELECT doc_id, source, n_chars,
                   ntile(4) OVER (
                       PARTITION BY source ORDER BY n_chars, doc_id
                   ) AS quartile
            FROM documents ORDER BY doc_id
        """),
    "doc_pctl_cont_by_source": (_doc_pctl_cont_by_source, """
            SELECT source,
                   quantile_cont(n_chars, 0.50) AS p50,
                   quantile_cont(n_chars, 0.90) AS p90
            FROM documents GROUP BY source ORDER BY source
        """),
    "ann_topk": (_ann_topk, f"""
            WITH q AS (
                SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qv
                FROM embeddings WHERE vec_id < {N_ANN_QUERIES}
            ),
            scored AS (
                SELECT q.query_id, e.vec_id,
                       list_cosine_similarity(q.qv, CAST(e.embedding AS DOUBLE[])) AS raw
                FROM q CROSS JOIN embeddings e
            )
            SELECT query_id, vec_id, round(raw, 4) AS score,
                   CAST(row_number() OVER (PARTITION BY query_id ORDER BY raw DESC, vec_id ASC) AS BIGINT) AS rank
            FROM scored
            QUALIFY rank <= {ANN_K}
            ORDER BY query_id, rank
        """),
    # Word 3-gram Jaccard over literal gram strings; the engine uses
    # 61-bit hashed shingles — equal sets modulo vanishing-probability
    # hash collisions, so values match exactly.
    "ngram_jaccard_pairs": (_ngram_jaccard, r"""
            WITH words AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(text, '\s+'),
                                   w -> w <> '') AS ws
                FROM documents
            ), grams AS (
                SELECT doc_id,
                       CASE WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')]
                            ELSE [ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]
                                  FOR i IN generate_series(1, len(ws) - 2)]
                       END AS gs
                FROM words
            ), gset AS (
                SELECT doc_id, unnest(list_distinct(gs)) AS g FROM grams
            ), sizes AS (
                SELECT doc_id, count(*) AS n FROM gset GROUP BY doc_id
            ), inter AS (
                SELECT x.doc_id AS id_a, y.doc_id AS id_b, count(*) AS i
                FROM gset x JOIN gset y
                  ON x.g = y.g AND x.doc_id < y.doc_id
                GROUP BY 1, 2
            )
            SELECT id_a AS a, id_b AS b,
                   round(i::DOUBLE / (sa.n + sb.n - i), 4) AS jaccard
            FROM inter
            JOIN sizes sa ON sa.doc_id = id_a
            JOIN sizes sb ON sb.doc_id = id_b
            WHERE i::DOUBLE / (sa.n + sb.n - i) >= 0.5
            ORDER BY a, b
        """),
    # The testdata documents corpus is PII-free prose (verified: the
    # conformance detector yields zero spans at every sf). The oracle
    # below is therefore a FALSE-POSITIVE gate on the full scrub
    # operator: if any engine span fires, n_pii_spans and the sha256
    # of the scrubbed text both diverge from the identity and the
    # value-hash goes red. Detector recall on PII-bearing text is
    # evidenced separately by the conformance suite (span F1 + per-row
    # sha parity, tests/test_conformance.py).
    "scrub_documents": (_scrub_documents, """
            SELECT doc_id, CAST(0 AS BIGINT) AS n_pii_spans,
                   sha256(text) AS content_sha256
            FROM documents ORDER BY doc_id
        """),
    "doc_fingerprints": (_doc_fingerprints, """
            SELECT doc_id, md5(text) AS fingerprint
            FROM documents ORDER BY doc_id
        """),
    "dedup_keep_first": (_dedup_keep_first, """
            SELECT d.doc_id, d.source, d.n_chars
            FROM documents d
            JOIN (SELECT min(doc_id) AS doc_id FROM documents GROUP BY text) w
              USING (doc_id)
            ORDER BY d.doc_id
        """),
    "lineitem_pricing": (_lineitem_pricing, """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2) AS sum_qty,
                   sum(CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT)) / 100.0 AS sum_base_price,
                   sum(CAST(floor(l_extendedprice * (1 - l_discount) * 10000.0 + 0.5) AS BIGINT)) / 10000.0 AS sum_disc_price,
                   sum(CAST(floor(l_extendedprice * (1 - l_discount) * (1 + l_tax) * 1000000.0 + 0.5) AS BIGINT)) / 1000000.0 AS sum_charge,
                   round(avg(l_quantity), 4) AS avg_qty,
                   round(avg(l_discount), 4) AS avg_disc,
                   count(*) AS count_order
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02'
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """),
    "embedding_pairs_exact": (_embedding_pairs_exact, """
            WITH n AS (
                SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
            )
            SELECT a.vec_id AS a, b.vec_id AS b,
                   round(list_cosine_similarity(a.v, b.v), 4) AS cosine
            FROM n a JOIN n b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.v, b.v) >= 0.4
            ORDER BY a, b
        """),
    "orders_topn_per_cust": (_orders_topn_per_cust, """
            SELECT o_custkey, o_orderkey, round(o_totalprice, 2) AS o_totalprice,
                   CAST(row_number() OVER (
                       PARTITION BY o_custkey
                       ORDER BY o_totalprice DESC, o_orderkey ASC
                   ) AS BIGINT) AS rnk
            FROM orders
            QUALIFY rnk <= 3
            ORDER BY o_custkey, rnk
        """),
    "events_sliding_mean": (_events_sliding_mean, """
            SELECT event_id,
                   round(avg(value) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN 2 PRECEDING AND CURRENT ROW
                   ), 3) AS sliding_mean
            FROM events ORDER BY event_id
        """),
    "customers_no_orders": (_customers_no_orders, """
            SELECT c_custkey, c_name FROM customer c
            WHERE NOT EXISTS (
                SELECT 1 FROM orders o
                WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 400000
            )
            ORDER BY c_custkey
        """),
    "events_distinct_users": (_events_distinct_users, """
            SELECT event_type,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY event_type ORDER BY event_type
        """),
    "supplier_revenue": (_supplier_revenue, """
            SELECT s.s_name, count(*) AS n_items,
                   sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 10000.0 + 0.5) AS BIGINT)) / 10000.0 AS revenue
            FROM lineitem l JOIN supplier s ON l.l_suppkey = s.s_suppkey
            GROUP BY s.s_name ORDER BY s.s_name
        """),
    "events_clicks_asof": (_events_clicks_asof, """
            SELECT c.event_id, round(p.value, 3) AS purchase_value
            FROM (SELECT * FROM events WHERE event_type = 'click') c
            ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'purchase') p
              ON c.user_id = p.user_id AND c.ts >= p.ts
            ORDER BY c.event_id
        """),
    "orders_price_band": (_orders_price_band, """
            WITH bands(band_id, lo, hi) AS (VALUES
                (0, 0.0, 100000.0), (1, 100000.0, 250000.0),
                (2, 250000.0, 400000.0), (3, 400000.0, 1000000.0))
            SELECT CAST(b.band_id AS BIGINT) AS band_id,
                   count(*) AS n_orders,
                   sum(CAST(floor(o.o_totalprice * 100.0 + 0.5) AS BIGINT)) / 100.0 AS total_price
            FROM orders o
            JOIN bands b ON o.o_totalprice >= b.lo AND o.o_totalprice < b.hi
            GROUP BY b.band_id ORDER BY band_id
        """),
    "corpus_term_freq": (_corpus_term_freq, """
            WITH toks AS (
                SELECT doc_id, unnest(string_split(text, ' ')) AS term
                FROM documents
            )
            SELECT term, count(*) AS n_occ,
                   count(DISTINCT doc_id) AS n_docs
            FROM toks WHERE term <> ''
            GROUP BY term ORDER BY n_occ DESC, term LIMIT 50
        """),
    "corpus_heavy_hitters": (_corpus_heavy_hitters, """
            WITH toks AS (
                SELECT unnest(string_split(text, ' ')) AS term
                FROM documents
            )
            SELECT term, count(*) AS n_occ
            FROM toks WHERE term <> ''
            GROUP BY term ORDER BY n_occ DESC, term LIMIT 50
        """),
    "doc_length_quantiles": (_doc_length_quantiles, """
            SELECT quantile_disc(n_chars, 0.25) AS p25,
                   quantile_disc(n_chars, 0.50) AS p50,
                   quantile_disc(n_chars, 0.75) AS p75,
                   quantile_disc(n_chars, 0.90) AS p90,
                   quantile_disc(n_chars, 0.99) AS p99
            FROM documents
        """),
    "decontaminate_snippets": (_decontaminate_snippets, """
            WITH bench AS (
                SELECT substr(text, 1, 120) AS snip
                FROM documents ORDER BY n_chars DESC, doc_id LIMIT 10
            )
            SELECT d.source, count(*) AS n_contaminated
            FROM documents d
            WHERE EXISTS (
                SELECT 1 FROM bench b WHERE contains(d.text, b.snip)
            )
            GROUP BY d.source ORDER BY d.source
        """),
    "customers_urgent_semi": (_customers_urgent_semi, """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey IN (
                SELECT o_custkey FROM orders
                WHERE o_orderpriority = '1-URGENT'
            )
            ORDER BY c_custkey
        """),
    "orders_rollup": (_orders_rollup, """
            SELECT COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
                   COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   sum(CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT)) / 100.0
                       AS revenue
            FROM orders
            GROUP BY ROLLUP(o_orderstatus, o_orderpriority)
            ORDER BY o_orderstatus, o_orderpriority
        """),
    "events_type_pivot": (_events_type_pivot, """
            SELECT CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day,
                   CAST(sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
                   sum(CASE WHEN event_type = 'click' THEN CAST(floor(value * 1000.0 + 0.5) AS BIGINT) ELSE 0 END) / 1000.0 AS val_click,
                   CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
                   sum(CASE WHEN event_type = 'error' THEN CAST(floor(value * 1000.0 + 0.5) AS BIGINT) ELSE 0 END) / 1000.0 AS val_error,
                   CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
                   sum(CASE WHEN event_type = 'purchase' THEN CAST(floor(value * 1000.0 + 0.5) AS BIGINT) ELSE 0 END) / 1000.0 AS val_purchase,
                   CAST(sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
                   sum(CASE WHEN event_type = 'signup' THEN CAST(floor(value * 1000.0 + 0.5) AS BIGINT) ELSE 0 END) / 1000.0 AS val_signup,
                   CAST(sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS n_view,
                   sum(CASE WHEN event_type = 'view' THEN CAST(floor(value * 1000.0 + 0.5) AS BIGINT) ELSE 0 END) / 1000.0 AS val_view
            FROM events GROUP BY day ORDER BY day
        """),
    "doc_corr_by_source": (_doc_corr_by_source, """
            WITH m AS (
                SELECT source,
                       CAST(count(*) AS HUGEINT) AS n,
                       CAST(sum(CAST(n_chars AS BIGINT)) AS HUGEINT) AS sx,
                       CAST(sum(tok) AS HUGEINT) AS sy,
                       CAST(sum(CAST(n_chars AS BIGINT) * CAST(n_chars AS BIGINT)) AS HUGEINT) AS sxx,
                       CAST(sum(tok * tok) AS HUGEINT) AS syy,
                       CAST(sum(CAST(n_chars AS BIGINT) * tok) AS HUGEINT) AS sxy
                FROM (
                    SELECT source, n_chars,
                           len(regexp_extract_all(text, '\S+')) AS tok
                    FROM documents
                )
                GROUP BY source
            )
            SELECT source, CAST(n AS BIGINT) AS n_docs,
                   CAST(n * sxy - sx * sy AS DOUBLE)
                   / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                      * sqrt(CAST(n * syy - sy * sy AS DOUBLE)))
                       AS corr_chars_tokens
            FROM m ORDER BY source
        """),
    "docs_weighted_sample": (_docs_weighted_sample, """
            SELECT source, count(*) AS n_sampled
            FROM documents
            WHERE ((doc_id % 2147483647) * 1327217884) % 2147483647
                  < CAST(floor(
                        CASE WHEN CAST(substr(source, 4) AS INTEGER) % 2 = 0
                             THEN 0.5 ELSE 0.2 END * 2147483647
                    ) AS BIGINT)
            GROUP BY source ORDER BY source
        """),
    "doc_pack_bins": (_doc_pack_bins, """
            WITH RECURSIVE toks AS (
                SELECT source, doc_id,
                       len(regexp_extract_all(text, '\S+')) AS n_tok
                FROM documents
            ), ordered AS (
                SELECT source, doc_id, n_tok,
                       row_number() OVER (
                           PARTITION BY source ORDER BY doc_id
                       ) AS rn
                FROM toks
            ), rec AS (
                SELECT source, doc_id, rn, n_tok, 0 AS bin_id, n_tok AS run
                FROM ordered WHERE rn = 1
                UNION ALL
                SELECT o.source, o.doc_id, o.rn, o.n_tok,
                       CASE WHEN r.run + o.n_tok > 512
                            THEN r.bin_id + 1 ELSE r.bin_id END,
                       CASE WHEN r.run + o.n_tok > 512
                            THEN o.n_tok ELSE r.run + o.n_tok END
                FROM rec r
                JOIN ordered o ON o.source = r.source AND o.rn = r.rn + 1
            )
            SELECT source,
                   CAST(count(DISTINCT bin_id) AS BIGINT) AS n_bins,
                   count(*) AS n_docs,
                   CAST(sum(n_tok) AS BIGINT) AS total_tokens,
                   round(sum(n_tok) / (count(DISTINCT bin_id) * 512.0), 4)
                       AS mean_fill
            FROM rec GROUP BY source ORDER BY source
        """),
    "doc_blocklist": (_doc_blocklist, """
            WITH h AS (
                SELECT source,
                       length(regexp_extract_all(
                           text, '\\b(?:slow|dup|big)\\b'
                       )) AS n_blocked
                FROM documents
            )
            SELECT source,
                   CAST(sum(CASE WHEN n_blocked > 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_flagged,
                   CAST(sum(n_blocked) AS BIGINT) AS n_hits
            FROM h GROUP BY source ORDER BY source
        """),
    "doc_line_dedup": (_doc_line_dedup, r"""
            WITH chunked AS (
                SELECT doc_id, source,
                       regexp_replace(text, '((?:\S+ ){2}\S+) ',
                                      '\1' || chr(10), 'g') AS t
                FROM documents
            ), lines AS (
                SELECT doc_id, source,
                       unnest(string_split(t, chr(10))) AS line
                FROM chunked
            ), hot AS (
                SELECT line FROM lines WHERE length(line) >= 8
                GROUP BY line HAVING count(DISTINCT doc_id) >= 3
            ), per_doc AS (
                SELECT l.doc_id, l.source,
                       count(*) FILTER (WHERE h.line IS NOT NULL) AS n_rm
                FROM lines l LEFT JOIN hot h USING (line)
                GROUP BY l.doc_id, l.source
            )
            SELECT source,
                   CAST(sum(n_rm) AS BIGINT) AS n_lines_removed,
                   CAST(sum(CASE WHEN n_rm > 0 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_docs_changed
            FROM per_doc GROUP BY source ORDER BY source
        """),
    # the mangle CASE mirrors _doc_normalize's mangle stage; the
    # normalization expression is the engine stage's own
    # normalize_sql_expr, so the two can't drift
    "doc_normalize": (_doc_normalize, f"""
        WITH mangled AS (
            SELECT doc_id,
                   CASE CAST(doc_id % 3 AS INTEGER)
                     WHEN 0 THEN replace(text, 'er', 'e' || chr(769) || 'r')
                     WHEN 1 THEN replace(text, ' ', chr(160))
                     ELSE chr(9) || ' ' || text || '  '
                   END AS t
            FROM documents
        ), normed AS (
            SELECT doc_id, {normalize_sql_expr('t')} AS n FROM mangled
        )
        SELECT doc_id, md5(n) AS text_md5,
               CAST(length(n) AS BIGINT) AS n_chars_norm
        FROM normed ORDER BY doc_id
    """),
    "docs_sample_k": (_docs_sample_k, """
            SELECT doc_id, source FROM (
                SELECT doc_id, source FROM documents
                ORDER BY (((doc_id + 7) % 2147483647) * 1327217884)
                         % 2147483647, doc_id
                LIMIT 100
            ) ORDER BY doc_id
        """),
    "doc_length_stats": (_doc_length_stats, """
            SELECT count(*) AS n_docs,
                   round(avg(n_chars), 3) AS mean_chars,
                   min(n_chars) AS min_chars,
                   max(n_chars) AS max_chars,
                   round(stddev_samp(n_chars), 3) AS std_chars
            FROM documents
        """),
    "doc_minlen_filter": (_doc_minlen_filter, """
            SELECT count(*) AS n_docs FROM documents WHERE length(text) >= 10
        """),
    "doc_lang_filter": (_doc_lang_filter, """
            SELECT lang, count(*) AS n_docs FROM documents
            WHERE lang = 'en' GROUP BY lang
        """),
    "doc_token_counts": (_doc_token_counts, """
            SELECT source,
                   CAST(sum(len(regexp_extract_all(text, '\S+'))) AS BIGINT) AS n_tokens
            FROM documents GROUP BY source ORDER BY source
        """),
    "doc_top10_longest": (_doc_top10_longest, """
            SELECT doc_id, n_chars FROM documents
            ORDER BY n_chars DESC, doc_id ASC LIMIT 10
        """),
    "doc_alnum_ratio": (_doc_alnum_ratio, """
            SELECT source,
                   round(avg(CASE WHEN length(text) = 0 THEN 0.0
                             ELSE length(regexp_replace(text, '[^A-Za-z0-9]', '', 'g')) * 1.0 / length(text) END), 4)
                   AS avg_alnum
            FROM documents GROUP BY source
        """),
    "doc_len_histogram": (_doc_len_histogram, """
            SELECT CAST(floor(n_chars / 100) AS BIGINT) AS bucket,
                   count(*) AS n_docs
            FROM documents GROUP BY bucket ORDER BY bucket
        """),
    "doc_source_counts": (_doc_source_counts, """
            SELECT source, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY source ORDER BY source
        """),
    "doc_quality": (_doc_quality, """
            SELECT doc_id,
                   len(regexp_extract_all(text, '\S+')) AS n_words,
                   round(CASE WHEN length(text) = 0 THEN 0.0
                         ELSE length(regexp_replace(text, '[\\w\\s]', '', 'g')) * 1.0 / length(text) END, 4)
                   AS punct_ratio
            FROM documents ORDER BY doc_id
        """),
    "orders_by_nation": (_orders_by_nation, """
            SELECT n.n_name AS n_name, count(*) AS n_orders,
                   round(sum(o.o_totalprice), 2) AS total_price
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name ORDER BY n_name
        """),
    "dedup_exact": (_dedup_exact, """
            SELECT min(doc_id) AS doc_id, count(*) AS n_copies
            FROM documents GROUP BY text ORDER BY doc_id
        """),
    "events_hourly": (_events_hourly, """
            SELECT event_type,
                   CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour_bucket,
                   count(*) AS n_events,
                   round(sum(value), 3) AS sum_value
            FROM events GROUP BY event_type, hour_bucket
        """),
    "events_user_sessions": (_events_user_sessions, """
            WITH gaps AS (
                SELECT user_id,
                       CASE WHEN epoch(ts) - lag(epoch(ts)) OVER (PARTITION BY user_id ORDER BY ts) > 1800
                            THEN 1 ELSE 0 END AS new_sess
                FROM events
            )
            SELECT user_id, CAST(sum(new_sess) + 1 AS BIGINT) AS n_sessions
            FROM gaps GROUP BY user_id ORDER BY user_id
        """),
    "events_lag": (_events_lag, """
            SELECT event_id,
                   round(lag(value) OVER (PARTITION BY user_id ORDER BY ts, event_id), 3) AS prev_value
            FROM events ORDER BY event_id
        """),
    "orders_customer_join": (_orders_customer_join, """
            SELECT o.o_orderkey, c.c_name, round(o.o_totalprice, 2) AS o_totalprice
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            ORDER BY o.o_orderkey
        """),
    "ann_topk_ivf": (_ann_topk_ivf, None),
    "minhash_dup_pairs": (_minhash_pairs, None),
    "near_dup_groups": (_near_dup_groups, None),
    "near_dup_groups_distributed": (_near_dup_groups_distributed, None),
    "simhash_dup_pairs": (_simhash_pairs, None),
    "embedding_near_dups": (_embedding_near_dups, None),
    "scrub_pii_corpus": (_scrub_pii_corpus, None),
    "langid_documents": (_langid_documents, None),
    "events_distinct_users_hll": (_events_distinct_users_hll, None),
    "embedding_kmeans": (_embedding_kmeans, None),
    "semantic_dedup": (_semantic_dedup, None),
    "ann_topk_lsh": (_ann_topk_lsh, None),
    "multimodal_features": (_multimodal_features, None),
    "doc_ppl_quantiles": (_doc_ppl_quantiles, None),
    "pii_entity_stats": (_pii_entity_stats, None),
}


def queries() -> dict[str, Callable[[str], Any]]:
    return {name: fn for name, (fn, _) in _REGISTRY.items()}


def oracle_sql() -> dict[str, str]:
    return {name: sql for name, (_, sql) in _REGISTRY.items() if sql is not None}
