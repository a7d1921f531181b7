"""Null-input parity for the r5 aggregate queries (orders_rollup,
events_type_pivot, doc_corr_by_source): the frozen driver fixture has no
nulls and no zero-variance groups, so these pin the count_all / NaN
semantics against DuckDB on synthetic tables that do."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from pandas.testing import assert_frame_equal


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(sorted(df.columns), kind="mergesort").reset_index(
        drop=True
    )


def test_orders_rollup_counts_null_measure_rows(ray_session, tmp_path):
    import __ray_entry__ as em

    rng = np.random.default_rng(3)
    n = 500
    price = rng.uniform(10.0, 1000.0, n)
    df = pd.DataFrame({
        "o_orderkey": np.arange(n),
        "o_custkey": rng.integers(0, 50, n),
        "o_orderstatus": rng.choice(["O", "F", "P"], n),
        "o_totalprice": np.where(np.arange(n) % 7 == 0, np.nan, price),
        "o_orderdate": pd.Timestamp("2024-01-01"),
        "o_orderpriority": rng.choice(["1-URGENT", "5-LOW"], n),
    })
    pq.write_table(pa.Table.from_pandas(df), str(tmp_path / "orders.parquet"))

    got = em._orders_rollup(str(tmp_path))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW orders AS SELECT * FROM "
        f"read_parquet('{tmp_path}/orders.parquet')"
    )
    want = con.execute(em.oracle_sql()["orders_rollup"]).df()
    # SQL count(*) counts the null-price rows; the grand total must be n
    assert int(want.loc[
        (want.o_orderstatus == "ALL") & (want.o_orderpriority == "ALL"),
        "n_orders",
    ].iloc[0]) == n
    assert_frame_equal(_norm(got), _norm(want), check_exact=True)


def test_events_type_pivot_counts_null_value_rows(ray_session, tmp_path):
    import __ray_entry__ as em

    rng = np.random.default_rng(4)
    n = 400
    val = rng.uniform(0.0, 50.0, n)
    df = pd.DataFrame({
        "event_id": np.arange(n),
        "ts": pd.Timestamp("2024-02-01")
        + pd.to_timedelta(rng.integers(0, 5 * 86400, n), unit="s"),
        "user_id": rng.integers(0, 40, n),
        "event_type": rng.choice(
            ["click", "error", "purchase", "signup", "view"], n
        ),
        "value": np.where(np.arange(n) % 5 == 0, np.nan, val),
        "props": "{}",
    })
    pq.write_table(pa.Table.from_pandas(df), str(tmp_path / "events.parquet"))

    got = em._events_type_pivot(str(tmp_path))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{tmp_path}/events.parquet')"
    )
    want = con.execute(em.oracle_sql()["events_type_pivot"]).df()
    count_cols = [c for c in want.columns if c.startswith("n_")]
    assert int(want[count_cols].to_numpy().sum()) == n  # null values count
    assert_frame_equal(_norm(got), _norm(want), check_exact=True)


def test_doc_corr_zero_variance_source_yields_nan(ray_session, tmp_path):
    import __ray_entry__ as em

    # src_const: single doc (n=1 -> zero variance); src_flat: identical
    # docs (zero variance in both columns); src_var: real spread
    rows = [
        ("src_const", "one two three", 13),
        ("src_flat", "a a", 3), ("src_flat", "a a", 3),
        ("src_var", "alpha beta", 10), ("src_var", "g", 1),
        ("src_var", "x y z w", 7),
    ]
    df = pd.DataFrame(rows, columns=["source", "text", "n_chars"])
    df.insert(0, "doc_id", np.arange(len(df)))
    df["lang"] = "en"
    pq.write_table(
        pa.Table.from_pandas(df), str(tmp_path / "documents.parquet")
    )

    got = em._doc_corr_by_source(str(tmp_path))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    want = con.execute(em.oracle_sql()["doc_corr_by_source"]).df()
    assert np.isnan(
        got.set_index("source").loc["src_const", "corr_chars_tokens"]
    )
    assert np.isnan(
        got.set_index("source").loc["src_flat", "corr_chars_tokens"]
    )
    assert_frame_equal(_norm(got), _norm(want), check_exact=True)


def test_full_outer_join_matches_duckdb(ray_session):
    """full_outer_join vs DuckDB FULL OUTER JOIN: duplicate right keys
    (fan-out), unmatched rows on both sides, null keys on both sides
    (SQL: nulls never match; a null-key right row survives as
    right-only), and the COALESCEd key contract."""
    import ray

    from pipeline.partition import full_outer_join

    left = pd.DataFrame({
        "k": pd.array([1, 1, 2, 3, 5, 5, None, 7], dtype="Int64"),
        "lv": np.arange(8, dtype=np.int64),
    })
    small = pd.DataFrame({
        "rk": pd.array([1, 1, 2, 4, None], dtype="Int64"),
        "name": ["a1", "a2", "b", "d", "nul"],
    })
    ds = ray.data.from_arrow(
        pa.Table.from_pandas(left, preserve_index=False)
    ).repartition(3)
    got = full_outer_join(ds, small, on="k", right_on="rk").to_pandas()

    con = duckdb.connect()
    con.register("l", left)
    con.register("s", small)
    want = con.execute("""
        SELECT COALESCE(l.k, s.rk) AS k, l.lv, s.name
        FROM l FULL OUTER JOIN s ON l.k = s.rk
    """).df()
    assert_frame_equal(
        _norm(got), _norm(want), check_dtype=False, check_exact=True
    )


def test_full_outer_join_string_keys_and_empty_sides(ray_session):
    import ray

    from pipeline.partition import full_outer_join

    left = pd.DataFrame({"k": ["a", "b", "b"], "lv": [1, 2, 3]})
    small = pd.DataFrame({"k": ["b", "z"], "name": ["B", "Z"]})
    ds = ray.data.from_pandas(left)
    got = full_outer_join(ds, small, on="k").to_pandas()
    got = got.sort_values(["k", "lv"]).reset_index(drop=True)
    assert list(got["k"]) == ["a", "b", "b", "z"]
    assert got["name"].tolist()[0] is None or pd.isna(got["name"].iloc[0])
    assert got.loc[3, "name"] == "Z" and pd.isna(got.loc[3, "lv"])

    # empty right side: degenerate to the left rows, null-padded names
    got2 = full_outer_join(ds, small.iloc[:0], on="k").to_pandas()
    assert len(got2) == 3 and got2["name"].isna().all()

    # fully-matched right side: no null-padded remainder appended
    got3 = full_outer_join(
        ds, pd.DataFrame({"k": ["a"], "name": ["A"]}), on="k"
    ).to_pandas()
    assert len(got3) == 3


def test_full_outer_join_object_column_types(ray_session):
    """A pandas object column on the streamed side is typed from its
    first non-null values, not assumed to be a string: a bytes payload
    raises TypeError naming the column, while the same bytes as an
    Arrow binary column (either side) join exactly. A string column
    whose first block holds no value still types as string."""
    import ray

    from pipeline.partition import full_outer_join

    small = pd.DataFrame({"k": [2, 9], "name": ["b", "z"]})
    blobs = [b"\x00x", b"y\xff"]
    left = pd.DataFrame({"k": [1, 2], "blob": blobs})
    with pytest.raises(TypeError, match="'blob'"):
        full_outer_join(ray.data.from_pandas(left), small, on="k")

    want = [(1, b"\x00x", None), (2, b"y\xff", "b"), (9, None, "z")]
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2], pa.int64()),
        "blob": pa.array(blobs, pa.binary()),
    }))
    got = full_outer_join(ds, small, on="k").to_pandas().sort_values("k")
    assert [(int(k), b, n) for k, b, n in zip(got["k"], got["blob"], got["name"])] == want

    # bytes payload on the broadcast side: Arrow types it binary
    small_b = pd.DataFrame({"k": [2, 9], "blob": [b"\x00b", b"z\xff"]})
    ds = ray.data.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
    got = full_outer_join(ds, small_b, on="k").to_pandas().sort_values("k")
    assert got["blob"].tolist() == [None, b"\x00b", b"z\xff"]

    # first block all-null: the string type comes from a later block
    parts = [pd.DataFrame({"k": [1], "s": [None]}),
             pd.DataFrame({"k": [2], "s": ["two"]})]
    got = full_outer_join(
        ray.data.from_pandas(parts), small, on="k"
    ).to_pandas().sort_values("k")
    assert got["s"].tolist() == [None, "two", None]
    assert got["name"].tolist() == [None, "b", "z"]


def test_quantile_cont_interpolator_matches_duckdb_randomized():
    """quantiles_cont_from_counts vs DuckDB quantile_cont on randomized
    int and float multisets, bit-exact (same IEEE Interpolator
    expression), including the q=0 / q=1 / n=1 edges."""
    from pipeline.extras.corpusstats import quantiles_cont_from_counts

    rng = np.random.default_rng(11)
    qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
    con = duckdb.connect()
    for trial in range(40):
        n = int(rng.integers(1, 60))
        if trial % 2:
            vals = rng.integers(-500, 500, n).astype(np.int64)
        else:
            vals = np.round(rng.normal(0, 50, n), 3)
        df = pd.DataFrame({"x": vals})
        con.register("t", df)
        want = [
            con.execute(f"SELECT quantile_cont(x, {q}) FROM t").fetchone()[0]
            for q in qs
        ]
        counts = df.groupby("x").size().rename("n").reset_index()
        got = quantiles_cont_from_counts(counts, "x", qs)
        assert got == want, f"trial {trial}"


def test_events_hopping_null_values_and_coverage(ray_session, tmp_path):
    """Null measure rows still count in n_events (count(*)) while the
    sum skips them; every event appears in exactly two windows."""
    import __ray_entry__ as em

    rng = np.random.default_rng(9)
    n = 300
    val = rng.uniform(0.0, 20.0, n)
    df = pd.DataFrame({
        "event_id": np.arange(n),
        "ts": pd.Timestamp("2024-03-01")
        + pd.to_timedelta(rng.integers(0, 2 * 86400, n), unit="s"),
        "user_id": rng.integers(0, 30, n),
        "event_type": rng.choice(["click", "view", "error"], n),
        "value": np.where(np.arange(n) % 7 == 0, np.nan, val),
        "props": "{}",
    })
    pq.write_table(pa.Table.from_pandas(df), str(tmp_path / "events.parquet"))

    got = em._events_hopping(str(tmp_path))
    assert int(got["n_events"].sum()) == 2 * n  # size 2h / hop 1h
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{tmp_path}/events.parquet')"
    )
    want = con.execute(em.oracle_sql()["events_hopping"]).df()
    assert_frame_equal(_norm(got), _norm(want), check_exact=True)


def test_grouped_quantiles_matches_duckdb_randomized(ray_session):
    """grouped_quantiles vs per-group quantile_disc on a randomized
    skewed table (singleton groups, heavy groups, duplicate values)."""
    import ray

    from pipeline.extras.corpusstats import grouped_quantiles

    rng = np.random.default_rng(13)
    n = 2000
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c", "single", "heavy"],
                        p=[0.2, 0.2, 0.1, 0.0005, 0.4995], size=n),
        "v": rng.integers(0, 50, n).astype(np.int64),
    })
    df.loc[0, "k"] = "single"  # guarantee the singleton group exists
    ds = ray.data.from_pandas(df).repartition(4)
    got = grouped_quantiles(ds, key_col="k", val_col="v",
                            qs=[0.25, 0.5, 0.9])
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute("""
        SELECT k, quantile_disc(v, 0.25) AS p25,
               quantile_disc(v, 0.50) AS p50,
               quantile_disc(v, 0.90) AS p90
        FROM t GROUP BY k ORDER BY k
    """).df()
    got = got.sort_values("k").reset_index(drop=True)
    assert_frame_equal(got, want, check_dtype=False, check_exact=True)


def test_events_hopping_pre_epoch_floor(ray_session, tmp_path):
    """Pre-epoch timestamps bucket by FLOOR division (trunc-toward-zero
    would shift them one window toward zero vs the SQL oracle)."""
    import __ray_entry__ as em

    df = pd.DataFrame({
        "event_id": [0, 1, 2],
        "ts": pd.to_datetime([
            "1969-12-31 23:30:00",   # epoch -1800s -> hour -1 (floor)
            "1969-12-31 22:00:00",   # epoch -7200s -> hour -2 (exact)
            "1970-01-01 00:30:00",   # epoch +1800s -> hour 0
        ]),
        "user_id": [1, 1, 2],
        "event_type": ["click", "click", "view"],
        "value": [1.0, 2.0, 3.0],
        "props": "{}",
    })
    pq.write_table(pa.Table.from_pandas(df), str(tmp_path / "events.parquet"))
    got = em._events_hopping(str(tmp_path))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{tmp_path}/events.parquet')"
    )
    want = con.execute(em.oracle_sql()["events_hopping"]).df()
    assert set(got["win"]) == set(want["win"]) == {-3, -2, -1, 0}
    assert_frame_equal(_norm(got), _norm(want), check_exact=True)

    # the tumbling counterpart shares the floor-division rule
    got_h = em._events_hourly(str(tmp_path))
    want_h = con.execute(em.oracle_sql()["events_hourly"]).df()
    assert set(got_h["hour_bucket"]) == {-2, -1, 0}
    assert_frame_equal(_norm(got_h), _norm(want_h), check_exact=True)


def test_epoch_floor_div_exact_beyond_float():
    """Time buckets are exact int64 floor division: pre-epoch values one
    microsecond either side of a bucket edge, and |epoch| > 2^53 us
    where a float64 divide rounds (2^53 + 1 is not a double)."""
    from pipeline._util import epoch_floor_div

    hour, day = 3_600_000_000, 86_400_000_000
    edge = 2**53
    vals = [
        0, 1, -1, -hour, -hour - 1, -hour + 1, hour - 1,
        edge + 1, -edge - 1, edge * 7 + 3, -(edge * 7) - 3,
        edge // hour * hour + hour - 1, -(edge // hour * hour) - hour + 1,
        2**62 + 12345, -(2**62) - 12345, None,
    ]
    ts = pa.array(vals, pa.int64()).cast(pa.timestamp("us"))
    for unit in (hour, day):
        got = epoch_floor_div(ts, unit).to_pylist()
        assert got == [None if v is None else v // unit for v in vals], unit
    # the old float path misplaces a value just below a bucket edge
    v = 2**55 // hour * hour - 1
    assert epoch_floor_div(pa.array([v], pa.int64()).cast(pa.timestamp("us")), hour)[0].as_py() == v // hour
    assert int(np.floor(float(v) / float(hour))) != v // hour
    # ns input normalizes to microseconds first
    ns = pa.array([-1_000, 3_600_000_000_000, -3_600_000_001_000], pa.int64())
    assert epoch_floor_div(ns.cast(pa.timestamp("ns")), hour).to_pylist() == [-1, 1, -2]


def test_events_user_paths_null_semantics(ray_session, tmp_path):
    """string_agg semantics on nulls: NULL event_type elements are
    skipped, an all-NULL group aggregates to NULL, and a NULL user_id
    still forms its own group."""
    import __ray_entry__ as em

    df = pd.DataFrame({
        "event_id": [0, 1, 2, 3, 4],
        "ts": pd.to_datetime([
            "2024-01-01 00:00", "2024-01-01 00:01", "2024-01-01 00:02",
            "2024-01-01 00:03", "2024-01-01 00:04",
        ]),
        "user_id": pd.array([1, 1, 2, None, 1], dtype="Int64"),
        "event_type": ["click", None, None, "view", "buy"],
        "value": 1.0,
        "props": "{}",
    })
    pq.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        str(tmp_path / "events.parquet"),
    )
    got = em._events_user_paths(str(tmp_path))
    assert len(got) == 3  # users 1, 2, NULL
    by_user = got.set_index("user_id")["path"]
    assert by_user.loc[1.0] == "click->buy"     # null element skipped
    assert pd.isna(by_user.loc[2.0])            # all-null group -> NULL
    nullrow = got[got["user_id"].isna()]
    assert len(nullrow) == 1 and nullrow["path"].iloc[0] == "view"


@pytest.mark.parametrize("n_blocks", [1, 3])
def test_grouped_quantiles_null_keys_and_values(ray_session, n_blocks):
    """SQL parity on nulls: NULL grouping key keeps its own group,
    NULL values are ignored by the rank walk, and an all-null-value
    group emits NULL quantiles; q=0.29 names its column p29. Over one
    block, and over three (each key's rows in two of them)."""
    import ray

    from pipeline.extras.corpusstats import grouped_quantiles

    df = pd.DataFrame({
        "k": ["a", "a", None, None, "b", "b"],
        "v": pd.array([1, 3, 10, 20, None, None], dtype="Int64"),
    })
    t = pa.Table.from_pandas(df.iloc[[0, 2, 4, 1, 3, 5]], preserve_index=False)
    ds = ray.data.from_arrow([t.slice(i, 6 // n_blocks) for i in range(0, 6, 6 // n_blocks)])
    got = grouped_quantiles(ds, key_col="k", val_col="v", qs=[0.5, 0.29])
    assert len(got) == 3
    # round, not truncate: int(0.29 * 100) == 28
    assert list(got.columns) == ["k", "p50", "p29"]
    as_map = {
        (k if isinstance(k, str) else None): v
        for k, v in zip(got["k"], got["p50"])
    }
    assert as_map["a"] == 1          # ceil(0.5*2) = rank 1 -> value 1
    assert as_map[None] == 10        # null key group kept
    assert as_map["b"] is None or pd.isna(as_map["b"])  # all-null values


def test_doc_ntile_matches_duckdb_odd_group_sizes(ray_session, tmp_path):
    """NTILE fill rule on groups smaller than, equal to, and not
    divisible by k=4 (sizes 1..9), vs the SQL window function."""
    import __ray_entry__ as em

    rows = []
    doc_id = 0
    rng = np.random.default_rng(17)
    for si, size in enumerate([1, 2, 3, 4, 5, 7, 9]):
        for _ in range(size):
            rows.append((doc_id, f"s{si}", int(rng.integers(1, 40)),
                         "x", "en"))
            doc_id += 1
    df = pd.DataFrame(
        rows, columns=["doc_id", "source", "n_chars", "text", "lang"]
    )
    pq.write_table(pa.Table.from_pandas(df), str(tmp_path / "documents.parquet"))

    got = em._doc_ntile_by_source(str(tmp_path))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    want = con.execute(em.oracle_sql()["doc_ntile_by_source"]).df()
    assert_frame_equal(_norm(got), _norm(want), check_exact=True)


def test_doc_ntile_null_source_partition(ray_session, tmp_path):
    """SQL PARTITION BY treats NULL keys as one partition: NULL-source
    rows get real quartiles, not int-cast NaN garbage."""
    import __ray_entry__ as em

    df = pd.DataFrame({
        "doc_id": [0, 1, 2, 3, 4],
        "source": ["a", None, "a", None, "a"],
        "n_chars": [5, 1, 9, 7, 3],
        "text": "x", "lang": "en",
    })
    pq.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        str(tmp_path / "documents.parquet"),
    )
    got = em._doc_ntile_by_source(str(tmp_path))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    want = con.execute(em.oracle_sql()["doc_ntile_by_source"]).df()
    assert got["quartile"].between(1, 4).all()
    assert_frame_equal(_norm(got), _norm(want), check_exact=True)


def test_doc_pctl_by_source_all_null_group(ray_session, tmp_path):
    """An all-null-value source emits NULL quantiles (float NaN, like
    the oracle's .df() dtype) instead of crashing the int64 cast."""
    import __ray_entry__ as em

    df = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "source": ["a", "a", "empty"],
        "n_chars": pd.array([10, 20, None], dtype="Int64"),
        "text": "x", "lang": "en",
    })
    pq.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        str(tmp_path / "documents.parquet"),
    )
    got = em._doc_pctl_by_source(str(tmp_path))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    want = con.execute(em.oracle_sql()["doc_pctl_by_source"]).df()
    assert pd.isna(got.set_index("source").loc["empty", "p50"])
    assert_frame_equal(_norm(got), _norm(want), check_exact=True)


def test_quantile_walks_ignore_null_values():
    """Both rank walks skip NULL histogram rows (SQL quantile_disc /
    quantile_cont ignore NULLs; Arrow groupbys retain null keys)."""
    from pipeline.extras.corpusstats import (
        quantiles_cont_from_counts, quantiles_from_counts)

    counts = pd.DataFrame({
        "x": pd.array([1, 2, 3, None], dtype="Int64"),
        "n": [1, 1, 1, 5],
    })
    con = duckdb.connect()
    con.register("t", pd.DataFrame({
        "x": pd.array([1, 2, 3] + [None] * 5, dtype="Int64")
    }))
    for fn, sql in [(quantiles_from_counts, "quantile_disc"),
                    (quantiles_cont_from_counts, "quantile_cont")]:
        got = fn(counts, "x", [0.5, 1.0])
        want = [con.execute(
            f"SELECT {sql}(x, {q}) FROM t").fetchone()[0] for q in [0.5, 1.0]]
        assert [float(g) for g in got] == [float(w) for w in want], sql


def test_full_outer_join_large_int64_keys(ray_session):
    """Keys >= 2^53 survive the matched-set membership test exactly
    (a pandas float64 detour would collapse 2**53 and 2**53+1)."""
    import ray

    from pipeline.partition import full_outer_join

    K = 2 ** 53
    left = pd.DataFrame({"k": [K], "lv": [1]})
    small = pd.DataFrame({
        "k": pd.array([K, K + 1, None], dtype="Int64"),
        "name": ["match", "near", "nul"],
    })
    ds = ray.data.from_arrow(pa.Table.from_pandas(left, preserve_index=False))
    out = full_outer_join(ds, small, on="k")
    # assert on the ARROW rows: the engine output is exact int64; a
    # caller's to_pandas would float-promote k (the null-key row nulls
    # the column) and collapse K+1 — exactly the detour the operator's
    # own membership test must avoid
    rows = out.take_all()
    assert len(rows) == 3
    by_name = {r["name"]: r for r in rows}
    assert set(by_name) == {"match", "near", "nul"}
    assert by_name["near"]["k"] == K + 1 and by_name["near"]["lv"] is None
    assert by_name["match"]["lv"] == 1


def test_pctl_queries_empty_corpus(ray_session, tmp_path):
    """Empty documents table: percentile queries emit NULL rows / empty
    typed frames instead of raising."""
    import __ray_entry__ as em

    empty = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "source": pa.array([], pa.string()),
        "n_chars": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()),
    })
    pq.write_table(empty, str(tmp_path / "documents.parquet"))
    cont = em._doc_length_pctl_cont(str(tmp_path))
    assert len(cont) == 1 and cont.isna().all().all()
    grouped = em._doc_pctl_by_source(str(tmp_path))
    assert len(grouped) == 0
    assert list(grouped.columns) == ["source", "p50", "p90"]


def test_grouped_quantiles_interpolated_matches_duckdb(ray_session):
    """grouped_quantiles(interpolated=True) vs per-group quantile_cont
    on a randomized table (odd group sizes force real interpolation)."""
    import ray

    from pipeline.extras.corpusstats import grouped_quantiles

    rng = np.random.default_rng(19)
    n = 1000
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c", "d"], n),
        "v": rng.integers(0, 97, n).astype(np.int64),
    })
    ds = ray.data.from_pandas(df).repartition(4)
    got = grouped_quantiles(ds, key_col="k", val_col="v",
                            qs=[0.25, 0.5, 0.9], interpolated=True)
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute("""
        SELECT k, quantile_cont(v, 0.25) AS p25,
               quantile_cont(v, 0.50) AS p50,
               quantile_cont(v, 0.90) AS p90
        FROM t GROUP BY k ORDER BY k
    """).df()
    got = got.sort_values("k").reset_index(drop=True)
    assert_frame_equal(got, want, check_dtype=False, check_exact=True)


@pytest.mark.parametrize("max_bytes", [None, -1], ids=["one_task", "bucketed"])
def test_null_event_type_across_blocks_matches_oracle(
        ray_session, tmp_path, monkeypatch, max_bytes):
    """A null event_type in every row group: events_hopping and
    events_distinct_users keep it as one group, as SQL GROUP BY does, in
    both _keyed_reduce regimes. Both reduce on (string, int64) keys, which
    pyarrow 16.1's group_by splits on a null unless _sum_by orders them."""
    import __ray_entry__ as em
    from pipeline import partition

    if max_bytes is not None:
        monkeypatch.setattr(partition, "DRIVER_REDUCE_MAX_BYTES", max_bytes)
    t = pq.read_table("/root/testdata/sf0.001/events.parquet")
    et = [None if i % 7 == 0 else v for i, v in enumerate(t["event_type"].to_pylist())]
    t = t.set_column(t.column_names.index("event_type"), "event_type", pa.array(et))
    pq.write_table(t, str(tmp_path / "events.parquet"), row_group_size=len(t) // 4)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{tmp_path}/events.parquet')"
    )
    for name in ("events_hopping", "events_distinct_users"):
        got = em.queries()[name](str(tmp_path))
        want = con.execute(em.oracle_sql()[name]).df()
        assert got["event_type"].isna().any(), name
        assert_frame_equal(_norm(got), _norm(want), check_dtype=False,
                           check_exact=True, obj=name)
