"""Wide-op + checkpoint/resume tests (SURVEY.md §5.2.4-5)."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


@pytest.fixture(scope="module")
def code_fixture(tmp_path_factory):
    from pipeline.synth.codegen import write_code_table

    d = tmp_path_factory.mktemp("codefx") / "code"
    write_code_table(d, 1200, n_files=6)
    return str(d)


@pytest.fixture(scope="module")
def scrubbed_ds(code_fixture):
    import ray.data as rd

    from pipeline.ray_pipeline import flagship_pipeline

    return flagship_pipeline(rd.read_parquet(code_fixture)).materialize()


def test_repo_stats_match_pandas_oracle(scrubbed_ds):
    from pipeline.partition import repo_stats

    got = repo_stats(scrubbed_ds).to_pandas().sort_values("repo").reset_index(drop=True)
    df = scrubbed_ds.to_pandas()
    exp = (
        df.assign(n_bytes=df["content"].str.encode("utf-8").str.len(), kept=df["keep"].astype(int))
        .groupby("repo")
        .agg(
            n_files=("path", "size"),
            n_bytes=("n_bytes", "sum"),
            n_kept=("kept", "sum"),
            n_sha=("content_sha256", "nunique"),
        )
        .reset_index()
        .sort_values("repo")
        .reset_index(drop=True)
    )
    assert (got["repo"] == exp["repo"]).all()
    assert (got["n_files"].values == exp["n_files"].values).all()
    assert (got["n_bytes"].values == exp["n_bytes"].values).all()
    assert (got["n_kept"].values == exp["n_kept"].values).all()
    assert (got["n_dup_content"].values == (exp["n_files"] - exp["n_sha"]).values).all()
    assert ((got["keep_rate"] - exp["n_kept"] / exp["n_files"]).abs() < 1e-12).all()


def test_exact_dedup_keeps_first(scrubbed_ds):
    from pipeline.partition import exact_dedup

    deduped = exact_dedup(scrubbed_ds).to_pandas()
    df = scrubbed_ds.to_pandas()
    assert deduped["content_sha256"].is_unique
    assert len(deduped) == df["content_sha256"].nunique()
    # winner is min (repo, path) per sha
    exp_first = (
        df.sort_values(["repo", "path"]).groupby("content_sha256").head(1)
    )
    got = deduped.sort_values("content_sha256")["repo"].tolist()
    exp = exp_first.sort_values("content_sha256")["repo"].tolist()
    assert got == exp


def test_repo_stats_dup_counts_planted(monkeypatch):
    """Planted same-repo duplicate content: both reduce paths must report
    the same nonzero n_dup_content (the fixture corpus has none, so this
    is the only coverage of the dup-count logic)."""
    import pandas as pd
    import ray.data as rd

    from pipeline import partition

    import hashlib

    rows = []
    for repo, n, ndup in [("org/a", 6, 2), ("org/b", 4, 0), ("org/c", 5, 3)]:
        for i in range(n):
            tag = 0 if i <= ndup else i
            sha = hashlib.sha256(f"{repo}-{tag}".encode()).hexdigest()
            rows.append({"repo": repo, "path": f"f{i}.py", "commit": "c" * 40,
                         "content": f"text {repo} {tag}",
                         "content_sha256": sha, "keep": i % 2 == 0})
    ds = rd.from_pandas(pd.DataFrame(rows))
    a = partition.repo_stats(ds).to_pandas().sort_values("repo")  # driver
    monkeypatch.setattr(partition, "DRIVER_REDUCE_MAX_BYTES", -1)
    b = partition.repo_stats(ds).to_pandas().sort_values("repo")
    assert a["n_dup_content"].tolist() == [2, 0, 3]
    assert b["n_dup_content"].tolist() == [2, 0, 3]


@pytest.mark.parametrize("max_bytes", [None, -1], ids=["one_task", "bucketed"])
def test_repo_stats_edge_repos_both_regimes(monkeypatch, max_bytes):
    """SQL GROUP BY semantics in both reduce regimes: the repo "" and the
    null repo (each with an in-repo duplicate) get their own exact rows,
    sorted with null last, and a sha shared ACROSS repos is no duplicate;
    zero input rows give an empty dataset typed as schema.REPO_STATS."""
    import hashlib

    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from pipeline import partition
    from pipeline.schema import REPO_STATS

    if max_bytes is not None:
        monkeypatch.setattr(partition, "DRIVER_REDUCE_MAX_BYTES", max_bytes)
    sha = {i: hashlib.sha256(str(i).encode()).hexdigest() for i in range(4)}
    rows = pa.table({
        "repo": ["", "a", None, "", None, "a", ""],
        "content_sha256": [sha[i] for i in (0, 0, 1, 0, 1, 2, 3)],
        "keep": [True, False, True, False, True, True, True],
        "n_bytes": [10, 20, 30, 40, 50, 60, 70],
    })
    # three blocks, so null keys also cross a multi-block shuffle
    ds = rd.from_arrow([rows.slice(0, 3), rows.slice(3, 2), rows.slice(5)])
    got = partition.repo_stats(ds).to_pandas()
    exp = pd.DataFrame({
        "repo": ["", "a", None],
        "n_files": [3, 2, 2],
        "n_bytes": [120, 80, 80],
        "n_kept": [2, 1, 2],
        "n_dup_content": [1, 0, 1],
        "keep_rate": [2 / 3, 0.5, 1.0],
    })
    pd.testing.assert_frame_equal(got, exp)

    empty = partition.repo_stats(rd.from_arrow(rows.slice(0, 0)))
    assert empty.count() == 0
    assert empty.schema().names == REPO_STATS.names
    assert empty.schema().types == REPO_STATS.types


def _null_key_rows():
    """9 rows whose string key ``k`` holds null and "" (each more than
    once) in 4 blocks; ``o`` is a unique order value."""
    import pandas as pd

    return pd.DataFrame({
        "k": ["a", None, "", None, "a", "b", "", None, "a"],
        "o": [f"r{i}" for i in (5, 3, 8, 1, 0, 7, 2, 6, 4)],
        "v": [3, 1, 4, 1, 5, 9, 2, 6, 5],
    })


def _blocks(df):
    import pyarrow as pa
    import ray.data as rd

    t = pa.Table.from_pandas(df, preserve_index=False)
    return rd.from_arrow([t.slice(0, 2), t.slice(2, 2), t.slice(4, 2), t.slice(6)])


def _nulls_as_none(df):
    return df.astype(object).where(df.notna(), None).reset_index(drop=True)


def _reducer_case(name):
    """(run, expected frame, sort columns) for one keyed reducer over
    _null_key_rows, expected by pandas with null as a group (SQL GROUP BY
    / PARTITION BY; SQL IN for semi_join, where null never matches)."""
    import hashlib

    from pipeline import partition

    df = _null_key_rows()
    g = df.groupby("k", dropna=False, sort=False)
    if name == "salted_group_counts":
        # six rows: two null repos in two blocks
        six = df.iloc[:6].rename(columns={"k": "repo"})[["repo"]]
        exp = six.groupby("repo", dropna=False).size().rename("n").reset_index()
        return (lambda: partition.salted_group_counts(_blocks(six), "repo"),
                exp, ["repo"])
    if name == "keep_first_by":
        exp = df[df["o"].isin(g["o"].min())]
        return (lambda: partition.keep_first_by(
            _blocks(df), group_col="k", order_col="o"), exp, ["o"])
    if name == "exact_dedup":
        rows = df.assign(
            content_sha256=df["k"].map(
                lambda k: k if k is None else hashlib.sha256(k.encode()).hexdigest()),
            repo="r", path=df["o"], commit="c",
        ).drop(columns=["k"])
        winners = rows.groupby("content_sha256", dropna=False)["path"].min()
        return (lambda: partition.exact_dedup(_blocks(rows)),
                rows[rows["path"].isin(winners)], ["path"])
    if name == "topn_per_key":
        exp = df.sort_values(["v", "o"], ascending=[False, True], kind="mergesort")
        exp = exp.groupby("k", dropna=False, sort=False).head(2)
        exp = exp.assign(rnk=exp.groupby("k", dropna=False, sort=False).cumcount() + 1)
        return (lambda: partition.topn_per_key(
            _blocks(df), key="k", order_by=["v", "o"], ascending=[False, True],
            n=2), exp, ["o"])
    assert name == "semi_join"
    right = df.iloc[1:5][["k"]]  # null, "", null, "a"
    return (lambda: partition.semi_join(_blocks(df), _blocks(right), on="k"),
            df[df["k"].isin(["", "a"])], ["o"])


@pytest.mark.parametrize("types", [
    ("string", "int64"), ("int8", "string"), ("bool", "string"), ("bool", "int32"),
    ("string", "string"), ("int64", "large_string"),
])
def test_sum_by_multi_key_nulls_match_pandas(types):
    """_sum_by groups on two keys of any type pair with nulls in both as
    pandas groupby(dropna=False) does (pyarrow 16's grouper splits such
    groups for some key orders)."""
    import random

    import pandas as pd
    import pyarrow as pa

    from pipeline.partition import _sum_by

    rng = random.Random(0)
    pools = {"string": ["a", "", "bb"], "large_string": ["a", "", "bb"],
             "int64": [1, 2, 3], "int32": [1, 2], "int8": [1, 2], "bool": [True, False]}
    cols = {f"k{i}": pa.array([rng.choice(pools[t] + [None]) for _ in range(3000)],
                              getattr(pa, t if t != "bool" else "bool_")())
            for i, t in enumerate(types)}
    t = pa.table({**cols, "n": pa.array([1] * 3000, pa.int64())})
    got = _sum_by(t, ["k0", "k1"]).to_pandas()
    exp = t.to_pandas().groupby(["k0", "k1"], dropna=False)["n"].sum()
    assert len(got) == len(exp) and got["n"].sum() == 3000
    assert sorted(got["n"]) == sorted(exp)


@pytest.mark.parametrize("max_bytes", [None, -1], ids=["one_task", "bucketed"])
@pytest.mark.parametrize("name", [
    "salted_group_counts", "keep_first_by", "exact_dedup", "topn_per_key",
    "semi_join",
])
def test_keyed_reducers_null_and_empty_keys_both_regimes(monkeypatch, name, max_bytes):
    """Every keyed reduce of partition.py treats a null and a "" key as
    groups like any other, in both _keyed_reduce regimes, with the keys
    spread over several blocks."""
    import pandas as pd

    from pipeline import partition

    if max_bytes is not None:
        monkeypatch.setattr(partition, "DRIVER_REDUCE_MAX_BYTES", max_bytes)
    run, exp, by = _reducer_case(name)
    got = run().to_pandas()
    assert sorted(got.columns) == sorted(exp.columns)
    pd.testing.assert_frame_equal(
        _nulls_as_none(got[list(exp.columns)].sort_values(by)),
        _nulls_as_none(exp.sort_values(by)),
    )


def test_exact_dedup_join_path_matches(scrubbed_ds, monkeypatch):
    """EXACT_DEDUP_BROADCAST_MAX=0 forces the hash semi-join back-path;
    identical kept rows as the broadcast filter — for exact_dedup and for
    keep_first_by called directly with a filter_ds whose columns differ
    from the keyed dataset's."""
    from pipeline import partition

    with_rk = scrubbed_ds.map_batches(
        lambda t: t.append_column("rk", partition._row_key_col(t)),
        batch_format="pyarrow",
    ).materialize()
    runs = {  # name: (run, output columns, sort key)
        "exact_dedup": (
            lambda: partition.exact_dedup(scrubbed_ds),
            list(scrubbed_ds.schema().names), ["repo", "path", "commit"],
        ),
        "keep_first_by": (
            lambda: partition.keep_first_by(
                with_rk.select_columns(["content_sha256", "rk"]),
                group_col="content_sha256", order_col="rk",
                filter_ds=with_rk.select_columns(["rk", "repo", "keep"]),
            ),
            ["rk", "repo", "keep"], ["rk"],
        ),
    }
    n_distinct = scrubbed_ds.to_pandas()["content_sha256"].nunique()
    for name, (run, cols, key) in runs.items():
        a = run().to_pandas()
        with monkeypatch.context() as m:
            m.setattr(partition, "EXACT_DEDUP_BROADCAST_MAX", 0)
            b = run().to_pandas()
        assert list(a.columns) == list(b.columns) == cols, name
        a = a.sort_values(key).reset_index(drop=True)
        b = b.sort_values(key).reset_index(drop=True)
        assert len(a) == n_distinct, name
        assert a.equals(b), name


def test_salted_group_counts(scrubbed_ds):
    from pipeline.partition import salted_group_counts

    got = salted_group_counts(scrubbed_ds, "repo").to_pandas().sort_values("repo")
    exp = scrubbed_ds.to_pandas().groupby("repo").size()
    assert dict(zip(got["repo"], got["n"])) == exp.to_dict()


def test_zipfian_repo_skew_present(scrubbed_ds):
    """Fixture must actually have hot repos so salting is exercised
    (SURVEY.md §7.5.4)."""
    sizes = scrubbed_ds.to_pandas().groupby("repo").size().sort_values()
    assert sizes.iloc[-1] >= 8 * max(1, sizes.iloc[0])


def test_checkpoint_resume(code_fixture, tmp_path):
    import ray.data as rd  # noqa: F401

    from pipeline.checkpoint import committed_partitions, global_ledger, run_partitioned

    files = sorted(str(p) for p in Path(code_fixture).glob("*.parquet"))
    out1 = tmp_path / "run_full"
    s1 = run_partitioned(files, out1)
    assert s1["partitions_run"] == len(files) and s1["partitions_skipped"] == 0
    ledger_full = global_ledger(out1)

    # interrupted run: delete half the partitions + their manifests
    out2 = tmp_path / "run_interrupted"
    shutil.copytree(out1, out2)
    victims = [0, 2, 4]
    for pid in victims:
        shutil.rmtree(out2 / f"part-{pid:05d}")
        (out2 / "_manifests" / f"part-{pid:05d}.json").unlink()
    # also simulate a half-written tmp dir from the kill
    (out2 / "_tmp" / "part-00000").mkdir(parents=True, exist_ok=True)

    s2 = run_partitioned(files, out2)
    assert s2["partitions_run"] == len(victims)
    assert s2["partitions_skipped"] == len(files) - len(victims)
    assert global_ledger(out2) == ledger_full
    assert s2["total_rows"] == s1["total_rows"]

    m = committed_partitions(out2)[0]
    assert set(m) >= {"input_files", "n_rows", "ledger256", "wall_sec", "engine_version"}
    assert json.loads((out2 / "_manifests" / "part-00000.json").read_text())["partition_id"] == 0


def test_read_code_table_two_blocks_per_cpu(tmp_path):
    """The read is sized to the cluster, 2 blocks per CPU with no floor:
    16 input files come back as 8 blocks in the 4-CPU test session."""
    import ray

    from pipeline.ray_pipeline import read_code_table
    from pipeline.synth.codegen import write_code_table

    d = write_code_table(tmp_path / "code", 320, n_files=16)
    assert ray.cluster_resources()["CPU"] == 4
    assert read_code_table(d).materialize().num_blocks() == 8


def test_flagship_output_independent_of_block_count(code_fixture):
    """Scoring, scrub and decide see different batch splits when the read
    makes 1 block or 2 per CPU; every output column must be the same."""
    import pandas as pd

    from pipeline.ray_pipeline import flagship_pipeline, read_code_table

    key = ["repo", "path", "commit"]

    def frame(**read_kwargs):
        ds = read_code_table(code_fixture, **read_kwargs)
        return (
            flagship_pipeline(ds, n_rows_hint=1200).to_pandas()
            .sort_values(key).reset_index(drop=True)
        )

    pd.testing.assert_frame_equal(
        frame(), frame(override_num_blocks=1), check_exact=True,
    )


def test_repo_stats_groupby_variant_matches(scrubbed_ds, monkeypatch):
    from pipeline import partition

    a = partition.repo_stats(scrubbed_ds).to_pandas().sort_values("repo").reset_index(drop=True)
    monkeypatch.setattr(partition, "DRIVER_REDUCE_MAX_BYTES", -1)
    b = partition.repo_stats(scrubbed_ds).to_pandas().sort_values("repo").reset_index(drop=True)
    for col in ["repo", "n_files", "n_bytes", "n_kept", "n_dup_content"]:
        assert (a[col].values == b[col].values).all(), col


def test_broadcast_and_hash_join():
    import pandas as pd
    import ray.data as rd

    from pipeline.partition import broadcast_join, hash_join

    left = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3, 2], "v": ["a", "b", "c", "d"]}))
    right_df = pd.DataFrame({"k": [1, 2], "name": ["one", "two"]})
    bj = broadcast_join(left, right_df, on="k").to_pandas().sort_values(["k", "v"])
    assert bj["name"].tolist() == ["one", "two", "two"]

    right = rd.from_pandas(right_df)
    hj = (
        hash_join(left, right, on="k", num_partitions=4)
        .to_pandas()
        .sort_values(["k", "v"])
    )
    assert hj["name"].tolist() == ["one", "two", "two"]


def test_drop_raw_content_projection(code_fixture):
    """The 100-TB sink projection: n_bytes replaces raw content and
    repo_stats consumes either form identically."""
    import ray.data as rd

    from pipeline.partition import repo_stats
    from pipeline.ray_pipeline import flagship_pipeline

    full = flagship_pipeline(rd.read_parquet(code_fixture)).materialize()
    slim = flagship_pipeline(
        rd.read_parquet(code_fixture), drop_raw_content=True
    ).materialize()
    assert "content" not in slim.schema().names
    assert "n_bytes" in slim.schema().names
    a = repo_stats(full).to_pandas().sort_values("repo").reset_index(drop=True)
    b = repo_stats(slim).to_pandas().sort_values("repo").reset_index(drop=True)
    for col in ["repo", "n_files", "n_bytes", "n_kept", "n_dup_content"]:
        assert (a[col].values == b[col].values).all(), col
    # per-row parity columns survive the projection
    fa = full.select_columns(["repo", "path", "commit", "content_sha256", "keep"]).to_pandas()
    fb = slim.select_columns(["repo", "path", "commit", "content_sha256", "keep"]).to_pandas()
    key = ["repo", "path", "commit"]
    fa = fa.sort_values(key).reset_index(drop=True)
    fb = fb.sort_values(key).reset_index(drop=True)
    assert fa.equals(fb)


def test_asof_join_int_right_cols_schema_stable():
    """Integer right_cols must come back as nullable Int64 in EVERY group
    — groups where all left rows match must not emit a different dtype
    than groups with unmatched rows (review finding)."""
    import pandas as pd
    import ray.data as rd

    from pipeline.partition import asof_join

    left = pd.DataFrame({
        "k": [1, 1, 2, 2], "t": [10, 20, 10, 20], "lid": [0, 1, 2, 3]})
    right = pd.DataFrame({
        # group 1: matches for both lefts; group 2: t=10 precedes all rights
        "k": [1, 1, 2], "t": [5, 15, 15], "qty": [100, 200, 300]})
    out = asof_join(
        rd.from_pandas(left), rd.from_pandas(right),
        on="t", by="k", right_cols=["qty"],
    ).to_pandas().sort_values("lid").reset_index(drop=True)
    assert out["qty_r"].tolist()[0] == 100
    assert out["qty_r"].tolist()[1] == 200
    assert pd.isna(out["qty_r"].tolist()[2])  # unmatched
    assert out["qty_r"].tolist()[3] == 300
    assert out["lid"].dtype == "int64"


def test_asof_join_rejects_left_ints_beyond_2_53():
    """Left integer keys above 2^53 would be silently corrupted by the
    null-padded union's float64 round-trip — must raise loudly instead."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from pipeline.partition import asof_join

    left = pd.DataFrame({
        "k": [1, 1], "t": [10, 20], "big_id": [1 << 60, (1 << 60) + 1]})
    right = pd.DataFrame({"k": [1], "t": [5], "qty": [100]})
    out = asof_join(
        rd.from_pandas(left), rd.from_pandas(right),
        on="t", by="k", right_cols=["qty"],
    )
    with pytest.raises(Exception, match="2\\^53"):
        out.to_pandas()


def test_partition_ledger_order_free_and_duplicate_sensitive():
    """The 256-bit lattice ledger must be invariant to row order but NOT
    to duplicate-row cancellation (the weakness of a plain XOR combine)."""
    import pandas as pd
    import ray.data as rd

    from pipeline._util import sha256_hex
    from pipeline.checkpoint import partition_ledger

    shas = [sha256_hex(f"doc-{i}") for i in range(10)]
    a = rd.from_pandas(pd.DataFrame({"content_sha256": shas}))
    b = rd.from_pandas(pd.DataFrame({"content_sha256": shas[::-1]}))
    n_a, led_a = partition_ledger(a)
    n_b, led_b = partition_ledger(b)
    assert (n_a, led_a) == (n_b, led_b)
    assert len(led_a) == 64  # 4 x 16 hex chars
    # duplicated pair does NOT cancel back to the original fingerprint
    c = rd.from_pandas(
        pd.DataFrame({"content_sha256": shas + [shas[0], shas[0]]})
    )
    n_c, led_c = partition_ledger(c)
    assert n_c == 12 and led_c != led_a


def test_topn_per_key_both_paths_match_pandas_oracle(monkeypatch):
    """Two-phase top-n must equal the plain window-rank oracle, in both
    keyed-reduce regimes (one task, and per bucket of the key), even when
    a key's top rows are scattered across many input batches."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from pipeline import partition

    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "k": rng.integers(0, 37, size=5000),
        "v": rng.integers(0, 400, size=5000),  # deliberate ties
        "uid": np.arange(5000, dtype=np.int64),  # total-order tiebreak
    })

    ora = df.sort_values(["v", "uid"], ascending=[False, True], kind="mergesort")
    ora = ora.groupby("k", sort=False).head(3).copy()
    ora["rnk"] = ora.groupby("k", sort=False).cumcount() + 1
    ora = ora.sort_values(["k", "rnk"]).reset_index(drop=True)

    # many small blocks so per-key candidates straddle batch boundaries
    ds = rd.from_pandas([df.iloc[i:i + 250] for i in range(0, 5000, 250)])
    kw = dict(key="k", order_by=["v", "uid"], ascending=[False, True], n=3)
    one_task = partition.topn_per_key(ds, **kw).to_pandas()
    monkeypatch.setattr(partition, "DRIVER_REDUCE_MAX_BYTES", -1)
    bucketed = partition.topn_per_key(ds, **kw).to_pandas()
    for out in (one_task, bucketed):
        out = out.sort_values(["k", "rnk"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(out[["k", "v", "uid", "rnk"]],
                                      ora[["k", "v", "uid", "rnk"]])


def test_asof_join_bucketed_matches_pandas_oracle():
    """The coarse-bucket formulation (one merge_asof(by=) per bucket)
    must equal a global pd.merge_asof(by=) oracle across many keys —
    including string keys (siphash bucketing) and keys with no right
    rows at all."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from pipeline.partition import asof_join

    rng = np.random.default_rng(11)
    nkeys = 150
    left = pd.DataFrame({
        "k": [f"user-{i}" for i in rng.integers(0, nkeys, size=3000)],
        "t": rng.integers(0, 10_000, size=3000),
        "lid": np.arange(3000, dtype=np.int64),
    })
    right = pd.DataFrame({
        # only even keys have right rows -> odd keys must yield nulls
        "k": [f"user-{i * 2}" for i in rng.integers(0, nkeys // 2, size=1500)],
        "t": rng.integers(0, 10_000, size=1500),
        "qty": rng.integers(1, 1000, size=1500),
    })

    ora = pd.merge_asof(
        left.sort_values("t", kind="mergesort"),
        right.sort_values("t", kind="mergesort").rename(columns={"qty": "qty_r"}),
        on="t", by="k", direction="backward",
    ).sort_values("lid").reset_index(drop=True)

    out = asof_join(
        rd.from_pandas([left.iloc[i:i + 500] for i in range(0, 3000, 500)]),
        rd.from_pandas([right.iloc[i:i + 500] for i in range(0, 1500, 500)]),
        on="t", by="k", right_cols=["qty"],
    ).to_pandas().sort_values("lid").reset_index(drop=True)

    assert out["lid"].dtype == "int64"
    pd.testing.assert_series_equal(
        out["qty_r"].astype("float64"), ora["qty_r"].astype("float64"),
        check_names=False,
    )


def test_bucket_shuffle_one_call_per_key_matches_pandas():
    """bucket_shuffle hands every key's rows, from every side, to fn in
    exactly ONE call: fn emits one row per key it sees, so a key split
    over two calls would appear twice. Two sides with different block
    counts, string and int64 keys, and 5 keys in 64 buckets (most
    buckets empty)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from pipeline.partition import bucket_shuffle

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        assert list(g.columns) == ["key", "side", "v"]  # no bucket column
        return g.groupby("key").agg(
            n=("v", "size"), n_right=("side", "sum"), v=("v", "sum"),
        ).reset_index()

    rng = np.random.default_rng(5)
    for keys in ([f"key-{i}" for i in range(5)],
                 np.arange(1, 6, dtype=np.int64) * 10**15):
        left = pd.DataFrame({"key": rng.choice(keys, 300), "side": 0,
                             "v": np.arange(300)})
        right = pd.DataFrame({"key": rng.choice(keys, 120), "side": 1,
                              "v": np.arange(120)})
        sides = [rd.from_pandas([left.iloc[i::6] for i in range(6)]),
                 rd.from_pandas([right.iloc[i::2] for i in range(2)])]
        assert [s.num_blocks() for s in sides] == [6, 2]
        got = bucket_shuffle(sides, "key", fn).to_pandas()
        assert got["key"].is_unique
        want = fn(pd.concat([left, right]))
        pd.testing.assert_frame_equal(
            got.sort_values("key").reset_index(drop=True), want,
            check_dtype=False,
        )


def test_semi_join_broadcast_and_hash_paths_match_pandas_oracle(monkeypatch):
    """semi_join returns left rows whose key appears in right, preserving
    left multiplicity and never adding right columns — on BOTH regimes
    (broadcast is_in up to EXACT_DEDUP_BROADCAST_MAX distinct keys, hash
    join against the distinct key set above it), including null keys
    (SQL IN semantics: never match) and a key-name mismatch between the
    sides."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from pipeline import partition

    rng = np.random.default_rng(7)
    left_df = pd.DataFrame({
        "k": rng.integers(0, 1000, size=5000),
        "v": np.arange(5000),
    })
    left_df.loc[::97, "k"] = pd.NA  # null left keys: never match
    left_df["k"] = left_df["k"].astype("Int64")
    right_df = pd.DataFrame({
        "rk": np.repeat(np.arange(0, 1000, 2), 3),  # dups: multiplicity-safe
    })
    want = left_df[
        left_df["k"].isin(right_df["rk"].unique())
        & left_df["k"].notna()
    ].sort_values("v").reset_index(drop=True)

    for kwargs, broadcast_max in (
        ({}, None),                               # sized via groupby count
        ({"n_rows_hint": len(right_df)}, None),   # hint: driver union path
        ({}, 10),                                 # force the hash-join path
    ):
        with monkeypatch.context() as m:
            if broadcast_max is not None:
                m.setattr(partition, "EXACT_DEDUP_BROADCAST_MAX", broadcast_max)
            got = (
                partition.semi_join(
                    rd.from_pandas(left_df), rd.from_pandas(right_df),
                    on="k", right_on="rk", **kwargs,
                )
                .to_pandas().sort_values("v").reset_index(drop=True)
            )
        assert got["v"].tolist() == want["v"].tolist(), (kwargs, broadcast_max)
        assert list(got.columns) == ["k", "v"], (kwargs, broadcast_max)


def test_semi_join_empty_right_side():
    import pandas as pd
    import ray.data as rd

    from pipeline.partition import semi_join

    left = rd.from_pandas(pd.DataFrame({"k": [1, 2], "v": ["a", "b"]}))
    right = rd.from_pandas(pd.DataFrame({"k": pd.Series([], dtype="int64")}))
    got = semi_join(left, right, on="k", n_rows_hint=0).to_pandas()
    assert len(got) == 0
