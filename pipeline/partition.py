"""Wide operations: keyed reduces (per-repo stats, counts, keep-first,
top-n, distinct keys), exact dedup, joins (SURVEY.md O7/A6/§2.4/§2.7).

Scale design:
- The scrub path never shuffles; only these stats forks do.
- Every keyed reduce is a per-batch Arrow combiner feeding ONE helper,
  _keyed_reduce, with one size switch: up to DRIVER_REDUCE_MAX_BYTES of
  measured combiner partials one task folds them all; above it each
  fold runs per bucket of its key through bucket_shuffle. The combiner
  is the salt: a hot key leaves each batch as at most one row, so no
  reducer sees a hot key's rows, only its per-batch partials.
- Per-repo stats combine to exact sums keyed (repo, content_sha256) and
  fold to exact pairs, then per repo (bucketed: by sha, then by repo).
  A repo's dup-content count is exact: its files minus its distinct
  pairs.
- Exact dedup keys on content_sha256 (uniform by construction — hash
  partitioning cannot skew).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from pipeline._util import _cluster_cpus, _fetch_once
from pipeline.schema import REPO_STATS


def _row_width(typ: pa.DataType) -> float:
    """A key's width in Arrow's row encoding of group-by keys, which lays
    keys out widest first (a string or binary key after the 4-byte fixed
    ones). pyarrow 16.1 splits a multi-key group_by's groups when a key
    holds a null unless the keys come in this order; drop this on an
    upgrade where test_sum_by_multi_key_nulls_match_pandas passes without."""
    if pa.types.is_large_string(typ) or pa.types.is_large_binary(typ):
        return 7.5
    if pa.types.is_string(typ) or pa.types.is_binary(typ):
        return 3.5
    return typ.bit_width / 8


def _sum_by(t: pa.Table, keys: list[str], count: str | None = None) -> pa.Table:
    """Per distinct ``keys`` value — null and "" are values like any
    other, as in SQL GROUP BY — the sum of every other column of ``t``
    and, given ``count``, the number of rows summed, under that name.
    The summing combiner and fold of most _keyed_reduce callers. Keys
    keep their type (value_counts of an int column keys on ints), except
    a key typed Arrow null (an all-null pandas object column), which
    comes out as string."""
    import pyarrow.compute as pc

    vals = [c for c in t.column_names if c not in keys]
    t = pa.table([pc.cast(t[k], pa.string()) if pa.types.is_null(t[k].type) else t[k]
                  for k in keys] + [t[c] for c in vals], names=keys + vals)
    aggs = [(c, "sum") for c in vals]
    if count:
        aggs.append((keys[0], "count", pc.CountOptions(mode="all")))
    order = sorted(keys, key=lambda k: -_row_width(t[k].type)) if len(keys) > 1 else keys
    g = t.group_by(order, use_threads=False).aggregate(aggs)
    return pa.table([g[k] for k in keys] + [g[f"{a[0]}_{a[1]}"] for a in aggs],
                    names=keys + vals + ([count] if count else []))


# Above this many bytes of combiner partials a keyed reduce leaves its
# single task for bucket shuffles. A repo_stats partial row is one (repo,
# sha) pair of a batch: 110 B measured on the 1200- and 16000-row code
# fixtures, where nearly every row is its own pair, so there the switch
# flips near 610k input rows and the one reducing task never holds more
# than ~64 MB of partials.
DRIVER_REDUCE_MAX_BYTES = 64 * 1024 * 1024


@ray.remote
def _reduce_task(*blocks: pa.Table, fold, finish) -> pa.Table:
    """``fold`` (if given), then ``finish`` (if given), over the blocks
    concatenated (a block whose column holds only nulls may be typed
    null). A task, so the driver never maps the partials."""
    t = pa.concat_tables(blocks, promote_options="default")
    t = fold(t) if fold else t
    return finish(t) if finish else t


def _keyed_reduce(
    ds: "ray.data.Dataset", combine, stages: list, finish=None,
) -> "ray.data.Dataset | None":
    """The one keyed reduce. ``combine`` maps each batch to partial rows
    (Arrow in, Arrow out); the partials are materialized (None if there
    are none). ``stages`` lists (key, fold): a fold is exact on any rows
    that hold all of its keys' rows. On the measured partial bytes:
    - up to DRIVER_REDUCE_MAX_BYTES, one task runs the first fold over
      all partials (every key is whole there, so later stages, which
      re-fold what earlier buckets left split, have nothing to do);
    - above it, each stage is a bucket_shuffle on its key that runs the
      fold per bucket, on the frame typed back as the stage's input (an
      all-null bucket would infer Arrow null, ints with nulls float64).
    ``finish``, if given, then runs in one task; otherwise the bucketed
    output stays distributed. Null and "" are keys like any other. The
    threshold is read at call time (tests patch it to force a regime)."""
    partials = ds.map_batches(
        combine, batch_format="pyarrow", batch_size=8192,
        zero_copy_batch=True,
    ).materialize()
    n_partials = partials.count()
    if n_partials == 0:
        return None
    if (partials.size_bytes() or 0) <= DRIVER_REDUCE_MAX_BYTES:
        return ray.data.from_arrow_refs(_reduce_task.remote(
            *partials.to_arrow_refs(), fold=stages[0][1], finish=finish))

    out, schema = partials, partials.schema().base_schema
    for key, fold in stages:
        out = bucket_shuffle([out], key, lambda g, f=fold, s=schema: f(
            pa.Table.from_pandas(g, schema=s, preserve_index=False),
        ), bucket_count(n_partials))
        schema = fold(schema.empty_table()).schema
    if finish is None:
        return out
    return ray.data.from_arrow_refs(
        _reduce_task.remote(*out.to_arrow_refs(), fold=None, finish=finish))


def _sum_reduce(
    ds: "ray.data.Dataset", combine, keys: list[str], finish=None,
    empty: pa.Table | None = None,
) -> "ray.data.Dataset | None":
    """_keyed_reduce whose fold is _sum_by over ``keys`` (bucketed on the
    first). With no partials: ``empty``, a typed zero-row table, as a
    dataset, or None if it is not given."""
    out = _keyed_reduce(ds, combine, [(keys[0], lambda t: _sum_by(t, keys))], finish)
    return ray.data.from_arrow(empty) if out is None and empty is not None else out


def _to_arrow(ds: "ray.data.Dataset") -> pa.Table:
    """A reduce's (small) output as one Arrow table on the driver; unlike
    Dataset.to_pandas it keeps the columns at zero rows, and it absorbs
    a bucketed reduce's blocks without columns (see bucket_shuffle)."""
    return pa.concat_tables(ray.get(ds.to_arrow_refs()), promote_options="default")


def _repo_partials(batch: pa.Table) -> pa.Table:
    """Batch-local combiner: n_files, n_bytes and n_kept per (repo,
    content_sha256). Accepts either the full scrub output (raw `content`
    present) or the drop_raw_content projection (precomputed `n_bytes`)."""
    import pyarrow.compute as pc

    if "n_bytes" in batch.column_names:
        n_bytes = batch["n_bytes"]
    else:
        n_bytes = pc.binary_length(pc.cast(batch["content"], pa.binary()))
    return _sum_by(pa.table({
        "repo": batch["repo"],
        "content_sha256": batch["content_sha256"],
        "n_files": np.ones(len(batch), np.int64),
        "n_bytes": pc.cast(n_bytes, pa.int64()),
        "n_kept": pc.cast(batch["keep"], pa.int64()),
    }), ["repo", "content_sha256"])


def _per_repo(partials: pa.Table) -> pa.Table:
    """Partials -> exact (repo, content_sha256) pairs -> per repo: the
    sums plus ``n_pairs``, the repo's distinct contents."""
    pairs = _sum_by(partials, ["repo", "content_sha256"])
    pairs = pairs.drop_columns(["content_sha256"])
    return _sum_by(pairs, ["repo"], count="n_pairs")


def _repo_stats_table(t: pa.Table) -> pa.Table:
    """The REPO_STATS table, sorted by repo with null last, from per-repo
    rows."""
    import pyarrow.compute as pc

    t = t.sort_by("repo")
    return pa.table([
        t["repo"], t["n_files"], t["n_bytes"], t["n_kept"],
        pc.subtract(t["n_files"], t["n_pairs"]),
        pc.divide(pc.cast(t["n_kept"], pa.float64()),
                  pc.cast(t["n_files"], pa.float64())),
    ], schema=REPO_STATS)


def repo_stats(scrubbed: "ray.data.Dataset") -> "ray.data.Dataset":
    """A6: per-repo files/bytes/keep-rate/dup-content stats, one row per
    distinct repo (null and "" included, as SQL GROUP BY), sorted by repo
    with null last, typed as schema.REPO_STATS (empty input: no rows).

    A _keyed_reduce of the per-batch (repo, content_sha256) partials:
    in one task _per_repo folds them all; bucketed, _per_repo runs per
    content_sha256 bucket (a pair never spans buckets, and a hot repo's
    shas spread over all of them), then a bucket_shuffle on repo sums
    the at most n_buckets rows each repo left. Either way one task
    sorts and finishes the per-repo rows; no partial reaches the
    driver."""
    out = _keyed_reduce(
        scrubbed, _repo_partials,
        [("content_sha256", _per_repo), ("repo", lambda t: _sum_by(t, ["repo"]))],
        finish=_repo_stats_table,
    )
    return out if out is not None else ray.data.from_arrow(REPO_STATS.empty_table())


def salted_group_counts(ds: "ray.data.Dataset", key: str) -> "ray.data.Dataset":
    """O7: rows per distinct value of column ``key`` (null and "" included,
    as SQL GROUP BY; the key keeps its type), as columns (key, n); empty
    input gives no rows, typed (key as in ``ds``, n int64). A
    _keyed_reduce of per-batch counts: the combiner is the salt — a hot
    key reaches the reduce as at most one row per batch, never as its
    rows."""
    def count(t: pa.Table) -> pa.Table:
        return _sum_by(pa.table({key: t[key], "n": np.ones(len(t), np.int64)}), [key])

    ds = ds.select_columns([key])
    out = _sum_reduce(ds, count, [key])
    if out is None:  # no rows: count's output on none, typed as ds
        typ = _column_types(ds)[key] if ds.schema() else pa.null()
        out = ray.data.from_arrow(count(pa.table({key: pa.array([], typ)})))
    return out


def _bcast_join_batch(batch: pd.DataFrame, *, small_ref, on: str,
                      how: str) -> pd.DataFrame:
    """Task-pool body for broadcast_join (see _fetch_once)."""
    return batch.merge(_fetch_once(small_ref), on=on, how=how)


def broadcast_join(
    ds: "ray.data.Dataset", small: pd.DataFrame, on: str,
    columns: list[str] | None = None, how: str = "inner",
    concurrency: int | None = None, batch_size: int = 16384,
) -> "ray.data.Dataset":
    """§2.4: broadcast-small-side join — the dimension table is ray.put
    once and merged per batch in PLAIN TASKS with a per-worker broadcast
    cache; no shuffle, no actor-pool spin-up. This is the join-back
    pattern for per-repo stats and any dimension lookup.  `concurrency`
    (if given) caps the task parallelism; default lets the streaming
    executor size it."""
    import ray as _ray

    if columns is not None:
        small = small[[on] + [c for c in columns if c != on]]
    small_ref = _ray.put(small)

    kwargs = {"concurrency": concurrency} if concurrency is not None else {}
    return ds.map_batches(
        _bcast_join_batch, batch_format="pandas", batch_size=batch_size,
        fn_kwargs={"small_ref": small_ref, "on": on, "how": how},
        **kwargs,
    )


def hash_join(
    left: "ray.data.Dataset", right: "ray.data.Dataset", on: str,
    right_on: str | None = None, num_partitions: int | None = None,
    join_type: str = "inner", n_rows_hint: int | None = None,
) -> "ray.data.Dataset":
    """Large-large hash-partitioned join (both sides shuffled on the key).
    Uses Ray Data's native Dataset.join; partition count defaults to
    2 x cluster CPUs, or — when the caller passes ``n_rows_hint`` (e.g.
    parquet metadata row count of the larger side) — to roughly one
    partition per 100k rows, clamped to [8, 2 x CPUs].  Each partition
    costs a shuffle-aggregator actor: 64 of them on a 150k-row join was
    ~7 s of process spin-up for ~0.5 s of join work (measured).  For
    small right sides prefer broadcast_join.

    CAVEAT (Ray 2.49): the native join builds ZERO-COLUMN tables for
    partitions that receive no rows and crashes in pyarrow ("No match
    for key field") — only safe when distinct keys >> num_partitions on
    BOTH sides (true for the above-broadcast-max semi-joins here, whose
    key sets exceed 2M by contract).  For joins whose key cardinality
    can be small, join inside a bucket_shuffle instead (a partition of
    its groupby that gets no rows never reaches the join)."""
    if num_partitions is None:
        cpus = _cluster_cpus()
        if n_rows_hint is not None:
            num_partitions = max(8, min(2 * cpus, n_rows_hint // 100_000))
        else:
            num_partitions = max(8, 2 * cpus)
    return left.join(
        right, join_type=join_type, num_partitions=num_partitions,
        on=(on,), right_on=(right_on or on,),
    )


def bucket_count(n_rows: int) -> int:
    """Buckets for a bucket_shuffle over ``n_rows`` measured rows: one per
    ~1M rows, clamped to [64, 4096]. A bucket reaches its fn as ONE
    pandas frame, so ~1M rows keeps it in the low hundreds of MB on a
    worker heap at any corpus scale."""
    return max(64, min(4096, -(-n_rows // 1_000_000)))


def bucket_shuffle(
    sides: "list[ray.data.Dataset]", key: str, fn, n_buckets: int = 64,
) -> "ray.data.Dataset":
    """The one keyed exchange: every row of every side whose ``key`` hashes
    to the same coarse bucket reaches ``fn`` in ONE pandas frame (the
    bucket's rows from all sides, unordered, without the bucket column);
    ``fn`` returns that bucket's output frame or Arrow table.

    The bucket is ``pd.util.hash_array(key) % n_buckets`` over the key's
    non-null values in the column's own type, whether or not the batch
    holds a null (a null key takes bucket 0) — a keyed siphash with a
    fixed key, so equal values land together across batches, processes
    and sides (the key's type must match across sides). The
    sides are unioned as they are: callers tag them and align their
    schemas. One frame per bucket, not per key, means a vectorized
    ``fn`` handles every key in a single pass ("1/n_buckets of the
    keyspace fits a worker"), and a groupby partition that gets no
    bucket never runs ``fn``: it leaves an empty block without columns
    (concatenate Arrow output with promotion), not the crash of Ray
    2.49's native join on sparse keys (see hash_join)."""
    import pyarrow.compute as pc

    def tag(t: pa.Table) -> pa.Table:
        # non-null values only: with a null, to_numpy gives an int batch as
        # float64 (3.0 does not hash as 3 does), a bool one as object
        valid = pc.is_valid(t[key]).to_numpy(zero_copy_only=False)
        h = np.zeros(len(t), np.uint64)
        h[valid] = pd.util.hash_array(t[key].drop_null().to_numpy(zero_copy_only=False))
        return t.append_column("_bkt", pa.array((h % np.uint64(n_buckets)).astype(np.int64)))

    tagged = [s.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
              for s in sides]
    ds = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return ds.groupby("_bkt").map_groups(
        lambda g: fn(g.drop(columns="_bkt")), batch_format="pandas")


# Above this many distinct keys a membership set no longer broadcasts;
# the filter switches to a hash semi-join on the key. Read at call time
# (tests patch it to force the hash branch).
EXACT_DEDUP_BROADCAST_MAX = 2_000_000


def _is_in_batch(batch: pa.Table, *, ref, on: str) -> pa.Table:
    """Task-pool body for _keep_members' broadcast branch (see _fetch_once)."""
    import pyarrow.compute as pc

    return batch.filter(pc.is_in(batch[on], value_set=_fetch_once(ref)))


def _keep_members(
    left: "ray.data.Dataset", keys: "ray.data.Dataset", on: str,
    key_col: str, n_rows_hint: int | None,
) -> "ray.data.Dataset":
    """Rows of ``left`` whose ``on`` value is in ``keys[key_col]`` — the
    one broadcast/hash membership switch (semi_join, keep_first_by,
    exact_dedup).  ``keys`` holds non-null keys, distinct unless
    ``n_rows_hint`` fits the broadcast (the driver folds the rest).

    ``n_rows_hint`` upper-bounds the distinct key count: when it fits
    EXACT_DEDUP_BROADCAST_MAX the keys are fetched once, with no
    materialize+count sizing round.  Otherwise ``keys`` is materialized
    and counted; up to the threshold the set broadcasts (``ray.put``) and
    ``left`` filters map-only with ``pc.is_in`` — the big side never
    shuffles.  Above it the test becomes a hash (inner) join of ``left``
    against the distinct keys, which keeps left multiplicity exactly
    because the keys are unique.  That branch inherits hash_join's
    sparse-partition contract on BOTH sides: the key set exceeds the
    threshold >> partition count by construction, but ``left``'s
    distinct-key count is the caller's obligation."""
    import ray as _ray
    import pyarrow.compute as pc

    if n_rows_hint is None or n_rows_hint > EXACT_DEDUP_BROADCAST_MAX:
        keys = keys.materialize()
        if keys.count() > EXACT_DEDUP_BROADCAST_MAX:
            cols = left.schema().names
            joined = hash_join(
                left, keys.select_columns([key_col]), on=on, right_on=key_col,
            )
            return joined.select_columns(cols)
    kdf = keys.select_columns([key_col]).to_pandas()
    # Arrow's unique, not pd.unique: pandas hashes object strings as C
    # strings, so keys that differ only after a NUL (exact_dedup's row
    # keys) would collapse into one
    vals = pc.unique(pa.array(kdf[key_col]))
    return left.map_batches(
        _is_in_batch, batch_format="pyarrow", zero_copy_batch=True,
        fn_kwargs={"ref": _ray.put(vals), "on": on},
    )


def semi_join(
    left: "ray.data.Dataset", right: "ray.data.Dataset", on: str,
    right_on: str | None = None, *, n_rows_hint: int | None = None,
) -> "ray.data.Dataset":
    """Semi-join: rows of ``left`` whose ``on`` key appears at least once
    in ``right`` (SQL ``WHERE on IN (SELECT right_on FROM right)``) —
    completes the §2.4 join family beside broadcast/hash/asof/range/anti.

    The right side reduces to its DISTINCT key set first — a
    _keyed_reduce whose per-batch ``pc.unique`` combiner (nulls dropped,
    as SQL IN never matches them) is also its fold — then _keep_members
    filters ``left`` by broadcast ``pc.is_in`` or, above
    EXACT_DEDUP_BROADCAST_MAX distinct keys, a hash join.  A left side
    keyed by a small enum cannot take the hash branch (its empty
    partitions crash the Ray 2.49 native join; see hash_join's CAVEAT);
    it matches at most |left keys| right keys anyway, so reduce the
    right side to those first (a semi_join the other way round, which
    broadcasts).

    ``n_rows_hint``: upper bound on the right side's distinct key count
    (e.g. its parquet-metadata row count); when it fits the broadcast
    _keep_members skips its materialize+count sizing round."""
    import pyarrow.compute as pc

    right_on = right_on or on

    def distinct(t: pa.Table) -> pa.Table:
        return pa.table({right_on: pc.unique(t[right_on]).drop_null()})

    keys = _keyed_reduce(
        right.select_columns([right_on]), distinct, [(right_on, distinct)],
    )
    if keys is None:
        return left.limit(0)
    return _keep_members(left, keys, on, right_on, n_rows_hint)


def _column_types(ds: "ray.data.Dataset") -> dict[str, pa.DataType]:
    """{column: Arrow type} of ``ds.schema()``. Arrow-backed blocks report
    Arrow types and numpy-backed columns numpy dtypes; a pandas object
    column carries no type, so it is inferred from the first block that
    holds a non-null value of it. Strings give pa.string(), and so does a
    column with no value at all (nothing contradicts it); any other
    content (bytes, ints, structs, ...) raises TypeError naming the
    column instead of being padded or cast as a string."""
    schema = ds.schema()
    out = {}
    for name, t in zip(schema.names, schema.types):
        if isinstance(t, pa.DataType):
            out[name] = t
        # equality, not identity: np.dtype('O') == object but is NOT it
        elif t == object or t is str:
            out[name] = _object_column_type(ds, name)
        else:
            out[name] = pa.from_numpy_dtype(np.dtype(t))
    return out


def _object_column_type(ds: "ray.data.Dataset", name: str) -> pa.DataType:
    for b in ds.select_columns([name]).iter_batches(
        batch_format="pyarrow", batch_size=None,
    ):
        t = b.schema.field(name).type
        if pa.types.is_null(t):
            continue  # this block holds no value of the column
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            return pa.string()
        raise TypeError(
            f"column {name!r} is a pandas object column holding {t} "
            f"values; only string object columns are supported — convert "
            f"it to an Arrow-typed column first"
        )
    return pa.string()


def _full_outer_batch(batch: pa.Table, *, small_ref, on: str,
                      out_names: list[str]) -> pa.Table:
    """Task-pool body for full_outer_join's streaming half: per-batch
    Arrow (Acero) LEFT OUTER join against the broadcast dimension table
    (fetched once per worker, see _fetch_once).  Arrow keeps
    int64-with-null exact where a pandas merge would promote to
    float64."""
    small = _fetch_once(small_ref)
    return batch.join(small, keys=[on], join_type="left outer").select(out_names)


def full_outer_join(
    ds: "ray.data.Dataset", small: pd.DataFrame, on: str,
    right_on: str | None = None, *, batch_size: int = 16384,
) -> "ray.data.Dataset":
    """§2.4 family closer: FULL OUTER join with a broadcast small side
    (beside broadcast/hash/asof/range/anti/semi).

    Semantics = SQL FULL OUTER JOIN with the two key columns COALESCEd
    into ``on``: the output key column is non-null for every matched or
    left-only row (left key) and every right-only row (right key); a
    right row whose key is null stays unmatched, like SQL.

    Scale shape: the big side streams MAP-ONLY through a per-batch Acero
    left-outer join against the ray.put dimension table — no shuffle.
    Which small-side keys matched anywhere is collected by a keys-only
    combiner pass (per-batch unique INTERSECTED with the small key set,
    so each batch ships at most |small| keys and the driver union is
    bounded the same way); the unmatched small rows are then appended
    null-padded via from_arrow. Contract: ``small`` must fit a broadcast
    (same as broadcast_join) — the left side is unbounded. The keys pass
    replays the left lineage once (projected to the key column), the
    same two-execution cost semi_join pays for its key set.
    """
    import pyarrow.compute as pc
    import ray as _ray

    right_on = right_on or on
    small = small.rename(columns={right_on: on}) if right_on != on else small

    left_types = _column_types(ds)
    left_names = list(left_types)

    small_tbl = pa.Table.from_pandas(small, preserve_index=False)
    for i, f in enumerate(small_tbl.schema):
        if pa.types.is_null(f.type):
            # an object column with no value infers Arrow null, which
            # Acero rejects as a join payload: string, as in
            # _column_types (from_pandas types every non-empty one)
            small_tbl = small_tbl.set_column(
                i, pa.field(f.name, pa.string()),
                small_tbl.column(i).cast(pa.string()),
            )
    key_idx = small_tbl.column_names.index(on)
    if small_tbl.schema.field(on).type != left_types[on]:
        small_tbl = small_tbl.set_column(
            key_idx, pa.field(on, left_types[on]),
            small_tbl[on].cast(left_types[on]),
        )
    right_value_names = [c for c in small_tbl.column_names if c != on]
    out_names = left_names + right_value_names

    small_ref = _ray.put(small_tbl)
    joined = ds.map_batches(
        _full_outer_batch, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size,
        fn_kwargs={"small_ref": small_ref, "on": on, "out_names": out_names},
    )

    # keys-only combiner pass: which small keys matched anywhere?
    key_set = small_tbl[on].combine_chunks().unique().drop_null()
    kref = _ray.put(key_set)

    def matched_keys(t: pa.Table, _c=on) -> pa.Table:
        want = _fetch_once(kref)
        hits = pc.filter(t[_c], pc.is_in(t[_c], value_set=want))
        return pa.table({_c: pc.unique(hits)})

    mk = ds.select_columns([on]).map_batches(
        matched_keys, batch_format="pyarrow", zero_copy_batch=True,
    ).to_pandas()
    # stay in Arrow for the membership test: a pandas detour promotes
    # int64-with-null to float64, which collapses keys >= 2^53.
    # (all-empty blocks can drop the column in to_pandas)
    if on in mk.columns and len(mk):
        mk_arr = pc.unique(pa.array(mk[on]).cast(left_types[on]))
    else:
        mk_arr = pa.array([], type=left_types[on])
    matched = pc.fill_null(
        pc.is_in(small_tbl[on], value_set=mk_arr), False
    )  # null small keys never match (SQL) -> kept as right-only
    rem = small_tbl.filter(pc.invert(matched))

    rem_cols = {}
    for c in left_names:
        if c == on:
            rem_cols[c] = rem[on]
        else:
            rem_cols[c] = pa.nulls(rem.num_rows, type=left_types[c])
    for c in right_value_names:
        rem_cols[c] = rem[c]
    rem_tbl = pa.table([rem_cols[c] for c in out_names], names=out_names)
    return joined.union(ray.data.from_arrow(rem_tbl))


def _row_key_col(t: pa.Table) -> pa.Array:
    """Unique sortable row key: repo \\x00 path \\x00 commit. The \\x00
    separator (smaller than any content byte) makes string order equal
    tuple order, so Min over it == first (repo, path, commit)."""
    import pyarrow.compute as pc

    return pc.binary_join_element_wise(
        t["repo"], t["path"], t["commit"], "\x00"
    )


def asof_join(
    left: "ray.data.Dataset", right: "ray.data.Dataset", *,
    on: str, by: str, right_cols: list[str], right_suffix: str = "_r",
) -> "ray.data.Dataset":
    """As-of join (backward, inclusive): for each left row, the latest
    right row with right.on <= left.on within the same `by` group —
    an operator Ray Data lacks, composed per the charter's recipe:
    tag sides -> schema-aligned union -> ONE bucket_shuffle on `by` that
    co-partitions both sides, then a vectorized per-bucket
    `pd.merge_asof(..., by=by)`.

    One merge_asof per coarse bucket handles every key in the bucket in
    a single cython pass (both sides sorted by `on`; `by=` keeps groups
    separate), where thousands of per-key pandas groups would each pay
    Python dispatch. Partitioning assumption therefore RELAXES from "one
    key group fits a worker" to "1/64 of the keyspace fits a worker" —
    hot single keys no longer pin a task, only hash collisions of many
    hot keys could.

    Exact-tie right rows on `on` resolve to the last in (on, original
    order) — only relevant when two right rows share an identical
    timestamp."""
    l_cols = left.schema().names
    all_cols = list(l_cols) + [c for c in right.schema().names if c not in l_cols]

    def tag(side: int, schema_cols, other_types):
        def fn(t: pa.Table) -> pa.Table:
            t = t.append_column("_side", pa.array(np.full(len(t), side, np.int8)))
            for c, typ in other_types.items():
                if c not in t.column_names:
                    t = t.append_column(c, pa.nulls(len(t), typ))
            return t.select(schema_cols + ["_side"])
        return fn

    l_types = _column_types(left)
    r_types = _column_types(right)
    union_types = {**r_types, **l_types}
    lt = left.map_batches(
        tag(0, all_cols, {c: t for c, t in union_types.items() if c not in l_types}),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    rt = right.map_batches(
        tag(1, all_cols, {c: t for c, t in union_types.items() if c not in r_types}),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    keep_right = [on] + [c for c in right_cols if c != on]
    # the union null-pads each side's missing columns, which upcasts
    # integer columns to float in the pandas group frames — restore the
    # left side's integer dtypes (left rows have no nulls in own columns;
    # caveat: the float round-trip caps exact integers at 2^53)
    l_int_cols = [c for c, t in l_types.items() if pa.types.is_integer(t)]
    # suffixed right columns can be null (unmatched left rows), so pin
    # integer right_cols to pandas nullable Int64 in EVERY group — without
    # this, all-matched groups emit int64 and partially-matched groups
    # float64, and the map_groups blocks disagree on schema
    r_out_dtypes = {
        c + right_suffix: ("Int64" if pa.types.is_integer(r_types[c]) else "float64")
        for c in keep_right if c != on
    }

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized merge_asof handles EVERY key in the bucket:
        # both sides sorted by `on` (stable, so right exact-ties resolve
        # to last-in-original-order, same as the per-key formulation),
        # `by=` keeps keys separate inside the single cython pass
        lg = g[g["_side"] == 0].sort_values(on, kind="mergesort")
        rg = g[g["_side"] == 1].sort_values(on, kind="mergesort")
        lg = lg[[c for c in l_cols]]
        for c in l_int_cols:
            vals = lg[c].to_numpy()
            if len(vals) and np.abs(vals).max() >= 2.0 ** 53:
                raise ValueError(
                    f"asof_join: left integer column {c!r} holds values >= "
                    f"2^53, which the null-padded union's float64 round-trip "
                    f"cannot represent exactly — restoring would silently "
                    f"corrupt ids. Cast the column to string before the join "
                    f"or drop it from the left side."
                )
            lg[c] = lg[c].astype("int64")
        if lg.empty:
            return lg.assign(**{
                c: pd.Series(dtype=dt) for c, dt in r_out_dtypes.items()
            })
        rsel = rg[keep_right].rename(
            columns={c: c + right_suffix for c in keep_right if c != on}
        )
        rsel[by] = rg[by].to_numpy()  # match key (post-rename: safe even
        if rsel[by].dtype != lg[by].dtype:  # if by itself is a right_col)
            rsel[by] = rsel[by].astype(lg[by].dtype)
        out = pd.merge_asof(lg, rsel, on=on, by=by, direction="backward")
        for c, dt in r_out_dtypes.items():
            out[c] = out[c].astype(dt)
        return out

    return bucket_shuffle([lt, rt], by, join_bucket)


def broadcast_range_join(
    ds: "ray.data.Dataset", intervals: pd.DataFrame, value_col: str, *,
    lo_col: str = "lo", hi_col: str = "hi",
) -> "ray.data.Dataset":
    """Non-equi (range) join: each row is matched to the interval
    [lo, hi) containing row[value_col]; interval attributes are appended.
    The interval table is broadcast once (ray.put) and the match is a
    vectorized searchsorted — no shuffle, the big side streams.

    Requires non-overlapping intervals sorted by lo (validated here);
    rows outside every interval are dropped (inner-join semantics)."""
    import ray as _ray

    iv = intervals.sort_values(lo_col).reset_index(drop=True)
    if not (iv[hi_col].values[:-1] <= iv[lo_col].values[1:]).all() or \
       not (iv[lo_col].values < iv[hi_col].values).all():
        raise ValueError("intervals must be non-overlapping, lo < hi")
    ref = _ray.put(iv)

    def match(batch: pa.Table) -> pa.Table:
        table = _fetch_once(ref)
        lo = table[lo_col].to_numpy()
        hi = table[hi_col].to_numpy()
        v = batch[value_col].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(lo, v, side="right") - 1
        idx_c = np.clip(idx, 0, len(lo) - 1)
        ok = (idx >= 0) & (v < hi[idx_c])
        batch = batch.filter(pa.array(ok))
        sel = idx_c[ok]
        for c in table.columns:
            if c in (lo_col, hi_col) or c in batch.column_names:
                continue
            batch = batch.append_column(c, pa.array(table[c].values[sel]))
        return batch

    return ds.map_batches(match, batch_format="pyarrow", zero_copy_batch=True)


def keep_first_by(
    ds: "ray.data.Dataset", *, group_col: str, order_col: str,
    n_rows_hint: int | None = None,
    filter_ds: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """Generic keep-first: retain the row with the minimum order_col per
    group_col (a null group_col is a group, as in SQL GROUP BY). The wide
    op moves only (group, order) key pairs: a _keyed_reduce whose
    per-batch Arrow ``min`` per group (exact on strings, nulls ignored)
    is also its fold; the winner order values then filter the rows
    through _keep_members (broadcast pc.is_in, or a hash semi-join above
    EXACT_DEDUP_BROADCAST_MAX winners). Requires order_col values to be
    globally unique (winner membership tests order_col alone).

    `n_rows_hint` (e.g. parquet metadata row count) is an UPPER BOUND on
    the winner count (winners <= input rows): when it fits the broadcast
    the materialize+count sizing round is skipped and the winner fetch is
    a single execution.

    `filter_ds`: because winner membership tests order_col alone, the
    second (filter) pass does not need group_col — when group_col was
    derived by an expensive map stage (e.g. sha256 over text), pass the
    UPSTREAM dataset here so that stage's lineage is not re-executed on
    the filter pass. Must hold the same rows as `ds` keyed by order_col;
    defaults to `ds`."""
    rows = ds if filter_ds is None else filter_ds

    def first(t: pa.Table, order: str) -> pa.Table:
        g = t.group_by(group_col, use_threads=False).aggregate([(order, "min")])
        return pa.table([g[group_col], g[f"{order}_min"]], names=[group_col, "_win"])

    winners = _keyed_reduce(
        ds.select_columns([group_col, order_col]),
        lambda t: first(t, order_col), [(group_col, lambda t: first(t, "_win"))],
    )
    if winners is None:
        return rows.limit(0)
    return _keep_members(rows, winners, order_col, "_win", n_rows_hint)


def exact_dedup(
    scrubbed: "ray.data.Dataset", *, n_rows_hint: int | None = None,
) -> "ray.data.Dataset":
    """§2.7: keep the first (repo, path, commit) per content_sha256 —
    keep_first_by over the row key ``repo \\x00 path \\x00 commit``.
    `n_rows_hint` upper-bounds the winner count and skips the
    materialize+count sizing round when it fits the broadcast.

    The wide op moves only KEYS, never content: the aggregate reads a
    (sha, row_key) projection — ~100 B/row — and the winner row-keys
    filter the corpus map-only (broadcast pc.is_in) or, above
    EXACT_DEDUP_BROADCAST_MAX winners, through a hash semi-join on the
    row key, where the content column crosses the wire once.
    Assumes (repo, path, commit) identifies a row (exact full-duplicate
    rows would all be kept).

    Both passes execute `scrubbed`'s lineage; run this over the WRITTEN
    flagship output (a parquet read), not the live scrub pipeline, or
    the scrub stage executes twice — the checkpointed flow in
    checkpoint.run_partitioned already has this shape."""
    keys = scrubbed.select_columns(
        ["content_sha256", "repo", "path", "commit"]
    ).map_batches(
        lambda t: pa.table(
            {"content_sha256": t["content_sha256"], "rk": _row_key_col(t)}
        ),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    with_rk = scrubbed.map_batches(
        lambda t: t.append_column("rk", _row_key_col(t)),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return keep_first_by(
        keys, group_col="content_sha256", order_col="rk",
        n_rows_hint=n_rows_hint, filter_ds=with_rk,
    ).drop_columns(["rk"])


def topn_per_key(
    ds: "ray.data.Dataset", *, key: str, order_by: list[str],
    ascending: list[bool], n: int, rank_col: str = "rnk",
) -> "ray.data.Dataset":
    """Top-n rows per key with a 1-based int64 rank column (SQL:
    row_number() OVER (PARTITION BY key ORDER BY ...) <= n; a null key is
    a partition) — a _keyed_reduce:

    1. per-batch vectorized TRIM (one mergesort + groupby.head — no
       per-group Python): at most n rows per (key, batch) survive, so the
       reduce moves candidates, never the full table;
    2. the same sort + head, plus the rank, over the trimmed candidates:
       in one task, or per bucket of the key (the output then stays
       distributed).

    `order_by` must be a TOTAL order (include a unique tiebreak column),
    otherwise the two regimes — and reruns — may disagree on rank ties."""
    def top(t: pa.Table, rank: bool) -> pa.Table:
        df = t.to_pandas().sort_values(order_by, ascending=ascending, kind="mergesort")
        df = df.groupby(key, sort=False, dropna=False).head(n)
        schema = t.schema
        if rank:
            df[rank_col] = df.groupby(key, sort=False, dropna=False).cumcount().to_numpy() + 1
            schema = schema.append(pa.field(rank_col, pa.int64()))
        # no pandas metadata: Ray cannot hash it when it unifies block schemas
        return pa.Table.from_pandas(
            df, schema=schema, preserve_index=False).replace_schema_metadata()

    out = _keyed_reduce(ds, lambda t: top(t, False), [(key, lambda t: top(t, True))])
    return out if out is not None else ds.limit(0)


def per_key_ordered(
    ds: "ray.data.Dataset", *, key: str, order_by: list[str], fn,
) -> "ray.data.Dataset":
    """Distributed per-key ordered-log op (lag / sessionize / sliding
    window / rank) over ONE bucket_shuffle on `key`: `fn` receives a
    single pandas frame holding every row of a bucket's keys sorted by
    (key, *order_by).

    `fn` must be a vectorized frame-level function — typically a pandas
    `groupby(key)` shift/rolling/cumsum, which runs in one cython pass
    over the whole bucket — NOT a per-key callback. Compared to
    `ds.groupby(key).map_groups(per_key_fn)` this trades millions of
    tiny per-key pandas frames (each paying Python dispatch) for 64
    large ones, the same relaxation as `asof_join`: "1/64 of the
    keyspace fits a worker" instead of "every key group is dispatched
    separately"."""
    return bucket_shuffle(
        [ds], key,
        lambda g: fn(g.sort_values([key, *order_by], kind="mergesort")),
    )
