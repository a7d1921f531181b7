"""One benchmark run inside Ray sessions: set-up, timed jobs, checks and,
when traced, the per-layer ledger.

``run.py`` starts this module as its own process (so that a hang can be
killed and the driver's peak RSS is the job's alone) and reads what it
appends, one JSON record per line, to the progress file named in the
spec. Kinds of record: ``setup``, ``start`` (an operation began),
``iter`` (a job finished and was checked), ``error`` (a job raised),
``layers`` (the traced ledger) and ``done``.

    python3 -m perfbench.worker SPEC.json
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import fixtures
from perfbench.ledger import Tracer, row_ledger

MIN_ITERS_PER_SESSION = 1


@dataclass
class Ctx:
    """Inputs and scratch space of one job."""
    workload: str
    files: list[str]
    rows: int
    work: Path
    fixture: Path | None = None  # None: no expected values, checks off
    corrupt: bool = False


class Progress:
    def __init__(self, path: Path):
        self._f = open(path, "a", encoding="utf-8")

    def put(self, kind: str, **rec) -> None:
        self._f.write(json.dumps({"kind": kind, "t": time.time(), **rec}) + "\n")
        self._f.flush()

    def close(self) -> None:
        self._f.close()


# ------------------------------------------------------------ set-up

def ray_init(spec: dict) -> None:
    import ray
    from ray.data import DataContext

    kw = {}
    if spec.get("ray_temp_dir"):
        kw["_temp_dir"] = spec["ray_temp_dir"]
    ray.init(
        address="local", num_cpus=spec["num_cpus"], include_dashboard=False,
        logging_level="ERROR", object_store_memory=spec["object_store_bytes"], **kw,
    )
    DataContext.get_current().enable_progress_bars = False


def warm(ctx: Ctx) -> None:
    """One small untimed batch through the workload's Ray path: worker
    processes start and import the engine here."""
    import ray.data as rd

    from pipeline.partition import exact_dedup
    from pipeline.ray_pipeline import conformance_pipeline, flagship_pipeline, read_code_table

    if ctx.workload == "pii_dense_scrub":
        conformance_pipeline(rd.read_parquet(ctx.files).limit(64), batch_size=32).materialize()
    elif ctx.workload == "dedup_shuffle":
        exact_dedup(rd.read_parquet(ctx.files).limit(256), n_rows_hint=256).materialize()
    else:
        flagship_pipeline(
            read_code_table(ctx.files).limit(256), n_rows_hint=256, batch_size=128,
        ).materialize()


def setup(spec: dict, ctx: Ctx) -> dict:
    """ray.init, model fit and broadcast, warm batch. The models' per-process
    caches are cleared first so that every set-up pays the fit."""
    import ray

    from pipeline.quality.langid import LangIdModel
    from pipeline.quality.perplexity import PerplexityModel

    t0 = time.perf_counter()
    ray_init(spec)
    t1 = time.perf_counter()
    LangIdModel._default = None
    PerplexityModel._default = None
    ray.put(LangIdModel.default())
    ray.put(PerplexityModel.default())
    t2 = time.perf_counter()
    warm(ctx)
    t3 = time.perf_counter()
    return {"ray_init_s": t1 - t0, "model_fit_s": t2 - t1, "warm_s": t3 - t2, "setup_s": t3 - t0}


# -------------------------------------------------------------- jobs

def keep_with_nbytes(t: pa.Table) -> pa.Table:
    """Sink-side keep filter that also records each row's byte length, so
    the repo_stats fork never re-reads the content column."""
    t = t.filter(pc.equal(t["keep"], True))
    nb = pc.binary_length(pc.cast(t["content"], pa.binary()))
    return t.append_column("n_bytes", pc.cast(nb, pa.int64()))


def job_code_flagship(ctx: Ctx, tr: Tracer) -> dict:
    import ray.data as rd

    from pipeline.partition import repo_stats
    from pipeline.ray_pipeline import flagship_pipeline, read_code_table

    out = ctx.work / "out"
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    with tr.span("job"):
        with tr.span("read_to_write"):
            flagship_pipeline(read_code_table(ctx.files), n_rows_hint=ctx.rows).map_batches(
                keep_with_nbytes, batch_format="pyarrow", zero_copy_batch=True,
            ).write_parquet(str(out))
        t1 = time.perf_counter()
        with tr.span("repo_stats"):
            stats = repo_stats(rd.read_parquet(
                str(out), columns=["repo", "content_sha256", "keep", "n_bytes"],
            )).to_pandas()
    t2 = time.perf_counter()
    rec = {"rows_per_s": ctx.rows / (t1 - t0), "job_s": t2 - t0}
    return rec | check_code_flagship(ctx, out, stats)


def check_code_flagship(ctx: Ctx, out: Path, stats: pd.DataFrame) -> dict:
    """Oracle parity on the seeded sample rows (kept rows must be written
    with the oracle's sha256 and no drop reason, dropped rows must be
    absent) and repo_stats totals against a pandas recomputation."""
    if ctx.fixture is None:
        return {"attempted": 1, "failed": 0}
    got = pq.read_table(out).select(
        ["repo", "path", "commit", "content_sha256", "keep", "drop_reason", "n_bytes"],
    ).to_pandas()
    got["rk"] = fixtures.row_key(got)
    exp = pq.read_table(ctx.fixture / "oracle_sample.parquet").to_pandas()
    if ctx.corrupt:
        victim = got.index[got["rk"].isin(exp["rk"])][0]
        got.loc[victim, "content_sha256"] = "0" * 64
    m = exp.merge(got, on="rk", how="left", suffixes=("", "_got"), indicator=True)
    present = m["_merge"] == "both"
    ok_kept = (
        present & (m["content_sha256_got"] == m["content_sha256"])
        & m["keep_got"].eq(True) & m["drop_reason_got"].isna()
    )
    row_ok = (m["keep"] & ok_kept) | (~m["keep"] & ~present)
    failed = int((~row_ok).sum())

    dup = got.groupby(["repo", "content_sha256"]).size().sub(1).groupby(level=0).sum()
    want = got.groupby("repo").agg(
        n_files=("rk", "size"), n_bytes=("n_bytes", "sum"), n_kept=("keep", "sum"),
    )
    want["n_dup_content"] = dup
    have = stats.set_index("repo")[want.columns].reindex(want.index)
    repo_fail = int((have != want).any(axis=1).sum()) + len(set(stats["repo"]) - set(want.index))
    return {
        "attempted": 1 + len(m) + len(want), "failed": failed + repo_fail,
        "keep_frac": float(got["keep"].sum()) / ctx.rows,
    }


def job_pii_dense_scrub(ctx: Ctx, tr: Tracer) -> dict:
    import ray.data as rd

    from pipeline.ray_pipeline import conformance_pipeline

    out = ctx.work / "out"
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    with tr.span("job"):
        with tr.span("read_to_write"):
            conformance_pipeline(rd.read_parquet(ctx.files)).write_parquet(str(out))
    t1 = time.perf_counter()
    got = pq.read_table(out, columns=["content_sha256", "expected_sha256"]).to_pandas()
    if ctx.corrupt:
        got.loc[0, "content_sha256"] = "0" * 64
    failed = int((got["content_sha256"] != got["expected_sha256"]).sum()) + abs(ctx.rows - len(got))
    return {
        "rows_per_s": ctx.rows / (t1 - t0), "job_s": t1 - t0,
        "attempted": 1 + ctx.rows, "failed": failed,
    }


def job_dedup_shuffle(ctx: Ctx, tr: Tracer) -> dict:
    import ray.data as rd

    from pipeline.partition import exact_dedup, salted_group_counts

    out = ctx.work / "out"
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    with tr.span("job"):
        with tr.span("exact_dedup"):
            exact_dedup(rd.read_parquet(ctx.files), n_rows_hint=ctx.rows).write_parquet(str(out))
        with tr.span("salted_group_counts"):
            counts = salted_group_counts(rd.read_parquet(ctx.files), "repo").to_pandas()
    t1 = time.perf_counter()
    kept = pq.read_table(out, columns=["repo", "path", "commit"]).to_pandas()
    rec = {
        "rows_per_s": ctx.rows / (t1 - t0), "job_s": t1 - t0,
        "dup_frac": 1.0 - len(kept) / ctx.rows,
    }
    if ctx.fixture is None:
        return rec | {"attempted": 1, "failed": 0}
    got = set(fixtures.row_key(kept))
    if ctx.corrupt:
        got.pop()
    want = set(pq.read_table(ctx.fixture / "expected_winners.parquet")["rk"].to_pylist())
    exp = pq.read_table(ctx.fixture / "expected_repo_counts.parquet").to_pandas().set_index("repo")["n"]
    have = counts.set_index("repo")["n"].reindex(exp.index)
    failed = len(got ^ want) + int((have != exp).sum()) + len(set(counts["repo"]) - set(exp.index))
    return rec | {"attempted": 1 + len(want) + len(exp), "failed": failed}


def job_partitioned_resume(ctx: Ctx, tr: Tracer) -> dict:
    """Full partitioned run, then every other manifest is removed and a
    stale half-write is left in _tmp, then the resume."""
    import ray.data as rd

    from pipeline.checkpoint import global_ledger, partition_ledger, run_partitioned

    out = ctx.work / "parts"
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    with tr.span("job"):
        with tr.span("run_partitioned"):
            s1 = run_partitioned(ctx.files, out)
    t1 = time.perf_counter()
    led1 = global_ledger(out)
    mdir = out / "_manifests"
    before = {p.name: (p.read_text(), p.stat().st_mtime_ns) for p in sorted(mdir.glob("part-*.json"))}
    first = [json.loads(text) for text, _ in before.values()]
    dropped = sorted(before)[::2]
    for name in dropped:
        (mdir / name).unlink()
    stale = out / "_tmp" / Path(dropped[0]).stem
    stale.mkdir(parents=True, exist_ok=True)
    (stale / "half-written.parquet").write_bytes(b"PAR1 truncated")
    t2 = time.perf_counter()
    with tr.span("resume"):
        s2 = run_partitioned(ctx.files, out)
    t3 = time.perf_counter()
    if tr.enabled:
        with tr.span("partition_ledger"):
            partition_ledger(rd.read_parquet(sorted(str(p) for p in out.glob("part-*/*.parquet"))))
    led2 = global_ledger(out)

    n_parts = len(before)
    after = {p.name: (p.read_text(), p.stat().st_mtime_ns) for p in sorted(mdir.glob("part-*.json"))}
    part_fail = 0
    for name, (text, mtime) in before.items():
        if name not in after:
            part_fail += 1
        elif name in dropped:  # recomputed: same rows and ledger, new manifest
            old, new = json.loads(text), json.loads(after[name][0])
            part_fail += (old["ledger256"], old["n_rows"]) != (new["ledger256"], new["n_rows"])
        else:  # skipped: manifest untouched
            part_fail += after[name] != (text, mtime)
    if ctx.corrupt:
        led2 = "0" * 64
    run_fail = (
        (s1["partitions_run"] != n_parts)
        + (s2 != {"partitions_run": len(dropped), "partitions_skipped": n_parts - len(dropped),
                  "total_rows": s1["total_rows"]})
        + stale.exists()
    )
    return {
        "rows_per_s": ctx.rows / (t1 - t0), "job_s": t1 - t0, "resume_s": t3 - t2,
        "attempted": 2 + n_parts + 1, "failed": part_fail + int(run_fail) + (led1 != led2),
        "partition_s": [m["wall_sec"] for m in first],
        "partition_rows": [m["n_rows"] for m in first],
        "partitions_run": s2["partitions_run"], "partitions_skipped": s2["partitions_skipped"],
    }


JOBS = {
    "code_flagship": job_code_flagship,
    "pii_dense_scrub": job_pii_dense_scrub,
    "dedup_shuffle": job_dedup_shuffle,
    "partitioned_resume": job_partitioned_resume,
}


def run_iter(prog: Progress, ctx: Ctx, tr: Tracer, i: int) -> dict | None:
    prog.put("start", op=f"{ctx.workload}#{i}", traced=tr.enabled)
    try:
        rec = JOBS[ctx.workload](ctx, tr)
    except Exception:  # a failed job is a failed operation; the run goes on
        prog.put("error", op=f"{ctx.workload}#{i}", error=traceback.format_exc())
        return None
    prog.put("iter", traced=tr.enabled, **rec)
    return rec


# ------------------------------------------------------------ ledger

# row layers each workload's timed job runs (subtracted for ray_overhead)
ON_PATH_LAYERS = {
    "code_flagship": ("read", "heuristics", "langid", "perplexity", "scrub", "decide", "write"),
    "partitioned_resume": ("read", "heuristics", "langid", "perplexity", "scrub", "decide", "write"),
    "pii_dense_scrub": ("read", "scrub", "write"),
    "dedup_shuffle": ("read",),
}


def probe_ctxs(spec: dict, code: pa.Table) -> dict[str, Ctx]:
    """Small inputs for the wide layers the workload's own job does not
    call: the ledger code rows, raw and scored in-process, in 4 files."""
    base = Path(spec["work"]) / "probe"
    shutil.rmtree(base, ignore_errors=True)
    raw, scored = base / "raw", base / "scored"
    raw.mkdir(parents=True)
    scored.mkdir()
    raw_files = fixtures.write_split(code, raw, 4)
    scored_files = fixtures.write_split(fixtures.score_in_process(code), scored, 4)
    n = len(code)
    return {
        "code_flagship": Ctx("code_flagship", raw_files, n, base / "cf"),
        "dedup_shuffle": Ctx("dedup_shuffle", scored_files, n, base / "dd"),
        "partitioned_resume": Ctx("partitioned_resume", raw_files, n, base / "pr"),
    }


def layer_metrics(spec: dict, ctx: Ctx, tr: Tracer, setups: list[dict],
                  untraced: list[dict], traced: list[dict]) -> dict:
    wl = ctx.workload
    fx = Path(spec["fixture"])
    code = fixtures.ledger_code(fx, wl, spec["seed"], spec["size"])
    scrub_input = None
    if wl == "pii_dense_scrub":
        scrub_input = pq.read_table(ctx.files).slice(0, fixtures.LEDGER_ROWS[spec["size"]])
    m, flagship_us = row_ledger(
        tr, code=code, read_files=ctx.files, scrub_input=scrub_input, scrub_column="text",
        scrub_profile="conformance", write_dir=Path(spec["work"]) / "ledger_out",
    )

    # wide layers off this workload's path: one probe each
    probes = [w for w in ("code_flagship", "dedup_shuffle", "partitioned_resume") if w != wl]
    recs = {wl: traced}
    with tr.span("probe"):
        for w, pctx in probe_ctxs(spec, code).items():
            if w in probes:
                recs[w] = [JOBS[w](pctx, tr)]

    med = statistics.median
    part = recs["partitioned_resume"]
    part_s = [s for r in part for s in r["partition_s"]]
    rows_per_part = med([n for r in part for n in r["partition_rows"]])
    e2e_us = 1e6 / med(r["rows_per_s"] for r in untraced)
    m.update({
        "ray_overhead.us_per_row": e2e_us - sum(m[f"{k}.us_per_row"] for k in ON_PATH_LAYERS[wl]),
        "repo_stats.s": med(tr.durations("repo_stats")),
        "exact_dedup.s": med(tr.durations("exact_dedup")),
        "exact_dedup.dup_frac": med(r["dup_frac"] for r in recs["dedup_shuffle"]),
        "salted_group_counts.s": med(tr.durations("salted_group_counts")),
        "checkpoint.partition_s.median": med(part_s),
        "checkpoint.partition_s.max": max(part_s),
        "checkpoint.resume_s": med(r["resume_s"] for r in part),
        "checkpoint.ledger_s": med(tr.durations("partition_ledger")),
        "checkpoint.fixed_s_per_partition": med(part_s) - rows_per_part * flagship_us / 1e6,
        "checkpoint.partitions_run": med(r["partitions_run"] for r in part),
        "checkpoint.partitions_skipped": med(r["partitions_skipped"] for r in part),
        "setup.ray_init_s": med(s["ray_init_s"] for s in setups),
        "setup.model_fit_s": med(s["model_fit_s"] for s in setups),
        "setup.warm_s": med(s["warm_s"] for s in setups),
        "trace.overhead_rows_per_s": (
            med(r["rows_per_s"] for r in untraced) - med(r["rows_per_s"] for r in traced)
        ),
    })
    return m


# -------------------------------------------------------------- main

def main(spec_path: str) -> int:
    import ray

    spec = json.loads(Path(spec_path).read_text())
    prog = Progress(Path(spec["progress"]))
    work = Path(spec["work"])
    ctx = Ctx(
        spec["workload"], spec["files"], spec["rows"], work / "job",
        fixture=Path(spec["fixture"]), corrupt=spec["corrupt"],
    )
    setups: list[dict] = []
    tracer = Tracer(ctx.workload, enabled=True)
    quiet = Tracer(ctx.workload, enabled=False)
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        i = 0
        for k in range(spec["setups"]):
            if k:
                ray.shutdown()
            prog.put("start", op=f"setup#{k}")
            setups.append(setup(spec, ctx))
            prog.put("setup", **setups[-1])
            # each session measures its share of the window, so that one
            # slow session or stretch of host time weighs less
            t0 = time.perf_counter()
            first = i
            while (time.perf_counter() - t0 < spec["seconds"] / spec["setups"]
                   or i - first < MIN_ITERS_PER_SESSION):
                # a traced run alternates untraced and traced jobs
                on = spec["trace"] and i % 2 == 1
                rec = run_iter(prog, ctx, tracer if on else quiet, i)
                if rec is not None:
                    (traced if on else untraced).append(rec)
                i += 1
                if i >= 8 and not (untraced or traced):
                    break  # every job raised; stop early
        if spec["trace"] and untraced and traced:
            prog.put("start", op="ledger")
            metrics = layer_metrics(spec, ctx, tracer, setups, untraced, traced)
            tracer.dump(Path(spec["spans"]))
            prog.put("layers", metrics=metrics, self_s=tracer.self_times())
    finally:
        ray.shutdown()
        prog.put("done", peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        prog.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
