"""Benchmark harness.

Default: one JSON line
  {"metric": "...", "value": <headline sec>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, ...}

Headline = flagship quality-filter + scrub pipeline over a deterministic
synthetic code_files table (GRAFT_BENCH_ROWS rows, cached under /tmp),
consumed by write_parquet + repo stats — i.e. read -> 5 map stages ->
sink + one grouped aggregate. Per-query timings cover the SURVEY.md §2
query surface over $GRAFT_SF_DIR.

--scaling: same job in two fresh processes at num_cpus=8 and 32 on the
same input; prints both throughputs and efficiency = (t8/t32)/4, and
records them in BENCH/SCALING.json (summarized in BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_ROWS = int(os.environ.get("GRAFT_BENCH_ROWS", "100000"))
BENCH_LINES = int(os.environ.get("GRAFT_BENCH_LINES", "40"))
FIXTURE_DIR = Path(f"/tmp/graft_bench/code_{BENCH_ROWS}_l{BENCH_LINES}")
SCRATCH = Path("/tmp/graft_bench/out")


def ensure_fixture() -> None:
    marker = FIXTURE_DIR / "_COMPLETE"
    if marker.exists():
        return
    from pipeline.synth.codegen import write_code_table

    write_code_table(FIXTURE_DIR, BENCH_ROWS, n_files=32, use_ray=True, lines=BENCH_LINES)
    marker.write_text("ok")


def run_headline() -> dict:
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from pipeline.partition import repo_stats
    from pipeline.ray_pipeline import flagship_pipeline, read_code_table

    # warm page cache (untimed) so we measure compute, not first-touch IO
    rd.read_parquet(str(FIXTURE_DIR)).count()
    # warm worker imports + model broadcast path (untimed, tiny slice).
    # This warms the TASK-pool regime (BENCH_ROWS <= 1M): fresh Ray
    # workers pay ~1 s of module imports on their first flagship batch.
    # Above FLAGSHIP_TASK_POOL_MAX_ROWS the timed run uses the actor
    # pool, whose actors are fresh processes regardless — their spin-up
    # is inside the timed window there, same as every earlier round.
    _n_warm = max(64, 128 * NUM_CPUS)
    flagship_pipeline(
        read_code_table(str(FIXTURE_DIR)).limit(_n_warm)
        .repartition(NUM_CPUS),
        n_rows_hint=_n_warm, batch_size=128,
    ).materialize()

    import shutil

    out_dir = SCRATCH / f"scrubbed_{NUM_CPUS}"
    if out_dir.exists():
        shutil.rmtree(out_dir)

    def _keep_with_nbytes(t):
        # filter to kept rows and precompute n_bytes at the sink so the
        # repo_stats fork never re-reads the fat content column
        t = t.filter(pc.equal(t["keep"], True))
        return t.append_column(
            "n_bytes",
            pc.cast(pc.binary_length(pc.cast(t["content"], pa.binary())),
                    pa.int64()),
        )

    t0 = time.monotonic()
    ds = read_code_table(str(FIXTURE_DIR))
    result = flagship_pipeline(ds, n_rows_hint=BENCH_ROWS)
    kept = result.map_batches(
        _keep_with_nbytes, batch_format="pyarrow", zero_copy_batch=True,
    )
    kept.write_parquet(str(out_dir))
    stats_df = repo_stats(rd.read_parquet(
        str(out_dir),
        columns=["repo", "content_sha256", "keep", "n_bytes"],
    )).to_pandas()
    wall = time.monotonic() - t0

    n_bytes = sum(f.stat().st_size for f in FIXTURE_DIR.glob("*.parquet"))
    return {
        "headline_sec": wall,
        "files_per_sec": BENCH_ROWS / wall,
        "mb_per_sec": n_bytes / 1e6 / wall,
        "n_repos": int(len(stats_df)),
    }


def run_queries() -> dict[str, float]:
    import __ray_entry__ as entrymod

    out: dict[str, float] = {}
    for name, fn in entrymod.queries().items():
        t0 = time.monotonic()
        res = fn(SF_DIR)
        if hasattr(res, "to_pandas"):
            res.to_pandas()
        out[name] = round(time.monotonic() - t0, 3)
    return out


def main() -> None:
    import ray

    try:
        # ambient load BEFORE the bench adds its own (BASELINE.md
        # variance section: this box is hypervisor-clamped in some
        # hours; launch load tells a reader which regime a recorded
        # number came from)
        launch_load = [round(x, 2) for x in os.getloadavg()]
    except OSError:
        launch_load = None

    # Ray's default undersizes the object store on this box (42.9% of
    # RAM, warned on every run); 50% is its own recommendation
    os.environ.setdefault("RAY_DEFAULT_OBJECT_STORE_MEMORY_PROPORTION", "0.5")
    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=NUM_CPUS, include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    # Ray's sort-based groupby emits a WARNING for every EMPTY partition
    # ("... a different schema ... new schema: ." — an empty RefBundle has
    # no schema), unavoidable at bench scale where key buckets outnumber
    # keys. Filter exactly that empty-schema case; real schema mismatches
    # (a non-empty differing schema) still print.
    import logging

    class _EmptySchemaFilter(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            msg = record.getMessage()
            return not (
                "different schema" in msg and "new schema: ." in msg
            )

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_EmptySchemaFilter())

    ensure_fixture()
    if os.environ.get("GRAFT_BENCH_WARM", "0") == "1":
        # scaling mode measures steady-state THROUGHPUT: one untimed warm
        # run amortizes session/worker/import/actor cold start, then ONE
        # timed run — repeated timed runs in the same session get slower
        # (object-store aging), so variance is damped across fresh
        # processes in run_scaling instead.
        run_headline()
        headline = run_headline()
    else:
        headline = run_headline()
    queries = (
        run_queries() if os.environ.get("GRAFT_BENCH_QUERIES", "1") != "0" else {}
    )
    ray.shutdown()

    host = {"launch_loadavg": launch_load} if launch_load is not None else {}
    print(json.dumps({
        "metric": "flagship quality-filter+scrub wall time (read->langid->ppl->heuristics->scrub->decide->write + repo stats)",
        "value": round(headline["headline_sec"], 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "bench_rows": BENCH_ROWS,
        "files_per_sec": round(headline["files_per_sec"], 1),
        "mb_per_sec": round(headline["mb_per_sec"], 2),
        **host,
    }))


def run_scaling() -> None:
    """Two-parallelism evidence (BASELINE.md target: efficiency >= 0.8).

    GRAFT_SCALING_CPUS picks the N,4N pair (default "8,32"). On this
    single socket the 8->32 pair saturates one shared memory subsystem
    (no-Ray multiprocessing ceiling 0.666 for the same per-row work, see
    BENCH/BASELINE.md); a lower pair (e.g. "4,16") measures the engine's
    scaling without the shared-bandwidth artifact — the closer proxy for
    the north rule's N->4N NODE scale-out, where each node brings its own
    memory bandwidth and object store. Both pairs are recorded.
    """
    results = {}
    # realistic file sizes (~3 KB) so compute dominates per-job overheads,
    # matching the 100 TB scenario better than the tiny unit-test rows
    scaling_rows = os.environ.get("GRAFT_SCALING_ROWS", "400000")
    scaling_lines = os.environ.get("GRAFT_SCALING_LINES", "160")
    n_trials = int(os.environ.get("GRAFT_SCALING_TRIALS", "2"))
    pair = tuple(
        int(x) for x in os.environ.get("GRAFT_SCALING_CPUS", "8,32").split(",")
    )
    for ncpu in pair:
        env = dict(
            os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_BENCH_QUERIES="0",
            GRAFT_BENCH_WARM="1", GRAFT_BENCH_ROWS=scaling_rows,
            GRAFT_BENCH_LINES=scaling_lines,
        )
        trials = []
        for _ in range(n_trials):  # fresh process per trial damps variance
            out = subprocess.run(
                [sys.executable, "bench.py"], env=env, capture_output=True,
                text=True, check=True, cwd=os.path.dirname(os.path.abspath(__file__)) or ".",
            ).stdout
            trials.append(json.loads(out.strip().splitlines()[-1]))
        results[ncpu] = min(trials, key=lambda d: d["value"])
    lo, hi = pair
    t_lo, t_hi = results[lo]["value"], results[hi]["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    summary = {
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"files_per_sec_{lo}": results[lo]["files_per_sec"],
        f"files_per_sec_{hi}": results[hi]["files_per_sec"],
        "cpus": list(pair),
        "scaling_efficiency": round(eff, 3),
        "bench_rows": results[hi]["bench_rows"],
    }
    bench_dir = Path(__file__).resolve().parent / "BENCH"
    bench_dir.mkdir(exist_ok=True)
    out_path = bench_dir / (
        "SCALING.json" if pair == (8, 32) else f"SCALING_{lo}_{hi}.json"
    )
    out_path.write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary))


def run_resume_drill() -> None:
    """Bench-scale checkpoint-resume drill (VERDICT r4 item 5): run the
    partitioned flagship over a 2M-row fixture, delete half the
    committed manifests (simulating a mid-job kill — data without a
    manifest is uncommitted by protocol and must be recomputed), re-run,
    and assert (a) exactly the de-committed partitions recompute while
    the rest are skipped, (b) the global ledger256 is bit-identical to
    the uninterrupted run's. Records BENCH/RESUME_DRILL.json."""
    import shutil

    import ray

    os.environ.setdefault("RAY_DEFAULT_OBJECT_STORE_MEMORY_PROPORTION", "0.5")
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from pipeline.synth.codegen import write_code_table

    drill_rows = int(os.environ.get("GRAFT_DRILL_ROWS", "2000000"))
    fix = Path(f"/tmp/graft_bench/code_{drill_rows}_l40")
    if not (fix / "_COMPLETE").exists():
        write_code_table(fix, drill_rows, n_files=32, use_ray=True, lines=40)
        (fix / "_COMPLETE").write_text("ok")
    files = sorted(str(p) for p in fix.glob("*.parquet"))

    from pipeline.checkpoint import global_ledger, run_partitioned

    out = Path("/tmp/graft_bench/resume_drill")
    if out.exists():
        shutil.rmtree(out)
    t0 = time.monotonic()
    s1 = run_partitioned(files, out, files_per_partition=2)
    wall_full = time.monotonic() - t0
    led1 = global_ledger(out)

    manifests = sorted((out / "_manifests").glob("part-*.json"))
    dropped = manifests[::2]
    for m in dropped:
        m.unlink()

    t0 = time.monotonic()
    s2 = run_partitioned(files, out, files_per_partition=2)
    wall_resume = time.monotonic() - t0
    led2 = global_ledger(out)

    assert s2["partitions_run"] == len(dropped), s2
    assert s2["partitions_skipped"] == s1["partitions_run"] - len(dropped), s2
    assert s2["total_rows"] == s1["total_rows"], (s1, s2)
    assert led1 == led2, (led1, led2)

    summary = {
        "drill_rows": drill_rows,
        "partitions": s1["partitions_run"],
        "manifests_dropped": len(dropped),
        "resume_recomputed": s2["partitions_run"],
        "resume_skipped": s2["partitions_skipped"],
        "kept_rows": s1["total_rows"],
        "wall_full_sec": round(wall_full, 2),
        "wall_resume_sec": round(wall_resume, 2),
        "ledger256_match": led1 == led2,
        "num_cpus": NUM_CPUS,
    }
    bench_dir = Path(__file__).resolve().parent / "BENCH"
    bench_dir.mkdir(exist_ok=True)
    (bench_dir / "RESUME_DRILL.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary))
    ray.shutdown()


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    elif "--resume-drill" in sys.argv:
        run_resume_drill()
    else:
        main()
