"""Benchmark of the quality-filter + PII-scrub engine.

    python3 perfbench/run.py --workload code_flagship --seed 1 --seconds 20 --trace 0

Run from the repository root. The engine (``pipeline``) is imported from
the current directory; without it the command fails before measuring.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``metrics``
holds every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) of ``BENCHMARK.json``. The line before it describes the
host and the input. Per-run detail, spans and Ray's logs go under
``.perfbench/`` in the current directory. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170       # the whole run, set-up included, ends before this
STALL_S = 60           # no progress record for this long counts as a hang
SETUPS = 2             # set-ups per run; setup_s is their median
OBJECT_STORE_BYTES = 512 * 1024 * 1024
SOCKET_SUFFIX_LEN = 70  # session dir name + "/sockets/plasma_store"
AF_UNIX_MAX = 107

def nproc() -> int:
    """What `nproc` prints: the CPUs this process may use, capped by
    OMP_NUM_THREADS / OMP_THREAD_LIMIT as coreutils does."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, subprocess.CalledProcessError, ValueError):
        return len(os.sched_getaffinity(0))


def host_descriptors(num_cpus: int) -> dict:
    from importlib.metadata import version

    return {
        "nproc": nproc(), "num_cpus": num_cpus,
        "launch_loadavg": [round(x, 2) for x in os.getloadavg()],
        "ray": version("ray"), "pyarrow": version("pyarrow"),
        "python": platform.python_version(), "machine": platform.machine(),
    }


def ray_temp_dir(root: Path) -> str | None:
    """A Ray temp dir inside the checkout when its socket paths fit the
    AF_UNIX limit; otherwise None (Ray's default)."""
    cand = root / ".rt"
    if len(str(cand)) + SOCKET_SUFFIX_LEN <= AF_UNIX_MAX:
        return str(cand)
    return None


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the worker's process group (Ray's own
    processes included) and wait until it has ended. A worker that exits
    by itself has already shut Ray down, so what is left is only exiting."""
    pgid = proc.pid
    while group_alive(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            break
        if proc.poll() is None:
            proc.wait()
        time.sleep(0.05)
    proc.wait()


def run_worker(spec: dict, log: Path, deadline: float) -> bool:
    """Run the worker; False when it hung or overran and was killed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path.cwd()), str(HERE.parent), env.get("PYTHONPATH")) if p
    )
    env.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    spec_path = Path(spec["work"]) / "spec.json"
    spec_path.write_text(json.dumps(spec))
    progress = Path(spec["progress"])
    with open(log, "w") as logf:
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.worker", str(spec_path)],
            stdout=logf, stderr=subprocess.STDOUT, env=env, start_new_session=True,
        )
        hung = False
        try:
            while proc.poll() is None:
                time.sleep(0.2)
                last = progress.stat().st_mtime if progress.exists() else 0.0
                if time.monotonic() > deadline or (last and time.time() - last > STALL_S):
                    hung = True
                    break
        finally:
            stop_group(proc)
    return not hung


def read_progress(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def declared_units(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summarize(records: list[dict], trace: bool) -> tuple[dict, int, int, dict]:
    """(metrics, attempted, failed, detail) from the worker's records."""
    setups = [r for r in records if r["kind"] == "setup"]
    iters = [r for r in records if r["kind"] == "iter"]
    untraced = [r for r in iters if not r["traced"]]
    errors = [r for r in records if r["kind"] == "error"]
    starts = sum(r["kind"] == "start" for r in records)
    finished = len(setups) + len(iters) + len(errors) + sum(r["kind"] == "layers" for r in records)
    hung = starts - finished  # an operation that began and never ended
    attempted = sum(r["attempted"] for r in iters) + len(errors) + hung
    failed = sum(r["failed"] for r in iters) + len(errors) + hung
    done = [r for r in records if r["kind"] == "done"]
    med = statistics.median
    vals: dict = {}
    if trace:
        vals = next((r["metrics"] for r in records if r["kind"] == "layers"), {})
    elif untraced and setups and done:
        vals = {
            "rows_per_s": med(r["rows_per_s"] for r in untraced),
            "job_s": med(r["job_s"] for r in untraced),
            "setup_s": med(r["setup_s"] for r in setups),
            "peak_rss_mb": done[-1]["peak_rss_mb"],
        }
    units = declared_units(trace)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in vals.items() if k in units}
    detail = {
        "setups": setups, "iterations": iters, "errors": errors, "hung_ops": hung,
        "failed_frac": failed / max(attempted, 1),
        "self_s": next((r["self_s"] for r in records if r["kind"] == "layers"), None),
    }
    return metrics, max(attempted, 1), failed, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "tiny"), default="bench",
                    help="input scale; tiny is for the smoke test")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt one output row before the check (shows the check fires)")
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    root = Path.cwd()
    if not (root / "pipeline" / "__init__.py").is_file():
        print(f"perfbench: no engine package 'pipeline' under {root}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root), str(HERE.parent)]
    from perfbench import fixtures

    if args.workload not in fixtures.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    state = root / ".perfbench"
    tag = f"{args.workload}-s{args.seed}-{args.size}-t{args.trace}"
    work = state / "work" / tag
    for d in (state / "results", state / "logs"):
        d.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    num_cpus = nproc()
    host = host_descriptors(num_cpus)
    fx = fixtures.ensure(args.workload, args.seed, args.size, state / "fixtures")
    desc = fixtures.descriptors(fx)
    spec = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": bool(args.trace), "corrupt": args.corrupt,
        "fixture": str(fx), "files": fixtures.input_files(fx), "rows": desc["rows"],
        "work": str(work), "progress": str(work / "progress.jsonl"),
        "spans": str(state / "results" / f"spans-{tag}.json"),
        "setups": SETUPS, "num_cpus": num_cpus, "object_store_bytes": OBJECT_STORE_BYTES,
        "ray_temp_dir": ray_temp_dir(root),
    }
    finished = run_worker(spec, state / "logs" / f"{tag}.log", t_start + DEADLINE_S)
    metrics, attempted, failed, detail = summarize(read_progress(Path(spec["progress"])), args.trace)
    correct = finished and failed == 0 and set(metrics) == set(declared_units(args.trace))

    detail.update({"host": host, "input": desc, "finished": finished, "wall_s": time.monotonic() - t_start})
    (state / "results" / f"{tag}.json").write_text(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
         **detail}, indent=1,
    ))
    print(json.dumps({"host": host, "input": desc}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics},
                     separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
