"""CLI entry point — the `ray job submit` surface (SURVEY.md §7.1).

    python -m pipeline.cli run     --input DIR --output DIR [--profile code]
    python -m pipeline.cli resume  --input DIR --output DIR       (same as run)
    python -m pipeline.cli stats   --scrubbed DIR --output DIR
    python -m pipeline.cli metrics --n 2000 --out METRICS.json
    python -m pipeline.cli synth-code --out DIR --rows N
    python -m pipeline.cli synth-conformance --out DIR --rows N

`run` and `resume` are the same command: run_partitioned skips committed
partitions, so resuming a killed job is just re-running it.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path


def _init_ray():
    import os

    import ray

    if not ray.is_initialized():
        # under `ray job submit` the job must JOIN the cluster, not start
        # a private local instance: honor RAY_ADDRESS; with no address
        # set, try auto-discovery and fall back to a private local
        # instance (address="auto" RAISES with no running cluster, which
        # would break every standalone CLI invocation)
        kw = dict(include_dashboard=False, logging_level="ERROR")
        addr = os.environ.get("RAY_ADDRESS")
        if addr:
            ray.init(address=addr, **kw)
        else:
            try:
                ray.init(address="auto", **kw)
            except ConnectionError:
                ray.init(address="local", **kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_run(args) -> None:
    _init_ray()
    from pipeline.checkpoint import run_partitioned

    files = sorted(str(p) for p in Path(args.input).glob("*.parquet"))
    if not files:
        raise SystemExit(f"no parquet files under {args.input}")
    summary = run_partitioned(
        files, args.output, profile=args.profile,
        files_per_partition=args.files_per_partition,
    )
    print(json.dumps(summary))


def cmd_stats(args) -> None:
    _init_ray()
    import ray.data as rd

    from pipeline.partition import repo_stats

    stats = repo_stats(rd.read_parquet(args.scrubbed)).materialize()
    n_repos = stats.count()
    if n_repos:
        stats.write_parquet(args.output)
    else:
        # Ray writes no file for a zero-row dataset; leave one typed empty
        # file so --output reads back as an empty REPO_STATS table
        import pyarrow.parquet as pq

        from pipeline.schema import REPO_STATS

        Path(args.output).mkdir(parents=True, exist_ok=True)
        pq.write_table(REPO_STATS.empty_table(), Path(args.output) / "part-00000.parquet")
    print(json.dumps({"repos": n_repos}))


def cmd_metrics(args) -> None:
    """Span-F1 of the detector vs ground truth on the un-resampled corpus
    (the honest quality metric, SURVEY.md A1) — distributed partial counts."""
    _init_ray()
    import pyarrow as pa
    import ray.data as rd

    from pipeline.metrics import SpanCounts, finalize
    from pipeline.synth.corpus import make_first_try_row

    from pipeline.metrics import token_accuracy
    from pipeline.synth.corpus import _build, _kind_for
    from pipeline._util import rng_for

    def partial(batch: pa.Table) -> pa.Table:
        sc = SpanCounts()
        tok_c = tok_n = 0
        for i in batch["id"].to_pylist():
            truth, pred = make_first_try_row(int(i))
            sc.update(truth, pred)
            kind = _kind_for(rng_for(42, "kind", int(i)))
            ex = _build(kind, rng_for(42, "conf", int(i), 0))
            c, n = token_accuracy(ex.text, truth, pred)
            tok_c += c
            tok_n += n
        return pa.table({
            "blob": [json.dumps(sc.as_row())],
            "tok_correct": [tok_c], "tok_total": [tok_n],
        })

    rows = rd.range(args.n).map_batches(
        partial, batch_format="pyarrow", batch_size=256
    ).take_all()
    total = SpanCounts.from_rows([json.loads(r["blob"]) for r in rows])
    report = finalize(total)
    tok_c = sum(r["tok_correct"] for r in rows)
    tok_n = sum(r["tok_total"] for r in rows)
    report["token_accuracy"] = tok_c / tok_n if tok_n else 0.0  # A5
    Path(args.out).write_text(json.dumps(report, indent=2))
    print(json.dumps(report["micro"]))


def cmd_synth_code(args) -> None:
    _init_ray()
    from pipeline.synth.codegen import write_code_table

    write_code_table(args.out, args.rows, n_files=args.files, use_ray=True)
    print(json.dumps({"rows": args.rows, "dir": args.out}))


def cmd_synth_conformance(args) -> None:
    _init_ray()
    from pipeline.synth.corpus import write_conformance_table

    write_conformance_table(args.out, args.rows, n_files=args.files, use_ray=True)
    print(json.dumps({"rows": args.rows, "dir": args.out}))


def main() -> None:
    p = argparse.ArgumentParser(prog="pipeline.cli")
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run")
    r.add_argument("--input", required=True)
    r.add_argument("--output", required=True)
    r.add_argument("--profile", default="code")
    r.add_argument("--files-per-partition", type=int, default=1)
    r.set_defaults(fn=cmd_run)
    res = sub.add_parser("resume")
    for a in r._actions[1:]:
        if a.dest != "fn":
            res._add_action(a)
    res.set_defaults(fn=cmd_run)

    s = sub.add_parser("stats")
    s.add_argument("--scrubbed", required=True)
    s.add_argument("--output", required=True)
    s.set_defaults(fn=cmd_stats)

    m = sub.add_parser("metrics")
    m.add_argument("--n", type=int, default=2000)
    m.add_argument("--out", default="METRICS.json")
    m.set_defaults(fn=cmd_metrics)

    sc = sub.add_parser("synth-code")
    sc.add_argument("--out", required=True)
    sc.add_argument("--rows", type=int, default=10000)
    sc.add_argument("--files", type=int, default=8)
    sc.set_defaults(fn=cmd_synth_code)

    sf = sub.add_parser("synth-conformance")
    sf.add_argument("--out", required=True)
    sf.add_argument("--rows", type=int, default=5000)
    sf.add_argument("--files", type=int, default=8)
    sf.set_defaults(fn=cmd_synth_conformance)

    args = p.parse_args()
    args.fn(args)

    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
