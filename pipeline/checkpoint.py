"""Checkpoint-resume + per-partition lineage manifests (SURVEY.md §4.3).

Output layout:
    out/part-{pid:05d}/…parquet files…        (one dir per input shard)
    out/_manifests/part-{pid:05d}.json        (written AFTER the data)

Commit protocol (write-then-rename): a partition's parquet is written to
`out/_tmp/part-XXXXX`, atomically renamed to its final directory, and only
then is the manifest written. A manifest therefore implies durable data;
resume = skip every partition with a manifest. A killed job restarts from
the last committed partition (north rule).

Manifest records the lineage: input files, row count, kept rows, a
ledger (a 256-bit lattice hash: per-lane mod-2^64 sums of the FULL
per-row sha256 digests — order-insensitive, computed distributed, see
partition_ledger), stage timings and engine version. Unlike the earlier
64-bit prefix-sum ledger, substituting a row set while preserving the
fingerprint requires solving a 256-bit subset-sum over sha256 outputs;
duplicate rows do not cancel (a plain XOR combine would erase pairs).

Partitions are processed sequentially, each as its own streaming Dataset
over the full cluster: granularity = resumability unit, chosen as a file
group of ~GB scale at 100 TB (here: per fixture file).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path

import ray.data

import pipeline
from pipeline.ray_pipeline import flagship_pipeline


def partition_ledger(ds: "ray.data.Dataset") -> tuple[int, str]:
    """(n_rows, ledger hex): order-insensitive 256-bit lattice hash —
    each row's FULL sha256 digest split into 4 uint64 lanes, summed
    mod 2^64 per lane (order-free, duplicate-sensitive). Reduced to one
    tiny row per batch inside map_batches — the driver never
    materializes row data."""
    import numpy as np
    import pyarrow as pa

    def digest(t):
        sh = t["content_sha256"].to_pylist()
        if sh:
            lanes = np.frombuffer(
                b"".join(bytes.fromhex(s) for s in sh), dtype=np.uint64
            ).reshape(len(sh), 4).sum(axis=0, dtype=np.uint64)
        else:
            lanes = np.zeros(4, dtype=np.uint64)
        return pa.table({
            "n": pa.array([len(sh)], pa.int64()),
            **{f"l{i}": pa.array([int(lanes[i])], pa.uint64()) for i in range(4)},
        })

    rows = ds.select_columns(["content_sha256"]).map_batches(
        digest, batch_format="pyarrow", batch_size=8192, zero_copy_batch=True,
    ).take_all()  # one ~40-byte row per batch
    n = sum(r["n"] for r in rows)
    mask = (1 << 64) - 1
    lanes = [sum(r[f"l{i}"] for r in rows) & mask for i in range(4)]
    return n, "".join(f"{v:016x}" for v in lanes)


def plan_partitions(input_files: list[str], files_per_partition: int = 1) -> list[list[str]]:
    files = sorted(input_files)
    return [
        files[i: i + files_per_partition]
        for i in range(0, len(files), files_per_partition)
    ]


def committed_partitions(out_dir: str | Path) -> dict[int, dict]:
    mdir = Path(out_dir) / "_manifests"
    out: dict[int, dict] = {}
    if mdir.is_dir():
        for p in sorted(mdir.glob("part-*.json")):
            m = json.loads(p.read_text())
            out[m["partition_id"]] = m
    return out


def run_partitioned(
    input_files: list[str],
    out_dir: str | Path,
    *,
    profile: str = "code",
    files_per_partition: int = 1,
    keep_only: bool = True,
) -> dict:
    """Run the flagship pipeline partition-by-partition with commit
    manifests; skips already-committed partitions on rerun. Returns a
    summary {partitions_run, partitions_skipped, total_rows}."""
    out = Path(out_dir)
    (out / "_manifests").mkdir(parents=True, exist_ok=True)
    (out / "_tmp").mkdir(parents=True, exist_ok=True)
    parts = plan_partitions(input_files, files_per_partition)
    done = committed_partitions(out)
    ran, skipped, total_rows = 0, 0, 0

    for pid, files in enumerate(parts):
        if pid in done:
            m = done[pid]
            # A manifest only authorizes a skip if it describes THIS
            # invocation — otherwise stale committed output would silently
            # mix with new output (e.g. changed file list or profile).
            if "ledger256" not in m:
                raise RuntimeError(
                    f"partition {pid}: manifest was written by an older "
                    f"engine version (no 'ledger256'; engine_version="
                    f"{m.get('engine_version')!r}) — its ledger format is "
                    f"incompatible with global_ledger(); use a fresh "
                    f"out_dir or delete the old partitions + manifests"
                )
            mismatch = [
                k for k, want in (
                    ("input_files", files), ("profile", profile),
                    ("keep_only", keep_only),
                ) if m.get(k) != want
            ]
            if mismatch:
                raise RuntimeError(
                    f"partition {pid}: committed manifest does not match this "
                    f"invocation on {mismatch} (manifest "
                    f"{ {k: m.get(k) for k in mismatch} }); use a fresh "
                    f"out_dir or delete the stale partition + manifest"
                )
            skipped += 1
            total_rows += m["n_rows"]
            continue
        t0 = time.monotonic()
        from pipeline._util import parquet_rows
        from pipeline.ray_pipeline import read_code_table

        # row-count hint from parquet footers (metadata-only, no scan):
        # picks the scoring regime per partition — a resumability-unit
        # partition is typically well under the task-pool cap, where the
        # fused task stage avoids per-partition actor-pool spin-up
        n_hint = parquet_rows(files)
        ds = read_code_table(files)
        result = flagship_pipeline(ds, profile=profile, n_rows_hint=n_hint)
        if keep_only:
            import pyarrow.compute as pc

            result = result.map_batches(
                lambda t: t.filter(pc.equal(t["keep"], True)),
                batch_format="pyarrow", zero_copy_batch=True,
            )
        tmp = out / "_tmp" / f"part-{pid:05d}"
        final = out / f"part-{pid:05d}"
        if tmp.exists():
            shutil.rmtree(tmp)  # stale half-write from a killed run
        if final.exists():
            shutil.rmtree(final)  # data without manifest = uncommitted
        result.write_parquet(str(tmp))

        committed = ray.data.read_parquet(str(tmp))
        # schema gate before commit (SURVEY.md §1.2: stages validate out)
        from pipeline.schema import SCRUB_OUT

        written_cols = set(committed.schema().names)
        missing = set(SCRUB_OUT.names) - written_cols
        if missing:
            raise RuntimeError(f"partition {pid}: missing columns {sorted(missing)}")
        n_rows, ledger = partition_ledger(committed)

        tmp.rename(final)  # atomic commit of the data...
        manifest = {
            "partition_id": pid,
            "input_files": files,
            "n_rows": n_rows,
            "ledger256": ledger,
            "wall_sec": round(time.monotonic() - t0, 3),
            "engine_version": pipeline.__version__,
            "profile": profile,
            "keep_only": keep_only,
        }
        mpath = out / "_manifests" / f"part-{pid:05d}.json"
        mtmp = mpath.with_suffix(".json.tmp")
        mtmp.write_text(json.dumps(manifest, indent=2))
        mtmp.rename(mpath)  # ...then of the manifest
        ran += 1
        total_rows += n_rows

    return {"partitions_run": ran, "partitions_skipped": skipped, "total_rows": total_rows}


def global_ledger(out_dir: str | Path) -> str:
    """Order-insensitive fingerprint of the whole committed output —
    equality across an interrupted+resumed run and an uninterrupted run is
    the resume-correctness check (SURVEY.md §5.2.5)."""
    manifests = committed_partitions(out_dir)
    h = hashlib.sha256()
    for pid in sorted(manifests):
        h.update(manifests[pid]["ledger256"].encode())
    return h.hexdigest()
