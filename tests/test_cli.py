"""End-to-end smoke of the `ray job submit` surface: each CLI command
runs in a FRESH subprocess that owns its own Ray session (exactly how
a job driver runs it), chained synth -> run -> resume -> stats ->
metrics through real parquet on disk."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli(*args: str) -> dict:
    env = dict(
        os.environ,
        RAY_ADDRESS="local",
        PYTHONPATH=REPO,
    )
    out = subprocess.run(
        [sys.executable, "-m", "pipeline.cli", *args],
        capture_output=True, text=True, check=True, cwd=REPO, env=env,
        timeout=240,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def cli_dirs():
    base = "/tmp/graft_cli_smoke"
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    yield {
        "input": f"{base}/code",
        "output": f"{base}/scrubbed",
        "stats": f"{base}/stats",
        "metrics": f"{base}/METRICS.json",
    }
    shutil.rmtree(base, ignore_errors=True)


def test_cli_run_resume_stats_metrics(cli_dirs):
    d = cli_dirs
    synth = _cli("synth-code", "--out", d["input"], "--rows", "1200",
                 "--files", "4")
    assert synth["rows"] == 1200
    # Ray may coalesce small writes: partitions == actual parquet files
    import glob

    n_parts = len(glob.glob(f"{d['input']}/*.parquet"))
    assert n_parts >= 1

    run = _cli("run", "--input", d["input"], "--output", d["output"])
    assert run["partitions_run"] == n_parts and run["partitions_skipped"] == 0
    # total_rows counts rows WRITTEN, i.e. after the keep/drop filter
    assert 0 < run["total_rows"] <= 1200

    # resume over a completed output is a no-op: all partitions committed
    resume = _cli("resume", "--input", d["input"], "--output", d["output"])
    assert resume["partitions_run"] == 0
    assert resume["partitions_skipped"] == n_parts

    stats = _cli("stats", "--scrubbed", d["output"], "--output", d["stats"])
    assert stats["repos"] > 0

    metrics = _cli("metrics", "--n", "200", "--out", d["metrics"])
    assert metrics["f1"] >= 0.99  # north-rule bar on the honest corpus
    report = json.load(open(d["metrics"]))
    assert report["token_accuracy"] > 0.9


def test_cli_stats_zero_rows(tmp_path):
    """`run` leaves a scrubbed dir whose parquet has zero rows when every
    row is dropped; `stats` over it reports no repos instead of failing."""
    import pyarrow.parquet as pq

    from pipeline.schema import SCRUB_OUT

    scrubbed = tmp_path / "scrubbed"
    scrubbed.mkdir()
    pq.write_table(SCRUB_OUT.empty_table(), scrubbed / "part-0.parquet")
    stats = _cli("stats", "--scrubbed", str(scrubbed),
                 "--output", str(tmp_path / "stats"))
    assert stats == {"repos": 0}


def test_cli_stats_zero_rows_writes_typed_empty_output(tmp_path):
    """With no repos, `stats` still writes --output: one Parquet file that
    reads back as an empty table with the REPO_STATS schema."""
    import pyarrow.parquet as pq

    from pipeline.schema import REPO_STATS, SCRUB_OUT

    scrubbed = tmp_path / "scrubbed"
    scrubbed.mkdir()
    pq.write_table(SCRUB_OUT.empty_table(), scrubbed / "part-0.parquet")
    _cli("stats", "--scrubbed", str(scrubbed), "--output", str(tmp_path / "stats"))
    got = pq.read_table(tmp_path / "stats")
    assert got.num_rows == 0
    assert got.schema.equals(REPO_STATS)


def test_cli_standalone_without_ray_address(cli_dirs):
    """With RAY_ADDRESS unset and no cluster running, the CLI must fall
    back to a private local Ray instance (address='auto' alone raises
    ConnectionError), keeping every command usable standalone."""
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = REPO
    out = subprocess.run(
        [sys.executable, "-m", "pipeline.cli", "metrics", "--n", "64",
         "--out", cli_dirs["metrics"] + ".standalone"],
        capture_output=True, text=True, check=True, cwd=REPO, env=env,
        timeout=240,
    ).stdout
    assert json.loads(out.strip().splitlines()[-1])["f1"] >= 0.99
