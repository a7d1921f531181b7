"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once (the two of BENCHMARK.json and the two extra
ones) and checks the result line against BENCHMARK.json; runs one traced
workload for the per-layer metrics; shows that a corrupted output row is
counted as failed, and that the command refuses to run without the
engine. Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT))
from perfbench.fixtures import WORKLOADS  # noqa: E402

# the end-to-end line stays well inside a 2000-character log tail; the
# traced line carries all 29 per-layer metrics at full precision
MAX_LINE = {0: 1200, 1: 2100}


def bench(workload: str, *extra: str, trace: int = 0, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def last_line(proc: subprocess.CompletedProcess, trace: int = 0) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = proc.stdout.strip().splitlines()[-1]
    assert len(line) <= MAX_LINE[trace], len(line)
    rec = json.loads(line)
    assert set(rec) == {"correct", "attempted", "failed", "metrics"}
    return rec


def assert_metrics(rec: dict, declared: list[dict]) -> None:
    assert set(rec["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = rec["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_end_to_end(workload):
    rec = last_line(bench(workload))
    assert rec["correct"] and rec["failed"] == 0 and rec["attempted"] >= 1
    assert_metrics(rec, SPEC["end_to_end"])


def test_traced_run_reports_every_layer():
    rec = last_line(bench("pii_dense_scrub", trace=1), trace=1)
    assert rec["correct"]
    assert_metrics(rec, SPEC["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_row_is_counted(workload):
    rec = last_line(bench(workload, "--corrupt"))
    assert not rec["correct"]
    assert 0 < rec["failed"] <= rec["attempted"]


def test_refuses_without_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("code_flagship", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
