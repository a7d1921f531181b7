"""Seeded benchmark inputs, generated once per (workload, seed, size) and
cached on disk so that generation never falls inside a timed window.

Every input comes from the repo's own generators (``synth.codegen``,
``synth.corpus``) in a single process. Both key their RNG per row, so the
first rows of any table are the same rows at every table size: the
per-layer ledger times exactly the rows the workload streams.

A cached fixture directory holds the input parquet files, a
``descriptors.json`` (rows, bytes, prescreen fire fraction, hot-repo
share, duplicate fraction) and, where a workload checks against one, the
expected values the check compares with.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

WORKLOADS = ("code_flagship", "pii_dense_scrub", "dedup_shuffle", "partitioned_resume")

# rows and files per workload; "tiny" is the smoke-test scale
SIZES = {
    "bench": {
        "code_flagship": {"rows": 16000, "files": 16},
        "pii_dense_scrub": {"rows": 1200, "files": 4},
        "dedup_shuffle": {"rows": 4000, "files": 8},
        "partitioned_resume": {"rows": 2400, "files": 4},
    },
    "tiny": {
        "code_flagship": {"rows": 600, "files": 4},
        "pii_dense_scrub": {"rows": 80, "files": 2},
        "dedup_shuffle": {"rows": 600, "files": 4},
        "partitioned_resume": {"rows": 400, "files": 4},
    },
}
LEDGER_ROWS = {"bench": 4096, "tiny": 512}
ORACLE_SAMPLE = {"bench": 300, "tiny": 60}
CODE_LINES = 40  # ~750 B per code row


def write_split(table: pa.Table, out: Path, n_files: int) -> list[str]:
    per = -(-len(table) // n_files)
    paths = []
    for f in range(n_files):
        part = table.slice(f * per, per)
        if len(part) == 0:
            break
        p = out / f"part-{f:05d}.parquet"
        pq.write_table(part, p)
        paths.append(str(p))
    return paths


def code_rows(n: int, seed: int) -> pa.Table:
    from pipeline.synth.codegen import code_batch

    return code_batch(range(n), seed=seed, lines=CODE_LINES)


def conformance_rows(n: int, seed: int) -> pa.Table:
    from pipeline.synth.corpus import conformance_batch

    return conformance_batch(range(n), seed=seed)


def score_in_process(table: pa.Table) -> pa.Table:
    """Flagship output of a code table, computed with the engine's own
    stage functions in this process (no Ray): the scored, scrubbed and
    decided rows ``flagship_pipeline`` writes."""
    from pipeline.ray_pipeline import QualityScorer, decide_stage, scrub_stage

    scorer = QualityScorer(with_heuristics=True)
    out = []
    for batch in table.to_batches(max_chunksize=1024):
        t = pa.Table.from_batches([batch])
        out.append(decide_stage(scrub_stage(scorer(t))))
    return pa.concat_tables(out)


def fire_frac(col: pa.ChunkedArray | pa.Array, profile: str) -> float:
    """Share of rows on which any scrub trigger group fires."""
    from pipeline.detect.patterns import get_trigger_groups

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0:
        return 0.0
    fired = np.zeros(len(col), dtype=bool)
    for _, trig, _ in get_trigger_groups(profile):
        fired |= pc.match_substring_regex(col, trig).to_numpy(zero_copy_only=False)
    return float(fired.mean())


def row_key(df: pd.DataFrame) -> pd.Series:
    """Same key ``partition.exact_dedup`` orders by: repo NUL path NUL commit."""
    return df["repo"] + "\x00" + df["path"] + "\x00" + df["commit"]


def _code_descriptors(code: pa.Table) -> dict:
    repo_counts = pd.Series(code["repo"].to_pylist()).value_counts()
    content = code["content"]
    n_unique = len(pc.unique(content))
    return {
        "rows": len(code),
        "bytes": int(pc.sum(pc.binary_length(pc.cast(content, pa.binary()))).as_py()),
        "scrub.fire_frac": round(fire_frac(content, "code"), 4),
        "hot_repo_share": round(float(repo_counts.iloc[0]) / len(code), 4),
        "dup_frac": round(1.0 - n_unique / len(code), 4),
    }


def _build(workload: str, seed: int, size: str, out: Path) -> dict:
    spec = SIZES[size][workload]
    n, n_files = spec["rows"], spec["files"]
    desc: dict = {"workload": workload, "seed": seed, "size": size}
    inputs = out / "input"
    inputs.mkdir()
    if workload == "pii_dense_scrub":
        conf = conformance_rows(n, seed)
        write_split(conf, inputs, n_files)
        text = conf["text"]
        desc.update({
            "rows": len(conf),
            "bytes": int(pc.sum(pc.binary_length(pc.cast(text, pa.binary()))).as_py()),
            "scrub.fire_frac": round(fire_frac(text, "conformance"), 4),
            "hot_repo_share": None,
            "dup_frac": round(1.0 - len(pc.unique(text)) / len(conf), 4),
        })
        return desc

    code = code_rows(n, seed)
    desc.update(_code_descriptors(code))
    if workload == "dedup_shuffle":
        # the job's input is the scrubbed flagship output; make it here,
        # untimed, and keep the expected winners for the check
        scrubbed = score_in_process(code)
        write_split(scrubbed, inputs, n_files)
        keys = scrubbed.select(["repo", "path", "commit", "content_sha256"]).to_pandas()
        keys["rk"] = row_key(keys)
        winners = keys.groupby("content_sha256")["rk"].min().sort_values()
        pq.write_table(pa.table({"rk": winners.to_numpy()}), out / "expected_winners.parquet")
        counts = keys["repo"].value_counts().sort_index()
        pq.write_table(
            pa.table({"repo": counts.index.to_numpy(), "n": counts.to_numpy()}),
            out / "expected_repo_counts.parquet",
        )
        desc["dup_frac"] = round(1.0 - len(winners) / len(keys), 4)
        return desc

    write_split(code, inputs, n_files)
    if workload == "code_flagship":
        from pipeline.oracle import oracle_code_frame

        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(len(code), size=min(ORACLE_SAMPLE[size], len(code)), replace=False))
        sample = code.take(pa.array(idx)).to_pandas()
        expected = oracle_code_frame(sample)
        expected["rk"] = row_key(expected)
        pq.write_table(
            pa.Table.from_pandas(
                expected[["rk", "content_sha256", "keep", "drop_reason"]], preserve_index=False,
            ),
            out / "oracle_sample.parquet",
        )
    return desc


def ensure(workload: str, seed: int, size: str, cache_root: Path) -> Path:
    """Fixture directory for (workload, seed, size), built on first use."""
    final = cache_root / f"{workload}-s{seed}-{size}"
    if (final / "descriptors.json").exists():
        return final
    tmp = cache_root / f".tmp-{workload}-s{seed}-{size}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    desc = _build(workload, seed, size, tmp)
    (tmp / "descriptors.json").write_text(json.dumps(desc, indent=2))
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    return final


def ledger_code(fixture: Path, workload: str, seed: int, size: str) -> pa.Table:
    """The code rows the per-layer ledger times: the first LEDGER_ROWS
    rows of the workload's own code input, or, for the conformance
    workload, the same rows generated from its seed."""
    n = LEDGER_ROWS[size]
    if workload == "pii_dense_scrub":
        return code_rows(n, seed)
    # the scrubbed dedup input still carries the raw code columns
    cols = ["repo", "path", "commit", "lang", "content"]
    return pq.read_table(input_files(fixture), columns=cols).slice(0, n)


def input_files(fixture: Path) -> list[str]:
    return sorted(str(p) for p in (fixture / "input").glob("*.parquet"))


def descriptors(fixture: Path) -> dict:
    return json.loads((fixture / "descriptors.json").read_text())
