"""Spans and the single-process per-layer ledger.

``Tracer`` keeps spans (name, start, end, parent, workload) in memory;
the run writes them out when it ends. The ledger times each public layer
function of the flagship and scrub paths on the workload's own seeded
batches, in this process and without Ray, one span per call.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

BATCH_ROWS = 1024  # the engine's DEFAULT_BATCH_SIZE


class Tracer:
    """In-memory span recorder. A disabled tracer records nothing."""

    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans), "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload, "start": time.perf_counter(), "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[s["id"]]
        return out

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def _batches(table: pa.Table):
    for rb in table.to_batches(max_chunksize=BATCH_ROWS):
        yield pa.Table.from_batches([rb])


def _quality(tr: Tracer, b: pa.Table, lang, ppl) -> pa.Table:
    from pipeline.quality.heuristics import heuristic_batch

    col = b["content"]
    with tr.span("heuristics"):
        h = heuristic_batch(col)
    with tr.span("langid"):
        langs, conf = lang.predict_batch_arrow(col)
    with tr.span("perplexity"):
        p = ppl.score_batch_arrow(col)
    for name, arr in h.items():
        b = b.append_column(name, pa.array(arr))
    b = b.append_column("lang_pred", pa.array(langs, pa.string()))
    b = b.append_column("lang_conf", pa.array(conf.astype(np.float64)))
    return b.append_column("perplexity", pa.array(p))


def _scrub(tr: Tracer, b: pa.Table, column: str, profile: str, counts: dict | None,
           name: str = "scrub") -> pa.Table:
    """scrub_stage as a whole; with ``counts``, also its three parts timed
    on their own, and the prescreen's fire and hit counts."""
    from pipeline._util import string_buffers
    from pipeline.detect.patterns import get_trigger_groups
    from pipeline.detect.scrub import scrub_text
    from pipeline.ray_pipeline import scrub_stage

    with tr.span(name):
        out = scrub_stage(b, column=column, profile=profile)
    if counts is None:
        return out
    col = b[column].combine_chunks()
    with tr.span("scrub.prescreen"):
        fired = np.zeros(len(col), dtype=bool)
        for _, trig, _ in get_trigger_groups(profile):
            fired |= pc.match_substring_regex(col, trig).to_numpy(zero_copy_only=False)
    texts = col.filter(pa.array(fired)).to_pylist()
    hits = 0
    with tr.span("scrub.detect"):
        for text in texts:
            hits += bool(scrub_text(text, profile)[1])
    with tr.span("scrub.sha256"):
        off, data = string_buffers(col)
        mv = memoryview(data)
        for i in range(len(col)):
            hashlib.sha256(mv[off[i]: off[i + 1]]).hexdigest()
    counts["scrub_rows"] += len(col)
    counts["fired"] += len(texts)
    counts["hits"] += hits
    return out


def row_ledger(tr: Tracer, *, code: pa.Table, read_files: list[str],
               scrub_input: pa.Table | None, scrub_column: str, scrub_profile: str,
               write_dir: Path) -> tuple[dict, float]:
    """Per-layer µs/row over the given rows, and the single-process
    flagship compute µs/row (heuristics through write, on code).

    ``code`` goes through the whole flagship path. The scrub metrics come
    from ``scrub_input`` when given (the conformance workload), else from
    the code batches."""
    from pipeline.quality.langid import LangIdModel
    from pipeline.quality.perplexity import PerplexityModel
    from pipeline.ray_pipeline import decide_stage

    lang, ppl = LangIdModel.default(), PerplexityModel.default()
    write_dir.mkdir(parents=True, exist_ok=True)
    # one untraced pass over a few rows first: regex compiles and other
    # first-call costs stay out of the timed layers
    quiet = Tracer(tr.workload, enabled=False)
    _scrub(quiet, _quality(quiet, code.slice(0, 64), lang, ppl), "content", "code", None)
    if scrub_input is not None:
        _scrub(quiet, scrub_input.slice(0, 64), scrub_column, scrub_profile, None)

    own = scrub_input is None  # the code batches are the scrub input
    code_scrub, code_write = ("scrub", "write") if own else ("code.scrub", "code.write")
    counts = {"scrub_rows": 0, "fired": 0, "hits": 0, "kept": 0, "written": 0}
    with tr.span("ledger"):
        with tr.span("read"):
            n_read = pq.read_table(read_files).num_rows
        for i, b in enumerate(_batches(code)):
            with tr.span("batch"):
                scored = _quality(tr, b, lang, ppl)
                scored = _scrub(tr, scored, "content", "code", counts if own else None, code_scrub)
                with tr.span("decide"):
                    decided = decide_stage(scored)
                counts["kept"] += int(pc.sum(decided["keep"]).as_py() or 0)
                with tr.span(code_write):
                    pq.write_table(decided, write_dir / f"code-{i:05d}.parquet")
                if own:
                    counts["written"] += len(decided)
        if not own:
            for i, b in enumerate(_batches(scrub_input)):
                with tr.span("scrub_batch"):
                    out = _scrub(tr, b, scrub_column, scrub_profile, counts)
                    with tr.span("write"):
                        pq.write_table(out, write_dir / f"scrub-{i:05d}.parquet")
                    counts["written"] += len(out)

    n_code = len(code)
    us = 1e6
    fired = max(counts["fired"], 1)
    flagship_us = us * sum(
        tr.total(k) for k in ("heuristics", "langid", "perplexity", code_scrub, "decide", code_write)
    ) / n_code
    return {
        "read.us_per_row": us * tr.total("read") / max(n_read, 1),
        "heuristics.us_per_row": us * tr.total("heuristics") / n_code,
        "langid.us_per_row": us * tr.total("langid") / n_code,
        "perplexity.us_per_row": us * tr.total("perplexity") / n_code,
        "scrub.us_per_row": us * tr.total("scrub") / counts["scrub_rows"],
        "scrub.prescreen.us_per_row": us * tr.total("scrub.prescreen") / counts["scrub_rows"],
        "scrub.detect.us_per_fired_row": us * tr.total("scrub.detect") / fired,
        "scrub.sha256.us_per_row": us * tr.total("scrub.sha256") / counts["scrub_rows"],
        "scrub.fire_frac": counts["fired"] / counts["scrub_rows"],
        "scrub.hit_frac": counts["hits"] / fired,
        "decide.us_per_row": us * tr.total("decide") / n_code,
        "decide.keep_frac": counts["kept"] / n_code,
        "write.us_per_row": us * tr.total("write") / counts["written"],
    }, flagship_us
