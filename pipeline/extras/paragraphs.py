"""Corpus-level line / paragraph deduplication (boilerplate removal) —
the CCNet/Dolma-style pass that strips lines occurring in many distinct
documents (headers, footers, license banners, nav text) from every
document in the corpus.

Reference scope note: the reference engine (tursunait/roberta-pii-detector)
has no corpus-level text hygiene; this is a charter "training-data
pipeline" addition alongside dedup/decontamination.

Shape at 100 TB:

1. COUNT — ``map_batches`` combiner: split each doc into lines, drop
   lines shorter than ``min_chars``, dedupe (line, doc) WITHIN the batch
   (a doc never straddles batches, so per-batch distinct-doc counts sum
   to the exact global count), emit (line, n_docs) partial rows.  Only
   the batch-distinct line vocabulary crosses the wire — for boilerplate
   (highly repetitive by definition) that is a tiny fraction of the
   text.  One ``partition._keyed_reduce`` summing per line (one task
   up to DRIVER_REDUCE_MAX_BYTES of measured partials, bucketed by line
   above it) then yields exact per-line document frequencies.
2. HOT SET — lines with ``n_docs >= min_doc_freq`` are pulled to the
   driver and broadcast ONCE via ``ray.put``.  Hot lines are bounded by
   construction (frequency >= k truncates the distribution tail); a
   ``MAX_HOT_LINES`` cap with a WARN guards the degenerate corpus, same
   pattern as ``dedup.MAX_BUCKET``.
3. REMOVE — a map-only stage: split, vectorized ``is_in`` membership
   against the broadcast set, rebuild each doc from its kept lines with
   ``binary_join``.  No shuffle; the corpus streams.

Everything is Arrow kernels end-to-end (split_pattern / list_flatten /
list_parent_indices / is_in / ListArray.from_arrays / binary_join) — no
per-row Python in any stage.  Matching on the raw line string (not a
hash) keeps the operator bit-exact against the SQL oracle; the combiner
already bounds shuffled bytes, so hashing would only shrink the (small)
hot-set broadcast.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from pipeline.partition import _sum_reduce

logger = logging.getLogger(__name__)

# Degenerate-corpus guard: if more than this many distinct lines qualify
# as boilerplate, keep the most frequent MAX_HOT_LINES (ties broken by
# line text ascending — deterministic) and WARN. ~100 B/line -> <=100 MB
# broadcast worst case.
MAX_HOT_LINES = 1_000_000


def chunk_words_stage(
    batch: pa.Table, *, words_per_line: int = 3, text_col: str = "text",
    out_col: str | None = None,
) -> pa.Table:
    """Re-chunk whitespace-word text into lines of ``words_per_line``
    words (newline inserted after every w-th word).  ONE RE2 global
    replace — bit-identical in DuckDB ``regexp_replace(..., 'g')``, which
    is what makes the line-dedup query oracle-checkable on the
    single-line synthetic corpus.  Production corpora with real newlines
    skip this stage."""
    pat = r"((?:\S+ ){" + str(words_per_line - 1) + r"}\S+) "
    chunked = pc.replace_substring_regex(batch[text_col], pat, "\\1\n")
    dst = out_col or text_col
    if dst in batch.column_names:
        return batch.set_column(batch.column_names.index(dst), dst, chunked)
    return batch.append_column(dst, chunked)


def _split_lines(t: pa.Table, text_col: str):
    """-> (flat lines array, parent row indices ndarray)."""
    lists = pc.split_pattern(t[text_col], "\n")
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = lists.values
    parent = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
    return flat, parent


def line_doc_counts(
    ds: "ray.data.Dataset", *, text_col: str = "text", min_chars: int = 8,
) -> "ray.data.Dataset":
    """Exact per-line distinct-document counts, columns (line, n_docs):
    per-batch combiner (batch-local (line, doc) dedupe) -> a
    _keyed_reduce summing per line.  Lines shorter than ``min_chars``
    (codepoints, = SQL length()) are ignored."""
    def combiner(t: pa.Table) -> pa.Table:
        flat, parent = _split_lines(t, text_col)
        keep = pc.greater_equal(pc.utf8_length(flat), min_chars)
        pairs = pa.table({"line": flat, "doc": pa.array(parent)}).filter(keep)
        distinct = pairs.group_by(["line", "doc"]).aggregate([])
        part = distinct.group_by("line").aggregate([("doc", "count")])
        return pa.table({
            "line": part["line"],
            "n_docs": pc.cast(part["doc_count"], pa.int64()),
        })

    return _sum_reduce(ds, combiner, ["line"], empty=pa.table({
        "line": pa.array([], pa.string()), "n_docs": pa.array([], pa.int64())}))


def hot_lines(
    ds: "ray.data.Dataset", *, text_col: str = "text", min_chars: int = 8,
    min_doc_freq: int = 3,
) -> "pa.Array":
    """Driver-side hot-line set: lines present in >= min_doc_freq distinct
    docs.  Bounded by construction; capped at MAX_HOT_LINES with a WARN."""
    counts = line_doc_counts(ds, text_col=text_col, min_chars=min_chars)
    hot = counts.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_docs"], min_doc_freq)),
        batch_format="pyarrow", zero_copy_batch=True,
    ).to_pandas()
    if hot.empty or "line" not in hot.columns:
        # a fully-filtered dataset can surface as a column-less frame
        return pa.array([], pa.string())
    if len(hot) > MAX_HOT_LINES:
        logger.warning(
            "hot-line set truncated: %d lines > MAX_HOT_LINES=%d "
            "(keeping the most frequent)", len(hot), MAX_HOT_LINES,
        )
        hot = hot.sort_values(
            ["n_docs", "line"], ascending=[False, True]
        ).head(MAX_HOT_LINES)
    return pa.array(hot["line"].to_numpy(), pa.string())


def remove_lines(
    ds: "ray.data.Dataset", lines: "pa.Array", *, text_col: str = "text",
    out_col: str = "text_clean", removed_col: str = "n_lines_removed",
) -> "ray.data.Dataset":
    """Map-only removal of the given lines from every document: the line
    set is broadcast once via ray.put; each batch filters its flattened
    lines with one vectorized is_in and rebuilds docs with binary_join.
    Appends ``out_col`` (cleaned text; '' if every line was removed) and
    ``removed_col`` (int64)."""
    lines_ref = ray.put(lines)

    def scrub(t: pa.Table) -> pa.Table:
        hot = ray.get(lines_ref)
        flat, parent = _split_lines(t, text_col)
        if len(hot):
            keep = pc.invert(pc.is_in(flat, value_set=hot))
        else:
            keep = pa.array(np.ones(len(flat), dtype=bool))
        keep_np = keep.to_numpy(zero_copy_only=False)
        kept_vals = flat.filter(keep)
        cnt = np.zeros(len(t) + 1, dtype=np.int64)
        np.add.at(cnt, parent[keep_np] + 1, 1)
        offsets = np.cumsum(cnt)
        la = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), kept_vals
        )
        cleaned = pc.binary_join(la, "\n")
        n_lines = np.zeros(len(t), dtype=np.int64)
        np.add.at(n_lines, parent, 1)
        removed = n_lines - np.diff(offsets)
        t = t.append_column(out_col, cleaned)
        return t.append_column(removed_col, pa.array(removed))

    return ds.map_batches(scrub, batch_format="pyarrow", zero_copy_batch=True)


def line_dedup(
    ds: "ray.data.Dataset", *, text_col: str = "text", min_chars: int = 8,
    min_doc_freq: int = 3, out_col: str = "text_clean",
) -> "ray.data.Dataset":
    """End-to-end boilerplate removal: count -> hot set -> remove.
    NOTE: ``ds`` is consumed twice (one counting pass, one scrub pass) —
    pass a re-readable dataset (a read_parquet lineage re-executes; at
    scale the counting pass reads only ``text_col``)."""
    hot = hot_lines(
        ds, text_col=text_col, min_chars=min_chars, min_doc_freq=min_doc_freq
    )
    return remove_lines(ds, hot, text_col=text_col, out_col=out_col)


def dedup_lines_within_doc(
    ds: "ray.data.Dataset", *, text_col: str = "text",
    out_col: str = "text_clean", removed_col: str = "n_lines_removed",
) -> "ray.data.Dataset":
    """INTRA-document repeated-line removal (keep the first occurrence,
    preserve order) — the repetition-REWRITE cousin of the flagship's
    repetition drop rule, and the local counterpart of corpus-level
    ``line_dedup``.  Map-only, no shuffle, no state: each doc dedupes
    against itself, so the corpus streams through one stage.

    Appends ``out_col`` (rebuilt text) and ``removed_col`` (int64 count
    of removed duplicate lines)."""

    def scrub(t: pa.Table) -> pa.Table:
        import pandas as pd

        flat, parent = _split_lines(t, text_col)
        # first occurrence per (doc, line): vectorized C path
        dup = pd.DataFrame(
            {"p": parent, "l": flat.to_pandas()}
        ).duplicated(["p", "l"]).to_numpy()
        keep = ~dup
        kept_vals = flat.filter(pa.array(keep))
        cnt = np.zeros(len(t) + 1, dtype=np.int64)
        np.add.at(cnt, parent[keep] + 1, 1)
        offsets = np.cumsum(cnt)
        la = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), kept_vals)
        cleaned = pc.binary_join(la, "\n")
        n_lines = np.zeros(len(t), dtype=np.int64)
        np.add.at(n_lines, parent, 1)
        removed = n_lines - np.diff(offsets)
        t = t.append_column(out_col, cleaned)
        return t.append_column(removed_col, pa.array(removed))

    return ds.map_batches(scrub, batch_format="pyarrow", zero_copy_batch=True)
