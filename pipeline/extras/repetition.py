"""Gopher-style per-document repetition signals (Rae et al. 2021,
"Scaling Language Models" §A1.1 quality heuristics): the fraction of a
document covered by its most frequent word bigram, and the fraction of
word-trigram occurrences that are duplicated within the document.
Mass-produced boilerplate ("click here click here ...") scores high on
both; natural text scores near zero.

Reference scope note: the reference engine (tursunait/roberta-pii-detector)
has no corpus-quality heuristics; this is a charter "text analysis /
quality scoring" addition beside pipeline/quality/heuristics.py (whose
repetition_score is line-based — these are the word-n-gram cousins).

Per-doc and map-only, so the operator streams with no shuffle at any
scale.  Everything is Arrow kernels + numpy segment math over the flat
word buffer: split -> 64-bit word hashes -> within-doc n-gram runs via
ONE lexsort -> per-doc reduceat maxima / bincount sums.  No per-row
Python.  Grams are compared by their word-hash tuples (no hash
combining), so two grams collide only if a word pair collides under the
64-bit string hash — the same ~n^2/2^64 risk every hash-keyed operator
in this engine accepts.

Definitions (both SQL-expressible, hence oracle-exact):

- top_bigram_frac = cmax * glen / n_chars, where cmax is the highest
  within-doc bigram count and glen the longest gram string length among
  the cmax-count grams (len(w1)+len(w2)+1 — ties in (cmax, glen) give
  the same fraction, so the tie-break is total).  0.0 if < 2 words.
- dup3_frac = (# trigram occurrences whose gram appears >= 2 times in
  the doc) / (# trigram occurrences).  0.0 if < 3 words.

Both fractions are exact-int products/sums followed by ONE IEEE
division, so the doubles are bit-identical to DuckDB's — no rounding
needed for the driver's value hash.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pipeline._util import hash_strings64

_GLEN_BITS = 21  # packed (count << 21 | glen): glen < 2 MiB per gram


def _runs(order: np.ndarray, *keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(run start indices, run lengths) of equal consecutive key tuples
    after applying ``order``."""
    n = len(order)
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for k in keys:
        ks = k[order]
        new[1:] |= ks[1:] != ks[:-1]
    starts = np.nonzero(new)[0]
    lens = np.diff(np.append(starts, n))
    return starts, lens


def repetition_signals_stage(
    batch: pa.Table, *, text_col: str = "text", chars_col: str = "n_chars",
    id_cols: tuple[str, ...] = ("doc_id",),
) -> pa.Table:
    n_rows = len(batch)
    out_cols = {c: batch[c] for c in id_cols}
    if n_rows == 0:
        out_cols["top_bigram_frac"] = pa.array([], pa.float64())
        out_cols["dup3_frac"] = pa.array([], pa.float64())
        return pa.table(out_cols)

    txt = batch[text_col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    lists = pc.split_pattern(txt, " ")  # == SQL string_split(text, ' ')
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = lists.values
    parent = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
    wl = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    wh = hash_strings64(flat)
    n_chars = (
        pc.cast(batch[chars_col], pa.int64())
        .to_numpy(zero_copy_only=False).astype(np.float64)
    )

    # ---------------------------------------------- bigrams: top-gram mass
    top_frac = np.zeros(n_rows, dtype=np.float64)
    same2 = parent[:-1] == parent[1:]
    if same2.any():
        d = parent[:-1][same2]
        h1, h2 = wh[:-1][same2], wh[1:][same2]
        glen = wl[:-1][same2] + wl[1:][same2] + 1
        order = np.lexsort((h2, h1, d))
        starts, counts = _runs(order, d, h1, h2)
        run_doc = d[order][starts]
        run_glen = glen[order][starts]
        if run_glen.max() >= (1 << _GLEN_BITS):
            # loud error instead of silently corrupting the packed
            # lexicographic max (same policy as asof_join's 2^53 guard)
            raise ValueError(
                f"bigram string length {int(run_glen.max())} >= "
                f"2^{_GLEN_BITS}; unsegmented text this pathological "
                f"needs pre-splitting before repetition_signals_stage"
            )
        packed = (counts.astype(np.int64) << _GLEN_BITS) | run_glen
        # per-doc lexicographic max of (count, glen): runs are already
        # grouped by doc after the lexsort, so one reduceat per doc
        doc_start = np.nonzero(
            np.r_[True, run_doc[1:] != run_doc[:-1]]
        )[0]
        best = np.maximum.reduceat(packed, doc_start)
        docs = run_doc[doc_start]
        cmax = (best >> _GLEN_BITS).astype(np.float64)
        glmax = (best & ((1 << _GLEN_BITS) - 1)).astype(np.float64)
        top_frac[docs] = cmax * glmax / n_chars[docs]

    # ------------------------------------- trigrams: duplicated-gram mass
    dup3 = np.zeros(n_rows, dtype=np.float64)
    same3 = same2[:-1] & same2[1:]
    if same3.any():
        d = parent[:-2][same3]
        t1, t2, t3 = wh[:-2][same3], wh[1:-1][same3], wh[2:][same3]
        order = np.lexsort((t3, t2, t1, d))
        starts, counts = _runs(order, d, t1, t2, t3)
        run_doc = d[order][starts]
        c = counts.astype(np.float64)
        tot = np.bincount(run_doc, weights=c, minlength=n_rows)
        dup = np.bincount(
            run_doc[counts >= 2], weights=c[counts >= 2], minlength=n_rows
        )
        has = tot > 0
        dup3[has] = dup[has] / tot[has]

    out_cols["top_bigram_frac"] = pa.array(top_frac)
    out_cols["dup3_frac"] = pa.array(dup3)
    return pa.table(out_cols)
