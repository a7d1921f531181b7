"""Char-trigram language model perplexity (KenLM-style, from scratch —
SURVEY.md Q1).

Alphabet: bytes folded to 64 classes (case-folded letters, digits, common
code punctuation, whitespace, other) so the conditional table is a dense
64^3 float32 array (1 MiB) — mmap-free, rebuilt deterministically per
process in under a second.

Scoring runs one native C kernel per batch (`_kernels.c:ppl_sums`,
built and loaded by `_native.py`, shared with langid) straight on the
Arrow offsets and data buffers: per document it clips to SAMPLE_BYTES,
folds the bytes, and sums the trigram log-probabilities as float64 in
the order of the numpy reference kernel's np.add.reduceat: the first
term plus numpy's pairwise sum of the rest (8 accumulators, blocks of
up to 128 terms, a halving split above). The mean and `2.0 ** h` stay
in numpy. Segment sums are independent of how documents are batched, so
the Ray stage (1024-doc batches) and the sequential oracle (one doc at a
time, through the same kernel) produce bit-identical perplexities — the
parity invariant.

The reference (`_score_segments`: fold bytes, rolling trigram codes,
one fancy-index gather, per-segment np.add.reduceat over
SCORE_SLICE_ROWS-row slices by `_util.score_slices`) is the path when
the C kernels cannot be built (no C compiler), with one warning per
process, and the one the tests compare the native kernel against.

`score_batch_arrow` reads the Arrow string buffers directly (no Python
string materialization; to_pylist+encode per doc was pure extra
traffic).

Truncation is BYTE-based (first SAMPLE_BYTES utf-8 bytes): identical
between the buffer path and the encode path by construction.

Add-k smoothing: logp(c3 | c1 c2) = log2((n3 + k) / (n2 + k * V)).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from pipeline._util import rng_for
from pipeline._util import score_slices as _score_slices
from pipeline._util import string_buffers as _string_buffers
from pipeline._util import utf8_segments as _utf8_segments
from pipeline.quality import _native
from pipeline.synth.codelang import LANGS, TEXT_LANGS, make_snippet

V = 64
SAMPLE_BYTES = 1024
_K = 0.1
_FIT_SNIPPETS = 160
_EMPTY_PPL = float(2 ** 16)

# byte -> class fold table
_FOLD = np.full(256, 63, dtype=np.int32)  # other; V**3 < 2**31 so int32
# index math halves the memory traffic of the per-byte temp arrays
for i, ch in enumerate("abcdefghijklmnopqrstuvwxyz"):
    _FOLD[ord(ch)] = i
    _FOLD[ord(ch.upper())] = i
for i, ch in enumerate("0123456789"):
    _FOLD[ord(ch)] = 26 + i
for i, ch in enumerate(" \n\t.,;:(){}[]<>=+-*/\"'#_"):
    _FOLD[ord(ch)] = 36 + i


def _codes(text: str) -> np.ndarray:
    b = np.frombuffer(
        text.encode("utf-8", "replace")[:SAMPLE_BYTES], dtype=np.uint8
    )
    c = _FOLD[b]
    if c.size < 3:
        return np.empty(0, dtype=np.int32)  # match the normal path's dtype
    return (c[:-2] * V + c[1:-1]) * V + c[2:]  # Horner, same as scoring


class PerplexityModel:
    _default: "PerplexityModel | None" = None

    def __init__(self, logp: np.ndarray):
        self.logp = logp  # V^3 float32: log2 P(c3 | c1 c2)

    @classmethod
    def fit(cls, texts: list[str]) -> "PerplexityModel":
        n3 = np.zeros(V * V * V, dtype=np.float64)
        for t in texts:
            c = _codes(t)
            if c.size:
                np.add.at(n3, c, 1.0)
        n2 = n3.reshape(V * V, V).sum(axis=1, keepdims=True)
        logp = np.log2((n3.reshape(V * V, V) + _K) / (n2 + _K * V)).astype(np.float32)
        return cls(logp.reshape(-1))

    @classmethod
    def default(cls) -> "PerplexityModel":
        if cls._default is None:
            texts = [
                make_snippet(lang, rng_for("ppl-fit", lang, i), n_lines=30)
                for lang in LANGS + TEXT_LANGS
                for i in range(_FIT_SNIPPETS)
            ]
            cls._default = cls.fit(texts)
        return cls._default

    def _score_segments(self, data: np.ndarray, off: np.ndarray) -> np.ndarray:
        """Reference kernel: perplexity per segment of a concatenated
        (pre-clipped) byte stream. Per-segment sums use np.add.reduceat
        (first term plus numpy's pairwise sum of the rest), independent
        of neighbors: batch-composition-invariant."""
        n = len(off) - 1
        lens = np.diff(off)
        nwin = np.maximum(lens - 2, 0)
        out = np.full(n, _EMPTY_PPL, dtype=np.float64)
        if len(data) < 3:
            return out
        c = _FOLD[data]
        t = c[:-2] * V  # Horner codes, built in place
        t += c[1:-1]
        t *= V
        t += c[2:]
        lp = np.empty(len(t) + 1, dtype=np.float64)
        lp[:-1] = self.logp[t]
        lp[-1] = 0.0  # sentinel: end index == len(t) ok
        starts = off[:-1]
        ends = starts + nwin
        ind = np.empty(2 * n, dtype=np.int64)
        ind[0::2] = np.minimum(starts, len(lp) - 1)
        ind[1::2] = np.minimum(ends, len(lp) - 1)
        sums = np.add.reduceat(lp, ind)[0::2]  # [start, end) segment sums
        mask = nwin > 0
        h = -(sums[mask] / nwin[mask])
        out[mask] = 2.0 ** h
        return out

    def _score(self, data: np.ndarray, off: np.ndarray) -> np.ndarray:
        """Perplexity of the first SAMPLE_BYTES bytes of each segment
        [off[i], off[i+1]) of ``data``: the log-probability sums in one
        native kernel call, or the reference kernel over
        SCORE_SLICE_ROWS-row slices when the native kernels are
        unavailable."""
        lib = _native.kernels()
        if lib is None:
            return _score_slices(self._score_segments, data, off, SAMPLE_BYTES)
        n = len(off) - 1
        logp = np.ascontiguousarray(self.logp, dtype=np.float32)
        off = np.ascontiguousarray(off, dtype=np.int64)
        sums = np.empty(n, dtype=np.float64)
        if lib.ppl_sums(data.ctypes.data, off.ctypes.data, n, SAMPLE_BYTES,
                        _FOLD.ctypes.data, logp.ctypes.data, sums.ctypes.data):
            raise MemoryError("ppl_sums: workspace allocation failed")
        nwin = np.maximum(np.minimum(np.diff(off), SAMPLE_BYTES) - 2, 0)
        out = np.full(n, _EMPTY_PPL, dtype=np.float64)
        mask = nwin > 0
        out[mask] = 2.0 ** -(sums[mask] / nwin[mask])
        return out

    def score_batch(self, texts: list[str]) -> np.ndarray:
        return self._score(*_utf8_segments(texts, SAMPLE_BYTES))

    def score_batch_arrow(self, arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
        """Score straight off the Arrow string buffers (utf-8 bytes are
        the buffer bytes — bit-identical to score_batch on the same
        texts, with zero Python-string materialization)."""
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        off, data = _string_buffers(arr)
        return self._score(data, off)

    def score_one(self, text: str) -> float:
        return float(self.score_batch([text])[0])
