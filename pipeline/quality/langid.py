"""Hashed char-n-gram linear language classifier (fastText-lid style, from
scratch — SURVEY.md L1).

Feature map: byte trigrams of the first SAMPLE_BYTES utf-8 bytes, hashed
into D buckets. Model: one L2-normalized profile vector per language;
prediction is the argmax of cosine scores, confidence a softmax over
them. Fit deterministically at first use from pipeline.synth.codelang
snippets (offline env — no lid.176 download; §7.0).

Scoring runs one native C kernel per batch (`_kernels.c:langid_scores`,
built and loaded by `_native.py`) straight on the Arrow offsets and data
buffers: per document it clips to SAMPLE_BYTES, hashes each byte trigram
into a uint16 bucket count, visits the buckets it hit in ascending order
(a 65536-bit bitmap scanned word by word, no sort), and sums
count * profile over them. It copies the reduction order of the numpy
reference kernel below, which gathers one profile row per distinct
(doc, bucket) pair in bucket order and sums each document with
np.add.reduceat: the first term plus numpy's pairwise sum of the rest
(8 accumulators, blocks of up to 128 terms, a halving split above),
per float32 column; the norm's float64 sum the same way. So the scores
are bit-identical to the reference's, and per-document results do not
depend on the rest of the batch. The softmax stays in numpy.

The reference (`_scores_segments`, run over SCORE_SLICE_ROWS-row slices
by `_util.score_slices`) is the path when the C kernels cannot be built
(no C compiler), with one warning per process, and the one the tests
compare the native kernel against. The list path (`predict_batch`,
`predict_one`) runs the same kernel as `predict_batch_arrow`, so the Ray
stage and the sequential oracle agree bit-for-bit.

Ray usage: the fused `ray_pipeline.QualityScorer` is the T2 actor-pool
archetype [ref: evaluation/model_evaluation.py:55-63 — model loaded
once, reused per record]: the model is fetched once per worker process
in __init__, __call__ scores a whole Arrow batch vectorized.
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

D = 1 << 16
SAMPLE_BYTES = 768
_FIT_SNIPPETS = 120


def _tri_hash_stream(b: np.ndarray) -> np.ndarray:
    """Hashed byte-trigram bucket ids over a uint8 stream (multiplicative
    hash, deterministic), built in place in one uint32 array. uint32
    wraparound arithmetic: since D divides 2^32, (a*b mod 2^32) mod D ==
    (a*b) mod D — identical buckets to the exact int64 product."""
    if b.size < 3:
        return np.empty(0, dtype=np.uint32)
    codes = b[:-2].astype(np.uint32)
    codes <<= 8
    codes |= b[1:-1]
    codes <<= 8
    codes |= b[2:]
    codes *= np.uint32(2654435761)
    codes &= np.uint32(D - 1)
    return codes


def _tri_hashes(text: str) -> np.ndarray:
    b = np.frombuffer(
        text.encode("utf-8", "replace")[:SAMPLE_BYTES], dtype=np.uint8
    )
    return _tri_hash_stream(b)


def trigram_counts(text: str) -> np.ndarray:
    """Dense count vector (fit-time only)."""
    h = _tri_hashes(text)
    if h.size == 0:
        return np.zeros(D, dtype=np.float32)
    return np.bincount(h, minlength=D).astype(np.float32)


def _normalize(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    return v / n if n > 0 else v


class LangIdModel:
    _default: "LangIdModel | None" = None

    def __init__(self, profiles: np.ndarray, langs: list[str]):
        self.profiles = profiles  # L x D, rows L2-normalized
        # D x L row-major copy: the per-window gather then touches one
        # cache line per window instead of L scattered rows
        self.profiles_t = np.ascontiguousarray(profiles.T)
        self.langs = langs

    @classmethod
    def fit(cls, samples: dict[str, list[str]]) -> "LangIdModel":
        langs = sorted(samples)
        mat = np.zeros((len(langs), D), dtype=np.float32)
        for i, lang in enumerate(langs):
            acc = np.zeros(D, dtype=np.float32)
            for s in samples[lang]:
                acc += trigram_counts(s)
            mat[i] = _normalize(acc)
        return cls(mat, langs)

    @classmethod
    def default(cls) -> "LangIdModel":
        """Deterministic model fit from the synthetic language corpora.
        Cached per process (once per Ray worker)."""
        if cls._default is None:
            samples = {
                lang: [
                    make_snippet(lang, rng_for("langid-fit", lang, i), n_lines=30)
                    for i in range(_FIT_SNIPPETS)
                ]
                for lang in LANGS + TEXT_LANGS
            }
            cls._default = cls.fit(samples)
        return cls._default

    def _scores_segments(self, data: np.ndarray, off: np.ndarray) -> np.ndarray:
        """Reference kernel: (n_docs x L) cosine scores over a concatenated
        pre-clipped byte stream of fewer than 2^16 documents (_scores
        passes one slice).
        One sort + run-length count replaces per-doc np.unique; per-doc
        values do not depend on the rest of the batch."""
        n = len(off) - 1
        L = len(self.langs)
        scores = np.zeros((n, L), dtype=np.float32)
        if len(data) < 3 or n == 0:
            return scores
        lens = np.diff(off)
        nwin = np.maximum(lens - 2, 0)
        h_all = _tri_hash_stream(data)  # includes boundary-crossing windows
        # valid windows of doc i: positions off[i] .. off[i]+nwin[i]-1.
        # Drop the <=2 boundary-crossing windows per doc with a boolean
        # mask + compress (one 1-byte array + two guarded scatters)
        # instead of materializing three window-count int64 index arrays.
        valid_counts = nwin
        keep = np.ones(len(h_all), dtype=bool)
        for back in (1, 2):
            p = off[1:] - back
            keep[p[(p >= off[:-1]) & (p < len(h_all))]] = False
        h = h_all[keep]
        if len(h) == 0:
            return scores
        # ONE sort of a combined (row << 16 | bucket) key run-length-
        # encodes the per-(doc, bucket) counts, which drive BOTH the
        # numerator and the norm.  The numerator gathers one profile row
        # per DISTINCT (doc, bucket) pair weighted by its count — ~3-4x
        # fewer gathered rows than one-per-window on natural/code text
        # (measured 0.27 distinct/window on the code fixture), and the
        # per-doc summation order (bucket ascending) is canonical, i.e.
        # independent of batch composition by construction.  The key is
        # uint32: a call sees at most SCORE_SLICE_ROWS (< 2^16) rows.
        key = np.repeat(np.arange(n, dtype=np.uint32) << np.uint32(16), valid_counts)
        key |= h
        key.sort()
        new = np.empty(len(key), dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        run_starts = np.flatnonzero(new)
        runs = len(run_starts)
        cnt = np.diff(run_starts, append=len(key))
        run_keys = key[run_starts]
        run_buckets = run_keys & np.uint32(D - 1)
        run_keys >>= np.uint32(16)  # now the run's row
        ind = np.empty(n + 1, dtype=np.int64)
        ind[:-1] = np.searchsorted(run_keys, np.arange(n, dtype=np.uint32))
        ind[-1] = runs
        # numerator: sum_b profile[l,b] * cnt_b over the doc's distinct
        # buckets, gathered straight into a buffer whose last row is a
        # zero sentinel, so an empty row's index (== runs) is valid
        # WITHOUT clamping — a clamp would shift the previous row's
        # segment boundary and corrupt its sum (found by hypothesis); the
        # closing index bounds the LAST real segment so it never includes
        # the sentinel.  (reduceat on rows where ind[i] == ind[i+1] yields
        # a garbage single element — masked below by `has`, exactly as
        # for norm_sq.)
        contrib = np.empty((runs + 1, L), dtype=np.float32)
        np.take(self.profiles_t, run_buckets, axis=0, out=contrib[:-1])
        contrib[:-1] *= cnt.astype(np.float32)[:, None]
        contrib[-1] = 0.0
        num = np.add.reduceat(contrib, ind, axis=0)[:-1]  # n x L
        sq = np.empty(runs + 1, dtype=np.float64)
        np.multiply(cnt, cnt, out=sq[:-1])
        sq[-1] = 0.0
        norms = np.sqrt(np.add.reduceat(sq, ind)[:-1])
        has = valid_counts > 0
        scores[has] = (num[has] / norms[has, None]).astype(np.float32)
        return scores

    def _predict_from_scores(self, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(argmax language index, confidence) per row."""
        idx = scores.argmax(axis=1)
        # softmax confidence over cosine scores (temperature sharpens)
        z = np.exp((scores - scores.max(axis=1, keepdims=True)) * 12.0)
        conf = z[np.arange(len(scores)), idx] / z.sum(axis=1)
        return idx, conf

    def _scores(self, data: np.ndarray, off: np.ndarray) -> np.ndarray:
        """(n x L) cosine scores of the first SAMPLE_BYTES bytes of each
        segment [off[i], off[i+1]) of ``data``: one native kernel call,
        or the reference kernel over SCORE_SLICE_ROWS-row slices when
        the native kernels are unavailable."""
        lib = _native.kernels()
        if lib is None:
            return _score_slices(self._scores_segments, data, off, SAMPLE_BYTES)
        n, L = len(off) - 1, len(self.langs)
        pt = np.ascontiguousarray(self.profiles_t, dtype=np.float32)
        off = np.ascontiguousarray(off, dtype=np.int64)
        scores = np.empty((n, L), dtype=np.float32)
        if lib.langid_scores(data.ctypes.data, off.ctypes.data, n, SAMPLE_BYTES,
                             pt.ctypes.data, L, scores.ctypes.data):
            raise MemoryError("langid_scores: workspace allocation failed")
        return scores

    def _predict(self, data: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(language index, confidence) per segment of ``data``."""
        return self._predict_from_scores(self._scores(data, off))

    def predict_batch(self, texts: list[str]) -> tuple[list[str], np.ndarray]:
        idx, conf = self._predict(*_utf8_segments(texts, SAMPLE_BYTES))
        return [self.langs[i] for i in idx], conf

    def predict_batch_arrow(self, arr: pa.Array | pa.ChunkedArray) -> tuple[pa.Array, np.ndarray]:
        """Predict straight off the Arrow string buffers — bit-identical
        to predict_batch on the same texts, zero string materialization.
        The languages come back as an Arrow string array (one `take`
        from the label array, no per-row Python)."""
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        off, data = _string_buffers(arr)
        idx, conf = self._predict(data, off)
        return pa.array(self.langs, pa.string()).take(idx), conf

    def predict_one(self, text: str) -> tuple[str, float]:
        langs, conf = self.predict_batch([text])
        return langs[0], float(conf[0])
