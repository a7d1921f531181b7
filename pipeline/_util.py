"""Deterministic per-row RNG + hashing utilities.

The reference gets determinism from *global* seeds
(pii_synth/generation.py:898-899 `random.seed(seed); Faker.seed(seed)`),
which only works single-process. Here every random draw is keyed by
(seed, *row keys) so generation is identical at ANY parallelism — the
core departure required by a distributed engine (SURVEY.md §4.2).
"""

from __future__ import annotations

import functools
import hashlib
import os
import random
import struct


def stable_hash(*parts: object) -> int:
    """64-bit stable hash of a tuple of str/int parts (blake2b, not Python hash)."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        b = str(p).encode("utf-8")
        h.update(struct.pack("<I", len(b)))
        h.update(b)
    return int.from_bytes(h.digest(), "little")


def rng_for(*parts: object) -> random.Random:
    """Deterministic `random.Random` keyed by the given parts."""
    return random.Random(stable_hash(*parts))


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def hex_digest(*parts: object, n: int = 40) -> str:
    """Deterministic lowercase-hex string of length n (e.g. fake commit sha)."""
    out = ""
    i = 0
    while len(out) < n:
        out += hashlib.blake2b(
            str((parts, i)).encode(), digest_size=32
        ).hexdigest()
        i += 1
    return out[:n]


def clean_batch(t):
    """Drop Arrow schema metadata (zero-copy). pandas-written parquet
    attaches a metadata dict that makes pa.Schema unhashable; Ray then
    logs 'Failed to hash the schemas (for deduplication)' on every block
    concat and loses its schema-dedup fast path."""
    return t.replace_schema_metadata(None) if t.schema.metadata else t


def _parquet_files(path) -> list[str]:
    """The parquet files behind a file, a directory or a list of them."""
    from pathlib import Path

    out = []
    for p in path if isinstance(path, (list, tuple)) else [path]:
        if Path(p).is_dir():
            out += [str(f) for f in sorted(Path(p).glob("*.parquet"))]
        else:
            out.append(p)
    return out


def parquet_schema(path):
    """The first file's Arrow schema with its metadata stripped, or None
    when it can't be read (remote FS, odd layout). Passing it to
    read_parquet strips pandas metadata AT THE SOURCE, inside the read
    operator where a downstream clean_batch map can't reach, so every
    block schema stays hashable (see clean_batch)."""
    import pyarrow.parquet as pq

    try:
        return pq.ParquetFile(_parquet_files(path)[0]).schema_arrow.remove_metadata()
    except Exception:
        return None


def parquet_rows(path) -> int | None:
    """Exact row count from the parquet footers (metadata only, no scan)
    of a file, a directory or a list of them; None when there is no file
    or one can't be read. Feeds the size-switch hints, which are pure
    optimizations: None just means 'no hint'."""
    import pyarrow.parquet as pq

    try:
        files = _parquet_files(path)
        return sum(pq.ParquetFile(f).metadata.num_rows for f in files) if files else None
    except Exception:
        return None


def nulls_as_empty(arr):
    """``arr`` (a (Large)StringArray) with every null as "": the array
    itself when it holds no null, else one fill_null copy. Arrow lets a
    null slot's offsets span bytes, so a null can't be read as empty
    from the offsets alone."""
    import pyarrow.compute as pc

    return pc.fill_null(arr, "") if arr.null_count else arr


def string_buffers(arr):
    """(absolute int64 offsets, uint8 data) of a (Large)StringArray —
    the single implementation of Arrow string-buffer access (offset-
    sliced arrays, large_string offsets, missing data buffer, a null
    read as "")."""
    import numpy as np
    import pyarrow as pa

    arr = nulls_as_empty(arr)
    odt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    bufs = arr.buffers()
    off = np.frombuffer(bufs[1], dtype=odt)[
        arr.offset: arr.offset + len(arr) + 1
    ].astype(np.int64)
    data = (
        np.frombuffer(bufs[2], dtype=np.uint8)
        if bufs[2] is not None else np.empty(0, dtype=np.uint8)
    )
    return off, data


_BLOCK_MULT = -7046029254386353131  # odd; wraps in int64


@functools.lru_cache(maxsize=1)
def _hash_w():
    """Position weights for hash_strings64 (fixed seed: deterministic
    across processes). The table repeats past 64 KiB, so the effective
    weight adds a block-index term (+ blk * _BLOCK_MULT, odd): positions
    exactly 64 KiB apart get DIFFERENT weights, killing the structured
    collision class (bytes swapped table-length apart) a purely periodic
    table has. Strings < 64 KiB (blk == 0) never see the block term."""
    import numpy as np

    w = np.random.RandomState(7).randint(
        1, (1 << 62), size=65536, dtype=np.int64
    ) | np.int64(1)
    w.flags.writeable = False  # one shared table per process
    return w


def hash_strings64(arr):
    """Position-weighted 64-bit hash per string of a (Large)StringArray,
    vectorized over the Arrow buffer (int64 wraparound is the mixing).
    Two different strings collide with probability ~2^-62 per pair."""
    import numpy as np

    off, data = string_buffers(arr)
    lens = np.diff(off)
    pos = np.arange(off[0], off[-1], dtype=np.int64) - np.repeat(
        off[:-1], lens
    )
    w = _hash_w()[pos & 0xFFFF] + (pos >> 16) * np.int64(_BLOCK_MULT)
    vals = data[off[0]: off[-1]].astype(np.int64) * w
    # empty strings keep a 0 sum (invariant in segment_sums)
    seg = segment_sums(vals, off - off[0], dtype=np.int64)
    return seg * np.int64(31) + lens


def epoch_floor_div(ts, unit_us: int):
    """floor(epoch_us / unit_us) as int64 (time buckets), exact for every
    int64 epoch: integer divide (truncates toward zero), then subtract 1
    where the epoch is negative and not an exact multiple. A float64
    divide is exact only for |epoch| < 2^53 us. ``ts`` is normalized to
    microseconds first (a ns column would shift buckets 1000x)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    epoch = pc.cast(pc.cast(ts, pa.timestamp("us")), pa.int64())
    unit = pa.scalar(unit_us, pa.int64())
    q = pc.divide(epoch, unit)
    neg_rem = pc.less(pc.subtract(epoch, pc.multiply(q, unit)), pa.scalar(0, pa.int64()))
    return pc.if_else(neg_rem, pc.subtract(q, pa.scalar(1, pa.int64())), q)


def utf8_segments(texts, clip: int):
    """(uint8 data, int64 offsets) of Python strings, each encoded as
    utf-8 (unencodable code points replaced) and cut to its first
    ``clip`` bytes: the list twin of string_buffers + clip_segments."""
    import numpy as np

    enc = [t.encode("utf-8", "replace")[:clip] for t in texts]
    off = np.zeros(len(enc) + 1, dtype=np.int64)
    np.cumsum([len(e) for e in enc], out=off[1:])
    return np.frombuffer(b"".join(enc), dtype=np.uint8), off


def clip_segments(data, off, clip: int):
    """Per-segment prefixes of at most `clip` bytes, concatenated into a
    fresh stream. Returns (clipped data, clipped offsets from 0).

    Only segments longer than `clip` lose bytes, so the kept bytes form
    (number of cut segments + 1) contiguous runs of `data`: run k goes
    from the start of the segment after cut k-1 to byte `clip` of cut
    segment k. One `np.concatenate` of those slices copies runs, not
    bytes through a per-byte index."""
    import numpy as np

    lens = np.diff(off)
    out_off = np.zeros(len(off), dtype=np.int64)
    np.cumsum(np.minimum(lens, clip), out=out_off[1:])
    cut = np.flatnonzero(lens > clip)
    starts = [int(off[0])] + off[cut + 1].tolist()
    ends = (off[cut] + clip).tolist() + [int(off[-1])]
    return np.concatenate(
        [data[s:e] for s, e in zip(starts, ends)]
    ), out_off


# Rows per call of a numpy reference scoring kernel (langid, perplexity;
# the native kernels in quality/_kernels.c take the whole batch and are
# the path wherever they build). A kernel's numpy temporaries grow with
# the rows it sees: at 1024 rows langid allocates ~15 MB and
# perplexity ~9 MB per call, which glibc hands
# back to the OS when the call ends, so the next call faults them in
# again. Measured per 1024-row batch of the 16000 seed-1 code rows
# (getrusage ru_minflt, warm heap, 1 vCPU): one 1024-row call, langid
# ~4960 faults and 27-31 us/row, perplexity ~2340 and 13 us/row; in
# 256-row slices both 0 faults, langid 15-17 and perplexity 6.6-7.5
# us/row. Langid faults again from 384-row slices (~3360 per batch;
# ~5000 from 512), perplexity from 1024. Per-row results do not depend
# on the slicing: both kernels' sums are segment-local.
SCORE_SLICE_ROWS = 256


def score_slices(score, data, off, clip: int):
    """``score(clipped data, offsets from 0)`` over SCORE_SLICE_ROWS-row
    slices of the segments [off[i], off[i+1]) of ``data``, each clipped
    to its first ``clip`` bytes (clip_segments), the per-row results
    concatenated along axis 0. Keeps a kernel's working set at one
    slice however large the batch; zero rows make one call on none."""
    import numpy as np

    parts = [
        score(*clip_segments(data, off[i: i + SCORE_SLICE_ROWS + 1], clip))
        for i in range(0, len(off) - 1, SCORE_SLICE_ROWS)
    ]
    return np.concatenate(parts) if parts else score(*clip_segments(data, off, clip))


def segment_sums(vals, rel, dtype=None):
    """Per-segment sums of `vals` over the contiguous segments
    [rel[i], rel[i+1]); empty segments yield 0.  The reduceat invariant
    lives HERE and only here: never clamp start indices into range —
    reduceat sums [ind[i], ind[i+1]), so pulling an empty segment's
    out-of-range start DOWN truncates the PRECEDING segment's sum.
    Index only the starts of non-empty segments: they are strictly
    increasing, all in range, and tile the buffer, so reduceat returns
    exactly those segments' sums (the last one running to the end)."""
    import numpy as np

    lens = np.diff(rel)
    out = np.zeros(len(lens), dtype=dtype or vals.dtype)
    nz = lens > 0
    if nz.any():
        out[nz] = np.add.reduceat(vals, rel[:-1][nz], dtype=out.dtype)
    return out


def _cluster_cpus() -> int:
    """The CPUs work is sized to (read blocks, scorer actor pool, join
    partitions): the Ray cluster's, or before ray.init this host's, as a
    lazy pipeline auto-initialises a local cluster when it executes."""
    import ray as _ray

    if not _ray.is_initialized():
        return os.cpu_count() or 1
    return max(1, int(_ray.cluster_resources().get("CPU", 1)))


_PUT_CACHE: dict = {}


def _put_once(obj):
    """Driver-side twin of _fetch_once: ray.put ``obj`` once per Ray
    session and return the same ref on later calls, so a broadcast model
    is shipped, and fetched by each worker, once per session however many
    pipelines, partitions or queries use it.  One slot per type, keyed by
    (node id, job id, the object itself): a refit or swapped-in object is
    put again, and a ref from an ended session is never reused (after
    ray.shutdown() + ray.init() in one process the job id repeats but
    the node id changes)."""
    import ray as _ray

    def session():
        ctx = _ray.get_runtime_context()
        return ctx.get_node_id(), ctx.get_job_id()

    hit = _PUT_CACHE.get(type(obj))
    if hit is not None and hit[1] is obj and _ray.is_initialized() and hit[0] == session():
        return hit[2]
    ref = _ray.put(obj)  # initialises Ray if needed, like any lazy pipeline
    _PUT_CACHE[type(obj)] = (session(), obj, ref)
    return ref


_BCAST_CACHE: dict = {}


def _fetch_once(ref):
    """Per-worker fetch-once for a ray.put broadcast: deserialized ONCE
    PER WORKER (module-level cache keyed by the ref — Ray worker
    processes persist across tasks, so this matches an actor pool's
    fetch-once property without the pool's spin-up cost: an 8-actor
    pool cost ~7 s of process startup on a 150k-row dimension lookup
    whose compute is ~0.5 s).  Memory is bounded at 4 live broadcasts
    per worker, FIFO evict — a single slot thrashes when two broadcast
    stages interleave batches on one worker."""
    import ray as _ray

    key = ref.hex()
    val = _BCAST_CACHE.get(key)
    if val is None:
        val = _ray.get(ref)
        while len(_BCAST_CACHE) >= 4:
            _BCAST_CACHE.pop(next(iter(_BCAST_CACHE)))
        _BCAST_CACHE[key] = val
    return val
