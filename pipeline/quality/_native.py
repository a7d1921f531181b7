"""Build and load the native scoring kernels (`_kernels.c`) via ctypes.

The shared object is compiled once per source: its name carries the
sha256 of the source and the compile command, under `__pycache__/`
next to the source, so an edited source or changed flags get a new
object and every later process loads the cached one. The compile writes
a temporary file that `os.replace` moves into place, so processes that
build at the same moment each load a complete object.

The flags keep the kernels bit-identical to the numpy reference:
`-ffp-contract=off` forbids fused multiply-adds, and there is no
`-march=native` or `-ffast-math`, which would change rounding or the
order of the sums.

`kernels()` returns the loaded library, or None when it cannot be built
or loaded (no C compiler, say); the models then score with their numpy
reference kernels, and one warning per process says so.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernels.c")
CFLAGS = ["-O2", "-shared", "-fPIC", "-ffp-contract=off"]

_P = ctypes.c_void_p
_I = ctypes.c_int64
_SIGNATURES = {
    # data, off, n, clip, profiles_t, L, out
    "langid_scores": [_P, _P, _I, _I, _P, _I, _P],
    # data, off, n, clip, fold, logp, out
    "ppl_sums": [_P, _P, _I, _I, _P, _P, _P],
}

log = logging.getLogger(__name__)


def build(source: Path | None = None) -> Path:
    """The shared object for ``source`` (default: SOURCE), compiled into
    ``__pycache__`` beside it unless already there. Raises OSError or
    CalledProcessError when the compile fails."""
    source = SOURCE if source is None else source
    cache = source.parent / "__pycache__"
    text = source.read_bytes()
    cmd = ["cc", *CFLAGS]
    tag = hashlib.sha256(text + " ".join(cmd + ["-lm"]).encode()).hexdigest()[:16]
    so = cache / f"{source.stem}.{tag}.so"
    if not so.exists():
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{so.stem}.", suffix=".tmp", dir=cache)
        os.close(fd)
        tmp = Path(tmp)
        try:
            subprocess.run([*cmd, "-o", str(tmp), str(source), "-lm"],
                           check=True, capture_output=True)
            os.replace(tmp, so)
        finally:
            tmp.unlink(missing_ok=True)
    return so


@functools.lru_cache(maxsize=1)
def kernels() -> ctypes.CDLL | None:
    """The native kernels of this process, or None (reference path)."""
    try:
        lib = ctypes.CDLL(str(build()))
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        if isinstance(detail, bytes):
            detail = detail.decode(errors="replace").strip()
        log.warning("native scoring kernels unavailable, scoring with the numpy "
                    "reference kernels: %s", detail)
        return None
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int
    return lib
