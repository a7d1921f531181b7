"""Build and load of the native scoring kernels (pipeline/quality/_native):
the cached shared object's name, concurrent builds, the fallback to the
numpy reference kernels when the compile fails, and that the native
path is the one that scores here."""

from __future__ import annotations

import logging
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pyarrow as pa
import pytest

from pipeline.quality import _native
from pipeline.quality.langid import LangIdModel
from pipeline.quality.perplexity import PerplexityModel

REPO = Path(__file__).resolve().parents[1]
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def _rows() -> pa.Array:
    from perfbench.fixtures import code_rows

    return code_rows(300, 1)["content"].combine_chunks()


def _scores(arr: pa.Array) -> tuple[list, bytes, bytes]:
    langs, conf = LangIdModel.default().predict_batch_arrow(arr)
    return langs.to_pylist(), conf.tobytes(), PerplexityModel.default().score_batch_arrow(arr).tobytes()


@pytest.fixture
def fresh_source(tmp_path, monkeypatch):
    """A copy of the kernel source in an empty directory (so an empty
    __pycache__ beside it), made the source the loader builds; the
    process's loaded kernels are dropped before and after."""
    src = tmp_path / "src" / "_kernels.c"
    src.parent.mkdir()
    shutil.copy(_native.SOURCE, src)
    monkeypatch.setattr(_native, "SOURCE", src)
    _native.kernels.cache_clear()
    yield src
    monkeypatch.undo()
    _native.kernels.cache_clear()


@needs_cc
def test_native_path_scores_on_this_host(monkeypatch):
    """With a C compiler the models score with the native kernels: the
    reference kernels are never called."""
    assert _native.kernels() is not None

    def refuse(*args):
        raise AssertionError("reference kernel called")

    monkeypatch.setattr(LangIdModel, "_scores_segments", refuse)
    monkeypatch.setattr(PerplexityModel, "_score_segments", refuse)
    _scores(_rows())


@needs_cc
def test_edited_source_gets_a_new_object(fresh_source):
    first = _native.build()
    assert first.parent == fresh_source.parent / "__pycache__"
    with fresh_source.open("a") as f:
        f.write("\n/* edited */\n")
    second = _native.build()
    assert second != first and first.exists() and second.exists()
    assert _native.build() == second  # cached: no rebuild
    assert sorted(p.name for p in second.parent.iterdir()) == sorted([first.name, second.name])


_CONCURRENT_SCRIPT = """
import sys, time
from pathlib import Path

from pipeline.quality import _native
from pipeline.quality.langid import LangIdModel
from pipeline.quality.perplexity import PerplexityModel
from perfbench.fixtures import code_rows

_native.SOURCE = Path(sys.argv[1])
arr = code_rows(300, 1)["content"].combine_chunks()
lm, pm = LangIdModel.default(), PerplexityModel.default()
time.sleep(max(0.0, float(sys.argv[2]) - time.time()))  # start together
langs, conf = lm.predict_batch_arrow(arr)
ppl = pm.score_batch_arrow(arr)
lib = _native.kernels()
assert lib is not None
print(lib._name, hash((tuple(langs.to_pylist()), conf.tobytes(), ppl.tobytes())))
"""


@needs_cc
def test_concurrent_builds_both_load(fresh_source):
    """Two processes that score at the same moment, with no object built
    yet, each compile and os.replace theirs into place: both load a
    working object, score as this process does, and leave no temporary
    file behind."""
    start = time.time() + 3.0
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _CONCURRENT_SCRIPT, str(fresh_source), str(start)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=REPO,
            env=dict(os.environ, PYTHONPATH=str(REPO), PYTHONHASHSEED="0"),
        )
        for _ in range(2)
    ]
    outs = []
    for p in procs:
        out, err = p.communicate(timeout=120)
        assert p.returncode == 0, err[-2000:]
        outs.append(out.split())
    assert outs[0] == outs[1]
    so = Path(outs[0][0])
    assert so.parent == fresh_source.parent / "__pycache__"
    assert [p.name for p in so.parent.iterdir()] == [so.name]


def test_failed_build_falls_back_to_reference(fresh_source, tmp_path, monkeypatch, caplog):
    """A compile that fails (a `cc` that exits 1) leaves the models on the
    numpy reference kernels, with outputs equal to the native ones and
    one warning however often they score."""
    arr = _rows()
    want = _scores(arr)
    shutil.rmtree(fresh_source.parent / "__pycache__", ignore_errors=True)
    _native.kernels.cache_clear()
    caplog.clear()
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text("#!/bin/sh\necho 'cc: simulated failure' >&2\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    with caplog.at_level(logging.WARNING, logger=_native.__name__):
        for _ in range(2):
            assert _scores(arr) == want
    assert _native.kernels() is None
    warnings = [r for r in caplog.records if r.name == _native.__name__]
    assert len(warnings) == 1 and "simulated failure" in warnings[0].getMessage()
    assert not list((fresh_source.parent / "__pycache__").iterdir())  # no temporary left
