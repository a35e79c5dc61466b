"""CI's count gates, as tier-1 tests.

Each was an inline script of ``.github/workflows/ci.yml``, so it went
red only in CI; here it runs with the suite, its assertions unchanged
in strength.
"""

import os
import pathlib

import pytest

from repro.bench import get
from repro.interp.native import backend, codegen, native_backend_available
from repro.service import CompileOptions, Job, StageCache, StagedCompiler

_OK, _WHY = native_backend_available()


@pytest.mark.skipif(not _OK, reason=_WHY)
def test_cold_compile_on_every_core(tmp_path, monkeypatch):
    """A cold native job logs one line per unit: the instrumented unit
    (the profile waits for it) and the transformed unit, each built as
    ``min(cores, lines // PART_LINES)`` objects linked once; every fault
    exit calls ``rp_fail``."""
    log = tmp_path / "cc.log"
    monkeypatch.setenv(backend.CC_LOG_ENV, str(log))
    spec = get("dijkstra")
    job = Job(spec.source, list(spec.loop_labels),
              CompileOptions(engine="native"), check_races=False)
    compiled = StagedCompiler(
        cache=StageCache(root=str(tmp_path / "cache"))).compile(job)
    lines = [line.split() for line in log.read_text().splitlines()
             if line.startswith("prog-")]
    assert len(lines) == 2, lines
    cores = len(os.sched_getaffinity(0))
    instrumented = compiled.ctx.native_baseline.lowering
    assert instrumented.tracked
    for low in (compiled.ctx.native.lowering, instrumented):
        parts = max(1, min(cores, low.source.count("\n")
                           // backend.PART_LINES))
        assert [line[-1] for line in lines
                if line[0].startswith(f"prog-{low.fingerprint}-")] == \
            [f"parts={parts}"]
    assert "FAULT(s) do { FLUSH" not in \
        pathlib.Path(codegen.__file__).read_text(), \
        "codegen.py expands FAULT inline again"
