"""CI's count gates, as tier-1 tests.

Each was an inline script of ``.github/workflows/ci.yml``, so it went
red only in CI; here it runs with the suite, its assertions unchanged
in strength.
"""

import os
import pathlib

import pytest

from repro.bench import get
from repro.frontend import parse_and_analyze
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


def test_malloc_and_free_in_c():
    """Codegen emits every malloc/free call site as ``rp_malloc`` /
    ``rp_free``, with the builtin upcall only behind their -1.
    Lowering is pure Python: no C compiler needed."""
    low = codegen.lower_program(*parse_and_analyze(
        "int main(void) { char *p; char *q; p = (char*)malloc(8);"
        " q = (char*)malloc(24); free(p); free(q); free(0);"
        " return 0; }"))
    want = {"malloc": 2, "free": 3}
    for name, n in want.items():
        assert low.source.count(f"= rp_{name}(E, ") == n, \
            f"{name}: rp_{name} call sites"
        assert sum(c.name == name for c in low.calls) == n, \
            f"{name}: want one upcall site behind each rp_{name}"
    assert low.heap, "the lowering attaches no heap mirror"
