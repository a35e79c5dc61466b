"""CI's count gates, as tier-1 tests.

Most were inline scripts of ``.github/workflows/ci.yml``, so they went
red only in CI; here they run with the suite, their assertions
unchanged in strength.
"""

import io
import os
import pathlib
import re
import tokenize

import pytest

from repro.bench import get
from repro.frontend import parse_and_analyze
from repro.interp.native import backend, codegen, native_backend_available
from repro.service import (
    CompileOptions, Job, StageCache, StagedCompiler, stage_keys,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

_OK, _WHY = native_backend_available()


@pytest.mark.skipif(not _OK, reason=_WHY)
def test_cold_compile_on_every_core(tmp_path, monkeypatch):
    """A cold native job logs one line per unit: the instrumented unit
    (built by the profile stage) and the transformed unit, each built as
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
    # the profile stage registered the instrumented unit's context for
    # the original program
    instrumented = backend._CONTEXTS[compiled.program].lowering
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


def _code_tokens(path):
    """Identifiers and strings, but no comments or docstrings."""
    prev = tokenize.NEWLINE
    for tok in tokenize.generate_tokens(
            io.StringIO(path.read_text()).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL):
            continue
        if not (tok.type == tokenize.STRING and prev in (
                tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)):
            yield tok.string
        prev = tok.type


def test_three_engines_one_closure_form():
    """The bare variant and the per-engine fault wiring cannot quietly
    return: identifiers and non-docstring strings only, so prose may
    still say what was removed."""
    import repro
    bad = [] if len(repro.ENGINES) == 3 else [f"{repro.ENGINES=}"]
    bad += [f"{p}: {needle!r} in token {tok!r}"
            for p in sorted((SRC / "interp/bytecode").glob("*.py"))
            for tok in _code_tokens(p)
            for needle in ("instrumented", "BARE", "variant")
            if needle in tok]
    faults = (SRC / "runtime/faults.py").read_text()
    bad += [f"faults.py branches on the engine again: {needle}"
            for needle in ('machine.engine != "ast"',
                           'machine.engine == "ast"')
            if needle in faults]
    bad += [f"{p}: unobserved_engine is back"
            for p in sorted(SRC.rglob("*.py"))
            if "unobserved_engine" in p.read_text()]
    assert not bad, "\n".join(bad)


#: the inline fill every observer fan-out is paired with
_RACE_FILL = re.compile(
    r"^(\s*)log = (\w+)\.race_log\n"
    r"\1if log is not None:\n"
    r"\1    log\.add\(\([^\n]*\)\)\n"
    r"\1for obs in \2\.observers:\n", re.M)


def test_the_race_checker_is_filled_inline():
    """The race checker is no observer: ``RaceChecker.attach`` is the one
    way to install one, and every access site that fans out to
    ``observers`` first adds its access to ``race_log``."""
    bad = [f"{p}: observers.append({arg})"
           for p in sorted(SRC.rglob("*.py"))
           for arg in re.findall(r"observers\.append\(([^)]*)\)",
                                 p.read_text())
           if "checker" in arg.lower()]
    for rel, want in (("interp/bytecode/exprs.py", 11),
                      ("interp/machine.py", 4), ("interp/builtins.py", 1)):
        text = (SRC / rel).read_text()
        fanouts = len(re.findall(r"^\s*for obs in \w+\.observers:$",
                                 text, re.M))
        paired = len(_RACE_FILL.findall(text))
        if not fanouts == paired == want:
            bad.append(f"{rel}: {fanouts} observer fan-outs, {paired} "
                       f"with a race_log fill before them, want {want}")
    assert not bad, "\n".join(bad)


def test_one_checker_one_benchmark_record():
    """repro lint is the only checker of the transformed IR and
    perfbench the only benchmark record: neither the validator nor the
    BENCH_*.json trajectory comes back, and the allocation scaling test
    is written once."""
    bad, defs = [], 0
    for p in sorted(SRC.rglob("*.py")):
        toks = list(_code_tokens(p))
        bad += [f"{p}: {needle!r} in token {tok!r}" for tok in toks
                for needle in ("validate_transform", "VALID-",
                               "trajectory", "BENCH_")
                if needle in tok]
        defs += sum(a == "def" and b == "_contains_nthreads"
                    for a, b in zip(toks, toks[1:]))
    if defs != 1:
        bad.append(f"{defs} definitions of _contains_nthreads, want 1")
    assert not bad, "\n".join(bad)


def test_the_profile_run_is_the_sequential_baseline():
    """A job runs its original program once, in the profile stage, which
    builds the instrumented unit itself: no early build outlives a
    stage, and no baseline side stage caches a second run."""
    needles = ("native_baseline", "instrumented_build",
               "_start_instrumented", "max_parts", "_BASELINE_STAGE")
    bad = [f"{p}: {needle!r} in {tok!r}"
           for p in sorted(SRC.rglob("*.py"))
           for tok in _code_tokens(p) for needle in needles
           if needle in tok]
    assert not bad, "\n".join(bad)
    assert "baseline" not in stage_keys(Job("int main(void) { return 0; }",
                                            []))
