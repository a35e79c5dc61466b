"""The native lowering tier: the ISSUE's bit-identity oracle.

Every benchmark kernel, expanded under both heap-legal copy layouts
(``interleaved`` rejects heap-allocated structures by design), must
produce a final address space byte-identical to the walker's on both
the simulated and the multi-core process backends — with *zero silent
fallbacks*: a run that claims to be native must have lowered cleanly
(no ``NL-*`` entries), dispatched real entry points, and routed every
worker chunk through the compiled ``.so``.

The module also pins the loud-fallback contract (``NL-NO-BODY``
per-function diagnostics, the ``NL-OBSERVERS`` race-checker gate) and
the serve pipeline's ``lower-native`` stage: cold compile, warm
in-memory hit, and a daemon-restart re-lower that reuses the ``.so``
disk cache without ever invoking the C compiler again.

Everything here skips as one block on hosts without a C toolchain.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import all_benchmarks, get
from repro.diagnostics import DiagnosticSink
from repro.frontend import ast, parse_and_analyze
from repro.interp import Machine
from repro.interp.native import native_backend_available
from repro.obs import Tracer
from repro.runtime import ParallelRunner, process_backend_available
from repro.service import (
    CompileOptions, Job, StageCache, StagedCompiler, run_job,
)
from repro.transform import expand_for_threads

_OK, _WHY = native_backend_available()
pytestmark = pytest.mark.skipif(
    not _OK, reason=f"native tier unavailable: {_WHY}")

_MC_OK, _MC_WHY = process_backend_available()
needs_process = pytest.mark.skipif(
    not _MC_OK, reason=f"process backend unavailable: {_MC_WHY}")

NTHREADS = 4
#: the copy layouts that admit heap-allocated structures (interleaved
#: raises TransformError on them — bonded mode is its documented out)
LAYOUTS = ("bonded", "adaptive")
KERNELS = tuple(spec.name for spec in all_benchmarks())
MATRIX = [(name, layout) for name in KERNELS for layout in LAYOUTS]
_IDS = [f"{name}-{layout}" for name, layout in MATRIX]

# small process-backend geometry: the kernels are interpreter-scale
SMALL_MC = {"segment_bytes": 1 << 21, "arena_bytes": 1 << 18}


def _heap_image(memory):
    """Live GLOBAL+HEAP allocations as (kind, label, addr, size, bytes)
    — the byte-level fingerprint the bit-identity contract promises."""
    return [
        (rec.kind, rec.label, rec.addr, rec.size,
         bytes(memory.data[rec.addr:rec.end]))
        for rec in memory._allocs
        if rec.live and rec.kind in ("global", "heap")
    ]


def _fingerprint(runner, outcome):
    cost = runner.machine.cost
    return {
        "exit": outcome.exit_code,
        "output": list(outcome.output),
        "cycles": cost.cycles,
        "instructions": cost.instructions,
        "loads": cost.loads,
        "stores": cost.stores,
        "loops": {
            label: (ex.makespan, ex.iterations)
            for label, ex in outcome.loops.items()
        },
        "heap": _heap_image(runner.machine.memory),
    }


# one expansion and one walker reference per (kernel, layout), shared
# by both backend cells: the walker run is the expensive half of every
# differential and is identical across backends by definition
_expansions = {}
_references = {}


def _expanded(name, layout):
    key = (name, layout)
    if key not in _expansions:
        spec = get(name)
        program, sema = parse_and_analyze(spec.source)
        _expansions[key] = expand_for_threads(
            program, sema, spec.loop_labels, optimize=True, layout=layout)
    return _expansions[key]


def _walker_reference(name, layout):
    key = (name, layout)
    if key not in _references:
        runner = ParallelRunner(_expanded(name, layout), NTHREADS,
                                engine="ast", backend="simulated",
                                check_races=False)
        outcome = runner.run()
        assert outcome.exit_code == 0, f"walker {name}/{layout} failed"
        _references[key] = _fingerprint(runner, outcome)
    return _references[key]


def _native_run(name, layout, backend):
    tracer = Tracer()
    kwargs = {}
    if backend == "process":
        kwargs.update(workers=NTHREADS, mc=dict(SMALL_MC))
    runner = ParallelRunner(_expanded(name, layout), NTHREADS,
                            engine="native", backend=backend,
                            check_races=False, tracer=tracer, **kwargs)
    outcome = runner.run()
    return runner, outcome, tracer.metrics.as_dict()


def _assert_lowered_clean(machine):
    """No silent fallback: every function and unit compiled.  The only
    tolerated NL entries are ``chunk:`` drivers on DOACROSS stage loops
    (cross-iteration control flow, reason ``NL-CONTROL``) — those loops
    still execute their bodies as native units, and the entry is the
    loud diagnostic the contract requires."""
    assert machine.engine == "native"
    assert machine.native_diag is None
    assert machine._low is not None
    bad = {k: v for k, v in machine._low.nl.items()
           if not (k.startswith("chunk:") and v == "NL-CONTROL")}
    assert bad == {}, f"silent NL fallbacks: {bad}"


class TestSimulatedDifferential:
    """native vs walker, simulated backend, full kernel × layout grid."""

    @pytest.mark.parametrize("name,layout", MATRIX, ids=_IDS)
    def test_bit_identical_to_walker(self, name, layout):
        runner, outcome, _ = _native_run(name, layout, "simulated")
        assert _fingerprint(runner, outcome) == _walker_reference(
            name, layout)
        _assert_lowered_clean(runner.machine)
        assert runner.machine.native_dispatches > 0


#: filled by the process differential; the aggregate gate below
#: asserts the suite as a whole exercised native DOALL chunk dispatch
_process_chunks = {"native": 0, "fallback": 0, "cells": 0}


@needs_process
class TestProcessDifferential:
    """native vs walker on the real multi-core backend."""

    @pytest.mark.parametrize("name,layout", MATRIX, ids=_IDS)
    def test_bit_identical_to_walker(self, name, layout):
        runner, outcome, metrics = _native_run(name, layout, "process")
        assert _fingerprint(runner, outcome) == _walker_reference(
            name, layout)
        _assert_lowered_clean(runner.machine)
        # worker-side contract: a fallback chunk would carry an NL-*
        # note and bump this metric — zero means every DOALL chunk the
        # audit routed to workers ran inside the .so
        assert metrics.get("runtime.native_fallbacks", 0) == 0
        chunks = metrics.get("runtime.native_chunks", 0)
        tasks = metrics.get("runtime.worker_tasks", 0)
        if get(name).parallelism == "DOALL":
            # every worker task was a native chunk — none degraded to
            # the Python iteration loop
            assert tasks > 0 and chunks == tasks
        else:
            # DOACROSS stages execute natively in the parent machine
            assert runner.machine.native_dispatches > 0
        _process_chunks["native"] += chunks
        _process_chunks["fallback"] += metrics.get(
            "runtime.native_fallbacks", 0)
        _process_chunks["cells"] += 1

    def test_suite_dispatched_native_chunks(self):
        # runs after the parametrized cells (file order): the suite
        # must have pushed real work through native worker entry points
        if _process_chunks["cells"] == 0:
            pytest.skip("process differential did not run")
        assert _process_chunks["native"] > 0
        assert _process_chunks["fallback"] == 0


class TestLoudFallbacks:
    """Fallbacks are per-function, diagnosed, and never change results."""

    def test_prototype_records_nl_no_body(self):
        # a body-less declaration cannot be lowered; the registry
        # records the NL-* reason and everything else still compiles
        src = """
        int helper(int x);
        int main(void) {
            int i; int s = 0;
            for (i = 0; i < 100; i++) { s = s + i; }
            print_int(s);
            return 0;
        }
        """
        program, sema = parse_and_analyze(src)
        machine = Machine(program, sema, engine="native")
        assert machine.run() == 0
        assert machine.output == ["4950"]
        assert machine.native_dispatches > 0
        assert machine._low.nl == {"fn:helper": "NL-NO-BODY"}

    def test_race_checker_gates_parent_with_nl_observers(self):
        # check_races hooks every access in Python; the runner builds
        # the parent machine on the instrumented bytecode tier — the
        # one whose closures fan accesses out — and says so
        name, layout = "dijkstra", "bonded"
        sink = DiagnosticSink()
        runner = ParallelRunner(_expanded(name, layout), NTHREADS,
                                engine="native", backend="simulated",
                                check_races=True, sink=sink)
        outcome = runner.run()
        codes = [d.code for d in sink.diagnostics]
        assert "NL-OBSERVERS" in codes
        # gated, not wrong and not blind: the final state still matches
        # the walker bit for bit
        assert runner.machine.engine == "bytecode"
        got = _fingerprint(runner, outcome)
        ref = _walker_reference(name, layout)
        assert got["heap"] == ref["heap"]
        assert got["output"] == ref["output"]
        assert got["exit"] == ref["exit"]


class TestServeLowerNative:
    """The lower-native stage: cold compile, warm hit, restart reuse."""

    KERNEL = get("dijkstra")

    def _job(self):
        return Job(source=self.KERNEL.source,
                   loop_labels=tuple(self.KERNEL.loop_labels),
                   nthreads=NTHREADS,
                   options=CompileOptions(engine="native"))

    def test_cold_warm_and_restart_without_recompiling(self, tmp_path):
        from repro.interp.native import backend as nb

        cache = StageCache(root=str(tmp_path))
        compiler = StagedCompiler(cache=cache)

        cc0 = nb.COMPILER_INVOCATIONS
        cold = compiler.compile(self._job())
        assert cold.report["lower-native"] == "miss"
        assert cold.ctx.native is not None
        # expanded program + sequential baseline → two compilations
        assert nb.COMPILER_INVOCATIONS == cc0 + 2

        warm = compiler.compile(self._job())
        assert warm.report["lower-native"] == "hit"
        assert nb.COMPILER_INVOCATIONS == cc0 + 2
        assert warm.ctx.native is not None

        # daemon restart: memory tier gone, .so disk cache survives —
        # the stage re-lowers in pure Python, zero compiler invocations
        tracer = Tracer()
        restarted = StagedCompiler(cache=StageCache(root=str(tmp_path)),
                                   tracer=tracer)
        again = restarted.compile(self._job())
        assert again.report["lower-native"] == "miss"
        assert nb.COMPILER_INVOCATIONS == cc0 + 2
        metrics = tracer.metrics.as_dict()
        assert metrics.get("native.so_cache_hit", 0) == 2
        assert metrics.get("native.so_cache_miss", 0) == 0
        assert os.path.isdir(os.path.join(str(tmp_path), "native-so"))

    def test_run_job_verifies_against_sequential(self, tmp_path):
        cache = StageCache(root=str(tmp_path))
        compiled = StagedCompiler(cache=cache).compile(self._job())
        outcome = run_job(compiled, cache=cache)
        assert outcome.verified
        assert outcome.exit_code == 0


# ---------------------------------------------------------------------------
# the re-entry rule: interpreted code beside a controlled loop lands in
# compiled code again at every loop and direct call
# ---------------------------------------------------------------------------

#: ``main`` holds the controlled DOALL ``L`` (so it is interpreted) and
#: sibling loops of every shape the rule must get right; ``LEAVE`` is
#: how the last loop leaves the program
_REENTRY_SRC = """
int out[24];
int buf[16];
int tally[8];

int square_sum(int n) {
    int j; int s = 0;
    for (j = 0; j < n; j++) s += j * j;
    return s;
}
int fact(int n) {
    if (n < 2) return 1;
    return n * fact(n - 1);
}
int twice(int x) {
    int j; int s = 0;
    for (j = 0; j < 2; j++) s += x;
    return s;
}
int thrice(int x) { return 3 * x; }
int pick(int i, int x) {
    int j; int s = 0;
    for (j = 0; j < 3; j++) s += j + x;
    return s + (i % 2 ? twice : thrice)(x);
}
int find(int key) {
    int j;
    for (j = 0; j < 24; j++) { if (out[j] == key) return j; }
    return -1;
}
int main(void) {
    int i; int k; int acc = 0; int n = 5;
    for (i = 0; i < 8; i++) tally[i] = i;
    #pragma expand parallel(doall)
    L: for (i = 0; i < 24; i++) {
        for (k = 0; k < 16; k++) buf[k] = i * k + 1;
        out[i] = buf[15] + buf[3];
    }
    for (i = 0; i < 24; i++) {
        if (i % 3 == 0) continue;
        if (i > 17) break;
        acc += out[i];
    }
    i = 0;
    while (i < 8) { acc += tally[i]; i++; }
    do { acc += i; i--; } while (i > 3);
    print_int(acc);
    int bias = acc % 7;
    for (i = 0; i < 8; i++) tally[i] += bias;
    int scratch[n];
    for (i = 0; i < n; i++) scratch[i] = out[i] + bias;
    for (i = 0; i < n; i++) acc += scratch[i] + tally[i];
    for (i = 0; i < 6; i++) acc += square_sum(i) + fact(i);
    for (i = 0; i < 6; i++) acc += (i % 2 ? twice : thrice)(i);
    for (i = 0; i < 4; i++) acc += pick(i, i + bias);
    print_int(acc);
    print_int(find(out[9]));
    for (i = 0; i < 24; i++) {
        if (out[i] > 100) { print_int(i); LEAVE }
    }
    return 1;
}
"""
_REENTRY_ENDS = {"return": "return 3;", "exit": "exit(4);"}
_REENTRY_MATRIX = [(end, layout) for end in _REENTRY_ENDS
                   for layout in ("bonded", "interleaved")]
_reentry_cache = {}


def _reentry(end, layout):
    """(expansion, walker fingerprint) of one variant, computed once."""
    key = (end, layout)
    if key not in _reentry_cache:
        program, sema = parse_and_analyze(
            _REENTRY_SRC.replace("LEAVE", _REENTRY_ENDS[end]))
        tresult = expand_for_threads(program, sema, ["L"], optimize=True,
                                     layout=layout)
        runner = ParallelRunner(tresult, NTHREADS, engine="ast",
                                backend="simulated", check_races=False)
        outcome = runner.run()
        assert outcome.exit_code == {"return": 3, "exit": 4}[end]
        _reentry_cache[key] = (tresult, _fingerprint(runner, outcome))
    return _reentry_cache[key]


def _reentry_run(end, layout, backend, **kwargs):
    tresult, reference = _reentry(end, layout)
    if backend == "process":
        kwargs.update(workers=NTHREADS, mc=dict(SMALL_MC))
    kwargs.setdefault("check_races", False)
    runner = ParallelRunner(tresult, NTHREADS, engine="native",
                            backend=backend, **kwargs)
    return runner, runner.run(), reference


class TestReentryRule:
    """Loops and direct calls beside a controlled loop run as compiled
    code; results stay bit-identical to the walker."""

    def _check(self, end, layout, backend):
        runner, outcome, reference = _reentry_run(end, layout, backend)
        assert _fingerprint(runner, outcome) == reference
        machine = runner.machine
        # lowered: everything except the two functions that call
        # through a function pointer
        assert {k for k in machine._low.nl if k.startswith("fn:")} == \
            {"fn:main", "fn:pick"}
        assert machine.native_dispatches > 20
        # the one loop that stays in Python is main's own
        # function-pointer loop (no unit); the loops of its callee
        # ``twice`` and of the interpreted ``pick`` re-enter
        assert machine.interp_loops == 1

    @pytest.mark.parametrize("end,layout", _REENTRY_MATRIX)
    def test_simulated_bit_identical_to_walker(self, end, layout):
        self._check(end, layout, "simulated")

    @needs_process
    @pytest.mark.parametrize("end,layout", _REENTRY_MATRIX)
    def test_process_bit_identical_to_walker(self, end, layout):
        self._check(end, layout, "process")

    def test_race_checker_keeps_the_rule_closed(self):
        runner, outcome, reference = _reentry_run(
            "return", "bonded", "simulated", check_races=True)
        # no native machine at all: the checker sees every access
        assert runner.machine.engine == "bytecode"
        got = _fingerprint(runner, outcome)
        for field in ("exit", "output", "heap"):
            assert got[field] == reference[field]

    def test_fault_injector_keeps_the_rule_closed(self):
        from repro.runtime import CopyIndexSkew
        runner, outcome, reference = _reentry_run(
            "exit", "bonded", "simulated",
            fault_injectors=[CopyIndexSkew(seed=1, rate=0.0)])
        # store taps and statement hooks exist on the instrumented tier
        assert runner.machine.engine == "bytecode"
        assert _fingerprint(runner, outcome) == reference

    @needs_process
    @pytest.mark.parametrize("name,enclosing", [("mpeg2-decoder", 1),
                                                ("histogram", 0)])
    def test_only_enclosing_loops_are_interpreted(self, name, enclosing):
        # mpeg2-decoder: the ``pic`` loop around L, entered once;
        # histogram: no loop encloses L
        tracer = Tracer()
        runner = ParallelRunner(_expanded(name, "bonded"), 2,
                                engine="native", backend="process",
                                check_races=False, tracer=tracer,
                                workers=2, mc=dict(SMALL_MC))
        outcome = runner.run()
        assert outcome.exit_code == 0
        metrics = tracer.metrics.as_dict()
        assert metrics["runtime.parent_interp_loops"] == enclosing
        assert metrics["runtime.parent_native_dispatches"] > 0
        assert metrics["runtime.parent_native_dispatches"] == \
            runner.machine.native_dispatches


# ---------------------------------------------------------------------------
# the entry-point rule: units and chunk drivers exist only where the
# runtime can enter compiled code; a narrower set changes which symbols
# the .so exports, never what a run computes or how it is dispatched
# ---------------------------------------------------------------------------

_ANY = "any"            # lower_program(controlled=None): every loop
_DECLARED = "declared"  # TransformResult.controlled_loops()


def _run_lowered(tresult, how, backend, **kwargs):
    """One native run of ``tresult`` on entry points lowered ``how``.
    The registry serves a wider context to a narrower request, so
    priming it with the any-loop lowering is all ``_ANY`` takes."""
    from repro.interp.native import backend as nb, native_context_for

    nb._CONTEXTS.pop(tresult.program, None)
    if how == _ANY:
        native_context_for(tresult.program, tresult.sema)
    if backend == "process":
        kwargs.update(workers=NTHREADS, mc=dict(SMALL_MC))
    kwargs.setdefault("check_races", False)
    runner = ParallelRunner(tresult, NTHREADS, engine="native",
                            backend=backend, **kwargs)
    expect = None if how == _ANY else tresult.controlled_loops()
    assert runner.machine._low.controlled == expect
    outcome = runner.run()
    nb._CONTEXTS.pop(tresult.program, None)
    return runner, outcome


def _entry_names(lowering, prefixes):
    return {e for e in lowering.exports if e[:2] in prefixes}


class TestEntryPointRule:

    def _same_run_either_way(self, tresult, reference, backend):
        runs = {how: _run_lowered(tresult, how, backend)
                for how in (_DECLARED, _ANY)}
        for how, (runner, outcome) in runs.items():
            assert _fingerprint(runner, outcome) == reference, how
        narrow, wide = (runs[how][0].machine
                        for how in (_DECLARED, _ANY))
        assert narrow.native_dispatches == wide.native_dispatches
        assert narrow.interp_loops == wide.interp_loops
        assert set(narrow._low.exports) < set(wide._low.exports)

    @pytest.mark.parametrize("name,layout", MATRIX, ids=_IDS)
    def test_kernels_simulated(self, name, layout):
        self._same_run_either_way(_expanded(name, layout),
                                  _walker_reference(name, layout),
                                  "simulated")

    @needs_process
    @pytest.mark.parametrize("name,layout", MATRIX, ids=_IDS)
    def test_kernels_process(self, name, layout):
        self._same_run_either_way(_expanded(name, layout),
                                  _walker_reference(name, layout),
                                  "process")

    @pytest.mark.parametrize("end,layout", _REENTRY_MATRIX)
    def test_reentry_program_simulated(self, end, layout):
        self._same_run_either_way(*_reentry(end, layout), "simulated")

    @needs_process
    @pytest.mark.parametrize("end,layout", _REENTRY_MATRIX)
    def test_reentry_program_process(self, end, layout):
        self._same_run_either_way(*_reentry(end, layout), "process")

    @pytest.mark.parametrize("name", KERNELS)
    def test_baseline_program_exports_only_runners(self, name):
        from repro.interp.native import lower_program
        program, sema = parse_and_analyze(get(name).source)
        low = lower_program(program, sema, frozenset())
        assert low.exports and not low.units and not low.chunks
        assert not _entry_names(low, ("u_", "k_"))

    def test_controlled_loop_gets_exactly_its_entries(self):
        from repro.frontend import ast
        from repro.interp.native import lower_program
        tresult, _ = _reentry("return", "bonded")
        low = lower_program(tresult.program, tresult.sema,
                            tresult.controlled_loops())
        (loop,) = [tl.loop for tl in tresult.loops]
        assert set(low.chunks) == {loop.nid}
        body_units = {loop.body.nid} | {
            s.nid for s in loop.body.stmts
            if not isinstance(s, ast.DeclStmt)}
        assert body_units <= set(low.units)
        # every other unit is a loop an interpreted function arrives
        # at: main's and pick's outermost loops, and the loop of
        # ``twice``, which main calls through a pointer
        rest = set(low.units) - body_units
        loops = {n.nid: n for n in ast.iter_loops(tresult.program)}
        assert rest <= set(loops)
        inner = {n.nid for outer in loops.values()
                 for n in ast.iter_loops(outer.body)}
        assert not (rest - {loop.nid}) & inner

    _NL_UNIT_SRC = """
    int out[8];
    int twice(int x) { return 2 * x; }
    int thrice(int x) { return 3 * x; }
    int main(void) {
        int i; int k; int acc = 0;
        #pragma expand parallel(doall)
        L: for (i = 0; i < 8; i++) out[i] = i * i;
        for (i = 0; i < 3; i++) {
            acc += (i % 2 ? twice : thrice)(i);
            for (k = 0; k < 5; k++) acc += out[k] + i;
        }
        print_int(acc);
        return 0;
    }
    """

    def test_loops_beneath_a_unit_that_did_not_lower_get_units(self):
        from repro.frontend import ast
        program, sema = parse_and_analyze(self._NL_UNIT_SRC)
        tresult = expand_for_threads(program, sema, ["L"], optimize=True)
        walker = ParallelRunner(tresult, NTHREADS, engine="ast",
                                backend="simulated", check_races=False)
        reference = _fingerprint(walker, walker.run())
        runner, outcome = _run_lowered(tresult, _DECLARED, "simulated")
        low = runner.machine._low
        main = tresult.sema.functions["main"]
        outer = [s for s in main.body.stmts
                 if isinstance(s, ast.For) and s.label != "L"][-1]
        (beneath,) = list(ast.iter_loops(outer.body))
        assert low.nl[f"unit:{outer.nid}"] == "NL-FNPTR"
        assert beneath.nid in low.units
        assert _fingerprint(runner, outcome) == reference
        # Python drove the outer loop only; its three inner loops ran
        # as the unit
        assert runner.machine.interp_loops == 1

    @pytest.mark.parametrize("backend", [
        "simulated", pytest.param("process", marks=needs_process)])
    def test_controller_outside_the_declared_set(self, backend,
                                                 monkeypatch):
        # the runner declares nothing yet controls L: no unit, no chunk
        # driver — the loop's pieces run in Python, loudly, and right
        from repro.transform.pipeline import TransformResult
        tresult, reference = _reentry("return", "bonded")
        declared, _ = _run_lowered(tresult, _DECLARED, backend)
        monkeypatch.setattr(TransformResult, "controlled_loops",
                            lambda self: frozenset())
        tracer = Tracer()
        runner, outcome = _run_lowered(tresult, _DECLARED, backend,
                                       tracer=tracer)
        assert not _entry_names(runner.machine._low, ("k_",))
        assert _fingerprint(runner, outcome) == reference
        metrics = tracer.metrics.as_dict()
        if backend == "process":
            assert metrics["runtime.native_fallbacks"] == \
                metrics["runtime.worker_tasks"] > 0
            assert any(d.code == "NL-FALLBACK"
                       for d in outcome.diagnostics)
        else:
            assert runner.machine.interp_loops > \
                declared.machine.interp_loops


class TestChunkDriverBounds:
    """A callback inside a DOALL chunk marshals its arguments through
    ``E->args``; the driver must not re-read its bounds from there."""

    SRC = """
    int scratch[8];
    int out[16];
    int main(void) {
        int i; int s = 0;
        #pragma expand parallel(doall)
        L: for (i = 0; i < 16; i++) {
            memset(scratch, i, 32);
            out[i] = scratch[3] + i;
        }
        for (i = 0; i < 16; i++) s = s + out[i];
        print_int(s);
        return 0;
    }
    """

    @pytest.mark.parametrize("backend,workers", [
        ("simulated", None),
        pytest.param("process", 2, marks=needs_process)])
    def test_builtin_call_in_chunk_body(self, backend, workers):
        program, sema = parse_and_analyze(self.SRC)
        tresult = expand_for_threads(program, sema, ["L"], optimize=True)
        walker = ParallelRunner(tresult, 2, engine="ast",
                                backend="simulated", check_races=False)
        reference = _fingerprint(walker, walker.run())
        assert reference["output"] == ["2021161200"]
        tracer = Tracer()
        kwargs = {"mc": dict(SMALL_MC)} if workers else {}
        runner = ParallelRunner(tresult, 2, engine="native",
                                backend=backend, workers=workers,
                                check_races=False, tracer=tracer,
                                **kwargs)
        outcome = runner.run()
        assert _fingerprint(runner, outcome) == reference
        if workers:
            metrics = tracer.metrics.as_dict()
            assert metrics["runtime.native_chunks"] == 2
            assert metrics.get("runtime.native_fallbacks", 0) == 0


class TestObserversSeeNativeJobs:
    """``engine="native"`` never blinds an observer: whatever is about
    to be observed runs on the instrumented bytecode tier."""

    @pytest.mark.parametrize("name", ["dijkstra", "histogram",
                                      "mpeg2-decoder"])
    def test_profile_equals_the_walkers_and_compiles_nothing(self, name):
        from repro.analysis import profile_loop
        from repro.frontend import ast
        from repro.interp.native import backend as nb
        spec = get(name)
        program, sema = parse_and_analyze(spec.source)
        loop = ast.find_loop(program, spec.loop_labels[0])
        cc0 = nb.COMPILER_INVOCATIONS
        hits0 = nb.SO_CACHE_HITS
        got = profile_loop(program, sema, loop, engine="native")
        assert (nb.COMPILER_INVOCATIONS, nb.SO_CACHE_HITS) == (cc0, hits0)
        ref = profile_loop(program, sema, loop, engine="ast")
        assert got.ddg.sites and got.ddg.edges
        for field in ("sites", "edges", "upward_exposed",
                      "downward_exposed", "dyn_counts", "store_sites",
                      "load_sites"):
            assert getattr(got.ddg, field) == getattr(ref.ddg, field)
        assert got.loop_cycles == ref.loop_cycles
        assert got.iterations == ref.iterations

    @staticmethod
    def _checked_run(tresult, engine, fault_injectors=None):
        runner = ParallelRunner(tresult, NTHREADS, engine=engine,
                                backend="simulated", check_races=True,
                                fault_injectors=fault_injectors)
        seen = [0]
        on_access = runner.checker.on_access

        def counting(site, addr, size, is_store):
            seen[0] += 1
            on_access(site, addr, size, is_store)

        runner.checker.on_access = counting
        outcome = runner.run(raise_on_race=False)
        return seen[0], sorted(outcome.races), list(outcome.output)

    def test_race_checker_sees_every_access(self):
        tresult = _expanded("histogram", "bonded")
        native = self._checked_run(tresult, "native")
        assert native[0] > 10_000 and native[1] == []
        assert native == self._checked_run(tresult, "bytecode")

    def test_ablation_and_injection_report_the_same_races(self):
        from repro.runtime import CopyIndexSkew
        spec = get("histogram")
        program, sema = parse_and_analyze(spec.source)
        ablated = expand_for_threads(program, sema, spec.loop_labels,
                                     optimize=True, commutative=False)
        native = self._checked_run(ablated, "native")
        assert native[1], "--no-commutative histogram must race"
        assert native == self._checked_run(ablated, "bytecode")
        # tests/test_faults.py's DOALL kernel: statically sized scratch,
        # so a skewed copy index makes threads collide on the structure
        program, sema = parse_and_analyze("""
        int buf[16];
        int out[12];
        int main(void) {
            int i; int k;
            #pragma expand parallel(doall)
            L: for (i = 0; i < 12; i++) {
                for (k = 0; k < 16; k++) buf[k] = i * k + 1;
                out[i] = buf[15];
            }
            for (i = 0; i < 12; i++) print_int(out[i]);
            return 0;
        }
        """)
        tresult = expand_for_threads(program, sema, ["L"], optimize=False)
        runs = [self._checked_run(
                    tresult, engine,
                    [CopyIndexSkew(seed=3, rate=0.5)])
                for engine in ("native", "bytecode")]
        assert runs[0][1], "a skewed copy index must race"
        assert runs[0] == runs[1]


class TestContextRegistry:

    def test_contexts_die_with_their_programs(self):
        import gc
        import weakref
        from repro.interp.native import backend as nb, native_context_for
        gc.collect()
        before = len(nb._CONTEXTS)
        programs, contexts = [], []
        for i in range(40):
            program, sema = parse_and_analyze(
                "int main(void) { int i; int s = 0; "
                f"for (i = 0; i < {i + 2}; i++) s += i; "
                "print_int(s); return 0; }")
            ctx = native_context_for(program, sema)
            assert native_context_for(program, sema) is ctx
            programs.append(program)
            contexts.append(weakref.ref(ctx))
            del ctx, sema
        assert len(nb._CONTEXTS) == before + 40
        del programs, program
        gc.collect()
        assert len(nb._CONTEXTS) == before
        assert all(ref() is None for ref in contexts)

    def test_a_narrower_context_never_serves_a_wider_request(self):
        from repro.interp.native import backend as nb, native_context_for
        tresult, _ = _reentry("return", "bonded")
        program, sema = tresult.program, tresult.sema
        declared = tresult.controlled_loops()
        nb._CONTEXTS.pop(program, None)
        narrow = native_context_for(program, sema, controlled=declared)
        assert native_context_for(program, sema,
                                  controlled=declared) is narrow
        assert native_context_for(program, sema,
                                  controlled=frozenset()) is narrow
        # a set it does not cover widens it to the union: two callers
        # with non-nested sets do not take turns recompiling
        from repro.frontend import ast
        other = frozenset(loop.nid for loop in ast.iter_loops(program)
                          if loop.nid not in declared)
        both = native_context_for(program, sema, controlled=other)
        assert both.lowering.controlled == declared | other
        assert native_context_for(program, sema,
                                  controlled=declared) is both
        wide = native_context_for(program, sema)
        assert wide is not both and wide.lowering.controlled is None
        # ... and the wider one serves everybody afterwards
        assert native_context_for(program, sema,
                                  controlled=declared) is wide
        nb._CONTEXTS.pop(program, None)

    @needs_process
    def test_forked_workers_find_the_parents_context(self, monkeypatch):
        from repro.interp.native import backend as nb
        tresult = _expanded("histogram", "bonded")
        nb._CONTEXTS.pop(tresult.program, None)
        tracer = Tracer()
        runner = ParallelRunner(tresult, 2, engine="native",
                                backend="process", workers=2,
                                check_races=False, tracer=tracer,
                                mc=dict(SMALL_MC))
        assert nb._CONTEXTS[tresult.program].lowering is \
            runner.machine._low

        def no_relowering(*_args, **_kwargs):
            raise AssertionError("the registry missed")

        # the pool forks at the first dispatch: from here on, a lookup
        # that misses (in the parent or in a worker, whose machine then
        # carries a native_diag and runs fallback chunks) shows
        monkeypatch.setattr(nb, "lower_program", no_relowering)
        outcome = runner.run()
        assert outcome.exit_code == 0
        metrics = tracer.metrics.as_dict()
        assert metrics["runtime.native_chunks"] == \
            metrics["runtime.worker_tasks"] > 0
        assert metrics.get("runtime.native_fallbacks", 0) == 0


# ---------------------------------------------------------------------------
# malloc and free in C: rp_malloc/rp_free decide over a mirror of the
# heap policy, Memory replays the journal and re-decides every operation;
# anything C cannot decide exactly takes the builtin upcall
# ---------------------------------------------------------------------------

#: ``churn`` allocates ``n`` blocks of ``sz[i]`` bytes and frees them in
#: ``ord`` order (-1: ``free(NULL)``); it runs from two controlled loops
#: (the closures drive them and call its runner) and from a loop unit of
#: the interpreted ``main``, whose own statements malloc and free in
#: Python between them
_CHURN_SRC = """
int n;
int m;
int sz[8];
int ord[10];
char *slot[8];

int churn(int k) {
    int i; int s = 0;
    for (i = 0; i < n; i++) {
        slot[i] = (char*)malloc(sz[i]);
        s = s + slot[i][0] + slot[i][sz[i] - 1];
        slot[i][0] = k + i;
        slot[i][sz[i] - 1] = k - i;
    }
    for (i = 0; i < m; i++) {
        if (ord[i] < 0) free(0);
        else free(slot[ord[i]]);
    }
    return s;
}

int main(void) {
    int k; int t = 0; char *keep; char *hold;
    L: for (k = 0; k < 2; k++) t = t + churn(k);
    keep = (char*)malloc(sz[0]);
    hold = (char*)malloc(sz[n - 1]);
    keep[0] = 7;
    free(keep);
    for (k = 0; k < 2; k++) t = t + churn(k + 2);
    keep = (char*)malloc(sz[0]);
    t = t + keep[0];
    M: for (k = 0; k < 2; k++) t = t + churn(k + 4);
    free(hold);
    free(keep);
    print_int(t);
    return 0;
}
"""
_churn_program = []


@st.composite
def _churns(draw):
    """(sizes, free order): 1-64 bytes with repeats likely; the order
    LIFO, FIFO or shuffled, with ``free(NULL)`` (-1) mixed in."""
    sizes = draw(st.lists(st.sampled_from((1, 8, 13, 16, 64))
                          | st.integers(1, 64), min_size=1, max_size=8))
    order = list(range(len(sizes)))
    how = draw(st.sampled_from(("lifo", "fifo", "shuffled")))
    if how == "lifo":
        order.reverse()
    elif how == "shuffled":
        order = draw(st.permutations(order))
    for at in draw(st.lists(st.integers(0, len(order)), max_size=2)):
        order.insert(at, -1)
    return sizes, order


def _heap_state(memory):
    """Every heap record, the free lists in order, and the accounting
    of everything but the stack (compiled frames are covered by coarse
    ``native-frames`` records, the walker's by one record per local)."""
    return {
        "records": [(r.addr, r.size, r.live, r.label, r.tag)
                    for r in memory._allocs if r.kind == "heap"],
        "freelist": {size: [r.addr for r in bucket]
                     for size, bucket in memory._freelist.items()},
        "live": {k: v for k, v in memory.live_bytes.items()
                 if k != "stack"},
        "peak": {k: v for k, v in memory.peak_bytes.items()
                 if k != "stack"},
    }


def _machine_fingerprint(machine, code):
    cost = machine.cost
    return {"exit": code, "output": list(machine.output),
            "cycles": cost.cycles, "instructions": cost.instructions,
            "loads": cost.loads, "stores": cost.stores,
            "heap": _heap_image(machine.memory)}


def _heap_upcalls(machine):
    return {k: v for k, v in machine.upcalls.items()
            if k in ("builtin:malloc", "builtin:free")}


class TestHeapInC:

    def _churn_run(self, engine, sizes, order):
        if not _churn_program:
            _churn_program.append(parse_and_analyze(_CHURN_SRC))
        program, sema = _churn_program[0]
        machine = Machine(program, sema, engine=engine)
        by_name = {d.name: d for d in sema.globals}
        armed = []

        def through(m, loop):
            if not armed:  # the drawn inputs, before any allocation
                armed.append(True)
                g = m.globals_frame.vars
                m.memory.write_scalar(g[by_name["n"]], "i", len(sizes))
                m.memory.write_scalar(g[by_name["m"]], "i", len(order))
                for i, v in enumerate(sizes):
                    m.memory.write_scalar(g[by_name["sz"]] + 4 * i, "i", v)
                for i, v in enumerate(order):
                    m.memory.write_scalar(g[by_name["ord"]] + 4 * i, "i", v)
            m.exec_loop_sequential(loop)

        for loop in ast.iter_loops(program):
            if loop.label in ("L", "M"):
                machine.loop_controllers[loop.nid] = through
        code = machine.run()
        return machine, _machine_fingerprint(machine, code)

    @settings(max_examples=12, deadline=None)
    @given(_churns())
    def test_churn_matches_the_walker(self, churn):
        sizes, order = churn
        walker, reference = self._churn_run("ast", sizes, order)
        native, got = self._churn_run("native", sizes, order)
        assert got == reference
        assert _heap_state(native.memory) == _heap_state(walker.memory)
        # the loop units and churn's runner ran the heap in C
        assert native.heap_ops >= 6 * len(sizes)
        assert _heap_upcalls(native) == {}

    @pytest.mark.parametrize("body", [
        "char *p; p = (char*)malloc(8); free(p); free(p);",
        "char *p; p = (char*)malloc(16); free(p + 1);",
        "int x; x = 1; free(&x);",
        "free(&g);",
        "char *p; p = (char*)malloc(-1);",
    ], ids=["double", "interior", "stack", "global", "negative"])
    def test_errors_match_the_walker(self, body):
        program, sema = parse_and_analyze(
            "int g;\nint main(void) { " + body + " return 0; }")
        raised = []
        for engine in ("ast", "native"):
            machine = Machine(program, sema, engine=engine)
            with pytest.raises(Exception) as info:
                machine.run()
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]
        # compiled code decided nothing it could not: one upcall, the
        # walker's own builtin, raised the walker's own error
        assert machine.native_dispatches == 1
        assert sum(_heap_upcalls(machine).values()) == 1

    def test_free_hooks_see_every_free(self):
        program, sema = parse_and_analyze(
            "int main(void) { char *p; int i; for (i = 0; i < 4; i++) {"
            " p = (char*)malloc(8); free(p); } free(0); return 0; }")
        freed = {}
        for engine in ("ast", "native"):
            machine = Machine(program, sema, engine=engine)
            machine.free_hooks.append(freed.setdefault(engine, []).append)
            assert machine.run() == 0
        assert freed["native"] == freed["ast"] and len(freed["ast"]) == 5
        # a hook only Python can call: every free takes the upcall, no
        # malloc does
        assert _heap_upcalls(machine) == {"builtin:free": 5}

    #: the first attempt (n = 40) leaves a free 24-byte block behind
    #: when the region runs out; the re-run (n = 8) must not get it
    #: back from a mirror that outlived the rollback
    EXHAUST_SRC = """
    int n = 40;
    char *blk[64];
    int grab(int k) {
        int i; char *p; char *u;
        p = (char*)malloc(24);
        if (n > 8) { u = (char*)malloc(8); u = (char*)malloc(24); free(u); }
        for (i = 0; i < n; i++) blk[i] = (char*)malloc(512);
        for (i = 0; i < n; i = i + 2) free(blk[i]);
        free(p);
        return k;
    }
    int main(void) {
        int k; int t = 0;
        L: for (k = 0; k < 3; k++) t = t + grab(k);
        print_int(t);
        return 0;
    }
    """

    def _exhaust_run(self, engine, program, sema):
        from repro.interp.memory import Memory, MemoryError_
        from repro.runtime import MachineSnapshot

        memory = Memory(buffer=bytearray(1 << 14))
        machine = Machine(program, sema, engine=engine, memory=memory)
        n = next(d for d in sema.globals if d.name == "n")
        errors = []

        def rollback(m, loop):
            snapshot = MachineSnapshot(m)
            try:
                m.exec_loop_sequential(loop)
            except MemoryError_ as exc:
                errors.append((type(exc), str(exc)))
                snapshot.restore(m)
                m.memory.write_scalar(m.globals_frame.vars[n], "i", 8)
                m.exec_loop_sequential(loop)

        loop = next(loop for loop in ast.iter_loops(program)
                    if loop.label == "L")
        machine.loop_controllers[loop.nid] = rollback
        code = machine.run()
        return machine, errors, _machine_fingerprint(machine, code)

    def test_buffer_exhaustion_rolls_back_and_reruns(self):
        program, sema = parse_and_analyze(self.EXHAUST_SRC)
        walker, werrors, reference = self._exhaust_run("ast", program,
                                                       sema)
        native, nerrors, got = self._exhaust_run("native", program, sema)
        assert werrors and "memory region exhausted" in werrors[0][1]
        assert nerrors == werrors
        assert got == reference
        assert _heap_state(native.memory) == _heap_state(walker.memory)
        # the failed malloc took the upcall; after the restore the
        # rebuilt mirror decided every heap operation of the re-run
        assert _heap_upcalls(native) == {"builtin:malloc": 1}
        assert native.heap_ops > 24

    @pytest.mark.parametrize("name,least", [("dijkstra", 1000),
                                            ("456.hmmer", 1)])
    def test_kernel_requests_make_no_heap_upcalls(self, name, least):
        tresult = _expanded(name, "bonded")
        for _ in range(2):  # the second request is warm
            tracer = Tracer()
            runner = ParallelRunner(tresult, NTHREADS, engine="native",
                                    backend="simulated", check_races=False,
                                    tracer=tracer)
            assert runner.run().exit_code == 0
        machine = runner.machine
        assert _heap_upcalls(machine) == {}
        assert machine.heap_ops >= least
        metrics = tracer.metrics.as_dict()
        assert metrics["runtime.parent_native_heap_ops"] == \
            machine.heap_ops
        assert metrics["runtime.parent_native_upcalls"] == \
            sum(machine.upcalls.values())


class TestDepthAcrossCallbacks:
    """The call-depth limit counts every frame in flight, compiled or
    interpreted, however often a recursion crosses between the two."""

    #: ``down`` lowers; ``hop`` holds a call through a function pointer
    #: (``NL-FNPTR``), so each of its calls to ``down`` re-enters C from
    #: the closures and each of ``down``'s calls to it is a callback
    SRC = """
    int down(int n);
    int idle(int n) { return n; }
    int hop(int n) {
        if (n < 0) return (n % 2 ? idle : idle)(n);
        return down(n);
    }
    int down(int n) {
        if (n == 0) return 0;
        return hop(n - 1) + 1;
    }
    int main(void) { print_int(down(150)); return 0; }
    """

    def test_mutual_recursion_to_depth_300_overflows_like_the_walker(self):
        program, sema = parse_and_analyze(self.SRC)
        raised = {}
        for engine in ("ast", "native"):
            machine = Machine(program, sema, engine=engine)
            with pytest.raises(Exception) as info:
                machine.run()
            raised[engine] = (type(info.value), str(info.value))
        assert raised["ast"][1] == "call stack overflow in down"
        assert raised["native"] == raised["ast"]
        assert machine._low.nl == {"fn:hop": "NL-FNPTR"}
        assert machine.native_dispatches > 100
