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

from repro.bench import all_benchmarks, get
from repro.diagnostics import DiagnosticSink
from repro.frontend import parse_and_analyze
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
        # check_races hooks every access in Python; the runner keeps
        # the parent machine on the bytecode fallback and says so
        name, layout = "dijkstra", "bonded"
        sink = DiagnosticSink()
        runner = ParallelRunner(_expanded(name, layout), NTHREADS,
                                engine="native", backend="simulated",
                                check_races=True, sink=sink)
        outcome = runner.run()
        codes = [d.code for d in sink.diagnostics]
        assert "NL-OBSERVERS" in codes
        # gated, not wrong: parent dispatched nothing natively yet the
        # final state still matches the walker bit for bit
        assert runner.machine.native_dispatches == 0
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
        assert runner.machine.native_dispatches == 0
        assert runner.machine.interp_loops > 1
        got = _fingerprint(runner, outcome)
        for field in ("exit", "output", "heap"):
            assert got[field] == reference[field]

    def test_fault_injector_keeps_the_rule_closed(self):
        from repro.runtime import CopyIndexSkew
        runner, outcome, reference = _reentry_run(
            "exit", "bonded", "simulated",
            fault_injectors=[CopyIndexSkew(seed=1, rate=0.0)])
        assert not runner.machine._native_ok()
        assert runner.machine.native_dispatches == 0
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
