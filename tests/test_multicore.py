"""Multi-core process backend: bit-identity differentials against the
simulated backend, capability-audit verdicts, worker-crash recovery,
and the shared-memory snapshot machinery.

Every test here runs real worker processes over one
``multiprocessing.shared_memory`` segment, so the whole module skips on
hosts without ``fork`` or a usable ``/dev/shm``.
"""

import time

import pytest

from repro.bench import all_benchmarks, get
from repro.diagnostics import DiagnosticSink
from repro.frontend import ast, parse_and_analyze
from repro.interp import Machine
from repro.obs import Tracer
from repro.runtime import (
    ParallelRunner, WorkerCrash, audit_loop, process_backend_available,
    run_parallel,
)
from repro.transform import expand_for_threads

_OK, _WHY = process_backend_available()
pytestmark = pytest.mark.skipif(
    not _OK, reason=f"process backend unavailable: {_WHY}")

KERNELS = [spec.name for spec in all_benchmarks()]

#: small fast-dispatch process options so tests do not burn 8 MiB
#: segments per run
SMALL_MC = {"segment_bytes": 1 << 21, "arena_bytes": 1 << 18}


def _fingerprint(runner, outcome):
    """Everything the bit-identity contract covers: output, modeled
    cost, per-loop makespans, non-MC diagnostics, final live heap
    image.  (peak_memory is excluded by contract: worker stack
    allocations live in private arenas.)"""
    memory = runner.machine.memory
    heap = []
    for rec in memory._allocs:
        if rec.live and rec.kind in ("global", "heap"):
            heap.append((rec.kind, rec.label, rec.addr, rec.size,
                         bytes(memory.data[rec.addr:rec.end])))
    cost = runner.machine.cost
    return {
        "exit": outcome.exit_code,
        "output": list(outcome.output),
        "cycles": cost.cycles,
        "instructions": cost.instructions,
        "loads": cost.loads,
        "stores": cost.stores,
        "loops": {label: (ex.makespan, ex.iterations)
                  for label, ex in outcome.loops.items()},
        "diagnostics": [d.render() for d in outcome.diagnostics
                        if not d.code.startswith("MC-")],
        "heap": heap,
    }


def _run_both(tresult, nthreads, mc=None, engine="bytecode"):
    fps = {}
    for backend in ("simulated", "process"):
        runner = ParallelRunner(tresult, nthreads, engine=engine,
                                backend=backend, workers=nthreads,
                                mc=mc)
        outcome = runner.run()
        fps[backend] = _fingerprint(runner, outcome)
    return fps


# ---------------------------------------------------------------------------
# kernel differential: 8 kernels x both layouts, bit for bit
# ---------------------------------------------------------------------------

class TestKernelDifferential:
    @pytest.mark.parametrize("layout", ["bonded", "interleaved"])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_bit_identical(self, kernel, layout):
        spec = get(kernel)
        program, sema = parse_and_analyze(spec.source)
        # permissive expansion: the interleaved layout refuses
        # heap-expanding loops (dijkstra, hmmer) — those quarantine and
        # the differential still has to hold on whatever remains
        tresult = expand_for_threads(program, sema, spec.loop_labels,
                                     optimize=True, layout=layout,
                                     strict=False,
                                     sink=DiagnosticSink())
        fps = _run_both(tresult, 2)
        assert fps["process"] == fps["simulated"]


# ---------------------------------------------------------------------------
# process-path execution (no fallback) for both loop kinds
# ---------------------------------------------------------------------------

DOALL_SRC = """
int out[64];
int main(void) {
    int i;
    #pragma expand parallel(doall)
    L: for (i = 0; i < 64; i++) {
        out[i] = i * i + 3;
    }
    int s = 0;
    for (i = 0; i < 64; i++) s = s + out[i];
    print_int(s);
    return 0;
}
"""

DOACROSS_SRC = """
int buf[16];
int acc;
int main(void) {
    int i; int k;
    #pragma expand parallel(doacross)
    L: for (i = 0; i < 12; i++) {
        for (k = 0; k < 16; k++) buf[k] = i * k + 1;
        acc = acc * 7 + buf[15];
    }
    print_int(acc);
    return 0;
}
"""


def _prepare(source, **kw):
    program, sema = parse_and_analyze(source)
    base = Machine(program, sema, engine="bytecode")
    base.run()
    tresult = expand_for_threads(program, sema, ["L"], optimize=True,
                                 **kw)
    return base, tresult


class TestProcessPath:
    def test_doall_runs_on_workers(self):
        base, tresult = _prepare(DOALL_SRC)
        tracer = Tracer()
        sink = DiagnosticSink()
        outcome = run_parallel(tresult, 4, engine="bytecode",
                               backend="process", workers=4,
                               mc=SMALL_MC, tracer=tracer, sink=sink)
        assert outcome.output == base.output
        assert outcome.backend == "process"
        # the loop genuinely ran on workers: no MC fallback note, and
        # worker wall-clock spans landed in the tracer
        assert not [d for d in outcome.diagnostics
                    if d.code == "MC-FALLBACK"]
        assert tracer.metrics.get("runtime.worker_tasks") >= 4
        assert tracer.worker_events
        assert {w.worker for w in tracer.worker_events} <= {0, 1, 2, 3}

    def test_doall_cycles_match_simulated(self):
        _, tresult = _prepare(DOALL_SRC)
        fps = _run_both(tresult, 4, mc=SMALL_MC)
        assert fps["process"] == fps["simulated"]

    def test_doacross_runs_on_workers(self):
        base, tresult = _prepare(DOACROSS_SRC)
        tracer = Tracer()
        outcome = run_parallel(tresult, 4, engine="bytecode",
                               backend="process", workers=4,
                               mc=SMALL_MC, tracer=tracer)
        assert outcome.output == base.output
        assert not [d for d in outcome.diagnostics
                    if d.code == "MC-FALLBACK"]
        assert tracer.metrics.get("runtime.worker_tasks") >= 1

    def test_doacross_pipeline_parity(self):
        """The cross-process token protocol must reproduce the
        simulated pipelining recurrence exactly: same makespan, same
        per-thread wait cycles, same sync ledger."""
        _, tresult = _prepare(DOACROSS_SRC)
        outs = {}
        for backend in ("simulated", "process"):
            runner = ParallelRunner(tresult, 4, engine="bytecode",
                                    backend=backend, workers=4,
                                    mc=SMALL_MC)
            outs[backend] = runner.run()
        sim = outs["simulated"].loops["L"]
        proc = outs["process"].loops["L"]
        assert proc.makespan == sim.makespan
        assert proc.iterations == sim.iterations
        sim_threads = [(t.tid, t.busy_cycles, t.wait_cycles,
                        t.sync_cycles) for t in sim.threads]
        proc_threads = [(t.tid, t.busy_cycles, t.wait_cycles,
                         t.sync_cycles) for t in proc.threads]
        assert proc_threads == sim_threads

    def test_thread_count_above_pool(self):
        """nthreads larger than the worker pool round-robins DOALL
        chunks over the available lanes, still bit-identical."""
        _, tresult = _prepare(DOALL_SRC)
        fps = {}
        for backend in ("simulated", "process"):
            runner = ParallelRunner(tresult, 8, engine="bytecode",
                                    backend=backend, workers=2,
                                    mc=SMALL_MC)
            outcome = runner.run()
            fps[backend] = _fingerprint(runner, outcome)
        assert fps["process"] == fps["simulated"]


# ---------------------------------------------------------------------------
# capability audit
# ---------------------------------------------------------------------------

def _loop_of(source):
    program, sema = parse_and_analyze(source)
    return ast.find_loop(program, "L"), sema


class TestAudit:
    def test_clean_doall_is_capable(self):
        loop, sema = _loop_of(DOALL_SRC)
        audit = audit_loop(loop, sema, kind_doall=True, nthreads=4,
                           workers=4, chunk=1, controlled_nids={loop.nid})
        assert audit.ok

    def test_malloc_in_body_rejected(self):
        loop, sema = _loop_of("""
int main(void) {
    int i;
    L: for (i = 0; i < 8; i++) {
        int* p = malloc(16);
        free(p);
    }
    return 0;
}
""")
        audit = audit_loop(loop, sema, kind_doall=True, nthreads=4,
                           workers=4, chunk=1, controlled_nids={loop.nid})
        assert "MC-ALLOC" in audit.reasons

    def test_malloc_in_callee_rejected(self):
        loop, sema = _loop_of("""
int helper(void) {
    int* p = malloc(16);
    free(p);
    return 1;
}
int main(void) {
    int i; int s = 0;
    L: for (i = 0; i < 8; i++) {
        s = s + helper();
    }
    print_int(s);
    return 0;
}
""")
        audit = audit_loop(loop, sema, kind_doall=True, nthreads=4,
                           workers=4, chunk=1, controlled_nids={loop.nid})
        assert "MC-ALLOC" in audit.reasons

    def test_noncanonical_while_rejected(self):
        loop, sema = _loop_of("""
int main(void) {
    int i = 0;
    L: while (i < 8) {
        i = i + 1;
    }
    print_int(i);
    return 0;
}
""")
        audit = audit_loop(loop, sema, kind_doall=True, nthreads=4,
                           workers=4, chunk=1, controlled_nids={loop.nid})
        assert "MC-NONCANONICAL" in audit.reasons

    def test_control_written_in_body_rejected(self):
        loop, sema = _loop_of("""
int main(void) {
    int i;
    L: for (i = 0; i < 8; i++) {
        if (i == 5) i = 7;
    }
    print_int(i);
    return 0;
}
""")
        audit = audit_loop(loop, sema, kind_doall=True, nthreads=4,
                           workers=4, chunk=1, controlled_nids={loop.nid})
        assert "MC-CONTROL" in audit.reasons

    def test_return_in_body_rejected(self):
        loop, sema = _loop_of("""
int main(void) {
    int i;
    L: for (i = 0; i < 8; i++) {
        if (i == 5) return 1;
    }
    return 0;
}
""")
        audit = audit_loop(loop, sema, kind_doall=True, nthreads=4,
                           workers=4, chunk=1, controlled_nids={loop.nid})
        assert "MC-RETURN" in audit.reasons

    def test_doacross_break_rejected(self):
        loop, sema = _loop_of("""
int acc;
int main(void) {
    int i;
    L: for (i = 0; i < 8; i++) {
        acc = acc + i;
        if (acc > 10) break;
    }
    print_int(acc);
    return 0;
}
""")
        audit = audit_loop(loop, sema, kind_doall=False, nthreads=4,
                           workers=4, chunk=1, controlled_nids={loop.nid})
        assert "MC-BREAK" in audit.reasons
        # ...but the same break is fine for DOALL (workers report it as
        # a structured error; DOALL chunks never include one in the
        # suite, the audit only polices DOACROSS strip planning)
        doall = audit_loop(loop, sema, kind_doall=True, nthreads=4,
                           workers=4, chunk=1, controlled_nids={loop.nid})
        assert "MC-BREAK" not in doall.reasons

    def test_doacross_needs_full_pool_and_unit_chunk(self):
        loop, sema = _loop_of(DOACROSS_SRC)
        short = audit_loop(loop, sema, kind_doall=False, nthreads=4,
                           workers=2, chunk=1,
                           controlled_nids={loop.nid})
        assert "MC-WORKERS" in short.reasons
        chunked = audit_loop(loop, sema, kind_doall=False, nthreads=4,
                             workers=4, chunk=2,
                             controlled_nids={loop.nid})
        assert "MC-CHUNK" in chunked.reasons
        clean = audit_loop(loop, sema, kind_doall=False, nthreads=4,
                           workers=4, chunk=1,
                           controlled_nids={loop.nid})
        assert clean.ok

    def test_nested_controlled_loop_rejected(self):
        program, sema = parse_and_analyze("""
int out[8];
int main(void) {
    int i; int k;
    L: for (i = 0; i < 8; i++) {
        M: for (k = 0; k < 4; k++) {
            out[i] = out[i] + k;
        }
    }
    print_int(out[7]);
    return 0;
}
""")
        outer = ast.find_loop(program, "L")
        inner = ast.find_loop(program, "M")
        audit = audit_loop(outer, sema, kind_doall=True, nthreads=4,
                           workers=4, chunk=1,
                           controlled_nids={outer.nid, inner.nid})
        assert "MC-NESTED" in audit.reasons
        # an uncontrolled inner loop is fine
        alone = audit_loop(outer, sema, kind_doall=True, nthreads=4,
                           workers=4, chunk=1,
                           controlled_nids={outer.nid})
        assert alone.ok

    def test_kernel_expectations(self):
        """The suite-wide audit landscape: the allocating kernels and
        the while(1) kernel fall back, the rest run on workers."""
        expect_fallback = {"dijkstra", "456.hmmer", "256.bzip2"}
        for spec in all_benchmarks():
            program, sema = parse_and_analyze(spec.source)
            controlled = set()
            for label in spec.loop_labels:
                controlled.add(ast.find_loop(program, label).nid)
            verdicts = {}
            for label in spec.loop_labels:
                loop = ast.find_loop(program, label)
                audit = audit_loop(loop, sema, kind_doall=True,
                                   nthreads=2, workers=2, chunk=1,
                                   controlled_nids=controlled)
                verdicts[label] = audit.ok
            if spec.name in expect_fallback:
                assert not all(verdicts.values()), \
                    f"{spec.name}: expected at least one fallback loop"
            else:
                assert all(verdicts.values()), \
                    f"{spec.name}: unexpected fallback {verdicts}"


# ---------------------------------------------------------------------------
# worker crash: quarantine fallback, bounded join, structured diagnostic
# ---------------------------------------------------------------------------

class TestWorkerCrash:
    def test_permissive_recovers_bit_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_MC_CRASH", "1")
        base, tresult = _prepare(DOALL_SRC)
        sink = DiagnosticSink()
        start = time.perf_counter()
        outcome = run_parallel(tresult, 4, engine="bytecode",
                               backend="process", workers=4,
                               mc=SMALL_MC, strict=False, sink=sink)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, "crash recovery must not hang"
        assert outcome.output == base.output
        assert outcome.recoveries
        assert outcome.recoveries[0].diagnostic.code == "RT-WORKER-CRASH"
        assert sink.by_code("RT-WORKER-CRASH")
        assert sink.by_code("RT-RECOVERED")

    def test_strict_raises_structured_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_MC_CRASH", "0")
        _, tresult = _prepare(DOALL_SRC)
        with pytest.raises(WorkerCrash) as info:
            run_parallel(tresult, 4, engine="bytecode",
                         backend="process", workers=4, mc=SMALL_MC,
                         strict=True)
        assert info.value.diagnostic.code == "RT-WORKER-CRASH"

    def test_session_degrades_after_crash(self, monkeypatch):
        """After a crash the session is degraded: later parallel loops
        route to the simulated controllers instead of a dead pool."""
        monkeypatch.setenv("REPRO_MC_CRASH", "2")
        source = """
int a[32]; int b[32];
int main(void) {
    int i;
    #pragma expand parallel(doall)
    L: for (i = 0; i < 32; i++) { a[i] = i * 2; }
    #pragma expand parallel(doall)
    M: for (i = 0; i < 32; i++) { b[i] = a[i] + 1; }
    int s = 0;
    for (i = 0; i < 32; i++) s = s + b[i];
    print_int(s);
    return 0;
}
"""
        program, sema = parse_and_analyze(source)
        baseline = Machine(program, sema, engine="bytecode")
        baseline.run()
        tresult = expand_for_threads(program, sema, ["L", "M"],
                                     optimize=True)
        tracer = Tracer()
        outcome = run_parallel(tresult, 4, engine="bytecode",
                               backend="process", workers=4,
                               mc=SMALL_MC, strict=False, tracer=tracer)
        assert outcome.output == baseline.output
        assert outcome.recoveries  # the crashed loop recovered
        assert tracer.metrics.get("runtime.mc_degraded") == 1


# ---------------------------------------------------------------------------
# shared-memory snapshot/restore
# ---------------------------------------------------------------------------

class TestSharedSnapshot:
    def test_restore_preserves_view_identity(self):
        from repro.interp.memory import Memory
        from repro.runtime import MachineSnapshot

        backing = bytearray(1 << 16)
        memory = Memory(check_bounds=False, buffer=backing,
                        limit=1 << 16)
        program, sema = parse_and_analyze("int main(void){return 0;}")
        machine = Machine(program, sema, engine="bytecode",
                          memory=memory)
        addr = memory.alloc(64, kind="heap", label="blk")
        memory.write_bytes(addr, b"A" * 64)
        view_before = memory.data
        snap = MachineSnapshot(machine)
        addr2 = memory.alloc(32, kind="heap", label="later")
        memory.write_bytes(addr, b"B" * 64)
        memory.write_bytes(addr2, b"C" * 32)
        snap.restore(machine)
        # the shared view object is never replaced (other processes map
        # the same buffer) and the image is rewound exactly
        assert memory.data is view_before
        assert memory.read_bytes(addr, 64) == b"A" * 64
        assert len(memory._allocs) == 1
        # the rolled-back allocation's bytes are zero again
        assert bytes(backing[addr2:addr2 + 32]) == bytes(32)

    def test_snapshot_captures_only_dirty_span(self):
        from repro.interp.memory import Memory
        from repro.runtime import MachineSnapshot

        backing = bytearray(1 << 20)
        memory = Memory(check_bounds=False, buffer=backing,
                        limit=1 << 20)
        program, sema = parse_and_analyze("int main(void){return 0;}")
        machine = Machine(program, sema, engine="bytecode",
                          memory=memory)
        memory.alloc(128, kind="heap")
        snap = MachineSnapshot(machine)
        # brk-bounded, not the whole 1 MiB segment
        assert len(snap.data) == memory.brk
        assert len(snap.data) < len(backing)


# ---------------------------------------------------------------------------
# session robustness
# ---------------------------------------------------------------------------

class TestSessionLifecycle:
    def test_segment_unlinked_after_run(self):
        _, tresult = _prepare(DOALL_SRC)
        runner = ParallelRunner(tresult, 2, engine="bytecode",
                                backend="process", workers=2,
                                mc=SMALL_MC)
        session = runner.session
        assert session is not None
        name = session.shm.name
        runner.run()
        from multiprocessing import shared_memory
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_memory_inspectable_after_close(self):
        """detach() keeps the final address space readable after the
        segment is gone (reports, fingerprints)."""
        _, tresult = _prepare(DOALL_SRC)
        runner = ParallelRunner(tresult, 2, engine="bytecode",
                                backend="process", workers=2,
                                mc=SMALL_MC)
        runner.run()
        memory = runner.machine.memory
        assert not memory.shared
        assert isinstance(memory.data, bytearray)
        assert any(r.live for r in memory._allocs)

    def test_unavailable_backend_falls_back(self, monkeypatch):
        """When the host probe fails, backend='process' degrades to the
        simulated backend with an MC-UNAVAILABLE warning instead of
        erroring."""
        import repro.runtime.multicore as mc

        # the probe caches its verdict module-side; forcing the cache
        # is exactly how an unavailable host presents
        monkeypatch.setattr(
            mc, "_AVAILABLE", (False, "test-forced"), raising=False)
        base, tresult = _prepare(DOALL_SRC)
        sink = DiagnosticSink()
        outcome = run_parallel(tresult, 2, engine="bytecode",
                               backend="process", sink=sink)
        assert outcome.backend == "simulated"
        assert outcome.output == base.output
        assert sink.by_code("MC-UNAVAILABLE")

    def test_bad_backend_name_rejected(self):
        from repro.runtime import ParallelError

        _, tresult = _prepare(DOALL_SRC)
        with pytest.raises(ParallelError) as info:
            ParallelRunner(tresult, 2, backend="gpu")
        assert info.value.diagnostic.code == "RT-BACKEND"


# ---------------------------------------------------------------------------
# supervision: heartbeats, respawn, chunk retry, lease recovery
# ---------------------------------------------------------------------------

def _run_process(tresult, nthreads, injectors=None, mc=None,
                 strict=True, workers=None):
    opts = dict(SMALL_MC)
    opts.update(mc or {})
    tracer = Tracer()
    sink = DiagnosticSink()
    runner = ParallelRunner(tresult, nthreads, engine="bytecode",
                            backend="process", workers=workers or nthreads,
                            mc=opts, tracer=tracer, sink=sink,
                            strict=strict, fault_injectors=injectors)
    outcome = runner.run()
    return runner, outcome, tracer, sink


class TestSupervision:
    """The tentpole contract: the pool self-heals — a dead worker is
    respawned from the warm parent image, only its in-flight chunk is
    re-run, and the result stays bit-identical without ever leaving
    the process backend."""

    @pytest.mark.parametrize("task", [0, 1, 2, 3])
    def test_boundary_kill_every_task(self, task):
        """SIGKILL at every chunk boundary in turn: the supervisor
        respawns and re-dispatches, bit-identical, no degradation."""
        from repro.runtime import WorkerKiller

        _, tresult = _prepare(DOALL_SRC)
        runner, outcome, tracer, _ = _run_process(
            tresult, 4, injectors=[WorkerKiller(seed=0, task=task)])
        disturbed = _fingerprint(runner, outcome)
        runner2, outcome2, _, _ = _run_process(tresult, 4)
        assert disturbed == _fingerprint(runner2, outcome2)
        assert not tracer.metrics.get("runtime.mc_degraded", 0)
        assert tracer.metrics.get("runtime.mc_restart") == 1
        assert tracer.metrics.get("runtime.mc_retry") == 1

    def test_mid_chunk_kill_retry_safe(self):
        """Self-SIGKILL past the write fence: the audit proves the
        chunk idempotent (privatized + write-only stores), so the
        respawn re-runs it in place."""
        from repro.runtime import WorkerKiller

        _, tresult = _prepare(DOALL_SRC)
        runner, outcome, tracer, _ = _run_process(
            tresult, 4,
            injectors=[WorkerKiller(seed=0, task=1, after_iter=0)])
        disturbed = _fingerprint(runner, outcome)
        runner2, outcome2, _, _ = _run_process(tresult, 4)
        assert disturbed == _fingerprint(runner2, outcome2)
        assert not tracer.metrics.get("runtime.mc_degraded", 0)
        assert tracer.metrics.get("runtime.mc_restart") == 1

    def test_mid_chunk_kill_unsafe_degrades(self):
        """A loop whose chunks read-modify-write shared state cannot
        be re-run; mid-chunk death must walk the ladder, and the
        permissive layer recovers sequentially with correct output."""
        from repro.runtime import WorkerKiller

        source = """
int a[64];
int main(void) {
    int i;
    for (i = 0; i < 64; i++) a[i] = i;
    #pragma expand parallel(doall)
    L: for (i = 0; i < 64; i++) {
        a[i] = a[i] * 3 + 1;
    }
    int s = 0;
    for (i = 0; i < 64; i++) s = s + a[i];
    print_int(s);
    return 0;
}
"""
        base, tresult = _prepare(source)
        runner, outcome, tracer, sink = _run_process(
            tresult, 4, strict=False,
            injectors=[WorkerKiller(seed=0, task=1, after_iter=0)])
        assert outcome.output == base.output
        assert tracer.metrics.get("runtime.mc_degrade") == 1
        assert sink.by_code("MC-DEGRADE")

    def test_doacross_stage_death_resumes(self):
        """A DOACROSS stage dies after committing an iteration: the
        replacement resumes from the drained lease boundary instead of
        replaying, and its tokens are re-issued — bit-identical."""
        from repro.runtime import WorkerKiller

        _, tresult = _prepare(DOACROSS_SRC)
        runner, outcome, tracer, _ = _run_process(
            tresult, 4,
            injectors=[WorkerKiller(seed=0, task=1, after_iter=0)])
        disturbed = _fingerprint(runner, outcome)
        runner2, outcome2, _, _ = _run_process(tresult, 4)
        assert disturbed == _fingerprint(runner2, outcome2)
        assert not tracer.metrics.get("runtime.mc_degraded", 0)
        assert tracer.metrics.get("runtime.mc_restart") == 1

    def test_token_drop_reissued(self):
        """Swallowed sync-token posts are re-issued by the parent from
        the committed-iteration stream; downstream stages unblock."""
        from repro.runtime import TokenPostDropper

        _, tresult = _prepare(DOACROSS_SRC)
        runner, outcome, tracer, _ = _run_process(
            tresult, 4, injectors=[TokenPostDropper(seed=0, task=0)])
        disturbed = _fingerprint(runner, outcome)
        runner2, outcome2, _, _ = _run_process(tresult, 4)
        assert disturbed == _fingerprint(runner2, outcome2)
        # task 0 owns iterations 0,4,8 of 12 -> three dropped posts
        assert tracer.metrics.get("runtime.mc_token_reissues") == 3
        assert not tracer.metrics.get("runtime.mc_degraded", 0)

    def test_heartbeat_stall_revoked(self):
        """A stalled heartbeat (process alive, beat thread frozen) is
        revoked like a death: the worker is killed and respawned."""
        from repro.runtime import HeartbeatStaller

        _, tresult = _prepare(DOALL_SRC)
        runner, outcome, tracer, _ = _run_process(
            tresult, 4, mc={"heartbeat_timeout": 0.2},
            injectors=[HeartbeatStaller(seed=0, task=0, duration=-1.0,
                                        hold=1.0)])
        disturbed = _fingerprint(runner, outcome)
        runner2, outcome2, _, _ = _run_process(tresult, 4)
        assert disturbed == _fingerprint(runner2, outcome2)
        assert tracer.metrics.get("runtime.mc_restart") == 1
        assert not tracer.metrics.get("runtime.mc_degraded", 0)

    def test_budget_exhaustion_walks_ladder(self, monkeypatch):
        """Every dispatch of task 1 crashes its worker: the supervisor
        burns the retry budget rung by rung (MC-RESTART, MC-RETRY per
        attempt) and then degrades with a structured MC-DEGRADE."""
        monkeypatch.setenv("REPRO_MC_CRASH", "1")
        base, tresult = _prepare(DOALL_SRC)
        runner, outcome, tracer, sink = _run_process(
            tresult, 4, strict=False,
            mc={"max_restarts": 2, "retry_budget": 2})
        assert outcome.output == base.output
        assert sink.by_code("MC-RESTART")
        assert sink.by_code("MC-RETRY")
        assert sink.by_code("MC-DEGRADE")
        assert tracer.metrics.get("runtime.mc_restart") == 2
        assert tracer.metrics.get("runtime.mc_retry") == 2
        assert tracer.metrics.get("runtime.mc_degrade") == 1

    def test_restart_exhaustion_shrinks_pool(self, monkeypatch):
        """With no respawns left the supervisor shrinks: the dead
        worker's chunk is reassigned to a surviving lane (MC-SHRINK)
        and the run still completes on the process backend."""
        monkeypatch.setenv("REPRO_MC_CRASH", "1")
        base, tresult = _prepare(DOALL_SRC)
        runner, outcome, tracer, sink = _run_process(
            tresult, 4, strict=False,
            mc={"max_restarts": 0, "retry_budget": 8})
        assert outcome.output == base.output
        assert sink.by_code("MC-SHRINK")

    def test_deterministic_under_same_seed(self):
        """The same chaos schedule replays to the same metrics and the
        same fingerprint — the harness's reproducibility contract."""
        from repro.runtime import WorkerKiller

        _, tresult = _prepare(DOALL_SRC)
        runs = []
        for _ in range(2):
            runner, outcome, tracer, _ = _run_process(
                tresult, 4, injectors=[WorkerKiller(seed=3, task=2)])
            runs.append((_fingerprint(runner, outcome),
                         tracer.metrics.get("runtime.mc_restart"),
                         tracer.metrics.get("runtime.mc_retry")))
        assert runs[0] == runs[1]


class TestRetryAudit:
    """audit_retry_safety: the static gate that decides whether a
    chunk that died past its write fence may be re-run in place."""

    def _audit(self, source):
        from repro.runtime import audit_retry_safety

        program, sema = parse_and_analyze(source)
        tresult = expand_for_threads(program, sema, ["L"],
                                     optimize=True)
        tl = tresult.loops[0]
        priv = set(getattr(tl.priv, "private_sites", None) or ())
        return audit_retry_safety(tl.loop, sema, priv)

    def test_privatized_and_write_only_is_safe(self):
        # buf writes are privatized (keyed on the assign statement's
        # origin, matching the race lint), out is write-only
        assert self._audit(DOALL_SRC) == []

    def test_shared_rmw_structure_unsafe(self):
        reasons = self._audit("""
int a[32];
int main(void) {
    int i;
    #pragma expand parallel(doall)
    L: for (i = 0; i < 32; i++) { a[i] = a[i] + 1; }
    print_int(a[0]);
    return 0;
}
""")
        assert any("read and written" in r for r in reasons)


class TestSegmentGuards:
    """Satellite: shared-memory segments are unlinked on every exit
    path — normal close, constructor failure, SIGTERM teardown."""

    def _shm_entries(self):
        """Segments created by THIS process (the name embeds the
        creating pid) — concurrent repro runs on the host must not
        perturb the leak check."""
        import os as _os

        try:
            return {n for n in _os.listdir("/dev/shm")
                    if n.startswith(f"repro-mc-{_os.getpid()}-")}
        except OSError:
            return set()

    def test_segment_name_is_tagged(self):
        _, tresult = _prepare(DOALL_SRC)
        runner = ParallelRunner(tresult, 2, engine="bytecode",
                                backend="process", workers=2,
                                mc=SMALL_MC)
        assert runner.session.shm.name.startswith("repro-mc-")
        runner.session.close()

    def test_no_leak_after_worker_crash(self, monkeypatch):
        """Forced worker crashes (the whole ladder, ending in
        degradation) must still unlink the segment."""
        monkeypatch.setenv("REPRO_MC_CRASH", "1")
        before = self._shm_entries()
        _, tresult = _prepare(DOALL_SRC)
        run_parallel(tresult, 4, engine="bytecode", backend="process",
                     workers=4, mc=dict(SMALL_MC, max_restarts=1,
                                        retry_budget=1), strict=False)
        assert self._shm_entries() <= before

    def test_no_leak_after_sigterm(self, tmp_path):
        """A SIGTERM'd host process unlinks its segment via the signal
        guard before dying."""
        import subprocess
        import sys
        import textwrap

        script = tmp_path / "host.py"
        script.write_text(textwrap.dedent("""
            import os, signal, sys
            from repro.frontend import parse_and_analyze
            from repro.runtime.multicore import ProcessSession

            src = 'int main(void) { return 0; }'
            program, sema = parse_and_analyze(src)
            session = ProcessSession(program, sema, 2, workers=2,
                                     options={"segment_bytes": 1 << 20,
                                              "arena_bytes": 1 << 16})
            print(session.shm.name, flush=True)
            os.kill(os.getpid(), signal.SIGTERM)
            print("unreachable", flush=True)
        """))
        env = dict(__import__("os").environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [sys.executable, str(script)], cwd="/root/repo",
            capture_output=True, text=True, env=env, timeout=60)
        name = proc.stdout.strip().splitlines()[0]
        assert name.startswith("repro-mc-")
        assert "unreachable" not in proc.stdout
        import os as _os

        assert not _os.path.exists(f"/dev/shm/{name}")

    def test_init_failure_does_not_leak(self, monkeypatch):
        """If session construction fails after the segment exists, the
        constructor unlinks it before re-raising."""
        import repro.runtime.multicore as mc

        def boom(program):
            raise RuntimeError("forced init failure")

        monkeypatch.setattr(mc, "_fingerprint_for", boom)
        before = self._shm_entries()
        program, sema = parse_and_analyze(DOALL_SRC)
        with pytest.raises(RuntimeError, match="forced init failure"):
            mc.ProcessSession(program, sema, 2, workers=2,
                              options=SMALL_MC)
        assert self._shm_entries() <= before


class TestSpinBackoff:
    """Satellite: bounded spin-waits escalate to sleeps past the spin
    threshold, and the backoff count surfaces as a runtime metric."""

    def test_backoff_counter_surfaces(self):
        _, tresult = _prepare(DOACROSS_SRC)
        runner, outcome, tracer, _ = _run_process(tresult, 4)
        # materialized (possibly zero) whenever the backend ran
        assert "runtime.mc_spin_backoffs" in tracer.metrics.as_dict()

    def test_backoffs_fire_under_stall(self):
        """A delayed token post forces downstream stages past the spin
        threshold into the sleep ladder."""
        from repro.runtime import TokenPostDelayer

        _, tresult = _prepare(DOACROSS_SRC)
        runner, outcome, tracer, _ = _run_process(
            tresult, 4,
            injectors=[TokenPostDelayer(seed=0, task=0, seconds=0.05)])
        runner2, outcome2, _, _ = _run_process(tresult, 4)
        assert _fingerprint(runner, outcome) == \
            _fingerprint(runner2, outcome2)
        assert tracer.metrics.get("runtime.mc_spin_backoffs", 0) > 0


# ---------------------------------------------------------------------------
# session-level audit memo
# ---------------------------------------------------------------------------

TWO_LOOPS_SRC = """
int a[32];
int b[32];
int main(void) {
    int i;
    #pragma expand parallel(doall)
    L: for (i = 0; i < 32; i++) { a[i] = i + 1; }
    #pragma expand parallel(doall)
    M: for (i = 0; i < 32; i++) { b[i] = a[i] * 2; }
    print_int(b[31]);
    return 0;
}
"""


class TestSessionAuditMemo:
    """The static audits run once per pooled session, not once per
    request — and never across anything their verdict depends on."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import repro.runtime.multicore as mc

        counts = {"loop": 0, "retry": 0}

        def counting(name, real):
            def audit(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return audit

        monkeypatch.setattr(mc, "audit_loop",
                            counting("loop", mc.audit_loop))
        monkeypatch.setattr(mc, "audit_retry_safety",
                            counting("retry", mc.audit_retry_safety))
        return counts

    @pytest.fixture
    def pool(self):
        from repro.service import SessionPool

        pool = SessionPool(mc=dict(SMALL_MC))
        yield pool
        pool.close()

    @staticmethod
    def _job(source, **kw):
        from repro.service import CompileOptions, Job

        kw.setdefault("nthreads", 2)
        return Job(source, ("L",), CompileOptions(engine="bytecode"),
                   workers=kw["nthreads"], backend="process", **kw)

    def test_two_requests_audit_once(self, calls, pool):
        from repro.service import StagedCompiler, run_job

        compiled = StagedCompiler().compile(self._job(DOALL_SRC))
        first = run_job(compiled, pool=pool)
        second = run_job(compiled, pool=pool)
        assert not first.session_reused and second.session_reused
        assert first.output == second.output and second.verified
        assert "MC-FALLBACK" not in [d.code for d in second.diagnostics]
        assert calls == {"loop": 1, "retry": 1}

    def test_other_program_object_audits_again(self, calls, pool):
        from repro.service import StagedCompiler, run_job

        # no stage cache: each compile builds its own program object,
        # so the pool evicts the first session instead of sharing it
        for _ in range(2):
            compiled = StagedCompiler().compile(self._job(DOALL_SRC))
            assert not run_job(compiled, pool=pool).session_reused
        assert calls == {"loop": 2, "retry": 2}

    def test_other_chunk_size_audits_again(self, calls, pool):
        from repro.service import StageCache, StagedCompiler, run_job

        cache = StageCache()
        codes = []
        for chunk in (1, 2):
            job = self._job(DOACROSS_SRC, nthreads=4, chunk=chunk)
            compiled = StagedCompiler(cache=cache).compile(job)
            outcome = run_job(compiled, pool=pool, cache=cache)
            codes.append([d.message for d in outcome.diagnostics
                          if d.code == "MC-FALLBACK"])
        assert outcome.session_reused
        assert calls["loop"] == 2
        # the chunk=1 verdict (capable) was not reused for chunk=2
        assert codes[0] == [] and "MC-CHUNK" in codes[1][0]

    def test_other_controlled_set_audits_again(self, calls, pool):
        program, sema = parse_and_analyze(TWO_LOOPS_SRC)
        tresult = expand_for_threads(program, sema, ["L", "M"],
                                     optimize=True)
        job = self._job(TWO_LOOPS_SRC)
        m_nid = ast.find_loop(tresult.program, "M").nid
        for drop_m in (False, True, True):
            session = pool.acquire(tresult, job)
            runner = ParallelRunner(tresult, 2, engine="bytecode",
                                    session=session)
            if drop_m:
                del runner.machine.loop_controllers[m_nid]
            assert runner.run().output == ["64"]
        assert session.reused
        # {L, M}: L and M audited; {L}: L audited again, then memoized
        assert calls["loop"] == 3

    def test_commutative_loop_is_never_retry_safe(self, calls, pool):
        from repro.service import StageCache, StagedCompiler, run_job

        spec = get("histogram")
        cache = StageCache()
        job = self._job(spec.source)
        for _ in range(2):
            compiled = StagedCompiler(cache=cache).compile(job)
            run_job(compiled, pool=pool, cache=cache)
        assert calls["retry"] == 1
        # the memoized verdict a third request would dispatch with
        session = pool.acquire(compiled.result, job,
                               fingerprint=compiled.ctx.fingerprint)
        try:
            assert session.reused
            verdicts = [v for k, v in session.audits.items()
                        if k[0] == "retry"]
            assert len(verdicts) == 1 and verdicts[0]
        finally:
            pool.release(session)
