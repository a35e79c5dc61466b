"""Simulated multithreaded execution of transformed programs.

The paper runs its transformed loops on real cores through GOMP; here N
*virtual threads* execute on the MiniC machine with a cycle-accounting
model:

* **DOALL, static chunking** — the iteration space is split into N
  contiguous chunks; each chunk executes with ``__tid`` bound to its
  thread and cycles charged to that thread's sink.  Chunks run one
  after another in simulation, which is sound *because* expansion makes
  them independent — and that independence is checked, not assumed: a
  byte-level race detector compares every thread's footprint
  (this substitutes for the paper's "correct on real hardware"
  evidence).  Loop makespan = max over threads + fork/join cost.

* **DOACROSS, dynamic chunk=1** — iterations run in program order
  (iteration k on thread k mod N), so semantics are trivially
  preserved; the *timing* is modeled with a pipelining recurrence: the
  statements the pipeline marked as carrying surviving cross-thread
  dependences (``serial_stmt_origins``) form a serialized section that
  iteration k may only enter after iteration k-1 left it.  Stall time
  becomes the thread's ``wait_cycles`` — the paper's
  ``do_wait``/``cpu_relax`` bars in Figure 12.

The whole-program clock advances by each loop's *makespan* rather than
its total work, so end-to-end cycles give the paper's total-program
speedup (Figure 11b) by simple division.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..diagnostics import (
    DiagnosableError, DiagnosticSink, diagnostic_of,
)
from ..frontend import ast
from ..obs import NULL_TRACER, ensure_tracer
from ..interp.machine import (
    BreakSignal, ContinueSignal, CostSink, InterpError, Machine,
    WatchdogTimeout, observed_engine, resolve_engine,
)
from ..interp.memory import MemoryError_
from ..interp.trace import RaceChecker
from ..analysis.profiler import find_control_decl
from ..transform.pipeline import (
    DOALL, TransformResult, TransformedLoop, parse_loop_kind,
)
from ..transform.rewrite import origin_of
from . import sync
from .stats import LoopExecution, ParallelOutcome, RecoveryEvent, ThreadStats


class ParallelError(DiagnosableError):
    """The parallel runtime cannot execute a loop as planned."""

    default_code = "RT-PLAN"
    default_phase = "runtime"


class RaceError(ParallelError):
    """Cross-thread conflict detected in a supposedly-independent loop."""

    default_code = "RT-RACE"


#: failures a permissive run recovers from by sequential re-execution.
#: WatchdogTimeout is an InterpError; injected faults subclass it too.
RECOVERABLE = (ParallelError, InterpError, MemoryError_)


def _canonical_bounds(machine: Machine, loop: ast.For):
    """(control decl, lo, hi, step, inclusive) of a canonical for loop.

    Every rejection carries the loop label and source location in its
    diagnostic, so the failure stays attributable even when the loop
    was reached through nested calls."""
    control = find_control_decl(loop)
    if control is None:
        raise ParallelError(
            f"loop {loop.label!r} is not canonical (no induction variable)",
            code="RT-NONCANONICAL", loop=loop.label, loc=loop.loc,
        )
    cond = loop.cond
    if not (isinstance(cond, ast.Binary) and cond.op in ("<", "<=")
            and isinstance(cond.left, ast.Ident)
            and cond.left.decl is control):
        raise ParallelError(
            f"loop {loop.label!r} condition must be 'i < bound' or "
            "'i <= bound'",
            code="RT-NONCANONICAL", loop=loop.label, loc=loop.loc,
        )
    step_expr = loop.step
    if isinstance(step_expr, ast.Unary) and step_expr.op in ("++", "p++"):
        step = 1
    elif isinstance(step_expr, ast.Assign) and step_expr.op == "+=":
        step = int(machine.eval(step_expr.value))
    else:
        raise ParallelError(
            f"loop {loop.label!r} step must be i++ or i += c",
            code="RT-NONCANONICAL", loop=loop.label, loc=loop.loc,
        )
    addr = machine.var_addr(control)
    lo = int(machine.memory.read_scalar(addr, control.ctype.fmt,
                                        control.ctype.size))
    hi = int(machine.eval(cond.right))
    return control, addr, lo, hi, step, cond.op == "<="


class MachineSnapshot:
    """Enough machine + memory state to re-execute a loop from scratch
    after a failed parallel attempt.  The bump allocator never moves
    earlier blocks, so truncating the allocation list to the saved
    length and restoring the byte image rewinds the address space
    exactly; allocation records that survive are shared objects whose
    mutable fields are restored in place (freelist buckets hold the
    same objects)."""

    def __init__(self, machine: Machine):
        memory = machine.memory
        if memory.shared:
            # buffer-backed region: capture only the dirty span — the
            # segment beyond brk is still zero-filled
            self.data = bytes(memory.data[:memory.brk])
        else:
            self.data = bytes(memory.data)
        self.brk = memory.brk
        self.n_allocs = len(memory._allocs)
        self.alloc_state = [
            (a.live, a.label, a.tag) for a in memory._allocs
        ]
        self.freelist = {
            size: list(bucket) for size, bucket in memory._freelist.items()
        }
        self.live_bytes = dict(memory.live_bytes)
        self.peak_bytes = dict(memory.peak_bytes)
        self.total_allocs = memory.total_allocs
        self.n_output = len(machine.output)
        self.strlit_cache = dict(machine._strlit_cache)
        self.tid = machine.tid

    def restore(self, machine: Machine) -> None:
        memory = machine.memory
        del memory._allocs[self.n_allocs:]
        del memory._starts[self.n_allocs:]
        for record, (live, label, tag) in zip(memory._allocs,
                                              self.alloc_state):
            record.live = live
            record.label = label
            record.tag = tag
        if memory.shared:
            # restore in place: other processes map the same buffer, so
            # the view object must never be replaced
            n = len(self.data)
            memory.data[:n] = self.data
            if memory.brk > n:
                memory.data[n:memory.brk] = bytes(memory.brk - n)
        else:
            memory.data = bytearray(self.data)
        memory.brk = self.brk
        memory._freelist = {
            size: list(bucket) for size, bucket in self.freelist.items()
        }
        memory.live_bytes = dict(self.live_bytes)
        memory.peak_bytes = dict(self.peak_bytes)
        memory.total_allocs = self.total_allocs
        del machine.output[self.n_output:]
        machine._strlit_cache = dict(self.strlit_cache)
        machine.tid = self.tid
        # the allocation table was rewritten wholesale: cached lookup
        # records may have been truncated out of the address space
        memory.invalidate_lookup_cache()


def _recover_sequential(
    runner,
    machine: Machine,
    loop: ast.LoopStmt,
    execution: LoopExecution,
    snapshot: MachineSnapshot,
    exc: BaseException,
    races,
) -> None:
    """Permissive-mode recovery: roll the machine back to its pre-loop
    state and run the loop sequentially on pristine memory.  Injected
    faults are suspended for the retry (the fault hit the parallel
    attempt; the fallback models failover to the untransformed path).
    A watchdog timeout during the retry itself propagates — that is a
    genuine runaway, not a parallelization artifact."""
    snapshot.restore(machine)
    diag = diagnostic_of(exc)
    if diag.loop is None:
        diag.loop = loop.label
    runner.outcome.recoveries.append(
        RecoveryEvent(loop.label, diag, races=races)
    )
    tracer = getattr(runner, "tracer", NULL_TRACER)
    if tracer:
        tracer.event("snapshot-rollback", 0, machine.cost.cycles,
                     loop=loop.label, cause=diag.code)
        tracer.metrics.inc("runtime.recoveries")
        if races:
            tracer.metrics.inc("runtime.races_recovered", len(races))
        if isinstance(exc, WatchdogTimeout):
            tracer.event("watchdog-trip", 0, machine.cost.cycles,
                         loop=loop.label)
            tracer.metrics.inc("runtime.watchdog_trips")
    sink = getattr(runner, "sink", None)
    if sink is not None:
        sink.emit(diag)
        sink.warning(
            "RT-RECOVERED",
            f"loop {loop.label!r} re-executed sequentially after "
            f"{diag.code}",
            loop=loop.label, loc=loop.loc, phase="runtime",
        )
    suspend = getattr(runner, "suspend_faults", None)
    if suspend is not None:
        suspend()
    try:
        machine.exec_loop_sequential(loop)
    finally:
        resume = getattr(runner, "resume_faults", None)
        if resume is not None:
            resume()
    # the aborted attempt's loads/stores stay in the thread sinks; sync
    # the bandwidth ledger so the next execution's diff starts clean
    from ..interp.machine import COSTS
    execution._mem_seen = [
        (execution.threads[t].sink.loads
         + execution.threads[t].sink.stores) * COSTS["load"]
        for t in range(execution.nthreads)
    ]


class _BaseController:
    """Common scheduling scaffolding, plus the robustness guard: in
    permissive mode (``runner.strict == False``) every parallel loop
    execution is checkpointed, and a recoverable failure or a detected
    race rolls back and re-runs the loop sequentially instead of
    killing the program."""

    def __init__(self, runner: "ParallelRunner", tloop: TransformedLoop):
        self.runner = runner
        self.tloop = tloop
        self.execution = runner.outcome.loops.setdefault(
            tloop.loop.label, LoopExecution(tloop.loop.label, runner.nthreads)
        )
        #: conflicts found by the checker in the most recent region
        self._region_races: List[Tuple[int, str]] = []
        #: serialized-statement origins whose dropped sync tokens were
        #: already reported (one diagnostic per origin, not per wait)
        self._drops_reported: Set[int] = set()

    # The baseline shim runner predates the robustness knobs; default
    # to strict / no-watchdog / no-faults / no-tracer when absent.
    @property
    def _strict(self) -> bool:
        return getattr(self.runner, "strict", True)

    @property
    def _tracer(self):
        return getattr(self.runner, "tracer", NULL_TRACER)

    def __call__(self, machine: Machine, loop: ast.LoopStmt) -> None:
        if self._strict:
            self._watchdogged(machine, loop, self._parallel_exec)
            return
        snapshot = MachineSnapshot(machine)
        try:
            self._watchdogged(machine, loop, self._parallel_exec)
        except RECOVERABLE as exc:
            _recover_sequential(
                self.runner, machine, loop, self.execution, snapshot,
                exc, self._region_races,
            )
            return
        if self._region_races:
            races = self._region_races
            exc = RaceError(
                f"{len(races)} cross-thread conflicts in loop "
                f"{loop.label!r}",
                loop=loop.label, loc=loop.loc,
                data={"races": races[:5]},
            )
            _recover_sequential(
                self.runner, machine, loop, self.execution, snapshot,
                exc, races,
            )

    def _watchdogged(self, machine: Machine, loop: ast.LoopStmt,
                     body) -> None:
        """Bound one controlled loop execution by the runner's watchdog
        (controllers bypass the machine's own per-loop guard)."""
        budget = getattr(self.runner, "watchdog", None)
        if budget is None:
            body(machine, loop)
            return
        machine.push_watchdog(budget, loop.label)
        try:
            body(machine, loop)
        finally:
            machine.pop_watchdog()

    def _begin_region(self) -> None:
        self._region_races = []
        if self.runner.checker is not None:
            self.runner.checker.begin_region()

    def _end_region(self) -> None:
        if self.runner.checker is not None:
            self._region_races = self.runner.checker.end_region()
            if self._strict:
                self.runner.outcome.races.extend(self._region_races)

    def _set_thread(self, machine: Machine, tid: int) -> None:
        machine.tid = tid
        machine.cost = self.execution.threads[tid].sink
        if self.runner.checker is not None:
            self.runner.checker.current_thread = tid

    def _restore(self, machine: Machine, saved: CostSink) -> None:
        machine.tid = 0
        machine.cost = saved
        if self.runner.checker is not None:
            self.runner.checker.current_thread = 0


class _DoallController(_BaseController):
    """Static chunk scheduling over a canonical for loop."""

    def _parallel_exec(self, machine: Machine, loop: ast.For) -> None:
        execution = self.execution
        execution.executions += 1
        nthreads = self.runner.nthreads
        if not isinstance(loop, ast.For):
            raise ParallelError(
                f"DOALL loop {loop.label!r} must be a canonical for loop",
                code="RT-NONCANONICAL", loop=loop.label, loc=loop.loc,
            )
        if loop.init is not None:
            machine.exec_stmt(loop.init)
        control, addr, lo, hi, step, inclusive = _canonical_bounds(
            machine, loop
        )
        if inclusive:
            hi += 1
        total = max(0, -(-(hi - lo) // step))
        if self.runner.checker is not None:
            self.runner.checker.exempt |= set(
                range(addr, addr + control.ctype.size)
            )
        saved = machine.cost
        t0 = saved.cycles          # program clock at loop entry
        tracer = self._tracer
        start_cycles = [0.0] * nthreads
        self._begin_region()
        try:
            for tid in range(nthreads):
                chunk_lo = tid * total // nthreads
                chunk_hi = (tid + 1) * total // nthreads
                if chunk_lo >= chunk_hi:
                    continue
                self._set_thread(machine, tid)
                stats = execution.threads[tid]
                stats.sync_cycles += sync.STATIC_CHUNK_SETUP
                start_cycles[tid] = stats.sink.cycles
                machine.memory.write_scalar(
                    addr, control.ctype.fmt, lo + chunk_lo * step
                )
                for _k in range(chunk_lo, chunk_hi):
                    it_start = stats.sink.cycles if tracer else 0.0
                    if loop.cond is not None:
                        machine.eval(loop.cond)
                    try:
                        machine.exec_stmt(loop.body)
                    except ContinueSignal:
                        pass
                    except BreakSignal:
                        raise ParallelError(
                            f"break inside DOALL loop {loop.label!r}",
                            code="RT-BREAK", loop=loop.label, loc=loop.loc,
                        )
                    if loop.step is not None:
                        machine.eval(loop.step)
                    if tracer:
                        tracer.event(
                            "iteration", tid,
                            t0 + (it_start - start_cycles[tid]),
                            dur=stats.sink.cycles - it_start,
                            loop=loop.label, k=_k,
                        )
                    stats.iterations += 1
                    execution.iterations += 1
        finally:
            self._end_region()
            self._restore(machine, saved)
        spans = [
            execution.threads[t].sink.cycles - start_cycles[t]
            for t in range(nthreads)
        ]
        if tracer:
            for t in range(nthreads):
                if spans[t] > 0:
                    tracer.event(
                        "doall-chunk", t, t0, dur=spans[t],
                        loop=loop.label,
                        iterations=execution.threads[t].iterations,
                    )
        makespan = max(spans) if spans else 0.0
        # shared memory system: N threads' combined traffic cannot beat
        # the controller's bandwidth, which caps memory-bound loops
        from ..interp.machine import COSTS
        mem_cycles = sum(
            (execution.threads[t].sink.loads
             + execution.threads[t].sink.stores) * COSTS["load"]
            for t in range(nthreads)
        ) - sum(execution._mem_seen)
        execution._mem_seen = [
            (execution.threads[t].sink.loads
             + execution.threads[t].sink.stores) * COSTS["load"]
            for t in range(nthreads)
        ]
        makespan = max(makespan, sync.bandwidth_makespan(mem_cycles))
        fork = sync.fork_join_cost(nthreads)
        execution.makespan += makespan
        execution.runtime_cycles += fork
        machine.cost.cycles += makespan + fork
        # leave the control variable at its sequential exit value
        machine.memory.write_scalar(addr, control.ctype.fmt, lo + total * step)


class _DoacrossController(_BaseController):
    """Dynamic scheduling (chunk size 1) with pipelined serial sections."""

    def _parallel_exec(self, machine: Machine, loop: ast.LoopStmt) -> None:
        execution = self.execution
        execution.executions += 1
        nthreads = self.runner.nthreads
        serial_origins = self.tloop.serial_stmt_origins
        saved = machine.cost
        t0 = saved.cycles          # program clock at loop entry
        tracer = self._tracer

        thread_free = [0.0] * nthreads
        #: per serialized-statement origin: finish time of that statement
        #: in the latest iteration (each carried-dependence chain gets
        #: its own post/wait token, so independent serial sections
        #: pipeline independently — input cursor vs output emit)
        sync_done: Dict[int, float] = {}
        k = 0

        control = None
        addr = None
        if isinstance(loop, ast.For):
            if loop.init is not None:
                machine.exec_stmt(loop.init)
            control = find_control_decl(loop)
            if control is not None and self.runner.checker is not None:
                addr = machine.var_addr(control)
                self.runner.checker.exempt |= set(
                    range(addr, addr + control.ctype.size)
                )

        body = loop.body
        stmts = body.stmts if isinstance(body, ast.Block) else [body]
        self._begin_region()
        try:
            chunk = max(1, self.runner.chunk)
            while True:
                tid = (k // chunk) % nthreads
                self._set_thread(machine, tid)
                stats = execution.threads[tid]
                # evaluate the loop condition as this thread's work
                if isinstance(loop, ast.DoWhile):
                    pass  # condition evaluated after the body
                elif loop.cond is not None:
                    if not machine.eval(loop.cond):
                        break
                stats.sync_cycles += sync.DYNAMIC_DEQUEUE
                segments = self._run_iteration(
                    machine, stmts, serial_origins, stats
                )
                if isinstance(loop, ast.For) and loop.step is not None:
                    machine.eval(loop.step)
                stats.iterations += 1
                execution.iterations += 1
                # pipelining recurrence: walk the iteration's segments
                # on this thread's clock; each serialized statement
                # waits on its own token from the previous iteration
                clock = thread_free[tid] + sync.DYNAMIC_DEQUEUE
                iter_start = clock
                for origin, is_serial, cycles in segments:
                    if is_serial:
                        token = sync_done.get(origin, 0.0)
                        token = self._checked_token(
                            loop, origin, k, tid, token
                        )
                        if token > clock:
                            stats.wait_cycles += token - clock
                            if tracer:
                                tracer.event(
                                    "token-wait", tid, t0 + clock,
                                    dur=token - clock, loop=loop.label,
                                    origin=origin, k=k,
                                )
                                tracer.metrics.inc("runtime.token_waits")
                                tracer.metrics.inc(
                                    "runtime.token_wait_cycles",
                                    token - clock,
                                )
                            clock = token
                        stats.sync_cycles += (
                            sync.POST_COST + sync.WAIT_CHECK_COST
                        )
                        clock += cycles
                        sync_done[origin] = clock
                        if tracer:
                            tracer.event(
                                "token-post", tid, t0 + clock,
                                loop=loop.label, origin=origin, k=k,
                            )
                            tracer.metrics.inc("runtime.token_posts")
                    else:
                        clock += cycles
                if tracer:
                    tracer.event(
                        "iteration", tid, t0 + iter_start,
                        dur=clock - iter_start, loop=loop.label, k=k,
                    )
                thread_free[tid] = clock
                k += 1
                if isinstance(loop, ast.DoWhile):
                    if not machine.eval(loop.cond):
                        break
        except BreakSignal:
            pass
        finally:
            self._end_region()
            self._restore(machine, saved)
        makespan = max(thread_free) if thread_free else 0.0
        from ..interp.machine import COSTS
        mem_cycles = sum(
            (execution.threads[t].sink.loads
             + execution.threads[t].sink.stores) * COSTS["load"]
            for t in range(nthreads)
        ) - sum(execution._mem_seen)
        execution._mem_seen = [
            (execution.threads[t].sink.loads
             + execution.threads[t].sink.stores) * COSTS["load"]
            for t in range(nthreads)
        ]
        makespan = max(makespan, sync.bandwidth_makespan(mem_cycles))
        fork = sync.fork_join_cost(nthreads)
        execution.makespan += makespan
        execution.runtime_cycles += fork
        machine.cost.cycles += makespan + fork

    def _run_iteration(
        self,
        machine: Machine,
        stmts: List[ast.Stmt],
        serial_origins: Set[int],
        stats: ThreadStats,
    ) -> List[Tuple[int, bool, float]]:
        """Execute one iteration statement-by-statement; returns
        ``(stmt origin, is_serial, cycles)`` segments in order."""
        segments: List[Tuple[int, bool, float]] = []
        checker = self.runner.checker
        try:
            for stmt in stmts:
                origin = origin_of(stmt)
                is_serial = origin in serial_origins
                if is_serial and checker is not None:
                    checker.enabled = False
                before = machine.cost.cycles
                try:
                    machine.exec_stmt(stmt)
                finally:
                    segments.append(
                        (origin, is_serial, machine.cost.cycles - before)
                    )
                    if is_serial and checker is not None:
                        checker.enabled = True
        except ContinueSignal:
            pass
        return segments

    def _checked_token(self, loop: ast.LoopStmt, origin: int, k: int,
                       tid: int, token: float) -> float:
        """Validate the post/wait token for one serialized statement.

        Fault injectors may drop or garble the token in flight; the
        runtime cross-checks what the consumer observed against the
        producer-side ledger (``sync_done``).  A mismatch is a detected
        synchronization fault: strict mode raises, permissive mode
        reports it once per statement and repairs from the ledger."""
        fire = getattr(self.runner, "faults_fire", None)
        if fire is None:
            return token
        observed = fire("doacross-wait", token, loop=loop.label,
                        origin=origin, k=k, tid=tid)
        if observed == token:
            return token
        if self._strict:
            raise ParallelError(
                f"DOACROSS sync token for statement {origin} lost at "
                f"iteration {k} of loop {loop.label!r}",
                code="RT-SYNC-DROP", loop=loop.label, loc=loop.loc,
                data={"origin": origin, "iteration": k},
            )
        sink = getattr(self.runner, "sink", None)
        if sink is not None and origin not in self._drops_reported:
            self._drops_reported.add(origin)
            sink.warning(
                "RT-SYNC-DROP",
                f"DOACROSS sync token for statement {origin} lost at "
                f"iteration {k} of loop {loop.label!r}; repaired from "
                "the producer-side ledger",
                loop=loop.label, loc=loop.loc,
                data={"origin": origin, "iteration": k},
            )
        return token


class _QuarantineController:
    """Executes a quarantined loop via its fallback: SpiceC-style
    runtime privatization when the loop's profile survived, with plain
    sequential execution as the last resort if even that fails."""

    def __init__(self, runner: "ParallelRunner", inner, label: str):
        self.runner = runner
        self.inner = inner
        self.label = label

    def __call__(self, machine: Machine, loop: ast.LoopStmt) -> None:
        runner = self.runner
        if runner.tracer:
            runner.tracer.event(
                "quarantine-fallback", 0, machine.cost.cycles,
                loop=self.label,
            )
            runner.tracer.metrics.inc("runtime.quarantine_fallbacks")
        if runner.strict:
            self.inner(machine, loop)
            return
        snapshot = MachineSnapshot(machine)
        try:
            self.inner(machine, loop)
        except RECOVERABLE as exc:
            execution = runner.outcome.loops.setdefault(
                self.label, LoopExecution(self.label, runner.nthreads)
            )
            _recover_sequential(
                runner, machine, loop, execution, snapshot, exc, [],
            )


class ParallelRunner:
    """Executes a transformed program with N virtual threads.

    ``strict=False`` (permissive mode) arms the robustness layer:
    recoverable failures inside a parallel loop roll back to a
    checkpoint and re-execute sequentially, quarantined loops from a
    permissive transform run under their fallback, and nothing short of
    a genuine runaway (watchdog timeout on the *sequential* retry)
    escapes.  ``watchdog`` bounds every loop execution to that many
    interpreted statements.  ``fault_injectors`` are
    :mod:`repro.runtime.faults` objects wired in for testing."""

    def __init__(
        self,
        tresult: TransformResult,
        nthreads: int,
        check_races: bool = True,
        chunk: int = 1,
        strict: bool = True,
        sink: Optional[DiagnosticSink] = None,
        watchdog: Optional[int] = None,
        fault_injectors: Optional[List] = None,
        tracer=None,
        engine: Optional[str] = None,
        backend: str = "simulated",
        workers: Optional[int] = None,
        mc: Optional[dict] = None,
        session=None,
    ):
        if tresult.program is None or tresult.sema is None:
            raise ParallelError("transform result has no program",
                                code="RT-NOPROGRAM")
        self.tresult = tresult
        self.nthreads = nthreads
        self.chunk = chunk
        self.strict = strict
        # empty sinks are falsy (len 0) — compare to None explicitly
        self.sink = sink if sink is not None else DiagnosticSink()
        self.tracer = ensure_tracer(tracer)
        self.watchdog = watchdog
        self.outcome = ParallelOutcome(nthreads)
        # backend seam: "process" executes capable loops on real worker
        # processes over one shared-memory segment (multicore module);
        # "simulated" keeps the virtual-thread interleaving.  When the
        # host cannot run the process backend, degrade with a warning —
        # every simulated run is a correct execution of the same plan.
        requested = backend or "simulated"
        if requested not in ("simulated", "process"):
            raise ParallelError(f"unknown backend {backend!r}",
                                code="RT-BACKEND")
        self.backend = "simulated"
        self.workers = workers
        self.session = None
        memory = None
        # the parallel runtime needs per-statement watchdog accounting,
        # and whatever observes the parent machine (race checker,
        # machine-level injectors' store taps / statement hooks) needs
        # the instrumented tier's fan-out.  Only an unobserved native
        # parent stays native; workers run the requested engine.
        requested_engine = resolve_engine(engine)
        observed = check_races or any(
            not getattr(injector, "process_level", False)
            for injector in fault_injectors or [])
        eng = ("native" if requested_engine == "native" and not observed
               else observed_engine(requested_engine))
        controlled = tresult.controlled_loops()
        if session is not None:
            # adopt a pre-built (possibly pooled) session: the caller
            # guarantees it was created for this tresult's program and
            # was reset since its last run
            self.session = session
            memory = session.memory
            self.backend = "process"
            session.tracer = self.tracer
            session.sink = self.sink
        elif requested == "process":
            from .multicore import ProcessSession, process_backend_available
            ok, why = process_backend_available()
            if not ok:
                self.sink.warning(
                    "MC-UNAVAILABLE",
                    f"process backend unavailable ({why}); "
                    "falling back to simulated", phase="runtime",
                )
            else:
                self.session = ProcessSession(
                    tresult.program, tresult.sema, nthreads,
                    workers=workers, options=mc, engine=requested_engine,
                    controlled=controlled,
                )
                memory = self.session.memory
                self.backend = "process"
                self.session.tracer = self.tracer
                self.session.sink = self.sink
        self.outcome.backend = self.backend
        try:
            if requested_engine == "native" and check_races:
                # race observation hooks every access in Python; the
                # native tier cannot fan accesses out, so the parent
                # machine is the instrumented bytecode tier instead
                self.sink.note(
                    "NL-OBSERVERS",
                    "race checking keeps the parent machine on the "
                    "bytecode fallback; pass check_races=False for "
                    "native parent execution", phase="runtime",
                )
            declared = {"controlled": controlled} if eng == "native" else {}
            self.machine = Machine(tresult.program, tresult.sema,
                                   max_loop_steps=watchdog, engine=eng,
                                   tracer=self.tracer, memory=memory,
                                   **declared)
            self.machine.nthreads = nthreads
            if self.tracer:
                self.tracer.metrics.set("interp.engine",
                                        self.machine.engine)
                self.tracer.metrics.set("runtime.backend", self.backend)
            self.checker: Optional[RaceChecker] = None
            if check_races:
                self.checker = RaceChecker()
                self.machine.observers.append(self.checker)
            for tloop in tresult.loops:
                if self.session is not None:
                    from .multicore import (
                        _ProcessDoacrossController, _ProcessDoallController,
                    )
                    controller = (
                        _ProcessDoallController(self, tloop, self.session)
                        if tloop.kind == DOALL
                        else _ProcessDoacrossController(
                            self, tloop, self.session)
                    )
                else:
                    controller = (
                        _DoallController(self, tloop)
                        if tloop.kind == DOALL
                        else _DoacrossController(self, tloop)
                    )
                self.machine.loop_controllers[tloop.loop.nid] = controller
            self._install_quarantined()
            # machine-level injectors instrument the parent interpreter
            # (and force MC-INSTRUMENTED fallback); process-level chaos
            # targets the worker pool itself and must NOT disarm the
            # process backend — it routes to the session's chaos list
            self.fault_injectors = []
            for injector in list(fault_injectors or []):
                if getattr(injector, "process_level", False):
                    injector.runner = self
                    if self.session is not None:
                        self.session.chaos.append(injector)
                else:
                    self.fault_injectors.append(injector)
                    injector.install(self)
        except BaseException:
            if self.session is not None:
                self._release_session()
            raise

    # -- fault-injection hooks --------------------------------------------
    def suspend_faults(self) -> None:
        for injector in self.fault_injectors:
            injector.suspend()

    def resume_faults(self) -> None:
        for injector in self.fault_injectors:
            injector.resume()

    def faults_fire(self, point: str, value=None, **ctx):
        """Give every active injector a chance to perturb ``value`` at a
        named runtime point (e.g. ``doacross-wait``)."""
        for injector in self.fault_injectors:
            value = injector.at(point, value, **ctx)
        return value

    # -- quarantine fallback ----------------------------------------------
    def _install_quarantined(self) -> None:
        """Wire quarantined loops (permissive transform) to their
        fallback.  ``sequential`` needs nothing — the loop simply has
        no controller.  ``runtime-priv`` reuses the SpiceC baseline's
        access-control layer on this machine, with the original-program
        private sites translated into the transformed program."""
        plans = []
        for q, clone_loop in self.tresult.runtime_priv_loops():
            if clone_loop is None:
                self.sink.warning(
                    "RT-QUARANTINE-LOST",
                    f"quarantined loop {q.label!r} not found in the "
                    "transformed program; it will run sequentially",
                    loop=q.label, phase="runtime",
                )
                continue
            plans.append((q, clone_loop))
        if not plans:
            return
        from ..baselines.runtime_priv import (
            AccessControl, _BaselineController, _LoopPlan,
            _serial_stmts_for,
        )
        # private sites are original-program nids; translate to clones
        orig_sites: Set[int] = set()
        for q, _clone_loop in plans:
            orig_sites |= q.priv.private_sites
        clone_sites: Set[int] = set()
        for fn in self.tresult.program.functions():
            for node in fn.body.walk():
                if origin_of(node) in orig_sites:
                    clone_sites.add(node.nid)
        access_control = AccessControl(self.machine, clone_sites)
        access_control.checker = self.checker
        host = _QuarantineHost(self, access_control)
        for q, clone_loop in plans:
            # serial statements stay keyed by original nids: the
            # DOACROSS controller compares origin_of(stmt) against them
            serial = _serial_stmts_for(
                q.loop, q.profile, q.priv.private_sites
            )
            plan = _LoopPlan(clone_loop, parse_loop_kind(q.loop),
                             clone_sites, serial)
            inner = _BaselineController(host, plan)
            self.machine.loop_controllers[clone_loop.nid] = \
                _QuarantineController(self, inner, q.label)

    # -- execution ---------------------------------------------------------
    def run(self, entry: str = "main",
            raise_on_race: bool = True) -> ParallelOutcome:
        outcome = self.outcome
        try:
            with self.tracer.phase("run", cat="runtime",
                                   nthreads=self.nthreads):
                outcome.exit_code = self.machine.run(entry)
        except DiagnosableError as exc:
            self.sink.emit(diagnostic_of(exc))
            outcome.diagnostics = list(self.sink.diagnostics)
            if isinstance(exc, WatchdogTimeout):
                self.tracer.metrics.inc("runtime.watchdog_trips")
            raise
        finally:
            self._close_session()
        outcome.output = list(self.machine.output)
        outcome.total_cycles = self.machine.cost.cycles
        outcome.peak_memory = self.machine.memory.peak_footprint()
        if self.tracer:
            outcome.trace = self.tracer
            metrics = self.tracer.metrics
            metrics.inc("runtime.races_detected", len(outcome.races))
            metrics.set("runtime.total_cycles", outcome.total_cycles)
            metrics.set("runtime.peak_memory_bytes", outcome.peak_memory)
            if self.machine.engine == "native":
                # the controller gate, visible: what the parent ran as
                # compiled code vs. loops it interpreted in Python
                metrics.set("runtime.parent_native_dispatches",
                            self.machine.native_dispatches)
                metrics.set("runtime.parent_interp_loops",
                            self.machine.interp_loops)
            for label, ex in outcome.loops.items():
                prefix = f"runtime.loop.{label}"
                metrics.set(f"{prefix}.makespan", ex.makespan)
                metrics.set(f"{prefix}.iterations", ex.iterations)
                bd = ex.breakdown()
                for key, value in bd.items():
                    metrics.set(f"{prefix}.{key}_cycles", value)
        if outcome.races:
            if raise_on_race and self.strict:
                sample = outcome.races[:5]
                raise RaceError(
                    f"{len(outcome.races)} cross-thread conflicts detected "
                    f"(first: {sample}); the expansion transform failed to "
                    "privatize some contended structure",
                    data={"races": sample},
                )
            if not self.strict:
                self.sink.warning(
                    "RT-RACE",
                    f"{len(outcome.races)} unrecovered cross-thread "
                    "conflicts recorded", phase="runtime",
                )
        outcome.diagnostics = list(self.sink.diagnostics)
        return outcome

    def _close_session(self) -> None:
        """Tear down the process backend (if armed): flush worker
        wall-clock samples into the tracer's worker timeline, shut the
        pool down, detach the parent memory and unlink the segment."""
        session = self.session
        if session is None:
            return
        if self.tracer:
            for wid, name, t0_ns, t1_ns, meta in session.worker_samples:
                self.tracer.worker_event(
                    name, wid, t0_ns / 1000.0,
                    (t1_ns - t0_ns) / 1000.0, **meta,
                )
            self.tracer.metrics.set("runtime.worker_tasks",
                                    len(session.worker_samples))
            if session.degraded:
                self.tracer.metrics.inc("runtime.mc_degraded")
            # materialize the supervision counters at zero so trace
            # summaries always show the fault-tolerance columns
            metrics = self.tracer.metrics
            for name in ("runtime.mc_restart", "runtime.mc_retry",
                         "runtime.mc_degrade",
                         "runtime.mc_spin_backoffs",
                         "runtime.mc_token_reissues"):
                metrics.set(name, metrics.get(name, 0))
        session.worker_samples = []
        self._release_session()

    def _release_session(self) -> None:
        """Pooled sessions go back to their pool (which evicts them if
        the supervisor degraded or closed them mid-run); owned sessions
        are torn down."""
        session = self.session
        self.session = None
        if session is None:
            return
        if session.pool is not None:
            session.pool.release(session)
        else:
            session.close()


class _QuarantineHost:
    """BaselineRunner facade: lets the SpiceC baseline controller run a
    quarantined loop on the expansion runtime's machine and outcome."""

    def __init__(self, runner: ParallelRunner, access_control):
        self.nthreads = runner.nthreads
        self.checker = runner.checker
        self.outcome = runner.outcome
        self.access_control = access_control


def run_parallel(
    tresult: TransformResult,
    nthreads: Optional[int] = None,
    *,
    job=None,
    entry: Optional[str] = None,
    raise_on_race: bool = True,
    **runner_kwargs,
) -> ParallelOutcome:
    """Run a transformed program on ``nthreads`` virtual threads.

    The low-level "run this :class:`TransformResult`" call:
    ``runner_kwargs`` are :class:`ParallelRunner`'s keyword parameters
    (``check_races``, ``chunk``, ``strict``, ``watchdog``, ``engine``,
    ``backend``, ``workers``, ``sink``, ``tracer``, ``fault_injectors``,
    ``mc``, ``session``) and ``entry`` names the entry point (default
    ``main``).  ``job`` (a :class:`repro.service.Job`) is the driver's
    spelling: it carries the thread count, entry point and the run
    configuration as one value object, so passing any of those beside
    it is a ``TypeError``.

    ``chunk`` sets the DOACROSS dynamic-scheduling chunk size (the
    paper uses 1; larger chunks trade scheduling overhead for pipeline
    latency — see the scheduling ablation bench).

    ``strict=False`` arms the robustness layer (checkpoint + sequential
    re-execution on recoverable failures or detected races, quarantine
    fallbacks, sync-token repair); ``watchdog`` bounds every loop
    execution to that many interpreted statements and turns runaway
    loops into a structured :class:`WatchdogTimeout`;
    ``fault_injectors`` wires in :mod:`repro.runtime.faults`
    injectors.

    ``tracer`` (a :class:`repro.obs.Tracer`) records the per-thread
    runtime timeline — iteration spans, DOACROSS token waits/posts,
    watchdog trips, snapshot rollbacks, quarantine fallbacks — with
    simulated-cycle timestamps, and is attached to the outcome as
    ``outcome.trace``.

    ``engine`` picks the interpreter tier (see
    :data:`repro.interp.ENGINES`; defaults to ``$REPRO_ENGINE``).  The
    bare bytecode variant is promoted to instrumented — the runtime
    needs the race checker's observer fan-out and watchdog accounting.

    ``backend="process"`` executes capable parallel loops on real
    worker processes over one OS shared-memory segment (see
    :mod:`repro.runtime.multicore`); ``workers`` sizes the pool
    (default ``nthreads``), ``mc`` tunes segment/arena sizes and
    timeouts, and ``session`` injects a pre-built (typically pooled)
    :class:`~repro.runtime.multicore.ProcessSession` so a resident
    service reuses warm forked workers across requests.  Output,
    diagnostics, modeled cycles and the final heap image stay
    bit-identical to the simulated backend; loops the capability audit
    rejects fall back to the simulated controllers on the same shared
    buffer."""
    if job is not None:
        config = dict(
            check_races=job.check_races, chunk=job.chunk,
            strict=job.options.strict, watchdog=job.watchdog,
            engine=job.options.engine, backend=job.backend,
            workers=job.workers,
        )
        clash = sorted(config.keys() & runner_kwargs.keys())
        if nthreads is not None:
            clash.insert(0, "nthreads")
        if entry is not None:
            clash.append("entry")
        if clash:
            raise TypeError(
                f"run_parallel() got both job= and {clash}; the Job "
                "already carries them"
            )
        nthreads, entry = job.nthreads, job.options.entry
        runner_kwargs.update(config)
    elif nthreads is None:
        raise TypeError("run_parallel() needs nthreads (or job=)")
    runner = ParallelRunner(tresult, nthreads, **runner_kwargs)
    return runner.run(entry or "main", raise_on_race=raise_on_race)
