"""Simulated multithreaded execution of transformed programs.

The paper runs its transformed loops on real cores through GOMP; here a
:class:`ParallelRunner` puts a *controller* on every planned loop of the
MiniC machine.  The schedule itself is :mod:`repro.runtime.plan`; a
controller is the guard around it (checkpoint, watchdog, sequential
recovery) plus the choice of executor.  The in-process executor runs N
*virtual threads* on the parent machine, chunks or iterations one after
another with ``__tid`` bound and cycles charged to the running thread's
sink.  That is sound *because* the plan makes them independent, and the
independence is checked, not assumed: a byte-level race detector
compares every thread's footprint (this substitutes for the paper's
"correct on real hardware" evidence).  The other executor, real worker
processes, is :class:`repro.runtime.multicore.ProcessExecutor`.

The whole-program clock advances by each loop's *makespan* rather than
its total work, so end-to-end cycles give the paper's total-program
speedup (Figure 11b) by simple division.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Set, Tuple

from ..diagnostics import DiagnosableError, DiagnosticSink, diagnostic_of
from ..frontend import ast
from ..interp.machine import (
    BreakSignal, CostSink, InterpError, Machine, WatchdogTimeout,
    observed_engine, resolve_engine,
)
from ..interp.memory import MemoryError_
from ..interp.trace import RaceChecker
from ..analysis.profiler import find_control_decl
from ..transform.pipeline import DOALL, TransformResult, parse_loop_kind
from ..transform.rewrite import origin_of
from . import sync
from .multicore import (
    ProcessExecutor, ProcessSession, process_backend_available,
)
from .plan import (
    LoopBounds, LoopPlan, ParallelError, PipelineClock, RaceError,
    RunContext, body_steps, doacross_iteration, doacross_owner,
    doall_chunks, doall_iteration, loop_bounds, settle,
    sync_memory_ledger,
)
from .stats import LoopExecution, ParallelOutcome, RecoveryEvent, ThreadStats


#: failures a permissive run recovers from by sequential re-execution.
#: WatchdogTimeout is an InterpError; injected faults subclass it too.
RECOVERABLE = (ParallelError, InterpError, MemoryError_)


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
        # records may have been truncated out of the address space, and
        # a native heap mirror rebuilds from the restored records
        memory.invalidate_lookup_cache()
        memory.mark_heap_stale()


class _LoopController:
    """One :class:`LoopPlan` under one :class:`RunContext`.  In
    permissive mode (``ctx.strict == False``) every controlled loop
    execution is checkpointed, and a recoverable failure or a detected
    race rolls back and re-runs the loop sequentially instead of
    killing the program.  An attempt runs the kind's schedule
    (:meth:`_execute`) on ``process`` unless there is none or it refuses
    this execution — then in-process, as virtual threads."""

    def __init__(self, ctx: RunContext, plan: LoopPlan,
                 process: Optional[ProcessExecutor] = None):
        self.ctx = ctx
        self.plan = plan
        self.process = process
        label = plan.loop.label
        self.execution = ctx.outcome.loops.setdefault(
            label, LoopExecution(label, ctx.nthreads)
        )
        #: conflicts found by the checker in the most recent region
        self._region_races: List[Tuple[int, str]] = []

    def __call__(self, machine: Machine, loop: ast.LoopStmt) -> None:
        if self.ctx.strict:
            self._attempt(machine, loop)
            return
        snapshot = MachineSnapshot(machine)
        try:
            self._attempt(machine, loop)
        except RECOVERABLE as caught:
            exc = caught
        else:
            races = self._region_races
            if not races:
                return
            exc = RaceError(
                f"{len(races)} cross-thread conflicts in loop "
                f"{loop.label!r}",
                loop=loop.label, loc=loop.loc,
                data={"races": races[:5]},
            )
        self._recover_sequential(machine, loop, snapshot, exc)

    def _recover_sequential(self, machine: Machine, loop: ast.LoopStmt,
                            snapshot: MachineSnapshot,
                            exc: BaseException) -> None:
        """Permissive-mode recovery: roll the machine back to its
        pre-loop state and run the loop sequentially on pristine memory.
        Injected faults are suspended for the retry (the fault hit the
        parallel attempt; the fallback models failover to the
        untransformed path).  A watchdog timeout during the retry itself
        propagates — that is a genuine runaway, not a parallelization
        artifact."""
        ctx, races = self.ctx, self._region_races
        snapshot.restore(machine)
        diag = diagnostic_of(exc)
        if diag.loop is None:
            diag.loop = loop.label
        ctx.outcome.recoveries.append(
            RecoveryEvent(loop.label, diag, races=races)
        )
        tracer = ctx.tracer
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
        ctx.sink.emit(diag)
        ctx.sink.warning(
            "RT-RECOVERED",
            f"loop {loop.label!r} re-executed sequentially after "
            f"{diag.code}",
            loop=loop.label, loc=loop.loc, phase="runtime",
        )
        for injector in ctx.injectors:
            injector.suspend()
        try:
            machine.exec_loop_sequential(loop)
        finally:
            for injector in ctx.injectors:
                injector.resume()
        # the aborted attempt's loads/stores stay in the thread sinks;
        # sync the ledger so the next execution's diff starts clean
        sync_memory_ledger(self.execution)

    def _attempt(self, machine: Machine, loop: ast.LoopStmt) -> None:
        """One parallel execution, bounded by the run's watchdog
        (controllers bypass the machine's own per-loop guard)."""
        process = self.process
        if process is not None and process.refuses(machine, loop):
            process = None
        budget = self.ctx.watchdog
        if budget is not None:
            machine.push_watchdog(budget, loop.label)
        try:
            self.execution.executions += 1
            self._execute(machine, loop, process)
        finally:
            if budget is not None:
                machine.pop_watchdog()

    # -- the in-process executor's scaffolding -----------------------------
    @contextmanager
    def _virtual_threads(self, machine: Machine, control=None):
        """A race-checked region in which the parent machine plays the
        threads.  Yields ``run_as(tid)``: binds ``__tid`` and the cost
        sink to that thread, returns its stats.  ``control`` (the
        induction variable) is the scheduler's to write, not a race."""
        ctx, checker = self.ctx, self.ctx.checker
        threads = self.execution.threads
        saved = machine.cost

        def run_as(tid: int) -> ThreadStats:
            machine.tid = tid
            machine.cost = threads[tid].sink
            if checker is not None:
                checker.current_thread = tid
            return threads[tid]

        self._region_races = []
        if checker is not None:
            if control is not None:
                addr = machine.var_addr(control)
                checker.exempt |= set(range(addr, addr + control.ctype.size))
            checker.begin_region()
        try:
            yield run_as
        finally:
            if checker is not None:
                self._region_races = checker.end_region()
                if ctx.strict:
                    ctx.outcome.races.extend(self._region_races)
                checker.current_thread = 0
            machine.tid = 0
            machine.cost = saved


class _DoallController(_LoopController):
    """Static chunk scheduling over a canonical for loop; the makespan
    is the longest thread span."""

    def _execute(self, machine: Machine, loop: ast.For,
                 process: Optional[ProcessExecutor]) -> None:
        execution = self.execution
        if not isinstance(loop, ast.For):
            raise ParallelError(
                f"DOALL loop {loop.label!r} must be a canonical for loop",
                code="RT-NONCANONICAL", loop=loop.label, loc=loop.loc,
            )
        if loop.init is not None:
            machine.exec_stmt(loop.init)
        bounds = loop_bounds(machine, loop)
        t0 = machine.cost.cycles          # program clock at loop entry
        chunks = doall_chunks(bounds.total, self.ctx.nthreads)
        if process is None:
            spans = self._virtual_chunks(machine, loop, bounds, chunks, t0)
        else:
            spans = process.doall(machine, loop, bounds, chunks, execution)
        tracer = self.ctx.tracer
        if tracer:
            for tid, span in enumerate(spans):
                if span > 0:
                    tracer.event(
                        "doall-chunk", tid, t0, dur=span, loop=loop.label,
                        iterations=execution.threads[tid].iterations,
                    )
        settle(machine, execution, max(spans))
        # leave the control variable at its sequential exit value
        bounds.seed(machine, bounds.total)

    def _virtual_chunks(self, machine: Machine, loop: ast.For,
                        bounds: LoopBounds, chunks, t0: float) -> List[float]:
        """Chunks run one after another, which is sound *because* the
        plan makes them independent — checked over the region, not
        assumed.  Returns each thread's span."""
        tracer = self.ctx.tracer
        spans = [0.0] * self.ctx.nthreads
        with self._virtual_threads(machine, bounds.control) as run_as:
            for tid, first, end in chunks:
                stats = run_as(tid)
                stats.sync_cycles += sync.STATIC_CHUNK_SETUP
                start = stats.sink.cycles
                bounds.seed(machine, first)
                for k in range(first, end):
                    it_start = stats.sink.cycles if tracer else 0.0
                    doall_iteration(machine, loop)
                    if tracer:
                        tracer.event(
                            "iteration", tid, t0 + (it_start - start),
                            dur=stats.sink.cycles - it_start,
                            loop=loop.label, k=k,
                        )
                    stats.iterations += 1
                    self.execution.iterations += 1
                spans[tid] = stats.sink.cycles - start
        return spans


class _DoacrossController(_LoopController):
    """Dynamic scheduling with pipelined serial sections: whoever runs
    the iterations, their segments go through the loop's clock."""

    def __init__(self, ctx: RunContext, plan: LoopPlan,
                 process: Optional[ProcessExecutor] = None):
        super().__init__(ctx, plan, process)
        self.clock = PipelineClock(ctx, plan.loop, self.execution)

    def _execute(self, machine: Machine, loop: ast.LoopStmt,
                 process: Optional[ProcessExecutor]) -> None:
        clock = self.clock
        clock.start(machine.cost.cycles)  # program clock at loop entry
        if process is None:
            self._virtual_pipeline(machine, loop, clock)
        else:
            process.doacross(machine, loop, self.execution, clock)
        settle(machine, self.execution, clock.makespan)

    def _virtual_pipeline(self, machine: Machine, loop: ast.LoopStmt,
                          clock: PipelineClock) -> None:
        """Iterations run in program order, iteration k as thread
        ``doacross_owner(k)``, so semantics are trivially preserved;
        only the *timing* is parallel, and that is the clock's."""
        nthreads, chunk = self.ctx.nthreads, max(1, self.ctx.chunk)
        checker = self.ctx.checker
        is_for = isinstance(loop, ast.For)
        do_while = isinstance(loop, ast.DoWhile)
        control = None
        if is_for:
            if loop.init is not None:
                machine.exec_stmt(loop.init)
            control = find_control_decl(loop)
        steps = body_steps(loop, self.plan.serial_stmt_origins)
        # serialized sections run in iteration order by construction:
        # their accesses are ordered, not racing
        quiet = loud = None
        if checker is not None:
            def quiet(_origin: int) -> None:
                checker.enabled = False

            def loud(_origin: int) -> None:
                checker.enabled = True
        k = 0
        with self._virtual_threads(machine, control) as run_as:
            try:
                while True:
                    tid = doacross_owner(k, chunk, nthreads)
                    stats = run_as(tid)
                    # the loop condition is this thread's work (a
                    # do-while evaluates it after the body)
                    if not do_while and loop.cond is not None \
                            and not machine.eval(loop.cond):
                        break
                    stats.sync_cycles += sync.DYNAMIC_DEQUEUE
                    segments = doacross_iteration(machine, steps, quiet, loud)
                    if is_for and loop.step is not None:
                        machine.eval(loop.step)
                    clock.feed(tid, k, segments)
                    k += 1
                    if do_while and not machine.eval(loop.cond):
                        break
            except BreakSignal:
                pass


def loop_controller(ctx: RunContext, plan: LoopPlan,
                    process: Optional[ProcessExecutor] = None):
    """The controller that runs ``plan`` under ``ctx``."""
    kind = _DoallController if plan.kind == DOALL else _DoacrossController
    return kind(ctx, plan, process)


class _QuarantineController(_LoopController):
    """Executes a quarantined loop via its fallback (SpiceC-style
    runtime privatization) under the same guard as any other loop, so
    plain sequential execution is the last resort if even that fails."""

    def __init__(self, ctx: RunContext, plan: LoopPlan, fallback):
        super().__init__(ctx, plan)
        self._attempt = fallback

    def __call__(self, machine: Machine, loop: ast.LoopStmt) -> None:
        tracer = self.ctx.tracer
        if tracer:
            tracer.event("quarantine-fallback", 0, machine.cost.cycles,
                         loop=loop.label)
            tracer.metrics.inc("runtime.quarantine_fallbacks")
        super().__call__(machine, loop)


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
        self.strict = strict
        self.outcome = ParallelOutcome(nthreads)
        self.checker = RaceChecker() if check_races else None
        #: the one run context every controller of this run shares
        self.ctx = ctx = RunContext(
            nthreads, self.outcome, chunk=chunk, checker=self.checker,
            tracer=tracer, sink=sink, strict=strict, watchdog=watchdog,
        )
        self.sink = ctx.sink
        self.tracer = ctx.tracer
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
        self.session = None
        memory = None
        # whatever watches the parent machine statement by statement or
        # access by access (race checker, watchdog budget, machine-level
        # injectors' hooks) needs Python closures.  Only an unobserved
        # native parent stays native; workers run the requested engine.
        requested_engine = resolve_engine(engine)
        watchers = [why for why, on in (
            ("race checking", check_races),
            ("the watchdog", watchdog is not None),
            ("fault injection", any(
                not getattr(injector, "process_level", False)
                for injector in fault_injectors or [])),
        ) if on]
        eng = observed_engine(requested_engine) if watchers \
            else requested_engine
        controlled = tresult.controlled_loops()
        if session is None and requested == "process":
            ok, why = process_backend_available()
            if ok:
                session = ProcessSession(
                    tresult.program, tresult.sema, nthreads,
                    workers=workers, options=mc, engine=requested_engine,
                    controlled=controlled,
                )
            else:
                self.sink.warning(
                    "MC-UNAVAILABLE",
                    f"process backend unavailable ({why}); "
                    "falling back to simulated", phase="runtime",
                )
        if session is not None:
            # a session handed in is pre-built (possibly pooled): the
            # caller guarantees it was created for this tresult's
            # program and was reset since its last run
            self.session = session
            memory = session.memory
            self.backend = "process"
            session.tracer = self.tracer
            session.sink = self.sink
        self.outcome.backend = self.backend
        try:
            if eng != requested_engine:
                # compiled C can neither fan accesses out nor count
                # statements against a budget
                self.sink.note(
                    "NL-OBSERVERS",
                    "parent machine kept on the bytecode closures by "
                    f"{' and '.join(watchers)}; native parent execution "
                    "needs check_races=False and no watchdog",
                    phase="runtime",
                )
            self.machine = Machine(tresult.program, tresult.sema,
                                   max_loop_steps=watchdog, engine=eng,
                                   tracer=self.tracer, memory=memory,
                                   controlled=controlled)
            self.machine.nthreads = nthreads
            if self.tracer:
                self.tracer.metrics.set("interp.engine",
                                        self.machine.engine)
                self.tracer.metrics.set("runtime.backend", self.backend)
            if self.checker is not None:
                self.machine.observers.append(self.checker)
            for tloop in tresult.loops:
                plan = LoopPlan.of(tloop)
                process = None if self.session is None else \
                    ProcessExecutor(self.session, ctx, plan)
                self.machine.loop_controllers[tloop.loop.nid] = \
                    loop_controller(ctx, plan, process)
            self._install_quarantined()
            # machine-level injectors instrument the parent interpreter
            # (and force MC-INSTRUMENTED fallback); process-level chaos
            # targets the worker pool itself and must NOT disarm the
            # process backend — it routes to the session's chaos list
            for injector in list(fault_injectors or []):
                if getattr(injector, "process_level", False):
                    injector.runner = self
                    if self.session is not None:
                        self.session.chaos.append(injector)
                else:
                    ctx.injectors.append(injector)
                    injector.install(self)
        except BaseException:
            self._release_session()
            raise

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
            AccessControl, _BaselineController, _serial_stmts_for,
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
        access_control = AccessControl(self.machine, clone_sites,
                                       self.checker)
        # the fallback runs strict, like the baseline it is: what it
        # raises is the quarantine controller's to recover from
        fallback = RunContext(self.nthreads, self.outcome,
                              checker=self.checker)
        for q, clone_loop in plans:
            # serial statements stay keyed by original nids: the
            # DOACROSS schedule compares origin_of(stmt) against them
            serial = _serial_stmts_for(
                q.loop, q.profile, q.priv.private_sites
            )
            plan = LoopPlan(clone_loop, parse_loop_kind(q.loop), serial,
                            clone_sites)
            inner = _BaselineController(fallback, plan, access_control)
            self.machine.loop_controllers[clone_loop.nid] = \
                _QuarantineController(self.ctx, plan, inner)

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
                # ... and how often it left compiled code for Python,
                # beside the heap operations C made on its own
                metrics.set("runtime.parent_native_upcalls",
                            sum(self.machine.upcalls.values()))
                metrics.set("runtime.parent_native_heap_ops",
                            self.machine.heap_ops)
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
    :data:`repro.interp.ENGINES`; defaults to ``$REPRO_ENGINE``).  A
    ``native`` parent is promoted to the bytecode closures while the
    race checker, a watchdog or a machine-level injector watches it.

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
