"""The loop schedule, written once: plan → executor → clock → settle.

The paper runs every configuration it compares through one runtime
library (GOMP: static chunks for DOALL, dynamic chunk-1 plus post/wait
for DOACROSS), so its figures compare *mechanisms*.  This module is that
schedule: what runs and under which run (:class:`LoopPlan`,
:class:`RunContext`), the iteration-space arithmetic, the two iteration
drivers, the DOACROSS recurrence (:class:`PipelineClock`) and the
makespan accounting (:func:`settle`).  The controllers, the process
executor with its workers, and the baselines only compose these.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from ..diagnostics import DiagnosableError, DiagnosticSink
from ..frontend import ast
from ..interp.machine import COSTS, BreakSignal, ContinueSignal, Machine
from ..analysis.profiler import find_control_decl
from ..obs import ensure_tracer
from ..transform.rewrite import origin_of
from . import sync
from .stats import LoopExecution, ParallelOutcome

#: one statement of one iteration: (statement origin, is_serial, cycles)
Segment = Tuple[int, bool, float]


class ParallelError(DiagnosableError):
    """The parallel runtime cannot execute a loop as planned."""

    default_code = "RT-PLAN"
    default_phase = "runtime"


class RaceError(ParallelError):
    """Cross-thread conflict detected in a supposedly-independent loop."""

    default_code = "RT-RACE"


class LoopPlan(NamedTuple):
    """What the scheduler knows about one parallel loop: its kind, the
    origins of the top-level body statements that must run in iteration
    order under DOACROSS, and the access sites some mechanism (expansion,
    or the access-control layer) privatizes."""

    loop: ast.LoopStmt
    kind: str
    serial_stmt_origins: Set[int] = frozenset()
    private_sites: Set[int] = frozenset()
    commutative_sites: Set[int] = frozenset()

    @classmethod
    def of(cls, tloop) -> "LoopPlan":
        """The plan of a :class:`~repro.transform.TransformedLoop`."""
        return cls(tloop.loop, tloop.kind, tloop.serial_stmt_origins,
                   tloop.priv.private_sites, tloop.priv.commutative_sites)


class RunContext:
    """What a controller may ask of the run it belongs to; one per
    runner.  ``strict=False`` arms checkpoint-and-recover, ``watchdog``
    bounds every controlled loop execution, ``injectors`` are the
    machine-level fault injectors wired into the run (the fault hooks:
    suspended during recovery, consulted at ``doacross-wait``)."""

    def __init__(self, nthreads: int, outcome: ParallelOutcome, *,
                 chunk: int = 1, checker=None, tracer=None,
                 sink: Optional[DiagnosticSink] = None,
                 strict: bool = True, watchdog: Optional[int] = None):
        self.nthreads = nthreads
        self.outcome = outcome
        self.chunk = chunk
        self.checker = checker
        self.tracer = ensure_tracer(tracer)
        # empty sinks are falsy (len 0) — compare to None explicitly
        self.sink = sink if sink is not None else DiagnosticSink()
        self.strict = strict
        self.watchdog = watchdog
        self.injectors: List = []


class LoopBounds(NamedTuple):
    """A canonical for loop at entry: iteration ``k`` of ``total`` runs
    with the control variable at ``lo + k * step``."""

    control: ast.VarDecl
    addr: int
    lo: int
    step: int
    total: int

    def seed(self, machine: Machine, k: int) -> None:
        """Set the control variable for iteration ``k`` (``k == total``:
        its sequential exit value).  Uncosted."""
        machine.memory.write_scalar(self.addr, self.control.ctype.fmt,
                                    self.lo + k * self.step)


def noncanonical(loop: ast.For) -> Optional[str]:
    """Why ``loop`` is not a canonical for loop — ``for (i = lo; i <
    bound; i++ / i += c)`` — or None if it is."""
    control = find_control_decl(loop)
    if control is None:
        return "is not canonical (no induction variable)"
    cond, step = loop.cond, loop.step
    if not (isinstance(cond, ast.Binary) and cond.op in ("<", "<=")
            and isinstance(cond.left, ast.Ident)
            and cond.left.decl is control):
        return "condition must be 'i < bound' or 'i <= bound'"
    if not ((isinstance(step, ast.Unary) and step.op in ("++", "p++"))
            or (isinstance(step, ast.Assign) and step.op == "+=")):
        return "step must be i++ or i += c"
    return None


def loop_bounds(machine: Machine, loop: ast.For) -> LoopBounds:
    """Evaluate a canonical for loop's bounds (its init already ran).
    A rejection carries the loop label and source location, so it stays
    attributable when the loop was reached through nested calls."""
    why = noncanonical(loop)
    if why is not None:
        raise ParallelError(f"loop {loop.label!r} {why}",
                            code="RT-NONCANONICAL", loop=loop.label,
                            loc=loop.loc)
    control, cond = find_control_decl(loop), loop.cond
    step = int(machine.eval(loop.step.value)) \
        if isinstance(loop.step, ast.Assign) else 1
    addr = machine.var_addr(control)
    lo = int(machine.memory.read_scalar(addr, control.ctype.fmt,
                                        control.ctype.size))
    hi = int(machine.eval(cond.right))
    if cond.op == "<=":
        hi += 1
    return LoopBounds(control, addr, lo, step,
                      max(0, -(-(hi - lo) // step)))


def doall_chunks(total: int, nthreads: int) -> List[Tuple[int, int, int]]:
    """Static scheduling: ``(tid, first, end)`` with thread ``tid``
    owning iterations ``[tid·total//N, (tid+1)·total//N)``; threads
    whose chunk is empty do not appear."""
    chunks = []
    for tid in range(nthreads):
        first, end = tid * total // nthreads, (tid + 1) * total // nthreads
        if first < end:
            chunks.append((tid, first, end))
    return chunks


def doacross_owner(k: int, chunk: int, nthreads: int) -> int:
    """Dynamic scheduling: the thread that dequeues iteration ``k``.
    Needs no trip count, so it drives ``while`` / ``do-while`` too."""
    return (k // chunk) % nthreads


def doall_iteration(machine: Machine, loop: ast.For) -> None:
    """One DOALL iteration on ``machine``'s current thread: cond → body
    → step.  A static chunk plan cannot honor ``break``."""
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


def body_steps(loop: ast.LoopStmt, serial_origins: Set[int]) -> List[tuple]:
    """The body as DOACROSS runs it: ``(statement, origin, is_serial)``
    per top-level statement."""
    body = loop.body
    stmts = body.stmts if isinstance(body, ast.Block) else [body]
    return [(stmt, origin, origin in serial_origins)
            for stmt, origin in zip(stmts, map(origin_of, stmts))]


def doacross_iteration(
    machine: Machine, steps: List[tuple],
    before_serial: Optional[Callable[[int], None]] = None,
    after_serial: Optional[Callable[[int], None]] = None,
) -> List[Segment]:
    """One DOACROSS iteration body; returns its segments in order.  The
    hooks bracket each serialized statement (they get its origin): the
    parent silences the race checker there, a worker waits for and posts
    the statement's token.  ``break`` propagates to the caller."""
    segments: List[Segment] = []
    cost = machine.cost
    try:
        for stmt, origin, is_serial in steps:
            if is_serial and before_serial is not None:
                before_serial(origin)
            before = cost.cycles
            try:
                machine.exec_stmt(stmt)
            finally:
                segments.append((origin, is_serial, cost.cycles - before))
                if is_serial and after_serial is not None:
                    after_serial(origin)
    except ContinueSignal:
        pass
    return segments


class PipelineClock:
    """The pipelining recurrence of one DOACROSS loop.  An iteration
    starts when its thread is free and pays the dequeue; a serialized
    statement waits on its own token — when that statement finished in
    the previous iteration — so independent serial sections pipeline
    independently.  Stalls are the thread's ``wait_cycles`` (Figure
    12's ``do_wait``/``cpu_relax``); token events and metrics come from
    here only."""

    def __init__(self, ctx: RunContext, loop: ast.LoopStmt,
                 execution: LoopExecution):
        self.ctx = ctx
        self.loop = loop
        self.execution = execution
        #: serialized-statement origins whose dropped sync tokens were
        #: already reported (one diagnostic per origin, not per wait)
        self._drops_reported: Set[int] = set()

    def start(self, t0: float) -> None:
        """Begin one loop execution (of many) at program clock ``t0``."""
        self.t0 = t0
        self.thread_free = [0.0] * self.ctx.nthreads
        #: per serialized origin: when its latest execution finished
        self.sync_done: Dict[int, float] = {}

    @property
    def makespan(self) -> float:
        return max(self.thread_free)

    def feed(self, tid: int, k: int, segments: List[Segment]) -> None:
        """Account iteration ``k``, executed by thread ``tid``."""
        ctx, loop, t0 = self.ctx, self.loop, self.t0
        tracer = ctx.tracer
        sync_done = self.sync_done
        stats = self.execution.threads[tid]
        stats.iterations += 1
        self.execution.iterations += 1
        clock = self.thread_free[tid] + sync.DYNAMIC_DEQUEUE
        iter_start = clock
        for origin, is_serial, cycles in segments:
            if not is_serial:
                clock += cycles
                continue
            token = sync_done.get(origin, 0.0)
            if ctx.injectors:
                self._check_token(origin, k, tid, token)
            if token > clock:
                stats.wait_cycles += token - clock
                if tracer:
                    tracer.event("token-wait", tid, t0 + clock,
                                 dur=token - clock, loop=loop.label,
                                 origin=origin, k=k)
                    tracer.metrics.inc("runtime.token_waits")
                    tracer.metrics.inc("runtime.token_wait_cycles",
                                       token - clock)
                clock = token
            stats.sync_cycles += sync.POST_COST + sync.WAIT_CHECK_COST
            clock += cycles
            sync_done[origin] = clock
            if tracer:
                tracer.event("token-post", tid, t0 + clock,
                             loop=loop.label, origin=origin, k=k)
                tracer.metrics.inc("runtime.token_posts")
        if tracer:
            tracer.event("iteration", tid, t0 + iter_start,
                         dur=clock - iter_start, loop=loop.label, k=k)
        self.thread_free[tid] = clock

    def _check_token(self, origin: int, k: int, tid: int,
                     token: float) -> None:
        """Fault injectors may drop or garble a token in flight; what
        the consumer observed is checked against the producer-side
        ledger (``sync_done``).  A mismatch raises in strict mode, else
        is reported once per statement and repaired from the ledger."""
        ctx, loop = self.ctx, self.loop
        observed = token
        for injector in ctx.injectors:
            observed = injector.at("doacross-wait", observed,
                                   loop=loop.label, origin=origin, k=k,
                                   tid=tid)
        if observed == token:
            return
        lost = (f"DOACROSS sync token for statement {origin} lost at "
                f"iteration {k} of loop {loop.label!r}")
        data = {"origin": origin, "iteration": k}
        if ctx.strict:
            raise ParallelError(lost, code="RT-SYNC-DROP", loop=loop.label,
                                loc=loop.loc, data=data)
        if origin not in self._drops_reported:
            self._drops_reported.add(origin)
            ctx.sink.warning(
                "RT-SYNC-DROP",
                lost + "; repaired from the producer-side ledger",
                loop=loop.label, loc=loop.loc, data=data,
            )


def sync_memory_ledger(execution: LoopExecution) -> float:
    """Memory cycles the threads' sinks accumulated since the last call
    (sequential recovery calls it just to resynchronize the ledger)."""
    seen = [(t.sink.loads + t.sink.stores) * COSTS["load"]
            for t in execution.threads]
    fresh = sum(seen) - sum(execution._mem_seen)
    execution._mem_seen = seen
    return fresh


def settle(machine: Machine, execution: LoopExecution,
           makespan: float) -> None:
    """Close one parallel loop execution: the shared memory system's
    bandwidth caps the makespan, fork/join is runtime-library time, and
    the *program* clock advances by makespan, not by work."""
    makespan = max(makespan,
                   sync.bandwidth_makespan(sync_memory_ledger(execution)))
    fork = sync.fork_join_cost(execution.nthreads)
    execution.makespan += makespan
    execution.runtime_cycles += fork
    machine.cost.cycles += makespan + fork
