"""Dynamic loop-level data dependence profiling.

The paper obtained its dependence graphs by off-line data dependence
profiling (their refs [38, 39]) followed by manual verification.  This
module does the same against the MiniC machine: it runs the program
once sequentially, drives the candidate loop iteration-by-iteration
through a loop controller, and observes every memory access at *byte*
granularity.  Byte granularity matters because benchmarks recast
buffers between element sizes (256.bzip2's ``zptr``), where word-level
tracking would miss partial overlaps.

Outputs per candidate loop:

* the :class:`~repro.analysis.ddg.DDG` with flow/anti/output edges
  split into loop-carried vs loop-independent (Definition 1),
  upwards-exposed loads and downwards-exposed stores (Definitions 2-3);
* per-site dynamic access counts (the weights behind Figure 8);
* the set of *objects* (allocation sites) each access site touched —
  dynamic alias ground truth used to validate the static points-to
  analysis and by the runtime-privatization baseline.

Loop-control variable accesses (the ``i`` of a canonical ``for``) are
exempted: the parallel scheduler rebinds the induction variable per
chunk, exactly as OpenMP-style codegen privatizes control variables, so
their carried dependences are not real obstacles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..frontend import ast
from ..frontend.sema import SemaResult
from ..interp.machine import (
    BreakSignal, ContinueSignal, Machine, observed_engine,
)
from .ddg import ANTI, DDG, FLOW, OUTPUT

#: an object key: (segment-kind, allocation-site tag)
ObjectKey = Tuple[str, int]


class LoopProfile:
    """Everything the profiler learned about one candidate loop."""

    def __init__(self, loop: ast.LoopStmt):
        self.loop = loop
        self.ddg = DDG()
        self.iterations = 0
        self.executions = 0
        #: site -> set of objects it touched
        self.site_objects: Dict[int, Set[ObjectKey]] = {}
        #: object -> human label (for reports)
        self.object_labels: Dict[ObjectKey, str] = {}
        #: object -> original (unexpanded) byte size observed
        self.object_sizes: Dict[ObjectKey, int] = {}
        #: cycles spent inside the loop vs the whole program
        self.loop_cycles = 0.0
        self.total_cycles = 0.0
        #: per top-level-statement cycles, for DOACROSS sync planning
        self.stmt_cycles: Dict[int, float] = {}

    @property
    def loop_time_fraction(self) -> float:
        """Fraction of program cycles spent in the candidate loop
        (Table 4's %Time column)."""
        if self.total_cycles == 0:
            return 0.0
        return self.loop_cycles / self.total_cycles

    def __repr__(self) -> str:
        return (
            f"<LoopProfile iters={self.iterations} {self.ddg!r} "
            f"%time={100 * self.loop_time_fraction:.1f}>"
        )


class _ProfileObserver:
    """Byte-granular dependence tracker.

    Maintains, per byte address: the last in-loop writer ``(site,
    iteration)`` and the readers since that write ``site -> (first_iter,
    last_iter)``.  Dependence edges come from the classic last-writer
    construction, which realizes Definition 1 including its covered-
    write refinement of loop-carried flow dependences.
    """

    def __init__(self, machine: Machine, profile: LoopProfile):
        self.machine = machine
        self.profile = profile
        self.in_loop = False
        self.iteration = 0
        self.exempt: Set[int] = set()
        # in-loop state (reset per loop execution)
        self.last_write: Dict[int, Tuple[int, int]] = {}
        self.readers: Dict[int, Dict[int, List[int]]] = {}
        # post-loop exposure state (survives across executions)
        self.pending_down: Dict[int, int] = {}  # byte -> last in-loop store site

    # -- execution boundaries ---------------------------------------------
    def begin_execution(self) -> None:
        self.in_loop = True
        self.last_write.clear()
        self.readers.clear()

    def end_execution(self, last_store_site: Optional[Dict[int, int]] = None):
        # archive this execution's final writers for downward-exposure
        for byte, (site, _iter) in self.last_write.items():
            self.pending_down[byte] = site
        self.in_loop = False

    def begin_iteration(self, k: int) -> None:
        self.iteration = k

    # -- the hook -------------------------------------------------------------
    def on_access(self, site: int, addr: int, size: int, is_store: bool):
        if not self.in_loop:
            self._post_access(addr, size, is_store)
            return
        ddg = self.profile.ddg
        cur = self.iteration
        record = self.machine.memory.find(addr)
        if record is not None:
            key: ObjectKey = (record.kind, record.tag)
            self.profile.site_objects.setdefault(site, set()).add(key)
            if key not in self.profile.object_labels:
                self.profile.object_labels[key] = record.label
                self.profile.object_sizes[key] = record.size
        exempt = self.exempt
        if is_store:
            ddg.add_site(site, True)
            add_edge = ddg.add_edge
            last_write = self.last_write
            readers = self.readers
            for byte in range(addr, addr + size):
                if byte in exempt:
                    continue
                prev = last_write.get(byte)
                if prev is not None:
                    add_edge(prev[0], site, OUTPUT, prev[1] != cur)
                reads = readers.get(byte)
                if reads:
                    for rsite, (first, last) in reads.items():
                        if first < cur:
                            add_edge(rsite, site, ANTI, True)
                        if last == cur:
                            add_edge(rsite, site, ANTI, False)
                    readers[byte] = {}
                last_write[byte] = (site, cur)
                # a write inside the loop also kills pending downward
                # exposure from earlier executions
                if byte in self.pending_down:
                    del self.pending_down[byte]
        else:
            ddg.add_site(site, False)
            add_edge = ddg.add_edge
            last_write = self.last_write
            readers = self.readers
            exposed = False
            for byte in range(addr, addr + size):
                if byte in exempt:
                    continue
                prev = last_write.get(byte)
                if prev is None:
                    exposed = True
                else:
                    add_edge(prev[0], site, FLOW, prev[1] != cur)
                entry = readers.setdefault(byte, {})
                span = entry.get(site)
                if span is None:
                    entry[site] = [cur, cur]
                else:
                    span[1] = cur
                # reading a value stored by a previous execution of the
                # loop marks that store downwards-exposed (Definition 3)
                down_site = self.pending_down.get(byte)
                if down_site is not None and prev is None:
                    self.profile.ddg.downward_exposed.add(down_site)
            if exposed:
                ddg.upward_exposed.add(site)

    def _post_access(self, addr: int, size: int, is_store: bool) -> None:
        pending = self.pending_down
        if not pending:
            return
        for byte in range(addr, addr + size):
            if is_store:
                pending.pop(byte, None)
            else:
                site = pending.get(byte)
                if site is not None:
                    self.profile.ddg.downward_exposed.add(site)


def find_control_decl(loop: ast.LoopStmt) -> Optional[ast.VarDecl]:
    """The induction variable of a canonical ``for`` loop, if any."""
    if not isinstance(loop, ast.For) or loop.step is None:
        return None
    step = loop.step
    target: Optional[ast.Expr] = None
    if isinstance(step, ast.Unary) and step.op in ("++", "--", "p++", "p--"):
        target = step.operand
    elif isinstance(step, ast.Assign):
        target = step.target
    if isinstance(target, ast.Ident) and isinstance(target.decl, ast.VarDecl):
        return target.decl
    return None


class _ProfileController:
    """Drives the candidate loop's iterations, bracketing each with
    iteration markers and attributing cycles to the loop."""

    def __init__(self, observer: _ProfileObserver, profile: LoopProfile):
        self.observer = observer
        self.profile = profile

    def __call__(self, machine: Machine, loop: ast.LoopStmt) -> None:
        profile = self.profile
        observer = self.observer
        profile.executions += 1
        start_cycles = machine.cost.cycles

        control = find_control_decl(loop)
        if isinstance(loop, ast.For) and loop.init is not None:
            machine.exec_stmt(loop.init)
        if control is not None:
            addr = machine.var_addr(control)
            observer.exempt = set(range(addr, addr + control.ctype.size))
        observer.begin_execution()
        k = profile.iterations
        try:
            if isinstance(loop, ast.DoWhile):
                while True:
                    observer.begin_iteration(k)
                    k += 1
                    self._run_body(machine, loop.body)
                    if not machine.eval(loop.cond):
                        break
            else:
                cond = loop.cond
                body = loop.body
                step = loop.step if isinstance(loop, ast.For) else None
                while True:
                    if cond is not None and not machine.eval(cond):
                        break
                    observer.begin_iteration(k)
                    k += 1
                    self._run_body(machine, body)
                    if step is not None:
                        machine.eval(step)
        except BreakSignal:
            pass
        finally:
            profile.iterations = k
            observer.end_execution()
            observer.exempt = set()
            profile.loop_cycles += machine.cost.cycles - start_cycles

    def _run_body(self, machine: Machine, body: ast.Stmt) -> None:
        stmts = body.stmts if isinstance(body, ast.Block) else [body]
        profile = self.profile
        try:
            for stmt in stmts:
                before = machine.cost.cycles
                machine.exec_stmt(stmt)
                profile.stmt_cycles[stmt.nid] = profile.stmt_cycles.get(
                    stmt.nid, 0.0
                ) + machine.cost.cycles - before
        except ContinueSignal:
            pass


def profile_loop(
    program: ast.Program,
    sema: SemaResult,
    loop: ast.LoopStmt,
    entry: str = "main",
    engine: Optional[str] = None,
) -> LoopProfile:
    """Run the program once and profile dependences of ``loop``.

    The given ``program`` must be the analyzed AST containing ``loop``.
    Returns a :class:`LoopProfile`; the program's observable behaviour
    (output) is unaffected by profiling.

    ``engine`` picks the interpreter tier; the bare bytecode variant is
    promoted to instrumented (the profiler is an observer).
    """
    machine = Machine(program, sema, engine=observed_engine(engine))
    profile = LoopProfile(loop)
    observer = _ProfileObserver(machine, profile)
    controller = _ProfileController(observer, profile)
    machine.observers.append(observer)
    machine.loop_controllers[loop.nid] = controller
    machine.run(entry)
    profile.total_cycles = machine.cost.cycles
    if profile.executions == 0:
        raise RuntimeError(
            "candidate loop never executed; check the loop label/selection"
        )
    return profile
