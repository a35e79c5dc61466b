"""Dynamic loop-level data dependence profiling.

The paper obtained its dependence graphs by off-line data dependence
profiling (their refs [38, 39]) followed by manual verification.  This
module does the same against the MiniC machine: it runs the program
once sequentially, drives the candidate loop iteration-by-iteration
through a loop controller, and observes every memory access.  The
*results* are byte-exact — benchmarks recast buffers between element
sizes (256.bzip2's ``zptr``), where word-level tracking would miss
partial overlaps — but the *bookkeeping* is per cell of a
:class:`~repro.interp.shadow.Shadow`: the ``(addr, size)`` range an
access used is one entry, every byte of it being in one state, so the
common aligned access costs one lookup, one edge and one reader-span
update however wide it is.  A cell is cut, both pieces inheriting its
state, only when an access of another shape overlaps it: a recast, a
``memset`` over elements, a freed block reused under another layout,
or a control variable's bytes inside a wider access.  The byte-per-byte
tracker this replaced lives on as the test oracle
(``tests/byte_oracle.py``); the two agree field for field on every
kernel and on random access streams.

Outputs per candidate loop:

* the :class:`~repro.analysis.ddg.DDG` with flow/anti/output edges
  split into loop-carried vs loop-independent (Definition 1),
  upwards-exposed loads and downwards-exposed stores (Definitions 2-3);
* per-site dynamic access counts (the weights behind Figure 8);
* the set of *objects* (allocation sites) each access site touched —
  dynamic alias ground truth used to validate the static points-to
  analysis and by the runtime-privatization baseline.

On the native tier the same observer runs in C, inside the program's
instrumented unit (:func:`_native_profile`, ``interp/native/tracker.py``):
the paper's profilers, too, watched compiled binaries.

Loop-control variable accesses (the ``i`` of a canonical ``for``) are
exempted: the parallel scheduler rebinds the induction variable per
chunk, exactly as OpenMP-style codegen privatizes control variables, so
their carried dependences are not real obstacles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..diagnostics import DiagnosticSink
from ..frontend import ast
from ..frontend.sema import SemaResult
from ..interp.costs import COSTS
from ..interp.machine import (
    BreakSignal, ContinueSignal, Machine, observed_engine, resolve_engine,
)
from ..interp.shadow import SIZE, Shadow
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
        #: the rest of the run's record: the profiled run is a plain
        #: sequential run of the program (same output, exit code, cycles
        #: and peak), so a job's sequential baseline is read off it
        self.output: List[str] = []
        self.exit_code: Optional[int] = None
        self.peak = 0

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


#: profiler cell payload (slot 0 is the shadow's SIZE): the last in-loop
#: store to the cell as ``WSITE`` in iteration ``WITER`` — ``WITER`` is
#: None once that store belongs to an earlier execution of the loop, which
#: is exactly "pending downward exposure" — the loop execution the cell
#: was last touched in, and the readers since the store as ``site ->
#: [first_iter, last_iter]`` (None when there are none)
WSITE, WITER, EXEC, READERS = 1, 2, 3, 4


def _clone_cell(cell: list) -> list:
    piece = list(cell)
    readers = piece[READERS]
    if readers:
        piece[READERS] = {s: list(span) for s, span in readers.items()}
    return piece


class _ProfileObserver:
    """Byte-exact dependence tracker over a cell-granular shadow.

    Maintains, per cell of :class:`~repro.interp.shadow.Shadow`: the
    last in-loop writer ``(site, iteration)`` and the readers since
    that write ``site -> [first_iter, last_iter]``.  Dependence edges
    come from the classic last-writer construction, which realizes
    Definition 1 including its covered-write refinement of loop-carried
    flow dependences.

    Cells outlive a loop execution; their in-loop state does not.  Each
    cell is stamped with the execution that last touched it and rolls
    over lazily on its first touch in a later one: the readers go, and
    the last writer stays as the store whose value later code may still
    read (Definition 3) until any store, in the loop or after it,
    overwrites the cell.
    """

    def __init__(self, machine: Machine, profile: LoopProfile):
        self.machine = machine
        self.profile = profile
        self.in_loop = False
        self.iteration = 0
        self.execution = 0
        #: bytes of the loop-control variable while the loop runs
        self.exempt = range(0)
        self.shadow = Shadow((None, None, 0, None), _clone_cell)
        #: site -> the object it touched last, already on the books (by
        #: key, not by allocation record: the allocator recycles freed
        #: records under a new tag)
        self._site_object: Dict[int, ObjectKey] = {}

    # -- execution boundaries ---------------------------------------------
    def begin_execution(self) -> None:
        self.in_loop = True
        self.execution += 1

    def end_execution(self) -> None:
        self.in_loop = False

    def begin_iteration(self, k: int) -> None:
        self.iteration = k

    # -- the hook -------------------------------------------------------------
    def on_access(self, site: int, addr: int, size: int, is_store: bool):
        shadow = self.shadow
        cell = shadow.cells.get(addr)
        if not self.in_loop:
            # only cells can hold a store some execution left behind
            if cell is not None and cell[SIZE] == size:
                group = (cell,)
            elif shadow.cells:
                group = shadow.resolve(addr, size, create=False)
            else:
                return
            if is_store:
                for cell in group:
                    cell[WSITE] = None
            else:
                down = self.profile.ddg.downward_exposed
                for cell in group:
                    if cell[WSITE] is not None:
                        down.add(cell[WSITE])
            return
        profile = self.profile
        ddg = profile.ddg
        cur = self.iteration
        record = self.machine.memory.find(addr)
        if record is not None and self._site_object.get(site) != (
                record.kind, record.tag):
            key: ObjectKey = (record.kind, record.tag)
            self._site_object[site] = key
            profile.site_objects.setdefault(site, set()).add(key)
            if key not in profile.object_labels:
                profile.object_labels[key] = record.label
                profile.object_sizes[key] = record.size
        ddg.add_site(site, is_store)
        exempt = self.exempt
        if cell is not None and cell[SIZE] == size and not (
                addr < exempt.stop and exempt.start < addr + size):
            group = (cell,)
        else:
            group = shadow.resolve(addr, size, exempt)
        execution = self.execution
        add_edge = ddg.add_edge
        if is_store:
            for cell in group:
                if cell[EXEC] != execution:
                    cell[EXEC] = execution
                    cell[READERS] = None
                elif cell[WITER] is not None:
                    add_edge(cell[WSITE], site, OUTPUT, cell[WITER] != cur)
                reads = cell[READERS]
                if reads:
                    for rsite, (first, last) in reads.items():
                        if first < cur:
                            add_edge(rsite, site, ANTI, True)
                        if last == cur:
                            add_edge(rsite, site, ANTI, False)
                    cell[READERS] = None
                cell[WSITE] = site
                cell[WITER] = cur
            return
        exposed = False
        for cell in group:
            if cell[EXEC] != execution:
                cell[EXEC] = execution
                cell[READERS] = None
                cell[WITER] = None
            if cell[WITER] is not None:
                add_edge(cell[WSITE], site, FLOW, cell[WITER] != cur)
            else:
                exposed = True
                # reading a value stored by a previous execution of the
                # loop marks that store downwards-exposed (Definition 3)
                if cell[WSITE] is not None:
                    ddg.downward_exposed.add(cell[WSITE])
            reads = cell[READERS]
            if reads is None:
                cell[READERS] = {site: [cur, cur]}
            else:
                span = reads.get(site)
                if span is None:
                    reads[site] = [cur, cur]
                else:
                    span[1] = cur
        if exposed:
            ddg.upward_exposed.add(site)


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
    iteration markers and attributing cycles to the loop.

    Each condition test is charged as a plain run charges it, so the
    run's cycles are a plain run's; ``loop_cycles`` leaves those charges
    out (the start mark moves forward by each), as the parallel drivers
    of :mod:`repro.runtime.plan`, which never make them, do."""

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
            observer.exempt = range(addr, addr + control.ctype.size)
        observer.begin_execution()
        k = profile.iterations
        cost = machine.cost
        alu = COSTS["alu"]
        try:
            if isinstance(loop, ast.DoWhile):
                while True:
                    observer.begin_iteration(k)
                    k += 1
                    self._run_body(machine, loop.body)
                    cost.cycles += alu
                    start_cycles += alu
                    if not machine.eval(loop.cond):
                        break
            else:
                cond = loop.cond
                body = loop.body
                step = loop.step if isinstance(loop, ast.For) else None
                while True:
                    if cond is not None:
                        cost.cycles += alu
                        start_cycles += alu
                        if not machine.eval(cond):
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
            observer.exempt = range(0)
            profile.loop_cycles += machine.cost.cycles - start_cycles

    def _run_body(self, machine: Machine, body: ast.Stmt) -> None:
        stmts = body.stmts if isinstance(body, ast.Block) else [body]
        try:
            for stmt in stmts:
                machine.exec_stmt(stmt)
        except ContinueSignal:
            pass


def profile_loop(
    program: ast.Program,
    sema: SemaResult,
    loop: ast.LoopStmt,
    entry: str = "main",
    engine: Optional[str] = None,
    sink: Optional[DiagnosticSink] = None,
) -> LoopProfile:
    """Run the program once and profile dependences of ``loop``.

    The given ``program`` must be the analyzed AST containing ``loop``.
    Returns a :class:`LoopProfile`.  Profiling changes nothing the
    program does: the profile also records the run — output, exit code,
    cycles, peak — as a plain sequential run would give them.

    ``engine`` picks the interpreter tier.  ``native`` runs the
    program's instrumented unit with a C dependence tracker attached
    (:func:`_native_profile`); where it cannot, the profile runs on the
    bytecode closures and ``sink`` gets the reason.
    """
    if resolve_engine(engine) == "native":
        profile = _native_profile(program, sema, loop, entry,
                                  sink if sink is not None
                                  else DiagnosticSink())
        if profile is not None:
            return profile
    machine = Machine(program, sema, engine=observed_engine(engine))
    profile = LoopProfile(loop)
    observer = _ProfileObserver(machine, profile)
    controller = _ProfileController(observer, profile)
    machine.observers.append(observer)
    machine.loop_controllers[loop.nid] = controller
    return _finished(profile, machine, machine.run(entry))


def _finished(profile: LoopProfile, machine: Machine,
              exit_code: int) -> LoopProfile:
    profile.total_cycles = machine.cost.cycles
    profile.output = list(machine.output)
    profile.exit_code = exit_code
    profile.peak = machine.memory.peak_footprint()
    if profile.executions == 0:
        raise RuntimeError(
            "candidate loop never executed; check the loop label/selection"
        )
    return profile


def _native_profile(program, sema, loop: ast.LoopStmt, entry: str,
                    sink: DiagnosticSink) -> Optional[LoopProfile]:
    """The profile of ``loop`` from one run of the program's
    instrumented unit (no controller: the unit's loop hooks drive the
    tracker the way :class:`_ProfileController` drives the observer,
    and charge what it charges).  None, with a diagnostic, when there is
    no C compiler or the unit leaves any of the program on the
    closures; the caller then profiles there."""
    from ..interp.native.backend import (
        native_backend_available, native_context_for,
    )
    from ..interp.native.runtime import NativeMachine
    from ..interp.native.tracker import Tracker
    ok, reason = native_backend_available()
    if not ok:
        sink.warning("NL-UNAVAILABLE",
                     f"native backend unavailable ({reason}); the "
                     f"profile runs on the bytecode closures",
                     phase="profile", loop=loop.label)
        return None
    tracked = frozenset((loop.nid,))
    context = native_context_for(program, sema, frozenset(), tracked)
    # (chunk drivers, which a context widened for a controller may hold,
    # never run in a sequential run)
    refused = {where: code for where, code in context.lowering.nl.items()
               if not where.startswith("chunk:")}
    if refused:
        where = min(refused)
        sink.note(refused[where],
                  f"the instrumented unit leaves {where} on the closures "
                  f"({refused[where]}); the profile runs on the bytecode "
                  f"closures", phase="profile", loop=loop.label)
        return None
    machine = NativeMachine(program, sema, controlled=frozenset(),
                            tracked=tracked)
    profile = LoopProfile(loop)
    tracker = Tracker(context.lib.path, loop.nid, context.lowering.labels)
    try:
        machine.attach_tracker(tracker)
        exit_code = machine.run(entry)
        tracker.fill(profile)
    finally:
        tracker.close()
    return _finished(profile, machine, exit_code)
