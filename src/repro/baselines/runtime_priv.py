"""SpiceC-style runtime privatization baseline (paper §4.2.1, [12]).

Instead of transforming the program, this baseline keeps the *original*
code and privatizes at run time: every thread-private memory access
(identified exactly as in §3.2, so the comparison isolates the
*mechanism*) is routed through a runtime access-control layer that

* locates the accessed structure (modeled after SpiceC's safe variant
  of the *heap prefix* lookup, since a pointer may target any interior
  byte of a structure, not just its start);
* on a thread's first touch of a structure, allocates a thread-local
  copy and copies the shared contents in;
* redirects the access into the thread-local copy;
* at loop exit, commits thread-local changes back to the shared space
  and releases the copies.

Every monitored access pays a runtime-call + lookup cost
(:data:`MONITOR_COST`); copy-in and commit pay per-byte costs.  This is
the overhead structure the paper measures in Figures 10/13/14.

Implementation: the access-control layer is a *redirector* installed on
the MiniC machine — the loads and stores really land in the per-thread
copies, so the baseline is executable and race-checked, not merely a
cost annotation.

Scheduling is *not* this module's: a baseline loop is a
:class:`~repro.runtime.plan.LoopPlan` run by the expansion runtime's own
controller, as the paper runs every configuration through one GOMP — so
Figures 10-13 differ by the privatization mechanism and nothing else.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..frontend import ast
from ..interp import memory as mem
from ..interp.machine import Machine, observed_engine
from ..interp.trace import RaceChecker
from ..analysis.privatization import PrivatizationResult
from ..analysis.profiler import LoopProfile
from ..runtime.parallel import loop_controller
from ..runtime.plan import LoopPlan, RaceError, RunContext
from ..runtime.stats import ParallelOutcome
from ..transform.pipeline import DOACROSS, parse_loop_kind

#: cycles per monitored access: runtime call + heap-prefix/table lookup
MONITOR_COST = 35.0
#: per-byte cost of copy-in and commit traffic
COPY_BYTE = 0.25
#: per-structure table management on copy creation / commit
TABLE_COST = 60.0


class AccessControl:
    """The runtime library: per-thread translation of private accesses.

    ``translate`` is installed as the machine's redirector while a
    privatized loop is running.
    """

    def __init__(self, machine: Machine, private_sites: Set[int],
                 checker=None):
        self.machine = machine
        self.private_sites = private_sites
        #: per-thread: shared Allocation -> local copy address
        self.tables: List[Dict[mem.Allocation, int]] = []
        self.active = False
        self.copies_created = 0
        #: race checker to exempt copy storage from (thread-local
        #: copies are single-owner by construction; their recycling
        #: through the allocator is runtime-library bookkeeping, not a
        #: program race)
        self.checker = checker
        machine.free_hooks.append(self._on_free)

    def begin_loop(self, nthreads: int) -> None:
        self.tables = [dict() for _ in range(nthreads)]
        self.active = True
        self.machine.redirector = self.translate

    def translate(self, site: int, addr: int, size: int,
                  is_store: bool) -> int:
        if not self.active or site not in self.private_sites:
            return addr
        machine = self.machine
        machine.cost.cycles += MONITOR_COST
        record = machine.memory.find(addr)
        if record is None or not record.live:
            return addr
        table = self.tables[machine.tid]
        copy_addr = table.get(record)
        if copy_addr is None:
            copy_addr = self._copy_in(record, table)
        return copy_addr + (addr - record.addr)

    def _copy_in(self, record: mem.Allocation,
                 table: Dict[mem.Allocation, int]) -> int:
        machine = self.machine
        copy_addr = machine.memory.alloc(
            record.size, mem.HEAP, label=f"priv-copy:{record.label}",
            tag=record.tag,
        )
        payload = machine.memory.data[record.addr:record.addr + record.size]
        machine.memory.data[copy_addr:copy_addr + record.size] = payload
        machine.cost.cycles += TABLE_COST + record.size * COPY_BYTE
        table[record] = copy_addr
        self.copies_created += 1
        if self.checker is not None:
            self.checker.exempt |= set(
                range(copy_addr, copy_addr + record.size)
            )
        return copy_addr

    def commit_and_release(self) -> None:
        """Loop exit: commit thread-local changes to the shared space
        (thread order; private data is dead-after-loop by Definition 5,
        but SpiceC cannot know that and pays the traffic) and free the
        copies."""
        machine = self.machine
        for table in self.tables:
            for record, copy_addr in table.items():
                if record.live:
                    payload = machine.memory.data[
                        copy_addr:copy_addr + record.size
                    ]
                    machine.memory.data[
                        record.addr:record.addr + record.size
                    ] = payload
                machine.cost.cycles += TABLE_COST + record.size * COPY_BYTE
                machine.memory.free(copy_addr)
            table.clear()
        self.active = False
        self.machine.redirector = None

    def _on_free(self, addr: int) -> None:
        """free() of a shared structure invalidates thread-local copies
        (and frees them), so later reuse of the address starts clean."""
        if not self.active:
            return
        record = self.machine.memory.find(addr)
        if record is None:
            return
        for table in self.tables:
            copy_addr = table.pop(record, None)
            if copy_addr is not None:
                self.machine.memory.free(copy_addr)


def _serial_stmts_for(
    loop: ast.LoopStmt, profile: LoopProfile,
    private_sites: Set[int],
) -> Set[int]:
    """Top-level body statements with carried deps not removed by the
    given privatization (for sync placement)."""
    surviving: Set[int] = set()
    for edge in profile.ddg.edges:
        if not edge.carried:
            continue
        if edge.src in private_sites and edge.dst in private_sites:
            continue
        surviving.add(edge.src)
        surviving.add(edge.dst)
    body = loop.body
    stmts = body.stmts if isinstance(body, ast.Block) else [body]
    out: Set[int] = set()
    for stmt in stmts:
        nids = {n.nid for n in stmt.walk()}
        if nids & surviving:
            out.add(stmt.nid)
    return out


class BaselineRunner:
    """Runs the *original* program with runtime privatization of its
    plans' private sites (none at all: the sync-only baseline)."""

    def __init__(
        self,
        program: ast.Program,
        sema,
        plans: List[LoopPlan],
        nthreads: int,
        check_races: bool = True,
        engine: Optional[str] = None,
    ):
        self.nthreads = nthreads
        self.outcome = ParallelOutcome(nthreads)
        # the baseline needs observers + the access-control redirector
        self.machine = Machine(program, sema,
                               engine=observed_engine(engine))
        self.machine.nthreads = nthreads
        self.checker = RaceChecker() if check_races else None
        if self.checker is not None:
            self.machine.observers.append(self.checker)
        all_private: Set[int] = set()
        for plan in plans:
            all_private |= plan.private_sites
        self.access_control = AccessControl(self.machine, all_private,
                                            self.checker)
        # the defaults: strict, untraced, unwatched, chunk 1
        ctx = RunContext(nthreads, self.outcome, checker=self.checker)
        for plan in plans:
            self.machine.loop_controllers[plan.loop.nid] = \
                _BaselineController(ctx, plan, self.access_control)

    def run(self, entry: str = "main",
            raise_on_race: bool = True) -> ParallelOutcome:
        outcome = self.outcome
        outcome.exit_code = self.machine.run(entry)
        outcome.output = list(self.machine.output)
        outcome.total_cycles = self.machine.cost.cycles
        outcome.peak_memory = self.machine.memory.peak_footprint()
        if outcome.races and raise_on_race:
            raise RaceError(
                f"runtime privatization left {len(outcome.races)} "
                "cross-thread conflicts",
                data={"races": outcome.races[:5]},
            )
        return outcome


class _BaselineController:
    """Executes a candidate loop under the baseline: the same scheduler
    as the expansion runtime (static chunks for DOALL, dynamic chunk=1
    with pipelined serial sections for DOACROSS), with privatization
    performed around it by the access-control layer at run time."""

    def __init__(self, ctx: RunContext, plan: LoopPlan,
                 access_control: AccessControl):
        self.access_control = access_control
        self.schedule = loop_controller(ctx, plan)

    def __call__(self, machine: Machine, loop: ast.LoopStmt) -> None:
        # the access-control epoch counts as an execution beside the
        # scheduler's own (every recorded baseline trajectory has both)
        self.schedule.execution.executions += 1
        self.access_control.begin_loop(self.schedule.ctx.nthreads)
        try:
            self.schedule(machine, loop)
        finally:
            # commit runs on the main clock, as a serial epilogue
            self.access_control.commit_and_release()


def run_runtime_privatization(
    program: ast.Program,
    sema,
    loop_labels: List[str],
    profiles: Dict[str, LoopProfile],
    privs: Dict[str, PrivatizationResult],
    nthreads: int,
    entry: str = "main",
    check_races: bool = True,
    raise_on_race: bool = True,
    engine: Optional[str] = None,
) -> ParallelOutcome:
    """Run the original program under SpiceC-style runtime privatization."""
    plans = []
    for label in loop_labels:
        loop = ast.find_loop(program, label)
        priv = privs[label]
        plans.append(LoopPlan(
            loop, parse_loop_kind(loop),
            _serial_stmts_for(loop, profiles[label], priv.private_sites),
            priv.private_sites,
        ))
    runner = BaselineRunner(
        program, sema, plans, nthreads, check_races=check_races,
        engine=engine,
    )
    return runner.run(entry, raise_on_race=raise_on_race)


def run_sync_only(
    program: ast.Program,
    sema,
    loop_labels: List[str],
    profiles: Dict[str, LoopProfile],
    nthreads: int,
    entry: str = "main",
    engine: Optional[str] = None,
) -> ParallelOutcome:
    """The no-privatization baseline (paper §4.3): every statement with
    *any* loop-carried dependence — including the ones privatization
    would remove — must be synchronized, serializing most of the loop."""
    plans = []
    for label in loop_labels:
        loop = ast.find_loop(program, label)
        # no privatization: nothing is private, everything carried syncs
        serial = _serial_stmts_for(loop, profiles[label], set())
        plans.append(LoopPlan(loop, DOACROSS, serial))
    runner = BaselineRunner(
        program, sema, plans, nthreads, check_races=False, engine=engine,
    )
    return runner.run(entry, raise_on_race=False)
