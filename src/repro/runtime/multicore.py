"""True multi-core execution backend over OS shared memory.

The in-process executor (:mod:`repro.runtime.parallel`) runs a plan's
chunks one after another on virtual threads; :class:`ProcessExecutor`
runs them *at the same time* on real worker processes, with the same
iteration drivers.  The controller holding it still owns loop entry,
settle and the DOACROSS clock (:mod:`repro.runtime.plan`), which this
path *replays* from the segments its workers stream back.  The
entire expanded heap
lives in one ``multiprocessing.shared_memory`` segment, so a
redirected access from any worker hits the same bytes the parent (and
every other worker) sees — exactly the property the paper's expansion
transform establishes: after expansion, per-thread copies are disjoint
spans of one shared structure, so threads need no further isolation.

Segment layout (addresses are plain ints into one flat mapping)::

    0                parent_limit   sync_base      arena 0     arena W-1
    |  parent region |  sync slots  |  worker 0  | ... |  worker W-1  |
    |  globals+heap  |  8B counters |  stack     |     |  stack       |

* **parent region** — the program's ordinary address space.  The
  parent machine allocates globals, rodata and heap here; bonded
  layout makes this trivial: copy 0 *is* the shared copy, so worker
  reads/writes of expanded structures land in this region unchanged.
* **sync slots** — one 8-byte little-endian counter per serialized
  statement origin (DOACROSS post/wait).  Slot value ``k`` means
  iterations ``0..k-1`` have left that serialized section.
* **worker arenas** — fixed-size private spans, one per worker, for
  call-stack allocations made *inside* a chunk (locals of callees,
  VLA copies).  Reset between tasks; never aliased by the parent.

Workers are forked lazily on first dispatch and outlive programs: a
session is a segment plus its workers, and any idle session serves any
program.  A task message carries only scalars — the program's key
``(fingerprint, engine, controlled)``, loop label, tid, chunk bounds,
and nid→address maps for the frame in scope.  The first task of a
program a worker has not seen also carries a *load entry*: the pickled
``(program, sema, lowering)`` (one object graph, so nids, sema links
and the native lowering's node references survive), the engine, the
controlled-loop set and the path of the parent's compiled ``.so`` (or
the ``NL-*`` reason the parent has none).  The worker builds the
program's machine once and keeps it in a small LRU
(:data:`WORKER_PROGRAMS` entries) which the parent mirrors per worker,
so it knows when to attach one.  A worker adopts its parent's lowering
and library and never lowers, probes the toolchain or compiles: a
library it cannot bind is a structured ``RT-WORKER-CC`` task error.

Process-capability is audited per loop (``MC-*`` reason codes below);
loops that cannot run safely on workers — e.g. they allocate heap, so
address assignment would race — run on the controller's in-process
executor on the same shared buffer, which is bit-identical by
construction.

Memory model note: token posts rely on x86-TSO store ordering plus
CPython's per-process GIL — all data stores of a serialized section
precede the counter store in program order, and an 8-byte aligned
store is not torn.  See DESIGN.md §13.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import random
import signal
import struct
import threading
import time
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from ..frontend import ast
from ..frontend.ctypes import PointerType
from ..frontend.region import loop_region
from ..interp import memory as mem
from ..interp.machine import BreakSignal, CostSink, Frame, Machine
from ..analysis.cfg import build_loop_body_cfg
from ..analysis.dataflow import UpwardExposure, solve
from ..analysis.profiler import find_control_decl
from ..obs import NULL_TRACER
from ..transform.pipeline import DOALL
from ..transform.rewrite import origin_of
from . import sync
from .plan import (
    LoopBounds, LoopPlan, ParallelError, PipelineClock, RunContext, Segment,
    body_steps, doacross_iteration, doacross_owner, doall_iteration,
    loop_bounds, noncanonical,
)
from .stats import LoopExecution

# ---------------------------------------------------------------------------
# audit reason codes (why a loop fell back to the in-process executor)
# ---------------------------------------------------------------------------

MC_ALLOC = "MC-ALLOC"              # heap alloc/free inside the loop
MC_NONCANONICAL = "MC-NONCANONICAL"  # not a canonical bounded for loop
MC_BOUND = "MC-BOUND"              # DOACROSS bound not provably stable
MC_CONTROL = "MC-CONTROL"          # induction variable assigned in body
MC_WORKERS = "MC-WORKERS"          # DOACROSS needs workers >= nthreads
MC_BREAK = "MC-BREAK"              # DOACROSS loop may break early
MC_RETURN = "MC-RETURN"            # return escapes the loop body
MC_CHUNK = "MC-CHUNK"              # DOACROSS process path needs chunk==1
MC_STRLIT = "MC-STRLIT"            # un-interned string literal in loop
MC_INDIRECT = "MC-INDIRECT"        # indirect call — may reach any address-taken fn
MC_NESTED = "MC-NESTED"            # nested controlled loop in subtree
MC_INSTRUMENTED = "MC-INSTRUMENTED"  # fault injectors / watchdog active
MC_UNAVAILABLE = "MC-UNAVAILABLE"  # no fork / no shared memory on host
MC_DEGRADED = "MC-DEGRADED"        # pool lost earlier (worker crash)

# supervision event codes (not fallback reasons: emitted by the
# supervisor as it walks the recovery/degradation ladder)
MC_RESTART = "MC-RESTART"          # dead worker respawned (re-loads lazily)
MC_RETRY = "MC-RETRY"              # in-flight chunk/strip re-executed
MC_SHRINK = "MC-SHRINK"            # restart budget gone; pool shrank
MC_DEGRADE = "MC-DEGRADE"          # ladder bottom: simulated fallback
MC_TOKEN_REISSUE = "MC-TOKEN-REISSUE"  # dropped sync token repaired

_ALLOC_BUILTINS = frozenset(("malloc", "calloc", "realloc", "free"))

#: sync-slot codec: one 8-byte little-endian counter per serialized
#: statement origin
_SLOT = struct.Struct("<q")
_SLOT_BYTES = 8

#: segment sizing defaults (overridable via the ``mc`` options dict)
DEFAULT_SEGMENT_BYTES = 1 << 23    # parent region: globals + heap
DEFAULT_ARENA_BYTES = 1 << 21      # per-worker call-stack arena
DEFAULT_SYNC_SLOTS = 512
DEFAULT_WORKER_TIMEOUT = 120.0     # parent-side wait per task reply (s)
DEFAULT_SPIN_TIMEOUT = 30.0        # worker-side wait per sync token (s)
DEFAULT_HEARTBEAT_INTERVAL = 0.02  # worker beat period (s)
DEFAULT_HEARTBEAT_TIMEOUT = 5.0    # stalled-beat revocation threshold (s)
DEFAULT_MAX_RESTARTS = 3           # worker respawns per session
DEFAULT_RETRY_BUDGET = 2           # re-dispatches per task

#: heartbeat/lease region: four 8-byte words per worker, between the
#: sync slots and the arenas.  BEAT is bumped by a worker-side timer
#: thread; STATUS encodes ``(tid+1) << 3 | phase`` for the task the
#: worker is currently executing (the write fence: phase >= PHASE_BODY
#: means program-visible stores may have landed); ITER/DIRTY implement
#: the DOACROSS iteration lease (completed-local-iteration count, and a
#: dirty bit held across each iteration's serialized writes).
HB_BEAT, HB_STATUS, HB_ITER, HB_DIRTY = 0, 8, 16, 24
HB_BYTES = 4 * _SLOT_BYTES

PHASE_IDLE, PHASE_BOUND, PHASE_BODY, PHASE_DONE = 0, 1, 2, 3

#: pure-spin iterations before _spin_wait starts sleeping
SPIN_THRESHOLD = 200
_BACKOFF_START_S = 0.00005
_BACKOFF_MAX_S = 0.002

#: /dev/shm segment name prefix (leak regression tests grep for it)
SEGMENT_PREFIX = "repro-mc"

#: programs one worker keeps loaded, least recently used evicted first
WORKER_PROGRAMS = 8

#: static audit verdicts one session memoizes before it starts over
AUDIT_MEMO_ENTRIES = 256

#: task error of a worker that cannot bind its parent's library
RT_WORKER_CC = "RT-WORKER-CC"


class WorkerCrash(ParallelError):
    """A worker process died mid-task (signal, hard exit, timeout)."""

    default_code = "RT-WORKER-CRASH"


# ---------------------------------------------------------------------------
# availability probe
# ---------------------------------------------------------------------------

_AVAILABLE: Optional[Tuple[bool, str]] = None


def process_backend_available(recheck: bool = False) -> Tuple[bool, str]:
    """Whether this host can run the process backend: a ``fork`` start
    method (workers inherit the mapped segment) and a working POSIX
    shared-memory mount (``/dev/shm`` on Linux).  The
    probe result is cached; ``recheck=True`` re-probes."""
    global _AVAILABLE
    if _AVAILABLE is not None and not recheck:
        return _AVAILABLE
    if "fork" not in multiprocessing.get_all_start_methods():
        _AVAILABLE = (False, "no fork start method on this platform")
        return _AVAILABLE
    try:
        from multiprocessing import shared_memory
        probe = shared_memory.SharedMemory(create=True, size=16)
        probe.buf[0] = 1
        probe.close()
        probe.unlink()
    except Exception as exc:  # pragma: no cover - host-dependent
        _AVAILABLE = (False, f"shared memory unavailable: {exc}")
        return _AVAILABLE
    _AVAILABLE = (True, "")
    return _AVAILABLE


# ---------------------------------------------------------------------------
# per-loop process-capability audit
# ---------------------------------------------------------------------------

class LoopAudit:
    """Static process-capability verdict for one transformed loop."""

    def __init__(self, reasons: List[str], strlits: Set[int]):
        self.reasons = reasons
        #: StrLit nids the loop may evaluate; they must be interned
        #: (parent-side RODATA) before dispatch, else MC-STRLIT
        self.strlits = strlits

    @property
    def ok(self) -> bool:
        return not self.reasons


def _assigned_decls(nodes: List[ast.Node]) -> Set[int]:
    """nids of VarDecls written anywhere in the node set."""
    written: Set[int] = set()
    for node in nodes:
        if isinstance(node, ast.Assign) and isinstance(node.target,
                                                       ast.Ident):
            decl = node.target.decl
            if decl is not None:
                written.add(decl.nid)
        elif isinstance(node, ast.Unary) and node.op in (
                "++", "--", "p++", "p--"):
            operand = getattr(node, "operand", None)
            if isinstance(operand, ast.Ident) and operand.decl is not None:
                written.add(operand.decl.nid)
    return written


def _canonical_writers(loop: ast.LoopStmt) -> Set[int]:
    """ids of the nodes of a for loop's own init/step subtrees."""
    parts = (loop.init, loop.step) if isinstance(loop, ast.For) else ()
    return {id(n) for part in parts if part is not None
            for n in part.walk()}


def _has_toplevel_break(body: ast.Stmt) -> bool:
    """Whether a ``break`` in ``body`` targets the *enclosing* loop
    (breaks bound to loops nested inside ``body`` do not count)."""
    breaks = {id(n) for n in body.walk() if isinstance(n, ast.Break)}
    if not breaks:
        return False
    for node in body.walk():
        if isinstance(node, ast.LoopStmt):
            for inner in node.body.walk():
                if isinstance(inner, ast.Break):
                    breaks.discard(id(inner))
    return bool(breaks)


def audit_loop(loop: ast.LoopStmt, sema, kind_doall: bool,
               nthreads: int, workers: int, chunk: int,
               controlled_nids: Set[int]) -> LoopAudit:
    """Decide whether ``loop`` may execute on worker processes.

    The audit is conservative: any construct whose cross-process
    semantics differ from the simulated interleaving — heap allocation
    (the bump allocator's address assignment is parent state), nested
    controlled loops (their controllers live on the parent machine),
    unstable DOACROSS trip counts — routes the loop to the simulated
    controller instead.  Falling back is always correct: the simulated
    controller runs on the same shared buffer.
    """
    region = loop_region(loop, sema.functions)
    nodes = region.nodes
    reasons = [MC_INDIRECT] if region.indirect else []
    if any(isinstance(n, ast.Call) and n.callee_name in _ALLOC_BUILTINS
           for n in nodes):
        reasons.append(MC_ALLOC)
    strlits = {n.nid for n in nodes if isinstance(n, ast.StrLit)}
    for node in nodes:
        if node is not loop and isinstance(node, ast.LoopStmt) \
                and node.nid in controlled_nids:
            reasons.append(MC_NESTED)
            break
    if any(isinstance(n, ast.Return) for n in loop.body.walk()):
        # a return escaping the loop exits the enclosing function on
        # the simulated path; workers cannot replicate that
        reasons.append(MC_RETURN)

    # canonical as the scheduler defines it, with a *literal* stride:
    # workers get the step as a number
    if not isinstance(loop, ast.For) or noncanonical(loop) or (
            isinstance(loop.step, ast.Assign)
            and not isinstance(loop.step.value, ast.IntLit)):
        reasons.append(MC_NONCANONICAL)
        return LoopAudit(reasons, strlits)
    control = find_control_decl(loop)
    cond = loop.cond

    # the trip count is precomputed parent-side, so writes to the
    # induction variable inside the body would desynchronize chunks.
    # The loop's own init/step subtrees are the canonical writes —
    # exclude them before scanning for rogue assignments.
    canonical_writers = _canonical_writers(loop)
    written = _assigned_decls(
        [n for n in nodes if id(n) not in canonical_writers]
    )
    if control.nid in written:
        reasons.append(MC_CONTROL)

    if not kind_doall:
        if _has_toplevel_break(loop.body):
            # the simulated DOACROSS path honors an early break; a
            # pre-planned concurrent strip cannot
            reasons.append(MC_BREAK)
        # DOACROSS: the iteration->thread mapping and the final failing
        # condition evaluation are fixed at dispatch, so the bound must
        # be provably stable and every strip must run concurrently
        if chunk != 1:
            reasons.append(MC_CHUNK)
        if workers < nthreads:
            reasons.append(MC_WORKERS)
        bound = cond.right
        if isinstance(bound, ast.IntLit):
            pass
        elif isinstance(bound, ast.Ident) and bound.decl is not None:
            if bound.decl.nid in written:
                reasons.append(MC_BOUND)
        else:
            reasons.append(MC_BOUND)
    return LoopAudit(reasons, strlits)


# ---------------------------------------------------------------------------
# chunk retry-safety audit (may a DOALL chunk be re-executed whole?)
# ---------------------------------------------------------------------------

def _base_decl(expr: ast.Expr) -> Optional[ast.VarDecl]:
    """Root VarDecl of an access chain (``a[i].f`` -> decl of ``a``)."""
    while True:
        if isinstance(expr, ast.Ident):
            return expr.decl
        if isinstance(expr, (ast.Index, ast.Member)):
            expr = expr.base
        elif isinstance(expr, ast.Unary) and expr.op == "*":
            expr = expr.operand
        else:
            return None


def audit_retry_safety(loop: ast.LoopStmt, sema,
                       private_origins: Set[int]) -> List[str]:
    """Why re-executing a partially-run DOALL chunk of ``loop`` would
    NOT be sound (empty list == retry-safe).

    A chunk that died *past its write fence* may have landed some of
    its stores; re-running it from the start is sound iff every store
    it can repeat is insensitive to having already happened once:

    * accesses the transform privatized (``origin in private_origins``)
      are rewritten by every iteration by construction — that is why
      they were privatized — so repeating them is idempotent;
    * a non-private memory location that is *written but never read*
      inside the body is overwritten with the same value on the re-run
      (DOALL iterations are independent, so the value depends only on
      the induction variable and loop-invariant inputs);
    * a scalar is safe unless one iteration can read it before writing
      it (upward-exposed, per the region dataflow) *and* the body also
      writes it — the classic read-modify-write accumulator.

    Everything else — non-private read+written bases, writes through
    unresolvable or pointer-typed bases (unknown aliasing), callees
    that write non-local scalars — is conservatively unsafe.
    """
    reasons: List[str] = []
    region = loop_region(loop, sema.functions)
    nodes = region.nodes
    control = find_control_decl(loop) if isinstance(loop, ast.For) else None

    # -- memory accesses (Index / Member / deref), whole subtree ---------
    plain_targets: Set[int] = set()    # ids of '=' assign targets
    rw_targets: Set[int] = set()       # ids of compound / ++ / -- targets
    stmt_origin: Dict[int, int] = {}   # id(target) -> write stmt origin
    for node in nodes:
        if isinstance(node, ast.Assign):
            (plain_targets if node.op == "=" else rw_targets).add(
                id(node.target))
            stmt_origin[id(node.target)] = origin_of(node)
        elif isinstance(node, ast.Unary) and node.op in (
                "++", "--", "p++", "p--"):
            rw_targets.add(id(node.operand))
            stmt_origin[id(node.operand)] = origin_of(node)
    written: Set[int] = set()
    read: Set[int] = set()
    for node in nodes:
        if not (isinstance(node, (ast.Index, ast.Member))
                or (isinstance(node, ast.Unary) and node.op == "*")):
            continue
        # privatization is recorded on the *write statement's* origin
        # (the Assign / inc-dec node — same convention as the race
        # lint's private-copy check), not on the access expression
        if (origin_of(node) in private_origins
                or stmt_origin.get(id(node)) in private_origins):
            continue
        decl = _base_decl(node)
        is_write = id(node) in plain_targets or id(node) in rw_targets
        is_read = id(node) not in plain_targets
        if is_write:
            if decl is None:
                reasons.append("write through unresolvable base")
                continue
            if isinstance(decl.ctype, PointerType):
                reasons.append(
                    f"write through pointer {decl.name!r} (may alias)")
                continue
            written.add(decl.nid)
        if is_read and decl is not None:
            read.add(decl.nid)
        elif is_read and decl is None:
            # reads are idempotent whatever they alias
            pass
    for nid in sorted(written & read):
        reasons.append(f"structure both read and written (decl {nid})")

    # -- scalars: upward-exposed AND written in one iteration ------------
    try:
        exposed = set(solve(build_loop_body_cfg(loop),
                            UpwardExposure()).at_entry)
    except Exception:
        reasons.append("region dataflow unavailable")
        exposed = set()
    canonical_writers = _canonical_writers(loop)
    scalar_writes = _assigned_decls(
        [n for n in loop.body.walk() if id(n) not in canonical_writers]
    )
    if control is not None:
        scalar_writes.discard(control.nid)
    for nid in sorted(exposed & scalar_writes):
        reasons.append(f"scalar read-modify-write (decl {nid})")

    # -- callees that write scalars outside their own frame --------------
    for fn in region.callees:
        local = {p.nid for p in fn.params}
        local |= {n.nid for n in fn.body.walk()
                  if isinstance(n, ast.VarDecl)}
        escaped = _assigned_decls(list(fn.body.walk())) - local
        if escaped:
            reasons.append(f"callee {fn.name!r} writes non-local scalars")
    return reasons


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _decl_index(program: ast.Program, sema) -> Dict[int, ast.VarDecl]:
    """nid -> VarDecl for every declaration a task map may reference."""
    index: Dict[int, ast.VarDecl] = {}
    for decl in getattr(sema, "globals", ()) or ():
        index[decl.nid] = decl
    for fn in program.functions():
        for param in fn.params:
            index[param.nid] = param
        for node in fn.body.walk():
            if isinstance(node, ast.VarDecl):
                index[node.nid] = node
    tc = getattr(sema, "thread_context", None) or {}
    for decl in tc.values():
        if decl is not None:
            index[decl.nid] = decl
    return index


def _spin_wait(data, slot_addr: int, want: int, timeout_s: float,
               counters: Optional[dict] = None,
               unpack=_SLOT.unpack_from) -> None:
    """Wait until the counter at ``slot_addr`` reaches ``want``.

    Pure spinning is kept only for the first :data:`SPIN_THRESHOLD`
    checks (tokens usually arrive within a pipeline stage); past that
    the wait escalates through exponentially longer ``time.sleep``
    calls so a stalled producer costs scheduler wakeups, not a burnt
    core.  Each sleep is counted into ``counters["backoffs"]`` (the
    parent aggregates them as ``runtime.mc_spin_backoffs``)."""
    if unpack(data, slot_addr)[0] >= want:
        return
    spins = 0
    delay = _BACKOFF_START_S
    deadline = time.monotonic() + timeout_s
    while unpack(data, slot_addr)[0] < want:
        spins += 1
        if spins < SPIN_THRESHOLD:
            continue
        if counters is not None:
            counters["backoffs"] = counters.get("backoffs", 0) + 1
        time.sleep(delay)
        delay = min(delay * 2.0, _BACKOFF_MAX_S)
        if time.monotonic() > deadline:
            raise _SpinTimeout(slot_addr, want)


class _SpinTimeout(Exception):
    def __init__(self, slot_addr: int, want: int):
        super().__init__(f"sync slot @{slot_addr} never reached {want}")
        self.slot_addr = slot_addr
        self.want = want


class _WorkerHB:
    """Worker-side view of this worker's heartbeat/lease words.

    The beat word is bumped by a daemon timer thread; the task code
    writes STATUS (current tid + phase — the write fence), ITER and
    DIRTY (the DOACROSS iteration lease).  All words are 8-byte aligned
    single stores, so the parent never observes a torn value."""

    __slots__ = ("data", "base", "stall_until")

    def __init__(self, data, base: int):
        self.data = data
        self.base = base
        self.stall_until = 0.0

    def stalled(self) -> bool:
        return bool(self.stall_until) and (
            self.stall_until < 0 or time.monotonic() < self.stall_until)

    def stall(self, seconds: float) -> None:
        self.stall_until = (-1.0 if seconds < 0
                            else time.monotonic() + seconds)

    def status(self, tid: int, phase: int) -> None:
        _SLOT.pack_into(self.data, self.base + HB_STATUS,
                        ((tid + 1) << 3) | phase)

    def set_iter(self, count: int) -> None:
        _SLOT.pack_into(self.data, self.base + HB_ITER, count)

    def set_dirty(self, flag: int) -> None:
        _SLOT.pack_into(self.data, self.base + HB_DIRTY, flag)


def _apply_chaos(hb: _WorkerHB, chaos: dict) -> None:
    """Honor the parent-scheduled chaos directives that apply at task
    start: heartbeat stalls and an artificial hold (the hold keeps the
    task in flight long enough for the supervisor's staleness check to
    observe the stalled beat deterministically)."""
    stall = chaos.get("stall_heartbeat")
    if stall is not None:
        hb.stall(float(stall))
    hold = chaos.get("hold")
    if hold:
        time.sleep(float(hold))


def _chaos_hits(directive: dict, origin: int, k: int) -> bool:
    """Deterministic per-(origin, iteration) draw for token chaos."""
    ks = directive.get("ks")
    if ks is not None:
        return k in ks
    rate = float(directive.get("rate", 1.0))
    if rate >= 1.0:
        return True
    seed = int(directive.get("seed", 0))
    return random.Random(
        seed * 1000003 + origin * 8191 + k).random() < rate


def _post_token(data, slots: Dict[int, int], origin: int, k: int,
                chaos: dict, dropped: List[Tuple[int, int]]) -> None:
    """Post one sync token, subject to chaos: a dropped post is
    *recorded* in the iteration message instead of written (the parent
    re-issues it — the lease-recovery path under test); a delayed post
    sleeps first (wall-clock only; modeled cycles are unaffected)."""
    drop = chaos.get("drop_posts")
    if drop and _chaos_hits(drop, origin, k):
        dropped.append((origin, k))
        return
    delay = chaos.get("delay_posts")
    if delay and _chaos_hits(delay, origin, k):
        time.sleep(float(delay.get("seconds", 0.005)))
    _SLOT.pack_into(data, slots[origin], k + 1)


def _load_program(entry: dict, shm, arena_base: int,
                  arena_limit: int) -> tuple:
    """A worker's first sight of a program: unpickle it, adopt the
    parent's lowering and library (or its ``NL-*`` reason for having
    none) — nothing here lowers, probes or compiles — and build the
    machine its tasks reuse: ``(program, sema, machine, decls, loops)``."""
    program, sema, lowering = pickle.loads(entry["blob"])
    engine, controlled = entry["engine"], entry["controlled"]
    if engine == "native":
        from ..interp.native import backend
        try:
            backend.adopt(program, lowering, entry["lib"], entry["nl"])
        except Exception as exc:
            raise ParallelError(
                f"cannot bind the parent's library {entry['lib']}: {exc}",
                code=RT_WORKER_CC) from None
    memory = mem.Memory(check_bounds=False, buffer=shm.buf,
                        base=arena_base, limit=arena_limit)
    machine = Machine(program, sema, check_bounds=False, memory=memory,
                      engine=engine, controlled=controlled)
    return program, sema, machine, _decl_index(program, sema), {}


def _worker_main(conn, wid: int, shm, arena_base: int, arena_limit: int,
                 hb_base: int, hb_interval: float) -> None:
    """Worker process entry point.  Serves ``(kind, spec, load)`` task
    messages until an ``("exit",)`` sentinel or pipe EOF, then
    hard-exits — ``os._exit`` skips the multiprocessing atexit
    machinery, so the fork-inherited segment registration is torn down
    exactly once, by the parent."""
    status = 0
    try:
        #: program key -> (program, sema, machine, decls, loops), in
        #: least-recently-used order — the order the parent mirrors
        programs: "OrderedDict[tuple, tuple]" = OrderedDict()
        hb = _WorkerHB(shm.buf, hb_base)
        stop = threading.Event()

        def _beat() -> None:
            n = 0
            while not stop.wait(hb_interval):
                if hb.stalled():
                    continue
                n += 1
                _SLOT.pack_into(hb.data, hb.base + HB_BEAT, n)

        threading.Thread(target=_beat, daemon=True,
                         name="repro-mc-heartbeat").start()
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg[0] == "exit":
                break
            kind, spec, load = msg
            crash = os.environ.get("REPRO_MC_CRASH")
            if crash is not None and crash == str(spec.get("tid")):
                os._exit(42)
            key = spec["program"]
            try:
                if load is not None:
                    programs[key] = _load_program(load, shm, arena_base,
                                                  arena_limit)
                    if len(programs) > WORKER_PROGRAMS:
                        programs.popitem(last=False)
                programs.move_to_end(key)
                program, _sema, machine, decls, loops = programs[key]
                loop = loops.get(spec["label"])
                if loop is None:
                    loop = loops[spec["label"]] = ast.find_loop(
                        program, spec["label"])
                if kind == "doall":
                    reply = _task_doall(machine, decls, loop, arena_base,
                                        spec, hb)
                else:
                    reply = _task_doacross(machine, decls, loop,
                                           arena_base, spec, conn, hb)
            except _SpinTimeout as exc:
                reply = ("err", spec.get("tid"), "RT-SYNC-TIMEOUT",
                         str(exc))
            except ParallelError as exc:     # RT-BREAK, RT-WORKER-CC
                reply = ("err", spec.get("tid"), exc.diagnostic.code,
                         str(exc))
            except BaseException as exc:
                reply = ("err", spec.get("tid"), type(exc).__name__,
                         str(exc)[:500])
            conn.send(reply)
        stop.set()
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    except BaseException:
        status = 70
    finally:
        try:
            conn.close()
        except Exception:
            pass
    os._exit(status)


def _bind_task(machine: Machine, decls: Dict[int, ast.VarDecl],
               arena_base: int, spec: dict) -> Tuple[int, str]:
    """Reset the worker for one task: fresh arena, fresh cost sink,
    frame/global bindings rebuilt from the nid->address maps, and the
    induction variable rebound to an arena-private slot.  Returns the
    private control address and its codec format."""
    memory = machine.memory
    memory.reset_region(arena_base)
    machine.output = []
    machine.cost = CostSink()
    machine._steps = 0
    machine.tid = spec["tid"]
    machine.nthreads = spec["nthreads"]
    machine._strlit_cache = dict(spec["strlits"])
    machine._globals_ready = True
    machine.globals_frame.vars = {
        decls[nid]: addr for nid, addr in spec["globals"]
    }
    frame = Frame(None)
    frame.vars = {decls[nid]: addr for nid, addr in spec["frame"]}
    machine.frames = [frame]
    control = decls[spec["control_nid"]]
    caddr = memory.alloc(control.ctype.size, mem.STACK, label=control.name)
    frame.vars[control] = caddr
    return caddr, control.ctype.fmt


def _cost4(sink: CostSink, since=(0.0, 0, 0, 0)) -> tuple:
    """(cycles, instructions, loads, stores) since an earlier reading."""
    return (sink.cycles - since[0], sink.instructions - since[1],
            sink.loads - since[2], sink.stores - since[3])


def _task_doall(machine, decls, loop, arena_base, spec, hb):
    """One DOALL chunk: iterations [chunk_lo, chunk_hi) with the
    private induction variable pre-seeded (uncosted), each run by the
    same :func:`~repro.runtime.plan.doall_iteration` the in-process
    executor uses.

    STATUS is the write fence: it stays at PHASE_BOUND until just
    before the first body statement can store into program memory, so
    a death observed at PHASE_BOUND is always retryable (binding only
    touches the worker-private arena)."""
    tid = spec["tid"]
    hb.status(tid, PHASE_BOUND)
    caddr, fmt = _bind_task(machine, decls, arena_base, spec)
    memory = machine.memory
    chaos = spec.get("chaos") or {}
    if chaos:
        _apply_chaos(hb, chaos)
    kill_after = chaos.get("kill_after_iter")
    lo, step = spec["lo"], spec["step"]
    sink = machine.cost
    iters = 0
    meta: dict = {}
    native = None
    if machine.engine == "native":
        # per-iteration chaos kills need the Python loop; everything
        # else dispatches the whole chunk as one compiled call
        if kill_after is None:
            native = machine.native_chunk(loop.nid)
        meta["native"] = native is not None
        if native is None:
            low = machine._low
            meta["nl"] = ("NL-CHAOS-ITER" if kill_after is not None
                          else machine.native_diag
                          or (low and low.nl.get(f"chunk:{loop.nid}"))
                          or "NL-CHUNK-GATE")
    t_start = time.perf_counter_ns()
    memory.write_scalar(caddr, fmt, lo + spec["chunk_lo"] * step)
    hb.status(tid, PHASE_BODY)
    if native is not None:
        try:
            iters = machine.run_native_chunk(
                loop.nid, spec["chunk_lo"], spec["chunk_hi"])
        except BreakSignal:
            return ("err", tid, "RT-BREAK",
                    f"break inside DOALL loop {spec['label']!r}")
    else:
        for _k in range(spec["chunk_lo"], spec["chunk_hi"]):
            doall_iteration(machine, loop)
            if kill_after is not None and iters == kill_after:
                os.kill(os.getpid(), signal.SIGKILL)
            iters += 1
    t_end = time.perf_counter_ns()
    hb.status(tid, PHASE_DONE)
    return ("ok", tid, machine.output, _cost4(sink), iters,
            (t_start, t_end), meta)


def _task_doacross(machine, decls, loop, arena_base, spec, conn, hb):
    """One DOACROSS strip: iterations tid, tid+N, ... of a chunk-1
    dynamic schedule.  Serialized statements wait on / post to 8-byte
    counters in the segment's sync region.

    Unlike DOALL, the strip *streams*: each completed iteration is
    committed by one pipe write — ``("it", tid, k, segments, lines,
    cost_delta, dropped_posts)`` — before the lease words advance.
    Pipe buffers survive the writer's death, so the parent can drain a
    dead stage's committed iterations post-mortem and resume its
    replacement from the exact boundary (``spec["resume_from"]`` local
    iterations are skipped).  The DIRTY word brackets each iteration's
    execution; a death with DIRTY set and no matching committed message
    means serialized writes may be half-applied and the strip is not
    resumable."""
    tid = spec["tid"]
    hb.status(tid, PHASE_BOUND)
    caddr, fmt = _bind_task(machine, decls, arena_base, spec)
    memory = machine.memory
    chaos = spec.get("chaos") or {}
    if chaos:
        _apply_chaos(hb, chaos)
    kill_after = chaos.get("kill_after_iter")
    resume = int(spec.get("resume_from", 0))
    lo, step = spec["lo"], spec["step"]
    total, nthreads = spec["total"], spec["nthreads"]
    slots: Dict[int, int] = dict(spec["slots"])
    timeout = spec["spin_timeout"]
    steps = body_steps(loop, set(slots))
    data = memory.data
    sink = machine.cost
    output = machine.output
    counters = {"backoffs": 0}
    local = resume

    def wait_token(origin: int) -> None:
        _spin_wait(data, slots[origin], k, timeout, counters)

    def post_token(origin: int) -> None:
        posted.add(origin)
        _post_token(data, slots, origin, k, chaos, dropped)

    t_start = time.perf_counter_ns()
    hb.set_iter(resume)
    hb.set_dirty(0)
    hb.status(tid, PHASE_BODY)
    for k in range(tid + resume * nthreads, total, nthreads):
        hb.set_dirty(1)
        c0 = _cost4(sink)
        memory.write_scalar(caddr, fmt, lo + k * step)
        if loop.cond is not None:
            machine.eval(loop.cond)
        segments: List[Segment] = []
        posted: Set[int] = set()
        dropped: List[Tuple[int, int]] = []
        n0 = len(output)
        broke = False
        try:
            segments = doacross_iteration(machine, steps, wait_token,
                                          post_token)
        except BreakSignal:
            broke = True
        # tokens for serialized statements this iteration skipped
        # (continue / break / short bodies): post them once the
        # iteration is over, in statement order, so later iterations
        # never deadlock waiting on work that will not happen
        for _stmt, origin, is_serial in steps:
            if is_serial and origin not in posted:
                _spin_wait(data, slots[origin], k, timeout, counters)
                _post_token(data, slots, origin, k, chaos, dropped)
        if broke:
            return ("err", tid, "RT-BREAK",
                    f"break inside DOACROSS loop {spec['label']!r}")
        if loop.step is not None:
            machine.eval(loop.step)
        # commit point: the iteration exists once this write lands
        conn.send(("it", tid, k, segments, output[n0:],
                   _cost4(sink, c0), dropped))
        # dirty clears *before* ITER advances: a death between the two
        # then reads dirty=0 (resume at drained count) instead of the
        # ambiguous dirty=1 ∧ drained==ITER that means mid-iteration
        hb.set_dirty(0)
        hb.set_iter(local + 1)
        if kill_after is not None and local == kill_after:
            os.kill(os.getpid(), signal.SIGKILL)
        local += 1
    c0 = _cost4(sink)
    if spec["final_cond_tid"] == tid and loop.cond is not None:
        # the failing condition evaluation is this thread's work, just
        # as in the simulated dynamic schedule
        memory.write_scalar(caddr, fmt, lo + total * step)
        machine.eval(loop.cond)
    t_end = time.perf_counter_ns()
    hb.status(tid, PHASE_DONE)
    return ("ok", tid, (t_start, t_end), _cost4(sink, c0), _cost4(sink),
            {"backoffs": counters["backoffs"], "resumed": resume})


# ---------------------------------------------------------------------------
# parent side: segment + pool session
# ---------------------------------------------------------------------------

#: sessions with a live (not yet unlinked) segment, for the teardown
#: guards below.  Weak: a collected session already closed via __del__.
_LIVE_SESSIONS: "weakref.WeakSet" = weakref.WeakSet()
_guards_installed = False


def _close_live_sessions() -> None:
    for session in list(_LIVE_SESSIONS):
        try:
            session.close()
        except Exception:
            pass


def _install_teardown_guards() -> None:
    """atexit + SIGTERM guard: an exception or a polite kill between
    segment create and close must not leak ``/dev/shm`` segments.
    Close is owner-pid gated, so the fork-inherited handler is a no-op
    in workers (they must never unlink the parent's segment)."""
    global _guards_installed
    if _guards_installed:
        return
    _guards_installed = True
    atexit.register(_close_live_sessions)
    try:
        previous = signal.getsignal(signal.SIGTERM)

        def _on_sigterm(signum, frame):
            _close_live_sessions()
            if callable(previous):
                previous(signum, frame)
            else:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.kill(os.getpid(), signal.SIGTERM)

        signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):
        # not the main thread (embedding host owns signals): the
        # atexit guard still covers orderly interpreter shutdown
        pass


class ProcessSession:
    """Owns the shared segment and the (lazily forked) worker pool a
    :class:`~repro.runtime.parallel.ParallelRunner` runs on.  It holds
    no program: each batch of tasks names its :class:`Shipment`, and a
    worker loads a program on first sight, so a pooled session serves
    any program.

    The pool is *supervised*: :meth:`run_tasks` hands dispatch to
    :class:`repro.runtime.supervisor.Supervisor`, which multiplexes
    replies, watches per-worker heartbeat words, respawns dead workers
    (``max_restarts`` per session), re-runs their in-flight work
    (``retry_budget`` re-dispatches per task) and walks the degradation
    ladder when budgets run out."""

    def __init__(self, nthreads: int, workers: Optional[int] = None,
                 options: Optional[dict] = None):
        from multiprocessing import shared_memory
        opts = dict(options or {})
        self.nthreads = nthreads
        self.workers = max(1, int(workers or nthreads))
        self.parent_limit = int(opts.get("segment_bytes",
                                         DEFAULT_SEGMENT_BYTES))
        self.arena_bytes = int(opts.get("arena_bytes",
                                        DEFAULT_ARENA_BYTES))
        self.sync_slots = int(opts.get("sync_slots", DEFAULT_SYNC_SLOTS))
        self.worker_timeout = float(opts.get("worker_timeout",
                                             DEFAULT_WORKER_TIMEOUT))
        self.spin_timeout = float(opts.get("spin_timeout",
                                           DEFAULT_SPIN_TIMEOUT))
        self.heartbeat_interval = float(opts.get(
            "heartbeat_interval", DEFAULT_HEARTBEAT_INTERVAL))
        self.heartbeat_timeout = float(opts.get(
            "heartbeat_timeout", DEFAULT_HEARTBEAT_TIMEOUT))
        self.max_restarts = int(opts.get("max_restarts",
                                         DEFAULT_MAX_RESTARTS))
        self.retry_budget = int(opts.get("retry_budget",
                                         DEFAULT_RETRY_BUDGET))
        self.sync_base = self.parent_limit
        self.hb_base = self.sync_base + self.sync_slots * _SLOT_BYTES
        self.arena_base = self.hb_base + self.workers * HB_BYTES
        total = self.arena_base + self.workers * self.arena_bytes
        self._owner_pid = os.getpid()
        name = (f"{SEGMENT_PREFIX}-{os.getpid()}-"
                f"{os.urandom(4).hex()}")
        try:
            self.shm = shared_memory.SharedMemory(name=name, create=True,
                                                  size=total)
        except FileExistsError:  # pragma: no cover - 1-in-2^32 collision
            self.shm = shared_memory.SharedMemory(create=True, size=total)
        try:
            #: the parent machine's memory, handed to ParallelRunner
            self.memory = mem.Memory(buffer=self.shm.buf,
                                     limit=self.parent_limit)
            self._ctx = multiprocessing.get_context("fork")
            self._procs: List = []
            self._conns: List = []
            #: wid -> keys of the programs that worker has loaded, in
            #: its own LRU order (the one dispatch site keeps it)
            self._loaded: Dict[int, "OrderedDict[tuple, None]"] = {}
            #: load entries attached so far (worker first sights)
            self.program_loads = 0
            self._origin_slots: Dict[int, int] = {}
            self.degraded = False
            self.degrade_reason = ""
            self.closed = False
            self.restarts_used = 0
            #: session-global dispatch counter (chaos schedules key on it)
            self.task_seq = 0
            #: process-level chaos injectors (ParallelRunner routes
            #: injectors with ``process_level = True`` here)
            self.chaos: List = []
            #: observability handles, attached by ParallelRunner
            self.tracer = NULL_TRACER
            self.sink = None
            #: lane -> wid of the worker that completed it (last run)
            self.lane_wids: List[int] = []
            #: (wid, name, t_start_ns, t_end_ns, meta) wall-clock samples
            #: collected from task replies, merged into the trace export
            self.worker_samples: List[Tuple[int, str, int, int, dict]] = []
            #: owning :class:`repro.service.SessionPool` (None when the
            #: session belongs to a single runner); a pooled session is
            #: released back instead of closed after each run
            self.pool = None
            #: True when the pool handed out a warm (previously used)
            #: session for the current request
            self.reused = False
            #: static audit verdicts, keyed by program fingerprint and
            #: loop (nids collide across programs); they depend on
            #: nothing :meth:`reset` touches, so they survive it
            self.audits: Dict[tuple, object] = {}
        except BaseException:
            try:
                self.shm.close()
            finally:
                self.shm.unlink()
            raise
        _LIVE_SESSIONS.add(self)
        _install_teardown_guards()

    # -- pool lifecycle ---------------------------------------------------
    @property
    def forked(self) -> bool:
        return bool(self._procs)

    def live_wids(self) -> List[int]:
        return [wid for wid, proc in enumerate(self._procs)
                if proc is not None]

    @property
    def live_workers(self) -> int:
        return len(self.live_wids())

    def hb_addr(self, wid: int) -> int:
        return self.hb_base + wid * HB_BYTES

    def hb_read(self, wid: int, offset: int) -> int:
        return _SLOT.unpack_from(self.memory.data,
                                 self.hb_addr(wid) + offset)[0]

    def _hb_zero(self, wid: int) -> None:
        base = self.hb_addr(wid)
        self.memory.data[base:base + HB_BYTES] = b"\0" * HB_BYTES

    def _spawn_worker(self, wid: int):
        """Fork one worker with no program loaded; it loads each one on
        first sight."""
        parent_conn, child_conn = self._ctx.Pipe()
        self._hb_zero(wid)
        self._loaded[wid] = OrderedDict()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, wid, self.shm,
                  self.arena_base + wid * self.arena_bytes,
                  self.arena_base + (wid + 1) * self.arena_bytes,
                  self.hb_addr(wid), self.heartbeat_interval),
            daemon=True,
            name=f"repro-mc-{wid}",
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def load_for(self, wid: int, shipment: "Shipment") -> Optional[dict]:
        """The load entry worker ``wid`` needs with its next task of
        ``shipment``'s program, or None when it has the program loaded.
        Replays the worker's LRU step for that task, so the two stay in
        step."""
        loaded = self._loaded[wid]
        if shipment.key in loaded:
            loaded.move_to_end(shipment.key)
            return None
        loaded[shipment.key] = None
        if len(loaded) > WORKER_PROGRAMS:
            loaded.popitem(last=False)
        self.program_loads += 1
        return shipment.entry()

    def ensure_pool(self) -> None:
        if self._procs or self.degraded or self.closed:
            return
        for wid in range(self.workers):
            proc, conn = self._spawn_worker(wid)
            self._procs.append(proc)
            self._conns.append(conn)

    def respawn_worker(self, wid: int) -> None:
        """Replace a dead worker in place; counts against
        ``max_restarts``.  The caller (supervisor) owns diagnostics."""
        self.restarts_used += 1
        proc, conn = self._spawn_worker(wid)
        self._procs[wid] = proc
        self._conns[wid] = conn

    def retire_worker(self, wid: int) -> None:
        """Drop a dead worker without replacement (pool shrink)."""
        self._procs[wid] = None
        self._conns[wid] = None

    def degrade(self, reason: str) -> None:
        """Kill the pool and route every later dispatch to the
        simulated fallback (the segment stays mapped — the parent
        machine keeps running on it)."""
        self.degraded = True
        self.degrade_reason = reason
        self._kill_pool()

    def _kill_pool(self) -> None:
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.send(("exit",))
            except Exception:
                pass
            try:
                conn.close()
            except Exception:
                pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck in D state
                proc.kill()
                proc.join(timeout=2.0)
        self._procs = []
        self._conns = []
        self._loaded = {}

    def close(self) -> None:
        """Shut the pool down and release the segment.  The parent
        memory is detached first (snapshotted into an ordinary
        bytearray) so the outcome stays inspectable after unlink.
        No-op in forked children: only the creating process may unlink
        (the SIGTERM guard is inherited across fork)."""
        if self.closed or os.getpid() != self._owner_pid:
            return
        self.closed = True
        _LIVE_SESSIONS.discard(self)
        try:
            self._kill_pool()
        finally:
            try:
                self.memory.detach()
            except Exception:
                pass
            try:
                self.shm.close()
            except Exception:
                pass
            try:
                self.shm.unlink()
            except Exception:
                pass

    def reset(self) -> None:
        """Return the session to a pristine-segment state while keeping
        the forked worker pool warm (the service's session pool calls
        this between requests).

        The parent region is rewound and zeroed (fresh runs assume a
        zero-filled address space) and the sync slots are cleared; the
        heartbeat region is deliberately left alone — live workers are
        beating into it.  Workers themselves carry no cross-run state
        that survives this: their arenas are reset per task and their
        nid→address maps arrive with each task spec."""
        if self.closed or self.degraded:
            raise ParallelError(
                "cannot reset a closed or degraded session",
                code="RT-SESSION",
            )
        self.memory.reset_region(0)
        zero = b"\0" * (self.hb_base - self.sync_base)
        self.memory.data[self.sync_base:self.hb_base] = zero
        self._origin_slots.clear()
        self.lane_wids = []
        self.worker_samples = []
        self.chaos = []
        self.task_seq = 0
        self.tracer = NULL_TRACER
        self.sink = None

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- dispatch ---------------------------------------------------------
    def run_tasks(self, kind: str, specs: List[dict], shipment: "Shipment",
                  retry_safe: bool = False) -> List[tuple]:
        """Send one task per spec of ``shipment``'s program (round-robin
        over live workers) under supervision; collect one reply per
        task.  Worker deaths are
        recovered per the retry/degradation ladder; an unrecoverable
        death kills the pool and raises :class:`WorkerCrash`.
        Worker-level task errors come back as ``("err", code, msg)``
        entries for the caller.  ``retry_safe`` is the DOALL chunk
        retry-safety verdict (:func:`audit_retry_safety`): it gates
        re-execution of chunks that died past their write fence."""
        self.ensure_pool()
        from .supervisor import Supervisor
        return Supervisor(self, kind, specs, shipment,
                          retry_safe=retry_safe).run()

    # -- task-spec helpers ------------------------------------------------
    def sync_slots_for(self, origins: List[int]) -> Dict[int, int]:
        """Absolute slot addresses for serialized-statement origins, all
        zeroed for a new loop execution; a slot is assigned once per
        origin."""
        zero = b"\0" * _SLOT_BYTES
        for origin in origins:
            if origin not in self._origin_slots:
                index = len(self._origin_slots)
                if index >= self.sync_slots:
                    raise ParallelError(
                        f"sync region exhausted ({self.sync_slots} slots)",
                        code="RT-PLAN",
                    )
                self._origin_slots[origin] = \
                    self.sync_base + index * _SLOT_BYTES
            addr = self._origin_slots[origin]
            self.memory.data[addr:addr + _SLOT_BYTES] = zero
        return {origin: self._origin_slots[origin] for origin in origins}


#: program -> (fingerprint, lowering, pickled ``(program, sema,
#: lowering)``); a blob is reused only while the program still prints
#: to that fingerprint and its native context keeps that lowering
_PICKLED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class Shipment:
    """One program as the workers see it: the key every task of it names
    — ``(fingerprint, engine, controlled)`` — and the load entry a
    worker meeting it for the first time gets, built on first need."""

    def __init__(self, program: ast.Program, sema, engine: str,
                 controlled=None):
        from ..interp.bytecode.compiler import program_fingerprint
        self.program = program
        self.sema = sema
        self.engine = engine
        #: loop nids that may carry a controller (None = any)
        self.controlled = None if controlled is None \
            else frozenset(controlled)
        self.fingerprint = program_fingerprint(program)
        self.key = (self.fingerprint, engine, self.controlled)
        self._entry: Optional[dict] = None

    def entry(self) -> dict:
        """The load entry: ``(program, sema, lowering)`` pickled as one
        object graph (memoized per program), the engine, the controlled
        set and — native only — the path of the parent's library, built
        here if need be, or the ``NL-*`` reason there is none.  The
        worker adopts the lowering and binds the library."""
        if self._entry is None:
            lowering = lib = reason = None
            if self.engine == "native":
                from ..interp.native import native_context_for
                try:
                    ctx = native_context_for(self.program, self.sema,
                                             controlled=self.controlled)
                    lowering, lib = ctx.lowering, ctx.lib.path
                except Exception as exc:
                    reason = str(exc)  # every task reply carries it
            memo = _PICKLED.get(self.program)
            if memo is None or memo[:2] != (self.fingerprint, lowering):
                memo = _PICKLED[self.program] = (
                    self.fingerprint, lowering,
                    pickle.dumps((self.program, self.sema, lowering),
                                 pickle.HIGHEST_PROTOCOL))
            self._entry = {"blob": memo[2], "engine": self.engine,
                           "controlled": self.controlled, "lib": lib,
                           "nl": reason}
        return self._entry


# ---------------------------------------------------------------------------
# parent side: the process executor
# ---------------------------------------------------------------------------

def replay_pipeline(clock: PipelineClock, execution: LoopExecution,
                    output: List[str], iterations: List[tuple]) -> None:
    """Feed what the workers reported — ``(tid, segments, output
    lines)`` per iteration, in program order — to the loop's clock, just
    as the in-process executor feeds it while running them."""
    for k, (tid, segments, lines) in enumerate(iterations):
        execution.threads[tid].sync_cycles += sync.DYNAMIC_DEQUEUE
        output.extend(lines)
        clock.feed(tid, k, segments)


class ProcessExecutor:
    """Runs one plan's loop executions on the session's workers:
    capability audit (memoized on the session: a pooled session audits
    each loop once, not once per request), supervised dispatch, and the
    merge of the replies into the loop's :class:`LoopExecution`.  Guard,
    bounds, clock, settle and the fallback stay with the controller."""

    def __init__(self, session: ProcessSession, ctx: RunContext,
                 plan: LoopPlan, shipment: Shipment):
        self.session = session
        self.ctx = ctx
        self.plan = plan
        self.shipment = shipment
        self._kind_doall = plan.kind == DOALL
        self._noted_fallback: Set[str] = set()

    def _audited(self, key: tuple, audit):
        """Static verdicts outlive a session reset: one audit per key
        and program fingerprint (bounded: a full memo starts over)."""
        memo = self.session.audits
        key = (key[0], self.shipment.fingerprint) + key[1:]
        if key not in memo:
            if len(memo) >= AUDIT_MEMO_ENTRIES:
                memo.clear()
            memo[key] = audit()
        return memo[key]

    def refuses(self, machine: Machine, loop: ast.LoopStmt) -> bool:
        """Whether this execution must run in-process instead: the audit
        verdict plus dispatch-time conditions (pool health, injectors /
        watchdog, string-literal interning).  A refusal is counted, and
        noted once per distinct reason set."""
        ctx, session = self.ctx, self.session
        controlled = frozenset(machine.loop_controllers)
        audit = self._audited(
            ("loop", loop.nid, self._kind_doall, ctx.nthreads, ctx.chunk,
             controlled),
            lambda: audit_loop(loop, machine.sema, self._kind_doall,
                               ctx.nthreads, session.workers, ctx.chunk,
                               controlled))
        reasons = list(audit.reasons)
        if session.degraded:
            reasons.append(MC_DEGRADED)
        if not self._kind_doall and session.forked \
                and session.live_workers < ctx.nthreads:
            # DOACROSS pins stage tid to worker tid mod N; a shrunken
            # pool would stack two stages on one (FIFO) worker and
            # deadlock the token pipeline
            reasons.append(MC_WORKERS)
        if ctx.injectors or ctx.watchdog is not None:
            # injected faults and statement watchdogs hook the *parent*
            # machine; running on workers would silently disarm them
            reasons.append(MC_INSTRUMENTED)
        if any(nid not in machine._strlit_cache for nid in audit.strlits):
            reasons.append(MC_STRLIT)
        if not reasons:
            return False
        if ctx.tracer:
            ctx.tracer.metrics.inc("runtime.mc_fallbacks")
        key = ",".join(reasons)
        if key not in self._noted_fallback:
            self._noted_fallback.add(key)
            ctx.sink.note(
                "MC-FALLBACK",
                f"loop {loop.label!r} ran on the simulated backend "
                f"({', '.join(reasons)})",
                loop=loop.label, loc=loop.loc, phase="runtime",
            )
        return True

    def _run(self, kind: str, machine: Machine, loop: ast.LoopStmt,
             bounds: LoopBounds, execution: LoopExecution,
             lanes: List[dict], **supervision) -> List[tuple]:
        """One task per lane (its own fields on top of what the loop
        execution's tasks share), run to completion under supervision.
        A task error raises; else every reply's cost sink is folded
        into its thread's and its wall-clock sample recorded."""
        session = self.session
        # the nid->address bindings in scope on the parent machine, as
        # pickle-cheap pair lists: no program state crosses the pipe
        frame = machine.frames[-1].vars if machine.frames else {}
        shared = {
            "program": self.shipment.key,
            "label": loop.label, "nthreads": self.ctx.nthreads,
            "lo": bounds.lo, "step": bounds.step,
            "control_nid": bounds.control.nid,
            "globals": [(decl.nid, addr) for decl, addr
                        in machine.globals_frame.vars.items()],
            "frame": [(decl.nid, addr) for decl, addr in frame.items()],
            "strlits": list(machine._strlit_cache.items()),
        }
        replies = session.run_tasks(
            kind, [dict(shared, **lane) for lane in lanes], self.shipment,
            **supervision
        ) if lanes else []
        for reply in replies:
            if reply[0] != "ok":
                code = reply[1]
                raise ParallelError(
                    f"worker task failed in loop {loop.label!r}: "
                    f"{code}: {reply[2]}",
                    code=code if code.startswith("RT-")
                    else "RT-WORKER-FAULT",
                    loop=loop.label, loc=loop.loc,
                )
        name = "doall-chunk" if kind == "doall" else "doacross-strip"
        for lane, (_ok, tid, _lines, cost, iters, wall) in enumerate(replies):
            sink = execution.threads[tid].sink
            sink.cycles += cost[0]
            sink.instructions += cost[1]
            sink.loads += cost[2]
            sink.stores += cost[3]
            session.worker_samples.append(
                (session.lane_wids[lane], name, wall[0], wall[1],
                 {"loop": loop.label, "tid": tid,
                  "iterations": iters if kind == "doall" else len(iters)})
            )
        return replies

    def doall(self, machine: Machine, loop: ast.For, bounds: LoopBounds,
              chunks: List[Tuple[int, int, int]],
              execution: LoopExecution) -> List[float]:
        """Chunks execute concurrently against the shared segment;
        returns each thread's span (its worker's busy cycles)."""
        plan = self.plan
        # commutative-class accumulators are privatized but NOT
        # idempotent (a replayed chunk re-applies its increments), so
        # they never count as retry-safe
        unsafe = self._audited(
            ("retry", plan.loop.nid),
            lambda: audit_retry_safety(
                plan.loop, machine.sema,
                set(plan.private_sites) - set(plan.commutative_sites)))
        replies = self._run(
            "doall", machine, loop, bounds, execution,
            [{"tid": tid, "chunk_lo": first, "chunk_hi": end}
             for tid, first, end in chunks],
            retry_safe=not unsafe,
        )
        spans = [0.0] * self.ctx.nthreads
        for _ok, tid, lines, cost, iters, _wall in replies:
            stats = execution.threads[tid]
            stats.sync_cycles += sync.STATIC_CHUNK_SETUP
            spans[tid] = cost[0]
            stats.iterations += iters
            execution.iterations += iters
            machine.output.extend(lines)
        return spans

    def doacross(self, machine: Machine, loop: ast.For,
                 execution: LoopExecution, clock: PipelineClock) -> None:
        """Iteration k runs on worker k mod N; serialized statements
        synchronize through shared-segment post/wait counters.  The
        streamed per-iteration segments are *replayed* through
        ``clock``, so modeled cycles are the in-process executor's."""
        session = self.session
        nthreads = self.ctx.nthreads
        if loop.init is not None:
            machine.exec_stmt(loop.init)
        bounds = loop_bounds(machine, loop)
        total = bounds.total
        slots = session.sync_slots_for(
            sorted(self.plan.serial_stmt_origins))
        # the failing condition evaluation is the work of the thread
        # that would have dequeued iteration ``total``
        last = doacross_owner(total, 1, nthreads)
        replies = self._run(
            "doacross", machine, loop, bounds, execution,
            [{"tid": tid, "total": total, "final_cond_tid": last,
              "slots": list(slots.items()),
              "spin_timeout": session.spin_timeout}
             for tid in range(nthreads) if tid < total or tid == last],
        )
        per_iter: Dict[int, tuple] = {}
        for _ok, tid, lines, _cost, iters, _wall in replies:
            cursor = 0
            for k, segments, n_lines in iters:
                per_iter[k] = (tid, segments,
                               lines[cursor:cursor + n_lines])
                cursor += n_lines
        # output and accounting in program order = ascending k
        replay_pipeline(clock, execution, machine.output,
                        [per_iter[k] for k in range(total)])
        bounds.seed(machine, total)
