"""NativeMachine: the third execution tier.

A drop-in :class:`~repro.interp.machine.Machine` subclass that
dispatches function calls, statement units, and DOALL chunk drivers
into compiled ``.so`` entry points operating directly on the machine's
flat byte buffer — with zero per-iteration Python inside lowered loop
nests.  Everything the C code cannot reproduce exactly (per-function
``NL-*`` lowering failures, active instrumentation hooks, an armed
watchdog, unresolvable free variables) falls back to the bytecode
closures this class inherits, which is always semantics-preserving.

One gate is structural: loop controllers are Python callables, so no
entry point may run over a controlled loop (``_controllers_clear``) —
and a function that holds one, ``main`` in every parallel job, is
interpreted.  The fallback does not stay there: at every loop
statement and every direct call the closures ask the machine
again (the ``_native_loop`` / ``_native_call`` hooks, through the same
``_dispatch_unit`` / ``call_function`` that ``exec_stmt`` and
``Machine.run`` use), so only statements that enclose a controlled
loop, and the straight-line code around them, run in Python.
``native_dispatches`` and ``interp_loops`` count the two sides.  The
units that re-entry lands in, and the body/stage units and chunk
drivers a controller dispatches, exist for the loops the machine's
creator declared as ``controlled`` (``None``: any loop); a controller
on a loop outside that set finds no entry point and its loop runs in
Python — counted, never wrong.

The C side communicates through one Env struct (see
``codegen._PRELUDE``): cost counters in cy8 units (cycles x 8), the
``max_steps`` budget counted once per loop iteration (compiled code
cannot count statements against a watchdog deadline, so an armed
watchdog closes the gate instead), and a callback used for segment
growth, builtins, non-lowerable call sites and string-literal
interning.  ``malloc`` and ``free`` do not call back: ``rp_malloc`` /
``rp_free`` decide them in C over a heap mirror this class owns
(:class:`_HeapMirror`) and journal each decision.  Every callback and
every return from compiled code synchronizes the Python-side
:class:`~repro.interp.memory.Memory` with C (:meth:`_sync_records`):
the journal replays as record-only heap operations that ``Memory``
re-decides and checks, and one spanning ``native-frames`` stack record
per stretch of C frames lets Python builtins see every native-allocated
byte.  In the other direction, each heap operation Python makes goes
onto the mirror's queue before control returns to C.  ``upcalls``
counts the callbacks by opcode, ``heap_ops`` the journaled operations.
"""

from __future__ import annotations

import ctypes
from collections import Counter
from typing import Dict, List, Optional, Tuple

from ...frontend import ast
from .. import memory as mem
from ..builtins import BUILTIN_IMPLS, malloc_label
from ..machine import (
    BreakSignal, ContinueSignal, InterpError, ReturnSignal,
)
from ..memory import HEAP_FREE, HEAP_LIVE, MemoryError_
from ..bytecode.machine import BytecodeMachine
from .codegen import (
    HM_CAP, HM_FLAGS, HM_FREE, HM_HDR, HM_JCAP, HM_JN, HM_QN, HM_REUSE,
    HM_USED, OP_BUILTIN, OP_CALLFB, OP_GROW, OP_HEAP, OP_STRLIT,
    RC_BREAK, RC_CONTINUE, RC_FAULT, RC_OK, RC_RETURN,
    RET_BLOB, RET_F64, RET_I64, RET_NONE, RET_U64,
)

MASK64 = 0xFFFFFFFFFFFFFFFF

#: the label of the stack record that covers a stretch of C frames
NATIVE_FRAMES = "native-frames"

_OP_NAMES = {OP_GROW: "grow", OP_CALLFB: "call", OP_STRLIT: "strlit",
             OP_HEAP: "heap"}

_CBFUNC = ctypes.CFUNCTYPE(ctypes.c_int64, ctypes.c_void_p,
                           ctypes.c_int64, ctypes.c_int64,
                           ctypes.c_int64)


class _Env(ctypes.Structure):
    """Must match the Env struct in ``codegen._PRELUDE`` exactly."""

    _fields_ = [
        ("M", ctypes.c_void_p),
        ("cap", ctypes.c_int64),
        ("cap_alloc", ctypes.c_int64),
        ("brk", ctypes.c_int64),
        ("ck", ctypes.c_int64),
        ("tid", ctypes.c_int64),
        ("nthreads", ctypes.c_int64),
        ("steps", ctypes.c_int64),
        ("max_steps", ctypes.c_int64),
        ("depth", ctypes.c_int64),
        ("cy8", ctypes.c_int64),
        ("ins", ctypes.c_int64),
        ("lds", ctypes.c_int64),
        ("sts", ctypes.c_int64),
        ("fault", ctypes.c_int64),
        ("rnone", ctypes.c_int64),
        ("args", ctypes.c_int64 * 16),
        ("dargs", ctypes.c_double * 16),
        ("gaddr", ctypes.POINTER(ctypes.c_int64)),
        ("daddr", ctypes.POINTER(ctypes.c_int64)),
        ("saddr", ctypes.POINTER(ctypes.c_int64)),
        ("hm", ctypes.POINTER(ctypes.c_int64)),
        ("hj", ctypes.POINTER(ctypes.c_int64)),
        ("hq", ctypes.POINTER(ctypes.c_int64)),
        ("jbp", ctypes.c_void_p),
        ("cb", _CBFUNC),
        # an instrumented unit's two more (a plain one never reads them)
        ("tr", ctypes.c_void_p),
        ("tcy8", ctypes.c_int64),
    ]


def _int64s(n: int):
    return (ctypes.c_int64 * n)()


class _HeapMirror:
    """The buffers ``rp_malloc``/``rp_free`` decide over (``Env.hm``,
    ``.hj``, ``.hq``; layout in ``codegen._HEAP``), owned here and never
    in the segment, so no address moves.  Python keeps the mirror equal
    to ``Memory`` through the queue: each heap operation Python made
    goes on it before control returns to C, and a wholesale rewrite of
    the records (or a table too full for what is queued) becomes one
    reset followed by every heap block, live ones then free lists."""

    #: journal records between two replays; a full journal calls back
    #: ``OP_HEAP`` to be replayed
    JOURNAL = 1024

    def __init__(self, env: _Env):
        self.env = env
        self.hj = env.hj = _int64s(5 * self.JOURNAL)
        self.hq = env.hq = _int64s(3 * 64)
        self.hm = None
        self._resize(64)
        #: call-site nid -> the label its blocks carry in ``Memory``
        self.labels: Dict[int, str] = {}

    def _resize(self, cap: int):
        hm = _int64s(HM_HDR + 6 * cap)
        hm[HM_CAP] = cap
        hm[HM_JCAP] = self.JOURNAL
        self.hm = self.env.hm = hm

    def journal(self) -> List[Tuple[int, int, int, int, int]]:
        """Drain the operations C made, in order: ``(op, addr, size,
        call nid, brk before)``."""
        flat = self.hj[:5 * self.hm[HM_JN]]
        self.hm[HM_JN] = 0
        return list(zip(*(flat[i::5] for i in range(5))))

    def push(self, memory, flags: int):
        """Hand C the heap operations Python made since the last push,
        leaving the block table room for at least one more of C's."""
        hm = self.hm
        log = memory.heap_log
        if (log and log[0] is None) or \
                2 * (hm[HM_USED] + hm[HM_QN] + len(log)) + 4 > hm[HM_CAP]:
            self._rebuild(memory)
        elif log:
            self._queue(log, hm[HM_QN])
        log.clear()
        self.hm[HM_FLAGS] = flags

    def _rebuild(self, memory):
        blocks = [(HEAP_LIVE, r.addr, r.size) for r in memory._allocs
                  if r.live and r.kind == mem.HEAP]
        blocks += [(HEAP_FREE, r.addr, r.size) for bucket in
                   memory._freelist.values() for r in bucket]
        cap = self.hm[HM_CAP]
        while 4 * len(blocks) + 2 > cap:
            cap *= 2
        if cap != self.hm[HM_CAP]:
            self._resize(cap)
        self._queue([(0, 0, 0)] + blocks, 0)

    def _queue(self, ops, at: int):
        end = 3 * (at + len(ops))
        if end > len(self.hq):
            hq = _int64s(2 * end)
            hq[:3 * at] = self.hq[:3 * at]
            self.hq = self.env.hq = hq
        self.hq[3 * at:end] = [v for op in ops for v in op]
        self.hm[HM_QN] = at + len(ops)


def _sign64(v: int) -> int:
    v &= MASK64
    return v - (1 << 64) if v >= (1 << 63) else v


class NativeMachine(BytecodeMachine):
    """Machine whose hot paths run as compiled C on the segment."""

    engine = "native"

    def __init__(self, program, sema, check_bounds: bool = True,
                 max_steps: int = 500_000_000,
                 max_loop_steps: Optional[int] = None,
                 engine: Optional[str] = None, tracer=None,
                 memory=None, controlled=None, tracked=None):
        super().__init__(program, sema, check_bounds, max_steps,
                         max_loop_steps, tracer=tracer, memory=memory)
        #: NL-* diagnostic when the backend is unavailable (None = ok)
        self.native_diag: Optional[str] = None
        self._low = None
        self._handles = None
        try:
            from .backend import native_context_for
            ctx = native_context_for(program, sema, controlled=controlled,
                                     tracked=tracked)
            self._low = ctx.lowering
            self._lib = ctx.lib
            self._handles = ctx.lib.handles
        except Exception as exc:
            self.native_diag = str(exc)
        self._env = _Env()
        self._cb_obj = _CBFUNC(self._callback)
        self._env.cb = self._cb_obj
        self._pin = None
        self._pending: Optional[BaseException] = None
        self._gaddr_arr = None
        self._gaddr_key: Optional[Tuple[int, int]] = None
        self._daddr_arr = (ctypes.c_int64 * 1)()
        self._saddr_arr = None
        self._env_addr = ctypes.addressof(self._env)
        #: entry-point calls made (runners + units + chunk drivers);
        #: the differential/smoke gates assert this is non-zero when a
        #: run claims to be native
        self.native_dispatches = 0
        #: loop entries that ran the Python ``drive`` instead of a unit
        #: (gate closed, unit not lowered, or a controller inside)
        self.interp_loops = 0
        #: callbacks compiled code made, by opcode (``builtin:<name>``
        #: for a builtin), and the heap operations it made in C instead
        self.upcalls: Counter = Counter()
        self.heap_ops = 0
        #: the dependence tracker compiled code reports to
        #: (:meth:`attach_tracker`), also the one observer it serves
        self.tracker = None
        self._heap: Optional[_HeapMirror] = None
        if self._low is not None and self._low.heap:
            self._heap = _HeapMirror(self._env)
        self.memory.heap_log = [None] if self._heap is not None else None

    # -- gates -------------------------------------------------------------
    def _native_ok(self) -> bool:
        """Compiled code may run: nothing is attached that only the
        closures can serve — observers (but the tracker compiled code
        reports to), a race checker's log, fault hooks, a redirector, or
        a watchdog (a budget is honored where statements are counted)."""
        return (self._low is not None
                and self._globals_ready
                and self.redirector is None
                and (not self.observers or self.observers == [self.tracker])
                and self.race_log is None
                and self._stmt_hook is None
                and self._tid_hook is None
                and not self._store_taps
                and self.max_loop_steps is None
                and self._watchdog_deadline is None)

    def attach_tracker(self, tracker) -> None:
        """Report every access, record and candidate-loop boundary to
        ``tracker`` (a :class:`~.tracker.Tracker` of this machine's
        instrumented unit): compiled code through ``Env.tr``, Python
        builtins as an observer, ``Memory`` through its hook."""
        self.tracker = tracker
        self._env.tr = tracker.ptr
        self.observers.append(tracker)
        self.memory.alloc_hook = tracker.on_alloc

    def _controllers_clear(self, meta) -> bool:
        if not self.loop_controllers:
            return True
        return self._low.loop_closure(meta).isdisjoint(self.loop_controllers)

    def _resolve_free(self, free) -> Optional[List[int]]:
        if not free:
            return []
        frame = self.frames[-1] if self.frames else self.globals_frame
        out = []
        for decl in free:
            addr = frame.vars.get(decl)
            if addr is None:
                return None
            out.append(addr)
        return out

    # -- memory pinning ----------------------------------------------------
    def _do_pin(self):
        data = self.memory.data
        buf = (ctypes.c_char * len(data)).from_buffer(data)
        self._pin = buf
        E = self._env
        E.M = ctypes.addressof(buf)
        E.cap = len(data)
        E.cap_alloc = self.memory.limit if self.memory.limit is not None \
            else len(data)

    def _unpin(self):
        self._pin = None

    # -- env lifecycle -----------------------------------------------------
    def _refresh_gaddr(self):
        gvars = self.globals_frame.vars
        key = (id(gvars), len(gvars))
        if key == self._gaddr_key and self._gaddr_arr is not None:
            return
        order = self._low.globals_order
        arr = (ctypes.c_int64 * max(len(order), 1))()
        for i, decl in enumerate(order):
            arr[i] = gvars.get(decl, 0)
        self._gaddr_arr = arr
        self._gaddr_key = key
        self._env.gaddr = arr

    def _refresh_saddr(self):
        lits = self._low.strlits
        arr = self._saddr_arr
        if arr is None or len(arr) < max(len(lits), 1):
            arr = (ctypes.c_int64 * max(len(lits), 1))()
            self._saddr_arr = arr
            self._env.saddr = arr
        cache = self._strlit_cache
        for i, node in enumerate(lits):
            arr[i] = cache.get(node.nid, -1)

    def _enter(self, daddr: Optional[List[int]] = None):
        E = self._env
        self._do_pin()
        E.brk = self.memory.brk
        E.ck = 1 if self.memory.check_bounds else 0
        E.tid = self.tid
        E.nthreads = self.nthreads
        E.steps = self._steps
        ms = self.max_steps
        E.max_steps = int(ms) if ms == ms and ms < (1 << 62) else (1 << 62)
        # the frames beneath: Python's, and C's below a callback
        E.depth = len(self.frames) + self._cframes
        E.cy8 = E.ins = E.lds = E.sts = 0
        E.fault = -1
        E.rnone = 0
        self._refresh_gaddr()
        self._refresh_saddr()
        if daddr:
            # a fresh array per dispatch: units read E->daddr lazily, and
            # a callback may re-enter another unit before this one ends
            self._daddr_arr = (ctypes.c_int64 * len(daddr))(*daddr)
            E.daddr = self._daddr_arr
        self._push_heap()
        self._pending = None
        self._stamp_cycles()

    def _stamp_cycles(self):
        """The tracker counts a loop's cycles from ``Env.tcy8`` on: what
        Python committed, set whenever control goes back to C."""
        if self.tracker is not None:
            self._env.tcy8 = int(self.cost.cycles * 8)

    def _commit_costs(self):
        E = self._env
        if E.cy8 or E.ins or E.lds or E.sts:
            self.cost.cycles += E.cy8 / 8
            self.cost.instructions += E.ins
            self.cost.loads += E.lds
            self.cost.stores += E.sts
            E.cy8 = E.ins = E.lds = E.sts = 0

    def _sync_records(self):
        """Bring ``Memory`` up to date with compiled code.  The heap
        journal replays in order, each C ``malloc``/``free`` as a
        record-only allocation or free that ``Memory`` re-decides under
        its own policy (a disagreement raises ``HeapReplayError``); a
        bump allocation first gets the ``native-frames`` stack record up
        to the ``brk`` C saw, so that ``Memory``'s bump pointer stands
        where C's stood.  A last ``native-frames`` record covers the
        rest, so builtins (memcpy/strlen/...) pass ``check_access`` over
        native-allocated frames and ``memory.brk`` tracks C."""
        heap = self._heap
        memory = self.memory
        if heap is not None and heap.hm[HM_JN]:
            labels = heap.labels
            ops = heap.journal()
            self.heap_ops += len(ops)
            for op, addr, size, nid, brk in ops:
                if op != HEAP_LIVE:
                    memory.replay_free(addr)
                    continue
                if addr >= brk > memory.brk:
                    self._sync_frames(brk)
                label = labels.get(nid)
                if label is None:
                    label = labels[nid] = malloc_label(
                        self._low.heap_nodes[nid])
                memory.replay_alloc(addr, size, label, nid)
        if self._env.brk > memory.brk:
            self._sync_frames(self._env.brk)

    def _sync_frames(self, brk: int):
        """Cover C's frames from ``memory.brk`` up to ``brk`` with one
        ``native-frames`` stack record."""
        memory = self.memory
        aligned = (memory.brk + 7) & ~7
        if brk > aligned:
            memory.alloc(brk - aligned, mem.STACK, label=NATIVE_FRAMES)
        else:  # pragma: no cover - brk inside the alignment padding
            memory.brk = brk

    def _push_heap(self):
        """Before control returns to C: the heap operations Python made
        go to the mirror, and ``free`` stays an upcall while a free hook
        is attached."""
        if self._heap is not None:
            self._heap.push(self.memory,
                            (HM_REUSE if self.memory.reuse_heap else 0) |
                            (0 if self.free_hooks else HM_FREE))

    def _exit(self):
        E = self._env
        self._commit_costs()
        self._steps = E.steps
        self._sync_records()
        self._unpin()

    # -- the callback ------------------------------------------------------
    def _callback(self, envp, op, a, b) -> int:
        E = self._env
        repin = False
        cframes = self._cframes
        # C frames in flight count for the Python code beneath them
        self._cframes = E.depth - len(self.frames)
        try:
            self._commit_costs()
            self._steps = E.steps
            self._sync_records()
            self.upcalls[_OP_NAMES[op] if op != OP_BUILTIN else
                         "builtin:" + self._low.calls[a].name] += 1
            if op == OP_GROW:
                memory = self.memory
                if memory.limit is not None:
                    raise MemoryError_(
                        f"memory region exhausted: need {a} bytes, "
                        f"region capacity {memory.limit}"
                    )
                self._unpin()
                repin = True
                data = memory.data
                if a > len(data):
                    data.extend(b"\0" * max(a - len(data), 65536))
            elif op == OP_STRLIT:
                node = self._low.strlits[b]
                cache = self._strlit_cache
                addr = cache.get(node.nid)
                if addr is None:
                    self._unpin()
                    repin = True
                    payload = node.value.encode("latin-1") + b"\0"
                    addr = self.memory.alloc(len(payload), mem.RODATA,
                                             label="strlit")
                    self.memory.write_bytes(addr, payload)
                    cache[node.nid] = addr
                self._saddr_arr[b] = addr
            elif op == OP_HEAP:
                pass  # the journal replayed above; the push below resizes
            elif op in (OP_BUILTIN, OP_CALLFB):
                meta = self._low.calls[a]
                self._unpin()
                repin = True
                args = self._decode_call_args(meta)
                node = meta.node
                if op == OP_BUILTIN:
                    impl = BUILTIN_IMPLS[meta.name]
                    result = impl(self, args, node)
                else:
                    fn = self._low.sema.functions[meta.name]
                    result = self.call_function(fn, args)
                self._encode_call_result(meta, result)
            else:  # pragma: no cover - unknown opcode
                raise InterpError(f"native callback opcode {op}")
            return 0
        except BaseException as exc:
            self._pending = exc
            return 1
        finally:
            self._cframes = cframes
            if repin or self._pin is None:
                self._do_pin()
            E.steps = self._steps
            E.brk = self.memory.brk
            self._push_heap()
            self._stamp_cycles()

    def _decode_call_args(self, meta) -> List:
        E = self._env
        out = []
        for i, spec in enumerate(meta.args):
            kind = spec[0]
            if kind == "f":
                out.append(E.dargs[i])
            elif kind == "s":
                out.append(self.memory.read_bytes(E.args[i], spec[1]))
            else:
                v = E.args[i]
                out.append(v & MASK64 if spec[1] and v < 0 else v)
        return out

    def _encode_call_result(self, meta, result):
        E = self._env
        if meta.ret == "f":
            E.dargs[0] = float(result) if result is not None else 0.0
        elif meta.ret == "i":
            E.args[0] = _sign64(int(result)) if result is not None else 0

    # -- entry invocation --------------------------------------------------
    def _invoke(self, cname: str, daddr: Optional[List[int]] = None) -> int:
        self.native_dispatches += 1
        outer, depth = self._daddr_arr, self._env.depth
        self._enter(daddr)
        try:
            rc = self._handles[cname](self._env_addr)
        finally:
            self._exit()
            self._env.depth = depth  # a nested entry: the outer C's depth
            if self._daddr_arr is not outer:
                self._daddr_arr = outer
                self._env.daddr = outer
        if self._pending is not None:
            exc = self._pending
            self._pending = None
            raise exc
        if rc == RC_FAULT:
            self._raise_fault()
        return rc

    def _raise_fault(self):
        E = self._env
        site = E.fault
        if site == 0:
            # region-guard trip: re-run the exact Python check for the
            # walker's error text (NULL / wild / out-of-bounds / UAF)
            addr, size = E.args[0], E.args[1]
            self.memory.check_access(addr, size)
            raise InterpError(
                f"wild access at {addr} (size {size})")  # pragma: no cover
        raise self._low.faults[site - 1].error()

    def _decode_return(self):
        E = self._env
        kind = E.args[1]
        if kind == RET_NONE:
            return None
        if kind == RET_I64:
            return E.args[0]
        if kind == RET_U64:
            return E.args[0] & MASK64
        if kind == RET_F64:
            return E.dargs[0]
        if kind == RET_BLOB:
            return self.memory.read_bytes(E.args[0], E.args[2])
        raise InterpError(f"bad native return kind {kind}")

    # -- Machine contract overrides ---------------------------------------
    def call_function(self, fn: ast.FunctionDef, args: List):
        """Also the closures' ``_native_call`` hook: a direct call
        in an interpreted function lands in the callee's runner."""
        if self._native_ok():
            meta = self._low.fns.get(fn.nid)
            if (meta is not None and meta.runner is not None
                    and len(args) >= len(fn.params)
                    and self._controllers_clear(meta)
                    and all(isinstance(v, (int, float))
                            for v in args[:len(meta.params)])):
                E = self._env
                for i, pcls in enumerate(meta.params):
                    v = args[i]
                    if pcls == "f":
                        E.dargs[i] = float(v)
                    else:
                        E.args[i] = _sign64(int(v))
                self._invoke(meta.runner)
                return self._decode_return()
        return super().call_function(fn, args)

    _native_call = call_function

    def _dispatch_unit(self, stmt: ast.Stmt) -> bool:
        """Run ``stmt`` as its compiled unit if the gate is open, the
        unit's loop closure holds no controller and its free variables
        resolve in the current frame; False leaves it to the closures."""
        if not self._native_ok():
            return False
        meta = self._low.units.get(stmt.nid)
        if meta is None or not self._controllers_clear(meta):
            return False
        daddr = self._resolve_free(meta.free)
        if daddr is None:
            return False
        rc = self._invoke(meta.cname, daddr)
        if rc == RC_OK:
            return True
        if rc == RC_BREAK:
            raise BreakSignal()
        if rc == RC_CONTINUE:
            raise ContinueSignal()
        if rc == RC_RETURN:
            raise ReturnSignal(self._decode_return())
        raise InterpError(f"bad native rc {rc}")

    def exec_stmt(self, stmt: ast.Stmt) -> None:
        if not self._dispatch_unit(stmt):
            super().exec_stmt(stmt)

    def _native_loop(self, loop: ast.LoopStmt) -> bool:
        """The closures' loop-entry hook (controller check already
        done): False sends the loop to the Python ``drive``."""
        if self._dispatch_unit(loop):
            return True
        self.interp_loops += 1
        return False

    # -- DOALL chunk driver ------------------------------------------------
    def native_chunk(self, loop_nid: int):
        """ChunkMeta for ``loop_nid`` if it is natively dispatchable in
        the machine's current state, else None (caller falls back to
        the per-iteration Python protocol)."""
        if not self._native_ok():
            return None
        meta = self._low.chunks.get(loop_nid)
        if meta is None or not self._controllers_clear(meta):
            return None
        if self._resolve_free(meta.free) is None:
            return None
        return meta

    def run_native_chunk(self, loop_nid: int, k0: int, k1: int,
                         hb_iter_off: int = 0) -> int:
        """Run iterations [k0, k1) of the DOALL loop ``loop_nid``
        entirely in C; returns the completed iteration count.  The
        control variable must already be seeded (the caller owns the
        bind/seed/fence protocol).  ``hb_iter_off`` is a segment offset
        whose int64 slot receives the live iteration counter."""
        meta = self._low.chunks[loop_nid]
        daddr = self._resolve_free(meta.free)
        if daddr is None:
            raise InterpError("native chunk free vars unresolved")
        E = self._env
        E.args[0] = k0
        E.args[1] = k1
        E.args[6] = 0
        self.native_dispatches += 1
        depth = E.depth
        self._enter(daddr)
        # hb address needs the pinned base; set after _enter pins
        E.args[4] = (E.M + hb_iter_off) if hb_iter_off else 0
        try:
            rc = self._handles[meta.cname](self._env_addr)
        finally:
            self._exit()
            E.depth = depth
        if self._pending is not None:
            exc = self._pending
            self._pending = None
            raise exc
        if rc == RC_FAULT:
            self._raise_fault()
        if rc == RC_BREAK:
            raise BreakSignal()
        if rc == RC_RETURN:
            raise ReturnSignal(self._decode_return())
        return E.args[6]
