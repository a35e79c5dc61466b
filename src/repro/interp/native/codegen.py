"""C code generator for the native execution tier.

Lowers each analyzed function to a C translation unit operating
directly on the machine's flat byte buffer, and exports an entry point
only where the runtime can enter compiled code: a runner ``r_<nid>``
per function, a unit ``u_<nid>`` per loop that an *interpreted*
function can arrive at, the body and body-child (DOACROSS stage) units
of a loop that may carry a controller, and a chunk driver ``k_<nid>``
for such a ``for`` (:meth:`Lowerer._emit_entries` is the one rule;
``controlled=None`` — any loop may carry one — is its widest case).
The emitted code replicates the walker's observable semantics exactly:
the same cost accounting (cycles are carried as ``cy8`` = cycles x 8 in
int64, every COSTS entry being a multiple of 0.125), the same
wrap/convert rules (two's complement wrapping via truncating casts,
Python's truncating integer division formula via ``__int128``) and the
same memory discipline (bump allocation with the exact alignment/growth
rules of :class:`repro.interp.memory.Memory`, and its heap policy for
``malloc``/``free`` — :data:`_HEAP`).  Steps are the one thing
counted differently: a compiled loop charges ``Env.steps`` once per
iteration against ``max_steps`` — a backstop that ends a runaway loop
with the walker's "step budget exceeded" error, not a statement count —
which is why an armed watchdog keeps a machine out of compiled code.

Values are carried in two C classes: ``'i'`` — int64 two's-complement
carrier for all integer/pointer types (unsigned-64 / pointer semantics
are recovered per *static* type where they matter: compares, division,
float conversion), and ``'f'`` — double (float32 intermediates are
rounded through ``(float)`` casts exactly like ``FloatType.wrap``).
Struct blobs (``'s'``) are carried as source addresses and moved with
``memmove``.

Anything the emitter cannot reproduce *exactly* raises :class:`NLError`
with an ``NL-*`` reason code; the whole function then falls back to the
bytecode closures, which is always semantics-preserving.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Set, Tuple

from ...frontend import ast
from ...frontend.ctypes import (
    ArrayType, CType, FloatType, IntType, PointerType, StructType,
)
from ..builtins import BUILTIN_IMPLS
from ..costs import COSTS
from ..memory import HEAP_FREE, HEAP_LIVE

#: bump when emitted code or ABI changes shape (part of the .so cache key)
NATIVE_ABI_VERSION = 5

# callback opcodes (Env->cb protocol)
OP_GROW = 1
OP_BUILTIN = 2
OP_CALLFB = 3
OP_STRLIT = 4
OP_HEAP = 5  # heap journal or mirror table full: replay, resize, go on

# entry return codes
RC_OK = 0
RC_FAULT = 1
RC_RETURN = 2
RC_BREAK = 3
RC_CONTINUE = 4

# return-value class codes (E->args channel on RC_RETURN)
RET_NONE = 0
RET_I64 = 1
RET_F64 = 2
RET_BLOB = 3
RET_U64 = 4

#: builtins emitted as plain C (same libm the Python implementations
#: call into, so results are bit-identical); everything else goes
#: through the callback into the Python implementation
_NATIVE_MATH = {
    "sqrt": ("sqrt", "fmath"), "exp": ("exp", "fmath"),
    "log": ("log", "fmath"), "sin": ("sin", "fmath"),
    "cos": ("cos", "fmath"), "floor": ("floor", "falu"),
    "ceil": ("ceil", "falu"), "fabs": ("fabs", "alu"),
    "pow": ("pow", "fmath"),
}

MASK64 = 0xFFFFFFFFFFFFFFFF

# heap mirror header slots, then the header length (Env->hm; see _HEAP
# and runtime._HeapMirror)
HM_FLAGS, HM_CAP, HM_USED, HM_JN, HM_JCAP, HM_QN, HM_HDR = range(7)
HM_REUSE = 1  # Memory.reuse_heap
HM_FREE = 2   # no free hooks attached: free() may run in C


def _cy8(key: str) -> int:
    v = COSTS[key] * 8
    iv = int(v)
    if iv != v:
        raise AssertionError(f"COSTS[{key}] is not a multiple of 1/8")
    return iv


class NLError(Exception):
    """A construct the native tier cannot lower exactly."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


class Val:
    """One evaluated expression: a C reference + value class + CType."""

    __slots__ = ("ref", "cls", "ct")

    def __init__(self, ref: str, cls: str, ct):
        self.ref = ref
        self.cls = cls
        self.ct = ct


def cls_of(ct) -> str:
    if isinstance(ct, FloatType):
        return "f"
    if isinstance(ct, StructType):
        return "s"
    if isinstance(ct, (IntType, PointerType, ArrayType)):
        return "i"
    return "v"  # void / unknown


def is_u64(ct) -> bool:
    """Types whose int64 carrier must be reinterpreted as unsigned."""
    if isinstance(ct, PointerType):
        return True
    return isinstance(ct, IntType) and not ct.signed and ct.size == 8


def _ilit(v: int) -> str:
    v &= MASK64
    if v >= 1 << 63:
        return f"((int64_t)UINT64_C({v}))"
    if v == (1 << 63):  # unreachable after the branch above; kept for clarity
        return "(-INT64_C(9223372036854775807) - 1)"
    return f"INT64_C({v})"


def _flit(v: float) -> str:
    if v != v:
        return "(0.0/0.0)"
    if v == float("inf"):
        return "(1.0/0.0)"
    if v == float("-inf"):
        return "(-1.0/0.0)"
    return f"{v.hex()}"


class FnMeta:
    __slots__ = ("nid", "name", "cname", "runner", "params", "ret_cls",
                 "ret_u64", "loop_nids", "callees")

    def __init__(self, nid, name, cname, runner, params, ret_cls, ret_u64):
        self.nid = nid
        self.name = name
        self.cname = cname
        #: exported zero-arg run wrapper (only for parameterless fns)
        self.runner = runner
        self.params = params          # tuple of param classes ('i'/'f')
        self.ret_cls = ret_cls
        self.ret_u64 = ret_u64
        self.loop_nids: Set[int] = set()
        self.callees: Set[int] = set()  # native-called fn nids


class UnitMeta:
    __slots__ = ("nid", "cname", "free", "loop_nids", "callees")

    def __init__(self, nid, cname, free):
        self.nid = nid
        self.cname = cname
        self.free = free              # tuple of free VarDecls (daddr order)
        self.loop_nids: Set[int] = set()
        self.callees: Set[int] = set()


class ChunkMeta:
    __slots__ = ("nid", "cname", "free", "control", "loop_nids", "callees")

    def __init__(self, nid, cname, free, control):
        self.nid = nid
        self.cname = cname
        self.free = free
        self.control = control        # the For's control VarDecl (or None)
        self.loop_nids: Set[int] = set()
        self.callees: Set[int] = set()


class FaultMeta:
    __slots__ = ("kind", "msg", "nid")

    def __init__(self, kind: str, msg: str, nid: Optional[int]):
        self.kind = kind              # "interp" | "memory"
        self.msg = msg
        self.nid = nid


class CallMeta:
    __slots__ = ("kind", "name", "nid", "args", "ret")

    def __init__(self, kind: str, name: str, nid: int,
                 args: Tuple, ret: str):
        self.kind = kind              # "builtin" | "user"
        self.name = name
        self.nid = nid
        #: per-arg decode spec: ('i', u64?) / ('f',) / ('s', size)
        self.args = args
        self.ret = ret                # 'i' / 'f' / 'v'


class Lowering:
    """The full result of lowering one program."""

    def __init__(self):
        self.source = ""
        self.fingerprint = ""
        self.fns: Dict[int, FnMeta] = {}
        self.fn_by_name: Dict[str, int] = {}
        self.units: Dict[int, UnitMeta] = {}
        self.chunks: Dict[int, ChunkMeta] = {}
        self.globals_order: Tuple = ()
        self.faults: List[FaultMeta] = []
        self.calls: List[CallMeta] = []
        #: interned string literals, in first-reference order; the
        #: runtime mirrors this into the ``E->saddr`` cache array
        self.strlits: List[ast.StrLit] = []
        self.strlit_idx: Dict[int, int] = {}
        #: a malloc/free call site runs in C (``rp_malloc``/``rp_free``
        #: are in the source, and the runtime attaches a heap mirror)
        self.heap = False
        self.nl: Dict[str, str] = {}
        self.exports: List[str] = []
        #: loop nids that may carry a controller (None = any loop): the
        #: set the entry points were emitted for
        self.controlled: Optional[frozenset] = None
        #: filled by the Lowerer for runtime dispatch
        self.sema = None
        self.node_by_nid: Dict[int, ast.Node] = {}
        self._closures: Dict[int, frozenset] = {}

    def covers(self, controlled: Optional[frozenset]) -> bool:
        """Whether a caller declaring ``controlled`` may use these
        entry points (a narrower lowering never serves a wider set)."""
        if self.controlled is None:
            return True
        return controlled is not None and controlled <= self.controlled

    def loop_closure(self, meta) -> frozenset:
        """All loop nids reachable through ``meta`` (incl. callees)."""
        cached = self._closures.get(id(meta))
        if cached is not None:
            return cached
        loops = set(meta.loop_nids)
        seen = set()
        stack = list(meta.callees)
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            fm = self.fns.get(nid)
            if fm is not None:
                loops |= fm.loop_nids
                stack.extend(fm.callees)
        out = self._closures[id(meta)] = frozenset(loops)
        return out


_PRELUDE = r"""
#include <stdint.h>
#include <string.h>
#include <setjmp.h>
#include <math.h>

typedef struct Env {
  char *M;
  int64_t cap;        /* guard ceiling when !ck: len(data) */
  int64_t cap_alloc;  /* alloc ceiling: limit (buffer) or len(data) */
  int64_t brk;
  int64_t ck;
  int64_t tid, nthreads;
  int64_t steps, max_steps;
  int64_t depth;
  int64_t cy8, ins, lds, sts;
  int64_t fault, rnone;
  int64_t args[16];
  double dargs[16];
  int64_t *gaddr;
  int64_t *daddr;
  int64_t *saddr;
  int64_t *hm;        /* heap mirror (NULL: malloc/free always upcall) */
  int64_t *hj;        /* heap journal: C -> Python, 5 int64 a record */
  int64_t *hq;        /* heap queue: Python -> C, 3 int64 a record */
  void *jbp;
  int64_t (*cb)(void *, int64_t, int64_t, int64_t);
} Env;

#define LJ longjmp(*(jmp_buf *)E->jbp, 1)
#define FAULT(s) do { FLUSH; E->fault = (s); LJ; } while (0)
#define CB(op, a, b) do { FLUSH; if (E->cb((void *)E, (op), (a), (b))) LJ; \
    M = E->M; } while (0)
#define GK(a, n) do { if (rp_gchk(E, (a), (n))) { E->args[0] = (a); \
    E->args[1] = (n); FAULT(0); } } while (0)
#define FLUSH do { E->cy8 += cy8; E->ins += ins; E->lds += lds; \
    E->sts += sts; cy8 = ins = lds = sts = 0; } while (0)

static int rp_gchk(Env *E, int64_t a, int64_t n) {
  uint64_t lo = E->ck ? 4096u : 0u;
  uint64_t hi = (uint64_t)(E->ck ? E->brk : E->cap);
  return ((uint64_t)a < lo) | ((uint64_t)a >= hi) |
         ((uint64_t)(a + n) > hi);
}

static int64_t rp_alloca(Env *E, int64_t sz) {
  int64_t a, end;
  if (sz < 1) sz = 1;
  a = (E->brk + 7) & ~(int64_t)7;
  end = a + sz;
  if (end > E->cap_alloc) {
    if (E->cb((void *)E, 1 /* OP_GROW */, end, 0)) LJ;
  }
  E->brk = end;
  return a;
}

static inline int64_t rp_ld_i8(const char *p) { int8_t v; memcpy(&v, p, 1); return v; }
static inline int64_t rp_ld_u8(const char *p) { uint8_t v; memcpy(&v, p, 1); return v; }
static inline int64_t rp_ld_i16(const char *p) { int16_t v; memcpy(&v, p, 2); return v; }
static inline int64_t rp_ld_u16(const char *p) { uint16_t v; memcpy(&v, p, 2); return v; }
static inline int64_t rp_ld_i32(const char *p) { int32_t v; memcpy(&v, p, 4); return v; }
static inline int64_t rp_ld_u32(const char *p) { uint32_t v; memcpy(&v, p, 4); return v; }
static inline int64_t rp_ld_i64(const char *p) { int64_t v; memcpy(&v, p, 8); return v; }
static inline double rp_ld_f32(const char *p) { float v; memcpy(&v, p, 4); return (double)v; }
static inline double rp_ld_f64(const char *p) { double v; memcpy(&v, p, 8); return v; }
static inline void rp_st_8(char *p, int64_t v) { uint8_t b = (uint8_t)v; memcpy(p, &b, 1); }
static inline void rp_st_16(char *p, int64_t v) { uint16_t b = (uint16_t)v; memcpy(p, &b, 2); }
static inline void rp_st_32(char *p, int64_t v) { uint32_t b = (uint32_t)v; memcpy(p, &b, 4); }
static inline void rp_st_64(char *p, int64_t v) { memcpy(p, &v, 8); }
static inline void rp_st_f32(char *p, double v) { float f = (float)v; memcpy(p, &f, 4); }
static inline void rp_st_f64(char *p, double v) { memcpy(p, &v, 8); }

/* Python int(v) & ((1<<64)-1): truncate toward zero, wrap mod 2^64. */
static int64_t rp_d2i(double v) {
  double t, r;
  if (v != v) return 0;  /* NaN: the walker crashes; documented divergence */
  if (v >= -9223372036854775808.0 && v < 9223372036854775808.0)
    return (int64_t)v;
  t = trunc(v);
  r = fmod(t, 18446744073709551616.0);
  if (r < 0) r += 18446744073709551616.0;
  if (r >= 18446744073709551615.0) return -1;
  return (int64_t)(uint64_t)r;
}

/* Python floor division of two int64s (pointer difference). */
static int64_t rp_fldiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) q--;
  return q;
}
"""


#: ``malloc``/``free`` in C, emitted only into a translation unit that
#: has a call site.  ``Memory``'s policy over a mirror of its heap
#: records: a header, then two insert-only open-addressed tables of
#: ``hm[HM_CAP]`` slots — heap blocks ``{addr, size, live, next}`` and
#: size buckets ``{size, top}`` whose chains are ``Memory._freelist``'s
#: LIFO lists.  Python's own heap operations arrive on the queue
#: (op 0 resets the tables) and are applied before any decision; every
#: decision made here goes to the journal for ``Memory`` to replay — a
#: full journal or a table more than half full first calls back
#: ``OP_HEAP``, which replays and resizes.  -1 means "take the
#: ``OP_BUILTIN`` upcall": what only Python can decide exactly.
_HEAP = f"""
enum {{ HM_FLAGS = {HM_FLAGS}, HM_CAP = {HM_CAP}, HM_USED = {HM_USED},
       HM_JN = {HM_JN}, HM_JCAP = {HM_JCAP}, HM_QN = {HM_QN},
       HM_HDR = {HM_HDR} }};

static int64_t *rp_hfind(int64_t *T, int64_t cap, int w, int64_t key,
                         int ins) {{
  uint64_t m = (uint64_t)cap - 1;
  uint64_t i = (((uint64_t)key * UINT64_C(0x9E3779B97F4A7C15)) >> 29) & m;
  for (;; i = (i + 1) & m) {{
    int64_t *s = T + w * i;
    if (s[0] == key) return s;
    if (!s[0]) {{
      if (!ins) return 0;
      s[0] = key; s[w - 1] = -1;
      return s;
    }}
  }}
}}

/* block a of sz bytes turns live or free; a free block leaves its
   bucket first, and a freed one goes on top when blocks are reused */
static void rp_hset(int64_t *H, int64_t a, int64_t sz, int64_t live) {{
  int64_t cap = H[HM_CAP], *B = H + HM_HDR, *S = B + 4 * cap;
  int64_t *s = rp_hfind(B, cap, 4, a, 1), i = (s - B) / 4, *b, *p;
  if (!s[1]) H[HM_USED] += 1;
  else if (!s[2] && (b = rp_hfind(S, cap, 2, s[1], 0))) {{
    for (p = &b[1]; *p >= 0 && *p != i; p = &B[4 * *p + 3]) {{}}
    if (*p == i) *p = s[3];
  }}
  s[1] = sz; s[2] = live; s[3] = -1;
  if (!live && (H[HM_FLAGS] & {HM_REUSE})) {{
    b = rp_hfind(S, cap, 2, sz, 1);
    s[3] = b[1]; b[1] = i;
  }}
}}

static void rp_hdrain(Env *E, int64_t *H) {{
  const int64_t *q = E->hq, *end = q + 3 * H[HM_QN];
  for (; q < end; q += 3) {{
    if (q[0]) rp_hset(H, q[1], q[2], q[0] == {HEAP_LIVE});
    else {{ memset(H + HM_HDR, 0, 48 * (size_t)H[HM_CAP]); H[HM_USED] = 0; }}
  }}
  H[HM_QN] = 0;
}}

static void rp_hlog(Env *E, int64_t *H, int64_t op, int64_t a, int64_t sz,
                    int64_t nid) {{
  int64_t *j = E->hj + 5 * H[HM_JN];
  H[HM_JN] += 1;
  j[0] = op; j[1] = a; j[2] = sz; j[3] = nid; j[4] = E->brk;
}}

/* one more decision fits: a journal slot free, the block table at
   most half full after the queue is applied (else OP_HEAP), and the
   queue applied */
static int64_t *rp_hready(Env *E) {{
  int64_t *H = E->hm;
  if (H[HM_JN] == H[HM_JCAP] ||
      2 * (H[HM_USED] + H[HM_QN]) + 2 > H[HM_CAP]) {{
    if (E->cb((void *)E, {OP_HEAP}, 0, 0)) LJ;
    H = E->hm;
  }}
  if (H[HM_QN]) rp_hdrain(E, H);
  return H;
}}

/* Memory.alloc(sz, HEAP): exact-size LIFO reuse (zero-filled), else an
   8-aligned bump from E->brk that must fit below cap_alloc */
static int64_t rp_malloc(Env *E, int64_t sz, int64_t nid) {{
  int64_t *H, *b = 0, a;
  if (!E->hm || sz < 0) return -1;
  H = rp_hready(E);
  if (sz < 1) sz = 1;
  if (H[HM_FLAGS] & {HM_REUSE})
    b = rp_hfind(H + HM_HDR + 4 * H[HM_CAP], H[HM_CAP], 2, sz, 0);
  if (b && b[1] >= 0) {{
    a = H[HM_HDR + 4 * b[1]];
    memset(E->M + a, 0, (size_t)sz);
  }} else {{
    a = (E->brk + 7) & ~(int64_t)7;
    if (sz > E->cap_alloc - a) return -1;
  }}
  rp_hlog(E, H, {HEAP_LIVE}, a, sz, nid);
  rp_hset(H, a, sz, 1);
  if (a + sz > E->brk) E->brk = a + sz;
  E->cy8 += {_cy8('malloc')};
  return a;
}}

/* Memory.free(a) for a live heap block or NULL, with no free hooks */
static int64_t rp_free(Env *E, int64_t a, int64_t nid) {{
  int64_t *H = E->hm, *s;
  if (!H || !(H[HM_FLAGS] & {HM_FREE})) return -1;
  if (a) {{
    H = rp_hready(E);
    s = rp_hfind(H + HM_HDR, H[HM_CAP], 4, a, 0);
    if (!s || !s[2]) return -1;
    rp_hlog(E, H, {HEAP_FREE}, a, s[1], nid);
    rp_hset(H, a, s[1], 0);
  }}
  E->cy8 += {_cy8('free')};
  return 0;
}}
"""


class _Emit:
    """Emission context for one function / unit / chunk driver."""

    def __init__(self, low: "Lowerer"):
        self.low = low
        self.lines: List[str] = []
        self.ntmp = 0
        #: VarDecl -> C expression holding its address (bound locals)
        self.bound: Dict[ast.VarDecl, str] = {}
        #: free (outer-frame) decls, resolved via E->daddr at dispatch
        self.free_order: List[ast.VarDecl] = []
        self.free_idx: Dict[ast.VarDecl, int] = {}
        self.loop_nids: Set[int] = set()
        self.callees: Set[int] = set()
        #: loop nid stack for break/continue targets; entries are
        #: (break_label, continue_label) or None (unit boundary)
        self.loops: List = []
        self.in_function = False  # True inside f_<nid> (returns are C returns)
        self.ret_cls = "v"
        self.ret_u64 = False
        self.ret_ct = None

    # -- plumbing ---------------------------------------------------------
    def t(self, ctype: str = "int64_t") -> str:
        self.ntmp += 1
        name = f"t{self.ntmp}"
        self.lines.append(f"  {ctype} {name};")
        return name

    def o(self, line: str):
        self.lines.append("  " + line)

    def label(self, name: str):
        self.lines.append(f"{name}:;")

    # -- registries -------------------------------------------------------
    def fault_site(self, kind: str, msg: str, nid: Optional[int]) -> int:
        faults = self.low.result.faults
        faults.append(FaultMeta(kind, msg, nid))
        return len(faults)  # site 0 is the guard; faults are 1-based

    def call_site(self, kind, name, nid, args, ret) -> int:
        calls = self.low.result.calls
        calls.append(CallMeta(kind, name, nid, args, ret))
        return len(calls) - 1

    # -- variable addressing ---------------------------------------------
    def var_addr_ref(self, decl: ast.VarDecl) -> str:
        ref = self.bound.get(decl)
        if ref is not None:
            return ref
        gidx = self.low.global_idx.get(decl)
        if gidx is not None:
            return f"E->gaddr[{gidx}]"
        if self.in_function:
            # a C function body can only see its own locals and globals
            raise NLError("NL-FREE-VAR", decl.name)
        idx = self.free_idx.get(decl)
        if idx is None:
            idx = len(self.free_order)
            self.free_order.append(decl)
            self.free_idx[decl] = idx
        return f"E->daddr[{idx}]"

    # -- conversions ------------------------------------------------------
    def wrap_int(self, x: str, ct: IntType) -> str:
        bits = 8 * ct.size
        if bits == 64:
            return f"(int64_t)(uint64_t)({x})"
        u = {8: "uint8_t", 16: "uint16_t", 32: "uint32_t"}[bits]
        s = {8: "int8_t", 16: "int16_t", 32: "int32_t"}[bits]
        if ct.signed:
            return f"(int64_t)({s})({u})(uint64_t)({x})"
        return f"(int64_t)({u})(uint64_t)({x})"

    def to_double(self, v: Val) -> str:
        if v.cls == "f":
            return v.ref
        if is_u64(v.ct):
            return f"(double)(uint64_t)({v.ref})"
        return f"(double)({v.ref})"

    def conv(self, v: Val, target) -> Val:
        """``make_convert(target)`` applied to ``v`` (carrier domain)."""
        if isinstance(target, IntType):
            if v.cls == "f":
                return Val(self.wrap_int(f"rp_d2i({v.ref})", target),
                           "i", target)
            if v.cls != "i":
                raise NLError("NL-CONV", f"{v.cls}->int")
            return Val(self.wrap_int(v.ref, target), "i", target)
        if isinstance(target, FloatType):
            d = self.to_double(v) if v.cls in ("i", "f") else None
            if d is None:
                raise NLError("NL-CONV", f"{v.cls}->float")
            if target.size == 4:
                d = f"(double)(float)({d})"
            return Val(d, "f", target)
        if isinstance(target, PointerType):
            if v.cls == "f":
                return Val(f"rp_d2i({v.ref})", "i", target)
            if v.cls != "i":
                raise NLError("NL-CONV", f"{v.cls}->ptr")
            return Val(v.ref, "i", target)
        return v

    def truth(self, v: Val) -> str:
        if v.cls == "f":
            return f"({v.ref} != 0.0)"
        if v.cls == "i":
            return f"({v.ref} != 0)"
        raise NLError("NL-TRUTH", v.cls)

    # -- memory -----------------------------------------------------------
    def load_scalar(self, addr: str, ct, cheap: bool, guarded: bool) -> Val:
        """Scalar read matching ``make_load`` / ``make_scalar_value``:
        guard where the walker bounds-checks, LOAD cost unless cheap."""
        if guarded:
            self.o(f"GK({addr}, {ct.size});")
        fmt = ct.fmt
        fn = {
            "b": "rp_ld_i8", "B": "rp_ld_u8", "h": "rp_ld_i16",
            "H": "rp_ld_u16", "i": "rp_ld_i32", "I": "rp_ld_u32",
            "q": "rp_ld_i64", "Q": "rp_ld_i64",
        }.get(fmt)
        if fn is not None:
            t = self.t()
            self.o(f"{t} = {fn}(M + {addr});")
            out = Val(t, "i", ct)
        elif fmt == "f":
            t = self.t("double")
            self.o(f"{t} = rp_ld_f32(M + {addr});")
            out = Val(t, "f", ct)
        elif fmt == "d":
            t = self.t("double")
            self.o(f"{t} = rp_ld_f64(M + {addr});")
            out = Val(t, "f", ct)
        else:
            raise NLError("NL-FMT", fmt)
        if not cheap:
            self.o(f"cy8 += {_cy8('load')}; lds += 1;")
        return out

    def load_value(self, addr: str, ct, cheap: bool,
                   guarded: bool = True) -> Val:
        """``make_load``: scalar, struct blob, or array decay."""
        if isinstance(ct, ArrayType):
            return Val(addr, "i", ct)
        if isinstance(ct, StructType):
            if guarded:
                self.o(f"GK({addr}, {ct.size});")
            if not cheap:
                self.o(f"cy8 += {_cy8('load') + ct.size}; lds += 1;")
            return Val(addr, "s", ct)
        return self.load_scalar(addr, ct, cheap, guarded)

    def store_value(self, addr: str, v: Val, ct, cheap: bool,
                    guarded: bool = True):
        """``make_store``: convert + guard + pack + STORE cost."""
        if isinstance(ct, ArrayType):
            raise NLError("NL-ARRAY-STORE")
        if isinstance(ct, StructType):
            if v.cls != "s":
                raise NLError("NL-STRUCT-STORE", v.cls)
            if guarded:
                self.o(f"GK({addr}, {ct.size});")
            self.o(f"memmove(M + {addr}, M + {v.ref}, {ct.size});")
            if not cheap:
                self.o(f"cy8 += {_cy8('store') + ct.size}; sts += 1;")
            return
        cv = self.conv(v, ct)
        if guarded:
            self.o(f"GK({addr}, {ct.size});")
        fmt = ct.fmt
        if fmt in ("b", "B"):
            self.o(f"rp_st_8(M + {addr}, {cv.ref});")
        elif fmt in ("h", "H"):
            self.o(f"rp_st_16(M + {addr}, {cv.ref});")
        elif fmt in ("i", "I"):
            self.o(f"rp_st_32(M + {addr}, {cv.ref});")
        elif fmt in ("q", "Q"):
            self.o(f"rp_st_64(M + {addr}, {cv.ref});")
        elif fmt == "f":
            self.o(f"rp_st_f32(M + {addr}, {cv.ref});")
        elif fmt == "d":
            self.o(f"rp_st_f64(M + {addr}, {cv.ref});")
        else:
            raise NLError("NL-FMT", fmt)
        if not cheap:
            self.o(f"cy8 += {_cy8('store')}; sts += 1;")

    def alloca(self, size_ref: str, out: str):
        # a grow callback may swap the backing buffer: reload M
        self.o(f"{out} = rp_alloca(E, {size_ref}); M = E->M;")

    # -- reg-slot analysis (mirrors Machine._is_reg_slot) -----------------
    def is_reg_slot(self, e) -> bool:
        if isinstance(e, ast.Ident):
            d = e.decl
            return isinstance(d, ast.VarDecl) and \
                d.storage in ("local", "param") and \
                not isinstance(d.ctype, ArrayType)
        if isinstance(e, ast.Index):
            idx = e.index
            fixed = isinstance(idx, ast.IntLit) or (
                isinstance(idx, ast.Ident)
                and (idx.decl is self.low.tid_decl
                     or idx.decl is self.low.nthreads_decl))
            if not fixed:
                return False
            base = e.base
            return isinstance(base, ast.Ident) and \
                isinstance(base.decl, ast.VarDecl) and \
                base.decl.storage in ("local", "param")
        if isinstance(e, ast.Member) and not e.arrow:
            return self.is_reg_slot(e.base)
        return False

    # ======================================================================
    # expressions
    # ======================================================================
    def expr(self, e) -> Val:
        fn = _X.get(type(e))
        if fn is None:
            raise NLError("NL-NODE", type(e).__name__)
        return fn(self, e)

    def addr_of(self, e) -> str:
        """lvalue address (mirrors ``compile_addr``: no cost, no bump)."""
        if isinstance(e, ast.Ident):
            d = e.decl
            if d is self.low.tid_decl or d is self.low.nthreads_decl:
                raise NLError("NL-TIDADDR")
            if not isinstance(d, ast.VarDecl):
                raise NLError("NL-LVALUE", type(d).__name__)
            return self.var_addr_ref(d)
        if isinstance(e, ast.Unary) and e.op == "*":
            v = self.expr(e.operand)
            if v.cls != "i":
                raise NLError("NL-DEREF", v.cls)
            return v.ref
        if isinstance(e, ast.Index):
            b = self.expr(e.base)
            i = self.expr(e.index)
            if b.cls != "i" or i.cls != "i":
                raise NLError("NL-INDEX")
            esize = e.ctype.size
            if esize is None:
                raise NLError("NL-INCOMPLETE")
            t = self.t()
            self.o(f"{t} = {b.ref} + {i.ref} * {esize};")
            return t
        if isinstance(e, ast.Member):
            if e.arrow:
                st = e.base.ctype.decay().pointee
                fld = st.field(e.name)
                b = self.expr(e.base)
                t = self.t()
                self.o(f"{t} = {b.ref} + {fld.offset};")
                return t
            fld = e.base.ctype.field(e.name)
            base = self.addr_of(e.base)
            t = self.t()
            self.o(f"{t} = {base} + {fld.offset};")
            return t
        if isinstance(e, ast.Cast):
            return self.addr_of(e.expr)
        if isinstance(e, ast.Comma):
            self.expr(e.left)
            return self.addr_of(e.right)
        raise NLError("NL-LVALUE", type(e).__name__)

    # -- shared binop apply (mirrors make_binop_apply) --------------------
    def binop_apply(self, op: str, l: Val, r: Val, result_ct,
                    nid: Optional[int], lt, rt) -> Val:
        if isinstance(lt, PointerType) and isinstance(rt, PointerType) \
                and op == "-":
            esize = lt.pointee.size or 1
            self.o(f"cy8 += {_cy8('ptrdiff')};")
            t = self.t()
            self.o(f"{t} = rp_fldiv({l.ref} - {r.ref}, {esize});")
            return Val(t, "i", result_ct)
        if isinstance(lt, PointerType) and op in ("+", "-"):
            esize = lt.pointee.size
            self.o(f"cy8 += {_cy8('lea')};")
            if esize is None:
                site = self.fault_site("interp", "arithmetic on void*", nid)
                self.o(f"FAULT({site});")
                return Val("0", "i", result_ct)
            t = self.t()
            self.o(f"{t} = {l.ref} {op} {r.ref} * {esize};")
            return Val(t, "i", result_ct)
        if isinstance(rt, PointerType) and op == "+":
            esize = rt.pointee.size
            self.o(f"cy8 += {_cy8('lea')};")
            if esize is None:
                site = self.fault_site("interp", "arithmetic on void*", nid)
                self.o(f"FAULT({site});")
                return Val("0", "i", result_ct)
            t = self.t()
            self.o(f"{t} = {r.ref} + {l.ref} * {esize};")
            return Val(t, "i", result_ct)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            self.o(f"cy8 += {_cy8('alu')};")
            t = self.t()
            if l.cls == "f" or r.cls == "f":
                self.o(f"{t} = ({self.to_double(l)} {op} "
                       f"{self.to_double(r)});")
            else:
                lu, ru = is_u64(lt), is_u64(rt)
                if lu and ru:
                    self.o(f"{t} = ((uint64_t){l.ref} {op} "
                           f"(uint64_t){r.ref});")
                elif not lu and not ru:
                    self.o(f"{t} = ({l.ref} {op} {r.ref});")
                else:
                    lc = f"(__int128)(uint64_t){l.ref}" if lu \
                        else f"(__int128){l.ref}"
                    rc = f"(__int128)(uint64_t){r.ref}" if ru \
                        else f"(__int128){r.ref}"
                    self.o(f"{t} = ({lc} {op} {rc});")
            return Val(t, "i", result_ct)
        if isinstance(result_ct, FloatType):
            ld, rd = self.to_double(l), self.to_double(r)
            if op == "/":
                site = self.fault_site("interp", "float division by zero",
                                       nid)
                self.o(f"cy8 += {_cy8('fdiv')};")
                self.o(f"if ({rd} == 0.0) FAULT({site});")
            elif op in ("+", "-", "*"):
                self.o(f"cy8 += {_cy8('falu')};")
            else:
                raise NLError("NL-FLOAT-OP", op)
            t = self.t("double")
            x = f"({ld} {op} {rd})"
            if result_ct.size == 4:
                x = f"(double)(float){x}"
            self.o(f"{t} = {x};")
            return Val(t, "f", result_ct)
        # integer domain; operands may still be float (compound assigns)
        if not isinstance(result_ct, IntType):
            raise NLError("NL-BINOP-RESULT", str(result_ct))
        if l.cls == "f" or r.cls == "f":
            # the walker computes in Python float then wraps via int();
            # reproduce: to double, C op, truncate, wrap
            if op in ("+", "-", "*"):
                self.o(f"cy8 += {_cy8('alu') if op in ('+', '-') else _cy8('imul')};")
                t = self.t("double")
                self.o(f"{t} = ({self.to_double(l)} {op} "
                       f"{self.to_double(r)});")
                return self.conv(Val(t, "f", result_ct), result_ct)
            raise NLError("NL-MIXED-OP", op)
        li, ri = l.ref, r.ref
        if op in ("+", "-"):
            self.o(f"cy8 += {_cy8('alu')};")
            x = f"((uint64_t){li} {op} (uint64_t){ri})"
        elif op == "*":
            self.o(f"cy8 += {_cy8('imul')};")
            x = f"((uint64_t){li} * (uint64_t){ri})"
        elif op in ("/", "%"):
            site = self.fault_site("interp", "integer division by zero", nid)
            self.o(f"cy8 += {_cy8('idiv')};")
            self.o(f"if ({ri} == 0) FAULT({site});")
            lc = f"(__int128)(uint64_t){li}" if is_u64(lt) \
                else f"(__int128){li}"
            rc = f"(__int128)(uint64_t){ri}" if is_u64(rt) \
                else f"(__int128){ri}"
            t = self.t()
            if op == "/":
                self.o(f"{t} = {self.wrap_int(f'({lc}) / ({rc})', result_ct)};")
            else:
                self.o(f"{{ __int128 q_ = ({lc}) / ({rc}); "
                       f"{t} = {self.wrap_int(f'({lc}) - q_ * ({rc})', result_ct)}; }}")
            return Val(t, "i", result_ct)
        elif op == "<<":
            self.o(f"cy8 += {_cy8('alu')};")
            x = f"((uint64_t){li} << ({ri} & 63))"
        elif op == ">>":
            self.o(f"cy8 += {_cy8('alu')};")
            if isinstance(lt, IntType) and not lt.signed:
                bits = 8 * lt.size
                m = (1 << bits) - 1
                x = f"(int64_t)(((uint64_t){li} & UINT64_C({m})) >> ({ri} & 63))"
            else:
                x = f"({li} >> ({ri} & 63))"
        elif op in ("&", "|", "^"):
            self.o(f"cy8 += {_cy8('alu')};")
            x = f"((uint64_t){li} {op} (uint64_t){ri})"
        else:
            raise NLError("NL-OP", op)
        t = self.t()
        self.o(f"{t} = {self.wrap_int(x, result_ct)};")
        return Val(t, "i", result_ct)

    # -- expression node emitters -----------------------------------------
    def _x_intlit(self, e):
        self.o("ins += 1;")
        return Val(_ilit(e.value), "i", e.ctype)

    def _x_floatlit(self, e):
        self.o("ins += 1;")
        return Val(_flit(e.value), "f", e.ctype)

    def _x_strlit(self, e):
        self.o("ins += 1;")
        res = self.low.result
        idx = res.strlit_idx.get(e.nid)
        if idx is None:
            idx = len(res.strlits)
            res.strlits.append(e)
            res.strlit_idx[e.nid] = idx
        # first evaluation interns via the callback (walker timing: the
        # RODATA block allocates at first eval, not at dispatch); the
        # wrapper fills saddr[idx] so later evals stay in C
        t = self.t()
        self.o(f"if (E->saddr[{idx}] < 0) CB({OP_STRLIT}, {e.nid}, {idx});")
        self.o(f"{t} = E->saddr[{idx}];")
        return Val(t, "i", e.ctype)

    def _x_ident(self, e):
        d = e.decl
        if d is self.low.tid_decl:
            self.o("ins += 1;")
            t = self.t()
            self.o(f"{t} = E->tid;")
            return Val(t, "i", e.ctype)
        if d is self.low.nthreads_decl:
            self.o("ins += 1;")
            t = self.t()
            self.o(f"{t} = E->nthreads;")
            return Val(t, "i", e.ctype)
        if not isinstance(d, ast.VarDecl):
            raise NLError("NL-FNDESIG", getattr(d, "name", "?"))
        addr = self.var_addr_ref(d)
        ct = d.ctype
        self.o("ins += 1;")
        if isinstance(ct, ArrayType):
            t = self.t()
            self.o(f"{t} = {addr};")
            return Val(t, "i", ct)
        cheap = d.storage in ("local", "param")
        if isinstance(ct, StructType):
            return self.load_value(addr, ct, cheap, guarded=True)
        if cheap:
            # fused local read: no bounds check with no redirector
            return self.load_scalar(addr, ct, True, guarded=False)
        return self.load_scalar(addr, ct, False, guarded=True)

    def _incdec_delta(self, ct) -> Tuple[str, bool]:
        """(delta C literal, is_float) for ++/--; NL on void*."""
        if isinstance(ct, PointerType):
            if ct.pointee.size is None:
                raise NLError("NL-VOIDPTR")
            return str(ct.pointee.size), False
        if isinstance(ct, FloatType):
            return "1.0", True
        return "1", False

    def _x_unary(self, e):
        op = e.op
        if op == "&":
            # address computation first (mirrors closure order), bump after
            a = self.addr_of(e.operand)
            self.o("ins += 1;")
            return Val(a, "i", e.ctype)
        if op == "*":
            v = self.expr(e.operand)
            self.o("ins += 1;")
            if v.cls != "i":
                raise NLError("NL-DEREF", v.cls)
            return self.load_value(v.ref, e.ctype, False, guarded=True)
        if op in ("++", "--", "p++", "p--"):
            post = op.startswith("p")
            sign = "+" if "++" in op else "-"
            operand = e.operand
            ct = operand.ctype
            fused = (isinstance(operand, ast.Ident)
                     and isinstance(operand.decl, ast.VarDecl)
                     and operand.decl.storage in ("local", "param")
                     and isinstance(ct, (IntType, FloatType, PointerType)))
            delta, fdelta = self._incdec_delta(ct)
            self.o("ins += 1;")
            if fused:
                addr = self.var_addr_ref(operand.decl)
                old = self.load_scalar(addr, ct, True, guarded=False)
                self.o(f"cy8 += {_cy8('alu')};")
                raw = Val(f"({old.ref} {sign} {delta})",
                          "f" if fdelta else "i", ct)
                new = self.conv(raw, ct)
                nt = self.t("double" if new.cls == "f" else "int64_t")
                self.o(f"{nt} = {new.ref};")
                new = Val(nt, new.cls, ct)
                self.store_value(addr, new, ct, cheap=True, guarded=False)
                return old if post else new
            cheap = self.is_reg_slot(operand)
            a = self.addr_of(operand)
            old = self.load_value(a, ct, cheap, guarded=True)
            self.o(f"cy8 += {_cy8('alu')};")
            raw = Val(f"({old.ref} {sign} {delta})",
                      "f" if fdelta else "i", ct)
            self.store_value(a, raw, ct, cheap, guarded=True)
            return old if post else self.conv(raw, ct)
        v = self.expr(e.operand)
        self.o("ins += 1;")
        self.o(f"cy8 += {_cy8('alu')};")
        if op == "-":
            if isinstance(e.ctype, IntType):
                t = self.t()
                self.o(f"{t} = {self.wrap_int(f'-(uint64_t)({v.ref})', e.ctype)};")
                return Val(t, "i", e.ctype)
            t = self.t("double")
            self.o(f"{t} = -({self.to_double(v)});")
            return Val(t, "f", e.ctype)
        if op == "!":
            t = self.t()
            self.o(f"{t} = {self.truth(v)} ? 0 : 1;")
            return Val(t, "i", e.ctype)
        if op == "~":
            if v.cls != "i":
                raise NLError("NL-BITNOT", v.cls)
            t = self.t()
            self.o(f"{t} = {self.wrap_int(f'~(uint64_t)({v.ref})', e.ctype)};")
            return Val(t, "i", e.ctype)
        raise NLError("NL-UNARY", op)

    def _x_binary(self, e):
        op = e.op
        if op in ("&&", "||"):
            self.o("ins += 1;")
            self.o(f"cy8 += {_cy8('alu')};")
            t = self.t()
            l = self.expr(e.left)
            if op == "&&":
                self.o(f"{t} = 0;")
                self.o(f"if ({self.truth(l)}) {{")
                r = self.expr(e.right)
                self.o(f"{t} = {self.truth(r)} ? 1 : 0;")
                self.o("}")
            else:
                self.o(f"{t} = 1;")
                self.o(f"if (!{self.truth(l)}) {{")
                r = self.expr(e.right)
                self.o(f"{t} = {self.truth(r)} ? 1 : 0;")
                self.o("}")
            return Val(t, "i", e.ctype)
        self.o("ins += 1;")
        l = self.expr(e.left)
        r = self.expr(e.right)
        lt = e.left.ctype.decay() if e.left.ctype is not None else None
        rt = e.right.ctype.decay() if e.right.ctype is not None else None
        return self.binop_apply(op, l, r, e.ctype, e.nid, lt, rt)

    def _x_assign(self, e):
        target = e.target
        if e.op == "=":
            tct = target.ctype
            fused = (isinstance(target, ast.Ident)
                     and isinstance(target.decl, ast.VarDecl)
                     and target.decl.storage in ("local", "param")
                     and isinstance(tct, (IntType, FloatType, PointerType)))
            self.o("ins += 1;")
            if fused:
                addr = self.var_addr_ref(target.decl)
                value = self.expr(e.value)
                self.store_value(addr, value, tct, cheap=True, guarded=False)
                return value  # unconverted, like the walker
            addr = self.addr_of(target)
            value = self.expr(e.value)
            self.store_value(addr, value, tct,
                             cheap=self.is_reg_slot(target), guarded=True)
            return value
        # compound assignment: load-modify-store
        op = e.op[:-1]
        tct = target.ctype
        if isinstance(tct, (StructType, ArrayType)):
            raise NLError("NL-COMPOUND", cls_of(tct))
        self.o("ins += 1;")
        cheap = self.is_reg_slot(target)
        a = self.addr_of(target)
        at = self.t()
        self.o(f"{at} = {a};")
        old = self.load_value(at, tct, cheap, guarded=True)
        rhs = self.expr(e.value)
        if isinstance(tct, PointerType):
            # mirrors the dedicated pointer-compound path: LEA charge,
            # old +/- int(rhs) * esize, raw store, converted result
            esize = tct.pointee.size
            if esize is None:
                site = self.fault_site("interp", "arithmetic on void*",
                                       e.nid)
                self.o(f"FAULT({site});")
                return Val("0", "i", tct)
            if op not in ("+", "-"):
                raise NLError("NL-PTR-COMPOUND", op)
            ri = f"rp_d2i({rhs.ref})" if rhs.cls == "f" else rhs.ref
            self.o(f"cy8 += {_cy8('lea')};")
            nt = self.t()
            self.o(f"{nt} = {old.ref} {op} ({ri}) * {esize};")
            new = Val(nt, "i", tct)
            self.store_value(at, new, tct, cheap, guarded=True)
            return self.conv(new, tct)
        lt = tct.decay() if tct is not None else None
        rt = e.value.ctype.decay() if e.value.ctype is not None else None
        new = self.binop_apply(op, old, rhs, tct, None, lt, rt)
        self.store_value(at, new, tct, cheap, guarded=True)
        return self.conv(new, tct)

    def _x_cond(self, e):
        self.o("ins += 1;")
        self.o(f"cy8 += {_cy8('alu')};")
        c = self.expr(e.cond)
        # one carrier must hold either branch's value: ints promote to
        # double when the classes mix (documented >2^53 divergence),
        # but differing 64-bit signedness has no shared carrier
        tct = e.then.ctype
        ect = e.els.ctype
        tcls = cls_of(tct)
        ecls = cls_of(ect)
        if "s" in (tcls, ecls) or "v" in (tcls, ecls):
            raise NLError("NL-COND-CLASS", f"{tcls}/{ecls}")
        merged = "f" if "f" in (tcls, ecls) else "i"
        if merged == "i" and is_u64(tct) != is_u64(ect):
            raise NLError("NL-COND-SIGN")
        t = self.t("double" if merged == "f" else "int64_t")
        self.o(f"if ({self.truth(c)}) {{")
        tv = self.expr(e.then)
        self.o(f"{t} = {self.to_double(tv) if merged == 'f' else tv.ref};")
        self.o("} else {")
        ev = self.expr(e.els)
        self.o(f"{t} = {self.to_double(ev) if merged == 'f' else ev.ref};")
        self.o("}")
        ct = tct if cls_of(tct) == merged else ect
        return Val(t, merged, ct)

    def _x_index(self, e):
        b = self.expr(e.base)
        i = self.expr(e.index)
        if b.cls != "i" or i.cls != "i":
            raise NLError("NL-INDEX")
        esize = e.ctype.size
        if esize is None:
            raise NLError("NL-INCOMPLETE")
        a = self.t()
        self.o(f"{a} = {b.ref} + {i.ref} * {esize};")
        self.o("ins += 1;")
        return self.load_value(a, e.ctype, self.is_reg_slot(e), guarded=True)

    def _x_member(self, e):
        if e.arrow:
            st = e.base.ctype.decay().pointee
            fld = st.field(e.name)
            b = self.expr(e.base)
            a = self.t()
            self.o(f"{a} = {b.ref} + {fld.offset};")
        else:
            fld = e.base.ctype.field(e.name)
            base = self.addr_of(e.base)
            a = self.t()
            self.o(f"{a} = {base} + {fld.offset};")
        self.o("ins += 1;")
        return self.load_value(a, e.ctype, self.is_reg_slot(e), guarded=True)

    def _x_cast(self, e):
        # counted before the operand, like the walker: an upcall that
        # raises inside ``(T*)malloc(n)`` leaves the same count
        self.o("ins += 1;")
        v = self.expr(e.expr)
        to = e.to_type
        if isinstance(to, IntType):
            return self.conv(v, to)
        if isinstance(to, FloatType):
            return self.conv(v, to)
        if isinstance(to, PointerType):
            # the walker does int(v) with NO mask: negative ints stay
            # negative (carrier identity); floats truncate
            if v.cls == "f":
                return Val(f"rp_d2i({v.ref})", "i", to)
            if v.cls != "i":
                raise NLError("NL-CAST", v.cls)
            return Val(v.ref, "i", to)
        return Val(v.ref, v.cls, to)

    def _x_sizeof_type(self, e):
        if e.of_type.size is None:
            raise NLError("NL-SIZEOF")
        self.o("ins += 1;")
        return Val(_ilit(e.of_type.size), "i", e.ctype)

    def _x_sizeof_expr(self, e):
        ct = e.expr.ctype
        if ct is None or ct.size is None:
            raise NLError("NL-SIZEOF")
        self.o("ins += 1;")
        return Val(_ilit(ct.size), "i", e.ctype)

    def _x_comma(self, e):
        self.o("ins += 1;")
        self.expr(e.left)
        return self.expr(e.right)

    # -- calls -------------------------------------------------------------
    def _arg_spec(self, v: Val):
        if v.cls == "i":
            return ("i", is_u64(v.ct))
        if v.cls == "f":
            return ("f",)
        if v.cls == "s":
            return ("s", v.ct.size)
        raise NLError("NL-ARG-CLASS", v.cls)

    def _encode_args(self, vals):
        specs = []
        if len(vals) > 16:
            raise NLError("NL-ARGC", str(len(vals)))
        for i, v in enumerate(vals):
            spec = self._arg_spec(v)
            specs.append(spec)
            if spec[0] == "f":
                self.o(f"E->dargs[{i}] = {v.ref};")
            else:
                self.o(f"E->args[{i}] = {v.ref};")
        return tuple(specs)

    def _decode_result(self, ct) -> Val:
        rcls = cls_of(ct)
        if rcls == "f":
            t = self.t("double")
            self.o(f"{t} = E->dargs[0];")
            return Val(t, "f", ct)
        if rcls == "i":
            t = self.t()
            self.o(f"{t} = E->args[0];")
            return Val(t, "i", ct)
        if rcls == "v":
            return Val("0", "v", ct)
        raise NLError("NL-RET-CLASS", rcls)

    def _callfb(self, fn_or_name, e, vals) -> Val:
        """Route one call site through the Python machine (exact
        semantics for anything the native ABI cannot carry)."""
        specs = self._encode_args(vals)
        rcls = cls_of(e.ctype)
        if rcls == "s":
            raise NLError("NL-RET-BLOB-FB")
        kind = "builtin" if isinstance(fn_or_name, str) else "user"
        name = fn_or_name if kind == "builtin" else fn_or_name.name
        site = self.call_site(kind, name, e.nid, specs, rcls)
        self.o(f"CB({OP_CALLFB if kind == 'user' else OP_BUILTIN}, "
               f"{site}, 0);")
        return self._decode_result(e.ctype)

    def _heap_call(self, name, e, v: Val) -> Val:
        """``malloc``/``free`` through ``rp_malloc``/``rp_free``; what
        they cannot decide exactly takes the upcall, the way
        ``_native_math`` diverts a domain error."""
        self.low.result.heap = True
        t = self.t()
        self.o(f"{t} = rp_{name}(E, {v.ref}, {e.nid});")
        self.o(f"if ({t} < 0) {{")
        r = self._callfb(name, e, [v])
        if name == "malloc":
            self.o(f"{t} = {r.ref};")
        self.o("}")
        return Val(t, "i", e.ctype) if name == "malloc" else r

    def _native_math(self, name, e, vals) -> Val:
        """Emit a math builtin as plain C with guards that divert to
        the Python implementation wherever it would raise (domain
        errors -> ValueError, overflow -> OverflowError)."""
        cfunc, cost_key = _NATIVE_MATH[name]
        nargs = 2 if name == "pow" else 1
        if len(vals) < nargs:
            raise NLError("NL-MATH-ARGC", name)
        args = [self.to_double(v) for v in vals[:nargs]]
        a0 = self.t("double")
        self.o(f"{a0} = {args[0]};")
        if nargs == 2:
            a1 = self.t("double")
            self.o(f"{a1} = {args[1]};")
        t = self.t("double")
        fallback = None
        if name == "sqrt":
            fallback = f"{a0} < 0.0"
        elif name == "log":
            fallback = f"{a0} <= 0.0"
        elif name in ("sin", "cos", "floor", "ceil"):
            fallback = f"!isfinite({a0})"
        self.o("{")
        if fallback is not None:
            self.o(f"if ({fallback}) goto NM{e.nid}_fb;")
        if nargs == 2:
            self.o(f"{t} = {cfunc}({a0}, {a1});")
            self.o(f"if (!isfinite({t}) && isfinite({a0}) && "
                   f"isfinite({a1})) goto NM{e.nid}_fb;")
        else:
            self.o(f"{t} = {cfunc}({a0});")
            if name in ("exp",):
                self.o(f"if (!isfinite({t}) && isfinite({a0})) "
                       f"goto NM{e.nid}_fb;")
        self.o(f"cy8 += {_cy8(cost_key)};")
        self.o(f"goto NM{e.nid}_done;")
        self.label(f"NM{e.nid}_fb")
        # re-encode through the Python impl so the exception (and its
        # cost charge) is exactly the interpreter's
        specs = self._encode_args(vals)
        site = self.call_site("builtin", name, e.nid, specs, "f")
        self.o(f"CB({OP_BUILTIN}, {site}, 0);")
        self.o(f"{t} = E->dargs[0];")
        self.label(f"NM{e.nid}_done")
        self.o("}")
        return Val(t, "f", e.ctype)

    def _x_call(self, e):
        name = e.callee_name
        sema = self.low.sema
        if name is not None and name not in sema.functions:
            impl = BUILTIN_IMPLS.get(name)
            if impl is None:
                self.o("ins += 1;")
                site = self.fault_site(
                    "interp", f"unknown function {name!r}", e.nid)
                self.o(f"FAULT({site});")
                return Val("0", "v", e.ctype)
            self.o("ins += 1;")
            vals = [self.expr(a) for a in e.args]
            self.o(f"cy8 += {_cy8('builtin')};")
            if name in _NATIVE_MATH:
                return self._native_math(name, e, vals)
            if name in ("abs", "labs"):
                if not vals:
                    raise NLError("NL-MATH-ARGC", name)
                v = vals[0]
                vi = f"rp_d2i({v.ref})" if v.cls == "f" else v.ref
                self.o(f"cy8 += {_cy8('alu')};")
                t = self.t()
                self.o(f"{t} = {vi} < 0 ? -({vi}) : ({vi});")
                return Val(t, "i", e.ctype)
            if name in ("malloc", "free") and len(vals) == 1 \
                    and vals[0].cls == "i":
                return self._heap_call(name, e, vals[0])
            return self._callfb(name, e, vals)
        fn = sema.functions.get(name) if name else None
        if fn is None:
            raise NLError("NL-FNPTR")
        self.o("ins += 1;")
        vals = [self.expr(a) for a in e.args]
        meta = self.low.native_fns.get(fn.nid)
        if meta is None or len(vals) < len(fn.params):
            # callee not lowered, or zip-truncation would leave params
            # without storage: the Python machine reproduces it exactly
            return self._callfb(fn, e, vals)
        cargs = []
        for v, pcls in zip(vals, meta.params):
            if pcls == "f":
                cargs.append(self.to_double(v))
            elif pcls == "i":
                cargs.append(f"rp_d2i({v.ref})" if v.cls == "f" else v.ref)
            else:  # 's': source address carrier
                if v.cls != "s":
                    raise NLError("NL-STRUCT-ARG", v.cls)
                cargs.append(v.ref)
        self.callees.add(fn.nid)
        rcls = meta.ret_cls
        t = self.t("double" if rcls == "f" else "int64_t")
        # commit local cost counters so a fault inside the callee (which
        # longjmps past this frame) reports exact totals; reload M in
        # case the callee grew the backing buffer
        self.o("FLUSH;")
        self.o(f"{t} = {meta.cname}(E{''.join(', ' + a for a in cargs)});"
               f" M = E->M;")
        if rcls == "s":
            return Val(t, "s", e.ctype)
        if rcls == "v":
            return Val(t, "v", e.ctype)
        return Val(t, rcls, e.ctype)

    # ======================================================================
    # statements
    # ======================================================================
    def emit_init(self, base: str, ct, init, off: int):
        """Flattened initializer stores (mirrors ``_gather_init``)."""
        if isinstance(init, list):
            if isinstance(ct, ArrayType):
                esize = ct.elem.size
                for i, item in enumerate(init):
                    self.emit_init(base, ct.elem, item, off + i * esize)
            elif isinstance(ct, StructType):
                for item, field in zip(init, ct.fields):
                    self.emit_init(base, field.type, item,
                                   off + field.offset)
            else:
                raise NLError("NL-BAD-INIT")
        else:
            v = self.expr(init)
            addr = f"({base} + {off})" if off else base
            self.store_value(addr, v, ct, cheap=False, guarded=True)

    def emit_decl(self, d: ast.VarDecl):
        ct = d.ctype
        if ct.size is None and d.vla_length is not None:
            cnt = self.expr(d.vla_length)
            ci = f"rp_d2i({cnt.ref})" if cnt.cls == "f" else cnt.ref
            n = self.t()
            self.o(f"{n} = {ci};")
            sz = self.t()
            self.o(f"{sz} = {ct.elem.size} * ({n} < 1 ? 1 : {n});")
            size_ref = sz
        elif ct.size is None:
            raise NLError("NL-INCOMPLETE-LOCAL", d.name)
        else:
            size_ref = str(ct.size)
        a = self.t()
        self.alloca(size_ref, a)
        self.bound[d] = a
        if d.init is not None:
            self.emit_init(a, ct, d.init, 0)

    def _backstop(self, site: int):
        self.o(f"E->steps += 1; if (E->steps > E->max_steps) "
               f"FAULT({site});")

    def _loop_site(self, s) -> int:
        return self.fault_site(
            "interp", "step budget exceeded (runaway program?)", s.nid)

    def emit_while(self, s):
        self.loop_nids.add(s.nid)
        site = self._loop_site(s)
        top, brk = f"W{s.nid}_c", f"W{s.nid}_b"
        self.loops.append((brk, top))
        self.label(top)
        self.o(f"cy8 += {_cy8('alu')};")
        c = self.expr(s.cond)
        self.o(f"if (!{self.truth(c)}) goto {brk};")
        self._backstop(site)
        self.stmt(s.body)
        self.o(f"goto {top};")
        self.label(brk)
        self.loops.pop()

    def emit_dowhile(self, s):
        self.loop_nids.add(s.nid)
        site = self._loop_site(s)
        top, cont, brk = f"D{s.nid}_s", f"D{s.nid}_c", f"D{s.nid}_b"
        self.loops.append((brk, cont))
        self.label(top)
        self._backstop(site)
        self.stmt(s.body)
        self.label(cont)
        self.o(f"cy8 += {_cy8('alu')};")
        c = self.expr(s.cond)
        self.o(f"if ({self.truth(c)}) goto {top};")
        self.label(brk)
        self.loops.pop()

    def emit_for(self, s):
        self.loop_nids.add(s.nid)
        site = self._loop_site(s)
        top, cont, brk = f"F{s.nid}_s", f"F{s.nid}_c", f"F{s.nid}_b"
        if s.init is not None:
            self.stmt(s.init)
        self.loops.append((brk, cont))
        self.label(top)
        if s.cond is not None:
            self.o(f"cy8 += {_cy8('alu')};")
            c = self.expr(s.cond)
            self.o(f"if (!{self.truth(c)}) goto {brk};")
        self._backstop(site)
        self.stmt(s.body)
        self.label(cont)
        if s.step is not None:
            self.expr(s.step)
        self.o(f"goto {top};")
        self.label(brk)
        self.loops.pop()

    def emit_return(self, s):
        v = self.expr(s.expr) if s.expr is not None else None
        if self.in_function:
            rc = self.ret_cls
            if v is None:
                self.o("E->rnone = 1;")
                carrier = "0.0" if rc == "f" else "0"
            else:
                self.o("E->rnone = 0;")
                if rc == "f":
                    if v.cls == "s":
                        raise NLError("NL-RET-MISMATCH", "s->f")
                    # int return exprs in a float fn promote through
                    # double (documented >2^53 divergence)
                    carrier = self.to_double(v)
                elif rc == "i":
                    # the walker returns the *raw* expr value without
                    # converting to the declared type, so the carrier
                    # reinterpretation must already agree
                    if v.cls != "i" or is_u64(v.ct) != self.ret_u64:
                        raise NLError("NL-RET-MISMATCH",
                                      f"{v.cls}->{rc}")
                    carrier = v.ref
                elif rc == "s":
                    if v.cls != "s" or self.ret_ct is None or \
                            v.ct.size != self.ret_ct.size:
                        raise NLError("NL-RET-MISMATCH",
                                      f"{v.cls}->{rc}")
                    carrier = v.ref
                elif rc == "v":
                    # value discarded; any consumer NLs at probe time
                    carrier = f"rp_d2i({v.ref})" if v.cls == "f" else v.ref
                else:  # pragma: no cover
                    raise NLError("NL-RET-CLASS", rc)
            self.o(f"E->depth -= 1; cy8 += {_cy8('ret')};")
            self.o(f"FLUSH; return {carrier};")
            return
        # statement-unit return: encode the semantic value for Python
        if v is None or v.cls == "v":
            self.o(f"E->args[1] = {RET_NONE};")
        elif v.cls == "f":
            self.o(f"E->dargs[0] = {v.ref}; E->args[1] = {RET_F64};")
        elif v.cls == "s":
            self.o(f"E->args[0] = {v.ref}; E->args[1] = {RET_BLOB}; "
                   f"E->args[2] = {v.ct.size};")
        else:
            kind = RET_U64 if is_u64(v.ct) else RET_I64
            self.o(f"E->args[0] = {v.ref}; E->args[1] = {kind};")
        self.o(f"FLUSH; E->jbp = oldjb; return {RC_RETURN};")

    def stmt(self, s):
        t = type(s)
        if t is ast.Block:
            for child in s.stmts:
                self.stmt(child)
        elif t is ast.ExprStmt:
            self.expr(s.expr)
        elif t is ast.DeclStmt:
            for d in s.decls:
                self.emit_decl(d)
        elif t is ast.If:
            self.o(f"cy8 += {_cy8('alu')};")
            c = self.expr(s.cond)
            self.o(f"if ({self.truth(c)}) {{")
            self.stmt(s.then)
            if s.els is not None:
                self.o("} else {")
                self.stmt(s.els)
            self.o("}")
        elif t is ast.While:
            self.emit_while(s)
        elif t is ast.DoWhile:
            self.emit_dowhile(s)
        elif t is ast.For:
            self.emit_for(s)
        elif t is ast.Return:
            self.emit_return(s)
        elif t is ast.Break:
            if self.loops:
                self.o(f"goto {self.loops[-1][0]};")
            elif self.in_function:
                raise NLError("NL-STRAY-BREAK")
            else:
                self.o(f"FLUSH; E->jbp = oldjb; return {RC_BREAK};")
        elif t is ast.Continue:
            if self.loops:
                self.o(f"goto {self.loops[-1][1]};")
            elif self.in_function:
                raise NLError("NL-STRAY-CONTINUE")
            else:
                self.o(f"FLUSH; E->jbp = oldjb; return {RC_CONTINUE};")
        else:
            raise NLError("NL-STMT", t.__name__)


_EMIT_BUGS = (AttributeError, KeyError, TypeError, IndexError)


def _unit_prologue(cname: str) -> List[str]:
    return [
        f"int64_t {cname}(void *ep) {{",
        "  Env *E = (Env *)ep;",
        "  char *M = E->M;",
        "  int64_t cy8 = 0, ins = 0, lds = 0, sts = 0;",
        "  jmp_buf jb; void *oldjb = E->jbp;",
        "  (void)M; (void)cy8; (void)ins; (void)lds; (void)sts;",
        f"  if (setjmp(jb)) {{ E->jbp = oldjb; return {RC_FAULT}; }}",
        "  E->jbp = (void *)&jb;",
    ]


class Lowerer:
    """Drives lowering of one analyzed program to a C translation unit.

    Pass 1 probes every function body against an optimistic registry
    (all functions assumed lowerable) and iterates to a fixpoint:
    removing a function may invalidate callers (their native call
    becomes a callback, which has its own limits).  Pass 2 re-emits the
    survivors — plus the units and chunk drivers ``controlled`` calls
    for (:meth:`_emit_entries`) — into the final :class:`Lowering` with
    clean fault/call registries.
    """

    def __init__(self, program: ast.Program, sema,
                 controlled: Optional[frozenset] = None):
        self.program = program
        self.sema = sema
        self.controlled = controlled
        self.tid_decl = sema.thread_context.get("__tid")
        self.nthreads_decl = sema.thread_context.get("__nthreads")
        self.global_idx: Dict[ast.VarDecl, int] = {
            d: i for i, d in enumerate(sema.globals)
        }
        self.native_fns: Dict[int, FnMeta] = {}
        self.result = Lowering()
        self._nl: Dict[str, str] = {}

    # -- function scaffolding ---------------------------------------------
    def _fn_meta(self, fn: ast.FunctionDef) -> FnMeta:
        params = []
        for p in fn.params:
            if p.vla_length is not None:
                raise NLError("NL-VLA-PARAM", p.name)
            if isinstance(p.ctype, ArrayType):
                raise NLError("NL-ARRAY-PARAM", p.name)
            c = cls_of(p.ctype)
            if c == "v":
                raise NLError("NL-PARAM-CLASS", p.name)
            params.append(c)
        rct = fn.ret_type
        runner = None
        if all(c in ("i", "f") for c in params) and len(params) <= 16:
            runner = f"r_{fn.nid}"
        return FnMeta(fn.nid, fn.name, f"f_{fn.nid}", runner,
                      tuple(params), cls_of(rct), is_u64(rct))

    def _fn_sig(self, meta: FnMeta) -> str:
        parts = ["Env *E"]
        for i, pcls in enumerate(meta.params):
            ctype = "double" if pcls == "f" else "int64_t"
            parts.append(f"{ctype} p{i}")
        ret = "double" if meta.ret_cls == "f" else "int64_t"
        return f"static {ret} {meta.cname}({', '.join(parts)})"

    def _emit_fn_body(self, fn: ast.FunctionDef, meta: FnMeta) -> _Emit:
        em = _Emit(self)
        em.in_function = True
        em.ret_cls = meta.ret_cls
        em.ret_u64 = meta.ret_u64
        em.ret_ct = fn.ret_type
        site = em.fault_site(
            "interp", f"call stack overflow in {fn.name}", None)
        em.o(f"if (E->depth > 250) FAULT({site});")
        em.o(f"cy8 += {_cy8('call')};")
        em.o("E->depth += 1;")
        for i, (p, pcls) in enumerate(zip(fn.params, meta.params)):
            a = em.t()
            em.alloca(str(p.ctype.size), a)
            em.bound[p] = a
            em.store_value(a, Val(f"p{i}", pcls, p.ctype), p.ctype,
                           cheap=False, guarded=True)
        em.stmt(fn.body)
        # implicit fall-off-the-end return (the walker returns None)
        em.o("E->rnone = 1;")
        em.o(f"E->depth -= 1; cy8 += {_cy8('ret')};")
        em.o(f"FLUSH; return {'0.0' if meta.ret_cls == 'f' else '0'};")
        if em.free_order:  # pragma: no cover - var_addr_ref NLs first
            raise NLError("NL-FREE-VAR", em.free_order[0].name)
        return em

    def _probe_functions(self):
        """Optimistic registry, then remove failures to a fixpoint."""
        bodies = {}
        for name, fn in self.sema.functions.items():
            if fn.body is None:
                self._nl[f"fn:{name}"] = "NL-NO-BODY"
                continue
            try:
                self.native_fns[fn.nid] = self._fn_meta(fn)
                bodies[fn.nid] = fn
            except NLError as err:
                self._nl[f"fn:{name}"] = err.reason
        while True:
            failed = []
            for nid, fn in bodies.items():
                if nid not in self.native_fns:
                    continue
                self.result = Lowering()  # throwaway probe registries
                try:
                    self._emit_fn_body(fn, self.native_fns[nid])
                except NLError as err:
                    failed.append((nid, fn.name, err.reason))
                except _EMIT_BUGS:
                    failed.append((nid, fn.name, "NL-EMIT"))
            if not failed:
                break
            for nid, name, reason in failed:
                del self.native_fns[nid]
                self._nl[f"fn:{name}"] = reason

    # -- final emission ----------------------------------------------------
    def _finish_fn(self, fn: ast.FunctionDef, meta: FnMeta,
                   em: _Emit) -> List[str]:
        meta.loop_nids = set(em.loop_nids)
        meta.callees = set(em.callees)
        self.result.fns[fn.nid] = meta
        self.result.fn_by_name[fn.name] = fn.nid
        return [self._fn_sig(meta) + " {",
                "  int64_t cy8 = 0, ins = 0, lds = 0, sts = 0;",
                "  char *M = E->M;",
                "  (void)M; (void)cy8; (void)ins; (void)lds; (void)sts;",
                ] + em.lines + ["}"]

    def _emit_runner(self, fn: ast.FunctionDef, meta: FnMeta) -> List[str]:
        args = []
        for i, pcls in enumerate(meta.params):
            args.append(f"E->dargs[{i}]" if pcls == "f"
                        else f"E->args[{i}]")
        call = f"{meta.cname}(E{''.join(', ' + a for a in args)})"
        rtype = "double" if meta.ret_cls == "f" else "int64_t"
        lines = [
            f"int64_t {meta.runner}(void *ep) {{",
            "  Env *E = (Env *)ep;",
            "  jmp_buf jb; void *oldjb = E->jbp;",
            f"  if (setjmp(jb)) {{ E->jbp = oldjb; return {RC_FAULT}; }}",
            "  E->jbp = (void *)&jb;",
            f"  {rtype} r;",
            f"  r = {call};",
            f"  if (E->rnone) {{ E->args[1] = {RET_NONE}; }}",
        ]
        if meta.ret_cls == "f":
            lines.append(f"  else {{ E->dargs[0] = r; "
                         f"E->args[1] = {RET_F64}; }}")
        elif meta.ret_cls == "s":
            lines.append(f"  else {{ E->args[0] = r; "
                         f"E->args[1] = {RET_BLOB}; "
                         f"E->args[2] = {fn.ret_type.size}; }}")
        else:
            kind = RET_U64 if meta.ret_u64 else RET_I64
            lines.append(f"  else {{ E->args[0] = r; "
                         f"E->args[1] = {kind}; }}")
        lines += [
            "  E->jbp = oldjb;",
            f"  return {RC_OK};",
            "}",
        ]
        return lines

    def _emit_unit(self, s: ast.Stmt) -> List[str]:
        cname = f"u_{s.nid}"
        em = _Emit(self)
        em.stmt(s)
        meta = UnitMeta(s.nid, cname, tuple(em.free_order))
        meta.loop_nids = set(em.loop_nids)
        meta.callees = set(em.callees)
        self.result.units[s.nid] = meta
        return (_unit_prologue(cname) + em.lines +
                [f"  FLUSH; E->jbp = oldjb; return {RC_OK};", "}"])

    @staticmethod
    def _control_of(s: ast.For) -> Optional[ast.VarDecl]:
        init = s.init
        if isinstance(init, ast.DeclStmt) and len(init.decls) == 1:
            return init.decls[0]
        if isinstance(init, ast.ExprStmt) and \
                isinstance(init.expr, ast.Assign) and \
                init.expr.op == "=" and \
                isinstance(init.expr.target, ast.Ident) and \
                isinstance(init.expr.target.decl, ast.VarDecl):
            return init.expr.target.decl
        return None

    def _emit_chunk(self, s: ast.For,
                    control: ast.VarDecl) -> List[str]:
        """DOALL chunk driver: ``runtime.plan.doall_iteration``'s
        protocol — eval cond (cost only), body, eval step — for k in
        [args[0], args[1]), with the iteration counter mirrored to the
        heartbeat slot at args[4] and reported back via args[6].  The
        bounds and the slot address are read once, up front: a callback
        in the body marshals its own arguments through ``E->args``."""
        cname = f"k_{s.nid}"
        em = _Emit(self)
        brk_lbl, cont_lbl = f"KB_{s.nid}", f"KC_{s.nid}"
        em.loops.append((brk_lbl, cont_lbl))
        em.o("for (k_ = k0_; k_ < k1_; k_++) {")
        if s.cond is not None:
            em.expr(s.cond)
        em.stmt(s.body)
        em.label(cont_lbl)
        if s.step is not None:
            em.expr(s.step)
        em.o("iters_ += 1;")
        em.o("if (hb_) *hb_ = iters_;")
        em.o("}")
        em.o(f"E->args[6] = iters_; FLUSH; E->jbp = oldjb; "
             f"return {RC_OK};")
        em.label(brk_lbl)
        em.o(f"E->args[6] = iters_; FLUSH; E->jbp = oldjb; "
             f"return {RC_BREAK};")
        em.loops.pop()
        meta = ChunkMeta(s.nid, cname, tuple(em.free_order), control)
        meta.loop_nids = set(em.loop_nids)
        meta.callees = set(em.callees)
        self.result.chunks[s.nid] = meta
        prologue = _unit_prologue(cname)
        prologue += [
            "  { int64_t k_, iters_ = 0; volatile int64_t *hb_;",
            "  const int64_t k0_ = E->args[0], k1_ = E->args[1];",
            "  hb_ = E->args[4] ? (volatile int64_t *)(intptr_t)"
            "E->args[4] : (volatile int64_t *)0;",
        ]
        return prologue + em.lines + ["  }", "}"]

    # -- driver ------------------------------------------------------------
    def lower(self) -> Lowering:
        self._probe_functions()
        while True:  # final pass; restart if a survivor regresses
            self.result = Lowering()
            fns_src: List[str] = []
            runners_src: List[str] = []
            regressed = None
            for name, fn in self.sema.functions.items():
                meta = self.native_fns.get(fn.nid)
                if meta is None:
                    continue
                try:
                    em = self._emit_fn_body(fn, meta)
                except (NLError, *_EMIT_BUGS) as err:  # pragma: no cover
                    reason = err.reason if isinstance(err, NLError) \
                        else "NL-EMIT"
                    regressed = (fn.nid, name, reason)
                    break
                fns_src += self._finish_fn(fn, meta, em)
                if meta.runner:
                    runners_src += self._emit_runner(fn, meta)
            if regressed is not None:
                nid, name, reason = regressed
                del self.native_fns[nid]
                self._nl[f"fn:{name}"] = reason
                continue
            entries_src = self._emit_entries()
            break
        res = self.result
        res.sema = self.sema
        res.controlled = self.controlled
        res.globals_order = tuple(self.sema.globals)
        res.nl = dict(self._nl)
        # not the Program node itself: the context registry is keyed
        # weakly on it, and nothing dispatches through the root
        res.node_by_nid = {n.nid: n for n in self.program.walk()
                           if n is not self.program}
        fwd = [self._fn_sig(m) + ";" for m in
               (res.fns[k] for k in sorted(res.fns))]
        res.exports = (
            [res.units[k].cname for k in sorted(res.units)] +
            [res.chunks[k].cname for k in sorted(res.chunks)] +
            [m.runner for m in res.fns.values() if m.runner]
        )
        res.source = "\n".join(
            [_PRELUDE] + ([_HEAP] if res.heap else []) + fwd + [""] +
            fns_src + [""] + entries_src +
            [""] + runners_src + [""]
        )
        res.fingerprint = hashlib.sha256(
            (f"abi{NATIVE_ABI_VERSION}\n" + res.source).encode()
        ).hexdigest()[:16]
        return res

    def _emit_entries(self) -> List[str]:
        """Units and chunk drivers, emitted only where the runtime can
        enter compiled code beside the runners.

        A function is *interpreted* when it did not lower, its loop
        closure holds a controlled loop (``call_function`` refuses its
        runner), it has no runner to be entered through, or its address
        is taken (a call through a pointer stays in the closures).  A
        statement running in Python re-enters at every loop it arrives
        at, so each outermost loop of an interpreted function gets a
        unit; the walk looks inside a loop only where Python itself
        goes inside — the loop's closure holds a controlled loop
        (``_dispatch_unit`` refuses the unit) or the unit did not lower.
        A controlled loop's controller also dispatches the loop's body,
        the body's child statements (DOACROSS stages) and, for a
        ``for``, a chunk driver.  DeclStmts get no unit: their bindings
        must outlive it (the Python fallback binds them in the machine
        frame, where sibling stages can see them).  ``controlled=None``
        makes every loop controlled, hence every loop a root."""
        res = self.result
        controlled = self.controlled
        src: List[str] = []
        tried: Set[str] = set()

        def emit_once(key: str, emit, *args):
            if key in tried:
                return
            tried.add(key)
            try:
                src.extend(emit(*args))
            except NLError as err:
                self._nl[key] = err.reason
            except _EMIT_BUGS:
                self._nl[key] = "NL-EMIT"

        def hit(meta) -> bool:
            return controlled is None or \
                not controlled.isdisjoint(res.loop_closure(meta))

        def unit(s: ast.Stmt) -> Optional[UnitMeta]:
            if not isinstance(s, ast.DeclStmt):
                emit_once(f"unit:{s.nid}", self._emit_unit, s)
            return res.units.get(s.nid)

        def chunk(loop: ast.For):
            control = self._control_of(loop)
            if control is None:
                self._nl[f"chunk:{loop.nid}"] = "NL-CONTROL"
            else:
                emit_once(f"chunk:{loop.nid}", self._emit_chunk, loop,
                          control)

        def interpreted(s: ast.Stmt):
            if isinstance(s, ast.LoopStmt):
                meta = unit(s)
                if controlled is None or s.nid in controlled:
                    unit(s.body)
                    if isinstance(s.body, ast.Block):
                        for child in s.body.stmts:
                            unit(child)
                    if isinstance(s, ast.For):
                        chunk(s)
                if meta is not None and not hit(meta):
                    return
            for child in s.children():
                if isinstance(child, ast.Stmt):
                    interpreted(child)

        direct = {id(n.func) for n in self.program.walk()
                  if isinstance(n, ast.Call)}
        addr_taken = {n.decl.nid for n in self.program.walk()
                      if isinstance(n, ast.Ident) and id(n) not in direct
                      and isinstance(n.decl, ast.FunctionDef)}
        for fn in self.sema.functions.values():
            if fn.body is None:
                continue
            meta = res.fns.get(fn.nid)
            if meta is None or meta.runner is None or hit(meta) \
                    or fn.nid in addr_taken:
                interpreted(fn.body)
        return src


def lower_program(program: ast.Program, sema,
                  controlled: Optional[frozenset] = None) -> Lowering:
    """Lower ``program`` to a C translation unit + dispatch metadata.

    ``controlled`` is the set of loop nids that may carry a controller;
    ``None`` means any loop may (every loop gets the full entry set)."""
    if controlled is not None:
        controlled = frozenset(controlled)
    return Lowerer(program, sema, controlled).lower()


_X = {
    ast.IntLit: _Emit._x_intlit,
    ast.FloatLit: _Emit._x_floatlit,
    ast.StrLit: _Emit._x_strlit,
    ast.Ident: _Emit._x_ident,
    ast.Unary: _Emit._x_unary,
    ast.Binary: _Emit._x_binary,
    ast.Assign: _Emit._x_assign,
    ast.Cond: _Emit._x_cond,
    ast.Call: _Emit._x_call,
    ast.Index: _Emit._x_index,
    ast.Member: _Emit._x_member,
    ast.Cast: _Emit._x_cast,
    ast.SizeofType: _Emit._x_sizeof_type,
    ast.SizeofExpr: _Emit._x_sizeof_expr,
    ast.Comma: _Emit._x_comma,
}
