"""C emitter for the native execution tier: a translator of the lowered form.

Every per-node decision — charges, wrap rule, conversions, operator
shape, addressing, register slots, faults — comes from
:mod:`repro.interp.lowered`, the form the closure compiler translates
too; this module spells it as C on the machine's flat byte buffer, with
its own carriers: ``'i'`` an int64 two's-complement value for every
integer and pointer type (unsigned-64 and pointer semantics recovered
per static type where they matter: compares, division, float
conversion), ``'f'`` a double (float32 results rounded through
``(float)`` like ``FloatType.wrap``), ``'s'`` a struct blob carried as
its source address and moved with ``memmove``.  Costs are carried as
``cy8`` = cycles x 8 in int64 (every COSTS entry is a multiple of
0.125); a region guard ``GK`` stands where the walker bounds-checks; a
``FAULT`` site raises the form's :class:`~repro.interp.lowered.Fault`.
The memory discipline is :class:`repro.interp.memory.Memory`'s: bump
allocation with its alignment and growth rules, and its heap policy
for ``malloc``/``free`` (:data:`_HEAP`).  Steps are the one thing
counted differently: a compiled loop charges ``Env.steps`` once per
iteration against ``max_steps`` — a backstop that ends a runaway loop
with the walker's "step budget exceeded" error, not a statement count —
which is why an armed watchdog keeps a machine out of compiled code.

A function, unit or chunk driver whose shapes a carrier cannot hold is
refused with an ``NL-*`` code (:func:`_refusal`, the carrier limits)
and runs on the bytecode closures, which is always
semantics-preserving.  Refusal is decided on the form, before any C is
written: the function verdicts iterate to a fixpoint (a refused callee
turns its callers' direct calls into callbacks, which have limits of
their own), then each function, unit and chunk driver is emitted
at most once: for a declared ``controlled`` set, a function whose loop
closure holds a controlled loop and that no unit or chunk driver calls
is not emitted at all (:meth:`Lowerer._unenterable`; no refusal, the
closures run it).  Entry points are exported only where the runtime
can enter compiled code: a runner ``r_<nid>`` per function, a unit
``u_<nid>`` per loop an *interpreted* function can arrive at, the body
and body-child (DOACROSS stage) units of a loop that may carry a
controller, and a chunk driver ``k_<nid>`` for such a ``for``
(:meth:`Lowerer._emit_entries` is the one rule; ``controlled=None`` —
any loop may carry one — is its widest case).  A unit is a header plus
its top-level definitions, ``f_`` functions being hidden externs, so
the backend can compile a large one in parts (:meth:`Lowering.parts`);
every fault exit calls the one out-of-line ``rp_fail``.  ``tracked``
loops make the *instrumented* unit of a program, which carries the
dependence profiler in C (:data:`_TRACKER`) and calls it from every
access, record and boundary of those loops; any other unit is emitted
exactly as if the hooks did not exist.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Set, Tuple

from ...frontend import ast
from ...frontend.ctypes import FloatType, IntType, PointerType
from .. import memory as mem
from ..builtins import malloc_label
from ..costs import COSTS
from ..lowered import Fault, cls_of, form_for, u64
from ..memory import HEAP_FREE, HEAP_LIVE

#: bump when emitted code or ABI changes shape (part of the .so cache key)
NATIVE_ABI_VERSION = 7

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

#: libm builtins emitted as plain C (the same libm the Python
#: implementations call, so results are bit-identical), with the
#: argument test under which the Python one raises (a domain error):
#: those take the callback instead
_NATIVE_MATH = {
    "sqrt": "{0} < 0.0", "log": "{0} <= 0.0", "exp": None, "pow": None,
    "sin": "!isfinite({0})", "cos": "!isfinite({0})",
    "floor": "!isfinite({0})", "ceil": "!isfinite({0})", "fabs": None,
}

MASK64 = 0xFFFFFFFFFFFFFFFF

# heap mirror header slots, then the header length (Env->hm; see _HEAP
# and runtime._HeapMirror)
HM_FLAGS, HM_CAP, HM_USED, HM_JN, HM_JCAP, HM_QN, HM_HDR = range(7)
HM_REUSE = 1  # Memory.reuse_heap
HM_FREE = 2   # no free hooks attached: free() may run in C


def _cy8(cycles) -> int:
    v = cycles * 8
    if int(v) != v:
        raise AssertionError(f"{cycles} cycles is not a multiple of 1/8")
    return int(v)


class NLError(Exception):
    """A construct the native tier cannot lower exactly."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


class Val:
    """One evaluated expression: a C reference + carrier class + CType."""

    __slots__ = ("ref", "cls", "ct")

    def __init__(self, ref: str, cls: str, ct):
        self.ref = ref
        self.cls = cls
        self.ct = ct


def _ilit(v: int) -> str:
    v &= MASK64
    if v >= 1 << 63:
        return f"((int64_t)UINT64_C({v}))"
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
                 "ret_u64", "loop_nids", "callees", "decl")

    def __init__(self, decl, cname, runner, params, ret_cls, ret_u64):
        self.decl = decl
        self.nid = decl.nid
        self.name = decl.name
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


class CallMeta:
    __slots__ = ("kind", "name", "node", "args", "ret")

    def __init__(self, kind: str, name: str, node: ast.Call,
                 args: Tuple, ret: str):
        self.kind = kind              # "builtin" | "user"
        self.name = name
        self.node = node
        #: per-arg decode spec: ('i', u64?) / ('f',) / ('s', size)
        self.args = args
        self.ret = ret                # 'i' / 'f' / 'v'


class Lowering:
    """The full result of lowering one program."""

    def __init__(self):
        #: prelude, heap helpers and every ``f_`` prototype: what each
        #: part of a split unit repeats
        self.header = ""
        #: the text of each top-level definition, in source order
        self.definitions: List[str] = []
        self.fingerprint = ""
        self.fns: Dict[int, FnMeta] = {}
        self.units: Dict[int, UnitMeta] = {}
        self.chunks: Dict[int, ChunkMeta] = {}
        self.globals_order: Tuple = ()
        #: FAULT site k (1-based; 0 is the region guard) raises faults[k-1]
        self.faults: List[Fault] = []
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
        #: an instrumented unit's candidate loops (None: a plain unit,
        #: which has no hooks and no tracker)
        self.tracked: Optional[frozenset] = None
        #: (kind, tag) -> ``Memory`` label of the records the unit's
        #: hooks make (instrumented units)
        self.labels: Dict[Tuple[int, int], str] = {}
        #: filled by the Lowerer for runtime dispatch
        self.sema = None
        #: call nid -> the malloc call whose blocks C allocates
        self.heap_nodes: Dict[int, ast.Call] = {}
        self._closures: Dict[int, frozenset] = {}

    @property
    def source(self) -> str:
        """The whole translation unit (what the .so cache key hashes)."""
        return self._join(self.definitions)

    def _join(self, definitions) -> str:
        return "\n".join([self.header] + definitions) + "\n"

    def parts(self, k: int) -> List[str]:
        """The unit as ``k`` sources that compile apart and link to the
        same library: definitions bin-packed by emitted size, biggest
        first, each onto the lightest part.  (Keeping a caller beside
        its callees, so the call can still inline, measured no faster
        at run time on dijkstra, mpeg2-decoder or histogram.)"""
        bins: List[List[int]] = [[] for _ in range(k)]
        load = [0] * k
        for i in sorted(range(len(self.definitions)),
                        key=lambda i: -len(self.definitions[i])):
            part = load.index(min(load))
            bins[part].append(i)
            load[part] += len(self.definitions[i])
        return [self._join([self.definitions[i] for i in sorted(b)])
                for b in bins]

    def covers(self, controlled: Optional[frozenset],
               tracked: frozenset = frozenset()) -> bool:
        """Whether a caller declaring ``controlled`` may use these
        entry points (a narrower lowering never serves a wider set),
        and the unit has the hooks of every loop in ``tracked``."""
        if tracked and (self.tracked is None or not tracked <= self.tracked):
            return False
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

    def __getstate__(self):
        # pickled for a process backend worker, beside its program: the
        # worker binds the library built from the C text and never reads
        # the text, and the closure memo is keyed by id()
        return dict(self.__dict__, header="", definitions=[], _closures={})


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

#define RP_FN __attribute__((visibility("hidden")))
#define LJ longjmp(*(jmp_buf *)E->jbp, 1)
#define FAULT(s) rp_fail(E, (s), 0, 0, cy8, ins, lds, sts)
#define CB(op, a, b) do { FLUSH; if (E->cb((void *)E, (op), (a), (b))) LJ; \
    M = E->M; } while (0)
#define GK(a, n) do { if (rp_gchk(E, (a), (n))) \
    rp_fail(E, 0, (a), (n), cy8, ins, lds, sts); } while (0)
#define FLUSH do { E->cy8 += cy8; E->ins += ins; E->lds += lds; \
    E->sts += sts; cy8 = ins = lds = sts = 0; } while (0)

/* Every fault exit: flush the frame's counters, record the site and
   leave.  Site 0 is the region guard, which also reports the access
   (a, n).  Out of line and cold, so a site costs the caller one call. */
static __attribute__((noreturn, cold, noinline)) void rp_fail(
    Env *E, int64_t site, int64_t a, int64_t n,
    int64_t cy8, int64_t ins, int64_t lds, int64_t sts) {
  if (site == 0) { E->args[0] = a; E->args[1] = n; }
  E->cy8 += cy8; E->ins += ins; E->lds += lds; E->sts += sts;
  E->fault = site;
  LJ;
}

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
  E->cy8 += {_cy8(COSTS['malloc'])};
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
  E->cy8 += {_cy8(COSTS['free'])};
  return 0;
}}
"""


#: memory record kinds as the tracker numbers them (its summary's
#: ``kind`` column indexes this)
TRACKED_KINDS = (mem.GLOBAL, mem.RODATA, mem.STACK, mem.HEAP)
KIND_STACK = TRACKED_KINDS.index(mem.STACK)
KIND_HEAP = TRACKED_KINDS.index(mem.HEAP)

#: what an instrumented unit's Env has beyond a plain one's
_TRACED_ENV = """  void *tr;           /* dependence tracker (NULL: hooks do nothing) */
  int64_t tcy8;       /* cycles x 8 Python has committed */
} Env;"""

#: an instrumented unit's hooks, in every part of it.  ``RpTrHead`` is
#: the tracker state the loop hooks and Python (``tracker._Head``)
#: share; the access and record hooks are calls into the tracker.
_TRACKER_HEAD = r"""
typedef struct RpTrHead {
  int64_t loop;                  /* the candidate loop profiled */
  int64_t in_loop, iter, exec;   /* the observer's position */
  int64_t ex_lo, ex_hi;          /* the control variable's bytes */
  int64_t executions, iterations, loop_cy8;
  int64_t fail;                  /* out of memory: tracking stopped */
} RpTrHead;

#define TR ((RpTrHead *)E->tr)
#define TA(s, a, n, w) do { if (E->tr) rp_tr_access(E->tr, (s), (a), \
    (n), (w)); } while (0)

void rp_tr_access(void *tp, int64_t site, int64_t a, int64_t n,
                  int64_t st);
void rp_tr_alloc(void *tp, int64_t a, int64_t n, int64_t kind,
                 int64_t tag);

/* _ProfileController around one execution of the candidate loop: it
   counts from before the init (enter), exempts the control variable
   and takes up the iteration count after it (begin), and leaves on
   the loop's exit or a return through it */
static inline int64_t rp_tr_on(Env *E, int64_t nid) {
  return E->tr && TR->loop == nid;
}
static inline int64_t rp_tr_enter(Env *E, int64_t cy8) {
  TR->executions += 1;
  return E->tcy8 + E->cy8 + cy8;
}
static inline int64_t rp_tr_begin(Env *E, int64_t lo, int64_t n) {
  TR->ex_lo = lo; TR->ex_hi = lo + n;
  TR->in_loop = 1; TR->exec += 1;
  return TR->iterations;
}
static inline void rp_tr_leave(Env *E, int64_t k, int64_t cy8,
                               int64_t c0) {
  TR->iterations = k; TR->in_loop = 0; TR->ex_lo = TR->ex_hi = 0;
  TR->loop_cy8 += E->tcy8 + E->cy8 + cy8 - c0;
}
"""

#: The dependence tracker: ``_ProfileObserver`` over a byte-granular
#: shadow (a page of ``RpB`` per 4 KiB touched inside the loop), with
#: the last-writer construction, the per-execution roll-over and the
#: downward-exposure rule spelled per byte, so it agrees with the cell
#: shadow and the byte oracle alike.  Records mirror ``Memory``'s
#: (``Memory.find`` for the objects an access site touched).  One
#: definition of the unit; ``rp_tr_dump`` hands Python the summary.
_TRACKER = r"""
/* stdlib.h's three, declared: the header alone is ~10 ms of a compile */
void *calloc(size_t, size_t);
void *realloc(void *, size_t);
void free(void *);

enum { RP_FLOW = 0, RP_ANTI = 1, RP_OUTPUT = 2 };
enum { RP_ST = 1, RP_LD = 2, RP_UP = 4, RP_DOWN = 8 };
#define RP_PG 12

/* per byte: the last in-loop store's site and iteration (none once it
   belongs to an earlier execution) and the readers since it, each 0
   for none, else value + 1; and the execution (from 1) that last
   touched the byte */
typedef struct { int32_t ws, wi, ex, rd; } RpB;
typedef struct { int32_t site, first, last, next; } RpRd;
typedef struct { int64_t addr, end, kind, tag; } RpRec;
/* per site: accesses, RP_* flags, the object it touched last (key + 1)
   and when it first counted, then first got each flag */
typedef struct { int64_t dyn, flags, okey, seq[5]; } RpSite;
typedef struct { uint64_t *k; int64_t *v; int64_t n, cap; } RpSet;

typedef struct {
  RpTrHead h;
  RpB **pg; int64_t npg;
  RpRd *rd; int64_t nrd, caprd, frd;
  RpRec *rec; int64_t nrec, caprec, hit;
  RpSite *site; int64_t nsite;
  RpSet edges, sobj, objs;   /* values: first-seen order, or size */
  int64_t seq;               /* first-seen events so far */
} RpTr;

static void *rp_tr_grow(RpTr *T, void *p, int64_t n, int64_t old,
                        size_t w) {
  char *q = (char *)realloc(p, (size_t)n * w);
  if (!q) { T->h.fail = 1; return 0; }
  memset(q + (size_t)old * w, 0, (size_t)(n - old) * w);
  return q;
}

/* add key (with value v) to S: 1 when it is new */
static int rp_set_add(RpTr *T, RpSet *S, uint64_t key, int64_t v) {
  uint64_t m, i;
  key += 1;
  if (2 * (S->n + 1) > S->cap) {
    RpSet N;
    int64_t j;
    N.cap = S->cap ? 2 * S->cap : 64; N.n = S->n;
    N.k = (uint64_t *)calloc((size_t)N.cap, sizeof(uint64_t));
    N.v = (int64_t *)calloc((size_t)N.cap, sizeof(int64_t));
    if (!N.k || !N.v) { free(N.k); free(N.v); T->h.fail = 1; return 0; }
    for (j = 0; j < S->cap; j++) {
      if (!S->k[j]) continue;
      for (i = (S->k[j] * UINT64_C(0x9E3779B97F4A7C15)) >> 32 &
               (uint64_t)(N.cap - 1);
           N.k[i]; i = (i + 1) & (uint64_t)(N.cap - 1)) {}
      N.k[i] = S->k[j]; N.v[i] = S->v[j];
    }
    free(S->k); free(S->v);
    *S = N;
  }
  m = (uint64_t)S->cap - 1;
  for (i = (key * UINT64_C(0x9E3779B97F4A7C15)) >> 32 & m;;
       i = (i + 1) & m) {
    if (S->k[i] == key) return 0;
    if (!S->k[i]) { S->k[i] = key; S->v[i] = v; S->n++; return 1; }
  }
}

/* Every set and flag remembers when it first held an element, so
   Python rebuilds the profile's sets and dicts in the observer's
   insertion order (their iteration order is then the same too). */
static void rp_tr_edge(RpTr *T, int64_t src, int64_t dst, int kind,
                       int carried) {
  T->seq += rp_set_add(T, &T->edges, (uint64_t)src << 33 |
                       (uint64_t)dst << 3 | (uint64_t)(2 * kind + carried),
                       T->seq);
}

static void rp_tr_flag(RpTr *T, RpSite *s, int64_t flag, int i) {
  if (!(s->flags & flag)) { s->flags |= flag; s->seq[i] = T->seq++; }
}

static RpSite *rp_tr_site(RpTr *T, int64_t s) {
  if (s >= T->nsite) {
    int64_t n = 2 * T->nsite > s + 1 ? 2 * T->nsite : s + 257;
    RpSite *p = (RpSite *)rp_tr_grow(T, T->site, n, T->nsite,
                                     sizeof(RpSite));
    if (!p) return 0;
    T->site = p; T->nsite = n;
  }
  return T->site + s;
}

/* the shadow byte at a, made when mk (else 0 if never touched) */
static RpB *rp_tr_byte(RpTr *T, int64_t a, int mk) {
  int64_t p = a >> RP_PG;
  if (p >= T->npg) {
    int64_t n = 2 * T->npg > p + 1 ? 2 * T->npg : p + 64;
    RpB **d;
    if (!mk) return 0;
    d = (RpB **)rp_tr_grow(T, T->pg, n, T->npg, sizeof(RpB *));
    if (!d) return 0;
    T->pg = d; T->npg = n;
  }
  if (!T->pg[p]) {
    if (!mk) return 0;
    T->pg[p] = (RpB *)calloc((size_t)1 << RP_PG, sizeof(RpB));
    if (!T->pg[p]) { T->h.fail = 1; return 0; }
  }
  return T->pg[p] + (a & (((int64_t)1 << RP_PG) - 1));
}

static void rp_tr_drop(RpTr *T, RpB *b) {
  int32_t r = b->rd;
  while (r) {
    RpRd *n = T->rd + (r - 1);
    int32_t next = n->next;
    n->next = (int32_t)T->frd; T->frd = r;
    r = next;
  }
  b->rd = 0;
}

/* the readers keep their first-read order (the observer's dict) */
static void rp_tr_read(RpTr *T, RpB *b, int64_t site, int64_t cur) {
  int32_t r, tail = 0;
  RpRd *n;
  for (r = b->rd; r; tail = r, r = T->rd[r - 1].next) {
    if (T->rd[r - 1].site == site) { T->rd[r - 1].last = (int32_t)cur; return; }
  }
  if (T->frd) {
    r = (int32_t)T->frd; T->frd = T->rd[r - 1].next;
  } else {
    if (T->nrd == T->caprd) {
      int64_t cap = T->caprd ? 2 * T->caprd : 4096;
      RpRd *p = (RpRd *)rp_tr_grow(T, T->rd, cap, T->caprd, sizeof(RpRd));
      if (!p) return;
      T->rd = p; T->caprd = cap;
    }
    r = (int32_t)++T->nrd;
  }
  n = T->rd + (r - 1);
  n->site = (int32_t)site; n->first = n->last = (int32_t)cur;
  n->next = 0;
  if (tail) T->rd[tail - 1].next = r; else b->rd = r;
}

/* Memory.find: the record holding a */
static RpRec *rp_tr_find(RpTr *T, int64_t a) {
  int64_t lo = 0, hi = T->nrec, mid;
  RpRec *r;
  if (T->hit < T->nrec) {
    r = T->rec + T->hit;
    if (r->addr <= a && a < r->end) return r;
  }
  while (lo < hi) {
    mid = (lo + hi) / 2;
    if (T->rec[mid].addr <= a) lo = mid + 1; else hi = mid;
  }
  if (!lo || a >= T->rec[lo - 1].end) return 0;
  T->hit = lo - 1;
  return T->rec + (lo - 1);
}

/* Memory.alloc's record (a reused block keeps its place, retagged) */
void rp_tr_alloc(void *tp, int64_t a, int64_t n, int64_t kind,
                 int64_t tag) {
  RpTr *T = (RpTr *)tp;
  int64_t lo = 0, hi = T->nrec, mid;
  RpRec *r;
  if (n < 1) n = 1;
  while (lo < hi) {
    mid = (lo + hi) / 2;
    if (T->rec[mid].addr < a) lo = mid + 1; else hi = mid;
  }
  if (lo == T->nrec || T->rec[lo].addr != a) {
    if (T->nrec == T->caprec) {
      int64_t cap = T->caprec ? 2 * T->caprec : 256;
      RpRec *p = (RpRec *)rp_tr_grow(T, T->rec, cap, T->caprec,
                                     sizeof(RpRec));
      if (!p) return;
      T->rec = p; T->caprec = cap;
    }
    memmove(T->rec + lo + 1, T->rec + lo,
            (size_t)(T->nrec - lo) * sizeof(RpRec));
    T->nrec++;
  }
  r = T->rec + lo;
  r->addr = a; r->end = a + n; r->kind = kind; r->tag = tag;
}

void rp_tr_access(void *tp, int64_t site, int64_t a, int64_t n,
                  int64_t st) {
  RpTr *T = (RpTr *)tp;
  int64_t x, cur = T->h.iter, lo = T->h.ex_lo, hi = T->h.ex_hi;
  int32_t ex = (int32_t)T->h.exec;
  int exposed = 0;
  RpSite *s;
  RpRec *rec;
  RpB *b;
  if (T->h.fail) return;
  if (!T->h.in_loop) {
    /* a store kills what an execution left behind; a load of it makes
       that store downwards-exposed */
    for (x = a; x < a + n; x++) {
      b = rp_tr_byte(T, x, 0);
      if (!b || !b->ws) continue;
      if (st) b->ws = 0;
      else rp_tr_flag(T, T->site + (b->ws - 1), RP_DOWN, 4);
    }
    return;
  }
  if (!(s = rp_tr_site(T, site))) return;
  rec = rp_tr_find(T, a);
  if (rec && s->okey != (rec->kind << 32 | rec->tag) + 1) {
    uint64_t key = (uint64_t)(rec->kind << 32 | rec->tag);
    s->okey = (int64_t)key + 1;
    if (rp_set_add(T, &T->sobj, (uint64_t)site << 34 | key, T->seq)) {
      T->seq++;
      rp_set_add(T, &T->objs, key, rec->end - rec->addr);
    }
  }
  if (!s->dyn) s->seq[0] = T->seq++;
  s->dyn += 1;
  rp_tr_flag(T, s, st ? RP_ST : RP_LD, st ? 1 : 2);
  for (x = a; x < a + n; x++) {
    if (x >= lo && x < hi) continue;
    if (!(b = rp_tr_byte(T, x, 1))) return;
    if (st) {
      int32_t r;
      if (b->ex != ex) { b->ex = ex; rp_tr_drop(T, b); }
      else if (b->wi)
        rp_tr_edge(T, b->ws - 1, site, RP_OUTPUT, b->wi - 1 != cur);
      for (r = b->rd; r; r = T->rd[r - 1].next) {
        if (T->rd[r - 1].first < cur)
          rp_tr_edge(T, T->rd[r - 1].site, site, RP_ANTI, 1);
        if (T->rd[r - 1].last == cur)
          rp_tr_edge(T, T->rd[r - 1].site, site, RP_ANTI, 0);
      }
      rp_tr_drop(T, b);
      b->ws = (int32_t)site + 1; b->wi = (int32_t)cur + 1;
    } else {
      if (b->ex != ex) { b->ex = ex; rp_tr_drop(T, b); b->wi = 0; }
      if (b->wi) {
        rp_tr_edge(T, b->ws - 1, site, RP_FLOW, b->wi - 1 != cur);
      } else {
        exposed = 1;
        if (b->ws) rp_tr_flag(T, T->site + (b->ws - 1), RP_DOWN, 4);
      }
      rp_tr_read(T, b, site, cur);
    }
  }
  if (exposed) rp_tr_flag(T, T->site + site, RP_UP, 3);
}

void *rp_tr_new(void) {
  RpTr *T = (RpTr *)calloc(1, sizeof(RpTr));
  if (T) T->h.loop = -1;
  return T;
}

void rp_tr_free(void *tp) {
  RpTr *T = (RpTr *)tp;
  int64_t i;
  for (i = 0; i < T->npg; i++) free(T->pg[i]);
  free(T->pg); free(T->rd); free(T->rec); free(T->site);
  free(T->edges.k); free(T->edges.v); free(T->sobj.k); free(T->sobj.v);
  free(T->objs.k); free(T->objs.v);
  free(T);
}

/* The summary: counts of sites, edges, site objects and objects, then
   (nid, accesses, flags, five first-seen stamps) per site, (src, dst,
   2 * kind + carried, stamp) per edge, (site, kind, tag, stamp) per
   site object and (kind, tag, 0, size) per object.  Returns its
   length; writes it only when it fits in cap. */
int64_t rp_tr_dump(void *tp, int64_t *out, int64_t cap) {
  RpTr *T = (RpTr *)tp;
  int64_t i, ns = 0, need;
  RpSet *sets[3];
  int w;
  sets[0] = &T->edges; sets[1] = &T->sobj; sets[2] = &T->objs;
  for (i = 0; i < T->nsite; i++) ns += T->site[i].dyn > 0;
  need = 4 + 8 * ns + 4 * (T->edges.n + T->sobj.n + T->objs.n);
  if (cap < need) return need;
  *out++ = ns; *out++ = T->edges.n; *out++ = T->sobj.n; *out++ = T->objs.n;
  for (i = 0; i < T->nsite; i++) {
    if (T->site[i].dyn <= 0) continue;
    *out++ = i; *out++ = T->site[i].dyn; *out++ = T->site[i].flags;
    memcpy(out, T->site[i].seq, sizeof T->site[i].seq);
    out += 5;
  }
  for (w = 0; w < 3; w++) {
    RpSet *S = sets[w];
    for (i = 0; i < S->cap; i++) {
      uint64_t k = S->k[i] - 1;
      if (!S->k[i]) continue;
      if (w == 0) {
        *out++ = (int64_t)(k >> 33); *out++ = (int64_t)(k >> 3 & 0x3FFFFFFF);
        *out++ = (int64_t)(k & 7);
      } else if (w == 1) {
        *out++ = (int64_t)(k >> 34); *out++ = (int64_t)(k >> 32 & 3);
        *out++ = (int64_t)(k & 0xFFFFFFFF);
      } else {
        *out++ = (int64_t)(k >> 32); *out++ = (int64_t)(k & 0xFFFFFFFF);
        *out++ = 0;
      }
      *out++ = S->v[i];
    }
  }
  return need;
}
"""


# ---------------------------------------------------------------------------
# carrier limits: what C refuses, decided on the form
# ---------------------------------------------------------------------------

_IF = ("i", "f")
#: the child records of each shape, in the walker's evaluation order
_KIDS = {"addr": "a", "deref": "v", "load": "a", "incdec": "a",
         "unop": "v", "logic": "lr", "binop": "lr", "assign": "av",
         "cond": "ctf", "cast": "v", "comma": "lr", "aderef": "v",
         "aindex": "bi", "amember": ("base",), "acomma": "lr"}


def _kids(x):
    if x.kind == "call":
        return x.args
    d = x.__dict__
    return [d[key] for key in _KIDS.get(x.kind, ())]


def _refusal(low: "Lowerer", x, fn=None) -> Optional[str]:
    """The first ``NL-*`` carrier limit in statement record ``x`` — a
    function body when ``fn`` (its FnMeta) is given, else a unit — or
    None.  Each is something the emitter's carriers cannot hold: a
    function designator or a call through one, a value with no single
    class, a struct where an int or double must go, a return value whose
    carrier differs from the function's, a callback beyond the Env
    channel, a jump or variable a C function body cannot reach."""
    natives, memo = low.native_fns, low.unit_verdicts
    bound: Set[ast.VarDecl] = set()
    depth = [0]
    if fn is not None:
        bound.update(p.decl for p in low.form.function(fn.decl).params)

    def need(v, reason="NL-CONV"):
        return None if v.cls in _IF else reason

    def first(reasons):
        return next(filter(None, reasons), None)

    def call(x):
        if x.how in ("libm", "abs"):
            return first(map(need, x.args))
        if x.how == "heap":
            return None
        callee = natives.get(x.fn.nid) if x.how == "user" else None
        if callee is not None and len(x.args) >= len(callee.params):
            return first(
                ("NL-STRUCT-ARG" if a.cls != "s" else None) if pcls == "s"
                else need(a) for a, pcls in zip(x.args, callee.params))
        if len(x.args) > 16:  # a callback: the Env channel's limits
            return "NL-ARGC"
        if any(a.cls not in ("i", "f", "s") for a in x.args):
            return "NL-ARG-CLASS"
        return "NL-RET-BLOB-FB" if cls_of(x.ct) == "s" else None

    def expr(x):
        k = x.kind
        if k == "fn":
            return "NL-FNDESIG"
        if k == "call" and x.how == "indirect":
            return "NL-FNPTR"
        reason = first(map(expr, _kids(x)))
        if reason:
            return reason
        if k in ("var", "slot"):
            slot = x.slot if k == "var" else x
            if fn is not None and slot.local and slot.decl not in bound:
                return "NL-FREE-VAR"  # a C function sees its own locals
        elif k == "logic":
            return need(x.l, "NL-TRUTH") or need(x.r, "NL-TRUTH")
        elif k == "cond":
            return need(x.c, "NL-TRUTH") or (
                "NL-COND-CLASS" if x.cls is None else "NL-COND-SIGN"
                if x.cls == "i" and u64(x.t.ct) != u64(x.f.ct) else None)
        elif k == "unop":
            return need(x.v, "NL-TRUTH" if x.op == "!" else "NL-CONV")
        elif k in ("binop", "deref", "aderef", "aindex") or (
                k == "amember" and x.arrow):
            return first(map(need, _kids(x)))
        elif (k == "cast" and x.fn is not None) or (
                k == "assign" and (x.op != "=" or x.st.shape == "scalar")):
            return need(x.v)
        elif k == "call":
            return call(x)
        return None

    def stmt(x):
        # a unit's verdict depends on nothing but its statement: a
        # loop, its body and the body's children share theirs
        if fn is None:
            reason = memo.get(x.node.nid, memo)
            if reason is memo:
                reason = memo[x.node.nid] = verdict(x)
            return reason
        return verdict(x)

    def verdict(x):
        k = x.kind
        if k == "expr":
            return expr(x.v)
        if k == "block":
            return first(map(stmt, x.body))
        if k == "decl":
            for d in x.decls:
                reason = (expr(d.vla) or need(d.vla)) if d.vla else None
                reason = reason or first(
                    expr(i.v) or (need(i.v) if i.st.shape == "scalar"
                                  else None)
                    for i in d.init if i.__class__ is not Fault)
                if reason:
                    return reason
                bound.add(d.decl)
            return None
        if k == "if":
            return expr(x.c) or need(x.c, "NL-TRUTH") or stmt(x.t) or (
                stmt(x.f) if x.f is not None else None)
        if k == "loop":
            reason = (stmt(x.init) if x.init is not None else None) or (
                expr(x.c) or need(x.c, "NL-TRUTH") if x.c is not None
                else None)
            depth[0] += 1
            reason = reason or stmt(x.body) or (
                expr(x.step) if x.step is not None else None)
            depth[0] -= 1
            return reason
        if k in ("break", "continue"):
            return "NL-STRAY-JUMP" if fn is not None and not depth[0] \
                else None
        if k != "return" or x.v is None:
            return None
        v = x.v
        reason = expr(v)
        if reason or fn is None:
            return reason
        rc = fn.ret_cls
        # the walker returns the *raw* value, not one converted to the
        # declared type: the carriers must already agree
        if (rc == "f" and v.cls not in _IF) or (rc == "i" and (
                v.cls != "i" or u64(v.ct) != fn.ret_u64)) or (
                rc == "s" and (v.cls != "s"
                               or v.ct.size != fn.decl.ret_type.size)):
            return "NL-RET-MISMATCH"
        return None

    return stmt(x)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

class _Emit:
    """Emission context for one function / unit / chunk driver."""

    def __init__(self, low: "Lowerer", fn: Optional[FnMeta] = None):
        self.low = low
        self.lines: List[str] = []
        self.ntmp = 0
        #: VarDecl -> C expression holding its address (bound locals)
        self.bound: Dict[ast.VarDecl, str] = {}
        #: free (outer-frame) decls, resolved via E->daddr at dispatch
        self.free_order: List[ast.VarDecl] = []
        self.loop_nids: Set[int] = set()
        self.callees: Set[int] = set()
        #: (break_label, continue_label) of the enclosing loops
        self.loops: List[Tuple[str, str]] = []
        #: the (on, start cycles, iteration) temps of the enclosing
        #: tracked loops (an instrumented unit's candidate loops)
        self.tracked: List[Tuple[str, str, str]] = []
        self.fn = fn  # inside f_<nid>: returns are C returns

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

    def charge(self, cycles, counter: Optional[str] = None):
        line = f"cy8 += {_cy8(cycles)};" if cycles else ""
        if counter:
            line += f" {counter} += 1;"
        if line:
            self.o(line.lstrip())

    def fault(self, fault: Fault, cond: Optional[str] = None):
        faults = self.low.result.faults
        faults.append(fault)  # site 0 is the guard; faults are 1-based
        site = f"FAULT({len(faults)});"
        self.o(f"if ({cond}) {site}" if cond else site)

    def call_site(self, kind, name, node, args, ret) -> int:
        calls = self.low.result.calls
        calls.append(CallMeta(kind, name, node, args, ret))
        return len(calls) - 1

    def slot(self, x) -> str:
        ref = self.bound.get(x.decl)
        if ref is not None:
            return ref
        if x.gidx is not None:
            return f"E->gaddr[{x.gidx}]"
        if x.decl not in self.free_order:
            self.free_order.append(x.decl)
        return f"E->daddr[{self.free_order.index(x.decl)}]"

    # -- carriers ---------------------------------------------------------
    @staticmethod
    def wrap(x: str, ct: IntType) -> str:
        """The form's two's-complement wrap to ``ct``, as C casts."""
        bits = 8 * ct.size
        if bits == 64:
            return f"(int64_t)(uint64_t)({x})"
        sign = "" if ct.signed else "u"
        return f"(int64_t)({sign}int{bits}_t)(uint{bits}_t)(uint64_t)({x})"

    @staticmethod
    def dbl(v: Val) -> str:
        if v.cls == "f":
            return v.ref
        if u64(v.ct):
            return f"(double)(uint64_t)({v.ref})"
        return f"(double)({v.ref})"

    @staticmethod
    def ival(v: Val) -> str:
        """Python's ``int(v)`` in the int64 carrier."""
        return f"rp_d2i({v.ref})" if v.cls == "f" else v.ref

    def conv(self, v: Val, ct) -> Val:
        """The form's conversion to ``ct`` applied to ``v``."""
        if isinstance(ct, IntType):
            return Val(self.wrap(self.ival(v), ct), "i", ct)
        if isinstance(ct, FloatType):
            d = self.dbl(v)
            return Val(f"(double)(float)({d})" if ct.size == 4 else d,
                       "f", ct)
        if isinstance(ct, PointerType):
            return Val(self.ival(v), "i", ct)
        return v

    @staticmethod
    def truth(v: Val) -> str:
        return f"({v.ref} != 0.0)" if v.cls == "f" else f"({v.ref} != 0)"

    # -- memory -----------------------------------------------------------
    _LD = {"b": "i8", "B": "u8", "h": "i16", "H": "u16", "i": "i32",
           "I": "u32", "q": "i64", "Q": "i64", "f": "f32", "d": "f64"}
    _ST = {"b": "8", "B": "8", "h": "16", "H": "16", "i": "32", "I": "32",
           "q": "64", "Q": "64", "f": "f32", "d": "f64"}

    def load(self, addr: str, acc, site: int) -> Val:
        """``Machine.load``: array decay, struct blob or scalar, guarded
        where the walker bounds-checks; an instrumented unit then hands
        the access to the tracker."""
        if acc.shape == "array":
            t = self.t()
            self.o(f"{t} = {addr};")
            return Val(t, "i", acc.ct)
        if acc.guarded:
            self.o(f"GK({addr}, {acc.size});")
        if acc.shape == "struct":
            out = Val(addr, "s", acc.ct)
        else:
            cls = acc.cls
            t = self.t("double" if cls == "f" else "int64_t")
            self.o(f"{t} = rp_ld_{self._LD[acc.fmt]}(M + {addr});")
            out = Val(t, cls, acc.ct)
        self.charge(acc.cy, "lds" if acc.count else None)
        self.trace(site, addr, acc.size, 0)
        return out

    def store(self, addr: str, v: Val, acc, site: int):
        """``Machine.store``: convert, guard, pack, charge (and trace)."""
        if acc.shape == "array" or (acc.shape == "struct" and v.cls != "s"):
            self.fault(acc.fault)
            return
        if acc.shape == "struct":
            if acc.guarded:
                self.o(f"GK({addr}, {acc.size});")
            self.o(f"memmove(M + {addr}, M + {v.ref}, {acc.size});")
        else:
            cv = self.conv(v, acc.ct)
            if acc.guarded:
                self.o(f"GK({addr}, {acc.size});")
            self.o(f"rp_st_{self._ST[acc.fmt]}(M + {addr}, {cv.ref});")
        self.charge(acc.cy, "sts" if acc.count else None)
        self.trace(site, addr, acc.size, 1)

    def alloca(self, size_ref: str, decl: ast.VarDecl) -> str:
        # a grow callback may swap the backing buffer: reload M
        a = self.t()
        self.o(f"{a} = rp_alloca(E, {size_ref}); M = E->M;")
        self.record(a, size_ref, KIND_STACK, decl.nid, decl.name)
        return a

    # -- the instrumented unit's hooks (nothing elsewhere) ------------------
    def trace(self, site: int, addr: str, size: int, store: int):
        if self.low.tracked is not None:
            self.o(f"TA({site}, {addr}, {size}, {store});")

    def record(self, addr: str, size: str, kind: int, tag: int,
               label: str):
        """A new memory record for the tracker (``Memory.alloc``'s)."""
        if self.low.tracked is not None:
            self.low.result.labels[kind, tag] = label
            self.o(f"if (E->tr) rp_tr_alloc(E->tr, {addr}, {size}, "
                   f"{kind}, {tag});")

    # ======================================================================
    # lvalues and expressions
    # ======================================================================
    def a(self, x) -> str:
        """An lvalue's address (the walker's ``addr_of``: no cost)."""
        k = x.kind
        if k == "slot":
            return self.slot(x)
        if k == "aderef":
            return self.ival(self.x(x.v))
        if k == "fault":
            self.fault(x.fault)
            return "0"
        if k == "acomma":
            self.x(x.l)
            return self.a(x.r)
        t = self.t()
        if k == "aindex":
            b, i = self.x(x.b), self.x(x.i)
            self.o(f"{t} = {self.ival(b)} + {self.ival(i)} * {x.esize};")
        else:  # amember
            base = self.ival(self.x(x.base)) if x.arrow else self.a(x.base)
            self.o(f"{t} = {base} + {x.off};")
        return t

    def x(self, x) -> Val:
        self.o("ins += 1;")
        return getattr(self, "_x_" + x.kind)(x)

    def _x_const(self, x):
        if x.cls == "f":
            return Val(_flit(x.value), "f", x.ct)
        return Val(_ilit(x.value), "i", x.ct)

    def _x_fault(self, x):
        self.fault(x.fault)
        return Val("0", x.cls or "i", x.ct)

    def _x_str(self, x):
        res = self.low.result
        nid = x.node.nid
        idx = res.strlit_idx.get(nid)
        if idx is None:
            idx = res.strlit_idx[nid] = len(res.strlits)
            res.strlits.append(x.node)
        # first evaluation interns via the callback (walker timing: the
        # RODATA block allocates at first eval, not at dispatch); the
        # wrapper fills saddr[idx] so later evals stay in C
        t = self.t()
        self.o(f"if (E->saddr[{idx}] < 0) CB({OP_STRLIT}, {nid}, {idx});")
        self.o(f"{t} = E->saddr[{idx}];")
        return Val(t, "i", x.ct)

    def _x_tid(self, x):
        return Val("E->tid", "i", x.ct)

    def _x_nthreads(self, x):
        return Val("E->nthreads", "i", x.ct)

    def _x_var(self, x):
        return self.load(self.slot(x.slot), x.acc, x.node.nid)

    def _x_addr(self, x):
        return Val(self.a(x.a), "i", x.ct)

    def _x_deref(self, x):
        return self.load(self.ival(self.x(x.v)), x.acc, x.node.nid)

    def _x_load(self, x):
        return self.load(self.a(x.a), x.acc, x.node.nid)

    def _x_incdec(self, x):
        addr = self.slot(x.a) if x.fused else self.a(x.a)
        old = self.load(addr, x.ld, x.lsite)
        if x.fault is not None:
            self.fault(x.fault)
            return old
        self.charge(x.cy)
        delta = _flit(float(x.delta)) if old.cls == "f" else str(x.delta)
        new = self.conv(Val(f"({old.ref} + {delta})", old.cls, x.ct), x.ct)
        t = self.t("double" if new.cls == "f" else "int64_t")
        self.o(f"{t} = {new.ref};")
        new = Val(t, new.cls, x.ct)
        self.store(addr, new, x.st, x.node.nid)
        return old if x.post else new

    def _x_unop(self, x):
        v = self.x(x.v)
        self.charge(x.cy)
        if x.op == "-" and x.cls == "f":
            t = self.t("double")
            self.o(f"{t} = -({self.dbl(v)});")
            return Val(t, "f", x.ct)
        t = self.t()
        if x.op == "!":
            self.o(f"{t} = {self.truth(v)} ? 0 : 1;")
        else:
            op = "-" if x.op == "-" else "~"
            self.o(f"{t} = {self.wrap(f'{op}(uint64_t)({v.ref})', x.ct)};")
        return Val(t, "i", x.ct)

    def _x_logic(self, x):
        self.charge(x.cy)
        t = self.t()
        l = self.x(x.l)
        if x.op == "&&":
            self.o(f"{t} = 0;")
            self.o(f"if ({self.truth(l)}) {{")
        else:
            self.o(f"{t} = 1;")
            self.o(f"if (!{self.truth(l)}) {{")
        r = self.x(x.r)
        self.o(f"{t} = {self.truth(r)} ? 1 : 0;")
        self.o("}")
        return Val(t, "i", x.ct)

    def _x_binop(self, x):
        l = self.x(x.l)
        r = self.x(x.r)
        return self.apply(x.ap, l, r)

    def apply(self, ap, l: Val, r: Val) -> Val:
        """The form's binop shape on two carriers, charge first."""
        how, op = ap.how, ap.op
        if how == "fault":
            self.fault(ap.fault)
            return Val("0", ap.cls, ap.ct)
        self.charge(ap.cy)
        t = self.t("double" if ap.cls == "f" else "int64_t")
        li, ri = self.ival(l), self.ival(r)
        if how == "ptrdiff":
            self.o(f"{t} = rp_fldiv({li} - {ri}, {ap.esize});")
        elif how == "ptr":
            self.o(f"{t} = {li} {op} {ri} * {ap.esize};")
        elif how == "addptr":
            self.o(f"{t} = {ri} + {li} * {ap.esize};")
        elif how == "cmp" and "f" in (l.cls, r.cls):
            self.o(f"{t} = ({self.dbl(l)} {op} {self.dbl(r)});")
        elif how == "cmp":
            lc, rc = self.widen(li, ap.lu, ap.ru), self.widen(ri, ap.ru,
                                                               ap.lu)
            self.o(f"{t} = ({lc} {op} {rc});")
        elif how == "float":
            ld, rd = self.dbl(l), self.dbl(r)
            if op == "/":
                self.fault(ap.zero, f"{rd} == 0.0")
            v = f"({ld} {op} {rd})"
            self.o(f"{t} = {v if ap.ct.size == 8 else f'(double)(float){v}'};")
        elif op in ("/", "%"):
            self.fault(ap.zero, f"{ri} == 0")
            lc = f"(__int128)(uint64_t){li}" if ap.lu else f"(__int128){li}"
            rc = f"(__int128)(uint64_t){ri}" if ap.ru else f"(__int128){ri}"
            q = f"({lc}) / ({rc})"
            v = q if op == "/" else f"({lc}) - ({q}) * ({rc})"
            self.o(f"{t} = {self.wrap(v, ap.ct)};")
        else:
            if op == "<<":
                v = f"(uint64_t){li} << ({ri} & 63)"
            elif op == ">>" and ap.shr is not None:
                v = (f"(int64_t)(((uint64_t){li} & UINT64_C({ap.shr}))"
                     f" >> ({ri} & 63))")
            elif op == ">>":
                v = f"{li} >> ({ri} & 63)"
            else:
                v = f"(uint64_t){li} {op} (uint64_t){ri}"
            self.o(f"{t} = {self.wrap(v, ap.ct)};")
        return Val(t, ap.cls, ap.ct)

    @staticmethod
    def widen(ref: str, mine: bool, other: bool) -> str:
        """A compare operand: both unsigned compare as uint64, mixed
        signedness as __int128, both signed as they are."""
        if mine and other:
            return f"(uint64_t){ref}"
        if mine != other:
            return f"(__int128)(uint64_t){ref}" if mine \
                else f"(__int128){ref}"
        return ref

    def _x_assign(self, x):
        addr = self.slot(x.a) if x.fused else self.a(x.a)
        if x.op == "=":
            value = self.x(x.v)
            self.store(addr, value, x.st, x.node.nid)
            return value  # unconverted, like the walker
        old = self.load(addr, x.ld, x.lsite)
        new = self.apply(x.ap, old, self.x(x.v))
        self.store(addr, new, x.st, x.node.nid)
        return self.conv(new, x.ct)

    def _x_cond(self, x):
        self.charge(x.cy)
        c = self.x(x.c)
        t = self.t("double" if x.cls == "f" else "int64_t")
        self.o(f"if ({self.truth(c)}) {{")
        for branch, close in ((x.t, "} else {"), (x.f, "}")):
            v = self.x(branch)
            self.o(f"{t} = {self.dbl(v) if x.cls == 'f' else v.ref};")
            self.o(close)
        return Val(t, x.cls, x.ct)

    def _x_cast(self, x):
        v = self.x(x.v)
        if x.fn is None:
            return Val(v.ref, v.cls, x.ct)
        return self.conv(v, x.ct)

    def _x_comma(self, x):
        self.x(x.l)
        return self.x(x.r)

    # -- calls -------------------------------------------------------------
    def _encode_args(self, vals):
        specs = []
        for i, v in enumerate(vals):
            if v.cls == "f":
                specs.append(("f",))
                self.o(f"E->dargs[{i}] = {v.ref};")
            else:
                specs.append(("i", u64(v.ct)) if v.cls == "i"
                             else ("s", v.ct.size))
                self.o(f"E->args[{i}] = {v.ref};")
        return tuple(specs)

    def _callback(self, kind, name, x, vals) -> Val:
        """Route one call site through the Python machine (exact
        semantics for anything the native ABI cannot carry)."""
        specs = self._encode_args(vals)
        rcls = cls_of(x.ct)
        site = self.call_site(kind, name, x.node, specs, rcls)
        self.o(f"CB({OP_CALLFB if kind == 'user' else OP_BUILTIN}, "
               f"{site}, 0);")
        if rcls == "v":
            return Val("0", "v", x.ct)
        t = self.t("double" if rcls == "f" else "int64_t")
        self.o(f"{t} = E->{'dargs' if rcls == 'f' else 'args'}[0];")
        return Val(t, rcls, x.ct)

    def _heap_call(self, x, v: Val) -> Val:
        """``malloc``/``free`` through ``rp_malloc``/``rp_free``; what
        they cannot decide exactly takes the upcall, the way
        ``_native_math`` diverts a domain error."""
        self.low.result.heap = True
        self.low.result.heap_nodes[x.node.nid] = x.node
        t = self.t()
        self.o(f"{t} = rp_{x.name}(E, {v.ref}, {x.node.nid});")
        self.o(f"if ({t} < 0) {{")
        r = self._callback("builtin", x.name, x, [v])
        if x.name == "malloc":
            self.o(f"{t} = {r.ref};")
            if self.low.tracked is not None:
                self.o("} else {")
                self.record(t, v.ref, KIND_HEAP, x.node.nid,
                            malloc_label(x.node))
        self.o("}")
        return Val(t, "i", x.ct) if x.name == "malloc" else r

    def _native_math(self, x, vals) -> Val:
        """A libm builtin as plain C, diverting to the Python
        implementation wherever it would raise (domain errors ->
        ValueError, overflow -> OverflowError)."""
        nid, name = x.node.nid, x.name
        args = []
        for v in vals[:2 if name == "pow" else 1]:
            args.append(self.t("double"))
            self.o(f"{args[-1]} = {self.dbl(v)};")
        t = self.t("double")
        self.o("{")
        guard = _NATIVE_MATH[name]
        if guard is not None:
            self.o(f"if ({guard.format(args[0])}) goto NM{nid}_fb;")
        self.o(f"{t} = {name}({', '.join(args)});")
        if name in ("exp", "pow"):
            finite = " && ".join(f"isfinite({a})" for a in args)
            self.o(f"if (!isfinite({t}) && {finite}) goto NM{nid}_fb;")
        self.charge(x.libm)
        self.o(f"goto NM{nid}_done;")
        self.label(f"NM{nid}_fb")
        # re-encode through the Python impl so the exception (and its
        # cost charge) is exactly the interpreter's
        site = self.call_site("builtin", name, x.node,
                              self._encode_args(vals), "f")
        self.o(f"CB({OP_BUILTIN}, {site}, 0);")
        self.o(f"{t} = E->dargs[0];")
        self.label(f"NM{nid}_done")
        self.o("}")
        return Val(t, "f", x.ct)

    def _x_call(self, x):
        vals = [self.x(a) for a in x.args]
        if x.how != "user":
            self.charge(x.cy)
        if x.how == "libm":
            return self._native_math(x, vals)
        if x.how == "abs":
            vi = self.ival(vals[0])
            self.charge(x.abs_cy)
            t = self.t()
            self.o(f"{t} = {vi} < 0 ? -({vi}) : ({vi});")
            return Val(t, "i", x.ct)
        if x.how == "heap":
            return self._heap_call(x, vals[0])
        if x.how == "builtin":
            return self._callback("builtin", x.name, x, vals)
        fn = x.fn
        meta = self.low.native_fns.get(fn.nid)
        if meta is None or len(vals) < len(fn.params):
            # callee not lowered, or zip-truncation would leave params
            # without storage: the Python machine reproduces it exactly
            return self._callback("user", fn.name, x, vals)
        cargs = [self.dbl(v) if pcls == "f" else
                 v.ref if pcls == "s" else self.ival(v)
                 for v, pcls in zip(vals, meta.params)]
        self.callees.add(fn.nid)
        t = self.t("double" if meta.ret_cls == "f" else "int64_t")
        # commit local cost counters so a fault inside the callee (which
        # longjmps past this frame) reports exact totals; reload M in
        # case the callee grew the backing buffer
        self.o("FLUSH;")
        self.o(f"{t} = {meta.cname}(E{''.join(', ' + a for a in cargs)});"
               f" M = E->M;")
        return Val(t, meta.ret_cls, x.ct)

    # ======================================================================
    # statements
    # ======================================================================
    def local(self, x, value: Optional[Val] = None):
        """Allocate and bind one local, then initialize it — or store
        the parameter ``value`` into it."""
        if x.vla is not None:
            n = self.t()
            self.o(f"{n} = {self.ival(self.x(x.vla))};")
            size = f"{x.esize} * ({n} < 1 ? 1 : {n})"
        elif x.fault is not None:
            self.fault(x.fault)
            size = "1"
        else:
            size = str(x.size)
        base = self.bound[x.decl] = self.alloca(size, x.decl)
        if value is not None:
            self.store(base, value, x.st, x.decl.nid)
        for item in x.init:
            if item.__class__ is Fault:
                self.fault(item)
            else:
                addr = f"({base} + {item.off})" if item.off else base
                self.store(addr, self.x(item.v), item.st, item.node.nid)

    def stmt(self, x):
        k = x.kind
        if k == "block":
            for child in x.body:
                self.stmt(child)
        elif k == "expr":
            self.x(x.v)
        elif k == "decl":
            for d in x.decls:
                self.local(d)
        elif k == "if":
            self.charge(x.cy)
            c = self.x(x.c)
            self.o(f"if ({self.truth(c)}) {{")
            self.stmt(x.t)
            if x.f is not None:
                self.o("} else {")
                self.stmt(x.f)
            self.o("}")
        elif k == "loop":
            self.emit_loop(x)
        elif k == "return":
            self.emit_return(x)
        elif k in ("break", "continue"):
            if self.loops:
                self.o(f"goto {self.loops[-1][k == 'continue']};")
            else:
                rc = RC_BREAK if k == "break" else RC_CONTINUE
                self.o(f"FLUSH; E->jbp = oldjb; return {rc};")
        else:  # fault
            self.fault(x.fault)

    def emit_loop(self, x):
        nid = x.node.nid
        self.loop_nids.add(nid)
        top, cont, brk = f"L{nid}_s", f"L{nid}_c", f"L{nid}_b"
        tracked = self.low.tracked is not None and nid in self.low.tracked
        if tracked:
            on, c0, k = self.t(), self.t(), self.t()
            self.tracked.append((on, c0, k))
            # the profiler's controller: the execution and its cycles
            # count from before the init, its iterations from after
            self.o(f"{on} = rp_tr_on(E, {nid}); {c0} = {k} = 0;")
            self.o(f"if ({on}) {c0} = rp_tr_enter(E, cy8);")
        if x.init is not None:
            self.stmt(x.init)
        if tracked:
            exempt = self.control_span(x.node)
            self.o(f"if ({on}) {k} = rp_tr_begin(E, {exempt});")
        self.loops.append((brk, cont if x.how != "while" else top))
        self.label(top)
        if x.how != "dowhile" and x.c is not None:
            self.loop_charge(x.cy, tracked)
            c = self.x(x.c)
            self.o(f"if (!{self.truth(c)}) goto {brk};")
        self.fault(x.budget, "++E->steps > E->max_steps")
        if tracked:
            self.o(f"if ({on}) TR->iter = {k}++;")
        self.stmt(x.body)
        self.label(cont)
        if x.how == "dowhile":
            self.loop_charge(x.cy, tracked)
            c = self.x(x.c)
            self.o(f"if ({self.truth(c)}) goto {top};")
        else:
            if x.step is not None:
                self.x(x.step)
            self.o(f"goto {top};")
        self.label(brk)
        self.loops.pop()
        if tracked:
            self.tracked.pop()
            self.leave(on, c0, k)

    def loop_charge(self, cy, tracked: bool):
        """A loop's per-test charge, made as a plain unit makes it; on
        the profiled loop its start mark moves past the charge, so that
        the loop's cycles leave the tests out as the profiler's
        controller does."""
        self.charge(cy)
        if tracked and cy:
            on, c0, _ = self.tracked[-1]
            self.o(f"if ({on}) {c0} += {_cy8(cy)};")

    def leave(self, on: str, c0: str, k: str):
        self.o(f"if ({on}) rp_tr_leave(E, {k}, cy8, {c0});")

    def control_span(self, loop: ast.LoopStmt) -> str:
        """Address and size of the bytes the profiler exempts: the loop's
        control variable, if it has one."""
        from ...analysis.profiler import find_control_decl
        control = find_control_decl(loop)
        if control is None:
            return "0, 0"
        slot = self.low.form.slot(control)
        return f"{self.slot(slot)}, {control.ctype.size}"

    def emit_return(self, x):
        v = self.x(x.v) if x.v is not None else None
        for hooks in reversed(self.tracked):
            self.leave(*hooks)
        fn = self.fn
        if fn is not None:
            if v is None:
                self.o("E->rnone = 1;")
                carrier = "0.0" if fn.ret_cls == "f" else "0"
            else:
                self.o("E->rnone = 0;")
                # an int returned from a float function promotes through
                # double (documented >2^53 divergence)
                carrier = self.dbl(v) if fn.ret_cls == "f" else \
                    self.ival(v) if fn.ret_cls == "v" else v.ref
            self.o(f"E->depth -= 1; cy8 += {_cy8(self.ret_cy)};")
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
            kind = RET_U64 if u64(v.ct) else RET_I64
            self.o(f"E->args[0] = {v.ref}; E->args[1] = {kind};")
        self.o(f"FLUSH; E->jbp = oldjb; return {RC_RETURN};")


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


#: an emitter or refusal bug: the unit stays on the closures, loudly
_EMIT_BUGS = (AttributeError, KeyError, TypeError, IndexError)


class Lowerer:
    """Drives lowering of one analyzed program to a C translation unit.

    The function verdicts iterate to a fixpoint on the form (every
    function assumed lowerable; refusing one may refuse callers, whose
    direct call becomes a callback with limits of its own), then every
    surviving function — and the units and chunk drivers ``controlled``
    calls for (:meth:`_emit_entries`) — is emitted once, and the
    functions no run can enter in C (:meth:`_unenterable`) are
    dropped."""

    def __init__(self, program: ast.Program, sema,
                 controlled: Optional[frozenset] = None,
                 tracked: Optional[frozenset] = None):
        self.program = program
        self.sema = sema
        self.form = form_for(program, sema)
        self.controlled = controlled
        self.tracked = tracked
        self.native_fns: Dict[int, FnMeta] = {}
        #: statement nid -> its refusal as (part of) a unit, or None
        self.unit_verdicts: Dict[int, Optional[str]] = {}
        self.result = Lowering()
        self._nl: Dict[str, str] = {}

    # -- function scaffolding ---------------------------------------------
    def _fn_meta(self, fn: ast.FunctionDef) -> FnMeta:
        params = []
        for p in fn.params:
            if p.vla_length is not None:
                raise NLError("NL-VLA-PARAM", p.name)
            c = cls_of(p.ctype)
            if c == "v" or p.ctype.size is None:
                raise NLError("NL-PARAM-CLASS", p.name)
            params.append(c)
        runner = None
        if all(c in ("i", "f") for c in params) and len(params) <= 16:
            runner = f"r_{fn.nid}"
        return FnMeta(fn, f"f_{fn.nid}", runner, tuple(params),
                      cls_of(fn.ret_type), u64(fn.ret_type))

    def _fn_sig(self, meta: FnMeta) -> str:
        parts = ["Env *E"] + [
            f"{'double' if pcls == 'f' else 'int64_t'} p{i}"
            for i, pcls in enumerate(meta.params)]
        ret = "double" if meta.ret_cls == "f" else "int64_t"
        return f"RP_FN {ret} {meta.cname}({', '.join(parts)})"

    def _probe_functions(self):
        """Every function is native until its verdict refuses it."""
        for name, fn in self.sema.functions.items():
            try:
                if fn.body is None:
                    raise NLError("NL-NO-BODY")
                self.form.function(fn)  # every function designator seen
                self.native_fns[fn.nid] = self._fn_meta(fn)
            except NLError as err:
                self._nl[f"fn:{name}"] = err.reason
        while True:
            failed = {}
            for nid, meta in self.native_fns.items():
                try:
                    reason = _refusal(
                        self, self.form.function(meta.decl).body, meta)
                except _EMIT_BUGS:
                    reason = "NL-EMIT"
                if reason:
                    failed[nid] = reason
            if not failed:
                return
            for nid, reason in failed.items():
                self._nl[f"fn:{self.native_fns.pop(nid).name}"] = reason

    def _emit_fn(self, meta: FnMeta) -> str:
        x = self.form.function(meta.decl)
        em = _Emit(self, meta)
        em.ret_cy = x.cy_ret
        em.fault(x.overflow, "E->depth > 250")
        em.o(f"cy8 += {_cy8(x.cy_call)};")
        em.o("E->depth += 1;")
        for i, (p, pcls) in enumerate(zip(x.params, meta.params)):
            em.local(p, Val(f"p{i}", pcls, p.ct))
        em.stmt(x.body)
        # implicit fall-off-the-end return (the walker returns None)
        em.o("E->rnone = 1;")
        em.o(f"E->depth -= 1; cy8 += {_cy8(x.cy_ret)};")
        em.o(f"FLUSH; return {'0.0' if meta.ret_cls == 'f' else '0'};")
        meta.loop_nids = set(em.loop_nids)
        meta.callees = set(em.callees)
        self.result.fns[meta.nid] = meta
        return "\n".join([
            self._fn_sig(meta) + " {",
            "  int64_t cy8 = 0, ins = 0, lds = 0, sts = 0;",
            "  char *M = E->M;",
            "  (void)M; (void)cy8; (void)ins; (void)lds; (void)sts;",
        ] + em.lines + ["}"])

    def _emit_runner(self, meta: FnMeta) -> str:
        args = [f"E->dargs[{i}]" if pcls == "f" else f"E->args[{i}]"
                for i, pcls in enumerate(meta.params)]
        call = f"{meta.cname}(E{''.join(', ' + a for a in args)})"
        rtype = "double" if meta.ret_cls == "f" else "int64_t"
        if meta.ret_cls == "f":
            keep = f"E->dargs[0] = r; E->args[1] = {RET_F64};"
        elif meta.ret_cls == "s":
            keep = (f"E->args[0] = r; E->args[1] = {RET_BLOB}; "
                    f"E->args[2] = {meta.decl.ret_type.size};")
        else:
            keep = (f"E->args[0] = r; "
                    f"E->args[1] = {RET_U64 if meta.ret_u64 else RET_I64};")
        return "\n".join([
            f"int64_t {meta.runner}(void *ep) {{",
            "  Env *E = (Env *)ep;",
            "  jmp_buf jb; void *oldjb = E->jbp;",
            f"  if (setjmp(jb)) {{ E->jbp = oldjb; return {RC_FAULT}; }}",
            "  E->jbp = (void *)&jb;",
            f"  {rtype} r;",
            f"  r = {call};",
            f"  if (E->rnone) {{ E->args[1] = {RET_NONE}; }}",
            f"  else {{ {keep} }}",
            "  E->jbp = oldjb;",
            f"  return {RC_OK};",
            "}",
        ])

    def _emit_unit(self, s: ast.Stmt) -> str:
        cname = f"u_{s.nid}"
        em = _Emit(self)
        em.stmt(self.form.stmt(s))
        meta = UnitMeta(s.nid, cname, tuple(em.free_order))
        meta.loop_nids = set(em.loop_nids)
        meta.callees = set(em.callees)
        self.result.units[s.nid] = meta
        return "\n".join(_unit_prologue(cname) + em.lines + [
            f"  FLUSH; E->jbp = oldjb; return {RC_OK};", "}"])

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
                    control: ast.VarDecl) -> str:
        """DOALL chunk driver: ``runtime.plan.doall_iteration``'s
        protocol — eval cond (cost only), body, eval step — for k in
        [args[0], args[1]), with the iteration counter mirrored to the
        heartbeat slot at args[4] and reported back via args[6].  The
        bounds and the slot address are read once, up front: a callback
        in the body marshals its own arguments through ``E->args``."""
        cname = f"k_{s.nid}"
        x = self.form.stmt(s)
        em = _Emit(self)
        brk_lbl, cont_lbl = f"KB_{s.nid}", f"KC_{s.nid}"
        em.loops.append((brk_lbl, cont_lbl))
        em.o("for (k_ = k0_; k_ < k1_; k_++) {")
        if x.c is not None:
            em.x(x.c)
        em.stmt(x.body)
        em.label(cont_lbl)
        if x.step is not None:
            em.x(x.step)
        em.o("iters_ += 1;")
        em.o("if (hb_) *hb_ = iters_;")
        em.o("}")
        em.o(f"E->args[6] = iters_; FLUSH; E->jbp = oldjb; "
             f"return {RC_OK};")
        em.label(brk_lbl)
        em.o(f"E->args[6] = iters_; FLUSH; E->jbp = oldjb; "
             f"return {RC_BREAK};")
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
        return "\n".join(prologue + em.lines + ["  }", "}"])

    # -- driver ------------------------------------------------------------
    def lower(self) -> Lowering:
        res = self.result
        self._probe_functions()
        texts: Dict[int, Tuple[str, Optional[str]]] = {}
        for fn in self.sema.functions.values():
            meta = self.native_fns.get(fn.nid)
            if meta is not None:
                texts[fn.nid] = (self._emit_fn(meta),
                                 self._emit_runner(meta) if meta.runner
                                 else None)
        entries = self._emit_entries()
        for nid in self._unenterable():
            del res.fns[nid], texts[nid]
        fns = [fn for fn, _ in texts.values()]
        runners = [runner for _, runner in texts.values() if runner]
        res.sema = self.sema
        res.controlled = self.controlled
        res.tracked = self.tracked
        res.globals_order = tuple(self.sema.globals)
        res.nl = dict(self._nl)
        fwd = [self._fn_sig(m) + ";" for m in
               (res.fns[k] for k in sorted(res.fns))]
        res.exports = (
            [res.units[k].cname for k in sorted(res.units)] +
            [res.chunks[k].cname for k in sorted(res.chunks)] +
            [m.runner for m in res.fns.values() if m.runner]
        )
        traced = self.tracked is not None
        prelude = _PRELUDE.replace("} Env;", _TRACED_ENV) if traced \
            else _PRELUDE
        res.header = "\n".join(
            [prelude] + ([_HEAP] if res.heap else []) +
            ([_TRACKER_HEAD] if traced else []) + fwd + [""])
        res.definitions = ([_TRACKER] if traced else []) + fns + \
            entries + runners
        res.fingerprint = hashlib.sha256(
            (f"abi{NATIVE_ABI_VERSION}\n" + res.source).encode()
        ).hexdigest()[:16]
        return res

    def _unenterable(self) -> Set[int]:
        """The functions a unit lowered for a declared ``controlled``
        set need not hold: their loop closure holds a controlled loop,
        and no unit or chunk driver calls them, directly or through a
        callee.  With a controller on that loop ``call_function``
        refuses their runner anyway; with none, the closures run them
        and re-enter C at their loops, whose units :meth:`_emit_entries`
        emitted because the function is interpreted.  ``main`` is the
        one such function of every kernel."""
        res = self.result
        if self.controlled is None:
            return set()
        called: Set[int] = set()
        stack = [nid for meta in (*res.units.values(), *res.chunks.values())
                 for nid in meta.callees]
        while stack:
            nid = stack.pop()
            if nid not in called:
                called.add(nid)
                stack.extend(res.fns[nid].callees)
        return {nid for nid, meta in res.fns.items() if nid not in called
                and not self.controlled.isdisjoint(res.loop_closure(meta))}

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

        def emit_once(key: str, s: ast.Stmt, emit, *args):
            if key in tried:
                return
            tried.add(key)
            try:
                reason = _refusal(self, self.form.stmt(s))
                if reason is None:
                    src.append(emit(s, *args))
            except _EMIT_BUGS:
                reason = "NL-EMIT"
            if reason:
                self._nl[key] = reason

        def hit(meta) -> bool:
            return controlled is None or \
                not controlled.isdisjoint(res.loop_closure(meta))

        def unit(s: ast.Stmt) -> Optional[UnitMeta]:
            if not isinstance(s, ast.DeclStmt):
                emit_once(f"unit:{s.nid}", s, self._emit_unit)
            return res.units.get(s.nid)

        def chunk(loop: ast.For):
            control = self._control_of(loop)
            if control is None:
                self._nl[f"chunk:{loop.nid}"] = "NL-CONTROL"
            else:
                emit_once(f"chunk:{loop.nid}", loop, self._emit_chunk,
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

        addr_taken = self.form.fn_values
        for fn in self.sema.functions.values():
            if fn.body is None:
                continue
            meta = res.fns.get(fn.nid)
            if meta is None or meta.runner is None or hit(meta) \
                    or fn.nid in addr_taken:
                interpreted(fn.body)
        return src


def lower_program(program: ast.Program, sema,
                  controlled: Optional[frozenset] = None,
                  tracked: Optional[frozenset] = None) -> Lowering:
    """Lower ``program`` to a C translation unit + dispatch metadata.

    ``controlled`` is the set of loop nids that may carry a controller;
    ``None`` means any loop may (every loop gets the full entry set).
    ``tracked`` makes the *instrumented* unit: every access, record and
    the entry, iterations and exit of those loops call the dependence
    tracker the unit carries (``Env.tr``; without one they do
    nothing)."""
    if controlled is not None:
        controlled = frozenset(controlled)
    if tracked is not None:
        tracked = frozenset(tracked)
    return Lowerer(program, sema, controlled, tracked).lower()
