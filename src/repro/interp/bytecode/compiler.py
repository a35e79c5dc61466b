"""Compiler driver and per-program code caches for the bytecode tier.

A :class:`Compiler` owns the compiled-code tables for one (program,
sema) pair: nid-keyed closures for expressions, lvalues and
statements, and fn-nid-keyed function runners.  Compiled code is
machine-independent — closures fetch ``m.cost`` / ``m.memory`` /
``m.redirector`` / ``m.observers`` from the machine on every call — so
one Compiler is shared by every machine executing that program (the
parallel runtime, the profiler and the harness all construct several
machines per program; compiling once amortizes the lowering).

Caches are keyed weakly by the Program object.  Transforms clone
programs before rewriting, so a compiled program's AST is stable; the
one in-place mutator in the tree (:mod:`repro.lint.mutate`) calls
:func:`invalidate_code` after corrupting an AST.

Robustness: per-node compilation is wrapped — if lowering a node
raises (malformed AST that the walker would only fault on when
executed), the node gets a fallback closure that defers to the walker
dispatch at run time, preserving the walker's error behavior and
timing.  ``Compiler.fallbacks`` counts these for tests.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional

from ...frontend import ast
from ...frontend.sema import SemaResult
from ..machine import InterpError, Machine
from .exprs import compile_addr, compile_expr
from .stmts import compile_function, compile_stmt


class Compiler:
    """Lazily lowers one analyzed program to closures, memoized by nid."""

    def __init__(self, program: ast.Program, sema: SemaResult,
                 tracer=None):
        # weakly: _CODE_CACHE keys on the Program and holds this Compiler,
        # a strong reference back would keep every entry alive for ever
        self._program = weakref.ref(program)
        self.sema = sema
        self.tracer = tracer
        self.exprs: Dict[int, object] = {}
        self.addrs: Dict[int, object] = {}
        self.stmts: Dict[int, object] = {}
        self.fns: Dict[int, object] = {}
        #: nodes that fell back to walker dispatch (0 for well-formed
        #: programs; asserted by the differential tests)
        self.fallbacks = 0
        tc = getattr(sema, "thread_context", None) or {}
        self.tid_decl = tc.get("__tid")
        self.nthreads_decl = tc.get("__nthreads")

    @property
    def program(self) -> Optional[ast.Program]:
        """The program this code was lowered from (None once it died)."""
        return self._program()

    # -- compile entry points (memoized) ---------------------------------
    def expr(self, e):
        code = self.exprs.get(e.nid)
        if code is None:
            try:
                code = compile_expr(self, e)
            except Exception:
                code = self._fallback_expr(e)
            self.exprs[e.nid] = code
        return code

    def addr(self, e):
        code = self.addrs.get(e.nid)
        if code is None:
            try:
                code = compile_addr(self, e)
            except Exception:
                code = self._fallback_addr(e)
            self.addrs[e.nid] = code
        return code

    def stmt(self, s):
        code = self.stmts.get(s.nid)
        if code is None:
            try:
                code = compile_stmt(self, s)
            except Exception:
                code = self._fallback_stmt(s)
            self.stmts[s.nid] = code
        return code

    def function(self, fn):
        code = self.fns.get(fn.nid)
        if code is None:
            tracer = self.tracer
            if tracer:
                with tracer.phase("compile-bytecode", cat="compile",
                                  function=fn.name):
                    code = compile_function(self, fn)
            else:
                code = compile_function(self, fn)
            self.fns[fn.nid] = code
        return code

    # -- fallbacks --------------------------------------------------------
    def _fallback_expr(self, e):
        self.fallbacks += 1

        def run(m):
            m.cost.instructions += 1
            return m._eval_dispatch[type(e)](e)
        return run

    def _fallback_addr(self, e):
        self.fallbacks += 1

        def run(m):
            return Machine.addr_of(m, e)
        return run

    def _fallback_stmt(self, s):
        self.fallbacks += 1

        def run(m):
            h = m._stmt_hook
            if h is not None:
                h(s)
            steps = m._steps + 1
            m._steps = steps
            if steps > m.max_steps:
                raise InterpError(
                    "step budget exceeded (runaway program?)", s)
            dl = m._watchdog_deadline
            if dl is not None and steps > dl:
                m._watchdog_trip(s)
            m._stmt_dispatch[type(s)](s)
        return run


# ---------------------------------------------------------------------------
# program-level cache
# ---------------------------------------------------------------------------

#: Program -> {id(sema): Compiler}.  The Compiler holds the
#: sema strongly, so the id() key cannot be recycled while the entry
#: lives; it holds the Program weakly (compiled closures capture AST
#: nodes below the root, never the root), so the outer mapping dies
#: with the Program.
_CODE_CACHE: "weakref.WeakKeyDictionary[ast.Program, dict]" = \
    weakref.WeakKeyDictionary()


def compiler_for(program: ast.Program, sema: SemaResult,
                 tracer=None) -> Compiler:
    """The shared Compiler for (program, sema); created on first use.
    ``tracer`` (when truthy) is adopted so subsequent lazy compiles
    emit ``compile-bytecode`` phases."""
    entry = _CODE_CACHE.get(program)
    if entry is None:
        entry = _CODE_CACHE[program] = {}
    comp = entry.get(id(sema))
    if comp is None:
        comp = entry[id(sema)] = Compiler(program, sema, tracer)
    elif tracer:
        comp.tracer = tracer
    return comp


#: source fingerprint -> Compiler, held *strongly*.  Worker
#: processes key compiled code on the hash of the program text they
#: were forked with: tasks carry only the fingerprint (no pickled
#: program state), and a warm worker reuses its lowered closures across
#: every task and loop of the same program.
_HASH_CACHE: Dict[str, Compiler] = {}


def source_fingerprint(text: str) -> str:
    """Stable content hash for compile memoization across processes."""
    import hashlib
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def compiler_for_hash(fingerprint: str, program: ast.Program,
                      sema: SemaResult, tracer=None) -> Compiler:
    """The Compiler for a source hash.  ``program`` / ``sema`` supply
    the AST on a cache miss (or when the hash collides with a different
    in-memory program object)."""
    comp = _HASH_CACHE.get(fingerprint)
    if comp is None or comp.program is not program:
        comp = compiler_for(program, sema, tracer)
        _HASH_CACHE[fingerprint] = comp
    return comp


def precompile(program: ast.Program, sema: SemaResult, tracer=None,
               fingerprint: Optional[str] = None) -> Compiler:
    """Eagerly lower every function body of ``program`` (the service's
    ``lower`` stage).  The lazy per-node memo stays the steady-state
    path; pre-compiling up front moves all closure-building cost into
    the cacheable compile step so warm jobs execute without lowering
    work.  Registers under ``fingerprint`` when given, so forked
    workers resolve the same object via :func:`compiler_for_hash`."""
    if fingerprint is not None:
        comp = compiler_for_hash(fingerprint, program, sema, tracer)
    else:
        comp = compiler_for(program, sema, tracer)
    for fn in program.functions():
        comp.function(fn)
        comp.stmt(fn.body)
    return comp


def invalidate_code(program: Optional[ast.Program] = None) -> None:
    """Drop compiled code for ``program`` (or all programs).  Callers
    that mutate an AST in place after it may have been executed (the
    lint mutators) must invalidate, or stale closures would keep the
    pre-mutation semantics alive."""
    if program is None:
        _CODE_CACHE.clear()
        _HASH_CACHE.clear()
    else:
        _CODE_CACHE.pop(program, None)
        for key in [k for k, c in _HASH_CACHE.items()
                    if c.program is program]:
            del _HASH_CACHE[key]
