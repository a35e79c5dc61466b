"""Compiler driver and per-program code caches for the bytecode tier.

A :class:`Compiler` translates the lowered form of one (program, sema)
pair (:func:`repro.interp.lowered.form_for`, shared with the C emitter)
into closures: nid-keyed tables for expressions, lvalues and
statements, and fn-nid-keyed function runners.  The form decides every
shape — a malformed node is a ``fault`` record that raises where the
walker would — so a translation never falls back to the walker.
Compiled code is machine-independent — closures fetch ``m.cost`` /
``m.memory`` / ``m.redirector`` / ``m.observers`` from the machine on
every call — so one Compiler is shared by every machine executing that
program (the parallel runtime, the profiler and the harness all
construct several machines per program; compiling once amortizes the
lowering).

Caches are keyed weakly by the Program object.  Transforms clone
programs before rewriting, so a compiled program's AST is stable; the
one in-place mutator in the tree (:mod:`repro.lint.mutate`) calls
:func:`invalidate_code` after corrupting an AST, which drops every
artifact derived from it: the form, the closures and the native
context.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional

from ...frontend import ast
from ...frontend.sema import SemaResult
from ..lowered import _FORMS, form_for
from .exprs import EXPR_COMPILERS, compile_lvalue
from .stmts import compile_function, compile_stmt


class Compiler:
    """Lazily translates one program's lowered form to closures,
    memoized by nid."""

    def __init__(self, program: ast.Program, sema: SemaResult,
                 tracer=None):
        # weakly: _CODE_CACHE keys on the Program and holds this Compiler,
        # a strong reference back would keep every entry alive for ever
        self._program = weakref.ref(program)
        self.sema = sema
        self.tracer = tracer
        self.form = form_for(program, sema)
        self.exprs: Dict[int, object] = {}
        self.addrs: Dict[int, object] = {}
        self.stmts: Dict[int, object] = {}
        self.fns: Dict[int, object] = {}

    @property
    def program(self) -> Optional[ast.Program]:
        """The program this code was lowered from (None once it died)."""
        return self._program()

    # -- translation of records (memoized by their node's nid) -------------
    def x(self, rec):
        code = self.exprs.get(rec.node.nid)
        if code is None:
            code = self.exprs[rec.node.nid] = \
                EXPR_COMPILERS[rec.kind](self, rec)
        return code

    def a(self, rec):
        return compile_lvalue(self, rec)

    def stmt_rec(self, rec):
        code = self.stmts.get(rec.node.nid)
        if code is None:
            code = self.stmts[rec.node.nid] = compile_stmt(self, rec)
        return code

    # -- entry points by AST node -------------------------------------------
    def expr(self, e):
        code = self.exprs.get(e.nid)
        return code if code is not None else self.x(self.form.expr(e))

    def addr(self, e):
        code = self.addrs.get(e.nid)
        if code is None:
            code = self.addrs[e.nid] = self.a(self.form.addr(e))
        return code

    def stmt(self, s):
        code = self.stmts.get(s.nid)
        return code if code is not None else \
            self.stmt_rec(self.form.stmt(s))

    def function(self, fn):
        code = self.fns.get(fn.nid)
        if code is None:
            tracer = self.tracer
            if tracer:
                with tracer.phase("compile-bytecode", cat="compile",
                                  function=fn.name):
                    code = compile_function(self, self.form.function(fn))
            else:
                code = compile_function(self, self.form.function(fn))
            self.fns[fn.nid] = code
        return code


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
    """Drop everything derived from ``program`` (or from all programs):
    its lowered form, its closures and its native context.  Callers
    that mutate an AST in place after it may have been executed (the
    lint mutators) must invalidate, or stale code would keep the
    pre-mutation semantics alive."""
    from ..native import backend
    for cache in (_FORMS, _CODE_CACHE, backend._CONTEXTS):
        if program is None:
            cache.clear()
        else:
            cache.pop(program, None)
    for key in [k for k, c in _HASH_CACHE.items()
                if program is None or c.program is program]:
        del _HASH_CACHE[key]
