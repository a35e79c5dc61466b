"""The bytecode-tier machine: a drop-in ``Machine`` subclass.

``BytecodeMachine`` keeps the walker's entire state model (memory,
frames, cost sinks, watchdog stack, observers, redirector, free hooks,
loop controllers) and overrides only the four execution entry points —
``exec_stmt`` / ``eval`` / ``addr_of`` / ``call_function`` — to
dispatch into lazily compiled per-node closures.  Everything that
consumes the public machine API (the parallel runtime's controllers,
the profiler, the fault injectors, builtins, permissive recovery)
works unchanged.

Fault-injection hook points (the bytecode equivalents of the three
monkey-patch surfaces :mod:`repro.runtime.faults` uses on the walker):

* ``_stmt_hook`` — called with each statement node before it executes
  (equivalent of wrapping ``exec_stmt``; used by ThreadAborter);
* ``_tid_hook`` — called with ``(ident_node, tid)`` on every ``__tid``
  read (equivalent of replacing ``_eval_dispatch[Ident]``; used by
  CopyIndexSkew);
* ``_store_taps`` — ``{assign_nid: fn(value) -> value}`` consulted by
  Member-target assignments before the store (equivalent of wrapping
  ``store``; used by SpanCorruptor).

All three are instrumented-variant only; the bare variant compiles
them out along with observer fan-out and per-statement watchdog
accounting.
"""

from __future__ import annotations

from typing import List, Optional

from ...frontend import ast
from ...frontend.sema import SemaResult
from ..machine import Machine, resolve_engine
from .compiler import BARE, INSTRUMENTED, compiler_for


class BytecodeMachine(Machine):
    """Drop-in ``Machine`` executing compiled closures."""

    #: re-entry hooks the bare closures read at loop entry
    #: (``hook(loop) -> ran``) and at direct call sites
    #: (``hook(fn, args) -> result``); bound on ``NativeMachine`` only
    _native_loop = None
    _native_call = None

    def __init__(
        self,
        program: ast.Program,
        sema: SemaResult,
        check_bounds: bool = True,
        max_steps: int = 500_000_000,
        max_loop_steps: Optional[int] = None,
        engine: Optional[str] = None,
        tracer=None,
        memory=None,
        controlled=None,
    ):
        super().__init__(program, sema, check_bounds, max_steps,
                         max_loop_steps, memory=memory)
        name = resolve_engine(engine)
        if name == "ast":  # direct construction without an engine request
            name = "bytecode"
        self.engine = name
        variant = BARE if name == "bytecode-bare" else INSTRUMENTED
        self.compiler = compiler_for(program, sema, variant, tracer)
        self._code_exprs = self.compiler.exprs
        self._code_addrs = self.compiler.addrs
        self._code_stmts = self.compiler.stmts
        self._code_fns = self.compiler.fns
        # fault-injection hook points (see module docstring)
        self._stmt_hook = None
        self._tid_hook = None
        self._store_taps = None

    # -- compiled dispatch -------------------------------------------------
    def exec_stmt(self, stmt: ast.Stmt) -> None:
        code = self._code_stmts.get(stmt.nid)
        if code is None:
            code = self.compiler.stmt(stmt)
        code(self)

    def eval(self, expr: ast.Expr):
        code = self._code_exprs.get(expr.nid)
        if code is None:
            code = self.compiler.expr(expr)
        return code(self)

    def addr_of(self, expr: ast.Expr) -> int:
        code = self._code_addrs.get(expr.nid)
        if code is None:
            code = self.compiler.addr(expr)
        return code(self)

    def call_function(self, fn: ast.FunctionDef, args: List) -> object:
        code = self._code_fns.get(fn.nid)
        if code is None:
            code = self.compiler.function(fn)
        return code(self, args)
