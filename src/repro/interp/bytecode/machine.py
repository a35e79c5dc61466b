"""The bytecode-tier machine: a drop-in ``Machine`` subclass.

``BytecodeMachine`` keeps the walker's entire state model (memory,
frames, cost sinks, watchdog stack, observers, redirector, free hooks,
loop controllers) and overrides only the four execution entry points —
``exec_stmt`` / ``eval`` / ``addr_of`` / ``call_function`` — to
dispatch into lazily compiled per-node closures.  Everything that
consumes the public machine API (the parallel runtime's controllers,
the profiler, the fault injectors, builtins, permissive recovery)
works unchanged.

The fault hooks of :mod:`repro.runtime.faults` (``_stmt_hook``,
``_tid_hook``, ``_store_taps``) are attributes of the base ``Machine``;
the closures read them at the points the walker does.
"""

from __future__ import annotations

from typing import List, Optional

from ...frontend import ast
from ...frontend.sema import SemaResult
from ..machine import Machine
from .compiler import compiler_for


class BytecodeMachine(Machine):
    """Drop-in ``Machine`` executing compiled closures."""

    engine = "bytecode"

    #: re-entry hooks the closures read at loop entry
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
        self.compiler = compiler_for(program, sema, tracer)
        #: compiled (C) frames in flight beneath the running Python code;
        #: the function closures add them to their depth check
        self._cframes = 0
        self._code_exprs = self.compiler.exprs
        self._code_addrs = self.compiler.addrs
        self._code_stmts = self.compiler.stmts
        self._code_fns = self.compiler.fns

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
