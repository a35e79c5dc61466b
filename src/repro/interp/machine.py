"""Tree-walking interpreter for analyzed MiniC programs.

The machine executes the same AST the transforms rewrite, so the
expansion pass is exercised end-to-end: transformed programs really
run, private accesses really land in per-thread copies, and the race
checker can observe that they do.

Execution features the reproduction depends on:

* **Cycle cost model** — every operation adds to the active
  :class:`CostSink`.  Speedups are ratios of modeled cycles, replacing
  the paper's wall-clock measurements (see DESIGN.md).
* **Thread context** — ``__tid`` / ``__nthreads`` evaluate to the
  machine's current ``tid``/``nthreads``; the parallel runtime swaps
  them per virtual thread.
* **Loop controllers** — the profiler and the parallel runtime
  register a controller for a candidate loop; when control reaches that
  loop the controller drives iteration execution through the public
  ``exec_stmt`` / ``eval`` API.
* **Access observers** — tracing hooks receive every scalar memory
  access with its *site* (AST node id), feeding the dependence
  profiler.  The race checker is filled inline instead: while it checks
  a region, ``race_log`` is the current thread's set of distinct
  ``(addr, size, is_store)`` accesses and each access site adds to it.
* **Access redirector** — an optional address translation applied to
  loads/stores; the SpiceC-style runtime-privatization baseline is
  implemented as a redirector.
"""

from __future__ import annotations

import os
import sys

from typing import Callable, Dict, List, Optional, Set

# each MiniC frame costs many Python frames; give tree-walking headroom
if sys.getrecursionlimit() < 40000:
    sys.setrecursionlimit(40000)

from ..diagnostics import DiagnosableError
from ..frontend import ast
from ..frontend.ctypes import (
    ArrayType, CType, FloatType, IntType, PointerType, StructType,
)
from ..frontend.sema import SemaResult
from . import memory as mem
from .builtins import BUILTIN_IMPLS
from .costs import COSTS

# ---------------------------------------------------------------------------
# Cost model (the table itself is ``costs.COSTS``)
# ---------------------------------------------------------------------------


class CostSink:
    """Mutable cycle/instruction counters; the runtime swaps sinks to
    attribute cost per virtual thread and per category."""

    __slots__ = ("cycles", "instructions", "loads", "stores")

    def __init__(self):
        self.cycles = 0.0
        self.instructions = 0
        self.loads = 0
        self.stores = 0

    def add(self, other: "CostSink") -> None:
        self.cycles += other.cycles
        self.instructions += other.instructions
        self.loads += other.loads
        self.stores += other.stores

    def copy(self) -> "CostSink":
        out = CostSink()
        out.add(self)
        return out

    def __repr__(self) -> str:
        return (
            f"<CostSink cycles={self.cycles:.0f} instrs={self.instructions} "
            f"ld={self.loads} st={self.stores}>"
        )


# ---------------------------------------------------------------------------
# Control-flow signals
# ---------------------------------------------------------------------------


class BreakSignal(Exception):
    pass


class ContinueSignal(Exception):
    pass


class ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


class ExitSignal(Exception):
    def __init__(self, code: int):
        self.code = code


class InterpError(DiagnosableError):
    default_code = "INTERP-FAULT"
    default_phase = "interp"

    def __init__(self, message: str, node: Optional[ast.Node] = None,
                 code: Optional[str] = None, loop: Optional[str] = None):
        loc = node.loc if node is not None else None
        if loc == (0, 0):  # synthesized nodes carry a placeholder loc
            loc = None
        if loc is not None:
            message = f"line {loc[0]}:{loc[1]}: {message}"
        super().__init__(message, code=code, loc=loc, loop=loop)


class WatchdogTimeout(InterpError):
    """A loop execution exceeded its step budget (the runtime guard
    that turns runaway loops into structured errors instead of hangs)."""

    default_code = "INTERP-WATCHDOG"

    def __init__(self, message: str, node: Optional[ast.Node] = None,
                 loop: Optional[str] = None, budget: Optional[int] = None):
        super().__init__(message, node, loop=loop)
        self.budget = budget
        self.diagnostic.data["budget"] = budget


class Frame:
    __slots__ = ("fn", "vars", "stack_allocs")

    def __init__(self, fn: Optional[ast.FunctionDef]):
        self.fn = fn
        #: VarDecl -> address
        self.vars: Dict[ast.VarDecl, int] = {}
        self.stack_allocs: List[mem.Allocation] = []


# ---------------------------------------------------------------------------
# Execution engines
# ---------------------------------------------------------------------------

#: available interpreter engines: the tree walker ("ast"), the
#: bytecode tier ("bytecode" — closures with observers/watchdog/cost
#: identical to the walker) and the native tier ("native" — lowered to
#: C and run at hardware speed on the segment; per-construct fallback
#: to the bytecode closures).
ENGINES = ("ast", "bytecode", "native")

#: environment variable consulted when no explicit engine is requested
ENGINE_ENV = "REPRO_ENGINE"


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve an engine request: explicit arg > $REPRO_ENGINE > "ast"."""
    name = engine or os.environ.get(ENGINE_ENV) or "ast"
    if name not in ENGINES:
        raise ValueError(
            f"unknown interpreter engine {name!r}; "
            f"choose from {', '.join(ENGINES)}"
        )
    return name


def observed_engine(engine: Optional[str] = None) -> str:
    """Engine for a run with observers, fault hooks or a redirector
    attached from the start: compiled C cannot fan accesses out, so
    ``native`` is promoted to the closures it would fall back to."""
    name = resolve_engine(engine)
    return "bytecode" if name == "native" else name


class Machine:
    """Interpreter for one analyzed program.

    ``Machine(...)`` is also the engine selector: constructing it with
    ``engine="bytecode"`` (or ``$REPRO_ENGINE`` set) returns a
    :class:`repro.interp.bytecode.BytecodeMachine`, a drop-in subclass
    that executes lazily compiled per-function closures instead of
    walking the AST.  All public contracts (``observers``,
    ``redirector``, ``free_hooks``, ``loop_controllers``, watchdog,
    cost sinks) are engine-independent.
    """

    engine = "ast"

    def __new__(cls, *args, engine: Optional[str] = None, **kwargs):
        if cls is Machine:
            name = resolve_engine(engine)
            if name == "native":
                from .native import NativeMachine
                return object.__new__(NativeMachine)
            if name == "bytecode":
                from .bytecode import BytecodeMachine
                return object.__new__(BytecodeMachine)
        return object.__new__(cls)

    def __init__(
        self,
        program: ast.Program,
        sema: SemaResult,
        check_bounds: bool = True,
        max_steps: int = 500_000_000,
        max_loop_steps: Optional[int] = None,
        engine: Optional[str] = None,
        tracer=None,
        memory: Optional[mem.Memory] = None,
        controlled=None,
    ):
        # ``controlled`` (loop nids that may carry a controller) shapes
        # only what the native tier compiles; every tier accepts it
        self.program = program
        self.sema = sema
        # an injected Memory lets the multi-core backend run the machine
        # against a shared-segment buffer instead of a private bytearray
        self.memory = memory if memory is not None \
            else mem.Memory(check_bounds=check_bounds)
        self.cost = CostSink()
        self.output: List[str] = []
        self.frames: List[Frame] = []
        self.globals_frame = Frame(None)
        self.max_steps = max_steps
        self._steps = 0
        #: per-loop-execution watchdog: when set, every loop execution
        #: (including controller-driven parallel regions, which push
        #: their own budget) may run at most this many statements
        self.max_loop_steps = max_loop_steps
        #: stack of (absolute step deadline, loop label)
        self._watchdog_stack: List[tuple] = []
        self._watchdog_deadline: Optional[int] = None

        # thread context
        self.tid = 0
        self.nthreads = 1
        self._tid_decl = sema.thread_context.get("__tid")
        self._nthreads_decl = sema.thread_context.get("__nthreads")

        # hooks
        self.observers: List = []
        #: the current thread's set of distinct ``(addr, size, is_store)``
        #: accesses while a race checker checks a region, else ``None``
        #: (:meth:`repro.interp.trace.RaceChecker.attach`)
        self.race_log: Optional[Set[tuple]] = None
        self.redirector: Optional[Callable[[int, int, int, bool], int]] = None
        self.loop_controllers: Dict[int, Callable] = {}
        #: called with the address passed to free() before release
        self.free_hooks: List[Callable[[int], None]] = []
        # fault-injection hook points (repro.runtime.faults wires them;
        # every engine that runs Python reads them at the same places)
        #: called with each statement node before it is counted
        self._stmt_hook: Optional[Callable] = None
        #: ``hook(ident_node, tid) -> tid`` on every ``__tid`` read
        self._tid_hook: Optional[Callable] = None
        #: ``{assign_nid: fn(value) -> value}`` consulted by
        #: Member-target assignments for the value that lands in memory
        self._store_taps: Optional[Dict[int, Callable]] = None

        self._strlit_cache: Dict[int, int] = {}
        self._globals_ready = False

        self._eval_dispatch = {
            ast.IntLit: self._eval_intlit,
            ast.FloatLit: self._eval_floatlit,
            ast.StrLit: self._eval_strlit,
            ast.Ident: self._eval_ident,
            ast.Unary: self._eval_unary,
            ast.Binary: self._eval_binary,
            ast.Assign: self._eval_assign,
            ast.Cond: self._eval_cond,
            ast.Call: self._eval_call,
            ast.Index: self._eval_index,
            ast.Member: self._eval_member,
            ast.Cast: self._eval_cast,
            ast.SizeofType: self._eval_sizeof_type,
            ast.SizeofExpr: self._eval_sizeof_expr,
            ast.Comma: self._eval_comma,
        }
        self._stmt_dispatch = {
            ast.Block: self._exec_block,
            ast.ExprStmt: self._exec_expr_stmt,
            ast.DeclStmt: self._exec_decl_stmt,
            ast.If: self._exec_if,
            ast.While: self._exec_while,
            ast.DoWhile: self._exec_dowhile,
            ast.For: self._exec_for,
            ast.Return: self._exec_return,
            ast.Break: self._exec_break,
            ast.Continue: self._exec_continue,
        }

    # -- setup ---------------------------------------------------------------
    def setup_globals(self) -> None:
        """Allocate and initialize global variables (idempotent)."""
        if self._globals_ready:
            return
        self._globals_ready = True
        for decl in self.sema.globals:
            size = decl.ctype.size
            if size is None:
                raise InterpError(f"global {decl.name} has incomplete type", decl)
            addr = self.memory.alloc(size, mem.GLOBAL, label=decl.name, tag=decl.nid)
            self.globals_frame.vars[decl] = addr
        # initializers may reference other globals; run after all allocated
        self.frames.append(self.globals_frame)
        try:
            for decl in self.sema.globals:
                if decl.init is not None:
                    self._init_storage(
                        self.globals_frame.vars[decl], decl.ctype, decl.init
                    )
        finally:
            self.frames.pop()

    def _init_storage(self, addr: int, ctype: CType, init) -> None:
        if isinstance(init, list):
            if isinstance(ctype, ArrayType):
                for i, item in enumerate(init):
                    self._init_storage(
                        addr + i * ctype.elem.size, ctype.elem, item
                    )
            elif isinstance(ctype, StructType):
                for item, field in zip(init, ctype.fields):
                    self._init_storage(addr + field.offset, field.type, item)
            else:
                raise InterpError("brace initializer on scalar")
        else:
            value = self.eval(init)
            self.store(addr, ctype, value, site=init.nid)

    # -- running ----------------------------------------------------------
    def run(self, entry: str = "main") -> int:
        """Execute ``entry`` and return its integer result."""
        self.setup_globals()
        fn = self.sema.functions.get(entry)
        if fn is None or fn.body is None:
            raise InterpError(f"no function {entry!r} to run")
        try:
            result = self.call_function(fn, [])
        except ExitSignal as sig:
            return sig.code
        return int(result) if result is not None else 0

    def call_function(self, fn: ast.FunctionDef, args: List) -> object:
        if len(self.frames) > 250:
            raise InterpError(f"call stack overflow in {fn.name}")
        self.cost.cycles += COSTS["call"]
        frame = Frame(fn)
        for param, value in zip(fn.params, args):
            addr = self._alloc_local(frame, param)
            self.store(addr, param.ctype, value, site=param.nid)
        self.frames.append(frame)
        try:
            self.exec_stmt(fn.body)
            result = None
        except ReturnSignal as sig:
            result = sig.value
        finally:
            self.frames.pop()
            self.memory.release_stack(frame.stack_allocs)
        self.cost.cycles += COSTS["ret"]
        return result

    def _alloc_local(self, frame: Frame, decl: ast.VarDecl) -> int:
        size = decl.ctype.size
        if size is None and decl.vla_length is not None:
            count = int(self.eval(decl.vla_length))
            elem = decl.ctype.elem
            size = elem.size * max(count, 1)
        if size is None:
            raise InterpError(f"local {decl.name} has incomplete type", decl)
        addr = self.memory.alloc(size, mem.STACK, label=decl.name, tag=decl.nid)
        frame.vars[decl] = addr
        record = self.memory.find(addr)
        assert record is not None
        frame.stack_allocs.append(record)
        return addr

    def _is_reg_slot(self, expr: ast.Expr) -> bool:
        """Would a native compiler keep this lvalue in a register?
        Local scalar variables, and fixed slots of local aggregates
        (constant or __tid index — the shape VLA scalar expansion
        produces), are register-allocated by any optimizing compiler."""
        if isinstance(expr, ast.Ident):
            # local scalars and small local structs (fat pointers!) are
            # register-allocated / SRoA'd by optimizing compilers
            decl = expr.decl
            return isinstance(decl, ast.VarDecl) and \
                decl.storage in ("local", "param") and \
                not isinstance(decl.ctype, ArrayType)
        if isinstance(expr, ast.Index):
            idx = expr.index
            fixed = isinstance(idx, ast.IntLit) or (
                isinstance(idx, ast.Ident)
                and (idx.decl is self._tid_decl
                     or idx.decl is self._nthreads_decl)
            )
            if not fixed:
                return False
            base = expr.base
            return isinstance(base, ast.Ident) and \
                isinstance(base.decl, ast.VarDecl) and \
                base.decl.storage in ("local", "param")
        if isinstance(expr, ast.Member) and not expr.arrow:
            return self._is_reg_slot(expr.base)
        return False

    # -- variable addressing ---------------------------------------------------
    def var_addr(self, decl: ast.VarDecl) -> int:
        for frame in (self.frames[-1], self.globals_frame):
            addr = frame.vars.get(decl)
            if addr is not None:
                return addr
        # fall back: enclosing frames are NOT searched (C has no closures);
        # a miss means the decl was never executed on this path.
        raise InterpError(f"variable {decl.name!r} has no storage here", decl)

    # -- memory access with tracing/redirection ----------------------------------
    def load(self, addr: int, ctype: CType, site: int,
             cheap: bool = False):
        if isinstance(ctype, ArrayType):
            return addr  # decay: the "value" of an array is its address
        if self.redirector is not None:
            addr = self.redirector(site, addr, ctype.size, False)
        if isinstance(ctype, StructType):
            blob = self.memory.read_bytes(addr, ctype.size)
            if cheap:
                self.cost.cycles += 2 * COSTS["reg"]
            else:
                self.cost.cycles += COSTS["load"] + \
                    ctype.size * COSTS["byte_op"]
                self.cost.loads += 1
            log = self.race_log
            if log is not None:
                log.add((addr, ctype.size, False))
            for obs in self.observers:
                obs.on_access(site, addr, ctype.size, False)
            return blob
        if self.memory.check_bounds:
            self.memory.check_access(addr, ctype.size, site)
        value = self.memory.read_scalar(addr, ctype.fmt, ctype.size)
        if cheap:
            self.cost.cycles += COSTS["reg"]
        else:
            self.cost.cycles += COSTS["load"]
            self.cost.loads += 1
        log = self.race_log
        if log is not None:
            log.add((addr, ctype.size, False))
        for obs in self.observers:
            obs.on_access(site, addr, ctype.size, False)
        return value

    def store(self, addr: int, ctype: CType, value, site: int,
              cheap: bool = False) -> None:
        if self.redirector is not None:
            addr = self.redirector(site, addr, ctype.size, True)
        if isinstance(ctype, StructType):
            if not isinstance(value, (bytes, bytearray)):
                raise InterpError(f"storing non-blob into struct {ctype.name}")
            self.memory.write_bytes(addr, bytes(value))
            if cheap:
                self.cost.cycles += 2 * COSTS["reg"]
            else:
                self.cost.cycles += COSTS["store"] + \
                    ctype.size * COSTS["byte_op"]
                self.cost.stores += 1
            log = self.race_log
            if log is not None:
                log.add((addr, ctype.size, True))
            for obs in self.observers:
                obs.on_access(site, addr, ctype.size, True)
            return
        if isinstance(ctype, ArrayType):
            raise InterpError("cannot store into array value")
        value = self._convert(value, ctype)
        if self.memory.check_bounds:
            self.memory.check_access(addr, ctype.size, site)
        self.memory.write_scalar(addr, ctype.fmt, value)
        if cheap:
            self.cost.cycles += COSTS["reg"]
        else:
            self.cost.cycles += COSTS["store"]
            self.cost.stores += 1
        log = self.race_log
        if log is not None:
            log.add((addr, ctype.size, True))
        for obs in self.observers:
            obs.on_access(site, addr, ctype.size, True)

    def _convert(self, value, ctype: CType):
        """Convert a Python value to fit ``ctype`` storage."""
        if isinstance(ctype, IntType):
            return ctype.wrap(int(value))
        if isinstance(ctype, FloatType):
            return float(value)
        if isinstance(ctype, PointerType):
            return int(value) & 0xFFFFFFFFFFFFFFFF if int(value) < 0 \
                else int(value)
        return value

    # ======================================================================
    # statements
    # ======================================================================
    def exec_stmt(self, stmt: ast.Stmt) -> None:
        if self._stmt_hook is not None:
            self._stmt_hook(stmt)
        self._steps += 1
        if self._steps > self.max_steps:
            raise InterpError("step budget exceeded (runaway program?)", stmt)
        if self._watchdog_deadline is not None and \
                self._steps > self._watchdog_deadline:
            self._watchdog_trip(stmt)
        self._stmt_dispatch[type(stmt)](stmt)

    def _watchdog_trip(self, stmt: ast.Stmt) -> None:
        """Raise the WatchdogTimeout for the deadline that expired
        (shared by both engines' statement prologues)."""
        deadline, label, budget = self._watchdog_stack[-1]
        for entry in self._watchdog_stack:
            if entry[0] == self._watchdog_deadline:
                deadline, label, budget = entry
                break
        raise WatchdogTimeout(
            f"loop {label!r} exceeded its watchdog budget of "
            f"{budget} steps", stmt, loop=label, budget=budget,
        )

    # -- watchdog ----------------------------------------------------------
    def push_watchdog(self, budget: int, label: Optional[str]) -> None:
        """Bound the next ``budget`` statements (one loop execution)."""
        self._watchdog_stack.append((self._steps + budget, label, budget))
        self._watchdog_deadline = min(e[0] for e in self._watchdog_stack)

    def pop_watchdog(self) -> None:
        self._watchdog_stack.pop()
        self._watchdog_deadline = (
            min(e[0] for e in self._watchdog_stack)
            if self._watchdog_stack else None
        )

    def exec_loop_sequential(self, loop: ast.LoopStmt) -> None:
        """Execute a loop statement ignoring any registered controller
        (the parallel runtime's sequential-fallback path)."""
        saved = self.loop_controllers.pop(loop.nid, None)
        try:
            self.exec_stmt(loop)
        finally:
            if saved is not None:
                self.loop_controllers[loop.nid] = saved

    def _exec_block(self, stmt: ast.Block) -> None:
        for s in stmt.stmts:
            self.exec_stmt(s)

    def _exec_expr_stmt(self, stmt: ast.ExprStmt) -> None:
        self.eval(stmt.expr)

    def _exec_decl_stmt(self, stmt: ast.DeclStmt) -> None:
        frame = self.frames[-1]
        for decl in stmt.decls:
            addr = self._alloc_local(frame, decl)
            if decl.init is not None:
                self._init_storage(addr, decl.ctype, decl.init)

    def _exec_if(self, stmt: ast.If) -> None:
        self.cost.cycles += COSTS["alu"]
        if self._truthy(self.eval(stmt.cond)):
            self.exec_stmt(stmt.then)
        elif stmt.els is not None:
            self.exec_stmt(stmt.els)

    def _check_controller(self, stmt: ast.LoopStmt) -> bool:
        controller = self.loop_controllers.get(stmt.nid)
        if controller is not None:
            controller(self, stmt)
            return True
        return False

    def _guarded_loop(self, stmt: ast.LoopStmt, body) -> None:
        """Run a loop body-driver under the per-loop watchdog."""
        if self.max_loop_steps is None:
            body(stmt)
            return
        self.push_watchdog(self.max_loop_steps, stmt.label)
        try:
            body(stmt)
        finally:
            self.pop_watchdog()

    def _exec_while(self, stmt: ast.While) -> None:
        if self._check_controller(stmt):
            return
        self._guarded_loop(stmt, self._loop_while)

    def _loop_while(self, stmt: ast.While) -> None:
        while True:
            self.cost.cycles += COSTS["alu"]
            if not self._truthy(self.eval(stmt.cond)):
                break
            try:
                self.exec_stmt(stmt.body)
            except BreakSignal:
                break
            except ContinueSignal:
                continue

    def _exec_dowhile(self, stmt: ast.DoWhile) -> None:
        if self._check_controller(stmt):
            return
        self._guarded_loop(stmt, self._loop_dowhile)

    def _loop_dowhile(self, stmt: ast.DoWhile) -> None:
        while True:
            try:
                self.exec_stmt(stmt.body)
            except BreakSignal:
                break
            except ContinueSignal:
                pass
            self.cost.cycles += COSTS["alu"]
            if not self._truthy(self.eval(stmt.cond)):
                break

    def _exec_for(self, stmt: ast.For) -> None:
        if self._check_controller(stmt):
            return
        self._guarded_loop(stmt, self._loop_for)

    def _loop_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self.exec_stmt(stmt.init)
        while True:
            if stmt.cond is not None:
                self.cost.cycles += COSTS["alu"]
                if not self._truthy(self.eval(stmt.cond)):
                    break
            try:
                self.exec_stmt(stmt.body)
            except BreakSignal:
                break
            except ContinueSignal:
                pass
            if stmt.step is not None:
                self.eval(stmt.step)

    def _exec_return(self, stmt: ast.Return) -> None:
        value = self.eval(stmt.expr) if stmt.expr is not None else None
        raise ReturnSignal(value)

    def _exec_break(self, stmt: ast.Break) -> None:
        raise BreakSignal()

    def _exec_continue(self, stmt: ast.Continue) -> None:
        raise ContinueSignal()

    @staticmethod
    def _truthy(value) -> bool:
        return bool(value)

    # ======================================================================
    # expressions
    # ======================================================================
    def eval(self, expr: ast.Expr):
        self.cost.instructions += 1
        return self._eval_dispatch[type(expr)](expr)

    def addr_of(self, expr: ast.Expr) -> int:
        """Evaluate an lvalue expression to an address."""
        if isinstance(expr, ast.Ident):
            decl = expr.decl
            if decl is self._tid_decl or decl is self._nthreads_decl:
                raise InterpError("thread context variable is not addressable")
            assert isinstance(decl, ast.VarDecl)
            return self.var_addr(decl)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            return int(self.eval(expr.operand))
        if isinstance(expr, ast.Index):
            base = int(self.eval(expr.base))  # array decays to address
            index = int(self.eval(expr.index))
            elem = expr.ctype
            assert elem is not None and elem.size is not None
            # base+index*scale folds into the x86 addressing mode: free
            return base + index * elem.size
        if isinstance(expr, ast.Member):
            if expr.arrow:
                base = int(self.eval(expr.base))
                stype = expr.base.ctype.decay().pointee
            else:
                base = self.addr_of(expr.base)
                stype = expr.base.ctype
            assert isinstance(stype, StructType)
            # constant displacement folds into the addressing mode: free
            return base + stype.field(expr.name).offset
        if isinstance(expr, ast.Cast):
            # (T)lvalue as lvalue: used by transformed code for recasts
            return self.addr_of(expr.expr)
        if isinstance(expr, ast.Comma):
            self.eval(expr.left)
            return self.addr_of(expr.right)
        raise InterpError(f"not an lvalue: {expr!r}", expr)

    # -- leaves -------------------------------------------------------------
    def _eval_intlit(self, expr: ast.IntLit):
        return expr.value

    def _eval_floatlit(self, expr: ast.FloatLit):
        return expr.value

    def _eval_strlit(self, expr: ast.StrLit):
        addr = self._strlit_cache.get(expr.nid)
        if addr is None:
            data = expr.value.encode("latin-1") + b"\0"
            addr = self.memory.alloc(len(data), mem.RODATA, label="strlit")
            self.memory.write_bytes(addr, data)
            self._strlit_cache[expr.nid] = addr
        return addr

    def _eval_ident(self, expr: ast.Ident):
        decl = expr.decl
        if decl is self._tid_decl:
            hook = self._tid_hook
            return self.tid if hook is None else hook(expr, self.tid)
        if decl is self._nthreads_decl:
            return self.nthreads
        if isinstance(decl, ast.FunctionDef):
            return decl  # function designator
        assert isinstance(decl, ast.VarDecl)
        addr = self.var_addr(decl)
        cheap = decl.storage in ("local", "param") and \
            not isinstance(decl.ctype, ArrayType)
        return self.load(addr, decl.ctype, site=expr.nid, cheap=cheap)

    # -- operators ------------------------------------------------------------
    def _eval_unary(self, expr: ast.Unary):
        op = expr.op
        if op == "&":
            return self.addr_of(expr.operand)
        if op == "*":
            addr = int(self.eval(expr.operand))
            pointee = expr.ctype
            assert pointee is not None
            return self.load(addr, pointee, site=expr.nid)
        if op in ("++", "--", "p++", "p--"):
            target = expr.operand
            addr = self.addr_of(target)
            ctype = target.ctype
            assert ctype is not None
            cheap = self._is_reg_slot(target)
            old = self.load(addr, ctype, site=target.nid, cheap=cheap)
            if isinstance(ctype, PointerType):
                delta = ctype.pointee.size
                if delta is None:
                    raise InterpError("arithmetic on void*", expr)
            else:
                delta = 1
            self.cost.cycles += COSTS["alu"]
            new = old + delta if op.endswith("++") else old - delta
            self.store(addr, ctype, new, site=expr.nid, cheap=cheap)
            if op.startswith("p"):
                return old
            return self._convert(new, ctype)
        value = self.eval(expr.operand)
        self.cost.cycles += COSTS["alu"]
        if op == "-":
            result = -value
            ctype = expr.ctype
            if isinstance(ctype, IntType):
                return ctype.wrap(int(result))
            return result
        if op == "!":
            return 0 if value else 1
        if op == "~":
            ctype = expr.ctype
            assert isinstance(ctype, IntType)
            return ctype.wrap(~int(value))
        raise InterpError(f"unknown unary {op}", expr)  # pragma: no cover

    def _eval_binary(self, expr: ast.Binary):
        op = expr.op
        if op == "&&":
            self.cost.cycles += COSTS["alu"]
            if not self._truthy(self.eval(expr.left)):
                return 0
            return 1 if self._truthy(self.eval(expr.right)) else 0
        if op == "||":
            self.cost.cycles += COSTS["alu"]
            if self._truthy(self.eval(expr.left)):
                return 1
            return 1 if self._truthy(self.eval(expr.right)) else 0
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        return self._apply_binop(op, left, right, expr)

    def _apply_binop(self, op: str, left, right, expr: ast.Binary):
        lt = expr.left.ctype.decay()
        rt = expr.right.ctype.decay()
        # pointer arithmetic
        if isinstance(lt, PointerType) and op in ("+", "-"):
            if isinstance(rt, PointerType):  # p - q
                esize = lt.pointee.size or 1
                self.cost.cycles += COSTS["ptrdiff"]
                return (int(left) - int(right)) // esize
            esize = lt.pointee.size
            if esize is None:
                raise InterpError("arithmetic on void*", expr)
            self.cost.cycles += COSTS["lea"]
            offset = int(right) * esize
            return int(left) + offset if op == "+" else int(left) - offset
        if isinstance(rt, PointerType) and op == "+":
            esize = rt.pointee.size
            if esize is None:
                raise InterpError("arithmetic on void*", expr)
            self.cost.cycles += COSTS["lea"]
            return int(right) + int(left) * esize
        # comparisons
        if op in ("==", "!=", "<", ">", "<=", ">="):
            self.cost.cycles += COSTS["alu"]
            table = {
                "==": left == right, "!=": left != right,
                "<": left < right, ">": left > right,
                "<=": left <= right, ">=": left >= right,
            }
            return 1 if table[op] else 0
        result_t = expr.ctype
        if isinstance(result_t, FloatType):
            lf, rf = float(left), float(right)
            if op == "+":
                self.cost.cycles += COSTS["falu"]
                return result_t.wrap(lf + rf)
            if op == "-":
                self.cost.cycles += COSTS["falu"]
                return result_t.wrap(lf - rf)
            if op == "*":
                self.cost.cycles += COSTS["falu"]
                return result_t.wrap(lf * rf)
            if op == "/":
                self.cost.cycles += COSTS["fdiv"]
                if rf == 0.0:
                    raise InterpError("float division by zero", expr)
                return result_t.wrap(lf / rf)
            raise InterpError(f"float op {op}", expr)  # pragma: no cover
        assert isinstance(result_t, IntType), (op, result_t)
        li, ri = int(left), int(right)
        if op == "+":
            self.cost.cycles += COSTS["alu"]
            return result_t.wrap(li + ri)
        if op == "-":
            self.cost.cycles += COSTS["alu"]
            return result_t.wrap(li - ri)
        if op == "*":
            self.cost.cycles += COSTS["imul"]
            return result_t.wrap(li * ri)
        if op in ("/", "%"):
            self.cost.cycles += COSTS["idiv"]
            if ri == 0:
                raise InterpError("integer division by zero", expr)
            q = abs(li) // abs(ri)
            if (li < 0) != (ri < 0):
                q = -q
            if op == "/":
                return result_t.wrap(q)
            return result_t.wrap(li - q * ri)  # C: sign follows dividend
        if op == "<<":
            self.cost.cycles += COSTS["alu"]
            return result_t.wrap(li << (ri & 63))
        if op == ">>":
            self.cost.cycles += COSTS["alu"]
            lt0 = expr.left.ctype
            if isinstance(lt0, IntType) and not lt0.signed:
                li &= (1 << (8 * lt0.size)) - 1
            return result_t.wrap(li >> (ri & 63))
        if op == "&":
            self.cost.cycles += COSTS["alu"]
            return result_t.wrap(li & ri)
        if op == "|":
            self.cost.cycles += COSTS["alu"]
            return result_t.wrap(li | ri)
        if op == "^":
            self.cost.cycles += COSTS["alu"]
            return result_t.wrap(li ^ ri)
        raise InterpError(f"unknown binop {op}", expr)  # pragma: no cover

    def _tapped(self, expr: ast.Assign, value):
        """What ``expr`` lands in memory: a Member-target value passes
        through its ``_store_taps`` entry; the assignment expression
        still yields the untapped value."""
        taps = self._store_taps
        if taps is not None and isinstance(expr.target, ast.Member):
            tap = taps.get(expr.nid)
            if tap is not None:
                return tap(value)
        return value

    def _eval_assign(self, expr: ast.Assign):
        target_t = expr.target.ctype
        assert target_t is not None
        addr = self.addr_of(expr.target)
        cheap = self._is_reg_slot(expr.target)
        if expr.op == "=":
            value = self.eval(expr.value)
            self.store(addr, target_t, self._tapped(expr, value),
                       site=expr.nid, cheap=cheap)
            return value if not isinstance(target_t, StructType) else value
        # compound assignment: load-modify-store
        old = self.load(addr, target_t, site=expr.target.nid, cheap=cheap)
        rhs = self.eval(expr.value)
        base_op = expr.op[:-1]
        if isinstance(target_t, PointerType):
            esize = target_t.pointee.size
            if esize is None:
                raise InterpError("arithmetic on void*", expr)
            self.cost.cycles += COSTS["lea"]
            new = old + int(rhs) * esize if base_op == "+" else \
                old - int(rhs) * esize
        else:
            fake = ast.Binary(base_op, expr.target, expr.value)
            fake.ctype = target_t if isinstance(target_t, FloatType) else \
                expr.target.ctype
            if isinstance(fake.ctype, IntType):
                # compound assign computes in the common type then narrows
                pass
            new = self._apply_binop(base_op, old, rhs, fake)
        self.store(addr, target_t, self._tapped(expr, new),
                   site=expr.nid, cheap=cheap)
        if isinstance(target_t, StructType):
            return new
        return self._convert(new, target_t)

    def _eval_cond(self, expr: ast.Cond):
        self.cost.cycles += COSTS["alu"]
        if self._truthy(self.eval(expr.cond)):
            return self.eval(expr.then)
        return self.eval(expr.els)

    def _eval_call(self, expr: ast.Call):
        name = expr.callee_name
        if name is not None and name not in self.sema.functions:
            impl = BUILTIN_IMPLS.get(name)
            if impl is None:
                raise InterpError(f"unknown function {name!r}", expr)
            args = [self.eval(a) for a in expr.args]
            self.cost.cycles += COSTS["builtin"]
            return impl(self, args, expr)
        func = self.sema.functions.get(name) if name else None
        if func is None:
            value = self.eval(expr.func)
            if not isinstance(value, ast.FunctionDef):
                raise InterpError("call of non-function value", expr)
            func = value
        args = [self.eval(a) for a in expr.args]
        return self.call_function(func, args)

    def _eval_index(self, expr: ast.Index):
        addr = self.addr_of(expr)
        ctype = expr.ctype
        assert ctype is not None
        return self.load(addr, ctype, site=expr.nid,
                         cheap=self._is_reg_slot(expr))

    def _eval_member(self, expr: ast.Member):
        addr = self.addr_of(expr)
        ctype = expr.ctype
        assert ctype is not None
        return self.load(addr, ctype, site=expr.nid,
                         cheap=self._is_reg_slot(expr))

    def _eval_cast(self, expr: ast.Cast):
        value = self.eval(expr.expr)
        to = expr.to_type
        if isinstance(to, IntType):
            return to.wrap(int(value))
        if isinstance(to, FloatType):
            return to.wrap(float(value))
        if isinstance(to, PointerType):
            return int(value)
        return value  # void cast, struct cast passthrough

    def _eval_sizeof_type(self, expr: ast.SizeofType):
        return expr.of_type.size

    def _eval_sizeof_expr(self, expr: ast.SizeofExpr):
        ctype = expr.expr.ctype
        assert ctype is not None and ctype.size is not None
        return ctype.size

    def _eval_comma(self, expr: ast.Comma):
        self.eval(expr.left)
        return self.eval(expr.right)
