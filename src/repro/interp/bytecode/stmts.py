"""Statement and function compilation for the bytecode tier.

Every statement closure begins with the same prologue as
``Machine.exec_stmt``: the fault-injection hook (``m._stmt_hook``),
then the step counter, the ``max_steps`` check and the
watchdog-deadline check, in the walker's order.

Loop closures check ``m.loop_controllers`` at run time, so the profiler
and the parallel runtime drive candidate loops exactly as they do on
the tree walker.  An uncontrolled loop then offers itself to
``m._native_loop`` (``None`` except on a ``NativeMachine``, whose
compiled unit may run the loop instead) before it pushes a watchdog
and drives: one attribute read per loop *entry*, nothing per iteration.
"""

from __future__ import annotations

from ...frontend import ast
from ...frontend.ctypes import ArrayType, StructType
from ..machine import (
    BreakSignal, ContinueSignal, Frame, InterpError, ReturnSignal,
)
from .. import memory as mem
from .exprs import ALU, CALL, RET, make_store


# ---------------------------------------------------------------------------
# declarations and initializers
# ---------------------------------------------------------------------------

def _make_init_op(vo, storef, off):
    """One initializer slot: evaluate, then store at base+offset."""
    if off:
        def op(m, base):
            value = vo(m)
            storef(m, base + off, value)
    else:
        def op(m, base):
            value = vo(m)
            storef(m, base, value)
    return op


def _bad_init_op(m, base):
    raise InterpError("brace initializer on scalar")


def _gather_init(c, ctype, init, off, ops):
    """Flatten ``Machine._init_storage`` into (offset, store) slots at
    compile time.  Walker order: nested brace lists are walked
    depth-first, so ops are appended in exactly the walker's store
    order (including a mid-list scalar-brace error at its position)."""
    if isinstance(init, list):
        if isinstance(ctype, ArrayType):
            esize = ctype.elem.size
            for i, item in enumerate(init):
                _gather_init(c, ctype.elem, item, off + i * esize, ops)
        elif isinstance(ctype, StructType):
            for item, field in zip(init, ctype.fields):
                _gather_init(c, field.type, item, off + field.offset, ops)
        else:
            ops.append(_bad_init_op)
    else:
        vo = c.expr(init)
        storef = make_store(c, ctype, init.nid, False)
        ops.append(_make_init_op(vo, storef, off))


def _make_decl_op(c, decl):
    """Allocate + initialize one local declaration (mirrors
    ``Machine._alloc_local`` + ``_init_storage``)."""
    ctype = decl.ctype
    size = ctype.size
    vla = None
    elem_size = None
    if size is None and decl.vla_length is not None:
        vla = c.expr(decl.vla_length)
        elem_size = ctype.elem.size
    name = decl.name
    tag = decl.nid
    init_ops = None
    if decl.init is not None:
        init_ops = []
        _gather_init(c, ctype, decl.init, 0, init_ops)
        init_ops = tuple(init_ops)

    def op(m, frame):
        if vla is not None:
            count = int(vla(m))
            sz = elem_size * max(count, 1)
        elif size is None:
            raise InterpError(f"local {name} has incomplete type", decl)
        else:
            sz = size
        memory = m.memory
        addr = memory.alloc(sz, mem.STACK, label=name, tag=tag)
        frame.vars[decl] = addr
        # alloc seeds the lookup cache with the new record
        frame.stack_allocs.append(memory._hit)
        if init_ops is not None:
            for io_ in init_ops:
                io_(m, addr)
    return op


# ---------------------------------------------------------------------------
# loop and jump bodies (no prologue; wrapped by compile_stmt)
# ---------------------------------------------------------------------------

def _wrap_loop(c, s, drive):
    """Controller check, native re-entry offer, then watchdog push/pop
    around a loop driver (mirrors ``_check_controller`` +
    ``_guarded_loop``)."""
    nid = s.nid
    label = s.label

    def body(m):
        ctrl = m.loop_controllers.get(nid)
        if ctrl is not None:
            ctrl(m, s)
            return
        hook = m._native_loop
        if hook is not None and hook(s):
            return
        mls = m.max_loop_steps
        if mls is None:
            drive(m)
            return
        m.push_watchdog(mls, label)
        try:
            drive(m)
        finally:
            m.pop_watchdog()
    return body


def _c_while(c, s):
    co = c.expr(s.cond)
    bo = c.stmt(s.body)

    def drive(m):
        while True:
            m.cost.cycles += ALU
            if not co(m):
                break
            try:
                bo(m)
            except BreakSignal:
                break
            except ContinueSignal:
                continue
    return _wrap_loop(c, s, drive)


def _c_dowhile(c, s):
    co = c.expr(s.cond)
    bo = c.stmt(s.body)

    def drive(m):
        while True:
            try:
                bo(m)
            except BreakSignal:
                break
            except ContinueSignal:
                pass
            m.cost.cycles += ALU
            if not co(m):
                break
    return _wrap_loop(c, s, drive)


def _c_for(c, s):
    io_ = c.stmt(s.init) if s.init is not None else None
    co = c.expr(s.cond) if s.cond is not None else None
    so = c.expr(s.step) if s.step is not None else None
    bo = c.stmt(s.body)

    def drive(m):
        if io_ is not None:
            io_(m)
        while True:
            if co is not None:
                m.cost.cycles += ALU
                if not co(m):
                    break
            try:
                bo(m)
            except BreakSignal:
                break
            except ContinueSignal:
                pass
            if so is not None:
                so(m)
    return _wrap_loop(c, s, drive)


def _c_return(c, s):
    if s.expr is None:
        def body(m):
            raise ReturnSignal(None)
        return body
    vo = c.expr(s.expr)

    def body(m):
        raise ReturnSignal(vo(m))
    return body


def _c_break(c, s):
    def body(m):
        raise BreakSignal()
    return body


def _c_continue(c, s):
    def body(m):
        raise ContinueSignal()
    return body


#: the shapes compile_stmt does not fuse with the prologue
STMT_COMPILERS = {
    ast.While: _c_while,
    ast.DoWhile: _c_dowhile,
    ast.For: _c_for,
    ast.Return: _c_return,
    ast.Break: _c_break,
    ast.Continue: _c_continue,
}


def compile_stmt(c, s):
    t = type(s)
    # the hottest statement shapes get the exec_stmt prologue fused into
    # their own closure (one call per statement saved); the rest are
    # wrapped generically below
    if t is ast.ExprStmt:
        vo = c.expr(s.expr)

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
            vo(m)
        return run
    if t is ast.Block:
        ops = tuple(c.stmt(child) for child in s.stmts)

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
            for op in ops:
                op(m)
        return run
    if t is ast.If:
        co = c.expr(s.cond)
        to = c.stmt(s.then)
        eo = c.stmt(s.els) if s.els is not None else None

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
            m.cost.cycles += ALU
            if co(m):
                to(m)
            elif eo is not None:
                eo(m)
        return run
    if t is ast.DeclStmt:
        ops = tuple(_make_decl_op(c, d) for d in s.decls)

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
            frame = m.frames[-1]
            for op in ops:
                op(m, frame)
        return run
    compiler = STMT_COMPILERS.get(t)
    if compiler is None:
        # unknown statement type: defer to the walker dispatch so the
        # run-time error (KeyError) is identical
        def inner(m):
            m._stmt_dispatch[type(s)](s)
        inner_body = inner
    else:
        inner_body = compiler(c, s)

    def run(m):
        h = m._stmt_hook
        if h is not None:
            h(s)
        steps = m._steps + 1
        m._steps = steps
        if steps > m.max_steps:
            raise InterpError("step budget exceeded (runaway program?)", s)
        dl = m._watchdog_deadline
        if dl is not None and steps > dl:
            m._watchdog_trip(s)
        inner_body(m)
    return run


# ---------------------------------------------------------------------------
# functions
# ---------------------------------------------------------------------------

def _make_param_op(c, p):
    """Allocate + bind-and-store one parameter (mirrors
    ``_alloc_local`` + the ``store(..., site=param.nid)`` in
    ``call_function``; runs in the *caller's* frame context, before the
    callee frame is pushed)."""
    ctype = p.ctype
    size = ctype.size
    vla = None
    elem_size = None
    if size is None and p.vla_length is not None:
        vla = c.expr(p.vla_length)
        elem_size = ctype.elem.size
    name = p.name
    tag = p.nid
    storef = make_store(c, ctype, p.nid, False)

    def op(m, frame, value):
        if vla is not None:
            count = int(vla(m))
            sz = elem_size * max(count, 1)
        elif size is None:
            raise InterpError(f"local {name} has incomplete type", p)
        else:
            sz = size
        memory = m.memory
        addr = memory.alloc(sz, mem.STACK, label=name, tag=tag)
        frame.vars[p] = addr
        # alloc seeds the lookup cache with the new record
        frame.stack_allocs.append(memory._hit)
        storef(m, addr, value)
    return op


def compile_function(c, fn):
    """Compile a whole function to ``run(m, args) -> result`` (mirrors
    ``Machine.call_function``)."""
    body_op = c.stmt(fn.body)
    param_ops = tuple(_make_param_op(c, p) for p in fn.params)
    name = fn.name

    def run(m, args):
        if len(m.frames) > 250:
            raise InterpError(f"call stack overflow in {name}")
        m.cost.cycles += CALL
        frame = Frame(fn)
        for op, value in zip(param_ops, args):
            op(m, frame, value)
        m.frames.append(frame)
        try:
            body_op(m)
            result = None
        except ReturnSignal as sig:
            result = sig.value
        finally:
            m.frames.pop()
            m.memory.release_stack(frame.stack_allocs)
        m.cost.cycles += RET
        return result
    return run
