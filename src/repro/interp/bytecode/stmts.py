"""Statement and function closures: a translator of the lowered form.

Every statement closure begins with the prologue of
``Machine.exec_stmt`` — the fault-injection hook (``m._stmt_hook``),
the step counter, the ``max_steps`` check and the watchdog deadline, in
the walker's order — spelled into the closure of each statement shape
(:data:`_STMT`) rather than called.

Loop closures check ``m.loop_controllers`` at run time, so the profiler
and the parallel runtime drive candidate loops exactly as they do on
the tree walker.  An uncontrolled loop then offers itself to
``m._native_loop`` (``None`` except on a ``NativeMachine``, whose
compiled unit may run the loop instead) before it pushes a watchdog
and drives: one attribute read per loop *entry*, nothing per iteration.
"""

from __future__ import annotations

from ..lowered import Fault
from ..machine import BreakSignal, ContinueSignal, Frame, ReturnSignal
from .. import memory as mem
from .exprs import make_store, template

#: one statement shape: the prologue, then ``{body}``
_STMT = """
def make(s, a, b, c, cy):
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
        {body}
    return run
"""

_BODIES = {
    "expr": "a(m)",
    "block": "for op in a:\n            op(m)",
    "decl": "frame = m.frames[-1]\n        for op in a:\n"
            "            op(m, frame)",
    "if": "m.cost.cycles += cy\n        if a(m):\n            b(m)\n"
          "        elif c is not None:\n            c(m)",
}


# ---------------------------------------------------------------------------
# declarations, initializers and parameters
# ---------------------------------------------------------------------------

def _init_op(c, item):
    """One flattened initializer slot: evaluate, then store at
    base + offset (or the walker's error at its position)."""
    if isinstance(item, Fault):  # a brace list on a scalar
        def op(m, base):
            raise item.error()
        return op
    vo, off = c.x(item.v), item.off
    storef = make_store(item.st, item.node.nid)

    def op(m, base):
        value = vo(m)
        storef(m, base + off, value)
    return op


def _local_op(c, x):
    """Allocate, bind and initialize — or, for a parameter, store the
    argument into — one local (``Machine._alloc_local`` and
    ``_init_storage``; a parameter's runs in the caller's frame, before
    the callee's is pushed)."""
    d, size, esize, fault = x.decl, x.size, x.esize, x.fault
    vla = c.x(x.vla) if x.vla is not None else None
    name, tag = d.name, d.nid
    inits = tuple(_init_op(c, item) for item in x.init)
    storef = make_store(x.st, tag) if x.st is not None else None

    def op(m, frame, value=None):
        if vla is not None:
            sz = esize * max(int(vla(m)), 1)
        elif fault is not None:
            raise fault.error()
        else:
            sz = size
        memory = m.memory
        addr = memory.alloc(sz, mem.STACK, label=name, tag=tag)
        frame.vars[d] = addr
        # alloc seeds the lookup cache with the new record
        frame.stack_allocs.append(memory._hit)
        if storef is not None:
            storef(m, addr, value)
        for io_ in inits:
            io_(m, addr)
    return op


# ---------------------------------------------------------------------------
# loops and jumps (no prologue; wrapped by compile_stmt)
# ---------------------------------------------------------------------------

def _loop(c, x):
    """Controller check, native re-entry offer, then watchdog push/pop
    around the loop driver (``_check_controller`` + ``_guarded_loop``)."""
    s, nid, label, cy = x.node, x.node.nid, x.label, x.cy
    co = c.x(x.c) if x.c is not None else None
    bo = c.stmt_rec(x.body)
    if x.how == "while":
        def drive(m):
            while True:
                m.cost.cycles += cy
                if not co(m):
                    break
                try:
                    bo(m)
                except BreakSignal:
                    break
                except ContinueSignal:
                    continue
    elif x.how == "dowhile":
        def drive(m):
            while True:
                try:
                    bo(m)
                except BreakSignal:
                    break
                except ContinueSignal:
                    pass
                m.cost.cycles += cy
                if not co(m):
                    break
    else:
        io_ = c.stmt_rec(x.init) if x.init is not None else None
        so = c.x(x.step) if x.step is not None else None

        def drive(m):
            if io_ is not None:
                io_(m)
            while True:
                if co is not None:
                    m.cost.cycles += cy
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


def _return(c, x):
    if x.v is None:
        def body(m):
            raise ReturnSignal(None)
        return body
    vo = c.x(x.v)

    def body(m):
        raise ReturnSignal(vo(m))
    return body


def _break(c, x):
    def body(m):
        raise BreakSignal()
    return body


def _continue(c, x):
    def body(m):
        raise ContinueSignal()
    return body


def _fault(c, x):
    fault = x.fault

    def body(m):
        raise fault.error()
    return body


_INNER = {"loop": _loop, "return": _return, "break": _break,
          "continue": _continue, "fault": _fault}


def compile_stmt(c, x):
    kind = x.kind
    if kind == "expr":
        a, b, cc = c.x(x.v), None, None
    elif kind == "block":
        a, b, cc = tuple(c.stmt_rec(s) for s in x.body), None, None
    elif kind == "decl":
        a, b, cc = tuple(_local_op(c, d) for d in x.decls), None, None
    elif kind == "if":
        a, b = c.x(x.c), c.stmt_rec(x.t)
        cc = c.stmt_rec(x.f) if x.f is not None else None
    else:
        kind, a, b, cc = "expr", _INNER[kind](c, x), None, None
    return template(_STMT, body=_BODIES[kind])(x.node, a, b, cc,
                                                getattr(x, "cy", 0))


# ---------------------------------------------------------------------------
# functions
# ---------------------------------------------------------------------------

def compile_function(c, x):
    """A whole function as ``run(m, args) -> result``
    (``Machine.call_function``).  The depth check counts the compiled
    frames a native machine has in flight beneath this call."""
    body_op = c.stmt_rec(x.body)
    param_ops = tuple(_local_op(c, p) for p in x.params)
    fn, overflow, cy_call, cy_ret = x.node, x.overflow, x.cy_call, x.cy_ret

    def run(m, args):
        if len(m.frames) + m._cframes > 250:
            raise overflow.error()
        m.cost.cycles += cy_call
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
        m.cost.cycles += cy_ret
        return result
    return run

