"""Expression closures: a translator of the lowered form.

Every decision — charges, wrap constants, conversions, operator shape,
addressing, register slots, faults — is read from the node's
:class:`~repro.interp.lowered.Rec`; this module only spells each shape
as a closure over the machine ``m``:

* value closures ``run(m) -> value`` count the instruction first, then
  evaluate and charge in the order the record lists, exactly as
  ``Machine.eval`` does;
* address closures ``run(m) -> addr`` mirror the walker's ``addr_of``
  (which charges nothing for the address node itself);
* access closures ``load(m, addr)`` / ``store(m, addr, value)`` mirror
  ``Machine.load`` / ``Machine.store`` with ``struct.Struct`` codecs.

The hottest shapes are fused into one closure each (a local or global
scalar read, a scalar load through an address, ``++``/``--`` and ``=``
on a local scalar, integer ``+ - *`` and comparisons), spelled once per
variant from a template (:func:`template`) so that the operator, the
address form and the charge are code, not a call or a run-time test.
Values that change identity at run time (``m.cost`` is swapped per
virtual thread, ``m.memory.data`` on snapshot restore,
``m.redirector`` per loop) are fetched from the machine on every call;
``m.cost`` is cached only across code that cannot re-enter a
controller.
"""

from __future__ import annotations

from ...frontend import ast
from .. import memory as mem
from ..machine import InterpError
from ..memory import scalar_codec


_TEMPLATES = {}


def template(src: str, **subs):
    """The factory ``make`` that ``src`` defines with every ``{key}``
    spelled out, built once per spelling: the variants of one shape
    differ in code, not in a run-time test or an extra call."""
    key = (src, *subs.values())  # each template has one keyword order
    make = _TEMPLATES.get(key)
    if make is None:
        ns = {"InterpError": InterpError}
        exec(src.format(**subs), ns)
        make = _TEMPLATES[key] = ns["make"]
    return make


def _spelled(src: str, acc, counter: str, **subs):
    """``template`` with ``{charge}`` spelled for one access record
    (nothing at all for a free one)."""
    if acc.count:
        charge = f"cost = m.cost; cost.cycles += cy; cost.{counter} += 1"
    else:
        charge = "m.cost.cycles += cy" if acc.cy else "pass"
    return template(src, charge=charge, **subs)


_CMP = """
def make(lo, ro, cy):
    def run(m):
        m.cost.instructions += 1
        l = lo(m)
        r = ro(m)
        m.cost.cycles += cy
        return 1 if l {op} r else 0
    return run
"""

_ARITH = """
def make(lo, ro, cy, mask, half, span):
    def run(m):
        m.cost.instructions += 1
        l = lo(m)
        r = ro(m)
        m.cost.cycles += cy
        v = (int(l) {op} int(r)) & mask
        return v - span if v >= half else v
    return run
"""

#: a scalar value read: through an address closure ``ao``, through a
#: pointer value ``ao``, or from the global variable ``ao`` (addresses
#: are never 0, so a storage miss is the ``or``)
_ADDRESSED = {"addr": "ao(m)", "deref": "int(ao(m))",
              "global": "m.globals_frame.vars.get(ao) or m.var_addr(ao)"}
_LOAD_SRC = """
def make(ao, site, size, unpack, cy):
    def run(m):
        m.cost.instructions += 1
        addr = {addr}
        r = m.redirector
        if r is not None:
            addr = r(site, addr, size, False)
        memory = m.memory
        if memory.check_bounds:
            memory.check_access(addr, size)
        value = unpack(memory.data, addr)[0]
        {charge}
        for obs in m.observers:
            obs.on_access(site, addr, size, False)
        return value
    return run
"""


def _scalar_value(acc, site, ao, how="addr"):
    return _spelled(_LOAD_SRC, acc, "loads", addr=_ADDRESSED[how])(
        ao, site, acc.size, scalar_codec(acc.fmt).unpack_from, acc.cy)


_SCALAR_LOAD = """
def make(site, size, unpack, cy):
    def load(m, addr):
        r = m.redirector
        if r is not None:
            addr = r(site, addr, size, False)
        memory = m.memory
        if memory.check_bounds:
            memory.check_access(addr, size)
        value = unpack(memory.data, addr)[0]
        {charge}
        for obs in m.observers:
            obs.on_access(site, addr, size, False)
        return value
    return load
"""

_SCALAR_STORE = """
def make(site, size, pack, cy, conv):
    def store(m, addr, value):
        r = m.redirector
        if r is not None:
            addr = r(site, addr, size, True)
        value = conv(value)
        memory = m.memory
        if memory.check_bounds:
            memory.check_access(addr, size)
        pack(memory.data, addr, value)
        {charge}
        for obs in m.observers:
            obs.on_access(site, addr, size, True)
    return store
"""


def var_getter(slot):
    """Address getter for one variable: globals live in
    ``globals_frame``, locals in the top frame; the miss path defers to
    ``Machine.var_addr`` so the error is identical."""
    decl = slot.decl
    if slot.local:
        def get(m):
            addr = m.frames[-1].vars.get(decl)
            return addr if addr is not None else m.var_addr(decl)
    else:
        def get(m):
            addr = m.globals_frame.vars.get(decl)
            return addr if addr is not None else m.var_addr(decl)
    return get


# ---------------------------------------------------------------------------
# memory access closures
# ---------------------------------------------------------------------------

def _load_array(m, addr):
    return addr  # decay: the "value" of an array is its address


def make_load(acc, site):
    """``Machine.load(addr, ct, site, cheap)`` for one access record."""
    if acc.shape == "array":
        return _load_array
    size, cy, count = acc.size, acc.cy, acc.count
    if acc.shape == "struct":
        def load(m, addr):
            r = m.redirector
            if r is not None:
                addr = r(site, addr, size, False)
            blob = m.memory.read_bytes(addr, size)
            cost = m.cost
            cost.cycles += cy
            if count:
                cost.loads += 1
            for obs in m.observers:
                obs.on_access(site, addr, size, False)
            return blob
        return load
    return _spelled(_SCALAR_LOAD, acc, "loads")(
        site, size, scalar_codec(acc.fmt).unpack_from, cy)


def make_store(acc, site):
    """``Machine.store(addr, ct, value, site, cheap)`` for one access
    record."""
    if acc.shape == "array":
        fault = acc.fault

        def store(m, addr, value):
            raise fault.error()
        return store
    size, cy, count = acc.size, acc.cy, acc.count
    if acc.shape == "struct":
        fault = acc.fault

        def store(m, addr, value):
            r = m.redirector
            if r is not None:
                addr = r(site, addr, size, True)
            if not isinstance(value, (bytes, bytearray)):
                raise fault.error()
            m.memory.write_bytes(addr, bytes(value))
            cost = m.cost
            cost.cycles += cy
            if count:
                cost.stores += 1
            for obs in m.observers:
                obs.on_access(site, addr, size, True)
        return store
    return _spelled(_SCALAR_STORE, acc, "stores")(
        site, size, scalar_codec(acc.fmt).pack_into, cy, acc.conv)


# ---------------------------------------------------------------------------
# lvalues
# ---------------------------------------------------------------------------

def compile_lvalue(c, x):
    kind = x.kind
    if kind == "slot":
        return var_getter(x)
    if kind == "aderef":
        vo = c.x(x.v)

        def run(m):
            return int(vo(m))
    elif kind == "aindex":
        bo, io, esize = c.x(x.b), c.x(x.i), x.esize

        def run(m):
            return int(bo(m)) + int(io(m)) * esize  # array decays
    elif kind == "amember":
        off = x.off
        if x.arrow:
            bo = c.x(x.base)

            def run(m):
                return int(bo(m)) + off
        else:
            bo = c.a(x.base)

            def run(m):
                return bo(m) + off
    elif kind == "acomma":
        lo, ro = c.x(x.l), c.a(x.r)

        def run(m):
            lo(m)
            return ro(m)
    else:
        fault = x.fault

        def run(m):
            raise fault.error()
    return run


# ---------------------------------------------------------------------------
# rvalues
# ---------------------------------------------------------------------------

def _c_const(c, x):
    v = x.value

    def run(m):
        m.cost.instructions += 1
        return v
    return run


def _c_fault(c, x):
    fault = x.fault

    def run(m):
        m.cost.instructions += 1
        raise fault.error()
    return run


def _c_str(c, x):
    data, nid = x.data, x.node.nid

    def run(m):
        m.cost.instructions += 1
        addr = m._strlit_cache.get(nid)
        if addr is None:
            addr = m.memory.alloc(len(data), mem.RODATA, label="strlit")
            m.memory.write_bytes(addr, data)
            m._strlit_cache[nid] = addr
        return addr
    return run


def _c_tid(c, x):
    e = x.node

    def run(m):
        m.cost.instructions += 1
        h = m._tid_hook
        return m.tid if h is None else h(e, m.tid)
    return run


def _c_nthreads(c, x):
    def run(m):
        m.cost.instructions += 1
        return m.nthreads
    return run


def _c_fn(c, x):
    decl = x.decl

    def run(m):
        m.cost.instructions += 1
        return decl  # function designator
    return run


def _c_var(c, x):
    acc, site = x.acc, x.node.nid
    getaddr = var_getter(x.slot)
    if acc.shape == "array":
        def run(m):
            m.cost.instructions += 1
            return getaddr(m)  # decay, zero cost
        return run
    if acc.shape == "struct":
        loadf = make_load(acc, site)

        def run(m):
            m.cost.instructions += 1
            return loadf(m, getaddr(m))
        return run
    decl, size = x.slot.decl, acc.size
    unpack = scalar_codec(acc.fmt).unpack_from
    if x.fused and not acc.cy:
        # a local slot is in bounds while its frame lives (stack blocks
        # die on frame pop, free() rejects them, the slot spans its
        # block) and check_access has no other observable effect: only a
        # redirected address is checked
        def run(m):
            m.cost.instructions += 1
            addr = m.frames[-1].vars.get(decl)
            if addr is None:
                addr = m.var_addr(decl)
            r = m.redirector
            memory = m.memory
            if r is not None:
                addr = r(site, addr, size, False)
                if memory.check_bounds:
                    memory.check_access(addr, size)
            value = unpack(memory.data, addr)[0]
            for obs in m.observers:
                obs.on_access(site, addr, size, False)
            return value
        return run
    if x.slot.local:
        return _scalar_value(acc, site, getaddr)
    return _scalar_value(acc, site, decl, "global")


def _c_load(c, x):
    ao, acc, site = c.a(x.a), x.acc, x.node.nid
    if acc.shape == "scalar":
        return _scalar_value(acc, site, ao)
    loadf = make_load(acc, site)

    def run(m):
        m.cost.instructions += 1
        return loadf(m, ao(m))
    return run


def _c_deref(c, x):
    vo, acc, site = c.x(x.v), x.acc, x.node.nid
    if acc.shape == "scalar":
        return _scalar_value(acc, site, vo, "deref")
    loadf = make_load(acc, site)

    def run(m):
        m.cost.instructions += 1
        return loadf(m, int(vo(m)))
    return run


def _c_addr(c, x):
    ao = c.a(x.a)

    def run(m):
        m.cost.instructions += 1
        return ao(m)
    return run


def _fused_incdec(x):
    """``++``/``--`` on a local scalar, fully fused (the loop counter):
    load site the operand's, store site the Unary's; the unredirected
    slot skips the bounds check (see ``_c_var``)."""
    ld, st = x.ld, x.st
    decl, lsite, ssite, size = x.a.decl, x.lsite, x.node.nid, ld.size
    codec = scalar_codec(ld.fmt)
    unpack, pack = codec.unpack_from, codec.pack_into
    conv, delta, post, cy = x.conv, x.delta, x.post, x.cy

    def run(m):
        m.cost.instructions += 1
        addr = m.frames[-1].vars.get(decl)
        if addr is None:
            addr = m.var_addr(decl)
        r = m.redirector
        memory = m.memory
        if r is None:
            old = unpack(memory.data, addr)[0]
            for obs in m.observers:
                obs.on_access(lsite, addr, size, False)
            m.cost.cycles += cy
            v = conv(old + delta)
            pack(memory.data, addr, v)
            for obs in m.observers:
                obs.on_access(ssite, addr, size, True)
            return old if post else v
        la = r(lsite, addr, size, False)
        if memory.check_bounds:
            memory.check_access(la, size)
        old = unpack(memory.data, la)[0]
        for obs in m.observers:
            obs.on_access(lsite, la, size, False)
        m.cost.cycles += cy
        sa = r(ssite, addr, size, True)
        v = conv(old + delta)
        if memory.check_bounds:
            memory.check_access(sa, size)
        pack(memory.data, sa, v)
        for obs in m.observers:
            obs.on_access(ssite, sa, size, True)
        return old if post else v
    return run


def _c_incdec(c, x):
    if x.fused and not x.ld.cy and not x.st.cy:
        return _fused_incdec(x)
    ao, loadf = c.a(x.a), make_load(x.ld, x.lsite)
    if x.fault is not None:
        fault = x.fault

        def run(m):
            m.cost.instructions += 1
            loadf(m, ao(m))
            raise fault.error()
        return run
    storef, conv, delta, post, cy = make_store(x.st, x.node.nid), x.conv, \
        x.delta, x.post, x.cy

    def run(m):
        m.cost.instructions += 1
        addr = ao(m)
        old = loadf(m, addr)
        m.cost.cycles += cy
        new = old + delta
        storef(m, addr, new)
        return old if post else conv(new)
    return run


def _c_unop(c, x):
    vo, fn, cy = c.x(x.v), x.fn, x.cy
    if x.op == "!":
        def run(m):
            m.cost.instructions += 1
            v = vo(m)
            m.cost.cycles += cy
            return 0 if v else 1
        return run

    def run(m):
        m.cost.instructions += 1
        v = vo(m)
        m.cost.cycles += cy
        return fn(v)
    return run


def _c_logic(c, x):
    lo, ro, cy = c.x(x.l), c.x(x.r), x.cy
    if x.op == "&&":
        def run(m):
            m.cost.instructions += 1
            m.cost.cycles += cy
            if not lo(m):
                return 0
            return 1 if ro(m) else 0
    else:
        def run(m):
            m.cost.instructions += 1
            m.cost.cycles += cy
            if lo(m):
                return 1
            return 1 if ro(m) else 0
    return run


def _c_binop(c, x):
    lo, ro, ap = c.x(x.l), c.x(x.r), x.ap
    if ap.how == "cmp":
        return template(_CMP, op=ap.op)(lo, ro, ap.cy)
    if ap.how == "int" and ap.op in ("+", "-", "*"):
        return template(_ARITH, op=ap.op)(lo, ro, ap.cy, *ap.wrap)
    apply, cy = ap.fn, ap.cy

    def run(m):
        m.cost.instructions += 1
        l = lo(m)
        r = ro(m)
        m.cost.cycles += cy
        return apply(l, r)
    return run


def _fused_assign(x, vo):
    """Plain store to a local scalar, fully fused.  Walker parity: the
    address resolves before the right-hand side, the redirector applies
    at store time, and the expression yields the unconverted value."""
    st = x.st
    decl, nid, size = x.a.decl, x.node.nid, st.size
    pack, conv = scalar_codec(st.fmt).pack_into, st.conv

    def run(m):
        m.cost.instructions += 1
        addr = m.frames[-1].vars.get(decl)
        if addr is None:
            addr = m.var_addr(decl)
        value = vo(m)
        r = m.redirector
        memory = m.memory
        if r is not None:
            addr = r(nid, addr, size, True)
            v = conv(value)
            if memory.check_bounds:
                memory.check_access(addr, size)
            pack(memory.data, addr, v)
        else:
            pack(memory.data, addr, conv(value))
        for obs in m.observers:
            obs.on_access(nid, addr, size, True)
        return value
    return run


def _c_assign(c, x):
    vo = c.x(x.v)
    if x.fused and not x.st.cy:
        return _fused_assign(x, vo)
    nid = x.node.nid
    ao, storef = c.a(x.a), make_store(x.st, nid)
    tapped = x.tapped
    if x.op == "=":
        if not tapped:
            def run(m):
                m.cost.instructions += 1
                addr = ao(m)
                value = vo(m)
                storef(m, addr, value)
                return value
            return run

        def run(m):
            m.cost.instructions += 1
            addr = ao(m)
            value = vo(m)
            stored = value
            taps = m._store_taps
            if taps is not None:
                tap = taps.get(nid)
                if tap is not None:
                    # the tap corrupts what lands in memory; the
                    # expression still yields the untapped value
                    stored = tap(value)
            storef(m, addr, stored)
            return value
        return run
    loadf, ap, conv = make_load(x.ld, x.lsite), x.ap, x.conv
    apply, cy = ap.fn, ap.cy

    def run(m):
        m.cost.instructions += 1
        addr = ao(m)
        old = loadf(m, addr)
        rhs = vo(m)
        m.cost.cycles += cy
        new = apply(old, rhs)
        stored = new
        if tapped:
            taps = m._store_taps
            if taps is not None:
                tap = taps.get(nid)
                if tap is not None:
                    stored = tap(new)  # corrupts storage, not the result
        storef(m, addr, stored)
        return conv(new)
    return run


def _c_cond(c, x):
    co, to, eo, cy = c.x(x.c), c.x(x.t), c.x(x.f), x.cy

    def run(m):
        m.cost.instructions += 1
        m.cost.cycles += cy
        if co(m):
            return to(m)
        return eo(m)
    return run


def _c_call(c, x):
    arg_ops = tuple(c.x(a) for a in x.args)
    e = x.node
    if x.how not in ("user", "indirect"):  # a builtin
        impl, cy = x.impl, x.cy

        def run(m):
            m.cost.instructions += 1
            args = [a(m) for a in arg_ops]
            m.cost.cycles += cy
            return impl(m, args, e)
        return run
    fns = c.fns
    if x.how == "user":
        fn = x.fn
        fnid = fn.nid

        def run(m):
            m.cost.instructions += 1
            args = [a(m) for a in arg_ops]
            hook = m._native_call
            if hook is not None:
                return hook(fn, args)
            code = fns.get(fnid)
            if code is None:
                code = c.function(fn)
            return code(m, args)
        return run
    fo, fault = c.x(x.f), x.fault

    def run(m):
        m.cost.instructions += 1
        value = fo(m)
        if not isinstance(value, ast.FunctionDef):
            raise fault.error()
        args = [a(m) for a in arg_ops]
        code = fns.get(value.nid)
        if code is None:
            code = c.function(value)
        return code(m, args)
    return run


def _c_cast(c, x):
    vo, fn = c.x(x.v), x.fn
    if fn is None:
        def run(m):
            m.cost.instructions += 1
            return vo(m)  # void cast, struct cast passthrough
    else:
        def run(m):
            m.cost.instructions += 1
            return fn(vo(m))
    return run


def _c_comma(c, x):
    lo, ro = c.x(x.l), c.x(x.r)

    def run(m):
        m.cost.instructions += 1
        lo(m)
        return ro(m)
    return run


EXPR_COMPILERS = {
    "const": _c_const, "fault": _c_fault, "str": _c_str, "tid": _c_tid,
    "nthreads": _c_nthreads, "fn": _c_fn, "var": _c_var, "load": _c_load,
    "deref": _c_deref, "addr": _c_addr, "incdec": _c_incdec,
    "unop": _c_unop, "logic": _c_logic, "binop": _c_binop,
    "assign": _c_assign, "cond": _c_cond, "call": _c_call,
    "cast": _c_cast, "comma": _c_comma,
}
