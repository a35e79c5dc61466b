"""Expression compilation for the bytecode tier.

Every compiler here takes the :class:`~repro.interp.bytecode.compiler.
Compiler` ``c`` and an AST node and returns a closure over the machine
``m``:

* value closures ``run(m) -> value`` mirror ``Machine.eval`` exactly —
  including the ``instructions += 1`` charge *before* dispatch and the
  position of every cycle charge relative to operations that can raise;
* address closures ``run(m) -> addr`` mirror ``Machine.addr_of`` (which
  charges nothing for the address node itself);
* access closures ``load(m, addr)`` / ``store(m, addr, value)`` mirror
  ``Machine.load`` / ``Machine.store`` with the type dispatch, struct
  field offsets, element sizes, integer wrap masks, conversion rules
  and ``struct.Struct`` codecs all resolved at compile time.

Compile-time resolution must never *raise* at compile time for
conditions the walker reports at run time: a function is compiled
whole on its first call, including statements that never execute, so
every error case becomes a closure that raises when (and only when)
the walker would have.

Values that change identity at run time (``m.cost`` is swapped per
virtual thread, ``m.memory.data`` is replaced on snapshot restore,
``m.redirector`` is installed per loop) are fetched from the machine on
every call — never captured.  Within one closure, ``m.cost`` may only
be cached across code that cannot re-enter a controller (i.e. not
across child-closure calls).
"""

from __future__ import annotations

from ...frontend import ast
from ...frontend.ctypes import (
    ArrayType, FloatType, IntType, PointerType, StructType,
)
from ..machine import COSTS, InterpError
from ..builtins import BUILTIN_IMPLS
from .. import memory as mem
from ..memory import scalar_codec

# cost constants baked into closures (no test or runtime path mutates
# COSTS after import; DESIGN.md §12 documents the restriction)
ALU = COSTS["alu"]
IMUL = COSTS["imul"]
IDIV = COSTS["idiv"]
FALU = COSTS["falu"]
FDIV = COSTS["fdiv"]
LOAD = COSTS["load"]
STORE = COSTS["store"]
REG = COSTS["reg"]
LEA = COSTS["lea"]
PTRDIFF = COSTS["ptrdiff"]
CALL = COSTS["call"]
RET = COSTS["ret"]
BUILTIN = COSTS["builtin"]
BYTE_OP = COSTS["byte_op"]


# ---------------------------------------------------------------------------
# static classification
# ---------------------------------------------------------------------------

def is_reg_slot(c, expr) -> bool:
    """Static version of ``Machine._is_reg_slot`` (the predicate is a
    pure function of the AST and the thread-context decls)."""
    if isinstance(expr, ast.Ident):
        decl = expr.decl
        return isinstance(decl, ast.VarDecl) and \
            decl.storage in ("local", "param") and \
            not isinstance(decl.ctype, ArrayType)
    if isinstance(expr, ast.Index):
        idx = expr.index
        fixed = isinstance(idx, ast.IntLit) or (
            isinstance(idx, ast.Ident)
            and (idx.decl is c.tid_decl or idx.decl is c.nthreads_decl)
        )
        if not fixed:
            return False
        base = expr.base
        return isinstance(base, ast.Ident) and \
            isinstance(base.decl, ast.VarDecl) and \
            base.decl.storage in ("local", "param")
    if isinstance(expr, ast.Member) and not expr.arrow:
        return is_reg_slot(c, expr.base)
    return False


def _wrap_consts(int_t):
    """(mask, half, span) for two's-complement wrapping with one branch:
    ``v &= mask; v -= span if v >= half``.  For unsigned types ``half``
    is placed above ``mask`` so the branch never fires and one closure
    body serves both signednesses."""
    bits = 8 * int_t.size
    mask = (1 << bits) - 1
    span = 1 << bits
    half = (1 << (bits - 1)) if int_t.signed else span + 1
    return mask, half, span


def make_convert(ctype):
    """Static ``Machine._convert`` for one target type."""
    if isinstance(ctype, IntType):
        # inline IntType.wrap: the conversion runs on every scalar store
        mask, half, span = _wrap_consts(ctype)

        def conv(v):
            v = int(v) & mask
            return v - span if v >= half else v
        return conv
    if isinstance(ctype, FloatType):
        return float
    if isinstance(ctype, PointerType):
        def conv(v):
            v = int(v)
            return v & 0xFFFFFFFFFFFFFFFF if v < 0 else v
        return conv
    return lambda v: v


def make_var_addr(c, decl):
    """Address getter for one VarDecl.  Frame placement is static
    (globals live in ``globals_frame``, locals/params in the top
    frame); the miss path defers to ``Machine.var_addr`` so the error
    is identical."""
    if decl.storage == "global":
        def get(m):
            addr = m.globals_frame.vars.get(decl)
            return addr if addr is not None else m.var_addr(decl)
    else:
        def get(m):
            addr = m.frames[-1].vars.get(decl)
            return addr if addr is not None else m.var_addr(decl)
    return get


# ---------------------------------------------------------------------------
# memory access closures
# ---------------------------------------------------------------------------

def _load_array(m, addr):
    return addr  # decay: the "value" of an array is its address


def make_load(c, ctype, site, cheap):
    """Compile ``Machine.load(addr, ctype, site, cheap)``."""
    if isinstance(ctype, ArrayType):
        return _load_array
    size = ctype.size
    if isinstance(ctype, StructType):
        if cheap:
            cyc = 2 * REG
        else:
            cyc = LOAD + size * BYTE_OP

        def load(m, addr):
            r = m.redirector
            if r is not None:
                addr = r(site, addr, size, False)
            blob = m.memory.read_bytes(addr, size)
            cost = m.cost
            cost.cycles += cyc
            if not cheap:
                cost.loads += 1
            for obs in m.observers:
                obs.on_access(site, addr, size, False)
            return blob
        return load
    unpack = scalar_codec(ctype.fmt).unpack_from
    if cheap:
        def load(m, addr):
            r = m.redirector
            if r is not None:
                addr = r(site, addr, size, False)
            memory = m.memory
            if memory.check_bounds:
                memory.check_access(addr, size)
            value = unpack(memory.data, addr)[0]
            for obs in m.observers:
                obs.on_access(site, addr, size, False)
            return value
        return load

    def load(m, addr):
        r = m.redirector
        if r is not None:
            addr = r(site, addr, size, False)
        memory = m.memory
        if memory.check_bounds:
            memory.check_access(addr, size)
        value = unpack(memory.data, addr)[0]
        cost = m.cost
        cost.cycles += LOAD
        cost.loads += 1
        for obs in m.observers:
            obs.on_access(site, addr, size, False)
        return value
    return load


def make_store(c, ctype, site, cheap):
    """Compile ``Machine.store(addr, ctype, value, site, cheap)``."""
    if isinstance(ctype, ArrayType):
        def store(m, addr, value):
            raise InterpError("cannot store into array value")
        return store
    size = ctype.size
    if isinstance(ctype, StructType):
        name = ctype.name
        if cheap:
            cyc = 2 * REG
        else:
            cyc = STORE + size * BYTE_OP

        def store(m, addr, value):
            r = m.redirector
            if r is not None:
                addr = r(site, addr, size, True)
            if not isinstance(value, (bytes, bytearray)):
                raise InterpError(f"storing non-blob into struct {name}")
            m.memory.write_bytes(addr, bytes(value))
            cost = m.cost
            cost.cycles += cyc
            if not cheap:
                cost.stores += 1
            for obs in m.observers:
                obs.on_access(site, addr, size, True)
        return store
    conv = make_convert(ctype)
    pack = scalar_codec(ctype.fmt).pack_into
    if cheap:
        def store(m, addr, value):
            r = m.redirector
            if r is not None:
                addr = r(site, addr, size, True)
            value = conv(value)
            memory = m.memory
            if memory.check_bounds:
                memory.check_access(addr, size)
            pack(memory.data, addr, value)
            for obs in m.observers:
                obs.on_access(site, addr, size, True)
        return store

    def store(m, addr, value):
        r = m.redirector
        if r is not None:
            addr = r(site, addr, size, True)
        value = conv(value)
        memory = m.memory
        if memory.check_bounds:
            memory.check_access(addr, size)
        pack(memory.data, addr, value)
        cost = m.cost
        cost.cycles += STORE
        cost.stores += 1
        for obs in m.observers:
            obs.on_access(site, addr, size, True)
    return store


def make_scalar_value(c, ctype, site, cheap, ao):
    """Fused value closure for an lvalue read of scalar type:
    ``instructions += 1; addr = ao(m); <inline scalar load>``.  Saves
    the separate load-closure call per Index/Member evaluation."""
    size = ctype.size
    unpack = scalar_codec(ctype.fmt).unpack_from
    if cheap:
        def run(m):
            m.cost.instructions += 1
            addr = ao(m)
            r = m.redirector
            if r is not None:
                addr = r(site, addr, size, False)
            memory = m.memory
            if memory.check_bounds:
                memory.check_access(addr, size)
            value = unpack(memory.data, addr)[0]
            for obs in m.observers:
                obs.on_access(site, addr, size, False)
            return value
        return run

    def run(m):
        m.cost.instructions += 1
        addr = ao(m)
        r = m.redirector
        if r is not None:
            addr = r(site, addr, size, False)
        memory = m.memory
        if memory.check_bounds:
            memory.check_access(addr, size)
        value = unpack(memory.data, addr)[0]
        cost = m.cost
        cost.cycles += LOAD
        cost.loads += 1
        for obs in m.observers:
            obs.on_access(site, addr, size, False)
        return value
    return run


# ---------------------------------------------------------------------------
# binary operator application (shared by Binary and compound Assign)
# ---------------------------------------------------------------------------

def _raising(exc_factory):
    def apply(m, l, r):
        raise exc_factory()
    return apply


def make_binop_apply(c, op, lt, rt, result_t, left_ct, node):
    """Compile ``Machine._apply_binop`` for one (op, types) shape.
    Returns ``apply(m, left, right) -> value``.  ``node`` is the error
    anchor (None for compound assigns, whose synthesized Binary carries
    a placeholder loc — same rendered message)."""
    if isinstance(lt, PointerType) and op in ("+", "-"):
        if isinstance(rt, PointerType):
            esize = lt.pointee.size or 1

            def apply(m, l, r):
                m.cost.cycles += PTRDIFF
                return (int(l) - int(r)) // esize
            return apply
        esize = lt.pointee.size
        if esize is None:
            return _raising(lambda: InterpError("arithmetic on void*", node))
        if op == "+":
            def apply(m, l, r):
                m.cost.cycles += LEA
                return int(l) + int(r) * esize
        else:
            def apply(m, l, r):
                m.cost.cycles += LEA
                return int(l) - int(r) * esize
        return apply
    if isinstance(rt, PointerType) and op == "+":
        esize = rt.pointee.size
        if esize is None:
            return _raising(lambda: InterpError("arithmetic on void*", node))

        def apply(m, l, r):
            m.cost.cycles += LEA
            return int(r) + int(l) * esize
        return apply
    if op in ("==", "!=", "<", ">", "<=", ">="):
        if op == "==":
            def apply(m, l, r):
                m.cost.cycles += ALU
                return 1 if l == r else 0
        elif op == "!=":
            def apply(m, l, r):
                m.cost.cycles += ALU
                return 1 if l != r else 0
        elif op == "<":
            def apply(m, l, r):
                m.cost.cycles += ALU
                return 1 if l < r else 0
        elif op == ">":
            def apply(m, l, r):
                m.cost.cycles += ALU
                return 1 if l > r else 0
        elif op == "<=":
            def apply(m, l, r):
                m.cost.cycles += ALU
                return 1 if l <= r else 0
        else:
            def apply(m, l, r):
                m.cost.cycles += ALU
                return 1 if l >= r else 0
        return apply
    if isinstance(result_t, FloatType):
        fwrap = result_t.wrap
        if op == "+":
            def apply(m, l, r):
                m.cost.cycles += FALU
                return fwrap(float(l) + float(r))
        elif op == "-":
            def apply(m, l, r):
                m.cost.cycles += FALU
                return fwrap(float(l) - float(r))
        elif op == "*":
            def apply(m, l, r):
                m.cost.cycles += FALU
                return fwrap(float(l) * float(r))
        elif op == "/":
            def apply(m, l, r):
                m.cost.cycles += FDIV
                rf = float(r)
                if rf == 0.0:
                    raise InterpError("float division by zero", node)
                return fwrap(float(l) / rf)
        else:  # pragma: no cover - sema rejects
            return _raising(lambda: InterpError(f"float op {op}", node))
        return apply
    if not isinstance(result_t, IntType):
        return _raising(lambda: AssertionError((op, result_t)))
    wrap = result_t.wrap
    if op == "+":
        def apply(m, l, r):
            m.cost.cycles += ALU
            return wrap(int(l) + int(r))
    elif op == "-":
        def apply(m, l, r):
            m.cost.cycles += ALU
            return wrap(int(l) - int(r))
    elif op == "*":
        def apply(m, l, r):
            m.cost.cycles += IMUL
            return wrap(int(l) * int(r))
    elif op in ("/", "%"):
        modulo = op == "%"

        def apply(m, l, r):
            m.cost.cycles += IDIV
            li, ri = int(l), int(r)
            if ri == 0:
                raise InterpError("integer division by zero", node)
            q = abs(li) // abs(ri)
            if (li < 0) != (ri < 0):
                q = -q
            if modulo:
                return wrap(li - q * ri)  # C: sign follows dividend
            return wrap(q)
    elif op == "<<":
        def apply(m, l, r):
            m.cost.cycles += ALU
            return wrap(int(l) << (int(r) & 63))
    elif op == ">>":
        mask = None
        if isinstance(left_ct, IntType) and not left_ct.signed:
            mask = (1 << (8 * left_ct.size)) - 1
        if mask is None:
            def apply(m, l, r):
                m.cost.cycles += ALU
                return wrap(int(l) >> (int(r) & 63))
        else:
            def apply(m, l, r):
                m.cost.cycles += ALU
                return wrap((int(l) & mask) >> (int(r) & 63))
    elif op == "&":
        def apply(m, l, r):
            m.cost.cycles += ALU
            return wrap(int(l) & int(r))
    elif op == "|":
        def apply(m, l, r):
            m.cost.cycles += ALU
            return wrap(int(l) | int(r))
    elif op == "^":
        def apply(m, l, r):
            m.cost.cycles += ALU
            return wrap(int(l) ^ int(r))
    else:  # pragma: no cover - sema rejects
        return _raising(lambda: InterpError(f"unknown binop {op}", node))
    return apply


# ---------------------------------------------------------------------------
# lvalue (address) compilation — mirrors Machine.addr_of
# ---------------------------------------------------------------------------

def compile_addr(c, expr):
    if isinstance(expr, ast.Ident):
        decl = expr.decl
        if decl is c.tid_decl or decl is c.nthreads_decl:
            def run(m):
                raise InterpError("thread context variable is not addressable")
            return run
        if not isinstance(decl, ast.VarDecl):
            def run(m):
                assert isinstance(decl, ast.VarDecl)
            return run
        return make_var_addr(c, decl)
    if isinstance(expr, ast.Unary) and expr.op == "*":
        vo = c.expr(expr.operand)

        def run(m):
            return int(vo(m))
        return run
    if isinstance(expr, ast.Index):
        bo = c.expr(expr.base)
        io = c.expr(expr.index)
        elem = expr.ctype
        if elem is None or elem.size is None:
            def run(m):
                bo(m)
                io(m)
                assert elem is not None and elem.size is not None
            return run
        esize = elem.size

        def run(m):
            base = int(bo(m))  # array decays to address
            # base+index*scale folds into the x86 addressing mode: free
            return base + int(io(m)) * esize
        return run
    if isinstance(expr, ast.Member):
        if expr.arrow:
            bo = c.expr(expr.base)
            stype = expr.base.ctype.decay().pointee
        else:
            bo = c.addr(expr.base)
            stype = expr.base.ctype
        if not isinstance(stype, StructType):
            def run(m):
                bo(m)
                assert isinstance(stype, StructType)
            return run
        offset = stype.field(expr.name).offset
        if expr.arrow:
            def run(m):
                # constant displacement folds into the addressing mode
                return int(bo(m)) + offset
        else:
            def run(m):
                return bo(m) + offset
        return run
    if isinstance(expr, ast.Cast):
        # (T)lvalue as lvalue: used by transformed code for recasts
        return c.addr(expr.expr)
    if isinstance(expr, ast.Comma):
        lo = c.expr(expr.left)
        ro = c.addr(expr.right)

        def run(m):
            lo(m)
            return ro(m)
        return run

    def run(m):
        raise InterpError(f"not an lvalue: {expr!r}", expr)
    return run


# ---------------------------------------------------------------------------
# rvalue compilation — mirrors Machine.eval / _eval_*
# ---------------------------------------------------------------------------

def _c_lit(c, e):
    v = e.value

    def run(m):
        m.cost.instructions += 1
        return v
    return run


def _c_strlit(c, e):
    data = e.value.encode("latin-1") + b"\0"
    size = len(data)
    nid = e.nid

    def run(m):
        m.cost.instructions += 1
        addr = m._strlit_cache.get(nid)
        if addr is None:
            addr = m.memory.alloc(size, mem.RODATA, label="strlit")
            m.memory.write_bytes(addr, data)
            m._strlit_cache[nid] = addr
        return addr
    return run


def _c_ident(c, e):
    decl = e.decl
    if decl is c.tid_decl:
        def run(m):
            m.cost.instructions += 1
            h = m._tid_hook
            return m.tid if h is None else h(e, m.tid)
        return run
    if decl is c.nthreads_decl:
        def run(m):
            m.cost.instructions += 1
            return m.nthreads
        return run
    if isinstance(decl, ast.FunctionDef):
        def run(m):
            m.cost.instructions += 1
            return decl  # function designator
        return run
    if not isinstance(decl, ast.VarDecl):
        def run(m):
            m.cost.instructions += 1
            assert isinstance(decl, ast.VarDecl)
        return run
    getaddr = make_var_addr(c, decl)
    ctype = decl.ctype
    if isinstance(ctype, ArrayType):
        def run(m):
            m.cost.instructions += 1
            return getaddr(m)  # decay, zero cost
        return run
    cheap = decl.storage in ("local", "param")
    if not isinstance(ctype, (IntType, FloatType, PointerType)):
        loadf = make_load(c, ctype, e.nid, cheap)

        def run(m):
            m.cost.instructions += 1
            return loadf(m, getaddr(m))
        return run
    # scalar variable read — the single hottest node shape; fully fused
    # (frame lookup + redirect + bounds + unpack + observers in one
    # closure, mirroring eval -> _eval_ident -> var_addr -> load)
    site = e.nid
    size = ctype.size
    unpack = scalar_codec(ctype.fmt).unpack_from
    if cheap:
        # a local scalar slot is provably in-bounds while its frame is
        # live (stack allocations die only on frame pop, free() rejects
        # non-heap, and the slot spans its whole allocation), and
        # check_access has no observable effect besides its perf cache —
        # so the bounds check is elided unless a redirector may have
        # moved the address
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

    def run(m):
        m.cost.instructions += 1
        addr = m.globals_frame.vars.get(decl)
        if addr is None:
            addr = m.var_addr(decl)
        r = m.redirector
        if r is not None:
            addr = r(site, addr, size, False)
        memory = m.memory
        if memory.check_bounds:
            memory.check_access(addr, size)
        value = unpack(memory.data, addr)[0]
        cost = m.cost
        cost.cycles += LOAD
        cost.loads += 1
        for obs in m.observers:
            obs.on_access(site, addr, size, False)
        return value
    return run


def _fused_incdec(c, e, decl, ctype, delta, post):
    """``++``/``--`` on a local scalar variable, fully fused (the loop
    counter pattern).  Load site is the operand's nid, store site the
    Unary's, exactly as the generic path; the bounds check on the
    unredirected slot is elided (see the Ident read fusion for why
    that is invisible)."""
    lsite = e.operand.nid
    ssite = e.nid
    size = ctype.size
    codec = scalar_codec(ctype.fmt)
    unpack = codec.unpack_from
    pack = codec.pack_into
    conv = make_convert(ctype)

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
            m.cost.cycles += ALU
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
        m.cost.cycles += ALU
        sa = r(ssite, addr, size, True)
        v = conv(old + delta)
        if memory.check_bounds:
            memory.check_access(sa, size)
        pack(memory.data, sa, v)
        for obs in m.observers:
            obs.on_access(ssite, sa, size, True)
        return old if post else v
    return run


def _c_unary(c, e):
    op = e.op
    if op == "&":
        ao = c.addr(e.operand)

        def run(m):
            m.cost.instructions += 1
            return ao(m)
        return run
    if op == "*":
        vo = c.expr(e.operand)
        ctype = e.ctype
        if isinstance(ctype, (IntType, FloatType, PointerType)):
            # scalar deref: fuse the load tail (always a costed load)
            site = e.nid
            size = ctype.size
            unpack = scalar_codec(ctype.fmt).unpack_from

            def run(m):
                m.cost.instructions += 1
                addr = int(vo(m))
                r = m.redirector
                if r is not None:
                    addr = r(site, addr, size, False)
                memory = m.memory
                if memory.check_bounds:
                    memory.check_access(addr, size)
                value = unpack(memory.data, addr)[0]
                cost = m.cost
                cost.cycles += LOAD
                cost.loads += 1
                for obs in m.observers:
                    obs.on_access(site, addr, size, False)
                return value
            return run
        loadf = make_load(c, ctype, e.nid, False)

        def run(m):
            m.cost.instructions += 1
            return loadf(m, int(vo(m)))
        return run
    if op in ("++", "--", "p++", "p--"):
        target = e.operand
        ctype = target.ctype
        ao = c.addr(target)
        cheap = is_reg_slot(c, target)
        loadf = make_load(c, ctype, target.nid, cheap)
        if isinstance(ctype, PointerType):
            delta = ctype.pointee.size
        else:
            delta = 1
        if delta is None:
            def run(m):
                m.cost.instructions += 1
                loadf(m, ao(m))
                raise InterpError("arithmetic on void*", e)
            return run
        if not op.endswith("++"):
            delta = -delta
        post = op.startswith("p")
        if cheap and isinstance(target, ast.Ident) and \
                isinstance(ctype, (IntType, FloatType, PointerType)):
            return _fused_incdec(c, e, target.decl, ctype, delta, post)
        storef = make_store(c, ctype, e.nid, cheap)
        conv = make_convert(ctype)
        if post:
            def run(m):
                m.cost.instructions += 1
                addr = ao(m)
                old = loadf(m, addr)
                m.cost.cycles += ALU
                storef(m, addr, old + delta)
                return old
        else:
            def run(m):
                m.cost.instructions += 1
                addr = ao(m)
                old = loadf(m, addr)
                m.cost.cycles += ALU
                new = old + delta
                storef(m, addr, new)
                return conv(new)
        return run
    vo = c.expr(e.operand)
    if op == "-":
        ctype = e.ctype
        if isinstance(ctype, IntType):
            wrap = ctype.wrap

            def run(m):
                m.cost.instructions += 1
                v = vo(m)
                m.cost.cycles += ALU
                return wrap(int(-v))
        else:
            def run(m):
                m.cost.instructions += 1
                v = vo(m)
                m.cost.cycles += ALU
                return -v
        return run
    if op == "!":
        def run(m):
            m.cost.instructions += 1
            v = vo(m)
            m.cost.cycles += ALU
            return 0 if v else 1
        return run
    if op == "~":
        wrap = e.ctype.wrap

        def run(m):
            m.cost.instructions += 1
            v = vo(m)
            m.cost.cycles += ALU
            return wrap(~int(v))
        return run

    def run(m):  # pragma: no cover - sema rejects
        m.cost.instructions += 1
        vo(m)
        m.cost.cycles += ALU
        raise InterpError(f"unknown unary {op}", e)
    return run


def _c_binary(c, e):
    op = e.op
    if op in ("&&", "||"):
        lo = c.expr(e.left)
        ro = c.expr(e.right)
        if op == "&&":
            def run(m):
                m.cost.instructions += 1
                m.cost.cycles += ALU
                if not lo(m):
                    return 0
                return 1 if ro(m) else 0
        else:
            def run(m):
                m.cost.instructions += 1
                m.cost.cycles += ALU
                if lo(m):
                    return 1
                return 1 if ro(m) else 0
        return run
    lo = c.expr(e.left)
    ro = c.expr(e.right)
    lt = e.left.ctype.decay()
    rt = e.right.ctype.decay()
    result_t = e.ctype
    # inline the hottest integer shapes; everything else goes through
    # the shared apply closure
    if not isinstance(lt, PointerType) and not isinstance(rt, PointerType):
        if op in ("==", "!=", "<", ">", "<=", ">="):
            if op == "<":
                def run(m):
                    m.cost.instructions += 1
                    l = lo(m)
                    r = ro(m)
                    m.cost.cycles += ALU
                    return 1 if l < r else 0
            elif op == ">":
                def run(m):
                    m.cost.instructions += 1
                    l = lo(m)
                    r = ro(m)
                    m.cost.cycles += ALU
                    return 1 if l > r else 0
            elif op == "<=":
                def run(m):
                    m.cost.instructions += 1
                    l = lo(m)
                    r = ro(m)
                    m.cost.cycles += ALU
                    return 1 if l <= r else 0
            elif op == ">=":
                def run(m):
                    m.cost.instructions += 1
                    l = lo(m)
                    r = ro(m)
                    m.cost.cycles += ALU
                    return 1 if l >= r else 0
            elif op == "==":
                def run(m):
                    m.cost.instructions += 1
                    l = lo(m)
                    r = ro(m)
                    m.cost.cycles += ALU
                    return 1 if l == r else 0
            else:
                def run(m):
                    m.cost.instructions += 1
                    l = lo(m)
                    r = ro(m)
                    m.cost.cycles += ALU
                    return 1 if l != r else 0
            return run
        if isinstance(result_t, IntType) and op in ("+", "-", "*"):
            # IntType.wrap inlined; see _wrap_consts for the one-branch
            # signed/unsigned trick
            mask, half, span = _wrap_consts(result_t)
            if op == "+":
                def run(m):
                    m.cost.instructions += 1
                    l = lo(m)
                    r = ro(m)
                    m.cost.cycles += ALU
                    v = (int(l) + int(r)) & mask
                    return v - span if v >= half else v
            elif op == "-":
                def run(m):
                    m.cost.instructions += 1
                    l = lo(m)
                    r = ro(m)
                    m.cost.cycles += ALU
                    v = (int(l) - int(r)) & mask
                    return v - span if v >= half else v
            else:
                def run(m):
                    m.cost.instructions += 1
                    l = lo(m)
                    r = ro(m)
                    m.cost.cycles += IMUL
                    v = (int(l) * int(r)) & mask
                    return v - span if v >= half else v
            return run
    apply = make_binop_apply(c, op, lt, rt, result_t, e.left.ctype, e)

    def run(m):
        m.cost.instructions += 1
        l = lo(m)
        r = ro(m)
        return apply(m, l, r)
    return run


def _c_assign(c, e):
    target = e.target
    target_t = target.ctype
    ao = c.addr(target)
    cheap = is_reg_slot(c, target)
    # fat-pointer span corruption taps hang off Member-target assigns
    # (the only sites SpanCorruptor registers)
    tapped = isinstance(target, ast.Member)
    nid = e.nid
    storef = make_store(c, target_t, nid, cheap)
    if e.op == "=":
        vo = c.expr(e.value)
        if not tapped and cheap and isinstance(target, ast.Ident) and \
                isinstance(target_t, (IntType, FloatType, PointerType)):
            # plain store to a local scalar — fully fused (frame lookup +
            # redirect + convert + bounds + pack + observers).  Walker
            # parity: address resolves before the rhs evaluates, the
            # redirector applies at store time, and the expression
            # yields the *unconverted* rhs value.
            decl = target.decl
            size = target_t.size
            pack = scalar_codec(target_t.fmt).pack_into
            conv = make_convert(target_t)

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
        if tapped:
            def run(m):
                m.cost.instructions += 1
                addr = ao(m)
                value = vo(m)
                stored = value
                taps = m._store_taps
                if taps is not None:
                    tap = taps.get(nid)
                    if tap is not None:
                        # the tap corrupts only what lands in memory;
                        # the assignment expression still yields the
                        # uncorrupted value (walker parity: the fault
                        # wrapper rebinds its own local, not the
                        # evaluator's)
                        stored = tap(value)
                storef(m, addr, stored)
                return value
        else:
            def run(m):
                m.cost.instructions += 1
                addr = ao(m)
                value = vo(m)
                storef(m, addr, value)
                return value
        return run
    # compound assignment: load-modify-store
    base_op = e.op[:-1]
    loadf = make_load(c, target_t, target.nid, cheap)
    vo = c.expr(e.value)
    conv = make_convert(target_t)
    struct_result = isinstance(target_t, StructType)
    if isinstance(target_t, PointerType):
        esize = target_t.pointee.size
        if esize is None:
            def run(m):
                m.cost.instructions += 1
                addr = ao(m)
                loadf(m, addr)
                vo(m)
                raise InterpError("arithmetic on void*", e)
            return run
        plus = base_op == "+"

        def compute(m, old, rhs):
            m.cost.cycles += LEA
            return old + int(rhs) * esize if plus else old - int(rhs) * esize
    else:
        result_t = target_t if isinstance(target_t, FloatType) else \
            target.ctype
        compute = make_binop_apply(
            c, base_op, target.ctype.decay(), e.value.ctype.decay(),
            result_t, target.ctype, None,
        )
    if tapped:
        def run(m):
            m.cost.instructions += 1
            addr = ao(m)
            old = loadf(m, addr)
            rhs = vo(m)
            new = compute(m, old, rhs)
            stored = new
            taps = m._store_taps
            if taps is not None:
                tap = taps.get(nid)
                if tap is not None:
                    stored = tap(new)  # corrupts storage, not the result
            storef(m, addr, stored)
            return new if struct_result else conv(new)
    else:
        def run(m):
            m.cost.instructions += 1
            addr = ao(m)
            old = loadf(m, addr)
            rhs = vo(m)
            new = compute(m, old, rhs)
            storef(m, addr, new)
            return new if struct_result else conv(new)
    return run


def _c_cond(c, e):
    co = c.expr(e.cond)
    to = c.expr(e.then)
    eo = c.expr(e.els)

    def run(m):
        m.cost.instructions += 1
        m.cost.cycles += ALU
        if co(m):
            return to(m)
        return eo(m)
    return run


def _c_call(c, e):
    name = e.callee_name
    arg_ops = tuple(c.expr(a) for a in e.args)
    if name is not None and name not in c.sema.functions:
        impl = BUILTIN_IMPLS.get(name)
        if impl is None:
            def run(m):
                m.cost.instructions += 1
                raise InterpError(f"unknown function {name!r}", e)
            return run

        def run(m):
            m.cost.instructions += 1
            args = [a(m) for a in arg_ops]
            m.cost.cycles += BUILTIN
            return impl(m, args, e)
        return run
    fns = c.fns
    fn = c.sema.functions.get(name) if name else None
    if fn is not None:
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
    fo = c.expr(e.func)

    def run(m):
        m.cost.instructions += 1
        value = fo(m)
        if not isinstance(value, ast.FunctionDef):
            raise InterpError("call of non-function value", e)
        args = [a(m) for a in arg_ops]
        code = fns.get(value.nid)
        if code is None:
            code = c.function(value)
        return code(m, args)
    return run


def _c_index(c, e):
    ao = c.addr(e)
    cheap = is_reg_slot(c, e)
    ctype = e.ctype
    if isinstance(ctype, (IntType, FloatType, PointerType)):
        return make_scalar_value(c, ctype, e.nid, cheap, ao)
    loadf = make_load(c, ctype, e.nid, cheap)

    def run(m):
        m.cost.instructions += 1
        return loadf(m, ao(m))
    return run


_c_member = _c_index  # identical shape: addr_of + typed load


def _c_cast(c, e):
    vo = c.expr(e.expr)
    to = e.to_type
    if isinstance(to, IntType):
        wrap = to.wrap

        def run(m):
            m.cost.instructions += 1
            return wrap(int(vo(m)))
    elif isinstance(to, FloatType):
        fwrap = to.wrap

        def run(m):
            m.cost.instructions += 1
            return fwrap(float(vo(m)))
    elif isinstance(to, PointerType):
        def run(m):
            m.cost.instructions += 1
            return int(vo(m))
    else:
        def run(m):
            m.cost.instructions += 1
            return vo(m)  # void cast, struct cast passthrough
    return run


def _c_sizeof_type(c, e):
    v = e.of_type.size

    def run(m):
        m.cost.instructions += 1
        return v
    return run


def _c_sizeof_expr(c, e):
    ctype = e.expr.ctype
    if ctype is None or ctype.size is None:
        def run(m):
            m.cost.instructions += 1
            assert ctype is not None and ctype.size is not None
        return run
    v = ctype.size

    def run(m):
        m.cost.instructions += 1
        return v
    return run


def _c_comma(c, e):
    lo = c.expr(e.left)
    ro = c.expr(e.right)

    def run(m):
        m.cost.instructions += 1
        lo(m)
        return ro(m)
    return run


EXPR_COMPILERS = {
    ast.IntLit: _c_lit,
    ast.FloatLit: _c_lit,
    ast.StrLit: _c_strlit,
    ast.Ident: _c_ident,
    ast.Unary: _c_unary,
    ast.Binary: _c_binary,
    ast.Assign: _c_assign,
    ast.Cond: _c_cond,
    ast.Call: _c_call,
    ast.Index: _c_index,
    ast.Member: _c_member,
    ast.Cast: _c_cast,
    ast.SizeofType: _c_sizeof_type,
    ast.SizeofExpr: _c_sizeof_expr,
    ast.Comma: _c_comma,
}


def compile_expr(c, e):
    compiler = EXPR_COMPILERS.get(type(e))
    if compiler is None:
        # unknown node type: defer to the walker dispatch at run time so
        # the error (KeyError) is identical to the tree-walker's
        def run(m):
            m.cost.instructions += 1
            return m._eval_dispatch[type(e)](e)
        return run
    return compiler(c, e)
