"""The lowered form: every per-node decision the two compiled tiers make.

The closure compiler (:mod:`repro.interp.bytecode`) and the C emitter
(:mod:`repro.interp.native.codegen`) execute the same analyzed program
and must agree with the walker (:mod:`repro.interp.machine`) bit for
bit.  Everything they would otherwise decide twice is decided here,
once per ``(program, sema)``: each analyzed node becomes one
:class:`Rec` whose ``kind`` names its shape and whose attributes carry

* the value's static type ``ct`` and carrier class ``cls`` (``'i'``
  int64 for integers, pointers and decayed arrays, ``'f'`` double,
  ``'s'`` struct blob, ``'v'`` nothing, ``'fn'`` a function
  designator; ``None`` where no single carrier holds every value);
* the conversion a store, cast or result applies (``conv``: a callable
  for Python, the target type for C) and the two's-complement wrap
  constants behind it (:func:`wrap_consts`);
* the cycle charges, in walker order (``cy``, read from
  :data:`~repro.interp.costs.COSTS`; every expression also counts one
  instruction before anything else);
* the address computation: a variable ``slot`` (global index or frame),
  a dereference, an index scale, a field offset, and for each memory
  access (``kind == "acc"``) its site, whether it is ``cheap`` (a
  register slot: no cost, no count) and whether compiled code
  bounds-checks it (``guarded``);
* the shape of every operator, call, declaration and flattened
  initializer, including the fused local-variable shapes (``fused``);
* the hook points only the closures serve: statement records (the
  prologue), ``tid`` reads, ``tapped`` Member-target stores, and every
  access (observer fan-out and redirection);
* a :class:`Fault` wherever the walker raises at run time — also for a
  malformed AST, whose node becomes a ``fault`` record.

The walker does not read this form: it stays the oracle both
translators are held to.  :func:`form_for` memoizes one form per
program, so the profile, ``lower`` and ``lower-native`` stages share a
build; :func:`~repro.interp.bytecode.compiler.invalidate_code` drops it.
"""

from __future__ import annotations

import operator
import weakref

from ..frontend import ast
from ..frontend.ctypes import (
    ArrayType, FloatType, IntType, PointerType, StructType,
)
from .builtins import BUILTIN_IMPLS
from .costs import COSTS
from .machine import InterpError

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

#: what each libm builtin charges inside its Python implementation
LIBM = {"sqrt": COSTS["fmath"], "exp": COSTS["fmath"], "log": COSTS["fmath"],
        "sin": COSTS["fmath"], "cos": COSTS["fmath"], "pow": COSTS["fmath"],
        "floor": FALU, "ceil": FALU, "fabs": ALU}

CMP_OPS = ("==", "!=", "<", ">", "<=", ">=")
_CMP = {"==": lambda l, r: 1 if l == r else 0,
        "!=": lambda l, r: 1 if l != r else 0,
        "<": lambda l, r: 1 if l < r else 0,
        ">": lambda l, r: 1 if l > r else 0,
        "<=": lambda l, r: 1 if l <= r else 0,
        ">=": lambda l, r: 1 if l >= r else 0}
_IOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
         "&": operator.and_, "|": operator.or_, "^": operator.xor,
         "<<": lambda a, b: a << (b & 63), ">>": lambda a, b: a >> (b & 63)}
_FOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class Fault:
    """An error the walker raises at this point at run time.
    :meth:`error` builds a fresh one per raise."""

    __slots__ = ("text", "node", "exc")

    def __init__(self, text, node=None, exc=None):
        self.text = text
        self.node = node
        #: a non-InterpError the walker raises (rebuilt from its args)
        self.exc = exc

    @classmethod
    def of(cls, exc: BaseException) -> "Fault":
        return cls(str(exc), None, exc)

    def error(self) -> BaseException:
        if self.exc is None:
            return InterpError(self.text, self.node)
        return type(self.exc)(*self.exc.args)


class Rec:
    """One lowered node: ``kind`` names its shape, ``node`` is the AST
    node it stands for (site ids, error anchors, hook arguments), ``ct``
    and ``cls`` the static type and carrier class of its value; every
    other attribute is a decision of that shape."""

    def __init__(self, kind, node, ct=None, cls="i", **kw):
        kw["kind"], kw["node"], kw["ct"], kw["cls"] = kind, node, ct, cls
        self.__dict__ = kw

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<Rec {self.kind} #{getattr(self.node, 'nid', '?')}>"


# ---------------------------------------------------------------------------
# classes, widths and conversions
# ---------------------------------------------------------------------------

def cls_of(ct) -> str:
    if isinstance(ct, FloatType):
        return "f"
    if isinstance(ct, StructType):
        return "s"
    if isinstance(ct, (IntType, PointerType, ArrayType)):
        return "i"
    return "v"


def u64(ct) -> bool:
    """Whether an int64 carrier of ``ct`` reads as unsigned."""
    return isinstance(ct, PointerType) or (
        isinstance(ct, IntType) and not ct.signed and ct.size == 8)


def scalar(ct) -> bool:
    return isinstance(ct, (IntType, FloatType, PointerType))


def wrap_consts(ct: IntType):
    """(mask, half, span) for two's-complement wrapping with one branch:
    ``v &= mask; v -= span if v >= half``.  For unsigned types ``half``
    lies above ``mask`` so the branch never fires."""
    bits = 8 * ct.size
    span = 1 << bits
    half = (1 << (bits - 1)) if ct.signed else span + 1
    return span - 1, half, span


def _wrapper(ct: IntType):
    mask, half, span = wrap_consts(ct)

    def wrap(v):
        v = int(v) & mask
        return v - span if v >= half else v
    return wrap


def _ptr(v):
    v = int(v)
    return v & 0xFFFFFFFFFFFFFFFF if v < 0 else v


def _same(v):
    return v


_CONVERT = {}


def convert(ct):
    """``Machine._convert`` for target ``ct``: what a store applies."""
    conv = _CONVERT.get(ct)
    if conv is None:
        if isinstance(ct, IntType):
            conv = _wrapper(ct)
        elif isinstance(ct, FloatType):
            conv = float
        elif isinstance(ct, PointerType):
            conv = _ptr
        else:
            return _same
        _CONVERT[ct] = conv
    return conv


def _fwrap(ct: FloatType):
    """``FloatType.wrap`` (float32 rounding; a double is ``float``)."""
    return float if ct.size == 8 else ct.wrap


def _raiser(fault: Fault):
    def fn(*_args):
        raise fault.error()
    return fn


# ---------------------------------------------------------------------------
# the form
# ---------------------------------------------------------------------------

class Form:
    """The lowered form of one analyzed program, built lazily per node
    and memoized by nid (expressions, lvalues, statements and functions
    each have their own table)."""

    def __init__(self, sema):
        self.sema = sema
        tc = getattr(sema, "thread_context", None) or {}
        self.tid_decl = tc.get("__tid")
        self.nthreads_decl = tc.get("__nthreads")
        self.gidx = {d: i for i, d in enumerate(sema.globals)}
        self._x, self._a, self._s, self._f = {}, {}, {}, {}
        self._slots, self._accs = {}, {}
        #: nids of the functions built so far whose designator is used
        #: as a value (so they may be called through a pointer)
        self.fn_values = set()

    # -- memoized entry points --------------------------------------------
    def _build(self, table, node, build):
        try:
            rec = build(self, node)
        except Exception as exc:  # malformed AST: raise where it runs
            rec = Rec("fault", node, getattr(node, "ctype", None),
                      fault=Fault.of(exc))
        table[node.nid] = rec
        return rec

    def expr(self, e) -> Rec:
        rec = self._x.get(e.nid)
        return rec if rec is not None else \
            self._build(self._x, e, _BUILD.get(type(e), Form._unknown))

    def addr(self, e) -> Rec:
        rec = self._a.get(e.nid)
        return rec if rec is not None else \
            self._build(self._a, e, Form._addr)

    def stmt(self, s) -> Rec:
        rec = self._s.get(s.nid)
        return rec if rec is not None else \
            self._build(self._s, s, Form._stmt)

    def function(self, fn) -> Rec:
        rec = self._f.get(fn.nid)
        if rec is None:
            rec = self._f[fn.nid] = Rec(
                "function", fn, params=[self._local(p, True)
                                        for p in fn.params],
                body=self.stmt(fn.body), cy_call=CALL, cy_ret=RET,
                overflow=Fault(f"call stack overflow in {fn.name}"))
        return rec

    # -- classification ------------------------------------------------------
    def is_reg_slot(self, e) -> bool:
        """Would a native compiler keep this lvalue in a register?  Local
        scalars and small local structs, and fixed slots (constant or
        thread-context index) of local aggregates."""
        if isinstance(e, ast.Ident):
            d = e.decl
            return isinstance(d, ast.VarDecl) and \
                d.storage in ("local", "param") and \
                not isinstance(d.ctype, ArrayType)
        if isinstance(e, ast.Index):
            idx = e.index
            fixed = isinstance(idx, ast.IntLit) or (
                isinstance(idx, ast.Ident)
                and (idx.decl is self.tid_decl
                     or idx.decl is self.nthreads_decl))
            base = e.base
            return fixed and isinstance(base, ast.Ident) and \
                isinstance(base.decl, ast.VarDecl) and \
                base.decl.storage in ("local", "param")
        if isinstance(e, ast.Member) and not e.arrow:
            return self.is_reg_slot(e.base)
        return False

    def _acc(self, ct, cheap, store=False, guarded=True):
        """One kind of load or store of ``ct`` (``Machine.load`` /
        ``Machine.store``), shared by every site that makes it: the
        access site is the node's (or, for the load of a
        read-modify-write, its target's: ``lsite``)."""
        key = (ct, cheap, store, guarded)
        acc = self._accs.get(key)
        if acc is not None:
            return acc
        if isinstance(ct, ArrayType):
            acc = Rec("acc", None, ct, shape="array", cheap=cheap,
                      fault=Fault("cannot store into array value"))
        else:
            struct = isinstance(ct, StructType)
            if cheap:
                cy = 2 * REG if struct else REG
            else:
                cy = (STORE if store else LOAD) + (
                    ct.size * BYTE_OP if struct else 0)
            acc = Rec("acc", None, ct, cls_of(ct),
                      shape="struct" if struct else "scalar", size=ct.size,
                      fmt=None if struct else ct.fmt, cheap=cheap, cy=cy,
                      count=not cheap, guarded=guarded, conv=convert(ct),
                      fault=Fault(f"storing non-blob into struct {ct.name}")
                      if struct else None)
        self._accs[key] = acc
        return acc

    def slot(self, d) -> Rec:
        slot = self._slots.get(d)
        if slot is None:
            slot = self._slots[d] = Rec(
                "slot", d, d.ctype, decl=d, gidx=self.gidx.get(d),
                local=d.storage != "global")
        return slot

    def _apply(self, op, lt, rt, ct, left_ct, node) -> Rec:
        """``Machine._apply_binop`` for one (op, types) shape: ``how``
        (ptr/addptr/ptrdiff/cmp/float/int/fault), its charge ``cy`` and
        ``fn(l, r)``, the value with every run-time fault; ``node`` is
        the error anchor (None for compound assigns)."""
        try:
            return self._classify(op, lt, rt, ct, left_ct, node)
        except Exception as exc:
            return self._fault_apply(Fault.of(exc), ct)

    def _fault_apply(self, fault, ct):
        return Rec("apply", None, ct, cls_of(ct), how="fault", op=None, cy=0,
                   fn=_raiser(fault), fault=fault)

    def _lea(self, op, esize, how, node, ct):
        if esize is None:
            return self._fault_apply(Fault("arithmetic on void*", node), ct)
        if how == "addptr":
            def fn(l, r):
                return int(r) + int(l) * esize
        elif op == "+":
            def fn(l, r):
                return int(l) + int(r) * esize
        else:
            def fn(l, r):
                return int(l) - int(r) * esize
        return Rec("apply", node, ct, "i", how=how, op=op, cy=LEA,
                   esize=esize, fn=fn)

    def _classify(self, op, lt, rt, ct, left_ct, node):
        if isinstance(lt, PointerType) and op in ("+", "-"):
            if isinstance(rt, PointerType):
                esize = lt.pointee.size or 1
                return Rec("apply", node, ct, "i", how="ptrdiff", op=op,
                           cy=PTRDIFF, esize=esize,
                           fn=lambda l, r: (int(l) - int(r)) // esize)
            return self._lea(op, lt.pointee.size, "ptr", node, ct)
        if isinstance(rt, PointerType) and op == "+":
            return self._lea(op, rt.pointee.size, "addptr", node, ct)
        if op in CMP_OPS:
            return Rec("apply", node, ct, "i", how="cmp", op=op, cy=ALU,
                       fn=_CMP[op], lu=u64(lt), ru=u64(rt))
        if isinstance(ct, FloatType):
            fwrap = _fwrap(ct)
            zero = Fault("float division by zero", node)
            if op == "/":
                def fn(l, r):
                    rf = float(r)
                    if rf == 0.0:
                        raise zero.error()
                    return fwrap(float(l) / rf)
            elif op in _FOPS:
                f = _FOPS[op]

                def fn(l, r):
                    return fwrap(f(float(l), float(r)))
            else:  # pragma: no cover - sema rejects
                return self._fault_apply(Fault(f"float op {op}", node), ct)
            return Rec("apply", node, ct, "f", how="float", op=op,
                       cy=FDIV if op == "/" else FALU, fn=fn, zero=zero)
        if not isinstance(ct, IntType):
            raise AssertionError((op, ct))
        mask, half, span = wrap_consts(ct)
        shr = None
        zero = Fault("integer division by zero", node)
        if op == "/" or op == "%":
            mod = op == "%"

            def fn(l, r):
                li, ri = int(l), int(r)
                if ri == 0:
                    raise zero.error()
                q = abs(li) // abs(ri)
                if (li < 0) != (ri < 0):
                    q = -q
                v = (li - q * ri if mod else q) & mask  # C: sign of dividend
                return v - span if v >= half else v
        elif op in _IOPS:
            f = _IOPS[op]
            if op == ">>" and isinstance(left_ct, IntType) and \
                    not left_ct.signed:
                shr = (1 << (8 * left_ct.size)) - 1

            def fn(l, r):
                v = f(int(l) if shr is None else int(l) & shr, int(r)) & mask
                return v - span if v >= half else v
        else:  # pragma: no cover - sema rejects
            return self._fault_apply(Fault(f"unknown binop {op}", node), ct)
        cy = IMUL if op == "*" else IDIV if op in ("/", "%") else ALU
        return Rec("apply", node, ct, "i", how="int", op=op, cy=cy, fn=fn,
                   lu=u64(lt), ru=u64(rt), shr=shr, wrap=(mask, half, span),
                   zero=zero)

    # -- lvalues (the walker's addr_of) ----------------------------------
    def _addr(self, e) -> Rec:
        if isinstance(e, ast.Ident):
            d = e.decl
            if d is self.tid_decl or d is self.nthreads_decl:
                return Rec("fault", e, fault=Fault(
                    "thread context variable is not addressable"))
            assert isinstance(d, ast.VarDecl)
            return self.slot(d)
        if isinstance(e, ast.Unary) and e.op == "*":
            return Rec("aderef", e, v=self.expr(e.operand))
        if isinstance(e, ast.Index):
            # base + index * scale folds into the addressing mode: free
            return Rec("aindex", e, b=self.expr(e.base),
                       i=self.expr(e.index), esize=e.ctype.size)
        if isinstance(e, ast.Member):
            stype = e.base.ctype.decay().pointee if e.arrow else e.base.ctype
            # constant displacement folds into the addressing mode: free
            return Rec("amember", e, arrow=e.arrow,
                       base=self.expr(e.base) if e.arrow
                       else self.addr(e.base),
                       off=stype.field(e.name).offset)
        if isinstance(e, ast.Cast):
            return self.addr(e.expr)  # (T)lvalue: transformed recasts
        if isinstance(e, ast.Comma):
            return Rec("acomma", e, l=self.expr(e.left), r=self.addr(e.right))
        return Rec("fault", e, fault=Fault(f"not an lvalue: {e!r}", e))

    # -- rvalues (Machine.eval) ---------------------------------------------
    def _unknown(self, e):
        raise KeyError(type(e))  # the walker's dispatch miss

    def _x_IntLit(self, e):
        return Rec("const", e, e.ctype, value=e.value)

    def _x_FloatLit(self, e):
        return Rec("const", e, e.ctype, "f", value=e.value)

    def _x_SizeofType(self, e):
        return Rec("const", e, e.ctype, value=e.of_type.size)

    def _x_SizeofExpr(self, e):
        ct = e.expr.ctype
        assert ct is not None and ct.size is not None
        return Rec("const", e, e.ctype, value=ct.size)

    def _x_StrLit(self, e):
        return Rec("str", e, e.ctype,
                   data=e.value.encode("latin-1") + b"\0")

    def _x_Ident(self, e):
        d = e.decl
        if d is self.tid_decl:
            return Rec("tid", e, e.ctype)
        if d is self.nthreads_decl:
            return Rec("nthreads", e, e.ctype)
        if isinstance(d, ast.FunctionDef):
            self.fn_values.add(d.nid)
            return Rec("fn", e, e.ctype, "fn", decl=d)
        assert isinstance(d, ast.VarDecl)
        ct = d.ctype
        local = d.storage in ("local", "param")
        cheap = local and not isinstance(ct, ArrayType)
        fused = cheap and scalar(ct)
        return Rec("var", e, ct, cls_of(ct), slot=self.slot(d), fused=fused,
                   acc=self._acc(ct, cheap, guarded=not fused))

    def _x_Unary(self, e):
        op = e.op
        if op == "&":
            return Rec("addr", e, e.ctype, a=self.addr(e.operand))
        if op == "*":
            return Rec("deref", e, e.ctype, cls_of(e.ctype),
                       v=self.expr(e.operand),
                       acc=self._acc(e.ctype, False))
        if op in ("++", "--", "p++", "p--"):
            t = e.operand
            ct = t.ctype
            cheap = self.is_reg_slot(t)
            fused = cheap and isinstance(t, ast.Ident) and scalar(ct)
            delta = ct.pointee.size if isinstance(ct, PointerType) else 1
            fault = None
            if delta is None:
                fault = Fault("arithmetic on void*", e)
            elif not op.endswith("++"):
                delta = -delta
            return Rec("incdec", e, ct, cls_of(ct), a=self.addr(t),
                       fused=fused, delta=delta, post=op[0] == "p", cy=ALU,
                       fault=fault, conv=convert(ct),
                       lsite=t.nid,
                       ld=self._acc(ct, cheap, guarded=not fused),
                       st=self._acc(ct, cheap, True,
                                    guarded=not fused))
        v = self.expr(e.operand)
        ct = e.ctype
        if op == "-":
            fn = (lambda x, w=_wrapper(ct): w(-x)) \
                if isinstance(ct, IntType) else operator.neg
        elif op == "!":
            def fn(x):
                return 0 if x else 1
        elif op == "~":
            fn = (lambda x, w=_wrapper(ct): w(~int(x)))
        else:  # pragma: no cover - sema rejects
            fn = _raiser(Fault(f"unknown unary {op}", e))
        return Rec("unop", e, ct, cls_of(ct), op=op, v=v, cy=ALU, fn=fn)

    def _x_Binary(self, e):
        if e.op in ("&&", "||"):
            return Rec("logic", e, e.ctype, op=e.op, cy=ALU,
                       l=self.expr(e.left), r=self.expr(e.right))
        l, r = self.expr(e.left), self.expr(e.right)
        try:
            ap = self._apply(e.op, e.left.ctype.decay(),
                             e.right.ctype.decay(), e.ctype, e.left.ctype, e)
        except Exception as exc:  # untyped operand: fails after both run
            ap = self._fault_apply(Fault.of(exc), e.ctype)
        return Rec("binop", e, ap.ct, ap.cls, l=l, r=r, ap=ap)

    def _x_Assign(self, e):
        t = e.target
        ct = t.ctype
        assert ct is not None
        cheap = self.is_reg_slot(t)
        # fat-pointer span corruption taps hang off Member-target
        # assigns (the only sites SpanCorruptor registers)
        tapped = isinstance(t, ast.Member)
        a = self.addr(t)
        v = self.expr(e.value)
        if e.op == "=":
            fused = not tapped and cheap and isinstance(t, ast.Ident) and \
                scalar(ct)
            # the expression yields the *unconverted* right-hand side
            return Rec("assign", e, v.ct, v.cls, op="=", a=a, v=v,
                       fused=fused, tapped=tapped,
                       st=self._acc(ct, cheap, True, guarded=not fused))
        base = e.op[:-1]
        if isinstance(ct, PointerType):
            ap = self._lea("+" if base == "+" else "-", ct.pointee.size,
                           "ptr", e, ct)
        else:
            ap = self._apply(base, ct.decay(), e.value.ctype.decay(), ct,
                             ct, None)
        return Rec("assign", e, ct, cls_of(ct), op=base, a=a, v=v,
                   fused=False, tapped=tapped, ap=ap, conv=convert(ct),
                   lsite=t.nid, ld=self._acc(ct, cheap),
                   st=self._acc(ct, cheap, True))

    def _x_Cond(self, e):
        c, t, f = self.expr(e.cond), self.expr(e.then), self.expr(e.els)
        cls = None  # one carrier for either branch: ints promote to double
        if t.cls in ("i", "f") and f.cls in ("i", "f"):
            cls = "f" if "f" in (t.cls, f.cls) else "i"
        return Rec("cond", e, t.ct if t.cls == cls else f.ct, cls, c=c, t=t,
                   f=f, cy=ALU)

    def _x_Call(self, e):
        name = e.callee_name
        ct = e.ctype
        if name is not None and name not in self.sema.functions:
            if name not in BUILTIN_IMPLS:
                return Rec("fault", e, ct, fault=Fault(
                    f"unknown function {name!r}", e))
            args = [self.expr(a) for a in e.args]
            # what runs besides the Python implementation: libm, an
            # inline abs, or the heap policy on one integer argument
            how = "libm" if name in LIBM else "abs" \
                if name in ("abs", "labs") else "heap" \
                if name in ("malloc", "free") and len(args) == 1 \
                and args[0].cls == "i" else "builtin"
            return Rec("call", e, ct, cls_of(ct), how=how, name=name,
                       impl=BUILTIN_IMPLS[name], cy=BUILTIN,
                       libm=LIBM.get(name), abs_cy=ALU, args=args)
        fn = self.sema.functions.get(name) if name else None
        if fn is not None:
            return Rec("call", e, ct, cls_of(ct), how="user", fn=fn,
                       args=[self.expr(a) for a in e.args])
        return Rec("call", e, ct, cls_of(ct), how="indirect",
                   f=self.expr(e.func), args=[self.expr(a) for a in e.args],
                   fault=Fault("call of non-function value", e))

    def _x_Index(self, e):
        ct = e.ctype
        assert ct is not None
        return Rec("load", e, ct, cls_of(ct), a=self.addr(e),
                   acc=self._acc(ct, self.is_reg_slot(e)))

    _x_Member = _x_Index

    def _x_Cast(self, e):
        v = self.expr(e.expr)
        to = e.to_type
        if isinstance(to, IntType):
            return Rec("cast", e, to, v=v, fn=_wrapper(to))
        if isinstance(to, FloatType):
            fwrap = _fwrap(to)
            return Rec("cast", e, to, "f", v=v,
                       fn=float if fwrap is float
                       else (lambda x: fwrap(float(x))))
        if isinstance(to, PointerType):
            return Rec("cast", e, to, v=v, fn=int)
        return Rec("cast", e, to, v.cls, v=v, fn=None)  # void/struct: as is

    def _x_Comma(self, e):
        l, r = self.expr(e.left), self.expr(e.right)
        return Rec("comma", e, r.ct, r.cls, l=l, r=r)

    # -- statements (Machine.exec_stmt) --------------------------------------
    def _stmt(self, s) -> Rec:
        t = type(s)
        if t is ast.Block:
            return Rec("block", s, body=[self.stmt(c) for c in s.stmts])
        if t is ast.ExprStmt:
            return Rec("expr", s, v=self.expr(s.expr))
        if t is ast.DeclStmt:
            return Rec("decl", s, decls=[self._local(d) for d in s.decls])
        if t is ast.If:
            return Rec("if", s, c=self.expr(s.cond), t=self.stmt(s.then),
                       f=None if s.els is None else self.stmt(s.els), cy=ALU)
        if t in (ast.While, ast.DoWhile, ast.For):
            opt = (lambda x, f: None if x is None else f(x))
            return Rec("loop", s, how=t.__name__.lower(), label=s.label,
                       c=opt(s.cond, self.expr), body=self.stmt(s.body),
                       init=opt(getattr(s, "init", None), self.stmt),
                       step=opt(getattr(s, "step", None), self.expr), cy=ALU,
                       budget=Fault("step budget exceeded (runaway program?)",
                                    s))
        if t is ast.Return:
            return Rec("return", s, v=None if s.expr is None
                       else self.expr(s.expr))
        if t in (ast.Break, ast.Continue):
            return Rec(t.__name__.lower(), s)
        raise KeyError(t)  # the walker's dispatch miss

    def _local(self, d, param=False) -> Rec:
        """Allocate (and bind, initialize or store) one local or
        parameter (``Machine._alloc_local`` + ``_init_storage``)."""
        ct = d.ctype
        vla = fault = None
        if ct.size is None and d.vla_length is not None:
            vla = self.expr(d.vla_length)
        elif ct.size is None:
            fault = Fault(f"local {d.name} has incomplete type", d)
        init = []
        if param:
            st = self._acc(ct, False, True)
        else:
            st = None
            if d.init is not None:
                self._init(ct, d.init, 0, init)
        return Rec("local", d, ct, decl=d, size=ct.size, vla=vla,
                   esize=ct.elem.size if vla is not None else None,
                   fault=fault, init=init, st=st)

    def _init(self, ct, init, off, out):
        """Flatten ``_init_storage`` into (offset, value, store) slots,
        in the walker's depth-first store order; a brace list on a
        scalar becomes a Fault at its position."""
        if isinstance(init, list):
            if isinstance(ct, ArrayType):
                for i, item in enumerate(init):
                    self._init(ct.elem, item, off + i * ct.elem.size, out)
            elif isinstance(ct, StructType):
                for item, field in zip(init, ct.fields):
                    self._init(field.type, item, off + field.offset, out)
            else:
                out.append(Fault("brace initializer on scalar"))
        else:
            out.append(Rec("init", init, ct, off=off, v=self.expr(init),
                           st=self._acc(ct, False, True)))


_BUILD = {getattr(ast, name[3:]): fn for name, fn in vars(Form).items()
          if name.startswith("_x_")}

#: Program -> {id(sema): Form}; the Form holds the sema (so the id is
#: not recycled while it lives) and nothing above the program's
#: declarations, so an entry dies with its Program
_FORMS: "weakref.WeakKeyDictionary[ast.Program, dict]" = \
    weakref.WeakKeyDictionary()


def form_for(program: ast.Program, sema) -> Form:
    """The shared lowered form of ``(program, sema)``."""
    entry = _FORMS.get(program)
    if entry is None:
        entry = _FORMS[program] = {}
    form = entry.get(id(sema))
    if form is None:
        form = entry[id(sema)] = Form(sema)
    return form
