"""MiniC abstract syntax tree.

Nodes follow the style of Python's :mod:`ast` module: each class lists
its child slots in ``_fields`` so generic visitors and rewriters
(:mod:`repro.transform.rewrite`) can traverse any node without
per-class code.

Every node receives a process-unique ``nid`` at construction.  The
dynamic dependence profiler identifies memory-access *sites*
(Definition 1's graph vertices) by the ``nid`` of the expression that
performs the access, so ids must be stable across a run but need not
survive serialization.

Expression nodes carry a ``ctype`` annotation filled in by
:mod:`repro.frontend.sema`.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from .ctypes import CType

_nid_counter = itertools.count(1)


def reserve_nids(floor: int) -> None:
    """Advance the nid counter past ``floor``.

    Deserialized programs (the service's on-disk stage cache) carry the
    nids they were built with; any node created afterwards — e.g. by
    resuming the pipeline on a cached artifact — must not collide with
    them, or site/origin maps silently alias two nodes."""
    global _nid_counter
    current = next(_nid_counter)
    _nid_counter = itertools.count(max(current, floor + 1))


def max_nid(*roots) -> int:
    """Largest nid reachable from the given nodes (0 when empty)."""
    out = 0
    for root in roots:
        if root is None:
            continue
        for node in root.walk():
            if node.nid > out:
                out = node.nid
    return out


class Node:
    """Base AST node."""

    _fields: Tuple[str, ...] = ()

    def __init__(self, loc: Optional[Tuple[int, int]] = None):
        self.nid: int = next(_nid_counter)
        self.loc = loc or (0, 0)

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (flattening lists)."""
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, Node):
                        yield item

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, preorder."""
        yield self
        for child in self.children():
            yield from child.walk()

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} #{self.nid}>"


# ===========================================================================
# Expressions
# ===========================================================================


class Expr(Node):
    """Base expression; ``ctype`` is set by semantic analysis."""

    def __init__(self, loc=None):
        super().__init__(loc)
        self.ctype: Optional[CType] = None


class IntLit(Expr):
    _fields = ()

    def __init__(self, value: int, loc=None):
        super().__init__(loc)
        self.value = value

    def __repr__(self) -> str:
        return f"<IntLit {self.value}>"


class FloatLit(Expr):
    _fields = ()

    def __init__(self, value: float, loc=None):
        super().__init__(loc)
        self.value = value


class StrLit(Expr):
    """A string literal; materialized as a static char array."""

    _fields = ()

    def __init__(self, value: str, loc=None):
        super().__init__(loc)
        self.value = value


class Ident(Expr):
    _fields = ()

    def __init__(self, name: str, loc=None):
        super().__init__(loc)
        self.name = name
        #: filled by sema: the declaring VarDecl or FunctionDef
        self.decl: Optional[Node] = None

    def __repr__(self) -> str:
        return f"<Ident {self.name}>"


class Unary(Expr):
    """Unary ops: ``- ! ~ * & ++pre --pre post++ post--``.

    ``op`` is one of: ``'-' '!' '~' '*' '&' '++' '--' 'p++' 'p--'``
    (``p`` prefix marks postfix forms).
    """

    _fields = ("operand",)

    def __init__(self, op: str, operand: Expr, loc=None):
        super().__init__(loc)
        self.op = op
        self.operand = operand

    def __repr__(self) -> str:
        return f"<Unary {self.op}>"


class Binary(Expr):
    _fields = ("left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, loc=None):
        super().__init__(loc)
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"<Binary {self.op}>"


class Assign(Expr):
    """Assignment; ``op`` is ``'='`` or a compound op like ``'+='``."""

    _fields = ("target", "value")

    def __init__(self, op: str, target: Expr, value: Expr, loc=None):
        super().__init__(loc)
        self.op = op
        self.target = target
        self.value = value


class Cond(Expr):
    """Ternary ``c ? t : f``."""

    _fields = ("cond", "then", "els")

    def __init__(self, cond: Expr, then: Expr, els: Expr, loc=None):
        super().__init__(loc)
        self.cond = cond
        self.then = then
        self.els = els


class Call(Expr):
    _fields = ("func", "args")

    def __init__(self, func: Expr, args: Sequence[Expr], loc=None):
        super().__init__(loc)
        self.func = func
        self.args = list(args)

    @property
    def callee_name(self) -> Optional[str]:
        return self.func.name if isinstance(self.func, Ident) else None


class Index(Expr):
    """Array subscript ``base[index]``."""

    _fields = ("base", "index")

    def __init__(self, base: Expr, index: Expr, loc=None):
        super().__init__(loc)
        self.base = base
        self.index = index


class Member(Expr):
    """Member access ``base.name`` or ``base->name``."""

    _fields = ("base",)

    def __init__(self, base: Expr, name: str, arrow: bool = False, loc=None):
        super().__init__(loc)
        self.base = base
        self.name = name
        self.arrow = arrow

    def __repr__(self) -> str:
        sep = "->" if self.arrow else "."
        return f"<Member {sep}{self.name}>"


class Cast(Expr):
    _fields = ("expr",)

    def __init__(self, to_type: CType, expr: Expr, loc=None):
        super().__init__(loc)
        self.to_type = to_type
        self.expr = expr


class SizeofType(Expr):
    _fields = ()

    def __init__(self, of_type: CType, loc=None):
        super().__init__(loc)
        self.of_type = of_type


class SizeofExpr(Expr):
    _fields = ("expr",)

    def __init__(self, expr: Expr, loc=None):
        super().__init__(loc)
        self.expr = expr


class Comma(Expr):
    _fields = ("left", "right")

    def __init__(self, left: Expr, right: Expr, loc=None):
        super().__init__(loc)
        self.left = left
        self.right = right


# ===========================================================================
# Statements
# ===========================================================================


class Stmt(Node):
    pass


class Block(Stmt):
    _fields = ("stmts",)

    def __init__(self, stmts: Sequence[Stmt], loc=None):
        super().__init__(loc)
        self.stmts = list(stmts)


class ExprStmt(Stmt):
    _fields = ("expr",)

    def __init__(self, expr: Expr, loc=None):
        super().__init__(loc)
        self.expr = expr


class VarDecl(Node):
    """One declared variable (globals, locals, and params).

    ``storage`` is ``'global'``, ``'local'`` or ``'param'``.  ``init``
    is an optional initializer expression, or a list of expressions for
    array/struct brace initializers.
    """

    _fields = ("init",)

    def __init__(
        self,
        name: str,
        ctype: CType,
        init: Optional[Any] = None,
        storage: str = "local",
        loc=None,
    ):
        super().__init__(loc)
        self.name = name
        self.ctype = ctype
        self.init = init
        self.storage = storage
        #: for expanded locals: a runtime length expression making this a
        #: variable-length array (paper Table 1's local expansion rows);
        #: the declared ctype is then ArrayType(elem, None)
        self.vla_length: Optional[Any] = None

    def children(self) -> Iterator[Node]:
        return iter(self.init_leaves())

    def init_leaves(self) -> List[Node]:
        """The initializer's leaf expressions, nested brace lists
        flattened in order; the machine stores a brace initializer
        element-wise, each element at its leaf's nid."""
        out: List[Node] = []
        pending = [self.init]
        while pending:
            item = pending.pop()
            if isinstance(item, list):
                pending.extend(reversed(item))
            elif item is not None:
                out.append(item)
        return out

    def __repr__(self) -> str:
        return f"<VarDecl {self.name}: {self.ctype!r}>"


class DeclStmt(Stmt):
    _fields = ("decls",)

    def __init__(self, decls: Sequence[VarDecl], loc=None):
        super().__init__(loc)
        self.decls = list(decls)


class If(Stmt):
    _fields = ("cond", "then", "els")

    def __init__(self, cond: Expr, then: Stmt, els: Optional[Stmt] = None, loc=None):
        super().__init__(loc)
        self.cond = cond
        self.then = then
        self.els = els


class LoopStmt(Stmt):
    """Base for loops; carries parallelization pragmas and an optional
    label used to select candidate loops."""

    def __init__(self, loc=None):
        super().__init__(loc)
        self.pragmas: List[str] = []
        self.label: Optional[str] = None


class While(LoopStmt):
    _fields = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt, loc=None):
        super().__init__(loc)
        self.cond = cond
        self.body = body


class DoWhile(LoopStmt):
    _fields = ("body", "cond")

    def __init__(self, body: Stmt, cond: Expr, loc=None):
        super().__init__(loc)
        self.body = body
        self.cond = cond


class For(LoopStmt):
    """``for (init; cond; step) body``; ``init`` may be a DeclStmt, an
    ExprStmt, or None."""

    _fields = ("init", "cond", "step", "body")

    def __init__(
        self,
        init: Optional[Stmt],
        cond: Optional[Expr],
        step: Optional[Expr],
        body: Stmt,
        loc=None,
    ):
        super().__init__(loc)
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body


class Return(Stmt):
    _fields = ("expr",)

    def __init__(self, expr: Optional[Expr], loc=None):
        super().__init__(loc)
        self.expr = expr


class Break(Stmt):
    _fields = ()


class Continue(Stmt):
    _fields = ()


# ===========================================================================
# Top level
# ===========================================================================


class FunctionDef(Node):
    _fields = ("params", "body")

    def __init__(
        self,
        name: str,
        ret_type: CType,
        params: Sequence[VarDecl],
        body: Optional[Block],
        loc=None,
    ):
        super().__init__(loc)
        self.name = name
        self.ret_type = ret_type
        self.params = list(params)
        self.body = body

    def __repr__(self) -> str:
        return f"<FunctionDef {self.name}>"


class StructDecl(Node):
    _fields = ()

    def __init__(self, struct_type, loc=None):
        super().__init__(loc)
        self.struct_type = struct_type


class Program(Node):
    _fields = ("decls",)

    def __init__(self, decls: Sequence[Node], loc=None):
        super().__init__(loc)
        self.decls = list(decls)

    def functions(self) -> Iterator[FunctionDef]:
        for d in self.decls:
            if isinstance(d, FunctionDef) and d.body is not None:
                yield d

    def function(self, name: str) -> FunctionDef:
        for f in self.functions():
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")

    def globals(self) -> Iterator[VarDecl]:
        for d in self.decls:
            if isinstance(d, VarDecl):
                yield d


def iter_loops(root: Node) -> Iterator[LoopStmt]:
    """All loops under ``root``, preorder."""
    for node in root.walk():
        if isinstance(node, LoopStmt):
            yield node


def find_loop(root: Node, label: str) -> LoopStmt:
    """Find the loop carrying ``label`` (set via ``label:`` syntax)."""
    for loop in iter_loops(root):
        if loop.label == label:
            return loop
    raise KeyError(f"no loop labeled {label!r}")
