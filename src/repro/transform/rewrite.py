"""AST rewriting infrastructure.

Transforms never mutate the analyzed original program: the pipeline
first deep-clones it.  Every cloned or transform-created node carries an
``origin`` attribute — the node id of the *original* node it descends
from — so analysis facts computed on the original program (private
sites, statement cycle profiles, the candidate loop identity) remain
addressable across arbitrarily many rewriting stages.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..frontend import ast
from ..frontend.ctypes import CType


def origin_of(node: ast.Node) -> int:
    """The original-program node id this node descends from."""
    return getattr(node, "origin", node.nid)


def inherit_origin(new: ast.Node, old: ast.Node) -> ast.Node:
    """Mark ``new`` as the rewrite of ``old``."""
    new.origin = origin_of(old)
    return new


def clone_program(program: ast.Program) -> Tuple[ast.Program, Dict[int, int]]:
    """Deep-copy a program AST.

    Returns ``(clone, nid_map)`` where ``nid_map`` maps original node
    ids to clone node ids.  Cloned nodes get ``origin`` set to their
    original's id (or its origin, if the input was itself a clone).
    Types are shared, not copied — they are immutable until the
    promotion stage deliberately rebuilds them.
    """
    nid_map: Dict[int, int] = {}
    decl_map: Dict[ast.Node, ast.Node] = {}

    def dup(node):
        if node is None:
            return None
        if isinstance(node, list):
            return [dup(item) for item in node]
        if not isinstance(node, ast.Node):
            return node
        new = object.__new__(type(node))
        for key, value in node.__dict__.items():
            if key == "nid":
                continue
            if key == "decl":
                new.__dict__[key] = value  # fixed up below
            elif isinstance(value, (ast.Node, list)):
                new.__dict__[key] = dup(value)
            else:
                new.__dict__[key] = value
        new.nid = next(ast._nid_counter)
        new.origin = origin_of(node)
        nid_map[node.nid] = new.nid
        if isinstance(node, (ast.VarDecl, ast.FunctionDef)):
            decl_map[node] = new
        return new

    clone = dup(program)
    # remap Ident.decl links to the cloned declarations
    for node in clone.walk():
        if isinstance(node, ast.Ident) and node.decl is not None:
            node.decl = decl_map.get(node.decl, node.decl)
    return clone, nid_map


class Rewriter:
    """Bottom-up expression/statement rewriter.

    Subclasses override ``rewrite_expr``/``rewrite_stmt`` (called after
    children have been rewritten) and return a replacement node or the
    node unchanged.  ``rewrite_stmt`` may return a list of statements
    to splice in place of one (how span-computing statements are
    inserted after pointer assignments, Table 3).
    """

    def run(self, program: ast.Program) -> ast.Program:
        for decl in program.decls:
            if isinstance(decl, ast.FunctionDef) and decl.body is not None:
                decl.body = self._do_stmt(decl.body)
            elif isinstance(decl, ast.VarDecl) and decl.init is not None:
                decl.init = self._do_init(decl.init)
        return program

    # -- traversal ---------------------------------------------------------
    def _do_init(self, init):
        if isinstance(init, list):
            return [self._do_init(i) for i in init]
        return self._do_expr(init)

    def _do_stmt(self, stmt: ast.Stmt) -> ast.Stmt:
        out = self._do_stmt_multi(stmt)
        if isinstance(out, list):
            if len(out) == 1:
                return out[0]
            block = ast.Block(out, loc=stmt.loc)
            return inherit_origin(block, stmt)
        return out

    def _do_stmt_multi(self, stmt: ast.Stmt):
        if isinstance(stmt, ast.Block):
            new_stmts: List[ast.Stmt] = []
            for s in stmt.stmts:
                result = self._do_stmt_multi(s)
                if isinstance(result, list):
                    new_stmts.extend(result)
                else:
                    new_stmts.append(result)
            stmt.stmts = new_stmts
        elif isinstance(stmt, ast.ExprStmt):
            stmt.expr = self._do_expr(stmt.expr)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                if decl.init is not None:
                    decl.init = self._do_init(decl.init)
        elif isinstance(stmt, ast.If):
            stmt.cond = self._do_expr(stmt.cond)
            stmt.then = self._do_stmt(stmt.then)
            if stmt.els is not None:
                stmt.els = self._do_stmt(stmt.els)
        elif isinstance(stmt, ast.While):
            stmt.cond = self._do_expr(stmt.cond)
            stmt.body = self._do_stmt(stmt.body)
        elif isinstance(stmt, ast.DoWhile):
            stmt.body = self._do_stmt(stmt.body)
            stmt.cond = self._do_expr(stmt.cond)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                stmt.init = self._do_stmt(stmt.init)
            if stmt.cond is not None:
                stmt.cond = self._do_expr(stmt.cond)
            if stmt.step is not None:
                stmt.step = self._do_expr(stmt.step)
            stmt.body = self._do_stmt(stmt.body)
        elif isinstance(stmt, ast.Return):
            if stmt.expr is not None:
                stmt.expr = self._do_expr(stmt.expr)
        return self.rewrite_stmt(stmt)

    def _do_expr(self, expr: ast.Expr) -> ast.Expr:
        for name in expr._fields:
            value = getattr(expr, name)
            if isinstance(value, ast.Expr):
                setattr(expr, name, self._do_expr(value))
            elif isinstance(value, list):
                setattr(
                    expr, name,
                    [self._do_expr(v) if isinstance(v, ast.Expr) else v
                     for v in value],
                )
        return self.rewrite_expr(expr)

    # -- override points --------------------------------------------------------
    def rewrite_expr(self, expr: ast.Expr) -> ast.Expr:
        return expr

    def rewrite_stmt(self, stmt: ast.Stmt):
        return stmt


# -- small node factories (origin-aware) -------------------------------------

def ident(name: str, like: Optional[ast.Node] = None) -> ast.Ident:
    node = ast.Ident(name)
    if like is not None:
        inherit_origin(node, like)
    return node


def intlit(value: int, like: Optional[ast.Node] = None) -> ast.IntLit:
    node = ast.IntLit(value)
    if like is not None:
        inherit_origin(node, like)
    return node


def member(base: ast.Expr, field: str, arrow: bool = False,
           like: Optional[ast.Node] = None) -> ast.Member:
    node = ast.Member(base, field, arrow)
    inherit_origin(node, like if like is not None else base)
    return node


def binary(op: str, left: ast.Expr, right: ast.Expr,
           like: Optional[ast.Node] = None) -> ast.Binary:
    node = ast.Binary(op, left, right)
    inherit_origin(node, like if like is not None else left)
    return node


def unary(op: str, operand: ast.Expr,
          like: Optional[ast.Node] = None) -> ast.Unary:
    node = ast.Unary(op, operand)
    inherit_origin(node, like if like is not None else operand)
    return node


def index(base: ast.Expr, idx: ast.Expr,
          like: Optional[ast.Node] = None) -> ast.Index:
    node = ast.Index(base, idx)
    inherit_origin(node, like if like is not None else base)
    return node


def assign(target: ast.Expr, value: ast.Expr,
           like: Optional[ast.Node] = None) -> ast.Assign:
    node = ast.Assign("=", target, value)
    inherit_origin(node, like if like is not None else target)
    return node


def expr_stmt(expr: ast.Expr, like: Optional[ast.Node] = None) -> ast.ExprStmt:
    node = ast.ExprStmt(expr)
    inherit_origin(node, like if like is not None else expr)
    return node


def call(name: str, args: List[ast.Expr],
         like: Optional[ast.Node] = None) -> ast.Call:
    node = ast.Call(ast.Ident(name), args)
    if like is not None:
        inherit_origin(node, like)
        inherit_origin(node.func, like)
    return node


def sizeof_type(ctype: CType, like: Optional[ast.Node] = None) -> ast.SizeofType:
    node = ast.SizeofType(ctype)
    if like is not None:
        inherit_origin(node, like)
    return node


def clone_expr(expr: ast.Expr) -> ast.Expr:
    """Deep-copy a single expression subtree, preserving origins."""

    def dup(node):
        if not isinstance(node, ast.Node):
            return node
        new = object.__new__(type(node))
        for key, value in node.__dict__.items():
            if key == "nid":
                continue
            if isinstance(value, ast.Node):
                new.__dict__[key] = dup(value)
            elif isinstance(value, list):
                new.__dict__[key] = [dup(v) for v in value]
            else:
                new.__dict__[key] = value
        new.nid = next(ast._nid_counter)
        new.origin = origin_of(node)
        return new

    return dup(expr)
