"""Data structure expansion (paper Table 1) and named-variable
redirection (Table 2, rows 1-6).

Expansion makes ``N`` adjacent copies of every data structure in the
expansion set (bonded mode):

* **heap allocations** multiply their size by ``__nthreads``;
* **local variables** become variable-length arrays of ``__nthreads``
  copies (``int a`` → ``int a[N]``, ``int a[n]`` → ``int a[N][n]``,
  ``struct S s`` → ``struct S s[N]`` — Table 1's Local rows; the paper
  notes VLAs are exactly how stack expansion is realized);
* **global variables** are first converted to heap objects ("statically
  expanding global variables of a variable length is impossible because
  the global data section must have a fixed size") allocated in a
  generated ``__expand_init`` function, then expanded like heap
  objects.

Because converting a variable rewrites every reference to it anyway,
this stage *also* applies Table 2's redirection for those references: a
private access selects copy ``__tid``, a shared access copy 0.
(Redirection of pointer *dereferences* — Table 2's last row, which
needs spans — lives in :mod:`repro.transform.redirect`.)

Whether a reference is private is decided at its root ``Ident``: the
pipeline marks the full lvalue *spine* of every private access in
``redirect_origins``, so the root identifier of ``a[i][j]`` or ``s.f``
carries its access's classification.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..frontend import ast
from ..frontend.ctypes import (
    ArrayType, CType, PointerType, StructType, VOID,
)
from . import rewrite as rw
from .promote import TransformError
from .rewrite import inherit_origin, origin_of

_ALLOC_SIZE_ARG = {"malloc": 0, "calloc": 1, "realloc": 1}

INIT_FN_NAME = "__expand_init"
NTHREADS = "__nthreads"
TID = "__tid"

MODE_HEAP = "heap"   # globals: converted to expanded heap objects
MODE_VLA = "vla"     # locals/params: expanded in place as VLAs

BONDED = "bonded"          # whole-structure replicas adjacent (Fig. 2a)
INTERLEAVED = "interleaved"  # per-element replicas adjacent (Fig. 2b)
ADAPTIVE = "adaptive"      # per-structure choice (the paper's future work)


class ExpandedVar:
    """Bookkeeping for one expanded variable."""

    def __init__(self, decl: ast.VarDecl, orig_type: CType, mode: str,
                 layout: str = BONDED):
        self.decl = decl
        self.orig_type = orig_type          # promoted type, pre-expansion
        self.mode = mode
        self.layout = layout
        if isinstance(orig_type, ArrayType):
            self.elem_type = orig_type.elem
            self.copy_elems = orig_type.length or 1
        else:
            self.elem_type = orig_type
            self.copy_elems = 1

    @property
    def is_array(self) -> bool:
        return isinstance(self.orig_type, ArrayType)


class ExpansionResult:
    def __init__(self):
        #: VarDecl (post-conversion) -> ExpandedVar
        self.expanded_vars: Dict[ast.VarDecl, ExpandedVar] = {}
        #: origins of allocation calls whose size was multiplied
        self.expanded_alloc_origins: Set[int] = set()
        #: distinct *data structures* expanded: aggregates + allocation
        #: sites (the paper's Table 5 counts structures; expanded
        #: scalars are ordinary scalar expansion and counted apart)
        self.num_expanded: int = 0
        #: scalars expanded (classic scalar expansion, Table 1 row 1)
        self.num_scalars: int = 0

    # kept name for external callers
    @property
    def heapified(self) -> Dict[ast.VarDecl, ExpandedVar]:
        return self.expanded_vars


def _tid() -> ast.Expr:
    return ast.Ident(TID)


def _nthreads() -> ast.Expr:
    return ast.Ident(NTHREADS)


def _copy_index(private: bool) -> ast.Expr:
    """Which copy an access selects: ``__tid`` if private, 0 if shared."""
    return _tid() if private else ast.IntLit(0)


class _RewriteRefs:
    """Top-down reference rewriter for expanded variables.

    Top-down (unlike the generic bottom-up Rewriter) because the parent
    decides how an expanded ``Ident`` is consumed: ``a[i]`` vs ``s.f``
    vs bare decay vs ``&a``.
    """

    def __init__(self, expanded: Dict[ast.VarDecl, ExpandedVar],
                 redirect_origins: Set[int]):
        self.expanded = expanded
        self.redirect_origins = redirect_origins

    def is_private(self, node: ast.Node) -> bool:
        return origin_of(node) in self.redirect_origins

    def _evar(self, expr: ast.Expr) -> Optional[ExpandedVar]:
        if isinstance(expr, ast.Ident) and isinstance(expr.decl, ast.VarDecl):
            return self.expanded.get(expr.decl)
        return None

    # -- program walk -----------------------------------------------------
    def run(self, program: ast.Program) -> None:
        for fn in program.functions():
            self._stmt(fn.body)
        for decl in program.decls:
            if isinstance(decl, ast.VarDecl) and isinstance(decl.init, ast.Expr):
                decl.init = self._expr(decl.init)

    def _stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for s in stmt.stmts:
                self._stmt(s)
        elif isinstance(stmt, ast.ExprStmt):
            stmt.expr = self._expr(stmt.expr)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                if isinstance(decl.init, ast.Expr):
                    decl.init = self._expr(decl.init)
                elif isinstance(decl.init, list):
                    decl.init = self._init_list(decl.init)
        elif isinstance(stmt, ast.If):
            stmt.cond = self._expr(stmt.cond)
            self._stmt(stmt.then)
            if stmt.els is not None:
                self._stmt(stmt.els)
        elif isinstance(stmt, ast.While):
            stmt.cond = self._expr(stmt.cond)
            self._stmt(stmt.body)
        elif isinstance(stmt, ast.DoWhile):
            self._stmt(stmt.body)
            stmt.cond = self._expr(stmt.cond)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._stmt(stmt.init)
            if stmt.cond is not None:
                stmt.cond = self._expr(stmt.cond)
            if stmt.step is not None:
                stmt.step = self._expr(stmt.step)
            self._stmt(stmt.body)
        elif isinstance(stmt, ast.Return):
            if stmt.expr is not None:
                stmt.expr = self._expr(stmt.expr)

    def _init_list(self, items):
        return [
            self._init_list(i) if isinstance(i, list) else self._expr(i)
            for i in items
        ]

    # -- expressions ----------------------------------------------------------
    def _expr(self, expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.Index):
            evar = self._evar(expr.base)
            if evar is not None and evar.is_array and \
                    evar.layout == INTERLEAVED:
                return self._interleaved_index(expr, evar)
        evar = self._evar(expr)
        if evar is not None:
            return self._rewrite_ident(expr, evar)
        if isinstance(expr, ast.Unary) and expr.op == "&":
            rewritten = self._address_of(expr)
            if rewritten is not None:
                return rewritten
        if isinstance(expr, ast.SizeofExpr):
            evar = self._evar(expr.expr)
            if evar is not None:
                return inherit_origin(ast.SizeofType(evar.orig_type), expr)
        # generic recursion
        for name in expr._fields:
            value = getattr(expr, name)
            if isinstance(value, ast.Expr):
                setattr(expr, name, self._expr(value))
            elif isinstance(value, list):
                setattr(
                    expr, name,
                    [self._expr(v) if isinstance(v, ast.Expr) else v
                     for v in value],
                )
        return expr

    def _interleaved_index(self, expr: ast.Index,
                           evar: ExpandedVar) -> ast.Expr:
        """Figure 2(b): element i's N copies sit adjacently, so
        ``a[i]`` becomes ``a[i*N + copy]`` (the decl was converted to a
        flat heap chunk of n*N elements)."""
        if isinstance(evar.elem_type, ArrayType):
            raise TransformError(
                "interleaved layout does not support multi-dimensional "
                "arrays"
            )
        expr.index = self._expr(expr.index)
        private = self.is_private(expr)
        strided = rw.binary(
            "*", expr.index, ast.Ident(NTHREADS), like=expr
        )
        expr.index = rw.binary(
            "+", strided, _copy_index(private), like=expr
        )
        return expr

    def _rewrite_ident(self, expr: ast.Ident, evar: ExpandedVar) -> ast.Expr:
        if evar.layout == INTERLEAVED and evar.is_array:
            raise TransformError(
                f"interleaved layout: array {expr.name!r} used without a "
                "subscript (whole-copy operations need bonded mode)"
            )
        """The uniform Table 2 rewrite at the access's root identifier.

        VLA locals: ``x`` -> ``x[copy]`` (an lvalue of the original
        type; surrounding ``[i]``/``.f`` syntax keeps working).
        Heapified globals: ``x`` is now a pointer; scalar/struct uses
        become ``x[copy]``; array uses index copy 0 at offset
        ``copy*len`` via the same subscript (``x[copy*len]`` decays to
        the copy's base for bare uses).
        """
        private = self.is_private(expr)
        if evar.mode == MODE_VLA:
            return rw.index(expr, _copy_index(private), like=expr)
        # MODE_HEAP: decl is now a pointer to elem_type.  Tag the
        # rewritten form so the optimizer can hoist the base address
        # computation out of loops (the global pointer is only written
        # by __expand_init, so it is loop-invariant everywhere else).
        if evar.is_array:
            if not private:
                expr._base_hoist = (expr.decl, "shared")
                expr._base_elem = evar.elem_type
                return expr  # copy 0 starts at the base pointer
            offset = rw.binary(
                "*", _tid(), ast.IntLit(evar.copy_elems), like=expr
            )
            out = rw.binary("+", expr, offset, like=expr)
            out._base_hoist = (expr.decl, "private")
            out._base_elem = evar.elem_type
            return out
        out = rw.index(expr, _copy_index(private), like=expr)
        out._base_hoist = (expr.decl, "private" if private else "shared")
        out._base_elem = evar.elem_type
        return out

    def _address_of(self, expr: ast.Unary) -> Optional[ast.Expr]:
        """``&x`` on an expanded variable: address of the shared copy."""
        inner = expr.operand
        evar = self._evar(inner)
        if evar is None:
            return None
        if evar.mode == MODE_VLA:
            # &x -> &x[0]; for arrays, x[0] is the copy-0 row and & of
            # an array lvalue is its base address, so use plain x[0]
            zero = rw.index(
                ast.Ident(inner.name), ast.IntLit(0), like=expr
            )
            inherit_origin(zero.base, expr)
            if evar.is_array:
                return zero
            return rw.unary("&", zero, like=expr)
        # heapified: the pointer itself is the copy-0 address
        out = ast.Ident(inner.name)
        return inherit_origin(out, expr)


def _malloc_for(evar: ExpandedVar, like: ast.Node) -> ast.Expr:
    """``malloc(sizeof(T) * __nthreads)`` for a heapified variable."""
    size = rw.sizeof_type(evar.orig_type, like=like)
    total = rw.binary("*", size, _nthreads(), like=like)
    return rw.call("malloc", [total], like=like)


def _init_assignments(
    target: ast.Expr, ctype: CType, init, like: ast.Node
) -> List[ast.Stmt]:
    """Assignments storing an initializer into ``target``, one copy of an
    expanded variable: copy 0 of a global (``__expand_init`` runs before
    any thread), the declaring thread's copy of a local.  Private
    accesses are written-before-read by Definition 5, so no other copy
    ever reads an initial value."""
    out: List[ast.Stmt] = []
    if isinstance(init, list):
        if isinstance(ctype, ArrayType):
            for i, item in enumerate(init):
                elem_target = rw.index(
                    rw.clone_expr(target), ast.IntLit(i), like=like
                )
                out.extend(
                    _init_assignments(elem_target, ctype.elem, item, like)
                )
        elif isinstance(ctype, StructType):
            for item, field in zip(init, ctype.fields):
                field_target = rw.member(
                    rw.clone_expr(target), field.name, like=like
                )
                out.extend(
                    _init_assignments(field_target, field.type, item, like)
                )
        else:
            raise TransformError("brace initializer on scalar")
    else:
        out.append(rw.expr_stmt(rw.assign(target, init, like=like), like=like))
    return out


def _copy_lvalue(decl: ast.VarDecl, copy: ast.Expr,
                 like: ast.Node) -> ast.Expr:
    """An lvalue denoting copy ``copy`` of an expanded variable."""
    base: ast.Expr = ast.Ident(decl.name)
    inherit_origin(base, like)
    return rw.index(base, copy, like=like)


def heapify_globals(
    program: ast.Program,
    target_decls: List[ast.VarDecl],
    result: ExpansionResult,
    layout_for=None,
) -> None:
    """Convert expansion-set globals to expanded heap objects and build
    the ``__expand_init`` function allocating them (Table 1 Global
    rows)."""
    if not target_decls:
        return
    init_stmts: List[ast.Stmt] = []
    for decl in target_decls:
        layout = layout_for(decl) if layout_for else BONDED
        evar = ExpandedVar(decl, decl.ctype, MODE_HEAP, layout)
        result.expanded_vars[decl] = evar
        _count_var(evar, result)
        saved_init = decl.init
        decl.ctype = PointerType(evar.elem_type)
        decl.init = None
        target = ast.Ident(decl.name)
        inherit_origin(target, decl)
        init_stmts.append(
            rw.expr_stmt(
                rw.assign(target, _malloc_for(evar, decl), like=decl),
                like=decl,
            )
        )
        if saved_init is not None:
            if evar.is_array:
                base: ast.Expr = ast.Ident(decl.name)
                inherit_origin(base, decl)
                init_stmts.extend(
                    _init_assignments(base, evar.orig_type, saved_init, decl)
                )
            else:
                lv = _copy_lvalue(decl, ast.IntLit(0), decl)
                init_stmts.extend(
                    _init_assignments(lv, evar.orig_type, saved_init, decl)
                )
    init_fn = ast.FunctionDef(INIT_FN_NAME, VOID, [], ast.Block(init_stmts))
    init_fn.varargs = False
    program.decls.append(init_fn)
    main = program.function("main")
    main.body.stmts.insert(0, ast.ExprStmt(ast.Call(ast.Ident(INIT_FN_NAME), [])))


def vla_expand_locals(
    program: ast.Program,
    target_decls: List[ast.VarDecl],
    result: ExpansionResult,
    layout_for=None,
) -> None:
    """Expand expansion-set locals/params in place as variable-length
    arrays of ``__nthreads`` copies (Table 1 Local rows).  Interleaved
    layout keeps scalars/records as VLAs (a single element's copies are
    adjacent either way) but converts arrays to flat heap chunks with
    per-element interleaving."""
    targets = set(target_decls)
    if not targets:
        return
    for fn in program.functions():
        for param in [p for p in fn.params if p in targets]:
            _expand_param(fn, param, result)
        _expand_block(fn.body, targets, result, layout_for)


def _count_var(evar: ExpandedVar, result: ExpansionResult) -> None:
    elem = evar.elem_type
    # a promoted (fat) pointer variable is still a scalar pointer in the
    # source program; the structure it points at is counted at its
    # allocation site
    is_fat_handle = isinstance(elem, StructType) and \
        elem.name.startswith("__fat")
    if (evar.is_array or isinstance(elem, StructType)) and not is_fat_handle:
        result.num_expanded += 1
    else:
        result.num_scalars += 1


def _make_vla(decl: ast.VarDecl, result: ExpansionResult) -> ExpandedVar:
    evar = ExpandedVar(decl, decl.ctype, MODE_VLA)
    result.expanded_vars[decl] = evar
    _count_var(evar, result)
    decl.ctype = ArrayType(evar.orig_type, None)
    decl.vla_length = _nthreads()
    return evar


def _expand_param(fn: ast.FunctionDef, param: ast.VarDecl,
                  result: ExpansionResult) -> None:
    """Params are expanded via a shadowing VLA local whose calling
    thread's copy is seeded from the incoming value."""
    original_name = param.name
    param.name = original_name + "__in"
    local = ast.VarDecl(original_name, param.ctype, None, "local")
    inherit_origin(local, param)
    evar = _make_vla(local, result)
    # references still link to the param decl; same expansion applies
    result.expanded_vars[param] = evar
    seed = rw.expr_stmt(
        rw.assign(
            _copy_lvalue(local, _tid(), param),
            ast.Ident(param.name),
            like=param,
        ),
        like=param,
    )
    fn.body.stmts[0:0] = [ast.DeclStmt([local]), seed]


def _expand_block(stmt: ast.Stmt, targets: Set[ast.VarDecl],
                  result: ExpansionResult, layout_for=None) -> None:
    if isinstance(stmt, ast.Block):
        new_stmts: List[ast.Stmt] = []
        for s in stmt.stmts:
            _expand_block(s, targets, result, layout_for)
            new_stmts.append(s)
            if isinstance(s, ast.DeclStmt):
                new_stmts.extend(
                    _expand_declstmt(s, targets, result, layout_for)
                )
        stmt.stmts = new_stmts
        return
    for child in list(stmt.children()):
        if isinstance(child, ast.Stmt):
            _expand_block(child, targets, result, layout_for)


def _make_interleaved_local(decl: ast.VarDecl,
                            result: ExpansionResult) -> ExpandedVar:
    """Interleaved arrays become flat heap chunks of n*N elements."""
    evar = ExpandedVar(decl, decl.ctype, MODE_HEAP, INTERLEAVED)
    result.expanded_vars[decl] = evar
    _count_var(evar, result)
    decl.ctype = PointerType(evar.elem_type)
    return evar


def _expand_declstmt(stmt: ast.DeclStmt, targets: Set[ast.VarDecl],
                     result: ExpansionResult,
                     layout_for=None) -> List[ast.Stmt]:
    extra: List[ast.Stmt] = []
    for decl in stmt.decls:
        if decl not in targets:
            continue
        saved_init = decl.init
        decl.init = None
        layout = layout_for(decl) if layout_for else BONDED
        if layout == INTERLEAVED and isinstance(decl.ctype, ArrayType):
            evar = _make_interleaved_local(decl, result)
            target = ast.Ident(decl.name)
            inherit_origin(target, decl)
            extra.append(
                rw.expr_stmt(
                    rw.assign(target, _malloc_for(evar, decl), like=decl),
                    like=decl,
                )
            )
            if saved_init is not None:
                raise TransformError(
                    "interleaved layout: initialized local arrays are "
                    "not supported"
                )
            continue
        evar = _make_vla(decl, result)
        if saved_init is not None:
            # the declaring thread runs the initializer: its own copy
            lv = _copy_lvalue(decl, _tid(), decl)
            extra.extend(
                _init_assignments(lv, evar.orig_type, saved_init, decl)
            )
    return extra


def expand_allocations(
    program: ast.Program,
    alloc_origins: Set[int],
    result: ExpansionResult,
) -> None:
    """Multiply the size of expansion-set heap allocations by
    ``__nthreads`` (Table 1 Heap row).  Runs after span insertion, so
    spans keep the *original* size."""
    for fn in program.functions():
        for node in fn.body.walk():
            if not isinstance(node, ast.Call):
                continue
            name = node.callee_name
            if name not in _ALLOC_SIZE_ARG:
                continue
            if origin_of(node) not in alloc_origins:
                continue
            if origin_of(node) in result.expanded_alloc_origins:
                continue
            arg_i = _ALLOC_SIZE_ARG[name]
            node.args[arg_i] = rw.binary(
                "*", node.args[arg_i], _nthreads(), like=node
            )
            result.expanded_alloc_origins.add(origin_of(node))
            result.num_expanded += 1


def rewrite_expanded_references(
    program: ast.Program,
    result: ExpansionResult,
    redirect_origins: Set[int],
) -> None:
    """Apply Table 2 rows 1-6 to every reference of expanded vars."""
    _RewriteRefs(result.expanded_vars, redirect_origins).run(program)
