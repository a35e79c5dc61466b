"""Structural lint rules over the transformed IR.

Each rule re-checks one contract of the expansion transform:

=====================  =====================================================
``LINT-SPAN-MISSING``  every statement-level fat-pointer store carries the
                       Table 3 span store (unless the span is provably
                       unchanged or provably dead)
``LINT-SPAN-DEAD``     span stores the liveness analysis proves removable
                       (§3.4 dead span-store elimination, re-derived)
``LINT-SPAN-CLOBBER``  span stores whose value is statically zero while the
                       paired pointer is not null — the exact shape
                       :class:`repro.runtime.faults.SpanCorruptor` induces
``LINT-ALLOC-SCALE``   every expansion-set allocation multiplies its size
                       by ``__nthreads`` (Table 1)
``LINT-FATPTR-FIELD``  fat structs keep the 16-byte Figure 4 layout and fat
                       variables are never address-taken or accessed
                       outside the pointer/span fields
``LINT-LOOP-SHAPE``    every candidate loop survived the rewrite as a
                       DOALL/DOACROSS loop that kept its pragma
``LINT-EXPAND-SHAPE``  VLA-expanded variables declare a ``__nthreads``
                       length, heap-expanded ones became pointers
``LINT-INIT-FN``       ``__expand_init`` is the first statement of ``main``
                       and allocates every heapified global
``LINT-UNINIT-READ``   scalar locals read while only the synthetic
                       uninitialized definition reaches (reaching-defs)
``LINT-REANALYZE``     the transformed program re-analyzes: names resolve,
                       types check (registered last)
=====================  =====================================================
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..analysis.cfg import build_cfg
from ..analysis.dataflow import ReachingDefinitions, solve
from ..frontend import ast
from ..frontend.ctypes import ArrayType, LONG, PointerType, StructType
from ..frontend.sema import SemaError, analyze
from ..transform.expand import (
    _ALLOC_SIZE_ARG, INIT_FN_NAME, MODE_HEAP, MODE_VLA, NTHREADS,
)
from ..transform.optimize import (
    _SpanLiveness, _span_cells, find_dead_span_stores, is_fat_struct,
)
from ..transform.pipeline import DOACROSS, DOALL
from ..transform.promote import PTR_FIELD, SPAN_FIELD, _lvalue_repr
from ..transform.rewrite import clone_program, origin_of
from . import LintContext, rule


def _blocks(program: ast.Program) -> Iterator[Tuple[ast.FunctionDef,
                                                    ast.Block]]:
    for fn in program.functions():
        if fn.body is None:
            continue
        for node in fn.body.walk():
            if isinstance(node, ast.Block):
                yield fn, node


def _is_fat(ctx: LintContext, ctype) -> bool:
    if ctx.promoter is not None and ctype is not None:
        return ctx.promoter.is_fat(ctype)
    return is_fat_struct(ctype)


def _ptr_store(stmt: ast.Stmt) -> Optional[ast.Assign]:
    """``X.pointer = e`` when ``stmt`` is a statement-level plain store
    into a fat-pointer's pointer field (compound ops leave the span
    unchanged and need no companion store)."""
    if not (isinstance(stmt, ast.ExprStmt)
            and isinstance(stmt.expr, ast.Assign)):
        return None
    assign = stmt.expr
    target = assign.target
    if assign.op == "=" and isinstance(target, ast.Member) and \
            not target.arrow and target.name == PTR_FIELD and \
            is_fat_struct(target.base.ctype):
        return assign
    return None


def _span_store_for(stmt: ast.Stmt, base_repr: str) -> bool:
    """Is ``stmt`` the ``X.span = ...`` companion for lvalue ``X``?"""
    if not (isinstance(stmt, ast.ExprStmt)
            and isinstance(stmt.expr, ast.Assign)):
        return False
    assign = stmt.expr
    target = assign.target
    return (
        assign.op == "="
        and isinstance(target, ast.Member)
        and not target.arrow
        and target.name == SPAN_FIELD
        and _lvalue_repr(target.base) == base_repr
    )


def _reads_own_pointer(value: ast.Expr, base_repr: str) -> bool:
    """Does the stored value read ``X.pointer`` of the same lvalue?
    Then the store is a self-update (``p.pointer = p.pointer + i``)
    whose span is unchanged by construction."""
    for node in value.walk():
        if isinstance(node, ast.Member) and not node.arrow and \
                node.name == PTR_FIELD and \
                _lvalue_repr(node.base) == base_repr:
            return True
    return False


@rule("LINT-SPAN-MISSING",
      "pointer assignments carry their Table 3 span store")
def check_span_missing(ctx: LintContext) -> None:
    program = ctx.program
    cells = _span_cells(program)
    exit_live = {d.nid for d in program.globals() if d.nid in cells}
    liveness_cache: Dict[int, object] = {}

    def span_dead_after(fn: ast.FunctionDef, assign: ast.Assign) -> bool:
        base = assign.target.base
        if not (isinstance(base, ast.Ident)
                and isinstance(base.decl, ast.VarDecl)
                and base.decl.nid in cells):
            return False
        live = liveness_cache.get(fn.nid)
        if live is None:
            live = solve(build_cfg(fn), _SpanLiveness(cells, exit_live))
            liveness_cache[fn.nid] = live
        return base.decl.nid not in live.after(assign.nid)

    for fn, block in _blocks(program):
        for i, stmt in enumerate(block.stmts):
            assign = _ptr_store(stmt)
            if assign is None:
                continue
            base_repr = _lvalue_repr(assign.target.base)
            if base_repr is None:
                continue  # unfingerprintable lvalue: stay silent
            nxt = block.stmts[i + 1] if i + 1 < len(block.stmts) else None
            if nxt is not None and _span_store_for(nxt, base_repr):
                continue
            if _reads_own_pointer(assign.value, base_repr):
                continue  # span unchanged by construction
            if span_dead_after(fn, assign):
                continue  # §3.4 legitimately dropped the dead store
            ctx.finding(
                "LINT-SPAN-MISSING", "error",
                f"pointer store to {base_repr}.{PTR_FIELD} in "
                f"{fn.name}() has no following "
                f"{base_repr}.{SPAN_FIELD} store and the span is "
                "neither unchanged nor dead",
                node=assign,
            )


@rule("LINT-SPAN-DEAD", "liveness-dead span stores are flagged")
def check_span_dead(ctx: LintContext) -> None:
    dead = find_dead_span_stores(ctx.program)
    ctx.stats["span_stores_proved_dead"] = len(dead)
    for entry in dead:
        base_repr = _lvalue_repr(entry.assign.target.base)
        why = "is a self-assignment" if entry.reason == "identity" \
            else "is never read on any path"
        ctx.finding(
            "LINT-SPAN-DEAD", "warning",
            f"span store to {base_repr}.{SPAN_FIELD} in "
            f"{entry.fn.name}() {why}; the §3.4 elimination would "
            "remove it",
            node=entry.assign,
        )


def _statically_zero(expr: ast.Expr) -> bool:
    """Is ``expr`` zero for every input?  (Handles the ``value * 0``
    shape span corruption produces, which plain constant folding cannot
    because the other operand is dynamic.)"""
    if isinstance(expr, ast.IntLit):
        return expr.value == 0
    if isinstance(expr, ast.Cast):
        return _statically_zero(expr.expr)
    if isinstance(expr, ast.Binary):
        if expr.op == "*":
            return _statically_zero(expr.left) or \
                _statically_zero(expr.right)
        if expr.op in ("+", "-"):
            return _statically_zero(expr.left) and \
                _statically_zero(expr.right)
        if expr.op == "/":
            return _statically_zero(expr.left)
    return False


@rule("LINT-SPAN-CLOBBER", "span stores are not statically zero")
def check_span_clobber(ctx: LintContext) -> None:
    for fn, block in _blocks(ctx.program):
        for stmt in block.stmts:
            if not (isinstance(stmt, ast.ExprStmt)
                    and isinstance(stmt.expr, ast.Assign)):
                continue
            assign = stmt.expr
            target = assign.target
            if not (assign.op == "=" and isinstance(target, ast.Member)
                    and not target.arrow and target.name == SPAN_FIELD
                    and is_fat_struct(target.base.ctype)):
                continue
            # a literal 0 is the legitimate null-pointer span (Table 3);
            # anything *else* that is statically zero collapses the
            # per-thread stride: every thread redirects into copy 0
            if isinstance(assign.value, ast.IntLit):
                continue
            if _statically_zero(assign.value):
                ctx.finding(
                    "LINT-SPAN-CLOBBER", "error",
                    "span store to "
                    f"{_lvalue_repr(target.base)}.{SPAN_FIELD} in "
                    f"{fn.name}() is statically zero: all threads "
                    "would share copy 0",
                    node=assign,
                )


def _contains_nthreads(expr: ast.Expr) -> bool:
    return any(
        isinstance(n, ast.Ident) and n.name == NTHREADS
        for n in expr.walk()
    )


@rule("LINT-ALLOC-SCALE",
      "expansion-set allocations scale by __nthreads")
def check_alloc_scale(ctx: LintContext) -> None:
    result = ctx.result
    expanded = set(result.expansion.expanded_alloc_origins)
    found: Set[int] = set()
    for fn in ctx.program.functions():
        if fn.body is None:
            continue
        for node in fn.body.walk():
            if not isinstance(node, ast.Call):
                continue
            name = node.callee_name
            if name not in _ALLOC_SIZE_ARG:
                continue
            is_init_alloc = fn.name == INIT_FN_NAME
            if origin_of(node) in expanded:
                found.add(origin_of(node))
            elif not is_init_alloc:
                continue
            arg = node.args[_ALLOC_SIZE_ARG[name]]
            if not _contains_nthreads(arg):
                ctx.finding(
                    "LINT-ALLOC-SCALE", "error",
                    f"expanded {name}() in {fn.name}() does not "
                    f"multiply its size by {NTHREADS}",
                    node=node,
                )
    missing = expanded - found
    if missing:
        ctx.finding(
            "LINT-ALLOC-SCALE", "error",
            f"{len(missing)} expanded allocation site(s) vanished "
            "from the transformed program",
        )


@rule("LINT-FATPTR-FIELD", "fat-pointer field discipline")
def check_fatptr_fields(ctx: LintContext) -> None:
    fats: List[StructType] = []
    if ctx.promoter is not None:
        fats = list(ctx.promoter.fat_structs())
    for fat in fats:
        names = [f.name for f in fat.fields]
        if names != [PTR_FIELD, SPAN_FIELD]:
            ctx.finding(
                "LINT-FATPTR-FIELD", "error",
                f"fat struct {fat.name} has fields {names}, expected "
                f"[{PTR_FIELD!r}, {SPAN_FIELD!r}]",
            )
            continue
        if not isinstance(fat.field(PTR_FIELD).type, PointerType):
            ctx.finding(
                "LINT-FATPTR-FIELD", "error",
                f"fat struct {fat.name}.{PTR_FIELD} is not a pointer",
            )
        if fat.field(SPAN_FIELD).type != LONG:
            ctx.finding(
                "LINT-FATPTR-FIELD", "error",
                f"fat struct {fat.name}.{SPAN_FIELD} is not long",
            )
        if fat.size != 16:
            ctx.finding(
                "LINT-FATPTR-FIELD", "error",
                f"fat struct {fat.name} has size {fat.size}, expected 16",
            )
    for fn in ctx.program.functions():
        if fn.body is None:
            continue
        for node in fn.body.walk():
            # &fatvar would alias a span cell the dataflow passes
            # treat as exact; &slot[i] of an *expanded copy array* is
            # the hoisted base-address form and stays legal
            if isinstance(node, ast.Unary) and node.op == "&" and \
                    isinstance(node.operand, ast.Ident) and \
                    is_fat_struct(node.operand.ctype):
                ctx.finding(
                    "LINT-FATPTR-FIELD", "error",
                    f"address of a fat pointer taken in {fn.name}(); "
                    "span cells must stay unaliasable",
                    node=node,
                )
            if isinstance(node, ast.Member) and not node.arrow and \
                    is_fat_struct(node.base.ctype) and \
                    node.name not in (PTR_FIELD, SPAN_FIELD):
                ctx.finding(
                    "LINT-FATPTR-FIELD", "error",
                    "fat pointer accessed through unknown field "
                    f"{node.name!r} in {fn.name}()",
                    node=node,
                )


@rule("LINT-LOOP-SHAPE",
      "candidate loops keep their loop shape, pragma and kind")
def check_loop_shape(ctx: LintContext) -> None:
    for tl in ctx.result.loops:
        loop = tl.loop
        if not isinstance(loop, ast.LoopStmt):
            ctx.finding(
                "LINT-LOOP-SHAPE", "error",
                f"candidate loop {loop!r} is not a loop",
            )
            continue
        if not loop.pragmas:
            ctx.finding(
                "LINT-LOOP-SHAPE", "error",
                f"candidate loop {loop.label!r} lost its pragma",
                node=loop,
            )
        if tl.kind not in (DOALL, DOACROSS):
            ctx.finding(
                "LINT-LOOP-SHAPE", "error",
                f"candidate loop {loop.label!r} has kind {tl.kind!r}",
                node=loop,
            )


@rule("LINT-EXPAND-SHAPE",
      "expanded variables have their VLA or heap shape")
def check_expand_shape(ctx: LintContext) -> None:
    for evar in ctx.result.expansion.expanded_vars.values():
        decl = evar.decl
        if evar.mode == MODE_VLA:
            if not isinstance(decl.ctype, ArrayType) or \
                    decl.ctype.length is not None:
                ctx.finding(
                    "LINT-EXPAND-SHAPE", "error",
                    f"VLA-expanded {decl.name!r} has type "
                    f"{decl.ctype!r}, expected an unsized array",
                    node=decl,
                )
            elif decl.vla_length is None or \
                    not _contains_nthreads(decl.vla_length):
                ctx.finding(
                    "LINT-EXPAND-SHAPE", "error",
                    f"VLA-expanded {decl.name!r} lacks a {NTHREADS} "
                    "length",
                    node=decl,
                )
        elif evar.mode == MODE_HEAP and \
                not isinstance(decl.ctype, PointerType):
            ctx.finding(
                "LINT-EXPAND-SHAPE", "error",
                f"heap-expanded {decl.name!r} has type {decl.ctype!r}, "
                "expected a pointer",
                node=decl,
            )


@rule("LINT-INIT-FN",
      "__expand_init runs first and allocates every heapified global")
def check_init_fn(ctx: LintContext) -> None:
    heapified = [
        evar.decl for evar in ctx.result.expansion.expanded_vars.values()
        if evar.mode == MODE_HEAP and evar.decl.storage == "global"
    ]
    if not heapified:
        return
    fns = {fn.name: fn for fn in ctx.program.functions()}
    missing = [name for name in (INIT_FN_NAME, "main") if name not in fns]
    if missing:
        ctx.finding(
            "LINT-INIT-FN", "error",
            f"globals were heapified but {missing[0]}() is missing",
        )
        return
    init_fn, main = fns[INIT_FN_NAME], fns["main"]
    first = main.body.stmts[0] if main.body.stmts else None
    if not (isinstance(first, ast.ExprStmt)
            and isinstance(first.expr, ast.Call)
            and first.expr.callee_name == INIT_FN_NAME):
        ctx.finding(
            "LINT-INIT-FN", "error",
            f"main does not call {INIT_FN_NAME} as its first statement",
        )
    allocated = {
        stmt.expr.target.name
        for stmt in init_fn.body.stmts
        if isinstance(stmt, ast.ExprStmt)
        and isinstance(stmt.expr, ast.Assign)
        and isinstance(stmt.expr.target, ast.Ident)
        and isinstance(stmt.expr.value, ast.Call)
        and stmt.expr.value.callee_name == "malloc"
    }
    for decl in heapified:
        if decl.name not in allocated:
            ctx.finding(
                "LINT-INIT-FN", "error",
                f"heapified global {decl.name!r} is never allocated in "
                f"{INIT_FN_NAME}",
                node=decl,
            )


@rule("LINT-UNINIT-READ",
      "scalar locals are written before they are read")
def check_uninit_read(ctx: LintContext) -> None:
    program = ctx.program
    addr_taken: Set[int] = set()
    for fn in program.functions():
        if fn.body is None:
            continue
        for node in fn.body.walk():
            if isinstance(node, ast.Unary) and node.op == "&" and \
                    isinstance(node.operand, ast.Ident) and \
                    isinstance(node.operand.decl, ast.VarDecl):
                addr_taken.add(node.operand.decl.nid)

    for fn in program.functions():
        if fn.body is None:
            continue
        param_nids = {p.nid for p in fn.params}
        # scalar locals only: aggregates are initialized through
        # pointers/memset, globals are zero-initialized storage
        tracked: Set[int] = set()
        names: Dict[int, str] = {}
        for node in fn.body.walk():
            if isinstance(node, ast.VarDecl) and \
                    node.nid not in param_nids and \
                    node.storage != "global" and \
                    node.nid not in addr_taken and \
                    not isinstance(node.ctype, (ArrayType, StructType)):
                tracked.add(node.nid)
                names[node.nid] = node.name
        if not tracked:
            continue
        cfg = build_cfg(fn)
        analysis = ReachingDefinitions()
        reaching = solve(cfg, analysis)
        reported: Set[int] = set()
        for _block, elem in cfg.elements():
            info = analysis.info(elem)
            if not info.uses:
                continue
            facts = reaching.before(elem.nid)
            for decl_nid in info.uses & tracked:
                if decl_nid in reported:
                    continue
                defs = [site for d, site in facts if d == decl_nid]
                if defs and all(site is None for site in defs):
                    reported.add(decl_nid)
                    ctx.finding(
                        "LINT-UNINIT-READ", "warning",
                        f"{names[decl_nid]!r} in {fn.name}() is read "
                        "but only the uninitialized definition "
                        "reaches",
                        node=elem,
                    )


@rule("LINT-REANALYZE", "the transformed program re-analyzes")
def check_reanalyze(ctx: LintContext) -> None:
    # on a copy: analysis annotates in place, and a lint only reads
    clone, _nid_map = clone_program(ctx.program)
    try:
        analyze(clone)
    except SemaError as exc:
        ctx.finding(
            "LINT-REANALYZE", "error",
            f"transformed program fails re-analysis: {exc}",
        )
