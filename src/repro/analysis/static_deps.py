"""Conservative *static* loop dependence analysis.

The paper justifies its use of dependence profiling bluntly: "current
compile-time data dependence analysis algorithms are still too
conservative and they report false positives that prevent loop
parallelization" (§4.1).  This module implements such a compile-time
analysis so the claim is demonstrable inside this repository: build the
static DDG for a candidate loop, feed it to the same Definition 4/5
machinery, and watch privatization opportunities disappear under
may-alias conservatism (see ``benchmarks/test_static_vs_profiled.py``).

The analysis is deliberately representative of what a production
compiler can justify without runtime information:

* memory accesses are resolved to *object sets* via the Andersen
  points-to analysis (may-alias);
* two accesses to overlapping object sets where at least one writes
  are assumed dependent — both loop-independent **and** loop-carried
  (no dependence-distance reasoning for pointer-based structures, which
  is precisely the paper's starting point);
* the only subscript precision implemented is the classic ZIV/SIV test
  on direct array accesses ``a[c]`` / ``a[i*s + c]`` with the loop's
  own induction variable: equal-stride affine accesses with distinct
  constants are independent, and identical subscripts are
  loop-independent only.  Anything else falls back to "assume both".
* upward/downward exposure is approximated from reachability: a read
  of an object written before the loop is assumed exposed; a write to
  an object read after the loop is assumed downward-exposed.

The result type is the same :class:`~repro.analysis.ddg.DDG`, so every
downstream consumer (classes, Definition 5, breakdown) works unchanged.

Soundness contract (checked by ``tests/test_static_soundness.py``): the
static DDG is an *over-approximation* of anything the profiler can
observe.  Every dynamically profiled access site is a static site, and
every profiled dependence edge has a static counterpart with the same
endpoints, kind, and carried flag.  To honour the contract the collector
mirrors the interpreter's site vocabulary exactly: stores at ``Assign``
nids, ``++/--`` stores at the ``Unary`` nid, parameter-binding stores at
``param.nid``, initializer stores at ``init.nid``, builtin memory
operations (``memset``/``memcpy``/``memmove``/``strlen``/``calloc``) at
the ``Call`` nid, and loads at every non-array ``Ident``/``Index``/
``Member``/deref nid.  Loop-control accesses stay in the site set but
are exempt from edges and exposure, matching the profiler's byte-level
exemption of the induction variable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..frontend import ast
from ..frontend.sema import SemaResult
from .ddg import ANTI, DDG, FLOW, OUTPUT
from .pointsto import Obj, PointsToResult, analyze_pointsto
from .profiler import find_control_decl


class StaticAccess:
    """One static memory access site inside the candidate loop."""

    __slots__ = ("site", "is_store", "objs", "affine")

    def __init__(self, site: int, is_store: bool, objs: Set[Obj],
                 affine: Optional[Tuple[object, int, int]]):
        self.site = site
        self.is_store = is_store
        self.objs = objs
        #: (array object, stride, offset) for a[i*stride + offset] with
        #: the candidate loop's induction variable, else None
        self.affine = affine


def _affine_subscript(expr: ast.Index, control: Optional[ast.VarDecl]):
    """Recognize ``a[c]`` and ``a[i*s + c]`` over a direct array."""
    base = expr.base
    if not (isinstance(base, ast.Ident)
            and isinstance(base.decl, ast.VarDecl)
            and base.decl.ctype.is_array):
        return None
    obj: Obj = ("var", base.decl.nid)
    idx = expr.index

    def const_of(e) -> Optional[int]:
        return e.value if isinstance(e, ast.IntLit) else None

    if isinstance(idx, ast.IntLit):
        return (obj, 0, idx.value)
    if control is None:
        return None
    if isinstance(idx, ast.Ident) and idx.decl is control:
        return (obj, 1, 0)
    if isinstance(idx, ast.Binary) and idx.op in ("+", "-"):
        left, right = idx.left, idx.right
        sign = 1 if idx.op == "+" else -1
        for a, b, flip in ((left, right, False), (right, left, True)):
            c = const_of(b)
            if c is None:
                continue
            if flip and idx.op == "-":
                continue  # c - i*s: not handled
            inner = _affine_term(a, control)
            if inner is not None:
                return (obj, inner, sign * c if not flip else c)
    stride = _affine_term(idx, control)
    if stride is not None:
        return (obj, stride, 0)
    return None


def _affine_term(expr, control) -> Optional[int]:
    """``i`` -> 1, ``i*c``/``c*i`` -> c."""
    if isinstance(expr, ast.Ident) and expr.decl is control:
        return 1
    if isinstance(expr, ast.Binary) and expr.op == "*":
        for a, b in ((expr.left, expr.right), (expr.right, expr.left)):
            if isinstance(a, ast.Ident) and a.decl is control and \
                    isinstance(b, ast.IntLit):
                return b.value
    return None


#: builtins whose interpreter implementation traces accesses at the
#: ``Call`` node's nid (see ``repro.interp.builtins``)
_MEM_BUILTINS = {
    "memset": (True, False),    # (stores, loads)
    "memcpy": (True, True),
    "memmove": (True, True),
    "strlen": (False, True),
}


def _init_store_leaves(init) -> List[ast.Expr]:
    """Leaf expressions of an initializer; each is one store site
    (the machine stores brace initializers element-wise at the leaf
    expression's nid)."""
    if isinstance(init, list):
        out: List[ast.Expr] = []
        for item in init:
            out.extend(_init_store_leaves(item))
        return out
    return [init]


def _collect_accesses(
    loop: ast.LoopStmt,
    pointsto: PointsToResult,
    control: Optional[ast.VarDecl],
    called_fns: Dict[str, ast.FunctionDef],
) -> List[StaticAccess]:
    out: List[StaticAccess] = []
    seen_fns: Set[str] = set()

    def visit(root: ast.Node) -> None:
        for node in root.walk():
            if isinstance(node, ast.Assign):
                objs = pointsto.objects_of_access(node.nid)
                if objs:
                    affine = _affine_subscript(node.target, control) \
                        if isinstance(node.target, ast.Index) else None
                    out.append(StaticAccess(node.nid, True, objs, affine))
            elif isinstance(node, ast.VarDecl):
                # a local declaration executed inside the loop stores its
                # initializer (site: the initializer expression's nid)
                if node.init is not None:
                    obj: Obj = ("var", node.nid)
                    for leaf in _init_store_leaves(node.init):
                        out.append(StaticAccess(leaf.nid, True, {obj}, None))
            elif isinstance(node, ast.Unary) and node.op in (
                "++", "--", "p++", "p--"
            ):
                operand = node.operand
                if isinstance(operand, ast.Ident) and \
                        isinstance(operand.decl, ast.VarDecl):
                    # increment of a variable writes the variable itself,
                    # not what it points to
                    objs: Set[Obj] = {("var", operand.decl.nid)}
                else:
                    objs = pointsto.objects_of_access(operand.nid) or set()
                if objs:
                    out.append(StaticAccess(node.nid, True, objs, None))
            elif isinstance(node, (ast.Index, ast.Member)) or (
                isinstance(node, ast.Unary) and node.op == "*"
            ):
                if _is_load_position(node):
                    objs = pointsto.objects_of_access(node.nid)
                    if objs:
                        affine = _affine_subscript(node, control) \
                            if isinstance(node, ast.Index) else None
                        out.append(
                            StaticAccess(node.nid, False, objs, affine)
                        )
            elif isinstance(node, ast.Ident) and \
                    isinstance(node.decl, ast.VarDecl) and \
                    not node.decl.ctype.is_array and _is_load_position(node):
                # the machine loads every non-array identifier (scalars,
                # pointers, struct blobs); arrays decay without a load
                out.append(StaticAccess(
                    node.nid, False, {("var", node.decl.nid)}, None
                ))
            elif isinstance(node, ast.Call) and node.callee_name:
                name = node.callee_name
                if name in _MEM_BUILTINS:
                    stores, loads = _MEM_BUILTINS[name]
                    objs = pointsto.objects_of_access(node.nid) or set()
                    if objs:
                        if stores:
                            out.append(
                                StaticAccess(node.nid, True, objs, None))
                        if loads:
                            out.append(
                                StaticAccess(node.nid, False, objs, None))
                elif name == "calloc":
                    # calloc zero-fills its fresh heap object
                    out.append(StaticAccess(
                        node.nid, True, {("heap", node.nid)}, None
                    ))
                fn = called_fns.get(name)
                if fn is not None and name not in seen_fns:
                    seen_fns.add(name)
                    # parameter binding stores the argument values
                    for param in fn.params:
                        out.append(StaticAccess(
                            param.nid, True, {("var", param.nid)}, None
                        ))
                    visit(fn.body)

    visit(loop.body)
    # the machine evaluates the loop condition (and, for ``for`` loops,
    # the step) while profiling is active; the ``for`` init runs before
    if loop.cond is not None:
        visit(loop.cond)
    if isinstance(loop, ast.For) and loop.step is not None:
        visit(loop.step)
    return out


def _is_load_position(node: ast.Node) -> bool:
    """Approximation: we cannot see parents, so treat every lvalue-form
    expression as a load too; store sites are added separately from
    Assign nodes.  Conservative (extra loads only strengthen deps)."""
    return True


def _step_delta(loop: ast.LoopStmt,
                control: Optional[ast.VarDecl]) -> Optional[int]:
    """Constant per-iteration increment of the canonical induction
    variable, or None when the step is not a recognized constant
    advance (in which case affine subscript reasoning is disabled)."""
    if control is None or not isinstance(loop, ast.For) or loop.step is None:
        return None
    step = loop.step
    if isinstance(step, ast.Unary):
        if step.op in ("++", "p++"):
            return 1
        if step.op in ("--", "p--"):
            return -1
        return None
    if isinstance(step, ast.Assign) and isinstance(step.target, ast.Ident) \
            and step.target.decl is control:
        if step.op in ("+=", "-=") and isinstance(step.value, ast.IntLit):
            c = step.value.value
            return c if step.op == "+=" else -c
        if step.op == "=" and isinstance(step.value, ast.Binary) and \
                step.value.op in ("+", "-"):
            left, right = step.value.left, step.value.right
            if isinstance(left, ast.Ident) and left.decl is control and \
                    isinstance(right, ast.IntLit):
                return right.value if step.value.op == "+" else -right.value
            if step.value.op == "+" and isinstance(right, ast.Ident) and \
                    right.decl is control and isinstance(left, ast.IntLit):
                return left.value
    return None


def build_static_ddg(
    program: ast.Program,
    sema: SemaResult,
    loop: ast.LoopStmt,
    pointsto: Optional[PointsToResult] = None,
) -> DDG:
    """A conservative compile-time DDG for ``loop`` (see module doc)."""
    if pointsto is None:
        pointsto = analyze_pointsto(program, sema)
    control = find_control_decl(loop)
    delta = _step_delta(loop, control)
    # affine distance reasoning is only meaningful when the induction
    # variable advances by a known constant every iteration
    affine_control = control if delta else None
    called = dict(sema.functions)
    accesses = _collect_accesses(loop, pointsto, affine_control, called)

    ddg = DDG()
    control_obj = ("var", control.nid) if control is not None else None

    def scheduler_owned(acc: StaticAccess) -> bool:
        # induction-variable accesses stay in the site set (the profiler
        # records them too) but carry no edges or exposure: the parallel
        # scheduler rebinds the control variable per chunk
        return control_obj is not None and acc.objs == {control_obj}

    for acc in accesses:
        ddg.add_site(acc.site, acc.is_store)

    # exposure approximation: reads of objects that exist before the
    # loop (globals, heap allocated earlier, locals of enclosing fns)
    # are upward-exposed; writes to objects readable after are downward
    for acc in accesses:
        if scheduler_owned(acc):
            continue
        if not acc.is_store:
            ddg.upward_exposed.add(acc.site)
        else:
            ddg.downward_exposed.add(acc.site)

    for i, a in enumerate(accesses):
        if scheduler_owned(a):
            continue
        for b in accesses[i:]:
            if scheduler_owned(b):
                continue
            if not (a.is_store or b.is_store):
                continue
            if not (a.objs & b.objs):
                continue
            for src, dst, kind, carried in _dep_edges(a, b, delta):
                ddg.add_edge(src, dst, kind, carried)
    return ddg


def _dep_kinds(a: StaticAccess, b: StaticAccess,
               delta: Optional[int] = None):
    """Which carried flags to assume between two may-aliasing accesses.

    Returns the list of carried options (possibly empty when the affine
    test proves the accesses disjoint).  With a known constant step
    ``delta``, ``a[i*s + c1]`` vs ``a[i*s + c2]`` collide exactly when
    ``s*delta`` divides ``c2 - c1`` — and then only across iterations."""
    if a.affine is not None and b.affine is not None and \
            a.affine[0] == b.affine[0]:
        _obj, s1, c1 = a.affine
        _obj2, s2, c2 = b.affine
        if s1 == s2:
            diff = c2 - c1
            advance = s1 * delta if delta else 0
            if advance == 0:
                # loop-invariant subscripts: same element every iteration
                if diff != 0:
                    return []
                return [False, True]
            if diff == 0:
                return [False]      # identical subscript: same-iter only
            if diff % advance == 0:
                return [True]       # constant-distance, cross-iteration
            return []               # never the same element
        return [False, True]
    return [False, True]            # assume everything


def _dep_edges(a: StaticAccess, b: StaticAccess, delta: Optional[int]):
    """Directed dependence edges to assume between ``a`` and ``b``.

    Static analysis does not order the two accesses, so a store/load
    pair yields both the flow (store→load) and anti (load→store)
    directions; store/store pairs yield output dependences both ways."""
    carried_opts = _dep_kinds(a, b, delta)
    edges = []
    for carried in carried_opts:
        if a.is_store and b.is_store:
            edges.append((a.site, b.site, OUTPUT, carried))
            if a.site != b.site:
                edges.append((b.site, a.site, OUTPUT, carried))
        elif a.is_store or b.is_store:
            store, load = (a, b) if a.is_store else (b, a)
            edges.append((store.site, load.site, FLOW, carried))
            edges.append((load.site, store.site, ANTI, carried))
    return edges


def static_parallelizability_report(
    program: ast.Program,
    sema: SemaResult,
    loop: ast.LoopStmt,
) -> Dict[str, object]:
    """Compare what Definition 5 finds with the static vs profiled DDG.

    Returns counts a report/bench can render: the number of
    thread-private sites under each graph, and whether the static
    graph's conservatism blocks privatization entirely (the paper's
    §4.1 claim)."""
    from .access_classes import build_access_classes
    from .commutative import upgrade_commutative
    from .privatization import classify
    from .profiler import profile_loop

    static_ddg = build_static_ddg(program, sema, loop)
    static_priv = classify(static_ddg, build_access_classes(static_ddg))

    # the profiled side is classified as the pipeline classifies it,
    # commutative reductions included
    profile = profile_loop(program, sema, loop)
    dynamic_priv = classify(
        profile.ddg, build_access_classes(profile.ddg)
    )
    upgrade_commutative(program, sema, loop, profile, dynamic_priv)
    return {
        "static_sites": len(static_ddg.sites),
        "static_private": len(static_priv.private_sites),
        "static_carried_edges": sum(
            1 for e in static_ddg.edges if e.carried
        ),
        "profiled_sites": len(profile.ddg.sites),
        "profiled_private": len(dynamic_priv.private_sites),
        "profiled_carried_edges": sum(
            1 for e in profile.ddg.edges if e.carried
        ),
    }
