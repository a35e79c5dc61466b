"""Independent parallelism-certificate checker (``LINT-CERT``).

The commutativity prover (:mod:`repro.analysis.commutative`) upgrades
conflicting access classes to the commutative class and records why in
a per-loop certificate.  Trusting the prover's own bookkeeping would
make the certificate decorative; this checker re-establishes every
claim *from scratch*, with its own algorithms, against the **output**
IR the workers will actually execute:

1. the schema version matches this checker;
2. the access-class partition re-derived by BFS over the
   loop-independent DDG edges (not the prover's union-find) matches the
   certified partition exactly;
3. every class's category is re-derived from Definition 5 facts —
   a certified ``commutative`` class must genuinely be conflicting
   (a private or independent class has nothing to merge);
4. every certified update still exists in the loop's region of the
   output IR (the loop and the callees it reaches,
   :mod:`repro.frontend.region`; located by origin), still has a
   commutative update shape of the certified op group, and — for
   DOALL — writes the ``__tid`` copy (directly or through hoisted
   locals, same resolution the race auditor uses);
5. no access of a commutative-class site in that region escapes its
   update construct;
6. the identity-initialization and merge-back code the pipeline must
   emit is structurally present around the transformed loop.

Any mismatch is a hard ``LINT-CERT`` error: either the prover claimed
something false, a later rewrite invalidated the proof, or the
certificate is stale for this IR.  Verdicts are published on
``ctx.certificates`` for the machine-readable lint report.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..analysis.commutative import (
    CERT_SCHEMA_VERSION, GROUP_MERGE_OPS, expr_equal, identity_value,
)
from ..analysis.ddg import FLOW
from ..frontend import ast
from ..frontend.region import loop_region
from ..transform.rewrite import origin_of
from . import LintContext, rule
from .races import _hoist_env, _resolves_tid

_COMPOUND_TO_GROUP = {
    "+=": "add", "-=": "add", "*=": "mul",
    "&=": "and", "|=": "or", "^=": "xor",
}
_BINARY_TO_GROUP = {
    "+": "add", "-": "add", "*": "mul",
    "&": "and", "|": "or", "^": "xor",
}
_SYMMETRIC = {"+", "*", "&", "|", "^"}


# -- independent re-derivation of the §3.2 facts ----------------------------

def _repartition(ddg) -> List[FrozenSet[int]]:
    """Access classes recomputed by connected-component BFS over the
    loop-independent edges (deliberately not the prover's union-find)."""
    adj: Dict[int, Set[int]] = {}
    for edge in ddg.independent_edges():
        adj.setdefault(edge.src, set()).add(edge.dst)
        adj.setdefault(edge.dst, set()).add(edge.src)
    seen: Set[int] = set()
    classes: List[FrozenSet[int]] = []
    for site in sorted(ddg.sites):
        if site in seen:
            continue
        comp: Set[int] = set()
        stack = [site]
        while stack:
            cur = stack.pop()
            if cur in comp:
                continue
            comp.add(cur)
            stack.extend(adj.get(cur, ()))
        seen |= comp
        classes.append(frozenset(comp))
    return classes


def _derive_category(ddg, members: FrozenSet[int]) -> str:
    """Definition 5 re-applied: ``private`` / ``free`` /
    ``conflicting`` (the latter covers certified shared *and*
    commutative — commutativity itself is checked structurally)."""
    carried_flow: Set[int] = set()
    carried_ao: Set[int] = set()
    for edge in ddg.edges:
        if not edge.carried:
            continue
        bucket = carried_flow if edge.kind == FLOW else carried_ao
        bucket.add(edge.src)
        bucket.add(edge.dst)
    exposed = members & (ddg.upward_exposed | ddg.downward_exposed)
    if exposed or members & carried_flow:
        return "conflicting"
    return "private" if members & carried_ao else "free"


# -- structural re-recognition on the output IR -----------------------------

def _update_shape(node: ast.Node) -> Optional[Tuple[str, ast.Expr]]:
    """(op group, written lvalue) if ``node`` is a commutative update
    construct; None otherwise.  Shapes mirror the prover's, but are
    matched against the *redirected* IR (lvalues already select a
    copy), so targets compare structurally, not by site."""
    if isinstance(node, ast.Assign):
        group = _COMPOUND_TO_GROUP.get(node.op)
        if group is not None:
            return group, node.target
        if node.op != "=":
            return None
        value = node.value
        while isinstance(value, ast.Cast):
            value = value.expr
        if not isinstance(value, ast.Binary):
            return None
        group = _BINARY_TO_GROUP.get(value.op)
        if group is None:
            return None
        if expr_equal(value.left, node.target):
            return group, node.target
        if value.op in _SYMMETRIC and expr_equal(value.right, node.target):
            return group, node.target
        return None
    if isinstance(node, ast.Unary) and node.op in ("++", "--", "p++", "p--"):
        return "add", node.operand
    if isinstance(node, ast.If) and node.els is None:
        cond = node.cond
        body = node.then
        if isinstance(body, ast.Block):
            if len(body.stmts) != 1:
                return None
            body = body.stmts[0]
        if not (isinstance(body, ast.ExprStmt)
                and isinstance(body.expr, ast.Assign)
                and body.expr.op == "="):
            return None
        assign = body.expr
        if not (isinstance(cond, ast.Binary)
                and cond.op in ("<", "<=", ">", ">=")):
            return None
        # accumulator on the right: if (e > lv) lv = e  keeps the max
        if expr_equal(cond.right, assign.target) and \
                expr_equal(cond.left, assign.value):
            group = "max" if cond.op in (">", ">=") else "min"
            return group, assign.target
        # accumulator on the left: if (lv < e) lv = e  keeps the max
        if expr_equal(cond.left, assign.target) and \
                expr_equal(cond.right, assign.value):
            group = "max" if cond.op in ("<", "<=") else "min"
            return group, assign.target
        return None
    return None


def _base_decl(expr: ast.Expr,
               env: Optional[Dict[str, ast.Expr]] = None,
               depth: int = 4) -> Optional[ast.VarDecl]:
    """Root VarDecl of an access chain, looking through casts, pointer
    arithmetic (``(p + __tid * span)[i]``) and — via the hoist-local
    environment — compiler-introduced ``__licm``/``__base``/``__priv``
    locals, so merge code like ``__licm5[0] += __licm5[c]`` roots at
    the accumulator it actually addresses."""
    if depth <= 0:
        return None
    while True:
        expr = expr.expr if isinstance(expr, ast.Cast) else expr
        if isinstance(expr, ast.Ident):
            init = env.get(expr.name) if env else None
            if init is not None:
                return _base_decl(init, env, depth - 1)
            return expr.decl
        if isinstance(expr, (ast.Index, ast.Member)):
            expr = expr.base
        elif isinstance(expr, ast.Unary) and expr.op == "*":
            expr = expr.operand
        elif isinstance(expr, ast.Binary) and expr.op in ("+", "-"):
            left = _base_decl(expr.left, env, depth - 1)
            if left is not None:
                return left
            expr = expr.right
        else:
            return None


def _enclosing_function(program: ast.Program,
                        target: ast.Node) -> Optional[ast.FunctionDef]:
    for fn in program.functions():
        if fn.body is None:
            continue
        if any(node is target for node in fn.body.walk()):
            return fn
    return None


def _subtree_ids(nodes: List[ast.Node]) -> Set[int]:
    out: Set[int] = set()
    for node in nodes:
        out.update(id(sub) for sub in node.walk())
    return out


def _merge_shape_ok(group: str, node: ast.Node, accum: ast.VarDecl,
                    env: Dict[str, ast.Expr]) -> bool:
    """Is ``node`` the copy-merge statement for ``accum``?  add/mul/
    bit groups fold with the group's compound op; min/max merge with a
    compare-and-assign."""
    if group in ("min", "max"):
        if not (isinstance(node, ast.If) and node.els is None):
            return False
        cond = node.cond
        return (isinstance(cond, ast.Binary)
                and cond.op == GROUP_MERGE_OPS[group]
                and _base_decl(cond.left, env) is accum
                and _base_decl(cond.right, env) is accum)
    return (isinstance(node, ast.Assign)
            and node.op == GROUP_MERGE_OPS[group]
            and _base_decl(node.target, env) is accum
            and _base_decl(node.value, env) is accum)


def _init_shape_ok(node: ast.Node, accum: ast.VarDecl, identity: int,
                   env: Dict[str, ast.Expr]) -> bool:
    return (isinstance(node, ast.Assign) and node.op == "="
            and _base_decl(node.target, env) is accum
            and isinstance(node.value, ast.IntLit)
            and node.value.value == identity)


# -- the rule ---------------------------------------------------------------

def _record(ctx: LintContext, label: str,
            cert: Optional[Dict[str, object]], verdict: str) -> None:
    ctx.certificates.append({
        "loop": label,
        "schema": None if cert is None else cert.get("schema"),
        "reductions": [] if cert is None else [
            {"name": r.get("name"), "op": r.get("op")}
            for r in cert.get("reductions", ())
        ],
        "verdict": verdict,
    })


def _verify_loop(ctx: LintContext, tl, cert: Dict[str, object],
                 env: Dict[str, ast.Expr]) -> bool:
    label = tl.loop.label
    ddg = tl.profile.ddg
    ok = True

    def fail(message: str, node: Optional[ast.Node] = None, **data):
        nonlocal ok
        ok = False
        ctx.finding("LINT-CERT", "error",
                    f"certificate for loop {label!r}: {message}",
                    node=node, loop=label, **data)

    if cert.get("schema") != CERT_SCHEMA_VERSION:
        fail(f"schema {cert.get('schema')!r} does not match checker "
             f"schema {CERT_SCHEMA_VERSION}")
        return False

    # 1. the partition, re-derived by BFS
    derived = set(_repartition(ddg))
    certified = {frozenset(c["members"]) for c in cert.get("classes", ())}
    if derived != certified:
        fail("access-class partition does not match the "
             "loop-independent dependence closure of the DDG")

    # 2. per-class category + the site map
    commutative_reps: Set[int] = set()
    commutative_sites: Set[int] = set()
    sites_map = cert.get("sites", {})
    for cls in cert.get("classes", ()):
        members = frozenset(cls["members"])
        category = cls["category"]
        if members in derived:
            truth = _derive_category(ddg, members)
            expected = {"private": ("private",), "free": ("free",),
                        "shared": ("conflicting",),
                        "commutative": ("conflicting",)}.get(category, ())
            if truth not in expected:
                fail(f"class {sorted(members)} certified "
                     f"{category!r} but Definition 5 re-derives "
                     f"{truth!r}")
        if category == "commutative":
            commutative_reps.add(cls["representative"])
            commutative_sites |= members
        for site in members:
            if sites_map.get(str(site)) != category:
                fail(f"site {site} mapped to "
                     f"{sites_map.get(str(site))!r} but its class is "
                     f"{category!r}")

    # 3. every commutative class is explained by exactly one reduction
    explained: Dict[int, int] = {}
    for red in cert.get("reductions", ()):
        for rep in red.get("classes", ()):
            explained[rep] = explained.get(rep, 0) + 1
    for rep in sorted(commutative_reps):
        if explained.get(rep, 0) != 1:
            fail(f"commutative class {rep} is covered by "
                 f"{explained.get(rep, 0)} reduction proofs "
                 "(need exactly one)")

    # 4. re-verify each certified update on the output IR
    enforce_tid = tl.kind == "doall"
    update_nodes: List[ast.Node] = []
    inside = {id(n) for n in tl.loop.walk()}
    fn = _enclosing_function(ctx.program, tl.loop)
    # certified updates may live in callees reached from the loop
    region = loop_region(tl.loop, ctx.sema.functions).nodes
    for red in cert.get("reductions", ()):
        group = red.get("op")
        accum: Optional[ast.VarDecl] = None
        for upd in red.get("updates", ()):
            origin = upd.get("origin")
            found = [n for n in region
                     if origin_of(n) == origin
                     and isinstance(n, (ast.Assign, ast.Unary, ast.If))]
            # the anchor survives rewrites as the outermost node still
            # carrying the origin; nested matches are its own children
            anchors = [n for n in found
                       if not any(other is not n
                                  and any(sub is n for sub in other.walk())
                                  for other in found)]
            if not anchors:
                fail(f"certified {group} update (origin {origin}) is "
                     "missing from the output IR")
                continue
            for node in anchors:
                shape = _update_shape(node)
                if shape is None or shape[0] != group:
                    fail(f"update at origin {origin} is no longer a "
                         f"commutative {group!r} update in the output "
                         "IR", node=node)
                    continue
                target = shape[1]
                if enforce_tid and not _resolves_tid(target, env):
                    fail(f"{group} update at origin {origin} does not "
                         "select the __tid copy: workers would share "
                         "one accumulator", node=node)
                    continue
                update_nodes.append(node)
                accum = accum or _base_decl(target, env)

        # 5. identity init + merge-back must exist around the loop
        if accum is None or fn is None:
            continue
        expected_identity = red.get("identity")
        elem = accum.ctype
        # expanded storage is a pointer (heap) or extra-dim array (VLA)
        while hasattr(elem, "pointee") or hasattr(elem, "elem"):
            elem = getattr(elem, "pointee", None) or elem.elem
        try:
            recomputed = identity_value(group, elem)
        except (ValueError, AttributeError):
            recomputed = None
        if recomputed is not None and recomputed != expected_identity:
            fail(f"reduction {red.get('name')!r} certifies identity "
                 f"{expected_identity} but op {group!r} over "
                 f"{accum.ctype} has identity {recomputed}")
        outside = [n for n in fn.body.walk() if id(n) not in inside]
        if not any(_init_shape_ok(n, accum, expected_identity, env)
                   for n in outside):
            fail(f"no identity initialization of {red.get('name')!r} "
                 f"copies (= {expected_identity}) before the loop")
        if not any(_merge_shape_ok(group, n, accum, env)
                   for n in outside):
            fail(f"no merge-back of {red.get('name')!r} copies "
                 f"({GROUP_MERGE_OPS.get(group)!r}) after the loop")

    # 6. no commutative-class access outside a verified update
    allowed = _subtree_ids(update_nodes)
    for node in region:
        if origin_of(node) in commutative_sites and id(node) not in allowed:
            fail(f"access at origin {origin_of(node)} belongs to a "
                 "commutative class but sits outside every certified "
                 "update construct", node=node)

    return ok


@rule("LINT-CERT",
      "parallelism certificates re-verify on the output IR")
def check_certificates(ctx: LintContext) -> None:
    env = _hoist_env(ctx.program)
    for tl in ctx.result.loops:
        label = tl.loop.label
        cert = getattr(tl, "certificate", None)
        commutative = getattr(tl.priv, "commutative_sites", None)
        if cert is None:
            if commutative:
                ctx.finding(
                    "LINT-CERT", "error",
                    f"loop {label!r} has commutative-class sites but "
                    "no parallelism certificate was emitted",
                    loop=label,
                )
                _record(ctx, label, None, "missing")
            continue
        ok = _verify_loop(ctx, tl, cert, env)
        _record(ctx, label, cert, "verified" if ok else "failed")
