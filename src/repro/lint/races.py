"""Static privatization race auditor.

The transform's whole correctness argument is that redirected private
accesses of distinct virtual threads land in distinct copies.  The
auditor proves that claim structurally, on the output IR:

* ``LINT-RACE-TID-FORM`` — every ``__tid`` occurrence in the program
  must sit in a well-formed copy-selection position.  Decompose the
  maximal arithmetic expression around the occurrence into additive
  terms: the term containing ``__tid`` must either be the bare
  ``__tid`` copy index (alone as a subscript, or next to
  ``__nthreads``-strided terms in the interleaved ``a[i*N + tid]``
  form) or a multiplicative chain ``__tid * span-factor [/ divisor]``
  with ``__tid`` appearing exactly once as a bare factor.  Any other
  shape — notably the ``__tid + 1`` skew
  :class:`repro.runtime.faults.CopyIndexSkew` injects — aims two
  threads at overlapping copies.

* ``LINT-RACE-PRIVATE-COPY`` — every private store site in a
  candidate loop's region (the loop and every callee it reaches,
  :mod:`repro.frontend.region`) whose points-to objects were expanded
  must actually select the ``__tid`` copy — an expanded local's
  materialised initializer and a parameter's seed included: its
  target either mentions ``__tid``
  directly or roots at a hoisted local (``__privN``/``__baseN``)
  whose initializer resolves to ``__tid`` through the symbolic
  environment of loop-top declarations.  Copy-0 (shared) stores need
  no proof here: a DOALL loop has no carried dependence at shared
  sites by classification, and DOACROSS serializes them.

* ``LINT-RACE-CLASS-SPLIT`` — the §3.2 invariant re-checked on the
  output: a loop-independent dependence must never connect a
  privatized endpoint to a non-privatized one (privatizing one side
  would read the wrong copy within a single iteration).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..frontend import ast
from ..frontend.region import loop_region
from ..transform.expand import NTHREADS, TID
from ..transform.rewrite import origin_of
from . import LintContext, rule

#: compiler-introduced locals whose initializers embed copy selection
_HOIST_PREFIXES = ("__priv", "__base", "__licm")


def _strip(expr: ast.Expr) -> ast.Expr:
    while isinstance(expr, ast.Cast):
        expr = expr.expr
    return expr


def _is_tid(expr: ast.Expr) -> bool:
    expr = _strip(expr)
    return isinstance(expr, ast.Ident) and expr.name == TID


_ARITH_OPS = ("+", "-", "*", "/")


def _arith_tid_count(expr: ast.Expr) -> int:
    """``__tid`` reads in the *arithmetic skeleton* of ``expr``.

    Opaque subtrees (subscripts, members, calls) are not counted: a
    factor like ``mx[__tid].span`` legitimately embeds a copy index of
    its own, and that occurrence is audited separately at its own
    arithmetic root."""
    expr = _strip(expr)
    if isinstance(expr, ast.Ident):
        return 1 if expr.name == TID else 0
    if isinstance(expr, ast.Binary) and expr.op in _ARITH_OPS:
        return _arith_tid_count(expr.left) + _arith_tid_count(expr.right)
    return 0


def _additive_terms(expr: ast.Expr) -> List[ast.Expr]:
    expr = _strip(expr)
    if isinstance(expr, ast.Binary) and expr.op in ("+", "-"):
        return _additive_terms(expr.left) + _additive_terms(expr.right)
    return [expr]


def _factors(expr: ast.Expr) -> Tuple[List[ast.Expr], List[ast.Expr]]:
    """Multiplicative decomposition: (numerator factors, divisors)."""
    expr = _strip(expr)
    if isinstance(expr, ast.Binary) and expr.op == "*":
        ln, ld = _factors(expr.left)
        rn, rd = _factors(expr.right)
        return ln + rn, ld + rd
    if isinstance(expr, ast.Binary) and expr.op == "/":
        ln, ld = _factors(expr.left)
        return ln, ld + [expr.right]
    return [expr], []


def _has_nthreads_factor(term: ast.Expr) -> bool:
    num, _div = _factors(term)
    return any(
        isinstance(_strip(f), ast.Ident)
        and _strip(f).name == NTHREADS
        for f in num
    )


def _arith_root(ancestors: List[ast.Node]) -> Optional[ast.Expr]:
    """Outermost node of the unbroken arithmetic region around a
    ``__tid`` read: climb through casts and + - * / binaries; stop at
    any other node (subscripts, members, calls, comparisons all bound
    the copy-selection expression)."""
    root: Optional[ast.Expr] = None
    for node in reversed(ancestors):
        if isinstance(node, ast.Cast) or (
            isinstance(node, ast.Binary) and node.op in _ARITH_OPS
        ):
            root = node
        else:
            break
    return root


def _term_of(terms: List[ast.Expr], tid_node: ast.Ident) -> ast.Expr:
    for term in terms:
        if any(sub is tid_node for sub in term.walk()):
            return term
    return tid_node  # unreachable: tid_node is within one term


def _check_occurrence(ctx: LintContext, fn: ast.FunctionDef,
                      tid_node: ast.Ident,
                      ancestors: List[ast.Node]) -> None:
    root = _arith_root(ancestors)
    if root is None:
        # bare __tid with no surrounding arithmetic: the whole-subscript
        # copy index x[__tid] (or a direct copy-index binding)
        return
    terms = _additive_terms(root)
    term = _term_of(terms, tid_node)
    ok = False
    if _is_tid(term):
        if len(terms) == 1:
            ok = True  # pure copy index
        else:
            # interleaved a[i*N + tid]: every other term is N-strided
            ok = all(
                _has_nthreads_factor(t) for t in terms
                if t is not term
            )
    else:
        num, divs = _factors(term)
        bare = [f for f in num if _is_tid(f)]
        ok = (
            len(bare) == 1
            and _arith_tid_count(term) == 1
            and not any(_arith_tid_count(d) for d in divs)
        )
    if not ok:
        ctx.finding(
            "LINT-RACE-TID-FORM", "error",
            f"{TID} in {fn.name}() is not in copy-selection form "
            f"(expected bare {TID}, {TID} * span, or an "
            f"{NTHREADS}-strided interleaved index): two threads can "
            "select overlapping copies",
            node=tid_node,
        )


@rule("LINT-RACE-TID-FORM",
      "__tid only appears in well-formed copy selection")
def check_tid_form(ctx: LintContext) -> None:
    for fn in ctx.program.functions():
        if fn.body is None:
            continue

        def walk(node: ast.Node, ancestors: List[ast.Node]) -> None:
            if isinstance(node, ast.Ident) and node.name == TID:
                _check_occurrence(ctx, fn, node, ancestors)
                return
            ancestors.append(node)
            for child in node.children():
                if isinstance(child, ast.Node):
                    walk(child, ancestors)
            ancestors.pop()

        walk(fn.body, [])


def _hoist_env(program: ast.Program) -> Dict[str, ast.Expr]:
    """Initializers of compiler-introduced hoist locals, by name (the
    pipeline numbers them globally, so names are unique program-wide)."""
    env: Dict[str, ast.Expr] = {}
    for fn in program.functions():
        if fn.body is None:
            continue
        for node in fn.body.walk():
            if isinstance(node, ast.VarDecl) and \
                    node.name.startswith(_HOIST_PREFIXES) and \
                    isinstance(node.init, ast.Expr):
                env[node.name] = node.init
    return env


def _resolves_tid(expr: ast.Expr, env: Dict[str, ast.Expr],
                  depth: int = 4) -> bool:
    """Does ``expr`` read ``__tid``, directly or through the
    initializer of a hoisted local?"""
    if depth <= 0:
        return False
    for node in expr.walk():
        if not isinstance(node, ast.Ident):
            continue
        if node.name == TID:
            return True
        init = env.get(node.name)
        if init is not None and _resolves_tid(init, env, depth - 1):
            return True
    return False


@rule("LINT-RACE-PRIVATE-COPY",
      "private stores resolve to the __tid copy")
def check_private_copy(ctx: LintContext) -> None:
    result = ctx.result
    if ctx.pointsto is None or not result.loops:
        return
    env = _hoist_env(ctx.program)
    expansion_objs = result.expansion_objs
    for tl in result.loops:
        private_sites = tl.priv.private_sites
        region = loop_region(tl.loop, ctx.sema.functions).nodes
        # the transform materialises an expanded local's initializer (and
        # a parameter's seed) as an Assign carrying the VarDecl's origin
        locals_ = {origin_of(n) for n in region
                   if isinstance(n, ast.VarDecl) and n.storage == "local"}
        for node in region:
            target: Optional[ast.Expr] = None
            if isinstance(node, ast.Assign):
                target = node.target
            elif isinstance(node, ast.Unary) and node.op in (
                "++", "--", "p++", "p--"
            ):
                target = node.operand
            if target is None:
                continue
            origin = origin_of(node)
            if isinstance(node, ast.Assign) and origin in locals_:
                # a store to the variable itself, profiled at the
                # initializer expression (or the parameter binding)
                sites = {origin, origin_of(node.value)}
                objs = {("var", origin)}
            else:
                sites = {origin}
                objs = ctx.pointsto.objects_of_access(origin)
            if not sites & private_sites:
                continue
            if not objs & expansion_objs:
                continue  # not backed by expanded storage
            if _resolves_tid(target, env):
                continue
            ctx.finding(
                "LINT-RACE-PRIVATE-COPY", "error",
                f"private store in loop {tl.loop.label!r} writes "
                f"expanded storage without selecting the {TID} copy: "
                "all threads would write the same bytes",
                node=node, loop=tl.loop.label,
            )


@rule("LINT-RACE-CLASS-SPLIT",
      "loop-independent dependences are never split by privatization")
def check_class_split(ctx: LintContext) -> None:
    for tl in ctx.result.loops:
        private = tl.priv.private_sites
        reported: Set[Tuple[int, int]] = set()
        for edge in tl.profile.ddg.edges:
            if edge.carried:
                continue
            src_priv = edge.src in private
            dst_priv = edge.dst in private
            if src_priv == dst_priv:
                continue
            key = (edge.src, edge.dst)
            if key in reported:
                continue
            reported.add(key)
            ctx.finding(
                "LINT-RACE-CLASS-SPLIT", "error",
                f"loop {tl.loop.label!r}: loop-independent "
                f"{edge.kind} dependence {edge.src}->{edge.dst} "
                "connects a privatized access to a shared one "
                "(§3.2 forbids privatizing one side)",
                loop=tl.loop.label,
            )
