"""Static commutativity prover: the *commutative* access class.

The paper's Definition 5 must reject any access class touched by a
loop-carried flow dependence — even when every conflicting update is a
commutative reduction (``+=``, ``min``/``max``, histogram bumps) whose
per-thread copies could simply be merged at loop exit.  This module
extends the §3.2 partition with a fourth class: an interprocedural
reduction-pattern recognizer proves, over the existing CFG + monotone
dataflow stack, that every access of a conflicting class is one of a
fixed set of commutative update shapes on a single *accumulator*
variable, that the accumulator is never otherwise read or written
inside the loop (on any static path, dead code included), and that no
other access in the loop can alias its storage.  Proven classes are
upgraded in place: their sites join ``private_sites`` (so expansion
gives each worker a privatized copy) and ``commutative_sites`` (so the
pipeline emits identity-initialization and merge-back code, and the
retry auditor knows the updates are *not* idempotent).

Every upgrade is recorded in a serializable **parallelism
certificate** (:func:`build_certificate`): the class assignment of
every access site, the reduction op and identity element per
accumulator, and the dataflow facts the proof used.  The certificate is
re-verified from scratch on the *output* IR by the independent checker
in :mod:`repro.lint.certify` — this module proves, that module audits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..frontend import ast
from ..frontend.ctypes import ArrayType, IntType
from ..frontend.region import loop_region
from ..frontend.sema import SemaResult
from .cfg import build_cfg, build_loop_body_cfg
from .dataflow import (
    ReachingDefinitions, ReductionValueFlow, reduction_taints, solve,
)
from .pointsto import PointsToResult, analyze_pointsto
from .privatization import ClassInfo, PrivatizationResult
from .profiler import LoopProfile

#: bump on any change to the certificate JSON layout *or* to the proof
#: obligations behind it; the staged pipeline folds this into the
#: classify-stage content key, so cached stages can never skip re-proof
CERT_SCHEMA_VERSION = 1

#: blocker string Definition 5 emits for an otherwise-independent class
FREE_BLOCKER = "no loop-carried anti/output dependence"

# -- reduction op groups ----------------------------------------------------
#: group -> compound-assignment operators that realize it
GROUP_COMPOUND_OPS = {
    "add": ("+=", "-="),
    "mul": ("*=",),
    "and": ("&=",),
    "or": ("|=",),
    "xor": ("^=",),
}
#: group -> the binary operators of the ``lv = lv op e`` spelling
GROUP_BINARY_OPS = {
    "add": ("+", "-"),
    "mul": ("*",),
    "and": ("&",),
    "or": ("|",),
    "xor": ("^",),
}
#: operator of the copy-merge statement the pipeline emits per group
GROUP_MERGE_OPS = {
    "add": "+=", "mul": "*=", "and": "&=", "or": "|=", "xor": "^=",
    # min/max merge with a compare-and-assign, not a compound op
    "min": "<", "max": ">",
}

_COMPOUND_TO_GROUP = {
    op: group for group, ops in GROUP_COMPOUND_OPS.items() for op in ops
}
_BINARY_TO_GROUP = {
    op: group for group, ops in GROUP_BINARY_OPS.items() for op in ops
}
#: binary ops where ``lv`` may appear on either side
_SYMMETRIC_OPS = {"+", "*", "&", "|", "^"}


def identity_value(group: str, elem_type: IntType) -> int:
    """The identity element non-zero copies are initialized to."""
    if group in ("add", "or", "xor"):
        return 0
    if group == "mul":
        return 1
    if group == "and":
        return -1  # all-ones in any signed width (wraps per elem_type)
    if group == "min":
        return elem_type.max_value
    if group == "max":
        return elem_type.min_value
    raise ValueError(f"unknown reduction group {group!r}")


class Update:
    """One recognized commutative update of an accumulator."""

    #: forms the recognizer accepts
    COMPOUND = "compound"   # lv op= e
    INCDEC = "incdec"       # lv++ / lv-- (pre or post)
    ASSIGN = "assign"       # lv = lv op e  (or  lv = e op lv, op commutative)
    GUARD = "guard"         # if (e REL lv) lv = e;   (min/max)

    def __init__(self, root: ast.VarDecl, group: str, form: str,
                 node: ast.Node, sites: Set[int], elems: Set[int],
                 store_nids: Set[int], consumed: Set[int]):
        self.root = root
        self.group = group
        self.form = form
        #: the update's anchor node (Assign / Unary / If)
        self.node = node
        #: DDG site nids this update generates (load + store attribution)
        self.sites = sites
        #: CFG element nids allowed to touch the accumulator
        self.elems = elems
        #: element nids that *define* the accumulator (reaching-defs check)
        self.store_nids = store_nids
        #: ids() of the accumulator Ident occurrences inside this update
        self.consumed = consumed


class ReductionInfo:
    """Everything the pipeline and the certificate need for one proven
    accumulator."""

    def __init__(self, root: ast.VarDecl, group: str,
                 updates: List[Update], class_reps: List[int],
                 facts: Dict[str, object]):
        self.root = root
        self.root_origin = root.nid  # proof runs on the original program
        self.name = root.name
        self.group = group
        self.updates = updates
        self.class_reps = class_reps
        self.facts = facts
        ctype = root.ctype
        if isinstance(ctype, ArrayType):
            self.is_array = True
            self.length = ctype.length
            self.elem_type = ctype.elem
        else:
            self.is_array = False
            self.length = 1
            self.elem_type = ctype
        self.identity = identity_value(group, self.elem_type)

    @property
    def sites(self) -> Set[int]:
        out: Set[int] = set()
        for u in self.updates:
            out |= u.sites
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "root": self.root_origin,
            "name": self.name,
            "op": self.group,
            "identity": self.identity,
            "is_array": self.is_array,
            "length": self.length,
            "elem": repr(self.elem_type),
            "updates": [
                {"origin": u.node.nid, "form": u.form,
                 "sites": sorted(u.sites)}
                for u in self.updates
            ],
            "classes": sorted(self.class_reps),
            "facts": self.facts,
        }

    def __repr__(self) -> str:
        return (
            f"<ReductionInfo {self.name} op={self.group} "
            f"updates={len(self.updates)}>"
        )


# -- structural recognition -------------------------------------------------

def expr_equal(a: Optional[ast.Expr], b: Optional[ast.Expr]) -> bool:
    """Structural equality over side-effect-free expressions; anything
    with calls or assignments compares unequal (conservative)."""
    if a is None or b is None:
        return a is b
    if isinstance(a, ast.Cast):
        a = a.expr
    if isinstance(b, ast.Cast):
        b = b.expr
    if type(a) is not type(b):
        return False
    if isinstance(a, ast.IntLit):
        return a.value == b.value
    if isinstance(a, ast.Ident):
        return a.decl is b.decl and a.name == b.name
    if isinstance(a, ast.Unary):
        return a.op == b.op and a.op not in ("++", "--", "p++", "p--") \
            and expr_equal(a.operand, b.operand)
    if isinstance(a, ast.Binary):
        return a.op == b.op and expr_equal(a.left, b.left) \
            and expr_equal(a.right, b.right)
    if isinstance(a, ast.Index):
        return expr_equal(a.base, b.base) and expr_equal(a.index, b.index)
    if isinstance(a, ast.Member):
        return a.name == b.name and a.arrow == b.arrow \
            and expr_equal(a.base, b.base)
    return False


def _lv_root(expr: ast.Expr) -> Optional[Tuple[ast.VarDecl, ast.Ident, int]]:
    """Accepted accumulator lvalues: ``x`` or ``a[idx]`` with ``a`` a
    true array (no pointer hops — disjointness stays decidable).
    Returns (decl, root Ident occurrence, site nid of the lvalue)."""
    if isinstance(expr, ast.Ident) and isinstance(expr.decl, ast.VarDecl):
        return expr.decl, expr, expr.nid
    if isinstance(expr, ast.Index) and isinstance(expr.base, ast.Ident) \
            and isinstance(expr.base.decl, ast.VarDecl):
        base_t = expr.base.decl.ctype
        if isinstance(base_t, ArrayType):
            return expr.base.decl, expr.base, expr.nid
    return None


def _root_type_ok(decl: ast.VarDecl) -> bool:
    """Integer scalars and 1-D integer arrays of static length only:
    wrapping integer ops are associative/commutative mod 2**w, so the
    merged result is bit-identical; floats and anything pointer-shaped
    are out."""
    ctype = decl.ctype
    if isinstance(ctype, ArrayType):
        if ctype.length is None or not isinstance(ctype.elem, IntType):
            return False
        return True
    return isinstance(ctype, IntType)


def _match_update(stmt_expr: ast.Expr) -> Optional[Tuple[
        ast.VarDecl, str, str, Set[int], Set[int], Set[int], Set[int],
        List[ast.Expr]]]:
    """Recognize one statement-level expression as a reduction update.

    Returns ``(root, group, form, sites, elems, store_nids, consumed,
    foreign_subexprs)`` where ``foreign_subexprs`` are the parts that
    must not reference the accumulator (index and value operands)."""
    node = stmt_expr
    if isinstance(node, ast.Assign) and node.op in _COMPOUND_TO_GROUP:
        got = _lv_root(node.target)
        if got is None:
            return None
        decl, root_ident, load_site = got
        foreign = [node.value]
        if isinstance(node.target, ast.Index):
            foreign.append(node.target.index)
        return (decl, _COMPOUND_TO_GROUP[node.op], Update.COMPOUND,
                {node.nid, load_site}, {node.nid}, {node.nid},
                {id(root_ident)}, foreign)
    if isinstance(node, ast.Unary) and node.op in ("++", "--", "p++", "p--"):
        got = _lv_root(node.operand)
        if got is None:
            return None
        decl, root_ident, load_site = got
        foreign = []
        if isinstance(node.operand, ast.Index):
            foreign.append(node.operand.index)
        return (decl, "add", Update.INCDEC,
                {node.nid, load_site}, {node.nid}, {node.nid},
                {id(root_ident)}, foreign)
    if isinstance(node, ast.Assign) and node.op == "=":
        got = _lv_root(node.target)
        if got is None:
            return None
        decl, target_ident, _ = got
        value = node.value
        if not (isinstance(value, ast.Binary)
                and value.op in _BINARY_TO_GROUP):
            return None
        group = _BINARY_TO_GROUP[value.op]
        inner: Optional[ast.Expr] = None
        rest: Optional[ast.Expr] = None
        if expr_equal(value.left, node.target):
            inner, rest = value.left, value.right
        elif value.op in _SYMMETRIC_OPS and \
                expr_equal(value.right, node.target):
            inner, rest = value.right, value.left
        if inner is None:
            return None
        got_inner = _lv_root(inner)
        if got_inner is None or got_inner[0] is not decl:
            return None
        inner_root_ident, inner_site = got_inner[1], got_inner[2]
        foreign = [rest]
        if isinstance(node.target, ast.Index):
            foreign.append(node.target.index)
        return (decl, group, Update.ASSIGN,
                {node.nid, inner_site}, {node.nid}, {node.nid},
                {id(target_ident), id(inner_root_ident)}, foreign)
    return None


def _match_guard(stmt: ast.If) -> Optional[Tuple[
        ast.VarDecl, str, Set[int], Set[int], Set[int], Set[int],
        List[ast.Expr], ast.Assign]]:
    """Recognize ``if (e REL lv) lv = e;`` (no else) as min/max."""
    if stmt.els is not None:
        return None
    cond = stmt.cond
    if not (isinstance(cond, ast.Binary)
            and cond.op in ("<", ">", "<=", ">=")):
        return None
    then = stmt.then
    if isinstance(then, ast.Block):
        if len(then.stmts) != 1:
            return None
        then = then.stmts[0]
    if not (isinstance(then, ast.ExprStmt)
            and isinstance(then.expr, ast.Assign)
            and then.expr.op == "="):
        return None
    assign = then.expr
    got = _lv_root(assign.target)
    if got is None:
        return None
    decl, target_ident, _ = got
    # which side of the condition is the accumulator?
    if expr_equal(cond.left, assign.target):
        lv_side, e_side, rel = cond.left, cond.right, cond.op
        # lv REL e, assign lv = e:  lv < e -> e larger kept -> max
        group = "max" if rel in ("<", "<=") else "min"
    elif expr_equal(cond.right, assign.target):
        lv_side, e_side = cond.right, cond.left
        # e REL lv, assign lv = e:  e > lv -> e larger kept -> max
        group = "max" if cond.op in (">", ">=") else "min"
    else:
        return None
    if not expr_equal(e_side, assign.value):
        return None
    got_cond = _lv_root(lv_side)
    if got_cond is None or got_cond[0] is not decl:
        return None
    cond_root_ident, cond_site = got_cond[1], got_cond[2]
    foreign: List[ast.Expr] = [e_side, assign.value]
    if isinstance(assign.target, ast.Index):
        foreign.append(assign.target.index)
    if isinstance(lv_side, ast.Index):
        foreign.append(lv_side.index)
    sites = {assign.nid, cond_site}
    elems = {cond.nid, assign.nid}
    consumed = {id(target_ident), id(cond_root_ident)}
    return (decl, group, sites, elems, {assign.nid}, consumed,
            foreign, assign)


class _RegionWalker:
    """Collect reduction updates and every variable reference from a
    loop region: the loop, then the body of each callee it reaches."""

    def __init__(self):
        self.updates: List[Update] = []
        #: decl nid -> [Ident occurrences] across the whole region
        self.refs: Dict[int, List[ast.Ident]] = {}
        self._seen_updates: Set[int] = set()

    # -- entry point ------------------------------------------------------
    def walk_region(self, loop: ast.LoopStmt,
                    callees: List[ast.FunctionDef]) -> None:
        init = getattr(loop, "init", None)
        if init is not None:
            # refs only: a write in the loop header runs once per loop
            # entry, so it can never count as a per-iteration update
            if isinstance(init, ast.ExprStmt):
                if init.expr is not None:
                    self._expr(init.expr)
            elif isinstance(init, ast.DeclStmt):
                for decl in init.decls:
                    for leaf in decl.init_leaves():
                        self._expr(leaf)
            else:
                self._stmt(init)
        if getattr(loop, "cond", None) is not None:
            self._expr(loop.cond)
        step = getattr(loop, "step", None)
        if step is not None:
            if not self._maybe_update(step):
                self._expr(step)
        self._stmt(loop.body)
        for fn in callees:
            self._stmt(fn.body)

    # -- statements -------------------------------------------------------
    def _stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for s in stmt.stmts:
                self._stmt(s)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                if not self._maybe_update(stmt.expr):
                    self._expr(stmt.expr)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                for leaf in decl.init_leaves():
                    self._expr(leaf)
        elif isinstance(stmt, ast.If):
            guard = _match_guard(stmt)
            if guard is not None:
                (decl, group, sites, elems, stores, consumed, foreign,
                 _assign) = guard
                self._record(Update(decl, group, Update.GUARD, stmt,
                                    sites, elems, stores, consumed))
                self._expr(stmt.cond)
                then = stmt.then
                body = then.stmts[0] if isinstance(then, ast.Block) \
                    else then
                self._expr(body.expr)
                return
            self._expr(stmt.cond)
            self._stmt(stmt.then)
            if stmt.els is not None:
                self._stmt(stmt.els)
        elif isinstance(stmt, (ast.While, ast.DoWhile)):
            if stmt.cond is not None:
                self._expr(stmt.cond)
            self._stmt(stmt.body)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._stmt(stmt.init)
            if stmt.cond is not None:
                self._expr(stmt.cond)
            if stmt.step is not None:
                if not self._maybe_update(stmt.step):
                    self._expr(stmt.step)
            self._stmt(stmt.body)
        elif isinstance(stmt, ast.Return):
            if stmt.expr is not None:
                self._expr(stmt.expr)
        # Break / Continue: nothing to record

    def _maybe_update(self, expr: ast.Expr) -> bool:
        got = _match_update(expr)
        if got is None:
            return False
        decl, group, form, sites, elems, stores, consumed, foreign = got
        self._record(Update(decl, group, form, expr, sites, elems,
                            stores, consumed))
        for sub in foreign:
            self._expr(sub)
        return True

    def _record(self, update: Update) -> None:
        if update.node.nid in self._seen_updates:
            return
        self._seen_updates.add(update.node.nid)
        self.updates.append(update)

    # -- expressions ------------------------------------------------------
    def _expr(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Ident):
            if isinstance(expr.decl, ast.VarDecl):
                self.refs.setdefault(expr.decl.nid, []).append(expr)
            return
        for field in expr._fields:
            child = getattr(expr, field)
            if isinstance(child, ast.Expr):
                self._expr(child)
            elif isinstance(child, list):
                for item in child:
                    if isinstance(item, ast.Expr):
                        self._expr(item)


# -- the prover -------------------------------------------------------------

def _candidate_classes(priv: PrivatizationResult) -> List[ClassInfo]:
    """Non-private classes whose blockers include a loop-carried flow
    dependence — the one thing that actually forbids a DOALL schedule.
    Classes that are merely exposed (e.g. ``a[i] = a[i] + 1``: disjoint
    elements, no cross-iteration conflict) stay shared; privatizing
    them would buy nothing and cost N copies plus a merge."""
    out = []
    for info in priv.class_infos:
        if info.private or info.commutative:
            continue
        if any(b.startswith("loop-carried flow dependence")
               for b in info.blockers):
            out.append(info)
    return out


def _dynamic_objects_ok(profile: LoopProfile, sites: Set[int],
                        root_nid: int) -> bool:
    """Every observed object at the accumulator's sites is the
    accumulator's own storage (global or stack slot of the decl)."""
    allowed = {("global", root_nid), ("stack", root_nid)}
    for site in sites:
        for key in profile.site_objects.get(site, ()):
            if key not in allowed:
                return False
    return True


def _static_objects_ok(pointsto: PointsToResult, sites: Set[int],
                       root_nid: int) -> bool:
    """Andersen agreement: where the points-to analysis has an opinion
    about an accumulator site, it must pin it to the accumulator."""
    for site in sites:
        objs = pointsto.objects_of_access(site)
        if objs and not objs <= {("var", root_nid)}:
            return False
    return True


def _foreign_alias_free(profile: LoopProfile, pointsto: PointsToResult,
                        update_sites: Set[int], root_nid: int) -> bool:
    """No *other* access site in the loop may reach the accumulator's
    storage — dynamically observed or statically possible."""
    keys = {("global", root_nid), ("stack", root_nid)}
    var_obj = ("var", root_nid)
    for site in profile.ddg.sites:
        if site in update_sites:
            continue
        if profile.site_objects.get(site, set()) & keys:
            return False
        if var_obj in pointsto.objects_of_access(site):
            return False
    return True


def _address_never_escapes(program: ast.Program, decl: ast.VarDecl) -> bool:
    """The accumulator's address must never escape anywhere in the
    program: no ``&x``, and for arrays no bare (decayed) use outside an
    index base — otherwise a pointer could reach it on a path the
    profile never saw."""
    is_array = isinstance(decl.ctype, ArrayType)

    def check(node: ast.Node) -> bool:
        for field in node._fields:
            child = getattr(node, field)
            children = child if isinstance(child, list) else [child]
            for item in children:
                if not isinstance(item, ast.Node):
                    continue
                if isinstance(item, ast.Ident) and item.decl is decl:
                    if isinstance(node, ast.Unary) and node.op == "&":
                        return False
                    if is_array and not (
                        isinstance(node, ast.Index) and field == "base"
                    ):
                        return False
                if not check(item):
                    return False
        return True

    for fn in program.functions():
        if fn.body is not None and not check(fn.body):
            return False
    for gdecl in program.decls:
        if isinstance(gdecl, ast.VarDecl):
            for leaf in gdecl.init_leaves():
                if not check(leaf):
                    return False
                if isinstance(leaf, ast.Ident) and leaf.decl is decl:
                    return False
    return True


def _carried_edges_closed(profile: LoopProfile,
                          update_sites: Set[int]) -> bool:
    """Every carried dependence touching the accumulator must stay
    within its update sites (no cross-variable carried coupling)."""
    for edge in profile.ddg.edges:
        if not edge.carried:
            continue
        src_in = edge.src in update_sites
        dst_in = edge.dst in update_sites
        if src_in != dst_in:
            return False
    return True


def _prove_dataflow(loop: ast.LoopStmt, callees: List[ast.FunctionDef],
                    root: ast.VarDecl, updates: List[Update]
                    ) -> Optional[Dict[str, object]]:
    """Run the value-flow lattice and reaching definitions over the
    loop region and every callee body; returns the fact record on
    success, None when any path taints the accumulator."""
    allowed_elems: Set[int] = set()
    store_nids: Set[int] = set()
    for u in updates:
        allowed_elems |= u.elems
        store_nids |= u.store_nids
    cfgs: List[Tuple[str, object]] = [("loop", build_loop_body_cfg(loop))]
    for fn in callees:
        cfgs.append((fn.name, build_cfg(fn)))
    vf_facts: List[List[object]] = []
    rd_facts: Dict[str, List[int]] = {}
    for name, cfg in cfgs:
        vf = solve(cfg, ReductionValueFlow({root.nid}, allowed_elems))
        taints = reduction_taints(vf)
        if (root.nid, "tainted") in taints:
            return None
        for fact in sorted(taints):
            vf_facts.append([name, fact[0], fact[1]])
        rd = solve(cfg, ReachingDefinitions([(root.nid, None)]))
        exit_defs = {
            site for decl, site in rd.at_exit
            if decl == root.nid and site is not None
        }
        if not exit_defs <= store_nids:
            return None
        rd_facts[name] = sorted(exit_defs)
    return {
        "value_flow": vf_facts,
        "reaching_defs": rd_facts,
        "allowed_elems": sorted(allowed_elems),
    }


def prove_reductions(
    program: ast.Program,
    sema: SemaResult,
    loop: ast.LoopStmt,
    profile: LoopProfile,
    priv: PrivatizationResult,
    pointsto: Optional[PointsToResult] = None,
) -> List[ReductionInfo]:
    """Find every provable reduction accumulator of ``loop``.  Pure
    query — :func:`upgrade_commutative` applies the result."""
    candidates = _candidate_classes(priv)
    if not candidates:
        return []
    region = loop_region(loop, sema.functions)
    if region.indirect:
        return []
    walker = _RegionWalker()
    walker.walk_region(loop, region.callees)
    if not walker.updates:
        return []

    # group structural updates by accumulator decl
    by_root: Dict[int, List[Update]] = {}
    decls: Dict[int, ast.VarDecl] = {}
    for u in walker.updates:
        by_root.setdefault(u.root.nid, []).append(u)
        decls[u.root.nid] = u.root

    # which candidate classes could each root explain?
    root_classes: Dict[int, List[ClassInfo]] = {}
    for info in candidates:
        for root_nid, updates in by_root.items():
            union_sites: Set[int] = set()
            for u in updates:
                union_sites |= u.sites
            if info.members <= union_sites:
                root_classes.setdefault(root_nid, []).append(info)
                break

    if not root_classes:
        return []
    if pointsto is None:
        pointsto = analyze_pointsto(program, sema)

    proven: List[ReductionInfo] = []
    for root_nid, infos in root_classes.items():
        root = decls[root_nid]
        updates = by_root[root_nid]
        if not _root_type_ok(root):
            continue
        groups = {u.group for u in updates}
        if len(groups) != 1:
            continue
        group = groups.pop()
        # every accumulator reference in the region must be consumed by
        # a recognized update (induction variables and plain reads of
        # the accumulator both fail here)
        consumed: Set[int] = set()
        union_sites = set()
        for u in updates:
            consumed |= u.consumed
            union_sites |= u.sites
        refs = walker.refs.get(root_nid, [])
        if any(id(r) not in consumed for r in refs):
            continue
        if not _address_never_escapes(program, root):
            continue
        member_union: Set[int] = set()
        for info in infos:
            member_union |= info.members
        if not _dynamic_objects_ok(profile, member_union, root_nid):
            continue
        if not _static_objects_ok(pointsto, member_union, root_nid):
            continue
        if not _foreign_alias_free(profile, pointsto, union_sites,
                                   root_nid):
            continue
        if not _carried_edges_closed(profile, union_sites):
            continue
        facts = _prove_dataflow(loop, region.callees, root, updates)
        if facts is None:
            continue
        facts["objects"] = {
            str(site): sorted(
                list(k) for k in profile.site_objects.get(site, ())
            )
            for site in sorted(member_union)
        }
        facts["carried_edges_closed"] = True
        proven.append(ReductionInfo(
            root, group, updates,
            [info.representative for info in infos], facts,
        ))
    return proven


def upgrade_commutative(
    program: ast.Program,
    sema: SemaResult,
    loop: ast.LoopStmt,
    profile: LoopProfile,
    priv: PrivatizationResult,
    pointsto: Optional[PointsToResult] = None,
) -> List[ReductionInfo]:
    """Prove and apply: upgraded classes join ``private_sites`` (their
    storage expands and redirects per worker) and ``commutative_sites``
    (the pipeline adds identity init + merge-back; replays are known
    non-idempotent).  Mutates ``priv`` in place."""
    proven = prove_reductions(program, sema, loop, profile, priv,
                              pointsto)
    for red in proven:
        reps = set(red.class_reps)
        for i, info in enumerate(priv.class_infos):
            if info.representative not in reps:
                continue
            priv.class_infos[i] = info._replace(commutative=True)
            priv.shared_sites -= info.members
            priv.private_sites |= info.members
            priv.commutative_sites |= info.members
        priv.reductions[red.root_origin] = red
    return proven


def build_certificate(label: str, profile: LoopProfile,
                      priv: PrivatizationResult) -> Dict[str, object]:
    """The serializable parallelism certificate for one loop: class
    assignment per access site, reduction op + identity per upgraded
    accumulator, and the dataflow facts used.  Verified from scratch by
    :mod:`repro.lint.certify` (LINT-CERT) on the output IR."""
    classes = []
    sites: Dict[str, str] = {}
    for info in priv.class_infos:
        if info.commutative:
            category = "commutative"
        elif info.private:
            category = "private"
        elif all(b == FREE_BLOCKER for b in info.blockers):
            category = "free"
        else:
            category = "shared"
        classes.append({
            "representative": info.representative,
            "members": sorted(info.members),
            "category": category,
            "blockers": list(info.blockers),
        })
        for site in info.members:
            sites[str(site)] = category
    return {
        "schema": CERT_SCHEMA_VERSION,
        "loop": label,
        "sites": sites,
        "classes": sorted(classes, key=lambda c: c["representative"]),
        "reductions": [
            red.as_dict() for red in priv.reductions.values()
        ],
    }
