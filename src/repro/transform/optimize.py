"""§3.4 overhead-reduction passes that operate on whole loops.

The redirection and heapified-global rewrites introduce address
computations that a native compiler's LICM + register allocation make
nearly free; this module performs the equivalent source-level hoisting
so the cycle model sees what hardware would see:

* :func:`hoist_expanded_bases` — the base address of an expanded
  (heapified) global — ``g + __tid*len`` for a private array, ``&g[0]``
  or ``&g[__tid]`` for scalars/records — is loop-invariant (the
  compiler-generated pointer ``g`` is written only in
  ``__expand_init``), so compute it once per loop iteration in a local
  (register) slot.

* :func:`eliminate_dead_spans` — the §3.4 dead span-store elimination,
  re-derived from liveness on the :mod:`repro.analysis.dataflow` engine
  instead of the emission-time self-assignment peephole: a span store
  ``X.span = e`` is removable when it is an identity (``X.span =
  X.span``) or when ``X``'s span cell is provably never read again on
  any path.  Span cells are *unaliasable* — taking the address of a
  promoted pointer is rejected during promotion — so plain-identifier
  fat variables are tracked exactly; span lvalues rooted in structs,
  arrays or pointers are never touched.

(The companion pass for fat-pointer *dereference* redirections lives in
:func:`repro.transform.redirect.hoist_redirections`.)
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..analysis.cfg import build_cfg
from ..analysis.dataflow import Analysis, solve
from ..frontend import ast
from ..frontend.ctypes import PointerType, StructType
from ..frontend.region import loop_region
from . import rewrite as rw
from .rewrite import origin_of



def build_parent_blocks(program: ast.Program):
    """Map each loop statement to its enclosing Block (when it has
    one), so hoisted declarations can be placed *before* the loop."""
    parents = {}
    for fn in program.functions():
        for node in fn.body.walk():
            if isinstance(node, ast.Block):
                for stmt in node.stmts:
                    if isinstance(stmt, ast.LoopStmt):
                        parents[stmt] = node
    return parents


def place_hoist(loop: ast.LoopStmt, decl_stmt: "ast.DeclStmt",
                parents, in_body: bool) -> None:
    """Insert a hoisted declaration before the loop (classic LICM), or
    at the top of its body when it must re-evaluate per iteration — a
    candidate parallel loop's __tid is only correct inside the region."""
    parent = None if in_body else parents.get(loop)
    if parent is None:
        loop.body.stmts.insert(0, decl_stmt)
    else:
        idx = parent.stmts.index(loop)
        parent.stmts.insert(idx, decl_stmt)


def ensure_block_body(loop) -> "ast.Block":
    """Wrap a single-statement loop body in a Block so hoisted
    declarations have somewhere to live."""
    from ..frontend import ast as _ast

    if not isinstance(loop.body, _ast.Block):
        loop.body = _ast.Block([loop.body])
    return loop.body


def collect_dirty_decls(body) -> set:
    """Variables whose *value* may change inside ``body`` (a subtree, or
    the nodes of a loop region): direct assignment targets, ++/--
    operands, and address-taken variables.
    Writing through a pointer (``g[i] = v``, ``*p = v``) does not dirty
    the pointer itself — its value (the address) is unchanged."""
    dirty = set()

    def root_decl(expr):
        node = expr
        while True:
            if isinstance(node, ast.Ident):
                return node.decl
            if isinstance(node, ast.Member) and not node.arrow:
                node = node.base
                continue
            if isinstance(node, ast.Index):
                base_t = node.base.ctype
                if base_t is not None and base_t.is_array:
                    node = node.base
                    continue
                return None  # pointer element write: memory, not the var
            if isinstance(node, ast.Cast):
                node = node.expr
                continue
            return None

    for node in body.walk() if isinstance(body, ast.Node) else body:
        target = None
        if isinstance(node, ast.Assign):
            target = node.target
        elif isinstance(node, ast.Unary) and node.op in (
            "++", "--", "p++", "p--", "&"
        ):
            target = node.operand
        if target is not None:
            decl = root_decl(target)
            if decl is not None:
                dirty.add(decl)
    return dirty


def walk_with_barriers(root: ast.Node, barriers: set):
    """Preorder walk that does not descend into subtrees rooted at a
    barrier node (candidate parallel loops: hoisting a __tid-dependent
    expression above one would evaluate it outside the parallel region,
    with the wrong thread id)."""
    if root.nid in barriers:
        return
    yield root
    for child in root.children():
        if isinstance(child, ast.Node) and child.nid in barriers:
            continue
        yield from walk_with_barriers(child, barriers)


def _morph(node: ast.Node, replacement: ast.Node) -> None:
    node.__class__ = replacement.__class__
    node.__dict__.clear()
    node.__dict__.update(replacement.__dict__)


def hoist_expanded_bases(loops: List[ast.LoopStmt],
                         candidate_nids: set = frozenset(),
                         parents=None) -> int:
    """Hoist tagged expanded-global base computations to loop tops.

    Processes loops outermost-first; a node hoisted by an outer loop is
    morphed into a plain identifier and no longer matches in inner
    loops.  Candidate parallel loops act as barriers: their contents
    hoist no higher than their own body.  Returns the number of hoist
    variables introduced.
    """
    count = 0
    parents = parents or {}
    for loop in loops:
        body = ensure_block_body(loop)
        dirty = collect_dirty_decls(body)
        barriers = candidate_nids - {loop.nid}
        groups: Dict[Tuple[object, str], List[ast.Expr]] = {}
        for node in walk_with_barriers(body, barriers):
            tag = getattr(node, "_base_hoist", None)
            if tag is None or tag[0] in dirty:
                continue
            groups.setdefault(tag, []).append(node)
        if not groups:
            continue
        hoist_decls: List[ast.VarDecl] = []
        for (decl, _privacy), nodes in groups.items():
            count += 1
            name = f"__base{count}"
            elem = getattr(nodes[0], "_base_elem", None)
            first = nodes[0]
            if isinstance(first, ast.Index):
                # scalar/record slot g[copy]: hoist the slot address
                init: ast.Expr = rw.unary("&", rw.clone_expr(first),
                                          like=first)
            else:
                # array base: g or g + tid*len (already a pointer)
                init = rw.clone_expr(first)
            if hasattr(init, "_base_hoist"):
                del init._base_hoist
            for sub in init.walk():
                if hasattr(sub, "_base_hoist"):
                    del sub._base_hoist
            ptr_t = PointerType(elem) if elem is not None else None
            hoist_decls.append(ast.VarDecl(name, ptr_t, init, "local"))
            for node in nodes:
                if isinstance(node, ast.Index):
                    repl: ast.Expr = rw.unary(
                        "*", ast.Ident(name), like=node
                    )
                else:
                    repl = ast.Ident(name)
                    repl.origin = origin_of(node)
                _morph(node, repl)
        place_hoist(loop, ast.DeclStmt(hoist_decls), parents,
                    in_body=loop.nid in candidate_nids)
    return count


def licm_globals(program: ast.Program) -> int:  # noqa: C901
    """Hoist loop-invariant loads of global *scalar* variables into
    loop-top locals (what any optimizing compiler's LICM + register
    allocation does).  Applied to baseline and transformed programs
    alike so cycle comparisons measure the privatization mechanism, not
    differing compiler maturity.

    Safety: only globals that are never address-taken anywhere are
    candidates (no pointer can alias them), and a loop disqualifies a
    global its region (:mod:`repro.frontend.region`: the loop's header
    and body and every function they reach, indirect calls included)
    may write.
    """
    from ..frontend import ast as _ast
    from ..frontend.ctypes import ArrayType, StructType

    addr_taken = set()
    for fn in program.functions():
        for node in fn.body.walk():
            if isinstance(node, _ast.Unary) and node.op == "&" and \
                    isinstance(node.operand, _ast.Ident) and \
                    isinstance(node.operand.decl, _ast.VarDecl):
                addr_taken.add(node.operand.decl)
    functions = {fn.name: fn for fn in program.functions()}

    count = 0
    parents = build_parent_blocks(program)
    for fn in program.functions():
        loops = [n for n in fn.body.walk() if isinstance(n, _ast.LoopStmt)]
        for loop in loops:
            body = ensure_block_body(loop)
            # whatever the loop can write: header, body and callees
            dirty = collect_dirty_decls(loop_region(loop, functions).nodes)
            # candidate reads: global scalars, clean, never aliased
            groups = {}
            for node in body.walk():
                if not (isinstance(node, _ast.Ident)
                        and isinstance(node.decl, _ast.VarDecl)):
                    continue
                decl = node.decl
                if decl.storage != "global" or decl in dirty or \
                        decl in addr_taken:
                    continue
                if isinstance(decl.ctype, (ArrayType, StructType)):
                    continue  # array bases are already free addresses
                if decl.name.startswith("__"):
                    continue  # thread-context pseudo-globals
                groups.setdefault(decl, []).append(node)
            if not groups:
                continue
            decls = []
            for decl, nodes in groups.items():
                count += 1
                name = f"__licm{count}"
                init = _ast.Ident(decl.name)
                init.origin = origin_of(nodes[0])
                decls.append(_ast.VarDecl(name, decl.ctype, init, "local"))
                for node in nodes:
                    repl = _ast.Ident(name)
                    repl.origin = origin_of(node)
                    _morph(node, repl)
            place_hoist(loop, _ast.DeclStmt(decls), parents, in_body=False)
    return count


# -- §3.4 dead span-store elimination (liveness-derived) -------------------

def is_fat_struct(ctype) -> bool:
    """Structural test for the compiler-generated fat-pointer structs
    (``struct __fatN { T *pointer; long span; }``)."""
    from .promote import PTR_FIELD, SPAN_FIELD

    return (
        isinstance(ctype, StructType)
        and ctype.name.startswith("__fat")
        and [f.name for f in ctype.fields] == [PTR_FIELD, SPAN_FIELD]
    )


class DeadSpanStore:
    """One statement-level span store proven removable."""

    __slots__ = ("fn", "block", "assign", "reason")

    def __init__(self, fn: ast.FunctionDef, block: ast.Block,
                 assign: ast.Assign, reason: str):
        self.fn = fn
        self.block = block
        self.assign = assign
        #: "identity" (``X.span = X.span``) or "dead" (span never read)
        self.reason = reason


def _span_store(stmt: ast.Stmt) -> Optional[ast.Assign]:
    """The ``X.span = e`` assignment when ``stmt`` is a statement-level
    span store into a fat-pointer lvalue, else None."""
    from .promote import SPAN_FIELD

    if not (isinstance(stmt, ast.ExprStmt)
            and isinstance(stmt.expr, ast.Assign)):
        return None
    assign = stmt.expr
    target = assign.target
    if assign.op == "=" and isinstance(target, ast.Member) and \
            not target.arrow and target.name == SPAN_FIELD and \
            is_fat_struct(target.base.ctype):
        return assign
    return None


def _span_cells(program: ast.Program) -> Set[int]:
    """Decl nids of plain fat-pointer variables — the trackable span
    cells.  Fat variables cannot be address-taken (promotion rejects
    ``&p``), so every read or write of their span goes through the
    identifier; struct members, array elements, and heap objects are
    not cells and stay conservatively live."""
    cells: Set[int] = set()
    for decl in program.globals():
        if is_fat_struct(decl.ctype):
            cells.add(decl.nid)
    for fn in program.functions():
        for param in fn.params:
            if is_fat_struct(param.ctype):
                cells.add(param.nid)
        if fn.body is None:
            continue
        for node in fn.body.walk():
            if isinstance(node, ast.VarDecl) and is_fat_struct(node.ctype):
                cells.add(node.nid)
    return cells


def _fat_uses(root, cells: Set[int]) -> Set[int]:
    out: Set[int] = set()
    nodes = root if isinstance(root, list) else [root]
    for node in nodes:
        if not isinstance(node, ast.Node):
            continue
        for sub in node.walk():
            if isinstance(sub, ast.Ident) and \
                    isinstance(sub.decl, ast.VarDecl) and \
                    sub.decl.nid in cells:
                out.add(sub.decl.nid)
    return out


def _is_pure(expr: ast.Expr) -> bool:
    for node in expr.walk():
        if isinstance(node, (ast.Assign, ast.Call)):
            return False
        if isinstance(node, ast.Unary) and node.op in (
            "++", "--", "p++", "p--"
        ):
            return False
    return True


class _SpanLiveness(Analysis):
    """Backward liveness of span cells.

    A cell's span is *used* by any appearance of the variable other
    than as the target of its own span store (whole-struct copies,
    redirected dereferences, calls taking the struct by value all read
    the span, or may).  It is *killed* by a statement-level span store
    or a whole-struct assignment.  Calls keep every global cell live —
    a callee may read a global fat pointer."""

    forward = False

    def __init__(self, cells: Set[int], exit_live: Set[int]):
        super().__init__()
        self._cells = cells
        self._exit = frozenset(exit_live)
        self._span: Dict[int, Tuple[FrozenSet, FrozenSet, bool]] = {}

    def boundary(self) -> FrozenSet:
        return self._exit

    def _span_info(self, elem) -> Tuple[FrozenSet, FrozenSet, bool]:
        cached = self._span.get(elem.nid)
        if cached is not None:
            return cached
        from .promote import SPAN_FIELD

        cells = self._cells
        kill: Set[int] = set()
        use: Set[int]
        has_call = any(
            isinstance(n, ast.Call)
            for n in (elem.walk() if isinstance(elem, ast.Node) else ())
        )
        if isinstance(elem, ast.VarDecl):
            if elem.nid in cells:
                kill.add(elem.nid)
            use = _fat_uses(elem.init, cells) if elem.init is not None \
                else set()
        elif isinstance(elem, ast.Assign) and elem.op == "=":
            target = elem.target
            if isinstance(target, ast.Member) and not target.arrow and \
                    target.name == SPAN_FIELD and \
                    isinstance(target.base, ast.Ident) and \
                    isinstance(target.base.decl, ast.VarDecl) and \
                    target.base.decl.nid in cells:
                kill.add(target.base.decl.nid)
                use = _fat_uses(elem.value, cells)
            elif isinstance(target, ast.Ident) and \
                    isinstance(target.decl, ast.VarDecl) and \
                    target.decl.nid in cells:
                kill.add(target.decl.nid)
                use = _fat_uses(elem.value, cells)
            else:
                use = _fat_uses(elem, cells)
        else:
            use = _fat_uses(elem, cells)
        info = (frozenset(kill), frozenset(use), has_call)
        self._span[elem.nid] = info
        return info

    def transfer(self, elem, facts: FrozenSet) -> FrozenSet:
        kill, use, has_call = self._span_info(elem)
        out = (set(facts) - kill) | use
        if has_call:
            out |= self._exit
        return frozenset(out)


def _is_identity_span(assign: ast.Assign) -> bool:
    from .promote import SPAN_FIELD, _lvalue_repr

    value = assign.value
    if not (isinstance(value, ast.Member) and not value.arrow
            and value.name == SPAN_FIELD):
        return False
    target = assign.target
    assert isinstance(target, ast.Member)
    lhs = _lvalue_repr(target.base)
    return lhs is not None and lhs == _lvalue_repr(value.base)


def find_dead_span_stores(program: ast.Program) -> List[DeadSpanStore]:
    """Span stores provably removable, without mutating the program.

    Two proofs: identity stores (``X.span = X.span`` — the exact set
    the emission-time §3.4 peephole drops) and liveness-dead stores
    (``X``'s span cell is not live after the statement and the stored
    value is side-effect free)."""
    cells = _span_cells(program)
    exit_live = {
        decl.nid for decl in program.globals()
        if decl.nid in cells
    }
    out: List[DeadSpanStore] = []
    for fn in program.functions():
        if fn.body is None:
            continue
        stores = []
        for node in fn.body.walk():
            if isinstance(node, ast.Block):
                for stmt in node.stmts:
                    assign = _span_store(stmt)
                    if assign is not None:
                        stores.append((node, assign))
        if not stores:
            continue
        live = solve(build_cfg(fn), _SpanLiveness(cells, exit_live))
        for block, assign in stores:
            if _is_identity_span(assign):
                out.append(DeadSpanStore(fn, block, assign, "identity"))
                continue
            base = assign.target.base
            if isinstance(base, ast.Ident) and \
                    isinstance(base.decl, ast.VarDecl) and \
                    base.decl.nid in cells and \
                    base.decl.nid not in live.after(assign.nid) and \
                    _is_pure(assign.value):
                out.append(DeadSpanStore(fn, block, assign, "dead"))
    return out


def eliminate_dead_spans(program: ast.Program) -> int:
    """Remove every provably dead span store; returns the count."""
    dead = find_dead_span_stores(program)
    for entry in dead:
        entry.block.stmts = [
            stmt for stmt in entry.block.stmts
            if not (isinstance(stmt, ast.ExprStmt)
                    and stmt.expr is entry.assign)
        ]
    return len(dead)
