"""Generic monotone dataflow engine over :mod:`repro.analysis.cfg`.

One worklist solver, four classic instances.  Facts are frozensets and
the meet is union (may-analyses), which covers everything the static
auditor needs:

* :class:`ReachingDefinitions` — forward; facts are ``(decl_nid,
  site_nid)`` pairs, with ``site_nid=None`` encoding the synthetic
  "uninitialized" definition a declaration without initializer
  produces.  Basis of the uninitialized-read lint.
* :class:`Liveness` — backward; facts are ``decl_nid``\\ s.  Basis of
  the dead span-store elimination (§3.4) in
  :func:`repro.transform.optimize.eliminate_dead_spans`.
* :class:`UpwardExposure` / :class:`DownwardExposure` — the same
  transfer functions run over a single-iteration loop region
  (:func:`~repro.analysis.cfg.build_loop_body_cfg`), giving the static
  analogue of the paper's Definitions 2–3.

Definitions and uses are extracted once per element and cached.  A
definition is *certain* (it kills) only when it executes unconditionally
with its element — assignments nested under ``?:`` or the right-hand
side of ``&&``/``||`` generate but do not kill, so a maybe-write never
hides an earlier definition.  Calls to non-builtin functions
conservatively read every declaration the instance was told about
(``call_reads``), keeping globals live across calls.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..frontend import ast
from .cfg import CFG, Element

#: (decl_nid, def_site_nid | None): one definition of one variable;
#: a ``None`` site is the synthetic uninitialized definition
Definition = Tuple[int, Optional[int]]


class ElementInfo:
    """Uses, definitions, and call presence of one CFG element."""

    __slots__ = ("uses", "defs", "has_call")

    def __init__(self, uses: Set[int],
                 defs: List[Tuple[int, Optional[int], bool]],
                 has_call: bool):
        self.uses = uses
        #: (decl_nid, site_nid | None, certain)
        self.defs = defs
        self.has_call = has_call


def element_info(elem: Element) -> ElementInfo:
    """Extract variable uses and definitions from one element."""
    uses: Set[int] = set()
    defs: List[Tuple[int, Optional[int], bool]] = []
    state = {"call": False}

    def visit(node: ast.Node, certain: bool) -> None:
        if isinstance(node, ast.Assign):
            target = node.target
            if isinstance(target, ast.Ident) and \
                    isinstance(target.decl, ast.VarDecl):
                if node.op != "=":
                    uses.add(target.decl.nid)
                defs.append((target.decl.nid, node.nid, certain))
            else:
                visit(target, certain)
            visit(node.value, certain)
            return
        if isinstance(node, ast.Unary) and node.op in (
            "++", "--", "p++", "p--"
        ):
            operand = node.operand
            if isinstance(operand, ast.Ident) and \
                    isinstance(operand.decl, ast.VarDecl):
                uses.add(operand.decl.nid)
                defs.append((operand.decl.nid, node.nid, certain))
            else:
                visit(operand, certain)
            return
        if isinstance(node, ast.Cond):
            visit(node.cond, certain)
            visit(node.then, False)
            visit(node.els, False)
            return
        if isinstance(node, ast.Binary) and node.op in ("&&", "||"):
            visit(node.left, certain)
            visit(node.right, False)
            return
        if isinstance(node, ast.Ident):
            if isinstance(node.decl, ast.VarDecl):
                uses.add(node.decl.nid)
            return
        if isinstance(node, ast.Call):
            state["call"] = True
        for name in node._fields:
            child = getattr(node, name)
            if isinstance(child, ast.Node):
                visit(child, certain)
            elif isinstance(child, list):
                for item in child:
                    if isinstance(item, ast.Node):
                        visit(item, certain)

    if isinstance(elem, ast.VarDecl):
        if elem.init is not None:
            for leaf in elem.init_leaves():
                visit(leaf, True)
            defs.append((elem.nid, elem.nid, True))
        else:
            defs.append((elem.nid, None, True))
    else:
        visit(elem, True)
    return ElementInfo(uses, defs, state["call"])


class Analysis:
    """A monotone may-analysis: union meet over frozenset facts."""

    forward: bool = True

    def boundary(self) -> FrozenSet:
        """Facts at the CFG entry (forward) or exit (backward)."""
        return frozenset()

    def transfer(self, elem: Element, facts: FrozenSet) -> FrozenSet:
        raise NotImplementedError

    # shared per-element cache
    def __init__(self):
        self._info: Dict[int, ElementInfo] = {}

    def info(self, elem: Element) -> ElementInfo:
        cached = self._info.get(elem.nid)
        if cached is None:
            cached = element_info(elem)
            self._info[elem.nid] = cached
        return cached


class DataflowResult:
    """Fixpoint facts, queryable per block and per element.

    ``before``/``after`` are in *program order* for both directions:
    ``before(nid)`` is the fact set holding just before the element
    executes, ``after(nid)`` just after (for a backward analysis,
    "after" is e.g. the live-out set)."""

    def __init__(self, cfg: CFG, analysis: Analysis,
                 block_before: Dict[int, FrozenSet],
                 block_after: Dict[int, FrozenSet]):
        self.cfg = cfg
        self.analysis = analysis
        self.block_before = block_before
        self.block_after = block_after
        self._elem_before: Dict[int, FrozenSet] = {}
        self._elem_after: Dict[int, FrozenSet] = {}
        self._done_blocks: Set[int] = set()

    def _materialize(self, bid: int) -> None:
        if bid in self._done_blocks:
            return
        self._done_blocks.add(bid)
        block = self.cfg.blocks[bid]
        analysis = self.analysis
        if analysis.forward:
            facts = self.block_before[bid]
            for elem in block.elems:
                self._elem_before[elem.nid] = facts
                facts = analysis.transfer(elem, facts)
                self._elem_after[elem.nid] = facts
        else:
            facts = self.block_after[bid]
            for elem in reversed(block.elems):
                self._elem_after[elem.nid] = facts
                facts = analysis.transfer(elem, facts)
                self._elem_before[elem.nid] = facts

    def before(self, nid: int) -> FrozenSet:
        block = self.cfg.block_of[nid]
        self._materialize(block.bid)
        return self._elem_before[nid]

    def after(self, nid: int) -> FrozenSet:
        block = self.cfg.block_of[nid]
        self._materialize(block.bid)
        return self._elem_after[nid]

    @property
    def at_exit(self) -> FrozenSet:
        """Facts at the CFG exit (program-order end)."""
        return self.block_before[self.cfg.exit.bid] \
            if not self.analysis.forward else \
            self.block_after[self.cfg.exit.bid]

    @property
    def at_entry(self) -> FrozenSet:
        """Facts at the CFG entry (program-order start)."""
        return self.block_before[self.cfg.entry.bid]


def solve(cfg: CFG, analysis: Analysis) -> DataflowResult:
    """Worklist fixpoint of ``analysis`` over ``cfg``."""
    before: Dict[int, FrozenSet] = {b.bid: frozenset() for b in cfg.blocks}
    after: Dict[int, FrozenSet] = {b.bid: frozenset() for b in cfg.blocks}
    boundary = frozenset(analysis.boundary())
    work = deque(cfg.blocks if analysis.forward else reversed(cfg.blocks))
    pending = {b.bid for b in cfg.blocks}
    while work:
        block = work.popleft()
        pending.discard(block.bid)
        if analysis.forward:
            facts = boundary if block is cfg.entry else frozenset()
            for pred in block.preds:
                facts |= after[pred.bid]
            before[block.bid] = facts
            for elem in block.elems:
                facts = analysis.transfer(elem, facts)
            if facts != after[block.bid]:
                after[block.bid] = facts
                for succ in block.succs:
                    if succ.bid not in pending:
                        pending.add(succ.bid)
                        work.append(succ)
        else:
            facts = boundary if block is cfg.exit else frozenset()
            for succ in block.succs:
                facts |= before[succ.bid]
            after[block.bid] = facts
            for elem in reversed(block.elems):
                facts = analysis.transfer(elem, facts)
            if facts != before[block.bid]:
                before[block.bid] = facts
                for pred in block.preds:
                    if pred.bid not in pending:
                        pending.add(pred.bid)
                        work.append(pred)
    return DataflowResult(cfg, analysis, before, after)


class ReachingDefinitions(Analysis):
    """Forward may-analysis over :data:`Definition` facts.

    ``boundary_defs`` seeds the entry (e.g. parameter bindings when the
    CFG was built without them, or "everything defined" for region
    graphs)."""

    forward = True

    def __init__(self, boundary_defs: Iterable[Definition] = ()):
        super().__init__()
        self._boundary = frozenset(boundary_defs)

    def boundary(self) -> FrozenSet:
        return self._boundary

    def transfer(self, elem: Element, facts: FrozenSet) -> FrozenSet:
        info = self.info(elem)
        if not info.defs:
            return facts
        killed = {decl for decl, _site, certain in info.defs if certain}
        out = {fact for fact in facts if fact[0] not in killed}
        out.update((decl, site) for decl, site, _certain in info.defs)
        return frozenset(out)


class Liveness(Analysis):
    """Backward may-analysis; facts are live ``decl_nid``\\ s.

    ``exit_live`` is the boundary at the CFG exit (globals, or any
    variable observable after the region); ``call_reads`` are treated
    as read by every call to a user function."""

    forward = False

    def __init__(self, exit_live: Iterable[int] = (),
                 call_reads: Iterable[int] = ()):
        super().__init__()
        self._exit = frozenset(exit_live)
        self._call = frozenset(call_reads)

    def boundary(self) -> FrozenSet:
        return self._exit

    def transfer(self, elem: Element, facts: FrozenSet) -> FrozenSet:
        info = self.info(elem)
        out = set(facts)
        for decl, _site, certain in info.defs:
            if certain:
                out.discard(decl)
        out.update(info.uses)
        if info.has_call:
            out.update(self._call)
        return frozenset(out)


class ReductionValueFlow(Analysis):
    """Forward may-analysis proving a candidate reduction accumulator is
    only ever touched by its recognized update elements.

    Facts are ``(decl_nid, tag)`` pairs with ``tag`` either
    ``"reduced"`` (the element touching the tracked declaration is one
    of the ``allowed_elems`` — a recognized reduction update) or
    ``"tainted"`` (any other element reads or writes it).  Facts are
    add-only, so the transfer is trivially monotone; the verdict is the
    union of every block's out-set — including predecessor-less dead
    blocks, which the solver still visits — so a taint on *any* path
    (even statically unreachable code) disqualifies the accumulator.
    """

    forward = True

    def __init__(self, tracked: Iterable[int], allowed_elems: Iterable[int]):
        super().__init__()
        self._tracked = frozenset(tracked)
        self._allowed = frozenset(allowed_elems)

    def transfer(self, elem: Element, facts: FrozenSet) -> FrozenSet:
        info = self.info(elem)
        touched = (info.uses | {d for d, _s, _c in info.defs}) & self._tracked
        if not touched:
            return facts
        tag = "reduced" if elem.nid in self._allowed else "tainted"
        return facts | {(decl, tag) for decl in touched}


def reduction_taints(result: DataflowResult) -> FrozenSet:
    """All facts accumulated anywhere in the CFG (dead blocks included)."""
    out: FrozenSet = frozenset()
    for facts in result.block_after.values():
        out |= facts
    return out


class UpwardExposure(Liveness):
    """Definition 2, statically: run over a single-iteration region CFG
    (:func:`~repro.analysis.cfg.build_loop_body_cfg`) with an empty
    boundary; ``at_entry`` is then the set of variables some path reads
    before writing within one iteration."""


class DownwardExposure(ReachingDefinitions):
    """Definition 3, statically: run over a single-iteration region CFG;
    ``at_exit`` holds the definitions that survive to the end of an
    iteration (writes whose value the next iteration or the code after
    the loop may observe)."""
