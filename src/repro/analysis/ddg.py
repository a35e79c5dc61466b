"""Loop-level data dependence graph (paper Definition 1).

Vertices are memory-access *sites* — AST node ids of the expressions
that load or store.  Edges carry a dependence kind (flow / anti /
output) and whether the dependence is loop-carried or loop-independent.

The graph also records the two per-access properties Definitions 2 and
3 introduce: *upwards-exposed loads* (the value read comes from outside
the loop) and *downwards-exposed stores* (the value written is used
after the loop).  Definition 5's privatizability test consumes exactly
these ingredients.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set

FLOW = "flow"
ANTI = "anti"
OUTPUT = "output"


class Dep(NamedTuple):
    """One dependence edge: ``src`` must happen before ``dst``."""

    src: int
    dst: int
    kind: str          # FLOW / ANTI / OUTPUT
    carried: bool      # loop-carried vs loop-independent

    def __repr__(self) -> str:
        arrow = "~>" if self.carried else "->"
        return f"{self.src}{arrow}{self.dst}:{self.kind}"


class DDG:
    """A loop-level data dependence graph."""

    def __init__(self):
        self.sites: Set[int] = set()
        self.edges: Set[Dep] = set()
        self.upward_exposed: Set[int] = set()
        self.downward_exposed: Set[int] = set()
        #: dynamic access count per site (weights for Figure 8)
        self.dyn_counts: Dict[int, int] = {}
        #: whether each site was observed storing / loading
        self.store_sites: Set[int] = set()
        self.load_sites: Set[int] = set()

    # -- construction -------------------------------------------------------
    def add_site(self, site: int, is_store: bool, count: int = 1) -> None:
        self.sites.add(site)
        self.dyn_counts[site] = self.dyn_counts.get(site, 0) + count
        (self.store_sites if is_store else self.load_sites).add(site)

    def add_edge(self, src: int, dst: int, kind: str, carried: bool) -> None:
        # the profiler re-adds the same few edges once per access: probe
        # with a plain tuple (a Dep hashes and compares as one) and build
        # the named one only when the edge is new
        edge = (src, dst, kind, carried)
        if edge not in self.edges:
            self.edges.add(Dep._make(edge))

    def merge(self, other: "DDG") -> None:
        """Union another execution's graph into this one (candidate
        loops nested inside outer loops profile once per execution)."""
        self.sites |= other.sites
        self.edges |= other.edges
        self.upward_exposed |= other.upward_exposed
        self.downward_exposed |= other.downward_exposed
        self.store_sites |= other.store_sites
        self.load_sites |= other.load_sites
        for site, count in other.dyn_counts.items():
            self.dyn_counts[site] = self.dyn_counts.get(site, 0) + count

    # -- queries ---------------------------------------------------------------
    def edges_of(self, site: int) -> List[Dep]:
        return [e for e in self.edges if e.src == site or e.dst == site]

    def carried_edges(self, kind: Optional[str] = None) -> Iterable[Dep]:
        for e in self.edges:
            if e.carried and (kind is None or e.kind == kind):
                yield e

    def independent_edges(self, kind: Optional[str] = None) -> Iterable[Dep]:
        for e in self.edges:
            if not e.carried and (kind is None or e.kind == kind):
                yield e

    def sites_with_carried_dep(self, kinds: FrozenSet[str] = frozenset(
            (FLOW, ANTI, OUTPUT))) -> Set[int]:
        out: Set[int] = set()
        for e in self.edges:
            if e.carried and e.kind in kinds:
                out.add(e.src)
                out.add(e.dst)
        return out

    def total_dynamic_accesses(self) -> int:
        return sum(self.dyn_counts.values())

    def __repr__(self) -> str:
        return (
            f"<DDG {len(self.sites)} sites, {len(self.edges)} edges, "
            f"{len(self.upward_exposed)} up-exposed, "
            f"{len(self.downward_exposed)} down-exposed>"
        )
