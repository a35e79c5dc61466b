"""Thread-private access classification (paper Definition 5).

Given a loop's DDG and its access-class partition, an access class is
**thread-private** iff:

1. no member is an upwards-exposed load or downwards-exposed store;
2. no member is involved in any loop-carried flow dependence;
3. at least one member is involved in a loop-carried anti- or output
   dependence.

Condition 3 is what separates "needs privatization" from "already
independent": accesses with no carried dependences at all parallelize
as-is and expanding their storage would only waste memory.  Non-private
accesses are *shared* and keep targeting copy 0.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Set

from .access_classes import AccessClasses, build_access_classes
from .ddg import DDG, FLOW


class ClassInfo(NamedTuple):
    """Classification of one access class."""

    representative: int
    members: frozenset
    private: bool
    #: why the class is not private (empty when private)
    blockers: tuple
    #: proven commutative reduction (§3.2 extension): the class keeps
    #: its Definition-5 blockers but its copies merge at loop exit
    commutative: bool = False


class PrivatizationResult:
    """Site-level view of Definition 5 over a whole loop."""

    def __init__(self, ddg: DDG, classes: AccessClasses):
        self.ddg = ddg
        self.classes = classes
        self.class_infos: List[ClassInfo] = []
        self.private_sites: Set[int] = set()
        self.shared_sites: Set[int] = set()
        #: sites whose class was upgraded to the commutative class
        #: (subset of ``private_sites``: they get expanded copies, but
        #: their copies must be *merged*, not discarded — and a chunk
        #: replay is never idempotent for them)
        self.commutative_sites: Set[int] = set()
        #: accumulator decl nid -> ReductionInfo
        #: (:mod:`repro.analysis.commutative` fills this on upgrade)
        self.reductions: Dict[int, object] = {}

    def is_private(self, site: int) -> bool:
        return site in self.private_sites

    def commutative_classes(self) -> List[ClassInfo]:
        return [c for c in self.class_infos if c.commutative]

    def __repr__(self) -> str:
        return (
            f"<Privatization {len(self.private_sites)} private / "
            f"{len(self.shared_sites)} shared sites in "
            f"{len(self.class_infos)} classes>"
        )


def classify(ddg: DDG, classes: AccessClasses = None) -> PrivatizationResult:
    """Apply Definition 5 to every access class of the loop."""
    if classes is None:
        classes = build_access_classes(ddg)
    result = PrivatizationResult(ddg, classes)

    carried_flow: Set[int] = set()
    carried_anti_output: Set[int] = set()
    for edge in ddg.edges:
        if not edge.carried:
            continue
        bucket = carried_flow if edge.kind == FLOW else carried_anti_output
        bucket.add(edge.src)
        bucket.add(edge.dst)

    for members in classes.classes():
        blockers: List[str] = []
        exposed = members & (ddg.upward_exposed | ddg.downward_exposed)
        if exposed:
            up = members & ddg.upward_exposed
            down = members & ddg.downward_exposed
            if up:
                blockers.append(f"upwards-exposed load at {sorted(up)}")
            if down:
                blockers.append(f"downwards-exposed store at {sorted(down)}")
        flow_hit = members & carried_flow
        if flow_hit:
            blockers.append(
                f"loop-carried flow dependence at {sorted(flow_hit)}"
            )
        if not (members & carried_anti_output):
            blockers.append("no loop-carried anti/output dependence")
        private = not blockers
        info = ClassInfo(
            representative=min(members),
            members=frozenset(members),
            private=private,
            blockers=tuple(blockers),
        )
        result.class_infos.append(info)
        (result.private_sites if private else result.shared_sites).update(members)
    return result
