"""The byte-per-byte dependence tracker and race checker, kept as the
test oracle for the cell-granular shadow (:mod:`repro.interp.shadow`)
that replaced them in ``src/`` — the role the AST walker plays for the
execution engines.  One dict entry per byte, no fast path, nothing to
get wrong: the production observers must agree with these on every
access stream.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis import profiler
from repro.analysis.ddg import ANTI, FLOW, OUTPUT
from repro.analysis.profiler import LoopProfile, ObjectKey
from repro.interp.machine import Machine


class ByteProfileObserver:
    """Byte-granular dependence tracker.

    Maintains, per byte address: the last in-loop writer ``(site,
    iteration)`` and the readers since that write ``site -> (first_iter,
    last_iter)``.  Dependence edges come from the classic last-writer
    construction, which realizes Definition 1 including its covered-
    write refinement of loop-carried flow dependences.
    """

    def __init__(self, machine: Machine, profile: LoopProfile):
        self.machine = machine
        self.profile = profile
        self.in_loop = False
        self.iteration = 0
        self.exempt: Set[int] = set()
        # in-loop state (reset per loop execution)
        self.last_write: Dict[int, Tuple[int, int]] = {}
        self.readers: Dict[int, Dict[int, List[int]]] = {}
        # post-loop exposure state (survives across executions)
        self.pending_down: Dict[int, int] = {}  # byte -> last in-loop store site

    # -- execution boundaries ---------------------------------------------
    def begin_execution(self) -> None:
        self.in_loop = True
        self.last_write.clear()
        self.readers.clear()

    def end_execution(self, last_store_site: Optional[Dict[int, int]] = None):
        # archive this execution's final writers for downward-exposure
        for byte, (site, _iter) in self.last_write.items():
            self.pending_down[byte] = site
        self.in_loop = False

    def begin_iteration(self, k: int) -> None:
        self.iteration = k

    # -- the hook -------------------------------------------------------------
    def on_access(self, site: int, addr: int, size: int, is_store: bool):
        if not self.in_loop:
            self._post_access(addr, size, is_store)
            return
        ddg = self.profile.ddg
        cur = self.iteration
        record = self.machine.memory.find(addr)
        if record is not None:
            key: ObjectKey = (record.kind, record.tag)
            self.profile.site_objects.setdefault(site, set()).add(key)
            if key not in self.profile.object_labels:
                self.profile.object_labels[key] = record.label
                self.profile.object_sizes[key] = record.size
        exempt = self.exempt
        if is_store:
            ddg.add_site(site, True)
            add_edge = ddg.add_edge
            last_write = self.last_write
            readers = self.readers
            for byte in range(addr, addr + size):
                if byte in exempt:
                    continue
                prev = last_write.get(byte)
                if prev is not None:
                    add_edge(prev[0], site, OUTPUT, prev[1] != cur)
                reads = readers.get(byte)
                if reads:
                    for rsite, (first, last) in reads.items():
                        if first < cur:
                            add_edge(rsite, site, ANTI, True)
                        if last == cur:
                            add_edge(rsite, site, ANTI, False)
                    readers[byte] = {}
                last_write[byte] = (site, cur)
                # a write inside the loop also kills pending downward
                # exposure from earlier executions
                if byte in self.pending_down:
                    del self.pending_down[byte]
        else:
            ddg.add_site(site, False)
            add_edge = ddg.add_edge
            last_write = self.last_write
            readers = self.readers
            exposed = False
            for byte in range(addr, addr + size):
                if byte in exempt:
                    continue
                prev = last_write.get(byte)
                if prev is None:
                    exposed = True
                else:
                    add_edge(prev[0], site, FLOW, prev[1] != cur)
                entry = readers.setdefault(byte, {})
                span = entry.get(site)
                if span is None:
                    entry[site] = [cur, cur]
                else:
                    span[1] = cur
                # reading a value stored by a previous execution of the
                # loop marks that store downwards-exposed (Definition 3)
                down_site = self.pending_down.get(byte)
                if down_site is not None and prev is None:
                    self.profile.ddg.downward_exposed.add(down_site)
            if exposed:
                ddg.upward_exposed.add(site)

    def _post_access(self, addr: int, size: int, is_store: bool) -> None:
        pending = self.pending_down
        if not pending:
            return
        for byte in range(addr, addr + size):
            if is_store:
                pending.pop(byte, None)
            else:
                site = pending.get(byte)
                if site is not None:
                    self.profile.ddg.downward_exposed.add(site)


class ByteRaceChecker:
    """Cross-thread conflict detector for simulated parallel runs.

    The parallel runtime switches ``current_thread`` as it schedules
    virtual threads; afterwards :meth:`races` reports addresses written
    by one thread and touched by another.  A correct expansion
    transform must produce an empty report for DOALL loops — this is
    the reproduction's substitute for the paper's "runs correctly on
    real hardware" evidence.
    """

    def __init__(self):
        self.current_thread = 0
        #: only accesses inside a parallel region are checked: a value
        #: written before the loop and read by every thread is sharing,
        #: not racing.  Controllers call begin_region()/end_region().
        self.enabled = False
        #: byte address -> set of (thread, was_write)
        self._writers: Dict[int, Set[int]] = {}
        self._readers: Dict[int, Set[int]] = {}
        #: addresses exempt from checking (loop control variables the
        #: scheduler itself rebinds per chunk)
        self.exempt: Set[int] = set()

    def on_access(self, site: int, addr: int, size: int, is_store: bool):
        if not self.enabled:
            return
        for byte in range(addr, addr + size):
            if byte in self.exempt:
                continue
            bucket = self._writers if is_store else self._readers
            bucket.setdefault(byte, set()).add(self.current_thread)

    def begin_region(self) -> None:
        """Start checking a parallel region (clears per-region state)."""
        self._writers.clear()
        self._readers.clear()
        self.enabled = True

    def end_region(self) -> List[Tuple[int, str]]:
        """Stop checking; returns the region's conflicts."""
        found = self.races()
        self.enabled = False
        return found

    def races(self) -> List[Tuple[int, str]]:
        """(address, kind) pairs where threads conflict."""
        out: List[Tuple[int, str]] = []
        for addr, writers in self._writers.items():
            if len(writers) > 1:
                out.append((addr, "write-write"))
                continue
            readers = self._readers.get(addr)
            if readers and (readers - writers):
                out.append((addr, "read-write"))
        return out


def oracle_profile_loop(*args, **kwargs):
    """:func:`repro.analysis.profile_loop` with the byte-per-byte
    observer in the production one's place."""
    production = profiler._ProfileObserver
    profiler._ProfileObserver = ByteProfileObserver
    try:
        return profiler.profile_loop(*args, **kwargs)
    finally:
        profiler._ProfileObserver = production


#: every observable field of a LoopProfile and of its DDG
PROFILE_FIELDS = ("iterations", "executions", "site_objects",
                  "object_labels", "object_sizes", "loop_cycles",
                  "total_cycles", "stmt_cycles")
DDG_FIELDS = ("sites", "edges", "upward_exposed", "downward_exposed",
              "dyn_counts", "store_sites", "load_sites")


def profile_diff(got: LoopProfile, want: LoopProfile) -> List[str]:
    """Names of the fields on which two profiles disagree."""
    bad = [f for f in PROFILE_FIELDS if getattr(got, f) != getattr(want, f)]
    bad += [f"ddg.{f}" for f in DDG_FIELDS
            if getattr(got.ddg, f) != getattr(want.ddg, f)]
    return bad
