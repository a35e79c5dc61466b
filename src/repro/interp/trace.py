"""Memory-access observation utilities.

Observers attach to a :class:`~repro.interp.machine.Machine` and
receive one ``on_access(site, addr, size, is_store)`` call per memory
access.  ``site`` is the AST node id of the access expression — the
vertex identity in the paper's loop-level data dependence graph.

"Byte granularity" here means byte-exact *results*: the race checker
reports one ``(address, kind)`` pair per conflicting byte, whatever
the sizes and alignments of the accesses that met there.  Its
*bookkeeping* is per cell of a :class:`~repro.interp.shadow.Shadow` —
the range an access used, cut only where an access of another shape
overlaps it — and is expanded to bytes when the report is asked for.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Set, Tuple

from .shadow import SIZE, Shadow


class AccessEvent(NamedTuple):
    site: int
    addr: int
    size: int
    is_store: bool


class RecordingObserver:
    """Stores every access; for tests and small-scale debugging only."""

    def __init__(self):
        self.events: List[AccessEvent] = []

    def on_access(self, site: int, addr: int, size: int, is_store: bool):
        self.events.append(AccessEvent(site, addr, size, is_store))


class FootprintObserver:
    """Per-site byte footprints (reads/writes); cheap enough to keep on
    for whole-benchmark runs."""

    def __init__(self):
        self.reads: Dict[int, int] = {}
        self.writes: Dict[int, int] = {}

    def on_access(self, site: int, addr: int, size: int, is_store: bool):
        bucket = self.writes if is_store else self.reads
        bucket[site] = bucket.get(site, 0) + size


#: race-checker cell payload (slot 0 is the shadow's SIZE): bitmasks of
#: the threads that wrote / read the cell in the current region
WRITERS, READERS = 1, 2


class RaceChecker:
    """Cross-thread conflict detector for simulated parallel runs.

    The parallel runtime switches ``current_thread`` as it schedules
    virtual threads; afterwards :meth:`races` reports addresses written
    by one thread and touched by another.  A correct expansion
    transform must produce an empty report for DOALL loops — this is
    the reproduction's substitute for the paper's "runs correctly on
    real hardware" evidence.

    The report is byte-exact; the bookkeeping is per cell of a
    :class:`~repro.interp.shadow.Shadow`, so an access that repeats the
    shape of the one before it at that address costs one lookup however
    wide it is, and a cell splits into bytes only when accesses of
    different shapes overlap (thread 0 stores an ``int``, thread 1 its
    third byte).
    """

    def __init__(self):
        self.current_thread = 0
        #: only accesses inside a parallel region are checked: a value
        #: written before the loop and read by every thread is sharing,
        #: not racing.  Controllers call begin_region()/end_region().
        self.enabled = False
        self._shadow = Shadow((0, 0))
        #: addresses exempt from checking (loop control variables the
        #: scheduler itself rebinds per chunk); consulted at each access
        self.exempt: Set[int] = set()

    def on_access(self, site: int, addr: int, size: int, is_store: bool):
        if not self.enabled:
            return
        slot = WRITERS if is_store else READERS
        bit = 1 << self.current_thread
        exempt = self.exempt
        cell = self._shadow.cells.get(addr)
        if cell is not None and cell[SIZE] == size and (
                not exempt or exempt.isdisjoint(range(addr, addr + size))):
            cell[slot] |= bit
            return
        for cell in self._shadow.resolve(addr, size, exempt):
            cell[slot] |= bit

    def begin_region(self) -> None:
        """Start checking a parallel region (clears per-region state)."""
        self._shadow.clear()
        self.enabled = True

    def end_region(self) -> List[Tuple[int, str]]:
        """Stop checking; returns the region's conflicts."""
        found = self.races()
        self.enabled = False
        return found

    def races(self) -> List[Tuple[int, str]]:
        """(address, kind) pairs where threads conflict, one per byte,
        in address order."""
        out: List[Tuple[int, str]] = []
        for addr, (size, writers, readers) in self._shadow.cells.items():
            if writers & (writers - 1):
                kind = "write-write"
            elif writers and readers & ~writers:
                kind = "read-write"
            else:
                continue
            out.extend((byte, kind) for byte in range(addr, addr + size))
        out.sort()
        return out
