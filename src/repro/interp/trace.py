"""Memory-access observation utilities.

Observers attach to a :class:`~repro.interp.machine.Machine` and
receive one ``on_access(site, addr, size, is_store)`` call per memory
access.  ``site`` is the AST node id of the access expression — the
vertex identity in the paper's loop-level data dependence graph.

The race checker is not an observer.  It only needs to know which
thread touched which bytes how, not in what order or how often, so it
privatizes its own bookkeeping: :meth:`RaceChecker.attach` publishes
the current thread's set of distinct ``(addr, size, is_store)``
accesses as ``Machine.race_log``, and every access site adds its
triple to that set inline — a repeated access costs one set insertion.
The sets are resolved into per-thread masks once per region (and
whenever the exempt set is about to grow).

"Byte granularity" here means byte-exact *results*: the race checker
reports one ``(address, kind)`` pair per conflicting byte, whatever
the sizes and alignments of the accesses that met there.  Accesses of
one shape are resolved as a whole; only where accesses of different
shapes overlap does the resolve pass cut them into the cells of a
:class:`~repro.interp.shadow.Shadow`.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, islice
from operator import gt
from typing import (
    AbstractSet, Dict, FrozenSet, Iterator, List, NamedTuple, Set, Tuple,
)

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

#: one distinct access of one thread: ``(addr, size, is_store)``
Access = Tuple[int, int, bool]


def _kind(writers: int, readers: int):
    """The conflict on bytes with these thread masks, or None."""
    if writers & (writers - 1):
        return "write-write"
    if writers and readers & ~writers:
        return "read-write"
    return None


def _unexempt(addr: int, size: int,
              exempt: AbstractSet[int]) -> Iterator[Tuple[int, int]]:
    """The runs ``(addr, size)`` of ``[addr, addr + size)`` outside
    ``exempt``."""
    end = addr + size
    byte = addr
    while byte < end:
        if byte in exempt:
            byte += 1
            continue
        stop = byte + 1
        while stop < end and stop not in exempt:
            stop += 1
        yield byte, stop - byte
        byte = stop


class RaceChecker:
    """Cross-thread conflict detector for simulated parallel runs.

    The parallel runtime switches ``current_thread`` as it schedules
    virtual threads; afterwards :meth:`races` reports addresses written
    by one thread and touched by another.  A correct expansion
    transform must produce an empty report for DOALL loops — this is
    the reproduction's substitute for the paper's "runs correctly on
    real hardware" evidence.

    Each thread's accesses land in a set of distinct ``(addr, size,
    is_store)`` triples (:meth:`attach` lets the machine's access sites
    fill it inline; :meth:`on_access` feeds it directly).  Resolving
    folds the sets, exempt bytes left out, into one *cell* per address
    — ``[size, writers, readers]`` for the first shape seen there, the
    thread masks of every access of that shape — and sets aside the
    accesses of any other shape at that address.  A cell that no access
    of another shape overlaps is judged whole, and only when two threads
    touched it; a group of overlapping shapes goes through a
    :class:`~repro.interp.shadow.Shadow`'s byte-exact split path (thread
    0 stores an ``int``, thread 1 its third byte), and only when two
    threads touched the group.
    """

    def __init__(self):
        self._machine = None
        self._tid = 0
        #: only accesses inside a parallel region are checked: a value
        #: written before the loop and read by every thread is sharing,
        #: not racing.  Controllers call begin_region()/end_region().
        self._enabled = False
        #: per thread: the distinct accesses not yet folded
        self._logs: List[Set[Access]] = [set()]
        #: start address -> [size, writers, readers] (the first shape)
        self._cells: Dict[int, list] = {}
        #: (addr, size, is_store, thread bit) of the other shapes
        self._odd: List[Tuple[int, int, bool, int]] = []
        #: cells that more than one thread touched
        self._contested: Set[int] = set()
        self._shadow = Shadow((0, 0))
        self._exempt: FrozenSet[int] = frozenset()
        self._exempt_span = (0, 0)

    def attach(self, machine) -> None:
        """Check the accesses ``machine`` makes: its access sites fill
        ``machine.race_log`` (the current thread's set, or ``None``
        outside a region)."""
        self._machine = machine
        self._publish()

    def _publish(self) -> None:
        machine = self._machine
        if machine is not None:
            machine.race_log = self._logs[self._tid] \
                if self._enabled else None

    @property
    def current_thread(self) -> int:
        return self._tid

    @current_thread.setter
    def current_thread(self, tid: int) -> None:
        logs = self._logs
        while len(logs) <= tid:
            logs.append(set())
        self._tid = tid
        self._publish()

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, on: bool) -> None:
        self._enabled = on
        self._publish()

    @property
    def exempt(self) -> FrozenSet[int]:
        """Addresses exempt from checking (loop control variables the
        scheduler itself rebinds per chunk, the runtime-privatization
        baseline's copies) until the region ends.  An exemption applies
        from the access after it is granted, so what was logged before
        is folded under the old set first."""
        return self._exempt

    @exempt.setter
    def exempt(self, addrs) -> None:
        self._fold()
        self._exempt = exempt = frozenset(addrs)
        self._exempt_span = (min(exempt), max(exempt) + 1) \
            if exempt else (0, 0)

    def on_access(self, site: int, addr: int, size: int, is_store: bool):
        if self._enabled:
            self._logs[self._tid].add((addr, size, is_store))

    def begin_region(self) -> None:
        """Start checking a parallel region (clears per-region state)."""
        for log in self._logs:
            log.clear()
        self._cells.clear()
        self._odd.clear()
        self._contested.clear()
        self.enabled = True

    def end_region(self) -> List[Tuple[int, str]]:
        """Stop checking; returns the region's conflicts.  The region's
        exemptions end with it: heap reuse may hand their bytes to
        shared data later."""
        found = self.races()
        self.enabled = False
        self._exempt = frozenset()
        self._exempt_span = (0, 0)
        return found

    def _fold(self) -> None:
        """Move the logged accesses into the cells, without the bytes
        exempt now."""
        cells = self._cells
        get = cells.get
        odd = self._odd
        contested = self._contested
        exempt = self._exempt
        for tid, log in enumerate(self._logs):
            bit = 1 << tid
            lo, hi = self._exempt_span
            while log:
                spill = []
                for access in log:
                    addr, size, is_store = access
                    if addr < hi and addr + size > lo:
                        spill.append(access)   # may touch exempt bytes
                        continue
                    cell = get(addr)
                    if cell is None:
                        cells[addr] = [size, bit, 0] if is_store \
                            else [size, 0, bit]
                    elif cell[SIZE] == size:
                        if (cell[WRITERS] | cell[READERS]) & ~bit:
                            contested.add(addr)
                        cell[WRITERS if is_store else READERS] |= bit
                    else:
                        odd.append((addr, size, is_store, bit))
                log.clear()
                # what the spilled accesses keep is exempt-free: once more
                log.update((addr, size, is_store)
                           for start, width, is_store in spill
                           for addr, size in _unexempt(start, width, exempt))
                lo = hi = 0

    def races(self) -> List[Tuple[int, str]]:
        """(address, kind) pairs where threads conflict, one per byte,
        in address order."""
        self._fold()
        cells = self._cells
        grouped = self._split_groups()
        out: List[Tuple[int, str]] = []
        judged = [(addr, cells[addr]) for addr in self._contested - grouped]
        for addr, (size, writers, readers) in \
                judged + list(self._shadow.cells.items()):
            kind = _kind(writers, readers)
            if kind is not None:
                out.extend((byte, kind) for byte in range(addr, addr + size))
        out.sort()
        return out

    def _split_groups(self) -> Set[int]:
        """Resolve every group of overlapping shapes that two threads
        touched into the shadow, byte-exactly; returns the start
        addresses of the cells in any group."""
        cells = self._cells
        starts = sorted(cells)
        ends = [addr + cells[addr][SIZE] for addr in starts]
        n = len(starts)
        # a cell that starts inside the one before it, or that holds
        # accesses of another shape, is in a group
        mixed = list(compress(range(1, n),
                              map(gt, ends, islice(starts, 1, None))))
        others: Dict[int, list] = {}
        for addr, size, is_store, bit in self._odd:
            i = bisect_left(starts, addr)
            ends[i] = max(ends[i], addr + size)
            others.setdefault(addr, []).append(
                (addr, size, bit if is_store else 0, 0 if is_store else bit))
            mixed.append(i + 1)
        grouped: Set[int] = set()
        shadow = self._shadow
        shadow.clear()
        done = 0
        for i in sorted(mixed):
            first = i - 1
            if first < done:
                continue            # already in the group before
            end = ends[first]
            done = first + 1
            while done < n and starts[done] < end:
                end = max(end, ends[done])
                done += 1
            group = []
            for addr in starts[first:done]:
                grouped.add(addr)
                group.append((addr, *cells[addr]))
                group += others.get(addr, ())
            threads = 0
            for _, _, writers, readers in group:
                threads |= writers | readers
            if not threads & (threads - 1):
                continue            # one thread: nothing to race with
            for addr, size, writers, readers in group:
                for cell in shadow.resolve(addr, size):
                    cell[WRITERS] |= writers
                    cell[READERS] |= readers
        return grouped
