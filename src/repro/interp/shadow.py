"""Cell-granular shadow memory with a byte-exact split path.

The dependence profiler and the race checker both keep state *per byte
of program memory* in principle: benchmarks recast buffers between
element sizes (256.bzip2's ``zptr``), ``memset`` covers many elements
with one access, and ``free`` hands an address to an allocation of
another shape, so only byte-level results are right.  In practice
nearly every access repeats the exact ``(addr, size)`` of the access
before it at that address, and every byte of that range then carries
the same state.  The shadow therefore tracks *cells*:

* a cell is a byte range whose bytes all carry one state, stored as a
  list ``[size, *payload]`` under its start address in
  :attr:`Shadow.cells`; cells never overlap.  A cell starts out as the
  range an access actually used (long ranges — ``memset`` — start as
  runs of :data:`MAX_CELL` bytes, so no split ever moves more);
* :attr:`Shadow.owner` maps every tracked byte to the start of the cell
  that holds it; it is written when a cell is created or split, never
  on an access that finds its cell;
* the observer's own fast path is ``cells.get(addr)`` plus a size
  compare — one dict lookup for the common aligned access;
* anything else goes through :meth:`Shadow.resolve`, which returns the
  cells that cover the access *exactly*: a cell the access only partly
  overlaps is split at the access boundary (both pieces inherit the
  state; a one-byte access in the middle makes three), and an access
  that straddles whole cells gets them all.  Boundaries only ever
  accumulate: a region accessed under two layouts (a recast buffer, a
  freed block reused, a fat pointer read by its pointer half) settles
  on the union of their boundaries — single bytes at worst, which is
  the byte-per-byte tracker this replaces.

The payload layout belongs to the observer; the shadow only needs to
know how to start one (``blank``) and how to copy one for a split
(``clone``; ``list`` suffices when every slot is immutable).
"""

from __future__ import annotations

from typing import Callable, Container, Dict, List, Sequence

#: slot 0 of every cell is its size in bytes
SIZE = 0

#: longest cell a first touch creates: the widest scalar access (a
#: promoted pointer with its span)
MAX_CELL = 16


class Shadow:
    __slots__ = ("cells", "owner", "_blank", "_clone")

    def __init__(self, blank: Sequence,
                 clone: Callable[[list], list] = list):
        #: start address -> [size, *payload]
        self.cells: Dict[int, list] = {}
        #: tracked byte -> start address of its cell
        self.owner: Dict[int, int] = {}
        self._blank = tuple(blank)
        self._clone = clone

    def clear(self) -> None:
        self.cells.clear()
        self.owner.clear()

    def resolve(self, addr: int, size: int, skip: Container[int] = (),
                create: bool = True) -> List[list]:
        """The cells that cover exactly the bytes of ``[addr, addr +
        size)`` not in ``skip``, in address order (the slow path:
        callers try ``cells.get(addr)`` with an equal size first).
        With ``create`` untracked bytes get fresh cells; without it
        they are left out."""
        end = addr + size
        if not skip:
            return self._run(addr, end, create)
        out: List[list] = []
        byte = addr
        while byte < end:
            if byte in skip:
                byte += 1
                continue
            stop = byte + 1
            while stop < end and stop not in skip:
                stop += 1
            out += self._run(byte, stop, create)
            byte = stop
        return out

    def _run(self, lo: int, hi: int, create: bool) -> List[list]:
        cells = self.cells
        owner = self.owner
        out: List[list] = []
        byte = lo
        while byte < hi:
            start = owner.get(byte)
            if start is None:
                stop = byte + 1
                while stop < hi and stop not in owner:
                    stop += 1
                if create:
                    for at in range(byte, stop, MAX_CELL):
                        n = min(MAX_CELL, stop - at)
                        cells[at] = cell = [n, *self._blank]
                        for b in range(at, at + n):
                            owner[b] = at
                        out.append(cell)
                byte = stop
                continue
            if start < byte:
                self._split(start, byte)
                start = byte
            cell = cells[start]
            stop = start + cell[SIZE]
            if stop > hi:
                self._split(start, hi)
                stop = hi
            out.append(cell)
            byte = stop
        return out

    def _split(self, start: int, at: int) -> None:
        """Cut the cell at ``start`` in two at address ``at``."""
        cell = self.cells[start]
        stop = start + cell[SIZE]
        cell[SIZE] = at - start
        self.cells[at] = upper = self._clone(cell)
        upper[SIZE] = stop - at
        owner = self.owner
        for byte in range(at, stop):
            owner[byte] = at
