"""Flat byte-addressable memory for the MiniC machine.

One linear address space backed by a growable ``bytearray`` — or, in
*buffer mode*, by a caller-supplied writable buffer (the multi-core
backend maps one ``multiprocessing.shared_memory`` segment into every
process and hands each machine a ``memoryview`` of it, so redirected
accesses from all workers hit the same bytes):

* address 0 is NULL; the first page is never allocated so stray
  dereferences of small offsets fault;
* a bump allocator serves globals, string literals, stack frames and
  the heap; freed blocks are marked dead but not reused (allocation
  identity is stable, which the analyses rely on);
* every allocation is recorded, so loads/stores can be checked against
  live blocks (memory safety violations in transformed programs are
  bugs we want to *catch*, not mask);
* live-byte and peak accounting per segment kind feeds the paper's
  Figure 14 (memory usage multiples);
* the native tier runs ``malloc``/``free`` in C over a mirror of the
  heap policy: :attr:`Memory.heap_log` carries the heap operations
  Python makes to that mirror, and :meth:`Memory.replay_alloc` /
  :meth:`Memory.replay_free` take back the ones C made, re-deciding
  each under the same policy and refusing any that disagrees.

The byte-level layout is faithful on purpose: the paper's span
arithmetic (``tid * span / sizeof(*p)``) and benchmarks that recast
buffers between element sizes (256.bzip2's ``zptr``) only make sense
against real byte offsets.
"""

from __future__ import annotations

import bisect
import struct as _struct
from typing import Dict, List, Optional

from ..diagnostics import DiagnosableError

#: allocation kinds (segments)
GLOBAL = "global"
RODATA = "rodata"
STACK = "stack"
HEAP = "heap"

_NULL_GUARD = 4096  # first page reserved; address 0 is NULL

#: heap-op log records: ``(HEAP_LIVE | HEAP_FREE, addr, size)``
HEAP_LIVE = 1
HEAP_FREE = 2
#: a longer log is dropped for a rebuild of the mirror it feeds
_HEAP_LOG_CAP = 4096

#: pre-compiled little-endian codecs, one per scalar struct format.  The
#: set of formats is the closed set of CType.fmt values ("b"/"h"/"i"/"q"
#: and unsigned/float variants), so the cache never grows past a dozen
#: entries; the fat-pointer span slot ("q") shares the same codec on the
#: redirect path.
_CODECS: Dict[str, _struct.Struct] = {}


def scalar_codec(fmt: str) -> _struct.Struct:
    """The compiled ``struct.Struct`` for one little-endian scalar."""
    codec = _CODECS.get(fmt)
    if codec is None:
        codec = _CODECS[fmt] = _struct.Struct("<" + fmt)
    return codec


class MemoryError_(Exception):
    """Raised on invalid memory operations (OOB, use-after-free...)."""


class HeapReplayError(DiagnosableError):
    """A heap operation compiled code made is not the one this policy
    makes: the two spellings of the allocator disagree.  Deliberately
    not a :class:`MemoryError_` — no runtime recovery may absorb it."""

    default_code = "INTERP-HEAP-REPLAY"
    default_phase = "interp"


class Allocation:
    __slots__ = ("addr", "size", "end", "kind", "live", "label", "tag")

    def __init__(self, addr: int, size: int, kind: str, label: str = "",
                 tag: int = 0):
        self.addr = addr
        self.size = size
        #: one past the last byte; precomputed (``size`` never changes
        #: after construction — realloc makes a new record), because the
        #: containment checks in :meth:`Memory.check_access` /
        #: :meth:`Memory.find` read it on every machine memory access
        self.end = addr + size
        self.kind = kind
        self.live = True
        self.label = label
        #: AST node id of the allocation site (malloc Call node for heap,
        #: VarDecl node for globals/stack); object identity for analyses
        self.tag = tag

    def __repr__(self) -> str:
        state = "live" if self.live else "dead"
        return f"<Alloc {self.kind} @{self.addr}+{self.size} {state} {self.label}>"


class Memory:
    """The machine's address space."""

    def __init__(self, check_bounds: bool = True, reuse_heap: bool = True,
                 buffer=None, base: int = 0, limit: Optional[int] = None):
        if buffer is not None:
            # buffer mode: fixed-capacity region [base, limit) of a
            # caller-owned writable buffer (typically a shared-memory
            # segment).  The buffer must be zero-filled on arrival —
            # bytearray mode zero-extends, and NULL-guard semantics
            # rely on page zero staying clean.
            view = buffer if isinstance(buffer, memoryview) \
                else memoryview(buffer)
            self.data = view
            self.shared = True
            self.limit: Optional[int] = \
                len(view) if limit is None else limit
            self.brk = max(base, _NULL_GUARD)
        else:
            self.data = bytearray(_NULL_GUARD)
            self.shared = False
            self.limit = None
            self.brk = _NULL_GUARD
        self.check_bounds = check_bounds
        #: allocations sorted by start address (bump allocator => append order)
        self._allocs: List[Allocation] = []
        self._starts: List[int] = []
        #: exact-size free lists for heap blocks.  Address reuse is
        #: deliberate fidelity: the paper's motivating loops (dijkstra's
        #: queue nodes) only exhibit loop-carried anti/output dependences
        #: because real malloc hands back freed addresses.
        self.reuse_heap = reuse_heap
        self._freelist: Dict[int, List[Allocation]] = {}
        #: heap operations made here since a native heap mirror last
        #: took them, in order — ``None`` unless a mirror is attached;
        #: ``[None]`` asks the mirror to rebuild from the records
        self.heap_log: Optional[list] = None
        # accounting
        self.live_bytes: Dict[str, int] = {GLOBAL: 0, RODATA: 0, STACK: 0, HEAP: 0}
        self.peak_bytes: Dict[str, int] = dict(self.live_bytes)
        self.total_allocs = 0
        #: two-entry last-hit lookup cache: tight loops touch one block
        #: many times in a row (and copy loops alternate between two),
        #: so remembering the last allocations that satisfied a lookup
        #: skips the bisect.  Killed on free/realloc and on snapshot
        #: restore (:meth:`invalidate_lookup_cache`).
        self._hit: Optional[Allocation] = None
        self._hit2: Optional[Allocation] = None

    # -- allocation -------------------------------------------------------
    def alloc(self, size: int, kind: str = HEAP, label: str = "",
              tag: int = 0) -> int:
        """Allocate ``size`` bytes (8-byte aligned); returns the address."""
        if size < 0:
            raise MemoryError_(f"negative allocation size {size}")
        size = max(size, 1)
        addr = self._alloc(size, kind, label, tag, None)
        if self.heap_log is not None and kind == HEAP:
            self._log_heap(HEAP_LIVE, addr, size)
        return addr

    def replay_alloc(self, addr: int, size: int, label: str,
                     tag: int) -> None:
        """Record the heap block compiled code allocated at ``addr``:
        the policy of :meth:`alloc` without its byte writes (the block
        may have been written since), which must choose ``addr`` too."""
        self._alloc(size, HEAP, label, tag, addr)

    def _alloc(self, size: int, kind: str, label: str, tag: int,
               placed: Optional[int]) -> int:
        if kind == HEAP and self.reuse_heap:
            bucket = self._freelist.get(size)
            if bucket:
                record = bucket[-1]
                if placed is None:
                    self.data[record.addr:record.end] = b"\0" * record.size
                elif placed != record.addr:
                    raise HeapReplayError(
                        f"compiled malloc({size}) took {placed}, the "
                        f"free list hands back {record.addr}")
                bucket.pop()
                record.live = True
                record.label = label
                record.tag = tag
                live = self.live_bytes[kind] + size
                self.live_bytes[kind] = live
                if live > self.peak_bytes[kind]:
                    self.peak_bytes[kind] = live
                self.total_allocs += 1
                self._hit = record
                return record.addr
        addr = (self.brk + 7) & ~7
        end = addr + size
        if placed is not None and placed != addr:
            raise HeapReplayError(
                f"compiled malloc({size}) took {placed}, the bump "
                f"allocator hands out {addr}")
        if self.limit is not None:
            # buffer mode: the region is fixed — no extend.  Exhaustion
            # is a recoverable runtime condition (the parallel runtime
            # rolls back and falls back to a smaller footprint).
            if end > self.limit:
                raise MemoryError_(
                    f"memory region exhausted: need {end} bytes, "
                    f"region capacity {self.limit}"
                )
        elif end > len(self.data):
            self.data.extend(b"\0" * max(end - len(self.data), 65536))
        self.brk = end
        record = Allocation(addr, size, kind, label, tag)
        self._allocs.append(record)
        self._starts.append(addr)
        live = self.live_bytes[kind] + size
        self.live_bytes[kind] = live
        if live > self.peak_bytes[kind]:
            self.peak_bytes[kind] = live
        self.total_allocs += 1
        self._hit = record
        return addr

    def _log_heap(self, op: int, addr: int, size: int) -> None:
        log = self.heap_log
        if log and log[0] is None:
            return  # a rebuild is pending: it reads the records anyway
        if len(log) < _HEAP_LOG_CAP:
            log.append((op, addr, size))
        else:
            self.mark_heap_stale()

    def mark_heap_stale(self) -> None:
        """The heap records were rewritten wholesale (snapshot restore,
        region reset, detach): an attached mirror rebuilds from them."""
        if self.heap_log is not None:
            self.heap_log[:] = [None]

    def reset_region(self, base: int = 0) -> None:
        """Rewind the allocator to an empty region starting at ``base``,
        zeroing everything allocated so far (buffer mode: worker arenas
        are reset between tasks so fresh allocations see zero bytes,
        exactly like a freshly extended bytearray)."""
        floor = max(base, _NULL_GUARD)
        if self.brk > floor:
            self.data[floor:self.brk] = bytes(self.brk - floor)
        self.brk = floor
        self._allocs.clear()
        self._starts.clear()
        self._freelist.clear()
        for kind in self.live_bytes:
            self.live_bytes[kind] = 0
        self.peak_bytes = dict(self.live_bytes)
        self.total_allocs = 0
        self.invalidate_lookup_cache()
        self.mark_heap_stale()

    def detach(self) -> None:
        """Buffer mode: replace the shared backing with a private
        bytearray copy of the region so the address space stays
        inspectable after the owning segment is closed.  No-op in
        bytearray mode."""
        if not self.shared:
            return
        snap = bytearray(self.data[:self.limit])
        self.data = snap
        self.shared = False
        self.limit = None
        self.mark_heap_stale()

    def free(self, addr: int) -> None:
        """Free a heap block; must be the start of a live heap allocation."""
        if addr == 0:
            return  # free(NULL) is a no-op, like C
        record = self.find(addr)
        if record is None or not record.live or record.addr != addr:
            raise MemoryError_(f"invalid free({addr})")
        if record.kind not in (HEAP,):
            raise MemoryError_(f"free of non-heap address {addr} ({record.kind})")
        self._kill(record)
        if self.heap_log is not None:
            self._log_heap(HEAP_FREE, addr, record.size)

    def replay_free(self, addr: int) -> None:
        """Record a ``free`` compiled code made: ``addr`` must be the
        start of a live heap block here too."""
        record = self.find(addr)
        if record is None or not record.live or record.addr != addr \
                or record.kind != HEAP:
            raise HeapReplayError(
                f"compiled free({addr}) is not of a live heap block")
        self._kill(record)

    def _kill(self, record: Allocation) -> None:
        record.live = False
        if self._hit is record:
            self._hit = None
        if self._hit2 is record:
            self._hit2 = None
        self.live_bytes[record.kind] -= record.size
        if record.kind == HEAP and self.reuse_heap:
            self._freelist.setdefault(record.size, []).append(record)

    def release_stack(self, records: List[Allocation]) -> None:
        """Free a frame's stack allocations on function return."""
        for record in records:
            if record.live:
                self._kill(record)

    def realloc(self, addr: int, new_size: int) -> int:
        """C realloc: grow/shrink by copy; realloc(NULL, n) == malloc."""
        if addr == 0:
            return self.alloc(new_size, HEAP)
        record = self.find(addr)
        if record is None or not record.live or record.addr != addr:
            raise MemoryError_(f"invalid realloc({addr})")
        new_addr = self.alloc(new_size, HEAP, record.label, record.tag)
        keep = min(record.size, new_size)
        self.data[new_addr:new_addr + keep] = self.data[addr:addr + keep]
        self._kill(record)
        if self.heap_log is not None:
            self._log_heap(HEAP_FREE, addr, record.size)
        return new_addr

    # -- lookup -------------------------------------------------------------
    def invalidate_lookup_cache(self) -> None:
        """Drop the last-hit cache.  Must be called whenever the
        allocation table is rewritten wholesale (snapshot restore
        truncates ``_allocs``), since a cached record may no longer be
        part of the address space."""
        self._hit = None
        self._hit2 = None

    def find(self, addr: int) -> Optional[Allocation]:
        """The allocation containing ``addr``, or None."""
        hit = self._hit
        if hit is not None and hit.addr <= addr < hit.end:
            return hit
        hit = self._hit2
        if hit is not None and hit.addr <= addr < hit.end:
            self._hit2 = self._hit
            self._hit = hit
            return hit
        i = bisect.bisect_right(self._starts, addr) - 1
        if i < 0:
            return None
        record = self._allocs[i]
        if addr >= record.end:
            return None
        self._hit2 = self._hit
        self._hit = record
        return record

    def check_access(self, addr: int, size: int) -> Allocation:
        """Validate that [addr, addr+size) lies in one live allocation."""
        hit = self._hit
        if hit is not None and hit.live and hit.addr <= addr \
                and addr + size <= hit.end:
            return hit
        hit = self._hit2
        if hit is not None and hit.live and hit.addr <= addr \
                and addr + size <= hit.end:
            self._hit2 = self._hit
            self._hit = hit
            return hit
        if addr == 0:
            raise MemoryError_("NULL dereference")
        record = self.find(addr)
        if record is None:
            raise MemoryError_(f"wild access at {addr} (size {size})")
        if not record.live:
            raise MemoryError_(f"use-after-free at {addr} in {record!r}")
        if addr + size > record.end:
            raise MemoryError_(
                f"out-of-bounds access at {addr}+{size} in {record!r}"
            )
        return record

    # -- raw byte access -------------------------------------------------------
    def read_bytes(self, addr: int, size: int) -> bytes:
        if self.check_bounds:
            self.check_access(addr, size)
        return bytes(self.data[addr:addr + size])

    def view(self, addr: int, size: int) -> memoryview:
        """Zero-copy window over ``[addr, addr+size)``.  The view must
        stay *transient*: in bytearray mode a live export pins the
        backing store against growth, so callers read/copy and drop it
        within the same operation (memcpy, struct blob moves)."""
        if self.check_bounds:
            self.check_access(addr, size)
        data = self.data
        if type(data) is bytearray:
            return memoryview(data)[addr:addr + size]
        return data[addr:addr + size]

    def write_bytes(self, addr: int, payload) -> None:
        """Write a bytes-like object (bytes/bytearray/memoryview —
        buffer payloads land without an intermediate copy)."""
        if self.check_bounds:
            self.check_access(addr, len(payload))
        self.data[addr:addr + len(payload)] = payload

    def read_scalar(self, addr: int, fmt: str, size: int):
        """Read one scalar with struct format ``fmt`` (no bounds check
        here; the machine checks before tracing)."""
        codec = _CODECS.get(fmt)
        if codec is None:
            codec = _CODECS[fmt] = _struct.Struct("<" + fmt)
        return codec.unpack_from(self.data, addr)[0]

    def write_scalar(self, addr: int, fmt: str, value) -> None:
        codec = _CODECS.get(fmt)
        if codec is None:
            codec = _CODECS[fmt] = _struct.Struct("<" + fmt)
        codec.pack_into(self.data, addr, value)

    def read_cstring(self, addr: int, limit: int = 1 << 20) -> str:
        """Read a NUL-terminated string (for print_str and errors)."""
        if limit <= 0:
            return ""
        data = self.data
        end = addr + limit
        if type(data) is bytearray:
            nul = data.find(0, addr, end)
            if nul >= 0:
                return data[addr:nul].decode("latin-1")
            if end <= len(data):
                # no terminator within the limit: return exactly
                # ``limit`` characters, like the historical per-byte walk
                return data[addr:end].decode("latin-1")
            # unterminated string running off the end of memory
            raise IndexError("bytearray index out of range")
        # buffer mode: memoryview has no .find — scan in chunks without
        # materializing the whole prefix
        stop = min(end, len(data))
        pieces = []
        pos = addr
        while pos < stop:
            chunk = bytes(data[pos:min(pos + 512, stop)])
            nul = chunk.find(0)
            if nul >= 0:
                pieces.append(chunk[:nul])
                return b"".join(pieces).decode("latin-1")
            pieces.append(chunk)
            pos += len(chunk)
        if end <= len(data):
            return b"".join(pieces).decode("latin-1")
        raise IndexError("bytearray index out of range")

    # -- accounting -------------------------------------------------------------
    def peak_footprint(self) -> int:
        """Peak live bytes across globals + heap (Figure 14's measure;
        stack is excluded as the paper measures data-structure memory)."""
        return self.peak_bytes[GLOBAL] + self.peak_bytes[HEAP] + \
            self.peak_bytes[RODATA]

    def live_allocations(self, kind: Optional[str] = None) -> List[Allocation]:
        return [
            a for a in self._allocs
            if a.live and (kind is None or a.kind == kind)
        ]
