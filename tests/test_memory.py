"""Memory model unit + property tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.interp.memory import (
    GLOBAL, HEAP, Memory, MemoryError_, STACK,
)


class TestAllocation:
    def test_alloc_returns_aligned_nonnull(self):
        mem = Memory()
        addr = mem.alloc(10)
        assert addr >= 4096 and addr % 8 == 0

    def test_distinct_allocations_disjoint(self):
        mem = Memory()
        a = mem.alloc(16)
        b = mem.alloc(16)
        assert b >= a + 16 or a >= b + 16

    def test_zero_size_allocation_gets_a_byte(self):
        mem = Memory()
        addr = mem.alloc(0)
        assert mem.find(addr).size == 1

    def test_negative_size_raises(self):
        with pytest.raises(MemoryError_):
            Memory().alloc(-1)

    def test_find_interior_address(self):
        mem = Memory()
        addr = mem.alloc(32)
        record = mem.find(addr + 17)
        assert record is not None and record.addr == addr

    def test_find_outside_returns_none(self):
        mem = Memory()
        mem.alloc(8)
        assert mem.find(10) is None  # inside the null guard page

    def test_labels_and_tags(self):
        mem = Memory()
        addr = mem.alloc(8, HEAP, label="zptr", tag=1234)
        record = mem.find(addr)
        assert record.label == "zptr" and record.tag == 1234


class TestFree:
    def test_free_marks_dead(self):
        mem = Memory()
        addr = mem.alloc(8)
        mem.free(addr)
        assert not mem.find(addr).live

    def test_free_interior_raises(self):
        mem = Memory()
        addr = mem.alloc(16)
        with pytest.raises(MemoryError_):
            mem.free(addr + 4)

    def test_free_of_global_raises(self):
        mem = Memory()
        addr = mem.alloc(8, GLOBAL)
        with pytest.raises(MemoryError_):
            mem.free(addr)

    def test_free_null_is_noop(self):
        Memory().free(0)

    def test_heap_address_reuse(self):
        """Deliberate fidelity: freed heap addresses are reused
        (same-size first), which is what creates the loop-carried
        dependences of the paper's dijkstra story."""
        mem = Memory()
        a = mem.alloc(24, HEAP)
        mem.free(a)
        b = mem.alloc(24, HEAP)
        assert b == a

    def test_reuse_requires_same_size(self):
        mem = Memory()
        a = mem.alloc(24, HEAP)
        mem.free(a)
        b = mem.alloc(32, HEAP)
        assert b != a

    def test_reused_block_zeroed(self):
        mem = Memory()
        a = mem.alloc(8, HEAP)
        mem.write_bytes(a, b"\xff" * 8)
        mem.free(a)
        b = mem.alloc(8, HEAP)
        assert mem.read_bytes(b, 8) == b"\0" * 8

    def test_stack_release(self):
        mem = Memory()
        addr = mem.alloc(8, STACK)
        record = mem.find(addr)
        mem.release_stack([record])
        assert not record.live


class TestRealloc:
    def test_realloc_grows_and_copies(self):
        mem = Memory()
        addr = mem.alloc(8, HEAP)
        mem.write_bytes(addr, b"12345678")
        new = mem.realloc(addr, 16)
        assert mem.read_bytes(new, 8) == b"12345678"
        assert not mem.find(addr).live or new == addr

    def test_realloc_null_is_malloc(self):
        mem = Memory()
        addr = mem.realloc(0, 8)
        assert mem.find(addr).live

    def test_realloc_shrinks(self):
        mem = Memory()
        addr = mem.alloc(16, HEAP)
        mem.write_bytes(addr, b"abcdefghijklmnop")
        new = mem.realloc(addr, 4)
        assert mem.read_bytes(new, 4) == b"abcd"


class TestAccessChecking:
    def test_valid_access(self):
        mem = Memory()
        addr = mem.alloc(8)
        assert mem.check_access(addr, 8).addr == addr

    def test_overrun_raises(self):
        mem = Memory()
        addr = mem.alloc(8)
        with pytest.raises(MemoryError_, match="out-of-bounds"):
            mem.check_access(addr + 4, 8)

    def test_null_raises(self):
        with pytest.raises(MemoryError_, match="NULL"):
            Memory().check_access(0, 1)

    def test_dead_block_raises(self):
        mem = Memory()
        addr = mem.alloc(8, HEAP)
        mem.free(addr)
        with pytest.raises(MemoryError_, match="use-after-free"):
            mem.check_access(addr, 1)

    def test_straddling_allocations_raises(self):
        mem = Memory()
        a = mem.alloc(8)
        mem.alloc(8)
        with pytest.raises(MemoryError_):
            mem.check_access(a + 4, 8)

    def test_a_site_keeps_its_block(self):
        mem = Memory()
        a = mem.alloc(8)
        b = mem.alloc(8)
        assert mem.check_access(a, 4, site=1).addr == a
        assert mem.check_access(b, 4, site=2).addr == b
        assert mem.check_access(a + 4, 4, site=1).addr == a
        with pytest.raises(MemoryError_, match="out-of-bounds"):
            mem.check_access(a + 4, 8, site=1)

    def test_a_site_cache_never_hides_a_freed_block(self):
        mem = Memory()
        addr = mem.alloc(8, HEAP)
        mem.check_access(addr, 4, site=7)
        mem.free(addr)
        with pytest.raises(MemoryError_, match="use-after-free"):
            mem.check_access(addr, 4, site=7)

    def test_a_site_cache_never_hides_a_reallocated_block(self):
        mem = Memory()
        addr = mem.alloc(8, HEAP)
        mem.check_access(addr, 4, site=7)
        moved = mem.realloc(addr, 64)
        assert moved != addr
        with pytest.raises(MemoryError_, match="use-after-free"):
            mem.check_access(addr, 4, site=7)
        assert mem.check_access(moved + 32, 4, site=7).addr == moved

    def test_a_restored_snapshot_drops_the_site_cache(self):
        """A block allocated after the snapshot is truncated out of the
        address space, still ``live``: only dropping the cache makes the
        next check at its site a wild access."""
        from repro.frontend import parse_and_analyze
        from repro.interp import Machine
        from repro.runtime.parallel import MachineSnapshot
        machine = Machine(*parse_and_analyze("int main(void) { return 0; }"))
        snapshot = MachineSnapshot(machine)
        mem = machine.memory
        addr = mem.alloc(8, HEAP)
        mem.check_access(addr, 8, site=7)
        snapshot.restore(machine)
        with pytest.raises(MemoryError_, match="wild access"):
            mem.check_access(addr, 8, site=7)


class TestAccounting:
    def test_live_bytes_tracks_alloc_free(self):
        mem = Memory()
        addr = mem.alloc(100, HEAP)
        assert mem.live_bytes[HEAP] == 100
        mem.free(addr)
        assert mem.live_bytes[HEAP] == 0

    def test_peak_persists_after_free(self):
        mem = Memory()
        a = mem.alloc(64, HEAP)
        mem.free(a)
        mem.alloc(8, HEAP)
        assert mem.peak_bytes[HEAP] == 64

    def test_footprint_excludes_stack(self):
        mem = Memory()
        mem.alloc(1000, STACK)
        mem.alloc(10, HEAP)
        mem.alloc(20, GLOBAL)
        assert mem.peak_footprint() == 30

    def test_scalar_roundtrip(self):
        mem = Memory()
        addr = mem.alloc(8)
        mem.write_scalar(addr, "i", -12345)
        assert mem.read_scalar(addr, "i", 4) == -12345
        mem.write_scalar(addr, "d", 2.75)
        assert mem.read_scalar(addr, "d", 8) == 2.75

    def test_cstring(self):
        mem = Memory()
        addr = mem.alloc(8)
        mem.write_bytes(addr, b"hi\0rest!")
        assert mem.read_cstring(addr) == "hi"


class TestZeroCopy:
    """Bulk byte paths: memoryview-sliced, no per-byte Python loop."""

    def test_view_is_zero_copy(self):
        mem = Memory()
        addr = mem.alloc(64)
        mem.write_bytes(addr, bytes(range(64)))
        view = mem.view(addr, 64)
        assert isinstance(view, memoryview)
        assert view.tobytes() == bytes(range(64))
        # writes through the view land in the address space: same
        # backing store, not a copy
        view[0] = 0xFF
        del view  # transient by contract: release before realloc/grow
        assert mem.read_bytes(addr, 1) == b"\xff"

    def test_write_bytes_accepts_memoryview(self):
        mem = Memory()
        a = mem.alloc(32)
        b = mem.alloc(32)
        mem.write_bytes(a, bytes(range(32)))
        mem.write_bytes(b, mem.view(a, 32))   # buffer-to-buffer move
        assert mem.read_bytes(b, 32) == bytes(range(32))

    def test_bounds_checked_bulk_paths(self):
        mem = Memory(check_bounds=True)
        addr = mem.alloc(16)
        with pytest.raises(MemoryError_):
            mem.read_bytes(addr, 32)
        with pytest.raises(MemoryError_):
            mem.write_bytes(addr + 8, b"x" * 16)
        with pytest.raises(MemoryError_):
            mem.view(addr, 17)

    def test_cstring_unterminated_within_limit(self):
        mem = Memory()
        addr = mem.alloc(8)
        mem.write_bytes(addr, b"abcdefgh")
        # no NUL within the limit: exactly limit chars, like the
        # historical per-byte walk
        assert mem.read_cstring(addr, limit=4) == "abcd"
        assert mem.read_cstring(addr, limit=0) == ""


class TestBufferMode:
    """Caller-supplied backing buffer (the shared-memory segment)."""

    def _mem(self, size=1 << 16, **kw):
        backing = bytearray(size)
        return backing, Memory(buffer=backing, limit=size, **kw)

    def test_alloc_and_roundtrip(self):
        backing, mem = self._mem()
        assert mem.shared
        addr = mem.alloc(64, HEAP, label="blk")
        mem.write_bytes(addr, b"Z" * 64)
        assert mem.read_bytes(addr, 64) == b"Z" * 64
        # the bytes really live in the caller's buffer
        assert bytes(backing[addr:addr + 64]) == b"Z" * 64

    def test_same_addresses_as_bytearray_mode(self):
        """Identical allocation sequences produce identical addresses
        in both modes — the heap-image bit-identity contract."""
        _, shared = self._mem()
        private = Memory()
        for size in (8, 24, 100, 1, 64):
            assert shared.alloc(size) == private.alloc(size)

    def test_capacity_exhaustion_is_structured(self):
        _, mem = self._mem(size=1 << 13)
        with pytest.raises(MemoryError_, match="region exhausted"):
            mem.alloc(1 << 13)

    def test_reads_beyond_limit_allowed(self):
        """``limit`` gates allocation only: a worker's Memory may read
        and write anywhere in the segment (the expanded copies live in
        the parent region)."""
        backing = bytearray(1 << 16)
        mem = Memory(check_bounds=False, buffer=backing,
                     base=1 << 12, limit=1 << 13)
        backing[1 << 14] = 0x7B
        assert mem.read_bytes(1 << 14, 1) == b"\x7b"
        mem.write_bytes((1 << 14) + 1, b"\x01")
        assert backing[(1 << 14) + 1] == 1

    def test_reset_region_zeroes_dirty_span(self):
        backing, mem = self._mem()
        addr = mem.alloc(128, HEAP)
        mem.write_bytes(addr, b"\xaa" * 128)
        brk = mem.brk
        mem.reset_region()
        assert mem.brk <= brk
        assert not mem._allocs
        assert bytes(backing[addr:addr + 128]) == bytes(128)
        # a fresh allocation sees zero bytes, like a new bytearray
        again = mem.alloc(128, HEAP)
        assert mem.read_bytes(again, 128) == bytes(128)

    def test_detach_copies_out(self):
        backing, mem = self._mem()
        addr = mem.alloc(16, HEAP)
        mem.write_bytes(addr, b"persist-please!!")
        other = mem.alloc(40, GLOBAL)
        mem.write_bytes(other, bytes(range(40)))
        live = {a.addr: mem.read_bytes(a.addr, a.size)
                for a in mem._allocs if a.live}
        brk = mem.brk
        mem.detach()
        assert not mem.shared
        # only the allocated span is copied, not the whole region
        assert len(mem.data) <= (brk + 7) & ~7 < len(backing)
        # mutating the old backing no longer affects the memory
        backing[addr] = 0
        assert mem.read_bytes(addr, 16) == b"persist-please!!"
        assert {a: mem.read_bytes(a, len(b))
                for a, b in live.items()} == live
        # a later allocation extends the private copy
        grown = mem.alloc(1 << 12, HEAP)
        assert len(mem.data) >= grown + (1 << 12)
        assert mem.read_bytes(grown, 1 << 12) == bytes(1 << 12)


@st.composite
def alloc_free_script(draw):
    """A sequence of alloc(size)/free(handle) operations."""
    ops = []
    live = 0
    for _ in range(draw(st.integers(1, 30))):
        if live and draw(st.booleans()):
            ops.append(("free", draw(st.integers(0, live - 1))))
        else:
            ops.append(("alloc", draw(st.integers(1, 256))))
            live += 1
    return ops


class TestProperties:
    @given(alloc_free_script())
    @settings(max_examples=60, deadline=None)
    def test_alloc_free_invariants(self, script):
        """Live allocations never overlap; accounting matches; reuse
        never hands out a block that is still live."""
        mem = Memory()
        handles = []
        freed = set()
        for op, arg in script:
            if op == "alloc":
                addr = mem.alloc(arg, HEAP)
                record = mem.find(addr)
                assert record.live and record.addr == addr
                handles.append(addr)
            else:
                if arg in freed or handles[arg] in freed:
                    continue
                target = handles[arg]
                if mem.find(target).live and mem.find(target).addr == target:
                    mem.free(target)
                    freed.add(target)
        live = mem.live_allocations(HEAP)
        # pairwise disjoint
        spans = sorted((a.addr, a.end) for a in live)
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2
        assert mem.live_bytes[HEAP] == sum(a.size for a in live)
        assert mem.peak_bytes[HEAP] >= mem.live_bytes[HEAP]
