"""Access-trace observer and race-checker unit tests."""

import random

import pytest

from repro.frontend import parse_and_analyze
from repro.interp import (
    FootprintObserver, Machine, RaceChecker, RecordingObserver,
)

from .byte_oracle import ByteRaceChecker


def machine_for(source):
    program, sema = parse_and_analyze(source)
    return Machine(program, sema)


SRC = """
int g;
int main(void) {
    int *p = (int*)malloc(8);
    p[0] = 1;
    p[1] = p[0] + 1;
    g = p[1];
    free(p);
    return 0;
}
"""


class TestRecordingObserver:
    def test_events_ordered_and_typed(self):
        machine = machine_for(SRC)
        obs = RecordingObserver()
        machine.observers.append(obs)
        machine.run()
        stores = [e for e in obs.events if e.is_store]
        loads = [e for e in obs.events if not e.is_store]
        assert len(stores) >= 3 and len(loads) >= 2
        # p[0] store precedes its load
        p0_store = next(e for e in stores if e.size == 4)
        p0_load = next(e for e in loads if e.addr == p0_store.addr)
        assert obs.events.index(p0_store) < obs.events.index(p0_load)

    def test_sites_are_node_ids(self):
        machine = machine_for(SRC)
        obs = RecordingObserver()
        machine.observers.append(obs)
        machine.run()
        nids = {n.nid for n in machine.program.walk()}
        assert all(e.site in nids for e in obs.events)


class TestFootprintObserver:
    def test_byte_totals(self):
        machine = machine_for(SRC)
        obs = FootprintObserver()
        machine.observers.append(obs)
        machine.run()
        assert sum(obs.writes.values()) >= 12  # three 4-byte stores
        assert sum(obs.reads.values()) >= 8


class TestRaceChecker:
    def test_disabled_outside_region(self):
        checker = RaceChecker()
        checker.on_access(1, 100, 4, True)
        assert not checker.races()

    def test_conflict_detection(self):
        checker = RaceChecker()
        checker.begin_region()
        checker.current_thread = 0
        checker.on_access(1, 100, 4, True)
        checker.current_thread = 1
        checker.on_access(2, 102, 4, True)   # overlaps bytes 102-103
        races = checker.end_region()
        assert races and races[0][1] == "write-write"

    def test_shared_reads_fine(self):
        checker = RaceChecker()
        checker.begin_region()
        for tid in range(4):
            checker.current_thread = tid
            checker.on_access(1, 100, 4, False)
        assert not checker.end_region()

    def test_read_write_conflict(self):
        checker = RaceChecker()
        checker.begin_region()
        checker.current_thread = 0
        checker.on_access(1, 100, 4, True)
        checker.current_thread = 1
        checker.on_access(2, 100, 4, False)
        races = checker.end_region()
        assert ("read-write" in {kind for _, kind in races})

    def test_same_thread_no_conflict(self):
        checker = RaceChecker()
        checker.begin_region()
        checker.current_thread = 2
        checker.on_access(1, 100, 4, True)
        checker.on_access(2, 100, 4, False)
        assert not checker.end_region()

    def test_exempt_addresses(self):
        checker = RaceChecker()
        checker.exempt = set(range(100, 104))
        checker.begin_region()
        checker.current_thread = 0
        checker.on_access(1, 100, 4, True)
        checker.current_thread = 1
        checker.on_access(2, 100, 4, True)
        assert not checker.end_region()

    def test_regions_reset_state(self):
        checker = RaceChecker()
        checker.begin_region()
        checker.current_thread = 0
        checker.on_access(1, 100, 4, True)
        checker.end_region()
        checker.begin_region()
        checker.current_thread = 1
        checker.on_access(2, 100, 4, True)   # different region: no clash
        assert not checker.end_region()

    def test_exemptions_end_with_their_region(self):
        """Bytes exempt in one region are checked in the next (the
        runtime-privatization baseline frees its copies at commit, and
        heap reuse hands their addresses to shared data): region 2
        reports what it would on a fresh checker."""
        def region_two(checker):
            checker.begin_region()
            for tid in (0, 1):
                checker.current_thread = tid
                checker.on_access(1, 100, 4, True)
            return checker.end_region()

        checker = RaceChecker()
        checker.exempt |= set(range(100, 104))
        checker.begin_region()
        checker.on_access(1, 100, 4, True)
        assert not checker.end_region()
        got = region_two(checker)
        assert got == [(b, "write-write") for b in range(100, 104)]
        assert set(got) == set(region_two(ByteRaceChecker()))

    def test_report_is_one_pair_per_byte_in_address_order(self):
        checker = RaceChecker()
        checker.begin_region()
        checker.on_access(1, 200, 8, True)
        checker.current_thread = 1
        checker.on_access(2, 200, 8, False)
        assert checker.races() == [(b, "read-write") for b in range(200, 208)]

    def test_disabled_checker_never_reaches_its_shadow(self):
        checker = RaceChecker()
        checker._shadow = None          # any use would raise
        checker.on_access(1, 100, 4, True)
        assert not checker.enabled


def _both(script):
    """Run ``script(checker)`` on the byte-per-byte oracle and on the
    cell-granular checker; their reports must be the same set."""
    reports = []
    for cls in (ByteRaceChecker, RaceChecker):
        checker = cls()
        script(checker)
        found = checker.races()
        assert len(set(found)) == len(found)
        reports.append(set(found))
    assert reports[0] == reports[1]
    return reports[1]


class TestRaceCheckerParity:
    """Byte-exact reports from cell-granular bookkeeping (the oracle
    lives in ``tests/byte_oracle.py``)."""

    def test_partial_overlap_write_write(self):
        def script(checker):
            checker.begin_region()
            checker.on_access(1, 100, 4, True)     # thread 0: an int
            checker.current_thread = 1
            checker.on_access(2, 102, 1, True)     # thread 1: its 3rd byte
        assert _both(script) == {(102, "write-write")}

    def test_recast_read_against_wide_write(self):
        def script(checker):
            checker.begin_region()
            checker.on_access(1, 96, 8, True)
            checker.current_thread = 2
            checker.on_access(2, 98, 2, False)
            checker.on_access(3, 102, 4, False)    # straddles the end
        assert _both(script) == {(b, "read-write")
                                 for b in (98, 99, 102, 103)}

    def test_exempt_grown_before_a_region(self):
        def script(checker):
            checker.exempt |= set(range(100, 104))
            checker.begin_region()
            for tid in (0, 1):
                checker.current_thread = tid
                checker.on_access(1, 100, 4, True)   # all exempt
                checker.on_access(2, 102, 4, True)   # half exempt
        assert _both(script) == {(104, "write-write"),
                                 (105, "write-write")}

    def test_exempt_grown_inside_a_region(self):
        """Exemption applies from the access after it is granted: what
        thread 0 wrote before stays on the books (the runtime-
        privatization baseline exempts copies as it makes them)."""
        def script(checker):
            checker.begin_region()
            checker.on_access(1, 100, 4, True)
            checker.on_access(1, 200, 4, True)
            checker.exempt |= set(range(100, 102))
            checker.current_thread = 1
            checker.on_access(1, 100, 4, True)
            checker.on_access(1, 200, 4, False)
        assert _both(script) == (
            {(b, "write-write") for b in (102, 103)}
            | {(b, "read-write") for b in range(200, 204)})

    def test_begin_region_clears_split_cells_too(self):
        def script(checker):
            checker.begin_region()
            checker.on_access(1, 100, 4, True)
            checker.on_access(1, 101, 2, True)
            checker.end_region()
            checker.begin_region()
            checker.current_thread = 1
            checker.on_access(1, 100, 4, True)
        assert _both(script) == set()

    @pytest.mark.parametrize("seed", range(25))
    def test_random_streams(self, seed):
        def script(checker):
            rng = random.Random(seed)
            checker.begin_region()
            for _ in range(300):
                if rng.random() < 0.05:
                    lo = rng.randrange(1000, 1060)
                    checker.exempt |= set(range(lo, lo + 4))
                checker.current_thread = rng.randrange(4)
                if rng.random() < 0.5:
                    addr, size = 1000 + 4 * rng.randrange(8), 4
                else:
                    size = rng.choice((1, 2, 4, 8, 16, 24))
                    addr = rng.randrange(1032, 1064 - size + 1)
                checker.on_access(0, addr, size, rng.random() < 0.3)
        assert _both(script)
