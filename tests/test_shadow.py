"""The cell-granular shadow memory against the byte-per-byte oracle.

``tests/byte_oracle.py`` keeps the observers the shadow replaced; here
the production profiler must reproduce their :class:`LoopProfile`
field for field — on the nine kernels and on seeded random access
streams built to hit every way a cell can split.
"""

import random

import pytest

from repro.analysis.profiler import LoopProfile, _ProfileObserver, profile_loop
from repro.bench import all_benchmarks, get
from repro.frontend import ast, parse_and_analyze
from repro.interp.shadow import SIZE, Shadow

from .byte_oracle import (
    DDG_FIELDS, ByteProfileObserver, oracle_profile_loop, profile_diff,
)

KERNEL_LOOPS = [(spec.name, label) for spec in all_benchmarks()
                for label in spec.loop_labels]


class TestShadow:
    @staticmethod
    def layout(shadow):
        """[(start, size)] of every cell; checks the owner map on the way."""
        out = sorted((start, cell[SIZE])
                     for start, cell in shadow.cells.items())
        owned = {}
        for start, size in out:
            for byte in range(start, start + size):
                assert byte not in owned, "cells overlap"
                owned[byte] = start
        assert owned == shadow.owner
        return out

    def test_first_touch_is_one_cell(self):
        shadow = Shadow((0,))
        (cell,) = shadow.resolve(100, 4)
        assert cell == [4, 0]
        assert self.layout(shadow) == [(100, 4)]
        assert shadow.resolve(100, 4) == [cell]

    def test_partial_overlap_splits_at_the_access_boundaries(self):
        shadow = Shadow((0,))
        (cell,) = shadow.resolve(100, 4)
        cell[1] = 7
        group = shadow.resolve(102, 4)
        assert group == [[2, 7], [2, 0]]       # inherited, fresh
        assert self.layout(shadow) == [(100, 2), (102, 2), (104, 2)]
        # the straddled cells serve the old shape whole, without more cuts
        assert shadow.resolve(100, 4) == [[2, 7], [2, 7]]
        assert len(self.layout(shadow)) == 3

    def test_one_byte_in_the_middle_makes_three(self):
        shadow = Shadow((0,))
        shadow.resolve(100, 8)
        (middle,) = shadow.resolve(103, 1)
        middle[1] = 9
        assert self.layout(shadow) == [(100, 3), (103, 1), (104, 4)]
        assert [c[1] for c in shadow.resolve(100, 8)] == [0, 9, 0]

    def test_split_copies_go_through_clone(self):
        shadow = Shadow(({},), clone=lambda c: [c[0], dict(c[1])])
        (cell,) = shadow.resolve(8, 2)
        cell[1] = {"k": 1}
        (low,), (high,) = shadow.resolve(8, 1), shadow.resolve(9, 1)
        high[1]["k"] = 2
        assert low[1] == {"k": 1}

    def test_long_first_touch_is_chopped(self):
        shadow = Shadow((0,))
        group = shadow.resolve(1000, 40)          # a memset
        assert [c[SIZE] for c in group] == [16, 16, 8]
        assert self.layout(shadow) == [(1000, 16), (1016, 16), (1032, 8)]
        # an element walk then cuts 16 bytes at a time at most
        assert shadow.resolve(1004, 4) == [[4, 0]]
        assert self.layout(shadow)[:3] == [(1000, 4), (1004, 4), (1008, 8)]

    def test_gaps_fill_between_tracked_cells(self):
        shadow = Shadow((0,))
        shadow.resolve(104, 2)
        group = shadow.resolve(100, 8)
        assert [c[SIZE] for c in group] == [4, 2, 2]
        assert self.layout(shadow) == [(100, 4), (104, 2), (106, 2)]

    def test_skip_and_no_create(self):
        shadow = Shadow((0,))
        assert shadow.resolve(50, 4, create=False) == []
        assert not shadow.cells and not shadow.owner
        group = shadow.resolve(50, 4, skip=range(52, 54))
        assert group == [[2, 0]] and self.layout(shadow) == [(50, 2)]
        assert shadow.resolve(48, 8, skip=range(48, 56)) == []
        # skipped bytes cut the cells they fall in, and stay untouched
        shadow.resolve(60, 4)
        group = shadow.resolve(58, 6, skip={61}, create=False)
        assert [c[SIZE] for c in group] == [1, 2]
        assert self.layout(shadow) == [(50, 2), (60, 1), (61, 1), (62, 2)]


class TestKernelProfiles:
    @pytest.mark.parametrize("name,label", KERNEL_LOOPS)
    def test_profile_equals_byte_oracle(self, name, label):
        program, sema = parse_and_analyze(get(name).source)
        loop = ast.find_loop(program, label)
        got = profile_loop(program, sema, loop, engine="bytecode")
        want = oracle_profile_loop(program, sema, loop, engine="bytecode")
        assert got.ddg.edges and not profile_diff(got, want)

    def test_walker_and_bytecode_profiles_agree(self):
        program, sema = parse_and_analyze(get("histogram").source)
        loop = ast.find_loop(program, "L")
        assert not profile_diff(
            profile_loop(program, sema, loop, engine="ast"),
            profile_loop(program, sema, loop, engine="bytecode"))


class _Record:
    kind = "heap"

    def __init__(self, tag):
        self.tag = tag
        self.label = f"obj{tag}"
        self.size = 32


class _Memory:
    """32-byte objects tiling the arena."""

    def __init__(self):
        self.records = {}

    def find(self, addr):
        return self.records.setdefault(addr // 32, _Record(addr // 32))


class _Machine:
    def __init__(self):
        self.memory = _Memory()


BASE = 4096
#: ``int`` elements, always accessed whole: never leaves the fast path
TYPED = range(BASE, BASE + 64, 4)
#: any size at any offset: straddles, recasts, partial overlaps, memsets
CHAOS = range(BASE + 64, BASE + 128)
#: where the control variable lives in some executions: inside CHAOS
CONTROL = range(BASE + 96, BASE + 100)


def _accesses(rng, n):
    for _ in range(n):
        site = rng.randrange(12)
        if rng.random() < 0.4:
            yield site, rng.choice(TYPED), 4, rng.random() < 0.5
        else:
            size = rng.choice((1, 1, 2, 2, 4, 4, 8, 8, 16, 40))
            addr = rng.randrange(CHAOS.start, CHAOS.stop - size + 1)
            yield site + 12, addr, size, rng.random() < 0.5


def _snapshot(profile):
    return {f: (dict if f == "dyn_counts" else set)(getattr(profile.ddg, f))
            for f in DDG_FIELDS}, {
        s: set(objs) for s, objs in profile.site_objects.items()}


class TestRandomStreams:
    @pytest.mark.parametrize("seed", range(40))
    def test_observers_agree_after_every_phase(self, seed):
        rng = random.Random(seed)
        observers = []
        for cls in (_ProfileObserver, ByteProfileObserver):
            profile = LoopProfile(None)
            observers.append(cls(_Machine(), profile))

        def feed(n):
            for event in _accesses(rng, n):
                for obs in observers:
                    obs.on_access(*event)
            new, old = (_snapshot(obs.profile) for obs in observers)
            assert new == old

        feed(rng.randrange(20))          # before the loop first runs
        k = 0
        for _execution in range(rng.randrange(2, 5)):
            exempt = CONTROL if rng.random() < 0.7 else range(0)
            for obs in observers:
                obs.exempt = exempt
                obs.begin_execution()
            for _iteration in range(rng.randrange(1, 6)):
                for obs in observers:
                    obs.begin_iteration(k)
                k += 1
                feed(rng.randrange(1, 40))
            for obs in observers:
                obs.end_execution()
                obs.exempt = range(0)
            feed(rng.randrange(30))      # post-loop loads and kills
        # what is still pending downward exposure, byte by byte
        for byte in range(BASE, BASE + 128):
            for obs in observers:
                obs.on_access(99, byte, 1, False)
        new, old = (_snapshot(obs.profile) for obs in observers)
        assert new == old
        assert new[0]["edges"], "stream too short to mean anything"
