"""One loop scheduler, held to recorded numbers.

``golden_schedule.json`` was recorded at the commit *before* the
plan → executor → clock → settle refactor (``runtime/plan.py``): the
full :class:`LoopExecution` of three kernels under the three mechanisms
the paper compares, plus a DOACROSS chunk sweep.  Any copy of the
schedule that drifts back in — or any change to the one that is left —
moves one of these numbers.  ``--backend process --workers N`` (see
``conftest.py``) runs the expansion rows on real worker processes; the
recorded values are the same by the bit-identity contract.

Regenerate (only when the cost model is changed on purpose)::

    PYTHONPATH=src python tests/test_schedule.py > tests/golden_schedule.json
"""

import json
import os

import pytest

from repro.analysis import build_access_classes, classify, profile_loop
from repro.baselines import run_runtime_privatization, run_sync_only
from repro.bench.suite import get
from repro.frontend import ast, parse_and_analyze
from repro.runtime import run_parallel
from repro.runtime.stats import LoopExecution
from repro.transform import expand_for_threads

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_schedule.json")
ENGINE = "bytecode"
KERNELS = ("dijkstra", "mpeg2-decoder", "histogram")
THREADS = (1, 4, 8)
CHUNK_KERNEL, CHUNKS = "256.bzip2", (1, 2, 4)


def execution_record(ex: LoopExecution) -> dict:
    return {
        "makespan": ex.makespan, "runtime_cycles": ex.runtime_cycles,
        "executions": ex.executions, "iterations": ex.iterations,
        "threads": [[t.busy_cycles, t.wait_cycles, t.sync_cycles,
                     t.iterations] for t in ex.threads],
    }


def outcome_record(outcome) -> dict:
    return {
        "total_cycles": outcome.total_cycles,
        "races": len(outcome.races),
        "loops": {label: execution_record(ex)
                  for label, ex in sorted(outcome.loops.items())},
    }


class Prepared:
    """Profiles, classification and the transformed program of one
    kernel, computed once for all its rows."""

    def __init__(self, name: str):
        self.spec = get(name)
        self.program, self.sema = parse_and_analyze(self.spec.source)
        self.profiles, self.privs = {}, {}
        for label in self.spec.loop_labels:
            loop = ast.find_loop(self.program, label)
            profile = profile_loop(self.program, self.sema, loop,
                                   engine=ENGINE)
            self.profiles[label] = profile
            self.privs[label] = classify(
                profile.ddg, build_access_classes(profile.ddg))
        self.tresult = expand_for_threads(
            self.program, self.sema, self.spec.loop_labels, optimize=True,
            profiles=self.profiles)

    def expansion(self, n, chunk=1, backend="simulated", workers=None):
        return run_parallel(self.tresult, n, chunk=chunk, engine=ENGINE,
                            backend=backend, workers=workers)

    def rtpriv(self, n):
        # histogram's reduction is beyond runtime privatization: its
        # conflicts are part of the recording, not an error here
        return run_runtime_privatization(
            self.program, self.sema, self.spec.loop_labels, self.profiles,
            self.privs, nthreads=n, engine=ENGINE, raise_on_race=False)

    def sync_only(self, n):
        return run_sync_only(self.program, self.sema,
                             self.spec.loop_labels, self.profiles,
                             nthreads=n, engine=ENGINE)


def measure(backend="simulated", workers=None) -> dict:
    rows = {}
    for name in KERNELS:
        prep = Prepared(name)
        for n in THREADS:
            rows[f"{name}/expansion/{n}"] = outcome_record(
                prep.expansion(n, backend=backend, workers=workers))
            rows[f"{name}/rtpriv/{n}"] = outcome_record(prep.rtpriv(n))
            rows[f"{name}/sync-only/{n}"] = outcome_record(
                prep.sync_only(n))
    prep = Prepared(CHUNK_KERNEL)
    for chunk in CHUNKS:
        rows[f"{CHUNK_KERNEL}/expansion/4/chunk{chunk}"] = outcome_record(
            prep.expansion(4, chunk=chunk, backend=backend,
                           workers=workers))
    return rows


@pytest.fixture(scope="module")
def measured(request):
    return measure(request.config.getoption("--backend"),
                   request.config.getoption("--workers"))


def test_every_recorded_row_is_measured(measured):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert sorted(measured) == sorted(golden)
    assert len(golden) == len(KERNELS) * len(THREADS) * 3 + len(CHUNKS)


def test_loop_executions_match_the_parent_recording(measured):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    drift = [row for row in sorted(golden) if measured[row] != golden[row]]
    assert not drift, {row: (measured[row], golden[row])
                       for row in drift[:2]}


# ---------------------------------------------------------------------------
# the clock, by hand
# ---------------------------------------------------------------------------

#: four iterations on two threads (k on thread k % 2); origin 20 is the
#: one serialized statement: (origin, is_serial, cycles) per statement
HAND = [
    [(10, False, 100.0), (20, True, 50.0), (30, False, 30.0)],
    [(10, False, 40.0), (20, True, 50.0), (30, False, 10.0)],
    [(10, False, 100.0), (20, True, 20.0)],
    [(20, True, 5.0)],
]


def _hand_clock(tracer=None):
    from repro.runtime import ParallelOutcome, RunContext
    from repro.runtime.plan import PipelineClock

    # any labelled loop node will do: the clock only names it in events
    program, _sema = parse_and_analyze(get("histogram").source)
    loop = ast.find_loop(program, "L")
    ctx = RunContext(2, ParallelOutcome(2), tracer=tracer)
    execution = LoopExecution("L", 2)
    return PipelineClock(ctx, loop, execution), execution


def test_pipeline_clock_by_hand_arithmetic():
    from repro.obs import Tracer
    from repro.runtime import sync

    assert (sync.DYNAMIC_DEQUEUE, sync.POST_COST + sync.WAIT_CHECK_COST) \
        == (80.0, 60.0)
    tracer = Tracer()
    clock, execution = _hand_clock(tracer)
    clock.start(1000.0)
    for k, segments in enumerate(HAND):
        clock.feed(k % 2, k, segments)
    # k=0 t0: 80 +100 =180, token 0: no wait, +50 =230 (posted), +30 =260
    # k=1 t1: 80 +40 =120, token 230: wait 110, +50 =280 (posted), +10 =290
    # k=2 t0: 260+80 +100 =440, token 280: no wait, +20 =460 (posted)
    # k=3 t1: 290+80 =370, token 460: wait 90, +5 =465 (posted)
    assert clock.thread_free == [460.0, 465.0]
    assert clock.makespan == 465.0
    t0, t1 = execution.threads
    assert (t0.wait_cycles, t0.sync_cycles, t0.iterations) == (0.0, 120.0, 2)
    assert (t1.wait_cycles, t1.sync_cycles, t1.iterations) == (200.0, 120.0, 2)
    assert execution.iterations == 4
    assert tracer.metrics.get("runtime.token_waits") == 2
    assert tracer.metrics.get("runtime.token_wait_cycles") == 200.0
    assert tracer.metrics.get("runtime.token_posts") == 4


def test_process_replay_is_the_same_clock():
    """What the in-process executor does per iteration (charge the
    dequeue, feed the clock) and what the process executor does with
    the segments its workers streamed back are one computation."""
    from repro.runtime import sync
    from repro.runtime.multicore import replay_pipeline

    live_clock, live = _hand_clock()
    live_clock.start(0.0)
    for k, segments in enumerate(HAND):
        live.threads[k % 2].sync_cycles += sync.DYNAMIC_DEQUEUE
        live_clock.feed(k % 2, k, segments)

    replay_clock, replayed = _hand_clock()
    replay_clock.start(0.0)
    output = []
    replay_pipeline(replay_clock, replayed, output,
                    [(k % 2, segments, [f"line {k}"])
                     for k, segments in enumerate(HAND)])
    assert execution_record(replayed) == execution_record(live)
    assert replay_clock.makespan == live_clock.makespan == 465.0
    assert replayed.threads[1].sync_cycles == 120.0 + 2 * 80.0
    assert output == ["line 0", "line 1", "line 2", "line 3"]


def test_iteration_space_arithmetic():
    from repro.runtime.plan import doacross_owner, doall_chunks

    assert doall_chunks(10, 4) == [(0, 0, 2), (1, 2, 5), (2, 5, 7),
                                   (3, 7, 10)]
    assert doall_chunks(2, 4) == [(1, 0, 1), (3, 1, 2)]   # empties dropped
    assert doall_chunks(0, 4) == []
    assert [doacross_owner(k, 1, 3) for k in range(5)] == [0, 1, 2, 0, 1]
    assert [doacross_owner(k, 2, 2) for k in range(6)] == [0, 0, 1, 1, 0, 0]


if __name__ == "__main__":
    print(json.dumps(measure(), indent=1, sort_keys=True))
