"""Benchmark harness unit tests (on a tiny synthetic benchmark so they
stay fast)."""

import pytest

from repro.bench.harness import Harness, VerificationError, _check_output
from repro.bench.suite import BenchmarkSpec, PaperNumbers

TINY = BenchmarkSpec(
    name="tiny-test-kernel",
    suite="Synthetic",
    source="""
int buf[24];
int out[8];
int main(void) {
    int i; int k; int b;
    #pragma expand parallel(doall)
    L: for (i = 0; i < 8; i++) {
        for (k = 0; k < 24; k++) buf[k] = (i * k + 1) % 13;
        b = buf[23] + buf[2];
        out[i] = b;
    }
    for (i = 0; i < 8; i++) print_int(out[i]);
    return 0;
}
""",
    loop_labels=["L"],
    function="main",
    level=1,
    parallelism="DOALL",
    paper=PaperNumbers(loc=999, pct_time=90.0, privatized=1),
)


@pytest.fixture(scope="module")
def tiny_result():
    # bypass the global registry so all_benchmarks() stays pristine
    harness = Harness(thread_counts=(1, 2, 4))
    result = harness._compute(TINY)
    harness._cache[TINY.name] = result
    return result


class TestHarnessMeasurements:
    def test_sequential_baseline(self, tiny_result):
        assert len(tiny_result.seq_output) == 8
        assert tiny_result.seq_cycles > 0
        assert 0 < tiny_result.pct_time <= 1

    def test_breakdown_present(self, tiny_result):
        assert tiny_result.breakdown.expandable > 0

    def test_overheads_ordered(self, tiny_result):
        assert 0.9 < tiny_result.overhead_opt <= \
            tiny_result.overhead_unopt + 1e-9
        assert tiny_result.overhead_rtpriv > tiny_result.overhead_opt

    def test_parallel_points(self, tiny_result):
        assert set(tiny_result.expansion) == {1, 2, 4}
        assert tiny_result.expansion[4].loop_speedup > \
            tiny_result.expansion[1].loop_speedup
        assert tiny_result.expansion[4].memory_multiple >= 1.0

    def test_rtpriv_points(self, tiny_result):
        assert tiny_result.rtpriv[4].loop_speedup > 0

    def test_privatized_count(self, tiny_result):
        assert tiny_result.num_privatized == 1  # buf

    def test_caching(self):
        harness = Harness(thread_counts=(2,))
        harness._cache[TINY.name] = object()
        assert harness.result(TINY.name) is harness._cache[TINY.name]


class TestRuntimePrivatizationRaces:
    """The paper's baseline cannot privatize histogram's reduction,
    which only the commutative class makes race-free."""

    def test_an_extra_kernel_records_its_races_a_paper_kernel_raises(self):
        from repro.bench.suite import get
        from repro.runtime import RaceError
        spec = get("histogram")
        harness = Harness(thread_counts=(1, 2), engine="bytecode")
        result = harness._compute(spec)
        assert result.rtpriv[1].races == 0
        assert result.rtpriv[1].loop_speedup > 0
        assert result.rtpriv[2].races > 0
        assert result.rtpriv[2].loop_speedup == 0.0
        assert result.expansion[2].loop_speedup > 1
        with pytest.raises(RaceError):
            harness._compute(spec._replace(suite="Synthetic"))


class TestVerification:
    def test_check_output_raises(self):
        with pytest.raises(VerificationError):
            _check_output(TINY, ["1"], ["2"], "test")

    def test_check_output_passes(self):
        _check_output(TINY, ["1"], ["1"], "test")


class TestSuiteRegistry:
    def test_duplicate_registration_rejected(self):
        from repro.bench import suite
        saved = dict(suite._REGISTRY)
        try:
            suite._REGISTRY[TINY.name] = TINY
            with pytest.raises(ValueError):
                suite.register(TINY)
        finally:
            suite._REGISTRY.clear()
            suite._REGISTRY.update(saved)

    def test_loc_counts_nonempty_lines(self):
        assert TINY.loc == sum(
            1 for line in TINY.source.splitlines() if line.strip()
        )
