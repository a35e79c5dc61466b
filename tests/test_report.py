"""Report-rendering unit tests (cheap: synthetic BenchmarkResults)."""

from repro.bench.harness import BenchmarkResult, ParallelPoint
from repro.bench.report import (
    fig8_breakdown, fig9_overhead, fig11_speedup, fig12_breakdown,
    fig13_rtpriv_speedup, fig14_memory, full_report, harmonic_mean,
    table4, table5,
)
from repro.bench.suite import BenchmarkSpec, PaperNumbers
from repro.analysis.breakdown import Breakdown


def fake_result(name="fake"):
    spec = BenchmarkSpec(
        name=name, suite="Synthetic", source="int main(void){return 0;}\n",
        loop_labels=["L"], function="main", level=1, parallelism="DOALL",
        paper=PaperNumbers(loc=100, pct_time=90.0, privatized=2),
    )
    r = BenchmarkResult(spec)
    r.pct_time = 0.85
    r.num_privatized = 2
    r.breakdown = Breakdown(free=30, expandable=60, carried=10)
    r.overhead_opt = 1.05
    r.overhead_unopt = 1.9
    r.overhead_rtpriv = 3.0
    for n in (1, 2, 4, 8):
        p = ParallelPoint(n)
        p.loop_speedup = n * 0.8
        p.total_speedup = n * 0.7
        p.memory_multiple = 1 + n / 8
        p.breakdown = {"work": 100.0 * n, "sync": 5.0, "wait": 10.0,
                       "runtime": 3.0}
        r.expansion[n] = p
        q = ParallelPoint(n)
        q.loop_speedup = 0.9
        q.total_speedup = 0.9
        q.memory_multiple = 2.0
        r.rtpriv[n] = q
    r.sync_only_speedup = 0.95
    return r


RESULTS = {"fake": fake_result()}


def test_harmonic_mean():
    assert abs(harmonic_mean([1.0, 2.0]) - 4 / 3) < 1e-9
    assert harmonic_mean([]) == 0.0
    assert harmonic_mean([0.0, 2.0]) == 2.0  # zeros dropped


def test_table4_row():
    text = table4(RESULTS)
    assert "fake" in text and "Synthetic" in text and "85.0%" in text


def test_table5_row():
    text = table5(RESULTS)
    assert "2" in text


def test_fig8():
    text = fig8_breakdown(RESULTS)
    assert "60.0%" in text


def test_fig9_includes_means():
    text = fig9_overhead(RESULTS)
    assert "1.90x" in text and "1.05x" in text and "harmonic" in text


def test_fig11_series():
    text = fig11_speedup(RESULTS)
    assert "loop@8" in text and "6.40" in text


def test_fig12_fractions_sum():
    text = fig12_breakdown(RESULTS)
    assert "work" in text and "%" in text


def test_fig13_and_14():
    assert "0.90" in fig13_rtpriv_speedup(RESULTS)
    assert "x" in fig14_memory(RESULTS)


def test_a_racy_rtpriv_point_renders_not_applicable():
    r = fake_result("racy")
    for n in (2, 4, 8):
        r.rtpriv[n] = ParallelPoint(n)
        r.rtpriv[n].races = 264
    fig13 = fig13_rtpriv_speedup({"racy": r})
    assert "0.90" in fig13 and fig13.count("n/a (264 races)") == 3
    assert fig14_memory({"racy": r}).count("n/a (264 races)") == 2


def test_full_report_contains_all_sections():
    text = full_report(RESULTS)
    for marker in ("Table 4", "Table 5", "Figure 8", "Figure 9",
                   "Figure 10", "Figure 11", "Figure 12", "Figure 13",
                   "Figure 14"):
        assert marker in text
