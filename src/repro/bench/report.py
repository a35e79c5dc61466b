"""Render the paper's tables and figures as text from harness results.

Every public function takes ``{name: BenchmarkResult}`` (insertion
order = display order) and returns a formatted string with one row or
series per benchmark, paper values echoed beside ours where the paper
reports them.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Sequence

from .harness import BenchmarkResult
from .suite import EXTRA_SUITE

THREADS = (1, 2, 4, 8)


def _table(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def harmonic_mean(values: List[float]) -> float:
    values = [v for v in values if v > 0]
    return statistics.harmonic_mean(values) if values else 0.0


def paper_kernels(results: Dict[str, BenchmarkResult]
                  ) -> List[BenchmarkResult]:
    """The results a mean quoted beside the paper's is taken over: every
    kernel but the extras, which have no counterpart there."""
    return [r for r in results.values() if r.spec.suite != EXTRA_SUITE]


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table4(results: Dict[str, BenchmarkResult]) -> str:
    """Benchmark characteristics (paper Table 4)."""
    rows = []
    for name, r in results.items():
        spec = r.spec
        rows.append([
            name, spec.suite, f"{spec.loc} ({spec.paper.loc})",
            spec.function, spec.level, spec.parallelism,
            f"{100 * r.pct_time:.1f}% ({spec.paper.pct_time}%)",
        ])
    return "Table 4: benchmark characteristics — ours (paper)\n" + _table(
        ["Benchmark", "Suite", "#LOC", "Function", "Level",
         "Parallelism", "%Time"],
        rows,
    )


def table5(results: Dict[str, BenchmarkResult]) -> str:
    """Number of dynamic data structures privatized (paper Table 5)."""
    rows = [
        [name, r.num_privatized, r.spec.paper.privatized]
        for name, r in results.items()
    ]
    return "Table 5: #privatized data structures\n" + _table(
        ["Benchmark", "#Privatized (ours)", "#Privatized (paper)"], rows
    )


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

def fig8_breakdown(results: Dict[str, BenchmarkResult]) -> str:
    """Dynamic memory-access breakdown of the candidate loops."""
    rows = []
    for name, r in results.items():
        f = r.breakdown.fractions()
        rows.append([
            name,
            f"{f['free']:.1%}", f"{f['expandable']:.1%}",
            f"{f['carried']:.1%}",
        ])
    return (
        "Figure 8: breakdown of dynamic memory accesses\n"
        + _table(
            ["Benchmark", "Free of loop-carried dep", "Expandable",
             "With loop-carried dep"],
            rows,
        )
    )


def fig9_overhead(results: Dict[str, BenchmarkResult]) -> str:
    """Expansion overhead without (9a) and with (9b) §3.4 optimizations,
    sequential execution, native time normalized to 1."""
    rows = [
        [name, f"{r.overhead_unopt:.2f}x", f"{r.overhead_opt:.2f}x"]
        for name, r in results.items()
    ]
    unopt = harmonic_mean([r.overhead_unopt for r in paper_kernels(results)])
    opt = harmonic_mean([r.overhead_opt for r in paper_kernels(results)])
    rows.append(["harmonic mean", f"{unopt:.2f}x (paper ~1.8x)",
                 f"{opt:.2f}x (paper <1.05x)"])
    return (
        "Figure 9: sequential overhead of data structure expansion\n"
        + _table(["Benchmark", "(a) without optimizations",
                  "(b) with optimizations"], rows)
    )


def fig10_runtime_priv(results: Dict[str, BenchmarkResult]) -> str:
    """Static expansion vs runtime privatization overhead (sequential)."""
    rows = [
        [name, f"{r.overhead_opt:.2f}x", f"{r.overhead_rtpriv:.2f}x"]
        for name, r in results.items()
    ]
    return (
        "Figure 10: expansion vs runtime privatization (sequential "
        "slowdown, native = 1)\n"
        + _table(["Benchmark", "expansion", "runtime privatization"], rows)
    )


def fig11_speedup(results: Dict[str, BenchmarkResult]) -> str:
    """Loop (11a) and total-program (11b) speedups per core count."""
    header = ["Benchmark"] + [f"loop@{n}" for n in THREADS] + \
        [f"total@{n}" for n in THREADS]
    rows = []
    for name, r in results.items():
        row = [name]
        row += [f"{r.expansion[n].loop_speedup:.2f}" for n in THREADS]
        row += [f"{r.expansion[n].total_speedup:.2f}" for n in THREADS]
        rows.append(row)
    hm4 = harmonic_mean([r.expansion[4].total_speedup
                         for r in paper_kernels(results)])
    hm8 = harmonic_mean([r.expansion[8].total_speedup
                         for r in paper_kernels(results)])
    footer = (
        f"\nharmonic mean total speedup: {hm4:.2f} @4 (paper 1.93), "
        f"{hm8:.2f} @8 (paper 2.24)"
    )
    return (
        "Figure 11: speedups with data structure expansion\n"
        + _table(header, rows) + footer
    )


def fig12_breakdown(results: Dict[str, BenchmarkResult],
                    nthreads: int = 8) -> str:
    """Cycle breakdown of the parallel loop at 8 threads."""
    rows = []
    for name, r in results.items():
        bd = r.expansion[nthreads].breakdown
        total = sum(bd.values()) or 1.0
        rows.append([
            name,
            f"{bd['work'] / total:.1%}", f"{bd['sync'] / total:.1%}",
            f"{bd['wait'] / total:.1%}", f"{bd['runtime'] / total:.1%}",
        ])
    return (
        f"Figure 12: cycle breakdown of {nthreads}-thread runs\n"
        + _table(["Benchmark", "work", "sync", "wait (do_wait/cpu_relax)",
                  "runtime lib"], rows)
    )


def _rtpriv(point, value: str) -> str:
    """A runtime-privatization cell: not applicable where the baseline
    left cross-thread conflicts (it cannot privatize the loop)."""
    return f"n/a ({point.races} races)" if point.races else value


def fig13_rtpriv_speedup(results: Dict[str, BenchmarkResult]) -> str:
    """Loop speedup under runtime privatization."""
    header = ["Benchmark"] + [f"@{n}" for n in THREADS]
    rows = []
    for name, r in results.items():
        rows.append([name] + [
            _rtpriv(r.rtpriv[n], f"{r.rtpriv[n].loop_speedup:.2f}")
            for n in THREADS
        ])
    return (
        "Figure 13: loop speedup with runtime privatization\n"
        + _table(header, rows)
    )


def fig14_memory(results: Dict[str, BenchmarkResult]) -> str:
    """Memory usage as a multiple of the sequential program."""
    header = ["Benchmark", "expansion@4", "expansion@8",
              "rt-priv@4", "rt-priv@8"]
    rows = []
    for name, r in results.items():
        rows.append([
            name,
            f"{r.expansion[4].memory_multiple:.2f}x",
            f"{r.expansion[8].memory_multiple:.2f}x",
            _rtpriv(r.rtpriv[4], f"{r.rtpriv[4].memory_multiple:.2f}x"),
            _rtpriv(r.rtpriv[8], f"{r.rtpriv[8].memory_multiple:.2f}x"),
        ])
    return (
        "Figure 14: memory usage multiple vs sequential\n"
        + _table(header, rows)
    )


def full_report(results: Dict[str, BenchmarkResult]) -> str:
    """Every table and figure, concatenated (EXPERIMENTS.md source)."""
    parts = [
        table4(results), table5(results), fig8_breakdown(results),
        fig9_overhead(results), fig10_runtime_priv(results),
        fig11_speedup(results), fig12_breakdown(results),
        fig13_rtpriv_speedup(results), fig14_memory(results),
    ]
    return "\n\n".join(parts)
