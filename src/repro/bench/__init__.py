"""Benchmark suite, measurement harness, and paper-figure reports."""

from . import report
from .harness import (
    BenchmarkResult, DEFAULT_HARNESS, Harness, ParallelPoint,
    VerificationError, benchmark_result,
)
from .suite import BenchmarkSpec, PaperNumbers, all_benchmarks, get

__all__ = [
    "BenchmarkSpec", "PaperNumbers", "get", "all_benchmarks",
    "Harness", "BenchmarkResult", "ParallelPoint", "benchmark_result",
    "DEFAULT_HARNESS", "VerificationError", "report",
]
