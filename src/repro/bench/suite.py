"""Benchmark registry: the eight kernels of the paper's Table 4.

Each kernel is a MiniC port of the *parallelized loop* of the original
benchmark plus enough surrounding program to reproduce its Table 4
characteristics (loop nesting level, parallelism kind, fraction of time
in the loop) and the data-structure shapes the paper highlights
(dijkstra's malloc/free'd queue items, bzip2's recast ``zptr``,
hmmer's two-site ambiguous ``mx``, ...).  Inputs are scaled down to
interpreter scale; the harness compares cycle *ratios*, not absolute
times.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional


#: the suite of a kernel with no counterpart in the paper
EXTRA_SUITE = "repro-extra"


class PaperNumbers(NamedTuple):
    """The values the paper reports, echoed next to ours in reports."""

    loc: int                       # Table 4 #LOC of the original benchmark
    pct_time: float                # Table 4 %Time in the candidate loop
    privatized: int                # Table 5 structures privatized
    loop_speedup_8: Optional[float] = None   # approx Figure 11a @ 8 cores


class BenchmarkSpec(NamedTuple):
    name: str
    suite: str                     # MiBench / MediaBench II / SPEC ...
    source: str                    # MiniC program text
    loop_labels: List[str]         # candidate loop labels ('L', ...)
    function: str                  # Table 4: function containing the loop
    level: int                     # Table 4: loop nesting level
    parallelism: str               # 'DOALL' or 'DOACROSS'
    paper: PaperNumbers
    description: str = ""

    @property
    def loc(self) -> int:
        """Lines of MiniC source (reported beside the paper's LOC)."""
        return sum(
            1 for line in self.source.splitlines() if line.strip()
        )


_REGISTRY: Dict[str, BenchmarkSpec] = {}


def register(spec: BenchmarkSpec) -> BenchmarkSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate benchmark {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> BenchmarkSpec:
    _ensure_loaded()
    return _REGISTRY[name]


def all_benchmarks() -> List[BenchmarkSpec]:
    """All registered kernels, in the paper's Table 4 order."""
    _ensure_loaded()
    order = [
        "dijkstra", "md5", "mpeg2-encoder", "mpeg2-decoder",
        "h263-encoder", "256.bzip2", "456.hmmer", "470.lbm",
    ]
    return [_REGISTRY[n] for n in order if n in _REGISTRY] + [
        s for n, s in sorted(_REGISTRY.items()) if n not in order
    ]


_loaded = False


def _ensure_loaded() -> None:
    global _loaded
    if _loaded:
        return
    _loaded = True
    import importlib

    for module in (
        "bzip2", "dijkstra", "h263_encoder", "histogram", "hmmer",
        "lbm", "md5", "mpeg2_decoder", "mpeg2_encoder",
    ):
        try:
            importlib.import_module(f"{__package__}.programs.{module}")
        except ImportError:
            pass  # kernels under construction register incrementally
