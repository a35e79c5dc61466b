"""Regenerate EXPERIMENTS.md: run the full harness and write every
table/figure with paper-vs-ours commentary.

Everything from the "Headline result" line on is regenerated; the text
before it (the measurement record kept by hand) is left as it is.  A
missing file starts from PREAMBLE.  The modeled tables are the same on
every engine, so ``REPRO_ENGINE=bytecode`` only makes it faster.

Usage:  python scripts/generate_experiments.py [output-path]
"""

import sys
import time

from repro.bench import Harness, all_benchmarks
from repro.bench.report import (
    fig8_breakdown, fig9_overhead, fig10_runtime_priv, fig11_speedup,
    fig12_breakdown, fig13_rtpriv_speedup, fig14_memory, harmonic_mean,
    paper_kernels, table4, table5,
)

PREAMBLE = """\
# EXPERIMENTS — paper vs. this reproduction

Regenerate with `python scripts/generate_experiments.py` (or run
`pytest benchmarks/` for the same numbers with shape assertions).

All numbers come from the cycle-model interpreter described in
DESIGN.md; absolute values are not comparable to the paper's Opteron
wall-clock times, but the *shape* — who wins, by what factor, where
curves bend — is the reproduction target.  Every parallel/transformed
run's program output is verified against the sequential original, and
DOALL runs are checked race-free at byte granularity.

Known deviations (see DESIGN.md §7 for why):

* Our Figure 8 "free" share is larger than the paper's because our
  stack model gives per-call locals fresh addresses (they are
  privatized by thread-private stacks in both systems; the paper's
  profiler sees them at reused addresses and counts them expandable).
* DOACROSS kernels (456.hmmer especially) scale better than the
  paper's because our synchronization placement is per-statement,
  finer than their implementation ("our synchronization placement
  algorithm still has room for improvement", §4.3).
* Table 4's #LOC column shows our scaled-down MiniC kernel next to the
  paper's original benchmark size.
* `histogram` is an extra kernel (suite `repro-extra`, no paper
  counterpart): its loop is rejected by the paper's §3.2 three-way
  classification and only parallelizes through the commutative access
  class (DESIGN.md §16) — `repro lint --bench histogram --json` shows
  the machine-checked parallelism certificate behind the DOALL claim.
"""

HEADLINE = "Headline result:"

BENCH_ALL = """
`python -m repro bench all` prints every overhead, speedup, memory
multiple and Figure-12-style cycle breakdown behind these tables, and
`--trace out.json` on any subcommand records the phase spans and
per-thread runtime timeline the breakdowns are computed from (open in
chrome://tracing or Perfetto; DESIGN.md §10).
"""


def main():
    out_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    t0 = time.time()
    harness = Harness()
    results = {}
    for spec in all_benchmarks():
        print(f"measuring {spec.name} ...", flush=True)
        results[spec.name] = harness.result(spec.name)

    sections = [
        ("Table 4 — benchmark characteristics", table4(results),
         "Loop nesting levels, parallelism kinds and dominant loop "
         "shares match the paper's Table 4."),
        ("Table 5 — privatized data structures", table5(results),
         "Structure counts (aggregates + allocation sites; scalars are "
         "ordinary scalar expansion) match the paper's Table 5 on seven "
         "of the eight benchmarks.  456.hmmer counts one more: a "
         "reduction accumulator only the commutative class (DESIGN.md "
         "§16) privatizes; `--no-commutative` gives the paper's 8."),
        ("Figure 8 — dynamic access breakdown", fig8_breakdown(results),
         "Every kernel shows a substantial expandable share and almost "
         "no unremovable carried accesses in the parallel region — the "
         "paper's argument that expansion unlocks these loops."),
        ("Figure 9 — expansion overhead (sequential)",
         fig9_overhead(results),
         "Optimized overhead stays near the paper's <5% band for most "
         "kernels; unoptimized expansion lands in the paper's ~1.8x "
         "harmonic-mean territory.  Every mean quoted beside the "
         "paper's is over the eight paper kernels."),
        ("Figure 10 — vs. runtime privatization",
         fig10_runtime_priv(results),
         "Runtime privatization pays per-access monitoring: much "
         "higher overhead than expansion everywhere except md5, whose "
         "few private accesses the paper also calls out as the cheap "
         "case, and histogram, which has no paper counterpart."),
        ("Figure 11 — speedups with expansion", fig11_speedup(results),
         "DOALL kernels scale toward 8 threads; DOACROSS and "
         "memory-bound kernels plateau past 4 (sync and bandwidth), "
         "as in the paper."),
        ("Figure 12 — 8-thread cycle breakdown", fig12_breakdown(results),
         "Synchronization/wait dominates 256.bzip2 at 8 threads (the "
         "paper's headline Figure 12 observation); DOALL kernels are "
         "work-dominated."),
        ("Figure 13 — runtime privatization speedup",
         fig13_rtpriv_speedup(results),
         "Mostly no speedup — monitoring overhead eats the "
         "parallelism — exactly the paper's result; md5 is again the "
         "exception.  Past one thread histogram's points are n/a: "
         "runtime privatization leaves its reduction racy (the count "
         "of cross-thread conflicts is shown), since only the "
         "commutative class makes it race-free."),
        ("Figure 14 — memory usage", fig14_memory(results),
         "Expansion grows memory only for the privatized structures "
         "(lbm stays ~1x, scratch-heavy kernels grow with N); runtime "
         "privatization's copies are comparable or larger."),
    ]

    hm4 = harmonic_mean([r.expansion[4].total_speedup
                         for r in paper_kernels(results)])
    hm8 = harmonic_mean([r.expansion[8].total_speedup
                         for r in paper_kernels(results)])

    try:
        with open(out_path) as fh:
            kept = fh.read().split(HEADLINE, 1)[0]
    except FileNotFoundError:
        kept = PREAMBLE + "\n"
    with open(out_path, "w") as fh:
        fh.write(kept)
        fh.write(
            f"{HEADLINE} harmonic-mean total-program speedup "
            f"**{hm4:.2f}x at 4 threads** (paper: 1.93) and "
            f"**{hm8:.2f}x at 8 threads** (paper: 2.24).\n"
        )
        fh.write(BENCH_ALL)
        for title, body, comment in sections:
            fh.write(f"\n## {title}\n\n```\n{body}\n```\n\n{comment}\n")
        fh.write(
            f"\n---\nGenerated in {time.time() - t0:.0f}s by "
            "scripts/generate_experiments.py.\n"
        )
    print(f"wrote {out_path} in {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
