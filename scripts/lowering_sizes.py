"""What a cold native compile hands the C compiler, kernel by kernel.

Lowers every benchmark kernel through the real ``lower-native`` stage
(fresh stage cache and ``.so`` cache, so both translation units of the
job are compiled) and records, for the transformed program and the
sequential baseline: C source bytes, exported entry points by kind
(``u_`` units, ``k_`` chunk drivers, ``r_`` runners) and the compiler's
CPU seconds — plus the size the transformed program would have with
entry points for *any* loop (``lower_program(controlled=None)``, pure
codegen).  Two **count gates**, no timing gate:

* a transformed program's C may not exceed 60 % of its any-loop size
  — the entry-point rule is doing its job;
* a baseline program exports nothing but runners — no controller ever
  sits on the original program.

Usage:  python scripts/lowering_sizes.py [--json PATH]

Exit status 0 when both gates hold on every kernel (or the host has no
C toolchain: SKIP), 1 otherwise.
"""

import argparse
import json
import os
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.bench import all_benchmarks                        # noqa: E402
from repro.interp.native import (                             # noqa: E402
    lower_program, native_backend_available,
)
from repro.obs import Tracer                                  # noqa: E402
from repro.service import (                                   # noqa: E402
    CompileOptions, Job, StageCache, StagedCompiler,
)

#: largest allowed transformed-C size, as a share of the any-loop size
MAX_SHARE = 0.60


def describe(context):
    lowering = context.lowering
    kinds = {"u_": 0, "k_": 0, "r_": 0}
    for name in lowering.exports:
        kinds[name[:2]] += 1
    return {
        "source_bytes": len(lowering.source),
        "exports": len(lowering.exports),
        "units": kinds["u_"], "chunk_drivers": kinds["k_"],
        "runners": kinds["r_"],
        "cc_seconds": round(context.lib.compile_seconds, 3),
    }


def measure(spec, cache_root):
    job = Job(spec.source, list(spec.loop_labels),
              CompileOptions(engine="native"), check_races=False)
    tracer = Tracer()
    compiled = StagedCompiler(cache=StageCache(root=cache_root),
                              tracer=tracer).compile(job)
    result = compiled.result
    any_loop = lower_program(result.program, result.sema)
    row = {
        "kernel": spec.name,
        "transformed": describe(compiled.ctx.native),
        "baseline": describe(compiled.ctx.native_baseline),
        "any_loop_source_bytes": len(any_loop.source),
        "any_loop_exports": len(any_loop.exports),
        # wall-clock with a compiler running (the two run side by side)
        "cc_wall_seconds": round(
            tracer.metrics["native.compile_seconds"], 3),
    }
    row["share_of_any_loop"] = round(
        row["transformed"]["source_bytes"] / len(any_loop.source), 3)
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", metavar="PATH")
    args = parser.parse_args(argv)
    ok, why = native_backend_available()
    if not ok:
        print(f"SKIP: native backend unavailable ({why})")
        return 0
    rows, failures = [], []
    with tempfile.TemporaryDirectory(prefix="repro-sizes-") as root:
        for spec in all_benchmarks():
            row = measure(spec, os.path.join(root, spec.name))
            rows.append(row)
            t, b = row["transformed"], row["baseline"]
            print(f"{spec.name:14s} transformed {t['source_bytes']:7d} B "
                  f"({row['share_of_any_loop']:.2f} of any-loop "
                  f"{row['any_loop_source_bytes']}), "
                  f"{t['exports']:2d}/{row['any_loop_exports']} exports;"
                  f" baseline {b['source_bytes']:6d} B, "
                  f"{b['exports']} exports; cc {t['cc_seconds']:.2f}s + "
                  f"{b['cc_seconds']:.2f}s in {row['cc_wall_seconds']:.2f}s")
            if row["share_of_any_loop"] > MAX_SHARE:
                failures.append(
                    f"{spec.name}: transformed C is "
                    f"{row['share_of_any_loop']:.2f} of its any-loop "
                    f"size (limit {MAX_SHARE:.2f})")
            if b["units"] or b["chunk_drivers"]:
                failures.append(
                    f"{spec.name}: baseline exports {b['units']} units "
                    f"and {b['chunk_drivers']} chunk drivers")
    if args.json:
        os.makedirs(os.path.dirname(os.path.abspath(args.json)),
                    exist_ok=True)
        with open(args.json, "w") as fh:
            json.dump({"kernels": rows, "failures": failures}, fh,
                      indent=2)
    for failure in failures:
        print("FAIL:", failure)
    print("lowering sizes:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
