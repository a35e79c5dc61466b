"""What a cold native compile hands the C compiler, kernel by kernel.

Lowers every benchmark kernel through the real ``lower-native`` stage
(fresh stage cache and ``.so`` cache, so both translation units of the
job are compiled) and records, for the transformed program and the
original's instrumented unit (the profile's, whose run is the
sequential baseline): C
source bytes, exported entry points by kind (``u_`` units, ``k_``
chunk drivers, ``r_`` runners), the compiler's CPU seconds, the parts
the job built it from and the wall seconds of that build run alone —
plus the size the transformed program would have with entry points for
*any* loop (``lower_program(controlled=None)``, pure codegen).  Three
**count gates**, no timing gate:

* a transformed program's C may not exceed 40 % of its any-loop size
  — the entry-point rule is doing its job;
* the instrumented unit exports nothing but runners — no controller
  ever sits on the original program — and no transformed unit carries
  a trace hook;
* no transformed unit carries the ``f_`` body or ``r_`` runner of a
  function no run can enter in C: one whose loop closure holds a
  controlled loop and that no unit or chunk driver calls, directly or
  through a callee (``main`` on every kernel).  Closures and calls are
  read off the any-loop lowering, which keeps every function.

Usage:  python scripts/lowering_sizes.py [--json PATH]

Exit status 0 when all three gates hold on every kernel (or the host
has no C toolchain: SKIP), 1 otherwise.
"""

import argparse
import json
import os
import re
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.bench import all_benchmarks                        # noqa: E402
from repro.interp.native import (                             # noqa: E402
    lower_program, native_backend_available,
)
from repro.interp.native.backend import (                     # noqa: E402
    CFLAGS, TRACED_CFLAGS, native_context_for, start,
)
from repro.obs import Tracer                                  # noqa: E402
from repro.service import (                                   # noqa: E402
    CompileOptions, Job, StageCache, StagedCompiler,
)

#: largest allowed transformed-C size, as a share of the any-loop size
MAX_SHARE = 0.40


def describe(context, root):
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
        # one compiler process per part, plus a link when parts > 1
        "parts": context.lib.parts,
        "cc_unit_wall_seconds": round(standalone_wall(context, root), 3),
    }


def standalone_wall(context, root):
    """The unit's build alone (same parts, fresh .so cache): wall
    seconds from its first compiler's start to its last one's exit."""
    lowering = context.lowering
    cflags = CFLAGS if lowering.tracked is None else TRACED_CFLAGS
    build = start([(lowering.source, lowering.exports, "wall",
                    lowering.parts, cflags)], root)
    build.finish()
    return build.t_done - build.t0


def unenterable_kept(lowering, any_loop):
    """Names of the functions ``lowering`` keeps that hold a controlled
    loop and that none of its units or chunk drivers calls."""
    called = set()
    stack = [nid for meta in (*lowering.units.values(),
                              *lowering.chunks.values())
             for nid in meta.callees]
    while stack:
        nid = stack.pop()
        if nid not in called:
            called.add(nid)
            stack.extend(any_loop.fns[nid].callees)
    kept = []
    for nid, meta in any_loop.fns.items():
        if nid in called or lowering.controlled.isdisjoint(
                any_loop.loop_closure(meta)):
            continue
        if re.search(rf"\bf_{nid}\(", lowering.source) or \
                f"r_{nid}" in lowering.exports:
            kept.append(meta.name)
    return kept


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
        "transformed": describe(compiled.ctx.native,
                                os.path.join(cache_root, "alone-t")),
        # the context the profile stage registered for the original
        "instrumented": describe(
            native_context_for(compiled.program, compiled.sema,
                               frozenset()),
            os.path.join(cache_root, "alone-b")),
        "transformed_hooks": compiled.ctx.native.lowering.source.count(
            "rp_tr_"),
        "unenterable_kept": unenterable_kept(compiled.ctx.native.lowering,
                                             any_loop),
        "any_loop_source_bytes": len(any_loop.source),
        "any_loop_exports": len(any_loop.exports),
        # wall-clock inside lower-native spans with a compiler running
        # (the instrumented unit's, which the profile stage builds, and
        # the transformed unit's)
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
            t, b = row["transformed"], row["instrumented"]
            print(f"{spec.name:14s} transformed {t['source_bytes']:7d} B "
                  f"({row['share_of_any_loop']:.2f} of any-loop "
                  f"{row['any_loop_source_bytes']}), "
                  f"{t['exports']:2d}/{row['any_loop_exports']} exports;"
                  f" instrumented {b['source_bytes']:6d} B, "
                  f"{b['exports']} exports; cc {t['cc_seconds']:.2f}s "
                  f"({t['parts']} parts, {t['cc_unit_wall_seconds']:.2f}s "
                  f"wall) + {b['cc_seconds']:.2f}s "
                  f"({b['cc_unit_wall_seconds']:.2f}s wall), "
                  f"{row['cc_wall_seconds']:.2f}s compiling")
            if row["share_of_any_loop"] > MAX_SHARE:
                failures.append(
                    f"{spec.name}: transformed C is "
                    f"{row['share_of_any_loop']:.2f} of its any-loop "
                    f"size (limit {MAX_SHARE:.2f})")
            if b["units"] or b["chunk_drivers"]:
                failures.append(
                    f"{spec.name}: the instrumented unit exports "
                    f"{b['units']} units and {b['chunk_drivers']} chunk "
                    f"drivers")
            if row["transformed_hooks"]:
                failures.append(
                    f"{spec.name}: the transformed unit calls the "
                    f"tracker {row['transformed_hooks']} times")
            if row["unenterable_kept"]:
                failures.append(
                    f"{spec.name}: the transformed unit keeps "
                    f"{row['unenterable_kept']}, which hold a controlled "
                    f"loop and which no unit or chunk driver calls")
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
