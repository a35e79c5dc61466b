"""Engine-vs-engine wall-clock smoke over the benchmark suite.

Runs every registered benchmark kernel sequentially, end to end, under
each interpreter tier and prints a comparison table.  Three properties
are enforced, matching the bytecode tier's drop-in contract:

* identical program output and exit code on every kernel;
* identical simulated cost counters (cycles, instructions, loads,
  stores) between ``ast`` and the ``bytecode`` tier;
* a geometric-mean end-to-end speedup of at least ``--min-speedup``
  (default 2.0) for ``bytecode`` over ``ast``.

``--backend process`` switches to the multi-core differential smoke
instead: every kernel is expanded and run under both parallel backends
(simulated vs real worker processes over shared memory) and must be
bit-identical — program output, diagnostics (minus the informational
``MC-*`` fallback notes), modeled cycles/makespans, and the final live
GLOBAL+HEAP heap image, byte for byte.  The process backend's
wall-clock scaling (1 worker vs ``--workers``) is reported, and the
``--min-mc-speedup`` geomean gate (default 1.8) is enforced when the
host actually has ``--workers`` cores.

``--engine native`` switches to the native lowering tier's smoke:
every kernel runs sequentially under the walker and under compiled C
(``--backend engines``, the default) with bit-identical output/exit
and identical modeled cost counters, zero ``NL-*`` lowering fallbacks
(a fallback is a hard failure here), and a geomean wall-clock speedup
of at least ``--min-native-speedup`` (default 10) over the walker.  It
also reports the upcalls compiled code made on each kernel's last
(warm) run, and fails if any was a ``malloc`` or ``free``: those run
in C.
With ``--backend process`` the multi-core differential instead runs
its worker pool on the native tier — DOALL chunks dispatch into the
compiled entry points — and additionally requires zero accounted
native fallbacks across the suite, and that the parent machine of a
DOALL kernel interprets no more loop entries
(``runtime.parent_interp_loops``) than enclose a controlled loop: a
count gate, not a timing gate.

``--membench`` appends the zero-copy memory micro-benchmark: bulk
``read_bytes``/``write_bytes``/``read_cstring`` against the historical
per-byte scalar walk, with a sanity floor on the bulk speedup.

Usage:  python scripts/perf_smoke.py [--repeat N] [--min-speedup X]
        [--json PATH] [--backend {engines,process}] [--workers N]
        [--engine {bytecode,native}] [--membench]

Exit status 0 when all kernels pass, 1 on any parity or speedup
failure.  ``--json`` additionally dumps the raw numbers for archival
(the CI bench-smoke job uploads this as an artifact).
"""

import argparse
import json
import math
import os
import sys
import time
from statistics import geometric_mean

from repro.bench import all_benchmarks
from repro.frontend import parse_and_analyze
from repro.interp import Machine

ENGINES = ("ast", "bytecode")


def run_once(program, sema, engine):
    """One end-to-end sequential run; returns (seconds, fingerprint)."""
    machine = Machine(program, sema, engine=engine)
    start = time.perf_counter()
    code = machine.run()
    elapsed = time.perf_counter() - start
    cost = machine.cost
    fingerprint = {
        "exit": code,
        "output": list(machine.output),
        "cycles": cost.cycles,
        "instructions": cost.instructions,
        "loads": cost.loads,
        "stores": cost.stores,
    }
    return elapsed, fingerprint


def measure(spec, repeat):
    """Best-of-``repeat`` seconds per engine + parity verdicts."""
    row = {"name": spec.name}
    prints = {}
    for engine in ENGINES:
        # fresh parse per engine so no tier benefits from warm caches
        program, sema = parse_and_analyze(spec.source)
        best = math.inf
        for _ in range(repeat):
            elapsed, fingerprint = run_once(program, sema, engine)
            best = min(best, elapsed)
        row[engine] = best
        prints[engine] = fingerprint
    row["parity"] = prints["ast"] == prints["bytecode"]
    row["speedup"] = row["ast"] / row["bytecode"]
    return row


# ---------------------------------------------------------------------------
# native lowering tier smoke (--engine native)
# ---------------------------------------------------------------------------

#: builtins compiled code runs itself: an upcall to one is a failure
HEAP_UPCALLS = ("builtin:malloc", "builtin:free")


def run_native_once(program, sema):
    """One sequential native run; any lowering fallback is a failure
    (the smoke gate's zero-silent-fallback contract).  Returns
    (seconds, fingerprint, the machine's upcalls by opcode)."""
    machine = Machine(program, sema, engine="native")
    start = time.perf_counter()
    code = machine.run()
    elapsed = time.perf_counter() - start
    if machine.native_diag is not None:
        raise AssertionError(
            f"native tier fell back wholesale: {machine.native_diag}")
    low = machine._low
    if low is None or low.nl:
        raise AssertionError(
            f"NL lowering fallbacks: {dict(low.nl) if low else 'none'}")
    if machine.native_dispatches == 0:
        raise AssertionError("no native entry point was dispatched")
    cost = machine.cost
    fingerprint = {
        "exit": code,
        "output": list(machine.output),
        "cycles": cost.cycles,
        "instructions": cost.instructions,
        "loads": cost.loads,
        "stores": cost.stores,
    }
    return elapsed, fingerprint, dict(machine.upcalls)


def native_smoke(args):
    """Sequential walker-vs-native differential + the >=10x wall-clock
    gate over the whole kernel suite."""
    from repro.interp.native import native_backend_available

    ok, why = native_backend_available()
    if not ok:
        print(f"SKIP: native tier unavailable ({why})", file=sys.stderr)
        return 0

    rows = []
    for spec in all_benchmarks():
        print(f"measuring {spec.name} ...", file=sys.stderr)
        row = {"name": spec.name}
        prints = {}
        program, sema = parse_and_analyze(spec.source)
        best = math.inf
        for _ in range(args.repeat):
            elapsed, prints["ast"] = run_once(program, sema, "ast")
            best = min(best, elapsed)
        row["ast"] = best
        program, sema = parse_and_analyze(spec.source)
        best = math.inf
        for _ in range(args.repeat):
            elapsed, prints["native"], upcalls = run_native_once(
                program, sema)
            best = min(best, elapsed)
        row["native"] = best
        row["upcalls"] = upcalls
        row["parity"] = prints["ast"] == prints["native"]
        if not row["parity"]:
            row["diff"] = sorted(
                k for k in prints["ast"]
                if prints["ast"][k] != prints["native"][k])
        row["speedup"] = row["ast"] / row["native"]
        rows.append(row)

    header = (f"{'kernel':<16} {'ast(s)':>8} {'native':>9} "
              f"{'speedup':>9} {'upcalls':>8}  parity")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['name']:<16} {row['ast']:>8.3f} "
              f"{row['native']:>9.4f} {row['speedup']:>8.1f}x "
              f"{sum(row['upcalls'].values()):>8}  "
              f"{'OK' if row['parity'] else 'DIVERGED'}")
    gm = geometric_mean([r["speedup"] for r in rows])
    print("-" * len(header))
    print(f"{'geomean':<16} {'':>8} {'':>9} {gm:>8.1f}x")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"mode": "native", "rows": rows, "geomean": gm,
                       "min_native_speedup": args.min_native_speedup},
                      fh, indent=1)
            fh.write("\n")
        print(f"[raw numbers written to {args.json}]", file=sys.stderr)

    failed = False
    for row in rows:
        if not row["parity"]:
            print(f"FAIL: {row['name']} diverged between walker and "
                  f"native ({', '.join(row.get('diff', []))})",
                  file=sys.stderr)
            failed = True
        heap = {k: v for k, v in row["upcalls"].items()
                if k in HEAP_UPCALLS}
        if heap:
            print(f"FAIL: {row['name']} left compiled code for the heap: "
                  f"{heap}", file=sys.stderr)
            failed = True
    if gm < args.min_native_speedup:
        print(f"FAIL: geomean native speedup {gm:.2f}x < "
              f"required {args.min_native_speedup:.2f}x",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# multi-core backend differential smoke (--backend process)
# ---------------------------------------------------------------------------

def _heap_image(memory):
    """The live GLOBAL+HEAP allocations as (kind, label, addr, size,
    bytes) — the bit-identity fingerprint of the final address space."""
    image = []
    for rec in memory._allocs:
        if rec.live and rec.kind in ("global", "heap"):
            image.append((rec.kind, rec.label, rec.addr, rec.size,
                          bytes(memory.data[rec.addr:rec.end])))
    return image


def _parallel_fingerprint(tresult, nthreads, backend, workers=None,
                          engine="bytecode"):
    """One parallel run; returns (seconds, fingerprint dict, metrics).

    The fingerprint covers everything the bit-identity contract
    promises: output, exit code, modeled cost counters, per-loop
    makespans/iterations, non-``MC-*`` diagnostics, and the final live
    heap image.  (``peak_memory`` is deliberately excluded — worker
    stack allocations live in private arenas.)
    """
    from repro.runtime import ParallelRunner

    kwargs = {}
    tracer = None
    if engine == "native":
        from repro.obs import Tracer

        # race-check observers would pin the parent machine to the
        # bytecode fallback; the tracer collects the fallback audit
        tracer = Tracer()
        kwargs["check_races"] = False
    runner = ParallelRunner(tresult, nthreads, engine=engine,
                            backend=backend, workers=workers,
                            tracer=tracer, **kwargs)
    start = time.perf_counter()
    outcome = runner.run()
    elapsed = time.perf_counter() - start
    cost = runner.machine.cost
    fingerprint = {
        "exit": outcome.exit_code,
        "output": list(outcome.output),
        "cycles": cost.cycles,
        "instructions": cost.instructions,
        "loads": cost.loads,
        "stores": cost.stores,
        "loops": {
            label: (ex.makespan, ex.iterations)
            for label, ex in outcome.loops.items()
        },
        "diagnostics": [
            d.render() for d in outcome.diagnostics
            if not d.code.startswith("MC-")
        ],
        "heap": _heap_image(runner.machine.memory),
    }
    metrics = tracer.metrics.as_dict() if tracer is not None else {}
    return elapsed, fingerprint, metrics


def enclosing_loop_entries(tresult, nthreads):
    """How often a run enters a loop that encloses a controlled loop,
    in its own body or through a call — the only loop entries a native
    parent may still interpret.  Counted on a sequential run of
    the transformed program, by a pass-through controller on each such
    loop."""
    from repro.frontend import ast
    from repro.runtime.multicore import _walk_subtree

    controlled = {tl.loop.nid for tl in tresult.loops}
    entries = 0

    def counting(machine, loop):
        nonlocal entries
        entries += 1
        machine.exec_loop_sequential(loop)

    machine = Machine(tresult.program, tresult.sema, engine="bytecode")
    machine.nthreads = nthreads
    for loop in ast.iter_loops(tresult.program):
        # the audit's walk: the loop's subtree plus every callee body
        if loop.nid not in controlled and any(
                isinstance(node, ast.LoopStmt) and node.nid in controlled
                for node in _walk_subtree(loop, tresult.sema)[0]):
            machine.loop_controllers[loop.nid] = counting
    machine.run()
    return entries


def measure_process(spec, repeat, workers, engine="bytecode"):
    """Differential simulated-vs-process measurement of one kernel."""
    from repro.transform import expand_for_threads

    program, sema = parse_and_analyze(spec.source)
    tresult = expand_for_threads(program, sema, spec.loop_labels,
                                 optimize=True)
    row = {"name": spec.name}
    prints = {}
    # simulated reference + process at full width + process at width 1
    # (the wall-clock scaling baseline)
    configs = (
        ("simulated", workers, "simulated"),
        ("process", workers, "process"),
        ("process1", 1, "process"),
    )
    for key, nthreads, backend in configs:
        best, fingerprint = math.inf, None
        for _ in range(repeat):
            elapsed, fingerprint, metrics = _parallel_fingerprint(
                tresult, nthreads, backend, workers=nthreads,
                engine=engine)
            best = min(best, elapsed)
        row[key] = best
        prints[key] = fingerprint
        if key == "process" and engine == "native":
            row["native_chunks"] = metrics.get(
                "runtime.native_chunks", 0)
            row["native_fallbacks"] = metrics.get(
                "runtime.native_fallbacks", 0)
            row["parent_native_dispatches"] = metrics.get(
                "runtime.parent_native_dispatches", 0)
            row["parent_interp_loops"] = metrics.get(
                "runtime.parent_interp_loops", 0)
            row["enclosing_loop_entries"] = enclosing_loop_entries(
                tresult, workers)
            row["doall"] = spec.parallelism == "DOALL"
    row["parity"] = prints["simulated"] == prints["process"]
    if not row["parity"]:
        row["diff"] = sorted(
            k for k in prints["simulated"]
            if prints["simulated"][k] != prints["process"][k]
        )
    row["mc_speedup"] = row["process1"] / row["process"]
    return row


def process_smoke(args):
    """The ``--backend process`` mode: bit-identity differential over
    every kernel plus the wall-clock scaling gate."""
    from repro.runtime import process_backend_available

    ok, why = process_backend_available()
    if not ok:
        print(f"SKIP: process backend unavailable ({why})",
              file=sys.stderr)
        return 0
    engine = getattr(args, "engine", "bytecode")
    if engine == "native":
        from repro.interp.native import native_backend_available

        ok, why = native_backend_available()
        if not ok:
            print(f"SKIP: native tier unavailable ({why})",
                  file=sys.stderr)
            return 0

    rows = []
    for spec in all_benchmarks():
        print(f"measuring {spec.name} ...", file=sys.stderr)
        rows.append(measure_process(spec, args.repeat, args.workers,
                                    engine=engine))

    header = (f"{'kernel':<16} {'simulated':>10} {'process':>9} "
              f"{'proc@1':>8} {'scaling':>8}  parity")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['name']:<16} {row['simulated']:>9.3f}s "
              f"{row['process']:>8.3f}s {row['process1']:>7.3f}s "
              f"{row['mc_speedup']:>7.2f}x  "
              f"{'OK' if row['parity'] else 'DIVERGED'}")
    gm = geometric_mean([r["mc_speedup"] for r in rows])
    print("-" * len(header))
    print(f"{'geomean':<16} {'':>10} {'':>9} {'':>8} {gm:>7.2f}x")

    if args.json:
        payload = [
            {k: v for k, v in row.items()} for row in rows
        ]
        with open(args.json, "w") as fh:
            json.dump({"mode": "process", "workers": args.workers,
                       "engine": engine,
                       "rows": payload, "geomean_mc": gm,
                       "min_mc_speedup": args.min_mc_speedup,
                       "cpu_count": os.cpu_count()}, fh, indent=1)
            fh.write("\n")
        print(f"[raw numbers written to {args.json}]", file=sys.stderr)

    failed = False
    for row in rows:
        if not row["parity"]:
            print(f"FAIL: {row['name']} diverged between backends "
                  f"({', '.join(row.get('diff', []))})", file=sys.stderr)
            failed = True
        if engine == "native" and row.get("native_fallbacks", 0):
            print(f"FAIL: {row['name']} ran "
                  f"{row['native_fallbacks']} chunk(s) on the Python "
                  f"loop instead of the native entry point",
                  file=sys.stderr)
            failed = True
        if engine == "native" and row["doall"] and \
                row["parent_interp_loops"] > row["enclosing_loop_entries"]:
            print(f"FAIL: {row['name']} interpreted "
                  f"{row['parent_interp_loops']} loop entries on the "
                  f"native parent, but only "
                  f"{row['enclosing_loop_entries']} enclose a "
                  f"controlled loop", file=sys.stderr)
            failed = True
    if engine == "native" and not any(
            r.get("native_chunks", 0) for r in rows):
        print("FAIL: no DOALL chunk dispatched into a native entry "
              "point across the whole suite", file=sys.stderr)
        failed = True
    cores = os.cpu_count() or 1
    if cores >= args.workers:
        if gm < args.min_mc_speedup:
            print(f"FAIL: geomean multi-core speedup {gm:.2f}x < "
                  f"required {args.min_mc_speedup:.2f}x "
                  f"({args.workers} workers on {cores} cores)",
                  file=sys.stderr)
            failed = True
    else:
        print(f"[speedup gate skipped: {cores} core(s) < "
              f"{args.workers} workers]", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# zero-copy memory micro-benchmark (--membench)
# ---------------------------------------------------------------------------

def membench(repeat=3, size=1 << 20, min_bulk_speedup=2.0):
    """Bulk read/write/cstring against the per-byte scalar walk.

    Returns 0 on pass.  The floor is deliberately loose (the real gap
    is orders of magnitude): it only guards against the bulk paths
    regressing to a Python-level per-byte loop.
    """
    from repro.interp.memory import Memory

    mem = Memory(check_bounds=False)
    addr = mem.alloc(size + 1, kind="heap", label="membench")
    payload = bytes(range(256)) * (size // 256)

    def best(fn):
        b = math.inf
        for _ in range(repeat):
            t = time.perf_counter()
            fn()
            b = min(b, time.perf_counter() - t)
        return b

    # per-byte scalar walks (the historical access pattern)
    def write_scalar_walk():
        write = mem.write_scalar
        for i in range(size):
            write(addr + i, "B", payload[i])

    def read_scalar_walk():
        read = mem.read_scalar
        acc = 0
        for i in range(size):
            acc ^= read(addr + i, "B", 1)
        return acc

    t_w_scalar = best(write_scalar_walk)
    t_r_scalar = best(read_scalar_walk)
    # bulk paths
    t_w_bulk = best(lambda: mem.write_bytes(addr, payload))
    t_r_bulk = best(lambda: mem.read_bytes(addr, size))
    got = mem.read_bytes(addr, size)
    assert got == payload, "membench: bulk round-trip corrupted data"

    # cstring: NUL-terminate and compare against a per-byte scan
    text = b"x" * (size - 1)
    mem.write_bytes(addr, text + b"\0")

    def cstring_walk():
        read = mem.read_scalar
        chars = []
        i = addr
        while True:
            b = read(i, "B", 1)
            if b == 0:
                break
            chars.append(chr(b))
            i += 1
        return "".join(chars)

    t_c_scalar = best(cstring_walk)
    t_c_bulk = best(lambda: mem.read_cstring(addr))
    assert mem.read_cstring(addr) == cstring_walk(), \
        "membench: read_cstring mismatch"

    mb = size / (1 << 20)
    print(f"membench ({mb:.0f} MiB block, best of {repeat}):")
    rows = (
        ("write", t_w_scalar, t_w_bulk),
        ("read", t_r_scalar, t_r_bulk),
        ("cstring", t_c_scalar, t_c_bulk),
    )
    failed = False
    for name, scalar_s, bulk_s in rows:
        ratio = scalar_s / bulk_s if bulk_s > 0 else math.inf
        print(f"  {name:<8} per-byte {scalar_s * 1e3:>9.2f}ms  "
              f"bulk {bulk_s * 1e6:>9.1f}us  ({ratio:,.0f}x)")
        if ratio < min_bulk_speedup:
            print(f"FAIL: bulk {name} only {ratio:.2f}x over the "
                  f"per-byte walk (< {min_bulk_speedup:.1f}x)",
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed runs per (kernel, engine); best "
                             "is kept (default 3)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required geomean bytecode-over-ast "
                             "end-to-end speedup (default 2.0)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also dump raw numbers as JSON")
    parser.add_argument("--backend", choices=("engines", "process"),
                        default="engines",
                        help="'engines' compares interpreter tiers "
                             "(default); 'process' runs the multi-core "
                             "backend differential instead")
    parser.add_argument("--workers", type=int, default=4,
                        help="process-backend worker count (default 4)")
    parser.add_argument("--min-mc-speedup", type=float, default=1.8,
                        help="required geomean process-backend scaling "
                             "(workers vs 1), enforced only when the "
                             "host has that many cores (default 1.8)")
    parser.add_argument("--engine", choices=("bytecode", "native"),
                        default="bytecode",
                        help="worker/measurement tier: 'native' runs "
                             "the compiled-C smoke (sequential "
                             "differential + >=10x gate, or native "
                             "workers with --backend process)")
    parser.add_argument("--min-native-speedup", type=float, default=10.0,
                        help="required geomean native-over-walker "
                             "sequential speedup (default 10.0)")
    parser.add_argument("--membench", action="store_true",
                        help="also run the zero-copy memory "
                             "micro-benchmark")
    args = parser.parse_args(argv)

    status = 0
    if args.membench:
        status = membench(repeat=args.repeat) or status
    if args.backend == "process":
        return process_smoke(args) or status
    if args.engine == "native":
        return native_smoke(args) or status

    rows = []
    for spec in all_benchmarks():
        print(f"measuring {spec.name} ...", file=sys.stderr)
        rows.append(measure(spec, args.repeat))

    header = (f"{'kernel':<16} {'ast(s)':>8} {'bytecode':>9} "
              f"{'speedup':>8}  parity")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['name']:<16} {row['ast']:>8.3f} "
              f"{row['bytecode']:>9.3f} {row['speedup']:>7.2f}x  "
              f"{'OK' if row['parity'] else 'DIVERGED'}")
    gm = geometric_mean([r["speedup"] for r in rows])
    print("-" * len(header))
    print(f"{'geomean':<16} {'':>8} {'':>9} {gm:>7.2f}x")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"rows": rows, "geomean": gm,
                       "min_speedup": args.min_speedup}, fh, indent=1)
            fh.write("\n")
        print(f"[raw numbers written to {args.json}]", file=sys.stderr)

    failed = False
    for row in rows:
        if not row["parity"]:
            print(f"FAIL: {row['name']} diverged between engines",
                  file=sys.stderr)
            failed = True
    if gm < args.min_speedup:
        print(f"FAIL: geomean speedup {gm:.2f}x < "
              f"required {args.min_speedup:.2f}x", file=sys.stderr)
        failed = True
    return 1 if failed or status else 0


if __name__ == "__main__":
    sys.exit(main())
