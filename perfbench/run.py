"""perfbench — the repository's benchmark command.

One workload, the driver's contract (last stdout line is the result)::

    python3 perfbench/run.py --workload serve_hot --seed 1 \\
        --seconds 10 --trace 0

Every workload, untraced then traced, each in its own fresh interpreter,
with everything collected in one file for ``compare.py``::

    python3 perfbench/run.py [--seed N] [--seconds S] [--out FILE]

A run returns only after every process it started has been reaped and
exits non-zero if anything outlived its sweep.
"""

import argparse
import atexit
import glob
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time


@atexit.register  # before multiprocessing registers its own: runs after them
def leave_no_process():
    """Last thing this interpreter does, whichever way it ends: no child
    of it is left, running or unreaped."""
    workloads.stop_resource_tracker()
    workloads.reap_children()


import metrics  # noqa: E402
import workloads  # noqa: E402

T_START = time.perf_counter()  # set-up: everything from here to the first job

SRC = os.path.join(workloads.ROOT, "src")

#: hard wall-clock budget of one workload interpreter in the all-mode
CHILD_BUDGET_S = 120


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_workload(args):
    """Set up, measure, tear down, then report: the result is printed
    only once nothing of the run is left."""
    sandbox = workloads.Sandbox()

    def counters():
        """Compiler invocations logged and sessions created, reused and
        evicted by every pool of the run, so far."""
        pools = list(sandbox.pools)
        if sandbox.svc is not None:
            pools.append(sandbox.svc.pool)
        return (sandbox.cc_invocations(),
                [sum(getattr(p, name) for p in pools)
                 for name in ("created", "reuses", "evicted")])

    try:
        workload = workloads.Workload(args.workload, args.seed, sandbox,
                                      args.kernels)
        workload.setup()
        setup_s = time.perf_counter() - T_START
        cc_before, pool_before = counters()
        own, rounds = workload.measure(args.seconds, args.trace)
        cc_after, pool_after = counters()
        disk_bytes, so_bytes = workload.disk_bytes()
        phase = {
            "cc_invocations": cc_after - cc_before,
            "pool": [b - a for a, b in zip(pool_before, pool_after)],
            "disk_bytes": disk_bytes, "so_bytes": so_bytes,
            # cc and reaped workers; the largest is the compiler
            "child_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        }
        rss_mb = peak_rss_mb(resource.RUSAGE_SELF)
    finally:
        leaked_workers, leaked_segments, survivors = sandbox.teardown()

    jobs = [r for rnds in rounds.values() for rnd in rnds for r in rnd]
    failed = sum(not r["ok"] for r in jobs)
    correct = not (failed or leaked_workers or leaked_segments
                   or survivors)
    rows = metrics.kernel_rows(rounds[own])
    if args.trace:
        declared = metrics.SPEC["per_layer"]
        values = metrics.per_layer(rounds, own, phase, workload.restart_ms,
                                   (leaked_workers, leaked_segments))
        spreads = {}
    else:
        declared = metrics.SPEC["end_to_end"]
        values, spreads = metrics.end_to_end(rounds[own], setup_s, rss_mb)
    result = metrics.result_line(declared, values, len(jobs), failed,
                                 correct)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {len(jobs)} jobs, {failed} failed, "
          f"{leaked_workers} workers and {leaked_segments} segments "
          f"leaked, {survivors} survived the sweep")
    for row in rows:
        print("#   {kernel:<14} n={n:<4} median {median_ms:10.3f} ms   "
              "max {max_ms:10.3f} ms   failed {failed} {why}".format(**row))
    for metric in declared:
        name = metric["name"]
        spread = (f"   {name}.spread {spreads[name]:.4f}"
                  if name in spreads else "")
        print(f"# {name:<40} {values[name]:16.6f} {metric['unit']}{spread}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "result": result, "spreads": spreads,
                       "kernels": rows,
                       "spans": workload.traced_spans}, fh)
    print(json.dumps(result))
    return 3 if survivors else 0


def run_all(args):
    """Each workload untraced, then traced, in its own interpreter (RSS,
    imports and GC state do not carry over).  The children stay in this
    process group and are waited for."""
    def stop(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, stop)
    merged = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    tmp = workloads.scratch_dir("all-")
    try:
        for name in (w["name"] for w in metrics.SPEC["workloads"]):
            entry = merged["workloads"][name] = {}
            for trace in (0, 1):
                out = os.path.join(tmp, f"{name}-{trace}.json")
                child = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__),
                     "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(trace),
                     "--out", out])
                try:
                    code = child.wait(CHILD_BUDGET_S)
                except BaseException:
                    # over budget, or this driver was told to stop:
                    # the child tears its own run down on SIGTERM
                    child.terminate()
                    try:
                        child.wait(30)
                    except subprocess.TimeoutExpired:
                        child.kill()
                        child.wait()
                    raise
                leftovers = glob.glob(f"/dev/shm/repro-mc-{child.pid}-*")
                if leftovers:
                    print(f"# left behind: {leftovers}", file=sys.stderr)
                    status = status or 3
                if code:
                    status = code
                    continue
                with open(out) as fh:
                    doc = json.load(fh)
                entry["trace" if trace else "end_to_end"] = doc
                if not doc["result"]["correct"]:
                    status = status or 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        workloads.drop_scratch()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(merged, fh)
    return status


def main(argv=None):
    names = [w["name"] for w in metrics.SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None, choices=names,
                        help="run this one workload in this interpreter "
                             "(default: all of them, one child each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the requests; the programs are the "
                             "registered kernels, unmodified")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole rounds until this much time "
                             "has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; "
                             "1: per-layer metrics from a traced pass")
    parser.add_argument("--out", default=None,
                        help="also write results, kernel rows and the "
                             "traced spans to this JSON file")
    parser.add_argument("--kernels", default=None,
                        type=lambda s: tuple(s.split(",")),
                        help="restrict the workload to these kernels "
                             "(tests and debugging; not a benchmark run)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no toolchain under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
