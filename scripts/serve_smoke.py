"""Serve-mode smoke: the compile-once/serve-many contract, end to end.

Boots a real ``repro serve`` daemon (subprocess, Unix socket, fresh
cache root), submits every benchmark kernel **twice**, and asserts the
resident-service guarantees:

* **bit-identical outputs** — round 2 must reproduce round 1's program
  output, exit code and verification verdict exactly;
* **100% stage hits on round 2** — the second identical job must do
  zero compile work: ``cache_hits == cache_stages`` on every kernel;
* **warm session reuse** — on the process backend the daemon pools a
  single session (``--max-sessions 1``), so every kernel runs on it:
  round 2 must draw it from the pool (``session_reused``) and the
  daemon must have created exactly one (waived with a notice on hosts
  without the process backend);
* **warm latency** — the p50 round-2 daemon request must be at least
  ``--min-ratio`` (default 5) times faster than a cold ``repro
  parallel`` subprocess of the same kernel, demonstrating what the
  resident process actually buys.
* **zero warm compiles** — the daemon runs with ``$REPRO_NATIVE_CC_LOG``
  pointing at an audit file; round 2 must add **zero** C-compiler
  invocations regardless of engine (with ``--engine native`` round 1
  compiles each kernel's ``.so`` exactly once, and the warm round
  serves every job from the stage cache; the pooled workers load each
  kernel by binding the daemon's ``.so`` and never run the compiler).

``--engine native`` submits every job on the native lowering tier and
skips gracefully (exit 0) when the host has no C toolchain.

The cell-by-cell report lands in ``--json``.

Usage:  python scripts/serve_smoke.py [--backend auto|simulated|process]
        [--engine bytecode|native] [--threads N] [--min-ratio R]
        [--json PATH]

Exit status 0 when every assertion holds, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
sys.path.insert(0, SRC)

from repro.bench import all_benchmarks                    # noqa: E402
from repro.service import CompileOptions, Job, request    # noqa: E402


def start_daemon(socket_path, cache_dir, max_sessions, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra_env or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", socket_path, "--cache-dir", cache_dir,
         "--max-sessions", str(max_sessions)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + 15.0
    while time.time() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"serve daemon died on startup (exit {proc.returncode})")
        if os.path.exists(socket_path):
            try:
                request(socket_path, {"op": "ping"}, timeout=5.0)
                return proc
            except OSError:
                pass
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("serve daemon never came up")


def cold_cli_run(spec, path, threads):
    """One cold ``repro parallel`` subprocess; returns seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "repro", "parallel", path,
           "-n", str(threads)]
    for label in spec.loop_labels:
        cmd += ["--loop", label]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(
            f"cold repro parallel failed for {spec.name}: "
            f"{proc.stderr.decode()[-400:]}")
    return elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--backend",
                        choices=("auto", "simulated", "process"),
                        default="auto",
                        help="job backend (auto probes the host)")
    parser.add_argument("--engine", choices=("bytecode", "native"),
                        default="bytecode",
                        help="interpreter tier for every job (native "
                             "skips gracefully without a C toolchain)")
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--min-ratio", type=float, default=5.0,
                        help="required p50 cold-CLI / warm-daemon "
                             "latency ratio (default 5)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the cell-by-cell report here")
    args = parser.parse_args(argv)

    if args.engine == "native":
        from repro.interp.native import native_backend_available
        ok, why = native_backend_available()
        if not ok:
            print(f"SKIP: native tier unavailable ({why})",
                  file=sys.stderr)
            return 0

    backend = args.backend
    if backend == "auto":
        from repro.runtime import process_backend_available
        ok, why = process_backend_available()
        backend = "process" if ok else "simulated"
        if not ok:
            print(f"[process backend unavailable ({why}); "
                  f"running simulated]", file=sys.stderr)
    check_reuse = backend == "process"

    specs = list(all_benchmarks())
    failures = []
    rows = []
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        sock = os.path.join(tmp, "repro.sock")
        cache_dir = os.path.join(tmp, "cache")
        # the daemon appends one line per C-compiler invocation here;
        # the round-boundary counts prove the warm round compiled nothing
        cc_log = os.path.join(tmp, "cc.log")
        # one pooled session serves all the kernels
        proc = start_daemon(sock, cache_dir, max_sessions=1,
                            extra_env={"REPRO_NATIVE_CC_LOG": cc_log})

        def cc_invocations():
            try:
                with open(cc_log) as fh:
                    return sum(1 for _ in fh)
            except OSError:
                return 0

        engine = None if args.engine == "bytecode" else args.engine
        cc_per_round = []
        try:
            pong = request(sock, {"op": "ping"})
            assert pong["ok"], pong
            jobs = {}
            for spec in specs:
                jobs[spec.name] = Job(
                    spec.source, spec.loop_labels,
                    CompileOptions(engine=engine),
                    nthreads=args.threads, backend=backend,
                    workers=args.threads,
                    # race observers would gate the native parent tier
                    check_races=(args.engine != "native"),
                )
            results = {}          # name -> [round1, round2]
            for round_no in (1, 2):
                for spec in specs:
                    t0 = time.perf_counter()
                    resp = request(
                        sock, {"op": "run",
                               "job": jobs[spec.name].to_dict()})
                    elapsed = time.perf_counter() - t0
                    if not resp.get("ok"):
                        failures.append(
                            f"{spec.name}/r{round_no}: daemon error "
                            f"{resp.get('error')}")
                        continue
                    result = resp["result"]
                    result["_latency_s"] = elapsed
                    results.setdefault(spec.name, []).append(result)
                cc_per_round.append(cc_invocations())
            stats = request(sock, {"op": "stats"})["result"]
        finally:
            try:
                request(sock, {"op": "shutdown"}, timeout=5.0)
            except OSError:
                pass
            proc.wait(timeout=15.0)

        # cold-CLI comparison runs (daemon already gone; same host,
        # same kernels, fresh interpreter + full compile per run)
        cold_times = {}
        for spec in specs:
            if spec.name not in results or len(results[spec.name]) != 2:
                continue
            path = os.path.join(tmp, f"{spec.name}.c")
            with open(path, "w") as fh:
                fh.write(spec.source)
            cold_times[spec.name] = cold_cli_run(spec, path,
                                                 args.threads)

    warm_latencies = []
    for spec in specs:
        pair = results.get(spec.name, [])
        if len(pair) != 2:
            if not any(spec.name in f for f in failures):
                failures.append(f"{spec.name}: missing round results")
            continue
        r1, r2 = pair
        verdicts = []
        if (r1["output"], r1["exit_code"], r1["verified"]) != \
                (r2["output"], r2["exit_code"], r2["verified"]):
            verdicts.append("rounds diverged")
        if not r1["verified"]:
            verdicts.append("round 1 not verified")
        if r2["cache_stages"] == 0 or \
                r2["cache_hits"] != r2["cache_stages"]:
            verdicts.append(
                f"round 2 stage hits {r2['cache_hits']}/"
                f"{r2['cache_stages']} (want 100%)")
        if check_reuse and not r2["session_reused"]:
            verdicts.append("round 2 session not reused")
        warm_latencies.append(r2["_latency_s"])
        row = {
            "kernel": spec.name,
            "ok": not verdicts,
            "why": "; ".join(verdicts),
            "backend": r2["backend"],
            "cold_cli_s": round(cold_times.get(spec.name, 0.0), 4),
            "cold_daemon_s": round(r1["_latency_s"], 4),
            "warm_daemon_s": round(r2["_latency_s"], 4),
            "round1_hits": r1["cache_hits"],
            "round2_hits": f"{r2['cache_hits']}/{r2['cache_stages']}",
            "session_reused": r2["session_reused"],
        }
        rows.append(row)
        mark = "ok" if row["ok"] else "FAIL"
        print(f"{spec.name:<16} {mark:>4}  "
              f"cold-cli={row['cold_cli_s']:.2f}s "
              f"cold={row['cold_daemon_s']:.3f}s "
              f"warm={row['warm_daemon_s']:.3f}s "
              f"hits={row['round2_hits']} "
              f"reused={row['session_reused']}"
              f"{'  [' + row['why'] + ']' if verdicts else ''}")
        if verdicts:
            failures.append(f"{spec.name}: {row['why']}")

    ratio = 0.0
    p50_cold = p50_warm = 0.0
    if warm_latencies and cold_times:
        p50_cold = statistics.median(cold_times.values())
        p50_warm = statistics.median(warm_latencies)
        ratio = p50_cold / p50_warm if p50_warm else 0.0
        print("-" * 60)
        print(f"p50 cold CLI {p50_cold:.3f}s vs p50 warm daemon "
              f"{p50_warm:.3f}s -> {ratio:.1f}x "
              f"(required >= {args.min_ratio:g}x)")
        if ratio < args.min_ratio:
            failures.append(
                f"warm-daemon speedup {ratio:.1f}x < "
                f"{args.min_ratio:g}x")

    created = stats["pool"]["created"]
    if check_reuse and created != 1:
        failures.append(f"daemon created {created} sessions; one pooled "
                        "session must serve every kernel")

    cc_cold = cc_per_round[0] if cc_per_round else 0
    cc_warm = (cc_per_round[1] - cc_per_round[0]) \
        if len(cc_per_round) == 2 else 0
    print(f"C compiler invocations: round 1 = {cc_cold}, "
          f"round 2 = +{cc_warm}")
    if cc_warm:
        failures.append(
            f"warm round invoked the C compiler {cc_warm} time(s); "
            "the stage cache must serve round 2 without compiling")
    if args.engine == "native" and cc_cold == 0:
        failures.append(
            "native round 1 never invoked the C compiler "
            "(no kernel was actually lowered)")

    report = {
        "backend": backend,
        "engine": args.engine,
        "cc_invocations_cold": cc_cold,
        "cc_invocations_warm": cc_warm,
        "threads": args.threads,
        "kernels": len(rows),
        "p50_cold_cli_s": p50_cold,
        "p50_warm_daemon_s": p50_warm,
        "warm_speedup": ratio,
        "min_ratio": args.min_ratio,
        "daemon_stats": stats,
        "cells": rows,
        "failures": failures,
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"[report written to {args.json}]", file=sys.stderr)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
