"""From job records to the numbers perfbench prints.

``BENCHMARK.json`` is the one declaration of metric names, units,
directions and bounds; this module only computes values and refuses to
report a set of names that differs from the declared one.
"""

import json
import math
import os
import statistics

from workloads import INPROC, ROOT, SOCKET, TRACED

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

#: timed jobs are cut into this many consecutive blocks of whole rounds;
#: the median block is reported, so one disturbed stretch of the run
#: does not move the number
BLOCKS = 5


geomean = statistics.geometric_mean


def percentile(values, share):
    """Nearest-rank percentile: a value that was measured."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def kernel_medians(records):
    by_kernel = {}
    for record in records:
        by_kernel.setdefault(record["kernel"], []).append(record["ms"])
    return {k: statistics.median(v) for k, v in by_kernel.items()}


def timings(rounds):
    """``(values, spreads)`` of the three job timings over the rounds of
    one path: each is computed per block and the median block reported,
    with (max - min) / median over the blocks as its spread."""
    count = min(BLOCKS, len(rounds))
    edges = [round(i * len(rounds) / count) for i in range(count + 1)]
    blocks = {"jobs_per_s": [], "job_geomean_ms": [], "job_p90_ms": []}
    for lo, hi in zip(edges, edges[1:]):
        block = [r for rnd in rounds[lo:hi] for r in rnd]
        # closed loop, one client: the time between two requests is
        # the client's, not the system's
        busy = sum(r["t1"] - r["t0"] for r in block)
        blocks["jobs_per_s"].append(sum(r["ok"] for r in block) / busy)
        blocks["job_geomean_ms"].append(
            geomean(kernel_medians(block).values()))
        blocks["job_p90_ms"].append(
            percentile([r["ms"] for r in block], 0.90))
    values = {name: statistics.median(v) for name, v in blocks.items()}
    # a run whose jobs all failed has a rate of 0 and no spread to speak of
    spreads = {name: (max(v) - min(v)) / values[name] if values[name]
               else 0.0 for name, v in blocks.items()}
    return values, spreads


def end_to_end(rounds, setup_s, rss_mb):
    """``(values, spreads)`` of the end-to-end metrics over the rounds
    of the workload's own path."""
    values, spreads = timings(rounds)
    # the tail is reported with the layers: between seeds it spread by
    # more than any bound the contract allows
    del values["job_p90_ms"], spreads["job_p90_ms"]
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = rss_mb
    return values, spreads


def kernel_rows(rounds):
    """One row per program, compilers practice: n, median, slowest."""
    jobs = [r for rnd in rounds for r in rnd]
    rows = []
    for kernel, median in kernel_medians(jobs).items():
        mine = [r for r in jobs if r["kernel"] == kernel]
        rows.append({
            "kernel": kernel, "n": len(mine), "median_ms": median,
            "max_ms": max(r["ms"] for r in mine),
            "failed": sum(not r["ok"] for r in mine),
            "why": sorted({w for r in mine for w in r["why"]}),
        })
    return rows


def per_layer(rounds, own, counters, restart_ms, leaks):
    """The per-layer ledger of a traced run.  ``rounds`` maps mode to
    its rounds, ``own`` names the workload's own path; ``counters``
    carries the whole-phase deltas read from the pool, the compiler log
    and the disk."""
    flat = {mode: [r for rnd in rnds for r in rnd]
            for mode, rnds in rounds.items()}
    traced = flat[TRACED]
    jobs = sum(len(records) for records in flat.values())

    def mean(name):
        return statistics.fmean(r["layers"].get(name, 0.0) for r in traced)

    def total(name):
        return sum(r["layers"].get(name, 0.0) for r in traced)

    def share(part, whole):
        return part / whole if whole else 0.0

    # default: the mean per traced job of the ledger entry of that name
    values = {m["name"]: mean(m["name"]) for m in SPEC["per_layer"]}

    first = {}
    for record in traced:
        first.setdefault(record["kernel"], record)
    values["model.loop_speedup_hmean"] = statistics.harmonic_mean(
        [r["loop_speedup"] for r in first.values()])
    values["model.expanded_bytes_multiple"] = geomean(
        [r["bytes_multiple"] for r in first.values()])
    values["interp.modeled_cycles"] = statistics.fmean(
        r["cycles"] for r in traced)

    values["interp.native.cc_invocations_per_job"] = \
        counters["cc_invocations"] / jobs
    values["interp.native.so_cache_hit_share"] = share(
        total("native.so_hits"),
        total("native.so_hits") + total("native.so_misses"))
    values["interp.native.so_bytes"] = counters["so_bytes"]
    values["interp.native.cc_peak_rss_mb"] = counters["child_rss_mb"]
    values["runtime.native_fallback_share"] = share(
        total("runtime.native_fallbacks"), total("runtime.worker_tasks"))

    values["service.cache.hit_share"] = statistics.fmean(
        r["hit_share"] for r in traced)
    values["service.cache.disk_bytes"] = counters["disk_bytes"]
    created, reused, evicted = counters["pool"]
    values["service.pool.reuse_share"] = share(reused, reused + created)
    values["service.pool.created_per_job"] = created / jobs
    values["service.pool.evicted_per_job"] = evicted / jobs

    inproc = kernel_medians(flat[INPROC])
    values["service.daemon.overhead_ms"] = statistics.fmean(
        ms - inproc[k]
        for k, ms in kernel_medians(flat[SOCKET]).items()
    ) if SOCKET in flat else 0.0
    values["service.restart_job_ms"] = \
        statistics.fmean(restart_ms) if restart_ms else 0.0
    values["service.leaked_workers"], values["service.leaked_segments"] = \
        leaks

    values["job.p90_ms"] = timings(rounds[own])[0]["job_p90_ms"]
    traced_ms = kernel_medians(traced)
    values["bench.trace_overhead_share"] = geomean(
        [traced_ms[k] / inproc[k] for k in traced_ms]) - 1.0
    values["bench.unattributed_share"] = share(
        total("bench.unattributed_ms"), sum(r["ms"] for r in traced))
    return values


def result_line(declared, values, attempted, failed, correct):
    """The driver's result object; ``declared`` is the ``end_to_end`` or
    ``per_layer`` list of BENCHMARK.json."""
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise RuntimeError(
            "computed metrics differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(values))}")
    return {
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
