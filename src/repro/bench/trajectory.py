"""Machine-readable benchmark trajectories.

``emit_trajectory`` serializes a set of :class:`BenchmarkResult`\\ s to
a ``BENCH_<timestamp>.json`` file so runs can be archived (e.g. as CI
artifacts) and diffed across commits.  The payload carries everything
the paper's figures are built from:

* sequential baseline cycles / memory and loop coverage (Table 1);
* single-core overheads of the optimized / unoptimized transform and
  of runtime privatization (Figures 9-10);
* per-thread-count loop/total speedups, memory multiples and cycle
  breakdowns for expansion and runtime privatization (Figures 11-14);
* the sync-only baseline speedup (§4.3);
* harmonic-mean summary rows across all benchmarks.

Schema 2 adds *host wall-clock* measurements (everything above is
simulated cycles): per-benchmark per-phase seconds plus the end-to-end
total, and the interpreter tier (``engine``) the measurements ran on —
so engine-vs-engine trajectories can be diffed.

Schema 3 adds the execution backend: per-benchmark ``backend``
("simulated"/"process") and ``wallclock_seconds`` mapping thread count
to the host seconds of that expansion parallel run — on the process
backend ``wallclock_seconds["1"]/["n"]`` is the real multi-core
speedup.

Schema 4 adds the native lowering tier's compile accounting:
per-benchmark ``native`` is ``null`` unless the measurements ran on
``--engine native``, in which case it carries ``compile_seconds``
(host wall-clock spent in the C compiler for this benchmark) and the
``so_cache_hits`` / ``so_cache_misses`` of the on-disk shared-object
cache — a warm cache shows all hits and ``compile_seconds == 0``.
``load_trajectory`` reads schema 4 only: the files of earlier schemas
predate the native tier and no gate compares against them.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional

#: bump when the payload layout changes incompatibly
TRAJECTORY_SCHEMA = 4


def _harmonic(values) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return len(vals) / sum(1.0 / v for v in vals)


def _point_payload(point) -> Dict[str, object]:
    return {
        "loop_speedup": point.loop_speedup,
        "total_speedup": point.total_speedup,
        "memory_multiple": point.memory_multiple,
        "breakdown": dict(point.breakdown),
    }


def trajectory_payload(results, timestamp: Optional[str] = None,
                       serve: Optional[dict] = None) -> dict:
    """Build the JSON-serializable trajectory for ``results`` (a
    mapping of benchmark name to :class:`BenchmarkResult`).

    ``serve`` attaches a serve-daemon measurement block (cold/warm
    latencies, cache hit counts — the ``serve-smoke`` CI artifact)
    verbatim under the top-level ``"serve"`` key.  The block is
    additive and optional, so the schema number is unchanged and old
    readers are unaffected.
    """
    benchmarks = {}
    for name, res in sorted(results.items()):
        bd = res.breakdown
        benchmarks[name] = {
            "loops": list(res.spec.loop_labels),
            "seq_cycles": res.seq_cycles,
            "seq_loop_cycles": res.seq_loop_cycles,
            "seq_memory_bytes": res.seq_memory,
            "pct_time_in_loops": res.pct_time,
            "num_privatized": res.num_privatized,
            "access_breakdown": {
                "free": bd.free,
                "expandable": bd.expandable,
                "carried": bd.carried,
            } if bd is not None else None,
            "overheads": {
                "expansion_opt": res.overhead_opt,
                "expansion_unopt": res.overhead_unopt,
                "runtime_priv": res.overhead_rtpriv,
            },
            "expansion": {
                str(n): _point_payload(p)
                for n, p in sorted(res.expansion.items())
            },
            "runtime_priv": {
                str(n): _point_payload(p)
                for n, p in sorted(res.rtpriv.items())
            },
            "sync_only_speedup": res.sync_only_speedup,
            # schema 2: host wall-clock per measurement phase (seconds)
            # and the interpreter tier that produced the numbers
            "engine": getattr(res, "engine", "ast"),
            "wall_seconds": dict(getattr(res, "wall", {})),
            # schema 3: execution backend + host seconds of the
            # expansion parallel run at each thread count
            "backend": getattr(res, "backend", "simulated"),
            "wallclock_seconds": {
                str(n): secs
                for n, secs in sorted(getattr(res, "wallclock", {}).items())
            },
            # schema 4: native-tier compile accounting (None unless
            # the measurements ran on --engine native)
            "native": (dict(res.native)
                       if getattr(res, "native", None) else None),
        }

    thread_counts = sorted({
        n for res in results.values() for n in res.expansion
    })
    summary = {
        "overhead_opt_hmean": _harmonic(
            r.overhead_opt for r in results.values()
        ),
        "overhead_unopt_hmean": _harmonic(
            r.overhead_unopt for r in results.values()
        ),
        "overhead_rtpriv_hmean": _harmonic(
            r.overhead_rtpriv for r in results.values()
        ),
        "loop_speedup_hmean": {
            str(n): _harmonic(
                r.expansion[n].loop_speedup
                for r in results.values() if n in r.expansion
            )
            for n in thread_counts
        },
        "total_speedup_hmean": {
            str(n): _harmonic(
                r.expansion[n].total_speedup
                for r in results.values() if n in r.expansion
            )
            for n in thread_counts
        },
    }
    engines = sorted({
        getattr(r, "engine", "ast") for r in results.values()
    })
    backends = sorted({
        getattr(r, "backend", "simulated") for r in results.values()
    })
    summary["wall_seconds_total"] = sum(
        getattr(r, "wall", {}).get("total", 0.0) for r in results.values()
    )
    payload = {
        "schema": TRAJECTORY_SCHEMA,
        "generator": "repro.bench",
        "timestamp": timestamp or time.strftime("%Y-%m-%dT%H:%M:%S"),
        "engines": engines,
        "backends": backends,
        "benchmarks": benchmarks,
        "summary": summary,
    }
    if serve is not None:
        payload["serve"] = dict(serve)
    return payload


def load_trajectory(path: str) -> dict:
    """Read a ``BENCH_*.json`` trajectory of schema
    :data:`TRAJECTORY_SCHEMA`; any other schema, older or newer, is a
    ``ValueError`` naming the file and both numbers."""
    with open(path) as fh:
        payload = json.load(fh)
    schema = payload.get("schema", 1)
    if schema != TRAJECTORY_SCHEMA:
        age = "newer" if schema > TRAJECTORY_SCHEMA else "older"
        raise ValueError(
            f"{path}: trajectory schema {schema} is {age} than this "
            f"reader (reads schema {TRAJECTORY_SCHEMA})"
        )
    return payload


def emit_trajectory(results, path: Optional[str] = None,
                    timestamp: Optional[str] = None,
                    serve: Optional[dict] = None) -> str:
    """Write the trajectory JSON; returns the path written.

    ``path=None`` picks ``BENCH_<timestamp>.json`` in the working
    directory (the shape CI archives as an artifact).  Passing an
    existing directory (or a path ending in the separator) drops the
    generated ``BENCH_<timestamp>.json`` name inside it instead of
    littering the current directory; any other path is used verbatim,
    creating parent directories as needed.  ``serve`` forwards to
    :func:`trajectory_payload`.
    """
    payload = trajectory_payload(results, timestamp=timestamp,
                                 serve=serve)
    if path is None or path.endswith(os.sep) or os.path.isdir(path):
        stamp = time.strftime("%Y%m%d_%H%M%S")
        name = f"BENCH_{stamp}.json"
        path = os.path.join(path, name) if path else name
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
