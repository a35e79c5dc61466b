"""Trace exporters: Chrome trace-event JSON and a human summary table.

The Chrome format (``chrome://tracing`` / Perfetto "JSON object
format") gets three synthetic processes so the clock domains never mix:

* pid 1 — toolchain phase spans, ``ts`` in wall-clock microseconds;
* pid 2 — simulated runtime events, ``ts`` in modeled cycles (one
  "microsecond" per cycle as far as the viewer is concerned), ``tid``
  is the virtual thread;
* pid 3 — multi-core backend worker processes, ``ts`` in wall-clock
  microseconds (same domain as pid 1), ``tid`` is the worker id.
  Only present when the process backend ran.

Metrics are exported both as Chrome counter events (``ph: "C"``) and
verbatim under ``otherData.metrics`` for programmatic consumers.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence

COMPILE_PID = 1
RUNTIME_PID = 2
WORKER_PID = 3
SCHEMA_VERSION = 1


def chrome_trace(tracer) -> Dict[str, Any]:
    """The full trace as a Chrome trace-event JSON object."""
    events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": COMPILE_PID, "tid": 0,
         "ts": 0, "args": {"name": "toolchain (wall-clock us)"}},
        {"ph": "M", "name": "process_name", "pid": RUNTIME_PID, "tid": 0,
         "ts": 0, "args": {"name": "simulated runtime (cycles)"}},
    ]
    worker_events = list(getattr(tracer, "worker_events", ()) or ())
    if worker_events:
        events.append(
            {"ph": "M", "name": "process_name", "pid": WORKER_PID,
             "tid": 0, "ts": 0,
             "args": {"name": "mc workers (wall-clock us)"}})
    origin = min(
        (s.start_us for s in tracer.spans), default=0.0)
    if worker_events:
        origin = min(origin,
                     min(w.ts_us for w in worker_events))
    for span in tracer.spans:
        events.append({
            "name": span.name, "cat": span.cat, "ph": "X",
            "ts": span.start_us - origin,
            "dur": span.dur_us if span.dur_us is not None else 0.0,
            "pid": COMPILE_PID, "tid": 0, "args": dict(span.args),
        })
    for ev in tracer.events:
        record: Dict[str, Any] = {
            "name": ev.name, "cat": "runtime",
            "ts": ev.ts, "pid": RUNTIME_PID, "tid": ev.tid,
            "args": dict(ev.args),
        }
        if ev.dur is None:
            record["ph"] = "i"
            record["s"] = "t"       # thread-scoped instant
        else:
            record["ph"] = "X"
            record["dur"] = ev.dur
        events.append(record)
    for wev in worker_events:
        events.append({
            "name": wev.name, "cat": "worker", "ph": "X",
            "ts": wev.ts_us - origin, "dur": wev.dur_us,
            "pid": WORKER_PID, "tid": wev.worker,
            "args": dict(wev.args),
        })
    metrics = tracer.metrics.as_dict()
    for name, value in metrics.items():
        if isinstance(value, (int, float)):
            # counter track
            events.append({
                "name": name, "ph": "C", "ts": 0,
                "pid": COMPILE_PID, "tid": 0, "args": {"value": value},
            })
        else:
            # label metrics (e.g. interp.engine) as instant markers —
            # Chrome counter tracks only accept numbers
            events.append({
                "name": name, "ph": "i", "s": "p", "ts": 0,
                "pid": COMPILE_PID, "tid": 0, "args": {"value": value},
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "schema_version": SCHEMA_VERSION,
            "metrics": metrics,
        },
    }


def write_chrome_trace(tracer, path: str) -> str:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# Human-readable summary
# ---------------------------------------------------------------------------

def _table(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(row):
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths))

    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def trace_summary(tracer) -> str:
    """Aggregated phase/event/metric tables (the ``--trace-summary``
    rendering)."""
    parts: List[str] = []

    # phases, aggregated by name (self time = total minus child time)
    totals: Dict[str, float] = {}
    selfs: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    order: List[str] = []
    for span in tracer.spans:
        dur = span.dur_us or 0.0
        if span.name not in totals:
            order.append(span.name)
        totals[span.name] = totals.get(span.name, 0.0) + dur
        selfs[span.name] = selfs.get(span.name, 0.0) + dur
        counts[span.name] = counts.get(span.name, 0) + 1
        if span.parent is not None:
            selfs[span.parent.name] = selfs.get(span.parent.name, 0.0) - dur
    if order:
        rows = [
            [name, counts[name], f"{totals[name]:,.0f}",
             f"{max(selfs[name], 0.0):,.0f}"]
            for name in order
        ]
        parts.append("Phases (wall-clock us)\n" + _table(
            ["phase", "count", "total", "self"], rows))

    # runtime events, aggregated by name
    ev_counts: Dict[str, int] = {}
    ev_cycles: Dict[str, float] = {}
    ev_order: List[str] = []
    for ev in tracer.events:
        if ev.name not in ev_counts:
            ev_order.append(ev.name)
        ev_counts[ev.name] = ev_counts.get(ev.name, 0) + 1
        ev_cycles[ev.name] = ev_cycles.get(ev.name, 0.0) + (ev.dur or 0.0)
    if ev_order:
        rows = [
            [name, ev_counts[name], f"{ev_cycles[name]:,.0f}"]
            for name in ev_order
        ]
        parts.append("Runtime events (simulated cycles)\n" + _table(
            ["event", "count", "cycles"], rows))

    # worker-process spans (process backend), aggregated by name
    w_counts: Dict[str, int] = {}
    w_us: Dict[str, float] = {}
    w_order: List[str] = []
    for wev in getattr(tracer, "worker_events", ()) or ():
        if wev.name not in w_counts:
            w_order.append(wev.name)
        w_counts[wev.name] = w_counts.get(wev.name, 0) + 1
        w_us[wev.name] = w_us.get(wev.name, 0.0) + wev.dur_us
    if w_order:
        rows = [
            [name, w_counts[name], f"{w_us[name]:,.0f}"]
            for name in w_order
        ]
        parts.append("Worker spans (wall-clock us)\n" + _table(
            ["span", "count", "us"], rows))

    # supervision counters (process backend fault tolerance), pulled
    # into their own table so restart/retry activity is visible at a
    # glance even among many metrics
    metrics_all = tracer.metrics.as_dict()
    sup_rows = [
        [label, f"{metrics_all[key]:,g}"]
        for label, key in (
            ("worker restarts", "runtime.mc_restart"),
            ("task retries", "runtime.mc_retry"),
            ("degradations", "runtime.mc_degrade"),
            ("sync-token re-issues", "runtime.mc_token_reissues"),
            ("spin-wait backoffs", "runtime.mc_spin_backoffs"),
        ) if key in metrics_all
    ]
    if sup_rows:
        parts.append("Supervision (process backend)\n" + _table(
            ["event", "count"], sup_rows))

    # the native parent's controller gate: entry points dispatched vs.
    # loops that stayed on the Python fallback, and the upcalls compiled
    # code made vs. the heap operations it kept in C
    gate_rows = [
        [label, f"{metrics_all[key]:,g}"]
        for label, key in (
            ("native dispatches", "runtime.parent_native_dispatches"),
            ("interpreted loops", "runtime.parent_interp_loops"),
            ("upcalls", "runtime.parent_native_upcalls"),
            ("C heap operations", "runtime.parent_native_heap_ops"),
        ) if key in metrics_all
    ]
    if gate_rows:
        parts.append("Native parent (controller gate, upcalls)\n" + _table(
            ["event", "count"], gate_rows))

    # stage-cache hit/miss counters (the staged pipeline / serve
    # daemon), folded into one per-stage table
    cache_stages: Dict[str, Dict[str, float]] = {}
    for key, value in metrics_all.items():
        if not key.startswith("cache.") or not isinstance(
                value, (int, float)):
            continue
        parts_key = key.split(".")
        if len(parts_key) != 3 or parts_key[2] not in ("hit", "miss"):
            continue
        cache_stages.setdefault(parts_key[1], {})[parts_key[2]] = value
    if cache_stages:
        rows = []
        for stage, hm in cache_stages.items():
            hit = hm.get("hit", 0)
            miss = hm.get("miss", 0)
            total = hit + miss
            rate = f"{hit / total:.0%}" if total else "-"
            rows.append([stage, f"{hit:,g}", f"{miss:,g}", rate])
        parts.append("Stage cache\n" + _table(
            ["stage", "hits", "misses", "hit rate"], rows))

    metrics = metrics_all
    if metrics:
        # values are usually counters, but some are labels (e.g. the
        # interp.engine name)
        rows = [
            [name,
             f"{value:,g}" if isinstance(value, (int, float)) else str(value)]
            for name, value in metrics.items()
        ]
        parts.append("Metrics\n" + _table(["metric", "value"], rows))

    return "\n\n".join(parts) if parts else "(empty trace)"
