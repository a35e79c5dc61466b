"""Observability tests: tracer invariants, Chrome export schema,
disabled-path cost, metrics cross-checks, CLI/trajectory emission."""

import json

import pytest

from repro import expand_and_run
from repro.frontend import parse_and_analyze
from repro.obs import (
    NULL_TRACER, NullTracer, Tracer, chrome_trace, ensure_tracer,
    trace_summary, write_chrome_trace, COMPILE_PID, RUNTIME_PID,
)
from repro.runtime import run_parallel
from repro.transform import OptFlags, expand_for_threads

DOALL_SRC = """
int buf[16];
int out[12];
int main(void) {
    int i; int k;
    #pragma expand parallel(doall)
    L: for (i = 0; i < 12; i++) {
        for (k = 0; k < 16; k++) buf[k] = i * k + 1;
        out[i] = buf[15];
    }
    for (i = 0; i < 12; i++) print_int(out[i]);
    return 0;
}
"""

DOACROSS_SRC = """
int buf[16];
int acc;
int main(void) {
    int i; int k;
    #pragma expand parallel(doacross)
    L: for (i = 0; i < 12; i++) {
        for (k = 0; k < 16; k++) buf[k] = i * k + 1;
        acc = acc * 7 + buf[15];
    }
    print_int(acc);
    return 0;
}
"""

#: phases the full expand_and_run workflow must record, in order of
#: first appearance
EXPECTED_PHASES = [
    "parse", "sema", "profile", "classify", "pointsto", "promote",
    "expand", "redirect", "plan", "sequential-baseline", "run",
]


@pytest.fixture(scope="module")
def traced_outcome():
    return expand_and_run(DOACROSS_SRC, ["L"], nthreads=4, trace=True)


class TestTracerCore:
    def test_span_nesting_stack_discipline(self):
        t = Tracer()
        with t.phase("outer"):
            with t.phase("inner"):
                pass
            with t.phase("inner2"):
                pass
        assert t.open_spans() == []
        outer, inner, inner2 = t.spans
        assert inner.parent is outer and inner2.parent is outer
        assert inner.depth == outer.depth + 1

    def test_cascade_close_on_exception(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.phase("outer"):
                t.begin("dangling")
                raise RuntimeError("boom")
        # the contextmanager's end() cascades through the dangling span
        assert t.open_spans() == []
        assert all(s.dur_us is not None for s in t.spans)

    def test_double_close_is_harmless(self):
        t = Tracer()
        a = t.begin("a")
        b = t.begin("b")
        t.end(a)            # cascades through b
        t.end(b)            # already closed: no-op
        t.end(a)
        assert t.open_spans() == []
        assert len(t.spans) == 2

    def test_child_interval_within_parent(self, traced_outcome):
        tracer = traced_outcome.trace
        assert tracer is not None and tracer.open_spans() == []
        for span in tracer.spans:
            if span.parent is not None:
                assert span.start_us >= span.parent.start_us
                assert span.end_us <= span.parent.end_us

    def test_expected_phases_recorded(self, traced_outcome):
        names = [s.name for s in traced_outcome.trace.spans]
        positions = []
        for phase in EXPECTED_PHASES:
            assert phase in names, f"missing phase {phase!r}"
            positions.append(names.index(phase))
        assert positions == sorted(positions)

    def test_runtime_events_have_thread_ids(self, traced_outcome):
        events = traced_outcome.trace.events
        assert events
        names = {e.name for e in events}
        assert "iteration" in names
        assert {"token-wait", "token-post"} & names  # doacross syncs
        nthreads = traced_outcome.parallel.nthreads
        assert all(0 <= e.tid < nthreads for e in events)
        assert all(e.ts >= 0 for e in events)


class TestChromeExport:
    def test_schema(self, traced_outcome):
        doc = chrome_trace(traced_outcome.trace)
        assert doc["otherData"]["generator"] == "repro.obs"
        events = doc["traceEvents"]
        assert events
        json.loads(json.dumps(doc))  # round-trips
        for ev in events:
            assert ev["ph"] in {"X", "i", "M", "C"}
            if ev["ph"] in {"X", "i", "C"}:
                assert isinstance(ev["ts"], (int, float))
                assert ev["ts"] >= 0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
            if ev["ph"] == "i":
                # thread-scoped runtime instants; process-scoped label
                # metrics (e.g. interp.engine)
                assert ev["s"] in {"t", "p"}

    def test_two_clock_domains_separated(self, traced_outcome):
        events = chrome_trace(traced_outcome.trace)["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert COMPILE_PID in pids and RUNTIME_PID in pids
        # runtime events sit on per-thread tracks
        tids = {e["tid"] for e in events
                if e["pid"] == RUNTIME_PID and e["ph"] in {"X", "i"}}
        assert len(tids) > 1

    def test_write_and_summary(self, traced_outcome, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(traced_outcome.trace, str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        text = trace_summary(traced_outcome.trace)
        assert "classify" in text
        assert "iteration" in text
        assert "runtime.total_cycles" in text

    def test_empty_tracer_exports(self):
        t = Tracer()
        events = chrome_trace(t)["traceEvents"]
        assert [e for e in events if e["ph"] != "M"] == []
        assert trace_summary(t) == "(empty trace)"


class TestDisabledPath:
    def test_null_tracer_is_falsy_noop(self):
        assert not NULL_TRACER
        assert not NullTracer()
        with NULL_TRACER.phase("x"):
            NULL_TRACER.event("e", 0, 1.0)
            NULL_TRACER.instant("i")
            NULL_TRACER.metrics.inc("k")
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.events == ()
        assert ensure_tracer(None) is NULL_TRACER
        real = Tracer()
        assert ensure_tracer(real) is real

    def test_outcome_trace_none_by_default(self):
        outcome = expand_and_run(DOALL_SRC, ["L"], nthreads=4)
        assert outcome.trace is None
        assert outcome.parallel.trace is None

    def test_tracing_does_not_perturb_simulation(self):
        plain = expand_and_run(DOALL_SRC, ["L"], nthreads=4)
        traced = expand_and_run(DOALL_SRC, ["L"], nthreads=4, trace=True)
        assert traced.output == plain.output
        assert traced.parallel.total_cycles == plain.parallel.total_cycles
        assert (traced.parallel.loop("L").makespan
                == plain.parallel.loop("L").makespan)


class TestMetrics:
    def test_transform_metrics_match_result(self):
        tracer = Tracer()
        program, sema = parse_and_analyze(DOACROSS_SRC)
        result = expand_for_threads(program, sema, ["L"], tracer=tracer)
        m = tracer.metrics
        assert (m["transform.redirected_accesses"]
                == result.redirect_stats.redirected)
        assert (m["transform.span_stores_eliminated"]
                == result.promoter.span_stores_eliminated)
        assert (m["transform.span_stores_inserted"]
                == result.promoter.span_stores_inserted)
        assert (m["transform.fat_pointer_types"]
                == result.promoter.num_fat_types)
        assert m["transform.structures_expanded"] == result.num_privatized
        assert (m["transform.scalars_expanded"]
                == result.expansion.num_scalars)

    def test_unoptimized_eliminates_nothing(self):
        tracer = Tracer()
        program, sema = parse_and_analyze(DOACROSS_SRC)
        expand_for_threads(program, sema, ["L"],
                           optimize=OptFlags.all_off(), tracer=tracer)
        assert tracer.metrics["transform.span_stores_eliminated"] == 0

    def test_runtime_metrics(self, traced_outcome):
        m = traced_outcome.trace.metrics
        par = traced_outcome.parallel
        assert m["runtime.total_cycles"] == par.total_cycles
        assert m["runtime.loop.L.makespan"] == par.loop("L").makespan
        assert (m["runtime.loop.L.iterations"]
                == par.loop("L").iterations)
        assert m["runtime.token_posts"] > 0
        # breakdown categories forwarded
        bd = par.loop("L").breakdown()
        for key in ("work", "sync", "wait", "runtime"):
            assert m[f"runtime.loop.L.{key}_cycles"] == bd[key]

    def test_doall_emits_chunk_events(self):
        tracer = Tracer()
        program, sema = parse_and_analyze(DOALL_SRC)
        result = expand_for_threads(program, sema, ["L"], tracer=tracer)
        run_parallel(result, 4, tracer=tracer)
        names = {e.name for e in tracer.events}
        assert "doall-chunk" in names and "iteration" in names


class TestCLI:
    def test_trace_flag_writes_mixed_domains(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "demo.c"
        src.write_text(DOACROSS_SRC)
        out = tmp_path / "out.json"
        assert main(["parallel", str(src), "--loop", "L", "-n", "4",
                     "--trace", str(out)]) == 0
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        span_names = {e["name"] for e in events
                      if e["ph"] == "X" and e["pid"] == COMPILE_PID}
        assert {"parse", "classify", "plan", "run"} <= span_names
        assert any(e["pid"] == RUNTIME_PID for e in events)
        assert "VERIFIED" in capsys.readouterr().err

    def test_granular_opt_flags(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "demo.c"
        src.write_text(DOALL_SRC)
        assert main(["expand", str(src), "--loop", "L",
                     "--no-opt-constant-spans", "--no-opt-licm"]) == 0
        assert "__tid" in capsys.readouterr().out

    def test_opt_reenable_roundtrip(self):
        from repro.cli import OPT_NAMES, build_parser, _opt_flags

        parser = build_parser()
        args = parser.parse_args(
            ["expand", "x.c", "--loop", "L"]
            + [f"--no-opt-{name}" for name in OPT_NAMES]
            + ["--opt", "hoisting"]
        )
        flags = _opt_flags(args)
        assert flags.hoisting
        assert not flags.constant_spans
        assert not flags.selective_promotion

    def test_trace_summary_flag(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "demo.c"
        src.write_text(DOALL_SRC)
        assert main(["run", str(src), "--trace-summary"]) == 0
        err = capsys.readouterr().err
        assert "Phases" in err and "parse" in err


class TestTrajectory:
    def test_emit_trajectory_payload(self, tmp_path):
        from repro.bench.harness import BenchmarkResult, ParallelPoint
        from repro.bench.suite import get
        from repro.bench.trajectory import emit_trajectory

        res = BenchmarkResult(get("dijkstra"))
        res.seq_cycles = 1000.0
        res.seq_loop_cycles = 800.0
        res.seq_memory = 64
        res.overhead_opt = 1.2
        res.overhead_unopt = 2.0
        res.overhead_rtpriv = 3.5
        for n in (1, 4):
            p = ParallelPoint(n)
            p.loop_speedup = 0.8 * n
            p.total_speedup = 0.7 * n
            p.memory_multiple = float(n)
            p.breakdown = {"work": 100.0 * n, "sync": 5.0,
                           "wait": 2.0, "runtime": 9.0}
            res.expansion[n] = p
            res.rtpriv[n] = ParallelPoint(n)
        path = tmp_path / "BENCH_test.json"
        written = emit_trajectory({"dijkstra": res}, path=str(path))
        assert written == str(path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == 4
        bench = doc["benchmarks"]["dijkstra"]
        assert bench["overheads"]["expansion_opt"] == 1.2
        assert bench["expansion"]["4"]["loop_speedup"] == pytest.approx(3.2)
        assert doc["summary"]["loop_speedup_hmean"]["4"] == pytest.approx(3.2)

    def test_auto_path_name(self, tmp_path, monkeypatch):
        from repro.bench.trajectory import emit_trajectory

        monkeypatch.chdir(tmp_path)
        written = emit_trajectory({})
        assert written.startswith("BENCH_") and written.endswith(".json")
        assert json.loads((tmp_path / written).read_text())["schema"] == 4
