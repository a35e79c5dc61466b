"""Structured diagnostics, graceful degradation and runtime recovery."""

import pytest

from repro.diagnostics import (
    Diagnostic, DiagnosticSink, DiagnosableError, ERROR, NOTE, WARNING,
    diagnostic_of, severity_rank,
)
from repro.frontend import parse_and_analyze
from repro.frontend.sema import SemaError, analyze
from repro.interp import Machine, WatchdogTimeout
from repro.runtime import (
    ParallelError, RaceError, RecoveryEvent, run_parallel,
)
from repro.transform import QuarantinedLoop, TransformError, \
    expand_for_threads


def prepare(source, labels=("L",), **kwargs):
    program, sema = parse_and_analyze(source)
    base = Machine(program, sema)
    base.run()
    result = expand_for_threads(program, sema, list(labels), **kwargs)
    return base, result


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

# loop A touches a heap structure (interleaved layout refuses it),
# loop B is array-only and transforms fine
TWO_LOOP_SRC = """
int n;
int buf[16];
int outa[8];
int outb[8];
int main(void) {
    int i; int k;
    n = 16;
    int* heap = malloc(n * sizeof(int));
    #pragma expand parallel(doall)
    A: for (i = 0; i < 8; i++) {
        for (k = 0; k < n; k++) heap[k] = i + k;
        outa[i] = heap[n - 1];
    }
    #pragma expand parallel(doall)
    B: for (i = 0; i < 8; i++) {
        for (k = 0; k < 16; k++) buf[k] = i * k;
        outb[i] = buf[15];
    }
    for (i = 0; i < 8; i++) print_int(outa[i]);
    for (i = 0; i < 8; i++) print_int(outb[i]);
    return 0;
}
"""


class TestDiagnosticPrimitives:
    def test_render_includes_context(self):
        d = Diagnostic("RT-RACE", ERROR, "boom", loop="L", loc=(3, 7))
        text = d.render()
        assert "RT-RACE" in text and "'L'" in text and "3:7" in text

    def test_sink_queries(self):
        sink = DiagnosticSink()
        sink.note("FAULT-SPAN", "injected", loop="L")
        sink.warning("PIPE-QUARANTINE", "quarantined", loop="A")
        sink.error("RT-RACE", "conflict", loop="A")
        assert len(sink) == 3
        assert sink.has_errors
        assert [d.code for d in sink.by_loop("A")] == \
            ["PIPE-QUARANTINE", "RT-RACE"]
        assert [d.code for d in sink.by_code("RT-")] == ["RT-RACE"]
        assert severity_rank(NOTE) < severity_rank(WARNING) < \
            severity_rank(ERROR)

    def test_empty_sink_is_still_used(self):
        """Regression: an empty sink is falsy (len 0) but must not be
        replaced by a fresh one inside the pipeline/runtime."""
        program, sema = parse_and_analyze(DOALL_SRC)
        sink = DiagnosticSink()
        expand_for_threads(program, sema, ["L", "NOPE"], strict=False,
                           sink=sink)
        assert len(sink) > 0

    def test_diagnosable_error_str_unchanged(self):
        exc = DiagnosableError("plain message", code="X-Y", loop="L")
        assert str(exc) == "plain message"
        assert exc.diagnostic.code == "X-Y"
        assert exc.diagnostic.loop == "L"

    def test_diagnostic_of_foreign_exception(self):
        diag = diagnostic_of(KeyError("nope"))
        assert diag.code == "RAW-KEYERROR"
        assert diag.severity == ERROR

    def test_sema_error_is_diagnosable(self):
        program, _ = (None, None)
        with pytest.raises(SemaError) as info:
            parse_and_analyze("int main(void) { return missing; }")
        diag = info.value.diagnostic
        assert diag.code.startswith("SEMA")
        assert diag.loc is not None


class TestPipelineDegradation:
    def test_strict_default_fails_fast(self):
        program, sema = parse_and_analyze(DOALL_SRC)
        with pytest.raises(KeyError):
            expand_for_threads(program, sema, ["NOPE"])

    def test_missing_label_quarantined_permissive(self):
        program, sema = parse_and_analyze(DOALL_SRC)
        sink = DiagnosticSink()
        result = expand_for_threads(program, sema, ["L", "NOPE"],
                                    strict=False, sink=sink)
        assert [q.label for q in result.quarantined] == ["NOPE"]
        assert result.quarantined[0].fallback == QuarantinedLoop.SEQUENTIAL
        assert [tl.loop.label for tl in result.loops] == ["L"]
        assert sink.by_code("PIPE-QUARANTINE")
        # the good loop still runs in parallel with correct output
        base = Machine(*parse_and_analyze(DOALL_SRC))
        base.run()
        outcome = run_parallel(result, 4, strict=False)
        assert outcome.output == base.output

    def test_transform_failure_quarantines_one_loop(self):
        """Interleaved layout rejects loop A's heap structure; loop B
        must still transform, and A runs under runtime privatization."""
        program, sema = parse_and_analyze(TWO_LOOP_SRC)
        with pytest.raises(TransformError):
            expand_for_threads(program, sema, ["A", "B"],
                               layout="interleaved")
        sink = DiagnosticSink()
        result = expand_for_threads(program, sema, ["A", "B"],
                                    layout="interleaved", strict=False,
                                    sink=sink)
        assert [(q.label, q.phase, q.fallback)
                for q in result.quarantined] == \
            [("A", "transform", QuarantinedLoop.RUNTIME_PRIV)]
        assert [tl.loop.label for tl in result.loops] == ["B"]
        base = Machine(*parse_and_analyze(TWO_LOOP_SRC))
        base.run()
        outcome = run_parallel(result, 4, strict=False)
        assert outcome.output == base.output
        # both loops executed all iterations (A via the priv fallback),
        # each counted once per execution
        assert outcome.loops["A"].iterations == 8
        assert outcome.loops["B"].iterations == 8
        assert outcome.loops["A"].executions == 1
        assert outcome.loops["B"].executions == 1

    def test_diagnostics_on_result(self):
        program, sema = parse_and_analyze(DOALL_SRC)
        result = expand_for_threads(program, sema, ["NOPE"], strict=False)
        assert any(d.code == "PIPE-QUARANTINE" for d in result.diagnostics)
        # nothing survived: the program degrades to untransformed
        assert result.program is not None
        assert result.loops == []


WATCHDOG_SRC = """
int main(void) {
    int i;
    int acc;
    #pragma expand parallel(doall)
    L: for (i = 0; i < 100000; i++) { acc = acc + i; }
    print_int(acc);
    return 0;
}
"""


class TestWatchdog:
    def test_sequential_loop_budget(self):
        src = "int main(void) { int i; L: for (i = 0; i < 100000; i++) " \
              "{ } return 0; }"
        program, sema = parse_and_analyze(src)
        machine = Machine(program, sema, max_loop_steps=500)
        with pytest.raises(WatchdogTimeout) as info:
            machine.run()
        diag = info.value.diagnostic
        assert diag.code == "INTERP-WATCHDOG"
        assert diag.loop == "L"
        assert diag.data["budget"] == 500

    def test_parallel_loop_budget(self):
        program, sema = parse_and_analyze(WATCHDOG_SRC)
        result = expand_for_threads(program, sema, ["L"])
        with pytest.raises(WatchdogTimeout):
            run_parallel(result, 2, watchdog=1000)

    def test_generous_budget_passes(self):
        base, result = prepare(DOALL_SRC)
        outcome = run_parallel(result, 4, watchdog=10_000_000)
        assert outcome.output == base.output


class TestErrorAttribution:
    """Runtime errors carry loop label + source location (the
    _canonical_bounds failures used to lose them on nested calls)."""

    def test_noncanonical_loop_attributed(self):
        src = """
        int out[8];
        int main(void) {
            int i;
            i = 0;
            #pragma expand parallel(doall)
            L: while (i < 8) { out[i] = i; i = i + 1; }
            return 0;
        }
        """
        program, sema = parse_and_analyze(src)
        result = expand_for_threads(program, sema, ["L"])
        with pytest.raises(ParallelError) as info:
            run_parallel(result, 4)
        diag = info.value.diagnostic
        assert diag.code == "RT-NONCANONICAL"
        assert diag.loop == "L"
        assert diag.loc is not None and diag.loc[0] > 0

    def test_race_error_carries_data(self):
        base, result = prepare(DOALL_SRC)
        loop = result.loops[0].loop
        from repro.frontend import ast as A
        loop.body.stmts.append(A.ExprStmt(A.Assign(
            "=", A.Ident("out"), A.IntLit(1)
        )))
        # (not executable as-is; just check RaceError shape directly)
        exc = RaceError("conflicts", loop="L", data={"races": [(1, "w")]})
        assert exc.diagnostic.code == "RT-RACE"
        assert exc.diagnostic.data["races"]


def _sabotage(result):
    """Make the transformed loop body write one shared location from
    every iteration (a genuine under-privatization race)."""
    from repro.frontend import ast as A
    loop = result.loops[0].loop
    loop.body.stmts.append(A.ExprStmt(A.Assign(
        "=", A.Ident("shared"), A.IntLit(1)
    )))
    result.sema = analyze(result.program)


RACY_SRC = """
int shared;
int out[8];
int main(void) {
    int i;
    #pragma expand parallel(doall)
    L: for (i = 0; i < 8; i++) {
        out[i] = i;
    }
    print_int(out[7]);
    return 0;
}
"""


class TestRaceRecovery:
    def test_strict_raises(self):
        program, sema = parse_and_analyze(RACY_SRC)
        result = expand_for_threads(program, sema, ["L"])
        _sabotage(result)
        with pytest.raises(RaceError):
            run_parallel(result, 4)

    def test_permissive_recovers_sequentially(self):
        program, sema = parse_and_analyze(RACY_SRC)
        base = Machine(program, sema)
        base.run()
        result = expand_for_threads(program, sema, ["L"])
        _sabotage(result)
        sink = DiagnosticSink()
        outcome = run_parallel(result, 4, strict=False, sink=sink)
        assert outcome.output == base.output
        assert len(outcome.recoveries) == 1
        event = outcome.recoveries[0]
        assert isinstance(event, RecoveryEvent)
        assert event.label == "L"
        assert event.diagnostic.code == "RT-RACE"
        assert event.races  # the aborted attempt's conflicts
        assert sink.by_code("RT-RECOVERED")
        # recovered races do not count as unrecovered outcome races
        assert outcome.races == []

    def test_recovery_rolls_back_partial_state(self):
        """The failed parallel attempt's stores must not leak into the
        sequential re-execution (memory snapshot restore)."""
        src = """
        int shared;
        int out[8];
        int main(void) {
            int i;
            #pragma expand parallel(doall)
            L: for (i = 0; i < 8; i++) {
                out[i] = out[i] + i + 1;
            }
            for (i = 0; i < 8; i++) print_int(out[i]);
            return 0;
        }
        """
        program, sema = parse_and_analyze(src)
        base = Machine(program, sema)
        base.run()
        result = expand_for_threads(program, sema, ["L"])
        _sabotage(result)
        outcome = run_parallel(result, 4, strict=False)
        # out[i] += ... ran exactly once per index despite the retry
        assert outcome.output == base.output
