"""Transform output-contract tests: the transformed IR of every kernel
passes ``repro lint``'s shape rules, and a sabotaged result is flagged
with the structured ``LINT-*`` code of the contract it breaks."""

import pytest

from repro.bench import all_benchmarks, get
from repro.diagnostics import Diagnostic, DiagnosticSink
from repro.frontend import ast, parse_and_analyze
from repro.lint import run_lint
from repro.transform import expand_for_threads

#: the rules that check the shape of the transform's output (§3)
SHAPE_CODES = [
    "LINT-ALLOC-SCALE",
    "LINT-FATPTR-FIELD",
    "LINT-LOOP-SHAPE",
    "LINT-EXPAND-SHAPE",
    "LINT-INIT-FN",
    "LINT-REANALYZE",
]


def _shape_findings(result, sink=None):
    return run_lint(result, sink=sink, codes=SHAPE_CODES).findings


@pytest.mark.parametrize("name", [s.name for s in all_benchmarks()])
def test_benchmarks_validate_clean(name):
    spec = get(name)
    program, sema = parse_and_analyze(spec.source)
    result = expand_for_threads(program, sema, spec.loop_labels)
    report = run_lint(result, codes=SHAPE_CODES)
    assert report.clean, report.render()
    assert report.rules_run == len(SHAPE_CODES)


@pytest.fixture()
def small_result():
    source = """
    int g;
    int buf[4];
    int out[5];
    int main(void) {
        int i; int k;
        int *w = (int*)malloc(sizeof(int) * 3);
        #pragma expand parallel(doall)
        L: for (i = 0; i < 5; i++) {
            g = i;
            for (k = 0; k < 4; k++) buf[k] = g + k;
            for (k = 0; k < 3; k++) w[k] = buf[k];
            out[i] = w[2];
        }
        for (i = 0; i < 5; i++) print_int(out[i]);
        return 0;
    }
    """
    program, sema = parse_and_analyze(source)
    return expand_for_threads(program, sema, ["L"])


class TestSabotageDetection:
    def test_clean_baseline(self, small_result):
        assert _shape_findings(small_result) == []

    def test_detects_unexpanded_allocation(self, small_result):
        for fn in small_result.program.functions():
            for node in fn.body.walk():
                if isinstance(node, ast.Call) and \
                        node.callee_name == "malloc":
                    # strip the xN multiplication
                    if isinstance(node.args[0], ast.Binary):
                        node.args[0] = node.args[0].left
        problems = _shape_findings(small_result)
        assert {d.code for d in problems} == {"LINT-ALLOC-SCALE"}
        assert any("multiply" in d.message for d in problems)

    def test_detects_missing_init_call(self, small_result):
        main = small_result.program.function("main")
        main.body.stmts.pop(0)
        problems = _shape_findings(small_result)
        assert {d.code for d in problems} == {"LINT-INIT-FN"}
        assert any("__expand_init" in d.message for d in problems)

    def test_detects_lost_pragma(self, small_result):
        small_result.loops[0].loop.pragmas.clear()
        problems = _shape_findings(small_result)
        assert {d.code for d in problems} == {"LINT-LOOP-SHAPE"}
        # per-loop findings carry the loop label
        assert any(d.loop == "L" for d in problems)

    def test_detects_broken_vla(self, small_result):
        for evar in small_result.expansion.expanded_vars.values():
            if evar.mode == "vla":
                evar.decl.vla_length = None
        problems = _shape_findings(small_result)
        assert {d.code for d in problems} == {"LINT-EXPAND-SHAPE"}
        assert any("length" in d.message for d in problems)

    def test_detects_name_breakage(self, small_result):
        # rename a referenced global out from under its uses
        for decl in small_result.program.globals():
            if decl.name == "out":
                decl.name = "renamed_out"
        problems = _shape_findings(small_result)
        assert {d.code for d in problems} == {"LINT-REANALYZE"}


class TestStructuredForm:
    def test_diagnostics_are_structured(self, small_result):
        small_result.loops[0].loop.pragmas.clear()
        problems = _shape_findings(small_result)
        assert problems and all(
            isinstance(d, Diagnostic) for d in problems
        )
        assert all(d.phase == "lint" for d in problems)
        assert all(d.severity == "error" for d in problems)
        assert all(d.code.startswith("LINT-") for d in problems)

    def test_sink_accumulates(self, small_result):
        small_result.loops[0].loop.pragmas.clear()
        sink = DiagnosticSink()
        problems = _shape_findings(small_result, sink=sink)
        assert sink.diagnostics == problems
        assert sink.by_code("LINT-LOOP-SHAPE")
