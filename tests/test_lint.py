"""Static lint engine tests.

Three layers:

1. every benchmark kernel lints clean, and both fault-injector
   analogues (:mod:`repro.lint.mutate`) are caught by at least one
   rule on the mutated IR — the static mirror of the runtime
   fault-injection tests in ``test_faults.py``;
2. targeted sabotage of a small program triggers each rule
   individually, including the transform-shape contracts (candidate
   loops, expanded variables, ``__expand_init``, re-analysis) beyond
   the sabotage cases of ``test_validate.py``;
3. the liveness-based dead span-store analysis finds at least as many
   eliminable stores as the §3.4 emission-time peephole.
"""

import pytest

from repro.bench import all_benchmarks, get
from repro.diagnostics import Diagnostic, DiagnosticSink
from repro.frontend import ast, parse_and_analyze
from repro.frontend.ctypes import ArrayType
from repro.lint import all_rules, run_lint
from repro.lint.mutate import corrupt_spans, skew_copy_index
from repro.obs import Tracer
from repro.transform import expand_for_threads
from repro.transform.expand import INIT_FN_NAME, MODE_HEAP, TID
from repro.transform.optimize import _span_store, find_dead_span_stores
from repro.transform.pipeline import OptFlags

from .test_expand import _CALLEE_LOCAL_INIT

ALL_CODES = {
    "LINT-SPAN-MISSING",
    "LINT-SPAN-DEAD",
    "LINT-SPAN-CLOBBER",
    "LINT-ALLOC-SCALE",
    "LINT-FATPTR-FIELD",
    "LINT-LOOP-SHAPE",
    "LINT-EXPAND-SHAPE",
    "LINT-INIT-FN",
    "LINT-UNINIT-READ",
    "LINT-REANALYZE",
    "LINT-RACE-TID-FORM",
    "LINT-RACE-PRIVATE-COPY",
    "LINT-RACE-CLASS-SPLIT",
    "LINT-CERT",
}

SMALL = """
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


def _build(source=SMALL, labels=("L",), optimize=True):
    program, sema = parse_and_analyze(source)
    return expand_for_threads(program, sema, list(labels),
                              optimize=optimize)


def test_rule_registry_is_complete():
    rules = all_rules()
    assert {r.code for r in rules} == ALL_CODES
    assert all(r.title for r in rules)
    # re-analysis sees what every other rule saw
    assert rules[-1].code == "LINT-REANALYZE"


@pytest.mark.parametrize("name", [s.name for s in all_benchmarks()])
def test_benchmark_clean_and_mutations_caught(name):
    spec = get(name)
    program, sema = parse_and_analyze(spec.source)
    result = expand_for_threads(program, sema, spec.loop_labels)

    report = run_lint(result)
    assert report.clean, report.render()
    assert report.rules_run == len(ALL_CODES)

    # SpanCorruptor analogue: wherever a span store exists, zeroing its
    # value must be flagged statically
    corrupted = corrupt_spans(result.program)
    if corrupted:
        clobber = run_lint(result).by_code("LINT-SPAN-CLOBBER")
        assert len(clobber) == corrupted

    # CopyIndexSkew analogue: every skewed __tid occurrence must be
    # rejected by the copy-index auditor
    skewed = skew_copy_index(result.program)
    assert skewed > 0
    tid_form = run_lint(result).by_code("LINT-RACE-TID-FORM")
    assert len(tid_form) == skewed


AMBIGUOUS = """
int out[4];
int main(void) {
    int it; int k; int n;
    int m1 = 48;
    int m2 = 20;
    int *mx;
    #pragma expand parallel(doall)
    L: for (it = 0; it < 4; it++) {
        if (it % 2) {
            mx = (int*)malloc(m1);
            n = 12;
        } else {
            mx = (int*)malloc(m2);
            n = 5;
        }
        for (k = 0; k < n; k++) mx[k] = it + k;
        out[it] = mx[n - 1];
        free(mx);
    }
    for (it = 0; it < 4; it++) print_int(out[it]);
    return 0;
}
"""


def test_vla_expanded_fat_struct_clean_but_skew_caught():
    """Figure 3 shape: ``mx`` is VLA-expanded into per-thread fat
    structs, so redirections read ``__tid * mx[__tid].span`` — two
    ``__tid`` occurrences in one term.  The inner one sits in an opaque
    subtree and must not trip the arithmetic-skeleton audit; a skewed
    index still must."""
    result = _build(AMBIGUOUS)
    report = run_lint(result)
    assert report.clean, report.render()
    assert skew_copy_index(result.program) > 0
    assert run_lint(result).by_code("LINT-RACE-TID-FORM")


class TestReportApi:
    def test_findings_are_diagnostics(self):
        result = _build()
        skew_copy_index(result.program)
        report = run_lint(result)
        assert report.findings
        assert all(isinstance(d, Diagnostic) for d in report.findings)
        assert all(d.phase == "lint" for d in report.findings)
        assert all(d.code in ALL_CODES for d in report.findings)
        assert not report.clean
        assert "finding(s)]" in report.render()

    def test_race_findings_carry_loop_attribution(self):
        result = _build()
        skew_copy_index(result.program)
        findings = run_lint(result).by_code("LINT-RACE-TID-FORM")
        assert any(d.loop == "L" for d in findings)

    def test_sink_accumulates(self):
        result = _build()
        skew_copy_index(result.program)
        sink = DiagnosticSink()
        report = run_lint(result, sink=sink)
        assert sink.diagnostics == report.findings

    def test_rule_selection(self):
        result = _build()
        skew_copy_index(result.program)
        report = run_lint(result, codes=["LINT-SPAN-DEAD"])
        assert report.rules_run == 1
        assert report.clean  # the skew only trips the race rules

    def test_unknown_rule_rejected(self):
        result = _build()
        with pytest.raises(KeyError):
            run_lint(result, codes=["LINT-NO-SUCH-RULE"])

    def test_metrics_recorded(self):
        result = _build()
        tracer = Tracer()
        report = run_lint(result, tracer=tracer)
        assert tracer.metrics.get("lint.rules_run") == report.rules_run
        assert tracer.metrics.get("lint.findings") == 0


def _lose_allocation(result):
    # the expanded malloc no longer descends from its original site
    for fn in result.program.functions():
        if fn.name == INIT_FN_NAME:
            continue
        for node in fn.body.walk():
            if isinstance(node, ast.Call) and node.callee_name == "malloc":
                node.origin = -1


def _grow_fat_struct(result):
    for fat in result.promoter.fat_structs():
        fat.size = 24


def _unkind_loop(result):
    result.loops[0].kind = "sequential"


def _expanded(result, mode):
    return [evar.decl for evar in result.expansion.expanded_vars.values()
            if evar.mode == mode]


def _unheap_global(result):
    for decl in _expanded(result, MODE_HEAP):
        decl.ctype = ArrayType(decl.ctype.pointee, 4)


def _drop_init_alloc(result):
    result.program.function(INIT_FN_NAME).body.stmts.pop(0)


#: sabotage of the transform's output shape -> (mutation, the codes it
#: trips, words of one message)
SHAPE_SABOTAGE = {
    "lost-allocation": (_lose_allocation, {"LINT-ALLOC-SCALE"},
                        "vanished"),
    "fat-struct-size": (_grow_fat_struct, {"LINT-FATPTR-FIELD"},
                        "expected 16"),
    "loop-kind": (_unkind_loop, {"LINT-LOOP-SHAPE"}, "kind"),
    "heap-not-pointer": (_unheap_global,
                         {"LINT-EXPAND-SHAPE", "LINT-REANALYZE"},
                         "expected a pointer"),
    "unallocated-global": (_drop_init_alloc, {"LINT-INIT-FN"},
                           "never allocated"),
}


class TestSabotage:
    """Each rule fires on a targeted corruption — and only it."""

    def test_missing_span_store(self):
        # constant-span folding off so the span cells stay live
        result = _build(optimize=OptFlags(constant_spans=False))
        assert run_lint(result).clean
        removed = 0
        for fn in result.program.functions():
            for node in fn.body.walk():
                if not isinstance(node, ast.Block):
                    continue
                for stmt in list(node.stmts):
                    if _span_store(stmt) is not None:
                        node.stmts.remove(stmt)
                        removed += 1
        assert removed
        codes = {d.code for d in run_lint(result).findings}
        assert codes == {"LINT-SPAN-MISSING"}

    def test_unscaled_allocation(self):
        result = _build()
        for fn in result.program.functions():
            for node in fn.body.walk():
                if isinstance(node, ast.Call) and \
                        node.callee_name == "malloc" and \
                        isinstance(node.args[0], ast.Binary):
                    node.args[0] = node.args[0].left
        findings = run_lint(result).findings
        assert {d.code for d in findings} == {"LINT-ALLOC-SCALE"}
        assert any("multiply" in d.message for d in findings)

    @pytest.mark.parametrize("case", list(SHAPE_SABOTAGE))
    def test_transform_shape(self, case):
        mutate, codes, words = SHAPE_SABOTAGE[case]
        result = _build()
        assert run_lint(result).clean
        mutate(result)
        sink = DiagnosticSink()
        findings = run_lint(result, sink=sink).findings
        assert {d.code for d in findings} == codes
        assert any(words in d.message for d in findings)
        assert sink.diagnostics == findings
        assert all(isinstance(d, Diagnostic) and d.phase == "lint"
                   and d.severity == "error" for d in findings)
        # per-loop findings carry the loop label
        assert all(d.loop == "L" for d in findings
                   if d.code == "LINT-LOOP-SHAPE")

    def test_private_store_without_copy_selection(self):
        # aim every access at copy 0: no __tid left, so the tid-form
        # rule stays silent and the copy-resolution proof must fail
        result = _build()
        for fn in result.program.functions():
            if fn.body is None:
                continue
            for node in list(fn.body.walk()):
                if isinstance(node, ast.Ident) and node.name == TID:
                    lit = ast.IntLit(0)
                    node.__class__ = ast.IntLit
                    node.__dict__.clear()
                    node.__dict__.update(lit.__dict__)
        codes = {d.code for d in run_lint(result).findings}
        assert codes == {"LINT-RACE-PRIVATE-COPY"}

    def test_callee_initializer_storing_copy_zero(self):
        # the expanded local's initializer in a callee of the loop, sent
        # back to copy 0: threads share one initial value, and reads of
        # copy __tid see garbage
        result = _build(_CALLEE_LOCAL_INIT)
        stores = [node for fn in result.program.functions()
                  for node in fn.body.walk()
                  if isinstance(node, ast.Assign)
                  and isinstance(node.target, ast.Index)
                  and isinstance(node.target.base, ast.Ident)
                  and node.target.base.name == "v"
                  and isinstance(node.target.index, ast.Ident)
                  and node.target.index.name == TID]
        assert len(stores) == 1
        stores[0].target.index = ast.IntLit(0)
        findings = run_lint(result).by_code("LINT-RACE-PRIVATE-COPY")
        assert [d.severity for d in findings] == ["error"]
        assert findings[0].loop == "L"

    def test_split_access_class(self):
        result = _build()
        split = False
        for tl in result.loops:
            private = tl.priv.private_sites
            for edge in tl.profile.ddg.edges:
                if not edge.carried and edge.src in private and \
                        edge.dst in private:
                    private.discard(edge.dst)
                    split = True
                    break
            if split:
                break
        assert split, "no loop-independent private dependence to split"
        report = run_lint(result)
        assert report.by_code("LINT-RACE-CLASS-SPLIT")

    def test_uninitialized_read(self):
        source = SMALL.replace(
            "int i; int k;", "int i; int k; int u; int v;"
        ).replace(
            "return 0;",
            "v = u + 1;\n    print_int(v);\n    return 0;",
        )
        result = _build(source)
        findings = run_lint(result).findings
        assert {d.code for d in findings} == {"LINT-UNINIT-READ"}
        assert all(d.severity == "warning" for d in findings)


DEAD_SPAN_SRC = """
int out[5];
int main(void) {
    int i; int k; int b;
    int m = 8;
    int *p = (int*)malloc(sizeof(int) * m);
    int *q;
    #pragma expand parallel(doall)
    L: for (i = 0; i < 5; i++) {
        for (k = 0; k < m; k++) p[k] = i + k;
        b = 0;
        for (k = 0; k < m; k++) b = b + p[k];
        out[i] = b;
    }
    p = p + 0;
    q = p + 1;
    for (i = 0; i < 5; i++) print_int(out[i]);
    return 0;
}
"""


class TestDeadSpanAnalysis:
    """The liveness-based dead span-store analysis must subsume the
    §3.4 emission-time peephole: everything the peephole removes is an
    identity store the liveness pass also proves removable, and the
    liveness pass additionally finds stores that are merely never read
    (``q.span`` here — not an identity, invisible to the peephole)."""

    def _build(self, flags):
        program, sema = parse_and_analyze(DEAD_SPAN_SRC)
        return expand_for_threads(program, sema, ["L"], optimize=flags)

    def test_liveness_subsumes_peephole(self):
        kept = self._build(OptFlags(selective_promotion=False,
                                    trivial_span_elim=False))
        dead = find_dead_span_stores(kept.program)
        reasons = sorted(d.reason for d in dead)

        peephole = self._build(OptFlags(selective_promotion=False))
        adhoc = peephole.promoter.span_stores_eliminated

        assert adhoc >= 1
        assert len(dead) >= adhoc
        assert "identity" in reasons  # the p = p + 0 self-store
        assert "dead" in reasons      # q.span, never read again

    def test_pipeline_runs_liveness_pass(self):
        result = self._build(OptFlags(selective_promotion=False))
        assert result.span_stores_dead_eliminated >= 1
        # and the output still lints clean afterwards
        assert run_lint(result).clean

    def test_dead_rule_flags_surviving_stores(self):
        kept = self._build(OptFlags(selective_promotion=False,
                                    trivial_span_elim=False))
        report = run_lint(kept)
        dead = report.by_code("LINT-SPAN-DEAD")
        assert dead
        assert all(d.severity == "warning" for d in dead)
        assert report.stats["span_stores_proved_dead"] == len(dead)


class TestCliLint:
    def test_file_mode_clean(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "small.c"
        path.write_text(SMALL)
        assert main(["lint", str(path), "--fail-on-warning"]) == 0
        captured = capsys.readouterr()
        assert "0 finding(s)" in captured.err

    def test_bench_mode_clean(self, capsys):
        from repro.cli import main
        assert main(["lint", "--bench", "dijkstra"]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_warning_exit_codes(self, tmp_path, capsys):
        from repro.cli import main
        source = SMALL.replace(
            "int i; int k;", "int i; int k; int u; int v;"
        ).replace(
            "return 0;",
            "v = u + 1;\n    print_int(v);\n    return 0;",
        )
        path = tmp_path / "warn.c"
        path.write_text(source)
        # warnings alone do not fail...
        assert main(["lint", str(path)]) == 0
        # ...unless --fail-on-warning is given
        assert main(["lint", str(path), "--fail-on-warning"]) == 1
        captured = capsys.readouterr()
        assert "LINT-UNINIT-READ" in captured.out
