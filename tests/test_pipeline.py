"""End-to-end pipeline tests on the paper's own examples: Figure 1
(bzip2's zptr), Figure 3 (hmmer's two-site mx), plus pipeline plumbing
(origins, serial-statement planning, expansion-source modes)."""

import pytest

from repro.frontend import ast, parse_and_analyze, print_program
from repro.interp import Machine
from repro.runtime import run_parallel
from repro.transform import DOACROSS, DOALL, expand_for_threads
from repro.transform.pipeline import parse_loop_kind
from repro.transform.rewrite import origin_of

FIGURE1 = """
int results[6];
int main(void) {
    int m = 12;
    int b;
    int k;
    int blk;
    int *zptr = (int*)malloc(sizeof(int) * m);
    #pragma expand parallel(doall)
    L: for (blk = 0; blk < 6; blk++) {
        for (k = 0; k < m; k++) zptr[k] = blk * 100 + k;  // initialize
        b = 0;
        for (k = 0; k < m; k++) b += zptr[k];
        results[blk] = b;
    }
    for (k = 0; k < 6; k++) print_int(results[k]);
    return 0;
}
"""

FIGURE3 = """
int out[6];
int main(void) {
    int it;
    int k;
    int m1 = 40;
    int m2 = 24;
    int n;
    int *mx;
    #pragma expand parallel(doall)
    L: for (it = 0; it < 6; it++) {
        if (it % 2) {
            mx = (int*)malloc(m1);
            n = 10;
        } else {
            mx = (int*)malloc(m2);
            n = 6;
        }
        for (k = 0; k < n; k++) mx[k] = it * 10 + k;
        out[it] = mx[n - 1];
        free(mx);
    }
    for (k = 0; k < 6; k++) print_int(out[k]);
    return 0;
}
"""


def run_both(source, labels=("L",), **kw):
    program, sema = parse_and_analyze(source)
    base = Machine(program, sema)
    base.run()
    result = expand_for_threads(program, sema, list(labels), **kw)
    return program, sema, base, result


class TestFigure1:
    def test_transformed_shape(self):
        _, _, base, result = run_both(FIGURE1)
        text = print_program(result.program)
        # malloc enlarged by N
        assert "* m * __nthreads)" in text
        # span records the original size
        assert "zptr.span = sizeof(int) * m;" in text
        # private dereferences redirected by tid*span
        assert "__tid * zptr.span / 4" in text

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_parallel_equivalent(self, n):
        _, _, base, result = run_both(FIGURE1)
        outcome = run_parallel(result, n)
        assert outcome.output == base.output and not outcome.races

    def test_zptr_variable_itself_shared(self):
        """zptr is assigned before the loop and only read inside: the
        pointer variable is a shared access; only the chunk expands."""
        _, _, _, result = run_both(FIGURE1)
        expanded_names = {
            ev.decl.name for ev in result.expansion.expanded_vars.values()
        }
        assert "zptr" not in expanded_names
        assert len(result.expansion.expanded_alloc_origins) == 1


class TestFigure3:
    def test_two_malloc_sites_expanded(self):
        _, _, _, result = run_both(FIGURE3)
        assert len(result.expansion.expanded_alloc_origins) == 2

    def test_spans_stay_dynamic(self):
        """m1 != m2, so no constant span can be substituted — exactly
        why the paper needs runtime spans here."""
        _, _, _, result = run_both(FIGURE3)
        assert result.redirect_stats.dynamic_span > 0

    def test_mx_pointer_variable_is_expanded(self):
        """mx is written each iteration before use: the pointer
        variable itself is private (scalar expansion of a fat pointer)."""
        _, _, _, result = run_both(FIGURE3)
        expanded_names = {
            ev.decl.name for ev in result.expansion.expanded_vars.values()
        }
        assert "mx" in expanded_names

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_parallel_equivalent(self, n):
        _, _, base, result = run_both(FIGURE3)
        outcome = run_parallel(result, n)
        assert outcome.output == base.output and not outcome.races


class TestPipelinePlumbing:
    def test_origin_tracking_to_candidate_loop(self):
        program, sema, _, result = run_both(FIGURE1)
        orig_loop = ast.find_loop(program, "L")
        assert origin_of(result.loops[0].loop) == orig_loop.nid

    def test_loop_kind_from_pragma(self):
        program, _ = parse_and_analyze(FIGURE1)
        assert parse_loop_kind(ast.find_loop(program, "L")) == DOALL

    def test_doacross_kind(self):
        src = FIGURE1.replace("parallel(doall)", "parallel(doacross)")
        program, _ = parse_and_analyze(src)
        assert parse_loop_kind(ast.find_loop(program, "L")) == DOACROSS

    def test_expansion_source_profile_matches_static(self):
        _, _, base1, r_static = run_both(FIGURE1, expansion_source="static")
        _, _, base2, r_profile = run_both(FIGURE1, expansion_source="profile")
        assert (len(r_static.expansion.expanded_alloc_origins)
                == len(r_profile.expansion.expanded_alloc_origins))
        m = Machine(r_profile.program, r_profile.sema)
        m.nthreads = 1
        m.run()
        assert m.output == base2.output

    def test_serial_statements_detected_for_doacross(self):
        src = """
        int acc;
        int scratch[4];
        int out[6];
        int main(void) {
            int i; int k;
            #pragma expand parallel(doacross)
            L: for (i = 0; i < 6; i++) {
                for (k = 0; k < 4; k++) scratch[k] = i + k;
                out[i] = scratch[3];
                acc = acc * 3 + out[i];
            }
            print_int(acc);
            return 0;
        }
        """
        _, _, base, result = run_both(src)
        tl = result.loops[0]
        assert tl.kind == DOACROSS
        assert len(tl.serial_stmt_origins) == 1  # only the acc update
        outcome = run_parallel(result, 4)
        assert outcome.output == base.output

    def test_num_privatized_counts_structures(self):
        _, _, _, result = run_both(FIGURE1)
        # the zptr chunk is the only aggregate; b/k are scalars
        assert result.num_privatized == 1
        assert result.expansion.num_scalars >= 2

    def test_table2_stats_recorded(self):
        _, _, _, result = run_both(FIGURE1)
        assert result.redirect_stats.redirected >= 2

    def test_multiple_candidate_loops(self):
        src = """
        int buf[4];
        int outa[4];
        int outb[4];
        int main(void) {
            int i; int k;
            #pragma expand parallel(doall)
            A: for (i = 0; i < 4; i++) {
                for (k = 0; k < 4; k++) buf[k] = i;
                outa[i] = buf[0];
            }
            #pragma expand parallel(doall)
            B: for (i = 0; i < 4; i++) {
                for (k = 0; k < 4; k++) buf[k] = i * 2;
                outb[i] = buf[3];
            }
            print_int(outa[3] + outb[3]);
            return 0;
        }
        """
        program, sema, base, result = run_both(src, labels=("A", "B"))
        assert len(result.loops) == 2
        outcome = run_parallel(result, 4)
        assert outcome.output == base.output and not outcome.races

    def test_original_program_unmodified(self):
        program, sema = parse_and_analyze(FIGURE1)
        before = print_program(program)
        expand_for_threads(program, sema, ["L"])
        assert print_program(program) == before

    def test_unopt_mode_still_correct(self):
        _, _, base, result = run_both(FIGURE1, optimize=False)
        for n in (1, 4):
            outcome = run_parallel(result, n)
            assert outcome.output == base.output and not outcome.races

    def test_unopt_slower_than_opt(self):
        _, _, _, r_opt = run_both(FIGURE1, optimize=True)
        _, _, _, r_unopt = run_both(FIGURE1, optimize=False)
        def seq_cycles(result):
            m = Machine(result.program, result.sema)
            m.nthreads = 1
            m.run()
            return m.cost.cycles
        assert seq_cycles(r_unopt) > seq_cycles(r_opt)


class TestInterprocedural:
    def test_privatization_through_calls(self):
        src = """
        int buf[8];
        int out[5];
        void fill(int seed) {
            int k;
            for (k = 0; k < 8; k++) buf[k] = seed * k;
        }
        int take(void) { return buf[7]; }
        int main(void) {
            int i;
            #pragma expand parallel(doall)
            L: for (i = 0; i < 5; i++) {
                fill(i);
                out[i] = take();
            }
            print_int(out[4]);
            return 0;
        }
        """
        _, _, base, result = run_both(src)
        outcome = run_parallel(result, 4)
        assert outcome.output == base.output and not outcome.races
        names = {
            ev.decl.name for ev in result.expansion.expanded_vars.values()
        }
        assert "buf" in names

    def test_linked_queue_interprocedural(self):
        """dijkstra's shape in miniature: globals + per-iteration
        malloc/free through helper functions."""
        src = """
        struct q { int v; struct q *next; };
        struct q *head;
        int out[6];
        void push(int v) {
            struct q *x = (struct q*)malloc(sizeof(struct q));
            x->v = v;
            x->next = head;
            head = x;
        }
        int pop_sum(void) {
            int s = 0;
            while (head) {
                struct q *t;
                t = head;
                head = head->next;
                s += t->v;
                free(t);
            }
            return s;
        }
        int main(void) {
            int i;
            #pragma expand parallel(doall)
            L: for (i = 0; i < 6; i++) {
                int j;
                head = 0;
                for (j = 0; j <= i; j++) push(j * (i + 1));
                out[i] = pop_sum();
            }
            for (i = 0; i < 6; i++) print_int(out[i]);
            return 0;
        }
        """
        _, _, base, result = run_both(src)
        for n in (2, 4, 8):
            outcome = run_parallel(result, n)
            assert outcome.output == base.output and not outcome.races


class TestStagedPipelineCache:
    """The staged pipeline over the paper's Figure 1: every stage is
    probed from / published to a :class:`repro.service.StageCache`, so
    re-compiling identical inputs does zero transform work."""

    def _job(self, **kwargs):
        from repro.service import Job
        kwargs.setdefault("source", FIGURE1)
        kwargs.setdefault("loop_labels", ("L",))
        return Job(**kwargs)

    def test_cold_compile_then_full_warm_hit(self, tmp_path):
        from repro.service import StageCache, StagedCompiler, run_job
        cache = StageCache(root=str(tmp_path))
        compiler = StagedCompiler(cache=cache)
        cold = compiler.compile(self._job())
        assert all(v == "miss" for v in cold.report.values())
        warm = compiler.compile(self._job())
        assert all(v == "hit" for v in warm.report.values())
        # the cached artifact still runs (and verifies) correctly
        outcome = run_job(warm, cache=cache)
        assert outcome.verified and not outcome.races

    def test_expand_and_run_cache_report(self, tmp_path):
        from repro import expand_and_run
        from repro.service import StageCache
        cache = StageCache(root=str(tmp_path))
        first = expand_and_run(job=self._job(), cache=cache)
        second = expand_and_run(job=self._job(), cache=cache)
        assert first.output == second.output
        assert all(v == "miss" for v in first.cache_report.values())
        assert all(v == "hit" for v in second.cache_report.values())
        # without a cache it is the same staged compile, all misses
        third = expand_and_run(FIGURE1, ["L"])
        assert third.cache_report == first.cache_report

    def test_optflag_change_reuses_analysis_only(self, tmp_path):
        from repro.service import (
            CompileOptions, StageCache, StagedCompiler,
        )
        cache = StageCache(root=str(tmp_path))
        compiler = StagedCompiler(cache=cache)
        compiler.compile(self._job())
        ablated = compiler.compile(self._job(
            options=CompileOptions(opt=(False,) * 5)))
        # parse/sema/profile/classify are opt-independent...
        for stage in ("parse", "sema", "profile", "classify"):
            assert ablated.report[stage] == "hit"
        # ...but the transform stages must recompute
        for stage in ("expand", "optimize", "plan", "lower"):
            assert ablated.report[stage] == "miss"

    def test_bytecode_job_never_asks_for_the_c_compiler(self, monkeypatch):
        from repro.interp.native import NATIVE_ABI_VERSION, backend
        from repro.service import (
            CompileOptions, StagedCompiler, stage_keys,
        )
        from repro.service.stages import STAGES, _h

        def no_subprocess(*args, **kwargs):
            raise AssertionError(f"subprocess spawned: {args}")

        monkeypatch.setattr(backend, "_CC_IDENTITY", None)
        monkeypatch.setattr(backend.subprocess, "run", no_subprocess)
        job = self._job(options=CompileOptions(engine="bytecode"))
        keys = stage_keys(job)
        assert set(STAGES) <= set(keys)  # derivation stays total
        compiled = StagedCompiler().compile(job)
        assert compiled.keys == keys
        assert backend._CC_IDENTITY is None
        monkeypatch.undo()
        # a native job's key still folds the compiler identity exactly
        # as before, so cached .so files keep their names
        native = stage_keys(self._job(
            options=CompileOptions(engine="native")))
        assert native["lower-native"] == _h(
            native["lower"], NATIVE_ABI_VERSION, backend.CFLAGS,
            backend.cc_identity())

    def test_corrupt_entry_recovers_with_diagnostic(self, tmp_path):
        import os
        from repro.diagnostics import DiagnosticSink
        from repro.service import (
            StageCache, StagedCompiler, run_job, stage_keys,
        )
        cache = StageCache(root=str(tmp_path))
        StagedCompiler(cache=cache).compile(self._job())
        # the deepest durable stage is the one a fresh process probes
        key = stage_keys(self._job())["plan"]
        path = cache._entry_path("plan", key)
        assert os.path.exists(path)
        with open(path, "wb") as fh:
            fh.write(b"truncated garbage")
        sink = DiagnosticSink()
        fresh = StageCache(root=str(tmp_path), sink=sink)
        compiled = StagedCompiler(cache=fresh, sink=sink).compile(
            self._job())
        assert any(d.code == "CACHE-CORRUPT"
                   for d in sink.diagnostics)
        outcome = run_job(compiled, cache=fresh)
        assert outcome.verified and not outcome.races


DOACROSS_KERNEL = """
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


def _driver_cells():
    from repro.bench import get
    from repro.interp.native import native_backend_available
    from repro.service import CompileOptions, Job
    histogram = get("histogram").source
    native_ok, native_why = native_backend_available()
    return [
        pytest.param(Job(histogram, ["L"]), id="histogram"),
        # prover off: the reduction races and permissive mode recovers
        pytest.param(
            Job(histogram, ["L"],
                CompileOptions(commutative=False, strict=False)),
            id="histogram-no-commutative"),
        pytest.param(Job(DOACROSS_KERNEL, ["L"], chunk=2), id="doacross"),
        pytest.param(Job(FIGURE1, ["L"], verify=False), id="no-verify"),
        pytest.param(
            Job(FIGURE1, ["L"], CompileOptions(engine="native"),
                check_races=False),
            id="native",
            marks=pytest.mark.skipif(not native_ok, reason=native_why)),
    ]


class TestOneDriver:
    """``expand_and_run`` with and without a cache is one path through
    ``StagedCompiler`` + ``run_job``: every ``Job`` field means the same
    thing on both."""

    @pytest.mark.parametrize("job", _driver_cells())
    def test_cache_does_not_change_the_run(self, job, monkeypatch):
        from repro import expand_and_run
        from repro.service import StageCache, runner

        baseline_engines = []
        real_machine = runner.Machine

        def spy(*args, **kwargs):
            baseline_engines.append(kwargs["engine"])
            return real_machine(*args, **kwargs)

        monkeypatch.setattr(runner, "Machine", spy)
        outcomes = [expand_and_run(job=job, trace=True),
                    expand_and_run(job=job, cache=StageCache(),
                                   trace=True)]
        fingerprints = [
            (out.output, out.parallel.exit_code,
             out.parallel.total_cycles,
             len(out.transform.commutative_sites),
             [d.code for d in out.diagnostics], out.verified)
            for out in outcomes
        ]
        assert fingerprints[0] == fingerprints[1]
        assert outcomes[0].verified
        for out in outcomes:
            spans = {span.name for span in out.trace.spans}
            assert ("sequential-baseline" in spans) == job.verify
        if not job.options.commutative:
            assert not outcomes[0].transform.commutative_sites
            assert "RT-RECOVERED" in fingerprints[0][4]
        if job.options.engine == "native":
            assert baseline_engines == ["native", "native"]


class TestProfileStageEngine:
    """The ``profile`` stage runs on the job's own engine — promoted to
    instrumented bytecode where the engine has no observer fan-out —
    which is what its cache key has always said."""

    @staticmethod
    def _compile(engine, cache, monkeypatch):
        from repro.analysis import profiler
        from repro.service import CompileOptions, Job, StagedCompiler
        machines = []
        real_machine = profiler.Machine

        def spy(*args, **kwargs):
            machine = real_machine(*args, **kwargs)
            machines.append(machine)
            return machine

        monkeypatch.setattr(profiler, "Machine", spy)
        job = Job(FIGURE3, ["L"], CompileOptions(engine=engine),
                  check_races=False)
        compiled = StagedCompiler(cache=cache).compile(job)
        (machine,) = machines           # one candidate loop, one run
        return machine, compiled

    def test_stage_runs_where_its_key_says(self, monkeypatch):
        from repro.interp.bytecode import BytecodeMachine
        from repro.service import StageCache
        from .byte_oracle import profile_diff
        # one cache: the engine-independent parse and sema artifacts are
        # shared, so all three jobs profile the same AST (same nids)
        cache = StageCache()
        walker, compiled = self._compile("ast", cache, monkeypatch)
        assert type(walker) is Machine
        reference = compiled.ctx
        for engine in ("native", "bytecode"):
            machine, compiled = self._compile(engine, cache, monkeypatch)
            assert compiled.report["sema"] == "hit"
            assert compiled.report["profile"] == "miss"
            ctx = compiled.ctx
            assert ctx.program is reference.program
            assert type(machine) is BytecodeMachine
            assert not profile_diff(ctx.profiles["L"],
                                    reference.profiles["L"])
            for field in ("private_sites", "shared_sites",
                          "commutative_sites"):
                assert getattr(ctx.privs["L"], field) == getattr(
                    reference.privs["L"], field)
            assert [repr(c) for c in ctx.privs["L"].class_infos] == \
                [repr(c) for c in reference.privs["L"].class_infos]


def _native_ok():
    from repro.interp.native import native_backend_available
    return native_backend_available()


@pytest.mark.skipif(not _native_ok()[0], reason=_native_ok()[1])
class TestColdNativeCompile:
    """The ``lower-native`` stage of a cold job: two translation units
    (transformed program, sequential baseline), two compiler processes,
    side by side."""

    @staticmethod
    def _job():
        from repro.service import CompileOptions, Job
        return Job(FIGURE1, ["L"], CompileOptions(engine="native"),
                   check_races=False)

    @staticmethod
    def _spy_on_compilers(monkeypatch):
        """Every compiler child started from here on, and how many of
        the earlier ones nobody had waited for yet when each started."""
        from repro.interp.native import backend as nb
        real = nb.subprocess.Popen
        children, live_at_start = [], []

        def popen(argv, *args, **kwargs):
            compiling = "-shared" in argv
            if compiling:
                live_at_start.append(
                    sum(child.returncode is None for child in children))
            child = real(argv, *args, **kwargs)
            if compiling:
                children.append(child)
            return child

        monkeypatch.setattr(nb.subprocess, "Popen", popen)
        return children, live_at_start

    def test_both_compilers_run_at_once(self, tmp_path, monkeypatch):
        from repro.obs import Tracer
        from repro.service import StageCache, StagedCompiler
        children, live_at_start = self._spy_on_compilers(monkeypatch)
        tracer = Tracer()
        compiled = StagedCompiler(cache=StageCache(root=str(tmp_path)),
                                  tracer=tracer).compile(self._job())
        assert compiled.report["lower-native"] == "miss"
        # the second compiler started before the first was waited for
        assert live_at_start == [0, 1]
        assert all(child.returncode == 0 for child in children)
        libs = [compiled.ctx.native.lib, compiled.ctx.native_baseline.lib]
        assert not any(lib.cache_hit for lib in libs)
        # the stage's cc time is wall-clock with a compiler running:
        # inside the stage's span, no less than the slower process
        (span,) = [s for s in tracer.spans if s.name == "lower-native"]
        cc_wall = tracer.metrics["native.compile_seconds"]
        each = [lib.compile_seconds for lib in libs]
        assert max(each) <= cc_wall <= span.dur_us / 1e6

    def test_failing_compiler_leaves_nothing_behind(self, tmp_path,
                                                    monkeypatch):
        import os
        from repro.interp.native import backend as nb
        from repro.service import StageCache, StagedCompiler
        # args: -shared -O2 -fPIC -fwrapv -o OUT SRC
        fake_cc = tmp_path / "cc"
        fake_cc.write_text('#!/bin/sh\necho partial > "$6"\n'
                           'echo "fake cc: boom" >&2\nexit 3\n')
        fake_cc.chmod(0o755)
        monkeypatch.setattr(nb, "_find_cc", lambda: str(fake_cc))
        children, live_at_start = self._spy_on_compilers(monkeypatch)
        cache = StageCache(root=str(tmp_path / "cache"))
        with pytest.raises(RuntimeError, match="NL-CC-FAIL.*boom"):
            StagedCompiler(cache=cache).compile(self._job())
        # both were started; the first failed, the second was reaped
        # (finished or killed) before the error left the stage
        assert live_at_start == [0, 1]
        assert children[0].returncode == 3
        assert children[1].returncode is not None
        left = os.listdir(str(tmp_path / "cache" / "native-so"))
        assert left and all(name.endswith(".c") for name in left)

    def test_compiler_that_cannot_start_leaves_no_source_behind(
            self, tmp_path, monkeypatch):
        """``Popen`` raising on the second unit: its ``.c`` was already
        written and no compiler will ever read it — it goes, with the
        first unit's half-built output, and the first child is reaped."""
        import os
        from repro.interp.native import backend as nb
        real = nb.subprocess.Popen
        children = []

        def popen(argv, *args, **kwargs):
            if children:
                raise OSError(24, "Too many open files")
            children.append(real(argv, *args, **kwargs))
            return children[0]

        monkeypatch.setattr(nb.subprocess, "Popen", popen)
        unit = "#include <stdint.h>\nint64_t f%d(void *e) { return %d; }\n"
        with pytest.raises(OSError, match="Too many open files"):
            nb.compile_sources(
                [(unit % (i, i), [f"f{i}"], f"unit{i}") for i in (1, 2)],
                cache_dir=str(tmp_path))
        (first,) = children
        assert first.returncode is not None
        left = sorted(os.listdir(str(tmp_path)))
        assert len(left) == 1 and left[0].startswith("unit1-")
        assert left[0].endswith(".c")
