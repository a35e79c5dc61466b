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

    @staticmethod
    def _spy_on_run_job(monkeypatch):
        """The baselines ``run_job`` returns, and the engines of the
        Machines it builds."""
        import repro
        from repro.service import runner
        baselines, engines = [], []
        real_run_job, real_machine = repro.run_job, runner.Machine

        def run_job(*args, **kwargs):
            outcome = real_run_job(*args, **kwargs)
            baselines.append(outcome.baseline)
            return outcome

        def machine(*args, **kwargs):
            engines.append(kwargs["engine"])
            return real_machine(*args, **kwargs)

        monkeypatch.setattr(repro, "run_job", run_job)
        monkeypatch.setattr(runner, "Machine", machine)
        return baselines, engines

    @staticmethod
    def _plain_run(job) -> dict:
        from repro.frontend import parse_and_analyze
        program, sema = parse_and_analyze(job.source)
        machine = Machine(program, sema, engine=job.options.engine,
                          controlled=frozenset())
        exit_code = machine.run(job.options.entry)
        return {"output": list(machine.output), "exit_code": exit_code,
                "cycles": machine.cost.cycles,
                "peak": machine.memory.peak_footprint()}

    @pytest.mark.parametrize("job", _driver_cells())
    def test_cache_does_not_change_the_run(self, job, monkeypatch):
        from repro import expand_and_run
        from repro.service import StageCache

        baselines, baseline_engines = self._spy_on_run_job(monkeypatch)
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
        # the profile's run is the baseline: run_job runs nothing itself
        assert not baseline_engines
        plain = self._plain_run(job) if job.verify else None
        assert baselines == [plain, plain]
        for out in outcomes:
            spans = {span.name for span in out.trace.spans}
            assert "sequential-baseline" not in spans
        if not job.options.commutative:
            assert not outcomes[0].transform.commutative_sites
            assert "RT-RECOVERED" in fingerprints[0][4]

    def test_a_job_with_no_profiled_loop_runs_its_baseline_once(
            self, monkeypatch):
        """A permissive job whose one label names no loop quarantines it
        before any profile: ``run_job`` runs the original program itself,
        once per job, under the ``sequential-baseline`` span."""
        from repro import expand_and_run
        from repro.service import CompileOptions, Job, StageCache
        job = Job(FIGURE1, ["NOPE"], CompileOptions(strict=False))
        baselines, baseline_engines = self._spy_on_run_job(monkeypatch)
        for cache in (None, StageCache()):
            out = expand_and_run(job=job, cache=cache, trace=True)
            assert out.verified and out.transform.quarantined
            assert [span.name for span in out.trace.spans].count(
                "sequential-baseline") == 1
        assert baseline_engines == [job.options.engine] * 2
        plain = self._plain_run(job)
        assert baselines == [plain, plain]


class TestProfileStageEngine:
    """The ``profile`` stage runs on the job's own engine — ``native``
    on the instrumented unit with its C tracker — which is what its
    cache key has always said."""

    @staticmethod
    def _compile(engine, cache, monkeypatch):
        from repro.analysis import profiler
        from repro.interp.native import runtime
        from repro.service import CompileOptions, Job, StagedCompiler
        machines = []

        def spy_on(module, name):
            real = getattr(module, name)

            def spy(*args, **kwargs):
                machine = real(*args, **kwargs)
                machines.append(machine)
                return machine

            monkeypatch.setattr(module, name, spy)

        spy_on(profiler, "Machine")
        spy_on(runtime, "NativeMachine")
        job = Job(FIGURE3, ["L"], CompileOptions(engine=engine),
                  check_races=False)
        compiled = StagedCompiler(cache=cache).compile(job)
        (machine,) = machines           # one candidate loop, one run
        return machine, compiled

    def test_stage_runs_where_its_key_says(self, monkeypatch):
        from repro.interp.bytecode import BytecodeMachine
        from repro.interp.native import NativeMachine
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
            if engine == "native":
                assert type(machine) is NativeMachine and machine.tracker
            else:
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


def _builds(child, so_name: str) -> bool:
    """Whether a compiler child worked on the unit whose library is
    ``so_name`` (each file of a unit's build is named after it)."""
    import os
    stem = so_name[:-len(".so")]
    return any(os.path.basename(arg).startswith(stem + ".")
               for arg in child.args)


@pytest.mark.skipif(not _native_ok()[0], reason=_native_ok()[1])
class TestColdNativeCompile:
    """The two translation units of a cold native job (transformed
    program, the original's instrumented unit): the profile stage builds
    the instrumented unit and runs it, ``lower-native`` builds the
    transformed unit, and nothing of a build outlives it."""

    @staticmethod
    def _job(source=FIGURE1):
        from repro.service import CompileOptions, Job
        return Job(source, ["L"], CompileOptions(engine="native"),
                   check_races=False)

    @staticmethod
    def _instrumented(compiled):
        """The instrumented unit's context, which the profile stage
        registered for the original program."""
        from repro.interp.native import backend as nb
        return nb._CONTEXTS[compiled.program]

    @staticmethod
    def _spy_on_compilers(monkeypatch, tracer=None):
        """Every compiler child started from here on, with the names of
        the spans opened before it started."""
        from repro.interp.native import backend as nb
        real = nb.subprocess.Popen
        children, opened = [], []

        def popen(argv, *args, **kwargs):
            child = real(argv, *args, **kwargs)
            if "--version" not in argv:
                children.append(child)
                opened.append([span.name for span in tracer.spans]
                              if tracer is not None else [])
            return child

        monkeypatch.setattr(nb.subprocess, "Popen", popen)
        return children, opened

    @staticmethod
    def _leftovers(directory):
        import os
        return [name for name in os.listdir(directory)
                if ".tmp" in name or name.endswith(".o") or ".part" in name]

    def test_both_compilers_run_at_once(self, tmp_path, monkeypatch):
        """Each unit's compilers run at once: the instrumented unit's
        parts start together, and link, before the profile; the
        transformed unit's parts start together in lower-native."""
        import os
        from repro.frontend import ast
        from repro.interp.native import backend as nb
        from repro.obs import Tracer
        from repro.service import StageCache, StagedCompiler
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(nb, "PART_LINES", 200)
        tracer = Tracer()
        children, opened = self._spy_on_compilers(monkeypatch, tracer)
        waits = []
        real_wait4 = nb.os.wait4

        def wait4(pid, options):
            waits.append(len(children))
            return real_wait4(pid, options)

        monkeypatch.setattr(nb.os, "wait4", wait4)
        compiled = StagedCompiler(cache=StageCache(root=str(tmp_path)),
                                  tracer=tracer).compile(self._job())
        assert compiled.report["lower-native"] == "miss"
        # the instrumented unit: two parts, then its link, all before
        # the profile span opened; the transformed unit: two parts
        # after the plan, before any wait of theirs, then its link
        assert len(children) == 6
        instrumented, transformed = opened[:3], opened[3:]
        assert all("profile" not in o and o[-1] == "lower-native"
                   for o in instrumented)
        assert all("plan" in o for o in transformed)
        assert waits[:2] == [2, 2] and waits[3] == 5
        assert all(child.returncode == 0 for child in children)
        baseline = self._instrumented(compiled)
        assert baseline.lowering.tracked == frozenset(
            (ast.find_loop(compiled.program, "L").nid,))
        libs = [compiled.ctx.native.lib, baseline.lib]
        assert not any(lib.cache_hit for lib in libs)
        assert [lib.parts for lib in libs] == [2, 2]
        assert not self._leftovers(str(tmp_path / "native-so"))
        # the profile ran with no compiler left: the instrumented unit's
        # build is a lower-native span of its own, closed before the
        # profile span opened
        spans = [s for s in tracer.spans if not s.depth]
        names = [s.name for s in spans]
        wait = names.index("profile") - 1
        assert names[wait] == "lower-native" and \
            spans[wait].args == {"unit": "instrumented"}
        assert spans[wait].end_us <= spans[wait + 1].start_us
        # the stage's cc time is wall-clock inside lower-native spans
        # with a compiler running
        native = [s for s in spans if s.name == "lower-native"]
        cc_wall = tracer.metrics["native.compile_seconds"]
        assert 0 < cc_wall <= sum(s.dur_us for s in native) / 1e6

    def test_failing_compiler_leaves_nothing_behind(self, tmp_path,
                                                    monkeypatch):
        import os
        from repro.interp.native import backend as nb
        from repro.service import StageCache, StagedCompiler
        # args: -shared -O1 -fPIC -fwrapv -o OUT SRC
        fake_cc = tmp_path / "cc"
        fake_cc.write_text('#!/bin/sh\necho partial > "$6"\n'
                           'echo "fake cc: boom" >&2\nexit 3\n')
        fake_cc.chmod(0o755)
        monkeypatch.setattr(nb, "_find_cc", lambda: str(fake_cc))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        children, _ = self._spy_on_compilers(monkeypatch)
        cache = StageCache(root=str(tmp_path / "cache"))
        with pytest.raises(RuntimeError, match="NL-CC-FAIL.*boom"):
            StagedCompiler(cache=cache).compile(self._job())
        # the instrumented unit's compiler, run before the profile,
        # failed: the error left the compile before the transformed
        # unit's could start
        (child,) = children
        assert child.returncode == 3
        # no partial .so: the failed unit's .c is all that is kept
        left = os.listdir(str(tmp_path / "cache" / "native-so"))
        assert left and all(name.endswith(".c") for name in left)
        assert not self._leftovers(str(tmp_path / "cache" / "native-so"))

    def test_compiler_that_cannot_start_leaves_no_source_behind(
            self, tmp_path, monkeypatch):
        """``Popen`` raising on a cold job's transformed unit, after the
        instrumented unit was built: no source, output or temporary of
        the transformed unit is left, and the instrumented unit's
        library and source are kept."""
        import os
        from repro.interp.native import backend as nb
        from repro.obs import Tracer
        from repro.service import StageCache, StagedCompiler
        tracer = Tracer()
        real = nb.subprocess.Popen
        children = []

        def popen(argv, *args, **kwargs):
            if "--version" not in argv:
                if any(span.name == "plan" for span in tracer.spans):
                    raise OSError(24, "Too many open files")
                children.append(real(argv, *args, **kwargs))
                return children[-1]
            return real(argv, *args, **kwargs)

        monkeypatch.setattr(nb.subprocess, "Popen", popen)
        cache = StageCache(root=str(tmp_path))
        with pytest.raises(OSError, match="Too many open files"):
            StagedCompiler(cache=cache, tracer=tracer).compile(self._job())
        left = sorted(os.listdir(str(tmp_path / "native-so")))
        assert [name.rsplit(".", 1)[1] for name in left] == ["c", "so"]
        assert left[0][:-2] == left[1][:-3]
        assert children and all(c.returncode == 0 and _builds(c, left[1])
                                for c in children)

    def test_a_profile_that_raises_keeps_the_unit_it_ran(self, tmp_path,
                                                         monkeypatch):
        """The profile stage built the instrumented unit — here in two
        parts and a link — and ran it: its library stays cached, and no
        transformed unit was started."""
        import os
        from repro.interp.native import backend as nb
        from repro.service import StageCache, StagedCompiler
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(nb, "PART_LINES", 200)
        never = FIGURE1.replace("    #pragma", "    if (m > 0) return 0;\n"
                                "    #pragma")
        children, _ = self._spy_on_compilers(monkeypatch)
        cache = StageCache(root=str(tmp_path))
        with pytest.raises(RuntimeError, match="never executed"):
            StagedCompiler(cache=cache).compile(self._job(never))
        left = sorted(os.listdir(str(tmp_path / "native-so")))
        assert [name.rsplit(".", 1)[1] for name in left] == ["c", "so"]
        assert len(children) == 3
        assert all(c.returncode == 0 and _builds(c, left[1])
                   for c in children)

    def test_a_cached_profile_leaves_the_unit_alone(self, tmp_path,
                                                    monkeypatch):
        """With the profile cached (here: profile and classify hit, the
        options changed) and the .so cache gone, nothing would run the
        instrumented unit: the job does not lower, compile or bind it,
        before or in ``run_job`` (a fresh process: the memory tier is
        cold)."""
        import shutil
        from repro.interp.native import backend as nb
        from repro.obs import Tracer
        from repro.service import (
            CompileOptions, Job, StageCache, StagedCompiler, run_job,
        )
        cache = StageCache(root=str(tmp_path))
        run_job(StagedCompiler(cache=cache).compile(self._job()))
        shutil.rmtree(str(tmp_path / "native-so"))
        lowered, bound = [], []
        real_lower, real_bind = nb.lower_program, nb._bind
        monkeypatch.setattr(nb, "lower_program", lambda *a: lowered.append(
            a[3] if len(a) > 3 else None) or real_lower(*a))
        monkeypatch.setattr(nb, "_bind", lambda path, exports: bound.append(
            path) or real_bind(path, exports))
        tracer = Tracer()
        children, opened = self._spy_on_compilers(monkeypatch, tracer)
        job = Job(FIGURE1, ["L"], CompileOptions(engine="native",
                                                 opt=False),
                  check_races=False)
        compiled = StagedCompiler(cache=StageCache(root=str(tmp_path)),
                                  tracer=tracer).compile(job)
        assert compiled.report["classify"] == "hit"
        assert compiled.report["plan"] == "miss"
        # only the transformed unit: lowered, built after the plan, bound
        assert lowered == [None] and len(bound) == 1
        assert opened and all("plan" in o for o in opened)
        assert compiled.program not in nb._CONTEXTS
        started = len(children)
        outcome = run_job(compiled)
        assert outcome.verified
        assert lowered == [None] and len(bound) == 1 and \
            len(children) == started

    def test_a_cached_profile_and_baseline_leave_the_unit_alone(
            self, tmp_path, monkeypatch):
        """The same job again, with its profile — which carries the
        baseline's run — cached: nothing would run the instrumented
        unit, so the job does not lower, compile or bind it (a fresh
        process: the memory tier is cold)."""
        from repro.interp.native import backend as nb
        from repro.service import StageCache, StagedCompiler, run_job
        cache = StageCache(root=str(tmp_path))
        run_job(StagedCompiler(cache=cache).compile(self._job()),
                cache=cache)
        lowered, bound = [], []
        real_lower, real_bind = nb.lower_program, nb._bind
        monkeypatch.setattr(nb, "lower_program", lambda *a: lowered.append(
            a[3] if len(a) > 3 else None) or real_lower(*a))
        monkeypatch.setattr(nb, "_bind", lambda path, exports: bound.append(
            path) or real_bind(path, exports))
        children, _ = self._spy_on_compilers(monkeypatch)
        cache = StageCache(root=str(tmp_path))
        compiled = StagedCompiler(cache=cache).compile(self._job())
        assert compiled.report["profile"] == "hit"
        assert compiled.report["lower-native"] == "miss"
        assert compiled.program not in nb._CONTEXTS
        assert lowered == [None] and len(bound) == 1 and not children
        outcome = run_job(compiled, cache=cache)
        assert outcome.verified and lowered == [None]
        assert outcome.baseline is not None
