"""Bytecode execution tier: engine selection, differential equivalence
against the tree walker over the whole benchmark suite, observer/cost
parity, the parallel-runtime drop-in contract, the memory fast-path
caches, and the schema-3 wall-clock trajectory."""

import json
import os

import pytest

from repro import CompileOptions, Job, expand_and_run
from repro.frontend import parse_and_analyze
from repro.interp import ENGINES, Machine, RecordingObserver, resolve_engine
from repro.interp.bytecode import BytecodeMachine, invalidate_code
from repro.interp.memory import HEAP, Memory, MemoryError_


# ---------------------------------------------------------------------------
# engine selection
# ---------------------------------------------------------------------------

class TestEngineSelection:
    def test_engines_tuple(self):
        assert ENGINES == ("ast", "bytecode", "native")

    def test_default_is_ast(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine() == "ast"
        assert resolve_engine(None) == "ast"

    @pytest.mark.parametrize("alias,canonical", [
        ("bytecode", "bytecode"),
    ])
    def test_aliases(self, alias, canonical):
        assert resolve_engine(alias) == canonical

    @pytest.mark.parametrize("spelling", [
        "bytecode-bare", "bare", "walker", "tree"])
    def test_removed_spellings_rejected(self, spelling, monkeypatch):
        """Three engines, three spellings: the bare variant and the
        aliases get the structured error every unknown name gets."""
        match = "unknown interpreter engine .*; choose from " \
            "ast, bytecode, native"
        with pytest.raises(ValueError, match=match):
            resolve_engine(spelling)
        program, sema = parse_and_analyze("int main(void) { return 0; }")
        with pytest.raises(ValueError, match=match):
            Machine(program, sema, engine=spelling)
        monkeypatch.setenv("REPRO_ENGINE", spelling)
        with pytest.raises(ValueError, match=match):
            Machine(program, sema)

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "bytecode")
        assert resolve_engine() == "bytecode"
        # explicit argument wins over the environment
        assert resolve_engine("ast") == "ast"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown interpreter engine"):
            resolve_engine("jit")

    def test_machine_factory(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        program, sema = parse_and_analyze(
            "int main(void) { return 0; }")
        walker = Machine(program, sema)
        assert type(walker) is Machine and walker.engine == "ast"
        bc = Machine(program, sema, engine="bytecode")
        assert isinstance(bc, BytecodeMachine)
        assert bc.engine == "bytecode"

    def test_env_var_selects_machine(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "bytecode")
        program, sema = parse_and_analyze(
            "int main(void) { return 0; }")
        machine = Machine(program, sema)
        assert isinstance(machine, BytecodeMachine)


# ---------------------------------------------------------------------------
# differential equivalence over the full benchmark suite
# ---------------------------------------------------------------------------

def _fingerprint(machine, code):
    cost = machine.cost
    return (code, tuple(machine.output), cost.cycles, cost.instructions,
            cost.loads, cost.stores, machine.memory.peak_footprint())


def _bench_names():
    from repro.bench import all_benchmarks

    return [spec.name for spec in all_benchmarks()]


class TestDifferential:
    """Every kernel computes bit-identical output *and* bit-identical
    simulated cost under all tiers, with zero compile fallbacks."""

    @pytest.mark.parametrize("name", _bench_names())
    def test_kernel_parity(self, name):
        from repro.bench import get
        from repro.interp.native import native_backend_available

        spec = get(name)
        native_ok, _ = native_backend_available()
        prints = {}
        for engine in ENGINES:
            if engine == "native" and not native_ok:
                continue
            program, sema = parse_and_analyze(spec.source)
            machine = Machine(program, sema, engine=engine)
            prints[engine] = _fingerprint(machine, machine.run())
            if engine == "native":
                assert machine.native_diag is None
                assert machine._low.nl == {}
                assert machine.native_dispatches > 0
        assert prints["ast"] == prints["bytecode"]
        if native_ok:
            # everything but the memory footprint: native frames are
            # bump-allocated in C and covered by one spanning Python
            # record, so the accounting stats legitimately differ
            assert prints["ast"][:6] == prints["native"][:6]


# A small program exercising the specialized compile shapes: scalar
# locals, globals, arrays, pointer arithmetic/deref, struct members,
# ++/--, compound assignment, strings, short-circuits, recursion.
SHAPES_SRC = """
struct pt { int x; int y; };
int g;
double acc;

int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}

int main(void) {
    int i;
    int a[8];
    struct pt p;
    p.x = 3; p.y = -4;
    int* q = a;
    for (i = 0; i < 8; i++) { a[i] = i * i; }
    for (i = 0; i < 8; i++) {
        g += *(q + i);
        p.x += a[i] % 3;
        acc = acc + a[i] * 0.5;
        i % 2 == 0 ? g++ : g--;
    }
    unsigned char c = 250;
    c += 10;                      /* wraps to 4 */
    print_int(c);
    print_int(fib(10));
    print_int(g + p.x + p.y);
    print_double(acc);
    print_str("shapes done");
    return g > 0 && p.x > 0;
}
"""


class TestObserverParity:
    def test_recorded_accesses_identical(self):
        # one parse: nids are process-global, so site ids only compare
        # across engines when both machines share the analyzed AST
        program, sema = parse_and_analyze(SHAPES_SRC)
        events = {}
        for engine in ("ast", "bytecode"):
            machine = Machine(program, sema, engine=engine)
            obs = RecordingObserver()
            machine.observers.append(obs)
            code = machine.run()
            events[engine] = (code, tuple(machine.output),
                              tuple(obs.events))
        assert events["ast"] == events["bytecode"]

    @pytest.mark.parametrize("engine", ["bytecode", "native"])
    def test_observer_attached_after_construction_sees_everything(
            self, engine):
        """There is no closure variant with the fan-out compiled out:
        an observer appended to a machine built unobserved — the
        closures a ``NativeMachine`` falls back to included — receives
        the walker's access stream, and costs still match."""
        from repro.interp.native import native_backend_available
        if engine == "native" and not native_backend_available()[0]:
            pytest.skip(native_backend_available()[1])
        program, sema = parse_and_analyze(SHAPES_SRC)
        seen = {}
        for name in ("ast", engine):
            machine = Machine(program, sema, engine=name)
            assert machine.engine == name
            obs = RecordingObserver()
            machine.observers.append(obs)
            seen[name] = (_fingerprint(machine, machine.run())[:6],
                          tuple(obs.events))
            assert obs.events
        assert seen["ast"] == seen[engine]


# ---------------------------------------------------------------------------
# parallel runtime drop-in contract
# ---------------------------------------------------------------------------

PAR_SRC = """
int n;
int out[12];
int main(void) {
    int i; int k;
    n = 16;
    int* buf = malloc(n * sizeof(int));
    #pragma expand parallel(doall)
    L: for (i = 0; i < 12; i++) {
        for (k = 0; k < n; k++) buf[k] = i * k + 1;
        out[i] = buf[n - 1];
    }
    for (i = 0; i < 12; i++) print_int(out[i]);
    return 0;
}
"""


def par_job(engine, nthreads=4):
    return Job(PAR_SRC, ["L"], CompileOptions(engine=engine),
               nthreads=nthreads)


RACY_SRC = """
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


class TestParallelContract:
    @pytest.mark.parametrize("engine", ["bytecode"])
    def test_expand_and_run_verified(self, engine):
        outcome = expand_and_run(job=par_job(engine))
        assert outcome.verified
        assert outcome.races == []
        assert outcome.loop_speedup > 1.0

    def test_same_speedups_as_walker(self):
        a = expand_and_run(job=par_job("ast"))
        b = expand_and_run(job=par_job("bytecode"))
        assert a.output == b.output
        assert a.loop_speedup == b.loop_speedup
        assert a.total_speedup == b.total_speedup
        assert a.parallel.peak_memory == b.parallel.peak_memory

    def test_race_checker_fires(self):
        from repro.frontend import ast as A
        from repro.frontend.sema import analyze
        from repro.runtime import RaceError, run_parallel
        from repro.transform import expand_for_threads

        # plant a genuine conflict: every iteration writes one shared
        # global (mirrors test_runtime.TestRaceDetection on the walker)
        program, sema = parse_and_analyze(RACY_SRC)
        result = expand_for_threads(program, sema, ["L"])
        loop = result.loops[0].loop
        store = A.ExprStmt(A.Assign(
            "=", A.Index(A.Ident("out"), A.IntLit(0)), A.IntLit(1)
        ))
        loop.body.stmts.append(store)
        result.sema = analyze(result.program)
        with pytest.raises(RaceError):
            run_parallel(result, 4, engine="bytecode", strict=True)

    def test_watchdog_trips(self):
        from repro.interp import WatchdogTimeout

        src = ("int main(void) { int i; L: for (i = 0; i < 100000; i++) "
               "{ } return 0; }")
        program, sema = parse_and_analyze(src)
        machine = Machine(program, sema, max_loop_steps=500,
                          engine="bytecode")
        with pytest.raises(WatchdogTimeout) as info:
            machine.run()
        diag = info.value.diagnostic
        assert diag.code == "INTERP-WATCHDOG"
        assert diag.loop == "L"

    def test_armed_watchdog_closes_the_native_gate(self):
        """Compiled code cannot count statements against a deadline, so
        a machine with a budget runs its loops in the closures."""
        from repro.interp import WatchdogTimeout
        from repro.interp.native import native_backend_available
        if not native_backend_available()[0]:
            pytest.skip(native_backend_available()[1])
        src = ("int main(void) { int i; L: for (i = 0; i < 100000; i++) "
               "{ } return 0; }")
        program, sema = parse_and_analyze(src)
        machine = Machine(program, sema, max_loop_steps=500,
                          engine="native")
        with pytest.raises(WatchdogTimeout) as info:
            machine.run()
        assert info.value.diagnostic.loop == "L"
        assert machine.native_dispatches == 0
        # a budget pushed later (what a loop controller does) closes it
        # for as long as it is armed
        machine = Machine(program, sema, engine="native")
        machine.setup_globals()
        assert machine._native_ok()
        machine.push_watchdog(500, "L")
        assert not machine._native_ok()
        machine.pop_watchdog()
        assert machine._native_ok()

    @pytest.mark.parametrize("engine", ["bytecode", "native"])
    def test_job_watchdog_honored_with_nothing_else_watching(self, engine):
        """A budget is counted wherever Python runs: with the race
        checker off a native parent used to ignore ``Job.watchdog`` and
        complete silently; it now trips like every other engine."""
        from repro import DiagnosticSink
        from repro.bench import get
        from repro.interp import WatchdogTimeout
        from repro.interp.native import native_backend_available
        if engine == "native" and not native_backend_available()[0]:
            pytest.skip(native_backend_available()[1])
        spec = get("mpeg2-decoder")
        job = Job(spec.source, list(spec.loop_labels),
                  CompileOptions(engine=engine), nthreads=2, watchdog=5,
                  check_races=False)
        sink = DiagnosticSink()
        with pytest.raises(WatchdogTimeout) as info:
            expand_and_run(job=job, sink=sink)
        diag = info.value.diagnostic
        assert diag.code == "INTERP-WATCHDOG"
        assert diag.data["budget"] == 5
        notes = [d.message for d in sink.by_code("NL-OBSERVERS")]
        if engine == "native":
            assert len(notes) == 1 and "watchdog" in notes[0]
        else:
            assert notes == []

    def test_interp_engine_metric_recorded(self):
        outcome = expand_and_run(job=par_job("bytecode", nthreads=2),
                                 trace=True)
        assert outcome.trace.metrics.as_dict()["interp.engine"] == "bytecode"

    def test_compile_phase_traced(self):
        outcome = expand_and_run(job=par_job("bytecode", nthreads=2),
                                 trace=True)
        phases = {s.name for s in outcome.trace.spans}
        assert "compile-bytecode" in phases


# ---------------------------------------------------------------------------
# lint mutators invalidate compiled code
# ---------------------------------------------------------------------------

class TestMutationInvalidation:
    def _outcome(self, result, engine):
        machine = Machine(result.program, result.sema, engine=engine)
        try:
            code = machine.run()
        except Exception as exc:
            return (type(exc).__name__, str(exc))
        return (code, tuple(machine.output))

    def test_mutated_ast_not_served_from_stale_cache(self):
        from repro.lint.mutate import skew_copy_index
        from repro.transform import expand_for_threads

        program, sema = parse_and_analyze(PAR_SRC)
        result = expand_for_threads(program, sema, ["L"])
        # compile + run the clean program so the code cache is warm
        clean = self._outcome(result, "bytecode")
        assert clean == self._outcome(result, "ast")
        # in-place AST corruption; compiled closures must not survive.
        # Sequentially only copy 0 exists, so the skewed __tid aims
        # every redirected access out of bounds — visibly different
        # from the clean run.
        count = skew_copy_index(result.program, stride=1)
        assert count > 0
        mutated = self._outcome(result, "bytecode")
        assert mutated != clean
        # and both tiers agree on the corrupted semantics — a stale
        # cache would silently keep the pre-mutation behavior alive
        assert mutated == self._outcome(result, "ast")

    def test_mutated_ast_not_served_from_a_stale_native_context(self):
        from repro.interp.native import native_backend_available
        from repro.lint.mutate import break_commutativity
        from repro.transform import expand_for_threads
        if not native_backend_available()[0]:
            pytest.skip(native_backend_available()[1])
        program, sema = parse_and_analyze("""
        int out[8];
        int main(void) {
            int i; int s = 0;
            L: for (i = 0; i < 8; i++) { out[i] = i * 3; s += out[i]; }
            print_int(s);
            return 0;
        }
        """)
        result = expand_for_threads(program, sema, ["L"])
        # lower + compile + run the clean program: its C is cached
        clean = self._outcome(result, "native")
        assert clean == self._outcome(result, "ast") == (0, ("84",))
        assert break_commutativity(result.program) > 0
        mutated = self._outcome(result, "native")
        assert mutated != clean
        assert mutated == self._outcome(result, "ast")


class TestCodeCacheLifetime:
    def test_compiled_code_dies_with_its_program(self):
        """The cache is keyed weakly by the Program; the one Compiler
        it holds per (program, sema) — shared by every machine — must
        not keep that key alive."""
        import gc
        import weakref
        from repro.interp.bytecode import compiler_for
        from repro.interp.bytecode.compiler import _CODE_CACHE
        gc.collect()
        before = len(_CODE_CACHE)
        program, sema = parse_and_analyze(PAR_SRC)
        outputs = []
        for _ in range(2):
            machine = Machine(program, sema, engine="bytecode")
            machine.run()
            outputs.append(tuple(machine.output))
            assert machine.compiler is compiler_for(program, sema)
        assert outputs[0] == outputs[1] and outputs[0]
        assert len(_CODE_CACHE) == before + 1
        assert len(_CODE_CACHE[program]) == 1
        assert machine.compiler.program is program
        alive = weakref.ref(program)
        del program, sema, machine
        gc.collect()
        assert alive() is None
        assert len(_CODE_CACHE) == before


# ---------------------------------------------------------------------------
# memory fast paths
# ---------------------------------------------------------------------------

class TestLookupCache:
    def test_use_after_free_detected_through_cache(self):
        memory = Memory()
        addr = memory.alloc(16, HEAP, label="victim")
        memory.check_access(addr, 4)      # warms the last-hit cache
        memory.free(addr)
        with pytest.raises(MemoryError_, match="use-after-free"):
            memory.check_access(addr, 4)

    def test_use_after_realloc_detected_through_cache(self):
        memory = Memory()
        addr = memory.alloc(16, HEAP, label="victim")
        memory.check_access(addr, 16)
        new_addr = memory.realloc(addr, 64)
        assert new_addr != addr
        memory.check_access(new_addr, 64)
        with pytest.raises(MemoryError_, match="use-after-free"):
            memory.check_access(addr, 16)

    def test_two_entry_cache_promotion(self):
        memory = Memory()
        a = memory.alloc(8, HEAP)
        b = memory.alloc(8, HEAP)
        # alternate hits so both entries populate and promote
        for _ in range(4):
            assert memory.check_access(a, 8).addr == a
            assert memory.check_access(b, 8).addr == b
        memory.free(a)
        with pytest.raises(MemoryError_):
            memory.check_access(a, 8)
        assert memory.check_access(b, 8).addr == b

    def test_invalidate_lookup_cache(self):
        memory = Memory()
        a = memory.alloc(8, HEAP)
        memory.check_access(a, 8)
        memory.invalidate_lookup_cache()
        assert memory._hit is None and memory._hit2 is None
        # still findable through the slow path
        assert memory.check_access(a, 8).addr == a

    def test_use_after_free_in_program_bytecode(self):
        src = """
        int main(void) {
            int* p = malloc(8);
            p[0] = 7;
            free(p);
            return p[0];
        }
        """
        program, sema = parse_and_analyze(src)
        machine = Machine(program, sema, engine="bytecode")
        with pytest.raises(MemoryError_, match="use-after-free"):
            machine.run()


class TestScalarCodecs:
    def test_codec_cache_round_trip(self):
        from repro.interp import scalar_codec

        codec = scalar_codec("i")
        assert scalar_codec("i") is codec   # cached
        memory = Memory()
        addr = memory.alloc(8, HEAP)
        memory.write_scalar(addr, "i", -123456)
        assert memory.read_scalar(addr, "i", 4) == -123456

    def test_read_cstring_limit_preserved(self):
        memory = Memory()
        addr = memory.alloc(16, HEAP)
        payload = b"hello world"
        memory.data[addr:addr + len(payload)] = payload
        # NUL already present (alloc zero-fills)
        assert memory.read_cstring(addr) == "hello world"
        assert memory.read_cstring(addr, limit=5) == "hello"
        assert memory.read_cstring(addr, limit=0) == ""

    def test_read_cstring_unterminated_raises(self):
        memory = Memory()
        addr = memory.alloc(8, HEAP)
        end = len(memory.data)
        memory.data[addr:end] = b"x" * (end - addr)
        with pytest.raises(IndexError):
            memory.read_cstring(addr)


# ---------------------------------------------------------------------------
# schema-4 trajectory (wall clock + engines + backends + native tier)
# ---------------------------------------------------------------------------

class TestTrajectorySchema:
    def test_schema_is_4(self):
        from repro.bench import TRAJECTORY_SCHEMA

        assert TRAJECTORY_SCHEMA == 4

    def test_payload_carries_wall_engine_and_backend(self):
        from repro.bench import trajectory_payload
        from repro.bench.harness import Harness

        harness = Harness(thread_counts=(2,), engine="bytecode")
        res = harness.result("dijkstra")
        payload = trajectory_payload({"dijkstra": res})
        assert payload["schema"] == 4
        assert payload["engines"] == ["bytecode"]
        assert payload["backends"] == ["simulated"]
        bench = payload["benchmarks"]["dijkstra"]
        assert bench["engine"] == "bytecode"
        assert bench["backend"] == "simulated"
        wall = bench["wall_seconds"]
        assert wall["total"] > 0
        for phase in ("sequential-baseline", "profile", "parallel-runs"):
            assert wall[phase] > 0
        assert payload["summary"]["wall_seconds_total"] >= wall["total"]
        # schema 3: the expansion parallel run is wall-timed per
        # thread count
        assert set(bench["wallclock_seconds"]) == {"2"}
        assert bench["wallclock_seconds"]["2"] > 0
        # schema 4: not a native-tier run, so no compile accounting
        assert bench["native"] is None

    def test_older_schema_rejected(self, tmp_path):
        """Schemas 1-3 predate the native tier; their readers are gone
        and the file is refused like one from the future."""
        from repro.bench import load_trajectory

        path = tmp_path / "BENCH_legacy.json"
        path.write_text(json.dumps({
            "schema": 3, "benchmarks": {"dijkstra": {"seq_cycles": 123.0}},
        }))
        with pytest.raises(ValueError, match="schema 3 is older"):
            load_trajectory(str(path))

    def test_newer_schema_rejected(self, tmp_path):
        from repro.bench import load_trajectory

        path = tmp_path / "BENCH_future.json"
        path.write_text(json.dumps({"schema": 99, "benchmarks": {}}))
        with pytest.raises(ValueError, match="newer"):
            load_trajectory(str(path))

    def test_round_trip_through_emit(self, tmp_path):
        from repro.bench import load_trajectory
        from repro.bench.trajectory import emit_trajectory

        path = tmp_path / "BENCH_now.json"
        emit_trajectory({}, path=str(path))
        payload = load_trajectory(str(path))
        assert payload["schema"] == 4
        assert payload["engines"] == []

    def test_emit_into_directory(self, tmp_path):
        from repro.bench.trajectory import emit_trajectory

        outdir = tmp_path / "artifacts"
        outdir.mkdir()
        written = emit_trajectory({}, path=str(outdir))
        assert written.startswith(str(outdir))
        name = written[len(str(outdir)) + 1:]
        assert name.startswith("BENCH_") and name.endswith(".json")
        assert json.loads((outdir / name).read_text())["schema"] == 4

    def test_emit_creates_parent_dirs(self, tmp_path):
        from repro.bench.trajectory import emit_trajectory

        target = tmp_path / "a" / "b" / "BENCH_x.json"
        written = emit_trajectory({}, path=str(target))
        assert written == str(target)
        assert target.exists()

    def test_native_block_round_trips(self, tmp_path):
        from repro.bench import load_trajectory
        from repro.bench.harness import BenchmarkResult
        from repro.bench.suite import get
        from repro.bench.trajectory import emit_trajectory

        res = BenchmarkResult(get("dijkstra"))
        res.engine = "native"
        res.native = {"so_cache_hits": 3, "so_cache_misses": 1,
                      "compile_seconds": 0.25}
        path = tmp_path / "BENCH_native.json"
        emit_trajectory({"dijkstra": res}, path=str(path))
        bench = load_trajectory(str(path))["benchmarks"]["dijkstra"]
        assert bench["engine"] == "native"
        assert bench["native"] == {"so_cache_hits": 3,
                                   "so_cache_misses": 1,
                                   "compile_seconds": 0.25}
