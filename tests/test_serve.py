"""The resident expansion service: Job value objects, stage-cache
keying/invalidation, concurrent-writer safety, the session pool, and
the serve daemon's wire protocol.

Process-backend cells (the pool's warm sessions) skip on hosts without
``fork`` or a usable ``/dev/shm``; everything else runs anywhere.
"""

import glob
import json
import os
import socket
import threading
import time

import pytest

import repro
from repro import expand_and_run
from repro.diagnostics import DiagnosticSink
from repro.obs import Tracer
from repro.runtime import process_backend_available, run_parallel
from repro.runtime.multicore import SEGMENT_PREFIX
from repro.service import (
    MISS, CompileOptions, ExpansionService, Job, SessionPool,
    StageCache, StagedCompiler, request, run_job, stage_keys,
)
from repro.service.stages import STAGES
from repro.transform import OptFlags, expand_for_threads
from repro.frontend import parse_and_analyze

_MC_OK, _MC_WHY = process_backend_available()
needs_process = pytest.mark.skipif(
    not _MC_OK, reason=f"process backend unavailable: {_MC_WHY}")

KERNEL = """
int main(void) {
    int n = 64;
    int *a = (int*)malloc(n * sizeof(int));
    int *b = (int*)malloc(n * sizeof(int));
    int i;
    #pragma expand parallel(doall)
    L1: for (i = 0; i < n; i++) { a[i] = i * 2; }
    #pragma expand parallel(doall)
    L2: for (i = 0; i < n; i++) { b[i] = a[i] + 1; }
    int s = 0;
    for (i = 0; i < n; i++) { s = s + b[i]; }
    print_int(s);
    return 0;
}
"""
EXPECTED = ["4096"]


def make_job(**kwargs):
    kwargs.setdefault("source", KERNEL)
    kwargs.setdefault("loop_labels", ("L1", "L2"))
    return Job(**kwargs)


# ---------------------------------------------------------------------------
# Job / CompileOptions value objects
# ---------------------------------------------------------------------------

class TestJobObject:
    def test_roundtrip_through_dict(self):
        job = make_job(nthreads=8, chunk=2, backend="simulated",
                       options=CompileOptions(layout="interleaved",
                                              strict=False))
        clone = Job.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone == job

    def test_frozen(self):
        job = make_job()
        with pytest.raises(AttributeError):
            job.nthreads = 9
        with pytest.raises(AttributeError):
            job.options.layout = "interleaved"

    def test_validation(self):
        with pytest.raises(TypeError):
            make_job(loop_labels="L1")       # a single string is a bug
        with pytest.raises(ValueError):
            make_job(backend="gpu")
        with pytest.raises(ValueError):
            make_job(nthreads=0)
        with pytest.raises(ValueError):
            CompileOptions(layout="columnar")
        with pytest.raises(ValueError):
            CompileOptions(opt=(True, False))   # needs all 5 toggles
        with pytest.raises(ValueError):
            Job.from_dict({"source": "", "loop_labels": [],
                           "warp_speed": 9})

    def test_optflags_spellings_agree(self):
        assert CompileOptions.make(True) == CompileOptions.make(
            OptFlags.from_bool(True))
        assert CompileOptions.make(False).opt == (False,) * 5

    def test_options_dict_coerced(self):
        job = make_job(options={"layout": "interleaved"})
        assert job.options.layout == "interleaved"


# ---------------------------------------------------------------------------
# job= is the whole configuration: nothing it carries may ride beside it
# ---------------------------------------------------------------------------

class TestLegacyShims:
    def test_expand_and_run_job_plus_legacy_conflict(self):
        with pytest.raises(TypeError, match="both job="):
            expand_and_run(KERNEL, ["L1", "L2"], job=make_job())
        # the pre-1.8 config kwargs are gone, not silently ignored
        with pytest.raises(TypeError, match="chunk"):
            expand_and_run(job=make_job(), chunk=2)

    def test_run_parallel_job_plus_legacy_conflict(self):
        program, sema = parse_and_analyze(KERNEL)
        tresult = expand_for_threads(program, sema, ["L1", "L2"])
        with pytest.raises(TypeError, match="both job="):
            run_parallel(tresult, job=make_job(), chunk=2)
        with pytest.raises(TypeError, match="both job="):
            run_parallel(tresult, 2, job=make_job())


# ---------------------------------------------------------------------------
# stage keying and invalidation
# ---------------------------------------------------------------------------

class TestStageKeys:
    def test_identical_jobs_share_keys(self):
        assert stage_keys(make_job()) == stage_keys(make_job(nthreads=8))

    def test_source_edit_invalidates_every_stage(self):
        a = stage_keys(make_job())
        b = stage_keys(make_job(source=KERNEL.replace("64", "32")))
        assert all(a[s] != b[s] for s in STAGES)

    def test_opt_change_invalidates_expand_onward(self):
        a = stage_keys(make_job())
        b = stage_keys(make_job(options=CompileOptions(opt=(
            True, True, True, True, False))))
        for stage in ("parse", "sema", "profile", "classify"):
            assert a[stage] == b[stage]
        for stage in ("expand", "optimize", "plan", "lower"):
            assert a[stage] != b[stage]

    def test_layout_change_invalidates_expand_onward(self):
        a = stage_keys(make_job())
        b = stage_keys(make_job(
            options=CompileOptions(layout="interleaved")))
        assert a["classify"] == b["classify"]
        assert a["expand"] != b["expand"]
        assert a["lower"] != b["lower"]

    def test_engine_change_invalidates_lower(self):
        a = stage_keys(make_job())
        b = stage_keys(make_job(
            options=CompileOptions(engine="bytecode")))
        assert a["parse"] == b["parse"]
        assert a["lower"] != b["lower"]

    def test_version_bump_invalidates_every_stage(self, monkeypatch):
        a = stage_keys(make_job())
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        b = stage_keys(make_job())
        assert all(a[s] != b[s] for s in STAGES)


class TestStagedCompiler:
    def test_cold_then_warm(self, tmp_path):
        cache = StageCache(root=str(tmp_path))
        compiler = StagedCompiler(cache=cache)
        job = make_job()
        cold = compiler.compile(job)
        assert all(v == "miss" for v in cold.report.values())
        warm = compiler.compile(job)
        assert all(v == "hit" for v in warm.report.values())
        # lower-native only joins the chain for --engine native jobs
        assert set(warm.report) == set(STAGES) - {"lower-native"}

    def test_warm_run_is_correct(self, tmp_path):
        cache = StageCache(root=str(tmp_path))
        compiler = StagedCompiler(cache=cache)
        compiler.compile(make_job())
        warm = compiler.compile(make_job())
        outcome = run_job(warm, cache=cache)
        assert outcome.output == EXPECTED
        assert outcome.verified

    def test_disk_tier_survives_fresh_process_state(self, tmp_path):
        StagedCompiler(cache=StageCache(root=str(tmp_path))).compile(
            make_job())
        # a fresh cache instance = a daemon restart: memory tier gone,
        # disk tier reloads everything but the unpicklable lower stage
        compiled = StagedCompiler(
            cache=StageCache(root=str(tmp_path))).compile(make_job())
        assert compiled.report["lower"] == "miss"
        assert all(compiled.report[s] == "hit"
                   for s in STAGES
                   if s not in ("lower", "lower-native"))

    def test_source_edit_recompiles(self, tmp_path):
        cache = StageCache(root=str(tmp_path))
        compiler = StagedCompiler(cache=cache)
        compiler.compile(make_job())
        edited = compiler.compile(
            make_job(source=KERNEL.replace("i * 2", "i * 3")))
        assert all(v == "miss" for v in edited.report.values())
        outcome = run_job(edited, cache=cache)
        assert outcome.output == ["6112"]

    def test_version_bump_recompiles(self, tmp_path, monkeypatch):
        cache = StageCache(root=str(tmp_path))
        StagedCompiler(cache=cache).compile(make_job())
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        bumped = StagedCompiler(cache=cache).compile(make_job())
        assert all(v == "miss" for v in bumped.report.values())

    def test_corrupt_entry_quarantined_and_recompiled(self, tmp_path):
        cache = StageCache(root=str(tmp_path))
        StagedCompiler(cache=cache).compile(make_job())
        plan_key = stage_keys(make_job())["plan"]
        path = cache._entry_path("plan", plan_key)
        assert os.path.exists(path)
        with open(path, "wb") as fh:
            fh.write(b"\x80\x04 not a pickle at all")
        sink = DiagnosticSink()
        fresh = StageCache(root=str(tmp_path), sink=sink)
        compiled = StagedCompiler(cache=fresh, sink=sink).compile(
            make_job())
        codes = [d.code for d in sink.diagnostics]
        assert "CACHE-CORRUPT" in codes
        assert compiled.report["plan"] == "miss"
        assert compiled.report["optimize"] == "hit"
        # the damaged file was dropped and republished clean
        outcome = run_job(compiled, cache=fresh)
        assert outcome.output == EXPECTED

    def test_permissive_chain_vocabulary(self, tmp_path):
        cache = StageCache(root=str(tmp_path))
        job = make_job(options=CompileOptions(strict=False))
        compiled = StagedCompiler(cache=cache).compile(job)
        assert set(compiled.report) == {"parse", "sema", "plan",
                                        "lower"}
        warm = StagedCompiler(cache=cache).compile(job)
        assert all(v == "hit" for v in warm.report.values())

    def test_cache_metrics_recorded(self, tmp_path):
        cache = StageCache(root=str(tmp_path))
        tracer = Tracer()
        StagedCompiler(cache=cache, tracer=tracer).compile(make_job())
        metrics = tracer.metrics.as_dict()
        assert metrics["cache.miss"] == len(STAGES) - 1
        tracer2 = Tracer()
        StagedCompiler(cache=cache, tracer=tracer2).compile(make_job())
        assert tracer2.metrics.as_dict()["cache.hit"] == len(STAGES) - 1

    def test_cached_baseline(self, tmp_path):
        cache = StageCache(root=str(tmp_path))
        compiled = StagedCompiler(cache=cache).compile(make_job())
        run_job(compiled, cache=cache)
        tracer = Tracer()
        run_job(compiled, tracer=tracer, cache=cache)
        assert tracer.metrics.as_dict()["cache.baseline.hit"] == 1


# ---------------------------------------------------------------------------
# cache concurrency: atomic publish + entry locks
# ---------------------------------------------------------------------------

class TestCacheConcurrency:
    def test_concurrent_writers_one_clean_entry(self, tmp_path):
        caches = [StageCache(root=str(tmp_path)) for _ in range(8)]
        barrier = threading.Barrier(len(caches))

        def write(cache):
            barrier.wait()
            cache.put("parse", "deadbeef" * 8, {"payload": 1},
                      durable=True)

        threads = [threading.Thread(target=write, args=(c,))
                   for c in caches]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        fresh = StageCache(root=str(tmp_path))
        assert fresh.get("parse", "deadbeef" * 8) == {"payload": 1}
        stage_dir = tmp_path / "parse" / "de"
        leftovers = [p.name for p in stage_dir.iterdir()
                     if p.name.startswith(".tmp-")
                     or p.name.endswith(".lock")]
        assert leftovers == []

    def test_stale_lock_is_broken(self, tmp_path):
        cache = StageCache(root=str(tmp_path))
        key = "ab" * 32
        path = cache._entry_path("sema", key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        lock = path + ".lock"
        with open(lock, "w") as fh:
            fh.write("99999")
        stale = time.time() - 120
        os.utime(lock, (stale, stale))
        cache.put("sema", key, "value", durable=True)
        fresh = StageCache(root=str(tmp_path))
        assert fresh.get("sema", key) == "value"
        assert not os.path.exists(lock)

    def test_memory_tier_spares_volatile_entries(self, tmp_path):
        cache = StageCache(root=str(tmp_path), max_memory_entries=4)
        cache.put("lower", "k-volatile", object(), durable=False)
        for i in range(10):
            cache.put("parse", f"k{i}", i, durable=True)
        # the memory-only artifact outlives every disk-backed one
        assert cache.get("lower", "k-volatile",
                         memory_only=True) is not MISS


# ---------------------------------------------------------------------------
# the session pool
# ---------------------------------------------------------------------------

@needs_process
class TestSessionPool:
    def _compiled(self, cache):
        job = make_job(backend="process", nthreads=2, workers=2)
        return job, StagedCompiler(cache=cache).compile(job)

    def test_acquire_release_reuse(self, tmp_path):
        cache = StageCache(root=str(tmp_path))
        pool = SessionPool(max_sessions=2)
        try:
            job, compiled = self._compiled(cache)
            first = run_job(compiled, pool=pool, cache=cache)
            second = run_job(compiled, pool=pool, cache=cache)
            assert first.output == second.output == EXPECTED
            assert not first.session_reused
            assert second.session_reused
            stats = pool.stats()
            assert stats["created"] == 1
            assert stats["reused"] == 1
        finally:
            pool.close()

    def test_program_identity_mismatch_evicts(self, tmp_path):
        cache = StageCache(root=str(tmp_path))
        pool = SessionPool(max_sessions=2)
        try:
            job, compiled = self._compiled(cache)
            run_job(compiled, pool=pool, cache=cache)
            # a recompiled artifact (fresh AST objects) must not adopt
            # the old session: its forked workers resolve loops by nid
            recompiled = StagedCompiler(cache=None).compile(job)
            outcome = run_job(recompiled, pool=pool, cache=cache)
            assert outcome.output == EXPECTED
            assert not outcome.session_reused
            assert pool.stats()["evicted"] >= 1
        finally:
            pool.close()

    def test_same_key_release_evicts_the_displaced_session(self):
        """Two concurrent clients of one program: both sessions come
        back under one key, and the one already parked must be closed,
        not silently dropped with its workers and segment alive."""
        def segments():
            return set(glob.glob(
                f"/dev/shm/{SEGMENT_PREFIX}-{os.getpid()}-*"))

        pool = SessionPool(max_sessions=2)
        job, compiled = self._compiled(None)
        before = segments()
        try:
            first = pool.acquire(compiled.result, job,
                                 fingerprint=compiled.ctx.fingerprint)
            second = pool.acquire(compiled.result, job,
                                  fingerprint=compiled.ctx.fingerprint)
            assert first is not second
            pool.release(first)
            pool.release(second)
            stats = pool.stats()
            assert stats["idle"] == 1
            assert stats["evicted"] == 1
            assert first.closed and not second.closed
            assert len(segments() - before) == 1
        finally:
            pool.close()
        assert segments() == before

    def test_closed_pool_creates_nothing(self, tmp_path):
        cache = StageCache(root=str(tmp_path))
        pool = SessionPool(max_sessions=2)
        pool.close()
        job, compiled = self._compiled(cache)
        outcome = run_job(compiled, pool=None, cache=cache)
        assert outcome.output == EXPECTED
        assert pool.stats()["idle"] == 0


# ---------------------------------------------------------------------------
# the serve daemon (in-process server, real socket client)
# ---------------------------------------------------------------------------

@pytest.fixture
def daemon(tmp_path):
    service = ExpansionService(str(tmp_path / "repro.sock"),
                               cache_root=str(tmp_path / "cache"))
    service.start()
    try:
        yield service
    finally:
        service.shutdown()


class TestServeDaemon:
    def test_ping(self, daemon):
        resp = request(daemon.socket_path, {"op": "ping"})
        assert resp["ok"]
        assert resp["result"]["version"] == repro.__version__

    def test_run_cold_then_warm(self, daemon):
        payload = {"op": "run", "job": make_job(nthreads=2).to_dict()}
        cold = request(daemon.socket_path, payload)["result"]
        warm = request(daemon.socket_path, payload)["result"]
        assert cold["output"] == warm["output"] == "4096"
        assert cold["verified"] and warm["verified"]
        assert cold["cache_hits"] == 0
        assert warm["cache_hits"] == warm["cache_stages"] == len(STAGES) - 1

    def test_stats_op(self, daemon):
        request(daemon.socket_path,
                {"op": "run", "job": make_job().to_dict()})
        stats = request(daemon.socket_path, {"op": "stats"})["result"]
        assert stats["requests"] >= 2
        assert stats["cache"]["misses"]
        assert "pool" in stats

    def test_unknown_op_is_protocol_error(self, daemon):
        resp = request(daemon.socket_path, {"op": "teleport"})
        assert not resp["ok"]
        assert resp["error"]["code"] == "SRV-PROTO"

    def test_invalid_json_is_protocol_error(self, daemon):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(daemon.socket_path)
            sock.sendall(b"{nope\n")
            resp = json.loads(sock.recv(65536).decode())
        assert resp["error"]["code"] == "SRV-PROTO"

    def test_bad_job_is_badreq(self, daemon):
        resp = request(daemon.socket_path,
                       {"op": "run", "job": {"source": "int main"}})
        assert not resp["ok"]
        assert resp["error"]["code"] == "SRV-BADREQ"

    def test_compile_error_is_structured(self, daemon):
        job = make_job(source="int main(void) { return x; }",
                       loop_labels=())
        resp = request(daemon.socket_path,
                       {"op": "run", "job": job.to_dict()})
        assert not resp["ok"]
        assert resp["error"]["code"]
        assert resp["error"]["message"]

    def test_inflight_table_drains(self, tmp_path):
        service = ExpansionService(str(tmp_path / "s.sock"),
                                   cache_root=False)
        try:
            for n in range(50):
                # every third source fails to compile: the error path
                # must drop its entry too
                body = "return x;" if n % 3 == 0 else "return 0;"
                job = make_job(
                    source=f"int main(void) {{ print_int({n}); {body} }}",
                    loop_labels=(), nthreads=2)
                resp = service.handle_line(json.dumps(
                    {"op": "run", "job": job.to_dict()}))
                assert resp["ok"] == (n % 3 != 0)
            assert len(service._inflight) == 0
        finally:
            service.close()

    def test_concurrent_identical_cold_jobs_compile_once(
            self, tmp_path, monkeypatch):
        service = ExpansionService(str(tmp_path / "s.sock"),
                                   cache_root=False)
        real = StagedCompiler.compile
        compiling, peak, waiting = [], [], []

        def slow_compile(self, job, keys=None):
            compiling.append(job)
            peak.append(len(compiling))
            time.sleep(0.3)  # lets the other request reach the lock
            waiting.append([n for _, n in service._inflight.values()])
            try:
                return real(self, job, keys)
            finally:
                compiling.pop()

        monkeypatch.setattr(StagedCompiler, "compile", slow_compile)
        line = json.dumps(
            {"op": "run", "job": make_job(nthreads=2).to_dict()})
        results = []
        threads = [threading.Thread(
            target=lambda: results.append(service.handle_line(line)))
            for _ in range(2)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            service.close()
        assert all(r["ok"] for r in results)
        # one compile at a time under one shared entry, then none
        assert peak == [1, 1] and waiting[0] == [2]
        assert len(service._inflight) == 0
        hits = sorted(r["result"]["cache_hits"] for r in results)
        assert hits == [0, results[0]["result"]["cache_stages"]]
        assert service.cache.misses["parse"] == 1

    def test_shutdown_handshake(self, tmp_path):
        service = ExpansionService(str(tmp_path / "s.sock"),
                                   cache_root=False)
        service.start()
        resp = request(service.socket_path, {"op": "shutdown"})
        assert resp["result"]["stopping"]
        deadline = time.time() + 10
        while os.path.exists(service.socket_path) \
                and time.time() < deadline:
            time.sleep(0.02)
        assert not os.path.exists(service.socket_path)


@needs_process
class TestServeDaemonProcessBackend:
    def test_warm_session_reuse_over_the_wire(self, tmp_path):
        service = ExpansionService(str(tmp_path / "repro.sock"),
                                   cache_root=str(tmp_path / "cache"))
        service.start()
        try:
            job = make_job(backend="process", nthreads=2, workers=2)
            payload = {"op": "run", "job": job.to_dict()}
            cold = request(service.socket_path, payload)["result"]
            warm = request(service.socket_path, payload)["result"]
            assert cold["output"] == warm["output"] == "4096"
            assert not cold["session_reused"]
            assert warm["session_reused"]
            assert warm["cache_hits"] == warm["cache_stages"]
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# ProcessSession.reset (the pool's warm-reuse primitive)
# ---------------------------------------------------------------------------

@needs_process
class TestSessionReset:
    def test_reset_session_runs_bit_identical(self):
        from repro.runtime.multicore import ProcessSession
        program, sema = parse_and_analyze(KERNEL)
        tresult = expand_for_threads(program, sema, ["L1", "L2"])
        job = make_job(backend="process", nthreads=2, workers=2)
        session = ProcessSession(tresult.program, tresult.sema, 2,
                                 workers=2)
        try:
            first = run_parallel(tresult, job=job, session=session)
        finally:
            pass  # adopted sessions are closed by the runner
        from repro.runtime.multicore import _fingerprint_for
        session2 = ProcessSession(tresult.program, tresult.sema, 2,
                                  workers=2)
        pool = SessionPool(max_sessions=1)
        try:
            session2.pool = pool
            session2._pool_key = pool._key(
                _fingerprint_for(tresult.program), job)
            second = run_parallel(tresult, job=job, session=session2)
            # the runner released it back to the pool; reset + rerun
            assert pool.stats()["idle"] == 1
            reacquired = pool.acquire(tresult, job)
            assert reacquired is session2
            assert reacquired.reused
            third = run_parallel(tresult, job=job, session=reacquired)
            assert (first.output == second.output == third.output
                    == EXPECTED)
        finally:
            pool.close()

    def test_reset_refuses_closed_session(self):
        from repro.runtime.multicore import ProcessSession
        from repro.runtime.parallel import ParallelError
        program, sema = parse_and_analyze(KERNEL)
        tresult = expand_for_threads(program, sema, ["L1", "L2"])
        session = ProcessSession(tresult.program, tresult.sema, 2,
                                 workers=2)
        session.close()
        with pytest.raises(ParallelError):
            session.reset()
