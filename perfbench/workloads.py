"""The four perfbench workloads: what runs, in what order, and how one
job is submitted, checked and (on the traced pass) attributed to layers.

Everything here drives the toolchain from outside through its public
surfaces (``StagedCompiler``, ``run_job``, ``ExpansionService``, the
``tracer=`` / ``pool=`` / ``cache=`` parameters); nothing under ``src/``
is edited or patched.  See README.md for why each workload exists.
"""

import ctypes
import gc
import glob
import multiprocessing
import os
import random
import shutil
import signal
import sys
import tempfile
import time

from make_expected import EXPECTED_DIR, expected_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: everything a run writes goes under here, inside the checkout
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")

#: dijkstra — DOACROSS over a malloc/free'd linked queue, the paper's
#: motivating example; mpeg2-decoder — DOALL, longest native run;
#: histogram — commutative merge-back
HOT = ("dijkstra", "mpeg2-decoder", "histogram")
#: serve_rotate serves the same three programs from a pool of two
#: sessions (``repro serve --max-sessions 2``): the only difference from
#: serve_hot is that the working set no longer fits the pool
ROTATE_MAX_SESSIONS = 2
#: two DOACROSS, two DOALL, the commutative one; a round of five takes
#: about 2 s, so a run sees each program five times
SIM = HOT + ("256.bzip2", "470.lbm")

KERNELS = {"cold": HOT, "serve_hot": HOT, "serve_rotate": HOT,
           "interp_sim": SIM}

#: every kernel is measured at least this often, so that its median can
#: set one disturbed sample aside
MIN_ROUNDS = 3

#: kernels whose candidate loop the process backend's capability audit
#: rejects (MC-ALLOC / MC-NONCANONICAL), so it runs on the simulated
#: controllers inside the parent and says so with an ``MC-FALLBACK``
#: note.  On any other kernel that note means a different program was
#: measured and the job counts as failed.
AUDITED_SIMULATED = frozenset({"dijkstra", "256.bzip2", "456.hmmer"})

SOCKET, INPROC, TRACED = "socket", "inproc", "traced"

#: tracer span name -> per-layer metric
SPAN_LAYER = {
    "parse": "frontend.parse_ms",
    "sema": "frontend.sema_ms",
    "profile": "analysis.profile_ms",
    "classify": "analysis.classify_ms",
    "pointsto": "analysis.pointsto_ms",
    "promote": "transform.promote_ms",
    "expand": "transform.expand_ms",
    "redirect": "transform.redirect_ms",
    "merge-back": "transform.mergeback_ms",
    "optimize": "transform.optimize_ms",
    "plan": "transform.plan_ms",
    "lower": "interp.bytecode.lower_ms",
    "lower-native": "interp.native.lower_ms",
    "sequential-baseline": "interp.baseline_run_ms",
}

now = time.perf_counter


def scratch_dir(prefix):
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=SCRATCH)


def drop_scratch():
    """Remove the scratch base once the last run in it is gone."""
    try:
        os.rmdir(SCRATCH)
    except OSError:
        pass


def adopt_orphans():
    """Make this process the reaper of its orphaned descendants (the
    ``cc1`` of a compiler driver killed on SIGTERM), so that they turn up
    in :func:`child_pids` instead of moving to init out of reach."""
    try:
        pr_set_child_subreaper = 36
        ctypes.CDLL(None).prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids():
    """Every process whose parent is this one, ended-but-unreaped ones
    included."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    # "pid (comm) state ppid ..."; comm may hold anything
                    ppid = fh.read().rsplit(")", 1)[1].split()[1]
            except (OSError, IndexError):
                continue
            if int(ppid) == me:
                pids.append(int(entry))
    return pids


def stop_resource_tracker():
    """multiprocessing starts a tracker process with the first shared
    segment and leaves it to end by itself once this process is gone,
    where nobody reaps it.  Closing its pipe ends it now;
    :func:`reap_children` waits for it."""
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        tracker._fd = None
        os.close(fd)


def reap_children(grace=5.0):
    """Wait until every child of this process has ended and reap it;
    SIGKILL what still runs after ``grace`` seconds.  Returns how many
    were killed and how many are there all the same."""
    killed = set()
    kill_at = now() + grace
    give_up_at = kill_at + grace
    while True:
        pids = child_pids()
        for pid in pids:
            try:
                if now() > kill_at and pid not in killed:
                    killed.add(pid)
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, os.WNOHANG)
            except (ChildProcessError, ProcessLookupError):
                pass
        if not pids or now() > give_up_at:
            return len(killed), len(pids)
        time.sleep(0.005)


class Sandbox:
    """Everything a run leaves outside its own memory — temp root,
    caches, daemon, session pools, forked workers, shared segments —
    and the one place that removes it again."""

    def __init__(self):
        self.pid = os.getpid()
        adopt_orphans()
        self.root = scratch_dir("run-")
        self.cc_log = os.path.join(self.root, "cc.log")
        os.environ.update(
            REPRO_CACHE_DIR=os.path.join(self.root, "default-cache"),
            REPRO_NATIVE_CACHE=os.path.join(self.root, "native"),
            REPRO_NATIVE_CC_LOG=self.cc_log,
            TMPDIR=self.root,
        )
        tempfile.tempdir = None
        self.svc = None
        self.pools = []
        self._dirs = 0
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, self._on_signal)

    def _on_signal(self, signum, frame):
        if os.getpid() != self.pid:
            os._exit(128 + signum)  # a forked worker: never run teardown
        # unwinds through every ``finally`` to teardown
        raise SystemExit(128 + signum)

    def fresh_dir(self, tag):
        self._dirs += 1
        path = os.path.join(self.root, f"{tag}-{self._dirs}")
        os.makedirs(path)
        return path

    def socket_path(self):
        path = os.path.join(self.root, "s.sock")
        path = min(path, os.path.relpath(path), key=len)
        if len(path) > 100:
            raise RuntimeError(f"socket path too long for AF_UNIX: {path}")
        return path

    def cc_invocations(self):
        """Program compiles logged so far (the toolchain probe's own
        compile is tagged ``probe-`` and not counted)."""
        try:
            with open(self.cc_log) as fh:
                return sum(line.startswith("prog-") for line in fh)
        except FileNotFoundError:
            return 0

    def segments(self):
        return glob.glob(f"/dev/shm/repro-mc-{self.pid}-*")

    def teardown(self):
        """Shut everything down; returns (leaked_workers,
        leaked_segments, survivors).  Leaks are what the service left
        behind after its own shutdown; survivors are what outlived this
        sweep as well.  Afterwards this process has no child, running
        or unreaped."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, signal.SIG_IGN)
        if self.svc is not None:
            self.svc.shutdown()
        for pool in self.pools:
            pool.close()
        children = multiprocessing.active_children()
        segments = self.segments()
        for child in children:
            child.kill()
        for path in segments:
            try:
                os.unlink(path)
            except OSError:
                pass
        # them and whatever else this process started: the resource
        # tracker, an orphaned compiler pass
        stop_resource_tracker()
        killed, left = reap_children()
        if killed:
            print(f"# perfbench: had to kill {killed} child processes",
                  file=sys.stderr)
        survivors = left + len(self.segments())
        shutil.rmtree(self.root, ignore_errors=True)
        drop_scratch()
        return len(children), len(segments), survivors


class Timed:
    """Delegating proxy that records a perfbench-side span (name, start,
    end) around each call of the named methods."""

    def __init__(self, target, methods, spans):
        self._target = target
        self._methods = methods
        self._spans = spans

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        label = self._methods.get(name)
        if label is None:
            return attr

        def timed(*args, **kwargs):
            t0 = now()
            try:
                return attr(*args, **kwargs)
            finally:
                self._spans.append((label, t0, now()))
        return timed


class TimedPool:
    """SessionPool proxy: times acquire (create vs reset path) and
    release (park vs the LRU eviction that closes a session)."""

    def __init__(self, pool, spans):
        self.pool = pool
        self.spans = spans

    def acquire(self, *args, **kwargs):
        t0 = now()
        session = self.pool.acquire(*args, **kwargs)
        self.spans.append((
            "runtime.session_reset_ms" if session.reused
            else "runtime.session_create_ms", t0, now()))
        session.pool = self
        return session

    def release(self, session):
        session.pool = self.pool
        evicted = self.pool.evicted
        t0 = now()
        self.pool.release(session)
        self.spans.append((
            "runtime.session_close_ms" if self.pool.evicted > evicted
            else "runtime.session_park_ms", t0, now()))


class Workload:
    """One run of one workload inside a :class:`Sandbox`."""

    def __init__(self, name, seed, sandbox, kernels=None):
        from repro.bench import get
        from repro.service import CompileOptions, Job
        self.name = name
        self.sandbox = sandbox
        self.kernels = tuple(kernels or KERNELS[name])
        self.rng = random.Random(seed)
        self.expected = {}
        self.jobs = {}
        workers = min(2, os.cpu_count() or 1)
        for kernel in self.kernels:
            with open(os.path.join(EXPECTED_DIR, f"{kernel}.txt")) as fh:
                self.expected[kernel] = fh.read()
            spec = get(kernel)
            if name == "interp_sim":
                self.jobs[kernel] = Job(
                    source=spec.source, loop_labels=tuple(spec.loop_labels),
                    options=CompileOptions(engine="bytecode"), nthreads=8,
                    backend="simulated", check_races=True, verify=True)
            else:
                self.jobs[kernel] = Job(
                    source=spec.source, loop_labels=tuple(spec.loop_labels),
                    options=CompileOptions(engine="native"), nthreads=2,
                    workers=workers, backend="process", check_races=False,
                    verify=True)
        if name == "serve_rotate":
            # every program twice in a row, in one seeded cyclic order:
            # with one program more than pooled sessions the first
            # request of a pair always forks and the second always
            # reuses, so the reuse share is exactly 1/2 for every seed
            cycle = self.rng.sample(self.kernels, len(self.kernels))
            self._round = [k for k in cycle for _ in (0, 1)]
        self.cache = None
        self.pool = None
        self.sock = None
        self.restart_ms = []
        self.traced_spans = []

    # -- request order -----------------------------------------------------
    def next_round(self):
        if self.name == "serve_rotate":
            return list(self._round)
        return self.rng.sample(self.kernels, len(self.kernels))

    # -- set-up ------------------------------------------------------------
    def setup(self):
        from repro.interp.native import native_backend_available
        from repro.runtime.multicore import process_backend_available
        from repro.service import ExpansionService, SessionPool, StageCache
        if self.name != "interp_sim":
            # never time the bytecode fallback and call it native
            for probe in (native_backend_available,
                          process_backend_available):
                ok, why = probe()
                if not ok:
                    raise RuntimeError(
                        f"{probe.__name__}: {why}; perfbench needs it")
        if self.name == "cold":
            return
        stage_root = self.sandbox.fresh_dir("stage")
        populate = StageCache(root=stage_root)
        pool = SessionPool()
        self.sandbox.pools.append(pool)
        for kernel in self.kernels:
            record = self.submit_inproc(kernel, populate, pool)
            if not record["ok"]:
                raise RuntimeError(
                    f"set-up job {kernel} failed: {record['why']}")
        if self.name == "interp_sim":
            self.cache = populate  # memory tier keeps the lowered code
            return
        pool.close()
        self.sock = self.sandbox.socket_path()
        pool_size = ({"max_sessions": ROTATE_MAX_SESSIONS}
                     if self.name == "serve_rotate" else {})
        svc = ExpansionService(self.sock, cache_root=stage_root,
                               **pool_size)
        self.sandbox.svc = svc
        svc.start()
        self.cache, self.pool = svc.cache, svc.pool
        # the restart round: memory tier cold, disk tier and .so warm
        for kernel in dict.fromkeys(self.next_round()):
            record = self.submit_socket(kernel)
            if not record["ok"]:
                raise RuntimeError(
                    f"restart job {kernel} failed: {record['why']}")
            self.restart_ms.append(record["ms"])

    # -- submitting one job ------------------------------------------------
    def _record(self, kernel, mode, t0, t1, why, **extra):
        record = {"kernel": kernel, "mode": mode, "t0": t0, "t1": t1,
                  "ms": (t1 - t0) * 1e3, "ok": not why, "why": why}
        record.update(extra)
        return record

    def _check(self, kernel, output, exit_code, verified, races, diags):
        why = []
        if expected_text(output, exit_code) != self.expected[kernel]:
            why.append("output != expected")
        if not verified:
            why.append("verified=False")
        if races:
            why.append(f"{races} races")
        for code in diags:
            if code.startswith(("NL-", "MC-")) and not (
                    code == "MC-FALLBACK" and kernel in AUDITED_SIMULATED):
                why.append(code)
        return why

    def submit_socket(self, kernel):
        from repro.service import request
        payload = {"op": "run", "job": self.jobs[kernel].to_dict()}
        t0 = now()
        try:
            reply = request(self.sock, payload)
        except (OSError, ValueError) as exc:
            return self._record(kernel, SOCKET, t0, now(),
                                [f"{type(exc).__name__}: {exc}"])
        t1 = now()
        if not reply.get("ok"):
            return self._record(kernel, SOCKET, t0, t1,
                                [reply["error"]["code"]])
        r = reply["result"]
        why = self._check(kernel, [r["output"]], r["exit_code"],
                          r["verified"], r["races"],
                          [d["code"] for d in r["diagnostics"]])
        return self._record(kernel, SOCKET, t0, t1, why)

    def submit_inproc(self, kernel, cache, pool, traced=False):
        """compile + run_job in this interpreter.  ``traced`` hands both
        a Tracer and wraps cache and pool in timing proxies; the layer
        ledger of the job lands in ``record["layers"]``."""
        from repro.diagnostics import DiagnosableError
        from repro.obs import Tracer
        from repro.service import StagedCompiler, run_job
        job = self.jobs[kernel]
        tracer, spans = None, []
        if traced:
            tracer = Tracer()
            cache = Timed(cache, {"get": "service.cache.get_ms",
                                  "put": "service.cache.put_ms"}, spans)
            if pool is not None:
                pool = TimedPool(pool, spans)
        mode = TRACED if traced else INPROC
        t0 = now()
        try:
            compiled = StagedCompiler(cache=cache, tracer=tracer) \
                .compile(job)
            t_compiled = now()
            outcome = run_job(compiled, tracer=tracer, pool=pool,
                              cache=cache)
        except DiagnosableError as exc:
            return self._record(kernel, mode, t0, now(),
                                [exc.diagnostic.code])
        t1 = now()
        why = self._check(kernel, outcome.output, outcome.exit_code,
                          outcome.verified, outcome.races,
                          [d.code for d in outcome.diagnostics])
        record = self._record(
            kernel, mode, t0, t1, why,
            loop_speedup=outcome.loop_speedup,
            bytes_multiple=(outcome.parallel.peak_memory
                            / outcome.baseline["peak"]),
            cycles=outcome.parallel.total_cycles,
            hit_share=compiled.hits / compiled.stage_count)
        if traced:
            record["layers"] = self._ledger(
                kernel, compiled, outcome, tracer, spans, t0, t_compiled,
                t1)
        return record

    # -- layer attribution of one traced job -------------------------------
    def _ledger(self, kernel, compiled, outcome, tracer, spans, t0,
                t_compiled, t1):
        from repro.frontend import print_program
        from repro.transform.pipeline import record_transform_metrics
        job_id = len(self.traced_spans)
        layers = {}

        def add(name, ms):
            layers[name] = layers.get(name, 0.0) + ms

        # the tracer's span clock is perf_counter in microseconds, the
        # same clock as ours.  Only top-level spans are layers; a
        # top-level span with no layer of its own stays unattributed.
        out = [{"name": "job", "start": t0, "end": t1, "parent": None,
                "job": job_id, "kernel": kernel}]
        run_layer = ("interp.sim_run_ms" if outcome.backend == "simulated"
                     else "runtime.run_ms")
        for span in tracer.spans:
            out.append({"name": span.name, "start": span.start_us / 1e6,
                        "end": span.end_us / 1e6,
                        "parent": span.parent.name if span.parent
                        else "job", "job": job_id})
            layer = run_layer if span.name == "run" \
                else SPAN_LAYER.get(span.name)
            if layer and not span.depth:
                add(layer, span.dur_us / 1e3)
        in_run_job = 0.0
        for label, s0, s1 in spans:
            out.append({"name": label, "start": s0, "end": s1,
                        "parent": "job", "job": job_id})
            add(label, (s1 - s0) * 1e3)
            if s0 >= t_compiled:
                in_run_job += (s1 - s0) * 1e3
        self.traced_spans.append(out)
        attributed = sum(layers.values())
        job_ms = (t1 - t0) * 1e3
        layers["bench.unattributed_ms"] = job_ms - attributed
        layers["service.compile_ms"] = (t_compiled - t0) * 1e3
        layers["service.run_job_ms"] = (t1 - t_compiled) * 1e3
        layers["service.verify_ms"] = (
            layers["service.run_job_ms"] - in_run_job
            - layers.get("interp.baseline_run_ms", 0.0)
            - layers.get("runtime.run_ms", 0.0)
            - layers.get("interp.sim_run_ms", 0.0))

        metrics = tracer.metrics
        cc_ms = metrics.get("native.compile_seconds") * 1e3
        layers["interp.native.cc_ms"] = cc_ms
        layers["interp.native.codegen_ms"] = \
            layers.get("interp.native.lower_ms", 0.0) - cc_ms
        layers["native.so_hits"] = metrics.get("native.so_cache_hit")
        layers["native.so_misses"] = metrics.get("native.so_cache_miss")

        busy = {}
        for event in tracer.worker_events:
            busy[event.worker] = busy.get(event.worker, 0.0) \
                + event.dur_us / 1e3
        layers["runtime.worker_busy_ms"] = sum(busy.values())
        layers["runtime.dispatch_wait_ms"] = (
            layers.get("runtime.run_ms", 0.0) - max(busy.values())
            if busy else 0.0)
        for name in ("worker_tasks", "native_chunks", "native_fallbacks",
                     "mc_fallbacks", "mc_restart", "mc_retry",
                     "mc_degrade", "token_waits"):
            layers[f"runtime.{name}"] = metrics.get(f"runtime.{name}")

        # a warm native hit loads the finished artifact and skips the
        # stage that publishes the transform counters
        record_transform_metrics(compiled.result, tracer)
        layers["transform.num_privatized"] = (
            metrics.get("transform.structures_expanded")
            + metrics.get("transform.scalars_expanded"))
        for name in ("span_stores_inserted", "span_stores_eliminated"):
            layers[f"transform.{name}"] = metrics.get(f"transform.{name}")
        layers["transform.expanded_source_bytes"] = \
            len(print_program(compiled.result.program))
        layers["frontend.source_bytes"] = len(compiled.job.source)
        return layers

    # -- the measured phase ------------------------------------------------
    def run_round(self, mode):
        """One round — every kernel of the workload in the next seeded
        order — submitted the way ``mode`` names."""
        pool = None
        if self.name == "cold":
            # nothing may be warm: new stage root (its native-so
            # directory with it), new memory tier, new pool
            from repro.service import SessionPool, StageCache
            self.cache = StageCache(root=self.sandbox.fresh_dir("stage"))
            self.pool = pool = SessionPool()
            self.sandbox.pools.append(pool)
        records = []
        for kernel in self.next_round():
            # a full collection before every job, outside its timed
            # interval: when the collector walks the heap of compiled
            # artifacts is otherwise decided by the jobs that ran
            # before, which makes a job's time depend on the seed's
            # order by 20 % and more
            gc.collect()
            if mode == SOCKET:
                records.append(self.submit_socket(kernel))
            else:
                records.append(self.submit_inproc(
                    kernel, self.cache, self.pool, mode == TRACED))
        if pool is not None:
            pool.close()
        return records

    def measure(self, seconds, trace):
        """Closed loop, one client: the number of whole rounds that comes
        closest to ``seconds``, at least ``MIN_ROUNDS``.  Untraced runs
        use the workload's own path only; traced runs interleave it with
        the in-process replay, untraced and traced, so all three see the
        same machine state."""
        own = SOCKET if self.sock else INPROC
        modes = [own] if not trace else list(dict.fromkeys(
            (own, INPROC, TRACED)))
        rounds = {mode: [] for mode in modes}
        start = now()
        while True:
            for mode in modes:
                rounds[mode].append(self.run_round(mode))
            elapsed, done = now() - start, len(rounds[own])
            if done >= MIN_ROUNDS and elapsed + elapsed / done / 2 >= seconds:
                return own, rounds

    # -- whole-run layer numbers -------------------------------------------
    def disk_bytes(self):
        """Bytes of pickled stage artifacts and of compiled ``.so`` files
        under the stage root in use (cold: the last round's)."""
        stages = so = 0
        for base, _dirs, files in os.walk(self.cache.root):
            for name in files:
                size = os.path.getsize(os.path.join(base, name))
                if name.endswith(".pkl"):
                    stages += size
                elif name.endswith(".so"):
                    so += size
        return stages, so
