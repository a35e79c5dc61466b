"""Execute a :class:`~repro.service.stages.CompiledJob`.

:func:`run_job` is the toolchain's one run phase — sequential baseline,
parallel execution, output verification, speedups — behind
:func:`repro.expand_and_run`, ``repro parallel``, the serve daemon and
the benchmarks.  The sequential baseline is the profile's run of the
original program, which the compiled job (cached or not) carries, and a
process-backend run draws its worker session from a
:class:`~repro.service.pool.SessionPool` instead of forking per
request.
"""

from __future__ import annotations

import time
from typing import List, Optional

from ..diagnostics import Diagnostic, DiagnosticSink
from ..interp import Machine
from ..obs import ensure_tracer
from ..runtime.parallel import run_parallel
from .cache import StageCache
from .stages import CompiledJob


class JobOutcome:
    """Result bundle for one served job (the ``run`` op's payload)."""

    def __init__(self, compiled: CompiledJob, output: List[str],
                 exit_code: int, verified: bool, races: int,
                 loop_speedup: float, total_speedup: float,
                 backend: str, session_reused: bool,
                 diagnostics: List[Diagnostic], parallel,
                 baseline: Optional[dict], elapsed_us: float,
                 trace=None):
        self.job = compiled.job
        self.cache = dict(compiled.report)
        self.output = output
        self.exit_code = exit_code
        self.verified = verified
        self.races = races
        self.loop_speedup = loop_speedup
        self.total_speedup = total_speedup
        self.backend = backend
        self.session_reused = session_reused
        self.diagnostics = diagnostics
        #: the underlying :class:`~repro.runtime.ParallelOutcome`
        self.parallel = parallel
        self.baseline = baseline
        self.elapsed_us = elapsed_us
        self.trace = trace

    def to_dict(self) -> dict:
        """Wire encoding for the serve protocol (scalars only)."""
        return {
            "output": "".join(self.output),
            "exit_code": self.exit_code,
            "verified": self.verified,
            "races": self.races,
            "loop_speedup": self.loop_speedup,
            "total_speedup": self.total_speedup,
            "backend": self.backend,
            "session_reused": self.session_reused,
            "cache": self.cache,
            "cache_hits": sum(
                1 for v in self.cache.values() if v == "hit"),
            "cache_stages": len(self.cache),
            "elapsed_us": self.elapsed_us,
            "diagnostics": [
                {"code": d.code, "severity": d.severity,
                 "message": d.message, "loop": d.loop, "phase": d.phase}
                for d in self.diagnostics
            ],
        }


def _sequential_baseline(compiled: CompiledJob, tracer) -> dict:
    """The original program's sequential run — output, exit code,
    modeled cycles, peak footprint.  The first profiled loop's profile
    recorded it; only a job with no profiled loop (no labels, or a
    permissive job whose loops all quarantined) runs it here."""
    ctx = compiled.ctx
    profile = next(iter((ctx.profiles or {}).values()), None)
    if profile is not None:
        return {"output": list(profile.output),
                "exit_code": profile.exit_code,
                "cycles": profile.total_cycles, "peak": profile.peak}
    opts = compiled.job.options
    with tracer.phase("sequential-baseline"):
        # no controller ever sits on the original program's loops
        machine = Machine(ctx.program, ctx.sema, engine=opts.engine,
                          controlled=frozenset())
        exit_code = machine.run(opts.entry)
    return {
        "output": list(machine.output),
        "exit_code": exit_code,
        "cycles": machine.cost.cycles,
        "peak": machine.memory.peak_footprint(),
    }


def run_job(compiled: CompiledJob, tracer=None,
            sink: Optional[DiagnosticSink] = None,
            pool=None, cache: Optional[StageCache] = None,
            mc: Optional[dict] = None,
            fault_injectors: Optional[List] = None) -> JobOutcome:
    """Run a compiled job: parallel execution — on a pooled warm
    session when the process backend and a pool are available — and
    output verification against the sequential baseline.  ``mc``
    (process-backend supervision/segment tuning) and
    ``fault_injectors`` forward to :func:`~repro.runtime.run_parallel`.
    ``cache`` is accepted for callers that pass the compile's stage
    cache along; the run phase stores nothing in it.

    Strict jobs raise :class:`repro.OutputDivergence` on mismatch;
    permissive jobs record an ``RT-DIVERGED`` diagnostic and return
    ``verified=False``.
    """
    job = compiled.job
    tracer = ensure_tracer(tracer)
    sink = sink if sink is not None else DiagnosticSink()
    t0 = time.perf_counter()

    baseline = None
    if job.verify:
        baseline = _sequential_baseline(compiled, tracer)

    session = None
    if job.backend == "process" and pool is not None:
        from ..runtime.multicore import process_backend_available
        ok, _why = process_backend_available()
        if ok:
            session = pool.acquire(job)
    outcome = run_parallel(compiled.result, job=job, session=session,
                           sink=sink, tracer=tracer, mc=mc,
                           fault_injectors=fault_injectors)
    session_reused = bool(session is not None and session.reused)
    if tracer and session is not None:
        tracer.metrics.inc("serve.session_reused"
                           if session_reused else "serve.session_cold")

    verified = True
    if job.verify:
        verified = outcome.output == baseline["output"]
        if not verified:
            message = (
                f"parallel output diverged: {outcome.output} != "
                f"{baseline['output']}"
            )
            if job.options.strict:
                from .. import OutputDivergence
                exc = OutputDivergence(message)
                sink.emit(exc.diagnostic)
                raise exc
            sink.error("RT-DIVERGED", message, phase="runtime")

    par = outcome.loop_makespan
    seq_loop = sum(tl.profile.loop_cycles
                   for tl in compiled.result.loops)
    loop_speedup = seq_loop / par if par else 0.0
    total_speedup = 0.0
    if baseline is not None and outcome.total_cycles:
        total_speedup = baseline["cycles"] / outcome.total_cycles

    elapsed_us = (time.perf_counter() - t0) * 1e6
    return JobOutcome(
        compiled, output=list(outcome.output),
        exit_code=outcome.exit_code, verified=verified,
        races=len(outcome.races), loop_speedup=loop_speedup,
        total_speedup=total_speedup, backend=outcome.backend,
        session_reused=session_reused,
        diagnostics=list(sink.diagnostics), parallel=outcome,
        baseline=baseline, elapsed_us=elapsed_us,
        trace=tracer if tracer else None,
    )
