"""repro: reproduction of "General Data Structure Expansion for
Multi-threading" (Yu, Ko, Li — PLDI 2013).

The package is a complete toolchain around the paper's compiler
technique:

* :mod:`repro.frontend` — MiniC (C subset) lexer/parser/types/sema
* :mod:`repro.interp`   — byte-accurate interpreter with a cycle model
* :mod:`repro.analysis` — dependence profiling, access classes,
  privatizability (Definitions 1-5), Andersen points-to
* :mod:`repro.transform` — the paper's contribution: fat-pointer
  promotion, span computation, data structure expansion, redirection,
  and the §3.4 optimizations
* :mod:`repro.runtime`  — simulated N-thread execution (DOALL static /
  DOACROSS dynamic scheduling) with race checking, plus a true
  multi-core process backend over OS shared memory
  (``backend="process"``)
* :mod:`repro.baselines` — SpiceC-style runtime privatization and the
  sync-only baseline
* :mod:`repro.bench`    — the eight benchmark kernels plus harness and
  report generators for every table/figure in the paper
* :mod:`repro.obs`      — observability: phase tracing, per-thread
  runtime timelines, metrics, Chrome trace-event export

Quick start::

    from repro import expand_and_run

    outcome = expand_and_run(source, loop_labels=["L"], nthreads=4)
    print(outcome.output, outcome.loop_speedup)

With observability::

    from repro import expand_and_run
    from repro.obs import write_chrome_trace

    outcome = expand_and_run(source, ["L"], nthreads=4, trace=True)
    print(outcome.trace.metrics.as_dict())
    write_chrome_trace(outcome.trace, "out.json")   # chrome://tracing
"""

from typing import List, Optional

from .diagnostics import (
    Diagnostic, DiagnosableError, DiagnosticSink, diagnostic_of,
)
from .frontend import parse_and_analyze, print_program
from .interp import ENGINES, Machine, resolve_engine, run_source
from .obs import (
    MetricsRegistry, NULL_TRACER, NullTracer, Tracer, chrome_trace,
    trace_summary, write_chrome_trace,
)
from .transform import OptFlags, TransformResult, expand_for_threads
from .runtime import (
    CopyIndexSkew, FaultInjector, HeartbeatStaller, ParallelOutcome,
    ProcessChaosInjector, SpanCorruptor, SyncTokenDropper,
    ThreadAborter, TokenPostDelayer, TokenPostDropper, WorkerCrash,
    WorkerKiller, parse_chaos_spec, process_backend_available,
    run_parallel,
)


class OutputDivergence(DiagnosableError, AssertionError):
    """The parallel run computed different program output than the
    sequential original (subclasses :class:`AssertionError` for
    backward compatibility with pre-1.1 callers)."""

    default_code = "RT-DIVERGED"
    default_phase = "runtime"


class ExpandAndRunOutcome:
    """Convenience bundle returned by :func:`expand_and_run`: the
    :class:`TransformResult` beside the run's
    :class:`~repro.service.runner.JobOutcome` fields."""

    def __init__(self, transform: TransformResult, job_outcome):
        self.transform = transform
        self.parallel: ParallelOutcome = job_outcome.parallel
        self.output = self.parallel.output
        self.races = self.parallel.races
        #: structured findings from transform + runtime (quarantines,
        #: recoveries, divergence), in emission order
        self.diagnostics: List[Diagnostic] = job_outcome.diagnostics
        #: the :class:`repro.obs.Tracer` observing the run, or None
        self.trace: Optional[Tracer] = job_outcome.trace
        #: parallel output matched the sequential original
        self.verified = job_outcome.verified
        #: candidate-loop speedup of the parallel run over sequential
        self.loop_speedup = job_outcome.loop_speedup
        self.total_speedup = job_outcome.total_speedup
        #: per-stage "hit"/"miss" report of the staged compile
        self.cache_report = job_outcome.cache


def expand_and_run(source: Optional[str] = None, loop_labels=None,
                   nthreads: int = 4,
                   optimize=True, *,
                   job=None,
                   cache=None,
                   pool=None,
                   sink: Optional[DiagnosticSink] = None,
                   tracer: Optional[Tracer] = None,
                   trace: bool = False) -> ExpandAndRunOutcome:
    """One-call API: parse, analyze, profile, expand, run in parallel.

    The labeled loops must carry ``#pragma expand parallel(doall)`` or
    ``parallel(doacross)`` annotations.  The parallel run's output is
    verified against the sequential original.

    ``source``, ``loop_labels``, ``nthreads`` and ``optimize`` (a bool —
    all §3.4 optimizations on/off — or an
    :class:`~repro.transform.OptFlags` for per-optimization ablation)
    are conveniences that build a default :class:`repro.service.Job`.
    Anything else — entry point, strictness, layout, engine, chunking,
    watchdog, backend — is a field of the ``Job`` /
    :class:`~repro.service.CompileOptions` passed as ``job=`` instead.

    A strict job (the default) raises :class:`OutputDivergence` when
    the parallel output differs from sequential, and fails fast on
    pipeline or runtime faults.  ``CompileOptions(strict=False)``
    degrades gracefully instead: failing loops are quarantined,
    races/faults recover by sequential re-execution, and a divergence
    is recorded as an ``RT-DIVERGED`` diagnostic with
    ``outcome.verified == False``.

    ``trace=True`` (or an explicit ``tracer=``) records phase spans,
    the per-thread runtime timeline and the transform/runtime metrics;
    the tracer is attached as ``outcome.trace``.

    ``cache`` (a :class:`repro.service.StageCache`) lets every compile
    stage and the sequential baseline be probed from / published to the
    cache, and ``pool`` (a :class:`repro.service.SessionPool`) lets a
    process-backend job draw a warm worker session.
    """
    if job is None:
        if source is None or loop_labels is None:
            raise TypeError(
                "expand_and_run() needs source and loop_labels "
                "(or job=)"
            )
        job = Job(source, loop_labels, CompileOptions.make(optimize),
                  nthreads=nthreads)
    elif source is not None or loop_labels is not None:
        raise TypeError(
            "expand_and_run() got both job= and source/loop_labels; "
            "the Job already carries them"
        )
    if tracer is None:
        tracer = Tracer() if trace else NULL_TRACER
    sink = sink if sink is not None else DiagnosticSink()
    compiled = StagedCompiler(cache=cache, tracer=tracer,
                              sink=sink).compile(job)
    job_outcome = run_job(compiled, tracer=tracer, sink=sink, pool=pool,
                          cache=cache)
    return ExpandAndRunOutcome(compiled.result, job_outcome)


__version__ = "1.8.0"

# the service layer resolves __version__ lazily for cache keys, so it
# imports after the version is bound
from .service import (
    CompileOptions, ExpansionService, Job, SessionPool, StageCache,
    StagedCompiler, run_job,
)

#: the stable public surface; everything else is implementation detail
__all__ = [
    # one-call workflow
    "expand_and_run", "ExpandAndRunOutcome", "OutputDivergence",
    # frontend / interpreter
    "parse_and_analyze", "print_program", "Machine", "run_source",
    "ENGINES", "resolve_engine",
    # transform
    "expand_for_threads", "TransformResult", "OptFlags",
    # runtime
    "run_parallel", "ParallelOutcome", "process_backend_available",
    "WorkerCrash",
    # diagnostics
    "Diagnostic", "DiagnosticSink", "DiagnosableError", "diagnostic_of",
    # observability
    "Tracer", "NullTracer", "NULL_TRACER", "MetricsRegistry",
    "chrome_trace", "write_chrome_trace", "trace_summary",
    # fault injection
    "FaultInjector", "SpanCorruptor", "CopyIndexSkew",
    "SyncTokenDropper", "ThreadAborter",
    # process-level chaos (supervised backend)
    "ProcessChaosInjector", "WorkerKiller", "HeartbeatStaller",
    "TokenPostDropper", "TokenPostDelayer", "parse_chaos_spec",
    # the resident expansion service (staged pipeline + serve daemon)
    "Job", "CompileOptions", "StageCache", "StagedCompiler",
    "SessionPool", "ExpansionService", "run_job",
]
