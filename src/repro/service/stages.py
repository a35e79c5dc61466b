"""The staged pipeline API: compile a :class:`~repro.service.Job`
through explicit, separately memoizable stages.

Stage chain and cache-key anatomy (every key is a chained SHA-256; the
chain head folds in ``repro.__version__`` so a version bump invalidates
everything)::

    parse    = H(version, source)
    sema     = H(parse)
    profile  = H(sema, loop_labels, entry, engine)
    classify = H(profile, cert_schema, commutative)
    expand   = H(classify, OptFlags, layout, expansion_source, strict)
    optimize = H(expand)
    plan     = H(optimize)
    lower    = H(plan, engine)            [memory tier only]
    lower-native = H(lower, abi, cflags, cc)  [native engine only;
                                           memory tier + .so disk cache]
    baseline = H(sema, entry, engine)     [side stage, run phase]

Each chain artifact is a *cumulative context snapshot* — the program,
sema, profiles and transform state pickled together — so AST object
identity between stages survives serialization, and a hit at depth *k*
implies hits for every stage above it.  The ``lower`` artifact holds
closure-compiled bytecode, which cannot pickle; it lives in the memory
tier only, where a resident daemon keeps it warm (this is the durable
successor of the bytecode tier's ``WeakKeyDictionary`` memo).

In permissive mode the transform stages run as one monolithic unit
(quarantine/bisect semantics are whole-transform properties) and only
a *clean* result — no diagnostics, no quarantined loops — is cached,
under the ``plan`` key.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from ..analysis import commutative as _commutative
from ..diagnostics import DiagnosticSink
from ..frontend import ast, parse
from ..frontend.sema import analyze
from ..obs import ensure_tracer
from ..transform.pipeline import (
    ExpansionPipeline, expand_for_threads, record_transform_metrics,
)
from .cache import MISS, StageCache
from .job import Job

#: the chain, shallowest first (``baseline`` is a side stage keyed off
#: ``sema``, probed by the run phase; ``lower-native`` joins the chain
#: only when the job's engine is "native")
STAGES = ("parse", "sema", "profile", "classify", "expand", "optimize",
          "plan", "lower", "lower-native")


def _h(prev: str, *parts) -> str:
    digest = hashlib.sha256()
    digest.update(prev.encode("utf-8"))
    for part in parts:
        digest.update(b"\x1f")
        digest.update(repr(part).encode("utf-8"))
    return digest.hexdigest()


def stage_keys(job: Job) -> Dict[str, str]:
    """All stage keys for ``job`` (derivable without running anything:
    the chain hashes inputs, not artifacts)."""
    from .. import __version__
    opts = job.options
    engine = opts.resolved_engine()
    keys: Dict[str, str] = {}
    keys["parse"] = _h(_h("repro", __version__), job.source)
    keys["sema"] = _h(keys["parse"])
    keys["profile"] = _h(keys["sema"], job.loop_labels, opts.entry,
                         engine)
    # the certificate schema is part of the classify artifact: a schema
    # bump (or toggling the prover) must re-prove, never reuse a stale
    # cached certificate
    keys["classify"] = _h(keys["profile"],
                          _commutative.CERT_SCHEMA_VERSION,
                          opts.commutative)
    keys["expand"] = _h(keys["classify"], opts.opt, opts.layout,
                        opts.expansion_source, opts.strict)
    keys["optimize"] = _h(keys["expand"])
    keys["plan"] = _h(keys["optimize"])
    keys["lower"] = _h(keys["plan"], engine)
    # the native lowering folds everything a .so depends on that the
    # chain above does not already: codegen ABI, opt flags, and the
    # host compiler's identity (path + version).  The key exists for
    # every engine (key derivation must be total), but only native jobs
    # put the stage in their chain, so only they ask the host for its
    # compiler (a ``cc --version`` subprocess, once per process).
    from ..interp.native import NATIVE_ABI_VERSION
    from ..interp.native.backend import CFLAGS, cc_identity
    keys["lower-native"] = _h(
        keys["lower"], NATIVE_ABI_VERSION, CFLAGS,
        cc_identity() if engine == "native" else None)
    keys["baseline"] = _h(keys["sema"], opts.entry, engine)
    return keys


class StageContext:
    """Mutable compile state threaded through the stages; the slice of
    it populated so far is what each chain artifact snapshots."""

    #: chain fields in population order — the snapshot schema
    CHAIN_FIELDS = ("program", "sema", "profiles", "privs", "result")

    def __init__(self, job: Job):
        self.job = job
        self.program = None
        self.sema = None
        self.profiles: Optional[Dict[str, object]] = None
        self.privs: Optional[Dict[str, object]] = None
        self.result = None
        #: transient — live pipeline carrying mid-transform state
        self.pipeline: Optional[ExpansionPipeline] = None
        #: transient — lower-stage compilers (memory tier only)
        self.compilers: Optional[dict] = None
        #: content fingerprint of the transformed program (process
        #: backend + session-pool key); filled by the lower stage
        self.fingerprint: Optional[str] = None
        #: transient — native contexts (lowering + dlopen'd .so) for
        #: the transformed and original programs; memory tier only,
        #: the .so artifacts themselves are cached on disk beside the
        #: stage cache (filled by the lower-native stage)
        self.native = None
        self.native_baseline = None

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.CHAIN_FIELDS
                if getattr(self, name) is not None}

    def restore(self, artifact: dict) -> None:
        for name in self.CHAIN_FIELDS:
            if name in artifact:
                setattr(self, name, artifact[name])
        self.pipeline = None

    def nid_floor(self) -> int:
        roots = [self.program]
        if self.result is not None:
            roots.append(self.result.program)
        return ast.max_nid(*roots)

    def loops(self) -> List[ast.LoopStmt]:
        return [ast.find_loop(self.program, label)
                for label in self.job.loop_labels]


class CompiledJob:
    """Everything :func:`repro.service.run_job` needs to execute a
    compiled job, plus the per-request cache report."""

    def __init__(self, job: Job, ctx: StageContext,
                 keys: Dict[str, str], report: Dict[str, str]):
        self.job = job
        self.ctx = ctx
        self.keys = keys
        #: stage -> "hit" | "miss" for this request
        self.report = report

    @property
    def program(self):
        return self.ctx.program

    @property
    def sema(self):
        return self.ctx.sema

    @property
    def result(self):
        return self.ctx.result

    @property
    def hits(self) -> int:
        return sum(1 for v in self.report.values() if v == "hit")

    @property
    def stage_count(self) -> int:
        return len(self.report)


class StagedCompiler:
    """Drives a :class:`Job` through the stage chain with a cache probe
    between each stage.

    ``cache=None`` still works (every stage computes) so the staged API
    is usable without a cache directory; with a shared
    :class:`StageCache` a second identical job performs zero parse /
    sema / profile / classify / transform / lower work.
    """

    def __init__(self, cache: Optional[StageCache] = None, tracer=None,
                 sink: Optional[DiagnosticSink] = None):
        self.cache = cache
        self.tracer = ensure_tracer(tracer)
        self.sink = sink if sink is not None else DiagnosticSink()
        if cache is not None and cache.sink is None:
            cache.sink = self.sink

    # -- public -----------------------------------------------------------
    def compile(self, job: Job,
                keys: Optional[Dict[str, str]] = None) -> CompiledJob:
        """``keys`` is ``stage_keys(job)`` when the caller already
        derived it (the daemon locks on one before compiling)."""
        if keys is None:
            keys = stage_keys(job)
        ctx = StageContext(job)
        report: Dict[str, str] = {}
        chain = self._chain_for(job)
        start = self._probe(job, keys, ctx, chain, report)
        for stage in chain[start:]:
            self._compute(stage, job, ctx, keys)
            report[self._label(stage)] = "miss"
        self._note(report)
        return CompiledJob(job, ctx, keys, report)

    # -- probing ----------------------------------------------------------
    def _chain_for(self, job: Job) -> Tuple[str, ...]:
        native = job.options.resolved_engine() == "native"
        if job.options.strict:
            return STAGES if native else STAGES[:-1]
        # permissive: the transform is one monolithic, bisectable unit
        chain = ("parse", "sema", "transform", "lower")
        return chain + ("lower-native",) if native else chain

    def _probe(self, job: Job, keys, ctx, chain, report) -> int:
        """Load the deepest cached artifact; returns the index of the
        first stage that must compute."""
        if self.cache is None:
            return 0
        for i in range(len(chain) - 1, -1, -1):
            stage = chain[i]
            key = keys[self._key_name(stage)]
            artifact = self.cache.get(
                self._label(stage), key,
                memory_only=stage in ("lower", "lower-native"))
            if artifact is MISS:
                continue
            self._load(stage, artifact, ctx)
            for done in chain[:i + 1]:
                report[self._label(done)] = "hit"
            if stage in ("plan", "transform", "lower") \
                    and ctx.result is not None:
                record_transform_metrics(ctx.result, self.tracer)
            return i + 1
        return 0

    def _label(self, stage: str) -> str:
        # the permissive monolithic unit reports under the chain's
        # stage vocabulary (its artifact lives under the "plan" key)
        return stage if stage != "transform" else "plan"

    def _key_name(self, stage: str) -> str:
        return stage if stage != "transform" else "plan"

    def _load(self, stage: str, artifact, ctx: StageContext) -> None:
        if stage in ("lower", "lower-native"):
            # these artifacts are the complete context (consistent
            # object graph including compilers / native contexts)
            loaded: StageContext = artifact
            ctx.restore(loaded.snapshot())
            ctx.compilers = loaded.compilers
            ctx.fingerprint = loaded.fingerprint
            ctx.native = loaded.native
            ctx.native_baseline = loaded.native_baseline
        else:
            ctx.restore(artifact)

    # -- computing --------------------------------------------------------
    def _compute(self, stage: str, job: Job, ctx: StageContext,
                 keys) -> None:
        getattr(self, f"_stage_{stage.replace('-', '_')}")(job, ctx)
        memory_only = stage in ("lower", "lower-native")
        if self.cache is not None:
            if stage == "transform" and not self._clean(ctx):
                return  # only clean permissive results are cacheable
            artifact = ctx if memory_only else ctx.snapshot()
            self.cache.put(self._label(stage),
                           keys[self._key_name(stage)], artifact,
                           durable=not memory_only,
                           nid_floor=ctx.nid_floor())

    def _clean(self, ctx: StageContext) -> bool:
        result = ctx.result
        return (result is not None and not result.quarantined
                and not result.diagnostics)

    def _pipeline_for(self, ctx: StageContext) -> ExpansionPipeline:
        job = ctx.job
        opts = job.options
        pipeline = ExpansionPipeline(
            ctx.program, ctx.sema, list(job.loop_labels),
            optimize=opts.flags, expansion_source=opts.expansion_source,
            entry=opts.entry, profiles=ctx.profiles, layout=opts.layout,
            strict=True, sink=self.sink, tracer=self.tracer,
            commutative=opts.commutative, engine=opts.resolved_engine(),
        )
        if ctx.result is not None:
            pipeline.result = ctx.result
        return pipeline

    def _stage_parse(self, job: Job, ctx: StageContext) -> None:
        with self.tracer.phase("parse", bytes=len(job.source)):
            ctx.program = parse(job.source)

    def _stage_sema(self, job: Job, ctx: StageContext) -> None:
        with self.tracer.phase("sema"):
            ctx.sema = analyze(ctx.program)

    def _stage_profile(self, job: Job, ctx: StageContext) -> None:
        _, ctx.profiles = self._pipeline_for(ctx).stage_profile(
            ctx.loops())

    def _stage_classify(self, job: Job, ctx: StageContext) -> None:
        _, ctx.privs = self._pipeline_for(ctx).stage_classify(
            ctx.loops(), ctx.profiles)

    def _stage_expand(self, job: Job, ctx: StageContext) -> None:
        pipeline = self._pipeline_for(ctx)
        pipeline.result = None  # stage_expand resets it
        pipeline.stage_expand(ctx.loops(), ctx.profiles, ctx.privs)
        ctx.result = pipeline.result
        ctx.pipeline = pipeline

    def _stage_optimize(self, job: Job, ctx: StageContext) -> None:
        pipeline = ctx.pipeline or self._pipeline_for(ctx)
        pipeline.stage_optimize(ctx.loops())
        ctx.result = pipeline.result
        ctx.pipeline = pipeline

    def _stage_plan(self, job: Job, ctx: StageContext) -> None:
        pipeline = ctx.pipeline or self._pipeline_for(ctx)
        pipeline.stage_plan(ctx.loops(), ctx.profiles, ctx.privs)
        result = pipeline.result
        result.diagnostics = list(self.sink.diagnostics)
        result.quarantined = list(pipeline.quarantined)
        ctx.result = result
        ctx.pipeline = None
        record_transform_metrics(result, self.tracer)

    def _stage_transform(self, job: Job, ctx: StageContext) -> None:
        """Permissive mode: profile → plan as one unit, preserving the
        quarantine / bisection / identity-fallback semantics exactly."""
        opts = job.options
        result = expand_for_threads(
            ctx.program, ctx.sema, list(job.loop_labels),
            optimize=opts.flags, expansion_source=opts.expansion_source,
            entry=opts.entry, layout=opts.layout, strict=False,
            sink=self.sink, tracer=self.tracer,
            commutative=opts.commutative, engine=opts.resolved_engine(),
        )
        ctx.result = result
        ctx.profiles = {tl.loop.label: tl.profile for tl in result.loops}

    def _stage_lower(self, job: Job, ctx: StageContext) -> None:
        """Eagerly build the closure-compiled code every run phase
        needs: the transformed program's (parallel run and, through the
        fingerprint, process workers) and the original's (sequential
        baseline)."""
        from ..frontend import print_program
        from ..interp.bytecode.compiler import precompile, source_fingerprint
        result = ctx.result
        ctx.fingerprint = source_fingerprint(print_program(result.program))
        engine = job.options.resolved_engine()
        if engine == "ast":
            ctx.compilers = {}
            return
        with self.tracer.phase("lower", engine=engine):
            ctx.compilers = {
                "parallel": precompile(result.program, result.sema,
                                       self.tracer,
                                       fingerprint=ctx.fingerprint),
                "baseline": precompile(ctx.program, ctx.sema,
                                       self.tracer),
            }

    def _stage_lower_native(self, job: Job, ctx: StageContext) -> None:
        """Lower the transformed + original programs to C — entry
        points for the loops that get a controller, none but the
        runners for the sequential baseline — compile the two
        translation units side by side and dlopen them.  The artifact
        (dlopen handles) lives in the memory tier; the compiled .so is
        content-cached on disk beside the stage cache, so a daemon
        restart re-lowers but never re-invokes the C compiler."""
        import os
        from ..interp.native import (
            native_backend_available, native_contexts_for,
        )
        ok, reason = native_backend_available()
        if not ok:
            # graceful degradation: the run phase's machines carry the
            # same probe verdict and fall back to bytecode
            self.sink.warning(
                "NL-UNAVAILABLE",
                f"native backend unavailable ({reason}); the run "
                f"phase degrades to bytecode",
                phase="lower-native")
            return
        so_dir = None
        if self.cache is not None and self.cache.root:
            so_dir = os.path.join(self.cache.root, "native-so")
        result = ctx.result
        with self.tracer.phase("lower-native"):
            (ctx.native, ctx.native_baseline), cc_wall = \
                native_contexts_for(
                    [(result.program, result.sema,
                      result.controlled_loops()),
                     (ctx.program, ctx.sema, frozenset())],
                    cache_dir=so_dir)
        if self.tracer:
            metrics = self.tracer.metrics
            for c in (ctx.native, ctx.native_baseline):
                metrics.inc("native.so_cache_hit" if c.lib.cache_hit
                            else "native.so_cache_miss")
            # wall-clock with a compiler running, not the sum over the
            # two processes: lower-native minus this is codegen time
            metrics.inc("native.compile_seconds", cc_wall)

    # -- observability ----------------------------------------------------
    def _note(self, report: Dict[str, str]) -> None:
        if not self.tracer:
            return
        metrics = self.tracer.metrics
        for stage, status in report.items():
            metrics.inc(f"cache.{stage}.{status}")
            metrics.inc(f"cache.{status}")
