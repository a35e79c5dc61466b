"""End-to-end expansion pipeline (the paper's Figure 7 workflow).

Stages, in the paper's required order ("the creation and computation of
the symbol span is prior to the data structure expansion"):

1. **Profile** each candidate loop on the original program → DDG
   (Definitions 1-3).
2. **Classify** accesses: access classes (Definition 4), thread-private
   classes (Definition 5).
3. **Alias analysis** (Andersen) → expansion set = objects reachable
   from private accesses; promotion plan (§3.4 selective promotion).
4. **Clone** the program (originals stay runnable as the baseline).
5. **Promote** pointers to fat pointers + insert span statements
   (Figures 5-6, Table 3).
6. **Heapify + expand**: globals/locals in the expansion set become
   heap objects; every expansion-set allocation is multiplied by
   ``__nthreads`` (Table 1); named-variable accesses are redirected
   (Table 2 rows 1-6).
7. **Redirect** private pointer dereferences through spans (Table 2
   last row), with constant spans where §3.4's optimization applies.
8. **Plan parallel execution**: loop kind from its pragma, plus the
   set of statements that must stay ordered for DOACROSS loops
   (accesses with surviving cross-thread dependences).

The result is a runnable transformed program plus everything the
parallel runtime and the benchmark harness need.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..diagnostics import (
    Diagnostic, DiagnosticSink, diagnostic_of,
)
from ..obs import ensure_tracer
from ..frontend import ast
from ..frontend.ctypes import ArrayType, CTypeError
from ..frontend.sema import SemaError, SemaResult, analyze
from ..interp.machine import InterpError
from ..interp.memory import MemoryError_
from ..analysis.access_classes import build_access_classes
from ..analysis.breakdown import Breakdown, compute_breakdown
from ..analysis.commutative import (
    GROUP_MERGE_OPS, ReductionInfo, build_certificate,
    upgrade_commutative,
)
from ..analysis.pointsto import Obj, PointsToResult, analyze_pointsto
from ..analysis.privatization import PrivatizationResult, classify
from ..analysis.profiler import LoopProfile, profile_loop
from . import expand as ex
from .promote import (
    PromotionPlan, TransformError, TypePromoter, heap_object_types,
    promote_program,
)
from .redirect import (RedirectStats, hoist_redirections,
    redirect_private_derefs)
from .rewrite import clone_program, origin_of

DOALL = "doall"
DOACROSS = "doacross"

#: failure classes the permissive pipeline degrades on (anything else
#: is a toolchain bug and propagates regardless of mode)
PIPELINE_FAULTS = (
    TransformError, SemaError, CTypeError, InterpError, MemoryError_,
    KeyError, ValueError,
)


class QuarantinedLoop:
    """A candidate loop excluded from the transform after a stage
    failure.  It stays sequential in the emitted program; when its
    profile and privatization classification survived, the parallel
    runtime may instead run it under SpiceC-style runtime privatization
    (``fallback == RUNTIME_PRIV``), which needs exactly that data."""

    SEQUENTIAL = "sequential"
    RUNTIME_PRIV = "runtime-priv"

    def __init__(
        self,
        label: str,
        phase: str,
        reason: str,
        fallback: str = SEQUENTIAL,
        loop: Optional[ast.LoopStmt] = None,
        profile: Optional[LoopProfile] = None,
        priv: Optional[PrivatizationResult] = None,
    ):
        self.label = label
        self.phase = phase
        self.reason = reason
        self.fallback = fallback
        self.loop = loop
        self.profile = profile
        self.priv = priv

    def __repr__(self) -> str:
        return (
            f"<QuarantinedLoop {self.label!r} phase={self.phase} "
            f"fallback={self.fallback}>"
        )


class OptFlags:
    """§3.4 optimization toggles (for ablation; ``optimize=bool`` in the
    public API sets them all)."""

    def __init__(self, selective_promotion=True, trivial_span_elim=True,
                 constant_spans=True, hoisting=True, licm=True):
        self.selective_promotion = selective_promotion
        self.trivial_span_elim = trivial_span_elim
        self.constant_spans = constant_spans
        self.hoisting = hoisting
        self.licm = licm

    @classmethod
    def all_off(cls):
        return cls(False, False, False, False, False)

    @classmethod
    def from_bool(cls, optimize):
        if isinstance(optimize, cls):
            return optimize
        return cls() if optimize else cls.all_off()


class TransformedLoop:
    """One candidate loop in the transformed program."""

    def __init__(self, loop: ast.LoopStmt, kind: str,
                 profile: LoopProfile, priv: PrivatizationResult):
        self.loop = loop
        self.kind = kind
        self.profile = profile
        self.priv = priv
        #: origins of loop-body top-level statements that must execute
        #: in iteration order under DOACROSS (surviving carried deps)
        self.serial_stmt_origins: Set[int] = set()
        self.breakdown: Optional[Breakdown] = None
        #: serializable parallelism certificate (class assignment per
        #: site + reduction proofs), re-verified by LINT-CERT
        self.certificate: Optional[Dict[str, object]] = None

    def __repr__(self) -> str:
        return f"<TransformedLoop {self.kind} label={self.loop.label!r}>"


class TransformResult:
    """Everything produced by :func:`expand_for_threads`."""

    def __init__(self):
        self.program: Optional[ast.Program] = None
        self.sema: Optional[SemaResult] = None
        self.promoter: Optional[TypePromoter] = None
        self.expansion = ex.ExpansionResult()
        self.loops: List[TransformedLoop] = []
        self.redirect_stats: Optional[RedirectStats] = None
        self.pointsto: Optional[PointsToResult] = None
        self.private_sites: Set[int] = set()
        self.redirect_origins: Set[int] = set()
        self.expansion_objs: Set[Obj] = set()
        #: structured findings from this run (quarantines, degradations)
        self.diagnostics: List[Diagnostic] = []
        #: loops excluded from the transform in permissive mode
        self.quarantined: List[QuarantinedLoop] = []
        #: span stores removed by the liveness-based §3.4 pass
        self.span_stores_dead_eliminated = 0
        #: sites of classes upgraded to the commutative class
        self.commutative_sites: Set[int] = set()
        #: accumulators that received identity-init + merge-back code
        self.reduction_merges = 0

    @property
    def num_privatized(self) -> int:
        """Number of dynamic data structures privatized (Table 5)."""
        return self.expansion.num_expanded

    def loop_by_label(self, label: str) -> TransformedLoop:
        for tl in self.loops:
            if tl.loop.label == label:
                return tl
        raise KeyError(f"no transformed loop labeled {label!r}")

    def runtime_priv_loops(self):
        """``(quarantined loop, its clone in the output program)`` for
        every quarantined loop that falls back to runtime privatization
        (the clone is ``None`` if the transform lost the label)."""
        for q in self.quarantined:
            if q.fallback == QuarantinedLoop.RUNTIME_PRIV:
                try:
                    yield q, ast.find_loop(self.program, q.label)
                except KeyError:
                    yield q, None

    def controlled_loops(self) -> frozenset:
        """Nids of the loops the parallel runtime puts a controller on:
        every transformed loop and every runtime-privatized quarantined
        clone.  The native tier compiles entry points for exactly these
        (see ``interp.native.codegen``)."""
        return frozenset(
            [tl.loop.nid for tl in self.loops]
            + [clone.nid for _, clone in self.runtime_priv_loops()
               if clone is not None])


def parse_loop_kind(loop: ast.LoopStmt) -> str:
    """Read the parallelism kind from ``#pragma expand parallel(...)``."""
    for pragma in loop.pragmas:
        text = pragma.replace(" ", "").lower()
        if "parallel(doacross)" in text:
            return DOACROSS
        if "parallel(doall)" in text:
            return DOALL
    return DOALL


def _spine_nids(expr: ast.Expr) -> Set[int]:
    """The lvalue spine of an access expression: the nodes that denote
    the accessed location itself (not separate loads feeding the
    address computation).  Stops at pointer loads: the base of ``p->f``
    or ``*p`` is its own access with its own classification."""
    out: Set[int] = set()
    node: Optional[ast.Expr] = expr
    while node is not None:
        out.add(node.nid)
        if isinstance(node, ast.Index):
            base_t = node.base.ctype
            if base_t is not None and base_t.is_array:
                node = node.base     # a[i][j]: inner index is same object
            else:
                node = None          # pointer base: separate load
        elif isinstance(node, ast.Member):
            node = None if node.arrow else node.base
        elif isinstance(node, ast.Cast):
            node = node.expr
        else:
            node = None
    return out


def compute_redirect_origins(
    program: ast.Program, private_sites: Set[int]
) -> Set[int]:
    """Private sites plus the full lvalue spines of private accesses:
    the root identifier of ``a[i][j]`` or ``s.f`` carries its access's
    classification so the expansion stage can decide copy selection at
    the identifier."""
    out = set(private_sites)
    for fn in program.functions():
        for node in fn.body.walk():
            if node.nid not in private_sites:
                continue
            if isinstance(node, ast.Assign):
                out |= _spine_nids(node.target)
            elif isinstance(node, ast.Unary) and node.op in (
                "++", "--", "p++", "p--"
            ):
                out |= _spine_nids(node.operand)
            elif isinstance(node, ast.Call):
                for arg in node.args:
                    at = arg.ctype.decay() if arg.ctype else None
                    if at is not None and at.is_pointer:
                        out |= _spine_nids(arg)
            elif isinstance(node, (ast.Index, ast.Member, ast.Ident,
                                   ast.Unary)):
                out |= _spine_nids(node)
    return out


def _const_fold(expr: ast.Expr,
                const_env: Optional[Dict[object, int]] = None) -> Optional[int]:
    """Fold integer-constant expressions (literals, sizeof, + - * /,
    and reads of never-written literal-initialized globals — the
    constant propagation §3.4 leans on)."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.SizeofType):
        return expr.of_type.size
    if isinstance(expr, ast.SizeofExpr):
        ctype = expr.expr.ctype
        return ctype.size if ctype is not None else None
    if isinstance(expr, ast.Cast):
        return _const_fold(expr.expr, const_env)
    if isinstance(expr, ast.Ident) and const_env is not None:
        key = getattr(expr.decl, "origin", None) or             (expr.decl.nid if expr.decl is not None else None)
        return const_env.get(key)
    if isinstance(expr, ast.Binary) and expr.op in ("+", "-", "*", "/"):
        left = _const_fold(expr.left, const_env)
        right = _const_fold(expr.right, const_env)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        return left // right if right else None
    return None


def read_only_literal_globals(program: ast.Program,
                              sema: SemaResult) -> Dict[int, int]:
    """Global int decls with literal initializers that are never
    stored to or address-taken: map decl nid -> value."""
    candidates: Dict[int, int] = {}
    for decl in sema.globals:
        if isinstance(decl.init, ast.IntLit) and decl.ctype.is_integer:
            candidates[decl.nid] = decl.init.value
    for fn in program.functions():
        for node in fn.body.walk():
            target = None
            if isinstance(node, ast.Assign):
                target = node.target
            elif isinstance(node, ast.Unary) and node.op in (
                "++", "--", "p++", "p--", "&"
            ):
                target = node.operand
            if isinstance(target, ast.Ident) and                     isinstance(target.decl, ast.VarDecl):
                candidates.pop(target.decl.nid, None)
    return candidates


def _normalize_profile_obj(key) -> Optional[Obj]:
    """Map a profiler object key (segment kind, tag) to the points-to
    object vocabulary."""
    kind, tag = key
    if kind in ("global", "stack"):
        return ("var", tag)
    if kind == "heap":
        return ("heap", tag)
    return None  # rodata


class ExpansionPipeline:
    """Configurable driver; :func:`expand_for_threads` is the one-call API."""

    def __init__(
        self,
        program: ast.Program,
        sema: SemaResult,
        loop_labels: List[str],
        optimize=True,
        expansion_source: str = "static",
        entry: str = "main",
        profiles: Optional[Dict[str, LoopProfile]] = None,
        layout: str = "bonded",
        strict: bool = True,
        sink: Optional[DiagnosticSink] = None,
        tracer=None,
        commutative: bool = True,
        engine: Optional[str] = None,
    ):
        if expansion_source not in ("static", "profile"):
            raise ValueError("expansion_source must be 'static' or 'profile'")
        if layout not in (ex.BONDED, ex.INTERLEAVED, ex.ADAPTIVE):
            raise ValueError(
                "layout must be 'bonded', 'interleaved' or 'adaptive'"
            )
        self.program = program
        self.sema = sema
        self.loop_labels = loop_labels
        self.flags = OptFlags.from_bool(optimize)
        self.optimize = bool(
            self.flags.selective_promotion or self.flags.hoisting
            or self.flags.constant_spans or self.flags.trivial_span_elim
        )
        self.expansion_source = expansion_source
        self.entry = entry
        self.layout = layout
        self._given_profiles = profiles or {}
        self.strict = strict
        self.commutative = commutative
        #: interpreter tier the profile stage runs on (None: the
        #: process default, ``$REPRO_ENGINE`` or the walker)
        self.engine = engine
        # empty sinks are falsy (len 0) — compare to None explicitly
        self.sink = sink if sink is not None else DiagnosticSink()
        self.tracer = ensure_tracer(tracer)
        self.quarantined: List[QuarantinedLoop] = []
        self.result = TransformResult()
        self._cm_counter = 0

    # -- graceful degradation ----------------------------------------------
    def _quarantine(
        self,
        label: str,
        phase: str,
        exc: BaseException,
        loop: Optional[ast.LoopStmt] = None,
        profile: Optional[LoopProfile] = None,
        priv: Optional[PrivatizationResult] = None,
    ) -> QuarantinedLoop:
        """Exclude one loop (permissive mode) or fail fast (strict)."""
        if self.strict:
            raise exc
        fallback = (
            QuarantinedLoop.RUNTIME_PRIV
            if loop is not None and profile is not None and priv is not None
            else QuarantinedLoop.SEQUENTIAL
        )
        q = QuarantinedLoop(label, phase, str(exc), fallback,
                            loop=loop, profile=profile, priv=priv)
        self.quarantined.append(q)
        cause = diagnostic_of(exc)
        cause.loop = cause.loop or label
        self.sink.emit(cause)
        self.sink.warning(
            "PIPE-QUARANTINE",
            f"loop {label!r} quarantined after {phase} failure; "
            f"it will execute via {fallback} fallback",
            loop=label, phase=phase, data={"fallback": fallback},
        )
        return q

    def _resolve_labels(self) -> List[ast.LoopStmt]:
        loops: List[ast.LoopStmt] = []
        for lbl in self.loop_labels:
            try:
                loops.append(ast.find_loop(self.program, lbl))
            except KeyError as exc:
                self._quarantine(lbl, "lookup", exc)
        return loops

    def _attribute_failure(
        self,
        loops: List[ast.LoopStmt],
        profiles: Dict[str, LoopProfile],
        privs: Dict[str, PrivatizationResult],
        exc: BaseException,
    ) -> List[ast.LoopStmt]:
        """Bisect a whole-transform failure: retry each loop alone and
        quarantine the ones that fail individually."""
        if len(loops) <= 1:
            for loop in loops:
                self._quarantine(
                    loop.label, "transform", exc, loop=loop,
                    profile=profiles.get(loop.label),
                    priv=privs.get(loop.label),
                )
            return []
        survivors: List[ast.LoopStmt] = []
        for loop in loops:
            try:
                self._run_transform([loop], profiles, privs)
            except PIPELINE_FAULTS as solo_exc:
                self._quarantine(
                    loop.label, "transform", solo_exc, loop=loop,
                    profile=profiles.get(loop.label),
                    priv=privs.get(loop.label),
                )
            else:
                survivors.append(loop)
        return survivors

    def _identity_result(self) -> TransformResult:
        """Last-resort degradation: keep the program untransformed so
        every candidate loop runs sequentially (or via runtime
        privatization) instead of taking the run down."""
        result = TransformResult()
        clone, _nid_map = clone_program(self.program)
        result.program = clone
        result.sema = analyze(clone)
        result.redirect_stats = RedirectStats()
        self.sink.warning(
            "PIPE-DEGRADED",
            "no candidate loop survived the transform; program left "
            "untransformed (sequential / runtime-priv execution)",
            phase="transform",
        )
        self.result = result
        return result

    # -- stages ------------------------------------------------------------
    def run(self) -> TransformResult:
        with self.tracer.phase("expand-pipeline",
                               loops=",".join(self.loop_labels)):
            loops = self._resolve_labels()
            loops, profiles = self.stage_profile(loops)
            loops, privs = self.stage_classify(loops, profiles)
            try:
                self._run_transform(loops, profiles, privs)
            except PIPELINE_FAULTS as exc:
                if self.strict:
                    raise
                survivors = self._attribute_failure(
                    loops, profiles, privs, exc
                )
                try:
                    self._run_transform(survivors, profiles, privs)
                except PIPELINE_FAULTS:
                    self._identity_result()
            self.result.diagnostics = list(self.sink.diagnostics)
            self.result.quarantined = list(self.quarantined)
            self._record_metrics()
        return self.result

    def _record_metrics(self) -> None:
        record_transform_metrics(self.result, self.tracer)

    def _run_transform(
        self,
        loops: List[ast.LoopStmt],
        profiles: Dict[str, LoopProfile],
        privs: Dict[str, PrivatizationResult],
    ) -> TransformResult:
        """The three transform stages back to back (the monolithic
        path; the service's :class:`~repro.service.StagedCompiler`
        drives the same stages individually with a cache probe between
        each)."""
        self.stage_expand(loops, profiles, privs)
        self.stage_optimize(loops)
        self.stage_plan(loops, profiles, privs)
        return self.result

    def stage_profile(self, loops: List[ast.LoopStmt]):
        """Dependence-profile each candidate loop (one instrumented run
        per loop).  Returns the loops that profiled and their profiles;
        the rest are quarantined (permissive) or re-raised (strict)."""
        profiles: Dict[str, LoopProfile] = {}
        kept: List[ast.LoopStmt] = []
        for loop in loops:
            label = loop.label
            try:
                with self.tracer.phase("profile", loop=label):
                    profile = self._given_profiles.get(label) or \
                        profile_loop(
                            self.program, self.sema, loop, self.entry,
                            engine=self.engine,
                        )
            except PIPELINE_FAULTS as exc:
                self._quarantine(label, "profile", exc, loop=loop)
                continue
            profiles[label] = profile
            kept.append(loop)
        return kept, profiles

    def stage_classify(self, loops: List[ast.LoopStmt],
                       profiles: Dict[str, LoopProfile]):
        """Access classes + Definition-5 privatizability per profiled
        loop, then the commutativity prover's upgrade.  Returns the
        loops that classified and their privatization results."""
        privs: Dict[str, PrivatizationResult] = {}
        kept: List[ast.LoopStmt] = []
        for loop in loops:
            label = loop.label
            profile = profiles[label]
            try:
                with self.tracer.phase("classify", loop=label):
                    priv = classify(
                        profile.ddg, build_access_classes(profile.ddg)
                    )
                    if self.commutative:
                        upgrade_commutative(
                            self.program, self.sema, loop, profile, priv
                        )
            except PIPELINE_FAULTS as exc:
                self._quarantine(label, "classify", exc, loop=loop,
                                 profile=profile)
                continue
            privs[label] = priv
            kept.append(loop)
        return kept, privs

    def stage_expand(
        self,
        loops: List[ast.LoopStmt],
        profiles: Dict[str, LoopProfile],
        privs: Dict[str, PrivatizationResult],
    ) -> TransformResult:
        """Points-to → promote → heapify/expand → redirect, on a fresh
        clone.  Resets ``self.result``; on return ``result.program`` is
        the redirected (not yet optimized) clone."""
        self.result = TransformResult()
        tracer = self.tracer
        # only the loops actually being transformed contribute sites:
        # quarantined loops must not drag their structures into the
        # expansion set on a retry
        labels = [loop.label for loop in loops]
        private_sites: Set[int] = set()
        commutative_sites: Set[int] = set()
        for label in labels:
            private_sites |= privs[label].private_sites
            commutative_sites |= getattr(
                privs[label], "commutative_sites", set()
            )
        self.result.private_sites = private_sites
        self.result.commutative_sites = commutative_sites

        with tracer.phase("pointsto"):
            pointsto = analyze_pointsto(self.program, self.sema)
        # heap object types feed promotion-group decisions
        for nid, types in heap_object_types(self.program).items():
            pointsto.object_types.setdefault(("heap", nid), set()).update(types)
        self.result.pointsto = pointsto

        expansion_objs = self._expansion_set(
            private_sites, pointsto,
            {label: profiles[label] for label in labels},
        )
        self.result.expansion_objs = expansion_objs

        redirect_origins = compute_redirect_origins(
            self.program, private_sites
        )
        self.result.redirect_origins = redirect_origins

        with tracer.phase("promote"):
            plan = PromotionPlan.from_analysis(
                self.program, self.sema, pointsto, expansion_objs,
                promote_all=not self.flags.selective_promotion,
            )
            clone, _nid_map = clone_program(self.program)
            promoter = promote_program(
                clone, self.sema, plan,
                keep_trivial_spans=not self.flags.trivial_span_elim,
            )
            self.result.promoter = promoter
            analyze(clone)

        with tracer.phase("expand"):
            self._heapify_and_expand(clone, expansion_objs,
                                     redirect_origins)
            analyze(clone)
            static_spans = self._static_spans(
                clone, pointsto, redirect_origins
            ) if self.flags.constant_spans else {}
            ex.expand_allocations(
                clone,
                {nid for kind, nid in expansion_objs if kind == "heap"},
                self.result.expansion,
            )

        with tracer.phase("redirect"):
            self.result.redirect_stats = redirect_private_derefs(
                clone, promoter, redirect_origins,
                static_spans, use_constant_spans=self.flags.constant_spans,
            )
        if self.commutative:
            with tracer.phase("merge-back"):
                self.result.reduction_merges = self._insert_merge_back(
                    clone, loops, privs
                )
            if self.result.reduction_merges:
                # resolve the freshly generated identifiers before the
                # optimizer walks the clone
                analyze(clone)
        self.result.program = clone
        return self.result

    def stage_optimize(
        self, loops: List[ast.LoopStmt]
    ) -> TransformResult:
        """§3.4 hoisting / LICM / dead span-store elimination over the
        clone produced by :meth:`stage_expand`, then the final semantic
        re-analysis.  ``loops`` are the *original-program* candidate
        loops (the clone's loops are matched by origin)."""
        tracer = self.tracer
        clone = self.result.program
        if self.flags.hoisting or self.flags.licm:
            optimize_span = tracer.begin("optimize")
            # LICM-lite over *every* loop (innermost first): redirected
            # derefs inside called functions hoist to their own loops
            all_loops: List[ast.LoopStmt] = []
            for fn in clone.functions():
                all_loops.extend(
                    node for node in fn.body.walk()
                    if isinstance(node, ast.LoopStmt)
                )
            # preorder = outermost first: hoist each redirection as
            # far out as its invariance allows; inner loops pick up
            # whatever the outer level had to skip (dirty variables)
            candidate_nids = {
                lp.nid for lp in ast.iter_loops(clone)
                if origin_of(lp) in {loop.nid for loop in loops}
            }
            from .optimize import (
                build_parent_blocks, hoist_expanded_bases, licm_globals,
            )
            parents = build_parent_blocks(clone)
            try:
                if self.flags.hoisting:
                    hoist_redirections(all_loops,
                                       self.result.redirect_stats,
                                       candidate_nids, parents)
                    hoist_expanded_bases(all_loops, candidate_nids,
                                         parents)
                if self.flags.licm:
                    licm_globals(clone)
            finally:
                tracer.end(optimize_span)
        final_sema = analyze(clone)
        if self.flags.trivial_span_elim:
            # §3.4 dead span-store elimination, liveness-derived: sweeps
            # whatever the emission-time peephole could not see (e.g.
            # spans never read again on any path).  Runs after the
            # re-analysis so hoisted initializers have resolved
            # identifiers — liveness must see their span reads.
            from .optimize import eliminate_dead_spans
            self.result.span_stores_dead_eliminated = \
                eliminate_dead_spans(clone)
            if self.result.span_stores_dead_eliminated:
                final_sema = analyze(clone)

        self.result.sema = final_sema
        return self.result

    def stage_plan(
        self,
        loops: List[ast.LoopStmt],
        profiles: Dict[str, LoopProfile],
        privs: Dict[str, PrivatizationResult],
    ) -> TransformResult:
        """Derive the parallel execution plan (loop kinds, serialized
        DOACROSS statements, breakdowns) for the optimized clone."""
        with self.tracer.phase("plan"):
            self._plan_loops(self.result.program, loops, profiles, privs)
        return self.result

    # -- helpers --------------------------------------------------------------
    def _expansion_set(
        self,
        private_sites: Set[int],
        pointsto: PointsToResult,
        profiles: Dict[str, LoopProfile],
    ) -> Set[Obj]:
        objs: Set[Obj] = set()
        if self.expansion_source == "static":
            for site in private_sites:
                objs |= pointsto.objects_of_access(site)
        else:
            for profile in profiles.values():
                for site in private_sites:
                    for key in profile.site_objects.get(site, ()):
                        norm = _normalize_profile_obj(key)
                        if norm is not None:
                            objs.add(norm)
        # returns-slots and string literals are not expandable storage
        return {o for o in objs if o[0] in ("var", "heap")}

    def _heapify_and_expand(
        self, clone: ast.Program, expansion_objs: Set[Obj],
        redirect_origins: Set[int],
    ) -> None:
        var_origins = {nid for kind, nid in expansion_objs if kind == "var"}
        global_targets: List[ast.VarDecl] = []
        local_targets: List[ast.VarDecl] = []
        for node in clone.walk():
            if isinstance(node, ast.VarDecl) and \
                    origin_of(node) in var_origins:
                if node.storage == "global":
                    global_targets.append(node)
                else:
                    local_targets.append(node)
        if self.layout == ex.INTERLEAVED:
            heap_sites = {o for o in expansion_objs if o[0] == "heap"}
            if heap_sites:
                raise TransformError(
                    "interleaved layout cannot expand heap-allocated "
                    "structures: without knowing the exact element size "
                    "(structures may be recast between differently-sized "
                    "types, like 256.bzip2's zptr) the compiler cannot "
                    "place per-element duplicates — use bonded mode"
                )
        layout_for = self._layout_chooser(clone, global_targets
                                          + local_targets)
        ex.heapify_globals(clone, global_targets, self.result.expansion,
                           layout_for)
        ex.vla_expand_locals(clone, local_targets, self.result.expansion,
                             layout_for)
        ex.rewrite_expanded_references(
            clone, self.result.expansion, redirect_origins
        )

    def _layout_chooser(self, clone: ast.Program, targets):
        """Per-structure copy layout.

        * ``bonded``/``interleaved``: every structure uses that mode
          (interleaved additionally rejects unsupported shapes loudly);
        * ``adaptive`` (the paper's §6 future work, implemented here):
          each structure independently gets interleaved placement when
          it is legal for it — a one-dimensional array only ever used
          with a subscript — and bonded otherwise.  Heap chunks and
          whole-copy (decayed) arrays must stay bonded because their
          element size or copy contiguity is load-bearing.
        """
        if self.layout == ex.BONDED:
            return lambda decl: ex.BONDED
        if self.layout == ex.INTERLEAVED:
            return lambda decl: ex.INTERLEAVED

        target_set = set(targets)
        bare_used: Set[object] = set()
        multi_dim = {
            decl for decl in target_set
            if isinstance(decl.ctype, ArrayType)
            and isinstance(decl.ctype.elem, ArrayType)
        }
        for fn in clone.functions():
            for node in fn.body.walk():
                for name in node._fields:
                    value = getattr(node, name)
                    children = value if isinstance(value, list) else [value]
                    for child in children:
                        if not (isinstance(child, ast.Ident)
                                and child.decl in target_set
                                and isinstance(child.decl.ctype, ArrayType)):
                            continue
                        if not (isinstance(node, ast.Index)
                                and name == "base"):
                            bare_used.add(child.decl)

        def choose(decl) -> str:
            if not isinstance(decl.ctype, ArrayType):
                return ex.BONDED  # scalars/records: modes coincide
            if decl in bare_used or decl in multi_dim:
                return ex.BONDED
            if isinstance(decl.init, list):
                return ex.BONDED  # initialized arrays keep bonded layout
            return ex.INTERLEAVED

        return choose

    def _static_spans(
        self,
        clone: ast.Program,
        pointsto: PointsToResult,
        redirect_origins: Set[int],
    ) -> Dict[int, int]:
        const_env = read_only_literal_globals(self.program, self.sema)
        """§3.4: accesses whose every possible target object has the
        same compile-time-constant size can use a literal span."""
        # object -> static size (bytes) in the *transformed* program
        obj_sizes: Dict[Obj, Optional[int]] = {}
        heapified_by_origin = {
            origin_of(decl): hvar
            for decl, hvar in self.result.expansion.heapified.items()
        }
        alloc_by_origin: Dict[int, ast.Call] = {}
        for node in clone.walk():
            if isinstance(node, ast.Call) and node.callee_name in (
                "malloc", "calloc", "realloc"
            ):
                alloc_by_origin[origin_of(node)] = node

        def size_of(obj: Obj) -> Optional[int]:
            if obj in obj_sizes:
                return obj_sizes[obj]
            kind, nid = obj
            size: Optional[int] = None
            if kind == "var":
                hvar = heapified_by_origin.get(nid)
                if hvar is not None and hvar.orig_type.size is not None:
                    size = hvar.orig_type.size
            elif kind == "heap":
                node = alloc_by_origin.get(nid)
                if node is not None:
                    name = node.callee_name
                    if name == "malloc":
                        size = _const_fold(node.args[0], const_env)
                    elif name == "calloc":
                        a = _const_fold(node.args[0], const_env)
                        b = _const_fold(node.args[1], const_env)
                        size = a * b if a is not None and b is not None \
                            else None
                    elif name == "realloc":
                        size = _const_fold(node.args[1], const_env)
            obj_sizes[obj] = size
            return size

        out: Dict[int, int] = {}
        for origin in redirect_origins:
            objs = pointsto.objects_of_access(origin)
            if not objs:
                continue
            sizes = {size_of(o) for o in objs}
            if len(sizes) == 1:
                size = next(iter(sizes))
                if size is not None:
                    out[origin] = size
        return out

    def _plan_loops(
        self,
        clone: ast.Program,
        loops: List[ast.LoopStmt],
        profiles: Dict[str, LoopProfile],
        privs: Dict[str, PrivatizationResult],
    ) -> None:
        clone_loops = {origin_of(lp): lp for lp in ast.iter_loops(clone)}
        for loop in loops:
            new_loop = clone_loops.get(loop.nid)
            if new_loop is None:
                raise TransformError(
                    f"candidate loop {loop.label!r} lost during transform"
                )
            profile = profiles[loop.label]
            priv = privs[loop.label]
            tl = TransformedLoop(
                new_loop, parse_loop_kind(loop), profile, priv
            )
            tl.breakdown = compute_breakdown(profile.ddg, priv)
            tl.serial_stmt_origins = self._serial_stmts(loop, profile, priv)
            if self.commutative:
                tl.certificate = build_certificate(
                    loop.label, profile, priv
                )
            self.result.loops.append(tl)

    def _serial_stmts(
        self,
        loop: ast.LoopStmt,
        profile: LoopProfile,
        priv: PrivatizationResult,
    ) -> Set[int]:
        """Loop-body top-level statements with surviving cross-thread
        dependences (expansion removed the private ones)."""
        surviving_sites: Set[int] = set()
        for edge in profile.ddg.edges:
            if not edge.carried:
                continue
            if edge.src in priv.private_sites and \
                    edge.dst in priv.private_sites:
                continue  # removed by expansion
            surviving_sites.add(edge.src)
            surviving_sites.add(edge.dst)
        body = loop.body
        stmts = body.stmts if isinstance(body, ast.Block) else [body]
        out: Set[int] = set()
        for stmt in stmts:
            nids = {n.nid for n in stmt.walk()}
            if nids & surviving_sites:
                out.add(stmt.nid)
        return out

    # -- commutative merge-back codegen -----------------------------------
    def _insert_merge_back(
        self,
        clone: ast.Program,
        loops: List[ast.LoopStmt],
        privs: Dict[str, PrivatizationResult],
    ) -> int:
        """For every proven reduction accumulator: initialize copies
        1..N-1 to the op's identity immediately before the loop and
        fold them back into copy 0 immediately after it.  Copy 0 keeps
        the pre-loop value (upward exposure) and receives the merged
        total before any post-loop read (downward exposure), so the
        sequential semantics is preserved bit-for-bit — integer update
        ops are associative and commutative modulo 2**w."""
        with_reds = [
            (loop, privs[loop.label].reductions)
            for loop in loops
            if getattr(privs[loop.label], "reductions", None)
        ]
        if not with_reds:
            return 0
        clone_loops = {origin_of(lp): lp for lp in ast.iter_loops(clone)}
        evar_by_origin = {
            origin_of(decl): evar
            for decl, evar in self.result.expansion.expanded_vars.items()
        }
        merges = 0
        for loop, reds in with_reds:
            new_loop = clone_loops.get(loop.nid)
            if new_loop is None:
                raise TransformError(
                    f"candidate loop {loop.label!r} lost during transform"
                )
            pairs = []
            for red in reds.values():
                evar = evar_by_origin.get(red.root_origin)
                if evar is None:
                    raise TransformError(
                        f"commutative accumulator {red.name!r} of loop "
                        f"{loop.label!r} was not expanded"
                    )
                pairs.append((red, evar))
            parent, idx = self._enclosing_block(clone, new_loop)
            init_block = self._copies_loop(pairs, merge=False)
            merge_block = self._copies_loop(pairs, merge=True)
            parent.stmts[idx:idx] = [init_block]
            parent.stmts.insert(idx + 2, merge_block)
            merges += len(pairs)
        return merges

    @staticmethod
    def _enclosing_block(clone: ast.Program, target: ast.Stmt):
        for fn in clone.functions():
            if fn.body is None:
                continue
            for node in fn.body.walk():
                if isinstance(node, ast.Block):
                    for i, stmt in enumerate(node.stmts):
                        if stmt is target:
                            return node, i
        raise TransformError(
            "commutative merge-back: candidate loop has no enclosing "
            "statement block"
        )

    def _fresh_cm(self) -> str:
        name = f"__cm{self._cm_counter}"
        self._cm_counter += 1
        return name

    @staticmethod
    def _count_loop(var: str, start: int, bound: ast.Expr,
                    body: List[ast.Stmt]) -> ast.Block:
        """``{ int var; for (var = start; var < bound; var++) body }``"""
        from ..frontend.ctypes import INT
        decl = ast.VarDecl(var, INT, None, "local")
        loop = ast.For(
            ast.ExprStmt(ast.Assign("=", ast.Ident(var),
                                    ast.IntLit(start))),
            ast.Binary("<", ast.Ident(var), bound),
            ast.Unary("++", ast.Ident(var)),
            ast.Block(body),
        )
        return ast.Block([ast.DeclStmt([decl]), loop])

    @staticmethod
    def _copy_lvalue(red: ReductionInfo, evar, copy: ast.Expr,
                     elem: Optional[ast.Expr] = None) -> ast.Expr:
        """Address copy ``copy`` (element ``elem`` for arrays) of an
        expanded accumulator, matching the layout the expansion stage
        chose for it."""
        base = ast.Ident(evar.decl.name)
        if not red.is_array:
            return ast.Index(base, copy)  # VLA and heapified scalars alike
        if evar.mode == ex.MODE_VLA:
            return ast.Index(ast.Index(base, copy), elem)
        if evar.layout == ex.INTERLEAVED:
            return ast.Index(base, ast.Binary(
                "+", ast.Binary("*", elem, ast.Ident(ex.NTHREADS)), copy
            ))
        return ast.Index(base, ast.Binary(
            "+", ast.Binary("*", copy, ast.IntLit(evar.copy_elems)), elem
        ))

    def _copies_loop(self, pairs, merge: bool) -> ast.Block:
        """One pass over copies 1..N-1 doing identity-init (before the
        loop) or merge-back into copy 0 (after it) for every proven
        accumulator of the loop."""
        cvar = self._fresh_cm()
        body: List[ast.Stmt] = []
        for red, evar in pairs:
            if red.is_array:
                ivar = self._fresh_cm()
                inner = self._elem_stmt(red, evar, cvar, ivar, merge)
                body.append(self._count_loop(
                    ivar, 0, ast.IntLit(red.length), [inner]
                ))
            else:
                body.append(self._elem_stmt(red, evar, cvar, None, merge))
        return self._count_loop(cvar, 1, ast.Ident(ex.NTHREADS), body)

    def _elem_stmt(self, red: ReductionInfo, evar, cvar: str,
                   ivar: Optional[str], merge: bool) -> ast.Stmt:
        def lv(copy: ast.Expr) -> ast.Expr:
            elem = ast.Ident(ivar) if ivar is not None else None
            return self._copy_lvalue(red, evar, copy, elem)

        if not merge:
            return ast.ExprStmt(ast.Assign(
                "=", lv(ast.Ident(cvar)), ast.IntLit(red.identity)
            ))
        if red.group in ("min", "max"):
            rel = "<" if red.group == "min" else ">"
            cond = ast.Binary(rel, lv(ast.Ident(cvar)), lv(ast.IntLit(0)))
            assign = ast.ExprStmt(ast.Assign(
                "=", lv(ast.IntLit(0)), lv(ast.Ident(cvar))
            ))
            return ast.If(cond, ast.Block([assign]))
        op = GROUP_MERGE_OPS[red.group]
        return ast.ExprStmt(ast.Assign(
            op, lv(ast.IntLit(0)), lv(ast.Ident(cvar))
        ))


def expand_for_threads(
    program: ast.Program,
    sema: SemaResult,
    loop_labels: List[str],
    optimize=True,
    expansion_source: str = "static",
    entry: str = "main",
    profiles: Optional[Dict[str, LoopProfile]] = None,
    layout: str = "bonded",
    strict: bool = True,
    sink: Optional[DiagnosticSink] = None,
    tracer=None,
    commutative: bool = True,
    engine: Optional[str] = None,
) -> TransformResult:
    """Transform ``program`` so the labeled loops can run multithreaded.

    ``optimize`` toggles the §3.4 optimizations (selective promotion,
    trivial-span elimination, constant spans); ``False`` reproduces the
    paper's un-optimized configuration from Figure 9a.

    ``expansion_source`` picks how the expansion set is derived:
    ``"static"`` uses the Andersen points-to analysis (the paper's
    approach), ``"profile"`` uses the objects dynamically observed at
    private accesses.

    ``optimize`` also accepts an :class:`OptFlags` for per-optimization
    ablation.  ``layout`` selects bonded (default) or interleaved copy
    placement (Figure 2); interleaved refuses heap-allocated expansion
    targets, reproducing the paper's recasting argument.

    ``strict=False`` turns on graceful degradation: a stage failure on
    one labeled loop quarantines *that loop* (it stays sequential, or
    falls back to runtime privatization when its profile survived) with
    a structured diagnostic in ``result.diagnostics``, while the
    remaining loops still transform.  ``sink`` collects diagnostics
    across calls when provided.

    ``tracer`` (a :class:`repro.obs.Tracer`) records per-stage phase
    spans and the transform metrics; omit it for zero-overhead
    operation.

    ``commutative`` enables the static commutativity prover
    (:mod:`repro.analysis.commutative`): loop-carried reductions whose
    updates are provably commutative are upgraded to the commutative
    access class, expanded per worker, and merged back at loop exit,
    with a parallelism certificate on each
    :class:`TransformedLoop`.

    ``engine`` is the interpreter tier the dependence profile runs on
    (every tier yields the same profile; the bare and native tiers are
    promoted to instrumented bytecode, which observers need).
    """
    pipeline = ExpansionPipeline(
        program, sema, loop_labels, optimize=optimize,
        expansion_source=expansion_source, entry=entry, profiles=profiles,
        layout=layout, strict=strict, sink=sink, tracer=tracer,
        commutative=commutative, engine=engine,
    )
    return pipeline.run()


def record_transform_metrics(result: TransformResult, tracer) -> None:
    """Publish the transform counters the paper reports (§3.4
    effectiveness, Table 5) into the tracer's metrics registry.

    A module-level function (not just a pipeline method) so a cached
    :class:`TransformResult` served without re-running the pipeline
    still populates the same metrics."""
    if not tracer:
        return
    metrics = tracer.metrics
    stats = result.redirect_stats
    if stats is not None:
        metrics.set("transform.redirected_accesses", stats.redirected)
        metrics.set("transform.constant_span_redirects",
                    stats.constant_span)
        metrics.set("transform.dynamic_span_redirects",
                    stats.dynamic_span)
        metrics.set("transform.hoisted_redirects", stats.hoisted)
    promoter = result.promoter
    if promoter is not None:
        metrics.set("transform.fat_pointer_types",
                    promoter.num_fat_types)
        metrics.set("transform.span_stores_inserted",
                    promoter.span_stores_inserted)
        metrics.set("transform.span_stores_eliminated",
                    promoter.span_stores_eliminated)
    metrics.set("transform.span_stores_dead_eliminated",
                result.span_stores_dead_eliminated)
    metrics.set("transform.structures_expanded",
                result.expansion.num_expanded)
    metrics.set("transform.scalars_expanded",
                result.expansion.num_scalars)
    metrics.set("transform.expansion_bytes_per_thread", sum(
        ev.orig_type.size or 0
        for ev in result.expansion.expanded_vars.values()
    ))
    metrics.set("transform.private_sites", len(result.private_sites))
    metrics.set("transform.quarantined_loops", len(result.quarantined))
    metrics.set("transform.commutative_sites",
                len(getattr(result, "commutative_sites", ()) or ()))
    metrics.set("transform.commutative_classes", sum(
        len(tl.priv.commutative_classes())
        for tl in result.loops
        if hasattr(tl.priv, "commutative_classes")
    ))
    metrics.set("transform.reduction_merges",
                getattr(result, "reduction_merges", 0))
