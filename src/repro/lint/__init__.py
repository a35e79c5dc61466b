"""Static lint engine over the transformed IR.

The expansion pipeline's output is executable, and the runtime layers
(race checker, fault injectors) police it *dynamically* — but a
miscompilation should not need a lucky interleaving to surface.  This
package is the one checker of the transformed IR: it re-checks the
paper's structural contracts purely statically, on the transformed
AST, using the CFG/dataflow framework (:mod:`repro.analysis.cfg`,
:mod:`repro.analysis.dataflow`) and the points-to facts the pipeline
already computed:

* :mod:`repro.lint.rules` — span discipline (Table 3), expansion
  scaling (Table 1), fat-pointer layout (Figure 4), the shape of
  candidate loops, expanded variables and ``__expand_init``,
  uninitialized reads, and re-analysis of the whole output;
* :mod:`repro.lint.races` — the privatization race auditor: copy-index
  well-formedness of every ``__tid`` occurrence, tid-copy resolution of
  every private store, and the §3.2 access-class invariant re-checked
  on the output IR;
* :mod:`repro.lint.mutate` — deterministic IR mutations mirroring the
  runtime fault injectors (:class:`repro.runtime.faults.SpanCorruptor`,
  :class:`~repro.runtime.faults.CopyIndexSkew`), used by the test suite
  to prove the auditor catches statically what the runtime catches
  dynamically.

Findings are ordinary :class:`repro.diagnostics.Diagnostic`\\ s with
stable ``LINT-*`` codes, loop attribution, and source locations, so the
CLI, CI and tests consume them exactly like pipeline diagnostics.

Usage::

    result = expand_for_threads(program, sema, ["L"])
    report = run_lint(result)
    for d in report.findings:
        print(d.render())
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..diagnostics import Diagnostic, DiagnosticSink
from ..frontend import ast
from ..obs import ensure_tracer


class LintRule:
    """One registered check: a stable code plus a callable
    ``fn(ctx)`` that emits findings through the context."""

    __slots__ = ("code", "title", "fn")

    def __init__(self, code: str, title: str, fn: Callable):
        self.code = code
        self.title = title
        self.fn = fn


#: registration order is execution (and documentation) order
_RULES: "Dict[str, LintRule]" = {}


def rule(code: str, title: str):
    """Decorator registering a lint rule under ``code``."""

    def register(fn: Callable) -> Callable:
        if code in _RULES:
            raise ValueError(f"duplicate lint rule {code!r}")
        _RULES[code] = LintRule(code, title, fn)
        return fn

    return register


def all_rules() -> List[LintRule]:
    """Every registered rule, in registration order."""
    # imports populate the registry
    from . import certify, races, rules  # noqa: F401

    return list(_RULES.values())


class LintContext:
    """Everything a rule may consult, plus the emission helpers.

    Wraps one :class:`repro.transform.pipeline.TransformResult`; rules
    read the transformed program/sema/points-to facts from here and
    report through :meth:`finding` so attribution (loop label, source
    location) is uniform.
    """

    def __init__(self, result, sink: Optional[DiagnosticSink] = None,
                 tracer=None):
        self.result = result
        self.program = result.program
        self.sema = result.sema
        self.promoter = result.promoter
        self.pointsto = result.pointsto
        self.sink = sink if sink is not None else DiagnosticSink()
        self.tracer = ensure_tracer(tracer)
        self.findings: List[Diagnostic] = []
        #: side-channel counters rules publish into lint metrics
        self.stats: Dict[str, int] = {}
        #: per-loop parallelism-certificate verdicts published by
        #: LINT-CERT (:mod:`repro.lint.certify`)
        self.certificates: List[Dict[str, object]] = []
        self._loop_of_nid: Optional[Dict[int, str]] = None

    # -- attribution --------------------------------------------------------
    def loop_of(self, node: ast.Node) -> Optional[str]:
        """Label of the candidate loop containing ``node``, if any."""
        if self._loop_of_nid is None:
            index: Dict[int, str] = {}
            for tl in self.result.loops:
                label = tl.loop.label
                for sub in tl.loop.walk():
                    index[sub.nid] = label
            self._loop_of_nid = index
        return self._loop_of_nid.get(node.nid)

    # -- emission -----------------------------------------------------------
    def finding(self, code: str, severity: str, message: str,
                node: Optional[ast.Node] = None,
                loop: Optional[str] = None, **data) -> Diagnostic:
        if node is not None:
            loop = loop or self.loop_of(node)
        loc = getattr(node, "loc", None) if node is not None else None
        if loc == (0, 0):
            loc = None  # compiler-introduced node: no source position
        diag = Diagnostic(code, severity, message, loop=loop, loc=loc,
                          phase="lint", data=data or None)
        self.findings.append(diag)
        return self.sink.emit(diag)


class LintReport:
    """Outcome of one :func:`run_lint` invocation."""

    def __init__(self, findings: List[Diagnostic], rules_run: int,
                 stats: Dict[str, int],
                 certificates: Optional[List[Dict[str, object]]] = None):
        self.findings = findings
        self.rules_run = rules_run
        self.stats = stats
        #: parallelism-certificate verdicts ({loop, schema, reductions,
        #: verdict}) from the LINT-CERT pass
        self.certificates = list(certificates or [])

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_code(self, prefix: str) -> List[Diagnostic]:
        return [d for d in self.findings
                if d.code == prefix or d.code.startswith(prefix)]

    def render(self) -> str:
        lines = [d.render() for d in self.findings]
        lines.append(
            f"[lint: {self.rules_run} rules, "
            f"{len(self.findings)} finding(s)]"
        )
        return "\n".join(lines)


def run_lint(result, sink: Optional[DiagnosticSink] = None, tracer=None,
             codes: Optional[List[str]] = None) -> LintReport:
    """Run every registered rule (or the subset named by ``codes``)
    over a :class:`~repro.transform.pipeline.TransformResult`.

    Findings accumulate in ``sink`` (one is created when omitted) and
    in the returned report.  With a real tracer, records the
    ``lint.rules_run`` / ``lint.findings`` /
    ``lint.span_stores_proved_dead`` metrics and a per-rule phase span.
    """
    ctx = LintContext(result, sink=sink, tracer=tracer)
    selected = all_rules()
    if codes is not None:
        wanted = set(codes)
        selected = [r for r in selected if r.code in wanted]
        unknown = wanted - {r.code for r in selected}
        if unknown:
            raise KeyError(f"unknown lint rule(s): {sorted(unknown)}")
    if result.program is None:
        ctx.finding("LINT-NO-PROGRAM", "error",
                    "transform produced no program to lint")
        return LintReport(ctx.findings, 0, ctx.stats)
    for lint_rule in selected:
        with ctx.tracer.phase(f"lint:{lint_rule.code}", cat="lint"):
            lint_rule.fn(ctx)
    if ctx.tracer:
        metrics = ctx.tracer.metrics
        metrics.set("lint.rules_run", len(selected))
        metrics.set("lint.findings", len(ctx.findings))
        metrics.set("lint.span_stores_proved_dead",
                    ctx.stats.get("span_stores_proved_dead", 0))
        metrics.set("lint.certificates_verified", sum(
            1 for c in ctx.certificates if c["verdict"] == "verified"
        ))
    return LintReport(ctx.findings, len(selected), ctx.stats,
                      ctx.certificates)


__all__ = [
    "LintContext", "LintReport", "LintRule", "all_rules", "rule",
    "run_lint",
]
