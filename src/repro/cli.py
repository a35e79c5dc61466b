"""Command-line interface: ``python -m repro <command> file.c``.

Commands mirror the library's workflow so the toolchain is usable
without writing Python:

* ``run``      — interpret a MiniC program sequentially
* ``profile``  — profile a candidate loop; print the programmer-
  verification report (optionally save the graph as JSON)
* ``expand``   — run the expansion pipeline; print the transformed
  source and a summary
* ``parallel`` — expand + run on N simulated threads; print speedups
* ``lint``     — expand, then statically audit the transformed IR
  (span discipline, allocation scaling, privatization races); findings
  are structured ``LINT-*`` diagnostics
* ``bench``    — run one benchmark (or ``all``) through the harness
  and print the paper-figure report

Every subcommand accepts ``--trace out.json`` (Chrome trace-event
JSON: compile-phase spans + per-thread runtime timeline + metrics,
viewable in chrome://tracing or Perfetto) and ``--trace-summary``
(human-readable phase/event/metric tables on stderr).

The §3.4 optimizations are individually addressable: ``--no-opt-NAME``
disables one (``selective-promotion``, ``trivial-span-elim``,
``constant-spans``, ``hoisting``, ``licm``) and ``--opt NAME``
re-enables one.

Examples::

    python -m repro run program.c
    python -m repro profile program.c --loop L --save-ddg graph.json
    python -m repro expand program.c --loop L --no-opt-constant-spans
    python -m repro parallel program.c --loop L --threads 8 --trace t.json
    python -m repro parallel program.c --loop L --backend process --workers 4
    python -m repro lint program.c --fail-on-warning
    python -m repro lint --bench all --fail-on-warning
    python -m repro bench dijkstra
    python -m repro bench all --backend process --workers 4
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

#: §3.4 optimization names as CLI flags (dashes) — field names in
#: :class:`repro.transform.OptFlags` use underscores
OPT_NAMES = (
    "selective-promotion", "trivial-span-elim", "constant-spans",
    "hoisting", "licm",
)


def _load(path: str, tracer=None):
    from .frontend import parse_and_analyze

    with open(path) as fh:
        source = fh.read()
    return parse_and_analyze(source, tracer=tracer)


def _resolve_engine_cli(args) -> str:
    """Resolve ``--engine`` / ``$REPRO_ENGINE`` up front with CLI
    diagnostics instead of a mid-run traceback.

    argparse already refuses unknown ``--engine`` values (and its
    error lists the valid engines), so the failure mode left is a
    bogus environment variable — refuse it with a structured
    ``CLI-ENGINE`` error.  A ``native`` request on a host that cannot
    compile/load the tier degrades to ``bytecode`` with an
    explicit ``NL-UNAVAILABLE`` warning: loud, never silent.
    """
    from .interp import ENGINE_ENV, resolve_engine

    try:
        eng = resolve_engine(getattr(args, "engine", None))
    except ValueError as exc:
        print(f"error[CLI-ENGINE]: {exc} (check --engine / ${ENGINE_ENV})",
              file=sys.stderr)
        raise SystemExit(2)
    if eng == "native":
        from .interp.native import native_backend_available

        ok, why = native_backend_available()
        if not ok:
            print(f"warning[NL-UNAVAILABLE]: native tier unavailable "
                  f"({why}); falling back to bytecode",
                  file=sys.stderr)
            eng = "bytecode"
    return eng


# -- observability plumbing -------------------------------------------------

def _make_tracer(args):
    """A real tracer when the user asked for any trace output, the
    no-op singleton otherwise."""
    from .obs import NULL_TRACER, Tracer

    if getattr(args, "trace", None) or getattr(args, "trace_summary",
                                               False):
        return Tracer()
    return NULL_TRACER


def _finish_trace(args, tracer) -> None:
    if not tracer:
        return
    from .obs import trace_summary, write_chrome_trace

    if args.trace:
        write_chrome_trace(tracer, args.trace)
        print(f"[trace written to {args.trace}]", file=sys.stderr)
    if args.trace_summary:
        print(trace_summary(tracer), file=sys.stderr)


def _opt_flags(args):
    """Build :class:`OptFlags` from the granular CLI switches."""
    from .transform import OptFlags

    enabled = {name.replace("-", "_") for name in args.opt}
    kwargs = {}
    for name in OPT_NAMES:
        field = name.replace("-", "_")
        kwargs[field] = (not getattr(args, f"no_opt_{field}")
                         or field in enabled)
    return OptFlags(**kwargs)


# -- subcommands ------------------------------------------------------------

def _cmd_run(args) -> int:
    from .interp import Machine

    tracer = _make_tracer(args)
    eng = _resolve_engine_cli(args)
    try:
        program, sema = _load(args.file, tracer=tracer)
        machine = Machine(program, sema, engine=eng)
        with tracer.phase("run", cat="runtime"):
            code = machine.run(args.entry)
    finally:
        _finish_trace(args, tracer)
    for line in machine.output:
        print(line)
    print(
        f"[exit {code}; {machine.cost.cycles:,.0f} cycles, "
        f"{machine.cost.instructions:,} instructions, "
        f"{machine.memory.peak_footprint():,} bytes peak]",
        file=sys.stderr,
    )
    return code


def _cmd_profile(args) -> int:
    from .analysis import profile_loop
    from .analysis.ddg_io import save_profile, verification_report
    from .frontend import ast

    from .diagnostics import DiagnosticSink

    tracer = _make_tracer(args)
    eng = _resolve_engine_cli(args)
    sink = DiagnosticSink()
    try:
        program, sema = _load(args.file, tracer=tracer)
        loop = ast.find_loop(program, args.loop)
        with tracer.phase("profile", loop=args.loop):
            profile = profile_loop(program, sema, loop, entry=args.entry,
                                   engine=eng, sink=sink)
    finally:
        _finish_trace(args, tracer)
    _render_diagnostics(sink)
    print(verification_report(program, profile))
    if args.save_ddg:
        save_profile(profile, args.save_ddg)
        print(f"\n[dependence graph saved to {args.save_ddg}]",
              file=sys.stderr)
    return 0


def _render_diagnostics(sink) -> None:
    """Print accumulated structured diagnostics to stderr."""
    for diag in sink:
        print(diag.render(), file=sys.stderr)


def _transform(args, sink=None, tracer=None):
    from .frontend import ast
    from .transform import expand_for_threads

    program, sema = _load(args.file, tracer=tracer)
    for label in args.loop:
        try:
            ast.find_loop(program, label)
        except KeyError:
            if args.strict:
                print(f"error[PIPE-NO-LOOP]: no loop labeled {label!r} "
                      f"in {args.file}", file=sys.stderr)
                raise SystemExit(1)
    result = expand_for_threads(
        program, sema, args.loop,
        optimize=_opt_flags(args),
        layout=args.layout,
        entry=args.entry,
        strict=args.strict,
        sink=sink,
        tracer=tracer,
        commutative=not getattr(args, "no_commutative", False),
    )
    return result


def _cmd_expand(args) -> int:
    from .diagnostics import DiagnosticSink
    from .frontend import print_program

    sink = DiagnosticSink()
    tracer = _make_tracer(args)
    try:
        result = _transform(args, sink=sink, tracer=tracer)
    finally:
        _finish_trace(args, tracer)
    print(print_program(result.program))
    _render_diagnostics(sink)
    stats = result.redirect_stats
    print(
        f"[{result.num_privatized} structures + "
        f"{result.expansion.num_scalars} scalars expanded; "
        f"{stats.redirected} dereferences redirected "
        f"({stats.constant_span} constant-span, "
        f"{stats.dynamic_span} dynamic-span); "
        f"{len(result.private_sites)} private sites "
        f"({len(result.commutative_sites)} commutative, "
        f"{result.reduction_merges} reductions merged); "
        f"{len(result.quarantined)} loops quarantined]",
        file=sys.stderr,
    )
    return 0


def _cmd_parallel(args) -> int:
    from .diagnostics import DiagnosticSink
    from .service import (
        CompileOptions, Job, StageCache, StagedCompiler, run_job,
    )

    sink = DiagnosticSink()
    tracer = _make_tracer(args)
    eng = _resolve_engine_cli(args)
    with open(args.file) as fh:
        source = fh.read()
    job = Job(
        source, args.loop,
        CompileOptions.make(
            _opt_flags(args), layout=args.layout, entry=args.entry,
            strict=args.strict, engine=eng,
            commutative=not args.no_commutative,
        ),
        nthreads=args.threads, chunk=args.chunk, watchdog=args.watchdog,
        backend=args.backend, workers=args.workers,
    )
    mc = {name: getattr(args, name)
          for name in ("max_restarts", "retry_budget")
          if getattr(args, name) is not None}
    injectors = None
    if args.chaos:
        from .runtime import parse_chaos_spec
        injectors = [parse_chaos_spec(spec, seed=i)
                     for i, spec in enumerate(args.chaos)]
    # --cache DIR: every stage is probed from / published to the cache
    cache = StageCache(root=args.cache, sink=sink) if args.cache else None
    try:
        try:
            compiled = StagedCompiler(
                cache=cache, tracer=tracer, sink=sink,
            ).compile(job)
        except KeyError as exc:
            print(f"error[PIPE-NO-LOOP]: {exc.args[0]} in {args.file}",
                  file=sys.stderr)
            return 1
        jo = run_job(compiled, tracer=tracer, sink=sink,
                     mc=mc or None, fault_injectors=injectors)
    finally:
        _finish_trace(args, tracer)
    for line in jo.output:
        print(line)
    _render_diagnostics(sink)
    status = []
    if compiled.result.quarantined:
        status.append(f"quarantined {len(compiled.result.quarantined)}")
    if jo.parallel.recoveries:
        status.append(f"recovered {len(jo.parallel.recoveries)}")
    cached = ""
    if cache is not None:
        cached = f"; stage cache {compiled.hits}/{compiled.stage_count}"
    print(
        f"[{args.threads} threads: output "
        f"{'VERIFIED' if jo.verified else 'DIVERGED!'}; "
        f"loop speedup {jo.loop_speedup:.2f}x; "
        f"total speedup {jo.total_speedup:.2f}x; "
        f"races {jo.races}"
        f"{'; ' + ', '.join(status) if status else ''}{cached}]",
        file=sys.stderr,
    )
    return 0 if jo.verified else 1


def _cmd_serve(args) -> int:
    from .service import ExpansionService

    # cache_root=None → the default cache dir; False → memory-only
    cache_root = False if args.no_cache else args.cache_dir
    service = ExpansionService(args.socket, cache_root=cache_root,
                               max_sessions=args.max_sessions)
    cache_desc = ("disabled" if args.no_cache
                  else args.cache_dir or "default")
    print(f"[repro serve: listening on {args.socket}; "
          f"disk cache {cache_desc}; "
          f"pool {args.max_sessions} sessions]",
          file=sys.stderr)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        service.close()
    return 0


def _discover_loops(program) -> List[str]:
    """Labels of every ``#pragma expand``-marked candidate loop."""
    from .frontend import ast

    return [
        loop.label for loop in ast.iter_loops(program)
        if loop.label and loop.pragmas
    ]


def _lint_one(title, program, sema, labels, args, sink, tracer) -> "object":
    from .lint import run_lint
    from .transform import expand_for_threads

    result = expand_for_threads(
        program, sema, labels,
        optimize=_opt_flags(args),
        layout=args.layout,
        entry=getattr(args, "entry", "main"),
        strict=args.strict,
        sink=sink,
        tracer=tracer,
        commutative=not getattr(args, "no_commutative", False),
    )
    report = run_lint(result, sink=sink, tracer=tracer,
                      codes=args.rule or None)
    for diag in report.findings:
        print(diag.render())
    print(
        f"[{title}: {report.rules_run} rules, "
        f"{len(report.findings)} finding(s)]",
        file=sys.stderr,
    )
    return report


def _diag_dict(diag) -> dict:
    """JSON shape of one finding (Diagnostic has no to_dict)."""
    return {
        "code": diag.code,
        "severity": diag.severity,
        "message": diag.message,
        "loop": diag.loop,
        "loc": list(diag.loc) if diag.loc else None,
        "phase": diag.phase,
        "data": diag.data,
    }


def _lint_json(reports) -> dict:
    """Machine-readable report of a whole ``repro lint`` invocation."""
    return {
        "reports": [
            {
                "title": title,
                "rules_run": report.rules_run,
                "clean": report.clean,
                "findings": [_diag_dict(d) for d in report.findings],
                "certificates": report.certificates,
            }
            for title, report in reports
        ],
        "findings": sum(len(r.findings) for _t, r in reports),
    }


def _cmd_lint(args) -> int:
    from .diagnostics import DiagnosticSink, severity_rank

    if bool(args.file) == bool(args.bench):
        print("error: lint needs a source file or --bench NAME|all "
              "(not both)", file=sys.stderr)
        return 2
    sink = DiagnosticSink()
    tracer = _make_tracer(args)
    reports = []
    try:
        if args.bench:
            from .bench import all_benchmarks, get

            names = [s.name for s in all_benchmarks()] \
                if args.bench == "all" else [args.bench]
            from .frontend import parse_and_analyze

            for name in names:
                spec = get(name)
                program, sema = parse_and_analyze(spec.source,
                                                  tracer=tracer)
                reports.append((name, _lint_one(
                    name, program, sema, spec.loop_labels, args, sink,
                    tracer,
                )))
        else:
            program, sema = _load(args.file, tracer=tracer)
            labels = args.loop or _discover_loops(program)
            if not labels:
                print("error[PIPE-NO-LOOP]: no labeled "
                      f"#pragma expand loop in {args.file}",
                      file=sys.stderr)
                return 1
            reports.append((args.file, _lint_one(
                args.file, program, sema, labels, args, sink, tracer,
            )))
    finally:
        _finish_trace(args, tracer)
    if args.json is not None:
        import json

        payload = json.dumps(_lint_json(reports), indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload + "\n")
            print(f"[lint report written to {args.json}]",
                  file=sys.stderr)
    findings = [d for _t, r in reports for d in r.findings]
    has_errors = any(
        severity_rank(d.severity) >= severity_rank("error")
        for d in findings
    )
    if has_errors or (args.fail_on_warning and findings):
        return 1
    return 0


def _cmd_bench(args) -> int:
    # engine first: importing .bench constructs a default Harness,
    # which resolves $REPRO_ENGINE — a bogus value must surface as a
    # structured CLI error, not an import-time traceback
    eng = _resolve_engine_cli(args)

    from .bench import Harness, all_benchmarks
    from .bench.report import full_report

    names = [s.name for s in all_benchmarks()] if args.name == "all" \
        else [args.name]
    tracer = _make_tracer(args)
    harness = Harness(tracer=tracer, engine=eng,
                      backend=args.backend, workers=args.workers)
    results = {}
    try:
        for name in names:
            print(f"measuring {name} ...", file=sys.stderr)
            results[name] = harness.result(name)
    finally:
        _finish_trace(args, tracer)
    print(full_report(results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="General data structure expansion for multi-threading "
                    "(PLDI 2013) — reproduction toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace(p):
        p.add_argument(
            "--trace", metavar="PATH", default=None,
            help="write Chrome trace-event JSON (phase spans + runtime "
                 "timeline + metrics) to PATH",
        )
        p.add_argument(
            "--trace-summary", action="store_true",
            help="print aggregated phase/event/metric tables to stderr",
        )

    def add_engine(p):
        from .interp import ENGINE_ENV, ENGINES

        p.add_argument(
            "--engine", choices=ENGINES, default=None,
            help="execution tier: one of %s (default: $%s, else 'ast'); "
                 "'bytecode' matches 'ast' observation-for-observation, "
                 "'native' compiles analyzed loops to C and runs them "
                 "at hardware speed (needs a C compiler; degrades to "
                 "bytecode with a warning when unavailable)"
                 % (", ".join(ENGINES), ENGINE_ENV),
        )

    def add_backend(p):
        p.add_argument(
            "--backend", choices=("simulated", "process"),
            default="simulated",
            help="parallel execution backend: 'simulated' models the "
                 "threads on the cost model; 'process' additionally "
                 "executes eligible loops on real worker processes over "
                 "OS shared memory (bit-identical results, real "
                 "wall-clock parallelism)",
        )
        p.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="process-backend worker pool size (default: the "
                 "thread count)",
        )
        p.add_argument(
            "--max-restarts", type=int, default=None, metavar="N",
            help="process-backend supervision: dead-worker respawns "
                 "allowed per session before the pool shrinks/degrades "
                 "(default 3)",
        )
        p.add_argument(
            "--retry-budget", type=int, default=None, metavar="N",
            help="process-backend supervision: re-dispatches allowed "
                 "per task before degrading to the simulated backend "
                 "(default 2)",
        )
        p.add_argument(
            "--chaos", action="append", default=None, metavar="SPEC",
            help="process-backend chaos injection (repeatable): "
                 "kill[:task=I,after-iter=K], stall[:task=I,hold=S], "
                 "drop[:rate=R,ks=K1+K2], delay[:seconds=S] — "
                 "deterministic, seeded by position",
        )

    def add_common(p, needs_loop=False):
        p.add_argument("file", help="MiniC source file")
        p.add_argument("--entry", default="main")
        if needs_loop:
            p.add_argument(
                "--loop", action="append", required=True,
                help="candidate loop label (repeatable)",
            )
        add_trace(p)

    p_run = sub.add_parser("run", help="interpret a program sequentially")
    add_common(p_run)
    add_engine(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_prof = sub.add_parser("profile", help="profile a candidate loop")
    p_prof.add_argument("file")
    p_prof.add_argument("--entry", default="main")
    p_prof.add_argument("--loop", required=True)
    p_prof.add_argument("--save-ddg", metavar="PATH")
    add_trace(p_prof)
    add_engine(p_prof)
    p_prof.set_defaults(func=_cmd_profile)

    for name, fn, help_text in (
        ("expand", _cmd_expand, "print the transformed program"),
        ("parallel", _cmd_parallel, "expand and run on N threads"),
        ("lint", _cmd_lint, "statically audit the transformed IR"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "lint":
            p.add_argument("file", nargs="?", default=None,
                           help="MiniC source file (or use --bench)")
            p.add_argument("--entry", default="main")
            p.add_argument(
                "--loop", action="append", default=None,
                help="candidate loop label (default: every labeled "
                     "#pragma expand loop)",
            )
            p.add_argument(
                "--bench", metavar="NAME", default=None,
                help="lint a registered benchmark kernel, or 'all'",
            )
            p.add_argument(
                "--fail-on-warning", action="store_true",
                help="exit nonzero on any finding, not just errors",
            )
            p.add_argument(
                "--rule", action="append", default=[], metavar="CODE",
                help="run only the named LINT-* rule (repeatable)",
            )
            p.add_argument(
                "--json", nargs="?", const="-", default=None,
                metavar="PATH",
                help="emit a machine-readable report (findings, rule "
                     "ids, certificate verdicts) to PATH, or stdout "
                     "when PATH is omitted",
            )
            add_trace(p)
        else:
            add_common(p, needs_loop=True)
        for opt in OPT_NAMES:
            p.add_argument(f"--no-opt-{opt}", action="store_true",
                           help=f"disable the {opt.replace('-', ' ')} "
                                "optimization")
        p.add_argument("--opt", action="append", default=[],
                       choices=OPT_NAMES, metavar="NAME",
                       help="re-enable one optimization (wins over "
                            "its --no-opt-NAME)")
        p.add_argument("--layout", choices=("bonded", "interleaved",
                                            "adaptive"),
                       default="bonded")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument(
            "--strict", dest="strict", action="store_true", default=True,
            help="fail fast on any pipeline/runtime failure (default)",
        )
        mode.add_argument(
            "--permissive", dest="strict", action="store_false",
            help="degrade gracefully: quarantine failing loops, recover "
                 "races/faults by sequential re-execution",
        )
        p.add_argument(
            "--no-commutative", action="store_true",
            help="disable the static commutativity prover (proven "
                 "reductions stay in their Definition-5 class)",
        )
        if name == "parallel":
            add_engine(p)
            add_backend(p)
            p.add_argument("--threads", "-n", type=int, default=4)
            p.add_argument("--chunk", type=int, default=1,
                           help="DOACROSS scheduling chunk size")
            p.add_argument(
                "--watchdog", type=int, default=None, metavar="STEPS",
                help="per-loop-execution statement budget (structured "
                     "timeout instead of a hang)",
            )
            p.add_argument(
                "--cache", metavar="DIR", default=None,
                help="compile through the staged pipeline with a "
                     "persistent stage cache rooted at DIR (repeat a "
                     "run to hit every stage)",
            )
        p.set_defaults(func=fn)

    p_serve = sub.add_parser(
        "serve",
        help="resident expansion service: compile-once/serve-many "
             "daemon on a Unix socket (line-delimited JSON)",
    )
    p_serve.add_argument(
        "--socket", required=True, metavar="PATH",
        help="Unix socket path to listen on",
    )
    p_serve.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="stage-cache root (default: $REPRO_CACHE_DIR, else "
             "$XDG_CACHE_HOME/repro, else ~/.cache/repro)",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk stage cache (memory tier only)",
    )
    p_serve.add_argument(
        "--max-sessions", type=int, default=4, metavar="N",
        help="warm process-backend sessions to keep pooled (a "
             "session serves any program; only concurrent clients "
             "need more than one)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_bench = sub.add_parser("bench", help="run benchmark(s)")
    p_bench.add_argument("name", help="benchmark name or 'all'")
    add_trace(p_bench)
    add_engine(p_bench)
    add_backend(p_bench)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .diagnostics import DiagnosableError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DiagnosableError as exc:
        # strict-mode fail-fast: render the structured diagnostic
        # instead of dumping a traceback on the user
        print(exc.diagnostic.render(), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
