"""Compare two ``run.py --out`` files against the bounds of BENCHMARK.json.

    python3 perfbench/compare.py A.json B.json

One row per workload x end-to-end metric: both values, both in-run
spreads where the metric has one, the change from A to B in the worse
direction, and a verdict.  ``regression``: B is worse than A by more than
the metric's bound.  ``unresolved``: the change is within the bound but a
run's own spread is wider than the bound, so "no change" cannot be read
from it.  The per-layer counts that repeat exactly for a seed follow, one
row each where the two files differ (``changed``: never noise, so it has
to be explained).  Exits 1 on any regression, any changed count, or when
a run was not correct.
"""

import json
import sys

from metrics import SPEC

#: per-layer metrics that are counts of a deterministic program, not times
EXACT = ("model.", "transform.num_", "transform.span_", "transform.expanded_",
         "frontend.source_bytes", "interp.modeled_cycles",
         "interp.native.cc_invocations_per_job", "service.cache.hit_share",
         "service.pool.", "service.leaked_", "runtime.mc_",
         "runtime.worker_tasks", "runtime.native_", "runtime.token_waits")


def worsening(metric, a, b):
    """By what share of ``a`` the value got worse going to ``b``."""
    change = (b - a) / a
    return change if metric["better"] == "lower" else -change


def compare(spec, doc_a, doc_b, out=sys.stdout):
    regressions = 0
    print(f"{'workload':<13}{'metric':<16}{'A':>12}{'B':>12}{'worse by':>10}"
          f"{'bound':>7}{'spread A':>10}{'spread B':>10}  verdict", file=out)
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [doc["workloads"].get(workload, {}).get("end_to_end")
                for doc in (doc_a, doc_b)]
        if None in runs:
            print(f"{workload:<13}missing from a file", file=out)
            regressions += 1
            continue
        for run in runs:
            if not run["result"]["correct"]:
                print(f"{workload:<13}a run was not correct "
                      f"({run['result']['failed']} jobs failed)", file=out)
                regressions += 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = (run["result"]["metrics"][name]["value"] for run in runs)
            spreads = [run["spreads"].get(name) for run in runs]
            worse = worsening(metric, a, b)
            if worse > bound:
                verdict = "regression"
                regressions += 1
            elif any(s is not None and s > bound for s in spreads):
                verdict = "unresolved"
            else:
                verdict = "ok"
            shown = "".join(f"{s:>10.4f}" if s is not None else f"{'-':>10}"
                            for s in spreads)
            print(f"{workload:<13}{name:<16}{a:>12.4f}{b:>12.4f}"
                  f"{worse:>+10.4f}{bound:>7.2f}{shown}  {verdict}",
                  file=out)
        traces = [doc["workloads"][workload].get("trace") for doc in
                  (doc_a, doc_b)]
        if None in traces:
            continue
        for metric in spec["per_layer"]:
            name = metric["name"]
            if not name.startswith(EXACT):
                continue
            a, b = (t["result"]["metrics"][name]["value"] for t in traces)
            if a != b:
                print(f"{workload:<13}{name} {a!r} -> {b!r}  changed",
                      file=out)
                regressions += 1
    return regressions


def main(argv=None):
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in paths:
        with open(path) as fh:
            docs.append(json.load(fh))
    return 1 if compare(SPEC, *docs) else 0


if __name__ == "__main__":
    sys.exit(main())
