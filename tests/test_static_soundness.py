"""Soundness property: the static DDG over-approximates the profiled DDG.

The paper's §4.1 argument — static dependence analysis is too
conservative to parallelize these loops — is only honest if the static
graph never *under*-approximates: every dependence the profiler can
observe at runtime must have a static counterpart.  This suite checks
that property on every benchmark kernel:

* every profiled access site is a static site (and keeps its
  store/load role);
* every profiled dependence edge (src, dst, kind, carried) is a static
  edge — an exact directed superset, not merely unordered overlap;
* every profiled upward/downward-exposed site is statically exposed.
"""

import pytest

from repro.analysis import build_static_ddg
from repro.analysis.profiler import profile_loop
from repro.bench import all_benchmarks
from repro.frontend import ast, parse_and_analyze

KERNELS = [
    (spec, label)
    for spec in all_benchmarks()
    for label in spec.loop_labels
]


@pytest.fixture(scope="module")
def ddg_pairs():
    """(profiled DDG, static DDG) per kernel loop, computed once."""
    out = {}
    for spec, label in KERNELS:
        program, sema = parse_and_analyze(spec.source)
        loop = ast.find_loop(program, label)
        profile = profile_loop(program, sema, loop)
        static = build_static_ddg(program, sema, loop)
        out[(spec.name, label)] = (profile.ddg, static)
    return out


@pytest.mark.parametrize(
    "name,label", [(s.name, lb) for s, lb in KERNELS],
    ids=[f"{s.name}-{lb}" for s, lb in KERNELS],
)
def test_sites_superset(ddg_pairs, name, label):
    profiled, static = ddg_pairs[(name, label)]
    assert profiled.sites <= static.sites
    assert profiled.store_sites <= static.store_sites
    assert profiled.load_sites <= static.load_sites


@pytest.mark.parametrize(
    "name,label", [(s.name, lb) for s, lb in KERNELS],
    ids=[f"{s.name}-{lb}" for s, lb in KERNELS],
)
def test_edges_superset(ddg_pairs, name, label):
    profiled, static = ddg_pairs[(name, label)]
    missing = sorted(e for e in profiled.edges if e not in static.edges)
    assert not missing, (
        f"profiled dependences with no static counterpart: {missing[:10]}"
    )


@pytest.mark.parametrize(
    "name,label", [(s.name, lb) for s, lb in KERNELS],
    ids=[f"{s.name}-{lb}" for s, lb in KERNELS],
)
def test_exposure_superset(ddg_pairs, name, label):
    profiled, static = ddg_pairs[(name, label)]
    assert profiled.upward_exposed <= static.upward_exposed
    assert profiled.downward_exposed <= static.downward_exposed


def test_static_still_more_conservative():
    """The over-approximation is not vacuous the other way: the static
    graph carries strictly more dependence edges than the profile on at
    least one kernel (the paper's motivation for profiling)."""
    spec = next(s for s in all_benchmarks() if s.name == "dijkstra")
    program, sema = parse_and_analyze(spec.source)
    loop = ast.find_loop(program, spec.loop_labels[0])
    profile = profile_loop(program, sema, loop)
    static = build_static_ddg(program, sema, loop)
    assert len(static.edges) > len(profile.ddg.edges)


#: the callee is known only at run time: ``f`` carries a flow on
#: ``acc[0]`` from one call to the next, ``g`` is the identity
_INDIRECT = """
int acc[4];
int f(int x) { acc[0] = acc[0] + x; return x; }
int g(int x) { return x; }
int main(void) {
    int i;
    L: for (i = 0; i < 8; i++) acc[1] = acc[1] + (i % 2 ? f : g)(i);
    print_int(acc[0] + acc[1]);
    return 0;
}
"""


def test_indirect_call_reaches_every_address_taken_function():
    program, sema = parse_and_analyze(_INDIRECT)
    loop = ast.find_loop(program, "L")
    profiled = profile_loop(program, sema, loop).ddg
    static = build_static_ddg(program, sema, loop)
    f_store = next(n for n in program.function("f").body.walk()
                   if isinstance(n, ast.Assign))
    assert any(e.src == f_store.nid and e.carried for e in profiled.edges)
    assert profiled.sites <= static.sites
    assert profiled.store_sites <= static.store_sites
    assert profiled.load_sites <= static.load_sites
    missing = sorted(e for e in profiled.edges if e not in static.edges)
    assert not missing, missing
    assert profiled.upward_exposed <= static.upward_exposed
    assert profiled.downward_exposed <= static.downward_exposed
