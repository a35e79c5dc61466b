"""Histogram reduction kernel (commutative-class showcase).

Every iteration bumps a shared bucket counter, accumulates a running
sum, and tracks the maximum — three loop-carried flow dependences the
paper's Definition 5 must reject outright (the accumulator loads are
upward-exposed and feed the next iteration).  The static commutativity
prover (:mod:`repro.analysis.commutative`) upgrades all three to the
commutative access class: each worker gets identity-initialized private
copies that merge back into copy 0 at loop exit, so the loop runs DOALL
bit-identical to its sequential oracle.  With ``commutative=False``
this kernel is the ablation baseline: the loop keeps its carried
dependences and the runtime race checker fires on every backend.
"""

from ..suite import EXTRA_SUITE, BenchmarkSpec, PaperNumbers, register

SOURCE = r"""
// histogram + sum + max reduction over a pseudo-random sample buffer
int N = 4096;

int data[4096];
int hist[64];
int total;
int maxv;

void bump(int v) {
    hist[v & 63] += 1;
    total += v;
    if (v > maxv) {
        maxv = v;
    }
}

int main(void) {
    int i;
    int x;
    int check;
    x = 12345;
    for (i = 0; i < N; i++) {
        x = x * 1103515245 + 12345;
        data[i] = (x >> 8) & 1023;
    }
    #pragma expand parallel(doall)
    L: for (i = 0; i < N; i++) {
        bump(data[i]);
    }
    check = 0;
    for (i = 0; i < 64; i++) {
        check = check * 31 + hist[i] * (i + 1);
    }
    print_int(check & 0x7fffffff);
    print_int(total);
    print_int(maxv);
    return 0;
}
"""

register(BenchmarkSpec(
    name="histogram",
    suite=EXTRA_SUITE,
    source=SOURCE,
    loop_labels=["L"],
    function="main",
    level=1,
    parallelism="DOALL",
    paper=PaperNumbers(loc=0, pct_time=0.0, privatized=3,
                       loop_speedup_8=None),
    description="bucket counts + running sum + max: loop-carried "
                "reductions proven commutative and merged at loop exit",
))
