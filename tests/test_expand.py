"""Expansion (Table 1) and named-variable redirection (Table 2) tests,
driven through the full pipeline on focused programs; each test checks
both the emitted code shape and N=1 behavioural equivalence."""

import pytest

from repro.frontend import parse_and_analyze, print_program
from repro.interp import Machine
from repro.runtime import run_parallel
from repro.transform import expand_for_threads


def transform(source, labels=("L",), optimize=True):
    program, sema = parse_and_analyze(source)
    result = expand_for_threads(program, sema, list(labels),
                                optimize=optimize)
    base = Machine(program, sema)
    base.run()
    return result, base, print_program(result.program)


def check_equivalent(result, base, nthreads=1):
    machine = Machine(result.program, result.sema)
    machine.nthreads = nthreads
    machine.run()
    assert machine.output == base.output
    return machine


class TestTable1LocalRows:
    def test_local_scalar_becomes_vla(self):
        src = """
        int out[4];
        int main(void) {
            int i; int t;
            #pragma expand parallel(doall)
            L: for (i = 0; i < 4; i++) {
                t = i * 3;
                out[i] = t + 1;
            }
            print_int(out[3]);
            return 0;
        }
        """
        result, base, text = transform(src)
        assert "int t[__nthreads];" in text
        assert "t[__tid] = " in text
        check_equivalent(result, base)

    def test_local_array_gets_copy_dimension(self):
        src = """
        int out[4];
        int main(void) {
            int i; int k; int buf[8];
            #pragma expand parallel(doall)
            L: for (i = 0; i < 4; i++) {
                for (k = 0; k < 8; k++) buf[k] = i + k;
                out[i] = buf[7];
            }
            print_int(out[0] + out[3]);
            return 0;
        }
        """
        result, base, text = transform(src)
        assert "int buf[__nthreads][8];" in text
        assert "buf[__tid][" in text
        check_equivalent(result, base)

    def test_local_record_expansion(self):
        src = """
        struct acc { int lo; int hi; };
        int out[4];
        int main(void) {
            int i;
            struct acc a;
            #pragma expand parallel(doall)
            L: for (i = 0; i < 4; i++) {
                a.lo = i; a.hi = i * 2;
                out[i] = a.lo + a.hi;
            }
            print_int(out[2]);
            return 0;
        }
        """
        result, base, text = transform(src)
        assert "struct acc a[__nthreads];" in text
        assert "a[__tid].lo" in text
        check_equivalent(result, base)

    def test_param_expansion_seeds_copy_zero(self):
        src = """
        int out[4];
        int work(int scratch) {
            int i;
            #pragma expand parallel(doall)
            L: for (i = 0; i < 4; i++) {
                scratch = i * 5;
                out[i] = scratch;
            }
            return out[3];
        }
        int main(void) { print_int(work(9)); return 0; }
        """
        result, base, text = transform(src)
        assert "scratch__in" in text
        check_equivalent(result, base)


#: ``v`` is expanded and read as ``v[__tid]`` inside ``f``, which runs
#: on every thread: its initializer must store the declaring thread's
#: copy, not copy 0 (the sum is 1520 at any thread count)
_CALLEE_LOCAL_INIT = """
int out[32];
int f(int x) {
    int *p = (int*)malloc(8); p[0] = x * 3 + 1;
    int v = p[0];
    free(p);
    return v;
}
int main(void) {
    int i; int s = 0;
    #pragma expand parallel(doall)
    L: for (i = 0; i < 32; i++) out[i] = f(i);
    for (i = 0; i < 32; i++) s = s + out[i];
    print_int(s);
    return 0;
}
"""


def _engines_and_backends():
    from repro.interp.native import native_backend_available
    from repro.runtime import process_backend_available
    engines = ["ast", "bytecode"]
    if native_backend_available()[0]:
        engines.append("native")
    backends = ["simulated"]
    if process_backend_available()[0]:
        backends.append("process")
    return [(e, b) for e in engines for b in backends]


class TestLocalInitializer:
    @pytest.mark.parametrize("engine,backend", _engines_and_backends())
    def test_initializer_stores_the_declaring_threads_copy(self, engine,
                                                           backend):
        result, base, text = transform(_CALLEE_LOCAL_INIT)
        assert "v[__tid] = " in text
        assert base.output == ["1520"]
        for nthreads in (1, 2, 4):
            kwargs = dict(workers=nthreads) if backend == "process" else {}
            outcome = run_parallel(result, nthreads, engine=engine,
                                   backend=backend, check_races=False,
                                   **kwargs)
            assert outcome.output == base.output, (nthreads,
                                                   outcome.output)


class TestTable1GlobalRows:
    def test_global_scalar_heapified(self):
        src = """
        int t;
        int out[4];
        int main(void) {
            int i;
            #pragma expand parallel(doall)
            L: for (i = 0; i < 4; i++) {
                t = i + 10;
                out[i] = t;
            }
            print_int(out[1]);
            return 0;
        }
        """
        result, base, text = transform(src)
        assert "int* t;" in text
        assert "__expand_init" in text
        assert "t = malloc(sizeof(int) * __nthreads);" in text
        check_equivalent(result, base)

    def test_global_array_heapified_with_init_values(self):
        src = """
        int buf[4] = {5, 6, 7, 8};
        int out[3];
        int main(void) {
            int i; int k;
            print_int(buf[2]);                 // pre-loop: copy 0 init
            #pragma expand parallel(doall)
            L: for (i = 0; i < 3; i++) {
                for (k = 0; k < 4; k++) buf[k] = i * k;
                out[i] = buf[3];
            }
            print_int(out[2]);
            return 0;
        }
        """
        result, base, text = transform(src)
        assert "buf = malloc(sizeof(int[4]) * __nthreads);" in text
        assert "buf[2] = 7;" in text          # initializer materialized
        check_equivalent(result, base)

    def test_global_record_heapified(self):
        src = """
        struct st { int a; double b; };
        struct st s;
        int out[3];
        int main(void) {
            int i;
            #pragma expand parallel(doall)
            L: for (i = 0; i < 3; i++) {
                s.a = i; s.b = i * 0.5;
                out[i] = s.a + (int)s.b;
            }
            print_int(out[2]);
            return 0;
        }
        """
        result, base, text = transform(src)
        assert "struct st* s;" in text
        check_equivalent(result, base)

    def test_heap_allocation_multiplied(self):
        src = """
        int out[4];
        int main(void) {
            int i; int k;
            int *w = (int*)malloc(sizeof(int) * 6);
            #pragma expand parallel(doall)
            L: for (i = 0; i < 4; i++) {
                for (k = 0; k < 6; k++) w[k] = i + k;
                out[i] = w[5];
            }
            print_int(out[3]);
            return 0;
        }
        """
        result, base, text = transform(src)
        assert "* __nthreads)" in text
        check_equivalent(result, base)

    def test_unreferenced_structures_not_expanded(self):
        """§3.4: structures never touched by private accesses stay
        un-expanded."""
        src = """
        int shared_in[4] = {1, 2, 3, 4};
        int out[4];
        int main(void) {
            int i; int t;
            #pragma expand parallel(doall)
            L: for (i = 0; i < 4; i++) {
                t = shared_in[i];
                out[i] = t * 2;
            }
            print_int(out[3]);
            return 0;
        }
        """
        result, base, text = transform(src)
        assert "shared_in[4] = {1, 2, 3, 4};" in text  # untouched
        labels = {
            ev.decl.name for ev in result.expansion.expanded_vars.values()
        }
        assert "shared_in" not in labels and "out" not in labels


class TestRedirectionCopySelection:
    def test_shared_reads_use_copy_zero(self):
        src = """
        int cfg;
        int out[3];
        int main(void) {
            int i; int t;
            cfg = 5;
            #pragma expand parallel(doall)
            L: for (i = 0; i < 3; i++) {
                t = cfg + i;     // cfg: upward-exposed -> shared
                out[i] = t;
            }
            print_int(out[2]);
            return 0;
        }
        """
        result, base, text = transform(src)
        # cfg is never privately accessed -> not expanded at all
        labels = {
            ev.decl.name for ev in result.expansion.expanded_vars.values()
        }
        assert "cfg" not in labels
        check_equivalent(result, base)

    def test_private_and_post_loop_accesses_coexist(self):
        """Accesses to an expanded variable outside the loop address
        copy 0 (the shared copy)."""
        src = """
        int t;
        int out[3];
        int main(void) {
            int i;
            t = 999;
            print_int(t);
            #pragma expand parallel(doall)
            L: for (i = 0; i < 3; i++) {
                t = i;
                out[i] = t * 2;
            }
            print_int(out[2]);
            return 0;
        }
        """
        result, base, text = transform(src)
        assert "t[0] = 999" in text or "(*" in text
        check_equivalent(result, base)


class TestParallelSemantics:
    """The real test of Table 1 + 2: N>1 execution is race-free and
    produces identical output."""

    SRC = """
    struct pair { int a; int b; };
    int scratch[6];
    struct pair acc;
    int out[8];
    int main(void) {
        int i; int k; int t;
        #pragma expand parallel(doall)
        L: for (i = 0; i < 8; i++) {
            for (k = 0; k < 6; k++) scratch[k] = i * k;
            acc.a = scratch[5];
            acc.b = scratch[2];
            t = acc.a - acc.b;
            out[i] = t;
        }
        for (i = 0; i < 8; i++) print_int(out[i]);
        return 0;
    }
    """

    @pytest.mark.parametrize("nthreads", [2, 3, 4, 8])
    def test_race_free_equivalent(self, nthreads):
        program, sema = parse_and_analyze(self.SRC)
        base = Machine(program, sema)
        base.run()
        result = expand_for_threads(program, sema, ["L"])
        outcome = run_parallel(result, nthreads)
        assert outcome.output == base.output
        assert not outcome.races

    def test_unexpanded_program_would_race(self):
        """Sanity: without redirection the same loop *does* conflict —
        the race checker is actually capable of failing."""
        program, sema = parse_and_analyze(self.SRC)
        result = expand_for_threads(program, sema, ["L"])
        # run the ORIGINAL (unexpanded) program under the parallel
        # scheduler by faking a transform result around it
        program2, sema2 = parse_and_analyze(self.SRC)
        import copy
        fake = copy.copy(result)
        from repro.frontend import ast as A
        fake.program = program2
        fake.sema = sema2
        fake.loops = [copy.copy(result.loops[0])]
        fake.loops[0].loop = A.find_loop(program2, "L")
        from repro.runtime import RaceError
        with pytest.raises(RaceError):
            run_parallel(fake, 4)

    def test_memory_grows_with_copies(self):
        program, sema = parse_and_analyze(self.SRC)
        result = expand_for_threads(program, sema, ["L"])
        m2 = run_parallel(result, 2).peak_memory
        m8 = run_parallel(result, 8).peak_memory
        assert m8 > m2
