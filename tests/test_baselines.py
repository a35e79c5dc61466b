"""Runtime-privatization and sync-only baseline tests."""

import pytest

from repro.analysis import build_access_classes, classify, profile_loop
from repro.baselines import (
    MONITOR_COST, run_runtime_privatization, run_sync_only,
)
from repro.frontend import ast, parse_and_analyze
from repro.interp import Machine


SRC = """
int buf[8];
int out[6];
int main(void) {
    int i; int k;
    #pragma expand parallel(doall)
    L: for (i = 0; i < 6; i++) {
        for (k = 0; k < 8; k++) buf[k] = i * k + 1;
        out[i] = buf[7];
    }
    for (i = 0; i < 6; i++) print_int(out[i]);
    return 0;
}
"""

QUEUE_SRC = """
struct q { int v; struct q *next; };
struct q *head;
int out[5];
int main(void) {
    int i; int j; int s;
    #pragma expand parallel(doall)
    L: for (i = 0; i < 5; i++) {
        head = 0;
        for (j = 0; j <= i; j++) {
            struct q *x = (struct q*)malloc(sizeof(struct q));
            x->v = j + i;
            x->next = head;
            head = x;
        }
        s = 0;
        while (head) {
            struct q *t;
            t = head;
            head = head->next;
            s += t->v;
            free(t);
        }
        out[i] = s;
    }
    for (i = 0; i < 5; i++) print_int(out[i]);
    return 0;
}
"""


def setup(source):
    program, sema = parse_and_analyze(source)
    base = Machine(program, sema)
    base.run()
    profiles = {}
    privs = {}
    loop = ast.find_loop(program, "L")
    profile = profile_loop(program, sema, loop)
    profiles["L"] = profile
    privs["L"] = classify(profile.ddg, build_access_classes(profile.ddg))
    return program, sema, base, profiles, privs


class TestRuntimePrivatization:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_output_preserved(self, n):
        program, sema, base, profiles, privs = setup(SRC)
        outcome = run_runtime_privatization(
            program, sema, ["L"], profiles, privs, nthreads=n
        )
        assert outcome.output == base.output

    def test_linked_queue_with_free_invalidation(self):
        """Per-iteration malloc/free: freed structures must drop their
        thread-local copies so reuse starts clean."""
        program, sema, base, profiles, privs = setup(QUEUE_SRC)
        for n in (2, 4):
            outcome = run_runtime_privatization(
                program, sema, ["L"], profiles, privs, nthreads=n
            )
            assert outcome.output == base.output

    def test_monitoring_adds_cycles(self):
        program, sema, base, profiles, privs = setup(SRC)
        outcome = run_runtime_privatization(
            program, sema, ["L"], profiles, privs, nthreads=1
        )
        n_private_accesses = sum(
            profiles["L"].ddg.dyn_counts.get(site, 0)
            for site in privs["L"].private_sites
        )
        assert outcome.total_cycles >= (
            base.cost.cycles + n_private_accesses * MONITOR_COST * 0.5
        )

    def test_copies_add_memory(self):
        program, sema, base, profiles, privs = setup(SRC)
        outcome = run_runtime_privatization(
            program, sema, ["L"], profiles, privs, nthreads=4
        )
        assert outcome.peak_memory > base.memory.peak_footprint()

    def test_original_program_untouched(self):
        """The baseline runs the original AST unchanged: a plain
        sequential run afterwards still works."""
        program, sema, base, profiles, privs = setup(SRC)
        run_runtime_privatization(
            program, sema, ["L"], profiles, privs, nthreads=4
        )
        again = Machine(program, sema)
        again.run()
        assert again.output == base.output


    def test_unprivatized_conflicts_raise_race_error(self):
        """A plan whose private-site set is deliberately emptied leaves
        ``buf`` shared between the chunks: the baseline reports that as
        the expansion runner does — RaceError, RT-RACE, a sample of the
        conflicts in ``data`` (it used to be a bare RuntimeError)."""
        from repro.baselines import BaselineRunner
        from repro.runtime import LoopPlan, RaceError
        from repro.transform.pipeline import DOALL

        program, sema, _base, _profiles, privs = setup(SRC)
        assert privs["L"].private_sites          # what the plan drops
        plan = LoopPlan(ast.find_loop(program, "L"), DOALL)
        with pytest.raises(RaceError) as caught:
            BaselineRunner(program, sema, [plan], nthreads=4).run()
        diag = caught.value.diagnostic
        assert diag.code == "RT-RACE"
        assert "runtime privatization left" in str(caught.value)
        assert 0 < len(diag.data["races"]) <= 5
        outcome = BaselineRunner(program, sema, [plan], nthreads=4).run(
            raise_on_race=False)
        assert len(outcome.races) >= len(diag.data["races"])


class TestSyncOnly:
    def test_output_preserved(self):
        program, sema, base, profiles, privs = setup(SRC)
        outcome = run_sync_only(program, sema, ["L"], profiles, nthreads=8)
        assert outcome.output == base.output

    def test_no_speedup(self):
        """Everything with carried deps is serialized: the loop at 8
        threads is no faster than at 1."""
        program, sema, base, profiles, _ = setup(SRC)
        o1 = run_sync_only(program, sema, ["L"], profiles, nthreads=1)
        o8 = run_sync_only(program, sema, ["L"], profiles, nthreads=8)
        t1 = o1.loop("L").makespan + o1.loop("L").runtime_cycles
        t8 = o8.loop("L").makespan + o8.loop("L").runtime_cycles
        assert t8 > t1 * 0.75
