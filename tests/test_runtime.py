"""Parallel runtime tests: scheduling, timing model, race detection."""

import pytest

from repro.frontend import parse_and_analyze
from repro.interp import Machine
from repro.runtime import ParallelError, RaceError, run_parallel
from repro.runtime import sync
from repro.transform import expand_for_threads


def prepare(source, labels=("L",)):
    program, sema = parse_and_analyze(source)
    base = Machine(program, sema)
    base.run()
    result = expand_for_threads(program, sema, list(labels))
    return base, result


DOALL_SRC = """
int buf[16];
int out[12];
int main(void) {
    int i; int k;
    #pragma expand parallel(doall)
    L: for (i = 0; i < 12; i++) {
        for (k = 0; k < 16; k++) buf[k] = i * k + 1;
        out[i] = buf[15];
    }
    for (i = 0; i < 12; i++) print_int(out[i]);
    return 0;
}
"""

DOACROSS_SRC = """
int buf[16];
int acc;
int main(void) {
    int i; int k;
    #pragma expand parallel(doacross)
    L: for (i = 0; i < 12; i++) {
        for (k = 0; k < 16; k++) buf[k] = i * k + 1;
        acc = acc * 7 + buf[15];
    }
    print_int(acc);
    return 0;
}
"""


class TestDoall:
    def test_output_and_iterations(self):
        base, result = prepare(DOALL_SRC)
        outcome = run_parallel(result, 4)
        assert outcome.output == base.output
        execution = outcome.loop("L")
        assert execution.iterations == 12
        assert sum(t.iterations for t in execution.threads) == 12

    def test_static_chunking_balanced(self):
        _, result = prepare(DOALL_SRC)
        outcome = run_parallel(result, 4)
        per_thread = [t.iterations for t in outcome.loop("L").threads]
        assert per_thread == [3, 3, 3, 3]

    def test_uneven_chunking(self):
        _, result = prepare(DOALL_SRC)
        outcome = run_parallel(result, 5)
        per_thread = [t.iterations for t in outcome.loop("L").threads]
        assert sum(per_thread) == 12 and max(per_thread) - min(per_thread) <= 1

    def test_more_threads_than_iterations(self):
        _, result = prepare(DOALL_SRC)
        outcome = run_parallel(result, 16)
        assert outcome.loop("L").iterations == 12

    def test_makespan_shrinks_with_threads(self):
        _, result = prepare(DOALL_SRC)
        m1 = run_parallel(result, 1).loop("L").makespan
        m4 = run_parallel(result, 4).loop("L").makespan
        assert m4 < m1 / 2

    def test_fork_join_accounted(self):
        _, result = prepare(DOALL_SRC)
        outcome = run_parallel(result, 4)
        assert outcome.loop("L").runtime_cycles == sync.fork_join_cost(4)

    def test_control_variable_final_value(self):
        src = DOALL_SRC.replace("print_int(out[i]);",
                                "print_int(out[i]);").replace(
            "for (i = 0; i < 12; i++) print_int",
            "print_int(i); for (i = 0; i < 12; i++) print_int",
        )
        base, result = prepare(src)
        outcome = run_parallel(result, 4)
        assert outcome.output == base.output  # i == 12 after the loop


class TestDoacross:
    def test_sequential_order_preserved(self):
        base, result = prepare(DOACROSS_SRC)
        for n in (2, 4, 8):
            outcome = run_parallel(result, n)
            assert outcome.output == base.output

    def test_round_robin_assignment(self):
        _, result = prepare(DOACROSS_SRC)
        outcome = run_parallel(result, 4)
        per_thread = [t.iterations for t in outcome.loop("L").threads]
        assert per_thread == [3, 3, 3, 3]

    def test_wait_cycles_appear_with_serial_section(self):
        _, result = prepare(DOACROSS_SRC)
        outcome = run_parallel(result, 8)
        execution = outcome.loop("L")
        assert sum(t.wait_cycles for t in execution.threads) >= 0
        assert sum(t.sync_cycles for t in execution.threads) > 0

    def test_serial_section_bounds_speedup(self):
        """A fully-serial DOACROSS loop cannot speed up."""
        src = """
        int acc;
        int main(void) {
            int i;
            #pragma expand parallel(doacross)
            L: for (i = 0; i < 20; i++) {
                acc = acc * 3 + i;
            }
            print_int(acc);
            return 0;
        }
        """
        base, result = prepare(src)
        m1 = run_parallel(result, 1).loop("L")
        m8 = run_parallel(result, 8).loop("L")
        t1 = m1.makespan + m1.runtime_cycles
        t8 = m8.makespan + m8.runtime_cycles
        assert t8 > t1 * 0.8  # no meaningful speedup

    def test_while_loop_with_break(self):
        src = """
        int acc;
        int n;
        int main(void) {
            #pragma expand parallel(doacross)
            L: while (1) {
                if (n >= 9) break;
                n = n + 1;
                acc = acc + n;
            }
            print_int(acc);
            return 0;
        }
        """
        base, result = prepare(src)
        outcome = run_parallel(result, 4)
        assert outcome.output == base.output == ["45"]


class TestRaceDetection:
    def test_planted_race_detected(self):
        """A loop with genuinely conflicting writes must be caught when
        forced through the DOALL scheduler."""
        src = """
        int shared;
        int out[8];
        int main(void) {
            int i;
            #pragma expand parallel(doall)
            L: for (i = 0; i < 8; i++) {
                out[i] = i;
            }
            print_int(out[7]);
            return 0;
        }
        """
        program, sema = parse_and_analyze(src)
        result = expand_for_threads(program, sema, ["L"])
        # sabotage: make the transformed loop body also write one
        # shared location from every iteration
        from repro.frontend import ast as A
        loop = result.loops[0].loop
        assert any(d.name == "shared" for d in result.program.globals())
        store = A.ExprStmt(A.Assign(
            "=", A.Ident("shared"), A.IntLit(1)
        ))
        loop.body.stmts.append(store)
        from repro.frontend.sema import analyze
        result.sema = analyze(result.program)
        with pytest.raises(RaceError):
            run_parallel(result, 4)

    def test_race_check_optional(self):
        _, result = prepare(DOALL_SRC)
        outcome = run_parallel(result, 4, check_races=False)
        assert outcome.races == []

    def test_disjoint_writes_not_flagged(self):
        _, result = prepare(DOALL_SRC)
        outcome = run_parallel(result, 8)
        assert outcome.races == []

    @staticmethod
    def _races(monkeypatch, result, checker_cls, **kwargs):
        from repro.runtime import parallel
        monkeypatch.setattr(parallel, "RaceChecker", checker_cls)
        outcome = run_parallel(result, 4, engine="bytecode",
                               raise_on_race=False, **kwargs)
        assert len(set(outcome.races)) == len(outcome.races)
        return set(outcome.races)

    def test_ablated_histogram_races_match_the_byte_oracle(
            self, monkeypatch):
        """``--no-commutative`` histogram: every thread updates the
        shared bins.  The cell-granular checker must name the same
        bytes, with the same kinds, as the byte-per-byte one."""
        from repro.bench import get
        from repro.interp import RaceChecker
        from .byte_oracle import ByteRaceChecker
        spec = get("histogram")
        program, sema = parse_and_analyze(spec.source)
        ablated = expand_for_threads(program, sema, spec.loop_labels,
                                     commutative=False)
        want = self._races(monkeypatch, ablated, ByteRaceChecker)
        assert "write-write" in {kind for _, kind in want}
        assert self._races(monkeypatch, ablated, RaceChecker) == want

    def test_skewed_copy_index_races_match_the_byte_oracle(
            self, monkeypatch):
        from repro.interp import RaceChecker
        from repro.runtime import CopyIndexSkew
        from .byte_oracle import ByteRaceChecker
        program, sema = parse_and_analyze(DOALL_SRC)
        result = expand_for_threads(program, sema, ["L"], optimize=False)
        want, got = (
            self._races(monkeypatch, result, cls,
                        fault_injectors=[CopyIndexSkew(seed=3, rate=0.5)])
            for cls in (ByteRaceChecker, RaceChecker))
        assert want and got == want


class TestTimingModel:
    def test_bandwidth_ceiling(self):
        """A pure copy loop saturates the memory system at
        MEMORY_PORTS threads."""
        src = """
        int a[512];
        int b[512];
        int main(void) {
            int i;
            for (i = 0; i < 512; i++) a[i] = i;
            #pragma expand parallel(doall)
            L: for (i = 0; i < 512; i++) {
                b[i] = a[i];
            }
            print_int(b[511]);
            return 0;
        }
        """
        _, result = prepare(src)
        m4 = run_parallel(result, 4).loop("L").makespan
        m16 = run_parallel(result, 16).loop("L").makespan
        assert m16 > m4 * 0.5  # nowhere near 4x further scaling

    def test_total_cycles_include_serial_parts(self):
        base, result = prepare(DOALL_SRC)
        outcome = run_parallel(result, 8)
        assert outcome.total_cycles > outcome.loop("L").makespan

    def test_breakdown_categories_nonnegative(self):
        _, result = prepare(DOACROSS_SRC)
        outcome = run_parallel(result, 8)
        bd = outcome.loop("L").breakdown()
        assert all(v >= -1e-6 for v in bd.values())
        assert bd["work"] > 0

    def test_noncanonical_doall_rejected(self):
        src = """
        int out[4];
        int main(void) {
            int i = 0;
            #pragma expand parallel(doall)
            L: while (i < 4) {
                out[i] = i;
                i = i + 1;
            }
            print_int(out[3]);
            return 0;
        }
        """
        program, sema = parse_and_analyze(src)
        result = expand_for_threads(program, sema, ["L"])
        with pytest.raises(ParallelError):
            run_parallel(result, 4)
