"""Unit tests for the §3.4 optimization machinery: dirty-variable
analysis, LICM of global loads, hoist placement."""

from repro.frontend import ast, parse_and_analyze, print_program
from repro.frontend.sema import analyze
from repro.interp import Machine
from repro.transform.optimize import (
    build_parent_blocks, collect_dirty_decls, licm_globals,
)
from repro.transform.rewrite import clone_program


def body_of(source, fn="main"):
    program, sema = parse_and_analyze(source)
    return program, program.function(fn).body


class TestDirtyDecls:
    def decls_named(self, program, *names):
        found = {}
        for node in program.walk():
            if isinstance(node, ast.VarDecl):
                found[node.name] = node
        return [found[n] for n in names]

    def test_direct_assignment_dirty(self):
        program, body = body_of(
            "int main(void) { int a; int b; a = 1; b = a; return b; }"
        )
        a, b = self.decls_named(program, "a", "b")
        dirty = collect_dirty_decls(body)
        assert a in dirty and b in dirty

    def test_write_through_pointer_not_dirty(self):
        program, body = body_of("""
        int main(void) {
            int x;
            int *p = &x;
            p[0] = 5;
            *p = 6;
            return x;
        }
        """)
        (p,) = self.decls_named(program, "p")
        dirty = collect_dirty_decls(body)
        assert p not in dirty  # p's VALUE never changes after init

    def test_increment_dirty(self):
        program, body = body_of(
            "int main(void) { int i; i = 0; i++; return i; }"
        )
        (i,) = self.decls_named(program, "i")
        assert i in collect_dirty_decls(body)

    def test_member_write_dirties_struct_var(self):
        program, body = body_of("""
        struct s { int a; };
        int main(void) { struct s v; v.a = 1; return v.a; }
        """)
        (v,) = self.decls_named(program, "v")
        assert v in collect_dirty_decls(body)

    def test_address_taken_dirty(self):
        program, body = body_of("""
        int main(void) { int x; int *p = &x; *p = 3; return x; }
        """)
        (x,) = self.decls_named(program, "x")
        assert x in collect_dirty_decls(body)


class TestLicmGlobals:
    def run_both(self, source):
        program, sema = parse_and_analyze(source)
        base = Machine(program, sema)
        base.run()
        clone, _ = clone_program(program)
        moved = licm_globals(clone)
        new_sema = analyze(clone)
        machine = Machine(clone, new_sema)
        machine.run()
        assert machine.output == base.output
        return moved, machine, base, print_program(clone)

    def test_hoists_readonly_global(self):
        moved, machine, base, text = self.run_both("""
        int scale;
        int main(void) {
            int i; int acc = 0;
            scale = 7;
            for (i = 0; i < 20; i++) {
                acc += scale * i;
            }
            print_int(acc);
            return 0;
        }
        """)
        assert moved >= 1
        assert "__licm" in text
        assert machine.cost.cycles < base.cost.cycles  # load hoisted

    def test_skips_global_written_in_loop(self):
        moved, _, _, text = self.run_both("""
        int acc;
        int main(void) {
            int i;
            for (i = 0; i < 5; i++) {
                acc = acc + i;
            }
            print_int(acc);
            return 0;
        }
        """)
        assert "acc = __licm" not in text

    def test_skips_global_written_by_callee(self):
        moved, _, _, text = self.run_both("""
        int counter;
        void bump(void) { counter = counter + 1; }
        int main(void) {
            int i;
            for (i = 0; i < 5; i++) {
                bump();
                print_int(counter);
            }
            return 0;
        }
        """)
        # counter must NOT be cached across bump() calls
        assert "counter" in text
        assert "int __licm1 = counter" not in text

    def test_transitive_callee_writes_respected(self):
        moved, _, _, text = self.run_both("""
        int g;
        void inner(void) { g = g + 1; }
        void outer(void) { inner(); }
        int main(void) {
            int i;
            for (i = 0; i < 4; i++) {
                outer();
                print_int(g);
            }
            return 0;
        }
        """)
        assert "int __licm1 = g" not in text

    def test_header_writes_respected(self):
        # the loop's own header writes g: a load hoisted above the loop
        # would read g before the init runs
        moved, _, _, text = self.run_both("""
        int g;
        int main(void) {
            int s = 0;
            for (g = 0; g < 5; g++) {
                s = s + g;
            }
            print_int(s);
            return 0;
        }
        """)
        assert "__licm" not in text

    def test_indirect_callee_writes_respected(self):
        # an indirect call reaches every address-taken function, so
        # bump's write of g keeps g's load inside the loop
        from repro import expand_and_run

        outcome = expand_and_run("""
        int g;
        int out[8];
        int bump(int x) { g = g + 1; return x + 1; }
        int same(int x) { return x; }
        int main(void) {
            int i; int s = 0;
            #pragma expand parallel(doall)
            L: for (i = 0; i < 8; i++) {
                int t = (i % 2 ? bump : same)(i);
                out[i] = t + g;
            }
            for (i = 0; i < 8; i++) s = s + out[i];
            print_int(s);
            return 0;
        }
        """, ["L"], nthreads=1, optimize=True)
        assert outcome.output == ["48"]
        assert outcome.verified

    def test_address_taken_global_not_hoisted(self):
        moved, _, _, text = self.run_both("""
        int knob;
        int main(void) {
            int i; int acc = 0;
            int *p = &knob;
            knob = 3;
            for (i = 0; i < 5; i++) {
                *p = i;
                acc += knob;
            }
            print_int(acc);
            return 0;
        }
        """)
        assert "= knob;" not in text.split("for")[1].split("{")[1] \
            or "__licm" not in text


class TestParentBlocks:
    def test_maps_loops_to_blocks(self):
        program, _ = body_of("""
        int main(void) {
            int i; int j;
            for (i = 0; i < 3; i++) {
                for (j = 0; j < 3; j++) { }
            }
            return 0;
        }
        """)
        parents = build_parent_blocks(program)
        loops = [n for n in program.walk() if isinstance(n, ast.LoopStmt)]
        outer = loops[0]
        assert parents[outer] is program.function("main").body
