"""Dependence profiler tests: Definitions 1-3 on crafted loops."""

import pytest

from repro.analysis import ANTI, FLOW, OUTPUT, profile_loop
from repro.analysis.profiler import find_control_decl
from repro.frontend import ast, parse_and_analyze

from .byte_oracle import oracle_profile_loop, profile_diff


def profile(source, label="L"):
    program, sema = parse_and_analyze(source)
    loop = ast.find_loop(program, label)
    return profile_loop(program, sema, loop), program


def wrap(body, prelude="", post=""):
    return f"""
    {prelude}
    int main(void) {{
        int i;
        L: for (i = 0; i < 6; i++) {{
            {body}
        }}
        {post}
        return 0;
    }}
    """


class TestDependenceKinds:
    def test_write_then_read_same_iter_is_independent_flow(self):
        p, _ = profile(wrap("x = i; print_int(x);", "int x;"))
        flows = [e for e in p.ddg.edges if e.kind == FLOW]
        assert flows and all(not e.carried for e in flows)

    def test_carried_flow_across_iterations(self):
        p, _ = profile(wrap("acc = acc + i;", "int acc;"))
        assert any(e.carried and e.kind == FLOW for e in p.ddg.edges)

    def test_covered_write_suppresses_carried_flow(self):
        """Definition 1's refinement: a read covered by a same-iteration
        write is NOT loop-carried flow even though an earlier iteration
        also wrote the address."""
        p, _ = profile(wrap("x = i; y = x;", "int x; int y;"))
        carried_flow = [
            e for e in p.ddg.edges if e.carried and e.kind == FLOW
        ]
        assert not carried_flow

    def test_carried_output_dependence(self):
        p, _ = profile(wrap("x = i;", "int x;"))
        assert any(e.carried and e.kind == OUTPUT for e in p.ddg.edges)

    def test_carried_anti_dependence(self):
        # reads in iterations 0-2, first store in iteration 3: the read
        # of an earlier iteration precedes the write with no store in
        # between -> loop-carried anti
        p, _ = profile(wrap(
            "if (i >= 3) { x = 9; } else { y = x; }", "int x; int y;"
        ))
        assert any(e.carried and e.kind == ANTI for e in p.ddg.edges)

    def test_anti_with_intervening_store_is_independent(self):
        # read-then-write every iteration: the write "renews" the
        # location, so only the same-iteration anti remains (last-access
        # windows, as in SD3-style profilers); the carried reuse shows
        # up as an output dependence instead
        p, _ = profile(wrap("y = x; x = i;", "int x; int y;"))
        assert any(not e.carried and e.kind == ANTI for e in p.ddg.edges)
        assert any(e.carried and e.kind == OUTPUT for e in p.ddg.edges)

    def test_independent_anti_dependence(self):
        p, _ = profile(wrap("y = x + 1; x = i;", "int x; int y;"))
        assert any(not e.carried and e.kind == ANTI for e in p.ddg.edges)

    def test_disjoint_writes_no_carried_deps(self):
        p, _ = profile(wrap("a[i] = i;", "int a[6];"))
        assert not list(p.ddg.carried_edges())


class TestExposure:
    def test_upward_exposed_read_only_global(self):
        p, _ = profile(wrap("s = s * 0 + w;", "int w = 5; int s;"))
        assert p.ddg.upward_exposed

    def test_not_upward_exposed_when_written_first(self):
        p, _ = profile(wrap("x = 1; y = x;", "int x; int y;"))
        # loads of x come after in-loop writes
        x_reads_exposed = p.ddg.upward_exposed & p.ddg.load_sites
        src = wrap("x = 1; y = x;", "int x; int y;")
        # only the loop bound/control reads may be exposed, not x
        program, sema = parse_and_analyze(src)
        # identify x's load site via its object
        for site in x_reads_exposed:
            objs = p.site_objects.get(site, set())
            labels = {p.object_labels[o] for o in objs}
            assert "x" not in labels

    def test_downward_exposed_store(self):
        p, _ = profile(
            wrap("x = i;", "int x;", "print_int(x);")
        )
        assert p.ddg.downward_exposed

    def test_not_downward_exposed_without_later_read(self):
        p, _ = profile(wrap("x = i;", "int x;"))
        assert not p.ddg.downward_exposed

    def test_downward_exposure_via_next_execution(self):
        """A value written by one execution of an (inner) loop and read
        by the next execution counts as used-after-the-loop."""
        src = """
        int x;
        int main(void) {
            int t; int i; int s = 0;
            for (t = 0; t < 3; t++) {
                s = s + x;
                L: for (i = 0; i < 4; i++) {
                    x = i;
                }
            }
            print_int(s);
            return 0;
        }
        """
        p, _ = profile(src)
        assert p.ddg.downward_exposed


class TestByteGranularity:
    def test_recast_overlap_detected(self):
        """The bzip2 pattern: short writes overlapping int reads must
        produce dependences even though no access has equal addresses
        AND sizes."""
        src = """
        int main(void) {
            int *zp = (int*)malloc(8);
            short *sp = (short*)zp;
            int i; int s = 0;
            L: for (i = 0; i < 4; i++) {
                sp[1] = (short)i;      // bytes 2-3
                s = s + zp[0];         // bytes 0-3: overlaps
            }
            print_int(s);
            return 0;
        }
        """
        p, _ = profile(src)
        assert any(e.kind == FLOW for e in p.ddg.edges)

    def test_memset_creates_store_sites(self):
        src = wrap("memset(buf, 0, 16); buf[2] = i; y = buf[2];",
                   "char buf[16]; int y;")
        p, _ = profile(src)
        assert len(p.ddg.store_sites) >= 2

    # The tracker keeps state per (addr, size) cell and cuts a cell
    # where an access of another shape overlaps it; each case below
    # forces one kind of cut and must still match the byte-per-byte
    # oracle field for field.

    @staticmethod
    def _aliased(body, post=""):
        """``wrap`` around a global ``int x`` whose bytes ``char *c``
        aliases."""
        return wrap(body, "int x;", post).replace(
            "int i;", "int i; char *c = (char*)&x;")

    @staticmethod
    def _checked(src):
        """The profile of ``L``, checked against the oracle's."""
        program, sema = parse_and_analyze(src)
        loop = ast.find_loop(program, "L")
        got = profile_loop(program, sema, loop)
        assert not profile_diff(
            got, oracle_profile_loop(program, sema, loop))
        return got

    @staticmethod
    def _stores(ddg):
        """Store sites bar the exempt ``i++``, which has no edges."""
        return {s for s in ddg.store_sites if ddg.edges_of(s)}

    def test_int_store_then_char_loads_of_each_byte(self):
        ddg = self._checked(self._aliased(
            "x = i + 1; print_int(c[0] + c[1] + c[2] + c[3]);")).ddg
        (store,) = self._stores(ddg)
        flows = {e.dst for e in ddg.edges if e.src == store
                 and e.kind == FLOW and not e.carried}
        assert len(flows) == 4          # one per char load site
        assert flows == {e.src for e in ddg.edges if e.dst == store
                         and e.kind == ANTI and e.carried}

    def test_char_stores_then_one_int_load(self):
        ddg = self._checked(self._aliased(
            "c[0] = 1; c[1] = 2; c[2] = 3; c[3] = i; print_int(x);")).ddg
        assert len(self._stores(ddg)) == 4
        flows = [e for e in ddg.edges if e.kind == FLOW]
        assert {e.src for e in flows} == self._stores(ddg)
        assert len({e.dst for e in flows}) == 1     # the int load
        assert not any(e.carried for e in flows)    # covered every time

    def test_access_straddling_two_cells(self):
        ddg = self._checked(wrap(
            "a[0] = i; a[1] = i + 1; print_int(*p);", "int a[2];"
        ).replace("int i;", "int i; int *p = (int*)((char*)a + 2);")).ddg
        assert len(self._stores(ddg)) == 2
        flows = [e for e in ddg.edges if e.kind == FLOW]
        assert {e.src for e in flows} == self._stores(ddg)
        assert len({e.dst for e in flows}) == 1
        assert not any(e.carried for e in flows)

    def test_split_keeps_readers_of_earlier_iterations(self):
        """Iterations 0-1 read ``x`` whole; iteration 2 stores one of
        its bytes.  The cell splits with readers on it, and the carried
        anti dependence from those reads must survive the split."""
        ddg = self._checked(self._aliased(
            "if (i < 2) print_int(x); if (i == 2) c[1] = 7;",
            post="print_int(x);")).ddg
        (store,) = self._stores(ddg)
        (anti,) = [e for e in ddg.edges if e.kind == ANTI]
        assert anti.dst == store and anti.carried
        assert anti.src in ddg.upward_exposed
        assert ddg.downward_exposed == {store}

    def test_freed_address_reused_at_another_element_size(self):
        ddg = self._checked("""
        int *p; char *q;
        int main(void) {
            int i;
            L: for (i = 0; i < 6; i++) {
                if (i % 2 == 0) {
                    p = (int*)malloc(8);
                    p[0] = i; p[1] = i; print_int(p[1]);
                    free(p);
                } else {
                    q = (char*)malloc(8);
                    q[5] = (char)i; print_int(q[5]);
                    free(q);
                }
            }
            return 0;
        }
        """).ddg
        # the allocator hands the block back: the char store lands in
        # the middle of the cell p[1] made, one iteration later
        crossing = {(e.src, e.dst) for e in ddg.edges
                    if e.kind == OUTPUT and e.carried and e.src != e.dst}
        assert len(crossing) == 2       # p[1] ~> q[5] and back
        assert {pair[::-1] for pair in crossing} == crossing

    def test_recycled_block_counts_for_both_allocation_sites(self):
        """The allocator recycles a freed block *record* for the next
        ``malloc`` of that size, retagged: one access site, one address,
        two objects."""
        got = self._checked("""
        int *p;
        int main(void) {
            int i;
            L: for (i = 0; i < 6; i++) {
                if (i % 2 == 0) p = (int*)malloc(8);
                else p = (int*)malloc(8);
                p[0] = i;
                free(p);
            }
            return 0;
        }
        """)
        heap = [objs for objs in got.site_objects.values()
                if all(kind == "heap" for kind, _ in objs)]
        assert heap and all(len(objs) == 2 for objs in heap)


class TestControlVariable:
    def test_control_var_exempt_from_deps(self):
        p, _ = profile(wrap("x = i;", "int x;"))
        # i carries an obvious flow dep (i++ reads i), but it is the
        # scheduler's induction variable: exempted
        for site, objs in p.site_objects.items():
            labels = {p.object_labels[o] for o in objs}
            if "i" in labels:
                assert not p.ddg.edges_of(site) or True

    def test_find_control_decl(self):
        program, sema = parse_and_analyze(
            "int main(void) { int i; L: for (i=0;i<3;i++) { } return 0; }"
        )
        loop = ast.find_loop(program, "L")
        assert find_control_decl(loop).name == "i"

    def test_find_control_decl_while_is_none(self):
        program, sema = parse_and_analyze(
            "int main(void) { L: while (0) { } return 0; }"
        )
        assert find_control_decl(ast.find_loop(program, "L")) is None


class TestBookkeeping:
    def test_iteration_count(self):
        p, _ = profile(wrap("x = i;", "int x;"))
        assert p.iterations == 6

    def test_multiple_executions_merge(self):
        src = """
        int x;
        int main(void) {
            int t; int i;
            for (t = 0; t < 3; t++) {
                L: for (i = 0; i < 5; i++) { x = i; }
            }
            return 0;
        }
        """
        p, _ = profile(src)
        assert p.executions == 3 and p.iterations == 15

    def test_loop_time_fraction(self):
        p, _ = profile(wrap("x = x + i * i;", "int x;"))
        assert 0.0 < p.loop_time_fraction <= 1.0

    def test_site_objects_identify_structures(self):
        src = wrap("buf[i % 4] = i;", "int *buf;",
                   ).replace("int main(void) {",
                             "int main(void) { buf = (int*)malloc(16);")
        p, _ = profile(src)
        labels = set()
        for objs in p.site_objects.values():
            labels |= {p.object_labels[o] for o in objs}
        assert any("malloc" in lbl for lbl in labels)

    def test_dyn_counts_weighting(self):
        p, _ = profile(wrap("x = i; x = i; ", "int x;"))
        assert p.ddg.total_dynamic_accesses() >= 12  # 2 stores x 6 iters

    def test_loop_never_executed_raises(self):
        src = """
        int main(void) {
            int i;
            if (0) {
                L: for (i = 0; i < 3; i++) { }
            }
            return 0;
        }
        """
        program, sema = parse_and_analyze(src)
        loop = ast.find_loop(program, "L")
        with pytest.raises(RuntimeError, match="never executed"):
            profile_loop(program, sema, loop)

    def test_while_loop_with_break(self):
        src = """
        int main(void) {
            int n = 0;
            L: while (1) {
                n++;
                if (n >= 4) break;
            }
            print_int(n);
            return 0;
        }
        """
        p, _ = profile(src)
        assert p.iterations == 4


def _native_ok():
    from repro.interp.native import native_backend_available
    return native_backend_available()


class TestTheProfiledRun:
    """The profile run is a plain sequential run: each condition test
    of the profiled loop is charged as a plain run charges it, and
    ``loop_cycles`` leaves those charges out, as the parallel drivers
    do."""

    LOOPS = {
        "for": ("", "L: for (i = 0; i < 6; i++) { x = x + i * i; }", 7),
        "dowhile": ("i = 0;",
                    "L: do { x = x + i * i; i++; } while (i < 6);", 6),
    }

    @staticmethod
    def _plain(source, engine):
        from repro.interp import Machine
        program, sema = parse_and_analyze(source)
        machine = Machine(program, sema, engine=engine,
                          controlled=frozenset())
        return machine, machine.run("main")

    @pytest.mark.parametrize("shape", sorted(LOOPS))
    @pytest.mark.parametrize("engine", ["ast", "bytecode", pytest.param(
        "native", marks=pytest.mark.skipif(not _native_ok()[0],
                                           reason=_native_ok()[1]))])
    def test_records_a_plain_run(self, engine, shape):
        from repro.interp.costs import COSTS
        setup, loop, tests = self.LOOPS[shape]
        template = """
        int x;
        int main(void) {{
            int i;
            x = 3; {setup}
            {loop}
            print_int(x);
            return 5;
        }}
        """
        source = template.format(setup=setup, loop=loop)
        program, sema = parse_and_analyze(source)
        p = profile_loop(program, sema, ast.find_loop(program, "L"),
                         engine=engine)
        plain, exit_code = self._plain(source, engine)
        assert (p.output, p.exit_code, p.total_cycles, p.peak) == (
            plain.output, exit_code, plain.cost.cycles,
            plain.memory.peak_footprint())
        # the loop's share of the plain run, less one charge per test
        without, _ = self._plain(template.format(setup=setup, loop=""),
                                 engine)
        assert p.loop_cycles == plain.cost.cycles - without.cost.cycles \
            - tests * COSTS["alu"]
