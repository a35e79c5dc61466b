"""Andersen points-to analysis tests, including a soundness check
against the dynamic profiler's observed objects on every benchmark."""

import pytest

from repro.analysis import analyze_pointsto, profile_loop
from repro.analysis.privatization import classify
from repro.frontend import ast, parse_and_analyze


def pts_env(source):
    program, sema = parse_and_analyze(source)
    result = analyze_pointsto(program, sema)
    decls = {}
    for fn in program.functions():
        for node in fn.body.walk():
            if isinstance(node, ast.DeclStmt):
                for d in node.decls:
                    decls[d.name] = d
    for d in sema.globals:
        decls[d.name] = d
    return program, result, decls


def points_to_labels(result, decl):
    objs = result.pts_of(("obj", ("var", decl.nid)))
    return {result.object_labels.get(o, str(o)) for o in objs}


class TestBasics:
    def test_address_of(self):
        _, r, d = pts_env(
            "int main(void) { int a; int *p = &a; return *p; }"
        )
        assert points_to_labels(r, d["p"]) == {"a"}

    def test_copy_propagates(self):
        _, r, d = pts_env(
            "int main(void) { int a; int *p = &a; int *q; q = p;"
            " return *q; }"
        )
        assert points_to_labels(r, d["q"]) == {"a"}

    def test_malloc_site_object(self):
        _, r, d = pts_env(
            "int main(void) { int *p = (int*)malloc(8); free(p); return 0; }"
        )
        labels = points_to_labels(r, d["p"])
        assert len(labels) == 1 and "malloc" in next(iter(labels))

    def test_two_sites_union(self):
        _, r, d = pts_env("""
        int main(void) {
            int *p;
            if (1) { p = (int*)malloc(4); } else { p = (int*)malloc(8); }
            free(p);
            return 0;
        }
        """)
        assert len(points_to_labels(r, d["p"])) == 2

    def test_store_and_load_through_pointer(self):
        _, r, d = pts_env("""
        int main(void) {
            int a;
            int *p = &a;
            int **pp = &p;
            int *q;
            q = *pp;
            return *q;
        }
        """)
        assert "a" in points_to_labels(r, d["q"])

    def test_array_of_pointers(self):
        _, r, d = pts_env("""
        int main(void) {
            int a; int b;
            int *tab[2];
            tab[0] = &a;
            tab[1] = &b;
            int *q = tab[1];
            return *q;
        }
        """)
        assert {"a", "b"} <= points_to_labels(r, d["q"])

    def test_linked_structure(self):
        _, r, d = pts_env("""
        struct n { int v; struct n *next; };
        int main(void) {
            struct n *head = 0;
            int i;
            for (i = 0; i < 3; i++) {
                struct n *x = (struct n*)malloc(sizeof(struct n));
                x->next = head;
                head = x;
            }
            struct n *walker = head;
            while (walker) { walker = walker->next; }
            return 0;
        }
        """)
        labels = points_to_labels(r, d["walker"])
        assert any("malloc" in lbl for lbl in labels)

    def test_function_return_flows(self):
        _, r, d = pts_env("""
        int g;
        int *get(void) { return &g; }
        int main(void) { int *p = get(); return *p; }
        """)
        assert "g" in points_to_labels(r, d["p"])

    def test_param_binding(self):
        program, r, d = pts_env("""
        int use(int *q) { return *q; }
        int main(void) { int a; int aux = use(&a); return aux; }
        """)
        fn = program.function("use")
        q = fn.params[0]
        assert "a" in points_to_labels(r, q)

    def test_cast_preserves_targets(self):
        _, r, d = pts_env("""
        int main(void) {
            int *zp = (int*)malloc(8);
            short *sp = (short*)zp;
            sp[0] = 1;
            free(zp);
            return 0;
        }
        """)
        assert points_to_labels(r, d["sp"]) == points_to_labels(r, d["zp"])

    def test_memcpy_copies_pointers(self):
        _, r, d = pts_env("""
        int main(void) {
            int a;
            int *src[1];
            int *dst[1];
            src[0] = &a;
            memcpy(dst, src, sizeof(src));
            int *q = dst[0];
            return *q;
        }
        """)
        assert "a" in points_to_labels(r, d["q"])

    def test_pointer_arithmetic_keeps_object(self):
        _, r, d = pts_env("""
        int main(void) {
            int a[8];
            int *p = &a[2];
            int *q = p + 3;
            return *q;
        }
        """)
        assert "a" in points_to_labels(r, d["q"])

    def test_realloc_flows_old_contents(self):
        _, r, d = pts_env("""
        int main(void) {
            int a;
            int **tab = (int**)malloc(8);
            tab[0] = &a;
            tab = (int**)realloc(tab, 16);
            int *q = tab[0];
            return *q;
        }
        """)
        assert "a" in points_to_labels(r, d["q"])


class TestAccessObjects:
    def test_objects_of_deref(self):
        program, r, d = pts_env("""
        int main(void) {
            int *p = (int*)malloc(8);
            *p = 3;
            free(p);
            return 0;
        }
        """)
        main = program.function("main")
        derefs = [
            n for n in main.body.walk()
            if isinstance(n, ast.Unary) and n.op == "*"
        ]
        objs = r.objects_of_access(derefs[0].nid)
        assert objs and all(kind == "heap" for kind, _ in objs)

    def test_objects_of_global_index(self):
        program, r, d = pts_env(
            "int g[4]; int main(void) { g[1] = 2; return g[1]; }"
        )
        main = program.function("main")
        idx = next(n for n in main.body.walk() if isinstance(n, ast.Index))
        objs = r.objects_of_access(idx.nid)
        assert objs == {("var", d["g"].nid)}


@pytest.mark.slow
def _points_to_obj(key):
    """A profiler object key (segment kind, tag) in the points-to
    object vocabulary (None: rodata)."""
    kind, tag = key
    if kind in ("global", "stack"):
        return ("var", tag)
    if kind == "heap":
        return ("heap", tag)
    return None


class TestSoundnessAgainstProfile:
    """The static analysis must over-approximate the dynamic truth:
    every object a private site touched at run time must be in its
    static points-to set.  Checked on every benchmark kernel."""

    @pytest.mark.parametrize("name", [
        "dijkstra", "md5", "256.bzip2", "456.hmmer", "470.lbm",
        "mpeg2-encoder", "mpeg2-decoder", "h263-encoder",
    ])
    def test_benchmark_soundness(self, name):
        from repro.bench import get

        spec = get(name)
        program, sema = parse_and_analyze(spec.source)
        pointsto = analyze_pointsto(program, sema)
        for label in spec.loop_labels:
            loop = ast.find_loop(program, label)
            profile = profile_loop(program, sema, loop)
            priv = classify(profile.ddg)
            for site in priv.private_sites:
                static = pointsto.objects_of_access(site)
                if not static:
                    continue  # site form not tracked (conservative path)
                for key in profile.site_objects.get(site, ()):
                    norm = _points_to_obj(key)
                    if norm is None:
                        continue
                    assert norm in static, (
                        name, site, norm,
                        {pointsto.object_labels.get(o, o) for o in static},
                    )
