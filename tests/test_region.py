"""The loop region: what a loop's iterations can run."""

from repro.frontend import ast, parse_and_analyze
from repro.frontend.region import address_taken, loop_region

_SRC = """
int acc[4];
int h(int x) { return x + 1; }
int f(int x) { acc[0] = acc[0] + h(x); return x; }
int g(int x) { return x; }
int k(int x) { return x * 2; }
int unused(int x) { return k(x); }
int main(void) {
    int i;
    L: for (i = 0; i < 4; i++) {
        int m[2][2] = {{0, 1}, {2, g(i)}};
        acc[1] = f(i) + f(m[1][1]);
    }
    D: for (i = 0; i < 4; i++) acc[2] = (i % 2 ? f : g)(i);
    print_int(acc[0] + acc[1] + acc[2] + unused(1));
    return 0;
}
"""


def _region(label):
    program, sema = parse_and_analyze(_SRC)
    return program, sema, loop_region(ast.find_loop(program, label),
                                      sema.functions)


def test_callees_in_first_call_order_each_walked_once():
    _program, _sema, region = _region("L")
    assert [fn.name for fn in region.callees] == ["g", "f", "h"]
    assert not region.indirect
    # a call inside a nested brace initializer is reached too; each
    # callee's params, then its body, follow its first call at once
    for fn in region.callees:
        at = [i for i, n in enumerate(region.nodes) if n is fn.body]
        assert len(at) == 1
        head = region.nodes[at[0] - len(fn.params) - 1:at[0]]
        assert isinstance(head[0], ast.Call)
        assert head[0].callee_name == fn.name
        assert head[1:] == fn.params


def test_an_indirect_call_reaches_every_address_taken_function():
    _program, sema, region = _region("D")
    assert region.indirect
    assert [fn.name for fn in address_taken(sema.functions)] == ["f", "g"]
    assert [fn.name for fn in region.callees] == ["f", "g", "h"]
