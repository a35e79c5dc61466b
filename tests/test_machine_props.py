"""Property-based differential testing of expression evaluation: random
MiniC integer expressions are evaluated by the machine and by a Python
oracle implementing C's wrap/truncate semantics, and random typed
programs run on every engine against the walker."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.frontend import parse_and_analyze
from repro.frontend.ctypes import INT
from repro.interp import Machine, run_source


class Lit:
    def __init__(self, value):
        self.value = INT.wrap(value)

    def render(self):
        # negative literals parenthesized to survive unary parsing
        return f"({self.value})" if self.value < 0 else str(self.value)

    def eval(self):
        return self.value


class Bin:
    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    def render(self):
        return f"({self.left.render()} {self.op} {self.right.render()})"

    def eval(self):
        a = self.left.eval()
        b = self.right.eval()
        if a is None or b is None:
            return None  # poisoned subtree (div-by-zero/negative shift)
        if self.op == "+":
            return INT.wrap(a + b)
        if self.op == "-":
            return INT.wrap(a - b)
        if self.op == "*":
            return INT.wrap(a * b)
        if self.op == "/":
            if b == 0:
                return None
            q = abs(a) // abs(b)
            return INT.wrap(-q if (a < 0) != (b < 0) else q)
        if self.op == "%":
            if b == 0:
                return None
            q = abs(a) // abs(b)
            q = -q if (a < 0) != (b < 0) else q
            return INT.wrap(a - q * b)
        if self.op == "&":
            return INT.wrap(a & b)
        if self.op == "|":
            return INT.wrap(a | b)
        if self.op == "^":
            return INT.wrap(a ^ b)
        if self.op == "<<":
            return INT.wrap(a << (b & 63)) if b >= 0 else None
        if self.op == ">>":
            return INT.wrap(a >> (b & 63)) if b >= 0 else None
        if self.op == "<":
            return 1 if a < b else 0
        if self.op == "==":
            return 1 if a == b else 0
        raise AssertionError(self.op)


OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "<", "=="]


def expr_strategy(depth=3):
    leaf = st.integers(-2**31, 2**31 - 1).map(Lit)
    if depth == 0:
        return leaf
    sub = expr_strategy(depth - 1)
    node = st.builds(Bin, st.sampled_from(OPS), sub, sub)
    return st.one_of(leaf, node)


class TestExpressionOracle:
    @given(expr_strategy())
    @settings(max_examples=120, deadline=None)
    def test_machine_matches_oracle(self, tree):
        expected = tree.eval()
        if expected is None:
            return  # division by zero somewhere: skip
        source = (
            f"int main(void) {{ int r = {tree.render()};"
            f" print_int(r); return 0; }}"
        )
        machine = run_source(source)
        assert machine.output == [str(expected)], tree.render()

    @given(st.integers(-2**31, 2**31 - 1), st.integers(-2**31, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_commutativity_of_wrapping_ops(self, a, b):
        def run_one(expr):
            return run_source(
                f"int main(void) {{ print_int({expr}); return 0; }}"
            ).output[0]

        la = f"({a})" if a < 0 else str(a)
        lb = f"({b})" if b < 0 else str(b)
        for op in ("+", "*", "&", "|", "^"):
            assert run_one(f"{la} {op} {lb}") == run_one(f"{lb} {op} {la}")

    @given(st.integers(-10**9, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_negation_involution(self, a):
        lit = f"({a})" if a < 0 else str(a)
        machine = run_source(
            f"int main(void) {{ int x = {lit}; print_int(-(-x));"
            f" return 0; }}"
        )
        assert machine.output == [str(INT.wrap(a))]


class TestMemoryRoundtripProps:
    @given(st.lists(st.integers(-2**31, 2**31 - 1), min_size=1,
                    max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_array_store_load_roundtrip(self, values):
        n = len(values)
        stores = " ".join(
            f"a[{i}] = ({v});" for i, v in enumerate(values)
        )
        prints = " ".join(f"print_int(a[{i}]);" for i in range(n))
        machine = run_source(
            f"int main(void) {{ int a[{n}]; {stores} {prints} return 0; }}"
        )
        assert machine.output == [str(INT.wrap(v)) for v in values]

    @given(st.lists(st.integers(-128, 127), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_char_narrowing(self, values):
        n = len(values)
        stores = " ".join(
            f"c[{i}] = ({v});" for i, v in enumerate(values)
        )
        prints = " ".join(f"print_int(c[{i}]);" for i in range(n))
        machine = run_source(
            f"int main(void) {{ char c[{n}]; {stores} {prints}"
            f" return 0; }}"
        )
        assert machine.output == [str(v) for v in values]


# ---------------------------------------------------------------------------
# typed programs: walker, closures and C agree on everything they report
# ---------------------------------------------------------------------------

#: one local of every scalar type
TYPED_VARS = {"c": "char", "uc": "unsigned char", "s": "short",
              "us": "unsigned short", "i": "int", "ui": "unsigned int",
              "l": "long", "ul": "unsigned long", "f": "float",
              "d": "double"}
INT_VARS = ("c", "uc", "s", "us", "i", "ui", "l", "ul")
FLOAT_VARS = ("f", "d")
INT_OPS = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>")
FLOAT_OPS = ("+", "-", "*", "/")
CMP_OPS = ("<", ">", "<=", ">=", "==", "!=")

_int_lits = (st.sampled_from([0, 1, -1, 2, 3, 7, 100, -128, 255, 32767,
                              -32768, 65535, 2147483647, -2147483648])
             | st.integers(-2**31, 2**31 - 1))
_float_lits = st.integers(-40000, 40000).map(lambda n: n / 8)


def _lit(v):
    text = repr(v)
    return f"({text})" if v < 0 else text


@st.composite
def int_exprs(draw, depth=2):
    """An integer-valued expression; pointers stay inside ``arr``."""
    leaf = draw(st.integers(0, 4 if depth else 3))
    if leaf == 0:
        return draw(st.sampled_from(INT_VARS))
    if leaf == 1:
        return _lit(draw(_int_lits))
    if leaf == 2:
        return draw(st.sampled_from(["*p", "(p - arr)", "((arr + 6) - p)"]))
    if leaf == 3 and not depth:
        return f"arr[{draw(st.integers(0, 7))}]"
    sub = int_exprs(depth - 1) if depth else int_exprs(0)
    shape = draw(st.integers(0, 6))
    if shape == 0:
        return f"({draw(sub)} {draw(st.sampled_from(INT_OPS))} {draw(sub)})"
    if shape == 1:
        return f"({draw(st.sampled_from(['-', '~', '!']))}{draw(sub)})"
    if shape == 2:
        to = draw(st.sampled_from(sorted(set(TYPED_VARS.values())
                                         - {"float", "double"})))
        inner = draw(st.one_of(sub, float_exprs(depth - 1)))
        return f"(({to})({inner}))"
    if shape == 3:
        return f"({draw(sub)} ? {draw(sub)} : {draw(sub)})"
    if shape == 4:
        v = draw(st.sampled_from(INT_VARS))
        return draw(st.sampled_from([f"{v}++", f"{v}--", f"++{v}",
                                     f"--{v}"]))
    if shape == 5:
        # an int beside a float compares through (int): exactly
        # representable as a double (no >2^53 carrier difference)
        if draw(st.booleans()):
            lhs, rhs = draw(sub), draw(sub)
        else:
            lhs, rhs = f"(int)({draw(sub)})", draw(float_exprs(depth - 1))
        return f"({lhs} {draw(st.sampled_from(CMP_OPS))} {rhs})"
    return f"arr[({draw(sub)}) & 7]"


@st.composite
def float_exprs(draw, depth=2):
    leaf = draw(st.integers(0, 2 if depth > 0 else 1))
    if leaf == 0:
        return draw(st.sampled_from(FLOAT_VARS))
    if leaf == 1:
        return _lit(draw(_float_lits))
    sub = float_exprs(depth - 1)
    shape = draw(st.integers(0, 3))
    if shape == 0:
        rhs = draw(st.one_of(sub, int_exprs(depth - 1).map(
            lambda e: f"(int)({e})")))
        return f"({draw(sub)} {draw(st.sampled_from(FLOAT_OPS))} {rhs})"
    if shape == 1:
        inner = draw(st.one_of(sub, int_exprs(depth - 1)))
        return f"(({draw(st.sampled_from(['float', 'double']))})({inner}))"
    if shape == 2:
        return f"({draw(int_exprs(depth - 1))} ? {draw(sub)} : {draw(sub)})"
    return f"(-{draw(sub)})"


@st.composite
def typed_programs(draw):
    body = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.integers(0, 5))
        if kind <= 1:
            v = draw(st.sampled_from(sorted(TYPED_VARS)))
            ops = INT_OPS if v in INT_VARS else FLOAT_OPS
            op = "=" if kind == 0 else draw(st.sampled_from(ops)) + "="
            rhs = draw(st.one_of(int_exprs(), float_exprs()))
            body.append(f"{v} {op} {rhs};")
        elif kind == 2:
            body.append(f"print_int({draw(int_exprs())});")
        elif kind == 3:
            body.append(f"print_double({draw(float_exprs())});")
        elif kind == 4:
            body.append(f"p = arr + {draw(st.integers(2, 5))}; "
                        f"p += {draw(st.integers(0, 2))}; "
                        f"p -= {draw(st.integers(0, 2))};")
        else:
            body.append(draw(st.sampled_from(["p++;", "p--;"])))
            body.append("p = arr + ((p - arr) & 7);")
    decls = " ".join(
        f"{t} {v} = "
        f"{_lit(draw(_float_lits if v in FLOAT_VARS else _int_lits))};"
        for v, t in TYPED_VARS.items())
    prints = " ".join(f"print_double({v});" if v in FLOAT_VARS
                      else f"print_int({v});" for v in TYPED_VARS)
    return (f"int main(void) {{ {decls} int arr[8]; int *p; int k; "
            f"for (k = 0; k < 8; k++) arr[k] = k * 7 - 20; "
            f"p = arr + 3; {' '.join(body)} {prints} return 0; }}")


def _typed_run(program, sema, engine):
    machine = Machine(program, sema, engine=engine)
    try:
        outcome = machine.run()
    except Exception as exc:
        outcome = (type(exc), str(exc))
    cost = machine.cost
    return (outcome, tuple(machine.output), cost.cycles, cost.instructions,
            cost.loads, cost.stores)


def _engines():
    from repro.interp.native import native_backend_available
    return ("bytecode", "native") if native_backend_available()[0] \
        else ("bytecode",)


class TestTypedEngineParity:
    """Every integer width and signedness, float and double, pointer
    arithmetic over a local array, casts, compound assigns, ``++``/``--``
    and ``?:``: the closures and the C emitter — two translators of one
    lowered form — reproduce the walker's output, exit code, cycles,
    instructions, loads and stores, and a division by zero raises the
    walker's exception with the walker's text."""

    @given(typed_programs())
    @settings(max_examples=40, deadline=None)
    def test_engines_match_the_walker(self, source):
        program, sema = parse_and_analyze(source)
        reference = _typed_run(program, sema, "ast")
        # int(nan) / int(inf): the walker raises where compiled code
        # cannot (the documented NaN divergence)
        assume(reference[0] not in ((ValueError,), (OverflowError,))
               and not (isinstance(reference[0], tuple)
                        and reference[0][0] in (ValueError, OverflowError)))
        for engine in _engines():
            assert _typed_run(program, sema, engine) == reference, engine

    @pytest.mark.parametrize("expr,text", [
        ("i / (c - c)", "integer division by zero"),
        ("ul % (ui * 0)", "integer division by zero"),
        ("d / (f - f)", "float division by zero"),
    ])
    def test_division_by_zero_raises_the_walkers_error(self, expr, text):
        decls = " ".join(f"{t} {v} = 3;" for v, t in TYPED_VARS.items())
        program, sema = parse_and_analyze(
            f"int main(void) {{ {decls} print_int(1); "
            f"print_double({expr}); return 0; }}")
        reference = _typed_run(program, sema, "ast")
        assert reference[0][0].__name__ == "InterpError"
        assert reference[0][1].endswith(text)
        for engine in _engines():
            assert _typed_run(program, sema, engine) == reference, engine
