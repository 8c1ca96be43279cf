"""Tests for the Mahler-flavored expression IR, including differential
fuzzing: random expression trees compiled to machine code must agree with
their own pure-Python evaluation."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.exceptions import SimulationError
from repro.vectorize.ir import Kernel
from repro.workloads.common import Lcg


def make_data(names, length, seed=3, lo=0.1, hi=2.0):
    rng = Lcg(seed)
    return {name: rng.floats(length, lo, hi) for name in names}


class TestBasics:
    def test_elementwise_assignment(self):
        k = Kernel()
        x = k.input("x")
        out = k.output("out")
        k.assign(out, x[0] * 2.0 + 1.0)
        data = make_data(["x"], 20)
        outcome = k.compile(n=20, data=data).run()
        assert outcome.passed, outcome.check_error
        assert outcome.outputs["out"][3] == data["x"][3] * 2.0 + 1.0

    def test_livermore_loop1_shape(self):
        k = Kernel()
        y, z = k.input("y"), k.input("z")
        q, r, t = k.param("q"), k.param("r"), k.param("t")
        x = k.output("x")
        k.assign(x, q + y[0] * (r * z[10] + t * z[11]))
        data = make_data(["y"], 40)
        data["z"] = make_data(["z"], 51)["z"]
        outcome = k.compile(n=40, data=data,
                            params={"q": 0.5, "r": 0.25, "t": 0.125}).run()
        assert outcome.passed, outcome.check_error

    def test_offsets(self):
        k = Kernel()
        y = k.input("y")
        x = k.output("x")
        k.assign(x, y[1] - y[0])  # first difference
        data = make_data(["y"], 33)
        outcome = k.compile(n=32, data=data).run()
        assert outcome.passed
        assert outcome.outputs["x"][0] == data["y"][1] - data["y"][0]

    def test_reduction(self):
        k = Kernel()
        a, b = k.input("a"), k.input("b")
        k.reduce_sum(a[0] * b[0], name="dot")
        data = make_data(["a", "b"], 25)
        outcome = k.compile(n=25, data=data).run()
        assert outcome.passed, outcome.check_error
        direct = sum(x * y for x, y in zip(data["a"], data["b"]))
        assert outcome.sums["dot"] == pytest.approx(direct, rel=1e-12)

    def test_division_uses_newton_schedule(self):
        k = Kernel()
        a, b = k.input("a"), k.input("b")
        out = k.output("out")
        k.assign(out, a[0] / b[0])
        data = make_data(["a", "b"], 10)
        outcome = k.compile(n=10, data=data).run()
        assert outcome.passed, outcome.check_error

    def test_raw_reciprocal_is_approximate(self):
        k = Kernel()
        a = k.input("a")
        out = k.output("out")
        k.assign(out, a[0].reciprocal())
        data = {"a": [2.0] * 8}
        outcome = k.compile(n=8, data=data).run(rel_tol=1e-4)
        assert outcome.passed, outcome.check_error
        assert outcome.outputs["out"][0] == pytest.approx(0.5, rel=1e-4)

    def test_multiple_statements(self):
        k = Kernel()
        a = k.input("a")
        double = k.output("double")
        square = k.output("square")
        k.assign(double, a[0] + a[0])
        k.assign(square, a[0] * a[0])
        k.reduce_sum(a[0], name="total")
        data = make_data(["a"], 17)
        outcome = k.compile(n=17, data=data).run()
        assert outcome.passed, outcome.check_error


class TestValidation:
    def test_missing_data(self):
        k = Kernel()
        k.input("a")
        k.assign(k.output("o"), k.input("b")[0])
        with pytest.raises(SimulationError):
            k.compile(n=4, data={"a": [1.0] * 4})

    def test_short_data_for_offset(self):
        k = Kernel()
        y = k.input("y")
        k.assign(k.output("o"), y[5])
        with pytest.raises(SimulationError):
            k.compile(n=10, data={"y": [0.0] * 12})  # needs 15

    def test_missing_param(self):
        k = Kernel()
        q = k.param("q")
        k.assign(k.output("o"), k.input("a")[0] * q)
        with pytest.raises(SimulationError):
            k.compile(n=4, data={"a": [1.0] * 4})

    def test_assign_to_input_rejected(self):
        k = Kernel()
        a = k.input("a")
        with pytest.raises(SimulationError):
            k.assign(a, a[0])

    def test_footprints(self):
        k = Kernel()
        z = k.input("z")
        k.assign(k.output("o"), z[10] + z[3])
        assert k.footprints()["z"] == (3, 10)


class TestAutomaticStripShortening:
    def test_deep_tree_compiles_by_halving_vl(self):
        """A tree too wide for VL=8 must fall back to a shorter strip
        instead of failing (the paper made the programmer do this)."""
        k = Kernel(vl=8)
        inputs = [k.input("a%d" % i) for i in range(8)]
        expr = inputs[0][0]
        for handle in inputs[1:]:
            expr = expr + handle[0]
        expr = expr * expr + expr
        k.assign(k.output("o"), expr)
        data = make_data(["a%d" % i for i in range(8)], 16)
        compiled = k.compile(n=16, data=data)
        assert compiled.vl < 8
        outcome = compiled.run()
        assert outcome.passed, outcome.check_error


# ---------------------------------------------------------------------------
# Differential fuzzing: random trees vs their own Python evaluation
# ---------------------------------------------------------------------------

def expression_trees(max_depth=4):
    leaf = st.one_of(
        st.tuples(st.just("load"), st.sampled_from(["a", "b", "c"]),
                  st.integers(0, 3)),
        st.tuples(st.just("param"), st.sampled_from(["p", "q"])),
        st.tuples(st.just("lit"),
                  st.floats(min_value=0.25, max_value=4.0)),
    )

    def extend(children):
        return st.tuples(st.sampled_from(["+", "-", "*", "/"]),
                         children, children)

    return st.recursive(leaf, extend, max_leaves=10)


def materialize(tree, kernel, handles, params):
    kind = tree[0]
    if kind == "load":
        return handles[tree[1]][tree[2]]
    if kind == "param":
        return params[tree[1]]
    if kind == "lit":
        return tree[1]
    operator, left, right = tree
    lhs = materialize(left, kernel, handles, params)
    rhs = materialize(right, kernel, handles, params)
    from repro.vectorize.ir import _wrap
    lhs, rhs = _wrap(lhs), _wrap(rhs)
    if operator == "+":
        return lhs + rhs
    if operator == "-":
        return lhs - rhs
    if operator == "*":
        return lhs * rhs
    return lhs / rhs


#: Unit roundoff of binary64 round-to-nearest.
UNIT_ROUNDOFF = 2.0 ** -53

#: Relative disagreement allowed per operation between the machine and
#: the Python reference.  Each side rounds a +, - or * once.  The machine
#: divides with six chained operations (reciprocal approximation, two
#: Newton steps of two operations each, a final multiply -- see
#: repro.fparith.division), each rounding once; the 16-bit seed error is
#: squared twice to about 2**-64 and adds nothing visible.  The reference
#: rounds its quotient once more.
OP_BUDGET = {"+": 2 * UNIT_ROUNDOFF, "-": 2 * UNIT_ROUNDOFF,
             "*": 2 * UNIT_ROUNDOFF, "/": (6 + 1) * UNIT_ROUNDOFF}


def error_bound(tree, data, params, index):
    """``(value, bound)``: the Python value of ``tree`` at ``index`` and a
    first-order bound on how far the machine's result may sit from it.

    Running error analysis: a node's bound is its operands' bounds
    propagated through the operation, plus the operation's budget from
    :data:`OP_BUDGET` times the size of its result.  A subtraction passes
    its operands' absolute errors through unchanged, so when ``x - y``
    cancels to (near) zero the bound stays proportional to the magnitude
    of the operands that cancelled, where a relative tolerance accepts no
    error at all.  Away from cancellation the bound is a few ulps of the
    result, far inside the relative tolerance, so it widens nothing there.
    """
    kind = tree[0]
    if kind == "load":
        return data[tree[1]][index + tree[2]], 0.0
    if kind == "param":
        return params[tree[1]], 0.0
    if kind == "lit":
        return tree[1], 0.0
    operator, left, right = tree
    x, ex = error_bound(left, data, params, index)
    y, ey = error_bound(right, data, params, index)
    if operator == "+":
        value, error = x + y, ex + ey
    elif operator == "-":
        value, error = x - y, ex + ey
    elif operator == "*":
        value, error = x * y, ex * abs(y) + ey * abs(x)
    elif y:
        value = x / y
        error = (ex + ey * abs(value)) / abs(y)
    else:
        return math.inf, math.inf
    return value, error + OP_BUDGET[operator] * abs(value)


class TestDifferentialFuzz:
    @given(expression_trees(), st.integers(1, 24), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    # a/a - p/p: both quotients round a few ulps off 1.0, so the machine
    # returns -1.1e-16 where the reference cancels to exactly 0.0.
    @example(tree=("-", ("/", ("load", "a", 0), ("load", "a", 0)),
                   ("/", ("param", "p"), ("param", "p"))), n=1, seed=0)
    def test_random_tree_matches_python(self, tree, n, seed):
        k = Kernel()
        handles = {name: k.input(name) for name in ("a", "b", "c")}
        params = {"p": k.param("p"), "q": k.param("q")}
        out = k.output("out")
        expr = materialize(tree, k, handles, params)
        from repro.vectorize.ir import _wrap
        k.assign(out, _wrap(expr))
        # Positive data keeps denominators away from zero; division by a
        # difference can still be extreme, so skip huge or non-finite
        # references.
        data = make_data(["a", "b", "c"], n + 3, seed=seed, lo=1.0, hi=2.0)
        param_values = {"p": 1.25, "q": 1.75}
        compiled = k.compile(n=n, data=data, params=param_values)
        expected, _ = compiled.expected()
        if not all(abs(v) < 1e12 for v in expected["out"][:n]):
            return  # the random tree hit a near-zero denominator
        outcome = compiled.run(check=False)
        for index in range(n):
            got = outcome.outputs["out"][index]
            want = expected["out"][index]
            _, bound = error_bound(tree, data, param_values, index)
            # Twice the first-order bound covers the neglected
            # second-order terms (products of two relative errors).
            assert math.isclose(got, want, rel_tol=1e-6,
                                abs_tol=2 * bound), \
                "out[%d] = %r, want %r (bound %r)" % (index, got, want, bound)
