"""Property-based tests (hypothesis) for the core invariants of the reproduction.

The invariants checked here are the ones the paper's correctness argument rests
on:

* interval arithmetic and the interval evaluator are *enclosing*;
* HC4 contraction and paving never lose solutions (soundness of ICP);
* the estimate algebra matches the closed-form mean/variance formulas;
* the compiled NumPy evaluator agrees with the reference interpreter;
* stratified estimates converge to the exact probability for box-shaped events.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.estimate import Estimate, product_independent, sum_disjoint
from repro.core.profiles import UsageProfile
from repro.icp.contractor import contract
from repro.icp.hc4 import (
    constraint_certainly_fails,
    constraint_certainly_holds,
    constraint_range,
    evaluate_interval,
    hc4_revise,
)
from repro.intervals import Box, Interval
from repro.intervals.functions import supported_functions
from repro.lang import ast
from repro.lang.compiler import compile_expression
from repro.lang.evaluator import evaluate, holds
from repro.lang.simplify import simplify_expression

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)
small_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
probabilities = st.floats(min_value=0.0, max_value=1.0)
variances = st.floats(min_value=0.0, max_value=0.25)


@st.composite
def intervals(draw):
    low = draw(finite_floats)
    high = draw(finite_floats)
    if low > high:
        low, high = high, low
    return Interval.make(low, high)


@st.composite
def expressions(draw, depth=0):
    """Random expressions over the variables x and y using safe operators."""
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(min_value=0, max_value=2))
        if choice == 0:
            return ast.const(draw(small_floats))
        return ast.var("x" if choice == 1 else "y")
    kind = draw(st.sampled_from(["+", "-", "*", "neg", "sin", "cos", "abs"]))
    if kind in ("+", "-", "*"):
        return ast.BinaryOp(kind, draw(expressions(depth + 1)), draw(expressions(depth + 1)))
    if kind == "neg":
        return ast.neg(draw(expressions(depth + 1)))
    return ast.call(kind, draw(expressions(depth + 1)))


# --------------------------------------------------------------------------- #
# Interval arithmetic properties
# --------------------------------------------------------------------------- #
class TestIntervalProperties:
    @given(intervals(), intervals(), small_floats, small_floats)
    def test_addition_encloses_pointwise_sum(self, a, b, ta, tb):
        x = a.lo + (a.hi - a.lo) * abs(math.sin(ta))
        y = b.lo + (b.hi - b.lo) * abs(math.sin(tb))
        assert (a + b).contains(x + y)

    @given(intervals(), intervals(), small_floats, small_floats)
    def test_multiplication_encloses_pointwise_product(self, a, b, ta, tb):
        x = a.lo + (a.hi - a.lo) * abs(math.sin(ta))
        y = b.lo + (b.hi - b.lo) * abs(math.sin(tb))
        product = (a * b)
        assert product.contains(x * y) or math.isclose(
            x * y, product.lo, rel_tol=1e-9
        ) or math.isclose(x * y, product.hi, rel_tol=1e-9)

    @given(intervals())
    def test_sqr_is_non_negative_enclosure(self, a):
        squared = a.sqr()
        if not a.is_empty():
            assert squared.lo >= 0.0
            assert squared.contains(a.lo * a.lo) or math.isclose(a.lo * a.lo, squared.hi, rel_tol=1e-12)

    @given(intervals(), intervals())
    def test_intersection_is_subset_of_both(self, a, b):
        inter = a.intersect(b)
        if not inter.is_empty():
            assert a.contains_interval(inter)
            assert b.contains_interval(inter)

    @given(intervals(), intervals())
    def test_hull_contains_both(self, a, b):
        hull = a.hull(b)
        assert hull.contains_interval(a)
        assert hull.contains_interval(b)


# --------------------------------------------------------------------------- #
# Interval evaluation and HC4 soundness
# --------------------------------------------------------------------------- #
class TestEnclosureProperties:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(expressions(), st.floats(0, 1), st.floats(0, 1))
    def test_interval_evaluation_encloses_concrete_evaluation(self, expr, tx, ty):
        box = Box.from_bounds({"x": (-2.0, 3.0), "y": (-1.0, 4.0)})
        x = -2.0 + 5.0 * tx
        y = -1.0 + 5.0 * ty
        value = evaluate(expr, {"x": x, "y": y})
        assume(math.isfinite(value))
        enclosure = evaluate_interval(expr, box)
        assert enclosure.contains(value) or math.isclose(value, enclosure.lo, abs_tol=1e-9) or math.isclose(
            value, enclosure.hi, abs_tol=1e-9
        )

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(expressions(), st.floats(0, 1), st.floats(0, 1), st.sampled_from(["<=", ">=", "<", ">"]))
    def test_hc4_revise_never_removes_solutions(self, expr, tx, ty, operator):
        constraint = ast.Constraint(operator, expr, ast.const(0.5))
        box = Box.from_bounds({"x": (-2.0, 3.0), "y": (-1.0, 4.0)})
        x = -2.0 + 5.0 * tx
        y = -1.0 + 5.0 * ty
        point = {"x": x, "y": y}
        assume(holds(constraint, point))
        narrowed = hc4_revise(constraint, box)
        assert narrowed is not None
        assert narrowed.contains_point(point)

    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(expressions(), st.floats(0, 1), st.floats(0, 1))
    def test_simplification_preserves_value(self, expr, tx, ty):
        point = {"x": -2.0 + 5.0 * tx, "y": -1.0 + 5.0 * ty}
        original = evaluate(expr, point)
        simplified = evaluate(simplify_expression(expr), point)
        if math.isnan(original):
            assert math.isnan(simplified) or math.isfinite(simplified)
        else:
            assert simplified == pytest.approx(original, rel=1e-9, abs=1e-9)

    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(expressions())
    def test_compiled_evaluator_matches_interpreter(self, expr):
        compiled = compile_expression(expr)
        xs = np.linspace(-2.0, 3.0, 5)
        ys = np.linspace(-1.0, 4.0, 5)
        values = compiled({"x": xs, "y": ys})
        for index in range(len(xs)):
            expected = evaluate(expr, {"x": xs[index], "y": ys[index]})
            actual = float(values[index])
            if math.isnan(expected):
                assert math.isnan(actual)
            else:
                assert actual == pytest.approx(expected, rel=1e-9, abs=1e-9)


# --------------------------------------------------------------------------- #
# Compiled HC4 sweeps over every node kind
# --------------------------------------------------------------------------- #
#: Every function with an interval extension.  ``pow`` is drawn with a
#: constant exponent only, integer or not: with a varying exponent the
#: interval extension drops negative bases, whose powers are real only at
#: integer exponents (a measure-zero set).
_FUNCTIONS = tuple(name for name in supported_functions() if name != "pow")
_BINARY_FUNCTIONS = ("atan2", "max", "min")

#: Domains of ``y``: a plain range, ``[0, 0]`` (divisions by it are by
#: ``[0, 0]``), and one strictly on each side of zero.
_Y_DOMAINS = ((-1.0, 4.0), (0.0, 0.0), (0.5, 2.0), (-3.0, -0.25))

#: ``x`` is bounded, ``y`` as above, ``w`` is unbounded (ENTIRE) and ``z`` is
#: missing from the box (so it is enclosed by the whole line too).
_X_DOMAIN = (-2.0, 3.0)
_W_SPREAD = 200.0
_Z_SPREAD = 20.0


@st.composite
def hc4_expressions(draw, depth=0):
    """Expressions over x, y, w, z using every operator, function and pow form."""
    if depth >= 3 or draw(st.integers(min_value=0, max_value=3)) == 0:
        choice = draw(st.integers(min_value=0, max_value=4))
        if choice == 0:
            return ast.const(draw(small_floats))
        return ast.var("xywz"[choice - 1])
    kind = draw(st.sampled_from(("+", "-", "*", "/", "neg", "square", "pow-int", "pow-real") + _FUNCTIONS))
    if kind in ("+", "-", "*", "/"):
        return ast.BinaryOp(kind, draw(hc4_expressions(depth + 1)), draw(hc4_expressions(depth + 1)))
    if kind == "neg":
        return ast.neg(draw(hc4_expressions(depth + 1)))
    if kind == "square":
        operand = draw(hc4_expressions(depth + 1))
        return ast.mul(operand, operand)
    if kind == "pow-int":
        return ast.call("pow", draw(hc4_expressions(depth + 1)), ast.const(draw(st.integers(-3, 4))))
    if kind == "pow-real":
        return ast.call("pow", draw(hc4_expressions(depth + 1)), ast.const(draw(st.sampled_from((0.5, 1.5, -0.5)))))
    if kind in _BINARY_FUNCTIONS:
        return ast.call(kind, draw(hc4_expressions(depth + 1)), draw(hc4_expressions(depth + 1)))
    return ast.call(kind, draw(hc4_expressions(depth + 1)))


def _hc4_box(y_domain):
    return Box(
        {
            "x": Interval(*_X_DOMAIN),
            "y": Interval(*y_domain),
            "w": Interval(-math.inf, math.inf),
        }
    )


def _hc4_point(y_domain, tx, ty, tw, tz):
    y_lo, y_hi = y_domain
    return {
        "x": _X_DOMAIN[0] + (_X_DOMAIN[1] - _X_DOMAIN[0]) * tx,
        "y": y_lo + (y_hi - y_lo) * ty,
        "w": (tw - 0.5) * _W_SPREAD,
        "z": (tz - 0.5) * _Z_SPREAD,
    }


def _finite_everywhere(expression, point) -> bool:
    """True when every sub-expression evaluates to a finite number at ``point``.

    Interval extensions enclose real values: a NaN or infinite intermediate
    (``acos(2)``, a division by zero) has no real value to enclose, and a
    later node may even turn it back into a number (``pow(nan, 0) == 1``).
    """
    return all(math.isfinite(evaluate(node, point)) for node in ast.walk(expression))


def _finite_solution(constraint, point) -> bool:
    """True when ``point`` satisfies ``constraint`` with finite values throughout."""
    return (
        _finite_everywhere(constraint.left, point)
        and _finite_everywhere(constraint.right, point)
        and holds(constraint, point)
    )


unit = st.floats(0, 1)
comparisons = st.sampled_from(["<=", ">=", "<", ">", "==", "!="])


class TestCompiledSweepProperties:
    """Solutions of a constraint survive the compiled forward/backward sweeps."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(hc4_expressions(), st.sampled_from(_Y_DOMAINS), unit, unit, unit, unit)
    def test_enclosure_contains_finite_values(self, expr, y_domain, tx, ty, tw, tz):
        point = _hc4_point(y_domain, tx, ty, tw, tz)
        assume(_finite_everywhere(expr, point))
        enclosure = evaluate_interval(expr, _hc4_box(y_domain))
        assert enclosure.contains(evaluate(expr, point))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(hc4_expressions(), hc4_expressions(), comparisons, st.sampled_from(_Y_DOMAINS), unit, unit, unit, unit)
    def test_revise_keeps_every_solution(self, left, right, operator, y_domain, tx, ty, tw, tz):
        constraint = ast.Constraint(operator, left, right)
        point = _hc4_point(y_domain, tx, ty, tw, tz)
        assume(_finite_solution(constraint, point))
        box = _hc4_box(y_domain)
        inside = {name: point[name] for name in box.variables}
        assert not constraint_certainly_fails(constraint, box)
        narrowed = hc4_revise(constraint, box)
        assert narrowed is not None
        assert narrowed.contains_point(inside)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(hc4_expressions(), hc4_expressions(), comparisons, st.sampled_from(_Y_DOMAINS), unit, unit, unit, unit)
    def test_conjunction_contraction_keeps_every_solution(self, first, second, operator, y_domain, tx, ty, tw, tz):
        pc = ast.PathCondition.of(
            [ast.Constraint(operator, first, ast.const(0.5)), ast.Constraint("<=", second, first)]
        )
        point = _hc4_point(y_domain, tx, ty, tw, tz)
        assume(all(_finite_solution(constraint, point) for constraint in pc.constraints))
        box = _hc4_box(y_domain)
        narrowed = contract(pc, box)
        assert narrowed is not None
        assert narrowed.contains_point({name: point[name] for name in box.variables})

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(hc4_expressions(), comparisons, st.sampled_from(_Y_DOMAINS), unit, unit, unit, unit)
    def test_certainly_holding_box_has_no_finite_counterexample(self, expr, operator, y_domain, tx, ty, tw, tz):
        constraint = ast.Constraint(operator, expr, ast.const(0.5))
        assume(constraint_certainly_holds(constraint, _hc4_box(y_domain)))
        point = _hc4_point(y_domain, tx, ty, tw, tz)
        assume(_finite_everywhere(expr, point))
        # Up to the boundary slack of the inner test: relative to a finite
        # magnitude of the enclosure of ``left - right``, absolute otherwise.
        magnitude = constraint_range(constraint, _hc4_box(y_domain)).magnitude()
        slack = 1e-12 * (magnitude if 1.0 < magnitude < math.inf else 1.0)
        assert holds(constraint, point) or abs(evaluate(expr, point) - 0.5) <= slack


# --------------------------------------------------------------------------- #
# Estimate algebra properties
# --------------------------------------------------------------------------- #
class TestEstimateProperties:
    @given(st.lists(st.tuples(probabilities, variances), min_size=1, max_size=6))
    def test_disjoint_sum_means_add(self, pairs):
        estimates = [Estimate(mean, variance) for mean, variance in pairs]
        total = sum_disjoint(estimates)
        assert total.mean == pytest.approx(sum(mean for mean, _ in pairs))
        assert total.variance == pytest.approx(sum(variance for _, variance in pairs))

    @given(st.lists(st.tuples(probabilities, variances), min_size=1, max_size=5))
    def test_product_mean_is_product_of_means(self, pairs):
        estimates = [Estimate(mean, variance) for mean, variance in pairs]
        product = product_independent(estimates)
        expected_mean = 1.0
        for mean, _ in pairs:
            expected_mean *= mean
        assert product.mean == pytest.approx(expected_mean)

    @given(probabilities, variances, probabilities, variances)
    def test_product_variance_matches_equation_8(self, m1, v1, m2, v2):
        combined = Estimate(m1, v1).multiply_independent(Estimate(m2, v2))
        assert combined.variance == pytest.approx(m1 * m1 * v2 + m2 * m2 * v1 + v1 * v2)

    @given(probabilities, variances, st.floats(min_value=0.0, max_value=1.0))
    def test_scaling_is_quadratic_in_variance(self, mean, variance, weight):
        scaled = Estimate(mean, variance).scale(weight)
        assert scaled.mean == pytest.approx(weight * mean)
        assert scaled.variance == pytest.approx(weight * weight * variance)

    @given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=0, max_value=10_000))
    def test_from_hits_is_valid_probability(self, samples, hits):
        assume(hits <= samples)
        estimate = Estimate.from_hits(hits, samples)
        assert 0.0 <= estimate.mean <= 1.0
        assert estimate.variance <= 0.25


# --------------------------------------------------------------------------- #
# End-to-end statistical property
# --------------------------------------------------------------------------- #
class TestQuantificationProperties:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.floats(min_value=-0.9, max_value=0.4),
        st.floats(min_value=0.1, max_value=0.5),
        st.floats(min_value=-0.9, max_value=0.4),
        st.floats(min_value=0.1, max_value=0.5),
    )
    def test_box_events_are_estimated_exactly(self, x_low, x_width, y_low, y_width):
        """Axis-aligned box events are resolved by ICP with zero variance."""
        from repro.core.qcoral import QCoralConfig, quantify
        from repro.lang.parser import parse_constraint_set

        x_high = x_low + x_width
        y_high = y_low + y_width
        profile = UsageProfile.uniform({"x": (-1, 1), "y": (-1, 1)})
        cs = parse_constraint_set(f"x >= {x_low} && x <= {x_high} && y >= {y_low} && y <= {y_high}")
        result = quantify(cs, profile, QCoralConfig.strat_partcache(200, seed=1))
        exact = (x_width / 2.0) * (y_width / 2.0)
        assert result.mean == pytest.approx(exact, abs=1e-6)
        assert result.variance == pytest.approx(0.0, abs=1e-12)
