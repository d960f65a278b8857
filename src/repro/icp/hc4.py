"""HC4-revise, compiled into flat sweeps over float bounds.

HC4 (Benhamou et al.) contracts a box against one constraint in two sweeps:
the **forward** sweep encloses every node of ``left - right`` over the box,
the **backward** sweep pushes the feasible range back down to the variables.
:class:`HC4Program` flattens a constraint once, for a fixed variable order,
into a post-order list of forward ops and a pre-order list of backward ops
over node slots (the ``e * e`` square test is decided then); both sweeps run
over lists of lower and upper bounds, and a box is two such lists.  They use
the bound formulas behind :class:`~repro.intervals.interval.Interval`'s own
operators in the same operand order, and stop at the first empty enclosure in
the order of a recursive walk, so results are bit-identical to interval
objects.  Every projection is *conservative*: where the exact inverse image is
expensive (periodic functions, ``atan2``, ``min``/``max``) the operand keeps
its enclosure, so no solution is ever removed — the union of reported boxes
must contain all solutions.
"""
from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.errors import ICPError
from repro.intervals.box import Box
from repro.intervals.functions import apply_function, integer_root, interval_exp, interval_log, interval_tan
from repro.intervals.interval import (
    Interval,
    add_bounds,
    div_bounds,
    meet_bounds,
    mul_bounds,
    neg_bounds,
    sqr_bounds,
    sub_bounds,
)
from repro.lang import ast

_INF = math.inf
_NINF = -math.inf

#: Feasible range of ``left - right`` for each comparison operator.  Strict and
#: non-strict inequalities share the same closed range: the boundary has zero
#: measure, and including it keeps the enclosure sound.
_RELATION_RANGES = {"<=": (_NINF, 0.0), "<": (_NINF, 0.0), ">=": (0.0, _INF), ">": (0.0, _INF)}
_RELATION_RANGES.update({"==": (0.0, 0.0), "!=": (_NINF, _INF)})

#: Tolerance used when classifying a box as certainly satisfying a constraint.
#: The outward rounding of interval arithmetic can push an exact boundary a few
#: ULPs past zero; since the boundary itself has measure zero, absorbing that
#: slack keeps "inner" classification useful without affecting soundness of the
#: probability estimate beyond floating-point noise.
_CERTAINTY_TOLERANCE = 1e-12


def _project(plo: float, phi: float, olo: float, ohi: float, clo: float, chi: float) -> Tuple[float, float]:
    """Feasible values of one factor given the product and the other factor.

    When the other factor straddles zero, exact projection would require a
    union of two intervals; keeping the current enclosure ``(clo, chi)``
    keeps the contraction conservative.
    """
    return (clo, chi) if olo <= 0.0 <= ohi else div_bounds(plo, phi, olo, ohi)


# Forward ops are ``(op, slot, a, b)``: a bound formula applied to the child
# slots ``a`` and ``b`` (None: unary), or a marker below.  Backward ops are
# ``(code, slot, a, b)``, with ``a``/``b`` the child slots unless noted.
_VAR = "var"  # forward and backward: ``a`` is the variable's index
_CALL = "call"  # forward: function ``a`` applied to the child slots ``b``
_LEAF, _NEG, _ADD, _SUB, _MUL, _DIV, _SQR, _KEEP, _POWI, _INVERT = range(10)
_BINARY = {"+": (add_bounds, _ADD), "-": (sub_bounds, _SUB), "*": (mul_bounds, _MUL), "/": (div_bounds, _DIV)}


def _binary(node: ast.BinaryOp) -> tuple:
    """The bound formula and backward code of a binary node."""
    if node.operator == "*" and node.left.canonical() == node.right.canonical():
        # ``e * e`` is a square: the tight enclosure avoids the spurious
        # negative range of the generic product rule.
        return sqr_bounds, _SQR
    if node.operator not in _BINARY:
        raise ICPError(f"unknown binary operator {node.operator!r}")
    return _BINARY[node.operator]


def _sqrt_inverse(value: Interval) -> Interval:
    argument = value.intersect(Interval(0.0, math.inf)).sqr()
    return argument.hull(Interval.point(0.0)) if argument.is_empty() else argument


#: The ``_INVERT`` op's ``b``: the range a function's output must meet (else
#: the box fails), and the inverse image of it (None: operand kept).
_INVERSES = {
    "sqrt": ((_NINF, _INF), _sqrt_inverse),
    "exp": ((_NINF, _INF), interval_log),
    "log": ((_NINF, _INF), interval_exp),
    "abs": ((0.0, _INF), lambda value: Interval(-value.hi, value.hi)),
    "atan": ((-math.pi / 2, math.pi / 2), interval_tan),
    "tanh": ((-1.0, 1.0), None),
    "sin": ((-1.0, 1.0), None),
    "cos": ((-1.0, 1.0), None),
}


class HC4Program:
    """One constraint, as ``left - right``, compiled into flat forward and backward sweeps.

    A box is two float lists (lower, upper bounds) indexed like ``variables``;
    variables it lacks are enclosed by the whole line and never narrowed.  The
    node enclosures persist between calls: do not share a program between threads.
    """

    __slots__ = ("_operator", "_relation", "_forward", "_backward", "_lo", "_hi", "_plo", "_phi")

    def __init__(self, constraint: ast.Constraint, variables: Sequence[str]) -> None:
        self._operator = constraint.operator
        self._relation = _RELATION_RANGES[constraint.operator]
        index = {name: position for position, name in enumerate(variables)}
        lo: List[float] = []
        hi: List[float] = []
        forward: List[tuple] = []
        backward: List[tuple] = []

        def visit(node: ast.Expression) -> int:
            slot = len(lo)
            lo.append(_NINF)
            hi.append(_INF)
            backward.append((_LEAF, slot, None, None))  # backward ops are in slot order
            if isinstance(node, ast.Constant):
                point = Interval.point(node.value)
                lo[slot], hi[slot] = point.lo, point.hi
            elif isinstance(node, ast.Variable):
                if node.name in index:
                    forward.append((_VAR, slot, index[node.name], None))
                    backward[slot] = (_VAR, slot, index[node.name], None)
            elif isinstance(node, ast.UnaryOp):
                child = visit(node.operand)
                forward.append((neg_bounds, slot, child, None))
                backward[slot] = (_NEG, slot, child, None)
            elif isinstance(node, ast.BinaryOp):
                left, right = visit(node.left), visit(node.right)
                op, code = _binary(node)
                forward.append((op, slot, left, None if code == _SQR else right))
                backward[slot] = (code, slot, left, right)
            elif isinstance(node, ast.FunctionCall):
                children = tuple(visit(argument) for argument in node.arguments)
                forward.append((_CALL, slot, node.name, children))
                backward[slot] = _function_backward(node, slot, children)
            else:  # pragma: no cover - defensive
                raise ICPError(f"cannot evaluate node of type {type(node).__name__}")
            return slot

        visit(ast.BinaryOp("-", constraint.left, constraint.right))
        self._forward = tuple(forward)
        self._backward = tuple(backward)
        self._lo, self._hi = lo, hi
        self._plo, self._phi = [0.0] * len(lo), [0.0] * len(lo)

    def enclosure(self, blo: List[float], bhi: List[float]) -> Tuple[float, float]:
        """Forward sweep: bounds of the root's enclosure over the box ``(blo, bhi)``."""
        lo, hi = self._lo, self._hi
        for op, slot, a, b in self._forward:
            if op is _VAR:
                lo[slot] = blo[a]
                hi[slot] = bhi[a]
            elif op is _CALL:
                value = apply_function(a, [Interval(lo[child], hi[child]) for child in b])
                lo[slot] = value.lo
                hi[slot] = value.hi
            elif b is None:
                lo[slot], hi[slot] = op(lo[a], hi[a])
            else:
                lo[slot], hi[slot] = op(lo[a], hi[a], lo[b], hi[b])
        return lo[0], hi[0]

    def certainly_holds(self, blo: List[float], bhi: List[float], strict_boundaries: bool = False) -> bool:
        """True when every point of the box satisfies the constraint (see :func:`constraint_certainly_holds`)."""
        return _holds(self._operator, *self.enclosure(blo, bhi), strict_boundaries)

    def revise(self, blo: List[float], bhi: List[float]) -> bool:
        """HC4-revise the box ``(blo, bhi)`` in place.

        Returns False when the constraint is certainly unsatisfiable over the
        box; the bounds are then partly narrowed and must be discarded.
        """
        lo, hi, plo, phi = self._lo, self._hi, self._plo, self._phi
        plo[0], phi[0] = meet_bounds(*self.enclosure(blo, bhi), *self._relation)
        if plo[0] > phi[0]:
            return False
        for code, slot, a, b in self._backward:
            # The node's feasible range: its enclosure met with its projection.
            vlo, vhi = meet_bounds(lo[slot], hi[slot], plo[slot], phi[slot])
            if vlo > vhi:
                return False
            if code == _LEAF:
                continue
            if code is _VAR:
                vlo, vhi = meet_bounds(blo[a], bhi[a], vlo, vhi)
                if vlo > vhi:
                    return False
                blo[a] = vlo
                bhi[a] = vhi
            elif code == _ADD:
                plo[a], phi[a] = sub_bounds(vlo, vhi, lo[b], hi[b])
                plo[b], phi[b] = sub_bounds(vlo, vhi, lo[a], hi[a])
            elif code == _SUB:
                plo[a], phi[a] = add_bounds(vlo, vhi, lo[b], hi[b])
                plo[b], phi[b] = sub_bounds(lo[a], hi[a], vlo, vhi)
            elif code == _MUL:
                plo[a], phi[a] = _project(vlo, vhi, lo[b], hi[b], lo[a], hi[a])
                plo[b], phi[b] = _project(vlo, vhi, lo[a], hi[a], lo[b], hi[b])
            elif code == _DIV:
                plo[a], phi[a] = mul_bounds(vlo, vhi, lo[b], hi[b])
                plo[b], phi[b] = _project(lo[a], hi[a], vlo, vhi, lo[b], hi[b])
            elif code == _SQR:
                # Invert the square: |e| <= sqrt(max feasible value).
                vlo, vhi = meet_bounds(vlo, vhi, 0.0, _INF)
                if vlo > vhi:
                    return False
                root = math.sqrt(vhi) * (1.0 + 1e-12) if math.isfinite(vhi) else _INF
                plo[a], phi[a] = meet_bounds(lo[a], hi[a], -root, root)
                plo[b], phi[b] = meet_bounds(lo[b], hi[b], -root, root)
            elif code == _NEG:
                plo[a] = -vhi
                phi[a] = -vlo
            elif code == _KEEP:
                for child in a:
                    plo[child] = lo[child]
                    phi[child] = hi[child]
            elif code == _POWI:
                base, exponent = a
                value = integer_root(Interval(vlo, vhi), Interval(lo[base], hi[base]), b)
                plo[base], phi[base] = value.lo, value.hi
                plo[exponent], phi[exponent] = lo[exponent], hi[exponent]
            else:  # _INVERT
                (rlo, rhi), inverse = b
                vlo, vhi = meet_bounds(vlo, vhi, rlo, rhi)
                if vlo > vhi:
                    return False
                if inverse is None:
                    plo[a], phi[a] = lo[a], hi[a]
                else:
                    value = inverse(Interval(vlo, vhi))
                    plo[a], phi[a] = value.lo, value.hi
        return True


def _function_backward(node: ast.FunctionCall, slot: int, children: Tuple[int, ...]) -> tuple:
    """The backward op of a function node."""
    if len(children) == 1 and node.name in _INVERSES:
        return (_INVERT, slot, children[0], _INVERSES[node.name])
    if node.name == "pow" and len(children) == 2 and isinstance(node.arguments[1], ast.Constant):
        if float(node.arguments[1].value).is_integer():
            return (_POWI, slot, children, int(node.arguments[1].value))
    # asin, acos, tan, sinh, cosh, log10, atan2, min, max, non-integer pow and
    # unknown functions: the operand enclosures stay unchanged.
    return (_KEEP, slot, children, None)


def _holds(operator: str, lo: float, hi: float, strict_boundaries: bool) -> bool:
    """The inner test on the enclosure ``[lo, hi]`` of ``left - right``."""
    if lo > hi:
        return False
    magnitude = abs(hi) if abs(hi) > abs(lo) else abs(lo)
    # The slack scales with a finite magnitude only: an unbounded enclosure
    # would otherwise get an infinite slack and pass every test.
    slack = _CERTAINTY_TOLERANCE * (magnitude if 1.0 < magnitude < _INF else 1.0)
    if operator == "<":
        return hi < 0.0 if strict_boundaries else hi <= slack
    if operator == ">":
        return lo > 0.0 if strict_boundaries else lo >= -slack
    if operator == "<=":
        return hi <= slack
    if operator == ">=":
        return lo >= -slack
    if operator == "==":
        return magnitude <= slack
    return not lo <= 0.0 <= hi


# One-shot checks: the forward sweep straight over the tree, nothing compiled.
def _enclose(node: ast.Expression, box: Box) -> Tuple[float, float]:
    """Bounds of the enclosure of ``node`` over ``box``, in the same order as the compiled sweep."""
    if isinstance(node, ast.Constant):
        point = Interval.point(node.value)
        return point.lo, point.hi
    if isinstance(node, ast.Variable):
        return (box.interval(node.name).lo, box.interval(node.name).hi) if node.name in box else (_NINF, _INF)
    if isinstance(node, ast.UnaryOp):
        return neg_bounds(*_enclose(node.operand, box))
    if isinstance(node, ast.BinaryOp):
        left, right = _enclose(node.left, box), _enclose(node.right, box)
        op, code = _binary(node)
        return op(*left) if code == _SQR else op(*left, *right)
    if isinstance(node, ast.FunctionCall):
        value = apply_function(node.name, [Interval(*_enclose(argument, box)) for argument in node.arguments])
        return value.lo, value.hi
    raise ICPError(f"cannot evaluate node of type {type(node).__name__}")  # pragma: no cover - defensive


def _difference(constraint: ast.Constraint, box: Box) -> Tuple[float, float]:
    return sub_bounds(*_enclose(constraint.left, box), *_enclose(constraint.right, box))


def evaluate_interval(expression: ast.Expression, box: Box) -> Interval:
    """Interval enclosure of ``expression`` over ``box`` (forward sweep only)."""
    return Interval(*_enclose(expression, box))


def constraint_range(constraint: ast.Constraint, box: Box) -> Interval:
    """Interval enclosure of ``left - right`` for a constraint over ``box``."""
    return Interval(*_difference(constraint, box))


def constraint_certainly_holds(constraint: ast.Constraint, box: Box, strict_boundaries: bool = False) -> bool:
    """True when every point of ``box`` satisfies ``constraint``.

    Used to classify paving boxes as *inner* (tight) boxes: sampling inside an
    inner box is unnecessary because the hit ratio is exactly one.

    The default mode grants the strict operators ``<`` and ``>`` the same
    floating-point boundary slack as their non-strict counterparts: under a
    continuous profile the boundary set has probability zero, so a box that
    touches it is still "inner up to measure zero".  That argument breaks for
    integer-supported profiles — an atom sitting exactly on the boundary of a
    strict inequality carries positive mass but does *not* satisfy it — so
    callers classifying boxes over discrete variables must pass
    ``strict_boundaries=True``, which requires the whole enclosure to clear
    the boundary with no slack (boundary-touching boxes stay undecided and
    get sampled, which is unbiased).
    """
    return _holds(constraint.operator, *_difference(constraint, box), strict_boundaries)


def constraint_certainly_fails(constraint: ast.Constraint, box: Box) -> bool:
    """True when no point of ``box`` satisfies ``constraint``."""
    lo, hi = meet_bounds(*_difference(constraint, box), *_RELATION_RANGES[constraint.operator])
    return lo > hi


def hc4_revise(constraint: ast.Constraint, box: Box) -> Optional[Box]:
    """Contract ``box`` with respect to one constraint.

    Returns the contracted box, or ``None`` when the constraint is certainly
    unsatisfiable over ``box``.
    """
    lo, hi = box.bound_lists()
    if not HC4Program(constraint, box.variables).revise(lo, hi):
        return None
    return Box.from_bound_lists(box.variables, lo, hi)
