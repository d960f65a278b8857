"""Closed real intervals with (conservative) outward-rounded arithmetic.

This module is the foundation of the RealPaver substitute: every interval
operation is *enclosing*, i.e. the exact real result of applying the operation
pointwise to members of the operand intervals is contained in the returned
interval.  Outward rounding is implemented with :func:`math.nextafter`, which
is cheaper and simpler than switching the FPU rounding mode and is sufficient
for the soundness argument the paper relies on (the union of ICP boxes must
contain *all* solutions).

The special empty interval is represented by :data:`EMPTY`; arithmetic on it
propagates emptiness.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple, Union

from repro.errors import EmptyIntervalError, IntervalError

Number = Union[int, float]

_INF = math.inf


def _next_down(value: float) -> float:
    """Largest float strictly below ``value`` (identity on ``-inf``).

    A *lower* bound of ``+inf`` can only come from a finite computation that
    overflowed (e.g. the reciprocal of a subnormal), whose true value merely
    exceeds the largest finite float; relaxing it to ``DBL_MAX`` keeps the
    enclosure sound instead of producing an interval that excludes the true
    value.
    """
    if value == -_INF:
        return value
    if value == _INF:
        return sys.float_info.max
    return math.nextafter(value, -_INF)


def _next_up(value: float) -> float:
    """Smallest float strictly above ``value`` (identity on ``+inf``).

    Symmetrically to :func:`_next_down`, an *upper* bound of ``-inf`` is an
    overflow artefact and is relaxed to ``-DBL_MAX``.
    """
    if value == _INF:
        return value
    if value == -_INF:
        return -sys.float_info.max
    return math.nextafter(value, _INF)


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]`` over the extended reals.

    The interval is *empty* when ``lo > hi``; use :meth:`is_empty` rather than
    comparing the bounds directly.  Instances are immutable and hashable so
    they can be used as cache keys.
    """

    lo: float
    hi: float

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def make(lo: Number, hi: Number) -> "Interval":
        """Build an interval, validating the bounds.

        ``lo`` may equal ``hi`` (a point interval).  NaN bounds are rejected.
        """
        lo_f = float(lo)
        hi_f = float(hi)
        if math.isnan(lo_f) or math.isnan(hi_f):
            raise IntervalError(f"interval bounds may not be NaN: [{lo}, {hi}]")
        return Interval(lo_f, hi_f)

    @staticmethod
    def point(value: Number) -> "Interval":
        """Interval containing exactly ``value``."""
        return Interval.make(value, value)

    @staticmethod
    def empty() -> "Interval":
        """The canonical empty interval."""
        return EMPTY

    @staticmethod
    def entire() -> "Interval":
        """The whole extended real line."""
        return ENTIRE

    @staticmethod
    def hull_of(values: Iterable[Number]) -> "Interval":
        """Smallest interval containing every value in ``values``."""
        lo = _INF
        hi = -_INF
        seen = False
        for value in values:
            value_f = float(value)
            if math.isnan(value_f):
                raise IntervalError("cannot take the hull of NaN values")
            seen = True
            lo = min(lo, value_f)
            hi = max(hi, value_f)
        if not seen:
            return EMPTY
        return Interval(lo, hi)

    # ------------------------------------------------------------------ #
    # Predicates and accessors
    # ------------------------------------------------------------------ #
    def is_empty(self) -> bool:
        """True when the interval contains no point."""
        return self.lo > self.hi

    def is_point(self) -> bool:
        """True when the interval contains exactly one point."""
        return self.lo == self.hi

    def is_bounded(self) -> bool:
        """True when both bounds are finite."""
        return not self.is_empty() and math.isfinite(self.lo) and math.isfinite(self.hi)

    def width(self) -> float:
        """Length ``hi - lo`` of the interval (0 for empty intervals)."""
        if self.is_empty():
            return 0.0
        return self.hi - self.lo

    def midpoint(self) -> float:
        """Midpoint of a non-empty bounded interval."""
        if self.is_empty():
            raise EmptyIntervalError("midpoint of an empty interval")
        if not self.is_bounded():
            raise IntervalError(f"midpoint of an unbounded interval {self}")
        mid = 0.5 * (self.lo + self.hi)
        # Guard against overflow of lo + hi for huge magnitudes.
        if not math.isfinite(mid):
            mid = self.lo + 0.5 * (self.hi - self.lo)
        return mid

    def radius(self) -> float:
        """Half of the interval width."""
        return 0.5 * self.width()

    def magnitude(self) -> float:
        """Maximum absolute value over the interval."""
        if self.is_empty():
            return 0.0
        return max(abs(self.lo), abs(self.hi))

    def mignitude(self) -> float:
        """Minimum absolute value over the interval."""
        if self.is_empty():
            return 0.0
        if self.contains(0.0):
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def contains(self, value: Number) -> bool:
        """True when ``value`` lies inside the interval."""
        if self.is_empty():
            return False
        return self.lo <= float(value) <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """True when ``other`` is a subset of this interval."""
        if other.is_empty():
            return True
        if self.is_empty():
            return False
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        """True when the intersection with ``other`` is non-empty."""
        if self.is_empty() or other.is_empty():
            return False
        return self.lo <= other.hi and other.lo <= self.hi

    def clamp(self, value: Number) -> float:
        """Closest point of the interval to ``value``."""
        if self.is_empty():
            raise EmptyIntervalError("cannot clamp into an empty interval")
        return min(max(float(value), self.lo), self.hi)

    def sample_points(self, count: int) -> Iterator[float]:
        """Yield ``count`` evenly spaced points covering the interval."""
        if self.is_empty() or count <= 0:
            return
        if count == 1 or self.is_point():
            yield self.midpoint() if self.is_bounded() else self.lo
            return
        step = self.width() / (count - 1)
        for index in range(count):
            yield self.lo + index * step

    # ------------------------------------------------------------------ #
    # Lattice operations
    # ------------------------------------------------------------------ #
    def intersect(self, other: "Interval") -> "Interval":
        """Set intersection."""
        return Interval(*meet_bounds(self.lo, self.hi, other.lo, other.hi))

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands (interval union hull)."""
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def split(self, at: Optional[float] = None) -> Tuple["Interval", "Interval"]:
        """Split at ``at`` (default: midpoint) into two sub-intervals."""
        if self.is_empty():
            raise EmptyIntervalError("cannot split an empty interval")
        point = self.midpoint() if at is None else float(at)
        if not self.contains(point):
            raise IntervalError(f"split point {point} not inside {self}")
        return Interval(self.lo, point), Interval(point, self.hi)

    def inflate(self, amount: float) -> "Interval":
        """Widen both bounds outward by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise IntervalError("inflate amount must be non-negative")
        if self.is_empty():
            return self
        return Interval(self.lo - amount, self.hi + amount)

    # ------------------------------------------------------------------ #
    # Arithmetic (enclosing / outward rounded)
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Interval", Number]) -> "Interval":
        other = _coerce(other)
        return Interval(*add_bounds(self.lo, self.hi, other.lo, other.hi))

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(*neg_bounds(self.lo, self.hi))

    def __sub__(self, other: Union["Interval", Number]) -> "Interval":
        other = _coerce(other)
        return Interval(*sub_bounds(self.lo, self.hi, other.lo, other.hi))

    def __rsub__(self, other: Union["Interval", Number]) -> "Interval":
        return _coerce(other) - self

    def __mul__(self, other: Union["Interval", Number]) -> "Interval":
        other = _coerce(other)
        return Interval(*mul_bounds(self.lo, self.hi, other.lo, other.hi))

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Interval", Number]) -> "Interval":
        other = _coerce(other)
        return Interval(*div_bounds(self.lo, self.hi, other.lo, other.hi))

    def __rtruediv__(self, other: Union["Interval", Number]) -> "Interval":
        return _coerce(other) / self

    def __abs__(self) -> "Interval":
        if self.is_empty():
            return EMPTY
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return Interval(-self.hi, -self.lo)
        return Interval(0.0, max(-self.lo, self.hi))

    def sqr(self) -> "Interval":
        """Enclosure of ``x * x`` — tighter than ``self * self`` around zero."""
        return Interval(*sqr_bounds(self.lo, self.hi))

    # ------------------------------------------------------------------ #
    # Dunder plumbing
    # ------------------------------------------------------------------ #
    def __bool__(self) -> bool:
        return not self.is_empty()

    def __iter__(self) -> Iterator[float]:
        yield self.lo
        yield self.hi

    def __repr__(self) -> str:
        if self.is_empty():
            return "Interval.EMPTY"
        return f"[{self.lo!r}, {self.hi!r}]"


def _coerce(value: Union[Interval, Number]) -> Interval:
    """Coerce a scalar into a point interval (identity on intervals)."""
    if isinstance(value, Interval):
        return value
    return Interval.point(value)


# --------------------------------------------------------------------------- #
# Bound formulas: the arithmetic of Interval on (lo, hi) float pairs
# --------------------------------------------------------------------------- #
# Interval's operators are these formulas; the compiled HC4 sweeps
# (repro.icp.hc4) call them directly on float bounds.  An empty interval is
# any pair with lo > hi, and every formula returns _EMPTY_BOUNDS for one.
# ``nextafter(x, -inf)`` is ``_next_down(x)`` and ``nextafter(x, inf)`` is
# ``_next_up(x)`` for every float x, infinities included.
_EMPTY_BOUNDS = (_INF, -_INF)
_nextafter = math.nextafter


def meet_bounds(alo: float, ahi: float, blo: float, bhi: float) -> Tuple[float, float]:
    """Intersection."""
    if alo > ahi or blo > bhi:
        return _EMPTY_BOUNDS
    lo = blo if blo > alo else alo
    hi = bhi if bhi < ahi else ahi
    return _EMPTY_BOUNDS if lo > hi else (lo, hi)


def add_bounds(alo: float, ahi: float, blo: float, bhi: float) -> Tuple[float, float]:
    """Sum, rounded outward."""
    if alo > ahi or blo > bhi:
        return _EMPTY_BOUNDS
    return _nextafter(alo + blo, -_INF), _nextafter(ahi + bhi, _INF)


def sub_bounds(alo: float, ahi: float, blo: float, bhi: float) -> Tuple[float, float]:
    """Difference, rounded outward."""
    if alo > ahi or blo > bhi:
        return _EMPTY_BOUNDS
    return _nextafter(alo - bhi, -_INF), _nextafter(ahi - blo, _INF)


def mul_bounds(alo: float, ahi: float, blo: float, bhi: float) -> Tuple[float, float]:
    """Product, rounded outward.

    The indeterminate products of a zero bound and an infinite bound resolve
    to zero (IEEE would give NaN), otherwise the product would spuriously
    become the whole line.
    """
    if alo > ahi or blo > bhi:
        return _EMPTY_BOUNDS
    p1 = 0.0 if alo == 0.0 or blo == 0.0 else alo * blo
    p2 = 0.0 if alo == 0.0 or bhi == 0.0 else alo * bhi
    p3 = 0.0 if ahi == 0.0 or blo == 0.0 else ahi * blo
    p4 = 0.0 if ahi == 0.0 or bhi == 0.0 else ahi * bhi
    return _nextafter(min(p1, p2, p3, p4), -_INF), _nextafter(max(p1, p2, p3, p4), _INF)


def div_bounds(alo: float, ahi: float, blo: float, bhi: float) -> Tuple[float, float]:
    """Quotient: the product with the reciprocal, or unbounded around zero."""
    if alo > ahi or blo > bhi:
        return _EMPTY_BOUNDS
    if not blo <= 0.0 <= bhi:
        r1 = 1.0 / blo
        r2 = 1.0 / bhi
        return mul_bounds(alo, ahi, _nextafter(min(r1, r2), -_INF), _nextafter(max(r1, r2), _INF))
    if blo == bhi:  # divisor [0, 0]
        return (-_INF, _INF) if alo <= 0.0 <= ahi else _EMPTY_BOUNDS
    return -_INF, _INF


def sqr_bounds(lo: float, hi: float) -> Tuple[float, float]:
    """Square: the enclosure of ``x * x``, tighter than the product around zero."""
    if lo > hi:
        return _EMPTY_BOUNDS
    if lo >= 0:
        alo, ahi = lo, hi
    elif hi <= 0:
        alo, ahi = -hi, -lo
    else:
        alo, ahi = 0.0, (hi if hi > -lo else -lo)
    low = _nextafter(alo * alo, -_INF)
    return (low if low > 0.0 else 0.0), _nextafter(ahi * ahi, _INF)


def neg_bounds(lo: float, hi: float) -> Tuple[float, float]:
    """Negation."""
    return _EMPTY_BOUNDS if lo > hi else (-hi, -lo)


#: The canonical empty interval.
EMPTY = Interval(_INF, -_INF)

#: The whole extended real line.
ENTIRE = Interval(-_INF, _INF)

#: Convenience unit interval [0, 1].
UNIT = Interval(0.0, 1.0)
