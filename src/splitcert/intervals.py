"""Outward-rounded interval scalars and boxes.

An :class:`Interval` is a closed bounded interval ``[lo, hi]`` of reals with
float endpoints.  Every arithmetic result encloses the exact real-arithmetic
image of its operands; see :mod:`splitcert.kernels` for the rounding model.
An :class:`IntervalBox` is a product of intervals with fixed dimension, the
substrate for enclosures of vectors and of sets of parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import kernels as ku


class IntervalError(ValueError):
    """Raised when an interval operation violates its precondition."""


def _check_pair(lo: float, hi: float) -> tuple[float, float]:
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise IntervalError(f"endpoints must be finite, got [{lo}, {hi}]")
    if lo > hi:
        raise IntervalError(f"lower endpoint exceeds upper: [{lo}, {hi}]")
    return lo, hi


@dataclass(frozen=True)
class Interval:
    """Closed bounded interval with outward-rounded arithmetic."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = _check_pair(self.lo, self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    # -- queries ---------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def rad(self) -> float:
        m = self.mid
        return max(self.hi - m, m - self.lo)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def is_subset(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def is_interior_subset(self, other: "Interval") -> bool:
        return other.lo < self.lo and self.hi < other.hi

    # -- arithmetic ------------------------------------------------------

    def _binary(self, other, op):
        if isinstance(other, Interval):
            blo, bhi = other.lo, other.hi
        else:
            blo = bhi = float(other)
        lo, hi = op(np.float64(self.lo), np.float64(self.hi), np.float64(blo), np.float64(bhi))
        return Interval(float(lo), float(hi))

    def __add__(self, other):
        return self._binary(other, ku.vadd)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, ku.vsub)

    def __rsub__(self, other):
        return Interval.point(float(other)) - self

    def __mul__(self, other):
        return self._binary(other, ku.vmul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Interval):
            other = Interval.point(float(other))
        if other.contains_zero():
            raise IntervalError(
                f"division by interval containing zero: [{other.lo}, {other.hi}]"
            )
        return self._binary(other, ku.vdiv)

    def __rtruediv__(self, other):
        return Interval.point(float(other)) / self

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def sqr(self) -> "Interval":
        lo, hi = ku.vsqr(np.float64(self.lo), np.float64(self.hi))
        return Interval(float(lo), float(hi))

    def sqrt(self) -> "Interval":
        if self.lo < 0:
            raise IntervalError(f"sqrt of interval with negative endpoint: {self}")
        lo, hi = ku.vsqrt(np.float64(self.lo), np.float64(self.hi))
        return Interval(float(lo), float(hi))

    def __pow__(self, n: int) -> "Interval":
        if not isinstance(n, int) or n < 0:
            raise IntervalError("only nonnegative integer powers are supported")
        if n == 0:
            return Interval(1.0, 1.0)
        if n == 1:
            return self
        half = self ** (n // 2)
        sq = half.sqr()
        return sq * self if n % 2 else sq

    # -- set operations --------------------------------------------------

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def widened(self, eps: float) -> "Interval":
        lo, hi = ku.widen_abs(np.float64(self.lo), np.float64(self.hi), np.float64(eps))
        return Interval(float(lo), float(hi))

    def __repr__(self):
        return f"[{self.lo!r}, {self.hi!r}]"


SQRT2 = Interval(2.0, 2.0).sqrt()
INV_SQRT2 = 1.0 / SQRT2


class IntervalBox:
    """A product of intervals, stored as paired (lo, hi) float arrays."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float)).copy()
        hi = np.atleast_1d(np.asarray(hi, dtype=float)).copy()
        if lo.shape != hi.shape or lo.ndim != 1:
            raise IntervalError("box endpoints must be matching 1-d arrays")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise IntervalError("box endpoints must be finite")
        if np.any(lo > hi):
            raise IntervalError("box has a component with lo > hi")
        lo.setflags(write=False)
        hi.setflags(write=False)
        self.lo = lo
        self.hi = hi

    @staticmethod
    def from_intervals(components: Iterable[Interval]) -> "IntervalBox":
        comps = list(components)
        return IntervalBox([c.lo for c in comps], [c.hi for c in comps])

    @staticmethod
    def point(x) -> "IntervalBox":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return IntervalBox(x, x)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def __len__(self):
        return self.dim

    def __getitem__(self, i) -> Interval:
        if isinstance(i, (int, np.integer)):
            return Interval(float(self.lo[i]), float(self.hi[i]))
        return IntervalBox(self.lo[i], self.hi[i])

    def components(self) -> list[Interval]:
        return [self[i] for i in range(self.dim)]

    # -- queries ---------------------------------------------------------

    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def rad(self) -> np.ndarray:
        m = self.mid()
        return np.maximum(self.hi - m, m - self.lo)

    def width(self) -> np.ndarray:
        return self.hi - self.lo

    def max_width(self) -> float:
        return float(np.max(self.hi - self.lo)) if self.dim else 0.0

    def contains_point(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.lo <= x) and np.all(x <= self.hi))

    def contains_box(self, other: "IntervalBox") -> bool:
        return bool(np.all(self.lo <= other.lo) and np.all(other.hi <= self.hi))

    def contains_zero(self) -> bool:
        return bool(np.all(self.lo <= 0.0) and np.all(0.0 <= self.hi))

    def is_subset(self, other: "IntervalBox") -> bool:
        return other.contains_box(self)

    def is_interior_subset(self, other: "IntervalBox") -> bool:
        """Strict per-component containment (acceptance test of interval Newton)."""
        return bool(np.all(other.lo < self.lo) and np.all(self.hi < other.hi))

    # -- arithmetic ------------------------------------------------------

    def _pair_with(self, other):
        if isinstance(other, IntervalBox):
            return other.lo, other.hi
        arr = np.asarray(other, dtype=float)
        return arr, arr

    def __add__(self, other):
        blo, bhi = self._pair_with(other)
        return IntervalBox(*ku.vadd(self.lo, self.hi, blo, bhi))

    __radd__ = __add__

    def __sub__(self, other):
        blo, bhi = self._pair_with(other)
        return IntervalBox(*ku.vsub(self.lo, self.hi, blo, bhi))

    def __rsub__(self, other):
        blo, bhi = self._pair_with(other)
        return IntervalBox(*ku.vsub(blo, bhi, self.lo, self.hi))

    def __neg__(self):
        return IntervalBox(-self.hi, -self.lo)

    def scale(self, c: float) -> "IntervalBox":
        return IntervalBox(*ku.vscale(float(c), self.lo, self.hi))

    def mul_interval(self, c: Interval) -> "IntervalBox":
        lo, hi = ku.vmul(self.lo, self.hi, np.full(self.dim, c.lo), np.full(self.dim, c.hi))
        return IntervalBox(lo, hi)

    # -- set operations --------------------------------------------------

    def hull(self, other: "IntervalBox") -> "IntervalBox":
        return IntervalBox(*ku.vhull(self.lo, self.hi, other.lo, other.hi))

    def intersect(self, other: "IntervalBox") -> "IntervalBox | None":
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(lo > hi):
            return None
        return IntervalBox(lo, hi)

    def widened(self, eps) -> "IntervalBox":
        eps = np.broadcast_to(np.abs(np.asarray(eps, dtype=float)), self.lo.shape)
        return IntervalBox(*ku.widen_abs(self.lo, self.hi, eps))

    def concat(self, other: "IntervalBox") -> "IntervalBox":
        return IntervalBox(np.concatenate([self.lo, other.lo]),
                           np.concatenate([self.hi, other.hi]))

    def split(self, i: int) -> tuple["IntervalBox", "IntervalBox"]:
        """Bisect component i at its midpoint."""
        m = float(self.mid()[i])
        left_hi = self.hi.copy()
        left_hi[i] = m
        right_lo = self.lo.copy()
        right_lo[i] = m
        return IntervalBox(self.lo, left_hi), IntervalBox(right_lo, self.hi)

    def __repr__(self):
        comps = " x ".join(f"[{l!r},{h!r}]" for l, h in zip(self.lo, self.hi))
        return f"Box({comps})"


def _json_pairs(x) -> list | None:
    """The [lo, hi] pairs of a box or matrix, nested like its entries, as
    JSON-ready floats; None stays None."""
    if x is None:
        return None
    return np.stack([x.lo, x.hi], axis=-1).tolist()
