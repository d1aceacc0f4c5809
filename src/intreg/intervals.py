"""Interval values in midpoint/radius form, with the weighted L2 metric and
the sample moments the estimators are written in.

Every value is immutable after construction and every operation is a pure
function, so the whole module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySample, InvertedInterval, LengthMismatch, NotHukuharaDecomposable

DEFAULT_TAU = 0.5

# slack for the radius precondition of the Hukuhara difference; absorbs
# roundoff carried in from solver output
_HUKUHARA_SLACK = 1e-12


def validate_tau(tau: float) -> float:
    """Return ``tau`` as a float, rejecting values outside the open unit interval."""
    tau = float(tau)
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must lie strictly between 0 and 1, got {tau}")
    return tau


@dataclass(frozen=True)
class Interval:
    """A compact real interval parametrized by midpoint and spread (radius).

    The spread is never negative.  Endpoints are a derived view:
    ``inf = mid - spr`` and ``sup = mid + spr``.
    """

    mid: float
    spr: float

    def __post_init__(self):
        mid = float(self.mid)
        spr = float(self.spr)
        if not (math.isfinite(mid) and math.isfinite(spr)):
            raise ValueError("interval components must be finite")
        if spr < 0.0:
            raise ValueError(f"spread must be nonnegative, got {spr}")
        object.__setattr__(self, "mid", mid)
        object.__setattr__(self, "spr", spr)

    @classmethod
    def from_endpoints(cls, inf: float, sup: float) -> "Interval":
        inf = float(inf)
        sup = float(sup)
        if inf > sup:
            raise ValueError(f"lower endpoint {inf} exceeds upper endpoint {sup}")
        return cls((sup + inf) / 2.0, (sup - inf) / 2.0)

    @property
    def inf(self) -> float:
        return self.mid - self.spr

    @property
    def sup(self) -> float:
        return self.mid + self.spr

    def endpoints(self) -> tuple[float, float]:
        return self.inf, self.sup

    def __str__(self) -> str:
        return f"[{self.inf:.6g}, {self.sup:.6g}]"


def add_scaled(a: Interval, delta: float, b: Interval) -> Interval:
    """Minkowski combination ``a + delta * b``.

    The midpoints combine linearly while the spreads combine through the
    absolute scale factor, so the result is always a valid interval.
    """
    delta = float(delta)
    return Interval(a.mid + delta * b.mid, a.spr + abs(delta) * b.spr)


def hukuhara_diff(a: Interval, b: Interval) -> Interval:
    """The interval ``c`` with ``b + c = a``.

    Exists only when ``b`` is no wider than ``a``; otherwise the residual is
    ill-defined and :class:`NotHukuharaDecomposable` is raised.
    """
    slack = _HUKUHARA_SLACK * max(1.0, a.spr)
    if b.spr > a.spr + slack:
        raise NotHukuharaDecomposable(
            f"spread {b.spr} of the subtrahend exceeds spread {a.spr} of the minuend"
        )
    return Interval(a.mid - b.mid, max(0.0, a.spr - b.spr))


def dtau(a: Interval, b: Interval, tau: float = DEFAULT_TAU) -> float:
    """Weighted L2 distance between two intervals.

    Squared midpoint and spread differences are combined with weights
    ``1 - tau`` and ``tau``.
    """
    tau = validate_tau(tau)
    dm = a.mid - b.mid
    ds = a.spr - b.spr
    return math.sqrt((1.0 - tau) * dm * dm + tau * ds * ds)


def aumann_mean(intervals: Sequence[Interval]) -> Interval:
    """Componentwise sample mean: mean of midpoints, mean of spreads."""
    n = len(intervals)
    if n == 0:
        raise EmptySample("cannot average an empty sequence of intervals")
    mid = sum(iv.mid for iv in intervals) / n
    spr = sum(iv.spr for iv in intervals) / n
    return Interval(mid, spr)


def dtau_covariance(u: Sequence[Interval], v: Sequence[Interval], tau: float = DEFAULT_TAU) -> float:
    """Weighted covariance of two interval samples.

    Combines the classical covariance of the midpoints and the classical
    covariance of the spreads with weights ``1 - tau`` and ``tau``.  Sample
    covariances use divisor ``n``.
    """
    tau = validate_tau(tau)
    if len(u) != len(v):
        raise LengthMismatch(f"samples have lengths {len(u)} and {len(v)}")
    n = len(u)
    if n < 2:
        raise EmptySample("covariance needs at least two observations")
    mid_u = np.array([iv.mid for iv in u])
    mid_v = np.array([iv.mid for iv in v])
    spr_u = np.array([iv.spr for iv in u])
    spr_v = np.array([iv.spr for iv in v])
    cov_mid = float(np.mean((mid_u - mid_u.mean()) * (mid_v - mid_v.mean())))
    cov_spr = float(np.mean((spr_u - spr_u.mean()) * (spr_v - spr_v.mean())))
    return (1.0 - tau) * cov_mid + tau * cov_spr


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def default_variable_names(k: int) -> list[str]:
    """``y, x1, ..., xk``: the variables of a sample with ``k`` regressors
    built without names, and the stems of its CSV header."""
    return ["y"] + [f"x{i}" for i in range(1, k + 1)]


class IntervalSample:
    """``n`` observations of a response interval and ``k`` regressor intervals.

    Data are held as read-only float arrays in mid/spr form.  Entries must be
    finite (``ValueError``); the first cell in row-major order with a negative
    spread, or else with a midpoint or spread whose squares overflow the fit's
    sums, is an :class:`InvertedInterval` naming its data row and variable.
    """

    def __init__(self, mid_y, spr_y, mid_x, spr_x, variable_names=None):
        mid_y = _readonly(mid_y)
        spr_y = _readonly(spr_y)
        mid_x = _readonly(mid_x)
        spr_x = _readonly(spr_x)
        if mid_y.ndim != 1 or spr_y.shape != mid_y.shape:
            raise ValueError("response arrays must be 1-d and equally shaped")
        if mid_x.ndim != 2 or spr_x.shape != mid_x.shape:
            raise ValueError("regressor arrays must be 2-d and equally shaped")
        n, k = mid_x.shape
        if n != mid_y.size:
            raise ValueError(f"{mid_y.size} responses but {n} regressor rows")
        if n < 1 or k < 1:
            raise ValueError("need at least one observation and one regressor")
        if variable_names is None:
            variable_names = default_variable_names(k)
        variable_names = [str(s) for s in variable_names]
        if len(variable_names) != k + 1:
            raise ValueError(f"expected {k + 1} variable names, got {len(variable_names)}")
        mid, spr = np.column_stack([mid_y, mid_x]), np.column_stack([spr_y, spr_x])
        if not (np.isfinite(mid).all() and np.isfinite(spr).all()):
            raise ValueError("midpoints and spreads must be finite")
        bad = np.argwhere(spr < 0.0)
        if bad.size:
            j, v = bad[0]
            raise InvertedInterval(int(j) + 1, variable_names[v], f"negative spread {spr[j, v]}")
        # beyond |x| sqrt(n) = sqrt(max) / 2, the fit's sums of squares overflow
        limit = np.sqrt(np.finfo(float).max / n) / 2.0
        bad = np.argwhere((np.abs(mid) > limit) | (spr > limit))
        if bad.size:
            j, v = bad[0]
            what, value = ("midpoint", mid[j, v]) if abs(mid[j, v]) > limit else ("spread", spr[j, v])
            detail = f"the {what} {value} overflows the fit's sums of squares"
            raise InvertedInterval(int(j) + 1, variable_names[v], detail)
        self.mid_y = mid_y
        self.spr_y = spr_y
        self.mid_x = mid_x
        self.spr_x = spr_x
        self.variable_names = tuple(variable_names)

    @classmethod
    def from_intervals(cls, y: Sequence[Interval], x: Sequence[Sequence[Interval]], variable_names=None):
        if len(y) == 0:
            raise ValueError("need at least one observation")
        if len(x) != len(y):
            raise ValueError("response and regressor grids have different lengths")
        widths = {len(row) for row in x}
        if len(widths) != 1:
            raise ValueError("all regressor rows must have the same number of variables")
        mid_y = [iv.mid for iv in y]
        spr_y = [iv.spr for iv in y]
        mid_x = [[iv.mid for iv in row] for row in x]
        spr_x = [[iv.spr for iv in row] for row in x]
        return cls(mid_y, spr_y, mid_x, spr_x, variable_names)

    @property
    def n(self) -> int:
        return self.mid_y.size

    @property
    def k(self) -> int:
        return self.mid_x.shape[1]

    def subset(self, rows: Iterable[int] | Iterable[bool]) -> "IntervalSample":
        """The sample of the given rows, in their order, or of the rows that a
        boolean mask of length ``n`` selects; valid rows are not checked again."""
        idx = rows if isinstance(rows, np.ndarray) else np.array(list(rows))
        if idx.dtype == bool and idx.shape != (self.n,):
            raise ValueError("a row mask needs one entry per row")
        idx = np.flatnonzero(idx) if idx.dtype == bool else idx.astype(int, copy=False)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("a subset needs a nonempty 1-d selection of rows")
        sub = IntervalSample.__new__(IntervalSample)
        for name in ("mid_y", "spr_y", "mid_x", "spr_x"):
            setattr(sub, name, _readonly(getattr(self, name)[idx]))
        sub.variable_names = self.variable_names
        return sub

    def __repr__(self) -> str:
        return f"IntervalSample(n={self.n}, k={self.k})"
