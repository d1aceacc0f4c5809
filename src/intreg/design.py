"""Design construction for the interval regression model.

The model splits each interval observation into two real relations: the
response midpoint is linear in the regressor midpoints and spreads, and the
response spread is linear in the regressor spreads and absolute midpoints.
The spread-side coefficients are restricted to be nonnegative and to never
predict more spread than observed, which guarantees the interval residuals
exist.

Two design variants are supported.  The full variant carries both blocks per
side, so every cross relation between midpoints and spreads is estimable.
The restricted variant (``model-m``) keeps only midpoints on the midpoint
side and only spreads on the spread side, forcing the cross-relation
coefficients to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSample, DimensionMismatch
from .intervals import Interval, IntervalSample

VARIANT_FULL = "full"
VARIANT_MODEL_M = "model-m"
VARIANTS = (VARIANT_FULL, VARIANT_MODEL_M)

# spread coefficients this far below zero are rejected; closer ones are clipped
_NONNEG_TOL = 1e-9


def validate_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return variant


def regressor_blocks(sample: IntervalSample, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Uncentered regressor matrices ``(mid side, spread side)`` for a sample.

    Under the full variant the midpoint side is ``(mid x | spr x)`` and the
    spread side is ``(spr x | |mid x|)``; under ``model-m`` each side keeps
    only its own block.
    """
    validate_variant(variant)
    if variant == VARIANT_FULL:
        mid_side = np.hstack([sample.mid_x, sample.spr_x])
        spr_side = np.hstack([sample.spr_x, np.abs(sample.mid_x)])
    else:
        mid_side = sample.mid_x.copy()
        spr_side = sample.spr_x.copy()
    return mid_side, spr_side


@dataclass(frozen=True)
class DesignSystem:
    """Centered design matrices and the spread feasibility system of a sample.

    ``fm``/``fs`` are the column-centered midpoint-side and spread-side
    regressor matrices, ``vm``/``vs`` the centered responses.  ``sample`` is
    the read-only sample they were built from; its raw spreads and absolute
    midpoints define the spread constraints, and the stored column means
    recover uncentered predictions and the intercept.
    """

    sample: IntervalSample
    variant: str
    fm: np.ndarray
    fs: np.ndarray
    vm: np.ndarray
    vs: np.ndarray
    mean_mid_xebl: np.ndarray
    mean_spr_xebl: np.ndarray
    mean_y: Interval

    @property
    def n(self) -> int:
        return self.sample.n

    @property
    def k(self) -> int:
        return self.sample.k

    @property
    def block_width(self) -> int:
        return self.fm.shape[1]

    @cached_property
    def gamma_matrix(self) -> np.ndarray:
        """Uncentered spread-side regressor matrix used by the constraints, built once, read-only."""
        g = regressor_blocks(self.sample, self.variant)[1]
        g.setflags(write=False)
        return g

    def spread_constraints(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``R a >= r`` encoding nonnegativity and spread domination.

        The first block keeps the spread coefficients nonnegative; the second
        keeps every fitted spread (before the intercept) at or below the
        observed spread.
        """
        g = self.gamma_matrix
        w = g.shape[1]
        R = np.vstack([np.eye(w), -g])
        r = np.concatenate([np.zeros(w), -self.sample.spr_y])
        return R, r


def build_design(sample: IntervalSample, variant: str = VARIANT_FULL) -> DesignSystem:
    """Center the regressor blocks and responses of a sample.

    Raises :class:`DegenerateSample` when fewer than two observations are
    available, since centering then destroys all information.
    """
    mid_side, spr_side = regressor_blocks(sample, variant)
    if sample.n < 2:
        raise DegenerateSample(f"need at least 2 observations to center, got {sample.n}")
    mean_mid = mid_side.mean(axis=0)
    mean_spr = spr_side.mean(axis=0)
    return DesignSystem(
        sample=sample,
        variant=variant,
        fm=mid_side - mean_mid,
        fs=spr_side - mean_spr,
        vm=sample.mid_y - sample.mid_y.mean(),
        vs=sample.spr_y - sample.spr_y.mean(),
        mean_mid_xebl=mean_mid,
        mean_spr_xebl=mean_spr,
        mean_y=Interval(float(sample.mid_y.mean()), float(sample.spr_y.mean())),
    )


@dataclass(frozen=True)
class Coefficients:
    """The four coefficient blocks plus the interval intercept.

    ``b1`` weights regressor midpoints in the midpoint relation, ``b4``
    weights regressor spreads there; ``b2`` weights regressor spreads in the
    spread relation and ``b3`` the absolute midpoints.  ``b2`` and ``b3`` are
    nonnegative for the interval-arithmetic estimators; the comparison
    estimator reports unconstrained spread coefficients and flags the
    consequences instead.
    """

    b1: np.ndarray
    b2: np.ndarray
    b3: np.ndarray
    b4: np.ndarray
    delta: Interval

    def __post_init__(self):
        for name in ("b1", "b2", "b3", "b4"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        k = self.b1.size
        if any(getattr(self, name).shape != (k,) for name in ("b2", "b3", "b4")):
            raise DimensionMismatch("coefficient blocks must share one length")

    @property
    def k(self) -> int:
        return self.b1.size

    @classmethod
    def from_blocks(
        cls,
        a_m: np.ndarray,
        a_s: np.ndarray,
        delta: Interval,
        variant: str,
        k: int,
        check_nonneg: bool = True,
    ) -> "Coefficients":
        """Assemble from the stacked midpoint-side and spread-side solutions."""
        validate_variant(variant)
        a_m = np.asarray(a_m, dtype=float)
        a_s = np.asarray(a_s, dtype=float)
        if variant == VARIANT_FULL:
            if a_m.size != 2 * k or a_s.size != 2 * k:
                raise DimensionMismatch("stacked blocks must have length 2k under the full variant")
            b1, b4 = a_m[:k], a_m[k:]
            b2, b3 = a_s[:k], a_s[k:]
        else:
            if a_m.size != k or a_s.size != k:
                raise DimensionMismatch("stacked blocks must have length k under model-m")
            b1, b4 = a_m, np.zeros(k)
            b2, b3 = a_s, np.zeros(k)
        if check_nonneg:
            if np.min(b2, initial=0.0) < -_NONNEG_TOL or np.min(b3, initial=0.0) < -_NONNEG_TOL:
                raise ValueError("spread coefficients must be nonnegative")
            b2 = np.maximum(b2, 0.0)
            b3 = np.maximum(b3, 0.0)
        return cls(b1=b1, b2=b2, b3=b3, b4=b4, delta=delta)

    def mid_stack(self, variant: str) -> np.ndarray:
        """Midpoint-side coefficients in design column order."""
        validate_variant(variant)
        if variant == VARIANT_FULL:
            return np.concatenate([self.b1, self.b4])
        return self.b1.copy()

    def spread_stack(self, variant: str) -> np.ndarray:
        """Spread-side coefficients in design column order."""
        validate_variant(variant)
        if variant == VARIANT_FULL:
            return np.concatenate([self.b2, self.b3])
        return self.b2.copy()


def predict_arrays(coefs: Coefficients, mid_x: np.ndarray, spr_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized prediction over rows of midpoint and spread arrays."""
    mid_x = np.asarray(mid_x, dtype=float)
    spr_x = np.asarray(spr_x, dtype=float)
    if mid_x.shape[1] != coefs.k:
        raise DimensionMismatch(f"expected {coefs.k} regressors, got {mid_x.shape[1]}")
    mid = mid_x @ coefs.b1 + spr_x @ coefs.b4 + coefs.delta.mid
    spr = spr_x @ coefs.b2 + np.abs(mid_x) @ coefs.b3 + coefs.delta.spr
    return mid, spr
