"""Least-squares estimation of the interval regression model.

The centered objective separates: the midpoint block is an ordinary
least-squares problem, while the spread block is a convex quadratic program
over the feasible cone (nonnegative coefficients, fitted spreads dominated
by observed spreads) solved exactly through the complementarity machinery.
The interval intercept is recovered last as the Hukuhara difference between
the mean response and the mean fitted part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .design import Coefficients, DesignSystem
from .errors import LengthMismatch
from .intervals import DEFAULT_TAU, Interval, hukuhara_diff, validate_tau
from .lcp import Qp, _solve_qp_full

METHOD_LS = "ls"
METHOD_LASSO = "lasso"
METHOD_LASSO_IR = "lasso-ir"

# spread coefficients within this relative distance of zero are snapped to
# exact zeros; complementary pivoting resolves active bounds to far better
# than this
_ZERO_SNAP = 1e-10


@dataclass
class FitResult:
    """A fitted model: coefficients, selection parameters and diagnostics.

    ``fitted_mid`` and ``fitted_spr`` are the fitted midpoints and spreads
    over the training rows, intercept included, with spreads clamped at 0.
    """

    coefficients: Coefficients
    method: str
    fitted_mid: np.ndarray
    fitted_spr: np.ndarray
    mse: float
    lambda_mid: float = 0.0
    lambda_spr: float = 0.0
    t_budget: float = 0.0
    diagnostics: dict[str, float] = field(default_factory=dict)


def _msd_arrays(dm: np.ndarray, ds: np.ndarray, tau: float) -> float:
    return float(np.mean((1.0 - tau) * dm**2 + tau * ds**2))


def mean_squared_dtau(y: Sequence[Interval], y_hat: Sequence[Interval], tau: float = DEFAULT_TAU) -> float:
    """Mean squared weighted distance between observed and fitted intervals."""
    tau = validate_tau(tau)
    if len(y) != len(y_hat):
        raise LengthMismatch(f"got {len(y)} observed but {len(y_hat)} fitted intervals")
    dm = np.array([a.mid - b.mid for a, b in zip(y, y_hat)])
    ds = np.array([a.spr - b.spr for a, b in zip(y, y_hat)])
    return _msd_arrays(dm, ds, tau)


def mean_squared_unweighted(mid_y: np.ndarray, spr_y: np.ndarray, mid_hat: np.ndarray, spr_hat: np.ndarray) -> float:
    """Mean of squared midpoint plus squared spread residuals (no weights).

    Takes the observed and the fitted midpoints and spreads as arrays.
    """
    if len(mid_y) != len(mid_hat):
        raise LengthMismatch(f"got {len(mid_y)} observed but {len(mid_hat)} fitted intervals")
    return float(np.mean((mid_y - mid_hat) ** 2 + (spr_y - spr_hat) ** 2))


def ols_mid(design: DesignSystem) -> tuple[np.ndarray, int]:
    """Minimum-norm least squares for the midpoint block; returns (coefs, rank)."""
    a, _, rank, _ = np.linalg.lstsq(design.fm, design.vm, rcond=None)
    return a, int(rank)


def spread_qp(design: DesignSystem, tau: float, lam: float = 0.0) -> Qp:
    """The spread-block QP at weight ``tau`` with an optional linear L1 term.

    The objective is ``tau ||vs - fs a||^2 + 2 tau lam sum(a)``: on the
    feasible cone every coefficient is nonnegative, so the L1 penalty is
    linear, and the minimizer is that of ``1/2 ||vs - fs a||^2 + lam ||a||_1``.
    """
    fs = design.fs
    Q = 2.0 * tau * (fs.T @ fs)
    c = 2.0 * tau * (lam - fs.T @ design.vs)
    R, r = design.spread_constraints()
    return Qp(Q, c, R, r)


def _snap_spread(a_s: np.ndarray) -> np.ndarray:
    tol = _ZERO_SNAP * (1.0 + float(np.max(np.abs(a_s), initial=0.0)))
    out = a_s.copy()
    out[np.abs(out) <= tol] = 0.0
    return np.maximum(out, 0.0)


def solve_spread_block(design: DesignSystem, tau: float, lam: float = 0.0) -> tuple[np.ndarray, dict]:
    """Spread-block solution under the feasibility cone, with diagnostics."""
    qp = spread_qp(design, tau, lam)
    if float(np.trace(qp.Q)) == 0.0:
        # no spread signal at all: the objective is constant (or linear with
        # nonnegative slope) over the cone, and zero is always feasible
        w = design.block_width
        return np.zeros(w), {"ridge_used": 0.0, "lemke_pivots": 0.0,
                             "kkt_stationarity": 0.0, "kkt_feasibility": 0.0,
                             "kkt_complementarity": 0.0}
    a_s, _, info = _solve_qp_full(qp)
    return _snap_spread(a_s), info


def estimate_intercept(design: DesignSystem, coefs: Coefficients) -> Interval:
    """Hukuhara difference between the mean response and the mean fitted part.

    Exists whenever the spread constraints hold on average, which every
    feasible fit guarantees.
    """
    a_m = coefs.mid_stack(design.variant)
    a_s = coefs.spread_stack(design.variant)
    mean_fitted = Interval(
        float(design.mean_mid_xebl @ a_m),
        max(0.0, float(design.mean_spr_xebl @ a_s)),
    )
    return hukuhara_diff(design.mean_y, mean_fitted)


def _fit_result(design: DesignSystem, coefs: Coefficients, a_m: np.ndarray, a_s: np.ndarray,
                tau: float, method: str, **fields) -> FitResult:
    """Package block solutions with their fitted values and weighted error.

    The error is measured on the raw fitted spreads; only the reported
    fitted spreads are clamped at 0.
    """
    mid_part = design.fm @ a_m
    spr_part = design.fs @ a_s
    return FitResult(
        coefficients=coefs,
        method=method,
        fitted_mid=mid_part + design.mean_y.mid,
        fitted_spr=np.maximum(spr_part + design.mean_y.spr, 0.0),
        mse=_msd_arrays(design.vm - mid_part, design.vs - spr_part, tau),
        **fields,
    )


def fit_ls(design: DesignSystem, tau: float = DEFAULT_TAU) -> FitResult:
    """Least-squares fit of both blocks plus the interval intercept.

    A rank-deficient midpoint design is absorbed by the minimum-norm
    solution and reported through the ``degenerate_design`` diagnostic.
    """
    tau = validate_tau(tau)
    a_m, rank = ols_mid(design)
    a_s, info = solve_spread_block(design, tau)
    diagnostics = dict(info)
    diagnostics["fm_rank"] = float(rank)
    diagnostics["degenerate_design"] = float(rank < design.block_width)
    coefs = Coefficients.from_blocks(a_m, a_s, Interval(0.0, 0.0), design.variant, design.k)
    coefs = coefs.with_delta(estimate_intercept(design, coefs))
    return _fit_result(design, coefs, a_m, a_s, tau, METHOD_LS, diagnostics=diagnostics)
