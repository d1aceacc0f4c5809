"""A comparison estimator that ties the spread coefficients to the midpoint
coefficients.

The spread block equals the midpoint block plus an additive offset whose L1
norm is capped by a budget ``t``.  Fitted spreads are kept nonnegative over
the training sample (through the uncentered spread design), but nothing
forces them below the observed spreads, so interval residuals may fail to
exist; the result records both conditions as flags instead of failing.

The joint problem is convex: with the offset split into its positive and
negative parts it becomes a quadratic program with linear constraints, solved
by the same complementary-pivoting machinery as the other estimators.  The
budget is cross-validated on the Lasso folds.  It enters only the
right-hand side of the budget row, so the ``t > 0`` programs of the grid are
walked by exact active-set continuation: Lemke runs only where the set of
binding rows changes, and every point is certified against every row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .design import Coefficients, DesignSystem
from .intervals import DEFAULT_TAU, Interval, validate_tau
from .lasso import _cv_errors
from .lcp import Qp, _qp_path, _solve_qp_full
from .least_squares import METHOD_LASSO_IR, FitResult, _fit_result


@dataclass
class LassoIrFit:
    """Budgeted-offset fit: midpoint block, offset, and honesty flags.

    ``fitted_spr_nonneg`` records whether all fitted spreads (intercept
    included) are nonnegative on the sample; ``hukuhara_residuals_exist``
    records whether every interval residual exists.  ``delta_spr`` may be
    negative, which is exactly the ill-definedness the flags expose.
    """

    a_m: np.ndarray
    a_a: np.ndarray
    t: float
    fitted_spr_nonneg: bool
    hukuhara_residuals_exist: bool
    delta_mid: float
    delta_spr: float
    objective: float
    diagnostics: dict[str, float] = field(default_factory=dict)

    @property
    def a_s(self) -> np.ndarray:
        return self.a_m + self.a_a


def _joint_qp(design: DesignSystem, tau: float, t: float) -> Qp:
    """QP over (midpoint block, offset+ part, offset- part)."""
    w = design.block_width
    hm = design.fm.T @ design.fm
    hs = design.fs.T @ design.fs
    gm = design.fm.T @ design.vm
    gs = design.fs.T @ design.vs
    g = design.gamma_matrix
    n = g.shape[0]
    Q = np.zeros((3 * w, 3 * w))
    Q[:w, :w] = 2.0 * ((1.0 - tau) * hm + tau * hs)
    Q[:w, w : 2 * w] = 2.0 * tau * hs
    Q[:w, 2 * w :] = -2.0 * tau * hs
    Q[w : 2 * w, :w] = 2.0 * tau * hs
    Q[w : 2 * w, w : 2 * w] = 2.0 * tau * hs
    Q[w : 2 * w, 2 * w :] = -2.0 * tau * hs
    Q[2 * w :, :w] = -2.0 * tau * hs
    Q[2 * w :, w : 2 * w] = -2.0 * tau * hs
    Q[2 * w :, 2 * w :] = 2.0 * tau * hs
    c = np.concatenate([
        -2.0 * ((1.0 - tau) * gm + tau * gs),
        -2.0 * tau * gs,
        2.0 * tau * gs,
    ])
    zeros_nw = np.zeros((n, w))
    R = np.vstack([
        np.hstack([g, g, -g]),                                # fitted spreads >= 0
        np.hstack([np.zeros((w, w)), np.eye(w), np.zeros((w, w))]),
        np.hstack([np.zeros((w, w)), np.zeros((w, w)), np.eye(w)]),
        np.hstack([np.zeros((1, w)), -np.ones((1, w)), -np.ones((1, w))]),  # L1 budget
    ])
    r = np.concatenate([np.zeros(n), np.zeros(2 * w), [-t]])
    return Qp(Q, c, R, r)


def fit_lasso_ir(design: DesignSystem, tau: float = DEFAULT_TAU, t: float = 0.0) -> LassoIrFit:
    """Fit the budgeted-offset estimator at a fixed budget.

    With ``t = 0`` the offset is identically zero, so the spread coefficients
    equal the midpoint coefficients exactly; that case is solved directly in
    the midpoint block alone.
    """
    tau = validate_tau(tau)
    t = float(t)
    if t < 0.0:
        raise ValueError("the budget must be nonnegative")
    if t > 0.0:
        u, _, info = _solve_qp_full(_joint_qp(design, tau, t))
        return _joint_fit(design, tau, t, u, info)
    g = design.gamma_matrix
    hm = design.fm.T @ design.fm
    hs = design.fs.T @ design.fs
    Q = 2.0 * ((1.0 - tau) * hm + tau * hs)
    c = -2.0 * ((1.0 - tau) * design.fm.T @ design.vm + tau * design.fs.T @ design.vs)
    a_m, _, info = _solve_qp_full(Qp(Q, c, g, np.zeros(g.shape[0])))
    return _ir_fit(design, tau, t, a_m, np.zeros(design.block_width), info)


def _joint_fit(design: DesignSystem, tau: float, t: float, u: np.ndarray, info: dict) -> LassoIrFit:
    """Package the joint QP's solution ``u = (a_m, offset+, offset-)``."""
    w = design.block_width
    a_a = np.maximum(u[w : 2 * w], 0.0) - np.maximum(u[2 * w :], 0.0)
    return _ir_fit(design, tau, t, u[:w], a_a, info)


def _ir_fit(design: DesignSystem, tau: float, t: float, a_m: np.ndarray, a_a: np.ndarray,
            info: dict) -> LassoIrFit:
    """The fit, intercept and honesty flags of the midpoint block and offset."""
    a_s = a_m + a_a
    delta_mid = design.mean_y.mid - float(design.mean_mid_xebl @ a_m)
    delta_spr = design.mean_y.spr - float(design.mean_spr_xebl @ a_s)
    fitted_spr = design.gamma_matrix @ a_s + delta_spr
    objective = float(
        (1.0 - tau) * np.sum((design.vm - design.fm @ a_m) ** 2)
        + tau * np.sum((design.vs - design.fs @ a_s) ** 2)
    )
    diagnostics = dict(info)
    diagnostics["budget_used"] = float(np.sum(np.abs(a_a)))
    diagnostics["fitted_spr_min"] = float(np.min(fitted_spr))
    return LassoIrFit(
        a_m=a_m,
        a_a=a_a,
        t=t,
        fitted_spr_nonneg=bool(np.all(fitted_spr >= -1e-9)),
        hukuhara_residuals_exist=bool(np.all(design.sample.spr_y - fitted_spr >= -1e-9)),
        delta_mid=delta_mid,
        delta_spr=delta_spr,
        objective=objective,
        diagnostics=diagnostics,
    )


def to_fit_result(design: DesignSystem, fit: LassoIrFit, tau: float = DEFAULT_TAU) -> FitResult:
    """Package a budgeted-offset fit in the common result shape.

    The error is computed from the raw fitted spreads even when some are
    negative; the reported fitted spreads are clamped at zero and the flags
    record that this happened.
    """
    tau = validate_tau(tau)
    a_s = fit.a_s
    delta = Interval(fit.delta_mid, max(0.0, fit.delta_spr))
    coefs = Coefficients.from_blocks(fit.a_m, a_s, delta, design.variant, design.k, check_nonneg=False)
    diagnostics = dict(fit.diagnostics)
    diagnostics["fitted_spr_nonneg"] = float(fit.fitted_spr_nonneg)
    diagnostics["hukuhara_residuals_exist"] = float(fit.hukuhara_residuals_exist)
    diagnostics["delta_spr_raw"] = fit.delta_spr
    return _fit_result(design, coefs, fit.a_m, a_s, tau, METHOD_LASSO_IR, t_budget=fit.t,
                       diagnostics=diagnostics)


def default_budget_grid(design: DesignSystem, count: int = 20, ratio: float = 1e-3) -> list[float]:
    """Zero plus ``count`` log-spaced budgets up to the least-squares L1 scale."""
    a, _, _, _ = np.linalg.lstsq(design.fm, design.vm, rcond=None)
    t_max = float(np.sum(np.abs(a)))
    if t_max <= 0.0:
        return [0.0]
    return [0.0] + list(np.geomspace(ratio * t_max, t_max, count))


def _budget_path(design: DesignSystem, tau: float, grid: Sequence[float]) -> Iterator[LassoIrFit]:
    """Fits along a budget grid.  The ``t > 0`` programs share the joint QP
    but for the budget, which is the right-hand side of its last row, so they
    are walked by active-set continuation (see :func:`intreg.lcp._qp_path`)."""
    qp = _joint_qp(design, tau, 0.0)
    joint = _qp_path(qp.Q, qp.R, lambda t: (qp.c, np.concatenate([qp.r[:-1], [-t]])),
                     [t for t in grid if t > 0.0])
    for t in grid:
        if t > 0.0:
            u, _, info = next(joint)
            yield _joint_fit(design, tau, t, u, info)
        else:
            yield fit_lasso_ir(design, tau, t)


def select_budget(
    design: DesignSystem,
    tau: float = DEFAULT_TAU,
    t_grid: Optional[Sequence[float]] = None,
    folds: int = 5,
    seed: int = 0,
) -> float:
    """Budget minimizing the cross-validated weighted squared error.

    Shares the Lasso cross-validation's fold routine, so a seed gives the
    same partition and the same held-out error as there; ties resolve to the
    earliest grid entry.
    """
    tau = validate_tau(tau)
    if t_grid is None:
        t_grid = default_budget_grid(design)
    grid = [float(t) for t in t_grid]
    if not grid:
        raise ValueError("the budget grid must be nonempty")

    def fit_grid(train: DesignSystem):
        for fit in _budget_path(train, tau, grid):
            yield fit.a_m, fit.a_s

    errors = _cv_errors(design, tau, folds, seed, fit_grid)
    return grid[int(np.argmin(errors.mean(axis=0)))]
