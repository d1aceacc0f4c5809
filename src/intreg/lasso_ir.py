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
right-hand side of the budget row, so the solution is piecewise affine in
it: each fold's ``t = 0`` program is solved first, always, and each fold's
``t > 0`` grid is walked up from that fit as the exact homotopy of the
L1-constrained Lasso (Osborne, Presnell & Turlach, 2000;
:func:`intreg.lcp._qp_homotopy`), breakpoint to breakpoint, with no joint
Lemke run unless a point fails its certificate, which is checked against
every row.  The folds walk in lockstep, each step a segment of every fold
still walking; a fold whose point fails is solved there by Lemke alone and
walks on from that fit.  A walk ends where the budget's multiplier reaches
0; every larger budget gets that fit.  The path returns the grid's fits as
stacks, one row per budget, with the ``t = 0`` fit for every zero budget.
A single fit (the refit at the selected budget, or a given one) is one
working-set Lemke solve of the joint QP, as the paper prescribes: it solves
``t = 0`` first as well, and the rows that bind that fit, with every offset
bound and the budget row, start its working set.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .design import DesignSystem
from .intervals import DEFAULT_TAU, Interval, validate_tau
from .lasso import _cv_errors, _first_min
from .lcp import Qp, _active_rows, _qp_homotopy, _solve_qp
from .least_squares import METHOD_LASSO_IR, FitResult, _finite_nonnegative, _fit_result, _snap_zeros, ols_mid


def _joint_qp(design: DesignSystem, tau: float, t: float) -> Qp:
    """QP over (midpoint block, offset+ part, offset- part)."""
    w = design.block_width
    g = design.gamma_matrix
    fm, fs = design.fm, design.fs
    # the spread block is a_m + a+ - a-: its terms couple the parts with these signs
    signs = np.array([1.0, 1.0, -1.0])
    Q = np.kron(np.outer(signs, signs), 2.0 * tau * (fs.T @ fs))
    Q[:w, :w] += 2.0 * (1.0 - tau) * (fm.T @ fm)
    c = np.kron(-signs, 2.0 * tau * (fs.T @ design.vs))
    c[:w] -= 2.0 * (1.0 - tau) * (fm.T @ design.vm)
    eye, zeros = np.eye(w), np.zeros((w, w))
    R = np.block([
        [g, g, -g],                                           # fitted spreads >= 0
        [zeros, eye, zeros],
        [zeros, zeros, eye],
        [np.zeros((1, w)), -np.ones((1, w)), -np.ones((1, w))],  # L1 budget
    ])
    r = np.concatenate([np.zeros(g.shape[0] + 2 * w), [-t]])
    return Qp(Q, c, R, r)


def fit_lasso_ir(design: DesignSystem, tau: float = DEFAULT_TAU, t: Optional[float] = None,
                 folds: int = 5, seed: int = 0) -> FitResult:
    """Fit the budgeted-offset estimator at budget ``t`` (:func:`_budget_fit`);
    without ``t``, at the budget :func:`select_budget` picks on ``folds`` and
    ``seed``.

    With ``t = 0`` the offset is identically zero, so the spread coefficients
    equal the midpoint coefficients exactly.  Nothing bounds the fitted
    spreads by the observed ones, so the diagnostics flag the consequences:
    ``fitted_spr_nonneg`` and ``hukuhara_residuals_exist`` (1 or 0), with
    ``fitted_spr_min``, the offset's L1 norm ``budget_used`` and the raw
    spread intercept ``delta_spr_raw``.  The error is measured on the raw
    fitted spreads; the reported intercept and fitted spreads are clamped.
    """
    tau = validate_tau(tau)
    t = select_budget(design, tau, folds=folds, seed=seed) if t is None else float(t)
    a_m, a_a, info = _budget_fit(design, tau, t)
    a_s = a_m + a_a
    delta_mid = design.mean_y.mid - float(design.mean_mid_xebl @ a_m)
    delta_spr = design.mean_y.spr - float(design.mean_spr_xebl @ a_s)
    fitted_spr = design.gamma_matrix @ a_s + delta_spr
    diagnostics = dict(info)
    diagnostics["budget_used"] = float(np.sum(np.abs(a_a)))
    diagnostics["fitted_spr_min"] = float(np.min(fitted_spr))
    diagnostics["fitted_spr_nonneg"] = float(np.all(fitted_spr >= -1e-9))
    diagnostics["hukuhara_residuals_exist"] = float(np.all(design.sample.spr_y - fitted_spr >= -1e-9))
    diagnostics["delta_spr_raw"] = delta_spr
    return _fit_result(design, a_m, a_s, Interval(delta_mid, max(0.0, delta_spr)), tau, METHOD_LASSO_IR,
                       check_nonneg=False, t_budget=t, diagnostics=diagnostics)


def default_budget_grid(design: DesignSystem, count: int = 20, ratio: float = 1e-3) -> list[float]:
    """Zero plus ``count`` log-spaced budgets up to the least-squares L1 scale."""
    t_max = float(np.sum(np.abs(ols_mid(design)[0])))
    if t_max <= 0.0:
        return [0.0]
    return [0.0] + list(np.geomspace(ratio * t_max, t_max, count))


def _zero_budget(design: DesignSystem, tau: float) -> tuple[Qp, np.ndarray, dict[str, float], np.ndarray, np.ndarray]:
    """The joint QP at ``t = 0`` and its fit: the midpoint block alone under
    the rows that keep the tied fitted spreads nonnegative, sliced from the
    joint QP and solved by :func:`intreg.lcp._solve_qp`; its diagnostics,
    the spread rows that bind it, and the offsets' gradient there, net of
    those rows' multipliers."""
    w, n = design.block_width, design.n
    qp = _joint_qp(design, tau, 0.0)
    a_m, lam, info, _ = _solve_qp(qp.Q[:w, :w], qp.c[:w], qp.R[:n, :w], qp.r[:n])
    spread = _active_rows(lam)[0]
    u0 = np.concatenate([a_m, np.zeros(2 * w)])
    return qp, a_m, info, spread, (qp.Q @ u0 + qp.c - qp.R[spread].T @ lam[spread])[w:]


def _budget_fit(design: DesignSystem, tau: float, t: float) -> tuple[np.ndarray, np.ndarray, dict[str, float]]:
    """Midpoint block, offset and QP diagnostics of the single fit at budget
    ``t``.  The ``t = 0`` fit comes first (:func:`_zero_budget`); at ``t >
    0`` the joint QP is solved by :func:`intreg.lcp._solve_qp`, its working
    set started at the spread rows that bind the ``t = 0`` fit, every offset
    bound row and the budget row."""
    (t,), w = _finite_nonnegative([t], "budget"), design.block_width
    qp, a_m, info, spread, _ = _zero_budget(design, tau)
    if t == 0.0:
        return a_m, np.zeros(w), info
    r = qp.r.copy()
    r[-1] = -t
    u, _, info, _ = _solve_qp(qp.Q, qp.c, qp.R, r, np.concatenate([spread, np.arange(design.n, r.size)]))
    return u[:w], _snap_zeros(np.maximum(u[w : 2 * w], 0.0) - np.maximum(u[2 * w :], 0.0)), info


def _budget_paths(designs: Sequence[DesignSystem], tau: float,
                  grid: Sequence[float]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Midpoint blocks and offsets of each design along one budget grid, as
    stacks with one row per budget, one pair of stacks per design.

    The ``t = 0`` fit (:func:`_zero_budget`) is solved first, whatever the
    grid, and serves every zero budget.  The ``t > 0`` programs share the
    joint QP but for the budget, the right-hand side of its last row, so the
    grid, in any order, is walked up from the ``t = 0`` fit as the exact
    homotopy in ``theta = -t``, the designs' walks in lockstep
    (:func:`intreg.lcp._qp_homotopy`); a point that fails its certificate is
    solved by Lemke and the walk restarts from it.  A walk starts from the
    binding spread rows of the ``t = 0`` fit, every offset bound but that of
    the offset whose gradient ``g`` there is most negative, and the budget
    row.  Where no entry of ``g`` is negative, no offset lowers the
    objective and every ``t > 0`` point is the ``t = 0`` fit.  A walk ends
    where the budget's multiplier reaches 0, at the budget the unbounded
    offset uses: every larger budget gets that released fit.  Offset entries
    within roundoff of zero are snapped to exact zeros, as the spread
    block's are.
    """
    grid = _finite_nonnegative(grid, "budget")
    on = grid > 0.0
    t = grid[on]
    # per design: the t = 0 fit, and the t > 0 stack, that fit on every row
    # unless the design is walked below
    fits, walks = [], []
    for design in designs:
        qp, a_m, _, spread, g = _zero_budget(design, tau)
        w, n, p = design.block_width, design.n, qp.R.shape[0]
        fits.append((a_m, np.tile(np.concatenate([a_m, np.zeros(2 * w)]), (t.size, 1))))
        if float(np.min(g)) < 0.0:
            # the freed offset enters as the budget opens; budgets up is theta = -t down
            dr = np.zeros(p)
            dr[-1] = 1.0
            walks.append((fits[-1][1], qp, np.concatenate([spread, n + np.delete(np.arange(2 * w), np.argmin(g)),
                                                           [p - 1]]), dr))
    if walks:
        U, qp, start, dr = zip(*walks)
        paths = _qp_homotopy([x.Q for x in qp], [x.R for x in qp], [x.r for x in qp], [x.c for x in qp],
                             [np.zeros(x.c.size) for x in qp], -t, [0.0] * len(qp), start, dr)
        for u, Z in zip(U, paths):
            u[:] = Z
    out = []
    for a_m, U in fits:
        w = a_m.size
        A_m, A_a = U[:, :w], _snap_zeros(np.maximum(U[:, w : 2 * w], 0.0) - np.maximum(U[:, 2 * w :], 0.0))
        # grid point i is row rows[i] of the t > 0 stacks with the t = 0 fit appended
        rows = np.where(on, np.cumsum(on) - 1, A_m.shape[0])
        out.append((np.vstack([A_m, a_m])[rows], np.vstack([A_a, np.zeros((1, w))])[rows]))
    return out


def select_budget(
    design: DesignSystem,
    tau: float = DEFAULT_TAU,
    t_grid: Optional[Sequence[float]] = None,
    folds: int = 5,
    seed: int = 0,
) -> float:
    """Budget minimizing the cross-validated weighted squared error.

    Shares the Lasso cross-validation's fold routine, so a seed gives the
    same partition and the same held-out error as there; the folds' budget
    grids are walked in lockstep, and a fold whose point fails its
    certificate is solved there by Lemke alone.  Errors within
    ``1e-12`` relative of the minimum tie with it, and ties resolve to the
    earliest grid entry (the smallest budget on the default grid).
    """
    tau = validate_tau(tau)
    if t_grid is None:
        t_grid = default_budget_grid(design)
    grid = [float(t) for t in t_grid]
    if not grid:
        raise ValueError("the budget grid must be nonempty")

    def fit_grid(trains: list[DesignSystem]):
        return [(A_m, A_m + A_a) for A_m, A_a in _budget_paths(trains, tau, grid)]

    errors = _cv_errors(design, tau, folds, seed, fit_grid)
    return grid[_first_min(errors.mean(axis=0))]
