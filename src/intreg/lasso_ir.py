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
it: all folds' ``t = 0`` programs are walked first, down from where no row
binds (Best, 1996), and each fold's ``t > 0`` grid is walked up from that
fit as the exact homotopy of the L1-constrained Lasso (Osborne, Presnell &
Turlach, 2000; :func:`intreg.lcp._qp_homotopy`), breakpoint to breakpoint,
with no Lemke run unless a point fails its certificate, which is checked
against every row.  The folds walk in lockstep, each step a segment of
every fold still walking; a fold whose point fails is solved there by Lemke
alone and walks on from that fit.  A walk ends where the budget's
multiplier reaches 0; every larger budget gets that fit.  The path returns the grid's fits as
stacks, one row per budget, with the ``t = 0`` fit for every zero budget.
A single fit (the refit at the selected budget, or a given one) is one
working-set Lemke solve of the joint QP, as the paper prescribes: it solves
``t = 0`` by Lemke first, and the rows that bind that fit, with every offset
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
    w, n = design.block_width, design.n
    fm, fs = design.fm, design.fs
    # the spread block is a_m + a+ - a-: its terms couple the parts with these signs
    signs = np.array([1.0, 1.0, -1.0])
    Q = (np.outer(signs, signs)[:, None, :, None] * (2.0 * tau * (fs.T @ fs))[:, None, :]).reshape(3 * w, 3 * w)
    Q[:w, :w] += 2.0 * (1.0 - tau) * (fm.T @ fm)
    c = (-signs[:, None] * (2.0 * tau * (fs.T @ design.vs))).ravel()
    c[:w] -= 2.0 * (1.0 - tau) * (fm.T @ design.vm)
    R, r = np.zeros((n + 2 * w + 1, 3 * w)), np.zeros(n + 2 * w + 1)
    R[:n] = (signs[:, None] * design.gamma_matrix[:, None, :]).reshape(n, 3 * w)  # fitted spreads >= 0
    R[n:-1, w:] = np.eye(2 * w)
    R[-1, w:], r[-1] = -1.0, -t  # L1 budget
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


def _zero_budget(design: DesignSystem, tau: float) -> tuple[Qp, tuple[np.ndarray, ...]]:
    """The joint QP at ``t = 0`` and its ``t = 0`` program ``(Q, c, R, r)``:
    the midpoint block alone under the rows that keep the tied fitted spreads
    nonnegative, sliced from the joint QP."""
    w, n = design.block_width, design.n
    qp = _joint_qp(design, tau, 0.0)
    return qp, (qp.Q[:w, :w], qp.c[:w], qp.R[:n, :w], qp.r[:n])


def _budget_fit(design: DesignSystem, tau: float, t: float) -> tuple[np.ndarray, np.ndarray, dict[str, float]]:
    """Midpoint block, offset and QP diagnostics of the single fit at budget
    ``t``.  The ``t = 0`` program (:func:`_zero_budget`) is solved first by
    :func:`intreg.lcp._solve_qp`; at ``t > 0`` so is the joint QP, its
    working set started at the spread rows that bind the ``t = 0`` fit,
    every offset bound row and the budget row."""
    (t,), w = _finite_nonnegative([t], "budget"), design.block_width
    qp, program = _zero_budget(design, tau)
    a_m, lam, info, _ = _solve_qp(*program)
    if t == 0.0:
        return a_m, np.zeros(w), info
    r = qp.r.copy()
    r[-1] = -t
    work = np.concatenate([_active_rows(lam)[0], np.arange(design.n, r.size)])
    u, _, info, _ = _solve_qp(qp.Q, qp.c, qp.R, r, work)
    return u[:w], _snap_zeros(np.maximum(u[w : 2 * w], 0.0) - np.maximum(u[2 * w :], 0.0)), info


def _budget_paths(designs: Sequence[DesignSystem], tau: float,
                  grid: Sequence[float]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Midpoint blocks and offsets of each design along one budget grid, as
    stacks with one row per budget, one pair of stacks per design.

    The designs' ``t = 0`` programs (:func:`_zero_budget`) are solved first,
    whatever the grid, by one lockstep walk (:func:`intreg.lcp._qp_homotopy`)
    with every row's right-hand side lowered by ``theta``, from the largest
    float, where no row binds, down to 0; their fits serve every zero
    budget.  The ``t > 0`` programs share the joint QP but for the budget,
    the right-hand side of its last row, so the grid, in any order, is
    walked up from the ``t = 0`` fit as the exact homotopy in ``theta =
    -t``, the designs' walks in lockstep; a point of either walk that fails
    its certificate is solved by Lemke and the walk restarts from it.  A
    budget walk starts from the spread rows of the set the ``t = 0`` walk
    ends on, every offset bound but that of the offset whose gradient ``g``
    there is most negative, and the budget row.  By the ``t = 0``
    stationarity, ``g = [-h, h]`` with ``h = 2 (1 - tau) F_m'(F_m a_m -
    v_m)`` where a spread row binds; where none does, ``g`` is the
    objective's own.  Where no entry of ``g`` is negative, no offset lowers
    the objective and every ``t > 0`` point is the ``t = 0`` fit.  A walk ends
    where the budget's multiplier reaches 0, at the budget the unbounded
    offset uses: every larger budget gets that released fit.  Offset entries
    within roundoff of zero are snapped to exact zeros, as the spread
    block's are.
    """
    grid = _finite_nonnegative(grid, "budget")
    on = grid > 0.0
    t = grid[on]
    qps, programs = zip(*(_zero_budget(design, tau) for design in designs))
    Q, c, R, r = zip(*programs)
    # every row lowered by theta: none binds at theta0, and theta = 0 is the program
    zero = _qp_homotopy(Q, R, r, c, [np.zeros(x.size) for x in c], np.zeros(1), [np.finfo(float).max] * len(c),
                        [()] * len(c), [np.full(x.size, -1.0) for x in r])
    # per design: a stack over the whole grid, the t = 0 fit on every row
    # but those of positive budgets where the design is walked below
    stacks, walks = [], []
    for design, qp, ((a_m,), spread) in zip(designs, qps, zero):
        w, n, p = design.block_width, design.n, qp.R.shape[0]
        # the offsets' gradient at the t = 0 fit: the objective's, less the
        # spread rows' load, which by stationarity is [-h, h] where one binds
        h = 2.0 * (1.0 - tau) * (design.fm.T @ (design.fm @ a_m - design.vm))
        g = np.concatenate([-h, h]) if spread.size else qp.Q[w:, :w] @ a_m + qp.c[w:]
        stacks.append(np.tile(np.concatenate([a_m, np.zeros(2 * w)]), (grid.size, 1)))
        if float(np.min(g)) < 0.0:
            # the freed offset enters as the budget opens; budgets up is theta = -t down
            dr = np.zeros(p)
            dr[-1] = 1.0
            walks.append((stacks[-1], qp, np.concatenate([spread, n + np.delete(np.arange(2 * w), np.argmin(g)),
                                                           [p - 1]]), dr))
    if walks:
        U, qp, start, dr = zip(*walks)
        paths = _qp_homotopy([x.Q for x in qp], [x.R for x in qp], [x.r for x in qp], [x.c for x in qp],
                             [np.zeros(x.c.size) for x in qp], -t, [0.0] * len(qp), start, dr)
        for u, (Z, _) in zip(U, paths):
            u[on] = Z
    return [(A_m, _snap_zeros(np.maximum(A_p, 0.0) - np.maximum(A_n, 0.0)))
            for A_m, A_p, A_n in (np.split(U, 3, axis=1) for U in stacks)]


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
