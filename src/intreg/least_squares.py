"""Least-squares estimation of the interval regression model.

The centered objective separates: the midpoint block is an ordinary
least-squares problem, while the spread block is a convex quadratic program
over the feasible cone (nonnegative coefficients, fitted spreads dominated
by observed spreads) solved exactly through the complementarity machinery.
The interval intercept is recovered last as the Hukuhara difference between
the mean response and the mean fitted part.

The spread block has one program, shared with the Lasso: an L1 penalty
enters the spread QP's linear term alone, so a grid of penalties is one QP
family, returned as one stack with a row per penalty.  A grid is walked as
the exact homotopy of that family, down from the penalty at and above which
the solution is 0.  A single fit (the unpenalized one here, a fixed penalty
in the Lasso) is one working-set Lemke solve, polished on its active set.
Rows of observed spread 0 are presolved before either: they pin the
coefficients they touch to 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .design import Coefficients, DesignSystem
from .errors import LengthMismatch
from .intervals import DEFAULT_TAU, Interval, hukuhara_diff, validate_tau
from .lcp import FIT_DIAGNOSTICS, Qp, _qp_homotopy, _solve_qp

METHOD_LS = "ls"
METHOD_LASSO = "lasso"
METHOD_LASSO_IR = "lasso-ir"

# spread coefficients and lasso-ir offsets within this relative distance of
# zero are snapped to exact zeros; complementary pivoting resolves active
# bounds to far better than this
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


def _spread_linear(tau: float, lam: float, g: np.ndarray) -> np.ndarray:
    """The spread QP's linear term ``2 tau (lam - F_s' v_s)``, from ``g = F_s' v_s``."""
    return 2.0 * tau * (lam - g)


def spread_qp(design: DesignSystem, tau: float, lam: float = 0.0) -> Qp:
    """The spread-block QP at weight ``tau`` with an optional linear L1 term.

    The objective is ``tau ||vs - fs a||^2 + 2 tau lam sum(a)``: on the
    feasible cone every coefficient is nonnegative, so the L1 penalty is
    linear, and the minimizer is that of ``1/2 ||vs - fs a||^2 + lam ||a||_1``.
    """
    fs = design.fs
    Q = 2.0 * tau * (fs.T @ fs)
    R, r = design.spread_constraints()
    return Qp(Q, _spread_linear(tau, lam, fs.T @ design.vs), R, r)


def _snap_zeros(a: np.ndarray) -> np.ndarray:
    """Entries within ``_ZERO_SNAP`` of their row's scale set to exact zeros."""
    tol = _ZERO_SNAP * (1.0 + np.max(np.abs(a), axis=-1, initial=0.0, keepdims=True))
    return np.where(np.abs(a) <= tol, 0.0, a)


def _spread_program(design: DesignSystem, tau: float):
    """The spread program of ``design`` at weight ``tau`` without its L1
    term, with the rows of observed spread 0 presolved: the free columns (a
    mask), the program's ``Q``, ``R`` and ``r`` on them, and ``g = F_s'
    v_s`` there; ``None`` when no spread signal is left.

    Rows of observed spread 0 are forcing constraints: such a row reads
    ``g_i a <= 0`` with ``g_i, a >= 0``, so it pins every ``a_j`` with
    ``g_ij > 0`` to exactly 0, and the program without those columns, their
    bound rows and these rows is solved.  Its diagnostics certify the full
    one: pinned coefficients are exact zeros, these rows have slack exactly
    0, and as each pinned ``j`` has some ``g_ij > 0``, multipliers on these
    rows that make every pinned bound's multiplier nonnegative exist.  With
    ``Q = 0`` the objective is linear with nonnegative slope over the cone,
    which holds 0: the solution is 0 at every penalty.
    """
    qp = spread_qp(design, tau)
    w = design.block_width
    forcing = np.concatenate([np.zeros(w, dtype=bool), qp.r[w:] == 0.0])
    free = ~np.any(qp.R[forcing] < 0.0, axis=0)  # the spread rows are -g
    rows = ~forcing & np.concatenate([free, np.ones(design.n, dtype=bool)])
    Q = qp.Q[np.ix_(free, free)]
    if float(np.trace(Q)) == 0.0:
        return None
    return free, Q, qp.R[np.ix_(rows, free)], qp.r[rows], (design.fs.T @ design.vs)[free]


def _finite_nonnegative(values: Iterable[float], what: str) -> np.ndarray:
    values = np.fromiter(values, dtype=float)
    if not np.all((values >= 0.0) & (values < np.inf)):
        raise ValueError(f"the {what} must be finite and nonnegative")
    return values


def _spr_paths(designs: Sequence[DesignSystem], lambdas: Iterable[float], tau: float) -> list[np.ndarray]:
    """Spread-block solutions of each design along one penalty grid, one
    stack per design with one row per penalty.

    The penalty enters the QP's linear term alone, ``2 tau (lam - g)`` with
    ``g = F_s' v_s``, so the grid is one QP family.  At and above the zeroing
    penalty ``lam0 = max(0, max_j g_j)`` the solution is 0 with every bound
    row binding, with multipliers ``2 tau (lam - g) >= 0``.  Below it the
    solution is piecewise affine in the penalty: the grid, in any order, is
    walked down from ``lam0`` as that exact homotopy, the designs' walks in
    lockstep (:func:`intreg.lcp._qp_homotopy`); a point that fails its
    certificate is solved by Lemke and the walk restarts from it.  The
    points at and above ``lam0`` are read off the first segment, on which
    every bound binds.  Each design's program is presolved first
    (:func:`_spread_program`); ``g`` and ``lam0`` are those of the presolved
    program.
    """
    lambdas = _finite_nonnegative(lambdas, "penalty")
    stacks, walks = [], []
    for design in designs:
        stacks.append(np.zeros((lambdas.size, design.block_width)))
        program = _spread_program(design, tau)
        if program is not None:
            walks.append((stacks[-1], *program))
    if walks:
        # the bound rows of the free columns come first and bind at the top
        A, free, Q, R, r, g = zip(*walks)
        paths = _qp_homotopy(Q, R, r, [-2.0 * tau * x for x in g], [np.full(x.size, 2.0 * tau) for x in g], lambdas,
                             [max(0.0, float(np.max(x))) for x in g], [np.arange(x.size) for x in g])
        for a, cols, (Z, _) in zip(A, free, paths):
            a[:, cols] = Z
    return [np.maximum(_snap_zeros(A), 0.0) for A in stacks]


def solve_spread_block(design: DesignSystem, tau: float, lam: float = 0.0) -> tuple[np.ndarray, dict]:
    """Spread-block solution under the feasibility cone, with diagnostics.

    The presolved program (:func:`_spread_program`) is solved by one
    working-set Lemke solve, polished on its active set
    (:func:`intreg.lcp._solve_qp`), below the zeroing penalty ``lam0 =
    max(0, max_j g_j)``; at and above it the solution is 0, with no ridge, no
    pivots and KKT residuals exactly 0.
    """
    (lam,) = _finite_nonnegative([lam], "penalty")
    a_s, info = np.zeros(design.block_width), dict.fromkeys(FIT_DIAGNOSTICS, 0.0)
    program = _spread_program(design, tau)
    if program is not None:
        free, Q, R, r, g = program
        if lam < max(0.0, float(np.max(g))):
            a_s[free], _, info, _ = _solve_qp(Q, _spread_linear(tau, lam, g), R, r)
    return np.maximum(_snap_zeros(a_s), 0.0), info


def estimate_intercept(design: DesignSystem, a_m: np.ndarray, a_s: np.ndarray) -> Interval:
    """Hukuhara difference between the mean response and the mean fitted part
    of the midpoint and spread blocks ``a_m`` and ``a_s``.

    Exists whenever the spread constraints hold on average, which every
    feasible fit guarantees.
    """
    mean_fitted = Interval(
        float(design.mean_mid_xebl @ a_m),
        max(0.0, float(design.mean_spr_xebl @ a_s)),
    )
    return hukuhara_diff(design.mean_y, mean_fitted)


def _fit_result(design: DesignSystem, a_m: np.ndarray, a_s: np.ndarray, delta: Interval, tau: float,
                method: str, check_nonneg: bool = True, **fields) -> FitResult:
    """Package block solutions and an intercept with their coefficients,
    fitted values and weighted error; the one place every estimator's
    result is built.

    The error is measured on the raw fitted spreads; only the reported
    fitted spreads are clamped at 0.  ``check_nonneg=False`` keeps spread
    coefficients that are unconstrained, as the comparison estimator's are.
    """
    mid_part = design.fm @ a_m
    spr_part = design.fs @ a_s
    return FitResult(
        coefficients=Coefficients.from_blocks(a_m, a_s, delta, design.variant, design.k, check_nonneg),
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
    return _fit_result(design, a_m, a_s, estimate_intercept(design, a_m, a_s), tau, METHOD_LS,
                       diagnostics=diagnostics)
