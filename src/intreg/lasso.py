"""L1-penalized estimation of both coefficient blocks with cross-validated
penalty selection.

The midpoint block is a plain Lasso whose optimality conditions, in the
positive and negative parts of its coefficients, form a linear
complementarity problem that Lemke pivoting solves exactly.  The spread
block keeps the same inequality constraints as the least-squares fit; on
that feasible cone every coefficient is nonnegative, so the L1 penalty is a
linear term and the penalized problem is solved exactly by the
complementary-pivoting QP machinery.

The two blocks are penalized and cross-validated independently.  This is
sound because the weighted squared error splits into a midpoint part that
depends only on the midpoint block and a spread part that depends only on
the spread block, so the two validation curves can be minimized separately.
When scanning one block, the other block is held at its unpenalized
least-squares solution on the same training fold, which only shifts that
block's validation curve by a constant.  One fold pass serves both blocks:
each fold's training design and held-out rows are built once, both blocks'
grids are scanned on them, and the error matrix is split by block.

Each fold walks a block's decreasing grid as a path.  The midpoint Gram
statistics ``F'F`` and ``F'v`` do not depend on the penalty and are formed
once per path; each midpoint solution is first tried on the previous
penalty's sign pattern (one linear solve, kept only when it meets the
optimality conditions exactly), and Lemke runs on the Gram form only where
the pattern changes.  The penalty
enters the spread QP's linear term alone, so the spread grid is walked by
exact active-set continuation (the spread block's one solver, in
:mod:`intreg.least_squares`): each point is first solved on the binding
rows of the last breakpoint and kept only when its slacks, multipliers and
KKT residuals over every constraint row pass; Lemke runs only where the set
of binding rows changes.  Every grid point is still checked on its own (the
midpoint subgradient-gap test and zero snap; the spread QP's certificate
against every row), and a single fit is the one-point grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .design import Coefficients, DesignSystem, build_design, regressor_blocks
from .errors import FoldTooSmall, RayTermination, SubgradientGap
from .intervals import DEFAULT_TAU, Interval, validate_tau
from .lcp import SOLVED, Lcp, lemke_solve
from .least_squares import (
    METHOD_LASSO,
    FitResult,
    _fit_result,
    _msd_arrays,
    _spr_path,
    estimate_intercept,
    ols_mid,
    solve_spread_block,
)

RULE_MSE = "mse"
RULE_ONE_SE = "1se"
RULES = (RULE_MSE, RULE_ONE_SE)

BLOCK_MID = "mid"
BLOCK_SPR = "spr"
BLOCKS = (BLOCK_MID, BLOCK_SPR)

DEFAULT_GRID_SIZE = 100
DEFAULT_GRID_RATIO = 1e-3


def soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def lasso_lemke(F: np.ndarray, v: np.ndarray, lam: float, start: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact minimizer of ``1/2 ||v - F a||^2 + lam ||a||_1``.

    With ``G = F'F``, ``b = F'v`` and ``a = a+ - a-``, the optimality
    conditions are the complementarity system of ``M = [[G, -G], [-G, G]]``
    and ``q = [lam - b; lam + b]`` in ``(a+, a-) >= 0``; ``M`` is positive
    semidefinite, so Lemke pivoting solves it exactly.  Dividing both by
    ``max(diag G)`` leaves the solution unchanged and makes the pivot
    tolerance independent of the data scale.  ``lam = 0`` is least squares.

    Given ``start`` with signs ``s`` and support ``A``, the solution of
    ``G_AA a_A = b_A - lam s_A`` is returned when its signs are exactly ``s``
    and ``|b_j - G_j a| <= lam`` off the support: these are the optimality
    conditions, checked without tolerance.
    """
    if lam == 0.0:
        return np.linalg.lstsq(F, v, rcond=None)[0]
    return _lasso_gram(F.T @ F, F.T @ v, lam, start)


def _lasso_gram(G: np.ndarray, b: np.ndarray, lam: float, start: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`lasso_lemke` at ``lam > 0`` from the Gram statistics
    ``G = F'F`` and ``b = F'v``, which a penalty path forms once."""
    if start is not None:
        s = np.sign(start)
        on = s != 0.0
        a = np.zeros(b.size)
        try:
            a[on] = np.linalg.solve(G[on][:, on], b[on] - lam * s[on])
        except np.linalg.LinAlgError:
            pass
        else:
            if np.array_equal(np.sign(a), s) and np.all(np.abs(b[~on] - G[~on] @ a) <= lam):
                return a
    scale = float(np.max(np.diag(G), initial=0.0)) or 1.0
    sol = lemke_solve(Lcp(np.block([[G, -G], [-G, G]]) / scale, np.concatenate([lam - b, lam + b]) / scale))
    if sol.status != SOLVED:
        raise RayTermination("complementary pivoting ray-terminated on a midpoint Lasso")
    return sol.z[: b.size] - sol.z[b.size :]


def mid_kkt_gap(F: np.ndarray, v: np.ndarray, lam: float, a: np.ndarray) -> float:
    """Worst violation of the subgradient optimality condition.

    Zero coordinates need ``|F_j'(v - Fa)| <= lam``; active coordinates need
    the correlation to sit exactly at ``lam`` with the matching sign.
    """
    g = F.T @ (v - F @ a)
    gap = np.where(a != 0.0, np.abs(g - lam * np.sign(a)), np.maximum(np.abs(g) - lam, 0.0))
    return float(np.max(gap, initial=0.0))


def fit_lasso_mid(design: DesignSystem, lam: float) -> np.ndarray:
    """Midpoint-block Lasso solution, certified by its subgradient condition.

    Coefficients below working precision are snapped to exact zeros, so a
    penalty at or above the zeroing threshold returns the zero vector
    exactly.
    """
    return next(_mid_fits(design, [lam]))[0]


def fit_lasso_spr(design: DesignSystem, lam: float, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Spread-block Lasso under the feasibility cone.

    Solved exactly as a QP because the cone forces nonnegative coefficients,
    making the penalty linear.  The minimizer does not depend on ``tau``;
    the argument is accepted for interface symmetry with the fit entry
    points.
    """
    return solve_spread_block(design, validate_tau(tau), lam)[0]


def _mid_fits(design: DesignSystem, lambdas: Iterable[float]) -> Iterator[tuple[np.ndarray, float]]:
    """Midpoint-block solutions along a decreasing penalty grid, each point
    first tried on the previous point's sign pattern, and the subgradient
    gap that certifies each snapped solution; a single fit is the one-point
    grid.

    The Gram statistics and the certificate's scale do not depend on the
    penalty, so they are formed once per grid; the gap itself is computed
    from the design.
    """
    F, v = design.fm, design.vm
    G = F.T @ F
    b = F.T @ v
    bound = 1e-8 * (1.0 + float(np.max(np.abs(b), initial=0.0)))
    a = None
    for lam in lambdas:
        lam = float(lam)
        if lam < 0.0:
            raise ValueError("the penalty must be nonnegative")
        a = ols_mid(design)[0] if lam == 0.0 else _lasso_gram(G, b, lam, a)
        a[np.abs(a) <= 1e-12 * (1.0 + float(np.max(np.abs(a), initial=0.0)))] = 0.0
        gap = mid_kkt_gap(F, v, lam, a)
        if gap > bound:
            raise SubgradientGap(f"the midpoint Lasso solution left a subgradient gap of {gap}")
        yield a, gap


def _mid_path(design: DesignSystem, lambdas: Iterable[float]) -> Iterator[np.ndarray]:
    """Midpoint-block solutions along a decreasing penalty grid (see :func:`_mid_fits`)."""
    for a_m, _ in _mid_fits(design, lambdas):
        yield a_m


def lambda_grid(design: DesignSystem, count: int = DEFAULT_GRID_SIZE, ratio: float = DEFAULT_GRID_RATIO, block: str = BLOCK_MID) -> np.ndarray:
    """Log-spaced decreasing penalty grid from the smallest all-zero penalty.

    For the midpoint block the threshold is ``max |F_m' v_m|``; for the
    spread block the cone makes it one-sided, ``max(F_s' v_s)`` clipped at
    zero.
    """
    if count < 2:
        raise ValueError("need at least two grid points")
    if not (0.0 < ratio < 1.0):
        raise ValueError("ratio must lie strictly between 0 and 1")
    if block == BLOCK_MID:
        lam_max = float(np.max(np.abs(design.fm.T @ design.vm), initial=0.0))
    elif block == BLOCK_SPR:
        lam_max = max(0.0, float(np.max(design.fs.T @ design.vs, initial=0.0)))
    else:
        raise ValueError(f"block must be {BLOCK_MID!r} or {BLOCK_SPR!r}")
    if lam_max <= 0.0:
        # no signal: any penalty gives the zero solution, keep a tiny grid
        lam_max = 1e-12
    return np.geomspace(lam_max, ratio * lam_max, count)


@dataclass
class LassoPath:
    """Cross-validation results for one coefficient block.

    The two blocks have different zeroing thresholds, hence separate path
    objects rather than one shared grid.  For the full-sample coefficient
    path, map :func:`fit_lasso_mid` or :func:`fit_lasso_spr` over
    ``lambdas`` on the full-sample design.
    """

    block: str
    lambdas: np.ndarray
    cv_mean: np.ndarray
    cv_stderr: np.ndarray
    lambda_mse: float
    lambda_1se: float


def _cv_errors(
    design: DesignSystem,
    tau: float,
    folds: int,
    seed: int,
    fit_grid: Callable[[DesignSystem], Iterable[tuple[np.ndarray, np.ndarray]]],
) -> np.ndarray:
    """Held-out weighted squared errors, one row per fold, one column per grid point.

    Folds are a seeded pseudorandom partition of the rows of
    ``design.sample``.  ``fit_grid`` receives each fold's training design and
    yields the midpoint and spread blocks ``(a_m, a_s)`` fitted at every grid
    point; the intercept comes from the training means, as in the
    full-sample fits.
    """
    sample = design.sample
    n = sample.n
    if folds < 2 or folds > n:
        raise ValueError(f"folds must lie between 2 and {n}, got {folds}")
    parts = np.array_split(np.random.default_rng(seed).permutation(n), folds)
    errors = []
    for f, held in enumerate(parts):
        held = np.sort(held)
        train_rows = np.setdiff1d(np.arange(n), held)
        if train_rows.size < 2:
            raise FoldTooSmall(f"fold {f} leaves only {train_rows.size} training rows")
        train = build_design(sample.subset(train_rows), design.variant)
        test = sample.subset(held)
        mid_side, spr_side = regressor_blocks(test, design.variant)
        row = []
        for a_m, a_s in fit_grid(train):
            delta_mid = train.mean_y.mid - float(train.mean_mid_xebl @ a_m)
            delta_spr = train.mean_y.spr - float(train.mean_spr_xebl @ a_s)
            mid_hat = mid_side @ a_m + delta_mid
            spr_hat = spr_side @ a_s + delta_spr
            row.append(_msd_arrays(test.mid_y - mid_hat, test.spr_y - spr_hat, tau))
        errors.append(row)
    return np.array(errors)


def cross_validate(
    design: DesignSystem,
    tau: float = DEFAULT_TAU,
    folds: int = 5,
    seed: int = 0,
    blocks: tuple[str, ...] = BLOCKS,
    count: int = DEFAULT_GRID_SIZE,
    ratio: float = DEFAULT_GRID_RATIO,
) -> tuple[LassoPath, ...]:
    """K-fold cross-validation of each requested block's penalty.

    Returns one path per entry of ``blocks``, in that order, all computed in
    one pass over the folds.  Fold assignment is a seeded pseudorandom
    partition, so identical seeds give identical paths.  Per penalty,
    ``cv_mean`` is the mean held-out weighted squared error and
    ``cv_stderr`` its standard error across folds; the selected penalties
    are the error minimizer and the largest penalty within one standard
    error of it.
    """
    tau = validate_tau(tau)
    if not blocks or any(block not in BLOCKS for block in blocks):
        raise ValueError(f"blocks must be a nonempty tuple drawn from {BLOCKS}, got {blocks!r}")
    grids = [lambda_grid(design, count, ratio, block) for block in blocks]

    def fit_grid(train: DesignSystem):
        for block, lambdas in zip(blocks, grids):
            if block == BLOCK_MID:
                a_s, _ = solve_spread_block(train, tau)
                for a_m in _mid_path(train, lambdas):
                    yield a_m, a_s
            else:
                a_m, _ = ols_mid(train)
                for a_s, _ in _spr_path(train, lambdas, tau):
                    yield a_m, a_s

    errors = _cv_errors(design, tau, folds, seed, fit_grid)
    paths = []
    for block, lambdas, block_errors in zip(blocks, grids, np.split(errors, len(blocks), axis=1)):
        cv_mean = block_errors.mean(axis=0)
        cv_stderr = block_errors.std(axis=0, ddof=1) / np.sqrt(folds)
        best = int(np.argmin(cv_mean))
        threshold = cv_mean[best] + cv_stderr[best]
        one_se = int(np.flatnonzero(cv_mean <= threshold)[0])
        paths.append(LassoPath(
            block=block,
            lambdas=lambdas,
            cv_mean=cv_mean,
            cv_stderr=cv_stderr,
            lambda_mse=float(lambdas[best]),
            lambda_1se=float(lambdas[one_se]),
        ))
    return tuple(paths)


def fit_lasso(
    design: DesignSystem,
    tau: float = DEFAULT_TAU,
    rule: str = RULE_MSE,
    folds: int = 5,
    seed: int = 0,
    lambda_mid: Optional[float] = None,
    lambda_spr: Optional[float] = None,
    count: int = DEFAULT_GRID_SIZE,
    ratio: float = DEFAULT_GRID_RATIO,
) -> FitResult:
    """Lasso fit with independently selected per-block penalties.

    Explicit ``lambda_mid`` / ``lambda_spr`` values skip cross-validation
    for that block; the blocks left open share one cross-validation pass.
    The intercept is never penalized; it is recovered from the refit exactly
    as in the least-squares fit.
    """
    tau = validate_tau(tau)
    if rule not in RULES:
        raise ValueError(f"rule must be one of {RULES}, got {rule!r}")
    penalties = {BLOCK_MID: lambda_mid, BLOCK_SPR: lambda_spr}
    open_blocks = tuple(block for block in BLOCKS if penalties[block] is None)
    diagnostics: dict[str, float] = {}
    if open_blocks:
        for path in cross_validate(design, tau, folds, seed, open_blocks, count, ratio):
            penalties[path.block] = path.lambda_mse if rule == RULE_MSE else path.lambda_1se
            diagnostics[f"cv_{path.block}_min_error"] = float(np.min(path.cv_mean))
    lambda_mid = float(penalties[BLOCK_MID])
    lambda_spr = float(penalties[BLOCK_SPR])
    a_m, mid_gap = next(_mid_fits(design, [lambda_mid]))
    a_s, spr_info = solve_spread_block(design, tau, lambda_spr)
    diagnostics["mid_kkt_gap"] = mid_gap
    diagnostics.update(spr_info)
    coefs = Coefficients.from_blocks(a_m, a_s, Interval(0.0, 0.0), design.variant, design.k)
    coefs = coefs.with_delta(estimate_intercept(design, coefs))
    return _fit_result(design, coefs, a_m, a_s, tau, METHOD_LASSO, lambda_mid=lambda_mid,
                       lambda_spr=lambda_spr, diagnostics=diagnostics)
