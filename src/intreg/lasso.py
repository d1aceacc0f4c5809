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
least-squares fit on the same training fold, which only shifts that
block's validation curve by a constant.  That fit is the zero-penalty end
of the fold's path of the other block: the midpoint path starts at the zero
penalty, the spread path ends there, and a block that is not scanned is
fitted at zero alone (the spread block by the same walk with no grid point
on the way), so one pass over the folds serves both blocks and equals the
single-block passes bit for bit.

Each fold walks a block's grid as a path.  The midpoint Gram
statistics ``F'F`` and ``F'v`` are formed once per path, and the penalty
moves the midpoint LCP along Lemke's covering vector, so one Lemke run
walks the whole midpoint grid; a single penalty is the one-point run.  The
penalty enters the spread QP's linear term alone, so the spread solution
is piecewise affine in it and 0 at and above the fold's zeroing penalty:
the spread grid is walked down from there as an exact homotopy
(:func:`intreg.lcp._qp_homotopy`), breakpoint to breakpoint, with no Lemke
run unless a point fails its certificate, all folds in lockstep, so that
each step solves every walking fold's segment at once; a fold whose point
fails is solved there by Lemke alone and walks on.  Every grid point is
still checked on its own (the midpoint subgradient-gap test and zero snap;
the spread QP's certificate against every row).  Both paths return their
fits as stacks, one row per penalty, so a fold's held-out errors for the
whole grid are one matrix product per block.  The full-sample refit at the
selected spread penalty is a single fit, solved by Lemke as the paper
prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .design import DesignSystem, build_design, regressor_blocks
from .errors import FoldTooSmall, RayTermination, SubgradientGap
from .intervals import DEFAULT_TAU, validate_tau
from .lcp import Lcp, _lemke_path
from .least_squares import (
    METHOD_LASSO,
    FitResult,
    _finite_nonnegative,
    _fit_result,
    _spr_paths,
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


def _lasso_gram(G: np.ndarray, b: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Exact minimizers of ``1/2 ||v - F a||^2 + lam ||a||_1`` at each of the
    positive ``lambdas``, one row each, from the Gram statistics ``G = F'F``
    and ``b = F'v``.

    With ``a = a+ - a-``, the optimality conditions are the complementarity
    system of ``M = [[G, -G], [-G, G]]`` and ``q = [lam - b; lam + b]`` in
    ``(a+, a-) >= 0``; ``M`` is positive semidefinite, so Lemke pivoting
    solves it exactly.  Dividing both by ``max(diag G)`` leaves the solution
    unchanged and makes the pivot tolerance independent of the data scale.
    As ``q = [-b; b] + lam 1`` moves along Lemke's covering vector, one Lemke
    run reads every penalty, one or many (:func:`intreg.lcp._lemke_path`);
    a run that ray-terminates before it reaches them all raises
    :class:`RayTermination`.
    """
    scale = float(np.max(np.diag(G), initial=0.0)) or 1.0
    M = np.block([[G, -G], [-G, G]]) / scale
    Z, reached = _lemke_path(Lcp(M, np.concatenate([-b, b]) / scale), lambdas / scale)
    if not reached.all():
        raise RayTermination("complementary pivoting ray-terminated on a midpoint Lasso")
    return Z[:, : b.size] - Z[:, b.size :]


def mid_kkt_gap(F: np.ndarray, v: np.ndarray, lam: float | np.ndarray, a: np.ndarray) -> float | np.ndarray:
    """Worst violation of the subgradient optimality condition.

    Zero coordinates need ``|F_j'(v - Fa)| <= lam``; active coordinates need
    the correlation to sit exactly at ``lam`` with the matching sign.  A stack
    of solutions ``a``, one per row, with their ``lam`` gives one gap per row.
    """
    lam = np.asarray(lam, dtype=float)[..., None]
    g = (F.T @ ((v if a.ndim == 1 else v[:, None]) - F @ a.T)).T
    gap = np.where(a != 0.0, np.abs(g - lam * np.sign(a)), np.maximum(np.abs(g) - lam, 0.0))
    gaps = np.max(gap, axis=-1, initial=0.0)
    return float(gaps) if a.ndim == 1 else gaps


def fit_lasso_mid(design: DesignSystem, lam: float) -> np.ndarray:
    """Midpoint-block Lasso solution, certified by its subgradient condition.

    Coefficients below working precision are snapped to exact zeros, so a
    penalty at or above the zeroing threshold returns the zero vector
    exactly.
    """
    return _mid_fits(design, [lam])[0][0]


def fit_lasso_spr(design: DesignSystem, lam: float, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Spread-block Lasso under the feasibility cone.

    Solved exactly as a QP because the cone forces nonnegative coefficients,
    making the penalty linear; zero-spread rows pin the coefficients they
    touch to 0 first.  In exact arithmetic the minimizer does not depend on
    ``tau``, but the QP is scaled by ``2 tau`` and Lemke's pivot test is
    absolute, so ``tau`` can change the computed solution's rounding and
    whether pivoting ray-terminates.
    """
    return solve_spread_block(design, validate_tau(tau), lam)[0]


def _mid_fits(design: DesignSystem, lambdas: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint-block solutions along a penalty grid, one row per penalty
    (a zero penalty's row is the minimum-norm least-squares fit), and the
    subgradient gap that certifies each snapped solution.  ``F'F``, ``F'v``
    and the certificate's bound are formed once per grid, and the gaps of
    all points come from one matrix product.
    """
    lambdas = _finite_nonnegative(lambdas, "penalty")
    F, v = design.fm, design.vm
    G, b = F.T @ F, F.T @ v
    bound = 1e-8 * (1.0 + float(np.max(np.abs(b), initial=0.0)))
    A = np.empty((lambdas.size, b.size))
    on = lambdas > 0.0
    A[on] = _lasso_gram(G, b, lambdas[on])
    if not on.all():
        A[~on] = ols_mid(design)[0]
    A[np.abs(A) <= 1e-12 * (1.0 + np.max(np.abs(A), axis=1, initial=0.0, keepdims=True))] = 0.0
    gaps = mid_kkt_gap(F, v, lambdas, A)
    failed = np.flatnonzero(~(gaps <= bound))
    if failed.size:
        raise SubgradientGap(f"the midpoint Lasso solution left a subgradient gap of {gaps[failed[0]]}")
    return A, gaps


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
    objects rather than one shared grid.  ``lambdas`` is the decreasing grid
    without the zero penalty at which each fold fits the held block: the
    midpoint path starts there and the spread path, walked down the grid,
    ends there.  For the full-sample coefficient path, map
    :func:`fit_lasso_mid` or :func:`fit_lasso_spr` over ``lambdas`` on the
    full-sample design.
    """

    block: str
    lambdas: np.ndarray
    cv_mean: np.ndarray
    cv_stderr: np.ndarray
    lambda_mse: float
    lambda_1se: float


def _first_min(cv_mean: np.ndarray) -> int:
    """First grid index whose mean CV error is within 1e-12 relative of the minimum."""
    low = float(np.min(cv_mean))
    return int(np.argmax(cv_mean <= low + 1e-12 * abs(low)))


def _cv_errors(
    design: DesignSystem,
    tau: float,
    folds: int,
    seed: int,
    fit_grid: Callable[[list[DesignSystem]], list[tuple[np.ndarray, np.ndarray]]],
) -> np.ndarray:
    """Held-out weighted squared errors, one row per fold, one column per grid point.

    Folds are a seeded pseudorandom partition of the rows of
    ``design.sample``.  Each fold's training design is built by
    :func:`build_design` from the fold's training rows; its held-out rows
    are read from the full sample's regressor blocks.  ``fit_grid``
    receives every fold's training design, as one list, and returns for
    each the midpoint and spread blocks fitted at every grid point as two
    stacks ``(A_m, A_s)``, one row per point; the intercept comes from the
    training means, as in the full-sample fits.  A fold's held-out
    predictions for the whole grid are one matrix product per block.
    """
    sample = design.sample
    n = sample.n
    if folds < 2 or folds > n:
        raise ValueError(f"folds must lie between 2 and {n}, got {folds}")
    parts = [np.sort(held) for held in np.array_split(np.random.default_rng(seed).permutation(n), folds)]
    trains = []
    for f, held in enumerate(parts):
        if n - held.size < 2:
            raise FoldTooSmall(f"fold {f} leaves only {n - held.size} training rows")
        rows = np.ones(n, dtype=bool)
        rows[held] = False
        trains.append(build_design(sample.subset(rows), design.variant))
    mid_side, spr_side = regressor_blocks(sample, design.variant)
    errors = []
    for held, train, (A_m, A_s) in zip(parts, trains, fit_grid(trains)):
        delta_mid = train.mean_y.mid - A_m @ train.mean_mid_xebl
        delta_spr = train.mean_y.spr - A_s @ train.mean_spr_xebl
        res_mid = sample.mid_y[held] - (A_m @ mid_side[held].T + delta_mid[:, None])
        res_spr = sample.spr_y[held] - (A_s @ spr_side[held].T + delta_spr[:, None])
        errors.append(np.mean((1.0 - tau) * res_mid**2 + tau * res_spr**2, axis=1))
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
    ``cv_stderr`` its standard error across folds.  The ``mse`` penalty is
    the largest whose mean error is within ``1e-12`` relative of the
    minimum, so roundoff cannot pick on a flat curve; the ``1se`` penalty is
    the largest within one standard error of it.

    Each fold walks the midpoint grid up from the zero penalty and the
    spread grid down to it, the folds' spread walks in lockstep (one step
    makes a segment of every fold still walking, and a fold whose point
    fails its certificate is solved there by Lemke alone); each block held
    while the other is scanned is its path's zero-penalty row.  A walk
    returns its points alone, one row per penalty: they serve only the
    held-out errors.
    """
    tau = validate_tau(tau)
    if not blocks or any(block not in BLOCKS for block in blocks):
        raise ValueError(f"blocks must be a nonempty tuple drawn from {BLOCKS}, got {blocks!r}")
    grids = {block: lambda_grid(design, count, ratio, block) for block in BLOCKS}
    mid_grid = [0.0, *grids[BLOCK_MID]] if BLOCK_MID in blocks else [0.0]
    spr_grid = [*grids[BLOCK_SPR], 0.0] if BLOCK_SPR in blocks else [0.0]

    def fit_grid(trains: list[DesignSystem]):
        fits = []
        for train, spr in zip(trains, _spr_paths(trains, spr_grid, tau)):
            mid = _mid_fits(train, mid_grid)[0]
            # each scanned block's path, the other held at its zero-penalty row
            A_m = np.concatenate([mid[1:] if block == BLOCK_MID else np.tile(mid[0], (count, 1)) for block in blocks])
            A_s = np.concatenate([spr[:-1] if block == BLOCK_SPR else np.tile(spr[-1], (count, 1)) for block in blocks])
            fits.append((A_m, A_s))
        return fits

    errors = _cv_errors(design, tau, folds, seed, fit_grid)
    paths = []
    for block, block_errors in zip(blocks, np.split(errors, len(blocks), axis=1)):
        lambdas = grids[block]
        cv_mean = block_errors.mean(axis=0)
        cv_stderr = block_errors.std(axis=0, ddof=1) / np.sqrt(folds)
        best = _first_min(cv_mean)
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
    (a_m,), (mid_gap,) = _mid_fits(design, [lambda_mid])
    a_s, spr_info = solve_spread_block(design, tau, lambda_spr)
    diagnostics["mid_kkt_gap"] = float(mid_gap)
    diagnostics.update(spr_info)
    return _fit_result(design, a_m, a_s, estimate_intercept(design, a_m, a_s), tau, METHOD_LASSO,
                       lambda_mid=lambda_mid, lambda_spr=lambda_spr, diagnostics=diagnostics)
