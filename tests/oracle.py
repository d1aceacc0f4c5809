"""Brute-force reference solvers and a synthetic data generator for the test
and acceptance suites and the fixture generator script.

These deliberately share nothing with the production solvers beyond
elementary matrix products: optima are found by enumerating active sets of
the constraint system and solving each equality-restricted problem directly,
so they are slow but independent.  Imported as ``oracle`` with this
directory on the import path, as ``conftest`` is.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from intreg.design import Coefficients
from intreg.errors import InfeasibleQp, IntregError
from intreg.intervals import IntervalSample
from intreg.lcp import Qp

BRUTE_FORCE_MAX_VARS = 6
BRUTE_FORCE_MAX_CONSTRAINTS = 12

_FEAS_TOL = 1e-9


class InvalidTruth(IntregError):
    """Planted coefficients violate the model's sign constraints."""


class TooLarge(IntregError):
    """An instance exceeds the brute-force oracle's size caps."""


@dataclass
class OracleReport:
    """One row of the oracle-versus-solver comparison log."""

    instance_id: str
    main_objective: float
    oracle_objective: float
    gap: float
    feas_violation: float


def write_reports(reports: Sequence[OracleReport], path) -> None:
    """Write comparison rows as CSV for the acceptance log."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "main_objective", "oracle_objective", "gap", "feas_violation"])
        for rep in reports:
            writer.writerow([rep.instance_id, repr(rep.main_objective), repr(rep.oracle_objective),
                             repr(rep.gap), repr(rep.feas_violation)])


def _equality_restricted(Q: np.ndarray, c: np.ndarray, A: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """Minimizer of the quadratic subject to ``A z = b``; None when singular."""
    m = Q.shape[0]
    s = A.shape[0]
    kkt = np.zeros((m + s, m + s))
    kkt[:m, :m] = Q
    kkt[:m, m:] = A.T
    kkt[m:, :m] = A
    rhs = np.concatenate([-c, b])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    return sol[:m]


def kkt_min_norm(Q: np.ndarray, R: np.ndarray, c: np.ndarray, r: np.ndarray,
                 active: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm least-squares solution of the KKT equality system ``Qz +
    c = A'lam_A``, ``Az = r_A`` of the rows ``active`` (``A = R[active]``),
    by ``np.linalg.lstsq`` on the full system, also when ``Q`` is singular or
    rows of ``A`` depend on each other.

    Returns the point and the multipliers on every row (zero off the set).
    A stack of programs, one ``(c, r)`` per row, gives one point and one
    multiplier vector per row.
    """
    m, active = Q.shape[0], np.asarray(active, dtype=int)
    A = R[active]
    kkt = np.block([[Q, A.T], [A, np.zeros((active.size, active.size))]])
    sol = np.linalg.lstsq(kkt, np.concatenate([-c, r[..., active]], axis=-1).T, rcond=None)[0].T
    lam = np.zeros(r.shape)
    lam[..., active] = -sol[..., m:]
    return sol[..., :m], lam


def _best_feasible(qp: Qp, subsets: Iterable[tuple]) -> Optional[np.ndarray]:
    feas_scale = _FEAS_TOL * (1.0 + float(np.max(np.abs(qp.r), initial=0.0)))
    best = None
    best_obj = np.inf
    for subset in subsets:
        if subset:
            z = _equality_restricted(qp.Q, qp.c, qp.R[list(subset)], qp.r[list(subset)])
        else:
            z = _equality_restricted(qp.Q, qp.c, np.zeros((0, qp.num_vars)), np.zeros(0))
        if z is None:
            continue
        if qp.num_constraints and float(np.min(qp.R @ z - qp.r)) < -feas_scale:
            continue
        obj = qp.objective(z)
        if obj < best_obj:
            best_obj = obj
            best = z
    return best


def brute_force_qp(qp: Qp) -> np.ndarray:
    """Exact QP optimum by enumerating every active set of the constraints.

    Capped at 6 variables and 12 constraints; beyond that the full
    enumeration blows up and :class:`TooLarge` is raised.
    """
    m, p = qp.num_vars, qp.num_constraints
    if m > BRUTE_FORCE_MAX_VARS or p > BRUTE_FORCE_MAX_CONSTRAINTS:
        raise TooLarge(f"instance of size m={m}, p={p} exceeds the enumeration caps")
    subsets = chain.from_iterable(combinations(range(p), s) for s in range(p + 1))
    best = _best_feasible(qp, subsets)
    if best is None:
        raise InfeasibleQp("no active set yields a feasible point")
    return best


def active_set_optimum(qp: Qp, max_active: Optional[int] = None) -> np.ndarray:
    """QP optimum by enumerating active sets no larger than the variable count.

    Valid for strictly convex objectives, where the optimal active set can
    always be reduced to at most one constraint per variable.  Usable when
    the constraint count makes full enumeration impossible.
    """
    m, p = qp.num_vars, qp.num_constraints
    if max_active is None:
        max_active = m
    max_active = min(max_active, p)
    subsets = chain.from_iterable(combinations(range(p), s) for s in range(max_active + 1))
    best = _best_feasible(qp, subsets)
    if best is None:
        raise InfeasibleQp("no active set yields a feasible point")
    return best


def simulate(n: int, k: int, b_true: Coefficients, noise: float = 0.0, seed: int = 0) -> IntervalSample:
    """Draw a synthetic sample whose response follows the split model.

    Midpoints come from a standard normal, spreads from a positive uniform.
    Midpoint noise is centered uniform and spread noise is nonnegative
    uniform, so the generated response spreads always dominate the planted
    fitted spreads and the planted coefficients stay feasible.  With
    ``noise > 0`` the recoverable intercept spread is the planted one plus
    the mean of the spread noise.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    noise = float(noise)
    if noise < 0.0:
        raise ValueError("noise must be nonnegative")
    if b_true.k != k:
        raise InvalidTruth(f"planted coefficients have k={b_true.k}, expected {k}")
    if np.min(b_true.b2, initial=0.0) < 0.0 or np.min(b_true.b3, initial=0.0) < 0.0:
        raise InvalidTruth("planted spread coefficients must be nonnegative")
    rng = np.random.default_rng(seed)
    mid_x = rng.normal(0.0, 1.0, (n, k))
    spr_x = rng.uniform(0.2, 1.2, (n, k))
    mid_eps = noise * rng.uniform(-1.0, 1.0, n)
    spr_eps = noise * rng.uniform(0.0, 1.0, n)
    mid_y = mid_x @ b_true.b1 + spr_x @ b_true.b4 + b_true.delta.mid + mid_eps
    spr_y = spr_x @ b_true.b2 + np.abs(mid_x) @ b_true.b3 + b_true.delta.spr + spr_eps
    return IntervalSample(mid_y, spr_y, mid_x, spr_x)
