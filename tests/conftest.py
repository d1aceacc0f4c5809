import time

import numpy as np
import pytest

import intreg.lcp
import intreg.least_squares
from intreg import Coefficients, Interval, IntervalSample, Qp, lemke_solve

from oracle import simulate

SESSION_T0 = time.monotonic()


def pytest_collection_modifyitems(session, config, items):
    # the acceptance module measures whole-suite wall clock, so it runs last
    acceptance = [it for it in items if "test_acceptance" in it.nodeid]
    rest = [it for it in items if "test_acceptance" not in it.nodeid]
    items[:] = rest + acceptance


def exact_fit_sample(n=6, slope=2.0):
    """k=1 sample with y exactly slope * x (midpoints and spreads alike)."""
    endpoints = [(0, 2), (1, 4), (2, 3), (3, 7), (5, 6), (0, 9), (2, 8), (1, 9)][:n]
    x = [[Interval.from_endpoints(a, b)] for a, b in endpoints]
    y = [Interval(slope * row[0].mid, slope * row[0].spr) for row in x]
    return IntervalSample.from_intervals(y, x)


def random_coefficients(rng, k, delta=None):
    if delta is None:
        delta = Interval(rng.uniform(-1, 1), rng.uniform(0, 1))
    return Coefficients(
        b1=rng.uniform(-2, 2, k),
        b2=rng.uniform(0, 2, k),
        b3=rng.uniform(0, 2, k),
        b4=rng.uniform(-2, 2, k),
        delta=delta,
    )


def random_sample(seed, n=30, k=2, noise=0.4):
    rng = np.random.default_rng(seed)
    b_true = random_coefficients(rng, k)
    return simulate(n, k, b_true, noise=noise, seed=seed + 1000)


def split_model_sample(seed, n, k=3, spread_noise=0.3):
    """Sparse split-model sample with symmetric spread noise clipped at 0.

    About half of the rows sit above their planted spread, so the spread
    domination rows bind.
    """
    rng = np.random.default_rng(seed)
    b1, b2, b3, b4 = (np.zeros(k) for _ in range(4))
    b1[:3] = [1.5, -1.0, 0.5]
    b2[:3] = [0.8, 0.3, 0.5]
    b3[:2] = [0.2, 0.4]
    b4[:2] = [0.4, -0.3]
    mid_x = rng.normal(0.0, 1.0, (n, k))
    spr_x = rng.uniform(0.2, 1.2, (n, k))
    mid_y = mid_x @ b1 + spr_x @ b4 + 0.5 + rng.normal(0.0, 0.5, n)
    spr_y = np.maximum(spr_x @ b2 + np.abs(mid_x) @ b3 + rng.uniform(-spread_noise, spread_noise, n), 0.0)
    return IntervalSample(mid_y, spr_y, mid_x, spr_x)


def weighted_mse(sample, result, tau):
    """A fit's weighted mean squared error, recomputed from the observed rows
    and the fit result's fitted rows."""
    dm = sample.mid_y - result.fitted_mid
    ds = sample.spr_y - result.fitted_spr
    return float(np.mean((1.0 - tau) * dm**2 + tau * ds**2))


def record_lemke_dims(monkeypatch):
    """Patch the QP solver's Lemke calls to record each LCP's dimension."""
    dims = []

    def record(lcp_, max_pivots=None):
        dims.append(lcp_.dim)
        return lemke_solve(lcp_, max_pivots)

    monkeypatch.setattr(intreg.lcp, "lemke_solve", record)
    return dims


def lemke_bases(lcp_):
    """The basis after each of Lemke's pivots on ``lcp_``, as frozensets."""
    return [frozenset(basis.tolist()) for _, basis in intreg.lcp._lemke_pivots(lcp_.M, lcp_.q, 50 * lcp_.dim)]


def record_qp_solves(monkeypatch):
    """Patch the working-set QP solver to record the QPs it solves."""
    calls = []
    solve = intreg.lcp._solve_qp_full

    def record(*args, **kwargs):
        calls.append(intreg.lcp.Qp(*args[:4]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(intreg.lcp, "_solve_qp_full", record)
    return calls


def record_homotopies(monkeypatch):
    """Patch the spread path's homotopy to record the grid it walks and the
    penalty it starts from, as ``(thetas, theta0)`` per walked program (per
    fold of a cross-validation, whose folds walk in one call)."""
    walks = []
    homotopy = intreg.least_squares._qp_homotopy

    def record(Q, R, r, c0, dc, thetas, theta0, active):
        walks.extend((thetas.copy(), start) for start in theta0)
        return homotopy(Q, R, r, c0, dc, thetas, theta0, active)

    monkeypatch.setattr(intreg.least_squares, "_qp_homotopy", record)
    return walks


def walk_alone(Q, R, r, c0, dc, thetas, theta0, active, dr=None):
    """``lcp._qp_homotopy`` on the one-program stack: the program's points."""
    return intreg.lcp._qp_homotopy([Q], [R], [r], [c0], [dc], thetas, [theta0], [active],
                                   None if dr is None else [dr])[0][0]


def corrupt_homotopy_segments(monkeypatch, corrupt, first, stop=None):
    """Make the segments of ``lcp._qp_homotopy`` (solved by
    ``lcp._segment_solve`` on the two-program stacks ``(c0, dc)``, one per
    walking program in each call), from its ``first`` one up to its
    ``stop`` one (counting from 0, ``stop`` excluded, all the rest when
    ``None``), propose wrong points: their primal points shifted
    (``corrupt="primal"``) or their multipliers negated (``"multipliers"``).
    The one-program polish of a single solve is left alone."""
    solve = intreg.lcp._segment_solve
    segments = []

    def segment(*args):
        z, lam = solve(*args)
        if args[2].shape[1] != 2:
            return z, lam
        index = len(segments) + np.arange(len(z))
        bad = ((index >= first) & (stop is None or index < stop))[:, None, None]
        segments.extend([1] * len(z))
        if corrupt == "primal":
            return np.where(bad, z + 1e-3 * (1.0 + np.max(np.abs(z), axis=(1, 2), keepdims=True)), z), lam
        return z, np.where(bad, -lam, lam)

    monkeypatch.setattr(intreg.lcp, "_segment_solve", segment)


def random_feasible_qp(rng, m, p):
    """SPD quadratic with a feasible inequality system."""
    A = rng.normal(size=(m + 2, m))
    Q = A.T @ A + 0.5 * np.eye(m)
    c = rng.normal(size=m)
    R = rng.normal(size=(p, m))
    z0 = rng.normal(size=m)
    r = R @ z0 - rng.uniform(0.1, 1.0, p)
    return Qp(Q, c, R, r)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
