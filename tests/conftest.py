import time

import numpy as np
import pytest

import intreg.lcp
from intreg import Coefficients, Interval, IntervalSample, Qp, lemke_solve, simulate

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


def fitted_intervals(result):
    """The fitted rows of a fit result as intervals."""
    return [Interval(m, s) for m, s in zip(result.fitted_mid, result.fitted_spr)]


def record_lemke_dims(monkeypatch):
    """Patch the QP solver's Lemke calls to record each LCP's dimension."""
    dims = []

    def record(lcp_, max_pivots=None):
        dims.append(lcp_.dim)
        return lemke_solve(lcp_, max_pivots)

    monkeypatch.setattr(intreg.lcp, "lemke_solve", record)
    return dims


def record_qp_solves(monkeypatch):
    """Patch the working-set QP solver to record the QPs it solves."""
    calls = []
    solve = intreg.lcp._solve_qp_full

    def record(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(intreg.lcp, "_solve_qp_full", record)
    return calls


def corrupt_continuation_steps(monkeypatch, corrupt):
    """Make every continuation step of ``lcp._qp_path`` propose a wrong point:
    its primal point shifted (``corrupt="primal"``) or its multipliers
    negated (``"multipliers"``).  The polish step of the QP solver, which
    shares the active-set solve, is left alone."""
    hold = intreg.lcp._hold_active_set
    solve = intreg.lcp._active_set_solve

    def wrong(pinv, c, r, active):
        z, lam = solve(pinv, c, r, active)
        if corrupt == "primal":
            return z + 1e-3 * (1.0 + np.max(np.abs(z))), lam
        return z, -lam

    def step(*args):
        with monkeypatch.context() as patch:
            patch.setattr(intreg.lcp, "_active_set_solve", wrong)
            return hold(*args)

    monkeypatch.setattr(intreg.lcp, "_hold_active_set", step)


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
