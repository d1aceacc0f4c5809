"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The collection hook in conftest runs this module last so the final test can
measure the whole suite's wall clock.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from intreg import (
    Coefficients,
    Interval,
    IntervalSample,
    add_scaled,
    build_design,
    dtau,
    dtau_covariance,
    fit_lasso,
    fit_lasso_ir,
    fit_ls,
    hukuhara_diff,
    ingest,
    lemke_solve,
    qp_to_lcp,
    solve_qp,
)
from intreg.lasso import fit_lasso_mid, fit_lasso_spr, lambda_grid
from intreg.least_squares import mean_squared_unweighted
from intreg.lcp import SOLVED, Qp

from conftest import random_feasible_qp
from oracle import OracleReport, brute_force_qp, simulate, write_reports

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures"
BLOODPRESSURE_CSV = ROOT / "data" / "bloodpressure.csv"
BLOODPRESSURE_EXPECTED = ROOT / "data" / "bloodpressure_expected.json"


def report(num, label):
    print(f"[acceptance] criterion {num} ({label}): PASS")


def test_criterion_1_metric_and_arithmetic():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        mids = rng.normal(0.0, 10.0, 3)
        sprs = np.abs(rng.normal(0.0, 5.0, 3))
        tau = rng.uniform(0.05, 0.95)
        a, b, c = (Interval(m, s) for m, s in zip(mids, sprs))

        # metric axioms
        dab = dtau(a, b, tau)
        assert dab >= 0.0
        assert dab == dtau(b, a, tau)
        assert dtau(a, a, tau) == 0.0
        dac, dbc = dtau(a, c, tau), dtau(b, c, tau)
        assert dac <= dab + dbc + 1e-12 * max(1.0, dac)

        # Minkowski / Hukuhara round trip
        back = hukuhara_diff(add_scaled(b, 1.0, c), b)
        scale = max(1.0, abs(b.mid) + abs(c.mid), b.spr + c.spr)
        assert abs(back.mid - c.mid) <= 1e-12 * scale
        assert abs(back.spr - c.spr) <= 1e-12 * scale

        # variance consistency of the weighted covariance
        u = [Interval(m, s) for m, s in zip(rng.normal(0, 3, 6), np.abs(rng.normal(0, 2, 6)))]
        got = dtau_covariance(u, u, tau)
        um = np.array([iv.mid for iv in u])
        us = np.array([iv.spr for iv in u])
        expected = (1 - tau) * np.var(um) + tau * np.var(us)
        vscale = max(1.0, float(np.max(um**2)), float(np.max(us**2)))
        assert abs(got - expected) <= 1e-12 * vscale

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s"
    report(1, "metric and arithmetic suite")


def test_criterion_2_lcp_oracle_equivalence(tmp_path):
    t0 = time.monotonic()
    rng = np.random.default_rng(2002)
    reports = []
    for i in range(200):
        m = int(rng.integers(1, 5))
        p = int(rng.integers(1, 7))
        qp = random_feasible_qp(rng, m, p)
        lcp = qp_to_lcp(qp)
        sol = lemke_solve(lcp)
        assert sol.status == SOLVED
        q_scale = 1.0 + float(np.max(np.abs(lcp.q)))
        assert np.max(np.abs(sol.z * sol.w), initial=0.0) <= 1e-9 * q_scale
        assert np.min(sol.z, initial=0.0) >= -1e-9
        assert np.min(sol.w, initial=0.0) >= -1e-9
        z = solve_qp(qp)
        z_oracle = brute_force_qp(qp)
        obj, obj_oracle = qp.objective(z), qp.objective(z_oracle)
        assert abs(obj - obj_oracle) <= 1e-6 * (1.0 + abs(obj_oracle))
        reports.append(OracleReport(
            instance_id=f"qp-{i:03d}",
            main_objective=obj,
            oracle_objective=obj_oracle,
            gap=obj - obj_oracle,
            feas_violation=max(0.0, -float(np.min(qp.R @ z - qp.r))),
        ))

    # degenerate instances: duplicated rows and tied right-hand sides
    for i in range(20):
        m = int(rng.integers(2, 5))
        A = rng.normal(size=(m, m))
        Q = A @ A.T + np.eye(m)
        c = rng.normal(size=m)
        base = rng.normal(size=(2, m))
        R = np.vstack([base, base, base[:1], np.eye(m)])
        r = np.concatenate([np.zeros(5), -np.ones(m)])
        lcp = qp_to_lcp(Qp(Q, c, R, r))
        assert lemke_solve(lcp).status == SOLVED
        bases = conftest.lemke_bases(lcp)
        assert len(bases) == len(set(bases)), "basis revisited"

    log = tmp_path / "oracle_report.csv"
    write_reports(reports, log)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"[acceptance] oracle log written to {log}")
    report(2, "LCP/QP oracle equivalence, 200 instances")


def test_criterion_3_least_squares_recovery():
    t0 = time.monotonic()
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        b_true = Coefficients(
            b1=rng.uniform(-2, 2, 2),
            b2=rng.uniform(0, 2, 2),
            b3=rng.uniform(0, 2, 2),
            b4=rng.uniform(-2, 2, 2),
            delta=Interval(0.0, 0.0),
        )
        sample = simulate(59, 2, b_true, noise=0.0, seed=seed)
        res = fit_ls(build_design(sample, "full"), 0.5)
        c = res.coefficients
        for name in ("b1", "b2", "b3", "b4"):
            assert np.max(np.abs(getattr(c, name) - getattr(b_true, name))) <= 1e-6
        assert abs(c.delta.mid) <= 1e-8
        assert c.delta.spr <= 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s"
    report(3, "noiseless recovery, 50 seeds")


def test_criterion_4_lasso_limits_and_paths():
    for seed in range(20):
        sample = conftest.random_sample(4000 + seed, n=25, k=2)
        design = build_design(sample, "full")
        ls = fit_ls(design, 0.5)

        # zero penalty matches least squares in objective
        a_m0 = fit_lasso_mid(design, 0.0)
        a_s0 = fit_lasso_spr(design, 0.0, 0.5)
        mid_obj = lambda a: 0.5 * np.sum((design.vm - design.fm @ a) ** 2)
        spr_obj = lambda a: 0.5 * np.sum((design.vs - design.fs @ a) ** 2)
        assert abs(mid_obj(a_m0) - mid_obj(ls.coefficients.mid_stack("full"))) <= 1e-6
        assert abs(spr_obj(a_s0) - spr_obj(ls.coefficients.spread_stack("full"))) <= 1e-6

        # saturating penalties give exact zeros
        grid_mid = lambda_grid(design, 100, 1e-3, "mid")
        grid_spr = lambda_grid(design, 100, 1e-3, "spr")
        assert np.all(fit_lasso_mid(design, grid_mid[0]) == 0.0)
        assert np.all(fit_lasso_mid(design, 2.0 * grid_mid[0]) == 0.0)
        assert np.all(fit_lasso_spr(design, grid_spr[0], 0.5) == 0.0)
        assert np.all(fit_lasso_spr(design, 2.0 * grid_spr[0], 0.5) == 0.0)

        # L1 norms nonincreasing and constraints held along both 100-point paths
        R, r = design.spread_constraints()
        mid_norms = []
        for lam in grid_mid:
            mid_norms.append(np.sum(np.abs(fit_lasso_mid(design, lam))))
        spr_norms = []
        for lam in grid_spr:
            a_s = fit_lasso_spr(design, lam, 0.5)
            spr_norms.append(np.sum(np.abs(a_s)))
            assert np.min(R @ a_s - r) >= -1e-8
        assert np.all(np.diff(mid_norms) >= -1e-8)
        assert np.all(np.diff(spr_norms) >= -1e-8)
    report(4, "lasso limits and regularization paths")


def _check_bloodpressure_fit(result, spec, sample, convention):
    got = np.concatenate([result.coefficients.b1, result.coefficients.b2])
    expected = np.asarray(spec["coefficients"])
    assert np.max(np.abs(got - expected)) <= spec["coefficients_tol"], (
        f"coefficients {got} vs {expected}"
    )
    mse = result.mse if convention == "dtau" else mean_squared_unweighted(
        sample.mid_y, sample.spr_y, result.fitted_mid, result.fitted_spr
    )
    assert abs(mse - spec["mse"]) <= spec["mse_rel_tol"] * spec["mse"], (
        f"mse {mse} vs {spec['mse']}"
    )


def test_criterion_5_reference_dataset_reproduction():
    if not BLOODPRESSURE_CSV.exists():
        print("[acceptance] criterion 5 (reference dataset reproduction): SKIPPED,"
              " dataset not provided; replaced by criterion 6")
        pytest.skip("place the blood-pressure sample at data/bloodpressure.csv to activate")
    spec = json.loads(BLOODPRESSURE_EXPECTED.read_text())
    sample = ingest(BLOODPRESSURE_CSV, "midspr")
    assert sample.n == 59 and sample.k == 2
    tau = spec["tau"]
    convention = spec["mse_convention"]
    variant = spec["variant"]
    design = build_design(sample, variant)

    _check_bloodpressure_fit(fit_ls(design, tau), spec["fits"]["ls"], sample, convention)
    for key in ("lasso_fixed", "lasso_fixed_sparse"):
        fit_spec = spec["fits"][key]
        res = fit_lasso(
            design, tau,
            lambda_mid=fit_spec["lambda_mid"], lambda_spr=fit_spec["lambda_spr"],
        )
        _check_bloodpressure_fit(res, fit_spec, sample, convention)
    ir_spec = spec["fits"]["lasso_ir"]
    _check_bloodpressure_fit(fit_lasso_ir(design, tau, ir_spec["t"]), ir_spec, sample, convention)
    report(5, "reference dataset reproduction")


def test_criterion_6_frozen_synthetic_fixture():
    expected = json.loads((FIXTURES / "synthetic59_expected.json").read_text())
    sample = ingest(FIXTURES / "synthetic59.csv", "midspr")
    assert sample.n == expected["n"] and sample.k == expected["k"]
    tau = expected["tau"]
    tol = 1e-9

    def check(entry, result):
        coefs = result.coefficients
        for name in ("b1", "b2", "b3", "b4"):
            assert np.max(np.abs(np.asarray(entry[name]) - getattr(coefs, name))) <= tol
        assert abs(entry["delta_mid"] - coefs.delta.mid) <= tol
        assert abs(entry["delta_spr"] - coefs.delta.spr) <= tol
        assert abs(entry["mse"] - result.mse) <= tol

    for variant in ("model-m", "full"):
        check(expected["fits"][f"ls_{variant}"], fit_ls(build_design(sample, variant), tau))

    lasso_spec = expected["fits"]["lasso_model-m"]
    check(lasso_spec, fit_lasso(
        build_design(sample, "model-m"), tau,
        lambda_mid=lasso_spec["lambda_mid"], lambda_spr=lasso_spec["lambda_spr"],
    ))

    ir_spec = expected["fits"]["lasso-ir_model-m"]
    design_m = build_design(sample, "model-m")
    check(ir_spec, fit_lasso_ir(design_m, tau, ir_spec["t"]))
    report(6, "frozen synthetic fixture at 1e-9")


def test_criterion_7_budgeted_offset_behaviour():
    t0 = time.monotonic()

    # zero budget ties the blocks exactly
    sample = simulate(30, 2, Coefficients(
        b1=[1.0, -0.5], b2=[0.8, 0.3], b3=[0.0, 0.0], b4=[0.0, 0.0], delta=Interval(0.2, 0.4)
    ), noise=0.3, seed=7007)
    design = build_design(sample, "model-m")
    tied = fit_lasso_ir(design, 0.5, 0.0)
    assert tied.diagnostics["budget_used"] == 0.0
    assert np.array_equal(tied.coefficients.b2, tied.coefficients.b1)

    # objective, recomputed from the returned blocks, nonincreasing over a
    # 20-point budget grid
    def objective(result):
        a_m, a_s = result.coefficients.b1, result.coefficients.b2
        return ((1.0 - 0.5) * np.sum((design.vm - design.fm @ a_m) ** 2)
                + 0.5 * np.sum((design.vs - design.fs @ a_s) ** 2))

    grid = np.linspace(0.0, 1.5, 20)
    objectives = [objective(fit_lasso_ir(design, 0.5, t)) for t in grid]
    assert all(objectives[i + 1] <= objectives[i] + 1e-8 for i in range(len(objectives) - 1))

    # adversarial data: the fit returns but flags the ill-defined residuals
    n = 12
    mid_x = np.arange(1.0, n + 1).reshape(-1, 1)
    spr_x = np.tile([1.0, 3.0], n // 2).reshape(-1, 1)
    bad = IntervalSample(2.0 * mid_x[:, 0], np.ones(n), mid_x, spr_x)
    flagged = fit_lasso_ir(build_design(bad, "model-m"), 0.5, 0.1).diagnostics
    assert flagged["hukuhara_residuals_exist"] == 0.0
    assert flagged["fitted_spr_nonneg"] == 0.0

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 7 took {elapsed:.1f}s"
    report(7, "budgeted-offset estimator behaviour")


def test_criterion_8_suite_wall_clock():
    elapsed = time.monotonic() - conftest.SESSION_T0
    assert elapsed < 300.0, f"suite has been running for {elapsed:.0f}s"
    report(8, f"suite wall clock {elapsed:.0f}s < 300s")
