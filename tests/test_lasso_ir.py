import numpy as np
import pytest

from intreg import (
    Coefficients,
    Interval,
    IntervalSample,
    build_design,
    fit_lasso_ir,
    fit_ls,
    select_budget,
    simulate,
    to_fit_result,
)
from intreg.lasso_ir import _budget_path, default_budget_grid

from conftest import corrupt_continuation_steps, record_lemke_dims, record_qp_solves, split_model_sample


def adversarial_sample(n=12):
    """Strong midpoint relation, varying regressor spreads, constant response
    spread: tying the spread slope to the midpoint slope must overshoot."""
    mid_x = np.arange(1.0, n + 1).reshape(-1, 1)
    spr_x = np.tile([1.0, 3.0], n // 2).reshape(-1, 1)
    return IntervalSample(2.0 * mid_x[:, 0], np.ones(n), mid_x, spr_x)


class TestFitLassoIr:
    def test_zero_budget_ties_blocks_exactly(self):
        s = simulate(20, 2, Coefficients(
            b1=[1.0, -0.5], b2=[0.7, 0.2], b3=[0.0, 0.0], b4=[0.0, 0.0], delta=Interval(0.2, 0.3)
        ), noise=0.3, seed=4)
        d = build_design(s, "model-m")
        fit = fit_lasso_ir(d, 0.5, 0.0)
        assert np.array_equal(fit.a_a, np.zeros(2))
        assert np.array_equal(fit.a_s, fit.a_m)

    def test_budget_certificate(self):
        s = simulate(25, 2, Coefficients(
            b1=[1.0, -0.5], b2=[2.0, 0.8], b3=[0.0, 0.0], b4=[0.0, 0.0], delta=Interval(0.0, 0.5)
        ), noise=0.3, seed=5)
        d = build_design(s, "model-m")
        for t in (0.05, 0.2, 1.0):
            fit = fit_lasso_ir(d, 0.5, t)
            assert np.sum(np.abs(fit.a_a)) <= t + 1e-8

    def test_objective_nonincreasing_in_budget(self):
        d = build_design(adversarial_sample(), "model-m")
        grid = np.linspace(0.0, 2.0, 12)
        objs = [fit_lasso_ir(d, 0.5, t).objective for t in grid]
        assert all(objs[i + 1] <= objs[i] + 1e-8 for i in range(len(objs) - 1))

    def test_flags_expose_ill_defined_fit(self):
        d = build_design(adversarial_sample(), "model-m")
        fit = fit_lasso_ir(d, 0.5, 0.1)
        assert not fit.fitted_spr_nonneg
        assert not fit.hukuhara_residuals_exist
        assert fit.delta_spr < 0.0

    def test_negative_budget_rejected(self):
        d = build_design(adversarial_sample(), "model-m")
        with pytest.raises(ValueError):
            fit_lasso_ir(d, 0.5, -0.1)

    def test_cross_effects_out_of_reach(self):
        # data generated with a real midpoint<->spread cross effect: the full
        # least-squares fit must beat the tied estimator's objective
        b_true = Coefficients(
            b1=[1.0], b2=[0.5], b3=[0.4], b4=[1.2], delta=Interval(0.0, 0.2)
        )
        s = simulate(40, 1, b_true, noise=0.05, seed=6)
        tau = 0.5
        full = fit_ls(build_design(s, "full"), tau)
        d_m = build_design(s, "model-m")
        ir = fit_lasso_ir(d_m, tau, 10.0)  # generous budget
        a_m_full = full.coefficients.mid_stack("full")
        a_s_full = full.coefficients.spread_stack("full")
        d_f = build_design(s, "full")
        obj_full = (1 - tau) * np.sum((d_f.vm - d_f.fm @ a_m_full) ** 2) + tau * np.sum(
            (d_f.vs - d_f.fs @ a_s_full) ** 2
        )
        assert ir.objective > obj_full * (1.0 + 1e-6)

    def test_nonnegative_fitted_spreads_enforced_presample(self):
        d = build_design(adversarial_sample(), "model-m")
        for t in (0.0, 0.3, 1.0):
            fit = fit_lasso_ir(d, 0.5, t)
            assert np.min(d.gamma_matrix @ fit.a_s) >= -1e-8


class TestToFitResult:
    def test_packaging_and_mse(self):
        d = build_design(adversarial_sample(), "model-m")
        fit = fit_lasso_ir(d, 0.5, 0.1)
        res = to_fit_result(d, fit, 0.5)
        assert res.method == "lasso-ir"
        assert res.t_budget == 0.1
        assert np.allclose(res.coefficients.b2, fit.a_s)
        assert len(res.fitted_mid) == len(res.fitted_spr) == d.n
        assert res.diagnostics["hukuhara_residuals_exist"] == 0.0
        # raw-spread error recomputed by hand
        a_s = fit.a_s
        mid_res = d.vm - d.fm @ fit.a_m
        spr_res = d.vs - d.fs @ a_s
        expected = np.mean(0.5 * mid_res**2 + 0.5 * spr_res**2)
        assert res.mse == pytest.approx(expected, rel=1e-12)


    def test_fitted_spreads_clamped_at_zero(self):
        d = build_design(adversarial_sample(), "model-m")
        fit = fit_lasso_ir(d, 0.5, 0.1)
        res = to_fit_result(d, fit, 0.5)
        raw = d.fs @ fit.a_s + d.mean_y.spr
        assert np.min(raw) < 0.0
        assert np.array_equal(res.fitted_spr, np.maximum(raw, 0.0))
        assert np.array_equal(res.fitted_mid, d.fm @ fit.a_m + d.mean_y.mid)


class TestSelectBudget:
    def test_singleton_grid(self):
        s = simulate(15, 1, Coefficients(
            b1=[1.0], b2=[1.0], b3=[0.0], b4=[0.0], delta=Interval(0, 0.2)
        ), noise=0.2, seed=7)
        assert select_budget(build_design(s, "model-m"), 0.5, [0.25], folds=3, seed=0) == 0.25

    def test_deterministic_selection(self):
        s = simulate(24, 2, Coefficients(
            b1=[1.0, 0.5], b2=[1.5, 0.2], b3=[0.0, 0.0], b4=[0.0, 0.0], delta=Interval(0, 0.3)
        ), noise=0.3, seed=8)
        grid = [0.0, 0.1, 0.5, 2.0]
        d = build_design(s, "model-m")
        t1 = select_budget(d, 0.5, grid, folds=4, seed=5)
        t2 = select_budget(d, 0.5, grid, folds=4, seed=5)
        assert t1 == t2

    def test_diverging_slopes_need_budget(self):
        # spread slope 3 versus midpoint slope 1: zero budget cannot fit
        rng = np.random.default_rng(10)
        n = 30
        mid_x = rng.normal(size=(n, 1))
        spr_x = rng.uniform(0.5, 1.5, (n, 1))
        mid_y = 1.0 * mid_x[:, 0] + rng.normal(0, 0.05, n)
        spr_y = 3.0 * spr_x[:, 0] + rng.uniform(0, 0.05, n)
        s = IntervalSample(mid_y, spr_y, mid_x, spr_x)
        chosen = select_budget(build_design(s, "model-m"), 0.5, [0.0, 2.5], folds=5, seed=0)
        assert chosen == 2.5

    def test_empty_grid_rejected(self):
        s = simulate(10, 1, Coefficients(
            b1=[1.0], b2=[1.0], b3=[0.0], b4=[0.0], delta=Interval(0, 0.2)
        ), noise=0.2, seed=9)
        with pytest.raises(ValueError):
            select_budget(build_design(s, "full"), 0.5, [], folds=3, seed=0)

    def test_default_grid_shape(self):
        s = simulate(18, 2, Coefficients(
            b1=[1.0, -1.0], b2=[1.0, 0.5], b3=[0.0, 0.0], b4=[0.0, 0.0], delta=Interval(0, 0.2)
        ), noise=0.2, seed=11)
        d = build_design(s, "model-m")
        grid = default_budget_grid(d, count=20)
        assert grid[0] == 0.0
        assert len(grid) == 21
        assert all(grid[i] < grid[i + 1] for i in range(len(grid) - 1))


class TestBudgetPath:
    """The t > 0 budgets start each QP from the rows that bound the previous one."""

    @pytest.mark.parametrize("n", [100, 200])
    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_warm_path_equals_cold_fits(self, n, variant):
        d = build_design(split_model_sample(n + 2, n), variant)
        grid = default_budget_grid(d)
        for t, warm in zip(grid, _budget_path(d, 0.5, grid)):
            cold = fit_lasso_ir(d, 0.5, t)
            assert np.array_equal(warm.a_a == 0.0, cold.a_a == 0.0)
            for got, want in ((warm.a_m, cold.a_m), (warm.a_a, cold.a_a)):
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want), initial=0.0)

    def test_about_one_lemke_call_per_budget(self, monkeypatch):
        # the t = 0 program of each fold starts cold; cold starts throughout
        # make 406 calls on this sample
        d = build_design(split_model_sample(1, 100), "full")
        calls = record_lemke_dims(monkeypatch)
        select_budget(d, 0.5, folds=5, seed=0)
        assert 0 < len(calls) <= 1.25 * 5 * len(default_budget_grid(d))

    def test_budget_grid_solves_qps_only_at_breakpoints(self, monkeypatch):
        # continuation solves a QP only where the set of binding rows changes:
        # 36 solves for the 105 grid points on this sample (per fold, the
        # t = 0 fit and about 6 of the 20 budgets t > 0)
        d = build_design(split_model_sample(1, 100), "full")
        calls = record_qp_solves(monkeypatch)
        select_budget(d, 0.5, folds=5, seed=0)
        assert 5 <= len(calls) <= 54

    @pytest.mark.parametrize("corrupt", ["primal", "multipliers"])
    def test_failed_continuation_step_falls_back_to_lemke(self, corrupt, monkeypatch):
        # a continuation step that fails its checks makes its grid point a
        # breakpoint, solved as a single fit would be
        d = build_design(split_model_sample(103, 100), "full")
        grid = default_budget_grid(d)
        cold = [fit_lasso_ir(d, 0.5, t) for t in grid]
        corrupt_continuation_steps(monkeypatch, corrupt)
        calls = record_qp_solves(monkeypatch)
        for want, got in zip(cold, _budget_path(d, 0.5, grid)):
            assert np.array_equal(got.a_a == 0.0, want.a_a == 0.0)
            for a, b in ((got.a_m, want.a_m), (got.a_a, want.a_a)):
                assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b), initial=0.0)
        assert len(calls) == len(grid)
