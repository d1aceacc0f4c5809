from pathlib import Path

import numpy as np
import pytest

from intreg import (
    Coefficients,
    Interval,
    IntervalSample,
    build_design,
    fit_lasso_ir,
    fit_ls,
    ingest,
    select_budget,
)
from intreg import lcp
from intreg.lasso_ir import _budget_fit, _budget_paths, _joint_qp, default_budget_grid
from intreg.least_squares import _snap_zeros

from conftest import corrupt_homotopy_segments, record_lemke_dims, record_qp_solves, split_model_sample
from oracle import simulate

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "synthetic59.csv"


def adversarial_sample(n=12):
    """Strong midpoint relation, varying regressor spreads, constant response
    spread: tying the spread slope to the midpoint slope must overshoot."""
    mid_x = np.arange(1.0, n + 1).reshape(-1, 1)
    spr_x = np.tile([1.0, 3.0], n // 2).reshape(-1, 1)
    return IntervalSample(2.0 * mid_x[:, 0], np.ones(n), mid_x, spr_x)


def blocks(design, result):
    """Midpoint block, spread block and offset of a lasso-ir fit."""
    a_m = result.coefficients.mid_stack(design.variant)
    a_s = result.coefficients.spread_stack(design.variant)
    return a_m, a_s, a_s - a_m


def objective(design, result, tau):
    """The weighted squared error the budgeted-offset QP minimizes."""
    a_m, a_s, _ = blocks(design, result)
    return float((1.0 - tau) * np.sum((design.vm - design.fm @ a_m) ** 2)
                 + tau * np.sum((design.vs - design.fs @ a_s) ** 2))


def cold_joint_fit(design, tau, t):
    """Midpoint block and offset at budget ``t`` from the joint QP alone: one
    solve with no rows carried into the first working set."""
    qp = _joint_qp(design, tau, t)
    u = lcp._solve_qp(qp.Q, qp.c, qp.R, qp.r)[0]
    w = design.block_width
    return u[:w], _snap_zeros(np.maximum(u[w : 2 * w], 0.0) - np.maximum(u[2 * w :], 0.0))


class TestFitLassoIr:
    def test_zero_budget_ties_blocks_exactly(self):
        s = simulate(20, 2, Coefficients(
            b1=[1.0, -0.5], b2=[0.7, 0.2], b3=[0.0, 0.0], b4=[0.0, 0.0], delta=Interval(0.2, 0.3)
        ), noise=0.3, seed=4)
        d = build_design(s, "model-m")
        fit = fit_lasso_ir(d, 0.5, 0.0)
        a_m, a_s, _ = blocks(d, fit)
        assert fit.diagnostics["budget_used"] == 0.0
        assert np.array_equal(a_s, a_m)

    def test_budget_certificate(self):
        s = simulate(25, 2, Coefficients(
            b1=[1.0, -0.5], b2=[2.0, 0.8], b3=[0.0, 0.0], b4=[0.0, 0.0], delta=Interval(0.0, 0.5)
        ), noise=0.3, seed=5)
        d = build_design(s, "model-m")
        for t in (0.05, 0.2, 1.0):
            a_a = blocks(d, fit_lasso_ir(d, 0.5, t))[2]
            assert np.sum(np.abs(a_a)) <= t + 1e-8

    def test_objective_nonincreasing_in_budget(self):
        d = build_design(adversarial_sample(), "model-m")
        grid = np.linspace(0.0, 2.0, 12)
        objs = [objective(d, fit_lasso_ir(d, 0.5, t), 0.5) for t in grid]
        assert all(objs[i + 1] <= objs[i] + 1e-8 for i in range(len(objs) - 1))

    def test_flags_expose_ill_defined_fit(self):
        d = build_design(adversarial_sample(), "model-m")
        diagnostics = fit_lasso_ir(d, 0.5, 0.1).diagnostics
        assert diagnostics["fitted_spr_nonneg"] == 0.0
        assert diagnostics["hukuhara_residuals_exist"] == 0.0
        assert diagnostics["delta_spr_raw"] < 0.0

    def test_negative_budget_rejected(self):
        # a NaN budget must not pass for t = 0, nor an infinite one reach the QP
        d = build_design(adversarial_sample(), "model-m")
        for t in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                fit_lasso_ir(d, 0.5, t)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                _budget_paths([d], 0.5, [0.0, 0.1, t])

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
        obj_ir = objective(d_m, fit_lasso_ir(d_m, tau, 10.0), tau)  # generous budget
        a_m_full = full.coefficients.mid_stack("full")
        a_s_full = full.coefficients.spread_stack("full")
        d_f = build_design(s, "full")
        obj_full = (1 - tau) * np.sum((d_f.vm - d_f.fm @ a_m_full) ** 2) + tau * np.sum(
            (d_f.vs - d_f.fs @ a_s_full) ** 2
        )
        assert obj_ir > obj_full * (1.0 + 1e-6)

    def test_nonnegative_fitted_spreads_enforced_presample(self):
        d = build_design(adversarial_sample(), "model-m")
        for t in (0.0, 0.3, 1.0):
            a_s = blocks(d, fit_lasso_ir(d, 0.5, t))[1]
            assert np.min(d.gamma_matrix @ a_s) >= -1e-8


class TestToFitResult:
    """The lasso-ir fit packaged as a FitResult, as every estimator's is."""

    def test_packaging_and_mse(self):
        d = build_design(adversarial_sample(), "model-m")
        res = fit_lasso_ir(d, 0.5, 0.1)
        a_m, a_a, _ = _budget_fit(d, 0.5, 0.1)
        a_s = a_m + a_a
        assert res.method == "lasso-ir"
        assert res.t_budget == 0.1
        assert np.allclose(res.coefficients.b1, a_m)
        assert np.allclose(res.coefficients.b2, a_s)
        assert len(res.fitted_mid) == len(res.fitted_spr) == d.n
        assert res.diagnostics["hukuhara_residuals_exist"] == 0.0
        # raw-spread error recomputed by hand
        mid_res = d.vm - d.fm @ a_m
        spr_res = d.vs - d.fs @ a_s
        expected = np.mean(0.5 * mid_res**2 + 0.5 * spr_res**2)
        assert res.mse == pytest.approx(expected, rel=1e-12)

    def test_fitted_spreads_clamped_at_zero(self):
        d = build_design(adversarial_sample(), "model-m")
        res = fit_lasso_ir(d, 0.5, 0.1)
        a_m, a_a, _ = _budget_fit(d, 0.5, 0.1)
        raw = d.fs @ (a_m + a_a) + d.mean_y.spr
        assert np.min(raw) < 0.0
        assert np.array_equal(res.fitted_spr, np.maximum(raw, 0.0))
        assert np.array_equal(res.fitted_mid, d.fm @ a_m + d.mean_y.mid)

    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_default_budget_is_the_cross_validated_one(self, variant):
        d = build_design(ingest(FIXTURE), variant)
        t = select_budget(d)
        default, explicit = fit_lasso_ir(d), fit_lasso_ir(d, t=t)
        assert default.t_budget == explicit.t_budget == t
        for name in ("b1", "b2", "b3", "b4"):
            assert np.array_equal(getattr(default.coefficients, name), getattr(explicit.coefficients, name))
        assert default.coefficients.delta == explicit.coefficients.delta


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
    """Every budget of a grid is its joint QP's fit.  A single fit at t > 0
    starts its joint QP from the rows that bind the t = 0 fit, every offset
    bound and the budget row."""

    @pytest.mark.parametrize("n", [100, 200])
    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_warm_path_equals_cold_fits(self, n, variant):
        d = build_design(split_model_sample(n + 2, n), variant)
        grid = default_budget_grid(d)
        for t, a_m, a_a in zip(grid, *_budget_paths([d], 0.5, grid)[0]):
            cold_m, cold_a, _ = _budget_fit(d, 0.5, t)
            assert np.array_equal(a_a == 0.0, cold_a == 0.0)
            for got, want in ((a_m, cold_m), (a_a, cold_a)):
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want), initial=0.0)

    @pytest.mark.parametrize("tau", [0.3, 0.5])
    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_warm_start_equals_cold_joint_path(self, variant, tau, monkeypatch):
        # the grid is walked up from the t = 0 fit as a homotopy, with no
        # joint-QP Lemke solve (Lemke solves the t = 0 program only where
        # the stack's certificate rejects its fit); every point must be the
        # joint QP's own fit, solved by Lemke from an empty working set
        for n in (100, 200):
            d = build_design(split_model_sample(n + 2, n), variant)
            grid = default_budget_grid(d)
            calls = record_qp_solves(monkeypatch)
            (path,) = _budget_paths([d], tau, grid)
            assert [qp.num_vars for qp in calls] in ([], [d.block_width])
            monkeypatch.undo()
            for t, a_m, a_a in zip(grid, *path):
                cold_m, cold_a = cold_joint_fit(d, tau, t)
                assert np.array_equal(a_a == 0.0, cold_a == 0.0), (n, t)
                for got, want in ((a_m, cold_m), (a_a, cold_a)):
                    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want), initial=0.0), (n, t)

    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_every_joint_solve_is_one_lemke_round(self, variant, monkeypatch):
        # with the t = 0 fit's binding rows, every offset bound and the budget
        # row in the first working set, no joint QP adds a row or restarts
        # cold: single fits at every budget of the grid select_budget walks
        calls, solves = record_lemke_dims(monkeypatch), []
        solve = lcp._solve_qp_full

        def record(Q, c, R, r, work=()):
            before = len(calls)
            out = solve(Q, c, R, r, work)
            solves.append((Q.shape[0], len(calls) - before))
            return out

        monkeypatch.setattr(lcp, "_solve_qp_full", record)
        for seed in range(1, 7):
            d = build_design(split_model_sample(seed, 100), variant)
            solves.clear()
            for t in default_budget_grid(d)[1:]:
                fit_lasso_ir(d, 0.5, t)
            joint = [count for width, count in solves if width == 3 * d.block_width]
            assert len(joint) == 20 and joint == [1] * len(joint), seed

    def test_every_budget_meets_its_certificate(self):
        # the top budgets of these samples leave offset rows whose multiplier
        # is roundoff out of the Lemke iterate's active rows; the polish must
        # close over them, or the ridge-biased iterate is reported.  Each
        # point of the walked grid is its certified single fit
        bound = 1e-8 * (1 + 30)
        for seed in ([s, i] for s in (1, 7) for i in range(20)):
            d = build_design(split_model_sample(seed, 30), "full")
            grid = default_budget_grid(d)
            for t, a_m, a_a in zip(grid, *_budget_paths([d], 0.5, grid)[0]):
                cold_m, cold_a, info = _budget_fit(d, 0.5, t)
                assert max(info[k] for k in info if k.startswith("kkt_")) <= bound, (seed, t)
                for got, want in ((a_m, cold_m), (a_a, cold_a)):
                    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want), initial=0.0), (seed, t)

    def test_about_one_lemke_call_per_budget(self, monkeypatch):
        # each fold's t = 0 fit makes at most one call and its walk none: 4
        # on this sample for 105 grid points (18 when each fold's joint path
        # was solved by Lemke, 37 with it started from an empty working set)
        d = build_design(split_model_sample(1, 100), "full")
        calls = record_lemke_dims(monkeypatch)
        select_budget(d, 0.5, folds=5, seed=0)
        assert 0 < len(calls) <= 20

    def test_budget_grid_solves_qps_only_at_breakpoints(self, monkeypatch):
        # Lemke solves only the t = 0 programs whose stacked fit fails its
        # certificate, and the walk no point: 1 solve for the 105 grid
        # points on this sample (5 when Lemke solved every fold's t = 0
        # program, 19 when each fold's joint path was solved by Lemke)
        d = build_design(split_model_sample(1, 100), "full")
        calls = record_qp_solves(monkeypatch)
        select_budget(d, 0.5, folds=5, seed=0)
        assert 1 <= len(calls) <= 2 and all(qp.num_vars == d.block_width for qp in calls)

    @pytest.mark.parametrize("corrupt", ["primal", "multipliers"])
    def test_failed_continuation_step_falls_back_to_lemke(self, corrupt, monkeypatch):
        # with every walk segment failing its checks, each t > 0 point is
        # solved by Lemke, once, as a single fit would be, and each restarted
        # walk fails at its first point again; the t = 0 fit is the stack's,
        # which certifies on this sample
        d = build_design(split_model_sample(103, 100), "full")
        grid = default_budget_grid(d)
        cold = [_budget_fit(d, 0.5, t) for t in grid]
        corrupt_homotopy_segments(monkeypatch, corrupt, first=0)
        calls = record_qp_solves(monkeypatch)
        ((A_m, A_a),) = _budget_paths([d], 0.5, grid)
        for (cold_m, cold_a, _), a_m, a_a in zip(cold, A_m, A_a):
            assert np.array_equal(a_a == 0.0, cold_a == 0.0)
            for a, b in ((a_m, cold_m), (a_a, cold_a)):
                assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b), initial=0.0)
        # the joint program of every t > 0, known by its budget row's
        # right-hand side -t, and no other
        assert [qp.num_vars for qp in calls] == [3 * d.block_width] * (len(grid) - 1)
        assert [-qp.r[-1] for qp in calls] == grid[1:]


class TestBudgetHomotopy:
    """A cross-validated budget grid is walked as the exact homotopy of the
    joint QP up from its t = 0 fit, with no joint-QP Lemke solve where every
    point certifies; a single fit is one joint Lemke solve."""

    @staticmethod
    def joint_solves(calls, design):
        return [qp for qp in calls if qp.num_vars == 3 * design.block_width]

    def test_wide_walk_equals_cold_joint_fits(self, monkeypatch):
        # k = 20: every t > 0 point is the joint QP's own fit (at t = 0 that
        # program, from an empty working set, ray-terminates; the budget path
        # solves the midpoint block's program there)
        d = build_design(split_model_sample(20, 300, 20), "full")
        grid = default_budget_grid(d)
        calls = record_qp_solves(monkeypatch)
        ((A_m, A_a),) = _budget_paths([d], 0.5, grid)
        assert self.joint_solves(calls, d) == []
        monkeypatch.undo()
        assert np.any(A_a[-1] != 0.0) and not A_a[0].any()
        for t, a_m, a_a in zip(grid[1:], A_m[1:], A_a[1:]):
            cold_m, cold_a = cold_joint_fit(d, 0.5, t)
            assert np.array_equal(a_a == 0.0, cold_a == 0.0), t
            for got, want in ((a_m, cold_m), (a_a, cold_a)):
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want), initial=0.0), t

    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_budgets_past_budget_used_return_the_released_fit(self, variant):
        # the walk ends where the budget's multiplier reaches 0: every larger
        # budget gets that point, the fit with the offset unbounded
        d = build_design(split_model_sample(5, 150), variant)
        used = fit_lasso_ir(d, 0.5, 1e3 * default_budget_grid(d)[-1]).diagnostics["budget_used"]
        grid = used * np.array([0.5, 1.0 + 1e-6, 1.5, 3.0, 100.0])
        ((A_m, A_a),) = _budget_paths([d], 0.5, grid)
        assert np.sum(np.abs(A_a[0])) == pytest.approx(0.5 * used, rel=1e-10)
        for a_m, a_a in zip(A_m[2:], A_a[2:]):
            assert np.array_equal(a_m, A_m[1]) and np.array_equal(a_a, A_a[1])
        for t, a_m, a_a in zip(grid, A_m, A_a):
            cold_m, cold_a = cold_joint_fit(d, 0.5, t)
            for got, want in ((a_m, cold_m), (a_a, cold_a)):
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), t

    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_select_budget_runs_no_joint_lemke_solve(self, variant, monkeypatch):
        # the folds' t = 0 programs are one certified stack, with Lemke only
        # for a fold whose fit fails the certificate (one fold of seed 1's
        # full design: its closure keeps a row whose multiplier is
        # negative), and each fold walks the rest; the single fit at the
        # selected budget is a joint Lemke solve
        for seed in range(1, 4):
            d = build_design(split_model_sample(seed, 100), variant)
            calls = record_qp_solves(monkeypatch)
            select_budget(d, 0.5, folds=5, seed=0)
            assert len(calls) <= 1 and self.joint_solves(calls, d) == []
            fit_lasso_ir(d, 0.5)
            assert len(self.joint_solves(calls, d)) == 1
            monkeypatch.undo()

    def test_budget_that_never_binds_keeps_the_zero_budget_fit(self, monkeypatch):
        # constant regressor and response spreads leave the spread part of
        # the objective constant: no offset gradient is negative at t = 0,
        # so every budget is the t = 0 fit, walked by no segment.  The t = 0
        # program's stacked fit is one one-program solve, the unconstrained
        # minimizer, which violates no row and certifies, so Lemke solves
        # nothing
        rng = np.random.default_rng(3)
        mid_x = rng.normal(size=(40, 1))
        sample = IntervalSample(2.0 * mid_x[:, 0] + rng.normal(0.0, 0.1, 40), np.ones(40), mid_x, np.full((40, 1), 0.5))
        d = build_design(sample, "model-m")
        assert not d.fs.any() and not d.vs.any()
        segments = []
        solve = lcp._segment_solve
        monkeypatch.setattr(lcp, "_segment_solve", lambda *args: segments.append(args[2].shape[1]) or solve(*args))
        calls = record_qp_solves(monkeypatch)
        ((A_m, A_a),) = _budget_paths([d], 0.5, [0.0, 0.5, 2.0])
        assert segments == [1] and calls == [] and not A_a.any()
        assert np.array_equal(A_m[1], A_m[0]) and np.array_equal(A_m[2], A_m[0])

    @pytest.mark.parametrize("corrupt", ["primal", "multipliers"])
    def test_failed_segment_falls_back_to_lemke(self, corrupt, monkeypatch):
        # a segment whose solve fails its certificate sends its first point
        # to working-set Lemke, and the walk restarts from there; the points
        # before it stay walked
        d = build_design(split_model_sample(103, 100), "full")
        grid = default_budget_grid(d)
        cold = [_budget_fit(d, 0.5, t) for t in grid]
        corrupt_homotopy_segments(monkeypatch, corrupt, first=2)
        calls = record_qp_solves(monkeypatch)
        ((A_m, A_a),) = _budget_paths([d], 0.5, grid)
        for (cold_m, cold_a, _), a_m, a_a in zip(cold, A_m, A_a):
            assert np.array_equal(a_a == 0.0, cold_a == 0.0)
            for a, b in ((a_m, cold_m), (a_a, cold_a)):
                assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b), initial=0.0)
        # the budgets Lemke solved, from their budget rows' right-hand sides:
        # not the first t > 0, which the walk keeps
        solved = [-qp.r[-1] for qp in self.joint_solves(calls, d)]
        assert 1 <= len(solved) < len(grid) - 1 and grid[1] not in solved
