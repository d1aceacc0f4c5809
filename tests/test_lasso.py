import time

import numpy as np
import pytest

from intreg import (
    Interval,
    IntervalSample,
    build_design,
    cross_validate,
    fit_lasso,
    fit_lasso_mid,
    fit_lasso_spr,
    fit_ls,
    lambda_grid,
    select_budget,
)
import intreg.lasso
from intreg.errors import FoldTooSmall, IntregError, RayTermination, SubgradientGap
from intreg.lasso import _mid_path, lasso_lemke, mid_kkt_gap, soft_threshold
from intreg.lcp import RAY_TERMINATION, LcpSolution, lemke_solve
from intreg.least_squares import _spr_path, solve_spread_block

from conftest import (corrupt_continuation_steps, exact_fit_sample, fitted_intervals, random_sample,
                      record_lemke_dims, record_qp_solves, split_model_sample)


class TestLassoCd:
    def test_soft_threshold(self):
        x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        assert np.allclose(soft_threshold(x, 1.0), [-2.0, 0.0, 0.0, 0.0, 2.0])

    def test_orthonormal_columns_soft_threshold_exactly(self, rng):
        # with orthonormal columns the solution is the thresholded projection
        F, _ = np.linalg.qr(rng.normal(size=(30, 4)))
        v = rng.normal(size=30)
        beta = F.T @ v
        for lam in (0.0, 0.1, 0.5, 2.0):
            expected = soft_threshold(beta, lam)
            got = lasso_lemke(F, v, lam)
            assert np.allclose(got, expected, atol=1e-10)

    def test_zero_columns_stay_zero(self):
        F = np.zeros((5, 2))
        assert np.array_equal(lasso_lemke(F, np.ones(5), 0.5), np.zeros(2))

    def test_certificate_gap(self, rng):
        F = rng.normal(size=(25, 3))
        v = rng.normal(size=25)
        a = lasso_lemke(F, v, 0.7)
        assert mid_kkt_gap(F, v, 0.7, a) <= 1e-10

    def test_certificate_equals_per_coordinate_loop(self, rng):
        def loop_gap(F, v, lam, a):
            g = F.T @ (v - F @ a)
            gap = 0.0
            for j in range(a.size):
                if a[j] != 0.0:
                    gap = max(gap, abs(g[j] - lam * np.sign(a[j])))
                else:
                    gap = max(gap, max(0.0, abs(g[j]) - lam))
            return float(gap)

        for _ in range(200):
            F = rng.normal(size=(9, 5))
            v = rng.normal(size=9)
            a = rng.normal(size=5) * (rng.random(5) < 0.5)
            for lam in (0.0, rng.exponential(), 1e3):
                assert mid_kkt_gap(F, v, lam, a) == loop_gap(F, v, lam, a)

    def test_start_at_the_solution_stays_there(self, rng):
        F = rng.normal(size=(40, 5))
        v = F @ np.array([2.0, 0.0, -1.0, 0.5, 0.0]) + rng.normal(size=40)
        a = lasso_lemke(F, v, 1.5)
        assert np.max(np.abs(lasso_lemke(F, v, 1.5, start=a) - a)) <= 1e-12 * np.max(np.abs(a))
        # a start far from the solution reaches the same optimum
        far = lasso_lemke(F, v, 1.5, start=np.full(5, 10.0))
        assert np.max(np.abs(far - a)) <= 1e-10 * np.max(np.abs(a))


class TestBlockFits:
    def test_zero_penalty_matches_least_squares(self):
        s = random_sample(1, n=25, k=2)
        d = build_design(s, "full")
        ls = fit_ls(d, 0.5)
        a_m = fit_lasso_mid(d, 0.0)
        a_s = fit_lasso_spr(d, 0.0, 0.5)
        mid_obj = lambda a: 0.5 * np.sum((d.vm - d.fm @ a) ** 2)
        spr_obj = lambda a: 0.5 * np.sum((d.vs - d.fs @ a) ** 2)
        assert mid_obj(a_m) == pytest.approx(mid_obj(ls.coefficients.mid_stack("full")), abs=1e-6)
        assert spr_obj(a_s) == pytest.approx(spr_obj(ls.coefficients.spread_stack("full")), abs=1e-6)

    def test_saturating_penalty_zeroes_both_blocks(self):
        s = random_sample(2, n=25, k=2)
        d = build_design(s, "full")
        lam_mid = lambda_grid(d, 2, 0.5, "mid")[0]
        lam_spr = lambda_grid(d, 2, 0.5, "spr")[0]
        assert np.all(fit_lasso_mid(d, lam_mid) == 0.0)
        assert np.all(fit_lasso_mid(d, 1.5 * lam_mid) == 0.0)
        assert np.all(fit_lasso_spr(d, lam_spr, 0.5) == 0.0)
        assert np.all(fit_lasso_spr(d, 1.5 * lam_spr, 0.5) == 0.0)

    def test_subgradient_gap_is_typed_error(self, monkeypatch):
        s = random_sample(3, n=10)
        d = build_design(s, "full")
        monkeypatch.setattr(intreg.lasso, "_lasso_gram", lambda G, b, lam, start=None: np.zeros(b.size))
        with pytest.raises(SubgradientGap) as info:
            fit_lasso_mid(d, 0.5 * lambda_grid(d, 2, 0.5, "mid")[0])
        assert isinstance(info.value, IntregError) and isinstance(info.value, ArithmeticError)
        assert info.value.code == "SubgradientGap"

    def test_ray_termination_is_typed_error(self, monkeypatch):
        def ray(lcp_, max_pivots=None):
            return LcpSolution(np.zeros(lcp_.dim), lcp_.q.copy(), RAY_TERMINATION, 1)

        d = build_design(random_sample(3, n=10), "full")
        monkeypatch.setattr(intreg.lasso, "lemke_solve", ray)
        with pytest.raises(RayTermination):
            fit_lasso_mid(d, 0.5 * lambda_grid(d, 2, 0.5, "mid")[0])

    def test_negative_penalty_rejected(self):
        s = random_sample(3, n=10)
        d = build_design(s, "full")
        with pytest.raises(ValueError):
            fit_lasso_mid(d, -0.1)
        with pytest.raises(ValueError):
            fit_lasso_spr(d, -0.1, 0.5)

    def test_spread_path_stays_feasible(self):
        s = random_sample(4, n=20, k=2)
        d = build_design(s, "full")
        R, r = d.spread_constraints()
        for lam in lambda_grid(d, 25, 1e-3, "spr"):
            a_s = fit_lasso_spr(d, lam, 0.5)
            assert np.min(R @ a_s - r) >= -1e-8

    def test_l1_norm_monotone_along_paths(self):
        s = random_sample(5, n=20, k=2)
        d = build_design(s, "full")
        mid_norms = [np.sum(np.abs(fit_lasso_mid(d, lam))) for lam in lambda_grid(d, 30, 1e-3, "mid")]
        spr_norms = [np.sum(np.abs(fit_lasso_spr(d, lam, 0.5))) for lam in lambda_grid(d, 30, 1e-3, "spr")]
        for norms in (mid_norms, spr_norms):
            diffs = np.diff(norms)  # lambdas decrease, norms must not
            assert np.all(diffs >= -1e-8)


def sign_pattern_lasso(F, v, lam):
    """Exact small-width Lasso optimum by enumerating coefficient signs."""
    from itertools import product

    w = F.shape[1]
    best, best_obj = None, np.inf
    for signs in product((-1, 0, 1), repeat=w):
        signs = np.array(signs, dtype=float)
        active = np.flatnonzero(signs != 0)
        a = np.zeros(w)
        if active.size:
            FA = F[:, active]
            try:
                a[active] = np.linalg.solve(FA.T @ FA, FA.T @ v - lam * signs[active])
            except np.linalg.LinAlgError:
                continue
            if np.any(np.sign(a[active]) != signs[active]):
                continue
        grad = F.T @ (v - F @ a)
        zero = np.flatnonzero(signs == 0)
        if zero.size and np.max(np.abs(grad[zero])) > lam + 1e-10:
            continue
        obj = 0.5 * np.sum((v - F @ a) ** 2) + lam * np.sum(np.abs(a))
        if obj < best_obj:
            best, best_obj = a, obj
    return best, best_obj


class TestObjectiveCertificates:
    def test_mid_block_matches_sign_enumeration(self):
        # small instances: k <= 2, n <= 8 keep the enumeration exact
        for seed in (61, 62, 63):
            s = random_sample(seed, n=8, k=2)
            d = build_design(s, "full")
            for lam in (0.05, 0.4, 1.5):
                a = fit_lasso_mid(d, lam)
                obj = 0.5 * np.sum((d.vm - d.fm @ a) ** 2) + lam * np.sum(np.abs(a))
                _, oracle_obj = sign_pattern_lasso(d.fm, d.vm, lam)
                assert obj <= oracle_obj + 1e-6

    def test_spread_block_matches_full_enumeration(self):
        from intreg.least_squares import spread_qp
        from intreg.oracle import brute_force_qp

        for seed in (71, 72):
            s = random_sample(seed, n=8, k=2)  # 2k + n = 12 constraints, cap-sized
            d = build_design(s, "full")
            for lam in (0.0, 0.1, 0.8):
                a = fit_lasso_spr(d, lam, 0.5)
                qp = spread_qp(d, 0.5, lam)
                oracle = brute_force_qp(qp)
                assert qp.objective(a) <= qp.objective(oracle) + 1e-6


def with_mid_x3(sample, mid_x3):
    mid_x = sample.mid_x.copy()
    mid_x[:, 2] = mid_x3
    return IntervalSample(sample.mid_y, sample.spr_y, mid_x, sample.spr_x)


class TestExactMidpointSolver:
    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_near_collinear_midpoints_certify(self, seed):
        # mid_x3 = mid_x2 + 1e-6 noise makes the midpoint Gram nearly singular
        s = split_model_sample(seed, 40)
        noise = np.random.default_rng(seed + 1).normal(size=40)
        d = build_design(with_mid_x3(s, s.mid_x[:, 1] + 1e-6 * noise), "full")
        t0 = time.perf_counter()
        res = fit_lasso(d)
        assert time.perf_counter() - t0 <= 5.0
        scale = 1.0 + np.max(np.abs(d.fm.T @ d.vm))
        assert res.diagnostics["mid_kkt_gap"] <= 1e-8 * scale

    def test_duplicate_column_reaches_the_optimum(self):
        # the split between the two equal columns is not unique, the
        # optimal objective is
        s = split_model_sample(5, 8)
        d = build_design(with_mid_x3(s, s.mid_x[:, 1]), "full")
        lambdas = lambda_grid(d, 6, 1e-2, "mid")
        for lam, warm in zip(lambdas, _mid_path(d, lambdas)):
            _, oracle_obj = sign_pattern_lasso(d.fm, d.vm, lam)
            for a in (fit_lasso_mid(d, lam), warm):
                obj = 0.5 * np.sum((d.vm - d.fm @ a) ** 2) + lam * np.sum(np.abs(a))
                assert obj == pytest.approx(oracle_obj, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("factor", [1e-6, 1e4])
    def test_solution_does_not_depend_on_the_data_scale(self, factor):
        s = split_model_sample(6, 60)
        d = build_design(s, "full")
        scaled = build_design(IntervalSample(factor * s.mid_y, factor * s.spr_y, factor * s.mid_x, factor * s.spr_x), "full")
        for lam in lambda_grid(d, 5, 1e-2, "mid"):
            a = fit_lasso_mid(d, lam)
            a_scaled = fit_lasso_mid(scaled, factor**2 * lam)
            assert np.max(np.abs(a_scaled - a)) <= 1e-10 * np.max(np.abs(a), initial=1.0)


class TestLambdaGrid:
    def test_two_point_grid_hits_endpoints(self):
        s = random_sample(6, n=15)
        d = build_design(s, "full")
        grid = lambda_grid(d, 2, 0.01, "mid")
        lam_max = np.max(np.abs(d.fm.T @ d.vm))
        assert grid[0] == pytest.approx(lam_max, rel=1e-12)
        assert grid[1] == pytest.approx(0.01 * lam_max, rel=1e-12)

    def test_mid_threshold_formula(self):
        s = random_sample(7, n=15)
        d = build_design(s, "full")
        lam_max = lambda_grid(d, 3, 0.1, "mid")[0]
        assert lam_max == pytest.approx(np.max(np.abs(d.fm.T @ d.vm)), rel=1e-12)

    def test_strictly_decreasing_constant_log_step(self):
        s = random_sample(8, n=15)
        d = build_design(s, "full")
        grid = lambda_grid(d, 12, 1e-2, "spr")
        assert np.all(np.diff(grid) < 0)
        steps = np.diff(np.log(grid))
        assert np.allclose(steps, steps[0], atol=1e-10)

    def test_count_validation(self):
        s = random_sample(9, n=15)
        d = build_design(s, "full")
        with pytest.raises(ValueError):
            lambda_grid(d, 1, 0.1, "mid")


class TestCrossValidate:
    def test_identical_seeds_identical_paths(self):
        s = random_sample(10, n=20, k=2)
        d = build_design(s, "full")
        (p1,) = cross_validate(d, 0.5, folds=4, seed=7, blocks=("mid",), count=12)
        (p2,) = cross_validate(d, 0.5, folds=4, seed=7, blocks=("mid",), count=12)
        assert np.array_equal(p1.cv_mean, p2.cv_mean)
        assert p1.lambda_mse == p2.lambda_mse and p1.lambda_1se == p2.lambda_1se

    def test_one_se_never_below_mse_choice(self):
        for seed in range(3):
            s = random_sample(20 + seed, n=18, k=2)
            for block in ("mid", "spr"):
                (path,) = cross_validate(build_design(s, "full"), 0.5, folds=3, seed=seed, blocks=(block,), count=15)
                assert path.lambda_1se >= path.lambda_mse
                assert np.all(path.cv_stderr >= 0.0)

    def test_leave_one_out_on_exact_fit_data(self):
        s = exact_fit_sample(n=8, slope=2.0)
        # hand-run leave-one-out at zero penalty: every held-out row is
        # predicted exactly, because each training subset still fits exactly
        for j in range(s.n):
            train = [i for i in range(s.n) if i != j]
            d_tr = build_design(s.subset(train), "full")
            a_m = fit_lasso_mid(d_tr, 0.0)
            mid_pred = (
                np.hstack([s.mid_x[j], s.spr_x[j]]) @ a_m
                + d_tr.mean_y.mid
                - float(d_tr.mean_mid_xebl @ a_m)
            )
            assert mid_pred == pytest.approx(s.mid_y[j], abs=1e-7)
        (path,) = cross_validate(build_design(s, "full"), 0.5, folds=s.n, seed=0, blocks=("mid",), count=20)
        # error shrinks toward zero as the penalty vanishes, so the smallest
        # grid point wins
        assert path.lambda_mse == path.lambdas[-1]

    @pytest.mark.parametrize("folds", [4, 20])
    def test_joint_pass_equals_single_block_calls(self, folds):
        d = build_design(random_sample(17, n=20, k=2), "full")
        joint = cross_validate(d, 0.5, folds=folds, seed=7, blocks=("mid", "spr"), count=12)
        single = [cross_validate(d, 0.5, folds=folds, seed=7, blocks=(block,), count=12)[0]
                  for block in ("mid", "spr")]
        assert [path.block for path in joint] == ["mid", "spr"]
        for got, want in zip(joint, single):
            for name in ("lambdas", "cv_mean", "cv_stderr", "lambda_mse", "lambda_1se"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        reverse = cross_validate(d, 0.5, folds=folds, seed=7, blocks=("spr", "mid"), count=12)
        assert np.array_equal(reverse[0].cv_mean, joint[1].cv_mean)
        assert np.array_equal(reverse[1].cv_mean, joint[0].cv_mean)

    def test_blocks_validation(self):
        d = build_design(random_sample(18, n=10), "full")
        for blocks in ((), ("mid", "both"), ("intercept",)):
            with pytest.raises(ValueError):
                cross_validate(d, 0.5, folds=2, seed=0, blocks=blocks, count=3)

    def test_fold_bounds_validation(self):
        d = build_design(random_sample(11, n=10), "full")
        for folds in (1, 11):
            with pytest.raises(ValueError):
                cross_validate(d, 0.5, folds=folds, seed=0)
            with pytest.raises(ValueError):
                select_budget(d, 0.5, folds=folds, seed=0)

    def test_training_side_too_small(self):
        d = build_design(random_sample(12, n=2, k=1, noise=0.1), "full")
        with pytest.raises(FoldTooSmall):
            cross_validate(d, 0.5, folds=2, seed=0, count=3)
        with pytest.raises(FoldTooSmall):
            select_budget(d, 0.5, folds=2, seed=0)


class TestFitLasso:
    def test_explicit_penalties_skip_cross_validation(self):
        s = random_sample(13, n=20, k=2)
        d = build_design(s, "full")
        res = fit_lasso(d, 0.5, lambda_mid=0.3, lambda_spr=0.05)
        assert res.lambda_mid == 0.3 and res.lambda_spr == 0.05
        assert np.allclose(res.coefficients.mid_stack("full"), fit_lasso_mid(d, 0.3), atol=1e-12)
        assert np.allclose(
            res.coefficients.spread_stack("full"), fit_lasso_spr(d, 0.05, 0.5), atol=1e-12
        )

    def test_seeded_run_is_deterministic(self):
        s = random_sample(14, n=20, k=2)
        d = build_design(s, "full")
        r1 = fit_lasso(d, 0.5, rule="1se", folds=4, seed=3, count=10)
        r2 = fit_lasso(d, 0.5, rule="1se", folds=4, seed=3, count=10)
        assert r1.lambda_mid == r2.lambda_mid and r1.lambda_spr == r2.lambda_spr
        assert np.array_equal(r1.coefficients.b1, r2.coefficients.b1)
        assert r1.mse == r2.mse

    def test_pure_noise_spread_zeroed_by_one_se(self):
        rng = np.random.default_rng(99)
        n = 40
        mid_x = rng.normal(size=(n, 2))
        spr_x = rng.uniform(0.2, 1.2, (n, 2))
        mid_y = mid_x @ [2.0, -1.0] + rng.normal(0, 0.2, n)
        spr_y = 1.0 + rng.uniform(0, 0.3, n)  # unrelated to the regressors
        s = IntervalSample(mid_y, spr_y, mid_x, spr_x)
        res = fit_lasso(build_design(s, "full"), 0.5, rule="1se", folds=5, seed=1, count=40)
        assert np.all(res.coefficients.b2 == 0.0)
        assert np.all(res.coefficients.b3 == 0.0)

    def test_invalid_rule(self):
        s = random_sample(15, n=12)
        with pytest.raises(ValueError):
            fit_lasso(build_design(s, "full"), 0.5, rule="median")

    def test_reports_carry_both_block_certificates(self):
        d = build_design(split_model_sample(31, 100), "full")
        res = fit_lasso(d, 0.5, lambda_mid=0.2, lambda_spr=0.05)
        a_m = res.coefficients.mid_stack("full")
        assert res.diagnostics["mid_kkt_gap"] == mid_kkt_gap(d.fm, d.vm, 0.2, a_m)
        _, info = solve_spread_block(d, 0.5, 0.05)
        assert info["lemke_pivots"] > 0
        for key in ("kkt_stationarity", "kkt_feasibility", "kkt_complementarity", "lemke_pivots", "ridge_used"):
            assert res.diagnostics[key] == info[key], key
        for key in ("kkt_stationarity", "kkt_feasibility", "kkt_complementarity"):
            assert res.diagnostics[key] <= 1e-8 * (1 + d.n), key

    def test_mse_recomputable(self):
        from intreg import mean_squared_dtau

        s = random_sample(16, n=18, k=2)
        res = fit_lasso(build_design(s, "full"), 0.5, lambda_mid=0.2, lambda_spr=0.02)
        assert res.mse == pytest.approx(mean_squared_dtau(s.y_list(), fitted_intervals(res), 0.5), abs=1e-10)


class TestPathwiseCrossValidation:
    """Each fold walks its penalty grid from the previous point's solution."""

    @pytest.mark.parametrize("n", [100, 200])
    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_warm_paths_equal_cold_fits(self, n, variant):
        d = build_design(split_model_sample(n + 1, n), variant)
        mid_grid = lambda_grid(d, 100, 1e-3, "mid")
        for lam, warm in zip(mid_grid, _mid_path(d, mid_grid)):
            cold = fit_lasso_mid(d, lam)
            assert np.array_equal(warm == 0.0, cold == 0.0)
            assert np.max(np.abs(warm - cold)) <= 1e-10 * np.max(np.abs(cold), initial=0.0)
        spr_grid = lambda_grid(d, 100, 1e-3, "spr")
        for lam, (warm, _) in zip(spr_grid, _spr_path(d, spr_grid, 0.5)):
            cold = fit_lasso_spr(d, lam, 0.5)
            assert np.array_equal(warm == 0.0, cold == 0.0)
            assert np.max(np.abs(warm - cold)) <= 1e-10 * np.max(np.abs(cold), initial=0.0)

    def test_spread_grid_makes_about_one_lemke_call_per_point(self, monkeypatch):
        # cold starts make about twice as many calls (973 on this sample)
        d = build_design(split_model_sample(1, 100), "full")
        calls = record_lemke_dims(monkeypatch)
        cross_validate(d, 0.5, folds=5, seed=0, blocks=("spr",), count=100)
        assert 0 < len(calls) <= 1.1 * 5 * 100
        assert max(calls) < d.n

    def test_spread_grid_solves_qps_only_at_breakpoints(self, monkeypatch):
        # continuation solves a QP only where the set of binding rows changes:
        # 38 solves for the 500 grid points on this sample (7.6 per fold)
        d = build_design(split_model_sample(1, 100), "full")
        calls = record_qp_solves(monkeypatch)
        cross_validate(d, 0.5, folds=5, seed=0, blocks=("spr",), count=100)
        assert 5 <= len(calls) <= 57

    @pytest.mark.parametrize("corrupt", ["primal", "multipliers"])
    def test_failed_continuation_step_falls_back_to_lemke(self, corrupt, monkeypatch):
        # a continuation step that fails its checks makes its grid point a
        # breakpoint, solved as a single fit would be
        d = build_design(split_model_sample(101, 100), "full")
        grid = lambda_grid(d, 100, 1e-3, "spr")
        cold = [fit_lasso_spr(d, lam, 0.5) for lam in grid]
        corrupt_continuation_steps(monkeypatch, corrupt)
        calls = record_qp_solves(monkeypatch)
        for want, (got, _) in zip(cold, _spr_path(d, grid, 0.5)):
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want), initial=0.0)
        assert len(calls) == len(grid)

    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_midpoint_grid_pivots_only_where_the_signs_change(self, variant, monkeypatch):
        # a point whose solution keeps the previous point's sign pattern is
        # one linear solve; Lemke runs only where the pattern changes
        d = build_design(split_model_sample(1, 100), variant)
        calls = []

        def record(lcp_, max_pivots=None):
            calls.append(lcp_.dim)
            return lemke_solve(lcp_, max_pivots)

        monkeypatch.setattr(intreg.lasso, "lemke_solve", record)
        cross_validate(d, 0.5, folds=5, seed=0, blocks=("mid",), count=100)
        assert 5 <= len(calls) <= 100

    def test_midpoint_gram_is_formed_once_per_path(self, monkeypatch):
        d = build_design(split_model_sample(1, 100), "full")
        grams = []
        gram = intreg.lasso._lasso_gram

        def record(G, b, lam, start=None):
            grams.append((id(G), id(b)))
            return gram(G, b, lam, start)

        monkeypatch.setattr(intreg.lasso, "_lasso_gram", record)
        grid = lambda_grid(d, 100, 1e-3, "mid")
        assert len(list(_mid_path(d, grid))) == len(grams) == len(grid)
        assert len(set(grams)) == 1

    def test_every_grid_point_is_still_certified(self, monkeypatch):
        # zeros solve at most the top of a fold's grid; starting each point
        # from the previous one must not skip a point's subgradient test
        d = build_design(split_model_sample(2, 100), "full")
        monkeypatch.setattr(intreg.lasso, "_lasso_gram", lambda G, b, lam, start=None: np.zeros(b.size))
        with pytest.raises(SubgradientGap):
            cross_validate(d, 0.5, folds=5, seed=0, blocks=("mid",), count=100)
