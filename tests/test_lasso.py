import time
from pathlib import Path

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
    ingest,
    lambda_grid,
    select_budget,
)
import intreg.lasso
import intreg.lcp
import intreg.least_squares
from intreg.cli import main
from intreg.errors import FoldTooSmall, IntregError, RayTermination, SubgradientGap
from intreg.lasso import _lasso_gram, _mid_fits, mid_kkt_gap, soft_threshold
from intreg.lasso_ir import _budget_fit, _budget_paths, default_budget_grid
from intreg.least_squares import _spr_paths, _spread_linear, _spread_program, solve_spread_block, spread_qp

from conftest import (corrupt_homotopy_segments, exact_fit_sample, random_sample, record_homotopies,
                      record_lemke_dims, record_qp_solves, split_model_sample, weighted_mse)
from oracle import sign_pattern_lasso


def lasso_exact(F, v, lam):
    """The midpoint Lasso's exact minimizer at one penalty, from raw ``F`` and ``v``."""
    return _lasso_gram(F.T @ F, F.T @ v, np.array([lam]))[0]


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
            got = lasso_exact(F, v, lam)
            assert np.allclose(got, expected, atol=1e-10)

    def test_zero_columns_stay_zero(self):
        F = np.zeros((5, 2))
        assert np.array_equal(lasso_exact(F, np.ones(5), 0.5), np.zeros(2))

    def test_certificate_gap(self, rng):
        F = rng.normal(size=(25, 3))
        v = rng.normal(size=25)
        a = lasso_exact(F, v, 0.7)
        assert mid_kkt_gap(F, v, 0.7, a) <= 1e-10

    def test_certificate_equals_per_coordinate_loop(self, rng):
        def loop_gap(g, lam, a):
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
            A = rng.normal(size=(3, 5)) * (rng.random((3, 5)) < 0.5)
            lams = np.array([0.0, rng.exponential(), 1e3])
            # the stacked form correlates every row in one matrix product
            stacked = mid_kkt_gap(F, v, lams, A)
            g_stacked = (F.T @ (v[:, None] - F @ A.T)).T
            assert stacked.shape == (3,)
            for a, g, lam, gap in zip(A, g_stacked, lams, stacked):
                assert mid_kkt_gap(F, v, lam, a) == loop_gap(F.T @ (v - F @ a), lam, a)
                assert gap == loop_gap(g, lam, a)


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
        monkeypatch.setattr(intreg.lasso, "_lasso_gram", lambda G, b, lambdas: np.zeros((lambdas.size, b.size)))
        with pytest.raises(SubgradientGap) as info:
            fit_lasso_mid(d, 0.5 * lambda_grid(d, 2, 0.5, "mid")[0])
        assert isinstance(info.value, IntregError) and isinstance(info.value, ArithmeticError)
        assert info.value.code == "SubgradientGap"

    def test_nan_solution_fails_its_certificate(self, monkeypatch):
        d = build_design(random_sample(3, n=10), "full")
        monkeypatch.setattr(intreg.lasso, "_lasso_gram", lambda G, b, lambdas: np.full((lambdas.size, b.size), np.nan))
        with pytest.raises(SubgradientGap):
            fit_lasso_mid(d, 0.5 * lambda_grid(d, 2, 0.5, "mid")[0])

    def test_ray_termination_is_typed_error(self, monkeypatch, capsys):
        # a midpoint path that ray-terminates short of its penalty raises,
        # and reaches the CLI as one error line
        pivots = intreg.lcp._lemke_pivots

        def ray(M, q, max_pivots):
            # the run ends after z0 enters, with z0 still basic
            yield next(pivots(M, q, max_pivots))

        d = build_design(random_sample(3, n=10), "full")
        monkeypatch.setattr(intreg.lcp, "_lemke_pivots", ray)
        with pytest.raises(RayTermination, match="midpoint Lasso"):
            fit_lasso_mid(d, 0.5 * lambda_grid(d, 2, 0.5, "mid")[0])
        # cross-validation walks the midpoint grid of the first fold first
        code = main(["--input-path", str(Path(__file__).parent / "fixtures/synthetic59.csv"), "--method", "lasso"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error code=RayTermination") and "midpoint Lasso" in err
        assert err.count("\n") == 1

    def test_negative_penalty_rejected(self):
        s = random_sample(3, n=10)
        d = build_design(s, "full")
        for lam in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                fit_lasso_mid(d, lam)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                fit_lasso_spr(d, lam, 0.5)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                fit_lasso(d, 0.5, lambda_mid=0.1, lambda_spr=lam)

    def test_spread_path_checks_its_whole_grid(self):
        # a bad penalty anywhere on the grid is refused, as the midpoint
        # and budget paths refuse theirs, not solved into NaN coefficients
        d = build_design(random_sample(3, n=10), "full")
        for grid in ([0.1, float("nan")], [float("inf")], [0.1, -1.0]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                _spr_paths([d], grid, 0.5)

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
        from oracle import brute_force_qp

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
        for lam, warm in zip(lambdas, _mid_fits(d, lambdas)[0]):
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

    def test_flat_curve_selects_the_largest_tied_penalty(self):
        # bench/workloads.generate(0, 13, 300, 3, spread_noise=1.0), the
        # zero-spread probe's input 13: under model-m its spread curve is
        # flat to roundoff over most of the grid
        d = build_design(split_model_sample([0, 13], 300, spread_noise=1.0), "model-m")
        (path,) = cross_validate(d, 0.5, folds=5, seed=0, blocks=("spr",))
        low = np.min(path.cv_mean)
        tied = path.cv_mean <= low + 1e-12 * low
        assert tied.sum() >= 90
        assert path.lambda_mse == np.max(path.lambdas[tied])

    def test_selections_ignore_roundoff_in_the_curve(self, monkeypatch):
        import intreg.lasso_ir

        d = {variant: build_design(ingest(Path(__file__).parent / "fixtures" / "synthetic59.csv"), variant)
             for variant in ("full", "model-m")}

        def selections():
            picks = [select_budget(design, 0.5) for design in d.values()]
            for design in d.values():
                picks += [(p.lambda_mse, p.lambda_1se) for p in cross_validate(design, 0.5)]
            return picks

        want = selections()
        cv_errors = intreg.lasso._cv_errors
        for seed in range(3):
            # every grid point's mean error moves by up to 1e-15 relative
            wobble = np.random.default_rng(seed).uniform(-1e-15, 1e-15, 200)

            def perturbed(*args):
                errors = cv_errors(*args)
                return errors * (1.0 + wobble[: errors.shape[1]])

            monkeypatch.setattr(intreg.lasso, "_cv_errors", perturbed)
            monkeypatch.setattr(intreg.lasso_ir, "_cv_errors", perturbed)
            assert selections() == want

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
        s = random_sample(16, n=18, k=2)
        res = fit_lasso(build_design(s, "full"), 0.5, lambda_mid=0.2, lambda_spr=0.02)
        assert res.mse == pytest.approx(weighted_mse(s, res, 0.5), abs=1e-10)

    # one regressor midpoint of 1e12 among values of order 1 (data row 2 of
    # the fixture): the midpoint Lasso leaves a subgradient gap far beyond
    # its bound; open, so it stays in view
    @pytest.mark.xfail(strict=True, raises=SubgradientGap)
    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_one_midpoint_outlier_fits(self, variant):
        s = ingest(Path(__file__).resolve().parent / "fixtures" / "synthetic59.csv")
        mid_x = np.array(s.mid_x)
        mid_x[1, 0] = 1e12
        d = build_design(IntervalSample(s.mid_y, s.spr_y, mid_x, s.spr_x), variant)
        res = fit_lasso(d, 0.5)
        assert res.diagnostics["mid_kkt_gap"] <= 1e-8 * (1.0 + np.max(np.abs(d.fm.T @ d.vm)))


class TestPathwiseCrossValidation:
    """Each fold walks its penalty grids as paths: the midpoint grid in one
    Lemke run, the spread grid as an exact homotopy down from its zeroing
    penalty."""

    @pytest.mark.parametrize("n", [100, 200])
    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_warm_paths_equal_cold_fits(self, n, variant):
        d = build_design(split_model_sample(n + 1, n), variant)
        mid_grid = lambda_grid(d, 100, 1e-3, "mid")
        for lam, warm in zip(mid_grid, _mid_fits(d, mid_grid)[0]):
            cold = fit_lasso_mid(d, lam)
            assert np.array_equal(warm == 0.0, cold == 0.0)
            assert np.max(np.abs(warm - cold)) <= 1e-10 * np.max(np.abs(cold), initial=0.0)
        # the spread grid as lambda_grid gives it, as the folds of
        # cross_validate walk it (down to zero), and in increasing order
        spr_grid = lambda_grid(d, 100, 1e-3, "spr")
        for grid in (spr_grid, np.append(spr_grid, 0.0), np.concatenate([[0.0], spr_grid[::-1]])):
            for lam, warm in zip(grid, _spr_paths([d], grid, 0.5)[0]):
                cold = fit_lasso_spr(d, lam, 0.5)
                assert np.array_equal(warm == 0.0, cold == 0.0)
                assert np.max(np.abs(warm - cold)) <= 1e-10 * np.max(np.abs(cold), initial=0.0)

    def test_spread_grid_makes_about_one_lemke_call_per_point(self, monkeypatch):
        # cold starts made about two Lemke calls per point (973 on this
        # sample), the continuation about one; the homotopy makes none
        d = build_design(split_model_sample(1, 100), "full")
        calls = record_lemke_dims(monkeypatch)
        cross_validate(d, 0.5, folds=5, seed=0, blocks=("spr",), count=100)
        assert calls == []

    def test_one_spread_path_per_fold(self, monkeypatch):
        # the spread block held for the midpoint block's errors is the zero
        # row the fold's spread path ends at, not a solve of its own: each
        # fold walks one homotopy, down from its zeroing penalty to 0, and
        # no working-set Lemke solve runs
        d = build_design(split_model_sample(1, 100), "full")
        grids = record_homotopies(monkeypatch)
        calls = record_qp_solves(monkeypatch)
        cross_validate(d, 0.5, folds=5, seed=0, count=100)
        assert [(thetas.size, thetas[-1]) for thetas, _ in grids] == [(101, 0.0)] * 5
        assert calls == []

    def test_midpoint_pass_fits_the_spread_block_at_zero_alone(self, monkeypatch):
        # with the spread block not scanned, each fold walks the same
        # homotopy down to the zero penalty with no grid point on the way,
        # and solves no QP by Lemke
        d = build_design(split_model_sample(1, 100), "full")
        grids = record_homotopies(monkeypatch)
        calls = record_qp_solves(monkeypatch)
        cross_validate(d, 0.5, folds=5, seed=0, blocks=("mid",), count=100)
        assert [thetas.tolist() for thetas, _ in grids] == [[0.0]] * 5
        assert calls == []

    @pytest.mark.parametrize("seed", [1, 2])
    def test_zero_end_is_the_least_squares_spread_fit(self, seed):
        # on the training rows of each fold that cross_validate builds, and
        # the grid it walks down to zero; the homotopy and the single fit's
        # Lemke path are two algorithms, so they agree to roundoff, with the
        # same zero pattern
        d = build_design(split_model_sample(seed, 100), "full")
        grid = [*lambda_grid(d, 100, 1e-3, "spr"), 0.0]
        for held in np.array_split(np.random.default_rng(0).permutation(d.n), 5):
            train = build_design(d.sample.subset(np.setdiff1d(np.arange(d.n), held)), "full")
            want = solve_spread_block(train, 0.5)[0]
            got = _spr_paths([train], grid, 0.5)[0][-1]
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_spread_grid_solves_qps_only_at_breakpoints(self, monkeypatch):
        # the homotopy makes one reduced KKT solve per segment, between two
        # breakpoints, about 8 per fold on this sample, and no working-set
        # Lemke solve for the 505 grid points
        d = build_design(split_model_sample(1, 100), "full")
        calls = record_qp_solves(monkeypatch)
        segments = []
        solve = intreg.lcp._segment_solve
        # one segment per walking fold of each batched solve
        monkeypatch.setattr(intreg.lcp, "_segment_solve", lambda *args: segments.extend([1] * len(args[0]))
                            or solve(*args))
        cross_validate(d, 0.5, folds=5, seed=0, blocks=("spr",), count=100)
        assert calls == []
        assert 5 <= len(segments) <= 5 * 20

    @pytest.mark.parametrize("corrupt", ["primal", "multipliers"])
    def test_failed_continuation_step_falls_back_to_lemke(self, corrupt, monkeypatch):
        # a homotopy segment whose solve fails its certificate sends its
        # first point to working-set Lemke, solved as a single fit would be,
        # and the walk restarts from there
        d = build_design(split_model_sample(101, 100), "full")
        grid = lambda_grid(d, 100, 1e-3, "spr")
        cold = [fit_lasso_spr(d, lam, 0.5) for lam in grid]
        corrupt_homotopy_segments(monkeypatch, corrupt, first=3)
        calls = record_qp_solves(monkeypatch)
        (got,) = _spr_paths([d], grid, 0.5)
        for want, row in zip(cold, got):
            assert np.array_equal(row == 0.0, want == 0.0)
            assert np.max(np.abs(row - want)) <= 1e-10 * np.max(np.abs(want), initial=0.0)
        # the grid points Lemke solved, known by their programs' linear terms
        g = _spread_program(d, 0.5)[4]
        solved = [int(np.argmin([np.max(np.abs(qp.c - _spread_linear(0.5, lam, g))) for lam in grid])) for qp in calls]
        assert 1 <= len(solved) < len(grid) and 0 not in solved

    @pytest.mark.parametrize("k", [10, 20])
    def test_wide_midpoint_paths_equal_cold_fits(self, k):
        d = build_design(split_model_sample(k, 200, k), "full")
        grid = lambda_grid(d, 100, 1e-3, "mid")
        for lam, warm in zip(grid, _mid_fits(d, grid)[0]):
            cold = fit_lasso_mid(d, lam)
            assert np.array_equal(warm == 0.0, cold == 0.0)
            assert np.max(np.abs(warm - cold)) <= 1e-10 * np.max(np.abs(cold), initial=0.0)

    @pytest.mark.parametrize("k", [10, 20])
    def test_wide_spread_and_budget_paths_equal_cold_fits(self, k):
        # on wide designs both grids are walked as homotopies; each point
        # must be the single fit's, one working-set Lemke solve, zero
        # pattern included
        d = build_design(split_model_sample(k, 200, k), "full")
        grid = lambda_grid(d, 100, 1e-3, "spr")
        pairs = [(warm, fit_lasso_spr(d, lam, 0.5)) for lam, warm in zip(grid, _spr_paths([d], grid, 0.5)[0])]
        grid = default_budget_grid(d)
        for t, a_m, a_a in zip(grid, *_budget_paths([d], 0.5, grid)[0]):
            cold_m, cold_a, _ = _budget_fit(d, 0.5, t)
            pairs += [(a_m, cold_m), (a_a, cold_a)]
        for warm, cold in pairs:
            assert np.array_equal(warm == 0.0, cold == 0.0)
            assert np.max(np.abs(warm - cold)) <= 1e-10 * np.max(np.abs(cold), initial=0.0)

    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_midpoint_grid_pivots_only_where_the_signs_change(self, variant, monkeypatch):
        # one Lemke run per fold walks the whole grid, pivoting where a
        # coefficient enters or leaves the support; the spread paths, walked
        # as homotopies, make no Lemke run, and the held midpoint block of a
        # spread-only pass, an empty grid, makes none either
        d = build_design(split_model_sample(1, 100), variant)
        runs, loops, caller = [], [], [None]
        path, pivots = intreg.lasso._lemke_path, intreg.lcp._lemke_pivots

        def within(name, fn):
            def wrapped(*args, **kwargs):
                outer, caller[0] = caller[0], name
                try:
                    return fn(*args, **kwargs)
                finally:
                    caller[0] = outer
            return wrapped

        def record_run(lcp_, ts):
            runs.append(ts.size)
            return path(lcp_, ts)

        def record_loop(M, q, max_pivots):
            loops.append(caller[0])
            return pivots(M, q, max_pivots)

        monkeypatch.setattr(intreg.lasso, "_lemke_path", within("path", record_run))
        monkeypatch.setattr(intreg.lcp, "_solve_qp_full", within("qp", intreg.lcp._solve_qp_full))
        monkeypatch.setattr(intreg.lcp, "_lemke_pivots", record_loop)
        cross_validate(d, 0.5, folds=5, seed=0, blocks=("mid",), count=100)
        assert runs == [100] * 5
        assert loops == ["path"] * 5
        runs.clear()
        loops.clear()
        cross_validate(d, 0.5, folds=5, seed=0, blocks=("spr",), count=100)
        assert runs == [0] * 5
        assert loops == []

    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_single_penalty_is_its_grid_row(self, variant):
        # a single penalty is the one-point Lemke run, which takes the grid
        # run's pivots up to the edge that crosses it and reads the same point
        d = build_design(split_model_sample(3, 100), variant)
        grid = lambda_grid(d, 100, 1e-3, "mid")
        rows = _mid_fits(d, grid)[0]
        for j in [*range(0, 100, 7), 99]:
            (one,), _ = _mid_fits(d, [grid[j]])
            assert np.max(np.abs(one - rows[j]), initial=0.0) <= 1e-12 * np.max(np.abs(rows[j]), initial=0.0)

    def test_midpoint_gram_is_formed_once_per_path(self, monkeypatch):
        d = build_design(split_model_sample(1, 100), "full")
        grams = []
        gram = intreg.lasso._lasso_gram

        def record(G, b, lambdas):
            grams.append(lambdas.size)
            return gram(G, b, lambdas)

        monkeypatch.setattr(intreg.lasso, "_lasso_gram", record)
        grid = lambda_grid(d, 100, 1e-3, "mid")
        assert len(_mid_fits(d, grid)[0]) == len(grid)
        assert grams == [len(grid)]
        grams.clear()
        cross_validate(d, 0.5, folds=5, seed=0, blocks=("mid",), count=100)
        assert grams == [100] * 5

    @pytest.mark.parametrize("failure", ["ray-termination", "rising-z0"])
    def test_failed_path_raises_a_typed_error(self, failure, monkeypatch):
        # a run that ray-terminates short of the grid raises; a run whose
        # tableau reports a wrong z0, here one that rises, reads wrong
        # points, which their subgradient test rejects; no penalty is solved
        # again by a Lemke run of its own
        d = build_design(split_model_sample(101, 100), "full")
        grid = lambda_grid(d, 100, 1e-3, "mid")
        pivots = intreg.lcp._lemke_pivots
        runs, z0s = [], []

        def failing(M, q, max_pivots):
            runs.append(q.size)
            for step, (T, basis) in enumerate(pivots(M, q, max_pivots)):
                if step == 4:
                    if failure == "ray-termination":
                        return
                    T = T.copy()
                    T[basis == 2 * q.size, -1] *= 2.0
                z0s.append(float(np.sum(T[basis == 2 * q.size, -1])))  # 0 once z0 leaves
                yield T, basis

        monkeypatch.setattr(intreg.lcp, "_lemke_pivots", failing)
        error = {"ray-termination": RayTermination, "rising-z0": SubgradientGap}[failure]
        with pytest.raises(error):
            _mid_fits(d, grid)
        assert len(runs) == 1
        if failure == "rising-z0":
            assert z0s[4] > z0s[3]

    def test_every_grid_point_is_still_certified(self, monkeypatch):
        # zeros solve at most the top of a fold's grid; interpolating each
        # point on the path must not skip a point's subgradient test
        d = build_design(split_model_sample(2, 100), "full")
        monkeypatch.setattr(intreg.lasso, "_lemke_path",
                            lambda lcp_, ts: (np.zeros((ts.size, lcp_.dim)), np.ones(ts.size, dtype=bool)))
        with pytest.raises(SubgradientGap):
            cross_validate(d, 0.5, folds=5, seed=0, blocks=("mid",), count=100)


@pytest.mark.parametrize("path", ["qp", "spread", "midpoint", "budget"])
def test_empty_grid_gives_empty_stacks(path):
    # an empty grid has no points: every stack has no rows, and a walk ends
    # on the set it starts from
    d = build_design(random_sample(5, n=12), "full")
    qp = spread_qp(d, 0.5)
    w = d.block_width
    got, want = {
        "qp": lambda: (intreg.lcp._qp_homotopy([qp.Q], [qp.R], [qp.r], [qp.c], [np.zeros(w)], np.zeros(0), [0.0],
                                               [np.arange(w)])[0], [(0, w), (w,)]),
        "spread": lambda: (_spr_paths([d], [], 0.5), [(0, w)]),
        "midpoint": lambda: (_mid_fits(d, []), [(0, w), (0,)]),
        "budget": lambda: (_budget_paths([d], 0.5, [])[0], [(0, w), (0, w)]),
    }[path]()
    assert [x.shape for x in got] == want


def per_point_cv_errors(design, tau, folds, seed, fit_grid):
    """The held-out error matrix one grid point at a time: per fold and point,
    the intercept from the training means and the mean weighted squared
    error of the held-out rows."""
    from intreg.design import regressor_blocks
    from intreg.least_squares import _msd_arrays

    sample = design.sample
    errors = []
    for held in np.array_split(np.random.default_rng(seed).permutation(sample.n), folds):
        held = np.sort(held)
        train = build_design(sample.subset(np.setdiff1d(np.arange(sample.n), held)), design.variant)
        test = sample.subset(held)
        mid_side, spr_side = regressor_blocks(test, design.variant)
        row = []
        for a_m, a_s in zip(*fit_grid([train])[0]):
            mid_hat = mid_side @ a_m + train.mean_y.mid - float(train.mean_mid_xebl @ a_m)
            spr_hat = spr_side @ a_s + train.mean_y.spr - float(train.mean_spr_xebl @ a_s)
            row.append(_msd_arrays(test.mid_y - mid_hat, test.spr_y - spr_hat, tau))
        errors.append(row)
    return np.array(errors)


class TestCvErrorMatrix:
    """Each fold's held-out errors for the whole grid come from one matrix
    product per block, equal to the per-point errors."""

    @staticmethod
    def capture(monkeypatch, module):
        # record the fold routine's error matrix and its per-point reference
        seen = []
        cv_errors = intreg.lasso._cv_errors

        def record(design, tau, folds, seed, fit_grid):
            errors = cv_errors(design, tau, folds, seed, fit_grid)
            seen.append((errors, per_point_cv_errors(design, tau, folds, seed, fit_grid)))
            return errors

        monkeypatch.setattr(module, "_cv_errors", record)
        return seen

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_cross_validate_matches_per_point_errors(self, seed, variant, monkeypatch):
        d = build_design(split_model_sample(seed, 100), variant)
        seen = self.capture(monkeypatch, intreg.lasso)
        paths = cross_validate(d, 0.5, folds=5, seed=0, count=100)
        (errors, reference), = seen
        assert errors.shape == reference.shape == (5, 200)
        assert np.max(np.abs(errors - reference) / reference) <= 1e-13
        for path, block_errors in zip(paths, np.split(reference, 2, axis=1)):
            cv_mean = block_errors.mean(axis=0)
            cv_stderr = block_errors.std(axis=0, ddof=1) / np.sqrt(5)
            best = int(np.argmin(cv_mean))
            assert path.lambda_mse == path.lambdas[best]
            assert path.lambda_1se == path.lambdas[np.flatnonzero(cv_mean <= cv_mean[best] + cv_stderr[best])[0]]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_select_budget_matches_per_point_errors(self, seed, monkeypatch):
        import intreg.lasso_ir

        d = build_design(split_model_sample(seed, 100), "full")
        seen = self.capture(monkeypatch, intreg.lasso_ir)
        grid = intreg.lasso_ir.default_budget_grid(d)
        t = select_budget(d, 0.5, folds=5, seed=0)
        (errors, reference), = seen
        assert errors.shape == reference.shape == (5, len(grid))
        assert np.max(np.abs(errors - reference) / reference) <= 1e-13
        assert t == grid[int(np.argmin(reference.mean(axis=0)))]


class TestFoldsAreRowSlices:
    """Every training design of the cross-validation equals the design built
    from the fold's own sample, array for array, and the held-out errors,
    read from the row slices of the full sample's regressor blocks, equal
    those read from a per-fold test sample, exactly."""

    @pytest.mark.parametrize("folds", [2, 3, 5, 23], ids=["2", "3", "5", "loo"])
    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_training_designs_and_errors_match_per_fold_samples(self, variant, folds):
        from intreg.design import regressor_blocks

        sample = random_sample(3, n=23, k=2)
        design = build_design(sample, variant)
        rng = np.random.default_rng(folds)
        # stacks of three grid points, arbitrary but fixed per fold
        stacks = [(rng.normal(size=(3, design.block_width)), rng.uniform(size=(3, design.block_width)))
                  for _ in range(folds)]
        seen = []

        def fit_grid(trains):
            seen.extend(trains)
            return stacks

        tau = 0.3
        errors = intreg.lasso._cv_errors(design, tau, folds, 4, fit_grid)
        parts = np.array_split(np.random.default_rng(4).permutation(sample.n), folds)
        assert len(seen) == folds and errors.shape == (folds, 3)
        for f, (held, train, (A_m, A_s)) in enumerate(zip(parts, seen, stacks)):
            held = np.sort(held)
            want = build_design(sample.subset(np.setdiff1d(np.arange(sample.n), held)), variant)
            for name in ("fm", "fs", "vm", "vs", "mean_mid_xebl", "mean_spr_xebl", "gamma_matrix"):
                assert np.array_equal(getattr(train, name), getattr(want, name)), name
            assert train.mean_y == want.mean_y and train.variant == variant
            for name in ("mid_y", "spr_y", "mid_x", "spr_x"):
                assert np.array_equal(getattr(train.sample, name), getattr(want.sample, name)), name
            test = sample.subset(held)
            mid_side, spr_side = regressor_blocks(test, variant)
            res_mid = test.mid_y - (A_m @ mid_side.T + (want.mean_y.mid - A_m @ want.mean_mid_xebl)[:, None])
            res_spr = test.spr_y - (A_s @ spr_side.T + (want.mean_y.spr - A_s @ want.mean_spr_xebl)[:, None])
            assert np.array_equal(errors[f], np.mean((1.0 - tau) * res_mid**2 + tau * res_spr**2, axis=1))
        assert "gamma_matrix" not in vars(design)
