import numpy as np
import pytest

from intreg import (
    Interval,
    IntervalSample,
    build_design,
    estimate_intercept,
    fit_ls,
    mean_squared_unweighted,
)
from intreg.errors import LengthMismatch
from intreg.least_squares import _msd_arrays, spread_qp

from conftest import exact_fit_sample, random_sample, weighted_mse
from oracle import brute_force_qp


def iv(a, b):
    return Interval.from_endpoints(a, b)


class TestFitLs:
    def test_exact_interval_linear_data(self):
        s = exact_fit_sample(n=6, slope=2.0)
        d = build_design(s, "full")
        res = fit_ls(d, 0.5)
        c = res.coefficients
        assert c.b1[0] == pytest.approx(2.0, abs=1e-8)
        assert c.b2[0] == pytest.approx(2.0, abs=1e-8)
        assert abs(c.b3[0]) <= 1e-8 and abs(c.b4[0]) <= 1e-8
        assert abs(c.delta.mid) <= 1e-8 and c.delta.spr <= 1e-8
        assert res.mse <= 1e-12
        # independent confirmation of the spread block by full enumeration
        a_s_oracle = brute_force_qp(spread_qp(d, 0.5))
        assert np.allclose(c.spread_stack("full"), a_s_oracle, atol=1e-7)

    def test_degenerate_spreads_reduce_to_classical_ols(self):
        rng = np.random.default_rng(5)
        mid_x = rng.normal(size=(12, 2))
        mid_y = mid_x @ [1.5, -0.5] + rng.normal(0, 0.1, 12)
        s = IntervalSample(mid_y, np.zeros(12), mid_x, np.zeros((12, 2)))
        res = fit_ls(build_design(s, "full"), 0.5)
        c = res.coefficients
        assert np.all(c.b2 == 0.0) and np.all(c.b3 == 0.0)
        X = np.column_stack([mid_x - mid_x.mean(axis=0)])
        beta = np.linalg.lstsq(X, mid_y - mid_y.mean(), rcond=None)[0]
        assert np.allclose(c.b1, beta, atol=1e-8)

    def test_positive_scale_equivariance(self):
        s = random_sample(21, n=25, k=2)
        scale = 3.5
        scaled = IntervalSample(
            scale * s.mid_y, scale * s.spr_y, s.mid_x, s.spr_x, s.variable_names
        )
        res = fit_ls(build_design(s, "full"), 0.5)
        res_scaled = fit_ls(build_design(scaled, "full"), 0.5)
        for name in ("b1", "b2", "b3", "b4"):
            assert np.allclose(
                getattr(res_scaled.coefficients, name),
                scale * getattr(res.coefficients, name),
                atol=1e-7,
            )
        assert res_scaled.coefficients.delta.mid == pytest.approx(scale * res.coefficients.delta.mid, abs=1e-7)
        assert res_scaled.coefficients.delta.spr == pytest.approx(scale * res.coefficients.delta.spr, abs=1e-7)
        assert res_scaled.mse == pytest.approx(scale**2 * res.mse, rel=1e-6)

    def test_spread_feasibility_on_training_rows(self):
        for seed in range(4):
            s = random_sample(seed, n=30, k=2)
            d = build_design(s, "full")
            res = fit_ls(d, 0.5)
            fitted_spread_part = d.gamma_matrix @ res.coefficients.spread_stack("full")
            assert np.all(fitted_spread_part <= d.sample.spr_y + 1e-8)

    def test_objective_below_feasible_probes(self, rng):
        s = random_sample(31, n=15, k=1)
        d = build_design(s, "full")
        res = fit_ls(d, 0.5)
        a_s = res.coefficients.spread_stack("full")
        obj = 0.5 * np.sum((d.vs - d.fs @ a_s) ** 2)
        R, r = d.spread_constraints()
        for _ in range(200):
            probe = rng.uniform(0, 1, 2)
            # shrink until the spread-domination rows hold
            g = d.gamma_matrix @ probe
            over = np.max(g / np.maximum(d.sample.spr_y, 1e-12))
            if over > 1.0:
                probe = probe / (over * 1.0001)
            assert np.all(R @ probe >= r - 1e-10)
            probe_obj = 0.5 * np.sum((d.vs - d.fs @ probe) ** 2)
            assert obj <= probe_obj + 1e-9

    def test_no_spread_signal_keeps_kkt_certificate(self):
        rng = np.random.default_rng(9)
        mid_x = rng.normal(size=(20, 2))
        spr_x = rng.uniform(0.2, 1.0, (20, 2))
        mid_y = mid_x @ [1.0, -1.0]
        spr_y = np.full(20, 2.0)  # constant spread, no signal
        s = IntervalSample(mid_y, spr_y, mid_x, spr_x)
        res = fit_ls(build_design(s, "full"), 0.5)
        assert res.diagnostics["kkt_stationarity"] <= 1e-8

    def test_rank_deficiency_reported_not_fatal(self):
        # duplicated regressor makes the midpoint design rank deficient
        rng = np.random.default_rng(11)
        mid = rng.normal(size=(15, 1))
        spr = rng.uniform(0.1, 1.0, (15, 1))
        s = IntervalSample(
            mid[:, 0] * 2.0,
            spr[:, 0],
            np.hstack([mid, mid]),
            np.hstack([spr, spr]),
        )
        res = fit_ls(build_design(s, "full"), 0.5)
        assert res.diagnostics["degenerate_design"] == 1.0

    def test_model_m_variant(self):
        s = exact_fit_sample(n=6, slope=2.0)
        res = fit_ls(build_design(s, "model-m"), 0.5)
        c = res.coefficients
        assert c.b1[0] == pytest.approx(2.0, abs=1e-8)
        assert c.b2[0] == pytest.approx(2.0, abs=1e-8)
        assert np.all(c.b3 == 0.0) and np.all(c.b4 == 0.0)


class TestEstimateIntercept:
    def test_zero_coefficients_give_mean(self):
        s = random_sample(41, n=10, k=2)
        d = build_design(s, "full")
        delta = estimate_intercept(d, np.zeros(4), np.zeros(4))
        assert delta.mid == pytest.approx(d.mean_y.mid, rel=1e-14)
        assert delta.spr == pytest.approx(d.mean_y.spr, rel=1e-14)

    def test_exact_fit_gives_zero(self):
        s = exact_fit_sample(n=6, slope=2.0)
        d = build_design(s, "full")
        res = fit_ls(d, 0.5)
        coefs = res.coefficients
        delta = estimate_intercept(d, coefs.mid_stack("full"), coefs.spread_stack("full"))
        assert abs(delta.mid) <= 1e-8 and delta.spr <= 1e-8

    def test_location_shift_moves_only_the_intercept(self):
        s = random_sample(43, n=20, k=2)
        shifted = IntervalSample(s.mid_y + 5.0, s.spr_y, s.mid_x, s.spr_x)
        res = fit_ls(build_design(s, "full"), 0.5)
        res_shift = fit_ls(build_design(shifted, "full"), 0.5)
        for name in ("b1", "b2", "b3", "b4"):
            assert np.allclose(
                getattr(res_shift.coefficients, name), getattr(res.coefficients, name), atol=1e-8
            )
        assert res_shift.coefficients.delta.mid == pytest.approx(
            res.coefficients.delta.mid + 5.0, abs=1e-8
        )


class TestMeanSquaredDtau:
    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mean_squared_unweighted(np.zeros(1), np.zeros(1), np.zeros(2), np.zeros(2))

    def test_unweighted_is_double_the_balanced_metric(self):
        y = [iv(0, 2), iv(1, 5), iv(-1, 0)]
        y_hat = [iv(0.5, 2.5), iv(0, 5), iv(-1, 1)]
        mids = lambda ivs: np.array([a.mid for a in ivs])
        sprs = lambda ivs: np.array([a.spr for a in ivs])
        assert mean_squared_unweighted(mids(y), sprs(y), mids(y_hat), sprs(y_hat)) == pytest.approx(
            2.0 * _msd_arrays(mids(y) - mids(y_hat), sprs(y) - sprs(y_hat), 0.5), rel=1e-14
        )

    def test_recomputable_from_fit_result(self):
        s = random_sample(44, n=18, k=2)
        res = fit_ls(build_design(s, "full"), 0.5)
        assert res.mse == pytest.approx(weighted_mse(s, res, 0.5), abs=1e-10)
