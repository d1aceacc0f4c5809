from pathlib import Path

import numpy as np
import pytest

import intreg.least_squares
from intreg import (
    Interval,
    IntervalSample,
    build_design,
    estimate_intercept,
    fit_lasso,
    fit_ls,
    ingest,
    mean_squared_unweighted,
)
from intreg.errors import LengthMismatch, RayTermination
from intreg.lcp import _kkt
from intreg.least_squares import _msd_arrays, _spr_paths, solve_spread_block, spread_qp

from conftest import exact_fit_sample, random_sample, record_qp_solves, split_model_sample, weighted_mse
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

    # one regressor interval [0, 1e6] among values of order 1: the spread
    # block's Lemke run ray-terminates on a feasible program (its pivot
    # tolerance is absolute); open, so it stays in view
    @pytest.mark.xfail(strict=True, raises=RayTermination)
    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_one_wide_regressor_interval_fits(self, variant):
        s = ingest(Path(__file__).resolve().parent / "fixtures" / "synthetic59.csv")
        mid_x, spr_x = np.array(s.mid_x), np.array(s.spr_x)
        mid_x[1, 0] = spr_x[1, 0] = 5e5
        res = fit_ls(build_design(IntervalSample(s.mid_y, s.spr_y, mid_x, spr_x), variant), 0.5)
        assert res.diagnostics["kkt_stationarity"] <= 1e-8 * (1.0 + 5e5) ** 2


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


def full_program_certificate(design, tau, lam, monkeypatch):
    """The spread fit at penalty ``lam`` and its KKT residuals on the full
    program, every zero-spread row and pinned bound included.

    The rows the presolve keeps take the multipliers of the reduced program
    (none is left when every column is pinned); each zero-spread row ``i``
    takes ``max(0, max_j -grad_j / g_ij)`` over the columns it touches, and
    each pinned bound ``j`` the multiplier ``grad_j + sum_i g_ij lam_i`` that
    closes its stationarity.
    """
    reduced = []

    def spy(Q, c, R, r, work=()):
        z, lam, info, rows = real(Q, c, R, r, work)
        reduced.append(lam)
        return z, lam, info, rows

    real = intreg.least_squares._solve_qp
    monkeypatch.setattr(intreg.least_squares, "_solve_qp", spy)
    a, _ = solve_spread_block(design, tau, lam)
    monkeypatch.setattr(intreg.least_squares, "_solve_qp", real)
    qp = spread_qp(design, tau, lam)
    g, w = design.gamma_matrix, design.block_width
    forcing = design.sample.spr_y == 0.0
    pinned = np.any(g[forcing] > 0.0, axis=0)
    multipliers = np.zeros(qp.r.size)
    if pinned.all():
        assert not reduced  # nothing is left to solve
    else:
        (multipliers[np.concatenate([~pinned, ~forcing])],) = reduced
    grad = qp.Q @ a + qp.c - qp.R.T @ multipliers
    ratios = -grad / np.where(g[forcing] > 0.0, g[forcing], np.inf)  # 0 off the columns a row touches
    multipliers[w:][forcing] = np.maximum(0.0, ratios.max(axis=1, initial=0.0))
    multipliers[:w][pinned] = (grad + g[forcing].T @ multipliers[w:][forcing])[pinned]
    assert np.all(multipliers >= 0.0)
    return a, _kkt(qp.Q, qp.c, qp.R, a, multipliers, qp.R @ a - qp.r)


class TestForcingRows:
    """A row of observed spread 0 pins every spread coefficient it touches to
    exactly 0; the spread block is solved on the remaining columns and rows."""

    # the lasso runs (tau 0.5, default CV otherwise) that once raised
    # RayTermination on these samples; seed [s, i] draws
    # bench/workloads.generate(s, i, n, 3, spread_noise=1.0)
    FORMER_RAY_TERMINATIONS = [
        ([77, 2], 60, "full", {}),
        ([77, 2], 60, "full", {"lambda_mid": 0.05}),
        ([77, 2], 60, "full", {"lambda_spr": 0.05}),
        ([0, 6], 300, "model-m", {}),
        ([0, 6], 300, "model-m", {"lambda_mid": 0.05}),
        ([0, 6], 300, "model-m", {"lambda_spr": 0.05}),
        ([0, 13], 300, "full", {}),
        ([0, 13], 300, "full", {"lambda_mid": 0.05}),
    ]

    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_zero_spread_rows_pin_their_columns(self, variant, monkeypatch):
        s = split_model_sample([0, 2], 300, spread_noise=1.0)
        forcing = s.spr_y == 0.0
        # the third regressor has spread 0 and midpoint 0 on the zero-spread
        # rows, so they leave its columns free
        mid_x, spr_x = s.mid_x.copy(), s.spr_x.copy()
        mid_x[forcing, 2] = spr_x[forcing, 2] = 0.0
        d = build_design(IntervalSample(s.mid_y, s.spr_y, mid_x, spr_x), variant)
        pinned = np.any(d.gamma_matrix[forcing] > 0.0, axis=0)
        assert forcing.sum() > 1 and pinned.any() and not pinned.all()
        for res in (fit_ls(d, 0.5), fit_lasso(d, 0.5, lambda_mid=0.05, lambda_spr=0.05)):
            a = res.coefficients.spread_stack(variant)
            assert np.all(a[pinned] == 0.0) and np.any(a[~pinned] > 0.0)
            _, kkt = full_program_certificate(d, 0.5, res.lambda_spr, monkeypatch)
            assert max(kkt.values()) <= 1e-8 * (1 + d.block_width + d.n)

    def test_partial_pinning_matches_the_oracle(self, monkeypatch):
        # row 0 has spread 0, but its second regressor has spread 0 and
        # midpoint 0: the row pins the first regressor's columns alone
        rng = np.random.default_rng(3)
        mid_x = rng.normal(size=(8, 2))
        spr_x = rng.uniform(0.2, 1.2, (8, 2))
        mid_x[0], spr_x[0] = [1.0, 0.0], [0.5, 0.0]
        spr_y = 0.6 * spr_x[:, 1] + 0.3 * np.abs(mid_x[:, 1]) + rng.uniform(-0.1, 0.1, 8)
        spr_y[0] = 0.0
        d = build_design(IntervalSample(mid_x @ [1.0, -0.5], spr_y, mid_x, spr_x), "full")
        a = fit_ls(d, 0.5).coefficients.spread_stack("full")
        assert np.all(a[[0, 2]] == 0.0) and np.all(a[[1, 3]] > 0.0)
        assert np.allclose(a, brute_force_qp(spread_qp(d, 0.5)), atol=1e-9)
        _, kkt = full_program_certificate(d, 0.5, 0.0, monkeypatch)
        assert max(kkt.values()) <= 1e-8 * (1 + d.block_width + d.n)

    @pytest.mark.parametrize("seed, n, variant, penalties", FORMER_RAY_TERMINATIONS)
    def test_former_ray_terminations_fit(self, seed, n, variant, penalties, monkeypatch):
        d = build_design(split_model_sample(seed, n, spread_noise=1.0), variant)
        res = fit_lasso(d, 0.5, **penalties)
        a, kkt = full_program_certificate(d, 0.5, res.lambda_spr, monkeypatch)
        assert np.array_equal(a, res.coefficients.spread_stack(variant))
        assert max(kkt.values()) <= 1e-8 * (1 + d.block_width + d.n)


class TestZeroingPenalty:
    """At and above the zeroing penalty ``lam0 = max(0, max_j g_j)``, ``g =
    F_s' v_s``, the spread fit is exactly 0 with every bound binding, however
    large the penalty: the Lemke path of single fits returns it in closed
    form and the walk reads it off its first segment."""

    @pytest.mark.parametrize("variant", ["full", "model-m"])
    def test_large_penalties_fit_zero(self, variant, monkeypatch):
        # the walk certifies every point it keeps, so a grid with no Lemke
        # solve is certified throughout
        d = build_design(ingest(Path(__file__).resolve().parent / "fixtures" / "synthetic59.csv"), variant)
        lam0 = max(0.0, float(np.max(d.fs.T @ d.vs)))
        penalties = [lam0, 10.0 * lam0, 1e8, 1e15, 1e300]
        bound = 1e-8 * (1 + spread_qp(d, 0.5).num_constraints)
        calls = record_qp_solves(monkeypatch)
        (walked,) = _spr_paths([d], penalties, 0.5)
        assert not walked.any() and calls == []
        for lam in penalties:
            a_s, info = solve_spread_block(d, 0.5, lam)
            assert not a_s.any() and info["lemke_pivots"] == 0.0 and info["ridge_used"] == 0.0
            assert max(info[key] for key in info if key.startswith("kkt_")) <= bound
            res = fit_lasso(d, 0.5, lambda_mid=0.05, lambda_spr=lam)
            assert not res.coefficients.spread_stack(variant).any()
