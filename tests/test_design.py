import numpy as np
import pytest

from intreg import (
    Coefficients,
    Interval,
    IntervalSample,
    VARIANT_FULL,
    VARIANT_MODEL_M,
    build_design,
)
from intreg.design import predict_arrays, regressor_blocks
from intreg.errors import DegenerateSample, DimensionMismatch

from conftest import random_coefficients, random_sample


def iv(a, b):
    return Interval.from_endpoints(a, b)


class TestBuildDesign:
    def test_k1_blocks(self):
        x = [[iv(0, 2)], [iv(2, 4)]]
        y = [iv(0, 1), iv(1, 2)]
        d = build_design(IntervalSample.from_intervals(y, x), VARIANT_FULL)
        assert np.allclose(d.gamma_matrix[:, 0], [1.0, 1.0])  # spr x
        assert np.allclose(d.gamma_matrix[:, 1], [1.0, 3.0])  # |mid x|
        assert np.allclose(d.fm[:, 0], [-1.0, 1.0])

    def test_degenerate_spreads_zero_out_spread_side(self):
        x = [[Interval(1.0, 0.0)], [Interval(4.0, 0.0)], [Interval(-2.0, 0.0)]]
        y = [Interval(1.0, 0.0), Interval(2.0, 0.0), Interval(0.5, 0.0)]
        d = build_design(IntervalSample.from_intervals(y, x), VARIANT_FULL)
        assert np.all(d.fs[:, 0] == 0.0)  # spread column
        assert np.all(d.vs == 0.0)

    def test_columns_are_centered(self):
        s = random_sample(5)
        for variant in (VARIANT_FULL, VARIANT_MODEL_M):
            d = build_design(s, variant)
            scale = np.max(np.abs(d.fm)) + np.max(np.abs(d.fs)) + 1.0
            assert np.max(np.abs(d.fm.mean(axis=0))) <= 1e-10 * scale
            assert np.max(np.abs(d.fs.mean(axis=0))) <= 1e-10 * scale
            assert abs(d.vm.mean()) <= 1e-10 * scale
            assert abs(d.vs.mean()) <= 1e-10 * scale

    def test_model_m_is_column_restriction(self):
        s = random_sample(6, k=3)
        full = build_design(s, VARIANT_FULL)
        restricted = build_design(s, VARIANT_MODEL_M)
        k = s.k
        assert np.array_equal(restricted.fm, full.fm[:, :k])
        assert np.array_equal(restricted.fs, full.fs[:, :k])
        assert np.array_equal(restricted.gamma_matrix, full.gamma_matrix[:, :k])

    @pytest.mark.parametrize("variant", [VARIANT_FULL, VARIANT_MODEL_M])
    def test_gamma_matrix_is_built_on_first_use_and_kept(self, variant):
        s = random_sample(4, n=9)
        d = build_design(s, variant)
        assert "gamma_matrix" not in vars(d)
        g = d.gamma_matrix
        assert d.gamma_matrix is g and not g.flags.writeable
        assert np.array_equal(g, regressor_blocks(s, variant)[1])
        R, _ = d.spread_constraints()
        assert np.array_equal(R[d.block_width:], -g)

    def test_row_permutation_invariance(self):
        s = random_sample(7, n=15)
        perm = np.random.default_rng(0).permutation(s.n)
        d1 = build_design(s, VARIANT_FULL)
        d2 = build_design(s.subset(perm), VARIANT_FULL)
        assert np.allclose(np.sort(d1.fm, axis=0), np.sort(d2.fm, axis=0))
        assert np.allclose(d1.mean_mid_xebl, d2.mean_mid_xebl)
        assert d1.mean_y.mid == pytest.approx(d2.mean_y.mid, rel=1e-14)
        assert d1.mean_y.spr == pytest.approx(d2.mean_y.spr, rel=1e-14)

    def test_too_few_rows(self):
        s = IntervalSample([1.0], [0.5], [[1.0]], [[0.2]])
        with pytest.raises(DegenerateSample):
            build_design(s, VARIANT_FULL)

    def test_invalid_variant(self):
        s = random_sample(8)
        with pytest.raises(ValueError):
            build_design(s, "bogus")

    def test_spread_constraints_shapes(self):
        s = random_sample(9, n=10, k=2)
        d = build_design(s, VARIANT_FULL)
        R, r = d.spread_constraints()
        assert R.shape == (2 * s.k + s.n, 2 * s.k)
        assert r.shape == (2 * s.k + s.n,)
        # zero is always feasible
        assert np.all(R @ np.zeros(2 * s.k) >= r)


def predict_row(coefs, x):
    """``predict_arrays`` on one row of regressor intervals, as an interval."""
    mid, spr = predict_arrays(coefs, [[a.mid for a in x]], [[a.spr for a in x]])
    return Interval(float(mid[0]), float(spr[0]))


class TestPredict:
    def test_intercept_only(self):
        coefs = Coefficients(
            b1=[0.0], b2=[0.0], b3=[0.0], b4=[0.0], delta=iv(-1, 1)
        )
        assert predict_row(coefs, [iv(5, 9)]) == iv(-1, 1)

    def test_doubling_slope(self):
        coefs = Coefficients(
            b1=[2.0], b2=[2.0], b3=[0.0], b4=[0.0], delta=Interval(0.0, 0.0)
        )
        assert predict_row(coefs, [iv(1, 3)]) == iv(2, 6)

    def test_dimension_mismatch(self):
        coefs = Coefficients(b1=[1.0], b2=[0.0], b3=[0.0], b4=[0.0], delta=Interval(0, 0))
        with pytest.raises(DimensionMismatch):
            predict_row(coefs, [iv(0, 1), iv(0, 1)])

    def test_matches_centered_reconstruction(self):
        # fitted values recovered from the centered system must equal the
        # direct evaluation of the split relations
        rng = np.random.default_rng(42)
        s = random_sample(11, n=20, k=2)
        coefs = random_coefficients(rng, 2, delta=Interval(0.3, 0.2))
        for variant in (VARIANT_FULL, VARIANT_MODEL_M):
            d = build_design(s, variant)
            if variant == VARIANT_MODEL_M:
                use = Coefficients(
                    b1=coefs.b1, b2=coefs.b2, b3=np.zeros(2), b4=np.zeros(2), delta=coefs.delta
                )
            else:
                use = coefs
            a_m = use.mid_stack(variant)
            a_s = use.spread_stack(variant)
            mid_direct, spr_direct = predict_arrays(use, s.mid_x, s.spr_x)
            mid_centered = d.fm @ a_m + float(d.mean_mid_xebl @ a_m) + use.delta.mid
            spr_centered = d.fs @ a_s + float(d.mean_spr_xebl @ a_s) + use.delta.spr
            assert np.allclose(mid_centered, mid_direct, atol=1e-10)
            assert np.allclose(spr_centered, spr_direct, atol=1e-10)

    def test_rowwise_matches_vectorized(self):
        rng = np.random.default_rng(1)
        s = random_sample(13, n=8, k=3)
        coefs = random_coefficients(rng, 3)
        mid, spr = predict_arrays(coefs, s.mid_x, s.spr_x)
        for j in range(s.n):
            mid_j, spr_j = predict_arrays(coefs, s.mid_x[j : j + 1], s.spr_x[j : j + 1])
            assert mid_j[0] == pytest.approx(mid[j], rel=1e-14)
            assert spr_j[0] == pytest.approx(spr[j], rel=1e-14)


class TestCoefficients:
    def test_from_blocks_full(self):
        c = Coefficients.from_blocks(
            np.array([1.0, 2.0, 3.0, 4.0]),
            np.array([0.1, 0.2, 0.3, 0.4]),
            Interval(0, 0),
            VARIANT_FULL,
            2,
        )
        assert np.array_equal(c.b1, [1.0, 2.0])
        assert np.array_equal(c.b4, [3.0, 4.0])
        assert np.array_equal(c.b2, [0.1, 0.2])
        assert np.array_equal(c.b3, [0.3, 0.4])

    def test_from_blocks_model_m_zeroes_cross_terms(self):
        c = Coefficients.from_blocks(
            np.array([1.0, 2.0]), np.array([0.5, 0.0]), Interval(0, 0), VARIANT_MODEL_M, 2
        )
        assert np.all(c.b3 == 0.0) and np.all(c.b4 == 0.0)

    def test_nonneg_check(self):
        with pytest.raises(ValueError):
            Coefficients.from_blocks(
                np.array([1.0]), np.array([-0.5]), Interval(0, 0), VARIANT_MODEL_M, 1
            )

    def test_nonneg_check_can_be_waived(self):
        c = Coefficients.from_blocks(
            np.array([1.0]), np.array([-0.5]), Interval(0, 0), VARIANT_MODEL_M, 1, check_nonneg=False
        )
        assert c.b2[0] == -0.5

    def test_stacks_roundtrip(self):
        rng = np.random.default_rng(3)
        c = random_coefficients(rng, 3)
        a_m = c.mid_stack(VARIANT_FULL)
        a_s = c.spread_stack(VARIANT_FULL)
        c2 = Coefficients.from_blocks(a_m, a_s, c.delta, VARIANT_FULL, 3)
        assert np.array_equal(c2.b1, c.b1) and np.array_equal(c2.b3, c.b3)


class TestRegressorBlocks:
    def test_full_layout(self):
        s = IntervalSample([1.0, 2.0], [0.5, 0.5], [[-1.0], [2.0]], [[0.5], [1.5]])
        mid_side, spr_side = regressor_blocks(s, VARIANT_FULL)
        assert np.array_equal(mid_side, [[-1.0, 0.5], [2.0, 1.5]])
        assert np.array_equal(spr_side, [[0.5, 1.0], [1.5, 2.0]])

    def test_model_m_layout(self):
        s = IntervalSample([1.0, 2.0], [0.5, 0.5], [[-1.0], [2.0]], [[0.5], [1.5]])
        mid_side, spr_side = regressor_blocks(s, VARIANT_MODEL_M)
        assert np.array_equal(mid_side, [[-1.0], [2.0]])
        assert np.array_equal(spr_side, [[0.5], [1.5]])
