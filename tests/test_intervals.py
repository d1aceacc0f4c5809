import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intreg import (
    Interval,
    IntervalSample,
    add_scaled,
    aumann_mean,
    dtau,
    dtau_covariance,
    hukuhara_diff,
    validate_tau,
)
from intreg.errors import EmptySample, LengthMismatch, NotHukuharaDecomposable

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
radius = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
taus = st.floats(min_value=1e-6, max_value=1 - 1e-6)


def iv(a, b):
    return Interval.from_endpoints(a, b)


class TestInterval:
    def test_from_endpoints(self):
        a = iv(1, 3)
        assert a.mid == 2.0 and a.spr == 1.0
        assert a.endpoints() == (1.0, 3.0)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            iv(3, 1)

    def test_rejects_negative_spread(self):
        with pytest.raises(ValueError):
            Interval(0.0, -0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Interval(math.inf, 1.0)

    @given(a=finite, b=finite)
    def test_endpoint_roundtrip(self, a, b):
        lo, hi = min(a, b), max(a, b)
        back = iv(lo, hi).endpoints()
        scale = max(1.0, abs(lo), abs(hi))
        assert abs(back[0] - lo) <= 1e-12 * scale
        assert abs(back[1] - hi) <= 1e-12 * scale

    def test_dyadic_roundtrip_exact(self):
        # dyadic endpoints survive the mid/spr conversion bit for bit
        assert iv(-0.75, 2.5).endpoints() == (-0.75, 2.5)


class TestTau:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_outside_open_interval(self, bad):
        with pytest.raises(ValueError):
            validate_tau(bad)

    def test_accepts_interior(self):
        assert validate_tau(0.25) == 0.25


class TestAddScaled:
    def test_plain_sum(self):
        assert add_scaled(iv(1, 3), 1.0, iv(0, 4)) == iv(1, 7)

    def test_zero_scale_is_identity(self):
        assert add_scaled(iv(1, 3), 0.0, iv(0, 4)) == iv(1, 3)

    def test_negative_scale_widens(self):
        assert add_scaled(iv(1, 3), -2.0, iv(0, 4)) == iv(-7, 3)


class TestHukuharaDiff:
    def test_recovers_addend(self):
        assert hukuhara_diff(iv(0, 10), iv(2, 6)) == iv(-2, 4)
        assert add_scaled(iv(2, 6), 1.0, iv(-2, 4)) == iv(0, 10)

    def test_self_difference_is_zero(self):
        a = iv(-3, 5)
        assert hukuhara_diff(a, a) == Interval(0.0, 0.0)

    def test_wider_subtrahend_rejected(self):
        with pytest.raises(NotHukuharaDecomposable):
            hukuhara_diff(iv(0, 2), iv(-3, 3))

    @given(
        bm=finite, bs=radius, cm=finite, cs=radius
    )
    @settings(max_examples=200)
    def test_roundtrip_with_minkowski_sum(self, bm, bs, cm, cs):
        b = Interval(bm, bs)
        c = Interval(cm, cs)
        back = hukuhara_diff(add_scaled(b, 1.0, c), b)
        # the sum-then-subtract error scales with the larger operand
        scale = max(1.0, abs(bm) + abs(cm), bs + cs)
        assert abs(back.mid - c.mid) <= 1e-12 * scale
        assert abs(back.spr - c.spr) <= 1e-12 * scale


class TestDtau:
    def test_identity(self):
        a = iv(-1, 4)
        assert dtau(a, a, 0.3) == 0.0

    def test_mid_only_difference(self):
        assert dtau(iv(0, 2), iv(1, 3), 0.5) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_weighted_combination(self):
        # mid diff 1, spr diff 2, weights 0.75 / 0.25
        assert dtau(iv(0, 0), iv(-1, 3), 0.25) == pytest.approx(math.sqrt(1.75), rel=1e-15)

    @given(
        a=st.tuples(finite, radius), b=st.tuples(finite, radius), c=st.tuples(finite, radius), tau=taus
    )
    @settings(max_examples=300)
    def test_metric_axioms(self, a, b, c, tau):
        A, B, C = Interval(*a), Interval(*b), Interval(*c)
        dab = dtau(A, B, tau)
        dba = dtau(B, A, tau)
        assert dab >= 0.0
        assert dab == dba
        dac = dtau(A, C, tau)
        dbc = dtau(B, C, tau)
        assert dac <= dab + dbc + 1e-12 * max(1.0, dac)


class TestAumannMean:
    def test_componentwise(self):
        assert aumann_mean([iv(0, 2), iv(2, 4)]) == iv(1, 3)

    def test_single_element(self):
        a = iv(-2, 7)
        assert aumann_mean([a]) == a

    def test_three_symmetric(self):
        assert aumann_mean([iv(-1, 1), iv(-3, 3), iv(-2, 2)]) == iv(-2, 2)

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            aumann_mean([])


def classical_cov(a, b):
    # divisor-n sample covariance, written out longhand
    n = len(a)
    am = sum(a) / n
    bm = sum(b) / n
    return sum((x - am) * (y - bm) for x, y in zip(a, b)) / n


class TestDtauCovariance:
    def test_constant_sample_has_zero_variance(self):
        u = [iv(1, 3)] * 4
        assert dtau_covariance(u, u, 0.7) == 0.0

    def test_degenerate_intervals_reduce_to_classical(self):
        mids_u = [0.0, 1.0, 4.0]
        mids_v = [2.0, -1.0, 3.0]
        u = [Interval(m, 0.0) for m in mids_u]
        v = [Interval(m, 0.0) for m in mids_v]
        expected = (1 - 0.3) * classical_cov(mids_u, mids_v)
        assert dtau_covariance(u, v, 0.3) == pytest.approx(expected, rel=1e-14)

    def test_two_element_hand_case(self):
        u = [iv(0, 0), iv(2, 2)]
        v = [iv(0, 2), iv(4, 8)]
        cov_mid = classical_cov([x.mid for x in u], [x.mid for x in v])
        cov_spr = classical_cov([x.spr for x in u], [x.spr for x in v])
        expected = 0.5 * cov_mid + 0.5 * cov_spr
        assert expected == 1.25  # hand expansion: mids cov 2.5, spreads constant
        assert dtau_covariance(u, v, 0.5) == pytest.approx(expected, rel=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            dtau_covariance([iv(0, 1)], [iv(0, 1), iv(1, 2)], 0.5)

    def test_too_few_observations(self):
        with pytest.raises(EmptySample):
            dtau_covariance([iv(0, 1)], [iv(0, 1)], 0.5)

    @given(pairs=st.lists(st.tuples(finite, radius), min_size=2, max_size=12), tau=taus)
    @settings(max_examples=150)
    def test_variance_consistency(self, pairs, tau):
        u = [Interval(m, s) for m, s in pairs]
        mids = np.array([x.mid for x in u])
        sprs = np.array([x.spr for x in u])
        expected = (1 - tau) * np.var(mids) + tau * np.var(sprs)
        got = dtau_covariance(u, u, tau)
        scale = max(1.0, float(np.max(mids**2)), float(np.max(sprs**2)))
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-12 * scale)


class TestIntervalSample:
    def test_from_intervals_roundtrip(self):
        y = [iv(0, 2), iv(1, 5)]
        x = [[iv(0, 1), iv(2, 2)], [iv(-1, 1), iv(0, 4)]]
        s = IntervalSample.from_intervals(y, x)
        assert s.n == 2 and s.k == 2
        assert [Interval(m, r) for m, r in zip(s.mid_y, s.spr_y)] == y
        assert [Interval(m, r) for m, r in zip(s.mid_x[1], s.spr_x[1])] == x[1]

    def test_subset_preserves_rows(self):
        y = [iv(0, 2), iv(1, 5), iv(2, 3)]
        x = [[iv(0, 1)], [iv(-1, 1)], [iv(3, 4)]]
        s = IntervalSample.from_intervals(y, x)
        sub = s.subset([2, 0])
        assert sub.n == 2
        assert [Interval(m, r) for m, r in zip(sub.mid_y, sub.spr_y)] == [y[2], y[0]]

    @pytest.mark.parametrize("rows", [
        lambda: [3, 0, 3],
        lambda: (i for i in [3, 0, 3]),
        lambda: np.array([3, 0, 3]),
        lambda: np.array([3, 0, 3], dtype=np.int32),
        lambda: range(3, -1, -3),
    ], ids=["list", "generator", "index-array", "int32-array", "range"])
    def test_subset_takes_any_iterable_of_rows(self, rows):
        rng = np.random.default_rng(0)
        s = IntervalSample(rng.normal(size=5), rng.uniform(size=5), rng.normal(size=(5, 2)),
                           rng.uniform(size=(5, 2)), ["v", "a", "b"])
        sub = s.subset(rows())
        idx = np.fromiter(rows(), dtype=int)
        for name in ("mid_y", "spr_y", "mid_x", "spr_x"):
            assert np.array_equal(getattr(sub, name), getattr(s, name)[idx])
            assert getattr(sub, name).dtype == float and not getattr(sub, name).flags.writeable
        assert sub.variable_names == s.variable_names
        assert (sub.n, sub.k) == (idx.size, 2)

    @pytest.mark.parametrize("mask", [np.array([True, False, True, False, True]), [True, False, True, False, True]],
                             ids=["array", "list"])
    def test_subset_takes_a_mask_as_a_mask(self, mask):
        rng = np.random.default_rng(0)
        s = IntervalSample(rng.normal(size=5), rng.uniform(size=5), rng.normal(size=(5, 2)),
                           rng.uniform(size=(5, 2)))
        sub, want = s.subset(mask), s.subset([0, 2, 4])
        for name in ("mid_y", "spr_y", "mid_x", "spr_x"):
            assert np.array_equal(getattr(sub, name), getattr(want, name))

    @pytest.mark.parametrize("mask", [np.array([True, False, True]), [True], np.zeros(2, dtype=bool), [False, False]],
                             ids=["long", "short", "none-array", "none-list"])
    def test_subset_rejects_a_mask_of_the_wrong_length_or_no_row(self, mask):
        s = IntervalSample([0.0, 1.0], [1.0, 1.0], [[0.0], [1.0]], [[0.0], [0.5]])
        with pytest.raises(ValueError):
            s.subset(mask)

    @pytest.mark.parametrize("rows", [[], (), iter([]), np.array([], dtype=int), range(0)])
    def test_subset_rejects_an_empty_selection(self, rows):
        s = IntervalSample([0.0, 1.0], [1.0, 1.0], [[0.0], [1.0]], [[0.0], [0.5]])
        with pytest.raises(ValueError):
            s.subset(rows)

    @pytest.mark.parametrize("rows", [[0, 2], np.array([2]), (i for i in [1, -3])])
    def test_subset_rejects_an_out_of_range_row(self, rows):
        s = IntervalSample([0.0, 1.0], [1.0, 1.0], [[0.0], [1.0]], [[0.0], [0.5]])
        with pytest.raises(IndexError):
            s.subset(rows)

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            IntervalSample.from_intervals([iv(0, 1), iv(0, 1)], [[iv(0, 1)], [iv(0, 1), iv(1, 2)]])

    def test_rejects_negative_spread_arrays(self):
        with pytest.raises(ValueError):
            IntervalSample([0.0], [-1.0], [[0.0]], [[0.0]])

    def test_arrays_are_read_only(self):
        s = IntervalSample([0.0, 1.0], [1.0, 1.0], [[0.0], [1.0]], [[1.0], [1.0]])
        with pytest.raises(ValueError):
            s.mid_y[0] = 5.0
