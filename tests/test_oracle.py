import csv

import numpy as np
import pytest

from intreg import Coefficients, Interval, Qp, build_design, fit_ls, solve_qp
from intreg.errors import InfeasibleQp

from conftest import random_feasible_qp
from oracle import (InvalidTruth, OracleReport, TooLarge, active_set_optimum, brute_force_qp, simulate,
                    write_reports)


class TestBruteForceQp:
    def test_matches_solver_on_interior_case(self):
        qp = Qp(np.eye(2), np.array([-1.0, -1.0]), np.eye(2), np.zeros(2))
        assert np.allclose(brute_force_qp(qp), [1.0, 1.0], atol=1e-10)

    def test_matches_solver_on_binding_case(self):
        qp = Qp(np.eye(2), np.array([1.0, 1.0]), np.eye(2), np.zeros(2))
        assert np.allclose(brute_force_qp(qp), [0.0, 0.0], atol=1e-10)

    def test_size_caps(self):
        qp = Qp(np.eye(7), np.zeros(7), np.eye(7), np.zeros(7))
        with pytest.raises(TooLarge):
            brute_force_qp(qp)
        qp2 = Qp(np.eye(2), np.zeros(2), np.ones((13, 2)), np.zeros(13))
        with pytest.raises(TooLarge):
            brute_force_qp(qp2)

    def test_infeasible_reported_by_both_paths(self):
        qp = Qp(np.eye(1), np.zeros(1), np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
        with pytest.raises(InfeasibleQp):
            brute_force_qp(qp)
        with pytest.raises(InfeasibleQp):
            solve_qp(qp)

    def test_gap_against_solver_random(self, rng):
        worst = 0.0
        for _ in range(30):
            qp = random_feasible_qp(rng, m=int(rng.integers(1, 4)), p=int(rng.integers(1, 6)))
            obj = qp.objective(solve_qp(qp))
            oracle = qp.objective(brute_force_qp(qp))
            worst = max(worst, abs(obj - oracle) / (1.0 + abs(oracle)))
        assert worst <= 1e-6

    def test_size_limited_search_agrees_with_full_enumeration(self, rng):
        for _ in range(10):
            qp = random_feasible_qp(rng, m=3, p=6)
            full = brute_force_qp(qp)
            limited = active_set_optimum(qp)
            assert qp.objective(limited) == pytest.approx(qp.objective(full), abs=1e-9)


class TestSimulate:
    def test_seed_determinism(self):
        b = Coefficients(b1=[1.0], b2=[0.5], b3=[0.1], b4=[-0.2], delta=Interval(0.1, 0.2))
        s1 = simulate(12, 1, b, noise=0.3, seed=42)
        s2 = simulate(12, 1, b, noise=0.3, seed=42)
        assert np.array_equal(s1.mid_y, s2.mid_y)
        assert np.array_equal(s1.spr_x, s2.spr_x)

    def test_generated_spreads_nonnegative(self):
        b = Coefficients(b1=[1.0, -1.0], b2=[2.0, 0.0], b3=[0.5, 0.1], b4=[0.0, 1.0],
                         delta=Interval(-0.5, 0.7))
        for seed in range(5):
            s = simulate(25, 2, b, noise=0.5, seed=seed)
            assert np.all(s.spr_y >= 0.0)
            assert np.all(s.spr_x >= 0.0)

    def test_noiseless_data_recovered_exactly(self):
        b = Coefficients(b1=[1.2, -0.4], b2=[0.9, 0.2], b3=[0.3, 0.6], b4=[-0.8, 0.5],
                         delta=Interval(0.0, 0.0))
        s = simulate(30, 2, b, noise=0.0, seed=3)
        res = fit_ls(build_design(s, "full"), 0.5)
        c = res.coefficients
        for name in ("b1", "b2", "b3", "b4"):
            assert np.allclose(getattr(c, name), getattr(b, name), atol=1e-6)

    def test_invalid_truth_rejected(self):
        bad = Coefficients(b1=[1.0], b2=[-0.5], b3=[0.0], b4=[0.0], delta=Interval(0, 0))
        with pytest.raises(InvalidTruth):
            simulate(10, 1, bad, noise=0.0, seed=0)

    def test_planted_truth_is_feasible(self):
        b = Coefficients(b1=[1.0], b2=[0.5], b3=[0.2], b4=[0.0], delta=Interval(0.0, 0.1))
        s = simulate(20, 1, b, noise=0.4, seed=12)
        fitted_spread = s.spr_x @ b.b2 + np.abs(s.mid_x) @ b.b3
        assert np.all(fitted_spread <= s.spr_y + 1e-12)


class TestOracleReport:
    def test_csv_roundtrip(self, tmp_path):
        reports = [
            OracleReport("case-1", 1.25, 1.25, 0.0, 0.0),
            OracleReport("case-2", -0.5, -0.5000001, 1e-7, 2e-9),
        ]
        path = tmp_path / "oracle.csv"
        write_reports(reports, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["instance_id"] == "case-1"
        assert float(rows[1]["gap"]) == pytest.approx(1e-7)
