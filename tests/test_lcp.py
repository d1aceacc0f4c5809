from pathlib import Path

import numpy as np
import pytest

import intreg.lasso_ir as lasso_ir
import intreg.lcp as lcp
import intreg.least_squares as least_squares
from intreg import Lcp, Qp, build_design, ingest, lemke_solve, qp_to_lcp, solve_qp
from intreg.errors import InfeasibleQp, PivotLimitExceeded, SingularQ
from intreg.lasso import fit_lasso_spr
from intreg.lcp import RAY_TERMINATION, SOLVED, LcpSolution
from intreg.oracle import brute_force_qp

from conftest import random_feasible_qp, record_lemke_dims, record_qp_solves, split_model_sample


def assert_lcp_invariants(lcp, sol):
    q_scale = 1.0 + np.max(np.abs(lcp.q), initial=0.0)
    assert np.max(np.abs(sol.w - (lcp.M @ sol.z + lcp.q))) <= 1e-9 * q_scale
    assert np.min(sol.z, initial=0.0) >= -1e-9
    assert np.min(sol.w, initial=0.0) >= -1e-9
    assert np.max(np.abs(sol.z * sol.w), initial=0.0) <= 1e-9 * q_scale


class TestQpToLcp:
    def test_identity_algebra(self):
        lcp = qp_to_lcp(Qp(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2)))
        assert np.allclose(lcp.M, np.eye(2), atol=1e-9)
        assert np.allclose(lcp.q, np.zeros(2), atol=1e-9)

    def test_direct_substitution(self):
        lcp = qp_to_lcp(Qp(2.0 * np.eye(2), np.array([-2.0, 0.0]), np.eye(2), np.zeros(2)))
        assert np.allclose(lcp.M, 0.5 * np.eye(2), atol=1e-9)
        assert np.allclose(lcp.q, np.array([1.0, 0.0]), atol=1e-9)

    def test_random_spd_against_independent_solve(self, rng):
        # factor-free check: M x must equal R y where Q y = R' x,
        # and q must equal -R y_c - r where Q y_c = c
        A = rng.normal(size=(3, 3))
        Q = A @ A.T + np.eye(3)
        c = rng.normal(size=3)
        R = rng.normal(size=(4, 3))
        r = rng.normal(size=4)
        lcp = qp_to_lcp(Qp(Q, c, R, r))
        for _ in range(5):
            x = rng.normal(size=4)
            y = np.linalg.solve(Q, R.T @ x)
            assert np.allclose(lcp.M @ x, R @ y, atol=1e-8)
        y_c = np.linalg.solve(Q, c)
        assert np.allclose(lcp.q, -R @ y_c - r, atol=1e-8)

    def test_singular_q_rejected(self):
        with pytest.raises(SingularQ):
            qp_to_lcp(Qp(np.zeros((2, 2)), np.zeros(2), np.eye(2), np.zeros(2)))

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ValueError):
            Qp(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), np.eye(2), np.zeros(2))


class TestLemkeSolve:
    def test_nonnegative_q_is_trivial(self):
        lcp = Lcp(np.eye(3), np.array([0.5, 0.0, 2.0]))
        sol = lemke_solve(lcp)
        assert sol.status == SOLVED
        assert sol.pivots == 0
        assert np.array_equal(sol.z, np.zeros(3))
        assert np.array_equal(sol.w, lcp.q)

    def test_identity_m(self):
        lcp = Lcp(np.eye(2), np.array([-1.0, 2.0]))
        sol = lemke_solve(lcp)
        assert sol.status == SOLVED
        assert np.allclose(sol.z, [1.0, 0.0], atol=1e-12)
        assert np.allclose(sol.w, [0.0, 2.0], atol=1e-12)
        assert_lcp_invariants(lcp, sol)

    def test_random_instances_match_oracle(self, rng):
        for i in range(60):
            qp = random_feasible_qp(rng, m=rng.integers(1, 5), p=rng.integers(1, 7))
            lcp = qp_to_lcp(qp)
            sol = lemke_solve(lcp)
            assert sol.status == SOLVED
            assert_lcp_invariants(lcp, sol)
            z = solve_qp(qp)
            z_oracle = brute_force_qp(qp)
            obj = qp.objective(z)
            obj_oracle = qp.objective(z_oracle)
            assert obj <= obj_oracle + 1e-6 * (1.0 + abs(obj_oracle))
            assert obj >= obj_oracle - 1e-6 * (1.0 + abs(obj_oracle))

    def test_pivot_limit(self):
        lcp = Lcp(np.eye(3), np.array([-1.0, -2.0, -3.0]))
        with pytest.raises(PivotLimitExceeded):
            lemke_solve(lcp, max_pivots=1)

    def test_no_basis_revisits_on_degenerate_instances(self, rng):
        # duplicated constraint rows and tied right-hand sides force ratio
        # ties; the lexicographic rule must never revisit a basis
        for i in range(10):
            m = int(rng.integers(2, 4))
            A = rng.normal(size=(m, m))
            Q = A @ A.T + np.eye(m)
            c = rng.normal(size=m)
            base = rng.normal(size=(2, m))
            R = np.vstack([base, base, np.eye(m)])
            r = np.concatenate([np.zeros(4), -np.ones(m)])
            sol = lemke_solve(qp_to_lcp(Qp(Q, c, R, r)), track_bases=True)
            assert sol.status == SOLVED
            assert len(sol.visited_bases) == len(set(sol.visited_bases))


class TestSolveQp:
    def test_interior_optimum(self):
        z = solve_qp(Qp(np.eye(2), np.array([-1.0, -1.0]), np.eye(2), np.zeros(2)))
        assert np.allclose(z, [1.0, 1.0], atol=1e-10)

    def test_projection_onto_orthant(self):
        z = solve_qp(Qp(np.eye(2), np.array([1.0, 1.0]), np.eye(2), np.zeros(2)))
        assert np.allclose(z, [0.0, 0.0], atol=1e-10)

    def test_random_small_instances_match_oracle(self, rng):
        for i in range(40):
            qp = random_feasible_qp(rng, m=int(rng.integers(1, 5)), p=int(rng.integers(1, 7)))
            z = solve_qp(qp)
            z_oracle = brute_force_qp(qp)
            assert qp.objective(z) == pytest.approx(qp.objective(z_oracle), rel=1e-6, abs=1e-9)
            assert np.min(qp.R @ z - qp.r) >= -1e-8

    def test_infeasible_constraints_detected(self):
        # z >= 1 and -z >= 0 cannot hold together
        qp = Qp(np.eye(1), np.zeros(1), np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
        with pytest.raises(InfeasibleQp):
            solve_qp(qp)

    def test_kkt_stationarity(self, rng):
        from intreg.lcp import _solve_qp_full

        for i in range(20):
            qp = random_feasible_qp(rng, m=3, p=5)
            z, lam, info = _solve_qp_full(qp)
            assert info["kkt_stationarity"] <= 1e-8
            assert info["kkt_feasibility"] <= 1e-8
            assert np.min(lam, initial=0.0) >= -1e-9

    def test_unconstrained(self):
        qp = Qp(np.eye(2), np.array([-3.0, 4.0]), np.zeros((0, 2)), np.zeros(0))
        assert np.allclose(solve_qp(qp), [3.0, -4.0], atol=1e-10)


def full_dimension_solve(qp):
    """Lemke on every row at once, z = Q^{-1}(R' lam - c), then the same
    active-set polish: the solve that the working set replaces."""
    sol = lemke_solve(qp_to_lcp(qp))
    assert sol.status == SOLVED
    L, _ = lcp._ridge_factor(qp.Q)
    lam = sol.z
    z = lcp._chol_solve(L, qp.R.T @ lam - qp.c)
    polished = lcp._polish_active_set(qp, lam)

    def score(z, lam):
        return lcp._kkt_score(lcp._kkt(qp.Q, qp.c, qp.R, z, lam, qp.R @ z - qp.r), lam)

    if polished is not None and score(*polished) <= score(z, lam):
        z, lam = polished
    return z, lam


class TestWorkingSet:
    @pytest.mark.parametrize("n", [200, 2000])
    def test_caller_qps_match_full_dimension_solve(self, n, monkeypatch):
        # the spread block (ls and lasso) and the lasso-ir joint QP at t = 0
        # and t > 0, as their callers build them
        design = build_design(split_model_sample(n, n), "full")
        qps = []
        solve = lcp._solve_qp_full

        def record(qp, **kwargs):
            qps.append(qp)
            return solve(qp, **kwargs)

        monkeypatch.setattr(lcp, "_solve_qp_full", record)
        least_squares.solve_spread_block(design, 0.5)
        fit_lasso_spr(design, 0.05)
        lasso_ir.fit_lasso_ir(design, 0.5, 0.0)
        lasso_ir.fit_lasso_ir(design, 0.5, 0.3)
        monkeypatch.undo()
        assert len(qps) == 4
        dims = record_lemke_dims(monkeypatch)
        for qp in qps:
            dims.clear()
            z, lam, _ = lcp._solve_qp_full(qp)
            assert max(dims) < qp.num_constraints
            z_ref, lam_ref = full_dimension_solve(qp)
            assert np.count_nonzero(lam_ref) > 0
            assert np.array_equal(lam > 0, lam_ref > 0)
            assert np.max(np.abs(z - z_ref)) <= 1e-10 * np.max(np.abs(z_ref))

    def test_carried_rows_need_one_lemke_call(self, monkeypatch):
        # a working set that starts at the optimum's binding rows is solved
        # in one round, to the cold solution
        design = build_design(split_model_sample(5, 300), "full")
        qp = least_squares.spread_qp(design, 0.5, 0.05)
        dims = record_lemke_dims(monkeypatch)
        z, lam, _ = lcp._solve_qp_full(qp)
        assert len(dims) > 1
        dims.clear()
        z_warm, lam_warm, _ = lcp._solve_qp_full(qp, work=np.flatnonzero(lam > 0))
        assert dims == [np.count_nonzero(lam > 0)]
        assert np.array_equal(lam_warm > 0, lam > 0)
        assert np.max(np.abs(z_warm - z)) <= 1e-10 * np.max(np.abs(z))

    def test_feasible_unconstrained_minimizer_skips_carried_rows(self, monkeypatch):
        qp = Qp(np.eye(2), np.array([-1.0, -1.0]), np.eye(2), np.zeros(2))
        dims = record_lemke_dims(monkeypatch)
        z, lam, _ = lcp._solve_qp_full(qp, work=[0, 1])
        assert dims == []
        assert np.array_equal(z, [1.0, 1.0]) and np.array_equal(lam, [0.0, 0.0])

    def test_ray_termination_on_carried_rows_restarts_cold(self, monkeypatch):
        design = build_design(split_model_sample(6, 200), "full")
        qp = least_squares.spread_qp(design, 0.5, 0.05)
        z, lam, info = lcp._solve_qp_full(qp)
        dims = []

        def fail_first(lcp_, max_pivots=None):
            dims.append(lcp_.dim)
            if len(dims) == 1:
                return LcpSolution(np.zeros(lcp_.dim), lcp_.q.copy(), RAY_TERMINATION, 1)
            return lemke_solve(lcp_, max_pivots)

        monkeypatch.setattr(lcp, "lemke_solve", fail_first)
        work = np.flatnonzero(lam > 0)
        z_again, lam_again, info_again = lcp._solve_qp_full(qp, work=work)
        assert dims[0] == work.size and len(dims) > 1
        assert np.array_equal(z_again, z) and np.array_equal(lam_again, lam) and info_again == info

    def test_infeasibility_outside_first_working_set(self, monkeypatch):
        # the two most violated rows at the unconstrained minimizer (0, 0)
        # are consistent; z1 >= 1 and z1 <= 0.5 contradict each other and
        # enter the working set only in later rounds
        R = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]])
        qp = Qp(np.eye(2), np.zeros(2), R, np.array([10.0, 9.0, 1.0, -0.5]))
        dims = record_lemke_dims(monkeypatch)
        with pytest.raises(InfeasibleQp):
            solve_qp(qp)
        assert dims == [2, 3, 4]

    def test_spread_block_scales_to_100k_rows(self, monkeypatch):
        # the full-dimension tableau would hold (n + 6) x (2n + 14) floats,
        # about 160 GB; the working set keeps every Lemke call small
        n = 100_000
        design = build_design(split_model_sample(3, n), "full")
        dims = record_lemke_dims(monkeypatch)
        _, info = least_squares.solve_spread_block(design, 0.5)
        assert dims and max(dims) <= 5 * design.block_width
        for key in ("kkt_stationarity", "kkt_feasibility", "kkt_complementarity"):
            assert info[key] <= 1e-8 * (1 + n)


def affine_family(rng, m=4, p=40):
    """A feasible QP whose linear term and right-hand side both move with
    theta; r only decreases, so every program on theta >= 0 is feasible."""
    qp = random_feasible_qp(rng, m, p)
    dc = rng.normal(size=m)
    dr = -rng.uniform(0.0, 0.3, p)
    return qp, lambda theta: (qp.c + theta * dc, qp.r + theta * dr)


class TestQpPath:
    def test_path_equals_single_solves(self, rng, monkeypatch):
        thetas = np.linspace(0.0, 3.0, 60)
        for _ in range(5):
            qp, terms = affine_family(rng)
            cold = [lcp._solve_qp_full(Qp(qp.Q, c, qp.R, r)) for c, r in map(terms, thetas)]
            calls = record_qp_solves(monkeypatch)
            path = list(lcp._qp_path(qp.Q, qp.R, terms, thetas))
            monkeypatch.undo()
            assert 1 <= len(calls) <= len(thetas) // 4
            for (z, lam, info), (z_cold, lam_cold, _) in zip(path, cold):
                assert np.array_equal(lam > 0, lam_cold > 0)
                assert np.max(np.abs(z - z_cold)) <= 1e-10 * (1.0 + np.max(np.abs(z_cold)))
                assert max(info[k] for k in info if k.startswith("kkt_")) <= 1e-8

    def test_no_point_skips_its_certificate(self, rng, monkeypatch):
        # with every certificate reported as failing, no continuation step
        # is accepted and every grid point is solved by the QP solver
        qp, terms = affine_family(rng)
        thetas = np.linspace(0.0, 3.0, 30)
        kkt = lcp._kkt

        def failing(*args):
            return dict(kkt(*args), kkt_stationarity=1.0)

        monkeypatch.setattr(lcp, "_kkt", failing)
        calls = record_qp_solves(monkeypatch)
        assert len(list(lcp._qp_path(qp.Q, qp.R, terms, thetas))) == len(thetas)
        assert len(calls) == len(thetas)

    def test_step_keeps_the_working_set_feasibility_test(self):
        # min 1/2 |z|^2 - z_1 subject to z_1 <= 1 - 1e-9: on the empty active
        # set the step lands 1e-9 outside the row, which the KKT bound
        # 1e-8 (1 + rows) would let through but the slack test rejects
        Q, c = np.eye(2), np.array([-1.0, 0.0])
        R, r = np.array([[-1.0, 0.0]]), np.array([-(1.0 - 1e-9)])

        def hold(active):
            active = np.array(active, dtype=int)
            return lcp._hold_active_set(Q, c, R, r, active, lcp._kkt_factor(Q, R, active)[1], 0.0)

        assert hold([]) is None
        z, lam, info = hold([0])
        assert z == pytest.approx([1.0 - 1e-9, 0.0], abs=1e-15)
        assert lam == pytest.approx([1e-9], abs=1e-15)
        assert info["lemke_pivots"] == 0.0

    def test_hessian_is_factored_once_per_path(self, rng, monkeypatch):
        qp, terms = affine_family(rng)
        factors = []
        ridge_factor = lcp._ridge_factor
        monkeypatch.setattr(lcp, "_ridge_factor", lambda Q: factors.append(1) or ridge_factor(Q))
        calls = record_qp_solves(monkeypatch)
        list(lcp._qp_path(qp.Q, qp.R, terms, np.linspace(0.0, 3.0, 60)))
        assert len(calls) > 1 and factors == [1]

    def test_kkt_is_factored_once_per_breakpoint(self, rng, monkeypatch):
        # the continuation factors the active set's KKT matrix when the first
        # point after a breakpoint arrives; every other factorization is a
        # breakpoint's polish step
        qp, terms = affine_family(rng)
        factors, polishes = [], []
        kkt_factor, polish = lcp._kkt_factor, lcp._polish_active_set
        monkeypatch.setattr(lcp, "_kkt_factor", lambda *args: factors.append(1) or kkt_factor(*args))
        monkeypatch.setattr(lcp, "_polish_active_set", lambda *args: polishes.append(1) or polish(*args))
        calls = record_qp_solves(monkeypatch)
        breakpoints = []
        for i, _ in enumerate(lcp._qp_path(qp.Q, qp.R, terms, np.linspace(0.0, 3.0, 60))):
            if len(calls) > len(breakpoints):
                breakpoints.append(i)
        assert len(polishes) == len(breakpoints) > 1
        assert len(factors) - len(polishes) == sum(i < 59 for i in breakpoints)
        factors.clear()
        polishes.clear()
        list(lcp._qp_path(qp.Q, qp.R, terms, [1.0]))
        assert factors == polishes == [1]


class TestKktFactor:
    """The factored active-set solve gives ``np.linalg.lstsq``'s minimum-norm
    solution of the KKT equality system."""

    @staticmethod
    def assert_matches_lstsq(Q, c, R, r, active):
        kkt, pinv = lcp._kkt_factor(Q, R, active)
        z, lam = lcp._active_set_solve(pinv, c, r, active)
        want = np.linalg.lstsq(kkt, np.concatenate([-c, r[active]]), rcond=None)[0]
        got = np.concatenate([z, -lam[active]])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.count_nonzero(lam) <= active.size

    def test_random_positive_definite_active_sets(self, rng):
        for _ in range(20):
            qp = random_feasible_qp(rng, 5, 30)
            active = np.sort(rng.choice(30, size=rng.integers(0, 6), replace=False))
            self.assert_matches_lstsq(qp.Q, qp.c, qp.R, qp.r, active)

    def test_duplicated_row(self, rng):
        qp = random_feasible_qp(rng, 4, 10)
        R = np.vstack([qp.R, qp.R[3]])
        r = np.append(qp.r, qp.r[3])
        active = np.array([1, 3, 10])
        assert np.linalg.matrix_rank(lcp._kkt_factor(qp.Q, R, active)[0]) == 4 + 2
        self.assert_matches_lstsq(qp.Q, qp.c, R, r, active)

    @pytest.mark.parametrize("t", [0.05, 0.5])
    def test_singular_joint_hessian(self, t):
        # lasso-ir's Hessian over (midpoints, offset+, offset-) is singular;
        # the active bound rows make the KKT matrix regular, the empty set
        # leaves it singular
        sample = ingest(Path(__file__).resolve().parent / "fixtures" / "synthetic59.csv")
        qp = lasso_ir._joint_qp(build_design(sample, "full"), 0.5, t)
        assert np.linalg.matrix_rank(qp.Q) < qp.num_vars
        _, lam, _ = lcp._solve_qp_full(qp)
        active = lcp._active_rows(lam)[0]
        assert active.size
        for rows in (active, np.array([], dtype=int)):
            self.assert_matches_lstsq(qp.Q, qp.c, qp.R, qp.r, rows)
