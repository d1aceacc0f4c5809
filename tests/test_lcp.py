import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import intreg
import intreg.lasso as lasso
import intreg.lasso_ir as lasso_ir
import intreg.lcp as lcp
import intreg.least_squares as least_squares
from intreg import Lcp, Qp, build_design, ingest, lemke_solve, qp_to_lcp, solve_qp
from intreg.errors import InfeasibleQp, PivotLimitExceeded, SingularQ
from intreg.lasso import fit_lasso_spr
from intreg.lcp import RAY_TERMINATION, SOLVED, LcpSolution

from conftest import (corrupt_homotopy_segments, lemke_bases, random_feasible_qp, record_lemke_dims,
                      record_qp_solves, split_model_sample, walk_alone)
from oracle import brute_force_qp, kkt_min_norm


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

    def test_ray_is_a_farkas_certificate(self, rng):
        # z >= 1 and -z >= 0 contradict each other: the ray y Lemke escapes
        # on has R'y = 0 and r'y > 0
        R, r = np.array([[1.0], [-1.0]]), np.array([1.0, 0.0])
        sol = lemke_solve(qp_to_lcp(Qp(np.eye(1), np.zeros(1), R, r)))
        assert sol.status == RAY_TERMINATION
        assert np.min(sol.z) >= 0.0 and np.sum(sol.z) > 0.0
        assert np.max(np.abs(R.T @ sol.z)) <= 1e-12 * np.sum(sol.z) and r @ sol.z > 0.0
        # a contradictory pair among random rows
        for _ in range(20):
            m, p = int(rng.integers(1, 5)), int(rng.integers(0, 5))
            A, a, b = rng.normal(size=(m + 2, m)), rng.normal(size=m), rng.normal()
            R = np.vstack([rng.normal(size=(p, m)), a, -a])
            r = np.concatenate([rng.normal(size=p), [b, 0.5 - b]])
            sol = lemke_solve(qp_to_lcp(Qp(A.T @ A + 0.5 * np.eye(m), rng.normal(size=m), R, r)))
            assert sol.status == RAY_TERMINATION
            assert lcp._farkas(R, r, sol.z)

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
            lcp_ = qp_to_lcp(Qp(Q, c, R, r))
            assert lemke_solve(lcp_).status == SOLVED
            bases = lemke_bases(lcp_)
            assert len(bases) == len(set(bases))


    def test_ratio_test_picks_the_row_of_the_whole_lexicographic_sort(self, rng, monkeypatch):
        # the plain minimum ratio decides unless rows tie on it exactly; only
        # then are the tied rows sorted on the whole vector, so the pivot
        # sequence is the one of sorting every eligible row
        ties = []

        def full_sort(T, rows, lex_cols, piv):
            vals = T[np.ix_(rows, lex_cols)]
            if piv is not None:
                vals = vals / piv[:, None]
            ties.append(np.count_nonzero(vals[:, 0] == vals[:, 0].min()) > 1)
            order = np.lexsort(tuple(vals[:, j] for j in range(vals.shape[1] - 1, -1, -1)))
            return int(rows[order[0]])

        lcps = []
        for i in range(10):
            m = int(rng.integers(2, 4))
            A = rng.normal(size=(m, m))
            base = rng.normal(size=(2, m))
            R = np.vstack([base, base, np.eye(m)])
            r = np.concatenate([np.zeros(4), -np.ones(m)])
            lcps.append(qp_to_lcp(Qp(A @ A.T + np.eye(m), rng.normal(size=m), R, r)))
        for i in range(30):
            # small integers tie ratios exactly
            d = int(rng.integers(2, 7))
            A = rng.integers(-2, 3, size=(d, d)).astype(float)
            lcps.append(Lcp(A @ A.T + np.eye(d) * rng.integers(0, 2), -rng.integers(0, 3, size=d).astype(float)))
        for lcp_ in lcps:
            got, got_bases = lemke_solve(lcp_), lemke_bases(lcp_)
            with monkeypatch.context() as patched:
                patched.setattr(lcp, "_lexico_min_row", full_sort)
                want, want_bases = lemke_solve(lcp_), lemke_bases(lcp_)
            assert got.status == want.status and got.pivots == want.pivots
            assert got_bases == want_bases
            assert np.array_equal(got.z, want.z)
        assert sum(ties) >= 20
        for _ in range(200):
            T = rng.integers(-3, 4, size=(6, 9)).astype(float)
            rows = np.flatnonzero(rng.random(6) < 0.7)
            if rows.size == 0:
                continue
            lex_cols = np.concatenate(([8], np.arange(6)))
            for piv in (None, rng.integers(1, 4, size=rows.size).astype(float)):
                assert lcp._lexico_min_row(T, rows, lex_cols, piv) == full_sort(T, rows, lex_cols, piv)


class TestLemkePath:
    def test_reads_every_t_a_cold_run_solves(self, rng):
        # every point of an edge where z0 = t solves LCP(M, q + t 1), on
        # positive semidefinite M and on M that is neither, along which z0
        # can rise; a cold run on (M, q + t 1) takes the run's own pivots up
        # to the first edge that crosses t, so it solves no t the run misses
        rises = 0
        for i in range(300):
            d = int(rng.integers(1, 6))
            A = rng.normal(size=(d, d))
            M, q = A @ A.T if i % 2 == 0 else A, rng.normal(size=d)
            z0s = [float(np.sum(T[basis == 2 * d, -1])) for T, basis in lcp._lemke_pivots(M, q, 50 * d)]
            rises += any(0.0 < z0s[j - 1] < z0s[j] for j in range(1, len(z0s)))
            ts = rng.uniform(0.0, 1.2, size=10) * max(-q.min(), 0.1)
            Z, reached = lcp._lemke_path(Lcp(M, q), ts)
            for t, z, ok in zip(ts, Z, reached):
                lcp_t = Lcp(M, q + t)
                if ok:
                    assert_lcp_invariants(lcp_t, LcpSolution(z, M @ z + lcp_t.q, SOLVED, 0))
                else:
                    assert lemke_solve(lcp_t).status == RAY_TERMINATION
        assert rises >= 20

    def test_pivots_only_while_a_t_is_left(self, monkeypatch):
        # t at or above the first z0 are read at z = 0 without a pivot, as
        # is an empty grid; the run stops at the edge that reaches the last t
        loops = []
        pivots = lcp._lemke_pivots

        def record(M, q, max_pivots):
            loops.append(0)
            for step in pivots(M, q, max_pivots):
                loops[-1] += 1
                yield step

        monkeypatch.setattr(lcp, "_lemke_pivots", record)
        M, q = np.eye(2), np.array([-2.0, -1.0])
        for ts, want in (([], []), ([2.0, 3.0], []), ([1.5], [2]), ([0.5], [3]), ([1.5, 0.5], [3])):
            loops.clear()
            Z, reached = lcp._lemke_path(Lcp(M, q), np.array(ts))
            assert reached.all() and loops == want
            assert np.allclose(Z, np.maximum(-(q + np.array(ts)[:, None]), 0.0), atol=1e-12)

    def test_pivot_limit_propagates(self, monkeypatch):
        pivots = lcp._lemke_pivots
        monkeypatch.setattr(lcp, "_lemke_pivots", lambda M, q, max_pivots: pivots(M, q, 1))
        with pytest.raises(PivotLimitExceeded):
            lcp._lemke_path(Lcp(np.eye(2), np.array([-2.0, -1.0])), np.array([0.5]))


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

    def test_infeasibility_matches_the_oracle(self):
        # every other QP carries a contradictory row pair; with up to 8
        # random rows on at most 4 variables the others are often empty too
        rng = np.random.default_rng(2024)
        verdicts = []
        for i in range(400):
            m = int(rng.integers(1, 5))
            p = int(rng.integers(1, 7 if i % 2 else 9))
            A = rng.normal(size=(m + 2, m))
            R, r = rng.normal(size=(p, m)), rng.normal(size=p)
            if i % 2:
                a, b = rng.normal(size=m), rng.normal()
                R = np.vstack([R, a, -a])
                r = np.concatenate([r, [b, rng.uniform(0.1, 1.0) - b]])
            qp = Qp(A.T @ A + 0.5 * np.eye(m), rng.normal(size=m), R, r)
            try:
                brute_force_qp(qp)
                empty = False
            except InfeasibleQp:
                empty = True
            if empty:
                with pytest.raises(InfeasibleQp):
                    solve_qp(qp)
            else:
                assert np.min(qp.R @ solve_qp(qp) - qp.r) >= -1e-8
            verdicts.append(empty)
        assert 100 <= sum(verdicts) <= 350

    def test_kkt_stationarity(self, rng):
        for i in range(20):
            qp = random_feasible_qp(rng, m=3, p=5)
            z, lam, info = single_solve(qp)
            assert info["kkt_stationarity"] <= 1e-8
            assert info["kkt_feasibility"] <= 1e-8
            assert np.min(lam, initial=0.0) >= -1e-9

    def test_unconstrained(self):
        qp = Qp(np.eye(2), np.array([-3.0, 4.0]), np.zeros((0, 2)), np.zeros(0))
        assert np.allclose(solve_qp(qp), [3.0, -4.0], atol=1e-10)


def single_solve(qp, work=()):
    """Solution, multipliers and diagnostics of one QP: one working-set Lemke
    solve, polished on its active set."""
    return lcp._solve_qp(qp.Q, qp.c, qp.R, qp.r, work)[:3]


def full_dimension_solve(qp):
    """Lemke on every row at once, z = Q^{-1}(R' lam - c), then the same
    acceptance of the polish on its active set, here the full KKT system's
    minimum-norm solution: the solve that the working set replaces."""
    sol = lemke_solve(qp_to_lcp(qp))
    assert sol.status == SOLVED
    L, _ = lcp._ridge_factor(qp.Q)
    lam = sol.z
    z = lcp._chol_solve(L, qp.R.T @ lam - qp.c)
    active, scale = lcp._active_rows(lam)
    z_p, lam_p = kkt_min_norm(qp.Q, qp.R, qp.c, qp.r, active)

    def score(z, lam):
        return lcp._kkt_score(lcp._kkt(qp.Q, qp.c, qp.R, z, lam, qp.R @ z - qp.r), lam)

    if np.min(lam_p) >= -1e-8 * scale and score(z_p, np.maximum(lam_p, 0.0)) <= score(z, lam):
        z, lam = z_p, np.maximum(lam_p, 0.0)
    return z, lam


class TestWorkingSet:
    @pytest.mark.parametrize("n", [200, 2000])
    def test_caller_qps_match_full_dimension_solve(self, n, monkeypatch):
        # the spread block (ls and lasso), the lasso-ir t = 0 program and the
        # joint QP at t > 0, as their callers build them; the fit at t > 0
        # solves the t = 0 program first, whose binding rows start its
        # working set
        design = build_design(split_model_sample(n, n), "full")
        qps = []
        solve = lcp._solve_qp_full

        def record(Q, c, R, r, *args):
            qps.append(Qp(Q, c, R, r))
            return solve(Q, c, R, r, *args)

        monkeypatch.setattr(lcp, "_solve_qp_full", record)
        least_squares.solve_spread_block(design, 0.5)
        fit_lasso_spr(design, 0.05)
        lasso_ir.fit_lasso_ir(design, 0.5, 0.0)
        lasso_ir.fit_lasso_ir(design, 0.5, 0.3)
        monkeypatch.undo()
        assert len(qps) == 5
        zero, again, joint = qps[2:]
        for a, b in zip((zero.Q, zero.c, zero.R, zero.r), (again.Q, again.c, again.R, again.r)):
            assert np.array_equal(a, b)
        assert joint.num_vars == 3 * zero.num_vars and joint.num_constraints == n + 2 * zero.num_vars + 1
        dims = record_lemke_dims(monkeypatch)
        for qp in qps:
            dims.clear()
            z, lam, _ = single_solve(qp)
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
        z, lam, _ = lcp._solve_qp_full(qp.Q, qp.c, qp.R, qp.r)
        assert len(dims) > 1
        dims.clear()
        z_warm, lam_warm, _ = lcp._solve_qp_full(qp.Q, qp.c, qp.R, qp.r, work=np.flatnonzero(lam > 0))
        assert dims == [np.count_nonzero(lam > 0)]
        assert np.array_equal(lam_warm > 0, lam > 0)
        assert np.max(np.abs(z_warm - z)) <= 1e-10 * np.max(np.abs(z))

    def test_feasible_unconstrained_minimizer_skips_carried_rows(self, monkeypatch):
        # the second program's working set starts at the first one's active
        # set, rows 0 and 1, but its unconstrained minimizer is feasible
        dims = record_lemke_dims(monkeypatch)
        _, lam, _, rows = lcp._solve_qp(np.eye(2), np.ones(2), np.eye(2), np.zeros(2))
        assert np.array_equal(lam, [1.0, 1.0]) and rows.tolist() == [0, 1] and dims
        dims.clear()
        z, lam, _ = single_solve(Qp(np.eye(2), -np.ones(2), np.eye(2), np.zeros(2)), rows)
        assert dims == []
        assert np.array_equal(z, [1.0, 1.0]) and np.array_equal(lam, [0.0, 0.0])

    def test_ray_termination_on_carried_rows_restarts_cold(self, monkeypatch):
        design = build_design(split_model_sample(6, 200), "full")
        qp = least_squares.spread_qp(design, 0.5, 0.05)
        z, lam, info = lcp._solve_qp_full(qp.Q, qp.c, qp.R, qp.r)
        dims = []

        def fail_first(lcp_, max_pivots=None):
            dims.append(lcp_.dim)
            if len(dims) == 1:
                return LcpSolution(np.zeros(lcp_.dim), lcp_.q.copy(), RAY_TERMINATION, 1)
            return lemke_solve(lcp_, max_pivots)

        monkeypatch.setattr(lcp, "lemke_solve", fail_first)
        work = np.flatnonzero(lam > 0)
        z_again, lam_again, info_again = lcp._solve_qp_full(qp.Q, qp.c, qp.R, qp.r, work=work)
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


def record_path_events(monkeypatch):
    """Patch the QP solvers to log, in order, each working-set Lemke solve
    (``"lemke"``, with its starting working set) and each reduced KKT
    solve, with its rows (those of the stack's first QP): a walk's segment,
    on the two-program stack ``(c0, dc)`` (``"segment"``), or a one-program
    solve, a single solve's polish or a round of a stacked closure
    (``"polish"``)."""
    events = []
    solve, segment_solve = lcp._solve_qp_full, lcp._segment_solve

    def segment(Q, R, C, RHS, active, unit):
        events.append(("segment" if C.shape[1] == 2 else "polish", np.flatnonzero(active[0])))
        return segment_solve(Q, R, C, RHS, active, unit)

    def lemke(Q, c, R, r, work=()):
        events.append(("lemke", np.asarray(work, dtype=int)))
        return solve(Q, c, R, r, work)

    monkeypatch.setattr(lcp, "_solve_qp_full", lemke)
    monkeypatch.setattr(lcp, "_segment_solve", segment)
    return events


def affine_family(rng, m=4, p=40):
    """A feasible QP whose linear term and right-hand side both move with
    theta, ``(c + theta dc, r + theta dr)``: the QP and ``dc`` and ``dr``; r
    only decreases, so every program on theta >= 0 is feasible."""
    qp = random_feasible_qp(rng, m, p)
    return qp, rng.normal(size=m), -rng.uniform(0.0, 0.3, p)


def at(qp, dc, dr, theta):
    """The program of an affine family at ``theta``."""
    return Qp(qp.Q, qp.c + theta * dc, qp.R, qp.r + theta * dr)


def start_set(qp):
    """The rows of a single solve's active set."""
    return lcp._solve_qp(qp.Q, qp.c, qp.R, qp.r)[3]


def walk_family(qp, dc, dr, thetas, start):
    """The affine family walked down the grid ``thetas`` from its first point,
    where the rows ``start`` bind: the points."""
    return walk_alone(qp.Q, qp.R, qp.r, qp.c, dc, thetas, thetas[0], start, dr)


class TestQpPath:
    """A grid of related QPs, a path, is walked as the homotopy; a point that
    fails its certificate is solved by one working-set Lemke solve,
    polished, and the walk restarts from there.  A single QP is that one
    solve."""

    def test_path_equals_single_solves(self, rng, monkeypatch):
        thetas = np.linspace(3.0, 0.0, 60)
        for _ in range(5):
            qp, dc, dr = affine_family(rng)
            cold = [single_solve(at(qp, dc, dr, theta)) for theta in thetas]
            start = start_set(at(qp, dc, dr, thetas[0]))
            calls = record_qp_solves(monkeypatch)
            Z = walk_family(qp, dc, dr, thetas, start)
            monkeypatch.undo()
            assert len(calls) <= len(thetas) // 4
            # each point is its certified single solve
            for z, (z_cold, _, info) in zip(Z, cold):
                assert np.max(np.abs(z - z_cold)) <= 1e-10 * (1.0 + np.max(np.abs(z_cold)))
                assert max(info[k] for k in info if k.startswith("kkt_")) <= 1e-8

    def test_no_point_skips_its_certificate(self, rng, monkeypatch):
        # with every certificate reported as failing, no walked point is
        # accepted: every grid point is solved by the QP solver, once, and
        # each restarted walk fails at its first point
        qp, dc, dr = affine_family(rng)
        thetas = np.linspace(3.0, 0.0, 30)
        start = start_set(at(qp, dc, dr, thetas[0]))
        kkt = lcp._kkt

        def failing(*args):
            out = kkt(*args)
            return dict(out, kkt_stationarity=out["kkt_stationarity"] * 0.0 + 1.0)

        monkeypatch.setattr(lcp, "_kkt", failing)
        calls = record_qp_solves(monkeypatch)
        assert len(walk_family(qp, dc, dr, thetas, start)) == len(thetas)
        assert len(calls) == len(thetas)

    def test_step_keeps_the_working_set_feasibility_test(self, monkeypatch):
        # min 1/2 |z|^2 - z_1 subject to z_1 <= 1 + 1e-9 (1 - theta), walked
        # down from theta = 0 on its empty active set: the grid point theta
        # = 2, above the start, is read off the first segment 1e-9 outside
        # the row, which the KKT bound 1e-8 (1 + rows) would let through but
        # the slack test rejects.  Lemke solves it, and the walk restarts on
        # the row, which leaves at theta = 1
        Q, c, R = np.eye(2), np.array([-1.0, 0.0]), np.array([[-1.0, 0.0]])
        events = record_path_events(monkeypatch)
        calls = record_qp_solves(monkeypatch)
        Z = walk_alone(Q, R, np.array([-1.0 - 1e-9]), c, np.zeros(2), np.array([2.0, 0.0, 0.0]), 0.0, [],
                       np.array([1e-9]))
        assert [(kind, rows.tolist()) for kind, rows in events] == [
            ("segment", []), ("lemke", []), ("polish", [0]), ("segment", [0])]
        assert Z[0] == pytest.approx([1.0 - 1e-9, 0.0], abs=1e-15)
        for z in Z[1:]:
            assert z == pytest.approx([1.0, 0.0], abs=1e-15)
        # Lemke solves the program of theta = 2 alone
        assert [qp.r.tolist() for qp in calls] == [[-1.0 - 1e-9 + 2.0 * 1e-9]]

    @pytest.mark.parametrize("thetas", [np.linspace(0.0, 3.0, 13), np.linspace(3.0, 0.0, 13)],
                             ids=["row-enters", "row-leaves"])
    def test_one_row_step_replaces_lemke(self, thetas, monkeypatch):
        # min 1/2 |z|^2 - theta z_1 - z_2 / 2 subject to z_1 <= 1 and
        # z_2 <= 2: the first row binds for theta > 1 only, the second never;
        # walking theta up (the walk's parameter is then -theta), the row
        # enters mid-path, walking it down, it leaves, and either time one
        # segment on each set replaces every Lemke solve
        Q, R, r = np.eye(2), -np.eye(2), np.array([-1.0, -2.0])
        cold = [single_solve(Qp(Q, np.array([-theta, -0.5]), R, r))[0] for theta in thetas]
        enters = thetas[0] < thetas[-1]
        sign = -1.0 if enters else 1.0
        start = lcp._solve_qp(Q, np.array([-thetas[0], -0.5]), R, r)[3]
        events = record_path_events(monkeypatch)
        Z = walk_alone(Q, R, r, np.array([0.0, -0.5]), np.array([-sign, 0.0]), sign * thetas, sign * thetas[0], start)
        assert [(kind, rows.tolist()) for kind, rows in events] == (
            [("segment", []), ("segment", [0])] if enters else [("segment", [0]), ("segment", [])])
        for z, z_cold in zip(Z, cold):
            assert z == pytest.approx(z_cold, rel=1e-15, abs=1e-15)

    def test_active_rows_are_judged_by_their_multipliers(self, monkeypatch):
        # at n = 2000, k = 20 a walk leaves many rows of its set with a slack
        # of -1e-12 relative or so, roundoff about zero; were they held to
        # the slack sign test, these walks would hand points to Lemke
        design = build_design(split_model_sample(20, 2000, 20), "full")
        penalties, budgets = lasso.lambda_grid(design, 100, 1e-3, "spr"), lasso_ir.default_budget_grid(design)
        calls = record_qp_solves(monkeypatch)
        (spread,) = least_squares._spr_paths([design], penalties, 0.5)
        assert len(calls) <= 3
        calls.clear()
        ((A_m, A_a),) = lasso_ir._budget_paths([design], 0.5, budgets)
        assert len(calls) <= 8
        monkeypatch.undo()
        # every kept point is still its single fit, which meets the
        # certificate's bound on every row (every tenth penalty, every budget)
        fits = [(a, *least_squares.solve_spread_block(design, 0.5, lam))
                for a, lam in zip(spread[::10], penalties[::10])]
        fits += [(np.concatenate([a_m, a_a]), np.concatenate(cold[:2]), cold[2])
                 for a_m, a_a, t in zip(A_m, A_a, budgets) for cold in [lasso_ir._budget_fit(design, 0.5, t)]]
        bound = 1e-8 * (1 + lasso_ir._joint_qp(design, 0.5, 0.0).num_constraints)
        for got, want, info in fits:
            assert max(info[key] for key in info if key.startswith("kkt_")) <= bound
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want), initial=0.0)

    def test_polish_closes_over_the_rows_it_violates(self):
        # min 1/2 (u - v)^2 - (u - v)/2 over u, v >= 0: at Lemke's
        # ridge-biased iterate (1/2, 0) the row v >= 0 has a multiplier of
        # about 5e-11, below the active-row cutoff, and the minimum-norm
        # polish on the empty set, (1/4, -1/4), violates it; the row joins
        # the set and the polish on it is exact
        Q, c = np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([-0.5, 0.5])
        z, lam, info = single_solve(Qp(Q, c, np.eye(2), np.zeros(2)))
        assert z == pytest.approx([0.5, 0.0], abs=1e-15)
        assert lam == pytest.approx([0.0, 0.0], abs=1e-15)
        assert info["kkt_stationarity"] <= 1e-15 and info["kkt_feasibility"] <= 1e-15

    def test_hessian_is_factored_once_per_path(self, rng, monkeypatch):
        # the walk factors no Hessian: the only Cholesky factorizations of a
        # path are those of the Lemke solves at the points that fail, one each
        qp, dc, dr = affine_family(rng)
        thetas = np.linspace(3.0, 0.0, 60)
        start = start_set(at(qp, dc, dr, thetas[0]))
        factors = []
        ridge_factor = lcp._ridge_factor
        monkeypatch.setattr(lcp, "_ridge_factor", lambda Q: factors.append(1) or ridge_factor(Q))
        calls = record_qp_solves(monkeypatch)
        walk_family(qp, dc, dr, thetas, start)
        assert calls == [] and factors == []
        corrupt_homotopy_segments(monkeypatch, "primal", first=3)
        walk_family(qp, dc, dr, thetas, start)
        assert len(calls) > 1 and len(factors) == len(calls)

    def test_kkt_is_factored_once_per_breakpoint(self, rng, monkeypatch):
        # a single solve polishes its Lemke iterate with one reduced solve on
        # its active set (again only when the polish violates a row outside
        # the set, which no point of this family does).  A walk makes one
        # reduced solve per segment, each on a set one row away from the
        # last, and no other
        qp, dc, dr = affine_family(rng)
        thetas = np.linspace(3.0, 0.0, 60)
        events = record_path_events(monkeypatch)
        start = start_set(at(qp, dc, dr, thetas[0]))
        assert [kind for kind, _ in events] == ["lemke", "polish"]
        events.clear()
        walk_family(qp, dc, dr, thetas, start)
        assert len(events) > 1 and {kind for kind, _ in events} == {"segment"}
        assert np.array_equal(events[0][1], start)
        for (_, before), (_, after) in zip(events, events[1:]):
            assert np.setxor1d(before, after).size == 1

    def test_breakpoint_starts_at_the_last_active_set(self, rng, monkeypatch):
        # the point a walk hands to Lemke starts its working set at the set
        # the walk reached there, the cold solution's at that point; the
        # walk then restarts from the polished solve's set, over the rest of
        # the grid
        qp, dc, dr = affine_family(rng)
        thetas, j = np.linspace(3.0, 0.0, 40), 20
        start = start_set(at(qp, dc, dr, thetas[0]))
        kkt, solve_qp, homotopy = lcp._kkt, lcp._solve_qp, lcp._qp_homotopy
        solves, walks = [], []

        def failing(*args):
            # point j fails the first walk's certificate
            out = kkt(*args)
            if args[3].ndim == 3 and not walks[1:]:
                out["kkt_stationarity"][0, j] = 1.0
            return out

        def solve(*args):
            solves.append((args[4], solve_qp(*args)))
            return solves[-1][1]

        monkeypatch.setattr(lcp, "_kkt", failing)
        monkeypatch.setattr(lcp, "_solve_qp", solve)
        monkeypatch.setattr(lcp, "_qp_homotopy", lambda *args: walks.append(args) or homotopy(*args))
        Z = walk_family(qp, dc, dr, thetas, start)
        monkeypatch.undo()
        ((work, (z, _, _, polished)),) = solves
        assert np.array_equal(work, start_set(at(qp, dc, dr, thetas[j])))
        assert len(walks) == 2
        assert np.array_equal(walks[1][5], thetas[j + 1 :]) and walks[1][6] == [thetas[j]]
        assert np.array_equal(walks[1][7][0], polished)
        for z, theta in zip(Z, thetas):
            z_cold = single_solve(at(qp, dc, dr, theta))[0]
            assert np.max(np.abs(z - z_cold)) <= 1e-10 * (1.0 + np.max(np.abs(z_cold)))

    @pytest.mark.parametrize("path", ["spread", "budget"])
    def test_one_stacked_solve_per_breakpoint(self, path, monkeypatch):
        # a walk makes one reduced solve of the two-program stack (the point
        # at 0 and the direction) per segment, and no Lemke solve; the
        # budget path's t = 0 fit comes first, one one-program solve per
        # round of its stack's closure (two: one row binds), and no Lemke
        # solve
        design = build_design(split_model_sample(1, 100), "full")
        events = record_path_events(monkeypatch)
        if path == "spread":
            grid = lasso.lambda_grid(design, 100, 1e-3, "spr")
            points = least_squares._spr_paths([design], grid, 0.5)[0]
        else:
            grid = lasso_ir.default_budget_grid(design)
            points = lasso_ir._budget_paths([design], 0.5, grid)[0][0]
        assert len(points) == len(grid)
        kinds = [kind for kind, _ in events]
        lead = [] if path == "spread" else ["polish", "polish"]
        assert kinds[: len(lead)] == lead
        walk = kinds[len(lead) :]
        assert 1 <= len(walk) < len(grid) // 2
        assert walk == ["segment"] * len(walk)


def zero_spread_sample():
    """A split-model sample with two rows of spread 0 that pin some spread
    columns and leave the third regressor's free."""
    s = split_model_sample([0, 2], 300, spread_noise=1.0)
    forcing = s.spr_y == 0.0
    mid_x, spr_x = s.mid_x.copy(), s.spr_x.copy()
    mid_x[forcing, 2] = spr_x[forcing, 2] = 0.0
    return intreg.IntervalSample(s.mid_y, s.spr_y, mid_x, spr_x)


def duplicate_column_sample():
    """A split-model sample whose second spread regressor repeats the first:
    the spread Hessian is singular."""
    s = split_model_sample(4, 100)
    spr_x = s.spr_x.copy()
    spr_x[:, 1] = spr_x[:, 0]
    return intreg.IntervalSample(s.mid_y, s.spr_y, s.mid_x, spr_x)


# min 1/2 |z|^2 + (theta - g)'z over z >= 0 and, in the second family, z_2 <= 1,
# walked down from theta0 with every bound binding: in "bounds", both bounds
# leave at theta = 1; in "enter-leave", the bound of z_1 leaves at theta = 1
# as the row z_2 <= 1 enters.  Both grids hold theta = 1.  A tie resolved
# wrong leaves a negative multiplier, which the certificate rejects.
TIES = {
    "bounds": (np.eye(2), np.zeros(2), np.ones(2), np.array([2.0, 1.0, 0.5, 0.0]), 1.0,
               [[0.0, 0.0], [0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]),
    "enter-leave": (np.vstack([np.eye(2), [0.0, -1.0]]), np.array([0.0, 0.0, -1.0]), np.array([1.0, 2.0]),
                    np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.0]), 2.0,
                    [[0.0, 0.0], [0.0, 0.0], [0.0, 0.5], [0.0, 1.0], [0.5, 1.0], [1.0, 1.0]]),
}


class TestQpHomotopy:
    """The spread grid is walked as the exact homotopy of its QP family, down
    from the zeroing penalty, with no Lemke solve where every point certifies."""

    @pytest.mark.parametrize("sample, variant", [
        (lambda: split_model_sample(1, 100), "full"),
        (lambda: split_model_sample(2, 100), "model-m"),
        (lambda: split_model_sample(20, 300, 20), "full"),
        (zero_spread_sample, "full"),
    ], ids=["full", "model-m", "k20", "zero-spread"])
    def test_grid_points_equal_cold_fits(self, sample, variant, monkeypatch):
        design = build_design(sample(), variant)
        grid = np.append(lasso.lambda_grid(design, 100, 1e-3, "spr"), 0.0)
        calls = record_qp_solves(monkeypatch)
        (path,) = least_squares._spr_paths([design], grid, 0.5)
        assert calls == []
        monkeypatch.undo()
        assert np.any(path[-1] > 0.0) and not path[0].any()
        for lam, got in zip(grid, path):
            want = fit_lasso_spr(design, lam, 0.5)
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-10 * np.max(np.abs(want), initial=0.0)

    def test_walk_equals_single_solves(self, rng, monkeypatch):
        # random families with the linear term affine in theta, each walked
        # down from a point whose active set a single solve gives
        thetas = np.linspace(3.0, 0.0, 40)
        for _ in range(5):
            qp, dc = random_feasible_qp(rng, 4, 40), rng.normal(size=4)
            start = single_solve(Qp(qp.Q, qp.c + 3.5 * dc, qp.R, qp.r))[1]
            calls = record_qp_solves(monkeypatch)
            Z = walk_alone(qp.Q, qp.R, qp.r, qp.c, dc, thetas, 3.5, lcp._active_rows(start)[0])
            assert calls == []
            monkeypatch.undo()
            # each point is its certified single solve
            for z, theta in zip(Z, thetas):
                z_cold, _, info = single_solve(Qp(qp.Q, qp.c + theta * dc, qp.R, qp.r))
                assert np.max(np.abs(z - z_cold)) <= 1e-10 * (1.0 + np.max(np.abs(z_cold)))
                assert max(info[key] for key in info if key.startswith("kkt_")) <= 1e-8

    def test_duplicate_spread_column_certifies(self, monkeypatch):
        # with a singular Hessian the split of the weight between the two
        # columns is not unique: the walk and Lemke may split it differently,
        # and both reach the same objective
        design = build_design(duplicate_column_sample(), "full")
        qp = least_squares.spread_qp(design, 0.5)
        assert np.linalg.matrix_rank(qp.Q) < qp.num_vars
        grid = np.append(lasso.lambda_grid(design, 100, 1e-3, "spr"), 0.0)
        # no Lemke solve: the walk certifies every point
        calls = record_qp_solves(monkeypatch)
        (path,) = least_squares._spr_paths([design], grid, 0.5)
        assert calls == []
        monkeypatch.undo()
        for lam, got in zip(grid, path):
            penalized = least_squares.spread_qp(design, 0.5, lam)
            want = penalized.objective(fit_lasso_spr(design, lam, 0.5))
            assert np.all(qp.R @ got - qp.r >= -1e-12 * (1.0 + np.abs(qp.r)))
            assert penalized.objective(got) - want <= 1e-12 * (1.0 + abs(want))

    @pytest.mark.parametrize("tie", TIES)
    def test_two_row_tie_certifies(self, tie, monkeypatch):
        R, r, g, thetas, theta0, z_want = TIES[tie]
        calls = record_qp_solves(monkeypatch)
        Z = walk_alone(np.eye(2), R, r, -g, np.ones(2), thetas, theta0, np.arange(2))
        assert calls == []
        assert Z == pytest.approx(np.array(z_want), abs=1e-15)

    def test_walk_raises_no_floating_point_error(self):
        # the CLI runs under np.errstate(over="raise", invalid="raise"); the
        # ratio tests divide only where a value changes sign, so never by 0.
        # Spread walks and budget walks alike
        designs = [build_design(sample, variant) for sample in (split_model_sample(1, 100), zero_spread_sample(),
                                                                duplicate_column_sample())
                   for variant in ("full", "model-m")]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for design in designs:
                least_squares._spr_paths([design], np.append(lasso.lambda_grid(design, 100, 1e-3, "spr"), 0.0), 0.5)
                lasso.cross_validate(design, 0.5, folds=5, seed=0, blocks=("spr",), count=20)
                lasso_ir._budget_paths([design], 0.5, lasso_ir.default_budget_grid(design))
                lasso_ir.select_budget(design, 0.5)
            for R, r, g, thetas, theta0, _ in TIES.values():
                walk_alone(np.eye(2), R, r, -g, np.ones(2), thetas, theta0, np.arange(2))


    def test_stalled_walk_falls_back_within_a_few_segments(self, monkeypatch):
        # the budget walk of a sample, with a linear-term direction of 1e-300,
        # which moves no program but keeps the release rule from filling the
        # grid once the budget row leaves: the walk goes on into the released
        # fit, a degenerate point where bound multipliers and slacks are
        # roundoff about 0, and can toggle one bound row in and out at one
        # theta (here, until the cap of 4 (1 + rows) = 296 segments).  It must
        # hand the rest of the grid to the Lemke path within a few segments
        design = build_design(split_model_sample(1, 60), "full")
        walks = []
        homotopy = lasso_ir._qp_homotopy
        monkeypatch.setattr(lasso_ir, "_qp_homotopy", lambda *args: walks.append(args) or homotopy(*args))
        lasso_ir._budget_paths([design], 0.5, lasso_ir.default_budget_grid(design))
        (Q,), (R,), (r,), (c,), (dc,), thetas, (theta0,), (start,), (dr,) = walks[0]
        segments = []
        solve = lcp._segment_solve
        monkeypatch.setattr(lcp, "_segment_solve", lambda *args: segments.append(1) or solve(*args))
        Z = walk_alone(Q, R, r, c, dc, thetas, theta0, start, dr)
        released = len(segments)
        segments.clear()
        calls = record_qp_solves(monkeypatch)
        Z_tiny = walk_alone(Q, R, r, c, np.full(c.size, 1e-300), thetas, theta0, start, dr)
        assert len(segments) <= released + 4
        assert len(calls) <= 1
        assert np.max(np.abs(Z_tiny - Z)) <= 1e-10 * np.max(np.abs(Z))
        monkeypatch.undo()
        # each point's midpoint block and net offset are its certified single
        # solve's (the offset's two parts can split differently once the
        # budget no longer binds)
        w = c.size // 3
        for z, theta in zip(Z_tiny, thetas):
            z_cold, _, info = single_solve(Qp(Q, c, R, r + theta * dr))
            assert max(info[key] for key in info if key.startswith("kkt_")) <= 1e-8 * (1 + R.shape[0])
            for got, want in ((z[:w], z_cold[:w]), (z[w : 2 * w] - z[2 * w :], z_cold[w : 2 * w] - z_cold[2 * w :])):
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(z_cold))


def fold_designs(sample, variant="full"):
    """The training designs of the five folds cross-validation makes at seed 0."""
    n = sample.n
    return [build_design(sample.subset(np.setdiff1d(np.arange(n), held)), variant)
            for held in np.array_split(np.random.default_rng(0).permutation(n), 5)]


def recorded_walks(monkeypatch, module, run):
    """The arguments of each call ``run`` makes to ``module``'s homotopy."""
    walks, homotopy = [], module._qp_homotopy
    monkeypatch.setattr(module, "_qp_homotopy", lambda *args: walks.append(args) or homotopy(*args))
    run()
    monkeypatch.undo()
    return walks


def segment_counter(monkeypatch, shifted=None, first=0):
    """Patch ``lcp._segment_solve`` to count the segments of each walked
    program, known by its Hessian (the leading block of a padded one); with
    ``shifted``, a Hessian, shift that program's primal points from its
    ``first`` segment on (counting from 0).  The one-program polish of a
    single solve is no segment.  Returns the count function."""
    stacks, solve = [], lcp._segment_solve

    def made(Q):
        return sum(any(np.array_equal(S[: Q.shape[0], : Q.shape[0]], Q) for S in stack) for stack in stacks)

    def segment(*args):
        z, lam = solve(*args)
        if args[2].shape[1] != 2:
            return z, lam
        stacks.append(args[0].copy())
        if shifted is not None and made(shifted) > first:
            for j, S in enumerate(args[0]):
                if np.array_equal(S[: shifted.shape[0], : shifted.shape[0]], shifted):
                    z[j] += 1e-3 * (1.0 + np.max(np.abs(z[j])))
        return z, lam

    monkeypatch.setattr(lcp, "_segment_solve", segment)
    return made


class TestLockstepWalk:
    """The folds walked in lockstep, padded to one shape, give what each fold
    walked alone (a one-program stack) gives: the same points to 1e-12
    relative, the same zero pattern and the same segments."""

    @staticmethod
    def assert_lockstep_equals_alone(monkeypatch, args, shifted=None):
        """Also the same grid points solved by Lemke; returns how many each
        program has."""
        Q, R, r, c0, dc, thetas, theta0, active, *dr = args
        dr = dr[0] if dr else None

        def programs(calls):
            # a Lemke-solved grid point, known by its linear term and right-hand side
            return [(qp.c.tobytes(), qp.r.tobytes()) for qp in calls]

        made = segment_counter(monkeypatch, shifted, first=2)
        calls = record_qp_solves(monkeypatch)
        together = lcp._qp_homotopy(*args)
        counts = [made(q) for q in Q]
        monkeypatch.undo()
        assert len(together) == len(Q) > 1
        solved = []
        for k, Z in enumerate(together):
            made = segment_counter(monkeypatch, shifted if shifted is Q[k] else None, first=2)
            alone = record_qp_solves(monkeypatch)
            Z_alone = walk_alone(Q[k], R[k], r[k], c0[k], dc[k], thetas, theta0[k], active[k],
                                 None if dr is None else dr[k])
            assert made(Q[k]) == counts[k] > 0, k
            monkeypatch.undo()
            assert Z.shape == Z_alone.shape
            assert np.array_equal(Z == 0.0, Z_alone == 0.0), k
            assert np.max(np.abs(Z - Z_alone)) <= 1e-12 * np.max(np.abs(Z_alone)), k
            solved.append(programs(qp for qp in calls if np.array_equal(qp.Q, Q[k])))
            assert solved[k] == programs(alone), k
        return [len(points) for points in solved]

    @pytest.mark.parametrize("n", [100, 101])
    @pytest.mark.parametrize("path", ["spread", "budget"])
    def test_folds_of_unequal_size(self, n, path, monkeypatch):
        # 101 rows leave one fold's training set a row larger
        designs = fold_designs(split_model_sample(1, n))
        if path == "spread":
            grid = np.append(lasso.lambda_grid(build_design(split_model_sample(1, n), "full"), 100, 1e-3, "spr"), 0.0)
            (args,) = recorded_walks(monkeypatch, least_squares,
                                     lambda: least_squares._spr_paths(designs, grid, 0.5))
        else:
            grid = lasso_ir.default_budget_grid(build_design(split_model_sample(1, n), "full"))
            (args,) = recorded_walks(monkeypatch, lasso_ir, lambda: lasso_ir._budget_paths(designs, 0.5, grid))
        assert len({R.shape[0] for R in args[1]}) == (2 if n == 101 else 1)
        self.assert_lockstep_equals_alone(monkeypatch, args)

    def test_presolve_pads_columns(self, monkeypatch):
        # the four folds that train on the row of spread 0 lose the columns
        # it pins; the fold that holds it out keeps them
        s = split_model_sample(1, 100)
        spr_y, mid_x, spr_x = s.spr_y.copy(), s.mid_x.copy(), s.spr_x.copy()
        spr_y[7] = mid_x[7, 2] = spr_x[7, 2] = 0.0
        sample = intreg.IntervalSample(s.mid_y, spr_y, mid_x, spr_x)
        designs = fold_designs(sample)
        grid = np.append(lasso.lambda_grid(build_design(sample, "full"), 100, 1e-3, "spr"), 0.0)
        (args,) = recorded_walks(monkeypatch, least_squares, lambda: least_squares._spr_paths(designs, grid, 0.5))
        assert len({Q.shape[0] for Q in args[0]}) > 1
        self.assert_lockstep_equals_alone(monkeypatch, args)

    def test_singular_reduced_system(self, monkeypatch):
        # a repeated spread column: the free columns' Hessian is singular, and
        # each fold takes the pseudo-inverse of its own system where it would
        # alone, while the others keep the inverse
        designs = fold_designs(duplicate_column_sample())
        grid = np.append(lasso.lambda_grid(build_design(duplicate_column_sample(), "full"), 100, 1e-3, "spr"), 0.0)
        (args,) = recorded_walks(monkeypatch, least_squares, lambda: least_squares._spr_paths(designs, grid, 0.5))
        Q, R, r, c0, dc, thetas, theta0, active = args
        pinvs, pinv = [], lcp._pinv
        monkeypatch.setattr(lcp, "_pinv", lambda kkt: pinvs.append(kkt.shape) or pinv(kkt))
        lcp._qp_homotopy(*args)
        together, pinvs[:] = sorted(pinvs), []
        for k in range(len(Q)):
            walk_alone(Q[k], R[k], r[k], c0[k], dc[k], thetas, theta0[k], active[k])
        assert together and together == sorted(pinvs)
        monkeypatch.undo()
        self.assert_lockstep_equals_alone(monkeypatch, args)

    @pytest.mark.parametrize("path", ["spread", "budget"])
    def test_one_fold_falls_back_alone(self, path, monkeypatch):
        # the third fold's segments propose wrong points from its third one
        # on: it falls back to the Lemke path, the other folds walk on
        designs = fold_designs(split_model_sample(2, 100))
        d = build_design(split_model_sample(2, 100), "full")
        if path == "spread":
            grid = np.append(lasso.lambda_grid(d, 100, 1e-3, "spr"), 0.0)
            (args,) = recorded_walks(monkeypatch, least_squares, lambda: least_squares._spr_paths(designs, grid, 0.5))
        else:
            grid = lasso_ir.default_budget_grid(d)
            (args,) = recorded_walks(monkeypatch, lasso_ir, lambda: lasso_ir._budget_paths(designs, 0.5, grid))
        solved = self.assert_lockstep_equals_alone(monkeypatch, args, shifted=args[0][2])
        assert [count > 0 for count in solved] == [False, False, True, False, False]

    def test_one_corrupted_fold_segment_restarts_its_walk(self, monkeypatch):
        # one fold-segment of a lockstep spread walk proposes a wrong point:
        # that fold solves the first point that fails by Lemke and walks on
        # from there, so it makes fewer Lemke solves than it has grid points
        # left; every point of every fold is still its cold single fit
        sample = split_model_sample(2, 100)
        designs = fold_designs(sample)
        grid = np.append(lasso.lambda_grid(build_design(sample, "full"), 100, 1e-3, "spr"), 0.0)
        corrupt_homotopy_segments(monkeypatch, "primal", first=7, stop=8)
        calls = record_qp_solves(monkeypatch)
        paths = least_squares._spr_paths(designs, grid, 0.5)
        monkeypatch.undo()
        programs = [least_squares._spread_program(design, 0.5) for design in designs]
        hit = [[k for k, (_, Q, _, _, g) in enumerate(programs) if np.array_equal(qp.Q, Q)] for qp in calls]
        assert calls and all(len(k) == 1 for k in hit) and len({k[0] for k in hit}) == 1
        # the penalty of each solve, from its linear term 2 tau (lam - g)
        g = programs[hit[0][0]][4]
        first = min(int(np.argmin(np.abs(grid - (qp.c[0] + g[0])))) for qp in calls)
        assert len(calls) < len(grid) - first
        for design, A in zip(designs, paths):
            for lam, a in zip(grid, A):
                want = least_squares.solve_spread_block(design, 0.5, lam)[0]
                assert np.max(np.abs(a - want)) <= 1e-9 * np.max(np.abs(want), initial=0.0)

    def test_budget_fold_with_no_negative_gradient(self, monkeypatch):
        # constant spreads leave no offset gradient negative: that design is
        # not walked, and its neighbours in the stack walk as they would alone
        rng = np.random.default_rng(3)
        mid_x = rng.normal(size=(40, 1))
        flat = build_design(intreg.IntervalSample(2.0 * mid_x[:, 0] + rng.normal(0.0, 0.1, 40), np.ones(40), mid_x,
                                                  np.full((40, 1), 0.5)), "model-m")
        designs = [flat, *fold_designs(split_model_sample(1, 60), "model-m")[:2]]
        grid = lasso_ir.default_budget_grid(designs[1])
        walks = recorded_walks(monkeypatch, lasso_ir, lambda: lasso_ir._budget_paths(designs, 0.5, grid))
        assert [len(args[0]) for args in walks] == [2]
        self.assert_lockstep_equals_alone(monkeypatch, walks[0])
        together, alone = record_qp_solves(monkeypatch), []
        pairs = lasso_ir._budget_paths(designs, 0.5, grid)
        monkeypatch.undo()
        for design, pair in zip(designs, pairs):
            calls = record_qp_solves(monkeypatch)
            (fit,) = lasso_ir._budget_paths([design], 0.5, grid)
            monkeypatch.undo()
            alone += calls
            for got, want in zip(pair, fit):
                assert np.array_equal(got == 0.0, want == 0.0)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want), initial=0.0)
        # the same programs solved by Lemke, together as alone
        assert sorted((qp.Q.tobytes(), qp.c.tobytes(), qp.r.tobytes()) for qp in together) == sorted(
            (qp.Q.tobytes(), qp.c.tobytes(), qp.r.tobytes()) for qp in alone)

    @pytest.mark.parametrize("path", ["qp", "spread", "budget"])
    def test_shuffled_grid_gives_its_rows_in_its_order(self, path, monkeypatch):
        # the walk sorts the grid itself: on a shuffled grid, every fold's
        # stacks are the walk-ordered grid's rows, reordered, bit for bit
        sample = split_model_sample(1, 100)
        designs, d = fold_designs(sample), build_design(sample, "full")
        if path == "budget":
            grid = np.array(lasso_ir.default_budget_grid(d))
            run = lambda grid: [np.hstack(pair) for pair in lasso_ir._budget_paths(designs, 0.5, grid)]
        else:
            grid = np.append(lasso.lambda_grid(d, 100, 1e-3, "spr"), 0.0)
            run = lambda grid: least_squares._spr_paths(designs, grid, 0.5)
        if path == "qp":
            (args,) = recorded_walks(monkeypatch, least_squares, lambda: run(grid))
            run = lambda grid: lcp._qp_homotopy(*args[:5], grid, *args[6:])
        shuffle = np.random.default_rng(0).permutation(grid.size)
        walked, shuffled = run(grid), run(grid[shuffle])
        assert len(walked) == len(shuffled) == len(designs)
        for A, A_shuffled in zip(walked, shuffled):
            assert A_shuffled.tobytes() == A[shuffle].tobytes()


class TestSolveQpStack:
    """Programs with no known active set, solved as one stack: from the
    unconstrained minimizer, each adds the row it violates most until none
    is, and a program whose point fails the certificate is solved by Lemke
    alone, from the set its closure reached."""

    @staticmethod
    def solve_stack(qps):
        return lcp._solve_qp_stack([qp.Q for qp in qps], [qp.c for qp in qps], [qp.R for qp in qps],
                                   [qp.r for qp in qps])

    def test_random_programs_of_unequal_shape(self, rng, monkeypatch):
        # every point is its program's single solve and oracle optimum, and
        # Lemke solves exactly the programs whose stacked point the
        # certificate rejects
        certified, verdicts, fallbacks = lcp._certified, [], 0
        for _ in range(10):
            qps = [random_feasible_qp(rng, int(rng.integers(1, 6)), int(rng.integers(1, 11))) for _ in range(6)]
            monkeypatch.setattr(lcp, "_certified", lambda *args: verdicts.append(certified(*args)) or verdicts[-1])
            calls = record_qp_solves(monkeypatch)
            points = self.solve_stack(qps)
            monkeypatch.undo()
            rejected = [qp.Q.tobytes() for qp, ok in zip(qps, verdicts[-1][:, 0]) if not ok]
            assert [qp.Q.tobytes() for qp in calls] == rejected
            fallbacks += len(rejected)
            for qp, (z, lam) in zip(qps, points):
                assert z.shape == (qp.num_vars,) and lam.shape == (qp.num_constraints,)
                for want in (single_solve(qp)[0], brute_force_qp(qp)):
                    assert np.max(np.abs(z - want)) <= 1e-10 * (1.0 + np.max(np.abs(want)))
        assert 0 < fallbacks < 30

    def test_negative_multiplier_falls_back_to_lemke(self, monkeypatch):
        # min 1/2 |z - (0, -3)|^2 subject to 10 z_1 + 10 z_2 >= -20 and z_2
        # >= 0: the first row is the more violated at the unconstrained
        # minimizer (slack -10 against -3), the projection on it, (1/2,
        # -5/2), violates the second, and on both rows the vertex (-2, 0)
        # has the multiplier -0.2 on the first.  The certificate rejects it,
        # and Lemke, started at both rows, gives the fit on the second alone
        Q, c = np.eye(2), np.array([0.0, 3.0])
        R, r = np.array([[10.0, 10.0], [0.0, 1.0]]), np.array([-20.0, 0.0])
        events = record_path_events(monkeypatch)
        ((z, lam),) = lcp._solve_qp_stack([Q], [c], [R], [r])
        assert [(kind, rows.tolist()) for kind, rows in events] == [
            ("polish", []), ("polish", [0]), ("polish", [0, 1]), ("lemke", [0, 1]), ("polish", [1])]
        monkeypatch.undo()
        z_cold, lam_cold, _ = single_solve(Qp(Q, c, R, r))
        assert np.array_equal(z, z_cold) and np.array_equal(lam, lam_cold)
        assert z == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_empty_program_raises(self):
        # z >= 1 and -z >= 0 cannot hold together; the feasible program
        # beside it does not hide that
        empty = Qp(np.eye(1), np.zeros(1), np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
        with pytest.raises(InfeasibleQp):
            self.solve_stack([Qp(np.eye(2), np.ones(2), np.eye(2), np.zeros(2)), empty])

    def test_singular_hessian(self, monkeypatch):
        # constant regressor and response spreads leave the offsets of the
        # joint program out of the objective, so its Hessian is singular; it
        # fits beside the t = 0 program, of another width, each program as
        # its single solve would, with no Lemke solve
        rng = np.random.default_rng(3)
        mid_x = rng.normal(size=(40, 1))
        flat = build_design(intreg.IntervalSample(2.0 * mid_x[:, 0] + rng.normal(0.0, 0.1, 40), np.ones(40), mid_x,
                                                  np.full((40, 1), 0.5)), "model-m")
        qps = [lasso_ir._joint_qp(flat, 0.5, 0.5), Qp(*lasso_ir._zero_budget(flat, 0.5)[1])]
        assert np.linalg.matrix_rank(qps[0].Q) < qps[0].num_vars != qps[1].num_vars
        calls = record_qp_solves(monkeypatch)
        points = self.solve_stack(qps)
        assert calls == []
        monkeypatch.undo()
        for qp, (z, _) in zip(qps, points):
            want = single_solve(qp)[0]
            assert np.max(np.abs(z - want)) <= 1e-10 * (1.0 + np.max(np.abs(want)))

    def test_certificate_bounds_the_slack_of_rows_in_the_set(self, monkeypatch):
        # min 1/2 |z|^2 - 2 z_1 subject to z_1 <= 1 and z_2 >= -5, with every
        # one-program solve made to ignore its set: the closure adds the
        # first row and ends on the unconstrained minimizer (2, 0), whose
        # one violated row is in the set with multiplier 0.  Multiplier
        # signs, stationarity, complementarity and the slack test of the
        # rows outside the set all pass; only the bound on the slack of
        # every row rejects it (the walks share this certificate), and
        # Lemke gives the fit
        solve = lcp._segment_solve
        monkeypatch.setattr(lcp, "_segment_solve",
                            lambda Q, R, C, RHS, active, unit: solve(Q, R, C, RHS, np.zeros_like(active), unit))
        calls = record_qp_solves(monkeypatch)
        R, r = np.array([[-1.0, 0.0], [0.0, 1.0]]), np.array([-1.0, -5.0])
        ((z, _),) = lcp._solve_qp_stack([np.eye(2)], [np.array([-2.0, 0.0])], [R], [r])
        assert len(calls) == 1
        assert z == pytest.approx([1.0, 0.0], abs=1e-8)


class TestStackedHelpers:
    """A stack of programs, one per row, gives the one-program results row by
    row, and the same certificate decisions."""

    @staticmethod
    def accepted(R, r, lam, slack, kkt):
        # the three tests of a walk's certificate
        bound = 1e-8 * (1.0 + R.shape[0])
        return bool(np.all(slack >= -1e-12 * (1.0 + np.abs(r))) and np.all(lam >= 0.0)
                    and all(value <= bound for value in kkt.values()))

    def test_stack_equals_rows(self, rng):
        thetas = np.linspace(0.0, 3.0, 60)
        decisions = []
        for _ in range(5):
            qp, dc, dr = affine_family(rng)
            C, RHS = qp.c + thetas[:, None] * dc, qp.r + thetas[:, None] * dr
            for theta in (0.0, 1.5, 3.0):
                # the active set of a single solve at theta
                active = start_set(at(qp, dc, dr, theta))
                Z, LAM = segment_solve(qp.Q, qp.R, C, RHS, active)
                SLACK = (qp.R @ Z.T).T - RHS
                KKT = lcp._kkt(qp.Q, C, qp.R, Z, LAM, SLACK)
                for i, (c, r) in enumerate(zip(C, RHS)):
                    z, lam = (x[0] for x in segment_solve(qp.Q, qp.R, c[None], r[None], active))
                    scale = 1e-13 * (1.0 + np.max(np.abs(z)) + np.max(np.abs(lam), initial=0.0))
                    assert np.max(np.abs(Z[i] - z)) <= scale
                    assert np.max(np.abs(LAM[i] - lam)) <= scale
                    assert np.array_equal(LAM[i] == 0.0, lam == 0.0)
                    slack = qp.R @ z - r
                    kkt = lcp._kkt(qp.Q, c, qp.R, z, lam, slack)
                    # the residuals of the stacked point itself, one at a time
                    row = lcp._kkt(qp.Q, c, qp.R, Z[i], LAM[i], SLACK[i])
                    terms_scale = 1.0 + max(np.max(np.abs(v)) for v in (qp.Q @ Z[i], c, qp.R.T @ LAM[i]))
                    for key, value in row.items():
                        assert isinstance(value, float)
                        assert abs(KKT[key][i] - value) <= 1e-14 * terms_scale
                    decision = self.accepted(qp.R, r, lam, slack, kkt)
                    assert self.accepted(qp.R, r, LAM[i], SLACK[i], {k: v[i] for k, v in KKT.items()}) == decision
                    decisions.append(decision)
        # both decisions occur
        assert 0 < sum(decisions) < len(decisions)


def kkt_matrix(Q, A):
    """The KKT equality matrix ``[[Q, A'], [A, 0]]``."""
    return np.block([[Q, A.T], [A, np.zeros((A.shape[0], A.shape[0]))]])


class TestKktFactor:
    """A single solve's polish, the reduced solve of one program, gives
    ``np.linalg.lstsq``'s minimum-norm solution of the KKT equality system
    when no two rows of the set fix one variable."""

    @staticmethod
    def assert_matches_lstsq(Q, c, R, r, active):
        z, lam = (x[0] for x in segment_solve(Q, R, c[None], r[None], active))
        want = np.linalg.lstsq(kkt_matrix(Q, R[active]), np.concatenate([-c, r[active]]), rcond=None)[0]
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
        assert np.linalg.matrix_rank(kkt_matrix(qp.Q, R[active])) == 4 + 2
        self.assert_matches_lstsq(qp.Q, qp.c, R, r, active)

    @pytest.mark.parametrize("t", [0.05, 0.5])
    def test_singular_joint_hessian(self, t):
        # lasso-ir's Hessian over (midpoints, offset+, offset-) is singular;
        # the active bound rows make the KKT matrix regular, the empty set
        # leaves it singular
        sample = ingest(Path(__file__).resolve().parent / "fixtures" / "synthetic59.csv")
        qp = lasso_ir._joint_qp(build_design(sample, "full"), 0.5, t)
        assert np.linalg.matrix_rank(qp.Q) < qp.num_vars
        _, lam, _ = lcp._solve_qp_full(qp.Q, qp.c, qp.R, qp.r)
        active = lcp._active_rows(lam)[0]
        assert active.size
        for rows in (active, np.array([], dtype=int)):
            self.assert_matches_lstsq(qp.Q, qp.c, qp.R, qp.r, rows)


class TestNumpyOnly:
    def test_import_loads_no_scipy(self):
        # numpy is the one runtime dependency
        code = ("import sys, intreg, intreg.cli; "
                "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'")
        src = str(Path(intreg.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


def segment_solve(Q, R, C, RHS, active):
    """``lcp._segment_solve`` on the one-QP stack, given the rows ``active``
    as indices: the QP's points and multipliers."""
    mask = np.zeros(R.shape[0], dtype=bool)
    mask[active] = True
    z, lam = lcp._segment_solve(Q[None], R[None], C[None], RHS[None], mask[None], lcp._unit_rows(R)[None])
    return z[0], lam[0]


class TestSegmentSolve:
    """The reduced solve, in which binding unit rows fix their variables,
    gives the full KKT system's minimum-norm solutions
    (:func:`oracle.kkt_min_norm`), for a stack of programs."""

    @staticmethod
    def assert_matches_full(Q, R, C, RHS, active):
        # to 1e-10 of the solution's scale, or, on an ill-conditioned
        # regular system, to what its condition number allows
        z, lam = segment_solve(Q, R, C, RHS, active)
        z_full, lam_full = kkt_min_norm(Q, R, C, RHS, active)
        sv = np.linalg.svd(kkt_matrix(Q, R[active]), compute_uv=False)
        regular = sv[-1] > 1e-14 * sv[0] * sv.size
        scale = (1.0 + np.max(np.abs(z_full)) + np.max(np.abs(lam_full), initial=0.0)) * max(
            1e-10, 1e-14 * sv[0] / sv[-1] if regular else 0.0)
        assert np.max(np.abs(z - z_full)) <= scale
        assert np.max(np.abs(lam - lam_full), initial=0.0) <= scale
        off = np.setdiff1d(np.arange(R.shape[0]), active)
        assert not lam[:, off].any()

    @staticmethod
    def bounded(rng, qp, p_unit):
        """The QP's rows below ``p_unit`` unit rows (``z_j >= r``) on random
        variables, with a stack of two programs."""
        m = qp.num_vars
        unit = np.eye(m)[rng.choice(m, size=p_unit, replace=False)]
        R = np.vstack([unit, qp.R])
        C = np.stack([qp.c, rng.normal(size=m)])
        RHS = np.stack([np.concatenate([rng.normal(size=p_unit), qp.r]), rng.normal(size=R.shape[0])])
        return R, C, RHS

    def test_unit_rows(self):
        R = np.array([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0]])
        assert lcp._unit_rows(R).tolist() == [1, -1, -1, -1, -1, 2]

    def test_random_sets(self, rng):
        for _ in range(30):
            qp = random_feasible_qp(rng, 6, 12)
            R, C, RHS = self.bounded(rng, qp, int(rng.integers(0, 7)))
            active = np.sort(rng.choice(R.shape[0], size=int(rng.integers(0, 7)), replace=False))
            self.assert_matches_full(qp.Q, R, C, RHS, active)

    def test_every_variable_fixed(self, rng):
        qp = random_feasible_qp(rng, 4, 6)
        R, C, RHS = self.bounded(rng, qp, 4)
        self.assert_matches_full(qp.Q, R, C, RHS, np.arange(4))

    def test_singular_hessian(self, rng):
        # a repeated column leaves Q singular along a direction of the free
        # variables; both solves take the minimum-norm point along it
        B = rng.normal(size=(8, 5))
        B[:, 3] = B[:, 1]
        Q = B.T @ B
        assert np.linalg.matrix_rank(Q) < 5
        qp = random_feasible_qp(rng, 5, 6)
        R, C, RHS = self.bounded(rng, qp, 0)
        R = np.vstack([np.eye(5)[[0, 4]], R])
        RHS = np.hstack([rng.normal(size=(2, 2)), RHS])
        for active in ([], [0], [0, 1], [0, 1, 4], [2, 3]):
            self.assert_matches_full(Q, R, C, RHS, np.array(active, dtype=int))

    def test_dependent_rows(self, rng):
        # a repeated general row: both solves split its multiplier evenly
        qp = random_feasible_qp(rng, 4, 5)
        R, C, RHS = self.bounded(rng, qp, 2)
        R, RHS = np.vstack([R, R[3]]), np.hstack([RHS, RHS[:, [3]]])
        for active in ([3, 7], [0, 3, 7], [0, 1, 3, 4, 7]):
            self.assert_matches_full(qp.Q, R, C, RHS, np.array(active))

    def test_general_row_on_a_fixed_variable(self, rng):
        # a general row that is twice a unit row of the set binds nothing the
        # unit row does not: the reduced solve leaves its multiplier 0 and
        # the unit row takes the whole gradient, one of the multiplier
        # vectors the full system admits (its minimum-norm solution splits
        # them)
        qp = random_feasible_qp(rng, 4, 5)
        R, C, RHS = self.bounded(rng, qp, 2)
        R, RHS = np.vstack([R, 2.0 * R[0]]), np.hstack([RHS, 2.0 * RHS[:, [0]]])
        active = np.array([0, 3, 7])
        z, lam = segment_solve(qp.Q, R, C, RHS, active)
        z_full, lam_full = kkt_min_norm(qp.Q, R, C, RHS, active)
        assert np.max(np.abs(z - z_full)) <= 1e-12 * np.max(np.abs(z_full))
        assert not lam[:, 7].any() and np.all(lam_full[:, 7] != 0.0)
        for got in (lam, lam_full):
            assert np.max(np.abs(z @ qp.Q + C - got @ R)) <= 1e-12 * (1.0 + np.max(np.abs(got)))

    def test_two_unit_rows_on_one_variable(self, rng):
        # the full system decides how the two multipliers share the load
        qp = random_feasible_qp(rng, 4, 5)
        R, C, RHS = self.bounded(rng, qp, 2)
        R, RHS = np.vstack([R, R[0]]), np.hstack([RHS, RHS[:, [0]]])
        self.assert_matches_full(qp.Q, R, C, RHS, np.array([0, 1, 2, 7]))

    def test_no_rows(self, rng):
        # a program with no rows at all, as an unconstrained single solve
        # polishes: the stationary point, with no multiplier
        qp = random_feasible_qp(rng, 4, 5)
        C = np.stack([qp.c, rng.normal(size=4)])
        z, lam = segment_solve(qp.Q, np.zeros((0, 4)), C, np.zeros((2, 0)), np.array([], dtype=int))
        assert lam.shape == (2, 0)
        assert np.max(np.abs(z - np.linalg.solve(qp.Q, -C.T).T)) <= 1e-12 * np.max(np.abs(z))

    @pytest.mark.parametrize("t", [0.05, 0.5])
    def test_singular_joint_hessian(self, t):
        # lasso-ir's Hessian over (midpoints, offset+, offset-), on the active
        # set of its Lemke solve and on a budget walk's start set
        sample = ingest(Path(__file__).resolve().parent / "fixtures" / "synthetic59.csv")
        design = build_design(sample, "full")
        qp = lasso_ir._joint_qp(design, 0.5, t)
        w, n, p = design.block_width, design.n, qp.num_constraints
        _, lam, _ = lcp._solve_qp_full(qp.Q, qp.c, qp.R, qp.r)
        C, RHS = np.stack([qp.c, np.zeros(3 * w)]), np.stack([qp.r, np.eye(p)[-1]])
        for active in (lcp._active_rows(lam)[0], np.concatenate([n + np.arange(1, 2 * w), [p - 1]])):
            self.assert_matches_full(qp.Q, qp.R, C, RHS, active)
