"""Lemke complementary pivoting for linear complementarity problems and the
reduction of inequality-constrained convex quadratic programs to LCP form.

A quadratic program

    min 1/2 z'Qz + c'z   subject to   Rz >= r

with positive definite Q has Karush-Kuhn-Tucker conditions that are exactly
the complementarity system

    w = M lam + q,   w >= 0,  lam >= 0,  w'lam = 0,

with M = R Q^{-1} R' and q = -R Q^{-1} c - r.  Given the multipliers, the
primal solution is z = Q^{-1}(R' lam - c).

Pivot selection is lexicographic, which rules out cycling on degenerate
tableaus.  A solved basis is re-solved directly against (M, q) before the
solution is returned, so the reported values do not carry accumulated
elimination error.

The QP solver pivots on a working set of rows rather than on all of them:
in the estimators' programs there is one row per observation but only a
handful bind.  Starting from the unconstrained minimizer, each round adds
the most violated rows to the working set and solves the working set's LCP
exactly, until no other row is violated; the working set only grows, so
the rounds are finitely many.  The final iterate is polished and certified
(KKT residuals) against every row.

Along a grid of programs that share Q and R and whose linear term and
right-hand side are affine in one parameter (a penalty or budget path), the
solution on a fixed active set is affine in that parameter as well, so
neighbouring grid points mostly share their active set.  The path routine
solves each grid point first on the active set of the last breakpoint, by
the polish step's equality solve, and keeps that point only when every
slack and every multiplier has the right sign and the point's KKT residuals
over every row pass.  That equality system depends on the active set alone,
so its matrix is factored once per active set (a pseudo-inverse from one
singular value decomposition, the minimum-norm solution least squares
would give) and each grid point on it costs one matrix-vector product; the
polish step solves through the same routine, so a point kept on the path
equals the single fit on the same active set bit for bit.  Only where the
active set changes (a breakpoint) does the path run the working-set Lemke
solve, warm-started at the rows that bind the previous point and reusing
one Cholesky factor of the shared Hessian.  The estimators solve every
constrained block through this path routine; a single program is the
one-point grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .errors import InfeasibleQp, PivotLimitExceeded, RayTermination, SingularQ

# relative ridge added to Q before factorization; reported in diagnostics
RIDGE_EPS = 1e-10

# smallest tableau entry accepted as a pivot
PIVOT_EPS = 1e-11

SOLVED = "solved"
RAY_TERMINATION = "ray-termination"


@dataclass(frozen=True)
class Qp:
    """min 1/2 z'Qz + c'z subject to Rz >= r."""

    Q: np.ndarray
    c: np.ndarray
    R: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        R = np.asarray(self.R, dtype=float)
        if R.size == 0:
            R = R.reshape(0, Q.shape[0])
        R = np.atleast_2d(R)
        rr = np.atleast_1d(np.asarray(self.r, dtype=float))
        if rr.size == 0:
            rr = rr.reshape(0)
        m = Q.shape[0]
        if Q.shape != (m, m) or c.shape != (m,):
            raise ValueError("Q must be square and c must match its size")
        if R.shape[1] != m or rr.shape != (R.shape[0],):
            raise ValueError("constraint system shapes are inconsistent")
        scale = max(1.0, float(np.max(np.abs(Q), initial=0.0)))
        if float(np.max(np.abs(Q - Q.T), initial=0.0)) > 1e-10 * scale:
            raise ValueError("Q must be symmetric")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "r", rr)

    @property
    def num_vars(self) -> int:
        return self.Q.shape[0]

    @property
    def num_constraints(self) -> int:
        return self.R.shape[0]

    def objective(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        return float(0.5 * z @ self.Q @ z + self.c @ z)


@dataclass(frozen=True)
class Lcp:
    """Find z, w >= 0 with w = M z + q and z'w = 0."""

    M: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        M = np.atleast_2d(np.asarray(self.M, dtype=float))
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if M.shape != (q.size, q.size):
            raise ValueError("M must be square with one row per entry of q")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "q", q)

    @property
    def dim(self) -> int:
        return self.q.size


@dataclass
class LcpSolution:
    z: np.ndarray
    w: np.ndarray
    status: str
    pivots: int
    visited_bases: Optional[list] = None


def _ridge_factor(Q: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor of Q plus a tiny relative ridge; raises when singular."""
    m = Q.shape[0]
    ridge = RIDGE_EPS * float(np.trace(Q)) / m if m else 0.0
    try:
        L = np.linalg.cholesky(Q + ridge * np.eye(m))
    except np.linalg.LinAlgError:
        raise SingularQ("quadratic form is singular beyond the regularization threshold") from None
    return L, ridge


def _chol_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    y = solve_triangular(L, b, lower=True)
    return solve_triangular(L.T, y, lower=False)


def _reduce(R: np.ndarray, r: np.ndarray, L: np.ndarray, qc: np.ndarray) -> Lcp:
    """Multiplier complementarity system of the rows ``R z >= r`` of a QP,
    given the Cholesky factor ``L`` of its Hessian and ``qc = Q^{-1} c``."""
    M = R @ _chol_solve(L, R.T)
    M = 0.5 * (M + M.T)
    q = -(R @ qc) - r
    return Lcp(M, q)


def qp_to_lcp(qp: Qp) -> Lcp:
    """Reduce a constrained QP to its multiplier complementarity system."""
    L = _ridge_factor(qp.Q)[0]
    return _reduce(qp.R, qp.r, L, _chol_solve(L, qp.c))


def _lexico_min_row(T: np.ndarray, rows: np.ndarray, lex_cols: np.ndarray, piv: Optional[np.ndarray]) -> int:
    """Row whose (rhs, identity-block) vector is lexicographically smallest.

    When ``piv`` is given each row's vector is divided by its pivot entry
    first, which is the classic lexicographic minimum-ratio test.
    """
    vals = T[np.ix_(rows, lex_cols)]
    if piv is not None:
        vals = vals / piv[:, None]
    order = np.lexsort(tuple(vals[:, j] for j in range(vals.shape[1] - 1, -1, -1)))
    return int(rows[order[0]])


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] = T[row] / T[row, col]
    col_vals = T[:, col].copy()
    col_vals[row] = 0.0
    T -= np.outer(col_vals, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0


def _candidate_score(M: np.ndarray, q: np.ndarray, z: np.ndarray) -> float:
    w = M @ z + q
    neg = max(0.0, -float(np.min(z, initial=0.0)), -float(np.min(w, initial=0.0)))
    comp = float(np.max(np.abs(z * w), initial=0.0))
    return max(neg, comp)


def _extract_solution(M: np.ndarray, q: np.ndarray, basis: np.ndarray, rhs_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = q.size
    z = np.zeros(d)
    for i, var in enumerate(basis):
        if var >= d:
            z[var - d] = rhs_vals[i]
    z = np.maximum(z, 0.0)
    # re-solve the complementary basis directly to purge elimination error
    active = np.flatnonzero(z > 0.0)
    if active.size:
        sub = M[np.ix_(active, active)]
        try:
            refined = np.linalg.solve(sub, -q[active])
        except np.linalg.LinAlgError:
            refined = None
        if refined is not None and np.all(np.isfinite(refined)) and np.min(refined) > -1e-9:
            cand = np.zeros(d)
            cand[active] = np.maximum(refined, 0.0)
            if _candidate_score(M, q, cand) <= _candidate_score(M, q, z):
                z = cand
    return z, M @ z + q


def lemke_solve(lcp: Lcp, max_pivots: Optional[int] = None, track_bases: bool = False) -> LcpSolution:
    """Solve an LCP by complementary pivoting with lexicographic tie-breaking.

    Returns a solution with status ``solved``, or ``ray-termination`` when
    the covering ray escapes (for the PSD systems produced by ``qp_to_lcp``
    this certifies an empty constraint set).  Raises
    :class:`PivotLimitExceeded` when the pivot budget, 50 per dimension by
    default, runs out.
    """
    M, q = lcp.M, lcp.q
    d = lcp.dim
    if max_pivots is None:
        max_pivots = 50 * max(d, 1)
    visited = [] if track_bases else None
    if d == 0 or float(np.min(q, initial=0.0)) >= 0.0:
        return LcpSolution(np.zeros(d), q.copy(), SOLVED, 0, visited)

    # column ids: w_i -> i, z_i -> d + i, artificial covering variable -> 2d
    art = 2 * d
    rhs = 2 * d + 1
    T = np.empty((d, 2 * d + 2))
    T[:, :d] = np.eye(d)
    T[:, d : 2 * d] = -M
    T[:, art] = -1.0
    T[:, rhs] = q
    basis = np.arange(d)
    lex_cols = np.concatenate(([rhs], np.arange(d)))

    # initial pivot: the artificial variable enters against the row with the
    # lexicographically smallest (most negative) right-hand side
    row = _lexico_min_row(T, np.arange(d), lex_cols, None)
    _pivot(T, row, art)
    leaving = int(basis[row])
    basis[row] = art
    if track_bases:
        visited.append(frozenset(basis.tolist()))
    entering = leaving + d if leaving < d else leaving - d
    pivots = 1

    while True:
        col = T[:, entering]
        eligible = np.flatnonzero(col > PIVOT_EPS)
        if eligible.size == 0:
            return LcpSolution(np.zeros(d), q.copy(), RAY_TERMINATION, pivots, visited)
        if pivots >= max_pivots:
            raise PivotLimitExceeded(f"no termination within {max_pivots} pivots")
        row = _lexico_min_row(T, eligible, lex_cols, col[eligible])
        _pivot(T, row, entering)
        pivots += 1
        leaving = int(basis[row])
        basis[row] = entering
        if track_bases:
            visited.append(frozenset(basis.tolist()))
        if leaving == art:
            z, w = _extract_solution(M, q, basis, T[:, rhs])
            return LcpSolution(z, w, SOLVED, pivots, visited)
        entering = leaving + d if leaving < d else leaving - d


def _constraints_feasible(R: np.ndarray, r: np.ndarray) -> bool:
    from scipy.optimize import linprog

    res = linprog(
        np.zeros(R.shape[1]),
        A_ub=-R,
        b_ub=-(r - 1e-9),
        bounds=[(None, None)] * R.shape[1],
        method="highs",
    )
    return res.status != 2


def _kkt(Q: np.ndarray, c: np.ndarray, R: np.ndarray, z: np.ndarray, lam: np.ndarray,
         slack: np.ndarray) -> dict[str, float]:
    """Worst stationarity, feasibility and complementarity residuals of
    ``(z, lam)`` for the QP ``(Q, c, R, r)``, given the slack ``Rz - r``."""
    grad = Q @ z + c - R.T @ lam
    return {
        "kkt_stationarity": float(np.max(np.abs(grad), initial=0.0)),
        "kkt_feasibility": max(0.0, -float(np.min(slack, initial=0.0))),
        "kkt_complementarity": float(np.max(np.abs(lam * slack), initial=0.0)),
    }


def _kkt_score(kkt: dict[str, float], lam: np.ndarray) -> float:
    """Worst of the residuals ``kkt`` and of the multipliers' negative parts."""
    neg = max(0.0, -float(np.min(lam, initial=0.0)))
    return max(*kkt.values(), neg)


def _active_rows(lam: np.ndarray) -> tuple[np.ndarray, float]:
    """Rows whose multiplier is positive beyond roundoff, and the multiplier scale."""
    scale = 1.0 + float(np.max(np.abs(lam), initial=0.0))
    return np.flatnonzero(lam > 1e-10 * scale), scale


def _kkt_factor(Q: np.ndarray, R: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The KKT equality matrix ``K = [[Q, A'], [A, 0]]`` of the rows
    ``active`` (``A = R[active]``) and its pseudo-inverse.

    The pseudo-inverse comes from one singular value decomposition with the
    cutoff of ``np.linalg.lstsq`` (singular values at most ``eps dim
    sigma_max`` count as zero), so every right-hand side gets the minimum-norm
    least-squares solution, also when ``Q`` is singular or rows of ``A``
    depend on each other.
    """
    m = Q.shape[0]
    s = active.size
    kkt = np.zeros((m + s, m + s))
    kkt[:m, :m] = Q
    if s:
        A = R[active]
        kkt[:m, m:] = A.T
        kkt[m:, :m] = A
    U, sv, Vt = np.linalg.svd(kkt)
    keep = sv > np.finfo(float).eps * (m + s) * sv[0]
    return kkt, (Vt[keep].T / sv[keep]) @ U[:, keep].T


def _active_set_solve(pinv: np.ndarray, c: np.ndarray, r: np.ndarray,
                      active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solution of the KKT equality system ``Qz + c = A'lam_A``, ``Az = r_A``
    of the rows ``active``, given the pseudo-inverse of its matrix
    (:func:`_kkt_factor`).

    Returns the primal point and the multipliers on every row (zero off the
    active set).
    """
    m = c.size
    sol = pinv @ np.concatenate([-c, r[active]])
    lam = np.zeros(r.size)
    lam[active] = -sol[m:]
    return sol[:m], lam


def _polish_active_set(qp: Qp, lam: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Re-solve the KKT equality system of the multiplier-identified active set.

    Pivoting works against the ridge-regularized Hessian; resolving the final
    active set against the original one removes both the ridge bias and any
    conditioning loss from the multiplier-space reduction.  Returns None when
    the system is inconsistent or the multiplier signs reject the active set.
    """
    active, scale = _active_rows(lam)
    kkt, pinv = _kkt_factor(qp.Q, qp.R, active)
    z, lam_full = _active_set_solve(pinv, qp.c, qp.r, active)
    rhs = np.concatenate([-qp.c, qp.r[active]])
    residual = kkt @ np.concatenate([z, -lam_full[active]]) - rhs
    gap = float(np.max(np.abs(residual))) / (1.0 + float(np.max(np.abs(rhs), initial=0.0)))
    if not gap <= 1e-8 or float(np.min(lam_full, initial=0.0)) < -1e-8 * scale:
        return None
    return z, np.maximum(lam_full, 0.0)


def _solve_qp_full(qp: Qp, work: Sequence[int] = (),
                   factor: Optional[tuple[np.ndarray, float]] = None) -> tuple[np.ndarray, np.ndarray, dict]:
    """Primal solution, multipliers and solver diagnostics for a QP.

    Constraint generation: starting from the unconstrained minimizer, each
    round adds up to ``num_vars`` of the most violated rows to a working set
    and solves the LCP of the working set alone, until no row outside it is
    violated.  ``lemke_pivots`` sums the rounds' pivots.
    The polish step and the reported residuals use every row.

    ``work`` names rows that start in the working set when the unconstrained
    minimizer is infeasible (a path of related QPs passes the rows that
    bound the previous one); the first round then solves on them before any
    row is added.  If Lemke ray-terminates on such a working set, the
    program is solved again from an empty one.  ``factor`` is the
    ``(L, ridge)`` pair of :func:`_ridge_factor` for ``qp.Q``, when a path of
    programs sharing the Hessian has it already.
    """
    L, ridge = _ridge_factor(qp.Q) if factor is None else factor
    info = {"ridge_used": float(ridge), "lemke_pivots": 0.0}
    lam = np.zeros(qp.num_constraints)
    qc = _chol_solve(L, qp.c)
    z = -qc
    tol = 1e-12 * (1.0 + np.abs(qp.r))
    slack = qp.R @ z - qp.r
    in_work = np.zeros(qp.num_constraints, dtype=bool)
    if np.any(slack < -tol):
        in_work[np.asarray(work, dtype=int)] = True
    while True:
        if in_work.any():
            rows = np.flatnonzero(in_work)
            sol = lemke_solve(_reduce(qp.R[rows], qp.r[rows], L, qc))
            info["lemke_pivots"] += float(sol.pivots)
            if sol.status != SOLVED:
                if len(work):
                    # rows carried over from a neighbouring program can be
                    # degenerate here; decide from an empty working set
                    return _solve_qp_full(qp, factor=(L, ridge))
                if not _constraints_feasible(qp.R, qp.r):
                    raise InfeasibleQp("constraint system is empty")
                raise RayTermination("complementary pivoting ray-terminated on a feasible program")
            lam[rows] = sol.z
            z = _chol_solve(L, qp.R.T @ lam - qp.c)
            slack = qp.R @ z - qp.r
        violated = np.flatnonzero((slack < -tol) & ~in_work)
        if violated.size == 0:
            break
        in_work[violated[np.argsort(slack[violated], kind="stable")[: qp.num_vars]]] = True
    kkt = _kkt(qp.Q, qp.c, qp.R, z, lam, slack)
    if qp.num_constraints:
        polished = _polish_active_set(qp, lam)
        if polished is not None:
            z_p, lam_p = polished
            kkt_p = _kkt(qp.Q, qp.c, qp.R, z_p, lam_p, qp.R @ z_p - qp.r)
            if _kkt_score(kkt_p, lam_p) <= _kkt_score(kkt, lam):
                z, lam, kkt = z_p, lam_p, kkt_p
    info.update(kkt)
    return z, lam, info


def _hold_active_set(Q: np.ndarray, c: np.ndarray, R: np.ndarray, r: np.ndarray, active: np.ndarray,
                     pinv: np.ndarray, ridge: float) -> Optional[tuple[np.ndarray, np.ndarray, dict]]:
    """Solution, multipliers and diagnostics of the QP ``(Q, c, R, r)`` on a
    known active set, or None when that set is not optimal for it.

    The point solves the active set's KKT equality system through ``pinv``,
    the pseudo-inverse of its matrix from :func:`_kkt_factor`, which a path
    forms once per active set; the polish step solves through the same
    routine, so the point equals, bit for bit, the polished solution of a
    single fit on the same active set (rather than stepping along the affine
    solution, whose rounding differs).  It is the QP's solution when every
    slack passes the working-set loop's feasibility test and every multiplier
    is nonnegative; it is returned only if its KKT residuals over every row
    are also within ``1e-8 (1 + rows)``.
    """
    z, lam = _active_set_solve(pinv, c, r, active)
    slack = R @ z - r
    if not (np.all(slack >= -1e-12 * (1.0 + np.abs(r))) and np.all(lam >= 0.0)):
        return None
    kkt = _kkt(Q, c, R, z, lam, slack)
    if not all(value <= 1e-8 * (1.0 + R.shape[0]) for value in kkt.values()):
        return None
    return z, lam, {"ridge_used": float(ridge), "lemke_pivots": 0.0, **kkt}


def _qp_path(Q: np.ndarray, R: np.ndarray, terms: Callable[[float], tuple[np.ndarray, np.ndarray]],
             thetas: Iterable[float]) -> Iterator[tuple[np.ndarray, np.ndarray, dict]]:
    """Solutions, multipliers and diagnostics of a family of QPs along a grid.

    The QPs share ``Q`` and ``R``; ``terms(theta)`` gives the linear term
    ``c`` and the right-hand side ``r`` at a grid point.  When these are
    affine in ``theta``, so is the solution on a fixed active set, and
    neighbouring grid points mostly share it.  Each point is therefore first
    solved on the active set of the last breakpoint
    (:func:`_hold_active_set`), whose KKT matrix is factored once, when the
    first point after the breakpoint arrives; a point where that fails is a
    breakpoint, solved by :func:`_solve_qp_full` with the working set
    started at the rows that bind the previous point and with the Hessian
    factored once for the whole path.
    """
    factor = active = pinv = None
    work: Sequence[int] = ()
    for theta in thetas:
        c, r = terms(theta)
        found = None
        if active is not None:
            if pinv is None:
                pinv = _kkt_factor(Q, R, active)[1]
            found = _hold_active_set(Q, c, R, r, active, pinv, factor[1])
        if found is None:
            if factor is None:
                factor = _ridge_factor(Q)
            found = _solve_qp_full(Qp(Q, c, R, r), work=work, factor=factor)
            active, pinv = _active_rows(found[1])[0], None
        work = np.flatnonzero(found[1] > 0.0)
        yield found


def solve_qp(qp: Qp) -> np.ndarray:
    """Minimizer of an inequality-constrained convex QP via Lemke pivoting.

    Solves on a growing working set of violated rows (see
    :func:`_solve_qp_full`).  Raises :class:`InfeasibleQp` when pivoting
    ray-terminates and an independent linear-programming probe on all rows
    confirms the constraint set is empty.
    """
    return _solve_qp_full(qp)[0]
