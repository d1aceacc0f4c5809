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
tableaus; the plain minimum ratio decides alone unless rows tie on it.  One
pivot loop yields every basis of a run.  The solver reads the basic values
of the last one as they stand: their elimination error, like the ridge bias
of the factored Hessian, is removed by the QP solve's one polish on the
active set.  The path reads all of them: the artificial variable z0 moves q
along the covering vector 1, so one run solves the LCPs (M, q + t 1) for
every t it passes, each by interpolation between the two bases around it
(the homotopy path of Osborne, Presnell & Turlach, 2000).

The QP solver pivots on a working set of rows rather than on all of them:
in the estimators' programs there is one row per observation but only a
handful bind.  Starting from the unconstrained minimizer, each round adds
the most violated rows to the working set and solves the working set's LCP
exactly, until no other row is violated; the working set only grows, so
the rounds are finitely many.  The loop returns Lemke's iterate, or, when
Lemke ray-terminates on a ray that is Farkas' certificate that the working
set's rows have no common point (Eaves, 1971), reports the program empty.
A single program is solved by that loop once, then polished on the rows
that bind the iterate: the equality solve on that set removes the ridge
bias of pivoting, and is kept when its certificate is no worse.

Along a grid of programs that share Q and R and whose linear term and
right-hand side are affine in one parameter (a penalty or budget path), the
solution on a fixed active set is affine in that parameter as well (the
parametric LCP of Cottle, Pang & Stone, 1992, section 4.5).  Where the
caller knows an active set that is optimal at one end of such a grid, the
homotopy routine walks the grid from there with no Lemke run, breakpoint to
breakpoint, one row entering or leaving the set at each (Osborne, Presnell
& Turlach, 2000; Gaines, Al & Zhou, 2018).  Each segment solves the reduced
KKT system, in which a binding bound row only fixes its variable (Gill,
Murray & Wright, 1981, section 5.5); a single program's polish is the same
solve.  Every point is certified against every row; one that fails is
solved by Lemke, and the walk restarts from there.  The folds of a
cross-validation walk in lockstep (Friedman, Hastie & Tibshirani, 2010),
one batched segment solve per step.  A program with no known active set
is walked too: with every row's right-hand side lowered by the parameter,
from where no row binds down to the program itself (Best, 1996).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import InfeasibleQp, PivotLimitExceeded, RayTermination, SingularQ

# relative ridge added to Q before factorization; reported in diagnostics
RIDGE_EPS = 1e-10

# smallest tableau entry accepted as a pivot
PIVOT_EPS = 1e-11

SOLVED = "solved"
RAY_TERMINATION = "ray-termination"

# the diagnostics a single QP fit reports (:func:`_solve_qp`)
FIT_DIAGNOSTICS = ("ridge_used", "lemke_pivots", "kkt_stationarity", "kkt_feasibility", "kkt_complementarity")


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
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


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
    first, which is the classic lexicographic minimum-ratio test.  Only rows
    tied at the smallest plain ratio are compared on the whole vector.
    """
    ratio = T[rows, lex_cols[0]] if piv is None else T[rows, lex_cols[0]] / piv
    tied = ratio == ratio.min()  # none if a ratio is NaN: then every row competes
    if tied.any():
        rows, piv = rows[tied], None if piv is None else piv[tied]
    if rows.size == 1:
        return int(rows[0])
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


def _lemke_pivots(M: np.ndarray, q: np.ndarray, max_pivots: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Lemke's pivots on the LCP ``(M, q)``: the tableau and the basis after
    each, updated in place.  Tableau columns are ``w`` (``0..d-1``), ``z``
    (``d..2d-1``), the artificial ``z0`` (``2d``) and the right-hand side,
    which holds the basic values.  Ends when ``z0`` leaves the basis, or when
    no entry can pivot (ray termination: ``z0`` stays basic)."""
    d = q.size
    art = 2 * d
    T = np.hstack([np.eye(d), -M, np.full((d, 1), -1.0), q[:, None]])
    basis = np.arange(d)
    lex_cols = np.concatenate(([art + 1], np.arange(d)))
    # z0 enters first, against the lexicographically smallest (most negative) row
    row, entering, pivots = _lexico_min_row(T, np.arange(d), lex_cols, None), art, 0
    while True:
        _pivot(T, row, entering)
        pivots += 1
        leaving, basis[row] = int(basis[row]), entering
        yield T, basis
        if leaving == art:
            return
        entering = leaving + d if leaving < d else leaving - d
        col = T[:, entering]
        eligible = np.flatnonzero(col > PIVOT_EPS)
        if eligible.size == 0:
            return
        if pivots >= max_pivots:
            raise PivotLimitExceeded(f"no termination within {max_pivots} pivots")
        row = _lexico_min_row(T, eligible, lex_cols, col[eligible])


def lemke_solve(lcp: Lcp, max_pivots: Optional[int] = None) -> LcpSolution:
    """Solve an LCP by complementary pivoting with lexicographic tie-breaking.

    Returns a solution with status ``solved``, whose ``z`` is read off the
    basic values of the last basis (clipped at 0), with ``w = M z + q``; or
    with status ``ray-termination`` and ``z`` the ``z`` part of the secondary
    ray the run escapes on: the nonbasic member of the one nonbasic
    complementary pair whose column has no entry above ``PIVOT_EPS`` grows,
    and the basic variables move along that column.  For the PSD systems of
    ``qp_to_lcp`` the ray ``y`` has ``R'y = 0`` and ``r'y > 0``, Farkas'
    certificate that the constraint set is empty (Eaves, 1971).  Raises
    :class:`PivotLimitExceeded` when the pivot budget, 50 per dimension by
    default, runs out.
    """
    M, q = lcp.M, lcp.q
    d = lcp.dim
    if max_pivots is None:
        max_pivots = 50 * max(d, 1)
    if d == 0 or float(np.min(q, initial=0.0)) >= 0.0:
        return LcpSolution(np.zeros(d), q.copy(), SOLVED, 0)
    pivots = 0
    for T, basis in _lemke_pivots(M, q, max_pivots):
        pivots += 1
    if 2 * d in basis:
        return LcpSolution(_ray(T, basis, d), q.copy(), RAY_TERMINATION, pivots)
    x = np.zeros(2 * d + 1)
    x[basis] = T[:, -1]
    z = np.maximum(x[d : 2 * d], 0.0)
    return LcpSolution(z, M @ z + q, SOLVED, pivots)


def _ray(T: np.ndarray, basis: np.ndarray, d: int) -> np.ndarray:
    """The ``z`` part of the ray that a run which ray-terminated escapes on."""
    pair = int(np.setdiff1d(np.arange(d), basis[basis < 2 * d] % d)[0])  # no member basic
    entering = pair + d if float(np.max(T[:, pair + d])) <= PIVOT_EPS else pair
    x = np.zeros(2 * d + 1)
    x[entering], x[basis] = 1.0, -T[:, entering]
    return np.maximum(x[d : 2 * d], 0.0)


def _lemke_path(lcp: Lcp, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solutions of the LCPs ``(M, q + t 1)`` at the positive ``ts`` from one
    Lemke run on ``(M, q)``, one row per ``t``, and a mask of the ``t`` reached.

    Every point of an edge between two bases, where ``z0 = t``, solves the
    LCP at ``t``, so each ``t`` is read on the first edge that crosses it,
    whether ``z0`` falls or rises there.  The run pivots only while a ``t``
    is left to read, and stops short of the rest if it ray-terminates; it
    raises :class:`PivotLimitExceeded` as :func:`lemke_solve` does."""
    d = lcp.dim
    z0, z = -float(np.min(lcp.q, initial=0.0)), np.zeros(d)
    out, reached = np.zeros((ts.size, d)), ts >= z0
    if reached.all():
        return out, reached
    for T, basis in _lemke_pivots(lcp.M, lcp.q, 50 * max(d, 1)):
        x = np.zeros(2 * d + 1)
        x[basis] = T[:, -1]
        z_next = np.maximum(x[d:-1], 0.0)
        edge = ~reached & (ts >= min(z0, x[-1])) & (ts <= max(z0, x[-1]))
        out[edge] = z_next + (z - z_next) * ((ts[edge] - x[-1]) / (z0 - x[-1]))[:, None]
        reached |= edge
        z0, z = x[-1], z_next
        if reached.all():
            break
    return out, reached


def _farkas(R: np.ndarray, r: np.ndarray, y: np.ndarray) -> bool:
    """Whether ``y >= 0`` is Farkas' certificate that ``Rz >= r`` has no
    solution: ``R'y = 0`` and ``r'y > 0``, both relative to ``sum(y)`` and
    the largest entry of ``R`` and of ``r``."""
    total = float(np.sum(y))
    return (total > 0.0 and float(np.max(np.abs(R.T @ y))) <= 1e-9 * total * float(np.max(np.abs(R)))
            and float(r @ y) > 1e-9 * total * float(np.max(np.abs(r))))


def _t(a: np.ndarray) -> np.ndarray:
    """``a`` with its last two axes swapped (a vector as it is)."""
    return a if a.ndim < 2 else np.swapaxes(a, -1, -2)


def _kkt(Q: np.ndarray, c: np.ndarray, R: np.ndarray, z: np.ndarray, lam: np.ndarray,
         slack: np.ndarray) -> dict[str, float]:
    """Worst stationarity, feasibility and complementarity residuals of
    ``(z, lam)`` for the QP ``(Q, c, R, r)``, given the slack ``Rz - r``."""
    return {
        "kkt_stationarity": float(np.max(np.abs(Q @ z + c - R.T @ lam), initial=0.0)),
        "kkt_feasibility": float(np.fmax(0.0, -np.min(slack, initial=0.0))),
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


def _pinv(kkt: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of a KKT equality matrix from one singular value
    decomposition, with the cutoff of ``np.linalg.lstsq`` (singular values
    at most ``eps dim sigma_max`` count as zero)."""
    U, sv, Vt = np.linalg.svd(kkt)
    keep = sv > np.finfo(float).eps * kkt.shape[0] * sv[0]
    return (Vt[keep].T / sv[keep]) @ U[:, keep].T


def _kkt_inverse(kkt: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Inverses of a stack of KKT equality matrices, each the identity past
    its leading ``size`` rows and columns, or, for one that is singular to
    working precision, the pseudo-inverse of that leading block
    (:func:`_pinv`) beside the identity.

    The stack is inverted in one batch with each matrix's rows and columns
    scaled by ``d_i = 1 / sqrt(max_j |K_ij|)``, so that no entry exceeds 1
    whatever the units of the variables and rows.  A matrix counts as
    singular when it has a zero row, when its inversion fails, or when an
    entry of its scaled inverse exceeds ``1e10`` (a lower bound of the
    scaled condition number within a factor of its squared dimension; a
    matrix that is exactly singular gives about ``1 / eps`` after roundoff);
    when the batch has such a matrix, each matrix is inverted alone.
    """
    top = np.abs(kkt).max(axis=2, initial=0.0)
    if top.all():
        scale = top**-0.5
        scale = scale[:, :, None] * scale[:, None, :]
        try:
            inv = np.linalg.inv(kkt * scale)
        except np.linalg.LinAlgError:
            inv = None
        if inv is not None and np.abs(inv).max(initial=0.0) <= 1e10:
            return inv * scale
    if len(kkt) > 1:
        return np.concatenate([_kkt_inverse(kkt[k : k + 1], size[k : k + 1]) for k in range(len(kkt))])
    inv = np.eye(kkt.shape[1])[None]
    inv[0, : size[0], : size[0]] = _pinv(kkt[0, : size[0], : size[0]])
    return inv


def _unit_rows(R: np.ndarray) -> np.ndarray:
    """The variable each row of ``R`` fixes when binding, for a unit row (one
    entry, equal to 1: a bound ``z_j >= r_i``), and -1 for every other row;
    one row of them per matrix of a stack."""
    nonzero = R != 0.0
    var = np.argmax(nonzero, axis=-1)
    unit = (np.count_nonzero(nonzero, axis=-1) == 1) & (np.take_along_axis(R, var[..., None], axis=-1)[..., 0] == 1.0)
    return np.where(unit, var, -1)


def _segment_solve(Q: np.ndarray, R: np.ndarray, C: np.ndarray, RHS: np.ndarray, active: np.ndarray,
                   unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solutions of the KKT equality systems ``Qz + c = A'lam_A``, ``Az =
    r_A`` of the rows ``active`` (a mask, ``A = R[active]``) for a stack of
    QPs ``(Q[k], R[k])``, each with a stack of programs ``(C[k], RHS[k])``,
    from the reduced systems, given the variables ``unit`` that the rows fix
    (:func:`_unit_rows`).  Returns the points and the multipliers on every
    row (zero off the set), one stack per QP.

    A binding unit row fixes its variable at its right-hand side, so only
    the free variables and the other rows of the set enter a QP's system;
    the systems of the stack are padded to one size and inverted in one
    batch (:func:`_kkt_inverse`; the minimum-norm solution for one that is
    singular), and a unit row's multiplier is then the gradient ``Qz + c -
    R'lam`` of the other rows at its variable.  A second unit row on a fixed
    variable is one of the other rows.  Where other rows of a set depend on
    each other only through fixed variables, the multipliers are one valid
    split of the load, not the full system's minimum-norm one.
    """
    K, p, m = R.shape
    k = np.arange(K)[:, None]
    fold, bound = np.nonzero(active & (unit >= 0))
    fixed = unit[fold, bound]
    # each QP's slots: its free variables, then the other rows of its set
    slots = np.concatenate([np.ones((K, m), dtype=bool), active & (unit < 0)], axis=1)
    slots[fold, fixed] = False
    if fold.size + np.count_nonzero(slots[:, :m]) > K * m:
        # a variable fixed twice: its first row fixes it, the others are other rows
        first = np.zeros(fold.size, dtype=bool)
        first[np.unique(fold * m + fixed, return_index=True)[1]] = True
        slots[fold[~first], m + bound[~first]] = True
        fold, bound, fixed = fold[first], bound[first], fixed[first]
    size = np.count_nonzero(slots, axis=1)
    S = int(size.max(initial=0))
    idx = np.argsort(~slots, axis=1, kind="stable")[:, :S]
    pad = np.arange(S) >= size[:, None]
    idx[pad] = m + p
    # each slot's row of Q or R, then its entries on the slots that are variables
    is_var, is_row = idx < m, (idx >= m) & (idx < m + p)
    W = Q[k, idx * is_var] * is_var[:, :, None]
    if p:
        W += R[k, (idx - m) * is_row] * is_row[:, :, None]
    kkt = W[k[:, :, None], np.arange(S)[:, None], (idx * is_var)[:, None, :]] * is_var[:, None, :]
    kkt += np.swapaxes(kkt * ~is_var[:, :, None], 1, 2)
    kkt.reshape(K, -1)[:, :: S + 1] += pad
    # the fixed variables at their right-hand sides, moved to the right (a
    # padding slot reads the last row's, which its identity block keeps apart)
    z = np.zeros(C.shape)
    z[fold, :, fixed] = RHS[fold, :, bound]
    rhs = np.swapaxes(np.concatenate([-C, RHS], axis=2), 1, 2)[k, np.minimum(idx, m + p - 1)]
    if fold.size:
        rhs -= W @ _t(z)
    sol = _kkt_inverse(kkt, size) @ rhs if S else rhs
    full = np.zeros((K, m + p + 1, C.shape[1]))
    full[k, idx] = sol
    z += _t(full[:, :m])
    lam = -_t(full[:, m:-1])
    # the other rows' multipliers are -sol on their slots, so their load on
    # the variables is sol'W there
    lam[fold, :, bound] = (z @ Q + C + _t(sol * is_row[:, :, None]) @ W)[fold, :, fixed]
    return z, lam


def _solve_qp_full(Q: np.ndarray, c: np.ndarray, R: np.ndarray, r: np.ndarray,
                   work: Sequence[int] = ()) -> tuple[np.ndarray, np.ndarray, dict]:
    """Lemke's iterate for the QP ``(Q, c, R, r)`` of :class:`Qp`, taken as
    valid float arrays: primal point, multipliers and solver diagnostics
    (``ridge_used``, and ``lemke_pivots`` summed over rounds).

    Constraint generation: starting from the unconstrained minimizer, each
    round adds up to one row per variable, the most violated ones, to a
    working set and solves the LCP of the working set alone, until no row
    outside it is violated.  The point carries the ridge bias of the
    factored Hessian; :func:`_solve_qp` polishes it and certifies it against
    every row.  A ray termination whose ray is Farkas' certificate for the
    working set (:func:`_farkas`) raises :class:`InfeasibleQp`.

    ``work`` names rows that start in the working set when the unconstrained
    minimizer is infeasible (a walk passes the set it reached, a budget fit
    the rows of its ``t = 0`` fit); the first round then solves
    on them before any row is added.  If Lemke ray-terminates on such a
    working set, the program is solved again from an empty one; from an
    empty one, a ray that is no certificate raises :class:`RayTermination`.
    """
    L, ridge = _ridge_factor(Q)
    info = {"ridge_used": float(ridge), "lemke_pivots": 0.0}
    lam = np.zeros(R.shape[0])
    qc = _chol_solve(L, c)
    z = -qc
    tol = 1e-12 * (1.0 + np.abs(r))
    slack = R @ z - r
    in_work = np.zeros(R.shape[0], dtype=bool)
    if np.any(slack < -tol):
        in_work[np.asarray(work, dtype=int)] = True
    while True:
        if in_work.any():
            rows = np.flatnonzero(in_work)
            sol = lemke_solve(_reduce(R[rows], r[rows], L, qc))
            info["lemke_pivots"] += float(sol.pivots)
            if sol.status != SOLVED:
                if _farkas(R[rows], r[rows], sol.z):
                    raise InfeasibleQp("constraint system is empty")
                if len(work):
                    # rows carried over from a neighbouring program can be
                    # degenerate here; decide from an empty working set
                    return _solve_qp_full(Q, c, R, r)
                raise RayTermination("complementary pivoting ray-terminated on a feasible program")
            lam[rows] = sol.z
            z = _chol_solve(L, R.T @ lam - c)
            slack = R @ z - r
        violated = np.flatnonzero((slack < -tol) & ~in_work)
        if violated.size == 0:
            return z, lam, info
        in_work[violated[np.argsort(slack[violated], kind="stable")[: Q.shape[0]]]] = True


def _solve_qp(Q: np.ndarray, c: np.ndarray, R: np.ndarray, r: np.ndarray,
              work: Sequence[int] = ()) -> tuple[np.ndarray, np.ndarray, dict[str, float], np.ndarray]:
    """Solution, multipliers, diagnostics (``ridge_used``, ``lemke_pivots``,
    ``kkt_*`` over every row) and active rows of the QP ``(Q, c, R, r)`` of
    :class:`Qp`, taken as valid float arrays.

    The working-set Lemke loop (:func:`_solve_qp_full`, started at ``work``)
    gives an iterate, whose binding rows (:func:`_active_rows`) start the
    active set.  The equality solve on the set (the polish,
    :func:`_segment_solve`) is repeated, with every row it violates by the
    working-set loop's test added, until it violates none (a singular
    Hessian's minimum-norm polish can violate rows whose multiplier is
    roundoff at the iterate).  The polish replaces the iterate when its
    multipliers are nonnegative up to ``1e-8`` of their scale (the small
    negative ones are clipped to 0) and its worst residual is no larger.
    """
    z, lam, info = _solve_qp_full(Q, c, R, r, work)
    kkt = _kkt(Q, c, R, z, lam, R @ z - r)
    active, scale = _active_rows(lam)
    in_set = np.zeros(R.shape[0], dtype=bool)
    in_set[active] = True
    unit, tol = _unit_rows(R)[None], 1e-12 * (1.0 + np.abs(r))
    while True:
        z_p, lam_p = (x[0, 0] for x in _segment_solve(Q[None], R[None], c[None, None], r[None, None], in_set[None],
                                                      unit))
        violated = (R @ z_p - r < -tol) & ~in_set
        if not violated.any():
            break
        in_set |= violated
    if float(np.min(lam_p, initial=0.0)) >= -1e-8 * scale:
        lam_p = np.maximum(lam_p, 0.0)
        kkt_p = _kkt(Q, c, R, z_p, lam_p, R @ z_p - r)
        if _kkt_score(kkt_p, lam_p) <= _kkt_score(kkt, lam):
            z, lam, kkt = z_p, lam_p, kkt_p
    return z, lam, {**info, **kkt}, np.flatnonzero(in_set)


def _padded(Q: Sequence[np.ndarray], R: Sequence[np.ndarray], terms: Sequence[Sequence[np.ndarray]],
            rhs: Sequence[Sequence[np.ndarray]]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """QP families ``(Q[k], R[k])`` and their programs ``(terms[k, 0] + theta
    terms[k, 1], rhs[k, 0] + theta rhs[k, 1])`` (a missing one is 0) padded
    to one stack: an extra variable is decoupled (``Q_jj = 1``, no linear
    term, no row entry), so it stays 0; an extra row reads ``0 z >= -1``."""
    K, m, p = len(Q), max(q.shape[0] for q in Q), max(a.shape[0] for a in R)
    Qs, Rs, Ts, Hs = np.zeros((K, m, m)), np.zeros((K, p, m)), np.zeros((K, 2, m)), np.zeros((K, 2, p))
    Qs[:, np.arange(m), np.arange(m)], Hs[:, 0] = 1.0, -1.0
    for k, (q, a) in enumerate(zip(Q, R)):
        pk, mk = a.shape
        Qs[k, :mk, :mk], Rs[k, :pk, :mk] = q, a
        Ts[k, : len(terms[k]), :mk], Hs[k, : len(rhs[k]), :pk] = terms[k], rhs[k]
    return Qs, Rs, Ts, Hs


def _certified(Q: np.ndarray, R: np.ndarray, terms: np.ndarray, rhs: np.ndarray, thetas: np.ndarray, Z: np.ndarray,
               LAM: np.ndarray, held: np.ndarray, in_held: np.ndarray) -> np.ndarray:
    """Whether each point ``Z[i]`` of the QPs ``(Q, terms[0] + theta
    terms[1], R, rhs[0] + theta rhs[1])`` at ``thetas[i]``, with multipliers
    ``LAM[i]`` on the rows ``held`` and ``in_held[i]`` of them in its set, is
    certified: its multipliers are nonnegative, every row outside its set
    passes the working-set loop's test ``slack >= -1e-12 (1 + |r|)``, and,
    with ``b = 1e-8 (1 + rows)`` and ``c`` and ``r`` the terms at the grid's
    two ends (both are affine in ``theta``), its stationarity residual is
    within ``b (1 + max|c|)``, every row's negative slack within ``b (1 +
    max|r|)`` and its complementarity within ``b (1 + max|r|) (1 + max
    lam)``, ``lam`` over all the points."""
    C = terms[0] + thetas[:, None] * terms[1]
    RHS = rhs[0] + thetas[:, None] * rhs[1]
    slack = Z @ R.T - RHS
    ends = slice(None, None, max(thetas.size - 1, 1))  # the first and last grid points
    b_c, b_r = (1e-8 * (1.0 + R.shape[0]) * (1.0 + np.abs(x[ends]).max(initial=0.0)) for x in (C, RHS))
    passes = slack >= -1e-12 * (1.0 + np.abs(RHS))
    passes[:, held] |= in_held
    return (passes.all(axis=1) & np.all(LAM >= 0.0, axis=1) & (-slack.min(axis=1, initial=0.0) <= b_r)
            & (np.abs(Z @ Q + C - LAM @ R[held]).max(axis=1, initial=0.0) <= b_c)
            & (np.abs(LAM * slack[:, held]).max(axis=1, initial=0.0) <= b_r * (1.0 + LAM.max(initial=0.0))))


def _qp_homotopy(Q: Sequence[np.ndarray], R: Sequence[np.ndarray], r: Sequence[np.ndarray],
                 c0: Sequence[np.ndarray], dc: Sequence[np.ndarray], thetas: np.ndarray, theta0: Sequence[float],
                 active: Sequence[Sequence[int]],
                 dr: Optional[Sequence[np.ndarray]] = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Solutions of a stack of QP families along one grid: for each program
    ``k``, the QPs ``(Q[k], c0[k] + theta dc[k], R[k], r[k] + theta dr[k])``
    at the ``thetas``, in any order, walked down from ``theta0[k]``, where
    the rows ``active[k]`` bind the solution.  Returns, per program, its
    stack, one row per grid point in the order of ``thetas``, and the rows
    of the set its walk ends on, at the lowest ``theta``.  ``dr`` defaults
    to 0.  With ``dc = 0`` and ``dr = -1`` on every row, a ``theta0`` of
    ``np.finfo(float).max`` lowers every row past any violation: the empty
    set binds there, found with no solve (``np.inf`` would make ``inf * 0``
    on a padded row, whose ``dr`` is 0).

    On a fixed active set the solution and its multipliers are affine in
    ``theta``, so one solve of the set's KKT system for the two programs
    ``(c0, r)`` and ``(dc, dr)`` gives both the point at ``theta = 0`` and
    the direction, from the reduced system of :func:`_segment_solve` (its
    unit rows found once per walk).  A ratio test over every row finds where
    the segment ends: the largest ``theta`` below the current one at which a
    multiplier of a row in the set or the slack of a row outside it reaches
    0 (a value that is at or below 0 already ends the segment at once, and
    only values that change sign before the last grid point are divided).
    Every grid point down to there is filled from the affine solution, the
    row crossing zero enters or leaves the set, and the walk goes on from
    it: the exact homotopy of the penalty or budget path (Osborne, Presnell
    & Turlach, 2000; Gaines, Al & Zhou, 2018).  Grid points above ``theta0``
    are filled from the first segment.  A multiplier in the set that is
    negative by no more than ``1e-12`` of the point's multiplier scale is
    roundoff (at a breakpoint, or on a row whose multiplier is 0 all along)
    and is read as 0.

    The programs advance in lockstep, as the folds of a pathwise
    cross-validation do (Friedman, Hastie & Tibshirani, 2010): each step
    makes one segment for every program still walking, with one batched
    segment solve, one stacked slack product and one ratio test, and the
    rules below apply to each program alone.  Programs of unequal shape are
    padded to one (:func:`_padded`), and the padding is stripped again.

    Where ``dr`` moves rows, a row it moves that crosses within ``1e-9`` of
    the first crossing (relative to that ``theta``) is the one toggled
    there: a budget row's multiplier reaches 0 together with those of the
    bounds it ties to it.  Where ``dc`` is 0 and ``dr`` is positive on the
    rows it moves, once none of them is left in the set nothing in the
    set's system moves with ``theta`` and their slacks only grow as it
    falls, so the rest of the grid is the current point (the released
    fit).  A walk that toggles a row back at the ``theta`` where it just
    toggled it has stalled on a degenerate point and stops there.

    Each program's filled points are then certified on their own, against
    bounds relative to its own linear terms, right-hand sides and
    multipliers (:func:`_certified`).  Its first point that fails, or that
    its walk leaves unfilled when it stalls or after ``4 (1 + rows)``
    segments, is solved by :func:`_solve_qp` alone, started at the set the
    walk reached there, and the walk restarts from the polished set on that
    program alone over the rest of the grid; each restart uses a grid point,
    and the restarted walk's end set is the program's.
    """
    K, n = len(Q), thetas.size
    m_k, p_k = [q.shape[0] for q in Q], [a.shape[0] for a in R]
    if K == 0 or n == 0:
        return [(np.zeros((n, m)), np.asarray(a, dtype=int)) for m, a in zip(m_k, active)]
    # the walk goes down the grid; the rows return in the grid's order
    order = np.argsort(-thetas, kind="stable")
    thetas = thetas[order]
    Qs, Rs, terms, rhs = _padded(Q, R, list(zip(c0, dc)),
                                 [(r[k],) if dr is None else (r[k], dr[k]) for k in range(K)])
    p = Rs.shape[1]
    rows = np.zeros((K, p), dtype=bool)
    for k in range(K):
        rows[k, np.asarray(active[k], dtype=int)] = True
    unit, moving = _unit_rows(Rs), rhs[:, 1] != 0.0
    release = (moving.any(axis=1) & ~terms[:, 1].any(axis=1) & np.all(rhs[:, 1] >= 0.0, axis=1)).tolist()
    toggled, theta, down, i = np.full((K, p), np.nan), np.array(theta0, dtype=float), -thetas, [0] * K
    # each step's segments, one per walking program: the two solution stacks
    # and the set; and for each grid point, the segment it is read from and
    # the theta it is read at (a released fit's, where it was released)
    segments, count = [], 0
    seg, read = np.zeros((K, n), dtype=int), np.tile(thetas, (K, 1))
    walking, live = list(range(K)), None
    for step in range(4 * (1 + p)):
        walking = [k for k in walking if step < 4 * (1 + p_k[k])]
        if not walking:
            break
        if walking != live:
            # the stacks of the walking programs, taken once per change of the set
            live, w = walking, slice(None) if len(walking) == K else np.array(walking)
            Q_w, R_w, terms_w, rhs_w, unit_w = Qs[w], Rs[w], terms[w], rhs[w], unit[w]
        in_set = rows[w].copy()
        sol, mult = _segment_solve(Q_w, R_w, terms_w, rhs_w, in_set, unit_w)
        segments.append((sol, mult, in_set))
        first, count = count, count + len(walking)
        # the values that must stay nonnegative: multipliers in the set, slacks outside
        values = np.where(in_set[:, None], mult, sol @ _t(R_w) - rhs_w)
        va, vb, start = values[:, 0], values[:, 1], theta[w][:, None]
        crossing = va + thetas[-1] * vb < 0.0
        ahead = crossing & (va + start * vb > 0.0)
        at = np.where(crossing, start, -np.inf)
        np.divide(-va, vb, out=at, where=ahead)  # vb != 0: the value changes sign between theta and the end
        row = at.argmax(axis=1)
        cross = at[np.arange(len(walking)), row]
        if moving.any():
            tied = moving[w] & (at >= (cross - 1e-9 * np.abs(cross))[:, None])
            row = np.where(tied.any(axis=1), tied.argmax(axis=1), row)
        stop = np.searchsorted(down, -cross, side="right")  # the grid points at or above cross
        still = []
        for j, (k, row_k, cross_k, stop_k) in enumerate(zip(walking, row.tolist(), cross.tolist(), stop.tolist())):
            stop_k = max(i[k], stop_k)
            seg[k, i[k] : stop_k], i[k] = first + j, stop_k
            if stop_k == n or toggled[k, row_k] == cross_k:
                continue  # the grid is filled, or the row toggles back where it just toggled: a stall
            toggled[k, row_k], rows[k, row_k], theta[k] = cross_k, not rows[k, row_k], cross_k
            if release[k] and not np.any(rows[k] & moving[k]):
                # released: the point reached, at every theta left
                last = mult[j].copy()
                last[:, row_k] = 0.0
                segments.append((sol[j : j + 1], last[None], rows[k : k + 1].copy()))
                seg[k, stop_k:], read[k, stop_k:] = count, cross_k
                count, i[k] = count + 1, n
                continue
            still.append(k)
        walking = still
    sol, mult, in_set = (np.concatenate(parts) for parts in zip(*segments))
    # every multiplier off the rows that some set held is 0; the points past
    # a program's filled ones read its first segment, and are never certified
    held = np.flatnonzero(in_set.any(axis=0))
    in_held, t = in_set[:, held], read[:, :, None]
    Z = sol[seg, 0] + t * sol[seg, 1]
    mult = mult[:, :, held]
    LAM, step = mult[seg, 0], mult[seg, 1]
    step *= t
    floor = np.abs(LAM)
    floor += np.abs(step)
    floor = -1e-12 * floor.max(axis=2, keepdims=True, initial=0.0)
    LAM += step
    np.maximum(LAM, 0.0, out=LAM, where=LAM >= floor)
    out = []
    for k, (mk, pk) in enumerate(zip(m_k, p_k)):
        # its held rows are those below pk: a padded row never binds
        Zk, end, ik, h = Z[k, :, :mk], np.flatnonzero(rows[k, :pk]), i[k], np.searchsorted(held, pk)
        ok = _certified(Q[k], R[k], terms[k, :, :mk], rhs[k, :, :pk], thetas[:ik], Zk[:ik], LAM[k, :ik, :h],
                        held[:h], in_held[seg[k, :ik], :h])
        j = int(ok.argmin()) if not ok.all() else ik
        if j < n:
            # Lemke at the failing point, from the set the walk reached there;
            # then the walk again from the polished set
            work = np.flatnonzero((in_set[seg[k, j]] if j < ik else rows[k])[:pk])
            Zk[j], _, _, work = _solve_qp(Q[k], terms[k, 0, :mk] + thetas[j] * terms[k, 1, :mk], R[k],
                                          rhs[k, 0, :pk] + thetas[j] * rhs[k, 1, :pk], work)
            ((Zk[j + 1 :], end),) = _qp_homotopy([Q[k]], [R[k]], [r[k]], [c0[k]], [dc[k]], thetas[j + 1 :],
                                                 [thetas[j]], [work], None if dr is None else [dr[k]])
        out.append((Zk, end))
    back = np.argsort(order)
    return [(Zk[back], end) for Zk, end in out]


def solve_qp(qp: Qp) -> np.ndarray:
    """Minimizer of an inequality-constrained convex QP via Lemke pivoting.

    A working-set Lemke solve (see :func:`_solve_qp_full`), polished on
    its active set (:func:`_solve_qp`).  Raises
    :class:`InfeasibleQp` when pivoting ray-terminates on a ray that is
    Farkas' certificate that the constraint set is empty, and
    :class:`RayTermination` when it ray-terminates on one that is not.
    """
    return _solve_qp(qp.Q, qp.c, qp.R, qp.r)[0]
