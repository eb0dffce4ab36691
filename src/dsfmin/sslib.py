"""State-space models, transfer functions, and Gilbert realizations.

``transfer_from_blocks`` builds each entry c (sI - A)^(-1) b + d from
characteristic polynomials of the minimal part of (A, b, c),
det(sI - A + b c) - det(sI - A) over det(sI - A), each taken from
eigenvalues.  ``kalman_reduce`` finds the minimal part of a state-space
triple numerically, by an orthogonal staircase whose rank decisions are
``_rank`` with ``TOL_RANK``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientC, ShapeMismatch
from .ratcore import (
    TOL_POLE,
    PoleResidueForm,
    Polynomial,
    RationalMatrix,
    _raw_ratfun,
    off_pole_points,
    rmat_eval,
    to_pole_residue,
)

TOL_RANK = 1e-8


def _as_matrix(M, rows=None, cols=None):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if rows is not None and M.shape[0] != rows:
        raise ShapeMismatch(f"expected {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise ShapeMismatch(f"expected {cols} columns, got {M.shape[1]}")
    return M


@dataclass
class StateSpace:
    """Continuous-time linear system dx/dt = Ax + Bu, y = Cx + Du."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray = None

    def __post_init__(self):
        self.A = _as_matrix(self.A)
        n = self.A.shape[0]
        if self.A.shape[1] != n:
            raise ShapeMismatch("A must be square")
        self.B = _as_matrix(self.B, rows=n)
        self.C = _as_matrix(self.C, cols=n)
        if self.D is None:
            self.D = np.zeros((self.C.shape[0], self.B.shape[1]))
        self.D = _as_matrix(self.D, rows=self.C.shape[0], cols=self.B.shape[1])
        if min(self.n, self.m, self.p) < 1:
            raise ShapeMismatch("state, input, and output counts must be >= 1")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass
class PartitionedRealization:
    """State-space with the measured states first and output map [I_p 0].

    The hidden-state count h may be zero, in which case the coupling and
    hidden blocks are empty.
    """

    A11: np.ndarray
    A12: np.ndarray
    A21: np.ndarray
    A22: np.ndarray
    B1: np.ndarray
    B2: np.ndarray

    def __post_init__(self):
        self.A11 = _as_matrix(self.A11)
        p = self.A11.shape[0]
        if self.A11.shape[1] != p:
            raise ShapeMismatch("A11 must be square")
        self.A12 = np.asarray(self.A12, dtype=float).reshape(p, -1)
        h = self.A12.shape[1]
        self.A21 = np.asarray(self.A21, dtype=float).reshape(h, p)
        self.A22 = np.asarray(self.A22, dtype=float).reshape(h, h)
        self.B1 = _as_matrix(self.B1, rows=p)
        self.B2 = np.asarray(self.B2, dtype=float).reshape(h, self.B1.shape[1])

    @property
    def p(self) -> int:
        return self.A11.shape[0]

    @property
    def h(self) -> int:
        return self.A22.shape[0]

    @property
    def m(self) -> int:
        return self.B1.shape[1]

    @property
    def order(self) -> int:
        return self.p + self.h

    def assemble(self) -> StateSpace:
        """Full (A, B, [I_p 0]) system of order p + h."""
        p, h, m = self.p, self.h, self.m
        n = p + h
        A = np.zeros((n, n))
        A[:p, :p] = self.A11
        A[:p, p:] = self.A12
        A[p:, :p] = self.A21
        A[p:, p:] = self.A22
        B = np.zeros((n, m))
        B[:p] = self.B1
        B[p:] = self.B2
        C = np.hstack([np.eye(p), np.zeros((p, h))])
        return StateSpace(A, B, C)


def _char_poly(M: np.ndarray):
    """Ascending coefficients of det(sI - M) and of prod(s + |lam_k|).

    The second bounds the first coefficient by coefficient, so it is the
    scale of each coefficient's rounding error.
    """
    lam = np.linalg.eigvals(M)
    return np.atleast_1d(np.poly(lam).real)[::-1], np.atleast_1d(np.poly(-np.abs(lam)))[::-1]


def transfer_from_blocks(A, B, C, D) -> RationalMatrix:
    """C (sI - A)^(-1) B + D as a reduced rational matrix.

    Entry (i, j) comes from the minimal part (A_ij, b, c) of (A, b_j, c_i)
    that ``kalman_reduce`` leaves, so its numerator and denominator share
    no root.  By the matrix determinant lemma the numerator is
    char(A_ij - b c) - char(A_ij) + D_ij char(A_ij) over char(A_ij), each
    characteristic polynomial built from eigenvalues.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    n = A.shape[0]
    if n == 0:
        return RationalMatrix.from_real(D)
    B = np.asarray(B, dtype=float).reshape(n, -1)
    C = np.asarray(C, dtype=float).reshape(-1, n)
    out = []
    for i in range(D.shape[0]):
        row = []
        for j in range(D.shape[1]):
            Aij, b, c = kalman_reduce(A, B[:, [j]], C[[i]])
            char, char_scale = _char_poly(Aij)
            pert, pert_scale = _char_poly(Aij - b @ c)
            num = pert - char
            # a coefficient far below its summands' scale is cancellation noise
            num[np.abs(num) <= 1e-12 * np.maximum(char_scale, pert_scale)] = 0.0
            num = Polynomial(num + D[i, j] * char)
            row.append(_raw_ratfun(num, Polynomial([1.0]) if num.is_zero else Polynomial(char)))
        out.append(row)
    return RationalMatrix(out)


def transfer_function(ss: StateSpace) -> RationalMatrix:
    """Transfer function G(s) = C (sI - A)^(-1) B + D."""
    return transfer_from_blocks(ss.A, ss.B, ss.C, ss.D)


def output_normal_form(ss: StateSpace, tol_rank: float = TOL_RANK) -> PartitionedRealization:
    """Similarity transform to ([A], [B], [I_p 0]) preserving G.

    Uses T = [C; N] where the rows of N are an orthonormal basis of the
    complement of the row space of C.  Requires full row rank C and zero
    feedthrough.
    """
    if np.any(ss.D != 0.0):
        raise ValueError("output_normal_form requires zero feedthrough")
    p, n = ss.p, ss.n
    if p > n:
        raise ShapeMismatch("more outputs than states")
    U, sv, Vt = np.linalg.svd(ss.C)
    rank = _rank(sv, tol_rank)
    if rank < p:
        raise RankDeficientC(f"C has rank {rank} < p = {p}")
    T = np.vstack([ss.C, Vt[p:, :]])
    Tinv = np.linalg.inv(T)
    Ao = T @ ss.A @ Tinv
    Bo = T @ ss.B
    return PartitionedRealization(Ao[:p, :p], Ao[:p, p:], Ao[p:, :p], Ao[p:, p:],
                                  Bo[:p], Bo[p:])


def _rank(sv: np.ndarray, tol_rank: float, scale: float = None) -> int:
    """Numerical rank from singular values in descending order.

    A singular value counts when it exceeds ``tol_rank`` times ``scale``,
    by default the largest singular value.
    """
    ref = (sv[0] if sv.size else 0.0) if scale is None else scale
    return int(np.sum(sv > tol_rank * ref))


def _matrix_rank(M: np.ndarray, tol_rank: float = TOL_RANK) -> int:
    return _rank(np.linalg.svd(M, compute_uv=False), tol_rank)


def _reachable_basis(A: np.ndarray, B: np.ndarray, scale_b: float,
                     scale_a: float) -> np.ndarray:
    """Orthonormal basis of the reachable subspace of (A, B), by staircase.

    Each step adds the directions of the newest block that the basis does
    not yet span: first B, ranked against ``scale_b``, then A times the
    previous step's directions, ranked against ``scale_a``.  The search
    ends when a step adds nothing.
    """
    n = A.shape[0]
    Z = np.zeros((n, 0))
    X, scale = B, scale_b
    while X.shape[1] and Z.shape[1] < n:
        for _ in range(2):  # projecting twice keeps Z orthonormal to working precision
            X = X - Z @ (Z.T @ X)
        U, sv, _ = np.linalg.svd(X, full_matrices=False)
        r = _rank(sv, TOL_RANK, scale)
        if r == 0:
            break
        Z = np.hstack([Z, U[:, :r]])
        X, scale = A @ U[:, :r], scale_a
    return Z


def column_norms(M: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of M, with 1 for a zero column."""
    norms = np.linalg.norm(M, axis=0)
    norms[norms == 0.0] = 1.0
    return norms


def kalman_reduce(A, B, C):
    """Minimal part (A, B, C) of a state-space triple.

    The reachable subspace of (A, B) is kept, then the observable subspace
    of what remains, found as the reachable subspace of the dual
    (A^T, C^T); both are orthonormal staircases (Van Dooren 1981; Varga
    1981).  Each column of B and each row of C is divided by its norm
    before the rank decisions, so the units of an input or an output
    decide nothing.  Every rank is taken at TOL_RANK against the norm of
    the scaled B or C, or of A, so a block that projection has left at
    rounding level counts as zero.  The result has the same transfer
    C (sI - A)^(-1) B and its order is the McMillan degree, possibly zero.
    """
    scale_a = np.linalg.norm(A)
    Bs = B / column_norms(B)
    Z = _reachable_basis(A, Bs, np.linalg.norm(Bs), scale_a)
    Ar, Br, Cr = Z.T @ A @ Z, Z.T @ B, C @ Z
    c = column_norms(C.T)
    Z = _reachable_basis(Ar.T, Cr.T / c, np.linalg.norm(C.T / c), scale_a)
    return Z.T @ Ar @ Z, Z.T @ Br, Cr @ Z


def rank_factorization(K: np.ndarray, tol_rank: float = TOL_RANK):
    """Factor K = E F with E of full column rank, deterministic signs.

    E holds left singular vectors scaled by their singular values; each
    column is flipped so that the sign of its largest-magnitude entry
    equals the sign of the dominant entry of K's dominant column.
    """
    U, sv, Vt = np.linalg.svd(K)
    r = _rank(sv, tol_rank)
    E = U[:, :r] * sv[:r]
    F = Vt[:r, :].copy()
    if r == 0:
        return E, F, 0
    col_mags = np.max(np.abs(K), axis=0)
    dom_col = int(np.argmax(col_mags))
    dom_row = int(np.argmax(np.abs(K[:, dom_col])))
    want_negative = K[dom_row, dom_col] < 0
    for j in range(r):
        k = int(np.argmax(np.abs(E[:, j])))
        if (E[k, j] < 0) != want_negative:
            E[:, j] = -E[:, j]
            F[j, :] = -F[j, :]
    return E, F, r


def gilbert_from_pole_residue(prf: PoleResidueForm, tol_rank: float = TOL_RANK) -> StateSpace:
    """Minimal realization of sum_i K_i / (s - lam_i) + D, poles distinct.

    A is diagonal with each pole repeated rank(K_i) times; B and C stack
    the rank factorizations K_i = E_i F_i of the residue matrices; D is
    the constant.  A constant matrix has no dynamics; since a zero-state
    system cannot be represented, it gets one decoupled state.
    """
    p, m = prf.shape
    factors = [rank_factorization(K, tol_rank) for K in prf.residues]
    ranks = [r for _, _, r in factors]
    if not sum(ranks):
        # no dynamics: represent the constant gain with one decoupled state
        return StateSpace(np.array([[-1.0]]), np.zeros((1, m)),
                          np.zeros((p, 1)), prf.constant)
    return StateSpace(np.diag(np.repeat(prf.poles, ranks)),
                      np.vstack([F for _, F, _ in factors]),
                      np.hstack([E for E, _, _ in factors]), prf.constant)


def gilbert_realization(M: RationalMatrix, tol_pole: float = TOL_POLE,
                        tol_rank: float = TOL_RANK) -> StateSpace:
    """Minimal realization of a proper matrix with real simple poles.

    ``gilbert_from_pole_residue`` of the matrix's poles, residues and
    value at infinity.
    """
    return gilbert_from_pole_residue(to_pole_residue(M, tol_pole), tol_rank)


def mcmillan_degree(M: RationalMatrix, tol_pole: float = TOL_POLE,
                    tol_rank: float = TOL_RANK) -> int:
    """Sum of residue ranks of a proper matrix with real simple poles."""
    prf = to_pole_residue(M, tol_pole)
    return int(sum(_matrix_rank(K, tol_rank) for K in prf.residues))


def normal_rank(M: RationalMatrix, points=None, tol_rank: float = TOL_RANK) -> int:
    """Maximum evaluation rank over deterministic off-pole sample points."""
    if points is None:
        points = off_pole_points(np.concatenate([e.poles() for row in M.entries
                                                 for e in row]), 8)
    return max(_matrix_rank(rmat_eval(M, s), tol_rank) for s in points)


def _transfer_normal_rank(ss: StateSpace, tol_rank: float) -> int:
    """Normal rank of G(s), the largest rank at eight points beyond the spectrum.

    G is evaluated at all eight points by one stacked solve, and their
    ranks come from one stacked singular value decomposition.
    """
    s = np.asarray(off_pole_points(np.linalg.eigvals(ss.A), 8))
    pencil = s[:, None, None] * np.eye(ss.n) - ss.A
    G = ss.C @ np.linalg.solve(pencil, np.broadcast_to(ss.B, (s.size, *ss.B.shape))) + ss.D
    return max(_rank(sv, tol_rank) for sv in np.linalg.svd(G, compute_uv=False))


def _rosenbrock_rank_drops(ss: StateSpace, points, normal_rank_g: int,
                           tol_rank: float) -> np.ndarray:
    """Per point s0: rank [[A - s0 I, B], [C, D]] < n + normal_rank_g.

    The ranks at all points come from one stacked singular value
    decomposition.
    """
    s = np.asarray(points)
    n = ss.n
    R = np.block([[ss.A, ss.B], [ss.C, ss.D]])
    R = np.array(np.broadcast_to(R, (s.size, *R.shape)), dtype=np.result_type(R, s))
    R[:, range(n), range(n)] -= s[:, None]
    sv = np.linalg.svd(R, compute_uv=False)
    return np.array([_rank(x, tol_rank) < n + normal_rank_g for x in sv])


def is_invariant_zero(ss: StateSpace, s0, tol_rank: float = TOL_RANK) -> bool:
    """Rosenbrock rank test at the point s0.

    True iff rank [[A - s0 I, B], [C, D]] drops below n plus the normal
    rank of the transfer function, the latter the largest rank of G(s)
    at eight deterministic points beyond the spectral radius.  Both go
    through the batched helpers ``_zero_point_tests`` uses, here with
    the one point s0.
    """
    return bool(_rosenbrock_rank_drops(ss, [s0], _transfer_normal_rank(ss, tol_rank),
                                       tol_rank)[0])
