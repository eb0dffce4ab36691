"""State-space models, transfer functions, and Gilbert realizations.

``transfer_from_blocks`` builds each entry c (sI - A)^(-1) b + d from
characteristic polynomials of the minimal part of (A, b, c),
det(sI - A + b c) - det(sI - A) over det(sI - A), each taken from
eigenvalues.  ``kalman_reduce`` finds the minimal part of a state-space
triple numerically, by an orthogonal staircase whose rank decisions are
``numerical_rank`` with ``TOL_RANK``.  Every rank decision here is taken at
``TOL_RANK``, but for the zero test (``rosenbrock_drops`` and
``is_invariant_zero``), which takes its tolerance as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientC, ShapeMismatch
from .ratcore import (
    PoleResidueForm,
    Polynomial,
    RationalMatrix,
    _raw_ratfun,
    _read,
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
    no root; the reachable part of (A, b_j) is found once per column.  By
    the matrix determinant lemma the numerator is
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
    reachable = [_reachable_part(A, B[:, [j]]) for j in range(D.shape[1])]
    out = []
    for i in range(D.shape[0]):
        row = []
        for j in range(D.shape[1]):
            Aij, b, c = _observable_part(A, C[[i]], *reachable[j])
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


def output_normal_form(ss: StateSpace) -> PartitionedRealization:
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
    rank = numerical_rank(sv, TOL_RANK)
    if rank < p:
        raise RankDeficientC(f"C has rank {rank} < p = {p}")
    T = np.vstack([ss.C, Vt[p:, :]])
    Tinv = np.linalg.inv(T)
    Ao = T @ ss.A @ Tinv
    Bo = T @ ss.B
    return PartitionedRealization(Ao[:p, :p], Ao[:p, p:], Ao[p:, :p], Ao[p:, p:],
                                  Bo[:p], Bo[p:])


def numerical_rank(sv: np.ndarray, tol_rank: float, scale: float = None):
    """Numerical rank from singular values in descending order.

    A singular value counts when it exceeds ``tol_rank`` times ``scale``,
    by default the largest singular value.  ``sv`` may be a stack, one
    matrix's singular values along the last axis; the ranks are then an
    array over the stack.  This is the one rank rule of the package.
    """
    ref = sv[..., :1] if scale is None else scale
    return np.add.reduce(sv > tol_rank * ref, axis=-1)


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
        r = numerical_rank(sv, TOL_RANK, scale)
        if r == 0:
            break
        Z = np.hstack([Z, U[:, :r]])
        X, scale = A @ U[:, :r], scale_a
    return Z


def column_norms(M: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of M, with 1 for a zero column.

    A stack of matrices gives the norms of each matrix's columns.
    """
    norms = np.linalg.norm(M, axis=-2)
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
    return _observable_part(A, C, *_reachable_part(A, B))


def _reachable_part(A, B):
    """Z^T A Z, Z^T B and Z, Z an orthonormal basis of the reachable subspace of (A, B)."""
    Bs = B / column_norms(B)
    Z = _reachable_basis(A, Bs, np.linalg.norm(Bs), np.linalg.norm(A))
    return Z.T @ A @ Z, Z.T @ B, Z


def _observable_part(A, C, Ar, Br, Z):
    """``kalman_reduce``'s second step, on the reachable part of (A, B) and a C."""
    Cr = C @ Z
    c = column_norms(C.T)
    Z = _reachable_basis(Ar.T, Cr.T / c, np.linalg.norm(C.T / c), np.linalg.norm(A))
    return Z.T @ Ar @ Z, Z.T @ Br, Cr @ Z


def factor_signs(K: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Sign, +1 or -1, that makes each column of E deterministic.

    A column is flipped when the sign of its largest-magnitude entry
    differs from the sign of the dominant entry of K's dominant column.
    K and E may be stacks, (..., p, q) and (..., p, r); the signs are
    (..., r), so ``E * signs[..., None, :]`` applies them.
    """
    lead, r = K.shape[:-2], E.shape[-1]
    K = K.reshape(-1, *K.shape[-2:])  # one stack axis, read by integer indexing
    k, E = np.arange(len(K)), E.reshape(len(K), *E.shape[-2:])
    mag = np.abs(K)
    dom_col = np.argmax(np.max(mag, axis=-2), axis=-1)
    dom = K[k, np.argmax(mag[k, :, dom_col], axis=-1), dom_col]
    peak = E[k[:, None], np.argmax(np.abs(E), axis=-2), np.arange(r)]
    return np.where((peak < 0) != (dom[:, None] < 0), -1.0, 1.0).reshape(*lead, r)


def rank_factorization(K: np.ndarray):
    """Factor K = E F with E of full column rank at ``TOL_RANK``, deterministic signs.

    E holds left singular vectors scaled by their singular values, each
    column signed by ``factor_signs``.
    """
    U, sv, Vt = np.linalg.svd(K)
    r = numerical_rank(sv, TOL_RANK)
    E = U[:, :r] * sv[:r]
    signs = factor_signs(K, E)
    return E * signs, Vt[:r] * signs[:, None], r


def gilbert_from_pole_residue(prf: PoleResidueForm) -> StateSpace:
    """Minimal realization of sum_i K_i / (s - lam_i) + D, poles distinct.

    A is diagonal with each pole repeated rank(K_i) times; B and C stack
    the rank factorizations K_i = E_i F_i of the residue matrices; D is
    the constant.  A constant matrix has no dynamics; since a zero-state
    system cannot be represented, it gets one decoupled state.
    """
    p, m = prf.shape
    factors = [rank_factorization(K) for K in prf.residues]
    ranks = [r for _, _, r in factors]
    if not sum(ranks):
        # no dynamics: represent the constant gain with one decoupled state
        return StateSpace(np.array([[-1.0]]), np.zeros((1, m)),
                          np.zeros((p, 1)), prf.constant)
    return StateSpace(np.diag(np.repeat(prf.poles, ranks)),
                      np.vstack([F for _, F, _ in factors]),
                      np.hstack([E for E, _, _ in factors]), prf.constant)


def gilbert_realization(M: RationalMatrix) -> StateSpace:
    """Minimal realization of a proper matrix with real simple poles.

    ``gilbert_from_pole_residue`` of the matrix's poles, residues and
    value at infinity.
    """
    return gilbert_from_pole_residue(to_pole_residue(M))


def mcmillan_degree(M: RationalMatrix) -> int:
    """Sum of residue ranks of a proper matrix with real simple poles.

    The residues are ranked as one stack.
    """
    prf = to_pole_residue(M)
    K = np.reshape(prf.residues, (-1, *prf.shape))
    return int(np.sum(numerical_rank(np.linalg.svd(K, compute_uv=False), TOL_RANK)))


def normal_rank(M: RationalMatrix) -> int:
    """Largest rank of M, at ``TOL_RANK``, at the eight ``off_pole_points`` of its poles.

    One ``rmat_eval`` at all eight, one stacked SVD.
    """
    points = off_pole_points(_read(M).roots, 8)
    sv = np.linalg.svd(rmat_eval(M, points), compute_uv=False)
    return int(np.max(numerical_rank(sv, TOL_RANK)))


def _pencils(A: np.ndarray, s: np.ndarray) -> np.ndarray:
    """s_k I - A, (..., points, n, n), for A (..., n, n) and each point of s (..., points).

    0 - A with s added on a view of the diagonal: for s > 0, s I - A bit for bit.
    """
    P = np.repeat(0.0 - A[..., None, :, :], s.shape[-1], axis=-3)
    np.einsum("...ii->...i", P)[...] += s[..., None]  # einsum's diagonal is a writable view
    return P


def _normal_ranks(A, B, C, D, tol_rank: float) -> np.ndarray:
    """Normal ranks of a stack of systems (A, B, C, D), one per leading index.

    The leading axes broadcast: a block every system shares may come once.
    Each system's G(s) is the largest rank at the eight ``off_pole_points``
    of its own spectrum; G is evaluated at every point of every system by
    one stacked solve, and the ranks come from one stacked singular value
    decomposition and one ``numerical_rank``.
    """
    s = off_pole_points(np.linalg.eigvals(A), 8)
    G = C[:, None] @ np.linalg.solve(_pencils(A, s), B[:, None]) + D[:, None]
    return numerical_rank(np.linalg.svd(G, compute_uv=False), tol_rank).max(axis=-1)


def _transfer_normal_rank(ss: StateSpace, tol_rank: float) -> int:
    """Normal rank of G(s), the largest rank at eight points beyond the spectrum.

    ``_normal_ranks`` of a stack of one.
    """
    return int(_normal_ranks(ss.A[None], ss.B[None], ss.C[None], ss.D[None], tol_rank)[0])


def rosenbrock_drops(A, B, C, D, s, tol_rank: float = TOL_RANK, *, normal=None) -> np.ndarray:
    """Rosenbrock rank test of a stack of systems, each at its own points.

    A, B, C and D hold the systems (A_k, B_k, C_k, D_k) along their first
    axis, which broadcasts as in ``_normal_ranks``, and ``s`` one row of
    points per system.  True where rank [[A_k - s I, B_k], [C_k, D_k]]
    drops below n plus the normal rank of system k's transfer function:
    ``normal``, one per system, when the caller has them, else
    ``_normal_ranks``.  The blocks are copied once into the matrices at
    all the points, whose ranks come from one stacked singular value
    decomposition and one ``numerical_rank`` at tol_rank; the verdicts
    are systems x points.
    """
    n = A.shape[-1]
    R = np.empty((*s.shape, n + C.shape[-2], n + B.shape[-1]), np.result_type(A, B, C, D, s))
    R[..., :n, :n], R[..., :n, n:], R[..., n:, :n], R[..., n:, n:] = (
        M[:, None] for M in (A, B, C, D))
    np.einsum("...ii->...i", R[..., :n, :n])[...] -= s[..., None]
    full = n + (_normal_ranks(A, B, C, D, tol_rank) if normal is None else normal)
    return numerical_rank(np.linalg.svd(R, compute_uv=False), tol_rank) < full[:, None]


def is_invariant_zero(ss, s, tol_rank: float = TOL_RANK):
    """Rosenbrock rank test at the point s, or at each point of an array s.

    True where rank [[A - s I, B], [C, D]] drops below n plus the normal
    rank of the transfer function, the latter the largest rank of G at
    eight deterministic points beyond the spectral radius: ``rosenbrock_drops``
    of a stack of one.  An array of points gives an array of verdicts.

    ``ss`` may also be a stack, a sequence of systems of one shape, with
    ``s`` holding one row of points per system: the verdicts are then an
    array, systems x points, each system tested at its own points against
    its own normal rank.
    """
    systems = [ss] if isinstance(ss, StateSpace) else ss
    s = np.asarray(s)
    drops = rosenbrock_drops(*(np.array([getattr(x, key) for x in systems]) for key in "ABCD"),
                             s.reshape(len(systems), -1), tol_rank)
    return drops.reshape(s.shape) if s.ndim else bool(drops[0, 0])
