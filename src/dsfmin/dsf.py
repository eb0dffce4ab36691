"""Dynamical structure functions of partitioned linear systems.

A dynamical structure function is the pair [Q, P] relating the Laplace
transforms of the measured outputs to themselves and to the inputs,
Y = Q Y + P U.  Q is strictly proper with a zero diagonal; P is strictly
proper.  In terms of the intermediate matrices W and V of a partitioned
realization (``compute_wv``), Q_ij = W_ij / (s - W_ii) and
P_ij = V_ij / (s - W_ii).

``compute_dsf`` does not form that quotient.  Row i of [Q P] is the
transfer of a row system with 1 + h states; an orthogonal staircase
(``sslib.kalman_reduce``) reduces it to the modes the row sees, an
eigendecomposition gives their poles and residues, residues at or below
TOL_RANK times the row's largest (each relative to its input column's
norm) count as zero, and ``from_pole_residue`` builds the row's entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexPolesUnsupported,
    RepeatedPole,
    ShapeMismatch,
    SingularIminusQ,
)
from .ratcore import (
    TOL_EVAL,
    TOL_POLE,
    PoleResidueForm,
    RationalFunction,
    RationalMatrix,
    chain_clusters,
    from_pole_residue,
    off_pole_points,
)
from .sslib import (
    TOL_RANK,
    PartitionedRealization,
    StateSpace,
    column_norms,
    gilbert_realization,
    kalman_reduce,
    transfer_from_blocks,
)

TOL_STRUCT = 1e-9


def _check_real_simple(M: RationalMatrix, tol_pole: float, label: str):
    for i in range(M.rows):
        for j in range(M.cols):
            r = M.entries[i][j].poles()
            if not r.size:
                continue
            if np.max(np.abs(r.imag)) > tol_pole:
                raise ComplexPolesUnsupported(
                    f"{label}[{i}][{j}] has complex poles; only real poles are supported")
            if len(chain_clusters(r.real, tol_pole)) < r.size:
                raise RepeatedPole(f"{label}[{i}][{j}] has a repeated pole")


@dataclass
class DSF:
    """Dynamical structure function [Q, P] with validated invariants."""

    Q: RationalMatrix
    P: RationalMatrix
    tol_pole: float = TOL_POLE

    def __post_init__(self):
        if self.Q.rows != self.Q.cols:
            raise ShapeMismatch("Q must be square")
        if self.P.rows != self.Q.rows:
            raise ShapeMismatch("P must have as many rows as Q")
        for i in range(self.Q.rows):
            if not self.Q.entries[i][i].is_zero:
                raise ValueError(f"Q[{i}][{i}] must be identically zero")
        for label, M in (("Q", self.Q), ("P", self.P)):
            for i in range(M.rows):
                for j in range(M.cols):
                    if not M.entries[i][j].is_strictly_proper:
                        raise ValueError(f"{label}[{i}][{j}] is not strictly proper")
        _check_real_simple(self.Q, self.tol_pole, "Q")
        _check_real_simple(self.P, self.tol_pole, "P")

    @property
    def p(self) -> int:
        return self.Q.rows

    @property
    def m(self) -> int:
        return self.P.cols

    def qp(self) -> RationalMatrix:
        """The p x (p+m) block row [Q P]."""
        return RationalMatrix.hstack(self.Q, self.P)


@dataclass
class StructureLimits:
    """High-frequency limits: off-diagonal of A11 and the B1 block."""

    A11_offdiag: np.ndarray
    B1: np.ndarray


@dataclass
class BooleanStructure:
    """Nonzero pattern of [Q, P]: direct causal links among measured
    states (q_adj, zero diagonal) and from inputs (p_adj)."""

    q_adj: np.ndarray
    p_adj: np.ndarray


def compute_wv(part: PartitionedRealization):
    """Intermediate rational matrices of a partitioned realization.

    W = A11 + A12 (sI - A22)^(-1) A21 and
    V = B1  + A12 (sI - A22)^(-1) B2, sharing one resolvent of A22.
    """
    W = transfer_from_blocks(part.A22, part.A21, part.A12, part.A11)
    V = transfer_from_blocks(part.A22, part.B2, part.A12, part.B1)
    return W, V


def compute_dsf(part: PartitionedRealization, tol_pole: float = TOL_POLE) -> DSF:
    """Dynamical structure function of a partitioned realization.

    Row i of [Q P] is the transfer from (y_j for j != i, u) to y_i of the
    row system on measured state i and the hidden states:
    A_i = A[idx, idx], B_i = [A[idx, j != i], B[idx]] and C_i = e_1 with
    idx = [i, p, ..., n-1].  ``kalman_reduce`` drops the modes the row
    cannot see, so what remains is minimal and, having one output, cyclic.
    An eigendecomposition A_min = V diag(lam) V^(-1) then gives the row's
    poles and residues (C_min v_k) (V^(-1) B_min)_k, with no rational
    arithmetic.  A complex eigenvalue raises ComplexPolesUnsupported.
    Residues at or below TOL_RANK times the row's largest are rounding
    noise and count as zero, each residue taken relative to the norm of
    its column of B_i, so that neither this floor nor the staircase
    depends on the units of an input or a coupling.  Two eigenvalues
    within ``tol_pole`` that both keep a residue in one column raise
    RepeatedPole: in a cyclic system they are a multiple pole of that
    entry, as DSF's per-entry rule has it.  ``from_pole_residue`` builds
    the row's entries and DSF validates them.
    """
    p = part.p
    ss = part.assemble()
    hidden = list(range(p, part.order))
    zero = RationalFunction([0.0])
    Q, P = [], []
    for i in range(p):
        idx = [i, *hidden]
        others = [j for j in range(p) if j != i]
        B = np.hstack([ss.A[np.ix_(idx, others)], ss.B[idx]])
        norms = column_norms(B)
        A, B, C = kalman_reduce(ss.A[np.ix_(idx, idx)], B, np.eye(1, len(idx)))
        lam, V = np.linalg.eig(A)
        if np.any(np.abs(lam.imag) > tol_pole):
            raise ComplexPolesUnsupported(
                f"row {i} of [Q P] has complex poles; only real poles are supported")
        R = ((C @ V).T * np.linalg.solve(V, B)).real
        scaled = np.abs(R) / norms
        R[scaled <= TOL_RANK * np.max(scaled, initial=0.0)] = 0.0
        if len(chain_clusters(lam.real, tol_pole)) < lam.size:
            # close poles of a row are repeated only where one entry has both
            for col in R.T:
                seen = lam.real[col != 0.0]
                if len(chain_clusters(seen, tol_pole)) < seen.size:
                    raise RepeatedPole(f"row {i} of [Q P] has a repeated pole")
        row = from_pole_residue(PoleResidueForm(
            lam.real, R[:, None, :], np.zeros((1, R.shape[1])))).entries[0]
        Q.append([*row[:i], zero, *row[i:p - 1]])
        P.append(row[p - 1:])
    return DSF(RationalMatrix(Q), RationalMatrix(P), tol_pole)


def transfer_realization(d: DSF) -> StateSpace:
    """A realization (A + By C, Bu, C) of G = (I - Q)^(-1) P.

    With a minimal realization [Q P] = C (sI - A)^(-1) [By Bu], the
    relation Y = Q Y + P U gives G = C (sI - A - By C)^(-1) Bu.  The
    result need not be minimal: Bu may not reach every mode.
    """
    qp_ss = gilbert_realization(d.qp(), d.tol_pole)
    By = qp_ss.B[:, :d.p]
    Bu = qp_ss.B[:, d.p:]
    Acl = qp_ss.A + By @ qp_ss.C
    if not np.isfinite(Acl).all():
        raise SingularIminusQ("det(I - Q) is identically zero")
    return StateSpace(Acl, Bu, qp_ss.C)


def dsf_to_transfer(d: DSF) -> RationalMatrix:
    """Transfer function G = (I - Q)^(-1) P.

    Computed from ``transfer_realization``, closing a minimal realization
    of [Q P] through the output.  This avoids the repeated-factor blowup
    of a symbolic adjugate inversion.
    """
    ss = transfer_realization(d)
    return transfer_from_blocks(ss.A, ss.B, ss.C, ss.D)


def _limit_s_times(M: RationalMatrix) -> np.ndarray:
    """Entrywise lim s*M(s) as s -> infinity for strictly proper M.

    Only entries of relative degree one contribute: the ratio of the
    leading coefficients of their reduced numerator and denominator.
    """
    out = np.zeros(M.shape)
    for i, row in enumerate(M.entries):
        for j, e in enumerate(row):
            if e.relative_degree() == 1:
                out[i, j] = e.num.lead / e.den.lead
    return out


def structure_limits(d: DSF) -> StructureLimits:
    """High-frequency limits lim s*Q and lim s*P.

    These recover the off-diagonal of A11 and the B1 block of any
    realization consistent with the structure function; the diagonal
    of lim s*Q is zero because Q's diagonal is.
    """
    return StructureLimits(_limit_s_times(d.Q), _limit_s_times(d.P))


def boolean_structure(d: DSF, tol_struct: float = TOL_STRUCT) -> BooleanStructure:
    """Boolean adjacency of [Q, P].

    An entry counts as present when its reduced numerator has a
    coefficient above tol_struct relative to the largest numerator
    coefficient across both matrices.
    """
    def peak(M):
        return max(float(np.max(np.abs(e.num.coeffs)))
                   for row in M.entries for e in row)

    scale = max(peak(d.Q), peak(d.P))
    thr = tol_struct * scale

    def adj(M):
        out = np.zeros(M.shape, dtype=bool)
        for i in range(M.rows):
            for j in range(M.cols):
                out[i, j] = float(np.max(np.abs(M.entries[i][j].num.coeffs))) > thr
        return out

    return BooleanStructure(adj(d.Q), adj(d.P))


def consistency_check(part: PartitionedRealization, d: DSF,
                      tol_eval: float = TOL_EVAL) -> bool:
    """True iff the realization reproduces the structure function.

    Both sides are compared by value at 16 points beyond every pole of
    d's entries, of A22 and of each row system A_i, the principal
    submatrix of A on {i} and the hidden states.  Since
    det(sI - A_i) = det(sI - A22) (s - W_ii(s)), the eigenvalues of A_i
    hold every pole of row i of the realization's [Q P].  At each point
    [W V] = [A11 B1] + A12 (sI - A22)^(-1) [A21 B2], and row i of
    [Q P] is row i of [W V] with W_ii set to zero, divided by
    s - W_ii.  Entries f, g agree when
    |f - g| <= tol_eval * max(1, |f|, |g|).
    """
    if part.p != d.p or part.m != d.m:
        raise ShapeMismatch(
            f"realization is {part.p}x{part.m}, structure function {d.p}x{d.m}")
    p, h = part.p, part.h
    qp = d.qp().entries
    rows = np.array([[i, *range(p, p + h)] for i in range(p)])
    A_rows = part.assemble().A[rows[:, :, None], rows[:, None, :]]
    poles = [e.poles() for row in qp for e in row]
    poles += [np.linalg.eigvals(part.A22), np.linalg.eigvals(A_rows).ravel()]
    s = np.asarray(off_pole_points(np.concatenate(poles), 16))
    want = np.moveaxis(np.array([[e(s) for e in row] for row in qp]), -1, 0)
    rhs = np.broadcast_to(np.hstack([part.A21, part.B2]), (s.size, h, p + part.m))
    wv = np.hstack([part.A11, part.B1]) + part.A12 @ np.linalg.solve(
        s[:, None, None] * np.eye(h) - part.A22, rhs)
    diag = (slice(None), range(p), range(p))
    w_ii = wv[diag].copy()
    wv[diag] = 0.0
    got = wv / (s[:, None] - w_ii)[:, :, None]
    bound = tol_eval * np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
    return bool(np.all(np.abs(got - want) <= bound))
