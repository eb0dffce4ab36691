"""Dynamical structure functions of partitioned linear systems.

A dynamical structure function is the pair [Q, P] relating the Laplace
transforms of the measured outputs to themselves and to the inputs,
Y = Q Y + P U.  Q is strictly proper with a zero diagonal; P is strictly
proper.  Both are derived from a partitioned realization through the
intermediate matrices W and V.
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
    S_POLY,
    TOL_EVAL,
    TOL_POLE,
    RationalFunction,
    RationalMatrix,
    chain_clusters,
    off_pole_points,
)
from .sslib import PartitionedRealization, gilbert_realization, transfer_from_blocks

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

    With R = diag(W), Q = (sI - R)^(-1)(W - R) and P = (sI - R)^(-1) V;
    since sI - R is diagonal the inverse acts row by row.  Construction
    validates the invariants, so repeated or complex poles raise.
    """
    W, V = compute_wv(part)
    p, m = part.p, part.m
    s = RationalFunction(S_POLY)
    zero = RationalFunction([0.0])
    Q_rows, P_rows = [], []
    for i in range(p):
        gap = s - W.entries[i][i]
        Q_rows.append([zero if i == j else W.entries[i][j] / gap for j in range(p)])
        P_rows.append([V.entries[i][j] / gap for j in range(m)])
    return DSF(RationalMatrix(Q_rows), RationalMatrix(P_rows), tol_pole)


def dsf_to_transfer(d: DSF) -> RationalMatrix:
    """Transfer function G = (I - Q)^(-1) P.

    Computed by closing a minimal realization of [Q P] through the
    output: with [Q P] = C (sI - A)^(-1) [By Bu], the relation
    Y = Q Y + P U gives G = C (sI - A - By C)^(-1) Bu.  This avoids the
    repeated-factor blowup of a symbolic adjugate inversion.
    """
    qp_ss = gilbert_realization(d.qp(), d.tol_pole)
    By = qp_ss.B[:, :d.p]
    Bu = qp_ss.B[:, d.p:]
    Acl = qp_ss.A + By @ qp_ss.C
    if not np.isfinite(Acl).all():
        raise SingularIminusQ("det(I - Q) is identically zero")
    return transfer_from_blocks(Acl, Bu, qp_ss.C, np.zeros((d.p, d.m)))


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
