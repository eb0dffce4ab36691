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
eigendecomposition gives their poles and residues, and residues at or
below TOL_RANK times the row's largest (each relative to its input
column's norm) count as zero.  ``DSF.from_modes`` keeps them, as it keeps
those of a ``dsf_pole_residue`` file, so the minimal-order search finds
no root and evaluates no residue of a rational entry.  It builds no
rational entry either: ``Q`` and ``P`` of such a structure function are
built on first read (JSON output, ``boolean_structure``) and then kept.
``DSF`` judges repeated poles by one rule for every input: no entry may
have two poles in one pole of [Q P], the entries' poles chained at
``tol_pole``.
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
    RationalMatrix,
    chain_clusters,
    from_known_poles,
    merge_poles,
    off_pole_points,
    to_pole_residue,
)
from .sslib import (
    TOL_RANK,
    PartitionedRealization,
    column_norms,
    gilbert_from_pole_residue,
    kalman_reduce,
    transfer_from_blocks,
)

TOL_STRUCT = 1e-9


def _cluster_of(x, clusters) -> np.ndarray:
    """Index into ``clusters``, from ``chain_clusters``, of each value of ``x``."""
    return np.searchsorted([c[0] for c in clusters], x, side="right") - 1


def _entry_name(k: int, p: int, m: int) -> str:
    """Name of entry k of [Q P], counted row by row through Q, then through P."""
    if k < p * p:
        return f"Q[{k // p}][{k % p}]"
    i, j = divmod(k - p * p, m)
    return f"P[{i}][{j}]"


def _validated_poles(p: int, m: int, zero, improper, roots, owner, tol_pole: float) -> list:
    """The one rule on the entries of [Q P]; returns the poles of [Q P].

    Entry k is named by ``_entry_name``; ``zero[k]`` and ``improper[k]``
    say whether it is identically zero and whether it is not strictly
    proper.  ``roots`` holds the poles of every entry and ``owner`` the
    entry each belongs to.  Q's diagonal must be zero, every entry
    strictly proper and every pole real, and no entry may have two poles
    that chain, at ``tol_pole`` over the poles of all entries, into one
    pole of [Q P].  The poles of [Q P] are those chains, one mean each,
    ascending.
    """
    diag = np.arange(p) * (p + 1)
    nonzero = diag[~zero[diag]]
    if nonzero.size:
        raise ValueError(f"{_entry_name(int(nonzero[0]), p, m)} must be identically zero")
    if improper.any():
        raise ValueError(f"{_entry_name(int(np.argmax(improper)), p, m)} is not strictly proper")
    complex_ = np.abs(roots.imag) > tol_pole
    if complex_.any():
        raise ComplexPolesUnsupported(f"{_entry_name(int(owner[np.argmax(complex_)]), p, m)} "
                                      "has complex poles; only real poles are supported")
    clusters = chain_clusters(roots.real, tol_pole)
    hits = np.sort(owner * len(clusters) + _cluster_of(roots.real, clusters))
    twice = hits[1:][np.diff(hits) == 0]
    if twice.size:
        raise RepeatedPole(f"{_entry_name(int(twice[0]) // len(clusters), p, m)} has two "
                           "poles that chain into one pole of [Q P]")
    return [float(np.mean(c)) for c in clusters]


class DSF:
    """Dynamical structure function [Q, P] with validated invariants.

    ``poles`` holds the distinct poles of [Q P], ascending: the entries'
    poles chained at ``tol_pole`` by ``chain_clusters``, one mean each.
    Each entry's poles must be real, and no two of them may chain into one
    pole of [Q P]: the one repeated-pole rule, ``_validated_poles``.
    ``from_modes`` sets ``modes`` and ``residues``; they are None for
    rational entries, whose residues ``residue_at`` evaluates.  ``modes``
    is a pair (lam, R) with [Q P] = sum_n R_n / (s - lam_n): the entries'
    distinct poles, unchained, and their n x p x (p+m) residues.
    ``residues`` holds the residue matrices K_k of [Q P] at ``poles``,
    l x p x (p+m): K_k sums the R_n whose lam_n chain into pole k.  The
    rational entries ``Q`` and ``P`` of a ``from_modes`` structure
    function are built from ``modes`` on first read and then kept.
    """

    def __init__(self, Q: RationalMatrix, P: RationalMatrix, tol_pole: float = TOL_POLE):
        if Q.rows != Q.cols:
            raise ShapeMismatch("Q must be square")
        if P.rows != Q.rows:
            raise ShapeMismatch("P must have as many rows as Q")
        self._Q, self._P = Q, P
        self.p, self.m, self.tol_pole = Q.rows, P.cols, tol_pole
        self.modes = self.residues = None
        entries = [e for M in (Q, P) for row in M.entries for e in row]
        roots = [e.poles() for e in entries]
        self.poles = _validated_poles(
            self.p, self.m, np.array([e.is_zero for e in entries]),
            np.array([not e.is_strictly_proper for e in entries]), np.concatenate(roots),
            np.repeat(np.arange(len(roots)), [r.size for r in roots]), tol_pole)

    @classmethod
    def from_modes(cls, lam, R, tol_pole: float = TOL_POLE) -> "DSF":
        """[Q P] = sum_n R_n / (s - lam_n), with R n x p x (p+m).

        ``merge_poles`` sums and floors the residues as ``from_known_poles``
        does, so ``modes`` holds exactly the poles the entries keep: entry
        (i, j) has as poles the lam_n with R_n[i, j] != 0, which the one
        rule of ``DSF`` judges.  No rational entry is built here; ``Q`` and
        ``P`` come from one ``from_known_poles`` call on first read.
        """
        lam, R = merge_poles(np.asarray(lam, dtype=float), np.asarray(R, dtype=float))
        kept = np.any(R != 0.0, axis=(1, 2))
        lam, R = lam[kept], R[kept]
        d = cls.__new__(cls)  # __init__ validates rational entries, which wait here
        d._Q = d._P = None
        n, p, cols = R.shape
        d.p, d.m, d.tol_pole = p, cols - p, tol_pole
        d.modes = (lam, R)
        support = R != 0.0
        # one column per entry, Q's row by row and then P's, as _entry_name counts them
        support = np.hstack([support[:, :, :p].reshape(n, p * p),
                             support[:, :, p:].reshape(n, p * d.m)])
        owner, mode = np.nonzero(support.T)
        d.poles = _validated_poles(p, d.m, ~support.any(axis=0),
                                   np.zeros(support.shape[1], dtype=bool), lam[mode],
                                   owner, tol_pole)
        d.residues = np.zeros((len(d.poles), p, cols))
        np.add.at(d.residues, _cluster_of(lam, chain_clusters(lam, tol_pole)), R)
        return d

    def _build_entries(self):
        lam, R = self.modes
        QP = from_known_poles(PoleResidueForm(lam, R, np.zeros(R.shape[1:]))).entries
        self._Q = RationalMatrix([row[:self.p] for row in QP])
        self._P = RationalMatrix([row[self.p:] for row in QP])

    @property
    def Q(self) -> RationalMatrix:
        if self._Q is None:
            self._build_entries()
        return self._Q

    @property
    def P(self) -> RationalMatrix:
        if self._P is None:
            self._build_entries()
        return self._P

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
    arithmetic.  Eigenvectors with condition number above 1/TOL_RANK mark
    a defective eigenvalue, in a cyclic system a multiple pole, and raise
    RepeatedPole; a complex eigenvalue then raises ComplexPolesUnsupported.
    Residues at or below TOL_RANK times the row's largest are rounding
    noise and count as zero, each residue taken relative to the norm of
    its column of B_i, so that neither this floor nor the staircase
    depends on the units of an input or a coupling.  The rows' poles and
    residues, stacked, go to ``DSF.from_modes``; two of them in one entry
    and one chained pole of [Q P] are, in a cyclic row, a multiple pole.
    """
    p = part.p
    ss = part.assemble()
    hidden = list(range(p, part.order))
    lams, Rs = [], []
    for i in range(p):
        idx = [i, *hidden]
        others = [j for j in range(p) if j != i]
        B = np.hstack([ss.A[np.ix_(idx, others)], ss.B[idx]])
        norms = column_norms(B)
        A, B, C = kalman_reduce(ss.A[np.ix_(idx, idx)], B, np.eye(1, len(idx)))
        lam, V = np.linalg.eig(A)
        if lam.size > 1 and np.linalg.cond(V) > 1.0 / TOL_RANK:
            # a cyclic row has a defective eigenvalue only as a multiple pole
            raise RepeatedPole(f"row {i} of [Q P] has a repeated pole")
        if np.any(np.abs(lam.imag) > tol_pole):
            raise ComplexPolesUnsupported(
                f"row {i} of [Q P] has complex poles; only real poles are supported")
        R = ((C @ V).T * np.linalg.solve(V, B)).real
        scaled = np.abs(R) / norms
        R[scaled <= TOL_RANK * np.max(scaled, initial=0.0)] = 0.0
        block = np.zeros((lam.size, p, p + part.m))
        block[:, i] = np.insert(R, i, 0.0, axis=1)
        lams.append(lam.real)
        Rs.append(block)
    return DSF.from_modes(np.concatenate(lams), np.concatenate(Rs), tol_pole)


def dsf_to_transfer(d: DSF) -> RationalMatrix:
    """Transfer function G = (I - Q)^(-1) P.

    With a minimal realization [Q P] = C (sI - A)^(-1) [By Bu], the
    relation Y = Q Y + P U gives G = C (sI - A - By C)^(-1) Bu.  Closing
    the realization through the output avoids the repeated-factor blowup
    of a symbolic adjugate inversion.  The realization is Gilbert's, from
    ``d.poles`` and ``d.residues`` when d carries them, else from the
    poles and residues of the rational entries.
    """
    if d.residues is None:
        prf = to_pole_residue(d.qp(), d.tol_pole)
    else:
        prf = PoleResidueForm(d.poles, d.residues, np.zeros((d.p, d.p + d.m)))
    qp_ss = gilbert_from_pole_residue(prf)
    Acl = qp_ss.A + qp_ss.B[:, :d.p] @ qp_ss.C
    if not np.isfinite(Acl).all():
        raise SingularIminusQ("det(I - Q) is identically zero")
    return transfer_from_blocks(Acl, qp_ss.B[:, d.p:], qp_ss.C, np.zeros((d.p, d.m)))


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
    of lim s*Q is zero because Q's diagonal is.  With simple poles
    lim s*[Q P] is the sum of the residues, read from ``d.residues``
    when d carries them; for rational entries it is the ratio of the
    leading coefficients of each entry of relative degree one.
    """
    if d.residues is None:
        return StructureLimits(_limit_s_times(d.Q), _limit_s_times(d.P))
    lim = d.residues.sum(axis=0)
    return StructureLimits(lim[:, :d.p], lim[:, d.p:])


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
    d, of A22 and of each row system A_i, the principal submatrix of A
    on {i} and the hidden states.  Since
    det(sI - A_i) = det(sI - A22) (s - W_ii(s)), the eigenvalues of A_i
    hold every pole of row i of the realization's [Q P].  At each point
    [W V] = [A11 B1] + A12 (sI - A22)^(-1) [A21 B2], and row i of
    [Q P] is row i of [W V] with W_ii set to zero, divided by
    s - W_ii.  The structure function's side is sum_n R_n / (s - lam_n)
    over ``d.modes``, the entries' poles unchained, when d carries them,
    else each entry's value.  Entries f, g agree when
    |f - g| <= tol_eval * max(1, |f|, |g|).
    """
    if part.p != d.p or part.m != d.m:
        raise ShapeMismatch(
            f"realization is {part.p}x{part.m}, structure function {d.p}x{d.m}")
    p, h = part.p, part.h
    rows = np.array([[i, *range(p, p + h)] for i in range(p)])
    A_rows = part.assemble().A[rows[:, :, None], rows[:, None, :]]
    poles = [d.poles, np.linalg.eigvals(part.A22), np.linalg.eigvals(A_rows).ravel()]
    s = np.asarray(off_pole_points(np.concatenate(poles), 16))
    if d.modes is None:
        want = np.moveaxis(np.array([[e(s) for e in row] for row in d.qp().entries]), -1, 0)
    else:
        lam, R = d.modes
        want = np.tensordot(1.0 / (s[:, None] - lam), R, axes=1)
    rhs = np.broadcast_to(np.hstack([part.A21, part.B2]), (s.size, h, p + part.m))
    wv = np.hstack([part.A11, part.B1]) + part.A12 @ np.linalg.solve(
        s[:, None, None] * np.eye(h) - part.A22, rhs)
    diag = (slice(None), range(p), range(p))
    w_ii = wv[diag].copy()
    wv[diag] = 0.0
    got = wv / (s[:, None] - w_ii)[:, :, None]
    bound = tol_eval * np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
    return bool(np.all(np.abs(got - want) <= bound))
