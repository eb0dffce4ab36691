"""Dynamical structure functions of partitioned linear systems.

A dynamical structure function is the pair [Q, P] relating the Laplace
transforms of the measured outputs to themselves and to the inputs,
Y = Q Y + P U.  Q is strictly proper with a zero diagonal; P is strictly
proper.  In terms of the intermediate matrices W and V of a partitioned
realization (``compute_wv``), Q_ij = W_ij / (s - W_ii) and
P_ij = V_ij / (s - W_ii).

``compute_dsf`` does not form that quotient.  Row i of [Q P] is the
transfer of a row system with 1 + h states.  One eigendecomposition of
all p row systems, stacked, gives their poles and residues, and residues
at or below TOL_RANK times the row's largest (each relative to its input
column's norm) count as zero, which drops the modes a row cannot see.  A
row whose eigenbasis cannot be trusted for that (two eigenvalues whose
real parts lie within ``tol_pole``, as a complex pair's do, or an
ill-conditioned eigenbasis) or that sees nothing above rounding level
is first reduced to the modes it sees by an orthogonal staircase
(``sslib.kalman_reduce``).
``DSF.from_modes`` keeps the rows' poles and residues, as it keeps those
of a ``dsf_pole_residue`` file, and builds no rational entry; ``qp()``
builds [Q P] on first use.  ``DSF(Q, P)`` evaluates each residue of
its rational entries once, when built, so every consumer of a ``DSF``
reads ``d.residues``; it reads its [Q P] once (``ratcore._read``), and
the entries are not mutated after construction.  Either way a ``DSF``
holds [Q P] as one matrix, built once, and ``Q`` and ``P`` are slices
of it.  ``DSF`` judges repeated poles by one rule for every input: no
entry may have two poles in one pole of [Q P], the entries' poles
chained at ``tol_pole``.  It numbers the entries row by row over
[Q P], as ``ratcore`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexPolesUnsupported,
    RepeatedPole,
    ShapeMismatch,
)
from .ratcore import (
    TOL_EVAL,
    TOL_POLE,
    PoleResidueForm,
    RationalMatrix,
    _read,
    chain_clusters,
    from_known_poles,
    merge_poles,
    off_pole_points,
    residue_at,
    rmat_eval,
    values_agree,
)
from .sslib import (
    TOL_RANK,
    PartitionedRealization,
    _pencils,
    column_norms,
    gilbert_from_pole_residue,
    kalman_reduce,
    transfer_from_blocks,
)

TOL_STRUCT = 1e-9


def _entry_name(k: int, p: int, m: int) -> str:
    """Name of entry k of [Q P], counted row by row, as ``_flat`` counts."""
    i, j = divmod(k, p + m)
    return f"Q[{i}][{j}]" if j < p else f"P[{i}][{j - p}]"


def _validated_poles(p: int, m: int, zero, improper, roots, owner, tol_pole: float,
                     clusters: list) -> tuple:
    """The one rule on the entries of [Q P]; returns its poles and each root's chain.

    Entry k is named by ``_entry_name``; ``zero[k]`` and ``improper[k]``
    say whether it is identically zero and whether it is not strictly
    proper.  ``roots`` holds the poles of every entry and ``owner`` the
    entry each belongs to; ``clusters`` is their real ones chained at
    ``tol_pole`` by ``chain_clusters``.  Q's diagonal must be zero, every
    entry strictly proper and every pole real, and no entry may have two
    poles that chain into one pole of [Q P].  The poles of [Q P] are
    those chains, one mean each, ascending; the second result gives, for
    each root, the index of its chain among them.
    """
    diag = np.arange(p) * (p + m + 1)
    nonzero = diag[~zero[diag]]
    if nonzero.size:
        raise ValueError(f"{_entry_name(int(nonzero[0]), p, m)} must be identically zero")
    if improper.any():
        raise ValueError(f"{_entry_name(int(np.argmax(improper)), p, m)} is not strictly proper")
    complex_ = np.abs(roots.imag) > tol_pole
    if complex_.any():
        raise ComplexPolesUnsupported(f"{_entry_name(int(owner[np.argmax(complex_)]), p, m)} "
                                      "has complex poles; only real poles are supported")
    heads = np.array([c[0] for c in clusters])
    chain = np.searchsorted(heads, roots.real, side="right") - 1
    hits = np.sort(owner * heads.size + chain)
    twice = hits[1:][hits[1:] == hits[:-1]]
    if twice.size:
        raise RepeatedPole(f"{_entry_name(int(twice[0]) // heads.size, p, m)} has two "
                           "poles that chain into one pole of [Q P]")
    return [float(np.add.reduce(c) / c.size) for c in clusters], chain  # np.mean, unwrapped


class DSF:
    """Dynamical structure function [Q, P] with validated invariants.

    ``poles`` holds the distinct poles of [Q P], ascending: the entries'
    poles chained at ``tol_pole`` by ``chain_clusters``, one mean each.
    Each entry's poles must be real, and no two of them may chain into one
    pole of [Q P]: the one repeated-pole rule, ``_validated_poles``.
    ``residues`` holds the residue matrices K_k of [Q P] at ``poles``,
    l x p x (p+m).  ``DSF(Q, P)`` evaluates each with ``residue_at`` and
    sets ``modes`` to None; its zero and strictly-proper flags, its poles
    and each ``residue_at`` call read what one ``ratcore._read`` of
    ``qp()`` kept: the entries' roots, their chains at ``tol_pole`` and
    each root's residue quotient.  ``from_modes`` keeps ``modes``, a pair
    (lam, R) with [Q P] = sum_n R_n / (s - lam_n): the entries' distinct
    poles, unchained, and their n x p x (p+m) residues; K_k sums the R_n
    whose lam_n chain into pole k.  Both number the entries row by row
    over [Q P], as ``_flat`` does, and an error names the first bad one.
    ``qp()`` is one matrix, built once: ``DSF(Q, P)`` stacks Q and P,
    ``from_modes`` builds it from ``modes`` on first use; ``Q`` and ``P``
    are sliced from it on first read and then kept.
    """

    def __init__(self, Q: RationalMatrix, P: RationalMatrix, tol_pole: float = TOL_POLE):
        if Q.rows != Q.cols:
            raise ShapeMismatch("Q must be square")
        if P.rows != Q.rows:
            raise ShapeMismatch("P must have as many rows as Q")
        self._Q = self._P = None
        self._qp = RationalMatrix.hstack(Q, P)
        self.p, self.m, self.tol_pole = Q.rows, P.cols, tol_pole
        self.modes = None
        read = _read(self._qp)
        self.poles = _validated_poles(self.p, self.m, read.zero, read.improper, read.roots,
                                      read.owner, tol_pole, read.chains(tol_pole))[0]
        self.residues = np.array([residue_at(self._qp, lam, tol_pole) for lam in self.poles]
                                 ).reshape(len(self.poles), self.p, self.p + self.m)

    @classmethod
    def from_modes(cls, lam, R, tol_pole: float = TOL_POLE) -> "DSF":
        """[Q P] = sum_n R_n / (s - lam_n), with R n x p x (p+m).

        ``merge_poles`` sums and floors the residues as ``from_known_poles``
        does, so ``modes`` holds exactly the poles the entries keep: entry
        (i, j) has as poles the lam_n with R_n[i, j] != 0, which the one
        rule of ``DSF`` judges.  No rational entry is built here; ``qp()``
        builds them with one ``from_known_poles`` call on first use.
        """
        lam, R = merge_poles(np.asarray(lam, dtype=float), np.asarray(R, dtype=float))
        kept = (R != 0.0).any(axis=(1, 2))
        lam, R = lam[kept], R[kept]
        d = cls.__new__(cls)  # __init__ validates rational entries, which wait here
        d._Q = d._P = d._qp = None
        n, p, cols = R.shape
        d.p, d.m, d.tol_pole = p, cols - p, tol_pole
        d.modes = (lam, R)
        flat = R.reshape(n, p * cols)  # column k is entry k of [Q P], as _flat counts
        owner, mode = np.nonzero(flat.T)
        roots = lam[mode]
        d.poles, chain = _validated_poles(p, d.m, ~flat.any(axis=0),
                                          np.zeros(p * cols, dtype=bool), roots, owner,
                                          tol_pole, chain_clusters(roots, tol_pole))
        d.residues = np.zeros((len(d.poles), p, cols))
        # no entry has two roots in a chain
        d.residues.reshape(len(d.poles), p * cols)[chain, owner] = flat[mode, owner]
        return d

    @property
    def Q(self) -> RationalMatrix:
        if self._Q is None:
            self._Q = RationalMatrix([row[:self.p] for row in self.qp().entries])
        return self._Q

    @property
    def P(self) -> RationalMatrix:
        if self._P is None:
            self._P = RationalMatrix([row[self.p:] for row in self.qp().entries])
        return self._P

    def qp(self) -> RationalMatrix:
        """The p x (p+m) block row [Q P], built once."""
        if self._qp is None:
            lam, R = self.modes
            self._qp = from_known_poles(PoleResidueForm(lam, R, np.zeros(R.shape[1:])))
        return self._qp


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
    V = B1  + A12 (sI - A22)^(-1) B2, one ``transfer_from_blocks`` call each.
    """
    W = transfer_from_blocks(part.A22, part.A21, part.A12, part.A11)
    V = transfer_from_blocks(part.A22, part.B2, part.A12, part.B1)
    return W, V


def _row_matrices(A11, A12, A21, A22) -> np.ndarray:
    """A_i = [[A11[i, i], A12[i]], [A21[:, i], A22]] for each measured state i.

    A_i is A[idx, idx], idx = [i, p, ..., n-1]: the principal submatrix on
    measured state i and the hidden states.  The blocks may carry leading
    stack axes; the A_i come stacked over them and over i,
    ... x p x (1+h) x (1+h).
    """
    p, h = A12.shape[-2:]
    A = np.empty((*A12.shape[:-2], p, 1 + h, 1 + h))
    A[..., 0, 0] = np.diagonal(A11, axis1=-2, axis2=-1)
    A[..., 0, 1:] = A12
    A[..., 1:, 0] = np.swapaxes(A21, -2, -1)
    A[..., 1:, 1:] = A22[..., None, :, :]
    return A


def _row_systems(part: PartitionedRealization):
    """The row systems of a partition, stacked over the measured states.

    Row i of [Q P] is the transfer from (y_j for j != i, u) to y_i of the
    system on measured state i and the hidden states: A_i of
    ``_row_matrices``, B_i = [A[idx, j != i], B[idx]] and C_i = e_1, with
    idx = [i, p, ..., n-1].  Returns A_i, p x (1+h) x (1+h), and B_i,
    p x (1+h) x (p-1+m), each copied from the blocks.
    """
    p = part.p
    c = np.arange(p - 1)
    others = c + (c >= np.arange(p)[:, None])  # row i: the columns j != i
    B = np.empty((p, 1 + part.h, p - 1 + part.m))
    B[:, 0, :p - 1] = part.A11.ravel()[:-1].reshape(p - 1, p + 1)[:, 1:].reshape(p, p - 1)
    B[:, 1:, :p - 1] = np.swapaxes(part.A21[:, others], 0, 1)
    B[:, 0, p - 1:] = part.B1
    B[:, 1:, p - 1:] = part.B2
    return _row_matrices(part.A11, part.A12, part.A21, part.A22), B


def _floor_residues(R: np.ndarray, norms: np.ndarray):
    """Zero the residues of each row at or below TOL_RANK times its largest.

    R holds the residues of one row or of a stack of rows, modes x
    columns each, and ``norms`` the norms of the columns of each B_i,
    relative to which every residue is judged.  Returns R and each row's
    largest residue so judged.
    """
    scaled = np.abs(R) / norms[..., None, :]
    peak = scaled.max(axis=(-2, -1), keepdims=True, initial=0.0)
    R[scaled <= TOL_RANK * peak] = 0.0
    return R, peak[..., 0, 0]


def _in_qp(rows: np.ndarray, R: np.ndarray, p: int) -> np.ndarray:
    """Residues R[k] of row rows[k] as residue matrices of [Q P].

    R is rows x modes x (p-1+m), its columns those of B_i, which skip
    Q's diagonal; the result is (rows * modes) x p x (p+m).
    """
    k, n, q = R.shape
    c = np.arange(q)
    cols = c + (c >= rows[:, None])
    out = np.zeros((k, n, p, q + 1))
    out[np.arange(k)[:, None, None], np.arange(n)[:, None], rows[:, None, None],
        cols[:, None, :]] = R
    return out.reshape(k * n, p, q + 1)


def _safe_rows(lam: np.ndarray, V: np.ndarray, tol_pole: float) -> np.ndarray:
    """Rows whose unreduced eigenbasis may give their poles and residues.

    ``lam`` and ``V`` are the stacked eigenvalues and eigenvectors of the
    row systems.  A row is safe when no two real parts of its eigenvalues
    lie within ``tol_pole`` of each other and cond(V_i) <= 1/TOL_RANK;
    ``compute_dsf`` says why.
    """
    lam = np.sort(lam.real, axis=1)
    return (lam[:, 1:] - lam[:, :-1] > tol_pole).all(axis=1) & (np.linalg.cond(V) <= 1.0 / TOL_RANK)


def _reduced_row(i: int, A: np.ndarray, B: np.ndarray, tol_pole: float):
    """Poles and residues of row i from its minimal part, by ``kalman_reduce``."""
    A, B, C = kalman_reduce(A, B, np.eye(1, A.shape[0]))
    lam, V = np.linalg.eig(A)
    if lam.size > 1 and np.linalg.cond(V) > 1.0 / TOL_RANK:
        # a cyclic row has a defective eigenvalue only as a multiple pole
        raise RepeatedPole(f"row {i} of [Q P] has a repeated pole")
    if np.any(np.abs(lam.imag) > tol_pole):
        raise ComplexPolesUnsupported(
            f"row {i} of [Q P] has complex poles; only real poles are supported")
    return lam.real, ((C @ V).T * np.linalg.solve(V, B)).real


def compute_dsf(part: PartitionedRealization, tol_pole: float = TOL_POLE) -> DSF:
    """Dynamical structure function of a partitioned realization.

    Row i of [Q P] is the transfer of the row system (A_i, B_i, e_1) of
    ``_row_systems``, with 1 + h states.  One eigendecomposition of all
    the A_i, stacked, A_i = V_i diag(lam_i) V_i^(-1), gives every row's
    poles and residues (e_1 V_i)^T o (V_i^(-1) B_i), with no reduction and
    no rational arithmetic: a mode the row cannot see gets a residue at
    rounding level, which the floor below drops.  That needs a safe
    eigenbasis, so a row goes through the staircase, ``kalman_reduce``,
    instead when
      - the real parts of two eigenvalues lie within ``tol_pole``: two
        hidden modes at one pole, of which the row may see one, make one
        simple pole only in the minimal part, and only the minimal part
        shows whether the row sees a complex mode or drops it (the A_i
        are real, so a complex eigenvalue comes with its conjugate, of
        the same real part);
      - cond(V_i) > 1/TOL_RANK: a defective eigenvalue is a multiple pole
        only if the row sees its whole Jordan block;
      - its largest residue, relative to its column of B_i, is at or
        below TOL_RANK: a floor relative to that largest would keep
        rounding noise as modes, so the staircase's rank tests decide
        what such a row sees.
    The staircase leaves the minimal part, which has one output and so
    is cyclic; there eigenvectors with condition number above 1/TOL_RANK
    mark a multiple pole and raise RepeatedPole, and a complex eigenvalue
    raises ComplexPolesUnsupported.  On either path residues at or below
    TOL_RANK times the row's largest count as zero, each taken relative
    to the norm of its column of B_i, so that neither this floor nor the
    staircase depends on the units of an input or a coupling.  The rows'
    poles and residues, stacked, go to ``DSF.from_modes``; two of them in
    one entry and one chained pole of [Q P] are, in a cyclic row, a
    multiple pole.
    """
    p = part.p
    A, B = _row_systems(part)
    norms = column_norms(B)
    lam, V = np.linalg.eig(A)
    safe = _safe_rows(lam, V, tol_pole)
    rows = safe.nonzero()[0]
    V = V[rows].real
    R, peak = _floor_residues(V[:, 0, :, None] * np.linalg.solve(V, B[rows]), norms[rows])
    # a row that sees nothing above rounding level is for the staircase to judge
    safe[rows[peak <= TOL_RANK]] = False
    lams = [lam[safe].real.ravel()]
    Rs = [_in_qp(safe.nonzero()[0], R[peak > TOL_RANK], p)]
    for i in (~safe).nonzero()[0]:
        lam_i, R_i = _reduced_row(i, A[i], B[i], tol_pole)
        lams.append(lam_i)
        Rs.append(_in_qp(np.array([i]), _floor_residues(R_i, norms[i])[0][None], p))
    return DSF.from_modes(np.concatenate(lams), np.concatenate(Rs), tol_pole)


def dsf_to_transfer(d: DSF) -> RationalMatrix:
    """Transfer function G = (I - Q)^(-1) P.

    With a minimal realization [Q P] = C (sI - A)^(-1) [By Bu], the
    relation Y = Q Y + P U gives G = C (sI - A - By C)^(-1) Bu.  Closing
    the realization through the output avoids the repeated-factor blowup
    of a symbolic adjugate inversion.  The realization is Gilbert's, from
    ``d.poles`` and ``d.residues``.
    """
    prf = PoleResidueForm(d.poles, d.residues, np.zeros((d.p, d.p + d.m)))
    qp_ss = gilbert_from_pole_residue(prf)
    Acl = qp_ss.A + qp_ss.B[:, :d.p] @ qp_ss.C
    return transfer_from_blocks(Acl, qp_ss.B[:, d.p:], qp_ss.C, np.zeros((d.p, d.m)))


def structure_limits(d: DSF) -> StructureLimits:
    """High-frequency limits lim s*Q and lim s*P.

    These recover the off-diagonal of A11 and the B1 block of any
    realization consistent with the structure function; the diagonal
    of lim s*Q is zero because Q's diagonal is.  With simple poles
    lim s*[Q P] is the sum of the residues, ``d.residues``.
    """
    lim = d.residues.sum(axis=0)
    return StructureLimits(lim[:, :d.p], lim[:, d.p:])


def boolean_structure(d: DSF) -> BooleanStructure:
    """Boolean adjacency of [Q, P].

    An entry counts as present when its largest residue exceeds
    ``TOL_STRUCT`` (1e-9) times the largest over [Q P].  Unlike numerator
    coefficients, residues do not scale with the product of an entry's
    poles, so fast poles in one entry hide no slow link in another.
    """
    peak = np.max(np.abs(d.residues), axis=0, initial=0.0)
    present = peak > TOL_STRUCT * np.max(peak, initial=0.0)
    return BooleanStructure(present[:, :d.p], present[:, d.p:])


def consistency_check(part, d: DSF, tol_eval: float = TOL_EVAL):
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
    else the entries' values, one ``rmat_eval`` at all the points: the
    input as given, not ``d.residues`` converted from it, whose error
    (8e-8 relative at 12 poles per entry) would otherwise pass unseen.
    The two sides are judged by ``values_agree``.

    ``part`` may also be a stack, a sequence of realizations with one
    number of hidden states; the verdicts are then a list.  Each member
    gets its own points and is judged by ``values_agree`` alone, while
    the eigenvalues, the solves and the structure function's values are
    taken for the whole stack at once.  One realization is a stack of one.
    """
    parts = [part] if isinstance(part, PartitionedRealization) else part
    for x in parts:
        if x.p != d.p or x.m != d.m:
            raise ShapeMismatch(
                f"realization is {x.p}x{x.m}, structure function {d.p}x{d.m}")
    if len({x.h for x in parts}) > 1:
        raise ShapeMismatch("the realizations of a stack must have one number of hidden states")
    p = d.p
    A11, A12, A21, A22, B1, B2 = (np.array([getattr(x, key) for x in parts])
                                  for key in ("A11", "A12", "A21", "A22", "B1", "B2"))
    r = len(parts)
    rows = np.linalg.eigvals(_row_matrices(A11, A12, A21, A22)).reshape(r, -1)
    poles = np.repeat([d.poles], r, axis=0)
    s = off_pole_points(np.concatenate([poles, np.linalg.eigvals(A22), rows], axis=-1), 16)
    if d.modes is None:
        want = rmat_eval(d.qp(), s)
    else:
        lam, R = d.modes  # np.tensordot(1 / (s - lam), R, axes=1), without its wrapper
        want = np.dot((1.0 / (s[..., None] - lam)).reshape(s.size, lam.size),
                      R.reshape(lam.size, p * (p + d.m))).reshape(*s.shape, p, p + d.m)
    wv = np.concatenate([A11, B1], -1)[:, None] + A12[:, None] @ np.linalg.solve(
        _pencils(A22, s), np.concatenate([A21, B2], -1)[:, None])
    diag = np.einsum("...ii->...i", wv[..., :p])  # a writable view of W's diagonal
    w_ii = diag.copy()
    diag[...] = 0.0
    verdicts = [values_agree(f, g, tol_eval)
                for f, g in zip(wv / (s[..., None] - w_ii)[..., None], want)]
    return verdicts[0] if isinstance(part, PartitionedRealization) else verdicts
