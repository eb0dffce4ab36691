"""Minimal-order realization of a dynamical structure function.

The order of any realization consistent with [Q, P] is p plus the number
of hidden states.  Hidden states correspond to the poles of [sQ sP] that
survive multiplication by the diagonal factor N(s) = (sI - R)(s - a)^(-1)
for a constant diagonal R (a = 0 unless a pole sits at the origin).  A
pole lam_i with rank-1 residue E_i F_i is removed exactly when
N(lam_i) E_i = 0, which forces R[j, j] = lam_i on the support of E_i.
So two poles can be removed together exactly when the supports of their
residue vectors are disjoint; phi, the most poles removable at once, is
the size of a maximum clique in that graph, and the minimal order is
p + l - phi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsf import DSF, consistency_check, structure_limits
from .errors import (
    ConflictingAssignment,
    PoleAtZeroWithoutShift,
    ResidueRankExceedsOne,
)
# residue_at is unused here; perfbench/test_perfbench.py::test_tracer_accounts_for_op_time reads it
from .ratcore import TOL_EVAL, off_pole_points, residue_at  # noqa: F401
from .sslib import (
    TOL_RANK,
    PartitionedRealization,
    factor_signs,
    kalman_reduce,
    numerical_rank,
    rosenbrock_drops,
)

TOL_ORTH = 1e-8
FREE_VALUE = -1.0


@dataclass
class GilbertData:
    """Per-pole rank-1 data of the (possibly shifted) matrix [sQ sP].

    Poles are listed in descending value.  Row i of E, l x p, is the
    column factor E_i of residue K_i = E_i F_i and row i of F, l x (p+m),
    the row factor F_i; lists of vectors are stacked into those arrays.
    When a pole of [Q P] sits at the origin the working factor is
    (s - shift) with shift off all poles, else shift is 0.  The modes keep
    the search's tol_rank and tol_orth; ``support`` is E's at tol_orth.
    """

    poles: list
    E: np.ndarray
    F: np.ndarray
    D1: np.ndarray
    shift: float
    p: int
    m: int
    tol_rank: float = TOL_RANK
    tol_orth: float = TOL_ORTH

    def __post_init__(self):
        self.E = np.asarray(self.E, dtype=float).reshape(self.l, self.p)
        self.F = np.asarray(self.F, dtype=float).reshape(self.l, self.p + self.m)
        self.lam = np.array(self.poles, dtype=float)  # the poles as one array
        self.support = _supports(self, self.tol_orth)

    @property
    def l(self) -> int:
        return len(self.poles)


@dataclass
class CompatGraph:
    """Undirected compatibility graph over the residue vectors."""

    n: int
    edges: list  # sorted (i, j) tuples with i < j

    def adjacency(self):
        adj = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


@dataclass
class CliqueResult:
    cliques: list  # sorted index tuples, lexicographic order
    phi: int


@dataclass
class RStar:
    """Constant diagonal cancellation matrix with free positions.

    entries[j] is either a float (forced value) or None (free); free
    positions materialize to FREE_VALUE.
    """

    entries: tuple

    def materialize(self) -> np.ndarray:
        return np.array([FREE_VALUE if e is None else float(e)
                         for e in self.entries])

    def pattern(self) -> str:
        parts = ["a" if e is None else format(float(e), ".12g") for e in self.entries]
        return "diag{" + ", ".join(parts) + "}"


def extract_modes(d: DSF, *, tol_rank: float = TOL_RANK, tol_orth: float = TOL_ORTH,
                  shift="auto") -> GilbertData:
    """Rank-1 residue data of the structure function.

    Works on [(s-a)Q (s-a)P] where a = 0 normally; when [Q P] has a pole
    at the origin (or a manual shift is requested) a is set off all
    poles so that the origin factor does not swallow the pole.  Since
    [Q P] is strictly proper, the residue of the shifted matrix at lam
    is (lam - a) times that of [Q P], and its value at infinity is
    lim s[Q P] whatever a is: D1, the one residue sum, ``structure_limits``.
    The poles are ``d.poles``, the residues ``d.residues``, and every pole
    decision uses ``d.tol_pole``; whether a pole sits at the origin, and so
    the shift, is decided here and nowhere else.  Each residue must have
    rank 1 by ``numerical_rank`` at tol_rank, taken on all the residues'
    singular values at once (the repeated-pole case, where residues gain
    rank, is not implemented).  The modes keep tol_rank and tol_orth.
    """
    tol_pole = d.tol_pole
    max_mag = max((abs(x) for x in d.poles), default=0.0)
    if shift == "auto":
        a = 1.0 + max_mag if any(abs(x) < tol_pole for x in d.poles) else 0.0
    else:
        a = float(shift)
        if a == 0.0 and any(abs(x) < tol_pole for x in d.poles):
            raise PoleAtZeroWithoutShift(
                "[Q P] has a pole at the origin; a nonzero shift is required")
        if a != 0.0 and any(abs(x - a) <= tol_pole for x in d.poles):
            raise ValueError(f"shift {a} coincides with a pole of [Q P]")
    poles = d.poles[::-1]
    K = (np.array(poles) - a)[:, None, None] * d.residues[::-1]
    U, sv, _ = np.linalg.svd(K, full_matrices=False)
    ranks = numerical_rank(sv, tol_rank)
    for lam, r in zip(poles, ranks.tolist()):
        if r > 1:
            raise ResidueRankExceedsOne(
                f"residue at pole {lam} has rank {r} > 1; shared poles whose "
                "residues stack rank are outside the implemented algorithm")
        if r == 0:
            raise ValueError(f"residue at pole {lam} vanished unexpectedly")
    E = U[:, :, :1] * sv[:, None, :1]
    E = (E * factor_signs(K, E)[:, None, :])[:, :, 0]
    # F per the factorization convention (E^T E)^(-1) E^T K
    F = (E[:, None, :] @ K)[:, 0, :] / (E * E).sum(axis=1)[:, None]
    lim = structure_limits(d)
    return GilbertData(poles, E, F, np.hstack([lim.A11_offdiag, lim.B1]), a, d.p, d.m,
                       tol_rank, tol_orth)


def _supports(g: GilbertData, tol_orth: float) -> np.ndarray:
    """l x p booleans: component j of E_i is above tol_orth times E_i's largest."""
    mag = np.abs(g.E)
    return mag > tol_orth * mag.max(axis=1, keepdims=True)


def compatibility_graph(g: GilbertData) -> CompatGraph:
    """Graph whose edges join residue vectors that can cancel together.

    i and j are joined when the supports ``g.support`` of E_i and E_j do
    not overlap: R is diagonal, so exactly then can one R remove both poles.
    """
    S = g.support.astype(int)
    i, j = np.nonzero(S @ S.T == 0)  # row by row, so the edges come sorted
    return CompatGraph(g.l, [(a, b) for a, b in zip(i.tolist(), j.tolist()) if a < b])


def _bron_kerbosch(adj, r, p, x, out):
    """Pivoted Bron-Kerbosch enumeration of maximal cliques."""
    if not p and not x:
        out.append(frozenset(r))
        return
    pivot = max(p | x, key=lambda v: len(adj[v] & p))
    for v in sorted(p - adj[pivot]):
        _bron_kerbosch(adj, r | {v}, p & adj[v], x & adj[v], out)
        p.remove(v)
        x.add(v)


def maximum_cliques(cg: CompatGraph, enumerate_all: bool = False) -> CliqueResult:
    """Maximum cliques of the compatibility graph, exact.

    An isolated node is a clique of size one, so phi >= 1 whenever the
    graph has nodes.  Cliques are returned as sorted index tuples in
    lexicographic order; without enumerate_all only the first is kept.
    """
    if cg.n == 0:
        return CliqueResult([()], 0)
    out = []
    _bron_kerbosch(cg.adjacency(), set(), set(range(cg.n)), set(), out)
    phi = max(len(c) for c in out)
    cliques = sorted(tuple(sorted(c)) for c in out if len(c) == phi)
    if not enumerate_all:
        cliques = cliques[:1]
    return CliqueResult(cliques, phi)


@dataclass
class MinimalOrder:
    """l poles, phi removable at once: order p + l - phi, l - phi hidden states."""

    l: int
    phi: int
    order: int
    hidden: int


def _search(d: DSF, enumerate_all: bool, tol_rank: float, tol_orth: float):
    """The one search: modes, compatibility graph, maximum cliques, and their answer."""
    g = extract_modes(d, tol_rank=tol_rank, tol_orth=tol_orth)
    cg = compatibility_graph(g)
    cl = maximum_cliques(cg, enumerate_all)
    return g, cg, cl, MinimalOrder(g.l, cl.phi, d.p + g.l - cl.phi, g.l - cl.phi)


def minimal_order(d: DSF, *, tol_rank: float = TOL_RANK,
                  tol_orth: float = TOL_ORTH) -> MinimalOrder:
    """Order p + l - phi of the smallest consistent realization."""
    return _search(d, False, tol_rank, tol_orth)[3]


def construct_rstar(g: GilbertData, clique) -> RStar:
    """Diagonal cancellation matrix forced by a clique of residue vectors.

    Every component of E_i in its support, ``g.support``, pins the
    matching diagonal entry to lam_i; positions untouched by the clique
    stay free.  Overlapping supports inside the clique (a set of poles that
    is not a clique of ``compatibility_graph``) demand two values at once
    and raise ConflictingAssignment.
    """
    entries = [None] * g.p
    for i in clique:
        lam = g.poles[i]
        for j in g.support[i].nonzero()[0].tolist():
            if entries[j] is not None and entries[j] != lam:
                raise ConflictingAssignment(
                    f"diagonal position {j} is claimed by poles {entries[j]} and "
                    f"{lam}; their residue supports overlap")
            entries[j] = lam
    return RStar(tuple(entries))


def cancellation_check(g: GilbertData, r: RStar) -> list:
    """Per-pole flags: True where N(lam_i) E_i vanishes (pole removed).

    N(lam_i) acts entrywise as (lam_i - r_j) / (lam_i - a), with r the
    materialized R and a the shift, so it vanishes on component j exactly
    when r_j = lam_i.  A pole is removed when that holds on the support of
    E_i, ``g.support`` at the modes' tol_orth, which ``compatibility_graph``
    and ``construct_rstar`` read too; the latter copies the poles into R*.
    So the R* of a maximum clique removes the clique's poles and no other,
    since every other pole shares a support position with a member, and a
    search's R* and modes give its own flags.  The shift is decided by
    ``extract_modes``; only a pole equal to it, where N is undefined,
    raises PoleAtZeroWithoutShift.
    """
    lam = g.lam
    at_shift = (lam == g.shift).nonzero()[0]
    if at_shift.size:
        raise PoleAtZeroWithoutShift(
            f"cannot evaluate the cancellation factor at pole {g.poles[at_shift[0]]} "
            f"with shift {g.shift}")
    kept = g.support & (lam[:, None] != r.materialize())
    return (~kept.any(axis=1)).tolist()


def _blocks(g: GilbertData, rvecs: np.ndarray, keep):
    """The six blocks of [W V] = [R 0] + D1 + sum_i N(lam_i) K_i / (s - lam_i).

    D1 = lim s[Q P].  Per R* vector of ``rvecs`` (members x p), each by
    its own arithmetic: A11, D1's Q block with R on its diagonal, and
    A12 = N(lam) E, stacked.  Shared, and possibly views of g: A21 = F_y,
    A22 = diag(lam), B1 = D1's P block and B2 = F_u.  ``keep`` (an index
    list or a slice) selects the modes that get a hidden state.
    """
    p = g.p
    lam = g.lam[keep]
    # + 0.0 makes a -0.0 read 0.0, as the sum D1 + diag(R) would
    A11 = np.where(np.eye(p, dtype=bool), rvecs[:, None, :], g.D1[:, :p]) + 0.0
    return (A11, (lam - rvecs[:, :, None]) / (lam - g.shift) * g.E[keep].T,
            g.F[keep, :p], np.diag(lam), g.D1[:, p:], g.F[keep, p:])


def _assemble(g: GilbertData, rvec: np.ndarray, keep) -> PartitionedRealization:
    """``_blocks`` for the one R* vector rvec, its shared blocks copied from g.

    Only the modes listed in ``keep`` get a hidden state; listing every
    mode gives the full cascade, where a cancelled pole stays as an
    unobservable state.
    """
    (A11,), (A12,), *shared = _blocks(g, rvec[None], keep)
    return PartitionedRealization(A11, A12, *(x.copy() for x in shared))


def realize(d: DSF, r: RStar, modes: GilbertData = None) -> PartitionedRealization:
    """Consistent realization of d for a given diagonal matrix R.

    The measured block is fixed by the high-frequency limits plus R on
    the diagonal; the hidden block keeps one state per surviving pole.
    Pass precomputed modes to avoid re-extracting them.
    """
    g = modes if modes is not None else extract_modes(d)
    flags = cancellation_check(g, r)
    return _assemble(g, r.materialize(), [i for i, f in enumerate(flags) if not f])


@dataclass
class ZeroMatch:
    """Zero agreement of a realization's V-subsystem (A22, B2, A12, B1).

    ``point`` is a cancelled pole, where a zero is expected, or the
    complex control point, where none is.  With C = [I 0] and D = 0 the
    identity rows of the assembled cascade's Rosenbrock matrix clear
    A11 - sI and A21, so its rank is p plus the V-subsystem's at every
    s, and the two transfers share one normal rank: ``g_zero``, the
    cascade's verdict, is ``v_zero`` by construction.
    """

    point: complex
    v_zero: bool
    expected: bool

    @property
    def g_zero(self) -> bool:
        return self.v_zero

    @property
    def ok(self) -> bool:
        return self.v_zero == self.expected


@dataclass
class RealizationReport:
    rstar: RStar
    realization: PartitionedRealization
    order: int
    cancelled_poles: list
    cancellation_flags: list
    consistent: bool
    zero_checks: list = field(default_factory=list)


@dataclass
class PipelineResult(MinimalOrder):
    """The search's answer, what it went through, and one report per realized clique."""

    gilbert: GilbertData
    graph: CompatGraph
    cliques: CliqueResult
    realizations: list


def _zero_point_tests(g: GilbertData, cancelled, rvecs):
    """Invariant-zero agreement at cancelled poles and a control point.

    ``cancelled`` and ``rvecs`` hold, for each realization of a stack,
    its cancelled poles and its materialized R*; every member cancels the
    same number of poles.  The tests run on the V-subsystem (A22, B2,
    A12, B1) of each R*'s full (uncancelled) cascade, ``_blocks`` with
    every mode kept, where a removed pole persists as an unobservable
    mode: it loses Rosenbrock rank exactly at the cancelled poles.  The
    assembled cascade needs no test of its own: its rank is p plus the
    V-subsystem's at every s (see ``ZeroMatch``).  The control point,
    where no zero may lie, is 0.5 (lam_0 + lam_1) + 0.5j |lam_0 - lam_1|
    for the two largest poles, the same for every member.  It lies off
    the real axis, where a real system has a zero only by coincidence;
    the real midpoint is a true zero of 1/(s+1) + 1/(s+2), for one.  The
    normal rank of V(s) = B1 + A12 (sI - diag(lam))^(-1) B2 is read from
    the modes at the ``off_pole_points`` of lam, and one
    ``rosenbrock_drops`` call tests every member at its own points.
    Returns one list of ``ZeroMatch`` per member.
    """
    control = []
    if g.l >= 2:
        lam0, lam1 = g.poles[:2]
        control = [0.5 * (lam0 + lam1) + 0.5j * abs(lam0 - lam1)]
    points = [c + control for c in cancelled]
    if not points[0]:
        return [[] for _ in cancelled]
    expected = [True] * (len(points[0]) - len(control)) + [False] * len(control)
    _, A12, _, A22, B1, B2 = _blocks(g, np.array(rvecs), slice(None))
    V = B1 + (A12[:, None] / (off_pole_points(g.lam, 8)[:, None, None] - g.lam)) @ B2
    normal = numerical_rank(np.linalg.svd(V, compute_uv=False), g.tol_rank).max(axis=-1)
    v_zero = rosenbrock_drops(A22[None], B2[None], A12, B1[None], np.array(points), g.tol_rank,
                              normal=normal)
    return [[ZeroMatch(*check) for check in zip(pts, v.tolist(), expected)]
            for pts, v in zip(points, v_zero)]


def minreal_pipeline(d: DSF, *, enumerate_all: bool = False, tol_rank: float = TOL_RANK,
                     tol_orth: float = TOL_ORTH, tol_eval: float = TOL_EVAL) -> PipelineResult:
    """Full pipeline: modes, cliques, R* families, realizations, checks.

    One realization is produced per maximum clique (or just the first,
    lexicographically, when enumerate_all is off), each verified for
    consistency against the input structure function.  Every clique's
    R*, flags and realization are built first; then the realizations are
    verified as one stack, with one ``consistency_check`` and one
    ``_zero_point_tests``; only then is each ``RealizationReport`` built,
    complete.  Each maximum clique has phi members and its R* removes
    exactly those poles, so all realizations of one search share one shape.
    """
    g, cg, cl, answer = _search(d, enumerate_all, tol_rank, tol_orth)
    rstars = [construct_rstar(g, clique) for clique in cl.cliques]
    rvecs = [r.materialize() for r in rstars]
    flags = [cancellation_check(g, r) for r in rstars]
    parts = [_assemble(g, rvec, [i for i, f in enumerate(fl) if not f])
             for rvec, fl in zip(rvecs, flags)]
    cancelled = [[lam for lam, f in zip(g.poles, fl) if f] for fl in flags]
    verdicts = zip(consistency_check(parts, d, tol_eval),
                   _zero_point_tests(g, cancelled, rvecs))
    reports = [RealizationReport(r, x, x.order, c, fl, ok, zc) for r, x, c, fl, (ok, zc)
               in zip(rstars, parts, cancelled, flags, verdicts)]
    return PipelineResult(**vars(answer), gilbert=g, graph=cg, cliques=cl, realizations=reports)


def transfer_degree(g: GilbertData) -> int:
    """McMillan degree of G = (I - Q)^(-1) P, from the modes of [sQ sP].

    Every residue has rank 1, so A = diag(lam_i), the columns
    E_i / (lam_i - a) of C and the rows F_i of [By Bu] are a minimal
    realization of [Q P].  Closed through the output, (A + By C, Bu, C)
    realizes G, and the degree is the order ``kalman_reduce`` leaves of
    it.  The factor 1 / (lam_i - a) goes on C because E_i F_i is
    (lam_i - a) times the residue with F_i of unit norm, so E_i carries
    the factor lam_i - a; divided by it, each column of C is the size of
    its residue.  Put on B instead, the factor would leave C's column at a
    pole near the origin (with a = 0) near rounding level, and
    ``kalman_reduce``, which ranks against the largest, would drop that
    mode as unobservable.
    """
    C = g.E.T / (g.lam - g.shift)
    A = np.diag(g.lam) + g.F[:, :g.p] @ C
    return kalman_reduce(A, g.F[:, g.p:], C)[0].shape[0]
