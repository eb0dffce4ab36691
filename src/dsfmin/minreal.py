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

from .dsf import DSF, consistency_check
from .errors import (
    ConflictingAssignment,
    PoleAtZeroWithoutShift,
    ResidueRankExceedsOne,
)
from .ratcore import TOL_EVAL, residue_at
from .sslib import (
    TOL_RANK,
    PartitionedRealization,
    StateSpace,
    _rosenbrock_rank_drops,
    _transfer_normal_rank,
    rank_factorization,
)

TOL_ORTH = 1e-8
TOL_CANCEL = 1e-8
FREE_VALUE = -1.0


@dataclass
class GilbertData:
    """Per-pole rank-1 data of the (possibly shifted) matrix [sQ sP].

    Poles are listed in descending value; E_i is the p-vector column
    factor of residue K_i = E_i F_i and F_i the (p+m)-row factor.  When a
    pole of [Q P] sits at the origin the working factor is (s - shift)
    with shift chosen off all poles; shift is 0 otherwise.
    """

    poles: list
    E: list
    F: list
    D1: np.ndarray
    shift: float
    p: int
    m: int

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


def extract_modes(d: DSF, *, tol_rank: float = TOL_RANK, shift="auto") -> GilbertData:
    """Rank-1 residue data of the structure function.

    Works on [(s-a)Q (s-a)P] where a = 0 normally; when [Q P] has a pole
    at the origin (or a manual shift is requested) a is set off all
    poles so that the origin factor does not swallow the pole.  Since
    [Q P] is strictly proper, the residue of the shifted matrix at lam
    is (lam - a) times that of [Q P], and its value at infinity is
    lim s[Q P] whatever a is: with simple poles, the sum of the residues.
    The poles are ``d.poles`` and every pole decision uses ``d.tol_pole``.
    The residues are ``d.residues`` when d was built by ``DSF.from_modes``
    (``compute_dsf``, ``dsf_pole_residue`` files), else ``residue_at``
    evaluates each from the rational entries.  Each must have rank 1; the
    repeated-pole generalization where residues gain rank is not implemented.
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
    if d.residues is None:
        qp = d.qp()
        residues = [residue_at(qp, lam, tol_pole) for lam in poles]
    else:
        residues = d.residues[::-1]
    D1 = sum(residues, np.zeros((d.p, d.p + d.m)))
    E_list, F_list = [], []
    for lam, K in zip(poles, residues):
        K = (lam - a) * K
        E, F, r = rank_factorization(K, tol_rank)
        if r > 1:
            raise ResidueRankExceedsOne(
                f"residue at pole {lam} has rank {r} > 1; shared poles whose "
                "residues stack rank are outside the implemented algorithm")
        if r == 0:
            raise ValueError(f"residue at pole {lam} vanished unexpectedly")
        Evec = E[:, 0]
        # F per the factorization convention (E^T E)^(-1) E^T K
        Frow = (Evec @ K) / float(Evec @ Evec)
        E_list.append(Evec)
        F_list.append(Frow)
    return GilbertData(poles, E_list, F_list, D1, a, d.p, d.m)


def _support(E: np.ndarray, tol_orth: float) -> frozenset:
    scale = float(np.max(np.abs(E)))
    return frozenset(np.flatnonzero(np.abs(E) > tol_orth * scale).tolist())


def compatibility_graph(g: GilbertData, tol_orth: float = TOL_ORTH) -> CompatGraph:
    """Graph whose edges join residue vectors that can cancel together.

    i and j are joined when the supports of E_i and E_j (components above
    tol_orth times the vector's largest) do not overlap: R is diagonal,
    so exactly then can one R remove both poles.
    """
    supports = [_support(E, tol_orth) for E in g.E]
    edges = [(i, j) for i in range(g.l) for j in range(i + 1, g.l)
             if not (supports[i] & supports[j])]
    return CompatGraph(g.l, edges)


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
    l: int
    phi: int
    order: int
    hidden: int


def minimal_order(d: DSF, *, tol_rank: float = TOL_RANK,
                  tol_orth: float = TOL_ORTH) -> MinimalOrder:
    """Order p + l - phi of the smallest consistent realization."""
    g = extract_modes(d, tol_rank=tol_rank)
    cg = compatibility_graph(g, tol_orth=tol_orth)
    phi = maximum_cliques(cg).phi
    return MinimalOrder(g.l, phi, d.p + g.l - phi, g.l - phi)


def construct_rstar(g: GilbertData, clique, tol_orth: float = TOL_ORTH) -> RStar:
    """Diagonal cancellation matrix forced by a clique of residue vectors.

    Every nonzero component of E_i pins the matching diagonal entry to
    lam_i; positions untouched by the clique stay free.  Overlapping
    supports inside the clique (a set of poles that is not a clique of
    ``compatibility_graph``) demand two values at once and raise
    ConflictingAssignment.
    """
    entries = [None] * g.p
    for i in clique:
        lam = g.poles[i]
        for j in sorted(_support(g.E[i], tol_orth)):
            if entries[j] is not None and entries[j] != lam:
                raise ConflictingAssignment(
                    f"diagonal position {j} is claimed by poles {entries[j]} and "
                    f"{lam}; their residue supports overlap")
            entries[j] = lam
    return RStar(tuple(entries))


def cancellation_check(g: GilbertData, r) -> list:
    """Per-pole flags: True where N(lam_i) E_i vanishes (pole removed).

    N(lam_i) acts entrywise as (lam_i - r_j) / (lam_i - a); a flag is set
    when |N(lam_i) E_i| is at most TOL_CANCEL times max |E_i|.
    """
    rvec = r.materialize() if isinstance(r, RStar) else np.asarray(r, dtype=float)
    flags = []
    for lam, E in zip(g.poles, g.E):
        if abs(lam - g.shift) < 1e-9:
            raise PoleAtZeroWithoutShift(
                f"cannot evaluate the cancellation factor at pole {lam} with shift {g.shift}")
        nv = (lam - rvec) / (lam - g.shift)
        flags.append(bool(np.max(np.abs(nv * E)) <= TOL_CANCEL * np.max(np.abs(E))))
    return flags


def _assemble(g: GilbertData, rvec: np.ndarray, keep) -> PartitionedRealization:
    """Realization of [W V] = [R 0] + D1 + sum_i N(lam_i) K_i / (s - lam_i).

    Only the modes listed in ``keep`` get a hidden state; listing every
    mode gives the full cascade, where a cancelled pole stays as an
    unobservable state.
    """
    p, m = g.p, g.m
    A11 = g.D1[:, :p].copy()
    np.fill_diagonal(A11, 0.0)
    A11 += np.diag(rvec)
    h = len(keep)
    A12 = (np.column_stack([(g.poles[i] - rvec) / (g.poles[i] - g.shift) * g.E[i]
                            for i in keep]) if h else np.zeros((p, 0)))
    A21 = np.array([g.F[i][:p] for i in keep]).reshape(h, p)
    B2 = np.array([g.F[i][p:] for i in keep]).reshape(h, m)
    A22 = np.diag([g.poles[i] for i in keep]).reshape(h, h)
    return PartitionedRealization(A11, A12, A21, A22, g.D1[:, p:].copy(), B2)


def realize(d: DSF, r: RStar, modes: GilbertData = None, *,
            tol_rank: float = TOL_RANK) -> PartitionedRealization:
    """Consistent realization of d for a given diagonal matrix R.

    The measured block is fixed by the high-frequency limits plus R on
    the diagonal; the hidden block keeps one state per surviving pole.
    Pass precomputed modes to avoid re-extracting them.
    """
    g = modes if modes is not None else extract_modes(d, tol_rank=tol_rank)
    rvec = r.materialize() if isinstance(r, RStar) else np.asarray(r, dtype=float)
    flags = cancellation_check(g, rvec)
    return _assemble(g, rvec, [i for i, f in enumerate(flags) if not f])


@dataclass
class ZeroMatch:
    """Zero agreement between the V-subsystem and the full realization."""

    point: float
    v_zero: bool
    g_zero: bool
    expected: bool

    @property
    def ok(self) -> bool:
        return self.v_zero == self.expected and self.g_zero == self.expected


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
class PipelineResult:
    gilbert: GilbertData
    graph: CompatGraph
    cliques: CliqueResult
    l: int
    phi: int
    order: int
    hidden: int
    realizations: list


def _zero_point_tests(g: GilbertData, flags, full: PartitionedRealization, tol_rank):
    """Invariant-zero agreement at cancelled poles and a control point.

    Both tests run on the full (uncancelled) cascade, where a removed
    pole persists as an unobservable mode: the V-subsystem
    (A22, B2, A12, B1) and the assembled system lose Rosenbrock rank
    together exactly at the cancelled poles.  Each system's normal rank
    comes from one stacked solve and one stacked singular value
    decomposition at eight points beyond its spectrum, and its
    Rosenbrock ranks at all the test points from one more stacked
    decomposition.
    """
    points = [(lam, True) for lam, flag in zip(g.poles, flags) if flag]
    if g.l >= 2:
        points.append((0.5 * (g.poles[0] + g.poles[1]), False))
    if not points:
        return []
    at = [point for point, _ in points]
    v_zero, g_zero = (_rosenbrock_rank_drops(ss, at, _transfer_normal_rank(ss, tol_rank),
                                             tol_rank)
                      for ss in (StateSpace(full.A22, full.B2, full.A12, full.B1),
                                 full.assemble()))
    return [ZeroMatch(point, bool(v), bool(z), expected)
            for (point, expected), v, z in zip(points, v_zero, g_zero)]


def minreal_pipeline(d: DSF, *, enumerate_all: bool = False, tol_rank: float = TOL_RANK,
                     tol_orth: float = TOL_ORTH, tol_eval: float = TOL_EVAL) -> PipelineResult:
    """Full pipeline: modes, cliques, R* families, realizations, checks.

    One realization is produced per maximum clique (or just the first,
    lexicographically, when enumerate_all is off), each verified for
    consistency against the input structure function.
    """
    g = extract_modes(d, tol_rank=tol_rank)
    cg = compatibility_graph(g, tol_orth=tol_orth)
    cl = maximum_cliques(cg, enumerate_all)
    order = d.p + g.l - cl.phi
    reports = []
    for clique in cl.cliques:
        rstar = construct_rstar(g, clique, tol_orth)
        rvec = rstar.materialize()
        flags = cancellation_check(g, rvec)
        keep = [i for i, f in enumerate(flags) if not f]
        part = _assemble(g, rvec, keep)
        full = part if len(keep) == g.l else _assemble(g, rvec, range(g.l))
        cancelled = [g.poles[i] for i in range(g.l) if flags[i]]
        consistent = consistency_check(part, d, tol_eval)
        checks = _zero_point_tests(g, flags, full, tol_rank)
        reports.append(RealizationReport(rstar, part, part.order, cancelled,
                                         flags, consistent, checks))
    return PipelineResult(g, cg, cl, g.l, cl.phi, order, g.l - cl.phi, reports)
