"""Mode extraction, clique search, R* construction, and realization."""

import numpy as np
import pytest

from dsfmin import (
    DSF,
    MinimalOrder,
    PoleResidueForm,
    RStar,
    boolean_structure,
    cancellation_check,
    compatibility_graph,
    compute_dsf,
    consistency_check,
    construct_rstar,
    dsf_to_transfer,
    extract_modes,
    from_pole_residue,
    kalman_reduce,
    maximum_cliques,
    minimal_order,
    minreal_pipeline,
    realize,
    rmat_equal,
    transfer_degree,
    transfer_function,
)
from dsfmin.errors import (
    ConflictingAssignment,
    PoleAtZeroWithoutShift,
    ResidueRankExceedsOne,
    ShapeMismatch,
)
from dsfmin.minreal import CompatGraph, GilbertData, _assemble
from dsfmin.sslib import (
    TOL_RANK,
    PartitionedRealization,
    StateSpace,
    _normal_ranks,
    _transfer_normal_rank,
    is_invariant_zero,
    rank_factorization,
)

from conftest import (
    EX2_D1,
    EX2_E_DIRECTIONS,
    EX2_FAMILIES,
    EX2_RESIDUES,
    ZERO,
    random_dsf,
    random_pole_residue,
    rmat,
)
from test_dsf import _relay_blocks


def brute_force_phi(n, edges):
    """Maximum clique size by subset dynamic programming over bitmasks."""
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    best = 0
    is_clique = [False] * (1 << n)
    is_clique[0] = True
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        if is_clique[rest] and (rest & ~adj[v]) == 0:
            is_clique[mask] = True
            best = max(best, mask.bit_count())
    return best


@pytest.fixture
def single_pole_dsf():
    return DSF(rmat([[ZERO]]), rmat([[([1], [1, 1])]]))


@pytest.fixture
def origin_pole_dsf():
    return DSF(rmat([[ZERO]]), rmat([[([1], [0, 1])]]))


class TestExtractModes:
    def test_ex2(self, ex2_dsf):
        g = extract_modes(ex2_dsf)
        assert g.l == 4
        assert g.poles == pytest.approx([-1, -2, -3, -4])
        assert g.shift == 0.0
        assert np.allclose(g.D1, EX2_D1)
        for lam, E, F in zip(g.poles, g.E, g.F):
            expect = EX2_E_DIRECTIONS[round(lam)]
            assert np.allclose(E / np.linalg.norm(E),
                               expect / np.linalg.norm(expect), atol=1e-8)
            assert np.max(np.abs(np.outer(E, F) - EX2_RESIDUES[round(lam)])) < 1e-8

    def test_single_pole(self, single_pole_dsf):
        g = extract_modes(single_pole_dsf)
        assert g.l == 1
        assert g.poles == pytest.approx([-1.0])
        # s/(s+1) = 1 - 1/(s+1): residue -1, value 1 at infinity
        assert np.allclose(g.D1, [[0.0, 1.0]])
        K = np.outer(g.E[0], g.F[0])
        assert np.allclose(K, [[0.0, -1.0]], atol=1e-10)

    def test_pole_at_origin_triggers_shift(self, origin_pole_dsf):
        g = extract_modes(origin_pole_dsf)
        assert g.shift == pytest.approx(1.0)
        assert g.poles == pytest.approx([0.0])

    def test_manual_zero_shift_with_origin_pole_rejected(self, origin_pole_dsf):
        with pytest.raises(PoleAtZeroWithoutShift):
            extract_modes(origin_pole_dsf, shift=0.0)

    def test_shift_on_a_pole_rejected(self, ex2_dsf):
        with pytest.raises(ValueError, match="coincides with a pole"):
            extract_modes(ex2_dsf, shift=-2.0)

    def test_factors_are_rank_factorization_of_each_residue(self, ex2_dsf, origin_pole_dsf):
        # one stacked SVD and one sign rule give what rank_factorization gives per pole
        rng = np.random.default_rng(19)
        dsfs = [ex2_dsf, origin_pole_dsf, *(random_dsf(rng, 4, 2, l) for l in (2, 5, 8))]
        relay_blocks = _relay_blocks()
        for size in ((3, 2), (5, 4), (8, 12)):
            b = relay_blocks(rng, *size, 2)
            dsfs.append(compute_dsf(PartitionedRealization(b.A11, b.A12, b.A21, b.A22,
                                                           b.B1, b.B2)))
        for d in dsfs:
            g = extract_modes(d)
            assert g.poles == d.poles[::-1]
            for lam, K, E, F in zip(g.poles, d.residues[::-1], g.E, g.F):
                K = (lam - g.shift) * K
                E1, F1, r = rank_factorization(K)
                assert r == 1
                assert np.array_equal(E, E1[:, 0])
                # (E^T E)^(-1) E^T K is the right singular vector when K has rank 1
                assert np.allclose(F, F1[0], rtol=0.0, atol=1e-9)

    def test_rank_two_residue_rejected(self):
        # two rows sharing one pole with independent row factors
        Q = rmat([[ZERO, ZERO], [ZERO, ZERO]])
        P = rmat([[([1], [1, 1]), ZERO], [ZERO, ([1], [1, 1])]])
        with pytest.raises(ResidueRankExceedsOne):
            extract_modes(DSF(Q, P))


class TestCompatibilityGraph:
    def test_ex2_has_no_edges(self, ex2_dsf):
        g = extract_modes(ex2_dsf)
        assert compatibility_graph(g).edges == []

    def test_ex1_has_eight_edges(self, ex1_partition):
        g = extract_modes(compute_dsf(ex1_partition))
        cg = compatibility_graph(g)
        assert len(cg.edges) == 8
        # poles descending: -1, -2, -3, -4, -5; forbidden pairs share a row
        assert (1, 3) not in cg.edges  # -2 and -4 both feed row 2
        assert (2, 4) not in cg.edges  # -3 and -5 both feed row 3

    def test_single_node_graph_is_empty(self, single_pole_dsf):
        g = extract_modes(single_pole_dsf)
        assert compatibility_graph(g).edges == []


class TestMaximumCliques:
    def test_ex2_singletons(self, ex2_dsf):
        g = extract_modes(ex2_dsf)
        cl = maximum_cliques(compatibility_graph(g), enumerate_all=True)
        assert cl.phi == 1
        assert cl.cliques == [(0,), (1,), (2,), (3,)]

    def test_ex1_cliques(self, ex1_partition):
        g = extract_modes(compute_dsf(ex1_partition))
        cl = maximum_cliques(compatibility_graph(g), enumerate_all=True)
        assert cl.phi == 3
        assert cl.cliques == [(0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 4)]
        pole_sets = [{round(g.poles[i]) for i in c} for c in cl.cliques]
        assert {-1, -2, -3} in pole_sets and {-1, -4, -5} in pole_sets

    def test_complete_graph(self):
        cg = CompatGraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        assert maximum_cliques(cg).phi == 5

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(1234)
        for trial in range(100):
            n = int(rng.integers(2, 16))
            density = [0.2, 0.5, 0.8][trial % 3]
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < density]
            cg = CompatGraph(n, edges)
            assert maximum_cliques(cg).phi == brute_force_phi(n, edges)


class TestMinimalOrder:
    def test_ex2(self, ex2_dsf):
        mo = minimal_order(ex2_dsf)
        assert (mo.l, mo.phi, mo.order, mo.hidden) == (4, 1, 6, 3)

    def test_single_pole(self, single_pole_dsf):
        mo = minimal_order(single_pole_dsf)
        assert (mo.l, mo.phi, mo.order) == (1, 1, 1)

    def test_ex1(self, ex1_partition):
        mo = minimal_order(compute_dsf(ex1_partition))
        assert (mo.l, mo.phi, mo.order) == (5, 3, 5)


class TestConstructRstar:
    def test_ex2_families(self, ex2_dsf):
        g = extract_modes(ex2_dsf)
        assert construct_rstar(g, (0,)).entries == (None, -1.0, -1.0)
        assert construct_rstar(g, (3,)).entries == (-4.0, -4.0, -4.0)

    def test_ex1_first_clique(self, ex1_partition):
        g = extract_modes(compute_dsf(ex1_partition))
        r = construct_rstar(g, (0, 1, 2))
        assert r.entries == pytest.approx((-1.0, -2.0, -3.0))

    def test_conflicting_assignment_outside_a_clique(self):
        # orthogonal residue vectors with overlapping supports: no edge, and
        # construct_rstar rejects the pair a caller hands it anyway
        g = GilbertData(poles=[-1.0, -2.0],
                        E=[np.array([1.0, 1.0]), np.array([1.0, -1.0])],
                        F=[np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0])],
                        D1=np.zeros((2, 3)), shift=0.0, p=2, m=1)
        assert compatibility_graph(g).edges == []
        with pytest.raises(ConflictingAssignment):
            construct_rstar(g, (0, 1))

    def test_pattern_rendering(self, ex2_dsf):
        g = extract_modes(ex2_dsf)
        assert construct_rstar(g, (0,)).pattern() == "diag{a, -1, -1}"


class TestRealize:
    def test_ex2_full_family(self, ex2_dsf):
        g = extract_modes(ex2_dsf)
        part = realize(ex2_dsf, construct_rstar(g, (3,)), modes=g)
        assert part.order == 6
        assert consistency_check(part, ex2_dsf, 1e-7)
        bs_in = boolean_structure(ex2_dsf)
        bs_out = boolean_structure(compute_dsf(part))
        assert np.array_equal(bs_in.q_adj, bs_out.q_adj)
        assert np.array_equal(bs_in.p_adj, bs_out.p_adj)

    def test_single_pole_zero_hidden(self, single_pole_dsf):
        part = realize(single_pole_dsf, RStar((-1.0,)))
        assert part.h == 0
        assert np.allclose(part.A11, [[-1.0]])
        assert np.allclose(part.B1, [[1.0]])

    def test_zero_r_keeps_every_pole(self, ex2_dsf):
        part = realize(ex2_dsf, RStar((0.0, 0.0, 0.0)))
        assert part.order == 7
        assert consistency_check(part, ex2_dsf, 1e-7)


class TestCancellationCheck:
    def test_ex2_all_minus_four(self, ex2_dsf):
        g = extract_modes(ex2_dsf)
        flags = cancellation_check(g, RStar((-4.0, -4.0, -4.0)))
        assert flags == [False, False, False, True]

    def test_zero_r_cancels_nothing(self, ex2_dsf):
        g = extract_modes(ex2_dsf)
        assert cancellation_check(g, RStar((0.0, 0.0, 0.0))) == [False] * 4

    def test_ex1_first_clique_flags(self, ex1_partition):
        d = compute_dsf(ex1_partition)
        g = extract_modes(d)
        flags = cancellation_check(g, RStar((-1.0, -2.0, -3.0)))
        assert flags == [True, True, True, False, False]

    def test_only_a_pole_equal_to_the_shift_rejected(self):
        # N(lam) = (lam - r) / (lam - a) is undefined only at lam = a; whether
        # a pole sits at the origin is extract_modes's decision, not this one
        E, F = np.eye(2), [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]
        at_shift = GilbertData([0.0, -2.0], E, F, np.zeros((2, 3)), 0.0, 2, 1)
        with pytest.raises(PoleAtZeroWithoutShift):
            cancellation_check(at_shift, RStar((0.0, -2.0)))
        near = GilbertData([5e-10, -2.0], E, F, np.zeros((2, 3)), 0.0, 2, 1)
        assert cancellation_check(near, RStar((5e-10, -2.0))) == [True, True]

    def test_flag_count_bounded_by_phi(self, ex2_dsf):
        g = extract_modes(ex2_dsf)
        phi = maximum_cliques(compatibility_graph(g)).phi
        rng = np.random.default_rng(61)
        for _ in range(25):
            flags = cancellation_check(g, RStar(tuple(rng.uniform(-10, 10, 3))))
            assert sum(flags) <= phi


class TestPipeline:
    def test_ex2_families_in_order(self, ex2_dsf):
        res = minreal_pipeline(ex2_dsf, enumerate_all=True)
        assert res.phi == 1 and res.order == 6 and res.hidden == 3
        assert [r.rstar.entries for r in res.realizations] == EX2_FAMILIES
        for r in res.realizations:
            assert r.order == 6
            assert r.consistent
            assert all(c.ok for c in r.zero_checks)

    def test_ex1(self, ex1_partition):
        d = compute_dsf(ex1_partition)
        res = minreal_pipeline(d, enumerate_all=True)
        assert res.order == 5
        assert len(res.realizations) == 4
        assert all(r.consistent for r in res.realizations)

    def test_degenerate_diagonal(self):
        Q = rmat([[ZERO] * 3 for _ in range(3)])
        P = rmat([[([1], [1, 1]), ZERO, ZERO],
                  [ZERO, ([1], [2, 1]), ZERO],
                  [ZERO, ZERO, ([1], [3, 1])]])
        res = minreal_pipeline(DSF(Q, P))
        assert res.phi == res.l == 3
        assert res.order == 3
        assert res.realizations[0].realization.h == 0
        assert res.realizations[0].consistent

    def test_first_clique_only_by_default(self, ex2_dsf):
        res = minreal_pipeline(ex2_dsf)
        assert len(res.realizations) == 1
        assert res.realizations[0].rstar.entries == EX2_FAMILIES[0]

    def test_pole_tolerance_is_the_structure_functions(self):
        # P[0][0] holds -1 and -1 - 5e-7, apart at tol_pole 1e-8 but not at
        # the default 1e-6; -3 has residue column [1, 1], so no two poles
        # have disjoint supports and phi = 1
        poles = [-1.0, -1.0 - 5e-7, -3.0]
        KP = [[[2e6], [0.0]], [[-2e6], [0.0]], [[1.0], [1.0]]]
        P = from_pole_residue(PoleResidueForm(poles, KP, np.zeros((2, 1))))
        d = DSF(rmat([[ZERO, ZERO], [ZERO, ZERO]]), P, tol_pole=1e-8)
        mo = minimal_order(d)
        assert (mo.l, mo.phi, mo.order) == (3, 1, 4)
        res = minreal_pipeline(d)
        assert (res.l, res.phi, res.order) == (3, 1, 4)
        assert res.realizations[0].realization.order == 4
        assert res.realizations[0].consistent

    def test_measured_layer_stable_across_realizations(self, ex2_dsf):
        res = minreal_pipeline(ex2_dsf, enumerate_all=True)
        patterns = []
        for r in res.realizations:
            bs = boolean_structure(compute_dsf(r.realization))
            patterns.append((bs.q_adj.tobytes(), bs.p_adj.tobytes()))
        assert len(set(patterns)) == 1


class TestProperties:
    def test_consistency_roundtrip_random(self):
        rng = np.random.default_rng(71)
        for _ in range(6):
            d = random_dsf(rng, int(rng.integers(2, 4)), int(rng.integers(1, 3)),
                           int(rng.integers(2, 5)))
            res = minreal_pipeline(d, enumerate_all=True)
            assert res.order == d.p + res.l - res.phi
            for r in res.realizations:
                assert r.consistent
                assert r.order == res.order

    def test_transfer_agreement(self, ex2_dsf):
        res = minreal_pipeline(ex2_dsf, enumerate_all=True)
        G = dsf_to_transfer(ex2_dsf)
        for r in res.realizations:
            assert rmat_equal(transfer_function(r.realization.assemble()), G, 1e-7)

    def test_minimality_dominance(self, ex2_dsf):
        g = extract_modes(ex2_dsf)
        bound = minimal_order(ex2_dsf).order
        rng = np.random.default_rng(83)
        for _ in range(50):
            part = realize(ex2_dsf, RStar(tuple(rng.uniform(-10, 10, 3))), modes=g)
            assert part.order >= bound

    @pytest.mark.parametrize("tol_orth, order", [(1e-8, 3), (1e-4, 2)])
    def test_realizations_have_the_searched_order(self, tol_orth, order):
        # the residue vector at -1 is (1, 1e-6): at tol_orth 1e-4 its support
        # is row 0 alone, so the search removes both poles, as must R*
        d = DSF.from_modes([-1.0, -2.0], [[[0.0, 0.0, 1.0], [0.0, 0.0, 1e-6]],
                                          [[0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]])
        res = minreal_pipeline(d, enumerate_all=True, tol_orth=tol_orth)
        assert res.order == order
        assert [r.order for r in res.realizations] == [order] * len(res.cliques.cliques)

    def test_shift_invariance_of_phi(self, ex2_dsf):
        base = maximum_cliques(compatibility_graph(extract_modes(ex2_dsf))).phi
        for a in (2.0, 5.0, -0.5):
            g = extract_modes(ex2_dsf, shift=a)
            assert maximum_cliques(compatibility_graph(g)).phi == base

    def test_cancellation_flags_match_hidden_block(self, ex2_dsf):
        g = extract_modes(ex2_dsf)
        rng = np.random.default_rng(97)
        candidates = [RStar(tuple(rng.uniform(-10, 10, 3))) for _ in range(10)]
        candidates += [construct_rstar(g, (i,)) for i in range(4)]
        for r in candidates:
            flags = cancellation_check(g, r)
            part = realize(ex2_dsf, r, modes=g)
            surviving = sorted(np.diag(part.A22).tolist())
            expect = sorted(g.poles[i] for i in range(g.l) if not flags[i])
            assert surviving == pytest.approx(expect)


class TestControlPoint:
    """The zero test's control point where the midpoint of the two largest poles is a zero."""

    # P = 1/(s-a) + 1/(s-b) vanishes at (a+b)/2, the midpoint of its two poles
    @pytest.mark.parametrize("poles", [[-1.0, -2.0], [0.0, -1.0]])
    def test_zero_at_real_midpoint(self, poles):
        d = DSF.from_modes(poles, [[[0.0, 1.0]], [[0.0, 1.0]]])
        res = minreal_pipeline(d, enumerate_all=True)
        assert res.realizations
        for r in res.realizations:
            assert r.consistent
            controls = [c for c in r.zero_checks if not c.expected]
            assert len(controls) == 1 and controls[0].point.imag > 0.0
            assert all(c.ok for c in r.zero_checks)


class TestBatchedZeroTests:
    """_zero_point_tests against one SVD per point and per system."""

    @staticmethod
    def rank(M):
        sv = np.linalg.svd(M, compute_uv=False)
        return int(np.sum(sv > TOL_RANK * sv[0]))

    def reference(self, g, flags, full):
        """(ZeroMatch fields, normal ranks) with one decomposition per point."""
        points = [(lam, True) for lam, flag in zip(g.poles, flags) if flag]
        if g.l >= 2:
            lam0, lam1 = g.poles[:2]
            points.append((0.5 * (lam0 + lam1) + 0.5j * abs(lam0 - lam1), False))
        systems = [StateSpace(full.A22, full.B2, full.A12, full.B1), full.assemble()]
        ranks = []
        for ss in systems:
            sigma = 1.0 + np.max(np.abs(np.linalg.eigvals(ss.A)))
            ranks.append(max(
                self.rank(ss.C @ np.linalg.solve((sigma + k) * np.eye(ss.n) - ss.A, ss.B) + ss.D)
                for k in range(1, 9)))
        checks = []
        for point, expected in points:
            drops = [self.rank(np.block([[ss.A - point * np.eye(ss.n), ss.B], [ss.C, ss.D]]))
                     < ss.n + nr for ss, nr in zip(systems, ranks)]
            checks.append((point, *drops, expected))
        return checks, ranks

    def test_agrees_with_per_point_reference_on_relay_pools(self):
        relay_blocks = _relay_blocks()
        sizes = ((3, 2), (4, 2), (4, 3), (5, 3), (5, 4))
        compared = 0
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            for _ in range(60):
                for size in sizes:
                    b = relay_blocks(rng, *size, 2)
                    d = compute_dsf(PartitionedRealization(b.A11, b.A12, b.A21, b.A22,
                                                           b.B1, b.B2))
                    result = minreal_pipeline(d, enumerate_all=True)
                    g = result.gilbert
                    for r in result.realizations:
                        full = _assemble(g, r.rstar.materialize(), range(g.l))
                        want, ranks = self.reference(g, r.cancellation_flags, full)
                        # the pipeline's zero checks are _zero_point_tests on this cascade
                        assert [(c.point, c.v_zero, c.g_zero, c.expected)
                                for c in r.zero_checks] == want
                        assert [_transfer_normal_rank(ss, TOL_RANK) for ss in (
                            StateSpace(full.A22, full.B2, full.A12, full.B1),
                            full.assemble())] == ranks
                        compared += len(want)
        assert compared > 1000


class TestStackedChecks:
    """Members of a stack are judged as the one-system calls judge them."""

    @staticmethod
    def with_a12_nudged(part):
        A12 = part.A12.copy()
        A12[0, 0] += 1e-2
        return PartitionedRealization(part.A11, A12, part.A21, part.A22, part.B1, part.B2)

    def check_stack(self, d, result):
        """A stack of every realization with a nudged copy of the first in second place."""
        parts = [r.realization for r in result.realizations]
        stack = [parts[0], self.with_a12_nudged(parts[0]), *parts[1:]]
        verdicts = consistency_check(stack, d)
        assert verdicts == [consistency_check(part, d) for part in stack]
        assert verdicts == [True, False] + [True] * (len(parts) - 1)
        assert verdicts[:1] + verdicts[2:] == [r.consistent for r in result.realizations]
        return len(stack)

    def relay_results(self, count):
        relay_blocks = _relay_blocks()
        sizes = ((3, 2), (4, 2), (4, 3), (5, 3), (5, 4))
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            for _ in range(count):
                for size in sizes:
                    b = relay_blocks(rng, *size, 2)
                    d = compute_dsf(PartitionedRealization(b.A11, b.A12, b.A21, b.A22,
                                                           b.B1, b.B2))
                    yield d, minreal_pipeline(d, enumerate_all=True)

    def test_consistency_members_judged_alone_on_relay_pools(self):
        sizes = [self.check_stack(d, result) for d, result in self.relay_results(12)]
        assert max(sizes) >= 4

    def test_consistency_members_judged_alone_on_rational_entries(self, ex2_dsf):
        # ex2 and DSF(Q, P) of from_pole_residue entries: no modes, rmat_eval values
        rng = np.random.default_rng(71)
        dsfs = [ex2_dsf] + [random_dsf(rng, 3, 2, int(rng.integers(2, 5))) for _ in range(10)]
        for d in dsfs:
            assert d.modes is None
            self.check_stack(d, minreal_pipeline(d, enumerate_all=True))
        assert len(minreal_pipeline(ex2_dsf, enumerate_all=True).realizations) == 4

    def test_stack_of_two_shapes_rejected(self, ex2_dsf):
        part = minreal_pipeline(ex2_dsf).realizations[0].realization
        bare = PartitionedRealization(part.A11, np.zeros((3, 0)), np.zeros((0, 3)),
                                      np.zeros((0, 0)), part.B1, np.zeros((0, 1)))
        with pytest.raises(ShapeMismatch):
            consistency_check([part, bare], ex2_dsf)

    def test_invariant_zero_stack_equals_per_system_calls(self):
        # G = diag((s+2)/(s+1), (s+3)/(s+2)) has normal rank 2 and zeros at -2
        # and -3; with both inputs entering as one, the normal rank is 1
        full = StateSpace(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2), np.eye(2))
        single = StateSpace(np.diag([-1.0, -2.0]), [[1.0, 1.0], [1.0, 1.0]], np.eye(2),
                            np.zeros((2, 2)))
        stack = [full, single, full]
        points = np.array([[-2.0, -3.0, -1.5], [-2.0, -0.5, 4.0], [-1.0, -3.0 + 1j, -3.0]])
        got = is_invariant_zero(stack, points)
        want = [is_invariant_zero(ss, at) for ss, at in zip(stack, points)]
        assert got.shape == (3, 3)
        assert got.tolist() == [w.tolist() for w in want]
        assert got[0].tolist() == [True, True, False]
        assert not got[1].any()
        ranks = _normal_ranks(*(np.stack([getattr(ss, key) for ss in stack]) for key in "ABCD"),
                              TOL_RANK)
        assert ranks.tolist() == [_transfer_normal_rank(ss, TOL_RANK) for ss in stack] == [2, 1, 2]


def _minimal_part_order(part):
    ss = part.assemble()
    return kalman_reduce(ss.A, ss.B, ss.C)[0].shape[0]


class TestOneAnswerType:
    """The pipeline's answer is the ``MinimalOrder`` of its own search."""

    @staticmethod
    def dsfs():
        relay_blocks = _relay_blocks()
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            for _ in range(12):
                for size in ((3, 2), (4, 2), (4, 3), (5, 3), (5, 4)):
                    b = relay_blocks(rng, *size, 2)
                    yield compute_dsf(PartitionedRealization(b.A11, b.A12, b.A21, b.A22,
                                                             b.B1, b.B2))
        rng = np.random.default_rng(71)
        for _ in range(10):
            yield random_dsf(rng, 3, 2, int(rng.integers(2, 5)))

    def test_pipeline_result_is_the_minimal_order(self):
        for d in self.dsfs():
            mo = minimal_order(d)
            for enumerate_all in (False, True):
                res = minreal_pipeline(d, enumerate_all=enumerate_all)
                assert isinstance(res, MinimalOrder)
                assert (res.l, res.phi, res.order, res.hidden) == \
                    (mo.l, mo.phi, mo.order, mo.hidden)


class TestTransferDegree:
    """The McMillan degree of G against the minimal part of a system realizing G."""

    def test_equals_the_minimal_part_of_every_realization(self):
        # a consistent realization with C = [I 0] realizes G = (I - Q)^(-1) P
        rng = np.random.default_rng(2)
        for l in (2, 3, 4, 6, 8):
            for _ in range(30):
                poles, KQ, KP = random_pole_residue(rng, 4, 2, l)
                d = DSF.from_modes(poles, np.concatenate([KQ, KP], axis=2))
                res = minreal_pipeline(d, enumerate_all=True)
                degree = transfer_degree(res.gilbert)
                for r in res.realizations:
                    assert r.consistent
                    assert _minimal_part_order(r.realization) == degree

    def test_equals_the_minimal_part_of_the_relay_system(self):
        relay_blocks = _relay_blocks()
        rng = np.random.default_rng(4)
        for _ in range(9):
            for p in range(3, 7):
                for h in range(2, 7):
                    b = relay_blocks(rng, p, h, 2)
                    part = PartitionedRealization(b.A11, b.A12, b.A21, b.A22, b.B1, b.B2)
                    g = extract_modes(compute_dsf(part))
                    assert transfer_degree(g) == _minimal_part_order(part)

    def test_pole_near_the_origin_without_shift(self):
        # at tol_pole 1e-12 the pole 5e-10 is off the origin, so no shift is taken
        KQ = [[[0, 0], [1, 0]], [[0, 1], [0, 0]]]
        KP = [[[0], [1]], [[1], [0]]]
        d = DSF.from_modes([5e-10, -2.0], np.concatenate([KQ, KP], axis=2), 1e-12)
        g = extract_modes(d)
        assert g.shift == 0.0
        assert transfer_degree(g) == 2
