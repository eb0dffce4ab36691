"""Structure-function extraction, composition, and consistency."""

import importlib.util
import os
import sys
from collections import Counter

import numpy as np
import pytest

from dsfmin import (
    DSF,
    PartitionedRealization,
    PoleResidueForm,
    RationalFunction,
    RationalMatrix,
    boolean_structure,
    compute_dsf,
    compute_wv,
    consistency_check,
    dsf_to_transfer,
    from_pole_residue,
    kalman_reduce,
    mcmillan_degree,
    minreal_pipeline,
    residue_at,
    rmat_equal,
    rmat_poles,
    structure_limits,
    transfer_function,
)
from dsfmin import dsf, minreal, ratcore
from dsfmin.cli import main
from dsfmin.errors import (
    AssumptionError,
    ComplexPolesUnsupported,
    RepeatedPole,
    ShapeMismatch,
)

from conftest import (
    ZERO,
    ex1_dsf_closed_form,
    random_dsf,
    random_partition,
    random_pole_residue,
    rmat,
)


class TestComputeDsf:
    def test_ex1_closed_forms(self, ex1_partition):
        d = compute_dsf(ex1_partition)
        expect = ex1_dsf_closed_form()
        assert rmat_equal(d.Q, expect.Q, 1e-9)
        assert rmat_equal(d.P, expect.P, 1e-9)

    def test_no_hidden_states_decoupled(self):
        part = PartitionedRealization(np.diag([-1.0, -2.0]), np.zeros((2, 0)),
                                      np.zeros((0, 2)), np.zeros((0, 0)),
                                      np.eye(2), np.zeros((0, 2)))
        d = compute_dsf(part)
        assert all(d.Q.entries[i][j].is_zero for i in range(2) for j in range(2))
        expect_p = rmat([[([1], [1, 1]), ZERO], [ZERO, ([1], [2, 1])]])
        assert rmat_equal(d.P, expect_p)

    def test_invariants_hold_on_random_systems(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            part = random_partition(rng, 3, 3, 2)
            d = compute_dsf(part)
            for i in range(d.p):
                assert d.Q.entries[i][i].is_zero
                for j in range(d.p):
                    assert d.Q.entries[i][j].is_strictly_proper
                for j in range(d.m):
                    assert d.P.entries[i][j].is_strictly_proper


class TestDsfToTransfer:
    def test_zero_q_returns_p(self):
        d = DSF(rmat([[ZERO, ZERO], [ZERO, ZERO]]),
                rmat([[([1], [1, 1])], [([2], [3, 1])]]))
        assert rmat_equal(dsf_to_transfer(d), d.P)

    def test_ex2_mcmillan_degree(self, ex2_dsf):
        assert mcmillan_degree(dsf_to_transfer(ex2_dsf)) == 4

    def test_no_pole_gives_zero_transfer(self):
        # with B = 0 no row of [Q P] has a pole, so the Gilbert realization
        # of [Q P] is the one decoupled state that stands for no dynamics
        d = compute_dsf(_partition(np.diag([-1.0, -2.0]), np.zeros((2, 1)), 2))
        assert d.poles == []
        G = dsf_to_transfer(d)
        assert len(G.entries) == 2 and all(len(row) == 1 for row in G.entries)
        assert all(e.is_zero for row in G.entries for e in row)

    def test_roundtrip_matches_assembled_transfer(self):
        rng = np.random.default_rng(29)
        for _ in range(8):
            p = int(rng.integers(2, 5))
            h = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            part = random_partition(rng, p, h, m)
            d = compute_dsf(part)
            assert rmat_equal(dsf_to_transfer(d),
                              transfer_function(part.assemble()), 1e-7)


class TestStructureLimits:
    def test_ex1_patterns(self, ex1_partition):
        d = compute_dsf(ex1_partition)
        lim = structure_limits(d)
        expect_q = np.zeros((3, 3))
        expect_q[0, 2] = 1.0
        expect_q[2, 1] = 1.0
        assert np.allclose(lim.A11_offdiag, expect_q)
        expect_p = np.zeros((3, 2))
        expect_p[0, 0] = 1.0
        expect_p[1, 1] = 1.0
        assert np.allclose(lim.B1, expect_p)

    def test_zero_q_all_ones_p(self):
        p_entries = [[([1], [4, 1])] * 2 for _ in range(2)]
        d = DSF(rmat([[ZERO, ZERO], [ZERO, ZERO]]), rmat(p_entries))
        lim = structure_limits(d)
        assert np.all(lim.A11_offdiag == 0.0)
        assert np.allclose(lim.B1, np.ones((2, 2)))

    def test_limits_recover_partition_blocks(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            part = random_partition(rng, int(rng.integers(1, 5)),
                                    int(rng.integers(0, 5)),
                                    int(rng.integers(1, 4)))
            d = compute_dsf(part)
            lim = structure_limits(d)
            offdiag = part.A11 - np.diag(np.diag(part.A11))
            assert np.max(np.abs(lim.A11_offdiag - offdiag)) < 1e-8
            assert np.max(np.abs(lim.B1 - part.B1)) < 1e-8

    def test_limits_of_nineteen_pole_rows(self):
        # each row of [Q P] has 19 poles: the leading numerator coefficient
        # of an entry sits far below its constant term and is chopped, so
        # the limits come from the residues the structure function carries
        rng = np.random.default_rng(5)
        for _ in range(3):
            part = _long_rows(rng, 2, 18, 2)
            d = compute_dsf(part)
            lim = structure_limits(d)
            offdiag = part.A11 - np.diag(np.diag(part.A11))
            assert np.max(np.abs(lim.A11_offdiag - offdiag)) < 1e-12
            assert np.max(np.abs(lim.B1 - part.B1)) < 1e-12


class TestBooleanStructure:
    def test_ex2_everything_present(self, ex2_dsf):
        bs = boolean_structure(ex2_dsf)
        assert np.array_equal(bs.q_adj, ~np.eye(3, dtype=bool))
        assert bs.p_adj.all()

    def test_ex1_sparsity(self, ex1_partition):
        bs = boolean_structure(compute_dsf(ex1_partition))
        expect_q = np.zeros((3, 3), dtype=bool)
        expect_q[0, 2] = expect_q[1, 0] = expect_q[2, 1] = True
        assert np.array_equal(bs.q_adj, expect_q)
        expect_p = np.zeros((3, 2), dtype=bool)
        expect_p[0, 0] = expect_p[1, 1] = True
        assert np.array_equal(bs.p_adj, expect_p)

    def test_zero_q_all_false(self):
        d = DSF(rmat([[ZERO, ZERO], [ZERO, ZERO]]),
                rmat([[([1], [1, 1])], [ZERO]]))
        bs = boolean_structure(d)
        assert not bs.q_adj.any()

    def test_adjacency_matches_degree_one_limits(self, ex2_dsf):
        # with relative degree exactly one, lim s*Q is nonzero exactly on q_adj
        bs = boolean_structure(ex2_dsf)
        lim = structure_limits(ex2_dsf)
        assert np.array_equal(bs.q_adj, np.abs(lim.A11_offdiag) > 1e-12)


class TestConsistencyCheck:
    def test_definitional(self):
        rng = np.random.default_rng(53)
        part = random_partition(rng, 3, 2, 2)
        d = compute_dsf(part)
        assert consistency_check(part, d)

    def test_perturbed_hidden_block_fails(self):
        rng = np.random.default_rng(59)
        part = random_partition(rng, 3, 2, 2)
        d = compute_dsf(part)
        A22 = part.A22.copy()
        A22[0, 0] += 0.1
        perturbed = PartitionedRealization(part.A11, part.A12, part.A21,
                                           A22, part.B1, part.B2)
        assert not consistency_check(perturbed, d)

    def test_agrees_with_symbolic_reference(self):
        # the reference rebuilds the realization's [Q P] symbolically
        def reference(part, d):
            d2 = compute_dsf(part, d.tol_pole)
            return rmat_equal(d2.Q, d.Q) and rmat_equal(d2.P, d.P)

        blocks = ("A11", "A12", "A21", "A22", "B1", "B2")

        def nudged(part, name, delta):
            mats = {b: getattr(part, b).copy() for b in blocks}
            mats[name][0, 0] += delta
            return PartitionedRealization(**mats)

        rng = np.random.default_rng(61)
        for _ in range(20):
            part = random_partition(rng, int(rng.integers(2, 5)),
                                    int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            d = compute_dsf(part)
            assert consistency_check(part, d)
            assert reference(part, d)
            for name in blocks:
                # 1e-4 on A22 moves [Q P] by about 1e-9 at points beyond the
                # poles, under the rule's absolute floor: both checks pass it
                small, large = nudged(part, name, 1e-4), nudged(part, name, 1e-2)
                assert consistency_check(small, d) == reference(small, d), name
                assert not consistency_check(large, d), name
                assert not reference(large, d), name

    def test_no_hidden_states(self):
        def part_with(A11):
            return PartitionedRealization(A11, np.zeros((2, 0)), np.zeros((0, 2)),
                                          np.zeros((0, 0)), np.eye(2), np.zeros((0, 2)))

        A11 = np.array([[-1.0, 0.5], [0.0, -2.0]])
        d = compute_dsf(part_with(A11))
        assert consistency_check(part_with(A11), d)
        A11[1, 0] = 1e-4
        assert not consistency_check(part_with(A11), d)

    def test_shape_mismatch(self, ex2_dsf):
        part = PartitionedRealization(np.diag([-1.0, -2.0]), np.zeros((2, 0)),
                                      np.zeros((0, 2)), np.zeros((0, 0)),
                                      np.eye(2), np.zeros((0, 2)))
        with pytest.raises(ShapeMismatch):
            consistency_check(part, ex2_dsf)


class TestDsfInvariantsAtConstruction:
    def test_nonzero_diagonal_rejected(self):
        Q = rmat([[([1], [1, 1]), ZERO], [ZERO, ZERO]])
        P = rmat([[([1], [1, 1])], [ZERO]])
        with pytest.raises(ValueError, match="identically zero"):
            DSF(Q, P)

    def test_improper_entry_rejected(self):
        Q = rmat([[ZERO, ZERO], [ZERO, ZERO]])
        P = rmat([[([1, 1], [2, 1])], [ZERO]])  # biproper
        with pytest.raises(ValueError, match="strictly proper"):
            DSF(Q, P)

    def test_complex_poles_rejected(self):
        from dsfmin.errors import ComplexPolesUnsupported
        Q = rmat([[ZERO, ZERO], [ZERO, ZERO]])
        P = rmat([[([1], [1, 0, 1])], [ZERO]])
        with pytest.raises(ComplexPolesUnsupported):
            DSF(Q, P)

    def test_repeated_pole_rejected(self):
        from dsfmin.errors import RepeatedPole
        Q = rmat([[ZERO, ZERO], [ZERO, ZERO]])
        P = rmat([[([1], [4, 4, 1])], [ZERO]])
        with pytest.raises(RepeatedPole):
            DSF(Q, P)

    def test_sixteen_pole_draws_are_strictly_proper(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            d = random_dsf(rng, 4, 2, 16)
            assert d.p == 4


def _relay_blocks():
    """perfbench's relay_blocks generator, imported by path."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "generators.py")
    spec = importlib.util.spec_from_file_location("dsfmin_perfbench_generators", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.relay_blocks


def _long_rows(rng, p, h, m):
    """Partition whose every row system has 1 + h real poles.

    The couplings A12, A21 (and A11's off-diagonal and B) are drawn in
    [0.5, 2] and A22 is diagonal in [-10, -1], so each row system is an
    arrow matrix with positive products of couplings: real distinct
    poles interlacing those of A22.
    """
    n = p + h
    A = rng.uniform(0.5, 2.0, (n, n))
    A[range(n), range(n)] = rng.uniform(-10.0, -1.0, n)
    A[p:, p:] = np.diag(np.diag(A)[p:])
    return _partition(A, rng.uniform(0.5, 2.0, (n, m)), p)


def _modes_dsf(rng, p, m, l):
    """``DSF.from_modes`` of a ``random_pole_residue`` draw."""
    poles, KQ, KP = random_pole_residue(rng, p, m, l)
    return DSF.from_modes(poles, np.concatenate([KQ, KP], axis=2))


def _partition(A, B, p):
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    return PartitionedRealization(A[:p, :p], A[:p, p:], A[p:, :p], A[p:, p:], B[:p], B[p:])


class TestRowRealization:
    """compute_dsf from a Kalman reduction of each row system."""

    @staticmethod
    def symbolic(part):
        # Q_ij = W_ij / (s - W_ii) and P_ij = V_ij / (s - W_ii)
        W, V = compute_wv(part)
        s = RationalFunction([0.0, 1.0])
        gaps = [s - W.entries[i][i] for i in range(part.p)]
        Q = [[RationalFunction([0.0]) if i == j else W.entries[i][j] / gaps[i]
              for j in range(part.p)] for i in range(part.p)]
        P = [[V.entries[i][j] / gaps[i] for j in range(part.m)] for i in range(part.p)]
        return RationalMatrix(Q), RationalMatrix(P)

    def test_agrees_with_symbolic_reference(self):
        rng = np.random.default_rng(71)
        relay_blocks = _relay_blocks()
        parts = [random_partition(rng, int(rng.integers(1, 5)), int(rng.integers(0, 4)),
                                  int(rng.integers(1, 3))) for _ in range(20)]
        for size in ((3, 2), (4, 2), (4, 3), (5, 3), (5, 4)) * 4:
            b = relay_blocks(rng, *size, 2)
            parts.append(PartitionedRealization(b.A11, b.A12, b.A21, b.A22, b.B1, b.B2))
        for part in parts:
            d = compute_dsf(part)
            Q, P = self.symbolic(part)
            assert rmat_equal(d.Q, Q, 1e-9)
            assert rmat_equal(d.P, P, 1e-9)

    def test_shared_pole_of_two_hidden_states_is_simple(self):
        # z1 and z2 both sit at -3 and both feed y1; y1 sees one mode there
        A = [[-1., 0., 1., 1.], [0., -2., 0., 0.], [0., 1., -3., 0.], [0., 0., 0., -3.]]
        d = compute_dsf(_partition(A, [[0.], [1.], [0.], [1.]], 2))
        for e in (d.Q.entries[0][1], d.P.entries[0][0]):
            assert np.allclose(np.sort(e.poles().real), [-3.0, -1.0])

    def test_jordan_block_seen_by_a_row_is_repeated(self):
        A = [[-1., 1., 0.], [0., -3., 1.], [0., 0., -3.]]
        with pytest.raises(RepeatedPole):
            compute_dsf(_partition(A, [[0.], [0.], [1.]], 1))

    def test_similar_jordan_block_of_order_three_is_repeated(self):
        # A = S J S^-1 with J one 3x3 Jordan block: eig returns a ring of
        # radius about 1e-5 around the eigenvalue, which looks complex
        rng = np.random.default_rng(1)
        kept = 0
        for lam in (0.0, -1.0, -3.0):
            J = lam * np.eye(3) + np.diag([1.0, 1.0], 1)
            for _ in range(50):
                S = rng.standard_normal((3, 3))
                A = S @ J @ np.linalg.inv(S)
                B = rng.standard_normal((3, 1))
                if kalman_reduce(A, B, np.eye(1, 3))[0].shape[0] < 3:
                    continue  # the staircase dropped a state of an ill-conditioned S
                kept += 1
                with pytest.raises(RepeatedPole):
                    compute_dsf(_partition(A, B, 1))
        assert kept >= 140

    def test_complex_mode_seen_by_a_row_is_rejected(self):
        A = [[-1., 1., 0.], [0., -1., 2.], [0., -2., -1.]]
        with pytest.raises(ComplexPolesUnsupported):
            compute_dsf(_partition(A, [[0.], [0.], [1.]], 1))

    def test_close_poles_in_different_entries_are_accepted(self):
        # y1's row sees -1 through u1 only and -1 + 5e-7 through u2 only:
        # each entry has a simple pole, as the same pole-residue input has
        lam = -1.0 + 5e-7
        d = compute_dsf(_partition([[-1., 5e-7], [0., lam]], [[1., 1.], [0., 1.]], 1))
        assert rmat_equal(d.P, rmat([[([1], [1, 1]), ([1], [-lam, 1])]]))
        prf = PoleResidueForm([-1.0, lam], [[[1., 0.]], [[0., 1.]]], np.zeros((1, 2)))
        assert rmat_equal(DSF(d.Q, from_pole_residue(prf)).P, d.P)

    def test_small_input_keeps_its_entry(self):
        d = compute_dsf(_partition([[-1., 1.], [1., -2.]], [[1e-9], [0.]], 2))
        assert d.P.entries[1][0].is_zero
        assert d.P.entries[0][0](0.0) == pytest.approx(1e-9, rel=1e-12)
        assert d.P.entries[0][0].poles() == pytest.approx([-1.0])

    def test_column_scaling_scales_only_its_column(self):
        rng = np.random.default_rng(13)
        relay_blocks = _relay_blocks()
        s = np.array([0.3 + 1.1j, -0.7 + 2.3j])
        for size in ((3, 2), (4, 3), (5, 4)):
            b = relay_blocks(rng, *size, 2)
            part = PartitionedRealization(b.A11, b.A12, b.A21, b.A22, b.B1, b.B2)
            scale = np.array([1e-9, 1e9])
            scaled = PartitionedRealization(b.A11, b.A12, b.A21, b.A22,
                                            b.B1 * scale, b.B2 * scale)
            d, ds = compute_dsf(part), compute_dsf(scaled)
            assert rmat_equal(d.Q, ds.Q, 1e-12)
            for i in range(d.p):
                for j in range(d.m):
                    e, es = d.P.entries[i][j], ds.P.entries[i][j]
                    assert e.is_zero == es.is_zero
                    assert np.allclose(es(s), scale[j] * e(s), rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("A22", [[[-1., 2.], [-2., -1.]], [[-3., 1.], [0., -3.]]])
    def test_mode_no_row_sees_is_dropped(self, A22):
        # the hidden states are driven by y1 and u but feed no measured state
        A = np.zeros((4, 4))
        A[:2, :2] = [[-1., 0.], [0.5, -2.]]
        A[2, 0] = 1.0
        A[2:, 2:] = A22
        d = compute_dsf(_partition(A, [[1.], [0.], [1.], [1.]], 2))
        assert d.Q.entries[0][1].is_zero and d.P.entries[1][0].is_zero
        assert rmat_equal(d.Q, rmat([[ZERO, ZERO], [([0.5], [2, 1]), ZERO]]))
        assert rmat_equal(d.P, rmat([[([1], [1, 1])], [ZERO]]))

    def test_poles_are_those_of_the_block_row(self):
        rng = np.random.default_rng(23)
        dsfs = [random_dsf(rng, 4, 2, l) for l in (2, 4, 8, 10, 12) for _ in range(4)]
        relay_blocks = _relay_blocks()
        for size in ((3, 2), (4, 3), (5, 4), (5, 8)):
            b = relay_blocks(rng, *size, 2)
            dsfs.append(compute_dsf(
                PartitionedRealization(b.A11, b.A12, b.A21, b.A22, b.B1, b.B2)))
        dsfs += [_modes_dsf(rng, 4, 2, l) for l in (2, 8, 14, 19) for _ in range(4)]
        for d in dsfs:
            assert d.poles == rmat_poles(d.qp(), d.tol_pole)

    def test_relay_five_plus_eight(self):
        rng = np.random.default_rng(7)
        relay_blocks = _relay_blocks()
        for _ in range(30):
            b = relay_blocks(rng, 5, 8, 2)
            part = PartitionedRealization(b.A11, b.A12, b.A21, b.A22, b.B1, b.B2)
            result = minreal_pipeline(compute_dsf(part))
            assert result.order <= 13
            assert all(r.consistent for r in result.realizations)


def _row_realization_models():
    """The partitions of TestRowRealization's hand-built cases, with the
    first draws of its similar Jordan blocks and of its scaled relay
    blocks, and two rows that only the staircase judges as it does."""
    models = [
        ([[-1., 0., 1., 1.], [0., -2., 0., 0.], [0., 1., -3., 0.], [0., 0., 0., -3.]],
         [[0.], [1.], [0.], [1.]], 2),                                  # shared pole
        ([[-1., 1., 0.], [0., -3., 1.], [0., 0., -3.]], [[0.], [0.], [1.]], 1),  # Jordan
        ([[-1., 1., 0.], [0., -1., 2.], [0., -2., -1.]], [[0.], [0.], [1.]], 1),  # complex
        ([[-1., 5e-7], [0., -1.0 + 5e-7]], [[1., 1.], [0., 1.]], 1),    # close poles
        ([[-1., 1.], [1., -2.]], [[1e-9], [0.]], 2),                    # small input
    ]
    for A22 in ([[-1., 2.], [-2., -1.]], [[-3., 1.], [0., -3.]]):      # modes no row sees
        A = np.zeros((4, 4))
        A[:2, :2] = [[-1., 0.], [0.5, -2.]]
        A[2, 0] = 1.0
        A[2:, 2:] = A22
        models.append((A, [[1.], [0.], [1.], [1.]], 2))
    # two eigenvalues 1e-5 apart, beyond tol_pole, with an eigenbasis of
    # condition 2e9: the reduced row judges them a repeated pole
    models.append(([[-1., 1e4], [0., -1. - 1e-5]], [[0.], [1.]], 1))
    # y1 sees the hidden states only through couplings at rounding level
    A = np.zeros((5, 5))
    A[:2, :2] = np.diag([-1., -2.])
    A[2:, 2:] = [[-4., 1., 0.], [0.5, -5., 1.], [0., 0.3, -6.]]
    A[1, 2:] = [1., 0.5, -0.7]
    A[0, 2:] = [1e-17, -2e-17, 1.5e-17]
    models.append((A, [[0.], [1.], [0.4], [-0.3], [0.8]], 2))
    parts = [_partition(*m) for m in models]
    rng = np.random.default_rng(1)
    for lam in (0.0, -1.0, -3.0):
        J = lam * np.eye(3) + np.diag([1.0, 1.0], 1)
        for _ in range(5):
            S = rng.standard_normal((3, 3))
            parts.append(_partition(S @ J @ np.linalg.inv(S), rng.standard_normal((3, 1)), 1))
    relay_blocks = _relay_blocks()
    rng = np.random.default_rng(13)
    for size in ((3, 2), (4, 3), (5, 4)):
        b = relay_blocks(rng, *size, 2)
        scale = np.array([1e-9, 1e9])
        parts.append(PartitionedRealization(b.A11, b.A12, b.A21, b.A22,
                                            b.B1 * scale, b.B2 * scale))
    return parts


class TestStackedRows:
    """compute_dsf's one eigendecomposition of the stacked row systems
    against the staircase, ``kalman_reduce``, of every row."""

    RELAY_SIZES = ((3, 2), (4, 2), (4, 3), (5, 3), (5, 4), (4, 6), (6, 6), (5, 8), (6, 8),
                   (6, 10), (8, 12))

    @staticmethod
    def outcome(part):
        try:
            return compute_dsf(part)
        except AssumptionError as exc:  # compared by class with the other path
            return type(exc)

    @classmethod
    def relay_parts(cls, rng, per_size):
        relay_blocks = _relay_blocks()
        return [PartitionedRealization(b.A11, b.A12, b.A21, b.A22, b.B1, b.B2)
                for size in cls.RELAY_SIZES for b in (relay_blocks(rng, *size, 2)
                                                       for _ in range(per_size))]

    def test_every_row_agrees_with_its_staircase(self, monkeypatch):
        rng = np.random.default_rng(53)
        parts = [*self.relay_parts(rng, 8), *_row_realization_models()]
        parts += [random_partition(rng, int(rng.integers(1, 6)), int(rng.integers(0, 5)),
                                   int(rng.integers(1, 3))) for _ in range(40)]
        stacked = [self.outcome(part) for part in parts]
        monkeypatch.setattr(dsf, "_safe_rows",
                            lambda lam, V, tol_pole: np.zeros(len(lam), dtype=bool))
        raised = 0
        for part, got in zip(parts, stacked):
            want = self.outcome(part)
            if isinstance(want, type) or isinstance(got, type):
                assert got == want
                raised += 1
                continue
            assert np.allclose(got.poles, want.poles, rtol=1e-9, atol=1e-12)
            assert np.array_equal(got.residues != 0.0, want.residues != 0.0)
            for i in range(part.p):
                scale = np.max(np.abs(want.residues[:, i]), initial=0.0)
                assert np.max(np.abs(got.residues[:, i] - want.residues[:, i]),
                              initial=0.0) <= 1e-9 * scale
        assert raised >= 3  # at least the hand-built Jordan, complex and near-defective cases

    def test_staircase_runs_only_for_rows_the_stacked_path_cannot_judge(self, monkeypatch):
        calls = Counter()
        reduce = dsf.kalman_reduce

        def counted(*args):
            calls["kalman_reduce"] += 1
            return reduce(*args)

        monkeypatch.setattr(dsf, "kalman_reduce", counted)
        for part in self.relay_parts(np.random.default_rng(59), 3):
            compute_dsf(part)
        assert calls["kalman_reduce"] == 0
        models = _row_realization_models()
        shared, jordan, unseen_complex, near_defective, rounding = (
            models[k] for k in (0, 1, 5, 7, 8))
        for part in (shared, unseen_complex, rounding):
            calls.clear()
            compute_dsf(part)
            assert calls["kalman_reduce"] > 0
        for part in (jordan, near_defective):
            calls.clear()
            with pytest.raises(RepeatedPole):
                compute_dsf(part)
            assert calls["kalman_reduce"] > 0


class TestCarriedRowData:
    """The row poles and residues compute_dsf hands to the pipeline."""

    @staticmethod
    def relay_parts(rng, count):
        relay_blocks = _relay_blocks()
        sizes = ((3, 2), (4, 2), (4, 3), (5, 3), (5, 4))
        return [PartitionedRealization(b.A11, b.A12, b.A21, b.A22, b.B1, b.B2)
                for b in (relay_blocks(rng, *sizes[k % len(sizes)], 2)
                          for k in range(count))]

    def test_residues_agree_with_residue_at(self, ex1_partition):
        # the symbolic path, residue_at on the rational entries, is the reference
        parts = [ex1_partition, *self.relay_parts(np.random.default_rng(31), 20)]
        # residue_at's own rounding grows with the degree of an entry: about
        # 1e-9 at l = 8, so the pole-residue draws stop at l = 6
        rng = np.random.default_rng(29)
        dsfs = [*map(compute_dsf, parts),
                *(_modes_dsf(rng, 4, 2, l) for l in (2, 4, 6) for _ in range(4))]
        # poles -1 - 0.9e-6 k, one per entry of a 4x1 P, chain into one pole
        # of [Q P] 2.7e-6 wide: each entry's residue counts, the ends' too
        chained = np.zeros((4, 4, 5))
        chained[range(4), range(4), 4] = 1.0
        dsfs.append(DSF.from_modes(-1.0 - 0.9e-6 * np.arange(4), chained))
        for d in dsfs:
            assert d.residues.shape == (len(d.poles), d.p, d.p + d.m)
            qp = d.qp()
            for lam, K in zip(d.poles, d.residues):
                want = residue_at(qp, lam, d.tol_pole)
                assert np.max(np.abs(K - want)) <= 1e-8 * np.max(np.abs(want))

    def test_rational_entries_carry_residue_at(self, ex1_partition):
        d = compute_dsf(ex1_partition)
        for rational in (DSF(d.Q, d.P), random_dsf(np.random.default_rng(3), 3, 2, 4)):
            qp = rational.qp()
            want = [residue_at(qp, lam, rational.tol_pole) for lam in rational.poles]
            assert rational.modes is None
            assert rational.residues.shape == (len(rational.poles), rational.p,
                                               rational.p + rational.m)
            assert np.array_equal(rational.residues, want)

    def test_consistency_by_residues_matches_entry_values(self):
        # the same realizations judged against [Q P] as residues and as entries
        for part in self.relay_parts(np.random.default_rng(37), 10):
            d = compute_dsf(part)
            rational = DSF(d.Q, d.P, d.tol_pole)
            for delta in (0.0, 1e-6, 1e-2):
                A22 = part.A22.copy()
                A22[0, 0] += delta
                nudged = PartitionedRealization(part.A11, part.A12, part.A21,
                                                A22, part.B1, part.B2)
                assert consistency_check(nudged, d) == consistency_check(nudged, rational)
            assert consistency_check(part, d)

    def test_entry_with_two_poles_in_one_cluster_is_repeated(self):
        # y1's u entry has poles -1 and -1 - 1.8e-6, apart at tol_pole 1e-6,
        # which y2's pole -1 - 0.9e-6 chains into one pole of [Q P]
        A = np.diag([-5.0, -1.0 - 0.9e-6, -1.0, -1.0 - 1.8e-6])
        A[0, 2] = A[0, 3] = 1.0
        with pytest.raises(RepeatedPole):
            compute_dsf(_partition(A, [[0.], [1.], [1.], [1.]], 2))

    def test_rational_entry_with_two_poles_in_one_chained_pole_is_repeated(self):
        # P[0][0] has poles -1 and -1 - 1.8e-6, apart at tol_pole 1e-6; the
        # poles of P[1][0] and P[2][0] chain them into one pole of [Q P]
        poles = [-1.0, -1.0 - 0.9e-6, -1.0 - 1.7e-6, -1.0 - 1.8e-6]
        K = np.zeros((4, 3, 1))
        K[[0, 1, 2, 3], [0, 1, 2, 0], 0] = [1.0, 1.0, 1.0, 2.0]
        Q = from_pole_residue(PoleResidueForm(poles, np.zeros((4, 3, 3)), np.zeros((3, 3))))
        P = from_pole_residue(PoleResidueForm(poles, K, np.zeros((3, 1))))
        with pytest.raises(RepeatedPole, match=r"P\[0\]\[0\]"):
            DSF(Q, P)
        with pytest.raises(RepeatedPole, match=r"P\[0\]\[0\]"):
            DSF.from_modes(poles, np.concatenate([np.zeros((4, 3, 3)), K], axis=2))

    def test_close_poles_judged_as_pole_residue_input(self):
        # poles -1 and -1 + 5e-7 in different entries merge into one pole of
        # [Q P]; the realization built at their mean is judged against the
        # unmerged poles, with the verdict the same [Q P] gets as residues
        lam = -1.0 + 5e-7
        d = compute_dsf(_partition([[-1., 5e-7], [0., lam]], [[1., 1.], [0., 1.]], 1))
        assert len(d.poles) == 1
        assert np.sort(d.modes[0]) == pytest.approx([-1.0, lam], abs=1e-12)
        prf = PoleResidueForm([-1.0, lam], [[[1., 0.]], [[0., 1.]]], np.zeros((1, 2)))
        given = DSF(from_pole_residue(PoleResidueForm([-1.0, lam], np.zeros((2, 1, 1)),
                                                      np.zeros((1, 1)))),
                    from_pole_residue(prf))
        ours, theirs = (minreal_pipeline(x, enumerate_all=True).realizations
                        for x in (d, given))
        assert [r.consistent for r in ours] == [r.consistent for r in theirs]
        for r in ours:
            assert consistency_check(r.realization, d) == consistency_check(r.realization, given)

    def test_state_space_pipeline_finds_no_root_and_no_residue(self, monkeypatch):
        calls = Counter()

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ratcore.Polynomial, "roots",
                            counted("roots", ratcore.Polynomial.roots))
        for module in (ratcore, dsf, minreal):
            monkeypatch.setattr(module, "residue_at", counted("residue_at", module.residue_at))
        part = self.relay_parts(np.random.default_rng(43), 5)[-1]
        d = compute_dsf(part)
        result = minreal_pipeline(d, enumerate_all=True)
        assert result.l >= d.p and all(r.consistent for r in result.realizations)
        assert calls == Counter()
        # the counters count: a DSF of rational entries takes residue_at, and
        # entries that do not keep their poles find them as roots
        minreal_pipeline(DSF(d.Q, d.P, d.tol_pole))
        assert calls["residue_at"] == result.l and calls["roots"] == 0
        minreal_pipeline(random_dsf(np.random.default_rng(3), 3, 2, 4))
        assert calls["roots"] > 0

    def test_relay_eight_plus_twelve(self):
        rng = np.random.default_rng(7)
        relay_blocks = _relay_blocks()
        for _ in range(30):
            b = relay_blocks(rng, 8, 12, 2)
            part = PartitionedRealization(b.A11, b.A12, b.A21, b.A22, b.B1, b.B2)
            result = minreal_pipeline(compute_dsf(part))
            assert result.order <= 20
            assert all(r.consistent for r in result.realizations)


class TestEntriesOnFirstRead:
    """A structure function from DSF.from_modes builds Q and P when read."""

    def test_answer_path_builds_no_rational_entry(self, monkeypatch, tmp_path):
        builds = Counter()
        build = ratcore._build_pole_residue

        def counted(*args, **kwargs):
            builds["entries"] += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(ratcore, "_build_pole_residue", counted)
        # the counter counts: entries of a DSF(Q, P) are built by from_pole_residue
        random_dsf(np.random.default_rng(3), 3, 2, 4)
        assert builds["entries"] == 2
        builds.clear()
        dsfs = [compute_dsf(part)
                for part in TestCarriedRowData.relay_parts(np.random.default_rng(47), 20)]
        for d in dsfs:
            result = minreal_pipeline(d, enumerate_all=True)
            assert all(r.consistent for r in result.realizations)
            structure_limits(d)
            dsf_to_transfer(d)
        assert builds == Counter()
        from test_cli import write_ex1  # test_cli imports this module
        model = write_ex1(tmp_path)
        assert main(["minreal", model, "--enumerate-all", "--out-dir", str(tmp_path)]) == 0
        assert main(["verify", model, str(tmp_path / "realization_1.json")]) == 0
        written = str(tmp_path / "dsf.json")
        assert main(["extract", model, "-o", written]) == 0
        assert main(["graph", written]) == 0
        assert builds == Counter()
        for d in dsfs:
            lam, R = d.modes
            want = ratcore.from_known_poles(PoleResidueForm(lam, R, np.zeros(R.shape[1:])))
            got = d.qp()
            for row, want_row in zip(got.entries, want.entries):
                for e, w in zip(row, want_row):
                    assert np.array_equal(e.num.coeffs, w.num.coeffs)
                    assert np.array_equal(e.den.coeffs, w.den.coeffs)
                    assert np.array_equal(e.poles(), w.poles())
            assert d.Q is d.Q and d.P is d.P
            roots = np.concatenate([e.poles().real for row in got.entries for e in row])
            assert d.poles == [float(np.mean(c)) for c in ratcore.chain_clusters(roots, d.tol_pole)]
        assert builds["entries"] == 2 * len(dsfs)
