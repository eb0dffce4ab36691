"""Structure-function extraction, composition, and consistency."""

import numpy as np
import pytest

from dsfmin import (
    DSF,
    PartitionedRealization,
    boolean_structure,
    compute_dsf,
    consistency_check,
    dsf_to_transfer,
    mcmillan_degree,
    rmat_equal,
    structure_limits,
    transfer_function,
)
from dsfmin.errors import ShapeMismatch

from conftest import ZERO, ex1_dsf_closed_form, random_dsf, random_partition, rmat


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
