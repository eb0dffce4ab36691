"""State-space models, Gilbert realization, and zero point tests."""

import numpy as np
import pytest

from dsfmin import (
    RationalMatrix,
    StateSpace,
    compute_wv,
    gilbert_realization,
    is_invariant_zero,
    kalman_reduce,
    mcmillan_degree,
    output_normal_form,
    rmat_equal,
    rmat_eval,
    transfer_function,
)
from dsfmin.errors import RankDeficientC
from dsfmin.ratcore import S_POLY
from dsfmin.sslib import transfer_from_blocks

from conftest import EX2_E_DIRECTIONS, ZERO, ex1_matrices, rmat


def _ex2_sqp():
    qp = rmat([[ZERO, ([1], [2, 1]), ([1], [3, 1]), ([1], [4, 1])],
               [([1], [1, 1]), ZERO, ([1], [3, 1]), ([1], [4, 1])],
               [([1], [1, 1]), ([1], [2, 1]), ZERO, ([1], [4, 1])]])
    return qp.scale(S_POLY)


class TestTransferFunction:
    def test_scalar_lag(self):
        ss = StateSpace([[-1.0]], [[1.0]], [[1.0]])
        G = transfer_function(ss)
        assert rmat_equal(G, rmat([[([1], [1, 1])]]))

    def test_decoupled_diagonal(self):
        ss = StateSpace(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2))
        G = transfer_function(ss)
        expect = rmat([[([1], [1, 1]), ZERO], [ZERO, ([1], [2, 1])]])
        assert rmat_equal(G, expect)

    def test_ex1_against_structure_function(self, ex1_statespace, ex1_partition):
        from dsfmin import compute_dsf, dsf_to_transfer
        G = transfer_function(ex1_statespace)
        d = compute_dsf(ex1_partition)
        assert rmat_equal(G, dsf_to_transfer(d), 1e-7)

    def test_nonzero_feedthrough(self):
        ss = StateSpace([[-1.0]], [[1.0]], [[4.0]], [[1.0]])
        G = transfer_function(ss)  # (s+5)/(s+1)
        assert rmat_equal(G, rmat([[([5, 1], [1, 1])]]))

    def test_empty_state_gives_feedthrough(self):
        D = np.array([[1.0, -2.0], [0.5, 0.0]])
        G = transfer_from_blocks(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), D)
        assert np.array_equal(rmat_eval(G, 1.0), D)

    @pytest.mark.parametrize("n", [8, 16, 20])
    def test_large_sparse_state_matches_resolvent(self, n):
        # sparse A around -2 I with dense B and C; 30 draws per size
        rng = np.random.default_rng(3)
        for _ in range(30):
            A = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3) - 2.0 * np.eye(n)
            B = rng.standard_normal((n, 2))
            C = rng.standard_normal((2, n))
            G = transfer_from_blocks(A, B, C, np.zeros((2, 2)))
            for s in (1j, 2.0, 0.5 + 3j):
                want = C @ np.linalg.solve(s * np.eye(n) - A, B)
                err = np.max(np.abs(rmat_eval(G, s) - want)) / np.max(np.abs(want))
                assert err <= 1e-10

    @pytest.mark.parametrize("n", [8, 16])
    def test_modes_an_entry_cannot_see(self, n):
        # as above, with half of B and C zeroed: an entry sees only the
        # modes its own b_j reaches and its own c_i observes
        rng = np.random.default_rng(3)
        for _ in range(30):
            A = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3) - 2.0 * np.eye(n)
            B = rng.standard_normal((n, 2))
            C = rng.standard_normal((2, n))
            B *= rng.random(B.shape) < 0.5
            C *= rng.random(C.shape) < 0.5
            G = transfer_from_blocks(A, B, C, np.zeros((2, 2)))
            for s in (1j, 2.0, 0.5 + 3j):
                want = C @ np.linalg.solve(s * np.eye(n) - A, B)
                err = np.max(np.abs(rmat_eval(G, s) - want)) / np.max(np.abs(want))
                assert err <= 1e-10


class TestOutputNormalForm:
    def test_identity_output_reads_off_blocks(self):
        A, B, C = ex1_matrices()
        part = output_normal_form(StateSpace(A, B, C))
        assert np.allclose(part.A11, A[:3, :3])
        assert np.allclose(part.A22, A[3:, 3:])
        assert np.allclose(part.B1, B[:3])

    def test_permuted_output(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 1))
        C = np.array([[0., 0., 1., 0.], [0., 0., 0., 1.]])
        ss = StateSpace(A, B, C)
        part = output_normal_form(ss)
        assert rmat_equal(transfer_function(ss),
                          transfer_function(part.assemble()), 1e-7)

    def test_random_full_rank_preserves_transfer(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            A = rng.standard_normal((6, 6)) - 3 * np.eye(6)
            B = rng.standard_normal((6, 2))
            C = rng.standard_normal((2, 6))
            ss = StateSpace(A, B, C)
            part = output_normal_form(ss)
            assert rmat_equal(transfer_function(ss),
                              transfer_function(part.assemble()), 1e-7)

    def test_full_observation_gives_no_hidden_states(self):
        ss = StateSpace(np.diag([-1.0, -2.0]), np.ones((2, 1)), np.eye(2))
        part = output_normal_form(ss)
        assert part.h == 0

    def test_rank_deficient_rejected(self):
        ss = StateSpace(np.diag([-1.0, -2.0]), np.ones((2, 1)),
                        np.array([[1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(RankDeficientC):
            output_normal_form(ss)


class TestGilbertRealization:
    def test_scalar(self):
        ss = gilbert_realization(rmat([[([1], [1, 1])]]))
        assert ss.A.shape == (1, 1)
        assert ss.A[0, 0] == pytest.approx(-1.0)

    def test_ex2_modes(self):
        ss = gilbert_realization(_ex2_sqp())
        assert ss.n == 4
        assert np.allclose(np.sort(np.diag(ss.A)), [-4, -3, -2, -1])
        # each mode's output direction matches the derived residue column
        for k in range(4):
            lam = ss.A[k, k]
            direction = ss.C[:, k] / np.linalg.norm(ss.C[:, k])
            expect = EX2_E_DIRECTIONS[round(lam)]
            expect = expect / np.linalg.norm(expect)
            assert np.allclose(direction, expect, atol=1e-8)

    def test_rank_two_residue(self):
        M = rmat([[([1], [1, 1]), ZERO], [ZERO, ([1], [1, 1])]])
        ss = gilbert_realization(M)
        assert ss.n == 2

    def test_factorization_reconstructs_residue(self):
        from dsfmin import residue_at
        from dsfmin.sslib import rank_factorization
        sqp = _ex2_sqp()
        for lam in (-1.0, -2.0, -3.0, -4.0):
            K = residue_at(sqp, lam)
            E, F, r = rank_factorization(K)
            assert r == 1
            assert np.max(np.abs(E @ F - K)) < 1e-8


class TestKalmanReduce:
    def test_drops_unreachable_and_unobservable_modes(self):
        rng = np.random.default_rng(33)
        A0 = np.diag([-1.0, -2.5, -4.0]) + 0.3 * rng.standard_normal((3, 3))
        B0, C0 = rng.standard_normal((3, 2)), rng.standard_normal((2, 3))
        # state 3 is unreachable but observable, state 4 reachable but unobservable
        A = np.zeros((5, 5))
        A[:3, :3] = A0
        A[:3, 3] = rng.standard_normal(3)
        A[3, 3] = -6.0
        A[4] = np.concatenate([rng.standard_normal(4), [-7.0]])
        B = np.vstack([B0, np.zeros((1, 2)), rng.standard_normal((1, 2))])
        C = np.hstack([C0, rng.standard_normal((2, 1)), np.zeros((2, 1))])
        T, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        Ar, Br, Cr = kalman_reduce(T @ A @ T.T, T @ B, C @ T.T)
        assert Ar.shape == (3, 3) and Br.shape == (3, 2) and Cr.shape == (2, 3)
        for s in (0.5, 2.0 + 1.0j, 10.0):
            want = C0 @ np.linalg.solve(s * np.eye(3) - A0, B0)
            got = Cr @ np.linalg.solve(s * np.eye(3) - Ar, Br)
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want)) + 1e-14

    def test_zero_transfer_has_order_zero(self):
        A = np.diag([-1.0, -2.0])
        assert kalman_reduce(A, np.zeros((2, 1)), np.ones((1, 2)))[0].shape == (0, 0)
        assert kalman_reduce(A, np.array([[1.0], [0.0]]), np.array([[0.0, 1.0]]))[0].shape == (0, 0)

    def test_minimal_system_keeps_its_order(self):
        A, B, C = ex1_matrices()
        assert kalman_reduce(A, B, C)[0].shape == (5, 5)

    def test_small_input_or_output_keeps_its_mode(self):
        # each mode is seen through one input (output) 1e-9 times the other
        A = np.diag([-1.0, -2.0])
        small = np.diag([1.0, 1e-9])
        assert kalman_reduce(A, small, np.ones((1, 2)))[0].shape == (2, 2)
        assert kalman_reduce(A, np.ones((2, 1)), small)[0].shape == (2, 2)


class TestMcmillanDegree:
    def test_ex2_transfer(self, ex2_dsf):
        from dsfmin import dsf_to_transfer
        assert mcmillan_degree(dsf_to_transfer(ex2_dsf)) == 4

    def test_constant_has_degree_zero(self):
        assert mcmillan_degree(RationalMatrix.from_real(np.ones((2, 2)))) == 0

    def test_ex2_sqp(self):
        assert mcmillan_degree(_ex2_sqp()) == 4

    def test_matches_gilbert_order(self):
        rng = np.random.default_rng(9)
        from dsfmin import PoleResidueForm, from_pole_residue
        poles = np.array([-7.0, -4.0, -2.0])
        res = [np.outer(rng.standard_normal(3), rng.standard_normal(2))
               for _ in poles]
        M = from_pole_residue(PoleResidueForm(poles, res, np.zeros((3, 2))))
        assert mcmillan_degree(M) == gilbert_realization(M).n

    def test_transfer_of_gilbert_reconstructs(self):
        rng = np.random.default_rng(21)
        from dsfmin import PoleResidueForm, from_pole_residue
        for trial in range(5):
            l = int(rng.integers(1, 7))
            p = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            poles = np.linspace(-9, -1, l) + rng.uniform(-0.3, 0.3, l)
            res = [np.outer(rng.standard_normal(p), rng.standard_normal(m))
                   for _ in poles]
            M = from_pole_residue(PoleResidueForm(poles, res, rng.standard_normal((p, m))))
            ss = gilbert_realization(M)
            assert rmat_equal(transfer_function(ss), M, 1e-7)


class TestInvariantZero:
    def test_scalar_zero_detected(self):
        ss = StateSpace([[-1.0]], [[1.0]], [[4.0]], [[1.0]])  # (s+5)/(s+1)
        assert is_invariant_zero(ss, -5.0)

    def test_non_zero_point(self):
        ss = StateSpace([[-1.0]], [[1.0]], [[4.0]], [[1.0]])
        assert not is_invariant_zero(ss, -2.0)

    def test_normal_rank_by_sampling(self):
        from dsfmin import normal_rank
        tall = rmat([[([1], [1, 1])], [([1], [2, 1])]])
        assert normal_rank(tall) == 1
        wide = rmat([[([1], [1, 1]), ZERO], [ZERO, ([1], [2, 1])]])
        assert normal_rank(wide) == 2


class TestSchurIdentity:
    def test_determinant_factorization(self):
        # det(sI - W) det(sI - A22) = det(sI - A) at off-pole points
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = int(rng.integers(1, 5))
            h = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            n = p + h
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, m))
            from dsfmin import PartitionedRealization
            part = PartitionedRealization(A[:p, :p], A[:p, p:], A[p:, :p],
                                          A[p:, p:], B[:p], B[p:])
            W, _ = compute_wv(part)
            sigma = 1.0 + np.max(np.abs(np.linalg.eigvals(A)))
            for k in range(1, 9):
                s0 = sigma + k
                lhs = np.linalg.det(s0 * np.eye(p) - rmat_eval(W, s0)) \
                    * np.linalg.det(s0 * np.eye(h) - part.A22)
                rhs = np.linalg.det(s0 * np.eye(n) - A)
                assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs))
