"""The stacked answer path, pinned bit for bit and call for call.

Each helper that the state-space answer path runs is checked against the
plainer formula it replaces, kept here as the reference and compared on
the bits: dtype, shape and bytes, so that a zero's sign counts too.
``TestLapackBudget`` pins the path's stacked design: one relay op makes
a fixed number of ``np.linalg`` calls, whatever its size and however
many realizations it verifies.
"""

from collections import Counter

import numpy as np
import pytest

from dsfmin import (
    DSF,
    PartitionedRealization,
    cancellation_check,
    compute_dsf,
    dsf,
    minreal,
    minreal_pipeline,
    realize,
    sslib,
    structure_limits,
)
from dsfmin.dsf import _row_systems, consistency_check
from dsfmin.minreal import _assemble, _blocks, _supports, compatibility_graph, extract_modes
from dsfmin.ratcore import chain_clusters, merge_poles
from dsfmin.sslib import (
    TOL_RANK,
    StateSpace,
    _normal_ranks,
    _pencils,
    _transfer_normal_rank,
    factor_signs,
    rosenbrock_drops,
)

from conftest import random_dsf, random_partition
from test_dsf import _relay_blocks


def _relay_part(rng, p, h):
    b = _relay_blocks()(rng, p, h, 2)
    return PartitionedRealization(b.A11, b.A12, b.A21, b.A22, b.B1, b.B2)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _relay_pool(rounds=60):
    """perfbench's relay_ladder models of seeds 0 and 1, first ``rounds`` rounds, as DSFs."""
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        for _ in range(rounds):
            for size in ((3, 2), (4, 2), (4, 3), (5, 3), (5, 4)):
                yield compute_dsf(_relay_part(rng, *size))


def _pole_residue_pool(rounds=150):
    """perfbench's dsf_ladder models of seeds 0 and 1: ``random_dsf`` draws alike."""
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        for _ in range(rounds):
            for l in (2, 3, 4):
                yield random_dsf(rng, 4, 2, l)


class TestMergePoles:
    @staticmethod
    def reference(poles, residues):
        lams, where = np.unique(poles, return_inverse=True)
        K = np.zeros((lams.size, *residues.shape[1:]))
        np.add.at(K, where, residues)
        K[np.abs(K) <= 1e-12 * np.max(np.abs(K), axis=0, initial=0.0)] = 0.0
        return lams, K

    def test_repeated_poles_sum_in_given_order(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            poles = rng.choice(rng.uniform(-10.0, -0.1, int(rng.integers(1, 6))), n)
            shape = (n, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
            residues = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
            for got, want in zip(merge_poles(poles, residues), self.reference(poles, residues)):
                assert _same_bits(got, want)

    def test_sums_that_come_to_negative_zero(self):
        poles = np.array([-2.0, -1.0, -2.0, -3.0, -1.0])
        residues = np.array([[[1.5, -0.0]], [[-0.0, 2.0]], [[-1.5, -0.0]], [[-0.0, 0.0]],
                             [[0.0, -2.0]]])
        got, want = merge_poles(poles, residues), self.reference(poles, residues)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        assert not np.signbit(got[1]).any()

    def test_no_pole(self):
        got = merge_poles(np.zeros(0), np.zeros((0, 2, 3)))
        assert got[0].shape == (0,) and got[1].shape == (0, 2, 3)


def test_chain_clusters_against_split():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rng.choice(rng.uniform(-5.0, 0.0, 6), int(rng.integers(1, 30)))
        x = x + rng.uniform(0.0, 3e-6, x.size)
        s = np.sort(x)
        want = np.split(s, np.flatnonzero(np.diff(s) > 1e-6) + 1)
        got = chain_clusters(x, 1e-6)
        assert len(got) == len(want) and all(_same_bits(g, w) for g, w in zip(got, want))
    assert chain_clusters(np.zeros(0), 1e-6) == []


def test_from_modes_poles_are_chain_means():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = compute_dsf(_relay_part(rng, 5, 4))
        lam, R = d.modes
        roots = np.concatenate([lam[R[:, i, j] != 0.0] for i in range(d.p)
                                for j in range(d.p + d.m)])
        assert d.poles == [float(np.mean(c)) for c in chain_clusters(roots, d.tol_pole)]


def test_factor_signs_against_take_along_axis():
    def reference(K, E):
        dom_col = np.argmax(np.max(np.abs(K), axis=-2), axis=-1)
        col = np.take_along_axis(K, dom_col[..., None, None], axis=-1)[..., 0]
        dom = np.take_along_axis(col, np.argmax(np.abs(col), axis=-1)[..., None], axis=-1)
        peak = np.take_along_axis(E, np.argmax(np.abs(E), axis=-2)[..., None, :],
                                  axis=-2)[..., 0, :]
        return np.where((peak < 0) != (dom < 0), -1.0, 1.0)

    rng = np.random.default_rng(3)
    for lead in ((), (0,), (1,), (7,), (3, 4)):
        for _ in range(40):
            p, q, r = (int(k) for k in rng.integers(1, 5, 3))
            # small integers: ties in magnitude, signs and zeros
            K = rng.integers(-2, 3, (*lead, p, q)).astype(float)
            E = rng.integers(-2, 3, (*lead, p, r)).astype(float)
            assert _same_bits(factor_signs(K, E), reference(K, E))
    assert factor_signs(np.ones((3, 2)), np.zeros((3, 0))).shape == (0,)


def test_extract_modes_d1_is_the_sum_from_zero():
    rng = np.random.default_rng(4)
    for _ in range(30):
        d = compute_dsf(_relay_part(rng, 5, 4))
        assert _same_bits(extract_modes(d).D1,
                          sum(d.residues[::-1], np.zeros((d.p, d.p + d.m))))


def test_structure_limits_are_the_realizations_d1():
    # one sum of the residues, from zero in descending pole order, for both
    count = 0
    for d in [*_relay_pool(), *_pole_residue_pool()]:
        lim = structure_limits(d)
        assert _same_bits(np.hstack([lim.A11_offdiag, lim.B1]), minreal_pipeline(d).gilbert.D1)
        count += 1
    assert count == 1500


class TestOneBuilder:
    """Every realization and cascade comes from one builder, with the bits it had before."""

    BLOCKS = ("A11", "A12", "A21", "A22", "B1", "B2")

    @staticmethod
    def coupling_reference(g, rvecs, keep):
        """A11 and A12 as the stacked helper that preceded the builder formed them."""
        p = g.p
        lam = g.lam[keep]
        A11 = g.D1[:, :p].copy()
        np.einsum("ii->i", A11)[...] = 0.0
        diag = np.zeros((len(rvecs), p, p))
        np.einsum("...ii->...i", diag)[...] = rvecs
        return A11 + diag, (lam - rvecs[:, :, None]) / (lam - g.shift) * g.E[keep].T

    def same_blocks(self, x, y):
        return all(_same_bits(getattr(x, key), getattr(y, key)) for key in self.BLOCKS)

    def test_reports_and_cascades_on_relay_and_pole_residue_pools(self):
        checked = 0
        for d in [*_relay_pool(20), *_pole_residue_pool(40)]:
            result = minreal_pipeline(d, enumerate_all=True)
            g, reports = result.gilbert, result.realizations
            rvecs = np.array([r.rstar.materialize() for r in reports])
            for r, rvec in zip(reports, rvecs):
                keep = [i for i, f in enumerate(r.cancellation_flags) if not f]
                x = r.realization
                assert self.same_blocks(x, realize(d, r.rstar, g))
                assert self.same_blocks(x, _assemble(g, rvec, keep))
                A11, A12 = self.coupling_reference(g, rvec[None], keep)
                assert _same_bits(x.A11, A11[0]) and _same_bits(x.A12, A12[0])
            # the zero tests' V-subsystems: every mode kept
            A11, A12, _, A22, B1, B2 = _blocks(g, rvecs, slice(None))
            want11, want12 = self.coupling_reference(g, rvecs, slice(None))
            assert _same_bits(A11, want11) and _same_bits(A12, want12)
            for k, rvec in enumerate(rvecs):
                full = _assemble(g, rvec, range(g.l))
                for got, want in zip((A22, B2, A12[k], B1), (full.A22, full.B2, full.A12, full.B1)):
                    assert _same_bits(got, want)
                checked += 1
        assert checked > 500

    @pytest.mark.parametrize("tol_orth", [1e-8, 1e-4])
    def test_realize_keeps_the_pipelines_tol_orth(self, tol_orth):
        # the residue vector at -1 is (1, 1e-6): its support is both rows at
        # tol_orth 1e-8 and row 0 alone at 1e-4, so the tolerance moves R*
        d = DSF.from_modes([-1.0, -2.0], [[[0.0, 0.0, 1.0], [0.0, 0.0, 1e-6]],
                                          [[0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]])
        res = minreal_pipeline(d, enumerate_all=True, tol_orth=tol_orth)
        assert res.realizations
        for r in res.realizations:
            assert self.same_blocks(r.realization, realize(d, r.rstar, res.gilbert))
            assert cancellation_check(res.gilbert, r.rstar) == r.cancellation_flags


def test_compatibility_graph_against_triu():
    rng = np.random.default_rng(10)
    for _ in range(30):
        g = extract_modes(compute_dsf(_relay_part(rng, 5, 4)))
        S = _supports(g, 1e-8).astype(int)
        want = [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(S @ S.T == 0, 1)))]
        got = compatibility_graph(g).edges
        assert got == want and all(type(i) is int and type(j) is int for i, j in got)


def test_row_systems_against_assembled_slices():
    rng = np.random.default_rng(5)
    parts = [random_partition(rng, int(rng.integers(1, 6)), int(rng.integers(0, 5)),
                              int(rng.integers(1, 3))) for _ in range(40)]
    for part in parts:
        p, ss = part.p, part.assemble()
        idx = np.array([[i, *range(p, part.order)] for i in range(p)])
        others = np.array([[j for j in range(p) if j != i] for i in range(p)],
                          dtype=int).reshape(p, p - 1)
        want = np.concatenate([ss.A[idx[:, :, None], others[:, None, :]], ss.B[idx]], axis=2)
        A, B = _row_systems(part)
        assert _same_bits(B, want)
        assert _same_bits(A, ss.A[idx[:, :, None], idx[:, None, :]])


class TestDiagonalShift:
    """Diagonal views against the fancy-indexed and eye-built formulas."""

    def test_pencils_against_eye(self):
        rng = np.random.default_rng(6)
        for lead in ((1,), (3,)):
            A = rng.standard_normal((*lead, 4, 4))
            A[..., 0, 1] = 0.0
            A[..., 2, 3] = -0.0
            A[..., 1, 1] = -0.0
            s = 1.0 + np.abs(rng.standard_normal((*lead, 8))) * 10.0
            assert _same_bits(_pencils(A, s), s[..., None, None] * np.eye(4) - A[:, None])

    def test_rosenbrock_matrix_against_fancy_indexing(self, monkeypatch):
        rng = np.random.default_rng(7)
        A, B = rng.standard_normal((3, 5, 5)), rng.standard_normal((3, 5, 2))
        C, D = rng.standard_normal((3, 2, 5)), np.zeros((3, 2, 2))
        for s in (rng.standard_normal((3, 4)),
                  rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))):
            n = 5
            R = np.concatenate([np.concatenate([A, B], -1), np.concatenate([C, D], -1)],
                               -2)[:, None]
            R = np.array(np.broadcast_to(R, (*s.shape, *R.shape[2:])),
                         dtype=np.result_type(R, s))
            R[..., range(n), range(n)] -= s[..., None]
            seen = []
            svd = np.linalg.svd

            def recorded(M, *args, **kwargs):
                seen.append(M.copy())
                return svd(M, *args, **kwargs)

            monkeypatch.setattr(sslib.np.linalg, "svd", recorded)
            rosenbrock_drops(A, B, C, D, s)
            monkeypatch.undo()
            assert _same_bits(seen[-1], R)

    def test_shared_blocks_broadcast(self):
        rng = np.random.default_rng(8)
        A, B = rng.standard_normal((1, 4, 4)), rng.standard_normal((1, 4, 2))
        C, D = rng.standard_normal((3, 2, 4)), rng.standard_normal((1, 2, 2))
        s = rng.standard_normal((3, 5)) + 1j
        stacked = [np.broadcast_to(M, (3, *M.shape[1:])) for M in (A, B, C, D)]
        assert np.array_equal(rosenbrock_drops(A, B, C, D, s), rosenbrock_drops(*stacked, s))

    def test_consistency_values_against_tensordot(self, monkeypatch):
        part = _relay_part(np.random.default_rng(9), 4, 3)
        d = compute_dsf(part)
        realization = minreal_pipeline(d).realizations[0].realization
        seen = []
        values_agree = dsf.values_agree

        def recorded(f, g, tol):
            seen.append((f, g))
            return values_agree(f, g, tol)

        monkeypatch.setattr(dsf, "values_agree", recorded)
        assert consistency_check(realization, d)
        f, want = seen[0]
        lam, R = d.modes
        # the 16 points beyond every pole in play, recomputed from the realization
        x = realization
        A = np.block([[x.A11, x.A12], [x.A21, x.A22]])
        rows = [np.linalg.eigvals(A[np.ix_(k, k)])
                for k in ([i, *range(x.p, x.order)] for i in range(x.p))]
        poles = np.concatenate([d.poles, np.linalg.eigvals(x.A22), *rows])
        s = 1.0 + np.max(np.abs(poles)) + np.arange(1, 17)
        assert _same_bits(want, np.tensordot(1.0 / (s[:, None] - lam), R, axes=1))
        wv = np.concatenate([x.A11, x.B1], -1) + x.A12 @ np.linalg.solve(
            s[:, None, None] * np.eye(x.h) - x.A22, np.concatenate([x.A21, x.B2], -1))
        w_ii = wv[:, range(x.p), range(x.p)].copy()
        wv[:, range(x.p), range(x.p)] = 0.0
        assert _same_bits(f, wv / (s[:, None] - w_ii)[..., None])


def _one_input(part):
    """``part`` with its second input column a copy of its first: normal rank 1."""
    B1, B2 = part.B1.copy(), part.B2.copy()
    B1[:, 1], B2[:, 1] = B1[:, 0], B2[:, 0]
    return PartitionedRealization(part.A11, part.A12, part.A21, part.A22, B1, B2)


class TestOneNormalRank:
    """The zero tests' normal rank, read from the modes, against each system's own."""

    @staticmethod
    def pool():
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            for _ in range(3):
                for size in ((3, 2), (4, 2), (4, 3), (5, 3), (5, 4)):
                    yield _relay_part(rng, *size)
            yield _relay_part(rng, 8, 12)
        rng = np.random.default_rng(5)
        for size in ((3, 2), (3, 2), (4, 3)):  # dense 4+3: 256 realizations
            yield random_partition(rng, *size, 2)
        rng = np.random.default_rng(6)
        for _ in range(3):
            for size in ((3, 2), (4, 3), (5, 4)):
                yield _one_input(_relay_part(rng, *size))

    def test_modes_rank_is_each_systems_normal_rank(self, monkeypatch):
        used = []

        def recorded(*args, normal, **kwargs):
            used.append(normal)
            return rosenbrock_drops(*args, normal=normal, **kwargs)

        monkeypatch.setattr(minreal, "rosenbrock_drops", recorded)
        members, ranks = 0, set()
        for part in self.pool():
            used.clear()
            result = minreal_pipeline(compute_dsf(part), enumerate_all=True)
            g = result.gilbert
            assert len(used) == 1
            for r, normal in zip(result.realizations, used[0].tolist(), strict=True):
                full = _assemble(g, r.rstar.materialize(), range(g.l))
                # the reference: each system's own normal rank, at its own spectrum's points
                v_sub = StateSpace(full.A22, full.B2, full.A12, full.B1)
                assert normal == _transfer_normal_rank(v_sub, TOL_RANK)
                assert normal == _transfer_normal_rank(full.assemble(), TOL_RANK)
                ranks.add(normal)
                members += 1
        assert members > 100 and ranks == {1, 2}

    def test_given_normal_ranks_change_no_verdict(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            k, n, p, m = 3, *(int(x) for x in rng.integers(1, 5, 3))
            A, B = rng.standard_normal((k, n, n)), rng.standard_normal((k, n, m))
            C, D = rng.standard_normal((k, p, n)), rng.standard_normal((k, p, m))
            B[1, :, -1], D[1, :, -1] = B[1, :, 0], D[1, :, 0]  # normal rank below min(p, m)
            # state 0 of members 0 and 1 is decoupled: a zero at A[k, 0, 0]
            A[:2, 0, 1:], A[:2, 1:, 0], B[:2, 0], C[:2, :, 0] = 0.0, 0.0, 0.0, 0.0
            poles = np.linalg.eigvals(A)[:, :2]
            normal = _normal_ranks(A, B, C, D, TOL_RANK)
            for s in (np.concatenate([rng.standard_normal((k, 3)), poles.real], -1),
                      np.concatenate([rng.standard_normal((k, 3)) + 1j, poles], -1)):
                s = np.concatenate([s, A[:, :1, 0]], -1)
                drops = rosenbrock_drops(A, B, C, D, s, normal=normal)
                assert np.array_equal(drops, rosenbrock_drops(A, B, C, D, s))
                assert drops[:, -1].tolist() == [True, True, False]


class TestLapackBudget:
    """One relay op: a fixed number of stacked LAPACK calls."""

    CALLS = ("eig", "eigvals", "svd", "solve", "cond")

    @classmethod
    def counted_op(cls, monkeypatch, part, enumerate_all):
        calls = Counter()
        for name in cls.CALLS:
            fn = getattr(np.linalg, name)

            def counted(*args, _name=name, _fn=fn, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        result = minreal_pipeline(compute_dsf(part), enumerate_all=enumerate_all)
        monkeypatch.undo()
        return calls, len(result.realizations)

    @pytest.mark.parametrize("enumerate_all", [False, True])
    def test_same_calls_at_every_size(self, monkeypatch, enumerate_all):
        got = {}
        for size in ((3, 2), (5, 4)):
            part = _relay_part(np.random.default_rng(3), *size)
            got[size], realized = self.counted_op(monkeypatch, part, enumerate_all)
            assert realized == (4 if enumerate_all else 1)
        # compute_dsf: eig, cond, solve; extract_modes: svd; consistency_check:
        # eigvals twice and solve; the zero test: one svd of V for its normal
        # rank and one of the V-subsystem's Rosenbrock matrices
        want = Counter(eig=1, cond=1, solve=2, svd=3, eigvals=2)
        assert got[(3, 2)] == got[(5, 4)] == want
