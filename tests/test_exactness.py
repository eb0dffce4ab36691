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

from dsfmin import PartitionedRealization, compute_dsf, dsf, minreal_pipeline, sslib
from dsfmin.dsf import _row_systems, consistency_check
from dsfmin.minreal import _supports, compatibility_graph, extract_modes
from dsfmin.ratcore import chain_clusters, merge_poles
from dsfmin.sslib import _pencils, factor_signs, rosenbrock_drops

from conftest import random_partition
from test_dsf import _relay_blocks


def _relay_part(rng, p, h):
    b = _relay_blocks()(rng, p, h, 2)
    return PartitionedRealization(b.A11, b.A12, b.A21, b.A22, b.B1, b.B2)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


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
        # eigvals twice and solve; each zero test: eigvals, solve and two svd
        want = Counter(eig=1, cond=1, solve=4, svd=5, eigvals=4)
        assert got[(3, 2)] == got[(5, 4)] == want
