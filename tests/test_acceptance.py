"""Acceptance gate: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines alongside the test names.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from dsfmin import (
    RationalMatrix,
    RStar,
    compute_dsf,
    compute_wv,
    consistency_check,
    dsf_to_transfer,
    extract_modes,
    limit_at_infinity,
    maximum_cliques,
    compatibility_graph,
    construct_rstar,
    mcmillan_degree,
    minimal_order,
    minreal_pipeline,
    realize,
    rmat_equal,
    rmat_eval,
    rmat_inverse,
    structure_limits,
)
from dsfmin.minreal import CompatGraph

from conftest import (
    EX2_D1,
    EX2_E_DIRECTIONS,
    EX2_FAMILIES,
    EX2_RESIDUES,
    ZERO,
    ex1_dsf_closed_form,
    random_dsf,
    random_partition,
    rmat,
)
from test_minreal import brute_force_phi


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} [{label}]: FAIL")
        raise
    print(f"criterion {num:2d} [{label}]: PASS")


def test_criterion_01_mcmillan_degree(ex2_dsf):
    with criterion(1, "transfer function of the worked example has degree 4"):
        assert mcmillan_degree(dsf_to_transfer(ex2_dsf)) == 4
        explicit = rmat_inverse(RationalMatrix.identity(3) - ex2_dsf.Q) @ ex2_dsf.P
        assert mcmillan_degree(explicit) == 4


def test_criterion_02_gilbert_step(ex2_dsf):
    with criterion(2, "poles, D1, and residue directions of the worked example"):
        g = extract_modes(ex2_dsf)
        assert sorted(g.poles) == pytest.approx([-4, -3, -2, -1])
        assert np.array_equal(g.D1, EX2_D1)
        for lam, E, F in zip(g.poles, g.E, g.F):
            expect = EX2_E_DIRECTIONS[round(lam)]
            got_dir = E / np.linalg.norm(E)
            want_dir = expect / np.linalg.norm(expect)
            assert np.max(np.abs(got_dir - want_dir)) < 1e-8
            assert np.max(np.abs(np.outer(E, F) - EX2_RESIDUES[round(lam)])) < 1e-8


def test_criterion_03_minimal_order(ex2_dsf):
    with criterion(3, "phi = 1, minimal order 6, three hidden states"):
        mo = minimal_order(ex2_dsf)
        assert mo.phi == 1
        assert mo.order == 6
        assert mo.hidden == 3


def test_criterion_04_rstar_families(ex2_dsf):
    with criterion(4, "exactly four diagonal families, lexicographic order"):
        res = minreal_pipeline(ex2_dsf, enumerate_all=True)
        assert [r.rstar.entries for r in res.realizations] == EX2_FAMILIES


def test_criterion_05_roundtrip_consistency(ex2_dsf):
    with criterion(5, "all four realizations reproduce [Q, P] at order 6"):
        res = minreal_pipeline(ex2_dsf, enumerate_all=True)
        assert len(res.realizations) == 4
        for r in res.realizations:
            assert r.order == 6
            d2 = compute_dsf(r.realization)
            assert rmat_equal(d2.Q, ex2_dsf.Q, 1e-7)
            assert rmat_equal(d2.P, ex2_dsf.P, 1e-7)


def test_criterion_06_high_frequency_identities():
    with criterion(6, "A11/B1 limit identities on 100 random systems"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            p = int(rng.integers(1, 5))
            h = int(rng.integers(0, 5))
            m = int(rng.integers(1, 4))
            part = random_partition(rng, p, h, m)
            d = compute_dsf(part)
            lim = structure_limits(d)
            offdiag = part.A11 - np.diag(np.diag(part.A11))
            assert np.max(np.abs(lim.A11_offdiag - offdiag)) < 1e-8
            assert np.max(np.abs(lim.B1 - part.B1)) < 1e-8
            W, _ = compute_wv(part)
            for i in range(p):
                r_inf = limit_at_infinity(RationalMatrix([[W.entries[i][i]]]))[0, 0]
                assert abs(r_inf - part.A11[i, i]) < 1e-8


def test_criterion_07_five_state_network(ex1_partition):
    with criterion(7, "five-state network: closed forms, phi 3, order 5"):
        d = compute_dsf(ex1_partition)
        expect = ex1_dsf_closed_form()
        assert rmat_equal(d.Q, expect.Q, 1e-9)
        assert rmat_equal(d.P, expect.P, 1e-9)
        res = minreal_pipeline(d, enumerate_all=True)
        assert res.phi == 3
        assert res.order == 5
        g = res.gilbert
        first = res.cliques.cliques[0]
        assert [round(g.poles[i]) for i in first] == [-1, -2, -3]
        rstar = construct_rstar(g, first)
        assert rstar.entries == pytest.approx((-1.0, -2.0, -3.0))


def test_criterion_08_minimality_dominance(ex2_dsf):
    with criterion(8, "random diagonal R never beats the phi bound"):
        rng = np.random.default_rng(4096)
        cases = [ex2_dsf]
        for _ in range(20):
            cases.append(random_dsf(rng, int(rng.integers(2, 4)),
                                    int(rng.integers(1, 3)),
                                    int(rng.integers(2, 6))))
        for d in cases:
            g = extract_modes(d)
            bound = d.p + g.l - maximum_cliques(compatibility_graph(g)).phi
            best = None
            for _ in range(50):
                part = realize(d, RStar(tuple(rng.uniform(-10, 10, d.p))), modes=g)
                assert part.order >= bound
                if best is None or part.order < best.order:
                    best = part
            assert consistency_check(best, d, 1e-7)


def test_criterion_09_clique_oracle():
    with criterion(9, "exact clique size agrees with subset enumeration"):
        rng = np.random.default_rng(31337)
        for trial in range(100):
            n = int(rng.integers(2, 16))
            density = (0.2, 0.5, 0.8)[trial % 3]
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < density]
            cg = CompatGraph(n, edges)
            assert maximum_cliques(cg).phi == brute_force_phi(n, edges)


def test_criterion_10_zero_point_tests(ex2_dsf, ex1_partition):
    with criterion(10, "V and G realizations agree on zeros at cancelled poles"):
        for d in (ex2_dsf, compute_dsf(ex1_partition)):
            res = minreal_pipeline(d, enumerate_all=True)
            for r in res.realizations:
                cancelled = [c for c in r.zero_checks if c.expected]
                controls = [c for c in r.zero_checks if not c.expected]
                assert len(cancelled) == len(r.cancelled_poles) >= 1
                for c in cancelled:
                    assert c.v_zero and c.g_zero
                assert len(controls) == 1
                assert not controls[0].v_zero and not controls[0].g_zero


def test_criterion_11_schur_determinant_identity():
    with criterion(11, "det(sI-W) det(sI-A22) = det(sI-A) on 50 systems"):
        rng = np.random.default_rng(777)
        from dsfmin import PartitionedRealization
        for _ in range(50):
            p = int(rng.integers(1, 5))
            h = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            n = p + h
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, m))
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


def test_criterion_12_shift_mechanism():
    with criterion(12, "pole at the origin handled by the frequency shift"):
        from dsfmin import DSF
        d = DSF(rmat([[ZERO]]), rmat([[([1], [0, 1])]]))
        g_auto = extract_modes(d)
        assert g_auto.shift == pytest.approx(1.0)
        phi_auto = maximum_cliques(compatibility_graph(g_auto)).phi
        for a in (3.0, -2.5):
            g = extract_modes(d, shift=a)
            assert maximum_cliques(compatibility_graph(g)).phi == phi_auto
        res = minreal_pipeline(d)
        assert res.order == 1
        assert res.realizations[0].consistent
