"""Polynomial, rational-function, and rational-matrix arithmetic."""

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from dsfmin import (
    DSF,
    PoleResidueForm,
    Polynomial,
    RationalFunction,
    RationalMatrix,
    from_pole_residue,
    limit_at_infinity,
    poly_mul,
    rat_reduce,
    residue_at,
    rmat_equal,
    rmat_eval,
    rmat_inverse,
    rmat_poles,
    to_pole_residue,
)
from dsfmin.errors import (
    ComplexPolesUnsupported,
    EvaluationAtPole,
    ImproperMatrix,
    RepeatedPole,
    ShapeMismatch,
    SingularRationalMatrix,
    ZeroDenominator,
    ZeroPolynomial,
)
from dsfmin.ratcore import (
    S_POLY,
    _from_roots,
    _products_of_others,
    from_known_poles,
    rmat_det,
)

from conftest import EX2_D1, ZERO, random_dsf, rf, rmat


def _ex2_qp():
    return rmat([[ZERO, ([1], [2, 1]), ([1], [3, 1]), ([1], [4, 1])],
                 [([1], [1, 1]), ZERO, ([1], [3, 1]), ([1], [4, 1])],
                 [([1], [1, 1]), ([1], [2, 1]), ZERO, ([1], [4, 1])]])


class TestPolyMul:
    def test_difference_of_squares(self):
        out = poly_mul(Polynomial([1, 1]), Polynomial([1, -1]))
        assert np.allclose(out.coeffs, [1, 0, -1])

    def test_zero_annihilates(self):
        out = poly_mul(Polynomial([0.0]), Polynomial([7, 1]))
        assert out.is_zero

    def test_direct_expansion(self):
        out = poly_mul(Polynomial([2, 1]), Polynomial([3, 1]))
        assert np.allclose(out.coeffs, [6, 5, 1])

    def test_degree_adds(self):
        a = Polynomial([1, 2, 3])
        b = Polynomial([-1, 0, 0, 4])
        assert poly_mul(a, b).degree() == a.degree() + b.degree()


class TestPolynomialRoots:
    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            Polynomial([0.0]).roots()


class TestRatReduce:
    def test_exact_cancellation(self):
        f = rat_reduce(poly_mul(Polynomial([1, 1]), Polynomial([2, 1])),
                       Polynomial([2, 1]))
        assert np.allclose(f.num.coeffs, [1, 1])
        assert np.allclose(f.den.coeffs, [1])

    def test_proportional_collapses_to_constant(self):
        f = rat_reduce(Polynomial([4, 2]), Polynomial([2, 1]))
        assert np.allclose(f.num.coeffs, [2])
        assert f.den.degree() == 0

    def test_shared_factor_evaluation_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            shared = Polynomial([rng.uniform(1, 5), 1])
            a = Polynomial([rng.uniform(-3, 3), rng.uniform(-3, 3), 1])
            b = Polynomial([rng.uniform(1, 6), rng.uniform(6, 9), 1])
            f = rat_reduce(poly_mul(a, shared), poly_mul(b, shared))
            for s in np.linspace(11, 15, 5):
                raw = a(s) * shared(s) / (b(s) * shared(s))
                assert abs(f(s) - raw) <= 1e-9 * max(1, abs(raw))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            rat_reduce(Polynomial([1]), Polynomial([0.0]))

    def test_division_by_zero_function(self):
        with pytest.raises(ZeroDenominator):
            rf([1], [1, 1]) / rf([0.0])

    def test_idempotent(self):
        f = rat_reduce(Polynomial([1, 2]), Polynomial([3, 4, 1]))
        g = rat_reduce(f.num, f.den)
        assert np.array_equal(f.num.coeffs, g.num.coeffs)
        assert np.array_equal(f.den.coeffs, g.den.coeffs)

    def test_monic_denominator(self):
        f = rat_reduce(Polynomial([1]), Polynomial([2, 4]))
        assert f.den.lead == 1.0


class TestRmatPoles:
    def test_ex2_poles(self, ex2_dsf):
        assert rmat_poles(_ex2_qp()) == pytest.approx([-4, -3, -2, -1])

    def test_constant_matrix(self):
        assert rmat_poles(RationalMatrix.from_real(np.eye(2))) == []

    def test_ex1_instantiation(self):
        from conftest import ex1_dsf_closed_form
        d = ex1_dsf_closed_form()
        assert rmat_poles(d.qp()) == pytest.approx([-5, -4, -3, -2, -1])

    def test_complex_poles_rejected_with_location(self):
        M = rmat([[([1], [1, 0, 1])]])
        with pytest.raises(ComplexPolesUnsupported, match=r"\(0, 0\)"):
            rmat_poles(M)


class TestResidueAt:
    def test_unit_residue(self):
        M = rmat([[([1], [2, 1])]])
        assert np.allclose(residue_at(M, -2.0), [[1.0]])

    def test_ex2_residue_at_minus_four(self):
        sqp = _ex2_qp().scale(S_POLY)
        K = residue_at(sqp, -4.0)
        expect = np.zeros((3, 4))
        expect[:, 3] = -4.0
        assert np.allclose(K, expect, atol=1e-10)

    def test_not_a_pole_gives_zero(self):
        M = rmat([[([1], [2, 1])]])
        assert np.all(residue_at(M, -7.0) == 0.0)

    def test_repeated_pole_rejected(self):
        M = rmat([[([1], [4, 4, 1])]])  # 1/(s+2)^2
        with pytest.raises(RepeatedPole):
            residue_at(M, -2.0)

    def test_repeated_pole_names_first_entry_row_by_row(self):
        twice = ([1], [4, 4, 1])  # 1/(s+2)^2
        M = rmat([[([1], [2, 1]), ZERO, twice], [twice, ([1], [1, 1]), ZERO]])
        with pytest.raises(RepeatedPole, match=r"entry \(0, 2\) has 2 poles"):
            residue_at(M, -2.0)

    def test_equals_each_entry_alone(self, ex2_dsf):
        rng = np.random.default_rng(23)
        mats = [random_dsf(rng, 4, 2, l).qp() for l in range(1, 7) for _ in range(5)]
        mats += [ex2_dsf.qp(), _ex2_qp().scale(S_POLY)]
        for M in mats:
            for lam in rmat_poles(M):
                assert np.array_equal(residue_at(M, lam), _residue_entry_by_entry(M, lam))


class TestPoleResidueForms:
    def test_ex2_constant_term(self):
        prf = to_pole_residue(_ex2_qp().scale(S_POLY))
        assert len(prf.poles) == 4
        assert np.allclose(prf.constant, EX2_D1)

    def test_constant_matrix(self):
        C = np.array([[2.0, -1.0], [0.0, 3.0]])
        prf = to_pole_residue(RationalMatrix.from_real(C))
        assert prf.poles.size == 0
        assert np.allclose(prf.constant, C)

    def test_roundtrip_evaluation_oracle(self):
        rng = np.random.default_rng(11)
        poles = np.array([-6.0, -3.5, -1.0])
        res = [rng.standard_normal((2, 3)) for _ in poles]
        const = rng.standard_normal((2, 3))
        from dsfmin import PoleResidueForm
        M = from_pole_residue(PoleResidueForm(poles, res, const))
        prf = to_pole_residue(M)
        M2 = from_pole_residue(prf)
        sigma = 1.0 + 6.0
        for k in range(1, 11):
            s = sigma + k
            assert np.max(np.abs(rmat_eval(M, s) - rmat_eval(M2, s))) < 1e-9

    def test_improper_rejected(self):
        M = rmat([[([0, 0, 1], [1, 1])]])  # s^2 / (s+1)
        with pytest.raises(ImproperMatrix):
            to_pole_residue(M)

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(23)
        poles = np.array([-8.0, -5.0, -2.0, -1.2])
        res = [rng.standard_normal((3, 2)) for _ in poles]
        const = rng.standard_normal((3, 2))
        from dsfmin import PoleResidueForm
        src = PoleResidueForm(poles, res, const)
        M = from_pole_residue(src)
        prf = to_pole_residue(M)
        recon = from_pole_residue(prf)
        sigma = 1.0 + np.max(np.abs(poles))
        for k in range(1, 11):
            s = sigma + k
            assert np.max(np.abs(rmat_eval(M, s) - rmat_eval(recon, s))) < 1e-8

    @pytest.mark.parametrize("l", [4, 8, 12])
    def test_entries_match_partial_fraction_sum(self, l):
        rng = np.random.default_rng(1205)
        points = [0.5 + 3j, -5.0 + 2j, -2.3 + 0.7j, 4.0 - 6j]
        worst = 0.0
        for _ in range(20):
            prf = _random_dsf_form(rng, 4, 2, l)
            M = from_pole_residue(prf)
            for s in points:
                want = sum(K / (s - lam) for lam, K in zip(prf.poles, prf.residues))
                got = np.array([[e(s) for e in row] for row in M.entries])
                worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
        assert worst <= 1e-7

    def test_entry_poles_are_its_nonzero_residues(self, monkeypatch):
        rng = np.random.default_rng(41)
        prfs = [_random_dsf_form(rng, 4, 2, 8) for _ in range(3)]

        def no_roots(self):
            raise AssertionError("from_pole_residue must not find roots")

        with monkeypatch.context() as patch:
            patch.setattr(Polynomial, "roots", no_roots)
            built = [from_pole_residue(prf) for prf in prfs]
        for prf, M in zip(prfs, built):
            K = np.array(prf.residues)
            for i in range(M.rows):
                for j in range(M.cols):
                    assert M.entry(i, j).den.degree() == np.count_nonzero(K[:, i, j])

    def test_noise_floor_residue_dropped(self):
        M = from_pole_residue(PoleResidueForm([-2.0, -1.0], [[[1e-20]], [[1.0]]], [[0.0]]))
        e = M.entry(0, 0)
        assert e.num.coeffs.tolist() == [1.0]
        assert e.den.coeffs.tolist() == [1.0, 1.0]

    def test_duplicate_pole_merged_exactly(self):
        M = from_pole_residue(PoleResidueForm([-1.0, -3.0, -1.0],
                                              [[[1.0]], [[2.0]], [[0.5]]], [[0.0]]))
        e = M.entry(0, 0)
        assert e.den.degree() == 2
        assert sorted(e.poles().real.tolist()) == [-3.0, -1.0]
        assert residue_at(M, -1.0)[0, 0] == pytest.approx(1.5, rel=1e-14)
        assert residue_at(M, -3.0)[0, 0] == pytest.approx(2.0, rel=1e-14)

    def test_near_duplicate_poles_stay_repeated(self):
        poles = [-1.0, -1.0 + 1e-9]
        Q = from_pole_residue(PoleResidueForm(poles, [np.zeros((1, 1))] * 2, [[0.0]]))
        P = from_pole_residue(PoleResidueForm(poles, [[[1.0]], [[2.0]]], [[0.0]]))
        assert P.entry(0, 0).den.degree() == 2
        with pytest.raises(RepeatedPole):
            DSF(Q, P)
        with pytest.raises(RepeatedPole):
            residue_at(P, -1.0)

    def test_complex_values_rejected(self):
        one = np.ones((1, 1))
        with pytest.raises(ComplexPolesUnsupported):
            PoleResidueForm(np.array([-1.0 + 2.0j]), [one], np.zeros((1, 1)))
        with pytest.raises(ValueError):
            PoleResidueForm([-1.0], [one * (1.0 + 1.0j)], np.zeros((1, 1)))
        with pytest.raises(ValueError):
            PoleResidueForm([-1.0], [one], np.zeros((1, 1)) + 1.0j)
        prf = PoleResidueForm(np.array([-1.0 + 0.0j]), [one + 0.0j], np.zeros((1, 1)))
        assert prf.poles.dtype == float and prf.poles[0] == -1.0

    @pytest.mark.parametrize("poles, residue_shape, message", [
        ([-1.0, -2.0], (2, 2), "pole and residue counts differ"),
        ([-1.0], (2, 3), "residue shape differs from constant term"),
    ], ids=["count_differs", "residue_shape_differs"])
    def test_shape_mismatch_rejected(self, poles, residue_shape, message):
        with pytest.raises(ShapeMismatch, match=message):
            PoleResidueForm(poles, [np.ones(residue_shape)], np.zeros((2, 2)))

    def test_entries_equal_each_entry_built_alone(self):
        rng = np.random.default_rng(29)
        for l in (1, 2, 4, 8, 12):
            prf = _random_dsf_form(rng, 4, 2, l)
            prf.constant[1, 3] = 0.5
            M = from_pole_residue(prf)
            K = np.array(prf.residues)
            for i in range(M.rows):
                for j in range(M.cols):
                    kept = K[:, i, j] != 0.0
                    den = npoly.polyfromroots(prf.poles[kept])
                    num = prf.constant[i, j] * den
                    num[:-1] += K[kept, i, j] @ _products_of_others(prf.poles[kept])
                    num = Polynomial(num).chop()
                    e = M.entry(i, j)
                    assert np.array_equal(e.num.coeffs, num.coeffs)
                    assert np.array_equal(e.den.coeffs, [1.0] if num.is_zero else den)

    def test_numerator_zero_in_a_group_that_keeps_poles(self):
        # both entries have both poles; the first entry's residues, 5e-324 and
        # -5e-324, leave a numerator that rounds to zero, the second's do not
        prf = PoleResidueForm([-0.5, -0.25], [[[5e-324, 1.0]], [[-5e-324, 2.0]]],
                              np.zeros((1, 2)))
        for M in (from_pole_residue(prf), from_known_poles(prf)):
            zero, kept = M.entry(0, 0), M.entry(0, 1)
            assert zero.is_zero and zero.den.coeffs.tolist() == [1.0]
            assert zero.poles().size == 0
            assert kept.den.degree() == 2
            assert sorted(kept.poles().real.tolist()) == [-0.5, -0.25]

    def test_known_poles_entries_keep_their_poles(self, monkeypatch):
        rng = np.random.default_rng(47)
        prf = _random_dsf_form(rng, 4, 2, 8)
        prf.residues[3][1, 2] = 1e-20  # below the floor: not a pole of that entry
        want = from_pole_residue(prf)
        got = from_known_poles(prf)

        def no_roots(self):
            raise AssertionError("an entry of from_known_poles must not find roots")

        monkeypatch.setattr(Polynomial, "roots", no_roots)
        K = np.array(prf.residues)
        for i in range(got.rows):
            for j in range(got.cols):
                e, w = got.entry(i, j), want.entry(i, j)
                assert np.array_equal(e.num.coeffs, w.num.coeffs)
                assert np.array_equal(e.den.coeffs, w.den.coeffs)
                kept = prf.poles[np.abs(K[:, i, j]) > 1e-12 * np.max(np.abs(K[:, i, j]))]
                assert np.array_equal(e.poles(), kept)
        assert rmat_poles(got) == sorted(prf.poles.tolist())


def _residue_entry_by_entry(M, lam, tol_pole=1e-6):
    """residue_at, one entry at a time: num(r) / prod(r - other roots) at the
    entry's one root in the chain of entry poles that holds ``lam``."""
    poles = [e.poles() for row in M.entries for e in row]
    roots = np.concatenate([np.zeros(0), *poles])
    chains = np.split(np.sort(roots.real), np.flatnonzero(np.diff(np.sort(roots.real)) > tol_pole) + 1)
    chain = next(c for c in chains if c[0] - tol_pole <= lam <= c[-1] + tol_pole)
    centre, reach = 0.5 * (chain[-1] + chain[0]), 0.5 * (chain[-1] - chain[0]) + tol_pole
    K = np.zeros((M.rows, M.cols))
    for k, r in enumerate(poles):
        near = np.abs(r - centre) <= reach
        if np.any(near):
            root = float(r[near][0].real)
            K.flat[k] = (M.entries[k // M.cols][k % M.cols].num(root)
                         / np.prod(root - r[~near])).real
    return K


def _random_dsf_form(rng, p, m, l):
    """Pole-residue form of [Q P], drawn as ``conftest.random_dsf`` draws it."""
    poles = np.sort(rng.choice(np.linspace(-10.0, -1.0, 19), size=l, replace=False)
                    + rng.uniform(-0.2, 0.2, l))
    residues = []
    for _ in range(l):
        support = rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)
        E = np.zeros(p)
        E[support] = rng.uniform(0.5, 2.0, support.size) * rng.choice([-1.0, 1.0], support.size)
        Fq = rng.uniform(-1.0, 1.0, p)
        Fq[support] = 0.0
        Fp = rng.uniform(-1.0, 1.0, m)
        if np.max(np.abs(np.concatenate([Fq, Fp]))) < 0.1:
            Fp[0] = 1.0
        residues.append(np.outer(E, np.concatenate([Fq, Fp])))
    return PoleResidueForm(poles, residues, np.zeros((p, p + m)))


class TestLimitAtInfinity:
    def test_ex2_s_times_p(self):
        P = rmat([[([1], [4, 1])], [([1], [4, 1])], [([1], [4, 1])]])
        assert np.allclose(limit_at_infinity(P.scale(S_POLY)), np.ones((3, 1)))

    def test_strictly_proper_vanishes(self):
        M = rmat([[([1], [2, 1]), ([3], [5, 4, 1])]])
        assert np.all(limit_at_infinity(M) == 0.0)

    def test_ex1_s_times_q_pattern(self):
        from conftest import ex1_dsf_closed_form
        d = ex1_dsf_closed_form()
        lim = limit_at_infinity(d.Q.scale(S_POLY))
        expect = np.zeros((3, 3))
        expect[0, 2] = 1.0
        expect[2, 1] = 1.0
        assert np.allclose(lim, expect)

    def test_improper_rejected(self):
        M = rmat([[([0, 0, 1], [1, 1])]])
        with pytest.raises(ImproperMatrix):
            limit_at_infinity(M)


class TestRmatEval:
    def test_constant_identity(self):
        M = RationalMatrix.identity(3)
        assert np.allclose(rmat_eval(M, 2.7 + 0.3j), np.eye(3))

    def test_scalar_lag(self):
        M = rmat([[([1], [1, 1])]])
        assert np.allclose(rmat_eval(M, 1.0), [[0.5]])

    def test_ex2_q_at_zero(self, ex2_dsf):
        got = rmat_eval(ex2_dsf.Q, 0.0)
        expect = np.array([[0, 0.5, 1 / 3], [1, 0, 1 / 3], [1, 0.5, 0]])
        assert np.allclose(got, expect)

    def test_pole_rejected(self):
        M = rmat([[([1], [1, 1])]])
        with pytest.raises(EvaluationAtPole):
            rmat_eval(M, -1.0)

    def test_bit_identical_to_each_entry(self, ex2_dsf):
        # one zero-padded Horner pass gives exactly what each entry gives alone
        rng = np.random.default_rng(17)
        dsfs = [random_dsf(rng, 4, 2, l) for l in (2, 4, 8, 12, 16) for _ in range(3)]
        dsfs.append(ex2_dsf)
        # a dsf_coeff model whose entries differ in degree, so most are padded
        dsfs.append(DSF(rmat([[ZERO, ([0.5, -1.0, 2.0], [6.0, 11.0, 6.0, 1.0])],
                              [([1.0], [5.0, 1.0]), ZERO]]),
                        rmat([[([1.0], [4.0, 1.0])], [ZERO]])))
        for d in dsfs:
            M = d.qp()
            for s in (np.array([0.3 + 1.1j, -0.7 + 2.3j, 5.0 - 1.0j]),
                      np.linspace(20.0, 35.0, 16), np.array([2.5])):
                got = rmat_eval(M, s)
                want = np.moveaxis(np.array([[e(s) for e in row] for row in M.entries]), -1, 0)
                if np.iscomplexobj(want) and not np.any(want.imag):
                    want = want.real
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            assert rmat_eval(M, 2.5).tobytes() == np.array(
                [[e(2.5) for e in row] for row in M.entries]).tobytes()


    def test_any_shape_of_points(self, ex2_dsf):
        M = ex2_dsf.qp()
        for s in (np.array(0.5 + 1.0j), np.array([0.5, 1.5, 2.5]),
                  np.array([[0.5, 1.0j], [2.0, 3.0 - 1.0j]]), np.array([[0.5, 1.5, 2.5]])):
            got = rmat_eval(M, s)
            assert got.shape == s.shape + (3, 4)
            for idx in np.ndindex(s.shape):
                # a stack is complex when any of its values is
                one = rmat_eval(M, s[idx]).astype(got.dtype)
                assert got[idx].tobytes() == one.tobytes()


class TestRmatInverse:
    def test_identity(self):
        inv = rmat_inverse(RationalMatrix.identity(3))
        assert rmat_equal(inv, RationalMatrix.identity(3))

    def test_diagonal_reciprocal(self):
        M = rmat([[([1], [1, 1]), ZERO], [ZERO, ([2, 1], [3, 1])]])
        inv = rmat_inverse(M)
        expect = rmat([[([1, 1],), ZERO], [ZERO, ([3, 1], [2, 1])]])
        assert rmat_equal(inv, expect)

    def test_singular_rejected(self):
        M = rmat([[([1],), ([1],)], [([1],), ([1],)]])
        with pytest.raises(SingularRationalMatrix):
            rmat_inverse(M)

    def test_one_by_one(self):
        inv = rmat_inverse(rmat([[([2, 1], [3, 1])]]))  # (s + 2) / (s + 3)
        s = np.array([-1.0, 0.5, 4.0, 2.0 + 1.0j])
        assert rmat_eval(inv, s)[:, 0, 0] == pytest.approx((s + 3) / (s + 2), rel=1e-14)

    def test_inverse_product_is_identity(self):
        rng = np.random.default_rng(5)
        M = RationalMatrix([[rf([rng.uniform(1, 3), 1], [rng.uniform(4, 6), 1])
                             if i == j else rf([rng.uniform(-1, 1)], [rng.uniform(1, 9), 1])
                             for j in range(3)] for i in range(3)])
        prod = M @ rmat_inverse(M)
        sigma = 1.0 + 9.0
        for k in range(1, 9):
            assert np.max(np.abs(rmat_eval(prod, sigma + k) - np.eye(3))) < 1e-8


class TestRmatEqual:
    def test_reflexive(self, ex2_dsf):
        assert rmat_equal(ex2_dsf.Q, ex2_dsf.Q)

    def test_unreduced_alias(self):
        a = rmat([[([1], [1, 1])]])
        b = RationalMatrix([[RationalFunction([2, 1], [2, 3, 1])]])
        assert rmat_equal(a, b)

    def test_distinct_poles_differ(self):
        a = rmat([[([1], [1, 1])]])
        b = rmat([[([1], [1.001, 1])]])
        assert not rmat_equal(a, b, 1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            rmat_equal(RationalMatrix.identity(2), RationalMatrix.identity(3))


@pytest.mark.parametrize("build, error, message", [
    (lambda: RationalMatrix([]), ValueError, "at least one entry"),
    (lambda: RationalMatrix([[]]), ValueError, "at least one entry"),
    (lambda: rmat([[ZERO, ZERO], [ZERO]]), ShapeMismatch, "ragged rows"),
    (lambda: RationalMatrix.hstack(RationalMatrix.identity(2), RationalMatrix.identity(3)),
     ShapeMismatch, "row counts differ in hstack"),
    (lambda: RationalMatrix.identity(2) @ RationalMatrix.identity(3), ShapeMismatch,
     r"cannot multiply \(2, 2\) by \(3, 3\)"),
    (lambda: rmat_det(RationalMatrix.from_real(np.ones((2, 3)))), ShapeMismatch,
     "determinant of a non-square matrix"),
    (lambda: rmat_inverse(RationalMatrix.from_real(np.ones((2, 3)))), ShapeMismatch,
     "inverse of a non-square matrix"),
], ids=["empty", "empty_row", "ragged", "hstack_rows_differ", "matmul_shapes_differ",
        "det_not_square", "inverse_not_square"])
def test_malformed_rational_matrices_rejected(build, error, message):
    with pytest.raises(error, match=message):
        build()


class TestReadOnce:
    """A rational matrix keeps what its first read found; later reads look it up."""

    @staticmethod
    def readings(M, lams, tol_pole, pts):
        """Bits of rmat_poles, residue_at at ``lams`` and rmat_eval at ``pts``."""
        out = [np.array(rmat_poles(M, tol_pole)).tobytes(), rmat_eval(M, pts).tobytes()]
        return out + [residue_at(M, lam, tol_pole).tobytes() for lam in lams]

    def test_read_matrix_gives_the_bits_of_a_fresh_one(self):
        rng = np.random.default_rng(41)
        pts = np.array([0.5 + 1.5j, 2.0, -0.3 + 4.0j, 12.0])
        for l in (1, 2, 4, 8, 12):
            prf = _random_dsf_form(rng, 3, 2, l)
            for build in (from_pole_residue, from_known_poles):
                M = build(prf)
                lams = list(prf.poles) + [0.5]
                # read in another order and at another tolerance first
                rmat_eval(M, pts[::-1])
                residue_at(M, lams[-2], 1e-3)
                first = self.readings(M, lams, 1e-6, pts)
                assert self.readings(M, lams, 1e-6, pts) == first
                assert self.readings(build(prf), lams, 1e-6, pts) == first

    def test_clean_chain_reads_beside_a_repeated_root(self):
        twice = ([1], [4, 4, 1])  # 1/(s+2)^2
        M = rmat([[twice, ([3], [5, 1])], [([2], [2, 1]), ZERO]])
        assert np.array_equal(residue_at(M, -5.0), [[0.0, 3.0], [0.0, 0.0]])
        with pytest.raises(RepeatedPole, match=r"entry \(0, 0\)"):
            residue_at(M, -2.0)
        assert np.array_equal(residue_at(M, -5.0), [[0.0, 3.0], [0.0, 0.0]])
        assert residue_at(M, -7.0).tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_product_tree_equals_polyfromroots(self):
        rng = np.random.default_rng(43)
        for n in list(range(21)) * 10:
            roots = rng.uniform(-10.0, 10.0, n)
            if n > 1:
                repeats = rng.integers(0, n, size=int(rng.integers(1, n)))
                roots[repeats[1:]] = roots[repeats[0]]
            got, want = _from_roots(roots), npoly.polyfromroots(roots)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()
