"""Real polynomials, rational functions, and rational matrices.

Coefficients are double-precision reals in ascending degree order
(``coeffs[k]`` multiplies ``s**k``).  Rational functions are kept reduced
(no common numerator/denominator roots) with a monic denominator.  Root
finding goes through the companion matrix of the monic polynomial.
``poly_real_roots`` then Newton-polishes each simple real root on the
input coefficients, so its error is about ``kappa * eps``, with ``kappa``
the root's coefficient condition number.  A root of multiplicity ``k`` is
resolved only to about ``eps**(1/k)``; its copies are merged by
``tol_root`` and left unpolished.

``from_pole_residue`` needs no root finding and no cancellation: poles
given more than once are merged exactly (their residues summed), and
each entry gets as poles exactly those whose residue in that entry is
above ``_CHOP_REL`` (1e-12) times the entry's largest residue.

Default tolerances; every operation that needs one accepts an override:

* ``TOL_ROOT``  root matching / cancellation (1e-8)
* ``TOL_POLE``  pole deduplication and realness (1e-6)
* ``TOL_EVAL``  sample-point agreement (1e-8)
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import (
    ComplexPolesUnsupported,
    EvaluationAtPole,
    ImproperMatrix,
    RepeatedPole,
    ShapeMismatch,
    SingularRationalMatrix,
    ZeroDenominator,
    ZeroPolynomial,
)

TOL_ROOT = 1e-8
TOL_POLE = 1e-6
TOL_EVAL = 1e-8

# relative floor below which trailing coefficients count as arithmetic noise
_CHOP_REL = 1e-12

# Newton steps that polish a simple real root; from a companion eigenvalue
# two or three reach the noise floor of evaluating the polynomial
_NEWTON_STEPS = 4


class Polynomial:
    """Real polynomial with ascending coefficients.

    The highest stored coefficient is nonzero except for the zero
    polynomial, which is stored as the single coefficient ``[0.0]``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if isinstance(coeffs, Polynomial):
            coeffs = coeffs.coeffs
        c = np.atleast_1d(np.asarray(coeffs, dtype=float)).ravel()
        nz = np.flatnonzero(c != 0.0)
        self.coeffs = np.array(c[: nz[-1] + 1]) if nz.size else np.zeros(1)

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0.0

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return -1 if self.is_zero else self.coeffs.size - 1

    @property
    def lead(self) -> float:
        return float(self.coeffs[-1])

    def __call__(self, s):
        return npoly.polyval(s, self.coeffs)

    def __add__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial(other)
        return Polynomial(npoly.polyadd(self.coeffs, other.coeffs))

    def __sub__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial(other)
        return Polynomial(npoly.polysub(self.coeffs, other.coeffs))

    def __neg__(self):
        return Polynomial(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(self.coeffs * float(other))
        other = other if isinstance(other, Polynomial) else Polynomial(other)
        return Polynomial(npoly.polymul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        return Polynomial(npoly.polyder(self.coeffs))

    def chop(self, rel: float = _CHOP_REL) -> "Polynomial":
        """Drop trailing coefficients that are tiny relative to the largest."""
        scale = np.max(np.abs(self.coeffs))
        if scale == 0.0:
            return Polynomial([0.0])
        keep = np.flatnonzero(np.abs(self.coeffs) > rel * scale)
        if not keep.size:
            return Polynomial([0.0])
        return self if keep[-1] + 1 == self.coeffs.size else Polynomial(self.coeffs[: keep[-1] + 1])

    def roots(self) -> np.ndarray:
        """All complex roots via companion-matrix eigenvalues."""
        if self.is_zero:
            raise ZeroPolynomial("the zero polynomial has no well-defined roots")
        if self.degree() == 0:
            return np.zeros(0, dtype=complex)
        return np.atleast_1d(npoly.polyroots(self.coeffs))

    def __repr__(self):
        return f"Polynomial({self.coeffs.tolist()})"


#: the indeterminate, handy for building expressions like s*Q
S_POLY = Polynomial([0.0, 1.0])


class RootSet(NamedTuple):
    real: list  # (root, multiplicity) pairs, ascending
    cplx: list  # complex roots, unpaired


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Product of two polynomials."""
    return a * b


def poly_real_roots(p: Polynomial, tol_root: float = TOL_ROOT) -> RootSet:
    """Split the roots of ``p`` into real (with multiplicities) and complex.

    A root counts as real when its imaginary part is at most ``tol_root``;
    real roots closer than ``tol_root`` are merged into one root with the
    corresponding multiplicity.

    Each simple real root (multiplicity 1) is polished by Newton steps on
    ``p``'s own coefficients, so its error is about ``kappa * eps`` with
    ``kappa = sum_j |c_j| |r|**j / |p'(r)|``; raw companion eigenvalues
    can miss by several times that.  A step is kept only if it lowers
    ``|p|`` and stays within half the gap to the nearest other root, so
    polishing neither merges nor reorders roots.  A root of multiplicity
    ``k`` is resolved only to about ``eps**(1/k)``, which is why its
    copies need ``tol_root`` to merge; such clusters keep their mean.
    """
    r = p.roots()
    clusters = chain_clusters(r[np.abs(r.imag) <= tol_root].real, tol_root)
    cplx = [complex(z) for z in r[np.abs(r.imag) > tol_root]]
    centres = np.array([np.mean(c) for c in clusters])
    neighbours = np.concatenate([centres, np.asarray(cplx, dtype=complex)])
    dp = p.derivative()
    real_roots = []
    for i, c in enumerate(clusters):
        x = float(centres[i])
        if len(c) == 1:
            gap = np.min(np.abs(np.delete(neighbours, i) - x), initial=np.inf)
            x = _newton_polish(p, dp, x, 0.5 * gap)
        real_roots.append((x, len(c)))
    return RootSet(real_roots, cplx)


def chain_clusters(x, tol: float) -> list:
    """Sorted real values split wherever neighbours lie more than ``tol`` apart.

    Chaining is transitive: values ``tol`` apart in a row form one
    cluster however wide it grows.
    """
    x = np.sort(np.asarray(x, dtype=float))
    return np.split(x, np.flatnonzero(np.diff(x) > tol) + 1) if x.size else []


def _newton_polish(p: Polynomial, dp: Polynomial, x: float, reach: float) -> float:
    """Refine the simple real root ``x`` of ``p`` by Newton steps.

    A step is kept only if it lowers ``|p|`` and leaves ``x`` less than
    ``reach`` from where it started, so a root cannot cross or meet a
    neighbour whose own reach is half the same gap.
    """
    x0, px = x, p(x)
    for _ in range(_NEWTON_STEPS):
        slope = dp(x)
        if slope == 0.0:
            break
        xn = x - px / slope
        pn = p(xn)
        if not (abs(pn) < abs(px) and abs(xn - x0) < reach):
            break
        x, px = xn, pn
    return float(x)


_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


def _realify(roots):
    """Zero out imaginary parts that sit below the root resolution limit.

    Multiple real roots split into conjugate pairs with tiny imaginary
    parts; snapping them back keeps cancellation bookkeeping conjugate
    safe.
    """
    roots = np.asarray(roots, dtype=complex)
    tiny = np.abs(roots.imag) <= 8.0 * _SQRT_EPS * (1.0 + np.abs(roots))
    return np.where(tiny, roots.real.astype(complex), roots)


def _cancel_common_roots(nr, dr, tol_root):
    """Greedily pair numerator roots with nearby denominator roots.

    A multiple root is resolved by the companion eigensolver only to
    about sqrt(eps), so the pairing tolerance never drops below that
    limit regardless of the requested tol_root.
    """
    keep_n = list(nr)
    keep_d = []
    cancelled = False
    for d in dr:
        if keep_n:
            j = int(np.argmin(np.abs(np.asarray(keep_n) - d)))
            floor = 8.0 * _SQRT_EPS * (1.0 + abs(d))
            if abs(keep_n[j] - d) <= max(tol_root, floor):
                keep_n.pop(j)
                cancelled = True
                continue
        keep_d.append(d)
    return keep_n, keep_d, cancelled


def _real_coeffs(roots, imag_floor=1e-7):
    roots = sorted(roots, key=lambda z: (z.real, z.imag))  # canonical order
    c = npoly.polyfromroots(roots)
    scale = max(1.0, np.max(np.abs(c)))
    if np.max(np.abs(c.imag)) > imag_floor * scale:
        raise ValueError("non-conjugate root set produced complex coefficients")
    return c.real


class RationalFunction:
    """Reduced ratio of two real polynomials with a monic denominator.

    Instances are immutable: ``poles()`` finds the denominator roots on
    its first call and keeps them, read-only, in ``_poles``.
    """

    __slots__ = ("num", "den", "_poles")

    def __init__(self, num, den=(1.0,), tol_root: float = TOL_ROOT):
        self._poles = None
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise ZeroDenominator("denominator is the zero polynomial")
        num = num.chop()
        den = den.chop()
        if num.is_zero:
            self.num = Polynomial([0.0])
            self.den = Polynomial([1.0])
            return
        if num.degree() > 0 or den.degree() > 0:
            nr = _realify(num.roots()) if num.degree() > 0 else np.zeros(0, dtype=complex)
            dr = _realify(den.roots()) if den.degree() > 0 else np.zeros(0, dtype=complex)
            keep_n, keep_d, cancelled = _cancel_common_roots(nr, dr, tol_root)
            if cancelled:
                scale = num.lead / den.lead
                self.num = Polynomial(scale * _real_coeffs(keep_n))
                self.den = Polynomial(_real_coeffs(keep_d))
                return
        lead = den.lead
        self.num = Polynomial(num.coeffs / lead)
        self.den = Polynomial(den.coeffs / lead)

    # -- classification ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def relative_degree(self):
        """deg(den) - deg(num); infinity for the zero function."""
        if self.is_zero:
            return np.inf
        return self.den.degree() - self.num.degree()

    @property
    def is_proper(self) -> bool:
        return self.relative_degree() >= 0

    @property
    def is_strictly_proper(self) -> bool:
        return self.relative_degree() >= 1

    def poles(self) -> np.ndarray:
        """Complex roots of the (reduced) denominator, computed once."""
        if self._poles is None:
            r = (np.zeros(0, dtype=complex) if self.den.degree() == 0
                 else self.den.roots())
            r.flags.writeable = False
            self._poles = r
        return self._poles

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _as_ratfun(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        d1, d2 = self.den.coeffs, other.den.coeffs
        if d1.size == d2.size and np.allclose(d1, d2, rtol=1e-11, atol=0.0):
            # common denominator (both monic): avoid duplicating factors
            return RationalFunction(self.num + other.num, self.den)
        if self.den.degree() > 0 and other.den.degree() > 0:
            return _add_over_lcm(self, other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self.__add__(-_as_ratfun(other))

    def __rsub__(self, other):
        return _as_ratfun(other).__sub__(self)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        other = _as_ratfun(other)
        return _combine(self.num, other.num, self.den, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other.is_zero:
            raise ZeroDenominator("division by the zero rational function")
        return _combine(self.num, other.den, self.den, other.num)

    def __call__(self, s):
        return self.num(s) / self.den(s)

    def __repr__(self):
        return f"RationalFunction({self.num.coeffs.tolist()}, {self.den.coeffs.tolist()})"


def _as_ratfun(x) -> RationalFunction:
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, Polynomial):
        return RationalFunction(x)
    return RationalFunction([float(x)])


def _raw_ratfun(num: Polynomial, den: Polynomial) -> RationalFunction:
    """Wrap already-reduced parts, normalizing the denominator to monic."""
    obj = RationalFunction.__new__(RationalFunction)
    obj._poles = None
    lead = den.lead
    obj.num = num if lead == 1.0 else Polynomial(num.coeffs / lead)
    obj.den = den if lead == 1.0 else Polynomial(den.coeffs / lead)
    return obj


def _add_over_lcm(f: RationalFunction, g: RationalFunction,
                  tol_root: float = TOL_ROOT) -> RationalFunction:
    """Sum over the least common multiple of the factored denominators.

    Shared denominator roots are counted once, so sums never manufacture
    multiple roots that a later cancellation would have to resolve.
    """
    d1r = list(_realify(f.den.roots()))
    d1_only, d2_only, _ = _cancel_common_roots(d1r, _realify(g.den.roots()), tol_root)
    num = f.num * Polynomial(_real_coeffs(d2_only)) + \
        g.num * Polynomial(_real_coeffs(d1_only))
    den = Polynomial(_real_coeffs(d1r + d2_only))
    return RationalFunction(num, den, tol_root)


def _combine(n1: Polynomial, n2: Polynomial, d1: Polynomial, d2: Polynomial,
             tol_root: float = TOL_ROOT) -> RationalFunction:
    """Reduced product (n1 n2) / (d1 d2) of already-reduced fractions.

    Cancellation is detected on the root lists of the individual factors,
    so duplicate factors across the two fractions pair up at full root
    accuracy instead of degrading through an expanded multiple root.
    """
    if n1.is_zero or n2.is_zero:
        return RationalFunction([0.0])
    if max(n1.degree(), n2.degree(), d1.degree(), d2.degree()) == 0:
        return _raw_ratfun(n1 * (n2.lead / (d1.lead * d2.lead)), Polynomial([1.0]))
    nr = np.concatenate([_realify(p.roots()) if p.degree() > 0 else np.zeros(0, complex)
                         for p in (n1, n2)])
    dr = np.concatenate([_realify(p.roots()) if p.degree() > 0 else np.zeros(0, complex)
                         for p in (d1, d2)])
    keep_n, keep_d, cancelled = _cancel_common_roots(nr, dr, tol_root)
    if not cancelled:
        return _raw_ratfun(n1 * n2, d1 * d2)
    scale = (n1.lead * n2.lead) / (d1.lead * d2.lead)
    return _raw_ratfun(Polynomial(scale * _real_coeffs(keep_n)),
                       Polynomial(_real_coeffs(keep_d)))


def rat_reduce(num, den, tol_root: float = TOL_ROOT) -> RationalFunction:
    """Reduced rational function num/den with common roots cancelled."""
    return RationalFunction(num, den, tol_root=tol_root)


def ratfun_equal(f: RationalFunction, g: RationalFunction,
                 tol_eval: float = TOL_EVAL, sample_points=None) -> bool:
    """Equality of two rational functions.

    Cross-multiplied numerators are compared coefficient-wise first; on
    failure, agreement is checked at deterministic off-pole sample points.
    """
    a = f.num * g.den
    b = g.num * f.den
    scale = max(np.max(np.abs(a.coeffs)), np.max(np.abs(b.coeffs)), 1.0)
    if np.max(np.abs((a - b).coeffs)) <= tol_eval * scale:
        return True
    if sample_points is None:
        sample_points = off_pole_points(np.concatenate([f.poles(), g.poles()]), 16)
    for s in sample_points:
        fv, gv = f(s), g(s)
        if abs(fv - gv) > tol_eval * max(1.0, abs(fv), abs(gv)):
            return False
    return True


def off_pole_points(poles, count: int) -> list:
    """Deterministic points s_k = sigma + k, k = 1..count, sigma = 1 + max |pole|.

    Every point lies beyond the spectral bound of ``poles``, so none is a pole.
    """
    poles = np.asarray(poles)
    sigma = 1.0 + (float(np.max(np.abs(poles))) if poles.size else 0.0)
    return [sigma + k for k in range(1, count + 1)]


class RationalMatrix:
    """Dense matrix of reduced rational functions."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries):
        if not entries or not entries[0]:
            raise ValueError("rational matrix must have at least one entry")
        cols = len(entries[0])
        for row in entries:
            if len(row) != cols:
                raise ShapeMismatch("ragged rows in rational matrix")
        self.entries = [[_as_ratfun(e) for e in row] for row in entries]
        self.rows = len(entries)
        self.cols = cols

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_real(cls, M) -> "RationalMatrix":
        M = np.atleast_2d(np.asarray(M, dtype=float))
        return cls([[RationalFunction([M[i, j]]) for j in range(M.shape[1])]
                    for i in range(M.shape[0])])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls.from_real(np.zeros((rows, cols)))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.from_real(np.eye(n))

    @classmethod
    def hstack(cls, left: "RationalMatrix", right: "RationalMatrix") -> "RationalMatrix":
        if left.rows != right.rows:
            raise ShapeMismatch("row counts differ in hstack")
        return cls([lr + rr for lr, rr in zip(left.entries, right.entries)])

    # -- access ----------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> RationalFunction:
        return self.entries[i][j]

    def submatrix(self, row_idx, col_idx) -> "RationalMatrix":
        return RationalMatrix([[self.entries[i][j] for j in col_idx] for i in row_idx])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check_shape(other)
        return RationalMatrix([[a + b for a, b in zip(ra, rb)]
                               for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._check_shape(other)
        return RationalMatrix([[a - b for a, b in zip(ra, rb)]
                               for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return RationalMatrix([[-a for a in row] for row in self.entries])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = RationalFunction([0.0])
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return RationalMatrix(out)

    def scale(self, f) -> "RationalMatrix":
        """Entrywise multiplication by a scalar, polynomial, or rational."""
        f = _as_ratfun(f)
        return RationalMatrix([[e * f for e in row] for row in self.entries])

    def _check_shape(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch(f"shapes {self.shape} and {other.shape} differ")

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"


def _all_den_roots(M: RationalMatrix):
    """(i, j, roots) triples of denominator roots, reduced entries."""
    out = []
    for i in range(M.rows):
        for j in range(M.cols):
            out.append((i, j, M.entries[i][j].poles()))
    return out


def rmat_poles(M: RationalMatrix, tol_pole: float = TOL_POLE) -> list:
    """Distinct real poles of ``M``, ascending.

    Raises ComplexPolesUnsupported when any entry has a complex pole,
    naming the offending entries.
    """
    roots = []
    bad = []
    for i, j, r in _all_den_roots(M):
        if r.size and np.max(np.abs(r.imag)) > tol_pole:
            bad.append((i, j))
        roots.extend(r.real[np.abs(r.imag) <= tol_pole])
    if bad:
        raise ComplexPolesUnsupported(
            f"complex poles in entries {bad}; only real poles are supported")
    return [float(np.mean(c)) for c in chain_clusters(roots, tol_pole)]


def residue_at(M: RationalMatrix, lam: float, tol_pole: float = TOL_POLE) -> np.ndarray:
    """Entrywise limit of (s - lam) * M(s) as s -> lam.

    Zero where ``lam`` is not a pole of an entry; RepeatedPole when an
    entry carries ``lam`` with multiplicity two or more.
    """
    K = np.zeros((M.rows, M.cols))
    for i, j, r in _all_den_roots(M):
        if not r.size:
            continue
        near = np.abs(r - lam) <= tol_pole
        count = int(np.sum(near))
        if count == 0:
            continue
        if count > 1:
            raise RepeatedPole(
                f"entry ({i}, {j}) has a pole of multiplicity {count} near {lam}")
        # the denominator is monic, so its derivative at a simple root is
        # the product of the distances to the other roots
        root = float(r[near][0].real)
        K[i, j] = (M.entries[i][j].num(root) / np.prod(root - r[~near])).real
    return K


def limit_at_infinity(M: RationalMatrix) -> np.ndarray:
    """Entrywise limit of M(s) as s -> infinity; errors if improper."""
    bad = [(i, j) for i in range(M.rows) for j in range(M.cols)
           if not M.entries[i][j].is_proper]
    if bad:
        raise ImproperMatrix(f"improper entries {bad}")
    D = np.zeros((M.rows, M.cols))
    for i in range(M.rows):
        for j in range(M.cols):
            e = M.entries[i][j]
            if not e.is_zero and e.relative_degree() == 0:
                D[i, j] = e.num.lead / e.den.lead
    return D


def to_pole_residue(M: RationalMatrix, tol_pole: float = TOL_POLE):
    """Simple-pole expansion of a proper rational matrix."""
    constant = limit_at_infinity(M)
    poles = rmat_poles(M, tol_pole)
    kept_poles, residues = [], []
    for lam in poles:
        K = residue_at(M, lam, tol_pole)
        if np.max(np.abs(K)) > 0.0:
            kept_poles.append(lam)
            residues.append(K)
    return PoleResidueForm(np.asarray(kept_poles), residues, constant)


def _real(x, what: str, error) -> np.ndarray:
    """``x`` as a float array; ``error`` if it has a nonzero imaginary part."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        if np.any(x.imag != 0.0):
            raise error(f"{what} with a nonzero imaginary part; only real values are supported")
        x = x.real
    return x.astype(float, copy=False)


class PoleResidueForm:
    """Sum of rank-unrestricted residue matrices over distinct real poles.

    Represents ``sum_i K_i / (s - lam_i) + D`` with ``poles`` ascending.
    Complex input is accepted only with zero imaginary parts: a complex
    pole raises ComplexPolesUnsupported, a complex residue or constant
    ValueError.
    """

    __slots__ = ("poles", "residues", "constant")

    def __init__(self, poles, residues, constant):
        self.poles = np.atleast_1d(_real(poles, "pole", ComplexPolesUnsupported))
        self.residues = [np.atleast_2d(_real(K, "residue", ValueError)) for K in residues]
        self.constant = np.atleast_2d(_real(constant, "constant term", ValueError))
        if len(self.residues) != self.poles.size:
            raise ShapeMismatch("pole and residue counts differ")
        for K in self.residues:
            if K.shape != self.constant.shape:
                raise ShapeMismatch("residue shape differs from constant term")

    @property
    def shape(self):
        return self.constant.shape

    def __repr__(self):
        return f"PoleResidueForm(poles={self.poles.tolist()})"


def _products_of_others(roots) -> np.ndarray:
    """Row ``k``: ascending coefficients of ``prod_{m != k} (s - r_m)``.

    Every row takes the factors in the same order, one per step, skipping
    its own root.
    """
    n = roots.size
    prods = np.zeros((n, n))
    prods[:, :1] = 1.0
    for m, r in enumerate(roots):
        skipped = prods[m].copy()
        prods[:, 1:] = prods[:, :-1] - r * prods[:, 1:]
        prods[:, 0] *= -r
        prods[m] = skipped
    return prods


def from_pole_residue(prf: PoleResidueForm) -> RationalMatrix:
    """Rational matrix ``sum_k K_k/(s - lam_k) + D``, entries reduced.

    Poles given more than once are merged exactly, their residues summed.
    Entry ``(i, j)`` then has as poles exactly the ``lam_k`` whose residue
    ``K_k[i, j]`` exceeds ``_CHOP_REL`` times the entry's largest residue;
    a smaller one would not survive rounding in the numerator.  Each entry
    is built over its own poles, ``den = prod (s - lam_k)`` and
    ``num = D den + sum_k K_k prod_{m != k} (s - lam_m)``, so no root is
    found and nothing is cancelled.  Distinct poles closer than a pole
    tolerance stay distinct, for ``DSF`` to reject as repeated.
    """
    rows, cols = prf.shape
    lams, where = np.unique(prf.poles, return_inverse=True)
    K = np.zeros((lams.size, rows, cols))
    np.add.at(K, where, np.reshape(prf.residues, (-1, rows, cols)))
    support = np.abs(K) > _CHOP_REL * np.max(np.abs(K), axis=0, initial=0.0)
    bases = {}  # support mask -> (den, partial products), shared across entries
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            mask = support[:, i, j]
            key = mask.tobytes()
            if key not in bases:
                kept = lams[mask]
                bases[key] = (Polynomial(npoly.polyfromroots(kept)), _products_of_others(kept))
            den, partial = bases[key]
            num = prf.constant[i, j] * den.coeffs
            num[:-1] += K[mask, i, j] @ partial
            num = Polynomial(num).chop()
            row.append(_raw_ratfun(num, Polynomial([1.0]) if num.is_zero else den))
        out.append(row)
    return RationalMatrix(out)


def rmat_eval(M: RationalMatrix, s0, tol_pole: float = TOL_POLE) -> np.ndarray:
    """Entrywise value of M at s0; errors when s0 sits on a pole."""
    out = np.zeros((M.rows, M.cols), dtype=complex)
    for i, j, r in _all_den_roots(M):
        if r.size and np.min(np.abs(r - s0)) <= tol_pole:
            raise EvaluationAtPole(f"s0={s0} is a pole of entry ({i}, {j})")
        out[i, j] = M.entries[i][j](s0)
    if np.max(np.abs(out.imag)) == 0.0:
        return out.real
    return out


def rmat_det(M: RationalMatrix) -> RationalFunction:
    """Determinant by cofactor expansion (small matrices only)."""
    if M.rows != M.cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    n = M.rows
    if n == 1:
        return M.entries[0][0]
    acc = RationalFunction([0.0])
    cols = list(range(n))
    for j in range(n):
        minor = M.submatrix(range(1, n), [c for c in cols if c != j])
        term = M.entries[0][j] * rmat_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def rmat_inverse(M: RationalMatrix) -> RationalMatrix:
    """Adjugate-over-determinant inverse with reduced entries."""
    if M.rows != M.cols:
        raise ShapeMismatch("inverse of a non-square matrix")
    n = M.rows
    det = rmat_det(M)
    if det.is_zero:
        raise SingularRationalMatrix("determinant is identically zero")
    if n == 1:
        return RationalMatrix([[RationalFunction([1.0]) / det]])
    rows_all = list(range(n))
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = M.submatrix([r for r in rows_all if r != j],
                                [c for c in rows_all if c != i])
            cof = rmat_det(minor)
            if (i + j) % 2 == 1:
                cof = -cof
            out[i][j] = cof / det
    return RationalMatrix(out)


def rmat_equal(M1: RationalMatrix, M2: RationalMatrix,
               tol_eval: float = TOL_EVAL) -> bool:
    """Entrywise equality of two rational matrices (see ratfun_equal)."""
    if M1.shape != M2.shape:
        raise ShapeMismatch(f"shapes {M1.shape} and {M2.shape} differ")
    pts = off_pole_points(np.concatenate([e.poles() for M in (M1, M2)
                                          for row in M.entries for e in row]), 16)
    for r1, r2 in zip(M1.entries, M2.entries):
        for a, b in zip(r1, r2):
            if not ratfun_equal(a, b, tol_eval, sample_points=pts):
                return False
    return True
