"""Real polynomials, rational functions, and rational matrices.

Coefficients are double-precision reals in ascending degree order
(``coeffs[k]`` multiplies ``s**k``).  Rational functions are kept reduced
(no common numerator/denominator roots) with a monic denominator.  Root
finding goes through the companion matrix of the monic polynomial
(``Polynomial.roots``, the one root finder), and
``RationalFunction.poles()`` keeps each entry's denominator roots.

``from_pole_residue`` needs no root finding and no cancellation: poles
given more than once are merged exactly (their residues summed), and
each entry gets as poles exactly those whose residue in that entry is
above ``_CHOP_REL`` (1e-12) times the entry's largest residue.
``from_known_poles`` builds the same entries and has each keep its
poles, so that ``poles()`` never finds them as denominator roots.

Tolerances, each the default of the operations that take it as an
argument and the constant of those that do not:

* ``TOL_ROOT``  root matching / cancellation (1e-8); ``RationalFunction``
  takes it, its arithmetic and ``rat_reduce`` use the constant
* ``TOL_POLE``  pole deduplication and realness (1e-6); ``rmat_poles`` and
  ``residue_at`` take it, ``to_pole_residue`` and ``rmat_eval`` use the
  constant
* ``TOL_EVAL``  sample-point agreement (1e-8); ``values_agree`` and
  ``rmat_equal`` take it
"""

from __future__ import annotations

import math

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

    def chop(self) -> "Polynomial":
        """Drop trailing coefficients at or below ``_CHOP_REL`` times the largest."""
        scale = np.max(np.abs(self.coeffs))
        if scale == 0.0:
            return Polynomial([0.0])
        keep = np.flatnonzero(np.abs(self.coeffs) > _CHOP_REL * scale)
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


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Product of two polynomials."""
    return a * b


def chain_clusters(x, tol: float) -> list:
    """Sorted real values split wherever neighbours lie more than ``tol`` apart.

    Chaining is transitive: values ``tol`` apart in a row form one
    cluster however wide it grows.
    """
    x = np.sort(np.asarray(x, dtype=float))
    return np.split(x, np.flatnonzero(np.diff(x) > tol) + 1) if x.size else []


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


def _real_coeffs(roots):
    roots = sorted(roots, key=lambda z: (z.real, z.imag))  # canonical order
    c = npoly.polyfromroots(roots)
    scale = max(1.0, np.max(np.abs(c)))
    if np.max(np.abs(c.imag)) > 1e-7 * scale:
        raise ValueError("non-conjugate root set produced complex coefficients")
    return c.real


def _reduced(nums, dens, tol_root):
    """Numerator and monic denominator of prod(nums) / prod(dens), reduced.

    The roots of each factor are found on their own and paired by
    ``_cancel_common_roots``, so a factor shared by two fractions pairs up
    at full root accuracy instead of degrading through an expanded
    multiple root.  Both parts are rebuilt from the roots left only when
    a pair cancelled.
    """
    def roots(factors):
        return np.concatenate([_realify(f.roots()) for f in factors])

    keep_n, keep_d, cancelled = _cancel_common_roots(roots(nums), roots(dens), tol_root)
    if cancelled:
        scale = math.prod(f.lead for f in nums) / math.prod(f.lead for f in dens)
        return Polynomial(scale * _real_coeffs(keep_n)), Polynomial(_real_coeffs(keep_d))
    num, den = math.prod(nums[1:], start=nums[0]), math.prod(dens[1:], start=dens[0])
    return Polynomial(num.coeffs / den.lead), Polynomial(den.coeffs / den.lead)


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
        self.num, self.den = _reduced([num], [den], tol_root)

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
        return _add_over_lcm(self, other)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self.__add__(-_as_ratfun(other))

    def __rsub__(self, other):
        return _as_ratfun(other).__sub__(self)

    def __neg__(self):
        return _raw_ratfun(-self.num, self.den)

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


def _raw_ratfun(num: Polynomial, den: Polynomial, poles=None) -> RationalFunction:
    """Wrap already-reduced parts, normalizing the denominator to monic.

    ``poles``, when given, is a read-only array of the denominator's
    roots, which ``poles()`` then returns without finding them.
    """
    obj = RationalFunction.__new__(RationalFunction)
    obj._poles = poles
    lead = den.lead
    obj.num = num if lead == 1.0 else Polynomial(num.coeffs / lead)
    obj.den = den if lead == 1.0 else Polynomial(den.coeffs / lead)
    return obj


def _add_over_lcm(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    """Sum over the least common multiple of the factored denominators.

    Shared denominator roots are counted once, so sums never manufacture
    multiple roots that a later cancellation would have to resolve.
    """
    d1r = list(_realify(f.den.roots()))
    d1_only, d2_only, _ = _cancel_common_roots(d1r, _realify(g.den.roots()), TOL_ROOT)
    num = f.num * Polynomial(_real_coeffs(d2_only)) + \
        g.num * Polynomial(_real_coeffs(d1_only))
    den = Polynomial(_real_coeffs(d1r + d2_only))
    return RationalFunction(num, den)


def _combine(n1: Polynomial, n2: Polynomial, d1: Polynomial, d2: Polynomial) -> RationalFunction:
    """Reduced product (n1 n2) / (d1 d2) of already-reduced fractions (see ``_reduced``)."""
    if n1.is_zero or n2.is_zero:
        return RationalFunction([0.0])
    if max(n1.degree(), n2.degree(), d1.degree(), d2.degree()) == 0:
        return _raw_ratfun(n1 * (n2.lead / (d1.lead * d2.lead)), Polynomial([1.0]))
    return _raw_ratfun(*_reduced([n1, n2], [d1, d2], TOL_ROOT))


def rat_reduce(num, den) -> RationalFunction:
    """Reduced rational function num/den with common roots cancelled at ``TOL_ROOT``."""
    return RationalFunction(num, den)


def values_agree(f, g, tol_eval: float = TOL_EVAL) -> bool:
    """The one agreement rule of sampled values, for arrays of one shape.

    True when |f - g| <= tol_eval * max(1, |f|, |g|) at every element.
    """
    bound = tol_eval * np.maximum(1.0, np.maximum(np.abs(f), np.abs(g)))
    return bool(np.all(np.abs(f - g) <= bound))


def off_pole_points(poles, count: int) -> np.ndarray:
    """Deterministic points s_k = sigma + k, k = 1..count, sigma = 1 + max |pole|.

    Every point lies beyond the spectral bound of ``poles``, so none is a pole.
    ``poles`` may be a stack, one set of poles along the last axis; the
    points are then a stack too, ``count`` per set.
    """
    sigma = 1.0 + np.abs(poles).max(axis=-1, initial=0.0)
    return sigma[..., None] + np.arange(1, count + 1)


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
    return [(i, j, e.poles()) for i, row in enumerate(M.entries) for j, e in enumerate(row)]


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
    """Residue matrix of ``M`` at its pole ``lam``.

    The poles of ``M`` are its entries' real poles chained at ``tol_pole``,
    as in ``rmat_poles``; ``lam`` names the chain it lies in or within
    ``tol_pole`` of.  Each entry gives its residue at its own pole in that
    chain, however far from ``lam``: zero if none, RepeatedPole if two.
    """
    den_roots = _all_den_roots(M)
    roots = np.concatenate([np.zeros(0), *(r for _, _, r in den_roots)])
    real = roots.real[np.abs(roots.imag) <= tol_pole]
    chain = next((c for c in chain_clusters(real, tol_pole)
                  if c[0] - tol_pole <= lam <= c[-1] + tol_pole), [lam])
    # poles outside the chain (all poles, if none holds lam) lie more than
    # tol_pole beyond its ends
    centre, reach = 0.5 * (chain[-1] + chain[0]), 0.5 * (chain[-1] - chain[0]) + tol_pole
    K = np.zeros((M.rows, M.cols))
    for i, j, r in den_roots:
        if not r.size:
            continue
        near = np.abs(r - centre) <= reach
        count = int(np.sum(near))
        if count == 0:
            continue
        if count > 1:
            raise RepeatedPole(
                f"entry ({i}, {j}) has {count} poles in the pole of M near {lam}")
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


def to_pole_residue(M: RationalMatrix):
    """Simple-pole expansion of a proper rational matrix, poles chained at ``TOL_POLE``."""
    constant = limit_at_infinity(M)
    kept_poles, residues = [], []
    for lam in rmat_poles(M):
        K = residue_at(M, lam)
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
    tolerance stay distinct, for ``DSF`` to reject as repeated.  The
    entries find their poles again, as denominator roots, when asked;
    ``from_known_poles`` builds the same entries and keeps them.
    """
    return _build_pole_residue(prf, keep_poles=False)


def from_known_poles(prf: PoleResidueForm) -> RationalMatrix:
    """``from_pole_residue`` whose entries keep the poles they are built over.

    Each entry's ``poles()`` returns the ``lam_k`` it kept, exactly as
    given, so nothing downstream (``DSF`` validation, ``rmat_poles``,
    ``residue_at``) finds a root of its denominator.
    """
    return _build_pole_residue(prf, keep_poles=True)


def merge_poles(poles, residues):
    """Distinct ``poles``, ascending, and their residues, summed over repeats.

    ``residues`` is n x rows x cols; a summed residue at or below
    ``_CHOP_REL`` times its entry's largest is set to zero.
    """
    lams, where = np.unique(poles, return_inverse=True)
    K = np.zeros((lams.size, *residues.shape[1:]))
    np.add.at(K, where, residues)
    K[np.abs(K) <= _CHOP_REL * np.max(np.abs(K), axis=0, initial=0.0)] = 0.0
    return lams, K


def _build_pole_residue(prf: PoleResidueForm, keep_poles: bool) -> RationalMatrix:
    rows, cols = prf.shape
    lams, K = merge_poles(prf.poles, np.reshape(prf.residues, (-1, rows, cols)))
    support = K != 0.0
    none = np.zeros(0, dtype=complex)
    none.flags.writeable = False
    one = Polynomial([1.0])
    bases = {}  # support mask -> (den, partial products, poles), shared across entries
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            mask = support[:, i, j]
            key = mask.tobytes()
            if key not in bases:
                kept = lams[mask]
                poles = kept.astype(complex)
                poles.flags.writeable = False
                bases[key] = (Polynomial(npoly.polyfromroots(kept)),
                              _products_of_others(kept), poles)
            den, partial, poles = bases[key]
            num = prf.constant[i, j] * den.coeffs
            num[:-1] += K[mask, i, j] @ partial
            num = Polynomial(num).chop()
            if num.is_zero:
                den, poles = one, none
            row.append(_raw_ratfun(num, den, poles if keep_poles else None))
        out.append(row)
    return RationalMatrix(out)


def _horner(coeffs: list, pts: np.ndarray) -> np.ndarray:
    """Each polynomial of ascending ``coeffs`` at ``pts``, polynomials x points.

    One Horner pass over the coefficients, stacked and zero-padded at the
    high-degree end.  A padded step leaves the running value at zero, so
    each value is bit-identical to ``Polynomial.__call__``.
    """
    c = np.zeros((len(coeffs), max((x.size for x in coeffs), default=1)))
    for k, x in enumerate(coeffs):
        c[k, :x.size] = x
    v = np.zeros((len(coeffs), pts.size), dtype=np.result_type(c, pts))
    for k in range(c.shape[1] - 1, -1, -1):
        v = c[:, k, None] + v * pts
    return v


def rmat_eval(M: RationalMatrix, s) -> np.ndarray:
    """Entrywise value of M at the point s, or at each point of an array s.

    An array gives the values stacked, points x rows x cols.  Every pole
    of every entry is tested against every point at once: one within
    ``TOL_POLE`` raises EvaluationAtPole.  Values are real when no imaginary
    part is nonzero.
    """
    s = np.asarray(s)
    pts = np.atleast_1d(s)
    den_roots = _all_den_roots(M)
    roots = np.concatenate([np.zeros(0), *(r for _, _, r in den_roots)])
    at_pole = np.abs(roots[:, None] - pts) <= TOL_POLE
    if at_pole.any():
        point = pts[np.argwhere(at_pole)[0, 1]]
        i, j = next((i, j) for i, j, r in den_roots if np.any(np.abs(r - point) <= TOL_POLE))
        raise EvaluationAtPole(f"s0={point} is a pole of entry ({i}, {j})")
    entries = [e for row in M.entries for e in row]
    values = (_horner([e.num.coeffs for e in entries], pts)
              / _horner([e.den.coeffs for e in entries], pts))
    out = np.moveaxis(values.reshape(M.rows, M.cols, pts.size), -1, 0)
    if np.iscomplexobj(out) and not np.any(out.imag):
        out = out.real
    return out if s.ndim else out[0]


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
    """Entrywise equality of two rational matrices by value.

    Both are evaluated at 16 points beyond every pole of either and
    judged by ``values_agree``.
    """
    if M1.shape != M2.shape:
        raise ShapeMismatch(f"shapes {M1.shape} and {M2.shape} differ")
    both = RationalMatrix.hstack(M1, M2)
    pts = off_pole_points(np.concatenate([e.poles() for row in both.entries for e in row]), 16)
    values = rmat_eval(both, pts)
    return values_agree(values[..., :M1.cols], values[..., M1.cols:], tol_eval)
