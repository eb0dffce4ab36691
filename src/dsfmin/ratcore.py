"""Real polynomials, rational functions, and rational matrices.

Coefficients are double-precision reals in ascending degree order
(``coeffs[k]`` multiplies ``s**k``).  Rational functions are kept reduced
(no common numerator/denominator roots) with a monic denominator.  Root
finding goes through the companion matrix of the monic polynomial
(``Polynomial.roots``, the one root finder), and
``RationalFunction.poles()`` keeps each entry's denominator roots.
Entries read together (``_all_den_roots``) find the roots of one
denominator, by value, once.  A ``RationalMatrix`` is read once: on its
first read (``_read``) it keeps its entries' roots, their chains for
each pole tolerance, its stacked numerators and denominators and each
root's residue quotient, which ``rmat_poles``, ``residue_at``,
``rmat_eval``, ``rmat_equal`` and ``DSF`` then look up.  Entries are
not mutated after construction, so what is kept stays true.

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


def _chopped_lengths(c):
    """Coefficients left of each polynomial of ``c`` by ``Polynomial.chop``.

    ``c`` holds ascending coefficients along its last axis, one polynomial
    or a stack.  Trailing coefficients at or below ``_CHOP_REL`` times the
    polynomial's largest are dropped; 0 means none is left.
    """
    a = np.abs(c)
    keep = a > _CHOP_REL * np.max(a, axis=-1, keepdims=True)
    return np.where(keep.any(axis=-1), c.shape[-1] - np.argmax(keep[..., ::-1], axis=-1), 0)


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
        n = _chopped_lengths(self.coeffs)
        return self if n == self.coeffs.size else Polynomial(self.coeffs[:n])

    def roots(self) -> np.ndarray:
        """All complex roots via companion-matrix eigenvalues."""
        if self.is_zero:
            raise ZeroPolynomial("the zero polynomial has no well-defined roots")
        if self.degree() == 0:
            return np.zeros(0, dtype=complex)
        return np.atleast_1d(npoly.polyroots(self.coeffs))

    def __repr__(self):
        return f"Polynomial({self.coeffs.tolist()})"


def _wrapped(coeffs: np.ndarray) -> Polynomial:
    """Polynomial over ``coeffs``, already float, 1-d and trimmed, as given."""
    poly = Polynomial.__new__(Polynomial)
    poly.coeffs = coeffs
    return poly


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
    cuts = [0, *(np.flatnonzero(x[1:] - x[:-1] > tol) + 1).tolist(), x.size]
    return [x[a:b] for a, b in zip(cuts[:-1], cuts[1:])] if x.size else []


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
    """Dense matrix of reduced rational functions.

    A matrix is read once: ``_read`` gathers, on the first read, what
    ``rmat_poles``, ``residue_at``, ``rmat_eval`` and ``DSF`` need of its
    entries and keeps it.  Its entries are not mutated after construction.
    """

    __slots__ = ("entries", "rows", "cols", "_kept")

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
        self._kept = None

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


def _all_den_roots(entries):
    """Denominator roots of ``entries``, concatenated, and the entry each is of.

    Each entry keeps its roots (``poles()``).  Entries that have not found
    them yet and have one denominator, by value, share one root finding.
    """
    found = {}
    for e in entries:
        if e._poles is None:
            key = e.den.coeffs.tobytes()
            if key in found:
                e._poles = found[key]
            else:
                found[key] = e.poles()
    roots = [e._poles for e in entries]
    return (np.concatenate([np.zeros(0, dtype=complex), *roots]),
            np.repeat(np.arange(len(roots)), [r.size for r in roots]))


def _flat(M: RationalMatrix) -> list:
    """Entries of ``M`` row by row; entry k is (k // M.cols, k % M.cols)."""
    return [e for row in M.entries for e in row]


def _stacked(coeffs: list) -> np.ndarray:
    """Ascending ``coeffs``, one polynomial per row, zero-padded at the high-degree end.

    A zero-padded Horner pass (``npoly.polyval``) gives exactly the bits of
    each polynomial alone: the leading zeros leave the sum at exact zero
    until the polynomial's own leading coefficient.
    """
    c = np.zeros((len(coeffs), max(x.size for x in coeffs)))
    for k, x in enumerate(coeffs):
        c[k, :x.size] = x
    return c


def _root_quotients(entries, roots, owner, num) -> np.ndarray:
    """For each root r of an entry, num(r) / prod(r - the entry's other roots).

    That is the entry's residue at r when r is a simple root.  All roots
    are read in one pass, each in the arithmetic of ``residue_at`` on its
    entry alone: the numerator by Horner at the real part of r; the
    product over the entry's roots in their order, r itself counting as
    an exact 1, in complex arithmetic; and the division in real arithmetic
    for an entry whose roots came out real, as it would alone.
    """
    if not roots.size:
        return np.zeros(0)
    sizes = np.bincount(owner, minlength=len(entries))
    per = sizes[owner]  # roots of each root's entry
    starts = np.cumsum(per) - per  # each root's run of distances
    first = (np.cumsum(sizes) - sizes)[owner]  # first root of each root's entry
    other = np.repeat(first - starts, per) + np.arange(starts[-1] + per[-1])
    x = roots.real
    dist = np.repeat(x, per) - roots[other]
    dist[other == np.repeat(np.arange(roots.size), per)] = 1.0
    prods = np.multiply.reduceat(dist, starts)
    values = npoly.polyval(x, num[owner].T, tensor=False)
    real_typed = np.array([not np.iscomplexobj(e._poles) for e in entries])[owner]
    # a root repeated in its entry divides by zero; residue_at never reads it
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = values / prods
        quotient[real_typed] = values[real_typed] / prods.real[real_typed]
    return quotient.real


class _Read:
    """What the readers of a rational matrix need of its entries, kept.

    ``roots`` and ``owner`` hold every entry's denominator roots,
    concatenated, and the entry each is of (one ``_all_den_roots`` call);
    ``num`` and ``den`` the coefficients, stacked by ``_stacked``, entry
    k in row k; ``zero`` and ``improper`` flag the entries that are
    identically zero and those that are not strictly proper; and
    ``quotient`` each root's residue quotient (``_root_quotients``).
    ``chains(tol_pole)`` is the real roots chained at ``tol_pole``, found
    once per tolerance.
    """

    __slots__ = ("roots", "owner", "num", "den", "zero", "improper", "quotient", "_chains")

    def __init__(self, entries):
        self.roots, self.owner = _all_den_roots(entries)
        self.num = _stacked([e.num.coeffs for e in entries])
        self.den = _stacked([e.den.coeffs for e in entries])
        sizes = np.array([(e.num.coeffs.size, e.den.coeffs.size) for e in entries])
        self.zero = ~self.num.any(axis=1)
        self.improper = ~self.zero & (sizes[:, 1] <= sizes[:, 0])
        self.quotient = _root_quotients(entries, self.roots, self.owner, self.num)
        self._chains = {}

    def chains(self, tol_pole: float) -> list:
        """``chain_clusters`` of the roots within ``tol_pole`` of the real axis."""
        if tol_pole not in self._chains:
            real = self.roots.real[np.abs(self.roots.imag) <= tol_pole]
            self._chains[tol_pole] = chain_clusters(real, tol_pole)
        return self._chains[tol_pole]


def _read(M: RationalMatrix) -> _Read:
    """What the readers of ``M`` need, gathered on its first read and then kept."""
    if M._kept is None:
        M._kept = _Read(_flat(M))
    return M._kept


def rmat_poles(M: RationalMatrix, tol_pole: float = TOL_POLE) -> list:
    """Distinct real poles of ``M``, ascending.

    Raises ComplexPolesUnsupported when any entry has a complex pole,
    naming the offending entries.
    """
    read = _read(M)
    complex_ = np.abs(read.roots.imag) > tol_pole
    if complex_.any():
        bad = [divmod(int(k), M.cols) for k in np.unique(read.owner[complex_])]
        raise ComplexPolesUnsupported(
            f"complex poles in entries {bad}; only real poles are supported")
    return [float(np.mean(c)) for c in read.chains(tol_pole)]


def residue_at(M: RationalMatrix, lam: float, tol_pole: float = TOL_POLE) -> np.ndarray:
    """Residue matrix of ``M`` at its pole ``lam``.

    The poles of ``M`` are its entries' real poles chained at ``tol_pole``,
    as in ``rmat_poles``; ``lam`` names the chain it lies in or within
    ``tol_pole`` of.  Each entry gives its residue at its own pole in that
    chain, however far from ``lam``: zero if none, RepeatedPole if two.
    The chains and each root's residue quotient are read once per matrix
    (``_read``), so a call looks up its chain and copies the quotients.
    """
    read = _read(M)
    chain = next((c for c in read.chains(tol_pole)
                  if c[0] - tol_pole <= lam <= c[-1] + tol_pole), [lam])
    # poles outside the chain (all poles, if none holds lam) lie more than
    # tol_pole beyond its ends
    centre, reach = 0.5 * (chain[-1] + chain[0]), 0.5 * (chain[-1] - chain[0]) + tol_pole
    near = np.abs(read.roots - centre) <= reach
    hit = read.owner[near]
    count = np.bincount(hit, minlength=M.rows * M.cols)
    if np.any(count > 1):
        k = int(np.argmax(count > 1))
        raise RepeatedPole(f"entry ({k // M.cols}, {k % M.cols}) has {count[k]} poles "
                           f"in the pole of M near {lam}")
    K = np.zeros((M.rows, M.cols))
    K.flat[hit] = read.quotient[near]
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


def _from_roots(roots) -> np.ndarray:
    """Ascending coefficients of the monic prod (s - r) over real ``roots``.

    ``npoly.polyfromroots``' own product tree, bit for bit: the roots
    sorted, one factor [-r, 1] each, and the factors multiplied in pairs,
    first half by second, by ``np.convolve``, without its per-call checks.
    """
    factors = [np.array([-r, 1.0]) for r in np.sort(roots)]
    if not factors:
        return np.ones(1)
    n = len(factors)
    while n > 1:
        m, odd = divmod(n, 2)
        pairs = [np.convolve(factors[i], factors[i + m]) for i in range(m)]
        if odd:
            pairs[0] = np.convolve(pairs[0], factors[-1])
        factors, n = pairs, m
    return factors[0]


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
    ``_CHOP_REL`` times its entry's largest is set to zero.  Each sum runs
    from zero in the given order (``np.add.reduceat`` sums eight or more pairwise).
    """
    order = np.argsort(poles, kind="stable")
    lams = poles[order]
    first = np.ones(lams.size, dtype=bool)
    first[1:] = lams[1:] != lams[:-1]
    K = np.zeros((np.count_nonzero(first), *residues.shape[1:]))
    np.add.at(K, np.cumsum(first) - 1, residues[order])
    K[np.abs(K) <= _CHOP_REL * np.abs(K).max(axis=0, initial=0.0)] = 0.0
    return lams[first], K


def _build_pole_residue(prf: PoleResidueForm, keep_poles: bool) -> RationalMatrix:
    """Entries grouped by their poles: one numerator product per group, one chop in all."""
    rows, cols = prf.shape
    lams, K = merge_poles(prf.poles, np.reshape(prf.residues, (-1, rows, cols)))
    K = K.reshape(lams.size, rows * cols).T  # entry k = (k // cols, k % cols) x poles
    groups = {}  # support mask -> entries with those poles
    for k, mask in enumerate(K != 0.0):
        groups.setdefault(mask.tobytes(), []).append(k)
    # numerators, zero-padded at the high-degree end, which chops nothing more
    num = np.zeros((rows * cols, lams.size + 1))
    bases = []
    for members in groups.values():
        mask = K[members[0]] != 0.0
        kept = lams[mask]
        poles = kept.astype(complex)
        poles.flags.writeable = False
        den = _wrapped(_from_roots(kept))
        block = prf.constant.flat[members][:, None] * den.coeffs
        # one vector-matrix product per entry, stacked, each vector contiguous:
        # BLAS then sums each in the order it takes for that entry alone
        residues = np.ascontiguousarray(K[members][:, mask])[:, None]
        block[:, :-1] += np.matmul(residues, _products_of_others(kept))[:, 0]
        num[members, :kept.size + 1] = block
        bases.append((members, den, poles if keep_poles else None))
    lengths = _chopped_lengths(num)
    zero, one = Polynomial([0.0]), Polynomial([1.0])
    none = np.zeros(0, dtype=complex)
    none.flags.writeable = False
    out = [None] * (rows * cols)
    for members, den, poles in bases:
        for k in members:
            n = lengths[k]
            out[k] = (_raw_ratfun(_wrapped(num[k, :n].copy()), den, poles) if n
                      else _raw_ratfun(zero, one, none if keep_poles else None))
    return RationalMatrix([out[i * cols:(i + 1) * cols] for i in range(rows)])


def rmat_eval(M: RationalMatrix, s) -> np.ndarray:
    """Entrywise value of M at the point s, or at each point of an array s.

    An array of any shape gives the values stacked, s.shape x rows x cols.
    Every pole of every entry is tested against every point at once: one
    within ``TOL_POLE`` raises EvaluationAtPole.  Numerators and
    denominators are the kept stacks of ``_read``, one Horner pass each.
    Values are real when no imaginary part is nonzero.
    """
    s = np.asarray(s)
    pts = s.ravel()
    read = _read(M)
    at_pole = np.abs(read.roots[:, None] - pts) <= TOL_POLE
    if at_pole.any():
        point = pts[np.argwhere(at_pole)[0, 1]]
        k = int(read.owner[np.argmax(np.abs(read.roots - point) <= TOL_POLE)])
        raise EvaluationAtPole(f"s0={point} is a pole of entry ({k // M.cols}, {k % M.cols})")
    values = (npoly.polyval(pts, read.num.T[..., None], tensor=False)
              / npoly.polyval(pts, read.den.T[..., None], tensor=False))
    out = np.moveaxis(values.reshape(M.rows, M.cols, pts.size), -1, 0)
    if np.iscomplexobj(out) and not np.any(out.imag):
        out = out.real
    return out.reshape(*s.shape, M.rows, M.cols)


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
    pts = off_pole_points(np.concatenate([_read(M1).roots, _read(M2).roots]), 16)
    return values_agree(rmat_eval(M1, pts), rmat_eval(M2, pts), tol_eval)
