"""Exception hierarchy for dsfmin.

AssumptionError groups the violations of the working assumptions of the
minimal-realization algorithm (real simple poles, rank-1 residues); the
command line maps them to a dedicated exit code.
"""


class DsfminError(Exception):
    """Base class for all dsfmin errors."""


class AssumptionError(DsfminError):
    """A mathematical working assumption of the algorithm is violated."""


class ZeroPolynomial(DsfminError):
    """Operation undefined for the zero polynomial."""


class ZeroDenominator(DsfminError):
    """Denominator is the zero polynomial."""


class ComplexPolesUnsupported(AssumptionError):
    """A denominator has complex roots; only real poles are handled."""


class RepeatedPole(AssumptionError):
    """A pole occurs with multiplicity two or more."""


class ResidueRankExceedsOne(AssumptionError):
    """A residue matrix has rank greater than one."""


class PoleAtZeroWithoutShift(AssumptionError):
    """A pole sits at the origin and no frequency shift is in effect."""


class ImproperMatrix(DsfminError):
    """An entry has numerator degree above denominator degree."""


class EvaluationAtPole(DsfminError):
    """Evaluation point coincides with a pole."""


class SingularRationalMatrix(DsfminError):
    """Determinant is identically zero."""


class ShapeMismatch(DsfminError):
    """Operands have incompatible dimensions."""


class RankDeficientC(DsfminError):
    """Output matrix C does not have full row rank."""


class ConflictingAssignment(DsfminError):
    """Two cancellations demand different values at one diagonal position."""


class ParseError(DsfminError):
    """A model file could not be read or decoded."""


class SchemaError(ParseError):
    """A model file decoded but violates the documented schema."""
