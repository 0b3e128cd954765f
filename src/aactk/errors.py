"""Exception hierarchy.

Every public operation documents which of these it raises.  Errors fall
into three groups: ``PreconditionViolation`` (bad input), the plain
runtime error ``ToleranceExceeded`` (a floating-point identity check
missed its tolerance), and ``ComputationBug`` (an internal invariant
failed, which means the implementation is wrong, not the input).  The
analytic class number's rounding guard raises ``ComputationBug``: below
its cap its float sum is proven within the guard, so a miss is a bug.
"""


class Error(Exception):
    """Base class for all toolkit errors."""


class PreconditionViolation(Error):
    """Input violates a documented precondition."""


class ComputationBug(Error):
    """An internal invariant failed; indicates an implementation bug."""


class CheckpointCorrupt(Error):
    """A checkpoint record failed its per-line integrity check."""


class NotPrime(PreconditionViolation):
    pass


class WrongResidueClass(PreconditionViolation):
    pass


class NotInvertible(PreconditionViolation):
    pass


class DivisibleBase(PreconditionViolation):
    pass


class OutOfRange(PreconditionViolation):
    pass


class PerfectSquare(PreconditionViolation):
    pass


class BadDiscriminant(PreconditionViolation):
    pass


class NotSmall(PreconditionViolation):
    pass


class HypothesisFail(PreconditionViolation):
    pass


class WrongSign(PreconditionViolation):
    pass


class ModulusMismatch(PreconditionViolation):
    pass


class NotNonResidue(PreconditionViolation):
    pass


class TrivialResidue(OutOfRange, NotNonResidue):
    """n = 1, which is outside [2, p-1] and a quadratic residue."""


class BadRepresentatives(PreconditionViolation):
    pass


class BadFactorization(PreconditionViolation):
    pass


class NotSquarefree(PreconditionViolation):
    pass


class EvenD(PreconditionViolation):
    pass


class ZeroInput(PreconditionViolation):
    pass


class ToleranceExceeded(Error):
    """A floating-point identity check missed its tolerance."""


class DivisibilityBug(ComputationBug):
    """An exact division that is guaranteed by theory failed."""


class MismatchBug(ComputationBug):
    """Two independently computed sides of a proven identity disagree."""
