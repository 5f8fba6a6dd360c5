"""Exception types shared across the package."""


class FilippovError(Exception):
    """Base class for all package-specific errors."""


class IdenticallyZeroOnD(FilippovError):
    """The restriction of a polynomial to y=0 vanishes identically."""


class NotOnSlidingOrEscaping(FilippovError):
    """The Filippov field is undefined outside sliding/escaping arcs."""


class WrongHalf(FilippovError):
    """A trig-field piece was evaluated outside its theta half-interval."""


class CommonFactor(FilippovError):
    """Two polynomials share a factor, so their common zeros form a curve."""


class DegenerateTopCoefficient(FilippovError):
    """A_{k,m} vanishes identically: infinity is not of generic type."""


class EvenDegree(FilippovError):
    """S^1 elementarity requires odd degree (the equator always carries
    singular points otherwise)."""


class NoConvergence(FilippovError):
    """A quadrature rule reached its node limit before it settled."""


class BadParameter(FilippovError):
    """Invalid transition-function parameter."""


class NoReturn(FilippovError):
    """A trajectory failed to return to the section within budget."""


class NotTransversal(FilippovError):
    """A section is not transversal to the field at the base point."""


class StepFailure(FilippovError):
    """The adaptive step controller underflowed."""


class DegreeMismatch(FilippovError):
    """Perturbation incompatible with the declared degree."""


class NotRepairable(FilippovError):
    """No explicit repair perturbation covers this violation kind."""


class FieldSpecError(FilippovError):
    """Field-spec file failed to parse or validate."""
