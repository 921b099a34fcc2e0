"""Exception types shared across the package."""


class GeothermoError(Exception):
    """Base class for all package errors."""


class DomainViolation(GeothermoError):
    """A point lies outside the validity domain of a fundamental relation.

    ``violations`` lists human-readable descriptions of the failed
    predicates (may be a single entry, e.g. "ln of non-positive argument").
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations else [message]


class NonFinite(GeothermoError):
    """A derivative or function value overflowed or became NaN."""


class ParseError(GeothermoError):
    """Syntax error in a relation source string (``position`` None when the
    error has no place in one)."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class DefinitionError(ParseError, ValueError):
    """A malformed system-definition document.  It is also a ValueError,
    which ``from_definition`` raised for such documents before."""


class UnknownIdentifier(ParseError):
    """An identifier resolves to neither a coordinate nor a parameter."""

    def __init__(self, name, position=None):
        super().__init__(f"unknown identifier '{name}'", position)
        self.name = name


class UnboundParameter(GeothermoError):
    """A relation references a parameter with no bound value."""

    def __init__(self, name):
        super().__init__(f"parameter '{name}' has no bound value")
        self.name = name


class SingularPrefactor(GeothermoError):
    """Some E^j dPhi/dE^j in the conformal sum vanishes at the point."""


class DegenerateMetric(GeothermoError):
    """|det g| fell below the degeneracy threshold; curvature is undefined.

    Carries the offending ``metric`` (a MetricTensor) when available so
    diagnostics such as the determinant remain accessible.
    """

    def __init__(self, message, metric=None):
        super().__init__(message)
        self.metric = metric


class InversionFailure(GeothermoError):
    """A Legendre/representation inversion could not be carried out.

    ``witness`` optionally holds a pair of sample points demonstrating
    non-monotonicity of the map being inverted.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SingularDenominator(GeothermoError):
    """A closed-form oracle denominator vanishes at the requested point."""

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


class PreconditionFailure(GeothermoError):
    """An operation was invoked with inputs violating its stated precondition."""


class EmptyGrid(GeothermoError):
    """A grid specification contains no points."""
