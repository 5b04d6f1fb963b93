"""Exception types shared across the package.

Everything raised deliberately by pathmc derives from :class:`PathmcError`,
so callers (and the CLI) can separate our diagnostics from genuine bugs.
"""

from __future__ import annotations


class PathmcError(Exception):
    """Base class for all errors raised by pathmc."""


class InvalidParameter(PathmcError):
    """An argument is outside its documented domain."""


class DimensionMismatch(PathmcError):
    """Matrix or vector shapes are incompatible with the requested operation."""


class ShapeMismatch(PathmcError):
    """Operands of a combinator do not have compatible shapes."""


class OracleCapExceeded(PathmcError):
    """A dense reference computation was requested above the configured cap."""


class IterationLimit(PathmcError):
    """An iterative solver hit its iteration budget before converging.

    The best estimate reached so far is carried in ``best_estimate`` so the
    caller can still inspect it.
    """

    def __init__(self, message: str, best_estimate: float = float("nan")):
        super().__init__(message)
        self.best_estimate = best_estimate


class DeadRow(PathmcError):
    """A forward transition was requested from a row with no outgoing weight.

    This is a signal, not a failure: paths that land on a dead row carry zero
    weight and estimators score them as exact zeros.
    """


class DeadColumn(PathmcError):
    """A backward transition was requested from a column with no weight."""


class NonUnitPhase(PathmcError):
    """A phase value was expected on the unit circle but is not."""


class InvalidWeights(PathmcError):
    """Mixture weights are negative, unnormalised, or starve a live term."""


class NotNormalized(PathmcError):
    """A state vector or factor violates its required normalisation."""


class ZeroVector(PathmcError):
    """A vector that must carry weight is identically zero."""


class NormViolation(PathmcError):
    """A density matrix entry exceeds its Cauchy-Schwarz bound."""


class HistoryCapExceeded(PathmcError):
    """A history enumeration would exceed the configured cap."""


class NegativeMassOverflow(PathmcError):
    """The sampling cost of a stochastic-mode chain exceeds the allowed cap."""


class NonFiniteResult(PathmcError):
    """A computed result is NaN or infinite and cannot be reported."""


class SchemaError(PathmcError):
    """A circuit file does not conform to the documented schema."""
