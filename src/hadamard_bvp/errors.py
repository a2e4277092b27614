"""Exception types shared across the package."""

from __future__ import annotations


class HadamardBVPError(Exception):
    """Base class for all errors raised by this package.

    ``exit_code`` is the CLI's exit status for the error: 2 for usage and
    validation errors (the default), 3 for numerical failures.
    """

    exit_code = 2


class DomainInvalid(HadamardBVPError):
    """An argument lies outside the mathematical domain of an operation."""


class OrderOutOfRange(DomainInvalid):
    """A fractional order violates 1 < sigma <= 2 or 0 < kappa < sigma - 1."""


class BoundaryOrderUnsupported(DomainInvalid):
    """kappa equals sigma - 1 exactly; the kernel formulas degenerate there."""


class ResourceLimit(HadamardBVPError):
    """A requested grid or matrix size exceeds the configured cap."""


class QuadratureFailure(HadamardBVPError):
    """Numerical integration could not reach the requested tolerance."""

    exit_code = 3


class DifferenceInstability(HadamardBVPError):
    """Finite-difference differentiation is dominated by noise at this point."""

    exit_code = 3


class ConvergenceFailure(HadamardBVPError):
    """An iterative eigenvalue computation failed to settle within budget."""

    exit_code = 3


class NonFiniteResult(HadamardBVPError):
    """A computed result overflowed to infinity or is NaN."""

    exit_code = 3


class ResultUnderflow(HadamardBVPError):
    """A product of positive factors rounded to zero in double precision."""

    exit_code = 3


class EvalError(HadamardBVPError):
    """A coefficient could not be evaluated (log of non-positive, 1/0, ...)."""

    exit_code = 3


class OutOfTableRange(EvalError):
    """A table coefficient was queried outside its knot range."""


class UnknownIdentifier(HadamardBVPError):
    """An expression references a name that is neither `t` nor a function."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r} at offset {offset}")
        self.name = name
        self.offset = offset


class ExpressionSyntaxError(SyntaxError, HadamardBVPError):
    """Malformed coefficient expression.

    Carries the byte offset of the failure and the set of token kinds that
    would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...]):
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected: " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = tuple(sorted(expected))
