"""Problem parameters and verdict types.

The boundary value problem is posed on [t1, t2] with a leading Hadamard
derivative of order sigma in (1, 2] and an inner derivative of order kappa
in (0, sigma - 1).  The open upper end for kappa is essential: at
kappa = sigma - 1 the kernel exponent sigma - kappa - 1 hits zero and the
maximum formulas lose their meaning, so that case is rejected outright
rather than approximated.

Every closed form is written in the same derived quantities, and they are
formed here once: ``L = ln(t2/t1)``, ``a = sigma - 1``, ``b = sigma -
kappa - 1`` and ``gamma_sk = Gamma(sigma - kappa)``.  Logarithmic
coordinates come from ``log_ratio(t, t1) = log1p((t - t1)/t1)``, whose
difference t - t1 is exact on narrow intervals where t/t1 would lose the
digits that ln keeps; b is formed as (sigma - 1) - kappa because sigma - 1
is exact and sigma - kappa is not.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .errors import BoundaryOrderUnsupported, DomainInvalid, OrderOutOfRange
from .gammafn import gamma

__all__ = ["FracParams", "Verdict", "VerdictKind", "log_ratio", "log_width", "validate"]


def log_ratio(t: float, t1: float) -> float:
    """ln(t/t1) as log1p((t - t1)/t1), exact in t - t1 when t is near t1.

    Where (t - t1)/t1 overflows (t/t1 above about 1.8e308, as between the
    knots of a wide table) it is ln t - ln t1, which then cancels nothing.
    """
    ratio = (t - t1) / t1
    if ratio == math.inf:
        return math.log(t) - math.log(t1)
    return math.log1p(ratio)


def log_width(t1: float, t2: float) -> float:
    """L = ln(t2/t1) of the interval [t1, t2].

    Raises DomainInvalid unless t1 and t2 are finite with 0 < t1 < t2 and
    t2/t1 lies within the float range, i.e. L below about 709.8.  The closed
    forms are not validated on wider intervals.
    """
    if not (math.isfinite(t1) and math.isfinite(t2) and 0.0 < t1 < t2):
        raise DomainInvalid(f"need 0 < t1 < t2, got t1={t1!r}, t2={t2!r}")
    if (t2 - t1) / t1 == math.inf:
        raise DomainInvalid(f"t2/t1 exceeds the float range for t1={t1!r}, t2={t2!r}")
    return log_ratio(t2, t1)


class FracParams(namedtuple("FracParams", "sigma kappa t1 t2")):
    """Validated parameter bundle.

    Construction checks every invariant, with exact floating-point
    comparisons and no epsilon slack: sigma = 2.0 is accepted while
    kappa = sigma - 1 is rejected even when the difference is one ulp.
    Like every result record of the package, it is an immutable namedtuple
    (so it compares equal to the plain tuple of its fields).
    """

    __slots__ = ()

    def __new__(cls, sigma: float, kappa: float, t1: float, t2: float):
        for name, value in (("sigma", sigma), ("kappa", kappa), ("t1", t1), ("t2", t2)):
            if not math.isfinite(value):
                raise DomainInvalid(f"{name} must be finite, got {value!r}")
        if not 1.0 < sigma <= 2.0:
            raise OrderOutOfRange(f"sigma must satisfy 1 < sigma <= 2, got {sigma!r}")
        a = sigma - 1.0
        if kappa == a:
            raise BoundaryOrderUnsupported(
                f"kappa = sigma - 1 = {kappa!r} is excluded: the kernel exponent "
                "sigma - kappa - 1 vanishes there"
            )
        if not 0.0 < kappa < a:
            raise OrderOutOfRange(
                f"kappa must satisfy 0 < kappa < sigma - 1 = {a!r}, got {kappa!r}"
            )
        log_width(t1, t2)
        return super().__new__(cls, sigma, kappa, t1, t2)

    @classmethod
    def _make(cls, iterable):
        """Build from an iterable through the checks (``_replace`` uses this)."""
        return cls(*iterable)

    @property
    def L(self) -> float:
        """Width of the domain in logarithmic coordinates, ln(t2/t1)."""
        return log_ratio(self.t2, self.t1)

    @property
    def a(self) -> float:
        """Exponent of x in the kernel, sigma - 1."""
        return self.sigma - 1.0

    @property
    def b(self) -> float:
        """Kernel exponent sigma - kappa - 1, formed as (sigma - 1) - kappa."""
        return self.a - self.kappa

    @property
    def gamma_sk(self) -> float:
        """Gamma(sigma - kappa), the kernel's normalising constant."""
        return gamma(self.sigma - self.kappa)


class VerdictKind(enum.Enum):
    NoNontrivialSolution = "NoNontrivialSolution"
    Inconclusive = "Inconclusive"


class Verdict(namedtuple("Verdict", "kind bound q_integral")):
    """Outcome of a nonexistence test: a VerdictKind and two floats.

    ``kind`` is ``NoNontrivialSolution`` exactly when ``q_integral < bound``
    (strict); equality is reported as ``Inconclusive`` because the underlying
    inequality is not strict at the threshold.
    """

    __slots__ = ()

    @staticmethod
    def from_comparison(bound: float, q_integral: float) -> "Verdict":
        if q_integral < bound:
            kind = VerdictKind.NoNontrivialSolution
        else:
            kind = VerdictKind.Inconclusive
        return Verdict(kind=kind, bound=bound, q_integral=q_integral)


def validate(sigma: float, kappa: float, t1: float, t2: float) -> FracParams:
    """Return the frozen bundle; :class:`FracParams` checks the invariants."""
    return FracParams(sigma=sigma, kappa=kappa, t1=t1, t2=t2)
