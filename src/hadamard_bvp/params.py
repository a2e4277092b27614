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

This module is also the one home of the scalar input rules, each written
once: `parse_decimal` reads every flag value, table cell and expression
literal (an ASCII decimal literal, finite if a float; ``DECIMAL`` is its
unsigned grammar), `check_size` bounds every count, `_check_interval`
requires a finite 0 < t1 < t2 and `_check_sigma` the window
1 < sigma <= 2.  ``bounds`` calls the last two for the inputs it
takes without a FracParams.  The gamma rule is here too: `gamma` takes a
finite x > 0 and `reciprocal_gamma` any finite x (0 at the poles), and
either overflowing double precision (x past 171.6) is a NonFiniteResult.
The problem itself needs only small arguments (sigma - kappa lies in
(1, 2), and the kernel and bound constants stay below 4), but the public
operators take any order.  Both are ``math.gamma`` (platform libm,
Lanczos-class), well below a 1e-12 relative error where it matters, so
there is no reason to hand-roll an approximation.
"""

from __future__ import annotations

import enum
import math
import re
import sys
from collections import namedtuple

from .errors import (
    BoundaryOrderUnsupported, DomainInvalid, NonFiniteResult, OrderOutOfRange, ResourceLimit,
)

# An unsigned ASCII decimal literal: [0-9], not \d, which matches any
# Unicode digit.  Its groups capture nothing, so a pattern that embeds it in
# a named group (the expression tokenizer) still reads the token kind from
# ``lastgroup``.
DECIMAL = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_REAL = re.compile(r"[+-]?" + DECIMAL)
_INT = re.compile(r"[+-]?[0-9]+")


def parse_decimal(text: str, kind: type = float):
    """``kind`` (float or int) of ``text``, an ASCII decimal literal.

    This is the one rule for every flag value, table cell and expression
    literal (the last unsigned, a sign being an operator there).  Surrounding
    whitespace is stripped.  Raises ValueError for anything else that
    ``float`` or ``int`` would accept: underscores (``2_7``), non-ASCII
    digits, and the names ``inf``, ``nan`` and ``infinity``; and for a float
    literal that overflows (``1e999``).  An int is exact, so it is returned
    at any length the interpreter converts (``sys.get_int_max_str_digits``,
    4300 digits by default, leading zeros not counted); a longer one is a
    ValueError that gives its digit count.  A count's bounds are
    `check_size`'s.
    """
    text = text.strip()
    if (_INT if kind is int else _REAL).fullmatch(text) is None:
        raise ValueError(f"not {'an integer' if kind is int else 'a real number'}: {text!r}")
    if kind is int:
        sign = "-" if text.startswith("-") else ""
        digits = text.lstrip("+-").lstrip("0") or "0"
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        if limit and len(digits) > limit:
            raise ValueError(f"integer literal of {len(digits)} digits exceeds cap {limit} digits")
        text = sign + digits
    value = kind(text)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"value must be finite: {text!r}")
    return value


def check_size(what: str, n, least: int, cap: int) -> None:
    """Check a count ``n`` such as a mesh or grid size: ``least`` <= n <= ``cap``.

    Raises DomainInvalid unless n is an int of at least ``least``, and
    ResourceLimit when it exceeds ``cap``; ``what`` names the count's user.
    """
    if not (isinstance(n, int) and n >= least):
        raise DomainInvalid(f"{what} needs integer n >= {least}, got {n!r}")
    if n > cap:
        raise ResourceLimit(f"{what} n={n} exceeds cap {cap}")


def log_ratio(t: float, t1: float) -> float:
    """ln(t/t1) as log1p((t - t1)/t1), exact in t - t1 when t is near t1.

    Where (t - t1)/t1 overflows (t/t1 above about 1.8e308, as between the
    knots of a wide table) it is ln t - ln t1, which then cancels nothing.
    """
    ratio = (t - t1) / t1
    if ratio == math.inf:
        return math.log(t) - math.log(t1)
    return math.log1p(ratio)


def _check_interval(t1: float, t2: float) -> None:
    """Raise DomainInvalid unless t1 and t2 are finite with 0 < t1 < t2."""
    if not 0.0 < t1 < t2 < math.inf:  # false for a nan at either end
        raise DomainInvalid(f"need 0 < t1 < t2, got t1={t1!r}, t2={t2!r}")


def _check_sigma(sigma: float) -> None:
    """Raise OrderOutOfRange unless 1 < sigma <= 2, which nan and +-inf fail."""
    if not 1.0 < sigma <= 2.0:
        raise OrderOutOfRange(f"sigma must satisfy 1 < sigma <= 2, got {sigma!r}")


def log_width(t1: float, t2: float) -> float:
    """L = ln(t2/t1) of the interval [t1, t2].

    Raises DomainInvalid unless t1 and t2 are finite with 0 < t1 < t2
    (`_check_interval`) and t2/t1 lies within the float range, i.e. L below
    about 709.8.  The closed forms are not validated on wider intervals.
    """
    _check_interval(t1, t2)
    if (t2 - t1) / t1 == math.inf:
        raise DomainInvalid(f"t2/t1 exceeds the float range for t1={t1!r}, t2={t2!r}")
    return log_ratio(t2, t1)


def _libm_gamma(x: float) -> float:
    """``math.gamma``, with its overflow a NonFiniteResult."""
    try:
        return math.gamma(x)
    except OverflowError:
        raise NonFiniteResult(f"gamma({x!r}) overflows double precision") from None


def gamma(x: float) -> float:
    """Euler gamma for x > 0; raises DomainInvalid otherwise, and
    NonFiniteResult past x = 171.6, where it overflows."""
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0):
        raise DomainInvalid(f"gamma requires finite x > 0, got {x!r}")
    return _libm_gamma(x)


def reciprocal_gamma(x: float) -> float:
    """1/gamma(x), extended by 0 at the poles x = 0, -1, -2, ...

    The reciprocal gamma function is entire; defining it as 0 at the poles
    makes differentiation formulas for log-power functions total (terms whose
    coefficient hits a pole simply drop out).  x must be finite, as for
    gamma: DomainInvalid otherwise.  Where gamma(x) or 1/gamma(x) is not a
    finite non-zero double (x past 171.6, or below about -171.5) this raises
    NonFiniteResult.
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise DomainInvalid(f"reciprocal_gamma requires finite x, got {x!r}")
    if x <= 0 and x == math.floor(x):
        return 0.0
    g = _libm_gamma(x)
    if g == 0.0 or not math.isfinite(1.0 / g):
        raise NonFiniteResult(f"1/gamma({x!r}) overflows double precision")
    return 1.0 / g


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
        _check_sigma(sigma)
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


# The bundle's second documented name: its constructor is the one check.
validate = FracParams


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

