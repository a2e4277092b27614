"""Gamma function wrapper restricted to positive arguments.

The boundary value problem itself needs only small arguments: sigma - kappa
lies in (1, 2), and the kernel and bound constants involve arguments below
4.  The public operators take any order, so gamma also meets arguments past
171.6, where it overflows double precision; that is a NonFiniteResult, and
so is a 1/gamma that overflows.  ``math.gamma`` (platform libm,
Lanczos-class) is well below the 1e-12 relative-error requirement on the
range that matters, so there is no reason to hand-roll an approximation.
"""

from __future__ import annotations

import math

from .errors import DomainInvalid, NonFiniteResult

__all__ = ["gamma", "reciprocal_gamma"]


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
