"""Green's function for the two-order Hadamard boundary value problem.

Everything here lives naturally in logarithmic coordinates
``x = ln(t/t1)``, ``y = ln(s/t1)``, ``L = ln(t2/t1)``.  With
``a = sigma - 1`` and ``b = sigma - kappa - 1`` the kernel is

    G(t, s) = (1/Gamma(sigma - kappa)) * Xi(t, s),
    Xi1(t, s) = x^a (L - y)^b / (L^a s)              for t <= s,
    Xi2(t, s) = Xi1(t, s) - (x - y)^b / s            for s <= t.

L, a, b and Gamma(sigma - kappa) are the ``FracParams`` properties of the
same names (``gamma_sk`` for the last), and x, y come from ``log_ratio``, so
every function here forms them as ``params`` does: b as (sigma - 1) - kappa
and the logarithms through log1p, which keeps the closed forms within a few
ulps of a 50-digit evaluation on narrow intervals and near kappa = sigma - 1.

``Xi1`` is nonnegative; ``Xi2`` changes sign, and the absolute maximum of G
over the square is attained either on the diagonal t = s (at ``t_star``) or
on the left edge s = t1 (at ``t_hat``).  Both candidates have closed forms:

* the diagonal profile ``h(t) = x^a (L - x)^b / t`` is maximised at
  ``x2``, the smaller root of ``x^2 - (L + 2a - kappa) x + a L = 0``;
  ``omega = h(t_star) / L^a`` is the diagonal candidate;
* the left-edge profile ``zeta(t) = x^b (1 - (x/L)^kappa) / t1`` is
  maximised at ``x = (b/a)^(1/kappa) L``; ``mho = zeta(t_hat)`` is the edge
  candidate (the kernel is negative there, so ``zeta = |Xi2(t, t1)|``).

``green_max`` reports ``max|G| = max(omega, mho) / Gamma(sigma - kappa)``
together with the branch that wins.  Everything here is scalar and loads no
numpy; the array evaluation of G and the brute-force search that checks
``green_max`` by an independent route live in ``grid``.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .errors import ConvergenceFailure, DomainInvalid
from .params import FracParams, log_ratio


class MaxBranch(enum.Enum):
    Diagonal = "Diagonal"
    LeftEdge = "LeftEdge"


class GreenMaxReport(
    namedtuple("GreenMaxReport", "delta x2 t_star t_hat omega mho max_abs_g branch")
):
    """Closed-form maximum analysis of |G| over [t1, t2]^2: seven floats and
    a MaxBranch.

    ``max_abs_g = max(omega, mho) / gamma(sigma - kappa)``; ``branch`` names
    the winning candidate, with ties resolved to ``Diagonal``.
    """

    __slots__ = ()


def _x(p: FracParams, t: float) -> float:
    """ln(t/t1) for t in [t1, t2], which the caller has checked; the clamp
    takes away one-ulp excursions of the log."""
    return min(max(log_ratio(t, p.t1), 0.0), p.L)


def _log_coord(p: FracParams, t: float) -> float:
    if not (p.t1 <= t <= p.t2):
        raise DomainInvalid(f"t={t!r} outside [{p.t1!r}, {p.t2!r}]")
    return _x(p, t)


def _xi(p: FracParams, t: float, s: float, below: bool) -> float:
    """Xi at (t, s), a point of the square; ``below`` selects Xi2 (s <= t)."""
    x, y = _x(p, t), _x(p, s)
    upper = x**p.a * max(p.L - y, 0.0) ** p.b
    if not below:
        return upper / (p.L**p.a * s)
    return (upper / p.L**p.a - max(x - y, 0.0) ** p.b) / s


def xi1(p: FracParams, t: float, s: float) -> float:
    """Upper-triangle kernel branch, valid for t1 <= t <= s <= t2."""
    if not (p.t1 <= t <= s <= p.t2):
        raise DomainInvalid(f"xi1 needs t1 <= t <= s <= t2, got t={t!r}, s={s!r}")
    return _xi(p, t, s, False)


def xi2(p: FracParams, t: float, s: float) -> float:
    """Lower-triangle kernel branch, valid for t1 <= s <= t <= t2."""
    if not (p.t1 <= s <= t <= p.t2):
        raise DomainInvalid(f"xi2 needs t1 <= s <= t <= t2, got t={t!r}, s={s!r}")
    return _xi(p, t, s, True)


def green_eval(p: FracParams, t: float, s: float) -> float:
    """G(t, s) on the closed square [t1, t2]^2 (signed value)."""
    if not (p.t1 <= t <= p.t2 and p.t1 <= s <= p.t2):
        raise DomainInvalid(f"(t, s)=({t!r}, {s!r}) outside [{p.t1!r}, {p.t2!r}]^2")
    return _xi(p, t, s, t > s) / p.gamma_sk


def diag_h(p: FracParams, t: float) -> float:
    """Diagonal profile h(t) = x^a (L - x)^b / t for t in [t1, t2]."""
    x = _log_coord(p, t)
    return x**p.a * max(p.L - x, 0.0) ** p.b / t


def zeta(p: FracParams, t: float) -> float:
    """Left-edge profile |Xi2(t, t1)| = x^b (1 - (x/L)^kappa) / t1."""
    x = _log_coord(p, t)
    return x**p.b * (1.0 - (x / p.L) ** p.kappa) / p.t1


def discriminant(p: FracParams) -> float:
    """Discriminant of the diagonal stationarity quadratic (always > 0)."""
    bc = p.L + 2.0 * p.a - p.kappa
    return bc * bc - 4.0 * p.a * p.L


def critical_x2(p: FracParams) -> float:
    """Smaller root of x^2 - (L + 2(sigma-1) - kappa) x + (sigma-1) L = 0.

    Computed through the larger root and the Vieta product to avoid the
    subtractive cancellation of the textbook formula when the discriminant
    is close to the squared linear coefficient (small L).
    """
    bc = p.L + 2.0 * p.a - p.kappa
    delta = discriminant(p)
    if not delta > 0.0:
        raise ConvergenceFailure(f"stationarity discriminant {delta!r} is not positive")
    x1 = 0.5 * (bc + math.sqrt(delta))
    x2 = p.a * p.L / x1
    # The larger root must fall beyond the domain and the smaller inside it.
    if not (x1 > p.L and 0.0 < x2 < p.L):
        raise ConvergenceFailure(
            f"stationarity roots {x2!r}, {x1!r} do not bracket as 0 < x2 < L={p.L!r} < x1"
        )
    return x2


def t_star(p: FracParams) -> float:
    """Location of the diagonal maximum, t1 * exp(x2)."""
    return p.t1 * math.exp(critical_x2(p))


def t_hat(p: FracParams) -> float:
    """Location of the left-edge maximum, t1 * exp((b/a)^(1/kappa) L)."""
    return p.t1 * math.exp((p.b / p.a) ** (1.0 / p.kappa) * p.L)


def omega(p: FracParams) -> float:
    """Diagonal candidate for the unscaled maximum, h(t_star) / L^(sigma-1)."""
    x2 = critical_x2(p)
    return x2**p.a * (p.L - x2) ** p.b / (p.L**p.a * p.t1 * math.exp(x2))


def mho(p: FracParams) -> float:
    """Left-edge candidate for the unscaled maximum, zeta(t_hat).

    Evaluated in closed form: with r = kappa/(sigma-1),
    mho = r * (1 - r)^(b/kappa) * L^b / t1.
    """
    r = p.kappa / p.a
    return r * (1.0 - r) ** (p.b / p.kappa) * p.L**p.b / p.t1


def green_max(p: FracParams) -> GreenMaxReport:
    """Closed-form maximum of |G| with its full derivation trail."""
    om = omega(p)
    mh = mho(p)
    branch = MaxBranch.Diagonal if om >= mh else MaxBranch.LeftEdge
    return GreenMaxReport(
        delta=discriminant(p),
        x2=critical_x2(p),
        t_star=t_star(p),
        t_hat=t_hat(p),
        omega=om,
        mho=mh,
        max_abs_g=max(om, mh) / p.gamma_sk,
        branch=branch,
    )

