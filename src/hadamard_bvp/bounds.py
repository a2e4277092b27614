"""Lyapunov-type integral bound, eigenvalue threshold, nonexistence verdicts.

The necessary condition for a nontrivial solution is

    integral of |q| over [t1, t2]  >=  gamma(sigma - kappa) / max(omega, mho),

so whenever the left side is strictly smaller the problem admits only the
zero solution.  The eigenvalue variant multiplies the bound by (t2 - t1) and
compares against |lambda|.  Equality is always classified Inconclusive: the
necessary condition is non-strict, so only a strict violation of it proves
nonexistence.

The |q| integral runs on Python floats only.  A coefficient that has a
closed form (an ``abs_integral`` method: in ``coefficient``, a constant and
a table) is integrated by it, so which kinds have one is decided there and
not here.  The adaptive quadrature for every other coefficient has its
15-node Gauss-Legendre rule written out as literals (equal, bit for bit, to
``numpy.polynomial.legendre.leggauss(15)``) and builds its scan grid with
the same arithmetic as ``numpy.linspace``, so the bound and verdict commands
never load numpy and the coefficient only ever sees plain floats.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .coefficient import Coefficient, finite_integral, sampler
from .errors import DomainInvalid, NonFiniteResult, QuadratureFailure, ResultUnderflow
from .kernel import mho, omega
from .params import FracParams, Verdict, _check_interval, _check_sigma, gamma, log_width

DEFAULT_TOL = 1e-9

# Fixed 15-node Gauss-Legendre rule used on every adaptive panel.
_GL_NODES = (
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
    -0.20119409399743451, 0.0, 0.20119409399743451,
    0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
)
_GL_WEIGHTS = (
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
    0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
    0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
)
# The weights halved, exactly, for a panel sum scaled by b - a: the plain
# weights sum to 2, so their sum can overflow below an integral that does not.
# Scaled by the half-width, they give the same bits unless a term is subnormal.
_GL_HALF_WEIGHTS = tuple(0.5 * w for w in _GL_WEIGHTS)


class LyapunovReport(namedtuple("LyapunovReport", "gamma_sk bound eigen_bound")):
    """Bound summary: gamma(sigma - kappa) and the two thresholds."""

    __slots__ = ()


def _threshold(name: str, value: float, a: float, op: str, b: float) -> float:
    """The threshold value = a op b, which must be positive and finite: a
    zero or infinite threshold would be wrong, not merely imprecise."""
    if 0.0 < value < math.inf:
        return value
    formula = f"{a!r} {op} {b!r}"
    if value == 0.0:
        raise ResultUnderflow(f"{name} = {formula} underflows to 0")
    raise NonFiniteResult(f"{name} is not finite: {formula} = {value!r}")


def lyapunov_bound(p: FracParams) -> float:
    """gamma(sigma - kappa) / max(omega, mho); the integral threshold.

    Raises NonFiniteResult when the quotient overflows (t1 near 1.7e308).
    """
    peak = max(omega(p), mho(p))
    return _threshold("bound", p.gamma_sk / peak, p.gamma_sk, "/", peak)


def eigenvalue_bound(p: FracParams) -> float:
    """lyapunov_bound(p) * (t2 - t1); the |lambda| threshold.

    Raises ResultUnderflow when the product rounds to zero (t1 near
    1e-300) and NonFiniteResult when it overflows.
    """
    bound, width = lyapunov_bound(p), p.t2 - p.t1
    return _threshold("eigen_bound", bound * width, bound, "*", width)


def lyapunov_report(p: FracParams) -> LyapunovReport:
    return LyapunovReport(
        gamma_sk=p.gamma_sk,
        bound=lyapunov_bound(p),
        eigen_bound=eigenvalue_bound(p),
    )


def nonexistence_check(p: FracParams, q: Coefficient, tol: float = DEFAULT_TOL) -> Verdict:
    """Compare the integral of |q| against the bound; strict comparison."""
    bound = lyapunov_bound(p)
    q_integral = integrate_abs_q(q, p.t1, p.t2, tol)
    return Verdict.from_comparison(bound, q_integral)


def lambda_nonexistence_check(p: FracParams, lam: float) -> Verdict:
    """Eigenvalue variant: NoNontrivialSolution iff |lambda| < eigen bound."""
    if not math.isfinite(lam):
        raise DomainInvalid(f"lambda must be finite, got {lam!r}")
    return Verdict.from_comparison(eigenvalue_bound(p), abs(lam))


def _gauss_panel(sample, a: float, b: float) -> float:
    """The 15-node Gauss rule for the integral of |q| over [a, b], from q's sampler."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values = sample([mid + half * node for node in _GL_NODES])
    total = 0.0
    for weight, value in zip(_GL_HALF_WEIGHTS, values):
        total += weight * abs(value)
    return (b - a) * total


def _scan_grid(t1: float, t2: float, n: int = 257) -> list[float]:
    """n >= 2 equally spaced points from t1 to t2, equal to numpy.linspace(t1, t2, n)."""
    step = (t2 - t1) / (n - 1)
    return [t1 + i * step for i in range(n - 1)] + [t2]


def _bisect_sign_change(sample, a: float, b: float, fa: float, width: float) -> float:
    """Narrow a bracket with q(a)*q(b) < 0 down to `width` and return its midpoint.

    ``sample`` is q's sampler, which raises for a value that is not finite:
    the bisection reads the sign of every value it samples.
    """
    while b - a > width:
        mid = 0.5 * (a + b)
        if not a < mid < b:  # a and b are adjacent floats
            break
        fm = sample([mid])[0]
        if fm == 0.0:
            return mid
        if (fa < 0.0) != (fm < 0.0):
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def integrate_abs_q(q, t1: float, t2: float, tol: float = DEFAULT_TOL) -> float:
    """Estimate of the integral of |q| over [t1, t2].

    A q with a closed form, an ``abs_integral(t1, t2)`` method (a Constant:
    |c| (t2 - t1); a Table), is integrated by it without being sampled, and
    ``tol`` plays no part.  Any other q is integrated adaptively.  Sign
    changes of q are first bracketed on a scan grid and pinned down by
    bisection, so that each adaptive sub-problem integrates a smooth
    branch of |q|.  Each panel uses a fixed 15-node Gauss rule; a
    panel is accepted when splitting it changes the result by less than its
    share of the tolerance.  A panel narrower than its width floor,
    max(64 ulps of its midpoint, 2^-48 (t2 - t1)), is accepted anyway and
    its error estimate is added to a running slack: below 64 ulps, halving
    no longer tells a jump or a cusp apart, and the relative term caps the
    depth near t = 0, where ulps are tiny.  QuadratureFailure is raised when
    the slack exceeds tol or the recursion exhausts its budget of 200 000
    panels, which in practice means |q| is not integrable or too rough for
    the scan resolution.  NonFiniteResult is raised as soon as a pair of
    panels, or the sum over the segments between sign changes, overflows; a
    panel's own weighted sum overflows only when its value does.  q is
    evaluated only through ``coefficient.sampler``, which decides whether a
    value is valid: one that is not a real number is an EvalError, and one
    that is not finite is an EvalError from a Coefficient and a
    QuadratureFailure from a plain callable.
    """
    _check_interval(t1, t2)
    if not tol > 0.0:
        raise DomainInvalid(f"tolerance must be positive, got {tol!r}")
    if hasattr(q, "abs_integral"):
        return q.abs_integral(t1, t2)
    sample = sampler(q)

    # Locate kinks of |q|: sign changes of q on a fixed scan grid.
    scan = _scan_grid(t1, t2)
    scan_vals = sample(scan)
    breakpoints = [t1]
    for left, right, f_left, f_right in zip(scan, scan[1:], scan_vals, scan_vals[1:]):
        if f_left == 0.0:
            if left != t1:
                breakpoints.append(left)
        elif f_right != 0.0 and (f_left < 0.0) != (f_right < 0.0):
            breakpoints.append(_bisect_sign_change(sample, left, right, f_left, 1e-12 * (t2 - t1)))
    breakpoints.append(t2)

    budget = [200_000]  # panel evaluations, shared across segments
    slack = [0.0]  # error estimates of the panels accepted at the width floor

    def adapt(a: float, b: float, whole: float, tol_here: float) -> float:
        mid = 0.5 * (a + b)
        left = _gauss_panel(sample, a, mid)
        right = _gauss_panel(sample, mid, b)
        pair = finite_integral(left + right, t1, t2)
        budget[0] -= 2
        if budget[0] <= 0:
            raise QuadratureFailure(
                f"adaptive quadrature budget exhausted on [{a!r}, {b!r}]"
            )
        error = abs(pair - whole)
        if error <= tol_here:
            return pair
        if b - a < max(64.0 * math.ulp(mid), 2.0**-48 * (t2 - t1)):
            slack[0] += error
            if slack[0] > tol:
                raise QuadratureFailure(
                    f"adaptive quadrature does not converge on [{a!r}, {b!r}]"
                )
            return pair
        return adapt(a, mid, left, 0.5 * tol_here) + adapt(mid, b, right, 0.5 * tol_here)

    total = 0.0
    for a, b in zip(breakpoints, breakpoints[1:]):
        if b <= a:
            continue
        share = tol * (b - a) / (t2 - t1)
        total = finite_integral(total + adapt(a, b, _gauss_panel(sample, a, b), share), t1, t2)
    return float(total)


def reference_bound_kappa0(sigma: float, t1: float, t2: float) -> float:
    """Integral bound for the single-derivative problem (kappa absent).

    Serves as the kappa -> 0 consistency oracle: as kappa shrinks, mho
    vanishes and gamma(sigma - kappa)/omega approaches this value.  With a =
    sigma - 1, L = ln(t2/t1) and x the smaller root of x^2 - (L + 2a) x +
    a L = 0, the maximum of the kernel sits at rho = t1 e^x and the bound is
    gamma(sigma) * rho * (x (L - x) / L)^(1-sigma).  The root comes from the
    larger one by Vieta, and rho is formed only at the end, so neither
    cancellation on narrow intervals nor t1 t2 at extreme t1 costs digits.
    """
    _check_sigma(sigma)
    L = log_width(t1, t2)
    a = sigma - 1.0
    x = a * L / (a + 0.5 * L + math.sqrt(a * a + 0.25 * L * L))
    return gamma(sigma) * t1 * math.exp(x) * (x * (L - x) / L) ** (1.0 - sigma)
