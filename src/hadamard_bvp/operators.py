"""Numerical Hadamard fractional integral and derivative.

All quadrature happens in the substituted variable u = ln(s/t1), where the
integral of order ``a`` becomes

    (1/Gamma(a)) * integral_0^U (U - u)^(a-1) f(t1 e^u) du,   U = ln(t/t1):

a Riemann-Liouville-type kernel, weakly singular at u = U for a < 1, with a
possible integrable singularity of f itself at u = 0 (log-power data).  The
mesh therefore grades geometrically toward *both* ends:

* panels shrink by the ratio 2^(-grading) toward each endpoint;
* the terminal panel at u = U uses a Gauss-Jacobi rule with weight
  (U - u)^(a-1), which integrates the kernel singularity exactly;
* the terminal panel at u = 0 stops shrinking at a depth floor chosen so
  that the smallest quadrature node still satisfies t1 * e^u > t1 in double
  precision, i.e. f is never evaluated at an argument that rounds onto the
  singular endpoint itself.

The derivative of order a in (0, 2] is computed as delta^n applied to the
(n - a)-order integral (n = ceil(a), delta = t d/dt), with the delta powers
realised as centred differences in x = ln t plus one Richardson step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .coefficient import as_callable
from .errors import DifferenceInstability, DomainInvalid, QuadratureFailure
from .gammafn import gamma, reciprocal_gamma

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "QuadratureConfig",
    "DEFAULT_CONFIG",
    "OperatorKind",
    "hadamard_integral",
    "hadamard_derivative",
    "power_rule_reference",
    "composition_check",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Mesh parameters: panel count, Gauss order per panel, grading strength.

    ``grading`` g produces geometric panel ratios 2^(-g); g = 1 halves panel
    widths toward the endpoints, larger g clusters harder.
    """

    panels: int = 64
    order: int = 8
    grading: float = 2.0

    def __post_init__(self):
        if not (isinstance(self.panels, int) and self.panels >= 1):
            raise DomainInvalid(f"panels must be an integer >= 1, got {self.panels!r}")
        if not (isinstance(self.order, int) and self.order >= 2):
            raise DomainInvalid(f"order must be an integer >= 2, got {self.order!r}")
        if not (math.isfinite(self.grading) and self.grading >= 1.0):
            raise DomainInvalid(f"grading must be >= 1, got {self.grading!r}")


DEFAULT_CONFIG = QuadratureConfig()


class OperatorKind(enum.Enum):
    Integral = "Integral"
    Derivative = "Derivative"


@lru_cache(maxsize=64)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    return np.polynomial.legendre.leggauss(order)


@lru_cache(maxsize=256)
def _gauss_jacobi(order: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integral_{-1}^{1} (1+x)^beta phi(x) dx, beta > -1.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the Jacobi(0, beta) recurrence, and each weight is the total
    mass 2^(beta+1)/(beta+1) times the squared first component of its
    normalised eigenvector.
    """
    import numpy as np

    k = np.arange(1.0, order)
    s = 2.0 * k + beta
    diag = np.empty(order)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s * (s + 2.0))
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 ** (beta + 1.0) / (beta + 1.0) * vecs[0] ** 2


def _geometric_cuts(width: float, panels: int, ratio: float, floor: float) -> list[float]:
    """Decreasing cut positions from `width` toward 0, stopping at the floor."""
    cuts = [width]
    while len(cuts) < panels and cuts[-1] * ratio > floor:
        cuts.append(cuts[-1] * ratio)
    return cuts


def _eval_f(fe, t1: float, us: list[float]) -> list[float]:
    out = [fe(t1 * math.exp(u)) for u in us]
    if not all(map(math.isfinite, out)):
        raise QuadratureFailure("integrand not finite at a quadrature node")
    return out


def hadamard_integral(order: float, f, t1: float, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Hadamard fractional integral of `f` of the given order, from t1 to t.

    Order 0 is the identity (returns f(t)).  For order > 0 the value is
    (1/Gamma(order)) * integral_{t1}^{t} (ln(t/s))^(order-1) f(s)/s ds.
    """
    import numpy as np

    if not (math.isfinite(order) and order >= 0.0):
        raise DomainInvalid(f"integral order must be >= 0, got {order!r}")
    if not (math.isfinite(t1) and math.isfinite(t) and 0.0 < t1 <= t):
        raise DomainInvalid(f"need 0 < t1 <= t, got t1={t1!r}, t={t!r}")
    fe = as_callable(f)
    if order == 0.0:
        return fe(t)
    U = math.log(t / t1)
    if U == 0.0:
        return 0.0

    beta = order - 1.0
    ratio = 2.0 ** (-cfg.grading)
    xg, wg = _gauss_legendre(cfg.order)
    # Depth floor: the innermost left panel [0, h] has its first Gauss node
    # at h*(1 - max node)/2; keep that above ~3e-16 so t1*e^u stays strictly
    # above t1 in double precision.
    node_frac = (1.0 - float(xg[-1])) / 2.0
    floor = max(5e-14 * max(1.0, U), 3e-16 / node_frac)

    n_left = max(1, (3 * cfg.panels) // 5)
    n_right = max(1, cfg.panels - n_left)
    mid = 0.5 * U

    # The whole mesh is built as arrays, one row of Gauss nodes per panel,
    # and f is evaluated once over all of its nodes.
    # Left half, u in [0, mid]: kernel smooth, f possibly singular at u = 0.
    hi = np.array(_geometric_cuts(mid, n_left, ratio, floor))
    lo = np.append(hi[1:], 0.0)
    half = 0.5 * (hi - lo)
    u_left = (0.5 * (hi + lo))[:, None] + half[:, None] * xg
    w_left = np.power(U - u_left, beta) * (half[:, None] * wg)

    # Right half in w = U - u, w in [0, mid]: kernel w^beta singular at the
    # terminal panel, which gets the Gauss-Jacobi rule.
    cuts = np.array(_geometric_cuts(mid, n_right, ratio, floor))
    hi, lo = cuts[:-1], cuts[1:]
    half = 0.5 * (hi - lo)
    w_right = (0.5 * (hi + lo))[:, None] + half[:, None] * xg
    h_last = float(cuts[-1])
    xj, wj = _gauss_jacobi(cfg.order, beta)
    w_end = 0.5 * h_last * (1.0 + xj)

    nodes = np.concatenate((u_left.ravel(), (U - w_right).ravel(), U - w_end))
    weights = np.concatenate((
        w_left.ravel(),
        (np.power(w_right, beta) * (half[:, None] * wg)).ravel(),
        (0.5 * h_last) ** (beta + 1.0) * wj,
    ))
    total = float(np.dot(weights, _eval_f(fe, t1, nodes.tolist())))

    if not math.isfinite(total):
        raise QuadratureFailure(f"integral of order {order!r} at t={t!r} is not finite")
    return total / gamma(order)


def hadamard_derivative(order: float, f, t1: float, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Hadamard fractional derivative of order in (0, 2] at an interior t.

    Raises DifferenceInstability when the Richardson error estimate of the
    centred difference exceeds 1% of the result scale, which signals that
    quadrature noise dominates the stencil.
    """
    if not (math.isfinite(order) and 0.0 < order <= 2.0):
        raise DomainInvalid(f"derivative order must lie in (0, 2], got {order!r}")
    if not (math.isfinite(t1) and math.isfinite(t) and 0.0 < t1 < t):
        raise DomainInvalid(f"need 0 < t1 < t, got t1={t1!r}, t={t!r}")
    n = math.ceil(order)
    inner = n - order
    fe = as_callable(f)

    def G(x: float) -> float:
        return hadamard_integral(inner, fe, t1, t1 * math.exp(x), cfg)

    x0 = math.log(t / t1)
    h = 1e-4 * x0

    def delta_n(step: float) -> float:
        if n == 1:
            return (G(x0 + step) - G(x0 - step)) / (2.0 * step)
        return (G(x0 + step) - 2.0 * G(x0) + G(x0 - step)) / (step * step)

    d_h = delta_n(h)
    d_h2 = delta_n(0.5 * h)
    richardson = (4.0 * d_h2 - d_h) / 3.0
    estimate = abs(d_h2 - d_h) / 3.0
    if not math.isfinite(richardson) or estimate > 1e-2 * max(1.0, abs(richardson)):
        raise DifferenceInstability(
            f"centred difference unstable at t={t!r}: estimate {estimate:.3e} "
            f"vs value {richardson:.3e}"
        )
    return richardson


def power_rule_reference(
    op: OperatorKind, order: float, exponent_kappa: float, t1: float, t: float
) -> float:
    """Exact integral/derivative of f(s) = (ln(s/t1))^(exponent_kappa - 1).

    Integral:   Gamma(k)/Gamma(k + order) * (ln(t/t1))^(k + order - 1)
    Derivative: Gamma(k)/Gamma(k - order) * (ln(t/t1))^(k - order - 1)

    with 1/Gamma taken as 0 at non-positive integers, which silently kills
    the terms the derivative annihilates.
    """
    if not isinstance(op, OperatorKind):
        raise DomainInvalid(f"op must be an OperatorKind, got {op!r}")
    if not (math.isfinite(order) and order > 0.0):
        raise DomainInvalid(f"order must be > 0, got {order!r}")
    if not (math.isfinite(exponent_kappa) and exponent_kappa > 0.0):
        raise DomainInvalid(f"exponent_kappa must be > 0, got {exponent_kappa!r}")
    if not (math.isfinite(t1) and math.isfinite(t) and 0.0 < t1 <= t):
        raise DomainInvalid(f"need 0 < t1 <= t, got t1={t1!r}, t={t!r}")
    if op is OperatorKind.Integral:
        coef = gamma(exponent_kappa) * reciprocal_gamma(exponent_kappa + order)
        power = exponent_kappa + order - 1.0
    else:
        coef = gamma(exponent_kappa) * reciprocal_gamma(exponent_kappa - order)
        power = exponent_kappa - order - 1.0
    if coef == 0.0:
        return 0.0
    X = math.log(t / t1)
    if X == 0.0 and power < 0.0:
        raise DomainInvalid("negative log-power at t = t1 is unbounded")
    return coef * X**power


def composition_check(
    sigma: float, kappa: float, f, t1: float, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """Return (I^sigma (I^kappa f)(t), I^(sigma+kappa) f(t)) for comparison.

    The two components agree up to quadrature error when the semigroup
    property holds; callers assert closeness.
    """
    if not (math.isfinite(sigma) and sigma > 0.0 and math.isfinite(kappa) and kappa > 0.0):
        raise DomainInvalid(f"orders must be > 0, got sigma={sigma!r}, kappa={kappa!r}")
    fe = as_callable(f)

    def inner(s: float) -> float:
        return hadamard_integral(kappa, fe, t1, s, cfg)

    nested = hadamard_integral(sigma, inner, t1, t, cfg)
    direct = hadamard_integral(sigma + kappa, fe, t1, t, cfg)
    return nested, direct
