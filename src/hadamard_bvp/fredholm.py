"""Nystrom discretization of the equivalent integral equation.

The boundary value problem is equivalent to x = integral of G(t,s) q(s) x(s)
ds, so the matrix K[i][j] = w_j G(t_i, s_j) q(s_j) discretizes the integral
operator.  With q = 1 the reciprocal of the spectral radius of K estimates
the smallest eigenvalue modulus of the associated eigenproblem, which the
analytic bound must stay below.

Boundary structure: the node set contains t1 and t2 explicitly with zero
quadrature weight.  G(t1, .) = 0 and G(., t2) contributes nothing, so row 0
and the last column of K vanish identically and every Krylov vector grown
from a start vector that is zero at both ends satisfies the boundary
conditions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .bounds import eigenvalue_bound
from .coefficient import Coefficient, Constant, eval_coefficient
from .errors import ConvergenceFailure, DomainInvalid, ResourceLimit
from .kernel import _green_xy
from .operators import _gauss_legendre
from .params import FracParams

if TYPE_CHECKING:
    import numpy as np

__all__ = ["NystromResult", "nystrom_matrix", "min_eigenvalue_modulus", "residual_check"]

MATRIX_MAX_N = 4000

_PANEL_ORDER = 4


@dataclass(frozen=True)
class NystromResult:
    """Spectral summary of the q = 1 Nystrom matrix.

    ``dominant_mu`` is the spectral radius (modulus of the dominant
    eigenvalue or conjugate pair, computed by ARPACK); ``lambda_min =
    1/dominant_mu`` estimates the smallest eigenvalue modulus of the
    continuous problem.  ``eigenvector_boundary_residual`` is
    max(|v(t1)|, |v(t2)|) / max|v| for the dominant eigenvector v, which is
    0.0 when v satisfies the boundary conditions exactly.
    """

    n: int
    dominant_mu: float
    lambda_min: float
    analytic_bound: float
    satisfied: bool
    eigenvector_boundary_residual: float


def _nodes_weights(p: FracParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n log-space nodes on [t1, t2] with s-space quadrature weights.

    Interior nodes form composite Gauss-Legendre panels (order 4, uniform
    in u = ln(t/t1)); the endpoints are appended with zero weight so the
    boundary rows/columns are represented explicitly.
    """
    import numpy as np

    interior = n - 2
    panels, rem = divmod(interior, _PANEL_ORDER)
    edges = np.linspace(0.0, p.L, panels + (1 if rem else 0) + 1)
    us = []
    wus = []
    for i in range(len(edges) - 1):
        order = _PANEL_ORDER if i < panels else rem
        xg, wg = _gauss_legendre(order)
        half = 0.5 * (edges[i + 1] - edges[i])
        us.append(0.5 * (edges[i] + edges[i + 1]) + half * xg)
        wus.append(half * wg)
    u = np.concatenate([[0.0], *us, [p.L]])
    wu = np.concatenate([[0.0], *wus, [0.0]])
    s = p.t1 * np.exp(u)
    # ds = s du, so s-space weights absorb the Jacobian.
    return s, wu * s


def nystrom_matrix(p: FracParams, q: Coefficient, n: int) -> np.ndarray:
    """K[i][j] = w_j * G(t_i, s_j) * q(s_j) on the log-uniform node set."""
    import numpy as np

    if not (isinstance(n, int) and n >= 8):
        raise DomainInvalid(f"nystrom matrix needs integer n >= 8, got {n!r}")
    if n > MATRIX_MAX_N:
        raise ResourceLimit(f"nystrom matrix n={n} exceeds cap {MATRIX_MAX_N}")
    s, w = _nodes_weights(p, n)
    qvals = np.array([eval_coefficient(q, float(t)) for t in s])
    u = np.log(s / p.t1)
    g = _green_xy(p, u[:, None], u[None, :])
    g *= (w * qvals)[None, :]
    return g


def min_eigenvalue_modulus(p: FracParams, n: int) -> NystromResult:
    """Estimate the smallest eigenvalue modulus of the q = 1 problem.

    The dominant eigenvalue of K is often a complex-conjugate pair, so the
    three largest-modulus eigenvalues come from ARPACK's implicitly restarted
    Arnoldi method.  Its start vector is fixed (ones, zero at both ends) so
    the result is reproducible and every Krylov vector keeps the boundary
    values.  Raises ConvergenceFailure if ARPACK does not converge.
    """
    # Imported here so that commands which never solve an eigenproblem do not
    # load numpy or scipy.
    import numpy as np
    from scipy.sparse.linalg import ArpackError, eigs

    if not (isinstance(n, int) and n >= 32):
        raise DomainInvalid(f"eigenvalue estimate needs integer n >= 32, got {n!r}")
    K = nystrom_matrix(p, Constant(1.0), n)
    v0 = np.ones(n)
    v0[0] = v0[-1] = 0.0
    try:
        mu, vecs = eigs(K, k=3, which="LM", v0=v0)
    except ArpackError as exc:
        raise ConvergenceFailure(f"ARPACK failed on the n={n} Nystrom matrix: {exc}") from exc
    i = int(np.argmax(np.abs(mu)))
    rho = float(np.abs(mu[i]))
    if rho <= 0.0:
        raise ConvergenceFailure("spectral radius estimate collapsed to zero")
    v = np.abs(vecs[:, i])
    residual = float(max(v[0], v[-1]) / np.max(v))
    lambda_min = 1.0 / rho
    bound = eigenvalue_bound(p)
    return NystromResult(
        n=n,
        dominant_mu=rho,
        lambda_min=lambda_min,
        analytic_bound=bound,
        satisfied=lambda_min >= bound,
        eigenvector_boundary_residual=residual,
    )


def residual_check(
    p: FracParams, q: Coefficient, x_samples, n: int
) -> float:
    """Sup-norm residual of x - Kx at the nodes for a candidate solution x.

    ``x_samples`` is a sequence of (t, value) pairs covering [t1, t2];
    values are interpolated linearly in ln t onto the Nystrom nodes.
    """
    import numpy as np

    pairs = sorted((float(t), float(v)) for t, v in x_samples)
    if not pairs:
        raise DomainInvalid("x_samples must be non-empty")
    ts = np.array([t for t, _ in pairs])
    vs = np.array([v for _, v in pairs])
    if ts[0] > p.t1 or ts[-1] < p.t2:
        raise DomainInvalid(
            f"samples cover [{ts[0]!r}, {ts[-1]!r}], need [{p.t1!r}, {p.t2!r}]"
        )
    K = nystrom_matrix(p, q, n)
    s, _ = _nodes_weights(p, n)
    x = np.interp(np.log(s), np.log(ts), vs)
    return float(np.max(np.abs(x - K @ x)))
