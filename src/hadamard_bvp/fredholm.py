"""Nystrom discretization of the equivalent integral equation.

The boundary value problem is equivalent to x = integral of G(t,s) q(s) x(s)
ds.  In u = ln(s/t1) the 1/s of G cancels the Jacobian ds = s du, and the
operator becomes (1/Gamma(sigma - kappa)) times

    (x/L)^a int_0^L (L - y)^b q v dy - int_0^x (x - y)^b q v dy,

with a = sigma - 1 and b = sigma - kappa - 1, read with L and
Gamma(sigma - kappa) from the ``FracParams`` properties that form them
(b as (sigma - 1) - kappa, L through log1p).  ``nystrom_matrix``
discretizes it on the product-integration core in ``operators``, with
order-8 panels of which about half grade toward u = 0, where the
eigenfunction behaves like u^a; neither the (x - y)^b kink on the diagonal
nor the (L - y)^b end singularity costs accuracy.  With q = 1 the
reciprocal of the spectral radius of K estimates the smallest eigenvalue
modulus of the associated eigenproblem, which the analytic bound must stay
below; at n = 128 it is within about 1e-9 relative of its converged value.

Boundary structure: the node set contains t1 and t2 explicitly with zero
quadrature weight.  G(t1, .) = 0 and G(., t2) contributes nothing, so row 0
and the last column of K vanish identically (the last row too, because its
two terms are the same product-integration row), and every Krylov vector
grown from a start vector that is zero at both ends satisfies the boundary
conditions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .bounds import eigenvalue_bound
from .coefficient import Coefficient, Constant, eval_coefficient
from .errors import ConvergenceFailure, DomainInvalid, ResourceLimit
from .operators import PANEL_ORDER, _graded_mesh, _Mesh, _product_weights
from .params import FracParams

if TYPE_CHECKING:
    import numpy as np

__all__ = ["NystromResult", "nystrom_matrix", "min_eigenvalue_modulus", "residual_check"]

MATRIX_MAX_N = 4000

# Width ratio of the geometric panels inside the first uniform panel.
_GRADING = 0.2


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


def _mesh(p: FracParams, n: int) -> _Mesh:
    """Order-8 Gauss panels, with any remainder in one lower-order panel.

    Uniform panels on [0, L], the first of them cut at ratio 0.2 toward
    u = 0, where the eigenfunction behaves like u^(sigma - 1), into about
    half of all panels.  The remainder panel is the innermost, which is so
    narrow that its order hardly matters; as the last panel, a one-node
    remainder would cost n = 403 a relative error of 2.6e-6 in lambda_min.
    """
    full, rem = divmod(n - 2, PANEL_ORDER)
    orders = ((rem,) if rem else ()) + (PANEL_ORDER,) * full
    return _graded_mesh(p.L, orders, len(orders) // 2, _GRADING)


def _nodes(p: FracParams, n: int) -> np.ndarray:
    """The n mesh nodes in t-space."""
    import numpy as np

    return p.t1 * np.exp(_mesh(p, n).u)


def nystrom_matrix(p: FracParams, q: Coefficient, n: int) -> np.ndarray:
    """Product-integration Nystrom matrix of the operator v -> int G q v ds.

    In x = ln(t/t1), y = ln(s/t1) and the notation of the module docstring,
    with R[i][j] = int_0^{x_i} (x_i - y)^b l_j(y) dy for the Lagrange basis
    l_j of node j on its panel (``operators._product_weights``) and S = R at
    x = L:

        K[i][j] = q(s_j) ((x_i/L)^a S[j] - R[i][j]) / Gamma(sigma - kappa).
    """
    import numpy as np

    if not (isinstance(n, int) and n >= 8):
        raise DomainInvalid(f"nystrom matrix needs integer n >= 8, got {n!r}")
    if n > MATRIX_MAX_N:
        raise ResourceLimit(f"nystrom matrix n={n} exceeds cap {MATRIX_MAX_N}")
    m = _mesh(p, n)
    qvals = np.array([eval_coefficient(q, float(t)) for t in p.t1 * np.exp(m.u)])
    r = _product_weights(m, p.b, np.arange(n))
    k = np.multiply.outer((m.u / p.L) ** p.a, r[-1])
    k -= r
    k *= qvals / p.gamma_sk
    return k


def min_eigenvalue_modulus(p: FracParams, n: int) -> NystromResult:
    """Estimate the smallest eigenvalue modulus of the q = 1 problem.

    The dominant eigenvalue of K is often a complex-conjugate pair, so the
    three largest-modulus eigenvalues come from ARPACK's implicitly restarted
    Arnoldi method.  Its start vector is fixed (ones, zero at both ends) so
    the result is reproducible and every Krylov vector keeps the boundary
    values.  Raises ConvergenceFailure if ARPACK does not converge, and
    ResultUnderflow, before any import or matrix work, if the analytic bound
    rounds to 0.
    """
    if not (isinstance(n, int) and n >= 32):
        raise DomainInvalid(f"eigenvalue estimate needs integer n >= 32, got {n!r}")
    bound = eigenvalue_bound(p)
    # Imported here so that commands which never solve an eigenproblem do not
    # load numpy or scipy.
    import numpy as np
    from scipy.sparse.linalg import ArpackError, eigs

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
    s = _nodes(p, n)
    x = np.interp(np.log(s), np.log(ts), vs)
    return float(np.max(np.abs(x - K @ x)))
