"""Nystrom discretization of the equivalent integral equation.

The boundary value problem is equivalent to x = integral of G(t,s) q(s) x(s)
ds.  In u = ln(s/t1) the 1/s of G cancels the Jacobian ds = s du, and the
operator becomes (1/Gamma(sigma - kappa)) times

    (x/L)^a int_0^L (L - y)^b q v dy - int_0^x (x - y)^b q v dy,

with a = sigma - 1 and b = sigma - kappa - 1.  ``nystrom_matrix``
discretizes it by product integration (Atkinson, The Numerical Solution of
Integral Equations of the Second Kind, CUP 1997, ch. 4): q v is
interpolated on order-8 Gauss-Legendre panels and the weights integrate
(x - y)^b against each Lagrange basis function, so neither the (x - y)^b
kink on the diagonal nor the (L - y)^b end singularity costs accuracy.
About half of the panels grade geometrically toward u = 0, where the
eigenfunction behaves like u^a.  With q = 1 the reciprocal of the spectral
radius of K estimates the smallest eigenvalue modulus of the associated
eigenproblem, which the analytic bound must stay below; at n = 128 it is
within about 1e-9 relative of its converged value.

Boundary structure: the node set contains t1 and t2 explicitly with zero
quadrature weight.  G(t1, .) = 0 and G(., t2) contributes nothing, so row 0
and the last column of K vanish identically (the last row too, because its
two terms are the same product-integration row), and every Krylov vector
grown from a start vector that is zero at both ends satisfies the boundary
conditions exactly.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .bounds import eigenvalue_bound
from .coefficient import Coefficient, Constant, eval_coefficient
from .errors import ConvergenceFailure, DomainInvalid, ResourceLimit
from .gammafn import gamma
from .operators import _gauss_jacobi, _gauss_legendre
from .params import FracParams

if TYPE_CHECKING:
    import numpy as np

__all__ = ["NystromResult", "nystrom_matrix", "min_eigenvalue_modulus", "residual_check"]

MATRIX_MAX_N = 4000

# Gauss-Legendre order of the panels that carry the interior nodes.
_PANEL_ORDER = 8
# Width ratio of the geometric panels inside the first uniform panel.
_GRADING = 0.2
# The rule for the panel left of a row's own panel halves its pieces toward
# the row; the last piece, 2 * 0.5^6 = 0.031 wide in that panel's reference
# interval [-1, 1], is narrower than the gap between it and the row, which
# is at least 0.0397 on every mesh (the first node of an order-8 panel next
# to one as wide).
_ADJACENT_HALVINGS = 6


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


# Panels on [0, L] in u = ln(s/t1) and the n nodes they carry.  ``u[0] = 0``
# and ``u[-1] = L`` are the boundary nodes with zero weight ``w``; the
# interior nodes are the Gauss-Legendre nodes of the panels, in order.
# ``panel[i]`` is the panel of node i and ``ref[i]`` its coordinate in that
# panel's reference interval [-1, 1]; the boundary nodes count as the left
# end of the first panel and the right end of the last.  Panel k spans
# ``edges[k:k+2]``, has order ``orders[k]`` and starts at node ``first[k]``.
# (A plain namedtuple: a dataclass or typing.NamedTuple would add about 1-2
# ms to every command's start-up.)
_Mesh = namedtuple("_Mesh", "edges orders first u w panel ref")


def _mesh(p: FracParams, n: int) -> _Mesh:
    """Order-8 Gauss panels, with any remainder in one lower-order panel.

    Uniform panels on [0, L], the first of them cut at ratio 0.2 toward
    u = 0, where the eigenfunction behaves like u^(sigma - 1), into about
    half of all panels.  The remainder panel is the innermost, which is so
    narrow that its order hardly matters; as the last panel, a one-node
    remainder would cost n = 403 a relative error of 2.6e-6 in lambda_min.
    """
    import numpy as np

    full, rem = divmod(n - 2, _PANEL_ORDER)
    orders = ((rem,) if rem else ()) + (_PANEL_ORDER,) * full
    graded = len(orders) // 2
    uniform = np.linspace(0.0, p.L, len(orders) - graded + 1)
    cuts = uniform[1] * _GRADING ** np.arange(graded, 0, -1.0)
    edges = np.concatenate(([0.0], cuts, uniform[1:]))
    first = np.cumsum((1,) + orders)
    rules = [_gauss_legendre(order) for order in orders]
    ref = np.concatenate([[-1.0], *(x for x, _ in rules), [1.0]])
    wref = np.concatenate([[0.0], *(w for _, w in rules), [0.0]])
    panel = np.concatenate(([0], np.repeat(np.arange(len(orders)), orders), [len(orders) - 1]))
    half = 0.5 * np.diff(edges)[panel]
    u = edges[panel] + half * (1.0 + ref)
    u[-1] = p.L
    return _Mesh(edges=edges, orders=orders, first=first, u=u, w=half * wref, panel=panel, ref=ref)


def _nodes(p: FracParams, n: int) -> np.ndarray:
    """The n mesh nodes in t-space."""
    import numpy as np

    return p.t1 * np.exp(_mesh(p, n).u)


def _lagrange(nodes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Lagrange basis of ``nodes`` at ``pts``: shape pts.shape + (len(nodes),)."""
    import numpy as np

    diff = pts[..., None] - nodes
    out = np.empty(diff.shape)
    for j in range(len(nodes)):
        others = np.arange(len(nodes)) != j
        out[..., j] = np.prod(diff[..., others], axis=-1) / np.prod(nodes[j] - nodes[others])
    return out


@lru_cache(maxsize=16)
def _adjacent_rule(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite Gauss rule on [-1, 1] graded toward +1, and the Lagrange
    basis of the order-``order`` Gauss panel at its nodes."""
    import numpy as np

    xg, wg = _gauss_legendre(order)
    cuts = np.append(1.0 - 2.0 * 0.5 ** np.arange(_ADJACENT_HALVINGS + 1.0), 1.0)
    half = 0.5 * np.diff(cuts)
    eta = (cuts[:-1] + half)[:, None] + half[:, None] * xg
    weights = half[:, None] * wg
    return eta.ravel(), weights.ravel(), _lagrange(xg, eta.ravel())


def nystrom_matrix(p: FracParams, q: Coefficient, n: int) -> np.ndarray:
    """Product-integration Nystrom matrix of the operator v -> int G q v ds.

    In x = ln(t/t1), y = ln(s/t1) the 1/s of G cancels ds = s dy, so the
    operator is (1/Gamma(sigma - kappa)) [(x/L)^a int_0^L (L-y)^b q v dy
    - int_0^x (x-y)^b q v dy] with a = sigma - 1, b = sigma - kappa - 1.
    With l_j the Lagrange basis of node j on its panel and
    R[i][j] = int_0^{x_i} (x_i - y)^b l_j(y) dy, S = R at x = L:

        K[i][j] = q(s_j) ((x_i/L)^a S[j] - R[i][j]) / Gamma(sigma - kappa).

    R is the Gauss weight times (x_i - y_j)^b on the panels left of the one
    next to x_i's own, a rule graded toward x_i on that neighbour, and a
    Gauss-Jacobi rule on [panel start, x_i] on x_i's own panel.
    """
    import numpy as np

    if not (isinstance(n, int) and n >= 8):
        raise DomainInvalid(f"nystrom matrix needs integer n >= 8, got {n!r}")
    if n > MATRIX_MAX_N:
        raise ResourceLimit(f"nystrom matrix n={n} exceeds cap {MATRIX_MAX_N}")
    m = _mesh(p, n)
    qvals = np.array([eval_coefficient(q, float(t)) for t in p.t1 * np.exp(m.u)])
    a = p.sigma - 1.0
    b = p.sigma - p.kappa - 1.0
    u, panel, ref = m.u, m.panel, m.ref
    width = np.diff(m.edges)
    orders = np.array(m.orders)

    # Gauss weight times (x_i - y_j)^b for y_j < x_i; the columns of each
    # row's own and adjacent panel are overwritten below.
    r = u[:, None] - u[None, :]
    np.maximum(r, 0.0, out=r)
    np.power(r, b, out=r, where=r > 0.0)
    r *= m.w

    # Own panel: y = x_i - (x_i - lo)(1 + z)/2, weight (1 + z)^b.
    for order in set(m.orders):
        rows = np.flatnonzero(orders[panel] == order)
        zj, wj = _gauss_jacobi(order, b)
        xg, _ = _gauss_legendre(order)
        # Rows sharing a reference position share their weights up to scale.
        pos, inv = np.unique(ref[rows], return_inverse=True)
        vals = (wj @ _lagrange(xg, -1.0 + 0.5 * (1.0 + pos)[:, None] * (1.0 - zj)))[inv]
        vals *= ((0.25 * width[panel[rows]] * (1.0 + ref[rows])) ** (b + 1.0))[:, None]
        r[rows[:, None], m.first[panel[rows]][:, None] + np.arange(order)] = vals

    # Adjacent panel Q = [lo, hi]: x_i - y = (hi - lo)/2 ((1 - eta) + delta).
    for order in set(m.orders):
        rows = np.flatnonzero((panel > 0) & (orders[panel - 1] == order))
        eta, wts, basis = _adjacent_rule(order)
        left = panel[rows] - 1
        delta = width[panel[rows]] / width[left] * (1.0 + ref[rows])
        vals = (np.power((1.0 - eta) + delta[:, None], b) * wts) @ basis
        vals *= ((0.5 * width[left]) ** (b + 1.0))[:, None]
        r[rows[:, None], m.first[left][:, None] + np.arange(order)] = vals

    k = np.multiply.outer((u / p.L) ** a, r[-1])
    k -= r
    k *= qvals / gamma(p.sigma - p.kappa)
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
