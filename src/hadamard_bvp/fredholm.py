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
The matrix is assembled in place in one pass over blocks of 128 rows of the
product-integration weights, taken from the last rows to the first in one
reused buffer, so it needs one n x n array plus one block of 128 rows:
128 MB at the cap ``MATRIX_MAX_N`` = 4000.  q is sampled at the nodes through
``coefficient.sampler``, which decides whether its values are valid, as it
does for the operators: q is a Coefficient or a plain callable.  Each block
is checked as it is formed, so finite values of q whose entries of K
overflow raise NonFiniteResult, and no returned K holds an inf or a nan.

Boundary structure: the node set contains t1 and t2 explicitly with zero
quadrature weight.  G(t1, .) = 0 and G(., t2) contributes nothing, so row 0
and the last column of K vanish identically (the last row too, because its
two terms are the same product-integration row).  So the spectrum of K is
that of its interior block K[1:-1, 1:-1] together with two zeros, and the
eigenvalue estimate works on that block alone, with numpy: an Arnoldi
projection onto a small Krylov space, whose Hessenberg matrix is then solved
densely.

Like ``grid`` and ``operators``, this module imports numpy when it loads,
and the package loads it only on first use of one of its names.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .bounds import eigenvalue_bound, lambda_nonexistence_check
from .coefficient import Constant, sampler
from .errors import ConvergenceFailure, NonFiniteResult
from .operators import PANEL_ORDER, _graded_mesh, _Mesh, _product_weights
from .params import FracParams, VerdictKind, check_size

MATRIX_MAX_N = 4000

# Largest Krylov basis of the eigenvalue estimate; 16 or 24 vectors were
# enough on every one of 300 random parameter sets with n from 32 to 1024.
KRYLOV_MAX = 128
# The Ritz values are formed every _RITZ_EVERY vectors, and the dominant one
# is accepted once its residual is at most _RITZ_TOL times its modulus.
_RITZ_EVERY = 8
_RITZ_TOL = 1e-14

# Width ratio of the geometric panels inside the first uniform panel.
_GRADING = 0.2


class NystromResult(
    namedtuple(
        "NystromResult",
        "n dominant_mu lambda_min analytic_bound satisfied eigenvector_boundary_residual",
    )
):
    """Spectral summary of the q = 1 Nystrom matrix.

    ``dominant_mu`` is the spectral radius (modulus of the dominant
    eigenvalue or conjugate pair, the dominant Ritz value of an Arnoldi
    projection); ``lambda_min = 1/dominant_mu`` estimates the smallest
    eigenvalue modulus of the continuous problem.
    ``eigenvector_boundary_residual`` is the constant 0.0.  It would be
    max(|v(t1)|, |v(t2)|) / max|v| for v = K x, x the dominant eigenvector,
    and the zero first and last rows of K make that exactly 0.0, so it is
    not computed.  The field stays because the JSON schema of ``hbvp eigen``
    carries it and the benchmark in ``bench/`` reads it.
    """

    __slots__ = ()


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


def _nodes(p: FracParams, m: _Mesh) -> np.ndarray:
    """The mesh nodes in t-space.

    The end nodes are t1 and t2 exactly: t1 * exp(L) can round an ulp above
    t2, outside a table whose last knot is t2.
    """
    t = p.t1 * np.exp(m.u)
    t[0], t[-1] = p.t1, p.t2
    return t


def nystrom_matrix(p: FracParams, q, n: int) -> np.ndarray:
    """Product-integration Nystrom matrix of the operator v -> int G q v ds.

    In x = ln(t/t1), y = ln(s/t1) and the notation of the module docstring,
    with R[i][j] = int_0^{x_i} (x_i - y)^b l_j(y) dy for the Lagrange basis
    l_j of node j on its panel (``operators._product_weights``) and S = R at
    x = L:

        K[i][j] = q(s_j) ((x_i/L)^a S[j] - R[i][j]) / Gamma(sigma - kappa).

    q is a Coefficient or a plain callable, sampled at every node through
    ``coefficient.sampler``, which decides whether its values are valid.
    Finite values whose entries of K overflow (q near the float maximum)
    raise NonFiniteResult: no entry of a returned K is inf or nan.
    K is built in one pass over the blocks of R, which come from the last
    rows to the first in one buffer: the first block ends with S, and each
    block's rows of K are formed in place as it arrives, outer(a, S) first,
    then minus the block, then times the scale.
    """
    check_size("nystrom matrix", n, 8, MATRIX_MAX_N)
    m = _mesh(p, n)
    q_values = np.array(sampler(q)(_nodes(p, m).tolist()))
    a = (m.u / p.L) ** p.a
    k = np.empty((n, n))
    s = None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is checked per block
        scale = q_values / p.gamma_sk
        for block, r in _product_weights(m, p.b, np.arange(n)):
            if s is None:  # the first block ends with row n - 1: S = R at x = L
                s = r[-1].copy()
            rows = np.multiply.outer(a[block], s, out=k[block])
            rows -= r
            rows *= scale
            if not np.isfinite(rows).all():
                raise NonFiniteResult(f"nystrom matrix n={n}: q times the weights overflows")
    return k


def min_eigenvalue_modulus(p: FracParams, n: int) -> NystromResult:
    """Estimate the smallest eigenvalue modulus of the q = 1 problem.

    The boundary rows and columns of K vanish, so its spectral radius is that
    of the interior block B = K[1:-1, 1:-1].  The dominant eigenvalue of B is
    often a complex-conjugate pair, so it comes from an Arnoldi projection
    (Saad, *Numerical Methods for Large Eigenvalue Problems*, ch. 6): a
    Krylov basis grown from a fixed vector of ones, orthogonalised by
    classical Gram-Schmidt with one reorthogonalisation pass, and the Ritz
    values from ``np.linalg.eig`` of the small Hessenberg matrix H.  The
    basis grows in place until the dominant Ritz pair's residual
    |h_{m+1,m} y_m| is at most ``_RITZ_TOL`` times its modulus, or is exact
    (a breakdown, or a basis that spans B).  Raises ConvergenceFailure when
    ``KRYLOV_MAX`` vectors do not reach that, and ResultUnderflow, before
    assembly, if the analytic bound rounds to 0; DomainInvalid or
    ResourceLimit come first, for an n outside 32 to ``MATRIX_MAX_N``.
    ``satisfied`` is the verdict of ``bounds.lambda_nonexistence_check`` on
    lambda_min: the bound holds when that verdict is Inconclusive.  The estimate stops at
    lambda_min; ``eigenvector_boundary_residual`` is returned as the constant
    0.0 that the zero boundary rows of K guarantee.
    """
    check_size("eigenvalue estimate", n, 32, MATRIX_MAX_N)
    eigenvalue_bound(p)  # ResultUnderflow before the assembly
    B = nystrom_matrix(p, Constant(1.0), n)[1:-1, 1:-1]
    dim = n - 2
    cap = min(KRYLOV_MAX, dim)
    V = np.empty((cap + 1, dim))
    H = np.zeros((cap + 1, cap))
    V[0] = 1.0 / math.sqrt(dim)
    for j in range(cap):
        w = B @ V[j]
        for _ in range(2):
            c = V[: j + 1] @ w
            H[: j + 1, j] += c
            w -= c @ V[: j + 1]
        h = math.sqrt(w @ w)
        H[j + 1, j] = h
        m = j + 1
        if h == 0.0 or m == cap or m % _RITZ_EVERY == 0:
            theta, Y = np.linalg.eig(H[:m, :m])
            i = int(np.argmax(np.abs(theta)))
            rho = float(abs(theta[i]))
            if h == 0.0 or m == dim or h * abs(Y[m - 1, i]) <= _RITZ_TOL * rho:
                break
        V[m] = w / h
    else:
        raise ConvergenceFailure(
            f"Arnoldi did not converge within {cap} Krylov vectors on the n={n} Nystrom matrix"
        )
    if rho <= 0.0:
        raise ConvergenceFailure("spectral radius estimate collapsed to zero")
    lambda_min = 1.0 / rho
    verdict = lambda_nonexistence_check(p, lambda_min)
    return NystromResult(
        n=n,
        dominant_mu=rho,
        lambda_min=lambda_min,
        analytic_bound=verdict.bound,
        satisfied=verdict.kind is VerdictKind.Inconclusive,
        eigenvector_boundary_residual=0.0,
    )

