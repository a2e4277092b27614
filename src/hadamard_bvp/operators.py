"""Numerical Hadamard fractional integral and derivative.

All quadrature happens in u = ln(s/t1), where the integral of order ``a``
becomes the Riemann-Liouville integral (Kilbas, Srivastava & Trujillo,
Elsevier 2006, sec. 2.7)

    (1/Gamma(a)) * integral_0^U (U - u)^(a-1) f(t1 e^u) du,   U = ln(t/t1),

weakly singular at u = U for a < 1, and at u = 0 for log-power f.  One
product-integration core (Atkinson, The Numerical Solution of Integral
Equations of the Second Kind, CUP 1997, ch. 4) serves these integrals and
the Nystrom matrix in ``fredholm``: ``_graded_mesh`` puts Gauss-Legendre
panels on [0, U], uniform but for the first, which is cut geometrically
toward u = 0, and ``_product_weights`` gives R[i][j] = integral_0^{u_i}
(u_i - y)^b l_j(y) dy for the Lagrange basis l_j of node j's panel.  The
integral at t is R's last row for b = a - 1, dotted with f at the interior
nodes.  The mesh is ``PANELS`` = 64 panels of Gauss order ``PANEL_ORDER`` =
8, about half of them graded at ratio 0.25, but only as many graded panels
(and, below U of about 1e-12, panels) as keep the innermost node above about
3e-16, so that t1 * e^u stays strictly above t1 and f is never evaluated at
the singular endpoint itself.

Only R's row-dependent part is formed per call.  Cached, as read-only
arrays, are the mesh layout per tuple of panel orders (``_layout``), the
own-panel weights per (panel order, b) at every reference position a node
can take (``_own_rule``), the adjacent-panel rule per panel order and the
Gauss-Legendre rules, which are literals (``_GAUSS_LEGENDRE``) rather than
numpy calls; R is bit-identical to forming all of them afresh.

R comes in blocks of ``_BLOCK_ROWS`` = 128 rows, from the last rows to the
first, each in the same reused buffer.  The own- and adjacent-panel
weights of all requested rows are formed at once, and the far field per
block, so R's bits do not depend on the block size or order.  The Nystrom
matrix turns each block into its rows of its one n x n array, in one pass
that needs R's last row first, and ``composition_check`` reduces each block
as it comes: the peak memory is one n x n array plus one block of 128 rows,
128 MB at ``fredholm``'s cap n = 4000.

The smallest order these integrals take is about 1e-8 (``_kernel_exponent``):
below it the kernel exponent a - 1, a double, can be that of an order more
than 1e-8 relative away from a, and the result would be off by as much, so
such an order raises QuadratureFailure.  The derivative's inner order
n - a and its exponent n - a - 1 are exact, so of the derivatives only
order 1 - 2^-53 fails, where 2 + (n - a - 1) rounds to 1.

The derivative of order a in (0, 2] is computed as delta^n applied to the
(n - a)-order integral (n = ceil(a), delta = t d/dt), with the delta powers
realised as centred differences in x = ln t plus one Richardson step.

The interval rule is the one ``FracParams`` keeps, ``params.log_width``:
t1 <= t (t1 < t for the derivative), finite and positive, with t/t1 within
the float range, else DomainInvalid; so every node t1 e^u is a float.  At
integer order the derivative samples f itself at t1 e^(x0 + h), past t,
and that e^(x0 + h) must not overflow either.

f is a Coefficient or a plain callable, evaluated only through
``coefficient.sampler``, which decides whether a value is valid: a value
that is not a real number is an EvalError, and one that is not finite is an
EvalError from a Coefficient and a QuadratureFailure from a plain callable.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .coefficient import sampler
from .errors import DifferenceInstability, DomainInvalid, NonFiniteResult, QuadratureFailure
from .params import gamma, log_width, reciprocal_gamma

# Gauss-Legendre order of every product-integration panel, here and in the
# Nystrom matrix of ``fredholm``.
PANEL_ORDER = 8
# Panels of the operators' mesh on [0, U].
PANELS = 64
# Width ratio of the operators' geometric panels toward u = 0.
_GRADING = 0.25
# Rows of the product-integration weights formed at a time.
_BLOCK_ROWS = 128
# Largest u whose e^u is a float: math.exp overflows past it.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class OperatorKind(enum.Enum):
    Integral = "Integral"
    Derivative = "Derivative"


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: the caches below share them among calls."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


# The Gauss-Legendre rule (nodes, weights) of every panel order a mesh can
# have, written out as literals (equal, bit for bit, to
# ``numpy.polynomial.legendre.leggauss(order)``), so that no caller loads
# ``numpy.polynomial``: ``fredholm`` uses order ``PANEL_ORDER`` and, on one
# panel, any lower order.
_GAUSS_LEGENDRE = {
    1: (
        (0.0,),
        (2.0,),
    ),
    2: (
        (-0.5773502691896257, 0.5773502691896257),
        (1.0, 1.0),
    ),
    3: (
        (-0.7745966692414834, 0.0, 0.7745966692414834),
        (0.5555555555555557, 0.8888888888888888, 0.5555555555555557),
    ),
    4: (
        (-0.8611363115940526, -0.33998104358485626, 0.33998104358485626,
         0.8611363115940526),
        (0.34785484513745357, 0.6521451548625464, 0.6521451548625464,
         0.34785484513745357),
    ),
    5: (
        (-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831,
         0.906179845938664),
        (0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
         0.4786286704993663, 0.23692688505618928),
    ),
    6: (
        (-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
         0.2386191860831969, 0.6612093864662645, 0.9324695142031519),
        (0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
         0.46791393457269104, 0.3607615730481387, 0.17132449237917027),
    ),
    7: (
        (-0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
         0.4058451513773972, 0.7415311855993945, 0.9491079123427586),
        (0.12948496616886973, 0.27970539148927687, 0.3818300505051187,
         0.4179591836734693, 0.3818300505051187, 0.27970539148927687,
         0.12948496616886973),
    ),
    8: (
        (-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
         -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
         0.7966664774136267, 0.9602898564975362),
        (0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
         0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
         0.22238103445337443, 0.10122853629037706),
    ),
}


@lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-``order`` rule of ``_GAUSS_LEGENDRE`` as read-only arrays."""
    return _read_only(*map(np.array, _GAUSS_LEGENDRE[order]))


def _gauss_jacobi(order: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integral_{-1}^{1} (1+x)^beta phi(x) dx, beta > -1.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the Jacobi(0, beta) recurrence, and each weight is the total
    mass 2^(beta+1)/(beta+1) times the squared first component of its
    normalised eigenvector.  The recurrence divides by zero where 2 + beta
    rounds to 1; ``_kernel_exponent`` keeps the operators' orders away from
    that.
    """
    k = np.arange(1.0, order)
    s = 2.0 * k + beta
    diag = np.empty(order)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s * (s + 2.0))
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 ** (beta + 1.0) / (beta + 1.0) * vecs[0] ** 2


# Panels on [0, length] in u = ln(s/t1) and the nodes they carry.  ``u[0] = 0``
# and ``u[-1] = length`` are boundary nodes with zero weight ``w``; the
# interior nodes are the Gauss-Legendre nodes of the panels, in order.
# ``panel[i]`` is the panel of node i and ``ref[i]`` its coordinate in that
# panel's reference interval [-1, 1]; the boundary nodes count as the left
# end of the first panel and the right end of the last.  Panel k spans
# ``edges[k:k+2]``, has order ``orders[k]`` and starts at node ``first[k]``.
# (A plain namedtuple: a dataclass or typing.NamedTuple would add about 1-2
# ms to every command's start-up.)
_Mesh = namedtuple("_Mesh", "edges orders first u w panel ref")

# The rule for the panel left of a row's own panel halves its pieces toward
# the row; the last piece, 2 * 0.5^6 = 0.031 wide in that panel's reference
# interval [-1, 1], is narrower than the gap between it and the row: panels
# never shrink toward the right, so the gap is at least the first node of
# the row's panel, 0.0397 for order 8 and more for lower orders.
_ADJACENT_HALVINGS = 6


@lru_cache(maxsize=64)
def _layout(orders: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The length-independent part of a mesh: ``first``, ``ref``, ``panel``
    and the reference weights (``w`` of a panel of width 2)."""
    rules = [_gauss_legendre(order) for order in orders]
    ref = np.concatenate([[-1.0], *(x for x, _ in rules), [1.0]])
    wref = np.concatenate([[0.0], *(w for _, w in rules), [0.0]])
    panel = np.concatenate(([0], np.repeat(np.arange(len(orders)), orders), [len(orders) - 1]))
    return _read_only(np.cumsum((1,) + orders), ref, panel, wref)


def _graded_mesh(length: float, orders: tuple[int, ...], graded: int, ratio: float) -> _Mesh:
    """Gauss panels of the given orders, from u = 0 up, on [0, length].

    The panels not graded are uniform; the first of them is cut toward
    u = 0 at the given ratio into ``graded`` more.
    """
    uniform = np.linspace(0.0, length, len(orders) - graded + 1)
    cuts = uniform[1] * ratio ** np.arange(graded, 0, -1.0)
    edges = np.concatenate(([0.0], cuts, uniform[1:]))
    first, ref, panel, wref = _layout(orders)
    half = 0.5 * np.diff(edges)[panel]
    u = edges[panel] + half * (1.0 + ref)
    u[-1] = length
    return _Mesh(edges=edges, orders=orders, first=first, u=u, w=half * wref, panel=panel, ref=ref)


def _lagrange(nodes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Lagrange basis of ``nodes`` at ``pts``: shape pts.shape + (len(nodes),)."""
    eye = np.eye(len(nodes), dtype=bool)
    num = np.where(eye, 1.0, (pts[..., None] - nodes)[..., None, :]).prod(-1)
    return num / np.where(eye, 1.0, nodes[:, None] - nodes).prod(-1)


@lru_cache(maxsize=16)
def _adjacent_rule(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite Gauss rule on [-1, 1] graded toward +1, and the Lagrange
    basis of the order-``order`` Gauss panel at its nodes."""
    xg, wg = _gauss_legendre(order)
    cuts = np.append(1.0 - 2.0 * 0.5 ** np.arange(_ADJACENT_HALVINGS + 1.0), 1.0)
    half = 0.5 * np.diff(cuts)
    eta = (cuts[:-1] + half)[:, None] + half[:, None] * xg
    weights = half[:, None] * wg
    return _read_only(eta.ravel(), weights.ravel(), _lagrange(xg, eta.ravel()))


@lru_cache(maxsize=256)
def _own_rule(order: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Reference positions -1, the order-``order`` Gauss nodes and +1, and
    per position the own-panel weights of ``_product_weights`` up to the
    factor (panel width (1 + position) / 4)^(b + 1)."""
    zj, wj = _gauss_jacobi(order, b)
    xg, _ = _gauss_legendre(order)
    pos = np.concatenate(([-1.0], xg, [1.0]))
    return _read_only(pos, wj @ _lagrange(xg, -1.0 + 0.5 * (1.0 + pos)[:, None] * (1.0 - zj)))


def _near_weights(m: _Mesh, b: float, rows: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """The own- and adjacent-panel weights of ``_product_weights`` for all of
    ``rows`` at once: per panel order and kind, the positions in ``rows`` of
    the rows concerned, the first column of the panel each row's weights
    cover, and the weights, one row each."""
    ref, own = m.ref[rows], m.panel[rows]
    width = np.diff(m.edges)
    orders = np.array(m.orders)
    near = []
    for order in set(m.orders):
        # Own panel: y = u_i - (u_i - lo)(1 + z)/2, weight (1 + z)^b.
        # Rows sharing a reference position share their weights up to scale.
        sel = np.flatnonzero(orders[own] == order)
        pos, table = _own_rule(order, b)
        vals = table[np.searchsorted(pos, ref[sel])]
        vals *= ((0.25 * width[own[sel]] * (1.0 + ref[sel])) ** (b + 1.0))[:, None]
        near.append((sel, m.first[own[sel]], vals))

        # Adjacent panel Q = [lo, hi]: u_i - y = (hi - lo)/2 ((1 - eta) + delta).
        sel = np.flatnonzero((own > 0) & (orders[own - 1] == order))
        eta, wts, basis = _adjacent_rule(order)
        left = own[sel] - 1
        # Rows with the same delta, such as the same node of equal panels,
        # share their weights up to scale; one row has none to share.  The
        # product with ``basis`` takes all rows at once: BLAS may round a
        # one-row product differently.
        delta = width[own[sel]] / width[left] * (1.0 + ref[sel])
        inv = slice(None)
        if len(delta) > 1:
            delta, inv = np.unique(delta, return_inverse=True)
        vals = ((np.power((1.0 - eta) + delta[:, None], b) * wts) @ basis)[inv]
        vals *= ((0.5 * width[left]) ** (b + 1.0))[:, None]
        near.append((sel, m.first[left], vals))
    return near


def _product_weights(m: _Mesh, b: float, rows: np.ndarray):
    """R[i][j] = int_0^{u_i} (u_i - y)^b l_j(y) dy for the mesh nodes i in ``rows``.

    l_j is the Lagrange basis of node j on its panel.  R is the Gauss weight
    times (u_i - u_j)^b on the panels left of the one next to u_i's own, a
    rule graded toward u_i on that neighbour, and a Gauss-Jacobi rule on
    [panel start, u_i] on u_i's own panel.

    Yields (slice of ``rows``, block of R) for slices of ``_BLOCK_ROWS``
    rows, from the last rows to the first, so the first block ends with the
    last row.  Every block is rows of one buffer, which the next block
    overwrites.
    """
    near = _near_weights(m, b, rows)
    buf = np.empty((min(_BLOCK_ROWS, len(rows)), len(m.u)))
    for start in reversed(range(0, len(rows), _BLOCK_ROWS)):
        block = slice(start, start + _BLOCK_ROWS)
        # Gauss weight times (u_i - u_j)^b for u_j < u_i; the columns of each
        # row's own and adjacent panel are overwritten below.
        r = np.subtract(m.u[rows[block], None], m.u, out=buf[: len(rows[block])])
        np.maximum(r, 0.0, out=r)
        np.power(r, b, out=r, where=r > 0.0)
        r *= m.w
        for sel, first, vals in near:
            lo, hi = np.searchsorted(sel, (block.start, block.stop))
            cols = first[lo:hi, None] + np.arange(vals.shape[1])
            r[sel[lo:hi, None] - block.start, cols] = vals[lo:hi]
        yield block, r


def _config_mesh(length: float) -> _Mesh:
    """``PANELS`` panels on [0, length], with fewer graded panels (and on
    intervals below about 1e-12 fewer panels) where needed to keep the
    innermost node above about 3e-16."""
    xg, _ = _gauss_legendre(PANEL_ORDER)
    floor = 3e-16 / ((1.0 - float(xg[-1])) / 2.0)
    panels = max(1, int(min(PANELS, length / floor)))
    graded = panels // 2
    while graded and length / (panels - graded) * _GRADING**graded < floor:
        graded -= 1
    return _graded_mesh(length, (PANEL_ORDER,) * panels, graded, _GRADING)


def _eval_f(sample, t1: float, us: list[float]) -> list[float]:
    """f at t1 e^u for the ascending interior nodes ``us``, from f's ``sample``."""
    if t1 * math.exp(us[0]) == t1:
        raise QuadratureFailure(
            f"innermost node u={us[0]!r} rounds onto t1={t1!r}; the interval is too short"
        )
    return sample([t1 * math.exp(u) for u in us])


def _kernel_exponent(order: float) -> float:
    """The exponent b = order - 1 of the kernel (u - y)^b of an integral of
    the given order.

    The weights integrate the kernel of order b + 1, but the result divides
    by Gamma(order), so it is off by (order - (b + 1))/(b + 1), up to about
    1.1e-16/order: 3.6e-2 at order 2.3e-16, 8.3e-8 at 1e-11, 5e-9 at 1e-8.
    A miss of more than 1e-8 relative, or an order so small that 2 + b
    rounds to 1, is a QuadratureFailure.
    """
    b = order - 1.0
    if not (2.0 + b > 1.0 and abs((b + 1.0) - order) <= 1e-8 * order):
        raise QuadratureFailure(
            f"order {order!r} is too small to integrate: its kernel exponent {b!r} "
            f"is that of order {b + 1.0!r}"
        )
    return b


def _integral_at_end(m: _Mesh, order: float, values) -> float:
    """Integral of the given order over the whole mesh, up to u = ln(t/t1),
    of the function with ``values`` at the interior nodes."""
    scale = gamma(order)  # NonFiniteResult, before any weight, past order 171.6
    [(_, r)] = _product_weights(m, _kernel_exponent(order), np.array([len(m.u) - 1]))
    total = float(np.dot(r[0, 1:-1], values))
    if not math.isfinite(total):
        raise NonFiniteResult(
            f"integral of order {order!r} at u={float(m.u[-1])!r} is not finite"
        )
    return total / scale


def _integral(order: float, sample, t1: float, U: float) -> float:
    """The integral of order > 0 at u = U >= 0, from checked arguments."""
    if U == 0.0:
        return 0.0
    m = _config_mesh(U)
    return _integral_at_end(m, order, _eval_f(sample, t1, m.u[1:-1].tolist()))


def _log_span(t1: float, t: float) -> float:
    """ln(t/t1): 0.0 at t = t1, else `params.log_width`'s rule, t/t1 in the float range."""
    return 0.0 if 0.0 < t1 == t < math.inf else log_width(t1, t)


def hadamard_integral(order: float, f, t1: float, t: float) -> float:
    """Hadamard fractional integral of `f` of the given order, from t1 to t.

    Order 0 is the identity (returns f(t), checked like the values at the
    quadrature nodes).  For order > 0 the value is
    (1/Gamma(order)) * integral_{t1}^{t} (ln(t/s))^(order-1) f(s)/s ds,
    computed on ``PANELS`` order-8 panels (module docstring).
    """
    if not (math.isfinite(order) and order >= 0.0):
        raise DomainInvalid(f"integral order must be >= 0, got {order!r}")
    U = _log_span(t1, t)
    sample = sampler(f)
    if order == 0.0:
        return sample([t])[0]
    return _integral(order, sample, t1, U)


def hadamard_derivative(order: float, f, t1: float, t: float) -> float:
    """Hadamard fractional derivative of order in (0, 2] at an interior t.

    The stencil differences the (n - order)-order integral at u = x0 +- h
    directly, with x0 = ln(t/t1), so no stencil point goes through t-space
    and back.  t1 < t must satisfy `params.log_width`'s rule, and at integer
    order, where f itself is sampled at t1 e^(x0 + h), e^(x0 + h) must not
    overflow either (DomainInvalid).  Raises DifferenceInstability when the
    Richardson error estimate of the centred difference exceeds 1% of the
    result scale, which signals that quadrature noise dominates the stencil.
    """
    if not (math.isfinite(order) and 0.0 < order <= 2.0):
        raise DomainInvalid(f"derivative order must lie in (0, 2], got {order!r}")
    x0 = log_width(t1, t)
    h = 1e-4 * x0
    n = math.ceil(order)
    inner = n - order
    if inner == 0.0 and x0 + h > _LOG_FLOAT_MAX:  # f is sampled at t1 e^(x0 + h)
        raise DomainInvalid(f"the stencil point u={x0 + h!r} past t={t!r} overflows t1*e^u")
    sample = sampler(f)

    def G(x: float) -> float:
        if inner == 0.0:
            return sample([t1 * math.exp(x)])[0]
        return _integral(inner, sample, t1, x)

    g0 = G(x0) if n == 2 else None  # shared by both second differences

    def delta_n(step: float) -> float:
        if n == 1:
            return (G(x0 + step) - G(x0 - step)) / (2.0 * step)
        return (G(x0 + step) - 2.0 * g0 + G(x0 - step)) / (step * step)

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
    X = _log_span(t1, t)
    if op is OperatorKind.Integral:
        coef = gamma(exponent_kappa) * reciprocal_gamma(exponent_kappa + order)
        power = exponent_kappa + order - 1.0
    else:
        coef = gamma(exponent_kappa) * reciprocal_gamma(exponent_kappa - order)
        power = exponent_kappa - order - 1.0
    if coef == 0.0:
        return 0.0
    if X == 0.0 and power < 0.0:
        raise DomainInvalid("negative log-power at t = t1 is unbounded")
    return coef * X**power


def composition_check(sigma: float, kappa: float, f, t1: float, t: float) -> tuple[float, float]:
    """Return (I^sigma (I^kappa f)(t), I^(sigma+kappa) f(t)) for comparison.

    The two components agree up to quadrature error when the semigroup
    property holds; callers assert closeness.
    """
    if not (math.isfinite(sigma) and sigma > 0.0 and math.isfinite(kappa) and kappa > 0.0):
        raise DomainInvalid(f"orders must be > 0, got sigma={sigma!r}, kappa={kappa!r}")
    U = _log_span(t1, t)
    sample = sampler(f)
    if U == 0.0:
        return 0.0, 0.0
    m = _config_mesh(U)
    interior = np.arange(1, len(m.u) - 1)
    fv = np.array(_eval_f(sample, t1, m.u[interior].tolist()))
    # I^kappa f at every interior node: all rows of R for b = kappa - 1.
    scale = gamma(kappa)  # NonFiniteResult, before any weight, past order 171.6
    inner = np.empty(len(interior))
    for block, r in _product_weights(m, _kernel_exponent(kappa), interior):
        inner[block] = r[:, 1:-1] @ fv
    inner /= scale
    nested = _integral_at_end(m, sigma, inner)
    direct = _integral_at_end(m, sigma + kappa, fv)
    return nested, direct
