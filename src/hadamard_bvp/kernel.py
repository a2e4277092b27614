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
together with the branch that wins; ``green_max_bruteforce`` recomputes the
maximum by direct search so the closed forms are testable against an
independent route.  Its search of the grid uses the kernel's structure:
above the diagonal G is rank one in (x, y), and below it a branch and bound
over tiles evaluates only those whose bound beats the best value so far.
Geometric points L/(n - 1) 2^-k, k = 1..60, on both axes catch a left-edge
maximum inside the first grid cell; one closer to s = t1 than the last of
them is not resolved.  A zoom of vectorised 33 x 33 grids, each an eighth of
the width of the last, then refines the best grid point to float spacing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConvergenceFailure, DomainInvalid, ResourceLimit
from .params import FracParams, log_ratio

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GreenMaxReport",
    "MaxBranch",
    "xi1",
    "xi2",
    "green_eval",
    "diag_h",
    "zeta",
    "discriminant",
    "critical_x2",
    "t_star",
    "t_hat",
    "omega",
    "mho",
    "green_max",
    "green_max_bruteforce",
]

# Largest accepted grid size for the brute-force search.  Branch and bound
# usually evaluates a few percent of the grid; when nothing prunes, it
# touches all of about n^2/2 kernel values, so this caps work at ~8M.
BRUTEFORCE_MAX_N = 4096

# Edge of the square tiles below the diagonal that the brute-force search
# bounds and evaluates as a unit.
_TILE = 64

# Relative slack on a tile's bound, as a share of its largest term: covers
# the rounding of the products and of pow, which is not correctly rounded.
_BOUND_MARGIN = 1e-12

# Number of geometric points L/(n-1) 2^-k added to both brute-force axes.
_GRADED_POINTS = 60

# The zoom that refines the grid's best point: points per axis, the factor
# by which the window shrinks each round, and a cap on the rounds.  For
# every n >= 16, 24 rounds take span = 2L/(n - 1) below the float spacing
# of any point beyond 1e-7 L; nearer the corner the cap stops the zoom with
# span below 1e-22 L.
_ZOOM_POINTS = 33
_ZOOM_SHRINK = 8.0
_ZOOM_ROUNDS = 24


class MaxBranch(enum.Enum):
    Diagonal = "Diagonal"
    LeftEdge = "LeftEdge"


@dataclass(frozen=True)
class GreenMaxReport:
    """Closed-form maximum analysis of |G| over [t1, t2]^2.

    ``max_abs_g = max(omega, mho) / gamma(sigma - kappa)``; ``branch`` names
    the winning candidate, with ties resolved to ``Diagonal``.
    """

    delta: float
    x2: float
    t_star: float
    t_hat: float
    omega: float
    mho: float
    max_abs_g: float
    branch: MaxBranch


def _log_coord(p: FracParams, t: float, name: str) -> float:
    if not (p.t1 <= t <= p.t2):
        raise DomainInvalid(f"{name}={t!r} outside [{p.t1!r}, {p.t2!r}]")
    # Clamp away one-ulp excursions from the log; the t-space check above is
    # the authoritative one.
    return min(max(log_ratio(t, p.t1), 0.0), p.L)


def _xi(p: FracParams, t: float, s: float, below: bool) -> float:
    """Xi at (t, s); ``below`` selects Xi2 (s <= t)."""
    x, y = _log_coord(p, t, "t"), _log_coord(p, s, "s")
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
    branch = xi1(p, t, s) if t <= s else xi2(p, t, s)
    return branch / p.gamma_sk


def diag_h(p: FracParams, t: float) -> float:
    """Diagonal profile h(t) = x^a (L - x)^b / t for t in [t1, t2]."""
    x = _log_coord(p, t, "t")
    return x**p.a * max(p.L - x, 0.0) ** p.b / t


def zeta(p: FracParams, t: float) -> float:
    """Left-edge profile |Xi2(t, t1)| = x^b (1 - (x/L)^kappa) / t1."""
    x = _log_coord(p, t, "t")
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


def _green_xy(p: FracParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorised G on log-coordinate arrays (broadcasting, signed, not 0-d).

    Computes (x^a (L - y)^b / L^a - max(x - y, 0)^b) / (s Gamma(sigma - kappa))
    in two result-sized buffers; the power of x - y runs only below the
    diagonal, where it is nonzero.
    """
    import numpy as np

    scale = p.t1 * np.exp(y) * p.gamma_sk
    g = np.power(x, p.a) * np.power(np.maximum(p.L - y, 0.0), p.b)
    g /= p.L**p.a
    d = x - y
    np.maximum(d, 0.0, out=d)
    np.power(d, p.b, out=d, where=d > 0.0)
    g -= d
    g /= scale
    return g


def _grid_search(p: FracParams, z: np.ndarray) -> tuple[float, tuple[int, int]]:
    """max|G| over the grid ``z`` squared (z ascending), and its cell (i, j).

    Row i is x = ln(t/t1), column j is y = ln(s/t1).  With A_i = (z_i/L)^a,
    D_j = (L - z_j)^b and w_j = e^(-z_j),

        |G_ij| t1 Gamma(sigma - kappa) = w_j |A_i D_j - [i > j] (z_i - z_j)^b|.

    On and above the diagonal this is rank one and nonnegative, so row i
    peaks at A_i times the suffix maximum of C = D w; below it the search is
    ``_lower_max``.  The positive factor 1/(t1 Gamma(sigma - kappa)) scales
    only the winner.
    """
    import numpy as np

    w = np.exp(-z)
    A = np.power(z, p.a) / p.L**p.a
    D = np.power(np.maximum(p.L - z, 0.0), p.b)
    C = D * w

    suffix = np.maximum.accumulate(C[::-1])[::-1]
    i = int(np.argmax(A * suffix))
    j = i + int(np.argmax(C[i:]))
    best, cell = _lower_max(z, A, D, w, p.b, float(A[i] * C[j]), (i, j))
    return best / (p.t1 * p.gamma_sk), cell


def _tile_bounds(
    z: np.ndarray, A: np.ndarray, D: np.ndarray, w: np.ndarray, b: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tiles (I, J), J <= I, of the strict lower triangle and their bounds.

    Tile (I, J) holds rows I*_TILE.. and columns J*_TILE.. .  Its bound on
    w_j |A_i D_j - (z_i - z_j)^b| comes from the extremes of A, D, w and z
    over its rows and columns, as computed rather than from their monotony,
    and carries a margin for the rounding of the products and powers, so no
    computed value in the tile exceeds it.
    """
    import numpy as np

    starts = np.arange(0, z.size, _TILE)
    hi, lo = np.maximum.reduceat, np.minimum.reduceat
    I, J = np.tril_indices(starts.size)
    ad_hi = hi(A, starts)[I] * hi(D, starts)[J]
    ad_lo = lo(A, starts)[I] * lo(D, starts)[J]
    p_hi = np.power(hi(z, starts)[I] - lo(z, starts)[J], b)
    # Diagonal tiles reach a zero difference.
    p_lo = np.power(np.maximum(lo(z, starts)[I] - hi(z, starts)[J], 0.0), b)
    bound = hi(w, starts)[J] * (
        np.maximum(ad_hi - p_lo, p_hi - ad_lo) + _BOUND_MARGIN * np.maximum(ad_hi, p_hi)
    )
    return I, J, bound


def _lower_max(
    z: np.ndarray, A: np.ndarray, D: np.ndarray, w: np.ndarray, b: float,
    best: float, cell: tuple[int, int] | None,
) -> tuple[float, tuple[int, int] | None]:
    """Branch and bound for w_j |A_i D_j - (z_i - z_j)^b| over i > j.

    Returns the largest value above ``best`` with its cell, or ``(best,
    cell)`` when no cell beats it.  Tiles (``_tile_bounds``) are evaluated
    in descending bound order until a bound no longer beats the best value.
    """
    import numpy as np

    I, J, bound = _tile_bounds(z, A, D, w, b)
    strict_upper = ~np.tri(_TILE, k=-1, dtype=bool)
    for k in np.argsort(-bound, kind="stable").tolist():
        if not bound[k] > best:
            break
        r0, c0 = int(I[k]) * _TILE, int(J[k]) * _TILE
        rows, cols = slice(r0, r0 + _TILE), slice(c0, c0 + _TILE)
        d = z[rows, None] - z[None, cols]
        if r0 == c0:
            np.maximum(d, 0.0, out=d)
        np.power(d, b, out=d)
        g = A[rows, None] * D[None, cols]
        g -= d
        g *= w[cols]
        np.abs(g, out=g)
        if r0 == c0:
            # Cells on and above the diagonal are not part of this search.
            g[strict_upper[: g.shape[0], : g.shape[1]]] = 0.0
        m = int(np.argmax(g))
        if g.flat[m] > best:
            best, cell = float(g.flat[m]), (r0 + m // g.shape[1], c0 + m % g.shape[1])
    return best, cell


def green_max_bruteforce(p: FracParams, n: int) -> tuple[float, tuple[float, float]]:
    """Grid search for max|G| over the square, refined by a zoom.

    The grid in log coordinates is ``linspace(0, L, n)`` on both axes plus
    the geometric points L/(n - 1) 2^-k, k = 1..60, merged into one sorted
    axis of n + 60 points.  The graded points catch a left-edge maximum at
    x = (b/a)^(1/kappa) L that lies inside the first uniform cell when kappa
    is close to sigma - 1; one below L/(n - 1) 2^-60 is not resolved, and
    the result can then be well below ``green_max``.  The search over the
    grid (``_grid_search``) is exact: a suffix maximum above the diagonal
    and branch and bound over tiles below it (``_lower_max``) return the
    largest computed grid value while evaluating only the tiles that could
    hold it.  The zoom then evaluates |G| on a 33 x 33 grid over +-span
    around the best point, clipped to the square, starting from span =
    2L/(n - 1); it moves to that grid's best point when it beats the best
    value so far and divides span by 8.  It stops once span falls below the
    float spacing of the point, or after ``_ZOOM_ROUNDS`` rounds.

    Returns ``(value, (t, s))``.  Raises ResourceLimit for n above
    ``BRUTEFORCE_MAX_N`` and DomainInvalid for n < 16 or an n that is not
    an int.
    """
    import numpy as np

    if not (isinstance(n, int) and n >= 16):
        raise DomainInvalid(f"bruteforce grid needs integer n >= 16, got {n!r}")
    if n > BRUTEFORCE_MAX_N:
        raise ResourceLimit(f"bruteforce grid n={n} exceeds cap {BRUTEFORCE_MAX_N}")

    L = p.L
    h = L / (n - 1)
    graded = h * 2.0 ** -np.arange(float(_GRADED_POINTS), 0.0, -1.0)
    z = np.concatenate(([0.0], graded, np.linspace(0.0, L, n)[1:]))
    best_val, (i, j) = _grid_search(p, z)
    x0, y0 = float(z[i]), float(z[j])

    # Zoom: |G| on a _ZOOM_POINTS^2 grid over +-span around the best point,
    # clipped to the square; the window shrinks by _ZOOM_SHRINK a round, so
    # the next one spans two steps of this one either side of its best cell.
    offsets = np.linspace(-1.0, 1.0, _ZOOM_POINTS)
    span = 2.0 * h
    for _ in range(_ZOOM_ROUNDS):
        if span < math.ulp(max(x0, y0)):
            break
        xs = np.minimum(np.maximum(x0 + span * offsets, 0.0), L)
        ys = np.minimum(np.maximum(y0 + span * offsets, 0.0), L)
        g = np.abs(_green_xy(p, xs[:, None], ys[None, :]))
        k = int(np.argmax(g))
        if g.flat[k] > best_val:
            best_val = float(g.flat[k])
            x0, y0 = float(xs[k // _ZOOM_POINTS]), float(ys[k % _ZOOM_POINTS])
        span /= _ZOOM_SHRINK

    return best_val, (p.t1 * math.exp(x0), p.t1 * math.exp(y0))
