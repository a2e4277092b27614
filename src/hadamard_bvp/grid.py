"""Array evaluation of the Green's function and the brute-force max|G|.

The closed forms of ``kernel`` are scalar; this module holds the numerics
that need arrays: ``_green_xy``, G on log-coordinate arrays, and
``green_max_bruteforce``, which recomputes max|G| by direct search so that
the closed forms are testable against an independent route.  The package
loads it on first use, and of the ``hbvp`` commands only ``selftest`` does:
``hbvp green grid`` writes its CSV with the operations of ``_green_xy`` on
floats (``cli._write_grid``).

The grid is searched by one branch and bound over the tiles of the whole
square, which evaluates only the tiles whose bound beats the best value so
far.  Geometric points L/(n - 1) 2^-k, k = 1..60, on both axes catch a
left-edge maximum inside the first grid cell; one closer to s = t1 than the
last of them is not resolved.  A zoom of vectorised 33 x 33 grids, each an
eighth of the width of the last, then refines the best grid point to float
spacing.  The tiles and the zoom take every value of |G| from
``_green_xy``.
"""

from __future__ import annotations

import math

import numpy as np

from .params import FracParams, check_size

__all__ = ["green_max_bruteforce"]

# Largest accepted grid size for the brute-force search.  Branch and bound
# usually evaluates about one percent of the grid; when nothing prunes, it
# touches all of about n^2 kernel values, so this caps work at ~17M.
BRUTEFORCE_MAX_N = 4096

# Edge of the square tiles that the brute-force search bounds and
# evaluates as a unit.
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


def _green_xy(p: FracParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorised G on log-coordinate arrays (broadcasting, signed, not 0-d).

    Computes (x^a (L - y)^b / L^a - max(x - y, 0)^b) / (s Gamma(sigma - kappa))
    in two result-sized buffers; the power of x - y runs only below the
    diagonal, where it is nonzero.  The brute-force search evaluates its
    tiles and its zoom through it; ``cli._write_grid`` repeats these
    operations, in this order, on floats.
    """
    scale = p.t1 * np.exp(y) * p.gamma_sk
    g = np.power(x, p.a) * np.power(np.maximum(p.L - y, 0.0), p.b)
    g /= p.L**p.a
    d = x - y
    np.maximum(d, 0.0, out=d)
    np.power(d, p.b, out=d, where=d > 0.0)
    g -= d
    g /= scale
    return g


def _tile_bounds(p: FracParams, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tiles (I, J) of the square and their bounds on |G|.

    Tile (I, J) holds rows I*_TILE.. (x = z_i) and columns J*_TILE.. (y =
    z_j).  With A_i = (z_i/L)^a, D_j = (L - z_j)^b and w_j = e^(-z_j),

        |G_ij| t1 Gamma(sigma - kappa) = w_j |A_i D_j - max(z_i - z_j, 0)^b|.

    A tile's bound comes from the extremes of A, D, w and z over its rows
    and columns, as computed rather than from their monotony, and carries a
    margin for the rounding of the products and powers, so no value of
    ``_green_xy`` in the tile exceeds it.  Above the diagonal the power is
    0 and the bound is w A D (1 + margin), which the tile's corner cell
    attains.
    """
    w = np.exp(-z)
    A = np.power(z, p.a) / p.L**p.a
    D = np.power(np.maximum(p.L - z, 0.0), p.b)
    starts = np.arange(0, z.size, _TILE)
    hi, lo = np.maximum.reduceat, np.minimum.reduceat
    I, J = (k.ravel() for k in np.indices((starts.size, starts.size)))
    ad_hi = hi(A, starts)[I] * hi(D, starts)[J]
    ad_lo = lo(A, starts)[I] * lo(D, starts)[J]
    p_hi = np.power(np.maximum(hi(z, starts)[I] - lo(z, starts)[J], 0.0), p.b)
    p_lo = np.power(np.maximum(lo(z, starts)[I] - hi(z, starts)[J], 0.0), p.b)
    bound = hi(w, starts)[J] * (
        np.maximum(ad_hi - p_lo, p_hi - ad_lo) + _BOUND_MARGIN * np.maximum(ad_hi, p_hi)
    )
    bound /= p.t1 * p.gamma_sk
    return I, J, bound


def _grid_search(p: FracParams, z: np.ndarray) -> tuple[float, tuple[int, int]]:
    """max|G| over the grid ``z`` squared (z ascending), and its cell (i, j).

    Row i is x = z_i, column j is y = z_j.  A branch and bound evaluates the
    tiles of ``_tile_bounds`` through ``_green_xy`` in descending bound
    order, from best = 0 at cell (0, 0), until a bound no longer beats the
    best value; it returns the largest computed value of the grid.
    """
    I, J, bound = _tile_bounds(p, z)
    best, cell = 0.0, (0, 0)
    for k in np.argsort(-bound, kind="stable").tolist():
        if not bound[k] > best:
            break
        r0, c0 = int(I[k]) * _TILE, int(J[k]) * _TILE
        g = np.abs(_green_xy(p, z[r0 : r0 + _TILE, None], z[None, c0 : c0 + _TILE]))
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
    grid (``_grid_search``) is exact: one branch and bound over the tiles
    of the square, each through ``_green_xy``, returns the largest computed
    grid value while evaluating only the tiles that could hold it.  The
    zoom then evaluates |G| on a 33 x 33 grid over +-span around the best
    point, clipped to the square, starting from span = 2L/(n - 1); it moves
    to that grid's best point when it beats the best value so far and
    divides span by 8.  It stops once span falls below the float spacing of
    the point, or after ``_ZOOM_ROUNDS`` rounds.

    Returns ``(value, (t, s))``.  Raises ResourceLimit for n above
    ``BRUTEFORCE_MAX_N`` and DomainInvalid for n < 16 or an n that is not
    an int.
    """
    check_size("bruteforce grid", n, 16, BRUTEFORCE_MAX_N)

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
