"""Green's function kernel: closed forms against independent references.

The frozen numbers (shared with the embedded selftest) were produced by a
50-digit evaluation of the closed forms; the brute-force comparisons are an independent route through direct
grid search.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hadamard_bvp import (
    ConvergenceFailure,
    DomainInvalid,
    ResourceLimit,
    critical_x2,
    diag_h,
    discriminant,
    green_eval,
    green_max,
    green_max_bruteforce,
    mho,
    omega,
    t_hat,
    t_star,
    validate,
    xi1,
    xi2,
    zeta,
)
from hadamard_bvp import grid, kernel
from hadamard_bvp.cli import main
from hadamard_bvp.grid import _green_xy
from hadamard_bvp.selftest import EX_A_REF, random_params

EX_A = validate(1.75, 0.5, 1.0, math.e)
EX_B = validate(1.5, 0.25, 1.0, math.e)
# Bench defect 5: kappa near sigma - 1 puts the left-edge maximum at x = 8.5e-5 L.
DEFECT_5 = validate(1.2251193390645163, 0.18564107820557843, 0.22859266985750926, 0.6437148677146808)


def test_green_point_values():
    r = math.sqrt(math.e)
    assert abs(green_eval(EX_A, r, r) - EX_A_REF["diag_value"]) <= 1e-12
    # Boundary zeros: G(t1, s) = 0 and G(t, t2) = 0.
    for s in (1.0, 1.5, math.e):
        assert green_eval(EX_A, 1.0, s) == 0.0
    for t in (1.0, 2.0, math.e):
        assert green_eval(EX_A, t, math.e) == 0.0
    assert xi2(EX_A, math.e, 1.0) == 0.0


def test_xi2_left_edge_matches_zeta():
    th = t_hat(EX_A)
    assert abs(xi2(EX_A, th, 1.0) + EX_A_REF["mho"]) <= 1e-12
    assert abs(zeta(EX_A, th) - mho(EX_A)) <= 1e-12


def test_domain_errors():
    with pytest.raises(DomainInvalid):
        green_eval(EX_A, 0.5, 1.5)
    with pytest.raises(DomainInvalid):
        green_eval(EX_A, 1.5, 3.5)
    with pytest.raises(DomainInvalid):
        xi1(EX_A, 2.0, 1.5)  # needs t <= s
    with pytest.raises(DomainInvalid):
        xi2(EX_A, 1.5, 2.0)  # needs s <= t


def test_discriminant_two_forms_agree():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = random_params(rng)
        a = p.sigma - 1.0
        form1 = discriminant(p)
        form2 = (p.L - p.kappa) ** 2 + 4.0 * a * a - 4.0 * a * p.kappa
        assert abs(form1 - form2) <= 1e-12 * max(abs(form1), 1.0)
        assert form1 > 0.0


def test_critical_root_location():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = random_params(rng)
        x2 = critical_x2(p)
        assert 0.0 < x2 < p.L
        # Vieta: both root identities hold to near machine precision.
        bc = p.L + 2.0 * (p.sigma - 1.0) - p.kappa
        x1 = (p.sigma - 1.0) * p.L / x2
        assert abs(x1 + x2 - bc) <= 1e-12 * bc
        assert x1 > p.L


def test_stationarity_of_t_star_and_t_hat():
    # Centred differences in x = ln t vanish at the analytic maximisers.
    for p in (EX_A, EX_B):
        delta = 1e-5 * p.L
        xs = math.log(t_star(p) / p.t1)
        slope = (
            diag_h(p, p.t1 * math.exp(xs + delta))
            - diag_h(p, p.t1 * math.exp(xs - delta))
        ) / (2.0 * delta)
        assert abs(slope) <= 1e-6 * diag_h(p, t_star(p)) / p.L
        xh = math.log(t_hat(p) / p.t1)
        slope_h = (
            zeta(p, p.t1 * math.exp(xh + delta))
            - zeta(p, p.t1 * math.exp(xh - delta))
        ) / (2.0 * delta)
        assert abs(slope_h) <= 1e-6 * zeta(p, t_hat(p))


def test_omega_mho_consistency_with_profiles():
    for p in (EX_A, EX_B):
        assert abs(omega(p) - diag_h(p, t_star(p)) / p.L ** (p.sigma - 1.0)) <= 1e-14
        assert abs(mho(p) - zeta(p, t_hat(p))) <= 1e-14


def test_diagonal_continuity_and_sign_structure():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = random_params(rng)
        for frac in rng.uniform(0.001, 0.999, 50):
            t = p.t1 * math.exp(p.L * frac)
            assert abs(xi1(p, t, t) - xi2(p, t, t)) <= 1e-12
            assert xi1(p, t, t) >= 0.0
            assert xi2(p, t, p.t1) <= 0.0


def test_monotonicity_in_s():
    rng = np.random.default_rng(14)
    for _ in range(20):
        p = random_params(rng)
        frac = rng.uniform(0.05, 0.95)
        t = p.t1 * math.exp(p.L * frac)
        up = np.sort(p.t1 * np.exp(p.L * rng.uniform(frac, 1.0, 25)))
        vals = [xi1(p, t, s) for s in up]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        down = np.sort(p.t1 * np.exp(p.L * rng.uniform(0.0, frac, 25)))
        vals2 = [xi2(p, t, s) for s in down]
        assert all(b >= a - 1e-12 for a, b in zip(vals2, vals2[1:]))


def test_bruteforce_matches_closed_form():
    rng = np.random.default_rng(15)
    for _ in range(10):
        p = random_params(rng)
        closed = green_max(p).max_abs_g
        brute, (t_at, s_at) = green_max_bruteforce(p, 400)
        assert abs(brute - closed) <= 1e-12 * closed
        assert brute <= closed * (1.0 + 1e-14)
        # The argmax lives on the diagonal or on the left edge s = t1.
        x = math.log(t_at / p.t1)
        y = math.log(s_at / p.t1)
        cell = 4.0 * p.L / 399
        assert min(abs(x - y), y) <= cell


def test_bruteforce_stable_in_n():
    vals = [green_max_bruteforce(EX_B, n)[0] for n in (64, 128, 256)]
    for a, b in zip(vals, vals[1:]):
        assert abs(a - b) <= 1e-9 * max(vals)
    closed = green_max(EX_B).max_abs_g
    assert max(vals) <= closed * (1.0 + 1e-12)


def test_bruteforce_limits():
    for n in (8, 100.0, "100"):
        with pytest.raises(DomainInvalid, match="integer n >= 16"):
            green_max_bruteforce(EX_A, n)
    with pytest.raises(ResourceLimit):
        green_max_bruteforce(EX_A, 100000)


def test_bruteforce_resolves_edge_maximum_inside_first_cell():
    # kappa near sigma - 1: the left-edge maximum sits at x = 8.5e-5 L,
    # inside the first of 1999 cells, where a uniform grid misses it by 1.5%.
    p = DEFECT_5
    closed = green_max(p).max_abs_g
    brute, (t_at, s_at) = green_max_bruteforce(p, 2000)
    assert abs(brute - closed) <= 1e-9 * closed
    assert s_at == p.t1
    assert math.log(t_at / p.t1) < p.L / 1999


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    sigma=st.floats(1.02, 2.0),
    e=st.floats(0.0, 3.0, exclude_min=True),
    L=st.floats(0.01, 3.0),
)
def test_bruteforce_meets_closed_form_near_kappa_edge(sigma, e, L):
    # r = kappa/(sigma - 1) = 1 - 10^-e crowds toward 1, where the left-edge
    # maximum x = (1 - r)^(1/kappa) L moves toward s = t1.
    a = sigma - 1.0
    kappa = (1.0 - 10.0**-e) * a
    assume(0.0 < kappa < a)
    p = validate(sigma, kappa, 1.0, math.exp(L))
    assume(((a - kappa) / a) ** (1.0 / kappa) * p.L >= p.L / 127 * 2.0**-60)
    closed = green_max(p).max_abs_g
    brute, _ = green_max_bruteforce(p, 128)
    assert abs(brute - closed) <= 1e-12 * closed
    assert brute <= closed * (1.0 + 1e-14)


@pytest.mark.parametrize("n", [16, 128, 2000])
@pytest.mark.parametrize("which", ["EX_B", "defect-5", "left-edge"])
def test_bruteforce_zoom_stops_before_round_cap(which, n, monkeypatch):
    # Each zoom round makes one _green_xy call; the zoom must stop on the
    # float spacing of its point, not on the cap, for a diagonal maximum,
    # one at x = 8.5e-5 L and one at x = 0.2 L, both on s = t1.
    p = {"EX_B": EX_B, "defect-5": DEFECT_5, "left-edge": validate(1.9, 0.5, 1.0, math.e)}[which]
    calls = []

    def counting(*args):
        calls.append(None)
        return _green_xy(*args)

    monkeypatch.setattr(grid, "_green_xy", counting)
    brute, (_, s_at) = green_max_bruteforce(p, n)
    assert 0 < len(calls) < grid._ZOOM_ROUNDS
    assert (s_at == p.t1) is (which != "EX_B")
    assert abs(brute - green_max(p).max_abs_g) <= 1e-12 * brute


def _merged_axis(p, n):
    # The brute-force grid: 0, the graded points L/(n-1) 2^-k (k = 60..1),
    # then the uniform points.
    h = p.L / (n - 1)
    return np.concatenate(([0.0], h * 2.0 ** -np.arange(60.0, 0.0, -1.0), np.linspace(0.0, p.L, n)[1:]))


def _direct_sweep(p, z):
    # Every cell of the grid through _green_xy, no structure used.
    vals = np.abs(_green_xy(p, z[:, None], z[None, :]))
    k = int(np.argmax(vals))
    return float(vals.flat[k]), divmod(k, z.size)


@pytest.mark.parametrize("n", [16, 17, 300, 2000])
@pytest.mark.parametrize("which", ["EX_A", "EX_B", "kappa-edge", "defect-5"])
def test_uniform_sweep_matches_direct_sweep(which, n):
    # The branch-and-bound search over the merged grid against every cell.
    p = {"EX_A": EX_A, "EX_B": EX_B, "kappa-edge": validate(1.3, 0.29, 0.5, 1.5),
         "defect-5": DEFECT_5}[which]
    z = _merged_axis(p, n)
    value, cell = grid._grid_search(p, z)
    ref_value, ref_cell = _direct_sweep(p, z)
    assert cell == ref_cell
    assert abs(value - ref_value) <= 1e-14 * ref_value


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    sigma=st.floats(1.02, 2.0),
    e=st.floats(0.0, 6.0, exclude_min=True),
    L=st.floats(1e-3, 3.0),
    n=st.integers(16, 300),
)
def test_lower_max_pruning_is_exact(sigma, e, L, n):
    # r = kappa/(sigma - 1) = 1 - 10^-e runs from the middle of its range to
    # the kappa -> sigma - 1 edge.  No tile's bound may fall below a value in
    # the tile, and the search, started from best = 0 so that it prunes only
    # against values found below the diagonal, must find the exhaustive max.
    a = sigma - 1.0
    kappa = (1.0 - 10.0**-e) * a
    assume(0.0 < kappa < a)
    p = validate(sigma, kappa, 1.0, math.exp(L))
    b = sigma - kappa - 1.0
    z = _merged_axis(p, n)
    w = np.exp(-z)
    A = np.power(z, a) / p.L**a
    D = np.power(np.maximum(p.L - z, 0.0), b)
    value, (i, j) = grid._lower_max(z, A, D, w, b, 0.0, None)
    # The same cell expression on every cell below the diagonal, unpruned.
    below = np.tri(z.size, k=-1, dtype=bool)
    d = np.where(below, z[:, None] - z[None, :], 0.0)
    g = np.abs(A[:, None] * D[None, :] - np.power(d, b)) * w[None, :]
    g[~below] = 0.0
    ref = float(g.max())
    tiles = -(-z.size // grid._TILE)
    padded = np.zeros((tiles * grid._TILE,) * 2)
    padded[: z.size, : z.size] = g
    tile_max = padded.reshape(tiles, grid._TILE, tiles, grid._TILE).max(axis=(1, 3))
    I, J, bound = grid._tile_bounds(z, A, D, w, b)
    assert np.all(tile_max[I, J] <= bound)
    assert i > j
    assert abs(value - ref) <= 1e-15 * ref


@pytest.mark.parametrize("n", [16, 64, 2000])
def test_bruteforce_memory_is_small(n):
    tracemalloc.start()
    try:
        green_max_bruteforce(EX_B, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _green_xy_reference(p, x, y):
    # The out-of-place expression _green_xy replaced; it must agree bit for bit.
    s = p.t1 * np.exp(y)
    upper = np.power(x, p.a) * np.power(np.maximum(p.L - y, 0.0), p.b) / p.L**p.a
    lower = np.power(np.maximum(x - y, 0.0), p.b)
    return (upper - lower) / (s * p.gamma_sk)


@pytest.mark.parametrize("shape", ["square", "grid-row", "single"])
def test_green_xy_is_bit_identical_to_reference(shape):
    rng = np.random.default_rng(16)
    for p in (EX_A, EX_B, *(random_params(rng) for _ in range(8))):
        u = np.linspace(0.0, p.L, 301)
        if shape == "square":  # includes the diagonal x == y
            x, y = u[:, None], u[None, :]
        elif shape == "grid-row":  # how `green grid` evaluates one row
            x, y = np.full(u.size, u[117]), u
        else:
            x, y = u[200:201, None], u[None, 57:58]
        got = _green_xy(p, x, y)
        assert got.shape == np.broadcast_shapes(x.shape, y.shape)
        assert np.array_equal(got, _green_xy_reference(p, x, y))


def test_critical_x2_rejects_non_positive_discriminant(monkeypatch):
    monkeypatch.setattr(kernel, "discriminant", lambda p: 0.0)
    with pytest.raises(ConvergenceFailure, match="discriminant"):
        critical_x2(EX_A)


def test_critical_x2_rejects_roots_out_of_place(monkeypatch, capsys):
    # With a vanishing square root the larger root of EX_A is 0.5 * 2.0 = L,
    # not beyond the domain as the invariant requires.
    monkeypatch.setattr(kernel, "discriminant", lambda p: 1e-300)
    with pytest.raises(ConvergenceFailure, match="do not bracket"):
        critical_x2(EX_A)
    argv = ["bound", "--sigma", "1.75", "--kappa", "0.5", "--t1", "1",
            "--t2", "2.718281828459045", "--json"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "do not bracket" in captured.err
