import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from hadamard_bvp import (
    Coefficient,
    Constant,
    ConvergenceFailure,
    DomainInvalid,
    EvalError,
    Expression,
    FracParams,
    OutOfTableRange,
    QuadratureFailure,
    ResourceLimit,
    Table,
    green_eval,
    min_eigenvalue_modulus,
    nystrom_matrix,
    parse_expr,
)
from hadamard_bvp import operators
from hadamard_bvp.cli import main
from hadamard_bvp.errors import NonFiniteResult, ResultUnderflow
from hadamard_bvp.fredholm import MATRIX_MAX_N, _mesh, _nodes
from hadamard_bvp.grid import _green_xy
from hadamard_bvp.selftest import EX_A, EX_A_REF, EX_B


def test_matrix_boundary_structure():
    K = nystrom_matrix(EX_A, Constant(1.0), 64)
    assert K.shape == (64, 64)
    # The kernel vanishes at t = t1 and t = t2, so both boundary rows are
    # identically zero; the boundary columns carry zero quadrature weight.
    assert np.all(K[0] == 0.0)
    assert np.all(K[-1] == 0.0)
    assert np.all(K[:, 0] == 0.0)
    assert np.all(K[:, -1] == 0.0)
    inner = K[1:-1, 1:-1]
    assert np.all(np.isfinite(inner))
    # For t <= s the kernel is positive at every pair of interior nodes.
    m = _mesh(EX_A, 64)
    u = m.u[1:-1]
    g = _green_xy(EX_A, u[:, None], u[None, :])
    assert np.all(g[np.triu_indices_from(g)] > 0.0)
    # Product weights on x_i's own panel are signed by construction, but on
    # every panel right of it K[i][j] = (x_i/L)^a S[j] q_j / Gamma > 0.
    panel = m.panel[1:-1]
    assert np.all(inner[panel[None, :] > panel[:, None]] > 0.0)
    # Below the diagonal the sign flips near the left edge, so the matrix
    # must not be wholly non-negative.
    assert float(inner.min()) < 0.0


def test_zero_coefficient_gives_zero_matrix():
    K = nystrom_matrix(EX_A, Constant(0.0), 32)
    assert np.all(K == 0.0)


def test_coefficient_scales_columns():
    K1 = nystrom_matrix(EX_A, Constant(1.0), 32)
    K3 = nystrom_matrix(EX_A, Constant(3.0), 32)
    assert np.allclose(K3, 3.0 * K1, rtol=1e-15, atol=0.0)
    Kq = nystrom_matrix(EX_A, Expression(parse_expr("ln(t)")), 32)
    s = _nodes(EX_A, _mesh(EX_A, 32))
    assert np.allclose(Kq, K1 * np.log(s)[None, :], rtol=1e-15, atol=0.0)


def test_rows_approximate_kernel_integrals():
    # Row i of K @ ones approximates the s-integral of G(t_i, s); compare
    # against an independent adaptive integrator that is told about the
    # diagonal kink.  The rows are the nodes nearest a quarter, half and
    # three quarters of the way across [0, L] in ln(t/t1).  Product weights
    # integrate q v = 1 exactly, so only the integrator's own error is left.
    for n in (200, 800):
        K = nystrom_matrix(EX_B, Constant(1.0), n)
        s = _nodes(EX_B, _mesh(EX_B, n))
        for frac in (0.25, 0.5, 0.75):
            i = int(np.argmin(np.abs(np.log(s) - frac * EX_B.L)))
            ti = float(s[i])
            ref, quad_err = quad(
                lambda t: green_eval(EX_B, ti, t), 1.0, math.e, points=[ti], limit=200
            )
            assert quad_err < 1e-8
            assert abs(float(K[i].sum()) - ref) <= 1e-8 * ref


@pytest.mark.parametrize(
    "p",
    [EX_B, FracParams(1.1, 0.095, 0.5, 3.0), FracParams(2.0, 0.02, 1.0, 1.02)],
    ids=["EX_B", "sigma-1.1", "narrow"],
)
def test_product_weights_integrate_polynomials_exactly(p):
    # n = 66 gives eight order-8 panels and no remainder panel, so q v = u^k
    # is interpolated exactly for k < 8 and K u^k is the exact operator:
    # int_0^x (x-y)^b y^k dy = B(b+1, k+1) x^(b+k+1).
    a, b = p.sigma - 1.0, p.sigma - p.kappa - 1.0
    u = _mesh(p, 66).u
    K = nystrom_matrix(p, Constant(1.0), 66)
    for k in range(8):
        beta = math.gamma(b + 1.0) * math.gamma(k + 1.0) / math.gamma(b + k + 2.0)
        exact = ((u / p.L) ** a * p.L ** (b + k + 1.0) - u ** (b + k + 1.0)) * beta
        exact /= math.gamma(p.sigma - p.kappa)
        assert np.max(np.abs(K @ u**k - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("p", [EX_A, EX_B], ids=["EX_A", "EX_B"])
def test_eigenvalue_estimate_matches_dense_solver(p):
    K = nystrom_matrix(p, Constant(1.0), 400)
    dense = 1.0 / float(np.max(np.abs(np.linalg.eigvals(K))))
    res = min_eigenvalue_modulus(p, 400)
    assert res.n == 400
    assert abs(res.lambda_min - dense) <= 1e-12 * dense
    assert abs(res.dominant_mu * res.lambda_min - 1.0) <= 1e-15


def test_reference_eigenvalue_estimate():
    res = min_eigenvalue_modulus(EX_A, 400)
    assert res.lambda_min >= EX_A_REF["eigen_bound"]
    assert res.analytic_bound == pytest.approx(EX_A_REF["eigen_bound"], rel=1e-12)
    assert res.satisfied is True
    # eigenvector_boundary_residual is the constant 0.0 because the boundary
    # rows and columns of K are exactly zero; check that on this case.
    K = nystrom_matrix(EX_A, Constant(1.0), 400)
    for edge in (K[0], K[-1], K[:, 0], K[:, -1]):
        assert np.all(edge == 0.0)


@pytest.mark.parametrize("sigma", [1.1, 1.5, 2.0])
@pytest.mark.parametrize("ratio", [0.02, 0.5, 0.95])
@pytest.mark.parametrize("L", [0.02, 1.0, 2.4])
def test_estimate_is_converged_at_128(sigma, ratio, L):
    # kappa/(sigma-1) near 0 and near 1, narrow and wide intervals.
    p = FracParams(sigma=sigma, kappa=ratio * (sigma - 1.0), t1=1.0, t2=math.exp(L))
    coarse = min_eigenvalue_modulus(p, 64).lambda_min
    fine = min_eigenvalue_modulus(p, 128).lambda_min
    assert abs(coarse - fine) <= 1e-5 * fine


def test_underflowing_bound_fails_before_assembly(monkeypatch, capsys):
    import hadamard_bvp.fredholm as fredholm

    def no_assembly(*args, **kwargs):
        raise AssertionError("nystrom_matrix called")

    monkeypatch.setattr(fredholm, "nystrom_matrix", no_assembly)
    p = FracParams(sigma=1.75, kappa=0.5, t1=1e-300, t2=2.7e-300)
    with pytest.raises(ResultUnderflow):
        min_eigenvalue_modulus(p, 2048)
    argv = ["eigen", "--sigma", "1.75", "--kappa", "0.5", "--t1", "1e-300", "--t2", "2.7e-300",
            "--n", "2048"]
    assert main(argv) == 3
    assert capsys.readouterr().out == ""


def test_zero_spectral_radius_is_convergence_failure(monkeypatch, capsys):
    import hadamard_bvp.fredholm as fredholm

    # A zero matrix breaks the Arnoldi loop down at once with the one Ritz
    # value 0; lambda_min = 1/0 must not be formed.
    monkeypatch.setattr(fredholm, "nystrom_matrix", lambda p, q, n: np.zeros((n, n)))
    with pytest.raises(ConvergenceFailure, match="collapsed to zero"):
        min_eigenvalue_modulus(EX_A, 64)
    argv = ["eigen", "--sigma", "1.75", "--kappa", "0.5", "--t1", "1", "--t2", "2", "--n", "64"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "collapsed to zero" in captured.err


def test_krylov_cap_is_convergence_failure(monkeypatch, capsys):
    import hadamard_bvp.fredholm as fredholm

    # Four Krylov vectors leave the dominant Ritz residual far above 1e-14.
    monkeypatch.setattr(fredholm, "KRYLOV_MAX", 4)
    with pytest.raises(ConvergenceFailure):
        min_eigenvalue_modulus(EX_A, 64)
    argv = ["eigen", "--sigma", "1.75", "--kappa", "0.5", "--t1", "1", "--t2", "2", "--n", "64"]
    assert main(argv) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("n", [64, 128, 400])
@pytest.mark.parametrize("sigma", [1.1, 1.5, 2.0])
@pytest.mark.parametrize("ratio", [0.02, 0.5, 0.95])
@pytest.mark.parametrize("L", [0.02, 1.0, 2.4])
def test_krylov_estimate_matches_dense_interior_block(sigma, ratio, L, n):
    p = FracParams(sigma=sigma, kappa=ratio * (sigma - 1.0), t1=1.0, t2=math.exp(L))
    K = nystrom_matrix(p, Constant(1.0), n)
    ev = np.linalg.eigvals(K[1:-1, 1:-1])
    dominant = ev[np.argmax(np.abs(ev))]
    # Away from kappa -> 0 the dominant eigenvalue is a complex-conjugate
    # pair, which the grid must exercise.
    assert (dominant.imag != 0.0) == (ratio >= 0.5)
    res = min_eigenvalue_modulus(p, n)
    assert abs(res.lambda_min - 1.0 / abs(dominant)) <= 1e-12 / abs(dominant)
    for edge in (K[0], K[-1], K[:, 0], K[:, -1]):
        assert np.all(edge == 0.0)


def test_nystrom_end_nodes_are_the_interval_ends():
    # t1 * exp(L) rounds one ulp above t2 here, outside the last knot.
    t1, t2 = 0.1338454561348894, 0.2247188756899498
    p = FracParams(sigma=1.75, kappa=0.5, t1=t1, t2=t2)
    knots = [(t1 + k * (t2 - t1) / 20, 1.0 + k / 20) for k in range(20)] + [(t2, 2.0)]
    K = nystrom_matrix(p, Table(points=tuple(knots)), 64)
    assert np.all(K[:, -1] == 0.0)
    s = _nodes(p, _mesh(p, 64))
    assert (s[0], s[-1]) == (t1, t2)


def test_estimate_stabilises_under_refinement():
    fine = min_eigenvalue_modulus(EX_A, 800).lambda_min
    assert abs(min_eigenvalue_modulus(EX_A, 400).lambda_min - fine) <= 1e-3 * fine
    vals = {n: min_eigenvalue_modulus(EX_B, n).lambda_min for n in (100, 200, 400)}
    assert abs(vals[200] - vals[400]) < abs(vals[100] - vals[200])


def test_sampled_narrow_intervals_satisfy_bound():
    # On intervals of width <= 1 the analytic threshold provably sits below
    # the smallest eigenvalue modulus; the discrete estimate should agree.
    rng = np.random.default_rng(7)
    for _ in range(5):
        sigma = float(rng.uniform(1.05, 2.0))
        kappa = float(rng.uniform(0.1, 0.9)) * (sigma - 1.0)
        t1 = float(rng.uniform(0.5, 1.2))
        width = float(rng.uniform(0.2, 1.0))
        p = FracParams(sigma=sigma, kappa=kappa, t1=t1, t2=t1 + width)
        res = min_eigenvalue_modulus(p, 200)
        assert res.lambda_min >= res.analytic_bound - 1e-9
        assert res.satisfied


@pytest.mark.parametrize("n", [33, 129, 257, 400])
def test_matrix_does_not_depend_on_block_size(monkeypatch, n):
    cases = [(EX_A, Constant(1.0)), (EX_B, Expression(parse_expr("1 + sin(3*t)")))]
    ref = [nystrom_matrix(p, q, n) for p, q in cases]
    for rows in (1, 7, 128, n, n + 1):
        monkeypatch.setattr(operators, "_BLOCK_ROWS", rows)
        for (p, q), k in zip(cases, ref):
            assert np.array_equal(nystrom_matrix(p, q, n), k)


def test_matrix_assembly_peak_memory():
    # One n x n array and one block of rows: at the cap n = 4000 about 128 MB.
    n = 1000
    tracemalloc.start()
    try:
        nystrom_matrix(EX_A, Constant(1.0), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n * n


def test_size_validation():
    with pytest.raises(DomainInvalid):
        nystrom_matrix(EX_A, Constant(1.0), 7)
    with pytest.raises(DomainInvalid):
        nystrom_matrix(EX_A, Constant(1.0), 64.0)
    with pytest.raises(ResourceLimit):
        nystrom_matrix(EX_A, Constant(1.0), MATRIX_MAX_N + 1)
    with pytest.raises(DomainInvalid):
        min_eigenvalue_modulus(EX_A, 16)
    with pytest.raises(ResourceLimit):
        min_eigenvalue_modulus(EX_A, MATRIX_MAX_N + 1)


def test_table_range_error_propagates():
    q = Table(points=((1.0, 1.0), (2.0, 1.0)))  # does not reach t2 = e
    with pytest.raises(OutOfTableRange):
        nystrom_matrix(EX_A, q, 32)


@pytest.mark.parametrize("n", [33, 64, 129, 400])
@pytest.mark.parametrize("p", [EX_A, EX_B], ids=["EX_A", "EX_B"])
def test_constant_coefficient_gives_one_matrix_in_every_form(p, n):
    # q is sampled at every node, whatever its form; a constant, a flat
    # table and a plain callable take the same value there.
    c = 1.7
    k = nystrom_matrix(p, Constant(c), n)
    assert np.array_equal(nystrom_matrix(p, Table(((p.t1, c), (p.t2, c))), n), k)
    assert np.array_equal(nystrom_matrix(p, lambda t: c, n), k)


@pytest.mark.parametrize(
    "p, q",
    [(EX_A, 1.7e308), (FracParams(1.75, 0.5, 1.0, 1e300), 1e308)],
    ids=["scale", "weights"],
)
def test_overflowing_matrix_is_a_non_finite_result(p, q):
    # q / Gamma(sigma - kappa) overflows at 1.7e308, and q times weights up
    # to about 195 at 1e308 on a wide interval; tier-1 turns any numpy
    # warning into an error.
    with pytest.raises(NonFiniteResult, match=r"^nystrom matrix n=32: q times the weights") as info:
        nystrom_matrix(p, lambda s: q, 32)
    assert info.value.exit_code == 3
    assert np.isfinite(nystrom_matrix(EX_A, lambda s: 1e308, 32)).all()


def test_non_finite_value_at_one_node_is_the_samplers_error():
    node = float(_nodes(EX_A, _mesh(EX_A, 64))[17])

    class Spike(Coefficient):
        def eval(self, t):
            return math.inf if t == node else 1.0

    message = f"coefficient evaluated to inf at t={node!r}$"
    with pytest.raises(EvalError, match=message):
        nystrom_matrix(EX_A, Spike(), 64)
    # A plain callable's non-finite value is a QuadratureFailure, as in the
    # operators.
    with pytest.raises(QuadratureFailure, match=message):
        nystrom_matrix(EX_A, lambda t: Spike().eval(t), 64)


# SHA-256 over the operators' reprs and the Nystrom matrix bytes, as
# computed before the product-integration weights were cached; any change
# to a bit of the core's output shows here.  The bits depend on the kernels
# numpy and OpenBLAS dispatch to, so the digest is recorded per dispatch key
# (the `dispatch_key` fixture); a machine whose key has none fails.
OPERATORS_SHA256 = {
    "power=X86_V4 exp=X86_V4 blas=SkylakeX":
        "ea08ae88e2e908bdc9a74472e280acce9595a20fb15f3c16e38cd8f9a8b31881",
    "power=X86_V4 exp=X86_V4 blas=Haswell":
        "32ea0153efa603d5d889f5237adf9a7706c78087520de7aeecb1d5106dbb9da6",
    "power=baseline(X86_V2) exp=X86_V3 blas=SkylakeX":
        "762bb99b379b2976e19cbea74c51161727ebd1f752834ba0c7bfd2dcb93115da",
    "power=baseline(X86_V2) exp=X86_V3 blas=Haswell":
        "1afc57c80c481eae666fb2ae521fc330fd2f4b03aa687c85d08203ab5288a4c7",
}


def test_operator_outputs_are_frozen(dispatch_key):
    from hadamard_bvp import composition_check, hadamard_derivative, hadamard_integral

    f = lambda s: s * math.cos(s) + math.log(s) ** 0.5
    values = [hadamard_integral(a, f, 1.0, 2.5) for a in (0.4, 1.0, 1.37, 2.5)]
    values += [hadamard_derivative(a, f, 1.0, 2.5) for a in (0.6, 1.5)]
    values += composition_check(0.5, 0.3, f, 1.0, 2.5)
    digest = hashlib.sha256(repr(values).encode())
    for p in (EX_A, EX_B):
        for n in (33, 64, 128):
            digest.update(nystrom_matrix(p, Constant(1.0), n).tobytes())
    got = digest.hexdigest()
    assert dispatch_key in OPERATORS_SHA256, f"no digest recorded for {dispatch_key}: {got}"
    assert got == OPERATORS_SHA256[dispatch_key]
