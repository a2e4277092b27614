import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hadamard_bvp import (
    Constant,
    DifferenceInstability,
    DomainInvalid,
    EvalError,
    OperatorKind,
    QuadratureFailure,
    composition_check,
    hadamard_derivative,
    hadamard_integral,
    integrate_abs_q,
    power_rule_reference,
)
from hadamard_bvp import operators
from hadamard_bvp.bounds import _scan_grid
from hadamard_bvp.errors import NonFiniteResult
from hadamard_bvp.operators import (
    PANEL_ORDER,
    PANELS,
    _adjacent_rule,
    _gauss_jacobi,
    _gauss_legendre,
    _layout,
    _own_rule,
)
from hadamard_bvp.params import log_ratio
from hadamard_bvp.selftest import SEED

# Closed-form anchor values (power rule evaluated at double precision).
I_HALF_SQRTLOG_AT_2 = 0.61428569471388805  # order 1/2 integral of (ln s)^(1/2) at t=2
D_QUARTER_LOG12_AT_2 = 0.79380669177872275  # order 1/4 derivative of (ln t)^1.2 at t=2


@pytest.mark.parametrize("beta", [-0.9, -0.5, 0.25, 0.9])
def test_gauss_jacobi_matches_reference_rules(beta):
    # Nodes against scipy; weights against a 30-digit mpmath rule, since
    # roots_jacobi's own weights are off by up to 1.2e-12 relative here.
    import mpmath
    from scipy.special import roots_jacobi

    for order in range(2, 17):
        x, w = _gauss_jacobi(order, beta)
        assert np.max(np.abs(x - roots_jacobi(order, 0.0, beta)[0])) <= 1e-14
        with mpmath.workdps(30):
            X, W = mpmath.gauss_quadrature(order, "jacobi", 0, mpmath.mpf(beta))
            x_ref = np.array([float(v) for v in X])
            w_ref = np.array([float(v) for v in W])
        assert np.max(np.abs(x - x_ref)) <= 1e-14
        assert np.max(np.abs(w - w_ref)) <= 1e-14 * w_ref.sum()


def test_order_zero_is_identity():
    f = lambda s: 3.0 * s + 1.0
    assert hadamard_integral(0.0, f, 1.0, 2.5) == f(2.5)
    assert hadamard_integral(0.0, f, 2.0, 2.0) == f(2.0)


def test_empty_interval_integrates_to_zero():
    assert hadamard_integral(0.7, lambda s: 1.0, 2.0, 2.0) == 0.0
    assert composition_check(0.5, 0.3, lambda s: 1.0, 2.0, 2.0) == (0.0, 0.0)


def test_order_one_matches_log_antiderivative():
    got = hadamard_integral(1.0, lambda s: 1.0, 1.0, 2.0)
    assert abs(got - math.log(2.0)) <= 1e-12
    got = hadamard_integral(1.0, lambda s: math.log(s), 1.0, 3.0)
    assert abs(got - 0.5 * math.log(3.0) ** 2) <= 1e-12


def test_frozen_fractional_values():
    ref = power_rule_reference(OperatorKind.Integral, 0.5, 1.5, 1.0, 2.0)
    assert abs(ref - I_HALF_SQRTLOG_AT_2) <= 1e-15 * ref
    got = hadamard_integral(0.5, lambda s: math.sqrt(math.log(s)), 1.0, 2.0)
    assert abs(got - I_HALF_SQRTLOG_AT_2) <= 1e-7

    ref = power_rule_reference(OperatorKind.Derivative, 0.25, 2.2, 1.0, 2.0)
    assert abs(ref - D_QUARTER_LOG12_AT_2) <= 1e-15 * ref
    got = hadamard_derivative(0.25, lambda s: math.log(s) ** 1.2, 1.0, 2.0)
    assert abs(got - D_QUARTER_LOG12_AT_2) <= 1e-5


def test_derivative_power_rule_sweep():
    # The difference-of-integral derivative needs a smooth integrand to hit
    # 1e-6; singular log-powers are exercised through the integral sweep and
    # the selftest check operators.inversion instead.
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        order = float(rng.uniform(0.05, 1.95))
        p = float(rng.uniform(0.5, 2.0))
        t = math.sqrt(math.e) if rng.random() < 0.5 else math.e

        def f(s, p=p):
            return math.log(s) ** p

        ref = power_rule_reference(OperatorKind.Derivative, order, 1.0 + p, 1.0, t)
        assert abs(hadamard_derivative(order, f, 1.0, t) - ref) <= 1e-6


def test_second_difference_stencil_stays_in_log_coordinates():
    # For order > 1 the stencil is a second difference with step 1e-4 ln(t/t1),
    # which amplifies any re-rounding of its points; evaluated directly in u
    # the median relative error over this sweep is 5.0e-8 (through t1 e^x
    # and back, 1.9e-7) and the 90th percentile 4.3e-7 (1.2e-6).
    errors = []
    sweep = itertools.product((1.1, 1.3, 1.5, 1.7, 1.9), (0.05, 0.1, 0.2, 0.4), (0.3, 3.7), (2.6, 3.4))
    for order, X, t1, k in sweep:
        t = t1 * math.exp(X)

        def f(s, t1=t1, k=k):
            return log_ratio(s, t1) ** (k - 1.0)

        ref = power_rule_reference(OperatorKind.Derivative, order, k, t1, t)
        errors.append(abs(hadamard_derivative(order, f, t1, t) - ref) / ref)
    assert np.median(errors) <= 1e-7
    assert np.quantile(errors, 0.9) <= 7e-7


def test_integer_order_derivatives():
    got = hadamard_derivative(1.0, lambda s: math.log(s), 1.0, 2.0)
    assert abs(got - 1.0) <= 1e-9
    got = hadamard_derivative(2.0, lambda s: math.log(s) ** 2, 1.0, 2.0)
    assert abs(got - 2.0) <= 1e-6
    got = hadamard_derivative(2.0, lambda s: math.log(s) ** 3, 1.0, 2.0)
    assert abs(got - 6.0 * math.log(2.0)) <= 1e-6


def test_power_rule_annihilation():
    # The derivative kills (ln t)^(k-1) whenever k - order is a non-positive
    # integer, via the 1/gamma = 0 convention.
    assert power_rule_reference(OperatorKind.Derivative, 1.0, 1.0, 1.0, 2.0) == 0.0
    assert power_rule_reference(OperatorKind.Derivative, 1.5, 1.5, 1.0, 2.0) == 0.0
    assert power_rule_reference(OperatorKind.Derivative, 2.0, 1.0, 1.0, 2.0) == 0.0
    # At t = t1 a positive power vanishes, a negative one is rejected.
    assert power_rule_reference(OperatorKind.Integral, 0.5, 1.5, 1.0, 1.0) == 0.0
    with pytest.raises(DomainInvalid):
        power_rule_reference(OperatorKind.Derivative, 0.5, 1.2, 1.0, 1.0)


def test_power_rule_validation():
    with pytest.raises(DomainInvalid):
        power_rule_reference("integral", 0.5, 1.5, 1.0, 2.0)
    with pytest.raises(DomainInvalid):
        power_rule_reference(OperatorKind.Integral, 0.0, 1.5, 1.0, 2.0)
    with pytest.raises(DomainInvalid):
        power_rule_reference(OperatorKind.Integral, 0.5, 0.0, 1.0, 2.0)
    with pytest.raises(DomainInvalid):
        power_rule_reference(OperatorKind.Integral, 0.5, 1.5, 2.0, 1.0)


def test_semigroup_composition():
    f = lambda s: math.log(s) ** 1.5
    nested, direct = composition_check(0.5, 0.75, f, 1.0, 2.0)
    assert abs(nested - direct) <= 1e-6
    ref = power_rule_reference(OperatorKind.Integral, 1.25, 2.5, 1.0, 2.0)
    assert abs(direct - ref) <= 1e-6
    with pytest.raises(DomainInvalid):
        composition_check(0.0, 0.75, f, 1.0, 2.0)


def test_rapid_oscillation_detected_as_unstable():
    with pytest.raises(DifferenceInstability):
        hadamard_derivative(0.5, lambda s: math.sin(1e7 * s), 1.0, 2.0)


def test_non_finite_integrand_rejected():
    with pytest.raises(QuadratureFailure):
        hadamard_integral(0.5, lambda s: math.inf, 1.0, 2.0)
    with pytest.raises(QuadratureFailure):
        hadamard_integral(0.5, lambda s: math.nan, 1.0, 2.0)
    # Order 0 checks the one value it returns; an integer-order derivative
    # checks the values it differences.
    with pytest.raises(QuadratureFailure):
        hadamard_integral(0.0, lambda s: math.inf, 1.0, 2.0)
    with pytest.raises(QuadratureFailure):
        hadamard_derivative(1.0, lambda s: math.nan, 1.0, 2.0)


def test_non_real_integrand_is_an_eval_error():
    # A plain callable can return a complex number: (t - 5)^0.5 on [1, 2].
    f = lambda t: (t - 5.0) ** 0.5
    calls = (
        lambda: integrate_abs_q(f, 1.0, 2.0),
        lambda: hadamard_integral(1.37, f, 1.0, 2.0),
        lambda: hadamard_integral(0.0, f, 1.0, 2.0),
        lambda: hadamard_derivative(1.37, f, 1.0, 2.0),
        lambda: hadamard_derivative(1.0, f, 1.0, 2.0),
        lambda: composition_check(0.5, 0.3, f, 1.0, 2.0),
    )
    for call in calls:
        with pytest.raises(EvalError, match="not a real number"):
            call()
    # Real on the scan grid of integrate_abs_q, complex at the Gauss nodes,
    # and, with a sign change on the grid, at the bisection's midpoints.
    grid = set(_scan_grid(1.0, 2.0))
    for g in (lambda t: 1.0 if t in grid else 1j, lambda t: t - 1.5001 if t in grid else 1j):
        with pytest.raises(EvalError, match="not a real number"):
            integrate_abs_q(g, 1.0, 2.0)


def test_cached_rules_are_read_only():
    cached = (
        *_gauss_legendre(8),
        *_adjacent_rule(8),
        *_own_rule(8, -0.25),
        *_layout((3, 8, 8)),
    )
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


@pytest.mark.parametrize("U", [1e-15, 3e-15])
def test_node_rounding_onto_t1_is_a_quadrature_failure(U):
    # Over so short an interval even the innermost node t1 e^u rounds onto
    # t1, where a log-power f would divide by zero; that is a typed failure.
    def f(s):
        return math.log(s / 3.0) ** -0.4

    t = 3.0 * math.exp(U)
    with pytest.raises(QuadratureFailure, match="rounds onto t1"):
        hadamard_integral(0.7, f, 3.0, t)
    with pytest.raises(QuadratureFailure, match="rounds onto t1"):
        composition_check(0.7, 0.5, f, 3.0, t)


def test_argument_validation():
    with pytest.raises(DomainInvalid):
        hadamard_integral(-0.5, lambda s: 1.0, 1.0, 2.0)
    with pytest.raises(DomainInvalid):
        hadamard_integral(0.5, lambda s: 1.0, 2.0, 1.0)
    with pytest.raises(DomainInvalid):
        hadamard_derivative(0.0, lambda s: 1.0, 1.0, 2.0)
    with pytest.raises(DomainInvalid):
        hadamard_derivative(2.5, lambda s: 1.0, 1.0, 2.0)
    with pytest.raises(DomainInvalid):
        hadamard_derivative(0.5, lambda s: 1.0, 2.0, 2.0)
    with pytest.raises(DomainInvalid, match="^coefficient must be a Coefficient or callable, got 42$"):
        hadamard_integral(0.5, 42, 1.0, 2.0)


def _cos_reference(order, t1, t):
    # 30-digit tanh-sinh quadrature of the u-form of the integral of
    # 1 + cos(s), split at U/2 so each piece has one singular end.  U =
    # ln(t/t1) is formed at 30 digits too: math.log(t/t1) is 1e-10 off at
    # U = 1e-6.
    import mpmath

    with mpmath.workdps(30):
        a, U = mpmath.mpf(order), mpmath.log(mpmath.mpf(t) / t1)
        total = mpmath.quad(
            lambda u: (U - u) ** (a - 1) * (1 + mpmath.cos(t1 * mpmath.exp(u))), [0, U / 2, U]
        )
        return float(total / mpmath.gamma(a))


@pytest.mark.parametrize("order", [0.3, 0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("U", [1e-13, 1e-6, 0.5, 3.0])
def test_integral_matches_exact_references(order, U):
    t1 = 0.7
    t = t1 * math.exp(U)
    got = hadamard_integral(order, lambda s: 1.0 + math.cos(s), t1, t)
    ref = _cos_reference(order, t1, t)
    assert abs(got - ref) <= 1e-10 * abs(ref)
    # Log-power data u^-0.4: the innermost node stays above ~3e-16 in u, so
    # on short intervals the mass below it limits the accuracy.
    got = hadamard_integral(order, lambda s: math.log(s / t1) ** -0.4, t1, t)
    ref = power_rule_reference(OperatorKind.Integral, order, 0.6, t1, t)
    assert abs(got - ref) <= {1e-13: 4e-3, 1e-6: 2e-6}.get(U, 2e-9) * abs(ref)


def test_composition_evaluates_f_once_per_node():
    calls = []
    composition_check(0.75, 0.5, lambda s: calls.append(s) or math.sqrt(math.log(s)), 1.0, math.e)
    assert len(calls) <= PANELS * PANEL_ORDER + 2


def test_composition_nested_side_meets_power_rule():
    t1, t = 0.7, 2.0
    for sigma in (0.3, 0.75, 1.5):
        for kappa in (0.2, 0.5, 1.0):
            for k in (1.0, 1.3, 2.0):
                f = lambda s: math.log(s / t1) ** (k - 1.0)
                nested, _ = composition_check(sigma, kappa, f, t1, t)
                ref = power_rule_reference(OperatorKind.Integral, sigma + kappa, k, t1, t)
                assert abs(nested - ref) <= 1e-9 * ref


def _nodes(order, t1, t):
    seen = []
    hadamard_integral(order, lambda s: seen.append(s) or 1.0, t1, t)
    return sorted(seen)


@pytest.mark.parametrize("where", ["right-half", "end-panel"])
def test_single_non_finite_node_rejected(where):
    t1, t, order = 1.0, 2.0, 0.5
    nodes = _nodes(order, t1, t)
    # The last panel, whose weights come from the Gauss-Jacobi product rule,
    # holds the `order` nodes closest to t; the others in the right half of
    # [t1, t] in ln s lie on uniform panels.
    end = nodes[-PANEL_ORDER:]
    right = [s for s in nodes[:-PANEL_ORDER] if s > t1 * math.sqrt(t / t1)]
    assert right
    bad = right[len(right) // 2] if where == "right-half" else end[len(end) // 2]
    for value in (math.inf, math.nan):
        with pytest.raises(QuadratureFailure):
            hadamard_integral(order, lambda s: value if s == bad else 1.0, t1, t)


@pytest.mark.parametrize("op", [OperatorKind.Integral, OperatorKind.Derivative])
@pytest.mark.parametrize("order, exponent_kappa", [(0.5, 0.6), (1.5, 2.3), (0.3, 1.7)])
def test_power_rule_reference_on_a_narrow_interval(op, order, exponent_kappa):
    # ln(t/t1) = 1e-9 is formed as log1p((t - t1)/t1): at this t,
    # math.log(t/t1) is 1.0e-7 off.
    import mpmath

    t1 = 3.7
    t = t1 + 1e-9 * t1
    got = power_rule_reference(op, order, exponent_kappa, t1, t)
    with mpmath.workdps(50):
        X = mpmath.log(mpmath.mpf(t) / t1)
        k, a = mpmath.mpf(exponent_kappa), mpmath.mpf(order)
        sign = 1 if op is OperatorKind.Integral else -1
        exact = mpmath.gamma(k) * mpmath.rgamma(k + sign * a) * X ** (k + sign * a - 1)
        assert abs(got - exact) <= 1e-14 * abs(exact)


def _frozen_f(s):
    return s * math.cos(s) + math.log(s) ** 0.5


@pytest.mark.parametrize("rows", [1, 7, 128, 512])
def test_composition_does_not_depend_on_block_size(monkeypatch, rows):
    # The composition_check case of the frozen operator outputs, whose mesh
    # has 512 interior nodes.
    ref = composition_check(0.5, 0.3, _frozen_f, 1.0, 2.5)
    monkeypatch.setattr(operators, "_BLOCK_ROWS", rows)
    assert composition_check(0.5, 0.3, _frozen_f, 1.0, 2.5) == ref


def test_composition_holds_one_block_of_weights():
    # All 512 x 514 weights at once would take 2.1 MB.
    tracemalloc.start()
    try:
        composition_check(0.5, 0.3, _frozen_f, 1.0, 2.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: hadamard_integral(172.0, _frozen_f, 1.0, 2.5), NonFiniteResult),
        (lambda: hadamard_integral(1e300, _frozen_f, 1.0, 2.5), NonFiniteResult),
        (lambda: power_rule_reference(OperatorKind.Integral, 200.0, 0.5, 1.0, 2.5), NonFiniteResult),
        (lambda: power_rule_reference(OperatorKind.Derivative, 200.0, 0.5, 1.0, 2.5), NonFiniteResult),
        (lambda: power_rule_reference(OperatorKind.Derivative, 0.5, 200.0, 1.0, 2.5), NonFiniteResult),
        (lambda: composition_check(150.0, 50.0, _frozen_f, 1.0, 2.5), NonFiniteResult),
        (lambda: composition_check(0.5, 1e300, _frozen_f, 1.0, 2.5), NonFiniteResult),
        (lambda: hadamard_integral(1e-30, _frozen_f, 1.0, 2.5), QuadratureFailure),
        (lambda: hadamard_integral(1e-17, _frozen_f, 1.0, 2.5), QuadratureFailure),
        (lambda: hadamard_integral(1e-16, _frozen_f, 1.0, 2.5), QuadratureFailure),
        (lambda: composition_check(1e-30, 0.5, _frozen_f, 1.0, 2.5), QuadratureFailure),
        (lambda: composition_check(0.5, 1e-30, _frozen_f, 1.0, 2.5), QuadratureFailure),
    ],
    ids=[
        "integral-172", "integral-1e300", "power-rule-integral-200",
        "power-rule-derivative-200", "power-rule-kappa-200", "composition-150-50",
        "composition-kappa-1e300", "integral-1e-30", "integral-1e-17", "integral-1e-16",
        "composition-sigma-1e-30", "composition-kappa-1e-30",
    ],
)
def test_extreme_orders_are_numerical_failures(call, error):
    # Gamma overflows past order 171.6, and below about 1.1e-16 the kernel
    # exponent order - 1 lies too close to -1 for a Gauss-Jacobi rule.
    with pytest.raises(error) as info:
        call()
    assert info.value.exit_code == 3


@pytest.mark.parametrize("order", [2.3e-16, 5e-16, 1e-15, 1e-12, 1e-11])
def test_tiny_orders_are_quadrature_failures(order):
    # The kernel exponent order - 1 is that of order (order - 1) + 1, which
    # misses these orders by 3.6e-2 (at 2.3e-16) down to 8.3e-8 relative,
    # and every integral of theirs would be off by as much.
    calls = (
        lambda: hadamard_integral(order, lambda s: 1.0, 1.0, 2.0),
        lambda: composition_check(order, 0.5, _frozen_f, 1.0, 2.5),
        lambda: composition_check(0.5, order, _frozen_f, 1.0, 2.5),
    )
    for call in calls:
        with pytest.raises(QuadratureFailure, match="too small to integrate") as info:
            call()
        assert info.value.exit_code == 3


@pytest.mark.parametrize("order", [1e-8, 1e-6])
def test_smallest_orders_still_integrate(order):
    # (ln 2)^order / Gamma(order + 1) is I^order 1 at t = 2; at 1e-8 the
    # kernel exponent misses the order by 5e-9 relative.
    exact = math.log(2.0) ** order / math.gamma(order + 1.0)
    assert abs(hadamard_integral(order, lambda s: 1.0, 1.0, 2.0) - exact) <= 1e-8 * exact


def test_non_finite_integral_names_u_as_a_plain_float():
    # The order-2 weights add up to (ln 20)^2 / 2 = 4.5, so the sum overflows.
    with pytest.raises(NonFiniteResult, match=r"at u=2\.995732273553991 is not finite$"):
        with np.errstate(over="ignore"):
            hadamard_integral(2.0, lambda s: 1e308, 1.0, 20.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: hadamard_integral(1.5, Constant(1.0), 1e-300, 1e300),
        lambda: composition_check(0.5, 0.5, Constant(1.0), 1e-300, 1e300),
        lambda: hadamard_derivative(0.5, Constant(1.0), 1e-300, 1e300),
        lambda: power_rule_reference(OperatorKind.Integral, 1.5, 1.5, 1e-300, 1e300),
    ],
    ids=["integral", "composition", "derivative", "power-rule"],
)
def test_interval_past_the_float_range_is_domain_invalid(call):
    # t/t1 = 1e600 is rejected as FracParams rejects it (params.log_width),
    # before any node t1 e^u overflows.
    with pytest.raises(DomainInvalid, match="t2/t1 exceeds the float range") as info:
        call()
    assert info.value.exit_code == 2


@pytest.mark.parametrize("order", [1.0, 2.0])
def test_integer_order_stencil_past_the_float_range_is_domain_invalid(order):
    # t/t1 = 1.79e308 is a float, but at integer order f itself is sampled
    # at t1 e^(x0 + h), with h = 1e-4 x0, and e^(x0 + h) overflows.
    t1, t = 1e-300, 1e-300 * 1.79e308
    with pytest.raises(DomainInvalid, match=r"overflows t1\*e\^u$"):
        hadamard_derivative(order, Constant(1.0), t1, t)
    # A fractional order samples f only below t: D^0.5 1 = x0^-0.5 / Gamma(0.5).
    exact = log_ratio(t, t1) ** -0.5 / math.gamma(0.5)
    assert abs(hadamard_derivative(0.5, Constant(1.0), t1, t) - exact) <= 1e-6 * exact
