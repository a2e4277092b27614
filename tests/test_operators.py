import math

import numpy as np
import pytest

from hadamard_bvp import (
    DifferenceInstability,
    DomainInvalid,
    OperatorKind,
    QuadratureConfig,
    QuadratureFailure,
    composition_check,
    hadamard_derivative,
    hadamard_integral,
    power_rule_reference,
)
from hadamard_bvp.gammafn import gamma
from hadamard_bvp.operators import DEFAULT_CONFIG, _gauss_jacobi, _gauss_legendre, _geometric_cuts

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


def test_integral_power_rule_sweep():
    # Gamma-exponents down to 0.5, i.e. log-powers down to -0.5, so the
    # integrand is genuinely singular at t1.  Exponents below ~0.45 are out
    # of reach in double precision: the integrand then carries non-negligible
    # mass between t1 and the first representable point above it, invisible
    # to any quadrature rule on representable nodes.
    rng = np.random.default_rng(20260815)
    for _ in range(20):
        order = float(rng.uniform(0.05, 1.95))
        kexp = float(rng.uniform(0.5, 2.0))
        t = math.sqrt(math.e) if rng.random() < 0.5 else math.e

        def f(s, p=kexp - 1.0):
            return math.log(s) ** p

        ref = power_rule_reference(OperatorKind.Integral, order, kexp, 1.0, t)
        assert abs(hadamard_integral(order, f, 1.0, t) - ref) <= 1e-6


def test_derivative_power_rule_sweep():
    # The difference-of-integral derivative needs a smooth integrand to hit
    # 1e-6; singular log-powers are exercised through the integral sweep and
    # the inversion check instead.
    rng = np.random.default_rng(20260815)
    for _ in range(20):
        order = float(rng.uniform(0.05, 1.95))
        p = float(rng.uniform(0.5, 2.0))
        t = math.sqrt(math.e) if rng.random() < 0.5 else math.e

        def f(s, p=p):
            return math.log(s) ** p

        ref = power_rule_reference(OperatorKind.Derivative, order, 1.0 + p, 1.0, t)
        assert abs(hadamard_derivative(order, f, 1.0, t) - ref) <= 1e-6


def test_refinement_improves_accuracy():
    f = lambda s: math.sqrt(math.log(s))
    coarse = hadamard_integral(0.5, f, 1.0, 2.0, QuadratureConfig(panels=8, order=8))
    fine = hadamard_integral(0.5, f, 1.0, 2.0, QuadratureConfig(panels=16, order=8))
    e_coarse = abs(coarse - I_HALF_SQRTLOG_AT_2)
    e_fine = abs(fine - I_HALF_SQRTLOG_AT_2)
    assert e_fine < e_coarse
    assert e_coarse / e_fine >= 2.0


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


def test_derivative_inverts_integral():
    cfg = QuadratureConfig(panels=24, order=6)
    f = lambda s: math.log(s) + 1.0
    for order, t in ((0.6, 1.7), (1.3, 2.4)):
        def integrated(s, order=order):
            return hadamard_integral(order, f, 1.0, s, cfg)

        got = hadamard_derivative(order, integrated, 1.0, t, cfg)
        assert abs(got - f(t)) <= 1e-4


def test_semigroup_composition():
    cfg = QuadratureConfig(panels=16, order=6)
    f = lambda s: math.log(s) ** 1.5
    nested, direct = composition_check(0.5, 0.75, f, 1.0, 2.0, cfg)
    assert abs(nested - direct) <= 1e-6
    ref = power_rule_reference(OperatorKind.Integral, 1.25, 2.5, 1.0, 2.0)
    assert abs(direct - ref) <= 1e-6
    with pytest.raises(DomainInvalid):
        composition_check(0.0, 0.75, f, 1.0, 2.0, cfg)


def test_rapid_oscillation_detected_as_unstable():
    with pytest.raises(DifferenceInstability):
        hadamard_derivative(0.5, lambda s: math.sin(1e7 * s), 1.0, 2.0)


def test_non_finite_integrand_rejected():
    with pytest.raises(QuadratureFailure):
        hadamard_integral(0.5, lambda s: math.inf, 1.0, 2.0)
    with pytest.raises(QuadratureFailure):
        hadamard_integral(0.5, lambda s: math.nan, 1.0, 2.0)


def test_config_validation():
    with pytest.raises(DomainInvalid):
        QuadratureConfig(panels=0)
    with pytest.raises(DomainInvalid):
        QuadratureConfig(order=1)
    with pytest.raises(DomainInvalid):
        QuadratureConfig(grading=0.5)
    with pytest.raises(DomainInvalid):
        QuadratureConfig(panels=2.5)


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


def _per_panel_integral(order, f, t1, U, cfg=DEFAULT_CONFIG):
    # The panel-by-panel sum hadamard_integral evaluated before its mesh was
    # built as arrays: same nodes and weights, summed one panel at a time.
    beta = order - 1.0
    ratio = 2.0 ** (-cfg.grading)
    xg, wg = _gauss_legendre(cfg.order)
    floor = max(5e-14 * max(1.0, U), 3e-16 / ((1.0 - float(xg[-1])) / 2.0))
    n_left = max(1, (3 * cfg.panels) // 5)
    n_right = max(1, cfg.panels - n_left)
    mid = 0.5 * U
    fv = lambda us: np.array([f(t1 * math.exp(u)) for u in us])
    total = 0.0
    cuts = _geometric_cuts(mid, n_left, ratio, floor)
    for lo, hi in [*zip(cuts[1:], cuts), (0.0, cuts[-1])]:
        half = 0.5 * (hi - lo)
        u = 0.5 * (hi + lo) + half * xg
        total += half * float(np.dot(wg, np.power(U - u, beta) * fv(u)))
    cuts = _geometric_cuts(mid, n_right, ratio, floor)
    for lo, hi in zip(cuts[1:], cuts):
        half = 0.5 * (hi - lo)
        w = 0.5 * (hi + lo) + half * xg
        total += half * float(np.dot(wg, np.power(w, beta) * fv(U - w)))
    xj, wj = _gauss_jacobi(cfg.order, beta)
    w = 0.5 * cuts[-1] * (1.0 + xj)
    total += (0.5 * cuts[-1]) ** (beta + 1.0) * float(np.dot(wj, fv(U - w)))
    return total / gamma(order)


@pytest.mark.parametrize("order", [0.3, 0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("U", [1e-6, 0.5, 3.0])
def test_integral_matches_per_panel_sum(order, U):
    t1 = 0.7
    t = t1 * math.exp(U)
    for f in (lambda s: 1.0 + math.cos(s), lambda s: math.log(s / t1) ** -0.4):
        got = hadamard_integral(order, f, t1, t)
        ref = _per_panel_integral(order, f, t1, math.log(t / t1))
        assert abs(got - ref) <= 1e-14 * abs(ref)


def _nodes(order, t1, t):
    seen = []
    hadamard_integral(order, lambda s: seen.append(s) or 1.0, t1, t)
    return sorted(seen)


@pytest.mark.parametrize("where", ["right-half", "end-panel"])
def test_single_non_finite_node_rejected(where):
    t1, t, order = 1.0, 2.0, 0.5
    nodes = _nodes(order, t1, t)
    # The Gauss-Jacobi end panel holds the `order` nodes closest to t.
    end = nodes[-DEFAULT_CONFIG.order:]
    right = [s for s in nodes[:-DEFAULT_CONFIG.order] if s > t1 * math.sqrt(t / t1)]
    assert right
    bad = right[len(right) // 2] if where == "right-half" else end[len(end) // 2]
    for value in (math.inf, math.nan):
        with pytest.raises(QuadratureFailure):
            hadamard_integral(order, lambda s: value if s == bad else 1.0, t1, t)
