"""Acceptance checks: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` reports the same information through test outcomes.
Every tolerance and runtime budget is asserted, not just reported.
"""

import math
import time

import numpy as np

from hadamard_bvp import (
    Expression,
    FracParams,
    OperatorKind,
    VerdictKind,
    eigenvalue_bound,
    critical_x2,
    discriminant,
    gamma,
    green_max,
    green_max_bruteforce,
    hadamard_derivative,
    hadamard_integral,
    lambda_nonexistence_check,
    lyapunov_bound,
    mho,
    min_eigenvalue_modulus,
    nonexistence_check,
    omega,
    parse_expr,
    power_rule_reference,
    pretty,
    reference_bound_kappa0,
    xi1,
    xi2,
)

EX_A = FracParams(sigma=1.75, kappa=0.5, t1=1.0, t2=math.e)
SEED = 20260815


def _ok(num: int, text: str) -> None:
    print(f"criterion {num}: PASS - {text}")


def _random_params(rng):
    sigma = float(rng.uniform(1.05, 2.0))
    kappa = float(rng.uniform(0.1, 0.9)) * (sigma - 1.0)
    t1 = float(rng.uniform(0.5, 2.0))
    t2 = t1 * math.exp(float(rng.uniform(0.3, 1.5)))
    return FracParams(sigma=sigma, kappa=kappa, t1=t1, t2=t2)


def test_criterion_1_closed_form_regression():
    green_max(EX_A)  # warm the code paths before timing
    lyapunov_bound(EX_A)
    start = time.perf_counter()
    delta = discriminant(EX_A)
    x2 = critical_x2(EX_A)
    om = omega(EX_A)
    mh = mho(EX_A)
    g = gamma(1.25)
    bound = lyapunov_bound(EX_A)
    elapsed = time.perf_counter() - start
    assert abs(delta - 1.0) <= 1e-12
    assert abs(x2 - 0.5) <= 1e-12
    assert abs(om - 0.3032653299) <= 1e-9
    assert abs(mh - 0.3849001795) <= 1e-9
    assert abs(g - 0.9064024771) <= 1e-9
    assert abs(bound - 2.3549027134) <= 1e-8
    assert elapsed < 1e-3
    _ok(1, f"closed-form values match references, {elapsed * 1e6:.0f} us")


def test_criterion_2_integral_verdict():
    q = Expression(parse_expr("ln(t)"))
    start = time.perf_counter()
    verdict = nonexistence_check(EX_A, q, tol=1e-9)
    elapsed = time.perf_counter() - start
    assert abs(verdict.q_integral - 1.0) <= 1e-9
    assert verdict.q_integral < 2.3549027134
    assert verdict.kind is VerdictKind.NoNontrivialSolution
    assert elapsed < 50e-3
    _ok(2, f"integral of |ln| = 1 within 1e-9, verdict negative, {elapsed * 1e3:.1f} ms")


def test_criterion_3_eigenvalue_thresholds():
    eigenvalue_bound(EX_A)  # warm up
    start = time.perf_counter()
    eb = eigenvalue_bound(EX_A)
    low = lambda_nonexistence_check(EX_A, 4.0)
    high = lambda_nonexistence_check(EX_A, 4.1)
    elapsed = time.perf_counter() - start
    assert abs(eb - 4.0463865405) <= 1e-8
    assert low.kind is VerdictKind.NoNontrivialSolution
    assert high.kind is VerdictKind.Inconclusive
    assert elapsed < 1e-3
    _ok(3, f"eigen threshold splits 4.0 / 4.1 correctly, {elapsed * 1e6:.0f} us")


def test_criterion_4_bruteforce_agreement():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        p = _random_params(rng)
        closed = green_max(p).max_abs_g
        brute, _ = green_max_bruteforce(p, 2000)
        worst = max(worst, abs(closed - brute) / closed)
        assert abs(closed - brute) <= 2e-3 * closed
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(4, f"50 sets, worst relative gap {worst:.2e} <= 2e-3, {elapsed:.1f} s")


def test_criterion_5_discrete_spectrum_respects_bound():
    # Samples stay at interval width <= 1, where the multiplied threshold
    # sits below the divided one and the inequality is provable.
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    for _ in range(20):
        sigma = float(rng.uniform(1.05, 2.0))
        kappa = float(rng.uniform(0.1, 0.9)) * (sigma - 1.0)
        t1 = float(rng.uniform(0.5, 1.2))
        width = float(rng.uniform(0.2, 1.0))
        p = FracParams(sigma=sigma, kappa=kappa, t1=t1, t2=t1 + width)
        res = min_eigenvalue_modulus(p, 400)
        assert res.lambda_min >= res.analytic_bound - 1e-9
    reference = min_eigenvalue_modulus(EX_A, 400)
    assert reference.lambda_min >= 4.0463865405
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _ok(5, f"20 sets + reference case all satisfy the bound, {elapsed:.1f} s")


def test_criterion_6_power_rule_and_inversion():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        order = float(rng.uniform(0.05, 1.95))
        # Gamma-exponent of the log-power test function; values below ~0.45
        # are unresolvable in double precision (the integrand mass sits
        # between t1 and the next representable point), so sampling starts
        # at 0.5 and still covers singular integrands.
        kexp = float(rng.uniform(0.5, 2.0))
        t = math.sqrt(math.e) if rng.random() < 0.5 else math.e
        ref = power_rule_reference(OperatorKind.Integral, order, kexp, 1.0, t)
        got = hadamard_integral(order, lambda s: math.log(s) ** (kexp - 1.0), 1.0, t)
        worst = max(worst, abs(got - ref))
        assert abs(got - ref) <= 1e-6

    f = lambda s: math.log(s) + 1.0
    for order, t in ((0.6, 1.7), (1.3, 2.4)):
        def integrated(s, order=order):
            return hadamard_integral(order, f, 1.0, s, panels=18)

        got = hadamard_derivative(order, integrated, 1.0, t, panels=18)
        assert abs(got - f(t)) <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok(6, f"power rule worst abs err {worst:.2e} <= 1e-6, inversion <= 1e-4, {elapsed:.1f} s")


def test_criterion_7_vanishing_kappa_consistency():
    start = time.perf_counter()
    for sigma in (1.3, 1.6, 1.9):
        p = FracParams(sigma=sigma, kappa=1e-7, t1=1.0, t2=math.e)
        got = gamma(p.sigma - p.kappa) / omega(p)
        ref = reference_bound_kappa0(sigma, 1.0, math.e)
        assert abs(got - ref) <= 1e-5 * ref
    elapsed = time.perf_counter() - start
    assert elapsed < 10e-3
    _ok(7, f"kappa -> 0 limit matches single-derivative bound, {elapsed * 1e3:.2f} ms")


def test_criterion_8_kernel_shape_properties():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    violations = 0
    for _ in range(20):
        p = _random_params(rng)
        t = p.t1 * math.exp(float(rng.uniform(0.05, 0.95)) * p.L)
        for _ in range(100):
            lo, hi = np.sort(rng.uniform(t, p.t2, 2))
            v_lo, v_hi = xi1(p, t, float(lo)), xi1(p, t, float(hi))
            if v_hi > v_lo or v_lo < 0.0 or v_hi < 0.0:
                violations += 1
        for _ in range(100):
            lo, hi = np.sort(rng.uniform(p.t1, t, 2))
            if xi2(p, t, float(hi)) < xi2(p, t, float(lo)):
                violations += 1
        if xi2(p, t, p.t1) > 0.0:
            violations += 1
        if abs(xi1(p, t, t) - xi2(p, t, t)) > 1e-12:
            violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 5.0
    _ok(8, f"20 sets x 200 pairs, zero shape violations, {elapsed:.2f} s")


def test_criterion_9_parser_round_trips():
    corpus = [
        "t", "-t", "2*t", "t^2", "ln(t)", "exp(t)", "sin(t)", "cos(t)",
        "abs(t)", "sqrt(t)", "1+2*3", "2*t^2-1", "-2^2", "2^-3", "2^3^2",
        "t/2/3", "1-2-3", "-(t+1)", "t*-2", "1--1", "ln(t)*exp(-t/2)",
        "sqrt(abs(t-2))", "sin(t)^2+cos(t)^2", "1/(1+exp(-t))", "t^2^0.5",
        "0.5*t+0.25", "1e3*t", ".5+t", "2.*t", "exp(ln(t))",
        "abs(-t)", "((t))", "-t^2", "(1+t)*(1-t)", "t^(1/2)",
        "ln(t)/t", "t-0.5", "10*ln(t)^2", "cos(2*t)-sin(3*t)", "t^0.5*t^0.25",
        "1/t", "-1/t^2", "exp(t^2)", "ln(ln(t))", "sqrt(t)/2",
        "(t-1)/(t+1)", "2^t", "t^t", "abs(t)^0.5", "sin(cos(t))",
    ]
    assert len(corpus) == 50
    start = time.perf_counter()
    for src in corpus:
        ast = parse_expr(src)
        assert parse_expr(pretty(ast)) == ast, src
    q = Expression(parse_expr("1+2*3"))
    assert q(1.0) == 7.0
    q = Expression(parse_expr("2*t^2 - 1"))
    assert q(2.0) == 7.0
    q = Expression(parse_expr("ln(t)"))
    assert q(math.e) == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 100e-3
    _ok(9, f"50 round-trips and 3 precedence checks exact, {elapsed * 1e3:.1f} ms")
