import math
import random

import numpy as np
import pytest

from hadamard_bvp import (
    Constant,
    DomainInvalid,
    EvalError,
    Expression,
    FracParams,
    OrderOutOfRange,
    OutOfTableRange,
    QuadratureFailure,
    Table,
    VerdictKind,
    eigenvalue_bound,
    green_max,
    integrate_abs_q,
    lambda_nonexistence_check,
    lyapunov_bound,
    lyapunov_report,
    nonexistence_check,
    parse_expr,
    reference_bound_kappa0,
)
from hadamard_bvp import bounds
from hadamard_bvp.bounds import _GL_NODES, _GL_WEIGHTS, _scan_grid
from hadamard_bvp.errors import NonFiniteResult, ResultUnderflow
from hadamard_bvp.operators import _GAUSS_LEGENDRE, PANEL_ORDER
from hadamard_bvp.selftest import EX_A, EX_A_REF, EX_B, EX_B_REF, SEED, random_params

ABS_LNT_MINUS_HALF = 0.43830162717073368  # integral of |ln t - 1/2| over [1, e]


def test_reference_bounds():
    rep = lyapunov_report(EX_A)
    assert abs(rep.bound - EX_A_REF["bound"]) <= 1e-12 * EX_A_REF["bound"]
    assert abs(rep.eigen_bound - EX_A_REF["eigen_bound"]) <= 1e-12 * EX_A_REF["eigen_bound"]
    assert abs(rep.gamma_sk - EX_A_REF["gamma_sk"]) <= 1e-12
    assert abs(lyapunov_bound(EX_B) - EX_B_REF["bound"]) <= 1e-12 * EX_B_REF["bound"]


def test_bound_is_reciprocal_of_kernel_max():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        p = random_params(rng)
        product = lyapunov_bound(p) * green_max(p).max_abs_g
        assert abs(product - 1.0) <= 1e-12


def test_eigen_bound_is_exact_width_multiple():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = random_params(rng)
        assert eigenvalue_bound(p) == lyapunov_bound(p) * (p.t2 - p.t1)


def test_eigen_bound_vanishes_with_interval_width():
    p = FracParams(sigma=1.75, kappa=0.5, t1=1.0, t2=1.0 + 1e-6)
    assert 0.0 < eigenvalue_bound(p) < 1e-3


def test_eigen_bound_underflow_is_an_error():
    p = FracParams(sigma=1.75, kappa=0.5, t1=1e-300, t2=2.7e-300)
    assert lyapunov_bound(p) > 0.0
    with pytest.raises(ResultUnderflow):
        eigenvalue_bound(p)
    with pytest.raises(ResultUnderflow):
        lyapunov_report(p)
    with pytest.raises(ResultUnderflow):
        lambda_nonexistence_check(p, 1.0)


def test_overflowing_thresholds_are_errors():
    # Near the top of the float range the quotient and the product overflow;
    # inf is no threshold, so it must not reach a comparison.
    p = FracParams(sigma=1.5, kappa=0.25, t1=1.7e308, t2=1.75e308)
    with pytest.raises(NonFiniteResult, match="bound is not finite"):
        lyapunov_bound(p)
    with pytest.raises(NonFiniteResult):
        nonexistence_check(p, Constant(1.0))
    p = FracParams(sigma=1.75, kappa=0.5, t1=1e300, t2=1.7e308)
    assert math.isfinite(lyapunov_bound(p))
    with pytest.raises(NonFiniteResult, match="eigen_bound is not finite"):
        eigenvalue_bound(p)
    with pytest.raises(NonFiniteResult):
        lambda_nonexistence_check(p, 1.0)


def test_lambda_verdicts():
    assert lambda_nonexistence_check(EX_A, 4.0).kind is VerdictKind.NoNontrivialSolution
    assert lambda_nonexistence_check(EX_A, -4.0).kind is VerdictKind.NoNontrivialSolution
    assert lambda_nonexistence_check(EX_A, 4.1).kind is VerdictKind.Inconclusive
    # Exact tie is not a strict inequality.
    tie = lambda_nonexistence_check(EX_A, eigenvalue_bound(EX_A))
    assert tie.kind is VerdictKind.Inconclusive
    # lambda = 0 is q = 0, whose only solution is x = 0.
    zero = lambda_nonexistence_check(EX_A, 0.0)
    assert zero.kind is VerdictKind.NoNontrivialSolution and zero.q_integral == 0.0
    assert nonexistence_check(EX_A, Constant(0.0)).kind is zero.kind
    with pytest.raises(DomainInvalid):
        lambda_nonexistence_check(EX_A, math.nan)
    with pytest.raises(DomainInvalid):
        lambda_nonexistence_check(EX_A, math.inf)


def test_constant_coefficient_verdicts():
    v = nonexistence_check(EX_A, Constant(1.0))
    assert v.kind is VerdictKind.NoNontrivialSolution
    assert abs(v.q_integral - (math.e - 1.0)) <= 1e-9
    assert abs(v.bound - EX_A_REF["bound"]) <= 1e-12 * EX_A_REF["bound"]
    assert nonexistence_check(EX_A, Constant(10.0)).kind is VerdictKind.Inconclusive


def test_verdict_flips_at_critical_scaling():
    # For q = c the integral is c (t2 - t1); the flip happens at c = bound / width.
    critical = EX_A_REF["bound"] / (math.e - 1.0)
    below = nonexistence_check(EX_A, Constant(0.99 * critical))
    above = nonexistence_check(EX_A, Constant(1.01 * critical))
    assert below.kind is VerdictKind.NoNontrivialSolution
    assert above.kind is VerdictKind.Inconclusive


def test_constant_integral_is_the_flat_tables_closed_form():
    # Near the threshold, where a last-bit difference flips the verdict: a
    # constant and the flat two-knot table give the same bits, |c| (t2 - t1).
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        p = random_params(rng)
        width = p.t2 - p.t1
        for j in range(-6, 7):
            c = lyapunov_bound(p) / width * (1.0 + j * 2.0**-52)
            const = nonexistence_check(p, Constant(c))
            flat = nonexistence_check(p, Table(((p.t1, c), (p.t2, c))))
            assert const.kind is flat.kind
            assert const.q_integral == flat.q_integral == abs(c) * width


def test_integral_with_interior_kink():
    q = Expression(parse_expr("ln(t) - 0.5"))
    got = integrate_abs_q(q, 1.0, math.e, tol=1e-9)
    assert abs(got - ABS_LNT_MINUS_HALF) <= 1e-9
    # Cross-check against a brute-force midpoint rule.
    n = 1_000_000
    h = (math.e - 1.0) / n
    ts = 1.0 + (np.arange(n) + 0.5) * h
    brute = float(np.sum(np.abs(np.log(ts) - 0.5)) * h)
    assert abs(got - brute) <= 1e-8


def test_integral_accepts_plain_callables():
    got = integrate_abs_q(lambda t: math.sin(t), 1.0, math.e, tol=1e-10)
    exact = math.cos(1.0) - math.cos(math.e)  # sin > 0 on [1, e]
    assert abs(got - exact) <= 1e-9


def test_integral_of_sign_flipping_line():
    # q(t) = t - 2 changes sign inside [1, e]; |q| integrates in closed form.
    got = integrate_abs_q(lambda t: t - 2.0, 1.0, math.e, tol=1e-10)
    exact = 0.5 + 0.5 * (math.e - 2.0) ** 2
    assert abs(got - exact) <= 1e-9


def test_bisection_returns_an_exact_root(monkeypatch):
    # The root of t - 1.501953125 is the first midpoint of the scan cell
    # [1.5, 1.50390625], where q is exactly 0: the bisection returns it.
    root = 1.501953125
    assert _scan_grid(1.0, 2.0)[128:130] == [1.5, 1.50390625]
    assert root == 0.5 * (1.5 + 1.50390625)
    bisect = bounds._bisect_sign_change
    found = []

    def recording(*args):
        found.append(bisect(*args))
        return found[-1]

    monkeypatch.setattr(bounds, "_bisect_sign_change", recording)
    got = integrate_abs_q(lambda t: t - root, 1.0, 2.0)
    assert found == [root]
    # (root - 1)^2/2 + (2 - root)^2/2, exact in binary.
    assert got == 0.2500038146972656 == ((root - 1.0) ** 2 + (2.0 - root) ** 2) / 2.0


def test_sign_change_at_t1_leaves_an_empty_segment(monkeypatch):
    # q is -1 at exactly t1 and +1 elsewhere: the bisection narrows the first
    # scan cell down to the adjacent floats t1 and t1 + ulp, whose midpoint
    # rounds to t1, so the segment [t1, t1] is skipped and the rest of the
    # interval carries the whole integral.
    t1, t2 = 1.0, 1.0 + 1e-9
    bisect = bounds._bisect_sign_change
    found = []

    def recording(*args):
        found.append(bisect(*args))
        return found[-1]

    monkeypatch.setattr(bounds, "_bisect_sign_change", recording)
    got = integrate_abs_q(lambda t: -1.0 if t == t1 else 1.0, t1, t2)
    assert found == [t1]
    assert got == t2 - t1


@pytest.mark.parametrize(
    "order, rule",
    [(15, (_GL_NODES, _GL_WEIGHTS)), *_GAUSS_LEGENDRE.items()],
    ids=["bounds-15", *(f"operators-{k}" for k in _GAUSS_LEGENDRE)],
)
def test_panel_rule_is_leggauss(order, rule):
    # Every Gauss-Legendre rule of the package is written out as literals,
    # so that bounds needs no numpy and the operators no numpy.polynomial.
    # The operators' table holds every panel order a mesh can have.
    assert list(_GAUSS_LEGENDRE) == list(range(1, PANEL_ORDER + 1))
    nodes, weights = np.polynomial.legendre.leggauss(order)
    assert rule == (tuple(nodes.tolist()), tuple(weights.tolist()))
    assert all(type(v) is float for v in rule[0] + rule[1])


@pytest.mark.parametrize("t1", [1e-3, 0.37, 1.0, 2.5, 1e4])
def test_scan_grid_is_linspace(t1):
    rng = np.random.default_rng(int(t1 * 1000))
    widths = np.exp(rng.uniform(math.log(1e-9), math.log(3.0), 8)).tolist() + [1e-9, 3.0]
    for L in widths:
        t2 = t1 * math.exp(L)
        scan = _scan_grid(t1, t2)
        assert scan == np.linspace(t1, t2, 257).tolist()
        assert all(type(t) is float for t in scan)
        for n in (2, 3, 17, 300):
            assert _scan_grid(t1, t2, n) == np.linspace(t1, t2, n).tolist()


def test_quadrature_rejects_non_finite_values():
    with pytest.raises(QuadratureFailure):
        integrate_abs_q(lambda t: math.nan, 1.0, math.e)
    with pytest.raises(QuadratureFailure):
        integrate_abs_q(lambda t: math.inf if t > 2.0 else 1.0, 1.0, math.e)


def test_overflowing_integral_fails_at_once():
    # The panels over [1, 10] overflow: fail there, not after the whole panel budget.
    with pytest.raises(NonFiniteResult, match=r"over \[1.0, 10.0\] is not finite"):
        integrate_abs_q(Constant(1e308), 1.0, 10.0)
    # Four segments between the sign changes at 2, 3 and 4, each integrated
    # exactly and finite, whose sum overflows: inf is never returned.
    c = 0.898e308

    def q(t):
        return 0.0 if t == int(t) else (c if int(t) % 2 else -c)

    with pytest.raises(NonFiniteResult, match="is not finite"):
        integrate_abs_q(q, 1.0, 5.0)
    assert integrate_abs_q(q, 1.0, 3.0) == pytest.approx(2.0 * c, rel=1e-15)


def test_quadrature_gives_up_on_non_integrable_spike():
    # inf at the spike itself, should a node land there: sampler makes it a
    # QuadratureFailure, as the spike's growth is.
    with pytest.raises(QuadratureFailure):
        integrate_abs_q(lambda t: abs(t - 2.0) ** -0.5 if t != 2.0 else math.inf,
                        1.0, math.e, tol=1e-13)


def _exact_table_integral(points, t1, t2):
    """Integral of |q| over [t1, t2], at 60 digits: between knots the table is
    q = v_k + s_k ln(t/t_k), with antiderivative t (q(t) - s_k)."""
    import mpmath

    with mpmath.workdps(60):
        a, b = mpmath.mpf(t1), mpmath.mpf(t2)
        total = mpmath.mpf(0)
        for (ta, va), (tb, vb) in zip(points, points[1:]):
            ta, va, tb, vb = map(mpmath.mpf, (ta, va, tb, vb))
            lo, hi = max(a, ta), min(b, tb)
            if not lo < hi:
                continue
            s = (vb - va) / mpmath.log(tb / ta)
            F = lambda t: t * (va + s * mpmath.log(t / ta) - s)
            cuts = [lo, hi]
            if s != 0 and lo < ta * mpmath.exp(-va / s) < hi:
                cuts.insert(1, ta * mpmath.exp(-va / s))
            total += sum(abs(F(y) - F(x)) for x, y in zip(cuts, cuts[1:]))
        return float(total)


def _random_table(rng, n, t1=1.0, span=1.0):
    """n knots from t1 to t1 e^span, equally spaced in ln t, values in [-1, 1]."""
    ts = [math.exp(math.log(t1) + span * i / (n - 1)) for i in range(n)]
    return Table(tuple((t, rng.uniform(-1.0, 1.0)) for t in ts))


def _narrow_table(rng, n, t1, width):
    """n knots equally spaced in t on [t1, t1 + width], values in [-1, 1]."""
    return Table(tuple((t1 + width * i / (n - 1), rng.uniform(-1.0, 1.0)) for i in range(n)))


def _table_cases():
    """(table, t1, t2): the knot range, and a range strictly inside it."""
    rng = random.Random(5)
    tables = [_random_table(random.Random(28), 41)]
    tables += [_random_table(rng, rng.randint(20, 200)) for _ in range(6)]
    tables += [_narrow_table(rng, rng.randint(2, 30), t1, 1e-9 * t1) for t1 in (0.37, 3.7, 2e5)]
    tables += [_random_table(rng, n, t1, 50.0) for n, t1 in ((2, 0.5), (9, 1.0), (60, 3.0))]
    # Knots further apart than the float range, where t/t_k overflows.
    tables.append(Table(((1e-300, 1.0), (1e300, -0.5))))
    cases = [(tables[-1], 1.0, 2.0)]
    for q in tables:
        t1, t2 = q.points[0][0], q.points[-1][0]
        cases.append((q, t1, t2))
        cases.append((q, t1 + 0.13 * (t2 - t1), t1 + 0.71 * (t2 - t1)))
    return cases


def test_table_integral_is_exact_between_knots(monkeypatch):
    # A table is integrated in closed form, without evaluating it, on
    # typical, narrow (knot span 1e-9 t1) and wide (t2/t1 = e^50 and more
    # than the float range) tables, and on ranges strictly inside the knots.
    def no_eval(self, t):
        raise AssertionError("Table.eval called by the table integral")

    cases = _table_cases()
    monkeypatch.setattr(Table, "eval", no_eval)
    for q, t1, t2 in cases:
        exact = _exact_table_integral(q.points, t1, t2)
        got = integrate_abs_q(q, t1, t2)
        assert type(got) is float
        assert abs(got - exact) <= 1e-14 * exact, (len(q.points), t1, t2)


def test_table_integral_errors():
    q = Table(((1.0, -1.0), (2.0, 1.0), (math.e, 0.5)))
    with pytest.raises(OutOfTableRange):
        integrate_abs_q(q, 0.5, 2.0)
    with pytest.raises(OutOfTableRange):
        integrate_abs_q(q, 1.5, 3.0)
    # A slope that overflows, here on [2, 2.5], fails like an evaluation
    # would, but only on the knot intervals that overlap [t1, t2].
    q = Table(((1.0, 1.0), (2.0, 1e308), (2.5, -1e308), (3.0, 1.0), (4.0, 2.0)))
    with pytest.raises(EvalError):
        integrate_abs_q(q, 1.5, 2.5)
    exact = _exact_table_integral(q.points, 3.0, 4.0)
    assert abs(integrate_abs_q(q, 3.0, 4.0) - exact) <= 1e-14 * exact
    # A term that overflows (the exact value here is 7.5e307) and a sum
    # beyond the float range (2.1e308) raise instead of returning inf.
    for q in (Table(((1e-300, 1.0), (1.5e308, -0.5))),
              Table(((1e308, 3.0), (1.5e308, 3.0), (1.7e308, 3.0)))):
        t1, t2 = q.points[0][0], q.points[-1][0]
        with pytest.raises(NonFiniteResult) as exc:
            integrate_abs_q(q, t1, t2)
        assert repr(t2) in str(exc.value)
    # A constant table over more than e^700 has no slope term to overflow
    # (0 * inf would be nan): the exact value is 1.5e308.
    q = Table(((1e-300, 1.0), (1.5e308, 1.0)))
    assert abs(integrate_abs_q(q, 1e-300, 1.5e308) - 1.5e308) <= 1e-14 * 1.5e308


@pytest.mark.parametrize("c, t1, t2", [(4.651, 2.01, 21.6), (3.3, 1.0, 5.0)])
def test_integral_through_a_cusp(c, t1, t2):
    # The recursion reaches its width floor at the cusp of |t - c|^(1/2); the
    # panels it accepts there are a few dozen ulps wide and their error is tiny.
    got = integrate_abs_q(Expression(parse_expr(f"abs(t-{c})^0.5")), t1, t2)
    exact = 2.0 / 3.0 * ((c - t1) ** 1.5 + (t2 - c) ** 1.5)
    assert abs(got - exact) <= 1e-12


def test_width_floor_slack_is_bounded_by_tol():
    # A jump of q is a kink the scan cannot see: the panel holding it is
    # accepted at the width floor while its error stays below tol ...
    c = 4.51234567
    got = integrate_abs_q(lambda t: 1.0 if t < c else 3.0, 4.0, 5.0)
    assert abs(got - ((c - 4.0) + 3.0 * (5.0 - c))) <= 1e-12
    # ... and not once it exceeds tol.
    with pytest.raises(QuadratureFailure, match="does not converge"):
        integrate_abs_q(lambda t: 1.0 if t < c else 1e9, 4.0, 5.0)
    # A non-integrable singularity still fails (it spends the whole budget,
    # so the test passes a plain callable: the parsed expression
    # 0.01/abs(t-4.51234567) takes seconds longer), inf at c itself.
    with pytest.raises(QuadratureFailure):
        integrate_abs_q(lambda t: 0.01 / abs(t - c) if t != c else math.inf, 4.0, 5.0)


@pytest.mark.parametrize("t1, width, high", [(4.0, 1e-6, 1e9), (1.0, 1e-9, 1e8)])
def test_jump_on_a_narrow_interval_does_not_converge(t1, width, high):
    # Halving such an interval 48 times passes float resolution long before
    # the panels are narrow enough to see the jump; the width floor stops at
    # 64 ulps, where the jump still shows, as it does on [4, 5].
    c = t1 + 0.37 * width
    with pytest.raises(QuadratureFailure, match="does not converge"):
        integrate_abs_q(lambda t: 1.0 if t < c else high, t1, t1 + width)


def test_integral_domain_validation():
    with pytest.raises(DomainInvalid):
        integrate_abs_q(Constant(1.0), 0.0, 2.0)
    with pytest.raises(DomainInvalid):
        integrate_abs_q(Constant(1.0), 2.0, 2.0)
    with pytest.raises(DomainInvalid):
        integrate_abs_q(Constant(1.0), 1.0, 2.0, tol=0.0)


def test_eval_error_propagates_from_coefficient():
    q = Expression(parse_expr("ln(t - 2)"))
    with pytest.raises(EvalError):
        nonexistence_check(EX_A, q)
    with pytest.raises(EvalError, match="not a real number"):
        nonexistence_check(EX_A, Constant(1j))
    with pytest.raises(EvalError, match=r"evaluated to nan at t=1\.0$"):
        nonexistence_check(EX_A, Constant(math.nan))


def test_bisection_checks_the_values_it_samples():
    # q is real and finite on the scan grid and at the Gauss nodes but not at
    # the bisection's first midpoint, the middle of the scan cell holding the
    # root; the root lies right of it, so a nan read as a sign would move the
    # bracket off the root.
    root = 1.503
    grid = _scan_grid(1.0, 2.0)
    left, right = next((a, b) for a, b in zip(grid, grid[1:]) if a < root < b)
    mid = 0.5 * (left + right)
    assert mid < root
    for bad, error in ((1j, EvalError), (math.nan, QuadratureFailure),
                       (math.inf, QuadratureFailure)):
        with pytest.raises(error):
            integrate_abs_q(lambda t, bad=bad: bad if t == mid else t - root, 1.0, 2.0)


def test_single_derivative_reference_values():
    refs = {
        1.3: 1.8975608758834918,
        1.6: 3.0724107728905247,
        1.9: 5.1638056685659925,
    }
    for sigma, expected in refs.items():
        got = reference_bound_kappa0(sigma, 1.0, math.e)
        assert abs(got - expected) <= 1e-12 * expected
    values = [reference_bound_kappa0(s, 1.0, math.e) for s in (1.3, 1.6, 1.9)]
    assert values[0] < values[1] < values[2]
    assert math.isfinite(reference_bound_kappa0(2.0, 1.0, math.e))


def test_single_derivative_reference_errors():
    with pytest.raises(OrderOutOfRange):
        reference_bound_kappa0(1.0, 1.0, math.e)
    with pytest.raises(OrderOutOfRange):
        reference_bound_kappa0(2.5, 1.0, math.e)
    with pytest.raises(DomainInvalid):
        reference_bound_kappa0(1.5, 0.0, math.e)
    with pytest.raises(DomainInvalid):
        reference_bound_kappa0(1.5, 2.0, 1.0)
    with pytest.raises(DomainInvalid):
        reference_bound_kappa0(1.5, 1e-300, 1e10)  # t2/t1 overflows

