"""Embedded self-checks: reference-value regressions and fast properties.

Each check is a named callable that takes no argument and returns (ok,
detail); the checks that draw random numbers use fixed seeds, so every run
makes the same draws.  Reference numbers were computed independently at
50-digit precision (mpmath) from the closed forms and are frozen here; the
checks assert the double-precision code reproduces them to stated
tolerances.  ``lambda_min`` is |z1|/L^(sigma - kappa), for z1 the zero of
least modulus of the Mittag-Leffler function E_{sigma-kappa,sigma}(-z);
``tests/test_oracle_eigen.py`` holds both values against a 45-digit
evaluation of it.  The tests import the same reference tables.

The checks also carry the acceptance criteria of the paper's results, each
written here once: ``tests/test_acceptance.py`` maps each criterion to its
check(s) and asserts the criterion's runtime budget.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import bounds, fredholm, grid, kernel, operators
from .coefficient import Constant
from .expression import Expression, parse_expr, pretty
from .errors import UnknownIdentifier
from .params import VerdictKind, gamma, log_ratio, validate

__all__ = ["run_selftests", "SELFTEST_NAMES"]

# Frozen reference values (50-digit evaluation of the closed forms).
EX_A = validate(1.75, 0.5, 1.0, math.e)
EX_A_REF = {
    "delta": 1.0,
    "x2": 0.5,
    "t_star": 1.6487212707001281,
    "omega": 0.30326532985631671,
    "t_hat": 1.1175190687418636,
    "mho": 0.38490017945975051,
    "gamma_sk": 0.90640247705547708,
    "max_abs_g": 0.42464599248463041,
    "diag_value": 0.33458131187096824,  # G(sqrt(e), sqrt(e))
    "bound": 2.3549027135495548,
    "eigen_bound": 4.0463865404810962,
    "lambda_min": 8.52800752070978,
}
EX_B = validate(1.5, 0.25, 1.0, math.e)
EX_B_REF = {
    "delta": 1.0625,
    "x2": 0.35961179679779243,
    "t_star": 1.4327730994804238,
    "omega": 0.37441253213886333,
    "t_hat": 1.0644944589178594,
    "mho": 0.25,
    "max_abs_g": 0.41307536289527054,
    "bound": 2.4208657543527619,
    "lambda_min": 7.93111312499393,
}

_SWEEP_PARAMS = (EX_A, EX_B, validate(1.9, 0.3, 0.5, 4.0))
_BVP_PARAMS = (EX_A, EX_B, validate(1.3, 0.1, 0.5, 4.0))
# Every seeded sweep starts a fresh generator from SEED, except the first of
# green.kernel-structure, whose points on the fixed sets come from seed 7.
SEED = 20260815


def random_params(rng):
    """One parameter set: sigma in [1.05, 2], kappa a fraction 0.1-0.9 of
    sigma - 1, t1 in [0.5, 2] and ln(t2/t1) in [0.3, 1.5]."""
    sigma = float(rng.uniform(1.05, 2.0))
    kappa = float(rng.uniform(0.1, 0.9)) * (sigma - 1.0)
    t1 = float(rng.uniform(0.5, 2.0))
    t2 = t1 * math.exp(float(rng.uniform(0.3, 1.5)))
    return validate(sigma, kappa, t1, t2)


def _check_green_reference():
    for p, ref, branch in (
        (EX_A, EX_A_REF, kernel.MaxBranch.LeftEdge),
        (EX_B, EX_B_REF, kernel.MaxBranch.Diagonal),
    ):
        got = kernel.green_max(p)._asdict()
        got.update(gamma_sk=gamma(p.sigma - p.kappa), bound=bounds.lyapunov_bound(p))
        for field, want in ref.items():
            if field in got and abs(got[field] - want) > 1e-12:
                return False, f"{field} off: {got[field]!r} vs {want!r}"
        if got["branch"] is not branch:
            return False, f"branch {got['branch']} != {branch}"
    if kernel.green_max(EX_B).mho != EX_B_REF["mho"]:  # the closed form is exactly 1/4
        return False, f"EX_B mho {kernel.green_max(EX_B).mho!r} is not exactly 0.25"
    return True, "both reference parameter sets reproduced"


def _shape_fault(p, t, above, below, slack):
    """Why G's pieces at t lose their shape, or '' if they keep it.

    ``above`` and ``below`` are runs of sorted s, above and below t: xi1(t, s)
    must be non-negative and not increase along each run above, and xi2(t, s)
    not decrease along each run below, each up to ``slack``.  Also xi2(t, t1)
    <= 0, and xi1 and xi2 agree on the diagonal to 1e-12.
    """
    for run in above:
        vals = [kernel.xi1(p, t, float(s)) for s in run]
        if min(vals) < 0.0 or any(b > a + slack for a, b in zip(vals, vals[1:])):
            return f"xi1 negative or increasing in s at t={t!r}"
    for run in below:
        vals = [kernel.xi2(p, t, float(s)) for s in run]
        if any(b < a - slack for a, b in zip(vals, vals[1:])):
            return f"xi2 decreasing in s at t={t!r}"
    if kernel.xi2(p, t, p.t1) > 0.0:
        return f"xi2(t, t1) positive at t={t!r}"
    jump = abs(kernel.xi1(p, t, t) - kernel.xi2(p, t, t))
    return f"diagonal jump {jump:.2e} at t={t!r}" if jump > 1e-12 else ""


def _check_green_structure():
    rng = np.random.default_rng(7)
    for p in _SWEEP_PARAMS:
        for t in p.t1 * np.exp(p.L * rng.uniform(0.001, 0.999, 40)):
            x_frac = log_ratio(t, p.t1) / p.L
            s_up = np.sort(p.t1 * np.exp(p.L * rng.uniform(x_frac, 1.0, 8)))
            s_dn = np.sort(p.t1 * np.exp(p.L * rng.uniform(0.0, x_frac, 8)))
            fault = _shape_fault(p, t, [s_up], [s_dn], 1e-12)
            if fault:
                return False, fault
    # Seeded sets: 100 pairs above t and 100 below, compared without slack.
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        p = random_params(rng)
        t = p.t1 * math.exp(float(rng.uniform(0.05, 0.95)) * p.L)
        above = [np.sort(rng.uniform(t, p.t2, 2)) for _ in range(100)]
        below = [np.sort(rng.uniform(p.t1, t, 2)) for _ in range(100)]
        fault = _shape_fault(p, t, above, below, 0.0)
        if fault:
            return False, fault
    return True, "3 sets x 40 points and 20 seeded sets x 200 pairs keep the shape"


def _check_green_bruteforce():
    rng = np.random.default_rng(SEED)
    cases = [(p, 300) for p in _SWEEP_PARAMS]
    cases += [(random_params(rng), 2000) for _ in range(50)]
    worst = 0.0
    for p, n in cases:
        closed = kernel.green_max(p).max_abs_g
        brute, _ = grid.green_max_bruteforce(p, n)
        worst = max(worst, abs(brute - closed) / closed)
    if worst > 1e-12:
        return False, f"bruteforce disagreement {worst:.2e}"
    return True, f"{len(cases)} sets, worst relative gap {worst:.1e}"


def _check_bound_verdicts():
    v = bounds.nonexistence_check(EX_A, Expression(parse_expr("ln(t)")))
    if abs(v.q_integral - 1.0) > 1e-9:
        return False, f"integral of |ln| = {v.q_integral!r}"
    if v.kind is not VerdictKind.NoNontrivialSolution:
        return False, f"ln(t) verdict {v.kind}"
    v10 = bounds.nonexistence_check(EX_A, Constant(10.0))
    if v10.kind is not VerdictKind.Inconclusive:
        return False, f"q=10 verdict {v10.kind}"
    return True, f"integral {v.q_integral!r}, verdicts as expected"


def _check_eigen_thresholds():
    eb = bounds.eigenvalue_bound(EX_A)
    if abs(eb - EX_A_REF["eigen_bound"]) > 1e-8:
        return False, f"eigen_bound {eb!r}"
    lo = bounds.lambda_nonexistence_check(EX_A, 4.0)
    hi = bounds.lambda_nonexistence_check(EX_A, 4.1)
    at = bounds.lambda_nonexistence_check(EX_A, eb)
    ok = (
        lo.kind is VerdictKind.NoNontrivialSolution
        and hi.kind is VerdictKind.Inconclusive
        and at.kind is VerdictKind.Inconclusive
    )
    return ok, f"eigen_bound {eb!r}, 4.0/4.1/equality verdicts {'ok' if ok else 'WRONG'}"


def _check_kappa_limit():
    worst = 0.0
    for sigma in (1.3, 1.6, 1.9):
        p = validate(sigma, 1e-7, 1.0, math.e)
        approx = p.gamma_sk / kernel.omega(p)
        ref = bounds.reference_bound_kappa0(sigma, 1.0, math.e)
        worst = max(worst, abs(approx - ref) / ref)
    if worst > 1e-5:
        return False, f"kappa->0 mismatch {worst:.2e}"
    return True, f"worst relative mismatch {worst:.1e}"


def _check_power_rule():
    cases = [
        (order, k_exp, t)
        for order, k_exp in ((0.5, 1.0), (1.25, 1.5), (0.75, 0.6), (1.9, 1.1))
        for t in (1.9, 3.0)
    ]
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        order = float(rng.uniform(0.05, 1.95))
        # The Gamma-exponent of the log-power; below about 0.45 the integrand's
        # mass sits between t1 and the next double, so draws start at 0.5 and
        # still cover singular integrands.
        k_exp = float(rng.uniform(0.5, 2.0))
        cases.append((order, k_exp, math.sqrt(math.e) if rng.random() < 0.5 else math.e))
    worst = 0.0
    for order, k_exp, t in cases:
        got = operators.hadamard_integral(
            order, lambda s: math.log(s) ** (k_exp - 1.0), 1.0, t
        )
        want = operators.power_rule_reference(
            operators.OperatorKind.Integral, order, k_exp, 1.0, t
        )
        worst = max(worst, abs(got - want))
    ident = operators.hadamard_integral(0.0, Constant(4.25), 1.0, 2.0)
    if ident != 4.25:
        return False, f"order-0 identity returned {ident!r}"
    if worst > 1e-6:
        return False, f"power-rule error {worst:.2e}"
    return True, f"{len(cases)} cases, max abs error {worst:.1e}"


def _check_inversion():
    # D^a I^a f = delta^n I^(n-a) I^a f with n = ceil(a): the nested integral
    # is composition_check's, one mesh per stencil point, and delta^n is the
    # integer-order derivative.
    worst = 0.0
    for src in ("ln(t) + 0.5*ln(t)^2", "ln(t) + 1"):
        f = Expression(parse_expr(src))
        for order, t in ((0.6, 1.7), (1.3, 2.4)):
            n = math.ceil(order)

            def nested(s, _o=order, _n=n):
                return operators.composition_check(_n - _o, _o, f, 1.0, s)[0]

            back = operators.hadamard_derivative(n, nested, 1.0, t)
            worst = max(worst, abs(back - f.eval(t)))
    if worst > 1e-4:
        return False, f"inversion error {worst:.2e}"
    return True, f"max abs error {worst:.1e}"


def _check_parser():
    cases = (
        ("1+2*3", None, 7.0),
        ("2*t^2 - 1", 2.0, 7.0),
        ("ln(t)", math.e, 1.0),
        ("-2^2", None, -4.0),
        ("2^-3", None, 0.125),
        ("2^3^2", None, 512.0),
    )
    for src, t, want in cases:
        got = Expression(parse_expr(src)).eval(t if t is not None else 1.0)
        if got != want:
            return False, f"{src!r} -> {got!r}, wanted {want!r}"
    corpus = (
        "t", "-t", "2*t", "t^2", "ln(t)", "exp(t)", "sin(t)", "cos(t)",
        "abs(t)", "sqrt(t)", "1+2*3", "2*t^2-1", "-2^2", "2^-3", "2^3^2",
        "t/2/3", "1-2-3", "-(t+1)", "t*-2", "1--1", "ln(t)*exp(-t/2)",
        "sqrt(abs(t-2))", "sin(t)^2+cos(t)^2", "1/(1+exp(-t))", "t^2^0.5",
        "0.5*t+0.25", "1e3*t", ".5+t", "2.*t", "exp(ln(t))",
        "abs(-t)", "((t))", "-t^2", "(1+t)*(1-t)", "t^(1/2)",
        "ln(t)/t", "t-0.5", "10*ln(t)^2", "cos(2*t)-sin(3*t)", "t^0.5*t^0.25",
        "1/t", "-1/t^2", "exp(t^2)", "ln(ln(t))", "sqrt(t)/2",
        "(t-1)/(t+1)", "2^t", "t^t", "abs(t)^0.5", "sin(cos(t))",
        "-(t+1)/(t-1)", "2^-3^2",
    )
    for src in corpus:
        ast = parse_expr(src)
        if parse_expr(pretty(ast)) != ast:
            return False, f"round-trip failed for {src!r}"
    caught = 0
    try:
        parse_expr("2*y")
    except UnknownIdentifier as exc:
        if exc.offset != 2:
            return False, f"identifier offset {exc.offset}"
        caught += 1
    try:
        parse_expr("1+*2")
    except SyntaxError as exc:
        if getattr(exc, "offset", None) != 2:
            return False, f"syntax offset {getattr(exc, 'offset', None)}"
        caught += 1
    if caught != 2:
        return False, "malformed input accepted"
    return True, f"{len(cases)} evaluations, {len(corpus)} round-trips"


def _check_nystrom_eigen():
    worst = 0.0
    for p, ref, n in ((EX_A, EX_A_REF, 128), (EX_B, EX_B_REF, 128), (EX_A, EX_A_REF, 400)):
        res = fredholm.min_eigenvalue_modulus(p, n)
        err = abs(res.lambda_min - ref["lambda_min"]) / ref["lambda_min"]
        if err > 1e-8:
            return False, f"lambda_min {res.lambda_min!r} vs reference {ref['lambda_min']!r}"
        worst = max(worst, err)
        if not res.satisfied:
            return False, f"lambda_min {res.lambda_min!r} below analytic bound"
    # Seeded sets of interval width <= 1, where the multiplied threshold sits
    # below the divided one and the inequality is provable.
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        sigma = float(rng.uniform(1.05, 2.0))
        kappa = float(rng.uniform(0.1, 0.9)) * (sigma - 1.0)
        t1 = float(rng.uniform(0.5, 1.2))
        p = validate(sigma, kappa, t1, t1 + float(rng.uniform(0.2, 1.0)))
        res = fredholm.min_eigenvalue_modulus(p, 400)
        if not res.satisfied:
            return False, f"lambda_min {res.lambda_min!r} below analytic bound for {p!r}"
    return True, f"lambda_min within {worst:.1e} of the references, 20 seeded sets above the bound"


def _bvp_solution(p, m):
    """u = int G(t, s) h(s) ds for h(s) = (ln(s/t1))^m, in closed form.

    In x = ln(t/t1) it is B(b + 1, m + 1)/Gamma(sigma - kappa) times
    x^a L^(b+m+1-a) - x^(b+m+1), taken as x^a (L^c - x^c) with c = b + m + 1 - a.
    Returns (coef, c, L^c): u = coef x^a (L^c - x^c).
    """
    c = p.b + m + 1.0 - p.a
    coef = gamma(p.b + 1.0) * gamma(m + 1.0) / (gamma(p.b + m + 2.0) * p.gamma_sk)
    return coef, c, p.L**c


def _check_bvp_residual():
    # G is the Green's function of D^sigma x + D^kappa(q x) = 0 with x(t1) =
    # x(t2) = 0, so u = int G h solves D^sigma u + D^kappa h = 0 and vanishes
    # at both ends.  u's closed form is held against the Nystrom rows of
    # int G h at the nodes, and D^sigma u is exact by the power rule on its
    # two powers of x (D^sigma x^a = 0: 1/Gamma(0) is 0); it vanishes at both
    # ends by its factored form, so only K h is checked there.
    deriv = functools.partial(operators.power_rule_reference, operators.OperatorKind.Derivative)
    gap_k = gap_d = 0.0
    for p in _BVP_PARAMS:
        K = fredholm.nystrom_matrix(p, Constant(1.0), 128)
        xs = [log_ratio(s, p.t1) for s in fredholm._nodes(p, fredholm._mesh(p, 128)).tolist()]
        for m in (0, 1, 2):
            coef, c, l_c = _bvp_solution(p, m)
            kh = K @ [x**m for x in xs]
            if kh[0] != 0.0 or kh[-1] != 0.0:
                return False, f"K h does not vanish at t1 and t2 for m={m}, {p!r}"
            want = np.array([coef * x**p.a * (l_c - x**c) for x in xs])
            gap_k = max(gap_k, float(np.max(np.abs(kh - want)) / np.max(np.abs(want))))
            for frac in (0.25, 0.5, 0.75):
                t = p.t1 * math.exp(frac * p.L)
                d_h = deriv(p.kappa, m + 1.0, p.t1, t)
                d_x_a = deriv(p.sigma, p.a + 1.0, p.t1, t)
                d_u = coef * (l_c * d_x_a - deriv(p.sigma, p.b + m + 2.0, p.t1, t))
                gap_d = max(gap_d, abs(d_u + d_h) / abs(d_h))
    if gap_k > 1e-9:
        return False, f"K h off the closed form of int G h by {gap_k:.2e} relative"
    if gap_d > 1e-12:
        return False, f"D^sigma u + D^kappa h = {gap_d:.2e} relative to D^kappa h, not 0"
    return True, (
        f"{3 * len(_BVP_PARAMS)} cases: K h within {gap_k:.1e} relative, "
        f"|D^sigma u + D^kappa h| <= {gap_d:.1e} relative, K h = 0 at t1 and t2"
    )


_CHECKS = (
    ("green.reference-max", _check_green_reference),
    ("green.kernel-structure", _check_green_structure),
    ("green.bruteforce-agreement", _check_green_bruteforce),
    ("green.bvp-residual", _check_bvp_residual),
    ("bounds.integral-verdicts", _check_bound_verdicts),
    ("bounds.eigen-thresholds", _check_eigen_thresholds),
    ("bounds.kappa-limit", _check_kappa_limit),
    ("operators.power-rule", _check_power_rule),
    ("operators.inversion", _check_inversion),
    ("coefficient.parser", _check_parser),
    ("fredholm.eigen-example", _check_nystrom_eigen),
)

SELFTEST_NAMES = tuple(name for name, _ in _CHECKS)


def run_selftests(name_filter: str | None = None) -> list[dict]:
    """Run all checks whose name contains `name_filter`; return result dicts."""
    results = []
    for name, fn in _CHECKS:
        if name_filter and name_filter not in name:
            continue
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append({"name": name, "ok": bool(ok), "detail": str(detail)})
    return results
