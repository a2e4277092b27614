import re

import pytest

from hadamard_bvp import FracParams, bounds, fredholm, kernel, operators, selftest
from hadamard_bvp.errors import UnknownIdentifier
from hadamard_bvp.expression import parse_expr
from hadamard_bvp.params import VerdictKind
from hadamard_bvp.selftest import EX_A, EX_B, SELFTEST_NAMES, run_selftests

# FracParams with the kernel exponents a = sigma - 1 and b = sigma - kappa - 1
# exchanged.
_SWAPPED_A = property(lambda p: p.sigma - p.kappa - 1.0)
_SWAPPED_B = property(lambda p: p.sigma - 1.0)


@pytest.mark.parametrize("name", SELFTEST_NAMES)
def test_embedded_check_passes(name, selftest_run):
    # A check that an acceptance criterion names has run once already, in
    # tests/test_acceptance.py, when the whole suite runs.
    result, _ = selftest_run(name)
    assert result["ok"], result["detail"]


def test_check_list_is_pinned():
    assert SELFTEST_NAMES == (
        "green.reference-max",
        "green.kernel-structure",
        "green.bruteforce-agreement",
        "green.bvp-residual",
        "bounds.integral-verdicts",
        "bounds.eigen-thresholds",
        "bounds.kappa-limit",
        "operators.power-rule",
        "operators.inversion",
        "coefficient.parser",
        "fredholm.eigen-example",
    )


def test_inversion_check_builds_one_mesh_per_stencil_point(monkeypatch):
    # Two functions at two orders a, each differenced at n = ceil(a) over
    # four stencil points (n = 1) or five (n = 2, the centre shared by both
    # steps), and each stencil point's nested integral I^(n-a) I^a f on one
    # mesh: 2 * (4 + 5) meshes.
    built = []
    config_mesh = operators._config_mesh
    monkeypatch.setattr(operators, "_config_mesh", lambda *a: built.append(a) or config_mesh(*a))
    [result] = run_selftests(name_filter="operators.inversion")
    assert result["ok"], result["detail"]
    assert len(built) <= 18


def test_bvp_residual_fails_when_the_kernel_exponents_are_swapped(monkeypatch):
    # Swapped everywhere, the closed form of int G h still matches the
    # Nystrom rows, but no longer solves D^sigma u + D^kappa h = 0.
    monkeypatch.setattr(FracParams, "a", _SWAPPED_A)
    monkeypatch.setattr(FracParams, "b", _SWAPPED_B)
    [result] = run_selftests(name_filter="green.bvp-residual")
    assert not result["ok"]
    assert result["detail"].startswith("D^sigma u + D^kappa h")


def test_bvp_residual_fails_when_only_the_nystrom_exponents_are_swapped(monkeypatch):
    class Swapped(FracParams):
        __slots__ = ()
        a, b = _SWAPPED_A, _SWAPPED_B

    assemble = fredholm.nystrom_matrix
    monkeypatch.setattr(fredholm, "nystrom_matrix", lambda p, q, n: assemble(Swapped(*p), q, n))
    [result] = run_selftests(name_filter="green.bvp-residual")
    assert not result["ok"]
    assert result["detail"].startswith("K h off the closed form")


def test_bvp_residual_takes_no_numerical_derivative(monkeypatch):
    # D^sigma u comes from the power rule; operators.inversion covers
    # hadamard_derivative.
    def refuse(*args):
        raise AssertionError("hadamard_derivative called")

    monkeypatch.setattr(operators, "hadamard_derivative", refuse)
    [result] = run_selftests(name_filter="green.bvp-residual")
    assert result["ok"], result["detail"]


def _change(module, name, change):
    """A break: each result of ``module.name`` passes through ``change``,
    which also gets the call's arguments."""

    def apply(monkeypatch):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: change(original(*args), *args))

    return apply


def _parse_instead(text, outcome):
    """A break: ``selftest.parse_expr(text)`` raises ``outcome`` if it is an
    exception and returns it otherwise; other texts parse as before."""

    def parse(src):
        if src != text:
            return parse_expr(src)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    return lambda monkeypatch: monkeypatch.setattr(selftest, "parse_expr", parse)


# (check, break, pattern its failure detail matches), one or more per check.
BREAKS = {
    "green-max-field": ("green.reference-max",
                        _change(kernel, "green_max",
                                lambda r, p: r._replace(max_abs_g=r.max_abs_g * (1 + 1e-9))),
                        "max_abs_g off: "),
    "green-max-branch": ("green.reference-max",
                         _change(kernel, "green_max",
                                 lambda r, p: r._replace(branch=kernel.MaxBranch.Diagonal)),
                         "branch "),
    "green-max-mho": ("green.reference-max",
                      _change(kernel, "green_max", lambda r, p: r._replace(mho=r.mho + 1e-16)),
                      "EX_B mho .* is not exactly 0.25$"),
    "xi1-negative": ("green.kernel-structure", _change(kernel, "xi1", lambda v, p, t, s: v - 1.0),
                     "xi1 negative or increasing in s"),
    "xi2-decreasing": ("green.kernel-structure", _change(kernel, "xi2", lambda v, p, t, s: -v),
                       "xi2 decreasing in s"),
    "xi2-positive-at-t1": ("green.kernel-structure",
                           _change(kernel, "xi2", lambda v, p, t, s: v + 10.0),
                           r"xi2\(t, t1\) positive"),
    "seeded-shape": ("green.kernel-structure",
                     _change(kernel, "xi1",
                             lambda v, p, t, s: v if p in selftest._SWEEP_PARAMS else v - 1.0),
                     "xi1 negative or increasing in s"),
    "diagonal-jump": ("green.kernel-structure",
                      _change(kernel, "xi2", lambda v, p, t, s: v - 1e-9),
                      "diagonal jump"),
    "bruteforce": ("green.bruteforce-agreement",
                   _change(kernel, "green_max",
                           lambda r, p: r._replace(max_abs_g=r.max_abs_g * (1 + 1e-9))),
                   "bruteforce disagreement"),
    "kh-at-the-ends": ("green.bvp-residual",
                       _change(fredholm, "nystrom_matrix", lambda k, p, q, n: k + 1.0),
                       "K h does not vanish at t1 and t2"),
    # Within the K h leg's 1e-9; the exact derivative leg must see it.
    "u-coefficient": ("green.bvp-residual",
                      _change(selftest, "_bvp_solution",
                              lambda r, p, m: (r[0] * (1 + 1e-10), *r[1:])),
                      r"D\^sigma u \+ D\^kappa h = "),
    "integral": ("bounds.integral-verdicts",
                 _change(bounds, "integrate_abs_q", lambda v, *args: v * (1 + 1e-6)),
                 r"integral of \|ln\| = "),
    "ln-verdict": ("bounds.integral-verdicts", _change(bounds, "lyapunov_bound", lambda v, p: 0.5),
                   r"ln\(t\) verdict "),
    "q10-verdict": ("bounds.integral-verdicts",
                    _change(bounds, "lyapunov_bound", lambda v, p: 1e3),
                    "q=10 verdict "),
    "eigen-bound": ("bounds.eigen-thresholds",
                    _change(bounds, "eigenvalue_bound", lambda v, p: v * (1 + 1e-7)),
                    r"eigen_bound [0-9.]+$"),
    "eigen-verdicts": ("bounds.eigen-thresholds",
                       _change(bounds, "lambda_nonexistence_check",
                               lambda v, p, lam: v._replace(kind=VerdictKind.Inconclusive)),
                       "eigen_bound .* verdicts WRONG$"),
    "kappa-limit": ("bounds.kappa-limit",
                    _change(bounds, "reference_bound_kappa0", lambda v, *args: v * (1 + 1e-4)),
                    "kappa->0 mismatch"),
    "order-0-identity": ("operators.power-rule",
                         _change(operators, "hadamard_integral", lambda v, *args: v * (1 + 1e-15)),
                         "order-0 identity returned"),
    "power-rule": ("operators.power-rule",
                   _change(operators, "power_rule_reference", lambda v, *args: v * (1 + 1e-5)),
                   "power-rule error"),
    "inversion": ("operators.inversion",
                  _change(operators, "hadamard_derivative", lambda v, *args: v * (1 + 1e-3)),
                  "inversion error"),
    "parser-evaluation": ("coefficient.parser", _parse_instead("1+2*3", parse_expr("1+2*4")),
                          r"'1\+2\*3' -> 9\.0, wanted 7\.0$"),
    "parser-round-trip": ("coefficient.parser", _change(selftest, "pretty", lambda text, ast: "t"),
                          "round-trip failed for '-t'$"),
    "identifier-offset": ("coefficient.parser", _parse_instead("2*y", UnknownIdentifier("y", 0)),
                          "identifier offset 0$"),
    "syntax-offset": ("coefficient.parser", _parse_instead("1+*2", SyntaxError("bad")),
                      "syntax offset None$"),
    "malformed-accepted": ("coefficient.parser", _parse_instead("1+*2", None),
                           "malformed input accepted$"),
    "lambda-reference": ("fredholm.eigen-example",
                         _change(fredholm, "min_eigenvalue_modulus",
                                 lambda r, p, n: r._replace(lambda_min=r.lambda_min * (1 + 1e-7))),
                         "lambda_min .* vs reference "),
    "lambda-below-bound": ("fredholm.eigen-example",
                           _change(fredholm, "min_eigenvalue_modulus",
                                   lambda r, p, n: r._replace(satisfied=False)),
                           "lambda_min .* below analytic bound$"),
    "seeded-below-bound": ("fredholm.eigen-example",
                           _change(fredholm, "min_eigenvalue_modulus",
                                   lambda r, p, n: r._replace(satisfied=p in (EX_A, EX_B))),
                           "lambda_min .* below analytic bound for FracParams"),
}


def test_every_check_has_a_break():
    assert {name for name, _, _ in BREAKS.values()} == set(SELFTEST_NAMES)


@pytest.mark.parametrize("case", BREAKS)
def test_check_fails_when_its_subject_is_broken(case, monkeypatch):
    name, brk, detail = BREAKS[case]
    brk(monkeypatch)
    [result] = [r for r in run_selftests(name_filter=name) if r["name"] == name]
    assert not result["ok"]
    assert re.match(detail, result["detail"]), result["detail"]
