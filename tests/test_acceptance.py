"""Acceptance checks: one test per criterion, each printing a verdict line.

Each criterion is implemented once, by the `hbvp selftest` check(s) that
`CRITERIA` names; these tests run those checks and assert the criterion's
runtime budget. Each check runs once per session (the `selftest_run`
fixture), and `tests/test_selftest.py` reuses its result. Run with
`pytest tests/test_acceptance.py -v -s` to see one
`criterion N: PASS - ...` line per check.
"""

from hadamard_bvp.selftest import SELFTEST_NAMES

# criterion -> (the check(s) asserting it, runtime budget in s for them all)
CRITERIA = {
    1: (("green.reference-max",), 1e-3),
    2: (("bounds.integral-verdicts",), 50e-3),
    3: (("bounds.eigen-thresholds",), 1e-3),
    4: (("green.bruteforce-agreement",), 60.0),
    5: (("fredholm.eigen-example",), 120.0),
    6: (("operators.power-rule", "operators.inversion"), 10.0),
    7: (("bounds.kappa-limit",), 10e-3),
    8: (("green.kernel-structure",), 5.0),
    9: (("coefficient.parser",), 100e-3),
}

# The checks that no criterion names.
OTHER_CHECKS = ("green.bvp-residual",)

# Warm runtime budget in s of green.bvp-residual, whose derivative leg is
# the power rule: a numerical stencil in its place takes 40 to 47 ms.
BVP_RESIDUAL_BUDGET = 20e-3


def _assert_criterion(num, selftest_run):
    names, budget = CRITERIA[num]
    spent = 0.0
    for name in names:
        result, elapsed = selftest_run(name)
        assert result["ok"], result["detail"]
        if budget <= 1e-3:  # the first run pays for imports and first calls
            result, elapsed = selftest_run.__wrapped__(name)
            assert result["ok"], result["detail"]
        spent += elapsed
        print(f"criterion {num}: PASS - {name}: {result['detail']}, {elapsed * 1e3:.2f} ms")
    assert spent < budget


def test_criterion_map_is_pinned():
    names = [name for checks, _ in CRITERIA.values() for name in checks]
    assert set(names) <= set(SELFTEST_NAMES)
    assert sorted(CRITERIA) == list(range(1, 10))


def test_criteria_and_other_checks_cover_the_selftest_once():
    names = [name for checks, _ in CRITERIA.values() for name in checks]
    assert sorted(names + list(OTHER_CHECKS)) == sorted(SELFTEST_NAMES)


def test_criterion_1_closed_form_regression(selftest_run):
    _assert_criterion(1, selftest_run)


def test_criterion_2_integral_verdict(selftest_run):
    _assert_criterion(2, selftest_run)


def test_criterion_3_eigenvalue_thresholds(selftest_run):
    _assert_criterion(3, selftest_run)


def test_criterion_4_bruteforce_agreement(selftest_run):
    _assert_criterion(4, selftest_run)


def test_criterion_5_discrete_spectrum_respects_bound(selftest_run):
    _assert_criterion(5, selftest_run)


def test_criterion_6_power_rule_and_inversion(selftest_run):
    _assert_criterion(6, selftest_run)


def test_criterion_7_vanishing_kappa_consistency(selftest_run):
    _assert_criterion(7, selftest_run)


def test_criterion_8_kernel_shape_properties(selftest_run):
    _assert_criterion(8, selftest_run)


def test_criterion_9_parser_round_trips(selftest_run):
    _assert_criterion(9, selftest_run)


def test_bvp_residual_runs_within_its_budget(selftest_run):
    result, _ = selftest_run("green.bvp-residual")  # pays for first calls
    result, elapsed = selftest_run.__wrapped__("green.bvp-residual")
    assert result["ok"], result["detail"]
    print(f"green.bvp-residual: PASS - {result['detail']}, {elapsed * 1e3:.2f} ms")
    assert elapsed < BVP_RESIDUAL_BUDGET
