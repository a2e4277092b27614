"""Acceptance checks: one test per criterion, each printing a verdict line.

Each criterion is implemented once, by the `hbvp selftest` check(s) that
`CRITERIA` names; these tests run those checks and assert the criterion's
runtime budget. Run with `pytest tests/test_acceptance.py -v -s` to see one
`criterion N: PASS - ...` line per check.
"""

import time

from hadamard_bvp.selftest import SELFTEST_NAMES, run_selftests

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


def _run(name):
    start = time.perf_counter()
    [result] = [r for r in run_selftests(name_filter=name) if r["name"] == name]
    elapsed = time.perf_counter() - start
    assert result["ok"], result["detail"]
    return result, elapsed


def _assert_criterion(num):
    names, budget = CRITERIA[num]
    spent = 0.0
    for name in names:
        result, elapsed = _run(name)
        if budget <= 1e-3:  # the first run pays for imports and first calls
            result, elapsed = _run(name)
        spent += elapsed
        print(f"criterion {num}: PASS - {name}: {result['detail']}, {elapsed * 1e3:.2f} ms")
    assert spent < budget


def test_criterion_map_is_pinned():
    names = [name for checks, _ in CRITERIA.values() for name in checks]
    assert set(names) <= set(SELFTEST_NAMES)
    assert sorted(CRITERIA) == list(range(1, 10))


def test_criterion_1_closed_form_regression():
    _assert_criterion(1)


def test_criterion_2_integral_verdict():
    _assert_criterion(2)


def test_criterion_3_eigenvalue_thresholds():
    _assert_criterion(3)


def test_criterion_4_bruteforce_agreement():
    _assert_criterion(4)


def test_criterion_5_discrete_spectrum_respects_bound():
    _assert_criterion(5)


def test_criterion_6_power_rule_and_inversion():
    _assert_criterion(6)


def test_criterion_7_vanishing_kappa_consistency():
    _assert_criterion(7)


def test_criterion_8_kernel_shape_properties():
    _assert_criterion(8)


def test_criterion_9_parser_round_trips():
    _assert_criterion(9)
