import pytest

from hadamard_bvp import operators
from hadamard_bvp.selftest import SELFTEST_NAMES, run_selftests


@pytest.mark.parametrize("name", SELFTEST_NAMES)
def test_embedded_check_passes(name):
    [result] = [r for r in run_selftests(name_filter=name) if r["name"] == name]
    assert result["ok"], result["detail"]


def test_check_list_is_pinned():
    assert SELFTEST_NAMES == (
        "params.validation",
        "gamma.reference-values",
        "green.reference-max",
        "green.kernel-structure",
        "green.bruteforce-agreement",
        "bounds.integral-verdicts",
        "bounds.eigen-thresholds",
        "bounds.kappa-limit",
        "operators.power-rule",
        "operators.inversion",
        "coefficient.parser",
        "fredholm.nystrom-structure",
        "fredholm.eigen-example",
        "fredholm.residual-check",
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
