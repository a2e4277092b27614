import pytest

from hadamard_bvp import FracParams, fredholm, operators
from hadamard_bvp.selftest import SELFTEST_NAMES, run_selftests

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
        "params.validation",
        "gamma.reference-values",
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
        "fredholm.nystrom-structure",
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
