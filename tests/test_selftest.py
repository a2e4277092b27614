import pytest

from hadamard_bvp.selftest import SELFTEST_NAMES, run_selftests


@pytest.mark.parametrize("name", SELFTEST_NAMES)
def test_embedded_check_passes(name):
    [result] = [r for r in run_selftests(name_filter=name) if r["name"] == name]
    assert result["ok"], result["detail"]
