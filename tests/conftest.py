import functools
import time

import pytest

from hadamard_bvp.selftest import run_selftests


def _run_check(name: str) -> tuple[dict, float]:
    """The result of one run of the selftest check ``name`` and its seconds."""
    start = time.perf_counter()
    [result] = [r for r in run_selftests(name_filter=name) if r["name"] == name]
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def selftest_run():
    """``_run_check``, cached for the session: the acceptance criteria and
    ``test_embedded_check_passes`` share each check's one run.
    ``selftest_run.__wrapped__`` runs a check afresh."""
    return functools.cache(_run_check)
