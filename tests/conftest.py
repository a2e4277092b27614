import ctypes
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


def _openblas_core() -> str | None:
    """The name of the core that numpy's OpenBLAS, once loaded, dispatches to."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


@pytest.fixture(scope="session")
def dispatch_key() -> str:
    """The kernels that decide the last bits of numpy's output here: numpy's
    dispatch targets for float64 ``power`` and ``exp``, and the OpenBLAS
    core.  The frozen digests of array output are recorded per key."""
    from numpy.lib.introspect import opt_func_info

    info = opt_func_info(func_name="^(power|exp)$", signature="float64")
    power = info["power"]["ddd"]["current"]
    exp = info["exp"]["dd"]["current"]
    return f"power={power} exp={exp} blas={_openblas_core()}"
