"""The closed-form Lyapunov bound against a 50-digit evaluation.

``_oracle_bound`` is a copy of ``bench/oracle.py::bound``, kept here so the
tests do not reach into the benchmark tree; mpmath is a test dependency
only.  Each regime draws parameters where one way of forming L = ln(t2/t1)
or b = sigma - kappa - 1 in double precision would lose digits.
"""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard_bvp import lyapunov_bound, validate

REL = 1e-14


def _oracle_bound(sigma: float, kappa: float, t1: float, t2: float):
    """gamma(sigma - kappa) / max(omega, mho) as an mpf at 50 digits."""
    with mp.workdps(50):
        s, k, a1 = mp.mpf(sigma), mp.mpf(kappa), mp.mpf(t1)
        L = mp.log(mp.mpf(t2) / a1)
        a = s - 1
        b = s - k - 1
        lin = L + 2 * a - k
        x1 = (lin + mp.sqrt(lin * lin - 4 * a * L)) / 2
        x2 = a * L / x1
        omega = x2**a * (L - x2) ** b / (L**a * a1 * mp.exp(x2))
        r = k / a
        mho = r * (1 - r) ** (b / k) * L**b / a1
        return +(mp.gamma(s - k) / max(omega, mho))


def _rel_error(sigma: float, kappa: float, t1: float, t2: float) -> float:
    want = _oracle_bound(sigma, kappa, t1, t2)
    return float(abs(lyapunov_bound(validate(sigma, kappa, t1, t2)) - want) / want)


def _cases(
    sigma=st.floats(1.05, 2.0),
    r=st.floats(0.05, 0.95),
    t1=st.floats(0.1, 10.0),
    L=st.floats(0.05, 5.0),
):
    """(sigma, kappa, t1, t2) with kappa = r (sigma - 1) and t2 = t1 e^L."""
    return st.builds(
        lambda s, r, t1, L: (s, r * (s - 1.0), t1, t1 * math.exp(L)), sigma, r, t1, L
    )


def _pow10(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


REGIMES = {
    "typical": _cases(),
    "narrow": _cases(L=_pow10(-12.0, -3.0)),
    "wide": _cases(t1=st.floats(1e-3, 1.0), L=st.floats(5.0, 630.0)),
    "kappa-to-0": _cases(r=_pow10(-12.0, -3.0)),
    "kappa-edge": _cases(r=_pow10(-12.0, -1.0).map(lambda d: 1.0 - d)),
    "sigma-to-1": _cases(sigma=_pow10(-12.0, -1.0).map(lambda d: 1.0 + d)),
    "t1-tiny": _cases(t1=st.floats(1.0, 10.0).map(lambda m: m * 1e-300)),
    "t1-huge": _cases(t1=st.floats(0.1, 1.0).map(lambda m: m * 1e300)),
}


@pytest.mark.parametrize("regime", REGIMES)
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_bound_matches_oracle(regime, data):
    sigma, kappa, t1, t2 = data.draw(REGIMES[regime])
    assert _rel_error(sigma, kappa, t1, t2) <= REL


def test_narrow_interval_repro():
    # An interval 1e-6 wide at t1 = 5.76: ln(t2/t1) rounded t2/t1 first and
    # lost about six digits of L.
    assert _rel_error(1.75, 0.5, 5.76, 5.760001) <= REL
