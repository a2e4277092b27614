"""The Nystrom lambda_min against the zero of a Mittag-Leffler function.

With q = lambda constant, in u = ln(t/t1) and with beta = sigma - kappa, the
problem D^sigma x + lambda D^kappa x = 0, x(t1) = 0 has the solutions
x = C u^(sigma - 1) E_{beta,sigma}(-lambda u^beta): the power rule applied
term by term.  So x(t2) = 0 gives lambda = z/L^beta for the zeros z of
E_{beta,sigma}(-z), and lambda_min = |z1|/L^beta for the zero z1 of least
modulus.  z1 depends on sigma and kappa only.

``_oracle_lambda_min`` sums the series at 45 digits and polishes z1 with
``mp.findroot``, seeded from the dominant eigenvalue of a dense n = 200
Nystrom block; only the seed comes from G.  mpmath is a test dependency
only.
"""

import functools

import mpmath as mp
import numpy as np
import pytest

from hadamard_bvp import fredholm, validate
from hadamard_bvp.coefficient import Constant
from hadamard_bvp.selftest import EX_A, EX_A_REF, EX_B, EX_B_REF, SEED, random_params

DPS = 45


def _mittag_leffler(beta, sigma, w):
    """E_{beta,sigma}(w) by its power series, beta > 1."""
    total, k = mp.mpf(0), 0
    while True:
        term = w**k * mp.rgamma(beta * k + sigma)
        total += term
        k += 1
        # Past k = |w| the terms fall faster than geometrically.
        if k > abs(w) and abs(term) < mp.eps:
            return total


@functools.cache
def _oracle_lambda_min(p):
    """|z1|/L^beta as an mpf at ``DPS`` digits."""
    block = fredholm.nystrom_matrix(p, Constant(1.0), 200)[1:-1, 1:-1]
    mu = np.linalg.eigvals(block)
    mu = complex(mu[np.argmax(np.abs(mu))])
    with mp.workdps(DPS):
        beta = mp.mpf(p.sigma) - mp.mpf(p.kappa)
        L_beta = mp.log(mp.mpf(p.t2) / mp.mpf(p.t1)) ** beta
        seed = L_beta / mu
        z1 = mp.findroot(lambda z: _mittag_leffler(beta, mp.mpf(p.sigma), -z), mp.mpc(seed))
        # The zero that the seed points at, not a farther one.
        assert abs(z1 - seed) < 1e-6 * abs(z1)
        return +(abs(z1) / L_beta)


# Seven sets: the two examples, wide and shifted intervals, and orders near
# the ends of their ranges; then ten seeded ones.
SETS = [
    EX_A,
    EX_B,
    validate(1.75, 0.5, 1.0, 10.0),
    validate(1.3, 0.1, 0.5, 4.0),
    validate(1.9, 0.85, 0.5, 3.0),
    validate(1.1, 0.098, 0.5, 3.0),
    validate(1.75, 0.5, 7.0, 70.0),
]
_rng = np.random.default_rng(SEED)
SEEDED = [random_params(_rng) for _ in range(10)]
SET_IDS = [f"set{i}" for i in range(len(SETS))]


@pytest.mark.parametrize("p", SETS + SEEDED, ids=SET_IDS + [f"seeded{i}" for i in range(10)])
def test_nystrom_lambda_min_matches_the_mittag_leffler_zero(p):
    want = _oracle_lambda_min(p)
    got = fredholm.min_eigenvalue_modulus(p, 400).lambda_min
    assert float(abs(got - want) / want) <= 1e-10


def test_reference_lambda_min_values_are_the_zero():
    for p, ref in ((EX_A, EX_A_REF), (EX_B, EX_B_REF)):
        want = _oracle_lambda_min(p)
        assert float(abs(ref["lambda_min"] - want) / want) <= 1e-15


@pytest.mark.parametrize("p", SETS, ids=SET_IDS)
def test_lambda_min_does_not_change_under_dilation(p):
    # lambda_min depends on t1 and t2 only through L = ln(t2/t1).
    base = fredholm.min_eigenvalue_modulus(p, 400).lambda_min
    for c in (1e-3, 7.0, 1e3):
        scaled = validate(p.sigma, p.kappa, c * p.t1, c * p.t2)
        got = fredholm.min_eigenvalue_modulus(scaled, 400).lambda_min
        assert abs(got - base) <= 1e-14 * base
