import math
import re

import pytest

from hadamard_bvp import (
    BoundaryOrderUnsupported,
    DomainInvalid,
    FracParams,
    OrderOutOfRange,
    Verdict,
    VerdictKind,
    validate,
)


def test_validate_accepts_reference_parameters():
    p = validate(1.75, 0.5, 1.0, math.e)
    assert p.sigma == 1.75 and p.kappa == 0.5
    assert p.t1 == 1.0 and p.t2 == math.e
    assert abs(p.L - 1.0) < 1e-15


def test_validate_accepts_sigma_equal_two():
    p = validate(2.0, 0.5, 0.5, 3.0)
    assert p.sigma == 2.0


def test_sigma_out_of_range():
    for sigma in (0.5, 1.0, 2.0000000000000004, 3.0, -1.0):
        with pytest.raises(OrderOutOfRange):
            validate(sigma, 0.25, 1.0, 2.0)


def test_kappa_out_of_range():
    for kappa in (0.0, -0.3, 0.9, 1.5):
        with pytest.raises(OrderOutOfRange):
            validate(1.75, kappa, 1.0, 2.0)


def test_kappa_at_boundary_rejected_exactly():
    # kappa = sigma - 1 is excluded with no epsilon slack: one ulp below passes.
    sigma = 1.75
    edge = sigma - 1.0
    with pytest.raises(BoundaryOrderUnsupported):
        validate(sigma, edge, 1.0, 2.0)
    p = validate(sigma, math.nextafter(edge, 0.0), 1.0, 2.0)
    assert p.kappa < edge


def test_domain_rejections():
    for t1, t2 in ((0.0, 2.0), (-1.0, 2.0), (2.0, 2.0), (3.0, 2.0)):
        with pytest.raises(DomainInvalid):
            validate(1.75, 0.5, t1, t2)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainInvalid):
            validate(1.75, 0.5, 1.0, bad)


@pytest.mark.parametrize("t1, t2", [(1e-300, 1e10), (5e-324, 1e-7), (1e-10, 1.7e308)])
def test_interval_beyond_float_range_is_rejected(t1, t2):
    # t2/t1 overflows: the interval is rejected, naming t1 and t2, before
    # any closed form sees it.
    with pytest.raises(DomainInvalid, match=re.escape(f"t1={t1!r}, t2={t2!r}")):
        validate(1.5, 0.25, t1, t2)
    # A ratio of 1e308 still fits, and its L is finite.
    assert math.isfinite(validate(1.5, 0.25, 1e-300, 1e8).L)


@pytest.mark.parametrize(
    "args, error",
    [
        ((3.0, 2.5, 1, 2), OrderOutOfRange),
        ((1.75, 0.75, 1.0, 2.0), BoundaryOrderUnsupported),
        ((1.75, 0.9, 1.0, 2.0), OrderOutOfRange),
        ((1.75, 0.5, 2.0, 2.0), DomainInvalid),
        ((1.75, 0.5, 1.0, math.nan), DomainInvalid),
    ],
)
def test_direct_construction_is_validated(args, error):
    # There is one construction path: FracParams itself checks the invariants.
    with pytest.raises(error):
        FracParams(*args)
    with pytest.raises(error):
        validate(*args)
    with pytest.raises(error):
        validate(1.75, 0.5, 1.0, 2.0)._replace(**dict(zip(FracParams._fields, args)))


def test_records_are_immutable_tuples():
    p = validate(1.75, 0.5, 1.0, 2.0)
    v = Verdict.from_comparison(2.0, 1.0)
    for record, field in ((p, "kappa"), (v, "bound")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.25)
        with pytest.raises(AttributeError):
            record.extra = 1
    assert p == (1.75, 0.5, 1.0, 2.0) and hash(p) == hash((1.75, 0.5, 1.0, 2.0))
    assert repr(p) == "FracParams(sigma=1.75, kappa=0.5, t1=1.0, t2=2.0)"


def test_verdict_factory_strictness():
    v = Verdict.from_comparison(bound=2.0, q_integral=1.0)
    assert v.kind is VerdictKind.NoNontrivialSolution
    assert v.bound == 2.0 and v.q_integral == 1.0
    # Equality is not a strict violation, so it stays inconclusive.
    assert Verdict.from_comparison(2.0, 2.0).kind is VerdictKind.Inconclusive
    assert Verdict.from_comparison(2.0, 2.5).kind is VerdictKind.Inconclusive


def test_verdict_soundness_bitwise():
    for bound, integral in ((1.0, 0.9999999999999999), (1.0, 1.0000000000000002), (3.5, 3.5)):
        v = Verdict.from_comparison(bound, integral)
        assert (v.kind is VerdictKind.NoNontrivialSolution) == (v.q_integral < v.bound)
