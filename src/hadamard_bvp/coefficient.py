"""Coefficient functions q(t): constants and sampled tables.

Parsed expressions (``Expression``, ``parse_expr``) live in ``expression``,
which is loaded only when a command reads one.

Tables interpolate linearly in ln t rather than t: all kernel structure in
this package lives in ln(t/t1), so log-linear interpolation is the
representation that keeps table coefficients well behaved near t1.  Between
knots t_k < t < t_{k+1} a table is v_k + s_k ln(t/t_k), with the slope
s_k = (v_{k+1} - v_k) / ln(t_{k+1}/t_k) and both logarithms formed by
``params.log_ratio``; at a knot it is the knot's value exactly.  So the
integral of |q| over a range of the table has a closed form,
``Table.abs_integral``, as a constant's has, ``Constant.abs_integral``.
``bounds.integrate_abs_q`` takes the closed form of every coefficient that
defines ``abs_integral``, so this module alone decides which kinds have
one, and a constant or a table is never sampled to integrate it.

``sampler(q)`` is the one place that decides whether a value of q is valid,
for a Coefficient and for a plain callable alike: ``bounds.integrate_abs_q``,
the operators and the Nystrom matrix (``fredholm.nystrom_matrix``)
evaluate q only through it, and ``eval_coefficient`` applies its rule for a
Coefficient to a single value.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from collections.abc import Iterable
from operator import itemgetter

from .errors import (
    DomainInvalid, EvalError, NonFiniteResult, OutOfTableRange, QuadratureFailure, ResourceLimit,
)
from .params import log_ratio, parse_decimal

# Most characters `load_table` reads from a file (16 Mi): about 430 000 rows
# of two 17-digit cells, or 1.8 million of the shortest.  It stops reading at
# the cap, so a larger file, or one with no line break, costs no more.
TABLE_MAX_CHARS = 2**24


class Coefficient:
    """Base class for coefficient functions on [t1, t2]."""

    __slots__ = ()

    def eval(self, t: float) -> float:
        raise NotImplementedError


class Constant(Coefficient, namedtuple("Constant", "value")):
    __slots__ = ()

    def eval(self, t: float) -> float:
        return self.value

    def abs_integral(self, t1: float, t2: float) -> float:
        """Integral of |q| over [t1, t2], |c| (t2 - t1), with no sampling of
        q: the same floats as a flat Table's closed form.  c is checked as
        a value sampled at t1 would be (EvalError); NonFiniteResult when
        the product overflows."""
        value = _checked((self.value,), (t1,), EvalError)[0]
        return finite_integral(abs(value) * (t2 - t1), t1, t2)


# Coefficients (n - 1)/n! of d^n in phi(d) = (d - 1) e^d + 1, from n = 20
# down to n = 2; the terms past n = 20 are below 1e-17 of phi for |d| < 1.
_PHI_SERIES = tuple((n - 1) / math.factorial(n) for n in range(20, 1, -1))


def _t_phi(tc: float, to: float, d: float) -> float:
    """tc * phi(d) for to = tc e^d, where phi(d) = (d - 1) e^d + 1 >= 0.

    For |d| < 1, where the closed form cancels, phi comes from its series;
    otherwise the product is to (d - 1) + tc, which cannot overflow.
    """
    if abs(d) >= 1.0:
        return to * (d - 1.0) + tc
    acc = 0.0
    for c in _PHI_SERIES:
        acc = acc * d + c
    return tc * acc * d * d


_knot = itemgetter(0)


class Table(Coefficient, namedtuple("Table", "points")):
    """Sampled coefficient, linear interpolation in (ln t, value).

    Knots must be finite, strictly increasing and positive, and values
    finite; at least two knots.  Queries outside the knot range raise
    OutOfTableRange.
    """

    __slots__ = ()

    def __new__(cls, points: Iterable[tuple[float, float]]):
        pts = tuple((float(t), float(v)) for t, v in points)
        if len(pts) < 2:
            raise DomainInvalid("table needs at least 2 points")
        for t, v in pts:
            if not (math.isfinite(t) and math.isfinite(v)):
                raise DomainInvalid(f"table entries must be finite, got t={t!r}, q={v!r}")
        for (ta, _), (tb, _) in zip(pts, pts[1:]):
            if not ta < tb:
                raise DomainInvalid(f"table knots must be strictly increasing, got {ta!r} >= {tb!r}")
        if pts[0][0] <= 0.0:
            raise DomainInvalid("table knots must be positive")
        return super().__new__(cls, pts)

    @classmethod
    def _make(cls, iterable):
        """Build from an iterable through the checks (``_replace`` uses this)."""
        return cls(*iterable)

    def _slope(self, k: int) -> float:
        """dq/d(ln t) between knots k and k + 1."""
        (ta, va), (tb, vb) = self.points[k], self.points[k + 1]
        return (vb - va) / log_ratio(tb, ta)

    def _check_range(self, t: float) -> None:
        """OutOfTableRange unless the knots cover t."""
        pts = self.points
        if not pts[0][0] <= t <= pts[-1][0]:
            raise OutOfTableRange(f"t={t!r} outside table range [{pts[0][0]!r}, {pts[-1][0]!r}]")

    def eval(self, t: float) -> float:
        self._check_range(t)
        pts = self.points
        k = bisect.bisect_right(pts, t, key=_knot) - 1
        tk, vk = pts[k]
        if t == tk:
            return vk
        return vk + self._slope(k) * log_ratio(t, tk)

    def abs_integral(self, t1: float, t2: float) -> float:
        """Exact integral of |q| over [t1, t2], with no evaluation of q.

        On each knot interval, cut to [lo, hi] by [t1, t2], q is linear in
        u = ln(t/lo) with the slope s.  A strict sign change of q splits the
        piece at its root, which stays in u.  Each part is anchored at the
        end c where |q| is smallest (the root, if any), and with
        d = ln(t_o/t_c) to its other end o it integrates to

            |q_c| |t_o - t_c| + |s| t_c phi(d),   phi(d) = (d - 1) e^d + 1.

        Both terms are non-negative, so nothing cancels; a zero slope drops
        the second.  Raises OutOfTableRange when the knots do not cover
        [t1, t2], EvalError for a slope that is not finite and
        NonFiniteResult when a term or the sum overflows.
        """
        self._check_range(t1)
        self._check_range(t2)
        pts = self.points
        first = bisect.bisect_right(pts, t1, key=_knot) - 1
        end = bisect.bisect_left(pts, t2, key=_knot)
        pieces = []
        for k in range(first, end):
            (ta, va), (tb, vb) = pts[k], pts[k + 1]
            s = self._slope(k)
            if not math.isfinite(s):
                raise EvalError(f"table slope on [{ta!r}, {tb!r}] is {s!r}")
            lo, hi = max(t1, ta), min(t2, tb)
            q_lo = va if lo == ta else va + s * log_ratio(lo, ta)
            q_hi = vb if hi == tb else va + s * log_ratio(hi, ta)
            u = log_ratio(hi, lo)
            if s == 0.0:
                # No slope term: |s| t_c phi(d) would be 0 * inf past d ~ 700.
                pieces.append(abs(va) * (hi - lo))
            elif (q_lo < 0.0 < q_hi) or (q_hi < 0.0 < q_lo):
                root = u * q_lo / (q_lo - q_hi)
                t_root = lo * math.exp(root) if root <= 0.5 * u else hi * math.exp(root - u)
                pieces.append(abs(s) * (_t_phi(t_root, lo, -root) + _t_phi(t_root, hi, u - root)))
            elif abs(q_lo) <= abs(q_hi):
                pieces.append(abs(q_lo) * (hi - lo) + abs(s) * _t_phi(lo, hi, u))
            else:
                pieces.append(abs(q_hi) * (hi - lo) + abs(s) * _t_phi(hi, lo, -u))
        try:
            total = math.fsum(pieces)
        except OverflowError:
            total = math.inf
        return finite_integral(total, t1, t2)


def finite_integral(total: float, t1: float, t2: float) -> float:
    """``total``, an integral of |q| over [t1, t2] or a part of it, unless it
    overflowed: NonFiniteResult then."""
    if not math.isfinite(total):
        raise NonFiniteResult(f"integral of |q| over [{t1!r}, {t2!r}] is not finite")
    return total


def _checked(values, ts, fault):
    """``values``, which q took at the points ``ts``, if they are finite
    reals: EvalError for a value that is not a real number, ``fault`` for
    the first one that is not finite."""
    try:
        if all(map(math.isfinite, values)):
            return values
    except TypeError as exc:
        raise EvalError(f"coefficient value is not a real number: {exc}") from None
    value, t = next((v, t) for v, t in zip(values, ts) if not math.isfinite(v))
    raise fault(f"coefficient evaluated to {value!r} at t={t!r}")


def eval_coefficient(q: Coefficient, t: float) -> float:
    """Evaluate a coefficient at t; raises EvalError / OutOfTableRange."""
    if not isinstance(q, Coefficient):
        raise DomainInvalid(f"not a Coefficient: {q!r}")
    return _checked((q.eval(t),), (t,), EvalError)[0]


def sampler(q):
    """The function that maps a list of points to q's values there.

    This is the one place that decides whether a value of q is valid.  q is
    a Coefficient or a plain callable; anything else is DomainInvalid.  q
    is evaluated at every point before any value is checked.  A value that
    is not a real number, such as a complex one from a plain callable, is
    an EvalError.  A value that is not finite is an EvalError from a
    Coefficient and a QuadratureFailure from a plain callable.
    """
    if isinstance(q, Coefficient):
        f, fault = q.eval, EvalError
    elif callable(q):
        f, fault = q, QuadratureFailure
    else:
        raise DomainInvalid(f"coefficient must be a Coefficient or callable, got {q!r}")
    return lambda ts: _checked(list(map(f, ts)), ts, fault)


def _capped_lines(fh, path: str):
    """The lines of ``fh``, opened from ``path``; ResourceLimit once they pass
    ``TABLE_MAX_CHARS`` characters, without reading the rest of the line
    that passes the cap."""
    budget = TABLE_MAX_CHARS
    while line := fh.readline(budget + 1):
        budget -= len(line)
        if budget < 0:
            raise ResourceLimit(f"{path}: table exceeds cap {TABLE_MAX_CHARS} characters")
        yield line


def _knots(rows, path: str):
    """The ``(t, q)`` pair of each data row of the csv reader ``rows``, read
    by ``parse_decimal``; blank rows are skipped and any other row that is
    not two cells is a DomainInvalid naming ``<path>:<line>``."""
    for row in rows:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise DomainInvalid(f"{path}:{rows.line_num}: expected two columns, got {len(row)}")
        try:
            yield parse_decimal(row[0]), parse_decimal(row[1])
        except ValueError as exc:
            raise DomainInvalid(f"{path}:{rows.line_num}: {exc}") from exc


def load_table(path: str) -> Table:
    """Read a CSV table with header ``t,q`` into a Table coefficient.

    The file is UTF-8, with or without the byte-order mark that spreadsheet
    "CSV UTF-8" exports write; other bytes are a DomainInvalid.  Every cell
    is read by ``parse_decimal``, as flag values are: an ASCII decimal
    literal that is finite.  A cell that is not, ``1_5`` or ``1e999`` say,
    or one longer than the csv module's field limit, is a DomainInvalid
    naming ``<path>:<line>``, the line its row ends on.  A file of more than
    ``TABLE_MAX_CHARS`` characters is a ResourceLimit.  The Table is built
    from the rows as they are read, so the knots are held once, not also in
    a list while it is made.
    """
    import csv

    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = csv.reader(_capped_lines(fh, path))
        try:
            if [cell.strip() for cell in next(rows, [])] != ["t", "q"]:
                raise DomainInvalid(f"{path}: expected CSV header 't,q'")
            return Table(_knots(rows, path))
        except UnicodeDecodeError as exc:
            raise DomainInvalid(f"{path}: not UTF-8 text") from exc
        except csv.Error as exc:
            raise DomainInvalid(f"{path}:{rows.line_num}: {exc}") from exc
