"""Reference values computed with mpmath, independently of hadamard_bvp.

Two oracles:

* ``bound``: the closed-form Lyapunov threshold gamma(sigma - kappa) /
  max(omega, mho) evaluated at 50 significant digits, with L = ln(t2/t1)
  taken exactly from the double inputs.
* ``abs_integral``: the integral of |q| over [t1, t2] for every coefficient
  shape the workloads generate.  The interval is split at table knots, sign
  changes and cusps; on each piece q has one sign and a closed-form
  antiderivative, so the piece contributes |F(b) - F(a)| exactly.

Coefficients are described by small tagged tuples (see ``workloads``); the
same tuple renders the expression string handed to the library, so both
sides see identical double constants.
"""

from __future__ import annotations

import mpmath as mp

DPS = 50


def bound(sigma: float, kappa: float, t1: float, t2: float):
    """gamma(sigma - kappa) / max(omega, mho) as an mpf at 50 digits."""
    with mp.workdps(DPS):
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


def _pieces_sum(F, t1, t2, cuts):
    """Sum of |F(b) - F(a)| over [t1, t2] split at the sorted cuts inside it."""
    points = [t1] + [c for c in sorted(cuts) if t1 < c < t2] + [t2]
    return mp.fsum(abs(F(b) - F(a)) for a, b in zip(points, points[1:]))


def _periodic_roots(w, offset, t1, t2):
    """Roots of sin/cos(w t) in (t1, t2): t = (j + offset) pi / w."""
    lo = int(mp.floor(w * t1 / mp.pi - offset)) + 1
    hi = int(mp.ceil(w * t2 / mp.pi - offset)) - 1
    return [(j + offset) * mp.pi / w for j in range(lo, hi + 1)]


def abs_integral(spec, t1: float, t2: float):
    """Integral of |q| over [t1, t2] for a coefficient spec, as an mpf."""
    kind = spec[0]
    with mp.workdps(DPS):
        a, b = mp.mpf(t1), mp.mpf(t2)
        if kind == "const":
            return abs(mp.mpf(spec[1])) * (b - a)
        if kind == "table":
            return _table_integral(spec[1], spec[2], a, b)
        A = mp.mpf(spec[1])
        if kind == "ln":
            return abs(A) * _pieces_sum(lambda t: t * mp.log(t) - t, a, b, [mp.mpf(1)])
        if kind == "quad":
            r1, r2 = mp.mpf(spec[2]), mp.mpf(spec[3])
            F = lambda t: t**3 / 3 - (r1 + r2) * t**2 / 2 + r1 * r2 * t
            return abs(A) * _pieces_sum(F, a, b, [r1, r2])
        if kind == "cusp":
            c = mp.mpf(spec[2])
            F = lambda t: mp.sign(t - c) * 2 * abs(t - c) ** mp.mpf(1.5) / 3
            return abs(A) * _pieces_sum(F, a, b, [c])
        w = mp.mpf(spec[2])
        if kind == "sin":
            roots = _periodic_roots(w, 0, a, b)
            F = lambda t: -mp.cos(w * t) / w
            if len(roots) > 2:
                # Every whole half-period between two roots contributes 2/w.
                inner = (len(roots) - 1) * 2 / w
                return abs(A) * (inner + _pieces_sum(F, a, roots[0], []) + _pieces_sum(F, roots[-1], b, []))
            return abs(A) * _pieces_sum(F, a, b, roots)
        if kind == "expcos":
            F = lambda t: mp.exp(-t) * (w * mp.sin(w * t) - mp.cos(w * t)) / (1 + w * w)
            return abs(A) * _pieces_sum(F, a, b, _periodic_roots(w, mp.mpf(0.5), a, b))
    raise ValueError(f"unknown coefficient spec {kind!r}")


def _table_integral(ts, vs, a, b):
    """Exact integral of |q| for a table, linear in ln t between knots."""
    total = mp.mpf(0)
    for (ta, va), (tb, vb) in zip(zip(ts, vs), zip(ts[1:], vs[1:])):
        lo, hi = max(mp.mpf(ta), a), min(mp.mpf(tb), b)
        if not lo < hi:
            continue
        la, lb = mp.log(mp.mpf(ta)), mp.log(mp.mpf(tb))
        beta = (mp.mpf(vb) - mp.mpf(va)) / (lb - la)
        alpha = mp.mpf(va) - beta * la
        # q = alpha + beta ln t, antiderivative alpha t + beta (t ln t - t)
        F = lambda t: alpha * t + beta * (t * mp.log(t) - t)
        cuts = [mp.exp(-alpha / beta)] if beta != 0 else []
        total += _pieces_sum(F, lo, hi, cuts)
    return total
