"""Command-line interface.

Commands and the flags each one takes besides --json (all but selftest also
take the problem flags --sigma, --kappa, --t1 and --t2):

    bound
    check       one of --q-const, --q-expr, --q-table; --tol
    green eval  --t, --s
    green max
    green grid  --n, --out
    eigen       --n
    selftest    --filter

A command accepts only the flags it reads; any other flag is a usage error.
Exit codes: 0 success, 1 selftest failure, 2 usage/validation error,
3 numerical failure, 4 eigenvalue-bound violation (which would falsify the
analytic bound and must never pass silently).

All output is deterministic for identical flags.  Reals in JSON and CSV are
printed with 17 significant digits, which round-trips doubles exactly.  A
result that is not finite is never printed: it exits 3 instead.

The array modules (`fredholm`, `selftest`) are imported only inside the
commands that use them (`eigen` and `selftest`), so every other command,
`green grid` included, starts without loading numpy; no command loads
scipy.  `green grid` evaluates G on floats (`_write_grid`), not through the
array evaluation `grid._green_xy`.  Likewise the expression parser
(`expression`) loads only for `check --q-expr`, and `csv` only for
`check --q-table`.
"""

from __future__ import annotations

import argparse
import enum
import math
import sys

from . import __version__
from .bounds import DEFAULT_TOL, lyapunov_report, nonexistence_check
from .coefficient import Constant, load_table
from .errors import DomainInvalid, HadamardBVPError, NonFiniteResult, ResourceLimit
from .kernel import green_eval, green_max
from .params import FracParams, validate

__all__ = ["main", "cmd_bound", "cmd_check", "cmd_green", "cmd_eigen", "cmd_selftest"]

_USAGE_ERROR = 2
_BOUND_VIOLATION = 4

# Largest accepted `green grid --n`; the CSV has n^2 rows of about 58 bytes,
# so this caps the file at 4M rows, about 230 MB.
GRID_MAX_N = 2000


def _fmt_real(value: float) -> str:
    return format(float(value), ".17g")


# The escapes of json.dumps(text, ensure_ascii=False): a short one for the
# quote, the backslash and five control characters, \u00xx for the other
# code points below 0x20; everything else stays as it is.
_JSON_ESCAPES = str.maketrans({
    **{chr(c): f"\\u{c:04x}" for c in range(0x20)},
    '"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f",
})


def _to_json(value) -> str:
    """Serialize with fixed float formatting (17 significant digits).

    Raises NonFiniteResult for inf or nan, which JSON cannot represent.
    """
    if isinstance(value, dict):
        items = ", ".join(f"{_to_json(str(k))}: {_to_json(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteResult(f"{value!r} has no JSON representation")
        return _fmt_real(value)
    if value is None:
        return "null"
    return '"' + str(value).translate(_JSON_ESCAPES) + '"'


def _record(rec) -> dict:
    """A result record's fields in declaration order, enums by value."""
    return {k: v.value if isinstance(v, enum.Enum) else v for k, v in zip(rec._fields, rec)}


def _render(command: str, p: FracParams | None, payload: dict, as_json: bool) -> str:
    params = None if p is None else _record(p)
    if as_json:
        return _to_json({"command": command, "params": params, "payload": payload,
                         "warnings": [], "version": __version__})
    lines = [f"command: {command}"]
    if params is not None:
        joined = ", ".join(f"{k}={_fmt_real(v)}" for k, v in params.items())
        lines.append(f"params: {joined}")
    for key, value in payload.items():
        if isinstance(value, float):
            lines.append(f"{key} = {_fmt_real(value)}")
        elif isinstance(value, list):
            continue  # detail tables are printed by the command itself
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines)


def _real(text: str) -> float:
    """Strict real-number parser for CLI flags.

    Accepts decimal and exponent notation only; the constant name `e` is not
    a value (pass 2.718281828459045), and non-finite values are rejected.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a real number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"value must be finite: {text!r}")
    return value


def _params_from(args) -> FracParams:
    return validate(args.sigma, args.kappa, args.t1, args.t2)


def cmd_bound(args) -> tuple[FracParams, dict]:
    p = _params_from(args)
    rep = green_max(p)
    payload = _record(lyapunov_report(p))
    payload.update(omega=rep.omega, mho=rep.mho, x2=rep.x2, delta=rep.delta)
    return p, payload


def _coefficient_from(args):
    if args.q_const is not None:
        return Constant(args.q_const)
    if args.q_expr is not None:
        from .expression import Expression, parse_expr

        return Expression(parse_expr(args.q_expr))
    return load_table(args.q_table)


def cmd_check(args) -> tuple[FracParams, dict]:
    p = _params_from(args)
    q = _coefficient_from(args)
    verdict = nonexistence_check(p, q, tol=args.tol)
    payload = _record(lyapunov_report(p))
    payload.update(q_integral=verdict.q_integral, verdict=verdict.kind.value)
    return p, payload


def _write_grid(p: FracParams, n: int, path: str) -> None:
    """Write G on the n x n grid to ``path`` as CSV rows "t,s,G", t-major.

    Both axes are numpy.linspace(0, L, n) in log coordinates, built as
    ``bounds._scan_grid`` builds its grid.  Each value takes the operations
    of ``grid._green_xy`` in its order, on floats:

        ((x^a (L - y)^b) / L^a - (x - y)^b) / (t1 e^y Gamma(sigma - kappa)),

    with (x - y)^b only below the diagonal, so the digits do not depend on
    which SIMD kernels numpy would pick.  Raises NonFiniteResult before
    writing a row that holds inf or nan; the rows before it stay written.
    """
    L, a, b, gsk = p.L, p.a, p.b, p.gamma_sk
    step = L / (n - 1)
    us = [i * step for i in range(n - 1)] + [L]
    ts = [p.t1 * math.exp(u) for u in us]
    if not math.isfinite(ts[-1]):
        raise NonFiniteResult(f"the last grid point t1 e^L is not finite for t2={p.t2!r}")
    La = L**a
    D = [max(L - y, 0.0) ** b for y in us]
    S = [t * gsk for t in ts]
    # Each row "t,s_j,G\n" for all j is one %-template: the s columns and
    # the %.17g slots (the same digits as _fmt_real) joined by the t text.
    cols = [f",{_fmt_real(s)},%.17g\n" for s in ts]
    with open(path, "w", newline="") as fh:
        fh.write("t,s,G\n")
        for i, (x, t) in enumerate(zip(us, ts)):
            A = x**a
            row = [(A * d / La - (x - y) ** b) / s for y, d, s in zip(us[:i], D, S)]
            row += [A * d / La / s for d, s in zip(D[i:], S[i:])]
            t_text = _fmt_real(t)
            # The sum is not finite when an entry is not, and otherwise only
            # if it overflows; then the entries themselves decide.
            if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
                raise NonFiniteResult(f"G is not finite on the grid row t = {t_text}")
            fh.write((t_text + t_text.join(cols)) % tuple(row))


def cmd_green(args) -> tuple[FracParams, dict]:
    p = _params_from(args)
    if args.green_cmd == "eval":
        value = green_eval(p, args.t, args.s)
        payload = {"t": args.t, "s": args.s, "value": value}
    elif args.green_cmd == "max":
        payload = _record(green_max(p))
    else:
        if args.n < 2:
            raise DomainInvalid(f"grid needs --n >= 2, got {args.n}")
        if args.n > GRID_MAX_N:
            raise ResourceLimit(f"grid --n {args.n} exceeds cap {GRID_MAX_N}")
        _write_grid(p, args.n, args.out)
        payload = {"path": args.out, "rows": args.n * args.n}
    return p, payload


def cmd_eigen(args) -> tuple[FracParams, dict]:
    from .fredholm import min_eigenvalue_modulus

    p = _params_from(args)
    return p, _record(min_eigenvalue_modulus(p, args.n))


def cmd_selftest(args) -> tuple[None, dict]:
    from .selftest import run_selftests

    results = run_selftests(name_filter=args.filter)
    if not results:
        raise DomainInvalid(f"no selftest check name contains --filter {args.filter!r}")
    payload = {
        "total": len(results),
        "passed": sum(1 for r in results if r["ok"]),
        "failed": sum(1 for r in results if not r["ok"]),
        "checks": results,
    }
    return None, payload


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    pp = argparse.ArgumentParser(add_help=False)
    pp.add_argument("--sigma", type=_real, required=True, help="leading order, 1 < sigma <= 2")
    pp.add_argument("--kappa", type=_real, required=True, help="inner order, 0 < kappa < sigma-1")
    pp.add_argument("--t1", type=_real, required=True, help="left endpoint, t1 > 0")
    pp.add_argument("--t2", type=_real, required=True, help="right endpoint, t2 > t1")

    top = argparse.ArgumentParser(
        prog="hbvp",
        description=(
            "Green's function maxima, Lyapunov-type integral bounds, and "
            "nonexistence verdicts for Hadamard fractional boundary value "
            "problems with two derivative orders."
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser("bound", parents=[common, pp], help="closed-form bound report")

    p_check = sub.add_parser("check", parents=[common, pp], help="nonexistence verdict for q")
    p_check.add_argument("--tol", type=_real, default=DEFAULT_TOL, help="quadrature tolerance")
    grp = p_check.add_mutually_exclusive_group(required=True)
    grp.add_argument("--q-const", type=_real, help="constant coefficient value")
    grp.add_argument("--q-expr", help="coefficient expression in t, e.g. 'ln(t)'")
    grp.add_argument("--q-table", help="CSV file with header 't,q'")

    p_green = sub.add_parser("green", help="Green's function values and maxima")
    gsub = p_green.add_subparsers(dest="green_cmd", required=True)
    g_eval = gsub.add_parser("eval", parents=[common, pp], help="G(t, s) at a point")
    g_eval.add_argument("--t", type=_real, required=True)
    g_eval.add_argument("--s", type=_real, required=True)
    gsub.add_parser("max", parents=[common, pp], help="closed-form maximum report")
    g_grid = gsub.add_parser("grid", parents=[common, pp], help="CSV grid of G values")
    g_grid.add_argument(
        "--n", type=int, default=100, help=f"grid points per axis (2 to {GRID_MAX_N})"
    )
    g_grid.add_argument("--out", required=True, help="output CSV path")

    p_eigen = sub.add_parser("eigen", parents=[common, pp], help="Nystrom eigenvalue check")
    p_eigen.add_argument("--n", type=int, default=400, help="mesh size (>= 32)")

    p_self = sub.add_parser("selftest", parents=[common], help="run embedded checks")
    p_self.add_argument("--filter", help="only run checks whose name contains this")

    return top


_DISPATCH = {
    "bound": cmd_bound,
    "check": cmd_check,
    "green": cmd_green,
    "eigen": cmd_eigen,
    "selftest": cmd_selftest,
}


def _is_finite(value) -> bool:
    """False if any float in value, at any depth of lists and dicts, is inf or nan."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(map(_is_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(_is_finite, value))
    return True


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        p, payload = _DISPATCH[args.command](args)
        for key, value in payload.items():
            if not _is_finite(value):
                raise NonFiniteResult(f"{key} is not finite")
    except (HadamardBVPError, OSError) as exc:
        # Package errors carry their exit code; a file that cannot be read
        # is a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", _USAGE_ERROR)

    exit_code = 0
    if args.command == "selftest":
        if not args.json:
            for check in payload["checks"]:
                status = "PASS" if check["ok"] else "FAIL"
                print(f"{status}  {check['name']}  ({check['detail']})")
        if payload["failed"]:
            exit_code = 1
    if args.command == "eigen" and not payload["satisfied"]:
        exit_code = _BOUND_VIOLATION

    print(_render(args.command, p, payload, args.json))
    return exit_code
