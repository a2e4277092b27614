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
Each leaf command is one row of `_LEAVES`: its words, help line, flags and
the `cmd_*` that runs it.  `main` parses through `_parse_args`: when argv
starts with a leaf's words it builds only that leaf's parser (`_leaf_parser`);
the full tree (`_build_parser`) is built only for anything else (no command,
an unknown one, help at the top level or for `green`) and for a leaf call
that leaves arguments over, so that usage text, errors and the parsed args
are the same either way.  `main` validates the problem flags once
(`_params_from`), then runs the leaf's `cmd_*` on the parameters and args.
Exit codes: 0 success, 1 selftest failure, 2 usage/validation error,
3 numerical failure, 4 eigenvalue-bound violation (which would falsify the
analytic bound and must never pass silently).  Codes 2 and 3 come from the
package's typed errors (a file that cannot be read is a usage error); codes
1 and 4 are a command's own result: each `cmd_*` returns its payload and its
exit code, `cmd_selftest` 1 when a check failed and `cmd_eigen` 4 when the
Nystrom estimate is not `satisfied`.

All output is deterministic for identical flags.  Reals in JSON and CSV are
printed with 17 significant digits, which round-trips doubles exactly.  A
result that is not finite is never printed: `main` renders the whole report
before it prints anything, and the JSON serializer `_to_json`, which builds
the report in both modes (the text report is a view of the same payload),
raises NonFiniteResult (exit 3, nothing on stdout) for an inf or nan at any
depth.  Commands never print.

The array modules (`fredholm`, `selftest`) are imported only inside the
commands that use them (`eigen` and `selftest`), so every other command,
`green grid` included, starts without loading numpy; no command loads
scipy.  `green grid` evaluates G on floats (`_write_grid`), not through the
array evaluation `grid._green_xy`.  Likewise the expression parser
(`expression`) loads only for `check --q-expr`, and `csv` only for
`check --q-table`.

`run` is the process entry point of `hbvp` and `python -m hadamard_bvp`: it
calls `main` and ends the process with `os._exit`, skipping atexit hooks and
interpreter teardown.  It is also the one place that writes `os.environ`:
it defaults ``OPENBLAS_THREAD_TIMEOUT`` to 4 for the process it owns, so
that OpenBLAS's idle worker does not spin while numpy loads (see `run`).
`main` itself never ends the process nor touches the environment, so tests
and benchmarks call it in-process.
"""

from __future__ import annotations

import argparse
import enum
import math
import os
import re
import sys

from . import __version__
from .bounds import DEFAULT_TOL, _scan_grid, lyapunov_report, nonexistence_check
from .coefficient import Constant, load_table
from .errors import DomainInvalid, HadamardBVPError, NonFiniteResult
from .kernel import green_eval, green_max
from .params import _REAL, FracParams, check_size, parse_decimal, validate

__all__ = ["main", "run"]

_CHECK_FAILED = 1
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


def _to_json(value, key: str = "value") -> str:
    """Serialize with fixed float formatting (17 significant digits).

    Raises NonFiniteResult for inf or nan, which JSON cannot represent; the
    message names ``key``, the key of the innermost object holding the value.
    """
    if isinstance(value, dict):
        items = ", ".join(f"{_to_json(str(k))}: {_to_json(v, k)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_to_json(v, key) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteResult(f"{key} is not finite")
        return _fmt_real(value)
    if value is None:
        return "null"
    return '"' + str(value).translate(_JSON_ESCAPES) + '"'


def _record(rec) -> dict:
    """A result record's fields in declaration order, enums by value."""
    return {k: v.value if isinstance(v, enum.Enum) else v for k, v in zip(rec._fields, rec)}


def _render(command: str, p: FracParams | None, payload: dict, as_json: bool) -> str:
    """The report, built as JSON in both modes, so that either raises NonFiniteResult.

    The text report lists the selftest checks, if any, then the command, the
    parameters and each scalar of the payload.
    """
    params = None if p is None else _record(p)
    report = _to_json({"command": command, "params": params, "payload": payload,
                       "warnings": [], "version": __version__})
    if as_json:
        return report
    lines = [f"{'PASS' if c['ok'] else 'FAIL'}  {c['name']}  ({c['detail']})"
             for c in payload.get("checks", [])]
    lines.append(f"command: {command}")
    if params is not None:
        joined = ", ".join(f"{k}={_fmt_real(v)}" for k, v in params.items())
        lines.append(f"params: {joined}")
    for key, value in payload.items():
        if isinstance(value, float):
            lines.append(f"{key} = {_fmt_real(value)}")
        elif not isinstance(value, list):
            lines.append(f"{key} = {value}")
    return "\n".join(lines)


def _literal(kind: type):
    """The argparse type of a flag that takes a ``kind`` (float or int).

    `parse_decimal` alone decides what a flag value is, as it does for a
    table cell: an ASCII decimal literal, finite if a float, so the constant
    name `e` is not a value (pass 2.718281828459045) and ``1e999`` is a
    usage error.  An int flag takes any size here; each command checks its
    count (`check_size`), so an oversize ``--n`` exits 2 with ResourceLimit.
    """

    def parse(text: str):
        try:
            return parse_decimal(text, kind)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_real = _literal(float)


def _params_from(args) -> FracParams | None:
    """The validated problem, or None for a command without the problem flags."""
    return validate(args.sigma, args.kappa, args.t1, args.t2) if "sigma" in vars(args) else None


def cmd_bound(p: FracParams, args) -> tuple[dict, int]:
    rep = green_max(p)
    payload = _record(lyapunov_report(p))
    payload.update(omega=rep.omega, mho=rep.mho, x2=rep.x2, delta=rep.delta)
    return payload, 0


def _coefficient_from(args):
    if args.q_const is not None:
        return Constant(args.q_const)
    if args.q_expr is not None:
        from .expression import Expression, parse_expr

        return Expression(parse_expr(args.q_expr))
    return load_table(args.q_table)


def cmd_check(p: FracParams, args) -> tuple[dict, int]:
    q = _coefficient_from(args)
    verdict = nonexistence_check(p, q, tol=args.tol)
    payload = _record(lyapunov_report(p))
    payload.update(q_integral=verdict.q_integral, verdict=verdict.kind.value)
    return payload, 0


def _write_grid(p: FracParams, n: int, path: str) -> None:
    """Write G on the n x n grid to ``path`` as CSV rows "t,s,G", t-major.

    Both axes are numpy.linspace(0, L, n) in log coordinates, from
    ``bounds._scan_grid``.  Each value takes the operations of
    ``grid._green_xy`` in its order, on floats:

        ((x^a (L - y)^b) / L^a - (x - y)^b) / (t1 e^y Gamma(sigma - kappa)),

    with (x - y)^b only below the diagonal, so the digits do not depend on
    which SIMD kernels numpy would pick.  Raises NonFiniteResult before
    writing a row that holds inf or nan; the rows before it stay written.
    """
    L, a, b, gsk = p.L, p.a, p.b, p.gamma_sk
    us = _scan_grid(0.0, L, n)
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


def cmd_green_eval(p: FracParams, args) -> tuple[dict, int]:
    return {"t": args.t, "s": args.s, "value": green_eval(p, args.t, args.s)}, 0


def cmd_green_max(p: FracParams, args) -> tuple[dict, int]:
    return _record(green_max(p)), 0


def cmd_green_grid(p: FracParams, args) -> tuple[dict, int]:
    check_size("grid", args.n, 2, GRID_MAX_N)
    _write_grid(p, args.n, args.out)
    return {"path": args.out, "rows": args.n * args.n}, 0


def cmd_eigen(p: FracParams, args) -> tuple[dict, int]:
    from .fredholm import min_eigenvalue_modulus

    result = min_eigenvalue_modulus(p, args.n)
    return _record(result), 0 if result.satisfied else _BOUND_VIOLATION


def cmd_selftest(p: None, args) -> tuple[dict, int]:
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
    return payload, _CHECK_FAILED if payload["failed"] else 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token such as ``-1e-3`` as a value.

    argparse takes a token that starts with ``-`` for an option name unless
    its own pattern of a negative number matches it, and that pattern has no
    exponent.  This parser uses the literal grammar of the flag values
    instead; subparsers are built with the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(_REAL.pattern + r"\Z")


def _problem_flags(parser: argparse.ArgumentParser) -> None:
    """The problem flags, which every command but selftest takes."""
    parser.add_argument("--sigma", type=_real, required=True, help="leading order, 1 < sigma <= 2")
    parser.add_argument(
        "--kappa", type=_real, required=True, help="inner order, 0 < kappa < sigma-1"
    )
    parser.add_argument("--t1", type=_real, required=True, help="left endpoint, t1 > 0")
    parser.add_argument("--t2", type=_real, required=True, help="right endpoint, t2 > t1")


def _check_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=_real, default=DEFAULT_TOL, help="quadrature tolerance")
    grp = parser.add_mutually_exclusive_group(required=True)
    grp.add_argument("--q-const", type=_real, help="constant coefficient value")
    grp.add_argument("--q-expr", help="coefficient expression in t, e.g. 'ln(t)'")
    grp.add_argument("--q-table", help="CSV file with header 't,q'")


def _green_eval_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--t", type=_real, required=True)
    parser.add_argument("--s", type=_real, required=True)


def _green_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--n", type=_literal(int), default=100, help=f"grid points per axis (2 to {GRID_MAX_N})"
    )
    parser.add_argument("--out", required=True, help="output CSV path")


def _eigen_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=_literal(int), default=400, help="mesh size (>= 32)")


def _selftest_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--filter", help="only run checks whose name contains this")


# Each leaf command once: its words, help line, flag adders (besides --json)
# and command.  A two-word leaf belongs to the group named by its first word;
# the parsed args name the first word in `command` and the second in `<group>_cmd`.
_LEAVES = {
    ("bound",): ("closed-form bound report", (_problem_flags,), cmd_bound),
    ("check",): ("nonexistence verdict for q", (_problem_flags, _check_flags), cmd_check),
    ("green", "eval"): ("G(t, s) at a point", (_problem_flags, _green_eval_flags), cmd_green_eval),
    ("green", "max"): ("closed-form maximum report", (_problem_flags,), cmd_green_max),
    ("green", "grid"): ("CSV grid of G values", (_problem_flags, _green_grid_flags), cmd_green_grid),
    ("eigen",): ("Nystrom eigenvalue check", (_problem_flags, _eigen_flags), cmd_eigen),
    ("selftest",): ("run embedded checks", (_selftest_flags,), cmd_selftest),
}
_GROUPS = {"green": "Green's function values and maxima"}


def _add_flags(parser: argparse.ArgumentParser, words: tuple[str, ...]) -> argparse.ArgumentParser:
    _, flag_groups, cmd = _LEAVES[words]
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    for add in flag_groups:
        add(parser)
    parser.set_defaults(run=cmd, **dict(zip(("command", f"{words[0]}_cmd"), words)))
    return parser


def _leaf_parser(words: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser of one leaf command, as the full tree builds it."""
    return _add_flags(_Parser(prog=" ".join(("hbvp", *words))), words)


def _build_parser() -> argparse.ArgumentParser:
    """The full tree: the top parser, each group's and each leaf's."""
    top = _Parser(
        prog="hbvp",
        description=(
            "Green's function maxima, Lyapunov-type integral bounds, and "
            "nonexistence verdicts for Hadamard fractional boundary value "
            "problems with two derivative orders."
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)
    groups = {}
    for words, (help_line, *_) in _LEAVES.items():
        choices = sub
        if len(words) == 2:
            if words[0] not in groups:
                group = sub.add_parser(words[0], help=_GROUPS[words[0]])
                groups[words[0]] = group.add_subparsers(dest=f"{words[0]}_cmd", required=True)
            choices = groups[words[0]]
        _add_flags(choices.add_parser(words[-1], help=help_line), words)
    return top


def _parse_args(argv) -> argparse.Namespace:
    """Parse ``argv`` (default ``sys.argv[1:]``) as the full tree would.

    When argv starts with the words of a leaf command, only that leaf's
    parser is built, and it parses the rest as the tree's subparser does.
    Anything else (no command, a group or an unknown word, help at the top
    level) and a leaf call that leaves arguments over go through the full
    tree, so its usage text and errors stay those of the top level.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    for words in (tuple(argv[:1]), tuple(argv[:2])):
        if words in _LEAVES:
            args, extras = _leaf_parser(words).parse_known_args(argv[len(words):])
            if not extras:
                return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        p = _params_from(args)
        payload, exit_code = args.run(p, args)
        report = _render(args.command, p, payload, args.json)
    except (HadamardBVPError, OSError) as exc:
        # Package errors carry their exit code; a file that cannot be read
        # is a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", _USAGE_ERROR)
    print(report)
    return exit_code


def run() -> None:
    """Run `main` on ``sys.argv`` and end the process with its exit code.

    After `main` returns, stdout and stderr are flushed and the process ends
    through `os._exit`: atexit hooks, the last garbage collection and module
    teardown are skipped, as nothing the commands leave behind needs them.
    That holds by one invariant: a command closes every file it writes
    before `main` returns (`green grid` and `load_table` use `with`).

    A reader that closes stdout early (``hbvp ... | head``) ends the process
    with exit code 1 and nothing on stderr.  A usage error (argparse's
    SystemExit) and an uncaught exception leave through the normal exit.

    Before `main`, and so before `eigen` or `selftest` loads numpy, the
    process's ``OPENBLAS_THREAD_TIMEOUT`` defaults to 4, OpenBLAS's least:
    an idle OpenBLAS worker then sleeps after about 2^4 cycles instead of
    spinning for about 2^28 while numpy loads, time the main thread loses
    on a machine with no spare core.  The thread count stays as it is, and
    with it every digit.  A value already in the environment is kept.
    """
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)
