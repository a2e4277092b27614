"""Workload definitions: seeded inputs, one operation, its oracle check.

Every workload is a closed loop with one caller.  Inputs come from a
``random.Random(seed)`` stream: operation kinds in blocks with a fixed mix
in seeded order, and continuous parameters from a seeded shift of a Halton
sequence, so every run covers the parameter ranges evenly whatever its seed.
Oracle values are computed while an input is generated, outside every timed
region.

Workloads:

* ``screen``: Lyapunov screening, validate -> green_max -> lyapunov_report
  -> nonexistence_check, on expressions, tables and constants.
* ``screen-edge``: the same operation on the full domain, adding narrow
  intervals and cusp coefficients.  Known defects make some of its
  operations fail, so it is not part of the gated set (see README.md).
* ``crosscheck``: brute-force kernel maximum, a Nystrom lambda_min ladder,
  and the Hadamard-integral power rule and composition checks.
* ``cli``: one ``python -m hadamard_bvp ... --json`` subprocess per
  operation, compared with the library's in-process result.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

import mpmath as mp

import hadamard_bvp
from hadamard_bvp import (
    Constant,
    Expression,
    OperatorKind,
    Table,
    composition_check,
    eigenvalue_bound,
    green_eval,
    green_max,
    green_max_bruteforce,
    hadamard_integral,
    lyapunov_report,
    min_eigenvalue_modulus,
    nonexistence_check,
    parse_expr,
    power_rule_reference,
    validate,
)
from hadamard_bvp import cli as hbvp_cli
from hadamard_bvp import fredholm

import oracle
from metrics import CLI_COMMANDS
from spans import CountingCoefficient, Tracer, counted, patched

TOL = 1e-9  # nonexistence_check tolerance
BOUND_REL = 1e-12  # bound vs the 50-digit oracle
Q_ABS = 10 * TOL  # q_integral vs the exact integral
BRUTE_N = 2000
BRUTE_REL = 2e-3
LADDER_START, LADDER_CAP, LADDER_REL = 64, 4000, 1e-3
OPERATOR_REL = 1e-6
GRID_N = 300
EIGEN_N = 400


def _call(tr: Optional[Tracer], name: str, fn, *args, **kwargs):
    """Call fn; inside a span only when a tracer is given."""
    if tr is None:
        return fn(*args, **kwargs)
    with tr.span(name):
        return fn(*args, **kwargs)


_BASES = (2, 3, 5, 7, 11, 13, 17)


def _radical_inverse(i: int, base: int) -> float:
    value, scale = 0.0, 1.0
    while i:
        i, digit = divmod(i, base)
        scale /= base
        value += digit * scale
    return value


def _halton(i: int, dims: int) -> list[float]:
    return [_radical_inverse(i, b) for b in _BASES[:dims]]


def _points(rng: random.Random, dims: int) -> Iterator[list[float]]:
    """Halton points in [0, 1)^dims, shifted by a seeded random vector.

    Every prefix of the sequence covers the cube evenly, so the share of
    inputs in any region (slow or fast ones) barely changes between seeds.
    """
    shift = [rng.random() for _ in range(dims)]
    i = 0
    while True:
        i += 1
        yield [(x + s) % 1.0 for x, s in zip(_halton(i, dims), shift)]


def _orders(u_sigma: float, u_kappa: float, lo: float) -> tuple[float, float]:
    sigma = lo + (2.0 - lo) * u_sigma
    return sigma, (0.02 + 0.93 * u_kappa) * (sigma - 1.0)


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


@dataclass
class Input:
    kind: str  # the operation kind reported per layer
    params: tuple[float, float, float, float]
    data: dict = field(default_factory=dict)  # operation arguments
    expect: dict = field(default_factory=dict)  # oracle values


# --------------------------------------------------------------------------
# screen / screen-edge

# screen leaves out tables: their integrals miss the oracle now and then
# (defect 4 in README.md), and the traced runs of the gated workloads probe
# the screen layers on these inputs, where no operation may fail.
SCREEN_MIX = ("ln",) * 3 + ("quad",) * 4 + ("sin",) * 4 + ("expcos",) * 3 + ("const",)
EDGE_MIX = (
    ("ln",) * 3 + ("quad",) * 3 + ("sin",) * 3 + ("cusp",) * 3 + ("expcos",) * 2
    + ("table",) * 5 + ("const",)
)
EDGE_NARROW = 2  # narrow intervals per block of 20 (10%)


def expr_source(spec) -> str:
    kind, A = spec[0], spec[1]
    if kind == "ln":
        body = "ln(t)"
    elif kind == "quad":
        body = f"(t-{spec[2]!r})*(t-{spec[3]!r})"
    elif kind == "sin":
        body = f"sin({spec[2]!r}*t)"
    elif kind == "expcos":
        body = f"exp(-t)*cos({spec[2]!r}*t)"
    elif kind == "cusp":
        body = f"abs(t-{spec[2]!r})^0.5"
    else:
        raise ValueError(kind)
    return f"{A!r}*{body}"


SCAN_CELLS = 256  # integrate_abs_q looks for sign changes on this many cells


def _shape(kind, u1, u2, rng, t1, t2, L, resolved):
    """Unit-amplitude coefficient spec of the given kind.

    With ``resolved`` the sign changes of q lie at least four scan cells of
    integrate_abs_q apart, so that its scan brackets each one; otherwise
    (screen-edge) they may crowd into one cell.
    """
    W = t2 - t1
    if kind == "ln":
        return ("ln", 1.0)
    if kind == "quad":
        r1 = t1 + (-0.2 + 1.4 * u1) * W
        if resolved:
            return ("quad", 1.0, r1, r1 + (4 / SCAN_CELLS + 0.5 * u2) * W * rng.choice((-1, 1)))
        return ("quad", 1.0, r1, t1 + (-0.2 + 1.4 * u2) * W)
    if kind in ("sin", "expcos"):
        top = min(40.0, math.pi * SCAN_CELLS / (4 * W)) if resolved else 40.0
        return (kind, 1.0, top * (0.025 + 0.975 * u1))
    if kind == "cusp":
        return ("cusp", 1.0, t1 + (0.05 + 0.9 * u1) * W)
    if kind == "const":
        return ("const", 1.0)
    knots = 20 + int(181 * u1)
    xs = [i / (knots - 1) for i in range(knots)]
    ts = [t1] + [t1 * math.exp(L * x) for x in xs[1:-1]] + [t2]
    if not resolved:
        offset = -1.0 + 2.0 * u2
        return ("table", tuple(ts), tuple(offset + rng.uniform(-1.0, 1.0) for _ in ts))
    if kind == "ramp":
        # Positive and linear in ln t, which the table interpolates exactly.
        return ("table", tuple(ts), tuple(1.0 + 3.0 * (u2 - 0.5) * (x - 0.5) for x in xs))
    # Up to four sign changes, at least 1/8 apart in ln t, times a positive wiggle.
    m = int(5 * u2)
    roots = [(i + 0.5 + rng.uniform(-0.25, 0.25)) / m for i in range(m)]
    freq, phase = rng.uniform(1.0, 6.0), rng.uniform(0.0, 2 * math.pi)
    values = []
    for x in xs:
        v = 1.0 + 0.6 * math.sin(freq * x + phase)
        for r in roots:
            v *= 2.0 * (x - r)
        values.append(v)
    return ("table", tuple(ts), tuple(values))


def _scaled(spec, A: float):
    if spec[0] == "table":
        return ("table", spec[1], tuple(A * v for v in spec[2]))
    return (spec[0], A, *spec[2:])


def _screen_input(rng: random.Random, kind: str, narrow: bool, u: list[float], resolved: bool) -> Input:
    sigma, kappa = _orders(u[0], u[1], 1.02)
    t1 = _log_uniform(u[2], 0.1, 10.0)
    L = _log_uniform(u[3], 1e-9, 1e-3) if narrow else 0.05 + 2.95 * u[3]
    t2 = t1 * math.exp(L)
    bound = oracle.bound(sigma, kappa, t1, t2)
    unit = _shape(kind, u[4], u[5], rng, t1, t2, L, resolved)
    # Scale q so that its integral lands within a factor 4 of the bound,
    # which gives both verdicts.
    ratio = 4.0 ** (2.0 * u[6] - 1.0)
    sign = rng.choice((-1.0, 1.0))
    unit_int = oracle.abs_integral(unit, t1, t2)
    A = sign * float(ratio * bound / unit_int)
    spec = _scaled(unit, A)
    group = {"table": "table", "ramp": "table", "const": "const"}.get(kind, "expr")
    data = {"spec": spec, "group": group}
    if group == "expr":
        data["source"] = expr_source(spec)
    # Table values are rounded after scaling; every other q is exactly A * unit.
    if group == "table":
        q_int = oracle.abs_integral(spec, t1, t2)
    else:
        with mp.workdps(oracle.DPS):
            q_int = abs(A) * unit_int
    return Input(
        kind=group,
        params=(sigma, kappa, t1, t2),
        data=data,
        expect={"bound": bound, "q_integral": q_int, "no_solution": q_int < bound},
    )


def screen_inputs(seed: int, ctx=None, mix=SCREEN_MIX, narrow: int = 0, resolved: bool = True) -> Iterator[Input]:
    rng = random.Random(seed)
    points = _points(rng, 7)
    size = len(mix)
    while True:
        kinds = rng.sample(mix, size)
        flags = rng.sample([True] * narrow + [False] * (size - narrow), size)
        for kind, flag, u in zip(kinds, flags, points):
            yield _screen_input(rng, kind, flag, u, resolved)


def edge_inputs(seed: int, ctx=None) -> Iterator[Input]:
    return screen_inputs(seed, ctx, EDGE_MIX, EDGE_NARROW, resolved=False)


def table_probe_inputs(seed: int, ctx=None) -> Iterator[Input]:
    """Tables for the traced probes of the table layers: ramps without kinks,
    because tables with kinks miss the oracle now and then (defect 4, shown
    by screen-edge), and a probe must not fail."""
    return screen_inputs(seed, ctx, ("ramp",))


def screen_defect(cause: str, detail: Optional[str]) -> Optional[int]:
    """The known defect a failed screen operation shows, if any."""
    if cause == "timeout":
        return 1
    if cause == "QuadratureFailure":
        return 2
    if cause == "oracle" and detail.startswith("bound"):
        return 3
    if cause == "oracle" and detail.startswith("q_integral"):
        return 4
    return None


def build_coefficient(data: dict, tr: Optional[Tracer]):
    spec = data["spec"]
    if data["group"] == "expr":
        q = Expression(_call(tr, "coefficient.parse", parse_expr, data["source"]))
    elif data["group"] == "table":
        q = _call(tr, "coefficient.table", Table, tuple(zip(spec[1], spec[2])))
    else:
        q = Constant(spec[1])
    return q if tr is None else CountingCoefficient(q, data["group"], tr)


def screen_op(inp: Input, tr: Optional[Tracer]):
    q = build_coefficient(inp.data, tr)
    p = _call(tr, "params.validate", validate, *inp.params)
    _call(tr, "kernel.green_max", green_max, p)
    report = _call(tr, "bounds.lyapunov_report", lyapunov_report, p)
    verdict = _call(tr, "bounds.nonexistence_check", nonexistence_check, p, q, tol=TOL)
    return report, verdict


def screen_check(inp: Input, out) -> Optional[str]:
    report, verdict = out
    bound, q_int = inp.expect["bound"], inp.expect["q_integral"]
    with mp.workdps(oracle.DPS):
        rel = abs(mp.mpf(report.bound) - bound) / bound
        err = abs(mp.mpf(verdict.q_integral) - q_int)
    if rel > BOUND_REL:
        return f"bound: relative error {float(rel):.3e} > {BOUND_REL:g}"
    if err > Q_ABS:
        return f"q_integral: absolute error {float(err):.3e} > {Q_ABS:g}"
    got = verdict.kind.value == "NoNontrivialSolution"
    if got != inp.expect["no_solution"]:
        return f"verdict {verdict.kind.value} disagrees with the oracle"
    return None


def screen_warm_up(work: Path) -> None:
    p = validate(1.75, 0.5, 1.0, math.e)
    for q in (
        Expression(parse_expr("ln(t)")),
        Table(((1.0, -1.0), (2.0, 1.0), (math.e, 0.5))),
        Constant(0.5),
    ):
        green_max(p)
        lyapunov_report(p)
        nonexistence_check(p, q, tol=TOL)


# --------------------------------------------------------------------------
# crosscheck

CROSSCHECK_SIGMA_MIN = 1.1
# A fixed suite: points of the unshifted Halton design over the crosscheck
# domain, grouped by where their ladder stops: n <= 512, n = 1024, n = 2048.
# Seeded draws made the 50th and 90th latency percentiles jump between those
# clusters from run to run; the seed now sets only the order.
CROSSCHECK_SUITE = (
    (1, 3, 6, 7, 9, 13),
    (5, 8, 10, 11, 12, 14, 17, 22, 23),
    (2, 4, 16, 20, 26),
)


def _edge_max_resolved(a: float) -> float:
    """Largest kappa/(sigma-1) whose left-edge maximum of |G| lies at least
    four brute-force grid cells from s = t1 (defect 5 in README.md)."""
    lo, hi = 0.02, 0.95
    floor = 4.0 / (BRUTE_N - 1)
    if (1.0 - hi) ** (1.0 / (hi * a)) >= floor:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (1.0 - mid) ** (1.0 / (mid * a)) >= floor else (lo, mid)
    return lo


def _crosscheck_input(u: list[float]) -> Input:
    sigma = CROSSCHECK_SIGMA_MIN + (2.0 - CROSSCHECK_SIGMA_MIN) * u[0]
    a = sigma - 1.0
    kappa = (0.02 + (_edge_max_resolved(a) - 0.02) * u[1]) * a
    t1 = _log_uniform(u[2], 0.1, 10.0)
    t2 = t1 + 0.2 + 0.8 * u[3]
    p = validate(sigma, kappa, t1, t2)
    k_rule = 0.5 + 1.5 * u[4]
    return Input(
        kind="crosscheck",
        params=(sigma, kappa, t1, t2),
        data={"k_rule": k_rule, "k_comp": 1.0 + u[5]},
        expect={
            "max_abs_g": green_max(p).max_abs_g,
            "eigen_bound": eigenvalue_bound(p),
            "rule": power_rule_reference(OperatorKind.Integral, sigma, k_rule, t1, t2),
        },
    )


def crosscheck_inputs(seed: int, ctx=None) -> Iterator[Input]:
    """Passes over the suite, each cluster spread evenly over a pass in
    seeded order, so that the part of a pass a run ends in holds each
    cluster in its share."""
    rng = random.Random(seed)
    clusters = [[_crosscheck_input(_halton(i, 6)) for i in c] for c in CROSSCHECK_SUITE]
    while True:
        keyed = []
        for members in clusters:
            offset = rng.random()
            for j, inp in enumerate(rng.sample(members, len(members))):
                keyed.append(((j + offset) / len(members), inp))
        keyed.sort(key=lambda kv: kv[0])
        yield from (inp for _, inp in keyed)


def _log_power(t1: float, k: float, tr: Optional[Tracer]):
    def f(s: float) -> float:
        return math.log(s / t1) ** (k - 1.0)

    return f if tr is None else counted(f, "f", tr)


def crosscheck_op(inp: Input, tr: Optional[Tracer]):
    sigma, kappa, t1, t2 = inp.params
    p = validate(sigma, kappa, t1, t2)
    brute, _ = _call(tr, "kernel.green_max_bruteforce", green_max_bruteforce, p, BRUTE_N)
    with contextlib.ExitStack() as stack:
        if tr is not None:
            stack.enter_context(
                patched(fredholm, "nystrom_matrix", tr, "fredholm.nystrom_matrix",
                        attrs=lambda p, q, n: {"n": n})
            )
            ladder_span = stack.enter_context(tr.span("fredholm.ladder"))
        ladder = []
        n = LADDER_START
        while True:
            result = _call(tr, "fredholm.min_eigenvalue_modulus", min_eigenvalue_modulus, p, n)
            ladder.append((n, result.lambda_min))
            if len(ladder) > 1:
                gap = abs(ladder[-1][1] - ladder[-2][1]) / ladder[-1][1]
                if gap <= LADDER_REL or n == LADDER_CAP:
                    break
            n = min(2 * n, LADDER_CAP)
        if tr is not None:
            ladder_span.attrs.update(final_n=n, steps=len(ladder), gap=gap)
    rule = _call(tr, "operators.hadamard_integral", hadamard_integral,
                 sigma, _log_power(t1, inp.data["k_rule"], tr), t1, t2)
    nested, direct = _call(tr, "operators.composition_check", composition_check,
                           sigma - 1.0, kappa, _log_power(t1, inp.data["k_comp"], tr), t1, t2)
    return brute, ladder, gap, result.lambda_min, rule, nested, direct


def crosscheck_check(inp: Input, out) -> Optional[str]:
    brute, ladder, gap, lam, rule, nested, direct = out
    e = inp.expect
    if abs(brute - e["max_abs_g"]) > BRUTE_REL * e["max_abs_g"]:
        return f"brute force {brute!r} vs closed form {e['max_abs_g']!r}"
    if gap > LADDER_REL:
        return f"ladder not converged at n={ladder[-1][0]} (gap {gap:.2e})"
    if not lam >= e["eigen_bound"]:
        return f"lambda_min {lam!r} below eigen bound {e['eigen_bound']!r}"
    if abs(rule - e["rule"]) > OPERATOR_REL * max(1.0, abs(e["rule"])):
        return f"power rule {rule!r} vs {e['rule']!r}"
    if abs(nested - direct) > OPERATOR_REL * max(1.0, abs(direct)):
        return f"composition {nested!r} vs {direct!r}"
    return None


def crosscheck_warm_up(work: Path) -> None:
    p = validate(1.75, 0.5, 1.0, math.e)
    green_max_bruteforce(p, BRUTE_N)
    min_eigenvalue_modulus(p, LADDER_START)
    f = lambda s: math.log(s) ** 0.5
    hadamard_integral(1.5, f, 1.0, math.e)
    composition_check(0.75, 0.5, f, 1.0, math.e)


# --------------------------------------------------------------------------
# cli

CLI_DEADLINE_S = 60.0
TABLE_KNOTS = 100


class CliContext:
    """Files and environment shared by every cli operation of one run."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        rng = random.Random(seed ^ 0x7AB1E)
        t1 = _log_uniform(rng.random(), 0.1, 10.0)
        t2 = t1 + 1.0
        ts = [t1] + [t1 * (t2 / t1) ** (i / (TABLE_KNOTS - 1)) for i in range(1, TABLE_KNOTS - 1)] + [t2]
        self.table_range = (t1, t2)
        self.table_path = work / "q_table.csv"
        with open(self.table_path, "w") as fh:
            fh.write("t,q\n")
            for t in ts:
                fh.write(f"{t!r},{rng.uniform(-1.0, 1.0)!r}\n")
        self.table = hadamard_bvp.load_table(str(self.table_path))
        self.grid_path = work / "grid.csv"
        self.expected_grid = work / "grid_expected.csv"
        self.stderr_path = work / "stderr.txt"
        self.max_child_rss_kb = 0


def _real_flags(sigma, kappa, t1, t2) -> list[str]:
    return ["--sigma", repr(sigma), "--kappa", repr(kappa), "--t1", repr(t1), "--t2", repr(t2)]


def _report(command: str, p, payload: dict) -> dict:
    return {
        "command": command,
        "params": {"sigma": p.sigma, "kappa": p.kappa, "t1": p.t1, "t2": p.t2},
        "payload": payload,
        "warnings": [],
        "version": hadamard_bvp.__version__,
    }


def _bound_payload(p) -> dict:
    rep, ly = green_max(p), lyapunov_report(p)
    return {"gamma_sk": ly.gamma_sk, "bound": ly.bound, "eigen_bound": ly.eigen_bound,
            "omega": rep.omega, "mho": rep.mho, "x2": rep.x2, "delta": rep.delta}


def _sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def cli_inputs(seed: int, ctx: CliContext) -> Iterator[Input]:
    rng = random.Random(seed)
    points = _points(rng, 6)
    while True:
        for cmd, u in zip(CLI_COMMANDS, points):
            sigma, kappa = _orders(u[0], u[1], 1.1)
            t1 = _log_uniform(u[2], 0.1, 10.0)
            t2 = t1 + 0.2 + 0.8 * u[3]
            if cmd == "check-table":
                t1, t2 = ctx.table_range
            p = validate(sigma, kappa, t1, t2)
            flags = _real_flags(sigma, kappa, t1, t2)
            extra: dict = {}
            if cmd == "bound":
                argv, expected = ["bound"], _report("bound", p, _bound_payload(p))
            elif cmd.startswith("check"):
                if cmd == "check-expr":
                    kind = ("ln", "quad", "sin", "expcos")[int(4 * u[4])]
                    source = expr_source(_shape(kind, u[5], rng.random(), rng, t1, t2, p.L, True))
                    argv, q = ["check", "--q-expr", source], Expression(parse_expr(source))
                else:
                    argv, q = ["check", "--q-table", str(ctx.table_path)], ctx.table
                verdict = nonexistence_check(p, q, tol=TOL)
                ly = lyapunov_report(p)
                expected = _report("check", p, {
                    "gamma_sk": ly.gamma_sk, "bound": ly.bound, "eigen_bound": ly.eigen_bound,
                    "q_integral": verdict.q_integral, "verdict": verdict.kind.value})
            elif cmd == "green-eval":
                t, s = t1 + u[4] * (t2 - t1), t1 + u[5] * (t2 - t1)
                argv = ["green", "eval", "--t", repr(t), "--s", repr(s)]
                expected = _report("green", p, {"t": t, "s": s, "value": green_eval(p, t, s)})
            elif cmd == "green-max":
                rep = green_max(p)
                argv = ["green", "max"]
                expected = _report("green", p, {
                    "delta": rep.delta, "x2": rep.x2, "t_star": rep.t_star, "t_hat": rep.t_hat,
                    "omega": rep.omega, "mho": rep.mho, "max_abs_g": rep.max_abs_g,
                    "branch": rep.branch.value})
            elif cmd == "green-grid":
                argv = ["green", "grid", "--n", str(GRID_N), "--out", str(ctx.grid_path)]
                expected = _report("green", p, {"path": str(ctx.grid_path), "rows": GRID_N * GRID_N})
                # The library's own in-process output, byte for byte.
                with contextlib.redirect_stdout(io.StringIO()):
                    code = hbvp_cli.main(["green", "grid", "--n", str(GRID_N), "--out",
                                          str(ctx.expected_grid), *flags])
                if code != 0:
                    raise RuntimeError(f"in-process grid exited {code}")
                extra = {"sha256": _sha256(ctx.expected_grid)}
            else:
                r = min_eigenvalue_modulus(p, EIGEN_N)
                argv = ["eigen", "--n", str(EIGEN_N)]
                expected = _report("eigen", p, {
                    "n": r.n, "dominant_mu": r.dominant_mu, "lambda_min": r.lambda_min,
                    "analytic_bound": r.analytic_bound, "satisfied": r.satisfied,
                    "eigenvector_boundary_residual": r.eigenvector_boundary_residual})
            yield Input(
                kind=cmd,
                params=(sigma, kappa, t1, t2),
                data={"argv": [sys.executable, "-m", "hadamard_bvp", *argv, *flags, "--json"], "ctx": ctx},
                expect={"report": expected, **extra},
            )


def spawn(argv: list[str], ctx: CliContext) -> tuple[int, bytes, int]:
    """Run one child to completion; returns (exit code, stdout, peak RSS in kB).

    The child is reaped with wait4 so that its own peak RSS is known.
    """
    with open(ctx.stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=ctx.env, cwd=ctx.root)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    finally:
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    ctx.max_child_rss_kb = max(ctx.max_child_rss_kb, usage.ru_maxrss)
    return proc.returncode, out, usage.ru_maxrss


def cli_op(inp: Input, tr: Optional[Tracer]):
    ctx = inp.data["ctx"]
    if tr is None:
        return spawn(inp.data["argv"], ctx)
    with tr.span("cli.invocation", cmd=inp.kind) as span:
        result = spawn(inp.data["argv"], ctx)
    if inp.kind == "green-grid" and result[0] == 0:
        span.attrs.update(rows=GRID_N * GRID_N, bytes=ctx.grid_path.stat().st_size)
    return result


def cli_check(inp: Input, out) -> Optional[str]:
    code, stdout, _ = out
    if code != 0:
        return f"exit code {code}"
    try:
        got = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if got != inp.expect["report"]:
        return "JSON differs from the in-process library result"
    if inp.kind == "green-grid" and _sha256(inp.data["ctx"].grid_path) != inp.expect["sha256"]:
        return "grid CSV differs from the in-process output"
    return None


def cli_warm_up(work: Path) -> None:
    """One in-process call of every command the cli workload runs."""
    flags = _real_flags(1.75, 0.5, 1.0, math.e)
    table = work / "warm_table.csv"
    table.write_text("t,q\n1.0,-1.0\n2.0,1.0\n2.718281828459045,0.5\n")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["bound"],
            ["check", "--q-expr", "ln(t)"],
            ["check", "--q-table", str(table)],
            ["green", "eval", "--t", "1.5", "--s", "2"],
            ["green", "max"],
            ["green", "grid", "--n", "20", "--out", str(work / "warm_grid.csv")],
            ["eigen", "--n", str(EIGEN_N)],
        ):
            hbvp_cli.main([*argv, *flags, "--json"])


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    deadline_s: float
    inputs: Callable[..., Iterator[Input]]
    run: Callable[[Input, Optional[Tracer]], object]
    check: Callable[[Input, object], Optional[str]]
    warm_up: Callable[[Path], None]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("screen", "Lyapunov screening, the main use: bounds and coefficient layers only",
                 5.0, screen_inputs, screen_op, screen_check, screen_warm_up),
        Workload("screen-edge", "screen on the full domain with narrow intervals, cusps and tables; shows defects 1-4",
                 5.0, edge_inputs, screen_op, screen_check, screen_warm_up),
        Workload("crosscheck", "numerical verification: brute force, Nystrom ladder, quadrature operators",
                 10.0, crosscheck_inputs, crosscheck_op, crosscheck_check, crosscheck_warm_up),
        Workload("cli", "one interpreter per call: start-up and import on the critical path",
                 CLI_DEADLINE_S, cli_inputs, cli_op, cli_check, cli_warm_up),
    )
}


def self_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
