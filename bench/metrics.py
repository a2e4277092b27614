"""Metric names, units and their computation from run records and spans.

Imports nothing heavy, so that run.py can name its metrics before the
timed import of hadamard_bvp.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

E2E = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
CLI_COMMANDS = ("bound", "check-expr", "check-table", "green-eval", "green-max", "green-grid", "eigen")
LAYERS = (
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    *((f"cli.invocation_ms.{cmd}", "ms") for cmd in CLI_COMMANDS),
    ("cli.grid_rows_per_s", "rows/s"),
    ("cli.grid_bytes", "bytes"),
    ("kernel.green_max_us", "us"),
    ("kernel.bruteforce_ms", "ms"),
    ("kernel.bruteforce_points_per_s", "points/s"),
    ("coefficient.parse_us", "us"),
    ("coefficient.evals_per_op.expr", "count"),
    ("coefficient.evals_per_op.table", "count"),
    ("coefficient.evals_per_op.const", "count"),
    ("coefficient.eval_us.expr", "us"),
    ("coefficient.eval_us.table", "us"),
    ("bounds.nonexistence_check_ms.expr", "ms"),
    ("bounds.nonexistence_check_ms.table", "ms"),
    ("bounds.nonexistence_check_ms.const", "ms"),
    ("bounds.failures.timeout", "count"),
    ("bounds.failures.quadrature", "count"),
    ("bounds.failures.oracle", "count"),
    ("operators.hadamard_integral_ms", "ms"),
    ("operators.composition_check_ms", "ms"),
    ("operators.f_evals_per_op", "count"),
    ("fredholm.nystrom_matrix_ms", "ms"),
    ("fredholm.nystrom_ns_per_entry", "ns"),
    ("fredholm.eigen_solve_ms", "ms"),
    ("fredholm.ladder_final_n.median", "count"),
    ("fredholm.ladder_final_n.max", "count"),
    ("fredholm.ladder_steps", "count"),
    ("fredholm.self_conv_rel", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def e2e_metrics(records, timed, setup_samples, peak_rss_kb):
    latencies = [r["seconds"] for r in records]
    n = len(records)
    values = {
        "ops_per_s": (n / timed, n),
        "op_p50_ms": (_percentile(latencies, 50) * 1e3, n),
        "op_p90_ms": (_percentile(latencies, 90) * 1e3, n),
        "setup_s": (_median(setup_samples), len(setup_samples)),
        "peak_rss_mb": (peak_rss_kb / 1024.0, 1),
    }
    return {name: {"value": values[name][0], "unit": unit, "samples": values[name][1]} for name, unit in E2E}


FAILURE_CLASSES = {"timeout": "timeout", "QuadratureFailure": "quadrature", "oracle": "oracle"}


def layer_metrics(tr, overhead, pairs):
    from workloads import BRUTE_N

    selfs = tr.self_times()
    by_name = defaultdict(list)
    for span, self_s in zip(tr.spans, selfs):
        by_name[span.name].append((span, self_s))
    op_span = {s.op: s for s, _ in by_name["op"]}
    screen_ops = {op for op, s in op_span.items() if s.attrs["workload"].startswith("screen")}
    values = {}

    def durations(name, scale, keep=lambda s: True):
        return [s.duration * scale for s, _ in by_name[name] if keep(s)]

    def per_op(name, scale, self_time=False):
        sums = defaultdict(float)
        for s, self_s in by_name[name]:
            sums[s.op] += (self_s if self_time else s.duration) * scale
        return list(sums.values())

    def kind_of(span):
        return op_span[span.op].attrs["kind"] if span.op in op_span else None

    for span_name, metric in (("cli.interpreter", "cli.interpreter_ms"), ("cli.import", "cli.import_ms")):
        values[metric] = durations(span_name, 1e3)
    for cmd in CLI_COMMANDS:
        values[f"cli.invocation_ms.{cmd}"] = durations("cli.invocation", 1e3, lambda s: s.attrs["cmd"] == cmd)
    grids = [s for s, _ in by_name["cli.invocation"] if "rows" in s.attrs]
    # Rows per second of writing: the grid call minus a same-size start-up.
    startup = _median(values["cli.invocation_ms.green-max"]) / 1e3
    values["cli.grid_rows_per_s"] = [s.attrs["rows"] / (s.duration - startup) for s in grids]
    values["cli.grid_bytes"] = [s.attrs["bytes"] for s in grids]

    values["kernel.green_max_us"] = durations("kernel.green_max", 1e6)
    values["kernel.bruteforce_ms"] = durations("kernel.green_max_bruteforce", 1e3)
    values["kernel.bruteforce_points_per_s"] = [BRUTE_N**2 / s.duration for s, _ in by_name["kernel.green_max_bruteforce"]]

    values["coefficient.parse_us"] = durations("coefficient.parse", 1e6)
    for kind in ("expr", "table", "const"):
        ops = [op for op in screen_ops if op_span[op].attrs["kind"] == kind]
        values[f"coefficient.evals_per_op.{kind}"] = [tr.evals.get((op, kind), (0, 0.0))[0] for op in ops]
        values[f"bounds.nonexistence_check_ms.{kind}"] = [
            self_s * 1e3 for s, self_s in by_name["bounds.nonexistence_check"] if kind_of(s) == kind
        ]
    samples = {}
    for kind in ("expr", "table"):
        count = sum(c for (op, k), (c, _) in tr.evals.items() if k == kind)
        seconds = sum(t for (op, k), (_, t) in tr.evals.items() if k == kind)
        values[f"coefficient.eval_us.{kind}"] = seconds / count * 1e6 if count else 0.0
        samples[f"coefficient.eval_us.{kind}"] = count
    causes = [FAILURE_CLASSES.get(op_span[op].attrs["cause"]) for op in screen_ops]
    for cls in ("timeout", "quadrature", "oracle"):
        values[f"bounds.failures.{cls}"] = causes.count(cls)
        samples[f"bounds.failures.{cls}"] = len(screen_ops)

    values["operators.hadamard_integral_ms"] = durations("operators.hadamard_integral", 1e3)
    values["operators.composition_check_ms"] = durations("operators.composition_check", 1e3)
    cross_ops = [op for op, s in op_span.items() if s.attrs["workload"] == "crosscheck"]
    values["operators.f_evals_per_op"] = [tr.evals.get((op, "f"), (0, 0.0))[0] for op in cross_ops]
    values["fredholm.nystrom_matrix_ms"] = per_op("fredholm.nystrom_matrix", 1e3)
    entries = [(s.attrs["n"], s.duration) for s, _ in by_name["fredholm.nystrom_matrix"]]
    large = [e for e in entries if e[0] >= 256] or entries
    values["fredholm.nystrom_ns_per_entry"] = [d / n**2 * 1e9 for n, d in large]
    values["fredholm.eigen_solve_ms"] = per_op("fredholm.min_eigenvalue_modulus", 1e3, self_time=True)
    ladders = [s.attrs for s, _ in by_name["fredholm.ladder"] if "final_n" in s.attrs]
    final_n = [a["final_n"] for a in ladders]
    values["fredholm.ladder_final_n.median"] = final_n
    values["fredholm.ladder_final_n.max"] = max(final_n, default=0)
    samples["fredholm.ladder_final_n.max"] = len(final_n)
    values["fredholm.ladder_steps"] = [a["steps"] for a in ladders]
    values["fredholm.self_conv_rel"] = [a["gap"] for a in ladders]
    values["trace.overhead_ratio"] = overhead
    samples["trace.overhead_ratio"] = pairs

    metrics = {}
    for name, unit in LAYERS:
        v = values[name]
        if isinstance(v, list):
            metrics[name] = {"value": _median(v), "unit": unit, "samples": len(v)}
        else:
            metrics[name] = {"value": v, "unit": unit, "samples": samples[name]}
    return metrics
