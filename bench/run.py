#!/usr/bin/env python3
"""Benchmark of hadamard_bvp: one workload, one seed, one run.

    python3 bench/run.py --workload screen --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  The loop runs operations until their timed durations add up to
``--seconds``; input generation and oracle checks happen between the timed
regions.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  A human-readable summary goes to stderr,
a full result file to ``.bench_out/``, and the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

``--smoke`` runs a few operations with a single set-up sample, to check that
everything works; its numbers mean nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from metrics import CLI_COMMANDS, E2E, LAYERS, e2e_metrics, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = OUT / "tmp"

WORKLOAD_NAMES = ("screen", "screen-edge", "crosscheck", "cli")
SETUP_SAMPLES = 7
SMOKE_OPS = 3
PROBE_OPS = {"screen": 20, "table": 5, "crosscheck": 2}
PROBE_SPAWNS = 3
SMOKE_PROBE_OPS = {"screen": 3, "table": 1, "crosscheck": 1}

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0, help="timed seconds to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help=f"{SMOKE_OPS} operations, one set-up sample")
    ap.add_argument("--out", type=Path, help="result file (default .bench_out/BENCH_<...>.json)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# --------------------------------------------------------------------------
# set-up


def setup_probe(workload: str) -> float:
    """Seconds for ``import hadamard_bvp`` plus one warm-up call per operation kind."""
    start = time.perf_counter()
    import hadamard_bvp  # noqa: F401

    imported = time.perf_counter()
    import workloads  # the benchmark's own modules, not timed

    WORK.mkdir(parents=True, exist_ok=True)
    warm = time.perf_counter()
    workloads.WORKLOADS[workload].warm_up(WORK)
    return (imported - start) + (time.perf_counter() - warm)


def setup_in_child(workload: str) -> float:
    """The set-up probe in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


# --------------------------------------------------------------------------
# one attempt under a deadline


class Deadline(BaseException):
    """Raised from SIGALRM; a BaseException so no library handler swallows it."""


@contextmanager
def deadline(seconds: float):
    def fire(signum, frame):
        raise Deadline()

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def attempt(wl, inp, tr):
    """Run one operation; returns (cause or None, detail, seconds)."""
    start = time.perf_counter()
    try:
        with deadline(wl.deadline_s):
            out = wl.run(inp, tr)
    except Deadline:
        return "timeout", f"exceeded the {wl.deadline_s:g} s deadline", wl.deadline_s
    except Exception as exc:  # every exception is a failed operation
        return type(exc).__name__, str(exc)[:300], time.perf_counter() - start
    seconds = time.perf_counter() - start
    miss = wl.check(inp, out)
    return ("oracle", miss, seconds) if miss else (None, None, seconds)


def record(records, wl, inp, cause, detail, seconds, probe=False):
    from workloads import screen_defect

    entry = {"workload": wl.name, "kind": inp.kind, "params": inp.params,
             "cause": cause, "detail": detail, "seconds": seconds, "probe": probe}
    if cause and wl.name.startswith("screen"):
        entry["defect"] = screen_defect(cause, detail)
    records.append(entry)


# --------------------------------------------------------------------------
# loops


def untraced_loop(wl, inputs, seconds, smoke):
    records, timed = [], 0.0
    while (len(records) < SMOKE_OPS) if smoke else (timed < seconds):
        inp = next(inputs)
        cause, detail, dt = attempt(wl, inp, None)
        timed += dt
        record(records, wl, inp, cause, detail, dt)
    return records, timed


def traced_loop(wl, inputs, seconds, smoke, tr):
    """Each input runs untraced and traced, in alternating order."""
    records, plain, traced = [], 0.0, 0.0
    while (len(records) < SMOKE_OPS) if smoke else (plain + traced < seconds):
        inp = next(inputs)
        op = len(records)
        results = {}
        for is_traced in ((False, True) if op % 2 == 0 else (True, False)):
            if is_traced:
                results[True] = traced_attempt(wl, inp, tr, op)
                traced += results[True][2]
            else:
                results[False] = attempt(wl, inp, None)
                plain += results[False][2]
        cause, detail, dt = results[True] if results[True][0] else results[False]
        record(records, wl, inp, cause, detail, dt)
    return records, traced / plain


def traced_attempt(wl, inp, tr, op):
    tr.op = op
    with tr.span("op", workload=wl.name, kind=inp.kind) as span:
        result = attempt(wl, inp, tr)
    span.attrs["cause"] = result[0]
    return result


def probes(workload, seed, tr, records, cli_ctx, smoke):
    """Traced operations of the layers the workload itself does not reach.

    Every traced run reports every per-layer metric; the layers off this
    workload's path are sampled here, on a few inputs from the same seed.
    """
    from workloads import WORKLOADS, spawn, table_probe_inputs

    for name, count in (SMOKE_PROBE_OPS if smoke else PROBE_OPS).items():
        if name == workload or (workload == "screen-edge" and name in ("screen", "table")):
            continue
        wl = WORKLOADS["screen" if name == "table" else name]
        inputs = table_probe_inputs(seed) if name == "table" else wl.inputs(seed)
        for _ in range(count):
            inp = next(inputs)
            cause, detail, dt = traced_attempt(wl, inp, tr, len(records))
            record(records, wl, inp, cause, detail, dt, probe=True)
    for _ in range(1 if smoke else PROBE_SPAWNS):
        for span, code in (("cli.interpreter", "pass"), ("cli.import", "import hadamard_bvp")):
            tr.op = len(records)
            with tr.span(span):
                exit_code = spawn([sys.executable, "-c", code], cli_ctx)[0]
            if exit_code != 0:
                raise RuntimeError(f"python -c {code!r} exited {exit_code}")
    if workload != "cli":
        wl = WORKLOADS["cli"]
        inputs = wl.inputs(seed, cli_ctx)
        for _ in CLI_COMMANDS:
            inp = next(inputs)
            cause, detail, dt = traced_attempt(wl, inp, tr, len(records))
            record(records, wl, inp, cause, detail, dt, probe=True)


# --------------------------------------------------------------------------
# environment


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    info = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    info["threads"] = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    info["env"] = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    return info


def _steal_share(start, end):
    if not start or not end or len(start) < 8:
        return None
    total = sum(end) - sum(start)
    return (end[7] - start[7]) / total if total else None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return None
    return proc.stdout.strip() or None


def cpu_ticks():
    """The aggregate CPU line of /proc/stat (user nice system idle iowait irq softirq steal ...)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def environment(seed, loadavg_start, ticks_start):
    import mpmath
    import numpy
    import scipy

    import hadamard_bvp

    package = Path(hadamard_bvp.__file__).resolve()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg_start,
        "loadavg_end": os.getloadavg(),
        "cpu_steal_share": _steal_share(ticks_start, cpu_ticks()),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
        "package": {
            "file": str(package),
            "loaded_from": "src" if SRC.resolve() in package.parents else "install",
            "PYTHONPATH": os.environ.get("PYTHONPATH"),
        },
    }


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hadamard_bvp" / "__init__.py").is_file():
        print(f"error: no hadamard_bvp source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload)}))
        return 0

    loadavg_start, ticks_start = os.getloadavg(), cpu_ticks()
    setup_samples = [setup_probe(args.workload)]
    import workloads
    from spans import Tracer

    # Half the child samples before the loop and half after it, so that the
    # median spans the run rather than one moment of the machine.
    children = 0 if args.smoke else SETUP_SAMPLES - 1
    for _ in range(children // 2):
        setup_samples.append(setup_in_child(args.workload))

    wl = workloads.WORKLOADS[args.workload]
    cli_ctx = None
    if args.workload == "cli" or args.trace:
        cli_ctx = workloads.CliContext(ROOT, WORK, args.seed)
    inputs = wl.inputs(args.seed, cli_ctx)
    spans = None
    if args.trace:
        tr = Tracer()
        records, overhead = traced_loop(wl, inputs, args.seconds, args.smoke, tr)
        pairs = len(records)
        probes(args.workload, args.seed, tr, records, cli_ctx, args.smoke)
        metrics = layer_metrics(tr, overhead, pairs)
        spans = tr.dump()
    else:
        records, timed = untraced_loop(wl, inputs, args.seconds, args.smoke)
        for _ in range(children - children // 2):
            setup_samples.append(setup_in_child(args.workload))
        peak = cli_ctx.max_child_rss_kb if args.workload == "cli" else workloads.self_peak_rss_kb()
        metrics = e2e_metrics(records, timed, setup_samples, peak)

    failures = [r for r in records if r["cause"]]
    by_cause, by_defect = defaultdict(int), defaultdict(int)
    for r in failures:
        by_cause[r["cause"]] += 1
        if "defect" in r:
            by_defect[str(r["defect"])] += 1
    summary = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "failed_ratio": len(failures) / len(records),
        "failures_by_cause": dict(by_cause),
        "failures_by_defect": dict(by_defect),
    }
    result = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(args.seed, loadavg_start, ticks_start),
        "summary": summary,
        "metrics": metrics,
        "setup_samples_s": setup_samples,
        "failures": failures,
        "operations": [{k: r[k] for k in ("kind", "cause", "seconds", "probe")} for r in records],
    }
    if spans is not None:
        result["spans"] = spans
    out = args.out or OUT / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))

    print(f"{wl.name} seed={args.seed} trace={args.trace}: {summary['attempted']} ops, "
          f"{summary['failed']} failed ({dict(by_cause)})", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:9s} n={m['samples']}", file=sys.stderr)
    for r in failures[:20]:
        print(f"  failed {r['kind']}: {r['cause']}: {r['detail']}", file=sys.stderr)
    print(f"  result file: {out}", file=sys.stderr)
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name]["value"], "unit": unit} for name, unit in (LAYERS if args.trace else E2E)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
