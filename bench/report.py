#!/usr/bin/env python3
"""Print every metric of every workload: end to end, per layer, failures.

    python3 bench/report.py --seed 1 --seconds 10

Runs ``bench/run.py`` untraced and traced for each workload, then prints
each end-to-end metric and each per-layer metric by name, with its unit and
sample count, and the failures grouped by known defect.  Result files go to
``.bench_out/report/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_out" / "report"
WORKLOADS = ("screen", "crosscheck", "cli", "screen-edge")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = OUT / f"{workload}_seed{seed}_trace{trace}.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
        check=True, stdout=subprocess.DEVNULL,
    )
    return json.loads(out.read_text())


def show(title: str, metrics: dict) -> None:
    print(f"  {title}")
    for name, m in metrics.items():
        print(f"    {name:38s} {m['value']:>14.6g} {m['unit']:9s} n={m['samples']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    for workload in WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        s = plain["summary"]
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s timed): {plain['why']}")
        failed = {"failed_ratio": {"value": s["failed_ratio"], "unit": "ratio", "samples": s["attempted"]}}
        show("end to end (untraced run)", {**plain["metrics"], **failed})
        show("per layer (traced run)", traced["metrics"])
        defects = Counter(f.get("defect") for f in plain["failures"])
        for defect, count in sorted(defects.items(), key=lambda kv: str(kv[0])):
            print(f"  failures, defect {defect if defect is not None else 'unclassified'}: {count}")
        env = plain["environment"]
        print(f"  environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
              f"BLAS {env['blas']['name']} threads={env['blas']['threads']}, nproc {env['nproc']}, "
              f"load {env['loadavg_start'][0]:.2f}->{env['loadavg_end'][0]:.2f}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
