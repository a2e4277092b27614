#!/usr/bin/env python3
"""Re-measure the baseline table of ROADMAP Open item 1 on fixed inputs.

    python3 bench/roadmap_table.py

Times each row on the paper's example (sigma=1.75, kappa=0.5, t1=1, t2=e),
the median of a few repeats, and adds the spread of
min_eigenvalue_modulus(n=1024) over a grid of (sigma, kappa).  Prints a
Markdown table; writes nothing but a temporary grid file under .bench_out/.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
WORK = ROOT / ".bench_out" / "tmp"
PAPER = ["--sigma", "1.75", "--kappa", "0.5", "--t1", "1", "--t2", "2.718281828459045"]


def timed(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def spawn(*args: str) -> None:
    subprocess.run([sys.executable, *args], cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


def main() -> int:
    import hadamard_bvp as h

    p = h.validate(1.75, 0.5, 1.0, math.e)
    q = h.Expression(h.parse_expr("ln(t)"))
    WORK.mkdir(parents=True, exist_ok=True)
    grid = WORK / "roadmap_grid.csv"
    rows = [
        ("`import hadamard_bvp`", timed(lambda: spawn("-c", "import hadamard_bvp"), 5), "s"),
        ("`import scipy.special` alone", timed(lambda: spawn("-c", "import scipy.special"), 5), "s"),
        ("`green_max`", timed(lambda: h.green_max(p), 200) * 1e6, "us"),
        ("`nonexistence_check(ln t)`", timed(lambda: h.nonexistence_check(p, q), 20) * 1e3, "ms"),
        ("`green_max_bruteforce` n=2000", timed(lambda: h.green_max_bruteforce(p, 2000), 5) * 1e3, "ms"),
        ("`green_max_bruteforce` n=4096", timed(lambda: h.green_max_bruteforce(p, 4096), 3) * 1e3, "ms"),
        ("`min_eigenvalue_modulus` n=400", timed(lambda: h.min_eigenvalue_modulus(p, 400), 5) * 1e3, "ms"),
        ("`min_eigenvalue_modulus` n=1024", timed(lambda: h.min_eigenvalue_modulus(p, 1024), 3), "s"),
        ("`min_eigenvalue_modulus` n=4000", timed(lambda: h.min_eigenvalue_modulus(p, 4000), 1), "s"),
        ("`green grid --n 1000`", timed(lambda: spawn("-m", "hadamard_bvp", "green", "grid", "--n", "1000",
                                                      "--out", str(grid), *PAPER), 1), "s"),
        ("`selftest`", timed(lambda: spawn("-m", "hadamard_bvp", "selftest"), 1), "s"),
    ]
    grid_mb = grid.stat().st_size / 1e6
    grid.unlink()
    sweep = []
    for sigma in (1.2, 1.4, 1.6, 1.8, 2.0):
        for r in (0.1, 0.5, 0.9):
            ps = h.validate(sigma, r * (sigma - 1.0), 1.0, math.e)
            sweep.append((timed(lambda: h.min_eigenvalue_modulus(ps, 1024), 1), sigma, r))
    print("| What | Time |\n|---|---|")
    for what, value, unit in rows:
        print(f"| {what} | {value:.3g} {unit} |")
    print(f"\n`green grid --n 1000` wrote {grid_mb:.1f} MB.")
    lo, hi = min(sweep), max(sweep)
    print(f"`min_eigenvalue_modulus(n=1024)` over sigma in 1.2..2, kappa/(sigma-1) in 0.1..0.9, "
          f"t1=1, t2=e: {lo[0]:.2f} s (sigma={lo[1]}, r={lo[2]}) to {hi[0]:.2f} s (sigma={hi[1]}, r={hi[2]}).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
