#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 bench/spread.py --workloads verify-stream --seeds 1-10
    python3 bench/spread.py --seeds 1-10 --write-baseline

Spread is the distance between the first and third quartile of the
runs' values (`statistics.quantiles(values, n=4)`), as a share of
their median; BENCHMARK.json bounds each end-to-end metric's spread.
With --write-baseline the medians, spreads, machine description and
the output digests of every seed run are written to bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _versions() -> dict:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="a range 'lo-hi' or a comma list")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)

    medians, spreads, runs = {}, {}, {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result = _run(workload, seed, spec["run_seconds"])
            shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}  {shown}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        medians[workload], spreads[workload], runs[workload] = {}, {}, values
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            medians[workload][name], spreads[workload][name] = med, spread
            bound = bounds[name]
            verdict = "ok" if spread < bound / 3 else "within bound" if spread <= bound else "OVER"
            print(f"  {workload:<15} {name:<28} median {med:<12.6g} spread {spread:.4f} "
                  f"bound {bounds[name]}  {verdict}", flush=True)

    if args.write_baseline:
        sys.path.insert(0, str(BENCH))
        from run import OUT_DIR, code_key

        os.chdir(ROOT)
        history = json.loads((Path(OUT_DIR) / "digests.json").read_text())[code_key()]
        baseline = {
            "about": "Medians and spreads over the seeds below, measured on the machine described; "
                     "digests are each seed's output sha256s at the commit that recorded them.",
            "environment": _versions(),
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
            "medians": medians,
            "spreads": spreads,
            "runs": runs,
            "digests": {w: {str(s): history[w][str(s)] for s in seeds} for w in medians},
        }
        (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
