#!/usr/bin/env python3
"""scenecheck benchmark: one workload per call, run from the repository root.

    python3 bench/run.py --workload experiment --seed 1 --seconds 10 --trace 0

Workloads (each a closed loop with one client in one single-threaded
process; see BENCHMARK.json for why each exists):

- experiment: the CLI stages synth, select-contexts, train (context
  `location`) and evaluate on the default synthetic corpus.
- verify-stream: parse + `verify` one image at a time over the val
  scenes and their object-removal twins, against a trained registry.
- verify-crowded: the same loop over generated 96x128 maps with about
  40 objects each, and their twins.

Inputs (corpus, registry, generated maps) are made from --seed before
anything is timed.  Set-up is timed in several fresh interpreters and
reported as the median.  Timed work runs in passes over the same input
and is reported as a cost in "ref": CPU time over that of a fixed
reference loop read next to it, because the host's core speed changes
under the benchmark (see worker.py).  Each image or stage counts with its
median over the passes.  The last line of stdout is one JSON object:
with --trace 0 it carries the end-to-end metrics, with --trace 1 the
per-layer metrics of one extra traced pass.  Lines above it print every
metric by name with its unit, the output digests and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from measure import code_key  # noqa: E402
from metrics import END_TO_END, LAYER_METRICS, REPORTED, STAGE_METRICS  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170
OUT_DIR = ".bench_out"


def _worker(mode: str, args, work: Path, *extra: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path.cwd() / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), mode, args.workload, str(args.seed), str(work),
         *extra],
        env=env,
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )


def _baseline_note(workload: str, seed: int, digests: dict) -> dict[str, str]:
    """Per digest: whether it matches the recorded baseline for this seed."""
    baseline = json.loads((BENCH / "baseline.json").read_text())
    recorded = baseline["digests"].get(workload, {}).get(str(seed))
    if recorded is None:
        return {name: "no baseline for this seed" for name in digests}
    return {
        name: "same as baseline" if recorded.get(name) == d else "differs from baseline"
        for name, d in digests.items()
    }


def _history_check(workload: str, seed: int, digests: dict) -> list[str]:
    """Compare with earlier runs of this seed and this code in this checkout."""
    path = Path(OUT_DIR) / "digests.json"
    history = json.loads(path.read_text()) if path.exists() else {}
    seen = history.setdefault(code_key(), {}).setdefault(workload, {}).setdefault(str(seed), {})
    mismatches = [name for name, d in digests.items() if seen.setdefault(name, d) != d]
    path.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    return mismatches


def _print_human(args, result: dict, prep: dict, setups: list[float], notes: dict) -> None:
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, 1 process, "
          f"{result.get('passes', 0)} timed pass(es)")
    for key in ("images_per_pass", "mean_objects", "mean_pairs"):
        if key in prep:
            print(f"  input {key:<26} {prep[key]:.4g}")
    rows = list(END_TO_END) + list(REPORTED)
    rows += list(STAGE_METRICS) if args.workload == "experiment" else []
    for name, unit in rows:
        if name in result:
            print(f"  {name:<32} {result[name]:.6g} {unit}")
    print(f"  setup_s samples                  {len(setups)} set-ups, median reported")
    if "verify_samples" in result:
        print(f"  verify latency samples           {result['verify_samples']} "
              f"({result['verify_beyond_p90']} beyond p90)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  error_rate                       {failed / attempted:.6g} failed/attempted "
          f"({failed}/{attempted})")
    for problem in result.get("problems", []):
        print(f"  FAILED: {problem}")
    for name, digest in sorted(result.get("digests", {}).items()):
        print(f"  sha256 {name:<24} {digest}  {notes[name]}")
    for name, value in sorted(result.get("layers", {}).items()):
        print(f"  layer {name:<45} {value:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (Path("src") / "scenecheck" / "__init__.py").is_file():
        print("error: run from the root of a scenecheck checkout (no src/scenecheck)", file=sys.stderr)
        return 2

    Path(OUT_DIR).mkdir(exist_ok=True)
    work = Path(OUT_DIR) / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        _worker("prep", args, work)
        for _ in range(SETUP_PROBES):
            _worker("setup", args, work)
        _worker("run", args, work, str(args.seconds), str(args.trace))
        result = json.loads((work / "result.json").read_text())
        prep = json.loads((work / "input" / "prep.json").read_text())
        setups = [json.loads(p.read_text())["setup_s"] for p in work.glob("setup.*.json")]
        if args.trace:
            spans_out = Path(OUT_DIR) / f"spans-{args.workload}-{args.seed}.jsonl"
            shutil.copy(work / "spans.jsonl", spans_out)
    except subprocess.SubprocessError as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    digests = dict(result.get("digests", {}))
    digests.update({f"input:{k[:-7]}": v for k, v in prep.items() if k.endswith("_sha256")})
    mismatches = _history_check(args.workload, args.seed, digests)
    result["attempted"] += len(digests)
    result["failed"] += len(mismatches)
    result.setdefault("problems", []).extend(
        f"{name} differs from an earlier run of seed {args.seed}" for name in mismatches
    )
    result["digests"] = digests
    _print_human(args, result, prep, setups, _baseline_note(args.workload, args.seed, digests))

    if args.trace:
        wanted, values = [(name, unit) for name, unit, _ in LAYER_METRICS], result.get("layers", {})
    else:
        wanted, values = END_TO_END, result
    metrics = {n: {"value": values[n], "unit": unit} for n, unit in wanted if n in values}
    print(json.dumps({
        "correct": result["failed"] == 0 and len(metrics) == len(wanted),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
