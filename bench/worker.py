"""The benchmark's workload process, started by `bench/run.py`.

    python3 bench/worker.py prep  WORKLOAD SEED DIR
    python3 bench/worker.py setup WORKLOAD SEED DIR
    python3 bench/worker.py run   WORKLOAD SEED DIR SECONDS TRACE

`prep` writes the workload's inputs under DIR/input without timing
them.  The verify workloads' corpus and registry are made once per seed
and per version of the code, kept under DIR/../inputs and copied from
there.  `setup` times one set-up in a fresh interpreter.  `run` sets up,
then runs passes over the workload's fixed input while another pass
fits in SECONDS (at least MIN_PASSES passes, and on the verify workloads
at least 100 images), checks every output, and writes DIR/result.json; with TRACE 1
it then runs one more pass with every traced function wrapped.

scenecheck and numpy are imported only inside the timed set-up, so that
set-up time includes importing them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import measure

WORKLOADS = ("experiment", "verify-stream", "verify-crowded")
MIN_SAMPLES = measure.min_samples_for(90)
# Passes at least, so that each image's cost is a median; an experiment
# pass is long enough on its own.
MIN_PASSES = {"experiment": 1, "verify-stream": 5, "verify-crowded": 5}
STAGES = ("synth", "select", "train", "evaluate")


def _stage_argv(seed: int) -> dict[str, list[str]]:
    s = str(seed)
    return {
        "synth": ["synth", "config.json", "corpus", "--seed", s],
        "select": ["select-contexts", "corpus", "-o", "contexts.json"],
        "train": ["train", "corpus", "--context", "location", "--seed", s, "-o", "registry.json"],
        "evaluate": ["evaluate", "registry.json", "corpus", "--seed", s, "-o", "report.json"],
    }


@contextlib.contextmanager
def _inside(directory: Path):
    previous = Path.cwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def _cli(argv: list[str]) -> int:
    from scenecheck import cli

    return cli.main(argv)


# ---------------------------------------------------------------------------
# prep: inputs, untimed


def _synth_and_train(seed: int, inp: Path, train: bool) -> dict:
    """Write config.json, the corpus and, with train, registry.json into inp."""
    from scenecheck import default_synthetic_config

    inp.mkdir(parents=True)
    config = default_synthetic_config(seed=seed)
    (inp / "config.json").write_text(json.dumps(config.to_dict(), indent=1) + "\n")
    info = {}
    with _inside(inp):
        if _cli(_stage_argv(seed)["synth"]) != 0:
            raise SystemExit("prep: synth failed")
        info["corpus_sha256"] = measure.tree_digest(Path("corpus"))
        if train:
            if _cli(_stage_argv(seed)["train"]) != 0:
                raise SystemExit("prep: train failed")
            info["registry_sha256"] = measure.file_digest(Path("registry.json"))
    (inp / "prep.json").write_text(json.dumps(info, indent=1) + "\n")
    return info


def _trained_inputs(seed: int, cache: Path) -> Path:
    """The corpus and registry of a seed, made on first use for this code."""
    done = cache / f"{measure.code_key()}-{seed}"
    if not done.is_dir():
        staging = cache / f"staging-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        _synth_and_train(seed, staging, train=True)
        try:
            staging.rename(done)
        except OSError:  # made meanwhile by another run of the same seed
            shutil.rmtree(staging)
    return done


def prep(workload: str, seed: int, work: Path) -> None:
    from scenecheck import Corpus, load_model

    import gen

    inp = work / "input"
    if workload == "experiment":
        _synth_and_train(seed, inp, train=False)
        return
    shutil.copytree(_trained_inputs(seed, work.parent / "inputs"), inp)
    info = json.loads((inp / "prep.json").read_text())
    registry = load_model(inp / "registry.json")
    if workload == "verify-stream":
        items = gen.stream_items(Corpus.load(inp / "corpus"), seed, registry.min_area)
    else:
        items = gen.crowded_items(seed, registry.min_area)
    info["images_per_pass"] = len(items)
    info["mean_objects"], info["mean_pairs"] = gen.mean_load(items)
    (inp / "items.json").write_text(json.dumps(items))
    (inp / "prep.json").write_text(json.dumps(info, indent=1) + "\n")


# ---------------------------------------------------------------------------
# set-up, timed


def set_up(workload: str, work: Path):
    """Import, load the corpus and its attributes, and load the registry."""
    started = time.perf_counter()
    import scenecheck

    corpus = scenecheck.Corpus.load(work / "input" / "corpus")
    corpus.attributes()
    registry = None
    if workload != "experiment":
        registry = scenecheck.load_model(work / "input" / "registry.json")
    return time.perf_counter() - started, corpus, registry


# ---------------------------------------------------------------------------
# run


class Outcome:
    """Operations attempted, failures, and the output checks that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        """Count one operation or output check; record what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def report(self, result: dict) -> None:
        result.update(attempted=self.attempted, failed=self.failed, problems=self.problems[:20])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the reference loop
#
# The host this benchmark was written on switches its cores between a
# fast state and one 1.5-1.8x slower, for seconds to minutes at a time,
# unseen by the guest (no steal time is booked), so the same work reads
# up to 1.8x apart from run to run on any clock.  Timed work is therefore
# cut into short stretches (an image, the work between two images of a
# CLI stage), and each stretch is bracketed by readings of a fixed loop
# of interpreter and small-array work on the same clock.  A stretch's
# cost in "ref" is its CPU time over the mean of the two readings: the
# host's state cancels, and a change to scenecheck moves the cost as it
# moves the time.  The loop uses no scenecheck code.


@functools.cache
def _reference_array():
    import numpy as np

    return np.random.default_rng(0).integers(0, 8, size=(48, 64))


def _reference_loop() -> int:
    import numpy as np

    counts: dict[int, int] = {}
    for i in range(4000):
        key = (i * 7919) % 97
        counts[key] = counts.get(key, 0) + i
    total = 0
    for row in _reference_array()[::4]:
        total += int(np.bincount(row, minlength=8).argmax())
        total += int((row[1:] != row[:-1]).sum())
    values, _ = np.unique(_reference_array(), return_counts=True)
    return total + len(values) + len(counts)


def reference_ms(runs: int = 20) -> float:
    """CPU milliseconds of one run of the reference loop, the mean of `runs` runs."""
    started = time.process_time()
    for _ in range(runs):
        _reference_loop()
    return 1000.0 * (time.process_time() - started) / runs


class CostMeter:
    """Costs in ref of consecutive stretches of work, read on the CPU clock.

    `lap` ends a stretch with a reading of the reference loop and
    returns its cost; `skip` starts a stretch without counting the work
    since the last lap.  The readings' own wall time is kept, so that
    wall times of the same work can leave it out.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.reading_wall = 0.0
        self.total = 0.0
        self._before = self._read()
        self._mark = time.process_time()

    def _read(self) -> float:
        wall, cpu = time.perf_counter(), time.process_time()
        _reference_loop()
        reading = time.process_time() - cpu
        self.reading_wall += time.perf_counter() - wall
        self.readings.append(reading)
        return reading

    def skip(self) -> None:
        self._mark = time.process_time()

    def lap(self) -> float:
        cpu = time.process_time() - self._mark
        after = self._read()
        cost = 2.0 * cpu / (self._before + after)
        self.total += cost
        self._before = after
        self._mark = time.process_time()
        return cost

    def reference_ms(self) -> float:
        return 1000.0 * statistics.median(self.readings)


def _latency_metrics(wall_s: list[float], cost_ref: list[float]) -> dict:
    """Percentiles over every timed call: wall times, and costs in ref."""
    wall_ms = [t * 1000.0 for t in wall_s]
    return {
        "verify_p50_ms": measure.percentile(wall_ms, 50),
        "verify_p90_ms": measure.percentile(wall_ms, 90),
        "verify_p90_cost": measure.percentile(cost_ref, 90),
        "verify_samples": len(wall_ms),
        "verify_beyond_p90": measure.samples_beyond(len(wall_ms), 90),
    }


def _done(pass_s: list[float], deadline: float, min_passes: int) -> bool:
    """True after min_passes when another pass like the last would end past the deadline."""
    return len(pass_s) >= min_passes and time.perf_counter() + pass_s[-1] > deadline


def _expected_model(registry, attributes) -> str:
    from scenecheck.verifier import GLOBAL_LABEL

    value = attributes.get(registry.context_attribute) if registry.context_attribute else None
    return value if value in registry.models else GLOBAL_LABEL


def _check_first_pass(items, grids, verdicts, registry, outcome: Outcome) -> None:
    for item, grid, verdict in zip(items, grids, verdicts):
        if verdict is None:
            continue
        tag = f"{item['image_id']} ({'twin' if item['contradiction'] else 'scene'})"
        outcome.op(grid.to_text() == item["text"], f"{tag}: parse does not round-trip")
        n = item["objects"]
        outcome.op(len(verdict.pair_scores) == n * (n - 1), f"{tag}: pair count")
        outcome.op(
            verdict.model_used == _expected_model(registry, item["attributes"]),
            f"{tag}: dispatched to {verdict.model_used}",
        )
        outcome.op(0.0 <= verdict.confidence <= 1.0, f"{tag}: confidence out of range")


def run_verify(workload, work, seconds, trace, corpus, registry, result) -> None:
    from scenecheck import labelgrid, verifier

    items = json.loads((work / "input" / "items.json").read_text())
    class_map = corpus.class_map
    outcome = Outcome()
    wall_s: list[float] = []
    item_cost: list[list[float]] = [[] for _ in items]
    pass_s: list[float] = []
    elapsed_s: list[float] = []  # with the reference readings, for the deadline
    digests: list[str] = []
    first_verdicts = None
    meter = CostMeter()
    deadline = time.perf_counter() + seconds
    while True:
        first = first_verdicts is None
        grids, verdicts = [], []
        pass_started = time.perf_counter()
        pass_wall = 0.0
        for index, item in enumerate(items):
            meter.skip()
            started = time.perf_counter()
            try:
                grid = labelgrid.parse_label_grid(item["text"], class_map, item["image_id"])
                verdict = verifier.verify(grid, registry, item["attributes"])
            except Exception as exc:  # counted in error_rate; the map stays in the stream
                outcome.op(False, f"{item['image_id']}: {type(exc).__name__}: {exc}")
                grids.append(None)
                verdicts.append(None)
                continue
            wall = time.perf_counter() - started
            item_cost[index].append(meter.lap())
            wall_s.append(wall)
            pass_wall += wall
            outcome.op(True, "")
            if first:
                grids.append(grid)
            verdicts.append(verdict)
        pass_s.append(pass_wall)
        elapsed_s.append(time.perf_counter() - pass_started)
        digests.append(
            measure.verdict_stream_digest(v.to_dict() if v else None for v in verdicts)
        )
        if first:
            first_verdicts = verdicts
            _check_first_pass(items, grids, verdicts, registry, outcome)
        else:
            outcome.op(digests[-1] == digests[0], f"pass {len(digests)}: verdicts differ")
        if (
            _done(elapsed_s, deadline, MIN_PASSES[workload])
            and len(pass_s) * len(items) >= MIN_SAMPLES
        ):
            break
    result["peak_rss_mb"] = _peak_rss_mb()

    rows = [
        (it["attributes"].get(registry.context_attribute), it["contradiction"], v.contradiction)
        for it, v in zip(items, first_verdicts)
        if v is not None
    ]
    if wall_s:
        costs = measure.unit_medians(item_cost)
        result.update(_latency_metrics(wall_s, [c for cost in item_cost for c in cost]))
        result["cost_per_image"] = sum(costs) / len(costs)
        result["images_per_s"] = len(wall_s) / sum(wall_s)
        result["reference_ms"] = meter.reference_ms()
    result.update(
        pass_s=statistics.median(pass_s),
        passes=len(pass_s),
        context_accuracy=measure.context_accuracy(rows),
        context_balanced_accuracy=measure.balanced_accuracy(rows),
        digests={"verdict_stream": digests[0]},
    )
    if trace:
        result["layers"] = _traced_verify_pass(
            work, items, class_map, statistics.median(pass_s), meter.reference_ms()
        )
    outcome.report(result)


def _traced_verify_pass(work, items, class_map, untraced_s, untraced_ref_ms) -> dict:
    import scenecheck
    from scenecheck import labelgrid, verifier

    import spans

    tracer = spans.Tracer()
    ref_before = reference_ms()
    tracer.install()
    try:
        with tracer.span(spans.SETUP_SPAN):
            corpus = scenecheck.corpus.Corpus.load(work / "input" / "corpus")
            corpus.attributes()
            registry = scenecheck.corpus.load_model(work / "input" / "registry.json")
        started = time.perf_counter()
        for item in items:
            with tracer.span("bench.image"):
                try:
                    grid = labelgrid.parse_label_grid(item["text"], class_map, item["image_id"])
                    verifier.verify(grid, registry, item["attributes"])
                except Exception:  # already counted by the untraced passes
                    pass
        traced_s = time.perf_counter() - started
    finally:
        tracer.uninstall()
    untraced_s *= (ref_before + reference_ms()) / 2.0 / untraced_ref_ms
    tracer.write(work / "spans.jsonl")
    return spans.layer_metrics(tracer, untraced_s, traced_s)


def _experiment_pass(seed, pass_dir: Path, outcome: Outcome, stage_cm=None, meter=None):
    """One run of the four CLI stages in pass_dir, or None if a stage failed.

    Returns each stage's wall seconds and, with a meter, its cost in
    ref; the meter's readings are left out of the seconds.
    """
    argv = _stage_argv(seed)
    times, costs = {}, {}
    pass_dir.mkdir()
    shutil.copy(pass_dir.parent / "input" / "config.json", pass_dir / "config.json")
    with _inside(pass_dir):
        for stage in STAGES:
            if meter is not None:
                meter.skip()
                marks = (meter.total, meter.reading_wall)
            started = time.perf_counter()
            with stage_cm(stage) if stage_cm else contextlib.nullcontext():
                try:
                    code = _cli(argv[stage])
                except Exception as exc:  # counted in error_rate
                    code = f"{type(exc).__name__}: {exc}"
            if meter is not None:
                meter.lap()
            times[stage] = time.perf_counter() - started
            if meter is not None:
                costs[stage] = meter.total - marks[0]
                times[stage] -= meter.reading_wall - marks[1]
            if not outcome.op(code == 0, f"stage {stage}: exit {code}"):
                return None
    return times, costs


@contextlib.contextmanager
def _metered_stages(meter: CostMeter, call_costs: list[float], verify_wall_s: list[float]):
    """Cut the CLI stages into stretches at calls the stages make per image.

    A stretch ends at each `Corpus.grid` call (one per image read) and
    around each `train_linear` (SGD) call.  Each `verify` call that
    evaluate makes is a stretch of its own: its cost goes to call_costs
    and its wall time to verify_wall_s.
    """
    from scenecheck import cli, corpus, verifier

    untimed = (corpus.Corpus.grid, verifier.train_linear, cli.verify)

    @functools.wraps(untimed[0])
    def grid(self, *args, **kwargs):
        meter.lap()
        return untimed[0](self, *args, **kwargs)

    @functools.wraps(untimed[1])
    def train_linear(*args, **kwargs):
        meter.lap()
        model = untimed[1](*args, **kwargs)
        meter.lap()
        return model

    @functools.wraps(untimed[2])
    def verify(*args, **kwargs):
        meter.lap()
        started = time.perf_counter()
        verdict = untimed[2](*args, **kwargs)
        verify_wall_s.append(time.perf_counter() - started)
        call_costs.append(meter.lap())
        return verdict

    corpus.Corpus.grid, verifier.train_linear, cli.verify = grid, train_linear, verify
    try:
        yield
    finally:
        corpus.Corpus.grid, verifier.train_linear, cli.verify = untimed


def _check_experiment(pass_dir: Path, prep_info, outcome: Outcome) -> dict:
    """Digests and accuracies of one experiment pass, after checking them."""
    from scenecheck import VerifierRegistry, load_model

    report_text = (pass_dir / "report.json").read_text()
    report = json.loads(report_text)
    verdict_lines = (pass_dir / "report.verdicts.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in verdict_lines]
    digests = {
        "corpus": measure.tree_digest(pass_dir / "corpus"),
        "contexts.json": measure.file_digest(pass_dir / "contexts.json"),
        "registry.json": measure.file_digest(pass_dir / "registry.json"),
        "report.json": measure.report_digest(report_text),
        "report.verdicts.jsonl": measure.file_digest(pass_dir / "report.verdicts.jsonl"),
    }
    outcome.op(
        digests["corpus"] == prep_info["corpus_sha256"], "synth: corpus differs from the prep's"
    )
    registry = load_model(pass_dir / "registry.json")
    outcome.op(
        isinstance(registry, VerifierRegistry) and sorted(registry.models) == ["inside", "outside"],
        "train: registry lacks the inside/outside context models",
    )
    dispatched = [(r["context"], r["expected"], r["dispatched_contradiction"]) for r in rows]
    forced = [(None, r["expected"], r["global_contradiction"]) for r in rows]
    global_accuracy = report["global"]["accuracy"]
    context_accuracy = report["per_context_average_accuracy"]
    outcome.op(
        math.isclose(measure.context_accuracy(forced), global_accuracy, rel_tol=1e-12),
        "evaluate: global accuracy does not match its verdicts",
    )
    outcome.op(
        math.isclose(measure.context_accuracy(dispatched), context_accuracy, rel_tol=1e-12),
        "evaluate: per-context accuracy does not match its verdicts",
    )
    outcome.op(report["global"]["total"] == len(rows), "evaluate: row count")
    return {
        "digests": digests,
        "global_accuracy": global_accuracy,
        "context_accuracy": context_accuracy,
        "context_balanced_accuracy": measure.balanced_accuracy(dispatched),
    }


def run_experiment(workload, work, seed, seconds, trace, corpus, result) -> None:
    prep_info = json.loads((work / "input" / "prep.json").read_text())
    outcome = Outcome()
    stage_times: dict[str, list[float]] = {s: [] for s in STAGES}
    stage_cost: dict[str, list[float]] = {s: [] for s in STAGES}
    pass_s: list[float] = []
    verify_s: list[float] = []
    call_cost: list[float] = []
    checked = None
    meter = CostMeter()
    deadline = time.perf_counter() + seconds
    with _metered_stages(meter, call_cost, verify_s):
        while True:
            pass_dir = work / f"pass{len(pass_s)}"
            timed = _experiment_pass(seed, pass_dir, outcome, meter=meter)
            if timed is None:
                break
            times, costs = timed
            for stage in STAGES:
                stage_times[stage].append(times[stage])
                stage_cost[stage].append(costs[stage])
            pass_s.append(sum(times.values()))
            got = _check_experiment(pass_dir, prep_info, outcome)
            if checked is None:
                checked = got
            else:
                for name, digest in got["digests"].items():
                    same = digest == checked["digests"][name]
                    outcome.op(same, f"pass {len(pass_s)}: {name} differs")
            shutil.rmtree(pass_dir)
            if _done(pass_s, deadline, MIN_PASSES[workload]):
                break
    result["peak_rss_mb"] = _peak_rss_mb()
    outcome.attempted += len(verify_s)
    if checked is not None:
        result.update(checked)
        result.update(_latency_metrics(verify_s, call_cost))
        result.update({f"{s}_s": statistics.median(t) for s, t in stage_times.items()})
        result.update(
            pass_s=statistics.median(pass_s),
                passes=len(pass_s),
        )
        n_images = len(corpus.image_ids())
        result["images_per_s"] = n_images / result["pass_s"]
        result["cost_per_image"] = sum(measure.unit_medians(stage_cost.values())) / n_images
        result["reference_ms"] = meter.reference_ms()
        if trace:
            result["layers"] = _traced_experiment_pass(
                work, seed, statistics.median(pass_s), meter.reference_ms()
            )
    outcome.report(result)


def _traced_experiment_pass(work, seed, untraced_s, untraced_ref_ms) -> dict:
    import spans

    tracer = spans.Tracer()

    @contextlib.contextmanager
    def stage_span(stage):
        # Repeats count within one command: each CLI stage is its own process for users.
        tracer.seen_grids.clear()
        with tracer.span(f"cli.{stage}"):
            yield

    ref_before = reference_ms()
    tracer.install()
    pass_dir = work / "traced"
    try:
        timed = _experiment_pass(seed, pass_dir, Outcome(), stage_span)
        if timed is None:
            raise RuntimeError("a stage failed in the traced pass")
    finally:
        tracer.uninstall()
    untraced_s *= (ref_before + reference_ms()) / 2.0 / untraced_ref_ms
    shutil.rmtree(pass_dir)
    tracer.write(work / "spans.jsonl")
    return spans.layer_metrics(tracer, untraced_s, sum(timed[0].values()))


def run(workload: str, seed: int, work: Path, seconds: float, trace: bool) -> None:
    setup_s, corpus, registry = set_up(workload, work)
    result = {"setup_s": setup_s}
    if workload == "experiment":
        run_experiment(workload, work, seed, seconds, trace, corpus, result)
    else:
        run_verify(workload, work, seconds, trace, corpus, registry, result)
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n")


def main(argv: list[str]) -> None:
    mode, workload, seed, work = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    if mode == "prep":
        prep(workload, seed, work)
    elif mode == "setup":
        setup_s = set_up(workload, work)[0]
        (work / f"setup.{os.getpid()}.json").write_text(json.dumps({"setup_s": setup_s}))
    elif mode == "run":
        run(workload, seed, work, float(argv[4]), argv[5] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
