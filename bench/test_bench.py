"""Tests of the benchmark's own arithmetic, generators and definitions.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import gen
import measure
import metrics
import spans
import worker
from scenecheck import (
    Corpus,
    default_synthetic_config,
    extract_objects,
    grid_from_array,
    synth_corpus,
)

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# percentile rule


def test_p90_needs_ten_samples_beyond_it():
    assert measure.min_samples_for(90) == 100
    assert measure.samples_beyond(100, 90) == 10
    assert measure.samples_beyond(99, 90) == 9
    assert worker.MIN_SAMPLES == 100


def test_nearest_rank_percentile():
    values = list(range(1, 101))[::-1]
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 90) == 90
    assert measure.percentile([7.0], 90) == 7.0


# ---------------------------------------------------------------------------
# costs against the reference loop


def test_cost_meter_cancels_the_host_speed(monkeypatch):
    now, slowdown = [0.0], [1.0]
    monkeypatch.setattr(worker.time, "process_time", lambda: now[0])
    monkeypatch.setattr(worker.time, "perf_counter", lambda: now[0])

    def reference_loop():  # 1 ms of CPU on a fast host
        now[0] += 0.001 * slowdown[0]

    def work(ms):
        now[0] += ms / 1000.0 * slowdown[0]

    monkeypatch.setattr(worker, "_reference_loop", reference_loop)
    meter = worker.CostMeter()
    work(10)
    assert meter.lap() == pytest.approx(10.0)
    slowdown[0] = 2.0
    work(10)  # the readings around it straddle the change: 1 ms and 2 ms
    assert meter.lap() == pytest.approx(20.0 / 1.5)
    work(10)
    assert meter.lap() == pytest.approx(10.0)
    work(500)  # left out
    meter.skip()
    work(10)
    assert meter.lap() == pytest.approx(10.0)
    assert meter.total == pytest.approx(30.0 + 20.0 / 1.5)
    assert meter.readings == pytest.approx([0.001, 0.001, 0.002, 0.002, 0.002])
    assert meter.reading_wall == pytest.approx(0.008)
    assert meter.reference_ms() == pytest.approx(2.0)


def test_metered_stages_put_the_program_back():
    from scenecheck import cli, corpus, verifier

    before = (corpus.Corpus.grid, verifier.train_linear, cli.verify)
    with worker._metered_stages(worker.CostMeter(), [], []):
        assert cli.verify is not before[2]
        assert corpus.Corpus.grid.__wrapped__ is before[0]
    assert (corpus.Corpus.grid, verifier.train_linear, cli.verify) == before


def test_unit_medians_skip_units_without_samples():
    assert measure.unit_medians([[3.0, 1.0, 2.0], [], [5.0, 4.0]]) == [2.0, 4.5]


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_children_but_not_grandchildren():
    trace = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 40, 0, 0],
        ["leaf", 20, 30, 1, 0],
        ["b", 50, 60, 0, 0],
        ["b", 70, 75, 0, 0],
    ]
    self_s = {k: round(v * 1e9) for k, v in spans.self_times(trace).items()}
    assert self_s == {"root": 100 - 30 - 10 - 5, "a": 20, "leaf": 10, "b": 15}
    assert spans.call_counts(trace) == {"root": 1, "a": 1, "leaf": 1, "b": 2}


def test_covered_time_is_a_clipped_union():
    assert spans.covered_ns([(10, 40), (30, 50), (60, 70)], 0, 100) == 50
    assert spans.covered_ns([(10, 40)], 20, 30) == 10
    assert spans.covered_ns([], 0, 100) == 0


def test_tracer_links_parents_and_operations(monkeypatch):
    clock = iter(range(0, 1000, 10))
    monkeypatch.setattr(spans.time, "perf_counter_ns", lambda: next(clock))
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    with tracer.span("op"):
        assert outer(1) == 4
    with tracer.span("op"):
        inner(0)
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    ops = [s[4] for s in tracer.spans]
    assert names == ["op", "outer", "inner", "op", "inner"]
    assert parents == [-1, 0, 1, -1, 3]
    assert ops == [0, 0, 0, 1, 1]
    self_s = spans.self_times(tracer.spans)
    assert self_s["inner"] == pytest.approx(20e-9)
    assert self_s["outer"] == pytest.approx(20e-9)
    assert self_s["op"] == pytest.approx(40e-9)


def test_install_wraps_every_binding_and_uninstall_restores():
    import scenecheck
    from scenecheck import cli, corpus, labelgrid, verifier

    original = labelgrid.extract_objects
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (scenecheck, labelgrid, verifier, corpus, cli):
            assert module.extract_objects is not original
        assert corpus.Corpus.grid.__wrapped__ is not None
    finally:
        tracer.uninstall()
    for module in (scenecheck, labelgrid, verifier, corpus, cli):
        assert module.extract_objects is original


# ---------------------------------------------------------------------------
# generators


def test_crowded_maps_are_deterministic_and_crowded():
    first, value = gen.crowded_array(5, 0)
    again, _ = gen.crowded_array(5, 0)
    other, _ = gen.crowded_array(6, 0)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
    assert first.shape == gen.CROWDED_SHAPE
    assert value == "inside" and gen.crowded_array(5, 1)[1] == "outside"
    class_map = default_synthetic_config().class_map()
    for index in range(3):
        arr, _ = gen.crowded_array(5, index)
        grid = grid_from_array(arr, class_map)
        # Every placed object is its own component: none touch.
        assert len(extract_objects(grid, min_area=1)) == gen.CROWDED_OBJECTS
        assert len(extract_objects(grid)) >= gen.CROWDED_OBJECTS - 8


def test_crowded_items_report_their_load():
    items = gen.crowded_items(5, 25, n_maps=2)
    assert items == gen.crowded_items(5, 25, n_maps=2)
    assert [it["contradiction"] for it in items] == [False, True, False, True]
    objects, pairs = gen.mean_load(items)
    assert objects == sum(it["objects"] for it in items) / 4
    assert pairs == sum(it["objects"] * (it["objects"] - 1) for it in items) / 4


def test_stream_items_are_deterministic(tmp_path):
    config = default_synthetic_config(n_images=10, seed=3)
    synth_corpus(config, tmp_path / "c")
    corpus = Corpus.load(tmp_path / "c")
    items = gen.stream_items(corpus, 3, 25)
    assert items == gen.stream_items(corpus, 3, 25)
    scenes = [it for it in items if not it["contradiction"]]
    assert [it["image_id"] for it in scenes] == corpus.image_ids("val")
    for previous, item in zip(items, items[1:]):
        if item["contradiction"]:
            assert item["image_id"] == previous["image_id"]
            assert item["objects"] == previous["objects"] - 1


# ---------------------------------------------------------------------------
# digests and accuracies


def test_report_digest_ignores_only_wall_time():
    report = {"global": {"accuracy": 0.7}, "seed": 1, "wall_time_s": 3.2}
    slower = dict(report, wall_time_s=9.9)
    changed = dict(report, seed=2)
    text = json.dumps(report, indent=1)
    assert measure.report_digest(text) == measure.report_digest(json.dumps(slower))
    assert measure.report_digest(text) != measure.report_digest(json.dumps(changed))


def test_balanced_accuracy_of_a_constant_valid_predictor_is_one_half():
    rows = [("inside", False, False)] * 160 + [("inside", True, False)] * 50
    rows += [("outside", False, False)] * 80 + [("outside", True, False)] * 57
    assert measure.balanced_accuracy(rows) == 0.5
    # Plain accuracy rewards the same predictor for the class imbalance.
    assert measure.context_accuracy(rows) > 0.65


def test_balanced_accuracy_by_hand():
    rows = [
        ("a", True, True), ("a", True, False), ("a", False, False), ("a", False, False),
        ("b", True, True), ("b", False, True),
    ]
    # a: TPR 1/2, TNR 1 -> 0.75; b: TPR 1, TNR 0 -> 0.5
    assert measure.balanced_accuracy(rows) == pytest.approx(0.625)
    assert measure.context_accuracy(rows) == pytest.approx((3 / 4 + 1 / 2) / 2)


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the code


def test_benchmark_json_names_what_the_benchmark_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(worker.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(m) for m in metrics.LAYER_METRICS
    ]
