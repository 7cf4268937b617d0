"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance and size below is fixed, nothing is calibrated
at run time.
"""

import json
import math
import time

import numpy as np
import pytest

from scenecheck import (
    StatsBuilder,
    accumulate,
    default_synthetic_config,
    extract_objects,
    finalize,
    grid_from_array,
    load_model,
    mutual_information,
    relations_for_objects,
    save_model,
    score,
    score_attributes,
    shape_histogram,
    synth_corpus,
    train_linear,
    verify,
)
from scenecheck.cli import main
from scenecheck.corpus import Corpus, _stats_to_doc

from conftest import components, random_blob_array, registry_of
from pair_oracle import keyed
from test_labelgrid import _component_oracle, _touch_oracle
from test_relations import _resolved_shapes, octant_oracle, rpos_of_pairs
from test_stats import (
    _hand_builder,
    assert_positional_duality,
    assert_rows_are_distributions,
    lookup,
    position,
    proximity,
)
from test_context import mi_oracle
from test_verifier import _separable_set

ACCEPTANCE_SEED = 123


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """Criterion 6 pipeline: synth, train (global + contexts), evaluate."""
    root = tmp_path_factory.mktemp("acceptance")
    config = default_synthetic_config(n_images=400, seed=ACCEPTANCE_SEED)
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    corpus_dir = root / "corpus"
    registry_path = root / "registry.json"
    report_path = root / "report.json"
    started = time.monotonic()
    assert main(["synth", str(config_path), str(corpus_dir), "--seed", str(ACCEPTANCE_SEED)]) == 0
    assert (
        main(
            [
                "train", str(corpus_dir),
                "--context", "location",
                "--seed", str(ACCEPTANCE_SEED),
                "-o", str(registry_path),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "evaluate", str(registry_path), str(corpus_dir),
                "--seed", str(ACCEPTANCE_SEED),
                "-o", str(report_path),
            ]
        )
        == 0
    )
    elapsed = time.monotonic() - started
    report = json.loads(report_path.read_text())
    return {
        "config": config,
        "corpus_dir": corpus_dir,
        "registry_path": registry_path,
        "report": report,
        "elapsed": elapsed,
    }


def test_criterion_1_exact_oracles(rng):
    started = time.monotonic()
    # the pair table's octant vs independent interval oracle, 10,000 random
    # pairs, read from tables of 10 pairs
    pairs = []
    for _ in range(10_000):
        a = tuple(rng.uniform(0, 200, size=2))
        b = tuple(rng.uniform(0, 200, size=2))
        if a == b:
            continue
        pairs.append((a, b))
    mismatches = 0
    for k in range(0, len(pairs), 10):
        chunk = pairs[k : k + 10]
        for (a, b), label in zip(chunk, rpos_of_pairs(chunk), strict=True):
            if label != octant_oracle(a, b):
                mismatches += 1
    assert mismatches == 0

    # the contact matrix vs exhaustive pixel-pair oracle, 200 random blob pairs
    contact_mismatches = 0
    for _ in range(200):
        arr = random_blob_array(rng, size=14, steps=30, class_id=1)
        other = random_blob_array(rng, size=14, steps=30, class_id=2)
        arr[arr == 0] = other[arr == 0]
        grid = grid_from_array(arr, {1: "a", 2: "b"})
        objects = extract_objects(grid, min_area=1)
        touching = objects.contacts
        for i in range(len(objects)):
            for j in range(len(objects)):
                if i != j and touching[i, j] != _touch_oracle(objects, i, j):
                    contact_mismatches += 1
    assert contact_mismatches == 0

    # connected components vs flood-fill oracle, 100 random 64x64 grids
    component_mismatches = 0
    for _ in range(100):
        arr = rng.integers(0, 4, size=(64, 64)).astype(np.int32)
        grid = grid_from_array(arr, {1: "a", 2: "b", 3: "c"})
        got = components(extract_objects(grid, min_area=1))
        if got != _component_oracle(arr, 1):
            component_mismatches += 1
    assert component_mismatches == 0

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: exact oracles, 0 mismatches in {elapsed:.1f}s")


def test_criterion_2_statistics_correctness(tmp_path, rng):
    builder = _hand_builder()
    assert builder.images == 5
    assert keyed(builder, "presence") == {(1, 1): 1, (1, 2): 2, (1, 3): 1, (2, 3): 1}
    assert keyed(builder, "class_images") == {1: 4, 2: 3, 3: 2}
    model = finalize(builder)
    assert abs(lookup(model, "presence_table", 1, 2) - 3 / 7) <= 1e-12
    assert abs(position(model, 1, 2, "S") - 2 / 10) <= 1e-12
    assert abs(proximity(model, 1, 2, "ON") - 2 / 8) <= 1e-12
    assert abs(lookup(model, "distance_table", 1, 2)[1] - 2 / 7) <= 1e-12

    config = default_synthetic_config(n_images=25, seed=52)
    corpus = synth_corpus(config, tmp_path / "c2")
    scenes = []
    for image_id in corpus.image_ids():
        grid = corpus.grid(image_id)
        objects = extract_objects(grid)
        scenes.append((objects, relations_for_objects(grid, objects)))
    assert len(scenes) == 50
    classes = list(corpus.class_map)
    sequential = StatsBuilder.for_classes(classes)
    for objects, relations in scenes:
        accumulate(sequential, objects, relations)
    sequential_model = finalize(sequential)
    sequential_doc = json.dumps(_stats_to_doc(sequential_model), sort_keys=True)
    partitions = ([50], [25, 25], [10] * 5, [5] * 10, [1] * 50, [3, 17, 30])
    for sizes in partitions:
        shards = []
        start = 0
        for n in sizes:
            shard = StatsBuilder.for_classes(classes)
            for objects, relations in scenes[start : start + n]:
                accumulate(shard, objects, relations)
            shards.append(shard)
            start += n
        merged = finalize(*shards)
        assert merged == sequential_model
        assert json.dumps(_stats_to_doc(merged), sort_keys=True) == sequential_doc
    print(
        "PASS criterion 2: hand-tallied counts exact, probabilities to 1e-12, "
        f"shard merge bit-identical under {len(partitions)} partitions"
    )


def test_criterion_3_mutual_information(rng):
    for _ in range(100):
        counts = rng.integers(0, 60, size=(4, 6)).astype(float)
        if counts.sum() == 0:
            continue
        assert abs(mutual_information(counts) - mi_oracle(counts)) <= 1e-10
    for _ in range(25):
        u = rng.integers(1, 9, size=5)
        v = rng.integers(1, 9, size=4)
        assert abs(mutual_information(np.outer(u, v).astype(float))) <= 1e-12
    for _ in range(25):
        weights = rng.integers(1, 40, size=int(rng.integers(2, 8))).astype(float)
        p = weights / weights.sum()
        entropy = -float(np.sum(p * np.log(p)))
        assert abs(mutual_information(np.diag(weights)) - entropy) <= 1e-10
    print("PASS criterion 3: MI matches the double-sum oracle to 1e-10")


def test_criterion_4_normalization_and_duality(tmp_path):
    config = default_synthetic_config(n_images=60, seed=41)
    corpus = synth_corpus(config, tmp_path / "c4")
    builder = StatsBuilder.for_classes(corpus.class_map)
    for image_id in corpus.image_ids():
        grid = corpus.grid(image_id)
        objects = extract_objects(grid)
        accumulate(builder, objects, relations_for_objects(grid, objects))
    for model in (finalize(builder), finalize(_hand_builder())):
        assert_rows_are_distributions(model)
        assert_positional_duality(model)
    print("PASS criterion 4: every table row sums to 1, positional duality exact")


def test_criterion_5_classifier_determinism(rng):
    started = time.monotonic()
    X, y = _separable_set(rng, n=200)
    a = train_linear(list(X), list(y), seed=77)
    b = train_linear(list(X), list(y), seed=77)
    assert a == b and a.weights == b.weights and a.bias == b.bias
    correct = sum(1 for m, yi in zip(score(a, X), y) if math.copysign(1, m) == yi)
    assert correct == 200
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(
        f"PASS criterion 5: bit-identical training, 200/200 separable in {elapsed:.2f}s"
    )


def test_criterion_6_context_experiment(experiment):
    config = experiment["config"]
    report = experiment["report"]
    corpus = Corpus.load(experiment["corpus_dir"])

    n_scenes = len(corpus.image_ids())
    assert n_scenes >= 800
    pools = {
        ctx.value: set(ctx.satellites) | set(ctx.lone_extra) | {ctx.anchor}
        | set(ctx.stack or ())
        for ctx in config.contexts
    }
    assert not pools["inside"] & pools["outside"]

    global_accuracy = report["global"]["accuracy"]
    per_context_avg = report["per_context_average_accuracy"]
    assert set(report["contexts"]) == {"inside", "outside"}
    assert global_accuracy >= 0.65
    assert per_context_avg >= global_accuracy
    assert experiment["elapsed"] < 60.0
    print(
        f"PASS criterion 6: {n_scenes} scenes, global {global_accuracy:.1%}, "
        f"per-context avg {per_context_avg:.1%} "
        f"({report['improvement_pp']:+.2f} pp) in {experiment['elapsed']:.1f}s"
    )


def test_criterion_7_context_selection(tmp_path):
    from collections import Counter

    first = 0
    for seed in (1, 2, 3, 4, 5):
        config = default_synthetic_config(n_images=400, seed=seed)
        corpus = synth_corpus(config, tmp_path / f"c7_{seed}")
        table = corpus.attributes()
        labels = {}
        for image_id in corpus.image_ids("train"):
            grid = corpus.grid(image_id)
            labels[image_id] = Counter(extract_objects(grid).class_id.tolist())
        report = score_attributes(table, labels)
        assert len(report["attributes"]) >= 4
        if report["selected"] == "location":
            first += 1
    assert first == 5
    print("PASS criterion 7: generating attribute ranked first on 5 of 5 seeds")


def test_criterion_8_shape_histograms(rng):
    for _ in range(50):
        blob = random_blob_array(rng, size=14, steps=45)
        a = np.zeros((44, 44), dtype=int)
        a[4 : 4 + 14, 3 : 3 + 14] = blob
        b = np.zeros((44, 44), dtype=int)
        b[21 : 21 + 14, 26 : 26 + 14] = blob
        ga, gb = grid_from_array(a, {1: "x"}), grid_from_array(b, {1: "x"})
        (ha,) = shape_histogram(ga, extract_objects(ga, min_area=1))
        (hb,) = shape_histogram(gb, extract_objects(gb, min_area=1))
        assert ha.tolist() == hb.tolist()
    for arr in _resolved_shapes():
        doubled = np.kron(arr, np.ones((2, 2), dtype=int))
        g1, g2 = grid_from_array(arr, {1: "x"}), grid_from_array(doubled, {1: "x"})
        (h1,) = shape_histogram(g1, extract_objects(g1, min_area=1))
        (h2,) = shape_histogram(g2, extract_objects(g2, min_area=1))
        l1 = float(np.abs(h1 - h2).sum())
        assert l1 <= 0.15
    print("PASS criterion 8: translation invariance exact on 50 blobs, 2x scale L1 <= 0.15")


def test_criterion_9_persistence(experiment, tmp_path, rng):
    registry = load_model(experiment["registry_path"])
    resaved = tmp_path / "registry_roundtrip.json"
    save_model(resaved, registry)
    reloaded = load_model(resaved)
    assert reloaded == registry

    corpus = Corpus.load(experiment["corpus_dir"])
    table = corpus.attributes()
    ids = corpus.image_ids()
    picks = [ids[int(i)] for i in rng.integers(0, len(ids), size=100)]
    for image_id in picks:
        grid = corpus.grid(image_id)
        record = table.record(image_id)
        assert verify(grid, reloaded, record) == verify(grid, registry, record)

    builder = _hand_builder()
    model = finalize(builder)
    stats_path = tmp_path / "stats_roundtrip.json"
    save_model(stats_path, registry_of(model))
    loaded = load_model(stats_path).global_detector.stats
    assert loaded == model
    assert keyed(loaded, "presence") == keyed(builder, "presence")
    print("PASS criterion 9: round-trips count-exact, verdicts identical on 100 scenes")
