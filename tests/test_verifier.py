"""Featurization, linear training, aggregation, and context dispatch."""

import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenecheck import (
    AttributeTable,
    DegenerateTrainingError,
    Detector,
    DimensionError,
    GLOBAL_LABEL,
    Hyperparams,
    LinearModel,
    PLACEHOLDER,
    SchemaError,
    StatsBuilder,
    UnknownClassError,
    Verdict,
    VerifierRegistry,
    accumulate,
    aggregate,
    default_synthetic_config,
    derive_seed,
    extract_objects,
    featurize,
    finalize,
    generate_contradiction,
    grid_from_array,
    prepare_all,
    relations_for_objects,
    score,
    shape_histogram,
    synth_corpus,
    train_linear,
    train_registry,
    verify,
)
import scenecheck.verifier as verifier_module
from scenecheck.corpus import EVAL_TAG, paint_removal, save_model
from scenecheck.relations import PROXIMITY_LABELS, SHAPE_BINS
from scenecheck.verifier import FEATURE_NAMES, N_FEATURES

import pair_oracle
from conftest import pixels
from test_relations import (
    CLASS_MAP,
    CONCENTRIC_RECTS,
    LABELLED_SCENES,
    RING_AND_SQUARE,
    _lattice_map,
    _rectangle_lattice,
    paint,
    scenes,
)
from test_scene import maps


def _identity_model(weights, bias=0.0):
    return LinearModel(
        weights=tuple(weights),
        bias=bias,
        feature_means=tuple(0.0 for _ in weights),
        feature_stds=tuple(1.0 for _ in weights),
        hyperparams=Hyperparams(),
        seed=0,
        n_pos=1,
        n_neg=1,
        context_label=GLOBAL_LABEL,
    )


def _uniform_prototypes(stats):
    """A prototype table that holds the uniform histogram for every class of `stats`."""
    return np.full((len(stats.classes), SHAPE_BINS), 1.0 / SHAPE_BINS)


def _prototype_rows(stats, prototypes):
    """The table's rows by class id, as the per-pair oracle reads them."""
    return dict(zip(stats.classes, prototypes))


class TestFeaturize:
    def _scene(self):
        arr = np.zeros((20, 8), dtype=int)
        arr[4:8, 2:6] = 1
        arr[8:16, 2:6] = 2
        grid = grid_from_array(arr, {1: "top", 2: "bottom"})
        objects = extract_objects(grid, min_area=1)
        hists = shape_histogram(grid, objects)
        return grid, objects, relations_for_objects(grid, objects), hists

    def test_octant_probability_lands_in_slot_one(self):
        grid, objects, pairs, hists = self._scene()  # pair 0 is (top, bottom), rpos "S"
        builder = StatsBuilder.for_classes([1, 2])
        builder.images = 8
        octant_index = 6  # S
        counts = [0] * 8
        counts[octant_index] = 8
        builder.position[0, 1] = counts  # classes 1 and 2 are rows 0 and 1
        stats = finalize(builder, alpha=1.0)
        X = featurize(pairs, objects, hists, stats, _uniform_prototypes(stats))
        assert X.shape == (2, N_FEATURES)
        assert X[0, 1] == pytest.approx(9 / 16, abs=1e-15)

    def test_prototype_match_zeroes_shape_term(self):
        grid, objects, pairs, hists = self._scene()
        builder = StatsBuilder.for_classes([1, 2])
        builder.images = 1
        stats = finalize(builder, alpha=1.0)
        prototypes = _uniform_prototypes(stats)
        prototypes[0] = hists[0]  # class 1
        X = featurize(pairs, objects, hists, stats, prototypes)
        assert X[0, len(FEATURE_NAMES) - 1] == 0.0

    def test_components_match_independent_recomputation(self):
        grid, objects, pairs, hists = self._scene()
        rel = pair_oracle.table_rows(pairs, objects)[0]
        builder = StatsBuilder.for_classes([1, 2])
        accumulate(builder, objects, pairs)
        stats = finalize(builder, alpha=1.0)
        fv = featurize(pairs, objects, hists, stats, _uniform_prototypes(stats))[0]
        assert fv[0] == pair_oracle.query(stats, "presence", 1, 2, None)
        assert fv[1] == pair_oracle.query(stats, "position", 1, 2, rel.rpos)
        assert fv[2] == pair_oracle.query(stats, "proximity", 1, 2, rel.rprox)
        assert fv[3] == pair_oracle.query(stats, "distance", 1, 2, rel.rdist_bin)
        assert fv[4] == abs(pair_oracle.size_zscore(stats, 1, 2, rel.rsize))
        assert fv[5] == rel.rdist
        assert fv[6] == pytest.approx(
            float(np.abs(hists[0] - 1.0 / 16).sum()), abs=1e-15
        )

    def test_no_pairs_give_an_empty_matrix(self):
        grid, objects, _, hists = self._scene()
        builder = StatsBuilder.for_classes([1, 2])
        builder.images = 1
        stats = finalize(builder, alpha=1.0)
        lone = objects[:1]
        X = featurize(
            relations_for_objects(grid, lone), lone, hists[:1], stats, _uniform_prototypes(stats)
        )
        assert X.shape == (0, N_FEATURES)


def _separable_set(rng, n=200):
    X = rng.uniform(0.0, 1.0, size=(n, N_FEATURES))
    y = np.where(rng.random(n) < 0.5, 1, -1)
    X[:, 0] = np.where(y > 0, rng.uniform(2.0, 3.0, n), rng.uniform(-3.0, -2.0, n))
    return X, y


class TestTrainLinear:
    def test_separable_set_reaches_full_training_accuracy(self, rng):
        X, y = _separable_set(rng)
        model = train_linear(list(X), list(y), seed=1)
        correct = sum(
            1 for m, yi in zip(score(model, X), y) if math.copysign(1, m) == yi
        )
        assert correct == len(y)

    def test_same_seed_is_bit_identical(self, rng):
        X, y = _separable_set(rng)
        a = train_linear(list(X), list(y), seed=9)
        b = train_linear(list(X), list(y), seed=9)
        assert a == b
        assert a.weights == b.weights and a.bias == b.bias

    def test_single_class_rejected(self, rng):
        X = rng.uniform(size=(10, N_FEATURES))
        with pytest.raises(DegenerateTrainingError):
            train_linear(list(X), [1] * 10, seed=0)

    def test_diverging_fit_rejected(self, rng):
        X, y = _separable_set(rng)
        with pytest.raises(DegenerateTrainingError, match="SGD diverged"):
            train_linear(X, y, Hyperparams(learning_rate=1e300, epochs=2), seed=0)

    def test_identical_features_mixed_labels_hits_prior(self, rng):
        X = np.tile(rng.uniform(size=N_FEATURES), (100, 1))
        y = np.array([1] * 70 + [-1] * 30)
        model = train_linear(list(X), list(y), seed=4)
        preds = [1 if m > 0 else -1 for m in score(model, X)]
        accuracy = sum(1 for p, yi in zip(preds, y) if p == yi) / len(y)
        assert abs(accuracy - 0.7) <= 0.05


def _train_linear_reference(features, labels, hyperparams=None, seed=0):
    """The per-sample SGD loop with array temporaries, kept as the exactness
    oracle of `train_linear`'s in-place steps.  Also returns how many steps
    took the hinge branch and how many only decayed the weights."""
    hp = hyperparams or Hyperparams()
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    means = X.mean(axis=0)
    stds = np.maximum(X.std(axis=0), 1e-6)
    Z = (X - means) / stds
    rng = np.random.default_rng(seed)
    w = np.zeros(X.shape[1])
    b = 0.0
    lr, lam = hp.learning_rate, hp.l2_lambda
    w_avg = np.zeros_like(w)
    b_avg = 0.0
    averaged = 0
    branches = [0, 0]
    tail_start = hp.epochs - max(1, hp.epochs // 2)
    for epoch in range(hp.epochs):
        for i in rng.permutation(len(Z)):
            zi, yi = Z[i], y[i]
            if yi * (w @ zi + b) < 1.0:
                w -= lr * (lam * w - yi * zi)
                b += lr * yi
                branches[0] += 1
            else:
                w -= lr * lam * w
                branches[1] += 1
        if epoch >= tail_start:
            w_avg += w
            b_avg += b
            averaged += 1
    model = LinearModel(
        weights=tuple(float(v) for v in w_avg / averaged),
        bias=float(b_avg / averaged),
        feature_means=tuple(float(v) for v in means),
        feature_stds=tuple(float(v) for v in stds),
        hyperparams=hp,
        seed=int(seed),
        n_pos=int(np.sum(y > 0)),
        n_neg=int(np.sum(y < 0)),
        context_label=GLOBAL_LABEL,
    )
    return model, branches


class TestTrainLinearMatchesLoopReference:
    @pytest.mark.parametrize("seed", [0, 3, 41])
    @pytest.mark.parametrize("n", [2, 37, 300])
    @pytest.mark.parametrize("separable", [True, False])
    def test_models_equal_the_reference(self, seed, n, separable):
        rng = np.random.default_rng(seed * 1000 + n)
        if separable:
            X, y = _separable_set(rng, n)
        else:
            X = rng.normal(size=(n, N_FEATURES)) * rng.uniform(0.1, 10.0, N_FEATURES)
            y = np.where(rng.random(n) < 0.5, 1, -1)
        y[:2] = (1, -1)
        for hp in (Hyperparams(), Hyperparams(learning_rate=0.3, epochs=7, l2_lambda=0.05)):
            expected, (hinge, decay) = _train_linear_reference(X, y, hp, seed)
            assert train_linear(X, y, hp, seed=seed) == expected
            assert hinge > 0
            if separable and n > 2:
                assert decay > 0

    @staticmethod
    def _noisy_set(seed, n, width):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, width)) * rng.uniform(0.1, 10.0, width)
        y = np.where(rng.random(n) < 0.5, 1, -1)
        y[:2] = (1, -1)
        return X, y

    @pytest.mark.parametrize("width", [1, 2, 12, N_FEATURES])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_models_equal_the_reference_at_every_width(self, width, seed):
        X, y = self._noisy_set(seed * 100 + width, 90, width)
        X[:, -1] += 2.0 * y  # one informative column, so both branches run
        for hp in (Hyperparams(), Hyperparams(learning_rate=0.3, epochs=7, l2_lambda=0.05)):
            expected, (hinge, decay) = _train_linear_reference(X, y, hp, seed)
            model = train_linear(X, y, hp, seed=seed)
            assert model == expected
            assert len(model.weights) == width
            assert hinge > 0 and decay > 0

    def test_constant_column_hits_the_std_floor(self):
        X, y = self._noisy_set(7, 60, N_FEATURES)
        X[:, 2] = 3.25
        expected, _ = _train_linear_reference(X, y, seed=7)
        model = train_linear(X, y, seed=7)
        assert model.feature_stds[2] == 1e-6
        assert model == expected

    def test_duplicated_rows_with_opposite_labels(self):
        # A twin repeats its source's rows with the opposite label.
        X, _ = self._noisy_set(11, 40, N_FEATURES)
        X = np.concatenate([X, X[:25]])
        y = np.array([-1] * 40 + [1] * 25)
        for seed in (0, 11):
            expected, (hinge, _) = _train_linear_reference(X, y, seed=seed)
            assert train_linear(X, y, seed=seed) == expected
            assert hinge > 0

    def test_widths_interleaved_in_one_process(self):
        sets = [self._noisy_set(width, 50, width) for width in (3, N_FEATURES, 3, 12)]
        for X, y in sets + sets[::-1]:
            expected, _ = _train_linear_reference(X, y, seed=2)
            assert train_linear(X, y, seed=2) == expected


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("epochs", 0, "epochs must be >= 1"),
        ("epochs", -1, "epochs must be >= 1"),
        *(
            (name, value, f"{name} must be finite and above 0")
            for name in ("learning_rate", "l2_lambda")
            for value in (0.0, -1.0, math.inf, math.nan)
        ),
    ],
)
def test_hyperparams_reject_a_bad_field(name, value, message):
    with pytest.raises(ValueError, match=message):
        Hyperparams(**{name: value})


class TestScore:
    def test_zero_model_scores_zero(self, rng):
        model = _identity_model([0.0] * N_FEATURES)
        margins = score(model, rng.uniform(size=(5, N_FEATURES)))
        assert margins.shape == (5,)
        assert np.all(margins == 0.0)

    def test_dimension_mismatch_rejected(self):
        model = _identity_model([0.0] * N_FEATURES)
        with pytest.raises(DimensionError):
            score(model, [1.0, 2.0])
        with pytest.raises(DimensionError):
            score(model, np.zeros((3, N_FEATURES - 1)))
        with pytest.raises(DimensionError):
            score(model, np.zeros(N_FEATURES))

    def test_affine_in_input_under_identity_standardization(self, rng):
        w = rng.normal(size=N_FEATURES)
        model = _identity_model(w, bias=0.37)
        fv = rng.normal(size=N_FEATURES)
        s1, s2, s3 = score(model, np.stack([fv, 2 * fv, 3 * fv])) - model.bias
        assert s2 == pytest.approx(2 * s1, rel=1e-12)
        assert s3 == pytest.approx(3 * s1, rel=1e-12)

    def test_training_margins_have_correct_sign(self, rng):
        X, y = _separable_set(rng)
        model = train_linear(list(X), list(y), seed=2)
        signs = [math.copysign(1, m) for m in score(model, X)]
        agreement = sum(1 for s, yi in zip(signs, y) if s == yi) / len(y)
        assert agreement >= 0.99


    def test_margins_do_not_depend_on_the_matrix_layout(self, rng):
        # Fortran-ordered, reversed-stride and strided copies of a C-ordered
        # matrix, and its one-row slices, hold the same values, so they give
        # the same margins bit for bit.
        X, y = _separable_set(rng, n=400)
        X[:, 1:] *= rng.uniform(0.1, 50.0, size=N_FEATURES - 1)
        model = train_linear(X, y, seed=3)
        want = score(model, X)
        padded = np.zeros((2 * len(X), N_FEATURES + 3))
        padded[::2, :N_FEATURES] = X
        copies = {
            "fortran": np.asfortranarray(X),
            "reversed": X[::-1, ::-1].copy()[::-1, ::-1],
            "strided": padded[::2, :N_FEATURES],
        }
        for name, copy in copies.items():
            assert np.array_equal(copy, X)
            assert score(model, copy).tobytes() == want.tobytes(), name
        rows = np.concatenate([score(model, X[i : i + 1]) for i in range(len(X))])
        assert rows.tobytes() == want.tobytes()


class TestAggregate:
    def test_majority_vote(self):
        contradiction, confidence = aggregate([1.0, 1.0, -1.0])
        assert contradiction is True
        assert confidence == pytest.approx(2 / 3)

    def test_majority_tie_is_not_contradiction(self):
        contradiction, confidence = aggregate([1.0, -1.0])
        assert contradiction is False
        assert confidence == 0.5

    def test_empty_abstains(self):
        assert aggregate([]) == (False, 0.5)

    def test_random_margins_match_hand_oracle(self, rng):
        for _ in range(100):
            margins = list(rng.normal(size=int(rng.integers(1, 9))))
            pos = sum(1 for m in margins if m > 0)
            expect_c = pos > len(margins) / 2
            expect_conf = (pos if expect_c else len(margins) - pos) / len(margins)
            assert aggregate(margins) == (expect_c, expect_conf)


@pytest.fixture(scope="module")
def small_experiment(tmp_path_factory):
    config = default_synthetic_config(n_images=150, seed=5)
    corpus, table = synth_corpus(config, tmp_path_factory.mktemp("corpus"))
    registry = train_registry(corpus, table, "location", seed=5)
    return corpus, table, registry


class TestVerify:
    def test_intact_scene_is_consistent(self, small_experiment):
        corpus, table, registry = small_experiment
        grid, record = _find_triple(corpus, table, registry)
        verdict = verify(grid, registry, record)
        assert verdict.contradiction is False
        assert verdict.model_used == record["location"]

    def test_removing_support_flags_contradiction(self, small_experiment):
        corpus, table, registry = small_experiment
        grid, record = _find_triple(corpus, table, registry)
        anchor_ids = {1, 6}
        objects = extract_objects(grid, registry.min_area)
        anchor = next(k for k, c in enumerate(objects.class_id.tolist()) if c in anchor_ids)
        cells = list(grid.cells)
        for r, c in pixels(objects, anchor):
            cells[r * grid.width + c] = 0
        broken = grid_from_array(
            np.array(cells).reshape(grid.height, grid.width), grid.class_map, grid.image_id
        )
        verdict = verify(broken, registry, record)
        assert verdict.contradiction is True

    def test_missing_attributes_fall_back_to_global(self, small_experiment):
        corpus, table, registry = small_experiment
        grid, _ = _find_triple(corpus, table, registry)
        assert verify(grid, registry, None).model_used == GLOBAL_LABEL
        assert (
            verify(grid, registry, {"location": PLACEHOLDER}).model_used == GLOBAL_LABEL
        )
        assert verify(grid, registry, {"lighting": "soft"}).model_used == GLOBAL_LABEL

    def test_every_attribute_value_resolves_somewhere(self, small_experiment):
        _, _, registry = small_experiment
        for value in ("inside", "outside", "mars", PLACEHOLDER, ""):
            label = registry.resolve({"location": value})
            assert label == value if value in registry.models else GLOBAL_LABEL

    def test_zero_object_scene_abstains(self, small_experiment):
        _, _, registry = small_experiment
        empty = grid_from_array(np.zeros((10, 10), dtype=int), {1: "floor"})
        verdict = verify(empty, registry, None)
        assert verdict.contradiction is False
        assert verdict.confidence == 0.5
        assert verdict.pair_scores == ()

    @pytest.mark.parametrize(
        "rects",
        [
            [],
            [(2, 4, 4, 6, 6)],
            [(99, 4, 4, 6, 6)],
            # A second component of 4 pixels, below the min_area of 25.
            [(2, 4, 4, 6, 6), (3, 16, 16, 2, 2)],
        ],
        ids=["no-object", "known-class", "class-the-stats-lack", "second-below-min-area"],
    )
    def test_one_object_map_abstains_right_after_labelling(
        self, small_experiment, monkeypatch, rects
    ):
        # Nothing past the component pass may run: each of these raises if
        # called, the table pass of labelling among them.
        _, _, registry = small_experiment
        grid = grid_from_array(paint(rects), {2: "thing", 3: "speck", 99: "stranger"})
        assert len(extract_objects(grid, registry.min_area)) == min(len(rects), 1)
        for name in ("_tables", "relations_for_objects", "shape_histogram", "featurize", "score"):

            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} called for a map of fewer than two objects")

            monkeypatch.setattr(verifier_module, name, refuse)
        margins_seen = []

        def spy(margins):
            margins_seen.append(np.asarray(margins))
            return aggregate(margins)

        monkeypatch.setattr(verifier_module, "aggregate", spy)
        verdict = verify(grid, registry, {"location": "inside"})
        assert verdict.contradiction is False
        assert verdict.confidence == 0.5
        assert verdict.pair_scores == ()
        assert verdict.model_used == "inside"
        assert len(margins_seen) == 1 and margins_seen[0].shape == (0,)
        # The refusals are in the path: a map of two objects reaches the table pass.
        pair = grid_from_array(paint([(2, 4, 4, 6, 6), (3, 14, 14, 6, 6)]), grid.class_map)
        with pytest.raises(AssertionError, match="_tables called"):
            verify(pair, registry)

    def test_verdict_invariant_under_object_permutation(self, small_experiment):
        corpus, table, registry = small_experiment
        grid, record = _find_triple(corpus, table, registry)
        verdict = verify(grid, registry, record)
        objects = extract_objects(grid, registry.min_area)
        detector = registry.models[verdict.model_used]
        stats, protos, model = detector.stats, detector.prototypes, detector.model
        for perm_seed in range(3):
            rng = np.random.default_rng(perm_seed)
            shuffled = objects[rng.permutation(len(objects))]
            hists = shape_histogram(grid, shuffled)
            pairs = relations_for_objects(grid, shuffled)
            margins = score(model, featurize(pairs, shuffled, hists, stats, protos))
            contradiction, _ = aggregate(margins.tolist())
            assert contradiction == verdict.contradiction


class TestVerifyPreparedScene:
    def test_scene_and_twin_give_the_grid_verdicts(self, small_experiment):
        corpus, table, registry = small_experiment
        models_used = set()
        for idx, image_id in enumerate(corpus.image_ids("val")[:60]):
            grid = corpus.grid(image_id)
            scene = next(prepare_all([grid], registry.min_area))
            variants = [(scene, grid)]
            if len(scene.objects) >= 2:
                seed = derive_seed(5, EVAL_TAG, idx)
                twin, _ = generate_contradiction(grid, seed, registry.min_area)
                variants.append((next(prepare_all([twin], registry.min_area)), twin))
            for attributes in (table.record(image_id), None):
                for prepared, unprepared in variants:
                    verdict = verify(prepared, registry, attributes)
                    assert verdict.to_dict() == verify(unprepared, registry, attributes).to_dict()
                    models_used.add(verdict.model_used)
        assert models_used == {GLOBAL_LABEL, "inside", "outside"}

    def test_scene_prepared_with_other_parameters_rejected(self, small_experiment):
        corpus, table, registry = small_experiment
        grid, record = _find_triple(corpus, table, registry)
        with pytest.raises(ValueError):
            verify(next(prepare_all([grid], registry.min_area + 1)), registry, record)


def _crowded_grid(seed, class_map):
    """A lattice map scaled by 3, so that most of its objects of classes
    1-3 reach the default min_area; no two share a centroid."""
    arr = np.kron(_lattice_map(np.random.default_rng(seed)), np.ones((3, 3), dtype=np.int32))
    return grid_from_array(arr, class_map, f"crowded{seed}")


def _dict_from_tuples(verdict):
    """`verdict.to_dict()` as it was built from the `pair_scores` tuple."""
    return {
        "image_id": verdict.image_id,
        "contradiction": verdict.contradiction,
        "confidence": verdict.confidence,
        "model_used": verdict.model_used,
        "pair_scores": [{"a": a, "b": b, "margin": m} for a, b, m in verdict.pair_scores],
    }


class TestVerdictArrays:
    def test_pair_scores_are_the_arrays_in_nested_loop_order(self, small_experiment):
        corpus, table, registry = small_experiment
        triple, record = _find_triple(corpus, table, registry)
        grids = [triple] + [_crowded_grid(seed, corpus.class_map) for seed in range(6)]
        for grid in grids:
            verdict = verify(grid, registry, record)
            columns = (verdict.a_index, verdict.b_index, verdict.margins)
            assert not any(column.flags.writeable for column in columns)
            assert verdict.pair_scores == tuple(zip(*(column.tolist() for column in columns)))
            n = len(extract_objects(grid, registry.min_area))
            assert [(a, b) for a, b, _ in verdict.pair_scores] == [
                (a, b) for a in range(n) for b in range(n) if a != b
            ]
            assert json.dumps(verdict.to_dict()) == json.dumps(_dict_from_tuples(verdict))
            assert verdict == verify(next(prepare_all([grid], registry.min_area)), registry, record)
            assert n > 20 or grid is triple

    @pytest.mark.parametrize("rects", [[], [(2, 4, 4, 6, 6)]], ids=["no-object", "one-object"])
    def test_abstention_has_empty_arrays(self, small_experiment, rects):
        _, _, registry = small_experiment
        grid = grid_from_array(paint(rects), {2: "thing"})
        scene = next(prepare_all([grid], registry.min_area))
        for labelled in (grid, scene):
            verdict = verify(labelled, registry)
            columns = (verdict.a_index, verdict.b_index, verdict.margins)
            assert [len(column) for column in columns] == [0, 0, 0]
            assert not any(column.flags.writeable for column in columns)
            assert verdict.pair_scores == ()
            assert verdict.to_dict()["pair_scores"] == []
        assert verify(grid, registry) == verify(scene, registry)

    def test_twin_features_are_the_source_rows_without_its_object(self, small_experiment):
        # Training reads a twin's feature rows from its source scene's: the
        # rows of the painted and prepared twin, bit for bit.
        corpus, table, registry = small_experiment
        detector = registry.global_detector
        stats, protos = detector.stats, detector.prototypes
        for seed in range(3):
            grid = _crowded_grid(seed, corpus.class_map)
            scene = next(prepare_all([grid], registry.min_area))
            X = featurize(scene.pairs, scene.objects, scene.hists, stats, protos)
            a, b = scene.pairs.a_index, scene.pairs.b_index
            twin_seeds = range(10)
            twins = [paint_removal(grid, scene.objects, s)[0] for s in twin_seeds]
            for twin_seed, twin in zip(twin_seeds, prepare_all(twins, registry.min_area)):
                k = verifier_module._removed_index(len(scene.objects), twin_seed)
                got = featurize(twin.pairs, twin.objects, twin.hists, stats, protos)
                assert got.tobytes() == X[(a != k) & (b != k)].tobytes()

    def test_verdicts_differing_in_one_margin_are_unequal(self, small_experiment):
        corpus, table, registry = small_experiment
        grid, record = _find_triple(corpus, table, registry)
        verdict = verify(grid, registry, record)
        margins = verdict.margins.copy()
        margins[-1] = np.nextafter(margins[-1], np.inf)
        assert replace(verdict, margins=margins) != verdict
        assert replace(verdict, margins=verdict.margins.copy()) == verdict


def _find_triple(corpus, table, registry):
    """First intact val scene of an anchor plus two free-standing objects.

    Rider scenes are skipped: there the rider's support is its base, not
    the anchor, so anchor removal is not the detectable contradiction.
    """
    riders = {4, 7}
    for image_id in corpus.image_ids("val"):
        grid = corpus.grid(image_id)
        objects = extract_objects(grid, registry.min_area)
        classes = set(objects.class_id.tolist())
        if len(objects) == 3 and classes & {1, 6} and not classes & riders:
            record = table.record(image_id)
            if verify(grid, registry, record).contradiction is False:
                return grid, record
    raise AssertionError("no suitable triple scene in the corpus")


class TestTrainRegistry:
    def test_context_models_trained_per_value(self, small_experiment):
        _, _, registry = small_experiment
        assert sorted(registry.models) == ["inside", "outside"]
        assert all(isinstance(d, Detector) for d in registry.models.values())
        assert registry.global_detector.model.context_label == GLOBAL_LABEL
        assert registry.models["inside"].model.context_label == "inside"
        # Each context's statistics count its own train images only.
        context_images = [d.stats.images for d in registry.models.values()]
        assert all(0 < n < registry.global_detector.stats.images for n in context_images)
        assert sum(context_images) <= registry.global_detector.stats.images
        # One read-only prototype row per class, uniform for a class the scope never shows.
        for d in [registry.global_detector, *registry.models.values()]:
            assert d.prototypes.shape == (len(d.stats.classes), SHAPE_BINS)
            assert not d.prototypes.flags.writeable
            unseen = d.stats.class_images == 0
            assert (d.prototypes[unseen] == 1.0 / SHAPE_BINS).all()
            assert unseen.any() or d is registry.global_detector

    def test_small_contexts_fall_back_to_global(self, tmp_path, monkeypatch):
        config = default_synthetic_config(n_images=40, seed=8)
        corpus, table = synth_corpus(config, tmp_path / "corpus")
        monkeypatch.setattr(verifier_module, "N_MIN_CONTEXT", 1000)
        registry = train_registry(corpus, table, "location", seed=8)
        assert registry.models == {}
        grid = corpus.grid(corpus.image_ids("val")[0])
        assert verify(grid, registry, table.record(grid.image_id)).model_used == GLOBAL_LABEL

    def test_no_context_attribute_trains_global_only(self, tmp_path):
        config = default_synthetic_config(n_images=40, seed=8)
        corpus, table = synth_corpus(config, tmp_path / "corpus")
        registry = train_registry(corpus, None, None, seed=8)
        assert registry.models == {}
        assert registry.context_attribute is None

    def test_context_value_named_global_rejected(self, tmp_path):
        config = default_synthetic_config(n_images=40, seed=8)
        inside, outside = config.contexts
        config = replace(config, contexts=(replace(inside, value=GLOBAL_LABEL), outside))
        corpus, table = synth_corpus(config, tmp_path / "corpus")
        with pytest.raises(SchemaError, match="'global'"):
            train_registry(corpus, table, "location", seed=8)

    @pytest.mark.parametrize("n_min", [20, 1000], ids=["contexts", "all-below-n-min"])
    def test_each_train_scene_is_counted_once(self, tmp_path, monkeypatch, n_min):
        config = default_synthetic_config(n_images=60, seed=8)
        corpus, table = synth_corpus(config, tmp_path / "corpus")
        train_ids = corpus.image_ids("train")
        # Every fifth train image is unannotated, so its value is the placeholder.
        records = {k: v for k, v in table.records.items() if k not in train_ids[::5]}
        table = AttributeTable(table.schema, records)
        folded = []

        def spy(builder, objects, pairs):
            folded.append(builder)
            return accumulate(builder, objects, pairs)

        monkeypatch.setattr(verifier_module, "accumulate", spy)
        monkeypatch.setattr(verifier_module, "N_MIN_CONTEXT", n_min)
        registry = train_registry(corpus, table, "location", seed=8)
        assert len(folded) == len(train_ids)
        assert len({id(b) for b in folded}) == 3  # inside, outside and the placeholder
        assert len(registry.models) == (2 if n_min == 20 else 0)
        # Each scope's statistics equal its scenes folded one by one into one builder.
        scenes = {i: next(prepare_all([corpus.grid(i)])) for i in train_ids}
        scopes = [(GLOBAL_LABEL, train_ids)] + [
            (v, [i for i in train_ids if table.value(i, "location") == v]) for v in registry.models
        ]
        for label, ids in scopes:
            builder = StatsBuilder.for_classes(corpus.class_map)
            for i in ids:
                accumulate(builder, scenes[i].objects, scenes[i].pairs)
            detector = registry.models.get(label, registry.global_detector)
            assert detector.stats == finalize(builder)

    def test_twin_rows_are_those_of_painted_twins(self, tmp_path, monkeypatch):
        # Training takes each twin's rows from its source scene; they must be
        # the rows of the map generate_contradiction paints under the same
        # seed, prepared.
        config = default_synthetic_config(n_images=40, seed=8)
        corpus, table = synth_corpus(config, tmp_path / "corpus")
        seen = []

        def spy(features, labels, *args, **kwargs):
            seen.append((features, list(labels)))
            return train_linear(features, labels, *args, **kwargs)

        monkeypatch.setattr(verifier_module, "train_linear", spy)
        registry = train_registry(corpus, table, None, seed=8)
        (features, labels), detector = seen[0], registry.global_detector
        tag, per_image = verifier_module._TRAIN_TAG, verifier_module.CONTRADICTIONS_PER_IMAGE
        rows, want = [], []
        for idx, image_id in enumerate(sorted(corpus.image_ids("train"))):
            grid = corpus.grid(image_id)
            scene = next(prepare_all([grid]))
            variants = [(scene, -1)]
            if len(scene.objects) >= 2:
                seeds = [derive_seed(8, tag, idx, j) for j in range(per_image)]
                twins = [generate_contradiction(grid, seed)[0] for seed in seeds]
                variants += [(twin, 1) for twin in prepare_all(twins)]
            for s, y in variants:
                X = featurize(s.pairs, s.objects, s.hists, detector.stats, detector.prototypes)
                rows.append(X)
                want += [y] * len(X)
        assert labels == want
        assert features.tobytes() == np.concatenate(rows).tobytes()

    def test_training_is_deterministic(self, tmp_path):
        config = default_synthetic_config(n_images=60, seed=21)
        corpus, table = synth_corpus(config, tmp_path / "corpus")
        paths = []
        for run in ("a", "b"):
            registry = train_registry(corpus, table, "location", seed=21)
            path = tmp_path / f"registry_{run}.json"
            save_model(path, registry)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


def _oracle_stats(universe=(1, 2, 3, 4)):
    """Statistics that saw classes 1-3 in a few scenes; every pair with 4 is unseen."""
    builder = StatsBuilder.for_classes(universe)
    training = [rects for rects, _ in LABELLED_SCENES.values()]
    training.append([(1, 2, 2, 4, 4), (3, 6, 2, 5, 9), (1, 15, 15, 3, 5)])
    for rects in training:
        grid = grid_from_array(paint(rects), CLASS_MAP)
        objects = extract_objects(grid, min_area=1)
        accumulate(builder, objects, relations_for_objects(grid, objects))
    return finalize(builder, alpha=1.0)


def _oracle_model(width=N_FEATURES):
    rng = np.random.default_rng(31)
    return LinearModel(
        weights=tuple(rng.normal(size=width).tolist()),
        bias=0.37,
        feature_means=tuple(rng.uniform(0.0, 0.5, size=width).tolist()),
        feature_stds=tuple(rng.uniform(0.3, 2.0, size=width).tolist()),
        hyperparams=Hyperparams(),
        seed=0,
        n_pos=1,
        n_neg=1,
        context_label=GLOBAL_LABEL,
    )


def _oracle_registry(model=None, stats=None):
    grid = grid_from_array(paint([(2, 3, 3, 9, 6)]), CLASS_MAP)
    stats = stats or _oracle_stats()
    # Class 2, at row 1, has a prototype; every other class compares against uniform.
    prototypes = _uniform_prototypes(stats)
    (prototypes[1],) = shape_histogram(grid, extract_objects(grid, min_area=1))
    return VerifierRegistry(
        context_attribute=None,
        min_area=1,
        global_detector=Detector(model or _oracle_model(), stats, prototypes),
    )


ORACLE_REGISTRY = _oracle_registry()


class TestBatchedPairLayerMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(scenes)
    @example(RING_AND_SQUARE)
    @example(CONCENTRIC_RECTS)
    def test_features_and_margins_equal_per_pair_oracle(self, rects):
        registry = ORACLE_REGISTRY
        detector = registry.global_detector
        stats, protos, model = detector.stats, detector.prototypes, detector.model
        grid = grid_from_array(paint(rects), CLASS_MAP)
        objects = extract_objects(grid, min_area=1)
        hists = shape_histogram(grid, objects)
        rels = pair_oracle.relations(grid, objects)
        rows = _prototype_rows(stats, protos)
        expected = np.array(
            [pair_oracle.featurize(r, hists[r.a_id], stats, rows) for r in rels]
        ).reshape(-1, N_FEATURES)
        X = featurize(relations_for_objects(grid, objects), objects, hists, stats, protos)
        assert X.shape == expected.shape
        assert (X == expected).all()
        expected_margins = [pair_oracle.score(model, fv) for fv in expected]
        assert score(model, X).tolist() == expected_margins
        verdict = verify(grid, registry)
        assert verdict.pair_scores == tuple(
            (r.a_id, r.b_id, m) for r, m in zip(rels, expected_margins)
        )
        assert (verdict.contradiction, verdict.confidence) == aggregate(expected_margins)

    def test_unseen_class_pairs_use_the_uniform_priors(self):
        stats = ORACLE_REGISTRY.global_detector.stats
        grid = grid_from_array(paint([(4, 2, 2, 4, 4), (4, 10, 10, 4, 4)]), CLASS_MAP)
        objects = extract_objects(grid, min_area=1)
        hists = shape_histogram(grid, objects)
        protos = _uniform_prototypes(stats)
        X = featurize(relations_for_objects(grid, objects), objects, hists, stats, protos)
        assert (X[:, 0] == 1.0 / (stats.images + 2.0)).all()
        assert (X[:, 1] == 1.0 / 8).all()
        assert (X[:, 2] == 1.0 / 6).all()
        assert (X[:, 3] == 1.0 / 5).all()
        assert (X[:, 4] == 0.0).all()

    def test_shape_term_equals_the_per_object_sum(self, rng):
        # Prototypes that are not multiples of 1/n_samples make the L1 sum
        # round, so each row must add in the order of a per-object sum.
        stats = ORACLE_REGISTRY.global_detector.stats
        rects = [(1, 1, 1, 5, 7), (2, 9, 2, 6, 4), (3, 3, 12, 9, 6), (1, 16, 10, 5, 9)]
        grid = grid_from_array(paint(rects), CLASS_MAP)
        objects = extract_objects(grid, min_area=1)
        hists = shape_histogram(grid, objects)
        for _ in range(20):
            protos = _uniform_prototypes(stats)
            protos[:2] = [rng.dirichlet(np.ones(SHAPE_BINS)) for _ in (1, 2)]  # classes 1, 2
            X = featurize(relations_for_objects(grid, objects), objects, hists, stats, protos)
            expected = [
                pair_oracle.featurize(r, hists[r.a_id], stats, _prototype_rows(stats, protos))[6]
                for r in pair_oracle.relations(grid, objects)
            ]
            assert X[:, 6].tolist() == expected

    def test_coincident_centroids_get_a_verdict(self):
        # The ring (object 0) and the square it surrounds share a centroid:
        # their pair is at distance 0, bin 0, octant E, and the square is
        # nested in the ring's bbox.
        grid = grid_from_array(paint(RING_AND_SQUARE), CLASS_MAP)
        objects = extract_objects(grid, min_area=1)
        pairs = relations_for_objects(grid, objects)
        assert pairs.rpos.tolist() == pairs.rdist_bin.tolist() == [0, 0]
        assert pairs.rdist.tolist() == [0.0, 0.0]
        assert [PROXIMITY_LABELS[p] for p in pairs.rprox.tolist()] == ["BACK", "FRONT"]
        verdict = verify(grid, ORACLE_REGISTRY)
        assert [(a, b) for a, b, _ in verdict.pair_scores] == [(0, 1), (1, 0)]
        assert all(math.isfinite(m) for _, _, m in verdict.pair_scores)

    def test_class_outside_the_model_raises(self):
        registry = _oracle_registry(stats=_oracle_stats(universe=(1, 2, 3)))
        pair = grid_from_array(paint([(1, 2, 2, 4, 4), (4, 10, 10, 4, 4)]), CLASS_MAP)
        with pytest.raises(UnknownClassError):
            verify(pair, registry)
        lone = grid_from_array(paint([(4, 10, 10, 4, 4)]), CLASS_MAP)
        assert verify(lone, registry).pair_scores == ()

    def test_model_of_the_wrong_width_raises(self):
        registry = _oracle_registry(model=_oracle_model(width=N_FEATURES - 2))
        grid = grid_from_array(paint([(1, 2, 2, 4, 4), (2, 10, 10, 4, 4)]), CLASS_MAP)
        with pytest.raises(DimensionError):
            verify(grid, registry)


@settings(max_examples=150, deadline=None)
@given(maps, st.sampled_from([1, 3]))
@example(paint(RING_AND_SQUARE), 1)
@example(paint(CONCENTRIC_RECTS), 1)
def test_verify_gives_every_map_a_verdict(arr, min_area):
    # Every map of known classes gets a verdict, objects that share a
    # centroid included: one margin per ordered pair of the objects of at
    # least `min_area` pixels, the verdict of the map's prepared Scene.
    registry = replace(ORACLE_REGISTRY, min_area=min_area)
    grid = grid_from_array(arr, CLASS_MAP)
    n = len(extract_objects(grid, min_area))
    verdict = verify(grid, registry)
    assert isinstance(verdict, Verdict)
    assert len(verdict.pair_scores) == n * (n - 1)
    assert verdict == verify(next(prepare_all([grid], min_area)), registry)


def _random_stats(rng, universe, unseen):
    """Statistics over `universe` whose counts are random, so that the
    table cells differ, but all zero for the ordered class pair `unseen`."""
    builder = StatsBuilder.for_classes(universe)
    n = len(universe)
    builder.images = int(rng.integers(5, 50))
    builder.class_images[:] = rng.integers(1, builder.images + 1, size=n)
    presence = np.triu(rng.integers(0, builder.images + 1, size=(n, n)))
    builder.presence[:] = presence + np.triu(presence, 1).T
    for counts in (builder.position, builder.proximity, builder.distance):
        counts[:] = rng.integers(0, 6, size=counts.shape)
    i, j = (universe.index(c) for c in unseen)
    for counts in (builder.presence, builder.position, builder.proximity, builder.distance):
        counts[i, j] = counts[j, i] = 0
    for i, j in np.argwhere(rng.random((n, n)) < 0.7).tolist():
        if (universe[i], universe[j]) != unseen:
            sizes = rng.integers(1, 200, size=(int(rng.integers(1, 5)), 2)).tolist()
            builder.size_obs[i, j] = Counter({(pa, pb): 1 + pa % 3 for pa, pb in sizes})
    return finalize(builder, alpha=float(rng.choice([0.5, 1.0, 2.0])))


def _featurize_reference(pairs, objects, hists, stats, prototypes):
    """`featurize` as fancy indexing of the 2-D and 3-D tables by the class
    rows of each pair, with the class rows found by a list search."""
    rows = np.array([stats.classes.index(c) for c in objects.class_id.tolist()])
    a, b = rows[pairs.a_index], rows[pairs.b_index]
    shape = np.add.reduce(np.abs(hists - prototypes[rows]), axis=1)
    X = np.empty((len(pairs), N_FEATURES))
    X[:, 0] = stats.presence_table[a, b]
    X[:, 1] = stats.position_table[a, b, pairs.rpos]
    X[:, 2] = stats.proximity_table[a, b, pairs.rprox]
    X[:, 3] = stats.distance_table[a, b, pairs.rdist_bin]
    np.abs((pairs.rsize - stats.size_mean[a, b]) / stats.size_std[a, b], out=X[:, 4])
    X[:, 5] = pairs.rdist
    X[:, 6] = shape[pairs.a_index]
    return X


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(20, 60))
def test_crowded_features_equal_the_fancy_indexed_formulas(seed, n_rects):
    # Classes 1 to 4 fill the model's rows; class 4, its last, is at both
    # corners, and the pair (4, 4) was never seen, so its features are the
    # priors.  Each map holds every octant, proximity label and distance bin.
    rng = np.random.default_rng(seed)
    grid = grid_from_array(_rectangle_lattice(rng, n_rects), CLASS_MAP)
    objects = extract_objects(grid, 1)
    pairs, hists = relations_for_objects(grid, objects), shape_histogram(grid, objects)
    stats = _random_stats(rng, (1, 2, 3, 4), unseen=(4, 4))
    prototypes = rng.dirichlet(np.ones(SHAPE_BINS), size=4)
    X = featurize(pairs, objects, hists, stats, prototypes)
    expected = _featurize_reference(pairs, objects, hists, stats, prototypes)
    assert X.shape == (len(pairs), N_FEATURES) and X.flags.c_contiguous
    assert X.tobytes() == expected.tobytes()
    classes = objects.class_id
    unseen = (classes[pairs.a_index] == 4) & (classes[pairs.b_index] == 4)
    assert unseen.any() and (X[unseen, 1] == 1.0 / 8).all()
    # The first object whose class is outside the statistics is named.
    known = (2, 3)
    first = next(c for c in classes.tolist() if c not in known)
    with pytest.raises(UnknownClassError, match=rf"^class id {first} unknown"):
        featurize(pairs, objects, hists, _random_stats(rng, known, (2, 2)), prototypes[:2])
