"""Featurization, linear training, aggregation, and context dispatch."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from scenecheck import (
    DegeneratePairError,
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
    VerifierRegistry,
    accumulate,
    aggregate,
    default_synthetic_config,
    derive_contradiction,
    derive_seed,
    extract_objects,
    featurize,
    finalize,
    generate_contradiction,
    grid_from_array,
    prepare,
    relations_for_objects,
    score,
    shape_histogram,
    synth_corpus,
    train_linear,
    train_registry,
    verify,
)
from scenecheck.corpus import EVAL_TAG, save_model
from scenecheck.relations import SHAPE_BINS
from scenecheck.verifier import FEATURE_NAMES, N_FEATURES

import pair_oracle
from conftest import pixels
from test_relations import CLASS_MAP, LABELLED_SCENES, paint, scenes


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
        X = featurize(pairs, objects, hists, stats, {})
        assert X.shape == (2, N_FEATURES)
        assert X[0, 1] == pytest.approx(9 / 16, abs=1e-15)

    def test_prototype_match_zeroes_shape_term(self):
        grid, objects, pairs, hists = self._scene()
        builder = StatsBuilder.for_classes([1, 2])
        builder.images = 1
        stats = finalize(builder, alpha=1.0)
        X = featurize(pairs, objects, hists, stats, {1: tuple(hists[0].tolist())})
        assert X[0, len(FEATURE_NAMES) - 1] == 0.0

    def test_components_match_independent_recomputation(self):
        grid, objects, pairs, hists = self._scene()
        rel = pair_oracle.table_rows(pairs, objects)[0]
        builder = StatsBuilder.for_classes([1, 2])
        accumulate(builder, objects, pairs)
        stats = finalize(builder, alpha=1.0)
        proto = {1: tuple(1.0 / 16 for _ in range(16))}
        fv = featurize(pairs, objects, hists, stats, proto)[0]
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
        X = featurize(relations_for_objects(grid, lone), lone, hists[:1], stats, {})
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


def test_hyperparams_reject_fewer_than_one_epoch():
    for epochs in (0, -1):
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            Hyperparams(epochs=epochs)


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


class TestAggregate:
    def test_majority_vote(self):
        contradiction, confidence = aggregate([1.0, 1.0, -1.0], "majority")
        assert contradiction is True
        assert confidence == pytest.approx(2 / 3)

    def test_majority_tie_is_not_contradiction(self):
        contradiction, confidence = aggregate([1.0, -1.0], "majority")
        assert contradiction is False
        assert confidence == 0.5

    def test_empty_abstains(self):
        assert aggregate([], "majority") == (False, 0.5)
        assert aggregate([], "mean_threshold") == (False, 0.5)

    def test_mean_threshold(self):
        contradiction, confidence = aggregate([0.5, 0.7, -0.3], "mean_threshold")
        mean = (0.5 + 0.7 - 0.3) / 3
        assert contradiction is True
        assert confidence == pytest.approx(1 / (1 + math.exp(-mean)))

    def test_random_margins_match_hand_oracle(self, rng):
        for _ in range(100):
            margins = list(rng.normal(size=int(rng.integers(1, 9))))
            pos = sum(1 for m in margins if m > 0)
            expect_c = pos > len(margins) / 2
            expect_conf = (pos if expect_c else len(margins) - pos) / len(margins)
            assert aggregate(margins, "majority") == (expect_c, expect_conf)
            mean = sum(margins) / len(margins)
            got_c, got_conf = aggregate(margins, "mean_threshold")
            assert got_c == (mean > 0)
            assert got_conf == pytest.approx(1 / (1 + math.exp(-mean)))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            aggregate([1.0], "quorum")


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
        anchor = next(o for o in objects if o.class_id in anchor_ids)
        cells = list(grid.cells)
        for r, c in pixels(anchor):
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

    def test_verdict_invariant_under_object_permutation(self, small_experiment):
        corpus, table, registry = small_experiment
        grid, record = _find_triple(corpus, table, registry)
        verdict = verify(grid, registry, record)
        objects = extract_objects(grid, registry.min_area)
        detector = registry.models[verdict.model_used]
        stats, protos, model = detector.stats, detector.prototypes, detector.model
        for perm_seed in range(3):
            rng = np.random.default_rng(perm_seed)
            shuffled = list(objects)
            rng.shuffle(shuffled)
            hists = shape_histogram(grid, shuffled)
            pairs = relations_for_objects(grid, shuffled)
            margins = score(model, featurize(pairs, shuffled, hists, stats, protos))
            contradiction, _ = aggregate(margins.tolist(), registry.aggregation_mode)
            assert contradiction == verdict.contradiction


class TestVerifyPreparedScene:
    def test_scene_and_derived_twin_give_the_grid_verdicts(self, small_experiment):
        corpus, table, registry = small_experiment
        models_used = set()
        for idx, image_id in enumerate(corpus.image_ids("val")[:60]):
            grid = corpus.grid(image_id)
            scene = prepare(grid, registry.min_area)
            variants = [(scene, grid)]
            if len(scene.objects) >= 2:
                seed = derive_seed(5, EVAL_TAG, idx)
                twin, _ = derive_contradiction(scene, seed)
                variants.append((twin, generate_contradiction(grid, seed, registry.min_area)[0]))
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
            verify(prepare(grid, registry.min_area + 1), registry, record)


def _find_triple(corpus, table, registry):
    """First intact val scene of an anchor plus two free-standing objects.

    Rider scenes are skipped: there the rider's support is its base, not
    the anchor, so anchor removal is not the detectable contradiction.
    """
    riders = {4, 7}
    for image_id in corpus.image_ids("val"):
        grid = corpus.grid(image_id)
        objects = extract_objects(grid, registry.min_area)
        classes = {o.class_id for o in objects}
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

    def test_small_contexts_fall_back_to_global(self, tmp_path):
        config = default_synthetic_config(n_images=40, seed=8)
        corpus, table = synth_corpus(config, tmp_path / "corpus")
        registry = train_registry(corpus, table, "location", seed=8, n_min=1000)
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
    (hist,) = shape_histogram(grid, extract_objects(grid, min_area=1))
    return VerifierRegistry(
        context_attribute=None,
        aggregation_mode="majority",
        min_area=1,
        global_detector=Detector(
            model=model or _oracle_model(),
            stats=stats or _oracle_stats(),
            # Classes 3 and 4 have no prototype and compare against uniform.
            prototypes={1: tuple(1.0 / 16 for _ in range(16)), 2: tuple(hist.tolist())},
        ),
    )


ORACLE_REGISTRY = _oracle_registry()


class TestBatchedPairLayerMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(scenes)
    def test_features_and_margins_equal_per_pair_oracle(self, rects):
        registry = ORACLE_REGISTRY
        detector = registry.global_detector
        stats, protos, model = detector.stats, detector.prototypes, detector.model
        grid = grid_from_array(paint(rects), CLASS_MAP)
        objects = extract_objects(grid, min_area=1)
        hists = shape_histogram(grid, objects)
        try:
            rels = pair_oracle.relations(grid, objects)
        except DegeneratePairError:
            with pytest.raises(DegeneratePairError):
                verify(grid, registry)
            return
        expected = np.array(
            [pair_oracle.featurize(r, hists[r.a_id], stats, protos) for r in rels]
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
        X = featurize(relations_for_objects(grid, objects), objects, hists, stats, {})
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
            protos = {c: tuple(rng.dirichlet(np.ones(SHAPE_BINS)).tolist()) for c in (1, 2)}
            X = featurize(relations_for_objects(grid, objects), objects, hists, stats, protos)
            expected = [
                pair_oracle.featurize(r, hists[r.a_id], stats, protos)[6]
                for r in pair_oracle.relations(grid, objects)
            ]
            assert X[:, 6].tolist() == expected

    def test_coincident_centroids_raise(self):
        grid = grid_from_array(paint([(2, 2, 2, 9, 9), (1, 5, 5, 3, 3)]), CLASS_MAP)
        with pytest.raises(DegeneratePairError):
            verify(grid, ORACLE_REGISTRY)

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
