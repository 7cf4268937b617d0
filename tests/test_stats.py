"""Co-occurrence accumulation, summing builders, smoothing, and the dense tables."""

import json
import math
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from scenecheck import (
    ConsistencyError,
    EmptyCorpusError,
    FormatError,
    SceneCheckError,
    SchemaError,
    StatsBuilder,
    UnknownClassError,
    accumulate,
    default_synthetic_config,
    extract_objects,
    finalize,
    grid_from_array,
    load_model,
    relations_for_objects,
    save_model,
    synth_corpus,
)
from scenecheck.corpus import _stats_to_doc
from scenecheck.relations import K_DIST, OCTANTS, PROXIMITY_LABELS

import pair_oracle
from pair_oracle import keyed


def _scene(arr, class_map, min_area=1):
    grid = grid_from_array(arr, class_map)
    objects = extract_objects(grid, min_area=min_area)
    return objects, relations_for_objects(grid, objects)


def lookup(model, table, a, b):
    """The entry of the named dense table for the ordered class pair (a, b)."""
    i, j = model.class_rows([a, b])
    return getattr(model, table)[i, j]


def position(model, a, b, label):
    return lookup(model, "position_table", a, b)[OCTANTS.index(label)]


def proximity(model, a, b, label):
    return lookup(model, "proximity_table", a, b)[PROXIMITY_LABELS.index(label)]


CLASS_MAP = {1: "cat", 2: "sofa", 3: "tv"}


def _hand_corpus():
    """Five small scenes whose statistics were tallied by hand."""
    images = []
    a = np.zeros((6, 8), dtype=int)  # cat and sofa, far apart
    a[0:2, 0:2] = 1
    a[4:6, 4:8] = 2
    images.append(a)
    b = np.zeros((6, 8), dtype=int)  # cat sitting on sofa
    b[1:3, 2:4] = 1
    b[3:6, 1:5] = 2
    images.append(b)
    c = np.zeros((6, 8), dtype=int)  # sofa and tv side by side
    c[0:2, 0:4] = 2
    c[0:2, 6:8] = 3
    images.append(c)
    d = np.zeros((6, 8), dtype=int)  # cat alone
    d[2:4, 2:4] = 1
    images.append(d)
    e = np.zeros((6, 8), dtype=int)  # two cats and a tv
    e[0:2, 0:2] = 1
    e[4:6, 0:2] = 1
    e[0:2, 5:7] = 3
    images.append(e)
    return images


def _hand_builder():
    builder = StatsBuilder.for_classes([1, 2, 3])
    for arr in _hand_corpus():
        objects, relations = _scene(arr, CLASS_MAP)
        accumulate(builder, objects, relations)
    return builder


class TestAccumulate:
    def test_pair_image_increments_once(self):
        builder = StatsBuilder.for_classes([1, 2, 3])
        objects, relations = _scene(_hand_corpus()[0], CLASS_MAP)
        accumulate(builder, objects, relations)
        assert builder.images == 1
        assert keyed(builder, "presence") == {(1, 2): 1}
        assert keyed(builder, "class_images") == {1: 1, 2: 1}

    def test_lone_object_makes_no_pairs(self):
        builder = StatsBuilder.for_classes([1, 2, 3])
        objects, relations = _scene(_hand_corpus()[3], CLASS_MAP)
        accumulate(builder, objects, relations)
        assert keyed(builder, "presence") == {}
        assert keyed(builder, "class_images") == {1: 1}
        assert keyed(builder, "position") == {}

    def test_hand_tallied_counts(self):
        builder = _hand_builder()
        assert builder.images == 5
        assert keyed(builder, "class_images") == {1: 4, 2: 3, 3: 2}
        assert keyed(builder, "presence") == {(1, 1): 1, (1, 2): 2, (1, 3): 1, (2, 3): 1}
        assert (builder.presence == builder.presence.T).all()
        oct_idx = {o: i for i, o in enumerate(OCTANTS)}

        def octs(**kw):
            row = [0] * 8
            for label, n in kw.items():
                row[oct_idx[label]] = n
            return row

        assert keyed(builder, "position") == {
            (1, 2): octs(S=1, SE=1),
            (2, 1): octs(N=1, NW=1),
            (2, 3): octs(E=1),
            (3, 2): octs(W=1),
            (1, 3): octs(E=1, NE=1),
            (3, 1): octs(W=1, SW=1),
            (1, 1): octs(N=1, S=1),
        }
        prox_idx = {p: i for i, p in enumerate(PROXIMITY_LABELS)}

        def prox(**kw):
            row = [0] * 6
            for label, n in kw.items():
                row[prox_idx[label]] = n
            return row

        assert keyed(builder, "proximity") == {
            (1, 2): prox(ON=1, NONE=1),
            (2, 1): prox(UNDER=1, NONE=1),
            (2, 3): prox(NONE=1),
            (3, 2): prox(NONE=1),
            (1, 3): prox(NONE=2),
            (3, 1): prox(NONE=2),
            (1, 1): prox(NONE=2),
        }
        assert keyed(builder, "distance") == {
            (1, 2): [0, 1, 0, 1, 0],
            (2, 1): [0, 1, 0, 1, 0],
            (2, 3): [0, 0, 1, 0, 0],
            (3, 2): [0, 0, 1, 0, 0],
            (1, 3): [0, 0, 1, 1, 0],
            (3, 1): [0, 0, 1, 1, 0],
            (1, 1): [0, 0, 2, 0, 0],
        }
        size_obs = keyed(builder, "size_obs")
        assert size_obs[(1, 2)] == {(4, 8): 1, (4, 12): 1}
        assert size_obs[(1, 3)] == {(4, 4): 2}
        assert size_obs[(1, 1)] == {(4, 4): 2}

    def test_relation_with_foreign_class_rejected(self):
        builder = StatsBuilder.for_classes([1, 2, 3])
        objects, relations = _scene(_hand_corpus()[0], CLASS_MAP)
        lone_objects, _ = _scene(_hand_corpus()[3], CLASS_MAP)
        with pytest.raises(ConsistencyError):
            accumulate(builder, lone_objects, relations)


class TestMerge:
    """`finalize` of several builders: the sum of their counts."""

    def test_adding_an_empty_builder_changes_nothing(self):
        builder = _hand_builder()
        empty = StatsBuilder.for_classes([1, 2, 3])
        model = finalize(builder)
        assert finalize(builder, empty) == model
        assert finalize(empty, builder) == model
        assert finalize(empty, builder, empty) == model

    def test_builder_order_does_not_matter(self):
        imgs = _hand_corpus()
        x = StatsBuilder.for_classes([1, 2, 3])
        y = StatsBuilder.for_classes([1, 2, 3])
        for arr in imgs[:2]:
            accumulate(x, *_scene(arr, CLASS_MAP))
        for arr in imgs[2:]:
            accumulate(y, *_scene(arr, CLASS_MAP))
        model = finalize(x, y)
        assert model == finalize(y, x) == finalize(_hand_builder())
        # The model shares no array or multiset with either builder.
        accumulate(x, *_scene(imgs[0], CLASS_MAP))
        accumulate(y, *_scene(imgs[0], CLASS_MAP))
        assert model == finalize(_hand_builder())

    def test_schema_mismatch_rejected(self):
        with pytest.raises(SchemaError, match="builders disagree on class universe"):
            finalize(StatsBuilder.for_classes([1, 2]), StatsBuilder.for_classes([1, 3]))

    def test_no_builder_rejected(self):
        with pytest.raises(EmptyCorpusError, match="cannot finalize statistics over zero images"):
            finalize()

    def test_shard_merge_equals_sequential(self, tmp_path):
        config = default_synthetic_config(n_images=25, seed=77)
        corpus, _ = synth_corpus(config, tmp_path / "corpus")
        ids = corpus.image_ids()
        assert len(ids) == 50
        scenes = []
        for image_id in ids:
            grid = corpus.grid(image_id)
            objects = extract_objects(grid)
            scenes.append((objects, relations_for_objects(grid, objects)))
        classes = list(corpus.class_map)
        sequential = StatsBuilder.for_classes(classes)
        for objects, relations in scenes:
            accumulate(sequential, objects, relations)
        model = finalize(sequential)
        sequential_doc = json.dumps(_stats_to_doc(model), sort_keys=True)
        for sizes in ([50], [25, 25], [10] * 5, [1] * 50, [7, 13, 30]):
            shards = []
            start = 0
            for n in sizes:
                shard = StatsBuilder.for_classes(classes)
                for objects, relations in scenes[start : start + n]:
                    accumulate(shard, objects, relations)
                shards.append(shard)
                start += n
            merged = finalize(*shards)
            assert merged == model
            # Bit-for-bit equality of the derived documents too.
            assert json.dumps(_stats_to_doc(merged), sort_keys=True) == sequential_doc

    def test_image_order_does_not_matter(self, rng):
        imgs = _hand_corpus()
        order = list(range(5))
        rng.shuffle(order)
        a = StatsBuilder.for_classes([1, 2, 3])
        b = StatsBuilder.for_classes([1, 2, 3])
        for arr in imgs:
            accumulate(a, *_scene(arr, CLASS_MAP))
        for i in order:
            accumulate(b, *_scene(imgs[i], CLASS_MAP))
        assert a == b


class TestFinalize:
    def test_unseen_pair_presence_prior(self):
        builder = StatsBuilder.for_classes([1, 2])
        builder.images = 10
        model = finalize(builder, alpha=1.0)
        assert lookup(model, "presence_table", 1, 2) == pytest.approx(1 / 12, abs=1e-15)

    def test_octant_smoothing_example(self):
        builder = StatsBuilder.for_classes([1, 2])
        builder.images = 8
        builder.position[0, 1] = [8, 0, 0, 0, 0, 0, 0, 0]  # classes 1 and 2 are rows 0 and 1
        model = finalize(builder, alpha=1.0)
        assert position(model, 1, 2, "E") == pytest.approx(9 / 16, abs=1e-15)
        for label in OCTANTS[1:]:
            assert position(model, 1, 2, label) == pytest.approx(1 / 16, abs=1e-15)

    def test_model_counts_are_read_only_copies(self):
        builder = _hand_builder()
        model = finalize(builder, alpha=1.0)
        accumulate(builder, *_scene(_hand_corpus()[0], CLASS_MAP))
        assert builder.images == 6 and model.images == 5
        assert model == finalize(_hand_builder(), alpha=1.0)
        arrays = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 12  # five count arrays, the class ids, six tables
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        with pytest.raises(FrozenInstanceError):
            model.alpha = 2.0

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
    def test_alpha_not_finite_and_above_zero_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and above 0"):
            finalize(_hand_builder(), alpha=alpha)

    def test_empty_builder_rejected(self):
        with pytest.raises(EmptyCorpusError):
            finalize(StatsBuilder.for_classes([1, 2]))

    def test_hand_corpus_probabilities(self):
        model = finalize(_hand_builder(), alpha=1.0)
        assert lookup(model, "presence_table", 1, 2) == pytest.approx(3 / 7, abs=1e-12)
        assert lookup(model, "presence_table", 2, 1) == pytest.approx(3 / 7, abs=1e-12)
        assert lookup(model, "presence_table", 1, 1) == pytest.approx(2 / 7, abs=1e-12)
        assert lookup(model, "presence_table", 2, 2) == pytest.approx(1 / 7, abs=1e-12)
        assert position(model, 1, 2, "S") == pytest.approx(2 / 10, abs=1e-12)
        assert position(model, 1, 2, "E") == pytest.approx(1 / 10, abs=1e-12)
        assert proximity(model, 1, 2, "ON") == pytest.approx(2 / 8, abs=1e-12)
        assert proximity(model, 1, 2, "FRONT") == pytest.approx(1 / 8, abs=1e-12)
        assert lookup(model, "distance_table", 1, 2)[1] == pytest.approx(2 / 7, abs=1e-12)
        n = sum(keyed(model, "size_obs")[(1, 2)].values())
        mean, std = lookup(model, "size_mean", 1, 2), lookup(model, "size_std", 1, 2)
        xs = [math.log(4 / 8), math.log(4 / 12)]
        assert n == 2
        assert mean == pytest.approx(sum(xs) / 2, abs=1e-12)
        assert std == pytest.approx(abs(xs[0] - xs[1]) / 2, abs=1e-12)

    def test_sigma_floor_applies_to_degenerate_pairs(self):
        model = finalize(_hand_builder(), alpha=1.0)
        n = sum(keyed(model, "size_obs")[(1, 3)].values())
        mean, std = lookup(model, "size_mean", 1, 3), lookup(model, "size_std", 1, 3)
        assert (n, mean) == (2, 0.0)
        assert std == 0.1


class TestQuery:
    def test_zscore_centering(self):
        model = finalize(_hand_builder(), alpha=1.0)
        mean, _ = pair_oracle.size_moments(keyed(model, "size_obs")[(1, 2)].items())
        mu, sigma = lookup(model, "size_mean", 1, 2), lookup(model, "size_std", 1, 2)
        assert (mean - mu) / sigma == 0.0

    def test_dense_tables_equal_query(self):
        model = finalize(_hand_builder(), alpha=1.0)
        rows = model.class_rows(model.classes)
        assert rows.tolist() == list(range(len(model.classes)))
        for a, i in zip(model.classes, rows):
            for b, j in zip(model.classes, rows):
                query = pair_oracle.query
                assert model.presence_table[i, j] == query(model, "presence", a, b, None)
                for k, label in enumerate(OCTANTS):
                    assert model.position_table[i, j, k] == query(model, "position", a, b, label)
                for k, label in enumerate(PROXIMITY_LABELS):
                    assert model.proximity_table[i, j, k] == query(
                        model, "proximity", a, b, label
                    )
                for k in range(K_DIST):
                    assert model.distance_table[i, j, k] == query(model, "distance", a, b, k)
                for x in (-1.3, 0.0, 0.3):
                    z = (x - model.size_mean[i, j]) / model.size_std[i, j]
                    assert z == pair_oracle.size_zscore(model, a, b, x)

    def test_class_rows_reject_unknown_ids(self):
        model = finalize(_hand_builder(), alpha=1.0)
        assert model.class_rows([3, 1, 1]).tolist() == [2, 0, 0]
        for ids, unknown in (([1, 9], 9), ([0], 0), ([4, 2, 7], 4)):
            with pytest.raises(UnknownClassError, match=f"class id {unknown} "):
                model.class_rows(ids)

    @pytest.mark.parametrize(
        "key, entry",
        [
            ("class_image_counts", None),
            ("presence_counts", [1, 9, 1]),
            ("position_counts", [9, 2, [1] * 8]),
            ("proximity_counts", [1, 9, [1] * 6]),
            ("distance_counts", [9, 9, [1] * K_DIST]),
            ("size_obs", [1, 9, [[4, 4, 1]]]),
        ],
        ids=["class_image_counts", "presence", "position", "proximity", "distance", "size_obs"],
    )
    def test_count_entry_outside_classes_rejected_on_load(self, tmp_path, key, entry):
        path = tmp_path / "stats.json"
        save_model(path, finalize(_hand_builder()))
        doc = json.loads(path.read_text())
        if entry is None:
            doc[key]["9"] = 1
        else:
            doc[key].append(entry)
        path.write_text(json.dumps(doc))
        with pytest.raises(SceneCheckError, match="class 9,") as exc:
            load_model(path)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("images", 5.0),
            ("class_image_counts", -5),
            ("presence_counts", 2.7),
            ("presence_counts", 2**63),
            ("position_counts", -5),
            ("proximity_counts", 2.7),
            ("distance_counts", -1),
            ("size_obs", 2.7),
        ],
    )
    def test_negative_or_fractional_count_rejected_on_load(self, tmp_path, key, bad):
        path = tmp_path / "stats.json"
        save_model(path, finalize(_hand_builder()))
        doc = json.loads(path.read_text())
        if key == "images":
            doc[key], where = bad, key
        elif key == "class_image_counts":
            c = next(iter(doc[key]))
            doc[key][c], where = bad, f"{key} of {c}"
        else:
            a, b, counts = entry = doc[key][0]
            where = f"{key} of ({a}, {b})"
            if key == "presence_counts":
                entry[2] = bad
            elif key == "size_obs":
                counts[0][2] = bad  # the multiplicity of one (pixels_a, pixels_b)
            else:
                counts[-1] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=re.escape(f"{where} holds {bad!r}")) as exc:
            load_model(path)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("how", ["emptied", "counts", "pixels-a", "pixels-b"])
    def test_size_obs_without_an_observation_rejected_on_load(self, tmp_path, how):
        # Values accumulate never writes, which left no observation to
        # take the size moments of, or the log of a pixel count of 0.
        path = tmp_path / "stats.json"
        save_model(path, finalize(_hand_builder()))
        doc = json.loads(path.read_text())
        a, b, observations = doc["size_obs"][0]
        if how == "emptied":
            observations.clear()
        for observation in observations:
            observation[{"pixels-a": 0, "pixels-b": 1, "counts": 2}[how]] = 0
        message = "is empty" if how == "emptied" else "holds 0, expected an integer count in [1,"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=re.escape(f"size_obs of ({a}, {b}) {message}")) as exc:
            load_model(path)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize(
        "key", ["class_image_counts", "presence_counts", "position_counts", "distance_counts"]
    )
    def test_count_entry_of_zeros_rejected_on_load(self, tmp_path, key):
        # Saving writes no such entry, so one that loaded would not save back.
        path = tmp_path / "stats.json"
        save_model(path, finalize(_hand_builder()))
        doc = json.loads(path.read_text())
        if key == "class_image_counts":
            c = next(iter(doc[key]))
            doc[key][c], where = 0, f"{key} of {c}"
        else:
            entry = doc[key][0]
            entry[2] = 0 if key == "presence_counts" else [0] * len(entry[2])
            where = f"{key} of ({entry[0]}, {entry[1]}) holds"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=re.escape(where)) as exc:
            load_model(path)
        assert "\n" not in str(exc.value)

    def test_zscore_unseen_pair_standard_normal_prior(self):
        model = finalize(_hand_builder(), alpha=1.0)
        assert (lookup(model, "size_mean", 2, 2), lookup(model, "size_std", 2, 2)) == (0.0, 1.0)

    def test_unknown_class_rejected(self):
        model = finalize(_hand_builder(), alpha=1.0)
        with pytest.raises(UnknownClassError):
            lookup(model, "presence_table", 1, 9)
        with pytest.raises(UnknownClassError):
            lookup(model, "size_mean", 9, 1)

    def test_unseen_pair_uniform_prior(self):
        model = finalize(_hand_builder(), alpha=1.0)
        assert position(model, 2, 2, "N") == pytest.approx(1 / 8, abs=1e-15)
        assert proximity(model, 2, 2, "ON") == pytest.approx(1 / 6, abs=1e-15)
        assert lookup(model, "distance_table", 2, 2)[0] == pytest.approx(1 / 5, abs=1e-15)

    def test_random_queries_match_recomputation(self, rng):
        builder = _hand_builder()
        model = finalize(builder, alpha=1.0)
        tallies = keyed(builder, "position")
        for _ in range(200):
            a, b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            octant_label = OCTANTS[int(rng.integers(8))]
            counts = tallies.get((a, b), [0] * 8)
            expected = (counts[OCTANTS.index(octant_label)] + 1.0) / (sum(counts) + 8.0)
            assert position(model, a, b, octant_label) == pytest.approx(
                expected, abs=1e-15
            )


class TestModelInvariants:
    def test_distributions_sum_to_one(self, tmp_path):
        config = default_synthetic_config(n_images=15, seed=3)
        corpus, _ = synth_corpus(config, tmp_path / "corpus")
        builder = StatsBuilder.for_classes(corpus.class_map)
        for image_id in corpus.image_ids():
            grid = corpus.grid(image_id)
            objects = extract_objects(grid)
            accumulate(builder, objects, relations_for_objects(grid, objects))
        model = finalize(builder, alpha=1.0)
        assert_rows_are_distributions(model)

    def test_positional_duality_exact(self):
        assert_positional_duality(finalize(_hand_builder(), alpha=1.0))

    def test_large_alpha_approaches_uniform(self):
        model = finalize(_hand_builder(), alpha=1e6)
        for table, arity in (
            (model.position_table, 8),
            (model.proximity_table, 6),
            (model.distance_table, 5),
        ):
            assert table.shape[-1] == arity
            assert np.abs(table - 1.0 / arity).max() <= 1e-3


def assert_rows_are_distributions(model):
    """Every pair's row of every dense distribution table, seen or unseen,
    is positive and sums to 1."""
    n = len(model.classes)
    for table in (model.position_table, model.proximity_table, model.distance_table):
        assert table.shape[:2] == (n, n)
        assert (table > 0).all()
        assert np.abs(table.sum(axis=2) - 1.0).max() <= 1e-9


def assert_positional_duality(model):
    """P(octant | a, b) equals P(opposite octant | b, a) exactly, for every pair."""
    opposite = [OCTANTS.index(pair_oracle.opposite_octant(label)) for label in OCTANTS]
    table = model.position_table
    assert (table == table.transpose(1, 0, 2)[:, :, opposite]).all()
