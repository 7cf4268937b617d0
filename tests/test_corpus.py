"""Synthetic generation, contradiction examples, and persistence."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scenecheck import (
    GLOBAL_LABEL,
    Corpus,
    Detector,
    FormatError,
    Hyperparams,
    LinearModel,
    NotEnoughObjectsError,
    PlacementError,
    StatsBuilder,
    SyntheticConfig,
    VerifierRegistry,
    VersionError,
    accumulate,
    default_synthetic_config,
    extract_objects,
    finalize,
    generate_contradiction,
    grid_from_array,
    load_model,
    relations_for_objects,
    save_model,
    synth_corpus,
    train_registry,
    verify,
)
from scenecheck.cli import main
from scenecheck.corpus import _write_json
from scenecheck.relations import PROXIMITY_LABELS, SHAPE_BINS
from scenecheck.seeds import derive_seed
from scenecheck.verifier import FEATURE_NAMES


class TestGenerateContradiction:
    def _two_object_grid(self):
        arr = np.zeros((20, 20), dtype=int)
        arr[2:8, 2:8] = 1
        arr[12:19, 10:18] = 2
        return grid_from_array(arr, {1: "a", 2: "b"}, image_id="two")

    def test_removal_leaves_one_object(self):
        grid = self._two_object_grid()
        modified, removed_class = generate_contradiction(grid, seed=3, min_area=1)
        assert removed_class in (1, 2)
        assert len(extract_objects(modified, min_area=1)) == 1

    def test_same_seed_same_choice(self):
        grid = self._two_object_grid()
        a = generate_contradiction(grid, seed=11, min_area=1)
        b = generate_contradiction(grid, seed=11, min_area=1)
        assert a == b

    def test_non_removed_pixels_conserved(self):
        grid = self._two_object_grid()
        modified, removed_class = generate_contradiction(grid, seed=7, min_area=1)
        removed_px = sum(1 for v in grid.cells if v == removed_class)
        assert sum(1 for v in modified.cells if v != 0) == (
            sum(1 for v in grid.cells if v != 0) - removed_px
        )
        for before, after in zip(grid.cells, modified.cells):
            assert after == before or (before == removed_class and after == 0)

    def test_single_object_rejected(self):
        arr = np.zeros((10, 10), dtype=int)
        arr[2:6, 2:6] = 1
        grid = grid_from_array(arr, {1: "a"})
        with pytest.raises(NotEnoughObjectsError):
            generate_contradiction(grid, seed=0, min_area=1)


class TestSynthCorpus:
    def test_context_pools_are_exclusive(self, tmp_path):
        config = default_synthetic_config(n_images=40, seed=13)
        corpus, table = synth_corpus(config, tmp_path / "corpus")
        pools = {
            ctx.value: set(ctx.satellites) | set(ctx.lone_extra) | {ctx.anchor}
            | (set(ctx.stack) if ctx.stack else set())
            for ctx in config.contexts
        }
        for image_id in corpus.image_ids():
            value = table.value(image_id, "location")
            classes = set(extract_objects(corpus.grid(image_id)).class_id.tolist())
            assert classes <= pools[value]

    def test_same_seed_same_bytes(self, tmp_path):
        config = default_synthetic_config(n_images=25, seed=99)
        synth_corpus(config, tmp_path / "a")
        synth_corpus(config, tmp_path / "b")
        files_a = sorted((tmp_path / "a").rglob("*.*"))
        files_b = sorted((tmp_path / "b").rglob("*.*"))
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_rider_always_on_its_mount(self, tmp_path):
        config = default_synthetic_config(n_images=200, seed=31)
        corpus, _ = synth_corpus(config, tmp_path / "corpus")
        on = total = 0
        for image_id in corpus.image_ids():
            grid = corpus.grid(image_id)
            objects = extract_objects(grid)
            index = {c: k for k, c in enumerate(objects.class_id.tolist())}
            if 7 in index and 8 in index:
                total += 1
                pairs = relations_for_objects(grid, objects[[index[7], index[8]]])
                if PROXIMITY_LABELS[pairs.rprox[0]] == "ON":
                    on += 1
        assert total >= 10
        assert on / total >= 0.9

    def test_attribute_records_carry_context(self, tmp_path):
        config = default_synthetic_config(n_images=20, seed=2)
        corpus, table = synth_corpus(config, tmp_path / "corpus")
        for image_id in corpus.image_ids():
            expected = image_id.split("_")[0]
            assert table.value(image_id, "location") == expected

    def test_splits_partition_ids(self, tmp_path):
        config = default_synthetic_config(n_images=30, seed=4)
        corpus, _ = synth_corpus(config, tmp_path / "corpus")
        train, val = corpus.image_ids("train"), corpus.image_ids("val")
        assert not set(train) & set(val)
        assert len(train) + len(val) == 60

    @pytest.mark.parametrize(
        "name, key",
        [("classes.json", "classes"), ("splits.json", "val"), ("attributes.json", "schema")],
    )
    def test_corpus_document_missing_a_key_is_format_error(self, tmp_path, name, key):
        synth_corpus(default_synthetic_config(n_images=4, seed=6), tmp_path / "corpus")
        path = tmp_path / "corpus" / name
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"{name}: missing key '{key}'"):
            Corpus.load(tmp_path / "corpus").attributes()

    @pytest.mark.parametrize(
        "bad_id", ["", "../../escaped", "a/b", "a\\b", ".hidden", "..", 7],
        ids=["empty", "parent", "slash", "backslash", "dot", "dotdot", "not-a-string"],
    )
    def test_image_id_that_is_not_a_file_stem_is_format_error(self, tmp_path, bad_id):
        synth_corpus(default_synthetic_config(n_images=4, seed=6), tmp_path / "corpus")
        path = tmp_path / "corpus" / "splits.json"
        doc = json.loads(path.read_text())
        doc["val"].append(bad_id)
        path.write_text(json.dumps(doc))
        if isinstance(bad_id, str):
            message = f"splits.json: image id {bad_id!r} is not a"
        else:
            message = f"splits.json: malformed document: val holds {bad_id!r}, expected strings"
        with pytest.raises(FormatError, match=re.escape(message)) as exc:
            Corpus.load(tmp_path / "corpus")
        assert "\n" not in str(exc.value)

    def test_corpus_reload_matches(self, tmp_path):
        config = default_synthetic_config(n_images=10, seed=6)
        corpus, _ = synth_corpus(config, tmp_path / "corpus")
        reloaded = Corpus.load(tmp_path / "corpus")
        assert reloaded.class_map == corpus.class_map
        assert reloaded.splits == corpus.splits
        image_id = corpus.image_ids()[0]
        assert reloaded.grid(image_id) == corpus.grid(image_id)

    def test_impossible_placement_raises(self, tmp_path):
        config = default_synthetic_config(n_images=4, seed=1)
        giant = tuple(
            dataclasses.replace(c, width=(60, 63)) if c.class_id == 2 else c
            for c in config.classes
        )
        contexts = (
            dataclasses.replace(
                config.contexts[0],
                kind_weights={"lone": 0.0, "pair": 0.0, "stack_pair": 0.0, "triple": 1.0},
                stack_bias=0.0,
            ),
            config.contexts[1],
        )
        bad = dataclasses.replace(config, classes=giant, contexts=contexts)
        with pytest.raises(PlacementError):
            synth_corpus(bad, tmp_path / "corpus")
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize(
        "kind, height, message",
        [
            ("pair", 5, r"anchor floor of height [6-9] needs [6-9] rows, grid_height is 5"),
            (
                "stack_pair", 14,
                r"stack base sofa of height \d+ needs \d+ rows, grid_height is 14",
            ),
            ("triple", 15, r"sofa of height \d+ does not fit above row [6-9]"),
        ],
        ids=["anchor", "stack-pair-base", "stack-base-on-anchor"],
    )
    def test_object_taller_than_the_grid_allows_is_refused_before_it_is_painted(
        self, tmp_path, paint_from_row_0, kind, height, message
    ):
        config = default_synthetic_config(n_images=5, seed=1)
        weights = dict.fromkeys(("lone", "pair", "stack_pair", "triple"), 0.0)
        weights[kind] = 1.0
        inside = dataclasses.replace(config.contexts[0], kind_weights=weights, stack_bias=1.0)
        config = dataclasses.replace(
            config, grid_height=height, contexts=(inside, config.contexts[1])
        )
        with pytest.raises(PlacementError, match=f"^{message}$"):
            synth_corpus(config, tmp_path / "corpus")
        assert not (tmp_path / "corpus").exists()

    def test_triples_of_the_stack_alone_need_no_second_free_satellite(self, tmp_path):
        # With stack_bias 1 every triple is the stack, so one satellite
        # besides the rider is enough; below 1 a triple may need two.
        config = default_synthetic_config(n_images=20, seed=1)
        inside = dataclasses.replace(config.contexts[0], satellites=(3, 4), stack_bias=1.0)
        config = dataclasses.replace(config, contexts=(inside, config.contexts[1]))
        corpus, _ = synth_corpus(config, tmp_path / "corpus")
        assert len(corpus.image_ids()) == 40
        with pytest.raises(ValueError, match="draw 'triple' scenes"):
            dataclasses.replace(inside, stack_bias=0.99)

    def test_config_json_roundtrip(self):
        config = default_synthetic_config(n_images=12, seed=44)
        doc = json.loads(json.dumps(config.to_dict()))
        assert SyntheticConfig.from_dict(doc) == config

    def test_config_missing_a_key_is_format_error(self):
        doc = default_synthetic_config(n_images=12, seed=44).to_dict()
        del doc["classes"][0]["shape"]
        with pytest.raises(FormatError, match="synthetic config: missing key 'shape'"):
            SyntheticConfig.from_dict(doc)
        doc = default_synthetic_config(n_images=12, seed=44).to_dict()
        doc["n_images"] = "many"
        with pytest.raises(FormatError, match="synthetic config"):
            SyntheticConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "part, key, value, message",
        [
            ("class", "height", "9", "height holds '9', expected an array"),
            ("config", "n_images", 6.9, "n_images holds 6.9, expected integers"),
            ("config", "n_images", -3, "n_images is -3, expected at least 1"),
            ("config", "n_images", 0, "n_images is 0, expected at least 1"),
            ("config", "train_fraction", 1.7, "train_fraction is 1.7, expected a value in [0, 1]"),
            (
                "config", "placeholder_rate", -1.0,
                "placeholder_rate is -1.0, expected a value in [0, 1]",
            ),
            (
                "class", "shape", "elipse",
                "shape holds 'elipse', expected one of ('rect', 'ellipse')",
            ),
            ("context", "stack_bais", 0.5, "contexts holds unknown keys ['stack_bais']"),
            (
                "context", "kind_weights", {"lonely": 1.0},
                "kind_weights holds 'lonely',"
                " expected one of ('lone', 'pair', 'stack_pair', 'triple')",
            ),
            (
                "context", "kind_weights", {"lone": 0.0, "pair": 0.0},
                "kind_weights of 'inside' are {'lone': 0.0, 'pair': 0.0}, expected weights of"
                " at least 0 with a finite sum above 0",
            ),
            (
                "context", "kind_weights", {"lone": 1.0, "pair": -0.5},
                "kind_weights of 'inside' are {'lone': 1.0, 'pair': -0.5}, expected weights of"
                " at least 0 with a finite sum above 0",
            ),
            ("class", "class_id", -3, "class_id -3 of 'sofa' is below 1 (0 is background)"),
            ("class", "class_id", 0, "class_id 0 of 'sofa' is below 1 (0 is background)"),
            ("class", "class_id", 1, "class_id 1 is given to both 'floor' and 'sofa'"),
            (
                "context", "anchor", 99,
                "anchor of context 'inside' names class 99, which no class has",
            ),
            (
                "context", "satellites", [2, 3, 99],
                "satellites of context 'inside' names class 99, which no class has",
            ),
            (
                "context", "stack", [2, -3],
                "stack of context 'inside' names class -3, which no class has",
            ),
            (
                "context", "lone_extra", [13, 0],
                "lone_extra of context 'inside' names class 0, which no class has",
            ),
            ("config", "grid_width", -5, "grid_width is -5, expected at least 1"),
            ("config", "grid_height", 0, "grid_height is 0, expected at least 1"),
            ("config", "contexts", [], "contexts is empty, expected at least one context"),
            (
                "class", "height", [13, 9],
                "height of 'sofa' is [13, 9], expected [low, high] with 1 <= low <= high",
            ),
            (
                "class", "width", [0, 22],
                "width of 'sofa' is [0, 22], expected [low, high] with 1 <= low <= high",
            ),
            (
                "config", "noise_attributes", {"lighting": []},
                "noise attribute 'lighting' has no values",
            ),
            (
                "config", "noise_attributes", {"location": ["a", "b"]},
                "context attribute 'location' is a noise attribute too",
            ),
            (
                "context", "satellites", [],
                "kind_weights of 'inside' draw 'pair' scenes, which need a satellite other than"
                " the stack's rider",
            ),
            (
                "context", "satellites", [3, 4],
                "kind_weights of 'inside' draw 'triple' scenes, which need two satellites other"
                " than the stack's rider, or a stack and stack_bias 1",
            ),
            (
                "config", "contexts",
                [{"value": "inside", "anchor": 1, "satellites": [3], "stack": None,
                  "kind_weights": {"stack_pair": 1.0}}],
                "kind_weights of 'inside' draw 'stack_pair' scenes, which need a stack or two"
                " satellites",
            ),
            (
                "config", "contexts",
                [{"value": "inside", "anchor": 1, "satellites": [], "stack": None,
                  "kind_weights": {"lone": 1.0}}],
                "kind_weights of 'inside' draw 'lone' scenes, which need a satellite, a stack or"
                " a lone_extra class",
            ),
            (
                "context", "stack_bias", 7.0,
                "stack_bias of 'inside' is 7.0, expected a value in [0, 1]",
            ),
            (
                "context", "stack_bias", -1,
                "stack_bias of 'inside' is -1.0, expected a value in [0, 1]",
            ),
            (
                "context", "value", "outside",
                "two contexts have the value 'outside', which names their images",
            ),
            ("config", "seed", 4294967297, "seed is 4294967297, expected an integer in [0, 2**32)"),
            ("config", "seed", -1, "seed is -1, expected an integer in [0, 2**32)"),
        ],
        ids=[
            "height-a-string", "n_images-fractional", "n_images-negative", "n_images-zero",
            "train-fraction-above-1", "placeholder-rate-negative", "shape-misspelt", "unknown-key",
            "kind-weights-unknown-key", "kind-weights-all-zero", "kind-weights-negative",
            "class-id-negative", "class-id-background", "class-id-duplicate",
            "anchor-unknown", "satellite-unknown", "stack-unknown", "lone-extra-unknown",
            "grid-width-negative", "grid-height-zero", "no-context", "height-swapped",
            "width-from-zero",
            "noise-attribute-without-values", "noise-attribute-is-context",
            "pair-without-satellite",
            "triple-with-one-free-satellite", "stack-pair-without-stack-or-two-satellites",
            "lone-without-classes", "stack-bias-above-1", "stack-bias-negative",
            "context-value-duplicate", "seed-above-32-bits", "seed-negative",
        ],
    )
    def test_config_leaf_of_the_wrong_type_or_value_is_format_error(
        self, tmp_path, capsys, part, key, value, message
    ):
        doc = default_synthetic_config(n_images=4).to_dict()
        parts = {"class": doc["classes"][1], "context": doc["contexts"][0], "config": doc}
        parts[part][key] = value
        with pytest.raises(FormatError, match=re.escape(message)) as exc:
            SyntheticConfig.from_dict(doc)
        assert "\n" not in str(exc.value)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["synth", str(path), str(tmp_path / "corpus"), "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: FormatError: {path}: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "corpus").exists()

    def test_shipped_config_is_the_default_config(self, tmp_path):
        shipped = Path(__file__).parents[1] / "scripts" / "configs" / "synth_default.json"
        written = tmp_path / "config.json"
        _write_json(written, default_synthetic_config().to_dict())
        assert shipped.read_bytes() == written.read_bytes()
        assert SyntheticConfig.from_dict(json.loads(shipped.read_text())) == (
            default_synthetic_config()
        )


def _corpus_stats(tmp_path):
    config = default_synthetic_config(n_images=15, seed=10)
    corpus, _ = synth_corpus(config, tmp_path / "corpus")
    builder = StatsBuilder.for_classes(corpus.class_map)
    for image_id in corpus.image_ids():
        grid = corpus.grid(image_id)
        objects = extract_objects(grid)
        accumulate(builder, objects, relations_for_objects(grid, objects))
    return finalize(builder, alpha=1.0)


def _hand_registry():
    builder = StatsBuilder.for_classes([1, 2])
    builder.images = 1
    n = len(FEATURE_NAMES)
    model = LinearModel(
        weights=(0.5,) * n, bias=0.1, feature_means=(0.0,) * n, feature_stds=(1.0,) * n,
        hyperparams=Hyperparams(), seed=0, n_pos=1, n_neg=1, context_label=GLOBAL_LABEL,
    )
    return VerifierRegistry(
        context_attribute=None, min_area=1,
        global_detector=Detector(
            model=model,
            stats=finalize(builder),
            prototypes=np.full((2, SHAPE_BINS), 1 / SHAPE_BINS),
        ),
    )


DENSE_TABLES = (
    "presence_table", "position_table", "proximity_table", "distance_table",
    "size_mean", "size_std",
)


class TestPersistence:
    def test_stats_model_roundtrip_exact(self, tmp_path):
        model = _corpus_stats(tmp_path)
        path = tmp_path / "stats.json"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded == model

    def test_saving_what_was_loaded_reproduces_the_document(self, tmp_path):
        config = default_synthetic_config(n_images=60, seed=14)
        corpus, table = synth_corpus(config, tmp_path / "corpus")
        registry = train_registry(corpus, table, "location", seed=14)
        assert registry.models, "the registry should hold context detectors too"
        stats = registry.models["inside"].stats
        for name, obj in (("registry.json", registry), ("stats.json", stats)):
            path, again = tmp_path / name, tmp_path / f"again.{name}"
            save_model(path, obj)
            save_model(again, load_model(path))
            assert again.read_bytes() == path.read_bytes(), name

    def test_loaded_dense_tables_equal_saved(self, tmp_path):
        model = _corpus_stats(tmp_path)
        path = tmp_path / "stats.json"
        save_model(path, model)
        loaded = load_model(path)
        for name in DENSE_TABLES:
            saved, reread = getattr(model, name), getattr(loaded, name)
            assert reread.shape == saved.shape
            assert (reread == saved).all(), name

    @pytest.mark.parametrize(
        "where, key",
        [((), "min_area"), (("global", "model"), "bias"), (("global", "stats"), "images")],
    )
    def test_document_missing_a_key_is_format_error(self, tmp_path, where, key):
        path = tmp_path / "registry.json"
        save_model(path, _hand_registry())
        assert isinstance(load_model(path), VerifierRegistry)
        doc = json.loads(path.read_text())
        part = doc
        for step in where:
            part = part[step]
        del part[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"missing key '{key}'") as exc:
            load_model(path)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("mode", ["mean_threshold", "bogus"])
    def test_unknown_aggregation_mode_is_format_error(self, tmp_path, capsys, mode):
        path = tmp_path / "registry.json"
        save_model(path, _hand_registry())
        doc = json.loads(path.read_text())
        assert doc["aggregation_mode"] == "majority"
        doc["aggregation_mode"] = mode
        path.write_text(json.dumps(doc))
        message = f"aggregation_mode is '{mode}', expected 'majority'"
        with pytest.raises(FormatError, match=re.escape(message)) as exc:
            load_model(path)
        assert "\n" not in str(exc.value)
        image = tmp_path / "image.lgrid"
        image.write_text(grid_from_array(np.ones((4, 4), dtype=int), {1: "a"}).to_text())
        assert main(["verify", str(path), str(image)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FormatError:") and err.count("\n") == 1

    def test_context_named_global_is_format_error(self, tmp_path, capsys):
        path = tmp_path / "registry.json"
        save_model(path, _hand_registry())
        doc = json.loads(path.read_text())
        doc["contexts"] = {GLOBAL_LABEL: doc["global"]}
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="context value 'global' names the global") as exc:
            load_model(path)
        assert "\n" not in str(exc.value)
        image = tmp_path / "image.lgrid"
        image.write_text(grid_from_array(np.ones((4, 4), dtype=int), {1: "a"}).to_text())
        assert main(["verify", str(path), str(image)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FormatError:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "kind, where, key, value, message",
        [
            ("registry", (), "shape_samples", 32, "shape_samples is 32, expected 64"),
            ("registry", (), "shape_bins", 8, "shape_bins is 8, expected 16"),
            ("registry", ("global", "stats"), "k_dist", 3, "k_dist is 3, expected 5"),
            ("statistics", (), "k_dist", 3, "k_dist is 3, expected 5"),
            (
                "registry", ("global", "model"), "weights", [0.5] * 6,
                "length of weights is 6, expected 7",
            ),
            (
                "registry", ("global", "model"), "feature_means", [0.0] * 6,
                "length of feature_means is 6, expected 7",
            ),
            (
                "registry", ("global", "model"), "feature_stds", [1.0] * 8,
                "length of feature_stds is 8, expected 7",
            ),
            (
                "registry", ("global", "prototypes"), "1", [0.125] * 8,
                "length of the class 1 prototype is 8, expected 16",
            ),
            (
                "registry", ("global", "model"), "weights", ["x"] * 7,
                "weights holds 'x', expected finite numbers",
            ),
            (
                "registry", ("global", "prototypes"), "1", ["x"] * 16,
                "the class 1 prototype holds 'x', expected finite numbers",
            ),
            (
                "registry", ("global", "prototypes"), "1", [0.0] * 15 + [math.nan],
                "the class 1 prototype holds nan, expected finite numbers",
            ),
            (
                "registry", ("global", "prototypes"), "1", [math.inf] + [0.0] * 15,
                "the class 1 prototype holds inf, expected finite numbers",
            ),
            (
                "registry", ("global", "prototypes"), "9", [1 / 16] * 16,
                re.escape("prototypes name ['9'], not the classes with images []"),
            ),
            (
                "registry", ("global", "stats"), "class_image_counts", {"1": 1},
                re.escape("prototypes name [], not the classes with images ['1']"),
            ),
            (
                "registry", ("global", "model"), "feature_stds", [1.0] * 6 + [0.0],
                "feature_stds holds 0.0, expected values above 0",
            ),
            (
                "registry", ("global", "model"), "feature_stds", [-1.0] + [1.0] * 6,
                "feature_stds holds -1.0, expected values above 0",
            ),
            (
                "registry", ("global", "model"), "feature_stds", [1.0] * 6 + [math.nan],
                "feature_stds holds nan, expected finite numbers",
            ),
            (
                "registry", ("global", "model"), "feature_stds", [math.inf] * 7,
                "feature_stds holds inf, expected finite numbers",
            ),
            (
                "registry", ("global", "model"), "weights", [0.5] * 6 + [math.nan],
                "weights holds nan, expected finite numbers",
            ),
            (
                "registry", ("global", "model"), "feature_means", [-math.inf] + [0.0] * 6,
                "feature_means holds -inf, expected finite numbers",
            ),
            (
                "registry", ("global", "model"), "bias", math.nan,
                "bias holds nan, expected finite numbers",
            ),
            (
                "registry", ("global", "model"), "bias", math.inf,
                "bias holds inf, expected finite numbers",
            ),
            ("registry", ("global", "stats"), "alpha", math.nan, "alpha holds nan, expected"),
            ("registry", ("global", "stats"), "alpha", math.inf, "alpha holds inf, expected"),
            ("registry", (), "min_area", 0, "min_area is 0, expected at least 1"),
            ("registry", (), "min_area", 25.5, "min_area holds 25.5, expected integers"),
            ("registry", ("global", "model"), "seed", "5", "seed holds '5', expected integers"),
            ("registry", ("global", "model"), "n_pos", True, "n_pos holds True, expected integers"),
            (
                "registry", ("global", "model", "hyperparams"), "learning_rate", "0.01",
                "learning_rate holds '0.01', expected finite numbers",
            ),
            (
                "registry", ("global", "stats"), "classes", [1, 1, 2],
                re.escape("classes [1, 1, 2] are not strictly increasing"),
            ),
            (
                "registry", ("global", "stats"), "classes", [2, 1],
                re.escape("classes [2, 1] are not strictly increasing"),
            ),
            (
                "registry", ("global", "stats"), "classes", [1, math.inf],
                "classes holds inf, expected integers",
            ),
            (
                "registry", ("global", "stats"), "presence_counts", [[True, 1, 1]],
                "presence_counts holds True, expected integers",
            ),
        ],
        ids=[
            "shape_samples", "shape_bins", "registry-k_dist", "statistics-k_dist",
            "weights", "feature_means", "feature_stds", "prototype",
            "weights-not-numbers", "prototype-not-numbers", "prototype-nan", "prototype-inf",
            "prototype-of-a-class-outside-classes", "class-with-images-but-no-prototype",
            "feature_stds-zero", "feature_stds-negative", "feature_stds-nan",
            "feature_stds-inf", "weights-nan", "feature_means-inf", "bias-nan", "bias-inf",
            "alpha-nan", "alpha-inf", "min_area-zero", "min_area-fractional", "seed-a-string",
            "n_pos-true", "learning_rate-a-string", "classes-duplicated", "classes-unsorted",
            "classes-inf", "class-id-true",
        ],
    )
    def test_other_resolution_or_malformed_vector_is_format_error(
        self, tmp_path, capsys, kind, where, key, value, message
    ):
        registry = _hand_registry()
        path = tmp_path / "model.json"
        save_model(path, registry if kind == "registry" else registry.global_detector.stats)
        doc = json.loads(path.read_text())
        part = doc
        for step in where:
            part = part[step]
        part[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=message) as exc:
            load_model(path)
        assert "\n" not in str(exc.value)
        image = tmp_path / "image.lgrid"
        image.write_text(grid_from_array(np.ones((4, 4), dtype=int), {1: "a"}).to_text())
        assert main(["verify", str(path), str(image)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FormatError:") and err.count("\n") == 1

    def test_stats_document_with_wrong_types_is_format_error(self, tmp_path):
        path = tmp_path / "stats.json"
        save_model(path, _hand_registry().global_detector.stats)
        doc = json.loads(path.read_text())
        doc["presence_counts"] = [[1, 2]]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_model(path)

    def test_registry_roundtrip_behavioural_equality(self, tmp_path, rng):
        config = default_synthetic_config(n_images=60, seed=14)
        corpus, table = synth_corpus(config, tmp_path / "corpus")
        registry = train_registry(corpus, table, "location", seed=14)
        path = tmp_path / "registry.json"
        save_model(path, registry)
        loaded = load_model(path)
        assert loaded == registry
        val_ids = corpus.image_ids("val")
        for _ in range(40):
            image_id = val_ids[int(rng.integers(len(val_ids)))]
            grid = corpus.grid(image_id)
            record = table.record(image_id)
            assert verify(grid, loaded, record) == verify(grid, registry, record)

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"schema_version": 999, "kind": "cooccurrence_model"}))
        with pytest.raises(VersionError):
            load_model(path)

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_model(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"schema_version": 1, "kind": "mystery"}))
        with pytest.raises(FormatError):
            load_model(path)


class TestDerivedSeeds:
    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
        assert derive_seed(0) != derive_seed(1)

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    def test_parts_in_32_bits_keep_their_derived_seed(self, parts):
        # The seed sequence of the parts themselves, which every earlier
        # derivation used for parts in range.
        state = np.random.SeedSequence(parts).generate_state(2)
        assert derive_seed(*parts) == int(state[0]) << 32 | int(state[1])

    @pytest.mark.parametrize("bad", [-1, 2**32, 2**32 + 1, -(2**32) + 1, 2**64])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_part_outside_32_bits_is_value_error(self, bad, at):
        # Cut to 32 bits, 2**32 + 1 would draw as 1 and -1 as 2**32 - 1.
        parts = [1, 202, 7]
        parts[at] = bad
        with pytest.raises(ValueError, match=rf"seed part {bad} is outside \[0, 2\*\*32\)"):
            derive_seed(*parts)
