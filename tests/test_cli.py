"""End-to-end command-line pipeline."""

import dataclasses
import json
import math
import os
import re
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenecheck import (
    Corpus,
    FormatError,
    SceneCheckError,
    default_synthetic_config,
    extract_objects,
    grid_from_array,
    load_label_grid,
    load_model,
    save_model,
    score_attributes,
    synth_corpus,
    verify,
)
from scenecheck import cli
from scenecheck import corpus as corpus_mod
from scenecheck.cli import main
from scenecheck.corpus import _stats_to_doc, _versioned
from scenecheck.verifier import Verdict

SHIPPED_CONFIG = Path(__file__).parents[1] / "scripts" / "configs" / "synth_default.json"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run synth -> select-contexts -> train once for the module."""
    root = tmp_path_factory.mktemp("pipeline")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(default_synthetic_config(n_images=80).to_dict()))
    corpus_dir = root / "corpus"
    assert main(["synth", str(config_path), str(corpus_dir), "--seed", "17"]) == 0
    report_path = root / "contexts.json"
    assert main(["select-contexts", str(corpus_dir), "-o", str(report_path)]) == 0
    registry_path = root / "registry.json"
    assert (
        main(
            [
                "train", str(corpus_dir),
                "--context", "location",
                "--seed", "17",
                "-o", str(registry_path),
            ]
        )
        == 0
    )
    return root, corpus_dir, registry_path


class TestSynth:
    def test_writes_expected_layout(self, pipeline):
        _, corpus_dir, _ = pipeline
        for name in ("classes.json", "attributes.json", "splits.json"):
            assert (corpus_dir / name).exists()
        assert len(list((corpus_dir / "images").glob("*.lgrid"))) == 160

    def test_bad_config_version_fails_validation(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        doc = default_synthetic_config(n_images=4).to_dict()
        doc["schema_version"] = 999
        config_path.write_text(json.dumps(doc))
        code = main(["synth", str(config_path), str(tmp_path / "c"), "--seed", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: VersionError:")
        assert err.count("\n") == 1

    def test_config_missing_a_key_fails_validation(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        doc = default_synthetic_config(n_images=4).to_dict()
        del doc["contexts"]
        config_path.write_text(json.dumps(doc))
        code = main(["synth", str(config_path), str(tmp_path / "c"), "--seed", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FormatError:")
        assert err.count("\n") == 1

    def test_context_value_that_is_not_a_plain_name_is_format_error(self, tmp_path, capsys):
        # Image ids start with the context value, so this one would write
        # `up_00000.lgrid` and its siblings above the corpus.
        config = default_synthetic_config(n_images=2)
        inside, outside = config.contexts
        config = dataclasses.replace(
            config, contexts=(dataclasses.replace(inside, value="../../up"), outside)
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        code = main(["synth", str(config_path), str(tmp_path / "out" / "corpus"), "--seed", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FormatError:") and err.count("\n") == 1
        assert "'../../up'" in err
        assert sorted(tmp_path.rglob("*")) == [config_path]

    def test_missing_seed_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "conf.json", str(tmp_path / "c")])
        assert exc.value.code == 2

    def test_largest_seed_runs_and_differs_from_seed_0(self, tmp_path):
        # 2**32 - 1 is the last seed `derive_seed` takes; -1 used to be cut
        # to it, and 2**32 + 1 to 1.
        doc = json.loads(SHIPPED_CONFIG.read_text())
        doc["n_images"] = 2
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        for seed in ("0", "4294967295"):
            assert main(["synth", str(config), str(tmp_path / seed), "--seed", seed]) == 0
        first, last = (sorted((tmp_path / s / "images").iterdir()) for s in ("0", "4294967295"))
        assert [p.name for p in first] == [p.name for p in last]
        assert [p.read_bytes() for p in first] != [p.read_bytes() for p in last]

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    @pytest.mark.parametrize(
        "path, value, error",
        [
            (("contexts", 1, "stack"), [7, 8], "error: FormatError: {config}: "),
            (
                ("contexts", 1, "stack"), [8, 12],
                "error: PlacementError: {config}: rider bicycle of width 13 needs 13 columns"
                " of its base, which is 11 wide, grid_width is 64\n",
            ),
            (
                ("grid_height",), 24,
                "error: PlacementError: {config}: lone sofa of height 11 needs 11 of rows"
                " [4, 13), grid_height is 24\n",
            ),
        ],
        ids=["config-refused", "rider-too-wide", "lone-object-too-tall"],
    )
    def test_failed_run_leaves_only_what_was_there(
        self, tmp_path, capsys, path, value, error, existing
    ):
        # With the outside stack [8, 12] (a bicycle riding a horse), the 20
        # inside maps are written before an outside rider is drawn wider
        # than its base; 24 rows are too few for an 11-row lone object.
        doc = json.loads(SHIPPED_CONFIG.read_text())
        doc["n_images"] = 20
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        config, out = tmp_path / "config.json", tmp_path / "out"
        config.write_text(json.dumps(doc))
        if existing:
            (out / "images").mkdir(parents=True)
            (out / "images" / "inside_00000.txt").write_text("kept")
            (out / "notes.txt").write_text("kept")
        before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
        assert main(["synth", str(config), str(out), "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(error.format(config=config)) and err.count("\n") == 1
        after = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
        assert after == before

    @pytest.mark.parametrize("height", [8, *range(20, 34)])
    def test_short_grid_fails_in_one_line_before_painting_outside_it(
        self, tmp_path, capsys, paint_from_row_0, height
    ):
        doc = json.loads(SHIPPED_CONFIG.read_text())
        doc["grid_height"] = height
        config, out = tmp_path / "config.json", tmp_path / "out"
        config.write_text(json.dumps(doc))
        assert main(["synth", str(config), str(out), "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: PlacementError: {config}: ") and err.count("\n") == 1
        assert "row -" not in err and "cannot fit in [" not in err
        message = err.removeprefix(f"error: PlacementError: {config}: ")
        assert any(c["name"] in message.split() for c in doc["classes"])
        if message.startswith("rider "):
            # Heights 27 to 31: the rider's height, the base's top row and
            # the grid's height, with the rider taller than the rows above.
            rider = re.fullmatch(
                rf"rider \w+ of height (\d+) needs \1 rows above its base's top row (\d+),"
                rf" grid_height is {height}\n",
                message,
            )
            assert rider and int(rider[2]) < int(rider[1])
        assert sorted(tmp_path.rglob("*")) == [config]


@pytest.mark.parametrize("seed", ["4294967296", "4294967297", "-1", "-4294967295", "1.5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "{dir}/config.json", "{dir}/corpus"],
        ["gen-contradictions", "{dir}/corpus", "-o", "{dir}/pairs"],
        ["train", "{dir}/corpus", "-o", "{dir}/registry.json"],
        ["evaluate", "{dir}/registry.json", "{dir}/corpus", "-o", "{dir}/report"],
    ],
    ids=["synth", "gen-contradictions", "train", "evaluate"],
)
def test_seed_outside_32_bits_is_usage_error(tmp_path, capsys, argv, seed):
    # Each part of a derived seed is one 32-bit word, so a --seed outside
    # [0, 2**32) would give the draws of another seed.
    argv = [a.format(dir=tmp_path) for a in argv] + ["--seed", seed]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: must be an integer in [0, 2**32), got '{seed}'" in err
    assert list(tmp_path.iterdir()) == []


def _synth_config_mutants(doc):
    """(name, copy of `doc` with one leaf mutated) for each mutation of the
    synth config `doc`: each number set to 0 and to -1, each pair of
    integers swapped and each list emptied; no value exceeds `doc`'s."""
    nodes = [((), doc)]
    for path, node in nodes:
        if isinstance(node, (dict, list)):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            nodes.extend((path + (key,), child) for key, child in items)
        if type(node) in (int, float):
            news = {"zero": 0, "minus-one": -1}
        elif isinstance(node, list):
            news = {"empty": []}
            if len(node) == 2 and all(type(v) is int for v in node):
                news["swapped"] = node[::-1]
        else:
            continue
        for how, new in news.items():
            mutant = json.loads(json.dumps(doc))
            parent = mutant
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]] = new
            yield f"{'.'.join(map(str, path))}={how}", mutant


def test_synth_config_with_one_leaf_mutated_runs_or_fails_in_one_line(tmp_path, capsys):
    # Each mutant of the shipped config at 2 images per context either
    # synthesizes, or exits 1 with one error line and leaves no directory.
    shipped = json.loads(SHIPPED_CONFIG.read_text())
    shipped["n_images"] = 2
    mutants = dict(_synth_config_mutants(shipped))
    assert len(mutants) == 260
    config, out = tmp_path / "config.json", tmp_path / "out"
    faults, codes = [], Counter()
    for name, doc in mutants.items():
        config.write_text(json.dumps(doc))
        try:
            code = main(["synth", str(config), str(out), "--seed", "1"])
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        codes[code if code in (0, 1) else "traceback"] += 1
        if code not in (0, 1):
            faults.append(f"{name}: {code}")
        elif code == 1 and not (err.startswith("error: ") and err.count("\n") == 1):
            faults.append(f"{name}: error output {err!r}")
        elif code == 1 and out.exists():
            faults.append(f"{name}: left {out}")
        shutil.rmtree(out, ignore_errors=True)
    assert not faults, f"{len(faults)} of {len(mutants)} mutants: {faults}"
    assert codes[0] > 0 and codes[1] > 0


class TestSelectContexts:
    def test_report_ranks_generating_attribute_first(self, pipeline):
        root, _, _ = pipeline
        report = json.loads((root / "contexts.json").read_text())
        assert report["ranking"][0] == "location"
        assert report["selected"] == "location"
        assert set(report["attributes"]) == {
            "location", "instances", "lighting", "coverage",
        }

    def test_document_is_the_score_of_the_train_labels(self, pipeline):
        root, corpus_dir, _ = pipeline
        corpus = Corpus.load(corpus_dir)
        labels = {
            image_id: Counter(extract_objects(corpus.grid(image_id)).class_id.tolist())
            for image_id in corpus.image_ids("train")
        }
        expected = _versioned(score_attributes(corpus.attributes(), labels))
        assert json.loads((root / "contexts.json").read_text()) == expected


def _spoil(path, how):
    """Spoil the JSON document at `path` in one of the ways every reader refuses."""
    if how == "missing":
        path.unlink()
    elif how == "list":
        path.write_text("[]")
    elif how == "invalid-json":
        path.write_text('{"schema_version": 1,')
    else:
        doc = json.loads(path.read_text())
        doc["schema_version"] = 999
        path.write_text(json.dumps(doc))


SPOILS = {
    "version": "VersionError",
    "list": "FormatError",
    "invalid-json": "FormatError",
    "missing": "FormatError",
}
READERS = [
    "synth config",
    "train classes.json",
    "train splits.json",
    "train attributes.json",
    "verify registry",
    "verify --classes",
    "verify --attributes",
    "evaluate registry",
]


@pytest.fixture
def readers(pipeline, tmp_path):
    """For each command that reads a document: a copy of that document in
    tmp_path and the command's argv, which reads the copy."""
    _, corpus_dir, registry_path = pipeline
    corpus = tmp_path / "corpus"
    synth_corpus(default_synthetic_config(n_images=4, seed=6), corpus)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(default_synthetic_config(n_images=4).to_dict()))
    registry = tmp_path / "registry.json"
    shutil.copy(registry_path, registry)
    classes, attributes = corpus / "classes.json", corpus / "attributes.json"
    out = str(tmp_path / "out" / "x.json")
    train = ["train", str(corpus), "--context", "location", "--seed", "1", "-o", out]
    verify = ["verify", str(registry), str(next((corpus_dir / "images").glob("inside_*.lgrid")))]
    return {
        "synth config": (config, ["synth", str(config), str(tmp_path / "c"), "--seed", "1"]),
        "train classes.json": (classes, train),
        "train splits.json": (corpus / "splits.json", train),
        "train attributes.json": (attributes, train),
        "verify registry": (registry, verify),
        "verify --classes": (classes, verify + ["--classes", str(classes)]),
        "verify --attributes": (attributes, verify + ["--attributes", str(attributes)]),
        "evaluate registry": (
            registry, ["evaluate", str(registry), str(corpus_dir), "--seed", "1", "-o", out]
        ),
    }


@pytest.mark.parametrize("how", sorted(SPOILS))
@pytest.mark.parametrize("reader", READERS)
def test_every_document_reader_refuses_a_spoilt_document(readers, capsys, reader, how):
    # The error names the spoilt file, so the command got as far as reading it.
    path, argv = readers[reader]
    _spoil(path, how)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {SPOILS[how]}: {path}:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "evaluate"])
def test_a_document_of_statistics_alone_is_not_a_registry(pipeline, tmp_path, capsys, command):
    # Statistics are read only as parts of a registry's detectors.
    _, corpus_dir, registry_path = pipeline
    stats = load_model(registry_path).global_detector.stats
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(_versioned({"kind": "cooccurrence_model", **_stats_to_doc(stats)})))
    out = tmp_path / "report.json"
    argv = {
        "verify": ["verify", str(path), str(next((corpus_dir / "images").glob("*.lgrid")))],
        "evaluate": ["evaluate", str(path), str(corpus_dir), "--seed", "1", "-o", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    message = f"{path}: unknown document kind 'cooccurrence_model'"
    assert captured.err == f"error: FormatError: {message}\n"
    assert captured.out == "" and not out.exists()


ATTRIBUTE_FAULTS = {
    "schema-value-a-string": "FormatError",
    "value-outside-the-schema": "SchemaError",
    "image-id-a-number": "FormatError",
}


@pytest.mark.parametrize("fault", sorted(ATTRIBUTE_FAULTS))
@pytest.mark.parametrize("reader", ["train attributes.json", "verify --attributes"])
def test_attribute_table_errors_name_the_file(readers, capsys, reader, fault):
    path, argv = readers[reader]
    doc = json.loads(path.read_text())
    if fault == "schema-value-a-string":
        doc["schema"]["location"] = "insideoutside"
    elif fault == "image-id-a-number":
        doc["annotations"][0]["image_id"] = 7
    else:
        for entry in doc["annotations"]:
            entry["attributes"]["location"] = "moon"
    path.write_text(json.dumps(doc))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ATTRIBUTE_FAULTS[fault]}: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["evaluate", "verify"])
def test_a_table_without_the_context_attribute_is_schema_error(
    pipeline, tmp_path, capsys, monkeypatch, command
):
    # The registry dispatches on `location`; a table whose schema lacks it
    # would send every map to the global detector.  It is refused before
    # any map is labelled.
    _, corpus_dir, registry_path = pipeline
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    path = corpus / "attributes.json"
    doc = json.loads(path.read_text())
    del doc["schema"]["location"]
    for entry in doc["annotations"]:
        del entry["attributes"]["location"]
    path.write_text(json.dumps(doc))
    out = tmp_path / "out" / "report.json"
    image = next((corpus / "images").glob("inside_*.lgrid"))
    argv = {
        "evaluate": ["evaluate", str(registry_path), str(corpus), "--seed", "1", "-o", str(out)],
        "verify": ["verify", str(registry_path), str(image), "--attributes", str(path)],
    }[command]

    def refuse(*args, **kwargs):
        raise AssertionError("a map was labelled")

    monkeypatch.setattr(cli, "prepare_all", refuse)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: SchemaError: {path}: unknown attribute 'location'\n"
    assert captured.out == "" and not out.parent.exists()


@pytest.mark.parametrize(
    "attributes", [None, ["inside"], "inside", 3], ids=["null", "list", "string", "number"]
)
@pytest.mark.parametrize("reader", ["train attributes.json", "verify --attributes"])
def test_annotation_attributes_that_are_not_an_object_name_the_image(
    readers, capsys, reader, attributes
):
    path, argv = readers[reader]
    doc = json.loads(path.read_text())
    doc["annotations"][0]["attributes"] = attributes
    image_id = doc["annotations"][0]["image_id"]
    path.write_text(json.dumps(doc))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: FormatError: {path}: attributes of image {image_id!r} are ")
    assert err.count("\n") == 1


class TestGenContradictions:
    def test_manifest_pairs_and_skips(self, pipeline, tmp_path):
        _, corpus_dir, _ = pipeline
        out = tmp_path / "contras"
        code = main(
            ["gen-contradictions", str(corpus_dir), "--seed", "3", "-o", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pairs"], "expected at least one pair"
        assert manifest["skipped"], "lone scenes should be skipped"
        first = manifest["pairs"][0]
        assert (out / "contradictions" / f"{first['image_id']}.lgrid").exists()

    def test_manifest_paths_are_relative_to_the_manifest(self, pipeline, tmp_path):
        _, corpus_dir, _ = pipeline
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            argv = ["gen-contradictions", str(corpus_dir), "--seed", "3", "-o", str(out)]
            assert main(argv) == 0
        first, second = ((out / "manifest.json").read_bytes() for out in outs)
        assert first == second
        manifest = json.loads(first)
        assert manifest["pairs"]
        for pair in manifest["pairs"]:
            for key in ("valid", "invalid"):
                assert not os.path.isabs(pair[key])
                assert (outs[0] / pair[key]).is_file()
            assert (outs[0] / pair["valid"]).resolve() == (
                corpus_dir / "images" / f"{pair['image_id']}.lgrid"
            ).resolve()

    def test_only_maps_of_fewer_than_two_objects_are_skipped(
        self, pipeline, tmp_path, capsys, monkeypatch
    ):
        # Any other refusal while making a twin stops the command, and
        # nothing is written.
        _, corpus_dir, _ = pipeline
        corpus = Corpus.load(corpus_dir)
        refused = next(
            image_id
            for image_id in corpus.image_ids("val")
            if len(extract_objects(corpus.grid(image_id))) >= 2
        )

        def paint(grid, objects, seed, _paint=cli.paint_removal):
            if grid.image_id == refused:
                raise FormatError(f"{refused}: refused")
            return _paint(grid, objects, seed)

        monkeypatch.setattr(cli, "paint_removal", paint)
        out = tmp_path / "out"
        argv = ["gen-contradictions", str(corpus_dir), "--seed", "3", "-o", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: FormatError: {refused}: refused\n"
        assert not out.exists()

    def test_each_val_map_is_labelled_once_in_batches(self, pipeline, tmp_path, monkeypatch):
        _, corpus_dir, _ = pipeline
        batches = []

        def spy(grids, *args, _label=cli.label_maps):
            batches.append([grid.image_id for grid in grids])
            return _label(grids, *args)

        def refuse(*args, **kwargs):
            raise AssertionError("a map was labelled alone")

        monkeypatch.setattr(cli, "label_maps", spy)
        monkeypatch.setattr(corpus_mod, "extract_objects", refuse)
        argv = ["gen-contradictions", str(corpus_dir), "--seed", "3", "-o", str(tmp_path / "out")]
        assert main(argv) == 0
        assert len(batches) > 1
        assert [i for batch in batches for i in batch] == Corpus.load(corpus_dir).image_ids("val")

    def test_a_refused_map_leaves_no_output(self, tmp_path, capsys):
        # The last val map is read after every other twin is painted.
        corpus_dir = tmp_path / "corpus"
        corpus = synth_corpus(default_synthetic_config(n_images=30, seed=6), corpus_dir)
        image = corpus.grid_path(corpus.image_ids("val")[-1])
        image.write_text(_fault_text(image.read_text(), "bad-token"))
        out = tmp_path / "out"
        argv = ["gen-contradictions", str(corpus_dir), "--seed", "1", "-o", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: FormatError: {image}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_image_id_escaping_the_corpus_is_format_error(self, tmp_path, capsys):
        # The twin of val id "../../escaped" would be written over the very
        # file it was read from, outside both the corpus and the output.
        corpus_dir = tmp_path / "corpus"
        synth_corpus(default_synthetic_config(n_images=4, seed=6), corpus_dir)
        arr = np.zeros((20, 20), dtype=int)
        arr[1:7, 1:7] = 1
        arr[10:16, 10:16] = 2
        escaped = tmp_path / "escaped.lgrid"
        escaped.write_text(grid_from_array(arr, {1: "a", 2: "b"}).to_text())
        before = escaped.read_bytes()
        splits = corpus_dir / "splits.json"
        doc = json.loads(splits.read_text())
        doc["val"].append("../../escaped")
        splits.write_text(json.dumps(doc))
        argv = ["gen-contradictions", str(corpus_dir), "--seed", "1", "-o", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FormatError:") and err.count("\n") == 1
        assert "'../../escaped'" in err
        assert escaped.read_bytes() == before

    def test_image_id_listed_twice_in_a_split_is_duplicate_error(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        synth_corpus(default_synthetic_config(n_images=12, seed=5), corpus_dir)
        splits = corpus_dir / "splits.json"
        doc = json.loads(splits.read_text())
        twice = doc["val"][0]
        doc["val"].append(twice)
        splits.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["gen-contradictions", str(corpus_dir), "--seed", "1", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DuplicateError:") and err.count("\n") == 1
        assert repr(twice) in err
        assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["select-contexts", "train", "evaluate"])
def test_output_into_a_missing_directory_is_created(pipeline, tmp_path, command):
    _, corpus_dir, registry_path = pipeline
    out = tmp_path / "missing" / "sub" / "x.json"
    argv = {
        "select-contexts": ["select-contexts", str(corpus_dir)],
        "train": ["train", str(corpus_dir), "--seed", "1"],
        "evaluate": ["evaluate", str(registry_path), str(corpus_dir), "--seed", "1"],
    }[command]
    assert main(argv + ["-o", str(out)]) == 0
    assert json.loads(out.read_text())


@pytest.mark.parametrize(
    "command",
    ["synth", "select-contexts", "gen-contradictions", "train", "evaluate"],
)
def test_output_that_cannot_be_created_is_one_error_line(pipeline, tmp_path, capsys, command):
    # A regular file where the output's directory should be, or, for train,
    # a directory where its file should be.
    root, corpus_dir, registry_path = pipeline
    afile, adir = tmp_path / "afile", tmp_path / "adir"
    afile.write_text("")
    adir.mkdir()
    blocked = adir if command == "train" else afile
    out = {"synth": afile, "gen-contradictions": afile / "g", "train": adir}.get(
        command, afile / "x.json"
    )
    argv = {
        "synth": ["synth", str(root / "config.json"), str(out), "--seed", "1"],
        "select-contexts": ["select-contexts", str(corpus_dir), "-o", str(out)],
        "gen-contradictions": ["gen-contradictions", str(corpus_dir), "--seed", "1", "-o", str(out)],
        "train": ["train", str(corpus_dir), "--seed", "1", "-o", str(out)],
        "evaluate": ["evaluate", str(registry_path), str(corpus_dir), "--seed", "1", "-o", str(out)],
    }[command]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'{blocked}" in err and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "command, split",
    [("select-contexts", "train"), ("gen-contradictions", "val"), ("train", "train"),
     ("evaluate", "val")],
)
def test_an_empty_split_is_refused_before_any_map_is_read(
    pipeline, tmp_path, capsys, monkeypatch, command, split
):
    # Every command that reads a split refuses it, if empty, in one line
    # and writes nothing.
    _, corpus_dir, registry_path = pipeline
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    splits = json.loads((corpus / "splits.json").read_text())
    (corpus / "splits.json").write_text(json.dumps({**splits, split: []}))

    def refuse(self, image_id):
        raise AssertionError(f"{command} read the map {image_id}")

    monkeypatch.setattr(Corpus, "grid", refuse)
    out = tmp_path / "out" / "x.json"
    argv = {
        "select-contexts": ["select-contexts", str(corpus), "-o", str(out)],
        "gen-contradictions": ["gen-contradictions", str(corpus), "--seed", "5", "-o", str(out)],
        "train": ["train", str(corpus), "--seed", "5", "-o", str(out)],
        "evaluate": ["evaluate", str(registry_path), str(corpus), "--seed", "5", "-o", str(out)],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: EmptyCorpusError: {split} split is empty\n"
    assert not out.parent.exists()


class TestTrain:
    def test_printed_scopes_equal_the_saved_registry(self, pipeline, tmp_path, capsys):
        _, corpus_dir, _ = pipeline
        out = tmp_path / "registry.json"
        argv = ["train", str(corpus_dir), "--context", "location", "--seed", "17", "-o", str(out)]
        capsys.readouterr()
        assert main(argv) == 0
        printed = json.loads(capsys.readouterr().out)
        registry = load_model(out)
        detectors = {"global": registry.global_detector, **registry.models}
        assert set(printed["scopes"]) == {"global", "inside", "outside"}
        assert printed["scopes"] == {
            label: {"n_pos": d.model.n_pos, "n_neg": d.model.n_neg}
            for label, d in detectors.items()
        }
        for counts in printed["scopes"].values():
            assert counts["n_pos"] > 0 and counts["n_neg"] > 0
        assert json.loads(out.read_text())["aggregation_mode"] == "majority"

    def test_aggregation_option_is_usage_error(self, pipeline, tmp_path, capsys):
        # The majority vote is the only verdict rule: there is nothing to choose.
        _, corpus_dir, _ = pipeline
        out = tmp_path / "registry.json"
        argv = ["train", str(corpus_dir), "--seed", "1", "-o", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--aggregation", "majority"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: scenecheck") and "--aggregation" in err
        assert not out.exists()


    def test_empty_train_split_is_one_line_empty_corpus_error(self, tmp_path, capsys):
        config = default_synthetic_config(n_images=4, seed=6)
        config = dataclasses.replace(config, train_fraction=0.0)
        corpus = synth_corpus(config, tmp_path / "corpus")
        assert corpus.image_ids("train") == []
        out = tmp_path / "out" / "registry.json"
        assert main(["train", str(tmp_path / "corpus"), "--seed", "1", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: EmptyCorpusError: train split is empty\n"
        assert not out.parent.exists()

    def test_context_value_that_is_not_a_plain_name_is_format_error(self, tmp_path, capsys):
        # `synth` starts image ids with context values, so `attributes.json`
        # holds them to the rule of image ids.
        corpus_dir = tmp_path / "corpus"
        synth_corpus(default_synthetic_config(n_images=4, seed=6), corpus_dir)
        value = "x/../../../escaped"
        path = corpus_dir / "attributes.json"
        doc = json.loads(path.read_text())
        doc["schema"]["location"] = ["inside", value]
        for entry in doc["annotations"]:
            if entry["attributes"]["location"] == "outside":
                entry["attributes"]["location"] = value
        path.write_text(json.dumps(doc))
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "a" / "b" / "c" / "registry.json"
        argv = ["train", str(corpus_dir), "--context", "location", "--seed", "1", "-o", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FormatError:") and err.count("\n") == 1
        assert repr(value) in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_unknown_context_attribute_is_schema_error_naming_the_table(
        self, pipeline, tmp_path, capsys
    ):
        _, corpus_dir, _ = pipeline
        out = tmp_path / "out" / "registry.json"
        argv = ["train", str(corpus_dir), "--context", "nope", "--seed", "1", "-o", str(out)]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        path = corpus_dir / "attributes.json"
        assert captured.err == f"error: SchemaError: {path}: unknown attribute 'nope'\n"
        assert captured.out == "" and not out.parent.exists()

    def test_build_stats_is_not_a_command(self, pipeline, tmp_path, capsys):
        # Statistics are written only inside the registry that train saves.
        _, corpus_dir, _ = pipeline
        out = tmp_path / "stats.json"
        with pytest.raises(SystemExit) as exc:
            main(["build-stats", str(corpus_dir), "--context", "location", "-o", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: scenecheck") and "invalid choice: 'build-stats'" in err
        assert not out.exists()


def test_train_rejects_a_context_value_named_global(tmp_path, capsys):
    config = default_synthetic_config(n_images=10)
    inside, outside = config.contexts
    config = dataclasses.replace(
        config, contexts=(dataclasses.replace(inside, value="global"), outside)
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    corpus_dir = tmp_path / "corpus"
    assert main(["synth", str(config_path), str(corpus_dir), "--seed", "2"]) == 0
    capsys.readouterr()
    out = tmp_path / "registry.json"
    argv = ["train", str(corpus_dir), "--context", "location", "--seed", "2", "-o", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaError:") and err.count("\n") == 1
    assert not out.exists()


class TestVerifyCommand:
    def test_verdict_json_on_stdout(self, pipeline, capsys):
        root, corpus_dir, registry_path = pipeline
        image = next((corpus_dir / "images").glob("inside_*.lgrid"))
        code = main(
            [
                "verify", str(registry_path), str(image),
                "--attributes", str(corpus_dir / "attributes.json"),
                "--classes", str(corpus_dir / "classes.json"),
            ]
        )
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert set(verdict) == {
            "image_id", "contradiction", "confidence", "model_used", "pair_scores",
        }
        assert verdict["model_used"] in ("inside", "global")

    def test_zero_object_image_abstains(self, pipeline, tmp_path, capsys):
        _, _, registry_path = pipeline
        grid = grid_from_array(np.zeros((6, 6), dtype=int), {})
        image = tmp_path / "empty.lgrid"
        image.write_text(grid.to_text())
        code = main(["verify", str(registry_path), str(image)])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["contradiction"] is False
        assert verdict["confidence"] == 0.5

    def test_registry_with_an_emptied_size_observation_list_is_one_line(
        self, pipeline, tmp_path, capsys
    ):
        _, corpus_dir, registry_path = pipeline
        doc = json.loads(registry_path.read_text())
        a, b, observations = doc["global"]["stats"]["size_obs"][0]
        observations.clear()
        mutant = tmp_path / "registry.json"
        mutant.write_text(json.dumps(doc))
        image = next((corpus_dir / "images").glob("inside_*.lgrid"))
        assert main(["verify", str(mutant), str(image)]) == 1
        assert capsys.readouterr().err == (
            f"error: FormatError: {mutant}: malformed document: size_obs of ({a}, {b}) is empty\n"
        )

    @pytest.mark.parametrize(
        "flag, doc",
        [
            ("--classes", {"schema_version": 1}),
            ("--attributes", {"schema_version": 1, "schema": {}}),
            # A string is not a list of allowed values: "ins" is in it, as a substring.
            (
                "--attributes",
                {
                    "schema_version": 1,
                    "schema": {"location": "insideoutside"},
                    "annotations": [
                        {"image_id": "inside_00000", "attributes": {"location": "ins"}}
                    ],
                },
            ),
        ],
    )
    def test_document_missing_a_key_is_validation_error(
        self, pipeline, tmp_path, capsys, flag, doc
    ):
        _, corpus_dir, registry_path = pipeline
        image = next((corpus_dir / "images").glob("inside_*.lgrid"))
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", str(registry_path), str(image), flag, str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FormatError:")
        assert err.count("\n") == 1

    def test_attribute_value_outside_the_schema_is_schema_error(self, pipeline, tmp_path, capsys):
        _, corpus_dir, registry_path = pipeline
        image = next((corpus_dir / "images").glob("inside_*.lgrid"))
        doc = json.loads((corpus_dir / "attributes.json").read_text())
        for entry in doc["annotations"]:
            if entry["image_id"] == image.stem:
                entry["attributes"]["location"] = "moon"
        path = tmp_path / "attributes.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", str(registry_path), str(image), "--attributes", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SchemaError:") and err.count("\n") == 1
        assert "'moon'" in err

    def test_missing_file_is_validation_error(self, pipeline, capsys):
        _, _, registry_path = pipeline
        code = main(["verify", str(registry_path), "/nonexistent/image.lgrid"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


def _fault_text(text, fault):
    """`text`, a map's `.lgrid` text, with `fault` put into its first row."""
    lines = text.splitlines()
    first = lines[1].split(" ")
    if fault == "ragged-row":
        del first[-1]
    else:
        first[0] = {"bad-token": "x", "unknown-class": "99"}[fault]
    lines[1] = " ".join(first)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "fault, error, message",
    [
        ("missing", "FormatError", "cannot read: "),
        ("a-directory", "FormatError", "cannot read: "),
        ("not-utf-8", "FormatError", "not UTF-8 text: byte 0xff at offset 0"),
        ("ragged-row", "FormatError", "ragged row: expected 64 tokens, got 63"),
        ("bad-token", "FormatError", "non-integer cell token 'x'"),
        ("unknown-class", "UnknownClassError", "class id 99 missing from class map"),
    ],
    ids=["missing", "a-directory", "not-utf-8", "ragged-row", "bad-token", "unknown-class"],
)
@pytest.mark.parametrize("command", ["select-contexts", "verify"])
def test_unreadable_label_map_is_one_line_format_error(
    pipeline, tmp_path, capsys, command, fault, error, message
):
    # select-contexts reads the map through Corpus.grid, verify through load_label_grid;
    # both take the class map from the corpus's classes.json, which lacks class 99.
    _, _, registry_path = pipeline
    corpus = tmp_path / "corpus"
    synth_corpus(default_synthetic_config(n_images=4, seed=6), corpus)
    image = corpus / "images" / f"{Corpus.load(corpus).image_ids('train')[1]}.lgrid"
    text = image.read_text()
    image.unlink()
    if fault == "a-directory":
        image.mkdir()
    elif fault == "not-utf-8":
        image.write_bytes(b"\xff\xfe2 2\n0 0\n0 0\n")
    elif fault != "missing":
        image.write_text(_fault_text(text, fault))
    argv = {
        "select-contexts": ["select-contexts", str(corpus), "-o", str(tmp_path / "c.json")],
        "verify": [
            "verify", str(registry_path), str(image), "--classes", str(corpus / "classes.json"),
        ],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: {image}: {message}") and err.count("\n") == 1


def _leaf_paths(node, path=()):
    """The path of every scalar leaf of a parsed JSON document."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaf_paths(child, path + (key,))
    else:
        yield path


def _mutations(parent, key):
    """Each mutation that applies to the leaf `parent[key]`, by name: a
    function that applies it in place."""
    value = parent[key]

    def put(new):
        return lambda: parent.__setitem__(key, new)

    mutations = {
        "drop": lambda: parent.__delitem__(key),
        "string": put(value if isinstance(value, str) else json.dumps(value)),
        "true": put(True),
        "nan": put(math.nan),
        "inf": put(math.inf),
        "minus-one": put(-1),
        "empty-list": put([]),
        "zero": put(0),
    }
    if type(value) in (int, float):
        mutations["plus-half"] = put(value + 0.5)
    if isinstance(parent, list):
        mutations["duplicate"] = lambda: parent.insert(key, value)
    return mutations


# The lists of [a, b, counts] entries of a statistics document.
_COUNT_ENTRIES = (
    "presence_counts", "position_counts", "proximity_counts", "distance_counts", "size_obs"
)


@pytest.fixture(scope="module")
def mutable_registry(pipeline, tmp_path_factory):
    """The pipeline's registry text, the path of each leaf of its document,
    a val map of 3 objects, and a directory to write mutated copies in."""
    _, corpus_dir, registry_path = pipeline
    text = registry_path.read_text()
    corpus = Corpus.load(corpus_dir)
    grids = (corpus.grid(image_id) for image_id in corpus.image_ids("val"))
    grid = next(g for g in grids if len(extract_objects(g)) == 3)
    return text, list(_leaf_paths(json.loads(text))), grid, tmp_path_factory.mktemp("mutants")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_registry_with_one_leaf_mutated_is_refused_in_one_line_or_loads_whole(
    mutable_registry, data
):
    # Either load_model refuses the document in one line, or every detector
    # gives finite margins (or a one-line refusal) and saving what was loaded
    # gives the document's values back.
    text, leaves, grid, work = mutable_registry
    original, doc = json.loads(text), json.loads(text)
    *steps, key = data.draw(st.sampled_from(leaves))
    parent, holder = doc, None
    for step, index in zip(steps, [*steps[1:], key]):
        if step in _COUNT_ENTRIES:
            holder = parent[step], index  # the count entry that holds the leaf
        parent = parent[step]
    mutations = _mutations(parent, key)
    if holder is not None:
        entries, index = holder
        mutations["duplicate-entry"] = lambda: entries.insert(index, entries[index])
        # Count entries come in class order, and the observations of a
        # size_obs entry in pixel-count order: reverse those holding the leaf.
        trail = steps[steps.index("size_obs") + 1 :] if "size_obs" in steps else []
        mutations["reorder"] = (entries[index][2] if len(trail) == 3 else entries).reverse
    how = data.draw(st.sampled_from(sorted(mutations)))
    mutations[how]()
    mutant, saved = work / "mutant.json", work / "saved.json"
    mutant.write_text(json.dumps(doc))
    try:
        registry = load_model(mutant)
    except SceneCheckError as exc:
        assert "\n" not in str(exc)
        return
    for attributes in [None] + [{registry.context_attribute: v} for v in registry.models]:
        try:
            margins = [m for _, _, m in verify(grid, registry, attributes).pair_scores]
        except SceneCheckError as exc:
            assert "\n" not in str(exc)
        else:
            assert len(margins) == 6 and all(math.isfinite(m) for m in margins)
    save_model(saved, registry)
    # A dropped key that loads takes its default, which the pipeline trained with.
    resaved = json.loads(saved.read_text())
    assert resaved == doc or how == "drop" and resaved == original


class TestEvaluate:
    def test_report_fields_and_recount(self, pipeline, tmp_path, capsys):
        _, corpus_dir, registry_path = pipeline
        out = tmp_path / "report.json"
        code = main(
            [
                "evaluate", str(registry_path), str(corpus_dir),
                "--seed", "23", "-o", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["aggregation_mode"] == "majority"
        assert report["global"]["valid"] + report["global"]["invalid"] == (
            report["global"]["total"]
        )
        for metrics in report["contexts"].values():
            assert metrics["valid"] + metrics["invalid"] == metrics["total"]
        expected_improvement = (
            sum(c["accuracy"] for c in report["contexts"].values())
            / len(report["contexts"])
            - report["global"]["accuracy"]
        ) * 100.0
        assert report["improvement_pp"] == pytest.approx(expected_improvement, abs=1e-9)
        # accuracies must equal a recount from the verdict log
        log_rows = [
            json.loads(line)
            for line in (tmp_path / "report.verdicts.jsonl").read_text().splitlines()
        ]
        assert len(log_rows) == report["global"]["total"]
        recount = sum(1 for r in log_rows if r["global_correct"]) / len(log_rows)
        assert report["global"]["accuracy"] == pytest.approx(recount, abs=1e-12)
        for value, metrics in report["contexts"].items():
            rows = [r for r in log_rows if r["context"] == value]
            assert metrics["accuracy"] == pytest.approx(
                sum(1 for r in rows if r["correct"]) / len(rows), abs=1e-12
            )

    def test_rows_are_the_verdicts_of_the_maps_gen_contradictions_writes(self, pipeline, tmp_path):
        # Each val map is scored, and then the twin gen-contradictions
        # writes for it under the same seed, read back from its file.
        _, corpus_dir, registry_path = pipeline
        out, twins_dir = tmp_path / "report.json", tmp_path / "twins"
        argv = ["evaluate", str(registry_path), str(corpus_dir), "--seed", "5", "-o", str(out)]
        assert main(argv) == 0
        argv = ["gen-contradictions", str(corpus_dir), "--seed", "5"]
        assert main([*argv, "-o", str(twins_dir)]) == 0
        corpus, registry = Corpus.load(corpus_dir), load_model(registry_path)
        table = corpus.attributes()
        manifest = json.loads((twins_dir / "manifest.json").read_text())
        twins = {pair["image_id"]: twins_dir / pair["invalid"] for pair in manifest["pairs"]}
        log = (tmp_path / "report.verdicts.jsonl").read_text()
        rows = [json.loads(line) for line in log.splitlines()]
        assert [(r["image_id"], r["variant"]) for r in rows] == [
            (image_id, variant)
            for image_id in corpus.image_ids("val")
            for variant in ("valid", "contradiction")[: 1 + (image_id in twins)]
        ]
        assert len(twins) > 20  # over more than one batch of `grid_batches`
        for r in rows:
            image_id = r["image_id"]
            path = twins[image_id] if r["expected"] else corpus.grid_path(image_id)
            grid = load_label_grid(path, corpus.class_map)
            dispatched = verify(grid, registry, table.record(image_id))
            forced_global = verify(grid, registry, None)
            assert (r["model_used"], r["dispatched_contradiction"], r["dispatched_confidence"]) == (
                dispatched.model_used, dispatched.contradiction, dispatched.confidence
            )
            assert (r["global_contradiction"], r["global_confidence"]) == (
                forced_global.contradiction, forced_global.confidence
            )

    def test_objects_that_share_a_centroid_are_evaluated(self, pipeline, tmp_path):
        # The first val map becomes a 20 x 20 ring of class 1 around a
        # centred 6 x 6 square of class 2: a pair at distance 0.
        _, corpus_dir, registry_path = pipeline
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        copy = Corpus.load(corpus)
        first = copy.image_ids("val")[0]
        arr = np.zeros((48, 64), dtype=np.int32)
        arr[10:30, 20:40] = 1
        arr[17:23, 27:33] = 2
        copy.grid_path(first).write_text(grid_from_array(arr, copy.class_map).to_text())
        out = tmp_path / "report.json"
        argv = ["evaluate", str(registry_path), str(corpus), "--seed", "5", "-o", str(out)]
        assert main(argv) == 0
        rows = (tmp_path / "report.verdicts.jsonl").read_text().splitlines()
        assert [json.loads(r)["image_id"] for r in rows[:2]] == [first, first]

    def test_a_class_the_registry_never_saw_is_evaluated(self, pipeline, tmp_path):
        # The copy's classes.json adds class 14, which no train map holds,
        # and its first val map becomes a ground, a person and a class-14 box.
        _, corpus_dir, registry_path = pipeline
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        classes = json.loads((corpus / "classes.json").read_text())
        classes["classes"]["14"] = "kite"
        (corpus / "classes.json").write_text(json.dumps(classes))
        copy = Corpus.load(corpus)
        first = copy.image_ids("val")[0]
        arr = np.zeros((48, 64), dtype=np.int32)
        arr[40:48, :] = 6
        arr[22:40, 10:18] = 7
        arr[4:10, 40:50] = 14
        copy.grid_path(first).write_text(grid_from_array(arr, copy.class_map).to_text())
        assert len(verify(copy.grid(first), load_model(registry_path)).pair_scores) == 6
        out = tmp_path / "report.json"
        argv = ["evaluate", str(registry_path), str(corpus), "--seed", "5", "-o", str(out)]
        assert main(argv) == 0
        rows = (tmp_path / "report.verdicts.jsonl").read_text().splitlines()
        rows = [json.loads(r) for r in rows[:2]]
        assert [(r["image_id"], r["variant"]) for r in rows] == [
            (first, "valid"), (first, "contradiction")
        ]

    def test_context_free_registry_reports_no_contexts(self, pipeline, tmp_path):
        root, corpus_dir, registry_path = pipeline
        plain_registry = tmp_path / "registry_none.json"
        assert (
            main(
                [
                    "train", str(corpus_dir),
                    "--context", "none",
                    "--seed", "17",
                    "-o", str(plain_registry),
                ]
            )
            == 0
        )
        out_none = tmp_path / "report_none.json"
        out_ctx = tmp_path / "report_ctx.json"
        main(["evaluate", str(plain_registry), str(corpus_dir), "--seed", "23", "-o", str(out_none)])
        main(["evaluate", str(registry_path), str(corpus_dir), "--seed", "23", "-o", str(out_ctx)])
        plain = json.loads(out_none.read_text())
        contextual = json.loads(out_ctx.read_text())
        assert plain["contexts"] == {}
        assert plain["improvement_pp"] is None
        # The global detector is trained identically either way, so the
        # two reports compare on the same baseline.
        assert plain["global"]["accuracy"] == contextual["global"]["accuracy"]
        assert contextual["per_context_average_accuracy"] is not None

    def test_reports_are_deterministic(self, pipeline, tmp_path):
        _, corpus_dir, registry_path = pipeline
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"report_{run}.json"
            main(
                [
                    "evaluate", str(registry_path), str(corpus_dir),
                    "--seed", "5", "-o", str(out),
                ]
            )
            outs.append(out.read_bytes())
            outs.append((tmp_path / f"report_{run}.verdicts.jsonl").read_bytes())
        assert outs[0] == outs[2]
        assert outs[1] == outs[3]


    def test_evaluation_reads_no_per_pair_tuples(self, pipeline, tmp_path, monkeypatch):
        # Verdicts keep their pair margins as arrays; building the
        # `pair_scores` tuples is left to readers that ask for them.
        _, corpus_dir, registry_path = pipeline
        outputs = []
        for run in ("tuples-allowed", "tuples-refused"):
            if run == "tuples-refused":

                def refuse(verdict):
                    raise AssertionError("evaluate read Verdict.pair_scores")

                monkeypatch.setattr(Verdict, "pair_scores", property(refuse))
            out = tmp_path / run / "report.json"
            argv = ["evaluate", str(registry_path), str(corpus_dir), "--seed", "5", "-o", str(out)]
            assert main(argv) == 0
            outputs.append((out.read_bytes(), (out.parent / "report.verdicts.jsonl").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_input_paths_are_relative_to_the_report(self, pipeline, tmp_path, monkeypatch):
        _, corpus_dir, registry_path = pipeline
        monkeypatch.chdir(tmp_path)
        spellings = {
            "relative": (os.path.relpath(registry_path), os.path.relpath(corpus_dir)),
            "absolute": (str(registry_path.resolve()), str(corpus_dir.resolve())),
        }
        texts = {}
        for name, (registry, corpus) in spellings.items():
            out = tmp_path / "reports" / name / "report.json"
            argv = ["evaluate", registry, corpus, "--seed", "5", "-o", str(out)]
            assert main(argv) == 0
            config = json.loads(out.read_text())["config"]
            assert not os.path.isabs(config["registry"])
            assert (out.parent / config["registry"]).resolve() == registry_path.resolve()
            assert (out.parent / config["corpus"]).resolve() == corpus_dir.resolve()
            texts[name] = out.read_bytes()
        assert texts["relative"] == texts["absolute"]


class TestPipelineDeterminism:
    def test_synth_twice_identical_and_idempotent(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(default_synthetic_config(n_images=12).to_dict())
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", str(config_path), str(a), "--seed", "2"]) == 0
        assert main(["synth", str(config_path), str(b), "--seed", "2"]) == 0
        for fa in sorted(a.rglob("*.*")):
            fb = b / fa.relative_to(a)
            assert fa.read_bytes() == fb.read_bytes()


REMOVED_TUNING_OPTIONS = [
    *(
        ("train", option, value)
        for option, value in [
            ("--lr", "0.01"), ("--epochs", "50"), ("--l2", "0.001"), ("--alpha", "1.0"),
            ("--min-area", "25"), ("--n-min", "30"), ("--contradictions-per-image", "4"),
        ]
    ),
    ("select-contexts", "--min-coverage", "0.95"),
    ("select-contexts", "--min-balance", "0.1"),
    ("select-contexts", "--min-area", "25"),
    ("gen-contradictions", "--min-area", "25"),
    ("gen-contradictions", "--split", "val"),
]


@pytest.mark.parametrize(
    "command, option, value",
    REMOVED_TUNING_OPTIONS,
    ids=[f"{command}{option}" for command, option, _ in REMOVED_TUNING_OPTIONS],
)
def test_removed_tuning_options_are_usage_errors(
    pipeline, tmp_path, capsys, command, option, value
):
    # Every tuning value is a library constant: even its own value is refused.
    _, corpus_dir, _ = pipeline
    out = tmp_path / "out"
    seed = ["--seed", "1"] if command in ("train", "gen-contradictions") else []
    with pytest.raises(SystemExit) as exc:
        main([command, str(corpus_dir), *seed, "-o", str(out), option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: scenecheck") and "Traceback" not in err
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert errors == [f"scenecheck: error: unrecognized arguments: {option} {value}"]
    assert not out.exists()
