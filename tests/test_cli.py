"""End-to-end command-line pipeline."""

import dataclasses
import json
import os

import numpy as np
import pytest

from scenecheck import default_synthetic_config, grid_from_array, load_model, synth_corpus
from scenecheck.cli import build_parser, main
from scenecheck.context import MIN_BALANCE_DEFAULT, MIN_COVERAGE_DEFAULT
from scenecheck.verifier import N_MIN_CONTEXT, Hyperparams


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

    def test_missing_seed_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "conf.json", str(tmp_path / "c")])
        assert exc.value.code == 2


class TestSelectContexts:
    def test_report_ranks_generating_attribute_first(self, pipeline):
        root, _, _ = pipeline
        report = json.loads((root / "contexts.json").read_text())
        assert report["ranking"][0] == "location"
        assert report["selected"] == "location"
        assert set(report["attributes"]) == {
            "location", "instances", "lighting", "coverage",
        }


class TestBuildStats:
    def test_writes_global_and_per_context_files(self, pipeline, tmp_path):
        _, corpus_dir, _ = pipeline
        out = tmp_path / "stats.json"
        code = main(
            ["build-stats", str(corpus_dir), "--context", "location", "-o", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert (tmp_path / "stats.inside.json").exists()
        assert (tmp_path / "stats.outside.json").exists()
        doc = json.loads(out.read_text())
        assert doc["kind"] == "cooccurrence_model"

    def test_statistics_equal_the_trained_registry(self, pipeline, tmp_path):
        _, corpus_dir, registry_path = pipeline
        out = tmp_path / "stats.json"
        assert main(["build-stats", str(corpus_dir), "--context", "location", "-o", str(out)]) == 0
        registry = load_model(registry_path)
        assert load_model(out) == registry.global_detector.stats
        for value in ("inside", "outside"):
            assert load_model(tmp_path / f"stats.{value}.json") == registry.models[value].stats


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


@pytest.mark.parametrize("command", ["build-stats", "select-contexts", "train", "evaluate"])
def test_output_into_a_missing_directory_is_created(pipeline, tmp_path, command):
    _, corpus_dir, registry_path = pipeline
    out = tmp_path / "missing" / "sub" / "x.json"
    argv = {
        "build-stats": ["build-stats", str(corpus_dir)],
        "select-contexts": ["select-contexts", str(corpus_dir)],
        "train": ["train", str(corpus_dir), "--seed", "1", "--epochs", "1"],
        "evaluate": ["evaluate", str(registry_path), str(corpus_dir), "--seed", "1"],
    }[command]
    assert main(argv + ["-o", str(out)]) == 0
    assert json.loads(out.read_text())


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

    @pytest.mark.parametrize(
        "flag, doc", [("--classes", {"schema_version": 1}), ("--attributes", {"schema": {}})]
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
            doc = json.loads(out.read_text())
            doc.pop("wall_time_s")  # the one timing field differs run to run
            outs.append(json.dumps(doc, sort_keys=True))
            outs.append((tmp_path / f"report_{run}.verdicts.jsonl").read_bytes())
        assert outs[0] == outs[2]
        assert outs[1] == outs[3]


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
            # Everything but the one timing line must match byte for byte.
            texts[name] = [
                line for line in out.read_text().splitlines() if '"wall_time_s"' not in line
            ]
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


class TestNumericOptions:
    def test_parsed_defaults_equal_the_library_defaults(self):
        parser = build_parser()
        train = parser.parse_args(["train", "c", "--seed", "1", "-o", "r.json"])
        hp = Hyperparams()
        assert (train.lr, train.epochs, train.l2, train.n_min) == (
            hp.learning_rate, hp.epochs, hp.l2_lambda, N_MIN_CONTEXT
        )
        select = parser.parse_args(["select-contexts", "c", "-o", "x.json"])
        assert (select.min_coverage, select.min_balance) == (
            MIN_COVERAGE_DEFAULT, MIN_BALANCE_DEFAULT
        )

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["select-contexts", "{corpus}", "-o", "{out}", "--min-area", "0"], "--min-area"),
            (["train", "{corpus}", "--seed", "1", "-o", "{out}", "--min-area", "0"], "--min-area"),
            (["build-stats", "{corpus}", "-o", "{out}", "--min-area", "0"], "--min-area"),
            (
                ["gen-contradictions", "{corpus}", "--seed", "1", "-o", "{out}", "--min-area", "0"],
                "--min-area",
            ),
            (["train", "{corpus}", "--seed", "1", "-o", "{out}", "--epochs", "0"], "--epochs"),
            (["train", "{corpus}", "--seed", "1", "-o", "{out}", "--alpha", "0"], "--alpha"),
            (["build-stats", "{corpus}", "-o", "{out}", "--alpha", "0"], "--alpha"),
            (["train", "{corpus}", "--seed", "1", "-o", "{out}", "--lr", "0"], "--lr"),
            (["train", "{corpus}", "--seed", "1", "-o", "{out}", "--l2", "0"], "--l2"),
            (["train", "{corpus}", "--seed", "1", "-o", "{out}", "--n-min", "0"], "--n-min"),
            (
                [
                    "train", "{corpus}", "--seed", "1", "-o", "{out}",
                    "--contradictions-per-image", "0",
                ],
                "--contradictions-per-image",
            ),
        ],
    )
    def test_value_below_the_minimum_is_usage_error(
        self, pipeline, tmp_path, capsys, argv, option
    ):
        _, corpus_dir, _ = pipeline
        out = tmp_path / "out"
        argv = [a.format(corpus=corpus_dir, out=out) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: scenecheck")
        assert "Traceback" not in err
        errors = [ln for ln in err.splitlines() if "error:" in ln]
        assert errors == [f"scenecheck {argv[0]}: error: argument {option}: must be > 0, got 0"]
        assert not out.exists()
