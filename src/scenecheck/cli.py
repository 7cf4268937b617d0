"""Command-line front end.

One binary, subcommand style; every randomized command requires an
explicit --seed, an integer in [0, 2**32), so runs are reproducible.
Reports are JSON documents (tests and tooling assert on fields);
evaluate additionally prints a human-readable table of the same data.

An experiment chooses only `--context`: every tuning value is a library
constant (README lists them), so every command counts the objects that
the registry verifies.

Each val map's removal twin has one rule, `_twin`, so `evaluate` scores
the twins that `gen-contradictions` writes.  A command refuses an empty
split it reads before it labels anything: `Corpus.split_ids`.

Exit codes: 0 success, 1 validation error or an output that cannot be
written, 2 usage error.  Either error of exit 1 is one `error:` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter
from pathlib import Path

from . import corpus as corpus_mod
from .context import score_attributes
from .corpus import (
    EVAL_TAG,
    Corpus,
    SyntheticConfig,
    load_model,
    paint_removal,
    read_attributes,
    read_classes,
    save_model,
    synth_corpus,
)
from .errors import PlacementError, SceneCheckError
# `extract_objects` stays bound here, though no command calls it by this
# name: the benchmark's tracer wraps it at every scenecheck binding, and
# its test expects this one.
from .labelgrid import extract_objects, grid_batches, label_maps, load_label_grid  # noqa: F401
from .seeds import derive_seed
from .verifier import AGGREGATION_MODE, GLOBAL_LABEL, prepare_all, train_registry, verify


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=1))


def _context_arg(value: str) -> str | None:
    return None if value == "none" else value


def _seed_arg(text: str) -> int:
    """A --seed value: an integer in [0, 2**32), a part `derive_seed` takes."""
    try:
        seed = int(text)
        derive_seed(seed)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**32), got {text!r}") from None
    return seed


def cmd_synth(args) -> int:
    doc = corpus_mod._read_document(args.config, "synthetic config")
    config = SyntheticConfig.from_dict(doc, args.config)
    config = dataclasses.replace(config, seed=args.seed)
    try:
        corpus = synth_corpus(config, args.out)
    except PlacementError as exc:  # the config asks for what its grid cannot hold
        raise PlacementError(f"{args.config}: {exc}") from None
    _print_json(
        {
            "command": "synth",
            "out": str(args.out),
            "seed": args.seed,
            "images": {
                "train": len(corpus.image_ids("train")),
                "val": len(corpus.image_ids("val")),
            },
        }
    )
    return 0


def _labelled(corpus: Corpus, split: str):
    """(grid, objects) of each map of `split`, read lazily and labelled with
    DEFAULT_MIN_AREA in one `label_maps` pass per batch of `grid_batches`.
    An empty split is refused before the first map is read."""
    for batch in grid_batches(map(corpus.grid, corpus.split_ids(split))):
        yield from zip(batch, label_maps(batch))


def _twin(grid, objects, seed: int, index: int):
    """The removal twin of the `index`-th val map under `seed`, and the class
    it removes; `objects`, the map's table, holds two objects or more."""
    return paint_removal(grid, objects, derive_seed(seed, EVAL_TAG, index))


def cmd_select_contexts(args) -> int:
    corpus = Corpus.load(args.corpus)
    table = corpus.attributes()
    labels = {
        grid.image_id: Counter(objects.class_id.tolist())
        for grid, objects in _labelled(corpus, "train")
    }
    doc = corpus_mod._versioned(score_attributes(table, labels))
    corpus_mod._write_json(args.out, doc)
    _print_json(doc)
    return 0


def cmd_gen_contradictions(args) -> int:
    # Every twin is painted before anything is written, so a refused map
    # leaves no output.
    corpus = Corpus.load(args.corpus)
    twins, skipped = [], []
    for idx, (grid, objects) in enumerate(_labelled(corpus, "val")):
        if len(objects) < 2:
            skipped.append(grid.image_id)
        else:
            twins.append(_twin(grid, objects, args.seed, idx))
    out = Path(args.out)
    (out / "contradictions").mkdir(parents=True, exist_ok=True)
    pairs = []
    for twin, removed in twins:
        image_id = twin.image_id
        invalid_path = out / "contradictions" / f"{image_id}.lgrid"
        invalid_path.write_text(twin.to_text())
        pairs.append(
            {
                "image_id": image_id,
                "valid": os.path.relpath(corpus.grid_path(image_id), out),
                "invalid": os.path.relpath(invalid_path, out),
                "removed_class": removed,
            }
        )
    manifest = {"seed": args.seed, "split": "val", "pairs": pairs, "skipped": skipped}
    corpus_mod._write_json(out / "manifest.json", corpus_mod._versioned(manifest))
    _print_json({"command": "gen-contradictions", "pairs": len(pairs), "skipped": len(skipped)})
    return 0


def cmd_train(args) -> int:
    corpus = Corpus.load(args.corpus)
    context = _context_arg(args.context)
    registry = train_registry(corpus, context, seed=args.seed)
    save_model(args.out, registry)
    scopes = {GLOBAL_LABEL: registry.global_detector, **registry.models}
    _print_json(
        {
            "command": "train",
            "out": str(args.out),
            "context_attribute": context,
            "contexts": sorted(registry.models),
            "scopes": {
                label: {"n_pos": d.model.n_pos, "n_neg": d.model.n_neg}
                for label, d in scopes.items()
            },
            "seed": args.seed,
        }
    )
    return 0


def cmd_verify(args) -> int:
    registry = load_model(args.registry)
    if args.classes:
        class_map = read_classes(args.classes)
    else:
        class_map = {c: str(c) for c in registry.global_detector.stats.classes}
    grid = load_label_grid(args.image, class_map)
    attributes = None
    if args.attributes:
        table = read_attributes(args.attributes)
        if registry.context_attribute:  # a schema without it is refused
            table.value(grid.image_id, registry.context_attribute)
        attributes = table.record(grid.image_id)
    verdict = verify(grid, registry, attributes)
    _print_json(verdict.to_dict())
    return 0


def _tally(rows, correct_key: str) -> dict:
    """Accuracy by `correct_key`, valid, invalid and total counts of a non-empty
    list of verdict log rows."""
    n_valid = sum(1 for r in rows if not r["expected"])
    return {
        "accuracy": sum(1 for r in rows if r[correct_key]) / len(rows),
        "valid": n_valid,
        "invalid": len(rows) - n_valid,
        "total": len(rows),
    }


def _scenes_and_twins(grids, seed: int):
    """(scene, twin) of each of `grids`: its Scene and the Scene of its
    `_twin` under `seed`, None below two objects.
    Each batch's twins are painted from its scenes' objects and prepared in
    one `prepare_all` call."""
    idx = 0
    for batch in grid_batches(grids):
        scenes = list(prepare_all(batch))
        paired = [i for i, scene in enumerate(scenes) if len(scene.objects) >= 2]
        painted = [_twin(batch[i], scenes[i].objects, seed, idx + i)[0] for i in paired]
        twins = dict(zip(paired, prepare_all(painted)))
        idx += len(batch)
        for i, scene in enumerate(scenes):
            yield scene, twins.get(i)


def cmd_evaluate(args) -> int:
    registry = load_model(args.registry)
    corpus = Corpus.load(args.corpus)
    table = corpus.attributes()
    context_attribute = registry.context_attribute

    val_ids = corpus.split_ids("val")
    values = [table.value(i, context_attribute) if context_attribute else None for i in val_ids]
    log_rows = []
    scenes = _scenes_and_twins(map(corpus.grid, val_ids), args.seed)
    for image_id, context, (scene, twin) in zip(val_ids, values, scenes):
        record = table.record(image_id)
        variants = [(scene, False)]
        if twin is not None:
            variants.append((twin, True))
        for variant, expected in variants:
            dispatched = verify(variant, registry, record)
            forced_global = verify(variant, registry, None)
            log_rows.append(
                {
                    "image_id": image_id,
                    "variant": "contradiction" if expected else "valid",
                    "context": context,
                    "expected": expected,
                    "model_used": dispatched.model_used,
                    "dispatched_contradiction": dispatched.contradiction,
                    "dispatched_confidence": dispatched.confidence,
                    "global_contradiction": forced_global.contradiction,
                    "global_confidence": forced_global.confidence,
                    "correct": dispatched.contradiction == expected,
                    "global_correct": forced_global.contradiction == expected,
                }
            )

    overall = _tally(log_rows, "global_correct")
    contexts = {}
    if context_attribute:
        for value in sorted({r["context"] for r in log_rows}):
            contexts[value] = _tally([r for r in log_rows if r["context"] == value], "correct")
    per_context_avg = improvement = None
    if contexts:
        per_context_avg = sum(c["accuracy"] for c in contexts.values()) / len(contexts)
        improvement = (per_context_avg - overall["accuracy"]) * 100.0

    # Input paths relative to the report's directory, so the report's
    # bytes do not depend on how the inputs were named.
    out = Path(args.out)
    report = {
        "command": "evaluate",
        "config": {
            "registry": os.path.relpath(args.registry, out.parent),
            "corpus": os.path.relpath(args.corpus, out.parent),
            "context_attribute": context_attribute,
            "aggregation_mode": AGGREGATION_MODE,
        },
        "seed": args.seed,
        "global": overall,
        "contexts": contexts,
        "per_context_average_accuracy": per_context_avg,
        "improvement_pp": improvement,
    }
    corpus_mod._write_json(out, corpus_mod._versioned(report))
    log_path = out.parent / (out.stem + ".verdicts.jsonl")
    with log_path.open("w") as fh:
        for row in log_rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")

    print(f"{'context':<12}{'valid':>8}{'invalid':>9}{'total':>8}{'accuracy':>10}")
    for value, c in [*contexts.items(), (GLOBAL_LABEL, overall)]:
        print(f"{value:<12}{c['valid']:>8}{c['invalid']:>9}{c['total']:>8}{c['accuracy']:>9.2%}")
    if improvement is not None:
        print(f"per-context average {per_context_avg:.2%}, improvement {improvement:+.2f} pp")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenecheck",
        description="Verify segmentation label maps with relational co-occurrence statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="Generate a synthetic corpus from a config file")
    p.add_argument("config", help="SyntheticConfig JSON document")
    p.add_argument("out", help="Corpus output directory")
    p.add_argument("--seed", type=_seed_arg, required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("select-contexts", help="Rank candidate context attributes")
    p.add_argument("corpus")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_select_contexts)

    p = sub.add_parser("gen-contradictions", help="Write paired valid/invalid examples")
    p.add_argument("corpus")
    p.add_argument("--seed", type=_seed_arg, required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_gen_contradictions)

    p = sub.add_parser("train", help="Train the verifier registry")
    p.add_argument("corpus")
    p.add_argument("--context", default="none", help="Context attribute name, or 'none'")
    p.add_argument("--seed", type=_seed_arg, required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="Verify one label grid and print the verdict")
    p.add_argument("registry")
    p.add_argument("image", help=".lgrid file")
    p.add_argument("--attributes", default=None, help="Annotation JSON for context dispatch")
    p.add_argument("--classes", default=None, help="classes.json for id -> name mapping")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("evaluate", help="Evaluate a registry on the val split")
    p.add_argument("registry")
    p.add_argument("corpus")
    p.add_argument("--seed", type=_seed_arg, required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SceneCheckError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
