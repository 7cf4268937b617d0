"""Command-line front end.

One binary, subcommand style; every randomized command requires an
explicit --seed so runs are reproducible.  Reports are JSON documents
(tests and tooling assert on fields); evaluate additionally prints a
human-readable table of the same data.

Exit codes: 0 success, 1 validation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

from . import corpus as corpus_mod
from .context import (
    MIN_BALANCE_DEFAULT,
    MIN_COVERAGE_DEFAULT,
    PLACEHOLDER,
    partition_corpus,
    score_attributes,
)
from .corpus import (
    EVAL_TAG,
    Corpus,
    SyntheticConfig,
    generate_contradiction,
    load_model,
    read_attributes,
    save_model,
    synth_corpus,
)
from .errors import SceneCheckError
from .labelgrid import DEFAULT_MIN_AREA, extract_objects, load_label_grid
from .seeds import derive_seed
from .stats import ALPHA_DEFAULT
from .verifier import (
    AGGREGATION_MODES,
    CONTRADICTIONS_PER_IMAGE,
    GLOBAL_LABEL,
    N_MIN_CONTEXT,
    Hyperparams,
    VerifierRegistry,
    build_stats,
    derive_contradiction,
    prepare,
    train_registry,
    verify,
)


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=1))


def _context_arg(value: str) -> str | None:
    return None if value == "none" else value


def _positive(cast):
    """argparse type: `cast(value)`, which must be > 0 (a usage error otherwise)."""

    def parse(value: str):
        try:
            number = cast(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {value!r}") from None
        if not number > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
        return number

    return parse


def cmd_synth(args) -> int:
    doc = corpus_mod._read_json(Path(args.config))
    config = SyntheticConfig.from_dict(doc)
    config = dataclasses.replace(config, seed=args.seed)
    corpus, _ = synth_corpus(config, args.out)
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


def cmd_build_stats(args) -> int:
    corpus = Corpus.load(args.corpus)
    train_ids = corpus.image_ids("train")
    scenes = {i: prepare(corpus.grid(i), args.min_area) for i in train_ids}
    out = Path(args.out)
    save_model(out, build_stats(scenes.values(), corpus.class_map, args.alpha))
    written = [str(out)]
    context = _context_arg(args.context)
    if context is not None:
        groups = partition_corpus(train_ids, corpus.attributes(), context)
        for value in sorted(groups):
            if value == PLACEHOLDER:
                continue
            path = out.parent / f"{out.stem}.{value}{out.suffix}"
            ids = sorted(groups[value])
            save_model(path, build_stats([scenes[i] for i in ids], corpus.class_map, args.alpha))
            written.append(str(path))
    _print_json({"command": "build-stats", "written": written})
    return 0


def cmd_select_contexts(args) -> int:
    corpus = Corpus.load(args.corpus)
    table = corpus.attributes()
    labels: dict[str, Counter] = {}
    for image_id in corpus.image_ids("train"):
        grid = corpus.grid(image_id)
        labels[image_id] = Counter(
            o.class_id for o in extract_objects(grid, args.min_area)
        )
    report = score_attributes(
        table, labels, min_coverage=args.min_coverage, min_balance=args.min_balance
    )
    doc = report.to_dict()
    corpus_mod._write_json(args.out, doc)
    _print_json(doc)
    return 0


def cmd_gen_contradictions(args) -> int:
    corpus = Corpus.load(args.corpus)
    out = Path(args.out)
    (out / "contradictions").mkdir(parents=True, exist_ok=True)
    pairs = []
    skipped = []
    for idx, image_id in enumerate(corpus.image_ids(args.split)):
        grid = corpus.grid(image_id)
        try:
            modified, removed = generate_contradiction(
                grid, derive_seed(args.seed, EVAL_TAG, idx), min_area=args.min_area
            )
        except SceneCheckError:
            skipped.append(image_id)
            continue
        invalid_path = out / "contradictions" / f"{image_id}.lgrid"
        invalid_path.write_text(modified.to_text())
        pairs.append(
            {
                "image_id": image_id,
                "valid": os.path.relpath(corpus.grid_path(image_id), out),
                "invalid": os.path.relpath(invalid_path, out),
                "removed_class": removed,
            }
        )
    manifest = {
        "schema_version": 1,
        "seed": args.seed,
        "split": args.split,
        "pairs": pairs,
        "skipped": skipped,
    }
    corpus_mod._write_json(out / "manifest.json", manifest)
    _print_json({"command": "gen-contradictions", "pairs": len(pairs), "skipped": len(skipped)})
    return 0


def cmd_train(args) -> int:
    corpus = Corpus.load(args.corpus)
    context = _context_arg(args.context)
    table = corpus.attributes() if context is not None else None
    registry = train_registry(
        corpus,
        table,
        context,
        Hyperparams(learning_rate=args.lr, epochs=args.epochs, l2_lambda=args.l2),
        seed=args.seed,
        contradictions_per_image=args.contradictions_per_image,
        min_area=args.min_area,
        n_min=args.n_min,
        aggregation_mode=args.aggregation,
        alpha=args.alpha,
    )
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
    if not isinstance(registry, VerifierRegistry):
        raise SceneCheckError(f"{args.registry} does not hold a verifier registry")
    if args.classes:
        classes_doc = corpus_mod._read_json(Path(args.classes))
        with corpus_mod._malformed(args.classes):
            class_map = {int(k): str(v) for k, v in classes_doc["classes"].items()}
    else:
        class_map = {c: str(c) for c in registry.global_detector.stats.classes}
    grid = load_label_grid(args.image, class_map)
    attributes = None
    if args.attributes:
        attributes = read_attributes(args.attributes).record(grid.image_id)
    verdict = verify(grid, registry, attributes)
    _print_json(verdict.to_dict())
    return 0


def _accuracy(rows) -> float:
    return sum(1 for r in rows if r["correct"]) / len(rows) if rows else 0.0


def cmd_evaluate(args) -> int:
    started = time.monotonic()
    registry = load_model(args.registry)
    if not isinstance(registry, VerifierRegistry):
        raise SceneCheckError(f"{args.registry} does not hold a verifier registry")
    corpus = Corpus.load(args.corpus)
    table = corpus.attributes()
    context_attribute = registry.context_attribute

    log_rows = []
    for idx, image_id in enumerate(corpus.image_ids("val")):
        grid = corpus.grid(image_id)
        record = table.record(image_id)
        context = record.get(context_attribute, PLACEHOLDER) if context_attribute else None
        scene = prepare(grid, registry.min_area)
        variants = [(scene, False)]
        if len(scene.objects) >= 2:
            twin, _ = derive_contradiction(scene, derive_seed(args.seed, EVAL_TAG, idx))
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

    n_valid = sum(1 for r in log_rows if not r["expected"])
    n_invalid = len(log_rows) - n_valid
    global_accuracy = (
        sum(1 for r in log_rows if r["global_correct"]) / len(log_rows) if log_rows else 0.0
    )
    contexts = {}
    if context_attribute:
        for value in sorted({r["context"] for r in log_rows}):
            rows = [r for r in log_rows if r["context"] == value]
            contexts[value] = {
                "accuracy": _accuracy(rows),
                "valid": sum(1 for r in rows if not r["expected"]),
                "invalid": sum(1 for r in rows if r["expected"]),
                "total": len(rows),
            }
    per_context_avg = (
        sum(c["accuracy"] for c in contexts.values()) / len(contexts) if contexts else None
    )
    improvement = (
        (per_context_avg - global_accuracy) * 100.0 if per_context_avg is not None else None
    )

    # Input paths relative to the report's directory, so the report's
    # bytes do not depend on how the inputs were named.
    out = Path(args.out)
    report = {
        "schema_version": 1,
        "command": "evaluate",
        "config": {
            "registry": os.path.relpath(args.registry, out.parent),
            "corpus": os.path.relpath(args.corpus, out.parent),
            "context_attribute": context_attribute,
            "aggregation_mode": registry.aggregation_mode,
        },
        "seed": args.seed,
        "wall_time_s": round(time.monotonic() - started, 3),
        "global": {
            "accuracy": global_accuracy,
            "valid": n_valid,
            "invalid": n_invalid,
            "total": len(log_rows),
        },
        "contexts": contexts,
        "per_context_average_accuracy": per_context_avg,
        "improvement_pp": improvement,
    }
    corpus_mod._write_json(out, report)
    log_path = out.parent / (out.stem + ".verdicts.jsonl")
    with log_path.open("w") as fh:
        for row in log_rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")

    print(f"{'context':<12}{'valid':>8}{'invalid':>9}{'total':>8}{'accuracy':>10}")
    for value, c in contexts.items():
        print(f"{value:<12}{c['valid']:>8}{c['invalid']:>9}{c['total']:>8}{c['accuracy']:>9.2%}")
    print(f"{'global':<12}{n_valid:>8}{n_invalid:>9}{len(log_rows):>8}{global_accuracy:>9.2%}")
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
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-stats", help="Build co-occurrence statistics from the train split")
    p.add_argument("corpus")
    p.add_argument("--context", default="none", help="Context attribute name, or 'none'")
    p.add_argument("--alpha", type=_positive(float), default=ALPHA_DEFAULT)
    p.add_argument("--min-area", type=_positive(int), default=DEFAULT_MIN_AREA)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_build_stats)

    p = sub.add_parser("select-contexts", help="Rank candidate context attributes")
    p.add_argument("corpus")
    p.add_argument("--min-coverage", type=float, default=MIN_COVERAGE_DEFAULT)
    p.add_argument("--min-balance", type=float, default=MIN_BALANCE_DEFAULT)
    p.add_argument("--min-area", type=_positive(int), default=DEFAULT_MIN_AREA)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_select_contexts)

    p = sub.add_parser("gen-contradictions", help="Write paired valid/invalid examples")
    p.add_argument("corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--split", default="val", choices=["train", "val"])
    p.add_argument("--min-area", type=_positive(int), default=DEFAULT_MIN_AREA)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_gen_contradictions)

    p = sub.add_parser("train", help="Train the verifier registry")
    p.add_argument("corpus")
    p.add_argument("--context", default="none", help="Context attribute name, or 'none'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lr", type=_positive(float), default=Hyperparams.learning_rate)
    p.add_argument("--epochs", type=_positive(int), default=Hyperparams.epochs)
    p.add_argument("--l2", type=_positive(float), default=Hyperparams.l2_lambda)
    p.add_argument("--alpha", type=_positive(float), default=ALPHA_DEFAULT)
    p.add_argument("--min-area", type=_positive(int), default=DEFAULT_MIN_AREA)
    p.add_argument("--n-min", type=_positive(int), default=N_MIN_CONTEXT)
    p.add_argument(
        "--contradictions-per-image", type=_positive(int), default=CONTRADICTIONS_PER_IMAGE
    )
    p.add_argument("--aggregation", default="majority", choices=AGGREGATION_MODES)
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
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SceneCheckError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
