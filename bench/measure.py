"""Pure helpers for the benchmark: percentiles, accuracies and digests."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path

MIN_TAIL_SAMPLES = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def min_samples_for(p: float) -> int:
    """Fewest samples for which the p-th percentile has MIN_TAIL_SAMPLES beyond it."""
    n = 1
    while samples_beyond(n, p) < MIN_TAIL_SAMPLES:
        n += 1
    return n


def unit_medians(samples_per_unit) -> list[float]:
    """Each unit's median over the passes; units with no samples are left out."""
    return [statistics.median(samples) for samples in samples_per_unit if samples]


def balanced_accuracy(rows) -> float:
    """Mean over contexts of (TPR + TNR) / 2.

    `rows` are (context, expected_contradiction, predicted_contradiction).
    A context with only one expected class scores the recall of that
    class, so a constant predictor still scores at most 0.5 on average
    over two-class contexts.
    """
    by_context: dict = {}
    for context, expected, predicted in rows:
        tally = by_context.setdefault(context, {True: [0, 0], False: [0, 0]})
        tally[bool(expected)][0] += bool(predicted) == bool(expected)
        tally[bool(expected)][1] += 1
    scores = []
    for tally in by_context.values():
        recalls = [hit / n for hit, n in tally.values() if n]
        scores.append(sum(recalls) / len(recalls))
    return sum(scores) / len(scores)


def context_accuracy(rows) -> float:
    """Mean over contexts of plain accuracy, as `evaluate` averages it."""
    by_context: dict = {}
    for context, expected, predicted in rows:
        hit_n = by_context.setdefault(context, [0, 0])
        hit_n[0] += bool(predicted) == bool(expected)
        hit_n[1] += 1
    return sum(h / n for h, n in by_context.values()) / len(by_context)


def code_key() -> str:
    """Digest of the program's and the benchmark's Python sources, read from the checkout root."""
    h = hashlib.sha256()
    bench = Path(__file__).resolve().parent
    for path in sorted(list(Path("src").rglob("*.py")) + list(bench.glob("*.py"))):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def tree_digest(root: Path) -> str:
    """One digest over every file under root: relative path and bytes, in path order."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix().encode()
        data = path.read_bytes()
        h.update(len(rel).to_bytes(8, "little") + rel)
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def report_digest(report_text: str) -> str:
    """Digest of an evaluation report with its run-dependent `wall_time_s` removed."""
    doc = json.loads(report_text)
    doc.pop("wall_time_s", None)
    return sha256_bytes(json.dumps(doc, sort_keys=True).encode())


def verdict_stream_digest(verdicts) -> str:
    """Digest of a sequence of verdict dicts, one canonical JSON line each."""
    h = hashlib.sha256()
    for v in verdicts:
        h.update(json.dumps(v, sort_keys=True).encode() + b"\n")
    return h.hexdigest()
