"""Per-image attribute annotations and context-attribute selection.

Attributes are global image properties (location, lighting, ...) with a
small closed value set per attribute; missing values are stored as the
placeholder token, and `corpus.read_attributes` reads them.  Candidate
context attributes are scored by the mutual information between
object-class occurrences and attribute values, plus coverage and balance
criteria, to pick the attribute that best partitions a corpus into
specialized verification contexts.

Everything is read-only after load; scoring functions are pure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyCorpusError, SchemaError

PLACEHOLDER = "∅"

MIN_COVERAGE_DEFAULT = 0.95
MIN_BALANCE_DEFAULT = 0.10

# The four binary attributes shipped as the default schema.
DEFAULT_SCHEMA: dict[str, list[str]] = {
    "location": ["inside", "outside"],
    "instances": ["single", "multiple"],
    "lighting": ["soft", "hard"],
    "coverage": ["full", "partial"],
}


@dataclass(frozen=True)
class AttributeTable:
    """Per-image attribute records over a fixed schema, as `corpus.read_attributes`
    reads them from the file at `path`."""

    schema: dict[str, list[str]]
    records: dict[str, dict[str, str]]
    path: str | Path

    def value(self, image_id: str, attribute: str) -> str:
        """Attribute value for an image; unknown images read as placeholders.
        An attribute the schema lacks is a SchemaError naming `path`."""
        if attribute not in self.schema:
            raise SchemaError(f"{self.path}: unknown attribute {attribute!r}")
        return self.records.get(image_id, {}).get(attribute, PLACEHOLDER)

    def record(self, image_id: str) -> dict[str, str]:
        return dict(self.records.get(image_id, {a: PLACEHOLDER for a in self.schema}))


def mutual_information(joint_counts) -> float:
    """Plug-in mutual information (nats) of an L x A count matrix.

    Zero joint cells contribute nothing; an all-zero matrix, which
    holds no observation, has MI 0.
    """
    counts = np.asarray(joint_counts, dtype=np.float64)
    if counts.min() < 0:
        raise ValueError("counts must be non-negative")
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    pl = p.sum(axis=1, keepdims=True)
    pa = p.sum(axis=0, keepdims=True)
    mask = p > 0
    ratio = np.ones_like(p)
    ratio[mask] = p[mask] / (pl @ pa)[mask]
    return float(np.sum(p[mask] * np.log(ratio[mask])))


def score_attributes(table: AttributeTable, labels: dict[str, Counter]) -> dict:
    """Score every schema attribute against per-image object-class multisets.

    The joint gets one (class, attribute value) count per object
    instance; placeholders join the table as their own column but count
    against coverage.  An attribute is eligible when its coverage is at
    least MIN_COVERAGE_DEFAULT, its balance (the share of images of its
    rarest observed value) at least MIN_BALANCE_DEFAULT, and at least
    two real values occur.
    Returns the document that `select-contexts` writes: `attributes` maps
    each attribute, by name, to its `mutual_information`, `coverage`,
    `balance`, `observed_values` and `eligible`; `ranking` lists the
    eligible attributes by MI descending, ties broken by name; `selected`
    is the first of them, or None.
    """
    if not labels:
        raise EmptyCorpusError("no labeled images to score against")
    image_ids = sorted(labels)
    n_images = len(image_ids)
    all_classes = sorted({c for counts in labels.values() for c in counts})
    scores: dict[str, dict] = {}
    for name, allowed in sorted(table.schema.items()):
        columns = list(allowed) + [PLACEHOLDER]
        col_index = {v: i for i, v in enumerate(columns)}
        row_index = {c: i for i, c in enumerate(all_classes)}
        joint = np.zeros((max(len(all_classes), 1), len(columns)), dtype=np.float64)
        value_images = Counter()
        for image_id in image_ids:
            value = table.value(image_id, name)
            value_images[value] += 1
            for cls, n in labels[image_id].items():
                joint[row_index[cls], col_index[value]] += n
        mi = mutual_information(joint)
        covered = n_images - value_images.get(PLACEHOLDER, 0)
        coverage = covered / n_images
        observed = [v for v in allowed if value_images.get(v, 0) > 0]
        balance = (
            min(value_images[v] for v in observed) / n_images if observed else 0.0
        )
        scores[name] = {
            "mutual_information": mi,
            "coverage": coverage,
            "balance": balance,
            "observed_values": len(observed),
            "eligible": (
                coverage >= MIN_COVERAGE_DEFAULT
                and balance >= MIN_BALANCE_DEFAULT
                and len(observed) >= 2
            ),
        }
    ranking = sorted(
        (n for n, s in scores.items() if s["eligible"]),
        key=lambda n: (-scores[n]["mutual_information"], n),
    )
    return {"attributes": scores, "ranking": ranking, "selected": ranking[0] if ranking else None}
