"""Per-image attribute annotations and context-attribute selection.

Attributes are global image properties (location, lighting, ...) with a
small closed value set per attribute; missing values are stored as the
placeholder token.  Candidate context attributes are scored by the
mutual information between object-class occurrences and attribute
values, plus coverage and balance criteria, to pick the attribute that
best partitions a corpus into specialized verification contexts.

Everything is read-only after load; scoring functions are pure.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateError,
    EmptyCorpusError,
    EmptyDistributionError,
    FormatError,
    SchemaError,
)

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
    """Validated per-image attribute records over a fixed schema."""

    schema: dict[str, list[str]]
    records: dict[str, dict[str, str]]

    def value(self, image_id: str, attribute: str) -> str:
        """Attribute value for an image; unknown images read as placeholders."""
        if attribute not in self.schema:
            raise SchemaError(f"unknown attribute {attribute!r}")
        return self.records.get(image_id, {}).get(attribute, PLACEHOLDER)

    def record(self, image_id: str) -> dict[str, str]:
        return dict(self.records.get(image_id, {a: PLACEHOLDER for a in self.schema}))


def load_attributes(json_text: str, schema: dict[str, list[str]]) -> AttributeTable:
    """Parse a JSON array of {image_id, attributes} records against `schema`.

    Missing attributes are filled with the placeholder; values outside an
    attribute's allowed set raise SchemaError, repeated image ids raise
    DuplicateError.
    """
    try:
        raw = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"attribute file is not valid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise FormatError("attribute file must be a JSON array")
    records: dict[str, dict[str, str]] = {}
    for entry in raw:
        if not isinstance(entry, dict) or "image_id" not in entry:
            raise FormatError(f"malformed annotation entry: {entry!r}")
        image_id = str(entry["image_id"])
        if image_id in records:
            raise DuplicateError(f"duplicate image id {image_id!r}")
        attrs = entry.get("attributes", {})
        rec: dict[str, str] = {}
        for name, allowed in schema.items():
            value = attrs.get(name, PLACEHOLDER)
            if value != PLACEHOLDER and value not in allowed:
                raise SchemaError(
                    f"value {value!r} not allowed for attribute {name!r} "
                    f"(allowed: {allowed})"
                )
            rec[name] = value
        for name in attrs:
            if name not in schema:
                raise SchemaError(f"attribute {name!r} not in schema")
        records[image_id] = rec
    return AttributeTable(schema={k: list(v) for k, v in schema.items()}, records=records)


def mutual_information(joint_counts) -> float:
    """Plug-in mutual information (nats) of an L x A count matrix.

    Zero joint cells contribute nothing; an all-zero matrix raises
    EmptyDistributionError.
    """
    counts = np.asarray(joint_counts, dtype=np.float64)
    if counts.min() < 0:
        raise ValueError("counts must be non-negative")
    total = counts.sum()
    if total == 0:
        raise EmptyDistributionError("all-zero joint count matrix")
    p = counts / total
    pl = p.sum(axis=1, keepdims=True)
    pa = p.sum(axis=0, keepdims=True)
    mask = p > 0
    ratio = np.ones_like(p)
    ratio[mask] = p[mask] / (pl @ pa)[mask]
    return float(np.sum(p[mask] * np.log(ratio[mask])))


@dataclass(frozen=True)
class AttributeScore:
    name: str
    mutual_information: float
    coverage: float
    balance: float
    observed_values: int
    eligible: bool


@dataclass(frozen=True)
class ContextSelectionReport:
    """Per-attribute scores plus the eligible attributes ranked by MI."""

    scores: dict[str, AttributeScore]
    ranking: list[str] = field(default_factory=list)

    @property
    def selected(self) -> str | None:
        return self.ranking[0] if self.ranking else None

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "attributes": {
                name: {
                    "mutual_information": s.mutual_information,
                    "coverage": s.coverage,
                    "balance": s.balance,
                    "observed_values": s.observed_values,
                    "eligible": s.eligible,
                }
                for name, s in sorted(self.scores.items())
            },
            "ranking": list(self.ranking),
            "selected": self.selected,
        }


def score_attributes(
    table: AttributeTable,
    labels: dict[str, Counter],
    min_coverage: float = MIN_COVERAGE_DEFAULT,
    min_balance: float = MIN_BALANCE_DEFAULT,
) -> ContextSelectionReport:
    """Score every schema attribute against per-image object-class multisets.

    The joint gets one (class, attribute value) count per object
    instance; placeholders join the table as their own column but count
    against coverage.  An attribute is eligible when coverage and
    balance clear their thresholds and at least two real values occur.
    Ranking is by MI descending, ties broken by name.
    """
    if not labels:
        raise EmptyCorpusError("no labeled images to score against")
    image_ids = sorted(labels)
    n_images = len(image_ids)
    all_classes = sorted({c for counts in labels.values() for c in counts})
    scores: dict[str, AttributeScore] = {}
    for name, allowed in table.schema.items():
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
        try:
            mi = mutual_information(joint)
        except EmptyDistributionError:
            mi = 0.0
        covered = n_images - value_images.get(PLACEHOLDER, 0)
        coverage = covered / n_images
        observed = [v for v in allowed if value_images.get(v, 0) > 0]
        balance = (
            min(value_images[v] for v in observed) / n_images if observed else 0.0
        )
        eligible = (
            coverage >= min_coverage and balance >= min_balance and len(observed) >= 2
        )
        scores[name] = AttributeScore(
            name=name,
            mutual_information=mi,
            coverage=coverage,
            balance=balance,
            observed_values=len(observed),
            eligible=eligible,
        )
    ranking = sorted(
        (s.name for s in scores.values() if s.eligible),
        key=lambda n: (-scores[n].mutual_information, n),
    )
    return ContextSelectionReport(scores=scores, ranking=ranking)


def partition_corpus(
    corpus_ids: list[str], table: AttributeTable, attribute: str
) -> dict[str, list[str]]:
    """Group image ids by their value of `attribute`.

    Placeholder-valued (or unannotated) images go to the reserved
    placeholder group; the groups are disjoint and exhaustive.
    """
    if attribute not in table.schema:
        raise SchemaError(f"unknown attribute {attribute!r}")
    groups: dict[str, list[str]] = {}
    for image_id in corpus_ids:
        value = table.value(image_id, attribute)
        groups.setdefault(value, []).append(image_id)
    return groups
