"""Co-occurrence statistics over class pairs.

A StatsBuilder accumulates integer counts from scenes; builders merge
associatively (map-reduce style, one builder per image or shard), and
`finalize` turns counts into a smoothed, immutable CooccurrenceModel.
The model's dense arrays over the class index are its only lookup, so
that all of a scene's pairs are looked up at once.

Count tables kept per ordered class pair: position octants (8),
proximity labels (6), distance bins (the fixed K_DIST of `relations`),
and size observations.  Presence is counted per unordered class pair
once per image.  Size observations are stored as an exact multiset of
(pixels_a, pixels_b) integer pairs rather than running float sums, so
that shard-merged and sequential builders are bit-identical; the
log-ratio moments are derived once, in sorted order, at finalize time.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConsistencyError,
    EmptyCorpusError,
    SchemaError,
    UnknownClassError,
)
from .labelgrid import SceneObject
from .relations import K_DIST, OCTANTS, PROXIMITY_LABELS, PairTable

ALPHA_DEFAULT = 1.0
SIGMA_FLOOR = 0.1


def _pair_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


@dataclass
class StatsBuilder:
    """Mutable accumulator of co-occurrence counts; merge is associative."""

    classes: frozenset[int]
    images: int = 0
    class_image_counts: dict[int, int] = field(default_factory=dict)
    presence_counts: dict[tuple[int, int], int] = field(default_factory=dict)
    position_counts: dict[tuple[int, int], list[int]] = field(default_factory=dict)
    proximity_counts: dict[tuple[int, int], list[int]] = field(default_factory=dict)
    distance_counts: dict[tuple[int, int], list[int]] = field(default_factory=dict)
    size_obs: dict[tuple[int, int], Counter] = field(default_factory=dict)

    @classmethod
    def for_classes(cls, classes) -> "StatsBuilder":
        return cls(classes=frozenset(int(c) for c in classes))


def accumulate(
    builder: StatsBuilder,
    objects: list[SceneObject],
    relations: PairTable,
) -> StatsBuilder:
    """Fold one image into the builder (mutates and returns it).

    Presence counts move once per class pair present in the image; the
    relational tables move once per ordered object pair.  Relations must
    be those of `objects`: their classes present and their indices in
    range.
    """
    scene_classes = {o.class_id for o in objects}
    unknown = scene_classes - builder.classes
    if unknown:
        raise ConsistencyError(f"objects carry classes outside the universe: {sorted(unknown)}")
    absent = (set(relations.a_class.tolist()) | set(relations.b_class.tolist())) - scene_classes
    if absent:
        raise ConsistencyError(
            f"relations reference classes absent from the scene: {sorted(absent)}"
        )
    if len(relations) and max(relations.a_index.max(), relations.b_index.max()) >= len(objects):
        raise ConsistencyError("relations index objects outside the scene")

    builder.images += 1
    class_counts = Counter(o.class_id for o in objects)
    for c in class_counts:
        builder.class_image_counts[c] = builder.class_image_counts.get(c, 0) + 1
    present = sorted(class_counts)
    for i, a in enumerate(present):
        for b in present[i:]:
            if a == b and class_counts[a] < 2:
                continue
            key = _pair_key(a, b)
            builder.presence_counts[key] = builder.presence_counts.get(key, 0) + 1

    sizes = [o.pixel_count for o in objects]
    columns = (
        relations.a_class, relations.b_class, relations.rpos, relations.rprox,
        relations.rdist_bin, relations.a_index, relations.b_index,
    )
    for a, b, pos, prox, dist, i, j in zip(*(c.tolist() for c in columns)):
        key = (a, b)
        builder.position_counts.setdefault(key, [0] * 8)[pos] += 1
        builder.proximity_counts.setdefault(key, [0] * 6)[prox] += 1
        builder.distance_counts.setdefault(key, [0] * K_DIST)[dist] += 1
        builder.size_obs.setdefault(key, Counter())[(sizes[i], sizes[j])] += 1
    return builder


def merge(x: StatsBuilder, y: StatsBuilder) -> StatsBuilder:
    """Element-wise sum of two builders over the same class universe."""
    if x.classes != y.classes:
        raise SchemaError("builders disagree on class universe")
    out = StatsBuilder.for_classes(x.classes)
    out.images = x.images + y.images
    out.class_image_counts = dict(x.class_image_counts)
    for c, n in y.class_image_counts.items():
        out.class_image_counts[c] = out.class_image_counts.get(c, 0) + n
    out.presence_counts = dict(x.presence_counts)
    for k, n in y.presence_counts.items():
        out.presence_counts[k] = out.presence_counts.get(k, 0) + n
    for name in ("position_counts", "proximity_counts", "distance_counts"):
        merged: dict[tuple[int, int], list[int]] = {
            k: list(v) for k, v in getattr(x, name).items()
        }
        for k, v in getattr(y, name).items():
            if k in merged:
                merged[k] = [p + q for p, q in zip(merged[k], v)]
            else:
                merged[k] = list(v)
        setattr(out, name, merged)
    out.size_obs = {k: Counter(v) for k, v in x.size_obs.items()}
    for k, v in y.size_obs.items():
        if k in out.size_obs:
            out.size_obs[k].update(v)
        else:
            out.size_obs[k] = Counter(v)
    return out


def _smooth(counts: tuple[int, ...], alpha: float) -> tuple[float, ...]:
    total = sum(counts)
    arity = len(counts)
    return tuple((c + alpha) / (total + alpha * arity) for c in counts)


def _size_moments(obs: tuple[tuple[tuple[int, int], int], ...]) -> tuple[float, float]:
    """(mean, std) of size log-ratios, derived in sorted observation order."""
    n = 0
    sx = 0.0
    sxx = 0.0
    for (pa, pb), count in sorted(obs):
        x = math.log(pa) - math.log(pb)
        n += count
        sx += count * x
        sxx += count * x * x
    mean = sx / n
    var = max(0.0, sxx / n - mean * mean)
    return mean, max(math.sqrt(var), SIGMA_FLOOR)


@dataclass(frozen=True)
class CooccurrenceModel:
    """Immutable co-occurrence counts and the smoothed dense tables derived
    from them; shareable across threads.

    The counts are the model: they make serialization lossless and take
    part in equality.  The dense tables, indexed by `class_rows`, are how
    the model is read; `__post_init__` derives them from the counts, so
    they take no part in equality.  For classes a and b at rows i and j:

    - `presence_table[i, j]`: (images showing both + alpha) / (images +
      2 alpha); "both" means two objects of the class when a == b.
    - `position_table[i, j]`, `proximity_table[i, j]`,
      `distance_table[i, j]`: the smoothed distribution over OCTANTS,
      PROXIMITY_LABELS and the K_DIST distance bins of the ordered pair
      (a, b), (count + alpha) / (total + alpha * arity); uniform for a
      pair never observed.
    - `size_mean[i, j]`, `size_std[i, j]`: the size log-ratio moments of
      (a, b), summed in sorted observation order with the std floored at
      SIGMA_FLOOR, which standardize a pair's `rsize`; (0, 1) for a pair
      never observed.
    """

    alpha: float
    classes: tuple[int, ...]
    images: int
    class_image_counts: dict[int, int]
    presence_counts: dict[tuple[int, int], int]
    position_counts: dict[tuple[int, int], tuple[int, ...]]
    proximity_counts: dict[tuple[int, int], tuple[int, ...]]
    distance_counts: dict[tuple[int, int], tuple[int, ...]]
    size_obs: dict[tuple[int, int], tuple[tuple[tuple[int, int], int], ...]]
    presence_table: np.ndarray = field(init=False, compare=False, repr=False)
    position_table: np.ndarray = field(init=False, compare=False, repr=False)
    proximity_table: np.ndarray = field(init=False, compare=False, repr=False)
    distance_table: np.ndarray = field(init=False, compare=False, repr=False)
    size_mean: np.ndarray = field(init=False, compare=False, repr=False)
    size_std: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        """Smooth the counts into the dense tables.

        Unseen pairs get the presence prior, exactly 1/len(labels), and
        size moments (0, 1).
        """
        row = {c: i for i, c in enumerate(self.classes)}
        keyed = (
            self.presence_counts, self.position_counts, self.proximity_counts,
            self.distance_counts, self.size_obs,
        )
        outside = {c for table in keyed for key in table for c in key} - set(row)
        if outside:
            raise SchemaError(f"counts reference classes outside the universe: {sorted(outside)}")
        n = len(row)
        denominator = self.images + 2 * self.alpha
        presence = np.empty((n, n))
        for a, i in row.items():
            for b, j in row.items():
                count = self.presence_counts.get(_pair_key(a, b), 0)
                presence[i, j] = (count + self.alpha) / denominator
        tables = {"presence_table": presence}
        for name, counts, arity in (
            ("position_table", self.position_counts, len(OCTANTS)),
            ("proximity_table", self.proximity_counts, len(PROXIMITY_LABELS)),
            ("distance_table", self.distance_counts, K_DIST),
        ):
            tables[name] = np.full((n, n, arity), 1.0 / arity)
            for (a, b), values in counts.items():
                tables[name][row[a], row[b]] = _smooth(values, self.alpha)
        tables["size_mean"], tables["size_std"] = np.zeros((n, n)), np.ones((n, n))
        for (a, b), obs in self.size_obs.items():
            mean, std = _size_moments(obs)
            tables["size_mean"][row[a], row[b]] = mean
            tables["size_std"][row[a], row[b]] = std
        for name, table in tables.items():
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    def class_rows(self, class_ids) -> np.ndarray:
        """Index of each class id into the dense tables.

        Raises UnknownClassError, naming the first such id, when an id is
        outside the model's universe.
        """
        ids = np.asarray(class_ids, dtype=np.int64)
        universe = np.asarray(self.classes, dtype=np.int64)
        rows = np.searchsorted(universe, ids)
        known = rows < len(universe)
        known[known] = universe[rows[known]] == ids[known]
        if not known.all():
            raise UnknownClassError(
                f"class id {int(ids[np.argmin(known)])} unknown to this model"
            )
        return rows


def finalize(builder: StatsBuilder, alpha: float = ALPHA_DEFAULT) -> CooccurrenceModel:
    """Laplace-smooth the builder's counts into a CooccurrenceModel."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if builder.images < 1:
        raise EmptyCorpusError("cannot finalize statistics over zero images")
    return CooccurrenceModel(
        alpha=alpha,
        classes=tuple(sorted(builder.classes)),
        images=builder.images,
        class_image_counts=dict(sorted(builder.class_image_counts.items())),
        presence_counts=dict(sorted(builder.presence_counts.items())),
        position_counts={k: tuple(v) for k, v in sorted(builder.position_counts.items())},
        proximity_counts={k: tuple(v) for k, v in sorted(builder.proximity_counts.items())},
        distance_counts={k: tuple(v) for k, v in sorted(builder.distance_counts.items())},
        size_obs={
            k: tuple(sorted(v.items())) for k, v in sorted(builder.size_obs.items())
        },
    )
