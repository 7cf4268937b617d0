"""Co-occurrence statistics over class pairs.

Every count is a dense integer array indexed by the row of a class in
the sorted class universe `classes`:

- `class_images` (n,): images showing the class;
- `presence` (n, n), symmetric: images showing both classes of a pair,
  which means two objects of the class on the diagonal;
- `position` (n, n, 8), `proximity` (n, n, 6), `distance` (n, n,
  K_DIST): ordered object pairs by octant, proximity label and distance
  bin (the fixed K_DIST of `relations`).

Size observations are kept per ordered row pair as an exact multiset of
(pixels_a, pixels_b) integer pairs rather than running float sums, so
that the sum of sharded builders and one sequential builder finalize
bit-identically; the log-ratio moments are derived once, in sorted
order, at finalize time.

A StatsBuilder accumulates the counts of one scope from scenes (one
builder per context value, image or shard); `finalize` sums any number
of builders into an immutable CooccurrenceModel: read-only sums of the
counts plus the tables derived from them, one array expression each,
smoothed with the constant ALPHA_DEFAULT.  The tables are the model's
only lookup, so that all of a scene's pairs are looked up at once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, field, fields

import numpy as np

from .errors import ConsistencyError, EmptyCorpusError, SchemaError
from .labelgrid import ObjectTable
from .relations import K_DIST, OCTANTS, PROXIMITY_LABELS, PairTable

ALPHA_DEFAULT = 1.0
SIGMA_FLOOR = 0.1


@dataclass(eq=False)
class _Counts:
    """The counts of a class universe; equal when every count is equal."""

    classes: tuple[int, ...]
    images: int
    class_images: np.ndarray
    presence: np.ndarray
    position: np.ndarray
    proximity: np.ndarray
    distance: np.ndarray
    size_obs: dict[tuple[int, int], Counter]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)
        return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in pairs)


@dataclass(eq=False)
class StatsBuilder(_Counts):
    """Mutable accumulator of co-occurrence counts of one scope."""

    @classmethod
    def for_classes(cls, classes) -> "StatsBuilder":
        """Zero counts over the class universe `classes`."""
        classes = tuple(sorted({int(c) for c in classes}))
        n = len(classes)
        shapes = ((n,), (n, n), (n, n, len(OCTANTS)), (n, n, len(PROXIMITY_LABELS)), (n, n, K_DIST))
        return cls(classes, 0, *(np.zeros(shape, dtype=np.int64) for shape in shapes), {})


def accumulate(
    builder: StatsBuilder,
    objects: ObjectTable,
    relations: PairTable,
) -> StatsBuilder:
    """Fold one image into the builder (mutates and returns it).

    Presence counts move once per class pair present in the image; the
    relational tables move once per ordered object pair.  Relations must
    be those of `objects`, their indices in range: a pair's classes are
    those of the objects it indexes.
    """
    row = {c: i for i, c in enumerate(builder.classes)}
    class_ids = objects.class_id.tolist()
    class_counts = Counter(class_ids)
    unknown = class_counts.keys() - row.keys()
    if unknown:
        raise ConsistencyError(f"objects carry classes outside the universe: {sorted(unknown)}")
    if len(relations) and max(relations.a_index.max(), relations.b_index.max()) >= len(objects):
        raise ConsistencyError("relations index objects outside the scene")

    builder.images += 1
    for a, n in class_counts.items():
        builder.class_images[row[a]] += 1
        for b in class_counts:
            if a != b or n > 1:
                builder.presence[row[a], row[b]] += 1

    rows = [row[c] for c in class_ids]
    sizes = objects.pixel_count.tolist()
    position, proximity, distance = builder.position, builder.proximity, builder.distance
    columns = (
        relations.a_index, relations.b_index, relations.rpos, relations.rprox, relations.rdist_bin,
    )
    for i, j, pos, prox, dist in zip(*(c.tolist() for c in columns)):
        ra, rb = rows[i], rows[j]
        position[ra, rb, pos] += 1
        proximity[ra, rb, prox] += 1
        distance[ra, rb, dist] += 1
        builder.size_obs.setdefault((ra, rb), Counter())[sizes[i], sizes[j]] += 1
    return builder


def _size_moments(obs: Counter) -> tuple[float, float]:
    """(mean, std) of size log-ratios, derived in sorted observation order."""
    n, sx, sxx = 0, 0.0, 0.0
    for (pa, pb), count in sorted(obs.items()):
        x = math.log(pa) - math.log(pb)
        n += count
        sx += count * x
        sxx += count * x * x
    mean = sx / n
    var = max(0.0, sxx / n - mean * mean)
    return mean, max(math.sqrt(var), SIGMA_FLOOR)


@dataclass(eq=False)
class CooccurrenceModel(_Counts):
    """Co-occurrence counts and the smoothed dense tables derived from
    them, all read-only; shareable across threads.

    The counts are the model: they make serialization lossless and take
    part in equality.  The dense tables, indexed by `class_rows`, are how
    the model is read; `__post_init__` derives them from the counts, so
    they take no part in equality.  Row and column n of every table, past
    the n classes, hold the prior of a class never observed, the row that
    `class_rows` gives an id outside `classes`.  For classes a and b at
    rows i and j, with alpha the constant ALPHA_DEFAULT:

    - `presence_table[i, j]`: (presence[i, j] + alpha) / (images +
      2 alpha).
    - `position_table[i, j]`, `proximity_table[i, j]`,
      `distance_table[i, j]`: the smoothed distribution over OCTANTS,
      PROXIMITY_LABELS and the K_DIST distance bins of the ordered pair
      (a, b), (counts + alpha) / (total + alpha * arity); exactly
      1 / arity for a pair never observed.
    - `size_mean[i, j]`, `size_std[i, j]`: the size log-ratio moments of
      (a, b), summed in sorted observation order with the std floored at
      SIGMA_FLOOR, which standardize a pair's `rsize`; (0, 1) for a pair
      never observed.
    """

    class_array: np.ndarray = field(init=False, compare=False, repr=False)
    presence_table: np.ndarray = field(init=False, compare=False, repr=False)
    position_table: np.ndarray = field(init=False, compare=False, repr=False)
    proximity_table: np.ndarray = field(init=False, compare=False, repr=False)
    distance_table: np.ndarray = field(init=False, compare=False, repr=False)
    size_mean: np.ndarray = field(init=False, compare=False, repr=False)
    size_std: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        """Smooth the zero-padded counts into the dense tables; make every array read-only."""
        self.class_array = np.array([*self.classes, np.iinfo(np.int64).max], dtype=np.int64)
        pad, alpha = ((0, 1), (0, 1)), ALPHA_DEFAULT
        presence = np.pad(self.presence, pad)
        self.presence_table = (presence + alpha) / (self.images + 2 * alpha)
        for name in ("position", "proximity", "distance"):
            counts = np.pad(getattr(self, name), (*pad, (0, 0)))
            total = counts.sum(axis=2, keepdims=True)
            arity = counts.shape[2]
            smoothed = (counts + alpha) / (total + alpha * arity)
            setattr(self, f"{name}_table", np.where(total > 0, smoothed, 1.0 / arity))
        n = len(self.class_array)
        self.size_mean, self.size_std = np.zeros((n, n)), np.ones((n, n))
        for (i, j), obs in self.size_obs.items():
            self.size_mean[i, j], self.size_std[i, j] = _size_moments(obs)
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def __setattr__(self, name: str, value) -> None:
        """Fields are set once, while the model is built."""
        if "size_std" in vars(self):
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super().__setattr__(name, value)

    def class_rows(self, class_ids) -> np.ndarray:
        """Row of each class id in the dense tables: n, the prior's row,
        for an id outside `classes`.  One `searchsorted` finds each id's
        row, and one `take` of `class_array`, whose last value no int32 id
        equals, checks that the row holds the id."""
        ids = np.asarray(class_ids, dtype=np.int64)
        rows = self.class_array.searchsorted(ids)
        return np.where(self.class_array.take(rows) == ids, rows, len(self.classes))


def finalize(*builders: StatsBuilder) -> CooccurrenceModel:
    """Laplace-smooth the summed counts of the builders, with ALPHA_DEFAULT,
    into a CooccurrenceModel.

    The counts are summed into new arrays and multisets, so the model
    shares none with a builder.  Raises SchemaError when two builders
    disagree on the class universe; EmptyCorpusError when no builder is
    given or they hold no image.
    """
    if any(b.classes != builders[0].classes for b in builders):
        raise SchemaError("builders disagree on class universe")
    counts = {
        k: sum(getattr(b, k) for b in builders)
        for k in ("images", "class_images", "presence", "position", "proximity", "distance")
    }
    if counts["images"] < 1:
        raise EmptyCorpusError("cannot finalize statistics over zero images")
    size_obs: dict[tuple[int, int], Counter] = {}
    for b in builders:
        for k, v in b.size_obs.items():
            size_obs.setdefault(k, Counter()).update(v)
    return CooccurrenceModel(classes=builders[0].classes, size_obs=size_obs, **counts)
