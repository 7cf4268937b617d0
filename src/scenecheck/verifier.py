"""Contradiction detection over pair feature vectors.

A scene's ordered object pairs become the rows of one (n_pairs, 7)
feature matrix, read from the co-occurrence tables; a linear max-margin
classifier (hinge loss plus L2, plain SGD, trained from scratch) scores
all rows in one call, and a per-image verdict is the majority vote of
the pair margins.

A label map is labelled once into a Scene: its ObjectTable, their pair
table and their shape histograms, at the fixed resolutions of
`relations`; `prepare_all` and `verify` build it with one helper, and
every layer reads an object as a row of the table's columns.  Every
scene is labelled with DEFAULT_MIN_AREA, and every detector is trained
with the SGD settings HYPERPARAMS: the tuning values are constants, not
parameters.
`prepare_all` labels a stream of maps in batches, one stacked labelling
pass and one histogram pass per batch; `prepare_all([grid])` prepares
one map.
`_removed_index` is the seeded rule that picks the object an
object-removal twin leaves out.  The twins `evaluate` scores are the maps
`corpus.paint_removal` paints, prepared like any map; `train_registry`
takes a twin's feature rows from its source's, the rows of the pairs
without the removed object, and builds no twin.  It is the one writer of
co-occurrence statistics: it reads each train image's context value once,
with `AttributeTable.value`, counts each train scene once, into the
builder of that value, and `finalize` makes each detector's statistics
from those builders, which a registry document saves.

A VerifierRegistry holds one global Detector (linear model,
statistics and shape prototypes) plus one per context value; `verify`
dispatches on the image's context attribute and falls back to the
global detector whenever the context is missing, placeholder-valued,
or untrained.  It takes a label grid or a Scene.  A grid is related and
histogrammed only when it has a pair: with fewer than two objects its
verdict is the abstention (not a contradiction, confidence 0.5) of
`aggregate` on no margins, so nothing else is computed for it.  Its
labelling stops after the component pass of `label_maps`, whose areas
count the objects, so no object table is built for it either.  A
Verdict keeps the pair table's index columns and the margins as
read-only arrays, so `verify` builds no Python object per pair; the
`(a, b, margin)` tuples of `Verdict.pair_scores` are built on demand.

Featurization and scoring are pure; training is single-threaded and
fully determined by its inputs and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import ClassVar, Iterable, Iterator, Mapping

import numpy as np

from .context import PLACEHOLDER
from .errors import (
    DegenerateTrainingError,
    DimensionError,
    NotEnoughObjectsError,
    SchemaError,
)
# `extract_objects` stays bound here, though `verify` labels through the
# two passes of `label_maps` instead: the benchmark's tracer wraps it at
# every scenecheck binding, and its test expects this one.
from .labelgrid import (  # noqa: F401
    DEFAULT_MIN_AREA,
    LabelGrid,
    ObjectTable,
    _components,
    _tables,
    extract_objects,
    grid_batches,
    label_maps,
)
from .relations import (
    _NO_PAIRS,
    K_DIST,
    OCTANTS,
    PROXIMITY_LABELS,
    SHAPE_BINS,
    PairTable,
    relations_for_objects,
    shape_histogram,
    shape_histograms,
)
from .seeds import derive_seed
from .stats import (
    CooccurrenceModel,
    StatsBuilder,
    _Counts,
    accumulate,
    finalize,
)

FEATURE_NAMES = (
    "presence_prob",
    "position_prob",
    "proximity_prob",
    "distance_prob",
    "abs_size_zscore",
    "rdist",
    "shape_prototype_l1",
)
N_FEATURES = len(FEATURE_NAMES)

GLOBAL_LABEL = "global"
N_MIN_CONTEXT = 30
CONTRADICTIONS_PER_IMAGE = 4
# The verdict rule, written to every registry and report.
AGGREGATION_MODE = "majority"

_TRAIN_TAG = 101
_MODEL_TAG = 102


@dataclass(frozen=True, eq=False)
class Scene:
    """One label map, labelled once with DEFAULT_MIN_AREA: its objects,
    their ordered pairs and their shape histograms.

    An object is known by its position in the `objects` table: the pair
    table indexes `objects`, and `hists` is the read-only
    `(len(objects), SHAPE_BINS)` array of `shape_histogram`, whose row i
    belongs to object i.
    """

    image_id: str
    objects: ObjectTable
    pairs: PairTable
    hists: np.ndarray


def _removed_index(n_objects: int, seed: int) -> int:
    """Index of the object a seeded contradiction removes, uniform over the objects."""
    if n_objects < 2:
        raise NotEnoughObjectsError(f"need at least 2 objects to remove one, found {n_objects}")
    return int(np.random.default_rng(seed).integers(n_objects))


def _scene(grid: LabelGrid, objects: ObjectTable, hists: np.ndarray) -> Scene:
    """The Scene of `grid`, given the objects extracted from it and their
    shape histograms; their pair table is made here."""
    return Scene(grid.image_id, objects, relations_for_objects(grid, objects), hists)


def prepare_all(grids: Iterable[LabelGrid]) -> Iterator[Scene]:
    """Label each of `grids`, read lazily, once into a Scene: its objects of
    at least DEFAULT_MIN_AREA pixels, their pair table and their shape
    histograms at the fixed SHAPE_SAMPLES and SHAPE_BINS of `relations`,
    whatever its object count, since the training prototypes read the
    histograms of one-object scenes too.

    Each batch of `grid_batches` is labelled in one `label_maps` pass and
    its shape histograms binned in one `shape_histograms` pass; each map
    is then related alone, so a map's Scene does not depend on the maps
    batched with it.
    """
    for batch in grid_batches(grids):
        objects = label_maps(batch)
        for grid, objs, hists in zip(batch, objects, shape_histograms(batch, objects)):
            yield _scene(grid, objs, hists)


@dataclass(frozen=True)
class Hyperparams:
    """SGD settings, a learning rate, an epoch count and an L2 weight, as a
    LinearModel records them; `train_linear` always uses HYPERPARAMS."""

    learning_rate: float = 0.01
    epochs: int = 50
    l2_lambda: float = 1e-3


HYPERPARAMS = Hyperparams()


@dataclass(frozen=True)
class LinearModel:
    """Linear margin classifier with the standardization fitted at training.

    The weights, feature means and feature stds are also kept as
    read-only float64 arrays, made once here for `score`; they are not
    fields, so they take no part in equality or the saved document.
    """

    weights: tuple[float, ...]
    bias: float
    feature_means: tuple[float, ...]
    feature_stds: tuple[float, ...]
    hyperparams: Hyperparams
    seed: int
    n_pos: int
    n_neg: int
    context_label: str

    def __post_init__(self) -> None:
        for name in ("weights", "feature_means", "feature_stds"):
            column = np.array(getattr(self, name), dtype=np.float64)
            column.flags.writeable = False
            object.__setattr__(self, f"_{name}", column)


@dataclass(frozen=True, eq=False)
class Verdict:
    """Per-image verification outcome.

    Pair k of the verdict is the ordered pair (`a_index[k]`,
    `b_index[k]`) of the scene's objects, in the order of its pair table,
    with margin `margins[k]`.  The three are read-only arrays, the index
    columns those of the scene's PairTable; an abstention's are empty.
    """

    image_id: str
    a_index: np.ndarray
    b_index: np.ndarray
    margins: np.ndarray
    contradiction: bool
    confidence: float
    model_used: str

    def __post_init__(self) -> None:
        for column in (self.a_index, self.b_index, self.margins):
            column.flags.writeable = False

    __eq__ = _Counts.__eq__

    @property
    def pair_scores(self) -> tuple[tuple[int, int, float], ...]:
        """The `(a, b, margin)` triple of every pair, built on demand."""
        return tuple(zip(self.a_index.tolist(), self.b_index.tolist(), self.margins.tolist()))

    def to_dict(self) -> dict:
        return {
            "image_id": self.image_id,
            "contradiction": self.contradiction,
            "confidence": self.confidence,
            "model_used": self.model_used,
            "pair_scores": [{"a": a, "b": b, "margin": m} for a, b, m in self.pair_scores],
        }


def featurize(
    pairs: PairTable,
    objects: ObjectTable,
    hists: np.ndarray,
    stats: CooccurrenceModel,
    prototypes: np.ndarray,
) -> np.ndarray:
    """Evaluate the co-occurrence tables at every pair: one row per pair.

    `hists` holds one histogram row per object, in the order of `objects`.
    The shape term is the L1 distance between object A's histogram and its
    class's row of a Detector's `prototypes`, gathered once per object by
    the class rows that the co-occurrence tables are read with.  Every
    table is read with one 1-D `take` of its flattened array: a pair's
    class rows (i, j) give the flat index ab = i * (n_classes + 1) + j of
    the presence and size tables, and ab * arity + code that of the
    position, proximity and distance tables.  An object of a class outside
    the statistics reads their prior row n and prototype row n, so the
    prototype table has one row per row of `stats.class_array`, or
    DimensionError is raised.
    """
    if len(prototypes) != len(stats.class_array):
        raise DimensionError(
            f"prototype table of {len(prototypes)} rows, expected one per class"
            f" of the statistics plus the prior's: {len(stats.class_array)}"
        )
    if not len(pairs):
        return np.empty((0, N_FEATURES))
    rows = stats.class_rows(objects.class_id)
    ab = rows.take(pairs.a_index) * len(stats.class_array) + rows.take(pairs.b_index)
    shape = np.add.reduce(np.abs(hists - prototypes.take(rows, axis=0)), axis=1)
    X = np.empty((len(pairs), N_FEATURES))
    X[:, 0] = stats.presence_table.ravel().take(ab)
    X[:, 1] = stats.position_table.ravel().take(ab * len(OCTANTS) + pairs.rpos)
    X[:, 2] = stats.proximity_table.ravel().take(ab * len(PROXIMITY_LABELS) + pairs.rprox)
    X[:, 3] = stats.distance_table.ravel().take(ab * K_DIST + pairs.rdist_bin)
    mean, std = stats.size_mean.ravel().take(ab), stats.size_std.ravel().take(ab)
    np.abs((pairs.rsize - mean) / std, out=X[:, 4])
    X[:, 5] = pairs.rdist
    X[:, 6] = shape.take(pairs.a_index)
    return X


@cache
def _sgd_epoch(width: int):
    """One SGD epoch over `width` features, as straight-line float code.

    The generated `epoch(w, b, order, rows, lr, lam, decay)` takes the
    weights as a tuple of floats, the bias, the visiting order and the
    rows signed by their label, `[y*z_0, ..., y*z_{width-1}, y, lr*y]`
    as Python floats, and returns the new weights and bias.  Every
    coordinate's update is spelt out, so a step makes no NumPy call and
    runs no loop over the coordinates.  It is generated once per width;
    the cache key is the width alone.

    The margin test `sum_j w_j*(y*z_j) + y*b < 1`, summed left to right,
    is `y*(sum_j w_j*z_j + b) < 1` bit for bit: y is +1 or -1, every
    product and sum of negated operands is the negated result, since
    IEEE rounding is symmetric about 0, and so is the final product by y.
    """
    ws = [f"w{j}" for j in range(width)]
    zs = [f"z{j}" for j in range(width)]
    weights = "(" + "".join(f"{w}, " for w in ws) + ")"
    row = "".join(f"{z}, " for z in zs) + "yi, lyi,"
    dot = "".join(f"{w}*{z} + " for w, z in zip(ws, zs))
    hinge = [f"{w} = {w} - ({w}*lam - {z})*lr" for w, z in zip(ws, zs)]
    shrink = [f"{w} = {w} - {w}*decay" for w in ws] or ["pass"]
    lines = [
        "def epoch(w, b, order, rows, lr, lam, decay):",
        f"    {weights} = w",
        "    for i in order:",
        f"        {row} = rows[i]",
        f"        if {dot}yi*b < 1.0:",
        *(f"            {line}" for line in hinge),
        "            b += lyi",
        "        else:",
        *(f"            {line}" for line in shrink),
        f"    return {weights}, b",
    ]
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<sgd epoch, width {width}>", "exec"), namespace)
    return namespace["epoch"]


def train_linear(
    features,
    labels,
    seed: int = 0,
    context_label: str = GLOBAL_LABEL,
) -> LinearModel:
    """Fit the hinge-loss linear classifier with seeded SGD at the settings
    HYPERPARAMS, which the model records.

    Labels use +1 for contradiction and -1 for valid.  Standardization
    is fitted on the training features (stds floored at 1e-6); samples
    are visited in a seeded shuffle per epoch for a fixed epoch count,
    so identical inputs and seed give bit-identical models.

    A step on a margin below 1 sets each weight to
    `w_j - (w_j*lam - y_i*z_ij)*lr` and the bias to `b + lr*y_i`; any
    other step sets it to `w_j - w_j*(lr*lam)`.  The steps run on
    Python floats, one straight-line function per feature width
    (`_sgd_epoch`), over rows stored signed by their label: `y_i*z_ij`
    and `lr*y_i` are computed once per row, and are exact negations or
    copies since y_i is +1 or -1.  Each weight comes only from these
    element-wise IEEE operations, in the order the array form `w -=
    lr*(lam*w - y_i*z_i)` evaluates them, and CPython rounds them as
    NumPy does, so the weights are those of the array form bit for bit.
    The dot product, summed left to right, only picks the branch; a
    different summation order could pick the other one only on a margin
    within rounding error of 1.

    Raises DegenerateTrainingError when the averaged weights or bias are
    not finite, as on a learning rate so large that the fit diverges.
    """
    hp = HYPERPARAMS
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("features must be a 2-D array matching labels")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise DegenerateTrainingError("training data contains a single label class")
    means = X.mean(axis=0)
    stds = np.maximum(X.std(axis=0), 1e-6)
    Z = (X - means) / stds
    rng = np.random.default_rng(seed)
    epoch_fn = _sgd_epoch(X.shape[1])
    rows = np.column_stack((Z * y[:, None], y, hp.learning_rate * y)).tolist()
    w: tuple[float, ...] = (0.0,) * X.shape[1]
    b = 0.0
    lr, lam = hp.learning_rate, hp.l2_lambda
    decay = lr * lam
    # Tail-averaged iterates: the raw SGD endpoint oscillates on noisy
    # margins, the average over the last half of the epochs does not.
    w_avg = np.zeros(X.shape[1])
    b_avg = 0.0
    averaged = 0
    tail_start = hp.epochs - max(1, hp.epochs // 2)
    for epoch in range(hp.epochs):
        w, b = epoch_fn(w, b, rng.permutation(len(Z)).tolist(), rows, lr, lam, decay)
        if epoch >= tail_start:
            w_avg += w
            b_avg += b
            averaged += 1
    w_avg /= averaged
    b_avg /= averaged
    if not (np.isfinite(w_avg).all() and math.isfinite(b_avg)):
        raise DegenerateTrainingError("SGD diverged: the averaged weights or bias are not finite")
    return LinearModel(
        weights=tuple(float(v) for v in w_avg),
        bias=float(b_avg),
        feature_means=tuple(float(v) for v in means),
        feature_stds=tuple(float(v) for v in stds),
        hyperparams=hp,
        seed=int(seed),
        n_pos=int(np.sum(y > 0)),
        n_neg=int(np.sum(y < 0)),
        context_label=context_label,
    )


def score(model: LinearModel, features) -> np.ndarray:
    """Margins w . standardized(x) + b of every row; positive means a contradiction vote.

    The standardized matrix is built in C order whatever the layout of
    `features`, and `np.vecdot` sums each of its rows in the order a
    one-row `w @ z` does, so each margin depends only on the values of
    its own row (`Z @ w`, or `np.vecdot` over another layout, can differ
    from it in the last bit).
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.weights):
        raise DimensionError(
            f"feature matrix of shape {X.shape} does not match model "
            f"dimension {len(model.weights)}"
        )
    Z = np.subtract(X, model._feature_means, order="C")
    Z /= model._feature_stds
    return np.vecdot(Z, model._weights) + model.bias


def aggregate(pair_scores) -> tuple[bool, float]:
    """The majority vote of pair margins, a sequence or 1-D array.

    Contradiction iff strictly more than half the margins are positive;
    confidence is the fraction of pairs agreeing with the verdict.  No
    pairs at all (a 0- or 1-object scene) abstains with (False, 0.5).
    """
    margins = np.asarray(pair_scores, dtype=np.float64)
    if not len(margins):
        return False, 0.5
    pos = int(np.count_nonzero(margins > 0))
    contradiction = 2 * pos > len(margins)
    agreeing = pos if contradiction else len(margins) - pos
    return contradiction, agreeing / len(margins)


@dataclass(frozen=True, eq=False)
class Detector:
    """One scope's detector: its classifier, the co-occurrence statistics it
    featurizes against and its shape prototypes, a read-only copy of a
    table on the rows of `stats.class_array`: row i is the mean histogram
    of class `stats.classes[i]` over the scope's objects, or the uniform
    one for a class none of them has, and row n, read for a class outside
    the statistics, is the uniform one."""

    model: LinearModel
    stats: CooccurrenceModel
    prototypes: np.ndarray

    def __post_init__(self) -> None:
        shape = self.prototypes.shape
        if shape != (len(self.stats.class_array), SHAPE_BINS):
            raise ValueError(f"prototype table of shape {shape}, not (classes + 1, bins)")
        # A saved registry holds no row n: loading makes it uniform again.
        if (self.prototypes[-1] != 1.0 / SHAPE_BINS).any():
            raise ValueError("prototype row n, of classes outside the statistics, is not uniform")
        object.__setattr__(self, "prototypes", np.array(self.prototypes, dtype=np.float64))
        self.prototypes.flags.writeable = False

    __eq__ = _Counts.__eq__


@dataclass(frozen=True)
class VerifierRegistry:
    """The global Detector plus one Detector per trained context value.
    Every scene it verifies is labelled with `min_area`, DEFAULT_MIN_AREA.

    `models` is keyed by exactly the context values that were trained;
    every other value falls back to `global_detector`.  No key may be
    GLOBAL_LABEL: `resolve` would never dispatch to it.
    """

    context_attribute: str | None
    global_detector: Detector
    models: dict[str, Detector] = field(default_factory=dict)
    min_area: ClassVar[int] = DEFAULT_MIN_AREA

    def __post_init__(self) -> None:
        if GLOBAL_LABEL in self.models:
            raise ValueError(f"context value {GLOBAL_LABEL!r} names the global detector")

    def resolve(self, attributes: Mapping[str, str] | None) -> str:
        """Context label serving this image; global whenever dispatch fails."""
        if self.context_attribute is None or attributes is None:
            return GLOBAL_LABEL
        value = attributes.get(self.context_attribute, PLACEHOLDER)
        if value == PLACEHOLDER or value not in self.models:
            return GLOBAL_LABEL
        return value


def verify(
    scene: LabelGrid | Scene,
    registry: VerifierRegistry,
    attributes: Mapping[str, str] | None = None,
) -> Verdict:
    """Verify one label map, dispatching to the context-specific detector.

    A LabelGrid is labelled with DEFAULT_MIN_AREA, as `prepare_all`
    labels it, and related and histogrammed only when it has a pair: a map
    of fewer than two objects goes from the component pass of labelling
    straight to `aggregate` with no margins, which abstains, and gets no
    object table.
    """
    image_id = scene.image_id
    if isinstance(scene, LabelGrid):
        components = _components([scene])
        if components.count(DEFAULT_MIN_AREA) < 2:
            scene = None
        else:
            (objects,) = _tables(components, DEFAULT_MIN_AREA)
            scene = _scene(scene, objects, shape_histogram(scene, objects))
    label = registry.resolve(attributes)
    pairs, margins = _NO_PAIRS, np.zeros(0)
    if scene is not None:
        detector = registry.global_detector if label == GLOBAL_LABEL else registry.models[label]
        pairs = scene.pairs
        X = featurize(pairs, scene.objects, scene.hists, detector.stats, detector.prototypes)
        margins = score(detector.model, X)
    contradiction, confidence = aggregate(margins)
    return Verdict(
        image_id=image_id,
        a_index=pairs.a_index,
        b_index=pairs.b_index,
        margins=margins,
        contradiction=contradiction,
        confidence=confidence,
        model_used=label,
    )


def _prototypes_for(scenes: list[Scene], stats: CooccurrenceModel) -> np.ndarray:
    """The prototype table of `scenes` on the rows of `stats`, the prior's
    row n included: each class's histograms summed in scene and object
    order, divided by their count; uniform for a row no object has."""
    rows = stats.class_rows(np.concatenate([scene.objects.class_id for scene in scenes]))
    sums = np.zeros((len(stats.class_array), SHAPE_BINS))
    np.add.at(sums, rows, np.concatenate([scene.hists for scene in scenes]))
    counts = np.bincount(rows, minlength=len(stats.class_array))[:, None]
    return np.where(counts > 0, sums / np.maximum(counts, 1), 1.0 / SHAPE_BINS)


def train_registry(corpus, context_attribute: str | None, seed: int = 0) -> VerifierRegistry:
    """Train the global detector and one per `context_attribute` value in `corpus.attributes()`.

    Every train map is labelled with DEFAULT_MIN_AREA.  Each contributes
    its pairs as valid examples and, when it has at least two objects,
    CONTRADICTIONS_PER_IMAGE seeded object-removal twins as contradiction
    examples (one image-level label shared by all pairs of a scene).
    Every detector's statistics are smoothed with `stats.ALPHA_DEFAULT`
    and its model fitted with HYPERPARAMS.  Context values with fewer than
    N_MIN_CONTEXT train images get no model and fall back to global.
    Each train scene is counted once, into the builder of its context
    value (placeholder and values below N_MIN_CONTEXT included); `finalize`
    sums all those builders into the global statistics.  Raises
    SchemaError when `attributes.json` lacks the context attribute (naming
    the file) or gives it the value GLOBAL_LABEL, which names the global
    detector.  The registry holds no verdict rule: every verdict is the
    majority vote of `aggregate`.
    """
    train_ids = sorted(corpus.split_ids("train"))

    # Each train image's context value, read once, aligned with train_ids.
    values: list[str | None] = [None] * len(train_ids)
    if context_attribute is not None:
        table = corpus.attributes()
        values = [table.value(i, context_attribute) for i in train_ids]
        del table  # it holds every annotation of the corpus: not kept through training
        if GLOBAL_LABEL in values:
            raise SchemaError(
                f"context attribute {context_attribute!r} takes the value "
                f"{GLOBAL_LABEL!r}, which names the global detector"
            )

    # Each train scene and the objects its twins remove, by the rule of
    # `corpus.paint_removal`.  A twin's feature rows are its source's rows
    # of the pairs without the removed object, bit for bit, so no twin
    # map is painted or prepared.  Each scene is counted once, into the
    # builder of its context value, made on that value's first scene.
    scenes: list[Scene] = []
    removed: list[list[int]] = []
    builders: dict[str | None, StatsBuilder] = {}
    grids = map(corpus.grid, train_ids)
    for idx, (value, scene) in enumerate(zip(values, prepare_all(grids))):
        n = len(scene.objects)
        scenes.append(scene)
        if value not in builders:
            builders[value] = StatsBuilder.for_classes(corpus.class_map)
        accumulate(builders[value], scene.objects, scene.pairs)
        removed.append(
            [
                _removed_index(n, derive_seed(seed, _TRAIN_TAG, idx, j))
                for j in range(CONTRADICTIONS_PER_IMAGE)
            ]
            if n >= 2
            else []
        )

    # A scope: its label, its scenes' indices in train order, its statistics.
    scopes = [(GLOBAL_LABEL, range(len(train_ids)), finalize(*builders.values()))]
    for value in sorted(v for v in builders if v not in (None, PLACEHOLDER)):
        members = [i for i, v in enumerate(values) if v == value]
        if len(members) >= N_MIN_CONTEXT:
            scopes.append((value, members, finalize(builders[value])))

    trained: dict[str, Detector] = {}
    for scope_idx, (label, members, scope_stats) in enumerate(scopes):
        protos = _prototypes_for([scenes[i] for i in members], scope_stats)
        features: list[np.ndarray] = []
        labels: list[int] = []
        for i in members:
            scene = scenes[i]
            X = featurize(scene.pairs, scene.objects, scene.hists, scope_stats, protos)
            features.append(X)
            labels.extend([-1] * len(X))
            a, b = scene.pairs.a_index, scene.pairs.b_index
            for k in removed[i]:
                twin = X[(a != k) & (b != k)]
                features.append(twin)
                labels.extend([+1] * len(twin))
        model = train_linear(
            np.concatenate(features),
            labels,
            seed=derive_seed(seed, _MODEL_TAG, scope_idx),
            context_label=label,
        )
        trained[label] = Detector(model, scope_stats, protos)

    return VerifierRegistry(
        context_attribute=context_attribute,
        global_detector=trained.pop(GLOBAL_LABEL),
        models=trained,
    )
