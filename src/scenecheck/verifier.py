"""Contradiction detection over pair feature vectors.

A scene's ordered object pairs become the rows of one (n_pairs, 7)
feature matrix, read from the co-occurrence tables; a linear max-margin
classifier (hinge loss plus L2, plain SGD, trained from scratch) scores
all rows in one call, and per-image verdicts come from majority voting
or a mean-margin threshold over the pair margins.

A label map is labelled once into a Scene: its objects, their pair
table and their shape histograms.  `Scene.without(k)` derives the
object-removal twin of a scene from it, with no re-labelling, and
`train_registry` and the `evaluate` command score prepared scenes and
their twins.

A VerifierRegistry holds one global Detector (linear model,
statistics and shape prototypes) plus one per context value; `verify`
dispatches on the image's context attribute and falls back to the
global detector whenever the context is missing, placeholder-valued,
or untrained.  It takes a label grid, which it
prepares with the registry's parameters, or a Scene prepared with them.

Featurization and scoring are pure; training is single-threaded and
fully determined by its inputs and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .context import PLACEHOLDER, AttributeTable, partition_corpus
from .errors import (
    DegenerateTrainingError,
    DimensionError,
    EmptyCorpusError,
    SchemaError,
)
from .labelgrid import DEFAULT_MIN_AREA, LabelGrid, SceneObject, extract_objects
from .relations import (
    SHAPE_BINS,
    SHAPE_SAMPLES,
    PairTable,
    relations_for_objects,
    shape_histogram,
)
from .seeds import derive_seed
from .stats import ALPHA_DEFAULT, CooccurrenceModel, StatsBuilder, accumulate, finalize

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
AGGREGATION_MODES = ("majority", "mean_threshold")

_TRAIN_TAG = 101
_MODEL_TAG = 102


@dataclass(frozen=True, eq=False)
class Scene:
    """One label map, labelled once: its objects, their ordered pairs and
    their shape histograms, with the parameters it was built with.

    `objects[i].object_id == i`, the pair table indexes `objects`, and
    `hists` is the read-only `(len(objects), shape_bins)` array of
    `shape_histogram`, whose row i belongs to `objects[i]`.
    """

    image_id: str
    objects: tuple[SceneObject, ...]
    pairs: PairTable
    hists: np.ndarray
    min_area: int
    shape_samples: int
    shape_bins: int

    @property
    def params(self) -> tuple[int, int, int]:
        return (self.min_area, self.shape_samples, self.shape_bins)

    def without(self, k: int) -> "Scene":
        """This scene with object `k` painted background, derived without re-labelling.

        Equal to preparing the map with object k's pixels cleared:
        clearing an object cannot merge or split another component, every
        pair column and histogram depends only on its own objects and the
        grid size, and the survivors keep their raster order, so their
        ids become their new list index.
        """
        if not 0 <= k < len(self.objects):
            raise IndexError(f"object {k} is not in a scene of {len(self.objects)}")
        objects = self.objects[:k] + tuple(
            replace(o, object_id=i) for i, o in enumerate(self.objects[k + 1 :], k)
        )
        p = self.pairs
        keep = (p.a_index != k) & (p.b_index != k)
        a, b = p.a_index[keep], p.b_index[keep]
        pairs = PairTable(
            a_index=a - (a > k),
            b_index=b - (b > k),
            a_class=p.a_class[keep],
            b_class=p.b_class[keep],
            rpos=p.rpos[keep],
            rprox=p.rprox[keep],
            rsize=p.rsize[keep],
            rdist=p.rdist[keep],
            rdist_bin=p.rdist_bin[keep],
        )
        hists = np.concatenate((self.hists[:k], self.hists[k + 1 :]))
        hists.flags.writeable = False
        return replace(self, objects=objects, pairs=pairs, hists=hists)


def prepare(
    grid: LabelGrid,
    min_area: int = DEFAULT_MIN_AREA,
    shape_samples: int = SHAPE_SAMPLES,
    shape_bins: int = SHAPE_BINS,
) -> Scene:
    """Label the grid once: objects, their pair table and their shape histograms."""
    objects = tuple(extract_objects(grid, min_area))
    return Scene(
        image_id=grid.image_id,
        objects=objects,
        pairs=relations_for_objects(grid, objects),
        hists=shape_histogram(objects, shape_samples, shape_bins),
        min_area=min_area,
        shape_samples=shape_samples,
        shape_bins=shape_bins,
    )


@dataclass(frozen=True)
class Hyperparams:
    learning_rate: float = 0.01
    epochs: int = 50
    l2_lambda: float = 1e-3

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass(frozen=True)
class LinearModel:
    """Linear margin classifier with the standardization fitted at training."""

    weights: tuple[float, ...]
    bias: float
    feature_means: tuple[float, ...]
    feature_stds: tuple[float, ...]
    hyperparams: Hyperparams
    seed: int
    n_pos: int
    n_neg: int
    context_label: str


@dataclass(frozen=True)
class Verdict:
    """Per-image verification outcome."""

    image_id: str
    pair_scores: tuple[tuple[int, int, float], ...]
    contradiction: bool
    confidence: float
    model_used: str

    def to_dict(self) -> dict:
        return {
            "image_id": self.image_id,
            "contradiction": self.contradiction,
            "confidence": self.confidence,
            "model_used": self.model_used,
            "pair_scores": [
                {"a": a, "b": b, "margin": m} for a, b, m in self.pair_scores
            ],
        }


def featurize(
    pairs: PairTable,
    objects: Sequence[SceneObject],
    hists: np.ndarray,
    stats: CooccurrenceModel,
    prototypes: Mapping[int, tuple[float, ...]],
) -> np.ndarray:
    """Evaluate the co-occurrence tables at every pair: one row per pair.

    `hists` holds one histogram row per object, in the order of `objects`.
    The shape term is the L1 distance between object A's histogram and
    the mean histogram of its class; classes without a prototype compare
    against the uniform histogram.  It is computed once per object, as
    the row sums of one (n_objects, n_bins) difference.
    Raises UnknownClassError when a paired object's class is outside
    the statistics.
    """
    if not len(pairs):
        return np.empty((0, N_FEATURES))
    rows = stats.class_rows([o.class_id for o in objects])
    a, b = rows[pairs.a_index], rows[pairs.b_index]
    n_bins = hists.shape[1]
    uniform = (1.0 / n_bins,) * n_bins
    shape = np.abs(
        hists
        - np.array([prototypes.get(o.class_id, uniform) for o in objects])
    ).sum(axis=1)
    return np.column_stack(
        [
            stats.presence_table[a, b],
            stats.position_table[a, b, pairs.rpos],
            stats.proximity_table[a, b, pairs.rprox],
            stats.distance_table[a, b, pairs.rdist_bin],
            np.abs((pairs.rsize - stats.size_mean[a, b]) / stats.size_std[a, b]),
            pairs.rdist,
            shape[pairs.a_index],
        ]
    )


def train_linear(
    features,
    labels,
    hyperparams: Hyperparams | None = None,
    seed: int = 0,
    context_label: str = GLOBAL_LABEL,
) -> LinearModel:
    """Fit the hinge-loss linear classifier with seeded SGD.

    Labels use +1 for contradiction and -1 for valid.  Standardization
    is fitted on the training features (stds floored at 1e-6); samples
    are visited in a seeded shuffle per epoch for a fixed epoch count,
    so identical inputs and seed give bit-identical models.
    """
    hp = hyperparams or Hyperparams()
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
    w = np.zeros(X.shape[1])
    b = 0.0
    lr, lam = hp.learning_rate, hp.l2_lambda
    # One step is `w -= lr * (lam * w - y_i * z_i)` on a margin below 1
    # and `w -= lr * lam * w` otherwise, evaluated in that order into a
    # scratch vector (the ufuncs' third argument is `out`), so a step
    # allocates no array data, only the row views it reads.
    signs = y.tolist()
    signed = y[:, None] * Z
    decay = lr * lam
    tmp = np.empty_like(w)
    # Tail-averaged iterates: the raw SGD endpoint oscillates on noisy
    # margins, the average over the last half of the epochs does not.
    w_avg = np.zeros_like(w)
    b_avg = 0.0
    averaged = 0
    tail_start = hp.epochs - max(1, hp.epochs // 2)
    for epoch in range(hp.epochs):
        for i in rng.permutation(len(Z)).tolist():
            yi = signs[i]
            if yi * (float(w.dot(Z[i])) + b) < 1.0:
                np.multiply(w, lam, tmp)
                np.subtract(tmp, signed[i], tmp)
                np.multiply(tmp, lr, tmp)
                b += lr * yi
            else:
                np.multiply(w, decay, tmp)
            np.subtract(w, tmp, w)
        if epoch >= tail_start:
            w_avg += w
            b_avg += b
            averaged += 1
    w = w_avg / averaged
    b = b_avg / averaged
    return LinearModel(
        weights=tuple(float(v) for v in w),
        bias=float(b),
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

    `np.vecdot` sums each row in the order a one-row `w @ z` does, so
    each margin does not depend on the other rows (`Z @ w` can differ
    from it in the last bit).
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.weights):
        raise DimensionError(
            f"feature matrix of shape {X.shape} does not match model "
            f"dimension {len(model.weights)}"
        )
    Z = (X - np.asarray(model.feature_means)) / np.asarray(model.feature_stds)
    return np.vecdot(Z, np.asarray(model.weights, dtype=np.float64)) + model.bias


def aggregate(pair_scores, mode: str = "majority") -> tuple[bool, float]:
    """Combine pair margins into an image verdict.

    majority: contradiction iff strictly more than half the margins are
    positive; confidence is the fraction of pairs agreeing with the
    verdict.  mean_threshold: contradiction iff the mean margin is
    positive; confidence is logistic(mean margin).  No pairs at all
    (a 0- or 1-object scene) abstains with (False, 0.5).
    """
    margins = list(pair_scores)
    if not margins:
        return False, 0.5
    if mode == "majority":
        pos = sum(1 for m in margins if m > 0)
        contradiction = 2 * pos > len(margins)
        agreeing = pos if contradiction else len(margins) - pos
        return contradiction, agreeing / len(margins)
    if mode == "mean_threshold":
        mean = sum(margins) / len(margins)
        return mean > 0, float(1.0 / (1.0 + np.exp(-mean)))
    raise ValueError(f"unknown aggregation mode {mode!r}")


@dataclass(frozen=True)
class Detector:
    """One scope's detector: its classifier, the co-occurrence statistics
    it featurizes against and its per-class shape prototypes."""

    model: LinearModel
    stats: CooccurrenceModel
    prototypes: dict[int, tuple[float, ...]]


@dataclass(frozen=True)
class VerifierRegistry:
    """The global Detector plus one Detector per trained context value.

    `models` is keyed by exactly the context values that were trained;
    every other value falls back to `global_detector`.
    """

    context_attribute: str | None
    aggregation_mode: str
    min_area: int
    shape_samples: int
    shape_bins: int
    global_detector: Detector
    models: dict[str, Detector] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.aggregation_mode not in AGGREGATION_MODES:
            raise ValueError(f"unknown aggregation mode {self.aggregation_mode!r}")

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

    A LabelGrid is prepared with the registry's min_area and shape
    parameters; a Scene must have been prepared with those same
    parameters, or ValueError is raised.
    """
    params = (registry.min_area, registry.shape_samples, registry.shape_bins)
    if isinstance(scene, LabelGrid):
        scene = prepare(scene, *params)
    elif scene.params != params:
        raise ValueError(
            f"scene prepared with (min_area, shape_samples, shape_bins) = {scene.params}, "
            f"registry uses {params}"
        )
    label = registry.resolve(attributes)
    detector = registry.global_detector if label == GLOBAL_LABEL else registry.models[label]
    pairs = scene.pairs
    X = featurize(pairs, scene.objects, scene.hists, detector.stats, detector.prototypes)
    margins = score(detector.model, X).tolist()
    pair_scores = tuple(zip(pairs.a_index.tolist(), pairs.b_index.tolist(), margins))
    contradiction, confidence = aggregate(margins, registry.aggregation_mode)
    return Verdict(
        image_id=scene.image_id,
        pair_scores=pair_scores,
        contradiction=contradiction,
        confidence=confidence,
        model_used=label,
    )


def build_stats(
    scenes: Iterable[Scene], classes: Iterable[int], alpha: float = ALPHA_DEFAULT
) -> CooccurrenceModel:
    """Co-occurrence statistics of prepared scenes over the class universe `classes`."""
    builder = StatsBuilder.for_classes(classes)
    for scene in scenes:
        accumulate(builder, scene.objects, scene.pairs)
    return finalize(builder, alpha)


def _prototypes_for(scenes: list[Scene]) -> dict[int, tuple[float, ...]]:
    sums: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for scene in scenes:
        for obj, values in zip(scene.objects, scene.hists):
            if obj.class_id in sums:
                sums[obj.class_id] += values
                counts[obj.class_id] += 1
            else:
                sums[obj.class_id] = values.copy()
                counts[obj.class_id] = 1
    return {
        c: tuple(float(v) for v in sums[c] / counts[c]) for c in sorted(sums)
    }


def train_registry(
    corpus,
    attribute_table: AttributeTable | None,
    context_attribute: str | None,
    hyperparams: Hyperparams | None = None,
    seed: int = 0,
    *,
    contradictions_per_image: int = CONTRADICTIONS_PER_IMAGE,
    min_area: int = DEFAULT_MIN_AREA,
    n_min: int = N_MIN_CONTEXT,
    aggregation_mode: str = "majority",
    alpha: float = ALPHA_DEFAULT,
    shape_samples: int = SHAPE_SAMPLES,
    shape_bins: int = SHAPE_BINS,
) -> VerifierRegistry:
    """Train the global detector and one detector per context value.

    Every train image contributes its pairs as valid examples and, when
    it has at least two objects, `contradictions_per_image` seeded
    object-removal twins as contradiction examples (one image-level
    label shared by all pairs of a scene).  Context values with fewer
    than `n_min` train images get no model and fall back to global.
    Raises SchemaError when the context attribute takes the value
    GLOBAL_LABEL, which would name the global detector.
    """
    from .corpus import derive_contradiction

    train_ids = sorted(corpus.image_ids("train"))
    if not train_ids:
        raise EmptyCorpusError("train split is empty")

    scenes: dict[str, Scene] = {}
    twins: dict[str, list[Scene]] = {}
    for idx, image_id in enumerate(train_ids):
        scene = prepare(corpus.grid(image_id), min_area, shape_samples, shape_bins)
        scenes[image_id] = scene
        twins[image_id] = (
            [
                derive_contradiction(scene, derive_seed(seed, _TRAIN_TAG, idx, j))[0]
                for j in range(contradictions_per_image)
            ]
            if len(scene.objects) >= 2
            else []
        )

    scopes: list[tuple[str, list[str]]] = [(GLOBAL_LABEL, train_ids)]
    if context_attribute is not None:
        if attribute_table is None:
            raise ValueError("context training requires an attribute table")
        groups = partition_corpus(train_ids, attribute_table, context_attribute)
        if GLOBAL_LABEL in groups:
            raise SchemaError(
                f"context attribute {context_attribute!r} takes the value "
                f"{GLOBAL_LABEL!r}, which names the global detector"
            )
        for value in sorted(groups):
            if value != PLACEHOLDER and len(groups[value]) >= n_min:
                scopes.append((value, sorted(groups[value])))

    trained: dict[str, Detector] = {}
    for scope_idx, (label, ids) in enumerate(scopes):
        scope_scenes = [scenes[i] for i in ids]
        scope_stats = build_stats(scope_scenes, corpus.class_map, alpha)
        protos = _prototypes_for(scope_scenes)
        features: list[np.ndarray] = []
        labels: list[int] = []
        for image_id in ids:
            for scene, y in [(scenes[image_id], -1)] + [
                (t, +1) for t in twins[image_id]
            ]:
                X = featurize(scene.pairs, scene.objects, scene.hists, scope_stats, protos)
                features.append(X)
                labels.extend([y] * len(X))
        model = train_linear(
            np.concatenate(features),
            labels,
            hyperparams,
            seed=derive_seed(seed, _MODEL_TAG, scope_idx),
            context_label=label,
        )
        trained[label] = Detector(model, scope_stats, protos)

    return VerifierRegistry(
        context_attribute=context_attribute,
        aggregation_mode=aggregation_mode,
        min_area=min_area,
        shape_samples=shape_samples,
        shape_bins=shape_bins,
        global_detector=trained.pop(GLOBAL_LABEL),
        models=trained,
    )
