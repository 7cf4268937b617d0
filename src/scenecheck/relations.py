"""Pairwise relational observations between scene objects.

Four channels are computed for every ordered object pair: position
octant (direction of the A -> B centroid vector), proximity label,
size log-ratio, and normalized centroid distance.  A scene's pairs
come out together as the columns of one PairTable; the scalar
functions (`octant`, `contact`, `proximity_relation`, ...) define each
channel for a single pair.  Per-object shape is summarized as a
histogram of normalized boundary-to-centroid distances.

All operations are pure functions with no shared mutable state.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, fields
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import DegeneratePairError
from .labelgrid import LabelGrid, SceneObject

# Octant labels indexed so that label k spans the half-open 45-degree
# sector [k*45 - 22.5, k*45 + 22.5) with "up" = decreasing row.
OCTANTS = ("E", "NE", "N", "NW", "W", "SW", "S", "SE")

PROXIMITY_LABELS = ("ON", "UNDER", "FRONT", "BACK", "BESIDE", "NONE")

K_DIST = 5
ROW_EPS_FRACTION = 0.05
SHAPE_SAMPLES = 64
SHAPE_BINS = 16
_DIAGONAL = math.hypot(1.0, 1.0)
# Scenes with at least this many objects get their shape histograms in one
# batched pass; below it the batch's fixed cost outweighs what it saves.
_BATCH_MIN = 3


@dataclass(frozen=True, eq=False)
class PairTable:
    """Relational observations for every ordered pair of one scene's objects.

    Row k describes the ordered pair (objects[a_index[k]],
    objects[b_index[k]]).  `rpos` and `rprox` are codes into OCTANTS and
    PROXIMITY_LABELS.  Every column is a read-only array with one entry
    per pair.
    """

    a_index: np.ndarray
    b_index: np.ndarray
    a_class: np.ndarray
    b_class: np.ndarray
    rpos: np.ndarray
    rprox: np.ndarray
    rsize: np.ndarray
    rdist: np.ndarray
    rdist_bin: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.a_index)


@dataclass(frozen=True)
class ShapeHistogram:
    """Frequencies of normalized boundary-point distances from the centroid."""

    bins: tuple[float, ...]

    def to_array(self) -> np.ndarray:
        return np.asarray(self.bins, dtype=np.float64)


def octant(a_centroid: tuple[float, float], b_centroid: tuple[float, float]) -> str:
    """Classify the direction from A's centroid to B's into a compass octant.

    Raises DegeneratePairError when the centroids coincide.
    """
    dr = b_centroid[0] - a_centroid[0]
    dc = b_centroid[1] - a_centroid[1]
    if dr == 0.0 and dc == 0.0:
        raise DegeneratePairError("identical centroids have no direction")
    theta = math.degrees(math.atan2(-dr, dc))
    return OCTANTS[math.floor((theta + 22.5) / 45.0) % 8]


def opposite_octant(label: str) -> str:
    return OCTANTS[(OCTANTS.index(label) + 4) % 8]


def _rows(obj: SceneObject, first: int, last: int) -> tuple[tuple[int, int], ...]:
    """The pixels of `obj` in rows first..last; `pixels` is in raster order."""
    pixels = obj.pixels
    return pixels[bisect_left(pixels, (first, -1)) : bisect_left(pixels, (last + 1, -1))]


def contact(a: SceneObject, b: SceneObject) -> bool:
    """True iff some pixel of A and some pixel of B are within Chebyshev distance 1."""
    small, large = (a, b) if a.pixel_count <= b.pixel_count else (b, a)
    # Quick reject: bounding boxes further than 1 apart cannot touch.
    if (
        small.bbox[0] > large.bbox[2] + 1
        or large.bbox[0] > small.bbox[2] + 1
        or small.bbox[1] > large.bbox[3] + 1
        or large.bbox[1] > small.bbox[3] + 1
    ):
        return False
    # Only rows within 1 of the other object's bbox can hold a touching pixel.
    large_px = set(_rows(large, small.bbox[0] - 1, small.bbox[2] + 1))
    for r, c in _rows(small, large.bbox[0] - 1, large.bbox[2] + 1):
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if (r + dr, c + dc) in large_px:
                    return True
    return False


def _strictly_inside(inner: tuple[int, int, int, int], outer: tuple[int, int, int, int]) -> bool:
    return (
        inner[0] > outer[0]
        and inner[1] > outer[1]
        and inner[2] < outer[2]
        and inner[3] < outer[3]
    )


def proximity_relation(
    a: SceneObject, b: SceneObject, in_contact: bool, image_height: int
) -> str:
    """Assign one of ON/UNDER/FRONT/BACK/BESIDE/NONE to the ordered pair (A, B).

    Containment (FRONT/BACK, via strict bounding-box nesting) takes
    precedence over the contact-based vertical labels; the vertical
    dead-band is 5% of the image height.
    """
    if _strictly_inside(a.bbox, b.bbox):
        return "FRONT"
    if _strictly_inside(b.bbox, a.bbox):
        return "BACK"
    if in_contact:
        eps = ROW_EPS_FRACTION * image_height
        if a.centroid[0] < b.centroid[0] - eps:
            return "ON"
        if a.centroid[0] > b.centroid[0] + eps:
            return "UNDER"
        return "BESIDE"
    return "NONE"


def size_log_ratio(a: SceneObject, b: SceneObject) -> float:
    """ln(pixel_count(A) / pixel_count(B)), exactly antisymmetric in (A, B)."""
    return math.log(a.pixel_count) - math.log(b.pixel_count)


def norm_distance(a: SceneObject, b: SceneObject, grid: LabelGrid) -> float:
    """Euclidean centroid distance divided by the image diagonal; lies in [0, 1]."""
    d = math.hypot(a.centroid[0] - b.centroid[0], a.centroid[1] - b.centroid[1])
    return d / grid.diagonal()


def distance_bin(rdist: float, k_dist: int = K_DIST) -> int:
    return min(int(rdist * k_dist), k_dist - 1)


def shape_histogram(
    objects: Sequence[SceneObject],
    n_samples: int = SHAPE_SAMPLES,
    n_bins: int = SHAPE_BINS,
) -> tuple[ShapeHistogram, ...]:
    """Histograms of boundary-point distances to the centroid, one per object.

    Each object's traced boundary cycle is resampled at `n_samples`
    points of equal arc-length spacing; distances are normalized by the
    maximum sampled distance and binned into `n_bins` equal-width bins
    over [0, 1] (the value 1.0 falls in the last bin).  A single-pixel
    object degenerates to all mass in the last bin.

    All geometry is computed in bbox-relative coordinates, which are
    invariant under integer translation, so translated copies of an
    object produce bit-identical histograms.  The centroid is read from
    `obj.centroid`, which must be the mean pixel position, as
    `extract_objects` sets it.

    Scenes of `_BATCH_MIN` or more objects are computed in one pass over
    all their boundaries, padded to one array; each object's histogram
    is bit-identical to the one it gets on its own.
    """
    if len(objects) < _BATCH_MIN:
        return tuple(_one_histogram(o, n_samples, n_bins) for o in objects)
    return _batched_histograms(objects, n_samples, n_bins)


def _hypot(dr: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """Elementwise `math.hypot` of two 1-D arrays.

    Not `np.hypot`: a last-bit difference can move a sample across a bin
    edge.
    """
    return np.fromiter(map(math.hypot, dr.tolist(), dc.tolist()), np.float64, len(dr))


def _relative_centroid(obj: SceneObject) -> tuple[float, float]:
    """`obj.centroid` relative to its bbox corner, exactly.

    The centroid is an integer coordinate sum over n, so rounding it
    times n recovers that sum exactly (for sums below 2**51).  The exact
    bbox-relative sum over n equals the float64 mean of the
    bbox-relative coordinates bit for bit.
    """
    n = obj.pixel_count
    r0, c0 = obj.bbox[0], obj.bbox[1]
    return (
        (round(obj.centroid[0] * n) - n * r0) / n,
        (round(obj.centroid[1] * n) - n * c0) / n,
    )


def _one_histogram(obj: SceneObject, n_samples: int, n_bins: int) -> ShapeHistogram:
    """`shape_histogram` of a single object."""
    cy, cx = _relative_centroid(obj)
    if len(obj.boundary) == 1:
        samples = np.zeros(n_samples)
    else:
        closed = np.array(obj.boundary + obj.boundary[:1], dtype=np.float64)
        closed -= obj.bbox[:2]
        # Consecutive boundary points are 8-adjacent: a step is 1 or a diagonal.
        step = closed[1:] - closed[:-1]
        seg = np.where((step[:, 0] != 0) & (step[:, 1] != 0), _DIAGONAL, 1.0)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        total = cum[-1]
        targets = np.arange(n_samples) * (total / n_samples)
        idx = np.searchsorted(cum, targets, side="right") - 1
        idx = np.minimum(np.maximum(idx, 0), len(seg) - 1)
        frac = (targets - cum[idx]) / seg[idx]
        p, q = closed[idx], closed[idx + 1]
        r = p[:, 0] + frac * (q[:, 0] - p[:, 0])
        c = p[:, 1] + frac * (q[:, 1] - p[:, 1])
        samples = _hypot(r - cy, c - cx)
    max_d = samples.max() if len(samples) else 0.0
    if max_d <= 0.0:
        normalized = np.ones(n_samples)
    else:
        normalized = samples / max_d
    bins = np.minimum((normalized * n_bins).astype(np.int64), n_bins - 1)
    freqs = np.bincount(bins, minlength=n_bins) / float(n_samples)
    return ShapeHistogram(tuple(freqs.tolist()))


def _batched_histograms(
    objects: Sequence[SceneObject], n_samples: int, n_bins: int
) -> tuple[ShapeHistogram, ...]:
    """`_one_histogram` of every object, computed for all of them at once.

    Row k holds object k's boundary followed by its first point, repeated
    to the longest cycle's length: the closing step, then zero-length
    padding whose arc length is set to 0.  Every per-row operation is
    the 1-D one: `cumsum(axis=1)` adds each row left to right as the 1-D
    `cumsum` does and a padded step adds exactly 0.0, so a row's arc
    lengths and total are the object's own.  A single pixel is one
    zero-length step of arc length 1 at its own bbox-relative centroid,
    so all its samples are 0, as in the 1-D special case.
    """
    k = len(objects)
    lengths = np.array([len(o.boundary) for o in objects])
    starts = np.cumsum(lengths) - lengths
    width = int(lengths.max()) + 1
    flat = chain.from_iterable(chain.from_iterable(o.boundary for o in objects))
    points = np.fromiter(flat, np.int64, 2 * int(lengths.sum())).reshape(-1, 2)
    points -= np.repeat(np.array([o.bbox[:2] for o in objects]), lengths, axis=0)
    # closed[0] holds the rows and closed[1] the columns, one object per row.
    closed = np.empty((2, k, width))
    closed[:] = points[starts].T[:, :, None]
    row_of = np.repeat(np.arange(k), lengths)
    col_of = np.arange(len(points)) - np.repeat(starts, lengths)
    closed[:, row_of, col_of] = points.T
    # Consecutive boundary points are 8-adjacent: a step is 1 or a diagonal.
    step = closed[:, :, 1:] - closed[:, :, :-1]
    seg = np.where((step[0] != 0) & (step[1] != 0), _DIAGONAL, 1.0)
    seg[np.arange(width - 1) >= lengths[:, None]] = 0.0
    cum = np.zeros((k, width))
    np.cumsum(seg, axis=1, out=cum[:, 1:])
    targets = np.arange(n_samples) * (cum[:, -1:] / n_samples)
    # Every target lies in [0, total), so idx lies in [0, length - 1].
    idx = np.array([np.searchsorted(c, t, side="right") for c, t in zip(cum, targets)]) - 1
    frac = (targets - np.take_along_axis(cum, idx, 1)) / np.take_along_axis(seg, idx, 1)
    at = idx + np.arange(0, k * width, width)[:, None]  # into closed[0] and closed[1] flat
    rc = closed.reshape(2, -1)
    p, q = rc[:, at], rc[:, at + 1]
    r = p[0] + frac * (q[0] - p[0])
    c = p[1] + frac * (q[1] - p[1])
    centroids = np.array([_relative_centroid(o) for o in objects])
    r -= centroids[:, :1]
    c -= centroids[:, 1:]
    samples = _hypot(r.ravel(), c.ravel()).reshape(k, n_samples)
    max_d = samples.max(axis=1, keepdims=True, initial=0.0)
    normalized = np.ones((k, n_samples))
    np.divide(samples, max_d, out=normalized, where=max_d > 0.0)
    bins = np.minimum((normalized * n_bins).astype(np.int64), n_bins - 1)
    bins += np.arange(0, k * n_bins, n_bins)[:, None]
    counts = np.bincount(bins.ravel(), minlength=k * n_bins).reshape(k, n_bins)
    freqs = counts / float(n_samples)
    return tuple(ShapeHistogram(tuple(f)) for f in freqs.tolist())


def _contact_matrix(objects: list[SceneObject], bbox: np.ndarray) -> np.ndarray:
    """Symmetric (n, n) `contact` matrix; pixels are compared only for
    pairs whose bounding boxes come within 1 of each other."""
    r0, c0, r1, c1 = bbox.T
    near = (
        (r0[:, None] <= r1 + 1)
        & (r0 <= r1[:, None] + 1)
        & (c0[:, None] <= c1 + 1)
        & (c0 <= c1[:, None] + 1)
    )
    touching = np.zeros(near.shape, dtype=bool)
    for i, j in np.argwhere(np.triu(near, 1)).tolist():
        touching[i, j] = touching[j, i] = contact(objects[i], objects[j])
    return touching


_NO_PAIRS = PairTable(
    **{
        f.name: np.zeros(0, dtype=np.float64 if f.name in ("rsize", "rdist") else np.int64)
        for f in fields(PairTable)
    }
)


def relations_for_objects(grid: LabelGrid, objects: list[SceneObject]) -> PairTable:
    """Relations for every ordered pair of distinct objects, in id order.

    Rows run over A, then B, like a nested loop over `objects`.  Every
    column equals the scalar channel functions bit for bit: angles and
    distances go through `math.atan2` and `math.hypot` pair by pair, and
    the remaining arithmetic is the same IEEE operations on arrays.
    Raises DegeneratePairError when two objects share a centroid.
    """
    if len(objects) < 2:
        return _NO_PAIRS
    ids = np.array([o.object_id for o in objects], dtype=np.int64)
    classes = np.array([o.class_id for o in objects], dtype=np.int64)
    centroid = np.array([o.centroid for o in objects], dtype=np.float64)
    bbox = np.array([o.bbox for o in objects], dtype=np.int64)
    log_size = np.array([math.log(o.pixel_count) for o in objects], dtype=np.float64)
    a, b = np.nonzero(ids[:, None] != ids)

    dr = centroid[b, 0] - centroid[a, 0]
    dc = centroid[b, 1] - centroid[a, 1]
    if np.any((dr == 0.0) & (dc == 0.0)):
        raise DegeneratePairError("identical centroids have no direction")
    theta = np.array(
        list(map(math.degrees, map(math.atan2, (-dr).tolist(), dc.tolist()))),
        dtype=np.float64,
    )
    # hypot ignores signs, so (dr, dc) gives the A - B distance exactly.
    rdist = np.array(list(map(math.hypot, dr.tolist(), dc.tolist())), dtype=np.float64)
    rdist /= grid.diagonal()

    # Proximity over (A, B) matrices, in `proximity_relation`'s order of
    # precedence: containment, then contact with the vertical dead-band.
    label = PROXIMITY_LABELS.index
    r0, c0, r1, c1 = bbox.T
    nested = (r0[:, None] > r0) & (c0[:, None] > c0) & (r1[:, None] < r1) & (c1[:, None] < c1)
    row = centroid[:, 0]
    eps = ROW_EPS_FRACTION * grid.height
    prox = np.where(
        row[:, None] < row - eps,
        label("ON"),
        np.where(row[:, None] > row + eps, label("UNDER"), label("BESIDE")),
    )
    prox = np.where(_contact_matrix(objects, bbox), prox, label("NONE"))
    prox = np.where(nested.T, label("BACK"), prox)
    prox = np.where(nested, label("FRONT"), prox)

    return PairTable(
        a_index=a,
        b_index=b,
        a_class=classes[a],
        b_class=classes[b],
        rpos=np.floor((theta + 22.5) / 45.0).astype(np.int64) % 8,
        rprox=prox[a, b].astype(np.int64),
        rsize=log_size[a] - log_size[b],
        rdist=rdist,
        rdist_bin=np.minimum((rdist * K_DIST).astype(np.int64), K_DIST - 1),
    )
