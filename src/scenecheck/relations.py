"""Pairwise relational observations between scene objects.

Four channels are computed for every ordered object pair: position
octant (direction of the A -> B centroid vector), proximity label,
size log-ratio, and normalized centroid distance.  Per-object shape is
summarized as a histogram of normalized boundary-to-centroid distances.

All operations are pure functions with no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class PairRelation:
    """Relational observation for one ordered object pair (A, B)."""

    a_id: int
    b_id: int
    a_class: int
    b_class: int
    rpos: str
    rprox: str
    rsize: float
    rdist: float
    rdist_bin: int


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


def contact(grid: LabelGrid, a: SceneObject, b: SceneObject) -> bool:
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
    large_px = set(large.pixels)
    for r, c in small.pixels:
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
    grid: LabelGrid,
    obj: SceneObject,
    n_samples: int = SHAPE_SAMPLES,
    n_bins: int = SHAPE_BINS,
) -> ShapeHistogram:
    """Histogram of boundary-point distances to the centroid.

    The traced boundary cycle is resampled at `n_samples` points of equal
    arc-length spacing; distances are normalized by the maximum sampled
    distance and binned into `n_bins` equal-width bins over [0, 1] (the
    value 1.0 falls in the last bin).  A single-pixel object degenerates
    to all mass in the last bin.

    All geometry is computed in bbox-relative coordinates, which are
    invariant under integer translation, so translated copies of an
    object produce bit-identical histograms.  The centroid is read from
    `obj.centroid`, which must be the mean pixel position, as
    `extract_objects` sets it.
    """
    r0, c0 = obj.bbox[0], obj.bbox[1]
    # The centroid is an integer coordinate sum over n, so rounding it
    # times n recovers that sum exactly (for sums below 2**51).  The
    # exact bbox-relative sum over n equals the float64 mean of the
    # bbox-relative coordinates bit for bit.
    n = obj.pixel_count
    cy = (round(obj.centroid[0] * n) - n * r0) / n
    cx = (round(obj.centroid[1] * n) - n * c0) / n
    if len(obj.boundary) == 1:
        samples = np.zeros(n_samples)
    else:
        closed = np.array(obj.boundary + obj.boundary[:1], dtype=np.float64)
        closed -= (r0, c0)
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
        # math.hypot, not np.hypot: a last-bit difference can move a
        # sample across a bin edge.
        samples = np.array(list(map(math.hypot, (r - cy).tolist(), (c - cx).tolist())))
    max_d = samples.max() if len(samples) else 0.0
    if max_d <= 0.0:
        normalized = np.ones(n_samples)
    else:
        normalized = samples / max_d
    bins = np.minimum((normalized * n_bins).astype(np.int64), n_bins - 1)
    freqs = np.bincount(bins, minlength=n_bins) / float(n_samples)
    return ShapeHistogram(tuple(freqs.tolist()))


def pair_relation(grid: LabelGrid, a: SceneObject, b: SceneObject) -> PairRelation:
    """Assemble the full relational observation for the ordered pair (A, B)."""
    in_contact = contact(grid, a, b)
    rdist = norm_distance(a, b, grid)
    return PairRelation(
        a_id=a.object_id,
        b_id=b.object_id,
        a_class=a.class_id,
        b_class=b.class_id,
        rpos=octant(a.centroid, b.centroid),
        rprox=proximity_relation(a, b, in_contact, grid.height),
        rsize=size_log_ratio(a, b),
        rdist=rdist,
        rdist_bin=distance_bin(rdist),
    )


def relations_for_objects(grid: LabelGrid, objects: list[SceneObject]) -> list[PairRelation]:
    """Relations for every ordered pair of distinct objects, in id order."""
    rels = []
    for a in objects:
        for b in objects:
            if a.object_id != b.object_id:
                rels.append(pair_relation(grid, a, b))
    return rels
