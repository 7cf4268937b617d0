"""Pairwise relational observations between scene objects.

Four channels are computed for every ordered object pair: position
octant (direction of the A -> B centroid vector), proximity label,
size log-ratio, and normalized centroid distance.  A scene's pairs
come out together as the columns of one PairTable, and
`relations_for_objects` is where each channel is defined.  `contact`
decides, from two objects' pixel runs, whether they touch.  Per-object
shape is summarized as a histogram of normalized boundary-to-centroid
distances; a scene's histograms are the rows of one array, and its
boundaries are traced only there.  `shape_histograms` bins the objects
of many maps in one pass.

Octants, and the shape samples of a batched scene, are computed with
numpy over whole arrays.  Both are then cut into discrete codes and
bins, where a last-bit difference from the scalar `math` functions
could move a value across an edge; a value within _EDGE_EPS of an edge
is recomputed with those functions, so every code and bin equals the
scalar one.  Distances are float features and stay on `math.hypot`,
once per unordered pair.

All operations are pure functions and hold no shared state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import DegeneratePairError
from .labelgrid import LabelGrid, SceneObject, trace_boundaries

# Octant labels indexed so that label k spans the half-open 45-degree
# sector [k*45 - 22.5, k*45 + 22.5) with "up" = decreasing row.
OCTANTS = ("E", "NE", "N", "NW", "W", "SW", "S", "SE")

PROXIMITY_LABELS = ("ON", "UNDER", "FRONT", "BACK", "BESIDE", "NONE")

K_DIST = 5
ROW_EPS_FRACTION = 0.05
SHAPE_SAMPLES = 64
SHAPE_BINS = 16
_DIAGONAL = math.hypot(1.0, 1.0)
# numpy's arctan2 and hypot may differ from math's by a few units in the
# last place, about 1e-15 on the octant sector and bin scales; a value
# this close to an edge is recomputed with math.
_EDGE_EPS = 1e-9
# Batches of at least this many objects get their shape histograms in one
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


def contact(a: SceneObject, b: SceneObject) -> bool:
    """True iff some pixel of A and some pixel of B are within Chebyshev distance 1.

    Runs [c0, c1) and [s, e) in rows at most 1 apart hold such a pixel
    pair iff c0 <= e and s <= c1.
    """
    # Quick reject: bounding boxes further than 1 apart cannot touch.
    if (
        a.bbox[0] > b.bbox[2] + 1
        or b.bbox[0] > a.bbox[2] + 1
        or a.bbox[1] > b.bbox[3] + 1
        or b.bbox[1] > a.bbox[3] + 1
    ):
        return False
    b_rows: dict[int, list[tuple[int, int]]] = {}
    for r, s, e in b.runs:
        b_rows.setdefault(r, []).append((s, e))
    for r, c0, c1 in a.runs:
        for row in (r - 1, r, r + 1):
            for s, e in b_rows.get(row, ()):
                if c0 <= e and s <= c1:
                    return True
    return False


def shape_histogram(grid: LabelGrid, objects: Sequence[SceneObject]) -> np.ndarray:
    """Histograms of boundary-point distances to the centroid, one row per object.

    `objects` are components of `grid`, in any order; their boundaries
    are traced here, in one `trace_boundaries` call.  Returns a
    read-only `(len(objects), SHAPE_BINS)` float64 array whose row k
    holds the bin frequencies of `objects[k]`.  Each object's boundary
    cycle is resampled at SHAPE_SAMPLES points of equal arc-length
    spacing; distances are normalized by the maximum sampled distance
    and binned into SHAPE_BINS equal-width bins over [0, 1] (the value
    1.0 falls in the last bin).  A single-pixel object degenerates to
    all mass in the last bin.

    All geometry is computed in bbox-relative coordinates, which are
    invariant under integer translation, so translated copies of an
    object produce bit-identical histograms.  The centroid is read from
    `obj.centroid`, which must be the mean pixel position, as
    `extract_objects` sets it.  This is the batch of one of
    `shape_histograms`.
    """
    return shape_histograms([grid], [objects])[0]


def shape_histograms(
    grids: Sequence[LabelGrid], objects: Sequence[Sequence[SceneObject]]
) -> list[np.ndarray]:
    """`shape_histogram(grids[i], objects[i])` of each map, binned together.

    Each map's boundaries are traced in one `trace_boundaries` call.  A
    batch of `_BATCH_MIN` or more objects, over all maps, is binned in
    one `_batched_histograms` pass over all their boundaries, padded to
    one array, with `np.hypot` samples and the `_hypot` fallback near
    bin edges; smaller batches object by object.  Each object's
    histogram is bit-identical either way, and whatever else is in the
    batch.  The arrays returned are read-only views of one array.
    """
    traced = [trace_boundaries(g, objs) for g, objs in zip(grids, objects)]
    flat = [o for objs in objects for o in objs]
    points = np.concatenate([p for p, _ in traced])
    lengths = np.concatenate([n for _, n in traced])
    if len(flat) < _BATCH_MIN:
        ends = np.cumsum(lengths).tolist()
        hists = np.array(
            [
                _one_histogram(o, points[e - n : e])
                for o, n, e in zip(flat, lengths.tolist(), ends)
            ]
        )
        hists = hists.reshape(len(flat), SHAPE_BINS)
    else:
        hists = _batched_histograms(flat, points, lengths)
    hists.flags.writeable = False
    ends = itertools.accumulate(len(objs) for objs in objects)
    return [hists[e - len(objs) : e] for objs, e in zip(objects, ends)]


def _hypot(dr: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """Elementwise `math.hypot` of two 1-D arrays: pair distances, and the
    shape samples of an object alone or of the batched rows near a bin edge."""
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


def _one_histogram(obj: SceneObject, boundary: np.ndarray) -> np.ndarray:
    """`shape_histogram` row of a single object with traced contour `boundary`."""
    cy, cx = _relative_centroid(obj)
    if len(boundary) == 1:
        samples = np.zeros(SHAPE_SAMPLES)
    else:
        closed = np.concatenate((boundary, boundary[:1]), dtype=np.float64)
        closed -= obj.bbox[:2]
        # Consecutive boundary points are 8-adjacent: a step is 1 or a diagonal.
        step = closed[1:] - closed[:-1]
        seg = np.where((step[:, 0] != 0) & (step[:, 1] != 0), _DIAGONAL, 1.0)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        total = cum[-1]
        targets = np.arange(SHAPE_SAMPLES) * (total / SHAPE_SAMPLES)
        idx = np.searchsorted(cum, targets, side="right") - 1
        idx = np.minimum(np.maximum(idx, 0), len(seg) - 1)
        frac = (targets - cum[idx]) / seg[idx]
        p, q = closed[idx], closed[idx + 1]
        r = p[:, 0] + frac * (q[:, 0] - p[:, 0])
        c = p[:, 1] + frac * (q[:, 1] - p[:, 1])
        samples = _hypot(r - cy, c - cx)
    max_d = samples.max() if len(samples) else 0.0
    if max_d <= 0.0:
        normalized = np.ones(SHAPE_SAMPLES)
    else:
        normalized = samples / max_d
    bins = np.minimum((normalized * SHAPE_BINS).astype(np.int64), SHAPE_BINS - 1)
    return np.bincount(bins, minlength=SHAPE_BINS) / float(SHAPE_SAMPLES)


def _batched_histograms(
    objects: Sequence[SceneObject],
    points: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """`_one_histogram` of every object, computed for all of them at once
    from the contours `trace_boundaries` returns.

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
    starts = np.cumsum(lengths) - lengths
    width = int(lengths.max()) + 1
    corners = np.array([o.bbox[:2] for o in objects])
    points = points - np.repeat(corners, lengths, axis=0)
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
    targets = np.arange(SHAPE_SAMPLES) * (cum[:, -1:] / SHAPE_SAMPLES)
    # One search over all rows: complex numbers order by real part, then
    # imaginary part, so keys of row index plus arc length times 1j sort
    # row by row, and a target is placed among its own row's arc lengths
    # exactly as a search in that row alone would place it.
    # Every target lies in [0, total), so idx lies in [0, length - 1].
    rows = np.arange(k)[:, None]
    idx = np.searchsorted((rows + 1j * cum).ravel(), (rows + 1j * targets).ravel(), side="right")
    idx = idx.reshape(k, SHAPE_SAMPLES) - rows * width - 1
    frac = (targets - np.take_along_axis(cum, idx, 1)) / np.take_along_axis(seg, idx, 1)
    at = idx + np.arange(0, k * width, width)[:, None]  # into closed[0] and closed[1] flat
    rc = closed.reshape(2, -1)
    p, q = rc[:, at], rc[:, at + 1]
    r = p[0] + frac * (q[0] - p[0])
    c = p[1] + frac * (q[1] - p[1])
    # `_relative_centroid` of every object: np.rint rounds half to even as round does.
    n = np.array([o.pixel_count for o in objects], dtype=np.float64)[:, None]
    centroids = np.array([o.centroid for o in objects])
    centroids = (np.rint(centroids * n) - n * corners) / n
    r -= centroids[:, :1]
    c -= centroids[:, 1:]
    samples = np.hypot(r, c)
    max_d = samples.max(axis=1, keepdims=True, initial=0.0)
    scaled = np.ones((k, SHAPE_SAMPLES))
    np.divide(samples, max_d, out=scaled, where=max_d > 0.0)
    scaled *= SHAPE_BINS
    # A row with a sample within _EDGE_EPS of an inner bin edge is
    # recomputed with `_hypot`.  Clipping keeps out 0 and SHAPE_BINS: no
    # sample lies below 0, and the row's maximum scales to SHAPE_BINS
    # exactly either way, as does every sample of a single pixel.
    inner = np.clip(scaled, 0.5, SHAPE_BINS - 0.5)
    near = np.flatnonzero((np.abs(inner - np.rint(inner)) < _EDGE_EPS).any(axis=1))
    exact = _hypot(r[near].ravel(), c[near].ravel()).reshape(len(near), SHAPE_SAMPLES)
    scaled[near] = exact / exact.max(axis=1, keepdims=True) * SHAPE_BINS
    bins = np.minimum(scaled.astype(np.int64), SHAPE_BINS - 1)
    bins += np.arange(0, k * SHAPE_BINS, SHAPE_BINS)[:, None]
    counts = np.bincount(bins.ravel(), minlength=k * SHAPE_BINS).reshape(k, SHAPE_BINS)
    return counts / float(SHAPE_SAMPLES)


def _contact_matrix(objects: list[SceneObject], bbox: np.ndarray) -> np.ndarray:
    """Symmetric (n, n) `contact` matrix; runs are compared only for
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

def _octants(dr: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """OCTANTS code of each direction (dr, dc), "up" = decreasing row.

    Code k is floor(theta / 45 + 0.5) mod 8 for theta in degrees.  A
    sector within _EDGE_EPS of an integer is recomputed in the scalar
    form `floor((degrees(atan2(-dr, dc)) + 22.5) / 45)`, which fixes
    the half-open sector edges.
    """
    sector = np.arctan2(-dr, dc) * (4.0 / math.pi) + 0.5
    codes = np.floor(sector)
    for k in np.flatnonzero(np.abs(sector - np.rint(sector)) < _EDGE_EPS).tolist():
        theta = math.degrees(math.atan2(-float(dr[k]), float(dc[k])))
        codes[k] = math.floor((theta + 22.5) / 45.0)
    return codes.astype(np.int64) % 8


def relations_for_objects(grid: LabelGrid, objects: list[SceneObject]) -> PairTable:
    """Relations for every ordered pair of distinct objects, in list order.

    Rows run over A, then B, like a nested loop over `objects`; the
    table's indices are positions in `objects`.  The channels of the
    ordered pair (A, B):

    - `rpos`: the OCTANTS sector of the direction from A's centroid to
      B's, angles measured with "up" = decreasing row.
    - `rprox`: FRONT when A's bbox lies strictly inside B's, BACK when
      B's lies strictly inside A's; otherwise, for objects in `contact`,
      ON when A's centroid row is above B's by more than 5% of the grid
      height, UNDER when below by more than that, else BESIDE; NONE for
      objects that do not touch.
    - `rsize`: ln(pixel_count(A)) - ln(pixel_count(B)), exactly
      antisymmetric in (A, B).
    - `rdist`: Euclidean centroid distance over the grid diagonal, in
      [0, 1]; `rdist_bin` is `floor(rdist * K_DIST)`, clamped to
      K_DIST - 1.

    Octants come from one `np.arctan2` over all pairs, with the scalar
    fallback of `_octants` at sector edges.  Distances are one
    `math.hypot` per unordered pair, copied to its mirror: the mirror's
    offsets are the exact negatives, and hypot ignores signs.  Raises
    DegeneratePairError when two objects share a centroid, whose
    direction is undefined.
    """
    n = len(objects)
    if n < 2:
        return _NO_PAIRS
    centroid = np.array([o.centroid for o in objects], dtype=np.float64)
    bbox = np.array([o.bbox for o in objects], dtype=np.int64)
    log_size = np.array([math.log(o.pixel_count) for o in objects], dtype=np.float64)
    a, b = np.nonzero(~np.eye(n, dtype=bool))

    dr = centroid[b, 0] - centroid[a, 0]
    dc = centroid[b, 1] - centroid[a, 1]
    if np.any((dr == 0.0) & (dc == 0.0)):
        raise DegeneratePairError("identical centroids have no direction")
    lower = np.flatnonzero(a < b)
    half = _hypot(dr[lower], dc[lower])
    rdist = np.empty(len(a))
    rdist[lower] = half
    rdist[b[lower] * (n - 1) + a[lower]] = half  # the row of (b, a)
    rdist /= grid.diagonal()

    # Proximity over (A, B) matrices, in reverse order of precedence, so
    # containment overrides contact and its vertical dead-band.
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
        rpos=_octants(dr, dc),
        rprox=prox[a, b].astype(np.int64),
        rsize=log_size[a] - log_size[b],
        rdist=rdist,
        rdist_bin=np.minimum((rdist * K_DIST).astype(np.int64), K_DIST - 1),
    )
