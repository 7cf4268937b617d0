"""Pairwise relational observations between scene objects.

Four channels are computed for every ordered object pair: position
octant (direction of the A -> B centroid vector), proximity label,
size log-ratio, and normalized centroid distance.  A scene's pairs
come out together as the columns of one PairTable, and
`relations_for_objects` is where each channel is defined; it reads the
columns of the scene's ObjectTable, which objects touch from its
`contacts` matrix, found while labelling, and the pair index columns
of its object count, built once per count.  Per-object shape is
summarized as a histogram of normalized boundary-to-centroid
distances (the centroid-distance signature); a scene's histograms are
the rows of one array, and its boundaries are found only there.
`shape_histograms` bins the objects of many maps, whatever their
number, in one pass over their concatenated contours.  An object whose
every row is one run takes its contour from its runs, all such objects
of a batch in one `labelgrid._run_contours` pass; an object with two
runs in some row is Moore-traced by `trace_boundaries`, one call per map.

Octants and shape samples are computed with numpy over whole arrays.
Both are then cut into discrete codes and bins, where a last-bit
difference from the scalar `math` functions could move a value across
an edge; a value within _EDGE_EPS of an edge is recomputed with those
functions, so every code and bin equals the scalar one.  In a row of
shape samples only the near samples and the candidates for the row's
maximum are recomputed, not the whole row.  Distances are float
features and stay on `math.hypot`, once per unordered pair.

All operations are pure functions; the only state they share is the
cache of read-only pair index arrays, one entry per object count.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import DegeneratePairError
from .labelgrid import LabelGrid, ObjectTable, _run_contours, trace_boundaries

# Octant labels indexed so that label k spans the half-open 45-degree
# sector [k*45 - 22.5, k*45 + 22.5) with "up" = decreasing row.
OCTANTS = ("E", "NE", "N", "NW", "W", "SW", "S", "SE")

PROXIMITY_LABELS = ("ON", "UNDER", "FRONT", "BACK", "BESIDE", "NONE")
_ON, _UNDER, _FRONT, _BACK, _BESIDE, _NONE = range(len(PROXIMITY_LABELS))

K_DIST = 5
ROW_EPS_FRACTION = 0.05
SHAPE_SAMPLES = 64
SHAPE_BINS = 16
_DIAGONAL = math.hypot(1.0, 1.0)
_SAMPLE_INDEX = np.arange(SHAPE_SAMPLES)  # j, of sample t_j = j * h
# numpy's arctan2 and hypot may differ from math's by a few units in the
# last place, about 1e-15 on the octant sector and bin scales; a value
# this close to an edge is recomputed with math.
_EDGE_EPS = 1e-9


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
        for column in vars(self).values():
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.a_index)


def shape_histogram(grid: LabelGrid, objects: ObjectTable) -> np.ndarray:
    """Histograms of boundary-point distances to the centroid, one row per object.

    `objects` are components of `grid`, in any order; their boundaries
    are found here, as `shape_histograms` finds them.  Returns a
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
    the table's `centroid` column, the mean pixel position.  This is the
    batch of one of `shape_histograms`.
    """
    return shape_histograms([grid], [objects])[0]


def shape_histograms(
    grids: Sequence[LabelGrid], objects: Sequence[ObjectTable]
) -> list[np.ndarray]:
    """`shape_histogram(grids[i], objects[i])` of each map, binned together.

    An object whose run count equals its bbox height, so that every row
    is one run, takes its contour from its runs: all such objects of the
    batch in one `_run_contours` pass.  Every other object is walked by
    `trace_boundaries`, one call per map that holds one.  Both give the
    same contours, so each object's histogram is bit-identical whatever
    else is in the batch.  Every object of the batch is binned in one
    `_histograms` pass over all the contours, with `np.hypot` samples and
    the `_hypot` fallback near bin edges.  The arrays returned are
    read-only views of one array.
    """
    if not objects:
        return []
    ends = list(itertools.accumulate(len(objs) for objs in objects))
    bbox, centroid, pixel_count, run_counts, runs = _concat(
        [(o.bbox, o.centroid, o.pixel_count, np.diff(o.offsets), o.runs) for o in objects]
    )
    walk = run_counts != bbox[:, 2] - bbox[:, 0] + 1
    contours = []
    if walk.any():
        # The objects with one run per row are binned first, then each
        # map's walked ones; no row depends on another, so the rows are
        # put back in object order afterwards.
        order = np.argsort(walk, kind="stable")
        bbox, centroid, pixel_count = bbox[order], centroid[order], pixel_count[order]
        runs, run_counts = runs[~walk.repeat(run_counts)], run_counts[~walk]
        contours = [
            trace_boundaries(grid, objs[w])
            for grid, objs, w in zip(grids, objects, np.split(walk, ends[:-1]))
            if w.any()
        ]
    if len(run_counts):
        contours.insert(0, _run_contours(runs, np.concatenate(([0], run_counts.cumsum()))))
    if not contours:
        hists = np.zeros((0, SHAPE_BINS))
    else:
        hists = _histograms(bbox[:, :2], centroid, pixel_count, *_concat(contours))
    if walk.any():
        hists = hists[np.argsort(order)]
    hists.flags.writeable = False
    return [hists[e - len(objs) : e] for objs, e in zip(objects, ends)]


def _concat(columns: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """Tuples of arrays concatenated field by field."""
    return columns[0] if len(columns) == 1 else tuple(map(np.concatenate, zip(*columns)))


def _hypot(dr: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """Elementwise `math.hypot` of two 1-D arrays: pair distances, and the
    shape samples near a bin edge or their row's maximum."""
    return np.fromiter(map(math.hypot, dr.tolist(), dc.tolist()), np.float64, len(dr))


def _histograms(
    corners: np.ndarray,
    centroid: np.ndarray,
    pixel_count: np.ndarray,
    points: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """`shape_histogram` rows of one or more objects with these bbox corners
    (r0, c0), centroids and pixel counts, binned in one pass over the
    concatenated contours in the form `trace_boundaries` returns.

    Point i of a contour of L points steps to point (i + 1) mod L, a
    segment of 1 or the diagonal, since the points are 8-adjacent; a
    single pixel's zero step counts 1.  One `cumsum(axis=1)` over a
    `(k, longest + 1)` array holding a zero, each object's segment
    lengths and zeros after them adds each row left to right as the 1-D
    `cumsum` does, so cum_i, the arc length at point i, and the total
    T = cum_L are the object's own bit for bit.

    Sample j lies at t_j = fl(j * h), h = T / SHAPE_SAMPLES, on segment
    idx_j = searchsorted(cum, t_j, "right") - 1 = #{i : cum_i <= t_j} - 1.
    The t_j do not decrease in j, so cum_i <= t_j iff j >= m_i, where
    m_i = #{j : t_j < cum_i}; m_i is ceil(cum_i / h) up to one rounding
    step, corrected once each way against fl(j * h).  Hence idx_j + 1
    counts the points with m_i <= j: one `bincount` over
    object * (SHAPE_SAMPLES + 1) + m_i and one `cumsum`.  Every t_j lies
    in [0, T), so idx_j lies in [0, L - 1].  A single pixel is sampled at
    its own bbox-relative centroid, so all its samples are 0.
    """
    k = len(corners)
    corners, n = corners.astype(np.float64), pixel_count[:, None].astype(np.float64)
    ends = lengths.cumsum()
    starts = ends - lengths
    # The rows and columns of every point, and each point's step.
    points = points.T
    after = np.arange(1, len(points[0]) + 1)
    after[ends - 1] = starts
    step = points.take(after, axis=1) - points
    seg = np.where(step[0] * step[1], _DIAGONAL, 1.0)
    inside = np.arange(np.maximum.reduce(lengths)) < lengths[:, None]
    rows = np.zeros((k, len(inside[0]) + 1))
    rows[:, 1:][inside] = seg
    cum = rows.cumsum(axis=1)
    h = cum[:, -1] / SHAPE_SAMPLES
    arc, h_of = cum[:, :-1][inside], h.repeat(lengths)
    m = np.ceil(arc / h_of)
    m -= (m - 1.0) * h_of >= arc
    m += m * h_of < arc
    n_counts = SHAPE_SAMPLES + 1
    m += np.arange(0, k * n_counts, n_counts).repeat(lengths)
    counts = np.bincount(m.astype(np.int64), minlength=k * n_counts).reshape(k, n_counts)
    at = counts[:, :SHAPE_SAMPLES].cumsum(axis=1)
    at += (starts - 1)[:, None]  # idx_j, as a position in `points`
    frac = (_SAMPLE_INDEX * h[:, None] - arc.take(at)) / seg.take(at)
    rc = points.take(at, axis=1) - corners.T[:, :, None] + frac * step.take(at, axis=1)
    # The centroids relative to the bbox corners, exactly: a centroid is an
    # integer coordinate sum over n, so rounding it times n (np.rint rounds
    # half to even) recovers that sum for sums below 2**51, and the exact
    # relative sum over n is the float64 mean of the relative coordinates.
    rc -= ((np.rint(centroid * n) - n * corners) / n).T[:, :, None]
    samples = np.hypot(rc[0], rc[1])
    max_d = np.maximum.reduce(samples, axis=1, keepdims=True)
    scaled = np.ones((k, SHAPE_SAMPLES))
    np.divide(samples, max_d, out=scaled, where=max_d > 0.0)
    scaled *= SHAPE_BINS
    # In a row with a sample within _EDGE_EPS of an inner bin edge, that
    # sample and every candidate for the row's maximum, a sample within
    # _EDGE_EPS of SHAPE_BINS, are recomputed with `_hypot`, and scaled by
    # the largest of them.  Samples differ from `_hypot`'s by far less
    # than _EDGE_EPS, so that is the exact maximum, and every other
    # sample lies too far from an edge for its bin to change.
    # Clipping keeps out 0 and SHAPE_BINS: no sample lies below 0, and a
    # single pixel, whose samples all scale to SHAPE_BINS, has no near one.
    inner = np.minimum(np.maximum(scaled, 0.5), SHAPE_BINS - 0.5)
    near = np.abs(inner - np.rint(inner)) < _EDGE_EPS
    if near.any():
        flagged = near.any(axis=1, keepdims=True)
        row, col = np.nonzero((near | (scaled > SHAPE_BINS - _EDGE_EPS)) & flagged)
        exact = _hypot(rc[0, row, col], rc[1, row, col])
        row_max = np.zeros(k)
        np.maximum.at(row_max, row, exact)
        scaled[row, col] = exact / row_max[row] * SHAPE_BINS
    bins = np.minimum(scaled.astype(np.int64), SHAPE_BINS - 1)
    bins += np.arange(0, k * SHAPE_BINS, SHAPE_BINS)[:, None]
    counts = np.bincount(bins.ravel(), minlength=k * SHAPE_BINS).reshape(k, SHAPE_BINS)
    return counts / float(SHAPE_SAMPLES)


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
    for k in (np.abs(sector - np.rint(sector)) < _EDGE_EPS).nonzero()[0].tolist():
        theta = math.degrees(math.atan2(-float(dr[k]), float(dc[k])))
        codes[k] = math.floor((theta + 22.5) / 45.0)
    return codes.astype(np.int64) % 8


@functools.lru_cache(maxsize=16)
def _pair_index(n: int) -> tuple[np.ndarray, ...]:
    """The ordered pairs of n distinct objects in nested-loop order, as
    read-only arrays: the A and B index columns, the rows where A < B, the
    row of the mirror (B, A) of each of those, and the flat index a * n + b
    of each pair into an (n, n) matrix."""
    a, b = np.nonzero(~np.eye(n, dtype=bool))
    lower = (a < b).nonzero()[0]
    mirror = b[lower] * (n - 1) + a[lower]
    flat = a * n + b
    for column in (a, b, lower, mirror, flat):
        column.flags.writeable = False
    return a, b, lower, mirror, flat


def relations_for_objects(grid: LabelGrid, objects: ObjectTable) -> PairTable:
    """Relations for every ordered pair of distinct objects, in table order.

    Rows run over A, then B, like a nested loop over `objects`; the
    table's indices are positions in `objects`.  The channels of the
    ordered pair (A, B):

    - `rpos`: the OCTANTS sector of the direction from A's centroid to
      B's, angles measured with "up" = decreasing row.
    - `rprox`: FRONT when A's bbox lies strictly inside B's, BACK when
      B's lies strictly inside A's; otherwise, for objects that touch
      (some pixels within Chebyshev distance 1: the table's `contacts`),
      ON when A's centroid row is above B's by more than 5% of the grid
      height, UNDER when below by more than that, else BESIDE; NONE for
      objects that do not touch.
    - `rsize`: ln(pixel_count(A)) - ln(pixel_count(B)), exactly
      antisymmetric in (A, B).
    - `rdist`: Euclidean centroid distance over the grid diagonal, in
      [0, 1]; `rdist_bin` is `floor(rdist * K_DIST)`, clamped to
      K_DIST - 1.

    Every read of a per-object column is a 1-D `take`: the centroid rows
    of A and B with `take(axis=0)`, the log sizes by object index and the
    (A, B) proximity matrix by the flat index a * n + b that the pair
    index cache holds.  Octants come from one `np.arctan2` over all pairs,
    with the scalar fallback of `_octants` at sector edges.  Distances are
    one `math.hypot` per unordered pair, copied to its mirror: the
    mirror's offsets are the exact negatives, and hypot ignores signs.
    Raises DegeneratePairError when two objects share a centroid, whose
    direction is undefined: a distance of 0.
    """
    n = len(objects)
    if n < 2:
        return _NO_PAIRS
    centroid, bbox = objects.centroid, objects.bbox
    # One `math.log` per object: `np.log` may differ from it in the last bit.
    log_size = np.array([math.log(c) for c in objects.pixel_count.tolist()])
    a, b, lower, mirror, flat = _pair_index(n)

    dr, dc = (centroid.take(b, axis=0) - centroid.take(a, axis=0)).T
    half = _hypot(dr.take(lower), dc.take(lower))
    # hypot is 0 only where both offsets are, and a pair's mirror has the
    # distance of the unordered pair.
    if not half.all():
        raise DegeneratePairError("identical centroids have no direction")
    rdist = np.empty(len(a))
    rdist[lower] = half
    rdist[mirror] = half
    rdist /= grid.diagonal()

    # Proximity over (A, B) matrices, in reverse order of precedence, so
    # containment overrides contact and its vertical dead-band.
    r0, c0, r1, c1 = bbox.T
    nested = (r0[:, None] > r0) & (c0[:, None] > c0) & (r1[:, None] < r1) & (c1[:, None] < c1)
    row = centroid[:, 0]
    eps = ROW_EPS_FRACTION * grid.height
    prox = np.where(
        row[:, None] < row - eps, _ON, np.where(row[:, None] > row + eps, _UNDER, _BESIDE)
    )
    prox[~objects.contacts] = _NONE
    prox[nested.T] = _BACK
    prox[nested] = _FRONT

    return PairTable(
        a_index=a,
        b_index=b,
        rpos=_octants(dr, dc),
        rprox=prox.ravel().take(flat),
        rsize=log_size.take(a) - log_size.take(b),
        rdist=rdist,
        rdist_bin=np.minimum((rdist * K_DIST).astype(np.int64), K_DIST - 1),
    )
