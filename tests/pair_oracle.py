"""One-pair-at-a-time reference for the batched pair layer.

The library computes a scene's pairs as the columns of one PairTable,
reads its statistics from dense tables and computes features and
margins as matrices.  This module keeps the per-pair form they
replaced: the scalar channel functions, each reading objects i and j of
a table as Python values from its columns, `contact` on the runs of one
pair of objects, the statistics lookups `query` and `size_zscore`,
which smooth the model's raw counts themselves, and per-pair features
and scores built from them, so that tests can require the batched
results to equal it bit for bit.  `keyed` reads the
statistics' count arrays back as the per-class-pair dicts that hand
tallies are written in.
"""

import math
from dataclasses import dataclass

import numpy as np

from scenecheck import UnknownClassError
from scenecheck.relations import K_DIST, OCTANTS, PROXIMITY_LABELS, ROW_EPS_FRACTION
from scenecheck.stats import SIGMA_FLOOR

from conftest import runs

QUERY_KINDS = ("presence", "position", "proximity", "distance")


def octant(a_centroid, b_centroid) -> str:
    """Classify the direction from A's centroid to B's into a compass octant.

    Label k spans the half-open sector [k*45 - 22.5, k*45 + 22.5) with
    "up" = decreasing row.  Coinciding centroids read E, as
    atan2(0, 0) = 0 does.
    """
    dr = b_centroid[0] - a_centroid[0]
    dc = b_centroid[1] - a_centroid[1]
    theta = math.degrees(math.atan2(-dr, dc))
    return OCTANTS[math.floor((theta + 22.5) / 45.0) % 8]


def opposite_octant(label: str) -> str:
    return OCTANTS[(OCTANTS.index(label) + 4) % 8]


def contact(objects, i, j) -> bool:
    """True iff some pixel of object i and some pixel of object j are
    within Chebyshev distance 1.

    Runs [c0, c1) and [s, e) in rows at most 1 apart hold such a pixel
    pair iff c0 <= e and s <= c1.
    """
    a, b = objects.bbox[i].tolist(), objects.bbox[j].tolist()
    # Quick reject: bounding boxes further than 1 apart cannot touch.
    if a[0] > b[2] + 1 or b[0] > a[2] + 1 or a[1] > b[3] + 1 or b[1] > a[3] + 1:
        return False
    b_rows: dict[int, list[tuple[int, int]]] = {}
    for r, s, e in runs(objects, j):
        b_rows.setdefault(r, []).append((s, e))
    for r, c0, c1 in runs(objects, i):
        for row in (r - 1, r, r + 1):
            for s, e in b_rows.get(row, ()):
                if c0 <= e and s <= c1:
                    return True
    return False


def _strictly_inside(inner, outer) -> bool:
    return (
        inner[0] > outer[0]
        and inner[1] > outer[1]
        and inner[2] < outer[2]
        and inner[3] < outer[3]
    )


def proximity_relation(objects, i, j, in_contact: bool, image_height: int) -> str:
    """Assign one of ON/UNDER/FRONT/BACK/BESIDE/NONE to the ordered pair (i, j).

    Containment (FRONT/BACK, via strict bounding-box nesting) takes
    precedence over the contact-based vertical labels; the vertical
    dead-band is 5% of the image height.
    """
    a, b = objects.bbox[i].tolist(), objects.bbox[j].tolist()
    if _strictly_inside(a, b):
        return "FRONT"
    if _strictly_inside(b, a):
        return "BACK"
    if in_contact:
        eps = ROW_EPS_FRACTION * image_height
        a_row, b_row = objects.centroid[i, 0].item(), objects.centroid[j, 0].item()
        if a_row < b_row - eps:
            return "ON"
        if a_row > b_row + eps:
            return "UNDER"
        return "BESIDE"
    return "NONE"


def size_log_ratio(objects, i, j) -> float:
    """ln(pixel_count(i) / pixel_count(j)), exactly antisymmetric in (i, j)."""
    return math.log(objects.pixel_count[i].item()) - math.log(objects.pixel_count[j].item())


def norm_distance(objects, i, j, grid) -> float:
    """Euclidean centroid distance divided by the image diagonal; lies in [0, 1]."""
    (ar, ac), (br, bc) = objects.centroid[i].tolist(), objects.centroid[j].tolist()
    return math.hypot(ar - br, ac - bc) / grid.diagonal()


def distance_bin(rdist: float, k_dist: int = K_DIST) -> int:
    return min(int(rdist * k_dist), k_dist - 1)


def _rows(model, *ids) -> list[int]:
    """The row of each class id in the model's counts."""
    for c in ids:
        if c not in model.classes:
            raise UnknownClassError(f"class id {c} unknown to this model")
    return [model.classes.index(c) for c in ids]


def query(model, kind: str, a_class: int, b_class: int, observed) -> float:
    """Smoothed probability of `observed` under the model's named counts:
    (count + alpha) / (total + alpha * arity).

    Unknown class ids raise UnknownClassError; a known pair with no
    data falls back to the uniform smoothed prior and never errors.
    """
    if kind not in QUERY_KINDS:
        raise ValueError(f"unknown query kind {kind!r}")
    i, j = _rows(model, a_class, b_class)
    if kind == "presence":
        count = int(model.presence[i, j])
        return (count + model.alpha) / (model.images + 2 * model.alpha)
    labels = {"position": OCTANTS, "proximity": PROXIMITY_LABELS}.get(kind, tuple(range(K_DIST)))
    idx = labels.index(observed)
    counts = getattr(model, kind)[i, j].tolist()
    if not any(counts):
        return 1.0 / len(labels)
    return (counts[idx] + model.alpha) / (sum(counts) + model.alpha * len(labels))


def size_moments(observations) -> tuple[float, float]:
    """(mean, std) of the size log-ratios of ((pixels_a, pixels_b), count)
    observations, summed in sorted order; std is floored at SIGMA_FLOOR."""
    n, sx, sxx = 0, 0.0, 0.0
    for (pa, pb), count in sorted(observations):
        x = math.log(pa) - math.log(pb)
        n += count
        sx += count * x
        sxx += count * x * x
    mean = sx / n
    return mean, max(math.sqrt(max(0.0, sxx / n - mean * mean)), SIGMA_FLOOR)


def size_zscore(model, a_class: int, b_class: int, log_ratio: float) -> float:
    """(log_ratio - mean) / std for the ordered pair; unseen pairs use (0, 1)."""
    observations = model.size_obs.get(tuple(_rows(model, a_class, b_class)))
    if observations is None:
        return float(log_ratio)
    mean, std = size_moments(observations.items())
    return (log_ratio - mean) / std


def keyed(counts, name: str) -> dict:
    """The nonzero entries of a builder's or model's named counts, keyed by
    class as hand tallies are: {c: n} for `class_images`, {(a, b): n} over
    a <= b for `presence`, {(a, b): [counts]} for the relational arrays and
    {(a, b): {(pixels_a, pixels_b): n}} for `size_obs`."""
    classes = counts.classes
    if name == "size_obs":
        return {(classes[i], classes[j]): dict(obs) for (i, j), obs in counts.size_obs.items()}
    values = getattr(counts, name)
    if name == "class_images":
        return {classes[i]: n for i, n in enumerate(values.tolist()) if n}
    if name == "presence":
        values = np.triu(values)
    nonzero = values.any(axis=2) if values.ndim == 3 else values
    return {
        (classes[i], classes[j]): values[i, j].tolist() for i, j in np.argwhere(nonzero).tolist()
    }


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


def pair_relation(grid, objects, i, j) -> PairRelation:
    """The relation of the ordered pair (i, j) of the table `objects`."""
    rdist = norm_distance(objects, i, j, grid)
    return PairRelation(
        a_id=i,
        b_id=j,
        a_class=objects.class_id[i].item(),
        b_class=objects.class_id[j].item(),
        rpos=octant(objects.centroid[i].tolist(), objects.centroid[j].tolist()),
        rprox=proximity_relation(objects, i, j, contact(objects, i, j), grid.height),
        rsize=size_log_ratio(objects, i, j),
        rdist=rdist,
        rdist_bin=distance_bin(rdist),
    )


def relations(grid, objects) -> list[PairRelation]:
    """Every ordered pair of distinct objects, in list order."""
    n = len(objects)
    return [pair_relation(grid, objects, i, j) for i in range(n) for j in range(n) if i != j]


def table_rows(table, objects) -> list[PairRelation]:
    """The rows of a PairTable in the per-pair form, labels as strings."""
    classes = objects.class_id.tolist()
    return [
        PairRelation(
            a, b, classes[a], classes[b], OCTANTS[pos], PROXIMITY_LABELS[prox], rs, rd, db
        )
        for a, b, pos, prox, rs, rd, db in zip(
            table.a_index.tolist(),
            table.b_index.tolist(),
            table.rpos.tolist(),
            table.rprox.tolist(),
            table.rsize.tolist(),
            table.rdist.tolist(),
            table.rdist_bin.tolist(),
        )
    ]


def featurize(relation, shape_a, stats, prototypes) -> np.ndarray:
    a, b = relation.a_class, relation.b_class
    hist = np.asarray(shape_a, dtype=np.float64)
    proto = prototypes.get(a)
    if proto is None:
        proto_arr = np.full(len(hist), 1.0 / len(hist))
    else:
        proto_arr = np.asarray(proto, dtype=np.float64)
    return np.array(
        [
            query(stats, "presence", a, b, None),
            query(stats, "position", a, b, relation.rpos),
            query(stats, "proximity", a, b, relation.rprox),
            query(stats, "distance", a, b, relation.rdist_bin),
            abs(size_zscore(stats, a, b, relation.rsize)),
            relation.rdist,
            float(np.abs(hist - proto_arr).sum()),
        ],
        dtype=np.float64,
    )


def score(model, fv) -> float:
    z = (np.asarray(fv) - np.asarray(model.feature_means)) / np.asarray(model.feature_stds)
    return float(np.asarray(model.weights) @ z + model.bias)
