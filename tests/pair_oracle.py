"""One-pair-at-a-time reference for the batched pair layer.

The library computes a scene's pairs as the columns of one PairTable
and its features and margins as matrices.  This module keeps the
per-pair form they replaced, assembled from the scalar channel
functions and the statistics' `query`/`size_zscore` methods, so that
tests can require the batched results to equal it bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from scenecheck import (
    contact,
    norm_distance,
    octant,
    proximity_relation,
    size_log_ratio,
)
from scenecheck.relations import OCTANTS, PROXIMITY_LABELS, distance_bin


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


def pair_relation(grid, a, b) -> PairRelation:
    rdist = norm_distance(a, b, grid)
    return PairRelation(
        a_id=a.object_id,
        b_id=b.object_id,
        a_class=a.class_id,
        b_class=b.class_id,
        rpos=octant(a.centroid, b.centroid),
        rprox=proximity_relation(a, b, contact(a, b), grid.height),
        rsize=size_log_ratio(a, b),
        rdist=rdist,
        rdist_bin=distance_bin(rdist),
    )


def relations(grid, objects) -> list[PairRelation]:
    """Every ordered pair of distinct objects, in id order."""
    return [
        pair_relation(grid, a, b)
        for a in objects
        for b in objects
        if a.object_id != b.object_id
    ]


def table_rows(table, objects) -> list[PairRelation]:
    """The rows of a PairTable in the per-pair form, labels as strings."""
    ids = [o.object_id for o in objects]
    return [
        PairRelation(ids[a], ids[b], ac, bc, OCTANTS[pos], PROXIMITY_LABELS[prox], rs, rd, db)
        for a, b, ac, bc, pos, prox, rs, rd, db in zip(
            table.a_index.tolist(),
            table.b_index.tolist(),
            table.a_class.tolist(),
            table.b_class.tolist(),
            table.rpos.tolist(),
            table.rprox.tolist(),
            table.rsize.tolist(),
            table.rdist.tolist(),
            table.rdist_bin.tolist(),
        )
    ]


def featurize(relation, shape_a, stats, prototypes) -> np.ndarray:
    a, b = relation.a_class, relation.b_class
    hist = shape_a.to_array()
    proto = prototypes.get(a)
    if proto is None:
        proto_arr = np.full(len(hist), 1.0 / len(hist))
    else:
        proto_arr = np.asarray(proto, dtype=np.float64)
    return np.array(
        [
            stats.query("presence", a, b, None),
            stats.query("position", a, b, relation.rpos),
            stats.query("proximity", a, b, relation.rprox),
            stats.query("distance", a, b, relation.rdist_bin),
            abs(stats.size_zscore(a, b, relation.rsize)),
            relation.rdist,
            float(np.abs(hist - proto_arr).sum()),
        ],
        dtype=np.float64,
    )


def score(model, fv) -> float:
    z = (np.asarray(fv) - np.asarray(model.feature_means)) / np.asarray(model.feature_stds)
    return float(np.asarray(model.weights) @ z + model.bias)
