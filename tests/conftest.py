"""Shared helpers: random hole-free blobs, tiny scene builders, upscaled
maps, object runs and pixels read from the columns of a table, traced
contours, a registry around given statistics and a guard on synthetic
painting."""

from collections import deque

import numpy as np
import pytest

import scenecheck.corpus as corpus_mod
from scenecheck import (
    GLOBAL_LABEL,
    Detector,
    Hyperparams,
    LinearModel,
    VerifierRegistry,
    grid_from_array,
    trace_boundaries,
)
from scenecheck.relations import SHAPE_BINS
from scenecheck.verifier import N_FEATURES


def random_blob_array(rng, size=16, steps=60, class_id=1):
    """A random 8-connected blob with interior holes filled.

    Grown by a jittered random walk, then any background region not
    reaching the border is absorbed into the blob so the outer boundary
    is the only boundary.
    """
    arr = np.zeros((size, size), dtype=np.int32)
    r = c = size // 2
    arr[r, c] = class_id
    for _ in range(steps):
        r = int(min(size - 2, max(1, r + rng.integers(-1, 2))))
        c = int(min(size - 2, max(1, c + rng.integers(-1, 2))))
        arr[r, c] = class_id
    bg = arr == 0
    reach = np.zeros_like(bg)
    queue = deque()
    for i in range(size):
        for j in (0, size - 1):
            for y, x in ((i, j), (j, i)):
                if bg[y, x] and not reach[y, x]:
                    reach[y, x] = True
                    queue.append((y, x))
    while queue:
        y, x = queue.popleft()
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ny, nx = y + dy, x + dx
            if 0 <= ny < size and 0 <= nx < size and bg[ny, nx] and not reach[ny, nx]:
                reach[ny, nx] = True
                queue.append((ny, nx))
    arr[bg & ~reach] = class_id
    return arr


def runs(objects, k):
    """Object k's (row, c0, c1) runs, read from the columns of its table."""
    lo, hi = objects.offsets[k], objects.offsets[k + 1]
    return [tuple(run) for run in objects.runs[lo:hi].tolist()]


def pixels(objects, k):
    """The (row, col) positions of object k's runs, in raster order."""
    return tuple([(r, c) for r, c0, c1 in runs(objects, k) for c in range(c0, c1)])


def components(objects):
    """The (class, pixels) of each object of a table, as a set."""
    return {(c, pixels(objects, k)) for k, c in enumerate(objects.class_id.tolist())}


def boundary(grid, objects, k=0):
    """The (row, col) points of the contour of object k of a table, traced
    on its own."""
    points, _ = trace_boundaries(grid, objects[k : k + 1])
    return tuple(map(tuple, points.tolist()))


def upscaled(arr, scale=5):
    """`arr` with each pixel made a `scale` x `scale` block: every
    8-connected component and every contact is kept, and at the default
    scale every object reaches DEFAULT_MIN_AREA, which `prepare_all` and
    `verify` label with."""
    return np.kron(arr, np.ones((scale, scale), dtype=arr.dtype))


def blob_grid(rng, size=16, steps=60, class_id=1, class_map=None):
    class_map = class_map or {class_id: "blob"}
    return grid_from_array(random_blob_array(rng, size, steps, class_id), class_map)


def registry_of(stats, *contexts):
    """A registry whose global detector, and whose detector of each value
    of `contexts`, holds `stats`, uniform prototypes and a fixed linear
    model: statistics are saved only inside a registry."""

    def detector(label):
        model = LinearModel(
            weights=(0.5,) * N_FEATURES, bias=0.1,
            feature_means=(0.0,) * N_FEATURES, feature_stds=(1.0,) * N_FEATURES,
            hyperparams=Hyperparams(), seed=0, n_pos=1, n_neg=1, context_label=label,
        )
        prototypes = np.full((len(stats.class_array), SHAPE_BINS), 1 / SHAPE_BINS)
        return Detector(model, stats, prototypes)

    return VerifierRegistry(
        context_attribute="location" if contexts else None,
        global_detector=detector(GLOBAL_LABEL),
        models={value: detector(value) for value in contexts},
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def paint_from_row_0(monkeypatch):
    """Make `synth` painting raise AssertionError on a negative first row,
    which numpy would count from the bottom of the map."""
    for name, row in (("_paint", 2), ("_paint_rect", 1)):

        def checked(*args, _paint_in=getattr(corpus_mod, name), _row=row):
            assert args[_row] >= 0, f"painted from row {args[_row]}"
            return _paint_in(*args)

        monkeypatch.setattr(corpus_mod, name, checked)
