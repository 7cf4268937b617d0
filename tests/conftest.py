"""Shared helpers: random hole-free blobs and tiny scene builders."""

from collections import deque

import numpy as np
import pytest

from scenecheck import grid_from_array


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


def pixels(obj):
    """The (row, col) positions of an object's runs, in raster order."""
    return tuple([(r, c) for r, c0, c1 in obj.runs for c in range(c0, c1)])


def blob_grid(rng, size=16, steps=60, class_id=1, class_map=None):
    class_map = class_map or {class_id: "blob"}
    return grid_from_array(random_blob_array(rng, size, steps, class_id), class_map)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
