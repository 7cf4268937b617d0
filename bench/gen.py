"""Deterministic input generators for the benchmark workloads.

Every generator is a pure function of the workload seed: the same seed
gives the same label maps, byte for byte.  Nothing generated here is
filtered or re-seeded after the fact; a map that makes the program fail
stays in the stream and is counted as a failure.
"""

from __future__ import annotations

import numpy as np

from scenecheck import (
    Corpus,
    default_synthetic_config,
    derive_seed,
    extract_objects,
    generate_contradiction,
    grid_from_array,
)
from scenecheck.corpus import EVAL_TAG

CROWDED_SHAPE = (96, 128)
CROWDED_OBJECTS = 40
CROWDED_MAPS = 16
_CROWDED_TAG = 901
_CROWDED_TWIN_TAG = 902


def _paint(arr: np.ndarray, shape: str, r0: int, c0: int, h: int, w: int, class_id: int) -> None:
    if shape == "ellipse":
        rows, cols = np.ogrid[r0 : r0 + h, c0 : c0 + w]
        rc, cc = r0 + (h - 1) / 2.0, c0 + (w - 1) / 2.0
        mask = ((rows - rc) / (h / 2.0)) ** 2 + ((cols - cc) / (w / 2.0)) ** 2 <= 1.0
        arr[r0 : r0 + h, c0 : c0 + w][mask] = class_id
    else:
        arr[r0 : r0 + h, c0 : c0 + w] = class_id


def crowded_array(seed: int, index: int, config=None) -> tuple[np.ndarray, str]:
    """One crowded label map and the context value whose classes it uses.

    Objects are drawn from one context's non-anchor classes with that
    class's size range, and each bounding box keeps one background pixel
    clear on every side of every other box, so no two objects touch and
    no two share a centroid.  Maps alternate between the contexts.
    """
    config = config or default_synthetic_config()
    ctx = config.contexts[index % len(config.contexts)]
    specs = {c.class_id: c for c in config.classes}
    pool = sorted(set(ctx.satellites) | set(ctx.stack or ()) | set(ctx.lone_extra))
    rng = np.random.default_rng(derive_seed(seed, _CROWDED_TAG, index))
    height, width = CROWDED_SHAPE
    arr = np.zeros(CROWDED_SHAPE, dtype=np.int32)
    taken = np.zeros(CROWDED_SHAPE, dtype=bool)
    placed = 0
    for _ in range(100 * CROWDED_OBJECTS):
        if placed == CROWDED_OBJECTS:
            break
        spec = specs[pool[int(rng.integers(len(pool)))]]
        h = int(rng.integers(spec.height[0], spec.height[1] + 1))
        w = int(rng.integers(spec.width[0], spec.width[1] + 1))
        r0 = int(rng.integers(0, height - h + 1))
        c0 = int(rng.integers(0, width - w + 1))
        if taken[max(r0 - 1, 0) : r0 + h + 1, max(c0 - 1, 0) : c0 + w + 1].any():
            continue
        taken[r0 : r0 + h, c0 : c0 + w] = True
        _paint(arr, spec.shape, r0, c0, h, w, spec.class_id)
        placed += 1
    return arr, ctx.value


def _item(grid, attributes: dict, contradiction: bool, n_objects: int) -> dict:
    return {
        "image_id": grid.image_id,
        "text": grid.to_text(),
        "attributes": attributes,
        "contradiction": contradiction,
        "objects": n_objects,
    }


def stream_items(corpus: Corpus, seed: int, min_area: int) -> list[dict]:
    """The val scenes, each followed by its object-removal twin when it has one.

    Twins use the same per-image seeds as `scenecheck evaluate`, so the
    stream holds exactly the variants that evaluation scores.
    """
    table = corpus.attributes()
    items = []
    for idx, image_id in enumerate(corpus.image_ids("val")):
        grid = corpus.grid(image_id)
        record = table.record(image_id)
        n = len(extract_objects(grid, min_area))
        items.append(_item(grid, record, False, n))
        if n >= 2:
            twin, _ = generate_contradiction(grid, derive_seed(seed, EVAL_TAG, idx), min_area)
            items.append(_item(twin, record, True, n - 1))
    return items


def crowded_items(seed: int, min_area: int, n_maps: int = CROWDED_MAPS) -> list[dict]:
    """Crowded maps, each followed by its seeded object-removal twin."""
    config = default_synthetic_config()
    class_map = config.class_map()
    items = []
    for index in range(n_maps):
        arr, value = crowded_array(seed, index, config)
        grid = grid_from_array(arr, class_map, image_id=f"crowded_{index:04d}")
        attributes = {config.context_attribute: value}
        n = len(extract_objects(grid, min_area))
        items.append(_item(grid, attributes, False, n))
        twin, _ = generate_contradiction(
            grid, derive_seed(seed, _CROWDED_TWIN_TAG, index), min_area
        )
        items.append(_item(twin, attributes, True, n - 1))
    return items


def mean_load(items: list[dict]) -> tuple[float, float]:
    """Mean objects and mean ordered pairs per map over generated items."""
    objects = [it["objects"] for it in items]
    pairs = [n * (n - 1) for n in objects]
    return sum(objects) / len(objects), sum(pairs) / len(pairs)
