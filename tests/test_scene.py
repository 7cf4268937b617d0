"""Prepared scenes and the prepared maps of their contradiction twins."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenecheck import (
    PairTable,
    Scene,
    generate_contradiction,
    grid_from_array,
    prepare_all,
)
from scenecheck.labelgrid import _BATCH_CELLS, grid_batches
from scenecheck.relations import SHAPE_BINS

from conftest import pixels, random_blob_array
from test_relations import CLASS_MAP, RING_AND_SQUARE, paint, scenes


def assert_same_scene(got, want):
    assert got.image_id == want.image_id
    assert got.min_area == want.min_area
    assert got.objects == want.objects
    assert got.hists.shape == want.hists.shape and np.array_equal(got.hists, want.hists)
    assert len(got.pairs) == len(want.pairs)
    for f in fields(PairTable):
        g, w = getattr(got.pairs, f.name), getattr(want.pairs, f.name)
        assert g.dtype == w.dtype, f.name
        assert g.shape == w.shape and (g == w).all(), f.name


def without_pixels(grid, objects, k):
    """The grid with the pixels of object k of the table `objects` cleared."""
    cells = grid.to_array().copy()
    rows, cols = np.array(pixels(objects, k)).T
    cells[rows, cols] = 0
    return grid_from_array(cells, grid.class_map, image_id=grid.image_id)


# Up to five random blobs of classes 1-3, each on a 9 x 9 canvas placed
# anywhere on a 20 x 24 grid; later blobs paint over earlier ones.
blob = st.tuples(
    st.integers(1, 3), st.integers(0, 11), st.integers(0, 15), st.integers(0, 2**32 - 1)
)
blob_scenes = st.lists(blob, min_size=0, max_size=5)


def paint_blobs(blobs):
    arr = np.zeros((20, 24), dtype=np.int32)
    for class_id, r, c, seed in blobs:
        canvas = random_blob_array(np.random.default_rng(seed), size=9, steps=20)
        arr[r : r + 9, c : c + 9][canvas > 0] = class_id
    return arr


TWO_RECTS = [(1, 2, 2, 4, 4), (2, 10, 10, 5, 6)]

maps = st.one_of(scenes.map(paint), blob_scenes.map(paint_blobs))


def left_out(scene, k):
    """The Scene training's row mask takes for `scene` without object k: the
    other objects, histograms and pairs in their order, indices renumbered."""
    kept = np.arange(len(scene.objects)) != k
    a, b = scene.pairs.a_index, scene.pairs.b_index
    keep = (a != k) & (b != k)
    columns = {f.name: getattr(scene.pairs, f.name)[keep] for f in fields(PairTable)}
    columns["a_index"] = a[keep] - (a[keep] > k)
    columns["b_index"] = b[keep] - (b[keep] > k)
    return Scene(scene.image_id, scene.objects[kept], PairTable(**columns), scene.hists[kept],
                 scene.min_area)


@settings(max_examples=200, deadline=None)
@given(maps, st.sampled_from([1, 3]))
@example(paint(TWO_RECTS), 1)
@example(paint(RING_AND_SQUARE), 1)
def test_leaving_an_object_out_equals_preparing_the_cleared_map(arr, min_area):
    # The premise of training's twin rows: clearing an object's pixels
    # leaves the other objects' histograms and pair columns as they were,
    # bit for bit and in their order.
    grid = grid_from_array(arr, CLASS_MAP, image_id="scene")
    scene = next(prepare_all([grid], min_area))
    cleared = [without_pixels(grid, scene.objects, k) for k in range(len(scene.objects))]
    for k, twin in enumerate(prepare_all(cleared, min_area)):
        want = left_out(scene, k)
        assert_same_scene(twin, want)
        assert twin.hists.tobytes() == want.hists.tobytes()
        for f in fields(PairTable):
            assert getattr(twin.pairs, f.name).tobytes() == getattr(want.pairs, f.name).tobytes()


def test_two_object_twin_has_one_object_and_no_pairs():
    grid = grid_from_array(paint(TWO_RECTS), CLASS_MAP)
    scene = next(prepare_all([grid], min_area=1))
    assert len(scene.pairs) == 2
    removed = set()
    for seed in range(4):
        twin_grid, removed_class = generate_contradiction(grid, seed, 1)
        twin = next(prepare_all([twin_grid], 1))
        removed.add(removed_class)
        assert twin.objects == scene.objects[scene.objects.class_id != removed_class]
        assert len(twin.pairs) == 0 and len(twin.hists) == 1
    assert removed == {1, 2}


def test_prepare_records_its_parameters():
    grid = grid_from_array(paint(TWO_RECTS), CLASS_MAP, image_id="two")
    scene = next(prepare_all([grid], 3))
    assert scene.image_id == "two"
    assert scene.min_area == 3
    assert scene.hists.shape == (2, SHAPE_BINS)


@pytest.mark.parametrize("rects", [[], TWO_RECTS], ids=["empty", "two-objects"])
def test_hists_are_one_read_only_row_per_object(rects):
    grid = grid_from_array(paint(rects), CLASS_MAP)
    scene = next(prepare_all([grid], min_area=1))
    twins = [without_pixels(grid, scene.objects, k) for k in range(len(scene.objects))]
    scenes = [scene, *prepare_all(twins, 1)]
    for s in scenes:
        assert s.hists.shape == (len(s.objects), SHAPE_BINS)
        assert s.hists.dtype == np.float64
        assert not s.hists.flags.writeable
        with pytest.raises(ValueError):
            s.hists[...] = 0.0


def assert_prepare_all_equals_each_map_alone(grids, min_area):
    """`prepare_all` of `grids` yields `prepare_all` of each map alone,
    read-only histograms and all."""
    want = [next(prepare_all([grid], min_area)) for grid in grids]
    got = list(prepare_all(iter(grids), min_area))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_scene(g, w)
        assert not g.hists.flags.writeable


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(maps, st.integers(1, 20), st.integers(1, 24)), min_size=1, max_size=6),
       st.sampled_from([1, 3]))
@example([(paint(TWO_RECTS), 24, 24), (paint(RING_AND_SQUARE), 24, 24)], 1)
def test_prepare_all_equals_each_map_prepared_alone(crops, min_area):
    arrays = [arr[:h, :w] for arr, h, w in crops]
    grids = [grid_from_array(a, CLASS_MAP, image_id=f"m{i}") for i, a in enumerate(arrays)]
    assert_prepare_all_equals_each_map_alone(grids, min_area)


def test_prepare_all_equals_each_map_prepared_alone_across_the_cell_budget():
    rng = np.random.default_rng(11)
    side = int(_BATCH_CELLS**0.5) + 1  # a map whose own stack exceeds the budget
    arrays = []
    for shape in [(48, 64)] * 12 + [(side, side), (1, 1), (48, 64), (9, 30)]:
        arr = np.zeros(shape, np.int32)
        for r in range(0, shape[0] - 19, 24):
            for c in range(0, shape[1] - 23, 28):
                n = int(rng.integers(0, 4))
                blobs = [
                    (int(rng.integers(1, 4)), int(rng.integers(0, 12)), int(rng.integers(0, 16)),
                     int(rng.integers(2**32)))
                    for _ in range(n)
                ]
                arr[r : r + 20, c : c + 24] = paint_blobs(blobs)
        arrays.append(arr)
    grids = [grid_from_array(a, CLASS_MAP, image_id=f"m{i}") for i, a in enumerate(arrays)]
    batches = list(grid_batches(grids))
    assert 1 < len(batches[0]) < 12  # the 48 x 64 maps fill more than one stack
    assert [grids[12]] in batches  # the large map, alone
    assert sum(len(s.objects) for s in prepare_all(grids, 3)) > 50
    assert_prepare_all_equals_each_map_alone(grids, 3)
