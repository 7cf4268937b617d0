"""Prepared scenes and the contradiction twins derived from them."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenecheck import (
    DegeneratePairError,
    NotEnoughObjectsError,
    PairTable,
    derive_contradiction,
    generate_contradiction,
    grid_from_array,
    prepare,
)

from conftest import pixels, random_blob_array
from test_relations import CLASS_MAP, paint, scenes


def assert_same_scene(got, want):
    assert got.image_id == want.image_id
    assert got.params == want.params
    assert got.objects == want.objects
    assert got.hists.shape == want.hists.shape and np.array_equal(got.hists, want.hists)
    assert len(got.pairs) == len(want.pairs)
    for f in fields(PairTable):
        g, w = getattr(got.pairs, f.name), getattr(want.pairs, f.name)
        assert g.dtype == w.dtype, f.name
        assert g.shape == w.shape and (g == w).all(), f.name


def without_pixels(grid, obj):
    cells = grid.to_array().copy()
    rows, cols = np.array(pixels(obj)).T
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


def _prepared(arr, min_area):
    grid = grid_from_array(arr, CLASS_MAP, image_id="scene")
    try:
        return grid, prepare(grid, min_area)
    except DegeneratePairError:  # no scene to derive from
        return grid, None


@settings(max_examples=200, deadline=None)
@given(maps, st.sampled_from([1, 3]))
@example(paint(TWO_RECTS), 1)
def test_without_equals_preparing_the_cleared_map(arr, min_area):
    grid, scene = _prepared(arr, min_area)
    if scene is None:
        return
    for k, obj in enumerate(scene.objects):
        cleared = prepare(without_pixels(grid, obj), min_area)
        assert_same_scene(scene.without(k), cleared)


@settings(max_examples=200, deadline=None)
@given(maps, st.sampled_from([1, 3]), st.integers(0, 2**63 - 1))
@example(paint(TWO_RECTS), 1, 0)
def test_derived_twin_equals_generated_twin(arr, min_area, seed):
    grid, scene = _prepared(arr, min_area)
    if scene is None:
        return
    if len(scene.objects) < 2:
        with pytest.raises(NotEnoughObjectsError):
            derive_contradiction(scene, seed)
        with pytest.raises(NotEnoughObjectsError):
            generate_contradiction(grid, seed, min_area)
        return
    twin, removed_class = derive_contradiction(scene, seed)
    twin_grid, generated_class = generate_contradiction(grid, seed, min_area)
    assert removed_class == generated_class
    assert_same_scene(twin, prepare(twin_grid, min_area))


def test_two_object_twin_has_one_object_and_no_pairs():
    grid = grid_from_array(paint(TWO_RECTS), CLASS_MAP)
    scene = prepare(grid, min_area=1)
    assert len(scene.pairs) == 2
    for k in (0, 1):
        twin = scene.without(k)
        assert [o.object_id for o in twin.objects] == [0]
        assert twin.objects[0].class_id == scene.objects[1 - k].class_id
        assert len(twin.pairs) == 0 and len(twin.hists) == 1
        assert_same_scene(twin, prepare(without_pixels(grid, scene.objects[k]), 1))


def test_survivors_are_renumbered_and_pairs_reindexed():
    rects = [(1, 1, 1, 3, 3), (2, 1, 10, 3, 3), (3, 10, 1, 3, 3), (4, 10, 10, 3, 3)]
    scene = prepare(grid_from_array(paint(rects), CLASS_MAP), min_area=1)
    twin = scene.without(1)
    assert [o.object_id for o in twin.objects] == [0, 1, 2]
    assert [o.class_id for o in twin.objects] == [1, 3, 4]
    assert list(zip(twin.pairs.a_index.tolist(), twin.pairs.b_index.tolist())) == [
        (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)
    ]
    assert twin.pairs.a_class.tolist() == [1, 1, 3, 3, 4, 4]
    assert twin.without(0).without(0).without(0).objects == ()


def test_without_rejects_an_index_outside_the_scene():
    scene = prepare(grid_from_array(paint(TWO_RECTS), CLASS_MAP), min_area=1)
    for k in (-1, 2):
        with pytest.raises(IndexError):
            scene.without(k)


def test_prepare_records_its_parameters():
    grid = grid_from_array(paint(TWO_RECTS), CLASS_MAP, image_id="two")
    scene = prepare(grid, 3, 32, 8)
    assert scene.image_id == "two"
    assert scene.params == (3, 32, 8)
    assert scene.hists.shape == (2, 8)


@pytest.mark.parametrize("rects", [[], TWO_RECTS], ids=["empty", "two-objects"])
def test_hists_are_one_read_only_row_per_object(rects):
    grid = grid_from_array(paint(rects), CLASS_MAP)
    scene = prepare(grid, min_area=1, shape_bins=8)
    scenes = [scene] + [scene.without(k) for k in range(len(scene.objects))]
    for s in scenes:
        assert s.hists.shape == (len(s.objects), 8)
        assert s.hists.dtype == np.float64
        assert not s.hists.flags.writeable
        with pytest.raises(ValueError):
            s.hists[...] = 0.0
