"""Pairwise relation channels and the shape histogram."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenecheck import (
    DegeneratePairError,
    SceneObject,
    contact,
    extract_objects,
    grid_from_array,
    relations_for_objects,
    shape_histogram,
    trace_boundaries,
)
from scenecheck.relations import OCTANTS, PROXIMITY_LABELS, SHAPE_BINS, SHAPE_SAMPLES

import pair_oracle
from conftest import blob_grid, boundary, pixels, random_blob_array
from test_labelgrid import _named_shapes_array, _shape_maps, _touch_oracle


def octant_oracle(a, b):
    """Sector lookup by explicit interval tests, up = decreasing row."""
    theta = math.degrees(math.atan2(a[0] - b[0], b[1] - a[1]))
    if theta < -22.5:
        theta += 360.0
    for label, lo in (
        ("E", -22.5),
        ("NE", 22.5),
        ("N", 67.5),
        ("NW", 112.5),
        ("W", 157.5),
        ("SW", 202.5),
        ("S", 247.5),
        ("SE", 292.5),
    ):
        if lo <= theta < lo + 45.0:
            return label
    raise AssertionError(theta)


def standin(object_id=0, centroid=(0.0, 0.0), pixel_count=1, row=0):
    """Minimal stand-in object with a chosen centroid and pixel count.

    Its one pixel, at (row, 0), is read only by the proximity channel
    (bbox nesting and contact); the other channels read the centroid and
    the pixel count.
    """
    return SceneObject(
        object_id=object_id,
        class_id=1,
        pixel_count=pixel_count,
        centroid=centroid,
        bbox=(row, 0, row, 0),
        runs=((row, 0, 1),),
    )


# Large enough that every centroid used below lies inside it.
STANDIN_GRID = grid_from_array(np.zeros((200, 200), dtype=np.int32), {1: "a"})


def pair_columns(a_centroid, b_centroid, a_count=1, b_count=1, grid=STANDIN_GRID):
    """The PairTable of stand-ins A and B: row 0 is (A, B), row 1 is (B, A)."""
    a = standin(0, a_centroid, a_count)
    b = standin(1, b_centroid, b_count)
    return relations_for_objects(grid, [a, b])


def rpos(a_centroid, b_centroid):
    """The octant label of the direction from A's centroid to B's."""
    return OCTANTS[pair_columns(a_centroid, b_centroid).rpos[0]]


def rpos_of_pairs(pairs):
    """`rpos` of each (A centroid, B centroid) pair, read from one table.

    Each pair becomes stand-ins 2k and 2k + 1, and the rows (2k, 2k + 1)
    are read.  The stand-ins' pixels lie 2 rows apart, so no two touch.
    """
    centroids = [c for pair in pairs for c in pair]
    objects = [standin(i, c, row=2 * i) for i, c in enumerate(centroids)]
    table = relations_for_objects(STANDIN_GRID, objects)
    wanted = (table.a_index % 2 == 0) & (table.b_index == table.a_index + 1)
    return [OCTANTS[p] for p in table.rpos[wanted].tolist()]


class TestOctant:
    def test_axis_aligned(self):
        assert rpos((10, 10), (10, 20)) == "E"
        assert rpos((10, 10), (5, 10)) == "N"
        assert rpos((10, 10), (15, 10)) == "S"
        assert rpos((10, 10), (10, 0)) == "W"

    def test_diagonals(self):
        assert rpos((10, 10), (5, 15)) == "NE"
        assert rpos((10, 10), (15, 5)) == "SW"

    def test_identical_centroids_degenerate(self):
        with pytest.raises(DegeneratePairError):
            rpos((3.0, 4.0), (3.0, 4.0))

    def test_matches_angle_oracle_on_random_pairs(self, rng):
        for _ in range(2000):
            a = tuple(rng.uniform(0, 100, size=2))
            b = tuple(rng.uniform(0, 100, size=2))
            if a == b:
                continue
            assert rpos(a, b) == octant_oracle(a, b)


@given(
    st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500)
)
def test_octant_antisymmetry(ar, ac, br, bc):
    if (ar, ac) == (br, bc):
        return
    table = pair_columns((ar, ac), (br, bc))
    assert OCTANTS[table.rpos[0]] == pair_oracle.opposite_octant(OCTANTS[table.rpos[1]])


class TestContact:
    def _two_rect_grid(self, gap):
        arr = np.zeros((8, 12), dtype=int)
        arr[2:5, 1:4] = 1
        arr[2:5, 4 + gap : 7 + gap] = 2
        return grid_from_array(arr, {1: "a", 2: "b"})

    def test_shared_edge_touches(self):
        grid = self._two_rect_grid(gap=0)
        a, b = extract_objects(grid, min_area=1)
        assert contact(a, b) is True

    def test_two_pixel_gap_does_not_touch(self):
        grid = self._two_rect_grid(gap=2)
        a, b = extract_objects(grid, min_area=1)
        assert contact(a, b) is False

    def test_diagonal_corner_touches(self):
        arr = np.zeros((6, 6), dtype=int)
        arr[1:3, 1:3] = 1
        arr[3:5, 3:5] = 2
        grid = grid_from_array(arr, {1: "a", 2: "b"})
        a, b = extract_objects(grid, min_area=1)
        assert contact(a, b) is True

    def test_matches_exhaustive_pixel_pair_oracle(self, rng):
        for _ in range(60):
            arr = random_blob_array(rng, size=14, steps=25, class_id=1)
            other = random_blob_array(rng, size=14, steps=25, class_id=2)
            arr[arr == 0] = other[arr == 0]
            grid = grid_from_array(arr, {1: "a", 2: "b"})
            objects = extract_objects(grid, min_area=1)
            for i, a in enumerate(objects):
                for b in objects[i + 1 :]:
                    expected = _touch_oracle(a, b)
                    assert contact(a, b) == expected
                    assert contact(b, a) == expected


class TestProximity:
    def _labels(self, arr, class_map):
        """The scene's objects and the `rprox` label of each ordered class
        pair; every object has its own class."""
        grid = grid_from_array(arr, class_map)
        objects = extract_objects(grid, min_area=1)
        table = relations_for_objects(grid, objects)
        labels = {
            (a, b): PROXIMITY_LABELS[p]
            for a, b, p in zip(
                table.a_class.tolist(), table.b_class.tolist(), table.rprox.tolist()
            )
        }
        return objects, labels

    def test_contained_bbox_is_front(self):
        arr = np.zeros((10, 10), dtype=int)
        arr[1:9, 1:9] = 2
        # Off centre: centred, both centroids would coincide.
        arr[3:5, 4:6] = 1
        _, labels = self._labels(arr, {1: "small", 2: "big"})
        assert labels[(1, 2)] == "FRONT"
        assert labels[(2, 1)] == "BACK"

    def test_stacked_contact_is_on(self):
        arr = np.zeros((20, 8), dtype=int)
        arr[4:8, 2:6] = 1
        arr[8:16, 2:6] = 2
        (top, bottom), labels = self._labels(arr, {1: "top", 2: "bottom"})
        assert contact(top, bottom)
        assert labels[(1, 2)] == "ON"
        assert labels[(2, 1)] == "UNDER"

    def test_far_apart_is_none(self):
        arr = np.zeros((10, 20), dtype=int)
        arr[1:3, 1:3] = 1
        arr[7:9, 16:19] = 2
        _, labels = self._labels(arr, {1: "a", 2: "b"})
        assert labels[(1, 2)] == "NONE"

    def test_side_by_side_contact_is_beside(self):
        arr = np.zeros((10, 10), dtype=int)
        arr[4:7, 2:5] = 1
        arr[4:7, 5:8] = 2
        (a, b), labels = self._labels(arr, {1: "a", 2: "b"})
        assert contact(a, b)
        assert labels[(1, 2)] == "BESIDE"
        assert labels[(2, 1)] == "BESIDE"


class TestSizeAndDistance:
    def test_log_ratio_value(self):
        table = pair_columns((0, 0), (0, 1), a_count=100, b_count=50)
        assert table.rsize[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_log_ratio_zero_for_equal(self):
        table = pair_columns((0, 0), (0, 1), a_count=64, b_count=64)
        assert table.rsize[0] == 0.0

    def test_log_ratio_exactly_antisymmetric(self, rng):
        for _ in range(500):
            a_count, b_count = (int(n) for n in rng.integers(1, 10**6, size=2))
            table = pair_columns((0, 0), (0, 1), a_count, b_count)
            assert table.rsize[0] == -table.rsize[1]

    def test_norm_distance_formula_and_symmetry(self, rng):
        arr = np.zeros((30, 40), dtype=int)
        arr[2:5, 2:5] = 1
        arr[20:25, 30:36] = 2
        grid = grid_from_array(arr, {1: "a", 2: "b"})
        a, b = extract_objects(grid, min_area=1)
        expected = math.hypot(
            a.centroid[0] - b.centroid[0], a.centroid[1] - b.centroid[1]
        ) / math.hypot(30, 40)
        rdist = relations_for_objects(grid, [a, b]).rdist
        assert rdist[0] == pytest.approx(expected, abs=1e-15)
        assert rdist[0] == rdist[1]
        assert 0.0 <= rdist[0] <= 1.0

    def test_distance_bin_clamps_at_one(self):
        # The grid's diagonal is 50: centroids 50, 1 and 19.5 apart give
        # rdist 1.0, 0.02 and 0.39.
        grid = grid_from_array(np.zeros((30, 40), dtype=np.int32), {1: "a"})
        cases = (((30, 40), 1.0, 4), ((0, 1), 0.02, 0), ((0, 19.5), 0.39, 1))
        for far, rdist, expected_bin in cases:
            table = pair_columns((0, 0), far, grid=grid)
            assert table.rdist[0] == rdist
            assert table.rdist_bin[0] == expected_bin


class TestShapeHistogram:
    def test_disk_mass_in_top_bins(self):
        size = 25
        arr = np.zeros((size, size), dtype=int)
        for r in range(size):
            for c in range(size):
                if (r - 12) ** 2 + (c - 12) ** 2 <= 100:
                    arr[r, c] = 1
        grid = grid_from_array(arr, {1: "disk"})
        (obj,) = extract_objects(grid, min_area=1)
        hist = shape_histogram(grid, [obj])[0]
        assert sum(hist.tolist()[-3:]) >= 0.9

    def test_translation_invariance_exact(self, rng):
        for _ in range(20):
            blob = random_blob_array(rng, size=14, steps=40)
            big = np.zeros((40, 40), dtype=int)
            big[3 : 3 + 14, 2 : 2 + 14] = blob
            shifted = np.zeros((40, 40), dtype=int)
            shifted[17 : 17 + 14, 21 : 21 + 14] = blob
            g1 = grid_from_array(big, {1: "blob"})
            g2 = grid_from_array(shifted, {1: "blob"})
            (o1,) = extract_objects(g1, min_area=1)
            (o2,) = extract_objects(g2, min_area=1)
            assert shape_histogram(g1, [o1])[0].tolist() == shape_histogram(g2, [o2])[0].tolist()

    def test_upscale_robustness(self):
        # Resolved objects: at these sizes the half-pixel rasterization
        # shift stays well inside the bin width.
        for arr in _resolved_shapes():
            doubled = np.kron(arr, np.ones((2, 2), dtype=int))
            g1 = grid_from_array(arr, {1: "blob"})
            g2 = grid_from_array(doubled, {1: "blob"})
            (o1,) = extract_objects(g1, min_area=1)
            (o2,) = extract_objects(g2, min_area=1)
            h1 = shape_histogram(g1, [o1])[0]
            h2 = shape_histogram(g2, [o2])[0]
            assert np.abs(h1 - h2).sum() <= 0.15

    def test_single_pixel_degenerates_to_last_bin(self):
        arr = np.zeros((3, 3), dtype=int)
        arr[1, 1] = 1
        grid = grid_from_array(arr, {1: "dot"})
        (obj,) = extract_objects(grid, min_area=1)
        hist = shape_histogram(grid, [obj])[0].tolist()
        assert hist[-1] == 1.0
        assert sum(hist) == pytest.approx(1.0, abs=1e-12)

    def test_bins_sum_to_one(self, rng):
        for _ in range(20):
            grid = blob_grid(rng)
            (obj,) = extract_objects(grid, min_area=1)
            hist = shape_histogram(grid, [obj])[0].tolist()
            assert sum(hist) == pytest.approx(1.0, abs=1e-9)
            assert all(b >= 0 for b in hist)


def _shape_histogram_reference(grid, obj):
    """Per-sample loop form of `shape_histogram`, kept as its exactness oracle."""
    n_samples, n_bins = SHAPE_SAMPLES, SHAPE_BINS
    r0, c0 = obj.bbox[0], obj.bbox[1]
    pts = [(float(r - r0), float(c - c0)) for r, c in boundary(grid, obj)]
    cy = float(np.mean([r - r0 for r, _ in pixels(obj)]))
    cx = float(np.mean([c - c0 for _, c in pixels(obj)]))
    if len(pts) == 1:
        samples = np.zeros(n_samples)
    else:
        closed = pts + [pts[0]]
        seg = np.array(
            [math.hypot(q[0] - p[0], q[1] - p[1]) for p, q in zip(closed, closed[1:])]
        )
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        total = cum[-1]
        targets = np.arange(n_samples) * (total / n_samples)
        idx = np.searchsorted(cum, targets, side="right") - 1
        idx = np.clip(idx, 0, len(seg) - 1)
        dist_samples = []
        for t, i in zip(targets, idx):
            frac = 0.0 if seg[i] == 0 else (t - cum[i]) / seg[i]
            p, q = closed[i], closed[i + 1]
            r = p[0] + frac * (q[0] - p[0])
            c = p[1] + frac * (q[1] - p[1])
            dist_samples.append(math.hypot(r - cy, c - cx))
        samples = np.array(dist_samples)
    max_d = samples.max() if len(samples) else 0.0
    normalized = np.ones(n_samples) if max_d <= 0.0 else samples / max_d
    counts = np.zeros(n_bins, dtype=np.int64)
    for v in normalized:
        counts[min(int(v * n_bins), n_bins - 1)] += 1
    return [float(f) for f in counts / float(n_samples)]


def _random_ellipse_array(rng):
    h, w = (int(v) for v in rng.integers(1, 30, size=2))
    arr = np.zeros((h + 4, w + 4), dtype=np.int32)
    rows, cols = np.ogrid[:h, :w]
    mask = ((rows - (h - 1) / 2) / (h / 2)) ** 2 + ((cols - (w - 1) / 2) / (w / 2)) ** 2 <= 1
    arr[2 : 2 + h, 2 : 2 + w][mask] = 1
    return arr


def test_shape_histogram_matches_loop_reference_exactly(rng):
    for k in range(120):
        if k % 2:
            size, steps = int(rng.integers(3, 24)), int(rng.integers(0, 120))
            arr = random_blob_array(rng, size=size, steps=steps)
        else:
            arr = _random_ellipse_array(rng)
        grid = grid_from_array(arr, {1: "x"})
        for obj in extract_objects(grid, min_area=1):
            got = shape_histogram(grid, [obj])[0].tolist()
            assert got == _shape_histogram_reference(grid, obj)


def _lattice_map(rng, cells=7, size=8):
    """A map of up to `cells`**2 objects, one per `size`-square lattice cell.

    Each cell holds one random shape of a random class, drawn in its
    top-left (size-1)-square so that shapes in neighbouring cells never
    touch: a random blob, a single pixel, a 1-pixel line, a ring, or
    nothing.  Shapes in the first row and column lie on the grid edge.
    """
    arr = np.zeros((cells * size, cells * size), dtype=np.int32)
    inner = size - 1
    for i in range(cells):
        for j in range(cells):
            cell = arr[i * size : i * size + inner, j * size : j * size + inner]
            cls = int(rng.integers(1, 4))
            kind = int(rng.integers(6))
            if kind <= 1:
                blob = random_blob_array(rng, size=inner, steps=int(rng.integers(0, 30)))
                cell[blob > 0] = cls
            elif kind == 2:
                cell[tuple(rng.integers(inner, size=2))] = cls
            elif kind == 3:
                cell[int(rng.integers(inner)), : int(rng.integers(1, inner + 1))] = cls
            elif kind == 4:
                cell[:, :] = cls
                cell[1:-1, 1:-1] = 0
    return arr


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((1, 3)))
def test_scene_histograms_equal_the_per_object_reference(seed, min_area):
    # Prefixes give scenes of 0, 1 and 2 objects (per-object path) and
    # 3 and about 40 objects (batched path); the reversed scene checks
    # that no row depends on another.
    arr = _lattice_map(np.random.default_rng(seed))
    grid = grid_from_array(arr, {1: "a", 2: "b", 3: "c"})
    objects = extract_objects(grid, min_area)
    expected = [_shape_histogram_reference(grid, o) for o in objects]
    for n in (0, 1, 2, 3, len(objects)):
        got = shape_histogram(grid, objects[:n])
        assert got.shape == (n, SHAPE_BINS) and not got.flags.writeable
        assert got.tolist() == expected[:n]
    got = shape_histogram(grid, objects[::-1])
    assert got.tolist() == expected[::-1]


def _assert_traced_the_same_in_any_company(grid, objects, orders):
    """Each object's contour and histogram row, traced within each of
    `orders` (lists of indices into `objects`), equal those it gets alone."""
    alone = [boundary(grid, o) for o in objects]
    alone_hists = [shape_histogram(grid, [o])[0].tolist() for o in objects]
    for order in orders:
        chosen = [objects[i] for i in order]
        points, lengths = trace_boundaries(grid, chosen)
        assert points.shape == (int(lengths.sum()), 2)
        ends = np.cumsum(lengths).tolist()
        contours = [tuple(map(tuple, points[e - n : e].tolist())) for n, e in zip(lengths, ends)]
        assert contours == [alone[i] for i in order]
        assert shape_histogram(grid, chosen).tolist() == [alone_hists[i] for i in order]


@settings(max_examples=150, deadline=None)
@given(_shape_maps(), st.sampled_from((1, 3)), st.data())
def test_contours_and_histograms_do_not_depend_on_the_objects_traced_with_them(
    arr, min_area, data
):
    # The neighbour codes cover only the rows of the objects passed, so a
    # subset or an order whose first object is not the topmost one must
    # still trace every object as it is traced alone.
    grid = grid_from_array(arr, {1: "a", 2: "b", 3: "c"})
    objects = extract_objects(grid, min_area)
    raster = list(range(len(objects)))
    subset = data.draw(st.lists(st.sampled_from(raster), unique=True)) if objects else []
    _assert_traced_the_same_in_any_company(grid, objects, [raster, raster[::-1], subset])


def test_named_shapes_trace_the_same_in_any_company():
    # Single pixels in two corners, 1-pixel lines along two edges, a ring
    # around a hole of another class, and a diagonal ending on the right edge.
    grid = grid_from_array(_named_shapes_array(), {1: "a", 2: "b", 3: "c"})
    objects = extract_objects(grid, 1)
    raster = list(range(len(objects)))
    orders = [raster, raster[::-1], raster[1::2], raster[-2:], [raster[-1], raster[0]]]
    _assert_traced_the_same_in_any_company(grid, objects, orders)


def test_single_pixels_in_a_batch_put_all_mass_in_the_last_bin():
    arr = np.zeros((5, 9), dtype=np.int32)
    arr[0, 0] = arr[2, 4] = arr[4, 8] = 1
    arr[0:3, 7] = 2
    grid = grid_from_array(arr, {1: "a", 2: "b"})
    objects = extract_objects(grid, 1)
    assert [o.pixel_count for o in objects] == [1, 3, 1, 1]
    hists = shape_histogram(grid, objects)
    for o, h in zip(objects, hists):
        assert h.tolist() == _shape_histogram_reference(grid, o)
    last_bin = [0.0] * (SHAPE_BINS - 1) + [1.0]
    assert [h.tolist() for i, h in enumerate(hists) if i != 1] == [last_bin] * 3


def _resolved_shapes():
    """Deterministic well-resolved test objects: rect, L, cross, ellipse."""
    shapes = []
    rect = np.zeros((24, 38), dtype=int)
    rect[2:22, 2:36] = 1
    shapes.append(rect)
    ell = np.zeros((29, 45), dtype=int)
    rc, cc = 14.0, 22.0
    for r in range(29):
        for c in range(45):
            if ((r - rc) / 12.5) ** 2 + ((c - cc) / 20.5) ** 2 <= 1.0:
                ell[r, c] = 1
    shapes.append(ell)
    lshape = np.zeros((30, 44), dtype=int)
    lshape[4:26, 4:14] = 1
    lshape[18:26, 4:40] = 1
    shapes.append(lshape)
    cross = np.zeros((40, 40), dtype=int)
    cross[5:35, 15:25] = 1
    cross[15:25, 5:35] = 1
    shapes.append(cross)
    return shapes


class TestPairRelation:
    def test_stacked_pair_fields(self):
        arr = np.zeros((20, 8), dtype=int)
        arr[4:8, 2:6] = 1
        arr[8:16, 2:6] = 2
        grid = grid_from_array(arr, {1: "top", 2: "bottom"})
        top, bottom = extract_objects(grid, min_area=1)
        table = relations_for_objects(grid, [top, bottom])
        assert len(table) == 2
        assert table.a_index.tolist() == [0, 1] and table.b_index.tolist() == [1, 0]
        assert OCTANTS[table.rpos[0]] == "S"
        assert PROXIMITY_LABELS[table.rprox[0]] == "ON"
        assert table.rsize[0] == pytest.approx(math.log(16 / 32), abs=1e-12)
        assert OCTANTS[table.rpos[1]] == "N"
        assert PROXIMITY_LABELS[table.rprox[1]] == "UNDER"

    def test_fields_match_componentwise_oracle(self, rng):
        for _ in range(15):
            arr = random_blob_array(rng, size=16, steps=30, class_id=1)
            other = random_blob_array(rng, size=16, steps=30, class_id=2)
            arr[arr == 0] = other[arr == 0]
            grid = grid_from_array(arr, {1: "a", 2: "b"})
            objects = extract_objects(grid, min_area=1)
            if len({o.centroid for o in objects}) < len(objects):
                with pytest.raises(DegeneratePairError):
                    relations_for_objects(grid, objects)
                continue
            table = relations_for_objects(grid, objects)
            rows = pair_oracle.table_rows(table, objects)
            assert rows == pair_oracle.relations(grid, objects)
            for rel in rows:
                a, b = objects[rel.a_id], objects[rel.b_id]
                assert rel.rpos == pair_oracle.octant(a.centroid, b.centroid)
                touching = contact(a, b)
                assert rel.rprox == pair_oracle.proximity_relation(a, b, touching, grid.height)
                assert rel.rsize == pair_oracle.size_log_ratio(a, b)
                assert rel.rdist == pair_oracle.norm_distance(a, b, grid)
                assert rel.rdist_bin == pair_oracle.distance_bin(rel.rdist)

    def test_reversed_pair_antisymmetry(self, rng):
        arr = np.zeros((20, 20), dtype=int)
        arr[2:6, 3:8] = 1
        arr[12:17, 10:16] = 2
        grid = grid_from_array(arr, {1: "a", 2: "b"})
        table = relations_for_objects(grid, extract_objects(grid, min_area=1))
        assert OCTANTS[table.rpos[0]] == pair_oracle.opposite_octant(OCTANTS[table.rpos[1]])
        assert table.rsize[0] == -table.rsize[1]
        assert table.rdist[0] == table.rdist[1]


# Label maps of up to six rectangles on a 24 x 24 grid.  Later rectangles
# paint over earlier ones, so scenes hold touching, nested, overlapping
# and separate objects of classes 1-4.
rect = st.tuples(
    st.integers(1, 4), st.integers(0, 23), st.integers(0, 23), st.integers(1, 12),
    st.integers(1, 12),
)
scenes = st.lists(rect, min_size=0, max_size=6)


def paint(rects, shape=(24, 24)):
    arr = np.zeros(shape, dtype=np.int32)
    for class_id, r, c, h, w in rects:
        arr[r : r + h, c : c + w] = class_id
    return arr


CLASS_MAP = {1: "a", 2: "b", 3: "c", 4: "d"}

# One scene per proximity label: (rectangles, (A class, B class)).
LABELLED_SCENES = {
    "ON": ([(1, 2, 4, 3, 4), (2, 5, 2, 6, 8)], (1, 2)),
    "UNDER": ([(2, 8, 2, 3, 8), (1, 2, 4, 6, 4)], (2, 1)),
    "FRONT": ([(2, 2, 2, 12, 12), (1, 6, 6, 3, 3)], (1, 2)),
    "BACK": ([(2, 2, 2, 12, 12), (1, 6, 6, 3, 3)], (2, 1)),
    "BESIDE": ([(1, 4, 2, 3, 3), (2, 4, 5, 3, 3)], (1, 2)),
    "NONE": ([(1, 1, 1, 2, 2), (2, 15, 15, 3, 3)], (1, 2)),
}


def test_every_proximity_label_matches_oracle():
    for expected, (rects, classes) in LABELLED_SCENES.items():
        grid = grid_from_array(paint(rects), CLASS_MAP)
        objects = extract_objects(grid, min_area=1)
        table = relations_for_objects(grid, objects)
        rows = pair_oracle.table_rows(table, objects)
        assert rows == pair_oracle.relations(grid, objects)
        labelled = next(r for r in rows if (r.a_class, r.b_class) == classes)
        assert labelled.rprox == expected


@given(scenes)
def test_pair_table_equals_per_pair_oracle(rects):
    grid = grid_from_array(paint(rects), CLASS_MAP)
    objects = extract_objects(grid, min_area=1)
    try:
        expected = pair_oracle.relations(grid, objects)
    except DegeneratePairError:
        with pytest.raises(DegeneratePairError):
            relations_for_objects(grid, objects)
        return
    table = relations_for_objects(grid, objects)
    assert len(table) == len(objects) * (len(objects) - 1)
    assert pair_oracle.table_rows(table, objects) == expected


def test_pair_table_columns_are_read_only():
    grid = grid_from_array(paint(LABELLED_SCENES["ON"][0]), CLASS_MAP)
    table = relations_for_objects(grid, extract_objects(grid, min_area=1))
    with pytest.raises(ValueError):
        table.rdist[0] = 0.5


@pytest.mark.parametrize("rects", [[], [(1, 3, 3, 4, 4)]])
def test_fewer_than_two_objects_make_an_empty_table(rects):
    grid = grid_from_array(paint(rects), CLASS_MAP)
    objects = extract_objects(grid, min_area=1)
    table = relations_for_objects(grid, objects)
    assert len(table) == 0
    assert table.rdist.dtype == np.float64 and table.rpos.dtype == np.int64
