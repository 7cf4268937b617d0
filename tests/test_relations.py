"""Pairwise relation channels and the shape histogram."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenecheck import (
    DegeneratePairError,
    ObjectTable,
    extract_objects,
    grid_from_array,
    relations_for_objects,
    shape_histogram,
    trace_boundaries,
)
from scenecheck import labelgrid, relations
from scenecheck.relations import (
    K_DIST,
    OCTANTS,
    PROXIMITY_LABELS,
    ROW_EPS_FRACTION,
    SHAPE_BINS,
    SHAPE_SAMPLES,
)

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


def perturbed(ufunc, delta):
    """`ufunc` with its results scaled by 1 + delta and 1 - delta in turn.

    The library computes octants and shape samples with numpy and falls
    back to `math` near an edge; patched in for the numpy function, this
    stands in for a numpy build whose results differ from `math` by far
    more than the last bit.  A delta of 0 leaves the results as they are.
    """

    def scaled(*args):
        out = ufunc(*args)
        sign = np.where(np.arange(out.size) % 2, -1.0, 1.0).reshape(out.shape)
        return out * (1.0 + delta * sign)

    return scaled


def standins(centroids, pixel_counts=None):
    """A table of stand-in objects with chosen centroids and pixel counts,
    built from its columns.

    Object i's one pixel, at (2i, 0), is read only by the proximity
    channel (bbox nesting and contact): no two touch, so the contact
    matrix is all False, and their runs are disjoint, as labelling gives
    them.  The other channels read the centroid and the pixel count.
    """
    n = len(centroids)
    rows, zeros = 2 * np.arange(n), np.zeros(n, np.int64)
    return ObjectTable(
        class_id=np.ones(n, np.int64),
        pixel_count=np.array(pixel_counts or [1] * n, np.int64),
        centroid=np.array(centroids, np.float64).reshape(n, 2),
        bbox=np.column_stack((rows, zeros, rows, zeros)),
        runs=np.column_stack((rows, zeros, zeros + 1)),
        offsets=np.arange(n + 1),
        contacts=np.zeros((n, n), bool),
    )


# Large enough that every centroid used below lies inside it.
STANDIN_GRID = grid_from_array(np.zeros((200, 200), dtype=np.int32), {1: "a"})


def pair_columns(a_centroid, b_centroid, a_count=1, b_count=1, grid=STANDIN_GRID):
    """The PairTable of stand-ins A and B: row 0 is (A, B), row 1 is (B, A)."""
    return relations_for_objects(grid, standins([a_centroid, b_centroid], [a_count, b_count]))


def rpos(a_centroid, b_centroid):
    """The octant label of the direction from A's centroid to B's."""
    return OCTANTS[pair_columns(a_centroid, b_centroid).rpos[0]]


def rpos_of_pairs(pairs):
    """`rpos` of each (A centroid, B centroid) pair, read from one table.

    Each pair becomes stand-ins 2k and 2k + 1, and the rows (2k, 2k + 1)
    are read.
    """
    table = relations_for_objects(STANDIN_GRID, standins([c for pair in pairs for c in pair]))
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


def _sector_edge_offsets():
    """(dr, dc) offsets whose direction is the double nearest to a sector
    edge, 22.5 + 45k degrees, or 1 to 3 steps of dc away, at three lengths."""
    offsets = []
    for k in range(8):
        phi = math.radians(22.5 + 45 * k)
        for length in (1.0, 7.5, 60.0):
            dr, dc = -length * math.sin(phi), length * math.cos(phi)
            for _ in range(3):
                dc = math.nextafter(dc, -math.inf)
            for _ in range(7):
                offsets.append((dr, dc))
                dc = math.nextafter(dc, math.inf)
    return offsets


@pytest.mark.parametrize("delta", [0.0, 1e-12, -1e-12])
def test_octants_on_sector_edges_match_the_oracle(monkeypatch, delta):
    monkeypatch.setattr(np, "arctan2", perturbed(np.arctan2, delta))
    origin = (0.0, 0.0)
    for offset in _sector_edge_offsets():
        sector = math.atan2(-offset[0], offset[1]) * 4 / math.pi + 0.5
        assert abs(sector - round(sector)) < 1e-12
        table = pair_columns(origin, offset)
        expected = [pair_oracle.octant(origin, offset), pair_oracle.octant(offset, origin)]
        assert [OCTANTS[p] for p in table.rpos.tolist()] == expected


TOUCHING_PAIR = [[False, True], [True, False]]


class TestContact:
    def _two_rect_grid(self, gap):
        arr = np.zeros((8, 12), dtype=int)
        arr[2:5, 1:4] = 1
        arr[2:5, 4 + gap : 7 + gap] = 2
        return grid_from_array(arr, {1: "a", 2: "b"})

    def test_shared_edge_touches(self):
        grid = self._two_rect_grid(gap=0)
        assert extract_objects(grid, min_area=1).contacts.tolist() == TOUCHING_PAIR

    def test_two_pixel_gap_does_not_touch(self):
        grid = self._two_rect_grid(gap=2)
        assert not extract_objects(grid, min_area=1).contacts.any()

    def test_diagonal_corner_touches(self):
        arr = np.zeros((6, 6), dtype=int)
        arr[1:3, 1:3] = 1
        arr[3:5, 3:5] = 2
        grid = grid_from_array(arr, {1: "a", 2: "b"})
        assert extract_objects(grid, min_area=1).contacts.tolist() == TOUCHING_PAIR

    def test_relations_read_the_contacts_found_while_labelling(self, monkeypatch):
        arr = np.zeros((8, 12), dtype=int)
        arr[2:5, 1:4] = 1
        arr[2:5, 4:7] = 2
        arr[6:8, 9:12] = 3
        grid = grid_from_array(arr, {1: "a", 2: "b", 3: "c"})
        objects = extract_objects(grid, min_area=1)

        def search(*args):
            raise AssertionError("the runs were searched after labelling")

        monkeypatch.setattr(labelgrid, "_adjacent_runs", search)
        table = relations_for_objects(grid, objects)
        labels = {
            (a, b): PROXIMITY_LABELS[p]
            for a, b, p in zip(table.a_index.tolist(), table.b_index.tolist(), table.rprox.tolist())
        }
        assert labels == {
            (0, 1): "BESIDE", (0, 2): "NONE", (1, 0): "BESIDE",
            (1, 2): "NONE", (2, 0): "NONE", (2, 1): "NONE",
        }
        twin = relations_for_objects(grid, objects[np.arange(3) != 2])
        assert [PROXIMITY_LABELS[p] for p in twin.rprox.tolist()] == ["BESIDE", "BESIDE"]

    def test_matches_exhaustive_pixel_pair_oracle(self, rng):
        for _ in range(60):
            arr = random_blob_array(rng, size=14, steps=25, class_id=1)
            other = random_blob_array(rng, size=14, steps=25, class_id=2)
            arr[arr == 0] = other[arr == 0]
            grid = grid_from_array(arr, {1: "a", 2: "b"})
            objects = extract_objects(grid, min_area=1)
            touching = objects.contacts
            assert (touching == touching.T).all()
            for i in range(len(objects)):
                for j in range(i + 1, len(objects)):
                    want = _touch_oracle(objects, i, j)
                    assert touching[i, j] == want == pair_oracle.contact(objects, i, j)


class TestProximity:
    def _labels(self, arr, class_map):
        """The scene's objects and the `rprox` label of each ordered class
        pair; every object has its own class."""
        grid = grid_from_array(arr, class_map)
        objects = extract_objects(grid, min_area=1)
        table = relations_for_objects(grid, objects)
        classes = objects.class_id.tolist()
        labels = {
            (classes[a], classes[b]): PROXIMITY_LABELS[p]
            for a, b, p in zip(
                table.a_index.tolist(), table.b_index.tolist(), table.rprox.tolist()
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
        objects, labels = self._labels(arr, {1: "top", 2: "bottom"})
        assert objects.contacts[0, 1]
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
        objects, labels = self._labels(arr, {1: "a", 2: "b"})
        assert objects.contacts[0, 1]
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
        objects = extract_objects(grid, min_area=1)
        assert len(objects) == 2
        (ar, ac), (br, bc) = objects.centroid.tolist()
        expected = math.hypot(ar - br, ac - bc) / math.hypot(30, 40)
        rdist = relations_for_objects(grid, objects).rdist
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
        (hist,) = shape_histogram(grid, extract_objects(grid, min_area=1))
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
            (h1,) = shape_histogram(g1, extract_objects(g1, min_area=1))
            (h2,) = shape_histogram(g2, extract_objects(g2, min_area=1))
            assert h1.tolist() == h2.tolist()

    def test_upscale_robustness(self):
        # Resolved objects: at these sizes the half-pixel rasterization
        # shift stays well inside the bin width.
        for arr in _resolved_shapes():
            doubled = np.kron(arr, np.ones((2, 2), dtype=int))
            g1 = grid_from_array(arr, {1: "blob"})
            g2 = grid_from_array(doubled, {1: "blob"})
            (h1,) = shape_histogram(g1, extract_objects(g1, min_area=1))
            (h2,) = shape_histogram(g2, extract_objects(g2, min_area=1))
            assert np.abs(h1 - h2).sum() <= 0.15

    def test_single_pixel_degenerates_to_last_bin(self):
        arr = np.zeros((3, 3), dtype=int)
        arr[1, 1] = 1
        grid = grid_from_array(arr, {1: "dot"})
        (hist,) = shape_histogram(grid, extract_objects(grid, min_area=1)).tolist()
        assert hist[-1] == 1.0
        assert sum(hist) == pytest.approx(1.0, abs=1e-12)

    def test_bins_sum_to_one(self, rng):
        for _ in range(20):
            grid = blob_grid(rng)
            (hist,) = shape_histogram(grid, extract_objects(grid, min_area=1)).tolist()
            assert sum(hist) == pytest.approx(1.0, abs=1e-9)
            assert all(b >= 0 for b in hist)


def _shape_histogram_reference(grid, objects, k):
    """Per-sample loop form of `shape_histogram` of object k of a table,
    kept as its exactness oracle."""
    counts = np.zeros(SHAPE_BINS, dtype=np.int64)
    for v in _normalized_samples_reference(grid, objects, k):
        counts[min(int(v * SHAPE_BINS), SHAPE_BINS - 1)] += 1
    return [float(f) for f in counts / float(SHAPE_SAMPLES)]


def _normalized_samples_reference(grid, objects, k):
    """The sample distances that `_shape_histogram_reference` bins,
    computed with `math.hypot` and divided by their maximum."""
    offsets = _sample_offsets_reference(grid, objects, k)
    if offsets is None:
        samples = np.zeros(SHAPE_SAMPLES)
    else:
        samples = np.array([math.hypot(r, c) for r, c in offsets])
    max_d = samples.max() if len(samples) else 0.0
    return np.ones(SHAPE_SAMPLES) if max_d <= 0.0 else samples / max_d


def _sample_offsets_reference(grid, objects, k):
    """The (row, col) offsets from the centroid of the points at which
    `_normalized_samples_reference` samples the contour of object k of a
    table, all in bbox-relative coordinates; None for a single pixel."""
    n_samples = SHAPE_SAMPLES
    r0, c0 = objects.bbox[k, :2].tolist()
    pts = [(float(r - r0), float(c - c0)) for r, c in boundary(grid, objects, k)]
    cy = float(np.mean([r - r0 for r, _ in pixels(objects, k)]))
    cx = float(np.mean([c - c0 for _, c in pixels(objects, k)]))
    if len(pts) == 1:
        return None
    closed = pts + [pts[0]]
    seg = np.array(
        [math.hypot(q[0] - p[0], q[1] - p[1]) for p, q in zip(closed, closed[1:])]
    )
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    targets = np.arange(n_samples) * (total / n_samples)
    idx = np.searchsorted(cum, targets, side="right") - 1
    idx = np.clip(idx, 0, len(seg) - 1)
    offsets = []
    for t, i in zip(targets, idx):
        frac = 0.0 if seg[i] == 0 else (t - cum[i]) / seg[i]
        p, q = closed[i], closed[i + 1]
        r = p[0] + frac * (q[0] - p[0])
        c = p[1] + frac * (q[1] - p[1])
        offsets.append((r - cy, c - cx))
    return offsets


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
        objects = extract_objects(grid, min_area=1)
        for k in range(len(objects)):
            got = shape_histogram(grid, objects[k : k + 1])[0].tolist()
            assert got == _shape_histogram_reference(grid, objects, k)


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
    # Prefixes give scenes of 0, 1, 2, 3 and about 40 objects, all binned
    # by the one batched path; the reversed scene checks that no row
    # depends on another.
    arr = _lattice_map(np.random.default_rng(seed))
    grid = grid_from_array(arr, {1: "a", 2: "b", 3: "c"})
    objects = extract_objects(grid, min_area)
    expected = [_shape_histogram_reference(grid, objects, k) for k in range(len(objects))]
    for n in (0, 1, 2, 3, len(objects)):
        got = shape_histogram(grid, objects[:n])
        assert got.shape == (n, SHAPE_BINS) and not got.flags.writeable
        assert got.tolist() == expected[:n]
    got = shape_histogram(grid, objects[::-1])
    assert got.tolist() == expected[::-1]


def _assert_traced_the_same_in_any_company(grid, objects, orders):
    """Each object's contour and histogram row, traced within each of
    `orders` (lists of indices into `objects`), equal those it gets alone."""
    alone = [boundary(grid, objects, k) for k in range(len(objects))]
    alone_hists = [shape_histogram(grid, objects[k : k + 1])[0].tolist() for k in range(len(alone))]
    for order in orders:
        chosen = objects[np.array(order, dtype=np.int64)]
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
    assert objects.pixel_count.tolist() == [1, 3, 1, 1]
    hists = shape_histogram(grid, objects)
    for k, h in enumerate(hists):
        assert h.tolist() == _shape_histogram_reference(grid, objects, k)
    last_bin = [0.0] * (SHAPE_BINS - 1) + [1.0]
    assert [h.tolist() for i, h in enumerate(hists) if i != 1] == [last_bin] * 3


def _edge_shapes_grid():
    """1-pixel lines, axis-aligned rectangles and a single pixel in one
    row; each shape but the pixel has samples that normalize to an inner
    bin edge exactly, 0.5 among them."""
    sizes = [(1, 5), (3, 1), (1, 11), (2, 3), (3, 2), (3, 5), (4, 7), (5, 3), (6, 11), (9, 5)]
    sizes.append((1, 1))
    arr = np.zeros((11, sum(w + 2 for _, w in sizes) + 1), dtype=np.int32)
    col = 1
    for k, (h, w) in enumerate(sizes):
        arr[1 : 1 + h, col : col + w] = 1 + k % 2
        col += w + 2
    return grid_from_array(arr, {1: "a", 2: "b"})


def _on_inner_edges(grid, objects, k):
    scaled = _normalized_samples_reference(grid, objects, k) * SHAPE_BINS
    edge = np.rint(scaled)
    return scaled[(np.abs(scaled - edge) < 1e-12) & (edge >= 1) & (edge < SHAPE_BINS)]


def _recomputed(grid, objects, k):
    """How many samples of object k the `_hypot` fallback recomputes: none
    unless a sample lies within 1e-9 of an inner bin edge, and then those
    samples and the candidates for the maximum, within 1e-9 of SHAPE_BINS."""
    scaled = _normalized_samples_reference(grid, objects, k) * SHAPE_BINS
    edge = np.rint(scaled)
    near = (np.abs(scaled - edge) < 1e-9) & (edge >= 1)
    return int(np.count_nonzero(near)) if (near & (edge < SHAPE_BINS)).any() else 0


@pytest.mark.parametrize("delta", [0.0, 1e-12, -1e-12])
def test_shape_bins_on_bin_edges_match_the_reference(monkeypatch, delta):
    monkeypatch.setattr(np, "hypot", perturbed(np.hypot, delta))
    # The fallback's inputs, one entry per call: the number of samples it
    # recomputed.  A path whose samples bypass np.hypot cannot pass
    # without it.
    fallback = []

    def counted(dr, dc):
        fallback.append(len(dr))
        return hypot(dr, dc)

    hypot = relations._hypot
    monkeypatch.setattr(relations, "_hypot", counted)
    grid = _edge_shapes_grid()
    objects = extract_objects(grid, 1)
    n = len(objects)
    assert n == 11
    assert all(len(_on_inner_edges(grid, objects, k)) for k in range(n - 1))
    assert any(8.0 in _on_inner_edges(grid, objects, k) for k in range(n))
    expected = [_shape_histogram_reference(grid, objects, k) for k in range(n)]
    assert shape_histogram(grid, objects).tolist() == expected
    assert [shape_histogram(grid, objects[k : k + 1])[0].tolist() for k in range(n)] == expected
    # Once for the batch and once for each object alone but the single
    # pixel, which has no sample on an edge.  Only the samples on an edge
    # and the candidates for the maximum are recomputed, not whole rows.
    recomputed = [_recomputed(grid, objects, k) for k in range(n)]
    assert fallback == [sum(recomputed)] + recomputed[:-1]
    assert all(0 < r < SHAPE_SAMPLES for r in recomputed[:-1]) and recomputed[-1] == 0


def _mixed_contours_array(rng):
    """`_lattice_map` blobs above a band of single pixels, 1-pixel lines
    longer than SHAPE_SAMPLES (more segments than samples), rings, short
    straight and diagonal lines and a small blob (several samples per
    segment), of random sizes and classes, no two touching."""
    band = np.zeros((44, 140), dtype=np.int32)

    def cls():
        return int(rng.integers(1, 4))

    band[1, 2 : 2 + int(rng.integers(65, 136))] = cls()
    band[3 : 3 + int(rng.integers(33, 41)), 0] = cls()
    for left in (2, 70):
        h, w = (int(v) for v in rng.integers(3, (21, 66)))
        band[3 : 3 + h, left : left + w] = cls()
        band[4 : 2 + h, left + 1 : left + w - 1] = 0
    for k in range(int(rng.integers(1, 8))):
        band[26, 2 + 3 * k] = cls()
    band[28, 2 : 2 + int(rng.integers(2, 12))] = cls()
    for k in range(int(rng.integers(2, 12))):
        band[30 + k, 30 + k] = 4
    blob = random_blob_array(rng, size=7, steps=int(rng.integers(0, 30)), class_id=cls())
    band[30:37, 60:67] = blob
    lattice = np.zeros((57, 140), dtype=np.int32)
    lattice[:56, :56] = _lattice_map(rng)
    return np.concatenate((lattice, band))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_one_batch_of_mixed_contour_lengths_bins_as_the_reference(seed, data):
    grid = grid_from_array(
        _mixed_contours_array(np.random.default_rng(seed)), {1: "a", 2: "b", 3: "c", 4: "d"}
    )
    objects = extract_objects(grid, 1)
    lengths = trace_boundaries(grid, objects)[1]
    assert lengths.min() == 1 and lengths.max() > SHAPE_SAMPLES
    assert any(1 < n < SHAPE_SAMPLES for n in lengths.tolist())
    expected = [_shape_histogram_reference(grid, objects, k) for k in range(len(objects))]
    assert shape_histogram(grid, objects).tolist() == expected
    order = data.draw(st.permutations(range(len(objects))))
    drawn = shape_histogram(grid, objects[np.array(order, dtype=np.int64)])
    assert drawn.tolist() == [expected[i] for i in order]
    # The empty batch bins to no arrays.
    assert relations.shape_histograms([], []) == []


# Two shapes on whose contours the quotient cum_i / h rounds across a
# sample target: its ceiling counts one target too few below the arc
# length of one contour point of the first shape, and one too many for
# the second.
_MISCOUNTED_SHAPES = (
    (
        ".#....",
        ".##...",
        ".#....",
        "######",
        ".###.#",
        ".#....",
    ),
    (
        "...........#",
        "...........#",
        "..........##",
        ".........###",
        "........###.",
        "###....###..",
        "###.#.####..",
        ".#######....",
        "..######....",
        "..###.......",
        "....#.......",
    ),
)


def test_sample_segments_are_counted_exactly_where_the_quotient_rounds_across_a_target(
    monkeypatch,
):
    arr = np.zeros((13, 21), dtype=np.int32)
    for (top, left), rows in zip(((1, 1), (1, 8)), _MISCOUNTED_SHAPES):
        arr[top : top + len(rows), left : left + len(rows[0])] = [
            [ch == "#" for ch in row] for row in rows
        ]
    grid = grid_from_array(arr, {1: "a"})
    objects = extract_objects(grid, 1)
    assert len(objects) == 2
    miscounts = []
    for k in range(len(objects)):
        pts = np.array(boundary(grid, objects, k) + boundary(grid, objects, k)[:1])
        step = np.abs(np.diff(pts, axis=0)).sum(axis=1)
        cum = np.cumsum(np.where(step == 2, math.hypot(1.0, 1.0), 1.0))
        arc, h = np.concatenate([[0.0], cum[:-1]]), cum[-1] / SHAPE_SAMPLES
        below = np.searchsorted(np.arange(SHAPE_SAMPLES) * h, arc, side="left")
        miscounts.append(sorted(set((np.ceil(arc / h) - below).tolist())))
    assert miscounts == [[-1.0, 0.0], [0.0, 1.0]]
    # A sample placed on the neighbouring segment moves by a rounding
    # error at most, which rarely changes a bin; the sample offsets that
    # reach np.hypot must be the reference's bit for bit.
    offsets = []

    def recorded(r, c):
        offsets.append(np.stack((r, c), axis=-1).tolist())
        return hypot(r, c)

    hypot = np.hypot
    monkeypatch.setattr(np, "hypot", recorded)
    expected = [_shape_histogram_reference(grid, objects, k) for k in range(2)]
    assert shape_histogram(grid, objects).tolist() == expected
    assert offsets == [
        [[list(rc) for rc in _sample_offsets_reference(grid, objects, k)] for k in range(2)]
    ]
    assert [shape_histogram(grid, objects[k : k + 1])[0].tolist() for k in range(2)] == expected


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
        table = relations_for_objects(grid, extract_objects(grid, min_area=1))
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
            if len(set(map(tuple, objects.centroid.tolist()))) < len(objects):
                with pytest.raises(DegeneratePairError):
                    relations_for_objects(grid, objects)
                continue
            table = relations_for_objects(grid, objects)
            rows = pair_oracle.table_rows(table, objects)
            assert rows == pair_oracle.relations(grid, objects)
            for rel in rows:
                i, j = rel.a_id, rel.b_id
                centroids = objects.centroid[i].tolist(), objects.centroid[j].tolist()
                assert rel.rpos == pair_oracle.octant(*centroids)
                touching = pair_oracle.contact(objects, i, j)
                assert rel.rprox == pair_oracle.proximity_relation(
                    objects, i, j, touching, grid.height
                )
                assert rel.rsize == pair_oracle.size_log_ratio(objects, i, j)
                assert rel.rdist == pair_oracle.norm_distance(objects, i, j, grid)
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


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_pair_table_of_objects_in_any_subset_and_order_equals_the_oracle(seed, data):
    # Positions in the list index the table; object ids are not read, so
    # ids that are not 0..n-1, in any order, give the same rows.
    arr = _lattice_map(np.random.default_rng(seed), cells=5)
    grid = grid_from_array(arr, {1: "a", 2: "b", 3: "c"})
    objects = extract_objects(grid, 1)
    order = data.draw(st.permutations(range(len(objects))))
    chosen = objects[np.array(order[: data.draw(st.integers(0, len(objects)))], dtype=np.int64)]
    table = relations_for_objects(grid, chosen)
    assert len(table) == len(chosen) * (len(chosen) - 1)
    assert pair_oracle.table_rows(table, chosen) == pair_oracle.relations(grid, chosen)


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


def _rectangle_lattice(rng, n_rects, concentric=False):
    """A map of `n_rects` rectangles of classes 1 to 4, one shape per 12 x 12
    cell of a lattice 8 cells wide; no shape reaches its cell's last row or
    column, so shapes in different cells never touch.

    Cell 0 holds a class-4 rectangle at the map's top-left corner and the
    lattice's last cell one at its bottom-right corner, so that distance
    bin K_DIST - 1 is reached.  Cell 1 holds a rectangle nested in another
    (FRONT and BACK), cell 2 two stacked ones that touch (ON and UNDER:
    their centroid rows are 5.5 apart, above 5% of the map's height of at
    most 96), cell 3 two side by side (BESIDE); every other cell holds one
    random rectangle.  With `concentric`, a random one of those is a
    square ring around a square of another class, with the same centroid.
    """
    cells = n_rects - 3
    rows = -(-cells // 8)
    arr = np.zeros((12 * rows, 96), dtype=np.int32)

    def put(cell, class_id, r, c, h, w):
        r0, c0 = 12 * (cell // 8) + r, 12 * (cell % 8) + c
        arr[r0 : r0 + h, c0 : c0 + w] = class_id

    h, w = (int(v) for v in rng.integers(1, 5, size=2))
    put(0, 4, 0, 0, h, w)
    put(1, 1, 0, 0, 10, 10)
    put(1, 2, 3, 3, 2, 3)
    put(2, 2, 0, 0, 2, 6)
    put(2, 3, 2, 0, 9, 6)
    put(3, 3, 2, 0, 4, 4)
    put(3, 1, 2, 4, 4, 4)
    for cell in range(4, cells - 1):
        h, w = (int(v) for v in rng.integers(1, 11, size=2))
        r, c = (int(v) for v in rng.integers(0, 12 - np.array([h, w])))
        put(cell, int(rng.integers(1, 5)), r, c, h, w)
    h, w = (int(v) for v in rng.integers(1, 5, size=2))
    put(8 * rows - 1, 4, 12 - h, 12 - w, h, w)
    if concentric:
        cell = int(rng.integers(4, cells - 1))
        put(cell, 0, 0, 0, 11, 11)
        put(cell, 1, 0, 0, 9, 9)
        put(cell, 0, 1, 1, 7, 7)
        put(cell, 2, 3, 3, 3, 3)
    return arr


def _relations_reference(grid, objects):
    """The PairTable columns of `relations_for_objects` as fancy-indexed
    formulas: per-pair rows of the centroid, log size and (A, B) proximity
    arrays, and one `math.hypot` per ordered pair."""
    n = len(objects)
    a, b = np.nonzero(~np.eye(n, dtype=bool))
    centroid, (r0, c0, r1, c1) = objects.centroid, objects.bbox.T
    dr, dc = (centroid[b] - centroid[a]).T
    log_size = np.array([math.log(c) for c in objects.pixel_count.tolist()])
    row, eps = centroid[:, 0], ROW_EPS_FRACTION * grid.height
    nested = (r0[:, None] > r0) & (c0[:, None] > c0) & (r1[:, None] < r1) & (c1[:, None] < c1)
    labels = [PROXIMITY_LABELS.index(p) for p in ("FRONT", "BACK", "NONE", "ON", "UNDER")]
    above, below = row[:, None] < row - eps, row[:, None] > row + eps
    prox = np.select([nested, nested.T, ~objects.contacts, above, below], labels, 4)
    rdist = relations._hypot(dr, dc) / grid.diagonal()
    return {
        "a_index": a,
        "b_index": b,
        "rpos": relations._octants(dr, dc),
        "rprox": prox[a, b],
        "rsize": log_size[a] - log_size[b],
        "rdist": rdist,
        "rdist_bin": np.minimum((rdist * K_DIST).astype(np.int64), K_DIST - 1),
    }


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(20, 60), st.booleans())
def test_crowded_pair_table_equals_the_fancy_indexed_formulas(seed, n_rects, concentric):
    # Every octant, proximity label and distance bin occurs on each map,
    # so each read of the flat gathers is compared with the reference.
    arr = _rectangle_lattice(np.random.default_rng(seed), n_rects, concentric)
    grid = grid_from_array(arr, CLASS_MAP)
    objects = extract_objects(grid, 1)
    assert len(objects) == n_rects + concentric
    if concentric:
        with pytest.raises(DegeneratePairError):
            relations_for_objects(grid, objects)
        return
    table = relations_for_objects(grid, objects)
    expected = _relations_reference(grid, objects)
    for name, column in expected.items():
        got = getattr(table, name)
        assert got.dtype == column.dtype and got.tobytes() == column.tobytes(), name
    assert set(table.rpos.tolist()) == set(range(len(OCTANTS)))
    assert set(table.rprox.tolist()) == set(range(len(PROXIMITY_LABELS)))
    assert set(table.rdist_bin.tolist()) == set(range(K_DIST))


def _rectangles_map(n_rects, walked_shapes):
    """A map of `n_rects` rectangles of class 1, one run per row each, and,
    when `walked_shapes`, a U-shape and a ring of class 2, whose rows hold
    two runs.  Rectangles run 1 to 3 rows by 2 to 5 columns; a 3-row one
    has its bottom row cut to one pixel."""
    arr = np.zeros((8, 7 * n_rects + 15), dtype=np.int32)
    for i in range(n_rects):
        arr[1 : 2 + i % 3, 7 * i + 1 : 7 * i + 3 + i % 4] = 1
        if i % 3 == 2:
            arr[3, 7 * i + 2 : 7 * i + 3 + i % 4] = 0
    if walked_shapes:
        u, ring = arr[1:6, -14:-9], arr[1:7, -7:-1]
        u[:, :] = ring[:, :] = 2
        u[:-1, 1:-1] = ring[1:-1, 1:-1] = 0
    return grid_from_array(arr, {1: "box", 2: "bend"})


def test_each_object_takes_its_contour_from_its_runs_or_the_walk_whatever_the_batch(
    monkeypatch,
):
    # Batches of one to three maps of 0 to 8 rectangles, with and without
    # a U-shape and a ring, blank maps, and the two walked shapes alone.
    # A walked map ahead of a map of rectangles puts their rows out of
    # object order, so the rows must be put back.
    batches = [
        [(0, False)],
        [(0, False), (0, False)],
        [(0, True)],
        [(0, True), (0, False), (0, True)],
        [(1, False)],
        [(2, True)],
        [(8, False)],
        [(1, False), (3, True)],
        [(2, True), (3, False), (0, True)],
        [(8, True), (4, True)],
        [(0, False), (5, True), (2, False)],
    ]
    by_runs, walked = [], []

    def from_runs(runs, offsets):
        by_runs.append((runs, offsets))
        return labelgrid._run_contours(runs, offsets)

    def traced(grid, objects):
        walked.append((grid, objects))
        return trace_boundaries(grid, objects)

    for spec in batches:
        grids = [_rectangles_map(k, shapes) for k, shapes in spec]
        tables = [extract_objects(g, 1) for g in grids]
        boxes = [objs[objs.class_id == 1] for objs in tables]
        bends = [(g, objs[objs.class_id == 2]) for g, objs in zip(grids, tables)]
        expected = [
            [_shape_histogram_reference(g, objs, k) for k in range(len(objs))]
            for g, objs in zip(grids, tables)
        ]
        alone = [shape_histogram(g, objs).tolist() for g, objs in zip(grids, tables)]
        monkeypatch.setattr(relations, "_run_contours", from_runs)
        monkeypatch.setattr(relations, "trace_boundaries", traced)
        by_runs.clear()
        walked.clear()
        got = [h.tolist() for h in relations.shape_histograms(grids, tables)]
        monkeypatch.undo()
        assert [len(b) for b in boxes] == [k for k, _ in spec]
        if any(len(b) for b in boxes):
            (runs, offsets), = by_runs
            assert runs.tolist() == np.concatenate([b.runs for b in boxes]).tolist()
            assert np.diff(offsets).tolist() == np.concatenate(
                [np.diff(b.offsets) for b in boxes]
            ).tolist()
        else:
            assert by_runs == []
        want = [(g, b) for g, b in bends if len(b)]
        assert len(want) == len(walked) == sum(shapes for _, shapes in spec)
        assert all(g is h and o == b for (g, o), (h, b) in zip(walked, want))
        assert got == alone == expected


def _crowded_map(rng):
    """A 96 x 128 map of 40 rectangles and ellipses, one per 12 x 16 cell,
    of three classes; every row of each is one run."""
    arr = np.zeros((96, 128), dtype=np.int32)
    for i in range(8):
        for j in range(5):
            h, w = (int(v) for v in rng.integers(2, 11, size=2))
            cell = arr[12 * i : 12 * i + h, 16 * j + 3 : 16 * j + 3 + w]
            rows, cols = np.ogrid[:h, :w]
            inside = ((rows - (h - 1) / 2) / (h / 2)) ** 2 + ((cols - (w - 1) / 2) / (w / 2)) ** 2
            cell[inside <= 1 if (i + j) % 2 else slice(None)] = int(rng.integers(1, 4))
    return grid_from_array(arr, {1: "a", 2: "b", 3: "c"})


def test_a_crowded_map_and_a_pair_of_it_trace_nothing_and_a_ring_is_traced_alone(
    rng, monkeypatch
):
    grid = _crowded_map(rng)
    objects = extract_objects(grid, 1)
    assert len(objects) == 40
    expected = [_shape_histogram_reference(grid, objects, k) for k in range(40)]

    def refuse(*args, **kwargs):
        raise AssertionError("traced a boundary of an object with one run per row")

    monkeypatch.setattr(relations, "trace_boundaries", refuse)
    assert shape_histogram(grid, objects).tolist() == expected
    assert shape_histogram(grid, objects[:2]).tolist() == expected[:2]
    # A ring beside the 40 shapes, which fill columns 3 to 76.
    arr = grid.to_array().copy()
    arr[40:46, 100:106] = 2
    arr[41:45, 101:105] = 0
    ringed = grid_from_array(arr, {1: "a", 2: "b", 3: "c"})
    objects = extract_objects(ringed, 1)
    ring = objects.bbox[:, 1] == 100
    assert len(objects) == 41 and ring.sum() == 1
    traced = []

    def counted(grid, objects):
        traced.append(objects)
        return trace_boundaries(grid, objects)

    monkeypatch.setattr(relations, "trace_boundaries", counted)
    assert shape_histogram(ringed, objects).tolist() == [
        _shape_histogram_reference(ringed, objects, k) for k in range(41)
    ]
    assert traced == [objects[ring]]
