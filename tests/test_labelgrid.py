"""Parsing, connected-component extraction, and boundary tracing."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import scenecheck
from scenecheck import (
    Corpus,
    FormatError,
    LabelGrid,
    ObjectTable,
    UnknownClassError,
    default_synthetic_config,
    extract_objects,
    grid_from_array,
    label_maps,
    load_label_grid,
    parse_label_grid,
    synth_corpus,
    trace_boundaries,
)
from scenecheck import labelgrid
from scenecheck.labelgrid import _BATCH_CELLS, _plain_cells, grid_batches

from conftest import blob_grid, boundary, components, pixels, runs
from pair_oracle import contact


class TestParse:
    def test_basic_grid(self):
        grid = parse_label_grid("2 3\n0 1 1\n0 0 2", {1: "cat", 2: "sofa"})
        assert (grid.height, grid.width) == (2, 3)
        assert tuple(grid.cells) == (0, 1, 1, 0, 0, 2)

    def test_all_background_single_cell(self):
        grid = parse_label_grid("1 1\n0", {})
        assert grid.cells == (0,)
        assert len(extract_objects(grid, min_area=1)) == 0

    def test_unknown_class_id(self):
        with pytest.raises(UnknownClassError):
            parse_label_grid("2 2\n0 5\n0 0", {1: "cat"})

    def test_ragged_row(self):
        with pytest.raises(FormatError):
            parse_label_grid("2 3\n0 1\n0 0 2", {1: "cat", 2: "sofa"})

    def test_non_integer_token(self):
        with pytest.raises(FormatError):
            parse_label_grid("1 2\n0 x", {})

    def test_wrong_row_count(self):
        with pytest.raises(FormatError):
            parse_label_grid("3 2\n0 0\n0 0", {})

    def test_roundtrip_text(self):
        text = "2 3\n0 1 1\n0 0 2\n"
        grid = parse_label_grid(text, {1: "cat", 2: "sofa"})
        assert grid.to_text() == text

    @pytest.mark.parametrize(
        "text",
        [
            "2 3\r\n0\t1  1\r\n 0 0 +2 \r\n",
            "2 3\n\n0 1 1\n\n0 -0 2",
            "2 3\r\n0 1 1\r\n0 0 2\r\n",
            "2 3\n0 1\t1\n0 0 2\n",
            "2 3\n0  1 1\n0 0 2\n",
            "2 3\n0 1 1 \n0 0 2\n",
            "\n\n2 3\n0 1 1\n0 0 2\n",
            "2 3\n0 1 1\n0 0 2\n\n\n",
            "2 3\n0 1 1\n0 0 2",
            "2 3\n+0 1 1\n-0 0 2\n",
            "2 3\n00 001 1\n0 0 000000002\n",
            "2 3\n0000000000 1 1\n0 0 0000000002\n",
            "2 3\n0 1 1\n0 0 " + "0" * 29 + "2\n",
            b"2 3\n0 1 1\n0 0 2\n",
            "2 3\r\n0 1 1\r\n0 0 2\r\n".encode(),
        ],
    )
    def test_whitespace_variants_parse_alike(self, text):
        canonical = parse_label_grid("2 3\n0 1 1\n0 0 2\n", {1: "a", 2: "b"})
        grid = parse_label_grid(text, {1: "a", 2: "b"})
        assert grid == canonical
        assert grid.cells.dtype == np.int32 and not grid.cells.flags.writeable

    @pytest.mark.parametrize(
        "text, error",
        [
            ("1 2\n0 " + "9" * 10 + "\n", UnknownClassError),
            ("1 2\n0 " + "9" * 30 + "\n", UnknownClassError),
            ("1 2\n0 \u0662\n", FormatError),  # an Arabic-Indic digit 2
            ("1 2\n0 -1\n", FormatError),
            ("1 2\n0 1\n\n0 1\n", FormatError),
            ("1 2\n0 1 1\n", FormatError),
            ("0 2\n", FormatError),
            ("1 2\n", FormatError),
            ("1 2 3\n0 1\n", FormatError),
        ],
    )
    def test_plain_looking_faults_raise_as_the_general_path_does(self, text, error):
        with pytest.raises(error):
            parse_label_grid(text, {1: "a", 2: "b"})
        with pytest.raises(error):
            parse_label_grid(text.encode(), {1: "a", 2: "b"})

    @pytest.mark.parametrize(
        "header",
        ["1_0 1", "1 1_0", "٢ 1", "1 ٢", "+ 1", "2.0 1", "0x2 1"],
    )
    def test_header_token_that_a_cell_refuses_is_format_error(self, header):
        # `int()` reads underscores and non-ASCII digits; the header is
        # checked with the cells' token rule instead.
        text = header + "\n" + "0\n" * 10
        for given_text in (text, text.encode()):
            with pytest.raises(FormatError) as exc:
                parse_label_grid(given_text, {})
            assert str(exc.value) == f"non-integer header token in {header!r}"

    @pytest.mark.parametrize("header", ["+2 1", "02 1", "2 +1", "2 01"])
    def test_header_tokens_with_a_sign_or_leading_zeros_are_read(self, header):
        text = header + "\n0\n0\n"
        for given_text in (text, text.encode()):
            assert parse_label_grid(given_text, {}) == parse_label_grid("2 1\n0\n0\n", {})


def _canonical_text(arr):
    rows = [" ".join(str(v) for v in row) for row in arr.tolist()]
    return f"{arr.shape[0]} {arr.shape[1]}\n" + "\n".join(rows) + "\n"


_SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 6))
_CLASS_IDS = st.integers(0, 2**31 - 1)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.int64, _SHAPES, elements=st.integers(0, 12)))
def test_canonical_text_round_trips(arr):
    text = _canonical_text(arr)
    grid = parse_label_grid(text, {i: str(i) for i in range(1, 13)})
    assert grid.to_text() == text


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.int64, _SHAPES, elements=_CLASS_IDS))
def test_array_text_parses_back_to_equal_cells(arr):
    class_map = {int(v): "c" for v in np.unique(arr) if v}
    grid = grid_from_array(arr, class_map)
    back = parse_label_grid(grid.to_text(), class_map)
    assert back == grid
    assert np.array_equal(back.to_array(), arr)


@settings(max_examples=80, deadline=None)
@given(
    hnp.arrays(np.int64, _SHAPES, elements=st.integers(0, 10**9 - 1)),
    st.booleans(),
)
@example(np.array([[0, 999_999_999, 7], [10, 0, 100_000_000]]), False)
def test_plain_text_decodes_as_the_general_path_reads_it(arr, final_newline):
    """A plain text takes the one-pass path and gives the grid its CRLF
    copy, which only the general path reads, gives."""
    class_map = {int(v): "c" for v in np.unique(arr) if v}
    text = _canonical_text(arr)[: None if final_newline else -1]
    head, body = text.encode().split(b"\n", 1)
    assert _plain_cells(body, *arr.shape) is not None
    plain = parse_label_grid(text, class_map)
    general = parse_label_grid(text.replace("\n", "\r\n"), class_map)
    assert parse_label_grid(text.encode(), class_map) == plain == general
    for grid in (plain, general):
        assert grid.cells.dtype == np.int32 and not grid.cells.flags.writeable
    assert np.array_equal(plain.to_array(), arr)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.int64, _SHAPES, elements=st.integers(-(2**31), 2**31 - 1)))
@example(np.array([[-(2**31), 2**31 - 1], [0, -1]]))
@example(np.array([[-(2**31)]]))
def test_to_text_is_the_joined_decimal_text(arr):
    class_map = {int(v): "c" for v in np.unique(arr) if v}
    grid = grid_from_array(arr, class_map)
    # The cells are sorted once, for the class check; rendering sorts none.
    with mock.patch.object(labelgrid, "_distinct", side_effect=AssertionError("sorted again")):
        assert grid.to_text() == _canonical_text(arr)


def _with_token(arr, position, token):
    tokens = [str(v) for v in arr.ravel().tolist()]
    tokens[position % len(tokens)] = token
    w = arr.shape[1]
    rows = [" ".join(tokens[i : i + w]) for i in range(0, len(tokens), w)]
    return f"{arr.shape[0]} {w}\n" + "\n".join(rows) + "\n"


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(np.int64, _SHAPES, elements=st.integers(0, 3)),
    st.integers(0, 10**6),
    st.sampled_from(["1.5", "x", "1e3", "0x1", "1_0", "-", "+", "--1", "1-", "-1", "-7"]),
)
def test_bad_token_is_a_format_error(arr, position, token):
    with pytest.raises(FormatError):
        parse_label_grid(_with_token(arr, position, token), {1: "a", 2: "b", 3: "c"})


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(np.int64, _SHAPES, elements=st.integers(0, 3)),
    st.integers(0, 10**6),
    st.sampled_from(["9", str(2**31 - 1), str(2**31), str(2**63), "9" * 30]),
)
def test_unknown_or_oversized_id_is_an_unknown_class_error(arr, position, token):
    with pytest.raises(UnknownClassError):
        parse_label_grid(_with_token(arr, position, token), {1: "a", 2: "b", 3: "c"})


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(
        np.int64, st.tuples(st.integers(2, 6), st.integers(2, 6)), elements=st.integers(0, 3)
    ),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_ragged_row_is_a_format_error(arr, row, longer):
    lines = _canonical_text(arr).splitlines()
    k = 1 + row % arr.shape[0]
    lines[k] = lines[k] + " 0" if longer else lines[k].rsplit(" ", 1)[0]
    with pytest.raises(FormatError):
        parse_label_grid("\n".join(lines), {1: "a", 2: "b", 3: "c"})


@pytest.fixture(scope="module")
def synth_map(tmp_path_factory):
    """The bytes of one `.lgrid` map that `synth_corpus` wrote, the
    corpus's class map, and a directory to write mutated copies in."""
    root = tmp_path_factory.mktemp("lgrid-mutants")
    synth_corpus(default_synthetic_config(n_images=4, seed=6), root / "corpus")
    corpus = Corpus.load(root / "corpus")
    image = root / "corpus" / "images" / f"{corpus.image_ids('train')[0]}.lgrid"
    return image.read_bytes(), corpus.class_map, root


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["replace", "insert", "delete"]),
    st.one_of(st.integers(0, 12), st.integers(0, 10**6)),  # the header, or anywhere
    st.one_of(st.sampled_from(b"0123456789 \t\r\n\v\f+-_x"), st.integers(0, 255)),
)
def test_label_map_with_one_byte_changed_loads_whole_or_fails_in_one_line(
    synth_map, how, position, byte
):
    # Either the map loads and its text parses back to equal cells, or
    # load_label_grid refuses it with a one-line error naming the file.
    # parse_label_grid, given the same bytes, gives the grid that was
    # loaded or the same one-line error without the file name.
    text, class_map, root = synth_map
    at = position % len(text)
    mutant = {
        "replace": text[:at] + bytes([byte]) + text[at + 1 :],
        "insert": text[:at] + bytes([byte]) + text[at:],
        "delete": text[:at] + text[at + 1 :],
    }[how]
    path = root / "mutant.lgrid"
    path.write_bytes(mutant)
    try:
        parsed = parse_label_grid(mutant, class_map, image_id=path.stem)
    except (FormatError, UnknownClassError) as exc:
        parsed = exc
    try:
        grid = load_label_grid(path, class_map)
    except (FormatError, UnknownClassError) as exc:
        assert str(exc).startswith(f"{path}: ") and "\n" not in str(exc)
        assert type(parsed) is type(exc) and str(exc) == f"{path}: {parsed}"
        return
    assert parsed == grid
    again = parse_label_grid(grid.to_text(), class_map, grid.image_id)
    assert again == grid


class TestLabelGrid:
    def test_cells_are_a_read_only_int32_row_major_array(self):
        arr = np.arange(6).reshape(2, 3) % 3
        grid = grid_from_array(arr, {1: "a", 2: "b"})
        assert grid.cells.dtype == np.int32 and grid.cells.shape == (6,)
        assert list(grid.cells) == arr.ravel().tolist()
        assert grid.to_array()[1, 2] == arr[1, 2]
        with pytest.raises(ValueError):
            grid.cells[0] = 1
        arr[0, 0] = 2  # the grid holds its own copy
        assert grid.to_array()[0, 0] == 0

    def test_to_array_is_a_read_only_view(self):
        grid = grid_from_array(np.eye(3, dtype=int), {1: "a"})
        view = grid.to_array()
        assert view.shape == (3, 3) and np.shares_memory(view, grid.cells)
        assert not view.flags.writeable

    def test_equality_compares_cell_values(self):
        arr = np.array([[0, 1], [1, 0]])
        a = grid_from_array(arr, {1: "a"}, image_id="g")
        assert a == LabelGrid("g", 2, 2, (0, 1, 1, 0), {1: "a"})
        assert a != grid_from_array(arr.T[::-1], {1: "a"}, image_id="g")
        assert a != grid_from_array(arr, {1: "a"}, image_id="h")

    def test_constructor_rejects_unknown_and_non_integer_cells(self):
        with pytest.raises(UnknownClassError):
            LabelGrid("g", 1, 2, (0, 7), {1: "a"})
        with pytest.raises(UnknownClassError):
            LabelGrid("g", 1, 2, (0, 2**40), {1: "a"})
        with pytest.raises(FormatError):
            LabelGrid("g", 1, 2, (0.5, 1.0), {1: "a"})
        with pytest.raises(FormatError):
            LabelGrid("g", 2, 2, (0, 1), {1: "a"})


def test_import_pulls_in_no_scipy():
    src = str(Path(scenecheck.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    subprocess.run(
        [sys.executable, "-c", "import scenecheck, sys; assert 'scipy' not in sys.modules"],
        env=env,
        check=True,
        timeout=60,
    )


class TestExtract:
    def test_diagonal_pixels_join(self):
        arr = np.zeros((4, 4), dtype=int)
        arr[1, 1] = arr[2, 2] = 1
        objects = extract_objects(grid_from_array(arr, {1: "x"}), min_area=1)
        assert objects.pixel_count.tolist() == [2]

    def test_separated_blobs_stay_apart(self):
        arr = np.zeros((4, 5), dtype=int)
        arr[:, 0:2] = 3
        arr[:, 3:5] = 3
        objects = extract_objects(grid_from_array(arr, {3: "y"}), min_area=1)
        assert objects.class_id.tolist() == [3, 3]
        assert objects.pixel_count.tolist() == [8, 8]

    def test_min_area_filters(self):
        arr = np.zeros((4, 4), dtype=int)
        arr[0, 0] = 1
        arr[2:4, 2:4] = 1
        objects = extract_objects(grid_from_array(arr, {1: "x"}), min_area=2)
        assert objects.pixel_count.tolist() == [4]

    def test_background_never_extracted(self):
        arr = np.zeros((3, 3), dtype=int)
        assert len(extract_objects(grid_from_array(arr, {}), min_area=1)) == 0

    def test_matches_flood_fill_oracle(self, rng):
        # Independent BFS flood fill over all pixels, 4+diagonal adjacency.
        for _ in range(20):
            arr = rng.integers(0, 4, size=(64, 64)).astype(np.int32)
            grid = grid_from_array(arr, {1: "a", 2: "b", 3: "c"})
            assert _component_oracle(arr, 1) == components(extract_objects(grid, min_area=1))

    def test_object_ids_follow_raster_order(self, rng):
        arr = rng.integers(0, 3, size=(32, 32)).astype(np.int32)
        objects = extract_objects(grid_from_array(arr, {1: "a", 2: "b"}), min_area=1)
        firsts = [pixels(objects, k)[0] for k in range(len(objects))]
        assert firsts == sorted(firsts)

    @pytest.mark.parametrize(
        "rows",
        [
            # Upper and lower runs end in the same column; the next run in
            # each row touches the other row's run diagonally.
            ["1 1 2 2", "2 2 1 1"],
            ["1 1 0 0", "0 0 1 1"],  # a run starts one column after another ends
            ["0 0 1 1", "1 1 0 0"],
            ["1 0 0 1", "0 1 1 0"],
            ["1 1 0 0 0", "0 0 0 1 1"],  # two columns apart: no contact
            ["1 2 1 2", "2 1 2 1", "1 2 1 2"],
            ["1 1 1 1 1", "1 0 0 0 1", "1 0 1 0 1", "1 0 0 0 1", "1 1 1 1 1"],
        ],
    )
    def test_diagonal_contacts_match_oracle(self, rows):
        text = f"{len(rows)} {len(rows[0].split())}\n" + "\n".join(rows)
        grid = parse_label_grid(text, {1: "a", 2: "b"})
        got = components(extract_objects(grid, min_area=1))
        assert got == _component_oracle(grid.to_array(), 1)

    def test_reparse_is_byte_stable(self, rng):
        arr = rng.integers(0, 3, size=(20, 20)).astype(np.int32)
        grid = grid_from_array(arr, {1: "a", 2: "b"})
        text = grid.to_text()
        a = extract_objects(parse_label_grid(text, grid.class_map), min_area=1)
        b = extract_objects(parse_label_grid(text, grid.class_map), min_area=1)
        assert a == b

    def test_centroid_lies_within_bbox(self, rng):
        for _ in range(10):
            arr = rng.integers(0, 3, size=(24, 24)).astype(np.int32)
            objects = extract_objects(grid_from_array(arr, {1: "a", 2: "b"}), min_area=1)
            for (r0, c0, r1, c1), (row, col) in zip(objects.bbox, objects.centroid):
                assert r0 <= row <= r1
                assert c0 <= col <= c1

    def test_pixel_accounting_sums_to_grid(self, rng):
        for _ in range(10):
            arr = rng.integers(0, 4, size=(24, 24)).astype(np.int32)
            grid = grid_from_array(arr, {1: "a", 2: "b", 3: "c"})
            obj_px = extract_objects(grid, min_area=3).pixel_count.sum()
            counts = extract_objects(grid, min_area=1).pixel_count
            ignored = counts[counts < 3].sum()
            background = 24 * 24 - int(np.count_nonzero(grid.cells))
            assert obj_px + ignored + background == 24 * 24


@st.composite
def _label_arrays(draw, max_side=12):
    """Small multi-class maps; `fill` of 8 cells is foreground, sparse to full."""
    shape = draw(st.tuples(st.integers(1, max_side), st.integers(1, max_side)))
    levels = draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 7)))
    classes = draw(hnp.arrays(np.int32, shape, elements=st.integers(1, 3)))
    fill = draw(st.sampled_from((1, 3, 6, 8)))
    return np.where(levels < fill, classes, 0).astype(np.int32)


@settings(max_examples=150, deadline=None)
@given(_label_arrays(), st.sampled_from((1, 3)))
def test_extraction_matches_flood_fill_oracle(arr, min_area):
    objects = extract_objects(grid_from_array(arr, {1: "a", 2: "b", 3: "c"}), min_area)
    assert components(objects) == _component_oracle(arr, min_area)
    firsts = [pixels(objects, k)[0] for k in range(len(objects))]
    assert firsts == sorted(firsts)
    for k in range(len(objects)):
        rows, cols = np.array(pixels(objects, k)).T
        assert objects.pixel_count[k] == len(rows)
        centroid = objects.centroid[k].tolist()
        assert centroid == [float(rows.astype(float).mean()), float(cols.astype(float).mean())]
        assert objects.bbox[k].tolist() == [rows.min(), cols.min(), rows.max(), cols.max()]


def _touch_oracle(objects, i, j):
    """Exhaustive pixel-pair test: some pixels of objects i and j of a table
    within Chebyshev distance 1."""
    b_pixels = pixels(objects, j)
    return any(
        max(abs(pa[0] - pb[0]), abs(pa[1] - pb[1])) <= 1
        for pa in pixels(objects, i)
        for pb in b_pixels
    )


@settings(max_examples=150, deadline=None)
@given(_label_arrays(max_side=14), st.sampled_from((1, 3)))
@example(np.array([[1, 0], [0, 2]], dtype=np.int32), 1)  # diagonal-only touch
@example(np.array([[1, 2, 0, 3]], dtype=np.int32), 1)  # single pixels in one row
@example(np.array([[1, 1, 0, 0], [0, 0, 2, 2], [2, 0, 0, 1]], dtype=np.int32), 1)
@example(np.array([[1, 1, 2, 2, 2, 0, 3, 3]], dtype=np.int32), 1)  # same-row runs
# A run ending at the right edge above a run starting at column 0, of
# another class and of the same class: flat neighbours, but no contact.
@example(np.array([[0, 0, 1], [2, 0, 0]], dtype=np.int32), 1)
@example(np.array([[0, 0, 1], [1, 0, 0]], dtype=np.int32), 1)
@example(np.array([[0, 1], [2, 0]], dtype=np.int32), 1)  # the same, one column apart
# A component below min_area between two objects, which do not touch.
@example(np.array([[1, 1, 2, 3, 3], [1, 1, 0, 3, 3]], dtype=np.int32), 3)
def test_runs_expand_to_components_and_decide_contact(arr, min_area):
    objects = extract_objects(grid_from_array(arr, {1: "a", 2: "b", 3: "c"}), min_area)
    assert components(objects) == _component_oracle(arr, min_area)
    for k, class_id in enumerate(objects.class_id.tolist()):
        own = runs(objects, k)
        assert own == sorted(own)
        assert sum(c1 - c0 for _, c0, c1 in own) == objects.pixel_count[k]
        for r, c0, c1 in own:
            assert 0 <= c0 < c1 <= arr.shape[1]
            assert (arr[r, c0:c1] == class_id).all()
            # Maximal: the cells either side of the run hold another class.
            assert c0 == 0 or arr[r, c0 - 1] != class_id
            assert c1 == arr.shape[1] or arr[r, c1] != class_id
    touching = objects.contacts
    assert touching.shape == (len(objects),) * 2
    for i in range(len(objects)):
        for j in range(len(objects)):
            if i != j:
                assert touching[i, j] == _touch_oracle(objects, i, j) == contact(objects, i, j)
    assert not touching.diagonal().any()


def _component_oracle(arr, min_area):
    """Set of (class, sorted pixel tuple) per 8-connected component."""
    h, w = arr.shape
    seen = set()
    out = set()
    for r in range(h):
        for c in range(w):
            if (r, c) in seen or arr[r, c] == 0:
                continue
            cls = arr[r, c]
            stack, comp = [(r, c)], []
            seen.add((r, c))
            while stack:
                y, x = stack.pop()
                comp.append((y, x))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = y + dy, x + dx
                        if (
                            0 <= ny < h
                            and 0 <= nx < w
                            and (ny, nx) not in seen
                            and arr[ny, nx] == cls
                        ):
                            seen.add((ny, nx))
                            stack.append((ny, nx))
            if len(comp) >= min_area:
                out.add((int(cls), tuple(sorted(comp))))
    return out


def _oracle_columns(arr, min_area):
    """The columns of the flood-fill oracle's objects of `arr`, in raster
    order of their first pixels, centroids as `float.hex` strings."""
    comps = sorted(_component_oracle(arr, min_area), key=lambda comp: comp[1][0])
    columns = {"class_id": [], "pixel_count": [], "centroid": [], "bbox": [], "runs": []}
    offsets = [0]
    for cls, pix in comps:
        rows, cols = np.array(pix).T
        columns["class_id"].append(cls)
        columns["pixel_count"].append(len(pix))
        columns["centroid"].append(
            [float(rows.astype(float).mean()).hex(), float(cols.astype(float).mean()).hex()]
        )
        columns["bbox"].append([int(rows.min()), int(cols.min()), int(rows.max()), int(cols.max())])
        for r, c in pix:
            last = columns["runs"][-1] if len(columns["runs"]) > offsets[-1] else None
            if last is not None and last[0] == r and last[2] == c:
                last[2] += 1
            else:
                columns["runs"].append([r, c, c + 1])
        offsets.append(len(columns["runs"]))
    columns["offsets"] = offsets
    return columns


def _assert_columns(table, arr, min_area):
    """Each column of `table` equals the oracle's, with its dtype, read-only."""
    want = _oracle_columns(arr, min_area)
    got = {name: getattr(table, name).tolist() for name in want}
    got["centroid"] = [[x.hex() for x in c] for c in got["centroid"]]
    assert got == want
    for name in want:
        column = getattr(table, name)
        assert column.dtype == (np.float64 if name == "centroid" else np.int64)
        assert not column.flags.writeable


def _stack_cells(batch):
    """Cells of the `label_maps` stack of `batch`: one background row after
    each map, all as wide as the widest."""
    return sum(g.height + 1 for g in batch) * max(g.width for g in batch)


@settings(max_examples=150, deadline=None)
@given(st.lists(_label_arrays(), min_size=1, max_size=6), st.sampled_from((1, 3)))
@example([np.zeros((1, 1), np.int32), np.array([[2]], np.int32), np.zeros((3, 5), np.int32)], 1)
# One class touching the stack's right edge, then the next map's first row
# below it: only the background row keeps the two apart.
@example([np.ones((2, 2), np.int32), np.ones((1, 3), np.int32), np.ones((2, 1), np.int32)], 1)
@example([np.array([[0, 3]], np.int32), np.array([[3, 0, 0]], np.int32)], 1)
@example([], 1)
def test_label_maps_equal_each_map_labelled_alone(arrays, min_area):
    grids = [grid_from_array(a, {1: "a", 2: "b", 3: "c"}) for a in arrays]
    batched = label_maps(grids, min_area)
    assert len(batched) == len(grids)
    for arr, grid, objects in zip(arrays, grids, batched):
        alone = extract_objects(grid, min_area)
        assert objects == alone  # every column
        _assert_columns(objects, arr, min_area)
        _assert_columns(alone, arr, min_area)
        assert components(objects) == _component_oracle(arr, min_area)


def _assert_contacts(table):
    """`table.contacts` is the read-only pixel-pair oracle of its objects."""
    touching = table.contacts
    assert touching.shape == (len(table),) * 2 and touching.dtype == bool
    assert not touching.flags.writeable
    for i in range(len(table)):
        for j in range(len(table)):
            want = i != j and _touch_oracle(table, i, j)
            assert touching[i, j] == want == (i != j and contact(table, i, j))


@settings(max_examples=150, deadline=None)
@given(st.lists(_label_arrays(max_side=10), min_size=1, max_size=4), st.sampled_from((1, 3)))
# A run ending at the right edge above a run starting at column 0, of
# another class and of the same class, alone and in a stack of wider maps.
@example([np.array([[0, 0, 1], [2, 0, 0]], np.int32)], 1)
@example([np.array([[0, 1], [1, 0]], np.int32), np.zeros((2, 5), np.int32)], 1)
@example([np.array([[0, 0, 1], [2, 0, 0]], np.int32), np.array([[3, 3, 3, 3, 3]], np.int32)], 1)
# A component below min_area between two objects, which do not touch,
# then a map narrower than the stack whose objects do.
@example(
    [np.array([[1, 1, 2, 3, 3], [1, 1, 0, 3, 3]], np.int32), np.array([[1, 2], [1, 2]], np.int32)],
    2,
)
def test_label_maps_contacts_match_the_pixel_oracle(arrays, min_area):
    grids = [grid_from_array(a, {1: "a", 2: "b", 3: "c"}) for a in arrays]
    for table in label_maps(grids, min_area):
        # Each table owns its matrix, not a view of the stack's.
        assert table.contacts.base is None
        _assert_contacts(table)
        _assert_contacts(table[::-1])
        _assert_contacts(table[1:])
        for k in range(len(table)):
            _assert_contacts(table.without(k))


@settings(max_examples=150, deadline=None)
@given(st.lists(_label_arrays(), min_size=1, max_size=6), st.sampled_from((1, 3, 25)))
# A batch of maps of 0, 1 and many objects.
@example(
    [
        np.zeros((4, 5), np.int32),
        np.array([[0, 2, 2], [0, 2, 0]], np.int32),
        np.array([[1, 0, 2, 0], [0, 0, 0, 3], [3, 3, 0, 1]], np.int32),
    ],
    1,
)
def test_label_maps_is_the_component_pass_then_the_table_pass(arrays, min_area):
    grids = [grid_from_array(a, {1: "a", 2: "b", 3: "c"}) for a in arrays]
    components = labelgrid._components(grids)
    tables = label_maps(grids, min_area)
    assert labelgrid._tables(components, min_area) == tables
    # The component pass alone counts the objects that the table pass builds,
    # over the batch and over each map alone.
    assert components.count(min_area) == sum(map(len, tables))
    for grid, table in zip(grids, tables):
        assert labelgrid._components([grid]).count(min_area) == len(table)


def test_a_map_without_objects_has_an_empty_contact_matrix():
    grid = grid_from_array(np.zeros((3, 4), np.int32), {})
    (table,) = label_maps([grid], 1)
    assert table.contacts.shape == (0, 0)
    assert extract_objects(grid_from_array(np.ones((2, 2), np.int32), {1: "a"}), 5) == table


def test_contact_memory_grows_with_the_largest_map_not_the_stack():
    # 60 maps of 64 one-pixel objects: a square matrix over the stack's
    # 3,840 objects would take 14.7 MB on its own.
    tile = np.tile(np.array([[1, 2], [3, 4]], np.int32), (4, 4))
    grids = [grid_from_array(tile, {1: "a", 2: "b", 3: "c", 4: "d"})] * 60
    assert len(next(grid_batches(grids))) == 60
    tracemalloc.start()
    try:
        tables = label_maps(grids, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(t) for t in tables] == [64] * 60
    assert all(t.contacts.sum() == 2 * 210 for t in tables)  # 8-adjacent pixel pairs
    assert peak < 8e6


@settings(max_examples=100, deadline=None)
@given(_label_arrays(), st.sampled_from((1, 3)))
def test_without_equals_labelling_the_cleared_map(arr, min_area):
    objects = extract_objects(grid_from_array(arr, {1: "a", 2: "b", 3: "c"}), min_area)
    for k in range(len(objects)):
        cleared = arr.copy()
        for r, c0, c1 in runs(objects, k):
            cleared[r, c0:c1] = 0
        want = extract_objects(grid_from_array(cleared, {1: "a", 2: "b", 3: "c"}), min_area)
        assert objects.without(k) == want
        _assert_columns(objects.without(k), cleared, min_area)
    with pytest.raises(IndexError):
        objects.without(len(objects))


def _table(rows, contacts):
    """The ObjectTable of (class, pixel count, centroid, bbox, runs) rows."""
    runs = [run for row in rows for run in row[4]]
    return ObjectTable(
        np.array([row[0] for row in rows], np.int64),
        np.array([row[1] for row in rows], np.int64),
        np.array([row[2] for row in rows], np.float64).reshape(-1, 2),
        np.array([row[3] for row in rows], np.int64).reshape(-1, 4),
        np.array(runs, np.int64).reshape(-1, 3),
        np.cumsum([0] + [len(row[4]) for row in rows]),
        np.array(contacts, bool).reshape(len(rows), len(rows)),
    )


def test_object_table_refuses_an_integer_key_and_iteration():
    arr = np.zeros((5, 9), np.int32)
    arr[0:2, 0:2] = 1
    arr[0:3, 4:6] = 2
    arr[3:5, 6:8] = 3  # touches the class-2 object diagonally
    objects = extract_objects(grid_from_array(arr, {1: "a", 2: "b", 3: "c"}), 1)
    empty = extract_objects(grid_from_array(np.zeros((2, 2), np.int32), {}), 1)
    for table in (objects, empty):
        for key in (0, -1, 3, np.int64(1), True):
            with pytest.raises(TypeError):
                table[key]
        with pytest.raises(TypeError):
            list(table)
        with pytest.raises(TypeError):
            for _ in table:
                pass
    # A slice, an index array and a mask give the tables of those objects.
    a = (1, 4, (0.5, 0.5), (0, 0, 1, 1), [(0, 0, 2), (1, 0, 2)])
    b = (2, 6, (1.0, 4.5), (0, 4, 2, 5), [(0, 4, 6), (1, 4, 6), (2, 4, 6)])
    c = (3, 4, (3.5, 6.5), (3, 6, 4, 7), [(3, 6, 8), (4, 6, 8)])
    assert objects == _table([a, b, c], [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert objects[1:] == _table([b, c], [[0, 1], [1, 0]])
    assert objects[::-2] == _table([c, a], [[0, 0], [0, 0]])
    assert objects[np.array([2, 1, 2])] == _table([c, b, c], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert objects[[0]] == _table([a], [[0]])
    assert objects[objects.class_id != 1] == _table([b, c], [[0, 1], [1, 0]])
    assert objects[:0] == empty == _table([], [])
    assert objects.without(1) == _table([a, c], [[0, 0], [0, 0]])


def test_grid_batches_read_lazily_and_fill_each_stack_up_to_the_budget():
    side = int(_BATCH_CELLS**0.5) + 1  # a map whose own stack exceeds the budget
    shapes = [(48, 64)] * 12 + [(side, side), (1, 1), (3, 200), (48, 64), (1, 1)]
    grids = [grid_from_array(np.zeros(s, np.int32), {}, str(i)) for i, s in enumerate(shapes)]
    read = []

    def source():
        for grid in grids:
            read.append(grid)
            yield grid

    batches = grid_batches(source())
    first = next(batches)
    assert read == grids[: len(first) + 1]  # the map that did not fit, and no further
    batches = [first, *batches]
    assert [g for batch in batches for g in batch] == grids
    assert [g.image_id for g in grids if (g.height, g.width) == (side, side)] in [
        [g.image_id for g in batch] for batch in batches
    ]
    for batch, after in zip(batches, batches[1:]):
        assert len(batch) == 1 or _stack_cells(batch) <= _BATCH_CELLS
        assert _stack_cells(batch + after[:1]) > _BATCH_CELLS
    assert max(len(batch) for batch in batches) > 1


class TestBoundary:
    def test_solid_square_boundary(self):
        grid = grid_from_array(np.ones((3, 3), dtype=int), {1: "x"})
        contour = boundary(grid, extract_objects(grid, min_area=1))
        assert len(contour) == 8
        assert (1, 1) not in contour
        assert contour[0] == (0, 0)

    def test_single_pixel_boundary(self):
        arr = np.zeros((3, 3), dtype=int)
        arr[1, 1] = 1
        grid = grid_from_array(arr, {1: "x"})
        assert boundary(grid, extract_objects(grid, min_area=1)) == ((1, 1),)

    def test_boundary_set_matches_4_neighbour_oracle(self, rng):
        for _ in range(50):
            grid = blob_grid(rng)
            objects = extract_objects(grid, min_area=1)
            assert len(objects) == 1
            inside = set(pixels(objects, 0))
            expected = {
                (r, c)
                for r, c in inside
                if any(
                    (r + dr, c + dc) not in inside
                    for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))
                )
            }
            assert set(boundary(grid, objects)) == expected

    def test_boundary_is_closed_8_connected_cycle(self, rng):
        for _ in range(25):
            grid = blob_grid(rng)
            cycle = list(boundary(grid, extract_objects(grid, min_area=1)))
            for p, q in zip(cycle, cycle[1:] + cycle[:1]):
                if len(cycle) == 1:
                    break
                assert max(abs(p[0] - q[0]), abs(p[1] - q[1])) == 1

    def test_boundary_depends_only_on_own_pixels(self, rng):
        # Filling the background around a blob with another class, or
        # adding a same-class blob that does not touch it, leaves the
        # blob's traced boundary as it was.
        for _ in range(10):
            grid = blob_grid(rng)
            objects = extract_objects(grid, min_area=1)
            contour = boundary(grid, objects)
            filled = grid_from_array(np.where(grid.to_array() == 0, 2, 1), {1: "a", 2: "b"})
            filled_objects = extract_objects(filled, 1)
            same = filled_objects[filled_objects.class_id == 1]
            assert runs(same, 0) == runs(objects, 0) and boundary(filled, same) == contour
            wide = np.zeros((16, 34), dtype=np.int32)
            wide[:, :16] = grid.to_array()
            wide[:, 18:] = grid.to_array()
            wide = grid_from_array(wide, {1: "a"})
            both = extract_objects(wide, 1)
            assert len(both) == 2
            assert boundary(wide, both, 0) == contour
            assert boundary(wide, both, 1) == tuple((r, c + 18) for r, c in contour)

    def test_contour_through_the_origin_twice_starts_at_the_start_state(self):
        # The top-left pixel joins two arms, so the contour passes it twice;
        # the walk ends on its artificial start state and the contour
        # starts there, as the mask trace's does, not at the first return.
        arr = np.zeros((4, 5), dtype=int)
        arr[0, 1:3] = 1
        arr[1:3, 0] = 1
        grid = grid_from_array(arr, {1: "x"})
        objects = extract_objects(grid, min_area=1)
        assert len(objects) == 1
        expected = ((0, 1), (0, 2), (0, 1), (1, 0), (2, 0), (1, 0))
        traced = _mask_trace(pixels(objects, 0), objects.bbox[0].tolist())
        assert boundary(grid, objects) == expected == traced

    def test_starts_at_top_left_most_pixel(self, rng):
        for _ in range(10):
            grid = blob_grid(rng)
            objects = extract_objects(grid, min_area=1)
            assert len(objects) == 1
            assert boundary(grid, objects)[0] == min(pixels(objects, 0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_boundary_pixel_touches_outside(seed):
    rng = np.random.default_rng(seed)
    grid = blob_grid(rng, size=12, steps=30)
    objects = extract_objects(grid, min_area=1)
    for k in range(len(objects)):
        inside = set(pixels(objects, k))
        for r, c in boundary(grid, objects, k):
            assert (r, c) in inside
            assert any(
                not (0 <= r + dr < grid.height and 0 <= c + dc < grid.width)
                or (r + dr, c + dc) not in inside
                for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))
            )


# Moore neighbourhood clockwise from West, and the backtrack direction
# after a move in each direction, as the tracer defines them.
_MOORE = ((0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1))
_BACK = tuple(
    _MOORE.index((_MOORE[d - 1][0] - _MOORE[d][0], _MOORE[d - 1][1] - _MOORE[d][1]))
    for d in range(8)
)


def _mask_trace(pixels, bbox):
    """Moore trace over a padded membership mask of the component's bbox.

    The tracer's earlier per-object form, kept as the exactness oracle of
    the per-grid neighbour codes: it reads nothing but the component's
    own pixels.
    """
    r0, c0, r1, c1 = bbox
    if len(pixels) == 1:
        return tuple(pixels)
    stride = c1 - c0 + 3
    inside = bytearray((r1 - r0 + 3) * stride)
    for r, c in pixels:
        inside[(r - r0 + 1) * stride + (c - c0 + 1)] = 1
    offsets = [dr * stride + dc for dr, dc in _MOORE]
    origin = stride + pixels[0][1] - c0 + 1
    cur, back = origin, 0
    seen, walk = {}, []
    state = cur * 8
    while state not in seen:
        seen[state] = len(walk)
        walk.append(cur)
        for k in range(1, 9):
            d = (back + k) & 7
            if inside[cur + offsets[d]]:
                break
        cur += offsets[d]
        back = _BACK[d]
        state = cur * 8 + back
    cycle = walk[seen[state] :]
    j = cycle.index(origin)
    return tuple(
        (p // stride + r0 - 1, p % stride + c0 - 1) for p in cycle[j:] + cycle[:j]
    )


@st.composite
def _shape_maps(draw):
    """Multi-class maps painted with blobs, single pixels, 1-pixel lines and
    rings, often clipped by or lying along the grid edge, over a sparse
    random background of the same classes."""
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    noise = draw(hnp.arrays(np.int8, (h, w), elements=st.integers(0, 9)))
    classes = draw(hnp.arrays(np.int32, (h, w), elements=st.integers(1, 3)))
    arr = np.where(noise < draw(st.sampled_from((0, 2, 5))), classes, 0).astype(np.int32)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("pixel", "hline", "vline", "diagonal", "ring", "rect")))
        cls = draw(st.integers(1, 3))
        r, c = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        n = draw(st.integers(1, 12))
        if kind == "pixel":
            arr[r, c] = cls
        elif kind == "hline":
            arr[r, c : c + n] = cls
        elif kind == "vline":
            arr[r : r + n, c] = cls
        elif kind == "diagonal":
            k = min(n, h - r, w - c)
            arr[r + np.arange(k), c + np.arange(k)] = cls
        else:
            m = draw(st.integers(1, 12))
            arr[r : r + n, c : c + m] = cls
            if kind == "ring" and n > 2 and m > 2:
                arr[r + 1 : r + n - 1, c + 1 : c + m - 1] = draw(st.integers(0, 3))
    return arr


@settings(max_examples=300, deadline=None)
@given(_shape_maps(), st.sampled_from((1, 3)))
def test_boundaries_equal_the_mask_trace(arr, min_area):
    grid = grid_from_array(arr, {1: "a", 2: "b", 3: "c"})
    objects = extract_objects(grid, min_area)
    for k in range(len(objects)):
        traced = _mask_trace(pixels(objects, k), objects.bbox[k].tolist())
        assert boundary(grid, objects, k) == traced


def _named_shapes_array():
    arr = np.zeros((9, 12), dtype=np.int32)
    arr[0, 0] = 1  # single pixel in the corner
    arr[0, 3:12] = 2  # 1-pixel line along the top edge
    arr[2:9, 0] = 3  # 1-pixel line down the left edge
    arr[3:9, 3:9] = 1  # ring around a hole of another class
    arr[4:8, 4:8] = 2
    arr[5:7, 5:7] = 0
    arr[2, 10] = arr[3, 11] = arr[4, 10] = 3  # diagonal zigzag ending on the right edge
    arr[8, 11] = 2  # single pixel in the opposite corner
    return arr


def test_boundaries_equal_the_mask_trace_on_named_shapes():
    grid = grid_from_array(_named_shapes_array(), {1: "a", 2: "b", 3: "c"})
    objects = extract_objects(grid, 1)
    assert set(objects.pixel_count.tolist()) >= {1, 3, 7, 9}
    for k in range(len(objects)):
        traced = _mask_trace(pixels(objects, k), objects.bbox[k].tolist())
        assert boundary(grid, objects, k) == traced


@st.composite
def _one_run_per_row_maps(draw):
    """Maps of objects whose every row is one run: one object of a random
    class per 7-square lattice cell, drawn in the cell's top-left 6-square
    so that no two objects touch, with the last row and column of cells
    on the grid edge.  Each run reaches the run above by an overlap or by
    a corner only."""
    cells = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    arr = np.zeros((cells[0] * 7 - 1, cells[1] * 7 - 1), dtype=np.int32)
    for i in range(cells[0]):
        for j in range(cells[1]):
            cls = draw(st.integers(1, 3))
            a = draw(st.integers(0, 5))
            b = draw(st.integers(a, 5))
            for r in range(draw(st.integers(0, 6))):
                if r:
                    above = a
                    a = draw(st.integers(0, min(5, b + 1)))
                    b = draw(st.integers(max(a, above - 1), 5))
                arr[i * 7 + r, j * 7 + a : j * 7 + b + 1] = cls
    return arr


def _one_run_per_row_named_array():
    arr = np.zeros((8, 13), dtype=np.int32)
    arr[0, 0] = 1  # single pixel in the corner
    arr[0, 2:6] = 2  # one row
    arr[2:8, 0] = 3  # one column down the left edge
    arr[2, 2:4] = arr[3, 4:6] = arr[4, 1:2] = arr[5, 2:3] = 1  # links by a corner only
    arr[4:8, 9:13] = 2  # a rectangle in the bottom right corner
    arr[0, 8] = arr[1, 7:10] = arr[2, 6:11] = arr[3, 8] = 3  # a diamond, one pixel at each end
    return arr


@settings(max_examples=300, deadline=None)
@example(_one_run_per_row_named_array(), 1)
@given(_one_run_per_row_maps(), st.sampled_from((1, 3)))
def test_run_contours_equal_the_walk_and_the_mask_trace(arr, min_area):
    grid = grid_from_array(arr, {1: "a", 2: "b", 3: "c"})
    objects = extract_objects(grid, min_area)
    assert (np.diff(objects.offsets) == objects.bbox[:, 2] - objects.bbox[:, 0] + 1).all()
    if not len(objects):
        return
    points, lengths = labelgrid._run_contours(objects.runs, objects.offsets)
    walked, walked_lengths = trace_boundaries(grid, objects)
    assert points.dtype == lengths.dtype == np.int64
    assert np.array_equal(points, walked) and np.array_equal(lengths, walked_lengths)
    ends = lengths.cumsum().tolist()
    for k, (n, end) in enumerate(zip(lengths.tolist(), ends)):
        contour = tuple(map(tuple, points[end - n : end].tolist()))
        assert contour == _mask_trace(pixels(objects, k), objects.bbox[k].tolist())
