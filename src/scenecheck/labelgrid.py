"""Label-map parsing and scene-object extraction.

A label grid is a per-pixel assignment of semantic class ids (0 denotes
background), held as a read-only row-major `int32` array.  Scene objects
are 8-connected same-class components with geometric summaries: pixel
count, centroid, bounding box and a traced outer boundary.

Components are labelled run by run, in the run-based two-scan family
(He, Chao & Suzuki, IEEE TIP 2008): maximal same-class horizontal runs
are found with numpy, runs of one class that are 8-adjacent across two
consecutive rows are merged in a small union-find, and each component is
rebuilt from its runs.

Outer boundaries are Moore-traced with one table lookup per step, in the
table-driven border-following family (Suzuki & Abe, CVGIP 1985).  Each
grid gets one 8-bit neighbour code per cell of a copy padded by one
background cell, over the rows its objects span: bit d is set when the
Moore neighbour in direction d holds the cell's own class.  Two
8-adjacent pixels of one class always lie in one 8-connected component,
so at a pixel of a component the same-class bits are exactly its
neighbours in that component, and the codes of one grid serve every
object traced on it.

All functions here are pure; LabelGrid and SceneObject are immutable
after construction and safe to share across threads.

Coordinate convention: row increases downward, column increases
rightward, so "above" always means a smaller row index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import FormatError, UnknownClassError

DEFAULT_MIN_AREA = 25

_INT32 = np.iinfo(np.int32)

# Moore neighbourhood in clockwise order starting at West.  Consecutive
# entries are 4-adjacent to each other, which guarantees that the cell
# scanned just before a hit is 4-adjacent to that hit.
_MOORE = ((0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1))
# After a move in direction d, the backtrack cell (the one scanned just
# before the hit) seen from the new pixel lies in direction _BACK[d].
_BACK = tuple(
    _MOORE.index((_MOORE[d - 1][0] - _MOORE[d][0], _MOORE[d - 1][1] - _MOORE[d][1]))
    for d in range(8)
)


def _next_table() -> tuple[int, ...]:
    """_NEXT[code * 8 + back]: the first direction clockwise after `back`
    whose bit is set in the neighbour code `code`.  Entries of code 0, a
    lone pixel, are never read."""
    scan = (np.arange(8)[:, None] + np.arange(1, 9)) & 7  # [back, k]: k-th direction tried
    hit = (np.arange(256)[:, None, None] >> scan) & 1  # [code, back, k]
    return tuple(scan[np.arange(8), hit.argmax(axis=2)].ravel().tolist())


_NEXT = _next_table()

_INT_TOKEN = re.compile(r"[+-]?[0-9]+")
# Powers of ten that start a new decimal digit count: 10, 100, ...
_DIGIT_STEPS = 10 ** np.arange(1, 10, dtype=np.int64)


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values; `np.unique` without its fixed overhead."""
    s = np.sort(values)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def _read_only_int32(values) -> np.ndarray:
    """`values` as a flat read-only int32 array, sharing memory when it already is one."""
    arr = np.asarray(values)
    if arr.dtype != np.int32 or arr.flags.writeable:
        if arr.size and arr.dtype.kind not in "biu":
            raise FormatError(f"cell values must be integers, got dtype {arr.dtype}")
        if arr.size and (arr.min() < _INT32.min or arr.max() > _INT32.max):
            raise UnknownClassError("class id outside int32 missing from class map")
        arr = arr.astype(np.int32)
        arr.flags.writeable = False
    return arr.reshape(-1)


@dataclass(frozen=True, eq=False)
class LabelGrid:
    """A 2-D grid of class ids plus the id -> name map for the scene.

    `cells` is a read-only 1-D int32 array in row-major order; any
    integer sequence passed in is converted (and copied unless it is
    already a read-only int32 array).
    """

    image_id: str
    height: int
    width: int
    cells: np.ndarray
    class_map: Mapping[int, str]

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise FormatError(f"grid must be at least 1x1, got {self.height}x{self.width}")
        cells = _read_only_int32(self.cells)
        if cells.size != self.height * self.width:
            raise FormatError(f"cell count {cells.size} != {self.height}x{self.width}")
        for v in _distinct(cells).tolist():
            if v != 0 and v not in self.class_map:
                raise UnknownClassError(f"class id {v} missing from class map")
        object.__setattr__(self, "cells", cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelGrid):
            return NotImplemented
        return (
            self.image_id == other.image_id
            and self.height == other.height
            and self.width == other.width
            and self.class_map == other.class_map
            and bool(np.array_equal(self.cells, other.cells))
        )

    __hash__ = None  # class_map is a dict, so grids were never hashable

    def to_array(self) -> np.ndarray:
        """The cells as a read-only (height, width) view (no copy)."""
        return self.cells.reshape(self.height, self.width)

    def diagonal(self) -> float:
        return float(np.hypot(self.height, self.width))

    def to_text(self) -> str:
        """Render back to the `.lgrid` text format.

        The body is assembled as ASCII bytes with numpy: each cell's
        decimal digits are written right to left into its slot, followed
        by a space or, at the end of a row, a newline.
        """
        values = self.cells.astype(np.int64)
        negative = values < 0
        magnitude = np.abs(values)
        n_digits = 1 + np.searchsorted(_DIGIT_STEPS, magnitude, side="right")
        ends = np.cumsum(n_digits + negative + 1)  # one past each cell's separator
        buf = np.full(int(ends[-1]), ord(" "), dtype=np.uint8)
        buf[ends[self.width - 1 :: self.width] - 1] = ord("\n")
        last_digit = ends - 2
        for k in range(int(n_digits.max())):
            sel = n_digits > k
            buf[last_digit[sel] - k] = ord("0") + (magnitude[sel] // 10**k) % 10
        buf[(last_digit - n_digits)[negative]] = ord("-")
        return f"{self.height} {self.width}\n" + buf.tobytes().decode("ascii")


@dataclass(frozen=True)
class SceneObject:
    """One extracted connected component.

    `runs` holds the component's pixels as its maximal horizontal runs:
    (row, c0, c1) triples covering columns c0..c1-1 of `row`, in raster
    order.  `boundary` is the closed clockwise outer-boundary cycle
    starting at the top-left-most pixel.
    """

    object_id: int
    class_id: int
    pixel_count: int
    centroid: tuple[float, float]
    bbox: tuple[int, int, int, int]
    boundary: tuple[tuple[int, int], ...]
    runs: tuple[tuple[int, int, int], ...] = field(repr=False)


def _digits_and_spaces(s: str) -> bool:
    return s.isascii() and not s.encode().translate(None, b"0123456789 ")


def _parse_cells(rows: list[str], width: int) -> np.ndarray:
    """Convert the cell rows to one int64 array in a single numpy call.

    Plain rows (ASCII digits and spaces) take a fast path: a row holds at
    most its space count + 1 tokens, so when every row has `width - 1`
    spaces and numpy reads `rows * width` values back, every row holds
    exactly `width` tokens.  Other text is split on whitespace first and,
    when it holds anything but digits, checked token by token, because
    `np.fromstring` reads a lone sign as 0.
    """
    flat = " ".join(rows)
    if _digits_and_spaces(flat) and all(ln.count(" ") == width - 1 for ln in rows):
        values = np.fromstring(flat, dtype=np.int64, sep=" ")
        if values.size == len(rows) * width:
            return values
    tokens: list[str] = []
    for ln in rows:
        row = ln.split()
        if len(row) != width:
            raise FormatError(f"ragged row: expected {width} tokens, got {len(row)}")
        tokens += row
    flat = " ".join(tokens)
    if not _digits_and_spaces(flat):
        bad = next((t for t in tokens if not _INT_TOKEN.fullmatch(t)), None)
        if bad is not None:
            raise FormatError(f"non-integer cell token {bad!r}")
    values = np.fromstring(flat, dtype=np.int64, sep=" ")
    if values.min() < 0:
        raise FormatError(f"negative cell value {values.min()}")
    return values


def parse_label_grid(
    text: str, class_map: Mapping[int, str], image_id: str = ""
) -> LabelGrid:
    """Parse the `.lgrid` text format.

    First line is "height width"; each of the following `height` lines
    holds `width` whitespace-separated non-negative integers, each an
    optional sign followed by ASCII digits.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty label grid text")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError(f"header must be 'height width', got {lines[0]!r}")
    try:
        height, width = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError(f"non-integer header token in {lines[0]!r}") from None
    if height < 1 or width < 1:
        raise FormatError(f"grid must be at least 1x1, got {height}x{width}")
    if len(lines) - 1 != height:
        raise FormatError(f"expected {height} rows, got {len(lines) - 1}")
    cells = _parse_cells(lines[1:], width)
    return LabelGrid(image_id, height, width, cells, dict(class_map))


def load_label_grid(path: str | Path, class_map: Mapping[int, str]) -> LabelGrid:
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise FormatError(f"{path}: file not found") from None
    return parse_label_grid(text, class_map, image_id=path.stem)


def grid_from_array(
    arr: np.ndarray, class_map: Mapping[int, str], image_id: str = ""
) -> LabelGrid:
    arr = np.asarray(arr)
    return LabelGrid(image_id, int(arr.shape[0]), int(arr.shape[1]), arr, dict(class_map))


def _runs(cells: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal same-class horizontal runs of non-background cells.

    Returns flat start indices, flat stop indices (exclusive) and class
    ids, in raster order of the runs' first cells.
    """
    n = cells.size
    breaks = np.empty(n, dtype=bool)
    breaks[0] = True
    np.not_equal(cells[1:], cells[:-1], out=breaks[1:])
    breaks[::width] = True
    starts = np.flatnonzero(breaks)
    stops = np.append(starts[1:], n)
    classes = cells[starts]
    keep = classes != 0
    return starts[keep], stops[keep], classes[keep]


def _run_roots(
    starts: np.ndarray, stops: np.ndarray, classes: np.ndarray, width: int
) -> list[int]:
    """Index of each run's component root: the component's first run.

    A run touches a same-class run in the row above when their column
    spans overlap after widening by one column on each side (within the
    grid), which is 8-adjacency.  The candidate runs above form one
    contiguous index range, found by binary search over the run bounds.
    """
    cols = starts % width
    last = stops - 1
    lo = starts - width - (cols > 0)
    hi = last - width + (last % width < width - 1)
    first = np.searchsorted(stops, lo, side="right")
    count = np.maximum(np.searchsorted(starts, hi, side="right") - first, 0)
    below = np.repeat(np.arange(len(starts)), count)
    above = np.repeat(first - np.cumsum(count) + count, count) + np.arange(len(below))
    same = classes[above] == classes[below]
    parent = list(range(len(starts)))
    for a, b in zip(above[same].tolist(), below[same].tolist()):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        # The smaller index wins, so every root is its component's first run.
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    for i, p in enumerate(parent):
        parent[i] = parent[p]  # p < i is already final
    return parent


def _neighbour_codes(grid: LabelGrid, first: int, last: int) -> bytes:
    """One 8-bit neighbour code per cell of the grid padded by one background
    cell, filled in for grid rows `first`..`last`.

    Indexed by the flat position in the padded grid, whose row stride is
    `width + 2`.  Bit d of a cell's code is set when its Moore neighbour in
    direction d (`_MOORE[d]`) holds the same class.  Codes are only read at
    pixels of objects within those rows, so the background, the margin and
    the other rows are never used.
    """
    stride = grid.width + 2
    padded = np.zeros((grid.height + 2, stride), dtype=np.int32)
    padded[1:-1, 1:-1] = grid.to_array()
    padded = padded.reshape(-1)
    lo, hi = (first + 1) * stride + 1, (last + 2) * stride - 1
    centre = padded[lo:hi]
    codes = np.zeros(len(padded), dtype=np.uint8)
    inner = codes[lo:hi]
    same = np.empty(hi - lo, dtype=bool)
    for d, (dr, dc) in enumerate(_MOORE):
        o = dr * stride + dc
        np.equal(padded[lo + o : hi + o], centre, out=same)
        inner |= same.view(np.uint8) << d
    return codes.tobytes()


def extract_objects(grid: LabelGrid, min_area: int = DEFAULT_MIN_AREA) -> list[SceneObject]:
    """Extract 8-connected same-class components of at least `min_area` pixels.

    Background (id 0) never yields objects.  Object ids are assigned in
    raster order of each kept component's first pixel, so extraction is
    deterministic for a given grid.
    """
    if min_area < 1:
        raise ValueError("min_area must be >= 1")
    w = grid.width
    starts, stops, classes = _runs(grid.cells, w)
    if not len(starts):
        return []
    roots = np.array(_run_roots(starts, stops, classes, w))
    lengths = stops - starts
    area = np.bincount(roots, weights=lengths, minlength=len(starts))
    # Kept runs grouped by component, components in raster order of their
    # first run, runs in raster order within each component.
    order = np.argsort(roots, kind="stable")
    order = order[area[roots[order]] >= min_area]
    if not len(order):
        return []
    sorted_roots = roots[order]
    is_first = np.append(True, sorted_roots[1:] != sorted_roots[:-1])
    first_run = np.flatnonzero(is_first)
    comp_roots = sorted_roots[first_run]
    run_starts, run_lengths = starts[order], lengths[order]
    run_rows, run_cols = np.divmod(run_starts, w)
    run_c1 = run_cols + run_lengths
    runs = list(zip(run_rows.tolist(), run_cols.tolist(), run_c1.tolist()))
    run_ends = np.append(first_run[1:], len(order))
    bbox_c0 = np.minimum.reduceat(run_cols, first_run).tolist()
    bbox_c1 = (np.maximum.reduceat(run_c1, first_run) - 1).tolist()
    bbox_r1 = run_rows[run_ends - 1].tolist()
    # Integer sums are exact in float64, so sum / n equals the mean numpy
    # computes over the sorted pixel coordinates, bit for bit.
    comp_index = np.cumsum(is_first) - 1
    row_sums = np.bincount(comp_index, weights=run_rows * run_lengths).tolist()
    col_sums = np.bincount(
        comp_index, weights=(2 * run_cols + run_lengths - 1) * run_lengths / 2
    ).tolist()
    counts = area[comp_roots].astype(np.int64).tolist()
    first_rows = run_rows[first_run]
    bbox_r0 = first_rows.tolist()
    # Each component's raster-first pixel, where its trace starts, as a
    # position in the padded grid of the neighbour codes.
    stride = w + 2
    origins = ((first_rows + 1) * stride + run_cols[first_run] + 1).tolist()
    # Components come in raster order, so the first starts on the topmost object row.
    codes = _neighbour_codes(grid, bbox_r0[0], max(bbox_r1))
    run_lo, run_hi = first_run.tolist(), run_ends.tolist()
    objects: list[SceneObject] = []
    for k, root in enumerate(comp_roots.tolist()):
        n = counts[k]
        bbox = (bbox_r0[k], bbox_c0[k], bbox_r1[k], bbox_c1[k])
        objects.append(
            SceneObject(
                object_id=k,
                class_id=int(classes[root]),
                pixel_count=n,
                centroid=(row_sums[k] / n, col_sums[k] / n),
                bbox=bbox,
                boundary=_trace(codes, stride, origins[k]),
                runs=tuple(runs[run_lo[k] : run_hi[k]]),
            )
        )
    return objects


def _trace(codes: bytes, stride: int, origin: int) -> tuple[tuple[int, int], ...]:
    """Moore-trace the component whose raster-first pixel sits at `origin`.

    `codes` are the grid's neighbour codes (`_neighbour_codes`), indexed
    like `origin` by flat position in the padded grid of row stride
    `stride`.  Returns the closed clockwise outer boundary, in grid
    coordinates, starting at the top-left-most pixel; a single pixel
    (code 0: no same-class neighbour) yields a one-element boundary.
    Consecutive entries (including the wrap-around) are 8-adjacent, and
    every entry has a 4-neighbour outside the component or off the grid.

    Each step is one lookup, `_NEXT[code * 8 + back]`: at a pixel of the
    component its code's bits are exactly its neighbours in the
    component, so the walk never leaves it and depends on nothing else
    in the grid.
    """
    shift = stride + 1  # padded position of grid cell (0, 0)
    if not codes[origin]:
        return (divmod(origin - shift, stride),)
    # Walk (pixel, backtrack direction) states until one repeats; the
    # repeated segment is the full clockwise outer contour.  The
    # artificial initial state (backtrack = West of the raster-first
    # pixel, which cannot belong to the component) may itself lie off
    # that cycle.
    offsets = [dr * stride + dc for dr, dc in _MOORE]
    cur, back = origin, 0
    seen: dict[int, int] = {}
    walk: list[int] = []
    state = cur * 8
    while state not in seen:
        seen[state] = len(walk)
        walk.append(cur)
        d = _NEXT[codes[cur] * 8 + back]
        cur += offsets[d]
        back = _BACK[d]
        state = cur * 8 + back
    cycle = walk[seen[state] :]
    j = cycle.index(origin)  # the top-left-most pixel is on the outer contour
    return tuple([divmod(p - shift, stride) for p in cycle[j:] + cycle[:j]])
