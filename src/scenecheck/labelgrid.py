"""Label-map parsing, scene-object extraction and boundary tracing.

A label grid is a per-pixel assignment of semantic class ids (0 denotes
background), held as a read-only row-major `int32` array.  The `.lgrid`
text of one is read in one numpy pass over its bytes when it is in the
plain form `to_text` writes, and line by line otherwise; `to_text`
renders from one token per distinct cell value.  Scene objects
are 8-connected same-class components with geometric summaries: pixel
count, centroid, bounding box and the component's horizontal runs.

Components are labelled run by run, in the run-based two-scan family
(He, Chao & Suzuki, IEEE TIP 2008): maximal same-class horizontal runs
are found with numpy, runs of one class that are 8-adjacent across two
consecutive rows are merged in a small union-find, and each component is
rebuilt from its runs.  Extraction stops there: an object carries no
boundary.  `label_maps` labels many maps in one such pass, over one
array that stacks them with a background row after each; `grid_batches`
cuts a stream of maps into stacks of bounded size.

`trace_boundaries` Moore-traces the outer boundaries of given objects
of a grid, for the shape histograms, with one table lookup per step, in
the table-driven border-following family (Suzuki & Abe, CVGIP 1985).
Each call builds one 8-bit neighbour code per cell of a copy of the grid
padded by one background cell, over the rows its objects span: bit d is
set when the Moore neighbour in direction d holds the cell's own class.
Two 8-adjacent pixels of one class always lie in one 8-connected
component, so at a pixel of a component the same-class bits are exactly
its neighbours in that component, and the codes of one grid serve every
object traced on it.

All functions here are pure; LabelGrid and SceneObject are immutable
after construction and safe to share across threads.

Coordinate convention: row increases downward, column increases
rightward, so "above" always means a smaller row index.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import FormatError, UnknownClassError

DEFAULT_MIN_AREA = 25
# Cells of one `label_maps` stack that `grid_batches` allows: about ten
# maps of 48 x 64.  A larger stack saves little more per map and costs
# memory in every array of the pass.
_BATCH_CELLS = 1 << 15

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
    whose bit is set in the neighbour code `code`.  No walk steps from
    code 0, a lone pixel."""
    scan = (np.arange(8)[:, None] + np.arange(1, 9)) & 7  # [back, k]: k-th direction tried
    hit = (np.arange(256)[:, None, None] >> scan) & 1  # [code, back, k]
    return tuple(scan[np.arange(8), hit.argmax(axis=2)].ravel().tolist())


_NEXT = _next_table()

_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


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

        The body is assembled as ASCII bytes with numpy from a table of
        two tokens per distinct cell value, its digits followed by a
        space or by a newline, NUL-padded to one width: each cell takes
        its value's token, the newline one at the end of a row, and the
        padding is dropped.
        """
        values = _distinct(self.cells)
        tokens = [str(v) for v in values.tolist()]
        table = np.array([t + " " for t in tokens] + [t + "\n" for t in tokens], dtype=bytes)
        pick = np.searchsorted(values, self.cells).reshape(self.height, self.width)
        pick[:, -1] += len(values)
        chars = table.view(f"V{table.itemsize}").take(pick.ravel()).view(np.uint8)
        body = chars.compress(chars != 0).tobytes().decode("ascii")
        return f"{self.height} {self.width}\n" + body


@dataclass(frozen=True)
class SceneObject:
    """One extracted connected component.

    `runs` holds the component's pixels as its maximal horizontal runs:
    (row, c0, c1) triples covering columns c0..c1-1 of `row`, in raster
    order.  Its outer boundary is not stored: `trace_boundaries` traces
    it from the grid when a shape histogram needs it.
    """

    class_id: int
    pixel_count: int
    centroid: tuple[float, float]
    bbox: tuple[int, int, int, int]
    runs: tuple[tuple[int, int, int], ...] = field(repr=False)


def _general_cells(rows: list[str], width: int) -> np.ndarray:
    """The cell rows of any accepted text as one int64 array.

    Rows are split on whitespace and every token is checked against
    `_INT_TOKEN` before one `np.fromstring` call reads them, because
    `np.fromstring` reads a lone sign as 0.
    """
    tokens: list[str] = []
    for ln in rows:
        row = ln.split()
        if len(row) != width:
            raise FormatError(f"ragged row: expected {width} tokens, got {len(row)}")
        tokens += row
    bad = next((t for t in tokens if not _INT_TOKEN.fullmatch(t)), None)
    if bad is not None:
        raise FormatError(f"non-integer cell token {bad!r}")
    values = np.fromstring(" ".join(tokens), dtype=np.int64, sep=" ")
    if values.min() < 0:
        raise FormatError(f"negative cell value {values.min()}")
    return values


def _plain_cells(body: bytes, height: int, width: int) -> np.ndarray | None:
    """The cells of a plain body as a read-only int32 array, or None when
    `body` is not plain.

    A plain body is `height` rows of `width` tokens of 1 to 9 ASCII
    digits, one space between tokens and a newline after each row (the
    last one optional).  Every byte that is not a digit is a separator,
    and a newline is put in front so that each token follows one.  The
    body is plain when there are `height * width` separators after that
    one, each row's last a newline and the others spaces, and no token
    is empty or longer than 9 digits, so every value fits in int32.  A
    token's value is the sum, over its digit positions counted from its
    end, of digit times power of ten: one numpy step per position.
    """
    if not body.endswith(b"\n"):
        body += b"\n"
    buf = np.frombuffer(b"\n" + body, dtype=np.uint8)
    digits = buf - np.uint8(ord("0"))  # a byte that is not a digit wraps to 10 or more
    seps = np.flatnonzero(digits > 9)
    ends = seps[1:]  # one past each token
    if ends.size != height * width:
        return None
    # With each row's last separator a newline, the other separators are
    # all spaces when the body holds exactly that many spaces.
    if not (buf[ends[width - 1 :: width]] == ord("\n")).all() or (
        np.count_nonzero(buf == ord(" ")) != height * (width - 1)
    ):
        return None
    lengths = ends - seps[:-1] - 1
    longest = int(lengths.max())
    if lengths.min() < 1 or longest > 9:
        return None
    values = digits[ends - 1].astype(np.int32)
    for k in range(1, longest):
        wide = np.flatnonzero(lengths > k)
        values[wide] += digits[ends[wide] - 1 - k] * np.int32(10**k)
    values.flags.writeable = False
    return values


_PLAIN_HEADER = re.compile(rb"([1-9][0-9]*) ([1-9][0-9]*)\n")


def parse_label_grid(
    text: str | bytes, class_map: Mapping[int, str], image_id: str = ""
) -> LabelGrid:
    """Parse the `.lgrid` text format, given as a str or as UTF-8 bytes.

    First line is "height width"; each of the following `height` lines
    holds `width` whitespace-separated non-negative integers, each an
    optional sign followed by ASCII digits.

    A plain text, ASCII with a header of two decimal integers from 1 up,
    without leading zeros, one space between them and a newline after,
    then a plain body (see `_plain_cells`), is decoded from its bytes in
    a fixed number of whole-array numpy steps.  Any other text (CRLF,
    tabs, repeated spaces, blank lines, signs, tokens of 10 or more
    digits, non-ASCII) takes the general path, which reads it line by
    line and raises every parse error; the two paths give equal grids.
    """
    if isinstance(text, str) and text.isascii():
        text = text.encode()
    head = _PLAIN_HEADER.match(text) if isinstance(text, bytes) else None
    if head:
        height, width = int(head[1]), int(head[2])
        cells = _plain_cells(text[head.end() :], height, width)
        if cells is not None:
            return LabelGrid(image_id, height, width, cells, dict(class_map))
    if isinstance(text, bytes):
        text = text.decode("utf-8")
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
    cells = _general_cells(lines[1:], width)
    return LabelGrid(image_id, height, width, cells, dict(class_map))


def load_label_grid(path: str | Path, class_map: Mapping[int, str]) -> LabelGrid:
    """Read and parse the `.lgrid` file at `path`; the grid's image id is
    the file's stem.  The parser gets the file's bytes, so a plain file
    is never decoded.  A file that cannot be read or is not UTF-8 text
    is a one-line FormatError naming `path`, and a parse error
    (FormatError or UnknownClassError) is re-raised with `path` in
    front."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror}") from None
    try:
        return parse_label_grid(data, class_map, image_id=path.stem)
    except UnicodeDecodeError as exc:
        byte, at = exc.object[exc.start], exc.start
        raise FormatError(f"{path}: not UTF-8 text: byte {byte:#04x} at offset {at}") from None
    except (FormatError, UnknownClassError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


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

    Background (id 0) never yields objects.  Objects are listed in
    raster order of each kept component's first pixel, so extraction is
    deterministic for a given grid, and an object is known by its index
    in the list.  This is the batch of one of `label_maps`.
    """
    return label_maps([grid], min_area)[0]


def grid_batches(grids: Iterable[LabelGrid]) -> Iterator[list[LabelGrid]]:
    """Consecutive runs of `grids`, read lazily, each small enough for one
    `label_maps` pass: its stack holds at most _BATCH_CELLS cells, padding
    and separator rows included.  A map whose own stack exceeds the
    budget is a batch alone."""
    batch: list[LabelGrid] = []
    rows = width = 0
    for grid in grids:
        rows += grid.height + 1
        width = max(width, grid.width)
        if batch and rows * width > _BATCH_CELLS:
            yield batch
            batch, rows, width = [], grid.height + 1, grid.width
        batch.append(grid)
    if batch:
        yield batch


def label_maps(
    grids: Sequence[LabelGrid], min_area: int = DEFAULT_MIN_AREA
) -> list[list[SceneObject]]:
    """`extract_objects` of each of `grids`, from one labelling pass.

    The maps are stacked into one array as wide as the widest map: each
    map is padded on the right with background and followed by one
    background row, so no run and no 8-adjacency joins two maps, and
    every component lies in one map.  A single map is labelled in its
    own cells, without a copy.  An object's rows are taken relative to
    its map's first stack row before any sum is formed, so its runs,
    bbox and centroid equal those of its map labelled alone, bit for bit.
    """
    if min_area < 1:
        raise ValueError("min_area must be >= 1")
    objects: list[list[SceneObject]] = [[] for _ in grids]
    if len(grids) == 1:
        cells, w = grids[0].cells, grids[0].width
    else:
        tops = np.cumsum([0] + [g.height + 1 for g in grids])  # each map's first stack row
        w = max(g.width for g in grids)
        stack = np.zeros((int(tops[-1]), w), dtype=np.int32)
        for g, top in zip(grids, tops.tolist()):
            stack[top : top + g.height, : g.width] = g.to_array()
        cells = stack.reshape(-1)
    starts, stops, classes = _runs(cells, w)
    if not len(starts):
        return objects
    roots = np.array(_run_roots(starts, stops, classes, w))
    lengths = stops - starts
    area = np.bincount(roots, weights=lengths, minlength=len(starts))
    # Kept runs grouped by component, components in raster order of their
    # first run, runs in raster order within each component.
    order = np.argsort(roots, kind="stable")
    order = order[area[roots[order]] >= min_area]
    if not len(order):
        return objects
    sorted_roots = roots[order]
    is_first = np.append(True, sorted_roots[1:] != sorted_roots[:-1])
    first_run = np.flatnonzero(is_first)
    comp_roots = sorted_roots[first_run]
    run_starts, run_lengths = starts[order], lengths[order]
    run_rows, run_cols = np.divmod(run_starts, w)
    run_ends = np.append(first_run[1:], len(order))
    maps = [0] * len(first_run)  # the map of each component
    if len(grids) > 1:
        comp_map = np.searchsorted(tops, run_rows[first_run], side="right") - 1
        run_rows -= np.repeat(tops[comp_map], run_ends - first_run)
        maps = comp_map.tolist()
    run_c1 = run_cols + run_lengths
    runs = list(zip(run_rows.tolist(), run_cols.tolist(), run_c1.tolist()))
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
    bbox_r0 = run_rows[first_run].tolist()
    run_lo, run_hi = first_run.tolist(), run_ends.tolist()
    for k, (root, m) in enumerate(zip(comp_roots.tolist(), maps)):
        n = counts[k]
        objects[m].append(
            SceneObject(
                class_id=int(classes[root]),
                pixel_count=n,
                centroid=(row_sums[k] / n, col_sums[k] / n),
                bbox=(bbox_r0[k], bbox_c0[k], bbox_r1[k], bbox_c1[k]),
                runs=tuple(runs[run_lo[k] : run_hi[k]]),
            )
        )
    return objects


@functools.cache
def _jump_table(stride: int) -> tuple[int, ...]:
    """jump[code * 8 + back]: the change of the walk state `position * 8 +
    back` in one Moore step, on the padded grid of row stride `stride`.

    The step from a pixel with neighbour code `code`, entered with
    backtrack direction `back`, moves in direction d = _NEXT[code * 8 +
    back] to position + offset[d] with backtrack _BACK[d], so the state
    grows by 8 * offset[d] + _BACK[d] - back.
    """
    offsets = [dr * stride + dc for dr, dc in _MOORE]
    return tuple(8 * offsets[d] + _BACK[d] - (i & 7) for i, d in enumerate(_NEXT))


def trace_boundaries(
    grid: LabelGrid, objects: Sequence[SceneObject]
) -> tuple[np.ndarray, np.ndarray]:
    """Moore-trace the outer boundary of each of `objects`, components of `grid`.

    Returns `(points, lengths)`: `points` is one int64 array of `(row,
    col)` rows holding every object's contour in turn, in the order of
    `objects`, and `lengths[k]` is the length of object k's.  A contour
    is the closed clockwise outer-boundary cycle starting at the
    object's top-left-most pixel; a single pixel (code 0: no same-class
    neighbour) yields a one-point contour.  Consecutive points (with
    the wrap-around) are 8-adjacent, and every point has a 4-neighbour
    outside the component or off the grid.  An object's contour is the
    same whichever other objects of the grid are traced with it.

    The grid's neighbour codes are built once, over the rows from the
    smallest `bbox[0]` to the largest `bbox[2]` of `objects`.  The walk
    state is `position * 8 + back`, a padded-grid position and the
    backtrack direction, and each step adds `_jump_table(stride)[code *
    8 + back]`.  At a pixel of the component its code's bits are
    exactly its neighbours in the component, so the walk never leaves
    it and depends on nothing else in the grid.

    The walk starts from an artificial state s0: the raster-first pixel
    (the origin) with backtrack West, a cell outside the component.  It
    stops when the state s1 after the first step recurs, because only
    s0 can lie off the cycle.  Every state a step produces has a
    background backtrack cell, and its pixel's predecessor is the first
    component pixel counter-clockwise from that cell; two produced
    states with one successor therefore have the same predecessor and
    backtracks in the same background gap of its ring, hence the same
    previous state.  So the step is one-to-one on produced states, and
    from s1 on the walk runs round a cycle of at most 4 states per pixel
    (a produced backtrack is a 4-neighbour).  The loop is bounded at `8 * pixel_count + 1` steps, so a
    walk that does not close raises RuntimeError instead of hanging.

    The cycle's last state sn steps to s1 as s0 does, so it lies at s1's
    predecessor, the origin, and the contour is the origin followed by
    the pixels of s1 .. sn-1.
    This is the cycle from s0 when the walk ends on s0, and otherwise
    from the walk's first visit of the origin: the origin's West, North
    and both upper diagonals are outside the component, so every state
    at it has backtrack West (s0) or South, and a cycle that misses s0
    visits the origin once.
    """
    if not objects:
        return np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64)
    stride = grid.width + 2
    codes = _neighbour_codes(
        grid, min(o.bbox[0] for o in objects), max(o.bbox[2] for o in objects)
    )
    jump = _jump_table(stride)
    states: list[int] = []
    append = states.append
    lengths: list[int] = []
    for obj in objects:
        before = len(states)
        row, col, _ = obj.runs[0]  # the raster-first pixel
        origin = (row + 1) * stride + col + 1
        s = origin * 8
        append(s)
        if codes[origin]:
            first = s = s + jump[codes[origin] << 3]
            for _ in range(8 * obj.pixel_count + 1):
                append(s)
                s += jump[codes[s >> 3] << 3 | s & 7]
                if s == first:
                    break
            else:
                raise RuntimeError(f"boundary walk from position {origin} did not close")
            states.pop()  # sn, at the origin, which s0 already holds
        lengths.append(len(states) - before)
    rows, cols = np.divmod((np.array(states, dtype=np.int64) >> 3) - (stride + 1), stride)
    return np.stack((rows, cols), axis=1), np.array(lengths, dtype=np.int64)
