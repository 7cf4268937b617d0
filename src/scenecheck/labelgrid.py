"""Label-map parsing, scene-object extraction and boundary tracing.

A label grid is a per-pixel assignment of semantic class ids (0 denotes
background), held as a read-only row-major `int32` array.  The `.lgrid`
text of one is read in one numpy pass over its bytes when it is in the
plain form `to_text` writes, and line by line otherwise; `to_text`
renders from the sorted distinct cell values that the class check
found.  Scene objects are 8-connected same-class components with
geometric summaries: pixel count, centroid, bounding box and the
component's horizontal runs.  The objects of one map are one
ObjectTable, a read-only column per summary, from labelling to the
pair features: an object is a row index into its columns, and no
per-object form exists.

Components are labelled run by run, in the run-based two-scan family
(He, Chao & Suzuki, IEEE TIP 2008): maximal same-class horizontal runs
are found with numpy, runs of one class that are 8-adjacent across two
consecutive rows are merged in a small union-find, and each component is
rebuilt from its runs.  The same search for 8-adjacent runs finds which
objects touch: its pairs of runs of different classes, and runs that
meet in a row, give each table its `contacts` matrix, so no later layer
searches the runs again.  Extraction stops there: an object carries no
boundary.  `label_maps` labels many maps in one such pass, over one
array that stacks them with a background column on the right and a
background row after each, and computes every column once over the
batch; `grid_batches` cuts a stream of maps into stacks of bounded size.
The pass has two halves: a component pass (runs, adjacent run pairs,
union-find roots and component areas) and a table pass that builds the
ObjectTables.  The areas already say how many objects a map has, so
`verifier.verify` stops after the component pass on a map of fewer than
two, which it abstains on, and builds no table for it.

`trace_boundaries` Moore-traces the outer boundaries of given objects
of a grid, for the shape histograms, with one table lookup per step, in
the table-driven border-following family (Suzuki & Abe, CVGIP 1985).
Each call builds one 8-bit neighbour code per cell of a copy of the grid
padded by one background cell, over the rows its objects span: bit d is
set when the Moore neighbour in direction d holds the cell's own class.
Two 8-adjacent pixels of one class always lie in one 8-connected
component, so at a pixel of a component the same-class bits are exactly
its neighbours in that component, and the codes of one grid serve every
object traced on it.  An object whose every row is one run has its
contour in closed form: `_run_contours` gives the walk's points from the
runs alone, for many such objects in one numpy pass, with no grid and
no neighbour codes.  The shape histograms take that path for every
such object, whatever the batch; the walk stays for an object with two
runs in some row, and as the reference.

All functions here are pure; LabelGrid and ObjectTable are immutable
after construction and safe to share across threads.

Coordinate convention: row increases downward, column increases
rightward, so "above" always means a smaller row index.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    # The sorted distinct cell values, found once for the class check and
    # read again by `to_text`.
    _values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise FormatError(f"grid must be at least 1x1, got {self.height}x{self.width}")
        cells = _read_only_int32(self.cells)
        if cells.size != self.height * self.width:
            raise FormatError(f"cell count {cells.size} != {self.height}x{self.width}")
        values = _distinct(cells)
        values.flags.writeable = False
        for v in values.tolist():
            if v != 0 and v not in self.class_map:
                raise UnknownClassError(f"class id {v} missing from class map")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "_values", values)

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
        values = self._values
        tokens = [str(v) for v in values.tolist()]
        table = np.array([t + " " for t in tokens] + [t + "\n" for t in tokens], dtype=bytes)
        pick = np.searchsorted(values, self.cells).reshape(self.height, self.width)
        pick[:, -1] += len(values)
        chars = table.view(f"V{table.itemsize}").take(pick.ravel()).view(np.uint8)
        body = chars.compress(chars != 0).tobytes().decode("ascii")
        return f"{self.height} {self.width}\n" + body


@dataclass(frozen=True, eq=False)
class ObjectTable:
    """The objects of one label map, one read-only column per field.

    Object k has class `class_id[k]`, `pixel_count[k]` pixels, centroid
    `centroid[k]` (the mean pixel row and column, float64) and bounding
    box `bbox[k]` (r0, c0, r1, c1, inclusive).  Its pixels are its maximal
    horizontal runs `runs[offsets[k]:offsets[k + 1]]`, (row, c0, c1) rows
    covering columns c0..c1-1 of `row`, in raster order.  `contacts` is
    the symmetric (n, n) bool matrix, False on the diagonal, that is True
    where some pixel of one object and some pixel of the other lie within
    Chebyshev distance 1; `label_maps` finds it while labelling.  Its
    outer boundary is not stored: `trace_boundaries` traces it from the
    grid, or `_run_contours` reads it from the runs of an object with one
    run per row, when a shape histogram needs it.

    A slice, an index array or a mask gives the table of those objects,
    in that order; an integer key, and so iteration, is a TypeError.
    Tables are equal when every column is.
    """

    class_id: np.ndarray  # (n,) int64
    pixel_count: np.ndarray  # (n,) int64
    centroid: np.ndarray  # (n, 2) float64
    bbox: np.ndarray  # (n, 4) int64
    runs: np.ndarray  # (m, 3) int64
    offsets: np.ndarray  # (n + 1,) int64, from 0 to m
    contacts: np.ndarray  # (n, n) bool

    def __post_init__(self) -> None:
        for column in vars(self).values():
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.class_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObjectTable):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))

    __hash__ = None

    def __getitem__(self, key) -> "ObjectTable":
        if isinstance(key, (int, np.integer)):
            raise TypeError("an ObjectTable takes a slice, an index array or a mask, not an int")
        index = np.arange(len(self))[key]
        first, lengths = self.offsets[index], np.diff(self.offsets)[index]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        runs = np.repeat(first - offsets[:-1], lengths) + np.arange(offsets[-1])
        return ObjectTable(
            self.class_id[index],
            self.pixel_count[index],
            self.centroid[index],
            self.bbox[index],
            self.runs[runs],
            offsets,
            self.contacts[index][:, index],
        )


_NO_OBJECTS = ObjectTable(
    np.zeros(0, np.int64),
    np.zeros(0, np.int64),
    np.zeros((0, 2)),
    np.zeros((0, 4), np.int64),
    np.zeros((0, 3), np.int64),
    np.zeros(1, np.int64),
    np.zeros((0, 0), bool),
)


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
    Bytes that are not UTF-8 are a FormatError naming the first bad byte.
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
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            byte, at = exc.object[exc.start], exc.start
            raise FormatError(f"not UTF-8 text: byte {byte:#04x} at offset {at}") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty label grid text")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError(f"header must be 'height width', got {lines[0]!r}")
    if not all(_INT_TOKEN.fullmatch(t) for t in header):
        raise FormatError(f"non-integer header token in {lines[0]!r}")
    height, width = int(header[0]), int(header[1])
    if height < 1 or width < 1:
        raise FormatError(f"grid must be at least 1x1, got {height}x{width}")
    if len(lines) - 1 != height:
        raise FormatError(f"expected {height} rows, got {len(lines) - 1}")
    cells = _general_cells(lines[1:], width)
    return LabelGrid(image_id, height, width, cells, dict(class_map))


def load_label_grid(path: str | Path, class_map: Mapping[int, str]) -> LabelGrid:
    """Read and parse the `.lgrid` file at `path`; the grid's image id is
    the file's stem.  The parser gets the file's bytes, so a plain file
    is never decoded.  A file that cannot be read is a one-line
    FormatError naming `path`, and a parse error (FormatError or
    UnknownClassError, bytes that are not UTF-8 among them) is re-raised
    with `path` in front."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror}") from None
    try:
        return parse_label_grid(data, class_map, image_id=path.stem)
    except (FormatError, UnknownClassError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def grid_from_array(
    arr: np.ndarray, class_map: Mapping[int, str], image_id: str = ""
) -> LabelGrid:
    arr = np.asarray(arr)
    return LabelGrid(image_id, int(arr.shape[0]), int(arr.shape[1]), arr, dict(class_map))


def _runs(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal same-class runs of non-background cells in the flat `cells`
    of a grid whose last column is background, so that no run crosses a row.

    Returns flat start indices, flat stop indices (exclusive) and class
    ids, in raster order of the runs' first cells.
    """
    n = cells.size
    breaks = np.empty(n, dtype=bool)
    breaks[0] = True
    np.not_equal(cells[1:], cells[:-1], out=breaks[1:])
    starts = breaks.nonzero()[0]
    stops = np.empty_like(starts)
    stops[:-1] = starts[1:]
    stops[-1] = n
    classes = cells[starts]
    keep = classes != 0
    return starts[keep], stops[keep], classes[keep]


def _adjacent_runs(
    starts: np.ndarray, stops: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of 8-adjacent runs in consecutive rows, as `(above, below)`
    index arrays, whatever their classes.

    `starts` and `stops` are flat start and stop (exclusive) indices of
    disjoint runs, in raster order, of a grid `width` wide whose last
    column is background.  A run touches a run in the row above when
    that one stops after the cell above-left of its first cell, `start -
    width - 1`, and starts by the cell above-right of its last cell,
    `stop - width`.  For a run at column 0 the first of these cells is
    the background column two rows up, and the second is at most the
    background column of the row above, so only runs of the row above
    qualify.  They form one contiguous index range, found by binary
    search over the run bounds.  A run that stops by the first cell
    starts before it, so no count is negative.
    """
    first = stops.searchsorted(starts - (width + 1), side="right")
    count = starts.searchsorted(stops - width, side="right") - first
    ends = count.cumsum()
    below = np.arange(len(starts)).repeat(count)
    above = (first - ends + count).repeat(count) + np.arange(len(below))
    return above, below


def _run_roots(above: np.ndarray, below: np.ndarray, n: int) -> np.ndarray:
    """Index of each of `n` runs' component root: the component's first run.

    The runs of each `(above, below)` pair are merged in a union-find.
    """
    parent = list(range(n))
    for a, b in zip(above.tolist(), below.tolist()):
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
    return np.array(parent, dtype=np.int64)


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
    bits = same.view(np.uint8)
    for d, (dr, dc) in enumerate(_MOORE):
        o = dr * stride + dc
        np.equal(padded[lo + o : hi + o], centre, out=same)
        inner |= bits << d
    return codes.tobytes()


def extract_objects(grid: LabelGrid, min_area: int = DEFAULT_MIN_AREA) -> ObjectTable:
    """Extract 8-connected same-class components of at least `min_area` pixels.

    Background (id 0) never yields objects.  Objects are listed in
    raster order of each kept component's first pixel, so extraction is
    deterministic for a given grid, and an object is known by its index
    in the table.  This is the batch of one of `label_maps`.
    """
    return label_maps([grid], min_area)[0]


def grid_batches(grids: Iterable[LabelGrid]) -> Iterator[list[LabelGrid]]:
    """Consecutive runs of `grids`, read lazily, each small enough for one
    `label_maps` pass: its maps, padded to the widest and each followed by
    its separator row, hold at most _BATCH_CELLS cells.  A map that alone
    exceeds the budget is a batch alone."""
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
) -> list[ObjectTable]:
    """`extract_objects` of each of `grids`, from one labelling pass: the
    component pass `_components` followed by the table pass `_tables`.

    The maps are stacked into one array one column wider than the widest
    map: each map is padded on the right with background and followed by
    one background row, so no run crosses a row, no run and no
    8-adjacency joins two maps, and every component lies in one map.  An
    object's rows are taken relative to its map's first stack row before
    any sum is formed, so its runs, bbox and centroid equal those of its
    map labelled alone, bit for bit.  Every column of the batch is
    computed once over all its objects, and each map's table holds
    read-only slices of them.

    Contact comes from the same run pairs as the labelling: two runs of
    different classes touch when `_adjacent_runs` pairs them, or when one
    stops where the next starts, which the background column keeps within
    a row.  They fill one bool matrix with a row per object of the stack
    and a column per object index within a map; each map's table holds a
    copy of its own `(n_m, n_m)` block.
    """
    if min_area < 1:
        raise ValueError("min_area must be >= 1")
    if not grids:
        return []
    return _tables(_components(grids), min_area)


class _Components(NamedTuple):
    """The component pass over a stack of maps: its runs, their 8-adjacent
    pairs and each run's component, with every component's area.

    `tops[m]` is map m's first stack row and `tops[-1]` the stack's
    height; `width` is the stack's.  Runs are given by flat stack index
    (`starts`, `stops`, exclusive) and `classes`, in raster order;
    `above[k]` and `below[k]` are the k-th adjacent pair, of one class
    where `same[k]`.  `roots[i]` is run i's component root, its first run,
    and `area[r]` the pixel count of the component rooted at run r (0 at
    a run that is no root).
    """

    tops: list[int]
    width: int
    starts: np.ndarray
    stops: np.ndarray
    classes: np.ndarray
    above: np.ndarray
    below: np.ndarray
    same: np.ndarray
    roots: np.ndarray
    area: np.ndarray

    def count(self, min_area: int) -> int:
        """How many components have at least `min_area` pixels: the objects
        that the table pass would build."""
        return int(np.count_nonzero(self.area >= min_area))


def _components(grids: Sequence[LabelGrid]) -> _Components:
    """The component pass of `label_maps` over a non-empty `grids`: runs,
    adjacent run pairs, union-find roots and component areas."""
    tops = [0, *itertools.accumulate(g.height + 1 for g in grids)]  # each map's first stack row
    w = max(g.width for g in grids) + 1
    stack = np.zeros((tops[-1], w), dtype=np.int32)
    for g, top in zip(grids, tops):
        stack[top : top + g.height, : g.width] = g.to_array()
    starts, stops, classes = _runs(stack.reshape(-1))
    above, below = _adjacent_runs(starts, stops, w)
    same = classes[above] == classes[below]
    roots = _run_roots(above[same], below[same], len(starts))
    area = np.bincount(roots, weights=stops - starts, minlength=len(starts))
    return _Components(tops, w, starts, stops, classes, above, below, same, roots, area)


def _tables(c: _Components, min_area: int) -> list[ObjectTable]:
    """The table pass of `label_maps`: the ObjectTable of each map of the
    component pass `c`, from its components of at least `min_area` pixels."""
    tops, w, starts, stops, classes = c.tops, c.width, c.starts, c.stops, c.classes
    above, below, same, roots, area = c.above, c.below, c.same, c.roots, c.area
    n_maps = len(tops) - 1
    lengths = stops - starts
    # Kept runs grouped by component, components in raster order of their
    # first run, runs in raster order within each component.
    order = roots.argsort(kind="stable")
    order = order[area[roots[order]] >= min_area]
    n_runs = len(order)
    if not n_runs:
        return [_NO_OBJECTS] * n_maps
    sorted_roots = roots[order]
    is_first = np.empty(n_runs, dtype=bool)
    is_first[0] = True
    np.not_equal(sorted_roots[1:], sorted_roots[:-1], out=is_first[1:])
    first_run = is_first.nonzero()[0]
    n_objects = len(first_run)
    offsets = np.empty(n_objects + 1, dtype=np.int64)
    offsets[:-1] = first_run
    offsets[-1] = n_runs
    run_ends = offsets[1:]
    run_starts, run_lengths = starts[order], lengths[order]
    run_rows, run_cols = np.divmod(run_starts, w)
    # The touching runs of different components, as object indices; -1
    # for a component below min_area.
    obj_of_run = np.full(len(starts), -1)
    obj_of_run[order] = is_first.cumsum() - 1
    beside = (stops[:-1] == starts[1:]).nonzero()[0]
    differ = ~same
    touch_a = obj_of_run[np.concatenate((above[differ], beside))]
    touch_b = obj_of_run[np.concatenate((below[differ], beside + 1))]
    # Object i's contact column is its index within its map, so the matrix
    # is only as wide as the largest map.  Index -1, a component below
    # min_area, writes the spare last row and column, which no map reaches.
    column = np.arange(n_objects + 1)
    column[-1] = -1
    bounds = [0, n_objects]
    if n_maps > 1:
        tops = np.array(tops)
        obj_map = tops.searchsorted(run_rows[first_run], side="right") - 1
        run_rows -= tops[obj_map].repeat(run_ends - first_run)
        # Map m holds objects bounds[m]..bounds[m + 1] - 1.
        bounds = obj_map.searchsorted(np.arange(n_maps + 1))
        column[:-1] -= bounds[obj_map]
        bounds = bounds.tolist()
    touching = np.zeros((n_objects + 1, column.max() + 2), dtype=bool)
    touching[touch_a, column[touch_b]] = touching[touch_b, column[touch_a]] = True
    # Each object's pixel count, row sum and column sum, summed over its
    # runs: a run's column sum, (2 * c0 + length - 1) * length / 2, is an
    # integer, summed doubled and halved once.  Integer sums are exact in
    # float64, so sum / n equals the mean numpy computes over the sorted
    # pixel coordinates, bit for bit.
    weights = np.empty((n_runs, 3), dtype=np.int64)
    weights[:, 0] = run_lengths
    np.multiply(run_rows, run_lengths, out=weights[:, 1])
    weights[:, 2] = (2 * run_cols + run_lengths - 1) * run_lengths
    sums = np.add.reduceat(weights, first_run)
    sums[:, 2] //= 2
    counts = sums[:, 0]
    centroid = sums[:, 1:] / sums[:, :1]
    class_id = classes[order[first_run]].astype(np.int64)
    runs = np.empty((n_runs, 3), dtype=np.int64)
    runs[:, 0] = run_rows
    runs[:, 1] = run_cols
    np.add(run_cols, run_lengths, out=runs[:, 2])
    bbox = np.empty((n_objects, 4), dtype=np.int64)
    bbox[:, 0] = run_rows[first_run]
    np.minimum.reduceat(run_cols, first_run, out=bbox[:, 1])
    bbox[:, 2] = run_rows[run_ends - 1]
    np.maximum.reduceat(runs[:, 2], first_run, out=bbox[:, 3])
    bbox[:, 3] -= 1
    tables = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        first, last = offsets[lo], offsets[hi]
        tables.append(
            ObjectTable(
                class_id[lo:hi],
                counts[lo:hi],
                centroid[lo:hi],
                bbox[lo:hi],
                runs[first:last],
                offsets[lo : hi + 1] - first,
                touching[lo:hi, : hi - lo].copy(),
            )
        )
    return tables


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


def _run_contours(runs: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`trace_boundaries` of objects whose every row is one run, from their
    runs alone: object k's runs are `runs[offsets[k]:offsets[k + 1]]`, one
    per row from its top row down, and at least one object is given.

    With run i of an object covering columns A_i..B_i, its clockwise
    contour from (top row, A_0) runs right along the top row and down
    the right side: at each row change, on to columns B_i+1..B_{i+1} of
    the new row when B_{i+1} > B_i, and otherwise back along row i to
    column B_{i+1}+1 and then to (i+1, B_{i+1}).  It runs left along the
    bottom row from B-1 to A and up the left side by the mirror rule: on
    to columns A_i-1..A_{i-1} of the row above when A_{i-1} < A_i, and
    otherwise along row i to column A_{i-1}-1 and then to (i-1,
    A_{i-1}).  Its last point, the start again, is dropped unless it is
    the only one.

    So each run holds two pieces of the contour, each within its row: on
    the right side it arrives towards B_i and departs back from it, on
    the left side it arrives towards A_i and departs back from it.  A
    piece is a V of columns, `apex + sign * |p - at|` at contour
    position p, whose apex, B_i or A_i, lies at position `at`; an
    arrival or departure may be empty.  An object's contour is the right
    pieces of its runs from the top down, then the left pieces from the
    bottom up, and one `np.repeat` over the piece table expands all of
    them.  At an object's top and bottom run the missing neighbour's
    column is replaced by one that gives the top row, the bottom row or
    no point.
    """
    m = len(runs)
    tops, bottoms = offsets[:-1], offsets[1:] - 1
    apex = runs[:, 2:0:-1] - (1, 0)  # (B_i, A_i)
    # The neighbour each piece arrives from and departs to: the run above
    # and below on the right, below and above on the left.
    came, goes = np.empty((m, 2), dtype=np.int64), np.empty((m, 2), dtype=np.int64)
    came[1:, 0], came[:-1, 1] = apex[:-1, 0], apex[1:, 1]
    goes[:-1, 0], goes[1:, 1] = apex[1:, 0], apex[:-1, 1]
    came[tops, 0] = apex[tops, 1] - 1
    goes[tops, 1] = apex[tops, 1]
    goes[bottoms, 0] = came[bottoms, 1] = apex[bottoms, 0]
    sign = np.array((-1, 1))
    arrive = np.maximum(sign * (came - apex), 1)
    arrive[bottoms, 1] = apex[bottoms, 0] - apex[bottoms, 1]
    count = arrive + np.maximum(sign * (goes - apex) - 1, 0)
    # The top run's left piece ends at the start: drop that point.
    count[tops, 1] = np.maximum(arrive[tops, 1] - 1, 0)
    # Contour order: the runs f..l of an object take piece slots 2f to
    # 2l + 1, run j's right piece at f + j and its left piece at
    # f + 2l + 1 - j.
    h = np.diff(offsets)
    j = np.arange(m)
    walk = np.empty(2 * m, dtype=np.int64)
    walk[tops.repeat(h) + j] = 2 * j
    walk[(tops + 2 * bottoms + 1).repeat(h) - j] = 2 * j + 1
    count = count.ravel().take(walk)
    at = count.cumsum() - count + arrive.ravel().take(walk) - 1
    piece = np.arange(2 * m).repeat(count)
    points = np.empty((len(piece), 2), dtype=np.int64)
    runs[:, 0].take(walk >> 1).take(piece, out=points[:, 0])
    offset = np.abs(np.arange(len(piece)) - at.take(piece))
    offset *= sign.take(walk & 1).take(piece)
    np.add(apex.ravel().take(walk).take(piece), offset, out=points[:, 1])
    return points, np.add.reduceat(count, 2 * tops)


def trace_boundaries(grid: LabelGrid, objects: ObjectTable) -> tuple[np.ndarray, np.ndarray]:
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
    if not len(objects):
        return np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64)
    stride = grid.width + 2
    top, bottom = min(objects.bbox[:, 0].tolist()), max(objects.bbox[:, 2].tolist())
    codes = _neighbour_codes(grid, top, bottom)
    jump = _jump_table(stride)
    firsts = objects.runs[objects.offsets[:-1], :2].tolist()  # each object's raster-first pixel
    states: list[int] = []
    append = states.append
    lengths: list[int] = []
    for (row, col), pixel_count in zip(firsts, objects.pixel_count.tolist()):
        before = len(states)
        origin = (row + 1) * stride + col + 1
        s = origin * 8
        append(s)
        if codes[origin]:
            first = s = s + jump[codes[origin] << 3]
            for _ in range(8 * pixel_count + 1):
                append(s)
                s += jump[codes[s >> 3] << 3 | s & 7]
                if s == first:
                    break
            else:
                raise RuntimeError(f"boundary walk from position {origin} did not close")
            states.pop()  # sn, at the origin, which s0 already holds
        lengths.append(len(states) - before)
    positions = np.array(states, dtype=np.int64) >> 3
    positions -= stride + 1
    points = np.empty((len(states), 2), dtype=np.int64)
    np.divmod(positions, stride, out=(points[:, 0], points[:, 1]))
    return points, np.array(lengths, dtype=np.int64)
