"""Corpus management, synthetic scene generation, and persistence.

A corpus on disk is a directory of `.lgrid` files plus three JSON
documents: `classes.json` (id -> name map), `attributes.json` (schema
and per-image annotation records) and `splits.json` (train/val id
lists; each id names `images/<id>.lgrid`, so it must be a plain file
stem).  The synthetic generator writes corpora of non-overlapping
rectangular and elliptical objects whose co-occurrence structure is
controlled per context: every context has an exclusive class pool, an
optional support anchor that co-occurring objects stand on, and an
optional base/rider stacking rule (the rider is always placed on its
base, never on the anchor).

Contradiction examples are produced by removing one object, chosen
uniformly at random under a seed, and painting its runs background:
`generate_contradiction` reads the object's class and runs from the
columns of the map's ObjectTable and writes the modified label map, and
`verifier.derive_contradiction` derives the same twin from a prepared
Scene without labelling it again.  Both choose the object through one
rule.

All randomized operations are pure functions of (inputs, seed); image
level seeds are derived from the global seed and the image index, so
parallel and sequential generation agree byte for byte.
"""

from __future__ import annotations

import json
import re
import reprlib
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np

from .context import DEFAULT_SCHEMA, PLACEHOLDER, AttributeTable, load_attributes
from .errors import (
    DuplicateError,
    FormatError,
    PlacementError,
    SceneCheckError,
    SchemaError,
    VersionError,
)
from .labelgrid import (
    DEFAULT_MIN_AREA,
    LabelGrid,
    extract_objects,
    grid_from_array,
    load_label_grid,
)
from .relations import K_DIST, SHAPE_BINS, SHAPE_SAMPLES
from .seeds import derive_seed
from .stats import CooccurrenceModel, StatsBuilder, finalize
from .verifier import (
    AGGREGATION_MODE,
    N_FEATURES,
    Detector,
    LinearModel,
    VerifierRegistry,
    _removed_index,
)

SCHEMA_VERSION = 1


def _versioned(doc: dict) -> dict:
    """`doc` stamped with SCHEMA_VERSION, as every document is written."""
    return {"schema_version": SCHEMA_VERSION, **doc}


def _check_version(doc: dict, what: str) -> None:
    """Refuse a document of any other schema version with a one-line
    VersionError naming `what`."""
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise VersionError(f"{what}: unsupported schema version {doc.get('schema_version')!r}")


@contextmanager
def _malformed(what):
    """Report a missing key or a value of the wrong type or form in a
    parsed document as a one-line FormatError naming `what`."""
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"{what}: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"{what}: malformed document: {exc}") from None


_INT_KEY = re.compile(r"0|-?[1-9][0-9]*")
_EXPECTED = {
    dict: "an object", list: "an array", tuple: "an array",
    int: "integers", float: "finite numbers", str: "strings",
}


def _read(tp, value, what: str):
    """`value`, a parsed JSON value, read as the annotation `tp`: the inverse
    of `asdict` followed by `json.dumps`.

    - A dataclass is an object: each field is read by its annotation, a
      missing one takes its default or is a KeyError of its name, and a key
      that names no field, other than `schema_version`, is refused.
    - `X | None` is null or an X; `Literal[...]` is one of its values.
    - `list[T]`, `tuple[T, ...]` and a fixed `tuple[A, B]` (of that length)
      are arrays, given as lists or as the tuples `asdict` makes.
    - `dict[K, V]` is an object, whose keys an `int` K reads in decimal.
    - The leaf rule: an `int` is an integer and a `float` a finite number,
      neither of them a boolean; a `str` is a string; `object` is any value.

    Anything else is a ValueError naming `what`, the field or the part of
    the document that `value` stands in.
    """
    if tp is object or tp is int and type(value) is int or tp is str and type(value) is str:
        return value
    if tp is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp) and isinstance(value, dict):
        names = {f.name for f in fields(tp)}
        unknown = sorted(set(value) - names - {"schema_version"})
        if unknown:
            raise ValueError(f"{what} holds unknown keys {unknown}")
        for f in fields(tp):
            if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
                raise KeyError(f.name)
        hints = get_type_hints(tp)
        return tp(**{k: _read(hints[k], v, k) for k, v in value.items() if k in names})
    if origin is UnionType:  # X | None
        (inner,) = set(args) - {type(None)}
        return None if value is None else _read(inner, value, what)
    if origin is Literal and any(type(value) is type(a) and value == a for a in args):
        return value
    if origin in (list, tuple) and isinstance(value, (list, tuple)):
        if origin is list or args[1:] == (...,):
            return origin(_read(args[0], v, what) for v in value)
        _expect(f"length of {what}", len(value), len(args))
        return tuple(_read(a, v, what) for a, v in zip(args, value))
    if origin is dict and isinstance(value, dict):
        key, item = args
        if key is int:  # written in decimal; a key in any other form stays a string
            value = {int(k) if _INT_KEY.fullmatch(k) else k: v for k, v in value.items()}
        return {_read(key, k, what): _read(item, v, what) for k, v in value.items()}
    expected = _EXPECTED.get(dict if is_dataclass(tp) else origin or tp, f"one of {args}")
    raise ValueError(f"{what} holds {reprlib.repr(value)}, expected {expected}")


_SYNTH_TAG = 201
EVAL_TAG = 202

SceneKind = Literal["lone", "pair", "stack_pair", "triple"]
SCENE_KINDS: tuple[str, ...] = get_args(SceneKind)


@dataclass(frozen=True)
class ClassSpec:
    """Shape and size range used when painting objects of one class."""

    class_id: int
    name: str
    shape: Literal["rect", "ellipse"]
    height: tuple[int, int]
    width: tuple[int, int]

    def __post_init__(self) -> None:
        """Each size range is [low, high] with 1 <= low <= high."""
        for name in ("height", "width"):
            low, high = getattr(self, name)
            if not 1 <= low <= high:
                raise ValueError(
                    f"{name} of {self.name!r} is [{low}, {high}],"
                    " expected [low, high] with 1 <= low <= high"
                )


@dataclass(frozen=True)
class ContextSpec:
    """Class pool and placement rules for one context value.

    `satellites` may co-occur on the anchor; `lone_extra` classes only
    ever appear alone; the rider of `stack` appears alone or on its
    base, never directly on the anchor.  `kind_weights` are relative
    draw weights of the scene kinds, none negative, with a finite sum
    above 0; a kind they leave out is never drawn, and each kind they
    weigh above 0 must have the classes it draws.  A triple scene is the
    stack with probability `stack_bias`, in [0, 1].
    """

    value: str
    anchor: int
    satellites: tuple[int, ...]
    stack: tuple[int, int] | None  # (base class, rider class)
    kind_weights: dict[SceneKind, float]
    stack_bias: float = 0.25
    lone_extra: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        weights = self.kind_weights.values()
        if any(w < 0 for w in weights) or not 0 < sum(weights) <= sys.float_info.max:
            raise ValueError(
                f"kind_weights of {self.value!r} are {self.kind_weights},"
                " expected weights of at least 0 with a finite sum above 0"
            )
        if not 0 <= self.stack_bias <= 1:
            raise ValueError(
                f"stack_bias of {self.value!r} is {self.stack_bias}, expected a value in [0, 1]"
            )
        rider = self.stack[1] if self.stack else None
        free = [s for s in self.satellites if s != rider]
        needs = {
            "lone": (
                "a satellite, a stack or a lone_extra class", free or self.stack or self.lone_extra
            ),
            "pair": ("a satellite other than the stack's rider", free),
            "stack_pair": ("a stack or two satellites", self.stack or len(self.satellites) >= 2),
            "triple": (
                "two satellites other than the stack's rider, or a stack and stack_bias 1",
                len(free) >= 2 or self.stack and self.stack_bias == 1,
            ),
        }
        for kind, weight in self.kind_weights.items():
            need, met = needs[kind]
            if weight > 0 and not met:
                raise ValueError(
                    f"kind_weights of {self.value!r} draw {kind!r} scenes, which need {need}"
                )


@dataclass(frozen=True)
class SyntheticConfig:
    """Fully seeded description of a synthetic corpus."""

    n_images: int  # per context
    grid_height: int
    grid_width: int
    seed: int
    classes: tuple[ClassSpec, ...]
    contexts: tuple[ContextSpec, ...]
    context_attribute: str = "location"
    noise_attributes: dict[str, list[str]] = field(default_factory=dict)
    placeholder_rate: float = 0.01
    train_fraction: float = 0.7

    def __post_init__(self) -> None:
        """At least one context, no two with one value, one image per
        context and one row and column per map, a train fraction and a
        placeholder rate in [0, 1], a seed in [0, 2**32) as `derive_seed`
        takes it, and at least one value per noise attribute, which must
        not be the context attribute.  Every class id is at least 1, since
        0 is the background, and names one class; every class a context
        places is one of them."""
        if not 0 <= self.seed < 2**32:
            raise ValueError(f"seed is {self.seed}, expected an integer in [0, 2**32)")
        for name in ("n_images", "grid_height", "grid_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} is {getattr(self, name)}, expected at least 1")
        if not self.contexts:
            raise ValueError("contexts is empty, expected at least one context")
        context_values = [ctx.value for ctx in self.contexts]
        for value in context_values:
            if context_values.count(value) > 1:
                raise ValueError(
                    f"two contexts have the value {value!r}, which names their images"
                )
        for name, values in self.noise_attributes.items():
            if not values:
                raise ValueError(f"noise attribute {name!r} has no values")
        if self.context_attribute in self.noise_attributes:
            raise ValueError(
                f"context attribute {self.context_attribute!r} is a noise attribute too"
            )
        for name in ("train_fraction", "placeholder_rate"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} is {getattr(self, name)}, expected a value in [0, 1]")
        names: dict[int, str] = {}
        for c in self.classes:
            if c.class_id < 1:
                raise ValueError(
                    f"class_id {c.class_id} of {c.name!r} is below 1 (0 is background)"
                )
            if c.class_id in names:
                raise ValueError(
                    f"class_id {c.class_id} is given to both {names[c.class_id]!r} and {c.name!r}"
                )
            names[c.class_id] = c.name
        for ctx in self.contexts:
            placed = {
                "anchor": (ctx.anchor,), "satellites": ctx.satellites,
                "stack": ctx.stack or (), "lone_extra": ctx.lone_extra,
            }
            for key, ids in placed.items():
                for class_id in ids:
                    if class_id not in names:
                        raise ValueError(
                            f"{key} of context {ctx.value!r} names class {class_id}, which no"
                            " class has"
                        )

    def class_map(self) -> dict[int, str]:
        return {c.class_id: c.name for c in self.classes}

    def to_dict(self) -> dict:
        return _versioned(asdict(self))

    @classmethod
    def from_dict(cls, doc: dict, where: str | Path = "synthetic config") -> "SyntheticConfig":
        """The config of a parsed document of this schema version, read by
        `_read`: each field by its annotation, a missing one at its default.
        A context value, which starts the image ids of its context, must be
        a plain file name.  Every error is one line naming `where`."""
        with _malformed(where):
            _check_version(doc, where)
            config = _read(cls, doc, "synthetic config")
        for ctx in config.contexts:
            _check_plain_name(ctx.value, "context value", where)
        return config


_INSIDE_KIND_WEIGHTS = {"lone": 0.525, "pair": 0.3, "stack_pair": 0.075, "triple": 0.1}
_OUTSIDE_KIND_WEIGHTS = {"lone": 0.45, "pair": 0.3, "stack_pair": 0.1, "triple": 0.15}


def default_synthetic_config(n_images: int = 400, seed: int = 0) -> SyntheticConfig:
    """The corpus shipped for experiments: indoor and outdoor scenes.

    Indoor objects stand on a floor (cats may ride sofas); outdoor
    objects stand on the ground (a person may ride a horse).  The two
    class pools are exclusive, so the `location` attribute determines
    which classes can appear at all.
    """
    classes = (
        ClassSpec(1, "floor", "rect", (6, 9), (64, 64)),
        ClassSpec(2, "sofa", "rect", (9, 13), (14, 22)),
        ClassSpec(3, "table", "rect", (7, 11), (11, 17)),
        ClassSpec(4, "cat", "ellipse", (5, 8), (7, 11)),
        ClassSpec(5, "tv", "rect", (5, 9), (7, 11)),
        ClassSpec(6, "ground", "rect", (6, 9), (64, 64)),
        ClassSpec(7, "person", "rect", (11, 15), (4, 7)),
        ClassSpec(8, "horse", "rect", (8, 12), (11, 17)),
        ClassSpec(9, "car", "rect", (5, 9), (11, 17)),
        ClassSpec(10, "tree", "ellipse", (15, 21), (6, 11)),
        ClassSpec(11, "dog", "ellipse", (5, 8), (8, 11)),
        ClassSpec(12, "bicycle", "rect", (5, 9), (9, 13)),
        ClassSpec(13, "lamp", "rect", (8, 12), (4, 7)),
    )
    # Pool sizes differ on purpose: indoor co-occurrences spread over
    # four classes while outdoor ones concentrate on two, so the same
    # co-occurrence level means different things in the two contexts.
    contexts = (
        ContextSpec(
            value="inside",
            anchor=1,
            satellites=(2, 3, 5),
            stack=(2, 4),
            kind_weights=dict(_INSIDE_KIND_WEIGHTS),
            stack_bias=0.25,
            lone_extra=(13,),
        ),
        ContextSpec(
            value="outside",
            anchor=6,
            satellites=(8, 9),
            stack=(8, 7),
            kind_weights=dict(_OUTSIDE_KIND_WEIGHTS),
            stack_bias=0.4,
            lone_extra=(10, 11, 12),
        ),
    )
    noise = {k: list(v) for k, v in DEFAULT_SCHEMA.items() if k != "location"}
    return SyntheticConfig(
        n_images=n_images,
        grid_height=48,
        grid_width=64,
        seed=seed,
        classes=classes,
        contexts=contexts,
        noise_attributes=noise,
    )


def read_classes(path: str | Path) -> dict[int, str]:
    """Read a `classes.json` document: its id -> name map."""
    doc = _read_document(path, "class map")
    with _malformed(path):
        return _read(dict[int, str], doc["classes"], "classes")


def read_attributes(path: str | Path) -> AttributeTable:
    """Read an `attributes.json` document: its schema and its annotation
    records, checked against that schema by `load_attributes`.  A schema
    value that is not a plain file name is a FormatError.  Every error
    names `path`."""
    doc = _read_document(path, "attribute table")
    with _malformed(path):
        annotations = doc["annotations"]
        schema = _read(dict[str, list[str]], doc["schema"], "schema")
    for values in schema.values():
        for value in values:
            _check_plain_name(value, "context value", path)
    try:
        return load_attributes(annotations, schema)
    except SceneCheckError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _check_plain_name(name: str, what: str, where: str | Path) -> None:
    """Reject an image id or context value, a string, that could name a file
    outside a corpus or an output directory: commands build
    `<dir>/<id>.lgrid` and `<stem>.<value>.json` paths from them."""
    if not name or name[0] == "." or "/" in name or "\\" in name:
        raise FormatError(
            f"{where}: {what} {name!r} is not a plain file name"
            " (empty, starting with '.', or holding '/' or '\\')"
        )


@dataclass
class Corpus:
    """A corpus rooted at a directory, with split tags and a class map."""

    root: Path
    class_map: dict[int, str]
    splits: dict[str, list[str]]

    @classmethod
    def load(cls, root: str | Path) -> "Corpus":
        """Read the corpus documents under `root`; an image id in
        `splits.json` that is not a plain file stem is a FormatError, and
        one listed twice in a split is a DuplicateError."""
        root = Path(root)
        class_map = read_classes(root / "classes.json")
        splits_path = root / "splits.json"
        splits_doc = _read_document(splits_path, "split lists")
        with _malformed(splits_path):
            splits = {s: _read(list[str], splits_doc[s], s) for s in ("train", "val")}
        for image_id in splits["train"] + splits["val"]:
            _check_plain_name(image_id, "image id", splits_path)
        for split, ids in splits.items():
            for image_id, n in Counter(ids).items():
                if n > 1:
                    raise DuplicateError(
                        f"{splits_path}: image id {image_id!r} listed {n} times in {split}"
                    )
        overlap = set(splits["train"]) & set(splits["val"])
        if overlap:
            raise SchemaError(f"split tags overlap on {len(overlap)} ids")
        return cls(root=root, class_map=class_map, splits=splits)

    def image_ids(self, split: str | None = None) -> list[str]:
        if split is None:
            return list(self.splits["train"]) + list(self.splits["val"])
        if split not in self.splits:
            raise SchemaError(f"unknown split {split!r}")
        return list(self.splits[split])

    def grid_path(self, image_id: str) -> Path:
        return self.root / "images" / f"{image_id}.lgrid"

    def grid(self, image_id: str) -> LabelGrid:
        return load_label_grid(self.grid_path(image_id), self.class_map)

    def attributes(self) -> AttributeTable:
        return read_attributes(self.root / "attributes.json")


# ---------------------------------------------------------------------------
# synthetic generation


def _paint_rect(arr: np.ndarray, r0: int, c0: int, h: int, w: int, class_id: int) -> None:
    arr[r0 : r0 + h, c0 : c0 + w] = class_id


def _paint_ellipse(arr: np.ndarray, r0: int, c0: int, h: int, w: int, class_id: int) -> None:
    rc = r0 + (h - 1) / 2.0
    cc = c0 + (w - 1) / 2.0
    rows, cols = np.ogrid[r0 : r0 + h, c0 : c0 + w]
    mask = ((rows - rc) / (h / 2.0)) ** 2 + ((cols - cc) / (w / 2.0)) ** 2 <= 1.0
    arr[r0 : r0 + h, c0 : c0 + w][mask] = class_id


def _paint(arr, spec: ClassSpec, r0: int, c0: int, h: int, w: int) -> None:
    if spec.shape == "ellipse":
        _paint_ellipse(arr, r0, c0, h, w, spec.class_id)
    else:
        _paint_rect(arr, r0, c0, h, w, spec.class_id)


def _sample_size(rng, spec: ClassSpec) -> tuple[int, int]:
    h = int(rng.integers(spec.height[0], spec.height[1] + 1))
    w = int(rng.integers(spec.width[0], spec.width[1] + 1))
    return h, w


def _pick_kind(rng, weights: dict[str, float]) -> str:
    total = sum(weights.values())
    u = rng.random() * total
    acc = 0.0
    for kind in SCENE_KINDS:
        acc += weights.get(kind, 0.0)
        if u < acc:
            return kind
    return SCENE_KINDS[-1]


def _slot(rng, lo: int, hi: int, size: int, what: str, axis: str, extent: int) -> int:
    """Random first row or column so that `what`, `size` cells long along
    `axis` ("height" or "width"), spans [lo, hi) of the grid's `extent`
    rows or columns; a PlacementError naming all of them when impossible."""
    if hi - lo < size:
        band = "rows" if axis == "height" else "columns"
        raise PlacementError(
            f"{what} of {axis} {size} needs {size} of {band} [{lo}, {hi}), grid_{axis} is {extent}"
        )
    return int(rng.integers(lo, hi - size + 1))


def _synth_scene(rng, config: SyntheticConfig, ctx: ContextSpec) -> np.ndarray:
    by_id = {c.class_id: c for c in config.classes}
    H, W = config.grid_height, config.grid_width
    arr = np.zeros((H, W), dtype=np.int32)
    kind = _pick_kind(rng, ctx.kind_weights)
    # The rider class never stands on the anchor directly; it only
    # appears alone or on its base, so rider pairs have one signature.
    rider = ctx.stack[1] if ctx.stack else None
    free = tuple(s for s in ctx.satellites if s != rider)
    lone_pool = free + ctx.lone_extra + ((rider,) if rider is not None else ())

    def place_on(support_top: int, spec: ClassSpec, lo: int, hi: int) -> tuple[int, int, int, int]:
        h, w = _sample_size(rng, spec)
        c0 = _slot(rng, lo, hi, w, spec.name, "width", W)
        r0 = support_top - h
        if r0 < 0:
            raise PlacementError(f"{spec.name} of height {h} does not fit above row {support_top}")
        _paint(arr, spec, r0, c0, h, w)
        return r0, c0, h, w

    if kind == "lone":
        spec = by_id[int(rng.choice(lone_pool))]
        h, w = _sample_size(rng, spec)
        r0 = _slot(rng, 4, H - 11, h, f"lone {spec.name}", "height", H)
        c0 = _slot(rng, 2, W - 2, w, f"lone {spec.name}", "width", W)
        _paint(arr, spec, r0, c0, h, w)
        return arr

    if kind == "stack_pair":
        base_id, rider_id = ctx.stack if ctx.stack else (ctx.satellites[0], ctx.satellites[1])
        base = by_id[base_id]
        bh, bw = _sample_size(rng, base)
        # The base stands 6 to 8 rows above the bottom edge.
        clear = 8 - int(rng.integers(0, 3))
        b_r0 = H - clear - bh
        if b_r0 < 0:
            raise PlacementError(
                f"stack base {base.name} of height {bh} needs {bh + clear} rows,"
                f" grid_height is {H}"
            )
        b_c0 = _slot(rng, 8, W - 8, bw, f"stack base {base.name}", "width", W)
        _paint(arr, base, b_r0, b_c0, bh, bw)
        _place_rider(rng, arr, by_id[rider_id], b_r0, b_c0, bw)
        return arr

    # Remaining kinds stand on the anchor.
    anchor = by_id[ctx.anchor]
    ah = int(rng.integers(anchor.height[0], anchor.height[1] + 1))
    anchor_top = H - ah
    if anchor_top < 0:
        raise PlacementError(
            f"anchor {anchor.name} of height {ah} needs {ah} rows, grid_height is {H}"
        )
    _paint_rect(arr, anchor_top, 0, ah, W, anchor.class_id)

    if kind == "pair":
        spec = by_id[int(rng.choice(free))]
        place_on(anchor_top, spec, 2, W - 2)
        return arr

    # triple: anchor plus two satellites, or anchor plus a stacked pair
    draw: tuple[int, int]
    if ctx.stack is not None and rng.random() < ctx.stack_bias:
        draw = ctx.stack
    else:
        pick = rng.choice(len(free), size=2, replace=False)
        draw = (free[int(pick[0])], free[int(pick[1])])
    if ctx.stack is not None and set(draw) == set(ctx.stack):
        base_id, rider_id = ctx.stack
        b_r0, b_c0, _, bw = place_on(anchor_top, by_id[base_id], 8, W - 8)
        _place_rider(rng, arr, by_id[rider_id], b_r0, b_c0, bw)
    else:
        left, right = by_id[draw[0]], by_id[draw[1]]
        place_on(anchor_top, left, 2, W // 2 - 3)
        place_on(anchor_top, right, W // 2 + 3, W - 2)
    return arr


def _place_rider(rng, arr, rider: ClassSpec, base_r0: int, base_c0: int, base_w: int) -> None:
    """Paint `rider` on the base whose top row is `base_r0`, centred over
    it; a PlacementError naming the rider's size, the base's and the
    grid's when it is wider than the base or taller than the rows above."""
    rh, rw = _sample_size(rng, rider)
    if rw > base_w:
        raise PlacementError(
            f"rider {rider.name} of width {rw} needs {rw} columns of its base,"
            f" which is {base_w} wide, grid_width is {arr.shape[1]}"
        )
    jitter_max = base_w - rw
    c0 = base_c0 + int(rng.integers(0, jitter_max + 1)) if jitter_max else base_c0
    # Keep the rider over the base's center column so elliptical bases
    # still touch it at their topmost pixel.
    center = base_c0 + base_w // 2
    c0 = min(max(c0, center - rw + 1), center)
    r0 = base_r0 - rh
    if r0 < 0:
        raise PlacementError(
            f"rider {rider.name} of height {rh} needs {rh} rows above its base's top row"
            f" {base_r0}, grid_height is {arr.shape[0]}"
        )
    _paint(arr, rider, r0, c0, rh, rw)


def synth_corpus(config: SyntheticConfig, root: str | Path) -> tuple[Corpus, AttributeTable]:
    """Generate a corpus under `root` and return it with its attribute table.

    On any failure, the files this call wrote and the directories it made
    are removed before the error propagates: a directory that existed
    before keeps every file that this call did not write.
    """
    root = Path(root)
    made = [d for d in (root / "images", root, *root.parents) if not d.exists()]
    written: list[Path] = []
    try:
        return _write_corpus(config, root, written)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for directory in made:
            with suppress(OSError):
                directory.rmdir()
        raise


def _write_corpus(
    config: SyntheticConfig, root: Path, written: list[Path]
) -> tuple[Corpus, AttributeTable]:
    """The body of `synth_corpus`, which adds each path to `written` before
    it writes there."""
    (root / "images").mkdir(parents=True, exist_ok=True)
    class_map = config.class_map()
    annotations: list[dict] = []
    train_ids: list[str] = []
    val_ids: list[str] = []
    train_decile = int(round(config.train_fraction * 10))
    noise_names = sorted(config.noise_attributes)
    for ctx_idx, ctx in enumerate(config.contexts):
        for i in range(config.n_images):
            rng = np.random.default_rng(derive_seed(config.seed, _SYNTH_TAG, ctx_idx, i))
            arr = _synth_scene(rng, config, ctx)
            image_id = f"{ctx.value}_{i:05d}"
            grid = grid_from_array(arr, class_map, image_id=image_id)
            path = root / "images" / f"{image_id}.lgrid"
            written.append(path)
            path.write_text(grid.to_text())
            attrs = {config.context_attribute: ctx.value}
            for name in noise_names:
                values = config.noise_attributes[name]
                if rng.random() < config.placeholder_rate:
                    attrs[name] = PLACEHOLDER
                else:
                    attrs[name] = values[int(rng.integers(len(values)))]
            annotations.append({"image_id": image_id, "attributes": attrs})
            (train_ids if i % 10 < train_decile else val_ids).append(image_id)

    schema = {config.context_attribute: [ctx.value for ctx in config.contexts]}
    schema.update({k: list(v) for k, v in sorted(config.noise_attributes.items())})
    documents = {
        "classes.json": {"classes": {str(k): v for k, v in sorted(class_map.items())}},
        "attributes.json": {"schema": schema, "annotations": annotations},
        "splits.json": {"train": train_ids, "val": val_ids},
    }
    for name, doc in documents.items():
        written.append(root / name)
        _write_json(root / name, _versioned(doc))
    corpus = Corpus(root=root, class_map=class_map, splits={"train": train_ids, "val": val_ids})
    table = load_attributes(annotations, schema)
    return corpus, table


# ---------------------------------------------------------------------------
# contradiction generation


def generate_contradiction(
    grid: LabelGrid, seed: int, min_area: int = DEFAULT_MIN_AREA
) -> tuple[LabelGrid, int]:
    """Remove one object (uniformly chosen under `seed`) from the grid.

    Returns the modified grid and the removed object's class id; all
    other pixels are conserved exactly.
    """
    objects = extract_objects(grid, min_area)
    k = _removed_index(len(objects), seed)
    cells = grid.to_array().copy()
    for r, c0, c1 in objects.runs[objects.offsets[k] : objects.offsets[k + 1]].tolist():
        cells[r, c0:c1] = 0
    modified = grid_from_array(cells, grid.class_map, image_id=grid.image_id)
    return modified, int(objects.class_id[k])


# ---------------------------------------------------------------------------
# persistence


def _read_document(path: str | Path, what: str) -> dict:
    """The JSON object in the file at `path`, a `what` of this schema version.

    A file that cannot be read, text that is not JSON, a value that is not
    an object and any other schema version are each a one-line FormatError
    or VersionError naming `path`.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror}") from None
    except ValueError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: a {what} must be a JSON object, not {type(doc).__name__}")
    _check_version(doc, f"{path}: {what}")
    return doc


def _write_json(path: Path, doc: dict) -> None:
    """Write `doc` as sorted, indented JSON, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _expect(what: str, got, fixed: int | str) -> None:
    """Reject a document whose `what` reads `got` where this version fixes `fixed`."""
    if got != fixed:
        raise ValueError(f"{what} is {got!r}, expected {fixed!r}")


def _count(what: str, value, least: int = 0) -> int:
    """`value`, which must be an integer that an int64 count array holds,
    at least `least`; anything else is a ValueError naming `what`."""
    if type(value) is not int or not least <= value < 2**63:
        raise ValueError(f"{what} holds {value!r}, expected an integer count in [{least}, 2**63)")
    return value


def _stats_to_doc(model: CooccurrenceModel) -> dict:
    classes = model.classes

    def entries(counts: np.ndarray) -> list:
        """[a, b, counts] of every class pair with a nonzero count, in row order."""
        nonzero = counts.any(axis=2) if counts.ndim == 3 else counts
        return [
            [classes[i], classes[j], counts[i, j].tolist()]
            for i, j in np.argwhere(nonzero).tolist()
        ]

    return {
        "alpha": model.alpha,
        "k_dist": K_DIST,
        "classes": list(classes),
        "images": model.images,
        "class_image_counts": {
            str(c): n for c, n in zip(classes, model.class_images.tolist()) if n
        },
        "presence_counts": entries(np.triu(model.presence)),
        "position_counts": entries(model.position),
        "proximity_counts": entries(model.proximity),
        "distance_counts": entries(model.distance),
        "size_obs": [
            [classes[i], classes[j], [[pa, pb, n] for (pa, pb), n in sorted(obs.items())]]
            for (i, j), obs in sorted(model.size_obs.items())
        ],
    }


class _ClassRows(dict):
    """Row of each class of a statistics document; looking up any other
    class is a one-line SchemaError that names it."""

    def __missing__(self, class_id):
        raise SchemaError(f"statistics document: counts name class {class_id!r}, not in classes")


def _stats_from_doc(doc: dict) -> CooccurrenceModel:
    """The statistics of a document whose `classes` are strictly increasing
    class ids and whose counts `_count` accepts.  A class or pair entry
    holds some count above 0, and every size observation a count and
    pixel counts of at least 1, as `_stats_to_doc` writes them; a
    document that loads saves back to itself."""
    _expect("k_dist", doc["k_dist"], K_DIST)
    classes = _read(list[int], doc["classes"], "classes")
    if classes != sorted(set(classes)):
        raise ValueError(f"classes {classes} are not strictly increasing")
    builder = StatsBuilder.for_classes(classes)
    row = _ClassRows((c, i) for i, c in enumerate(classes))

    def entries(key: str):
        """(row of a, row of b, what, counts) of each [a, b, counts] entry of doc[key]."""
        for a, b, counts in _read(list[tuple[int, int, object]], doc[key], key):
            yield row[a], row[b], f"{key} of ({a}, {b})", counts

    builder.images = _count("images", doc["images"])
    for c, n in _read(dict[int, object], doc["class_image_counts"], "class_image_counts").items():
        builder.class_images[row[c]] = _count(f"class_image_counts of {c}", n, 1)
    for i, j, what, n in entries("presence_counts"):
        builder.presence[i, j] = builder.presence[j, i] = _count(what, n, 1)
    for name in ("position", "proximity", "distance"):
        counts = getattr(builder, name)
        for i, j, what, v in entries(f"{name}_counts"):
            _expect(f"length of {what}", len(v), counts.shape[2])
            counts[i, j] = [_count(what, n) for n in v]
            if not counts[i, j].any():
                raise ValueError(f"{what} holds only zeros")
    for i, j, what, obs in entries("size_obs"):
        if obs == []:
            raise ValueError(f"{what} is empty")
        builder.size_obs[i, j] = Counter(
            {(_count(what, pa, 1), _count(what, pb, 1)): _count(what, n, 1) for pa, pb, n in obs}
        )
    return finalize(builder, alpha=_read(float, doc["alpha"], "alpha"))


def _model_from_doc(doc: dict) -> LinearModel:
    """The LinearModel of a document whose vectors hold one number per
    feature and whose feature stds are above 0."""
    model = _read(LinearModel, doc, "model")
    for key in ("weights", "feature_means", "feature_stds"):
        _expect(f"length of {key}", len(getattr(model, key)), N_FEATURES)
    if min(model.feature_stds) <= 0.0:
        raise ValueError(f"feature_stds holds {min(model.feature_stds)!r}, expected values above 0")
    return model


def _detector_to_doc(detector: Detector) -> dict:
    stats = detector.stats
    rows = zip(stats.classes, stats.class_images, detector.prototypes)
    return {
        "model": asdict(detector.model),
        "stats": _stats_to_doc(stats),
        "prototypes": {str(c): row.tolist() for c, n, row in rows if n},
    }


def _detector_from_doc(doc: dict) -> Detector:
    """The Detector of a document whose `prototypes` give the row of each class
    with images, SHAPE_BINS finite numbers; every other class's row is uniform."""
    protos = {
        k: _read(tuple[float, ...], v, f"the class {k} prototype")
        for k, v in _read(dict[str, object], doc["prototypes"], "prototypes").items()
    }
    for k, v in protos.items():
        _expect(f"length of the class {k} prototype", len(v), SHAPE_BINS)
    model, stats = _model_from_doc(doc["model"]), _stats_from_doc(doc["stats"])
    imaged = [str(c) for c, n in zip(stats.classes, stats.class_images) if n]
    if sorted(protos) != sorted(imaged):
        raise ValueError(f"prototypes name {sorted(protos)}, not the classes with images {imaged}")
    table = np.full((len(stats.classes), SHAPE_BINS), 1.0 / SHAPE_BINS)
    table[stats.class_images > 0] = np.reshape([protos[c] for c in imaged], (-1, SHAPE_BINS))
    return Detector(model, stats, table)


def save_model(path: str | Path, obj: CooccurrenceModel | VerifierRegistry) -> None:
    """Serialize a statistics model or a verifier registry to versioned JSON."""
    if isinstance(obj, CooccurrenceModel):
        doc = {"kind": "cooccurrence_model", **_stats_to_doc(obj)}
    elif isinstance(obj, VerifierRegistry):
        doc = {
            "kind": "verifier_registry",
            "context_attribute": obj.context_attribute,
            "aggregation_mode": AGGREGATION_MODE,
            "min_area": obj.min_area,
            "shape_samples": SHAPE_SAMPLES,
            "shape_bins": SHAPE_BINS,
            "global": _detector_to_doc(obj.global_detector),
            "contexts": {
                value: _detector_to_doc(detector) for value, detector in obj.models.items()
            },
        }
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    _write_json(Path(path), _versioned(doc))


def load_model(path: str | Path) -> CooccurrenceModel | VerifierRegistry:
    """Load a document written by `save_model`; inverse for counts and weights.

    Every leaf is read by the rule of `_read`: a linear model through its
    dataclass, and `alpha`, `classes`, the class ids of count entries,
    `min_area`, `context_attribute` and the shape prototypes by their
    types.  A leaf that breaks that rule, a missing key, a verdict rule,
    resolution or vector length other than this version's fixed one
    (`aggregation_mode`, always "majority"; shape samples and bins,
    distance bins, feature width), feature stds that are not above 0,
    `classes` that are not strictly increasing, `min_area` below 1, or
    prototypes for other classes than those with images, is a one-line
    FormatError naming `path`.
    """
    doc = _read_document(path, "model document")
    with _malformed(path):
        kind = doc.get("kind")
        if kind == "cooccurrence_model":
            return _stats_from_doc(doc)
        if kind == "verifier_registry":
            _expect("shape_samples", doc["shape_samples"], SHAPE_SAMPLES)
            _expect("shape_bins", doc["shape_bins"], SHAPE_BINS)
            _expect("aggregation_mode", doc["aggregation_mode"], AGGREGATION_MODE)
            contexts = _read(dict[str, object], doc["contexts"], "contexts")
            return VerifierRegistry(
                context_attribute=_read(str | None, doc["context_attribute"], "context_attribute"),
                min_area=_read(int, doc["min_area"], "min_area"),
                global_detector=_detector_from_doc(doc["global"]),
                models={v: _detector_from_doc(c) for v, c in contexts.items()},
            )
        raise FormatError(f"unknown document kind {kind!r}")
