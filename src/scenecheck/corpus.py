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
`generate_contradiction` writes the modified label map, and
`verifier.derive_contradiction` derives the same twin from a prepared
Scene without labelling it again.  Both choose the object through one
rule.

All randomized operations are pure functions of (inputs, seed); image
level seeds are derived from the global seed and the image index, so
parallel and sequential generation agree byte for byte.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
import numpy as np

from .context import DEFAULT_SCHEMA, PLACEHOLDER, AttributeTable, load_attributes
from .errors import (
    DuplicateError,
    FormatError,
    PlacementError,
    SchemaError,
    VersionError,
)
from .labelgrid import DEFAULT_MIN_AREA, LabelGrid, extract_objects, grid_from_array
from .relations import K_DIST, SHAPE_BINS, SHAPE_SAMPLES
from .seeds import derive_seed
from .stats import CooccurrenceModel, StatsBuilder, finalize
from .verifier import (
    N_FEATURES,
    Detector,
    Hyperparams,
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
    parsed document as a one-line FormatError naming `what`.

    Usable as a `with` block or as a decorator on a loader.
    """
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"{what}: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"{what}: malformed document: {exc}") from None


_SYNTH_TAG = 201
EVAL_TAG = 202

SCENE_KINDS = ("lone", "pair", "stack_pair", "triple")


@dataclass(frozen=True)
class ClassSpec:
    """Shape and size range used when painting objects of one class."""

    class_id: int
    name: str
    shape: str  # "rect" or "ellipse"
    height: tuple[int, int]
    width: tuple[int, int]


@dataclass(frozen=True)
class ContextSpec:
    """Class pool and placement rules for one context value.

    `satellites` may co-occur on the anchor; `lone_extra` classes only
    ever appear alone; the rider of `stack` appears alone or on its
    base, never directly on the anchor.
    """

    value: str
    anchor: int
    satellites: tuple[int, ...]
    stack: tuple[int, int] | None  # (base class, rider class)
    kind_weights: dict[str, float]
    stack_bias: float = 0.25
    lone_extra: tuple[int, ...] = ()


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

    def class_map(self) -> dict[int, str]:
        return {c.class_id: c.name for c in self.classes}

    def to_dict(self) -> dict:
        return _versioned(asdict(self))

    @classmethod
    @_malformed("synthetic config")
    def from_dict(cls, doc: dict) -> "SyntheticConfig":
        """The config of a parsed document; a context value, which starts
        the image ids of its context, must be a plain file name."""
        _check_version(doc, "synthetic config")
        for ctx in doc["contexts"]:
            _check_plain_name(ctx["value"], "context value", "synthetic config")
        return cls(
            n_images=int(doc["n_images"]),
            grid_height=int(doc["grid_height"]),
            grid_width=int(doc["grid_width"]),
            seed=int(doc["seed"]),
            classes=tuple(
                ClassSpec(
                    class_id=int(c["class_id"]),
                    name=c["name"],
                    shape=c["shape"],
                    height=tuple(c["height"]),
                    width=tuple(c["width"]),
                )
                for c in doc["classes"]
            ),
            contexts=tuple(
                ContextSpec(
                    value=ctx["value"],
                    anchor=int(ctx["anchor"]),
                    satellites=tuple(int(s) for s in ctx["satellites"]),
                    stack=tuple(ctx["stack"]) if ctx.get("stack") else None,
                    kind_weights=dict(ctx["kind_weights"]),
                    stack_bias=float(ctx.get("stack_bias", 0.25)),
                    lone_extra=tuple(int(s) for s in ctx.get("lone_extra", ())),
                )
                for ctx in doc["contexts"]
            ),
            context_attribute=doc.get("context_attribute", "location"),
            noise_attributes={
                k: list(v) for k, v in doc.get("noise_attributes", {}).items()
            },
            placeholder_rate=float(doc.get("placeholder_rate", 0.01)),
            train_fraction=float(doc.get("train_fraction", 0.7)),
        )


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
        return {int(k): str(v) for k, v in doc["classes"].items()}


def read_attributes(path: str | Path) -> AttributeTable:
    """Read an `attributes.json` document: its schema and its annotation
    records, checked against that schema by `load_attributes`.  A schema
    value that is not a plain file name is a FormatError."""
    doc = _read_document(path, "attribute table")
    with _malformed(path):
        annotations, schema = doc["annotations"], doc["schema"]
        for values in schema.values():
            for value in values:
                _check_plain_name(value, "context value", path)
    return load_attributes(annotations, schema)


def _check_plain_name(name, what: str, where: Path) -> None:
    """Reject an image id or context value that could name a file outside a
    corpus or an output directory: commands build `<dir>/<id>.lgrid` and
    `<stem>.<value>.json` paths from them."""
    if not isinstance(name, str):
        raise FormatError(f"{where}: {what} {name!r} is not a string")
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
            splits = {
                "train": list(splits_doc["train"]),
                "val": list(splits_doc["val"]),
            }
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
        path = self.grid_path(image_id)
        if not path.exists():
            raise FormatError(f"image id {image_id!r} has no .lgrid file")
        from .labelgrid import parse_label_grid

        return parse_label_grid(path.read_text(), self.class_map, image_id=image_id)

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


def _column_slot(rng, lo: int, hi: int, width: int) -> int:
    """Random left edge so the object spans [lo, hi); raises when impossible."""
    if hi - lo < width:
        raise PlacementError(f"object of width {width} cannot fit in [{lo}, {hi})")
    return int(rng.integers(lo, hi - width + 1))


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
        c0 = _column_slot(rng, lo, hi, w)
        r0 = support_top - h
        if r0 < 0:
            raise PlacementError(f"{spec.name} of height {h} does not fit above row {support_top}")
        _paint(arr, spec, r0, c0, h, w)
        return r0, c0, h, w

    if kind == "lone":
        spec = by_id[int(rng.choice(lone_pool))]
        h, w = _sample_size(rng, spec)
        r0 = int(rng.integers(4, H - h - 10))
        c0 = _column_slot(rng, 2, W - 2, w)
        _paint(arr, spec, r0, c0, h, w)
        return arr

    if kind == "stack_pair":
        base_id, rider_id = ctx.stack if ctx.stack else (ctx.satellites[0], ctx.satellites[1])
        base = by_id[base_id]
        bh, bw = _sample_size(rng, base)
        b_r0 = H - 8 - bh + int(rng.integers(0, 3))
        b_c0 = _column_slot(rng, 8, W - 8, bw)
        _paint(arr, base, b_r0, b_c0, bh, bw)
        _place_rider(rng, arr, by_id[rider_id], b_r0, b_c0, bw)
        return arr

    # Remaining kinds stand on the anchor.
    anchor = by_id[ctx.anchor]
    ah = int(rng.integers(anchor.height[0], anchor.height[1] + 1))
    anchor_top = H - ah
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
        base = by_id[base_id]
        bh, bw = _sample_size(rng, base)
        b_c0 = _column_slot(rng, 8, W - 8, bw)
        b_r0 = anchor_top - bh
        _paint(arr, base, b_r0, b_c0, bh, bw)
        _place_rider(rng, arr, by_id[rider_id], b_r0, b_c0, bw)
    else:
        left, right = by_id[draw[0]], by_id[draw[1]]
        place_on(anchor_top, left, 2, W // 2 - 3)
        place_on(anchor_top, right, W // 2 + 3, W - 2)
    return arr


def _place_rider(rng, arr, rider: ClassSpec, base_r0: int, base_c0: int, base_w: int) -> None:
    rh, rw = _sample_size(rng, rider)
    if rw > base_w:
        raise PlacementError(f"rider {rider.name} wider than its base")
    jitter_max = base_w - rw
    c0 = base_c0 + int(rng.integers(0, jitter_max + 1)) if jitter_max else base_c0
    # Keep the rider over the base's center column so elliptical bases
    # still touch it at their topmost pixel.
    center = base_c0 + base_w // 2
    c0 = min(max(c0, center - rw + 1), center)
    r0 = base_r0 - rh
    if r0 < 0:
        raise PlacementError(f"rider {rider.name} does not fit above its base")
    _paint(arr, rider, r0, c0, rh, rw)


def synth_corpus(config: SyntheticConfig, root: str | Path) -> tuple[Corpus, AttributeTable]:
    """Generate a corpus under `root` and return it with its attribute table."""
    root = Path(root)
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
            (root / "images" / f"{image_id}.lgrid").write_text(grid.to_text())
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
    _write_json(root / "classes.json", _versioned({
        "classes": {str(k): v for k, v in sorted(class_map.items())},
    }))
    _write_json(root / "attributes.json", _versioned({
        "schema": schema,
        "annotations": annotations,
    }))
    _write_json(root / "splits.json", _versioned({
        "train": train_ids,
        "val": val_ids,
    }))
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
    removed = objects[_removed_index(len(objects), seed)]
    cells = grid.to_array().copy()
    for r, c0, c1 in removed.runs:
        cells[r, c0:c1] = 0
    modified = grid_from_array(cells, grid.class_map, image_id=grid.image_id)
    return modified, removed.class_id


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


def _expect(what: str, got, fixed: int) -> None:
    """Reject a document whose `what` reads `got` where this version fixes `fixed`."""
    if got != fixed:
        raise ValueError(f"{what} is {got!r}, expected {fixed}")


def _count(what: str, value) -> int:
    """`value`, which must be an integer that an int64 count array holds,
    at least 0; anything else is a ValueError naming `what`."""
    if type(value) is not int or not 0 <= value < 2**63:
        raise ValueError(f"{what} holds {value!r}, expected an integer count in [0, 2**63)")
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


@_malformed("statistics document")
def _stats_from_doc(doc: dict) -> CooccurrenceModel:
    _expect("k_dist", doc["k_dist"], K_DIST)
    builder = StatsBuilder.for_classes(doc["classes"])
    row = _ClassRows((c, i) for i, c in enumerate(builder.classes))
    builder.images = _count("images", doc["images"])
    for c, n in doc["class_image_counts"].items():
        builder.class_images[row[int(c)]] = _count(f"class_image_counts of {c}", n)
    for a, b, n in doc["presence_counts"]:
        n = _count(f"presence_counts of ({a}, {b})", n)
        builder.presence[row[a], row[b]] = builder.presence[row[b], row[a]] = n
    for name in ("position", "proximity", "distance"):
        counts = getattr(builder, name)
        for a, b, v in doc[f"{name}_counts"]:
            what = f"{name}_counts of ({a}, {b})"
            _expect(f"length of {what}", len(v), counts.shape[2])
            counts[row[a], row[b]] = [_count(what, n) for n in v]
    for a, b, obs in doc["size_obs"]:
        what = f"size_obs of ({a}, {b})"
        builder.size_obs[row[a], row[b]] = Counter(
            {(_count(what, pa), _count(what, pb)): _count(what, n) for pa, pb, n in obs}
        )
    return finalize(builder, alpha=float(doc["alpha"]))


def _finite(what: str, values) -> tuple[float, ...]:
    """`values` as floats; one that is NaN or infinite is a ValueError."""
    out = tuple(map(float, values))
    for v in out:
        if not math.isfinite(v):
            raise ValueError(f"{what} holds {v!r}, expected finite numbers")
    return out


@_malformed("linear model document")
def _model_from_doc(doc: dict) -> LinearModel:
    for key in ("weights", "feature_means", "feature_stds"):
        _expect(f"length of {key}", len(doc[key]), N_FEATURES)
    stds = _finite("feature_stds", doc["feature_stds"])
    if min(stds) <= 0.0:
        raise ValueError(f"feature_stds holds {min(stds)!r}, expected values above 0")
    hp = doc["hyperparams"]
    return LinearModel(
        weights=_finite("weights", doc["weights"]),
        bias=_finite("bias", [doc["bias"]])[0],
        feature_means=_finite("feature_means", doc["feature_means"]),
        feature_stds=stds,
        hyperparams=Hyperparams(
            learning_rate=float(hp["learning_rate"]),
            epochs=int(hp["epochs"]),
            l2_lambda=float(hp["l2_lambda"]),
        ),
        seed=int(doc["seed"]),
        n_pos=int(doc["n_pos"]),
        n_neg=int(doc["n_neg"]),
        context_label=doc["context_label"],
    )


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
    protos = doc["prototypes"]
    for k, v in protos.items():
        _expect(f"length of the class {k} prototype", len(v), SHAPE_BINS)
        _finite(f"the class {k} prototype", v)
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
            "aggregation_mode": obj.aggregation_mode,
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

    A resolution or vector length other than this version's fixed one
    (shape samples and bins, distance bins, feature width), a vector
    entry that is not a number, a linear model whose weights, bias or
    feature means are not finite or whose feature stds are not finite
    and above 0, a shape prototype that is not finite, or prototypes for
    other classes than those with images, is a FormatError.
    """
    doc = _read_document(path, "model document")
    with _malformed(path):
        kind = doc.get("kind")
        if kind == "cooccurrence_model":
            return _stats_from_doc(doc)
        if kind == "verifier_registry":
            _expect("shape_samples", doc["shape_samples"], SHAPE_SAMPLES)
            _expect("shape_bins", doc["shape_bins"], SHAPE_BINS)
            return VerifierRegistry(
                context_attribute=doc["context_attribute"],
                aggregation_mode=doc["aggregation_mode"],
                min_area=int(doc["min_area"]),
                global_detector=_detector_from_doc(doc["global"]),
                models={v: _detector_from_doc(c) for v, c in doc["contexts"].items()},
            )
        raise FormatError(f"unknown document kind {kind!r}")
