"""In-memory span tracing around calls into scenecheck's public functions.

The benchmark wraps each traced function at every name a scenecheck
module binds it to (for example `scenecheck.verifier.extract_objects`
and `scenecheck.corpus.extract_objects`), so calls between modules are
seen without editing the program.  A span records name, start, end, the
index of its parent span and the operation it belongs to; an operation
is one root span (one image on the verify workloads, one CLI stage on
the experiment).  Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
from scenecheck.verifier import GLOBAL_LABEL

from metrics import LAYER_METRICS

SETUP_SPAN = "bench.setup"


def _grid_key(grid, min_area) -> bytes:
    cells = np.asarray(grid.cells, dtype=np.int64).tobytes()
    return hashlib.blake2b(
        cells + f"|{grid.height}x{grid.width}|{min_area}".encode(), digest_size=16
    ).digest()


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_parse(tracer, args, kwargs, grid):
    tracer.counters["labelgrid.parse_label_grid.cells"] += grid.height * grid.width


def _count_extract(tracer, args, kwargs, objects):
    name = "labelgrid.extract_objects"
    tracer.counters[name + ".objects"] += len(objects)
    key = _grid_key(_arg(args, kwargs, 0, "grid"), _arg(args, kwargs, 1, "min_area"))
    tracer.counters[name + ".repeats"] += key in tracer.seen_grids
    tracer.seen_grids.add(key)


def _count_pairs(tracer, args, kwargs, relations):
    tracer.counters["relations.relations_for_objects.pairs"] += len(relations)


def _count_verify(tracer, args, kwargs, verdict):
    tracer.counters["verifier.verify.context"] += verdict.model_used != GLOBAL_LABEL


def _count_aggregate(tracer, args, kwargs, result):
    margins = _arg(args, kwargs, 0, "pair_scores")
    tracer.counters["verifier.aggregate.abstain"] += len(margins) == 0


def _count_sgd(tracer, args, kwargs, model):
    steps = (model.n_pos + model.n_neg) * model.hyperparams.epochs
    tracer.counters["verifier.train_linear.sgd_steps"] += steps


def _count_accumulate(tracer, args, kwargs, builder):
    tracer.counters["stats.accumulate.relations"] += len(_arg(args, kwargs, 2, "relations"))


def _count_bytes(name):
    def count(tracer, args, kwargs, result):
        tracer.counters[name + ".bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    return count


# (module, function or Class.method, counter run after each successful call)
TARGETS = (
    ("labelgrid", "parse_label_grid", _count_parse),
    ("labelgrid", "extract_objects", _count_extract),
    ("relations", "relations_for_objects", _count_pairs),
    ("relations", "shape_histogram", None),
    ("stats", "accumulate", _count_accumulate),
    ("stats", "finalize", None),
    ("context", "score_attributes", None),
    ("verifier", "featurize", None),
    ("verifier", "score", None),
    ("verifier", "aggregate", _count_aggregate),
    ("verifier", "train_linear", _count_sgd),
    ("verifier", "verify", _count_verify),
    ("corpus", "generate_contradiction", None),
    ("corpus", "Corpus.grid", None),
    ("corpus", "synth_corpus", None),
    ("corpus", "save_model", _count_bytes("corpus.save_model")),
    ("corpus", "load_model", _count_bytes("corpus.load_model")),
)


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.counters: dict[str, int] = defaultdict(int)
        self.seen_grids: set[bytes] = set()
        self._stack: list[int] = []
        self._op = -1
        self._restore: list = []

    def _open(self, name: str) -> int:
        if not self._stack:
            self._op += 1
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, 0, 0, parent, self._op])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter_ns()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._close(index)
                self.counters[name + ".failed"] += 1
                raise
            self._close(index)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every scenecheck binding of each target with a traced wrapper."""
        modules = [
            m for n, m in sys.modules.items() if n == "scenecheck" or n.startswith("scenecheck.")
        ]
        for layer, attr, count in TARGETS:
            module = sys.modules[f"scenecheck.{layer}"]
            name = f"{layer}.{attr}"
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._bind(owner, method, original, self.wrap(name, original, count))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, original, wrapped)

    def _bind(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, float]:
    """Seconds per span name: each span's duration minus what its children cover."""
    children: dict[int, list] = defaultdict(list)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, int] = defaultdict(int)
    for index, (name, start, end, _parent, _op) in enumerate(spans):
        totals[name] += (end - start) - covered_ns(children[index], start, end)
    return {name: ns / 1e9 for name, ns in totals.items()}


def call_counts(spans) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span[0]] += 1
    return counts


def op_seconds(spans) -> float:
    """Total duration of the root spans that are operations (set-up excluded)."""
    return sum(
        (end - start) / 1e9
        for name, start, end, parent, _op in spans
        if parent < 0 and name != SETUP_SPAN
    )


_PAIR_LAYERS = (
    "relations.relations_for_objects",
    "verifier.featurize",
    "verifier.score",
)


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every LAYER_METRICS value for one traced pass.

    `untraced_s` and `traced_s` are the wall times of the same work with
    tracing off and on, the first rescaled to the host's speed during the
    second by the reference loop; their ratio gives the tracing overhead.
    """
    self_s = self_times(tracer.spans)
    calls = call_counts(tracer.spans)
    ops = op_seconds(tracer.spans)
    counters = tracer.counters

    def share(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    values = {
        "labelgrid.extract_objects.repeat_share": share(
            counters["labelgrid.extract_objects.repeats"], calls["labelgrid.extract_objects"]
        ),
        "verifier.verify.context_share": share(
            counters["verifier.verify.context"], calls["verifier.verify"]
        ),
        "verifier.aggregate.abstain_share": share(
            counters["verifier.aggregate.abstain"], calls["verifier.aggregate"]
        ),
        "cli.stages.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
        "trace.labelgrid_share": share(
            sum(v for k, v in self_s.items() if k.startswith("labelgrid.")), ops
        ),
        "trace.pair_share": share(sum(self_s.get(k, 0.0) for k in _PAIR_LAYERS), ops),
        "trace.overhead_share": traced_s / untraced_s - 1.0,
    }
    for metric, _unit, _better in LAYER_METRICS:
        if metric in values:
            continue
        function, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = calls.get(function, 0)
        elif field == "self_s":
            values[metric] = self_s.get(function, 0.0)
        else:
            values[metric] = counters.get(metric, 0)
    return values
