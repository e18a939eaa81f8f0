"""Outside-in spans around the layer functions `oodcf.cli` calls by name.

`Tracer.install(oodcf.cli)` replaces each name in TARGETS, in the cli
module (or on the class it names there), with a wrapper that records one
span per call: layer name, parent span, start, end, and counts read from
the call's arguments and return value. A name the module no longer has is
recorded as absent and left alone, so the trace survives refactors that
rename or remove a layer function.

Only a traced child process installs the tracer; untraced ones never
import this module. The benchmark process uses the aggregation helpers.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

# (span name, name in oodcf.cli, or "Class.method" on a class it imports)
TARGETS = (
    ("dataset.load", "load_csv"),
    ("dataset.load", "make_toy"),
    ("dataset.load", "apply_ood_rule"),
    ("dataset.split", "split"),
    ("projection.fit", "fit_projection"),
    ("projection.project", "project"),
    ("partition.search", "search_partition"),
    ("density.fit", "fit_partition_density"),
    ("density.score", "ood_scores"),
    ("density.score", "MahalanobisScorer.score"),
    ("density.score", "MarginalMahalanobisScorer.score"),
    ("density.baseline_fit", "MahalanobisScorer.fit"),
    ("density.baseline_fit", "MarginalMahalanobisScorer.fit"),
    ("counterfactual", "batch_generate"),          # named per variant
    ("counterfactual.cfi_train", "train_softmax_classifier"),
    ("counterfactual.select_target", "select_target"),
    ("report.evaluate", "evaluate_run"),
    ("report.auroc", "auroc"),
    ("cli.write", "write_csv"),
    ("cli.write", "write_json"),
    ("cli.write", "save_projection"),
    ("svgplot.write", "ScatterPlot.write"),
)

VARIANTS = ("full", "sg", "sn", "sd", "cfi")


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _batch_variant(args, kwargs):
    return str(_arg(args, kwargs, 1, "variant", "full"))


def _batch_counts(args, kwargs, results):
    """rows, descent steps and rows that stopped before max_iter."""
    variant = _batch_variant(args, kwargs)
    cfg = kwargs.get("cfi_cfg") if variant == "cfi" else kwargs.get("cfg")
    max_iter = getattr(cfg, "max_iter", None)
    rows = steps = early = 0
    for res in results:
        rows += 1
        taken = getattr(res, "steps_taken", None) or {}
        steps += sum(int(v) for v in taken.values())
        if (getattr(res, "error", None) is None and max_iter is not None
                and all(int(v) < max_iter for v in taken.values())):
            early += 1
    return {"rows": rows, "steps": steps, "early_stop": early}


def _search_counts(args, kwargs, part):
    k = len(getattr(part, "z_d", ())) + len(getattr(part, "z_n", ()))
    return {"subsets": 2 ** k - 2}  # every non-empty proper subset of k latents


def _auroc_counts(args, kwargs, _):
    pos, neg = _arg(args, kwargs, 0, "positive_scores"), _arg(args, kwargs, 1, "negative_scores")
    return {"n": len(pos) + len(neg)}


COUNTERS = {
    "search_partition": _search_counts,
    "batch_generate": _batch_counts,
    "auroc": _auroc_counts,
}
NAMERS = {
    "batch_generate": lambda args, kwargs: f"counterfactual.{_batch_variant(args, kwargs)}",
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, span_name, target, fn):
        namer = NAMERS.get(target.rsplit(".", 1)[-1])
        counter = COUNTERS.get(target.rsplit(".", 1)[-1])

        def wrapper(*args, **kwargs):
            span = {"name": namer(args, kwargs) if namer else span_name,
                    "parent": self._stack[-1] if self._stack else -1,
                    "counts": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter:
                span["counts"] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self, module):
        for span_name, target in TARGETS:
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            try:
                raw = inspect.getattr_static(owner, attr) if owner is not None else None
            except AttributeError:
                raw = None
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(span_name, target, raw.__func__)))
            elif callable(raw):
                setattr(owner, attr, self._wrap(span_name, target, raw))
            else:
                self.absent.append(target)


# -- aggregation (parent side) -------------------------------------------------

def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_table(spans: list[dict]) -> dict:
    """name -> {"calls", "total_s", "self_s", counts...} summed over spans."""
    table: dict = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, self_times(spans)):
        row = table[s["name"]]
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own
        for key, value in s["counts"].items():
            row[key] += value
    return {name: dict(row) for name, row in table.items()}


def layer_metrics(spans: list[dict], wall: float, absent: list[str]) -> dict:
    """The per-layer metrics of one traced run whose main calls took `wall`."""
    table = layer_table(spans)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def count(name, key):
        return int(table.get(name, {}).get(key, 0))

    m = {}
    search_s, subsets = total("partition.search"), count("partition.search", "subsets")
    m["partition.search_s"] = search_s
    m["partition.subsets"] = subsets
    m["partition.us_per_subset"] = 1e6 * search_s / subsets if subsets else 0.0
    for v in VARIANTS:
        name = f"counterfactual.{v}"
        steps, rows = count(name, "steps"), count(name, "rows")
        m[f"{name}.s"] = total(name)
        m[f"{name}.us_per_step"] = 1e6 * total(name) / steps if steps else 0.0
        m[f"{name}.steps"] = steps
        m[f"{name}.early_stop_frac"] = count(name, "early_stop") / rows if rows else 0.0
    m["counterfactual.cfi_train_s"] = total("counterfactual.cfi_train")
    m["counterfactual.select_target_s"] = total("counterfactual.select_target")
    m["report.auroc_s"] = total("report.auroc")
    m["report.auroc_n"] = count("report.auroc", "n")
    m["report.evaluate_s"] = total("report.evaluate")
    for name in ("density.fit", "density.score", "density.baseline_fit",
                 "dataset.load", "dataset.split", "projection.fit",
                 "projection.project", "cli.write", "svgplot.write"):
        m[f"{name}_s"] = total(name)
    m["cli.self_s"] = wall - sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
    m["trace.absent_names"] = len(absent)
    return m
