"""Spans around the calls into each fairmiss module, recorded from outside.

``install(tracer)`` replaces each traced public function by a wrapper in every
fairmiss module that binds it, not only in the module that defines it: a name
imported by value (``classify`` imports ``encode_indicators`` and
``fair_resample``) is a separate lookup that wrapping the defining module
alone would miss. Methods are wrapped on
their class. ``install`` returns a function that puts every original back.

Spans stay in memory. Each has a name, a parent (the innermost open span), a
start and an end, and an optional count (rows, clusters) taken at the same boundary.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 at the top
    start: float
    end: float = 0.0
    count: int = 0


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, count=None):
        """Wrap ``fn`` so every call records a span. ``count(args, result)``
        gives the span's count. A ``{}`` in ``name`` is filled with the bound
        instance's ``name`` attribute (the imputer's name)."""
        by_instance = "{}" in name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name.format(args[0].name) if by_instance else name
            span = Span(span_name, self._open[-1] if self._open else -1,
                        time.perf_counter())
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.count = int(count(args, result))
            return result

        return traced

    def totals(self) -> dict:
        """name -> {"s", "self_s", "calls", "count"} summed over all spans."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child_time[sp.parent] += sp.end - sp.start
        out = {}
        for i, sp in enumerate(self.spans):
            t = out.setdefault(sp.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0})
            t["s"] += sp.end - sp.start
            t["self_s"] += sp.end - sp.start - child_time[i]
            t["calls"] += 1
            t["count"] += sp.count
        return out


def _rows(args, result):
    return args[0].n_samples


def _ds_rows(args, result):
    return args[1].n_samples


# (module, function, span name, count) for module-level functions
FUNCTIONS = (
    ("data", "load_csv", "data.load_csv", None),
    ("data", "split_train_test", "data.split_train_test", None),
    ("data", "fair_resample", "data.fair_resample", None),
    ("simulate", "gen_synthetic", "simulate.gen_synthetic", None),
    ("simulate", "inject_missing", "simulate.inject_missing", None),
    ("encode", "encode_indicators", "encode.encode_indicators", None),
    ("encode", "encode_plain", "encode.encode_plain", None),
    ("encode", "cluster_missing_patterns", "encode.cluster_missing_patterns",
     lambda args, result: result.n_clusters),
    ("classify", "train_intervention", "classify.train_intervention", _rows),
    ("classify", "postprocess_eqodds", "classify.postprocess_eqodds", None),
    ("classify", "apply_postprocess", "classify.apply_postprocess", None),
    ("classify", "train_fair_bagging", "classify.train_fair_bagging", None),
    ("classify", "predict_dataset", "classify.predict_dataset", None),
    ("metrics", "accuracy", "metrics.accuracy", None),
    ("metrics", "group_rates", "metrics.group_rates", None),
    ("metrics", "disparity", "metrics.disparity", None),
    ("metrics", "pareto_frontier", "metrics.pareto_frontier", None),
    ("harness", "fit_pipeline", "harness.fit_pipeline", None),
    ("harness", "evaluate_pipeline", "harness.evaluate_pipeline", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
)

# (module, class, method, span name, count); "{}" is the imputer's name
METHODS = (
    ("data", "FeatureScaler", "fit", "data.FeatureScaler.fit", None),
    ("data", "FeatureScaler", "transform", "data.FeatureScaler.transform", None),
    ("encode", "AffineEncoder", "fit", "encode.AffineEncoder.fit", None),
    ("encode", "AffineEncoder", "transform", "encode.AffineEncoder.transform", None),
    ("encode", "ClusterPartition", "assign_dataset",
     "encode.ClusterPartition.assign_dataset", None),
    ("impute", "Imputer", "fit", "impute.{}.fit", None),
    ("impute", "Imputer", "transform", "impute.{}.transform", _ds_rows),
)


def install(tracer: Tracer):
    """Wrap every traced function and method; returns the undo function."""
    import fairmiss  # noqa: F401  (loads every submodule)

    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "fairmiss" or n.startswith("fairmiss.")) and m is not None]
    undo = []
    for mod_name, fn_name, span_name, count in FUNCTIONS:
        original = getattr(sys.modules[f"fairmiss.{mod_name}"], fn_name)
        wrapper = tracer.wrap(span_name, original, count)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
    for mod_name, cls_name, meth, span_name, count in METHODS:
        owner = getattr(sys.modules[f"fairmiss.{mod_name}"], cls_name)
        # wrap the method on the base and on every subclass overriding it
        classes = [owner] + [c for c in _subclasses(owner) if meth in vars(c)]
        for cls in classes:
            original = vars(cls)[meth]
            setattr(cls, meth, tracer.wrap(span_name, original, count))
            undo.append((cls, meth, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
