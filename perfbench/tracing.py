"""In-memory span tracing of cohomone's public functions for the traced run.

A span records ``(name, start, end, parent, op)``: the wrapped function's
metric name, ``time.perf_counter`` bounds, the index of the enclosing span
(-1 at top level) and the id of the benchmark operation it belongs to.
Spans stay in memory until the run ends and are then written out once.

Wrappers are installed from the benchmark's own files: every module-level
binding of a wrapped function in every loaded ``cohomone`` module is
replaced (``cohomone.diagram.sphere_quotient`` and
``cohomone.lie_catalog.sphere_quotient`` are the same function), methods
are replaced on their class, and :meth:`Tracer.restore` puts every
original binding back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# (module, qualified name, metric name, measure) for every traced function.
# ``measure(counters, metric, args, result)`` adds work counts after the call
# returns, outside the span.  A target missing from the program is skipped,
# so its metrics read 0.


def _count_len(suffix: str, of: Callable) -> Callable:
    def measure(counters, metric, args, result):
        counters[f"{metric}.{suffix}"] += len(of(args, result))
    return measure


def _count_matches(counters, metric, args, result):
    counters[f"{metric}.matched"] += result is not None


def _count_scanned(counters, metric, args, result):
    embeddings = type(args[0]).embeddings
    embeddings = getattr(embeddings, "__wrapped__", embeddings)  # uncounted when traced
    counters[f"{metric}.scanned"] += len(embeddings(args[0]))


SPAN_TARGETS: tuple = (
    ("cohomone.lie_catalog", "transitive_sphere_pairs", "lie_catalog.transitive_sphere_pairs",
     _count_len("rows_built", lambda a, r: r)),
    ("cohomone.lie_catalog", "sphere_quotient", "lie_catalog.sphere_quotient", _count_matches),
    ("cohomone.lie_catalog", "spheres_acted_on", "lie_catalog.spheres_acted_on", None),
    ("cohomone.lie_catalog", "parse_group", "lie_catalog.parse_group", None),
    ("cohomone.rational_homotopy", "hilbert_series", "rational_homotopy.hilbert_series", None),
    ("cohomone.rational_homotopy", "quotient_homotopy", "rational_homotopy.quotient_homotopy", None),
    ("cohomone.polynomial", "IntegerPolynomial.divmod", "polynomial.IntegerPolynomial.divmod",
     _count_len("coeffs_in", lambda a, r: a[0].coefficients)),
    ("cohomone.polynomial", "IntegerPolynomial.__mul__", "polynomial.IntegerPolynomial.mul", None),
    ("cohomone.brieskorn", "delta_poly", "brieskorn.delta_poly",
     _count_len("coeffs_out", lambda a, r: r.coefficients)),
    ("cohomone.diagram", "validate", "diagram.validate", None),
    ("cohomone.diagram", "equivalent", "diagram.equivalent", None),
    ("cohomone.diagram", "primitivity", "diagram.primitivity", None),
    ("cohomone.diagram", "mv_feasible", "diagram.mv_feasible",
     _count_len("degrees_scanned", lambda a, r: r.rank_profile)),
    ("cohomone.classification", "classify_diagram", "classification.classify_diagram", None),
    ("cohomone.classification", "enumerate_corank2", "classification.enumerate_corank2", None),
    ("cohomone.classification", "table3_filter", "classification.table3_filter", None),
    ("cohomone.catalog", "Catalog.register", "catalog.Catalog.register", None),
    ("cohomone.catalog", "Catalog.lattice_for", "catalog.Catalog.lattice_for", _count_scanned),
    ("cohomone.catalog", "Catalog.embeddings", "catalog.Catalog.embeddings", None),
    ("cohomone.verify", "build_report", "verify.build_report", None),
    ("cohomone.cli", "run", "cli.run", None),
)

# Constructions too frequent for a span each: counted only.
COUNT_TARGETS: tuple = (
    ("cohomone.lie_catalog", "GroupType.__init__", "lie_catalog.GroupType.constructed"),
)


def self_times(spans) -> dict[str, list]:
    """``{name: [calls, self seconds]}``; self time is a span's duration minus
    the part of it that its child spans cover."""
    children: dict[int, list] = defaultdict(list)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for index, (name, start, end, _parent, _op) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        entry = out[name]
        entry[0] += 1
        entry[1] += (end - start) - covered
    return dict(out)


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, original) or None when the program lacks the target."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def end(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, metric: str, fn: Callable, measure) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self.begin(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(record)
            if measure is not None:
                measure(self.counters, metric, args, result)
            return result
        return wrapper

    def _count_wrapper(self, metric: str, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        plan = []  # resolve every target before any binding changes
        for module_name, qualname, metric, measure in SPAN_TARGETS:
            found = _resolve(module_name, qualname)
            if found:
                plan.append((found, self._span_wrapper(metric, found[2], measure)))
        for module_name, qualname, metric in COUNT_TARGETS:
            found = _resolve(module_name, qualname)
            if found:
                plan.append((found, self._count_wrapper(metric, found[2])))
        for (owner, attr, original), wrapper in plan:
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "cohomone" or name.startswith("cohomone.")):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh,
                      separators=(",", ":"))
