"""Outside-in tracing for the traced run: span and call-count wrappers that
replace the module attributes the program's callers look up.

Nothing under ``src/`` changes.  A caller such as ``decide_ultrametric``
finds ``build`` in its module's globals at call time, so replacing
``trisym.reconstruct.build`` with a wrapper lets every BUILD call be seen.
Hot tiny methods are only counted, in a separate pass, because a span
around each call would inflate the times of the spans around them.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable, Iterator

# (module, attribute path, span name).  Two entries for one attribute nest,
# the later one outside: a verification construction is both a
# ``maps.construct`` span and, around it, a ``reconstruct.verify`` span.
SPAN_TARGETS = (
    ("trisym.maps", "load_three_way_map", "cli.load"),
    ("trisym.reconstruct", "decide_ultrametric", "reconstruct.decide"),
    ("trisym.reconstruct", "decide_tree_map", "reconstruct.decide"),
    ("trisym.reconstruct", "triplets_from_three_way", "reconstruct.triplets"),
    ("trisym.reconstruct", "triplets_from_two_way", "reconstruct.triplets"),
    ("trisym.reconstruct", "build", "reconstruct.build"),
    ("trisym.reconstruct", "recover_two_way", "reconstruct.recover"),
    ("trisym.reconstruct", "is_fixed_cherry_map", "reconstruct.fixed_cherry"),
    ("trisym.reconstruct", "three_way_from_rooted", "maps.construct"),
    ("trisym.reconstruct", "three_way_from_unrooted", "maps.construct"),
    ("trisym.reconstruct", "three_way_from_rooted", "reconstruct.verify"),
    ("trisym.reconstruct", "three_way_from_unrooted", "reconstruct.verify"),
    ("trisym.maps", "ThreeWayMap.__eq__", "maps.eq"),
    ("trisym.reconstruct", "farris_project", "maps.farris_project"),
    ("trisym.reconstruct", "displayed_triplets", "trees.displayed_triplets"),
    ("trisym.reconstruct", "collapse_to_discriminating", "trees.collapse"),
    ("trisym.reconstruct", "farris_inverse", "farris.inverse"),
    ("trisym.conditions", "check_three_way_ultrametric", "conditions.check"),
    ("trisym.conditions", "check_tree_map", "conditions.check"),
    ("trisym.conditions", "representable_by_conditions", "conditions.check"),
    ("trisym.conditions", "pair_combination", "conditions.p1"),
    ("trisym.oracle", "oracle_representable_three_way", "oracle.search"),
    ("trisym.oracle", "three_way_from_rooted", "maps.construct"),
    ("trisym.oracle", "three_way_from_unrooted", "maps.construct"),
    ("trisym.maps", "three_way_from_rooted", "maps.construct"),
    ("trisym.maps", "three_way_from_unrooted", "maps.construct"),
)

# (module, attribute path, counter, what to count): "calls" counts calls,
# "size" adds len(result), "true" counts results that are True, "yields" counts
# the items a generator produces.
COUNT_TARGETS = (
    ("trisym.maps", "ThreeWayMap.value", "maps.value_calls", "calls"),
    ("trisym.symbols", "TripleMultiset.__eq__", "symbols.multiset_eq_calls", "calls"),
    ("trisym.symbols", "SymbolCombination.__init__", "symbols.combination_new_calls", "calls"),
    ("trisym.trees", "PhyloTree.lca", "trees.lca_calls", "calls"),
    ("trisym.trees", "PhyloTree.median", "trees.median_calls", "calls"),
    ("trisym.conditions", "pair_combination", "conditions.p1_calls", "calls"),
    ("trisym.conditions", "check_three_way_ultrametric", "conditions.violations_count", "size"),
    ("trisym.conditions", "check_tree_map", "conditions.violations_count", "size"),
    ("trisym.reconstruct", "triplets_from_three_way", "reconstruct.triplets_count", "size"),
    ("trisym.reconstruct", "triplets_from_two_way", "reconstruct.triplets_count", "size"),
    ("trisym.maps", "ThreeWayMap.__eq__", "reconstruct.verified", "calls"),
    ("trisym.maps", "ThreeWayMap.__eq__", "reconstruct.accepted", "true"),
    ("trisym.oracle", "enumerate_labelled_trees", "oracle.trees_enumerated", "yields"),
) + tuple(
    (module, fn, "maps.constructed_count", "calls")
    for module in ("trisym.maps", "trisym.reconstruct", "trisym.oracle")
    for fn in ("three_way_from_rooted", "three_way_from_unrooted")
)

ROOT_SPAN = "cli.main"

# Per-layer metrics, in report order.
TIME_METRICS = (
    "cli.load_ms", "cli.self_ms", "cli.process_start_ms",
    "reconstruct.decide_ms", "reconstruct.triplets_ms", "reconstruct.build_ms",
    "reconstruct.recover_ms", "reconstruct.fixed_cherry_ms", "reconstruct.verify_ms",
    "conditions.check_ms", "conditions.p1_ms", "conditions.p2p3_ms",
    "maps.construct_ms", "maps.farris_project_ms",
    "trees.displayed_triplets_ms", "trees.collapse_ms",
    "farris.inverse_ms", "oracle.search_ms",
)
COUNT_METRICS = (
    "reconstruct.triplets_count", "conditions.p1_calls", "conditions.violations_count",
    "symbols.combination_new_calls", "symbols.multiset_eq_calls",
    "maps.value_calls", "maps.constructed_count",
    "trees.lca_calls", "trees.median_calls", "oracle.trees_enumerated",
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


@contextmanager
def patched(targets: Iterable[tuple], make: Callable) -> Iterator[None]:
    """Replace each target attribute by ``make(entry, original)`` and put
    every original back on exit."""
    saved = []
    try:
        for entry in targets:
            owner, attr = _resolve(entry[0], entry[1])
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(entry, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """Records spans in memory: [name, start, end, parent index, request]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def installed(self):
        """Span wrappers on every SPAN_TARGETS attribute, for a ``with``."""
        return patched(SPAN_TARGETS, lambda entry, fn: self.wrap(entry[2], fn))


class CallCounter:
    """Exact per-run totals for COUNT_TARGETS."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, how: str, fn: Callable) -> Callable:
        counts = self.counts
        if how == "calls":
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        elif how == "size":
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[name] += len(result)
                return result
        elif how == "true":
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[name] += result is True
                return result
        elif how == "yields":
            def counted(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[name] += 1
                    yield item
        else:
            raise ValueError(f"unknown count kind {how!r}")
        return counted

    def installed(self):
        return patched(COUNT_TARGETS,
                       lambda entry, fn: self.wrap(entry[2], entry[3], fn))


def request_times(spans: list[list]) -> dict[object, dict[str, float]]:
    """Per request, milliseconds per span name (outermost spans of a name
    only, so nested calls are not counted twice) plus the root span's self
    time under ``cli.self``."""
    out: dict[object, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, request in spans:
        if parent is not None:
            child_time[parent] += end - start
        up = parent
        while up is not None and spans[up][0] != name:
            up = spans[up][3]
        if up is None:
            out[request][name] += (end - start) * 1e3
    for index, (name, start, end, _, request) in enumerate(spans):
        if name == ROOT_SPAN:
            out[request]["cli.self"] += (end - start - child_time[index]) * 1e3
    return out


def layer_metrics(times: dict[object, dict[str, float]],
                  process_start_ms: list[float]) -> dict[str, float]:
    """Median per request of each per-layer time, over the requests that
    entered the layer; 0 for a layer no request entered."""
    per_metric: dict[str, list[float]] = defaultdict(list)
    for spans in times.values():
        row = {name + "_ms": ms for name, ms in spans.items()}
        if "reconstruct.verify" in spans or "maps.eq" in spans:
            row["reconstruct.verify_ms"] = (spans.get("reconstruct.verify", 0.0)
                                            + spans.get("maps.eq", 0.0))
        if "conditions.check" in spans:
            row["conditions.p2p3_ms"] = (spans["conditions.check"]
                                         - spans.get("conditions.p1", 0.0))
        for metric, ms in row.items():
            per_metric[metric].append(ms)
    per_metric["cli.process_start_ms"] = list(process_start_ms)
    return {m: statistics.median(per_metric[m]) if per_metric[m] else 0.0
            for m in TIME_METRICS}


def count_metrics(counts: dict[str, int]) -> dict[str, float]:
    out = {m: counts.get(m, 0) for m in COUNT_METRICS}
    verified = counts.get("reconstruct.verified", 0)
    out["reconstruct.verify_accept_ratio"] = (
        counts.get("reconstruct.accepted", 0) / verified if verified else 0.0)
    return out
