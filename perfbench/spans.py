"""Spans around each layer's public entry points, and the per-layer metrics.

The traced run wraps the entry points where the program looks them up —
class attributes and the module globals its callers import — so spans nest
in the order the program really calls them.  Nothing in ``src/`` changes
and untraced runs carry no wrapper at all.  Spans live in memory and are
written out once, when the run ends.

Calls made inside worker processes cannot be seen from here; the
``query-mix`` workload therefore replays its request stream in-process
for the traced numbers (see ``wl_querymix``).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from repro.catalog import DecompositionCatalog
from repro.core.base import Decomposer
from repro.core.parallel import ParallelLogKDecomposer
from repro.hypergraph import Hypergraph
from repro.pipeline import engine as engine_module
from repro.pipeline.engine import ResultCache
from repro.query import workload as workload_module
from repro.query.columnar import PlanExecutor
from repro.query.sqlgen import SQLExecutor


class SpanRecorder:
    """Collects ``(id, parent, request, name, start, end)`` spans and counters.

    A span's parent is the innermost open span of the same thread.  Work
    that a service worker thread does for a request has no open span on its
    own thread, so it is parented to the root span of the request in
    flight: the workloads keep one request in flight per recorder while
    tracing, which makes that attribution exact.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, object, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request: tuple[object, int | None] | None = None
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        request = self._request
        span_id = next(self._ids)
        parent = stack[-1] if stack else (request[1] if request else None)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, request[0] if request else None, name, start, end)
            )

    @contextmanager
    def request(self, request_id: object):
        """The root span of one client request; spans of every thread nest under it."""
        self._request = (request_id, None)
        try:
            with self.span("client.request") as span_id:
                self._request = (request_id, span_id)
                yield
        finally:
            self._request = None

    # ------------------------------------------------------------------ #
    # wrapping entry points at their use sites
    # ------------------------------------------------------------------ #
    def wrap(self, owner, attribute: str, name, hook=None) -> None:
        """Replace ``owner.attribute`` by a spanned wrapper.

        ``name`` is the span name, or a function of the call arguments
        returning it; ``hook(recorder, args, result)`` runs after the call,
        outside the span, to record counts from the returned value.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name(args) if callable(name) else name):
                result = original(*args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics are built from."""
        self.wrap(Hypergraph, "canonical_hash", "hypergraph.canonical_hash")
        self.wrap(engine_module, "simplify", "pipeline.simplify", _on_simplify)
        self.wrap(engine_module, "lift_decomposition", "pipeline.lift")
        self.wrap(ResultCache, "get", "pipeline.l1_get", _hit_counter("pipeline.l1"))
        self.wrap(DecompositionCatalog, "get", "catalog.get", _hit_counter("catalog"))
        self.wrap(DecompositionCatalog, "put", "catalog.put")
        self.wrap(Decomposer, "decompose_raw", "core.decompose_raw", _on_search)
        self.wrap(ParallelLogKDecomposer, "decompose_raw", "core.decompose_raw", _on_search)
        self.wrap(workload_module, "join_tree_from_decomposition", "decomp.jointree")
        self.wrap(workload_module, "compile_plan", "query.plan.compile", _on_compile)
        self.wrap(
            PlanExecutor,
            "execute",
            lambda args: f"query.columnar.execute.{args[1].mode.value}",
            _on_columnar,
        )
        self.wrap(SQLExecutor, "execute", "query.sqlgen.execute", _on_sql)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)``.

        Self time is a span's duration minus the time its child spans cover.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _span_id, parent, _request, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, _parent, _request, name, start, end in self.spans:
            entry = table[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += max(0.0, end - start - child_time.get(span_id, 0.0))
        return {name: (int(c), total, own) for name, (c, total, own) in table.items()}

    def dump(self, path: Path) -> None:
        fields = ("id", "parent", "request", "name", "start", "end")
        with open(path, "w") as handle:
            json.dump([dict(zip(fields, span)) for span in self.spans], handle)


# --------------------------------------------------------------------------- #
# hooks: counts taken from the values the entry points return
# --------------------------------------------------------------------------- #
def _on_simplify(recorder: SpanRecorder, args, trace) -> None:
    removed = trace.original.num_edges - trace.reduced.num_edges
    recorder.counters["pipeline.edges_removed"] += removed


def _hit_counter(prefix: str):
    def hook(recorder: SpanRecorder, args, result) -> None:
        recorder.counters[f"{prefix}.gets"] += 1
        recorder.counters[f"{prefix}.hits"] += result is not None

    return hook


def _on_search(recorder: SpanRecorder, args, result) -> None:
    stats = result.statistics
    counters = recorder.counters
    counters["core.searches"] += 1
    counters["core.timeouts"] += result.timed_out
    counters["core.recursive_calls"] += stats.recursive_calls
    counters["core.labels_tried"] += stats.labels_tried
    counters["core.max_depth"] = max(counters["core.max_depth"], stats.max_recursion_depth)
    counters["decomp.branches_pruned"] += stats.enum_branches_pruned
    counters["decomp.domination_skips"] += stats.enum_domination_skips
    counters["decomp.splitter_memo_hits"] += stats.splitter_memo_hits
    counters["decomp.splitter_memo_misses"] += stats.splitter_memo_misses


def _on_compile(recorder: SpanRecorder, args, plan) -> None:
    recorder.counters["query.plan.compiles"] += 1
    recorder.counters["query.plan.bags"] += len(plan.bags)
    recorder.counters["query.plan.semijoins"] += plan.semijoin_count


def _on_columnar(recorder: SpanRecorder, args, result) -> None:
    stats = result.statistics
    counters = recorder.counters
    counters["query.columnar.executions"] += 1
    counters["query.columnar.rows_materialised"] += stats.rows_materialised
    counters["query.columnar.bags_built"] += stats.bags_built
    counters["query.columnar.bags_reused"] += stats.bags_reused
    counters["query.columnar.indexes_built"] += stats.indexes_built
    counters["query.columnar.indexes_reused"] += stats.indexes_reused
    if result.answers is not None:
        counters["query.columnar.answers"] += 1
        counters["query.columnar.answer_rows"] += len(result.answers)


def _on_sql(recorder: SpanRecorder, args, result) -> None:
    if result.answers is not None:
        recorder.counters["query.sqlgen.answers"] += 1
        recorder.counters["query.sqlgen.answer_rows"] += len(result.answers)


# --------------------------------------------------------------------------- #
# the per-layer metrics
# --------------------------------------------------------------------------- #
#: ``name -> unit``, in report order.  Every traced run reports all of them;
#: a layer the workload does not exercise reads 0.
PER_LAYER_UNITS = {
    "hypergraph.hash_us": "us",
    "pipeline.simplify_ms": "ms",
    "pipeline.edges_removed": "count",
    "pipeline.l1_hit_frac": "ratio",
    "pipeline.lift_ms": "ms",
    "catalog.get_ms": "ms",
    "catalog.put_ms": "ms",
    "catalog.hit_frac": "ratio",
    "catalog.validate_rejects": "count",
    "catalog.bytes_per_entry": "B",
    "core.search_ms": "ms",
    "core.recursive_calls": "count",
    "core.max_depth": "count",
    "core.labels_tried": "count",
    "core.timeouts": "count",
    "core.parallel_speedup": "x",
    "decomp.branches_pruned": "count",
    "decomp.domination_skips": "count",
    "decomp.splitter_memo_hit_frac": "ratio",
    "decomp.jointree_ms": "ms",
    "query.plan.compile_ms": "ms",
    "query.plan.bags": "count",
    "query.plan.semijoins": "count",
    "query.columnar.exec_ms.boolean": "ms",
    "query.columnar.exec_ms.count": "ms",
    "query.columnar.exec_ms.enumerate": "ms",
    "query.columnar.rows_materialised": "count",
    "query.columnar.bags_reused_frac": "ratio",
    "query.columnar.indexes_reused_frac": "ratio",
    "query.columnar.answer_rows": "count",
    "query.sqlgen.exec_ms": "ms",
    "query.sqlgen.answer_rows": "count",
    "codec.encode_ms": "ms",
    "codec.decode_ms": "ms",
    "codec.answer_bytes": "B",
    "codec.request_bytes": "B",
    "service.overhead_ms": "ms",
    "service.computations": "count",
    "service.coalesced": "count",
    "service.failed": "count",
    "service.worker_respawns": "count",
    "client.p50_ms.boolean": "ms",
    "client.p50_ms.count": "ms",
    "client.p50_ms.enumerate": "ms",
    "client.failed_frac": "ratio",
    "trace.overhead_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(recorder: SpanRecorder, extra: dict[str, float]) -> dict[str, float]:
    """Derive every per-layer metric from the spans, counters and ``extra``.

    Times are mean self time per call; counts are per run, except the plan
    and answer sizes, which are per compiled plan and per answer.
    ``extra`` carries what the workload measured outside the spans
    (service counters, client latencies, codec sizes, tracing overhead).
    """
    c = recorder.counters
    table = recorder.by_name()

    def self_seconds(*names: str) -> float:
        return sum(table[name][2] for name in names if name in table)

    def mean_self_ms(*names: str) -> float:
        calls = sum(table[name][0] for name in names if name in table)
        return _ratio(1000.0 * self_seconds(*names), calls)

    values = {
        "hypergraph.hash_us": 1000.0 * mean_self_ms("hypergraph.canonical_hash"),
        "pipeline.simplify_ms": mean_self_ms("pipeline.simplify"),
        "pipeline.edges_removed": c["pipeline.edges_removed"],
        "pipeline.l1_hit_frac": _ratio(c["pipeline.l1.hits"], c["pipeline.l1.gets"]),
        "pipeline.lift_ms": mean_self_ms("pipeline.lift"),
        "catalog.get_ms": mean_self_ms("catalog.get"),
        "catalog.put_ms": mean_self_ms("catalog.put"),
        "catalog.hit_frac": _ratio(c["catalog.hits"], c["catalog.gets"]),
        "core.search_ms": mean_self_ms("core.decompose_raw"),
        "core.recursive_calls": c["core.recursive_calls"],
        "core.max_depth": c["core.max_depth"],
        "core.labels_tried": c["core.labels_tried"],
        "core.timeouts": c["core.timeouts"],
        "decomp.branches_pruned": c["decomp.branches_pruned"],
        "decomp.domination_skips": c["decomp.domination_skips"],
        "decomp.splitter_memo_hit_frac": _ratio(
            c["decomp.splitter_memo_hits"],
            c["decomp.splitter_memo_hits"] + c["decomp.splitter_memo_misses"],
        ),
        "decomp.jointree_ms": mean_self_ms("decomp.jointree"),
        "query.plan.compile_ms": mean_self_ms("query.plan.compile"),
        "query.plan.bags": _ratio(c["query.plan.bags"], c["query.plan.compiles"]),
        "query.plan.semijoins": _ratio(c["query.plan.semijoins"], c["query.plan.compiles"]),
        "query.columnar.rows_materialised": c["query.columnar.rows_materialised"],
        "query.columnar.bags_reused_frac": _ratio(
            c["query.columnar.bags_reused"],
            c["query.columnar.bags_reused"] + c["query.columnar.bags_built"],
        ),
        "query.columnar.indexes_reused_frac": _ratio(
            c["query.columnar.indexes_reused"],
            c["query.columnar.indexes_reused"] + c["query.columnar.indexes_built"],
        ),
        "query.columnar.answer_rows": _ratio(
            c["query.columnar.answer_rows"], c["query.columnar.answers"]
        ),
        "query.sqlgen.exec_ms": mean_self_ms("query.sqlgen.execute"),
        "query.sqlgen.answer_rows": _ratio(
            c["query.sqlgen.answer_rows"], c["query.sqlgen.answers"]
        ),
        "codec.encode_ms": _ratio(
            1000.0 * self_seconds("codec.request_encode", "codec.answer_encode"),
            c["codec.requests"],
        ),
        "codec.decode_ms": _ratio(
            1000.0 * self_seconds("codec.request_decode", "codec.answer_decode"),
            c["codec.requests"],
        ),
        "codec.answer_bytes": _ratio(c["codec.answer_bytes"], c["codec.requests"]),
        "codec.request_bytes": _ratio(c["codec.request_bytes"], c["codec.requests"]),
    }
    for mode in ("boolean", "count", "enumerate"):
        values[f"query.columnar.exec_ms.{mode}"] = mean_self_ms(
            f"query.columnar.execute.{mode}"
        )
    for name in PER_LAYER_UNITS:
        values.setdefault(name, 0.0)
    values.update(extra)
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"unregistered per-layer metrics: {sorted(unknown)}")
    return {name: values[name] for name in PER_LAYER_UNITS}
