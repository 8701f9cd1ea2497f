"""Layer spans for the traced run, recorded from outside ``src/``.

Server side, :func:`install` wraps the public entry point of each layer
(listed in :data:`LAYER_CALLS`) before the daemon starts.  A wrapper
records one span: layer, call, start, end, its own id, the id of the
span that caused it, the request id and a small per-call note.  The
request id is read from the JSON body in ``ObsServer.dispatch`` (the
server itself ignores it) and follows the request onto the worker
thread through a wrapped ``EstimationService.execute``.  Spans are kept
in memory and written out by :meth:`Tracer.dump` at shutdown.

Client side, :func:`fold_layers` joins the spans to the load generator's
timings by request id and derives self times and the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence

# (layer, call, "module:attribute") — every wrapped public call.
LAYER_CALLS = (
    ("obs.server", "dispatch", "repro.obs.server:ObsServer.dispatch"),
    ("serve", "estimate", "repro.serve:EstimationService.estimate"),
    ("serve", "optimize", "repro.serve:EstimationService.optimize"),
    ("serve", "swap", "repro.serve:EstimationService.swap"),
    ("sql.parser", "parse_select", "repro.sql.parser:parse_select"),
    ("master.federation", "explain", "repro.master.federation:IntelliSphere.explain"),
    (
        "master.optimizer",
        "optimize",
        "repro.master.optimizer:PlacementOptimizer.optimize",
    ),
    ("master.querygrid", "estimate", "repro.master.querygrid:QueryGrid.estimate"),
    (
        "core.costing",
        "estimate_plan",
        "repro.core.costing:CostEstimationModule.estimate_plan",
    ),
    (
        "core.costing",
        "estimate_batch",
        "repro.core.costing:CostEstimationModule.estimate_batch",
    ),
    ("core.costing", "swap", "repro.core.costing:CostEstimationModule.swap_estimator"),
    ("core.costing", "derive", "repro.core.costing:derive_operator_stats"),
    (
        "core.estimate_cache",
        "key_for",
        "repro.core.estimate_cache:EstimateCache.key_for",
    ),
    ("core.estimate_cache", "get", "repro.core.estimate_cache:EstimateCache.get"),
    ("core.estimate_cache", "put", "repro.core.estimate_cache:EstimateCache.put"),
    ("core.gate", "acquire_read", "repro.core.gate:ReadWriteGate.acquire_read"),
    ("core.gate", "acquire_write", "repro.core.gate:ReadWriteGate.acquire_write"),
    (
        "core.estimator",
        "estimate_batch",
        "repro.core.estimator:HybridEstimator.estimate_batch",
    ),
)


def _note(layer: str, call: str, result: object) -> object:
    """The per-call detail a span keeps (small, JSON-friendly)."""
    if call == "get":
        return result is not None  # a cache hit
    if layer == "core.estimator":
        # [approach of the batch, items, items answered by the remedy]
        approach = result[0].approach.value if result else ""
        return [approach, len(result), sum(e.used_remedy for e in result)]
    if layer == "core.costing" and call == "estimate_batch":
        return len(result)  # items requested, hits and misses alike
    return None


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _context(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.rid = [0], None
        return local

    def wrap(self, layer: str, call: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._context()
            span_id, parent = next(tracer._ids), local.stack[-1]
            local.stack.append(span_id)
            start = time.perf_counter()
            note = None
            try:
                result = fn(*args, **kwargs)
                note = _note(layer, call, result)
                return result
            finally:
                end = time.perf_counter()
                local.stack.pop()
                tracer.spans.append(
                    (layer, call, start, end, span_id, parent, local.rid, note)
                )

        return traced

    def wrap_dispatch(self, fn: Callable) -> Callable:
        """``ObsServer.dispatch``: read the request id, then time it."""
        timed = self.wrap("obs.server", "dispatch", fn)
        tracer = self

        @functools.wraps(fn)
        def dispatch(server, request):
            local = tracer._context()
            local.stack, local.rid = [0], _request_id(request.body)
            return timed(server, request)

        return dispatch

    def wrap_execute(self, fn: Callable) -> Callable:
        """``EstimationService.execute``: carry the request id and the
        calling span onto the worker thread, and time the work body."""
        tracer = self

        @functools.wraps(fn)
        def execute(service, work, *args, **kwargs):
            local = tracer._context()
            rid, parent = local.rid, local.stack[-1]
            timed_work = tracer.wrap("serve", "work", work)

            def adopted():
                worker = tracer._context()
                worker.stack, worker.rid = [parent], rid
                return timed_work()

            return fn(service, adopted, *args, **kwargs)

        return execute

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _request_id(body: bytes) -> Optional[int]:
    if not body:
        return None
    try:
        rid = json.loads(body).get("rid")
    except (ValueError, AttributeError):
        return None
    return rid if isinstance(rid, int) else None


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = sys.modules[module_name]
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute


def install() -> Tracer:
    """Wrap every call in :data:`LAYER_CALLS`; returns the tracer.

    A module-level function is also replaced in every loaded ``repro``
    module that imported it by name, so call sites see the wrapper.
    """
    import repro.serve  # noqa: F401 — load every module named above

    tracer = Tracer()
    for layer, call, target in LAYER_CALLS:
        owner, attribute = _resolve(target)
        original = getattr(owner, attribute)
        if call == "dispatch":
            wrapped = tracer.wrap_dispatch(original)
        else:
            wrapped = tracer.wrap(layer, call, original)
        if isinstance(owner, type):
            setattr(owner, attribute, wrapped)
            continue
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("repro") and (
                getattr(module, attribute, None) is original
            ):
                setattr(module, attribute, wrapped)
    from repro.serve import EstimationService

    EstimationService.execute = tracer.wrap_execute(EstimationService.execute)
    return tracer


# ----------------------------------------------------------------------
# Client side: folding spans into per-layer metrics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _covered(intervals: List[tuple]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Iterable[tuple]) -> Dict[int, float]:
    """Span id → duration minus the time its child spans cover."""
    spans = list(spans)
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        children[span[5]].append((span[2], span[3]))
    return {
        span[4]: (span[3] - span[2]) - _covered(children.get(span[4], []))
        for span in spans
    }


def fold_layers(spans, closed, opened, layers) -> Dict[str, tuple]:
    """Per-layer metrics, ``{name: (value, unit)}``, of one traced run.

    ``closed`` and ``opened`` are the load generator's samples; only
    spans of their requests count (warm-up and scrapes are dropped).
    """
    samples = closed + opened
    rids = {s.rid for s in samples}
    spans = [span for span in spans if span[6] in rids]
    own = self_times(spans)
    calls: Dict[tuple, List[tuple]] = defaultdict(list)
    for span in spans:
        calls[span[0], span[1]].append(span)

    def duration(span) -> float:
        return span[3] - span[2]

    def us(layer: str, call: str) -> List[float]:
        return [duration(span) * 1e6 for span in calls[layer, call]]

    dispatch = {span[6]: duration(span) for span in calls["obs.server", "dispatch"]}
    traced = [s for s in samples if s.rid in dispatch]
    served = [s for s in traced if s.request.route != "/swap"]
    per_req = max(1, len(served))
    optimized = max(1, sum(1 for s in served if s.request.route == "/optimize"))

    def wire(phase: str) -> List[float]:
        return [(s.wire - dispatch[s.rid]) * 1e6 for s in served if s.phase == phase]

    work = {span[5]: duration(span) for span in calls["serve", "work"]}
    handoff = [
        (duration(span) - work.get(span[4], 0.0)) * 1e6
        for call in ("estimate", "optimize")
        for span in calls["serve", call]
    ]
    batches = [span for span in calls["core.estimator", "estimate_batch"] if span[7][1]]

    def item_us(approach: Optional[str]) -> List[float]:
        return [
            duration(span) / span[7][1] * 1e6
            for span in batches
            if approach is None or span[7][0] == approach
        ]

    items = sum(span[7][1] for span in batches)
    # Refill cost of a swap: cache misses from its end to the next swap
    # (swaps are sent in the closed phase only, so the last one's window
    # closes with that phase).
    swaps = sorted(calls["core.costing", "swap"], key=lambda span: span[2])
    closed_end = max((s.done for s in closed), default=0.0)
    bounds = [span[2] for span in swaps[1:]] + [closed_end]
    misses = [
        span[2] for span in calls["core.estimate_cache", "get"] if span[7] is False
    ]
    refill = [
        sum(1 for t in misses if swap[3] <= t < bound)
        for swap, bound in zip(swaps, bounds)
    ]
    self_by_layer: Dict[str, float] = defaultdict(float)
    for span in spans:
        self_by_layer[span[0]] += own[span[4]]
    self_by_layer["http"] = sum(s.wire - dispatch[s.rid] for s in traced)
    total = sum(s.wire for s in traced) or 1.0

    metrics = {
        "http.wire_us_p50": (percentile(wire("closed"), 50), "us"),
        "http.wire_us_p99": (percentile(wire("closed"), 99), "us"),
        "http.open_wire_us_p50": (percentile(wire("open"), 50), "us"),
        "obs.server.self_us_p50": (
            percentile(
                [own[span[4]] * 1e6 for span in calls["obs.server", "dispatch"]], 50
            ),
            "us",
        ),
        "serve.handoff_us_p50": (percentile(handoff, 50), "us"),
        "serve.handoff_us_p99": (percentile(handoff, 99), "us"),
        "sql.parser.us_p50": (percentile(us("sql.parser", "parse_select"), 50), "us"),
        "sql.parser.calls_per_req": (
            len(calls["sql.parser", "parse_select"]) / per_req, "count"
        ),
        "core.costing.derive_us_p50": (
            percentile(us("core.costing", "derive"), 50), "us"
        ),
        "core.costing.derive_calls_per_req": (
            len(calls["core.costing", "derive"]) / per_req, "count"
        ),
        "core.estimate_cache.key_us_p50": (
            percentile(us("core.estimate_cache", "key_for"), 50), "us"
        ),
        "core.estimate_cache.lookup_us_p50": (
            percentile(us("core.estimate_cache", "get"), 50), "us"
        ),
        "core.gate.read_wait_us_p99": (
            percentile(us("core.gate", "acquire_read"), 99), "us"
        ),
        "core.gate.write_wait_ms_p99": (
            percentile(us("core.gate", "acquire_write"), 99) / 1000.0, "ms"
        ),
        "core.estimator.item_us_p50": (percentile(item_us(None), 50), "us"),
        "core.estimator.subop_us_p50": (percentile(item_us("sub_op"), 50), "us"),
        "core.estimator.logical_us_p50": (percentile(item_us("logical_op"), 50), "us"),
        "core.estimator.items_per_req": (items / per_req, "count"),
        "core.remedy.ratio": (
            sum(span[7][2] for span in batches) / items if items else 0.0, "ratio"
        ),
        "master.optimizer.us_p50": (
            percentile(us("master.optimizer", "optimize"), 50), "us"
        ),
        "master.optimizer.estimates_per_req": (
            sum(span[7] for span in calls["core.costing", "estimate_batch"])
            / optimized,
            "count",
        ),
        "master.querygrid.calls_per_req": (
            len(calls["master.querygrid", "estimate"]) / optimized, "count"
        ),
        "core.costing.swap_ms_p50": (
            percentile(us("core.costing", "swap"), 50) / 1000.0, "ms"
        ),
        "core.costing.refill_misses_per_swap": (
            sum(refill) / len(refill) if refill else 0.0, "count"
        ),
    }
    for layer in layers:
        metrics[f"{layer}.self_share"] = (self_by_layer[layer] / total, "ratio")
    return metrics
