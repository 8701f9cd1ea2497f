"""The concurrent cost-estimation service behind ``repro serve``.

The paper's cost-estimation module is embedded in the master engine's
optimizer and queried by many concurrent sessions (§1's heavy-traffic
setting).  This module operates that loop as a long-lived daemon:

* **inline execution** — :class:`EstimationService` runs every request
  on the thread that asks for it: the HTTP handler thread, or the
  traffic simulator's own thread.  One shared federation
  (:class:`~repro.master.federation.IntelliSphere`, whose costing module
  and estimate cache are already thread-safe) serves all of them, with
  one :class:`~repro.obs.context.QueryContext` per request.  Under the
  GIL a hand-off to a worker pool buys no parallelism, only a queue
  wait and a cross-thread context copy; real scale-out is replicated
  processes;
* **admission control** — :meth:`EstimationService.admitted` bounds
  the number of requests in flight.  At the bound, new work is
  rejected *immediately* with :class:`AdmissionRejected` (HTTP 503 +
  ``Retry-After``), never silently delayed: under overload, shedding
  with an honest signal beats unbounded queueing.  Admitted, rejected,
  completed and failed counts, service latency and the live in-flight
  count (``serve.queue_depth``) are all exported through
  :mod:`repro.obs`;
* **graceful model swap** — ``POST /swap`` (or
  :meth:`EstimationService.swap`) rebuilds a system's estimator
  *outside* the costing module's read-write gate and installs it
  atomically under the write side: in-flight requests finish on the old
  generation, the old generation's cache keys are retired, and no
  request is ever rejected or torn because a swap is in progress;
* **HTTP front** — the daemon mounts ``POST /estimate``, ``POST
  /optimize``, and ``POST /swap`` on a plain
  :class:`~repro.obs.server.ObsServer` through its handler-registration
  API, so one port also serves ``/metrics``, ``/health``, ``/tenants``
  and the rest of the observability plane (single-port deployments).
  Tenancy rides on a configurable request header
  (:data:`TENANT_HEADER`, default ``X-Repro-Tenant``);
* **profiling** — when ``REPRO_OBS_PROF`` asks for it,
  :meth:`EstimationService.start` starts the process-wide stack
  sampler (:mod:`repro.obs.sampling`) and :meth:`~EstimationService.
  stop` stops it, so a profiled serve burst needs nothing but the
  environment variable.

Determinism contract: estimates served concurrently are
**bit-identical** to single-threaded calls — estimation is a pure
function of (models, operator stats), the cache returns
``replace(estimate, cache_hit=True)`` with identical seconds, and the
costing module's read gate pins every batch to one estimator
generation.  The property tests in ``tests/test_serve.py`` assert this
under 8 concurrent callers and under mid-load swaps.  The traffic
simulator (:mod:`repro.workloads.traffic`) leans on the same contract
from the other side: it drives whole scenarios through
:meth:`EstimationService.execute` on its own thread, so every
admission, context, and completion hook runs the production code path
while the journal stays a pure function of the seed.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Mapping, Optional, Sequence

from repro import obs
from repro.exceptions import (
    CatalogError,
    ConfigurationError,
    ParseError,
    PlanningError,
    UnsupportedOperationError,
)
from repro.master.federation import IntelliSphere
from repro.master.optimizer import PlacementPlan
from repro.obs.server import HttpRequest, HttpResponse, ObsServer, json_response
from repro.sql.parser import parse_select

__all__ = [
    "TENANT_HEADER",
    "AdmissionRejected",
    "EstimationService",
    "ServeDaemon",
]

#: Request header carrying the tenant a query is attributed to.
TENANT_HEADER = "X-Repro-Tenant"

#: Default bound on admitted requests in flight at once.
DEFAULT_QUEUE_DEPTH = 64

#: Seconds a rejected client is told to wait before retrying.
DEFAULT_RETRY_AFTER = 1.0


class AdmissionRejected(RuntimeError):
    """The service is at its in-flight bound; retry after a backoff."""

    def __init__(self, depth: int, limit: int, retry_after: float) -> None:
        super().__init__(
            f"admission queue full ({depth}/{limit} in flight); "
            f"retry after {retry_after:g}s"
        )
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after


class EstimationService:
    """Concurrent estimation over one shared federation, run inline.

    Args:
        sphere: The federation to serve (costing module, catalog,
            optimizer).  Its costing internals are thread-safe; this
            class adds per-request contexts and admission control.
        queue_depth: Bound on admitted requests in flight at once.
        retry_after: Backoff hint attached to rejections, seconds.
    """

    def __init__(
        self,
        sphere: IntelliSphere,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        retry_after: float = DEFAULT_RETRY_AFTER,
    ) -> None:
        if queue_depth < 1:
            raise ConfigurationError("queue depth must be >= 1")
        self.sphere = sphere
        self.queue_depth = queue_depth
        self.retry_after = retry_after
        self._lock = threading.Lock()
        self._in_flight = 0
        self._started = False
        # The stack sampler this service started (env REPRO_OBS_PROF);
        # owned here, stopped on stop().
        self._sampler = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EstimationService":
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        # Surface the active model generations on this session's
        # registry before any traffic arrives.
        self.sphere.costing.publish_generations()
        # Continuous profiling, opt-in via the environment: if this
        # call starts the process-wide sampler, the service owns it
        # and stops it on stop().
        self._sampler = obs.maybe_start_sampling()
        return self

    def stop(self) -> None:
        """Stop the sampler this service started, if any."""
        if self._sampler is not None:
            obs.stop_sampling()
            self._sampler = None

    def __enter__(self) -> "EstimationService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    @contextmanager
    def admitted(self, query: str = "", tenant: str = "") -> Iterator[None]:
        """Run the ``with`` body as one admitted request.

        Takes an in-flight slot or raises :class:`AdmissionRejected`
        without blocking, opens the request's query context (id,
        head-sampling decision, tenant, completion hooks), and counts
        the outcome.  The slot is released however the body exits.
        """
        depth_gauge = obs.gauge(
            "serve.queue_depth", help="admitted requests in flight"
        )
        with self._lock:
            depth = self._in_flight
            if depth >= self.queue_depth:
                obs.counter(
                    "serve.rejected",
                    help="requests shed by admission control",
                ).inc()
                raise AdmissionRejected(depth, self.queue_depth, self.retry_after)
            self._in_flight = depth + 1
            depth_gauge.set(float(depth + 1))
        obs.counter("serve.admitted", help="requests admitted").inc()
        started = time.perf_counter()
        try:
            with obs.query_context(query=query, tenant=tenant):
                yield
        except BaseException:
            obs.counter("serve.errors", help="served requests that raised").inc()
            raise
        else:
            obs.counter("serve.completed", help="served requests completed").inc()
        finally:
            obs.histogram(
                "serve.latency_seconds",
                buckets=obs.WALL_SECONDS_BUCKETS,
                help="wall time from admission to completion",
            ).observe(time.perf_counter() - started)
            with self._lock:
                self._in_flight -= 1
                depth_gauge.set(float(self._in_flight))

    def execute(
        self, work: Callable[[], object], query: str = "", tenant: str = ""
    ) -> object:
        """Run ``work`` as one admitted request and return its result."""
        with self.admitted(query=query, tenant=tenant):
            return work()

    # ------------------------------------------------------------------
    # The served operations
    # ------------------------------------------------------------------
    def estimate(
        self, system: str, sql: str, tenant: str = ""
    ) -> Dict[str, object]:
        """Cost one query's root operator on a named remote system."""
        with self.admitted(query=sql, tenant=tenant):
            plan = parse_select(sql)
            estimate = self.sphere.costing.estimate_plan(
                system, plan, self.sphere.catalog
            )
            return {
                "system": system,
                "generation": self.sphere.costing.generation(system),
                "operator": estimate.operator.value,
                "approach": estimate.approach.value,
                "seconds": estimate.seconds,
                "cache_hit": estimate.cache_hit,
                "used_remedy": estimate.used_remedy,
            }

    def optimize(self, sql: str, tenant: str = "") -> Dict[str, object]:
        """Place one query across the federation (the optimizer path)."""
        with self.admitted(query=sql, tenant=tenant):
            return _placement_payload(self.sphere.explain(sql))

    def swap(self, system: str) -> Dict[str, object]:
        """Gracefully swap a system's estimator generation.

        Not admitted: a swap is control-plane work and must succeed
        even when the data plane is at its in-flight bound (a saturated
        service must not be able to starve model rollouts).  The
        costing module's write gate does the draining.
        """
        generation = self.sphere.swap_estimator(system)
        return {"system": system, "generation": generation}


def _placement_payload(placement: PlacementPlan) -> Dict[str, object]:
    """A JSON-shaped view of a placement decision."""
    return {
        "location": placement.best.location,
        "seconds": placement.best.seconds,
        "steps": [
            {
                "kind": step.kind,
                "description": step.description,
                "system": step.system,
                "seconds": step.seconds,
            }
            for step in placement.best.steps
        ],
        "alternatives": [
            {"location": option.location, "seconds": option.seconds}
            for option in placement.alternatives
        ],
    }


class ServeDaemon:
    """The HTTP estimation daemon: service + observability on one port.

    Mounts the serving endpoints on an :class:`ObsServer` through its
    registration API, so the same port exposes the whole observability
    plane:

    ===================  =============================================
    endpoint             payload
    ===================  =============================================
    ``POST /estimate``   ``{"system", "sql"}`` → one operator estimate
                         (seconds, approach, generation, cache flag)
    ``POST /optimize``   ``{"sql"}`` → the optimizer's placement
                         (best location, steps, alternatives)
    ``POST /swap``       ``{"system"}`` → graceful estimator swap;
                         returns the new generation
    ``GET  /...``        everything :class:`ObsServer` serves
                         (``/metrics``, ``/health``, ``/tenants``, …)
    ===================  =============================================

    Each request runs on its HTTP handler thread.  Backpressure: when
    ``queue_depth`` requests are already in flight, ``POST /estimate``
    and ``/optimize`` get ``503`` with a ``Retry-After`` header.
    Malformed bodies get ``400``; unknown systems/tables ``404``.  The
    tenant is read from the ``tenant_header`` request header (default
    :data:`TENANT_HEADER`).
    """

    def __init__(
        self,
        sphere: IntelliSphere,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        retry_after: float = DEFAULT_RETRY_AFTER,
        tenant_header: str = TENANT_HEADER,
        rules: Optional[Sequence[obs.AlertRule]] = None,
        title: str = "Cost estimation service",
    ) -> None:
        self.sphere = sphere
        self.service = EstimationService(
            sphere, queue_depth=queue_depth, retry_after=retry_after
        )
        self.tenant_header = tenant_header
        self.server = ObsServer(
            host=host,
            port=port,
            rules=rules,
            observe=self._observe,
            title=title,
        )
        self.server.register("/estimate", self._estimate_route, method="POST")
        self.server.register("/optimize", self._optimize_route, method="POST")
        self.server.register("/swap", self._swap_route, method="POST")

    def _observe(self) -> Mapping[str, object]:
        """Observation with the federation's live drift/cache slices, so
        ``/health`` and ``/alerts`` on the serving port see everything."""
        return obs.build_observation(
            drift=self.sphere.costing.drift_snapshot(),
            cache=self.sphere.costing.cache.stats(),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return self.server.url

    def start(self) -> "ServeDaemon":
        self.service.start()
        self.server.start()
        return self

    def stop(self) -> None:
        """Close the port, then stop the service."""
        self.server.stop()
        self.service.stop()

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _body_field(self, request: HttpRequest, name: str) -> str:
        payload = request.json()
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        value = payload.get(name)
        if not isinstance(value, str) or not value:
            raise ValueError(f"missing or empty field: {name!r}")
        return value

    def _guarded(
        self, request: HttpRequest, operation: Callable[[], Dict[str, object]]
    ) -> HttpResponse:
        """Run a route body, mapping service failures to HTTP statuses."""
        try:
            return json_response(operation())
        except AdmissionRejected as exc:
            return json_response(
                {
                    "error": "admission queue full",
                    "depth": exc.depth,
                    "limit": exc.limit,
                    "retry_after": exc.retry_after,
                },
                status=503,
                headers=(("Retry-After", f"{exc.retry_after:g}"),),
            )
        except (
            ValueError,
            ParseError,
            PlanningError,
            UnsupportedOperationError,
        ) as exc:
            return json_response({"error": str(exc)}, status=400)
        except (CatalogError, ConfigurationError, KeyError) as exc:
            return json_response({"error": str(exc)}, status=404)

    def _tenant(self, request: HttpRequest) -> str:
        return request.header(self.tenant_header, "")

    def _estimate_route(self, request: HttpRequest) -> HttpResponse:
        return self._guarded(
            request,
            lambda: self.service.estimate(
                self._body_field(request, "system"),
                self._body_field(request, "sql"),
                tenant=self._tenant(request),
            ),
        )

    def _optimize_route(self, request: HttpRequest) -> HttpResponse:
        return self._guarded(
            request,
            lambda: self.service.optimize(
                self._body_field(request, "sql"),
                tenant=self._tenant(request),
            ),
        )

    def _swap_route(self, request: HttpRequest) -> HttpResponse:
        return self._guarded(
            request,
            lambda: self.service.swap(self._body_field(request, "system")),
        )
