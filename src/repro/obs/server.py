"""The HTTP serving plane: a route registry + the observability server.

A thin, stdlib-only (:mod:`http.server`) serving plane over everything
:mod:`repro.obs` already computes:

====================  ==================================================
endpoint              payload
====================  ==================================================
``GET /metrics``      Prometheus text exposition of the live registry —
                      byte-deterministic ordering (sorted metric names,
                      fixed float rendering), straight from
                      :func:`repro.obs.exporters.to_prometheus_text`
``GET /metrics.json`` the exporter snapshot (metrics + ledger) as JSON
``GET /health``       per-system verdicts from
                      :func:`repro.obs.health.evaluate_health`
``GET /alerts``       one :class:`~repro.obs.alerts.AlertEngine`
                      evaluation (trend rules included); the engine is
                      long-lived, so firing→resolved transitions behave
                      exactly like a monitoring loop's
``GET /timeseries``   the windowed-telemetry ring as JSON
``GET /tenants``      the per-tenant attribution ledger as JSON
``GET /flight``       the flight recorder's rings (records + events +
                      incident names) as JSON
``GET /incidents``    headers of the in-memory incident bundles
``GET /incidents/N``  one full incident bundle by name (404 when
                      unknown or the recorder is off)
``GET /profile``      the stack sampler's profile windows as JSON
                      (``{"enabled": false, ...}`` when profiling is
                      off)
``GET /profile.html`` the live flamegraph page over every retained
                      profile window (open window included)
``GET /dashboard``    the self-contained HTML page, backed by *real*
                      windowed history
====================  ==================================================

**One handler-registration API.**  Every endpoint above is mounted
through :meth:`ObsServer.register` — the same call external planes use:
the ``repro serve`` estimation daemon registers its ``POST /estimate``
and ``POST /optimize`` handlers on a plain :class:`ObsServer`, so a
single port carries both the request traffic and its own scrape
endpoints (single-port deployments).  A handler is a callable from
:class:`HttpRequest` to :class:`HttpResponse`; routing is exact-path
per method, with optional prefix routes (``/incidents/<name>``).
Unknown paths get a 404, known paths with the wrong method a 405.

Design points:

* **non-blocking** — ``ThreadingHTTPServer`` with daemon threads behind
  ``start()``; the caller's thread never serves requests;
* **bounded request bodies** — a ``Content-Length`` above
  :data:`MAX_BODY_BYTES` gets 413 and a bad one 400, both without
  reading the body and with the connection closed, so one header cannot
  make a handler thread allocate an arbitrary buffer or wait for a
  body of that size;
* **bounded request logging** — the default handler's stderr spam is
  redirected into a fixed-size ring (:attr:`ObsServer.request_log`);
* **clean shutdown** — ``stop()`` unwinds ``serve_forever`` and joins
  the serving thread; ``with ObsServer(...) as server:`` does both;
* **embeddable** — the ``repro serve`` daemon mounts this same object;
  ``repro serve-obs`` is the standalone CLI front.

Alert evaluation state is engine-local and serialized under a lock, so
concurrent scrapes cannot corrupt fired/resolved bookkeeping.

Like the rest of :mod:`repro.obs`, this module depends only on the
standard library and must never import from the instrumented packages —
live drift/cache views are injected by the caller as an ``observe``
callable, and request handlers are injected through :meth:`register`.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Deque, Dict, Mapping, Optional, Sequence, Tuple

from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.dashboard import (
    build_history,
    history_from_windows,
    render_dashboard,
)
from repro.obs.exporters import build_snapshot, to_prometheus_text
from repro.obs.flamegraph import render_flamegraph_html
from repro.obs.flight import FLIGHT_SCHEMA_VERSION, get_flight_recorder
from repro.obs.sampling import PROFILE_SCHEMA_VERSION, get_stack_sampler
from repro.obs.health import build_observation, evaluate_health, worst_grade
from repro.obs.journal import get_journal
from repro.obs.tenants import get_tenant_ledger
from repro.obs.timeseries import (
    get_timeseries,
    maybe_roll_timeseries,
    windows_from_events,
)

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "MAX_BODY_BYTES",
    "ObsServer",
    "REQUEST_LOG_LIMIT",
    "json_response",
]

#: Requests remembered in the bounded request log.
REQUEST_LOG_LIMIT = 256

#: Largest request body a handler reads (1 MiB); larger ones get 413.
MAX_BODY_BYTES = 1 << 20

_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_JSON_CONTENT_TYPE = "application/json; charset=utf-8"
_HTML_CONTENT_TYPE = "text/html; charset=utf-8"


@dataclass(frozen=True)
class HttpRequest:
    """One parsed HTTP request handed to a registered handler.

    Attributes:
        method: ``GET`` / ``POST`` (uppercase).
        path: Normalized path — query string stripped, trailing slash
            removed (``/`` for the root).
        query: The raw query string ("" when absent).
        headers: Case-insensitive request headers (the stdlib message
            object).
        body: The raw request body (b"" for GET).
    """

    method: str
    path: str
    query: str = ""
    headers: Mapping[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        value = self.headers.get(name) if self.headers is not None else None
        return value if value is not None else default

    def json(self) -> object:
        """The body parsed as JSON; raises ``ValueError`` when invalid."""
        if not self.body:
            raise ValueError("empty request body")
        return json.loads(self.body.decode("utf-8"))


@dataclass(frozen=True)
class HttpResponse:
    """What a registered handler returns.

    Attributes:
        status: HTTP status code.
        content_type: ``Content-Type`` header value.
        body: Response payload (encoded as UTF-8 on the wire).
        headers: Extra headers, e.g. ``(("Retry-After", "1"),)``.
    """

    status: int = 200
    content_type: str = _JSON_CONTENT_TYPE
    body: str = ""
    headers: Tuple[Tuple[str, str], ...] = ()


Handler = Callable[[HttpRequest], HttpResponse]


def json_response(
    payload: object,
    status: int = 200,
    headers: Tuple[Tuple[str, str], ...] = (),
) -> HttpResponse:
    """A deterministic (sorted, compact) JSON :class:`HttpResponse`."""
    return HttpResponse(
        status=status,
        content_type=_JSON_CONTENT_TYPE,
        body=json.dumps(payload, sort_keys=True, separators=(",", ":")),
        headers=headers,
    )


class _Handler(BaseHTTPRequestHandler):
    """Parses one request and routes it; all state lives on ``server.obs``."""

    server_version = "repro-obs"
    protocol_version = "HTTP/1.1"

    def _handle(self, method: str) -> None:
        obs: "ObsServer" = self.server.obs  # type: ignore[attr-defined]
        raw_path, _, query = self.path.partition("?")
        path = raw_path.rstrip("/") or "/"
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # Refused before reading a byte; the unread body leaves the
            # connection unusable, so it is closed.
            response = json_response(
                {
                    "error": f"Content-Length {raw_length!r}: expected 0 "
                    f"to {MAX_BODY_BYTES} bytes"
                },
                status=413 if length > MAX_BODY_BYTES else 400,
                headers=(("Connection", "close"),),
            )
        else:
            request = HttpRequest(
                method=method,
                path=path,
                query=query,
                headers=self.headers,
                body=self.rfile.read(length) if length > 0 else b"",
            )
            try:
                response = obs.dispatch(request)
            except Exception as exc:  # noqa: BLE001 — a request must not kill the server
                response = json_response({"error": str(exc)}, status=500)
        try:
            self._respond(response)
        except OSError:
            pass  # client went away mid-response

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._handle("POST")

    def _respond(self, response: HttpResponse) -> None:
        payload = response.body.encode("utf-8")
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in response.headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    # ------------------------------------------------------------------
    # Logging: bounded ring instead of stderr
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        obs: "ObsServer" = self.server.obs  # type: ignore[attr-defined]
        obs.request_log.append(
            f"{self.address_string()} {format % args}"
        )


class ObsServer:
    """The embeddable HTTP server: a route registry over a thread pool.

    Args:
        host: Bind address (loopback by default — this is an internal
            scrape/debug plane, not a public service).
        port: TCP port; ``0`` binds an ephemeral port (read it back
            from :attr:`port` after :meth:`start`).
        rules: Alert rule set for ``/alerts`` and the dashboard's alert
            table; the default SLO + trend rules when omitted.
        observe: Zero-argument callable producing the observation dict
            ``/health``/``/alerts``/``/dashboard`` evaluate.  Defaults
            to :func:`repro.obs.health.build_observation` (registry +
            ledger + timeseries, no drift/cache slices); the CLI wires
            in the costing module's live drift and cache views here.
        title: Dashboard page title.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        rules: Optional[Sequence[AlertRule]] = None,
        observe: Optional[Callable[[], Mapping[str, object]]] = None,
        title: str = "Cost estimation health",
    ) -> None:
        self.host = host
        self.port = port
        self.title = title
        self.engine = AlertEngine(rules)
        self.request_log: Deque[str] = deque(maxlen=REQUEST_LOG_LIMIT)
        self._observe = observe if observe is not None else build_observation
        self._eval_lock = threading.Lock()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._routes: Dict[Tuple[str, str], Handler] = {}
        self._prefix_routes: Dict[Tuple[str, str], Handler] = {}
        self._register_default_routes()

    # ------------------------------------------------------------------
    # Handler registration (the one mounting API)
    # ------------------------------------------------------------------
    def register(
        self,
        path: str,
        handler: Handler,
        method: str = "GET",
        prefix: bool = False,
    ) -> "ObsServer":
        """Mount ``handler`` at ``(method, path)``; returns self.

        With ``prefix=True`` the handler serves every path *under*
        ``path`` (the handler reads the suffix off ``request.path``).
        Registering an existing route replaces it — embedders may
        override a default endpoint.  Paths are normalized like
        incoming requests (no trailing slash), so registration and
        lookup can never disagree.
        """
        if not path.startswith("/"):
            raise ValueError(f"route path must start with '/': {path!r}")
        method = method.upper()
        if method not in ("GET", "POST"):
            raise ValueError(f"unsupported method: {method!r}")
        key = (method, path.rstrip("/") or "/")
        if prefix:
            self._prefix_routes[key] = handler
        else:
            self._routes[key] = handler
        return self

    def dispatch(self, request: HttpRequest) -> HttpResponse:
        """Route one request (also called directly by tests)."""
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            for (method, prefix), candidate in self._prefix_routes.items():
                if method == request.method and request.path.startswith(
                    prefix + "/"
                ):
                    handler = candidate
                    break
        if handler is None:
            allowed = sorted(
                {
                    method
                    for method, path in self._routes
                    if path == request.path
                }
            )
            if allowed:
                return json_response(
                    {
                        "error": (
                            f"method {request.method} not allowed for "
                            f"{request.path}"
                        ),
                        "allow": allowed,
                    },
                    status=405,
                    headers=(("Allow", ", ".join(allowed)),),
                )
            return json_response(
                {"error": f"no such endpoint: {request.path}"}, status=404
            )
        return handler(request)

    @property
    def routes(self) -> Tuple[Tuple[str, str], ...]:
        """Registered ``(method, path)`` pairs, sorted (prefix routes
        carry a trailing ``/*``)."""
        exact = list(self._routes)
        prefixed = [(m, p + "/*") for m, p in self._prefix_routes]
        return tuple(sorted(exact + prefixed, key=lambda mp: (mp[1], mp[0])))

    def _register_default_routes(self) -> None:
        """Mount the observability endpoints through the public API."""
        self.register(
            "/metrics",
            lambda request: HttpResponse(
                200, _PROM_CONTENT_TYPE, self.render_metrics()
            ),
        )
        for path, render in (
            ("/metrics.json", self.render_metrics_json),
            ("/health", self.render_health),
            ("/alerts", self.render_alerts),
            ("/timeseries", self.render_timeseries),
            ("/tenants", self.render_tenants),
            ("/flight", self.render_flight),
            ("/incidents", self.render_incidents),
            ("/profile", self.render_profile),
        ):
            self.register(
                path,
                lambda request, render=render: HttpResponse(
                    200, _JSON_CONTENT_TYPE, render()
                ),
            )
        self.register("/incidents", self._incident_route, prefix=True)
        self.register(
            "/profile.html",
            lambda request: HttpResponse(
                200, _HTML_CONTENT_TYPE, self.render_profile_html()
            ),
        )
        for path in ("/", "/dashboard"):
            self.register(
                path,
                lambda request: HttpResponse(
                    200, _HTML_CONTENT_TYPE, self.render_dashboard()
                ),
            )

    def _incident_route(self, request: HttpRequest) -> HttpResponse:
        name = request.path[len("/incidents/"):]
        body = self.render_incident(name)
        if body is None:
            return json_response(
                {"error": f"no such incident: {name}"}, status=404
            )
        return HttpResponse(200, _JSON_CONTENT_TYPE, body)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObsServer":
        """Bind and serve on a daemon thread; returns self."""
        if self._httpd is not None:
            raise RuntimeError("server already started")
        httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        httpd.daemon_threads = True
        httpd.obs = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self.port = httpd.server_address[1]
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=f"repro-obs-server:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Unwind ``serve_forever`` and join the serving thread."""
        httpd, thread = self._httpd, self._thread
        self._httpd, self._thread = None, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=timeout)

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Endpoint payloads (also used directly by tests / the CLI)
    # ------------------------------------------------------------------
    def observation(self) -> Mapping[str, object]:
        """One observation, with the window ring rolled up to "now"."""
        maybe_roll_timeseries()
        return self._observe()

    def render_metrics(self) -> str:
        return to_prometheus_text()

    def render_metrics_json(self) -> str:
        return json.dumps(build_snapshot(), sort_keys=True, separators=(",", ":"))

    def render_health(self) -> str:
        healths = evaluate_health(self.observation())
        return json.dumps(
            {
                "systems": [health.to_dict() for health in healths],
                "worst": worst_grade(healths),
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def render_alerts(self) -> str:
        with self._eval_lock:
            report = self.engine.evaluate(self.observation())
        return report.to_json()

    def render_timeseries(self) -> str:
        maybe_roll_timeseries()
        aggregator = get_timeseries()
        snapshot = (
            aggregator.snapshot()
            if aggregator is not None
            else {"width": 0.0, "retention": 0, "closed": 0, "windows": []}
        )
        return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))

    def render_tenants(self) -> str:
        return json.dumps(
            get_tenant_ledger().snapshot(),
            sort_keys=True,
            separators=(",", ":"),
        )

    def render_flight(self) -> str:
        recorder = get_flight_recorder()
        if recorder is None:
            snapshot = {
                "enabled": False,
                "v": FLIGHT_SCHEMA_VERSION,
                "records": [],
                "events": [],
                "incidents": [],
            }
        else:
            snapshot = {"enabled": True, **recorder.snapshot()}
        return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))

    def render_incidents(self) -> str:
        recorder = get_flight_recorder()
        bundles = recorder.incidents() if recorder is not None else ()
        return json.dumps(
            [bundle.header() for bundle in bundles],
            sort_keys=True,
            separators=(",", ":"),
        )

    def render_incident(self, name: str) -> Optional[str]:
        """One bundle's full JSON, or ``None`` when unknown/off."""
        recorder = get_flight_recorder()
        bundle = recorder.find_incident(name) if recorder is not None else None
        if bundle is None:
            return None
        return json.dumps(bundle.to_dict(), sort_keys=True, separators=(",", ":"))

    def render_profile(self) -> str:
        sampler = get_stack_sampler()
        if sampler is None:
            snapshot = {
                "enabled": False,
                "v": PROFILE_SCHEMA_VERSION,
                "hz": 0.0,
                "windows": [],
            }
        else:
            snapshot = {"enabled": True, **sampler.snapshot()}
        return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))

    def render_profile_html(self) -> str:
        sampler = get_stack_sampler()
        stacks = sampler.merged_stacks() if sampler is not None else {}
        subtitle = (
            f"{sampler.hz:g} Hz over {len(sampler.windows())} closed windows"
            if sampler is not None
            else "profiling off — set REPRO_OBS_PROF or start_sampling()"
        )
        return render_flamegraph_html(
            stacks, title=f"{self.title} — sampled stacks", subtitle=subtitle
        )

    def render_dashboard(self) -> str:
        observation = self.observation()
        healths = evaluate_health(observation)
        with self._eval_lock:
            report = self.engine.evaluate(observation)
        aggregator = get_timeseries()
        windows = aggregator.windows() if aggregator is not None else ()
        journal = get_journal()
        if journal.enabled and journal.path:
            history = build_history(journal.read().events)
        else:
            history = history_from_windows(windows)
        tenants = observation.get("tenants")
        sampler = get_stack_sampler()
        return render_dashboard(
            healths,
            report=report,
            history=history,
            title=self.title,
            windows=windows,
            tenants=tenants if isinstance(tenants, Mapping) else {},
            profile=sampler.merged_stacks() if sampler is not None else None,
        )

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"ObsServer({self.url}, {state})"
