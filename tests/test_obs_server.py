"""HTTP observability server: endpoint routing and content types,
concurrent scrapes, the firing→resolved trend-alert loop over a manual
clock, bounded request logging, and clean lifecycle semantics."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import (
    MAX_BODY_BYTES,
    REQUEST_LOG_LIMIT,
    ObsServer,
    json_response,
)
from repro.obs.timeseries import ManualClock


def get(url, timeout=5.0):
    """(status, content_type, body) — errors surface as their status."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as error:
        return (
            error.code,
            error.headers.get("Content-Type", ""),
            error.read().decode("utf-8"),
        )


@pytest.fixture()
def clock():
    return ManualClock()


@pytest.fixture()
def obs_state(clock):
    """Fresh process-wide registry/ledger/timeseries, restored on exit."""
    registry = MetricsRegistry()
    previous_registry = obs.set_registry(registry)
    previous_ledger = obs.set_ledger(obs.AccuracyLedger())
    previous_timeseries = obs.set_timeseries(None)
    aggregator = obs.enable_timeseries(
        width=10.0, retention=50, clock=clock, registry=registry
    )
    yield registry, aggregator
    obs.set_timeseries(previous_timeseries)
    obs.set_ledger(previous_ledger)
    obs.set_registry(previous_registry)


@pytest.fixture()
def server(obs_state):
    with ObsServer(port=0) as running:
        yield running


class TestLifecycle:
    def test_start_binds_ephemeral_port_and_stop_joins(self, obs_state):
        server = ObsServer(port=0)
        assert not server.running
        server.start()
        try:
            assert server.running
            assert server.port != 0
            assert server.url == f"http://127.0.0.1:{server.port}"
        finally:
            server.stop()
        assert not server.running

    def test_double_start_raises(self, obs_state):
        server = ObsServer(port=0).start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.stop()

    def test_context_manager_serves_and_stops(self, obs_state):
        with ObsServer(port=0) as server:
            status, _, _ = get(f"{server.url}/health")
            assert status == 200
            url = server.url
        with pytest.raises(urllib.error.URLError):
            get(f"{url}/health", timeout=0.5)

    def test_repr_names_state(self, obs_state):
        server = ObsServer(port=0)
        assert "stopped" in repr(server)
        with server:
            assert "running" in repr(server)


class TestEndpoints:
    def test_metrics_is_prometheus_text(self, server, obs_state):
        registry, _ = obs_state
        registry.counter("federation.runs").inc(3)
        status, content_type, body = get(f"{server.url}/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "repro_federation_runs 3.0" in body

    def test_metrics_bytes_are_deterministic(self, server, obs_state):
        registry, _ = obs_state
        registry.counter("b").inc()
        registry.counter("a").inc()
        first = get(f"{server.url}/metrics")[2]
        second = get(f"{server.url}/metrics")[2]
        assert first == second
        assert first.index("repro_a ") < first.index("repro_b ")

    def test_metrics_json_round_trips(self, server, obs_state):
        registry, _ = obs_state
        registry.gauge("alpha").set(0.59)
        status, content_type, body = get(f"{server.url}/metrics.json")
        assert status == 200
        assert content_type.startswith("application/json")
        snapshot = json.loads(body)
        assert snapshot["metrics"]["alpha"]["value"] == 0.59

    def test_health_reports_worst_grade(self, server):
        status, _, body = get(f"{server.url}/health")
        assert status == 200
        payload = json.loads(body)
        assert set(payload) == {"systems", "worst"}

    def test_alerts_returns_report_json(self, server):
        status, _, body = get(f"{server.url}/alerts")
        assert status == 200
        report = json.loads(body)
        assert "alerts" in report

    def test_timeseries_serves_the_ring(self, server, obs_state, clock):
        registry, aggregator = obs_state
        registry.counter("c").inc(2.0)
        clock.advance(10.0)
        status, _, body = get(f"{server.url}/timeseries")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["closed"] == 1
        assert snapshot["windows"][0]["counters"] == {"c": 2.0}

    def test_dashboard_is_html_with_windows_section(
        self, server, obs_state, clock
    ):
        registry, _ = obs_state
        registry.counter("federation.runs").inc()
        clock.advance(10.0)
        status, content_type, body = get(f"{server.url}/dashboard")
        assert status == 200
        assert content_type.startswith("text/html")
        assert "<html" in body
        assert "Windowed telemetry" in body
        assert "federation.runs" in body

    def test_root_serves_the_dashboard_too(self, server):
        status, content_type, _ = get(f"{server.url}/")
        assert status == 200
        assert content_type.startswith("text/html")

    def test_unknown_path_is_json_404(self, server):
        status, content_type, body = get(f"{server.url}/nope")
        assert status == 404
        assert content_type.startswith("application/json")
        assert "no such endpoint" in json.loads(body)["error"]

    def test_trailing_slash_and_query_string_are_tolerated(self, server):
        assert get(f"{server.url}/health/")[0] == 200
        assert get(f"{server.url}/metrics?x=1")[0] == 200

    def test_render_error_returns_500_not_a_dead_server(self, obs_state):
        def broken_observe():
            raise RuntimeError("observation exploded")

        with ObsServer(port=0, observe=broken_observe) as server:
            status, _, body = get(f"{server.url}/health")
            assert status == 500
            assert "observation exploded" in json.loads(body)["error"]
            # The server survives the failed scrape.
            assert get(f"{server.url}/metrics")[0] == 200


class TestProfileEndpoints:
    @pytest.fixture()
    def sampler(self):
        from repro.obs.journal import NOOP_JOURNAL
        from repro.obs.sampling import StackSampler, set_stack_sampler

        sampler = StackSampler(
            hz=100.0, window_seconds=10.0, journal=NOOP_JOURNAL
        )
        sampler.record_sample(0.1, "serve", ("repro.serve.loop",))
        sampler.record_sample(0.2, "serve", ("repro.serve.loop",))
        sampler.record_sample(10.1, "main", ())
        previous = set_stack_sampler(sampler)
        yield sampler
        set_stack_sampler(previous)

    def test_profile_json_when_off(self, server):
        from repro.obs.sampling import set_stack_sampler

        previous = set_stack_sampler(None)
        try:
            status, content_type, body = get(f"{server.url}/profile")
        finally:
            set_stack_sampler(previous)
        assert status == 200
        assert content_type.startswith("application/json")
        payload = json.loads(body)
        assert payload["enabled"] is False
        assert payload["hz"] == 0.0
        assert payload["windows"] == []

    def test_profile_json_serves_sampler_windows(self, server, sampler):
        status, _, body = get(f"{server.url}/profile")
        assert status == 200
        payload = json.loads(body)
        assert payload["enabled"] is True
        assert payload["hz"] == 100.0
        assert payload["sampled"] == 3
        # one closed window plus the open one frozen in place
        assert len(payload["windows"]) == 2
        assert payload["windows"][0]["stacks"] == {
            "[serve];repro.serve.loop": 2
        }

    def test_profile_html_renders_flamegraph(self, server, sampler):
        status, content_type, body = get(f"{server.url}/profile.html")
        assert status == 200
        assert content_type.startswith("text/html")
        assert "sampled stacks" in body
        assert "repro.serve.loop" in body
        assert "100 Hz over 1 closed windows" in body

    def test_profile_html_when_off_says_so(self, server):
        from repro.obs.sampling import set_stack_sampler

        previous = set_stack_sampler(None)
        try:
            status, _, body = get(f"{server.url}/profile.html")
        finally:
            set_stack_sampler(previous)
        assert status == 200
        assert "profiling off" in body
        assert "no samples" in body

    def test_dashboard_shows_profiling_section(self, server, sampler):
        status, _, body = get(f"{server.url}/dashboard")
        assert status == 200
        assert "Continuous profiling" in body
        assert 'class="flame"' in body


class TestConcurrency:
    def test_parallel_scrapes_all_succeed(self, server, obs_state):
        registry, _ = obs_state
        registry.counter("c").inc()
        paths = ["/metrics", "/metrics.json", "/health", "/alerts",
                 "/timeseries", "/dashboard"] * 4
        statuses = [None] * len(paths)

        def fetch(index, path):
            statuses[index] = get(f"{server.url}{path}")[0]

        workers = [
            threading.Thread(target=fetch, args=(index, path))
            for index, path in enumerate(paths)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert statuses == [200] * len(paths)


class TestRequestLog:
    def test_requests_are_logged_and_bounded(self, server):
        for _ in range(3):
            get(f"{server.url}/health")
        assert len(server.request_log) >= 3
        assert any("/health" in line for line in server.request_log)
        assert server.request_log.maxlen == REQUEST_LOG_LIMIT


def send_headers_only(server, content_length):
    """POST headers announcing ``content_length`` body bytes, then no
    body at all.  Reads until the server closes the connection (a
    server that waited for the body would time this out instead) and
    returns ``(status, lower-cased headers, JSON body)``."""
    request = (
        "POST /echo HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    )
    data = b""
    with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
        sock.sendall(request.encode("ascii"))
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in header_lines)
    }
    return int(status_line.split()[1]), headers, json.loads(body)


class TestRequestBodyLimits:
    @pytest.fixture()
    def echo(self, obs_state):
        bodies = []

        def handler(request):
            bodies.append(request.body)
            return json_response({"bytes": len(request.body)})

        server = ObsServer(port=0).register("/echo", handler, method="POST")
        with server:
            yield server, bodies

    def test_oversized_length_is_413_and_closes(self, echo):
        server, bodies = echo
        status, headers, payload = send_headers_only(server, MAX_BODY_BYTES + 1)
        assert status == 413
        assert headers["connection"] == "close"
        assert str(MAX_BODY_BYTES) in payload["error"]
        assert bodies == []  # the route never ran
        assert get(f"{server.url}/health")[0] == 200  # the server lives on

    @pytest.mark.parametrize("length", ["-1", "12abc"])
    def test_bad_length_is_400_and_closes(self, echo, length):
        server, bodies = echo
        status, headers, payload = send_headers_only(server, length)
        assert status == 400
        assert headers["connection"] == "close"
        assert length in payload["error"]
        assert bodies == []

    def test_body_at_the_limit_is_read(self, echo):
        server, bodies = echo
        request = urllib.request.Request(
            f"{server.url}/echo", data=b"x" * MAX_BODY_BYTES, method="POST"
        )
        with urllib.request.urlopen(request, timeout=10.0) as response:
            assert json.loads(response.read()) == {"bytes": MAX_BODY_BYTES}
        assert len(bodies) == 1


class TestTrendAlertLoop:
    """The acceptance loop: a sustained p99 regression fires the trend
    rule through a real HTTP scrape cycle; recovery resolves it."""

    def feed_window(self, registry, clock, seconds, observations=8):
        for _ in range(observations):
            registry.histogram(
                "costing.estimate_wall_seconds",
                buckets=obs.WALL_SECONDS_BUCKETS,
            ).observe(seconds)
        clock.advance(10.0)

    def scrape(self, server):
        report = json.loads(get(f"{server.url}/alerts")[2])
        return (
            {a["rule"] for a in report["alerts"] if a["firing"]},
            set(report["fired"]),
            set(report["resolved"]),
        )

    def test_sustained_regression_fires_then_resolves(
        self, server, obs_state, clock
    ):
        registry, _ = obs_state
        # Healthy baseline: fast estimates, rule stays quiet.
        for _ in range(5):
            self.feed_window(registry, clock, seconds=0.001)
        active, fired, _ = self.scrape(server)
        assert "trend-estimate-latency" not in active
        assert not fired

        # Sustained regression: five slow windows push the 5-window
        # p99 average over the 50ms threshold.
        for _ in range(5):
            self.feed_window(registry, clock, seconds=0.2)
        active, fired, _ = self.scrape(server)
        assert "trend-estimate-latency" in active
        assert "trend-estimate-latency" in fired

        # Recovery: fast windows wash the regression out of the span.
        for _ in range(6):
            self.feed_window(registry, clock, seconds=0.001)
        active, _, resolved = self.scrape(server)
        assert "trend-estimate-latency" not in active
        assert "trend-estimate-latency" in resolved


class TestForensicsEndpoints:
    """/tenants, /flight, and /incidents: the incident-forensics plane."""

    @pytest.fixture()
    def forensics(self):
        from repro.obs.tail import QueryOutcome, TailDecision

        previous_ledger = obs.set_tenant_ledger(obs.TenantLedger())
        recorder = obs.FlightRecorder()
        previous_recorder = obs.set_flight_recorder(recorder)
        recorder.record(
            QueryOutcome(
                query_id="q-000001",
                tenant="analytics",
                wall_seconds=2.0,
                max_q_error=4.0,
            ),
            TailDecision(keep=True, reasons=("q_error",)),
        )
        obs.get_tenant_ledger().record_estimate("analytics", 3.0)
        yield recorder
        obs.set_flight_recorder(previous_recorder)
        obs.set_tenant_ledger(previous_ledger)

    def test_tenants_endpoint_serves_ledger_snapshot(self, server, forensics):
        status, content_type, body = get(f"{server.url}/tenants")
        assert status == 200
        assert content_type.startswith("application/json")
        snapshot = json.loads(body)
        assert snapshot["analytics"]["estimated_seconds"] == 3.0

    def test_flight_endpoint_serves_recorder_snapshot(self, server, forensics):
        status, _, body = get(f"{server.url}/flight")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["enabled"] is True
        assert snapshot["records"][0]["query_id"] == "q-000001"

    def test_flight_endpoint_reports_disabled_without_recorder(self, server):
        previous = obs.set_flight_recorder(None)
        try:
            status, _, body = get(f"{server.url}/flight")
        finally:
            obs.set_flight_recorder(previous)
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["enabled"] is False
        assert snapshot["records"] == []

    def test_incident_list_and_single_bundle_fetch(self, server, forensics):
        bundle = forensics.trigger_incident("drift", system="hive")
        status, _, body = get(f"{server.url}/incidents")
        assert status == 200
        listed = json.loads(body)
        assert [entry["name"] for entry in listed] == [bundle.name]
        status, _, body = get(f"{server.url}/incidents/{bundle.name}")
        assert status == 200
        fetched = json.loads(body)
        assert fetched == bundle.to_dict()

    def test_unknown_incident_is_json_404_and_keeps_serving(
        self, server, forensics
    ):
        status, content_type, body = get(f"{server.url}/incidents/nope")
        assert status == 404
        assert content_type.startswith("application/json")
        assert json.loads(body)["error"]
        # The server survives the miss.
        status, _, _ = get(f"{server.url}/health")
        assert status == 200

    def test_dashboard_renders_tenant_section(self, server, forensics):
        status, _, body = get(f"{server.url}/dashboard")
        assert status == 200
        assert "Tenants" in body
        assert "analytics" in body


class TestHandlerRegistration:
    """The one mounting API: custom routes share the port with the
    default observability endpoints (single-port deployments)."""

    def test_register_custom_get_route(self, obs_state):
        from repro.obs.server import HttpResponse

        server = ObsServer(port=0)
        server.register(
            "/custom",
            lambda request: HttpResponse(
                200, "application/json; charset=utf-8", '{"ok":true}'
            ),
        )
        with server:
            status, content_type, body = get(f"{server.url}/custom")
        assert status == 200
        assert content_type.startswith("application/json")
        assert json.loads(body) == {"ok": True}

    def test_post_route_receives_body_and_headers(self, obs_state):
        from repro.obs.server import json_response

        seen = {}

        def handler(request):
            seen["payload"] = request.json()
            seen["tenant"] = request.header("X-Repro-Tenant")
            return json_response({"echo": request.json()})

        server = ObsServer(port=0).register("/echo", handler, method="POST")
        with server:
            request = urllib.request.Request(
                f"{server.url}/echo",
                data=b'{"a": 1}',
                headers={"X-Repro-Tenant": "etl"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=5.0) as response:
                assert response.status == 200
                assert json.loads(response.read()) == {"echo": {"a": 1}}
        assert seen == {"payload": {"a": 1}, "tenant": "etl"}

    def test_wrong_method_is_405_with_allow(self, obs_state):
        from repro.obs.server import json_response

        server = ObsServer(port=0).register(
            "/only-post", lambda request: json_response({}), method="POST"
        )
        with server:
            status, _, body = get(f"{server.url}/only-post")
        assert status == 405
        assert json.loads(body)["allow"] == ["POST"]

    def test_registration_normalizes_trailing_slash(self, obs_state):
        from repro.obs.server import json_response

        server = ObsServer(port=0).register(
            "/padded/", lambda request: json_response({"hit": True})
        )
        with server:
            assert get(f"{server.url}/padded")[0] == 200
            assert get(f"{server.url}/padded/")[0] == 200

    def test_default_routes_are_replaceable(self, obs_state):
        from repro.obs.server import json_response

        server = ObsServer(port=0)
        server.register("/health", lambda request: json_response({"ok": 1}))
        with server:
            status, _, body = get(f"{server.url}/health")
        assert status == 200
        assert json.loads(body) == {"ok": 1}

    def test_invalid_registrations_rejected(self, obs_state):
        from repro.obs.server import json_response

        server = ObsServer(port=0)
        with pytest.raises(ValueError):
            server.register("no-slash", lambda request: json_response({}))
        with pytest.raises(ValueError):
            server.register(
                "/x", lambda request: json_response({}), method="DELETE"
            )

    def test_routes_listing_includes_defaults_and_prefixes(self, obs_state):
        routes = ObsServer(port=0).routes
        assert ("GET", "/metrics") in routes
        assert ("GET", "/incidents/*") in routes

    def test_handler_exception_maps_to_500(self, obs_state):
        def broken(request):
            raise RuntimeError("handler bug")

        server = ObsServer(port=0).register("/broken", broken)
        with server:
            status, content_type, body = get(f"{server.url}/broken")
            assert status == 500
            assert content_type.startswith("application/json")
            assert "handler bug" in json.loads(body)["error"]
            # The server survives its handlers' bugs.
            assert get(f"{server.url}/health")[0] == 200
