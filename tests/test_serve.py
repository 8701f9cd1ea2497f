"""The concurrent estimation service: admission slots, determinism
under concurrent callers (bit-identical to single-threaded runs),
graceful model swaps under load, and the HTTP endpoints on the shared
obs port."""

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core import ClusterInfo, RemoteSystemProfile
from repro.data import build_paper_corpus
from repro.engines import HiveEngine
from repro.master.federation import IntelliSphere
from repro.obs.metrics import MetricsRegistry
from repro.exceptions import ConfigurationError
from repro.serve import AdmissionRejected, EstimationService, ServeDaemon
from repro.sql.parser import parse_select

QUERIES = (
    "SELECT r.a1 FROM t1000000_100 r JOIN t100000_100 s ON r.a1 = s.a1",
    "SELECT SUM(a1) FROM t1000000_100 GROUP BY a20",
    "SELECT a1 FROM t100000_100 WHERE a1 = 7",
    "SELECT SUM(a2) FROM t100000_40 GROUP BY a5",
    "SELECT r.a1 FROM t1000000_40 r JOIN t10000_40 s ON r.a1 = s.a1",
)


@pytest.fixture(scope="module")
def sphere():
    sphere = IntelliSphere(seed=0)
    info = ClusterInfo(
        num_data_nodes=3, cores_per_node=2, dfs_block_size=128 * 1024 * 1024
    )
    sphere.add_remote_system(
        HiveEngine(seed=0, noise_sigma=0.0),
        RemoteSystemProfile(name="hive", cluster=info),
    )
    for spec in build_paper_corpus(
        row_counts=(10_000, 100_000, 1_000_000), row_sizes=(40, 100)
    ):
        sphere.add_table(spec)
    sphere.costing.train_sub_op("hive")
    return sphere


@pytest.fixture(autouse=True)
def obs_state():
    """Fresh process-wide metrics/ledgers per test, restored on exit."""
    previous_registry = obs.set_registry(MetricsRegistry())
    previous_ledger = obs.set_ledger(obs.AccuracyLedger())
    previous_tenants = obs.set_tenant_ledger(obs.TenantLedger())
    yield
    obs.set_tenant_ledger(previous_tenants)
    obs.set_ledger(previous_ledger)
    obs.set_registry(previous_registry)


def serial_reference(sphere):
    """Single-threaded estimates, computed on a cold cache."""
    sphere.costing.invalidate_cache()
    reference = {}
    for sql in QUERIES:
        estimate = sphere.costing.estimate_plan(
            "hive", parse_select(sql), sphere.catalog
        )
        reference[sql] = estimate.seconds
    return reference


def run_parked(service, count):
    """Start ``count`` threads, each parked inside ``service.execute``.

    Returns ``(release, threads)``; every thread holds an in-flight slot
    until ``release`` is set.
    """
    release = threading.Event()
    running = threading.Semaphore(0)

    def occupy():
        running.release()
        release.wait(10.0)

    threads = [
        threading.Thread(target=service.execute, args=(occupy,), daemon=True)
        for _ in range(count)
    ]
    for thread in threads:
        thread.start()
    for _ in range(count):
        assert running.acquire(timeout=10.0)
    return release, threads


class TestAdmissionSlots:
    def test_bad_depth_rejected(self, sphere):
        with pytest.raises(ConfigurationError):
            EstimationService(sphere, queue_depth=0)

    def test_overflow_rejects_with_retry_after(self, sphere):
        with EstimationService(sphere, queue_depth=2, retry_after=0.5) as service:
            release, threads = run_parked(service, 2)
            try:
                with pytest.raises(AdmissionRejected) as excinfo:
                    service.estimate("hive", QUERIES[2])
            finally:
                release.set()
                for thread in threads:
                    thread.join(10.0)
            assert excinfo.value.depth == 2
            assert excinfo.value.limit == 2
            assert excinfo.value.retry_after == 0.5
            # The slots came back: the bound admits again.
            assert service.estimate("hive", QUERIES[2])["seconds"] > 0
        assert obs.counter("serve.rejected").value == 1.0
        assert obs.counter("serve.admitted").value == 3.0

    def test_depth_gauge_tracks_in_flight(self, sphere):
        with EstimationService(sphere, queue_depth=4) as service:
            release, threads = run_parked(service, 3)
            assert obs.gauge("serve.queue_depth").value == 3.0
            release.set()
            for thread in threads:
                thread.join(10.0)
            assert obs.gauge("serve.queue_depth").value == 0.0
        assert obs.counter("serve.completed").value == 3.0

    def test_raising_work_leaks_no_slot(self, sphere):
        """50 requests whose work raises, then one that succeeds, all
        through a one-slot daemon: a leaked slot would turn the last
        request into a 503."""
        with ServeDaemon(sphere, port=0, queue_depth=1) as daemon:
            statuses = [
                post(daemon.url + "/estimate", {"system": "hive", "sql": "SELEKT"})[0]
                for _ in range(50)
            ]
            final = post(
                daemon.url + "/estimate", {"system": "hive", "sql": QUERIES[2]}
            )[0]
        assert statuses == [400] * 50
        assert final == 200
        assert obs.counter("serve.rejected").value == 0.0
        assert obs.counter("serve.errors").value == 50.0
        assert obs.counter("serve.completed").value == 1.0
        assert obs.gauge("serve.queue_depth").value == 0.0

    def test_slots_balance_under_contention(self, sphere):
        """8 threads (more than cores) hammering 8 slots with a short
        switch interval: a lost update on the in-flight count would
        reject a request or leave the gauge above zero."""
        errors = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with EstimationService(sphere, queue_depth=8) as service:

                def caller():
                    try:
                        for _ in range(200):
                            service.execute(lambda: None)
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [threading.Thread(target=caller) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        assert obs.counter("serve.rejected").value == 0.0
        assert obs.counter("serve.completed").value == 1600.0
        assert obs.gauge("serve.queue_depth").value == 0.0

    def test_served_operations_bypass_execute(self, sphere, monkeypatch):
        """``estimate``/``optimize`` run their bodies inside
        ``admitted()``, never through ``execute``: wrappers of
        ``execute`` (such as a layer tracer) see only the work that is
        handed to it."""

        def refuse(*args, **kwargs):
            raise AssertionError("execute called")

        monkeypatch.setattr(EstimationService, "execute", refuse)
        with EstimationService(sphere) as service:
            assert service.estimate("hive", QUERIES[2])["seconds"] > 0
            assert service.optimize(QUERIES[2])["location"]


class TestConcurrentDeterminism:
    def test_eight_workers_bit_identical_to_serial(self, sphere):
        """The acceptance criterion: estimates served to 8 concurrent
        calling threads equal single-threaded runs bit for bit."""
        reference = serial_reference(sphere)
        sphere.costing.invalidate_cache()
        with EstimationService(sphere, queue_depth=256) as service:
            results = [[] for _ in range(8)]
            errors = []

            def client(slot):
                try:
                    for round_index in range(5):
                        sql = QUERIES[(slot + round_index) % len(QUERIES)]
                        payload = service.estimate("hive", sql)
                        results[slot].append((sql, payload))
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(slot,), daemon=True)
                for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert errors == []
        checked = 0
        for slot_results in results:
            assert len(slot_results) == 5
            for sql, payload in slot_results:
                assert payload["seconds"] == reference[sql]  # bit-identical
                checked += 1
        assert checked == 40
        assert obs.counter("serve.completed").value == 40.0
        assert obs.counter("serve.errors").value == 0.0

    def test_query_ids_minted_at_admission(self, sphere):
        obs.reset_query_ids()
        with EstimationService(sphere) as service:
            ids = [
                service.execute(obs.current_query_id, query=f"q{i}")
                for i in range(4)
            ]
        assert ids == [
            "q-000001",
            "q-000002",
            "q-000003",
            "q-000004",
        ]

    def test_tenant_attribution_through_the_pool(self, sphere):
        with EstimationService(sphere) as service:
            service.estimate("hive", QUERIES[2], tenant="etl")
            service.estimate("hive", QUERIES[2], tenant="etl")
            service.estimate("hive", QUERIES[3], tenant="adhoc")
        snapshot = obs.get_tenant_ledger().snapshot()
        assert snapshot["etl"]["queries"] == 2
        assert snapshot["adhoc"]["queries"] == 1

    def test_worker_errors_do_not_kill_the_pool(self, sphere):
        with EstimationService(sphere, queue_depth=1) as service:
            with pytest.raises(ZeroDivisionError):
                service.execute(lambda: 1 / 0)
            assert service.execute(lambda: 7) == 7
        assert obs.counter("serve.errors").value == 1.0


class TestSwapUnderLoad:
    def test_swap_mid_load_keeps_estimates_identical(self, sphere):
        """Mid-load swaps: zero rejects caused by the swap, bit-identical
        estimates throughout, and no stale-generation cache entries."""
        reference = serial_reference(sphere)
        sphere.costing.invalidate_cache()
        stop = threading.Event()
        mismatches = []
        errors = []
        served = {"count": 0}

        with EstimationService(sphere, queue_depth=512) as service:

            def client(slot):
                index = slot
                while not stop.is_set():
                    sql = QUERIES[index % len(QUERIES)]
                    index += 1
                    try:
                        payload = service.estimate("hive", sql)
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)
                        return
                    if payload["seconds"] != reference[sql]:
                        mismatches.append((sql, payload))
                    served["count"] += 1

            threads = [
                threading.Thread(target=client, args=(slot,), daemon=True)
                for slot in range(8)
            ]
            for thread in threads:
                thread.start()

            generations = [sphere.costing.generation("hive")]
            for _ in range(3):
                generations.append(service.swap("hive")["generation"])
            stop.set()
            for thread in threads:
                thread.join(timeout=60.0)

        assert errors == []  # zero rejected/failed because of the swap
        assert mismatches == []  # no torn estimates across generations
        assert served["count"] >= 8
        # Generations moved strictly forward, one step per swap.
        assert generations == sorted(generations)
        assert len(set(generations)) == 4
        assert obs.counter("costing.model_swaps").value == 3.0
        # The cache retired every pre-swap key: its generation watermark
        # matches the live one, and a fresh lookup round only ever sees
        # current-generation entries.
        stats = sphere.costing.cache.stats()
        assert stats["generation"] == sphere.costing.generation("hive")
        assert stats["generation"] == generations[-1]

    def test_swap_bumps_generation_and_invalidate_retires_keys(self, sphere):
        sphere.costing.invalidate_cache()
        before = sphere.costing.generation("hive")
        plan = parse_select(QUERIES[0])
        first = sphere.costing.estimate_plan("hive", plan, sphere.catalog)
        cached = sphere.costing.estimate_plan("hive", plan, sphere.catalog)
        assert cached.cache_hit and cached.seconds == first.seconds
        after = sphere.swap_estimator("hive")
        assert after > before
        # The old generation's key no longer serves hits.
        fresh = sphere.costing.estimate_plan("hive", plan, sphere.catalog)
        assert not fresh.cache_hit
        assert fresh.seconds == first.seconds  # rebuilt model, same math
        assert obs.gauge("costing.model_generation").value == float(after)


class TestSaturationAndProfiling:
    def test_queue_depth_gauge_zeroed_after_stop(self, sphere):
        with EstimationService(sphere) as service:
            service.estimate("hive", QUERIES[2])
            assert obs.counter("serve.admitted").value == 1.0
        # Every slot is released when its request ends: a stopped
        # service must not report phantom in-flight requests.
        assert obs.gauge("serve.queue_depth").value == 0.0
        assert obs.histogram("serve.latency_seconds").count == 1

    def test_eight_workers_bit_identical_with_sampler_running(
        self, sphere, monkeypatch
    ):
        """The profiling acceptance criterion: a service run with the
        stack sampler on serves estimates bit-identical to serial runs,
        the sampler walks the calling threads the estimates run on, and
        the service owns the sampler's shutdown."""
        monkeypatch.setenv(obs.PROF_ENV_VAR, "300")
        reference = serial_reference(sphere)
        sphere.costing.invalidate_cache()
        with EstimationService(sphere, queue_depth=256) as service:
            sampler = obs.get_stack_sampler()
            assert sampler is not None and sampler.running
            results = [[] for _ in range(8)]
            errors = []
            release = threading.Event()

            def client(slot):
                try:
                    for round_index in range(5):
                        sql = QUERIES[(slot + round_index) % len(QUERIES)]
                        payload = service.estimate("hive", sql)
                        results[slot].append((sql, payload))
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                # Stay alive until the sampler has walked this thread.
                release.wait(10.0)

            threads = [
                threading.Thread(
                    target=client,
                    args=(slot,),
                    name=f"repro-sim-caller-{slot}",
                    daemon=True,
                )
                for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            while not all(len(r) == 5 for r in results) and not errors:
                time.sleep(0.01)
            mark = sampler.sampled
            deadline = time.monotonic() + 10.0
            while sampler.sampled < mark + 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            release.set()
            for thread in threads:
                thread.join(timeout=60.0)
        assert errors == []
        for slot_results in results:
            assert len(slot_results) == 5
            for sql, payload in slot_results:
                assert payload["seconds"] == reference[sql]  # bit-identical
        # stop() shut the sampler down and uninstalled it
        assert obs.get_stack_sampler() is None
        assert not sampler.running
        assert sampler.sampled > 0  # it really did observe the run
        roles = {s.split(";")[0] for s in sampler.merged_stacks()}
        assert f"[{obs.role_for_thread(threads[0].name)}]" in roles

    def test_sampler_not_started_when_env_off(self, sphere, monkeypatch):
        monkeypatch.delenv(obs.PROF_ENV_VAR, raising=False)
        with EstimationService(sphere) as service:
            service.estimate("hive", QUERIES[2])
            assert obs.get_stack_sampler() is None


def post(url, payload, headers=None, timeout=30.0):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read()),
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def get(url, timeout=30.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


class TestHttpEndpoints:
    @pytest.fixture()
    def daemon(self, sphere):
        with ServeDaemon(sphere, port=0, queue_depth=32) as running:
            yield running

    def test_estimate_endpoint(self, sphere, daemon):
        status, _, payload = post(
            daemon.url + "/estimate",
            {"system": "hive", "sql": QUERIES[1]},
            headers={"X-Repro-Tenant": "analytics"},
        )
        assert status == 200
        assert payload["system"] == "hive"
        assert payload["operator"] == "aggregate"
        assert payload["seconds"] > 0
        assert payload["generation"] == sphere.costing.generation("hive")
        snapshot = obs.get_tenant_ledger().snapshot()
        assert snapshot["analytics"]["queries"] == 1

    def test_optimize_endpoint(self, daemon):
        status, _, payload = post(daemon.url + "/optimize", {"sql": QUERIES[2]})
        assert status == 200
        assert payload["location"] in ("hive", "teradata")
        assert payload["steps"]
        assert payload["alternatives"]

    def test_swap_endpoint(self, sphere, daemon):
        before = sphere.costing.generation("hive")
        status, _, payload = post(daemon.url + "/swap", {"system": "hive"})
        assert status == 200
        assert payload == {"system": "hive", "generation": before + 1}

    def test_error_mapping(self, daemon):
        url = daemon.url
        assert post(url + "/estimate", {"system": "hive"})[0] == 400
        assert post(url + "/estimate", {"sql": "x", "system": ""})[0] == 400
        bad_sql = post(url + "/estimate", {"system": "hive", "sql": "SELEKT"})
        assert bad_sql[0] == 400
        unknown = post(url + "/estimate", {"system": "nope", "sql": QUERIES[2]})
        assert unknown[0] == 404
        status, body = get(url + "/estimate")  # GET on a POST route
        assert status == 405
        assert "POST" in json.loads(body)["allow"]

    def test_obs_plane_shares_the_port(self, daemon):
        post(daemon.url + "/estimate", {"system": "hive", "sql": QUERIES[2]})
        status, body = get(daemon.url + "/metrics.json")
        assert status == 200
        metrics = json.loads(body)["metrics"]
        assert metrics["serve.admitted"]["value"] >= 1.0
        assert "costing.model_generation" in metrics
        for path in ("/metrics", "/health", "/tenants", "/dashboard"):
            assert get(daemon.url + path)[0] == 200

    def test_backpressure_maps_to_503_with_retry_after(self, sphere):
        with ServeDaemon(sphere, port=0, queue_depth=1) as daemon:
            # Saturate: one request parked inside execute holds the slot.
            release, threads = run_parked(daemon.service, 1)
            try:
                status, headers, payload = post(
                    daemon.url + "/estimate",
                    {"system": "hive", "sql": QUERIES[2]},
                )
            finally:
                release.set()
                threads[0].join(10.0)
            assert status == 503
            assert headers.get("Retry-After") == "1"
            assert payload == {
                "error": "admission queue full",
                "depth": 1,
                "limit": 1,
                "retry_after": 1.0,
            }
        assert obs.counter("serve.rejected").value == 1.0


class TestServeCliWiring:
    def test_parser_defaults(self):
        from repro.cli import build_parser, cmd_serve

        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.func is cmd_serve
        assert args.port == 0
        assert args.queue_depth == 64
        assert args.tenant_header == "X-Repro-Tenant"
