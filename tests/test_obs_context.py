"""Query-scoped trace context: id minting, head sampling, exemplars,
and the propagation contract with the tracer."""

import threading

import pytest

from repro import obs
from repro.obs import context as ctx


@pytest.fixture(autouse=True)
def _fresh_context_state():
    """Isolate query ids, sampler, and exemplars per test."""
    obs.reset_query_ids()
    previous_sampler = obs.set_sampler(ctx.HeadSampler(rate=1.0))
    previous_store = obs.set_exemplar_store(ctx.ExemplarStore())
    previous_ledger = obs.set_tenant_ledger(obs.TenantLedger())
    yield
    obs.set_tenant_ledger(previous_ledger)
    obs.set_sampler(previous_sampler)
    obs.set_exemplar_store(previous_store)
    obs.reset_query_ids()


class TestQueryContext:
    def test_no_context_outside_scope(self):
        assert obs.current_context() is None
        assert obs.current_query_id() is None
        assert obs.current_sampled() is True

    def test_ids_are_monotonic_and_resettable(self):
        with obs.query_context() as first:
            pass
        with obs.query_context() as second:
            pass
        assert first.query_id == "q-000001"
        assert second.query_id == "q-000002"
        obs.reset_query_ids()
        with obs.query_context() as again:
            assert again.query_id == "q-000001"

    def test_scope_installs_and_restores(self):
        with obs.query_context(query="SELECT 1") as context:
            assert obs.current_context() is context
            assert obs.current_query_id() == context.query_id
            assert context.query == "SELECT 1"
        assert obs.current_context() is None

    def test_explicit_query_id_wins(self):
        with obs.query_context(query_id="q-custom") as context:
            assert context.query_id == "q-custom"

    def test_ensure_joins_active_scope(self):
        with obs.query_context() as outer:
            with obs.ensure_query_context() as inner:
                assert inner is outer
                assert obs.current_query_id() == outer.query_id
            # Leaving the joined scope must not tear down the outer one.
            assert obs.current_context() is outer

    def test_ensure_mints_when_no_scope(self):
        with obs.ensure_query_context(query="SELECT 2") as context:
            assert context.query_id == "q-000001"
            assert obs.current_context() is context
        assert obs.current_context() is None

    def test_nested_new_scopes_restore_parent(self):
        with obs.query_context() as outer:
            with obs.query_context() as inner:
                assert obs.current_query_id() == inner.query_id
            assert obs.current_query_id() == outer.query_id

    def test_counts_opened_queries(self):
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            with obs.query_context():
                pass
            with obs.query_context():
                pass
            assert registry.counter("context.queries").value == 2.0
        finally:
            obs.set_registry(previous)

    def test_context_propagates_across_threads_via_copy_context(self):
        import contextvars

        seen = {}

        def probe():
            seen["query_id"] = obs.current_query_id()

        with obs.query_context() as context:
            snapshot = contextvars.copy_context()
            thread = threading.Thread(target=lambda: snapshot.run(probe))
            thread.start()
            thread.join()
        assert seen["query_id"] == context.query_id


class TestHeadSampler:
    def test_rate_one_samples_everything(self):
        sampler = ctx.HeadSampler(rate=1.0)
        assert all(sampler.decide() for _ in range(10))

    def test_rate_zero_samples_nothing(self):
        sampler = ctx.HeadSampler(rate=0.0)
        assert not any(sampler.decide() for _ in range(10))

    def test_rate_quarter_keeps_every_fourth_deterministically(self):
        sampler = ctx.HeadSampler(rate=0.25)
        decisions = [sampler.decide() for _ in range(12)]
        assert decisions == [False, False, False, True] * 3

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ctx.HeadSampler(rate=1.5)
        with pytest.raises(ValueError):
            ctx.HeadSampler(rate=-0.1)

    def test_reset_restarts_the_accumulator(self):
        sampler = ctx.HeadSampler(rate=0.5)
        first = [sampler.decide() for _ in range(4)]
        sampler.reset()
        assert [sampler.decide() for _ in range(4)] == first

    def test_env_var_configures_default_sampler(self, monkeypatch):
        monkeypatch.setenv(ctx.SAMPLE_ENV_VAR, "0.5")
        obs.set_sampler(None)  # force re-read of the environment
        try:
            assert obs.get_sampler().rate == 0.5
        finally:
            obs.set_sampler(ctx.HeadSampler(rate=1.0))

    def test_invalid_env_var_falls_back_to_full_sampling(self, monkeypatch):
        monkeypatch.setenv(ctx.SAMPLE_ENV_VAR, "not-a-number")
        obs.set_sampler(None)
        try:
            assert obs.get_sampler().rate == 1.0
        finally:
            obs.set_sampler(ctx.HeadSampler(rate=1.0))

    def test_unsampled_queries_counted(self):
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        obs.set_sampler(ctx.HeadSampler(rate=0.0))
        try:
            with obs.query_context():
                pass
            assert registry.counter("context.unsampled_queries").value == 1.0
        finally:
            obs.set_registry(previous)


class TestTracerIntegration:
    def test_unsampled_context_collapses_spans_to_noop(self):
        tracer = obs.Tracer()
        tracer.enable()
        with obs.query_context(sampled=False):
            span = tracer.span("probe")
        assert span is obs.NOOP_SPAN

    def test_sampled_span_carries_the_query_id(self):
        tracer = obs.Tracer()
        tracer.enable()
        with obs.query_context(sampled=True) as context:
            with tracer.span("probe") as span:
                pass
        assert span.attributes["query_id"] == context.query_id

    def test_explicit_query_id_attribute_is_not_overwritten(self):
        tracer = obs.Tracer()
        tracer.enable()
        with obs.query_context(sampled=True):
            with tracer.span("probe", query_id="explicit") as span:
                pass
        assert span.attributes["query_id"] == "explicit"

    def test_disabled_tracer_stays_noop_regardless_of_context(self):
        tracer = obs.Tracer()
        with obs.query_context(sampled=True):
            assert tracer.span("probe") is obs.NOOP_SPAN

    def test_spans_outside_any_context_record_normally(self):
        tracer = obs.Tracer()
        tracer.enable()
        with tracer.span("probe") as span:
            pass
        assert "query_id" not in span.attributes


class TestExemplarStore:
    def test_record_and_recent(self):
        store = ctx.ExemplarStore(per_key=3)
        for qid in ("q-1", "q-2", "q-3"):
            store.record("hive", qid)
        assert store.recent("hive") == ("q-1", "q-2", "q-3")
        assert store.recent("spark") == ()

    def test_ring_buffer_drops_oldest(self):
        store = ctx.ExemplarStore(per_key=2)
        for qid in ("q-1", "q-2", "q-3"):
            store.record("hive", qid)
        assert store.recent("hive") == ("q-2", "q-3")

    def test_duplicate_moves_to_newest(self):
        store = ctx.ExemplarStore(per_key=3)
        for qid in ("q-1", "q-2", "q-1"):
            store.record("hive", qid)
        assert store.recent("hive") == ("q-2", "q-1")

    def test_snapshot_is_sorted_and_detached(self):
        store = ctx.ExemplarStore()
        store.record("spark", "q-2")
        store.record("hive", "q-1")
        snapshot = store.snapshot()
        assert list(snapshot) == ["hive", "spark"]
        snapshot["hive"].append("mutated")
        assert store.recent("hive") == ("q-1",)

    def test_empty_key_or_id_ignored(self):
        store = ctx.ExemplarStore()
        store.record("", "q-1")
        store.record("hive", "")
        assert store.snapshot() == {}

    def test_validates_capacity(self):
        with pytest.raises(ValueError):
            ctx.ExemplarStore(per_key=0)

    def test_record_exemplar_uses_active_context(self):
        with obs.query_context() as context:
            obs.record_exemplar("hive")
        assert obs.get_exemplar_store().recent("hive") == (context.query_id,)

    def test_record_exemplar_noop_outside_context(self):
        obs.record_exemplar("hive")
        assert obs.get_exemplar_store().recent("hive") == ()

    def test_concurrent_records_stay_consistent(self):
        store = ctx.ExemplarStore(per_key=4)

        def worker(start):
            for index in range(200):
                store.record("hive", f"q-{start + index}")

        threads = [
            threading.Thread(target=worker, args=(1000 * t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        recent = store.recent("hive")
        assert len(recent) == 4
        assert len(set(recent)) == 4


class TestCompletionHooks:
    """The owning scope times the query, builds the outcome, and
    dispatches (outcome, decision) to every registered hook."""

    def _capture(self):
        seen = []
        hook = lambda outcome, decision: seen.append((outcome, decision))  # noqa: E731
        return seen, hook

    def test_outcome_carries_timing_and_identity(self):
        seen, hook = self._capture()
        obs.add_completion_hook(hook)
        try:
            with obs.query_context(query="SELECT 1", tenant="etl") as context:
                query_id = context.query_id
        finally:
            obs.remove_completion_hook(hook)
        (outcome, _), = seen
        assert outcome.query_id == query_id
        assert outcome.query == "SELECT 1"
        assert outcome.tenant == "etl"
        assert outcome.wall_seconds > 0.0
        assert outcome.error == ""

    def test_outcome_names_the_escaping_exception(self):
        seen, hook = self._capture()
        obs.add_completion_hook(hook)
        try:
            with pytest.raises(TimeoutError):
                with obs.query_context(query="SELECT 1"):
                    raise TimeoutError("remote died")
        finally:
            obs.remove_completion_hook(hook)
        (outcome, _), = seen
        assert outcome.error == "TimeoutError"

    def test_joining_scope_never_double_dispatches(self):
        seen, hook = self._capture()
        obs.add_completion_hook(hook)
        try:
            with obs.query_context(query="SELECT 1"):
                with obs.ensure_query_context(query="inner"):
                    pass
        finally:
            obs.remove_completion_hook(hook)
        assert len(seen) == 1

    def test_raising_hook_is_counted_and_isolated(self):
        previous_registry = obs.set_registry(obs.MetricsRegistry())

        def broken(outcome, decision):
            raise RuntimeError("hook bug")

        seen, capture = self._capture()
        obs.add_completion_hook(broken)
        obs.add_completion_hook(capture)
        try:
            with obs.query_context(query="SELECT 1"):
                pass
            errors = obs.get_registry().counter(
                "context.completion_hook_errors"
            ).value
        finally:
            obs.remove_completion_hook(capture)
            obs.remove_completion_hook(broken)
            obs.set_registry(previous_registry)
        assert errors == 1.0
        assert len(seen) == 1  # the later hook still ran

    def test_duplicate_registration_is_idempotent(self):
        seen, hook = self._capture()
        obs.add_completion_hook(hook)
        obs.add_completion_hook(hook)
        try:
            with obs.query_context(query="SELECT 1"):
                pass
        finally:
            obs.remove_completion_hook(hook)
        assert len(seen) == 1
        obs.remove_completion_hook(hook)  # second removal is a no-op
