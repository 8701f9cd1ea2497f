"""Observability for the cost estimation module.

The paper's architecture is a supervised feedback loop (Fig. 3):
estimates go out, actuals come back, α recalibrates, the offline tuner
folds logs into the models.  This package is the runtime instrumentation
around that loop:

* :mod:`repro.obs.metrics` — a thread-safe, zero-dependency registry of
  named counters, gauges, and fixed-bucket histograms, with a
  process-wide default;
* :mod:`repro.obs.tracing` — context-manager spans over the estimate
  path (wall-clock and simulated seconds kept distinct), with a no-op
  fast path when disabled and JSON export;
* :mod:`repro.obs.ledger` — the accuracy ledger: rolling q-error /
  RMSE% / slope per (system, operator), fed by ``record_actual``;
* :mod:`repro.obs.journal` — the persistent event journal: an
  append-only, schema-versioned, size-rotated JSONL stream of
  feedback-loop events (estimate/actual/remedy/tuning/drift) with a
  deterministic :func:`~repro.obs.journal.replay` that rebuilds the
  ledger and journal-backed counters in a fresh process;
* :mod:`repro.obs.profiler` — per-query cost-breakdown reports (text
  and self-contained HTML) assembled from recorded span trees, plus
  the aggregate journal report;
* :mod:`repro.obs.regress` — the performance-regression gate's
  baseline schema and comparison logic (driven by
  ``benchmarks/regress.py``);
* :mod:`repro.obs.exporters` — JSON-file and Prometheus-text exports;
* :mod:`repro.obs.context` — the query-scoped trace context: a
  ``contextvars`` query id (and tenant) propagated end-to-end,
  head-based trace sampling (env ``REPRO_OBS_SAMPLE``), per-query
  completion hooks, and the per-system exemplar store that lets alerts
  name concrete queries;
* :mod:`repro.obs.tail` — tail-based trace sampling: the keep/drop
  decision moves to query *completion*, keeping latency/q-error/error
  breaches (env ``REPRO_OBS_TAIL_LATENCY`` / ``REPRO_OBS_TAIL_QERROR``)
  with the head-sample rate as a floor;
* :mod:`repro.obs.flight` — the black-box flight recorder: rings of
  recent query records and journal events, frozen into deterministic,
  replayable incident bundles (JSONL + HTML) when an alert fires or a
  drift alarm trips (dump dir via env ``REPRO_OBS_FLIGHT_DIR``);
* :mod:`repro.obs.tenants` — per-tenant cost attribution: traffic,
  estimated seconds, and q-error accumulated per workload, ranked on
  the dashboard and served by ``repro tenants``;
* :mod:`repro.obs.alerts` — the declarative SLO rule engine: evaluates
  thresholds over metrics/ledger/drift/cache observations, journals
  schema-versioned ``alert`` events on firing/resolved transitions;
* :mod:`repro.obs.health` — observation snapshots (live or replayed
  from a journal) and the per-remote-system composite health score;
* :mod:`repro.obs.dashboard` — the self-contained HTML health
  dashboard with journal-derived q-error sparklines;
* :mod:`repro.obs.timeseries` — the live telemetry plane: a windowed
  aggregator (quantile histograms, counter deltas, gauge last-values)
  fed by a registry observer hook, with a bounded ring of closed
  windows journaled as ``window`` events;
* :mod:`repro.obs.sampling` — the continuous stack-sampling profiler:
  a daemon thread walks ``sys._current_frames()`` at a configurable hz
  (env ``REPRO_OBS_PROF``), tags threads by role, and folds stacks
  into bounded deterministic :class:`~repro.obs.sampling.ProfileWindow`
  aggregates journaled as ``profile`` events rebuildable offline;
* :mod:`repro.obs.flamegraph` — flamegraph HTML rendering, flat
  hot-frame tables, and differential profiles over folded stacks
  (``repro flamegraph`` / ``--diff A B``);
* :mod:`repro.obs.server` — the stdlib HTTP observability server
  (``/metrics``, ``/metrics.json``, ``/health``, ``/alerts``,
  ``/timeseries``, ``/profile``, ``/dashboard``) behind
  ``repro serve-obs`` or embedded via
  :class:`~repro.obs.server.ObsServer`;
* :mod:`repro.obs.logconf` — stdlib-logging configuration for the
  ``repro`` logger hierarchy.

Instrumented subsystems must import *this* package, never the other way
around: :mod:`repro.obs` depends only on the standard library.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsObserver,
    MetricsRegistry,
    DEFAULT_SECONDS_BUCKETS,
    WALL_SECONDS_BUCKETS,
    Q_ERROR_BUCKETS,
    counter,
    gauge,
    get_registry,
    histogram,
    set_registry,
)
from repro.obs.tail import (
    KEEP_REASONS,
    TAIL_LATENCY_ENV_VAR,
    TAIL_QERROR_ENV_VAR,
    QueryOutcome,
    TailDecision,
    TailSampler,
    get_tail_sampler,
    set_tail_sampler,
)
from repro.obs.tracing import (
    NOOP_SPAN,
    Span,
    Tracer,
    get_tracer,
    render_span_tree,
)
from repro.obs.ledger import (
    AccuracyLedger,
    AccuracyStats,
    LedgerEntry,
    get_ledger,
    set_ledger,
)
from repro.obs.journal import (
    EVENT_TYPES,
    JOURNAL_ENV_VAR,
    NOOP_JOURNAL,
    EventJournal,
    JournalEvent,
    NoopJournal,
    ReplayResult,
    add_journal_listener,
    get_journal,
    read_journal,
    remove_journal_listener,
    replay,
    set_journal,
)
from repro.obs.flight import (
    FLIGHT_DIR_ENV_VAR,
    FLIGHT_SCHEMA_VERSION,
    FlightRecord,
    FlightRecorder,
    IncidentBundle,
    get_flight_recorder,
    incidents_from_events,
    load_bundle,
    render_bundle_html,
    set_flight_recorder,
    trigger_incident,
)
from repro.obs.tenants import (
    TenantLedger,
    get_tenant_ledger,
    rank_tenants,
    set_tenant_ledger,
)
from repro.obs.profiler import (
    QueryProfile,
    build_profile,
    render_html,
    render_text,
)
from repro.obs.exporters import (
    build_snapshot,
    derive_gauges,
    format_snapshot_text,
    load_json_snapshot,
    to_prometheus_text,
    write_json_snapshot,
)
from repro.obs.context import (
    SAMPLE_ENV_VAR,
    ExemplarStore,
    HeadSampler,
    QueryContext,
    QueryStats,
    add_completion_hook,
    current_context,
    current_query_id,
    current_sampled,
    current_tenant,
    ensure_query_context,
    get_exemplar_store,
    get_sampler,
    note_estimated_seconds,
    note_query_q_error,
    query_context,
    record_exemplar,
    remove_completion_hook,
    reset_query_ids,
    set_exemplar_store,
    set_sampler,
)
from repro.obs.alerts import (
    ALERT_SCHEMA_VERSION,
    Alert,
    AlertEngine,
    AlertReport,
    AlertRule,
    default_rules,
    load_rules,
    rules_from_json,
)
from repro.obs.health import (
    OBSERVATION_VERSION,
    SystemHealth,
    build_observation,
    evaluate_health,
    observation_from_events,
    observation_from_journal,
    observation_from_snapshot,
    worst_grade,
)
from repro.obs.dashboard import (
    build_history,
    history_from_windows,
    render_dashboard,
)
from repro.obs.timeseries import (
    WINDOW_RETENTION_ENV_VAR,
    WINDOW_SCHEMA_VERSION,
    WINDOW_WIDTH_ENV_VAR,
    HistogramWindow,
    ManualClock,
    TimeSeriesAggregator,
    WindowSummary,
    disable_timeseries,
    enable_timeseries,
    get_timeseries,
    log_buckets,
    maybe_roll_timeseries,
    set_timeseries,
    windows_from_events,
)
from repro.obs.sampling import (
    DEFAULT_HZ,
    PROF_ENV_VAR,
    PROF_WINDOW_ENV_VAR,
    PROFILE_SCHEMA_VERSION,
    ProfileWindow,
    StackSampler,
    fold_stack,
    get_stack_sampler,
    maybe_start_sampling,
    merge_stacks,
    profiles_from_events,
    register_thread_role,
    role_for_thread,
    set_stack_sampler,
    start_sampling,
    stop_sampling,
)
from repro.obs.flamegraph import (
    FlameNode,
    FrameDelta,
    build_flame,
    diff_frames,
    frame_stats,
    render_collapsed,
    render_diff_html,
    render_diff_text,
    render_flamegraph_fragment,
    render_flamegraph_html,
    render_top_text,
)
from repro.obs.server import HttpRequest, HttpResponse, ObsServer, json_response
from repro.obs.logconf import configure as configure_logging

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsObserver",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "WALL_SECONDS_BUCKETS",
    "Q_ERROR_BUCKETS",
    "counter",
    "gauge",
    "histogram",
    "get_registry",
    "set_registry",
    "KEEP_REASONS",
    "TAIL_LATENCY_ENV_VAR",
    "TAIL_QERROR_ENV_VAR",
    "QueryOutcome",
    "TailDecision",
    "TailSampler",
    "get_tail_sampler",
    "set_tail_sampler",
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "get_tracer",
    "render_span_tree",
    "AccuracyLedger",
    "AccuracyStats",
    "LedgerEntry",
    "get_ledger",
    "set_ledger",
    "EVENT_TYPES",
    "JOURNAL_ENV_VAR",
    "NOOP_JOURNAL",
    "EventJournal",
    "JournalEvent",
    "NoopJournal",
    "ReplayResult",
    "add_journal_listener",
    "get_journal",
    "read_journal",
    "remove_journal_listener",
    "replay",
    "set_journal",
    "FLIGHT_DIR_ENV_VAR",
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecord",
    "FlightRecorder",
    "IncidentBundle",
    "get_flight_recorder",
    "incidents_from_events",
    "load_bundle",
    "render_bundle_html",
    "set_flight_recorder",
    "trigger_incident",
    "TenantLedger",
    "get_tenant_ledger",
    "rank_tenants",
    "set_tenant_ledger",
    "QueryProfile",
    "build_profile",
    "render_html",
    "render_text",
    "build_snapshot",
    "derive_gauges",
    "format_snapshot_text",
    "load_json_snapshot",
    "to_prometheus_text",
    "write_json_snapshot",
    "SAMPLE_ENV_VAR",
    "ExemplarStore",
    "HeadSampler",
    "QueryContext",
    "QueryStats",
    "add_completion_hook",
    "current_context",
    "current_query_id",
    "current_sampled",
    "current_tenant",
    "ensure_query_context",
    "get_exemplar_store",
    "get_sampler",
    "note_estimated_seconds",
    "note_query_q_error",
    "query_context",
    "record_exemplar",
    "remove_completion_hook",
    "reset_query_ids",
    "set_exemplar_store",
    "set_sampler",
    "ALERT_SCHEMA_VERSION",
    "Alert",
    "AlertEngine",
    "AlertReport",
    "AlertRule",
    "default_rules",
    "load_rules",
    "rules_from_json",
    "OBSERVATION_VERSION",
    "SystemHealth",
    "build_observation",
    "evaluate_health",
    "observation_from_events",
    "observation_from_journal",
    "observation_from_snapshot",
    "worst_grade",
    "build_history",
    "history_from_windows",
    "render_dashboard",
    "WINDOW_RETENTION_ENV_VAR",
    "WINDOW_SCHEMA_VERSION",
    "WINDOW_WIDTH_ENV_VAR",
    "HistogramWindow",
    "ManualClock",
    "TimeSeriesAggregator",
    "WindowSummary",
    "disable_timeseries",
    "enable_timeseries",
    "get_timeseries",
    "log_buckets",
    "maybe_roll_timeseries",
    "set_timeseries",
    "windows_from_events",
    "DEFAULT_HZ",
    "PROF_ENV_VAR",
    "PROF_WINDOW_ENV_VAR",
    "PROFILE_SCHEMA_VERSION",
    "ProfileWindow",
    "StackSampler",
    "fold_stack",
    "get_stack_sampler",
    "maybe_start_sampling",
    "merge_stacks",
    "profiles_from_events",
    "register_thread_role",
    "role_for_thread",
    "set_stack_sampler",
    "start_sampling",
    "stop_sampling",
    "FlameNode",
    "FrameDelta",
    "build_flame",
    "diff_frames",
    "frame_stats",
    "render_collapsed",
    "render_diff_html",
    "render_diff_text",
    "render_flamegraph_fragment",
    "render_flamegraph_html",
    "render_top_text",
    "HttpRequest",
    "HttpResponse",
    "ObsServer",
    "json_response",
    "configure_logging",
]
