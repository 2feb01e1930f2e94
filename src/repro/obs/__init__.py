"""``repro.obs`` — the observability layer: metrics, traces, logs.

Quick start::

    from repro import obs

    context = obs.enable_observability(log_level="info", install=True)
    pipeline = StudyPipeline(obs=context)
    report = pipeline.run()
    context.metrics.to_json()                  # metrics snapshot
    context.tracer.write_chrome_trace("t.json")  # chrome://tracing file

Everything defaults to the no-op null backend; see
``docs/observability.md`` for conventions and the instrumentation map.
"""

from repro.obs.context import (
    NULL_OBS,
    NullMetricsRegistry,
    Observability,
    enable_observability,
    get_obs,
    set_obs,
    use_obs,
)
from repro.obs.events import (
    NULL_EVENT_BUS,
    EventBus,
    NullEventBus,
    open_event_stream,
    process_stats,
)
from repro.obs.logging import LogManager, NullLogger, StructuredLogger
from repro.obs.profile import (
    DEFAULT_PROFILE_HZ,
    NULL_PROFILER,
    NullProfiler,
    Profile,
    ProfileError,
    SamplingProfiler,
    SpanResourceProbe,
    span_resource_table,
    write_profile_outputs,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.obs.snapshot import ObsSnapshot, ObsSnapshotError
from repro.obs.tracing import NullTracer, Span, Tracer

__all__ = [
    "NULL_EVENT_BUS",
    "EventBus",
    "NullEventBus",
    "ObsSnapshot",
    "ObsSnapshotError",
    "open_event_stream",
    "process_stats",
    "NULL_OBS",
    "NullMetricsRegistry",
    "Observability",
    "enable_observability",
    "get_obs",
    "set_obs",
    "use_obs",
    "LogManager",
    "NullLogger",
    "StructuredLogger",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus_text",
    "DEFAULT_PROFILE_HZ",
    "NULL_PROFILER",
    "NullProfiler",
    "Profile",
    "ProfileError",
    "SamplingProfiler",
    "SpanResourceProbe",
    "span_resource_table",
    "write_profile_outputs",
    "NullTracer",
    "Span",
    "Tracer",
]
