"""``repro.obs`` — unified observability: event tracing, metrics, and
run provenance.

Public surface (re-exported here):

* the telemetry switch — :func:`enable`, :func:`disable`,
  :func:`reset`, :func:`is_enabled`;
* emission — :func:`emit`, :func:`capture`, :func:`replay`,
  :func:`observe_span`, and the event-kind constants;
* accessors — :func:`get_log`, :func:`get_registry`,
  :func:`get_tracer`;
* export — :func:`write_trace`, :func:`read_trace`,
  :func:`render_live_summary` and the ``repro profile`` formatters.

Telemetry is off by default; when off, every entry point above is a
cheap no-op, so call sites instrument unconditionally.
"""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "events": (
        "ATTEMPT_END", "ATTEMPT_START", "CACHE_HIT", "CACHE_MISS",
        "CHECKPOINT_REUSE", "CHECKPOINT_WRITE", "Capsule", "Event", "EventLog",
        "FAULT_INJECTION", "FRONTIER_LEVEL", "HOST_KINDS", "MESSAGE_DELIVERY",
        "ORBIT_REUSE", "ROUND_END", "ROUND_START", "RUN_KINDS", "SHRINK_STEP",
        "SPAN_END", "SPAN_START", "SWEEP_POINT", "TIMED_EVENT", "TRIE_REPLAY",
        "WORKER_MERGE", "WORKER_POOL", "WORKER_RETRY", "capture", "disable",
        "emit", "enable", "get_log", "get_registry", "get_tracer",
        "is_enabled", "observe_span", "replay", "reset",
    ),
    "export": (
        "TRACE_FORMAT", "format_events", "format_metrics", "read_trace",
        "registry_from_trace", "render_live_summary", "summarize_trace",
        "trace_lines", "write_trace",
    ),
    "metrics": (
        "MetricsRegistry", "absorb_cache_stats", "absorb_connectivity_stats",
        "absorb_incremental_stats", "absorb_orbit_stats",
        "absorb_search_stats", "describe_cache", "describe_incremental",
        "describe_orbit", "describe_search_stats", "metric_key",
    ),
    "tracer": ("SpanAggregate", "Tracer"),
})
