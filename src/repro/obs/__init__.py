"""Observability: trace spans, the unified metrics registry, exporters.

Three pillars (docs/OBSERVABILITY.md):

* :mod:`repro.obs.trace` — ``span("checksafe", trail=...)`` context
  managers threaded through the driver, the bound analysis, the
  fixpoint engine and the cache tiers, exported as JSONL;
* :mod:`repro.obs.metrics` — counters / gauges / log-bucket histograms
  in one registry, with pull-time collectors over the pre-existing
  ``PerfStats`` / ``ServiceStats`` counters;
* :mod:`repro.obs.exporters` — Prometheus text exposition (the service
  ``metrics`` op, ``repro metrics``) and JSON snapshots.

Everything is gated by the ``REPRO_OBS`` switch
(:mod:`repro.obs.runtime`), default **off**; the off-path is
behaviorally identical to the uninstrumented engine, mirroring the
``REPRO_PERF`` convention.
"""

from repro.obs.metrics import DEFAULT_BUCKETS, Family, MetricsRegistry, REGISTRY
from repro.obs.runtime import enabled, override, set_enabled, set_trace_path, trace_path
from repro.obs.trace import COLLECTOR, Span, current_context, load_trace, span
from repro.obs.exporters import (
    metrics_json,
    metrics_snapshot,
    perf_stats_families,
    prometheus_text,
    register_perf_collector,
)

__all__ = [
    "COLLECTOR",
    "DEFAULT_BUCKETS",
    "Family",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "current_context",
    "enabled",
    "load_trace",
    "metrics_json",
    "metrics_snapshot",
    "override",
    "perf_stats_families",
    "prometheus_text",
    "register_perf_collector",
    "set_enabled",
    "set_trace_path",
    "span",
    "trace_path",
]
