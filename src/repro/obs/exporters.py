"""Metric exporters: Prometheus text exposition and JSON snapshots.

The exposition follows the Prometheus text format, version 0.0.4: one
``# HELP`` and ``# TYPE`` line per family, samples sorted by name then
label set, histogram children expanded into cumulative ``_bucket``
samples (``le`` labels, closing ``+Inf``) plus ``_sum`` / ``_count``.
Escaping rules are the spec's: ``\\`` and newline in help text; ``\\``,
``"`` and newline in label values.

Also here: the **pull-time collectors** that migrate the pre-existing
stats objects onto the unified registry.  :func:`perf_stats_families`
turns :data:`repro.perf.runtime.STATS` (cache hit/miss pairs and
one-sided events) into counter families; the daemon registers its own
equivalents for ``ServiceStats``, queue depth, and shard states
(:mod:`repro.service.aio`).  Collectors read shared counters that
were going to be maintained anyway, so unification costs the hot paths
nothing.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.metrics import Child, Family, MetricsRegistry
from repro.perf import runtime as perf_runtime


# -- prometheus text exposition ----------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return "%d" % int(value)
    return repr(float(value))


def _format_labels(pairs) -> str:
    if not pairs:
        return ""
    rendered = ",".join(
        '%s="%s"' % (name, _escape_label_value(str(value))) for name, value in pairs
    )
    return "{%s}" % rendered


def _bucket_le(bound: float) -> str:
    return _format_value(bound)


def _merged(registries) -> List[Family]:
    families: Dict[str, Family] = {}
    for registry in registries:
        for family in registry.collect():
            families[family.name] = family
    return [families[name] for name in sorted(families)]


def _render_family(family: Family, lines: List[str]) -> None:
    lines.append("# HELP %s %s" % (family.name, _escape_help(family.help)))
    lines.append("# TYPE %s %s" % (family.name, family.kind))
    children = sorted(family.children(), key=lambda c: c.key)
    if family.kind in ("counter", "gauge"):
        for child in children:
            lines.append(
                "%s%s %s"
                % (family.name, _format_labels(child.key), _format_value(child.value))
            )
        return
    for child in children:
        assert child.bucket_counts is not None
        cumulative = 0
        for bound, count in zip(family.buckets, child.bucket_counts):
            cumulative += count
            pairs = child.key + (("le", _bucket_le(bound)),)
            lines.append(
                "%s_bucket%s %d" % (family.name, _format_labels(pairs), cumulative)
            )
        pairs = child.key + (("le", "+Inf"),)
        lines.append(
            "%s_bucket%s %d" % (family.name, _format_labels(pairs), child.count)
        )
        lines.append(
            "%s_sum%s %s"
            % (family.name, _format_labels(child.key), _format_value(child.sum))
        )
        lines.append(
            "%s_count%s %d" % (family.name, _format_labels(child.key), child.count)
        )


def prometheus_text(*registries: MetricsRegistry) -> str:
    """The text exposition of one or more registries (later registries
    shadow earlier ones on a family-name clash)."""
    lines: List[str] = []
    for family in _merged(registries):
        _render_family(family, lines)
    return "\n".join(lines) + ("\n" if lines else "")


# -- json snapshot ------------------------------------------------------------


def _child_json(family: Family, child: Child) -> Dict[str, Any]:
    out: Dict[str, Any] = {"labels": dict(child.key)}
    if family.kind == "histogram":
        assert child.bucket_counts is not None
        out["buckets"] = [
            {"le": bound, "count": count}
            for bound, count in zip(family.buckets, child.bucket_counts)
        ]
        out["sum"] = child.sum
        out["count"] = child.count
    else:
        out["value"] = child.value
    return out


def metrics_snapshot(*registries: MetricsRegistry) -> Dict[str, Any]:
    """A JSON-safe snapshot of the merged registries."""
    out: Dict[str, Any] = {}
    for family in _merged(registries):
        out[family.name] = {
            "kind": family.kind,
            "help": family.help,
            "samples": [_child_json(family, c) for c in family.children()],
        }
    return out


def metrics_json(*registries: MetricsRegistry, indent: Optional[int] = 2) -> str:
    return json.dumps(metrics_snapshot(*registries), indent=indent, sort_keys=True)


# -- collectors over pre-existing stats ---------------------------------------


def perf_stats_families(
    stats: Optional[perf_runtime.PerfStats] = None,
) -> List[Family]:
    """The perf layer's counters as metric families.

    ``repro_cache_requests_total{category,outcome}`` carries every
    hit/miss pair of :class:`~repro.perf.runtime.PerfStats` (categories
    ``bound``, ``bound.disk``, ``zone.close``, ``transfer``, …);
    ``repro_perf_events_total{event}`` the one-sided events
    (quarantines, injected faults).
    """
    stats = stats if stats is not None else perf_runtime.STATS
    requests = []
    for category, (hits, misses) in sorted(stats.snapshot().items()):
        requests.append(({"category": category, "outcome": "hit"}, hits))
        requests.append(({"category": category, "outcome": "miss"}, misses))
    families = [
        Family.constant(
            "repro_cache_requests_total",
            "counter",
            "Cache lookups by category and hit/miss outcome",
            requests,
        )
    ]
    events = [
        ({"event": name}, count)
        for name, count in sorted(stats.events_snapshot().items())
    ]
    families.append(
        Family.constant(
            "repro_perf_events_total",
            "counter",
            "One-sided perf-layer events (quarantines, injected faults)",
            events,
        )
    )
    return families


def register_perf_collector(registry: MetricsRegistry) -> None:
    """Attach the process-wide perf stats to ``registry`` (pull-time)."""
    registry.register_collector(perf_stats_families)
