"""Prometheus text exposition of the metrics registry.

Renders a :meth:`repro.service.metrics.Metrics.snapshot` (and optionally
:meth:`repro.service.cache.ArtifactCache.stats`) in the Prometheus text
format (version 0.0.4): counters as one ``repro_counter_total`` family
labelled by name, timers as a ``repro_timer_seconds`` histogram family
(cumulative ``_bucket`` series from the :data:`repro.service.metrics.
HISTOGRAM_BUCKETS_S` bounds, plus ``_sum``/``_count``), and cache
occupancy as gauges.  ``repro stats --format=prom`` and the library
entry point :func:`render_prometheus` both produce it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(
    metrics_snapshot: Optional[Mapping[str, object]] = None,
    cache_stats: Optional[Mapping[str, object]] = None,
) -> str:
    """The metrics snapshot (and cache stats) as Prometheus text."""
    lines: List[str] = []

    counters = dict((metrics_snapshot or {}).get("counters") or {})
    lines.append(
        "# HELP repro_counter_total Event counters from the repro metrics "
        "registry, labelled by dotted counter name."
    )
    lines.append("# TYPE repro_counter_total counter")
    for name in sorted(counters):
        lines.append(
            'repro_counter_total{name="%s"} %s'
            % (_escape(name), _fmt(counters[name]))
        )

    timers: Dict[str, Mapping] = dict(
        (metrics_snapshot or {}).get("timers") or {}
    )
    lines.append(
        "# HELP repro_timer_seconds Timed sections (compile passes, "
        "backend executions), labelled by timer name."
    )
    lines.append("# TYPE repro_timer_seconds histogram")
    for name in sorted(timers):
        stats = timers[name]
        label = _escape(name)
        for bound, cumulative in (stats.get("buckets") or {}).items():
            lines.append(
                'repro_timer_seconds_bucket{name="%s",le="%s"} %s'
                % (label, bound, _fmt(cumulative))
            )
        lines.append(
            'repro_timer_seconds_sum{name="%s"} %s'
            % (label, _fmt(stats.get("total_s", 0.0)))
        )
        lines.append(
            'repro_timer_seconds_count{name="%s"} %s'
            % (label, _fmt(stats.get("count", 0)))
        )

    if cache_stats:
        gauges = (
            ("memory_entries", "Live artifacts in the in-memory LRU tier."),
            ("memory_limit", "Entry bound of the memory tier."),
            ("disk_entries", "Artifacts in the on-disk store."),
            ("disk_bytes", "Bytes used by the on-disk store."),
            ("disk_limit_bytes", "Size bound of the on-disk store."),
        )
        for key, help_text in gauges:
            if key not in cache_stats:
                continue
            metric = "repro_cache_%s" % key
            lines.append("# HELP %s %s" % (metric, help_text))
            lines.append("# TYPE %s gauge" % metric)
            lines.append("%s %s" % (metric, _fmt(cache_stats[key])))

    return "\n".join(lines) + "\n"
