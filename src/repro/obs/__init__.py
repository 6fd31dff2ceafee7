"""Structured tracing and metrics export (zero dependencies).

The observability layer for the serving stack:

* :class:`Tracer` — thread-safe nested spans with monotonic timestamps,
  cross-thread parent attachment (a worker thread's spans attach to the
  request that submitted them), and bounded ring-buffer retention;
* exporters — Chrome trace-event JSON (loadable in Perfetto),
  human-readable span trees, and Prometheus text exposition of the
  metrics registry;
* :mod:`repro.obs.registry` — the single source of truth for every
  span, counter and timer name (the docs tables are generated from it).

Tracing is opt-in (``Service(trace=True)`` / ``$REPRO_TRACE`` /
``repro trace``); when off, the only cost on any hot path is one
``tracer.enabled`` branch and no allocation (:data:`NOOP_SPAN`).

    from repro.obs import Tracer, render_tree

    tracer = Tracer()
    service = Service(trace=tracer, persistent=False)
    service.submit(source)
    print(render_tree(tracer.spans()))
"""

from repro.obs.export import chrome_trace, render_tree, write_chrome_trace
from repro.obs.prom import render_prometheus
from repro.obs.tracer import (
    DEFAULT_CAPACITY,
    ENV_TRACE,
    NOOP_SPAN,
    Span,
    TracedTimers,
    Tracer,
    env_trace_value,
    resolve_tracer,
    trace_enabled_from_env,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "ENV_TRACE",
    "NOOP_SPAN",
    "Span",
    "TracedTimers",
    "Tracer",
    "chrome_trace",
    "env_trace_value",
    "render_prometheus",
    "render_tree",
    "resolve_tracer",
    "trace_enabled_from_env",
    "write_chrome_trace",
]
