"""Structured tracing: nested spans with bounded retention.

A :class:`Tracer` records *spans* — named, attributed intervals on a
monotonic clock — nested by a per-thread stack, so one traced request
yields a tree: ``compile`` containing the per-pass spans the pipeline's
``timers=`` hook emits, then ``execute``.  A span recorded on another
thread can attach to an explicit parent handle (:meth:`Tracer.current`
captured on the submitting thread), so work fanned out to worker
threads still hangs off the request that issued it while every span
keeps its own thread id — exactly what the Chrome trace viewer needs to
draw per-worker timelines.

Completed spans land in a bounded ring buffer (oldest evicted first,
:attr:`Tracer.dropped` counts the loss), so a long-lived service can
leave tracing on without unbounded growth.

The traced-off hot path is one attribute load and one branch:
``tracer.enabled`` is checked *before* building attribute dicts, and
:data:`NOOP_SPAN` — a single shared no-op context manager — is what
every disabled call path enters.  Nothing is allocated and nothing is
recorded (a guard test asserts both).

Everything here is standard library only.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, List, Optional

#: Environment variable that opt-ins tracing for CLI entry points and
#: ``Service(trace=None)``.  Falsy values ("", "0", "false", "off", "no")
#: leave tracing disabled; anything else enables it.  A value containing
#: a path separator or ending in ``.json`` additionally names the file
#: ``repro serve`` writes the Chrome trace to.
ENV_TRACE = "REPRO_TRACE"

#: Default ring-buffer capacity: enough for a traced request batch
#: (thousands of spans) at ~200 bytes per span.
DEFAULT_CAPACITY = 65536


def env_trace_value() -> str:
    return os.environ.get(ENV_TRACE, "")


def trace_enabled_from_env() -> bool:
    """Whether ``$REPRO_TRACE`` asks for tracing."""
    return env_trace_value().strip().lower() not in ("", "0", "false", "off", "no")


class Span:
    """One completed (or still-open) interval.

    ``start_us``/``end_us`` are microseconds on the tracer's monotonic
    clock (origin: tracer creation), directly usable as Chrome
    trace-event ``ts``/``dur`` values.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start_us",
        "end_us",
        "attrs",
        "thread_id",
        "thread_name",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start_us: int,
        thread_id: int,
        thread_name: str,
        attrs: Dict[str, object],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_us = start_us
        self.end_us: Optional[int] = None
        self.attrs = attrs
        self.thread_id = thread_id
        self.thread_name = thread_name

    @property
    def duration_us(self) -> int:
        if self.end_us is None:
            return 0
        return self.end_us - self.start_us

    def set(self, key: str, value: object) -> None:
        """Attach (or overwrite) one attribute."""
        self.attrs[key] = value

    def __repr__(self) -> str:
        return "Span(%s, %dus%s)" % (
            self.name,
            self.duration_us,
            ", " + repr(self.attrs) if self.attrs else "",
        )


class _NoopSpan:
    """The shared do-nothing span every disabled call path enters.

    Entering it yields itself, so ``with tracer.span(...) as span:
    span.set(...)`` works unchanged whether tracing is on or off.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, key: str, value: object) -> None:
        return None


#: The singleton no-op span.  Call sites that must stay allocation-free
#: when tracing is off branch on ``tracer.enabled`` and use this.
NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager recording one span on enter/exit."""

    __slots__ = ("_tracer", "_span", "_parent")

    def __init__(self, tracer: "Tracer", span: Span, parent) -> None:
        self._tracer = tracer
        self._span = span
        self._parent = parent

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is not None:
            self._span.attrs["error"] = exc_type.__name__
        self._tracer._finish(self._span, self._parent)


class Tracer:
    """Thread-safe recorder of nested spans with bounded retention."""

    def __init__(
        self,
        enabled: bool = True,
        capacity: int = DEFAULT_CAPACITY,
        clock_ns=time.perf_counter_ns,
    ) -> None:
        self.enabled = enabled
        self.capacity = max(int(capacity), 1)
        self._clock_ns = clock_ns
        self._origin_ns = clock_ns()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        #: Index of the ring buffer's logical start inside ``_spans``.
        self._head = 0
        #: Completed spans evicted because the buffer was full.
        self.dropped = 0

    # -- recording ---------------------------------------------------------

    def _now_us(self) -> int:
        return (self._clock_ns() - self._origin_ns) // 1000

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, parent: Optional[Span] = None, **attrs):
        """Open a span: ``with tracer.span("compile", digest=d) as s:``.

        ``parent`` overrides the per-thread nesting — pass the result of
        :meth:`current` captured on another thread to attach cross-thread
        work (a pool worker's task) to the span that submitted it.  When
        the tracer is disabled this returns :data:`NOOP_SPAN`; callers on
        hot paths should branch on :attr:`enabled` *before* building
        ``attrs`` so the disabled path allocates nothing.
        """
        if not self.enabled:
            return NOOP_SPAN
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        thread = threading.current_thread()
        span = Span(
            name,
            next(self._ids),
            parent.span_id if parent is not None else None,
            self._now_us(),
            thread.ident or 0,
            thread.name,
            attrs,
        )
        stack.append(span)
        return _ActiveSpan(self, span, parent)

    def _finish(self, span: Span, parent) -> None:
        span.end_us = self._now_us()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # unbalanced exit (generator-held span): drop it anywhere
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            if len(self._spans) - self._head >= self.capacity:
                self._head += 1
                self.dropped += 1
                # Compact lazily so eviction stays O(1) amortized.
                if self._head >= self.capacity:
                    del self._spans[: self._head]
                    self._head = 0
            self._spans.append(span)

    def record(self, name: str, duration_us: float, **attrs) -> None:
        """Record an already-measured interval as a completed span.

        For work timed outside this process (an mp-shard worker's
        exchange round trip): the span is re-anchored to end *now* on
        the tracer's clock with the measured duration, parented to the
        innermost open span on this thread.  No-op when disabled.
        """
        if not self.enabled:
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        thread = threading.current_thread()
        end_us = self._now_us()
        span = Span(
            name,
            next(self._ids),
            parent.span_id if parent is not None else None,
            max(0, end_us - int(duration_us)),
            thread.ident or 0,
            thread.name,
            attrs,
        )
        span.end_us = end_us
        with self._lock:
            if len(self._spans) - self._head >= self.capacity:
                self._head += 1
                self.dropped += 1
                if self._head >= self.capacity:
                    del self._spans[: self._head]
                    self._head = 0
            self._spans.append(span)

    def current(self) -> Optional[Span]:
        """The innermost span open on *this* thread, or None.

        The returned handle may be passed as ``parent=`` from any other
        thread while the span is still open.
        """
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # -- reading -----------------------------------------------------------

    def spans(self) -> List[Span]:
        """Completed spans, oldest first (a snapshot copy)."""
        with self._lock:
            return self._spans[self._head :]

    def clear(self) -> None:
        with self._lock:
            self._spans = []
            self._head = 0
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans) - self._head

    def __repr__(self) -> str:
        return "Tracer(enabled=%r, %d spans, %d dropped)" % (
            self.enabled,
            len(self),
            self.dropped,
        )


def resolve_tracer(trace: object) -> Tracer:
    """Normalize a ``trace=`` argument into a :class:`Tracer`.

    ``None`` consults ``$REPRO_TRACE``; ``True``/``False`` force the
    state; an existing :class:`Tracer` passes through.  A disabled
    tracer is still a tracer — call sites branch on ``.enabled``.
    """
    if isinstance(trace, Tracer):
        return trace
    if trace is None:
        return Tracer(enabled=trace_enabled_from_env())
    return Tracer(enabled=bool(trace))


class TracedTimers:
    """Fan one ``timers=`` hook out to a metrics registry *and* a tracer.

    The compile pipeline's ``timers`` duck type is ``.time(name)``
    returning a context manager (:meth:`repro.service.metrics.Metrics.
    time`); this adapter additionally opens a same-named span, so every
    ``compile.*`` pass shows up both as an aggregate timer and as a span
    nested under the active ``compile`` span.
    """

    __slots__ = ("metrics", "tracer")

    def __init__(self, metrics, tracer: Optional[Tracer]) -> None:
        self.metrics = metrics
        self.tracer = tracer

    def time(self, name: str):
        metric_cm = self.metrics.time(name)
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return metric_cm
        return _Both(metric_cm, tracer.span(name))


class _Both:
    """Enter/exit two context managers as one (metrics inner, span outer)."""

    __slots__ = ("_outer", "_inner")

    def __init__(self, inner, outer) -> None:
        self._inner = inner
        self._outer = outer

    def __enter__(self):
        self._outer.__enter__()
        return self._inner.__enter__()

    def __exit__(self, *exc_info):
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            self._outer.__exit__(*exc_info)
