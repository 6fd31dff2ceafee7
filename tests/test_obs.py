"""The observability layer: tracer, exporters, registry, wiring.

Covers the tentpole guarantees directly:

* span nesting (same-thread stacks and explicit cross-thread parents:
  a span recorded on a worker thread attaches to its submitter's span);
* bounded ring-buffer retention with a ``dropped`` count;
* exporter golden files (handmade spans, so timestamps and thread ids
  are deterministic);
* the disabled guard — ``tracer.span`` returns the shared
  :data:`~repro.obs.tracer.NOOP_SPAN` singleton and records nothing;
* the registry as single source of truth: every span/counter/timer an
  end-to-end traced run emits is declared, and the generated markdown
  embedded in ``docs/OBSERVABILITY.md`` matches the registry.
"""

import json
import os
import threading

import pytest

from repro.benchsuite import get_benchmark
from repro.obs import (
    DEFAULT_CAPACITY,
    NOOP_SPAN,
    Span,
    TracedTimers,
    Tracer,
    chrome_trace,
    render_prometheus,
    render_tree,
    resolve_tracer,
    trace_enabled_from_env,
    write_chrome_trace,
)
from repro.obs import registry
from repro.service import Metrics, Service
from repro.service.metrics import HISTOGRAM_BUCKETS_S, TimerStat

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

SOURCE = """
program obsdemo;
config n : integer = 8;
region R = [1..n, 1..n];
var A, B : [R] float;
var total : float;
begin
  [R] A := Index1 * 2.0 + Index2;
  [R] B := A@(0,1) + A@(1,0);
  total := +<< [R] B;
end;
"""


def make_tracer(**kwargs):
    """A tracer on a deterministic fake clock (1 us per reading)."""
    ticks = iter(range(0, 10_000_000, 1000))
    return Tracer(clock_ns=lambda: next(ticks), **kwargs)


# ---------------------------------------------------------------------------
# Tracer core


class TestTracer:
    def test_records_span_with_attrs(self):
        tracer = make_tracer()
        with tracer.span("compile", digest="abc", level="c2") as span:
            span.set("cache_hit", False)
        (recorded,) = tracer.spans()
        assert recorded.name == "compile"
        assert recorded.attrs == {
            "digest": "abc",
            "level": "c2",
            "cache_hit": False,
        }
        assert recorded.end_us is not None
        assert recorded.duration_us > 0

    def test_same_thread_nesting(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                pass
        by_name = {span.name: span for span in tracer.spans()}
        outer = by_name["outer"]
        assert outer.parent_id is None
        assert by_name["inner.a"].parent_id == outer.span_id
        assert by_name["inner.b"].parent_id == outer.span_id
        # Children complete (and are recorded) before their parent.
        assert [s.name for s in tracer.spans()] == ["inner.a", "inner.b", "outer"]

    def test_exception_records_span_with_error_attr(self):
        tracer = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("execute"):
                raise ValueError("boom")
        (span,) = tracer.spans()
        assert span.attrs["error"] == "ValueError"
        assert span.end_us is not None

    def test_cross_thread_parent_attachment(self):
        tracer = Tracer()
        results = {}

        def worker(parent):
            with tracer.span("fanout.task", parent=parent, task=0):
                results["tid"] = threading.get_ident()

        with tracer.span("fanout") as fanout_span:
            handle = tracer.current()
            assert handle is fanout_span
            thread = threading.Thread(target=worker, args=(handle,))
            thread.start()
            thread.join()
        by_name = {span.name: span for span in tracer.spans()}
        task = by_name["fanout.task"]
        assert task.parent_id == by_name["fanout"].span_id
        # The task keeps the worker's thread identity for Perfetto rows.
        assert task.thread_id == results["tid"]
        assert task.thread_id != by_name["fanout"].thread_id

    def test_worker_stack_does_not_leak_across_threads(self):
        tracer = Tracer()
        seen = []

        def worker():
            # A fresh thread has no inherited stack: without an explicit
            # parent its spans are roots.
            with tracer.span("orphan"):
                seen.append(tracer.current().name)

        with tracer.span("root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen == ["orphan"]
        by_name = {span.name: span for span in tracer.spans()}
        assert by_name["orphan"].parent_id is None

    def test_ring_buffer_eviction(self):
        tracer = make_tracer(capacity=4)
        for index in range(10):
            with tracer.span("s%d" % index):
                pass
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert [span.name for span in tracer.spans()] == ["s6", "s7", "s8", "s9"]

    def test_ring_buffer_compacts_storage(self):
        tracer = make_tracer(capacity=8)
        for index in range(1000):
            with tracer.span("s%d" % index):
                pass
        # Lazy compaction must keep the backing list bounded, not just
        # the logical window.
        assert len(tracer._spans) <= 2 * tracer.capacity
        assert [span.name for span in tracer.spans()] == [
            "s%d" % i for i in range(992, 1000)
        ]

    def test_clear(self):
        tracer = make_tracer(capacity=2)
        for _ in range(5):
            with tracer.span("x"):
                pass
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0
        assert tracer.spans() == []

    def test_default_capacity(self):
        assert Tracer().capacity == DEFAULT_CAPACITY


class TestDisabledGuard:
    def test_disabled_span_is_the_noop_singleton(self):
        tracer = Tracer(enabled=False)
        first = tracer.span("compile", digest="d" * 40, level="c2")
        second = tracer.span("execute")
        # Identity, not just equality: the disabled path allocates no
        # span, no context manager, nothing.
        assert first is NOOP_SPAN
        assert second is NOOP_SPAN

    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("compile") as span:
            span.set("ignored", 1)
            with tracer.span("compile.fusion"):
                pass
        assert len(tracer) == 0
        assert tracer.dropped == 0
        assert tracer.current() is None

    def test_service_disabled_by_default_records_no_spans(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        service = Service(
            level="c2", backend="codegen_np", cache_dir=str(tmp_path)
        )
        assert not service.tracer.enabled
        compiled = service.compile(SOURCE)
        compiled.execute()
        assert len(service.tracer) == 0
        assert service.tracer.span("anything") is NOOP_SPAN

    def test_traced_timers_without_tracer_is_plain_metrics(self):
        metrics = Metrics()
        timers = TracedTimers(metrics, None)
        with timers.time("compile.fusion"):
            pass
        assert metrics.timer("compile.fusion")["count"] == 1

    def test_env_opt_in(self, monkeypatch):
        for value in ("", "0", "false", "off", "no", "False", "OFF"):
            monkeypatch.setenv("REPRO_TRACE", value)
            assert not trace_enabled_from_env()
        for value in ("1", "true", "trace.json", "/tmp/out.json"):
            monkeypatch.setenv("REPRO_TRACE", value)
            assert trace_enabled_from_env()

    def test_resolve_tracer(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        tracer = Tracer()
        assert resolve_tracer(tracer) is tracer
        assert not resolve_tracer(None).enabled
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert resolve_tracer(None).enabled
        assert resolve_tracer(True).enabled
        assert not resolve_tracer(False).enabled


# ---------------------------------------------------------------------------
# Exporters (deterministic handmade spans -> golden files)


def _span(name, span_id, parent_id, start_us, end_us, attrs=None, tid=7, tname="MainThread"):
    span = Span(name, span_id, parent_id, start_us, tid, tname, dict(attrs or {}))
    span.end_us = end_us
    return span


def golden_spans():
    """A fixed compile+execute trace, listed in completion order."""
    return [
        _span("compile.fusion", 2, 1, 40, 140),
        _span(
            "compile",
            1,
            None,
            10,
            510,
            {
                "digest": "abcdef0123456789abcdef0123456789abcdef01",
                "level": "c2+f4",
                "backend": "codegen_np",
                "cache_hit": False,
            },
        ),
        _span("fanout.task", 5, 4, 630, 750, {"task": 0}, tid=8, tname="worker_0"),
        _span("fanout.task", 6, 4, 640, 760, {"task": 1}, tid=9, tname="worker_1"),
        _span("fanout", 4, 3, 620, 880, {"tasks": 2, "workers": 2}),
        _span("execute", 3, None, 600, 900, {"backend": "codegen_np"}),
    ]


def read_golden(name):
    with open(os.path.join(GOLDEN_DIR, name)) as handle:
        return handle.read()


class TestChromeTrace:
    def test_golden(self):
        document = chrome_trace(golden_spans(), pid=1)
        assert document == json.loads(read_golden("obs_chrome.golden.json"))

    def test_write_round_trips(self, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(golden_spans(), path, pid=1)
        with open(path) as handle:
            assert json.load(handle) == chrome_trace(golden_spans(), pid=1)

    def test_event_structure(self):
        document = chrome_trace(golden_spans(), pid=42)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert len(complete) == len(golden_spans())
        # One thread_name metadata event per distinct thread id.
        assert {e["tid"] for e in metadata} == {7, 8, 9}
        assert all(e["name"] == "thread_name" for e in metadata)
        for event in complete:
            assert event["pid"] == 42
            assert event["ts"] >= 0 and event["dur"] > 0
            assert event["cat"] == event["name"].split(".", 1)[0]
        execute = next(e for e in complete if e["name"] == "execute")
        assert execute["args"] == {"backend": "codegen_np"}


class TestRenderTree:
    def test_golden(self):
        assert render_tree(golden_spans(), unit="us") + "\n" == read_golden(
            "obs_tree.golden.txt"
        )

    def test_orphans_render_as_roots(self):
        # Parent id 99 was never recorded (evicted): the child must still
        # appear, promoted to a root.
        spans = [_span("lonely", 5, 99, 0, 10)]
        assert "lonely" in render_tree(spans)

    def test_digest_attr_truncated(self):
        text = render_tree(golden_spans())
        assert "abcdef012345 " in text or "digest=abcdef012345" in text
        assert "abcdef0123456789" not in text


class TestPrometheus:
    def test_counters_and_histogram(self):
        metrics = Metrics()
        metrics.incr("cache.hits", 3)
        metrics.observe("compile.total", 0.005)
        metrics.observe("compile.total", 2.0)
        text = render_prometheus(metrics.snapshot())
        assert 'repro_counter_total{name="cache.hits"} 3' in text
        assert "# TYPE repro_counter_total counter" in text
        assert "# TYPE repro_timer_seconds histogram" in text
        assert (
            'repro_timer_seconds_bucket{name="compile.total",le="0.01"} 1'
            in text
        )
        assert (
            'repro_timer_seconds_bucket{name="compile.total",le="+Inf"} 2'
            in text
        )
        assert 'repro_timer_seconds_count{name="compile.total"} 2' in text
        assert text.endswith("\n")

    def test_bucket_series_is_cumulative_and_ends_at_count(self):
        metrics = Metrics()
        for seconds in (0.00005, 0.0005, 0.005, 0.05, 0.5, 5.0, 50.0):
            metrics.observe("execute.codegen_np", seconds)
        text = render_prometheus(metrics.snapshot())
        values = []
        for line in text.splitlines():
            if line.startswith(
                'repro_timer_seconds_bucket{name="execute.codegen_np"'
            ):
                values.append(int(line.rsplit(" ", 1)[1]))
        assert values == sorted(values)
        assert len(values) == len(HISTOGRAM_BUCKETS_S) + 1
        assert values[-1] == 7

    def test_cache_gauges(self):
        text = render_prometheus(
            cache_stats={
                "memory_entries": 2,
                "memory_limit": 64,
                "disk_entries": 5,
                "disk_bytes": 12345,
                "disk_limit_bytes": 1 << 20,
            }
        )
        assert "repro_cache_memory_entries 2" in text
        assert "repro_cache_disk_bytes 12345" in text
        assert "# TYPE repro_cache_disk_limit_bytes gauge" in text

    def test_label_escaping(self):
        metrics = Metrics()
        metrics.incr('odd"name\\with\nstuff')
        text = render_prometheus(metrics.snapshot())
        assert 'name="odd\\"name\\\\with\\nstuff"' in text


class TestHistogramBuckets:
    def test_observe_fills_the_right_bucket(self):
        stat = TimerStat()
        stat.observe(0.00005)  # <= 0.0001
        stat.observe(0.5)  # <= 1.0
        stat.observe(100.0)  # overflow
        assert stat.buckets[0] == 1
        assert stat.buckets[HISTOGRAM_BUCKETS_S.index(1.0)] == 1
        assert stat.buckets[-1] == 1

    def test_bucket_counts_cumulative(self):
        stat = TimerStat()
        stat.observe(0.00005)
        stat.observe(0.5)
        stat.observe(100.0)
        counts = stat.bucket_counts()
        assert counts["0.0001"] == 1
        assert counts["1"] == 2
        assert counts["10"] == 2
        assert counts["+Inf"] == 3

    def test_merge_sums_buckets(self):
        a, b = TimerStat(), TimerStat()
        a.observe(0.5)
        b.observe(0.5)
        b.observe(100.0)
        a.merge(b)
        assert a.bucket_counts()["+Inf"] == 3
        assert a.bucket_counts()["1"] == 2

    def test_snapshot_carries_buckets(self):
        metrics = Metrics()
        metrics.observe("t", 0.5)
        assert metrics.snapshot()["timers"]["t"]["buckets"]["+Inf"] == 1


# ---------------------------------------------------------------------------
# Wiring: Service emits the declared spans


class TestServiceTracing:
    def test_compile_and_execute_span_tree(self, tmp_path):
        tracer = Tracer()
        service = Service(
            level="c2",
            backend="codegen_np",
            cache_dir=str(tmp_path),
            trace=tracer,
        )
        compiled = service.compile(SOURCE)
        compiled.execute()
        by_name = {}
        for span in tracer.spans():
            by_name.setdefault(span.name, span)
        compile_span = by_name["compile"]
        assert compile_span.attrs["cache_hit"] is False
        assert compile_span.attrs["level"] == "c2"
        assert compile_span.attrs["digest"] == compiled.digest
        # The per-pass spans nest under the compile span via the
        # pipeline's existing timers= hook.
        for pass_name in (
            "compile.normalize",
            "compile.deps",
            "compile.fusion",
            "compile.scalarize",
            "compile.codegen",
        ):
            assert by_name[pass_name].parent_id == compile_span.span_id
        lookup = by_name["cache.lookup"]
        assert lookup.parent_id == compile_span.span_id
        assert lookup.attrs["hit"] is False
        execute = by_name["execute"]
        assert execute.attrs["backend"] == "codegen_np"
        assert execute.attrs["digest"] == compiled.digest

    def test_warm_compile_records_cache_hit(self, tmp_path):
        tracer = Tracer()
        service = Service(
            level="c2",
            backend="codegen_np",
            cache_dir=str(tmp_path),
            trace=tracer,
        )
        service.compile(SOURCE)
        tracer.clear()
        service.compile(SOURCE)
        by_name = {span.name: span for span in tracer.spans()}
        assert by_name["compile"].attrs["cache_hit"] is True
        assert by_name["cache.lookup"].attrs["hit"] is True
        assert "compile.fusion" not in by_name

    def test_every_emitted_name_is_declared_in_registry(self, tmp_path):
        tracer = Tracer()
        service = Service(
            level="c2",
            backend="codegen_np",
            cache_dir=str(tmp_path),
            trace=tracer,
        )
        compiled = service.compile(SOURCE)
        compiled.execute()
        known = set(registry.known_span_names())
        for span in tracer.spans():
            assert span.name in known, "undeclared span %r" % span.name
        snapshot = service.metrics.snapshot()
        for counter_name in snapshot["counters"]:
            assert registry.is_known_counter(counter_name), (
                "undeclared counter %r" % counter_name
            )
        for timer_name in snapshot["timers"]:
            assert registry.is_known_timer(timer_name), (
                "undeclared timer %r" % timer_name
            )


# ---------------------------------------------------------------------------
# Perfetto structural validation on a benchsuite program (acceptance)


class TestPerfettoStructure:
    def test_benchsuite_trace_loads_structurally(self, tmp_path):
        bench = get_benchmark("Frac")
        tracer = Tracer()
        service = Service(
            level="c2",
            backend="codegen_np",
            cache_dir=str(tmp_path / "cache"),
            trace=tracer,
        )
        compiled = service.compile(
            bench.source, config=dict(bench.test_config, n=96, m=96)
        )
        compiled.execute()
        path = str(tmp_path / "frac-trace.json")
        write_chrome_trace(tracer.spans(), path)
        with open(path) as handle:
            document = json.load(handle)
        events = document["traceEvents"]
        assert events, "trace must not be empty"
        for event in events:
            assert event["ph"] in ("X", "M")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert isinstance(event["ts"], int)
                assert isinstance(event["dur"], int)
        names = {e["name"] for e in events if e["ph"] == "X"}
        # Nested compile-pass spans under their compile span.
        assert {"compile", "compile.fusion", "execute"} <= names
        compile_ids = {
            s.span_id for s in tracer.spans() if s.name == "compile"
        }
        for span in tracer.spans():
            if span.name == "compile.fusion":
                assert span.parent_id in compile_ids


# ---------------------------------------------------------------------------
# Registry <-> docs consistency


class TestRegistryDocs:
    def docs_text(self):
        path = os.path.join(
            os.path.dirname(__file__), os.pardir, "docs", "OBSERVABILITY.md"
        )
        with open(path) as handle:
            return handle.read()

    def test_span_reference_is_generated_from_registry(self):
        assert registry.spans_reference_markdown() in self.docs_text()

    def test_metrics_reference_is_generated_from_registry(self):
        assert registry.metrics_reference_markdown() in self.docs_text()

    def test_every_declared_span_has_attrs_documented(self):
        table = registry.spans_reference_markdown()
        for span in registry.SPANS:
            assert "`%s`" % span.name in table
