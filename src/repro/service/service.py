"""The compile-once serving front end.

A :class:`Service` owns one artifact cache and one metrics registry and
turns source programs into :class:`CompiledProgram` artifacts:

* ``compile(source)`` — probe the cache by content digest; on a miss run
  the full pipeline (normalize → ASDG → fusion/contraction → scalarize →
  codegen) with every pass timed, then persist the artifact.
* ``submit(source, request)`` — compile (or hit) and execute one request.
* ``submit_many(source, requests)`` — compile once per distinct config
  binding, execute a batch of requests with varying config bindings /
  initial arrays on the calling thread.

The paper's thesis is that array-level fusion and contraction analysis is
cheap; this layer makes it *one-time*, so repeated traffic pays only
execution cost (the Bohrium fuse-cache / Dask compile-once pattern).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.exec import Artifacts, ExecutionResult, get_backend
from repro.fusion import Level, plan_program, resolve_level
from repro.ir import IRProgram, normalize_source, simplify_program
from repro.ir.expr import compile_memo
from repro.obs.tracer import NOOP_SPAN, TracedTimers, resolve_tracer
from repro.scalarize import scalarize
from repro.service import fingerprint
from repro.service.cache import ArtifactCache
from repro.service.compiled import CompiledProgram, Request, split_request
from repro.service.metrics import Metrics
from repro.util.errors import BackendUnavailableError

#: Compile passes timed on every cold compile, in pipeline order.
COMPILE_PASSES = (
    "compile.normalize",
    "compile.deps",
    "compile.fusion",
    "compile.scalarize",
    "compile.codegen",
    "compile.cc",
)


class Service:
    """A long-lived compiler service with a two-tier artifact cache."""

    def __init__(
        self,
        level: Union[Level, str] = "c2",
        backend: str = "codegen_np",
        cache: Optional[ArtifactCache] = None,
        cache_dir: Optional[str] = None,
        persistent: bool = True,
        metrics: Optional[Metrics] = None,
        self_temp_policy: str = "always",
        simplify: bool = False,
        trace: object = None,
    ) -> None:
        self.level = resolve_level(level, "c2")
        self.backend = get_backend(backend).name
        self.metrics = metrics or Metrics()
        # Every statically-named counter starts visible at zero, so a
        # scrape before (or without) traffic still exports the full set.
        from repro.obs.registry import registered_counter_names

        self.metrics.register(registered_counter_names())
        #: Structured tracing (``repro.obs``): ``trace`` may be a
        #: :class:`repro.obs.Tracer`, True/False, or None to consult
        #: ``$REPRO_TRACE``.  The tracer always exists; every traced
        #: section branches on ``tracer.enabled`` first, so a disabled
        #: tracer costs one check and no allocation per section.
        self.tracer = resolve_tracer(trace)
        self.cache = cache or ArtifactCache(
            root=cache_dir, persistent=persistent, metrics=self.metrics
        )
        self.self_temp_policy = self_temp_policy
        self.simplify = simplify
        #: Single-flight compilation: digest -> in-progress Future, so
        #: concurrent misses on one digest run the pipeline exactly once.
        self._inflight: Dict[str, Future] = {}
        self._inflight_lock = threading.Lock()

    # -- compile -----------------------------------------------------------

    def digest_for(
        self,
        source: str,
        level: Union[Level, str, None] = None,
        config: Optional[Mapping[str, object]] = None,
        backend: Optional[str] = None,
    ) -> str:
        """The content address ``compile`` would use for these inputs."""
        level_obj = resolve_level(level, self.level)
        backend_name = get_backend(backend or self.backend).name
        return fingerprint.source_digest(
            source,
            level_obj.name,
            config,
            backend_name,
            self.self_temp_policy,
            self.simplify,
            code_version=self.cache.code_version,
        )

    def compile(
        self,
        source: str,
        level: Union[Level, str, None] = None,
        config: Optional[Mapping[str, object]] = None,
        backend: Optional[str] = None,
    ) -> CompiledProgram:
        """Compile once (or fetch the cached artifact) for these inputs."""
        level_obj = resolve_level(level, self.level)
        backend_name = get_backend(backend or self.backend).name
        digest = self.digest_for(source, level_obj, config, backend_name)

        def normalize(timers) -> IRProgram:
            with timers.time("compile.normalize"):
                program = normalize_source(source, config, self.self_temp_policy)
                if self.simplify:
                    simplify_program(program)
            return program

        return self._serve(digest, level_obj, config, backend_name, normalize)

    def compile_ir(
        self,
        lower: Callable[[], IRProgram],
        digest: str,
        level: Union[Level, str, None] = None,
        backend: Optional[str] = None,
    ) -> CompiledProgram:
        """Compile the normalized IR ``lower()`` returns (or fetch its
        artifact), addressed by the caller's own content ``digest``.

        The tracing frontend passes ``fingerprint.trace_digest`` of a
        recorded expression graph and a thunk that lowers it, so lowering
        is paid only on a cache miss — a warm probe never builds the IR.
        Otherwise identical to :meth:`compile` minus the normalize pass.
        """
        level_obj = resolve_level(level, self.level)
        backend_name = get_backend(backend or self.backend).name
        return self._serve(
            digest, level_obj, None, backend_name, lambda _timers: lower()
        )

    def _serve(self, digest, level, config, backend, lower) -> CompiledProgram:
        """Cache probe + single-flight build, shared by every compile path."""
        tracer = self.tracer
        compile_cm = (
            tracer.span(
                "compile",
                digest=digest,
                level=level.name,
                backend=backend,
            )
            if tracer.enabled
            else NOOP_SPAN
        )
        with compile_cm as compile_span:
            lookup_cm = (
                tracer.span("cache.lookup", digest=digest)
                if tracer.enabled
                else NOOP_SPAN
            )
            with lookup_cm as lookup_span:
                payload = self.cache.get(digest)
                lookup_span.set("hit", payload is not None)
            if payload is not None:
                self.metrics.incr("cache.hits")
                compile_span.set("cache_hit", True)
                return self._wrap(payload, from_cache=True)
            compile_span.set("cache_hit", False)

            # Single-flight: the first thread to miss owns the build;
            # every concurrent miss on the same digest waits for its
            # result instead of repeating the pipeline.
            with self._inflight_lock:
                future = self._inflight.get(digest)
                owner = future is None
                if owner:
                    future = self._inflight[digest] = Future()
            if not owner:
                return self._wrap(future.result(), from_cache=True)
            try:
                # Cross-process single-flight: take the cache-dir lock
                # for this digest, then re-probe — another process may
                # have persisted the artifact while we waited.
                with self.cache.build_lock(digest):
                    payload = self.cache.get(digest)
                    from_cache = payload is not None
                    if from_cache:
                        self.metrics.incr("cache.hits")
                        compile_span.set("cache_hit", True)
                    else:
                        self.metrics.incr("cache.misses")
                        payload = self._build(
                            lower, level, config, backend, digest
                        )
                        self.cache.put(digest, payload)
                future.set_result(payload)
            except BaseException as error:
                future.set_exception(error)
                raise
            finally:
                with self._inflight_lock:
                    self._inflight.pop(digest, None)
            return self._wrap(payload, from_cache=from_cache)

    def _wrap(self, payload: Dict[str, object], from_cache: bool) -> CompiledProgram:
        return CompiledProgram(
            payload,
            metrics=self.metrics,
            from_cache=from_cache,
            tracer=self.tracer,
            cache=self.cache,
        )

    def _build(
        self,
        lower: Callable[[TracedTimers], IRProgram],
        level: Level,
        config: Optional[Mapping[str, object]],
        backend_name: str,
        digest: str,
    ) -> Dict[str, object]:
        """The miss path: lower, fuse, scalarize and render one program.

        ``lower(timers)`` builds the normalized IR (timing its own pass,
        if it has one).  A backend whose loader keeps a product in the
        artifact cache (``Backend.eager`` — the ``c`` backend's shared
        object) is also loaded here, on the build (miss) path and under
        the build lock, so the ``compile.cc`` span and
        ``native.cc_invocations`` counter measure exactly the cold cost a
        warm serve avoids.  Machines that cannot load it skip silently —
        execution raises ``BackendUnavailableError`` there, but the
        rendered code in the payload stays inspectable and cacheable.
        """
        build = Metrics()
        self.metrics.incr("service.compiles")
        backend = get_backend(backend_name)
        # Per-pass spans ride the same timers= hook the metrics use: the
        # fanout forwards each ``compile.*`` section to both sinks, so
        # spans nest under the active ``compile`` span automatically.
        timers = TracedTimers(build, self.tracer if self.tracer.enabled else None)
        with build.time("compile.total"), compile_memo():
            program = lower(timers)
            # plan_program times compile.deps / compile.fusion internally.
            plan = plan_program(program, level, timers=timers)
            with timers.time("compile.scalarize"):
                scalar_program = scalarize(program, plan)
            with timers.time("compile.codegen"):
                code = backend.render(scalar_program)
            if backend.eager:
                try:
                    backend.load(
                        scalar_program,
                        code,
                        Artifacts(self.cache, digest, self.metrics, timers),
                    )
                except BackendUnavailableError:
                    pass
        self.metrics.merge(build)
        return {
            "digest": digest,
            "level": level.name,
            "backend": backend_name,
            "config": dict(config or {}),
            "self_temp_policy": self.self_temp_policy,
            "simplify": self.simplify,
            "scalar_program": scalar_program,
            "code": code,
            "compile_timings": {
                name: stats["total_s"]
                for name, stats in build.snapshot()["timers"].items()
            },
        }

    # -- serving -----------------------------------------------------------

    def _route(
        self,
        source: str,
        request: Request,
        level: Union[Level, str, None],
        config: Optional[Mapping[str, object]],
        backend: Optional[str],
        compiled_by_digest: Dict[str, CompiledProgram],
    ):
        """Resolve one request to its per-binding artifact plus arrays.

        Config bindings are compile-time constants (normalization folds
        them into region bounds), so each distinct binding is its own
        content-addressed artifact; repeats of a binding hit the memory
        tier through ``compiled_by_digest`` without re-probing the cache.
        """
        request_config, arrays = split_request(request)
        merged = dict(config or {})
        merged.update(request_config)
        route_key = self.digest_for(source, level, merged, backend)
        compiled = compiled_by_digest.get(route_key)
        if compiled is None:
            compiled = self.compile(source, level, merged, backend)
            compiled_by_digest[route_key] = compiled
        return compiled, ({"arrays": arrays} if arrays is not None else None)

    def submit(
        self,
        source: str,
        request: Request = None,
        level: Union[Level, str, None] = None,
        config: Optional[Mapping[str, object]] = None,
        backend: Optional[str] = None,
    ) -> ExecutionResult:
        """Compile (or hit the cache) and execute one request."""
        compiled, exec_request = self._route(
            source, request, level, config, backend, {}
        )
        return compiled.execute(exec_request)

    def submit_many(
        self,
        source: str,
        requests: Sequence[Request],
        level: Union[Level, str, None] = None,
        config: Optional[Mapping[str, object]] = None,
        backend: Optional[str] = None,
    ) -> List[ExecutionResult]:
        """Compile once per distinct config binding, execute every request.

        Results are in request order, all computed on the calling thread
        (each distinct binding compiles exactly once, warm bindings are
        cache hits).  Concurrent serving is the daemon's worker processes
        (:mod:`repro.daemon`).
        """
        compiled_by_digest: Dict[str, CompiledProgram] = {}
        routed = [
            self._route(
                source, request, level, config, backend, compiled_by_digest
            )
            for request in requests
        ]
        self.metrics.incr("service.batches")
        return [compiled.execute(request) for compiled, request in routed]

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Counters, timers and cache occupancy as one JSON-ready dict."""
        return {
            "metrics": self.metrics.snapshot(),
            "cache": self.cache.stats(),
        }
