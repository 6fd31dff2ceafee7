"""The compile-once serving front end.

A :class:`Service` owns one artifact cache and one metrics registry and
turns source programs into :class:`CompiledProgram` artifacts:

* ``compile(source)`` — probe the cache by content digest; on a miss run
  the full pipeline (normalize → ASDG → fusion/contraction → scalarize →
  codegen) with every pass timed, then persist the artifact.
* ``submit(source, request)`` — compile (or hit) and execute one request.
* ``submit_many(source, requests, workers=N)`` — compile once, execute a
  batch of requests with varying config bindings / initial arrays,
  optionally fanned out over a thread pool.

The paper's thesis is that array-level fusion and contraction analysis is
cheap; this layer makes it *one-time*, so repeated traffic pays only
execution cost (the Bohrium fuse-cache / Dask compile-once pattern).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.exec import Artifacts, ExecutionResult, get_backend
from repro.fusion import Level, plan_program, resolve_level
from repro.ir import normalize_source
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
        workers: Optional[int] = None,
        tile_shape=None,
        self_temp_policy: str = "always",
        simplify: bool = False,
        tune: object = False,
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
        self.workers = workers
        self.tile_shape = tile_shape
        self.self_temp_policy = self_temp_policy
        self.simplify = simplify
        #: Default tuning behavior for ``compile``/``submit`` calls that
        #: do not pass ``tune=`` themselves: False (never consult the
        #: tuning DB), True (consult the default DB), or a
        #: :class:`repro.tune.tunedb.TuneDB` instance.
        self.tune = tune
        #: Tile engine shared by every tile-parallel execution this
        #: service runs, so tile/sweep/serial-fallback counts land in
        #: the service's metrics registry.
        from repro.parallel.engine import TileEngine

        self.tile_engine = TileEngine(
            workers=workers,
            tile_shape=tile_shape,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        #: Engines for tuned plans that force a specific worker count /
        #: tile shape, keyed by (workers, tile_shape) so every artifact
        #: tuned to one configuration shares one pool.
        self._engines: Dict[tuple, object] = {}
        self._engines_lock = threading.Lock()
        self._tunedb = None
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

    # -- tuning ------------------------------------------------------------

    def tunedb(self):
        """The tuning database this service consults (created lazily)."""
        if self._tunedb is None:
            from repro.tune.tunedb import TuneDB

            self._tunedb = TuneDB(
                metrics=self.metrics, code_version=self.cache.code_version
            )
        return self._tunedb

    def _tuned_plan(self, source, config, tune):
        """The stored winning plan for these inputs, or None.

        ``tune`` may be False/None (never consult the DB), True (the
        default DB) or a :class:`repro.tune.tunedb.TuneDB`.
        """
        if tune is None:
            tune = self.tune
        if not tune:
            return None
        from repro.tune.tunedb import TuneDB

        db = tune if isinstance(tune, TuneDB) else self.tunedb()
        record = db.get(
            db.digest_for(source, config, self.self_temp_policy, self.simplify)
        )
        if record is None:
            self.metrics.incr("tune.plan_misses")
            return None
        self.metrics.incr("tune.plan_applied")
        return record.plan

    def engine_for(self, workers=None, tile_shape=None):
        """A shared tile engine for a specific (workers, tile shape).

        Defaults fall through to the service-wide engine; tuned
        configurations each get one pool, reused across artifacts.
        """
        if workers is None and tile_shape is None:
            return self.tile_engine
        if isinstance(tile_shape, list):
            tile_shape = tuple(tile_shape)
        key = (workers, tile_shape)
        with self._engines_lock:
            engine = self._engines.get(key)
            if engine is None:
                from repro.parallel.engine import TileEngine

                engine = self._engines[key] = TileEngine(
                    workers=workers if workers is not None else self.workers,
                    tile_shape=tile_shape,
                    metrics=self.metrics,
                    tracer=self.tracer,
                )
            return engine

    # -- compile (continued) ----------------------------------------------

    def compile(
        self,
        source: str,
        level: Union[Level, str, None] = None,
        config: Optional[Mapping[str, object]] = None,
        backend: Optional[str] = None,
        tune: object = None,
    ) -> CompiledProgram:
        """Compile once (or fetch the cached artifact) for these inputs.

        With ``tune`` (or a service-wide ``tune=`` default), the tuning
        database is consulted first; a stored plan overrides the level,
        backend, worker count and tile shape, and the artifact is served
        exactly as if those had been requested directly.
        """
        tuned = self._tuned_plan(source, config, tune)
        if tuned is not None:
            level = tuned.level
            backend = tuned.backend
        level_obj = resolve_level(level, self.level)
        backend_name = get_backend(backend or self.backend).name
        plan = {
            "level": level_obj.name,
            "backend": backend_name,
            "workers": tuned.workers if tuned is not None else None,
            "tile_shape": tuned.tile_shape if tuned is not None else None,
            "tuned": tuned is not None,
        }
        digest = self.digest_for(source, level_obj, config, backend_name)
        return self._serve(
            digest,
            plan,
            lambda: self._build(source, level_obj, config, backend_name, digest),
        )

    def compile_ir(
        self,
        program: object,
        level: Union[Level, str, None] = None,
        backend: Optional[str] = None,
        digest: Optional[str] = None,
    ) -> CompiledProgram:
        """Compile a prebuilt *normalized IR* program (or fetch its artifact).

        ``program`` is an :class:`repro.ir.IRProgram` or a zero-argument
        callable returning one.  The callable form is the tracing-frontend
        fast path: callers that can address the artifact by their own
        content digest (``fingerprint.trace_digest`` of a recorded
        expression graph) pass it as ``digest`` and pay for lowering only
        on a cache miss — a warm probe never builds the IR at all.

        Identical to :meth:`compile` minus the normalize pass: cache
        probe, single-flight build, per-pass spans, artifact persistence.
        """
        level_obj = resolve_level(level, self.level)
        backend_name = get_backend(backend or self.backend).name
        if callable(program):
            build_ir = program
        else:
            build_ir = lambda: program  # noqa: E731
        if digest is None:
            built = build_ir()
            build_ir = lambda: built  # noqa: E731
            digest = fingerprint.ir_digest(
                built,
                level_obj.name,
                backend_name,
                code_version=self.cache.code_version,
            )
        plan = {
            "level": level_obj.name,
            "backend": backend_name,
            "workers": None,
            "tile_shape": None,
            "tuned": False,
        }
        return self._serve(
            digest,
            plan,
            lambda: self._build_ir(build_ir, level_obj, backend_name, digest),
        )

    def _serve(self, digest, plan, build_payload) -> CompiledProgram:
        """Cache probe + single-flight build, shared by every compile path."""
        tracer = self.tracer
        compile_cm = (
            tracer.span(
                "compile",
                digest=digest,
                level=plan["level"],
                backend=plan["backend"],
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
                return self._wrap(payload, from_cache=True, plan=plan)
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
                return self._wrap(future.result(), from_cache=True, plan=plan)
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
                        payload = build_payload()
                        self.cache.put(digest, payload)
                future.set_result(payload)
            except BaseException as error:
                future.set_exception(error)
                raise
            finally:
                with self._inflight_lock:
                    self._inflight.pop(digest, None)
            return self._wrap(payload, from_cache=from_cache, plan=plan)

    def _wrap(
        self,
        payload: Dict[str, object],
        from_cache: bool,
        plan: Optional[Dict[str, object]] = None,
    ) -> CompiledProgram:
        engine = self.tile_engine
        if plan is not None and "engine" in get_backend(plan["backend"]).options:
            engine = self.engine_for(plan.get("workers"), plan.get("tile_shape"))
        return CompiledProgram(
            payload,
            metrics=self.metrics,
            from_cache=from_cache,
            engine=engine,
            plan=plan,
            tracer=self.tracer,
            cache=self.cache,
        )

    def _build(
        self,
        source: str,
        level: Level,
        config: Optional[Mapping[str, object]],
        backend_name: str,
        digest: str,
    ) -> Dict[str, object]:
        build = Metrics()
        self.metrics.incr("service.compiles")
        # Per-pass spans ride the same timers= hook the metrics use: the
        # fanout forwards each ``compile.*`` section to both sinks, so
        # spans nest under the active ``compile`` span automatically.
        timers = TracedTimers(build, self.tracer if self.tracer.enabled else None)
        with build.time("compile.total"):
            with timers.time("compile.normalize"):
                program = normalize_source(source, config, self.self_temp_policy)
                if self.simplify:
                    from repro.ir import simplify_program

                    simplify_program(program)
            scalar_program, code = self._plan_and_render(
                program, level, backend_name, digest, timers
            )
        return self._finish_build(
            build, digest, level, config, backend_name, scalar_program, code
        )

    def _build_ir(
        self,
        build_ir,
        level: Level,
        backend_name: str,
        digest: str,
    ) -> Dict[str, object]:
        """The miss path for :meth:`compile_ir`: no normalize pass."""
        build = Metrics()
        self.metrics.incr("service.compiles")
        timers = TracedTimers(build, self.tracer if self.tracer.enabled else None)
        with build.time("compile.total"):
            program = build_ir()
            scalar_program, code = self._plan_and_render(
                program, level, backend_name, digest, timers
            )
        return self._finish_build(
            build, digest, level, None, backend_name, scalar_program, code
        )

    def _plan_and_render(self, program, level, backend_name, digest, timers):
        """Fuse, scalarize and render one normalized program.

        A backend whose loader keeps a product in the artifact cache
        (``Backend.eager`` — the ``c`` backend's shared object) is also
        loaded here, on the build (miss) path and under the build lock,
        so the ``compile.cc`` span and ``native.cc_invocations`` counter
        measure exactly the cold cost a warm serve avoids.  Machines that
        cannot load it skip silently — execution raises
        ``BackendUnavailableError`` there, but the rendered code in the
        payload stays inspectable and cacheable.
        """
        backend = get_backend(backend_name)
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
        return scalar_program, code

    def _finish_build(
        self, build, digest, level, config, backend_name, scalar_program, code
    ) -> Dict[str, object]:
        snapshot = build.snapshot()["timers"]
        timings = {
            name: stats["total_s"]
            for name, stats in snapshot.items()
        }
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
            "compile_timings": timings,
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
        tune: object = None,
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
            compiled = self.compile(source, level, merged, backend, tune=tune)
            compiled_by_digest[route_key] = compiled
        return compiled, ({"arrays": arrays} if arrays is not None else None)

    def submit(
        self,
        source: str,
        request: Request = None,
        level: Union[Level, str, None] = None,
        config: Optional[Mapping[str, object]] = None,
        backend: Optional[str] = None,
        tune: object = None,
    ) -> ExecutionResult:
        """Compile (or hit the cache) and execute one request."""
        compiled, exec_request = self._route(
            source, request, level, config, backend, {}, tune=tune
        )
        return compiled.execute(exec_request)

    def submit_many(
        self,
        source: str,
        requests: Sequence[Request],
        workers: Optional[int] = None,
        level: Union[Level, str, None] = None,
        config: Optional[Mapping[str, object]] = None,
        backend: Optional[str] = None,
        tune: object = None,
    ) -> List[ExecutionResult]:
        """Compile once per distinct config binding, execute every request.

        Results are order-preserving.  With ``workers > 1`` executions fan
        out across a thread pool; compilation stays on the calling thread
        (each distinct binding compiles exactly once, warm bindings are
        cache hits).
        """
        compiled_by_digest: Dict[str, CompiledProgram] = {}
        routed = [
            self._route(
                source, request, level, config, backend, compiled_by_digest,
                tune=tune,
            )
            for request in requests
        ]
        if workers is None:
            workers = self.workers
        self.metrics.incr("service.batches")
        if workers is not None and workers > 1 and len(routed) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(
                    pool.map(
                        lambda pair: pair[0].execute(pair[1]),
                        routed,
                    )
                )
        return [compiled.execute(request) for compiled, request in routed]

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Counters, timers and cache occupancy as one JSON-ready dict."""
        return {
            "metrics": self.metrics.snapshot(),
            "cache": self.cache.stats(),
        }
