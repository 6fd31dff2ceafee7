"""A compiled program: one artifact, many executions.

``CompiledProgram`` wraps a cached artifact payload (the scalarized
program plus the rendered backend code) and executes it repeatedly with
per-request initial array contents, without ever re-running the
array-level pipeline.  The rendered code is loaded through the backend
registry (:class:`repro.exec.Backend`) once per backend and the
resulting ``run`` reused across requests: handles a
:class:`~repro.service.service.Service` builds keep their loaded runs on
the artifact cache's memory-tier entry, so every handle for one digest
(each ``submit``, daemon job and ``repro.array`` materialization makes a
new one) shares a single load; a handle built directly from a payload
keeps a private memo.

Configuration bindings are *compile-time* in this compiler —
normalization folds config values into region bounds and expressions —
so a request carrying ``{"config": ...}`` is routed by
:class:`repro.service.service.Service` to the artifact compiled for that
binding (one cache entry per binding, hit on every repeat), not rebound
here.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional, Tuple

from repro.exec import Artifacts, Backend, ExecutionResult, get_backend
from repro.obs.tracer import NOOP_SPAN
from repro.scalarize.loopnest import ScalarProgram
from repro.service.metrics import Metrics
from repro.util.errors import ReproError

#: A request: ``None`` or a mapping with optional ``config`` (routed by
#: the Service to a per-binding artifact) and ``arrays`` (initial array
#: contents, allocation-region layout) keys.
Request = Optional[Mapping[str, object]]


def split_request(request: Request) -> Tuple[Dict[str, object], Optional[Mapping]]:
    """Split a request into (config bindings, initial arrays)."""
    if request is None:
        return {}, None
    if not isinstance(request, Mapping):
        raise ReproError(
            "a request must be a mapping with optional 'config' and "
            "'arrays' keys, got %r" % (request,)
        )
    unknown = set(request) - {"config", "arrays"}
    if unknown:
        raise ReproError(
            "unknown request keys %s (expected 'config' and/or 'arrays')"
            % ", ".join(sorted(map(repr, unknown)))
        )
    return dict(request.get("config") or {}), request.get("arrays")


class CompiledProgram:
    """An executable artifact addressed by its content digest."""

    def __init__(
        self,
        payload: Dict[str, object],
        metrics: Optional[Metrics] = None,
        from_cache: bool = False,
        engine=None,
        plan: Optional[Dict[str, object]] = None,
        tracer=None,
        cache=None,
    ) -> None:
        self._payload = payload
        #: Optional :class:`repro.service.cache.ArtifactCache`; handed to
        #: the backend's loader so products it keeps there (the ``c``
        #: backend's content-addressed ``.so``) are reused, not rebuilt.
        self._cache = cache
        self.metrics = metrics or Metrics()
        #: Optional :class:`repro.obs.Tracer`; every ``execute`` records
        #: an ``execute`` span when it is present and enabled.
        self._tracer = tracer
        #: Whether this instance was served from the artifact cache.
        self.from_cache = from_cache
        #: Tile engine handed to backends taking an ``engine`` option
        #: (None: the process-wide default engine).
        self.engine = engine
        #: The serving plan this artifact runs under: level, backend,
        #: workers, tile shape, and whether the autotuner chose it.
        #: Every ``execute`` records it, so ``repro serve --stats`` can
        #: attribute request counts (and tail latency) to plans.
        self._plan = plan or {
            "level": payload.get("level"),
            "backend": payload.get("backend"),
            "workers": None,
            "tile_shape": None,
            "tuned": False,
        }
        #: backend name -> loaded ``run``, and the lock loads happen under:
        #: the cache's memory-tier memo for this digest when there is one.
        self._runs, self._lock = (
            cache.loaded_runs(self.digest)
            if cache is not None
            else ({}, threading.Lock())
        )

    # -- payload views -----------------------------------------------------

    @property
    def digest(self) -> str:
        return self._payload["digest"]

    @property
    def backend(self) -> str:
        return self._payload["backend"]

    @property
    def level(self) -> str:
        return self._payload["level"]

    @property
    def config(self) -> Dict[str, object]:
        """The config bindings this artifact was compiled under."""
        return dict(self._payload.get("config") or {})

    @property
    def scalar_program(self) -> ScalarProgram:
        return self._payload["scalar_program"]

    @property
    def code(self) -> Optional[str]:
        """The rendered backend source stored in the artifact (codegen
        backends only)."""
        return self._payload.get("code")

    @property
    def compile_timings(self) -> Dict[str, float]:
        return dict(self._payload.get("compile_timings") or {})

    @property
    def plan(self) -> Dict[str, object]:
        """The serving plan: level/backend/workers/tile_shape/tuned."""
        return dict(self._plan)

    @property
    def plan_id(self) -> str:
        """A compact plan label, e.g. ``c2+f4/np-par/w4/t32x1600``."""
        parts = [str(self._plan.get("level")), str(self._plan.get("backend"))]
        workers = self._plan.get("workers")
        if workers is not None:
            parts.append("w%d" % workers)
        tile_shape = self._plan.get("tile_shape")
        if tile_shape is not None:
            if isinstance(tile_shape, (list, tuple)):
                parts.append("t%s" % "x".join(str(e) for e in tile_shape))
            else:
                parts.append("t%s" % tile_shape)
        return "/".join(parts)

    # -- execution ---------------------------------------------------------

    def execute(
        self, request: Request = None, backend: Optional[str] = None
    ) -> ExecutionResult:
        """Run once; ``request`` may seed arrays: ``{"arrays": {"A": nd}}``.

        A request naming config bindings different from this artifact's is
        rejected — route it through ``Service.submit`` instead, which
        compiles (or cache-hits) the artifact for that binding.
        """
        backend_obj = get_backend(backend or self.backend)
        backend_name = backend_obj.name
        config, arrays = split_request(request)
        if config and config != {
            name: self.config.get(name) for name in config
        }:
            raise ReproError(
                "request rebinds configs %s but this artifact was compiled "
                "with %r; submit the request through a Service so it is "
                "routed to the artifact for that binding"
                % (sorted(config), self.config)
            )
        tracer = self._tracer
        span_cm = (
            tracer.span(
                "execute",
                digest=self.digest,
                backend=backend_name,
                plan=self.plan_id,
            )
            if tracer is not None and tracer.enabled
            else NOOP_SPAN
        )
        with span_cm, self.metrics.time("execute.%s" % backend_name):
            run = self._runs.get(backend_name) or self._load(backend_obj)
            if "engine" in backend_obj.options:
                result = run(arrays, engine=self.engine)
            else:
                result = run(arrays)
        self.metrics.incr("execute.requests")
        self.metrics.incr("plan.%s" % self.plan_id)
        if self._plan.get("tuned"):
            self.metrics.incr("execute.tuned_requests")
        return result

    # -- loaded-run memoization -------------------------------------------

    def _load(self, backend: Backend):
        """Load this artifact on ``backend`` once; later calls hit the memo.

        The stored code is reused when it was rendered for this backend;
        cross-backend execution renders on first use.
        """
        with self._lock:
            run = self._runs.get(backend.name)
            if run is None:
                code = self.code if backend.name == self.backend else None
                if code is None:
                    with self.metrics.time("compile.codegen"):
                        code = backend.render(self.scalar_program)
                artifacts = (
                    Artifacts(self._cache, self.digest, self.metrics)
                    if self._cache is not None
                    else None
                )
                run = self._runs[backend.name] = backend.load(
                    self.scalar_program, code, artifacts
                )
        return run

    def __repr__(self) -> str:
        return "CompiledProgram(%s, level=%s, backend=%s%s)" % (
            self.digest[:12],
            self.level,
            self.backend,
            ", cached" if self.from_cache else "",
        )
