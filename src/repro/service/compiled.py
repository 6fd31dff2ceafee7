"""A compiled program: one artifact, many executions.

``CompiledProgram`` wraps a cached artifact payload (the scalarized
program plus the rendered backend code) and executes it repeatedly with
per-request initial array contents, without ever re-running the
array-level pipeline.  It runs on the backend whose code it holds: the
rendered code is loaded through the backend registry
(:class:`repro.exec.Backend`) once and the resulting ``run`` reused
across requests.  Handles a :class:`~repro.service.service.Service`
builds keep their loaded run on the artifact cache's memory-tier entry,
so every handle for one digest (each ``submit``, daemon job and
``repro.array`` materialization makes a new one) shares a single load; a
handle built directly from a payload keeps a private one.  To run the
compiled program on another backend, hand ``scalar_program`` to
:func:`repro.exec.execute`.

Configuration bindings are *compile-time* in this compiler —
normalization folds config values into region bounds and expressions —
so a request carrying ``{"config": ...}`` is routed by
:class:`repro.service.service.Service` to the artifact compiled for that
binding (one cache entry per binding, hit on every repeat), not rebound
here.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.exec import Artifacts, ExecutionResult, get_backend
from repro.obs.tracer import NOOP_SPAN
from repro.scalarize.loopnest import ScalarProgram
from repro.service.cache import LoadedRun
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
        #: The ``run`` loaded from this artifact: the cache's memory-tier
        #: one for this digest when there is one.
        self._loaded = (
            cache.loaded_runs(self.digest) if cache is not None else LoadedRun()
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

    # -- execution ---------------------------------------------------------

    def execute(self, request: Request = None) -> ExecutionResult:
        """Run once; ``request`` may seed arrays: ``{"arrays": {"A": nd}}``.

        A request naming config bindings different from this artifact's is
        rejected — route it through ``Service.submit`` instead, which
        compiles (or cache-hits) the artifact for that binding.
        """
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
                backend=self.backend,
                level=self.level,
            )
            if tracer is not None and tracer.enabled
            else NOOP_SPAN
        )
        with span_cm, self.metrics.time("execute.%s" % self.backend):
            run = self._loaded.run or self._load()
            result = run(arrays)
        self.metrics.incr("execute.requests")
        return result

    def _load(self):
        """Load this artifact's code once; later calls reuse the run."""
        loaded = self._loaded
        with loaded.lock:
            if loaded.run is None:
                artifacts = (
                    Artifacts(self._cache, self.digest, self.metrics)
                    if self._cache is not None
                    else None
                )
                loaded.run = get_backend(self.backend).load(
                    self.scalar_program, self.code, artifacts
                )
        return loaded.run

    def __repr__(self) -> str:
        return "CompiledProgram(%s, level=%s, backend=%s%s)" % (
            self.digest[:12],
            self.level,
            self.backend,
            ", cached" if self.from_cache else "",
        )
