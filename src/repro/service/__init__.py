"""The compile-once serving layer.

Treats the compiler as a long-lived service: programs are compiled once,
content-addressed by a stable digest of ``(source or traced graph,
level, config, backend, code version)``, stored in a two-tier artifact
cache (in-memory LRU over a persistent on-disk store), and executed many
times with varying config bindings and initial arrays — with every
pipeline pass, cache probe and backend execution metered.

    from repro.service import Service

    service = Service(level="c2+f3", backend="codegen_np")
    compiled = service.compile(source)            # miss: full pipeline
    compiled = service.compile(source)            # hit: artifact replay
    results = service.submit_many(
        source, [{"config": {"n": size}} for size in (64, 128, 256)]
    )
    print(service.stats())
"""

from repro.service.cache import (
    ARTIFACT_SCHEMA,
    ArtifactCache,
    DEFAULT_CACHE_DIR,
    ENV_CACHE_DIR,
    ENV_CACHE_MAX_BYTES,
    default_cache_dir,
)
from repro.service.compiled import CompiledProgram, split_request
from repro.service.fingerprint import CODE_VERSION, source_digest
from repro.service.metrics import Metrics, TimerStat
from repro.service.service import COMPILE_PASSES, Service

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactCache",
    "CODE_VERSION",
    "COMPILE_PASSES",
    "CompiledProgram",
    "DEFAULT_CACHE_DIR",
    "ENV_CACHE_DIR",
    "ENV_CACHE_MAX_BYTES",
    "Metrics",
    "Service",
    "TimerStat",
    "default_cache_dir",
    "source_digest",
    "split_request",
]
