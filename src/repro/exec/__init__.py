"""Execution back ends behind one registry (see :mod:`repro.exec.backends`)."""

from repro.exec.backends import (
    ALIASES,
    BACKEND_CHOICES,
    BACKENDS,
    Artifacts,
    Backend,
    ExecutionResult,
    InitialArrays,
    aliases_of,
    bind,
    execute,
    get_backend,
)

__all__ = [
    "ALIASES",
    "BACKEND_CHOICES",
    "Artifacts",
    "BACKENDS",
    "Backend",
    "ExecutionResult",
    "InitialArrays",
    "aliases_of",
    "bind",
    "execute",
    "get_backend",
]
