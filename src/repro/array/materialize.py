"""Materialization: flush a traced graph through the serving stack.

The flush is two-phase, and the first phase is the whole point:

1. **Fingerprint without lowering.**  The trace's canonical encoding
   (shapes + dtypes + op topology, no input values) is hashed with
   ``fingerprint.trace_digest``.  That digest addresses the two-tier
   artifact cache directly, so re-materializing the same program *shape*
   — a training loop calling the same traced computation on new data —
   never parses, lowers, fuses or renders anything: one compile for run
   one, artifact-cache hits for runs 2..N.  The digest itself is a pure
   function of the trace's rows (:attr:`Trace.rows`, written by the walk
   that orders the graph), the level, the backend and the code version,
   so a per-process memo keyed by those (:data:`_DIGESTS`) hashes each
   shape once; the cache is still asked on every flush, so its hit
   counters count every one.
2. **Lower only on a miss.**  ``Service.compile_ir`` receives the
   lowering as a thunk; the pipeline (fusion, contraction, CSE,
   scalarization, codegen — unmodified) runs once per digest.

Execution feeds traced inputs through the path any request takes
(``CompiledProgram.execute({"arrays": ...})``, checked and copied in by
:func:`repro.scalarize.emit_common.build_state`): each ``in<i>`` value
is padded into its slot of the program's storage layout (declared region
plus halo; only the halo ring is zeroed, by the same
:func:`~repro.scalarize.emit_common.ringed` a run's own state uses, and
that zero ring is what defines out-of-edge ``shift`` reads; a slot with
no halo takes the traced value as it is).  Each ``out<i>``/``res<i>``
result is sliced back to its declared shape; an array whose slot has no
halo is handed back as the run's own fresh buffer, not copied.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.array.graph import Node, Trace
from repro.array.lowering import lower_trace
from repro.fusion import resolve_level
from repro.obs.tracer import NOOP_SPAN
from repro.scalarize.emit_common import NP_DTYPES, ringed
from repro.util.errors import ReproError

#: Defaults for the module-level service: maximum fusion on the
#: vectorizing backend, persistent artifact cache (REPRO_CACHE_DIR).
DEFAULT_LEVEL = "c2+f4"
DEFAULT_BACKEND = "codegen_np"

_default_service = None


def default_service():
    """The lazily created process-wide service used by implicit triggers."""
    global _default_service
    if _default_service is None:
        from repro.service import Service

        _default_service = Service(level=DEFAULT_LEVEL, backend=DEFAULT_BACKEND)
    return _default_service


def set_default_service(service) -> None:
    """Replace the process-wide service (None resets to lazy default)."""
    global _default_service
    _default_service = service


def _interior_box(slot, shape):
    """The raw ``(start, stop)`` pairs of the declared ``[1..s]`` region
    inside the allocation a layout slot describes."""
    return tuple(
        (1 - base, 1 - base + extent) for base, extent in zip(slot.bases, shape)
    )


def _pad_input(node: Node, slot) -> np.ndarray:
    """The input value embedded in a buffer of its slot, zero on the halo
    ring (the traced value itself when the slot has no halo: the run
    copies it in and never writes it)."""
    if slot.shape == node.shape:
        return node.payload
    box = _interior_box(slot, node.shape)
    buffer, _zeroed = ringed(slot.shape, NP_DTYPES[slot.kind], box)
    buffer[tuple(slice(*pair) for pair in box)] = node.payload
    return buffer


#: (trace rows, output ids, level, backend, code version) -> trace digest:
#: each program shape is encoded and hashed once per process.  Emptied
#: when it reaches :data:`_DIGESTS_MAX` entries.
_DIGESTS: Dict[tuple, str] = {}
_DIGESTS_MAX = 256


def _trace_digest(trace: Trace, level: str, backend: str, code_version) -> str:
    key = (trace.rows, trace.output_ids, level, backend, code_version)
    digest = _DIGESTS.get(key)
    if digest is None:
        from repro.service import fingerprint

        digest = fingerprint.trace_digest(
            trace.canonical(), level, backend, code_version=code_version
        )
        if len(_DIGESTS) >= _DIGESTS_MAX:
            _DIGESTS.clear()
        _DIGESTS[key] = digest
    return digest


def compute_nodes(
    nodes: Sequence[Node],
    backend: Optional[str] = None,
    level=None,
    service=None,
) -> List[object]:
    """Materialize graph nodes; one fused program, results in slot order."""
    if service is None:
        service = default_service()
    tracer = service.tracer

    record_cm = (
        tracer.span("trace.record") if tracer.enabled else NOOP_SPAN
    )
    with record_cm as record_span:
        trace = Trace(tuple(nodes))
        level_name = resolve_level(level, service.level).name
        from repro.exec import get_backend

        backend_name = get_backend(backend or service.backend).name
        digest = _trace_digest(
            trace, level_name, backend_name, service.cache.code_version
        )
        record_span.set("nodes", len(trace.order))
        record_span.set("outputs", len(trace.outputs))
        record_span.set("digest", digest)
    service.metrics.incr("trace.materializations")

    def build_ir():
        lower_cm = (
            tracer.span("trace.lower", digest=digest)
            if tracer.enabled
            else NOOP_SPAN
        )
        with lower_cm as lower_span, service.metrics.time("trace.lower"):
            program = lower_trace(trace)
            lower_span.set("statements", len(program.body))
            lower_span.set("arrays", len(program.arrays))
        return program

    compiled = service.compile_ir(
        build_ir, level=level_name, backend=backend_name, digest=digest
    )

    # Already-materialized values (same node, same digest) skip execution.
    names = trace.output_names()
    if all(node.cache.get(digest) is not None for node in trace.outputs):
        return [node.cache[digest] for node in trace.outputs]

    slots = {slot.name: slot for slot in compiled.scalar_program.layout}
    inputs: Dict[str, np.ndarray] = {}
    for node in trace.inputs:
        name = trace.input_name(node)
        slot = slots.get(name)
        if slot is None:  # pragma: no cover - inputs are never contracted
            raise ReproError("input %r missing from compiled allocation" % name)
        inputs[name] = _pad_input(node, slot)

    result = compiled.execute({"arrays": inputs} if inputs else None)

    values: List[object] = []
    handed_out = set()
    for node, name in zip(trace.outputs, names):
        if node.is_array:
            raw = result.arrays[name]
            if raw.shape != node.shape:
                box = _interior_box(slots[name], node.shape)
                value = raw[tuple(slice(*pair) for pair in box)].copy()
            elif name in handed_out:  # a node requested in several slots
                value = raw.copy()
            else:
                value = raw
            handed_out.add(name)
        else:
            value = result.scalars[name]
        node.cache[digest] = value
        values.append(value)
    return values
