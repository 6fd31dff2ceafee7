"""Materialization: flush a traced graph through the serving stack.

The flush is two-phase, and the first phase is the whole point:

1. **Fingerprint without lowering.**  The trace's canonical encoding
   (shapes + dtypes + op topology, no input values) is hashed with
   ``fingerprint.trace_digest``.  That digest addresses the two-tier
   artifact cache directly, so re-materializing the same program *shape*
   — a training loop calling the same traced computation on new data —
   never parses, lowers, fuses or renders anything: one compile for run
   one, artifact-cache hits for runs 2..N.
2. **Lower only on a miss.**  ``Service.compile_ir`` receives the
   lowering as a thunk; the pipeline (fusion, contraction, CSE,
   scalarization, codegen — unmodified) runs once per digest.

Execution feeds traced inputs through the path any request takes
(``CompiledProgram.execute({"arrays": ...})``, checked and copied in by
:func:`repro.scalarize.emit_common.build_state`): each ``in<i>`` value
is padded into its slot of the program's storage layout (declared region
plus halo, halo zero-filled — that zero fill is what defines out-of-edge
``shift`` reads), and each ``out<i>``/``res<i>`` result is sliced back
to its declared shape.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.array.graph import Node, Trace
from repro.array.lowering import lower_trace
from repro.fusion import resolve_level
from repro.obs.tracer import NOOP_SPAN
from repro.scalarize.emit_common import NP_DTYPES
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


def _interior_slices(slot, shape):
    """Slices selecting the declared ``[1..s]`` region inside the
    allocation a layout slot describes."""
    return tuple(
        slice(1 - base, 1 - base + extent)
        for base, extent in zip(slot.bases, shape)
    )


def _pad_input(node: Node, slot) -> np.ndarray:
    """The input value embedded in a zero-filled buffer of its slot."""
    buffer = np.zeros(slot.shape, dtype=NP_DTYPES[slot.kind])
    buffer[_interior_slices(slot, node.shape)] = node.payload
    return buffer


def compute_nodes(
    nodes: Sequence[Node],
    backend: Optional[str] = None,
    level=None,
    tune: object = False,
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
        canonical = trace.canonical()
        if tune:
            # The tuning DB is keyed by program text; the canonical trace
            # encoding *is* this program's text.  A stored plan overrides
            # level and backend, exactly like Service.compile(tune=).
            tuned = service._tuned_plan(
                json.dumps(canonical, sort_keys=True), None, tune
            )
            if tuned is not None:
                level = tuned.level
                backend = tuned.backend
        level_name = resolve_level(level, service.level).name
        from repro.exec import get_backend

        backend_name = get_backend(backend or service.backend).name
        from repro.service import fingerprint

        digest = fingerprint.trace_digest(
            canonical,
            level_name,
            backend_name,
            code_version=service.cache.code_version,
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
    for node, name in zip(trace.outputs, names):
        if node.is_array:
            raw = result.arrays[name]
            value = raw[_interior_slices(slots[name], node.shape)].copy()
        else:
            value = result.scalars[name]
        node.cache[digest] = value
        values.append(value)
    return values
