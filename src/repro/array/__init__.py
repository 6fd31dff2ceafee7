"""``repro.array`` — a lazy NumPy-like frontend over the fusion pipeline.

Array expressions written in Python are *recorded*, not executed::

    import numpy as np
    import repro.array as ra

    a = ra.asarray(np.linspace(0.0, 1.0, 100).reshape(10, 10))
    b = (a + a.shift(0, 1)) * 0.5          # nothing runs yet
    total = b.sum()                         # still nothing
    print(total.compute(backend="codegen_np", level="c2+f4"))

``compute()`` (or any implicit trigger: ``np.asarray``, ``float()``,
``print``) lowers the whole recorded graph to the normalized IR, runs
the unmodified fusion + contraction + CSE pipeline over it, and executes
the fused program on any registered backend — so a chain of Python ops
that NumPy would evaluate one temporary at a time becomes one fused
loop nest (the Bohrium record-and-fuse design on top of the paper's
optimizer).

Repeat executions of the same program *shape* are free of compilation:
the traced graph is fingerprinted structurally (shapes + dtypes + op
topology via ``fingerprint.trace_digest``) and repeated shapes hit the
two-tier artifact cache, feeding fresh input values straight into the
compiled program.
"""

from __future__ import annotations

from typing import Optional

from repro.array.ops import (
    LazyArray,
    LazyScalar,
    absolute,
    asarray,
    atan,
    ceil,
    cos,
    exp,
    floor,
    full,
    index,
    log,
    logical_and,
    logical_not,
    logical_or,
    maximum,
    minimum,
    mod,
    ones,
    power,
    sign,
    sin,
    sqrt,
    tan,
    zeros,
)
from repro.array.materialize import default_service, set_default_service


def compute(
    *values,
    backend: Optional[str] = None,
    level=None,
    service=None,
):
    """Materialize several lazy values through **one** fused program.

    Returns one result per argument (an ndarray per array, a numpy
    scalar per reduction).  Shared subexpressions are computed once, and
    the whole multi-output graph is fused and cached as a unit.
    """
    from repro.array import materialize
    from repro.array.ops import _LazyBase
    from repro.util.errors import ReproError

    for value in values:
        if not isinstance(value, _LazyBase):
            raise ReproError(
                "compute() takes LazyArray/LazyScalar values, got %r"
                % type(value).__name__
            )
    results = materialize.compute_nodes(
        tuple(value.node for value in values),
        backend=backend,
        level=level,
        service=service,
    )
    return results[0] if len(results) == 1 else tuple(results)


__all__ = [
    "LazyArray",
    "LazyScalar",
    "absolute",
    "asarray",
    "atan",
    "ceil",
    "compute",
    "cos",
    "default_service",
    "exp",
    "floor",
    "full",
    "index",
    "log",
    "logical_and",
    "logical_not",
    "logical_or",
    "maximum",
    "minimum",
    "mod",
    "ones",
    "power",
    "set_default_service",
    "sign",
    "sin",
    "sqrt",
    "tan",
    "zeros",
]
