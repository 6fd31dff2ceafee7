"""Correctness references, none of them the optimized path under test.

* small sizes: the tree-walking ``interp`` backend at level ``baseline``
  (no fusion, no contraction, no generated code);
* full sizes: ``codegen_np`` at level ``baseline`` (``interp`` would take
  minutes), compared on the benchmark's ``CHECK_SCALARS``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np

REL_TOL = 1e-9


def close(actual, expected, rel: float = REL_TOL) -> bool:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return False
    return bool(np.allclose(actual, expected, rtol=rel, atol=1e-12, equal_nan=True))


def scalars_close(actual: Mapping[str, object], expected: Mapping[str, object], names) -> bool:
    return all(
        name in actual and name in expected and close(actual[name], expected[name])
        for name in names
    )


def bench_config(bench, n: int, m: Optional[int] = None) -> Dict[str, int]:
    """The benchmark's default iteration counts at an ``n`` x ``m`` region
    (square unless ``m`` is given)."""
    config = dict(bench.default_config)
    config["n"] = n
    config["m"] = n if m is None else m
    return config


def interp_baseline(bench, config: Mapping[str, int]):
    """The independent reference for small configurations."""
    from repro.exec import execute
    from repro.fusion import BASELINE
    from repro.scalarize import compile_program

    return execute(compile_program(bench.program(config), BASELINE), "interp")


def matches_reference(bench, result, reference) -> bool:
    """``CHECK_SCALARS`` and ``CHECK_ARRAYS`` of ``result`` equal the reference's."""
    if not scalars_close(result.scalars, reference.scalars, bench.check_scalars):
        return False
    return all(
        name in result.arrays and close(result.arrays[name], reference.arrays[name])
        for name in bench.check_arrays
    )


def small_gate(service, bench, cells, reference=None) -> List[str]:
    """Check (level, backend) cells at the benchmark's ``test_config``.

    Returns one message per cell whose outputs differ from ``interp`` at
    ``baseline``; the caller counts each cell as one attempted check.
    """
    if reference is None:
        reference = interp_baseline(bench, bench.test_config)
    problems = []
    for level, backend in cells:
        compiled = service.compile(
            bench.source, level=level, config=bench.test_config, backend=backend
        )
        if not matches_reference(bench, compiled.execute(), reference):
            problems.append(
                "%s at %s on %s differs from interp/baseline at test_config"
                % (bench.name, level, backend)
            )
    return problems


def numpy_baseline(service, bench, config, arrays: Optional[Mapping[str, np.ndarray]] = None):
    """The full-size reference: ``codegen_np`` at ``baseline``."""
    compiled = service.compile(
        bench.source, level="baseline", config=config, backend="codegen_np"
    )
    return compiled.execute({"arrays": dict(arrays)} if arrays else None)
