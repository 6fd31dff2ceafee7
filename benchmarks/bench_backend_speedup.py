"""Execution-backend speedup: element loops vs whole-region NumPy.

Times the three execution back ends (tree-walking interpreter, generated
Python element loops, generated whole-region NumPy slices) on the paper's
two motivating fragments at ``c2+f3``:

* Figure 1, the Tomcatv tridiagonal fragment — a row-carried recurrence
  the vectorizer must peel: serial in ``i``, one slice per row.
* Figure 5, fragment (5) — the offset self-update whose compiler
  temporary contracts under loop reversal; the reversed outer loop stays
  serial, the inner dimension vectorizes.

Saves the timing table to ``results/backend_speedup.txt`` and asserts the
NumPy back end beats the Python element loops by at least 10x on both.
"""

import sys
import time

import numpy as np
import pytest

from repro.compilers.fragments import FRAGMENTS
from repro.exec import execute
from repro.fusion import C2F3, plan_program
from repro.ir import normalize_source
from repro.scalarize import scalarize

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent))
from bench_fig1_tridiagonal import FRAGMENT as FIG1_FRAGMENT  # noqa: E402

#: (label, source, config overrides) — sizes chosen so the element-loop
#: back end takes tens of milliseconds and per-run noise stays small.
CASES = [
    ("fig1 tridiagonal", FIG1_FRAGMENT, {"n": 64, "m": 2048}),
    ("fig5 fragment 5", FRAGMENTS[4].source, {"n": 256, "m": 256}),
]

#: backend name -> timing repeats (best-of); the interpreter is far too
#: slow to repeat.
REPEATS = {"interp": 1, "codegen_py": 3, "codegen_np": 10}


def time_backend(scalar_program, name: str) -> float:
    best = float("inf")
    for _ in range(REPEATS[name]):
        start = time.perf_counter()
        execute(scalar_program, name)
        best = min(best, time.perf_counter() - start)
    return best


def test_numpy_backend_speedup(save_result):
    lines = [
        "Backend speedup at c2+f3 (seconds, best of %r runs)" % REPEATS,
        "",
        "%-18s %12s %12s %12s %10s %10s"
        % ("fragment", "interp", "codegen_py", "codegen_np", "py/np", "interp/np"),
    ]
    ratios = {}
    for label, source, config in CASES:
        program = normalize_source(source, config)
        scalar_program = scalarize(program, plan_program(program, C2F3))
        results = {
            name: execute(scalar_program, name)
            for name in ("interp", "codegen_py", "codegen_np")
        }
        anchor = results["interp"]
        for name in ("codegen_py", "codegen_np"):
            for array, values in results[name].arrays.items():
                assert np.allclose(
                    values, anchor.arrays[array], equal_nan=True
                ), "%s: %s diverged on %s" % (label, array, name)
        times = {name: time_backend(scalar_program, name) for name in REPEATS}
        ratios[label] = times["codegen_py"] / times["codegen_np"]
        lines.append(
            "%-18s %12.6f %12.6f %12.6f %9.1fx %9.1fx"
            % (
                label,
                times["interp"],
                times["codegen_py"],
                times["codegen_np"],
                ratios[label],
                times["interp"] / times["codegen_np"],
            )
        )
    save_result("backend_speedup", "\n".join(lines))
    for label, ratio in ratios.items():
        assert ratio >= 10.0, "%s: codegen_np only %.1fx faster than codegen_py" % (
            label,
            ratio,
        )
