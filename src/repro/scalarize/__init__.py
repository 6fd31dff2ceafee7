"""Scalarization: fusible clusters to loop nests, contraction to scalars."""

from repro.scalarize.codegen_c import (
    AbiEntry,
    CGenerator,
    c_abi,
    render_c,
    render_c_module,
)
from repro.scalarize.codegen_np import NumpyGenerator, render_numpy
from repro.scalarize.codegen_py import PyGenerator, render_python
from repro.scalarize.loopnest import (
    ElemAssign,
    LoopNest,
    SBoundary,
    ScalarAssign,
    ScalarProgram,
    SeqLoop,
    SIf,
    Slot,
    SNode,
    SWhile,
    loop_variable,
    walk,
)
from repro.scalarize.scalarizer import (
    Scalarizer,
    compile_program,
    contraction_scalar,
    scalarize,
)

#: The frozen ``benchmarks/e2e`` tree names this next to ``LoopNest`` in an
#: ``isinstance`` filter; there is no second executable node kind.
ReductionLoop = LoopNest

__all__ = [
    "AbiEntry",
    "CGenerator",
    "c_abi",
    "ElemAssign",
    "NumpyGenerator",
    "PyGenerator",
    "render_numpy",
    "render_python",
    "LoopNest",
    "ReductionLoop",
    "SBoundary",
    "ScalarAssign",
    "ScalarProgram",
    "Scalarizer",
    "SeqLoop",
    "SIf",
    "Slot",
    "SNode",
    "SWhile",
    "compile_program",
    "contraction_scalar",
    "loop_variable",
    "render_c",
    "render_c_module",
    "scalarize",
    "walk",
]
