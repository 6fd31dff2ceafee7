"""The execution-backend registry.

Six ways to execute a scalarized program, one lifecycle.  The scalarizer
hands every executor the same thing — one loop nest per fusible cluster,
a single :class:`~repro.scalarize.loopnest.ScalarProgram` — and every
:class:`Backend` record turns it into a callable the same way:
``render(program)`` produces the backend's source text (``None`` for the
backends that run the program directly), ``load(program, code,
artifacts)`` produces ``run``, and ``run(inputs, scalars=None,
**options)`` returns an :class:`ExecutionResult` (``scalars`` carries the
starting values of the program's ``scalar_inputs``, if it declares any).
:func:`execute`, the serving layer, the autotuner and ``mp-shard``'s
per-worker executor all go through that record, so adding a backend is
one entry in :data:`BACKENDS`.

What a single-process backend *writes* is one function, its kernel
loader: ``kernel(program, code=None, artifacts=None)`` returns
``kernel(arrays, scalars, **options) -> final scalars``, which works in
place on arrays the caller built and allocates no program storage
itself.  ``load`` is derived from it by :func:`bind`, the one place a
run starts and ends: check the request and build its state
(:func:`repro.scalarize.emit_common.build_state` over
:attr:`ScalarProgram.layout`), call the kernel, hand back the arrays it
worked on and the final scalars as plain Python values in declared
order.  ``mp-shard`` is a driver, not a kernel: it has its own ``load``
and its ranks call the local backend's kernel on their local arrays.

``interp``
    The tree-walking loop interpreter (:mod:`repro.interp.loop_interp`).
    Slowest; the semantic anchor every code generator is tested against.

``codegen_py`` (alias ``codegen``, ``py``)
    Generated Python element loops (:mod:`repro.scalarize.codegen_py`),
    ``exec``-uted.  Same iteration order as the interpreter without the
    per-node dispatch overhead.

``codegen_np`` (alias ``numpy``, ``np``)
    Generated whole-region NumPy slice operations
    (:mod:`repro.scalarize.codegen_np`), vectorizing every loop level the
    carry analysis proves dependence-free.

``np-par`` (alias ``np_par``, ``par``)
    The tile-parallel engine (:mod:`repro.parallel.engine`): each
    dependence-free sweep is sharded into tiles executed on a worker
    pool, with shardability proved from the same carry analysis.
    Accepts ``workers=`` / ``tile_shape=`` options (or a prebuilt
    ``engine=``).

``c`` (alias ``cc``, ``native``)
    Host-compiled C (:mod:`repro.exec.native`): the fused loop nests
    render as one translation unit, compile with the system ``cc`` and
    run via ``ctypes`` — contracted arrays live in registers, not NumPy
    temporaries.  Needs a C compiler on the machine; without one it
    raises :class:`repro.util.errors.BackendUnavailableError` (probe
    with :func:`repro.exec.native.cc_available`).

``mp-shard`` (alias ``mp_shard``, ``shard``)
    The multi-process sharded backend (:mod:`repro.exec.mp_shard`):
    regions are block-partitioned across worker *processes* on a
    :class:`repro.parallel.distribution.ProcessorGrid`, each worker runs
    one of the single-process backends on its clamped sub-region
    (``local_backend=``, default ``codegen_np``), and halos move through
    ``multiprocessing.shared_memory`` on exactly the exchange schedules
    :mod:`repro.parallel.commopt` derives.  Accepts ``procs=`` (default
    ``$REPRO_PROCS`` or up to 4) and ``comm_options=`` (a
    :class:`repro.parallel.commopt.CommOptions`).  Results are
    bit-identical to ``codegen_np``.

All of them return an :class:`ExecutionResult`: plain dicts of final
array and scalar state, directly comparable across back ends.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.scalarize.codegen_c import c_abi, render_c_module
from repro.scalarize.codegen_np import render_numpy
from repro.scalarize.codegen_py import render_python
from repro.scalarize.emit_common import (
    build_state,
    scalar_value,
    validate_scalars,
)
from repro.scalarize.loopnest import ScalarProgram
from repro.util.errors import ReproError

#: Optional per-request inputs: array name -> initial contents (allocation
#: region layout, the same shape an :class:`ExecutionResult` returns).
InitialArrays = Optional[Mapping[str, np.ndarray]]


class ExecutionResult(NamedTuple):
    """Final program state: array name -> ndarray, scalar name -> value."""

    arrays: Dict[str, np.ndarray]
    scalars: Dict[str, object]


class Artifacts(NamedTuple):
    """What a loader may reuse across processes, handed in by the caller.

    Every ``Backend.load`` accepts one.  ``c`` consults the
    content-addressed ``.so`` tier of ``cache`` (keyed by its C text, so
    shared by every ``digest`` that renders it); ``metrics`` counts
    compiler invocations and, on every
    run of the loaded program, the bytes its state cost
    (``exec.bytes_zeroed`` / ``exec.bytes_copied``); ``timers`` (anything
    with ``.time(name)``; default ``metrics``) times the compiler.
    """

    cache: object
    digest: str
    metrics: object
    timers: object = None


#: Optional per-request scalars: the starting value of every name in the
#: program's ``scalar_inputs`` (:func:`emit_common.validate_scalars`).
InitialScalars = Optional[Mapping[str, object]]

#: ``run(inputs, scalars=None, **options)``: one execution of a loaded
#: program.
Run = Callable[..., ExecutionResult]

#: ``kernel(arrays, scalars, **options) -> final scalars``: one execution
#: in place on the arrays (and from the starting scalars) it is handed.
Kernel = Callable[..., Mapping[str, object]]


class Backend(NamedTuple):
    name: str
    description: str
    #: ``render(program)`` -> the source text ``load`` consumes and the
    #: serving layer stores in its artifacts, or None when the backend
    #: executes the :class:`ScalarProgram` directly.
    render: Callable[[ScalarProgram], Optional[str]]
    #: ``load(program, code=None, artifacts=None)`` -> :data:`Run`.  All
    #: one-time work (rendering when ``code`` is None, ``compile()``, the
    #: host C compiler) happens here, never inside ``run``.
    load: Callable[..., Run]
    #: The run-time keyword names ``run`` accepts besides the inputs.
    options: Tuple[str, ...] = ()
    #: True when ``load`` leaves a product in ``artifacts.cache`` that
    #: later processes reuse, so the serving layer loads at build time
    #: (under its cross-process build lock) instead of on first execute.
    eager: bool = False
    #: ``kernel(program, code=None, artifacts=None)`` -> :data:`Kernel`,
    #: the function ``load`` is derived from (:func:`_from_kernel`);
    #: None for a driver that has no kernel form (``mp-shard``).
    kernel: Optional[Callable[..., Kernel]] = None


def bind(program: ScalarProgram, kernel: Kernel, metrics=None) -> Run:
    """The ``run`` of ``program`` on a loaded ``kernel``.

    Each call checks the request, builds fresh state from the program's
    layout (inputs are copied in, never written), runs the kernel in
    place on it and returns those arrays with the final scalars as plain
    ``bool`` / ``int`` / ``float`` in the program's declared order.
    Nothing is kept between calls, so ``run`` is as thread-safe as the
    kernel.  A bad request raises :class:`~repro.util.errors.InputError`
    before the kernel is entered.
    """
    layout = program.layout
    names = tuple(program.scalars)

    def run(
        inputs: InitialArrays = None, scalars: InitialScalars = None, **options
    ) -> ExecutionResult:
        arrays, start = build_state(
            layout, inputs, validate_scalars(program, scalars), metrics
        )
        final = kernel(arrays, start, **options)
        return ExecutionResult(
            arrays, {name: scalar_value(final[name]) for name in names}
        )

    return run


def _render_nothing(program: ScalarProgram) -> None:
    return None


def _render_numpy_par(program: ScalarProgram) -> str:
    from repro.parallel.engine import render_numpy_par

    return render_numpy_par(program)


def _interp_kernel(program: ScalarProgram, code=None, artifacts=None) -> Kernel:
    from repro.interp.loop_interp import LoopInterpreter

    def kernel(arrays, scalars):
        return LoopInterpreter(program, arrays, scalars).run().scalars

    return kernel


def _entry(code: str, filename: str):
    """The ``run(_arrays, _scalars, ...)`` of one generated-Python module:
    already the kernel form."""
    namespace: Dict[str, object] = {}
    exec(compile(code, filename, "exec"), namespace)
    return namespace["run"]


def _generated_kernel(render, filename: str):
    def kernel(program: ScalarProgram, code=None, artifacts=None) -> Kernel:
        return _entry(render(program) if code is None else code, filename)

    return kernel


def _np_par_kernel(program: ScalarProgram, code=None, artifacts=None) -> Kernel:
    entry = _entry(
        _render_numpy_par(program) if code is None else code,
        "<repro-codegen-np-par>",
    )

    def kernel(arrays, scalars, workers=None, tile_shape=None, engine=None):
        if engine is None and (workers is not None or tile_shape is not None):
            from repro.parallel.engine import TileEngine

            engine = TileEngine(workers=workers, tile_shape=tile_shape)
        return entry(arrays, scalars, engine)

    return kernel


def _c_kernel(program: ScalarProgram, code=None, artifacts=None) -> Kernel:
    from repro.exec import native

    if code is None:
        code = render_c_module(program)
    return functools.partial(
        native.call_kernel,
        native.kernel_for_source(code, artifacts=artifacts),
        c_abi(program),
    )


def _from_kernel(
    name: str,
    description: str,
    render,
    kernel,
    options: Tuple[str, ...] = (),
    eager: bool = False,
) -> Backend:
    """A backend record whose ``load`` is :func:`bind` over its kernel."""

    def load(program: ScalarProgram, code=None, artifacts=None) -> Run:
        return bind(
            program,
            kernel(program, code, artifacts),
            artifacts.metrics if artifacts is not None else None,
        )

    return Backend(name, description, render, load, options, eager, kernel)


def _load_mp_shard(program: ScalarProgram, code=None, artifacts=None) -> Run:
    def run(
        inputs: InitialArrays = None,
        scalars: InitialScalars = None,
        procs: Optional[int] = None,
        local_backend: str = "codegen_np",
        comm_options=None,
    ) -> ExecutionResult:
        from repro.exec.mp_shard import execute_sharded

        result, _report = execute_sharded(
            program,
            initial_arrays=inputs,
            initial_scalars=scalars,
            procs=procs,
            local_backend=local_backend,
            comm_options=comm_options,
        )
        return result

    return run


BACKENDS: Dict[str, Backend] = {
    "interp": _from_kernel(
        "interp", "tree-walking loop interpreter", _render_nothing, _interp_kernel
    ),
    "codegen_py": _from_kernel(
        "codegen_py",
        "generated Python element loops",
        render_python,
        _generated_kernel(render_python, "<repro-codegen>"),
    ),
    "codegen_np": _from_kernel(
        "codegen_np",
        "generated whole-region NumPy slices",
        render_numpy,
        _generated_kernel(render_numpy, "<repro-codegen-np>"),
    ),
    "np-par": _from_kernel(
        "np-par",
        "tile-parallel NumPy sweeps on a worker pool",
        _render_numpy_par,
        _np_par_kernel,
        options=("workers", "tile_shape", "engine"),
    ),
    "c": _from_kernel(
        "c",
        "host-compiled C loop nests (cc + ctypes)",
        render_c_module,
        _c_kernel,
        eager=True,
    ),
    "mp-shard": Backend(
        "mp-shard",
        "multi-process sharding with modeled halo exchanges",
        _render_nothing,
        _load_mp_shard,
        options=("procs", "local_backend", "comm_options"),
    ),
}

#: Historical and short spellings accepted wherever a backend is named.
ALIASES: Dict[str, str] = {
    "codegen": "codegen_py",
    "py": "codegen_py",
    "np": "codegen_np",
    "numpy": "codegen_np",
    "np_par": "np-par",
    "par": "np-par",
    "cc": "c",
    "native": "c",
    "mp_shard": "mp-shard",
    "shard": "mp-shard",
}

#: Canonical backend names only — aliases resolve to these but are not
#: repeated here, so CLI help and error messages stay de-duplicated.
BACKEND_CHOICES: List[str] = sorted(BACKENDS)


def aliases_of(name: str) -> List[str]:
    """The accepted alias spellings of a canonical backend name."""
    return sorted(
        alias for alias, target in ALIASES.items() if target == name
    )


def get_backend(name: str) -> Backend:
    """Resolve a backend by canonical name or alias, case-insensitively."""
    key = str(name).strip().lower()
    backend = BACKENDS.get(ALIASES.get(key, key))
    if backend is None:
        raise ReproError(
            "unknown backend %r (have: %s; aliases: %s)"
            % (
                name,
                ", ".join(BACKEND_CHOICES),
                ", ".join(
                    "%s=%s" % (alias, target)
                    for alias, target in sorted(ALIASES.items())
                ),
            )
        )
    return backend


def execute(
    program: ScalarProgram,
    backend: str = "interp",
    initial_arrays: InitialArrays = None,
    initial_scalars: InitialScalars = None,
    **options,
) -> ExecutionResult:
    """Execute a scalarized program on the named backend.

    ``initial_arrays`` seeds named arrays with starting contents instead of
    zeros; values must match the allocation-region shape the backend would
    itself allocate (exactly what a previous run's result holds).
    Unknown names, shape mismatches and unsafe dtype casts raise
    :class:`repro.util.errors.InputError` before anything executes.
    ``initial_scalars`` supplies the starting value of every name in
    ``program.scalar_inputs`` (none for frontend-produced programs) under
    the same contract: unknown, missing or wrong-kind names raise
    ``InputError`` first.
    Keyword ``options`` pass through to the backend (``np-par`` takes
    ``workers=``, ``tile_shape=`` or ``engine=``); backends reject
    options they do not understand.
    """
    return get_backend(backend).load(program)(
        initial_arrays, initial_scalars, **options
    )
