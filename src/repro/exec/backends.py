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

from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.scalarize.codegen_c import c_abi, render_c_module
from repro.scalarize.codegen_np import render_numpy
from repro.scalarize.codegen_py import render_python
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

    Every ``Backend.load`` accepts one; only ``c`` consults it, for the
    content-addressed ``.so`` tier of ``cache`` (keyed from the payload
    ``digest``).  ``metrics`` counts compiler invocations and ``timers``
    (anything with ``.time(name)``; default ``metrics``) times them.
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


def _render_nothing(program: ScalarProgram) -> None:
    return None


def _render_numpy_par(program: ScalarProgram) -> str:
    from repro.parallel.engine import render_numpy_par

    return render_numpy_par(program)


def _load_interp(program: ScalarProgram, code=None, artifacts=None) -> Run:
    from repro.interp import run_scalarized

    def run(
        inputs: InitialArrays = None, scalars: InitialScalars = None
    ) -> ExecutionResult:
        storage = run_scalarized(program, inputs, scalars)
        return ExecutionResult(storage.snapshot(), dict(storage.scalars))

    return run


def _generated_entry(render, filename: str, program: ScalarProgram, code):
    """The ``run`` function of one generated-Python module.

    Generated modules take ``_scalars`` only when the program declares
    scalar inputs, so it is passed by keyword and only when present.
    """
    if code is None:
        code = render(program)
    namespace: Dict[str, object] = {}
    exec(compile(code, filename, "exec"), namespace)
    entry = namespace["run"]

    def call(inputs, scalars, *args):
        if scalars is None:
            return entry(inputs, *args)
        return entry(inputs, *args, _scalars=scalars)

    return call


def _generated_loader(render, filename: str):
    def load(program: ScalarProgram, code=None, artifacts=None) -> Run:
        entry = _generated_entry(render, filename, program, code)

        def run(
            inputs: InitialArrays = None, scalars: InitialScalars = None
        ) -> ExecutionResult:
            arrays, final = entry(inputs, scalars)
            return ExecutionResult(dict(arrays), dict(final))

        return run

    return load


def _load_np_par(program: ScalarProgram, code=None, artifacts=None) -> Run:
    entry = _generated_entry(
        _render_numpy_par, "<repro-codegen-np-par>", program, code
    )

    def run(
        inputs: InitialArrays = None,
        scalars: InitialScalars = None,
        workers: Optional[int] = None,
        tile_shape=None,
        engine=None,
    ) -> ExecutionResult:
        if engine is None and (workers is not None or tile_shape is not None):
            from repro.parallel.engine import TileEngine

            engine = TileEngine(workers=workers, tile_shape=tile_shape)
        arrays, final = entry(inputs, scalars, engine)
        return ExecutionResult(dict(arrays), dict(final))

    return run


def _load_c(program: ScalarProgram, code=None, artifacts=None) -> Run:
    from repro.exec import native

    if code is None:
        code = render_c_module(program)
    kernel = native.kernel_for_source(code, artifacts=artifacts)
    abi = c_abi(program)

    def run(
        inputs: InitialArrays = None, scalars: InitialScalars = None
    ) -> ExecutionResult:
        arrays, final = native.run_kernel(kernel, abi, inputs, scalars)
        return ExecutionResult(dict(arrays), dict(final))

    return run


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
    "interp": Backend(
        "interp", "tree-walking loop interpreter", _render_nothing, _load_interp
    ),
    "codegen_py": Backend(
        "codegen_py",
        "generated Python element loops",
        render_python,
        _generated_loader(render_python, "<repro-codegen>"),
    ),
    "codegen_np": Backend(
        "codegen_np",
        "generated whole-region NumPy slices",
        render_numpy,
        _generated_loader(render_numpy, "<repro-codegen-np>"),
    ),
    "np-par": Backend(
        "np-par",
        "tile-parallel NumPy sweeps on a worker pool",
        _render_numpy_par,
        _load_np_par,
        options=("workers", "tile_shape", "engine"),
    ),
    "c": Backend(
        "c",
        "host-compiled C loop nests (cc + ctypes)",
        render_c_module,
        _load_c,
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
    from repro.scalarize.emit_common import validate_inputs, validate_scalars

    initial_arrays = validate_inputs(program, initial_arrays)
    initial_scalars = validate_scalars(program, initial_scalars)
    return get_backend(backend).load(program)(
        initial_arrays, initial_scalars, **options
    )
