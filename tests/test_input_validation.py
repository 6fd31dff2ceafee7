"""The run contract: how a run starts and ends, once, on every backend.

A program's storage is laid out in one place
(:attr:`ScalarProgram.layout`), checked, allocated and seeded in one
place (:func:`emit_common.build_state`), and every single-process
backend's kernel runs in place on what it is handed
(:func:`repro.exec.backends.bind` derives ``run`` from it).  So the
contract is stated here once and held over all six backends (``mp-shard``
at two ranks):

* caller-provided initial contents are validated up front — unknown
  names, allocation-shape mismatches and lossy dtype casts raise
  :class:`repro.util.errors.InputError` (a ``ReproError``) with an
  actionable message *before* anything executes, once per request;
* inputs are copied, never written; result arrays are fresh per call;
* final scalars are plain ``bool`` / ``int`` / ``float`` in declared
  order;
* the kernel form, on caller-built arrays, leaves the bytes ``run`` does.
"""

import numpy as np
import pytest

from repro.exec import Artifacts, execute
from repro.exec import mp_shard, native
from repro.exec.backends import BACKENDS
from repro.fusion import LEVELS_BY_NAME, plan_program
from repro.ir import normalize_source
from repro.scalarize import emit_common, scalarize
from repro.scalarize.emit_common import build_state
from repro.scalarize.loopnest import Slot
from repro.service import Service
from repro.service.metrics import Metrics
from repro.util.errors import InputError, InterpError, ReproError
from tests.test_scalar_inputs import backend_names as _six

SOURCE = """
program seedme;
config n : integer = 4;
region R = [1..n, 1..n];
var A, B : [R] float;
var K : [R] integer;
var t : float;
begin
  [R] B := A@(0,1) + K;
  t := +<< [R] B;
end;
"""

#: One scalar of every kind, declared in an order that is not sorted.
CONTRACT = """
program contract;
config n : integer = 6;
region R = [1..n, 1..n];
var A, B : [R] float;
var K : [R] integer;
var t : float;
var f : boolean;
var c : integer;
begin
  [R] B := A@(0,1) + K + Index1;
  t := +<< [R] B;
  c := +<< [R] K;
  f := t > 1.0;
end;
"""


def _scalarized(level="c2", source=SOURCE):
    program = normalize_source(source)
    return scalarize(program, plan_program(program, LEVELS_BY_NAME[level]))


def _alloc_shape(scalar_program, name):
    (slot,) = [s for s in scalar_program.layout if s.name == name]
    return slot.shape


def _five():
    return [param for param in _six() if param.values[0] != "mp-shard"]


def _options(backend):
    return {"procs": 2} if backend == "mp-shard" else {}


def _contract_inputs(scalar_program):
    rng = np.random.default_rng(7)
    return {
        "A": rng.random(_alloc_shape(scalar_program, "A")),
        "K": rng.integers(0, 9, _alloc_shape(scalar_program, "K")),
    }


def test_input_error_is_a_repro_error_and_an_interp_error():
    # One exception class serves both the historical interp callers
    # (which catch InterpError) and new frontend callers (ReproError).
    assert issubclass(InputError, InterpError)
    assert issubclass(InputError, ReproError)


# -- the builder -----------------------------------------------------------

LAYOUT = (Slot("A", "array", "float", (4, 4), (1, 1)),)


def test_storage_rejects_unknown_name():
    with pytest.raises(InputError, match="unknown array 'nope'.*have: A"):
        build_state(LAYOUT, {"nope": np.zeros((4, 4))})


def test_storage_rejects_shape_mismatch():
    with pytest.raises(
        InputError, match=r"'A' has shape \(2, 2\), allocation needs \(4, 4\)"
    ):
        build_state(LAYOUT, {"A": np.zeros((2, 2))})


def test_storage_rejects_lossy_dtype_and_allows_safe_cast():
    with pytest.raises(InputError, match="not value-preserving"):
        build_state(LAYOUT, {"A": np.zeros((4, 4), dtype=np.complex128)})
    # int64 -> float64 is safe on this platform's casting table and must
    # be accepted (NumPy itself treats it as a same-kind widening).
    arrays, _scalars = build_state(
        LAYOUT, {"A": np.full((4, 4), 3, dtype=np.int64)}
    )
    assert arrays["A"].dtype == np.float64
    assert np.all(arrays["A"] == 3.0)


def test_builder_starts_scalars_at_their_kinds_zero_or_the_given_value():
    layout = LAYOUT + (
        Slot("b", "scalar", "boolean", (), ()),
        Slot("i", "scalar", "integer", (), ()),
        Slot("x", "scalar", "float", (), ()),
    )
    arrays, scalars = build_state(layout, None, {"i": 7})
    assert scalars == {"b": False, "i": 7, "x": 0.0}
    assert [type(v) for v in scalars.values()] == [bool, int, float]
    assert arrays["A"].shape == (4, 4) and not arrays["A"].any()


def test_builder_counts_the_bytes_it_zeroes_and_copies():
    scalar_program = _scalarized("baseline")
    metrics = Metrics()
    run = BACKENDS["codegen_np"].load(
        scalar_program, None, Artifacts(None, "digest", metrics)
    )
    zeroed = sum(
        int(np.prod(slot.shape)) * 8
        for slot in scalar_program.layout
        if slot.role == "array"
    )
    seeded = np.ones(_alloc_shape(scalar_program, "A"))
    run()
    run({"A": seeded})
    assert metrics.counter("exec.bytes_zeroed") == 2 * zeroed
    assert metrics.counter("exec.bytes_copied") == seeded.nbytes
    # Without Artifacts.metrics nothing is counted anywhere.
    BACKENDS["codegen_np"].load(scalar_program)({"A": seeded})
    assert metrics.counter("exec.bytes_zeroed") == 2 * zeroed


# -- exec.execute(initial_arrays=) ----------------------------------------


@pytest.mark.parametrize("backend", _six())
def test_execute_validates_before_running(backend, spy_on_execution):
    scalar_program = _scalarized()
    entered = spy_on_execution(backend)
    options = _options(backend)
    with pytest.raises(InputError) as error:
        execute(
            scalar_program, backend,
            initial_arrays={"missing": np.zeros((6, 6))}, **options
        )
    assert str(error.value) == (
        "cannot seed unknown array 'missing' (have: A, K)"
    )
    shape = _alloc_shape(scalar_program, "A")
    bad = tuple(extent + 1 for extent in shape)
    with pytest.raises(InputError) as error:
        execute(
            scalar_program, backend, initial_arrays={"A": np.zeros(bad)},
            **options
        )
    assert str(error.value) == (
        "initial value for 'A' has shape %s, allocation needs %s"
        % (bad, shape)
    )
    with pytest.raises(InputError) as error:
        execute(
            scalar_program, backend,
            initial_arrays={
                "K": np.zeros(_alloc_shape(scalar_program, "K"), dtype=float)
            },
            **options
        )
    assert str(error.value) == (
        "initial value for 'K' has dtype float64, array is int64 (integer) "
        "and the cast is not value-preserving"
    )
    assert not entered
    execute(scalar_program, backend, **options)
    assert entered == [1]  # the spy does see a run that starts


@pytest.mark.parametrize("backend", _six())
def test_a_request_is_validated_once(backend, monkeypatch):
    calls = []
    real = emit_common.validate_inputs

    def counting(layout, inputs):
        calls.append(1)
        return real(layout, inputs)

    monkeypatch.setattr(emit_common, "validate_inputs", counting)
    monkeypatch.setattr(mp_shard, "validate_inputs", counting)
    scalar_program = _scalarized()
    seeded = np.ones(_alloc_shape(scalar_program, "A"))
    execute(
        scalar_program, backend, initial_arrays={"A": seeded},
        **_options(backend)
    )
    assert calls == [1]


def test_execute_accepts_valid_and_safely_cast_inputs():
    scalar_program = _scalarized("baseline")  # keeps B observable
    seeded = np.ones(_alloc_shape(scalar_program, "A"), dtype=np.int64)
    result = execute(
        scalar_program, "codegen_np", initial_arrays={"A": seeded}
    )
    # The float32 -> float64 widening path is also value-preserving.
    result32 = execute(
        scalar_program, "codegen_np",
        initial_arrays={"A": seeded.astype(np.float32)},
    )
    assert np.array_equal(result.arrays["B"], result32.arrays["B"])
    assert float(result.scalars["t"]) != 0.0


# -- what a run leaves behind ---------------------------------------------


@pytest.mark.parametrize("backend", _six())
def test_inputs_are_copied_and_result_arrays_are_fresh(backend):
    scalar_program = _scalarized("baseline", CONTRACT)
    inputs = _contract_inputs(scalar_program)
    kept = {name: value.copy() for name, value in inputs.items()}
    run = BACKENDS[backend].load(scalar_program)
    first = run(inputs, **_options(backend))
    second = run(inputs, **_options(backend))
    for name, value in inputs.items():
        assert value.tobytes() == kept[name].tobytes(), name
    for name, array in second.arrays.items():
        assert array.tobytes() == first.arrays[name].tobytes(), name
        assert not np.shares_memory(array, first.arrays[name]), name
        for result in (first, second):
            for value in inputs.values():
                assert not np.shares_memory(result.arrays[name], value)
    assert np.array_equal(first.arrays["A"], inputs["A"])


@pytest.mark.parametrize("level", ["baseline", "c2"])
@pytest.mark.parametrize("backend", _six())
def test_final_scalars_are_plain_python_in_declared_order(backend, level):
    scalar_program = _scalarized(level, CONTRACT)
    result = execute(
        scalar_program, backend,
        initial_arrays=_contract_inputs(scalar_program), **_options(backend)
    )
    assert list(result.scalars) == list(scalar_program.scalars)
    assert list(result.scalars)[:3] == ["t", "f", "c"]  # not name order
    assert type(result.scalars["t"]) is float
    assert type(result.scalars["f"]) is bool and result.scalars["f"] is True
    assert type(result.scalars["c"]) is int
    for name, value in result.scalars.items():
        assert type(value) in (bool, int, float), name


@pytest.mark.parametrize("backend", _six())
def test_repro_run_prints_a_boolean_scalar_alike(backend, tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "flag.zpl"
    path.write_text(
        "program flag;\nregion R = [1..4, 1..4];\nvar A : [R] float;\n"
        "var s : float;\nvar f : boolean;\nbegin\n  [R] A := Index1 * 1.0;\n"
        "  s := +<< [R] A;\n  f := s > 1.0;\nend;\n"
    )
    argv = ["run", str(path), "--backend", backend]
    if backend == "mp-shard":
        argv += ["--procs", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == ["f = True", "s = 40"]


# -- the kernel form -------------------------------------------------------


@pytest.mark.parametrize("backend", _five())
def test_kernel_on_caller_built_arrays_leaves_the_bytes_run_does(backend):
    scalar_program = _scalarized("c2", CONTRACT)
    inputs = _contract_inputs(scalar_program)
    record = BACKENDS[backend]
    result = record.load(scalar_program)(inputs)
    arrays, scalars = build_state(scalar_program.layout, inputs)
    handed = dict(arrays)
    final = record.kernel(scalar_program)(arrays, scalars)
    assert set(arrays) == set(result.arrays)
    for name, array in arrays.items():
        assert array is handed[name]  # in place: nothing rebound
        assert array.tobytes() == result.arrays[name].tobytes(), name
    for name, value in result.scalars.items():
        assert final[name] == value, name


@pytest.mark.skipif(not native.cc_available(), reason="no cc")
def test_c_kernel_refuses_a_buffer_that_is_not_its_slots():
    scalar_program = _scalarized("baseline")
    kernel = BACKENDS["c"].kernel(scalar_program)
    shape = _alloc_shape(scalar_program, "A")

    def call(bad):
        arrays, scalars = build_state(scalar_program.layout)
        arrays["A"] = bad
        return kernel(arrays, scalars)

    with pytest.raises(ReproError, match="'A' as a writable C-contiguous "
                       "float64 .* got float32"):
        call(np.zeros(shape, dtype=np.float32))
    with pytest.raises(ReproError, match=r"got float64 of shape \(2, 2\)"):
        call(np.zeros((2, 2)))
    with pytest.raises(ReproError, match="C-contiguous: False"):
        call(np.zeros((shape[0], 2 * shape[1]))[:, ::2])
    frozen = np.zeros(shape)
    frozen.flags.writeable = False
    with pytest.raises(ReproError, match="writable: False"):
        call(frozen)
    call(np.zeros(shape))  # and the slot's own buffer runs


def test_mp_shard_refuses_a_local_backend_without_a_kernel_form():
    with pytest.raises(ReproError, match="kernel form"):
        mp_shard.execute_sharded(
            _scalarized(), procs=2, local_backend="mp-shard"
        )


# -- CompiledProgram.execute({"arrays": ...}) ------------------------------


def test_compiled_program_validates_request_arrays():
    service = Service(persistent=False)
    compiled = service.compile(SOURCE, level="c2", backend="codegen_np")
    with pytest.raises(InputError, match="unknown array 'zz'"):
        compiled.execute({"arrays": {"zz": np.zeros((6, 6))}})
    with pytest.raises(InputError, match="allocation needs"):
        compiled.execute({"arrays": {"A": np.zeros((3, 3))}})
    with pytest.raises(InputError, match="not value-preserving"):
        shape = _alloc_shape(compiled.scalar_program, "K")
        compiled.execute({"arrays": {"K": np.zeros(shape, dtype=float)}})
    shape = _alloc_shape(compiled.scalar_program, "A")
    result = compiled.execute({"arrays": {"A": np.full(shape, 2.0)}})
    assert float(result.scalars["t"]) != 0.0
