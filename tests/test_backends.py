"""The execution-backend registry and its CLI wiring."""

import ctypes
import resource

import numpy as np
import pytest

from repro.exec import (
    ALIASES,
    BACKEND_CHOICES,
    BACKENDS,
    ExecutionResult,
    backends,
    execute,
    get_backend,
)
from repro.fusion import C2, plan_program
from repro.ir import normalize_source
from repro.scalarize import scalarize
from repro.util.errors import ReproError

SOURCE = """
program reg;
config n : integer = 5;
region R = [1..n];
var A : [R] float;
var s : float;
begin
  [R] A := Index1 * 2.0;
  s := +<< [R] A;
end;
"""


def scalar_program():
    program = normalize_source(SOURCE)
    return scalarize(program, plan_program(program, C2))


def test_registry_names_and_aliases():
    assert set(BACKENDS) == {
        "interp",
        "codegen_py",
        "codegen_np",
        "c",
        "mp-shard",
    }
    assert get_backend("codegen").name == "codegen_py"
    assert get_backend("cc").name == "c"
    assert get_backend("native").name == "c"
    assert get_backend("py").name == "codegen_py"
    assert get_backend("np").name == "codegen_np"
    assert get_backend("numpy").name == "codegen_np"
    assert get_backend("mp_shard").name == "mp-shard"
    assert get_backend("shard").name == "mp-shard"
    for target in ALIASES.values():
        assert target in BACKENDS


def test_backend_choices_deduplicated():
    # The CLI help list holds each canonical name exactly once, no aliases.
    assert BACKEND_CHOICES == sorted(BACKENDS)
    assert len(BACKEND_CHOICES) == len(set(BACKEND_CHOICES))
    assert not set(ALIASES) & set(BACKEND_CHOICES)


def test_backend_resolution_is_case_insensitive():
    assert get_backend("INTERP").name == "interp"
    assert get_backend("NumPy").name == "codegen_np"
    assert get_backend("  Codegen_Py  ").name == "codegen_py"
    assert get_backend("PY").name == "codegen_py"


def test_unknown_backend_raises():
    with pytest.raises(ReproError, match="unknown backend"):
        get_backend("fortran")


HAVE_MALLOPT = hasattr(ctypes.CDLL(None), "mallopt")


@pytest.mark.skipif(not HAVE_MALLOPT, reason="libc has no mallopt")
def test_retain_freed_memory_is_idempotent():
    # Importing repro.exec already applied it; applying it again succeeds
    # and leaves it in force: a freed 16 MiB block (under the 32 MiB mmap
    # threshold) is handed back without faulting a page in.
    assert backends.retain_freed_memory() is True
    assert backends.retain_freed_memory() is True
    block = np.ones(2 << 20)
    del block
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    block = np.ones(2 << 20)
    assert resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before < 64


def test_retain_freed_memory_is_a_no_op_without_mallopt(monkeypatch):
    # macOS and musl: the C library has no mallopt symbol.
    monkeypatch.setattr(backends.ctypes, "CDLL", lambda name: object())
    assert backends.retain_freed_memory() is False


def test_unknown_backend_message_lists_names_and_aliases():
    with pytest.raises(ReproError) as excinfo:
        get_backend("fortran")
    message = str(excinfo.value)
    assert "'fortran'" in message
    for name in BACKENDS:
        assert name in message
    for alias, target in ALIASES.items():
        assert "%s=%s" % (alias, target) in message


SEED_SOURCE = """
program seed;
config n : integer = 4;
region R = [1..n];
var A : [R] float;
var B : [R] float;
var s : float;
begin
  [R] B := A + 1.0;
  s := +<< [R] B;
end;
"""


def seed_scalar_program():
    program = normalize_source(SEED_SOURCE)
    return scalarize(program, plan_program(program, C2))


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_initial_arrays_seed_state(backend):
    # B := A + 1 over a seeded A must observe the seeded contents, not
    # zeros, on every backend; seeded values use the allocation layout a
    # previous run returns.
    scalar_program = seed_scalar_program()
    cold = execute(scalar_program, backend)
    seeded = execute(
        scalar_program,
        backend,
        initial_arrays={"A": np.full_like(cold.arrays["A"], 2.0)},
    )
    assert float(cold.scalars["s"]) == 4.0
    assert float(seeded.scalars["s"]) == 12.0


def test_initial_arrays_reject_unknown_name_and_bad_shape():
    from repro.util.errors import InterpError

    program = seed_scalar_program()
    with pytest.raises(InterpError, match="unknown array"):
        execute(program, "interp", initial_arrays={"nope": np.zeros(3)})
    with pytest.raises(InterpError, match="shape"):
        execute(program, "interp", initial_arrays={"A": np.zeros((2, 2))})


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_execute_returns_execution_result(backend):
    result = execute(scalar_program(), backend)
    assert isinstance(result, ExecutionResult)
    assert float(result.scalars["s"]) == 30.0
    for array in result.arrays.values():
        assert isinstance(array, np.ndarray)


def test_backends_return_comparable_state():
    program = scalar_program()
    results = [execute(program, name) for name in sorted(BACKENDS)]
    first = results[0]
    for other in results[1:]:
        assert set(other.arrays) == set(first.arrays)
        assert set(other.scalars) == set(first.scalars)
        for name in first.arrays:
            assert np.allclose(other.arrays[name], first.arrays[name])


def test_cli_run_accepts_every_backend(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "reg.zpl"
    path.write_text(SOURCE)
    for backend in list(BACKEND_CHOICES) + sorted(ALIASES) + ["NUMPY"]:
        assert main(["run", str(path), "--backend", backend]) == 0
        out = capsys.readouterr().out
        assert "s = 30" in out


def test_cli_rejects_unknown_backend(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "reg.zpl"
    path.write_text(SOURCE)
    with pytest.raises(SystemExit):
        main(["run", str(path), "--backend", "fortran"])
    err = capsys.readouterr().err
    assert "unknown backend" in err


def test_cli_compile_emits_numpy(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "reg.zpl"
    path.write_text(SOURCE)
    assert main(["compile", str(path), "--emit", "np", "--level", "c2+f3"]) == 0
    out = capsys.readouterr().out
    assert "np.sum(" in out


# -- one lifecycle: every consumer goes through the registry record ----------


def assert_identical(got, want, context):
    assert set(got.arrays) == set(want.arrays), context
    for name, array in want.arrays.items():
        assert got.arrays[name].dtype == array.dtype, (context, name)
        assert np.array_equal(got.arrays[name], array), (context, name)
    assert set(got.scalars) == set(want.scalars), context
    for name, value in want.scalars.items():
        assert repr(got.scalars[name]) == repr(value), (context, name)


def test_substituted_backend_is_picked_up_everywhere(monkeypatch, tmp_path):
    # Adding a backend is one registry entry: execute and the serving
    # layer (cold, then a cache hit in a fresh Service) both reach it with
    # no other edit.
    from repro.exec import Backend
    from repro.service import Service

    loads = []

    def load(program, code=None, artifacts=None):
        loads.append(code)
        return BACKENDS["interp"].load(program)

    monkeypatch.setitem(
        BACKENDS,
        "toy",
        Backend("toy", "interp behind a marker", lambda program: "toy-marker", load),
    )
    program = scalar_program()
    want = execute(program, "interp")

    assert_identical(execute(program, "toy"), want, "execute")
    assert loads == [None]

    cache_dir = str(tmp_path / "cache")
    cold = Service(cache_dir=cache_dir, level="c2").compile(SOURCE, backend="toy")
    assert not cold.from_cache and cold.code == "toy-marker"
    assert_identical(cold.execute(), want, "cold serve")
    warm = Service(cache_dir=cache_dir, level="c2").compile(SOURCE, backend="toy")
    assert warm.from_cache and warm.code == "toy-marker"
    assert_identical(warm.execute(), want, "warm serve")
    assert loads[1:] == ["toy-marker", "toy-marker"]

    # Warm traffic shares one load per (digest, backend) per process: the
    # loaded run lives on the cache's memory-tier entry, not on the handle
    # each submit/compile call makes.
    service = Service(cache_dir=cache_dir, level="c2")
    for _ in range(5):
        assert_identical(service.submit(SOURCE, backend="toy"), want, "submit")
    for _ in range(5):
        handle = service.compile(SOURCE, backend="toy")
        assert_identical(handle.execute(), want, "compile+execute")
    assert_identical(
        service.submit_many(SOURCE, [None] * 8, backend="toy")[-1],
        want,
        "submit_many",
    )
    assert loads[3:] == ["toy-marker"]


def _real_backends():
    from repro.exec.native import cc_available

    no_cc = pytest.mark.skipif(not cc_available(), reason="no host C compiler")
    return [
        pytest.param(name, marks=no_cc) if name == "c" else name
        for name in sorted(BACKENDS)
    ]


@pytest.mark.parametrize("backend", _real_backends())
def test_service_matches_execute_on_every_backend(backend):
    # The serving layer and bare execute share one loader per backend, so
    # an artifact compiled for any backend reproduces execute bit for bit
    # on its own backend; its compiled program, run elsewhere through
    # execute, reproduces the artifact compiled for that other backend.
    from repro.benchsuite import get_benchmark
    from repro.exec.native import cc_available
    from repro.service import Service

    bench = get_benchmark("Frac")
    service = Service(level="c2+f4", backend=backend, persistent=False)
    config = {"n": 12, "m": 10}
    compiled = service.compile(bench.source, config=config)
    assert_identical(
        compiled.execute(),
        execute(compiled.scalar_program, backend),
        "%s artifact" % backend,
    )
    others = [name for name in sorted(BACKENDS) if name != "c" or cc_available()]
    for other in others:
        if other != backend:
            own = service.compile(bench.source, config=config, backend=other)
            assert_identical(
                execute(compiled.scalar_program, other),
                own.execute(),
                "%s program on %s" % (backend, other),
            )
