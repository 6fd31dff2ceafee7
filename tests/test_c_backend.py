"""The native ``c`` backend: ABI, caching, degradation, and goldens.

What is covered here and nowhere else:

* the ``repro_run(void **bufs)`` entry-point ABI and its buffer order
  (:func:`repro.scalarize.codegen_c.c_abi`);
* input validation at the backend boundary (the same ``InputError``
  contract every other backend honors);
* empty-region reduction guards — statically empty regions and
  config-bound regions that become empty at a given binding both raise
  the interpreter's ``InterpError``, not undefined C behavior;
* typed reduction initializers: every (op, element-kind) pair folds
  with an initializer of the accumulator's own type (the old emitter
  seeded integer reductions from float literals);
* cross-process ``.so`` reuse: the second process serves the compiled
  shared object from the content-addressed artifact cache with **zero**
  compiler invocations;
* graceful degradation without a host C compiler (``REPRO_CC=""``):
  execution raises ``BackendUnavailableError``, the tuner drops the
  backend from its search space, the CLI marks it unavailable — and
  compilation of the *artifact* still succeeds (the rendered C stays
  inspectable);
* golden-pinned translation units for every benchsuite program;
* the sharing property: the module text carries no sizes, so one program
  at any number of sizes is one text, one compiler run and one ``.so`` —
  and where a size is more than a size (a config in arithmetic, a plan
  that differs at a degenerate size) the text differs and nothing is
  shared.

Bit-level agreement across the whole corpus lives in
``test_fuzz_differential.py``; this file owns the plumbing.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from repro import benchsuite  # noqa: E402
from repro.exec import execute  # noqa: E402
from repro.exec.native import cc_available, find_cc  # noqa: E402
from repro.fusion import LEVELS_BY_NAME, plan_program, resolve_level  # noqa: E402
from repro.interp import run_reference  # noqa: E402
from repro.ir import normalize_source  # noqa: E402
from repro.scalarize import c_abi, render_c_module, scalarize  # noqa: E402
from repro.util.errors import (  # noqa: E402
    BackendUnavailableError,
    InputError,
    ReproError,
)

needs_cc = pytest.mark.skipif(
    not cc_available(), reason="no host C compiler"
)

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def compile_at(source, level="baseline"):
    program = normalize_source(source)
    plan = plan_program(program, LEVELS_BY_NAME[level])
    return program, scalarize(program, plan)


BASIC_SOURCE = """program basic;
config n : integer = 6;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var B, A : [R] float;
var t, s : float;
begin
  [R] A := Index1 * 1.5 + Index2;
  [I] B := A@(1,0) + A@(-1,0);
  s := max<< [R] B;
  t := s + 1.0;
end;
"""


# -- ABI ---------------------------------------------------------------------


def test_abi_orders_arrays_then_scalars():
    _program, sp = compile_at(BASIC_SOURCE)
    abi = c_abi(sp)
    arrays = [e for e in abi if e.role == "array"]
    scalars = [e for e in abi if e.role == "scalar"]
    # Arrays sorted by name first, then scalars sorted by name, then the
    # size vector: the buffer vector's order is part of the ABI and must
    # never depend on declaration order.
    assert abi[:-1] == arrays + scalars
    assert abi[:-1] == list(sp.layout)
    sizes = abi[-1]
    assert sizes.role == "sizes" and sizes.kind == "integer"
    # Every row extent of a cast is a named position of the vector.
    shapes = {e.name: e.shape for e in arrays}
    assert {(name, dim) for _k, name, dim in sizes.extents} == {
        (e.name, dim) for e in arrays for dim in range(1, len(e.shape))
    }
    for k, name, dim in sizes.extents:
        assert sizes.values[k] == shapes[name][dim]
    assert [e.name for e in arrays] == sorted(e.name for e in arrays)
    assert [e.name for e in scalars] == sorted(e.name for e in scalars)
    # Shapes are allocation-region shapes (halo included: the stencil on
    # A widens its buffer beyond the declared [1..6, 1..6]).
    from repro.scalarize.emit_common import int_config_env

    env = int_config_env(sp.configs)
    for entry in arrays:
        region, kind = sp.array_allocs[entry.name]
        bounds = region.concrete_bounds(env)
        assert entry.kind == kind
        assert entry.shape == tuple(
            max(hi - lo + 1, 1) for lo, hi in bounds
        )
    a = next(e for e in arrays if e.name == "A")
    assert a.kind == "float" and a.shape[1] == 6
    assert {e.name for e in scalars} >= {"s", "t"}


def test_module_exposes_repro_run_entry_point():
    _program, sp = compile_at(BASIC_SOURCE)
    code = render_c_module(sp)
    assert "int repro_run(void **_bufs)" in code
    # Zero-copy: every array buffer is cast to a pointer-to-row type
    # whose extent is a size, never a literal.
    assert "(double (*)[_p0]) _bufs[" in code
    assert "(*)[6]" not in code


# -- execution and validation ------------------------------------------------


@needs_cc
def test_c_matches_reference_and_py():
    program, sp = compile_at(BASIC_SOURCE, "c2+f4+cse")
    reference = run_reference(program)
    c = execute(sp, "c")
    py = execute(sp, "codegen_py")
    # A is contracted away at this level; B must survive as output state.
    assert "B" in c.arrays
    for name, arr in c.arrays.items():
        if name in reference.arrays:
            assert np.allclose(arr, reference.arrays[name])
        assert arr.dtype == py.arrays[name].dtype
        assert np.array_equal(arr, py.arrays[name])
    for name in ("s", "t"):
        assert repr(float(c.scalars[name])) == repr(float(py.scalars[name]))


@needs_cc
def test_c_validates_inputs_like_every_backend():
    _program, sp = compile_at(BASIC_SOURCE)
    with pytest.raises(InputError):
        execute(sp, "c", initial_arrays={"Nope": np.zeros((6, 6))})
    with pytest.raises(InputError):
        execute(sp, "c", initial_arrays={"A": np.zeros((3, 3))})


@needs_cc
def test_c_seeds_initial_arrays():
    _program, sp = compile_at(
        """program seeded;
config n : integer = 4;
region R = [1..n];
var A, B : [R] float;
var s : float;
begin
  [R] B := A * 2.0;
  s := +<< [R] B;
end;
"""
    )
    seeded = np.array([1.0, 2.0, 3.0, 4.0])
    result = execute(sp, "c", initial_arrays={"A": seeded})
    assert np.array_equal(result.arrays["B"], seeded * 2.0)
    assert float(result.scalars["s"]) == 20.0


@needs_cc
@pytest.mark.parametrize("n", [0, 3])
def test_c_empty_region_reduction_matches_py(n):
    # Region emptiness is config-bound: the same program shape must fold
    # normally for n = 3 and degrade exactly like the Python element
    # loops for n = 0.  Every *scalarized* backend folds an empty
    # reduction to the operation's identity (only the array-semantics
    # reference interpreter raises); the native kernel must match its
    # peers bit for bit, not trap or read out of bounds.
    source = """program empt;
config n : integer = %d;
region R = [1..n];
var A : [R] float;
var s : float;
begin
  [R] A := Index1 * 1.0;
  s := +<< [R] A;
end;
""" % n
    _program, sp = compile_at(source)
    c = execute(sp, "c")
    py = execute(sp, "codegen_py")
    assert repr(float(c.scalars["s"])) == repr(float(py.scalars["s"]))
    assert float(c.scalars["s"]) == (0.0 if n == 0 else 6.0)


@needs_cc
def test_c_config_bound_region_extents():
    source = """program sized;
config rows : integer = 3;
config cols : integer = 5;
region R = [1..rows, 1..cols];
var A : [R] float;
var s : float;
begin
  [R] A := Index1 * 10.0 + Index2;
  s := max<< [R] A;
end;
"""
    _program, sp = compile_at(source)
    result = execute(sp, "c")
    assert result.arrays["A"].shape == (3, 5)
    assert float(result.scalars["s"]) == 35.0


# -- typed reduction initializers -------------------------------------------

REDUCE_SOURCE = """program redux;
config n : integer = 5;
region R = [1..n];
var K : [R] integer;
var F : [R] float;
var i : integer;
var s : float;
begin
  [R] K := Index1 - 3;
  [R] F := Index1 * 1.5 - 4.0;
  i := %(op)s<< [R] K;
  s := %(op)s<< [R] F;
end;
"""


@needs_cc
@pytest.mark.parametrize("op", ["+", "*", "max", "min"])
def test_c_reduction_init_per_kind_and_op(op):
    # The emitter used to seed every accumulator with the float table
    # (0.0 / 1.0 / inf), silently promoting integer folds.  Each (kind,
    # op) pair must fold in its own type and match the element loops
    # exactly — including min/max over all-negative integer data, which
    # only a typed extremal initializer gets right.
    program, sp = compile_at(REDUCE_SOURCE % {"op": op}, "c2+f4+cse")
    reference = run_reference(program)
    c = execute(sp, "c")
    py = execute(sp, "codegen_py")
    assert np.asarray(c.scalars["i"]).dtype == np.int64
    assert int(c.scalars["i"]) == int(py.scalars["i"]) == int(
        reference.scalars["i"]
    )
    assert repr(float(c.scalars["s"])) == repr(float(py.scalars["s"]))


def test_c_integer_reduction_initializers_are_typed():
    _program, sp = compile_at(REDUCE_SOURCE % {"op": "max"})
    code = render_c_module(sp)
    # The integer max fold must start from INT64_MIN (as an overflow-safe
    # literal), the float one from -INFINITY; neither may borrow the
    # other's initializer.
    assert "i = (-9223372036854775807LL - 1);" in code
    assert "s = -INFINITY;" in code


# -- service integration: compile once, serve the .so everywhere -------------

_SERVE_SCRIPT = """
import glob, json, os, sys, tempfile
from repro.service import Service

SRC = '''%s'''
svc = Service(cache_dir=sys.argv[1])
compiled = svc.compile(SRC, level="c2+f4+cse", backend="c")
result = compiled.execute()
counters = svc.metrics.snapshot()["counters"]
print(json.dumps({
    "s": repr(float(result.scalars["s"])),
    "from_cache": compiled.from_cache,
    "compiles": counters.get("service.compiles", 0),
    "cc": counters.get("native.cc_invocations", 0),
    "native_hits": counters.get("cache.native_hits", 0),
    "scratch": glob.glob(os.path.join(tempfile.gettempdir(), "repro-native-*")),
}))
""" % BASIC_SOURCE


def _run_script(script, *args, **extra_env):
    """The last line a ``python -c script`` child printed, as JSON."""
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.path.abspath(SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _serve_in_subprocess(cache_dir, **extra_env):
    return _run_script(_SERVE_SCRIPT, cache_dir, **extra_env)


@needs_cc
def test_warm_so_serve_is_cc_free_across_processes(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = _serve_in_subprocess(cache_dir)
    warm = _serve_in_subprocess(cache_dir)
    # Exactly one pipeline run and one compiler invocation ever happen.
    assert cold["compiles"] == 1 and cold["cc"] == 1
    assert not cold["from_cache"]
    # The second process rebuilds nothing: artifact cache hit for the
    # payload, content-addressed .so hit for the machine code.
    assert warm["compiles"] == 0
    assert warm["cc"] == 0
    assert warm["from_cache"]
    assert warm["native_hits"] >= 1
    assert warm["s"] == cold["s"]


@needs_cc
def test_service_reuses_kernel_within_process(tmp_path):
    from repro.service import Service

    # A source no other test compiles: the per-process kernel memo is
    # keyed by rendered C, so sharing BASIC_SOURCE here would let an
    # earlier test's compile absorb this one's cc invocation.
    source = BASIC_SOURCE.replace("* 1.5", "* 1.625")
    svc = Service(cache_dir=str(tmp_path / "cache"))
    first = svc.compile(source, level="c2+f4", backend="c")
    second = svc.compile(source, level="c2+f4", backend="c")
    r1 = first.execute()
    r2 = second.execute()
    counters = svc.metrics.snapshot()["counters"]
    assert counters.get("service.compiles") == 1
    assert counters.get("native.cc_invocations") == 1
    assert repr(float(r1.scalars["s"])) == repr(float(r2.scalars["s"]))
    assert "compile.cc" in first.compile_timings


@needs_cc
def test_persistent_cache_dlopens_its_own_so_without_scratch_dir(tmp_path):
    # With a persistent cache the kernel is dlopened from the cache's own
    # content-addressed file: no ``repro-native-*`` scratch copy exists to
    # leak when a worker is killed before its atexit hooks run.  Listed
    # while each process is still alive, cold (cc run) and warm (reload).
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    cache_dir = str(tmp_path / "cache")
    runs = [_serve_in_subprocess(cache_dir, TMPDIR=str(tmp)) for _ in range(2)]
    assert [run["cc"] for run in runs] == [1, 0]
    assert [run["scratch"] for run in runs] == [[], []]
    assert os.listdir(tmp) == []


# -- the autotuner reaches c through the same registry -------------------------


@needs_cc
def test_tune_with_c_as_the_configured_backend(tmp_path):
    from repro.service import Metrics
    from repro.tune import TuneDB, tune
    from repro.tune.space import default_plan

    db = TuneDB(root=str(tmp_path / "tunedb"), metrics=Metrics())
    result = tune(BASIC_SOURCE, backend="c", db=db, budget_s=10.0, top_k=1)
    measured = {row.plan for row in result.ranking if row.measurement is not None}
    assert default_plan("c2", "c") in measured
    assert any(row.note.endswith("<- winner") for row in result.ranking)


# -- degradation without a compiler ------------------------------------------


def test_find_cc_empty_override_means_unavailable(monkeypatch):
    monkeypatch.setenv("REPRO_CC", "")
    assert find_cc() is None
    assert not cc_available()


def test_execute_without_cc_raises_backend_unavailable(monkeypatch):
    monkeypatch.setenv("REPRO_CC", "")
    _program, sp = compile_at(BASIC_SOURCE)
    with pytest.raises(BackendUnavailableError, match="C compiler"):
        execute(sp, "c")


def test_tuner_space_excludes_c_without_cc(monkeypatch):
    from repro.tune.space import default_space

    monkeypatch.setenv("REPRO_CC", "")
    assert "c" not in default_space().backends
    # Even when c is the *configured* backend, the space silently falls
    # back rather than enumerating plans the host cannot run.
    assert "c" not in default_space(backend="c").backends


@needs_cc
def test_tuner_space_includes_c_with_cc():
    from repro.tune.space import default_space

    assert "c" in default_space().backends


def test_cli_backends_marks_c_unavailable(monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CC", "")
    assert main(["backends"]) == 0
    out = capsys.readouterr().out
    assert "no (no cc)" in out


def test_service_compile_without_cc_still_renders(monkeypatch, tmp_path):
    # The artifact (with its rendered C) is machine-independent; only
    # execution needs the compiler.  Build on a degraded host, inspect
    # the code, fail only at run time.
    from repro.service import Service

    monkeypatch.setenv("REPRO_CC", "")
    svc = Service(cache_dir=str(tmp_path / "cache"))
    compiled = svc.compile(BASIC_SOURCE, level="c2+f4", backend="c")
    assert "int repro_run" in (compiled.code or "")
    counters = svc.metrics.snapshot()["counters"]
    assert counters.get("native.cc_invocations", 0) == 0
    with pytest.raises(BackendUnavailableError):
        compiled.execute()


# -- golden translation units ------------------------------------------------

BENCH_NAMES = [bench.name for bench in benchsuite.ALL_BENCHMARKS]


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_benchsuite_c_emission_matches_golden(name):
    # Golden-pin the full translation unit of every benchsuite program
    # at the most aggressive level: any emitter change must be reviewed
    # against these diffs (regenerate by writing render_c_module output
    # over the golden file).
    bench = benchsuite.get_benchmark(name)
    program = bench.test_program()
    sp = scalarize(
        program, plan_program(program, LEVELS_BY_NAME["c2+f4+cse"])
    )
    golden_path = os.path.join(
        GOLDEN_DIR, "c_bench_%s.golden.c" % name.lower()
    )
    with open(golden_path) as handle:
        assert render_c_module(sp) == handle.read()


@needs_cc
@pytest.mark.parametrize("name", BENCH_NAMES)
def test_benchsuite_c_runs_bit_identical_to_py(name):
    bench = benchsuite.get_benchmark(name)
    program = bench.test_program()
    sp = scalarize(
        program, plan_program(program, LEVELS_BY_NAME["c2+f4+cse"])
    )
    assert_c_is_py(sp, name)


# -- one text, one compiler run, one .so per program ---------------------------

SHARED_SIZES = (8, 16, 40, 100)


def compile_sized(source, level, **config):
    program = normalize_source(source, config)
    return scalarize(program, plan_program(program, resolve_level(level)))


def assert_c_is_py(sp, where):
    """``c`` against the Python element loops, bit for bit."""
    c = execute(sp, "c")
    py = execute(sp, "codegen_py")
    for name, arr in c.arrays.items():
        assert arr.dtype == py.arrays[name].dtype, (where, name)
        assert np.array_equal(arr, py.arrays[name], equal_nan=True), (where, name)
    for name, value in c.scalars.items():
        assert repr(float(value)) == repr(float(py.scalars[name])), (where, name)


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty kernel memo: what an earlier test compiled cannot absorb
    a compiler run this one counts."""
    from repro.exec import native

    monkeypatch.setattr(native, "_kernel_memo", {})
    return native._kernel_memo


@needs_cc
@pytest.mark.parametrize("name", BENCH_NAMES)
def test_benchsuite_program_is_one_text_and_one_cc_at_every_size(
    name, tmp_path, fresh_memo
):
    from repro.service import Service

    bench = benchsuite.get_benchmark(name)
    texts, vectors = set(), set()
    for n in SHARED_SIZES:
        sp = compile_sized(
            bench.source, "c2+f4+cse", **dict(bench.test_config, n=n, m=n)
        )
        texts.add(render_c_module(sp))
        vectors.add(c_abi(sp)[-1].values)
    assert len(texts) == 1
    assert len(vectors) == len(SHARED_SIZES)
    svc = Service(cache_dir=str(tmp_path / "cache"), backend="c")
    digests = set()
    for n in SHARED_SIZES:
        compiled = svc.compile(
            bench.source, level="c2+f4+cse", config=dict(bench.test_config, n=n, m=n)
        )
        digests.add(compiled.digest)
        if n <= 16:  # the element loops of the oracle are slow beyond
            assert_c_is_py(compiled.scalar_program, (name, n))
        compiled.execute()
    counters = svc.metrics.snapshot()["counters"]
    # The pipeline ran per size; the compiler once.
    assert len(digests) == len(SHARED_SIZES)
    assert counters["service.compiles"] == len(SHARED_SIZES)
    assert counters["native.cc_invocations"] == 1
    assert len(fresh_memo) == 1
    assert svc.cache.stats()["native_entries"] == 1


CONFIG_IN_ARITHMETIC = """program scaled;
config n : integer = 4;
region R = [1..n];
var A : [R] float;
var s : float;
begin
  [R] A := Index1 * 1.0 / n;
  s := +<< [R] A;
end;
"""


@needs_cc
def test_config_in_arithmetic_is_not_a_size(tmp_path, fresh_memo):
    # Normalization substitutes a config by value wherever it is used;
    # only region bounds are size sites, so this ``n`` stays in the text
    # and each binding is its own shared object, as before.
    from repro.service import Service

    svc = Service(cache_dir=str(tmp_path / "cache"), backend="c")
    texts = set()
    for n in (4, 7):
        compiled = svc.compile(CONFIG_IN_ARITHMETIC, config={"n": n})
        texts.add(compiled.code)
        assert "/ %d" % n in compiled.code
        assert_c_is_py(compiled.scalar_program, n)
        result = compiled.execute()
        assert float(result.scalars["s"]) == pytest.approx((n + 1) / 2.0)
    assert len(texts) == 2
    counters = svc.metrics.snapshot()["counters"]
    assert counters["native.cc_invocations"] == 2
    assert svc.cache.stats()["native_entries"] == 2


BOUNDARY_FILLS = """program fills;
config n : integer = 6;
region R = [1..n, 1..n];
var A, B : [R] float;
var s : float;
var i : integer;
begin
  [R] A := Index1 * 1.0 + Index2 * 0.25;
  for i := 1 to 2 do
    [R] wrap A;
    [R] B := (A@(-1,0) + A@(1,0)) * 0.5;
    [R] A := B;
  end;
  [R] reflect A;
  s := +<< [R] (A@(0,1) + A);
end;
"""

THREE_D = """program cube;
config n : integer = 4;
region R = [1..n, 1..n, 1..n];
region I = [2..n-1, 2..n-1, 2..n-1];
var A, B : [R] float;
var s : float;
begin
  [R] A := Index1 * 1.5 + Index2 * 0.25 - Index3;
  [I] B := A@(1,0,0) + A@(0,-1,0) + A@(0,0,1);
  s := max<< [R] B;
end;
"""

CIRCULAR_BUFFER = """program sweep;
config n : integer = 8;
region R = [1..n, 1..n];
var A, W, Z : [R] float;
var i : integer;
var s : float;
begin
  [R] A := Index1 * 1.0 + Index2 * 0.5;
  for i := 2 to n do
    [i, 1..n] W := A * 2.0 + W@(-1,0) * 0.25;
    [i, 1..n] Z := W + A;
  end;
  s := +<< [R] Z;
end;
"""

COLUMN_SWEEP = """program colsink;
config n : integer = 9;
region R = [1..n, 1..n];
var T, B : [R] float;
var j : integer;
var s : float;
begin
  [R] T := (Index1 * -3.7 + Index2 * 1.3) % 1.0;
  [R] B := Index1 + Index2 * 0.25;
  for j := 2 to n do
    [2..n-1, j] T := T@(0,-1) * 0.5 + B@(1,-1);
  end;
  for j := n-1 downto 1 do
    [2..n-1, j] T := (T - B * T@(0,1)) * 0.5;
  end;
  s := +<< [R] (T + B);
end;
"""

NARROW_REGION = """program narrow;
config n : integer = 5;
region R = [1..n, 1..n];
region I = [3..n-2, 1..n];
var A, B : [R] float;
var s, t : float;
begin
  [R] A := Index1 * 1.0 + Index2;
  [I] B := A@(-1,0) + A@(1,0);
  s := +<< [I] B;
  t := max<< [R] A;
end;
"""


def _bench_source(name):
    return benchsuite.get_benchmark(name).source


def _bench_config(name, n):
    return dict(benchsuite.get_benchmark(name).test_config, n=n, m=n)


#: (id, source, level, one config per size, whether the sizes share a text)
SIZE_FAMILIES = [
    # [2..n-1] is empty at n = 2 and one wide at n = 3: the plan may
    # differ there (its own text), the answer may not.
    ("tomcatv-degenerate", _bench_source("Tomcatv"), "c2+f4+cse",
     [_bench_config("Tomcatv", n) for n in (2, 3)], False),
    ("fibro-degenerate", _bench_source("Fibro"), "c2+f4+cse",
     [_bench_config("Fibro", n) for n in (2, 3)], False),
    # I = [3..n-2, ...]: empty at 4, one wide at 5, three wide at 7.
    ("empty-and-one-wide", NARROW_REGION, "baseline",
     [{"n": n} for n in (4, 5, 7)], True),
    ("wrap-and-reflect", BOUNDARY_FILLS, "c2+f4+cse",
     [{"n": n} for n in (4, 6, 9)], True),
    ("three-dimensional", THREE_D, "c2+f4+cse",
     [{"n": n} for n in (3, 4, 6)], True),
    ("circular-buffer", CIRCULAR_BUFFER, "c2+p",
     [{"n": n} for n in (3, 8, 11)], True),
    ("column-sunk-sweep", COLUMN_SWEEP, "c2+f4+cse",
     [{"n": n} for n in (4, 9, 12)], True),
]


@needs_cc
@pytest.mark.parametrize(
    "source, level, configs, shared",
    [family[1:] for family in SIZE_FAMILIES],
    ids=[family[0] for family in SIZE_FAMILIES],
)
def test_sizes_share_text_and_match_py(source, level, configs, shared, fresh_memo):
    texts = set()
    for config in configs:
        sp = compile_sized(source, level, **config)
        texts.add(render_c_module(sp))
        assert_c_is_py(sp, config)
    if shared:
        assert len(texts) == 1
        assert len(fresh_memo) == 1
    # Never more kernels than texts, shared or not.
    assert len(fresh_memo) == len(texts)


def test_circular_buffer_family_is_partially_contracted():
    sp = compile_sized(CIRCULAR_BUFFER, "c2+p", n=8)
    assert sp.partial == {"W": (1, 2)}
    assert "% 2]" in render_c_module(sp)


def test_column_sweep_family_is_sunk():
    # Both sweeps run with their row loop outside the serial loop.
    text = render_c_module(compile_sized(COLUMN_SWEEP, "c2+f4+cse", n=9))
    assert text.count("_lo = ") == 2


def test_inspection_text_keeps_literal_sizes():
    # Static storage cannot be variably sized: the same walk spells the
    # sizes as literals, and leaves no vector behind.
    from repro.scalarize import render_c

    _program, sp = compile_at(BASIC_SOURCE)
    code = render_c(sp)
    assert "static double A[8][6];" in code
    assert "for (_i1 = 2; _i1 <= 5; _i1++) {" in code
    assert "_p0" not in code and "_sizes" not in code
    assert sp.c_sizes is None


def test_abi_of_an_unpickled_program_does_not_render(monkeypatch):
    # The vector is found by the build-time walk and travels with the
    # program an artifact pickles; a load renders nothing.
    import pickle

    from repro.scalarize import codegen_c

    _program, sp = compile_at(BASIC_SOURCE)
    render_c_module(sp)
    loaded = pickle.loads(pickle.dumps(sp))

    def no_render(self):
        raise AssertionError("c_abi rendered an already-rendered program")

    monkeypatch.setattr(codegen_c.CGenerator, "render", no_render)
    assert c_abi(loaded) == c_abi(sp)
    assert c_abi(loaded)[-1].values


@needs_cc
def test_scalar_only_program_travels_a_one_element_vector():
    # No size site at all: the entry is still there (the ABI has one
    # shape) and its buffer is one element, never zero bytes.
    _program, sp = compile_at(
        """program scalars;
var s, t : float;
begin
  s := 1.5;
  t := s * 2.0;
end;
"""
    )
    sizes = c_abi(sp)[-1]
    assert sizes.values == ()
    assert "_sizes" not in render_c_module(sp)
    assert float(execute(sp, "c").scalars["t"]) == 3.0


class _NeverCalled:
    path = "<none>"

    def run(self, buffers):
        raise AssertionError("the pointer call was reached")


def test_call_kernel_refuses_a_vector_that_disagrees_with_the_buffers():
    from repro.exec import native
    from repro.scalarize.emit_common import build_state

    _program, sp = compile_at(BASIC_SOURCE)
    abi = c_abi(sp)
    arrays, scalars = build_state(abi[:-1])
    sizes = abi[-1]
    k, name, dim = sizes.extents[0]
    values = list(sizes.values)
    values[k] += 1
    bad = abi[:-1] + [sizes._replace(values=tuple(values))]
    with pytest.raises(ReproError, match="size vector says %r" % name):
        native.call_kernel(_NeverCalled(), bad, arrays, scalars)
    # The layout alone (the ABI before the size entry existed) is refused
    # too: the text would read a buffer nobody handed over.
    with pytest.raises(ReproError, match="c_abi"):
        native.call_kernel(_NeverCalled(), list(sp.layout), arrays, scalars)
    # The buffers themselves are still checked first, as before.
    arrays[name] = np.zeros((2, 2))
    with pytest.raises(ReproError, match="C-contiguous"):
        native.call_kernel(_NeverCalled(), abi, arrays, scalars)


# -- the .so follows the text into every cache that asks for it ----------------

_TWO_CACHES_SCRIPT = """
import json, sys
from repro.service import Service

SRC = '''%s'''
out = []
for cache_dir, n in zip(sys.argv[1:], (6, 9)):
    svc = Service(cache_dir=cache_dir, backend="c")
    compiled = svc.compile(SRC, level="c2+f4+cse", config={"n": n})
    result = compiled.execute()
    counters = svc.metrics.snapshot()["counters"]
    out.append({
        "s": repr(float(result.scalars["s"])),
        "from_cache": compiled.from_cache,
        "cc": counters.get("native.cc_invocations", 0),
        "native_entries": svc.cache.stats()["native_entries"],
    })
print(json.dumps(out))
""" % BASIC_SOURCE


@needs_cc
def test_memo_hit_leaves_the_so_in_the_callers_cache(tmp_path):
    # One process, one program, two sizes, two cache directories: the
    # second compile hits the kernel memo, and must still leave the
    # shared object in *its* cache, or the next process to open that
    # directory finds an artifact and no machine code for it.
    first, second = str(tmp_path / "a"), str(tmp_path / "b")
    both = _run_script(_TWO_CACHES_SCRIPT, first, second)
    assert [run["cc"] for run in both] == [1, 0]
    assert [run["native_entries"] for run in both] == [1, 1]
    assert not both[1]["from_cache"]
    (warm,) = _run_script(_TWO_CACHES_SCRIPT.replace("(6, 9)", "(9,)"), second)
    assert warm["from_cache"] and warm["cc"] == 0
    assert warm["s"] == both[1]["s"]
