"""Seeded differential fuzzing: five back ends, every level, one oracle.

Each corpus seed maps deterministically (``tests/genprog.py``) to one
mini-ZPL program, which is executed at **every** optimization level on
**every** back end — the tree-walking interpreter, generated Python
element loops, whole-region NumPy slices, the tile-parallel engine and
(when the host has a C compiler) native host-compiled C — and compared
elementwise against the reference (array-semantics) interpreter to 1e-9
relative tolerance.

On top of the reference comparison, two bit-identity oracles:

* ``np-par`` must match ``codegen_np`` *bit for bit*: tiling a
  dependence-free sweep permutes only the order of independent element
  computations, never the arithmetic, so any drift at all is a tiling
  bug (a halo read of a freshly-written neighbor, a lost corner
  restore) rather than float noise.
* ``c`` must match ``codegen_py`` *bit for bit* — arrays (dtype +
  ``np.array_equal``) **and** scalars (``repr``-exact) — at every
  level.  Both execute the same loop nests in the same element order
  with serial reduction folds, and the C unit is compiled with
  ``-ffp-contract=off``, so IEEE semantics leave no room for drift.

Pinned operation-order caveat (documented, not loosened): ``c`` vs
``codegen_np`` arrays are compared bitwise only for programs without a
mid-program float sum (``s := +<<``) feeding later statements, and
float ``+<<`` *scalars* are never compared bitwise against the NumPy
back ends at all — ``np.sum`` uses pairwise summation while the C and
Python element loops fold serially, an associativity difference, not a
bug.  Those cases stay under the reference-tolerance oracle.

Corpus size defaults to 200 seeds and is tunable with
``REPRO_FUZZ_COUNT`` (CI smoke jobs use a smaller fixed subset; the
seeds themselves never change).
"""

import os
import re
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from genprog import generate_program  # noqa: E402

from repro.exec import execute  # noqa: E402
from repro.fusion import (  # noqa: E402
    ALL_LEVELS,
    CSE_TWINS,
    LEVELS_BY_NAME,
    plan_program,
)
from repro.interp import run_reference  # noqa: E402
from repro.ir import normalize_source  # noqa: E402
from repro.scalarize import scalarize  # noqa: E402

from repro.exec.native import cc_available  # noqa: E402

FUZZ_COUNT = int(os.environ.get("REPRO_FUZZ_COUNT", "200"))
#: The native backend joins the differential only where it can run; the
#: rest of the oracle is unchanged on compiler-less hosts.
BACKENDS = ("interp", "codegen_py", "codegen_np", "np-par") + (
    ("c",) if cc_available() else ()
)

#: Elementwise agreement bar for float state across back ends.
RTOL, ATOL = 1e-9, 1e-11


def _assert_close(actual, expected, label):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape, "%s: shape %s != %s" % (
        label,
        actual.shape,
        expected.shape,
    )
    assert np.allclose(
        actual, expected, rtol=RTOL, atol=ATOL, equal_nan=True
    ), "%s diverged (max |diff| = %s)" % (
        label,
        np.max(np.abs(actual - expected)) if actual.size else 0.0,
    )


@pytest.mark.parametrize("seed", range(FUZZ_COUNT))
def test_fuzz_backends_agree_at_every_level(seed):
    source = generate_program(seed)
    program = normalize_source(source)
    reference = run_reference(program)
    # A mid-program float sum whose value feeds later statements
    # amplifies the serial-vs-pairwise summation difference into array
    # state; those seeds keep the tolerance oracle vs the NumPy engines.
    has_float_sum = "s := +<<" in source
    for level in ALL_LEVELS:
        scalar_program = scalarize(program, plan_program(program, level))
        py_result = None
        np_result = None
        for backend in BACKENDS:
            result = execute(scalar_program, backend)
            where = "seed %d %s %s" % (seed, level.name, backend)
            for name, array in result.arrays.items():
                if name.startswith("_") or name not in reference.arrays:
                    continue
                _assert_close(
                    array,
                    reference.arrays[name],
                    "%s array %s\n%s" % (where, name, source),
                )
            for name in ("s", "t"):
                _assert_close(
                    float(result.scalars[name]),
                    float(reference.scalars[name]),
                    "%s scalar %s\n%s" % (where, name, source),
                )
            if backend == "codegen_py":
                py_result = result
            elif backend == "codegen_np":
                np_result = result
            elif backend == "np-par":
                # Tiling must be bit-transparent relative to the
                # whole-region slices it shards.
                for name, array in result.arrays.items():
                    other = np_result.arrays[name]
                    assert array.dtype == other.dtype, where
                    assert np.array_equal(
                        array, other, equal_nan=True
                    ), "%s != codegen_np on array %s\n%s" % (
                        where,
                        name,
                        source,
                    )
            elif backend == "c":
                # Same element order, same serial folds, fp-contract
                # off: the native kernel must be bit-transparent
                # relative to the Python element loops — state *and*
                # scalars, at every level.
                for name, array in result.arrays.items():
                    other = py_result.arrays[name]
                    assert array.dtype == other.dtype, where
                    assert np.array_equal(
                        array, other, equal_nan=True
                    ), "%s != codegen_py on array %s\n%s" % (
                        where,
                        name,
                        source,
                    )
                for name in ("s", "t"):
                    assert repr(float(result.scalars[name])) == repr(
                        float(py_result.scalars[name])
                    ), "%s scalar %s != codegen_py\n%s" % (
                        where,
                        name,
                        source,
                    )
                if not has_float_sum:
                    # No serial-vs-pairwise sum in play: array state
                    # must also bit-match the vectorized engine.
                    for name, array in result.arrays.items():
                        other = np_result.arrays[name]
                        assert array.dtype == other.dtype, where
                        assert np.array_equal(
                            array, other, equal_nan=True
                        ), "%s != codegen_np on array %s\n%s" % (
                            where,
                            name,
                            source,
                        )


@pytest.mark.parametrize("seed", range(FUZZ_COUNT))
def test_fuzz_cse_bit_identical_to_twin(seed):
    # Redundancy elimination reorders no arithmetic: it evaluates each
    # hoisted term once, in the place of its first occurrence, and reuses
    # the value.  The +cse levels must therefore be *bit-identical* to
    # their non-CSE twins on every backend — allclose is not the bar.
    source = generate_program(seed)
    program = normalize_source(source)
    for cse_name, base_name in CSE_TWINS.items():
        cse_sp = scalarize(
            program, plan_program(program, LEVELS_BY_NAME[cse_name])
        )
        base_sp = scalarize(
            program, plan_program(program, LEVELS_BY_NAME[base_name])
        )
        for backend in BACKENDS:
            cse_result = execute(cse_sp, backend)
            base_result = execute(base_sp, backend)
            where = "seed %d %s vs %s %s" % (seed, cse_name, base_name, backend)
            for name, array in base_result.arrays.items():
                if name.startswith("_"):
                    continue
                other = cse_result.arrays[name]
                assert other.dtype == array.dtype, where
                assert np.array_equal(
                    other, array, equal_nan=True
                ), "%s array %s\n%s" % (where, name, source)
            for name in ("s", "t"):
                # repr distinguishes -0.0 from 0.0 and is exact for
                # float64: string equality here is bit equality (modulo
                # NaN payloads, which no backend manufactures).
                assert repr(float(cse_result.scalars[name])) == repr(
                    float(base_result.scalars[name])
                ), "%s scalar %s\n%s" % (where, name, source)


#: Levels of the two-binding cell: nothing fused, everything fused, and
#: the circular buffers of partial contraction.
REBOUND_LEVELS = ("baseline", "c2+f4+cse", "c2+p")


@pytest.mark.skipif(not cc_available(), reason="no host C compiler")
@pytest.mark.parametrize("seed", range(FUZZ_COUNT))
def test_fuzz_c_cell_at_two_bindings_through_one_memo(seed):
    # The C text carries no sizes, so a second binding of ``n`` runs the
    # kernel the first one compiled, fed another size vector.  Each seed's
    # ``c`` cell at its own ``n`` and at ``n + 3`` must stay bit-identical
    # to the Python element loops, and wherever the two bindings render
    # one text they must be one entry of the kernel memo.
    from repro.exec import native
    from repro.fusion import resolve_level
    from repro.scalarize import render_c_module

    source = generate_program(seed)
    n = int(re.search(r"config n : integer = (\d+);", source).group(1))
    for level_name in REBOUND_LEVELS:
        level = resolve_level(level_name)
        texts = set()
        before = len(native._kernel_memo)
        for binding in (n, n + 3):
            program = normalize_source(source, {"n": binding})
            scalar_program = scalarize(program, plan_program(program, level))
            texts.add(render_c_module(scalar_program))
            c_result = execute(scalar_program, "c")
            py_result = execute(scalar_program, "codegen_py")
            where = "seed %d %s n=%d" % (seed, level_name, binding)
            for name, array in c_result.arrays.items():
                other = py_result.arrays[name]
                assert array.dtype == other.dtype, where
                assert np.array_equal(array, other, equal_nan=True), (
                    "%s != codegen_py on array %s\n%s" % (where, name, source)
                )
            for name in ("s", "t"):
                assert repr(float(c_result.scalars[name])) == repr(
                    float(py_result.scalars[name])
                ), "%s scalar %s != codegen_py\n%s" % (where, name, source)
        assert len(native._kernel_memo) - before <= len(texts), where


def test_corpus_is_deterministic():
    # A seed is a stable address: the corpus must never drift between
    # runs, machines, or CI jobs, or failures stop being replayable.
    for seed in (0, 1, 17, FUZZ_COUNT - 1):
        assert generate_program(seed) == generate_program(seed)
    assert generate_program(0) != generate_program(1)


def test_corpus_covers_optimizer_surfaces():
    # The generator must keep producing the constructs the fuzz oracle
    # exists to exercise; a regression here silently hollows out the suite.
    sources = [generate_program(seed) for seed in range(100)]
    assert any("wrap" in s or "reflect" in s for s in sources)
    assert any("max<<" in s or "min<<" in s for s in sources)
    assert any("for i := 2 to n do" in s for s in sources)
    # Column sweeps in both directions (the c emitter's loop sink) and
    # both float-modulo lowerings (fractional part / general divisor).
    assert any("for j := 2 to n do" in s for s in sources)
    assert any("for j := n downto 2 do" in s for s in sources)
    assert all("% 1.0" in s and "% 2.0" in s for s in sources)
    assert any("@(-2" in s or "@(2" in s or ",2)" in s or ",-2)" in s
               for s in sources)
    # Redundancy-elimination surfaces: repeated multi-op terms and
    # integer intrinsic calls must keep appearing in the corpus.
    assert any("min(Index1, Index2)" in s or "max(Index2," in s
               or "abs(Index1 -" in s for s in sources)
    stencil = re.compile(
        r"\((?:[A-E](?:@\(-?\d,-?\d\))? \+ ){2}[A-E](?:@\(-?\d,-?\d\))?\)"
    )
    assert any(
        any(terms.count(t) >= 2 for t in terms)
        for terms in (stencil.findall(s) for s in sources)
    )


# -- lazy-frontend differential: trace vs parsed twin ----------------------
#
# Each dual seed (``genprog.DualProgramGenerator``) is one program emitted
# twice — as mini-ZPL text and as an equivalent ``repro.array`` trace over
# the same input arrays.  Both lower to the same per-element op DAG, so
# the bar is *bit identity* (dtype + np.array_equal), not allclose: any
# drift means the frontend lowered an op differently than the parser.

import repro.array as ra  # noqa: E402
from genprog import DUAL_REDUCTIONS, generate_dual_program  # noqa: E402
from repro.scalarize.emit_common import DTYPES, int_config_env  # noqa: E402

#: Unoptimized (every temp observable) and maximally optimized.
DUAL_LEVELS = ("baseline", "c2+f4+cse")

_frontend_service_cache = []


def _frontend_service():
    if not _frontend_service_cache:
        from repro.service import Service

        _frontend_service_cache.append(Service(persistent=False))
    return _frontend_service_cache[0]


def _padded_inputs(scalar_program, inputs):
    """Embed declared-region inputs into zero-filled allocation buffers."""
    env = int_config_env(scalar_program.configs)
    padded = {}
    for name, value in inputs.items():
        region, kind = scalar_program.array_allocs[name]
        bounds = region.concrete_bounds(env)
        buffer = np.zeros(
            tuple(hi - lo + 1 for lo, hi in bounds),
            dtype=getattr(np, DTYPES[kind]),
        )
        buffer[_interior(bounds, value.shape)] = value
        padded[name] = buffer
    return padded


def _interior(bounds, shape):
    return tuple(
        slice(1 - lo, 1 - lo + extent)
        for (lo, _hi), extent in zip(bounds, shape)
    )


@pytest.mark.parametrize("seed", range(FUZZ_COUNT))
def test_fuzz_frontend_bit_identical_to_parsed_twin(seed):
    dual = generate_dual_program(seed)
    temps, scalars = dual.traced()
    source = dual.zpl()
    program = normalize_source(source)
    service = _frontend_service()
    for level_name in DUAL_LEVELS:
        scalar_program = scalarize(
            program, plan_program(program, LEVELS_BY_NAME[level_name])
        )
        padded = _padded_inputs(scalar_program, dual.inputs)
        env = int_config_env(scalar_program.configs)
        for backend in BACKENDS:
            zpl = execute(scalar_program, backend, initial_arrays=padded)
            where = "dual seed %d %s %s" % (seed, level_name, backend)
            if level_name == "baseline":
                # Every temp is observable: compare full arrays *and*
                # the reduction scalars, through one fused frontend
                # program (temps become outputs, disabling contraction
                # on the frontend side too).
                lazies = list(temps.values()) + list(scalars.values())
                values = ra.compute(
                    *lazies,
                    backend=backend,
                    level=level_name,
                    service=service,
                )
                traced = dict(zip(list(temps) + list(scalars), values))
                for name in temps:
                    region, _kind = scalar_program.array_allocs[name]
                    bounds = region.concrete_bounds(env)
                    expected = zpl.arrays[name][
                        _interior(bounds, dual.shape)
                    ]
                    actual = traced[name]
                    assert actual.dtype == expected.dtype, (
                        "%s array %s dtype %s != %s\n%s"
                        % (where, name, actual.dtype, expected.dtype, source)
                    )
                    assert np.array_equal(actual, expected), (
                        "%s array %s\n%s" % (where, name, source)
                    )
            else:
                # Temps stay internal on the frontend side, so the
                # optimizer contracts/fuses them exactly as it does the
                # parsed program's.
                values = ra.compute(
                    *scalars.values(),
                    backend=backend,
                    level=level_name,
                    service=service,
                )
                traced = dict(zip(scalars, values))
            for name, _op in DUAL_REDUCTIONS:
                actual = np.asarray(traced[name])
                expected = np.asarray(zpl.scalars[name])
                assert actual.dtype == expected.dtype, (
                    "%s scalar %s dtype %s != %s\n%s"
                    % (where, name, actual.dtype, expected.dtype, source)
                )
                assert np.array_equal(actual, expected), (
                    "%s scalar %s: %r != %r\n%s"
                    % (where, name, actual, expected, source)
                )


def test_dual_corpus_is_deterministic():
    for seed in (0, 1, 17, FUZZ_COUNT - 1):
        assert (
            generate_dual_program(seed).zpl()
            == generate_dual_program(seed).zpl()
        )
    assert generate_dual_program(0).zpl() != generate_dual_program(1).zpl()


def test_dual_corpus_covers_frontend_surfaces():
    sources = [generate_dual_program(seed).zpl() for seed in range(60)]
    # Shifts on both axes, in both directions, wider than one element.
    assert any("@(-2,0)" in s or "@(2,0)" in s for s in sources)
    assert any("@(0,-2)" in s or "@(0,2)" in s for s in sources)
    # Kind inference must keep producing integer temps (int-only
    # subtrees over K0/Index/iconst) alongside float ones: after the K0
    # declaration is dropped, an integer array declaration left over is
    # a temp whose kind the trace inferred as integer.
    assert any(
        ": [R] integer;" in s.replace("var K0 : [R] integer;", "", 1)
        for s in sources
    )
    assert any("min(" in s or "max(" in s for s in sources)
    assert any("sqrt(abs(" in s for s in sources)
