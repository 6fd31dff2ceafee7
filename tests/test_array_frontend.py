"""The lazy ``repro.array`` frontend: tracing, lowering, materialization.

Three layers of coverage:

* unit semantics — shapes, kind inference, shift edge behavior, error
  paths, implicit materialization triggers;
* the acceptance twin — the Simple benchsuite conduction-phase stencil
  written both as mini-ZPL and as a ``repro.array`` program must be
  *bit-identical* (dtype + ``np.array_equal``) on all four backends at
  every fusion level, including ``c2+f4+cse``;
* the caching contract — re-materializing the same traced program shape
  N times with fresh input values performs exactly one compile.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

import repro.array as ra  # noqa: E402
from repro.exec import execute  # noqa: E402
from repro.fusion import ALL_LEVELS, LEVELS_BY_NAME, plan_program  # noqa: E402
from repro.ir import normalize_source  # noqa: E402
from repro.scalarize import scalarize  # noqa: E402
from repro.scalarize.emit_common import DTYPES, int_config_env  # noqa: E402
from repro.service import Service  # noqa: E402
from repro.util.errors import ReproError  # noqa: E402

BACKENDS = ("interp", "codegen_py", "codegen_np", "np-par")


@pytest.fixture()
def service():
    return Service(persistent=False)


@pytest.fixture()
def default_service():
    """A fresh, non-persistent default service for implicit triggers."""
    svc = Service(persistent=False)
    ra.set_default_service(svc)
    try:
        yield svc
    finally:
        ra.set_default_service(None)


# -- unit semantics --------------------------------------------------------


def test_asarray_shape_kind_dtype():
    a = ra.asarray(np.arange(12.0).reshape(3, 4))
    assert a.shape == (3, 4) and a.ndim == 2 and a.size == 12
    assert a.dtype == np.float64
    k = ra.asarray(np.arange(6).reshape(2, 3))
    assert k.dtype == np.int64
    b = k > 2
    assert b.dtype == np.bool_


def test_zeros_ones_full_index():
    assert ra.zeros((2, 2)).dtype == np.float64
    assert ra.ones((2, 2), dtype=np.int64).dtype == np.int64
    assert ra.full((2, 2), 3).dtype == np.int64
    assert ra.index((2, 3), 1).dtype == np.int64


def test_kind_inference_matches_language_rules():
    i = ra.ones((2, 2), dtype=np.int64)
    assert (i / i).dtype == np.float64  # "/" promotes, like the language
    assert (i + i).dtype == np.int64
    assert (i ** i).dtype == np.float64  # "^" is float
    assert ra.sqrt(i).dtype == np.float64
    assert abs(i).dtype == np.int64
    assert ra.floor(i * 1.5).dtype == np.int64


def test_shape_mismatch_rejected():
    a = ra.zeros((2, 2))
    b = ra.zeros((3, 3))
    with pytest.raises(ReproError, match="shape"):
        a + b


def test_shift_validates_axis_and_bool_is_ambiguous():
    a = ra.zeros((2, 2))
    with pytest.raises(ReproError, match="axis"):
        a.shift(2, 1)
    with pytest.raises(ReproError, match="ambiguous"):
        bool(a)


def test_shift_reads_zero_outside_region(service):
    values = np.arange(1.0, 13.0).reshape(3, 4)
    a = ra.asarray(values)
    shifted = a.shift(0, 1).compute(service=service)
    expected = np.zeros((3, 4))
    expected[:-1] = values[1:]  # result[i] = a[i+1]; off-edge reads 0
    assert np.array_equal(shifted, expected)
    shifted = a.shift(1, -2).compute(service=service)
    expected = np.zeros((3, 4))
    expected[:, 2:] = values[:, :-2]
    assert np.array_equal(shifted, expected)


def test_shift_of_shift_does_not_compose_offsets(service):
    # shift(shift(a)) re-reads through the *intermediate's* zero halo, so
    # chained shifts are not one combined-offset read: the value shifted
    # in from off-edge is 0, then shifted again.
    values = np.arange(1.0, 10.0).reshape(3, 3)
    a = ra.asarray(values)
    chained = a.shift(0, 1).shift(0, 1).compute(service=service)
    inner = np.zeros((3, 3))
    inner[:-1] = values[1:]
    expected = np.zeros((3, 3))
    expected[:-1] = inner[1:]
    assert np.array_equal(chained, expected)


def test_reduction_dtypes(service):
    i = ra.asarray(np.arange(6).reshape(2, 3))
    total = i.sum().compute(service=service)
    assert np.asarray(total).dtype == np.int64 and int(total) == 15
    low = i.min().compute(service=service)
    assert int(low) == 0
    f = ra.asarray(np.arange(6.0).reshape(2, 3))
    assert np.asarray(f.max().compute(service=service)) == 5.0


def test_mod_matches_numpy(service):
    values = np.array([[-7.0, -1.5], [2.5, 7.0]])
    out = (ra.asarray(values) % 3.0).compute(service=service)
    assert np.array_equal(out, np.mod(values, 3.0))


def test_implicit_triggers(default_service):
    values = np.linspace(0.0, 1.0, 9).reshape(3, 3)
    a = ra.asarray(values) * 2.0
    # np.asarray routes through __array__; float() through __float__.
    assert np.array_equal(np.asarray(a), values * 2.0)
    assert float(ra.asarray(values).sum()) == pytest.approx(values.sum())


def test_multi_output_compute_shares_subexpressions(service):
    values = np.arange(1.0, 10.0).reshape(3, 3)
    a = ra.asarray(values)
    b = a * 2.0
    c = b + 1.0
    out_b, out_c, total = ra.compute(b, c, c.sum(), service=service)
    assert np.array_equal(out_b, values * 2.0)
    assert np.array_equal(out_c, values * 2.0 + 1.0)
    assert float(total) == pytest.approx((values * 2.0 + 1.0).sum())


def test_compute_rejects_non_lazy_values(service):
    with pytest.raises(ReproError, match="LazyArray/LazyScalar"):
        ra.compute(np.zeros((2, 2)), service=service)


# -- acceptance: benchsuite conduction stencil, ZPL twin -------------------

#: The heat-conduction phase of the Simple benchsuite program
#: (``repro.benchsuite.simple``), restated over a full region with TK/E
#: as seeded inputs — the exact coefficient construction and relaxation
#: sweep, statement for statement.
_CONDUCTION_ZPL = """
program conduction;
config n : integer = 12;
config m : integer = 14;
region R = [1..n, 1..m];
var TK, E : [R] float;
var KX, KY, CD, W5, TKN : [R] float;
var energy : float;
begin
  [R] KX := 0.5 * (TK@(0,1) + TK) * 0.2;
  [R] KY := 0.5 * (TK@(1,0) + TK) * 0.2;
  [R] CD := KX + KX@(0,-1) + KY + KY@(-1,0);
  [R] W5 := KX * TK@(0,1) + KX@(0,-1) * TK@(0,-1)
            + KY * TK@(1,0) + KY@(-1,0) * TK@(-1,0);
  [R] TKN := (TK + 0.01 * (W5 + 0.01 * E)) / (1.0 + 0.01 * CD);
  energy := +<< [R] TKN;
end;
"""


def _conduction_trace(tk_values, e_values):
    """The same stencil as ``_CONDUCTION_ZPL``, traced op for op."""
    tk = ra.asarray(tk_values)
    e = ra.asarray(e_values)
    kx = 0.5 * (tk.shift(1, 1) + tk) * 0.2
    ky = 0.5 * (tk.shift(0, 1) + tk) * 0.2
    cd = kx + kx.shift(1, -1) + ky + ky.shift(0, -1)
    w5 = (
        kx * tk.shift(1, 1)
        + kx.shift(1, -1) * tk.shift(1, -1)
        + ky * tk.shift(0, 1)
        + ky.shift(0, -1) * tk.shift(0, -1)
    )
    tkn = (tk + 0.01 * (w5 + 0.01 * e)) / (1.0 + 0.01 * cd)
    return tkn, tkn.sum()


def _pad(scalar_program, name, value):
    region, kind = scalar_program.array_allocs[name]
    bounds = region.concrete_bounds(int_config_env(scalar_program.configs))
    buffer = np.zeros(
        tuple(hi - lo + 1 for lo, hi in bounds),
        dtype=getattr(np, DTYPES[kind]),
    )
    interior = tuple(
        slice(1 - lo, 1 - lo + extent)
        for (lo, _hi), extent in zip(bounds, value.shape)
    )
    buffer[interior] = value
    return buffer, interior


def test_conduction_twin_bit_identical_on_all_backends_all_levels(service):
    rng = np.random.default_rng(42)
    tk_values = rng.uniform(0.5, 2.0, size=(12, 14))
    e_values = rng.uniform(1.0, 3.0, size=(12, 14))
    program = normalize_source(_CONDUCTION_ZPL)
    tkn, energy = _conduction_trace(tk_values, e_values)

    compared_array_somewhere = False
    for level in ALL_LEVELS:
        scalar_program = scalarize(program, plan_program(program, level))
        padded, interiors = {}, {}
        for name, values in (("TK", tk_values), ("E", e_values)):
            padded[name], interiors[name] = _pad(
                scalar_program, name, values
            )
        for backend in BACKENDS:
            zpl = execute(scalar_program, backend, initial_arrays=padded)
            out, total = ra.compute(
                tkn, energy,
                backend=backend, level=level.name, service=service,
            )
            where = "conduction %s %s" % (level.name, backend)
            assert np.asarray(total).dtype == np.float64, where
            assert np.array_equal(
                np.asarray(total), np.asarray(zpl.scalars["energy"])
            ), where
            if "TKN" in zpl.arrays:  # contraction may absorb it
                region, _kind = scalar_program.array_allocs["TKN"]
                bounds = region.concrete_bounds(
                    int_config_env(scalar_program.configs)
                )
                expected = zpl.arrays["TKN"][
                    tuple(
                        slice(1 - lo, 1 - lo + extent)
                        for (lo, _hi), extent in zip(bounds, (12, 14))
                    )
                ]
                assert out.dtype == expected.dtype, where
                assert np.array_equal(out, expected), where
                compared_array_somewhere = True
    assert "c2+f4+cse" in {level.name for level in ALL_LEVELS}
    assert compared_array_somewhere  # baseline at least keeps TKN


# -- acceptance: one compile for N materializations ------------------------


def test_same_trace_shape_compiles_exactly_once(service):
    rng = np.random.default_rng(7)
    for _round in range(5):
        values = rng.uniform(-1.0, 1.0, size=(6, 7))
        a = ra.asarray(values)
        out = ((a + a.shift(0, 1)) * 0.5).compute(
            backend="codegen_np", level="c2+f4", service=service
        )
        expected = np.zeros((6, 7))
        expected[:-1] = values[1:]
        assert np.array_equal(out, (values + expected) * 0.5)
    counters = service.metrics.snapshot()["counters"]
    assert counters["service.compiles"] == 1
    assert counters["cache.hits"] == 4
    assert counters["trace.materializations"] == 5


def test_warm_trace_digest_loads_generated_code_once(service, monkeypatch):
    # Every materialization makes a new CompiledProgram handle; the loaded
    # run is kept on the cache's memory-tier entry, so a warm trace digest
    # never re-executes the generated module.
    from repro.exec import BACKENDS

    real = BACKENDS["codegen_np"]
    loads = []

    def load(program, code=None, artifacts=None):
        loads.append(code)
        return real.load(program, code, artifacts)

    monkeypatch.setitem(BACKENDS, "codegen_np", real._replace(load=load))
    rng = np.random.default_rng(11)
    for _round in range(5):
        values = rng.uniform(-1.0, 1.0, size=(5, 6))
        out = (ra.asarray(values) * 2.0 + 1.0).compute(
            backend="codegen_np", service=service
        )
        assert np.array_equal(out, values * 2.0 + 1.0)
    assert service.metrics.counter("service.compiles") == 1
    assert len(loads) == 1


def test_distinct_shapes_and_levels_get_distinct_artifacts(service):
    a = ra.asarray(np.ones((4, 4)))
    (a * 2.0).compute(service=service)
    (a * 2.0).compute(level="baseline", service=service)  # new digest
    b = ra.asarray(np.ones((5, 4)))
    (b * 2.0).compute(service=service)  # new shape, new digest
    counters = service.metrics.snapshot()["counters"]
    assert counters["service.compiles"] == 3
