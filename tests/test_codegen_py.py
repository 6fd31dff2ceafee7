"""Tests for the Python code-generation back end.

Three-way agreement: generated-Python execution == scalarized interpreter
== reference array semantics, for every optimization level and for the
benchmark suite at test sizes.
"""

import numpy as np
import pytest

from repro.benchsuite import ALL_BENCHMARKS
from repro.exec import execute
from repro.fusion import ALL_LEVELS, BASELINE, C2, plan_program
from repro.interp import run_reference, run_scalarized
from repro.ir import normalize_source
from repro.scalarize import compile_program, render_python, scalarize
from tests.test_result_contract import assert_declared_results

TEMPLATE = """
program p;
config n : integer = 6;
region R = [1..n, 1..n];
var A, B, C : [R] float;
var s : float;
var i : integer;
begin
%s
end;
"""

BODY = """
  [R] A := Index1 * 1.5 + Index2;
  [R] B := A@(0,-1) + A@(0,1);
  [R] C := B * 0.5;
  [R] A := A@(-1,0) + C;
  for i := 2 to n do
    [i, 1..n] B := A@(-1,0) * 0.25 + B;
  end;
  s := +<< [R] (A + B);
"""


class TestRendering:
    def test_source_compiles(self):
        program = normalize_source(TEMPLATE % BODY)
        source = render_python(compile_program(program, C2))
        compile(source, "<test>", "exec")

    def test_contains_loops_and_allocs(self):
        program = normalize_source(TEMPLATE % BODY)
        source = render_python(compile_program(program, BASELINE))
        # The emitted function is a kernel: it binds the caller's arrays
        # and starting scalars by name and allocates nothing.
        assert "def run(_arrays, _scalars):" in source
        assert "    A = _arrays['A']" in source
        assert "    s = _scalars['s']" in source
        assert "np.zeros" not in source and "_inputs" not in source
        assert "for _i1 in range(" in source
        assert source.splitlines()[-1].startswith("    return {'s': s")

    def test_reversed_loop_emitted(self):
        program = normalize_source(
            TEMPLATE % "[R] A := A@(-1,0) + B;"
        )
        source = render_python(compile_program(program, C2))
        assert "range(6, 1 - 1, -1)" in source


class TestExecution:
    @pytest.mark.parametrize("level", ALL_LEVELS, ids=lambda l: l.name)
    def test_three_way_agreement(self, level):
        program = normalize_source(TEMPLATE % BODY)
        reference = run_reference(program)
        plan = plan_program(program, level)
        scalar_program = scalarize(program, plan)
        interpreted = run_scalarized(scalar_program)
        result = execute(scalar_program, "codegen_py")
        assert_declared_results(result, program, plan)
        arrays, scalars = result
        for name, array in arrays.items():
            assert np.allclose(array, reference.arrays[name]), (level.name, name)
            assert np.allclose(array, interpreted.arrays[name]), (level.name, name)
        assert np.isclose(float(scalars["s"]), float(reference.scalars["s"]))

    def test_downto_execution(self):
        body = "s := 0.0;\nfor i := n downto 1 do s := s * 10.0 + i; end;"
        program = normalize_source(TEMPLATE % body)
        scalar_program = compile_program(program, BASELINE)
        _arrays, scalars = execute(scalar_program, "codegen_py")
        assert scalars["s"] == 654321.0

    def test_while_and_if(self):
        body = (
            "i := 0;\nwhile i < 5 do i := i + 1; end;"
            "\nif i = 5 then s := 9.0; end;"
        )
        program = normalize_source(TEMPLATE % body)
        _arrays, scalars = execute(compile_program(program, BASELINE), "codegen_py")
        assert scalars["i"] == 5
        assert scalars["s"] == 9.0

    def test_intrinsics(self):
        body = "[R] A := sqrt(4.0) + min(Index1, 2) + abs(0.0 - 1.0);\ns := max<< [R] A;"
        program = normalize_source(TEMPLATE % body)
        reference = run_reference(program)
        _arrays, scalars = execute(compile_program(program, BASELINE), "codegen_py")
        assert np.isclose(float(scalars["s"]), float(reference.scalars["s"]))


class TestBenchmarks:
    @pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
    def test_codegen_matches_reference(self, bench):
        program = bench.test_program()
        reference = run_reference(program)
        scalar_program = scalarize(program, plan_program(program, C2))
        _arrays, scalars = execute(scalar_program, "codegen_py")
        for name in bench.check_scalars:
            assert np.isclose(
                float(scalars[name]), float(reference.scalars[name])
            ), (bench.name, name)


# -- pinned emitter text -----------------------------------------------------
#
# sha256 of the three Python emitters' output for every benchsuite program
# at four levels.  Generated text is what the artifact cache stores under
# ``fingerprint.CODE_VERSION``: a change here without a version bump would
# serve stale artifacts.  Regenerate tests/golden/py_emitters.sha256.json
# (keys ``<bench>|<level>|<renderer>``) only together with such a bump.


def _emitter_pins():
    import json
    import os

    path = os.path.join(
        os.path.dirname(__file__), "golden", "py_emitters.sha256.json"
    )
    with open(path) as handle:
        return json.load(handle)


@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
def test_python_emitter_text_is_pinned(bench):
    import hashlib

    from repro.fusion import C2P, LEVELS_BY_NAME
    from repro.scalarize import render_numpy

    pins = _emitter_pins()
    renderers = (render_python, render_numpy)
    program = bench.test_program()
    checked = 0
    for level in (BASELINE, C2, LEVELS_BY_NAME["c2+f4+cse"], C2P):
        scalar_program = scalarize(program, plan_program(program, level))
        for render in renderers:
            key = "%s|%s|%s" % (bench.name, level.name, render.__name__)
            digest = hashlib.sha256(render(scalar_program).encode()).hexdigest()
            assert digest == pins[key], key
            checked += 1
    assert checked * len(ALL_BENCHMARKS) == len(pins)
