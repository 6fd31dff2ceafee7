"""Tests for wrap/reflect boundary statements."""

import numpy as np
import pytest

from repro.fusion import ALL_LEVELS, C2, plan_program
from repro.interp import Storage, fill_boundary, run_reference, run_scalarized
from repro.ir import BoundaryStatement, Region, normalize_source
from repro.exec import execute
from repro.scalarize import render_c, scalarize
from repro.util.errors import InterpError, NormalizationError, SemanticError

TEMPLATE = """
program p;
config n : integer = 6;
region R = [1..n, 1..n];
var A, B : [R] float;
var s : float;
var i : integer;
begin
%s
end;
"""


class TestFillBoundary:
    def storage(self, halo=1):
        storage = Storage()
        storage.allocate_array(
            "A", Region.literal((1 - halo, 4 + halo), (1 - halo, 4 + halo)), "float"
        )
        for i in range(1, 5):
            for j in range(1, 5):
                storage.set_element("A", (i, j), 10 * i + j)
        return storage

    def test_wrap_periodic(self):
        storage = self.storage()
        fill_boundary(storage, "A", ((1, 4), (1, 4)), "wrap")
        # Row 0 is a copy of row 4; row 5 of row 1.
        assert storage.element("A", (0, 2)) == storage.element("A", (4, 2))
        assert storage.element("A", (5, 3)) == storage.element("A", (1, 3))
        assert storage.element("A", (2, 0)) == storage.element("A", (2, 4))
        # Corner combines both dimensions.
        assert storage.element("A", (0, 0)) == storage.element("A", (4, 4))

    def test_reflect_mirror(self):
        storage = self.storage()
        fill_boundary(storage, "A", ((1, 4), (1, 4)), "reflect")
        assert storage.element("A", (0, 2)) == storage.element("A", (1, 2))
        assert storage.element("A", (5, 3)) == storage.element("A", (4, 3))
        assert storage.element("A", (2, 5)) == storage.element("A", (2, 4))

    def test_wide_halo(self):
        storage = self.storage(halo=2)
        fill_boundary(storage, "A", ((1, 4), (1, 4)), "wrap")
        assert storage.element("A", (-1, 2)) == storage.element("A", (3, 2))
        storage2 = self.storage(halo=2)
        fill_boundary(storage2, "A", ((1, 4), (1, 4)), "reflect")
        assert storage2.element("A", (-1, 2)) == storage2.element("A", (2, 2))

    def test_rank_mismatch(self):
        storage = self.storage()
        with pytest.raises(InterpError):
            fill_boundary(storage, "A", ((1, 4),), "wrap")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BoundaryStatement(Region.literal((1, 4)), "teleport", "A")


class TestFrontEnd:
    def test_parses_and_checks(self):
        program = normalize_source(
            TEMPLATE % "[R] A := 1.0;\n[R] wrap A;\n[R] B := A@(-1,0);"
        )
        assert len(program.boundary_statements()) == 1

    def test_requires_array(self):
        with pytest.raises(SemanticError):
            normalize_source(TEMPLATE % "[R] wrap s;")

    def test_rank_checked(self):
        source = TEMPLATE % "[1..n] wrap A;"
        with pytest.raises(SemanticError, match="rank"):
            normalize_source(source)

    def test_dynamic_region_rejected(self):
        source = TEMPLATE % (
            "for i := 1 to n do [i, 1..n] wrap A; end;"
        )
        with pytest.raises(NormalizationError, match="constant region"):
            normalize_source(source)

    def test_breaks_basic_blocks(self):
        program = normalize_source(
            TEMPLATE % "[R] A := 1.0;\n[R] wrap A;\n[R] B := A@(0,1);"
        )
        blocks = list(program.blocks())
        assert [len(block) for block in blocks] == [1, 1]

    def test_blocks_contraction_of_wrapped_array(self):
        program = normalize_source(
            TEMPLATE % "[R] A := 1.0;\n[R] wrap A;\n[R] B := A@(0,1);"
        )
        plan = plan_program(program, C2)
        assert "A" not in plan.contracted_arrays()


class TestSemantics:
    SOURCE = TEMPLATE % """
  [R] A := Index1 * 1.0 + Index2 * 0.25;
  for i := 1 to 2 do
    [R] wrap A;
    [R] B := (A@(-1,0) + A@(1,0)) * 0.5;
    [R] A := B;
  end;
  [R] reflect A;
  s := +<< [R] (A@(0,1) + A);
"""

    def test_all_levels_and_backends_agree(self):
        program = normalize_source(self.SOURCE)
        reference = run_reference(program)
        for level in ALL_LEVELS:
            scalar_program = scalarize(program, plan_program(program, level))
            result = run_scalarized(scalar_program)
            assert np.isclose(
                float(result.scalars["s"]), float(reference.scalars["s"])
            ), level.name
            _arrays, scalars = execute(scalar_program, "codegen_py")
            assert np.isclose(
                float(scalars["s"]), float(reference.scalars["s"])
            ), ("codegen", level.name)

    def test_wrap_differs_from_no_wrap(self):
        without = normalize_source(
            TEMPLATE
            % "[R] A := Index1 * 1.0;\n[R] B := A@(-1,0);\ns := +<< [R] B;"
        )
        with_wrap = normalize_source(
            TEMPLATE
            % "[R] A := Index1 * 1.0;\n[R] wrap A;\n[R] B := A@(-1,0);\ns := +<< [R] B;"
        )
        plain = run_reference(without).scalars["s"]
        wrapped = run_reference(with_wrap).scalars["s"]
        assert plain != wrapped  # halo zeros vs periodic copies

    def test_c_codegen_emits_copies(self):
        program = normalize_source(self.SOURCE)
        code = render_c(scalarize(program, plan_program(program, C2)))
        assert "/* wrap A */" in code
        assert "/* reflect A */" in code
