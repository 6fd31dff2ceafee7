"""Tests for scalarization (Section 4.2) and the C code generator."""

import pytest

from repro.fusion import BASELINE, C2, plan_program
from repro.ir import normalize_source
from repro.scalarize import (
    ElemAssign,
    LoopNest,
    ScalarAssign,
    SeqLoop,
    compile_program,
    contraction_scalar,
    render_c,
    scalarize,
)
from repro.util.errors import ScalarizationError

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


def compiled(body, level=C2):
    program = normalize_source(TEMPLATE % body)
    return program, compile_program(program, level)


class TestLoopNests:
    def test_one_nest_per_cluster(self):
        program, sp = compiled("[R] A := B;\n[R] C := A@(0,1);", BASELINE)
        assert len(sp.loop_nests()) == 2

    def test_fused_cluster_single_nest(self):
        program, sp = compiled("[R] B := A;\n[R] C := B;")
        nests = sp.loop_nests()
        assert len(nests) == 1
        assert len(nests[0].body) == 2

    def test_loop_structure_reversal(self):
        from repro.fusion import C2F3

        program, sp = compiled("[R] B := C@(-1,0);\n[R] C := A;", C2F3)
        (nest,) = sp.loop_nests()
        assert nest.structure == (-1, 2)

    def test_nest_order_is_topological(self):
        program, sp = compiled(
            "[R] A := B@(0,1);\n[R] C := A@(0,1);", BASELINE
        )
        nests = sp.loop_nests()
        targets = [stmt.target for nest in nests for stmt in nest.body]
        assert targets.index("A") < targets.index("C")


class TestQueries:
    """``walk`` / ``reads`` / ``writes`` / ``arrays`` / ``scalar_reads``."""

    @staticmethod
    def reference_loop_nests(body):
        # The hand-written recursion ``loop_nests`` used before ``walk``.
        from repro.scalarize import SIf, SWhile

        result = []
        for node in body:
            if isinstance(node, LoopNest):
                result.append(node)
            elif isinstance(node, (SeqLoop, SWhile)):
                result.extend(TestQueries.reference_loop_nests(node.body))
            elif isinstance(node, SIf):
                result.extend(TestQueries.reference_loop_nests(node.then_body))
                result.extend(TestQueries.reference_loop_nests(node.else_body))
        return result

    def test_walk_order_matches_the_recursion_it_replaced(self):
        from repro.benchsuite import get_benchmark
        from repro.fusion import ALL_LEVELS
        from repro.scalarize import walk

        for name in ("SP", "Tomcatv"):
            program = get_benchmark(name).test_program()
            for level in ALL_LEVELS:
                sp = compile_program(program, level)
                expected = self.reference_loop_nests(sp.body)
                assert len(expected) > 1
                walked = [n for n in walk(sp.body) if isinstance(n, LoopNest)]
                assert [id(n) for n in walked] == [id(n) for n in expected]
                assert [id(n) for n in sp.loop_nests()] == [
                    id(n) for n in expected
                ]

    def test_walk_yields_parents_before_children_and_then_before_else(self):
        from repro.scalarize import SIf, walk

        body = (
            "for i := 1 to 2 do\n"
            "  if i > 1 then [R] A := B; else [R] C := B; s := 1.0; end;\n"
            "end;\ns := 2.0;"
        )
        program, sp = compiled(body, BASELINE)
        kinds = [type(node).__name__ for node in walk(sp.body)]
        assert kinds == [
            "SeqLoop", "SIf", "LoopNest", "LoopNest", "ScalarAssign",
            "ScalarAssign",
        ]
        nests = sp.loop_nests()
        assert [nest.writes() for nest in nests] == [["A"], ["C"]]
        assert isinstance(sp.body[0].body[0], SIf)

    def test_reads_writes_scalar_reads(self):
        program, sp = compiled(
            "s := 2.0;\n[R] B := A@(0,1) * s + A;\n[R] C := B + B@(1,0);",
            BASELINE,
        )
        nests = sp.loop_nests()
        assert [(r.name, r.offset) for r in nests[0].reads()] == [
            ("A", (0, 1)), ("A", (0, 0)),
        ]
        assert nests[0].writes() == ["B"]
        assert nests[0].arrays() == {"A", "B"}
        assert nests[0].scalar_reads() == {"s"}
        assert nests[1].scalar_reads() == set()
        program, sp = compiled("[R] B := A;\ns := +<< [R] B;")
        (nest,) = sp.loop_nests()
        assert nest.writes() == []  # B contracted, s is a fold target
        assert [r.name for r in nest.reads()] == ["A"]


class TestContractionRewrite:
    def test_contracted_target_becomes_scalar(self):
        # Keep C live by reading it in a later basic block.
        program, sp = compiled(
            "[R] B := A;\n[R] C := B;\ns := 1.0;\ns := s + (+<< [R] C);"
        )
        nest = sp.loop_nests()[0]
        first, second = nest.body
        assert first.is_contracted
        assert first.scalar_target == contraction_scalar("B")
        assert not second.is_contracted
        assert second.target == "C"

    def test_contracted_array_unallocated(self):
        program, sp = compiled("[R] B := A;\n[R] C := B;")
        assert "B" not in sp.array_allocs
        assert contraction_scalar("B") in sp.scalars

    def test_offset_read_of_contracted_rejected(self):
        # Construct an invalid plan by hand: contract an array that is
        # read at a non-zero offset.
        from repro.fusion import BlockPlan

        program = normalize_source(TEMPLATE % "[R] B := A;\n[R] C := B@(0,1);")
        plan = plan_program(program, BASELINE)
        old_plan = next(iter(plan.block_plans.values()))
        old_plan.partition.merge(set(old_plan.partition.cluster_ids()))
        plan.add(
            BlockPlan(old_plan.block, old_plan.partition, {"B"})
        )
        with pytest.raises(ScalarizationError, match="non-zero offset"):
            scalarize(program, plan)


class TestReductions:
    def test_bare_reduction_fuses_into_nest(self):
        program, sp = compiled("[R] B := A * A;\ns := +<< [R] B;")
        (nest,) = sp.loop_nests()
        reduce_stmt = nest.body[-1]
        assert reduce_stmt.reduce_op == "+"
        assert reduce_stmt.scalar_target == "s"
        # Initialization precedes the nest.
        init = sp.body[sp.body.index(nest) - 1]
        assert isinstance(init, ScalarAssign)
        assert init.target == "s"

    def test_reduction_enables_operand_contraction(self):
        program, sp = compiled("[R] B := A * A;\ns := +<< [R] B;")
        assert "B" not in sp.array_allocs

    def test_unfused_reduction_stays_loop(self):
        program, sp = compiled("[R] B := A * A;\ns := +<< [R] B;", BASELINE)
        kinds = [type(node).__name__ for node in sp.body]
        assert "LoopNest" in kinds

    def test_min_max_initialization(self):
        program, sp = compiled("s := max<< [R] A;", BASELINE)
        init = next(n for n in sp.body if isinstance(n, ScalarAssign))
        assert init.rhs.value == float("-inf")


class TestControlFlow:
    def test_seq_loop_preserved(self):
        program, sp = compiled(
            "for i := 2 to n do [i, 1..n] A := B; end;", BASELINE
        )
        (loop,) = [n for n in sp.body if isinstance(n, SeqLoop)]
        assert loop.var == "i"
        assert isinstance(loop.body[0], LoopNest)


class TestCCodegen:
    def test_declarations(self):
        program, sp = compiled("[R] A := B@(-1,0);", BASELINE)
        code = render_c(sp)
        assert "static double A[6][6];" in code
        assert "static double B[8][6];" in code  # halo of 1 on dim 1

    def test_loop_headers(self):
        program, sp = compiled("[R] A := B;", BASELINE)
        code = render_c(sp)
        assert "for (_i1 = 1; _i1 <= 6; _i1++) {" in code
        assert "for (_i2 = 1; _i2 <= 6; _i2++) {" in code

    def test_reversed_loop(self):
        from repro.fusion import C2F3

        program, sp = compiled("[R] B := C@(-1,0);\n[R] C := A;", C2F3)
        code = render_c(sp)
        assert "for (_i1 = 6; _i1 >= 1; _i1--) {" in code

    def test_contraction_scalar_in_code(self):
        program, sp = compiled("[R] B := A;\n[R] C := B;")
        code = render_c(sp)
        assert "B__s = " in code
        assert "static double B__s;" in code

    def test_offset_indexing(self):
        program, sp = compiled("[R] A := B@(-1,2);", BASELINE)
        code = render_c(sp)
        assert "B[_i1 - 1][_i2" in code.replace("  ", " ")

    def test_reduction_code(self):
        program, sp = compiled("s := +<< [R] A;", BASELINE)
        code = render_c(sp)
        assert "s = 0.0;" in code
        assert "s += " in code

    def test_intrinsics(self):
        program, sp = compiled("[R] A := sqrt(B) + min(B, 2.0);", BASELINE)
        code = render_c(sp)
        assert "sqrt(" in code
        assert "?" in code  # min expands to a conditional

    def test_power_uses_pow(self):
        program, sp = compiled("[R] A := B ^ 2.0;", BASELINE)
        assert "pow(" in render_c(sp)

    def test_dynamic_region_bounds(self):
        program, sp = compiled(
            "for i := 2 to n do [i, 1..n] A := B; end;", BASELINE
        )
        code = render_c(sp)
        assert "for (_i1 = i; _i1 <= i; _i1++) {" in code
