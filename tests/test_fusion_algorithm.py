"""Tests for FUSION-FOR-CONTRACTION (Figure 3), GROW, locality fusion,
pairwise fusion and reference weights."""

import pytest

from repro.deps import build_asdg
from repro.fusion import (
    FusionPartition,
    fuse_all_legal,
    fusion_for_contraction,
    fusion_for_locality,
    grow,
    grown,
    reference_weight,
    weights_by_decreasing,
)
from repro.fusion.contract import eligible_candidates, is_contractible
from repro.ir import normalize_source

TEMPLATE = """
program p;
config n : integer = 6;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var A, B, C, D, E, T1, T2 : [R] float;
var s : float;
begin
%s
end;
"""


def setup(body):
    program = normalize_source(TEMPLATE % body)
    block = next(iter(program.blocks()))
    partition = FusionPartition(build_asdg(block))
    return program, block, partition


class TestWeights:
    def test_reference_weight_counts_refs_times_size(self):
        program, block, partition = setup("[R] B := A;\n[R] C := B + B;")
        env = program.config_env()
        # B: 1 write + 2 reads, each over 36 elements.
        assert reference_weight("B", partition.graph, env) == 3 * 36
        assert reference_weight("A", partition.graph, env) == 36

    def test_weight_respects_region_sizes(self):
        program, block, partition = setup("[I] B := A;\n[R] C := A;")
        env = program.config_env()
        assert reference_weight("B", partition.graph, env) == 16
        assert reference_weight("C", partition.graph, env) == 36

    def test_ordering_by_decreasing_weight(self):
        program, block, partition = setup(
            "[R] B := A;\n[R] C := B + B;\n[R] D := C;"
        )
        env = program.config_env()
        order = weights_by_decreasing(["C", "B", "D"], partition.graph, env)
        assert order[0] == "B"  # 3 refs beats C's 2 and D's 1

    def test_tie_broken_by_first_use(self):
        program, block, partition = setup("[R] B := A;\n[R] C := A;")
        env = program.config_env()
        assert weights_by_decreasing(["C", "B"], partition.graph, env) == ["B", "C"]


class TestGrow:
    def test_grow_absorbs_intermediary(self):
        program, block, partition = setup(
            "[R] B := A;\n[I] C := B;\n[R] D := C + B;"
        )
        # Fusing the clusters of statements 1 and 3 must absorb statement 2.
        absorbed = grow({0, 2}, partition)
        assert absorbed == {1}
        assert grown({0, 2}, partition) == {0, 1, 2}

    def test_grow_ignores_unrelated(self):
        program, block, partition = setup(
            "[R] B := A;\n[R] C := A;\n[R] D := B;"
        )
        assert grow({0, 2}, partition) == set()


class TestContractible:
    def test_contractible_when_confined_and_null(self):
        program, block, partition = setup("[R] B := A;\n[R] C := B;")
        assert is_contractible("B", {0, 1}, partition)

    def test_not_contractible_across_clusters(self):
        program, block, partition = setup("[R] B := A;\n[R] C := B;")
        assert not is_contractible("B", {0}, partition)

    def test_not_contractible_with_offset_use(self):
        program, block, partition = setup("[R] B := A;\n[R] C := B@(0,1);")
        assert not is_contractible("B", {0, 1}, partition)

    def test_read_only_array_needs_all_readers(self):
        program, block, partition = setup("[R] B := A;\n[R] C := A;")
        # A read by two clusters: not contractible in a single one.
        assert not is_contractible("A", {0}, partition)
        assert is_contractible("A", {0, 1}, partition)


class TestEligibility:
    def test_compiler_temps_only(self):
        program, block, partition = setup(
            "[R] A := A@(0,1);\n[R] B := A;\n[R] C := B;"
        )
        names = eligible_candidates(program, block, include_user_arrays=False)
        assert names == ["_T1"]

    def test_user_arrays_included(self):
        program, block, partition = setup("[R] B := A;\n[R] C := B;")
        names = eligible_candidates(program, block, include_user_arrays=True)
        assert "B" in names
        # A is read before (never) being defined in the block: ineligible.
        assert "A" not in names
        # C is dead and defined here: eligible.
        assert "C" in names

    def test_row_offset_read_not_coverable(self):
        """Regression: a row-sweep temp read at a row offset references the
        previous loop iteration's value and must NOT contract to a scalar,
        even though its rows are disjoint within one block instance."""
        source = """
program hole;
config n : integer = 6;
region R = [1..n, 1..n];
var A, W, Z : [R] float;
var i : integer;
begin
  for i := 2 to n do
    [i, 1..n] W := A * 2.0;
    [i, 1..n] Z := W@(-1,0) + A;
  end;
end;
"""
        program = normalize_source(source)
        block = next(iter(program.blocks()))
        names = eligible_candidates(program, block, include_user_arrays=True)
        assert "W" not in names
        assert "Z" in names  # written and read nowhere: still fine

    def test_reads_covered_by_defs_direct(self):
        from repro.fusion.contract import reads_covered_by_defs

        source = """
program cover;
config n : integer = 6;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var A, W : [R] float;
begin
  [R] W := A * 2.0;
  [I] A := W;
end;
"""
        program = normalize_source(source)
        block = next(iter(program.blocks()))
        # W defined over R, read over I at zero offset: covered.
        assert reads_covered_by_defs("W", block)

    def test_reduction_read_escapes_block(self):
        program = normalize_source(
            TEMPLATE % "[R] B := A;\ns := 1.0;\ns := s + (+<< [R] B);"
        )
        block = next(iter(program.blocks()))
        names = eligible_candidates(program, block, include_user_arrays=True)
        assert "B" not in names


class TestFusionForContraction:
    def test_figure1_fragment(self):
        """The tridiagonal fragment: R contracts, D/RX/RY stay."""
        source = """
program frag;
config n : integer = 6;
config m : integer = 6;
region G = [1..n, 1..m];
var R, D, DD, AA, RX, RY : [G] float;
var i : integer;
begin
  for i := 2 to n do
    [i, 1..m] R := AA * D@(-1,0);
    [i, 1..m] D := 1.0 / (DD - AA@(-1,0) * R);
    [i, 1..m] RX := RX - RX@(-1,0) * R;
    [i, 1..m] RY := RY - RY@(-1,0) * R;
  end;
end;
"""
        program = normalize_source(source)
        block = next(iter(program.blocks()))
        partition = FusionPartition(build_asdg(block))
        candidates = eligible_candidates(program, block, True)
        contracted = fusion_for_contraction(
            partition, candidates, program.config_env()
        )
        assert "R" in contracted
        assert "D" not in contracted

    def test_weight_order_resolves_tradeoff(self):
        """Fragment-8 style: two user temps beat one compiler temp."""
        body = """
  [R] T1 := A@(-1,0);
  [R] T2 := A@(-1,0) * B;
  [R] A := T1 + T2;
  [R] D := D@(1,0) + T1 + T2;
"""
        program, block, partition = setup(body)
        candidates = eligible_candidates(program, block, True)
        contracted = fusion_for_contraction(
            partition, candidates, program.config_env()
        )
        assert "T1" in contracted
        assert "T2" in contracted
        assert "_T1" not in contracted  # the compiler temp is sacrificed

    def test_merge_filter_vetoes(self):
        program, block, partition = setup("[R] B := A;\n[R] C := B;")
        contracted = fusion_for_contraction(
            partition,
            ["B"],
            program.config_env(),
            merge_filter=lambda ids, part: False,
        )
        assert contracted == []
        assert partition.cluster_count() == 2

    def test_partition_stays_valid(self):
        body = "[R] B := A;\n[R] C := B + A;\n[R] D := C + B;"
        program, block, partition = setup(body)
        fusion_for_contraction(
            partition,
            eligible_candidates(program, block, True),
            program.config_env(),
        )
        assert partition.is_valid()


class TestLocalityAndPairwise:
    def test_locality_fuses_shared_reads(self):
        program, block, partition = setup("[R] B := A;\n[R] C := A;")
        improved = fusion_for_locality(partition, program.config_env())
        assert "A" in improved
        assert partition.cluster_count() == 1

    def test_locality_respects_legality(self):
        program, block, partition = setup("[R] B := A;\n[R] C := B@(0,1);")
        fusion_for_locality(partition, program.config_env())
        # Non-null flow dependence: the statements must stay apart.
        assert partition.cluster_count() == 2

    def test_fuse_all_legal(self):
        program, block, partition = setup(
            "[R] B := A;\n[R] C := D;\n[R] E := D@(0,1);"
        )
        merges = fuse_all_legal(partition)
        assert merges >= 1
        assert partition.is_valid()

    def test_fuse_all_legal_reaches_fixpoint(self):
        program, block, partition = setup("[R] B := A;\n[R] C := A;\n[R] D := A;")
        fuse_all_legal(partition)
        assert partition.cluster_count() == 1
        assert fuse_all_legal(partition) == 0


# -- a region whose extent depends on an enclosing loop variable ---------------

TRIANGLE = """
program tri;
config n : integer = 8;
region R = [1..n, 1..n];
region H = [0..n+1, 0..n+1];
var A, B : [H] float;
var s : float;
var j, m : integer;
begin
  [R] A := Index1 + Index2;
  m := n;
  for j := %s do
    [2..j, j] B := A@(-1,0) * 2.0;
  end;
  s := +<< [R] B;
end;
"""

#: loop header -> where the weight's stand-in for ``j`` comes from
TRIANGLE_LOOPS = {
    "ascending": "2 to n",  # the loop's static bounds
    "descending": "n downto 2",
    "run-time bound": "2 to m",  # the allocation's extent
}


class TestLoopDependentExtent:
    """``[2..j, j]`` has no size at plan time.  The reference weight is
    only an ordering key, but evaluating it raised ``cannot evaluate
    j - 1: 'j' is unbound`` at the five levels that order arrays for
    locality fusion (f3, c2+f3, c2+f4 and their +cse twins)."""

    @pytest.mark.parametrize("loop", sorted(TRIANGLE_LOOPS))
    def test_every_level_and_backend_agrees_with_baseline(self, loop):
        from repro.exec import execute, native
        from repro.fusion import ALL_LEVELS, LEVELS_BY_NAME
        from repro.scalarize import compile_program

        program = normalize_source(TRIANGLE % TRIANGLE_LOOPS[loop])
        backends = ["interp", "codegen_py", "codegen_np"]
        if native.cc_available():
            backends.append("c")
        expected = execute(
            compile_program(program, LEVELS_BY_NAME["baseline"]), "interp"
        )
        assert expected.scalars["s"] == 504.0
        for level in ALL_LEVELS:
            compiled = compile_program(program, level)
            for backend in backends:
                result = execute(compiled, backend)
                assert result.scalars["s"] == expected.scalars["s"], (
                    level, backend
                )
                assert (result.arrays["B"] == expected.arrays["B"]).all(), (
                    level, backend
                )

    def test_stand_ins_leave_cancelling_extents_alone(self):
        from repro.fusion.weights import weight_env

        program = normalize_source(TRIANGLE % "2 to n")
        blocks = list(program.blocks())
        inside = next(b for b in blocks if "j" in b[0].region.free_variables())
        assert weight_env(program, inside)["j"] == 8  # the loop's top
        assert reference_weight(
            "B", build_asdg(inside), weight_env(program, inside)
        ) == 7  # [2..8, 8]
        runtime = normalize_source(TRIANGLE % "2 to m")
        inside = next(
            b for b in runtime.blocks() if "j" in b[0].region.free_variables()
        )
        assert weight_env(runtime, inside)["j"] == 9  # H's upper bound
        # [i, 1..m] is one row whatever i is: no stand-in, same env
        rows = normalize_source(
            (TEMPLATE % "for i := 1 to n do\n[i, 1..n] B := A;\nend;")
            .replace("var s : float;", "var s : float;\nvar i : integer;")
        )
        block = next(iter(rows.blocks()))
        assert weight_env(rows, block) == rows.config_env()
