"""Tests for the application benchmarks: compilation, structure, semantics."""

import numpy as np
import pytest

from repro.benchsuite import ALL_BENCHMARKS, get_benchmark
from repro.fusion import ALL_LEVELS, C1, C2, plan_program
from repro.interp import run_reference, run_scalarized
from repro.scalarize import scalarize


@pytest.fixture(scope="module")
def compiled():
    """Test-size program + reference run per benchmark (computed once)."""
    result = {}
    for bench in ALL_BENCHMARKS:
        program = bench.test_program()
        result[bench.name] = (bench, program, run_reference(program))
    return result


class TestRegistry:
    def test_all_six_present(self):
        names = {bench.name for bench in ALL_BENCHMARKS}
        assert names == {"EP", "Frac", "Tomcatv", "SP", "Simple", "Fibro"}

    def test_lookup(self):
        assert get_benchmark("EP").name == "EP"
        with pytest.raises(KeyError):
            get_benchmark("LINPACK")


@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
class TestSemantics:
    def test_all_levels_match_reference(self, bench, compiled):
        _bench, program, reference = compiled[bench.name]
        for level in ALL_LEVELS:
            plan = plan_program(program, level)
            result = run_scalarized(scalarize(program, plan))
            for name in bench.check_scalars:
                assert np.isclose(
                    float(result.scalars[name]),
                    float(reference.scalars[name]),
                ), (bench.name, level.name, name)
            for name in bench.check_arrays:
                assert np.allclose(
                    result.arrays[name], reference.arrays[name]
                ), (bench.name, level.name, name)


class TestStructure:
    def test_ep_has_no_compiler_temps_and_contracts_fully(self, compiled):
        bench, program, _ref = compiled["EP"]
        assert len(program.compiler_arrays()) == 0
        assert len(program.user_arrays()) == 22
        plan = plan_program(program, C2)
        assert plan.live_arrays() == []

    def test_frac_keeps_only_the_image(self, compiled):
        bench, program, _ref = compiled["Frac"]
        plan = plan_program(program, C2)
        assert plan.live_arrays() == ["M"]

    def test_tomcatv_survivors_match_paper(self, compiled):
        bench, program, _ref = compiled["Tomcatv"]
        plan = plan_program(program, C2)
        assert sorted(plan.live_arrays()) == [
            "AA",
            "D",
            "DD",
            "RX",
            "RY",
            "X",
            "Y",
        ]

    def test_fibro_has_no_compiler_temps(self, compiled):
        bench, program, _ref = compiled["Fibro"]
        assert program.compiler_arrays() == []

    def test_sp_keeps_row_carried_arrays(self, compiled):
        bench, program, _ref = compiled["SP"]
        plan = plan_program(program, C2)
        live = set(plan.live_arrays())
        # The Section 5.2 deficiency: sweep state that a rank-aware scheme
        # could reduce to row buffers survives whole.
        for name in bench.module.ROW_CARRIED:
            assert name in live

    @pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
    def test_all_compiler_temps_eliminated(self, bench, compiled):
        _bench, program, _ref = compiled[bench.name]
        plan = plan_program(program, C1)
        contracted = plan.contracted_arrays()
        for info in program.compiler_arrays():
            assert info.name in contracted, (bench.name, info.name)

    @pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
    def test_contraction_at_least_halves_nothing_lost(self, bench, compiled):
        _bench, program, _ref = compiled[bench.name]
        plan = plan_program(program, C2)
        before = len(program.arrays)
        after = len(plan.live_arrays())
        assert after < before
        # More than half the arrays go away in every benchmark but SP.
        if bench.name != "SP":
            assert after <= before / 2


class TestPaperMetadata:
    @pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
    def test_paper_numbers_present(self, bench):
        assert bench.paper["static_before"] > 0
        assert bench.paper["static_after"] >= 0
        assert bench.paper["fig8_lb"] > bench.paper["fig8_la"] or bench.name == "EP"

    def test_default_sizes_square(self):
        for bench in ALL_BENCHMARKS:
            assert bench.default_config["n"] == bench.default_config["m"]


def test_the_six_top_level_plans_are_pinned():
    """The exact plan counts the compile benchmark reports for the six
    programs at ``c2+f4+cse`` (n = m = 16): a change that makes the
    pipeline cheaper must leave every plan as it was."""
    from repro.fusion import LEVELS_BY_NAME

    level = LEVELS_BY_NAME["c2+f4+cse"]
    clusters = contracted = hoisted = nests = 0
    for bench in ALL_BENCHMARKS:
        program = bench.program({"n": 16, "m": 16})
        plan = plan_program(program, level)
        clusters += sum(block.cluster_count for block in plan.block_plans.values())
        contracted += len(plan.contracted_arrays())
        hoisted += plan.cse_stats().terms_hoisted
        nests += len(scalarize(program, plan).loop_nests())
    assert (clusters, contracted, hoisted, nests) == (34, 96, 4, 34)
