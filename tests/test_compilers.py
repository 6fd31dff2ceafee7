"""Tests for the Figure 5 fragments and Figure 6 compiler personalities."""

from repro.compilers import (
    ALL_PERSONALITIES,
    APR_XHPF,
    CRAY_F90,
    EXPECTED,
    FRAGMENTS,
    IBM_XLHPF,
    PGI_HPF,
    ZPL_113,
    evaluate_personality,
    figure6_results,
    render_figure6,
)


class TestFragments:
    def test_eight_fragments(self):
        assert [f.number for f in FRAGMENTS] == list(range(1, 9))

    def test_sources_compile_under_every_personality(self):
        for personality in ALL_PERSONALITIES:
            for fragment in FRAGMENTS:
                program = personality.normalize(fragment.source)
                assert program.array_statements()

    def test_fragment_semantics_identical_across_policies(self):
        """Self-temp elision must not change what fragments compute."""
        import numpy as np

        from repro.interp import run_reference

        for fragment in FRAGMENTS:
            results = []
            for personality in (ZPL_113, CRAY_F90, PGI_HPF):
                program = personality.normalize(fragment.source)
                snapshot = run_reference(program).snapshot()
                arrays = {
                    info.name: snapshot[info.name]
                    for info in program.user_arrays()
                }
                results.append(arrays)
            for other in results[1:]:
                for name, array in results[0].items():
                    assert np.allclose(array, other[name]), (
                        fragment.number,
                        name,
                    )


class TestPersonalities:
    def test_zpl_passes_everything(self):
        assert evaluate_personality(ZPL_113) == EXPECTED["ZPL 1.13"]

    def test_cray_fails_carried_anti(self):
        outcome = evaluate_personality(CRAY_F90)
        assert outcome == EXPECTED["Cray F90 2.0.1.0"]
        assert outcome[2] is False  # fragment (3)
        assert outcome[6] is False  # fragment (7)

    def test_apr(self):
        assert evaluate_personality(APR_XHPF) == EXPECTED["APR XHPF 2.0"]

    def test_no_fusion_compilers(self):
        assert evaluate_personality(PGI_HPF) == EXPECTED["PGI HPF 2.1"]
        assert evaluate_personality(IBM_XLHPF) == EXPECTED["IBM XLHPF 1.2"]

    def test_tradeoff_details(self):
        """Fragment 8: ZPL contracts both user temps; Cray neither."""
        fragment = FRAGMENTS[7]
        zpl = ZPL_113.run_fragment(fragment)
        assert {"T1", "T2"} <= zpl.contracted
        cray = CRAY_F90.run_fragment(fragment)
        assert "T1" not in cray.contracted
        assert "T2" not in cray.contracted

    def test_zpl_inserts_temps_always(self):
        fragment = FRAGMENTS[4]  # A := A@(-1,0) + A@(-1,0)
        program = ZPL_113.normalize(fragment.source)
        assert len(program.compiler_arrays()) == 1
        program_cray = CRAY_F90.normalize(fragment.source)
        assert len(program_cray.compiler_arrays()) == 0


class TestFigure6:
    def test_all_rows_match_paper(self):
        for label, outcome in figure6_results().items():
            assert outcome == EXPECTED[label], label

    def test_render_contains_all_compilers(self):
        text = render_figure6()
        for personality in ALL_PERSONALITIES:
            assert personality.label in text
        assert "NO" not in text.replace("NO", "NO") or "yes" in text
        assert text.count("yes") == 5
