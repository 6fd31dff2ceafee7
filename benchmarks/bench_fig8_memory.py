"""Figure 8: effect of contraction on the maximum achievable problem size.

Regenerates the table: the analytic scaling metric C = 100*(l_b/l_a - 1)
and the experimentally determined largest problem fitting a fixed memory
budget, with and without contraction.  Asserts the paper's central claim
that C accurately predicts the measured volume change, and that EP becomes
unbounded (constant memory).

Next to it, a measured column: the ``tracemalloc`` peak of one
``codegen_np`` run of each program at n = m = 256 — storage the run
allocates plus every temporary its kernel creates — at three levels.
Only contraction not raising it is asserted; the numbers are reported.
"""

import tracemalloc

import pytest

from repro.benchsuite import ALL_BENCHMARKS
from repro.eval import figure8_rows, render_figure8
from repro.exec import get_backend
from repro.fusion import BASELINE, C2, LEVELS_BY_NAME, plan_program
from repro.scalarize import scalarize
from repro.util.tables import render_table

BUDGET = 4 * 1024 * 1024
MEASURED_SIZE = 256
MEASURED_LEVELS = (BASELINE, C2, LEVELS_BY_NAME["c2+f4+cse"])


def run_peak_bytes(bench, level, size=MEASURED_SIZE):
    """The ``tracemalloc`` peak of one warm ``codegen_np`` run."""
    program = bench.program({"n": size, "m": size})
    run = get_backend("codegen_np").load(
        scalarize(program, plan_program(program, level))
    )
    run(None, None)  # first-call costs stay out of the measurement
    tracemalloc.start()
    try:
        run(None, None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fig8_memory_scaling(benchmark, save_result):
    rows = benchmark.pedantic(
        figure8_rows, kwargs={"budget_bytes": BUDGET}, rounds=1, iterations=1
    )
    by_name = {row.name: row for row in rows}
    assert by_name["EP"].unbounded
    for row in rows:
        if row.unbounded or row.c_percent is None:
            continue
        assert row.volume_change_percent == pytest.approx(
            row.c_percent, rel=0.2
        ), row.name
        assert row.size_after > row.size_before
    measured = []
    for bench in ALL_BENCHMARKS:
        peaks = [run_peak_bytes(bench, level) for level in MEASURED_LEVELS]
        assert peaks[1] <= peaks[0], bench.name
        measured.append(
            [bench.name]
            + ["%.1f" % (peak / 2**20) for peak in peaks]
            + ["%.1f" % (100.0 * (peaks[1] / peaks[0] - 1))]
        )
    table = render_table(
        ["application"]
        + [level.name for level in MEASURED_LEVELS]
        + ["c2 vs baseline (%)"],
        measured,
        title="Measured: tracemalloc peak of one codegen_np run at "
        "n = m = %d (MiB)" % MEASURED_SIZE,
    )
    save_result("fig8_memory", "%s\n\n%s" % (render_figure8(rows), table))
