"""The mp-shard backend: measured-vs-modeled halo traffic.

Runs the benchsuite sharded over 1/2/4/6 rank processes at three
optimization levels, asserting the full validation contract (bit
identity against the single-process ``codegen_np`` oracle, measured
halo bytes equal to the §5.5 model event-for-event) and reporting the
predicted-vs-measured exchange table — the artifact ``docs/PARALLEL.md``
points at, exact at every scale.  It times nothing: how long a sharded
call takes is the ``shard_halo`` workload of ``benchmarks/e2e`` (this
loop switches worker counts every call, so a clock here would mostly
time the rank pool being re-forked).
"""

from repro.benchsuite import ALL_BENCHMARKS
from repro.fusion import ALL_LEVELS
from repro.parallel.validate import exchange_table, validate_program
from repro.scalarize.scalarizer import compile_program

LEVEL_NAMES = ["Level(baseline)", "Level(c2)", "Level(c2+f4+cse)"]
PROCS = [1, 2, 4, 6]


def test_mp_shard_scaling(save_result):
    levels = {str(level): level for level in ALL_LEVELS}
    rows = []
    for bench in ALL_BENCHMARKS:
        program = bench.test_program()
        for level_name in LEVEL_NAMES:
            scalar = compile_program(program, levels[level_name])
            for procs in PROCS:
                rows.append(
                    validate_program(
                        scalar, procs, name=bench.name, level=level_name
                    )
                )
    assert all(row.identical for row in rows)
    total_measured = sum(row.measured_bytes for row in rows)
    total_model = sum(row.model_bytes + row.corner_bytes for row in rows)
    assert total_measured == total_model

    lines = [
        "mp-shard: measured vs modeled halo traffic (benchsuite)",
        "%d configurations; every row bit-identical to codegen_np and"
        % len(rows),
        "measured == model + corner event-for-event.",
        "",
        exchange_table(rows).rstrip(),
        "",
        "total measured = total modeled = %d bytes" % total_measured,
    ]
    save_result("mp_shard", "\n".join(lines))
