"""Measured-vs-modeled validation for the ``mp-shard`` backend.

The §5.5 communication model (:mod:`repro.parallel.comm` /
:mod:`repro.parallel.commopt`) predicts halo traffic analytically;
``repro.exec.mp_shard`` executes those predictions through shared
memory.  This module closes the loop: it runs a program both ways and
asserts, event for event, that what moved over the wire is exactly what
the model priced.

The contract checked per executed exchange:

* ``measured == planned`` — every worker-side segment write was
  accounted, and nothing moved outside the schedule;
* ``planned == model + corner`` — wire bytes decompose into the
  analytic strip price plus the corner widening diagonal stencils need
  (``corner`` is the part :func:`repro.parallel.comm.analyze_run`
  deliberately does not price);
* ``model == event_bytes × pairs`` — the strip price per processor
  pair is :func:`analyze_run`'s own ``CommEvent.bytes``, multiplied by
  the number of chunk boundaries the event actually crosses.  The one
  permitted slack is ``model < event_bytes × pairs`` when the consuming
  region is *narrower along the exchanged dimension than the event
  width* (a ``width``-2 read inside a single-row sequential sweep):
  ``analyze_run`` prices ``width`` full rows regardless, while the wire
  moves only the rows the nest can read.  The planner never moves
  *more* than the model prices, so ``>`` is always an error.

On top of that, sharded outputs must be *bit-identical* to the
single-process ``codegen_np`` oracle — arrays and scalars both.

``exchange_table`` renders the comparison as the markdown table used by
``docs/PARALLEL.md`` and ``benchmarks/bench_mp_shard.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.parallel.commopt import CommOptions
from repro.util.errors import ReproError


class ValidationError(ReproError):
    """A measured quantity disagreed with the model's prediction."""


class ValidationRow:
    """One validated configuration, ready for table rendering."""

    __slots__ = (
        "name", "level", "procs", "exchanges", "eliminated", "combined",
        "model_bytes", "corner_bytes", "measured_bytes", "fallbacks",
        "identical",
    )

    def __init__(self, name: str, level: str, procs: int, report,
                 identical: bool) -> None:
        self.name = name
        self.level = level
        self.procs = procs
        self.exchanges = report.exchanges
        self.eliminated = report.counters.get("comm.eliminated", 0)
        self.combined = report.counters.get("comm.combined", 0)
        self.model_bytes = report.model_bytes
        self.corner_bytes = sum(r.corner_bytes for r in report.records)
        self.measured_bytes = report.measured_bytes
        self.fallbacks = report.counters.get("comm.fallback_nests", 0)
        self.identical = identical


def check_report(report) -> None:
    """Assert the event-for-event measured-vs-modeled contract."""
    for record in report.records:
        if record.measured_bytes != record.planned_bytes:
            raise ValidationError(
                "exchange #%d moved %dB but the schedule planned %dB"
                % (record.ordinal, record.measured_bytes,
                   record.planned_bytes)
            )
        if record.planned_bytes != record.model_bytes + record.corner_bytes:
            raise ValidationError(
                "exchange #%d: planned %dB != model %dB + corner %dB"
                % (record.ordinal, record.planned_bytes,
                   record.model_bytes, record.corner_bytes)
            )
        for event in record.events:
            expect = event.event_bytes * event.pairs
            if event.model_bytes > expect:
                raise ValidationError(
                    "exchange #%d %s: model %dB exceeds analyze_run %dB x "
                    "%d pairs" % (record.ordinal, event.array,
                                  event.model_bytes, event.event_bytes,
                                  event.pairs)
                )
            if event.model_bytes < expect and not event.clipped:
                raise ValidationError(
                    "exchange #%d %s: model %dB < analyze_run %dB x %d "
                    "pairs without a clipped strip"
                    % (record.ordinal, event.array, event.model_bytes,
                       event.event_bytes, event.pairs)
                )


def assert_identical(result, oracle) -> None:
    """Bit-identity of a sharded result against the oracle's."""
    if set(result.arrays) != set(oracle.arrays):
        raise ValidationError(
            "array sets differ: %r vs %r"
            % (sorted(result.arrays), sorted(oracle.arrays))
        )
    for name in sorted(oracle.arrays):
        if not np.array_equal(result.arrays[name], oracle.arrays[name]):
            raise ValidationError("array %r is not bit-identical" % name)
    if result.scalars != oracle.scalars:
        raise ValidationError(
            "scalars differ: %r vs %r" % (result.scalars, oracle.scalars)
        )


def validate_program(
    program,
    procs: int,
    name: str = "?",
    level: str = "?",
    local_backend: str = "codegen_np",
    comm_options: Optional[CommOptions] = None,
) -> ValidationRow:
    """Run ``program`` sharded, check the full contract, return the row."""
    from repro.exec.backends import execute
    from repro.exec.mp_shard import execute_sharded

    oracle = execute(program, "codegen_np")
    result, report = execute_sharded(
        program, procs=procs, local_backend=local_backend,
        comm_options=comm_options,
    )
    assert_identical(result, oracle)
    check_report(report)
    return ValidationRow(name, level, procs, report, True)


def validate_benchsuite(
    level_names: Optional[Sequence[str]] = None,
    procs_list: Sequence[int] = (1, 2, 4, 6),
    bench_names: Optional[Sequence[str]] = None,
    local_backend: str = "codegen_np",
) -> List[ValidationRow]:
    """Validate benchsuite programs across levels and worker counts."""
    from repro.benchsuite import ALL_BENCHMARKS, get_benchmark
    from repro.fusion import ALL_LEVELS
    from repro.scalarize.scalarizer import compile_program

    levels = {str(level): level for level in ALL_LEVELS}
    if level_names is None:
        level_names = sorted(levels)
    if bench_names is None:
        bench_names = sorted(b.name for b in ALL_BENCHMARKS)
    rows: List[ValidationRow] = []
    for bench in bench_names:
        program = get_benchmark(bench).test_program()
        for level_name in level_names:
            scalar = compile_program(program, levels[level_name])
            for procs in procs_list:
                rows.append(
                    validate_program(
                        scalar, procs, name=bench, level=level_name,
                        local_backend=local_backend,
                    )
                )
    return rows


def exchange_table(rows: Sequence[ValidationRow]) -> str:
    """Render validation rows as a GitHub-flavored markdown table."""
    header = (
        "| benchmark | level | procs | exchanges | elim | comb |"
        " model B | corner B | measured B | fallbacks | identical |\n"
        "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---|\n"
    )
    lines = [
        "| %s | %s | %d | %d | %d | %d | %d | %d | %d | %d | %s |"
        % (row.name, row.level, row.procs, row.exchanges, row.eliminated,
           row.combined, row.model_bytes, row.corner_bytes,
           row.measured_bytes, row.fallbacks,
           "yes" if row.identical else "NO")
        for row in rows
    ]
    return header + "\n".join(lines) + "\n"
