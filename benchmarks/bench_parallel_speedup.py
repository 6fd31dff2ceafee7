"""Tile-parallel speedup: fused clusters, tile-at-a-time vs whole-region.

The ``np`` back end executes a fused cluster one *statement* at a time,
streaming every whole-region operand (and a same-size temporary per
contracted statement) through the cache hierarchy once per statement.
The ``np-par`` back end executes the same cluster one *tile* at a time:
all statements run over a block of rows sized to stay cache-resident, so
each contracted intermediate lives and dies without ever touching DRAM.
On long fused pipelines that traffic asymmetry — O(statements) full-array
passes versus O(1) — is the whole ballgame, and it is exactly the
benefit the paper's Section 6 attributes to contraction, recreated here
at the tile rather than the scalar level.

Three pipelines, all fully fused and contracted at ``c2+f4``:

* ``chain``    — an 8-statement linear recurrence-free chain;
* ``blend``    — a 6-statement DAG whose intermediates have fan-out;
* ``interior`` — a 6-statement pipeline over an interior region.

Times ``np`` against ``np-par`` (4 workers, 32-row tiles — the tile's
working set sits inside the 2 MB L2 on the reference box) and asserts at
least two of the three pipelines speed up by >= 2x.  Timing is best-of
across several interleaved rounds so a noisy co-tenant burst cannot sink
one back end's whole measurement.  Saves the table to
``results/parallel_speedup.txt``.
"""

import time

import numpy as np

from repro.exec import execute
from repro.fusion import C2F4, plan_program
from repro.ir import normalize_source
from repro.parallel.engine import TileEngine
from repro.scalarize import scalarize

N = 1600
WORKERS = 4
TILE_ROWS = 32
ROUNDS = 4
REPS = 3

#: At least MIN_WINNERS of the pipelines must reach TARGET_SPEEDUP.
TARGET_SPEEDUP = 2.0
MIN_WINNERS = 2

CASES = [
    (
        "chain (8 stmts)",
        """
program chain;
config n : integer = %d;
region R = [1..n, 1..n];
var A, B, C, D, E, F, G, H : [R] float;
begin
  [R] A := Index1 * 0.5 + Index2 * 0.25;
  [R] B := A * 0.5 + 1.0;
  [R] C := B * 0.75 - A;
  [R] D := C * C + B;
  [R] E := D * 0.25 + C;
  [R] F := E * E - D;
  [R] G := F * 0.5 + E;
  [R] H := G * F + A;
end;
"""
        % N,
    ),
    (
        "blend (6 stmts)",
        """
program blend;
config n : integer = %d;
region R = [1..n, 1..n];
var U, V, W, P, Q, T : [R] float;
begin
  [R] U := Index1 * 0.125 + Index2;
  [R] V := Index2 * 0.5 - Index1 * 0.25;
  [R] W := U * V + 0.5;
  [R] P := W * 0.75 + U;
  [R] Q := P * W - V;
  [R] T := Q * 0.5 + P * 0.25 + W * 0.125;
end;
"""
        % N,
    ),
    (
        "interior (6 stmts)",
        """
program interior;
config n : integer = %d;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var A, B, C, D, E, F : [R] float;
begin
  [R] A := Index1 + Index2 * 0.5;
  [I] B := A * 0.25 + 1.0;
  [I] C := B * B - A;
  [I] D := C + B * 0.5;
  [I] E := D * C - B;
  [I] F := E * 0.5 + D;
end;
"""
        % N,
    ),
]


def _compile(source):
    program = normalize_source(source)
    return scalarize(program, plan_program(program, C2F4))


def _assert_identical(scalar_program, engine, label):
    np_arrays, np_scalars = execute(scalar_program, "codegen_np")
    par_arrays, par_scalars = execute(scalar_program, "np-par", engine=engine)
    for name in np_arrays:
        assert par_arrays[name].dtype == np_arrays[name].dtype, label
        assert np.array_equal(
            par_arrays[name], np_arrays[name], equal_nan=True
        ), "%s: %s diverged under tiling" % (label, name)
    assert par_scalars == np_scalars, label


def test_tile_parallel_speedup(save_result):
    lines = [
        "Tile-parallel speedup at c2+f4, n=%d" % N,
        "(np-par: %d workers, %d-row tiles; best of %d rounds x %d reps)"
        % (WORKERS, TILE_ROWS, ROUNDS, REPS),
        "",
        "%-20s %12s %12s %10s" % ("pipeline", "np", "np-par", "np/np-par"),
    ]
    speedups = {}
    for label, source in CASES:
        scalar_program = _compile(source)
        with TileEngine(workers=WORKERS, tile_shape=(TILE_ROWS, N)) as engine:
            _assert_identical(scalar_program, engine, label)
            best_np = best_par = float("inf")
            for _round in range(ROUNDS):
                for _rep in range(REPS):
                    start = time.perf_counter()
                    execute(scalar_program, "codegen_np")
                    best_np = min(best_np, time.perf_counter() - start)
                    start = time.perf_counter()
                    execute(scalar_program, "np-par", engine=engine)
                    best_par = min(best_par, time.perf_counter() - start)
        speedups[label] = best_np / best_par
        lines.append(
            "%-20s %12.6f %12.6f %9.2fx"
            % (label, best_np, best_par, speedups[label])
        )
    winners = [label for label, s in speedups.items() if s >= TARGET_SPEEDUP]
    lines.append("")
    lines.append(
        ">= %.1fx on %d/%d pipelines: %s"
        % (TARGET_SPEEDUP, len(winners), len(CASES), ", ".join(winners))
    )
    save_result("parallel_speedup", "\n".join(lines))
    assert len(winners) >= MIN_WINNERS, (
        "tile-at-a-time execution should win >= %.1fx on >= %d pipelines; "
        "got %r" % (TARGET_SPEEDUP, MIN_WINNERS, speedups)
    )
