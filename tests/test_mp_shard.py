"""The mp-shard backend: geometry, exchange planning, execution,
measured-vs-modeled validation, and the zero-counter metrics fix."""

import importlib
import pkgutil

import numpy as np
import pytest

import repro.parallel
from repro.benchsuite import get_benchmark
from repro.exec.backends import execute
from repro.exec.mp_shard import execute_sharded
from repro.fusion import ALL_LEVELS
from repro.parallel.comm import analyze_run
from repro.parallel.commopt import (
    ALL_COMM_OPTS,
    NO_COMM_OPTS,
    CommOptions,
    eliminate_redundant,
)
from repro.parallel.distribution import ProcessorGrid, balanced_factorization
from repro.parallel.shard import (
    ShardLayout,
    _balanced_chunks,
    elimination_coverage,
    halo_widths,
    program_rank,
)
from repro.parallel.validate import (
    ValidationError,
    assert_identical,
    check_report,
    exchange_table,
    validate_program,
)
from repro.scalarize.emit_common import int_config_env
from repro.scalarize.scalarizer import compile_program
from repro.service.metrics import Metrics
from repro.util.errors import ReproError

LEVELS = {str(level): level for level in ALL_LEVELS}


def bench_program(name, level="Level(c2)"):
    return compile_program(get_benchmark(name).test_program(), LEVELS[level])


def _all_runs(program):
    """Maximal consecutive loop-nest sequences, as the executor groups
    them — including runs nested inside sequential control flow."""
    from repro.scalarize.loopnest import LoopNest, SeqLoop, SIf, SWhile

    runs = []

    def walk(body):
        current = []
        for node in body:
            if isinstance(node, LoopNest):
                current.append(node)
                continue
            if current:
                runs.append(current)
                current = []
            if isinstance(node, (SeqLoop, SWhile)):
                walk(node.body)
            elif isinstance(node, SIf):
                walk(node.then_body)
                walk(node.else_body)
        if current:
            runs.append(current)

    walk(program.body)
    return runs


# -- balanced_factorization edge cases ---------------------------------------


class TestFactorizationEdges:
    def test_prime_p(self):
        assert balanced_factorization(7, 2) == (7, 1)
        assert balanced_factorization(13, 3) == (13, 1, 1)

    def test_p_smaller_than_rank(self):
        assert balanced_factorization(2, 3) == (2, 1, 1)
        assert balanced_factorization(6, 4) == (3, 2, 1, 1)

    def test_rank_one(self):
        assert balanced_factorization(6, 1) == (6,)
        assert balanced_factorization(1, 1) == (1,)

    def test_degenerate_grids(self):
        # p=1 cuts nothing regardless of rank.
        for rank in (1, 2, 3):
            grid = ProcessorGrid(1, rank)
            assert grid.shape == (1,) * rank
            assert grid.cut_dimensions() == []
        # A prime p on a rank-2 grid cuts exactly one dimension.
        grid = ProcessorGrid(5, 2)
        assert grid.cut_dimensions() == [1]
        assert grid.neighbor_count(2) == 0

    def test_product_and_order_invariants(self):
        for p in range(1, 31):
            for rank in (1, 2, 3):
                factors = balanced_factorization(p, rank)
                assert len(factors) == rank
                assert np.prod(factors) == p
                assert list(factors) == sorted(factors, reverse=True)


# -- shard geometry ----------------------------------------------------------


class TestGeometry:
    def test_balanced_chunks_partition(self):
        assert _balanced_chunks(1, 10, 3) == [(1, 4), (5, 7), (8, 10)]
        chunks = _balanced_chunks(1, 10, 4)
        # Contiguous, covering, sizes within one of each other.
        assert chunks[0][0] == 1 and chunks[-1][1] == 10
        sizes = [hi - lo + 1 for lo, hi in chunks]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        for (a, b), (c, _d) in zip(chunks, chunks[1:]):
            assert c == b + 1

    def test_balanced_chunks_more_parts_than_extent(self):
        chunks = _balanced_chunks(1, 2, 4)
        assert chunks[:2] == [(1, 1), (2, 2)]
        assert all(lo > hi for lo, hi in chunks[2:])

    def test_layout_ownership_partitions_domain(self):
        program = bench_program("Simple")
        rank = program_rank(program)
        grid = ProcessorGrid(4, rank)
        layout = ShardLayout(program, grid, int_config_env(program.configs))
        for dim in range(1, rank + 1):
            lo, hi = layout.domains[dim - 1]
            owners = [layout.owner_of(dim, index) for index in range(lo, hi + 1)]
            # Every index owned, ownership monotone non-decreasing.
            assert owners == sorted(owners)
            covered = sum(
                max(0, chi - clo + 1) for clo, chi in layout.chunks[dim - 1]
            )
            assert covered == hi - lo + 1

    def test_local_alloc_includes_halo(self):
        program = bench_program("Simple")
        rank = program_rank(program)
        grid = ProcessorGrid(4, rank)
        layout = ShardLayout(program, grid, int_config_env(program.configs))
        halos = halo_widths(program)
        some_halo = False
        for name, widths in halos.items():
            bounds, _kind = layout.allocs[name]
            for rank_id in range(grid.p):
                local = layout.local_alloc(rank_id, name)
                for dim, (alo, ahi) in enumerate(bounds, start=1):
                    llo, lhi = local[dim - 1]
                    assert alo <= llo and lhi <= ahi
                    if dim <= rank and grid.is_cut(dim) and widths[dim - 1]:
                        some_halo = True
        assert some_halo


# -- elimination coverage mirrors eliminate_redundant ------------------------


class TestEliminationCoverage:
    @pytest.mark.parametrize("bench", ["Tomcatv", "SP", "Simple"])
    def test_kept_events_match_optimizer(self, bench):
        program = bench_program(bench)
        rank = max(program_rank(program), 1)
        grid = ProcessorGrid(4, rank)
        env = int_config_env(program.configs)
        distributed = set(program.array_allocs)
        checked = 0
        for run in _all_runs(program):
            # Runs under a SeqLoop reference the loop variable; bind a
            # representative value so concrete bounds exist.
            bound_env = dict(env)
            for node in run:
                for var in node.region.free_variables():
                    bound_env.setdefault(var, 2)
            events = analyze_run(run, grid, bound_env, distributed)
            if not events:
                continue
            kept, coverage = elimination_coverage(events, run)
            expected = eliminate_redundant(events, run)
            assert [id(e) for e in kept] == [id(e) for e in expected]
            kept_ids = {id(e) for e in kept}
            assert set(coverage) <= kept_ids
            dropped = sum(len(v) for v in coverage.values())
            assert len(kept) + dropped == len(events)
            checked += 1
        assert checked


# -- sharded execution -------------------------------------------------------


class TestExecution:
    @pytest.mark.parametrize(
        "bench,level,procs",
        [
            ("Simple", "Level(baseline)", 1),
            ("Simple", "Level(c2)", 2),
            ("Simple", "Level(c2+f4+cse)", 4),
            ("Tomcatv", "Level(c2)", 2),
            ("Tomcatv", "Level(c2+f4+cse)", 6),
        ],
    )
    def test_bit_identity_and_measured_vs_predicted(self, bench, level, procs):
        program = bench_program(bench, level)
        row = validate_program(program, procs, name=bench, level=level)
        assert row.identical
        assert row.measured_bytes == row.model_bytes + row.corner_bytes
        table = exchange_table([row])
        assert bench in table and "| yes |" in table

    def test_registry_and_aliases_execute(self):
        program = bench_program("Simple")
        oracle = execute(program, "codegen_np")
        for alias in ("mp-shard", "shard", "mp_shard"):
            result = execute(program, alias, procs=2)
            assert_identical(result, oracle)

    def test_local_backend_py(self):
        # The local executor decides scalar accumulation order, so the
        # matching oracle is codegen_py, not codegen_np.
        program = bench_program("Simple")
        oracle = execute(program, "codegen_py")
        result = execute(program, "mp-shard", procs=2, local_backend="py")
        assert_identical(result, oracle)

    def test_mp_shard_rejects_itself_as_local_backend(self):
        program = bench_program("Simple")
        with pytest.raises(ReproError):
            execute_sharded(program, procs=2, local_backend="shard")

    def test_comm_options_change_executed_exchanges(self):
        program = bench_program("Simple")
        opts = {
            "all": ALL_COMM_OPTS,
            "none": NO_COMM_OPTS,
            "no_combine": CommOptions(combining=False),
        }
        reports = {}
        for key, options in opts.items():
            _result, report = execute_sharded(
                program, procs=2, comm_options=options
            )
            check_report(report)
            reports[key] = report
        # Redundancy elimination actually skips wire messages.
        assert reports["all"].counters.get("comm.eliminated", 0) > 0
        assert reports["none"].counters.get("comm.eliminated", 0) == 0
        assert (
            sum(len(r.events) for r in reports["none"].records)
            > sum(len(r.events) for r in reports["all"].records)
        )
        # Combining merges events into fewer wire messages.
        assert reports["all"].counters.get("comm.combined", 0) > 0
        assert reports["no_combine"].counters.get("comm.combined", 0) == 0
        assert len(reports["no_combine"].records) > len(reports["all"].records)

    def test_check_report_rejects_mismatch(self):
        program = bench_program("Simple")
        _result, report = execute_sharded(program, procs=2)
        check_report(report)
        if report.records:
            report.records[0].measured_bytes += 8
            with pytest.raises(ValidationError):
                check_report(report)

    def test_metrics_and_counters_emitted(self):
        program = bench_program("Simple")
        metrics = Metrics()
        _result, report = execute_sharded(program, procs=2, metrics=metrics)
        assert report.procs == 2
        counters = metrics.snapshot()["counters"]
        assert counters.get("comm.exchanges", 0) == report.exchanges
        assert counters.get("comm.bytes", 0) == sum(
            record.measured_bytes for record in report.records
        )


# -- zero-valued registered counters -----------------------------------------


class TestZeroCounters:
    def test_registered_counters_visible_at_zero(self):
        from repro.obs.prom import render_prometheus
        from repro.obs.registry import registered_counter_names

        names = registered_counter_names()
        assert "comm.exchanges" in names
        metrics = Metrics()
        metrics.register(names)
        counters = metrics.snapshot()["counters"]
        for name in names:
            assert counters[name] == 0
        text = render_prometheus(metrics.snapshot())
        assert 'repro_counter_total{name="comm.exchanges"} 0' in text
        assert 'repro_counter_total{name="daemon.shed"} 0' in text

    def test_register_never_clobbers_counts(self):
        metrics = Metrics()
        metrics.incr("comm.exchanges", 5)
        metrics.register(["comm.exchanges", "comm.bytes"])
        assert metrics.counter("comm.exchanges") == 5
        assert metrics.counter("comm.bytes") == 0


# -- docstring audit ---------------------------------------------------------


def test_parallel_modules_have_docstrings():
    package = repro.parallel
    assert package.__doc__ and package.__doc__.strip()
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module("repro.parallel.%s" % info.name)
        assert module.__doc__ and len(module.__doc__.strip()) > 40, (
            "module repro.parallel.%s lacks a real docstring" % info.name
        )
