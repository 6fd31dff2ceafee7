"""The mp-shard backend: geometry, exchange planning, execution,
measured-vs-modeled validation, and the zero-counter metrics fix."""

import importlib
import multiprocessing
import os
import pkgutil
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro.parallel
from repro.benchsuite import get_benchmark
from repro.exec import native
from repro.exec.backends import execute
from repro.exec import mp_shard
from repro.exec.mp_shard import CommReport, default_procs, execute_sharded
from repro.fusion import ALL_LEVELS
from repro.parallel.comm import analyze_run
from repro.parallel.commopt import (
    ALL_COMM_OPTS,
    NO_COMM_OPTS,
    CommOptions,
    eliminate_redundant,
)
from repro.parallel.distribution import (
    ProcessorGrid,
    balanced_factorization,
    block_chunks,
)
from repro.parallel.shard import ShardLayout, halo_widths, program_rank
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


@pytest.fixture
def fresh_pool():
    """For tests that patch rank code: the next call forks ranks that carry
    the patch, and no later test inherits them.  ``_retire_pool`` is what
    ``atexit`` calls — the one test-visible handle on the pool."""
    mp_shard._retire_pool()
    yield
    mp_shard._retire_pool()


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
        assert block_chunks(1, 10, 3) == [(1, 4), (5, 7), (8, 10)]
        chunks = block_chunks(1, 10, 4)
        # Contiguous, covering, sizes within one of each other.
        assert chunks[0][0] == 1 and chunks[-1][1] == 10
        sizes = [hi - lo + 1 for lo, hi in chunks]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        for (a, b), (c, _d) in zip(chunks, chunks[1:]):
            assert c == b + 1

    def test_balanced_chunks_more_parts_than_extent(self):
        chunks = block_chunks(1, 2, 4)
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


# -- elimination coverage: one sweep, checked against the plain rule ---------


def _kept_by_the_rule(events, run):
    """Redundancy elimination as §5.5 words it, with no bookkeeping: an
    exchange is dropped iff an identical one was kept earlier and no nest
    in between rewrote the array."""
    kept = []
    for event in events:
        if not any(
            earlier.key() == event.key()
            and not any(
                event.array in node.writes()
                for node in run[earlier.nest_index:event.nest_index]
            )
            for earlier in kept
        ):
            kept.append(event)
    return kept


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
            coverage = eliminate_redundant(events, run)
            kept = list(coverage)
            expected = _kept_by_the_rule(events, run)
            assert [id(e) for e in kept] == [id(e) for e in expected]
            kept_ids = {id(e) for e in kept}
            assert {id(e) for e in coverage} <= kept_ids
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
        assert report.records
        # Records are views built on access: tamper with the column.
        tampered = CommReport(
            report.procs, report.grid_shape, report.counters,
            report.descriptions, report.described,
            [report.measured[0] + 8] + list(report.measured[1:]),
            report.durations_us,
        )
        assert tampered.records[0].measured_bytes == (
            report.records[0].measured_bytes + 8
        )
        with pytest.raises(ValidationError):
            check_report(tampered)

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


# -- kernels are loaded once, corner scalars broadcast on demand --------------


def sized_program(name, n, steps, level="Level(c2+f4+cse)"):
    bench = get_benchmark(name)
    config = dict(bench.default_config, n=n, m=n, steps=steps)
    return compile_program(bench.program(config), LEVELS[level])


class TestLoadOnce:
    @pytest.mark.parametrize("bench", ["Tomcatv", "SP"])
    def test_loads_do_not_grow_with_time_steps(self, bench):
        counters = {}
        for steps in (2, 4):
            program = sized_program(bench, 16, steps)
            _result, report = execute_sharded(program, procs=2)
            check_report(report)
            counters[steps] = report.counters
        nests = program.loop_nests()
        folds = [
            nest for nest in nests
            if any(stmt.reduce_op is not None for stmt in nest.body)
        ]
        assert counters[2]["comm.exchanges"] < counters[4]["comm.exchanges"]
        assert (
            counters[2]["comm.kernel_loads"] == counters[4]["comm.kernel_loads"]
        )
        # one clamped (or fallback) kernel per nest and worker, plus rank
        # 0's fold kernel per reduction nest
        assert counters[4]["comm.kernel_loads"] <= 2 * len(nests) + len(folds)

    @pytest.mark.parametrize("bench", ["Tomcatv", "SP"])
    def test_broadcasts_do_not_grow_with_row_sweeps(self, bench):
        counters = {}
        for n in (12, 24):
            _result, report = execute_sharded(
                sized_program(bench, n, 2), procs=2
            )
            counters[n] = report.counters
        assert counters[12]["comm.exchanges"] < counters[24]["comm.exchanges"]
        assert (
            counters[12]["comm.scalar_bcasts"]
            == counters[24]["comm.scalar_bcasts"]
        )
        assert (
            counters[12]["comm.kernel_loads"] == counters[24]["comm.kernel_loads"]
        )

    @pytest.mark.parametrize(
        "local_backend",
        [
            "interp", "py", "np", "np-par",
            pytest.param(
                "c",
                marks=pytest.mark.skipif(
                    not native.cc_available(), reason="no cc"
                ),
            ),
        ],
    )
    def test_every_local_backend(self, local_backend):
        program = sized_program("Tomcatv", 16, 2)
        # The local executor decides the fold order of float reductions.
        oracle = execute(
            program, "np" if local_backend == "np-par" else local_backend
        )
        result, report = execute_sharded(
            program, procs=2, local_backend=local_backend
        )
        assert_identical(result, oracle)
        check_report(report)


    def test_rank_class_is_computed_once_per_nest_per_rank(
        self, monkeypatch, fresh_pool
    ):
        # The gather-or-clamp verdict is a fact of (nest, grid): it lives
        # beside the worker's other per-nest facts, not in the plan-cache
        # miss path a row sweep takes once per row (251 calls per rank on
        # SP at n=64 when it did).
        from repro.scalarize.loopnest import PartitionPlan

        calls = multiprocessing.get_context("fork").Value("i", 0)
        rank_class = PartitionPlan.rank_class

        def counting(self, cut):
            with calls.get_lock():
                calls.value += 1
            return rank_class(self, cut)

        monkeypatch.setattr(PartitionPlan, "rank_class", counting)
        program = sized_program("SP", 24, 2)
        _result, report = execute_sharded(program, procs=2)
        check_report(report)
        assert 0 < calls.value <= 2 * len(program.loop_nests())
        # ... and not once per call: a pooled rank keeps its facts.
        first = calls.value
        execute_sharded(program, procs=2)
        assert calls.value == first

    @pytest.mark.parametrize("bench", ["Tomcatv", "SP", "Simple"])
    def test_a_warm_kernel_call_allocates_nothing(
        self, bench, monkeypatch, fresh_pool
    ):
        # A rank's kernels run in place on its local arrays: inside
        # ``_run_kernel`` nothing is allocated (the emitted preamble made
        # one ``np.zeros`` and one copy per array per call when kernels
        # allocated their own), and the only arrays the walk allocates at
        # all are a clamped fold's scratch operands.
        ctx = multiprocessing.get_context("fork")
        in_kernel, in_walk, scratch, kernel_calls = (
            ctx.Value("i", 0) for _ in range(4)
        )
        state = {"kernel": 0, "walk": 0}  # nesting depth, per process
        zeros = np.zeros

        def bump(counter, by=1):
            with counter.get_lock():
                counter.value += by

        def counting_zeros(*args, **kwargs):
            if state["kernel"]:
                bump(in_kernel)
            if state["walk"]:
                bump(in_walk)
            return zeros(*args, **kwargs)

        def during(flag, function):
            def wrapped(*args, **kwargs):
                state[flag] += 1
                try:
                    return function(*args, **kwargs)
                finally:
                    state[flag] -= 1

            return wrapped

        run_kernel = during("kernel", mp_shard._Worker._run_kernel)

        def counting_kernel(self, node, kind, allocs, bounds, arrays):
            bump(kernel_calls)
            bump(scratch, sum(name.startswith("__shard_red") for name in arrays)
                 if kind == "clamped" else 0)
            return run_kernel(self, node, kind, allocs, bounds, arrays)

        monkeypatch.setattr(np, "zeros", counting_zeros)
        monkeypatch.setattr(mp_shard._Worker, "_run_kernel", counting_kernel)
        monkeypatch.setattr(
            mp_shard._Worker, "execute_body",
            during("walk", mp_shard._Worker.execute_body),
        )
        program = sized_program(bench, 64, 1)
        execute_sharded(program, procs=2)  # loads the kernels
        for counter in (in_kernel, in_walk, scratch, kernel_calls):
            counter.value = 0
        _result, report = execute_sharded(program, procs=2)
        check_report(report)
        assert report.counters["comm.kernel_loads"] == 0
        assert kernel_calls.value > 0
        assert in_kernel.value == 0
        assert in_walk.value == scratch.value > 0


def _shard_segments():
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm to audit")
    return {entry for entry in os.listdir("/dev/shm") if entry.startswith("rs")}


class TestDeadRank:
    @pytest.mark.parametrize("victim", [0, 1])
    def test_a_killed_rank_fails_the_run_fast_and_leaks_nothing(
        self, victim, monkeypatch, fresh_pool
    ):
        # SIGKILL one of two *pooled* ranks on the third run of nests of
        # its second call: the pool is warm, its peer is (or soon will
        # be) parked in a barrier wait.
        run, exec_run = mp_shard._Worker.run, mp_shard._Worker._exec_run
        seen = {"calls": 0, "runs": 0}  # counted in each forked rank

        def counting_run(self, *args):
            seen["calls"] += 1
            seen["runs"] = 0
            return run(self, *args)

        def dying(self, nests):
            seen["runs"] += 1
            if (self.rank, seen["calls"], seen["runs"]) == (victim, 2, 3):
                os.kill(os.getpid(), signal.SIGKILL)
            exec_run(self, nests)

        monkeypatch.setattr(mp_shard._Worker, "run", counting_run)
        monkeypatch.setattr(mp_shard._Worker, "_exec_run", dying)
        program = sized_program("Tomcatv", 16, 2)
        oracle = execute(program, "codegen_np")
        result, _report = execute_sharded(program, procs=2)
        assert_identical(result, oracle)
        before = _shard_segments()
        started = time.monotonic()
        with pytest.raises(
            ReproError,
            match=r"worker %d failed:\s+process killed by signal 9" % victim,
        ):
            execute_sharded(program, procs=2)
        assert time.monotonic() - started < 5.0
        assert _shard_segments() <= before
        assert multiprocessing.active_children() == []
        # The next call forks a fresh pool (whose ranks count from 0).
        result, report = execute_sharded(program, procs=2)
        assert_identical(result, oracle)
        check_report(report)
        assert len(multiprocessing.active_children()) == 2


# -- the rank pool ------------------------------------------------------------


def _record_facts(report):
    """Every record field except the one that is a timing."""
    return [
        (r.ordinal, r.description, r.measured_bytes) for r in report.records
    ]


def _stable(counters):
    """The counters that do not depend on what the pool already holds."""
    return {
        name: value for name, value in counters.items()
        if name not in ("comm.kernel_loads", "comm.barrier_waits")
    }


def _rank_pids():
    return sorted(child.pid for child in multiprocessing.active_children())


class TestRankPool:
    def test_three_calls_on_one_pool_match_a_fresh_pool(self):
        program = sized_program("Tomcatv", 64, 2)
        oracle = execute(program, "codegen_np")
        mp_shard._retire_pool()
        runs = [execute_sharded(program, procs=2) for _ in range(3)]
        pids = _rank_pids()
        assert len(pids) == 2
        mp_shard._retire_pool()
        assert _rank_pids() == []
        runs.append(execute_sharded(program, procs=2))  # a fresh pool
        assert not set(_rank_pids()) & set(pids)
        first_result, first = runs[0]
        for result, report in runs:
            assert_identical(result, oracle)
            check_report(report)
            assert _record_facts(report) == _record_facts(first)
            assert _stable(report.counters) == _stable(first.counters)
            assert all(r.duration_us > 0 for r in report.records)
        loads = [report.counters["comm.kernel_loads"] for _r, report in runs]
        assert loads[0] == loads[3] > 0 and loads[1] == loads[2] == 0
        waits = [report.counters["comm.barrier_waits"] for _r, report in runs]
        # 511 when every message took two waits; a first call also maps
        # its segments (two waits each)
        assert waits[1] == waits[2] < waits[0] == waits[3] <= 40

    def test_interleaved_programs_and_options_stay_warm(self):
        programs = [
            sized_program(name, 12, 2) for name in ("Tomcatv", "SP", "Simple")
        ]
        oracles = [execute(program, "codegen_np") for program in programs]
        mp_shard._retire_pool()
        calls = [(i, opts) for opts in (ALL_COMM_OPTS, NO_COMM_OPTS)
                 for i in range(3)]
        exchanges = {}
        for sweep in range(3):
            for index, options in calls:
                result, report = execute_sharded(
                    programs[index], procs=2, comm_options=options
                )
                assert_identical(result, oracles[index])
                check_report(report)
                assert (report.counters["comm.kernel_loads"] > 0) == (
                    sweep == 0
                )
                # what a (program, options) pair executes never changes
                assert exchanges.setdefault(
                    (index, options), report.exchanges
                ) == report.exchanges
        assert exchanges[0, NO_COMM_OPTS] > exchanges[0, ALL_COMM_OPTS]
        assert len(_rank_pids()) == 2

    def test_a_ninth_program_evicts_the_first(self):
        assert mp_shard._KEPT_PROGRAMS == 8
        programs = [
            bench_program("Simple", level) for level in sorted(LEVELS)[:9]
        ]
        oracles = [execute(program, "codegen_np") for program in programs]
        mp_shard._retire_pool()

        def loads(index):
            result, report = execute_sharded(programs[index], procs=2)
            assert_identical(result, oracles[index])
            check_report(report)
            return report.counters["comm.kernel_loads"]

        assert all(loads(index) > 0 for index in range(8))
        assert all(loads(index) == 0 for index in range(8))
        assert loads(8) > 0  # evicts programs[0], the least recently run
        assert loads(1) == 0
        assert loads(0) > 0  # shipped and loaded again, no error
        assert loads(0) == 0
        assert len(_rank_pids()) == 2

    def test_seeded_arrays_and_scalars_are_per_call(self):
        # Inputs travel through the call's segment (apart from the
        # results) and are read again on every call, halos included.
        from repro.ir import expr as ir
        from repro.ir.region import Region
        from repro.scalarize.loopnest import ElemAssign, LoopNest, ScalarProgram

        full = Region.literal((0, 9), (0, 9))
        inner = Region.literal((1, 8), (1, 8))
        program = ScalarProgram(
            "seeded", {}, {"A": (full, "float"), "B": (full, "float")},
            {"k": "float"},
            [LoopNest(inner, (1, 2), [ElemAssign("A", None, ir.BinOp(
                "+", ir.ArrayRef("A", (1, 0)),
                ir.BinOp("*", ir.ScalarRef("k"), ir.ArrayRef("B", (-1, 0))),
            ))], carried_depth=0)],
            scalar_inputs=("k",),
        )
        rng = np.random.default_rng(7)
        for call in range(3):
            arrays = {"A": rng.random((10, 10)), "B": rng.random((10, 10))}
            if call == 2:
                del arrays["B"]  # unseeded arrays start at zero again
            scalars = {"k": float(call + 1)}
            oracle = execute(
                program, "codegen_np", initial_arrays=arrays,
                initial_scalars=scalars,
            )
            for procs in (2, 4):
                result, report = execute_sharded(
                    program, arrays, procs=procs, initial_scalars=scalars
                )
                assert_identical(result, oracle)
                check_report(report)
                assert report.exchanges == 2

    def test_changing_procs_keeps_one_pool_alive(self):
        program = sized_program("Simple", 12, 2)
        oracle = execute(program, "codegen_np")
        for procs in (2, 4, 2):
            result, report = execute_sharded(program, procs=procs)
            assert_identical(result, oracle)
            check_report(report)
            assert report.procs == procs
            assert len(_rank_pids()) == procs

    def test_two_threads_calling_at_once_queue_on_one_pool(self):
        programs = [sized_program(name, 12, 2) for name in ("Tomcatv", "SP")]
        oracles = [execute(program, "codegen_np") for program in programs]
        mp_shard._retire_pool()
        failures = []

        def caller(index):
            try:
                for _ in range(4):
                    result, report = execute_sharded(programs[index], procs=2)
                    assert_identical(result, oracles[index])
                    check_report(report)
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        threads = [threading.Thread(target=caller, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(_rank_pids()) == 2

    @pytest.mark.parametrize("procs", [2, 4, 6])
    def test_benchsuite_every_level_with_empty_messages_unsynchronised(
        self, procs, benchsuite_at_ten_levels
    ):
        # One pool per worker count; every call is a program's first.
        skipped = 0
        for program, oracle in benchsuite_at_ten_levels:
            result, report = execute_sharded(program, procs=procs)
            assert_identical(result, oracle)
            check_report(report)
            skipped += sum(
                not any(event["pairs"] for event in record.events)
                for record in report.records
            )
        assert skipped > 0  # there were messages nobody waited for


@pytest.fixture(scope="module")
def benchsuite_at_ten_levels():
    """(program, codegen_np result) for 6 programs x 10 levels."""
    pairs = []
    for bench in ("EP", "Fibro", "Frac", "SP", "Simple", "Tomcatv"):
        source = get_benchmark(bench).test_program()
        for level in ALL_LEVELS:
            if str(level) != "Level(c2+p)":  # partial contraction: the 11th
                program = compile_program(source, level)
                pairs.append((program, execute(program, "codegen_np")))
    assert len(pairs) == 60
    return pairs


_THREE_CALLS = """
import os, sys, time
from multiprocessing import resource_tracker
from repro.benchsuite import get_benchmark
from repro.exec import mp_shard
from repro.fusion import LEVELS_BY_NAME
from repro.scalarize import compile_program

bench = get_benchmark("Tomcatv")
program = compile_program(
    bench.program(dict(bench.default_config, n=12, m=12, steps=2)),
    LEVELS_BY_NAME["c2+f4+cse"],
)
for _ in range(3):
    mp_shard.execute_sharded(program, procs=2)


def children():
    me, found = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open("/proc/%s/stat" % entry) as handle:
                    fields = handle.read().rpartition(")")[2].split()
            except OSError:
                continue
            if fields[1] == me and fields[0] != "Z":
                found.append(int(entry))
    return found


print("ranks", len(children()) - 1, flush=True)  # minus the resource tracker
if sys.argv[1] == "idle":
    time.sleep(mp_shard._IDLE_S + 1.0)
    tracker = resource_tracker._resource_tracker._pid
    print("children", [pid for pid in children() if pid != tracker])
    print("segments", sorted(
        name for name in os.listdir("/dev/shm") if name.startswith("rs")
    ))
else:
    print("pids", " ".join(map(str, children())), flush=True)
    while True:
        mp_shard.execute_sharded(program, procs=2)
"""


def _script(mode):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    return subprocess.Popen(
        [sys.executable, "-c", _THREE_CALLS, mode], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestPoolLifetime:
    def test_an_idle_pool_retires_and_leaves_nothing(self):
        before = _shard_segments()
        child = _script("idle")
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
        # no resource_tracker warning, no traceback: nothing at all
        assert err == ""
        assert out.splitlines() == ["ranks 2", "children []", "segments %r"
                                    % sorted(before)]

    def test_ranks_of_a_killed_coordinator_exit(self):
        before = _shard_segments()
        child = _script("busy")
        try:
            assert child.stdout.readline().strip() == "ranks 2"
            pids = [int(pid) for pid in child.stdout.readline().split()[1:]]
            assert len(pids) == 3  # two ranks and the resource tracker
            time.sleep(0.2)  # mid-run, as good as certainly
        finally:
            child.kill()
        child.wait(10)

        def running(pid):
            try:
                with open("/proc/%d/stat" % pid) as handle:
                    return handle.read().rpartition(")")[2].split()[0] != "Z"
            except OSError:
                return False

        deadline = time.monotonic() + 2.0
        while any(running(pid) for pid in pids):
            assert time.monotonic() < deadline, "ranks outlived their parent"
            time.sleep(0.02)
        assert _shard_segments() <= before


class TestKeptReports:
    def test_a_kept_report_is_columns_over_shared_descriptions(self):
        import pickle
        import tracemalloc

        program = sized_program("Tomcatv", 64, 2)
        _result, first = execute_sharded(program, procs=2)
        kept = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(8):
                kept.append(execute_sharded(program, procs=2)[1])
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 36 KB a report when each held 248 record objects and a private
        # copy of its descriptions
        assert grown / len(kept) < 10_000
        assert first.exchanges == 248
        for report in kept:
            assert report.descriptions is first.descriptions
            assert report.records[5].events is first.records[5].events
        clone = pickle.loads(pickle.dumps(kept[0]))
        check_report(clone)
        assert _record_facts(clone) == _record_facts(kept[0])
        assert clone.counters == kept[0].counters
        assert (clone.exchanges, clone.measured_bytes, clone.model_bytes) == (
            first.exchanges, first.measured_bytes, first.model_bytes
        )


def _corner_program(reader, kind="float"):
    """``t`` is contracted in a nest whose final point the *last* rank
    owns; ``reader`` (a list of nodes) is what then observes it."""
    from repro.ir import expr as ir
    from repro.ir.region import Region
    from repro.scalarize.loopnest import ElemAssign, LoopNest, ScalarProgram

    full = Region.literal((1, 8), (1, 8))
    here = (0, 0)
    position = ir.BinOp(
        "+", ir.BinOp("*", ir.IndexRef(1), ir.Const(10)), ir.IndexRef(2)
    )
    producer = LoopNest(
        full, (1, 2),
        [
            ElemAssign(
                None, "t",
                ir.IndexRef(1) if kind == "integer"
                else ir.BinOp("*", position, ir.Const(0.5)),
            ),
            ElemAssign("A", None, ir.BinOp("+", ir.ScalarRef("t"), position)),
        ],
        carried_depth=0,
    )
    return ScalarProgram(
        "corner", {},
        {"A": (full, "float"), "B": (full, "float")},
        {"t": kind, "u": "float", "j": "integer", "z": "integer"},
        [producer] + reader,
    )


def _corner_readers():
    from repro.ir import expr as ir
    from repro.ir.linexpr import LinearExpr
    from repro.ir.region import Region
    from repro.scalarize.loopnest import (
        ElemAssign, LoopNest, ScalarAssign, SeqLoop, SIf, SWhile,
    )

    full = Region.literal((1, 8), (1, 8))
    here = (0, 0)

    def store(rhs, region=full):
        return LoopNest(
            region, (1, 2), [ElemAssign("B", None, rhs)], carried_depth=0
        )

    t, u, b = ir.ScalarRef("t"), ir.ScalarRef("u"), ir.ArrayRef("B", here)
    bump = store(ir.BinOp("+", b, ir.ArrayRef("A", here)))
    return {
        "scalar-assign": ("float", [
            ScalarAssign("u", ir.BinOp("+", t, ir.Const(1.0))),
            store(ir.BinOp("*", u, ir.ArrayRef("A", here))),
        ]),
        "if-condition": ("float", [
            SIf(
                ir.BinOp(">", t, ir.Const(40.0)),
                [store(ir.Const(1.0))], [store(ir.Const(2.0))],
            ),
        ]),
        "while-condition": ("float", [
            SWhile(
                ir.BinOp(">", t, u),
                [ScalarAssign("u", ir.BinOp("+", u, ir.Const(20.0))), bump],
            ),
        ]),
        "loop-bound": ("integer", [
            SeqLoop("j", ir.Const(3), t, [bump], downto=False),
        ]),
        "region-bound": ("integer", [
            ScalarAssign("z", ir.Const(0)),  # ends the producer's run
            store(
                ir.ArrayRef("A", here),
                Region([(2, LinearExpr.variable("t") - 1), (1, 8)]),
            ),
        ]),
        "exposed-read": ("float", [
            store(ir.BinOp("+", t, ir.ArrayRef("A", here))),
        ]),
    }


class TestDeferredBroadcast:
    @pytest.mark.parametrize("procs", [2, 4])
    @pytest.mark.parametrize("reader", sorted(_corner_readers()))
    def test_pending_scalar_reaches_its_reader(self, reader, procs):
        kind, nodes = _corner_readers()[reader]
        program = _corner_program(nodes, kind)
        oracle = execute(program, "codegen_np")
        assert oracle.scalars["t"] != 0 and oracle.arrays["B"].any()
        result, report = execute_sharded(program, procs=procs)
        assert_identical(result, oracle)
        # the value came from the last rank, in one broadcast
        assert report.counters["comm.scalar_bcasts"] == 1

    def test_unread_corner_scalars_cost_one_broadcast_at_the_end(self):
        program = _corner_program([])
        result, report = execute_sharded(program, procs=4)
        assert_identical(result, execute(program, "codegen_np"))
        assert report.counters["comm.scalar_bcasts"] == 1

    def test_replicated_assignment_clears_a_pending_scalar(self):
        from repro.ir import expr as ir
        from repro.scalarize.loopnest import ScalarAssign

        program = _corner_program([ScalarAssign("t", ir.Const(7.0))])
        result, report = execute_sharded(program, procs=2)
        assert result.scalars["t"] == 7.0
        assert report.counters["comm.scalar_bcasts"] == 0


class TestRecords:
    def test_executions_of_one_message_share_their_description(self):
        import pickle

        program = sized_program("SP", 64, 2)
        _result, report = execute_sharded(program, procs=2)
        check_report(report)
        by_events = {}
        for record in report.records:
            by_events.setdefault(id(record.events), []).append(record)
        assert len(by_events) < len(report.records) / 4
        first, second = max(by_events.values(), key=len)[:2]
        assert first.events is second.events
        assert first.ordinal != second.ordinal
        assert first.events[0]["array"] in first.arrays
        assert [r.ordinal for r in report.records] == list(
            range(len(report.records))
        )

        blob = pickle.dumps(report)
        assert len(blob) < 25_000  # 67 KB before descriptions were shared
        clone = pickle.loads(blob)
        twins = [clone.records[first.ordinal], clone.records[second.ordinal]]
        assert twins[0].events is twins[1].events
        assert twins[0].events == first.events
        assert twins[0].duration_us == first.duration_us
        check_report(clone)

    def test_every_exchange_is_timed(self):
        _result, report = execute_sharded(
            sized_program("Tomcatv", 16, 2), procs=2
        )
        assert report.records
        assert all(record.duration_us > 0 for record in report.records)


class TestDefaultProcs:
    @pytest.mark.parametrize(
        "value,expected",
        [("3", 3), (" 2 ", 2), ("0", 1), ("-4", 1)],
    )
    def test_numeric_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_PROCS", value)
        assert default_procs() == expected

    @pytest.mark.parametrize("value", ["abc", "", "  ", "2.5", "4x"])
    def test_unparsable_values_mean_the_default(self, monkeypatch, value):
        import os

        monkeypatch.setenv("REPRO_PROCS", value)
        assert default_procs() == min(4, os.cpu_count() or 1)
        monkeypatch.delenv("REPRO_PROCS")
        assert default_procs() == min(4, os.cpu_count() or 1)


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
