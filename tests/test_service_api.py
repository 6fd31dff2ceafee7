"""The serving layer end to end: Service, CompiledProgram, metrics, CLI."""

import json

import numpy as np
import pytest

from repro.service import Metrics, Service, fingerprint
from repro.util.errors import ReproError

SOURCE = """
program srv;
config n : integer = 6;
region R = [1..n];
var A : [R] float;
var B : [R] float;
var total : float;
begin
  [R] A := Index1 * 2.0;
  [R] B := A@(-1) + A@(1);
  total := +<< [R] B;
end;
"""

#: Exercises integer and boolean element kinds so dtype-exactness of a
#: warm hit is observable.
TYPED_SOURCE = """
program typed;
config n : integer = 5;
region R = [1..n];
var K : [R] integer;
var M : [R] boolean;
var ksum : integer;
begin
  [R] K := Index1 * 3;
  [R] M := K > 6;
  ksum := +<< [R] K;
end;
"""


@pytest.fixture
def service(tmp_path):
    return Service(level="c2", backend="codegen_np", cache_dir=str(tmp_path))


def test_cold_then_warm_compile(service):
    cold = service.compile(SOURCE)
    assert not cold.from_cache
    warm = service.compile(SOURCE)
    assert warm.from_cache
    assert warm.digest == cold.digest
    assert service.metrics.counter("cache.misses") == 1
    assert service.metrics.counter("cache.hits") == 1


def test_cold_compile_records_per_pass_timings(service):
    compiled = service.compile(SOURCE)
    timings = compiled.compile_timings
    for name in (
        "compile.normalize",
        "compile.deps",
        "compile.fusion",
        "compile.scalarize",
        "compile.codegen",
        "compile.total",
    ):
        assert name in timings and timings[name] >= 0.0
    # The service metrics aggregate the same passes.
    snapshot = service.metrics.snapshot()["timers"]
    assert "compile.normalize" in snapshot
    assert "compile.fusion" in snapshot


@pytest.mark.parametrize(
    "backend", ["interp", "codegen_py", "codegen_np"]
)
@pytest.mark.parametrize("source", [SOURCE, TYPED_SOURCE])
def test_warm_hit_is_identical_to_cold_compile(tmp_path, backend, source):
    # Acceptance: warm hits return state identical — dtype-exact for
    # int/bool arrays — to a cold compile, on all three backends.
    cold_service = Service(
        level="c2+f3", backend=backend, cache_dir=str(tmp_path)
    )
    cold = cold_service.compile(source).execute()
    warm_service = Service(
        level="c2+f3", backend=backend, cache_dir=str(tmp_path)
    )
    compiled = warm_service.compile(source)
    assert compiled.from_cache
    warm = compiled.execute()
    assert set(warm.arrays) == set(cold.arrays)
    assert set(warm.scalars) == set(cold.scalars)
    for name in cold.arrays:
        assert warm.arrays[name].dtype == cold.arrays[name].dtype
        assert np.array_equal(warm.arrays[name], cold.arrays[name])
    for name in cold.scalars:
        assert type(warm.scalars[name]) is type(cold.scalars[name])
        assert warm.scalars[name] == cold.scalars[name]


def test_version_bump_forces_recompilation(tmp_path, monkeypatch):
    service = Service(level="c2", backend="codegen_np", cache_dir=str(tmp_path))
    service.compile(SOURCE)
    monkeypatch.setattr(fingerprint, "CODE_VERSION", "repro-test/bumped")
    bumped = Service(level="c2", backend="codegen_np", cache_dir=str(tmp_path))
    compiled = bumped.compile(SOURCE)
    assert not compiled.from_cache
    assert bumped.metrics.counter("cache.misses") == 1


def test_config_change_forces_recompilation(service):
    first = service.compile(SOURCE, config={"n": 6})
    second = service.compile(SOURCE, config={"n": 12})
    assert first.digest != second.digest
    assert service.metrics.counter("cache.misses") == 2
    # Same binding again: hit.
    third = service.compile(SOURCE, config={"n": 12})
    assert third.from_cache


def test_level_and_backend_change_force_recompilation(service):
    base = service.compile(SOURCE)
    assert service.compile(SOURCE, level="baseline").digest != base.digest
    assert service.compile(SOURCE, backend="interp").digest != base.digest
    assert service.metrics.counter("cache.misses") == 3


def test_submit_many_routes_config_bindings(service):
    results = service.submit_many(
        SOURCE, [{"config": {"n": size}} for size in (4, 6, 8, 6)]
    )
    totals = [float(result.scalars["total"]) for result in results]

    def expected(size):
        values = {i: 2.0 * i for i in range(1, size + 1)}
        return sum(
            values.get(i - 1, 0.0) + values.get(i + 1, 0.0)
            for i in range(1, size + 1)
        )

    assert totals == [expected(4), expected(6), expected(8), expected(6)]
    # Three distinct bindings compiled; the repeated one was routed to the
    # already-compiled artifact without another cache probe.
    assert service.metrics.counter("cache.misses") == 3


def test_submit_many_with_worker_pool_preserves_order(service):
    sizes = [4, 6, 8, 10, 6, 4]
    serial = service.submit_many(
        SOURCE, [{"config": {"n": size}} for size in sizes]
    )
    pooled = service.submit_many(
        SOURCE, [{"config": {"n": size}} for size in sizes], workers=4
    )
    assert [float(r.scalars["total"]) for r in pooled] == [
        float(r.scalars["total"]) for r in serial
    ]


SEEDED_SOURCE = """
program seeded;
config n : integer = 4;
region R = [1..n];
var A : [R] float;
var B : [R] float;
var total : float;
begin
  [R] B := A + 1.0;
  total := +<< [R] B;
end;
"""


@pytest.mark.parametrize("backend", ["interp", "codegen_py", "codegen_np"])
def test_requests_with_initial_arrays(service, backend):
    # A is read but never written, so it survives contraction and its
    # seeded contents must be observed by every backend.
    compiled = service.compile(SEEDED_SOURCE)
    cold = compiled.execute(backend=backend)
    assert float(cold.scalars["total"]) == 4.0
    seeded = compiled.execute(
        {"arrays": {"A": np.full_like(cold.arrays["A"], 2.0)}},
        backend=backend,
    )
    assert float(seeded.scalars["total"]) == 12.0


def test_compiled_program_rejects_foreign_config(service):
    compiled = service.compile(SOURCE, config={"n": 6})
    with pytest.raises(ReproError, match="routed"):
        compiled.execute({"config": {"n": 12}})
    # The binding it was compiled with is accepted as a no-op.
    compiled.execute({"config": {"n": 6}})


def test_bad_requests_are_rejected(service):
    compiled = service.compile(SOURCE)
    with pytest.raises(ReproError, match="unknown request keys"):
        compiled.execute({"configs": {"n": 4}})
    with pytest.raises(ReproError, match="must be a mapping"):
        compiled.execute([1, 2, 3])


def test_unknown_level_raises(service):
    with pytest.raises(ReproError, match="unknown level"):
        service.compile(SOURCE, level="c9")


def test_cross_backend_execution_of_cached_artifact(service):
    compiled = service.compile(SOURCE)  # rendered for codegen_np
    np_result = compiled.execute()
    py_result = compiled.execute(backend="codegen_py")
    interp_result = compiled.execute(backend="interp")
    for other in (py_result, interp_result):
        assert float(other.scalars["total"]) == float(
            np_result.scalars["total"]
        )


def test_stats_shape(service):
    service.submit_many(SOURCE, [None, None])
    stats = service.stats()
    assert stats["metrics"]["counters"]["execute.requests"] == 2
    assert "execute.codegen_np" in stats["metrics"]["timers"]
    assert stats["cache"]["disk_entries"] == 1
    json.dumps(stats)  # must be JSON-serializable as exported


def test_metrics_merge_and_reset():
    one, two = Metrics(), Metrics()
    one.incr("x")
    one.observe("t", 1.0)
    two.incr("x", 2)
    two.observe("t", 3.0)
    one.merge(two)
    assert one.counter("x") == 3
    timer = one.timer("t")
    assert timer["count"] == 2 and timer["total_s"] == 4.0
    assert timer["min_s"] == 1.0 and timer["max_s"] == 3.0
    one.reset()
    assert one.counter("x") == 0 and one.timer("t") is None


# -- CLI ---------------------------------------------------------------------


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "srv.zpl"
    path.write_text(SOURCE)
    return str(path)


def test_cli_serve_cold_then_warm(source_file, tmp_path, capsys):
    from repro.cli import main

    cache_dir = str(tmp_path / "cache")
    requests = tmp_path / "requests.json"
    requests.write_text(json.dumps([{"config": {"n": 4}}, {"config": {"n": 8}}]))

    argv = [
        "serve", source_file,
        "--requests", str(requests),
        "--cache-dir", cache_dir,
        "--stats",
    ]
    assert main(argv) == 0
    cold_out = capsys.readouterr().out
    assert "cache miss (cold compile)" in cold_out
    assert "request 0: total =" in cold_out
    assert '"cache.misses"' in cold_out

    assert main(argv) == 0
    warm_out = capsys.readouterr().out
    assert "cache hit" in warm_out
    stats = json.loads(warm_out[warm_out.index("{"):])
    counters = stats["metrics"]["counters"]
    assert counters["cache.hits"] == 3  # base compile + both bindings
    # Registered counters stay visible at zero on a fully warm run.
    assert counters["cache.misses"] == 0
    timers = stats["metrics"]["timers"]
    assert "execute.codegen_np" in timers


def test_cli_serve_stats_json_export(source_file, tmp_path, capsys):
    from repro.cli import main

    stats_path = tmp_path / "stats.json"
    assert main([
        "serve", source_file,
        "--cache-dir", str(tmp_path / "cache"),
        "--stats-json", str(stats_path),
    ]) == 0
    capsys.readouterr()
    stats = json.loads(stats_path.read_text())
    assert "compile.normalize" in stats["metrics"]["timers"]
    assert stats["cache"]["disk_entries"] == 1


def test_cli_serve_repeat_and_workers(source_file, tmp_path, capsys):
    from repro.cli import main

    assert main([
        "serve", source_file,
        "--cache-dir", str(tmp_path / "cache"),
        "--workers", "2", "--repeat", "3", "--stats",
    ]) == 0
    out = capsys.readouterr().out
    stats = json.loads(out[out.index("{"):])
    assert stats["metrics"]["counters"]["execute.requests"] == 3


def test_cli_stats_lists_artifacts(source_file, tmp_path, capsys):
    from repro.cli import main

    cache_dir = str(tmp_path / "cache")
    assert main(["serve", source_file, "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["stats", "--cache-dir", cache_dir]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["cache"]["disk_entries"] == 1
    (artifact,) = stats["artifacts"]
    assert artifact["level"] == "c2" and artifact["backend"] == "codegen_np"


def test_cli_serve_no_cache_leaves_no_store(source_file, tmp_path, capsys):
    from repro.cli import main

    cache_dir = tmp_path / "cache"
    assert main([
        "serve", source_file, "--cache-dir", str(cache_dir), "--no-cache",
    ]) == 0
    capsys.readouterr()
    assert not cache_dir.exists()


def test_cli_run_check_reports_divergence(source_file, capsys):
    from repro.cli import main

    assert main(["run", source_file, "--backend", "np", "--check"]) == 0
    out = capsys.readouterr().out
    assert "check vs interp: max |divergence| = 0" in out

    assert main(["run", source_file, "--backend", "interp", "--check"]) == 0
    out = capsys.readouterr().out
    assert "divergence = 0" in out


# -- percentiles -------------------------------------------------------------


def test_timer_percentiles_in_snapshot():
    metrics = Metrics()
    for ms in range(1, 101):  # 1ms .. 100ms
        metrics.observe("t", ms / 1000.0)
    timer = metrics.timer("t")
    assert timer["p50_s"] == pytest.approx(0.050, abs=0.002)
    assert timer["p95_s"] == pytest.approx(0.095, abs=0.002)
    assert timer["p50_s"] <= timer["p95_s"] <= timer["max_s"]


def test_timer_percentiles_survive_merge():
    one, two = Metrics(), Metrics()
    for ms in range(1, 51):
        one.observe("t", ms / 1000.0)
    for ms in range(51, 101):
        two.observe("t", ms / 1000.0)
    one.merge(two)
    timer = one.timer("t")
    assert timer["count"] == 100
    assert timer["p50_s"] == pytest.approx(0.050, abs=0.003)
    assert timer["p95_s"] == pytest.approx(0.095, abs=0.003)


def test_timer_reservoir_is_bounded():
    from repro.service.metrics import RESERVOIR_SIZE, TimerStat

    stat = TimerStat()
    for index in range(RESERVOIR_SIZE * 4):
        stat.observe(float(index))
    assert len(stat.samples) == RESERVOIR_SIZE
    assert stat.count == RESERVOIR_SIZE * 4
    # The reservoir is a uniform sample, so the p50 must land near the
    # true median rather than near either end of the stream.
    p50 = stat.percentile(0.50)
    assert RESERVOIR_SIZE * 1 < p50 < RESERVOIR_SIZE * 3


# -- request errors ----------------------------------------------------------


def test_submit_rejects_a_config_value_that_is_not_a_number(service):
    from repro.util.errors import NormalizationError

    with pytest.raises(NormalizationError, match="'n'.*'x'"):
        service.submit(SOURCE, {"config": {"n": "x"}})
