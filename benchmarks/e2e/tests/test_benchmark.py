"""Tests of the benchmark itself: its helpers, its spec and its smoke mode."""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from conftest import E2E_DIR, REPO_ROOT
from e2ebench import env, serve_mix, stats
from e2ebench.calibrate import NOMINAL_S, Calibrator
from e2ebench.workload import Interval, Measured

RUN = os.path.join(E2E_DIR, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run(*arguments, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, RUN, *arguments], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- schedule generator ------------------------------------------------------


def schedule(seed, count=2000):
    return serve_mix.schedule(seed, count, ["EP", "Frac"], (16, 24), (40, 52), 64)


def test_schedule_is_a_pure_function_of_the_seed():
    assert schedule(7) == schedule(7)
    assert schedule(7) != schedule(8)


def test_schedule_splits_evenly_and_keeps_the_mix():
    per_client = schedule(3)
    assert [len(requests) for requests in per_client] == [1000, 1000]
    kinds = [request[0] for requests in per_client for request in requests]
    assert 0.66 < kinds.count("hot") / 2000 < 0.74
    assert 0.17 < kinds.count("tail") / 2000 < 0.23
    assert 0.08 < kinds.count("relax") / 2000 < 0.12
    seeds = [r[3] for requests in per_client for r in requests if r[0] == "relax"]
    assert len(set(seeds)) == len(seeds)  # no two array requests are identical


# -- percentile helper -------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(5, None), (19, None), (20, 0.50), (99, 0.50), (100, 0.90), (199, 0.90),
     (200, 0.95), (999, 0.95), (1000, 0.99), (9999, 0.99), (10000, 0.999)],
)
def test_tail_quantile_needs_ten_samples_beyond(count, expected):
    assert stats.tail_quantile(count) == expected
    if expected is not None:
        assert stats.samples_beyond(count, expected) >= stats.MIN_SAMPLES_BEYOND


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 0.5) == 50
    assert stats.percentile(samples, 0.99) == 99
    assert stats.percentile(samples, 1.0) == 100
    assert stats.percentile([3.0], 0.9) == 3.0


def test_typical_seconds_weighs_classes_then_cells_equally():
    samples = {"a": {"x": [1.0, 1.0, 9.0], "y": [4.0]}, "b": {"z": [8.0]}}
    assert stats.class_medians(samples) == pytest.approx({"a": 2.0, "b": 8.0})
    assert stats.typical_seconds(samples) == pytest.approx(4.0)


# -- calibration -------------------------------------------------------------


def calibrator_with(*bursts):
    """A calibrator that ran the given (start, end, yardstick seconds) bursts."""
    calibrator = Calibrator()
    for start, end, seconds in bursts:
        calibrator._starts.append(start)
        calibrator._ends.append(end)
        calibrator._seconds.append([seconds] * 3)
    return calibrator


def test_an_operation_is_calibrated_by_the_bursts_next_to_it():
    calibrator = calibrator_with(
        (0.0, 1.0, NOMINAL_S), (2.0, 3.0, 2 * NOMINAL_S), (4.0, 5.0, 2 * NOMINAL_S),
        (6.0, 7.0, 4 * NOMINAL_S),
    )
    assert calibrator.factor_around(3.1, 3.9) == pytest.approx(2.0)
    assert calibrator.factor_around(1.1, 1.9) == pytest.approx(1.5)  # pooled median
    assert calibrator.factor_around(1.1, 3.9) == pytest.approx(1.5)  # spans a burst
    assert calibrator.factor_around(7.5, 8.0) == pytest.approx(4.0)  # only a burst before
    with pytest.raises(RuntimeError):
        Calibrator().factor_around(0.0, 1.0)


def test_settle_states_samples_at_nominal_speed_and_counts_per_client():
    calibrator = calibrator_with((0.0, 1.0, 2 * NOMINAL_S), (9.0, 10.0, 2 * NOMINAL_S))
    measured = Measured(clients=2)
    measured.add("a", "x", Interval(1.0, 3.0))
    measured.add("a", "x", Interval(3.0, 7.0))
    measured.add("a", "y", Interval(1.0, 2.0), factor=0.5)  # timed by another process
    measured.settle(calibrator)
    assert measured.samples == {"a": {"x": [2.0, 4.0], "y": [1.0]}}
    assert measured.nominal == {"a": {"x": [1.0, 2.0], "y": [2.0]}}
    assert measured.operations == 3 and measured.attempted == 3
    assert measured.busy_s == pytest.approx(3.5)
    assert measured.nominal_busy_s == pytest.approx(2.5)


# -- BENCHMARK.json ----------------------------------------------------------


def test_spec_stays_inside_the_contract():
    data = spec()
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert data["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(data["workloads"]) <= 8
    assert 1 <= len(data["end_to_end"]) <= 16
    assert 1 <= len(data["per_layer"]) <= 128
    assert isinstance(data["run_seconds"], int) and 1 <= data["run_seconds"] <= 60
    names = [w["name"] for w in data["workloads"]]
    names += [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for workload in data["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in data["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in data["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in data["end_to_end"] + data["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}]
    assert os.path.getsize(os.path.join(REPO_ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_every_workload_of_the_spec_has_a_module():
    for workload in spec()["workloads"]:
        assert os.path.isfile(os.path.join(E2E_DIR, "e2ebench", workload["name"] + ".py"))


# -- smoke mode: all five workloads end to end -------------------------------


def test_smoke_prints_exactly_the_metrics_of_the_spec():
    data = spec()
    started = time.monotonic()
    for workload in data["workloads"]:
        proc = run("--workload", workload["name"], "--seed", "5", "--smoke", "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        result = last_json(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in data["end_to_end"]]
        for metric in data["end_to_end"]:
            printed = result["metrics"][metric["name"]]
            assert printed["unit"] == metric["unit"] and printed["value"] > 0
            assert metric["name"] in proc.stdout.split("{")[0]  # the table names it too
    assert time.monotonic() - started < 20


def test_no_process_outlives_a_run():
    """Orphans of a run are adopted by this process, so any would show here:
    the resource tracker of ``shared_memory`` used to outlive ``shard_halo``."""
    env.adopt_orphans()
    for workload in ("shard_halo", "serve_mix"):
        proc = run("--workload", workload, "--seed", "5", "--smoke", "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        assert [env._command(pid) for pid in env._children()] == []


def test_traced_smoke_prints_every_per_layer_metric_and_writes_spans():
    data = spec()
    proc = run("--workload", "shard_halo", "--seed", "5", "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert list(result["metrics"]) == [m["name"] for m in data["per_layer"]]
    for metric in data["per_layer"]:
        if metric["unit"] in ("s", "ms", "us"):
            assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]
    with open(os.path.join(E2E_DIR, "out", "shard_halo.trace.json")) as handle:
        trace = json.load(handle)
    spans = {span["id"]: span for span in trace["spans"]}
    assert any(span["name"] == "shard.execute" for span in spans.values())
    for span in spans.values():
        assert span["end_us"] >= span["start_us"]
        assert span["parent"] is None or span["parent"] in spans


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        E2E_DIR, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "lazy_retrace",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
