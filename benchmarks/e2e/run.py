#!/usr/bin/env python3
"""The repo benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py --workload NAME --seed N [--seconds S] [--trace]
    python3 benchmarks/e2e/run.py --all --seed N [--trace]
    python3 benchmarks/e2e/run.py --check-repeat [--seed N]
    python3 benchmarks/e2e/run.py --all --smoke

A single-workload run prints a table of every metric with its unit and, as
the last line of standard output, one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` without ``--trace``, its per-layer metrics with it).
It exits non-zero when any output was wrong, any operation failed, or
anything was left running or allocated.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")

#: Set-up is rehearsed this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: A run that is still going after this long is abandoned and counted failed.
HARD_TIMEOUT_S = 170
#: Counts that depend on how requests happen to overlap; every other metric
#: with unit ``count`` or ``B`` must repeat exactly for a given seed.
TIMING_DEPENDENT_COUNTS = {"daemon.coalesced"}


class WorkloadTimeout(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _on_alarm(signum, frame):
    raise WorkloadTimeout("workload exceeded its %d s hard timeout" % HARD_TIMEOUT_S)


def _on_term(signum, frame):
    raise SystemExit(143)


# -- one workload, in this process ------------------------------------------


def end_to_end(measured, setup_s, rss_mb) -> dict:
    """The end-to-end metrics, times stated for a machine at nominal speed."""
    from e2ebench import stats

    return {
        "setup_s": setup_s,
        "op_ms": stats.typical_seconds(measured.nominal) * 1e3,
        "ops_per_s": measured.operations / measured.nominal_busy_s,
        "peak_rss_mb": rss_mb,
    }


def at_nominal_speed(value: float, unit: str, factor: float) -> float:
    if unit in ("s", "ms", "us"):
        return value / factor
    if unit == "1/s":
        return value * factor
    return value


def run_plain(ctx, module, import_s):
    """The untraced run: rehearse set-up, time the workload, then verify."""
    from e2ebench.env import peak_rss_mb

    setups = []
    state = None
    repeats = 1 if ctx.smoke else SETUP_REPEATS
    for rehearsal in range(repeats):
        if rehearsal:
            module.teardown(ctx, state)
        ctx.rehearsal = repeats - 1 - rehearsal  # 0 is the one that is kept
        ctx.calibrator.burst(8)
        started = time.perf_counter()
        state = module.setup(ctx)
        setups.append((started, time.perf_counter()))
    ctx.calibrator.burst(8)
    setup_s = import_s + statistics.median(
        (end - start) / ctx.calibrator.factor_around(start, end) for start, end in setups
    )
    measured = module.measure(ctx, state, ctx.seconds)
    measured.settle(ctx.calibrator)
    module.teardown(ctx, state)
    rss_mb = peak_rss_mb()
    checks, wrong = module.verify(ctx, state, measured)
    return measured, checks, wrong, end_to_end(measured, setup_s, rss_mb)


def run_traced(ctx, name, module, spec):
    """The traced run: spans around every call, then every layer's numbers.

    The workload's own ``layers`` reports the layers it enters, under its
    own traffic.  The layers it never enters are walked by running the other
    workloads at smoke size, so every per-layer number is measured in every
    traced run and none is a placeholder.
    """
    from e2ebench.env import OUT_DIR

    ctx.rehearsal = 0
    state = module.setup(ctx)
    measured = module.measure(ctx, state, ctx.seconds / 2)
    measured.settle(ctx.calibrator)
    recorded = len(ctx.spans.spans)
    own = module.layers(ctx, state, measured)
    module.teardown(ctx, state)
    layer = {}
    twin = ctx.smoke_twin(seconds=0.5)
    for workload in spec["workloads"]:
        if workload["name"] == name:
            continue
        other = importlib.import_module("e2ebench." + workload["name"])
        with ctx.spans.span("walk." + workload["name"]):
            other_state = other.setup(twin)
            walked = other.measure(twin, other_state, twin.seconds)
            layer.update(other.layers(twin, other_state, walked))
            other.teardown(twin, other_state)
        measured.attempted += walked.attempted
        measured.problems += walked.problems
    layer.update(own)
    checks, wrong = module.verify(ctx, state, measured)
    # The untraced run executes the same statements and only skips storing
    # the span, so the overhead is computed: spans stored x the calibrated
    # cost of storing one, as a share of the time the operations took.
    layer["obs.trace_overhead_pct"] = (
        recorded * ctx.spans.cost_per_span() / measured.busy_s * 100
    )
    known = [metric["name"] for metric in spec["per_layer"]]
    if set(layer) != set(known):
        raise KeyError(
            "per-layer metrics differ from BENCHMARK.json: %s"
            % sorted(set(layer) ^ set(known))
        )
    # One yardstick for the whole traced run: times are stated at nominal speed.
    factor = ctx.calibrator.factor()
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    metrics = {key: at_nominal_speed(float(layer[key]), units[key], factor) for key in known}
    ctx.spans.write(os.path.join(OUT_DIR, "%s.trace.json" % name))
    return measured, checks, wrong, metrics


def print_table(name, module, units, ctx, measured, metrics, traced) -> None:
    """Raw timings per cell, then each class under the name the issue gave it
    (at nominal machine speed), then the metrics of ``BENCHMARK.json``."""
    from e2ebench import stats

    print("== %s (%s run, as timed)" % (name, "traced" if traced else "untraced"))
    for klass, cells in sorted(measured.samples.items()):
        pooled = [t for times in cells.values() for t in times]
        print("  %-12s %s" % (klass, stats.describe(pooled)))
        if 1 < len(cells) <= 18:
            for cell, times in sorted(cells.items()):
                print("    %-22s %s" % (cell, stats.describe(times)))
    print("-- at nominal machine speed (machine factor of the run: %.3f)" % ctx.calibrator.factor())
    for klass, seconds in sorted(stats.class_medians(measured.nominal).items()):
        print("  %-32s %14.4f ms" % (module.ISSUE_NAMES[klass], seconds * 1e3))
    for key, value in metrics.items():
        print("  %-32s %14.4f %s" % (key, value, units[key]))


def run_workload(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: %s holds no repro package; nothing to measure" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in names:
        print("error: unknown workload %r (have: %s)" % (args.workload, ", ".join(names)),
              file=sys.stderr)
        return 2

    from e2ebench import env
    from e2ebench.calibrate import Calibrator
    from e2ebench.trace import SpanRecorder

    calibrator = Calibrator()
    calibrator.burst(8)
    started = time.perf_counter()
    import numpy  # noqa: F401
    import repro.array  # noqa: F401
    import repro.benchsuite  # noqa: F401
    import repro.daemon  # noqa: F401
    import repro.exec.mp_shard  # noqa: F401
    import repro.service  # noqa: F401

    ended = time.perf_counter()
    calibrator.burst(8)
    import_s = (ended - started) / calibrator.factor_around(started, ended)
    module = importlib.import_module("e2ebench." + args.workload)

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(HARD_TIMEOUT_S)
    ctx = env.Context(
        args.seed, args.seconds, args.smoke, SpanRecorder(bool(args.trace)), calibrator
    )
    outcome = None
    error = None
    try:
        if args.trace:
            outcome = run_traced(ctx, args.workload, module, spec)
        else:
            outcome = run_plain(ctx, module, import_s)
    except WorkloadTimeout as timeout:
        error = str(timeout)
    finally:
        signal.alarm(0)
        leaks = ctx.close()
    if outcome is None:
        print("error: %s" % error, file=sys.stderr)
        return 1

    measured, checks, wrong, metrics = outcome
    problems = measured.problems + wrong + ["left behind: " + leak for leak in leaks]
    for problem in problems[:20]:
        print("problem: %s" % problem, file=sys.stderr)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print_table(args.workload, module, units, ctx, measured, metrics, bool(args.trace))
    attempted = measured.attempted + checks + len(leaks)
    print("  failed_share %d / %d" % (len(problems), attempted))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": len(problems),
                "metrics": {
                    key: {"value": value, "unit": units[key]} for key, value in metrics.items()
                },
            }
        )
    )
    return 1 if problems else 0


# -- several workloads, one child process each -------------------------------


def child_run(workload, seed, seconds, trace, smoke):
    """Run one workload in its own process; returns (result or None, text)."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=HARD_TIMEOUT_S + 30
        )
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, proc.stderr.strip()[-2000:]
    text = "\n".join(lines[:-1])
    if proc.returncode != 0:
        text += "\n" + proc.stderr.strip()[-2000:]
    return result, text


def run_all(args) -> int:
    spec = load_spec()
    failed = 0
    for workload in spec["workloads"]:
        for trace in ([0, 1] if args.trace else [0]):
            result, text = child_run(
                workload["name"], args.seed, args.seconds, trace, args.smoke
            )
            print(text)
            if result is None or not result["correct"]:
                failed += 1
                print("FAILED: %s (trace %d)" % (workload["name"], trace))
    print("%d run(s) failed" % failed)
    return 1 if failed else 0


def check_repeat(args) -> int:
    """Run every workload twice with one seed; compare what must agree."""
    spec = load_spec()
    bad = 0
    print("%-14s %-28s %14s %14s %9s %7s" % ("workload", "metric", "first", "second", "apart", "bound"))
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            pair = []
            for _ in range(2):
                result, text = child_run(name, args.seed, args.seconds, trace, args.smoke)
                if result is None or not result["correct"]:
                    print(text)
                    print("FAILED: %s (trace %d)" % (name, trace))
                    return 1
                pair.append(result["metrics"])
            for metric in metrics:
                first = pair[0][metric["name"]]["value"]
                second = pair[1][metric["name"]]["value"]
                exact = (
                    metric["unit"] in ("count", "B")
                    and metric["name"] not in TIMING_DEPENDENT_COUNTS
                )
                if trace and not exact:
                    continue
                apart = abs(second - first) / abs(first) if first else abs(second)
                bound = 0.0 if exact else metric["bound"]
                verdict = "" if apart <= bound else "  <-- apart by more than the bound"
                bad += bool(verdict)
                print(
                    "%-14s %-28s %14.4f %14.4f %8.2f%% %6.0f%%%s"
                    % (name, metric["name"], first, second, apart * 100, bound * 100, verdict)
                )
    print("%d metric(s) apart by more than their bound" % bad)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run every workload twice with one seed and compare")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="traced run: per-layer metrics and a span file in out/")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; exercises every workload in seconds")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(load_spec()["run_seconds"])
    if not (args.workload or args.check_repeat or args.all):
        parser.error("one of --workload, --all or --check-repeat is required")
    sys.path.insert(0, HERE)
    from e2ebench.env import adopt_orphans, reap_descendants

    adopt_orphans()
    try:
        if args.workload:
            return run_workload(args)
        if args.check_repeat:
            return check_repeat(args)
        return run_all(args)
    finally:
        # Whatever path led here, no process started by this one outlives it.
        for straggler in reap_descendants(grace_s=0.0):
            print("killed on the way out: %s" % straggler, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
