"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``compile FILE``
    Run the array-level pipeline and emit one of: the normalized IR, the
    per-block dependence graphs, the fusion/contraction plan, generated C,
    or generated Python.

``run FILE``
    Compile and execute on a selectable back end (``--backend interp``,
    ``codegen_py`` or ``codegen_np``); print final scalars.

``estimate FILE``
    Compile and estimate execution cost on a machine model, optionally for
    ``p`` processors with scaled problem sizes.

``serve FILE``
    Compile once through the content-addressed artifact cache and execute
    a batch of requests (``--requests requests.json``) in order;
    ``--stats`` prints the pipeline metrics JSON.  With ``--daemon``, run
    a long-lived serving daemon instead: HTTP front end, bounded
    admission, a pool of forked worker processes with zero-copy
    shared-memory array transport (see ``repro.daemon``);
    ``GET /metrics`` serves the same Prometheus exposition that
    ``repro stats --format=prom`` emits as its scrape-file twin.

``trace FILE``
    Compile and execute once with structured tracing on, then print the
    span tree (compile passes, cache probe, execution);
    ``--out trace.json`` writes Chrome trace-event JSON loadable in
    Perfetto (https://ui.perfetto.dev).

``backends``
    List the registered execution back ends: canonical name, accepted
    aliases, option hints, and description.

``stats``
    Inspect the on-disk artifact cache: entries, sizes, levels, backends.
    ``--format=json`` (default) or ``--format=prom`` (Prometheus text).

``figures NAME``
    Regenerate a paper artifact (fig6, fig7, fig8) on the spot.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Dict, List, Optional

from repro.deps import build_asdg
from repro.exec import ALIASES, BACKEND_CHOICES, execute, get_backend
from repro.fusion import LEVEL_NAMES, plan_program, resolve_level
from repro.ir import normalize_source
from repro.machine import MACHINES_BY_NAME, estimate_sequential
from repro.parallel import estimate_parallel
from repro.scalarize import (
    render_c_module,
    render_numpy,
    render_python,
    scalarize,
)
from repro.util.errors import ReproError

_MACHINE_ALIASES = {
    "t3e": "Cray T3E",
    "sp2": "IBM SP-2",
    "paragon": "Intel Paragon",
}

def _level(name: str):
    try:
        return resolve_level(name)
    except ReproError as error:
        raise SystemExit(str(error))


def _config_pair(text: str):
    """Validate one --config value (``name=number``) at parse time."""
    name, _eq, value = text.partition("=")
    for convert in (int, float):
        try:
            return name.strip(), convert(value)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError("expected name=number, got %r" % text)


def _backend_name(name: str) -> str:
    """Resolve a --backend value (canonical name or alias) for argparse."""
    try:
        return get_backend(name).name
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error))


def _positive_int(text: str):
    """Validate count arguments (``--procs``, ``--daemon-workers``) at
    parse time, so a bad value is a clean usage error instead of a deep
    failure."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %d" % value
        )
    return value


def _port(text: str):
    """Validate --port: a real bindable port, with 0 rejected explicitly.

    Port 0 asks the kernel for an ephemeral port — fine for tests using
    the library API, but useless for an operator-facing flag: the daemon
    would come up on an address nobody knows.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    if value == 0:
        raise argparse.ArgumentTypeError(
            "port 0 (ephemeral) is not allowed: pass a fixed port in "
            "1..65535 so clients know where the daemon listens"
        )
    if not 1 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            "expected a port in 1..65535, got %d" % value
        )
    return value


def _add_backend_argument(parser, default: str) -> None:
    parser.add_argument(
        "--backend", default=default, type=_backend_name,
        metavar="{%s}" % ",".join(BACKEND_CHOICES),
        help="execution back end (case-insensitive; aliases: %s): loop "
        "interpreter, generated Python element loops, generated "
        "whole-region NumPy, host-compiled C (needs a C compiler), or "
        "multi-process sharding with modeled halo exchanges"
        % ", ".join("%s=%s" % pair for pair in sorted(ALIASES.items())),
    )


def _load(args) -> str:
    if args.file == "-":
        return sys.stdin.read()
    with open(args.file) as handle:
        return handle.read()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Array-level fusion and contraction (PLDI 1998 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="mini-ZPL source file, or - for stdin")
        p.add_argument("--level", default="c2", help="optimization level "
                       "(%s)" % ", ".join(LEVEL_NAMES))
        p.add_argument("--config", action="append", type=_config_pair,
                       metavar="NAME=VALUE",
                       help="override a config constant (repeatable)")
        p.add_argument("--self-temp-policy", default="always",
                       choices=("always", "zero_offset", "reversal"))
        p.add_argument("--simplify", action="store_true",
                       help="run constant folding before planning")

    compile_parser = sub.add_parser("compile", help="compile and emit")
    common(compile_parser)
    compile_parser.add_argument(
        "--emit",
        default="c",
        choices=("ir", "asdg", "plan", "c", "py", "np"),
        help="what to print (default: generated C)",
    )

    run_parser = sub.add_parser("run", help="compile and execute")
    common(run_parser)
    _add_backend_argument(run_parser, default="interp")
    run_parser.add_argument(
        "--check", action="store_true",
        help="cross-execute against the interp backend and report the "
        "max absolute divergence",
    )
    run_parser.add_argument(
        "--procs", type=_positive_int, default=None, metavar="N",
        help="worker processes (mp-shard backend only; default: "
        "$REPRO_PROCS or up to 4)",
    )
    run_parser.add_argument(
        "--local-backend", default=None, metavar="NAME",
        help="per-shard backend for mp-shard workers (default codegen_np)",
    )

    estimate_parser = sub.add_parser("estimate", help="estimate cost")
    common(estimate_parser)
    estimate_parser.add_argument(
        "--machine", default="t3e", choices=sorted(_MACHINE_ALIASES),
    )
    estimate_parser.add_argument("--p", type=int, default=1,
                                 help="processor count (scaled problem)")

    serve_parser = sub.add_parser(
        "serve", help="compile once (cached), execute many requests"
    )
    common(serve_parser)
    _add_backend_argument(serve_parser, default="codegen_np")
    serve_parser.add_argument(
        "--requests", metavar="FILE",
        help="JSON file (or - for stdin) holding a list of requests, each "
        'an object like {"config": {"n": 512}}; default: one request '
        "with no overrides",
    )
    serve_parser.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="serve the request list N times (traffic simulation)",
    )
    serve_parser.add_argument(
        "--cache-dir", default=None,
        help="artifact cache directory (default: $REPRO_CACHE_DIR or "
        ".repro-cache)",
    )
    serve_parser.add_argument(
        "--no-cache", action="store_true",
        help="keep artifacts in memory only; skip the on-disk store",
    )
    serve_parser.add_argument(
        "--stats", action="store_true",
        help="print metrics and cache stats as JSON after serving",
    )
    serve_parser.add_argument(
        "--stats-json", metavar="PATH",
        help="also write the stats JSON to PATH",
    )
    serve_parser.add_argument(
        "--trace-dir", metavar="DIR",
        help="enable structured tracing and write a Chrome trace-event "
        "JSON (Perfetto-loadable) per serve run into DIR; $REPRO_TRACE "
        "also enables tracing (tree to stderr, or a .json path)",
    )
    serve_parser.add_argument(
        "--daemon", action="store_true",
        help="run as a serving daemon: HTTP front end with bounded "
        "admission and a multiprocessing worker pool (arrays travel "
        "zero-copy via shared memory); FILE is ignored — clients POST "
        "programs to /execute.  SIGTERM drains in-flight requests",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="daemon bind address (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=_port, default=7341, metavar="PORT",
        help="daemon listen port in 1..65535; port 0 is rejected "
        "(default: 7341)",
    )
    serve_parser.add_argument(
        "--daemon-workers", type=_positive_int, default=2, metavar="N",
        help="worker processes in the daemon pool (default: 2)",
    )
    serve_parser.add_argument(
        "--queue-depth", type=_positive_int, default=64, metavar="N",
        help="admission-queue bound; requests beyond it are shed with "
        "503 (default: 64)",
    )
    serve_parser.add_argument(
        "--max-request-mb", type=_positive_int, default=64, metavar="MB",
        help="reject requests whose arrays exceed MB megabytes with 413 "
        "(default: 64)",
    )

    trace_parser = sub.add_parser(
        "trace", help="compile + execute once with tracing, print span tree"
    )
    common(trace_parser)
    _add_backend_argument(trace_parser, default="codegen_np")
    trace_parser.add_argument(
        "--out", metavar="PATH",
        help="also write Chrome trace-event JSON to PATH "
        "(open in https://ui.perfetto.dev)",
    )

    sub.add_parser(
        "backends",
        help="list registered execution back ends with aliases and options",
    )

    stats_parser = sub.add_parser(
        "stats", help="inspect the on-disk artifact cache"
    )
    stats_parser.add_argument(
        "--cache-dir", default=None,
        help="artifact cache directory (default: $REPRO_CACHE_DIR or "
        ".repro-cache)",
    )
    stats_parser.add_argument(
        "--format", default="json", metavar="{json,prom}",
        help="output format: json (machine-readable stats + artifact "
        "inventory) or prom (Prometheus text exposition)",
    )

    figures_parser = sub.add_parser("figures", help="regenerate an artifact")
    figures_parser.add_argument("name", choices=("fig6", "fig7", "fig8"))
    return parser


def _compile(args):
    source = _load(args)
    program = normalize_source(
        source, dict(args.config or ()), args.self_temp_policy
    )
    if args.simplify:
        from repro.ir import simplify_program

        simplify_program(program)
    plan = plan_program(program, _level(args.level))
    return program, plan


def cmd_compile(args) -> int:
    program, plan = _compile(args)
    if args.emit == "ir":
        print(program.render())
        return 0
    if args.emit == "asdg":
        for block in program.blocks():
            print(build_asdg(block).render())
            print()
        return 0
    if args.emit == "plan":
        for block_plan in plan.block_plans.values():
            print(block_plan.partition.render())
            print("contracted:", sorted(block_plan.contracted))
            if block_plan.partial:
                print("row buffers:", block_plan.partial)
            print()
        print("surviving arrays:", sorted(plan.live_arrays()))
        stats = plan.cse_stats()
        if stats is not None:
            print(
                "cse: %d hoisted / %d uses (%d ops/point saved, "
                "%d shifted classes seen)"
                % (
                    stats.terms_hoisted,
                    stats.uses_replaced,
                    stats.saved_ops_per_point,
                    stats.shifted_classes,
                )
            )
        return 0
    scalar_program = scalarize(program, plan)
    if args.emit == "c":
        # The exact translation unit the c backend compiles: extern
        # repro_run entry point over caller-owned buffers.  render_c
        # (static storage + <prog>_main) stays available as a library
        # call for self-contained inspection.
        print(render_c_module(scalar_program), end="")
    elif args.emit == "np":
        print(render_numpy(scalar_program), end="")
    else:
        print(render_python(scalar_program), end="")
    return 0


def _print_scalars(scalars: Dict[str, object], prefix: str = "") -> None:
    for name in sorted(scalars):
        value = scalars[name]
        if isinstance(value, bool):
            text = str(value)
        elif math.isfinite(value) and float(value) == int(value):
            text = "%g" % float(value)
        else:
            text = repr(float(value))  # "nan" / "inf" / "-inf" included
        print("%s%s = %s" % (prefix, name, text))


#: --check fails when the fast path diverges from the interpreter by more.
CHECK_TOLERANCE = 1e-6

#: The semantic-anchor backend --check cross-executes against.
CHECK_BACKEND = "interp"


def _max_divergence(result, reference) -> float:
    """Max absolute element-wise difference between two execution results."""
    import numpy as np

    worst = 0.0
    for name, array in reference.arrays.items():
        other = result.arrays.get(name)
        if other is None or other.shape != array.shape:
            return float("inf")
        if array.size:
            worst = max(
                worst,
                float(
                    np.max(
                        np.abs(
                            np.asarray(other, dtype=np.float64)
                            - np.asarray(array, dtype=np.float64)
                        )
                    )
                ),
            )
    for name, value in reference.scalars.items():
        if name not in result.scalars:
            return float("inf")
        worst = max(worst, abs(float(result.scalars[name]) - float(value)))
    return worst


def cmd_run(args) -> int:
    program, plan = _compile(args)
    scalar_program = scalarize(program, plan)
    options = {}
    accepted = get_backend(args.backend).options
    for flag in ("procs", "local_backend"):
        value = getattr(args, flag)
        if value is None:
            continue
        if flag not in accepted:
            raise SystemExit(
                "--%s only applies to the %s backend (got --backend %s)"
                % (
                    flag.replace("_", "-"),
                    "/".join(
                        name
                        for name in BACKEND_CHOICES
                        if flag in get_backend(name).options
                    ),
                    args.backend,
                )
            )
        options[flag] = value
    result = execute(scalar_program, args.backend, **options)
    _print_scalars(result.scalars)
    if args.check:
        if args.backend == CHECK_BACKEND:
            print("check vs interp: backend is interp, divergence = 0")
            return 0
        reference = execute(scalar_program, CHECK_BACKEND)
        divergence = _max_divergence(result, reference)
        print("check vs interp: max |divergence| = %g" % divergence)
        if not divergence <= CHECK_TOLERANCE:
            print(
                "error: backend %r diverges from interp by %g (tolerance %g)"
                % (args.backend, divergence, CHECK_TOLERANCE),
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_estimate(args) -> int:
    program, plan = _compile(args)
    scalar_program = scalarize(program, plan)
    machine = MACHINES_BY_NAME[_MACHINE_ALIASES[args.machine]]
    if args.p > 1:
        cost = estimate_parallel(scalar_program, machine, args.p)
    else:
        cost = estimate_sequential(scalar_program, machine)
    print("machine        : %s" % machine.name)
    print("level          : %s" % args.level)
    print("processors     : %d" % args.p)
    print("arrays         : %d" % scalar_program.array_count())
    print("cycles         : %.0f" % cost.cycles)
    print("compute (us)   : %.1f" % cost.compute_microseconds)
    print("comm (us)      : %.1f" % cost.comm_microseconds)
    print("total (us)     : %.1f" % cost.microseconds)
    counts = cost.counts
    for index, misses in enumerate(counts.misses):
        print("L%d misses      : %.0f" % (index + 1, misses))
    print("loads / stores : %.0f / %.0f" % (counts.loads, counts.stores))
    return 0


def _load_requests(path: Optional[str]):
    import json

    if not path:
        return [None]
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path) as handle:
            raw = handle.read()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as error:
        raise ReproError(
            "--requests %s is not valid JSON: %s" % (path, error)
        ) from None
    if isinstance(data, dict) and "requests" in data:
        data = data["requests"]
    if not isinstance(data, list):
        raise ReproError(
            "--requests expects a JSON list of request objects "
            '(each like {"config": {"n": 512}})'
        )
    return [request if request else None for request in data]


def cmd_serve_daemon(args) -> int:
    """``repro serve --daemon``: serve until SIGTERM/SIGINT, then drain."""
    import signal
    import threading

    from repro.daemon import Daemon, DaemonConfig

    config = DaemonConfig(
        level=args.level,
        backend=args.backend,
        workers=args.daemon_workers,
        queue_depth=args.queue_depth,
        max_request_bytes=args.max_request_mb * 1024 * 1024,
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        persistent=not args.no_cache,
    )
    _level(args.level)  # fail fast on a bad level name
    daemon = Daemon(config, trace=True if args.trace_dir else None)
    stop_event = threading.Event()

    def _signal(signum, frame):
        stop_event.set()

    signal.signal(signal.SIGTERM, _signal)
    signal.signal(signal.SIGINT, _signal)
    daemon.start()
    print(
        "daemon listening on %s:%d  workers=%d queue-depth=%d "
        "level=%s backend=%s"
        % (
            config.host,
            daemon.port,
            config.workers,
            config.queue_depth,
            config.level,
            config.backend,
        ),
        flush=True,
    )
    stop_event.wait()
    print("draining...", flush=True)
    daemon.stop(drain=True)
    counters = daemon.metrics.snapshot()["counters"]
    print(
        "drained: %d requests, %d shed, %d worker restarts"
        % (
            counters.get("daemon.requests", 0),
            counters.get("daemon.shed", 0),
            counters.get("daemon.worker_restarts", 0),
        ),
        flush=True,
    )
    return 0


def cmd_serve(args) -> int:
    import json

    from repro.service import Service

    if args.daemon:
        return cmd_serve_daemon(args)
    source = _load(args)
    level = _level(args.level)
    service = Service(
        level=level,
        backend=args.backend,
        cache_dir=args.cache_dir,
        persistent=not args.no_cache,
        self_temp_policy=args.self_temp_policy,
        simplify=args.simplify,
        # --trace-dir forces tracing on; otherwise $REPRO_TRACE decides.
        trace=True if args.trace_dir else None,
    )
    base_config = dict(args.config or ())
    requests = _load_requests(args.requests)
    compiled = service.compile(source, level, base_config)
    print(
        "compiled %s  level=%s backend=%s  %s"
        % (
            compiled.digest[:12],
            compiled.level,
            compiled.backend,
            "cache hit" if compiled.from_cache else "cache miss (cold compile)",
        )
    )
    for round_index in range(max(args.repeat, 1)):
        results = service.submit_many(source, requests, config=base_config)
        if round_index > 0:
            continue  # print each distinct request's answer once
        for index, result in enumerate(results):
            _print_scalars(result.scalars, prefix="request %d: " % index)
    if args.stats or args.stats_json:
        stats = service.stats()
        text = json.dumps(stats, indent=2, sort_keys=True)
        if args.stats:
            print(text)
        if args.stats_json:
            with open(args.stats_json, "w") as handle:
                handle.write(text + "\n")
    _emit_serve_trace(service, compiled, args.trace_dir)
    return 0


def _emit_serve_trace(service, compiled, trace_dir: Optional[str]) -> None:
    """Export the serve run's spans per --trace-dir / $REPRO_TRACE.

    ``--trace-dir DIR`` writes one Chrome trace per run, named by the
    compiled digest.  Without it, a truthy ``$REPRO_TRACE`` prints the
    span tree to stderr — unless its value names a ``.json`` path, which
    gets the Chrome trace instead.
    """
    tracer = service.tracer
    if not tracer.enabled:
        return
    import os

    from repro.obs import env_trace_value, render_tree, write_chrome_trace

    spans = tracer.spans()
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, "serve-%s.json" % compiled.digest[:12])
        write_chrome_trace(spans, path)
        print("trace: %d spans -> %s" % (len(spans), path))
        return
    value = env_trace_value()
    if value.endswith(".json") or os.sep in value:
        write_chrome_trace(spans, value)
        print("trace: %d spans -> %s" % (len(spans), value))
    else:
        print(render_tree(spans), file=sys.stderr)


def cmd_trace(args) -> int:
    """Compile and execute once with tracing, print/export the spans."""
    from repro.obs import render_tree, write_chrome_trace
    from repro.service import Service

    source = _load(args)
    level = _level(args.level)
    # persistent=False: a trace should show the full pipeline, not a
    # disk-cache replay from an earlier invocation.
    service = Service(
        level=level,
        backend=args.backend,
        persistent=False,
        self_temp_policy=args.self_temp_policy,
        simplify=args.simplify,
        trace=True,
    )
    compiled = service.compile(source, level, dict(args.config or ()))
    compiled.execute()
    spans = service.tracer.spans()
    print(render_tree(spans))
    if args.out:
        write_chrome_trace(spans, args.out)
        print()
        print(
            "trace: %d spans -> %s (open in https://ui.perfetto.dev)"
            % (len(spans), args.out)
        )
    return 0


#: Formats ``repro stats`` can emit; unknown values are a usage error
#: with a nonzero exit (through the ReproError path).
STATS_FORMATS = ("json", "prom")


def cmd_backends(args) -> int:
    """List the execution-backend registry as an aligned table."""
    from repro.exec import BACKENDS, aliases_of
    from repro.exec.native import cc_available, find_cc
    from repro.util.tables import render_table

    rows = []
    for name in sorted(BACKENDS):
        backend = BACKENDS[name]
        if name == "c":
            available = "yes (%s)" % find_cc() if cc_available() else "no (no cc)"
        else:
            available = "yes"
        rows.append(
            (
                backend.name,
                ", ".join(aliases_of(name)) or "-",
                available,
                ", ".join("%s=" % option for option in backend.options) or "-",
                backend.description,
            )
        )
    print(
        render_table(
            ("backend", "aliases", "available", "options", "description"), rows
        )
    )
    return 0


def cmd_stats(args) -> int:
    import json
    import pickle
    import time

    from repro.service import ArtifactCache

    if args.format not in STATS_FORMATS:
        raise ReproError(
            "unknown stats format %r (choose from %s)"
            % (args.format, ", ".join(STATS_FORMATS))
        )
    cache = ArtifactCache(root=args.cache_dir)
    if args.format == "prom":
        from repro.obs import render_prometheus
        from repro.obs.registry import registered_counter_names
        from repro.service import Metrics

        # A fresh process has no traffic, but the scrape must still
        # carry every registered counter at zero (dashboards alert on
        # absent series, not on zeros).
        zeroes = Metrics()
        zeroes.register(registered_counter_names())
        print(
            render_prometheus(
                metrics_snapshot=zeroes.snapshot(),
                cache_stats=cache.stats(),
            ),
            end="",
        )
        return 0
    artifacts = []
    now = time.time()
    for path, size, mtime in cache.disk_entries():
        entry = {"path": path, "bytes": size, "age_s": round(now - mtime, 1)}
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
            payload = envelope.get("payload", {})
            entry.update(
                {
                    "digest": envelope.get("digest", "")[:12],
                    "level": payload.get("level"),
                    "backend": payload.get("backend"),
                    "config": payload.get("config"),
                    "code_version": envelope.get("code_version"),
                }
            )
        except Exception:
            entry["invalid"] = True
        artifacts.append(entry)
    print(
        json.dumps(
            {"cache": cache.stats(), "artifacts": artifacts},
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def cmd_figures(args) -> int:
    if args.name == "fig6":
        from repro.compilers import render_figure6

        print(render_figure6())
    elif args.name == "fig7":
        from repro.eval import render_figure7

        print(render_figure7())
    else:
        from repro.eval import render_figure8

        print(render_figure8())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "compile": cmd_compile,
        "run": cmd_run,
        "estimate": cmd_estimate,
        "serve": cmd_serve,
        "trace": cmd_trace,
        "backends": cmd_backends,
        "stats": cmd_stats,
        "figures": cmd_figures,
    }[args.command]
    try:
        return handler(args)
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0  # output piped to a closed reader (e.g. | head)


if __name__ == "__main__":
    raise SystemExit(main())
