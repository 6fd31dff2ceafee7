"""``serve_mix``: two clients against ``repro serve --daemon``.

The daemon runs as a separate process, started the way an operator would
start it.  Load is a closed loop: two keep-alive clients, each sending its
next request when the previous reply arrives, working through a request
schedule that is a pure function of the seed:

* 70 % from a hot set (6 programs x 3 small sizes), compiled during set-up,
  scalar-only, so they repeat and may coalesce;
* 20 % from a long tail (6 programs x 6 larger sizes) that nothing has
  compiled: the first request for each of the 36 pays a cold compile with
  a ``cc`` run, later ones a hit in that worker's memory or on disk;
* 10 % a five-point relaxation whose input array travels in the request
  and whose result array travels back, both through shared memory.

The schedule has a fixed length for a given ``--seconds`` (200 requests
per second asked for), so the cold compiles are the same 36 in every run
and the 99th percentile sits inside them.
"""

from __future__ import annotations

import os
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import List, Tuple

import numpy as np

from e2ebench import oracle, pipeline
from e2ebench.env import REPO_ROOT
from e2ebench.stats import flatten, percentile
from e2ebench.workload import Measured

LEVEL = "c2+f4+cse"
BACKEND = "c"
CLIENTS = 2
WORKERS = 2
REQUESTS_PER_SECOND = 200
#: Requests of each client between two yardstick bursts (about half a second).
PAUSE_EVERY = 100
GATE_TIMEOUT_S = 150
#: What the issue called each class of timed operation.
ISSUE_NAMES = {
    "hot": "latency_p50_ms.hot",
    "tail": "latency_p50_ms.tail",
    "relax": "latency_p50_ms.relax",
}
HOT_SIZES = (16, 24, 32)
TAIL_SIZES = (40, 52, 64, 76, 88, 100)
RELAX_SIZE = 64
HOT_SHARE, TAIL_SHARE = 0.70, 0.20

RELAX = """
program relax;
config n : integer = 64;
config steps : integer = 2;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var A, B : [R] float;
var t : integer;
var s : float;
begin
  for t := 1 to steps do
    [I] B := (A@(-1,0) + A@(1,0) + A@(0,-1) + A@(0,1)) * 0.25;
    [I] A := B;
  end;
  s := +<< [R] A;
end;
"""

#: One request of the schedule: (class, program name, region size, array seed).
Request = Tuple[str, str, int, int]


def program_names(smoke: bool) -> List[str]:
    from repro.benchsuite import ALL_BENCHMARKS

    names = [bench.name for bench in ALL_BENCHMARKS]
    return ["Frac", "Fibro"] if smoke else names


def sizes(smoke: bool):
    return ((10, 12), (14,), 16) if smoke else (HOT_SIZES, TAIL_SIZES, RELAX_SIZE)


def schedule(seed: int, count: int, names, hot_sizes, tail_sizes, relax_size) -> List[List[Request]]:
    """The request lists of the clients; a pure function of its arguments."""
    rng = random.Random(seed)
    per_client: List[List[Request]] = [[] for _ in range(CLIENTS)]
    for index in range(count):
        draw = rng.random()
        if draw < HOT_SHARE:
            request = ("hot", rng.choice(names), rng.choice(hot_sizes), 0)
        elif draw < HOT_SHARE + TAIL_SHARE:
            request = ("tail", rng.choice(names), rng.choice(tail_sizes), 0)
        else:
            request = ("relax", "relax", relax_size, rng.randrange(1 << 31))
        per_client[index % CLIENTS].append(request)
    return per_client


def relax_input(size: int, array_seed: int) -> np.ndarray:
    """The request array in allocation layout: the region plus a zero halo."""
    padded = np.zeros((size + 2, size + 2))
    padded[1:-1, 1:-1] = np.random.default_rng(array_seed).random((size, size))
    return padded


def relax_reference(padded: np.ndarray):
    x = padded[1:-1, 1:-1].copy()
    for _ in range(2):
        x[1:-1, 1:-1] = (x[:-2, 1:-1] + x[2:, 1:-1] + x[1:-1, :-2] + x[1:-1, 2:]) * 0.25
    return x, x.sum()


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class State:
    def __init__(self) -> None:
        self.proc = None
        self.port = 0
        self.log_path = ""
        self.names: List[str] = []
        self.sizes = None
        self.stopped = False


def _call(request: Request) -> dict:
    """The ``DaemonClient.execute`` arguments of one scheduled request."""
    from repro.benchsuite import get_benchmark

    kind, name, size, array_seed = request
    if kind == "relax":
        return {
            "program": RELAX,
            "arrays": {"A": relax_input(size, array_seed)},
            "config": {"n": size},
            "want_arrays": ["A"],
        }
    bench = get_benchmark(name)
    return {"program": bench.source, "config": oracle.bench_config(bench, size)}


def setup(ctx) -> State:
    from repro.daemon import DaemonClient

    state = State()
    state.names = program_names(ctx.smoke)
    state.sizes = sizes(ctx.smoke)
    state.port = _free_port()
    scratch = ctx.scratch_dir("serve")
    state.log_path = os.path.join(scratch, "daemon.log")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    command = [
        sys.executable, "-m", "repro", "serve", "-", "--daemon",
        "--port", str(state.port),
        "--daemon-workers", str(WORKERS),
        "--backend", BACKEND,
        "--level", LEVEL,
        "--cache-dir", os.path.join(scratch, "cache"),
    ]
    with open(state.log_path, "w") as log:
        state.proc = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT, env=env
        )
    ctx.cleanup.callback(teardown, ctx, state)

    deadline = time.monotonic() + 60
    while True:
        if state.proc.poll() is not None:
            raise RuntimeError("daemon exited during start-up; see %s" % state.log_path)
        try:
            with DaemonClient(port=state.port, timeout=5) as client:
                client.health()
            break
        except OSError:
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not come up within 60 s")
            time.sleep(0.05)

    # Warm the hot set from both clients at once, as the timed phase will run.
    hot = [("hot", name, size, 0) for name in state.names for size in state.sizes[0]]
    hot.append(("relax", "relax", state.sizes[2], 1))
    _drive(state, [hot[index::CLIENTS] for index in range(CLIENTS)])
    return state


def _drive(state: State, per_client, spans=None, measured=None, pause=None) -> None:
    """Run the client threads to the end of their (equally long) lists.

    With ``pause``, every client stops after each ``PAUSE_EVERY`` of its
    requests; once all are idle ``pause()`` runs, then they go on.
    """
    from repro.daemon import DaemonClient, DaemonError

    replies = [[] for _ in per_client]
    errors = []
    gate = threading.Barrier(len(per_client) + 1)

    def client_loop(index: int) -> None:
        try:
            with DaemonClient(port=state.port, timeout=120) as client:
                for number, request in enumerate(per_client[index]):
                    if pause and number and number % PAUSE_EVERY == 0:
                        gate.wait(GATE_TIMEOUT_S)  # idle ...
                        gate.wait(GATE_TIMEOUT_S)  # ... until the yardstick has run
                    call = _call(request)
                    try:
                        if spans is None:
                            client.execute(**call)
                            continue
                        label = "%s/%s/n%d#%d.%d" % (*request[:3], index, number)
                        with spans.span("daemon.request", label) as span:
                            reply = client.execute(**call)
                        replies[index].append((request, span, reply))
                    except (DaemonError, OSError) as error:
                        errors.append("%r: %s" % (request, error))
        except BaseException:
            gate.abort()  # nobody waits for a client that is gone
            raise

    threads = [
        threading.Thread(target=client_loop, args=(index,), name="client-%d" % index)
        for index in range(len(per_client))
    ]
    for thread in threads:
        thread.start()
    try:
        if pause:
            for _ in range((len(per_client[0]) - 1) // PAUSE_EVERY):
                gate.wait(GATE_TIMEOUT_S)
                pause()
                gate.wait(GATE_TIMEOUT_S)
    except threading.BrokenBarrierError:
        raise RuntimeError("a client thread died or hung; see its traceback above")
    except BaseException:
        gate.abort()  # interrupted: the clients must not wait for this thread
        raise
    finally:
        for thread in threads:
            thread.join()
    if measured is None:
        if errors:
            raise RuntimeError("warm-up requests failed: %s" % errors[:3])
        return
    measured.attempted += len(errors)
    measured.problems += errors
    for client_replies in replies:
        for request, span, _reply in client_replies:
            measured.add(request[0], "%s/n%d" % (request[1], request[2]), span)
    measured.kept["replies"] = [row for client_replies in replies for row in client_replies]


def measure(ctx, state: State, seconds: float) -> Measured:
    from repro.daemon import DaemonClient

    measured = Measured(clients=CLIENTS)
    count = 120 if ctx.smoke else max(200, int(REQUESTS_PER_SECOND * seconds))
    per_client = schedule(ctx.seed, count - count % CLIENTS, state.names, *state.sizes)
    # The yardstick needs an idle machine: both clients pause while it runs.
    ctx.calibrator.burst()
    _drive(state, per_client, ctx.spans, measured, ctx.calibrator.burst)
    ctx.calibrator.burst()
    with DaemonClient(port=state.port, timeout=30) as client:
        measured.kept["health"] = client.health()
        measured.kept["metrics_text"] = client.metrics()
    if measured.kept["health"]["worker_restarts"]:
        measured.problems.append("a daemon worker restarted")
    return measured


def teardown(ctx, state: State) -> None:
    """Stop the daemon (SIGTERM drains it), then check it left nothing behind."""
    from repro.daemon import shm

    if state.stopped or state.proc is None:
        return
    state.stopped = True
    proc = state.proc
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            ctx.leaks.append("daemon ignored SIGTERM and was killed")
    token = "%x" % proc.pid
    for name in shm.leaked_segments(token):
        ctx.leaks.append("shm:" + name)
        shm.unlink_quietly(name)


def verify(ctx, state: State, measured: Measured):
    """Every reply against a reference computed in this process."""
    from repro.benchsuite import get_benchmark
    from repro.service import Service

    service = Service(level=LEVEL, backend=BACKEND, persistent=False)
    checks, problems, references = 0, [], {}
    for name in state.names:
        bench = get_benchmark(name)
        checks += 1
        problems += oracle.small_gate(service, bench, [(LEVEL, BACKEND)])
    for request, _span, reply in measured.kept["replies"]:
        kind, name, size, array_seed = request
        checks += 1
        if kind == "relax":
            want_array, want_sum = relax_reference(relax_input(size, array_seed))
            good = oracle.close(reply["scalars"]["s"], want_sum) and oracle.close(
                reply["arrays"]["A"][1:-1, 1:-1], want_array
            )
        else:
            bench = get_benchmark(name)
            if (name, size) not in references:
                references[(name, size)] = oracle.numpy_baseline(
                    service, bench, oracle.bench_config(bench, size)
                ).scalars
            good = oracle.scalars_close(
                reply["scalars"], references[(name, size)], bench.check_scalars
            )
        if not good:
            problems.append("reply to %r differs from its reference" % (request,))
    return checks, problems


_PROM_LINE = re.compile(r'^repro_timer_seconds_(sum|count)\{name="([^"]+)"\} (\S+)$')


def timer_means(metrics_text: str) -> dict:
    """Mean seconds per timer from the daemon's Prometheus exposition."""
    sums, counts = {}, {}
    for line in metrics_text.splitlines():
        match = _PROM_LINE.match(line)
        if match:
            (sums if match.group(1) == "sum" else counts)[match.group(2)] = float(match.group(3))
    return {name: sums[name] / counts[name] for name in sums if counts.get(name)}


def layers(ctx, state: State, measured: Measured) -> dict:
    from repro.daemon import DaemonClient, protocol, shm

    spans = ctx.spans
    counters = measured.kept["health"]["counters"]
    means = timer_means(measured.kept["metrics_text"])
    requests = counters.get("daemon.requests", 0)
    dispatches = counters.get("daemon.dispatches", 0)
    shed = counters.get("daemon.shed", 0)
    out = {
        "daemon.request_p99_ms": percentile(flatten(measured.samples), 0.99) * 1e3,
        "daemon.queue_wait_ms": means.get("daemon.queue_wait", 0.0) * 1e3,
        "daemon.dispatch_ms": means.get("daemon.dispatch", 0.0) * 1e3,
        "daemon.batch_size_mean": (requests - shed) / dispatches if dispatches else 0.0,
        "daemon.coalesced": counters.get("daemon.coalesced", 0),
        "daemon.worker_compiles": counters.get("daemon.worker_compiles", 0),
        "daemon.worker_cc": counters.get("daemon.worker_cc", 0),
        "daemon.shed": shed,
        "daemon.worker_restarts": measured.kept["health"]["worker_restarts"],
        "daemon.compiles_per_1k_req": (
            counters.get("daemon.worker_compiles", 0) / requests * 1e3 if requests else 0.0
        ),
    }

    arrays = {"A": relax_input(state.sizes[2], 7)}
    head = {"program": RELAX, "config": {"n": state.sizes[2]}, "want_arrays": ["A"]}
    encodes, decodes, packs = [], [], []
    for index in range(50):
        with spans.span("daemon.encode") as span:
            frame = protocol.encode_frame(head, arrays)
        encodes.append(span.seconds)
        with spans.span("daemon.decode") as span:
            protocol.decode_frame(frame, copy=True)
        decodes.append(span.seconds)
        name = shm.segment_name("e2e%x" % os.getpid(), index, "in")
        with spans.span("daemon.shm_pack") as span:
            segment, _meta = shm.pack(name, arrays)
        packs.append(span.seconds)
        shm.close_quietly(segment)
        shm.unlink_quietly(name)
    out["daemon.encode_us"] = statistics.median(encodes) * 1e6
    out["daemon.decode_us"] = statistics.median(decodes) * 1e6
    out["daemon.shm_pack_us"] = statistics.median(packs) * 1e6

    floors = []
    with DaemonClient(port=state.port, timeout=30) as client:
        client.execute(pipeline.ONE_POINT)
        for _ in range(20 if ctx.smoke else 200):
            with spans.span("daemon.transport_floor") as span:
                client.execute(pipeline.ONE_POINT)
            floors.append(span.seconds)
    out["daemon.transport_floor_ms"] = statistics.median(floors) * 1e3
    return out
