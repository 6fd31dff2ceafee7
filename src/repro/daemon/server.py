"""The daemon front end: HTTP admission over a multiprocessing pool.

Request dataflow (one POST /execute)::

    client --frame--> HTTP thread --pack--> shared memory
                         |                       |
                     admission queue ---> owner thread ---> worker process
                         |                       |               |
                      (full? shed 503)       pipe (metadata)  execute
                                                 |               |
    client <--frame-- HTTP thread <--views-- shared memory <--pack--

The HTTP layer never touches array payloads beyond one copy into (and
one out of) shared memory; workers execute over views of the same
pages.  Admission is strictly bounded: a full queue sheds with an
explicit 503 (``daemon.shed``), an oversized payload is rejected with
413 (``daemon.oversized``) before any segment is created.

Latency plumbing matters at this layer's time scale: Nagle's algorithm
interacting with delayed ACKs turns a small request/response pair into
a ~40 ms round trip, so the server disables Nagle and writes each
response through a large buffer in one flush; clients should set
TCP_NODELAY too (:class:`repro.daemon.client.DaemonClient` does).
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional

from repro.daemon import protocol, shm
from repro.daemon.admission import AdmissionQueue, Job
from repro.daemon.pool import WorkerPool
from repro.exec import get_backend
from repro.fusion import resolve_level
from repro.obs.prom import render_prometheus
from repro.obs.tracer import NOOP_SPAN, resolve_tracer
from repro.service import fingerprint
from repro.service.metrics import Metrics
from repro.util.errors import ReproError


@dataclass
class DaemonConfig:
    """Everything ``repro serve --daemon`` can set."""

    level: str = "c2"
    backend: str = "codegen_np"
    workers: int = 2
    queue_depth: int = 64
    batch_max: int = 8
    #: Per-request bound on total array payload bytes (64 MiB).
    max_request_bytes: int = 64 * 1024 * 1024
    host: str = "127.0.0.1"
    #: 0 picks an ephemeral port (the bound port is on ``Daemon.port``);
    #: the CLI rejects 0 so operators always get a stable address.
    port: int = 0
    cache_dir: Optional[str] = None
    persistent: bool = True
    request_timeout_s: float = 120.0
    mp_method: Optional[str] = None


class Daemon:
    """One serving daemon: HTTP front end + admission + worker pool."""

    def __init__(self, config: Optional[DaemonConfig] = None, trace=None) -> None:
        self.config = config or DaemonConfig()
        if get_backend(self.config.backend).name == "mp-shard":
            # Workers are daemonic by design and may not fork ranks: say
            # so once, here, not on every request.
            from repro.exec.mp_shard import DAEMONIC_MESSAGE

            raise ReproError(DAEMONIC_MESSAGE)
        self.metrics = Metrics()
        from repro.obs.registry import registered_counter_names

        self.metrics.register(registered_counter_names())
        self.tracer = resolve_tracer(trace)
        self.token = shm.session_token()
        self.queue = AdmissionQueue(self.config.queue_depth)
        self.pool = WorkerPool(
            self.queue,
            settings={
                "level": self.config.level,
                "backend": self.config.backend,
                "cache_dir": self.config.cache_dir,
                "persistent": self.config.persistent,
                "token": self.token,
            },
            workers=self.config.workers,
            metrics=self.metrics,
            tracer=self.tracer,
            batch_max=self.config.batch_max,
            mp_method=self.config.mp_method,
        )
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._job_ids = iter(range(1, 1 << 62))
        self._job_id_lock = threading.Lock()
        self._inflight_http = 0
        self._inflight_cond = threading.Condition()
        self.port: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.pool.start()
        daemon = self

        class Handler(_ExecuteHandler):
            pass

        Handler.daemon_ref = daemon
        server = _Server((self.config.host, self.config.port), Handler)
        self._server = server
        self.port = server.server_address[1]
        self._server_thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-daemon-http",
            daemon=True,
        )
        self._server_thread.start()

    def stop(self, drain: bool = True) -> None:
        """Stop serving.  ``drain=True`` finishes admitted work first."""
        if self._server is not None:
            self._server.shutdown()
        self.pool.stop(drain=drain)
        deadline = time.monotonic() + 10.0
        with self._inflight_cond:
            while self._inflight_http and time.monotonic() < deadline:
                self._inflight_cond.wait(timeout=0.2)
        if self._server is not None:
            self._server.server_close()
        if self._server_thread is not None:
            self._server_thread.join(timeout=5)

    def __enter__(self) -> "Daemon":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop(drain=True)

    # -- request handling --------------------------------------------------

    def _next_job_id(self) -> int:
        with self._job_id_lock:
            return next(self._job_ids)

    def _track(self):
        daemon = self

        class _Tracker:
            def __enter__(self):
                with daemon._inflight_cond:
                    daemon._inflight_http += 1

            def __exit__(self, *exc):
                with daemon._inflight_cond:
                    daemon._inflight_http -= 1
                    daemon._inflight_cond.notify_all()

        return _Tracker()

    def execute_frame(self, body: bytes):
        """Run one framed request; returns (status, content_type, body).

        This is the whole execute path minus HTTP — the handler calls
        it, and tests can drive it directly without a socket.
        """
        self.metrics.incr("daemon.requests")
        started = time.perf_counter()
        try:
            head, arrays = protocol.decode_frame(body)
            protocol.validate_request_head(head)
        except protocol.ProtocolError as error:
            self.metrics.incr("daemon.errors")
            return _json_error(400, str(error))
        # Resolve names at admission: a typo is the client's error (400,
        # no queue slot, no worker dispatch), and an alias must batch with
        # its canonical spelling, so the digest hashes canonical names.
        try:
            level = resolve_level(head.get("level"), self.config.level).name
            backend = get_backend(head.get("backend") or self.config.backend).name
        except ReproError as error:
            self.metrics.incr("daemon.errors")
            return _json_error(400, str(error))
        digest = fingerprint.source_digest(
            head["program"], level, head.get("config"), backend
        )
        span_cm = (
            self.tracer.span("daemon.request", digest=digest)
            if self.tracer.enabled
            else NOOP_SPAN
        )
        with span_cm as span:
            status, ctype, payload = self._admit_and_wait(
                head, arrays, digest, level, backend
            )
            span.set("status", status)
        self.metrics.observe("daemon.request", time.perf_counter() - started)
        return status, ctype, payload

    def _admit_and_wait(self, head, arrays, digest, level, backend):
        total_bytes = shm.measure(arrays) if arrays else 0
        if total_bytes > self.config.max_request_bytes:
            self.metrics.incr("daemon.oversized")
            return _json_error(
                413,
                "request arrays total %d bytes, limit is %d"
                % (total_bytes, self.config.max_request_bytes),
            )
        job_id = self._next_job_id()
        in_name = None
        in_shm = None
        in_meta = ()
        if arrays:
            in_name = shm.segment_name(self.token, job_id, "in")
            try:
                in_shm, in_meta = shm.pack(
                    in_name, arrays, max_bytes=self.config.max_request_bytes
                )
            except shm.ShmError as error:
                self.metrics.incr("daemon.oversized")
                return _json_error(413, str(error))
        job = Job(
            id=job_id,
            digest=digest,
            spec={
                "program": head["program"],
                "level": head.get("level"),
                "backend": head.get("backend"),
                "config": head.get("config"),
                "want_arrays": head.get("want_arrays"),
                "delay_s": head.get("delay_s"),
            },
            shm_name=in_name,
            shm_meta=in_meta,
            enqueued_at=time.monotonic(),
        )
        try:
            if not self.queue.offer(job):
                self.metrics.incr("daemon.shed")
                return _json_error(
                    503,
                    "queue full (depth %d): request shed, retry with "
                    "backoff" % self.config.queue_depth,
                )
            try:
                reply = job.future.result(timeout=self.config.request_timeout_s)
            except (FutureTimeout, TimeoutError):
                self.metrics.incr("daemon.errors")
                return _json_error(
                    504,
                    "request timed out after %gs" % self.config.request_timeout_s,
                )
            except Exception as error:
                self.metrics.incr("daemon.errors")
                return _json_error(500, str(error))
            return self._render_reply(reply, level, backend)
        finally:
            if in_shm is not None:
                shm.close_quietly(in_shm)
                shm.unlink_quietly(in_name)

    def _render_reply(self, reply: Dict[str, object], level, backend):
        if not reply.get("ok"):
            self.metrics.incr("daemon.errors")
            return _json_error(500, str(reply.get("error", "execution failed")))
        out_arrays = {}
        out_shm = None
        out_name = reply.get("out_name")
        try:
            if out_name:
                out_shm = shm.attach(out_name)
                out_arrays = shm.views(out_shm, reply["out_meta"])
            frame = protocol.encode_frame(
                {
                    "ok": True,
                    "digest": reply.get("digest"),
                    "scalars": reply.get("scalars") or {},
                    "compiled": reply.get("compiled", 0),
                    "cc": reply.get("cc", 0),
                    "worker": reply.get("worker"),
                },
                out_arrays,
            )
        finally:
            if out_shm is not None:
                shm.close_quietly(out_shm)
            if out_name:
                shm.unlink_quietly(out_name)
        return 200, protocol.CONTENT_TYPE, frame

    # -- introspection -----------------------------------------------------

    def health(self) -> Dict[str, object]:
        counters = self.metrics.snapshot()["counters"]
        return {
            "ok": True,
            "workers": self.pool.worker_pids(),
            "worker_restarts": self.pool.restart_count(),
            "queue_depth": self.config.queue_depth,
            "queued": len(self.queue),
            "counters": counters,
        }

    def metrics_text(self) -> str:
        return render_prometheus(self.metrics.snapshot())


def _json_error(status: int, message: str):
    body = json.dumps({"ok": False, "status": status, "error": message})
    return status, "application/json", body.encode("utf-8")


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    #: Handler threads are tracked/joined by the daemon's own in-flight
    #: accounting; joining idle keep-alive readers here would hang close.
    block_on_close = False
    allow_reuse_address = True
    #: Deep listen backlog: a burst of N clients connecting at once must
    #: queue in the kernel, not get RST (the default backlog is 5).
    request_queue_size = 128


class _ExecuteHandler(BaseHTTPRequestHandler):
    daemon_ref: Daemon = None  # patched per Daemon.start
    protocol_version = "HTTP/1.1"
    #: Nagle + delayed ACK costs ~40 ms per small round trip; the daemon
    #: serves sub-millisecond responses, so flush eagerly and often.
    disable_nagle_algorithm = True
    wbufsize = 64 * 1024
    #: Idle keep-alive connections close themselves, so shutdown never
    #: waits on a silent client.
    timeout = 30

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _respond(self, status: int, content_type: str, body: bytes) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass

    def do_POST(self) -> None:
        daemon = self.daemon_ref
        if self.path != "/execute":
            self._respond(*_json_error(404, "unknown path %r" % self.path))
            return
        with daemon._track():
            try:
                length = int(self.headers.get("Content-Length", "0"))
                body = self.rfile.read(length)
            except (ValueError, OSError):
                self._respond(*_json_error(400, "unreadable request body"))
                return
            self._respond(*daemon.execute_frame(body))

    def do_GET(self) -> None:
        daemon = self.daemon_ref
        if self.path == "/metrics":
            body = daemon.metrics_text().encode("utf-8")
            self._respond(200, "text/plain; version=0.0.4", body)
        elif self.path == "/healthz":
            body = json.dumps(daemon.health(), sort_keys=True).encode("utf-8")
            self._respond(200, "application/json", body)
        else:
            self._respond(*_json_error(404, "unknown path %r" % self.path))
