"""The multiprocessing worker pool behind the daemon.

One OS process per worker on its own control pipe (a
:class:`repro.daemon.proc.Child`, the substrate ``mp-shard``'s ranks run
on too), and — the key structural choice — one *owner thread* per worker
inside the daemon process.  Each owner thread loops: take a digest batch
from the shared admission queue, send its metadata down the pipe, block
on the reply, resolve the jobs' futures.  There is no central
dispatcher; the shared queue *is* the dispatcher, and because an owner
thread knows exactly which jobs are in flight on its worker, crash
recovery is local arithmetic rather than global bookkeeping.

Crash path (pipe EOF): the owner thread unlinks any response segments
the dead worker may have created (their names are deterministic),
requeues the in-flight jobs at the *head* of the queue (bounded retries;
jobs past the limit fail their futures instead of retrying forever), and
forks a replacement worker — all without the queue, the HTTP threads or
the sibling workers noticing.

Start method: ``fork`` where the platform offers it (workers inherit the
imported compiler, so the first request doesn't pay ~0.5 s of import
time), ``spawn`` elsewhere; ``REPRO_DAEMON_MP`` overrides.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Dict, List, Optional

from repro.daemon import proc, shm
from repro.daemon.admission import AdmissionQueue, Job
from repro.daemon.worker import worker_main
from repro.obs.tracer import NOOP_SPAN

#: A crashed job is retried this many times before its future fails.
MAX_RETRIES = 1


def default_start_method() -> str:
    override = os.environ.get("REPRO_DAEMON_MP")
    if override:
        return override
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class WorkerPool:
    """N worker processes pulling digest batches off one admission queue."""

    def __init__(
        self,
        queue: AdmissionQueue,
        settings: Dict[str, object],
        workers: int,
        metrics,
        tracer=None,
        batch_max: int = 8,
        mp_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("worker count must be >= 1")
        self.queue = queue
        self.settings = dict(settings)
        self.workers = workers
        self.metrics = metrics
        self.tracer = tracer
        self.batch_max = max(1, batch_max)
        self.token = settings["token"]
        self._ctx = multiprocessing.get_context(mp_method or default_start_method())
        self._threads: List[threading.Thread] = []
        self._children: Dict[int, proc.Child] = {}
        self._lock = threading.Lock()
        self._stopping = False
        #: True during a non-draining stop: owner threads fail remaining
        #: queued jobs instead of executing them.
        self._kill_mode = False
        self._restarts = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        for worker_id in range(self.workers):
            self._spawn(worker_id)
            thread = threading.Thread(
                target=self._owner_loop,
                args=(worker_id,),
                name="repro-daemon-owner-%d" % worker_id,
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def stop(self, drain: bool = True) -> None:
        """Shut the pool down.

        ``drain=True`` (SIGTERM semantics): stop admitting, let every
        queued and in-flight job finish, then stop the workers.
        ``drain=False``: terminate workers immediately; queued jobs fail.
        """
        with self._lock:
            self._stopping = True
            if not drain:
                self._kill_mode = True
        if not drain:
            with self._lock:
                children = list(self._children.values())
            for child in children:
                child.process.terminate()
        self.queue.close()
        for thread in self._threads:
            thread.join()
        with self._lock:
            children = list(self._children.values())
            self._children.clear()
        for child in children:
            child.join(10)

    # -- introspection -----------------------------------------------------

    def restart_count(self) -> int:
        with self._lock:
            return self._restarts

    def worker_pids(self) -> List[int]:
        with self._lock:
            return sorted(
                child.process.pid for child in self._children.values()
                if child.process.pid
            )

    def kill_worker(self, index: int = 0) -> Optional[int]:
        """Fault injection for tests: SIGKILL one live worker, return pid."""
        with self._lock:
            children = sorted(self._children.items())
        if not children or index >= len(children):
            return None
        pid = children[index][1].process.pid
        if pid:
            os.kill(pid, 9)
        return pid

    # -- internals ---------------------------------------------------------

    def _spawn(self, worker_id: int) -> None:
        child = proc.Child(
            self._ctx, worker_main, (worker_id, self.settings),
            "repro-daemon-worker-%d" % worker_id,
        )
        with self._lock:
            self._children[worker_id] = child

    def _owner_loop(self, worker_id: int) -> None:
        while True:
            batch = self.queue.take_batch(self.batch_max)
            if batch is None:
                self._stop_worker(worker_id)
                return
            if self._kill_mode:
                for job in batch:
                    if not job.future.done():
                        job.future.set_exception(
                            RuntimeError("daemon stopped before execution")
                        )
                continue
            self._run_batch(worker_id, batch)

    def _run_batch(self, worker_id: int, batch: List[Job]) -> None:
        with self._lock:
            child = self._children[worker_id]
        self.metrics.incr("daemon.dispatches")
        now = time.monotonic()
        for job in batch:
            if job.enqueued_at:
                self.metrics.observe("daemon.queue_wait", now - job.enqueued_at)
        span_cm = (
            self.tracer.span(
                "daemon.dispatch",
                digest=batch[0].digest,
                batch=len(batch),
                worker=worker_id,
            )
            if self.tracer is not None and self.tracer.enabled
            else NOOP_SPAN
        )
        payload = [
            {
                "id": job.id,
                "spec": job.spec,
                "shm_name": job.shm_name,
                "shm_meta": job.shm_meta,
            }
            for job in batch
        ]
        with span_cm, self.metrics.time("daemon.dispatch"):
            try:
                child.send(("jobs", payload))
                message = child.recv()
            except proc.ChildDied:
                self._recover(worker_id, batch)
                return
        replies = {reply["id"]: reply for reply in message[2]}
        for job in batch:
            reply = replies.get(job.id)
            if reply is None:
                reply = {
                    "id": job.id,
                    "ok": False,
                    "error": "worker returned no reply for job %d" % job.id,
                }
            if reply.get("compiled"):
                self.metrics.incr(
                    "daemon.worker_compiles", reply["compiled"]
                )
            if reply.get("cc"):
                self.metrics.incr("daemon.worker_cc", reply["cc"])
            if reply.get("coalesced"):
                self.metrics.incr("daemon.coalesced")
            reply["worker"] = worker_id
            if not job.future.done():
                job.future.set_result(reply)

    def _recover(self, worker_id: int, inflight: List[Job]) -> None:
        """A worker died mid-batch: clean up, requeue, restart."""
        with self._lock:
            child = self._children.pop(worker_id, None)
        if child is not None:
            child.stop()
            child.join(5)
        # The worker may have created response segments before dying;
        # their deterministic names make them reachable without a reply.
        for job in inflight:
            shm.unlink_quietly(shm.segment_name(self.token, job.id, "out"))
        retry: List[Job] = []
        for job in inflight:
            job.retries += 1
            if self._kill_mode or job.retries > MAX_RETRIES:
                if not job.future.done():
                    job.future.set_exception(
                        RuntimeError(
                            "worker crashed executing job %d (retries "
                            "exhausted)" % job.id
                        )
                    )
            else:
                self.metrics.incr("daemon.requeued")
                retry.append(job)
        if retry:
            self.queue.requeue_front(retry)
        if self._kill_mode:
            return
        self.metrics.incr("daemon.worker_restarts")
        with self._lock:
            self._restarts += 1
        self._spawn(worker_id)

    def _stop_worker(self, worker_id: int) -> None:
        # Joined by stop(), which still finds the child in the table.
        with self._lock:
            child = self._children.get(worker_id)
        if child is not None:
            child.stop()
