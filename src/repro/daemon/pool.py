"""The multiprocessing worker pool behind the daemon.

One forked OS process per worker on its own control pipe (a
:class:`repro.daemon.proc.Child`, the substrate ``mp-shard``'s ranks run
on too), and — the key structural choice — one *owner thread* per worker
inside the daemon process.  Each owner thread loops: take the head job
from the shared admission queue, send its metadata down the pipe, block
on the one reply, resolve the job's future.  There is no central
dispatcher; the shared queue *is* the dispatcher, and because an owner
thread knows exactly which job is in flight on its worker, crash
recovery is local arithmetic rather than global bookkeeping.

Crash path (pipe EOF): the owner thread unlinks the response segment
the dead worker may have created (its name is deterministic), requeues
the in-flight job at the *head* of the queue (bounded retries; a job
past the limit fails its future instead of retrying forever), and forks
a replacement worker — all without the queue, the HTTP threads or the
sibling workers noticing.

Workers are forked, as ``mp-shard``'s ranks are: they inherit the
imported compiler, so the first request doesn't pay ~0.5 s of import
time.
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


class WorkerPool:
    """N worker processes pulling jobs off one admission queue."""

    def __init__(
        self,
        queue: AdmissionQueue,
        settings: Dict[str, object],
        workers: int,
        metrics,
        tracer=None,
        drain_s: float = 120.0,
    ) -> None:
        if workers < 1:
            raise ValueError("worker count must be >= 1")
        self.queue = queue
        self.settings = dict(settings)
        self.workers = workers
        self.metrics = metrics
        self.tracer = tracer
        #: How long a draining stop waits for admitted work (the daemon's
        #: request timeout: no client waits longer for a reply anyway).
        self.drain_s = drain_s
        self.token = settings["token"]
        self._ctx = multiprocessing.get_context("fork")
        self._threads: List[threading.Thread] = []
        self._children: Dict[int, proc.Child] = {}
        self._lock = threading.Lock()
        #: True during a non-draining stop: owner threads fail remaining
        #: queued jobs instead of executing them.
        self._kill_mode = False
        self._restarts = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        for worker_id in range(self.workers):
            self._fork(worker_id)
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
        queued and in-flight job finish, then stop the workers.  The
        drain is bounded by ``drain_s`` from its start: a job still
        running then (a ``while`` loop that never ends) has its worker
        terminated, fails, and leaves no segment behind, as does every
        job still queued.
        ``drain=False``: terminate workers immediately; queued jobs fail.
        """
        if not drain:
            self._terminate_all()
        self.queue.close()
        deadline = time.monotonic() + self.drain_s
        for thread in self._threads:
            thread.join(max(deadline - time.monotonic(), 0.0))
        if any(thread.is_alive() for thread in self._threads):
            self._terminate_all()
        for thread in self._threads:
            thread.join()
        with self._lock:
            children = list(self._children.values())
            self._children.clear()
        for child in children:
            child.join(10)

    def _terminate_all(self) -> None:
        """Fail what is left: owner threads fail queued jobs and recover
        (unlink, no restart) from the workers terminated here."""
        with self._lock:
            self._kill_mode = True
            children = list(self._children.values())
        for child in children:
            child.process.terminate()

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

    def _fork(self, worker_id: int) -> None:
        child = proc.Child(
            self._ctx, worker_main, (self.settings,),
            "repro-daemon-worker-%d" % worker_id,
        )
        with self._lock:
            self._children[worker_id] = child

    def _owner_loop(self, worker_id: int) -> None:
        while True:
            job = self.queue.take()
            if job is None:
                self._stop_worker(worker_id)
                return
            if self._kill_mode:
                if not job.future.done():
                    job.future.set_exception(
                        RuntimeError("daemon stopped before execution")
                    )
                continue
            self._run_job(worker_id, job)

    def _run_job(self, worker_id: int, job: Job) -> None:
        with self._lock:
            child = self._children[worker_id]
        self.metrics.incr("daemon.dispatches")
        if job.enqueued_at:
            self.metrics.observe(
                "daemon.queue_wait", time.monotonic() - job.enqueued_at
            )
        span_cm = (
            self.tracer.span(
                "daemon.dispatch", digest=job.digest, worker=worker_id
            )
            if self.tracer is not None and self.tracer.enabled
            else NOOP_SPAN
        )
        with span_cm, self.metrics.time("daemon.dispatch"):
            try:
                child.send((
                    "job",
                    {
                        "id": job.id,
                        "spec": job.spec,
                        "shm_name": job.shm_name,
                        "shm_meta": job.shm_meta,
                    },
                ))
                reply = child.recv()
            except proc.ChildDied:
                self._recover(worker_id, job)
                return
        if reply.get("compiled"):
            self.metrics.incr("daemon.worker_compiles", reply["compiled"])
        if reply.get("cc"):
            self.metrics.incr("daemon.worker_cc", reply["cc"])
        reply["worker"] = worker_id
        if not job.future.done():
            job.future.set_result(reply)

    def _recover(self, worker_id: int, job: Job) -> None:
        """A worker died mid-job: clean up, requeue, restart."""
        with self._lock:
            child = self._children.pop(worker_id, None)
        if child is not None:
            child.stop()
            child.join(5)
        # The worker may have created the response segment before dying;
        # its deterministic name makes it reachable without a reply.
        shm.unlink_quietly(shm.segment_name(self.token, job.id, "out"))
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
            self.queue.requeue_front(job)
        if self._kill_mode:
            return
        self.metrics.incr("daemon.worker_restarts")
        with self._lock:
            self._restarts += 1
        self._fork(worker_id)

    def _stop_worker(self, worker_id: int) -> None:
        # Joined by stop(), which still finds the child in the table.
        with self._lock:
            child = self._children.get(worker_id)
        if child is not None:
            child.stop()
