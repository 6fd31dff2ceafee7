"""Bounded admission: one FIFO of jobs between HTTP threads and workers.

The daemon's front end never blocks a client on queue pressure: a full
queue means :meth:`AdmissionQueue.offer` returns ``False`` and the HTTP
layer sheds the request with an explicit 503 (the ``daemon.shed``
counter records each one).  Load shedding with a visible signal beats a
silently growing backlog — the client can back off or retry elsewhere.

The dispatcher side is each worker's owner thread: one blocking
:meth:`take` pops the head job, which crosses the worker pipe alone.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass
class Job:
    """One admitted execute request, from HTTP thread to worker."""

    id: int
    #: The compile/execute spec a worker needs: program source, level,
    #: backend, config, want_arrays, delay_s.
    spec: Dict[str, object]
    #: Request-array segment, or None when the request carried no arrays.
    shm_name: Optional[str]
    shm_meta: Tuple
    future: Future = field(default_factory=Future)
    enqueued_at: float = 0.0
    retries: int = 0


class AdmissionQueue:
    """A bounded FIFO of jobs."""

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.depth = depth
        self._jobs: deque = deque()
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def offer(self, job: Job) -> bool:
        """Admit a job, or return False immediately when full/closed."""
        with self._lock:
            if self._closed or len(self._jobs) >= self.depth:
                return False
            self._jobs.append(job)
            self._ready.notify()
            return True

    def requeue_front(self, job: Job) -> None:
        """Put a crash-recovered job back at the head, bound ignored.

        The job was already admitted once; bouncing it now would turn a
        worker crash into a client-visible shed.
        """
        with self._lock:
            self._jobs.appendleft(job)
            self._ready.notify()

    def take(self) -> Optional[Job]:
        """Block for the head job.

        Returns None once the queue is closed and drained, which is the
        dispatcher's signal to exit.
        """
        with self._lock:
            while not self._jobs:
                if self._closed:
                    return None
                self._ready.wait()
            return self._jobs.popleft()

    def close(self) -> None:
        """Stop admitting; blocked take callers drain then get None."""
        with self._lock:
            self._closed = True
            self._ready.notify_all()
