"""The multi-process serving daemon.

``repro serve --daemon`` turns the in-process :class:`repro.service.
service.Service` into a long-lived server: an HTTP front end with
bounded admission and a pool of forked worker *processes* (CPython
threads share one GIL; processes don't), each taking one request per
dispatch, that move array payloads through
``multiprocessing.shared_memory`` — zero-copy on the worker side, never
pickled anywhere.  This is the one way serving runs requests
concurrently.

Modules:

* :mod:`repro.daemon.server` — the front end (:class:`~repro.daemon.server.Daemon`).
* :mod:`repro.daemon.client` — a stdlib client (:class:`~repro.daemon.client.DaemonClient`).
* :mod:`repro.daemon.admission` — the bounded admission queue.
* :mod:`repro.daemon.pool` — worker processes, crash recovery, drain.
* :mod:`repro.daemon.worker` — the worker-process entry point.
* :mod:`repro.daemon.proc` — a child process on a control pipe: the
  substrate under the worker pool and under ``mp-shard``'s rank pool.
* :mod:`repro.daemon.shm` — the shared-memory array transport.
* :mod:`repro.daemon.protocol` — the wire framing (JSON head + raw bytes).

The four public names resolve on first use, so importing a leaf module
(``repro.daemon.proc``, ``repro.daemon.shm`` — what an ``mp-shard`` rank
needs) does not import the HTTP stack.
"""

_EXPORTS = {
    "Daemon": "repro.daemon.server",
    "DaemonConfig": "repro.daemon.server",
    "DaemonClient": "repro.daemon.client",
    "DaemonError": "repro.daemon.client",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    import importlib

    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
