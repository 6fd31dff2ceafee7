"""The worker-process entry point.

Each worker runs :func:`worker_main` — a loop over its control pipe that
receives job batches (metadata only: program source, options and
shared-memory manifests), attaches input segments, executes through a
private in-process :class:`~repro.service.service.Service`, and writes
outputs into a response segment it creates under the job's deterministic
``-out`` name.

Workers share the *disk* tiers with every sibling: the artifact cache
and the native ``.so`` store both live under one cache directory, and
the cache's cross-process build lock makes cold compiles single-flight
across the pool.  Each worker's in-memory LRU tier warms
independently, so a repeat request for a digest the worker has seen is
pure execution.

Because the admission queue hands a worker *same-digest* batches,
identical scalar-only requests inside one batch coalesce: the worker
executes once and replicates the reply (``daemon.coalesced`` counts the
replicas).  See :func:`_coalesce_key` for the purity conditions.

Signal policy: workers ignore SIGINT (a Ctrl+C hits the whole foreground
process group, and the parent's drain needs the workers alive to finish
the queue) but keep the default SIGTERM disposition — the parent never
uses SIGTERM for shutdown (it sends an explicit stop message down the
pipe), and a worker that *can't* be terminated would deadlock
``multiprocessing``'s interpreter-exit cleanup, which terminates and
joins daemon children.  If an outside SIGTERM does kill a worker
mid-batch, the parent's crash recovery requeues and restarts as usual.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.daemon import proc, shm


def _coalesce_key(job: Dict[str, object]) -> Optional[tuple]:
    """Key under which identical pure jobs in one batch share a result.

    A mini-ZPL program has no randomness and no hidden state, so a
    request that carries no input arrays and wants no output arrays is a
    pure function of (program, level, backend, config): two such jobs in
    the same batch are the *same* computation and the worker runs it
    once.  Jobs with input segments (inputs may differ) or output
    segments (each reply owns its own ``-out`` name) never coalesce.
    """
    spec = job["spec"]
    if job.get("shm_name") or spec.get("want_arrays"):
        return None
    return (
        spec["program"],
        spec.get("level"),
        spec.get("backend"),
        json.dumps(spec.get("config"), sort_keys=True),
        spec.get("delay_s"),
    )


def _execute_job(service, job: Dict[str, object], token: str) -> Dict[str, object]:
    """Run one job spec and return its reply dict (never raises)."""
    reply: Dict[str, object] = {"id": job["id"], "ok": False}
    request_shm = None
    response_shm = None
    try:
        spec = job["spec"]
        delay_s = spec.get("delay_s")
        if delay_s:
            # Load-shaping / fault-injection hook: hold the job so tests
            # can catch the worker mid-flight deterministically.
            import time

            time.sleep(float(delay_s))
        # counter() is O(1); a full snapshot() sorts every timer's
        # samples and would grow with the worker's request history.
        compiles_before = service.metrics.counter("service.compiles")
        cc_before = service.metrics.counter("native.cc_invocations")
        compiled = service.compile(
            spec["program"],
            level=spec.get("level"),
            config=spec.get("config"),
            backend=spec.get("backend"),
        )
        request = None
        if job.get("shm_name"):
            request_shm = shm.attach(job["shm_name"])
            request = {"arrays": shm.views(request_shm, job["shm_meta"])}
        result = compiled.execute(request)
        want = spec.get("want_arrays") or []
        out_arrays = {
            name: result.arrays[name] for name in want if name in result.arrays
        }
        missing = [name for name in want if name not in result.arrays]
        if missing:
            raise KeyError(
                "requested arrays not produced by the program: %s"
                % ", ".join(sorted(missing))
            )
        out_meta: Tuple = ()
        out_name = None
        if out_arrays:
            out_name = shm.segment_name(token, job["id"], "out")
            # The parent unlinks the response segment after serializing
            # the reply, so creation here must not register with *this*
            # process's resource tracker.
            response_shm, out_meta = shm.pack(
                out_name, out_arrays, owned_here=False
            )
        reply.update(
            ok=True,
            digest=compiled.digest,
            scalars=dict(result.scalars),
            out_name=out_name,
            out_meta=out_meta,
            compiled=int(
                service.metrics.counter("service.compiles") - compiles_before
            ),
            cc=int(
                service.metrics.counter("native.cc_invocations") - cc_before
            ),
        )
    except BaseException as error:  # noqa: BLE001 - reply carries the error
        reply["error"] = "%s: %s" % (type(error).__name__, error)
        if response_shm is not None:
            try:
                response_shm.unlink()
            except Exception:
                pass
    finally:
        if request_shm is not None:
            shm.close_quietly(request_shm)
        if response_shm is not None:
            shm.close_quietly(response_shm)
    return reply


def worker_main(conn, worker_id: int, settings: Dict[str, object]) -> None:
    """Answer job batches on ``conn`` until a stop message arrives."""
    from repro.service.service import Service

    service = Service(
        level=settings["level"],
        backend=settings["backend"],
        cache_dir=settings.get("cache_dir"),
        persistent=settings.get("persistent", True),
        workers=1,
    )
    token = settings["token"]

    def run_batch(message: tuple) -> tuple:
        jobs: List[Dict[str, object]] = message[1]
        replies = []
        shared: Dict[tuple, Dict[str, object]] = {}
        for job in jobs:
            key = _coalesce_key(job)
            done = shared.get(key) if key is not None else None
            if done is not None and done.get("ok"):
                replies.append(
                    dict(done, id=job["id"], compiled=0, cc=0, coalesced=True)
                )
                continue
            reply = _execute_job(service, job, token)
            if key is not None:
                shared[key] = reply
            replies.append(reply)
        return ("done", worker_id, replies)

    proc.serve(conn, run_batch)
