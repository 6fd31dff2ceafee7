"""Zero-copy array transport over ``multiprocessing.shared_memory``.

The daemon moves request and response arrays between the front-end
process and its worker processes through named POSIX shared-memory
segments: the sender packs every array's raw bytes into one segment, the
receiver attaches by name and builds NumPy views directly over the
mapping.  Only a tiny metadata tuple list — ``(name, dtype, shape,
offset)`` per array — ever crosses the control pipe; array payloads are
never pickled.

Lifecycle discipline (one owner per segment):

* The **front end** creates request segments (``...-in``) and unlinks
  them once the response has been written to the client (or the request
  was shed / failed).
* A **worker** creates the response segment (``...-out``) for a job,
  and the front end unlinks it after serializing the response.
* Workers *attach* to request segments and must never unlink them.

CPython's ``resource_tracker`` registers every ``SharedMemory`` handle —
attached ones included (gh-82300) — and unlinks whatever is still
registered when the registering process exits.  With segments crossing
process boundaries that would tear mappings out from under the other
side, so :func:`attach` maps a foreign-owned segment without telling the
tracker (:class:`Attached`) and :func:`pack` with ``owned_here=False``
unregisters the name it just created; only the owning process keeps a
registration (and clears it through ``unlink`` itself).

``mp-shard`` (:mod:`repro.exec.mp_shard`) uses the same :func:`attach`
and :func:`unlink_quietly` for its rank segments.
"""

from __future__ import annotations

import os
import secrets
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.errors import ReproError

#: Every daemon segment name starts with this, so leak checks (and
#: emergency cleanup) can identify ours under /dev/shm.
SEGMENT_PREFIX = "repro"


class ShmError(ReproError):
    """A shared-memory transport failure (oversized, missing segment)."""


#: One packed array: (name, dtype string, shape tuple, byte offset).
ArrayMeta = Tuple[str, str, Tuple[int, ...], int]


def _untrack(name: str) -> None:
    """Drop a segment from this process's resource tracker, quietly."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:
        pass


def session_token() -> str:
    """A short unique token namespacing one daemon's segments."""
    return "%x-%s" % (os.getpid(), secrets.token_hex(4))


def segment_name(token: str, job_id: int, direction: str) -> str:
    """The deterministic segment name for one job's arrays.

    Deterministic naming is what makes crash cleanup possible: if a
    worker dies mid-job, the front end can reconstruct the name of the
    response segment the worker may have created and unlink it without
    any message having arrived.
    """
    return "%s-%s-%d-%s" % (SEGMENT_PREFIX, token, job_id, direction)


def measure(arrays: Dict[str, np.ndarray]) -> int:
    """Total payload bytes ``pack`` would place in a segment."""
    return sum(int(np.asarray(a).nbytes) for a in arrays.values())


def pack(
    name: str,
    arrays: Dict[str, np.ndarray],
    max_bytes: Optional[int] = None,
    owned_here: bool = True,
):
    """Create segment ``name`` holding every array's raw bytes.

    Returns ``(shm, meta)`` where ``meta`` is the :data:`ArrayMeta` list
    the receiver needs to rebuild views.  ``max_bytes`` bounds the
    payload (admission control for oversized requests).  With
    ``owned_here=False`` the segment's *unlink* belongs to the process
    on the other side of the pipe (the worker response path), so the
    name is unregistered from this process's resource tracker right
    after creation.
    """
    from multiprocessing import shared_memory

    normalized = {
        key: np.ascontiguousarray(np.asarray(value))
        for key, value in arrays.items()
    }
    total = sum(value.nbytes for value in normalized.values())
    if max_bytes is not None and total > max_bytes:
        raise ShmError(
            "request arrays total %d bytes, limit is %d" % (total, max_bytes)
        )
    shm = shared_memory.SharedMemory(name=name, create=True, size=max(total, 1))
    if not owned_here:
        _untrack(name)
    meta: List[ArrayMeta] = []
    offset = 0
    for key in sorted(normalized):
        value = normalized[key]
        end = offset + value.nbytes
        if value.nbytes:
            shm.buf[offset:end] = value.tobytes()
        meta.append((key, value.dtype.str, tuple(value.shape), offset))
        offset = end
    return shm, meta


class Attached:
    """A mapping of a segment some other process owns.

    ``SharedMemory(name=...)`` registers even an attached handle with
    the resource tracker (gh-82300; ``track=False`` only exists from
    3.13), and unregistering afterwards is no way out when the attaching
    process was *forked* from the creator: both share one tracker, whose
    registrations are a set, so the unregister removes the creator's own
    entry.  This opens and maps the segment directly instead; the
    tracker never hears of it, and closing cannot unlink it.
    """

    __slots__ = ("name", "size", "buf", "_mmap")

    def __init__(self, name: str) -> None:
        import _posixshmem
        import mmap

        fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
        try:
            self.size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, self.size)
        finally:
            os.close(fd)
        self.name = name
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        self.buf.release()
        self._mmap.close()


def attach(name: str) -> Attached:
    """Attach to a foreign-owned segment without adopting its lifetime."""
    try:
        return Attached(name)
    except FileNotFoundError:
        raise ShmError("shared-memory segment %r is gone" % name) from None


def views(shm, meta: Sequence[ArrayMeta]) -> Dict[str, np.ndarray]:
    """NumPy views over a segment's packed arrays — no copies.

    The views are only valid while ``shm`` stays open; callers that
    outlive the segment must copy.
    """
    out: Dict[str, np.ndarray] = {}
    for name, dtype, shape, offset in meta:
        dt = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * dt.itemsize
        out[name] = np.ndarray(
            shape, dtype=dt, buffer=shm.buf[offset : offset + nbytes]
        )
    return out


def close_quietly(shm) -> None:
    try:
        shm.close()
    except Exception:
        pass


def unlink_quietly(name: str) -> bool:
    """Unlink a segment by name; True when something was removed."""
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    except Exception:
        return False
    # No manual _untrack here: attaching registered the name, and
    # SharedMemory.unlink() unregisters it — balanced.  An extra
    # unregister would make the tracker process log a KeyError.
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    finally:
        close_quietly(shm)
    return True


def leaked_segments(token: str) -> List[str]:
    """Daemon segments for ``token`` still present under /dev/shm.

    Linux-only introspection (an empty list elsewhere); tests use it to
    prove crash paths leak nothing.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):
        return []
    needle = "%s-%s-" % (SEGMENT_PREFIX, token)
    return sorted(
        entry for entry in os.listdir(root) if entry.startswith(needle)
    )
