"""The two-tier compiled-artifact cache.

Tier 1 is an in-memory LRU (bounded entry count) holding live artifact
payloads, each with the backend ``run`` loaded from it, so every
:class:`~repro.service.compiled.CompiledProgram` handle for a digest
shares one load and the loaded code is dropped with the entry.
Tier 2 is a content-addressed on-disk store so warmth survives the
process — the analogue of Bohrium's fuse cache, amortizing array-level
analysis across runs.

The disk tier is two kinds on :class:`repro.service.store.Store`, which
owns the layout, atomic publication and the verified, self-invalidating
read (a corrupted cache can only cost a recompile, never a wrong
answer): ``<root>/<digest[:2]>/<digest>.pkl``, a pickled envelope
``{"schema", "code_version", "digest", "payload"}``; and the shared
objects the ``c`` backend compiled, ``<digest>.so`` plus a JSON stamp
sidecar ``<digest>.so.json`` that adds the SHA-256 of the object bytes,
so a stale or torn ``.so`` costs one recompile, never a wrong (or
crashing) kernel.

The root defaults to ``.repro-cache/`` and is overridable with the
``REPRO_CACHE_DIR`` environment variable; the disk tier is size-bounded
(``REPRO_CACHE_MAX_BYTES``, default 256 MiB) with oldest-first eviction.

``<root>/locks/`` holds per-digest ``flock`` files for
:meth:`ArtifactCache.build_lock`, the cross-process single-flight
protocol: concurrent processes missing on one digest elect one builder,
the rest block and then hit the artifact it persisted.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import pickle
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.service.metrics import Metrics
from repro.service.store import Store, evict

try:
    import fcntl
except ImportError:  # no flock: build_lock degrades to a no-op
    fcntl = None

#: Envelope layout version — independent of the compiler's CODE_VERSION.
ARTIFACT_SCHEMA = 1

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"
DEFAULT_CACHE_DIR = ".repro-cache"
DEFAULT_MAX_BYTES = 256 * 1024 * 1024
DEFAULT_MEMORY_ENTRIES = 128


def default_cache_dir() -> str:
    return os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR


def _default_max_bytes() -> int:
    raw = os.environ.get(ENV_CACHE_MAX_BYTES)
    if raw:
        try:
            return max(int(raw), 0)
        except ValueError:
            pass
    return DEFAULT_MAX_BYTES


class _Kind(Store):
    schema = ARTIFACT_SCHEMA
    counters = {
        "invalid": "cache.invalid_artifacts",
        "write_error": "cache.write_errors",
        "evict": "cache.disk_evictions",
    }


class _PickledArtifacts(_Kind):
    """``<digest>.pkl``: the envelope, pickled with the payload in it.

    Unpickling can run code: only files this program wrote belong here.
    """

    suffix = ".pkl"
    counters = dict(_Kind.counters, hit="cache.disk_hits")
    _parse = staticmethod(pickle.load)

    def _encode(self, stamps, payload):
        envelope = dict(stamps, payload=payload)
        return pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)

    def _body(self, path, envelope):
        payload = envelope["payload"]
        if not isinstance(payload, dict):
            raise ValueError("artifact payload is not a dict")
        return payload


class _NativeObjects(_Kind):
    """``<digest>.so`` as compiled, stamped by ``<digest>.so.json``.

    ``get`` returns the object's *path*: the caller hands it straight to
    ``dlopen``, so the file must stay on disk.
    """

    suffix = ".so"
    sidecar = ".json"
    counters = dict(_Kind.counters, hit="cache.native_hits")

    def _encode(self, stamps, so_bytes):
        stamp = dict(stamps, sha256=hashlib.sha256(so_bytes).hexdigest())
        return json.dumps(stamp, sort_keys=True).encode("ascii")

    def _body(self, path, stamp):
        with open(path, "rb") as handle:
            so_bytes = handle.read()
        if stamp.get("sha256") != hashlib.sha256(so_bytes).hexdigest():
            raise ValueError("native artifact checksum mismatch")
        return path


class LoadedRun:
    """The ``run`` loaded from one artifact (None until the first
    execute), and the lock that makes the load happen once."""

    __slots__ = ("run", "lock")

    def __init__(self) -> None:
        self.run = None
        self.lock = threading.Lock()


class ArtifactCache:
    """In-memory LRU over a persistent content-addressed store."""

    def __init__(
        self,
        root: Optional[str] = None,
        persistent: bool = True,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        max_bytes: Optional[int] = None,
        metrics: Optional[Metrics] = None,
        code_version: Optional[str] = None,
    ) -> None:
        self.root = os.fspath(root) if root is not None else default_cache_dir()
        self.persistent = persistent
        self.memory_entries = max(int(memory_entries), 1)
        self.max_bytes = max_bytes if max_bytes is not None else _default_max_bytes()
        self.metrics = metrics or Metrics()
        self._artifacts = _PickledArtifacts(self.root, self.metrics, code_version)
        self._natives = _NativeObjects(self.root, self.metrics, code_version)
        #: digest -> (payload, the run loaded from it).
        self._memory: "OrderedDict[str, Tuple[dict, LoadedRun]]" = OrderedDict()
        #: Guards the memory tier: OrderedDict reordering under
        #: concurrent ``get``/``put`` (threads sharing one ``Service``)
        #: is not atomic on its own.
        self._memory_lock = threading.Lock()

    @property
    def code_version(self) -> str:
        return self._artifacts.code_version

    # -- lookup ------------------------------------------------------------

    def get(self, digest: str) -> Optional[dict]:
        """The artifact payload for ``digest``, or None on miss."""
        with self._memory_lock:
            entry = self._memory.get(digest)
            if entry is not None:
                self._memory.move_to_end(digest)
        if entry is not None:
            self.metrics.incr("cache.memory_hits")
            return entry[0]
        payload = self._artifacts.get(digest) if self.persistent else None
        if payload is not None:
            self._memory_put(digest, payload)
        return payload

    def put(self, digest: str, payload: dict) -> None:
        self._memory_put(digest, payload)
        if self.persistent and self._artifacts.put(digest, payload):
            evict((self._artifacts, self._natives), self.max_bytes)

    def loaded_runs(self, digest: str) -> LoadedRun:
        """The loaded run of ``digest``'s memory-tier entry: every handle
        for a resident digest shares it, so the artifact is loaded once
        per process and the loaded code is evicted with the entry.  Not
        resident: a private one."""
        with self._memory_lock:
            entry = self._memory.get(digest)
        return entry[1] if entry is not None else LoadedRun()

    # -- cross-process single-flight ---------------------------------------

    @contextmanager
    def build_lock(self, digest: str):
        """An exclusive cross-process lock for building one digest.

        Threads in one service already single-flight through the
        in-process future map; this extends the guarantee across
        *processes* sharing a cache directory (the daemon's worker pool,
        parallel CI jobs): the lock is an ``fcntl.flock`` on
        ``<root>/locks/<digest>.lock``, so exactly one process runs the
        pipeline while the rest block, then re-probe the cache and hit
        the artifact the owner just persisted.  The holder must re-check
        ``get(digest)`` under the lock before building.

        Contended acquisitions are counted as ``cache.lock_waits``.
        Degrades to a no-op when the cache is memory-only or the
        platform has no ``fcntl`` — single-process semantics are
        unchanged either way.
        """
        if not self.persistent or fcntl is None:
            yield
            return
        lock_dir = os.path.join(self.root, "locks")
        lock_path = os.path.join(lock_dir, digest + ".lock")
        try:
            os.makedirs(lock_dir, exist_ok=True)
            fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            # Read-only cache directory: same degradation as ``put``.
            yield
            return
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self.metrics.incr("cache.lock_waits")
                fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def invalidate(self, digest: str) -> None:
        with self._memory_lock:
            self._memory.pop(digest, None)
        self._artifacts.invalidate(digest)

    def clear(self) -> None:
        with self._memory_lock:
            self._memory.clear()
        self._artifacts.clear()
        self._natives.clear()
        # Lock files too, except any a process holds: a build in flight.
        # (One that has opened its lock but not yet taken it loses the
        # file and may build twice; publication is atomic, so that is
        # wasted work, never a torn artifact.)
        locks = os.path.join(self.root, "locks", "*.lock")
        for lock_path in glob.glob(locks) if fcntl is not None else ():
            try:
                fd = os.open(lock_path, os.O_RDWR)
            except OSError:
                continue
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                os.remove(lock_path)
            except OSError:
                pass
            finally:
                os.close(fd)

    # -- memory tier -------------------------------------------------------

    def _memory_put(self, digest: str, payload: dict) -> None:
        evictions = 0
        with self._memory_lock:
            self._memory[digest] = (payload, LoadedRun())
            self._memory.move_to_end(digest)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)
                evictions += 1
        if evictions:
            self.metrics.incr("cache.memory_evictions", evictions)

    # -- disk tier ---------------------------------------------------------

    def get_native(self, digest: str) -> Optional[str]:
        """Path to a verified cached shared object, or None on miss."""
        return self._natives.get(digest) if self.persistent else None

    def put_native(self, digest: str, so_bytes: bytes) -> Optional[str]:
        """Store compiled shared-object bytes; returns the stored path.

        Non-persistent caches return None — the native runner then
        loads the bytes from a temp file it unlinks at once.
        """
        path = self._natives.put(digest, so_bytes) if self.persistent else None
        if path is not None:
            evict((self._artifacts, self._natives), self.max_bytes)
        return path

    def native_entries(self) -> List[Tuple[str, int, float]]:
        """All stored shared objects as ``(path, bytes, mtime)``."""
        return self._natives.entries()

    def disk_entries(self) -> List[Tuple[str, int, float]]:
        """All stored artifact files as ``(path, bytes, mtime)``."""
        return self._artifacts.entries()

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        entries = self.disk_entries() if self.persistent else []
        native = self.native_entries() if self.persistent else []
        return {
            "root": self.root,
            "persistent": self.persistent,
            "code_version": self.code_version,
            "memory_entries": len(self._memory),  # len() is atomic enough
            "memory_limit": self.memory_entries,
            "disk_entries": len(entries),
            "disk_bytes": sum(size for _p, size, _m in entries),
            "native_entries": len(native),
            "native_bytes": sum(size for _p, size, _m in native),
            "disk_limit_bytes": self.max_bytes,
        }
