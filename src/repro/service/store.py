"""One stamped, content-addressed file store.

Every on-disk cache here — pickled artifacts and native ``.so`` files —
is an object at ``<root>/<digest[:2]>/<digest><suffix>``
described by an envelope ``{"schema", "code_version", "digest", ...}``.
:class:`Store` owns the mechanics once: addressing, atomic publication
(temp file + ``os.replace``, so readers never observe a torn file), the
verified read that deletes whatever fails verification (a bad store can
only cost a rebuild, never a wrong answer), the shard-directory walk,
tolerant removal and oldest-first size eviction.

A *kind* is a subclass supplying the codec: ``suffix``, an optional
``sidecar`` (a stamp file that lives and dies with its raw object),
``schema``, the ``counters`` its events are reported under, and
``_parse`` / ``_encode`` / ``_body``.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Iterable, List, Optional, Tuple

from repro.service import fingerprint


def _remove(path: str) -> None:
    """Unlink ``path``; already gone or not removable is not an error."""
    try:
        os.remove(path)
    except OSError:
        pass


def _publish(path: str, data: bytes) -> None:
    """Atomically create or replace ``path`` (its directory must exist)."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        _remove(tmp)
        raise


class Store:
    """The files of one kind under one root."""

    suffix = ""
    #: Empty: the object is its own envelope file.  Otherwise the body is
    #: stored raw and the envelope beside it at ``path + sidecar``.
    sidecar = ""
    schema = 0
    #: event (hit, invalid, write_error, evict) -> counter name; an event
    #: the kind does not name is not counted.
    counters: Dict[str, str] = {}

    def __init__(self, root: str, metrics=None, code_version: Optional[str] = None):
        self.root = root
        self.metrics = metrics
        #: Resolved at access time when None so tests can monkeypatch
        #: ``fingerprint.CODE_VERSION`` and see stale files rejected.
        self._code_version = code_version

    @property
    def code_version(self) -> str:
        return self._code_version or fingerprint.CODE_VERSION

    def _count(self, event: str) -> None:
        if event in self.counters and self.metrics is not None:
            self.metrics.incr(self.counters[event])

    # -- the codec, one per kind -------------------------------------------

    #: Parses the envelope from its open binary file.
    _parse = staticmethod(json.load)

    def _encode(self, stamps: dict, body) -> bytes:
        """The envelope file: ``stamps`` plus what the kind adds."""
        raise NotImplementedError

    def _body(self, path: str, envelope: dict):
        """What ``get`` returns; raises if the kind's own stamp (a
        checksum, a machine signature) does not hold."""
        raise NotImplementedError

    # -- mechanics ----------------------------------------------------------

    def path(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], digest + self.suffix)

    def _stamps(self, digest: str) -> dict:
        return {
            "schema": self.schema,
            "code_version": self.code_version,
            "digest": digest,
        }

    def get(self, digest: str):
        """The verified body stored under ``digest``, or None on a miss.

        An unparseable file, a schema, code-version or digest stamp that
        disagrees with this store, or a failed kind stamp deletes the
        object (and its sidecar) and reads as a miss.
        """
        path = self.path(digest)
        try:
            with open(path + self.sidecar, "rb") as handle:
                envelope = self._parse(handle)
            if not isinstance(envelope, dict) or any(
                envelope.get(key) != want
                for key, want in self._stamps(digest).items()
            ):
                raise ValueError("stamp mismatch")
            body = self._body(path, envelope)
        except FileNotFoundError:
            return None
        except Exception:
            # Corrupted, truncated or stale: drop it rather than replay it.
            self._count("invalid")
            self.invalidate(digest)
            return None
        try:
            # Refresh mtime so size eviction stays LRU-ish across
            # processes.  Best-effort: a read-only or foreign-owned store
            # (a baked image layer) still serves its hits.
            os.utime(path, None)
        except OSError:
            pass
        self._count("hit")
        return body

    def put(self, digest: str, body) -> Optional[str]:
        """Publish ``body``; the object's path, or None when the
        directory is read-only or full (callers degrade, not fail)."""
        path = self.path(digest)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            if self.sidecar:
                # Object first: a crash in between leaves it unstamped,
                # which reads as a miss.
                _publish(path, body)
            _publish(path + self.sidecar, self._encode(self._stamps(digest), body))
        except OSError:
            self._count("write_error")
            return None
        return path

    def entries(self) -> List[Tuple[str, int, float]]:
        """Every stored object of this kind as ``(path, bytes, mtime)``."""
        entries: List[Tuple[str, int, float]] = []
        if not os.path.isdir(self.root):
            return entries
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(self.suffix):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                entries.append((path, stat.st_size, stat.st_mtime))
        return entries

    def _unlink(self, path: str) -> None:
        _remove(path)
        if self.sidecar:
            _remove(path + self.sidecar)

    def invalidate(self, digest: str) -> None:
        self._unlink(self.path(digest))

    def clear(self) -> None:
        for path, _size, _mtime in self.entries():
            self._unlink(path)


def evict(stores: Iterable[Store], max_bytes: int) -> None:
    """Delete oldest-first across ``stores`` until their objects fit in
    ``max_bytes`` (zero or less: unbounded)."""
    if max_bytes <= 0:
        return
    entries = [
        (mtime, size, path, store)
        for store in stores
        for path, size, mtime in store.entries()
    ]
    total = sum(size for _mtime, size, _path, _store in entries)
    for _mtime, size, path, store in sorted(entries, key=lambda e: e[0]):
        if total <= max_bytes:
            break
        try:
            os.remove(path)
        except OSError:
            continue
        if store.sidecar:
            _remove(path + store.sidecar)
        store._count("evict")
        total -= size
