"""One contract for the three kinds on ``repro.service.store.Store``.

Pickled artifacts, native ``.so`` + sidecar and tuning records share the
store's mechanics; each case here runs against all three through their
public owners (``ArtifactCache.get/put``, ``get_native/put_native``,
``TuneDB.get/put``).  The formats are written by hand, byte for byte as
the code before ``store.py`` existed wrote them, so a cache directory
left by an older checkout must keep being served warm.
"""

import hashlib
import json
import os
import pickle

import pytest

from repro.service.cache import ARTIFACT_SCHEMA, ArtifactCache
from repro.service.metrics import Metrics
from repro.tune import Plan, TuneDB, TuneRecord, machine_signature
from repro.tune.tunedb import TUNEDB_SCHEMA

DIGEST = "ab" * 32
OTHER = "cd" * 32


class ArtifactKind:
    name, suffixes, invalid = "artifact", (".pkl",), "cache.invalid_artifacts"
    body = {"value": 42, "code": "x = 1\n"}

    def __init__(self, root):
        self.root = root
        # A fresh owner per call: the memory tier must not mask the disk.
        self.metrics = Metrics()

    def owner(self):
        return ArtifactCache(root=self.root, metrics=self.metrics)

    def get(self, digest):
        return self.owner().get(digest)

    def put(self, digest):
        self.owner().put(digest, self.body)

    def paths(self, digest):
        return [
            os.path.join(self.root, digest[:2], digest + suffix)
            for suffix in self.suffixes
        ]

    def write(self, digest, blobs):
        for path, blob in zip(self.paths(digest), blobs):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(blob)

    def files(self, digest, code_version, stamped=None, schema=ARTIFACT_SCHEMA):
        """The kind's file contents, hand-built in the stored format."""
        envelope = {
            "schema": schema,
            "code_version": code_version,
            "digest": stamped or digest,
            "payload": self.body,
        }
        return [pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)]


class NativeKind(ArtifactKind):
    name, suffixes = "native", (".so", ".so.json")
    so_bytes = b"\x7fELF not really" * 64

    def get(self, digest):
        return self.owner().get_native(digest)

    def put(self, digest):
        self.owner().put_native(digest, self.so_bytes)

    @property
    def body(self):
        return self.paths(DIGEST)[0]

    def files(self, digest, code_version, stamped=None, schema=ARTIFACT_SCHEMA):
        stamp = {
            "schema": schema,
            "code_version": code_version,
            "digest": stamped or digest,
            "sha256": hashlib.sha256(self.so_bytes).hexdigest(),
        }
        return [self.so_bytes, json.dumps(stamp, sort_keys=True).encode()]


class TuneKind(ArtifactKind):
    name, suffixes, invalid = "tune", (".json",), "tune.db_invalid"
    body = TuneRecord(
        Plan("c2+f4", "np-par", workers=2, tile_shape=(8, 24)),
        0.012,
        340.0,
        1700000000.5,
        machine_signature(),
    )

    def owner(self):
        return TuneDB(root=self.root, metrics=self.metrics)

    def files(self, digest, code_version, stamped=None, schema=TUNEDB_SCHEMA):
        envelope = {
            "schema": schema,
            "code_version": code_version,
            "digest": stamped or digest,
            "record": self.body.to_dict(),
        }
        text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
        return [text.encode("utf-8")]


@pytest.fixture(params=[ArtifactKind, NativeKind, TuneKind], ids=lambda k: k.name)
def kind(request, tmp_path):
    return request.param(str(tmp_path / "store"))


def _assert_rejected(kind, digest):
    assert kind.get(digest) is None
    assert kind.metrics.counter(kind.invalid) == 1
    assert not any(os.path.exists(path) for path in kind.paths(digest))


def test_parent_format_bytes_are_read_back_and_are_what_put_writes(kind):
    code_version = kind.owner().code_version
    blobs = kind.files(DIGEST, code_version)
    kind.write(DIGEST, blobs)
    assert kind.get(DIGEST) == kind.body
    assert kind.metrics.counter(kind.invalid) == 0
    for path in kind.paths(DIGEST):
        os.remove(path)
    kind.put(DIGEST)
    for path, blob in zip(kind.paths(DIGEST), blobs):
        with open(path, "rb") as handle:
            assert handle.read() == blob, path
    shard = os.path.dirname(kind.paths(DIGEST)[0])
    assert sorted(os.listdir(shard)) == sorted(
        os.path.basename(path) for path in kind.paths(DIGEST)
    )


def test_torn_file_is_a_miss_and_deleted(kind):
    kind.put(DIGEST)
    for path in kind.paths(DIGEST):
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
    _assert_rejected(kind, DIGEST)


@pytest.mark.parametrize(
    "stale",
    [
        {"code_version": "repro-0.0.0/artifact-0"},
        {"stamped": OTHER},
        {"schema": 999},
    ],
    ids=["code_version", "digest", "schema"],
)
def test_stale_stamp_is_a_miss_and_deleted(kind, stale):
    stamps = dict({"code_version": kind.owner().code_version}, **stale)
    kind.write(DIGEST, kind.files(DIGEST, **stamps))
    _assert_rejected(kind, DIGEST)


def test_kind_stamp_is_checked(kind):
    # The stamp only this kind carries: the payload's type, the object's
    # checksum, the machine the plan was tuned on.
    blobs = kind.files(DIGEST, kind.owner().code_version)
    if kind.name == "artifact":
        envelope = pickle.loads(blobs[0])
        envelope["payload"] = ["not", "a", "dict"]
        blobs = [pickle.dumps(envelope)]
    elif kind.name == "native":
        blobs[0] = blobs[0][:-1] + b"!"
    else:
        envelope = json.loads(blobs[0])
        envelope["record"]["signature"]["cpu_count"] = 999
        blobs = [json.dumps(envelope).encode()]
    kind.write(DIGEST, blobs)
    _assert_rejected(kind, DIGEST)


def test_failed_mtime_refresh_is_still_a_hit(kind, monkeypatch):
    # A read-only or foreign-owned store (a baked image layer): the LRU
    # refresh fails, the verified object is served and left alone.
    kind.put(DIGEST)

    def utime(*_args, **_kwargs):
        raise PermissionError("read-only store")

    monkeypatch.setattr(os, "utime", utime)
    assert kind.get(DIGEST) == kind.body
    assert kind.metrics.counter(kind.invalid) == 0
    assert all(os.path.exists(path) for path in kind.paths(DIGEST))


@pytest.mark.parametrize("missing", [0, 1], ids=["no-object", "no-sidecar"])
def test_native_object_and_sidecar_only_count_together(tmp_path, missing):
    kind = NativeKind(str(tmp_path))
    kind.put(DIGEST)
    os.remove(kind.paths(DIGEST)[missing])
    assert kind.get(DIGEST) is None
    assert kind.metrics.counter(kind.invalid) == 0


def test_eviction_takes_a_sidecar_with_its_object(tmp_path):
    kind = NativeKind(str(tmp_path))
    cache = ArtifactCache(
        root=kind.root, max_bytes=3 * len(kind.so_bytes), metrics=kind.metrics
    )
    digests = [("%02x" % index) * 32 for index in range(6)]
    for index, digest in enumerate(digests):
        cache.put_native(digest, kind.so_bytes)
        if os.path.exists(kind.paths(digest)[0]):
            os.utime(kind.paths(digest)[0], (1000 + index, 1000 + index))
    assert kind.metrics.counter("cache.disk_evictions") >= 3
    kept = [d for d in digests if os.path.exists(kind.paths(d)[0])]
    assert kept and digests[0] not in kept
    for digest in digests:
        so_path, stamp_path = kind.paths(digest)
        assert os.path.exists(so_path) == os.path.exists(stamp_path)
    assert sum(size for _p, size, _m in cache.native_entries()) <= cache.max_bytes
