"""The two-tier artifact cache: tiers, eviction, invalidation, corruption."""

import os
import pickle

import pytest

from repro.service import fingerprint
from repro.service.cache import (
    ARTIFACT_SCHEMA,
    ArtifactCache,
    ENV_CACHE_DIR,
    default_cache_dir,
)
from repro.service.metrics import Metrics

DIGEST_A = "aa" * 32
DIGEST_B = "bb" * 32
DIGEST_C = "cc" * 32


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(root=str(tmp_path / "store"), metrics=Metrics())


def test_memory_and_disk_round_trip(cache):
    payload = {"value": 42}
    assert cache.get(DIGEST_A) is None
    cache.put(DIGEST_A, payload)
    assert cache.get(DIGEST_A) == payload
    assert cache.metrics.counter("cache.memory_hits") == 1

    # A second cache over the same root sees only the disk tier.
    other = ArtifactCache(root=cache.root, metrics=Metrics())
    assert other.get(DIGEST_A) == payload
    assert other.metrics.counter("cache.disk_hits") == 1
    # ...and promotes into its memory tier.
    assert other.get(DIGEST_A) == payload
    assert other.metrics.counter("cache.memory_hits") == 1


def test_disk_layout_is_sharded_by_digest_prefix(cache):
    cache.put(DIGEST_A, {"v": 1})
    expected = os.path.join(cache.root, "aa", DIGEST_A + ".pkl")
    assert os.path.exists(expected)


def test_memory_lru_eviction(tmp_path):
    cache = ArtifactCache(
        root=str(tmp_path), persistent=False, memory_entries=2, metrics=Metrics()
    )
    cache.put(DIGEST_A, {"v": "a"})
    cache.put(DIGEST_B, {"v": "b"})
    assert cache.get(DIGEST_A) == {"v": "a"}  # A is now most recent
    cache.put(DIGEST_C, {"v": "c"})  # evicts B, the least recent
    assert cache.get(DIGEST_B) is None
    assert cache.get(DIGEST_A) == {"v": "a"}
    assert cache.get(DIGEST_C) == {"v": "c"}
    assert cache.metrics.counter("cache.memory_evictions") == 1


def test_non_persistent_cache_writes_nothing(tmp_path):
    root = str(tmp_path / "never")
    cache = ArtifactCache(root=root, persistent=False)
    cache.put(DIGEST_A, {"v": 1})
    assert not os.path.exists(root)
    assert cache.get(DIGEST_A) == {"v": 1}


def test_corrupted_artifact_is_a_miss_and_deleted(cache):
    cache.put(DIGEST_A, {"v": 1})
    path = os.path.join(cache.root, "aa", DIGEST_A + ".pkl")
    with open(path, "wb") as handle:
        handle.write(b"not a pickle at all")
    fresh = ArtifactCache(root=cache.root, metrics=Metrics())
    assert fresh.get(DIGEST_A) is None
    assert fresh.metrics.counter("cache.invalid_artifacts") == 1
    assert not os.path.exists(path)


def test_version_stamp_mismatch_invalidates(cache):
    # An artifact written by an older compiler (same digest path, older
    # stamp) must never be replayed.
    path = os.path.join(cache.root, "aa", DIGEST_A + ".pkl")
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as handle:
        pickle.dump(
            {
                "schema": ARTIFACT_SCHEMA,
                "code_version": "repro-0.0.0/artifact-0",
                "digest": DIGEST_A,
                "payload": {"v": "stale"},
            },
            handle,
        )
    assert cache.get(DIGEST_A) is None
    assert cache.metrics.counter("cache.invalid_artifacts") == 1
    assert not os.path.exists(path)


def test_schema_mismatch_invalidates(cache):
    path = os.path.join(cache.root, "aa", DIGEST_A + ".pkl")
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as handle:
        pickle.dump(
            {
                "schema": ARTIFACT_SCHEMA + 1,
                "code_version": cache.code_version,
                "digest": DIGEST_A,
                "payload": {"v": "future"},
            },
            handle,
        )
    assert cache.get(DIGEST_A) is None


def test_digest_mismatch_invalidates(cache):
    # A file renamed (or hash-collided) to the wrong address is rejected.
    cache.put(DIGEST_A, {"v": 1})
    src = os.path.join(cache.root, "aa", DIGEST_A + ".pkl")
    dst = os.path.join(cache.root, "bb", DIGEST_B + ".pkl")
    os.makedirs(os.path.dirname(dst))
    os.rename(src, dst)
    fresh = ArtifactCache(root=cache.root, metrics=Metrics())
    assert fresh.get(DIGEST_B) is None


def test_code_version_tracks_fingerprint_module(tmp_path, monkeypatch):
    cache = ArtifactCache(root=str(tmp_path))
    cache.put(DIGEST_A, {"v": 1})
    monkeypatch.setattr(fingerprint, "CODE_VERSION", "repro-test/bumped")
    bumped = ArtifactCache(root=str(tmp_path))
    assert bumped.code_version == "repro-test/bumped"
    assert bumped.get(DIGEST_A) is None  # old stamp rejected


def test_size_bounded_disk_eviction(tmp_path):
    cache = ArtifactCache(
        root=str(tmp_path), max_bytes=4096, metrics=Metrics()
    )
    big = {"blob": b"x" * 1500}
    digests = [("%02x" % index) * 32 for index in range(5)]
    for index, digest in enumerate(digests):
        cache.put(digest, big)
        os.utime(
            os.path.join(cache.root, digest[:2], digest + ".pkl"),
            (1000 + index, 1000 + index),
        )
    cache.put("fe" * 32, big)
    entries = cache.disk_entries()
    assert sum(size for _p, size, _m in entries) <= 4096
    assert cache.metrics.counter("cache.disk_evictions") >= 1
    # The oldest artifacts went first.
    surviving = {os.path.basename(path) for path, _s, _m in entries}
    assert digests[0] + ".pkl" not in surviving


def test_env_var_overrides_default_dir(monkeypatch, tmp_path):
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "envcache"))
    assert default_cache_dir() == str(tmp_path / "envcache")
    cache = ArtifactCache()
    assert cache.root == str(tmp_path / "envcache")
    monkeypatch.delenv(ENV_CACHE_DIR)
    assert default_cache_dir() == ".repro-cache"


def test_invalidate_and_clear(cache, monkeypatch):
    for digest, value in ((DIGEST_A, 1), (DIGEST_B, 2)):
        with cache.build_lock(digest):
            cache.put(digest, {"v": value})
    cache.invalidate(DIGEST_A)
    assert cache.get(DIGEST_A) is None
    assert cache.get(DIGEST_B) == {"v": 2}
    # Another process invalidating the same digest may unlink first.
    monkeypatch.setattr(os.path, "exists", lambda path: True)
    cache.invalidate(DIGEST_A)
    monkeypatch.undo()
    # clear() takes the lock files with it, except one a build holds.
    with cache.build_lock(DIGEST_C):
        cache.clear()
    assert cache.get(DIGEST_B) is None
    assert cache.disk_entries() == []
    assert os.listdir(os.path.join(cache.root, "locks")) == [DIGEST_C + ".lock"]


def test_stats_shape(cache):
    cache.put(DIGEST_A, {"v": 1})
    stats = cache.stats()
    assert stats["disk_entries"] == 1
    assert stats["memory_entries"] == 1
    assert stats["disk_bytes"] > 0
    assert stats["root"] == cache.root
    assert stats["code_version"] == cache.code_version
