"""Thread-safety of the serving layer: single-flight compiles, cache races.

The serving layer promises compile-once semantics *per digest*, not just
per process: when eight threads submit the same program at the same
instant, exactly one of them builds the artifact and the rest block on
its in-flight future.  These tests hammer that promise with a
``threading.Barrier`` so every thread reaches the hot path before any of
them proceeds — the schedule most likely to expose a
check-then-act race between the cache probe and the build.
"""

import sys
import threading

import numpy as np
import pytest

from repro.service import ArtifactCache, Service
from repro.service.metrics import Metrics

THREADS = 8

SOURCE = """
program conc;
config n : integer = 16;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var A, B : [R] float;
var s : float;
begin
  [R] A := Index1 * 2.0 + Index2;
  [I] B := (A@(-1,0) + A@(1,0) + A@(0,-1) + A@(0,1)) * 0.25;
  s := +<< [R] B;
end;
"""


def _hammer(fn, count=THREADS):
    """Run ``fn(i)`` on ``count`` threads released by a shared barrier."""
    barrier = threading.Barrier(count)
    results = [None] * count
    errors = []

    def task(i):
        barrier.wait()
        try:
            results[i] = fn(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=task, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


@pytest.mark.parametrize("backend", ["np"])
def test_concurrent_compile_builds_exactly_once(tmp_path, backend):
    metrics = Metrics()
    service = Service(
        backend=backend,
        cache_dir=str(tmp_path),
        persistent=False,
        metrics=metrics,
        workers=2,
    )
    compiled = _hammer(lambda _i: service.compile(SOURCE))
    assert metrics.counter("service.compiles") == 1
    digests = {c.digest for c in compiled}
    assert len(digests) == 1
    reference = compiled[0].execute().scalars["s"]
    for program in compiled[1:]:
        assert program.execute().scalars["s"] == reference


def test_concurrent_submit_many_same_digest(tmp_path, monkeypatch):
    from repro.exec import BACKENDS

    real = BACKENDS["codegen_np"]
    loads = []

    def load(program, code=None, artifacts=None):
        loads.append(code)
        return real.load(program, code, artifacts)

    monkeypatch.setitem(BACKENDS, "codegen_np", real._replace(load=load))
    metrics = Metrics()
    service = Service(
        backend="codegen_np",
        cache_dir=str(tmp_path),
        persistent=False,
        metrics=metrics,
        workers=2,
    )

    def submit(_i):
        return service.submit_many(SOURCE, [None, None, None])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        batches = _hammer(submit)
    finally:
        sys.setswitchinterval(interval)
    assert metrics.counter("service.compiles") == 1
    # Eight handles, one digest: the loaded run is shared through the
    # cache's memory-tier entry, so the generated module is loaded once.
    assert len(loads) == 1
    reference = batches[0][0]
    for batch in batches:
        assert len(batch) == 3
        for result in batch:
            assert float(result.scalars["s"]) == float(reference.scalars["s"])
            for name in reference.arrays:
                assert np.array_equal(
                    result.arrays[name], reference.arrays[name]
                )


def test_concurrent_compile_distinct_configs_build_once_each(tmp_path):
    metrics = Metrics()
    service = Service(
        backend="np",
        cache_dir=str(tmp_path),
        persistent=False,
        metrics=metrics,
    )
    configs = [{"n": 8}, {"n": 9}, {"n": 10}, {"n": 11}]

    def compile_one(i):
        return service.compile(SOURCE, config=configs[i % len(configs)])

    compiled = _hammer(compile_one, count=THREADS * 2)
    assert metrics.counter("service.compiles") == len(configs)
    assert len({c.digest for c in compiled}) == len(configs)


def test_compile_failure_propagates_to_every_waiter(tmp_path):
    service = Service(cache_dir=str(tmp_path), persistent=False)
    bad = "program broken;\nbegin oops end"
    barrier = threading.Barrier(THREADS)
    failures = []

    def task():
        barrier.wait()
        try:
            service.compile(bad)
        except Exception as exc:  # noqa: BLE001
            failures.append(type(exc))

    threads = [threading.Thread(target=task) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # Every caller observes the failure; none deadlocks on a future that
    # is never completed, and the in-flight slot is released.
    assert len(failures) == THREADS
    with pytest.raises(Exception):
        service.compile(bad)


def test_artifact_cache_memory_tier_race(tmp_path):
    cache = ArtifactCache(root=str(tmp_path), persistent=False, memory_entries=4)
    payloads = {
        "digest-%d" % k: {"code": "payload-%d" % k, "meta": {"k": k}}
        for k in range(12)
    }

    def churn(i):
        # Readers and writers interleave over a tier smaller than the
        # working set, so eviction runs concurrently with lookups.
        seen = 0
        for _round in range(50):
            for digest, payload in payloads.items():
                cache.put(digest, payload)
                got = cache.get(digest)
                if got is not None:
                    assert got["code"] == payload["code"]
                    seen += 1
            cache.invalidate("digest-%d" % (i % 12))
        return seen

    results = _hammer(churn)
    assert all(count > 0 for count in results)
    stats = cache.stats()
    assert stats["memory_entries"] <= 4


def test_artifact_cache_single_digest_hot_loop(tmp_path):
    metrics = Metrics()
    cache = ArtifactCache(
        root=str(tmp_path), persistent=False, memory_entries=2, metrics=metrics
    )
    payload = {"code": "x = 1", "meta": {}}
    cache.put("hot", payload)

    def read(_i):
        hits = 0
        for _ in range(500):
            got = cache.get("hot")
            assert got is not None and got["code"] == "x = 1"
            hits += 1
        return hits

    results = _hammer(read)
    assert sum(results) == THREADS * 500
