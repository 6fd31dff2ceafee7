"""Multi-process hardening tests for the disk artifact cache.

The daemon points every worker process at one cache directory, so the
disk tier must survive concurrent writers (atomic publish, no torn
reads) and the build lock must collapse N racing compiles of the same
digest into one pipeline run — across real processes, not threads.
"""

import hashlib
import multiprocessing
import os

import numpy as np
import pytest

from repro.exec.native import cc_available
from repro.service.cache import ArtifactCache
from repro.service.metrics import Metrics

SOURCE = """
program mp;
config n : integer = 8;
region R = [1..n, 1..n];
var A : [R] float;
var s : float;
begin
  [R] A := Index1 + Index2 * 2.0;
  s := +<< [R] A;
end;
"""


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


def _checksum(blob: np.ndarray) -> str:
    return hashlib.sha256(blob.tobytes()).hexdigest()


def _stress_writer(root, worker, rounds, barrier, queue):
    cache = ArtifactCache(root=root, memory_entries=1)
    barrier.wait()
    bad = 0
    for i in range(rounds):
        digest = "d%04d" % (i % 8)  # overlapping keys: same-digest races
        blob = np.full(256, float(i + worker), dtype=np.float64)
        cache.put(digest, {"blob": blob, "sum": _checksum(blob)})
        got = cache.get("d%04d" % ((i + worker) % 8))
        if got is not None and _checksum(got["blob"]) != got["sum"]:
            bad += 1
    queue.put(bad)


def _racing_compiler(root, barrier, queue):
    from repro.service.service import Service

    service = Service(level="c2", cache_dir=root, metrics=Metrics())
    barrier.wait()
    compiled = service.compile(SOURCE)
    result = compiled.execute()
    queue.put(
        (
            service.metrics.counter("service.compiles"),
            service.metrics.counter("cache.lock_waits"),
            result.scalars["s"],
        )
    )


def _racing_size(root, n, barrier, queue):
    from repro.exec import native
    from repro.service.service import Service

    native._kernel_memo.clear()  # a forked child inherits the parent's
    service = Service(level="c2", backend="c", cache_dir=root, metrics=Metrics())
    barrier.wait()
    compiled = service.compile(SOURCE, config={"n": n})
    result = compiled.execute()
    queue.put(
        (
            service.metrics.counter("service.compiles"),
            service.metrics.counter("native.cc_invocations"),
            service.metrics.counter("cache.lock_waits"),
            compiled.digest,
            result.scalars["s"],
        )
    )


class TestConcurrentWriters:
    def test_two_process_putget_stress_never_tears(self, tmp_path):
        ctx = _mp_context()
        barrier = ctx.Barrier(2)
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_stress_writer,
                args=(str(tmp_path), worker, 40, barrier, queue),
            )
            for worker in range(2)
        ]
        for proc in procs:
            proc.start()
        results = [queue.get(timeout=60) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        # Every payload read back matched its embedded checksum: atomic
        # tempfile+rename publish means a reader never sees a torn write.
        assert results == [0, 0]

    def test_entries_survive_and_reload_after_the_race(self, tmp_path):
        ctx = _mp_context()
        barrier = ctx.Barrier(2)
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_stress_writer,
                args=(str(tmp_path), worker, 16, barrier, queue),
            )
            for worker in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        fresh = ArtifactCache(root=str(tmp_path))
        alive = [d for d in ("d%04d" % i for i in range(8)) if fresh.get(d)]
        assert alive, "stress run left no readable entries"
        for digest in alive:
            payload = fresh.get(digest)
            assert _checksum(payload["blob"]) == payload["sum"]


class TestCrossProcessSingleFlight:
    def test_n_processes_one_compile(self, tmp_path):
        """Six processes race to compile the same program against one
        fresh cache directory: the build lock admits exactly one."""
        ctx = _mp_context()
        count = 6
        barrier = ctx.Barrier(count)
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_racing_compiler, args=(str(tmp_path), barrier, queue)
            )
            for _ in range(count)
        ]
        for proc in procs:
            proc.start()
        results = [queue.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        compiles = sum(r[0] for r in results)
        values = {r[2] for r in results}
        assert compiles == 1, (
            "expected one compile across %d processes, got %d"
            % (count, compiles)
        )
        assert len(values) == 1  # and they all computed the same answer

    @pytest.mark.skipif(not cc_available(), reason="no host C compiler")
    def test_sizes_of_one_program_race_to_one_cc(self, tmp_path):
        """Four processes compile four *sizes* of one program on ``c``
        against one fresh cache directory: four digests, four pipeline
        runs, and — the C text carrying no sizes — one native key, whose
        build lock admits exactly one compiler run."""
        ctx = _mp_context()
        sizes = (6, 8, 11, 16)
        barrier = ctx.Barrier(len(sizes))
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_racing_size, args=(str(tmp_path), n, barrier, queue)
            )
            for n in sizes
        ]
        for proc in procs:
            proc.start()
        results = [queue.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert sum(r[0] for r in results) == len(sizes)
        assert len({r[3] for r in results}) == len(sizes)
        assert sum(r[1] for r in results) == 1
        assert ArtifactCache(root=str(tmp_path)).stats()["native_entries"] == 1
        # sum of i + 2j over [1..n, 1..n]: each ran on its own extents.
        assert sorted(r[4] for r in results) == [
            3 * n * n * (n + 1) / 2 for n in sizes
        ]

    def test_contended_lock_blocks_and_counts(self, tmp_path):
        """A process that hits a held build lock records cache.lock_waits
        and blocks until the holder releases."""
        ctx = _mp_context()
        queue = ctx.Queue()

        def contend(root, q):
            cache = ArtifactCache(root=root)
            with cache.build_lock("feed0"):
                pass
            q.put(cache.metrics.counter("cache.lock_waits"))

        holder = ArtifactCache(root=str(tmp_path))
        with holder.build_lock("feed0"):
            proc = ctx.Process(target=contend, args=(str(tmp_path), queue))
            proc.start()
            import time

            time.sleep(0.3)  # the child is now blocked on flock
            assert proc.is_alive(), "child acquired a lock the parent holds"
        waits = queue.get(timeout=30)
        proc.join(timeout=30)
        assert waits == 1

    def test_lock_degrades_to_noop_without_persistence(self):
        cache = ArtifactCache(persistent=False)
        with cache.build_lock("deadbeef"):
            pass  # no lock dir, no error
        assert cache.metrics.counter("cache.lock_waits") == 0

    def test_lock_file_lives_under_cache_root(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path))
        with cache.build_lock("cafe01"):
            assert os.path.exists(
                os.path.join(str(tmp_path), "locks", "cafe01.lock")
            )
