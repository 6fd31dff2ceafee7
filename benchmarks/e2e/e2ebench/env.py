"""Run context: scratch directories, teardown, leak checks.

Everything the benchmark writes lives under ``benchmarks/e2e/out/`` in
the checkout it runs from: scratch cache directories, compiler temp
files (``TMPDIR`` is pointed there for the whole process tree) and the
span files of traced runs.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import os
import re
import resource
import shutil
import signal
import tempfile
import time
from typing import List, Set

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

#: mp-shard names its segments ``rs<10 hex>_...``; they carry no owner,
#: so a leak is anything of that shape that appeared during the run.
_SHARD_SEGMENT = re.compile(r"^rs[0-9a-f]{10}_")


def shard_segments() -> Set[str]:
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return set()
    return {name for name in names if _SHARD_SEGMENT.match(name)}


def adopt_orphans() -> None:
    """Make this process the parent of every orphan among its descendants
    (a daemon worker's resource tracker, say), so that ``reap_descendants``
    can see them and wait for them instead of leaving them to init."""
    pr_set_child_subreaper = 36
    try:
        ctypes.CDLL(None).prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init as before


def _children() -> List[int]:
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open("/proc/%s/stat" % entry) as handle:
                    fields = handle.read().rpartition(")")[2].split()
            except OSError:
                continue  # gone between the listing and the read
            if fields[1] == me:
                found.append(int(entry))
    return found


def _command(pid: int) -> str:
    try:
        with open("/proc/%d/cmdline" % pid, "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(errors="replace").strip()[:120]
    except OSError:
        return "?"


def reap_descendants(grace_s: float) -> List[str]:
    """Wait until every process below this one has ended; returns the ones
    that had to be killed because they were still running after ``grace_s``.

    ``multiprocessing.shared_memory`` (mp-shard's segments, the daemon
    client's) starts a resource tracker that outlives its parent by a
    moment; closing its pipe ends it, and it is waited for like the rest.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None

    killed = []
    deadline = time.monotonic() + grace_s
    while True:
        running = []
        for pid in _children():
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    running.append(pid)
            except ChildProcessError:
                pass  # waited for by whoever started it
        if not running:
            return killed
        if time.monotonic() < deadline:
            time.sleep(0.01)
            continue
        for pid in running:  # their own children are adopted and seen next pass
            killed.append("child:%d %s" % (pid, _command(pid)))
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Context:
    """What one run of one workload shares between its phases."""

    def __init__(self, seed: int, seconds: float, smoke: bool, spans, calibrator) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.spans = spans
        #: The machine yardstick of this run (see calibrate.py).
        self.calibrator = calibrator
        #: Set-up is rehearsed; 0 marks the set-up whose state is then timed.
        self.rehearsal = 0
        self.cleanup = contextlib.ExitStack()
        # Every temp file of this process tree (compiler scratch, loaded
        # .so copies, cache directories) goes under one directory that is
        # removed when the run ends, whatever the children leave in it.
        os.makedirs(OUT_DIR, exist_ok=True)
        self.scratch_root = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
        self.cleanup.callback(shutil.rmtree, self.scratch_root, ignore_errors=True)
        os.environ["TMPDIR"] = self.scratch_root
        tempfile.tempdir = None
        #: Leaks a workload found while tearing down what it started.
        self.leaks: List[str] = []
        self._shard_before = shard_segments()

    def smoke_twin(self, seconds: float) -> "Context":
        """The same run (scratch, teardown, spans) at smoke sizes."""
        twin = copy.copy(self)
        twin.smoke = True
        twin.seconds = seconds
        twin.rehearsal = 0
        return twin

    def scratch_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix + "-", dir=self.scratch_root)

    def close(self) -> List[str]:
        """Tear everything down; returns what was left behind, if anything."""
        self.cleanup.close()
        leaks = list(self.leaks)
        leaks += ["shm:" + name for name in sorted(shard_segments() - self._shard_before)]
        return leaks + reap_descendants(grace_s=3.0)
