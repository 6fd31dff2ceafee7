"""End-to-end tests for the serving daemon.

Everything here drives a real :class:`repro.daemon.Daemon` — real HTTP
sockets, real worker processes, real shared-memory segments — because
the properties under test (cross-process single-flight, crash recovery,
drain) only exist across process boundaries.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.daemon import Daemon, DaemonConfig, DaemonClient, DaemonError
from repro.daemon import shm
from tests.test_structure import REMOVED_BACKEND

SOURCE = """
program dtest;
config n : integer = 8;
region R = [1..n, 1..n];
var A : [R] float;
var B : [R] float;
var s : float;
begin
  [R] A := Index1 * 1.5 + Index2;
  [R] B := A * 2.0 + 1.0;
  s := +<< [R] B;
end;
"""

#: A second program so multi-digest tests have distinct cache entries.
SOURCE2 = SOURCE.replace("program dtest", "program dother").replace(
    "* 2.0 + 1.0", "* 3.0 + 0.5"
)


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def daemon(tmp_path):
    d = Daemon(DaemonConfig(workers=2, cache_dir=str(tmp_path / "cache")))
    d.start()
    yield d
    d.stop(drain=True)
    assert shm.leaked_segments(d.token) == []


class TestExecute:
    def test_scalars_round_trip(self, daemon):
        with DaemonClient(port=daemon.port) as client:
            result = client.execute(SOURCE)
            assert result["scalars"]["s"] == pytest.approx(1504.0)
            assert result["compiled"] == 1
            again = client.execute(SOURCE)
            assert again["scalars"]["s"] == pytest.approx(1504.0)
            assert again["compiled"] == 0  # artifact cache, not a recompile

    def test_arrays_round_trip_zero_copy_layout(self, daemon):
        seed = np.full((8, 8), 2.0)
        with DaemonClient(port=daemon.port) as client:
            result = client.execute(
                SOURCE, level="f2", arrays={"A": seed}, want_arrays=["A", "B"]
            )
        # A is overwritten by the program's first statement; B = A*2+1.
        np.testing.assert_allclose(
            result["arrays"]["B"], result["arrays"]["A"] * 2.0 + 1.0
        )
        assert result["arrays"]["B"].shape == (8, 8)

    def test_config_binding_routes_to_its_own_artifact(self, daemon):
        with DaemonClient(port=daemon.port) as client:
            small = client.execute(SOURCE, config={"n": 4})
            large = client.execute(SOURCE, config={"n": 16})
        assert small["digest"] != large["digest"]
        assert small["scalars"]["s"] != large["scalars"]["s"]

    def test_execution_error_is_a_clean_500(self, daemon):
        with DaemonClient(port=daemon.port) as client:
            with pytest.raises(DaemonError) as err:
                client.execute(SOURCE, level="f2", arrays={"A": np.zeros((3, 3))})
        assert err.value.status == 500
        assert "allocation needs" in str(err.value)

    def test_mp_shard_request_is_a_typed_500_not_an_assertion(
        self, tmp_path, monkeypatch
    ):
        # A daemonic worker may not fork ranks.  The request comes back
        # with execute_sharded's own sentence (it was the interpreter's
        # "daemonic processes are not allowed to have children"), and
        # the worker lives on.
        from repro.exec.mp_shard import DAEMONIC_MESSAGE

        monkeypatch.setenv("REPRO_PROCS", "2")  # inherited by the workers
        d = Daemon(DaemonConfig(workers=1, cache_dir=str(tmp_path / "cache")))
        d.start()
        try:
            pids = d.pool.worker_pids()
            with DaemonClient(port=d.port) as client:
                with pytest.raises(DaemonError) as err:
                    client.execute(SOURCE, backend="mp-shard")
                assert err.value.status == 500
                assert "ReproError: " + DAEMONIC_MESSAGE in str(err.value)
                assert client.execute(SOURCE)["scalars"]["s"] == (
                    pytest.approx(1504.0)
                )
            assert d.pool.worker_pids() == pids
            assert d.pool.restart_count() == 0
        finally:
            d.stop(drain=True)
        assert shm.leaked_segments(d.token) == []

    def test_mp_shard_as_the_daemon_backend_is_refused_at_start_up(self):
        from repro.exec.mp_shard import DAEMONIC_MESSAGE
        from repro.util.errors import ReproError

        with pytest.raises(ReproError) as err:
            Daemon(DaemonConfig(backend="shard"))
        assert str(err.value) == DAEMONIC_MESSAGE

    @pytest.mark.parametrize(
        "field,value",
        [("level", "zzz"), ("backend", "bogus"), ("backend", REMOVED_BACKEND)],
    )
    def test_unknown_level_or_backend_is_a_400_before_admission(
        self, daemon, field, value
    ):
        # A client typo costs no queue slot and no worker dispatch.
        offered = []
        offer = daemon.queue.offer
        daemon.queue.offer = lambda job: offered.append(job) or offer(job)
        before = daemon.metrics.counter("daemon.dispatches")
        with DaemonClient(port=daemon.port) as client:
            with pytest.raises(DaemonError) as err:
                client.execute(SOURCE, **{field: value})
            assert err.value.status == 400
            assert "unknown %s %r" % (field, value) in str(err.value)
            assert client.execute(SOURCE)["scalars"]["s"] == pytest.approx(1504.0)
        assert len(offered) == 1  # only the valid request was enqueued
        assert daemon.metrics.counter("daemon.dispatches") == before + 1

    def test_alias_and_canonical_backend_share_one_admission_digest(self, daemon):
        digests = []
        offer = daemon.queue.offer
        daemon.queue.offer = lambda job: digests.append(job.digest) or offer(job)
        with DaemonClient(port=daemon.port) as client:
            for backend in ("np", "codegen_np", "NumPy", None):
                client.execute(SOURCE, backend=backend)
            client.execute(SOURCE, backend="py")
        assert len(digests) == 5
        assert len(set(digests[:4])) == 1  # one batching key per artifact
        assert digests[4] != digests[0]

    def test_bad_frame_is_a_400(self, daemon):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", daemon.port)
        conn.request("POST", "/execute", body=b"not json at all\n")
        response = conn.getresponse()
        assert response.status == 400
        response.read()
        conn.close()


class TestAdmission:
    def test_oversized_request_rejected_413(self, tmp_path):
        config = DaemonConfig(
            workers=1,
            cache_dir=str(tmp_path / "cache"),
            max_request_bytes=1024,
        )
        with Daemon(config) as daemon:
            with DaemonClient(port=daemon.port) as client:
                with pytest.raises(DaemonError) as err:
                    client.execute(SOURCE, arrays={"A": np.zeros((64, 64))})
            assert err.value.status == 413
            counters = daemon.metrics.snapshot()["counters"]
            assert counters.get("daemon.oversized") == 1
            assert shm.leaked_segments(daemon.token) == []

    def test_full_queue_sheds_with_503(self, tmp_path):
        config = DaemonConfig(
            workers=1, queue_depth=1, cache_dir=str(tmp_path / "cache")
        )
        with Daemon(config) as daemon:
            with DaemonClient(port=daemon.port) as warm:
                warm.execute(SOURCE)  # compile before the flood

            outcomes = []

            def submit(delay):
                try:
                    with DaemonClient(port=daemon.port) as client:
                        client.execute(SOURCE, delay_s=delay)
                    outcomes.append("ok")
                except DaemonError as error:
                    outcomes.append("shed" if error.shed else "error")

            # One slow job occupies the worker, one fills the depth-1
            # queue, the rest must shed.
            threads = [
                threading.Thread(target=submit, args=(0.5,)),
                *(
                    threading.Thread(target=submit, args=(0.0,))
                    for _ in range(4)
                ),
            ]
            threads[0].start()
            wait_until(
                lambda: daemon.metrics.counter("daemon.dispatches") >= 2
            )
            for thread in threads[1:]:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            counters = daemon.metrics.snapshot()["counters"]
            assert counters.get("daemon.shed", 0) >= 1
            assert outcomes.count("shed") >= 1
            assert "error" not in outcomes
            # Shed responses must not leak their request segments.
            assert shm.leaked_segments(daemon.token) == []

    def test_every_admitted_request_is_its_own_dispatch(self, tmp_path):
        config = DaemonConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        with Daemon(config) as daemon:
            with DaemonClient(port=daemon.port) as warm:
                warm.execute(SOURCE)
            results = []

            def submit(delay):
                with DaemonClient(port=daemon.port) as client:
                    results.append(client.execute(SOURCE, delay_s=delay))

            blocker = threading.Thread(target=submit, args=(0.4,))
            blocker.start()
            wait_until(
                lambda: daemon.metrics.counter("daemon.dispatches") >= 2
            )
            followers = [
                threading.Thread(target=submit, args=(0.0,)) for _ in range(4)
            ]
            for thread in followers:
                thread.start()
            # Four same-digest jobs wait behind the blocker at once; each
            # still crosses the worker pipe alone.
            wait_until(lambda: len(daemon.queue) >= 4)
            blocker.join(timeout=30)
            for thread in followers:
                thread.join(timeout=30)
            assert len(results) == 5
            assert {r["scalars"]["s"] for r in results} == {1504.0}
            assert all(r["compiled"] == 0 for r in results)
            counters = daemon.metrics.snapshot()["counters"]
            assert counters["daemon.requests"] == 6
            assert counters["daemon.dispatches"] == counters["daemon.requests"]

    @pytest.mark.parametrize(
        "delay", [1e9, -1, "x", float("inf")], ids=repr
    )
    def test_bad_delay_is_refused_before_admission(self, tmp_path, delay):
        from repro.daemon import protocol

        config = DaemonConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        with Daemon(config) as daemon:
            frame = protocol.encode_frame({"program": SOURCE, "delay_s": delay})
            if delay == float("inf"):
                assert b'"delay_s": Infinity' in frame
            status, _ctype, body = daemon.execute_frame(frame)
            assert status == 400, body
            assert b"delay_s" in body
            counters = daemon.metrics.snapshot()["counters"]
            assert counters["daemon.dispatches"] == 0
            assert counters["daemon.errors"] == 1


class TestSingleFlight:
    def test_concurrent_clients_one_compile_across_workers(self, tmp_path):
        """N clients hitting a fresh daemon with one program must produce
        exactly one pipeline run across the whole worker pool."""
        config = DaemonConfig(workers=4, cache_dir=str(tmp_path / "cache"))
        with Daemon(config) as daemon:
            results = []
            errors = []

            def submit():
                try:
                    with DaemonClient(port=daemon.port) as client:
                        results.append(client.execute(SOURCE))
                except Exception as error:  # pragma: no cover - diagnostics
                    errors.append(error)

            threads = [threading.Thread(target=submit) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert len(results) == 8
            assert {r["scalars"]["s"] for r in results} == {1504.0}
            compiles = sum(r["compiled"] for r in results)
            assert compiles == 1, (
                "expected exactly one compile across the pool, got %d"
                % compiles
            )
            counters = daemon.metrics.snapshot()["counters"]
            assert counters.get("daemon.worker_compiles") == 1


class TestCrashRecovery:
    def test_killed_worker_restarts_without_losing_requests(self, tmp_path):
        config = DaemonConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        with Daemon(config) as daemon:
            with DaemonClient(port=daemon.port) as warm:
                warm.execute(SOURCE)
            before_pids = daemon.pool.worker_pids()
            results = []
            errors = []

            def submit():
                try:
                    with DaemonClient(port=daemon.port, timeout=60) as client:
                        results.append(client.execute(SOURCE, delay_s=0.8))
                except Exception as error:
                    errors.append(error)

            thread = threading.Thread(target=submit)
            thread.start()
            # Wait until the job is in flight on the worker, then kill it.
            assert wait_until(
                lambda: daemon.metrics.counter("daemon.dispatches") >= 2
            )
            killed = daemon.pool.kill_worker(0)
            assert killed is not None
            thread.join(timeout=60)
            assert not errors, errors
            assert results and results[0]["scalars"]["s"] == pytest.approx(
                1504.0
            )
            counters = daemon.metrics.snapshot()["counters"]
            assert counters.get("daemon.worker_restarts") == 1
            assert counters.get("daemon.requeued") == 1
            after_pids = daemon.pool.worker_pids()
            assert after_pids and after_pids != before_pids
            # The daemon must keep serving on the replacement worker.
            with DaemonClient(port=daemon.port) as client:
                assert client.execute(SOURCE)["scalars"]["s"] == pytest.approx(
                    1504.0
                )
        assert shm.leaked_segments(daemon.token) == []


class TestIntrospection:
    def test_metrics_endpoint_serves_prometheus(self, daemon):
        with DaemonClient(port=daemon.port) as client:
            client.execute(SOURCE)
            text = client.metrics()
        assert "# TYPE repro_counter_total counter" in text
        assert 'repro_counter_total{name="daemon.requests"} ' in text
        assert 'repro_timer_seconds_count{name="daemon.request"} ' in text

    def test_healthz_reports_pool_state(self, daemon):
        with DaemonClient(port=daemon.port) as client:
            client.execute(SOURCE)
            health = client.health()
        assert health["ok"] is True
        assert len(health["workers"]) == 2
        assert health["worker_restarts"] == 0
        assert health["queue_depth"] == 64
        assert health["counters"]["daemon.requests"] >= 1

    def test_unknown_paths_are_404(self, daemon):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", daemon.port)
        conn.request("GET", "/nope")
        assert conn.getresponse().status == 404
        conn.close()


class TestDrain:
    def test_sigterm_drains_inflight_requests(self, tmp_path):
        """The CLI daemon, SIGTERMed mid-request, answers the request
        before exiting zero."""
        program_path = tmp_path / "dtest.zpl"
        program_path.write_text(SOURCE)
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, [
                    os.path.join(os.path.dirname(__file__), "..", "src"),
                    os.environ.get("PYTHONPATH", ""),
                ])
            ),
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(program_path),
                "--daemon", "--port", "7391", "--daemon-workers", "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "listening" in line, line
            results = []

            def submit():
                with DaemonClient(port=7391, timeout=60) as client:
                    results.append(client.execute(SOURCE, delay_s=1.0))

            thread = threading.Thread(target=submit)
            thread.start()
            time.sleep(0.4)  # the slow request is in flight
            proc.send_signal(signal.SIGTERM)
            thread.join(timeout=60)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, out
        assert "drained" in out
        assert results and results[0]["scalars"]["s"] == pytest.approx(1504.0)

    def test_stop_drains_queued_requests(self, tmp_path):
        config = DaemonConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        daemon = Daemon(config)
        daemon.start()
        with DaemonClient(port=daemon.port) as warm:
            warm.execute(SOURCE)
        results = []

        def submit(delay):
            with DaemonClient(port=daemon.port, timeout=60) as client:
                results.append(client.execute(SOURCE, delay_s=delay))

        threads = [
            threading.Thread(target=submit, args=(0.5,)),
            threading.Thread(target=submit, args=(0.0,)),
        ]
        threads[0].start()
        wait_until(lambda: daemon.metrics.counter("daemon.dispatches") >= 2)
        threads[1].start()
        wait_until(lambda: len(daemon.queue) >= 1)
        daemon.stop(drain=True)  # must finish both, not drop the queued one
        for thread in threads:
            thread.join(timeout=30)
        assert len(results) == 2
        assert shm.leaked_segments(daemon.token) == []


    def test_stop_bounds_a_drain_whose_job_never_returns(self, tmp_path):
        # A while loop whose condition never turns false: the client gets
        # its 504 after request_timeout_s, and the drain that follows
        # waits that long again at most, then ends the worker.
        forever = SOURCE.replace(
            "s := +<< [R] B;",
            "s := +<< [R] B;\n  while 1 < 2 do s := s + 1.0; end;",
        )
        config = DaemonConfig(
            workers=1, cache_dir=str(tmp_path / "cache"), request_timeout_s=1.0
        )
        daemon = Daemon(config)
        daemon.start()
        errors = []

        def submit():
            with DaemonClient(port=daemon.port, timeout=30) as client:
                try:
                    client.execute(
                        forever,
                        arrays={"A": np.ones((8, 8))},
                        level="baseline",
                        want_arrays=["B"],
                    )
                except DaemonError as error:
                    errors.append(error)

        thread = threading.Thread(target=submit)
        thread.start()
        thread.join(timeout=30)
        assert errors and "timed out" in str(errors[0])
        started = time.monotonic()
        daemon.stop(drain=True)
        assert time.monotonic() - started < config.request_timeout_s + 4.0
        assert daemon.pool.worker_pids() == []
        assert shm.leaked_segments(daemon.token) == []


@pytest.mark.skipif(
    not __import__("repro.exec.native", fromlist=["cc_available"]).cc_available(),
    reason="needs a host C compiler",
)
class TestNativeBackend:
    def test_warm_so_cache_means_zero_cc_across_daemons(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        config = DaemonConfig(
            workers=2, cache_dir=cache_dir, backend="c"
        )
        with Daemon(config) as cold:
            with DaemonClient(port=cold.port) as client:
                first = client.execute(SOURCE, backend="c")
            assert first["compiled"] == 1
            assert first["cc"] == 1
        # A brand-new daemon on the same cache dir: artifact and .so are
        # both warm, so no pipeline run and no compiler invocation.
        with Daemon(config) as warm:
            results = []
            with DaemonClient(port=warm.port) as client:
                for _ in range(3):
                    results.append(client.execute(SOURCE, backend="c"))
            assert all(r["scalars"]["s"] == pytest.approx(1504.0) for r in results)
            assert sum(r["compiled"] for r in results) == 0
            assert sum(r["cc"] for r in results) == 0
            counters = warm.metrics.snapshot()["counters"]
            assert counters.get("daemon.worker_cc", 0) == 0
