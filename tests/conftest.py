"""Fixtures shared by the run-contract tests."""

import pytest


@pytest.fixture
def spy_on_execution(monkeypatch):
    """``spy(backend) -> entered``: a list that grows by one each time
    the backend starts executing — a single-process backend's kernel is
    entered, ``mp-shard``'s rank pool is handed a run.  Loading is not
    executing: a request refused up front leaves the list empty."""
    from repro.exec import mp_shard
    from repro.exec.backends import BACKENDS, bind

    def spy(backend):
        entered = []
        real = BACKENDS[backend]
        if real.kernel is None:
            pool_run = mp_shard._Pool.run
            monkeypatch.setattr(
                mp_shard._Pool, "run",
                lambda *args: entered.append(1) or pool_run(*args),
            )
            return entered

        def load(program, code=None, artifacts=None):
            kernel = real.kernel(program, code, artifacts)

            def counted(arrays, scalars, **options):
                entered.append(1)
                return kernel(arrays, scalars, **options)

            return bind(program, counted)

        monkeypatch.setitem(BACKENDS, backend, real._replace(load=load))
        return entered

    return spy
