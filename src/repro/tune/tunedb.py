"""The persistent tuning database.

A tuning run is expensive (it measures real executions), so its outcome
is cached as one more kind on :class:`repro.service.store.Store`, the
store under the artifact cache: content-addressed files, stamped
envelopes, atomic publication and self-invalidation on read — a stale
or corrupt record can only ever cost a re-tune, never a wrong plan.

Records live under ``<cache root>/tunedb/<digest[:2]>/<digest>.json``
(the same root as the artifact cache, so ``REPRO_CACHE_DIR`` moves
both).  The digest is :func:`repro.service.fingerprint.tune_digest` —
the program, its config bindings and normalization options, but *not*
the level/backend/workers/tile shape, which are the decision variables.
Each record carries a **machine signature** (CPU count, NumPy version,
platform, code version): a plan tuned on one machine is meaningless on
another, so a signature mismatch is treated exactly like a corrupt
record — dropped on read, forcing a re-tune.

Records are JSON, not pickle: they are tiny, human-inspectable
(``repro tune --show`` prints them verbatim), and a malformed file can
never execute code on load.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, NamedTuple, Optional

from repro.service import fingerprint
from repro.service.cache import default_cache_dir
from repro.service.store import Store
from repro.tune.space import Plan

#: Envelope layout version — bump on any change to the record format.
TUNEDB_SCHEMA = 1

TUNEDB_SUBDIR = "tunedb"


def default_tunedb_dir() -> str:
    """``<artifact cache root>/tunedb`` (respects ``REPRO_CACHE_DIR``)."""
    return os.path.join(default_cache_dir(), TUNEDB_SUBDIR)


def machine_signature() -> Dict[str, object]:
    """What must match for a stored plan to be trusted on this host.

    CPU count (the worker axis), NumPy version (vectorized execution
    speed), the interpreter, and the platform.  The compiler's own
    ``CODE_VERSION`` is stamped separately on the envelope.
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is baked into the image
        numpy_version = "none"
    return {
        "cpu_count": os.cpu_count() or 1,
        "numpy": numpy_version,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


class TuneRecord(NamedTuple):
    """One stored tuning decision."""

    plan: Plan
    measured_s: Optional[float]  # winner's median seconds (None: unmeasured)
    predicted_us: Optional[float]  # winner's cost-model prediction
    created_at: float
    signature: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "plan": self.plan.to_dict(),
            "measured_s": self.measured_s,
            "predicted_us": self.predicted_us,
            "created_at": self.created_at,
            "signature": dict(self.signature),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TuneRecord":
        return cls(
            plan=Plan.from_dict(data["plan"]),
            measured_s=data.get("measured_s"),
            predicted_us=data.get("predicted_us"),
            created_at=float(data.get("created_at") or 0.0),
            signature=dict(data.get("signature") or {}),
        )


class TuneDB(Store):
    """Content-addressed, machine-stamped storage of winning plans.

    The :class:`~repro.service.store.Store` kind whose envelope is JSON
    and carries the record, machine signature included, under
    ``"record"``; ``get`` / ``put`` / ``entries`` / ``invalidate`` /
    ``clear`` are the store's.  A record is invalid — deleted on read,
    forcing a re-tune — when its schema, code version, digest stamp or
    machine signature disagrees with this database, or when the file is
    not parseable at all.
    """

    suffix = ".json"
    schema = TUNEDB_SCHEMA
    counters = {
        "hit": "tune.db_hits",
        "miss": "tune.db_misses",
        "invalid": "tune.db_invalid",
        "write": "tune.db_writes",
        "write_error": "tune.db_write_errors",
    }

    def __init__(
        self,
        root: Optional[str] = None,
        metrics=None,
        code_version: Optional[str] = None,
        signature: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(
            os.fspath(root) if root is not None else default_tunedb_dir(),
            metrics,
            code_version,
        )
        #: Resolved lazily when None so tests can monkeypatch
        #: ``machine_signature``.
        self._signature = signature

    @property
    def signature(self) -> Dict[str, object]:
        if self._signature is None:
            self._signature = machine_signature()
        return self._signature

    # -- the codec ---------------------------------------------------------

    def _encode(self, stamps, record: TuneRecord) -> bytes:
        envelope = dict(stamps, record=record.to_dict())
        text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
        return text.encode("utf-8")

    def _body(self, path, envelope) -> TuneRecord:
        record = TuneRecord.from_dict(envelope["record"])
        if record.signature != self.signature:
            # Tuned on another machine: as untrustworthy as a corrupt file.
            raise ValueError("machine signature mismatch")
        return record

    # -- addressing --------------------------------------------------------

    def digest_for(
        self,
        source: str,
        config=None,
        self_temp_policy: str = "always",
        simplify: bool = False,
    ) -> str:
        return fingerprint.tune_digest(
            source,
            config,
            self_temp_policy,
            simplify,
            code_version=self.code_version,
        )

    def record(
        self,
        source: str,
        record: TuneRecord,
        config=None,
        self_temp_policy: str = "always",
        simplify: bool = False,
    ) -> str:
        """Store ``record`` for a program; returns the digest used."""
        digest = self.digest_for(source, config, self_temp_policy, simplify)
        self.put(digest, record)
        return digest

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        entries = self.entries()
        return {
            "root": self.root,
            "code_version": self.code_version,
            "signature": dict(self.signature),
            "records": len(entries),
            "bytes": sum(size for _p, size, _m in entries),
        }


def fresh_record(
    plan: Plan,
    measured_s: Optional[float],
    predicted_us: Optional[float],
    signature: Optional[Dict[str, object]] = None,
) -> TuneRecord:
    """A record stamped with the current time and machine signature."""
    return TuneRecord(
        plan=plan,
        measured_s=measured_s,
        predicted_us=predicted_us,
        created_at=time.time(),
        signature=signature if signature is not None else machine_signature(),
    )
