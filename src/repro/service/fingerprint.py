"""Stable content hashing for compiled artifacts.

A compiled artifact is addressed by the SHA-256 of a *canonical
serialization* of everything that determines its contents, with one
address per frontend:

* the program — the raw source text for mini-ZPL (:func:`source_digest`:
  the cache is probed without parsing), or the canonical encoding of a
  traced ``repro.array`` expression graph (:func:`trace_digest`: probed
  without lowering);
* the optimization level, configuration bindings, and normalization
  options (``self_temp_policy``, constant folding);
* the execution backend whose code the artifact carries;
* the code version — bumped whenever the compiler or the artifact format
  changes meaning, so stale artifacts can never be replayed.

The encoding uses only sorted JSON of plain ints/floats/strings/lists, so
digests are identical across processes, platforms, and ``PYTHONHASHSEED``
values — unlike ``hash()``, which is salted per process.
:func:`native_digest` addresses the ``c`` backend's shared objects the
same way.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Mapping, Optional

from repro import __version__

#: Stamped into every digest and artifact; bump on any change to the
#: compiler, the generated code, or the artifact layout.
CODE_VERSION = "repro-%s/artifact-12" % __version__


# -- digests -----------------------------------------------------------------


def _digest_of(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical_config(config: Optional[Mapping[str, object]]) -> List[list]:
    return [
        [name, type(value).__name__, repr(value)]
        for name, value in sorted((config or {}).items())
    ]


def source_digest(
    source: str,
    level: str,
    config: Optional[Mapping[str, object]] = None,
    backend: str = "interp",
    self_temp_policy: str = "always",
    simplify: bool = False,
    code_version: Optional[str] = None,
) -> str:
    """Content digest of raw source text plus every compile option.

    This is the serving fast path: the cache can be probed without
    parsing.  Any byte change to the source, any config rebinding, level,
    backend, normalization policy or code version yields a new address.
    """
    return _digest_of(
        {
            "kind": "source",
            "source": source,
            "level": level,
            "config": _canonical_config(config),
            "backend": backend,
            "self_temp_policy": self_temp_policy,
            "simplify": bool(simplify),
            "code_version": code_version or CODE_VERSION,
        }
    )


def trace_digest(
    trace: dict,
    level: str,
    backend: str,
    code_version: Optional[str] = None,
) -> str:
    """Content digest of a traced ``repro.array`` expression graph.

    ``trace`` is the canonical encoding :meth:`repro.array.graph.Trace.canonical`
    produces: shapes, dtypes and op topology only — input *values* are
    deliberately excluded, so every execution of the same program shape
    shares one address and hits the artifact cache without re-lowering.
    """
    return _digest_of(
        {
            "kind": "trace",
            "trace": trace,
            "level": level,
            "backend": backend,
            "code_version": code_version or CODE_VERSION,
        }
    )


def native_digest(
    source_hash: str,
    compiler: str,
    flags,
    code_version: Optional[str] = None,
) -> str:
    """Content digest of a compiled native shared object.

    Covers what determines the machine code and nothing else: the
    SHA-256 of the C *text* (``source_hash``), the *compiler identity*
    and the exact flag vector — upgrading the system compiler or changing
    ``DEFAULT_CFLAGS`` must re-key every cached ``.so``.  The text of the
    ``c`` backend carries no sizes (they travel in the ABI), so the
    artifacts of one program at every size, in every cache entry, name
    the same object here: one ``.so`` per text.  Computed at use time —
    the compiler is a property of the machine, not of the program.
    """
    return _digest_of(
        {
            "kind": "native",
            "source": source_hash,
            "compiler": compiler,
            "flags": list(flags),
            "code_version": code_version or CODE_VERSION,
        }
    )
