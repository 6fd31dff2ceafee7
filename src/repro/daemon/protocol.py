"""The daemon's wire format: one JSON header line plus raw array bytes.

Requests and responses share a single framing so the client and server
reuse one codec:

* line 1 — UTF-8 JSON object terminated by ``\\n``.  For requests it
  carries the program source, compile options and the array manifest;
  for responses the scalars, status and the output-array manifest.
* the rest — the manifest's arrays as concatenated raw C-order bytes,
  in manifest order.

The manifest entry for one array is ``[name, dtype, shape]``; offsets
are implied by accumulation, which keeps the header free of redundancy
the two sides could disagree about.  Array *payloads* are never JSON- or
pickle-encoded anywhere in the stack: client → HTTP body (raw bytes) →
shared-memory segment → worker views, and back.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.util.errors import ReproError

#: Content type for framed execute requests and responses.
CONTENT_TYPE = "application/x-repro-frame"

#: Fields a request header may carry.  ``program`` is required.
REQUEST_FIELDS = frozenset(
    {
        "program",
        "level",
        "backend",
        "config",
        "want_arrays",
        "delay_s",
        "arrays",
    }
)


#: Upper bound on a request's ``delay_s`` (the workers' test hook that
#: holds a job before executing it): a held job occupies a whole worker.
MAX_DELAY_S = 5.0


class ProtocolError(ReproError):
    """A malformed frame (bad JSON, manifest/payload mismatch)."""


def _jsonable_scalars(scalars: Dict[str, object]) -> Dict[str, object]:
    """Execution scalars coerced to plain JSON types (numpy included)."""
    out: Dict[str, object] = {}
    for name, value in scalars.items():
        if isinstance(value, np.generic):
            value = value.item()
        out[name] = value
    return out


def encode_frame(
    head: Dict[str, object], arrays: Optional[Dict[str, np.ndarray]] = None
) -> bytes:
    """Serialize a header dict plus optional arrays into one frame."""
    head = dict(head)
    blobs: List[bytes] = []
    if arrays:
        manifest = []
        for name in sorted(arrays):
            value = np.ascontiguousarray(np.asarray(arrays[name]))
            manifest.append([name, value.dtype.str, list(value.shape)])
            blobs.append(value.tobytes())
        head["arrays"] = manifest
    if "scalars" in head:
        head["scalars"] = _jsonable_scalars(dict(head["scalars"]))
    return json.dumps(head, sort_keys=True).encode("utf-8") + b"\n" + b"".join(
        blobs
    )


def decode_frame(
    data: bytes, copy: bool = False
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Parse one frame into ``(head, arrays)``.

    The returned arrays are read-only NumPy views over ``data`` (zero
    additional copies) unless ``copy=True``.
    """
    newline = data.find(b"\n")
    if newline < 0:
        raise ProtocolError("frame is missing its JSON header line")
    try:
        head = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError("frame header is not valid JSON: %s" % error)
    if not isinstance(head, dict):
        raise ProtocolError("frame header must be a JSON object")
    arrays: Dict[str, np.ndarray] = {}
    offset = newline + 1
    payload = memoryview(data)[offset:]
    cursor = 0
    for entry in head.get("arrays") or []:
        try:
            name, dtype, shape = entry
            dt = np.dtype(dtype)
            shape = tuple(int(extent) for extent in shape)
        except Exception as error:
            raise ProtocolError("bad array manifest entry %r: %s" % (entry, error))
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * dt.itemsize
        if cursor + nbytes > len(payload):
            raise ProtocolError(
                "array payload truncated: %r needs %d bytes at offset %d, "
                "frame has %d" % (name, nbytes, cursor, len(payload))
            )
        view = np.frombuffer(
            payload[cursor : cursor + nbytes], dtype=dt
        ).reshape(shape)
        arrays[name] = view.copy() if copy else view
        cursor += nbytes
    if cursor != len(payload):
        raise ProtocolError(
            "frame has %d trailing payload bytes beyond its manifest"
            % (len(payload) - cursor)
        )
    return head, arrays


def validate_request_head(head: Dict[str, object]) -> None:
    """Reject unknown fields, missing program text and a bad ``delay_s``
    early: before a job is queued."""
    unknown = set(head) - REQUEST_FIELDS
    if unknown:
        raise ProtocolError(
            "unknown request fields %s" % ", ".join(sorted(map(repr, unknown)))
        )
    program = head.get("program")
    if not isinstance(program, str) or not program.strip():
        raise ProtocolError("request needs a non-empty 'program' string")
    config = head.get("config")
    if config is not None and not isinstance(config, dict):
        raise ProtocolError("'config' must be an object of name: value pairs")
    delay_s = head.get("delay_s")
    if delay_s is not None and not (
        isinstance(delay_s, (int, float))
        and not isinstance(delay_s, bool)
        and 0 <= delay_s <= MAX_DELAY_S
    ):
        raise ProtocolError(
            "'delay_s' must be a number of seconds in 0..%g, got %r"
            % (MAX_DELAY_S, delay_s)
        )
