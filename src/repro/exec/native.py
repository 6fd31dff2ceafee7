"""Native execution: compile the C emitter's output with the host cc.

The ``c`` backend closes the loop the paper's methodology implies: the
scalarizer's fused loop nests render as one C translation unit per
program (:func:`repro.scalarize.codegen_c.render_c_module`), the host C
compiler turns it into a shared object, and ``ctypes`` calls the
``int repro_run(void **bufs)`` entry point with zero-copy pointers into
the same numpy buffers every other backend uses.  Contracted arrays are
C locals, so the register-level contraction the paper measures is now
real machine code rather than NumPy per-op kernels.

Pieces:

* :func:`find_cc` / :func:`cc_available` — compiler discovery.  The
  ``REPRO_CC`` environment variable overrides (an *empty* value means
  "explicitly unavailable", which tests use to exercise degradation).
* :func:`compile_shared` — one ``cc -O2 -fPIC -shared`` invocation;
  flags are fixed (and recorded in the service fingerprint via
  :func:`repro.service.fingerprint.native_digest`).  ``-ffp-contract=off``
  keeps the compiler from fusing multiply-adds (bit-identity with the
  Python element loops is a test invariant), ``-fwrapv`` matches
  ``np.int64`` wraparound.
* :class:`NativeKernel` — a loaded shared object, and
  :func:`call_kernel`, which runs it in place on arrays the caller built
  (:func:`repro.scalarize.emit_common.build_state`) after checking that
  each is the buffer its slot describes, passing scalars in and out
  through one-element buffers.
* :func:`kernel_for_source` — the one ladder from a rendered
  translation unit to a loaded kernel: per-process memo, then the
  service layer's content-addressed ``.so`` artifacts when the caller
  hands them in, then the host compiler — every rung keyed by the
  *text*, which carries no sizes, so one program at any number of sizes
  is one compiler run and one ``dlopen``.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.scalarize.codegen_c import AbiEntry
from repro.scalarize.emit_common import NP_DTYPES, build_state
from repro.util.errors import (
    BackendUnavailableError,
    InterpError,
    NativeCompileError,
    ReproError,
)

#: Compile flags for every generated translation unit.  Recorded in the
#: native artifact fingerprint: changing them must re-key cached ``.so``s.
DEFAULT_CFLAGS: Tuple[str, ...] = (
    "-O2",
    "-fPIC",
    "-shared",
    "-ffp-contract=off",
    "-fwrapv",
)

#: Trailing link inputs (libm for sqrt/pow/copysign and friends).
LINK_FLAGS: Tuple[str, ...] = ("-lm",)

_CC_CANDIDATES = ("cc", "gcc", "clang")


def find_cc() -> Optional[str]:
    """Locate the host C compiler, or None when there is none.

    ``REPRO_CC`` overrides discovery entirely; setting it to an empty
    string declares the compiler unavailable (the clean way for tests to
    exercise the degraded path without doctoring ``PATH``).  Evaluated
    on every call so environment changes take effect immediately.
    """
    override = os.environ.get("REPRO_CC")
    if override is not None:
        return override or None
    for name in _CC_CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


def cc_available() -> bool:
    """True when a host C compiler can be invoked."""
    return find_cc() is not None


_identity_memo: Dict[str, str] = {}


def compiler_identity(cc: Optional[str] = None) -> str:
    """A stable identity string for the compiler (path + version line).

    Feeds the native artifact fingerprint so a compiler upgrade re-keys
    every cached shared object.  Memoized per path.
    """
    cc = cc or find_cc()
    if cc is None:
        return "none"
    cached = _identity_memo.get(cc)
    if cached is not None:
        return cached
    try:
        proc = subprocess.run(
            [cc, "--version"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=30,
        )
        version = (proc.stdout or "").splitlines()[0].strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired, IndexError):
        version = "unknown"
    identity = "%s (%s)" % (cc, version)
    _identity_memo[cc] = identity
    return identity


def compile_shared(source: str, cc: Optional[str] = None) -> bytes:
    """Compile one C translation unit to shared-object bytes.

    Raises :class:`BackendUnavailableError` when no compiler exists and
    :class:`NativeCompileError` (with the compiler's stderr) when the
    generated code is rejected — the latter is always an emitter bug.
    """
    cc = cc or find_cc()
    if cc is None:
        raise BackendUnavailableError(
            "the c backend needs a host C compiler "
            "(cc, gcc or clang on PATH, or REPRO_CC=/path/to/cc)"
        )
    with tempfile.TemporaryDirectory(prefix="repro-cc-") as tmp:
        c_path = os.path.join(tmp, "kernel.c")
        so_path = os.path.join(tmp, "kernel.so")
        with open(c_path, "w") as handle:
            handle.write(source)
        command = [cc, *DEFAULT_CFLAGS, "-o", so_path, c_path, *LINK_FLAGS]
        try:
            proc = subprocess.run(
                command,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=300,
            )
        except OSError as exc:
            raise BackendUnavailableError(
                "cannot invoke C compiler %r: %s" % (cc, exc)
            )
        if proc.returncode != 0:
            raise NativeCompileError(
                "C compilation failed (%s):\n%s"
                % (" ".join(command), proc.stderr.strip())
            )
        with open(so_path, "rb") as handle:
            return handle.read()


# -- loading and marshalling -------------------------------------------------


class NativeKernel:
    """A loaded shared object exposing ``int repro_run(void **bufs)``.

    ``so_bytes`` is the object's contents, held when ``so_path`` is a
    file that was unlinked once loaded (:func:`load_kernel`).
    """

    def __init__(self, so_path: str, so_bytes: Optional[bytes] = None) -> None:
        self.path = so_path
        self._bytes = so_bytes
        self._lib = ctypes.CDLL(so_path)
        self._fn = self._lib.repro_run
        self._fn.restype = ctypes.c_int
        self._fn.argtypes = [ctypes.POINTER(ctypes.c_void_p)]

    def so_bytes(self) -> bytes:
        """The shared object's contents; :class:`OSError` when they were
        not held and its file is gone."""
        if self._bytes is not None:
            return self._bytes
        with open(self.path, "rb") as handle:
            return handle.read()

    def run(self, buffers: List[np.ndarray]) -> None:
        # The address through the buffer protocol: ``ndarray.ctypes``
        # builds a helper object per access (3-4x the cost), and this
        # form itself refuses a read-only or non-contiguous buffer.
        pointers = (ctypes.c_void_p * len(buffers))(
            *[
                ctypes.addressof(ctypes.c_char.from_buffer(buf))
                for buf in buffers
            ]
        )
        status = self._fn(pointers)
        if status != 0:
            raise InterpError("native kernel returned status %d" % status)


def load_kernel(so_bytes: bytes) -> NativeKernel:
    """dlopen shared-object bytes that no persistent cache holds.

    They go to a temp file of their own, which is unlinked as soon as it
    is loaded (the mapping outlives the name), so a process that dies
    however it dies leaves no file behind.  The kernel keeps the bytes.
    """
    with tempfile.NamedTemporaryFile(prefix="repro-native-", suffix=".so") as handle:
        handle.write(so_bytes)
        handle.flush()
        return NativeKernel(handle.name, so_bytes)


def call_kernel(
    kernel: NativeKernel, abi: Sequence[AbiEntry], arrays, scalars
) -> Dict[str, object]:
    """Run ``kernel`` in place on ``arrays``; returns the final scalars.

    ``abi`` is :func:`c_abi` of the program: its storage layout, the
    order of the buffer vector, then the size vector.  The compiled code
    indexes each array by the extents the size vector carries and writes
    in place, so a buffer of another dtype or shape, or one that is not
    C-contiguous and writable, is refused with a :class:`ReproError`
    rather than handed over as a pointer — and so is a size vector whose
    extents are not those of the buffers just checked.  Every scalar
    travels in a one-element buffer holding its starting value, which
    the kernel overwrites on return.
    """
    if not abi or abi[-1].role != "sizes":
        raise ReproError(
            "the c kernel needs c_abi(program): the layout alone lacks the "
            "size vector its text reads"
        )
    buffers: List[np.ndarray] = []
    for entry in abi:
        dtype = NP_DTYPES[entry.kind]
        if entry.role == "sizes":
            for k, name, dim in entry.extents:
                if entry.values[k] != arrays[name].shape[dim]:
                    raise ReproError(
                        "the c kernel's size vector says %r has extent %d "
                        "along dimension %d, the buffer has %d"
                        % (name, entry.values[k], dim + 1,
                           arrays[name].shape[dim])
                    )
            buf = np.array(entry.values or (0,), dtype=dtype)
        elif entry.role == "array":
            buf = arrays[entry.name]
            flags = buf.flags
            if (
                buf.dtype != dtype
                or buf.shape != entry.shape
                or not (flags.c_contiguous and flags.writeable)
            ):
                raise ReproError(
                    "the c kernel needs %r as a writable C-contiguous %s "
                    "array of shape %s, got %s of shape %s (C-contiguous: "
                    "%s, writable: %s)"
                    % (
                        entry.name, dtype, entry.shape, buf.dtype, buf.shape,
                        flags.c_contiguous, flags.writeable,
                    )
                )
        else:
            buf = np.array([scalars[entry.name]], dtype=dtype)
        buffers.append(buf)
    kernel.run(buffers)
    return {
        entry.name: buf.item()
        for entry, buf in zip(abi, buffers)
        if entry.role == "scalar"
    }


def run_kernel(
    kernel: NativeKernel, abi: Sequence[AbiEntry], inputs=None, scalars=None
) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """One call from scratch: build the state ``abi`` describes (all of
    it but the final size entry is storage), seeded from ``inputs`` /
    ``scalars``, and run on it.  Returns (arrays, final scalars)."""
    arrays, start = build_state(abi[:-1], inputs, scalars)
    return arrays, call_kernel(kernel, abi, arrays, start)


# -- the kernel ladder ---------------------------------------------------------

#: Per-process JIT memo: native key -> loaded kernel.  The differential
#: fuzz corpus compiles thousands of small programs, and every size of one
#: program renders one text; this dedupes both within a process.
_kernel_memo: Dict[str, NativeKernel] = {}


def kernel_for_source(
    source: str, cc: Optional[str] = None, artifacts=None
) -> NativeKernel:
    """The loaded kernel for one rendered translation unit.

    Every rung is keyed by the *text*
    (:func:`repro.service.fingerprint.native_digest` over the source
    hash, the compiler and the flags), not by the artifact it came from,
    so any two artifacts that render equal text — one program at other
    sizes, in other cache entries — share one compiler run and one
    ``dlopen``.  Resolution order: the per-process memo, the
    content-addressed ``.so`` tier of ``artifacts.cache`` (a
    :class:`repro.exec.Artifacts`; a warm serve in a fresh process
    performs *zero* compiler invocations), and only then the host ``cc``
    — one process at a time per key (``cache.build_lock``), with the
    shared object stored back for the next process.  A memo hit leaves
    the object in the caller's persistent cache too (a file copy), so
    that cache serves a later process whichever rung served this one.  A
    persistent cache's own file is what gets dlopened; without one the
    object is loaded from a temp file unlinked at once
    (:func:`load_kernel`).
    Machines without a compiler raise :class:`BackendUnavailableError`.
    """
    cc = cc or find_cc()
    if cc is None:
        raise BackendUnavailableError(
            "the c backend needs a host C compiler "
            "(cc, gcc or clang on PATH, or REPRO_CC=/path/to/cc)"
        )
    from repro.service import fingerprint

    cache = artifacts.cache if artifacts is not None else None
    key = fingerprint.native_digest(
        hashlib.sha256(source.encode("utf-8")).hexdigest(),
        compiler_identity(cc),
        DEFAULT_CFLAGS,
        code_version=cache.code_version if cache is not None else None,
    )
    kernel = _kernel_memo.get(key)
    if kernel is not None and cache is not None and cache.persistent:
        # Loaded from another cache (or from none): leave a copy in this
        # one, unless it holds the object already.
        elsewhere = os.path.dirname(os.path.dirname(kernel.path)) != cache.root
        if elsewhere and cache.get_native(key) is None:
            try:
                cache.put_native(key, kernel.so_bytes())
            except OSError:
                kernel = None  # its file is gone: build again
    if kernel is None:
        kernel = _kernel_memo[key] = _build_kernel(source, cc, key, artifacts)
    return kernel


def _build_kernel(source: str, cc: str, key: str, artifacts) -> NativeKernel:
    cache = artifacts.cache if artifacts is not None else None
    so_path = cache.get_native(key) if cache is not None else None
    with contextlib.ExitStack() as held:
        if cache is not None and so_path is None:
            # Single flight per key, across processes and across digests
            # (always taken inside a digest's lock, never around one):
            # whoever waited here finds the object the holder published.
            held.enter_context(cache.build_lock(key))
            so_path = cache.get_native(key)
        if so_path is None:
            if artifacts is not None:
                held.enter_context(
                    (artifacts.timers or artifacts.metrics).time("compile.cc")
                )
            so_bytes = compile_shared(source, cc)
            if artifacts is not None:
                artifacts.metrics.incr("native.cc_invocations")
                so_path = cache.put_native(key, so_bytes)
    return NativeKernel(so_path) if so_path is not None else load_kernel(so_bytes)
