"""Stable content hashing for compiled artifacts.

A compiled artifact is addressed by the SHA-256 of a *canonical
serialization* of everything that determines its contents:

* the program — either the raw source text (fast path, no parsing needed
  to probe the cache) or the normalized IR (via :func:`canonical_program`,
  a deterministic nested-list encoding of every statement, region and
  expression);
* the optimization level, configuration bindings, and normalization
  options (``self_temp_policy``, constant folding);
* the execution backend whose code the artifact carries;
* the code version — bumped whenever the compiler or the artifact format
  changes meaning, so stale artifacts can never be replayed.

The encoding uses only sorted JSON of plain ints/floats/strings/lists, so
digests are identical across processes, platforms, and ``PYTHONHASHSEED``
values — unlike ``hash()``, which is salted per process.  Statement
``uid`` fields (process-local counters) are deliberately excluded.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Mapping, Optional

from repro import __version__
from repro.ir import expr as ir
from repro.ir.linexpr import LinearExpr
from repro.ir.program import IRProgram
from repro.ir.region import Region
from repro.ir.statement import (
    ArrayStatement,
    BoundaryStatement,
    IfStatement,
    IRStatement,
    LoopStatement,
    ReductionStatement,
    ScalarStatement,
    WhileStatement,
)
from repro.util.errors import ReproError

#: Stamped into every digest and artifact; bump on any change to the
#: compiler, the generated code, or the artifact layout.
CODE_VERSION = "repro-%s/artifact-11" % __version__


# -- canonical encodings ----------------------------------------------------


def canonical_linexpr(expr: LinearExpr) -> list:
    """``const + sum(coef*var)`` as ``[const, [name, coef], ...]``.

    ``LinearExpr.terms`` is already sorted by name, so the encoding is
    order-independent of how the expression was built.
    """
    return [expr.const] + [[name, coef] for name, coef in expr.terms]


def canonical_region(region: Region) -> list:
    return [
        [canonical_linexpr(lo), canonical_linexpr(hi)] for lo, hi in region.dims
    ]


def canonical_expr(expr: ir.IRExpr) -> list:
    """A deterministic nested-list encoding of an IR expression tree."""
    if isinstance(expr, ir.Const):
        # Distinguish 1 from 1.0 from True: the type changes semantics.
        return ["const", type(expr.value).__name__, repr(expr.value)]
    if isinstance(expr, ir.ScalarRef):
        return ["scalar", expr.name]
    if isinstance(expr, ir.ArrayRef):
        return ["array", expr.name, list(expr.offset)]
    if isinstance(expr, ir.IndexRef):
        return ["index", expr.dim]
    if isinstance(expr, ir.BinOp):
        return [
            "bin",
            expr.op,
            canonical_expr(expr.left),
            canonical_expr(expr.right),
        ]
    if isinstance(expr, ir.UnOp):
        return ["un", expr.op, canonical_expr(expr.operand)]
    if isinstance(expr, ir.Call):
        return ["call", expr.name] + [canonical_expr(a) for a in expr.args]
    if isinstance(expr, ir.Reduce):
        return [
            "reduce",
            expr.op,
            canonical_region(expr.region),
            canonical_expr(expr.operand),
        ]
    raise ReproError("cannot fingerprint expression %r" % (expr,))


def canonical_statement(stmt: IRStatement) -> list:
    """A deterministic encoding of one IR statement (uids excluded)."""
    if isinstance(stmt, ReductionStatement):
        return [
            "reduction",
            canonical_region(stmt.region),
            stmt.scalar_target,
            stmt.op,
            canonical_expr(stmt.rhs),
        ]
    if isinstance(stmt, ArrayStatement):
        return [
            "assign",
            canonical_region(stmt.region),
            stmt.target,
            canonical_expr(stmt.rhs),
        ]
    if isinstance(stmt, ScalarStatement):
        return ["sassign", stmt.target, canonical_expr(stmt.rhs)]
    if isinstance(stmt, BoundaryStatement):
        return ["boundary", canonical_region(stmt.region), stmt.kind, stmt.array]
    if isinstance(stmt, LoopStatement):
        return [
            "for",
            stmt.var,
            canonical_expr(stmt.lo),
            canonical_expr(stmt.hi),
            bool(stmt.downto),
            [canonical_statement(s) for s in stmt.body],
        ]
    if isinstance(stmt, IfStatement):
        return [
            "if",
            canonical_expr(stmt.cond),
            [canonical_statement(s) for s in stmt.then_body],
            [canonical_statement(s) for s in stmt.else_body or []],
        ]
    if isinstance(stmt, WhileStatement):
        return [
            "while",
            canonical_expr(stmt.cond),
            [canonical_statement(s) for s in stmt.body],
        ]
    raise ReproError("cannot fingerprint statement %r" % (stmt,))


def canonical_program(program: IRProgram) -> dict:
    """The whole normalized program as a JSON-serializable structure.

    Declaration tables are sorted by name (their dict order is a parse
    artifact); the body keeps statement order, which is semantic.
    """
    return {
        "name": program.name,
        "configs": [
            [name, type(value).__name__, repr(value)]
            for name, value in sorted(program.configs.items())
        ],
        "arrays": [
            # The trailing "output" marker is appended only when set, so
            # programs that predate it (every parsed mini-ZPL program)
            # keep their historical digests.
            [
                name,
                canonical_region(info.region),
                info.elem_kind,
                bool(info.is_temp),
            ]
            + (["output"] if getattr(info, "is_output", False) else [])
            for name, info in sorted(program.arrays.items())
        ],
        "scalars": [
            [name, info.kind] + (["temp"] if info.is_temp else [])
            for name, info in sorted(program.scalars.items())
        ],
        "body": [canonical_statement(stmt) for stmt in program.body],
    }


# -- digests -----------------------------------------------------------------


def _digest_of(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical_config(config: Optional[Mapping[str, object]]) -> List[list]:
    return [
        [name, type(value).__name__, repr(value)]
        for name, value in sorted((config or {}).items())
    ]


def ir_digest(
    program: IRProgram,
    level: str,
    backend: str,
    code_version: Optional[str] = None,
) -> str:
    """Content digest of a normalized IR program plus compile options."""
    return _digest_of(
        {
            "kind": "ir",
            "program": canonical_program(program),
            "level": level,
            "backend": backend,
            "code_version": code_version or CODE_VERSION,
        }
    )


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
