"""Exception hierarchy for the repro compiler."""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SourceLocation:
    """A (line, column) position in a source file, 1-based."""

    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int) -> None:
        self.line = line
        self.column = column

    def __repr__(self) -> str:
        return "SourceLocation(%d, %d)" % (self.line, self.column)

    def __str__(self) -> str:
        return "%d:%d" % (self.line, self.column)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SourceLocation)
            and self.line == other.line
            and self.column == other.column
        )

    def __hash__(self) -> int:
        return hash((self.line, self.column))


class LexError(ReproError):
    """Raised on an unrecognized character or malformed token."""

    def __init__(self, message: str, location: Optional[SourceLocation] = None):
        self.location = location
        if location is not None:
            message = "%s: %s" % (location, message)
        super().__init__(message)


class ParseError(ReproError):
    """Raised on a syntax error."""

    def __init__(self, message: str, location: Optional[SourceLocation] = None):
        self.location = location
        if location is not None:
            message = "%s: %s" % (location, message)
        super().__init__(message)


class SemanticError(ReproError):
    """Raised on a semantic (name/type/region) error."""

    def __init__(self, message: str, location: Optional[SourceLocation] = None):
        self.location = location
        if location is not None:
            message = "%s: %s" % (location, message)
        super().__init__(message)


class NormalizationError(ReproError):
    """Raised when a statement cannot be put into normal form."""


class DependenceError(ReproError):
    """Raised on an inconsistency while building the ASDG."""


class FusionError(ReproError):
    """Raised on an invalid fusion partition or fusion request."""


class ScalarizationError(ReproError):
    """Raised when scalarization cannot produce a legal loop nest."""


class InterpError(ReproError):
    """Raised on a runtime error in an interpreter."""


class InputError(InterpError):
    """Raised when per-request initial array contents are invalid.

    Covers unknown array names, shape mismatches against the allocation
    region, and dtype mismatches that cannot be cast safely.  Subclasses
    :class:`InterpError` because the interpreter's storage historically
    raised that for seeding errors and callers catch it.
    """


class MachineError(ReproError):
    """Raised on an invalid machine-model configuration."""


class BackendUnavailableError(ReproError):
    """Raised when a backend cannot run on this machine.

    The ``c`` backend needs a host C compiler; on machines without one it
    stays registered (so ``repro backends`` can list and mark it) but any
    attempt to execute raises this.
    """


class NativeCompileError(ReproError):
    """Raised when the host C compiler rejects a generated translation unit.

    Carries the compiler's stderr: a generated TU failing to compile is a
    code-generator bug, and the diagnostic is the evidence.
    """
