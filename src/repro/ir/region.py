"""Regions: the rectangular index sets of the normal form.

A region ``[l1..h1, ..., ln..hn]`` defines the extent of a normalized array
statement's computation (Section 2.1).  Bounds are affine expressions so that
dynamic regions like ``[i, 1..m]`` (row ``i`` of a 2-D array, inside a
sequential loop) are first-class.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

from repro.ir.linexpr import LinearExpr
from repro.util.errors import NormalizationError
from repro.util.vectors import IntVector


class Region:
    """An immutable rank-n rectangular index set with affine bounds."""

    __slots__ = ("dims", "_hash", "_extents")

    def __init__(self, dims: Sequence[Tuple[LinearExpr, LinearExpr]]) -> None:
        self.dims: Tuple[Tuple[LinearExpr, LinearExpr], ...] = tuple(
            (LinearExpr.coerce(lo), LinearExpr.coerce(hi)) for lo, hi in dims
        )
        if not self.dims:
            raise NormalizationError("regions must have rank >= 1")
        self._hash = hash(self.dims)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def literal(*bounds: Tuple[int, int]) -> "Region":
        """Build a constant region from ``(lo, hi)`` integer pairs."""
        return Region([(LinearExpr(lo), LinearExpr(hi)) for lo, hi in bounds])

    # -- queries ----------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.dims)

    def extents(self) -> Tuple[LinearExpr, ...]:
        """Symbolic extent ``hi - lo + 1`` per dimension (found once)."""
        try:
            return self._extents
        except AttributeError:
            self._extents = tuple(hi - lo + 1 for lo, hi in self.dims)
            return self._extents

    def static_size(self, env: Mapping[str, int]) -> int:
        """Number of elements, evaluating extents under ``env``.

        Extents whose free variables cancel (degenerate dims like ``i..i``)
        evaluate without the variable being bound.
        """
        size = 1
        for extent in self.extents():
            size *= extent.substitute(env).evaluate({})
        return size

    def concrete_bounds(self, env: Mapping[str, int]) -> Tuple[Tuple[int, int], ...]:
        """Evaluate all bounds to integers under ``env``."""
        return tuple(
            (lo.evaluate(env), hi.evaluate(env)) for lo, hi in self.dims
        )

    def is_empty(self, env: Mapping[str, int]) -> bool:
        return any(lo > hi for lo, hi in self.concrete_bounds(env))

    def free_variables(self) -> Tuple[str, ...]:
        names = []
        for lo, hi in self.dims:
            for name in lo.free_variables() + hi.free_variables():
                if name not in names:
                    names.append(name)
        return tuple(names)

    def substitute(self, env: Mapping[str, int]) -> "Region":
        return Region(
            [(lo.substitute(env), hi.substitute(env)) for lo, hi in self.dims]
        )

    def shifted(self, offset: IntVector) -> "Region":
        """The region translated by an integer offset vector."""
        if len(offset) != self.rank:
            raise NormalizationError(
                "offset rank %d does not match region rank %d"
                % (len(offset), self.rank)
            )
        return Region(
            [(lo + d, hi + d) for (lo, hi), d in zip(self.dims, offset)]
        )

    def expanded(self, halo: IntVector) -> "Region":
        """The region grown by ``halo`` elements on both sides per dimension."""
        if len(halo) != self.rank:
            raise NormalizationError(
                "halo rank %d does not match region rank %d" % (len(halo), self.rank)
            )
        return Region(
            [(lo - h, hi + h) for (lo, hi), h in zip(self.dims, halo)]
        )

    # -- dunders ----------------------------------------------------------

    def __getstate__(self):
        # Pickle what defines the region; the hash (salted per process,
        # like the bounds' own) and the extents are derived again.
        return self.dims

    def __setstate__(self, dims) -> None:
        self.dims = dims
        self._hash = hash(dims)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Region) and self.dims == other.dims

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Region(%s)" % self

    def __str__(self) -> str:
        parts = []
        for lo, hi in self.dims:
            if lo == hi:
                parts.append(str(lo))
            else:
                parts.append("%s..%s" % (lo, hi))
        return "[" + ", ".join(parts) + "]"
