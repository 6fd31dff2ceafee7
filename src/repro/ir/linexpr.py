"""Affine integer expressions for region bounds.

Region bounds in the normal form are affine in the configuration constants
and enclosing loop variables (e.g. ``[2..n-1, 1..m]`` or the dynamic row
region ``[i, 1..m]`` inside a ``for`` loop).  :class:`LinearExpr` gives these
bounds a canonical, hashable representation so that regions can be compared
structurally — condition (i) of Definition 5 requires statements in a fusible
cluster to operate under *the same* region.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple, Union

from repro.util.errors import NormalizationError

Number = Union[int, "LinearExpr"]


class LinearExpr:
    """An immutable affine expression ``const + sum(coef_i * var_i)``."""

    __slots__ = ("const", "terms", "_hash")

    def __init__(self, const: int = 0, terms: Mapping[str, int] = ()) -> None:
        self.const = int(const)
        cleaned: Dict[str, int] = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for name, coef in items:
                coef = int(coef)
                if coef:
                    cleaned[name] = cleaned.get(name, 0) + coef
        self.terms: Tuple[Tuple[str, int], ...] = tuple(sorted(cleaned.items()))
        self._hash = hash((self.const, self.terms))

    @classmethod
    def _canonical(cls, const: int, terms: Tuple[Tuple[str, int], ...]) -> "LinearExpr":
        """Build from an ``int`` and terms already sorted and non-zero."""
        expr = object.__new__(cls)
        expr.const = const
        expr.terms = terms
        expr._hash = hash((const, terms))
        return expr

    # -- constructors ----------------------------------------------------

    @staticmethod
    def constant(value: int) -> "LinearExpr":
        return LinearExpr(value)

    @staticmethod
    def variable(name: str) -> "LinearExpr":
        return LinearExpr(0, {name: 1})

    @staticmethod
    def coerce(value: Number) -> "LinearExpr":
        if isinstance(value, LinearExpr):
            return value
        return LinearExpr(int(value))

    # -- algebra ----------------------------------------------------------
    #
    # ``int`` operands and operands whose terms are empty or equal skip the
    # merge: the result's terms are one side's, or none.

    def __add__(self, other: Number) -> "LinearExpr":
        if type(other) is int:
            return LinearExpr._canonical(self.const + other, self.terms)
        other = LinearExpr.coerce(other)
        const = self.const + other.const
        if not other.terms:
            return LinearExpr._canonical(const, self.terms)
        if not self.terms:
            return LinearExpr._canonical(const, other.terms)
        terms = dict(self.terms)
        for name, coef in other.terms:
            terms[name] = terms.get(name, 0) + coef
        return LinearExpr(const, terms)

    __radd__ = __add__

    def __sub__(self, other: Number) -> "LinearExpr":
        if type(other) is int:
            return LinearExpr._canonical(self.const - other, self.terms)
        other = LinearExpr.coerce(other)
        if self.terms == other.terms:
            return LinearExpr._canonical(self.const - other.const, ())
        return self + other.scaled(-1)

    def __rsub__(self, other: Number) -> "LinearExpr":
        return LinearExpr.coerce(other) - self

    def __neg__(self) -> "LinearExpr":
        return self.scaled(-1)

    def scaled(self, factor: int) -> "LinearExpr":
        if type(factor) is int and factor:
            return LinearExpr._canonical(
                self.const * factor,
                tuple((name, coef * factor) for name, coef in self.terms),
            )
        return LinearExpr(
            self.const * factor, {name: coef * factor for name, coef in self.terms}
        )

    def __mul__(self, other: Number) -> "LinearExpr":
        """Multiply; at least one side must be constant (affine closure)."""
        other = LinearExpr.coerce(other)
        if not other.terms:
            return self.scaled(other.const)
        if not self.terms:
            return other.scaled(self.const)
        raise NormalizationError(
            "non-affine product of %s and %s in a region bound" % (self, other)
        )

    __rmul__ = __mul__

    # -- queries ----------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def constant_offset_from(self, other: "LinearExpr") -> Optional[int]:
        """``self - other`` when their variables cancel, else ``None``."""
        if self.terms == other.terms:
            return self.const - other.const
        return None

    def free_variables(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.terms)

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Fully evaluate under ``env``; missing variables are an error."""
        total = self.const
        for name, coef in self.terms:
            if name not in env:
                raise NormalizationError(
                    "cannot evaluate %s: %r is unbound" % (self, name)
                )
            total += coef * int(env[name])
        return total

    def substitute(self, env: Mapping[str, int]) -> "LinearExpr":
        """Partially evaluate: replace any variables present in ``env``."""
        if not self.terms:
            return self
        const = self.const
        terms: Dict[str, int] = {}
        for name, coef in self.terms:
            if name in env:
                const += coef * int(env[name])
            else:
                terms[name] = coef
        return LinearExpr(const, terms)

    # -- dunders ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.is_constant and self.const == other
        return (
            isinstance(other, LinearExpr)
            and self.const == other.const
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # ``_hash`` hashes variable names, which ``hash()`` salts per
        # process: a pickle keeps what defines the expression, and loading
        # hashes it again.
        return self.const, self.terms

    def __setstate__(self, state) -> None:
        self.const, self.terms = state
        self._hash = hash(state)

    def __repr__(self) -> str:
        return "LinearExpr(%s)" % self

    def __str__(self) -> str:
        parts = []
        for name, coef in self.terms:
            if coef == 1:
                parts.append(name)
            elif coef == -1:
                parts.append("-%s" % name)
            else:
                parts.append("%d*%s" % (coef, name))
        if self.const or not parts:
            parts.append(str(self.const))
        text = parts[0]
        for part in parts[1:]:
            text += " - %s" % part[1:] if part.startswith("-") else " + %s" % part
        return text
