"""Seeded random mini-ZPL program generator for differential fuzzing.

Unlike the Hypothesis strategies in ``test_differential.py``, this
generator is plain ``random.Random``: a seed maps to exactly one program
text, forever.  That makes the fuzz corpus reproducible across machines
and CI runs (``REPRO_FUZZ_COUNT`` seeds, fixed base), lets a failure be
replayed with nothing but its seed, and keeps the CI smoke job's corpus
byte-stable.

Programs exercise the surfaces the optimizer transforms:

* multi-statement blocks over full and interior regions (fusion and
  contraction candidates, constant reference offsets up to ±2 — wider
  than one element, so tile halos are wider than extent-1 tiles);
* boundary statements (``wrap`` / ``reflect``) splitting basic blocks;
* full reductions (``+<<``, ``max<<``, ``min<<``) over non-empty
  regions;
* sequential loops, including row sweeps over dynamic regions
  (``[i, 1..n]`` — the contraction-soundness frontier) and column sweeps
  (``[2..n-1, j]`` — the nests whose serial loop the C emitter sinks
  under the row loop, or must not);
* randomized config bounds, so region extents (and therefore tile
  layouts) differ per program;
* shared subexpressions reused across adjacent statements and repeated
  shifted reads of the same stencil term (the redundancy-elimination
  pass's hoisting and shift-canonicalization surfaces);
* integer intrinsic calls (``min``/``max``/``abs`` over index
  expressions and integer constants — the int-preserving fold paths).

Every generated program ends by folding all array state into scalar
``t``, so backends are compared on every element even when a test only
looks at scalars.
"""

from __future__ import annotations

import random

ARRAYS = ["A", "B", "C", "D", "E"]

_SEEDS = [
    "Index1 * 1.5 + Index2",
    "Index1 - Index2 * 0.5",
    "(Index1 * 3.7 + Index2 * 1.3) % 2.0",
    "1.0",
    # ``% 1.0`` is lowered as a fractional part by the c / NumPy emitters
    # (``% 2.0`` above keeps the general path); the operand is negative.
    "0.25 * Index2 + (Index1 * -3.7 + Index2 * 1.3) % 1.0",
]


class ProgramGenerator:
    """One seeded program: ``ProgramGenerator(seed).generate()``."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.seed = seed

    # -- expressions -------------------------------------------------------

    def offset(self, width: int = 2) -> tuple:
        return (
            self.rng.randint(-width, width),
            self.rng.randint(-width, width),
        )

    def ref(self, name: str, off: tuple) -> str:
        if off == (0, 0):
            return name
        return "%s@(%d,%d)" % (name, off[0], off[1])

    def array_ref(self) -> str:
        return self.ref(self.rng.choice(ARRAYS), self.offset())

    def int_call(self) -> str:
        """An integer-kind intrinsic call (the int-preserving folds)."""
        choice = self.rng.randint(0, 3)
        if choice == 0:
            return "min(Index1, Index2)"
        if choice == 1:
            return "max(Index2, %d)" % self.rng.randint(1, 3)
        if choice == 2:
            return "abs(Index1 - %d)" % self.rng.randint(1, 4)
        return "min(%d, max(Index1, %d))" % (
            self.rng.randint(3, 6),
            self.rng.randint(1, 2),
        )

    def expr(self, depth: int = 0) -> str:
        choice = self.rng.randint(0, 7 if depth < 2 else 3)
        if choice == 0:
            return "%.2f" % self.rng.uniform(0.5, 4.0)
        if choice == 1:
            return self.array_ref()
        if choice == 2:
            return self.rng.choice(["Index1", "Index2", "s"])
        if choice == 3:
            return "sqrt(abs(%s) + 0.1)" % self.expr(depth + 1)
        if choice == 4:
            return self.int_call()
        op = self.rng.choice(["+", "-", "*"])
        return "(%s %s %s)" % (self.expr(depth + 1), op, self.expr(depth + 1))

    # -- statements --------------------------------------------------------

    def statement(self) -> str:
        target = self.rng.choice(ARRAYS)
        region = self.rng.choice(["R", "I"])
        return "  [%s] %s := %s;" % (region, target, self.expr())

    def boundary_statement(self) -> str:
        kind = self.rng.choice(["wrap", "reflect"])
        return "  [R] %s %s;" % (kind, self.rng.choice(ARRAYS))

    def reduction_statement(self) -> str:
        op = self.rng.choice(["+", "max", "min"])
        return "  s := %s<< [R] %s;" % (op, self.rng.choice(ARRAYS))

    def shared_term(self) -> str:
        """A multi-op stencil term worth hoisting when it recurs."""
        a = self.rng.choice(ARRAYS)
        b = self.rng.choice(ARRAYS)
        return "(%s + %s + %s)" % (
            self.ref(a, self.offset(1)),
            self.ref(a, self.offset(1)),
            self.ref(b, self.offset(1)),
        )

    def shared_pair(self) -> list:
        """Two statements reusing one term: the CSE hoisting surface."""
        term = self.shared_term()
        region = self.rng.choice(["R", "I"])
        t1, t2 = self.rng.sample(ARRAYS, 2)
        return [
            "  [%s] %s := %s * %.2f;"
            % (region, t1, term, self.rng.uniform(0.25, 2.0)),
            "  [%s] %s := %s * %.2f + %s;"
            % (region, t2, term, self.rng.uniform(0.25, 2.0),
               self.rng.choice(ARRAYS)),
        ]

    def shifted_pair(self) -> list:
        """Two statements reading one term at translated offsets: the
        shift-canonicalization surface (recorded, never rewritten)."""
        a = self.rng.choice(ARRAYS)
        b = self.rng.choice(ARRAYS)
        dr, dc = self.rng.randint(0, 1), self.rng.choice([-1, 1])
        base = self.offset(1)
        region = self.rng.choice(["R", "I"])
        t1, t2 = self.rng.sample(ARRAYS, 2)
        lines = []
        for target, (sr, sc) in ((t1, (0, 0)), (t2, (dr, dc))):
            lines.append(
                "  [%s] %s := (%s + %s) * 0.5;"
                % (
                    region,
                    target,
                    self.ref(a, (base[0] + sr, base[1] + sc)),
                    self.ref(b, (-base[0] + sr, -base[1] + sc)),
                )
            )
        return lines

    def row_statement(self) -> str:
        """A dynamic-region statement for a row-sweep loop body."""
        target = self.rng.choice(ARRAYS)
        source = self.rng.choice(ARRAYS)
        row_offset = self.rng.randint(-1, 0)
        if row_offset == 0:
            value = source
        else:
            value = "%s@(%d,0)" % (source, row_offset)
        return "  [i, 1..n] %s := %s + %s;" % (target, value, self.expr(2))

    def column_statement(self) -> str:
        """A column recurrence for a column-sweep loop body."""
        target = self.rng.choice(ARRAYS)
        return "  [2..n-1, j] %s := %s@(0,-1) * %.2f + %s;" % (
            target,
            target,
            self.rng.uniform(0.25, 1.5),
            self.expr(2),
        )

    # -- whole programs ----------------------------------------------------

    def generate(self) -> str:
        rng = self.rng
        n = rng.randint(5, 9)
        ilo1, ilo2 = rng.randint(1, 2), rng.randint(1, 2)
        ihi1, ihi2 = rng.randint(0, 1), rng.randint(0, 1)
        lines = []
        lines.append("program fuzz%d;" % (self.seed if self.seed >= 0 else 0))
        lines.append("config n : integer = %d;" % n)
        lines.append("region R = [1..n, 1..n];")
        lines.append(
            "region I = [%d..n-%d, %d..n-%d];" % (ilo1, ihi1, ilo2, ihi2)
        )
        lines.append("var %s : [R] float;" % ", ".join(ARRAYS))
        lines.append("var s, t : float;")
        lines.append("var i, j : integer;")
        lines.append("begin")
        for name, seed_expr in zip(ARRAYS, _SEEDS):
            lines.append("  [R] %s := %s;" % (name, seed_expr))
        lines.append("  s := 0.5;")

        for _ in range(rng.randint(1, 7)):
            lines.append(self.statement())
        if rng.random() < 0.5:
            lines.extend(self.shared_pair())
        if rng.random() < 0.35:
            lines.extend(self.shifted_pair())
        if rng.random() < 0.5:
            lines.append(self.boundary_statement())
            for _ in range(rng.randint(0, 2)):
                lines.append(self.statement())
        if rng.random() < 0.4:
            lines.append(self.reduction_statement())
            for _ in range(rng.randint(0, 2)):
                lines.append(self.statement())
        if rng.random() < 0.4:
            body = [self.statement() for _ in range(rng.randint(1, 3))]
            lines.append("  for i := 1 to %d do" % rng.randint(2, 3))
            lines.extend(body)
            lines.append("  end;")
        if rng.random() < 0.4:
            body = [self.row_statement() for _ in range(rng.randint(1, 3))]
            lines.append("  for i := 2 to n do")
            lines.extend(body)
            lines.append("  end;")
        if rng.random() < 0.4:
            body = [self.column_statement() for _ in range(rng.randint(1, 3))]
            lines.append(
                rng.choice(["  for j := 2 to n do", "  for j := n downto 2 do"])
            )
            lines.extend(body)
            lines.append("  end;")

        lines.append(
            "  t := (+<< [R] (A + B)) + (+<< [R] (C + D)) + (+<< [R] E);"
        )
        lines.append("end;")
        return "\n".join(lines) + "\n"


def generate_program(seed: int) -> str:
    """The deterministic program text for one fuzz seed."""
    return ProgramGenerator(seed).generate()


def corpus(count: int, base: int = 0):
    """The first ``count`` corpus entries as ``(seed, source)`` pairs."""
    return [(base + k, generate_program(base + k)) for k in range(count)]


if __name__ == "__main__":  # pragma: no cover - debugging aid
    import sys

    print(generate_program(int(sys.argv[1]) if len(sys.argv) > 1 else 0))

# -- dual emission: one seeded program, two frontends ----------------------

#: Input arrays shared by both emissions of a dual program.
DUAL_FLOAT_INPUTS = ("I0", "I1", "I2")
DUAL_INT_INPUT = "K0"

#: Scalar names folding the last temp on the ZPL side; the trace side
#: materializes ``.sum()`` / ``.min()`` / ``.max()`` in the same order.
DUAL_REDUCTIONS = (("t0", "+"), ("t1", "min"), ("t2", "max"))


def _dual_zpl(expr) -> str:
    """Render a dual expression tree as mini-ZPL text."""
    tag = expr[0]
    if tag == "const":
        return repr(expr[1])  # repr round-trips float64 exactly
    if tag == "iconst":
        return "%d" % expr[1]
    if tag == "ref":
        _tag, name, axis, off = expr
        if off == 0:
            return name
        return ("%s@(%d,0)" if axis == 1 else "%s@(0,%d)") % (name, off)
    if tag == "index":
        return "Index%d" % expr[1]
    if tag == "sqrtabs":
        return "sqrt(abs(%s) + 0.1)" % _dual_zpl(expr[1])
    if tag == "call2":
        return "%s(%s, %s)" % (expr[1], _dual_zpl(expr[2]), _dual_zpl(expr[3]))
    return "(%s %s %s)" % (_dual_zpl(expr[2]), expr[1], _dual_zpl(expr[3]))


def _dual_trace(expr, env, shape):
    """Evaluate a dual expression tree as a lazy ``repro.array`` value.

    ``env`` maps array names (inputs and earlier temps) to LazyArrays.
    """
    import repro.array as ra

    tag = expr[0]
    if tag in ("const", "iconst"):
        return expr[1]
    if tag == "ref":
        _tag, name, axis, off = expr
        value = env[name]
        # ZPL ``A@(d,0)`` reads ``A[i+d, j]``: exactly ``shift(0, d)``.
        return value if off == 0 else value.shift(axis - 1, off)
    if tag == "index":
        return ra.index(shape, expr[1])
    if tag == "sqrtabs":
        return ra.sqrt(abs(_dual_trace(expr[1], env, shape)) + 0.1)
    if tag == "call2":
        fn = ra.minimum if expr[1] == "min" else ra.maximum
        return fn(_dual_trace(expr[2], env, shape),
                  _dual_trace(expr[3], env, shape))
    _tag, op, left, right = expr
    left = _dual_trace(left, env, shape)
    right = _dual_trace(right, env, shape)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    return left * right


class DualProgram:
    """One generated program in both spellings, plus its input values.

    ``zpl()`` is the mini-ZPL text (temp and reduction declarations carry
    the kinds the trace infers, so neither side inserts a cast the other
    does not).  ``traced()`` rebuilds the equivalent lazy-frontend graph
    over the same inputs.  Both lower to the same per-element op DAG, so
    every backend must agree *bit for bit* between the two emissions.
    """

    def __init__(self, seed, shape, statements, inputs):
        self.seed = seed
        self.shape = shape
        #: Ordered SSA statements: (temp name, expression tree).
        self.statements = statements
        #: Array name -> concrete ndarray (float64 fields, one int64 field).
        self.inputs = inputs

    def traced(self):
        """(temps, scalars): name -> LazyArray / LazyScalar over inputs."""
        import repro.array as ra

        env = {
            name: ra.asarray(value) for name, value in self.inputs.items()
        }
        temps = {}
        for name, expr in self.statements:
            value = _dual_trace(expr, env, self.shape)
            env[name] = temps[name] = value
        last = temps[self.statements[-1][0]]
        scalars = {}
        for name, op in DUAL_REDUCTIONS:
            scalars[name] = {
                "+": last.sum, "min": last.min, "max": last.max
            }[op]()
        return temps, scalars

    def zpl(self) -> str:
        """The mini-ZPL twin, with declarations matching traced kinds."""
        temps, scalars = self.traced()
        n, m = self.shape
        lines = [
            "program dual%d;" % max(self.seed, 0),
            "config n : integer = %d;" % n,
            "config m : integer = %d;" % m,
            "region R = [1..n, 1..m];",
            "var %s : [R] float;" % ", ".join(DUAL_FLOAT_INPUTS),
            "var %s : [R] integer;" % DUAL_INT_INPUT,
        ]
        for kind in ("float", "integer"):
            names = [
                name for name, _expr in self.statements
                if temps[name].node.kind == kind
            ]
            if names:
                lines.append("var %s : [R] %s;" % (", ".join(names), kind))
        for name, _op in DUAL_REDUCTIONS:
            lines.append("var %s : %s;" % (name, scalars[name].node.kind))
        lines.append("begin")
        for name, expr in self.statements:
            lines.append("  [R] %s := %s;" % (name, _dual_zpl(expr)))
        last = self.statements[-1][0]
        for name, op in DUAL_REDUCTIONS:
            lines.append("  %s := %s<< [R] %s;" % (name, op, last))
        lines.append("end;")
        return "\n".join(lines) + "\n"


class DualProgramGenerator:
    """Seeded generator for :class:`DualProgram` pairs.

    Separate from :class:`ProgramGenerator` on purpose: that corpus must
    stay byte-stable, and its constructs — interior regions, boundary
    statements, sequential loops, dynamic row regions — have no frontend
    spelling.  Dual programs are restricted to what both frontends can
    say: full-region SSA definitions ``Tk := expr`` over the inputs and
    earlier temps, single-axis reference offsets (``A@(d,0)`` /
    ``A@(0,d)``, exactly ``LazyArray.shift(axis, d)``), and terminal
    sum/min/max reductions of the last temp.  Mixed float/integer
    subtrees still exercise the kind-inference parity between the two
    paths.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random("dual-%d" % seed)
        self.seed = seed

    def _ref(self, names) -> tuple:
        return (
            "ref",
            self.rng.choice(names),
            self.rng.randint(1, 2),
            self.rng.randint(-2, 2),
        )

    def _expr(self, names, depth: int) -> tuple:
        rng = self.rng
        choice = rng.randint(0, 6 if depth < 2 else 2)
        if choice == 0:
            return ("const", round(rng.uniform(0.5, 4.0), 3))
        if choice == 1:
            return self._ref(names)
        if choice == 2:
            return ("index", rng.randint(1, 2))
        if choice == 3:
            return ("iconst", rng.randint(1, 4))
        if choice == 4:
            return ("sqrtabs", self._expr(names, depth + 1))
        if choice == 5:
            return (
                "call2",
                rng.choice(["min", "max"]),
                self._expr(names, depth + 1),
                self._expr(names, depth + 1),
            )
        return (
            "bin",
            rng.choice(["+", "-", "*"]),
            self._expr(names, depth + 1),
            self._expr(names, depth + 1),
        )

    def generate(self) -> DualProgram:
        import numpy as np

        rng = self.rng
        shape = (rng.randint(4, 7), rng.randint(5, 8))
        names = list(DUAL_FLOAT_INPUTS) + [DUAL_INT_INPUT]
        statements = []
        for k in range(1, rng.randint(3, 6) + 1):
            # Root anchored on an array reference so the value is never
            # scalar-only (the target is an array on both sides).
            expr = (
                "bin",
                rng.choice(["+", "-", "*"]),
                self._ref(names),
                self._expr(names, 1),
            )
            name = "T%d" % k
            statements.append((name, expr))
            names.append(name)
        values = np.random.default_rng(self.seed + 0x5EED)
        inputs = {
            name: values.uniform(-2.0, 3.0, size=shape)
            for name in DUAL_FLOAT_INPUTS
        }
        inputs[DUAL_INT_INPUT] = values.integers(
            0, 7, size=shape, dtype=np.int64
        )
        return DualProgram(self.seed, shape, statements, inputs)


def generate_dual_program(seed: int) -> DualProgram:
    """The deterministic dual (ZPL + trace) program for one fuzz seed."""
    return DualProgramGenerator(seed).generate()
