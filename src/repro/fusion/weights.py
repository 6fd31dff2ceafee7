"""Reference weights (Section 3).

The *reference weight* ``w(x, G)`` of array ``x`` is the number of array
element references eliminated by contracting ``x``: the number of times it is
referenced at the array level times the region sizes over which those
references occur.  FUSION-FOR-CONTRACTION considers arrays in decreasing
weight order so that the largest single contributions to the total
*contraction benefit* are attempted first.

A weight is an ordering key, so it must have a value for every region a
program can write down — including one whose *extent* depends on an
enclosing loop variable (``for j := 2 to n do [2..j, j] ...``), which has
no size at plan time.  :func:`weight_env` gives such a variable a
stand-in.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.deps.asdg import ASDG
from repro.ir.statement import ArrayStatement, LoopStatement, walk_statements
from repro.util.errors import ReproError


def weight_env(program, block: Sequence[ArrayStatement]) -> Dict[str, int]:
    """The bindings a block's region sizes are evaluated under.

    The program's integer configs, plus a stand-in for every loop
    variable an extent of the block does not cancel (``[i, 1..m]`` has
    extent 1 whatever ``i`` is and needs none): the largest value a
    ``for`` loop over it with static bounds gives it, else the upper
    allocation bound of a dimension it indexes — the region lies inside
    the allocation, so the extent comes out as what is left of it.
    """
    from repro.interp.evalexpr import eval_scalar  # interp imports fusion

    env = program.config_env()
    unbound = {
        name
        for region in {stmt.region for stmt in block}
        if not env.keys() >= set(region.free_variables())
        for extent in region.extents()
        for name in extent.substitute(env).free_variables()
    }
    if not unbound:
        return env
    stand_ins: Dict[str, int] = {}
    for stmt in walk_statements(program.body):
        if isinstance(stmt, LoopStatement) and stmt.var in unbound:
            try:
                top = max(
                    int(eval_scalar(stmt.lo, env)),
                    int(eval_scalar(stmt.hi, env)),
                )
            except ReproError:
                continue  # a bound only known at run time
            stand_ins[stmt.var] = max(top, stand_ins.get(stmt.var, top))
    for stmt in block:
        arrays = [ref.name for ref in stmt.reads()]
        if stmt.writes_array:
            arrays.append(stmt.target)
        for dim, bounds in enumerate(stmt.region.dims):
            for name in {n for b in bounds for n in b.free_variables()}:
                if name not in unbound or name in stand_ins:
                    continue
                tops = [
                    program.arrays[array].region.dims[dim][1].evaluate(env)
                    for array in arrays
                    if program.arrays[array].rank > dim
                ]
                if tops:
                    stand_ins[name] = max(tops)
    env.update(stand_ins)
    return env


def reference_weight(
    variable: str, graph: ASDG, config_env: Mapping[str, int]
) -> int:
    """``w(x, G)``: total element references to ``x`` in the block."""
    weight = 0
    for stmt in graph.statements:
        refs = 0
        if stmt.target == variable:
            refs += 1
        for ref in stmt.reads():
            if ref.name == variable:
                refs += 1
        if refs:
            weight += refs * stmt.region.static_size(config_env)
    return weight


def weights_by_decreasing(
    variables: List[str], graph: ASDG, config_env: Mapping[str, int]
) -> List[str]:
    """Variables sorted by decreasing weight (ties broken by block order).

    Deterministic tie-breaking keeps the optimizer reproducible: among equal
    weights, the variable first referenced earliest in the block comes first.
    """
    first_use = {name: i for i, name in enumerate(graph.variables())}
    return sorted(
        variables,
        key=lambda name: (-reference_weight(name, graph, config_env),
                          first_use.get(name, len(first_use))),
    )


def contraction_benefit(
    contracted: List[str], graph: ASDG, config_env: Mapping[str, int]
) -> int:
    """The total contraction benefit: sum of contracted reference weights."""
    return sum(reference_weight(name, graph, config_env) for name in contracted)
