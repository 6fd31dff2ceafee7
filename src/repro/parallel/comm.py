"""Communication analysis of scalarized programs.

Every non-zero constant offset along a distributed dimension requires a
*border exchange*: the processor receives a strip of width ``|offset|`` from
its neighbor in that direction before the loop nest can execute.  The
compiler-generated communication primitives are not normalized statements
(Section 2.1) and never fuse; they attach to loop nest boundaries.

``CommEvent`` captures one required exchange; the optimizer passes in
:mod:`repro.parallel.commopt` then eliminate, combine and overlap them.
"""

from __future__ import annotations

from typing import (
    Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple,
)

from repro.parallel.distribution import ProcessorGrid
from repro.scalarize.loopnest import LoopNest, SNode

#: The model's element size (bytes): every price, counter and plan figure
#: uses it, regardless of the array's actual dtype, so measured bytes stay
#: directly comparable to ``CommEvent.bytes``.
ELEM_BYTES = 8


class CommEvent(NamedTuple):
    """One border exchange required before a loop nest executes.

    ``nest_index`` is the position of the consuming nest within its run;
    ``producer_index`` is the position of the nest that last wrote the array
    within the same run (or ``None`` if the value entered the block from
    outside, in which case the exchange can be hoisted to the head of the
    run and overlaps the whole prefix).

    ``spans`` is, per dimension, the (min, max) offset over the references
    pooled into the event: along ``dim`` the single signed offset, along
    the others the union of the references' offsets — diagonal stencils
    widen it beyond zero.  It is not part of :meth:`key`.
    """

    array: str
    dim: int
    direction: int
    width: int
    bytes: int
    nest_index: int
    producer_index: Optional[int]
    spans: Tuple[Tuple[int, int], ...]

    def key(self) -> Tuple[str, int, int, int]:
        """Identity for redundancy elimination."""
        return (self.array, self.dim, self.direction, self.width)


def _border_bytes(
    bounds: Sequence[Tuple[int, int]], dim: int, width: int
) -> int:
    """Bytes in a border strip of ``width`` along ``dim`` of a local block."""
    total = ELEM_BYTES * width
    for d, (lo, hi) in enumerate(bounds, start=1):
        if d != dim:
            total *= max(0, hi - lo + 1)
    return total


def analyze_run(
    run: Sequence[SNode],
    grid: ProcessorGrid,
    env: Mapping[str, int],
    distributed_arrays: Set[str],
) -> List[CommEvent]:
    """Communication events for one run of loop nests, in program order.

    A read of ``A@(d1,...,dn)`` with ``d_k != 0`` along a cut dimension
    ``k`` needs the border strip of width ``|d_k|`` from the neighbor in
    direction ``sign(d_k)``.  One event is emitted per distinct
    ``(array, dim, direction, width)`` per nest (message vectorization:
    whole strips move as single messages); every reference it pools
    widens the event's ``spans``.
    """
    pooled: Dict[Tuple[int, str, int, int, int], CommEvent] = {}
    last_writer: Dict[str, int] = {}
    for index, node in enumerate(run):
        if not isinstance(node, LoopNest):
            continue
        if grid.rank >= 1:
            bounds = node.region.concrete_bounds(env)
        for ref in node.reads():
            name, offset = ref.name, ref.offset
            if name not in distributed_arrays:
                continue
            for dim in grid.cut_crossings(offset):
                width = abs(offset[dim - 1])
                direction = 1 if offset[dim - 1] > 0 else -1
                key = (index, name, dim, direction, width)
                event = pooled.get(key)
                if event is None:
                    pooled[key] = CommEvent(
                        name,
                        dim,
                        direction,
                        width,
                        _border_bytes(bounds, dim, width),
                        index,
                        last_writer.get(name),
                        tuple((off, off) for off in offset),
                    )
                else:
                    pooled[key] = event._replace(spans=tuple(
                        (min(lo, off), max(hi, off))
                        for (lo, hi), off in zip(event.spans, offset)
                    ))
        for name in node.writes():
            last_writer[name] = index
    return list(pooled.values())
