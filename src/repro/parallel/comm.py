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

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.parallel.distribution import ProcessorGrid
from repro.scalarize.loopnest import LoopNest, SNode

_ELEM_BYTES = 8


class CommEvent:
    """One border exchange required before a loop nest executes.

    ``nest_index`` is the position of the consuming nest within its run;
    ``producer_index`` is the position of the nest that last wrote the array
    within the same run (or ``None`` if the value entered the block from
    outside, in which case the exchange can be hoisted to the head of the
    run and overlaps the whole prefix).
    """

    __slots__ = (
        "array",
        "dim",
        "direction",
        "width",
        "bytes",
        "nest_index",
        "producer_index",
    )

    def __init__(
        self,
        array: str,
        dim: int,
        direction: int,
        width: int,
        bytes_count: int,
        nest_index: int,
        producer_index: Optional[int],
    ) -> None:
        self.array = array
        self.dim = dim
        self.direction = direction
        self.width = width
        self.bytes = bytes_count
        self.nest_index = nest_index
        self.producer_index = producer_index

    def key(self) -> Tuple[str, int, int, int]:
        """Identity for redundancy elimination."""
        return (self.array, self.dim, self.direction, self.width)

    def __repr__(self) -> str:
        return "CommEvent(%s, dim=%d, dir=%+d, width=%d, %dB, nest=%d, prod=%r)" % (
            self.array,
            self.dim,
            self.direction,
            self.width,
            self.bytes,
            self.nest_index,
            self.producer_index,
        )


def _border_bytes(
    bounds: Sequence[Tuple[int, int]], dim: int, width: int
) -> int:
    """Bytes in a border strip of ``width`` along ``dim`` of a local block."""
    total = _ELEM_BYTES * width
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
    whole strips move as single messages).
    """
    events: List[CommEvent] = []
    last_writer: Dict[str, int] = {}
    for index, node in enumerate(run):
        if not isinstance(node, LoopNest):
            continue
        if grid.rank >= 1:
            bounds = node.region.concrete_bounds(env)
        seen: Set[Tuple[str, int, int, int]] = set()
        for ref in node.reads():
            name, offset = ref.name, ref.offset
            if name not in distributed_arrays:
                continue
            for dim in grid.cut_crossings(offset):
                width = abs(offset[dim - 1])
                direction = 1 if offset[dim - 1] > 0 else -1
                key = (name, dim, direction, width)
                if key in seen:
                    continue
                seen.add(key)
                events.append(
                    CommEvent(
                        name,
                        dim,
                        direction,
                        width,
                        _border_bytes(bounds, dim, width),
                        index,
                        last_writer.get(name),
                    )
                )
        for name in node.writes():
            last_writer[name] = index
    return events

