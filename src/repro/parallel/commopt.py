"""Communication optimizations (Section 5.5).

Four classical optimizations over the event stream of one run of loop nests:

* **message vectorization** — implicit: :mod:`repro.parallel.comm` already
  emits whole border strips as single messages (never conflicts with fusion,
  always performed);
* **redundancy elimination** — an exchange is dropped if an identical one
  (same array, dimension, direction, width) already happened and the array
  has not been rewritten since;
* **message combining** — events consumed by the same nest and bound for the
  same neighbor merge into one message (one latency, summed payload);
* **pipelining** — the network portion of a message overlaps with the
  computation executed between the producing nest and the consuming nest.

:func:`schedule` applies whichever of them :class:`CommOptions` selects
and is the single derivation the cost model prices and ``mp-shard``
executes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.machine.models import CommParams
from repro.parallel.comm import CommEvent
from repro.scalarize.loopnest import LoopNest, SNode


class CommOptions(NamedTuple):
    """Which communication optimizations to apply."""

    redundancy_elimination: bool = True
    combining: bool = True
    pipelining: bool = True


ALL_COMM_OPTS = CommOptions()
NO_COMM_OPTS = CommOptions(False, False, False)


def eliminate_redundant(
    events: Sequence[CommEvent], run: Sequence[SNode]
) -> Dict[CommEvent, List[CommEvent]]:
    """Drop exchanges whose data is already present and still clean.

    ``events`` must be in program order (as produced by ``analyze_run``).
    A cached border becomes stale when any nest rewrites its array.
    Returns the kept events, in order, each mapped to the dropped events
    it *covers*: the later, identical exchanges it stands in for, whose
    consumers read the strip this one delivered (a wire strip must
    therefore carry the union of what they read).
    """
    nest_writes = [
        set(node.writes()) if isinstance(node, LoopNest) else set()
        for node in run
    ]
    clean: Dict[Tuple[str, int, int, int], CommEvent] = {}
    kept: Dict[CommEvent, List[CommEvent]] = {}
    cursor = 0  # next nest whose writes have not yet invalidated borders
    for event in events:
        while cursor < event.nest_index:
            stale = nest_writes[cursor]
            if stale:
                clean = {
                    key: owner
                    for key, owner in clean.items()
                    if key[0] not in stale
                }
            cursor += 1
        owner = clean.get(event.key())
        if owner is not None:
            kept[owner].append(event)
            continue
        clean[event.key()] = event
        kept[event] = []
    return kept


def combine_messages(
    events: Iterable[CommEvent],
) -> List[List[CommEvent]]:
    """Group events into messages: one group = one wire message.

    Events consumed by the same nest and headed to the same neighbor
    (dimension, direction) share a message.  Without combining, every event
    is its own group.
    """
    groups: Dict[Tuple[int, int, int], List[CommEvent]] = {}
    for event in events:
        key = (event.nest_index, event.dim, event.direction)
        groups.setdefault(key, []).append(event)
    return list(groups.values())


class Message(NamedTuple):
    """One wire message of a run's schedule.

    ``events`` are the kept events that share it and ``covered[i]`` the
    dropped events ``events[i]`` stands in for.  It is posted before nest
    ``post`` executes and waited for before nest ``wait`` — the consumer —
    does; the nests in ``[post, wait)`` are its pipelining window.
    """

    events: Tuple[CommEvent, ...]
    covered: Tuple[Tuple[CommEvent, ...], ...]
    post: int
    wait: int


def schedule(
    events: Sequence[CommEvent], run: Sequence[SNode], options: CommOptions
) -> List[Message]:
    """The §5.5 schedule of one run's event stream under ``options``.

    This is the one derivation both halves consume: the cost model prices
    it (:func:`optimized_comm_cost_us`) and ``mp-shard`` turns it into
    byte-addressed boxes (:func:`repro.parallel.shard.plan_run`).  A
    pipelined message is posted right after the last nest that produced
    any of its arrays — at the head of the run when every value came from
    outside it — and otherwise where it is consumed.
    """
    if options.redundancy_elimination:
        kept = eliminate_redundant(events, run)
    else:
        kept = {event: [] for event in events}
    if options.combining:
        groups = combine_messages(kept)
    else:
        groups = [[event] for event in kept]
    messages: List[Message] = []
    for group in groups:
        wait = post = min(event.nest_index for event in group)
        if options.pipelining:
            producers = [
                event.producer_index
                for event in group
                if event.producer_index is not None
            ]
            post = min(max(producers) + 1, wait) if producers else 0
        messages.append(
            Message(
                tuple(group), tuple(tuple(kept[ev]) for ev in group), post, wait
            )
        )
    return messages


def message_cost_us(
    message: Message,
    comm: CommParams,
    compute_us_per_nest: Sequence[float],
    pipelining: bool,
) -> float:
    """Cost of one scheduled message after optional pipelining overlap.

    The overlappable portion (latency + transfer) hides behind the
    computation of the message's window; software overhead always
    occupies the processor.
    """
    total_bytes = sum(event.bytes for event in message.events)
    if not pipelining:
        return comm.message_cost_us(total_bytes)
    window = sum(compute_us_per_nest[message.post:message.wait])
    overlappable = comm.overlappable_us(total_bytes)
    hidden = min(window, overlappable)
    return comm.sw_overhead_us + (overlappable - hidden)


def optimized_comm_cost_us(
    events: Sequence[CommEvent],
    run: Sequence[SNode],
    comm: CommParams,
    compute_us_per_nest: Sequence[float],
    options: CommOptions,
) -> float:
    """Total communication time of a run under the given optimizations."""
    return sum(
        message_cost_us(message, comm, compute_us_per_nest, options.pipelining)
        for message in schedule(events, run, options)
    )
