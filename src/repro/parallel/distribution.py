"""Block data distribution over a processor grid.

The paper assumes every dimension of every array is (block-)distributed and
a potential source of parallelism (Section 6).  For a rank-r region and p
processors we use the most balanced factorization of p into r factors, as
the ZPL runtime does.  With scaled problem sizes (Section 5.4: data per
processor constant), the *local* block extents are independent of p, so one
compiled local program serves every processor count.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.util.errors import MachineError


def balanced_factorization(p: int, rank: int) -> Tuple[int, ...]:
    """Factor ``p`` into ``rank`` factors as near-equal as possible.

    Factors are assigned largest-first to the earliest dimensions, matching
    the common convention of cutting the slowest-varying dimension most.
    """
    if p < 1:
        raise MachineError("processor count must be positive, got %d" % p)
    if rank < 1:
        raise MachineError("rank must be positive, got %d" % rank)
    factors = [1] * rank
    remaining = p
    divisor = 2
    primes: List[int] = []
    while divisor * divisor <= remaining:
        while remaining % divisor == 0:
            primes.append(divisor)
            remaining //= divisor
        divisor += 1
    if remaining > 1:
        primes.append(remaining)
    for prime in sorted(primes, reverse=True):
        smallest = min(range(rank), key=lambda i: factors[i])
        factors[smallest] *= prime
    factors.sort(reverse=True)
    return tuple(factors)


def block_chunks(lo: int, hi: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``[lo..hi]`` into ``parts`` contiguous chunks, sizes within 1.

    The one block chunker: processor chunks of a distribution domain and
    tile chunks of a sweep both come from here.  Larger chunks come
    first (the remainder is spread over the leading chunks); when the
    extent is smaller than ``parts`` the tail chunks are empty
    (``lo > hi``), which is what a rank with nothing to own looks like —
    a caller that wants only non-empty chunks asks for at most the extent.
    """
    base, remainder = divmod(max(0, hi - lo + 1), parts)
    chunks: List[Tuple[int, int]] = []
    start = lo
    for index in range(parts):
        size = base + (1 if index < remainder else 0)
        chunks.append((start, start + size - 1))
        start += size
    return chunks


class ProcessorGrid:
    """A rank-r grid of processors with block distribution."""

    def __init__(self, p: int, rank: int) -> None:
        self.p = p
        self.rank = rank
        self.shape = balanced_factorization(p, rank)

    def is_cut(self, dim: int) -> bool:
        """Is array dimension ``dim`` (1-based) split across processors?"""
        return self.shape[dim - 1] > 1

    def cut_dimensions(self) -> List[int]:
        return [dim for dim in range(1, self.rank + 1) if self.is_cut(dim)]

    def cut_crossings(self, offset: Sequence[int]) -> List[int]:
        """The cut dimensions along which a reference at ``offset`` leaves
        its processor's block (ascending): each needs a border exchange."""
        return [
            dim
            for dim in range(1, min(self.rank, len(offset)) + 1)
            if offset[dim - 1] != 0 and self.is_cut(dim)
        ]

    def neighbor_count(self, dim: int) -> int:
        """Neighbors of an interior processor along ``dim`` (0, 1 or 2)."""
        if not self.is_cut(dim):
            return 0
        return 2 if self.shape[dim - 1] > 2 else 1

    def __repr__(self) -> str:
        return "ProcessorGrid(p=%d, %s)" % (self.p, "x".join(map(str, self.shape)))
