"""Order statistics shared by every workload."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

#: Percentiles a timing may be reported at, lowest first.
TAIL_LADDER = (0.50, 0.90, 0.95, 0.99, 0.999)

#: A percentile is reported only with at least this many samples above it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank above the ``q``-quantile."""
    return count - max(1, math.ceil(q * count))


def tail_quantile(count: int) -> Optional[float]:
    """The highest ladder percentile with enough samples beyond it."""
    best = None
    for q in TAIL_LADDER:
        if samples_beyond(count, q) >= MIN_SAMPLES_BEYOND:
            best = q
    return best


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("geomean of no values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def describe(samples: Sequence[float]) -> str:
    """``median / pXX (n=N)`` in milliseconds, for the human table."""
    text = "p50 %.3f ms" % (statistics.median(samples) * 1e3)
    q = tail_quantile(len(samples))
    if q is not None and q > 0.5:
        text += "  p%g %.3f ms" % (q * 100, percentile(samples, q) * 1e3)
    return "%s  (n=%d)" % (text, len(samples))


#: Timed samples of one run: class -> cell -> seconds per operation.
Samples = Dict[str, Dict[str, List[float]]]


def class_medians(samples: Mapping[str, Mapping[str, Sequence[float]]]) -> Dict[str, float]:
    """Per class: geometric mean over its cells of the per-cell median."""
    return {
        name: geomean(statistics.median(times) for times in cells.values())
        for name, cells in samples.items()
    }


def typical_seconds(samples: Mapping[str, Mapping[str, Sequence[float]]]) -> float:
    """One number per run: every class weighs the same, every cell of a
    class weighs the same, and each cell contributes its median."""
    return geomean(class_medians(samples).values())


def flatten(samples: Mapping[str, Mapping[str, Sequence[float]]]) -> List[float]:
    return [t for cells in samples.values() for times in cells.values() for t in times]
