"""Machine models for the three platforms of the paper's evaluation.

The parameters are representative of the published hardware (Section 5):

* **Cray T3E** — 450 MHz DEC Alpha 21164; 8 KB direct-mapped L1 and 96 KB
  3-way L2 data caches; low-latency remote access (E-registers).
* **IBM SP-2** — 120 MHz POWER2 Super Chip; 128 KB 4-way data cache with
  long lines; high-latency message passing (MPL).
* **Intel Paragon** — 75 MHz i860; 8 KB data cache; NX message passing.

Absolute times are not the point (our substrate is a simulator); the models
preserve the *ratios* that drive the paper's shapes: miss penalty vs flop
cost, message latency vs computation, and cache capacity vs working set.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.machine.cache import CacheConfig


class CommParams:
    """Point-to-point and collective communication costs (microseconds)."""

    __slots__ = ("sw_overhead_us", "latency_us", "per_kb_us")

    def __init__(self, sw_overhead_us: float, latency_us: float, per_kb_us: float):
        self.sw_overhead_us = sw_overhead_us
        self.latency_us = latency_us
        self.per_kb_us = per_kb_us

    def message_cost_us(self, bytes_sent: int) -> float:
        """Cost of one point-to-point message of ``bytes_sent`` bytes."""
        return (
            self.sw_overhead_us
            + self.latency_us
            + self.per_kb_us * (bytes_sent / 1024.0)
        )

    def overlappable_us(self, bytes_sent: int) -> float:
        """The portion of a message hideable by pipelining.

        Software send/receive overhead occupies the processor and cannot be
        hidden; network latency and transfer time can overlap computation.
        """
        return self.latency_us + self.per_kb_us * (bytes_sent / 1024.0)


class MachineModel:
    """Per-node execution and network cost parameters."""

    __slots__ = (
        "name",
        "clock_mhz",
        "caches",
        "load_hit_cycles",
        "store_cycles",
        "flop_cycles",
        "intrinsic_cycles",
        "loop_overhead_cycles",
        "scalar_op_cycles",
        "comm",
    )

    def __init__(
        self,
        name: str,
        clock_mhz: float,
        caches: Sequence[CacheConfig],
        load_hit_cycles: float,
        store_cycles: float,
        flop_cycles: float,
        intrinsic_cycles: float,
        loop_overhead_cycles: float,
        scalar_op_cycles: float,
        comm: CommParams,
    ) -> None:
        self.name = name
        self.clock_mhz = clock_mhz
        self.caches: List[CacheConfig] = list(caches)
        self.load_hit_cycles = load_hit_cycles
        self.store_cycles = store_cycles
        self.flop_cycles = flop_cycles
        self.intrinsic_cycles = intrinsic_cycles
        self.loop_overhead_cycles = loop_overhead_cycles
        self.scalar_op_cycles = scalar_op_cycles
        self.comm = comm

    def cycles_to_us(self, cycles: float) -> float:
        return cycles / self.clock_mhz

    def __repr__(self) -> str:
        return "MachineModel(%s)" % self.name


CRAY_T3E = MachineModel(
    name="Cray T3E",
    clock_mhz=450.0,
    caches=[
        CacheConfig(size=8 * 1024, line=32, assoc=1, miss_penalty=20.0),
        CacheConfig(size=96 * 1024, line=64, assoc=3, miss_penalty=80.0),
    ],
    load_hit_cycles=1.0,
    store_cycles=1.0,
    flop_cycles=1.0,
    intrinsic_cycles=30.0,
    loop_overhead_cycles=2.0,
    scalar_op_cycles=1.0,
    comm=CommParams(sw_overhead_us=3.0, latency_us=1.5, per_kb_us=3.3),
)

IBM_SP2 = MachineModel(
    name="IBM SP-2",
    clock_mhz=120.0,
    caches=[
        CacheConfig(size=128 * 1024, line=256, assoc=4, miss_penalty=30.0),
    ],
    load_hit_cycles=1.0,
    store_cycles=1.0,
    flop_cycles=0.5,  # dual FPU: two flops per cycle sustained
    intrinsic_cycles=40.0,
    loop_overhead_cycles=2.0,
    scalar_op_cycles=1.0,
    comm=CommParams(sw_overhead_us=25.0, latency_us=15.0, per_kb_us=28.0),
)

INTEL_PARAGON = MachineModel(
    name="Intel Paragon",
    clock_mhz=75.0,
    caches=[
        CacheConfig(size=8 * 1024, line=32, assoc=1, miss_penalty=12.0),
    ],
    load_hit_cycles=1.0,
    store_cycles=1.0,
    flop_cycles=1.5,
    intrinsic_cycles=60.0,
    loop_overhead_cycles=3.0,
    scalar_op_cycles=1.5,
    comm=CommParams(sw_overhead_us=40.0, latency_us=25.0, per_kb_us=11.0),
)

ALL_MACHINES: List[MachineModel] = [CRAY_T3E, IBM_SP2, INTEL_PARAGON]
MACHINES_BY_NAME = {machine.name: machine for machine in ALL_MACHINES}
