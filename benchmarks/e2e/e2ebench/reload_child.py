"""The reload pass of ``compile_cold``, run as ``python -m e2ebench.reload_child``.

Reads ``{"rounds": [[cache_dir, [n, m]], ...], "level": ..., "benches": [...]}``
from stdin.  For every populated cache directory and program it builds a
fresh ``Service`` and times ``compile`` (a disk hit) plus the first
``execute`` (which loads the cached ``.so``), then prints the rows as one
JSON list.  Each row carries the machine factor this process measured
around it: the parent's yardstick did not run while the child did.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    from repro.benchsuite import get_benchmark
    from repro.service import Service

    from e2ebench import oracle
    from e2ebench.calibrate import Calibrator

    job = json.load(sys.stdin)
    calibrator = Calibrator()
    rows = []
    for cache_dir, shape in job["rounds"]:
        for name in job["benches"]:
            bench = get_benchmark(name)
            config = oracle.bench_config(bench, *shape)
            service = Service(level=job["level"], backend="c", cache_dir=cache_dir)
            calibrator.burst()
            started = time.perf_counter()
            compiled = service.compile(bench.source, config=config)
            result = compiled.execute()
            ended = time.perf_counter()
            counters = service.stats()["metrics"]["counters"]
            rows.append(
                {
                    "bench": name,
                    "shape": shape,
                    "start": started,
                    "end": ended,
                    "from_cache": compiled.from_cache,
                    "cc_invocations": counters.get("native.cc_invocations", 0),
                    "scalars": {
                        key: float(result.scalars[key]) for key in bench.check_scalars
                    },
                }
            )
    calibrator.burst()
    for row in rows:
        row["factor"] = calibrator.factor_around(row["start"], row["end"])
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
