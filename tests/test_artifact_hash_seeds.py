"""Artifacts loaded under another hash salt behave like fresh compiles.

``hash()`` of a string is salted per process (``PYTHONHASHSEED``), so a
value derived from it must not travel inside a pickled artifact: a daemon
worker or a fresh ``Service`` loading an artifact another process wrote
would hold bounds that equal fresh ones but hash differently.  One child
compiles the six benchsuite programs into a disk store under one salt; a
second child, under another salt, loads them and compares them with a
fresh compile.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

_CHILD = r"""
import json, sys
import numpy as np
from repro.benchsuite import ALL_BENCHMARKS
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.service import Service

LEVEL, BACKEND = "c2+f4", "codegen_np"
stored = Service(level=LEVEL, backend=BACKEND, cache_dir=sys.argv[2])


def bounds(obj, found, seen):
    # Every Region and LinearExpr reachable from a loaded program.
    if id(obj) in seen or isinstance(obj, (str, bytes, int, float, type(None))):
        return
    seen.add(id(obj))
    if isinstance(obj, (Region, LinearExpr)):
        found.append(obj)
    if isinstance(obj, dict):
        children = list(obj.keys()) + list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    else:
        children = list(vars(obj).values()) if hasattr(obj, "__dict__") else []
        for cls in type(obj).__mro__:
            children += [
                getattr(obj, name)
                for name in getattr(cls, "__slots__", ())
                if hasattr(obj, name)
            ]
    for child in children:
        bounds(child, found, seen)


def fresh_expr(expr):
    return LinearExpr(expr.const, dict(expr.terms))


def fresh(obj):
    if isinstance(obj, LinearExpr):
        return fresh_expr(obj)
    return Region([(fresh_expr(lo), fresh_expr(hi)) for lo, hi in obj.dims])


report = {"hits": 0, "bounds": 0, "symbolic": 0, "mismatches": []}
for bench in ALL_BENCHMARKS:
    compiled = stored.compile(bench.source, config=bench.test_config)
    if sys.argv[1] == "store":
        continue
    report["hits"] += compiled.from_cache
    found = []
    bounds(compiled.scalar_program, found, set())
    for old in found:
        new = fresh(old)
        report["bounds"] += 1
        report["symbolic"] += bool(
            new.free_variables() if isinstance(new, Region) else new.terms
        )
        if not (new == old and hash(new) == hash(old) and new in {old}):
            report["mismatches"].append("%s: %r" % (bench.name, old))
    rebuilt = Service(level=LEVEL, backend=BACKEND, persistent=False).compile(
        bench.source, config=bench.test_config
    )
    if compiled.code != rebuilt.code:
        report["mismatches"].append("%s: generated text" % bench.name)
    got, want = compiled.execute(), rebuilt.execute()
    if repr(got.scalars) != repr(want.scalars) or set(got.arrays) != set(
        want.arrays
    ) or not all(
        np.array_equal(got.arrays[name], want.arrays[name]) for name in want.arrays
    ):
        report["mismatches"].append("%s: answers" % bench.name)
print(json.dumps(report))
"""


def _child(mode, cache_dir, seed):
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
    env.pop("REPRO_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, cache_dir],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_artifacts_loaded_under_another_hash_seed_match_a_fresh_compile(tmp_path):
    cache_dir = str(tmp_path / "cache")
    _child("store", cache_dir, "1")
    report = json.loads(_child("load", cache_dir, "2"))
    assert report["hits"] == 6  # every program came from the disk store
    assert report["symbolic"] > 0  # bounds whose hash the salt reaches
    assert report["mismatches"] == [], report["mismatches"]
