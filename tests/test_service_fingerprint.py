"""Content-hash stability: same inputs, same digest — everywhere."""

import os
import subprocess
import sys

import pytest

from repro.service import fingerprint
from repro.service.fingerprint import source_digest

SOURCE = """
program fp;
config n : integer = 6;
region R = [1..n];
var A : [R] float;
var B : [R] float;
var s : float;
var i : integer;
begin
  [R] A := Index1 * 2.0;
  [R] B := A@(-1) + A@(1);
  s := +<< [R] B;
  for i := 1 to 3 do
    [R] B := B + 1.0;
  end;
end;
"""


def test_digest_changes_with_every_input_dimension():
    base = source_digest(SOURCE, "c2", {}, "codegen_np")
    assert source_digest(SOURCE + " ", "c2", {}, "codegen_np") != base
    assert source_digest(SOURCE, "c2+f3", {}, "codegen_np") != base
    assert source_digest(SOURCE, "c2", {"n": 9}, "codegen_np") != base
    assert source_digest(SOURCE, "c2", {}, "codegen_py") != base
    assert source_digest(SOURCE, "c2", {}, "codegen_np", simplify=True) != base
    assert (
        source_digest(SOURCE, "c2", {}, "codegen_np", self_temp_policy="reversal")
        != base
    )
    assert (
        source_digest(SOURCE, "c2", {}, "codegen_np", code_version="other")
        != base
    )


def test_config_value_types_are_distinguished():
    # 1 and 1.0 and True pick different element semantics downstream.
    assert source_digest(SOURCE, "c2", {"n": 1}, "np") != source_digest(
        SOURCE, "c2", {"n": 1.0}, "np"
    )
    assert source_digest(SOURCE, "c2", {"n": 1}, "np") != source_digest(
        SOURCE, "c2", {"n": True}, "np"
    )


_SUBPROCESS_SNIPPET = """
import sys
sys.path.insert(0, %r)
import numpy as np
import repro.array as ra
from repro.array.graph import Trace
from repro.service.fingerprint import source_digest, trace_digest
source = %r
print(source_digest(source, "c2", {"n": 8}, "codegen_np"))
x = ra.asarray(np.zeros((4, 6)))
y = (x + x.shift(0, 1)) * 0.5
print(trace_digest(Trace((y.node, y.sum().node)).canonical(), "c2", "codegen_np"))
"""


def _digests_in_fresh_process(hash_seed: str):
    src_root = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    output = subprocess.check_output(
        [sys.executable, "-c", _SUBPROCESS_SNIPPET % (src_root, SOURCE)],
        env=env,
        text=True,
    )
    lines = output.strip().splitlines()
    assert len(lines) == 2
    return lines


def test_digests_stable_across_processes_and_hash_seeds():
    # The acceptance bar: two separate interpreter processes — with
    # different PYTHONHASHSEED salts — produce byte-identical digests.
    first = _digests_in_fresh_process("1")
    second = _digests_in_fresh_process("4242")
    assert first == second
    assert first[0] == source_digest(
        SOURCE, "c2", {"n": 8}, "codegen_np"
    )


def test_code_version_reads_module_global(monkeypatch):
    base = source_digest(SOURCE, "c2", {}, "np")
    monkeypatch.setattr(fingerprint, "CODE_VERSION", "repro-test/bumped")
    assert source_digest(SOURCE, "c2", {}, "np") != base
