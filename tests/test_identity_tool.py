"""The parent-versus-change comparison tool, ``tools/identity.py``, on small inputs."""

import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_SPEC = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parents[1] / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


@dataclass
class _Result:
    energy: float
    states: list
    note: object


def test_files_compare_bytes_then_numbers(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    a.write_text("k,energy\n0,1.0000000000000000e+00\n1,-2.5e-3\n")
    b.write_text("k,energy\n0,1.0000000000000002e+00\n1,-2.5e-3\n")
    c.write_text("k,energy,extra\n0,1.0\n1,-2.5e-3\n")
    assert identity._compare_file(a, tmp_path / "a.csv") is None
    assert identity._compare_file(a, b) == (
        "max abs deviation 2.220e-16, max rel deviation 2.220e-16")
    assert identity._compare_file(a, c) == "text differs beyond its numbers"


def test_library_results_flatten_to_arrays_that_compare_bit_for_bit(tmp_path):
    out_a, out_b = {}, {}
    identity._flatten([_Result(0.5, [np.ones(3), np.zeros(2)], None)], "r", out_a)
    identity._flatten([_Result(0.5, [np.ones(3) * (1 + 1e-15), np.zeros(2)], None)], "r", out_b)
    assert sorted(out_a) == ["r.len", "r[0].energy", "r[0].note", "r[0].states.len",
                             "r[0].states[0]", "r[0].states[1]"]
    np.savez(tmp_path / "a.npz", **out_a)
    np.savez(tmp_path / "b.npz", **out_b)
    assert identity._compare_arrays(tmp_path / "a.npz", tmp_path / "a.npz") == []
    (note,) = identity._compare_arrays(tmp_path / "a.npz", tmp_path / "b.npz")
    assert note.startswith("r[0].states[0]: max abs deviation 1.110e-15")
