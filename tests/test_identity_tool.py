"""The parent-versus-change comparison tool, ``tools/identity.py``, on small inputs."""

import importlib.util
import json
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


@dataclass
class _Job:
    check: object
    out_dir: Path = None


def test_each_job_runs_its_own_check():
    # a library check takes the result, a CLI check the exit code and the output directory
    assert identity._check(_Job(lambda r: [] if r == 3 else ["wrong"]), 3, None) == []
    assert identity._check(_Job(lambda r: ["wrong"]), 3, None) == ["wrong"]
    seen = []
    cli_job = _Job(lambda code, out: seen.append((code, out)) or [], Path("job-000"))
    assert identity._check(cli_job, 0, None) == [] and seen == [(0, Path("job-000"))]
    # a job that raised fails with its error; a check that raises fails too
    assert identity._check(_Job(None), None, "PoleError: pole") == ["raised PoleError: pole"]
    (note,) = identity._check(_Job(lambda r: 1 / 0), 3, None)
    assert note.startswith("check raised ZeroDivisionError")


def _dump(root, failures):
    """A dump of one prefix job and two cycle jobs that return the same array."""
    root.mkdir()
    records = []
    for i, fails in enumerate(failures):
        records.append({"label": f"job {i}", "kind": "M=1", "error": None, "stdout": "",
                        "stderr": "", "warnings": [], "prefix": i == 0, "failures": fails})
        np.savez(root / f"job-{i:03d}.npz", result=np.ones(2))
    (root / "jobs.json").write_text(json.dumps(records))


def test_check_outcomes_and_failures_per_cycle_are_reported(tmp_path, capsys):
    _dump(tmp_path / "a", [[], [], ["count"]])
    _dump(tmp_path / "b", [[], ["residual"], ["count"]])
    assert identity.compare(tmp_path / "a", tmp_path / "a", "w") == 0
    assert "w: failed checks per cycle: parent 1, change 1 of 2 jobs" in capsys.readouterr().out
    assert identity.compare(tmp_path / "a", tmp_path / "b", "w") == 1
    out = capsys.readouterr().out
    assert "w job-001 [M=1] job 1: returned; differs" in out
    assert "    check outcome differs: parent passed; change failed (residual)" in out
    assert "w job-002 [M=1] job 2: returned; identical" in out
    assert "w: failed checks per cycle: parent 1, change 2 of 2 jobs" in out
