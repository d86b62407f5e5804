"""The five CLI commands against checked-in golden outputs.

Each directory under ``tests/data/golden`` holds a ``config.json``, the files
the five commands wrote for it and ``exits.json`` with every command's exit
code and stderr.  The configs are a uniform chain (N = 30), a topological SSH
chain (15 cells) and a random complex graph of 30 sites (``conftest``'s
``random_bath_spec`` with seed 7), each with one emitter and with two.

Strings, integers and booleans must match exactly.  A float must match within
1e-12 of the largest magnitude in its column: a CSV column, or one key of a
JSON document across list entries.  Error fields (names containing "error")
measure a rounding-level disagreement with a reference, so the largest
magnitude of their column is itself rounding noise; they match within that
rule or within 1e-13 in absolute terms, whichever is larger.  The floor lets
rounding moves of O(1) energies through (a few 1e-15) and catches an error
that grows by two orders of magnitude or more.

Regenerate after a deliberate change of output with
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from dressedgf import cli

GOLDEN = Path(__file__).parent / "data" / "golden"
COMMANDS = ("spectrum", "bound-states", "scattering", "effective", "compare")
RTOL = 1e-12
ERROR_ATOL = 1e-13


def run_commands(config: Path, out: Path, capture) -> dict:
    """Run every command on ``config`` into ``out``; exit code and stderr per command."""
    exits = {}
    for command in COMMANDS:
        code = cli.main([command, "--config", str(config), "--out", str(out)])
        exits[command] = {"exit": code, "stderr": capture()}
    return exits


def _is_int(text: str) -> bool:
    # "-0" is the zero of a float column: no integer prints that way
    try:
        int(text)
    except ValueError:
        return False
    return text != "-0"


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _csv_mismatches(golden: str, current: str):
    gold_lines, cur_lines = golden.splitlines(), current.splitlines()
    if len(gold_lines) != len(cur_lines) or gold_lines[:2] != cur_lines[:2]:
        return ["line count or header differs"]
    header = gold_lines[1].split(",")
    gold_rows = [line.split(",") for line in gold_lines[2:]]
    cur_rows = [line.split(",") for line in cur_lines[2:]]
    out = []
    for col, name in enumerate(header):
        gold_col = [row[col] for row in gold_rows]
        cur_col = [row[col] for row in cur_rows]
        if all(_is_int(v) for v in gold_col + cur_col) or not all(map(_is_float, gold_col)):
            if gold_col != cur_col:
                out.append(f"column {name}: {gold_col} != {cur_col}")
            continue
        out += _float_mismatches(name, [float(v) for v in gold_col], cur_col)
    return out


def _float_mismatches(name, gold, cur):
    """Mismatches of one float column ``gold`` against the values (or texts) ``cur``."""
    if not all(isinstance(v, float) or _is_float(str(v)) for v in cur):
        return [f"column {name}: non-number in {cur}"]
    cur = [float(v) for v in cur]
    finite = [abs(v) for v in gold if math.isfinite(v)]
    scale = max(finite, default=0.0)
    tol = max(RTOL * scale, ERROR_ATOL) if "error" in name else RTOL * scale
    out = []
    for g, c in zip(gold, cur):
        same = g == c or (math.isnan(g) and math.isnan(c))
        if not same and not (math.isfinite(g) and abs(g - c) <= tol):
            out.append(f"column {name}: {c!r} != {g!r} (tolerance {tol:.3e})")
    return out


def _json_columns(doc, path, columns, leaves):
    """Flatten ``doc``: floats into ``columns`` by key path, other leaves into ``leaves``."""
    if isinstance(doc, dict):
        leaves.append((path + ".keys", sorted(doc)))
        for key, val in doc.items():
            _json_columns(val, f"{path}.{key}", columns, leaves)
    elif isinstance(doc, list):
        leaves.append((path + ".len", len(doc)))
        for val in doc:
            _json_columns(val, path + "[]", columns, leaves)
    elif isinstance(doc, float):
        columns.setdefault(path, []).append(doc)
    else:
        leaves.append((path, doc))


def _json_mismatches(golden: str, current: str):
    gold_cols, gold_leaves, cur_cols, cur_leaves = {}, [], {}, []
    _json_columns(json.loads(golden), "", gold_cols, gold_leaves)
    _json_columns(json.loads(current), "", cur_cols, cur_leaves)
    if gold_leaves != cur_leaves or gold_cols.keys() != cur_cols.keys():
        return [f"structure or exact values differ: {gold_leaves} != {cur_leaves}"]
    out = []
    for path, gold in gold_cols.items():
        if len(cur_cols[path]) != len(gold):
            out.append(f"{path}: {len(cur_cols[path])} values, golden has {len(gold)}")
        else:
            out += _float_mismatches(path, gold, cur_cols[path])
    return out


CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())


@pytest.mark.parametrize("case", CASES)
def test_cli_outputs_match_golden(tmp_path, capsys, case):
    golden = GOLDEN / case
    exits = run_commands(golden / "config.json", tmp_path, lambda: capsys.readouterr().err)
    assert exits == json.loads((golden / "exits.json").read_text())
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in golden.iterdir()
                             if p.name not in ("config.json", "exits.json"))
    for name in written:
        check = _json_mismatches if name.endswith(".json") else _csv_mismatches
        mismatches = check((golden / name).read_text(), (tmp_path / name).read_text())
        assert not mismatches, f"{name}: {mismatches[:3]}"


def test_golden_comparison_catches_a_moved_float():
    csv = "# units\nk,energy\n0,1.5\n1,-2.25\n"
    assert not _csv_mismatches(csv, csv.replace("1.5", "1.5000000000001"))
    assert _csv_mismatches(csv, csv.replace("1.5", "1.50000000001"))
    assert _csv_mismatches(csv, csv.replace("1,-2.25", "2,-2.25"))
    doc = json.dumps({"checks": [{"error": 1e-15, "tol": 1e-9, "passed": True}]})
    assert not _json_mismatches(doc, doc.replace("1e-15", "3e-15"))
    assert _json_mismatches(doc, doc.replace("1e-15", "3e-12"))
    assert _json_mismatches(doc, doc.replace("true", "false"))


if __name__ == "__main__":
    import io

    for case in CASES:
        directory = GOLDEN / case
        stderr = io.StringIO()
        real_stderr, sys.stderr = sys.stderr, stderr

        def take():
            text = stderr.getvalue()
            stderr.seek(0)
            stderr.truncate()
            return text

        try:
            exits = run_commands(directory / "config.json", directory, take)
        finally:
            sys.stderr = real_stderr
        (directory / "exits.json").write_text(json.dumps(exits, indent=1) + "\n")
        print(case, {c: e["exit"] for c, e in exits.items()})
