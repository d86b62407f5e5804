"""Compare what two source trees produce on the benchmark's jobs, job by job.

    python tools/identity.py --parent DIR --change DIR --seed 1 --workload cli-large
    python tools/identity.py --parent DIR --change DIR --seed 7     # every workload

DIR is the root of a checkout.  Each tree builds the prefix jobs and one cycle
of each workload from its own ``perfbench/workloads.py`` (read, never
modified) and runs them in a subprocess of its own, importing dressedgf from
its own ``src/``, with one BLAS thread.  After each job, and outside any
timing, it runs the job's own benchmark check, as the benchmark's worker does
after its loop.  Per CLI job the report gives the exit codes, whether stdout,
stderr and warnings are equal, and whether every file written is
byte-identical; per library job, whether every array and number it returns
is equal, bit for bit.  Where bytes differ it prints the largest absolute and
relative deviation of the numbers; where the check outcomes differ, both.
Per workload it prints the failed checks per cycle of each tree.  Exit code
0 when every job is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

WORKLOADS = ("cli-large", "emitter-sweep", "oracle-scatter")
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)", re.I)


def _flatten(obj, key, into):
    """Every array and number in ``obj`` as an array under its path; other leaves as their repr."""
    if dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            _flatten(getattr(obj, field.name), f"{key}.{field.name}", into)
        return
    if isinstance(obj, (list, tuple, np.ndarray, int, float, complex, np.number)):
        try:
            arr = np.asarray(obj)
        except ValueError:  # a ragged sequence
            arr = None
        if arr is not None and arr.dtype.kind in "biufc":
            into[key] = arr
            return
        if isinstance(obj, (list, tuple)):
            into[key + ".len"] = np.asarray(len(obj))
            for i, item in enumerate(obj):
                _flatten(item, f"{key}[{i}]", into)
            return
    into[key] = np.asarray(repr(obj))


def _check(job, result, error) -> list:
    """The failures of the job's own benchmark check; a job that raised fails with its error."""
    if error is not None:
        return [f"raised {error}"]
    try:
        return list(job.check(result) if job.out_dir is None else job.check(result, job.out_dir))
    except Exception as exc:  # malformed or missing output
        return [f"check raised {type(exc).__name__}: {str(exc)[:160]}"]


def dump(tree: Path, workload: str, seed: int, out: Path) -> None:
    """Run the prefix and one cycle of ``workload`` from ``tree``; write outcomes to ``out``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads

    wl = workloads.WORKLOADS[workload](seed, out / "run", 1.0)
    records = []
    for i, job in enumerate(list(wl.prefix) + list(wl.cycle)):
        if job.out_dir is not None:
            job.out_dir = out / f"job-{i:03d}"
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("always")
            try:
                result, error = job.run(), None
            except (Exception, SystemExit) as exc:  # a job that raises is an outcome too
                result, error = None, f"{type(exc).__name__}: {exc}"
        record = {"label": job.label, "kind": job.kind, "error": error,
                  "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                  "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
                  "prefix": i < len(wl.prefix), "failures": _check(job, result, error)}
        if job.out_dir is None:
            arrays = {}
            _flatten(result, "result", arrays)
            np.savez(out / f"job-{i:03d}.npz", **arrays)
        else:
            record["exit_code"] = result
        records.append(record)
    (out / "jobs.json").write_text(json.dumps(records))


def _deviation(a, b) -> str:
    """Largest absolute and relative deviation between two equally long number sequences."""
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    if same.all():
        return "numbers equal, formatting differs"
    a, b = a[~same], b[~same]  # equal infinities would subtract to nan
    diff = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(scale > 0, diff / scale, np.inf)
    return f"max abs deviation {np.max(diff):.3e}, max rel deviation {np.max(rel):.3e}"


def _compare_file(pa: Path, pb: Path) -> str | None:
    """None when the two files are byte-identical, else what differs."""
    ta, tb = pa.read_bytes(), pb.read_bytes()
    if ta == tb:
        return None
    na, nb = NUMBER.findall(ta), NUMBER.findall(tb)
    if len(na) != len(nb) or NUMBER.sub(b"#", ta) != NUMBER.sub(b"#", tb):
        return "text differs beyond its numbers"
    return _deviation([complex(x.decode()) for x in na], [complex(x.decode()) for x in nb])


def _compare_arrays(pa: Path, pb: Path) -> list:
    with np.load(pa) as fa, np.load(pb) as fb:
        a, b = dict(fa), dict(fb)
    out = [f"{k}: only in parent" for k in sorted(a.keys() - b.keys())]
    out += [f"{k}: only in change" for k in sorted(b.keys() - a.keys())]
    for k in sorted(a.keys() & b.keys()):
        x, y = a[k], b[k]
        if x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes():
            continue
        if x.shape == y.shape and x.dtype.kind in "biufc" and y.dtype.kind in "biufc":
            out.append(f"{k}: {_deviation(x.ravel(), y.ravel())}")
        else:
            out.append(f"{k}: {x.dtype}{x.shape} {str(x)[:60]!r}"
                       f" vs {y.dtype}{y.shape} {str(y)[:60]!r}")
    return out


def compare(da: Path, db: Path, workload: str) -> int:
    """Print the job-by-job report of one workload; returns the number of jobs that differ."""
    ja = json.loads((da / "jobs.json").read_text())
    jb = json.loads((db / "jobs.json").read_text())
    if [(r["kind"], r["label"]) for r in ja] != [(r["kind"], r["label"]) for r in jb]:
        print(f"{workload}: the two trees build different job lists")
        return max(len(ja), len(jb))
    differing = 0
    for i, (ra, rb) in enumerate(zip(ja, jb)):
        name = f"job-{i:03d}"
        notes = [f"{key} differs" for key in ("error", "stdout", "stderr", "warnings")
                 if ra[key] != rb[key]]
        if "exit_code" in ra:
            if ra["exit_code"] != rb["exit_code"]:
                notes.append(f"exit code {ra['exit_code']} vs {rb['exit_code']}")
            files_a = {p.name for p in (da / name).glob("*")}
            files_b = {p.name for p in (db / name).glob("*")}
            notes += [f"{f}: written by one tree only" for f in sorted(files_a ^ files_b)]
            for f in sorted(files_a & files_b):
                note = _compare_file(da / name / f, db / name / f)
                if note is not None:
                    notes.append(f"{f}: {note}")
            stderr = "same" if ra["stderr"] == rb["stderr"] else "differs"
            summary = f"exit {ra['exit_code']}, stderr {stderr}, {len(files_a & files_b)} files"
        else:
            notes += _compare_arrays(da / f"{name}.npz", db / f"{name}.npz")
            summary = "raised " + ra["error"] if ra["error"] else "returned"
        if ra["failures"] != rb["failures"]:
            notes.append(f"check outcome differs: parent {_outcome(ra)}; change {_outcome(rb)}")
        status = "differs" if notes else "identical"
        print(f"{workload} {name} [{ra['kind']}] {ra['label']}: {summary}; {status}")
        for note in notes:
            print(f"    {note}")
        differing += bool(notes)
    print(f"{workload}: {len(ja) - differing} of {len(ja)} jobs identical")
    cycle = [i for i, r in enumerate(ja) if not r["prefix"]]
    failed = [sum(bool(records[i]["failures"]) for i in cycle) for records in (ja, jb)]
    print(f"{workload}: failed checks per cycle: parent {failed[0]}, change {failed[1]}"
          f" of {len(cycle)} jobs")
    return differing


def _outcome(record) -> str:
    return f"failed ({', '.join(record['failures'])})" if record["failures"] else "passed"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, help="root of the changed checkout")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeat for several; default: every workload")
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)  # worker: tree to run
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)  # worker: output directory
    args = parser.parse_args()
    names = args.workload or list(WORKLOADS)
    if args.dump is not None:
        dump(args.dump.resolve(), names[0], args.seed, args.out)
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    differing = 0
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        for workload in names:
            dirs = {}
            procs = []
            for side, tree in (("parent", args.parent), ("change", args.change)):
                dirs[side] = Path(tmp) / f"{workload}-{side}"
                dirs[side].mkdir()
                procs.append(subprocess.Popen(
                    [sys.executable, __file__, "--dump", str(tree), "--out", str(dirs[side]),
                     "--seed", str(args.seed), "--workload", workload], env=env))
            codes = [p.wait() for p in procs]
            if any(codes):
                print(f"{workload}: a worker exited with {codes}")
                differing += 1
                continue
            differing += compare(dirs["parent"], dirs["change"], workload)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
