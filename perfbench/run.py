"""End-to-end and per-layer benchmark for dressedgf.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload emitter-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload runs as a single-client closed loop (the next job starts when
the previous one has finished) in a fresh worker process.  With ``--trace 0``
the run reports the end-to-end metrics; set-up time is the median over
several fresh processes.  With ``--trace 1`` the worker runs every job twice
in a row, untraced and traced (every public function of the traced layers
wrapped in spans), for about half of ``--seconds`` of untraced job time, and
reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (``--workload all``
prints one per workload).  Human-readable lines before it give every metric
with its unit and sample count, ``failed_frac`` and ``warned_frac``, the
pinned environment, and each failure.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("cli-large", "emitter-sweep", "oracle-scatter")
SETUP_SAMPLES = 3
# A run of one workload must end within 180 s.
RUN_BUDGET_S = 170.0


def spawn(args, workload, result, setup_only, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--result", str(result),
           "--spawned-at", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(result.read_text())


def summarize(args, workload, main, setup):
    records = main["records"]
    n = len(records)
    failed = [r for r in records if r["failures"]]
    warned = sum(1 for r in records if r["warned"])
    metrics = dict(main["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup), "s",
                              f"median of {len(setup)} processes")
        metrics["peak_rss_mb"] = (main["peak_rss_mb"], "MB", "n=1 workload process")
    mode = "traced" if args.trace else "untraced"
    print(f"workload {workload} seed {args.seed}: {mode}, single-client closed loop, "
          f"{n} jobs")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit:10s} ({note})")
    print(f"  {'failed_frac':44s} {len(failed) / n:14.6g} {'-':10s} ({len(failed)}/{n} jobs)")
    print(f"  {'warned_frac':44s} {warned / n:14.6g} {'-':10s} ({warned}/{n} jobs)")
    env = " ".join(f"{k}={v}" for k, v in main["environment"].items())
    print(f"  environment: {env}")
    reasons = Counter((r["label"], r["failures"][0], r["defect"] or "unexpected")
                      for r in failed)
    for (label, reason, defect), count in sorted(reasons.items()):
        print(f"  failed x{count}: {label}: {reason} [{defect}]")
    return {
        "correct": all(r["defect"] for r in failed),
        "attempted": n,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def run_workload(args, workload):
    """One benchmark run of ``workload``; prints the summary and the JSON result line."""
    start = time.monotonic()
    stem = OUT / f"{workload}-{args.seed}-{'traced' if args.trace else 'e2e'}"
    setup = []
    try:
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                probe = spawn(args, workload, stem.with_name(stem.name + f"-setup{i}.json"),
                              True, 60)
                setup.append(probe["setup_s"])
        remaining = RUN_BUDGET_S - (time.monotonic() - start)
        main_result = spawn(args, workload, stem.with_suffix(".json"), False, remaining)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run of {workload} failed: {exc}", file=sys.stderr)
        return False
    setup.append(main_result["setup_s"])
    print(json.dumps(summarize(args, workload, main_result, setup)))
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after the other")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size relative to the benchmark's (smoke tests use less)")
    args = parser.parse_args()
    if not (ROOT / "src" / "dressedgf" / "__init__.py").is_file():
        print(f"dressedgf sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return 0 if all([run_workload(args, name) for name in names]) else 1


if __name__ == "__main__":
    sys.exit(main())
