"""One workload process: set-up, warm-up, a single-client closed loop, checks.

Started by ``run.py``; not meant to be run by hand.  The process pins BLAS
and OpenMP to one thread before numpy is imported, so every run of every
workload uses the same number of threads.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import dressedgf  # noqa: E402
import dressedgf._kernels  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Record:
    label: str
    kind: str
    latency: float
    warned: bool
    defect: str | None
    failures: list = None
    bytes_written: int = 0


def execute(job, job_id, tracer=None):
    """Run one job inside the timed window; returns its record and raw output.

    A CLI job writes to a fresh directory per execution, checked later.
    """
    if job.out_dir is not None:
        job.out_dir = job.out_dir.with_name(f"job-{job_id}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            out = tracer.run_job(job_id, job.run) if tracer else job.run()
            error = None
        except (Exception, SystemExit) as exc:  # a job that raises is a failed job
            out, error = None, f"raised {type(exc).__name__}: {str(exc)[:160]}"
        latency = time.perf_counter() - start
    warned = any(issubclass(w.category, RuntimeWarning) for w in caught)
    rec = Record(job.label, job.kind, latency, warned, job.defect)
    if error is not None:
        rec.failures = [error]
    return rec, out


def verify(job, rec, out, out_dir):
    """Check one job's output; runs after the timed loop."""
    if rec.failures is None:
        try:
            rec.failures = job.check(out) if out_dir is None else job.check(out, out_dir)
        except Exception as exc:  # malformed or missing output
            rec.failures = [f"check raised {type(exc).__name__}: {str(exc)[:160]}"]
    if out_dir is not None and out_dir.exists():
        rec.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
        shutil.rmtree(out_dir)


def closed_loop(workload, seconds, tracer=None, min_cycles=1):
    """Run the prefix jobs, then whole cycles of the job mix, back to back.

    Stops at the cycle boundary nearest to ``seconds`` of job time, but not
    before ``min_cycles`` cycles, so every run measures the same mix of jobs.
    With a tracer each job runs twice in a row, untraced and traced, in
    alternating order so that neither side always pays for running first.
    Outputs are checked after the loop.

    Returns the untraced records, the traced records and the peak RSS in MB
    before the checks ran.
    """
    timed, pending, done = 0.0, [], 0

    def run_all(jobs):
        nonlocal timed
        for job in jobs:
            sides = (None,) if tracer is None else (None, tracer)
            if len(pending) % 4 == 2:
                sides = sides[::-1]
            for side in sides:
                if side is not None:
                    side.install()
                try:
                    rec, out = execute(job, len(pending), side)
                finally:
                    if side is not None:
                        side.uninstall()
                if side is None:
                    timed += rec.latency
                pending.append((job, rec, out, job.out_dir, side is not None))

    run_all(workload.prefix)
    while True:
        before = timed
        run_all(workload.cycle)
        done += 1
        if done >= min_cycles and timed + (timed - before) / 2 >= seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for job, rec, out, out_dir, _ in pending:
        verify(job, rec, out, out_dir)
    plain = [rec for _, rec, _, _, traced in pending if not traced]
    traced = [rec for _, rec, _, _, traced in pending if traced]
    return plain, traced, peak_mb


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(records):
    lat = [r.latency for r in records]
    ok = sum(1 for r in records if not r.failures)
    value, pct, n = tail(lat)
    return {
        "jobs_per_s": (ok / sum(lat), "1/s", f"n={len(lat)} jobs, {ok} verified"),
        "job_p50_s": (statistics.median(lat), "s", f"n={len(lat)}"),
        "job_tail_s": (value, "s", f"p{pct:.1f}, n={n}"),
    }


def environment():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    env = {var: os.environ.get(var) for var in THREAD_VARS}
    env.update({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "NUMBA_ENABLED": bool(dressedgf._kernels.NUMBA_ENABLED),
    })
    return env


def run_timed(workload, args, result):
    """The timed loop; stores the metrics in ``result`` and returns every record."""
    if not args.trace:
        # two cycles at least: a cli-large cycle (13 jobs) is about as
        # long as a whole run, and one cycle averages too little noise
        records, _, peak_mb = closed_loop(workload, args.seconds, min_cycles=2)
        result["metrics"] = end_to_end(records)
        result["peak_rss_mb"] = peak_mb
        return records
    tracer = tracing.Tracer()
    plain, traced, _ = closed_loop(workload, args.seconds / 2, tracer)
    tracer.write(args.result.with_suffix(".spans.csv"))
    layers, n_jobs = tracing.layer_metrics(tracer.spans, sum(r.bytes_written for r in traced))
    before = end_to_end(plain)["jobs_per_s"][0]
    after = end_to_end(traced)["jobs_per_s"][0]
    layers["trace.overhead_frac"] = (1.0 - after / before, "frac")
    result["metrics"] = {k: (v, u, f"{n_jobs} traced jobs") for k, (v, u) in layers.items()}
    result["traced_job_wall_s"] = tracing.job_wall(tracer.spans) / n_jobs
    return plain + traced


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="wall-clock time at which the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    run_dir = args.result.parent / f"run-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, run_dir, args.scale)
        workload.warmup()
        result = {"setup_s": time.time() - args.spawned_at, "environment": environment()}
        if not args.setup_only:
            records = run_timed(workload, args, result)
            result["records"] = [r.__dict__ for r in records]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
