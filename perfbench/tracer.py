"""Span tracing around the public functions of dressedgf's layers.

The tracer rebinds every public function defined in a layer module wherever
a ``dressedgf.*`` module namespace holds it, so calls made through module
globals inside the package are caught too: ``dressed``'s imports from
``bath``, ``oracle.compare``'s ``_bath.*`` attribute calls, and ``dressed``'s
lazy ``from .oracle import build_full_hamiltonian``.  No file of the package
is touched; :meth:`Tracer.uninstall` puts the original functions back.

Spans are ``(job, span_id, parent_id, name, start, end)`` tuples kept in
memory and written out by :meth:`Tracer.write` when the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "bath", "impurity", "dressed", "multi", "oracle")
JOB = "job"

# Per-layer metrics: (metric name, unit, span names summed, statistic).
GREEN_FUNCTIONS = (
    "bath.bath_green_element", "bath.bath_green_squared_element",
    "bath.green_column", "bath.green_row", "bath.green_matrix",
)
_FUNCTION_METRICS = (
    ("bath.diagonalize_bath.self_s", ("bath.diagonalize_bath",), "self"),
    ("bath.diagonalize_bath.calls", ("bath.diagonalize_bath",), "calls"),
    ("bath.detect_bands.self_s", ("bath.detect_bands",), "self"),
    ("bath.green.self_s", GREEN_FUNCTIONS, "self"),
    ("bath.green.calls", GREEN_FUNCTIONS, "calls"),
    ("bath.green_matrix.calls", ("bath.green_matrix",), "calls"),
    ("multi.det_f_roots.self_s", ("multi.det_f_roots",), "self"),
    ("multi.f_matrix.calls", ("multi.f_matrix",), "calls"),
    ("multi.solve_two_atom_poles.self_s", ("multi.solve_two_atom_poles",), "self"),
    ("multi.effective.self_s",
     ("multi.effective_hamiltonian_two", "multi.effective_hamiltonian_many"), "self"),
    ("multi.multi_green.self_s", ("multi.multi_green",), "self"),
    ("dressed.solve_dressed_bound_states.self_s", ("dressed.solve_dressed_bound_states",), "self"),
    ("dressed.classify_vds.self_s", ("dressed.classify_vds",), "self"),
    ("dressed.dressed_scattering_state.self_s", ("dressed.dressed_scattering_state",), "self"),
    ("dressed.dressed_scattering_state.calls", ("dressed.dressed_scattering_state",), "calls"),
    ("impurity.solve_impurity_bound_state.self_s",
     ("impurity.solve_impurity_bound_state",), "self"),
    ("oracle.direct_resolvent.self_s", ("oracle.direct_resolvent",), "self"),
    ("oracle.compare.self_s", ("oracle.compare",), "self"),
    ("oracle.exact_eigensystem.self_s", ("oracle.exact_eigensystem",), "self"),
    ("oracle.build_full_hamiltonian.self_s", ("oracle.build_full_hamiltonian",), "self"),
    ("oracle.build_full_hamiltonian.calls", ("oracle.build_full_hamiltonian",), "calls"),
)
UNITS = {"self": "s/job", "calls": "calls/job"}


class Tracer:
    """Records nested spans for calls into the traced layers."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._next_id = 0
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.job, sid, parent, name, start, end))

        return traced

    def install(self):
        """Rebind the public functions of every layer in all package namespaces."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dressedgf.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dressedgf" and not mod_name.startswith("dressedgf."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        """Put the original functions back."""
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def run_job(self, job_id, fn):
        """Run ``fn`` inside the root span of job ``job_id``."""
        self.job = job_id
        return self._wrap(JOB, fn)()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("job,span,parent,name,start_s,end_s\n")
            for job, sid, parent, name, start, end in self.spans:
                fh.write(f"{job},{sid},{parent},{name},{start:.9f},{end:.9f}\n")


def self_times(spans):
    """Map span id to (job, name, parent name, self seconds)."""
    names = {sid: name for _, sid, _, name, _, _ in spans}
    child_time = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return {
        sid: (job, name, names.get(parent), (end - start) - child_time[sid])
        for job, sid, parent, name, start, end in spans
    }


def layer_metrics(spans, bytes_written):
    """Per-layer metrics averaged over the traced jobs, as ``{name: (value, unit)}``.

    ``bytes_written`` is the total CLI output size of the traced jobs.
    """
    table = self_times(spans)
    n_jobs = sum(1 for _, name, _, _ in table.values() if name == JOB) or 1
    by_name = defaultdict(lambda: [0, 0.0])
    for _, name, _, self_s in table.values():
        by_name[name][0] += 1
        by_name[name][1] += self_s
    out = {}
    for layer in LAYERS:
        entries = [v for k, v in by_name.items() if k.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = (sum(v[1] for v in entries) / n_jobs, "s/job")
        out[f"{layer}.calls"] = (sum(v[0] for v in entries) / n_jobs, "calls/job")
    for metric, names, stat in _FUNCTION_METRICS:
        idx = 0 if stat == "calls" else 1
        out[metric] = (sum(by_name[n][idx] for n in names) / n_jobs, UNITS[stat])
    rebuilds = sum(
        1 for _, name, parent, _ in table.values()
        if name == "oracle.build_full_hamiltonian" and parent == "dressed.dressed_scattering_state"
    )
    states = by_name["dressed.dressed_scattering_state"][0]
    out["dressed.rebuilds_per_state"] = (rebuilds / states if states else 0.0, "ratio")
    out["cli.bytes_written"] = (bytes_written / n_jobs, "B/job")
    out["unattributed_s"] = (by_name[JOB][1] / n_jobs, "s/job")
    return out, n_jobs


def job_wall(spans):
    """Total duration of the job root spans."""
    return sum(end - start for _, _, _, name, start, end in spans if name == JOB)
