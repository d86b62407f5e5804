"""Seeded inputs and jobs for the three benchmark workloads.

Every job is a closure that calls into dressedgf through a module attribute
(``dressedgf.cli.main``, ``dressedgf.multi.det_f_roots``, ...), so a tracer
that rebinds those attributes sees the call.  The program receives only the
baths and configs generated here; the checks rebuild every reference from
the same description with numpy (see ``checks.py``).

Jobs that can hit a known defect carry ``defect`` (see README.md): their
failures count in ``failed`` but do not make the run incorrect; the pinned
ones fail or warn in every run.  A failure of any other job marks the run as
incorrect.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import dressedgf
import dressedgf.bath
import dressedgf.cli
import dressedgf.dressed
import dressedgf.impurity
import dressedgf.multi

import checks

G_SWEEP = [0.025, 0.05, 0.1, 0.2]
DEFECT_EDGE_STATES = ("ROADMAP 3(i)/(ii): topological SSH chain, absolute WEIGHT_TOL near the"
                      " ends and edge states read as a band")
DEFECT_BAND_EDGE = "ROADMAP 3(iii): band-edge margin rounds onto the pole"
# Found by this benchmark: on random-graph pairs, whose sites see different
# local Green functions, the analytic two-level model errs by ~0.1 g**2 while
# the frozen M-level model of the same pair stays within g**4/d**3.
DEFECT_TWO_LEVEL = "effective_hamiltonian_two misses the weak-coupling bound on asymmetric pairs"
# Within 40 cells of an end of the topological chain the edge modes keep an
# amplitude above bath.WEIGHT_TOL (0.5**40 ~ 1e-12).
EDGE_MODE_SITES = 80


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    defect: str | None = None
    out_dir: Path | None = None


@dataclass
class Bath:
    """A bath as the benchmark knows it: on-site frequencies and edges ``(x, xp, J)``."""

    name: str
    family: str  # "chain" | "ssh-trivial" | "ssh-topological" | "random"
    freqs: np.ndarray
    edges: list
    builder: dict | None = None
    _levels: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self):
        return self.freqs.shape[0]

    def matrix(self):
        h = np.diag(self.freqs.astype(np.complex128))
        for x, xp, amp in self.edges:
            h[x, xp] += amp
            h[xp, x] += np.conj(amp)
        return h

    def levels(self):
        if self._levels is None:
            if self.family == "chain":
                self._levels = checks.chain_levels(self.n, 0.0, self.edges[0][2].real)
            else:
                self._levels = checks.eigenvalues(self.matrix())
        return self._levels

    @property
    def width(self):
        lv = self.levels()
        return float(lv[-1] - lv[0])

    def bands(self):
        """Physical bands; the edge-state pair of a topological chain is not a band."""
        lv, half = self.levels(), self.n // 2
        if self.family == "ssh-trivial":
            return [(lv[0], lv[half - 1]), (lv[half], lv[-1])]
        if self.family == "ssh-topological":
            return [(lv[0], lv[half - 2]), (lv[half + 1], lv[-1])]
        return [(lv[0], lv[-1])]

    def regions(self):
        return checks.gap_regions(self.bands(), self.width)

    def bare_levels(self):
        """The edge-state pair of a topological chain, isolated inside the bulk gap."""
        if self.family != "ssh-topological":
            return ()
        half = self.n // 2
        return tuple(self.levels()[half - 1:half + 1])

    def gap_count(self, found, exact, what):
        return checks.gap_count(found, exact, self.regions(), self.width, what,
                                self.bare_levels())

    def edge_distance(self, omega):
        return min(abs(omega - e) for band in self.bands() for e in band)

    def spec(self):
        return dressedgf.BathSpec(
            n_sites=self.n,
            frequencies=tuple(float(f) for f in self.freqs),
            hoppings=tuple((int(x), int(xp), complex(a)) for x, xp, a in self.edges),
        )

    def config(self):
        if self.builder is not None:
            return dict(self.builder)
        return {
            "n_sites": self.n,
            "frequencies": [float(f) for f in self.freqs],
            "hoppings": [[int(x), int(xp), float(a.real), float(a.imag)]
                         for x, xp, a in self.edges],
        }


def chain(n, j=1.0):
    edges = [(x, x + 1, complex(j)) for x in range(n - 1)]
    return Bath("chain", "chain", np.zeros(n), edges,
                {"builder": "chain", "n_sites": n, "omega_c": 0.0, "j": j})


def ssh(cells, j1, j2):
    edges = []
    for c in range(cells):
        edges.append((2 * c, 2 * c + 1, complex(j1)))
        if c + 1 < cells:
            edges.append((2 * c + 1, 2 * c + 2, complex(j2)))
    family = "ssh-topological" if abs(j1) < abs(j2) else "ssh-trivial"
    return Bath(family, family, np.zeros(2 * cells), edges,
                {"builder": "ssh", "n_cells": cells, "omega_c": 0.0, "j1": j1, "j2": j2})


def random_graph(n, rng, degree=3.0, disorder=1.0):
    """Connected sparse graph: a random spanning tree plus random extra edges."""
    perm = rng.permutation(n)
    pairs = set()
    for i in range(1, n):
        a, b = int(perm[i]), int(perm[rng.integers(0, i)])
        pairs.add((min(a, b), max(a, b)))
    while len(pairs) < int(round(degree * n / 2)):
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        pairs.add((min(a, b), max(a, b)))
    edges = [(a, b, complex(rng.uniform(0.5, 1.0) * np.exp(2j * np.pi * rng.uniform())))
             for a, b in sorted(pairs)]
    freqs = rng.uniform(-disorder / 2, disorder / 2, n)
    return Bath("random", "random", freqs, edges)


def gershgorin(bath):
    """Bound on |E| over the bath spectrum that needs no diagonalization."""
    return float(np.max(np.abs(bath.matrix()).sum(axis=1)))


# ---------------------------------------------------------------- CLI jobs


class CliRun:
    """Writes configs under ``root`` and turns them into CLI jobs."""

    def __init__(self, root: Path):
        self.root = root
        self.work = root / "work"
        self.root.mkdir(parents=True, exist_ok=True)
        self._count = 0
        self._exact = {}

    def config_file(self, payload):
        self._count += 1
        path = self.root / f"config-{self._count:03d}.json"
        path.write_text(json.dumps(payload))
        return path

    def job(self, command, bath, emitters, label, extra=None, defect=None):
        """``emitters`` are ``(omega0, g, site)`` triples."""
        payload = {"bath": bath.config(),
                   "emitters": [{"omega0": w, "g": g, "site": x} for w, g, x in emitters]}
        payload.update(extra or {})
        cfg = self.config_file(payload)
        job = Job("cli " + command, label, None, None, defect, self.work / "job")
        key = (bath.name, tuple(emitters))

        def run():
            return dressedgf.cli.main([command, "--config", str(cfg),
                                       "--out", str(job.out_dir)])

        def check(code, out):
            if code != 0:
                return [f"exit code {code}"]
            return CLI_CHECKS[command](self, out, bath, emitters, key, payload)

        job.run, job.check = run, check
        return job

    def exact(self, bath, emitters, key):
        if key not in self._exact:
            self._exact[key] = checks.eigenvalues(checks.full_matrix(bath.matrix(), emitters))
        return self._exact[key]


def _check_spectrum(run, out, bath, emitters, key, payload):
    rows = checks.read_csv(out / "spectrum.csv")
    return checks.spectrum([float(r[1]) for r in rows], bath.levels(), bath.width, "spectrum")


def _check_bound_states(run, out, bath, emitters, key, payload):
    w = bath.width
    rows = checks.read_csv(out / "bound_states.csv")
    wf = checks.read_csv(out / "wavefunctions.csv")
    cols = np.array([[float(v) for v in r[1:]] for r in wf]) if rows else None
    h = checks.full_matrix(bath.matrix(), emitters)
    fails = []
    energies = []
    for i, r in enumerate(rows):
        energy, amp, err = float(r[1]), float(r[3]), float(r[6])
        energies.append(energy)
        if not err <= checks.ENERGY_RTOL * w:
            fails.append(f"bound state {i}: oracle_error column {err:.3e}")
        vec = np.concatenate(([amp], cols[:, 2 * i] + 1j * cols[:, 2 * i + 1]))
        fails += checks.residual(h, vec, energy, w, f"bound state {i}")
    fails += bath.gap_count(energies, run.exact(bath, emitters, key), "bound states")
    return fails


def _effective_tol(bath, omega0, g):
    """Error bound of a weak-coupling model's eigenvalues: g**4 / d**3.

    A dressed level E solves E = omega0 + g**2 mu(E) for an eigenvalue mu of
    the site-projected bath Green function, whose norm is at most 1/d and
    whose derivative at most 1/d**2 at distance d from the bands.  Freezing
    mu at omega0 therefore errs by at most g**4 / d**3, with d the smallest
    distance along the shift: d = dist - g**2 / d.  No bound exists when the
    shift can reach the band.
    """
    dist = bath.edge_distance(omega0)
    disc = dist ** 2 - 4.0 * g ** 2
    if disc <= 0.0:
        return math.inf
    d = 0.5 * (dist + math.sqrt(disc))
    return g ** 4 / d ** 3


def _check_effective(run, out, bath, emitters, key, payload):
    data = json.loads((out / "effective.json").read_text())
    omega0, g = emitters[0][0], emitters[0][1]
    fails = checks.effective_levels(
        data["eigenvalues"], run.exact(bath, emitters, key), omega0, bath.regions(),
        _effective_tol(bath, omega0, g), "effective")
    if data["oracle"]["eigenvalue_errors"] is None:
        fails.append("effective: CLI oracle found no matching in-gap levels")
    elif not max(data["oracle"]["eigenvalue_errors"]) <= _effective_tol(bath, omega0, g):
        fails.append("effective: CLI oracle eigenvalue error above budget")
    if "g_sweep" in payload:
        rows = checks.read_csv(out / "gsweep.csv")
        for r in rows:
            gs, err = float(r[0]), float(r[1])
            if not err <= _effective_tol(bath, omega0, gs):
                fails.append(f"g sweep g={gs}: max_eigenvalue_error {err:.3e}")
    return fails


def _check_compare(run, out, bath, emitters, key, payload):
    report = json.loads((out / "compare_report.json").read_text())
    if report["all_passed"]:
        return []
    return [f"compare: {c['name']} failed ({c['detail']})"
            for c in report["checks"] if not c["passed"]]


def _check_scattering(run, out, bath, emitters, key, payload):
    rows = checks.read_csv(out / "scattering.csv")
    fails = checks.spectrum([float(r[1]) for r in rows], bath.levels(), bath.width,
                            "scattering energies")
    worst = max(float(r[5]) for r in rows)
    if not worst <= checks.SCATTER_RESIDUAL:
        fails.append(f"scattering: residual column {worst:.3e}")
    return fails


CLI_CHECKS = {
    "spectrum": _check_spectrum,
    "bound-states": _check_bound_states,
    "effective": _check_effective,
    "compare": _check_compare,
    "scattering": _check_scattering,
}


def _sites(rng, n, m, lo=None, hi=None, spacing=None):
    lo = n // 5 if lo is None else lo
    hi = n - n // 5 if hi is None else hi
    if spacing is not None:
        start = int(rng.integers(lo, hi - spacing * (m - 1)))
        return [start + spacing * i for i in range(m)]
    return sorted(int(x) for x in rng.choice(np.arange(lo, hi), size=m, replace=False))


def _outside(rng, bath, lo=0.3, hi=0.8):
    """omega0 above or below every band, ``lo..hi`` away from the edge."""
    lv = bath.levels()
    if rng.uniform() < 0.5:
        return float(lv[-1] + rng.uniform(lo, hi))
    return float(lv[0] - rng.uniform(lo, hi))


class Workload:
    """A workload: warm-up, prefix jobs run once, then a repeated cycle of jobs."""

    def __init__(self, prefix, cycle, warmup):
        self.prefix = prefix
        self.cycle = cycle
        self.warmup = warmup


def _tiny_cli_warmup(run_dir, commands):
    """One small CLI call per command, so first-call costs land in set-up."""
    tiny = CliRun(run_dir / "warmup")
    bath = chain(12)
    jobs = []
    for command in commands:
        if command == "effective":
            jobs.append(tiny.job(command, bath, [(2.5, 0.1, 3), (2.5, 0.1, 5)], "warm",
                                 {"g_sweep": [0.05, 0.1]}))
            jobs.append(tiny.job(command, bath, [(2.5, 0.1, x) for x in range(2, 10)], "warm"))
        elif command == "compare":
            jobs.append(tiny.job(command, bath, [(2.5, 0.1, 3)], "warm"))
            jobs.append(tiny.job(command, bath, [(2.5, 0.1, 3), (2.5, 0.1, 6)], "warm"))
        else:
            jobs.append(tiny.job(command, bath, [(2.5, 0.1, 3)], "warm"))
    for job in jobs:
        code = job.run()
        if code != 0:
            raise RuntimeError(f"warm-up {job.kind} exited with {code}")


def cli_large(seed, run_dir, scale=1.0):
    """Uniform chain, topological SSH chain and a random complex graph at N ~ 1000."""
    rng = np.random.default_rng(seed)
    n = max(16, int(1000 * scale))
    run = CliRun(run_dir)
    ch = chain(n)
    topo = ssh(n // 2, 0.5, 1.0)
    rand = random_graph(n, rng)
    hull = gershgorin(rand)
    g = lambda: float(rng.uniform(0.05, 0.15))  # noqa: E731

    def emit(omega0, gval, sites):
        return [(omega0, gval, x) for x in sites]

    # uniform chain: edges are at +-2cos(pi/(N+1)), so place omega0 analytically
    top = 2.0 * math.cos(math.pi / (n + 1))
    chain_jobs = [
        run.job("spectrum", ch, [], "chain"),
        run.job("effective", ch, emit(-(top + rng.uniform(0.3, 0.8)), 0.1,
                                      _sites(rng, n, 2, spacing=int(rng.integers(1, 6)))),
                "chain M=2", {"g_sweep": G_SWEEP}),
        run.job("bound-states", ch, emit(top + rng.uniform(0.3, 0.8), g(), _sites(rng, n, 1)),
                "chain outside"),
        run.job("effective", ch, emit(top + rng.uniform(0.3, 0.8), 0.1, _sites(rng, n, 8)),
                "chain M=8"),
        run.job("bound-states", ch, [(2.0005, 0.1, n // 2)], "chain omega0=2.0005",
                defect=DEFECT_BAND_EDGE),
    ]
    # topological SSH chain: bulk gap (-0.5, 0.5) around omega_c = 0 holding the
    # edge-state pair; site 60 is 30 cells in, where the edge modes still have
    # amplitude ~1e-9 > WEIGHT_TOL
    ssh_jobs = [
        run.job("bound-states", topo, [(0.0, 0.1, min(60, n - 1))], "ssh omega_c",
                defect=DEFECT_EDGE_STATES),
        run.job("spectrum", topo, [], "ssh"),
        run.job("effective", topo, emit(rng.uniform(1.8, 2.2), 0.1, _sites(rng, n, 8)),
                "ssh M=8"),
        run.job("effective", topo, [(0.0, 0.1, n // 2 - 1), (0.0, 0.1, n // 2 + 2)],
                "ssh omega_c M=2", defect=DEFECT_EDGE_STATES),
    ]
    random_jobs = [
        run.job("effective", rand, emit(-(hull + rng.uniform(0.3, 0.8)), 0.1,
                                        _sites(rng, n, 8)), "random M=8"),
        run.job("bound-states", rand, emit(-(hull + rng.uniform(0.3, 0.8)), g(),
                                           _sites(rng, n, 1)), "random outside"),
        run.job("spectrum", rand, [], "random"),
        run.job("effective", rand, emit(hull + rng.uniform(0.3, 0.8), 0.1, _sites(rng, n, 2)),
                "random M=2", {"g_sweep": G_SWEEP}, DEFECT_TWO_LEVEL),
    ]
    # interleave the families so any prefix of the cycle has about the same mix
    jobs = [job for group in itertools.zip_longest(chain_jobs, ssh_jobs, random_jobs)
            for job in group if job is not None]
    return Workload([], jobs,
                    lambda: _tiny_cli_warmup(run_dir, ("spectrum", "bound-states", "effective")))


def oracle_scatter(seed, run_dir, scale=1.0):
    """compare (M=1, M=2) and scattering on a chain, a topological SSH chain and a random graph."""
    rng = np.random.default_rng(seed)
    n = max(16, int(300 * scale))
    run = CliRun(run_dir)
    ch = chain(n)
    topo = ssh(n // 2, 0.5, 1.0)
    rand = random_graph(n, rng)
    g = lambda: float(rng.uniform(0.05, 0.2))  # noqa: E731
    jobs = []
    for bath in (ch, rand):
        far = gershgorin(bath)
        om = float(rng.choice([-1.0, 1.0]) * (far + rng.uniform(0.2, 0.6)))
        jobs.append(run.job("compare", bath, [(om, g(), _sites(rng, n, 1)[0])],
                            f"{bath.name} M=1", {"seed": int(rng.integers(1 << 30))}))
        om2 = float(rng.choice([-1.0, 1.0]) * (far + rng.uniform(0.2, 0.6)))
        gg = g()
        jobs.append(run.job("compare", bath, [(om2, gg, x) for x in
                                              _sites(rng, n, 2, spacing=int(rng.integers(1, 6)))],
                            f"{bath.name} M=2", {"seed": int(rng.integers(1 << 30))}))
        jobs.append(run.job("scattering", bath,
                            [(float(rng.uniform(-1.5, 1.5)), g(), _sites(rng, n, 1)[0])],
                            f"{bath.name} scattering"))
    # topological SSH chain, emitter at omega_c on bulk sites: pinned so the
    # known count mismatch shows in every run
    jobs.insert(3, run.job("compare", topo, [(0.0, 0.1, n // 3)], "ssh omega_c M=1",
                           {"seed": 1}, defect=DEFECT_EDGE_STATES))
    jobs.insert(4, run.job("compare", topo, [(0.0, 0.1, n // 3), (0.0, 0.1, n // 3 + 2)],
                           "ssh omega_c M=2", {"seed": 2}, defect=DEFECT_EDGE_STATES))
    jobs.insert(5, run.job("scattering", topo, [(0.0, 0.1, n // 2)], "ssh omega_c scattering"))
    return Workload([], jobs,
                    lambda: _tiny_cli_warmup(run_dir, ("compare", "scattering")))


# ------------------------------------------------------------ library jobs


class SweepRun:
    """Library jobs over diagonalized baths; the diagonalizations are jobs too."""

    def __init__(self):
        self.solved = {}
        self._exact = {}

    def exact(self, bath, h, key):
        key = (bath.name,) + key
        if key not in self._exact:
            self._exact[key] = checks.eigenvalues(h)
        return self._exact[key]

    def diag_job(self, bath):
        def run():
            s = dressedgf.bath.diagonalize_bath(bath.spec())
            self.solved[bath.name] = (s, dressedgf.bath.detect_bands(s))
            return s

        def check(s):
            fails = checks.spectrum(s.eigenvalues, bath.levels(), bath.width, "bath levels")
            h = bath.matrix()
            for k in np.linspace(0, bath.n - 1, 8).astype(int):
                fails += checks.residual(h, s.eigenvectors[:, k], s.eigenvalues[k], bath.width,
                                         f"bath mode {k}")
            return fails

        return Job("diagonalize", bath.name, run, check)

    def m1_job(self, bath, omega0, g, site, label, defect=None):
        em = [(omega0, g, site)]

        def run():
            s, bands = self.solved[bath.name]
            e = dressedgf.dressed.EmitterSpec(omega0=omega0, g=g, site=site)
            states = dressedgf.dressed.solve_dressed_bound_states(s, e, bands)
            return states, dressedgf.dressed.classify_vds(s, e, bands)

        def check(out):
            states, vds = out
            h = checks.full_matrix(bath.matrix(), em)
            w = bath.width
            fails = []
            for i, b in enumerate(states):
                vec = np.concatenate(([b.atomic_amplitude], b.photonic))
                fails += checks.residual(h, vec, b.energy, w, f"bound state {i}")
            fails += bath.gap_count([b.energy for b in states],
                                    self.exact(bath, h, ("m1",) + tuple(em)), "bound states")
            if vds.kind == "bound":
                # the witness is a vacancy eigenstate: H_B w = omega0 w away from the site
                fails += checks.residual(bath.matrix(), vds.witness, omega0, w, "VDS witness",
                                         mask_site=site)
            return fails

        return Job("M=1", label, run, check, defect)

    def impurity_job(self, bath, strength, site, label, defect=None):
        def run():
            s, bands = self.solved[bath.name]
            spec = dressedgf.impurity.ImpuritySpec(site=site, strength=strength)
            return dressedgf.impurity.solve_impurity_bound_state(s, spec, bands)

        def check(states):
            w = bath.width
            h = bath.matrix()
            if math.isinf(strength):
                keep = np.arange(bath.n) != site
                exact = self.exact(bath, h[np.ix_(keep, keep)], ("vacancy", site))
            else:
                h[site, site] += strength
                exact = self.exact(bath, h, ("impurity", site, strength))
            fails = []
            for i, st in enumerate(states):
                mask = site if math.isinf(strength) else None
                fails += checks.residual(h, st.wavefunction, st.energy, w, f"impurity state {i}",
                                         mask_site=mask)
            fails += bath.gap_count([st.energy for st in states], exact, "impurity states")
            return fails

        return Job("impurity", label, run, check, defect)

    def m2_job(self, bath, omega0, g, sites, label, defect=None):
        em = [(omega0, g, x) for x in sites]

        def run():
            s, bands = self.solved[bath.name]
            arr = dressedgf.multi.EmitterArraySpec(tuple(
                dressedgf.dressed.EmitterSpec(omega0=omega0, g=g, site=x) for x in sites))
            poles = dressedgf.multi.solve_two_atom_poles(s, arr, bands)
            return poles, dressedgf.multi.effective_hamiltonian_two(s, arr, bands)

        def check(out):
            poles, ham = out
            h = checks.full_matrix(bath.matrix(), em)
            w = bath.width
            exact = self.exact(bath, h, ("m",) + tuple(em))
            fails = bath.gap_count(poles.roots, exact, "two-atom poles")
            for name in ("minus", "plus"):
                omega = getattr(poles, f"omega_{name}")
                if omega is not None:
                    fails += checks.residual(h, getattr(poles, f"state_{name}"), omega, w,
                                             f"pole state {name}")
            fails += checks.effective_levels(np.linalg.eigvalsh(ham.matrix), exact, omega0,
                                             bath.regions(), _effective_tol(bath, omega0, g),
                                             "effective M=2")
            return fails

        return Job("M=2", label, run, check, defect)

    def m8_job(self, bath, omega0, g, sites, label, defect=None):
        em = [(omega0, g, x) for x in sites]

        def run():
            s, bands = self.solved[bath.name]
            arr = dressedgf.multi.EmitterArraySpec(tuple(
                dressedgf.dressed.EmitterSpec(omega0=omega0, g=g, site=x) for x in sites))
            roots = dressedgf.multi.det_f_roots(s, arr, bands)
            return roots, dressedgf.multi.effective_hamiltonian_many(s, arr, bands)

        def check(out):
            roots, ham = out
            h = checks.full_matrix(bath.matrix(), em)
            w = bath.width
            exact = self.exact(bath, h, ("m",) + tuple(em))
            fails = bath.gap_count(roots, exact, "det F roots")
            fails += checks.effective_levels(np.linalg.eigvalsh(ham.matrix), exact, omega0,
                                             bath.regions(), _effective_tol(bath, omega0, g),
                                             "effective M=8")
            return fails

        return Job("M=8", label, run, check, defect)


def _edge_defect(bath, *sites):
    """The known defect a job on ``sites`` may hit: edge modes of the topological chain."""
    if bath.family == "ssh-topological" and any(
            min(x, bath.n - 1 - x) < EDGE_MODE_SITES for x in sites):
        return DEFECT_EDGE_STATES
    return None


def _near_edge(rng, bath):
    """omega0 on the gap side of an outer band edge, 1e-3..1e-9 of the width away."""
    lv = bath.levels()
    offset = bath.width * 10.0 ** rng.uniform(-9.0, -3.0)
    return float(lv[-1] + offset) if rng.uniform() < 0.5 else float(lv[0] - offset)


def emitter_sweep(seed, run_dir, scale=1.0):
    """Library sweep over baths with N = 400, each diagonalized once per run.

    The chain and both SSH chains take part in every pass; each pass has its
    own random graph, so a run averages over several graph realizations (the
    number of gaps the band detection finds, and with it the root-search
    cost, differs from one realization to the next).
    """
    rng = np.random.default_rng(seed)
    n = max(24, int(400 * scale))
    passes = max(1, round(4 * scale))
    fixed = [chain(n), ssh(n // 2, 1.0, 0.5), ssh(n // 2, 0.5, 1.0)]
    graphs = []
    for p in range(passes):
        graph = random_graph(n, rng)
        graph.name = f"random-{p}"
        graphs.append(graph)
    baths = fixed + graphs
    for bath in baths:
        bath.levels()
    run = SweepRun()
    prefix = [run.diag_job(b) for b in baths]
    cycle = []
    for graph in graphs:
        for bath in fixed + [graph]:
            g = float(rng.uniform(0.05, 0.3))
            site = _sites(rng, n, 1, 0, n)[0]
            cycle.append(run.m1_job(bath, _outside(rng, bath, 0.1, 1.0), g, site,
                                    f"{bath.name} outside", _edge_defect(bath, site)))
            site = _sites(rng, n, 1, 0, n)[0]
            cycle.append(run.m1_job(bath, _near_edge(rng, bath), g, site,
                                    f"{bath.name} near edge",
                                    _edge_defect(bath, site) or DEFECT_BAND_EDGE))
            if bath.family.startswith("ssh"):
                inner = bath.bands()[1][0]
                # in the bulk gap, on a node site of the left edge state (odd
                # sublattice) and on the even sublattice
                site = 2 * int(rng.integers(0, 8)) + 1
                cycle.append(run.m1_job(bath, float(rng.uniform(0.2, 0.8) * inner), g, site,
                                        f"{bath.name} gap node site", _edge_defect(bath, site)))
                site = 2 * int(rng.integers(n // 8, n // 4))
                cycle.append(run.m1_job(bath, float(-rng.uniform(0.2, 0.8) * inner), g, site,
                                        f"{bath.name} gap bulk site", _edge_defect(bath, site)))
            site = _sites(rng, n, 1, 0, n)[0]
            strength = float(rng.uniform(0.5, 2.0))
            cycle.append(run.impurity_job(bath, strength, site, f"{bath.name} repulsive",
                                          _edge_defect(bath, site)))
            cycle.append(run.impurity_job(bath, -strength, site, f"{bath.name} attractive",
                                          _edge_defect(bath, site)))
            # a vacancy leaves an odd-length chain, whose zero mode sits at omega_c
            cycle.append(run.impurity_job(bath, dressedgf.impurity.VACANCY, site,
                                          f"{bath.name} vacancy",
                                          DEFECT_EDGE_STATES
                                          if bath.family == "ssh-topological" else None))
            sites = _sites(rng, n, 2, spacing=int(rng.integers(1, 6)))
            cycle.append(run.m2_job(bath, _outside(rng, bath), 0.1, sites, f"{bath.name} M=2",
                                    DEFECT_TWO_LEVEL if bath.family == "random"
                                    else _edge_defect(bath, *sites)))
            sites = _sites(rng, n, 8)
            cycle.append(run.m8_job(bath, _outside(rng, bath), 0.1, sites, f"{bath.name} M=8",
                                    _edge_defect(bath, *sites)))
    # emitters at omega_c of the topological chain (bulk sites, both sublattices)
    topo = fixed[2]
    cycle.append(run.m1_job(topo, 0.0, 0.1, n // 3, "ssh omega_c bulk site", DEFECT_EDGE_STATES))
    cycle.append(run.m1_job(topo, 0.0, 0.1, n // 3 + 1, "ssh omega_c bulk node",
                            DEFECT_EDGE_STATES))
    cycle.append(run.m2_job(topo, 0.0, 0.1, [n // 2 - 1, n // 2 + 2], "ssh omega_c M=2",
                            DEFECT_EDGE_STATES))

    def warmup():
        tiny, bath = SweepRun(), chain(12)
        jobs = [tiny.diag_job(bath), tiny.m1_job(bath, 2.5, 0.1, 3, "warm"),
                tiny.impurity_job(bath, 1.0, 3, "warm"),
                tiny.impurity_job(bath, dressedgf.impurity.VACANCY, 3, "warm"),
                tiny.m2_job(bath, 2.5, 0.1, [3, 5], "warm"),
                tiny.m8_job(bath, 2.5, 0.1, list(range(2, 10)), "warm")]
        for job in jobs:
            job.run()

    return Workload(prefix, cycle, warmup)


WORKLOADS = {
    "cli-large": cli_large,
    "emitter-sweep": emitter_sweep,
    "oracle-scatter": oracle_scatter,
}
