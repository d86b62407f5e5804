"""Brute-force reference results for the coupled emitter-bath problem.

Everything here goes through the dense Hamiltonian in the single-excitation
basis ``[e_1..e_M, x_0..x_{N-1}]`` and plain LAPACK calls.  None of the
resolvent-formula evaluators are used to produce oracle numbers, so agreement
between the two paths is evidence rather than tautology; the one piece both
share is the dense product ``V (z - Lambda)^-1 V^H``, applied to the full
eigensystem here and to the bath's on the formula side.  :func:`compare` is
the orchestrator that runs both sides against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, _dense_eigh, _fix_phases, _spectral_sum
from .errors import PoleError


@dataclass(frozen=True, eq=False)
class CheckResult:
    name: str
    error: float
    tol: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "all_passed": bool(self.all_passed),
            "checks": [
                {
                    "name": c.name,
                    "error": float(c.error),
                    "tol": float(c.tol),
                    "passed": bool(c.passed),
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _as_emitters(emitters):
    try:
        return tuple(emitters.emitters)
    except AttributeError:
        return tuple(emitters)


def build_full_hamiltonian(spec: BathSpec, emitters) -> np.ndarray:
    """Dense Hamiltonian over ``[e_1..e_M, x_0..x_{N-1}]``.

    Assembled directly from the raw spec fields.  ``emitters`` is an emitter
    array spec or any sequence of emitter specs.
    """
    ems = _as_emitters(emitters)
    n = spec.n_sites
    m = len(ems)
    seen = set()
    for e in ems:
        if not (0 <= e.site < n):
            raise ValueError(f"emitter site {e.site} out of range 0..{n - 1}")
        if e.site in seen:
            raise ValueError(f"two emitters on site {e.site}")
        seen.add(e.site)
    h = np.zeros((m + n, m + n), dtype=np.complex128)
    for x in range(n):
        h[m + x, m + x] = spec.frequencies[x]
    for x, xp, amp in spec.hoppings:
        h[m + x, m + xp] += amp
        h[m + xp, m + x] += np.conj(amp)
    for i, e in enumerate(ems):
        h[i, i] = e.omega0
        h[i, m + e.site] = e.g
        h[m + e.site, i] = e.g
    return h


def _eigensystem(h: np.ndarray):
    evals, evecs = _dense_eigh(h)
    return np.ascontiguousarray(evals, dtype=np.float64), _fix_phases(evecs)


def exact_eigensystem(spec: BathSpec, emitters):
    """Eigenvalues and phase-fixed eigenvectors of the full Hamiltonian."""
    return _eigensystem(build_full_hamiltonian(spec, emitters))


def _check_shift(evals: np.ndarray, z: complex) -> None:
    """Refuse a shift ``z`` numerically on an eigenvalue of Hermitian H.

    The singular values of ``z - H`` are ``|z - lambda_k|``, so its 2-norm
    condition number is max|z - lambda| / min|z - lambda| exactly; shifts
    above 1e14 are refused.
    """
    dist = np.abs(z - evals)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = dist.max() / dist.min()
    if not np.isfinite(cond) or cond > 1e14:
        raise PoleError(f"z={z} is numerically at an eigenvalue (cond={cond:.3e})")


def _spectral_resolvent(evals: np.ndarray, evecs: np.ndarray, z: complex) -> np.ndarray:
    """``(z - H)^-1 = U (z - Lambda)^-1 U^H`` from an eigensystem of H."""
    z = complex(z)
    _check_shift(evals, z)
    return _spectral_sum(evecs, evals, z)


def direct_resolvent(spec: BathSpec, emitters, z: complex) -> np.ndarray:
    """``(z - H)^-1`` by dense linear solve; refuses nearly singular shifts."""
    h = build_full_hamiltonian(spec, emitters)
    z = complex(z)
    _check_shift(_dense_eigh(h, vectors=False), z)
    shifted = z * np.eye(h.shape[0], dtype=np.complex128) - h
    return np.linalg.solve(shifted, np.eye(h.shape[0], dtype=np.complex128))


DEFAULT_CHECKS = (
    "resolvent_identity",
    "bound_state_energies",
    "bound_state_fidelity",
    "normalization",
    "scattering_residuals",
    "two_atom_poles",
)


def compare(
    spec: BathSpec,
    emitters,
    checks=None,
    rng=None,
    num_z: int = 20,
    tol: float = 1e-9,
    delta: float | None = None,
    gap_factor: float = 5.0,
) -> ComparisonReport:
    """Cross-check the resolvent-formula evaluators against dense references.

    Runs every applicable named check (single-emitter checks only fire for
    M=1, the two-atom pole check for M=2) and aggregates the max abs errors
    into a machine-readable report.  ``num_z`` must be an integer >= 1 and
    ``tol`` positive and finite; ValueError otherwise.
    """
    from . import bath as _bath, dressed as _dressed, multi as _multi

    ems = _as_emitters(emitters)
    if not ems:
        raise ValueError("emitter list must not be empty")
    if checks is None:
        checks = DEFAULT_CHECKS
    else:
        unknown = set(checks) - set(DEFAULT_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
    if isinstance(num_z, bool) or not isinstance(num_z, (int, np.integer)) or num_z < 1:
        raise ValueError(f"num_z must be an integer >= 1, got {num_z!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if rng is None:
        rng = np.random.default_rng(0)

    s = _bath.diagonalize_bath(spec)
    bands = _bath.detect_bands(s, gap_factor)
    arr = _multi.EmitterArraySpec(emitters=ems)
    # one dense Hamiltonian and one diagonalization serve every check
    h = build_full_hamiltonian(spec, ems)
    evals, evecs = _eigensystem(h)
    in_gap_mask = np.array([bands.in_gap(w) for w in evals])
    results = []

    def in_gap_levels(name, found, detail, extra=()):
        """Count ``found`` against the dense in-gap levels, then their largest
        deviation; ``extra`` deviations join it."""
        ref = evals[in_gap_mask]
        if len(found) != ref.shape[0]:
            return CheckResult(name, math.inf, tol, False,
                               f"count mismatch: solver {len(found)} vs oracle {ref.shape[0]}")
        err = max([*(abs(a - b) for a, b in zip(found, ref)), *extra], default=0.0)
        return CheckResult(name, float(err), tol, err < tol, detail)

    if "resolvent_identity" in checks:
        width = max(s.spectral_width, 1.0)
        err = 0.0
        for _ in range(num_z):
            re = rng.uniform(s.eigenvalues[0] - 0.5 * width, s.eigenvalues[-1] + 0.5 * width)
            im = rng.uniform(0.05 * width, 0.5 * width) * rng.choice([-1.0, 1.0])
            z = complex(re, im)
            diff = _multi.multi_green(s, arr, z)
            diff -= _spectral_resolvent(evals, evecs, z)
            err = max(err, float(np.max(np.abs(diff))))
        results.append(CheckResult("resolvent_identity", err, tol, err < tol,
                                   f"{num_z} random z"))

    solved = None
    if len(ems) == 1 and {"bound_state_energies", "bound_state_fidelity",
                          "normalization"} & set(checks):
        solved = _dressed.solve_dressed_bound_states(s, ems[0], bands)

    if "bound_state_energies" in checks and len(ems) == 1:
        # in-band stationary states (VDS) have no gap partner; they must
        # still sit on an eigenvalue of the full Hamiltonian
        results.append(in_gap_levels(
            "bound_state_energies", [b.energy for b in solved if not b.in_band],
            f"{len(solved)} states",
            (float(np.min(np.abs(evals - b.energy))) for b in solved if b.in_band)))

    if "bound_state_fidelity" in checks and len(ems) == 1:
        err = 0.0
        for b in solved:
            # project onto the full-spectrum eigencluster: in-band stationary
            # states are degenerate with bath modes and need the whole cluster
            close = np.abs(evals - b.energy) < 1e-7
            if not close.any():
                err = math.inf
                break
            sub = evecs[:, close]
            overlap = np.linalg.norm(np.conj(sub.T) @ b.vector())
            err = max(err, 1.0 - float(overlap))
        results.append(CheckResult("bound_state_fidelity", err, tol, err < tol,
                                   f"{len(solved)} states"))

    if "normalization" in checks and len(ems) == 1:
        err = max((abs(np.linalg.norm(b.vector()) - 1.0) for b in solved), default=0.0)
        results.append(CheckResult("normalization", float(err), 1e-10, err < 1e-10,
                                   f"{len(solved)} states"))

    if "scattering_residuals" in checks and len(ems) == 1:
        # only the residuals are kept: the states go chunk by chunk
        residuals = _dressed.scattering_scalars(s, ems[0], range(s.n_sites), delta)[3]
        err = max([0.0, *residuals.tolist()])
        stol = 1e-5
        results.append(CheckResult("scattering_residuals", err, stol, err < stol,
                                   f"{s.n_sites} modes"))

    if "two_atom_poles" in checks and len(ems) == 2:
        poles = _multi.solve_two_atom_poles(s, arr, bands)
        results.append(in_gap_levels("two_atom_poles", poles.roots,
                                     f"{len(poles.roots)} roots"))

    return ComparisonReport(checks=tuple(results))
