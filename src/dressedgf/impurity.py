"""Single static impurity in a finite bath: resolvent, bound and scattering states.

The impurity adds ``strength * |site><site|`` to the bath Hamiltonian.  All
results come from the rank-one update of the bare resolvent by a contact at
``site`` with pole function ``f(z)``: ``f = 1/strength - <site|G_B|site>``
here, ``f = -<site|G_B|site>`` in the vacancy (infinite-strength) limit.  An
emitter is the same contact with an energy-dependent strength, so
:mod:`dressedgf.dressed` builds on the contact helpers of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _roots
from .bath import (
    BandStructure,
    SpectralData,
    _check_sites,
    bath_green_element,
    bath_green_squared_element,
    default_delta,
    detect_bands,
    green_column,
    green_row,
    green_matrix,
)
from .errors import PoleError, RegimeError

#: Sentinel strength for the infinite-repulsion (deleted-site) impurity.
VACANCY = math.inf

POLE_TOL = 1e-13
NODE_TOL = 1e-10


@dataclass(frozen=True)
class ImpuritySpec:
    """Impurity location and strength; ``strength=VACANCY`` deletes the site."""

    site: int
    strength: float

    @property
    def is_vacancy(self) -> bool:
        return math.isinf(self.strength)


@dataclass(frozen=True, eq=False)
class ImpurityBoundState:
    """Photonic bound state split off by the impurity."""

    energy: float
    wavefunction: np.ndarray
    norm_factor: float
    residue_trace: float


@dataclass(frozen=True, eq=False)
class ImpurityScatteringState:
    k_index: int
    energy: float
    vector: np.ndarray
    regular: bool
    residual: float


def impurity_state(s: SpectralData, spec: ImpuritySpec, z: complex) -> np.ndarray:
    """Unnormalized state ``(z - H_B)^-1 |site>``; strength plays no role here."""
    return green_column(s, z, spec.site)


def impurity_pole_function(s: SpectralData, spec: ImpuritySpec, z: complex) -> complex:
    """f(z) = 1/strength - <site|(z - H_B)^-1|site>; its zeros are the impurity poles."""
    if spec.is_vacancy:
        raise RegimeError("vacancy impurity: pole function degenerates, use vacancy_green")
    if spec.strength == 0.0:
        raise RegimeError("zero impurity strength has no pole function")
    return 1.0 / spec.strength - bath_green_element(s, z, spec.site, spec.site)


def _contact_green(s: SpectralData, site: int, z: complex, f: complex):
    """Rank-one contact resolvent ``G_B + G_B|site><site|G_B / f``.

    Returns the matrix together with the column ``G_B|site>`` and the row
    ``<site|G_B`` it was built from.
    """
    psi = green_column(s, z, site)
    row = green_row(s, z, site)
    return green_matrix(s, z) + np.outer(psi, row) / f, psi, row


def _contact_scattering(s: SpectralData, site: int, k_index: int, delta: float, f, node_tol):
    """Scattering branch of a contact at ``site`` with pole function ``f(z)``.

    ``f`` at the real energy omega of bath mode ``k_index`` decides: below
    ``node_tol`` in modulus the mode cannot couple and passes through
    untouched; a genuine pole of f there, or any larger value, takes the
    regular branch ``mode + coupling * G_B(z)|site>`` with ``coupling =
    mode[site] / f(z)`` at ``z = omega + 1j*delta``.  Returns ``(omega,
    regular, coupling, vector)``; the coupling of an untouched mode is 0.
    """
    if not (0 <= k_index < s.n_sites):
        raise ValueError(f"k_index {k_index} out of range")
    omega = float(s.eigenvalues[k_index])
    mode = np.array(s.eigenvectors[:, k_index])
    try:
        f_real = f(complex(omega))
    except PoleError:
        f_real = None  # genuine pole of f at omega: the regular branch applies
    if f_real is not None and abs(f_real) < node_tol:
        return omega, False, 0.0, mode
    z = omega + 1j * delta
    coupling = mode[site] / f(z)
    return omega, True, coupling, mode + coupling * green_column(s, z, site)


def _contact_roots(s: SpectralData, site: int, slope, offset, intervals, n_grid, xtol):
    """Roots of ``slope*w + offset - <site|G_B(w)|site>`` on ``intervals``."""
    _check_sites(s, site)
    weights = np.abs(s.eigenvectors[site, :]) ** 2
    keep = weights > 1e-24
    return _roots.contact_roots(
        weights[keep][None, None], s.eigenvalues[keep], slope, offset, intervals, n_grid, xtol
    )


def impurity_green(s: SpectralData, spec: ImpuritySpec, z: complex) -> np.ndarray:
    """Resolvent of bath plus impurity via the rank-one update of G_B.

    For finite strength this is ``G_B + |psi(z)><site|G_B / f(z)`` with
    ``psi(z) = G_B(z)|site>``; the vacancy limit delegates to
    :func:`vacancy_green`.
    """
    if spec.is_vacancy:
        return vacancy_green(s, spec.site, z)
    if spec.strength == 0.0:
        return green_matrix(s, z)
    f = impurity_pole_function(s, spec, z)
    if abs(f) < POLE_TOL:
        raise PoleError(f"f(z)={f:.3e} at z={z}: impurity resolvent pole")
    return _contact_green(s, spec.site, z, f)[0]


def vacancy_green(s: SpectralData, site: int, z: complex) -> np.ndarray:
    """Infinite-strength limit: resolvent of the bath with ``site`` removed.

    The contact resolvent with ``f = -gamma``, ``gamma = <site|G_B|site>``;
    the row and column at ``site`` vanish identically and the rest equals the
    resolvent of the deleted-site bath.
    """
    gamma = bath_green_element(s, z, site, site)
    if abs(gamma) < POLE_TOL:
        raise PoleError(f"<site|G_B|site>={gamma:.3e} at z={z}: vacancy resolvent pole")
    out = _contact_green(s, site, z, -gamma)[0]
    # The projected row/col are exact zeros up to roundoff; pin them.
    out[site, :] = 0.0
    out[:, site] = 0.0
    return out


def solve_impurity_bound_state(
    s: SpectralData,
    spec: ImpuritySpec,
    bands: BandStructure | None = None,
    n_grid: int = 512,
    xtol: float = 1e-12,
):
    """All in-gap bound states of the impurity problem.

    Scans each gap of the band structure on a grid, brackets sign changes of
    the monotone pole function and bisects.  For finite strength the single
    out-of-band root (above for repulsive, below for attractive) is included;
    the vacancy spectrum interlaces the bath one, so it has no tail roots.
    """
    if bands is None:
        bands = detect_bands(s)
    if not spec.is_vacancy and spec.strength == 0.0:
        return []
    offset = 0.0 if spec.is_vacancy else 1.0 / spec.strength
    # the tail root sits below the bands when attractive, above when repulsive
    v = spec.strength
    intervals = _roots.gap_intervals(
        bands,
        None if spec.is_vacancy or v > 0.0 else float(s.eigenvalues[0]) - abs(v) - 1.0,
        None if spec.is_vacancy or v < 0.0 else float(s.eigenvalues[-1]) + v + 1.0,
    )
    states = []
    for w in _contact_roots(s, spec.site, 0.0, offset, intervals, n_grid, xtol):
        g2 = bath_green_squared_element(s, w, spec.site, spec.site).real
        if g2 <= 0.0:
            continue
        norm_factor = 1.0 / math.sqrt(g2)
        psi = green_column(s, w, spec.site)
        wavefunction = norm_factor * psi
        residue_trace = float(np.vdot(psi, psi).real / g2)
        states.append(ImpurityBoundState(
            energy=float(w),
            wavefunction=wavefunction,
            norm_factor=norm_factor,
            residue_trace=residue_trace,
        ))
    return states


def impurity_scattering_state(
    s: SpectralData,
    spec: ImpuritySpec,
    k_index: int,
    delta: float | None = None,
) -> ImpurityScatteringState:
    """Scattering eigenstate built on bath mode ``k_index``.

    Regular modes pick up the T-matrix correction evaluated just above the
    real axis; modes where f vanishes (a node of the mode at the impurity
    site, with the right energy) pass through untouched.
    """
    if delta is None:
        delta = default_delta(s)

    def f(z):
        # 1/strength - gamma: -gamma for the vacancy, and without an impurity
        # f is infinite, so every mode stays regular and untouched
        if spec.strength == 0.0:
            return math.inf
        gamma = bath_green_element(s, z, spec.site, spec.site)
        return -gamma if spec.is_vacancy else 1.0 / spec.strength - gamma

    omega, regular, _, vector = _contact_scattering(s, spec.site, k_index, delta, f, NODE_TOL)
    residual = _scattering_residual(s, spec, omega, vector)
    return ImpurityScatteringState(
        k_index=k_index, energy=omega, vector=vector, regular=regular, residual=residual
    )


def _scattering_residual(s, spec, omega, vector):
    """``||H v - omega v||`` with the bath applied from the spec's edge list."""
    r = s.source.apply(vector) - omega * vector
    if spec.is_vacancy:
        # The vacancy state lives on the deleted lattice: measure the residual
        # away from the removed site.
        r[spec.site] = 0.0
    else:
        r[spec.site] += spec.strength * vector[spec.site]
    return float(np.linalg.norm(r))
