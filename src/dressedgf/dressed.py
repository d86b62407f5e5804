"""One emitter coupled to a bath site: dressed resolvent and its states.

The emitter adds one level at ``omega0`` coupled with amplitude ``g`` to a
single bath site.  On the bath it acts as an impurity of energy-dependent
strength ``g**2 / (z - omega0)``, so everything follows from the rank-one
contact of :mod:`dressedgf.impurity` with pole function F in place of f: F
pins bound states, its regularized boundary values build scattering states,
and the vacancy-dressed states (VDS) appear wherever the bath Green function
develops a node at the contact site.

Vectors over the coupled space are ordered ``[e, x_0 .. x_{N-1}]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _roots
from .bath import (
    BandStructure,
    SpectralData,
    bath_green_element,
    bath_green_squared_element,
    default_delta,
    detect_bands,
    green_column,
)
from .errors import PoleError
from .impurity import _contact_green, _contact_roots, _contact_scattering

POLE_TOL = 1e-13
#: |F| below this at a real mode energy sends the mode through untouched.
F_NODE_TOL = 1e-10
#: amplitude below this counts as a node of the wavefunction.
NODE_TOL = 1e-9


@dataclass(frozen=True)
class EmitterSpec:
    """Emitter frequency ``omega0``, coupling ``g > 0`` and contact ``site``."""

    omega0: float
    g: float
    site: int

    def __post_init__(self):
        if self.g <= 0:
            raise ValueError(f"coupling g must be positive, got {self.g}")


@dataclass(frozen=True, eq=False)
class DressedStateFunction:
    """Unnormalized pole-channel state ``(1/g)|e> + G_B(z)|site>``."""

    z: complex
    atomic_amplitude: complex
    photonic: np.ndarray
    f_value: complex

    def vector(self) -> np.ndarray:
        return np.concatenate(([self.atomic_amplitude], self.photonic))


@dataclass(frozen=True, eq=False)
class BoundState:
    """Normalized dressed bound state.

    ``in_band`` marks a stationary state sitting inside a band (only possible
    at a VDS energy); ``is_vds`` marks a node of the photonic part at the
    contact site together with energy ``omega0``.
    """

    energy: float
    atomic_amplitude: float
    photonic: np.ndarray
    norm_factor: float
    in_band: bool
    is_vds: bool

    def vector(self) -> np.ndarray:
        return np.concatenate(([self.atomic_amplitude], self.photonic))


@dataclass(frozen=True, eq=False)
class ScatteringState:
    k_index: int
    energy: float
    vector: np.ndarray
    regular: bool
    residual: float
    delta: float

    @property
    def atomic_amplitude(self) -> complex:
        return complex(self.vector[0])

    @property
    def photonic(self) -> np.ndarray:
        return self.vector[1:]


@dataclass(frozen=True, eq=False)
class VDSClassification:
    is_vds: bool
    kind: str  # "bound" | "unbound" | "none"
    witness: np.ndarray | None
    node_amplitude: float | None
    detail: str = ""


def self_potential(e: EmitterSpec, z: complex) -> complex:
    """Energy-dependent strength ``g**2 / (z - omega0)`` the emitter exerts on its site."""
    d = complex(z) - e.omega0
    if abs(d) < POLE_TOL:
        raise PoleError(f"self potential diverges at z={z}")
    return e.g ** 2 / d

def self_energy(s: SpectralData, e: EmitterSpec, z: complex) -> complex:
    """Bath back-action on the emitter, ``g**2 <site|G_B(z)|site>``."""
    return e.g ** 2 * bath_green_element(s, z, e.site, e.site)


def pole_function_F(s: SpectralData, e: EmitterSpec, z: complex) -> complex:
    """F(z) = (z - omega0)/g**2 - <site|G_B(z)|site>; zeros are dressed poles."""
    return (complex(z) - e.omega0) / e.g ** 2 - bath_green_element(s, z, e.site, e.site)


def dressed_state_function(s: SpectralData, e: EmitterSpec, z: complex) -> DressedStateFunction:
    """The unnormalized state carrying the emitter pole channel at ``z``."""
    return DressedStateFunction(
        z=complex(z),
        atomic_amplitude=1.0 / e.g,
        photonic=green_column(s, z, e.site),
        f_value=pole_function_F(s, e, z),
    )


def dressed_green(s: SpectralData, e: EmitterSpec, z: complex) -> np.ndarray:
    """Full resolvent of emitter plus bath over ``[e, x_0..x_{N-1}]``.

    The photonic block is :func:`field_green`; the emitter row and column are
    the pole channel ``(1/g)|e> + G_B(z)|site>`` and its row partner
    ``(1/g)<e| + <site|G_B(z)`` over F(z).  For complex z the row partner is
    not the conjugate of the ket; it is what keeps (z - H)G = 1.
    """
    f = pole_function_F(s, e, z)
    if abs(f) < POLE_TOL:
        raise PoleError(f"F(z)={f:.3e} at z={z}: dressed resolvent pole")
    n = s.n_sites
    out = np.empty((n + 1, n + 1), dtype=np.complex128)
    out[1:, 1:], psi, row = _contact_green(s, e.site, z, f)
    c = 1.0 / e.g
    out[0, :] = c * np.concatenate(([c], row)) / f
    out[1:, 0] = psi * c / f
    return out


def excitonic_green(s: SpectralData, e: EmitterSpec, z: complex) -> complex:
    """Emitter-sector resolvent ``1/(z - omega0 - self_energy)``."""
    d = complex(z) - e.omega0 - self_energy(s, e, z)
    if abs(d) < POLE_TOL:
        raise PoleError(f"excitonic pole at z={z}")
    return 1.0 / d


def field_green(s: SpectralData, e: EmitterSpec, z: complex) -> np.ndarray:
    """Field-sector resolvent: the bath dressed by the emitter's self potential.

    Identical to the photonic block of :func:`dressed_green`; the emitter acts
    on the bath as an impurity of strength :func:`self_potential`.
    """
    f = pole_function_F(s, e, z)
    if abs(f) < POLE_TOL:
        raise PoleError(f"F(z)={f:.3e} at z={z}: field resolvent pole")
    return _contact_green(s, e.site, z, f)[0]


def _vds_candidate(s: SpectralData, e: EmitterSpec):
    """Energy omega0 is a stationary point iff gamma(omega0) vanishes there."""
    try:
        gamma = bath_green_element(s, complex(e.omega0), e.site, e.site)
    except PoleError:
        return None
    if abs(gamma) < NODE_TOL:
        return float(e.omega0)
    return None


def _build_bound_state(s, e, omega, bands) -> BoundState:
    g2 = bath_green_squared_element(s, omega, e.site, e.site).real
    norm_factor = 1.0 / math.sqrt(1.0 + e.g ** 2 * g2)
    psi = green_column(s, omega, e.site)
    gamma = psi[e.site]
    is_vds = abs(omega - e.omega0) < NODE_TOL and abs(gamma) < NODE_TOL
    return BoundState(
        energy=float(omega),
        atomic_amplitude=norm_factor,
        photonic=norm_factor * e.g * psi,
        norm_factor=norm_factor,
        in_band=bands.in_band(omega),
        is_vds=is_vds,
    )


def solve_dressed_bound_states(
    s: SpectralData,
    e: EmitterSpec,
    bands: BandStructure | None = None,
    n_grid: int = 64,
    xtol: float = 1e-12,
):
    """All discrete dressed states: in-gap roots of F plus the in-band VDS.

    F is strictly increasing between its poles, so bracketing the gap
    subintervals (split additionally at ``omega0``) finds every root; the two
    half-infinite gaps are bounded using ``|root - omega0| <= g`` plus margin.
    A vanishing bath Green function at ``(omega0, site)`` adds the
    vacancy-dressed state even when ``omega0`` lies inside a band, where the
    gap scan cannot see it.
    """
    if bands is None:
        bands = detect_bands(s)
    intervals = _roots.gap_intervals(
        bands,
        min(e.omega0, float(s.eigenvalues[0])) - e.g - 1.0,
        max(e.omega0, float(s.eigenvalues[-1])) + e.g + 1.0,
        split=e.omega0,
    )
    g2 = e.g ** 2
    roots = _contact_roots(s, e.site, 1.0 / g2, -e.omega0 / g2, intervals, n_grid, xtol)
    vds = _vds_candidate(s, e)
    if vds is not None and all(abs(vds - r) > 10 * xtol for r in roots):
        roots = sorted(roots + [vds])
    return [_build_bound_state(s, e, w, bands) for w in roots]


def dressed_scattering_state(
    s: SpectralData,
    e: EmitterSpec,
    k_index: int,
    delta: float | None = None,
) -> ScatteringState:
    """Scattering eigenstate built on bath mode ``k_index``.

    The branch is decided by F at the real mode energy: a genuine pole of F
    there (the generic case) or any value in modulus above ``F_NODE_TOL``
    takes the regular branch, evaluated at ``energy + 1j*delta``; F vanishing
    at the mode energy means the mode cannot couple and passes through as an
    exact eigenstate with zero atomic amplitude.
    """
    if delta is None:
        delta = default_delta(s)
    omega, regular, coupling, photonic = _contact_scattering(
        s, e.site, k_index, delta, lambda z: pole_function_F(s, e, z), F_NODE_TOL
    )
    vector = np.concatenate(([coupling * (1.0 / e.g)], photonic))
    residual = _scattering_residual(s, e, omega, vector)
    return ScatteringState(
        k_index=k_index, energy=omega, vector=vector, regular=regular,
        residual=residual, delta=float(delta),
    )


def _scattering_residual(s, e, omega, vector) -> float:
    """``||H v - omega v||`` over ``[e, x_0..x_{N-1}]``, with H applied from the spec.

    The bath part comes from the edge list, the emitter row and column in
    closed form; nothing here uses the eigendecomposition being checked.
    """
    atom, photonic = vector[0], vector[1:]
    r = s.source.apply(photonic) - omega * photonic
    r[e.site] += e.g * atom
    r_atom = (e.omega0 - omega) * atom + e.g * photonic[e.site]
    return float(np.linalg.norm(np.concatenate(([r_atom], r))))


def classify_vds(
    s: SpectralData,
    e: EmitterSpec,
    bands: BandStructure | None = None,
    delta: float | None = None,
) -> VDSClassification:
    """Decide whether the emitter supports a vacancy-dressed state.

    ``kind="bound"`` when the bath Green function vanishes at
    ``(omega0, site)``: the photonic part then equals the vacancy bound state
    of the deleted-site problem and carries a node at the contact site.
    ``kind="unbound"`` when ``omega0`` lies inside a band: the scattering
    state built on the nearest mode acquires an exact node at the site.
    """
    if bands is None:
        bands = detect_bands(s)
    if delta is None:
        delta = default_delta(s)
    try:
        gamma0 = bath_green_element(s, complex(e.omega0), e.site, e.site)
    except PoleError:
        return VDSClassification(
            is_vds=False, kind="none", witness=None, node_amplitude=None,
            detail="omega0 collides with a coupled bath mode",
        )

    if abs(gamma0) < NODE_TOL:
        psi = green_column(s, complex(e.omega0), e.site)
        norm = np.linalg.norm(psi)
        if norm == 0.0:
            return VDSClassification(False, "none", None, None, "empty photonic part")
        witness = psi / norm
        node = float(abs(witness[e.site]))
        return VDSClassification(
            is_vds=node < NODE_TOL, kind="bound", witness=witness,
            node_amplitude=node, detail="gamma(omega0) = 0",
        )

    if bands.in_band(e.omega0):
        z = e.omega0 + 1j * delta
        gamma_z = bath_green_element(s, z, e.site, e.site)
        k0 = int(np.argmin(np.abs(s.eigenvalues - e.omega0)))
        mode = s.eigenvectors[:, k0]
        psi = green_column(s, z, e.site)
        witness = mode - (mode[e.site] / gamma_z) * psi
        node = float(abs(witness[e.site]))
        return VDSClassification(
            is_vds=node < 1e-8, kind="unbound", witness=witness,
            node_amplitude=node, detail=f"built on mode {k0}",
        )

    return VDSClassification(
        is_vds=False, kind="none", witness=None,
        node_amplitude=float(abs(gamma0)), detail="gamma(omega0) != 0 in a gap",
    )
