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

from dataclasses import dataclass, replace

import numpy as np

from .bath import (
    BandStructure,
    Contact,
    SpectralData,
    _gamma_block,
    bath_green_element,
    default_delta,
    detect_bands,
    green_column,
)
from .errors import PoleError
from .impurity import (
    POLE_TOL,
    _bound_states,
    _contact_f,
    _contact_resolvent,
    _contact_scattering,
    _emitter_roots,
)

#: amplitude below this counts as a node of the wavefunction.
NODE_TOL = 1e-9


@dataclass(frozen=True)
class EmitterSpec:
    """Emitter frequency ``omega0``, coupling ``g > 0`` and contact ``site``."""

    omega0: float
    g: float
    site: int

    def __post_init__(self):
        if not (np.isfinite(self.omega0) and np.isfinite(self.g)):
            raise ValueError(f"omega0 and g must be finite, got {self.omega0} and {self.g}")
        if self.g <= 0:
            raise ValueError(f"coupling g must be positive, got {self.g}")

    def _contact(self, s: SpectralData) -> Contact:
        """F(z) = z/g**2 - omega0/g**2 - gamma, with amplitude 1/g on the emitter."""
        g2 = self.g ** 2
        return Contact(s, (self.site,), 1.0 / g2, -self.omega0 / g2, 1.0 / self.g)


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
    """F(z) = (z - omega0)/g**2 - <site|G_B(z)|site>; zeros are dressed poles.

    Evaluated in the contact form ``z/g**2 - omega0/g**2 - gamma`` that the
    root finder and the scattering core use.
    """
    gamma = bath_green_element(s, z, e.site, e.site)
    return complex(_contact_f(e._contact(s), complex(z), gamma))


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
    return _contact_resolvent(e._contact(s), z, "dressed")[0]


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
    return _contact_resolvent(replace(e._contact(s), amplitude=None), z, "field")[0]


def solve_dressed_bound_states(
    s: SpectralData,
    e: EmitterSpec,
    bands: BandStructure | None = None,
):
    """All discrete dressed states: in-gap roots of F plus the in-band VDS.

    F is strictly increasing between its poles, so each gap holds at most one
    root; the two half-infinite gaps are bounded using ``|root - omega0| <=
    g`` plus margin.  A vanishing bath Green function at ``(omega0, site)``
    makes ``omega0`` a state, the vacancy-dressed state (VDS), even inside a
    band, where the gap search cannot see it.  As F' >= 1/g**2, F's root next to
    ``omega0`` then lies within ``g**2 * NODE_TOL`` of it: ``omega0`` joins the
    roots unless a root lies that close.
    """
    if bands is None:
        bands = detect_bands(s)
    c = e._contact(s)
    roots = _emitter_roots(c, e.omega0, e.g, bands)
    # omega0 is a stationary point iff gamma(omega0) vanishes at the site
    try:
        vds = abs(complex(_gamma_block(c, complex(e.omega0))[0, 0])) < NODE_TOL
    except PoleError:
        vds = False
    if vds and all(abs(e.omega0 - r) >= e.g ** 2 * NODE_TOL for r in roots):
        roots = sorted(roots + [float(e.omega0)])
    # v[1 + site] * n is <site|G_B(x)|site>, the unnormalized photonic amplitude at the site
    return [BoundState(energy=float(x), atomic_amplitude=float(v[0].real), photonic=v[1:],
                       norm_factor=float(v[0].real), in_band=bands.in_band(x),
                       is_vds=bool(abs(x - e.omega0) < NODE_TOL
                                   and abs(v[1 + e.site] * n) < NODE_TOL))
            for x, v, n in zip(*_bound_states(c, roots))]


def dressed_scattering_state(
    s: SpectralData,
    e: EmitterSpec,
    k_index: int,
    delta: float | None = None,
) -> ScatteringState:
    """Scattering eigenstate built on bath mode ``k_index``.

    The branch is decided by F at the real mode energy: a genuine pole of F
    there (the generic case) or any value in modulus above the engine's
    ``impurity.NODE_TOL`` takes the regular branch, evaluated at ``energy +
    1j*delta``; F vanishing at the mode energy means the mode cannot couple
    and passes through as an exact eigenstate with zero atomic amplitude.
    """
    if delta is None:
        delta = default_delta(s)
    (_, omega, regular, states), = _contact_scattering(e._contact(s), [k_index], delta)
    return ScatteringState(
        k_index=k_index, energy=float(omega[0]), vector=states[:, 0], regular=bool(regular[0]),
        residual=float(_scattering_residuals(s, e, omega, states)[0]), delta=float(delta),
    )


def scattering_scalars(s: SpectralData, e: EmitterSpec, k_indices, delta: float | None = None):
    """Energy, atomic amplitude, regular flag and residual of many scattering states.

    Returns four arrays over ``k_indices``.  The states are those of
    :func:`dressed_scattering_state`, built chunk by chunk and dropped once
    their scalars are taken, so memory stays O(N * chunk) for any number of
    modes; results agree with the single-mode function to rounding.
    """
    if delta is None:
        delta = default_delta(s)
    n = len(k_indices)
    energy, residual = np.empty(n), np.empty(n)
    amplitude, regular = np.empty(n, dtype=np.complex128), np.empty(n, dtype=bool)
    start = 0
    for ks, omega, reg, states in _contact_scattering(e._contact(s), k_indices, delta):
        part = slice(start, start + ks.size)
        energy[part], amplitude[part], regular[part] = omega, states[0], reg
        residual[part] = _scattering_residuals(s, e, omega, states)
        start = part.stop
    return energy, amplitude, regular, residual


def _scattering_residuals(s, e, omega, states) -> np.ndarray:
    """``||H v - omega v||`` per column over ``[e, x_0..x_{N-1}]``, H applied from the spec.

    The bath part comes from the edge list, the emitter row and column in
    closed form; nothing here uses the eigendecomposition being checked.
    """
    atom, photonic = states[0], states[1:]
    r = np.empty_like(states)
    r[1:] = s.source.apply(photonic) - omega * photonic
    r[1 + e.site] += e.g * atom
    r[0] = (e.omega0 - omega) * atom + e.g * photonic[e.site]
    return np.linalg.norm(r, axis=0)


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
