"""Single static impurity in a finite bath, and the contact engine behind every model.

The impurity adds ``strength * |site><site|`` to the bath Hamiltonian: a
rank-one contact at ``site`` with pole function ``f = 1/strength -
<site|G_B|site>`` (``-<site|G_B|site>`` for the vacancy).  An emitter is the
same contact with an energy-dependent strength, M emitters a contact on M
sites.  The engine pieces here take one :class:`dressedgf.bath.Contact`,
built once per call; :mod:`dressedgf.dressed` and :mod:`dressedgf.multi`
wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, _roots
from .bath import (
    BandStructure,
    Contact,
    SpectralData,
    _coinciding_modes,
    _gamma_block,
    _green_columns,
    bath_green_element,
    default_delta,
    detect_bands,
    green_column,
    green_matrix,
)
from .errors import PoleError, RegimeError

#: Sentinel strength for the infinite-repulsion (deleted-site) impurity.
VACANCY = math.inf

#: A contact resolvent is a pole where F's smallest singular value is below
#: POLE_TOL or its condition number above COND_LIMIT.
POLE_TOL = 1e-13
COND_LIMIT = 1e13
#: |f| below this at a mode's real energy sends the mode through untouched.
NODE_TOL = 1e-10
#: Modes per batch of the scattering core: its temporaries stay O(N * chunk).
SCATTER_CHUNK = 32


@dataclass(frozen=True)
class ImpuritySpec:
    """Impurity location and strength; ``strength=VACANCY`` deletes the site."""

    site: int
    strength: float

    def __post_init__(self):
        if math.isnan(self.strength):
            raise ValueError("impurity strength must not be NaN; use VACANCY for a deleted site")

    @property
    def is_vacancy(self) -> bool:
        return math.isinf(self.strength)

    def _contact(self, s: SpectralData) -> Contact:
        """Slope 0 and offset 1/strength: 0 for the vacancy, infinite without an
        impurity, so that every mode stays regular with zero coupling."""
        if self.is_vacancy:
            return Contact(s, (self.site,))
        return Contact(s, (self.site,), 0.0,
                       math.inf if self.strength == 0.0 else 1.0 / self.strength)


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


def _contact_f(c: Contact, z, gamma):
    """Contact pole function ``slope*z + offset - gamma`` at a scalar or an array ``z``.

    Real and imaginary parts are formed apart, so a batch of points gives
    the bits each point gives alone.
    """
    re = c.slope * np.real(z) + c.offset - np.real(gamma)
    return re + 1j * (c.slope * np.imag(z) - np.imag(gamma))


def _pole_matrix(c: Contact, z, gam) -> np.ndarray:
    """F = (slope*z + offset) - Gamma_S; the diagonal is :func:`_contact_f`, as for one site."""
    f = -gam
    diag = np.diag_indices(gam.shape[-1])
    f[diag] = _contact_f(c, z, gam[diag])
    return f


def _contact_resolvent(c: Contact, z: complex, what: str, gam=None, keep_base: bool = False):
    """Resolvent ``G_B + kets F(z)^-1 bras`` of the contact ``c``, in one buffer.

    Kets and bras are the buffer's columns and rows; an ``amplitude`` puts
    them on ``e_i`` of ``[e_1..e_M, x_0..]``.  ``gam`` is Gamma_S(z) if held.
    Returns ``(green, kets, bras, base)``, ``base`` the padded G_B(z) if
    ``keep_base``; PoleError naming ``what`` where F is singular.
    """
    s, sites = c.bath, c.sites
    if gam is None:
        gam = _gamma_block(c, z)
    fm = _pole_matrix(c, z, gam)
    sv = np.linalg.svd(fm, compute_uv=False) if np.all(np.isfinite(fm)) else [np.nan]
    if not (sv[-1] >= POLE_TOL and sv[0] <= COND_LIMIT * sv[-1]):
        raise PoleError(f"F(z) numerically singular at z={z} (smallest singular value"
                        f" {sv[-1]:.3e}, largest {sv[0]:.3e}): {what} resolvent pole")
    m = len(sites)
    e = 0 if c.amplitude is None else m
    green = np.zeros((e + s.n_sites, e + s.n_sites), dtype=np.complex128)
    green[e:, e:] = green_matrix(s, z)
    base = green.copy() if keep_base else None
    kets = green[:, [e + x for x in sites]]
    bras = green[[e + x for x in sites], :]
    if e:
        kets[range(m), range(m)] = bras[range(m), range(m)] = c.amplitude
    green += kets @ np.linalg.solve(fm, bras)
    return green, kets, bras, base


def _contact_kets(c: Contact, w: complex) -> np.ndarray:
    """Kets ``G_B(w)|x_i>``, the bath's columns; an ``amplitude`` adds the emitter sector.

    A coupled mode at a real ``w`` stays in the sum: a caller that must refuse
    it evaluates Gamma_S at ``w`` first, which raises on the same modes.
    """
    m = len(c.sites)
    e = 0 if c.amplitude is None else m
    kets = np.zeros((e + c.bath.n_sites, m), dtype=np.complex128)
    kets[e:] = _green_columns(c, complex(w), strict=False)
    if e:
        kets[range(e), range(e)] = c.amplitude
    return kets


def _null_vectors(f: np.ndarray, count: int) -> np.ndarray:
    """``count`` null vectors of the pole matrix ``f``: eigenvectors by ascending |eigenvalue|."""
    fvals, fvecs = np.linalg.eigh(f)
    return fvecs[:, np.argsort(np.abs(fvals), kind="stable")[:count]]


def _bound_states(c: Contact, roots):
    """Orthonormal bound states at the sorted real ``roots`` of the contact's F.

    Up to M roots within a relative 1e-9 of a group's first root are one root
    that several branches list; its kets ``psi = kets null`` take as many null
    vectors of F there (``[[1]]`` for one site), normalized by the Cholesky
    factor L of ``psi^H psi = null^H (slope + Gamma_S^2) null`` (the emitter
    sector holds ``amplitude**2 = slope``): Gram-Schmidt in the order of
    ``null``.  A group whose Gram matrix is not positive is skipped.  A coupled
    mode within ``POLE_ATOL`` of a root stays in the kets; weak modes do not.
    Returns lists ``(w, states, L)``: each kept root, its state, its entry of diag(L).
    """
    m = len(c.sites)
    energies, states, norms = [], [], []
    start = 0
    while start < len(roots):
        w = roots[start]
        group = [r for r in roots[start:start + m] if abs(r - w) < 1e-9 * max(1.0, abs(w))]
        start += len(group)
        null = np.ones((1, 1)) if m == 1 else _null_vectors(
            _pole_matrix(c, w, _gamma_block(c, w)), len(group))
        psi = _contact_kets(c, w) @ null
        try:
            chol = np.linalg.cholesky(np.conj(psi.T) @ psi)
        except np.linalg.LinAlgError:
            continue
        energies += group
        states += list((psi @ np.conj(np.linalg.inv(chol).T)).T)
        norms += list(np.diag(chol).real)
    return energies, states, norms


def _contact_scattering(c: Contact, k_indices, delta: float):
    """Scattering states of a one-site contact on the bath modes ``k_indices``.

    A mode with ``|f| < NODE_TOL`` at its real energy omega passes through
    untouched; any other takes ``mode + coupling * G_B(z)|site>``, ``coupling
    = mode[site] / f(z)`` at ``z = omega + 1j*delta``.  An ``amplitude`` puts
    ``coupling * amplitude`` on the emitter, row 0 of ``[e, x_0..]``.  Yields
    ``(ks, omega, regular, states)`` per chunk of at most ``SCATTER_CHUNK`` modes.
    """
    s, (site,) = c.bath, c.sites
    ks = np.asarray(k_indices, dtype=np.intp).reshape(-1)
    out_of_range = (ks < 0) | (ks >= s.n_sites)
    if out_of_range.any():
        raise ValueError(f"k_index {ks[out_of_range][0]} out of range")
    if delta == 0.0:
        raise ValueError("delta must be nonzero: the regular branch is taken off the real axis")
    vecs, energies = s.eigenvectors, s.eigenvalues
    for start in range(0, ks.size, SCATTER_CHUNK):
        kc = ks[start:start + SCATTER_CHUNK]
        omega = energies[kc]
        regular = _coinciding_modes(c, omega, strict=False)[1]
        # the rare mode with no coinciding pole (a node at the site) needs f
        # at its real energy, over the modes the coinciding-mode rule keeps
        for i in np.flatnonzero(~regular):
            w = float(omega[i])
            f_real = _contact_f(c, w, complex(_gamma_block(c, w)[0, 0]))
            regular[i] = not abs(f_real) < NODE_TOL
        z = omega + 1j * delta
        f = _contact_f(c, z, _kernels.mode_sum(c.weights, energies, z)[:, 0, 0])
        coupling = np.zeros(kc.size, dtype=np.complex128)
        np.divide(vecs[site, kc], f, out=coupling, where=regular)
        # coupling on the left: numpy's complex product is not bit-symmetric
        states = vecs[:, kc] + coupling * _green_columns(c, z)
        states[:, ~regular] = vecs[:, kc[~regular]]
        if c.amplitude is not None:
            states = np.vstack((coupling * c.amplitude, states))
        yield kc, omega, regular, states


def _emitter_roots(c: Contact, omega0, g, bands):
    """Roots of the contact's F in the gaps of ``bands`` (detected if None), the
    tails bounded by ``|root - omega0| <= g``."""
    levels = c.bath.eigenvalues
    intervals = _roots.gap_intervals(
        detect_bands(c.bath) if bands is None else bands,
        min(omega0, float(levels[0])) - g - 1.0, max(omega0, float(levels[-1])) + g + 1.0,
    )
    return _roots.contact_roots(c.weights, levels, c.slope, c.offset, intervals)


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
    return _contact_resolvent(spec._contact(s), z, "impurity")[0]


def vacancy_green(s: SpectralData, site: int, z: complex) -> np.ndarray:
    """Infinite-strength limit: resolvent of the bath with ``site`` removed.

    The contact resolvent with ``f = -gamma``, ``gamma = <site|G_B|site>``;
    the row and column at ``site`` vanish identically and the rest equals the
    resolvent of the deleted-site bath.
    """
    out = _contact_resolvent(Contact(s, (site,)), z, "vacancy")[0]
    # The projected row/col are exact zeros up to roundoff; pin them.
    out[site, :] = 0.0
    out[:, site] = 0.0
    return out


def solve_impurity_bound_state(
    s: SpectralData,
    spec: ImpuritySpec,
    bands: BandStructure | None = None,
):
    """All in-gap bound states of the impurity problem.

    The pole function increases between bath poles, so each gap holds at
    most one root.  For finite strength the single out-of-band root (above
    for repulsive, below for attractive) is included; the vacancy spectrum
    interlaces the bath one, so it has no tail roots.
    """
    if bands is None:
        bands = detect_bands(s)
    if not spec.is_vacancy and spec.strength == 0.0:
        return []
    c = spec._contact(s)
    # the tail root sits below the bands when attractive, above when repulsive
    v = spec.strength
    intervals = _roots.gap_intervals(
        bands,
        None if spec.is_vacancy or v > 0.0 else float(s.eigenvalues[0]) - abs(v) - 1.0,
        None if spec.is_vacancy or v < 0.0 else float(s.eigenvalues[-1]) + v + 1.0,
    )
    roots = _roots.contact_roots(c.weights, s.eigenvalues, c.slope, c.offset, intervals)
    return [ImpurityBoundState(energy=float(x), wavefunction=v, norm_factor=float(1.0 / n),
                               residue_trace=float(np.vdot(v, v).real))
            for x, v, n in zip(*_bound_states(c, roots))]


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
    (_, omega, regular, states), = _contact_scattering(spec._contact(s), [k_index], delta)
    return ImpurityScatteringState(
        k_index=k_index, energy=float(omega[0]), vector=states[:, 0], regular=bool(regular[0]),
        residual=float(_scattering_residuals(s, spec, omega, states)[0]),
    )


def _scattering_residuals(s, spec, omega, states):
    """``||H v - omega v||`` per column, with the bath applied from the spec's edge list."""
    r = s.source.apply(states) - omega * states
    if spec.is_vacancy:
        # The vacancy state lives on the deleted lattice: measure the residual
        # away from the removed site.
        r[spec.site] = 0.0
    else:
        r[spec.site] += spec.strength * states[spec.site]
    return np.linalg.norm(r, axis=0)
