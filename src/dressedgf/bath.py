"""Finite photonic baths: specs, diagonalization and bare Green functions.

A bath is a finite tight-binding lattice.  All Green functions are evaluated
as explicit mode sums over the eigendecomposition, so they are exact for the
finite lattice; limits onto the real axis are taken as ``z = w + 1j*delta``
with ``delta`` defaulting to :func:`default_delta` of the spectral width.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import BranchError, ConfigError, PoleError

# A mode counts as coinciding with a real evaluation point below this distance.
POLE_ATOL = 1e-12
# Coinciding modes with weight below this are dropped instead of raising.
WEIGHT_TOL = 1e-12
DEFAULT_GAP_FACTOR = 5.0
DELTA_SCALE = 1e-8


@dataclass(frozen=True)
class BathSpec:
    """Immutable description of a finite tight-binding bath.

    Parameters
    ----------
    n_sites : int
        Number of lattice sites.
    frequencies : tuple of float
        On-site frequency for every site.
    hoppings : tuple of (int, int, complex)
        Edges ``(x, xp, J)`` contributing ``J |x><xp| + h.c.``.  Each
        unordered pair may appear at most once and self-loops are rejected.
    """

    n_sites: int
    frequencies: tuple
    hoppings: tuple

    def __post_init__(self):
        if self.n_sites <= 0:
            raise ValueError(f"n_sites must be positive, got {self.n_sites}")
        if len(self.frequencies) != self.n_sites:
            raise ValueError(
                f"expected {self.n_sites} frequencies, got {len(self.frequencies)}"
            )
        seen = set()
        for edge in self.hoppings:
            x, xp, amp = edge
            for idx in (x, xp):
                if not (0 <= idx < self.n_sites):
                    raise ValueError(f"hopping site {idx} out of range 0..{self.n_sites - 1}")
            if x == xp:
                raise ValueError(f"hopping ({x}, {xp}): self-loop; use frequencies")
            key = (min(x, xp), max(x, xp))
            if key in seen:
                raise ValueError(f"duplicate edge ({x}, {xp})")
            seen.add(key)

    def to_matrix(self) -> np.ndarray:
        """Dense Hermitian Hamiltonian of the bare bath."""
        h = np.zeros((self.n_sites, self.n_sites), dtype=np.complex128)
        h[np.diag_indices(self.n_sites)] = np.asarray(self.frequencies, dtype=np.float64)
        for x, xp, amp in self.hoppings:
            h[x, xp] += amp
            h[xp, x] += np.conj(amp)
        return h

    @cached_property
    def _edge_arrays(self):
        # Every edge in both directions as (rows, cols, amplitudes): one
        # gather-scatter over these applies the hopping part of H_B.
        x = np.array([edge[0] for edge in self.hoppings], dtype=np.intp)
        xp = np.array([edge[1] for edge in self.hoppings], dtype=np.intp)
        amp = np.array([edge[2] for edge in self.hoppings], dtype=np.complex128)
        return (
            np.concatenate((x, xp)),
            np.concatenate((xp, x)),
            np.concatenate((amp, np.conj(amp))),
            np.asarray(self.frequencies, dtype=np.float64),
        )

    def apply(self, vector) -> np.ndarray:
        """``H_B @ vector`` straight from the edge list, in O(N + edges)."""
        rows, cols, amps, freqs = self._edge_arrays
        v = np.asarray(vector, dtype=np.complex128)
        out = freqs * v
        np.add.at(out, rows, amps * v[cols])
        return out


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigendecomposition of a bath, with a fixed phase convention.

    ``eigenvectors[:, k]`` is the k-th mode; columns are rotated so the first
    component above 1e-12 in modulus is real and positive, which makes runs
    bit-reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source: BathSpec

    @property
    def n_sites(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_width(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


@dataclass(frozen=True)
class BandStructure:
    """Bands (closed intervals) and the complementary open gaps.

    The first and last gaps are half-infinite; they cover everything below the
    lowest band and above the highest one.
    """

    bands: tuple
    gaps: tuple

    def in_band(self, omega: float) -> bool:
        return any(lo <= omega <= hi for lo, hi in self.bands)

    def in_gap(self, omega: float) -> bool:
        return not self.in_band(omega)

    def gap_containing(self, omega: float):
        for lo, hi in self.gaps:
            if lo < omega < hi:
                return (lo, hi)
        return None


def build_uniform_chain(n_sites: int, omega_c: float, j: float) -> BathSpec:
    """Open chain with constant on-site frequency and nearest-neighbour hopping.

    Parameters
    ----------
    n_sites : int
        Chain length.
    omega_c : float
        On-site frequency.
    j : float
        Hopping amplitude between neighbouring sites.
    """
    freqs = (float(omega_c),) * n_sites
    hops = tuple((x, x + 1, complex(j)) for x in range(n_sites - 1))
    return BathSpec(n_sites=n_sites, frequencies=freqs, hoppings=hops)


def build_ssh_chain(n_cells: int, omega_c: float, j1: float, j2: float) -> BathSpec:
    """Open dimerized chain: ``n_cells`` two-site cells with alternating hopping.

    Intra-cell bonds carry ``j1``, inter-cell bonds ``j2``.  For ``j1 != j2``
    the bulk spectrum splits into two bands around ``omega_c`` separated by a
    gap of width ``2*abs(abs(j1) - abs(j2))``.
    """
    n_sites = 2 * n_cells
    freqs = (float(omega_c),) * n_sites
    hops = []
    for cell in range(n_cells):
        a = 2 * cell
        hops.append((a, a + 1, complex(j1)))
        if cell + 1 < n_cells:
            hops.append((a + 1, a + 2, complex(j2)))
    return BathSpec(n_sites=n_sites, frequencies=freqs, hoppings=tuple(hops))


def load_bath_spec(text: str) -> BathSpec:
    """Parse a bath document (JSON map) into a :class:`BathSpec`.

    The document must contain exactly the keys ``n_sites``, ``frequencies``
    (list, or one number broadcast to every site) and ``hoppings`` (list of
    ``[x, xp, re, im]`` quadruples).  Anything else is rejected.  Syntax
    errors carry the offending line number; semantic errors name the
    offending entry.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bath document line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("bath document must be a top-level map")
    required = {"n_sites", "frequencies", "hoppings"}
    unknown = set(doc) - required
    if unknown:
        raise ConfigError(f"unknown bath keys: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"missing bath keys: {sorted(missing)}")

    n_sites = doc["n_sites"]
    if not isinstance(n_sites, int) or isinstance(n_sites, bool):
        raise ConfigError(f"n_sites must be an integer, got {n_sites!r}")

    raw_freq = doc["frequencies"]
    if isinstance(raw_freq, (int, float)) and not isinstance(raw_freq, bool):
        freqs = (float(raw_freq),) * max(n_sites, 0)
    elif isinstance(raw_freq, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw_freq
    ):
        freqs = tuple(float(v) for v in raw_freq)
    else:
        raise ConfigError("frequencies must be a real number or a list of reals")

    raw_hops = doc["hoppings"]
    if not isinstance(raw_hops, list):
        raise ConfigError("hoppings must be a list of [x, xp, re, im] quadruples")
    hops = []
    for i, entry in enumerate(raw_hops):
        ok = (
            isinstance(entry, list)
            and len(entry) == 4
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
            and isinstance(entry[0], int)
            and isinstance(entry[1], int)
        )
        if not ok:
            raise ConfigError(f"hoppings[{i}]: expected [x, xp, re, im] with integer sites")
        x, xp, re, im = entry
        hops.append((x, xp, complex(re, im)))

    try:
        return BathSpec(n_sites=n_sites, frequencies=freqs, hoppings=tuple(hops))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def diagonalize_bath(spec: BathSpec) -> SpectralData:
    """Dense eigendecomposition of the bath, phases fixed deterministically."""
    evals, evecs = np.linalg.eigh(spec.to_matrix())
    evecs = _fix_phases(evecs)
    evals = np.ascontiguousarray(evals, dtype=np.float64)
    return SpectralData(eigenvalues=evals, eigenvectors=evecs, source=spec)


def _fix_phases(evecs: np.ndarray) -> np.ndarray:
    out = np.array(evecs, dtype=np.complex128)
    for k in range(out.shape[1]):
        col = out[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        lead = col[nz[0]] if nz.size else 1.0
        if lead != 0:
            out[:, k] = col * (np.conj(lead) / abs(lead))
    return out


def _element_weights(s: SpectralData, x: int, xp: int) -> np.ndarray:
    return s.eigenvectors[x, :] * np.conj(s.eigenvectors[xp, :])


def _check_sites(s: SpectralData, *sites: int) -> None:
    for x in sites:
        if not (0 <= x < s.n_sites):
            raise ValueError(f"site {x} out of range 0..{s.n_sites - 1}")


def _coinciding_keep(s: SpectralData, z: complex, weights: np.ndarray):
    """The coinciding-mode rule: keep-mask of the modes that enter a sum at ``z``.

    Only a real ``z`` can coincide with a mode.  Modes within ``POLE_ATOL``
    of it are dropped when their weight is below ``WEIGHT_TOL``; a coinciding
    mode with larger weight is a genuine pole and raises.  Returns ``None``
    when every mode is kept.
    """
    z = complex(z)
    if z.imag != 0.0:
        return None
    near = np.abs(z.real - s.eigenvalues) < POLE_ATOL
    if not near.any():
        return None
    bad = near & (np.abs(weights) >= WEIGHT_TOL)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise PoleError(
            f"z={z.real:g} coincides with eigenvalue {s.eigenvalues[k]:.12g}"
            f" carrying weight {abs(weights[k]):.3e}"
        )
    return ~near


def _kept_modes(s: SpectralData, z: complex, weights: np.ndarray, *per_mode):
    """``weights`` and the ``per_mode`` arrays restricted to the kept modes.

    Modes run along the last axis of every array; :func:`_coinciding_keep`
    decides which of them enter a sum at ``z``.
    """
    keep = _coinciding_keep(s, z, weights)
    if keep is None:
        return (weights, *per_mode)
    return (weights[keep], *(a[..., keep] for a in per_mode))


def bath_green_element(s: SpectralData, z: complex, x: int, xp: int) -> complex:
    """Matrix element ``<x| (z - H_B)^-1 |xp>`` as an explicit mode sum.

    Raises
    ------
    PoleError
        For real ``z`` sitting on an eigenvalue whose weight at ``(x, xp)``
        is not negligible.  Coinciding zero-weight modes are dropped.
    """
    _check_sites(s, x, xp)
    weights, energies = _kept_modes(s, z, _element_weights(s, x, xp), s.eigenvalues)
    return _kernels.resolvent_sum(weights, energies, complex(z))


def bath_green_squared_element(s: SpectralData, z: complex, x: int, xp: int) -> complex:
    """Matrix element of the squared resolvent, ``<x| (z - H_B)^-2 |xp>``."""
    _check_sites(s, x, xp)
    weights, energies = _kept_modes(s, z, _element_weights(s, x, xp), s.eigenvalues)
    return _kernels.resolvent_sum_squared(weights, energies, complex(z))


def green_column(s: SpectralData, z: complex, x: int) -> np.ndarray:
    """Vector ``(z - H_B)^-1 |x>``; the coinciding-mode rule keys on ``<x|k>``."""
    _check_sites(s, x)
    z = complex(z)
    coeff, energies, vecs = _kept_modes(
        s, z, np.conj(s.eigenvectors[x, :]), s.eigenvalues, s.eigenvectors
    )
    return vecs @ (coeff / (z - energies))


def green_row(s: SpectralData, z: complex, x: int) -> np.ndarray:
    """Row vector ``<x| (z - H_B)^-1``; equals the column only for symmetric baths."""
    _check_sites(s, x)
    z = complex(z)
    coeff, energies, vecs = _kept_modes(s, z, s.eigenvectors[x, :], s.eigenvalues, s.eigenvectors)
    return (coeff / (z - energies)) @ np.conj(vecs.T)


def green_matrix(s: SpectralData, z: complex) -> np.ndarray:
    """Full bath resolvent matrix ``(z - H_B)^-1``."""
    z = complex(z)
    # unit weights: every coinciding mode is a pole of the full matrix
    _coinciding_keep(s, z, np.ones(s.n_sites))
    scaled = s.eigenvectors / (z - s.eigenvalues)[None, :]
    return scaled @ np.conj(s.eigenvectors.T)


def detect_bands(s: SpectralData, gap_factor: float = DEFAULT_GAP_FACTOR) -> BandStructure:
    """Group eigenvalues into bands by spacing.

    Consecutive eigenvalues are merged into one band whenever their spacing
    stays below ``gap_factor`` times the median spacing; larger spacings open
    a gap.  The heuristic is meant for lattices with well-formed quasi-bands;
    ``gap_factor`` is exposed for anything unusual.
    """
    if gap_factor <= 0:
        raise ValueError("gap_factor must be positive")
    evals = s.eigenvalues
    if evals.shape[0] == 1:
        bands = ((float(evals[0]), float(evals[0])),)
    else:
        spac = np.diff(evals)
        cutoff = gap_factor * float(np.median(spac))
        cutoff = max(cutoff, 1e-12 * max(1.0, abs(s.spectral_width)))
        bands = []
        lo = float(evals[0])
        hi = float(evals[0])
        for w, gap in zip(evals[1:], spac):
            if gap < cutoff:
                hi = float(w)
            else:
                bands.append((lo, hi))
                lo = hi = float(w)
        bands.append((lo, hi))
        bands = tuple(bands)

    gaps = [(-math.inf, bands[0][0])]
    for (lo1, hi1), (lo2, hi2) in zip(bands, bands[1:]):
        gaps.append((hi1, lo2))
    gaps.append((bands[-1][1], math.inf))
    return BandStructure(bands=bands, gaps=tuple(gaps))


def analytic_chain_green(z: complex, omega_c: float, j: float, d: int) -> complex:
    """Closed-form resolvent element of the infinite uniform chain.

    Returns ``<x| (z - H)^-1 |x+d>`` for the translationally invariant chain
    with on-site frequency ``omega_c`` and hopping ``j``: ``y**abs(d) / (j *
    (1/y - y))`` with ``y`` the root of ``j*y**2 - (z - omega_c)*y + j = 0``
    inside the unit circle.  At ``d = 0`` this reduces to
    ``1/sqrt((z - omega_c)**2 - 4*j**2)`` outside the band.

    Raises
    ------
    BranchError
        If ``z`` is real and inside the band ``[omega_c - 2|j|, omega_c + 2|j|]``
        (both roots sit on the unit circle there).
    """
    if j == 0:
        raise ValueError("hopping j must be nonzero")
    z = complex(z)
    w = z - omega_c
    if z.imag == 0.0 and abs(w.real) <= 2.0 * abs(j):
        raise BranchError(
            f"z={z.real:g} lies in the band [{omega_c - 2 * abs(j):g}, {omega_c + 2 * abs(j):g}]"
        )
    q = np.sqrt(w * w - 4.0 * j * j)
    # Pick the larger-magnitude root without cancellation; the two roots of
    # the quadratic multiply to exactly 1.
    big = (w + q) / (2.0 * j) if abs(w + q) >= abs(w - q) else (w - q) / (2.0 * j)
    y = 1.0 / big
    if abs(abs(y) - 1.0) < 1e-14:
        raise BranchError("z is numerically on the band edge")
    return complex(y ** abs(d) / (j * (1.0 / y - y)))


def default_delta(s: SpectralData) -> float:
    """Default imaginary offset used to take limits onto the real axis."""
    width = s.spectral_width
    if width <= 0.0:
        width = max(1.0, float(abs(s.eigenvalues[0])))
    return DELTA_SCALE * width
