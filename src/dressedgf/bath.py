"""Finite photonic baths: specs, diagonalization and the dense Green-function backend.

A bath is a finite tight-binding lattice; its eigendecomposition is the one
backend of every bath Green function.  The contact engine asks it, through a
:class:`Contact`, for Gamma_S blocks (:func:`_gamma_block`) and columns
G_B|x> (:func:`_green_columns`); elements, rows and the full matrix
(:func:`_spectral_sum`) share their one coinciding-mode rule,
:func:`_coinciding_modes`.  Real-axis limits use ``z = w + 1j*delta``.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import BranchError, ConfigError, PoleError

# A mode counts as coinciding with a real evaluation point below this distance.
POLE_ATOL = 1e-12
# Coinciding modes with |<x|k>|**2 below this on every site are dropped, not raised.
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
        if not all(map(math.isfinite, self.frequencies)):
            raise ValueError("frequencies must be finite")
        seen = set()
        for x, xp, amp in self.hoppings:
            for idx in (x, xp):
                if not (0 <= idx < self.n_sites):
                    raise ValueError(f"hopping site {idx} out of range 0..{self.n_sites - 1}")
            if x == xp:
                raise ValueError(f"hopping ({x}, {xp}): self-loop; use frequencies")
            if not np.isfinite(amp):
                raise ValueError(f"hopping ({x}, {xp}): amplitude must be finite")
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
    def _edge_rounds(self):
        # Every edge in both directions, split into rounds in which no row
        # repeats: round r holds the r-th directed edge into each row, in
        # edge-list order, so one fancy-indexed add per round accumulates
        # each row's terms in the order of the edge list.
        x = np.array([edge[0] for edge in self.hoppings], dtype=np.intp)
        xp = np.array([edge[1] for edge in self.hoppings], dtype=np.intp)
        amp = np.array([edge[2] for edge in self.hoppings], dtype=np.complex128)
        rows, cols = np.concatenate((x, xp)), np.concatenate((xp, x))
        amps = np.concatenate((amp, np.conj(amp)))
        order = np.argsort(rows, kind="stable")
        starts = np.searchsorted(rows[order], rows[order])
        rank = np.empty_like(rows)
        rank[order] = np.arange(rows.size) - starts
        return tuple(
            (rows[rank == r], cols[rank == r], amps[rank == r])
            for r in range(int(rank.max(initial=-1)) + 1)
        )

    def apply(self, vectors) -> np.ndarray:
        """``H_B @ vectors`` straight from the edge list, in O((N + edges) * columns).

        ``vectors`` is one vector or an (N, c) block of columns; each column
        comes out bit-identical to applying H_B to it alone.
        """
        v = np.asarray(vectors, dtype=np.complex128)
        per_row = (-1,) + (1,) * (v.ndim - 1)
        out = np.asarray(self.frequencies, dtype=np.float64).reshape(per_row) * v
        for rows, cols, amps in self._edge_rounds:
            out[rows] += amps.reshape(per_row) * v[cols]
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


def _finite_real(value) -> bool:
    """A number that is not a bool, NaN, infinite or an int beyond float range (json reads all)."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def _max_sites() -> int:
    """Largest bath that indexes and whose dense N x N complex matrix fits in memory."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize
    return min(sys.maxsize, math.isqrt(memory // 16))


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
    if n_sites > _max_sites():
        raise ConfigError(f"n_sites must be <= {_max_sites()}: the bath's dense complex"
                          " matrix must fit in memory")

    raw_freq = doc["frequencies"]
    if _finite_real(raw_freq):
        freqs = (float(raw_freq),) * max(n_sites, 0)
    elif isinstance(raw_freq, list) and all(map(_finite_real, raw_freq)):
        freqs = tuple(float(v) for v in raw_freq)
    else:
        raise ConfigError("frequencies must be a finite real number or a list of finite reals")

    raw_hops = doc["hoppings"]
    if not isinstance(raw_hops, list):
        raise ConfigError("hoppings must be a list of [x, xp, re, im] quadruples")
    hops = []
    for i, entry in enumerate(raw_hops):
        ok = (
            isinstance(entry, list)
            and len(entry) == 4
            and all(map(_finite_real, entry))
            and isinstance(entry[0], int)
            and isinstance(entry[1], int)
        )
        if not ok:
            raise ConfigError(f"hoppings[{i}]: expected [x, xp, re, im] with integer sites"
                              " and a finite amplitude")
        x, xp, re, im = entry
        hops.append((x, xp, complex(re, im)))

    try:
        return BathSpec(n_sites=n_sites, frequencies=freqs, hoppings=tuple(hops))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _dense_eigh(h: np.ndarray, vectors: bool = True):
    """Eigenvalues (and eigenvectors, if ``vectors``) of a dense Hermitian matrix.

    Every dense solve of the bath or the full Hamiltonian goes through here.
    A matrix without imaginary part is solved as the real symmetric ``h.real``,
    which LAPACK does about twice as fast (three times without vectors); any
    other matrix takes the complex solver.
    """
    if not np.any(h.imag):
        h = h.real
    return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)


def diagonalize_bath(spec: BathSpec) -> SpectralData:
    """Dense eigendecomposition of the bath, phases fixed deterministically."""
    evals, evecs = _dense_eigh(spec.to_matrix())
    evecs = _fix_phases(evecs)
    evals = np.ascontiguousarray(evals, dtype=np.float64)
    return SpectralData(eigenvalues=evals, eigenvectors=evecs, source=spec)


def _fix_phases(evecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its first entry above 1e-12 in modulus is real positive.

    A column with no such entry is multiplied by 1.  The phase
    conj(lead)/|lead| is spelled out as numpy's scalar arithmetic computes
    it (|lead| by ``hypot``, the division by a real as a product with its
    reciprocal, signed zeros included), so the result is bit-identical to
    rotating column by column.
    """
    out = np.array(evecs, dtype=np.complex128)
    big = np.abs(out) > 1e-12
    found = big.any(axis=0)
    lead = np.conj(out[np.argmax(big, axis=0), np.arange(out.shape[1])])
    scale = np.ones(out.shape[1])
    np.divide(1.0, np.hypot(lead.real, lead.imag), out=scale, where=found)
    phase = np.empty(out.shape[1], dtype=np.complex128)
    phase.real = (lead.real + lead.imag * 0.0) * scale
    phase.imag = (lead.imag - lead.real * 0.0) * scale
    phase[~found] = 1.0
    out *= phase
    return out


@dataclass(frozen=True, eq=False)
class Contact:
    """The contact engine's one input: the bath, the sites and F = (slope*z + offset) - Gamma_S.

    ``amplitude`` is an emitter's 1/g on its emitter sector, None for an
    impurity.  The sites are checked once; the rows, pair weights and key
    are built on first use, so a rule over every site builds no weights.
    """

    bath: SpectralData
    sites: tuple
    slope: float = 0.0
    offset: float = 0.0
    amplitude: float | None = None

    def __post_init__(self):
        for x in self.sites:
            if not (0 <= x < self.bath.n_sites):
                raise ValueError(f"site {x} out of range 0..{self.bath.n_sites - 1}")

    @cached_property
    def rows(self) -> np.ndarray:
        """V_S, the mode amplitudes ``<x_i|k>`` on the sites, shape (M, N)."""
        return self.bath.eigenvectors[list(self.sites), :]

    @cached_property
    def weights(self) -> np.ndarray:
        """Pair weights ``<x_i|k><k|x_j>``, shape (M, M, N): every block's mode-sum input."""
        return self.rows[:, None, :] * np.conj(self.rows[None, :, :])

    @cached_property
    def key(self) -> np.ndarray:
        """The coinciding-mode key: each mode's largest ``|<x|k>|**2`` over the sites."""
        return (np.abs(self.rows) ** 2).max(axis=0)


def _coinciding_modes(c: Contact, z, strict: bool = True):
    """The coinciding-mode rule of every sum over the contact: ``(weak, poles)`` at ``z``.

    A mode within ``POLE_ATOL`` of a real ``z`` with ``c.key`` below
    ``WEIGHT_TOL`` cannot couple and is dropped (masked by ``weak``, None if
    none); any other is a genuine pole, raising PoleError if ``strict``.
    ``z`` is a scalar or a 1-D array; ``poles`` flags its points on a pole.
    """
    z = np.asarray(z, dtype=np.complex128)
    real = z.imag == 0.0
    if not real.any():
        return None, real
    levels = c.bath.eigenvalues
    near = real[..., None] & (np.abs(z.real[..., None] - levels) < POLE_ATOL)
    if not near.any():
        return None, near.any(axis=-1)
    genuine = near & (c.key >= WEIGHT_TOL)
    if strict and genuine.any():
        *point, k = np.argwhere(genuine)[0]
        raise PoleError(
            f"z={z.real[tuple(point)]:g} coincides with eigenvalue {levels[k]:.12g}"
            f" carrying weight {c.key[k]:.3e}"
        )
    weak = near & ~genuine
    return (weak if weak.any() else None), genuine.any(axis=-1)


def _gamma_block(c: Contact, z: complex, power: int = 1) -> np.ndarray:
    """Gamma_S (``power=1``) or Gamma_S^2 (``power=2``) over the contact sites at ``z``.

    One :func:`_kernels.mode_sum` of the contact's pair weights over the modes
    the rule keeps.
    """
    weights, energies = c.weights, c.bath.eigenvalues
    weak, _ = _coinciding_modes(c, z)
    if weak is not None:
        weights, energies = weights[..., ~weak], energies[~weak]
    return _kernels.mode_sum(weights, energies, complex(z), power)


def _green_columns(c: Contact, z, strict: bool = True) -> np.ndarray:
    """Columns ``G_B(z)|x_i>``, shape (N, M): one product ``V (conj(V_S)/(z - E))^T``.

    The coinciding-mode rule is the block's; with ``strict`` off a genuine
    pole stays in the sum.  For one site ``z`` may be a 1-D array of complex
    points; column ``p`` is then ``G_B(z[p])|x>``.
    """
    coeff, energies, vecs = np.conj(c.rows), c.bath.eigenvalues, c.bath.eigenvectors
    weak, _ = _coinciding_modes(c, z, strict)
    if weak is not None:
        coeff, energies, vecs = coeff[:, ~weak], energies[~weak], vecs[:, ~weak]
    return vecs @ np.ascontiguousarray((coeff / np.subtract.outer(z, energies)).T)


def _element(s: SpectralData, z: complex, x: int, xp: int, power: int) -> complex:
    """Entry ``(x, xp)``: entry [0, -1] of the block over (x,), or over (x, xp) off the diagonal."""
    return complex(_gamma_block(Contact(s, (x,) if x == xp else (x, xp)), z, power)[0, -1])


def bath_green_element(s: SpectralData, z: complex, x: int, xp: int) -> complex:
    """Matrix element ``<x| (z - H_B)^-1 |xp>``, the entry of the block over ``{x, xp}``.

    PoleError for a real ``z`` on a level with weight at ``x`` or ``xp``.
    """
    return _element(s, z, x, xp, 1)


def bath_green_squared_element(s: SpectralData, z: complex, x: int, xp: int) -> complex:
    """Matrix element of the squared resolvent, ``<x| (z - H_B)^-2 |xp>``."""
    return _element(s, z, x, xp, 2)


def green_column(s: SpectralData, z: complex, x: int) -> np.ndarray:
    """Vector ``(z - H_B)^-1 |x>``."""
    return _green_columns(Contact(s, (x,)), complex(z))[:, 0]


def green_row(s: SpectralData, z: complex, x: int) -> np.ndarray:
    """Row vector ``<x| (z - H_B)^-1``, the conjugate of the column at conj(z)."""
    return np.conj(_green_columns(Contact(s, (x,)), complex(z).conjugate())[:, 0])


def green_matrix(s: SpectralData, z: complex) -> np.ndarray:
    """Full bath resolvent matrix ``(z - H_B)^-1``."""
    z = complex(z)
    # over every site, each coinciding mode is a pole of the full matrix
    _coinciding_modes(Contact(s, range(s.n_sites)), z)
    return _spectral_sum(s.eigenvectors, s.eigenvalues, z)


def _spectral_sum(vecs: np.ndarray, levels: np.ndarray, z: complex) -> np.ndarray:
    """``V (z - levels)^-1 V^H`` for orthonormal columns ``V`` with ascending real ``levels``.

    Vectors with no imaginary part, which every real Hamiltonian gets from
    :func:`_dense_eigh`, take symmetric rank-k products ``A A^T`` (BLAS
    syrk), a quarter of the flops of the complex product and an exactly
    symmetric result.  With ``d = 1/(z - levels)``, ``Re d`` is positive
    exactly on the levels below ``Re z``, a leading block of the columns:
    ``Re G = A A^T - B B^T`` over the two blocks of ``V sqrt|Re d|``, and
    ``Im G = -sign(Im z) C C^T`` with ``C = V sqrt|Im d|``.
    """
    if np.any(vecs.imag):
        return (vecs / (z - levels)[None, :]) @ np.conj(vecs.T)
    v = vecs.real
    inv = 1.0 / (z - levels)
    k = int(np.searchsorted(levels, z.real))
    scaled = v * np.sqrt(np.abs(inv.real))
    a, b = scaled[:, :k], scaled[:, k:]
    out = np.empty((v.shape[0], v.shape[0]), dtype=np.complex128)
    np.subtract(a @ a.T, b @ b.T, out=out.real)
    np.multiply(v, np.sqrt(np.abs(inv.imag)), out=scaled)
    np.multiply(scaled @ scaled.T, -np.sign(z.imag), out=out.imag)
    return out


def detect_bands(s: SpectralData, gap_factor: float = DEFAULT_GAP_FACTOR) -> BandStructure:
    """Group eigenvalues into bands by spacing.

    Consecutive eigenvalues are merged into one band whenever their spacing
    stays below ``gap_factor`` times the median spacing; larger spacings open
    a gap.  The heuristic is meant for lattices with well-formed quasi-bands;
    ``gap_factor`` is exposed for anything unusual.
    """
    return _bands_from_levels(s.eigenvalues, gap_factor)


def _bands_from_levels(evals: np.ndarray, gap_factor: float) -> BandStructure:
    """:func:`detect_bands` on the sorted eigenvalues alone."""
    if not 0 < gap_factor < math.inf:
        raise ValueError("gap_factor must be positive and finite")
    if evals.shape[0] == 1:
        bands = ((float(evals[0]), float(evals[0])),)
    else:
        spac = np.diff(evals)
        cutoff = gap_factor * float(np.median(spac))
        width = float(evals[-1] - evals[0])
        cutoff = max(cutoff, 1e-12 * max(1.0, abs(width)))
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
