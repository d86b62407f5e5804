"""Several identical emitters: F matrix, resolvent and effective models.

The emitters share ``omega0`` and ``g`` but sit on distinct sites.  The
resolvent is the rank-M generalization of the single-emitter case with the
M x M pole matrix F(z); bound doublets, the Born-like T-matrix series and the
weak-coupling effective Hamiltonians all derive from it.

Vectors over the coupled space are ordered ``[e_1..e_M, x_0..x_{N-1}]``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _roots
from .bath import (
    BandStructure,
    SpectralData,
    bath_green_element,
    bath_green_squared_element,
    detect_bands,
    green_column,
    green_matrix,
    green_row,
)
from .errors import PoleError, RegimeError

POLE_TOL = 1e-13
COND_LIMIT = 1e13
#: relative beta cancellation below which the analytic two-atom pieces blow up
BETA_DEGENERACY = 1e-8


@dataclass(frozen=True)
class EmitterArraySpec:
    """Identical emitters on distinct sites of one bath."""

    emitters: tuple

    def __post_init__(self):
        if not self.emitters:
            raise ValueError("emitter list must not be empty")
        first = self.emitters[0]
        sites = set()
        for e in self.emitters:
            if e.omega0 != first.omega0 or e.g != first.g:
                raise ValueError("emitters must share omega0 and g")
            if e.site in sites:
                raise ValueError(f"two emitters on site {e.site}")
            sites.add(e.site)

    @property
    def m(self) -> int:
        return len(self.emitters)

    @property
    def omega0(self) -> float:
        return self.emitters[0].omega0

    @property
    def g(self) -> float:
        return self.emitters[0].g

    @property
    def sites(self) -> tuple:
        return tuple(e.site for e in self.emitters)


@dataclass(frozen=True, eq=False)
class FMatrix:
    """Pole matrix F(z); the two-emitter derived scalars ride along."""

    z: complex
    matrix: np.ndarray
    asymmetry: complex | None = None
    splitting: complex | None = None
    shifted_center: complex | None = None


@dataclass(frozen=True, eq=False)
class TMatrixReport:
    spectral_radius: float
    converged: bool
    k_max: int
    residuals: tuple


@dataclass(frozen=True, eq=False)
class TwoAtomPoles:
    """In-gap pole doublet of two emitters; ``roots`` lists every in-gap root."""

    roots: tuple
    omega_minus: float | None
    omega_plus: float | None
    state_minus: np.ndarray | None
    state_plus: np.ndarray | None


@dataclass(frozen=True, eq=False)
class TwoAtomDecomposition:
    """Raw pieces of the symmetric/antisymmetric split of the two-atom model."""

    lambda_s: float
    lambda_a: float
    omega_1: float
    omega_2: float
    beta_plus: float
    beta_minus: float
    asymmetry: float
    splitting: float
    shifted_center: float
    h_s: np.ndarray
    h_a: np.ndarray


@dataclass(frozen=True, eq=False)
class EffectiveHamiltonian:
    """Weak-coupling model over the normalized dressed states at omega0.

    ``matrix[i, j]`` acts on the normalized single-emitter dressed states
    ``basis[:, i]``; ``gamma_eigenvalues`` are the eigenvalues of the
    site-projected bath Green function whose images ``omega0 + g**2 * gamma``
    estimate the bound energies; ``weak_coupling_ratio`` compares the induced
    shifts with the distance to the nearest band edge.
    """

    matrix: np.ndarray
    basis: np.ndarray
    route: str
    gamma_eigenvalues: tuple
    weak_coupling_ratio: float
    decomposition: TwoAtomDecomposition | None = None


def _site_block(element, s: SpectralData, sites, z: complex) -> np.ndarray:
    """M x M block ``element(s, z, x_i, x_j)`` over the contact sites."""
    m = len(sites)
    out = np.empty((m, m), dtype=np.complex128)
    for i, xi in enumerate(sites):
        for j, xj in enumerate(sites):
            if j < i:
                continue
            out[i, j] = element(s, z, xi, xj)
            if j > i:
                out[j, i] = element(s, z, xj, xi)
    return out


def f_matrix(s: SpectralData, arr: EmitterArraySpec, z: complex) -> FMatrix:
    """F_ij(z) = (z - omega0)/g**2 delta_ij - <x_i|G_B(z)|x_j>.

    For two emitters the asymmetry, level splitting and shifted center that
    control the weak-coupling doublet are attached.
    """
    z = complex(z)
    return _f_from_block(arr, z, _site_block(bath_green_element, s, arr.sites, z))


def _f_from_block(arr: EmitterArraySpec, z: complex, gam: np.ndarray) -> FMatrix:
    """:func:`f_matrix` from an already built Gamma_S block ``gam``."""
    mat = -gam
    diag = (z - arr.omega0) / arr.g ** 2
    mat[np.diag_indices(arr.m)] += diag
    asym = split = center = None
    if arr.m == 2:
        g2 = arr.g ** 2
        asym = 0.5 * g2 * (mat[1, 1] - mat[0, 0])
        split = cmath.sqrt(g2 ** 2 * mat[0, 1] * mat[1, 0] + asym * asym)
        center = arr.omega0 + 0.5 * g2 * (gam[0, 0] + gam[1, 1])
    return FMatrix(z=z, matrix=mat, asymmetry=asym, splitting=split, shifted_center=center)


def overlap_matrix(s: SpectralData, arr: EmitterArraySpec, omega: float) -> np.ndarray:
    """Gram matrix of the unnormalized dressed states at real ``omega``.

    ``<Psi_i|Psi_j> = delta_ij/g**2 + <x_i|G_B(omega)**2|x_j>``; positive
    semidefinite wherever it exists, and exactly the derivative F'(omega).
    """
    omega = complex(omega)
    if omega.imag != 0.0:
        raise ValueError("overlap matrix is defined at real energies only")
    out = _site_block(bath_green_squared_element, s, arr.sites, omega)
    out[np.diag_indices(arr.m)] += 1.0 / arr.g ** 2
    return out


def _psi_kets(s: SpectralData, arr: EmitterArraySpec, z: complex) -> np.ndarray:
    m, n = arr.m, s.n_sites
    kets = np.zeros((m + n, m), dtype=np.complex128)
    for i, x in enumerate(arr.sites):
        kets[i, i] = 1.0 / arr.g
        kets[m:, i] = green_column(s, z, x)
    return kets


def _psi_bras(s: SpectralData, arr: EmitterArraySpec, z: complex) -> np.ndarray:
    m, n = arr.m, s.n_sites
    bras = np.zeros((m, m + n), dtype=np.complex128)
    for j, x in enumerate(arr.sites):
        bras[j, j] = 1.0 / arr.g
        bras[j, m:] = green_row(s, z, x)
    return bras


def _rank_m_green(s: SpectralData, arr: EmitterArraySpec, z: complex, gam=None):
    """Rank-M resolvent ``G_B + kets F(z)^-1 bras`` and the pieces it is built from.

    Returns ``(green, base, kets, bras)``, with ``base`` the bare ``G_B(z)``
    padded to the coupled space.  A caller that already holds the Gamma_S
    block at ``z`` passes it as ``gam``.
    """
    fm = f_matrix(s, arr, z).matrix if gam is None else _f_from_block(arr, z, gam).matrix
    cond = np.linalg.cond(fm)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise PoleError(f"F(z) numerically singular at z={z} (cond={cond:.3e})")
    m, n = arr.m, s.n_sites
    base = np.zeros((m + n, m + n), dtype=np.complex128)
    base[m:, m:] = green_matrix(s, z)
    kets = _psi_kets(s, arr, z)
    bras = _psi_bras(s, arr, z)
    return base + kets @ np.linalg.solve(fm, bras), base, kets, bras


def multi_green(s: SpectralData, arr: EmitterArraySpec, z: complex) -> np.ndarray:
    """Full resolvent over ``[e_1..e_M, x_0..x_{N-1}]`` via the rank-M update."""
    return _rank_m_green(s, arr, z)[0]


def t_matrix_series_green(
    s: SpectralData,
    arr: EmitterArraySpec,
    z: complex,
    k_max: int = 20,
):
    """Born-like series for the resolvent, truncated at order ``k_max``.

    Sums ``(g**2 gamma_e(z) gamma^B(z))**k``; the series converges iff the
    spectral radius of that matrix stays below one.  Divergence is reported,
    not raised: the returned report carries the spectral radius and the
    per-order max-abs residuals against the closed form.
    """
    z = complex(z)
    if abs(z - arr.omega0) < POLE_TOL:
        raise PoleError(f"bare emitter pole at z={z}")
    gamma_e = 1.0 / (z - arr.omega0)
    gam = _site_block(bath_green_element, s, arr.sites, z)
    t = arr.g ** 2 * gamma_e * gam
    rho = float(np.max(np.abs(np.linalg.eigvals(t))))

    closed, base, kets, bras = _rank_m_green(s, arr, z, gam)
    h = np.eye(arr.m, dtype=np.complex128)
    term = np.eye(arr.m, dtype=np.complex128)
    residuals = []
    for _ in range(k_max + 1):
        approx = base + arr.g ** 2 * gamma_e * (kets @ h @ bras)
        residuals.append(float(np.max(np.abs(approx - closed))))
        term = term @ t
        h = h + term
    report = TMatrixReport(
        spectral_radius=rho, converged=rho < 1.0, k_max=k_max, residuals=tuple(residuals)
    )
    return approx, report


def det_f_roots(
    s: SpectralData,
    arr: EmitterArraySpec,
    bands: BandStructure | None = None,
    n_grid: int = 256,
    xtol: float = 1e-12,
):
    """Every in-gap root of det F, with multiplicity across branches.

    det F factorizes over the sorted eigenvalue branches of the site-projected
    bath Green function; each branch function ``(w - omega0)/g**2 - mu_b(w)``
    is strictly increasing between bath poles, so per-branch bracketing is
    reliable even when two roots almost coincide (they then sit on different
    branches).
    """
    if bands is None:
        bands = detect_bands(s)
    v = s.eigenvectors[list(arr.sites), :]
    intervals = _roots.gap_intervals(
        bands,
        min(arr.omega0, float(s.eigenvalues[0])) - arr.g - 1.0,
        max(arr.omega0, float(s.eigenvalues[-1])) + arr.g + 1.0,
    )
    return _roots.contact_roots(
        v[:, None, :] * np.conj(v[None, :, :]), s.eigenvalues,
        1.0 / arr.g ** 2, -arr.omega0 / arr.g ** 2, intervals, n_grid, xtol,
    )


def residue_coefficients(s: SpectralData, arr: EmitterArraySpec, omega: float) -> np.ndarray:
    """Coefficient matrix R of the resolvent residue at a two-atom pole.

    At a root of det F the residue of the full resolvent is
    ``sum_ij R_ij |Psi_i><Psi_j|`` with ``R = g**2 adj(F) / beta`` and
    ``beta = g**2 (det F)'``, assembled from the overlap matrix.  Near a
    doubly degenerate root the ratio is taken through the null vector of F
    instead, which stays finite.
    """
    if arr.m != 2:
        raise ValueError("residue coefficients are defined for exactly two emitters")
    fm = f_matrix(s, arr, complex(omega)).matrix
    fprime = overlap_matrix(s, arr, omega)
    g2 = arr.g ** 2
    adj = np.array([[fm[1, 1], -fm[0, 1]], [-fm[1, 0], fm[0, 0]]], dtype=np.complex128)
    beta = g2 * (
        fm[0, 0] * fprime[1, 1] + fm[1, 1] * fprime[0, 0]
        - fm[0, 1] * fprime[1, 0] - fm[1, 0] * fprime[0, 1]
    )
    scale = g2 * float(np.linalg.norm(fm)) * float(np.linalg.norm(fprime))
    if abs(beta) > 1e-8 * max(scale, 1e-300):
        return g2 * adj / beta
    evals, evecs = np.linalg.eigh(fm)
    null = evecs[:, int(np.argmin(np.abs(evals)))]
    amp = float(np.real(np.conj(null) @ fprime @ null))
    return np.outer(null, np.conj(null)) / amp


def solve_two_atom_poles(
    s: SpectralData,
    arr: EmitterArraySpec,
    bands: BandStructure | None = None,
    xtol: float = 1e-12,
) -> TwoAtomPoles:
    """In-gap pole doublet of two emitters, with normalized residue states.

    All in-gap roots of det F are located; the two closest to ``omega0`` form
    the doublet.  Each residue state is the null-vector combination of the
    dressed states at the exact root, normalized in the full space.
    """
    if arr.m != 2:
        raise ValueError("solve_two_atom_poles requires exactly two emitters")
    if bands is None:
        bands = detect_bands(s)
    roots = det_f_roots(s, arr, bands, xtol=xtol)
    if not roots:
        return TwoAtomPoles(roots=(), omega_minus=None, omega_plus=None,
                            state_minus=None, state_plus=None)
    ranked = sorted(roots, key=lambda w: abs(w - arr.omega0))
    doublet = sorted(ranked[:2])

    def state_at(w: float) -> np.ndarray:
        fm = f_matrix(s, arr, complex(w)).matrix
        evals, evecs = np.linalg.eigh(fm)
        null = evecs[:, int(np.argmin(np.abs(evals)))]
        vec = _psi_kets(s, arr, complex(w)) @ null
        return vec / np.linalg.norm(vec)

    if len(doublet) == 1:
        state = state_at(doublet[0])
        if doublet[0] <= arr.omega0:
            return TwoAtomPoles(roots=tuple(roots), omega_minus=doublet[0], omega_plus=None,
                                state_minus=state, state_plus=None)
        return TwoAtomPoles(roots=tuple(roots), omega_minus=None, omega_plus=doublet[0],
                            state_minus=None, state_plus=state)

    if abs(doublet[1] - doublet[0]) < 1e-9 * max(1.0, abs(doublet[0])):
        # The roots coincide below root-finder resolution (distant atoms): F has
        # a 2D near-null space there; split it along the eigenvectors instead of
        # chasing two copies of the same null vector.
        fm = f_matrix(s, arr, complex(doublet[0])).matrix
        fvals, fvecs = np.linalg.eigh(fm)
        order = np.argsort(np.abs(fvals))
        kets = _psi_kets(s, arr, complex(doublet[0]))
        a = kets @ fvecs[:, order[0]]
        b = kets @ fvecs[:, order[1]]
        a = a / np.linalg.norm(a)
        b = b - (np.vdot(a, b)) * a
        b = b / np.linalg.norm(b)
        return TwoAtomPoles(roots=tuple(roots), omega_minus=doublet[0],
                            omega_plus=doublet[1], state_minus=a, state_plus=b)

    return TwoAtomPoles(
        roots=tuple(roots),
        omega_minus=doublet[0],
        omega_plus=doublet[1],
        state_minus=state_at(doublet[0]),
        state_plus=state_at(doublet[1]),
    )


def _normalized_basis(s, arr, omega, norms):
    kets = _psi_kets(s, arr, complex(omega))
    return kets / np.sqrt(norms)[None, :]


def _gap_distance(bands: BandStructure, omega0: float) -> float:
    gap = bands.gap_containing(omega0)
    if gap is None:
        raise RegimeError(f"omega0={omega0:g} lies inside a band")
    dist = math.inf
    for edge in gap:
        if math.isfinite(edge):
            dist = min(dist, abs(omega0 - edge))
    return dist


def effective_hamiltonian_many(
    s: SpectralData,
    arr: EmitterArraySpec,
    bands: BandStructure | None = None,
) -> EffectiveHamiltonian:
    """Frozen weak-coupling model: bath-mediated couplings evaluated at omega0.

    Diagonal entries are the single-emitter bound energies
    ``omega0 + g**2 <x_i|G_B(omega0)|x_i>``; off-diagonal entries
    ``-g**2 F_ij(omega0)`` carry the mediated hopping.  The matrix equals
    ``omega0 + g**2 gamma^B(omega0)`` on the nose, so its eigenvalues coincide
    with the eigenvalue-branch estimates exposed in ``gamma_eigenvalues``.
    """
    if bands is None:
        bands = detect_bands(s)
    dist = _gap_distance(bands, arr.omega0)
    fm = f_matrix(s, arr, complex(arr.omega0)).matrix
    g2 = arr.g ** 2
    # at z = omega0 the diagonal shift of F vanishes, so gamma^B = -F exactly
    gam = -fm
    mat = arr.omega0 * np.eye(arr.m) + g2 * gam
    norms = np.real(np.diag(overlap_matrix(s, arr, arr.omega0)))
    basis = _normalized_basis(s, arr, arr.omega0, norms)
    gammas = np.linalg.eigvalsh(gam)
    ratio = float(np.max(np.abs(g2 * np.diag(gam))) / dist) if math.isfinite(dist) else 0.0
    return EffectiveHamiltonian(
        matrix=mat,
        basis=basis,
        route="frozen",
        gamma_eigenvalues=tuple(float(x) for x in gammas),
        weak_coupling_ratio=ratio,
    )


def effective_hamiltonian_two(
    s: SpectralData,
    arr: EmitterArraySpec,
    bands: BandStructure | None = None,
) -> EffectiveHamiltonian:
    """Two-emitter weak-coupling model split into symmetric and antisymmetric parts.

    Assembles the symmetric and antisymmetric pieces over the normalized
    dressed states at ``omega0``.  When the beta denominators nearly cancel
    the pieces blow up individually while their sum stays finite; the matrix
    is then assembled from the frozen doublet and its residues instead, and
    ``route`` records which form was used.
    """
    if arr.m != 2:
        raise ValueError("effective_hamiltonian_two requires exactly two emitters")
    if bands is None:
        bands = detect_bands(s)
    dist = _gap_distance(bands, arr.omega0)
    g2 = arr.g ** 2
    fdata = f_matrix(s, arr, complex(arr.omega0))
    fm = fdata.matrix
    fprime = overlap_matrix(s, arr, arr.omega0)
    n1 = float(np.real(fprime[0, 0]))
    n2 = float(np.real(fprime[1, 1]))
    asym = float(np.real(fdata.asymmetry))
    split = float(np.real(fdata.splitting))
    center = float(np.real(fdata.shifted_center))
    beta_p = asym * (n1 - n2) + split * (n1 + n2)
    beta_m = asym * (n1 - n2) - split * (n1 + n2)
    omega_bs = (arr.omega0 - g2 * np.real(fm[0, 0]), arr.omega0 - g2 * np.real(fm[1, 1]))

    # IEEE division here: exact beta degeneracy must fall through to the
    # residue route below instead of raising
    bb = np.float64(beta_p) * np.float64(beta_m)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_s = float(-2.0 * np.float64(split) ** 2 * (n1 + n2) / bb)
        lam_a = float(2.0 * np.float64(center) * asym * (n1 - n2) / bb)
        omega_1 = float(np.float64(split) ** 2 / np.float64(center) + asym)
        omega_2 = float(np.float64(split) ** 2 / np.float64(center) - asym)
        # H_a diagonal entries via the product lam_a * Omega_i, which stays
        # finite even when the shifted center crosses zero.
        ha_diag = (
            float(2.0 * asym * (n1 - n2) * (np.float64(split) ** 2 + asym * center) / bb),
            float(2.0 * asym * (n1 - n2) * (np.float64(split) ** 2 - asym * center) / bb),
        )

    hop = -g2 * fm[0, 1]
    h_s = lam_s * np.array([[omega_bs[0], hop], [np.conj(hop), omega_bs[1]]],
                           dtype=np.complex128)
    h_a = np.array([[ha_diag[0], lam_a * hop], [lam_a * np.conj(hop), ha_diag[1]]],
                   dtype=np.complex128)
    scale = np.sqrt(np.array([n1, n2]))
    to_basis = np.outer(scale, scale)
    h_s_n = h_s * to_basis
    h_a_n = h_a * to_basis

    beta_max = max(abs(beta_p), abs(beta_m))
    degenerate = beta_max == 0.0 or not math.isfinite(beta_max) or (
        min(abs(beta_p), abs(beta_m)) < BETA_DEGENERACY * beta_max
    )
    mat = h_s_n + h_a_n
    if degenerate or not np.all(np.isfinite(mat)):
        # The analytic pieces cancel catastrophically here.  Assemble instead
        # from the frozen pole doublet omega0 - g**2 f_i and its residues
        # v v^dag / (v^dag F' v), which needs no beta denominator.
        fvals, fvecs = np.linalg.eigh(fm)
        mat = np.zeros((2, 2), dtype=np.complex128)
        for fv, v in zip(fvals, fvecs.T):
            mat += (arr.omega0 - g2 * fv) * np.outer(v, np.conj(v)) / float(
                np.real(np.conj(v) @ fprime @ v)
            )
        mat = mat * to_basis
        route = "residue"
    else:
        route = "analytic"

    decomposition = TwoAtomDecomposition(
        lambda_s=float(lam_s), lambda_a=float(lam_a),
        omega_1=float(omega_1), omega_2=float(omega_2),
        beta_plus=float(beta_p), beta_minus=float(beta_m),
        asymmetry=asym, splitting=split, shifted_center=center,
        h_s=h_s_n, h_a=h_a_n,
    )
    norms = np.array([n1, n2])
    basis = _normalized_basis(s, arr, arr.omega0, norms)
    gammas = np.linalg.eigvalsh(-fm)
    ratio = float(max(abs(g2 * fm[0, 0]), abs(g2 * fm[1, 1])) / dist) if math.isfinite(dist) else 0.0
    return EffectiveHamiltonian(
        matrix=mat,
        basis=basis,
        route=route,
        gamma_eigenvalues=tuple(float(np.real(x)) for x in gammas),
        weak_coupling_ratio=ratio,
        decomposition=decomposition,
    )
