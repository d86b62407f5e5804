"""Several identical emitters: F matrix, resolvent and effective models.

The emitters share ``omega0`` and ``g`` but sit on distinct sites.  The
resolvent is the rank-M generalization of the single-emitter case with the
M x M pole matrix F(z), evaluated by the contact engine of
:mod:`dressedgf.impurity`; bound doublets, the Born-like T-matrix series and
the weak-coupling effective Hamiltonians all derive from it.

Vectors over the coupled space are ordered ``[e_1..e_M, x_0..x_{N-1}]``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .bath import BandStructure, Contact, SpectralData, _gamma_block, detect_bands
from .errors import PoleError, RegimeError
from .impurity import (
    POLE_TOL,
    _bound_states,
    _contact_kets,
    _contact_resolvent,
    _emitter_roots,
    _null_vectors,
    _pole_matrix,
)

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

    def _contact(self, s: SpectralData) -> Contact:
        """The first emitter's contact, on every emitter's site."""
        return replace(self.emitters[0]._contact(s), sites=self.sites)


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
    """Raw pieces of the symmetric/antisymmetric split of the two-atom model.

    ``omega_1`` and ``omega_2`` divide by the shifted center; they are NaN
    where the center is not resolved above its rounding.
    """

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


def f_matrix(s: SpectralData, arr: EmitterArraySpec, z: complex) -> FMatrix:
    """F_ij(z) = (z - omega0)/g**2 delta_ij - <x_i|G_B(z)|x_j>.

    Evaluated in the contact form ``z/g**2 - omega0/g**2 - Gamma_S`` that the
    root finder uses.  For two emitters the asymmetry, level splitting and
    shifted center that control the weak-coupling doublet are attached.
    """
    z = complex(z)
    c = arr._contact(s)
    gam = _gamma_block(c, z)
    return _with_pair_scalars(arr, z, _pole_matrix(c, z, gam), gam)


def _with_pair_scalars(arr: EmitterArraySpec, z: complex, mat: np.ndarray,
                       gam: np.ndarray) -> FMatrix:
    """The :class:`FMatrix` of ``mat``, F at ``z`` built from the Gamma_S block ``gam``."""
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
    return _overlap(arr._contact(s), omega)


def _overlap(c: Contact, omega: float) -> np.ndarray:
    """F'(omega) = slope + Gamma_S^2 of the contact: :func:`overlap_matrix`."""
    omega = complex(omega)
    if omega.imag != 0.0:
        raise ValueError("overlap matrix is defined at real energies only")
    out = _gamma_block(c, omega, 2)
    out[np.diag_indices(len(c.sites))] += c.slope
    return out


def multi_green(s: SpectralData, arr: EmitterArraySpec, z: complex) -> np.ndarray:
    """Full resolvent over ``[e_1..e_M, x_0..x_{N-1}]`` via the rank-M update."""
    return _contact_resolvent(arr._contact(s), z, "emitter-array")[0]


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
    if not isinstance(k_max, (int, np.integer)) or isinstance(k_max, bool) or k_max < 0:
        raise ValueError(f"k_max must be an integer >= 0, got {k_max!r}")
    z = complex(z)
    if abs(z - arr.omega0) < POLE_TOL:
        raise PoleError(f"bare emitter pole at z={z}")
    gamma_e = 1.0 / (z - arr.omega0)
    c = arr._contact(s)
    gam = _gamma_block(c, z)
    t = arr.g ** 2 * gamma_e * gam
    rho = float(np.max(np.abs(np.linalg.eigvals(t))))

    closed, kets, bras, base = _contact_resolvent(c, z, "emitter-array", gam, keep_base=True)
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
):
    """Every in-gap root of det F, with multiplicity across branches.

    det F factorizes over the sorted eigenvalue branches of the site-projected
    bath Green function; each branch function ``(w - omega0)/g**2 - mu_b(w)``
    is strictly increasing between bath poles, so it has at most one root per
    gap, and two roots that almost coincide sit on different branches.
    """
    return _emitter_roots(arr._contact(s), arr.omega0, arr.g, bands)


def residue_coefficients(s: SpectralData, arr: EmitterArraySpec, omega: float) -> np.ndarray:
    """Coefficient matrix R of the resolvent residue at a two-atom pole.

    At a root of det F the residue of the full resolvent is
    ``sum_ij R_ij |Psi_i><Psi_j|`` with ``R = v v^H / (v^H F' v)``, v the null
    vector of F and F' the overlap matrix.  At a simple root this equals
    ``adj(F) / (det F)'``, and it stays finite at a doubly degenerate one.
    """
    if arr.m != 2:
        raise ValueError("residue coefficients are defined for exactly two emitters")
    c, z = arr._contact(s), complex(omega)
    null = _null_vectors(_pole_matrix(c, z, _gamma_block(c, z)), 1)[:, 0]
    amp = float(np.real(np.conj(null) @ _overlap(c, omega) @ null))
    return np.outer(null, np.conj(null)) / amp


def solve_two_atom_poles(
    s: SpectralData,
    arr: EmitterArraySpec,
    bands: BandStructure | None = None,
) -> TwoAtomPoles:
    """In-gap pole doublet of two emitters, with normalized residue states.

    All in-gap roots of det F are located; the two closest to ``omega0`` form
    the doublet.  Each residue state is the null-vector combination of the
    dressed states at the exact root, normalized in the full space.
    """
    if arr.m != 2:
        raise ValueError("solve_two_atom_poles requires exactly two emitters")
    c = arr._contact(s)
    roots = _emitter_roots(c, arr.omega0, arr.g, bands)
    doublet, states, _ = _bound_states(
        c, sorted(sorted(roots, key=lambda w: abs(w - arr.omega0))[:2]))
    if len(doublet) == 1 and doublet[0] > arr.omega0:
        # a lone pole above omega0 is the plus pole
        doublet, states = [None] + doublet, [None] + states
    doublet, states = (doublet + [None, None])[:2], (states + [None, None])[:2]
    return TwoAtomPoles(roots=tuple(roots), omega_minus=doublet[0], omega_plus=doublet[1],
                        state_minus=states[0], state_plus=states[1])


def _at_omega0(s: SpectralData, arr: EmitterArraySpec, bands):
    """Gamma_S and F' at omega0, the dressed states there each normalized alone, and
    omega0's distance to the bands.  At omega0, F = -Gamma_S by definition."""
    gap = (detect_bands(s) if bands is None else bands).gap_containing(arr.omega0)
    if gap is None:
        raise RegimeError(f"omega0={arr.omega0:g} lies inside a band")
    dist = min((abs(arr.omega0 - edge) for edge in gap if math.isfinite(edge)), default=math.inf)
    c = arr._contact(s)
    gam, fprime = _gamma_block(c, arr.omega0), _overlap(c, arr.omega0)
    return gam, fprime, _contact_kets(c, arr.omega0) / np.sqrt(np.real(np.diag(fprime))), dist


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
    gam, _, basis, dist = _at_omega0(s, arr, bands)
    g2 = arr.g ** 2
    mat = arr.omega0 * np.eye(arr.m) + g2 * gam
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
    gam, fprime, basis, dist = _at_omega0(s, arr, bands)
    g2 = arr.g ** 2
    fdata = _with_pair_scalars(arr, complex(arr.omega0), -gam, gam)
    fm = fdata.matrix
    n1 = float(np.real(fprime[0, 0]))
    n2 = float(np.real(fprime[1, 1]))
    asym = float(np.real(fdata.asymmetry))
    split = float(np.real(fdata.splitting))
    center = float(np.real(fdata.shifted_center))
    # the center's rounding: omega0 plus g**2 times N mode sums, each term of
    # which Cauchy-Schwarz bounds by sqrt(<x|G_B^2|x>) = sqrt(n_i - 1/g**2)
    center_tol = s.n_sites * np.finfo(float).eps * (
        abs(arr.omega0) + g2 * math.sqrt(max(n1, n2, 1.0 / g2) - 1.0 / g2)
    )
    beta_p = asym * (n1 - n2) + split * (n1 + n2)
    beta_m = asym * (n1 - n2) - split * (n1 + n2)
    omega_bs = (arr.omega0 - g2 * np.real(fm[0, 0]), arr.omega0 - g2 * np.real(fm[1, 1]))

    # IEEE division here: exact beta degeneracy must fall through to the
    # residue route below instead of raising
    bb = np.float64(beta_p) * np.float64(beta_m)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_s = float(-2.0 * np.float64(split) ** 2 * (n1 + n2) / bb)
        lam_a = float(2.0 * np.float64(center) * asym * (n1 - n2) / bb)
        omega_1 = omega_2 = math.nan
        if abs(center) > center_tol:
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
