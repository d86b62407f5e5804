"""Independent output checks, built on numpy alone.

Nothing here calls into dressedgf: every reference is rebuilt from the
benchmark's own description of the bath and emitters.  Each check returns a
list of failure strings; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

# Tolerances relative to the spectral width W of the bath.
ENERGY_RTOL = 1e-8      # solver energies against dense eigenvalues
RESIDUAL_RTOL = 1e-7    # ||H v - E v|| / ||v|| of returned states
EDGE_RTOL = 1e-13       # margin that keeps band-edge eigenvalues out of the gap count
BARE_RTOL = 1e-10       # window around an isolated in-gap bath level, see gap_count
SCATTER_RESIDUAL = 1e-5  # the same bound oracle.compare applies to scattering states


def chain_levels(n, omega_c, j):
    """Analytic spectrum of the open uniform chain, ascending."""
    k = np.arange(n, 0, -1)
    return omega_c + 2.0 * abs(j) * np.cos(k * np.pi / (n + 1))


def eigenvalues(h):
    """Dense eigenvalues, through the real solver when ``h`` has no imaginary part."""
    if not np.any(h.imag):
        return np.linalg.eigvalsh(h.real)
    return np.linalg.eigvalsh(h)


def full_matrix(bath_h, emitters):
    """Dense Hamiltonian over ``[e_1..e_M, x_0..x_{N-1}]``; emitters are (omega0, g, site)."""
    m, n = len(emitters), bath_h.shape[0]
    h = np.zeros((m + n, m + n), dtype=np.complex128)
    h[m:, m:] = bath_h
    for i, (omega0, g, site) in enumerate(emitters):
        h[i, i] = omega0
        h[i, m + site] = g
        h[m + site, i] = g
    return h


def gap_regions(bands, width):
    """Open energy intervals outside every band, shrunk by an edge margin."""
    tau = EDGE_RTOL * width
    edges = [(-np.inf, bands[0][0] - tau)]
    edges += [(hi1 + tau, lo2 - tau) for (_, hi1), (lo2, _) in zip(bands, bands[1:])]
    edges.append((bands[-1][1] + tau, np.inf))
    return edges


def in_regions(values, regions):
    return sorted(float(v) for v in values if any(lo < v < hi for lo, hi in regions))


def gap_count(found, exact, regions, width, what, bare=()):
    """Solver energies in the gaps must match the dense eigenvalues there one to one.

    ``bare`` lists isolated bath levels inside a gap, such as the edge-state
    pair of a topological chain.  Within ``BARE_RTOL * width`` of a bare level
    a dense eigenvalue may belong to a bath state the contact barely touches,
    which a solver need not report: there the solver must report at least the
    dense levels beyond one per bare level, and at most all of them.
    """
    tol = BARE_RTOL * width

    def on_bare(v):
        return any(abs(v - b) < tol for b in bare)

    got = in_regions(found, regions)
    ref = in_regions(exact, regions)
    got_bare = sum(1 for v in got if on_bare(v))
    ref_bare = sum(1 for v in ref if on_bare(v))
    if not ref_bare - min(len(bare), ref_bare) <= got_bare <= ref_bare:
        return [f"{what}: {got_bare} energies on the bare levels, dense count {ref_bare}"]
    got = [v for v in got if not on_bare(v)]
    ref = [v for v in ref if not on_bare(v)]
    if len(got) != len(ref):
        return [f"{what}: {len(got)} in-gap energies, dense count {len(ref)}"]
    err = max((abs(a - b) for a, b in zip(got, ref)), default=0.0)
    if err > ENERGY_RTOL * width:
        return [f"{what}: in-gap energy error {err:.3e}"]
    return []


def residual(h, vec, energy, width, what, mask_site=None):
    """Relative eigen-residual of one returned state."""
    vec = np.asarray(vec, dtype=np.complex128)
    norm = float(np.linalg.norm(vec))
    if not np.isfinite(norm) or norm == 0.0:
        return [f"{what}: empty or non-finite state"]
    r = h @ vec - energy * vec
    if mask_site is not None:
        r[mask_site] = 0.0
    res = float(np.linalg.norm(r)) / norm
    if not res <= RESIDUAL_RTOL * width:
        return [f"{what}: residual {res:.3e} at E={energy:.12g}"]
    return []


def nearest_levels(exact, centre, m, regions):
    """The ``m`` in-gap dense eigenvalues closest to ``centre``, ascending."""
    cand = np.array(in_regions(exact, regions))
    if cand.size < m:
        return None
    return np.sort(cand[np.argsort(np.abs(cand - centre))[:m]])


def effective_levels(model, exact, centre, regions, tol, what):
    """Eigenvalues of a weak-coupling model against the nearest dense in-gap levels."""
    model = np.sort(np.asarray(model, dtype=np.float64))
    ref = nearest_levels(exact, centre, model.size, regions)
    if ref is None:
        return [f"{what}: fewer than {model.size} dense in-gap levels"]
    err = float(np.max(np.abs(model - ref)))
    if not err <= tol:
        return [f"{what}: model eigenvalue error {err:.3e} > {tol:.3e}"]
    return []


def spectrum(levels, ref, width, what):
    levels = np.asarray(levels, dtype=np.float64)
    if levels.shape != ref.shape:
        return [f"{what}: {levels.size} levels, expected {ref.size}"]
    err = float(np.max(np.abs(np.sort(levels) - ref)))
    if not err <= ENERGY_RTOL * width:
        return [f"{what}: spectrum error {err:.3e}"]
    return []


def read_csv(path):
    """Data rows of a CLI table, without the units comment and the header."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]
