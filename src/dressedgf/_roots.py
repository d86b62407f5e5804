"""Search intervals and the one root finder behind every bound-state search.

Impurity, vacancy, emitter and emitter-array bound states are all roots of the
sorted eigenvalue branches of F(w) = (slope*w + offset) - Gamma_S(w), with
Gamma_S the bath Green function projected on the M contact sites.  Each
branch is strictly increasing between the bath poles (F' = slope + Gamma_S^2
is the positive-definite Gram matrix of the dressed states), so sign changes
on a scan grid pin down every root.  Grids are clustered geometrically
towards pole endpoints to catch roots exponentially close to a band edge.
Every search enters through :func:`dressedgf.impurity._contact_roots`.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels

BISECT_XTOL = 1e-12
_EDGE_MARGINS = (1e-13, 1e-10, 1e-7, 1e-4)


def gap_intervals(bands, lower, upper, split=None):
    """Search intervals ``(a, b, a_open, b_open)`` over the gaps of ``bands``.

    Band edges are open ends.  The half-infinite gaps end at the finite
    ``lower`` and ``upper`` bounds, as closed ends; a bound of ``None`` skips
    that gap.  ``split`` cuts the gap containing it in two, closed at
    ``split``.
    """
    intervals = []
    for lo, hi in bands.gaps:
        lo_open = hi_open = True
        if math.isinf(lo):
            if lower is None:
                continue
            lo, lo_open = lower, False
        if math.isinf(hi):
            if upper is None:
                continue
            hi, hi_open = upper, False
        if split is not None and lo < split < hi:
            intervals.append((lo, split, lo_open, False))
            intervals.append((split, hi, False, hi_open))
        else:
            intervals.append((lo, hi, lo_open, hi_open))
    return intervals


def grid_for_interval(a: float, b: float, a_open: bool, b_open: bool, n_grid: int) -> np.ndarray:
    """Scan grid on (a, b); open ends get geometrically shrinking margins.

    A margin never rounds onto an open end: the innermost point stays at
    least one floating-point step inside.
    """
    length = b - a
    pts = [max(a + length * m, np.nextafter(a, b)) for m in _EDGE_MARGINS] if a_open else [a]
    pts.extend(np.linspace(a + 1e-3 * length, b - 1e-3 * length, max(n_grid, 2)))
    if b_open:
        pts.extend(min(b - length * m, np.nextafter(b, a)) for m in _EDGE_MARGINS)
    else:
        pts.append(b)
    return np.unique(np.asarray(pts, dtype=np.float64))


def sign_change_brackets(xs: np.ndarray, fv: np.ndarray):
    """Return (exact_roots, brackets) from grid values; brackets keep f signs.

    Every grid point where f is exactly zero is a root.  A bracket
    ``(lo, hi, f(lo), f(hi))`` joins neighbouring finite, nonzero values of
    opposite sign; a non-finite value brackets nothing.
    """
    left, right = fv[:-1], fv[1:]
    ok = np.isfinite(left) & np.isfinite(right) & (left != 0.0) & (right != 0.0)
    cross = np.flatnonzero(ok & ((left < 0.0) != (right < 0.0)))
    brackets = [(float(xs[i]), float(xs[i + 1]), float(fv[i]), float(fv[i + 1])) for i in cross]
    return xs[fv == 0.0].tolist(), brackets


def bisect(f, lo: float, hi: float, flo: float, fhi: float, xtol: float = BISECT_XTOL,
           max_iter: int = 200) -> float:
    """Plain bisection on a bracket; works for either crossing direction."""
    rising = flo < 0.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if (fm < 0.0) == rising:
            lo = mid
        else:
            hi = mid
        if hi - lo <= xtol:
            break
    return 0.5 * (lo + hi)


def _branches(gam: np.ndarray, vectors: bool = False):
    """Ascending eigenvalues (and eigenvectors) of Hermitian Gamma_S blocks.

    A 1 x 1 block is its own branch and needs no eigensolve.
    """
    if gam.shape[-1] == 1:
        mu = gam[..., 0].real
        return (mu, np.ones(gam.shape)) if vectors else mu
    return np.linalg.eigh(gam) if vectors else np.linalg.eigvalsh(gam)


def pole_function_grid(weights, energies, xs, slope, offset) -> np.ndarray:
    """The M sorted branches of F(w) = (slope*w + offset) - Gamma_S(w) on a real grid.

    Row ``n`` holds the branch values at ``xs[n]``, ascending in Gamma_S and
    so descending in F.
    """
    return slope * xs[:, None] + offset - _branches(_kernels.mode_sum(weights, energies, xs))


def contact_roots(weights, energies, slope, offset, intervals, n_grid=512,
                  xtol: float = BISECT_XTOL):
    """Roots of the M sorted branches of F(w) = (slope*w + offset) - Gamma_S(w).

    ``weights[i, j, k] = <x_i|k><k|x_j>`` are the pair weights of the bath
    modes at ``energies`` on the M contact sites, so ``Gamma_S(w)[i, j] =
    sum_k weights[i, j, k]/(w - energies[k])`` (:func:`_kernels.mode_sum`).
    ``intervals`` is an iterable of (a, b, a_open, b_open); open ends are
    treated as poles or band edges and approached with shrinking margins.
    Each bracketed root is bisected on its branch and Newton-polished with F'
    = slope + v^H Gamma_S^2 v, v the branch eigenvector.  Returns the roots
    of every branch, sorted ascending, with each branch deduplicated within
    10*xtol: a root on two branches is listed twice.
    """
    m = weights.shape[0]

    def gamma(w, power=1):
        return _kernels.mode_sum(weights, energies, w, power)

    def f_branch(w, b):
        return slope * w + offset - _branches(gamma(w))[b]

    def polish(w, b, lo, hi):
        for _ in range(4):
            z = complex(w)
            mu, vecs = _branches(gamma(z), vectors=True)
            v = vecs[:, b]
            f = slope * w + offset - mu[b]
            fp = slope + float(np.real(np.conj(v) @ gamma(z, 2) @ v))
            if fp <= 0.0 or not np.isfinite(fp):
                break
            step = f / fp
            nxt = w - step
            if not (lo < nxt < hi):
                break
            w = nxt
            if abs(step) < 1e-15 * max(1.0, abs(w)):
                break
        return w

    found = [[] for _ in range(m)]
    for a, b_end, a_open, b_open in intervals:
        if not (b_end > a):
            continue
        xs = grid_for_interval(a, b_end, a_open, b_open, n_grid)
        values = pole_function_grid(weights, energies, xs, slope, offset)
        for b in range(m):
            exact, brackets = sign_change_brackets(xs, values[:, b])
            found[b].extend(exact)
            for lo, hi, flo, fhi in brackets:
                root = bisect(lambda w: f_branch(w, b), lo, hi, flo, fhi, xtol)
                found[b].append(float(polish(root, b, lo, hi)))
    return sorted(r for roots in found for r in dedupe(roots, 10.0 * xtol))


def dedupe(roots, tol: float):
    out = []
    for r in sorted(roots):
        if not out or r - out[-1] > tol:
            out.append(r)
    return out
