"""Search intervals and the one root finder behind every bound-state search.

Impurity, vacancy, emitter and emitter-array bound states are all roots of the
sorted eigenvalue branches of F(w) = (slope*w + offset) - Gamma_S(w), with
Gamma_S the bath Green function projected on the M contact sites.  F' =
slope + Gamma_S^2 is positive definite (the Gram matrix of the dressed
states), so by Weyl's inequality every sorted branch increases strictly
between the bath poles: a branch has at most one root in a search interval,
and the scan grid only narrows its bracket.  Only the innermost points of an
interval decide whether a root is seen; one closer to an open end than its
innermost point is missed.  Every search calls :func:`contact_roots`.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels

BISECT_XTOL = 1e-12
#: Scan points per search interval: for one contact site, and for more.
SCAN_POINTS = (64, 256)


def gap_intervals(bands, lower, upper):
    """Search intervals ``(a, b, a_open, b_open)`` over the gaps of ``bands``.

    Band edges are open ends.  The half-infinite gaps end at the finite
    ``lower`` and ``upper`` bounds, as closed ends; a bound of ``None`` skips
    that gap.
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
        intervals.append((lo, hi, lo_open, hi_open))
    return intervals


def scan_points(a: float, b: float, a_open: bool, b_open: bool, n: int):
    """``n`` even points between the inner ends of (a, b); None with no float inside.

    A closed end is its own inner end; an open end's is ``1e-13 * (b - a)``
    inside, or the nearest float inside if that rounds onto the end.
    """
    if not np.nextafter(a, b) < b:
        return None
    length = b - a
    lo = max(a + 1e-13 * length, np.nextafter(a, b)) if a_open else a
    hi = min(b - 1e-13 * length, np.nextafter(b, a)) if b_open else b
    return np.linspace(lo, hi, n)


def branch_bracket(xs: np.ndarray, fv: np.ndarray):
    """The one bracket (lo, hi) of an increasing branch scanned at ``xs``, or None.

    It runs from the last negative value to the next, non-negative one; an
    exact zero there is the root, ``(x, x)``.  A non-finite end brackets nothing.
    """
    neg = np.flatnonzero(fv < 0.0)
    i = neg[-1] + 1 if neg.size else 0
    if i == xs.size or not 0.0 <= fv[i] < math.inf:
        return None
    if fv[i] == 0.0:
        return float(xs[i]), float(xs[i])
    return (float(xs[i - 1]), float(xs[i])) if i and fv[i - 1] > -math.inf else None


def bisect(f, lo: float, hi: float) -> float:
    """Plain bisection of a rising crossing: ``f(lo) < 0 <= f(hi)``, at most 200 steps."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= BISECT_XTOL:
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


def pole_function_scan(weights, energies, xs, slope, offset) -> np.ndarray:
    """The M sorted branches of F(w) = (slope*w + offset) - Gamma_S(w) on a real grid.

    Row ``n`` holds the branch values at ``xs[n]``, ascending in Gamma_S and
    so descending in F.
    """
    return slope * xs[:, None] + offset - _branches(_kernels.mode_sum(weights, energies, xs))


def contact_roots(weights, energies, slope, offset, intervals):
    """Roots of the M sorted branches of F(w) = (slope*w + offset) - Gamma_S(w).

    ``weights[i, j, k] = <x_i|k><k|x_j>`` are the pair weights of the bath
    modes at ``energies`` on the M contact sites, so ``Gamma_S(w)[i, j] =
    sum_k weights[i, j, k]/(w - energies[k])`` (:func:`_kernels.mode_sum`).
    ``intervals`` is an iterable of (a, b, a_open, b_open); open ends are
    poles or band edges.  Each interval is scanned at ``SCAN_POINTS[M > 1]``
    points (:func:`scan_points`); each branch's one bracket
    (:func:`branch_bracket`) is bisected and Newton-polished with F' = slope
    + v^H Gamma_S^2 v, v the branch eigenvector.  The intervals share no
    closed end, so no root is found twice on one branch.  Returns the roots
    of every branch, sorted: a root on two branches is listed twice.
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

    found = []
    for a, b_end, a_open, b_open in intervals:
        xs = scan_points(a, b_end, a_open, b_open, SCAN_POINTS[m > 1])
        if xs is None:
            continue
        values = pole_function_scan(weights, energies, xs, slope, offset)
        for b in range(m):
            bracket = branch_bracket(xs, values[:, b])
            if bracket is not None:  # an exact zero (x, x) bisects and polishes to x
                root = bisect(lambda w: f_branch(w, b), *bracket)
                found.append(float(polish(root, b, *bracket)))
    return sorted(found)

