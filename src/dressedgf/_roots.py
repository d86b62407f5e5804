"""Search intervals, bracketing and bisection for pole-function root finding.

The scalar pole functions f and F are strictly increasing between their real
poles (their derivative picks up the positive-definite squared resolvent), so
sign changes on a scan grid pin down every root.  Grids are clustered
geometrically towards pole endpoints to catch roots exponentially close to a
band edge.
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
    """Scan grid on (a, b); open ends get geometrically shrinking margins."""
    length = b - a
    pts = [a + length * m for m in _EDGE_MARGINS] if a_open else [a]
    pts.extend(np.linspace(a + 1e-3 * length, b - 1e-3 * length, max(n_grid, 2)))
    if b_open:
        pts.extend(b - length * m for m in _EDGE_MARGINS)
    else:
        pts.append(b)
    xs = np.unique(np.asarray(pts, dtype=np.float64))
    return xs[(xs >= min(a, b)) & (xs <= max(a, b))]


def sign_change_brackets(xs: np.ndarray, fv: np.ndarray):
    """Return (exact_roots, brackets) from grid values; brackets keep f signs."""
    roots = []
    brackets = []
    for i in range(xs.shape[0] - 1):
        f1, f2 = fv[i], fv[i + 1]
        if not (np.isfinite(f1) and np.isfinite(f2)):
            continue
        if f1 == 0.0:
            roots.append(float(xs[i]))
        elif (f1 < 0.0 < f2) or (f1 > 0.0 > f2):
            brackets.append((float(xs[i]), float(xs[i + 1]), float(f1), float(f2)))
    if xs.shape[0] and np.isfinite(fv[-1]) and fv[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots, brackets


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


def _newton_polish(root, weights, energies, slope, offset, lo, hi):
    w = root
    for _ in range(4):
        f = slope * w + offset - _kernels.resolvent_sum(weights, energies, complex(w)).real
        fp = slope + _kernels.resolvent_sum_squared(weights, energies, complex(w)).real
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


def pole_function_roots(weights, energies, slope, offset, intervals, n_grid=512,
                        xtol: float = BISECT_XTOL):
    """All roots of slope*w + offset - sum_k weights[k]/(w - energies[k]).

    ``intervals`` is an iterable of (a, b, a_open, b_open); open ends are
    treated as poles or band edges and approached with shrinking margins.
    Returns roots sorted ascending, deduplicated within 10*xtol.
    """
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    energies = np.ascontiguousarray(energies, dtype=np.float64)

    def pole_function(w):
        return slope * w + offset - float(np.sum(weights / (w - energies)))

    found = []
    for a, b, a_open, b_open in intervals:
        if not (b > a):
            continue
        xs = grid_for_interval(a, b, a_open, b_open, n_grid)
        fv = _kernels.pole_function_grid(weights, energies, xs, slope, offset)
        roots, brackets = sign_change_brackets(xs, fv)
        found.extend(roots)
        for lo, hi, flo, fhi in brackets:
            root = bisect(pole_function, lo, hi, flo, fhi, xtol)
            found.append(_newton_polish(root, weights, energies, slope, offset, lo, hi))
    return dedupe(found, 10.0 * xtol)


def dedupe(roots, tol: float):
    out = []
    for r in sorted(roots):
        if not out or r - out[-1] > tol:
            out.append(r)
    return out

