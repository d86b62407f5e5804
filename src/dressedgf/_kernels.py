"""The one mode-sum kernel of the bath Green functions.

Gamma_S blocks, their square, every element, the scattering row sums and the
root finder's grid scans all call :func:`mode_sum` on the pair weights
``<x_i|k><k|x_j>``; only columns and the full matrix are matrix products.
"""

from __future__ import annotations

import numpy as np

# Reported by the benchmark's environment line; the kernel is plain numpy
# and there is no numba path.
NUMBA_ENABLED = False


def mode_sum(weights, energies, w, power: int = 1) -> np.ndarray:
    """Gamma_S (``power=1``) or Gamma_S^2 (``power=2``) at ``w``, one mode sum per site pair.

    ``weights[i, j, k] = <x_i|k><k|x_j>``, so ``out[..., i, j] = sum_k
    weights[i, j, k] / (w - energies[k])**power``.  ``w`` is a scalar or a
    1-D grid; the site indices come last.  A 1 x 1 block at a real ``w`` is
    summed in real arithmetic; otherwise every weight enters as given.
    """
    d = np.subtract.outer(w, energies)
    if power == 2:
        d = d * d
    m = weights.shape[0]
    if m == 1 and np.isrealobj(d):
        weights = weights.real
    out = np.empty(d.shape[:-1] + (m, m), dtype=np.result_type(weights, d))
    for i in range(m):
        for j in range(m):
            out[..., i, j] = np.sum(weights[i, j] / d, axis=-1)
    return out
