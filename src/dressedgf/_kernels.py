"""Hot numeric kernels: bare-bath mode sums, vectorized over the modes."""

from __future__ import annotations

import numpy as np

# Reported by the benchmark's environment line; the kernels are plain numpy
# and there is no numba path.
NUMBA_ENABLED = False


def resolvent_sum(weights: np.ndarray, energies: np.ndarray, z: complex) -> complex:
    """Sum of weights[k] / (z - energies[k])."""
    return complex(np.sum(weights / (z - energies)))


def resolvent_sum_squared(weights: np.ndarray, energies: np.ndarray, z: complex) -> complex:
    """Sum of weights[k] / (z - energies[k])**2."""
    d = z - energies
    return complex(np.sum(weights / (d * d)))
