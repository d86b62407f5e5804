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


def resolvent_sum_grid(weights: np.ndarray, energies: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """resolvent_sum evaluated for every z in ``zs``."""
    return (weights[None, :] / (zs[:, None] - energies[None, :])).sum(axis=1)


def pole_function_grid(
    weights: np.ndarray,
    energies: np.ndarray,
    omegas: np.ndarray,
    slope: float,
    offset: float,
) -> np.ndarray:
    """slope*w + offset - sum_k weights[k]/(w - energies[k]) on a real grid.

    Covers both pole functions used for root finding: the fixed-strength
    impurity one (slope 0, offset 1/strength) and the emitter one
    (slope 1/g^2, offset -omega0/g^2).
    """
    sums = (weights[None, :] / (omegas[:, None] - energies[None, :])).sum(axis=1)
    return slope * omegas + offset - sums
