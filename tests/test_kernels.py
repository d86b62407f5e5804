"""The one mode-sum kernel against explicit per-mode loops."""

import numpy as np

from dressedgf import _kernels, _roots


def _random_mode_data(rng, n):
    weights = rng.normal(size=n) + 1j * rng.normal(size=n)
    energies = np.sort(rng.uniform(-2.0, 2.0, n))
    return weights, energies


def _loop_sum(weights, energies, z, power=1):
    total = 0.0 + 0.0j
    for w, e in zip(weights, energies):
        total += w / (z - e) ** power
    return total


def test_resolvent_sum_matches_numpy():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        weights, energies = _random_mode_data(rng, n)
        z = complex(rng.uniform(-3, 3), rng.uniform(0.01, 1.0))
        got = _kernels.mode_sum(weights[None, None], energies, z)[0, 0]
        ref = _loop_sum(weights, energies, z)
        assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


def test_resolvent_sum_squared_matches_numpy():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        weights, energies = _random_mode_data(rng, n)
        z = complex(rng.uniform(-3, 3), rng.uniform(0.01, 1.0))
        got = _kernels.mode_sum(weights[None, None], energies, z, 2)[0, 0]
        ref = _loop_sum(weights, energies, z, power=2)
        assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


def test_pole_function_grid_matches_numpy():
    rng = np.random.default_rng(14)
    weights = np.abs(rng.normal(size=20)) + 0.01
    energies = np.sort(rng.uniform(-2.0, 2.0, 20))
    grid = np.linspace(2.1, 5.0, 200)
    for omega0, g in [(2.5, 0.3), (-3.0, 0.7)]:
        slope, offset = 1.0 / g**2, -omega0 / g**2
        got = _roots.pole_function_scan(weights[None, None], energies, grid, slope, offset)
        ref = np.array([
            slope * w + offset - _loop_sum(weights, energies, w).real for w in grid
        ])
        np.testing.assert_allclose(got[:, 0], ref, rtol=0, atol=1e-12)
