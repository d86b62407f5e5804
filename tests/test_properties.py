"""Model-independent properties under ``hypothesis``: the bath resolvent matrix.

Random baths from the conftest builder, with complex hoppings or with their
moduli (a real Hamiltonian, whose eigenvectors take the real branch of the
spectral sum), at points z across the spectrum and past it on both sides of
the real axis.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from dressedgf import BathSpec, diagonalize_bath, green_matrix

from conftest import random_bath_spec


def _bath(seed, real):
    spec = random_bath_spec(np.random.default_rng(seed))
    if real:
        spec = BathSpec(n_sites=spec.n_sites, frequencies=spec.frequencies,
                        hoppings=tuple((x, xp, complex(abs(j))) for x, xp, j in spec.hoppings))
    return spec


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
    where=st.floats(0.0, 1.0),
    height=st.floats(0.01, 1.0),
    lower=st.booleans(),
)
def test_green_matrix_inverts_the_shifted_bath(seed, real, where, height, lower):
    spec = _bath(seed, real)
    s = diagonalize_bath(spec)
    if real:
        assert not np.any(s.eigenvectors.imag)
    width = max(s.spectral_width, 1.0)
    lo, hi = s.eigenvalues[0] - width, s.eigenvalues[-1] + width
    z = complex(lo + where * (hi - lo), (-height if lower else height) * width)
    g = green_matrix(s, z)
    eye = np.eye(s.n_sites)
    assert np.max(np.abs((z * eye - spec.to_matrix()) @ g - eye)) <= 1e-10
    ref = (s.eigenvectors / (z - s.eigenvalues)[None, :]) @ np.conj(s.eigenvectors.T)
    assert np.max(np.abs(g - ref)) <= 1e-14 * np.max(np.abs(ref))
