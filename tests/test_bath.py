"""Bare-bath builders, spectral data and resolvent elements."""

import math

import numpy as np
import pytest

from dressedgf import (
    BathSpec,
    BranchError,
    ConfigError,
    EmitterSpec,
    ImpuritySpec,
    PoleError,
    analytic_chain_green,
    bath_green_element,
    bath_green_squared_element,
    build_ssh_chain,
    build_uniform_chain,
    default_delta,
    detect_bands,
    diagonalize_bath,
    green_column,
    green_matrix,
    green_row,
    load_bath_spec,
)
from dressedgf.bath import _fix_phases

from conftest import random_bath_spec, random_z


# ---------------------------------------------------------------- builders


def test_chain_three_sites_spectrum():
    s = diagonalize_bath(build_uniform_chain(3, 0.0, 1.0))
    np.testing.assert_allclose(
        s.eigenvalues, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12
    )
    # the zero mode has a node on the centre site; phase convention makes the
    # leading component real positive
    zero_mode = s.eigenvectors[:, 1]
    np.testing.assert_allclose(
        zero_mode, [1 / math.sqrt(2), 0.0, -1 / math.sqrt(2)], atol=1e-12
    )


def test_chain_spectrum_closed_form():
    n, wc, j = 17, 0.3, 0.8
    s = diagonalize_bath(build_uniform_chain(n, wc, j))
    expected = np.sort(wc + 2 * j * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    np.testing.assert_allclose(s.eigenvalues, expected, atol=1e-12)


def test_ssh_single_cell_is_a_dimer():
    s = diagonalize_bath(build_ssh_chain(1, 0.5, 0.7, 0.3))
    np.testing.assert_allclose(s.eigenvalues, [0.5 - 0.7, 0.5 + 0.7], atol=1e-12)


def test_ssh_equal_hoppings_reduces_to_chain():
    a = diagonalize_bath(build_ssh_chain(2, 0.0, 1.0, 1.0))
    b = diagonalize_bath(build_uniform_chain(4, 0.0, 1.0))
    np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, atol=1e-12)


def test_ssh_dimerized_gap():
    s = diagonalize_bath(build_ssh_chain(10, 0.0, 1.0, 0.5))
    # trivial phase (strong bond first): open gap around omega_c, no edge modes
    assert np.min(np.abs(s.eigenvalues)) > 0.4
    bands = detect_bands(s)
    assert len(bands.bands) == 2
    assert bands.in_gap(0.0)
    lo, hi = bands.gap_containing(0.0)
    assert lo < 0.0 < hi


def test_bath_spec_validation():
    with pytest.raises(ValueError, match="self-loop; use frequencies"):
        BathSpec(n_sites=2, frequencies=(0.0, 0.0), hoppings=((1, 1, 1.0),))
    with pytest.raises(ValueError, match="duplicate edge"):
        BathSpec(
            n_sites=2,
            frequencies=(0.0, 0.0),
            hoppings=((0, 1, 1.0), (1, 0, 0.5)),
        )
    with pytest.raises(ValueError, match="out of range"):
        BathSpec(n_sites=2, frequencies=(0.0, 0.0), hoppings=((0, 2, 1.0),))
    with pytest.raises(ValueError, match="frequencies"):
        BathSpec(n_sites=3, frequencies=(0.0, 0.0), hoppings=())


def test_load_bath_spec_round_trip():
    doc = """
    {"n_sites": 3,
     "frequencies": [0.0, 0.0, 0.0],
     "hoppings": [[0, 1, 1.0, 0.0], [1, 2, 1.0, 0.0]]}
    """
    spec = load_bath_spec(doc)
    assert spec == build_uniform_chain(3, 0.0, 1.0)


def test_load_bath_spec_broadcasts_scalar_frequency():
    spec = load_bath_spec('{"n_sites": 2, "frequencies": 0.5, "hoppings": []}')
    assert spec.frequencies == (0.5, 0.5)


def test_load_bath_spec_errors():
    with pytest.raises(ConfigError, match="line"):
        load_bath_spec('{"n_sites": 2,,}')
    with pytest.raises(ConfigError, match="unknown bath keys"):
        load_bath_spec('{"n_sites": 1, "frequencies": 0, "hoppings": [], "x": 1}')
    with pytest.raises(ConfigError, match="missing bath keys"):
        load_bath_spec('{"n_sites": 1, "frequencies": 0}')
    with pytest.raises(ConfigError, match="hoppings\\[0\\]"):
        load_bath_spec('{"n_sites": 2, "frequencies": 0, "hoppings": [[0, 1, 1.0]]}')
    with pytest.raises(ConfigError, match="self-loop"):
        load_bath_spec(
            '{"n_sites": 2, "frequencies": 0, "hoppings": [[0, 0, 1.0, 0.0]]}'
        )


# ------------------------------------------------------- spectral data


def test_diagonalize_unitary_and_reconstructs():
    rng = np.random.default_rng(21)
    for _ in range(20):
        spec = random_bath_spec(rng)
        s = diagonalize_bath(spec)
        u = s.eigenvectors
        n = s.n_sites
        assert np.all(np.diff(s.eigenvalues) >= -1e-12)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=1e-10)
        np.testing.assert_allclose(
            u @ np.diag(s.eigenvalues) @ u.conj().T, spec.to_matrix(), atol=1e-10
        )


def test_apply_matches_dense_matrix():
    rng = np.random.default_rng(22)
    specs = [random_bath_spec(rng) for _ in range(10)]
    specs.append(BathSpec(n_sites=1, frequencies=(0.7,), hoppings=()))
    for spec in specs:
        h = spec.to_matrix()
        v = rng.normal(size=spec.n_sites) + 1j * rng.normal(size=spec.n_sites)
        bound = 1e-14 * (1.0 + np.linalg.norm(h, 2) * np.linalg.norm(v))
        assert np.linalg.norm(spec.apply(v) - h @ v) <= bound


def _apply_by_edges(spec, v):
    # one edge at a time, in edge-list order: the accumulation order that
    # apply must keep
    out = np.asarray(spec.frequencies, dtype=np.float64) * v
    rows = [x for x, _, _ in spec.hoppings] + [xp for _, xp, _ in spec.hoppings]
    cols = [xp for _, xp, _ in spec.hoppings] + [x for x, _, _ in spec.hoppings]
    amps = np.array([a for _, _, a in spec.hoppings]
                    + [np.conj(a) for _, _, a in spec.hoppings], dtype=np.complex128)
    np.add.at(out, np.array(rows, dtype=np.intp), amps * v[np.array(cols, dtype=np.intp)])
    return out


def test_apply_to_a_block_is_apply_per_column():
    rng = np.random.default_rng(24)
    specs = [random_bath_spec(rng, 30) for _ in range(4)]
    specs += [build_ssh_chain(10, 0.0, 0.5, 1.0),
              BathSpec(n_sites=1, frequencies=(0.7,), hoppings=())]
    for spec in specs:
        block = rng.normal(size=(spec.n_sites, 7)) + 1j * rng.normal(size=(spec.n_sites, 7))
        out = spec.apply(block)
        assert out.shape == block.shape
        for j in range(block.shape[1]):
            assert np.array_equal(out[:, j], spec.apply(block[:, j]))
            assert np.array_equal(out[:, j], _apply_by_edges(spec, block[:, j]))


def _fix_phases_by_column(evecs):
    out = np.array(evecs, dtype=np.complex128)
    for k in range(out.shape[1]):
        col = out[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        lead = col[nz[0]] if nz.size else 1.0
        if lead != 0:
            out[:, k] = col * (np.conj(lead) / abs(lead))
    return out


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


def test_fix_phases_matches_the_column_loop_bit_for_bit():
    rng = np.random.default_rng(25)
    mats = [build_uniform_chain(60, 0.0, 1.0).to_matrix(),
            build_ssh_chain(30, 0.0, 0.5, 1.0).to_matrix()]
    mats += [random_bath_spec(rng, 50).to_matrix() for _ in range(4)]
    for h in mats:
        evecs = np.linalg.eigh(h)[1]
        assert _same_bits(_fix_phases(evecs), _fix_phases_by_column(evecs))
        real = np.linalg.eigh(h.real)[1]  # the real-symmetric path's vectors
        assert _same_bits(_fix_phases(real), _fix_phases_by_column(real))
    # columns with no entry above 1e-12, signed zeros included, and a lead
    # just above the threshold
    tiny = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
    tiny[:, 1] = -0.0 - 0.0j
    tiny[:, 2] = [-0.0, 1e-13, -1e-14j, complex(-0.0, -0.0), 0.0, -3e-13]
    # |lead| from hypot, as abs() of a numpy scalar, is one ulp off np.abs here
    tiny[:, 3] = [0.0, complex(-1.1368181010671572e-12, -9.41159756902135e-13), 1.0, 0, 0, 0]
    assert _same_bits(_fix_phases(tiny), _fix_phases_by_column(tiny))


def test_phase_convention_leading_component_real_positive():
    rng = np.random.default_rng(22)
    for _ in range(10):
        s = diagonalize_bath(random_bath_spec(rng))
        for k in range(s.n_sites):
            col = s.eigenvectors[:, k]
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(lead.imag) < 1e-12
            assert lead.real > 0


REAL_BATHS = {
    "chain": build_uniform_chain(40, 0.3, 1.0),
    "ssh-topological": build_ssh_chain(20, 0.0, 0.5, 1.0),
    "ssh-trivial": build_ssh_chain(20, 0.0, 1.0, 0.5),
}


@pytest.mark.parametrize("name", sorted(REAL_BATHS))
def test_real_bath_is_solved_as_real_symmetric(name, monkeypatch):
    spec = REAL_BATHS[name]
    complex_evals, _ = np.linalg.eigh(spec.to_matrix())
    seen = []
    eigh = np.linalg.eigh

    def recording_eigh(h):
        seen.append(h.dtype)
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    s = diagonalize_bath(spec)
    assert seen == [np.float64]
    assert s.eigenvectors.dtype == np.complex128
    assert not np.any(s.eigenvectors.imag)
    for k in range(s.n_sites):
        col = s.eigenvectors[:, k]
        assert col[np.flatnonzero(np.abs(col) > 1e-12)[0]].real > 0
    assert np.max(np.abs(s.eigenvalues - complex_evals)) <= 1e-13 * s.spectral_width


def test_complex_bath_keeps_the_complex_solver():
    rng = np.random.default_rng(23)
    for _ in range(5):
        spec = random_bath_spec(rng)
        s = diagonalize_bath(spec)
        evals, evecs = np.linalg.eigh(spec.to_matrix())
        assert np.array_equal(s.eigenvalues, evals)
        assert np.array_equal(s.eigenvectors, _fix_phases(evecs))


# -------------------------------------------------------- green elements


def test_green_element_single_site():
    s = diagonalize_bath(BathSpec(n_sites=1, frequencies=(0.0,), hoppings=()))
    assert abs(bath_green_element(s, 2j, 0, 0) - (-0.5j)) < 1e-14
    assert abs(bath_green_squared_element(s, 2.0, 0, 0) - 0.25) < 1e-14


def test_green_element_chain3_centre_at_zero():
    # z = 0 touches the zero mode, but that mode has a node on the centre
    # site, so the coinciding-mode rule drops it and the +-sqrt(2) pair cancels
    s = diagonalize_bath(build_uniform_chain(3, 0.0, 1.0))
    assert abs(bath_green_element(s, 0.0, 1, 1)) < 1e-14
    assert abs(bath_green_squared_element(s, 0.0, 1, 1) - 0.5) < 1e-14


def test_green_element_pole_error():
    s = diagonalize_bath(build_uniform_chain(3, 0.0, 1.0))
    with pytest.raises(PoleError, match="coincides with eigenvalue"):
        bath_green_element(s, math.sqrt(2), 1, 1)
    # edge site: the zero mode has weight there
    with pytest.raises(PoleError):
        bath_green_element(s, 0.0, 0, 0)
    with pytest.raises(PoleError):
        green_matrix(s, 0.0)


def test_green_matrix_against_dense_inverse():
    rng = np.random.default_rng(23)
    for _ in range(20):
        spec = random_bath_spec(rng)
        s = diagonalize_bath(spec)
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 1.0))
        g = green_matrix(s, z)
        ref = np.linalg.inv(z * np.eye(s.n_sites) - spec.to_matrix())
        np.testing.assert_allclose(g, ref, atol=1e-10)
        # resolvent identity in the other direction
        np.testing.assert_allclose(
            (z * np.eye(s.n_sites) - spec.to_matrix()) @ g,
            np.eye(s.n_sites),
            atol=1e-10,
        )


def test_green_matrix_complex_bath_is_the_complex_product():
    rng = np.random.default_rng(26)
    for _ in range(10):
        s = diagonalize_bath(random_bath_spec(rng))
        assert np.any(s.eigenvectors.imag)
        for z in random_z(rng, s, 3):
            z = complex(z)
            ref = (s.eigenvectors / (z - s.eigenvalues)[None, :]) @ np.conj(s.eigenvectors.T)
            assert np.array_equal(green_matrix(s, z), ref)


@pytest.mark.parametrize("name", ["chain", "ssh-topological"])
def test_green_matrix_real_bath_takes_two_real_products(name):
    s = diagonalize_bath(REAL_BATHS[name])
    v = s.eigenvectors.real
    rng = np.random.default_rng(27)
    for z in random_z(rng, s, 5):
        z = complex(z)
        inv = 1.0 / (z - s.eigenvalues)
        g = green_matrix(s, z)
        assert np.array_equal(g.real, (v * inv.real) @ v.T)
        assert np.array_equal(g.imag, (v * inv.imag) @ v.T)
        ref = (s.eigenvectors / (z - s.eigenvalues)[None, :]) @ np.conj(s.eigenvectors.T)
        assert np.max(np.abs(g - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_green_column_row_slices_of_matrix():
    rng = np.random.default_rng(24)
    spec = random_bath_spec(rng, 8)
    s = diagonalize_bath(spec)
    z = 0.7 + 0.3j
    g = green_matrix(s, z)
    for x in range(s.n_sites):
        np.testing.assert_allclose(green_column(s, z, x), g[:, x], atol=1e-12)
        np.testing.assert_allclose(green_row(s, z, x), g[x, :], atol=1e-12)
        assert abs(bath_green_element(s, z, x, (x + 3) % 8) - g[x, (x + 3) % 8]) < 1e-12


def test_green_hermitian_symmetry_at_real_z():
    rng = np.random.default_rng(25)
    spec = random_bath_spec(rng, 7)
    s = diagonalize_bath(spec)
    z = float(s.eigenvalues[-1]) + 1.3   # real, above the spectrum
    for x in range(7):
        for xp in range(7):
            a = bath_green_element(s, z, x, xp)
            b = bath_green_element(s, z, xp, x)
            assert abs(a - np.conj(b)) < 1e-12


def test_squared_element_is_minus_derivative():
    rng = np.random.default_rng(26)
    spec = random_bath_spec(rng, 6)
    s = diagonalize_bath(spec)
    z = 1.1 + 0.8j
    h = 1e-6
    for x, xp in [(0, 0), (2, 4), (5, 1)]:
        fd = (bath_green_element(s, z + h, x, xp) - bath_green_element(s, z - h, x, xp)) / (2 * h)
        sq = bath_green_squared_element(s, z, x, xp)
        assert abs(sq + fd) < 1e-5


# ------------------------------------------------------------ band tools


def test_detect_bands_uniform_chain():
    s = diagonalize_bath(build_uniform_chain(50, 0.0, 1.0))
    bands = detect_bands(s)
    assert len(bands.bands) == 1
    lo, hi = bands.bands[0]
    assert abs(lo - s.eigenvalues[0]) < 1e-14
    assert abs(hi - s.eigenvalues[-1]) < 1e-14
    assert bands.in_band(0.0)
    assert bands.in_gap(2.5)
    assert bands.gap_containing(2.5) == (hi, math.inf)
    assert bands.gap_containing(0.0) is None


def test_detect_bands_single_level():
    s = diagonalize_bath(BathSpec(n_sites=1, frequencies=(0.7,), hoppings=()))
    bands = detect_bands(s)
    assert bands.bands == ((0.7, 0.7),)
    assert bands.gaps == ((-math.inf, 0.7), (0.7, math.inf))


def test_detect_bands_gap_factor():
    with pytest.raises(ValueError, match="gap_factor"):
        detect_bands(diagonalize_bath(build_uniform_chain(5, 0.0, 1.0)), gap_factor=0.0)


@pytest.mark.xfail(strict=True, reason="ROADMAP 3(ii): the edge pair is read as a band")
def test_detect_bands_does_not_read_topological_edge_pair_as_band():
    s = diagonalize_bath(build_ssh_chain(50, 0.0, 0.5, 1.0))
    bands = detect_bands(s)
    # the bulk gap is (-0.5, 0.5); only the two edge levels lie inside it
    assert [(lo, hi) for lo, hi in bands.bands if -0.5 < lo and hi < 0.5] == []


def test_default_delta_scales_with_width():
    s = diagonalize_bath(build_uniform_chain(3, 0.0, 1.0))
    assert abs(default_delta(s) - 1e-8 * 2 * math.sqrt(2)) < 1e-22


# --------------------------------------------------- analytic chain limit


def test_analytic_chain_green_values():
    # z = 3, omega_c = 0, j = 1: sqrt(z^2 - 4) = sqrt(5)
    assert abs(analytic_chain_green(3.0, 0.0, 1.0, 0) - 1 / math.sqrt(5)) < 1e-14
    y = (3.0 - math.sqrt(5)) / 2.0
    assert abs(analytic_chain_green(3.0, 0.0, 1.0, 2) - y**2 / math.sqrt(5)) < 1e-14
    # distance symmetry
    assert abs(
        analytic_chain_green(3.0, 0.0, 1.0, 2) - analytic_chain_green(3.0, 0.0, 1.0, -2)
    ) < 1e-16


def test_analytic_chain_green_asymptotics():
    z = 1e8
    assert abs(analytic_chain_green(z, 0.0, 1.0, 0) * z - 1.0) < 1e-6


def test_analytic_chain_green_branch_error():
    with pytest.raises(BranchError, match="band"):
        analytic_chain_green(1.0, 0.0, 1.0, 0)
    with pytest.raises(ValueError, match="nonzero"):
        analytic_chain_green(3.0, 0.0, 0.0, 0)
    # fine just off the axis
    analytic_chain_green(1.0 + 1e-3j, 0.0, 1.0, 0)


def test_finite_chain_converges_to_analytic():
    z = 2.1
    exact = analytic_chain_green(z, 0.0, 1.0, 0)
    errs = []
    for n in (11, 21, 41):
        s = diagonalize_bath(build_uniform_chain(n, 0.0, 1.0))
        centre = (n - 1) // 2
        errs.append(abs(bath_green_element(s, z, centre, centre) - exact))
    assert errs[0] > errs[1] > errs[2]
    s = diagonalize_bath(build_uniform_chain(101, 0.0, 1.0))
    assert abs(bath_green_element(s, z, 50, 50) - exact) < 1e-12


def test_finite_chain_matches_analytic_off_diagonal():
    z = 2.6 + 0.0j
    s = diagonalize_bath(build_uniform_chain(201, 0.0, 1.0))
    for d in (0, 1, 3, 7):
        got = bath_green_element(s, z, 100, 100 + d)
        assert abs(got - analytic_chain_green(z, 0.0, 1.0, d)) < 1e-10


def _chain_bands(gap_factor):
    return detect_bands(diagonalize_bath(build_uniform_chain(6, 0.0, 1.0)), gap_factor)


@pytest.mark.parametrize("make", [
    lambda: BathSpec(2, (math.nan, 0.0), ((0, 1, 1.0),)),
    lambda: BathSpec(2, (0.0, -math.inf), ((0, 1, 1.0),)),
    lambda: BathSpec(2, (0.0, 0.0), ((0, 1, complex(math.inf, 0.0)),)),
    lambda: BathSpec(2, (0.0, 0.0), ((0, 1, complex(1.0, math.nan)),)),
    lambda: EmitterSpec(2.5, math.nan, 3),
    lambda: EmitterSpec(2.5, math.inf, 3),
    lambda: EmitterSpec(math.nan, 0.1, 3),
    lambda: EmitterSpec(-math.inf, 0.1, 3),
    lambda: ImpuritySpec(3, math.nan),
    lambda: _chain_bands(math.nan),
    lambda: _chain_bands(math.inf),
], ids=["nan-frequency", "inf-frequency", "inf-hopping", "nan-hopping", "nan-g", "inf-g",
        "nan-omega0", "inf-omega0", "nan-impurity", "nan-gap-factor", "inf-gap-factor"])
def test_specs_reject_non_finite_numbers(make):
    """A non-finite number raises at once, not a wrong result or a stray RuntimeWarning.

    An infinite impurity strength of either sign stays the vacancy.
    """
    with pytest.raises(ValueError):
        make()
    assert ImpuritySpec(3, math.inf).is_vacancy and ImpuritySpec(3, -math.inf).is_vacancy
