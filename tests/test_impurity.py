"""Static impurity: rank-one resolvent update, bound states, vacancy limit."""

import numpy as np
import pytest

from dressedgf import (
    VACANCY,
    BathSpec,
    EmitterArraySpec,
    EmitterSpec,
    ImpuritySpec,
    PoleError,
    RegimeError,
    bath_green_element,
    bath_green_squared_element,
    build_ssh_chain,
    build_uniform_chain,
    det_f_roots,
    diagonalize_bath,
    effective_hamiltonian_many,
    effective_hamiltonian_two,
    green_column,
    green_matrix,
    impurity_green,
    impurity_pole_function,
    impurity_scattering_state,
    impurity_state,
    residue_coefficients,
    solve_dressed_bound_states,
    solve_impurity_bound_state,
    solve_two_atom_poles,
    vacancy_green,
)
from dressedgf import _kernels, bath, impurity

from conftest import fidelity, random_bath_spec, random_gapped_bath, random_z


def _single_site(freq=0.0):
    return diagonalize_bath(BathSpec(n_sites=1, frequencies=(freq,), hoppings=()))


def _impurity_matrix(s, spec):
    h = s.source.to_matrix()
    h[spec.site, spec.site] += spec.strength
    return h


# ----------------------------------------------------------- basic pieces


def test_impurity_state_chain3_centre():
    s = diagonalize_bath(build_uniform_chain(3, 0.0, 1.0))
    psi = impurity_state(s, ImpuritySpec(site=1, strength=1.0), 0.0)
    np.testing.assert_allclose(psi, [-0.5, 0.0, -0.5], atol=1e-14)


def test_pole_function_single_site():
    s = _single_site()
    spec = ImpuritySpec(site=0, strength=2.0)
    assert abs(impurity_pole_function(s, spec, 4.0) - (0.5 - 0.25)) < 1e-14
    with pytest.raises(RegimeError, match="vacancy"):
        impurity_pole_function(s, ImpuritySpec(site=0, strength=VACANCY), 4.0)
    with pytest.raises(RegimeError, match="zero impurity strength"):
        impurity_pole_function(s, ImpuritySpec(site=0, strength=0.0), 4.0)


def test_impurity_green_zero_strength_is_bare():
    rng = np.random.default_rng(31)
    s = diagonalize_bath(random_bath_spec(rng, 6))
    z = random_z(rng, s)
    np.testing.assert_allclose(
        impurity_green(s, ImpuritySpec(site=2, strength=0.0), z),
        green_matrix(s, z),
        atol=0,
    )


def test_impurity_green_against_dense_inverse():
    rng = np.random.default_rng(32)
    for _ in range(25):
        spec_b = random_bath_spec(rng)
        s = diagonalize_bath(spec_b)
        site = int(rng.integers(0, s.n_sites))
        strength = float(rng.uniform(-3.0, 3.0))
        imp = ImpuritySpec(site=site, strength=strength)
        z = random_z(rng, s)
        got = impurity_green(s, imp, z)
        ref = np.linalg.inv(z * np.eye(s.n_sites) - _impurity_matrix(s, imp))
        np.testing.assert_allclose(got, ref, atol=1e-9)


def test_impurity_green_pole_error_at_bound_state():
    # single site at 0 with strength 2: the dressed level sits exactly at 2
    s = _single_site()
    with pytest.raises(PoleError, match="impurity resolvent pole"):
        impurity_green(s, ImpuritySpec(site=0, strength=2.0), 2.0)


# ------------------------------------------------------------ bound states


def test_bound_state_single_site():
    s = _single_site()
    states = solve_impurity_bound_state(s, ImpuritySpec(site=0, strength=2.0))
    assert len(states) == 1
    st = states[0]
    assert abs(st.energy - 2.0) < 1e-11
    assert abs(st.norm_factor - 2.0) < 1e-9
    np.testing.assert_allclose(st.wavefunction, [1.0], atol=1e-9)
    assert abs(st.residue_trace - 1.0) < 1e-12


def test_bound_state_chain_against_oracle():
    s = diagonalize_bath(build_uniform_chain(50, 0.0, 1.0))
    for strength in (3.0, 0.01, -1.5):
        imp = ImpuritySpec(site=20, strength=strength)
        states = solve_impurity_bound_state(s, imp)
        assert len(states) == 1
        st = states[0]
        evals, evecs = np.linalg.eigh(_impurity_matrix(s, imp))
        idx = -1 if strength > 0 else 0   # the split-off level
        assert abs(st.energy - evals[idx]) < 1e-9
        assert fidelity(st.wavefunction, evecs[:, idx]) > 1 - 1e-9
        assert abs(np.linalg.norm(st.wavefunction) - 1.0) < 1e-9
        assert abs(st.residue_trace - 1.0) < 1e-12


def test_bound_state_count_matches_oracle():
    rng = np.random.default_rng(33)
    for _ in range(50):
        spec_b, s, bands = random_gapped_bath(rng)
        site = int(rng.integers(0, s.n_sites))
        strength = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0))
        imp = ImpuritySpec(site=site, strength=strength)
        states = solve_impurity_bound_state(s, imp, bands=bands)
        evals = np.linalg.eigvalsh(_impurity_matrix(s, imp))
        # pad band edges by a roundoff margin: eigenvalues of the component
        # the impurity does not touch stay exactly on the edges and must not
        # be miscounted as in-gap
        pad = 1e-12
        def clearly_in_gap(w):
            return all(w < lo - pad or w > hi + pad for lo, hi in bands.bands)
        oracle = sorted(float(w) for w in evals if clearly_in_gap(float(w)))
        assert len(states) == len(oracle)
        for st, w in zip(states, oracle):
            assert abs(st.energy - w) < 1e-9


def test_zero_strength_has_no_bound_states():
    s = diagonalize_bath(build_uniform_chain(5, 0.0, 1.0))
    assert solve_impurity_bound_state(s, ImpuritySpec(site=2, strength=0.0)) == []


# ---------------------------------------------------------------- vacancy


def test_vacancy_green_deletes_the_site():
    s = diagonalize_bath(build_uniform_chain(3, 0.0, 1.0))
    z = 0.5j
    g = vacancy_green(s, 1, z)
    assert np.all(g[1, :] == 0.0)
    assert np.all(g[:, 1] == 0.0)
    # remaining block equals the resolvent of the two decoupled end sites
    h_del = np.delete(np.delete(s.source.to_matrix(), 1, axis=0), 1, axis=1)
    ref = np.linalg.inv(z * np.eye(2) - h_del)
    np.testing.assert_allclose(g[np.ix_([0, 2], [0, 2])], ref, atol=1e-12)


def test_vacancy_green_random_baths():
    rng = np.random.default_rng(34)
    for _ in range(20):
        spec_b = random_bath_spec(rng)
        s = diagonalize_bath(spec_b)
        site = int(rng.integers(0, s.n_sites))
        z = random_z(rng, s)
        g = vacancy_green(s, site, z)
        keep = [x for x in range(s.n_sites) if x != site]
        h_del = spec_b.to_matrix()[np.ix_(keep, keep)]
        ref = np.linalg.inv(z * np.eye(len(keep)) - h_del)
        np.testing.assert_allclose(g[np.ix_(keep, keep)], ref, atol=1e-9)


def test_vacancy_single_site_is_empty():
    s = _single_site(0.3)
    np.testing.assert_allclose(vacancy_green(s, 0, 2.0), [[0.0]], atol=0)


def test_large_strength_approaches_vacancy():
    s = diagonalize_bath(build_uniform_chain(7, 0.0, 1.0))
    z = 1.2 + 0.4j
    g_imp = impurity_green(s, ImpuritySpec(site=3, strength=1e8), z)
    g_vac = vacancy_green(s, 3, z)
    assert np.max(np.abs(g_imp - g_vac)) < 1e-6


def test_impurity_green_vacancy_dispatch():
    s = diagonalize_bath(build_uniform_chain(4, 0.0, 1.0))
    z = 0.9 + 0.2j
    np.testing.assert_allclose(
        impurity_green(s, ImpuritySpec(site=1, strength=VACANCY), z),
        vacancy_green(s, 1, z),
        atol=0,
    )


# -------------------------------------------------------------- scattering


def test_scattering_node_mode_stays_put():
    # zero mode of chain(3) has a node at the centre: the correction term
    # vanishes through its numerator for finite strength
    s = diagonalize_bath(build_uniform_chain(3, 0.0, 1.0))
    st = impurity_scattering_state(s, ImpuritySpec(site=1, strength=0.8), 1)
    np.testing.assert_allclose(st.vector, s.eigenvectors[:, 1], atol=1e-12)
    assert st.residual < 1e-12
    # in the vacancy limit the same mode sits exactly on a zero of the pole
    # function and takes the untouched branch
    st = impurity_scattering_state(s, ImpuritySpec(site=1, strength=VACANCY), 1)
    assert not st.regular
    np.testing.assert_allclose(st.vector, s.eigenvectors[:, 1], atol=0)
    assert st.residual < 1e-12


def test_scattering_regular_modes():
    s = diagonalize_bath(build_uniform_chain(8, 0.0, 1.0))
    imp = ImpuritySpec(site=2, strength=0.7)
    for k in range(8):
        st = impurity_scattering_state(s, imp, k, delta=1e-8)
        assert st.residual < 1e-6
        coarse = impurity_scattering_state(s, imp, k, delta=1e-6)
        if coarse.residual > 1e-12:   # modes with a node never move
            assert st.residual < coarse.residual


def test_scattering_zero_strength_passes_modes_through():
    s = diagonalize_bath(build_uniform_chain(5, 0.0, 1.0))
    st = impurity_scattering_state(s, ImpuritySpec(site=2, strength=0.0), 3)
    assert st.regular
    np.testing.assert_allclose(st.vector, s.eigenvectors[:, 3], atol=0)
    assert st.residual < 1e-12


def test_scattering_vacancy_modes():
    s = diagonalize_bath(build_uniform_chain(6, 0.0, 1.0))
    imp = ImpuritySpec(site=2, strength=VACANCY)
    for k in range(6):
        st = impurity_scattering_state(s, imp, k, delta=1e-8)
        assert st.residual < 1e-5


def test_scattering_k_index_range():
    s = _single_site()
    with pytest.raises(ValueError, match="k_index"):
        impurity_scattering_state(s, ImpuritySpec(site=0, strength=1.0), 5)


def test_scattering_residual_matches_dense_product():
    # the residual applies H_B from the edge list; it must equal the dense
    # ||H v - omega v|| for finite strengths of both signs and the vacancy
    rng = np.random.default_rng(47)
    for _ in range(4):
        spec = random_bath_spec(rng, 10)
        s = diagonalize_bath(spec)
        site = int(rng.integers(10))
        for strength in (0.9, -0.6, VACANCY):
            imp = ImpuritySpec(site=site, strength=strength)
            h = spec.to_matrix()
            if not imp.is_vacancy:
                h[site, site] += strength
            h_norm = np.linalg.norm(h, 2)
            for k in range(s.n_sites):
                st = impurity_scattering_state(s, imp, k)
                r = h @ st.vector - st.energy * st.vector
                if imp.is_vacancy:
                    r[site] = 0.0
                bound = 1e-14 * (1.0 + h_norm * np.linalg.norm(st.vector))
                assert abs(st.residual - np.linalg.norm(r)) <= bound


@pytest.mark.parametrize("bad", [-1, 12])
def test_bound_state_rejects_out_of_range_site(bad):
    s = diagonalize_bath(build_uniform_chain(12, 0.0, 1.0))
    with pytest.raises(ValueError, match="out of range"):
        solve_impurity_bound_state(s, ImpuritySpec(site=bad, strength=3.0))


# ------------------------------------------------------- contact engine


def _elementwise(element, s, sites, z):
    return np.array([[element(s, z, xi, xj) for xj in sites] for xi in sites])


@pytest.mark.parametrize("m", [1, 2, 8])
def test_gamma_block_is_bit_equal_to_its_elements(m):
    rng = np.random.default_rng(70 + m)
    baths = (build_uniform_chain(60, 0.0, 1.0), build_ssh_chain(30, 0.0, 0.5, 1.0),
             random_bath_spec(rng, 40))
    for spec in baths:
        s = diagonalize_bath(spec)
        sites = tuple(int(x) for x in rng.choice(s.n_sites, size=m, replace=False))
        ev = s.eigenvalues
        # complex z, real z outside the spectrum and real z between two levels
        for z in (random_z(rng, s), float(ev[-1]) + 0.3, 0.5 * float(ev[7] + ev[8])):
            for power, element in ((1, bath_green_element), (2, bath_green_squared_element)):
                block = bath._gamma_block(bath.Contact(s, sites), z, power)
                assert block.tobytes() == _elementwise(element, s, sites, z).tobytes()


def test_gamma_block_and_kets_raise_and_drop_modes_as_their_elements():
    # chain of 5: the mode at energy 0 has nodes on sites 1 and 3
    s = diagonalize_bath(build_uniform_chain(5, 0.0, 1.0))
    w = float(s.eigenvalues[2])
    outcomes = set()
    for sites in ((1,), (1, 3), (3, 1), (0,), (0, 1), (1, 0), (3, 2, 4)):
        for power, element in ((1, bath_green_element), (2, bath_green_squared_element)):
            try:
                ref = _elementwise(element, s, sites, w)
            except PoleError:
                outcomes.add("raise")
                with pytest.raises(PoleError, match="coincides with eigenvalue"):
                    bath._gamma_block(bath.Contact(s, sites), w, power)
            else:
                outcomes.add("drop")
                block = bath._gamma_block(bath.Contact(s, sites), w, power)
                assert block.tobytes() == ref.tobytes()
        # the columns follow green_column: a mode raises when any site's |<x|k>|**2 would
        try:
            columns = np.array([green_column(s, w, x) for x in sites]).T
        except PoleError:
            with pytest.raises(PoleError, match="coincides with eigenvalue"):
                bath._green_columns(bath.Contact(s, sites), w)
        else:
            np.testing.assert_allclose(bath._green_columns(bath.Contact(s, sites), w), columns,
                                       rtol=0, atol=1e-14)
    assert outcomes == {"raise", "drop"}


def _chain_with_side_level(t):
    """Chain of 40 sites plus a level at 3.0 hopping ``t`` to site 0."""
    chain = build_uniform_chain(40, 0.0, 1.0)
    return BathSpec(n_sites=41, frequencies=chain.frequencies + (3.0,),
                    hoppings=chain.hoppings + ((40, 0, t),))


@pytest.mark.parametrize("t", [1e-9, 1e-7])
def test_weak_mode_is_dropped_by_every_sum_alike(t):
    # ROADMAP 3(v): |<0|k>| is above WEIGHT_TOL but |<0|k>|**2 is below it, so
    # the one key drops the mode from elements, blocks, columns and kets alike
    s = diagonalize_bath(_chain_with_side_level(t))
    k = int(np.argmin(np.abs(s.eigenvalues - 3.0)))
    w = float(s.eigenvalues[k])
    assert abs(s.eigenvectors[0, k]) >= 1e-12 > abs(s.eigenvectors[0, k]) ** 2
    others = np.arange(s.n_sites) != k
    v, ev = s.eigenvectors[:, others], s.eigenvalues[others]
    column = v @ (np.conj(v[0]) / (w - ev))
    gamma = np.sum(np.abs(v[0]) ** 2 / (w - ev))
    gamma_sq = np.sum(np.abs(v[0]) ** 2 / (w - ev) ** 2)
    assert abs(bath_green_element(s, w, 0, 0) - gamma) < 1e-12
    assert abs(bath_green_squared_element(s, w, 0, 0) - gamma_sq) < 1e-12 * abs(gamma_sq)
    assert abs(bath._gamma_block(bath.Contact(s, (0,)), w)[0, 0] - gamma) < 1e-12
    np.testing.assert_allclose(green_column(s, w, 0), column, rtol=0, atol=1e-12)
    np.testing.assert_allclose(impurity._contact_kets(bath.Contact(s, (0,)), w)[:, 0], column,
                               rtol=0, atol=1e-12)


def test_off_diagonal_element_is_the_block_entry_and_keys_on_both_sites(monkeypatch):
    rng = np.random.default_rng(73)
    s = diagonalize_bath(random_bath_spec(rng, 30))
    shapes = []
    kernel = _kernels.mode_sum

    def recording(weights, *args):
        shapes.append(weights.shape)
        return kernel(weights, *args)

    monkeypatch.setattr(_kernels, "mode_sum", recording)
    for z in (random_z(rng, s), float(s.eigenvalues[-1]) + 0.3):
        for power, element in ((1, bath_green_element), (2, bath_green_squared_element)):
            shapes.clear()
            value = element(s, z, 4, 17)
            block = bath._gamma_block(bath.Contact(s, (4, 17)), z, power)
            assert np.complex128(value).tobytes() == block[0, 1].tobytes()
    # chain of 5: the mode at energy 0 has nodes on sites 1 and 3 only
    s = diagonalize_bath(build_uniform_chain(5, 0.0, 1.0))
    w = float(s.eigenvalues[2])
    bath_green_element(s, w, 1, 3)
    for x, xp in ((1, 2), (2, 1)):
        with pytest.raises(PoleError, match="coincides with eigenvalue"):
            bath_green_element(s, w, x, xp)


def _side_level_pair():
    return EmitterArraySpec(tuple(EmitterSpec(2.5, 0.1, x) for x in (0, 2)))


@pytest.mark.parametrize("solve,bath_spec,spec,built", [
    # the VDS at omega0 = 0 is both a rule call at omega0 and a root
    (solve_dressed_bound_states, build_uniform_chain(5, 0.0, 1.0), EmitterSpec(0.0, 0.5, 1),
     {"weights": 1, "key": 1}),
    (det_f_roots, _chain_with_side_level(1.2e-5), _side_level_pair(), {"weights": 1, "key": 0}),
    (solve_two_atom_poles, _chain_with_side_level(1.2e-5), _side_level_pair(),
     {"weights": 1, "key": 0}),
    (effective_hamiltonian_two, _chain_with_side_level(1.2e-5), _side_level_pair(),
     {"weights": 1, "key": 0}),
    (effective_hamiltonian_many, _chain_with_side_level(1.2e-5), _side_level_pair(),
     {"weights": 1, "key": 0}),
    (lambda s, arr: residue_coefficients(s, arr, 2.6).size, _chain_with_side_level(1.2e-5),
     _side_level_pair(), {"weights": 1, "key": 0}),
], ids=["solve_dressed_bound_states", "det_f_roots", "solve_two_atom_poles",
        "effective_hamiltonian_two", "effective_hamiltonian_many", "residue_coefficients"])
def test_pair_weights_and_key_are_built_once_per_call(monkeypatch, solve, bath_spec, spec,
                                                      built):
    s = diagonalize_bath(bath_spec)
    counts = dict.fromkeys(built, 0)
    for name in counts:
        prop = bath.Contact.__dict__[name]

        def counted(contact, _name=name, _build=prop.func):
            counts[_name] += 1
            return _build(contact)

        monkeypatch.setattr(prop, "func", counted)
    assert solve(s, spec)
    assert counts == built


def test_every_bath_sum_reaches_the_one_kernel(monkeypatch):
    s = diagonalize_bath(build_ssh_chain(8, 0.0, 0.5, 1.0))
    calls = []
    kernel = _kernels.mode_sum

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "mode_sum", counting)
    entries = {
        "bath_green_element": lambda: bath_green_element(s, 0.3 + 0.1j, 2, 5),
        "bath_green_squared_element": lambda: bath_green_squared_element(s, 2.5, 3, 3),
        "_gamma_block": lambda: bath._gamma_block(bath.Contact(s, (1, 4, 6)), 2.5j),
        "solve_impurity_bound_state": lambda: solve_impurity_bound_state(
            s, ImpuritySpec(3, 1.0)),
        "_contact_scattering": lambda: list(impurity._contact_scattering(
            bath.Contact(s, (3,), 0.0, 1.0), [0, 5], 1e-8)),
    }
    reached = {}
    for name, call in entries.items():
        calls.clear()
        call()
        reached[name] = len(calls) > 0
    assert reached == dict.fromkeys(entries, True)
