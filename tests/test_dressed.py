"""Single dressed emitter: pole function, bound states, VDS, scattering."""

import math

import numpy as np
import pytest

from dressedgf import (
    BathSpec,
    EmitterSpec,
    ImpuritySpec,
    PoleError,
    build_full_hamiltonian,
    build_uniform_chain,
    classify_vds,
    detect_bands,
    diagonalize_bath,
    dressed_green,
    dressed_scattering_state,
    dressed_state_function,
    excitonic_green,
    field_green,
    green_matrix,
    impurity_green,
    pole_function_F,
    self_energy,
    self_potential,
    solve_dressed_bound_states,
)

from conftest import (
    eigenspace_fidelity,
    fidelity,
    random_bath_spec,
    random_gapped_bath,
    random_z,
)


def _single_mode(freq=0.0):
    return diagonalize_bath(BathSpec(n_sites=1, frequencies=(freq,), hoppings=()))


# ------------------------------------------------------------- pole pieces


def test_self_potential_and_energy():
    s = _single_mode()
    e = EmitterSpec(omega0=2.0, g=0.5, site=0)
    assert abs(self_potential(e, 4.0) - 0.125) < 1e-14
    assert abs(self_energy(s, e, 4.0) - 0.25 / 4.0) < 1e-14
    with pytest.raises(PoleError, match="self potential"):
        self_potential(e, 2.0)


def test_emitter_spec_validation():
    with pytest.raises(ValueError, match="coupling g"):
        EmitterSpec(omega0=0.0, g=0.0, site=0)
    with pytest.raises(ValueError, match="coupling g"):
        EmitterSpec(omega0=0.0, g=-1.0, site=0)


def test_pole_function_single_mode():
    s = _single_mode()
    e = EmitterSpec(omega0=2.0, g=1.0, site=0)
    # (z - 2) - 1/z at z = 4: 2 - 0.25
    assert abs(pole_function_F(s, e, 4.0) - 1.75) < 1e-14


def test_dressed_state_function_vector():
    s = _single_mode()
    e = EmitterSpec(omega0=2.0, g=0.5, site=0)
    st = dressed_state_function(s, e, 4.0)
    assert abs(st.atomic_amplitude - 2.0) < 1e-14
    np.testing.assert_allclose(st.photonic, [0.25], atol=1e-14)
    np.testing.assert_allclose(st.vector(), [2.0, 0.25], atol=1e-14)
    assert abs(st.f_value - pole_function_F(s, e, 4.0)) < 1e-14


# ------------------------------------------------------------ bound states


def test_resonant_single_mode_doublet():
    s = _single_mode()
    e = EmitterSpec(omega0=0.0, g=1.0, site=0)
    states = solve_dressed_bound_states(s, e)
    assert len(states) == 2
    np.testing.assert_allclose([b.energy for b in states], [-1.0, 1.0], atol=1e-11)
    isq = 1 / math.sqrt(2)
    np.testing.assert_allclose(states[0].vector(), [isq, -isq], atol=1e-9)
    np.testing.assert_allclose(states[1].vector(), [isq, isq], atol=1e-9)
    assert not states[0].is_vds and not states[1].is_vds


def test_detuned_single_mode_roots():
    s = _single_mode()
    e = EmitterSpec(omega0=2.0, g=1.0, site=0)
    states = solve_dressed_bound_states(s, e)
    np.testing.assert_allclose(
        [b.energy for b in states], [1 - math.sqrt(2), 1 + math.sqrt(2)], atol=1e-11
    )


def test_chain3_vds_triplet():
    s = diagonalize_bath(build_uniform_chain(3, 0.0, 1.0))
    g = 0.5
    e = EmitterSpec(omega0=0.0, g=g, site=1)
    states = solve_dressed_bound_states(s, e)
    assert len(states) == 3
    split = math.sqrt(2.0 + g * g)
    np.testing.assert_allclose([b.energy for b in states], [-split, 0.0, split], atol=1e-11)

    vds = states[1]
    assert vds.is_vds and vds.in_band
    assert not states[0].is_vds and not states[0].in_band
    nf = 1.0 / math.sqrt(1.0 + g * g / 2.0)
    assert abs(vds.norm_factor - nf) < 1e-12
    assert abs(vds.atomic_amplitude - nf) < 1e-12
    np.testing.assert_allclose(vds.photonic, [-g / 2 * nf, 0.0, -g / 2 * nf], atol=1e-12)
    # node at the contact site, exact eigenstate of the full problem
    assert abs(vds.photonic[1]) < 1e-12
    h = build_full_hamiltonian(s.source, (e,))
    assert np.linalg.norm(h @ vds.vector() - 0.0 * vds.vector()) < 1e-12


def test_chain_bound_state_against_oracle():
    s = diagonalize_bath(build_uniform_chain(100, 0.0, 1.0))
    e = EmitterSpec(omega0=2.5, g=0.3, site=50)
    states = solve_dressed_bound_states(s, e)
    # the strongly bound level above the band plus the weakly repelled one
    # pushed just below the band bottom
    assert len(states) == 2
    h = build_full_hamiltonian(s.source, (e,))
    evals, evecs = np.linalg.eigh(h)
    assert abs(states[0].energy - evals[0]) < 1e-9
    assert abs(states[1].energy - evals[-1]) < 1e-9
    assert states[1].energy > 2.5
    assert fidelity(states[0].vector(), evecs[:, 0]) > 1 - 1e-9
    assert fidelity(states[1].vector(), evecs[:, -1]) > 1 - 1e-9


def test_bound_state_completeness_random_instances():
    rng = np.random.default_rng(51)
    for _ in range(50):
        spec, s, bands = random_gapped_bath(rng)
        e = EmitterSpec(
            omega0=float(rng.uniform(-0.5, 0.5)),
            g=float(rng.uniform(0.05, 0.3)),
            site=int(rng.integers(0, s.n_sites)),
        )
        states = solve_dressed_bound_states(s, e, bands)
        h = build_full_hamiltonian(spec, (e,))
        evals, evecs = np.linalg.eigh(h)
        pad = 1e-12
        oracle = [
            float(w) for w in evals
            if all(w < lo - pad or w > hi + pad for lo, hi in bands.bands)
        ]
        got = [b for b in states if not b.in_band]
        assert len(got) == len(oracle)
        for b, w in zip(got, oracle):
            assert abs(b.energy - w) < 1e-9
            assert abs(np.linalg.norm(b.vector()) - 1.0) < 1e-10
            assert eigenspace_fidelity(h, b.energy, b.vector()) > 1 - 1e-9


def _assert_in_gap_roots_match_oracle(spec, e):
    s = diagonalize_bath(spec)
    bands = detect_bands(s)
    got = [b.energy for b in solve_dressed_bound_states(s, e, bands) if not b.in_band]
    evals = np.linalg.eigvalsh(build_full_hamiltonian(spec, (e,)))
    ref = [float(w) for w in evals if bands.in_gap(w)]
    assert len(got) == len(ref)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-9)


def test_band_edge_margin_does_not_round_onto_the_pole():
    # length * 1e-13 of the gap above the band is below the float spacing at
    # its edge, so the first margin point must be kept inside the gap
    _assert_in_gap_roots_match_oracle(
        build_uniform_chain(1000, 0.0, 1.0), EmitterSpec(2.0005, 0.1, 500)
    )


def _chain_with_side_level(t):
    """Chain of 40 sites plus a level at 3.0 hopping ``t`` to site 0."""
    chain = build_uniform_chain(40, 0.0, 1.0)
    return BathSpec(
        n_sites=41,
        frequencies=chain.frequencies + (3.0,),
        hoppings=chain.hoppings + ((40, 0, t),),
    )


@pytest.mark.parametrize("t", [
    pytest.param(6e-6, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP 3(iii): a root 1e-13 above a weak level lies inside the first margin",
    )),
    pytest.param(1.2e-5, marks=pytest.mark.xfail(
        strict=True, raises=PoleError,
        reason="ROADMAP 3(iv): a root within POLE_ATOL of a level of weight 2.1e-11",
    )),
])
def test_root_next_to_weakly_coupled_level(t):
    _assert_in_gap_roots_match_oracle(_chain_with_side_level(t), EmitterSpec(2.5, 0.1, 0))


# --------------------------------------------------------------- resolvent


def test_dressed_green_against_dense_inverse():
    rng = np.random.default_rng(52)
    for _ in range(20):
        spec, s, bands = random_gapped_bath(rng)
        e = EmitterSpec(
            omega0=float(rng.uniform(-1.0, 1.0)),
            g=float(rng.uniform(0.1, 1.0)),
            site=int(rng.integers(0, s.n_sites)),
        )
        z = random_z(rng, s)
        got = dressed_green(s, e, z)
        h = build_full_hamiltonian(spec, (e,))
        ref = np.linalg.inv(z * np.eye(h.shape[0]) - h)
        np.testing.assert_allclose(got, ref, atol=1e-9)


def test_dressed_green_sector_identities():
    s = diagonalize_bath(build_uniform_chain(10, 0.0, 1.0))
    e = EmitterSpec(omega0=2.5, g=0.3, site=4)
    z = 1.1 + 0.6j
    g = dressed_green(s, e, z)
    # emitter corner carries the excitonic propagator
    assert abs(g[0, 0] - excitonic_green(s, e, z)) < 1e-13
    # photonic block is the self-potential impurity problem
    np.testing.assert_allclose(g[1:, 1:], field_green(s, e, z), atol=1e-13)
    eps = self_potential(e, 3.2)
    np.testing.assert_allclose(
        field_green(s, e, 3.2),
        impurity_green(s, ImpuritySpec(site=4, strength=eps.real), 3.2),
        atol=1e-12,
    )


def test_dressed_green_weak_coupling_limit():
    s = diagonalize_bath(build_uniform_chain(8, 0.0, 1.0))
    z = 0.9 + 0.4j
    g_small = dressed_green(s, EmitterSpec(omega0=2.5, g=1e-6, site=3), z)
    np.testing.assert_allclose(g_small[1:, 1:], green_matrix(s, z), atol=1e-10)
    assert abs(g_small[0, 0] - 1.0 / (z - 2.5)) < 1e-10


def test_dressed_green_pole_error():
    s = _single_mode()
    e = EmitterSpec(omega0=0.0, g=1.0, site=0)
    with pytest.raises(PoleError, match="dressed resolvent pole"):
        dressed_green(s, e, 1.0)   # exactly the upper dressed level


# -------------------------------------------------------------- scattering


def test_scattering_bic_mode_untouched():
    s = diagonalize_bath(build_uniform_chain(3, 0.0, 1.0))
    e = EmitterSpec(omega0=0.0, g=0.5, site=1)
    st = dressed_scattering_state(s, e, 1)
    assert not st.regular
    assert abs(st.atomic_amplitude) == 0.0
    np.testing.assert_allclose(st.photonic, s.eigenvectors[:, 1], atol=0)
    assert st.residual < 1e-12
    # ...and it coexists with the bound state at the same energy
    states = solve_dressed_bound_states(s, e)
    assert any(b.is_vds and abs(b.energy) < 1e-11 for b in states)


def test_scattering_regular_modes_residuals():
    s = diagonalize_bath(build_uniform_chain(20, 0.0, 1.0))
    e = EmitterSpec(omega0=0.3, g=0.2, site=7)
    for k in range(20):
        st = dressed_scattering_state(s, e, k, delta=1e-8)
        assert st.residual < 1e-6
        coarse = dressed_scattering_state(s, e, k, delta=1e-6)
        if coarse.residual > 1e-12:
            assert st.residual < coarse.residual
        assert st.delta == 1e-8


def test_scattering_state_reuses_pole_channel_arithmetic():
    # the regular branch must equal the pole-channel state of
    # dressed_state_function bit for bit
    rng = np.random.default_rng(48)
    s = diagonalize_bath(random_bath_spec(rng, 9))
    e = EmitterSpec(omega0=0.2, g=0.4, site=3)
    for k in range(s.n_sites):
        st = dressed_scattering_state(s, e, k, delta=1e-8)
        assert st.regular
        z = st.energy + 1e-8j
        mode = s.eigenvectors[:, k]
        coupling = mode[e.site] / pole_function_F(s, e, z)
        psi = dressed_state_function(s, e, z)
        np.testing.assert_array_equal(st.vector, np.concatenate((
            [coupling * psi.atomic_amplitude], mode + coupling * psi.photonic)))


def test_scattering_residual_matches_dense_product():
    rng = np.random.default_rng(49)
    for _ in range(4):
        spec = random_bath_spec(rng, 10)
        s = diagonalize_bath(spec)
        e = EmitterSpec(omega0=float(rng.uniform(-1.0, 1.0)), g=0.5,
                        site=int(rng.integers(10)))
        h = build_full_hamiltonian(spec, (e,))
        h_norm = np.linalg.norm(h, 2)
        for k in range(s.n_sites):
            st = dressed_scattering_state(s, e, k)
            dense = np.linalg.norm(h @ st.vector - st.energy * st.vector)
            bound = 1e-14 * (1.0 + h_norm * np.linalg.norm(st.vector))
            assert abs(st.residual - dense) <= bound


def test_scattering_k_index_range():
    s = _single_mode()
    with pytest.raises(ValueError, match="k_index"):
        dressed_scattering_state(s, EmitterSpec(0.0, 1.0, 0), 3)


# ----------------------------------------------------------------- the VDS


def test_classify_vds_bound():
    s = diagonalize_bath(build_uniform_chain(3, 0.0, 1.0))
    res = classify_vds(s, EmitterSpec(omega0=0.0, g=0.5, site=1))
    assert res.is_vds and res.kind == "bound"
    assert res.node_amplitude < 1e-12
    isq = 1 / math.sqrt(2)
    overlap = abs(np.vdot(res.witness, [isq, 0.0, isq]))
    assert overlap > 1 - 1e-12
    # the witness is the vacancy eigenstate of the deleted-site problem
    h_del = np.delete(np.delete(s.source.to_matrix(), 1, axis=0), 1, axis=1)
    emb = np.delete(res.witness, 1)
    assert np.linalg.norm(h_del @ emb - 0.0 * emb) < 1e-12


def test_classify_vds_unbound():
    s = diagonalize_bath(build_uniform_chain(8, 0.0, 1.0))
    res = classify_vds(s, EmitterSpec(omega0=0.1, g=0.2, site=3))
    assert res.kind == "unbound"
    assert res.is_vds
    assert res.node_amplitude < 1e-8
    assert abs(res.witness[3]) < 1e-8


def test_classify_vds_none_in_gap():
    s = diagonalize_bath(build_uniform_chain(8, 0.0, 1.0))
    res = classify_vds(s, EmitterSpec(omega0=2.5, g=0.2, site=3))
    assert not res.is_vds and res.kind == "none"
    assert res.node_amplitude > 0.1


def test_classify_vds_mode_collision():
    s = diagonalize_bath(build_uniform_chain(2, 0.0, 1.0))
    res = classify_vds(s, EmitterSpec(omega0=1.0, g=0.2, site=0))
    assert not res.is_vds and res.kind == "none"
    assert "collides" in res.detail
