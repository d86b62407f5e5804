"""Multiple emitters: F matrix, rank-M resolvent, doublets, effective models."""

import math

import numpy as np
import pytest

from dressedgf import (
    BathSpec,
    EmitterArraySpec,
    EmitterSpec,
    PoleError,
    RegimeError,
    bath_green_element,
    build_full_hamiltonian,
    build_ssh_chain,
    build_uniform_chain,
    det_f_roots,
    diagonalize_bath,
    dressed_green,
    effective_hamiltonian_many,
    effective_hamiltonian_two,
    f_matrix,
    green_column,
    green_matrix,
    green_row,
    multi_green,
    overlap_matrix,
    pole_function_F,
    residue_coefficients,
    solve_dressed_bound_states,
    solve_two_atom_poles,
    t_matrix_series_green,
)
import dressedgf
from dressedgf import bath, impurity, multi

from conftest import random_bath_spec, random_gapped_bath, random_z


def _pair(omega0, g, x1, x2):
    return EmitterArraySpec(emitters=(EmitterSpec(omega0, g, x1), EmitterSpec(omega0, g, x2)))


def _padded_gap_eigenvalues(h, bands, pad=1e-12):
    evals = np.linalg.eigvalsh(h)
    return [
        float(w) for w in evals
        if all(w < lo - pad or w > hi + pad for lo, hi in bands.bands)
    ]


# ------------------------------------------------------------ array spec


def test_array_spec_validation():
    with pytest.raises(ValueError, match="share omega0 and g"):
        EmitterArraySpec(emitters=(EmitterSpec(0.0, 1.0, 0), EmitterSpec(0.1, 1.0, 1)))
    with pytest.raises(ValueError, match="two emitters on site"):
        EmitterArraySpec(emitters=(EmitterSpec(0.0, 1.0, 0), EmitterSpec(0.0, 1.0, 0)))
    with pytest.raises(ValueError, match="must not be empty"):
        EmitterArraySpec(emitters=())
    arr = _pair(0.3, 0.2, 4, 1)
    assert arr.m == 2 and arr.omega0 == 0.3 and arr.g == 0.2 and arr.sites == (4, 1)


# -------------------------------------------------------------- F matrix


def test_f_matrix_single_emitter_matches_pole_function():
    s = diagonalize_bath(build_uniform_chain(9, 0.0, 1.0))
    e = EmitterSpec(2.2, 0.4, 3)
    arr = EmitterArraySpec(emitters=(e,))
    for z in (3.0, 0.7 + 0.5j, -2.6):
        fd = f_matrix(s, arr, z)
        assert abs(fd.matrix[0, 0] - pole_function_F(s, e, z)) < 1e-14
        assert fd.asymmetry is None and fd.splitting is None


def test_f_matrix_single_emitter_is_pole_function_bit_for_bit():
    # one F for every M: the 1 x 1 pole matrix is the scalar pole function,
    # and the emitter-array resolvent of one emitter is the dressed one
    rng = np.random.default_rng(72)
    for spec in (build_uniform_chain(30, 0.0, 1.0), random_bath_spec(rng, 20)):
        s = diagonalize_bath(spec)
        e = EmitterSpec(2.2, 0.4, 3)
        arr = EmitterArraySpec(emitters=(e,))
        for z in (3.7, 0.7 + 0.5j, -2.6 - 0.01j, random_z(rng, s)):
            f = f_matrix(s, arr, z).matrix[0, 0]
            assert np.complex128(f).tobytes() == np.complex128(pole_function_F(s, e, z)).tobytes()
            assert multi_green(s, arr, z).tobytes() == dressed_green(s, e, z).tobytes()


def test_f_matrix_chain2_closed_form():
    s = diagonalize_bath(build_uniform_chain(2, 0.0, 1.0))
    arr = _pair(0.5, 0.3, 0, 1)
    fd = f_matrix(s, arr, 3.0)
    g_bare = np.linalg.inv(3.0 * np.eye(2) - np.array([[0.0, 1.0], [1.0, 0.0]]))
    ref = np.diag([(3.0 - 0.5) / 0.09] * 2) - g_bare
    np.testing.assert_allclose(fd.matrix, ref, atol=1e-14)
    # both sites equivalent: no asymmetry, splitting from the hop alone
    assert abs(fd.asymmetry) < 1e-15
    assert abs(fd.splitting - 0.09 / 8.0) < 1e-14
    assert abs(fd.shifted_center - (0.5 + 0.09 * 3.0 / 8.0)) < 1e-14


def test_f_matrix_equivalent_sites_no_asymmetry():
    # sites 3 and 8 map onto each other under the reflection of a 12-chain
    s = diagonalize_bath(build_uniform_chain(12, 0.0, 1.0))
    fd = f_matrix(s, _pair(2.5, 0.3, 3, 8), 2.5)
    assert abs(fd.asymmetry) < 1e-13
    assert abs(fd.splitting - abs(0.09 * fd.matrix[0, 1])) < 1e-13


def test_overlap_matrix_is_f_derivative():
    s = diagonalize_bath(build_uniform_chain(10, 0.0, 1.0))
    arr = _pair(2.5, 0.3, 2, 6)
    w, h = 2.7, 1e-6
    ov = overlap_matrix(s, arr, w)
    fd = (f_matrix(s, arr, w + h).matrix - f_matrix(s, arr, w - h).matrix) / (2 * h)
    np.testing.assert_allclose(ov, fd, atol=1e-5)
    assert np.min(np.linalg.eigvalsh(ov)) > -1e-10
    with pytest.raises(ValueError, match="real"):
        overlap_matrix(s, arr, 2.7 + 0.1j)


def test_overlap_offdiagonal_decays_with_separation():
    s = diagonalize_bath(build_uniform_chain(150, 0.0, 1.0))
    offs = []
    for d in (2, 6, 10, 14):
        ov = overlap_matrix(s, _pair(2.5, 0.1, 70, 70 + d), 2.5)
        offs.append(abs(ov[0, 1]))
    assert offs[0] > offs[1] > offs[2] > offs[3]


# -------------------------------------------------------------- resolvent


def test_multi_green_single_matches_dressed():
    s = diagonalize_bath(build_uniform_chain(7, 0.0, 1.0))
    e = EmitterSpec(2.1, 0.5, 3)
    arr = EmitterArraySpec(emitters=(e,))
    for z in (3.5, 0.4 + 0.8j):
        np.testing.assert_allclose(
            multi_green(s, arr, z), dressed_green(s, e, z), atol=1e-13
        )


def test_multi_green_against_dense_inverse():
    rng = np.random.default_rng(61)
    for _ in range(20):
        spec, s, bands = random_gapped_bath(rng)
        m = int(rng.integers(2, 4))
        if m > s.n_sites:
            m = s.n_sites
        sites = rng.choice(s.n_sites, size=m, replace=False)
        arr = EmitterArraySpec(emitters=tuple(
            EmitterSpec(0.2, 0.5, int(x)) for x in sites
        ))
        z = random_z(rng, s)
        got = multi_green(s, arr, z)
        h = build_full_hamiltonian(spec, arr.emitters)
        ref = np.linalg.inv(z * np.eye(h.shape[0]) - h)
        np.testing.assert_allclose(got, ref, atol=1e-9)


def test_multi_green_pole_at_bound_doublet():
    rng = np.random.default_rng(62)
    spec, s, bands = random_gapped_bath(rng, 4, 4)
    arr = _pair(0.1, 0.4, 1, 5)
    poles = solve_two_atom_poles(s, arr, bands)
    with pytest.raises(PoleError, match="singular"):
        multi_green(s, arr, poles.omega_plus)


def test_multi_green_single_emitter_raises_at_a_dressed_pole():
    # a 1 x 1 F has condition number 1 at any value: the singularity rule
    # also floors its smallest singular value, as dressed_green does
    s = diagonalize_bath(BathSpec(n_sites=1, frequencies=(0.0,), hoppings=()))
    e = EmitterSpec(omega0=0.0, g=1.0, site=0)
    for z in (1.0, 1.0 + 1e-15):
        with pytest.raises(PoleError, match="singular"):
            multi_green(s, EmitterArraySpec((e,)), z)
        with pytest.raises(PoleError, match="dressed resolvent pole"):
            dressed_green(s, e, z)


def test_multi_green_disconnected_baths_add_up():
    # two unconnected chains in one spec: F is diagonal, the corrections from
    # the two emitters are independent rank-one terms
    spec = BathSpec(
        n_sites=8,
        frequencies=(0.0,) * 8,
        hoppings=tuple((x, x + 1, 1.0 + 0j) for x in (0, 1, 2, 4, 5, 6)),
    )
    s = diagonalize_bath(spec)
    arr = _pair(2.5, 0.4, 1, 6)
    z = 2.9 + 0.3j
    fd = f_matrix(s, arr, z)
    assert abs(fd.matrix[0, 1]) == 0.0 and abs(fd.matrix[1, 0]) == 0.0

    got = multi_green(s, arr, z)
    manual = np.zeros((10, 10), dtype=np.complex128)
    manual[2:, 2:] = green_matrix(s, z)
    for i, site in enumerate(arr.sites):
        ket = np.zeros(10, dtype=np.complex128)
        ket[i] = 1.0 / 0.4
        ket[2:] = green_column(s, z, site)
        bra = np.zeros(10, dtype=np.complex128)
        bra[i] = 1.0 / 0.4
        bra[2:] = green_row(s, z, site)
        manual += np.outer(ket, bra) / fd.matrix[i, i]
    np.testing.assert_allclose(got, manual, atol=1e-12)


def test_rank_m_green_reads_kets_and_bras_off_one_green_matrix(monkeypatch):
    # the kets and bras are the columns and rows of the G_B(z) block that
    # multi_green already holds: one green_matrix and no mode sums per z
    rng = np.random.default_rng(64)
    _, s, _ = random_gapped_bath(rng, 5, 4)
    calls = {"green_matrix": 0, "green_column": 0, "green_row": 0}
    for name in calls:
        original = getattr(impurity, name, None) or getattr(dressedgf.bath, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        # the contact resolvent of impurity.py makes these calls for multi_green
        monkeypatch.setattr(impurity, name, counted, raising=False)
    for arr in (_pair(0.1, 0.5, 1, 6),
                EmitterArraySpec(tuple(EmitterSpec(0.1, 0.5, x) for x in (0, 3, 8)))):
        z = random_z(rng, s)
        got = multi_green(s, arr, z)
        m = arr.m
        manual = np.zeros_like(got)
        manual[m:, m:] = green_matrix(s, z)
        kets = np.zeros((m + s.n_sites, m), dtype=np.complex128)
        bras = np.zeros((m, m + s.n_sites), dtype=np.complex128)
        for i, x in enumerate(arr.sites):
            kets[i, i] = bras[i, i] = 1.0 / arr.g
            kets[m:, i] = green_column(s, z, x)
            bras[i, m:] = green_row(s, z, x)
        manual += kets @ np.linalg.solve(f_matrix(s, arr, z).matrix, bras)
        np.testing.assert_allclose(got, manual, atol=1e-12)
    assert calls == {"green_matrix": 2, "green_column": 0, "green_row": 0}


def test_t_matrix_series_keeps_the_bare_base():
    # order 0 of the series is G_B padded plus the bare emitter term
    rng = np.random.default_rng(65)
    _, s, _ = random_gapped_bath(rng, 4, 4)
    arr = _pair(0.1, 0.5, 1, 5)
    z = 0.1 + 2.5j
    closed = multi_green(s, arr, z)
    _, report = t_matrix_series_green(s, arr, z, k_max=0)
    zeroth = np.zeros_like(closed)
    zeroth[2:, 2:] = green_matrix(s, z)
    kets = np.zeros((10, 2), dtype=np.complex128)
    bras = np.zeros((2, 10), dtype=np.complex128)
    for i, x in enumerate(arr.sites):
        kets[i, i] = bras[i, i] = 1.0 / arr.g
        kets[2:, i] = green_column(s, z, x)
        bras[i, 2:] = green_row(s, z, x)
    zeroth += arr.g ** 2 / (z - arr.omega0) * (kets @ bras)
    assert abs(report.residuals[0] - np.max(np.abs(zeroth - closed))) <= 1e-12


# ----------------------------------------------------------- Born series


def test_t_matrix_series_converges_far_from_resonance():
    rng = np.random.default_rng(63)
    spec, s, bands = random_gapped_bath(rng, 4, 4)
    arr = _pair(0.1, 0.5, 1, 5)
    z = 0.1 + 2.5j
    approx, report = t_matrix_series_green(s, arr, z)
    assert report.converged and report.spectral_radius < 1.0
    assert report.residuals[-1] < 1e-10
    assert report.residuals[-1] < report.residuals[2]
    h = build_full_hamiltonian(spec, arr.emitters)
    ref = np.linalg.inv(z * np.eye(10) - h)
    np.testing.assert_allclose(approx, ref, atol=1e-9)


def test_t_matrix_series_divergence_is_reported_not_raised():
    rng = np.random.default_rng(63)
    spec, s, bands = random_gapped_bath(rng, 4, 4)
    arr = _pair(0.1, 0.5, 1, 5)
    z = 0.1 + 1e-3 + 1e-3j   # inside the emitter resonance: series blows up
    approx, report = t_matrix_series_green(s, arr, z)
    assert not report.converged and report.spectral_radius > 1.0
    assert report.residuals[-1] > report.residuals[0]
    # the closed form stays exact regardless
    h = build_full_hamiltonian(spec, arr.emitters)
    ref = np.linalg.inv(z * np.eye(10) - h)
    np.testing.assert_allclose(multi_green(s, arr, z), ref, atol=1e-9)


def test_t_matrix_series_builds_gamma_block_once(monkeypatch):
    rng = np.random.default_rng(63)
    _, s, _ = random_gapped_bath(rng, 4, 4)
    arr = _pair(0.1, 0.5, 1, 5)
    calls = []
    block = bath._gamma_block

    def counting(*args):
        calls.append(args)
        return block(*args)

    # the whole M x M block is one call, counted wherever it is built: the
    # series holds it and the contact resolvent builds none of its own
    monkeypatch.setattr(bath, "_gamma_block", counting)
    monkeypatch.setattr(multi, "_gamma_block", counting)
    monkeypatch.setattr(impurity, "_gamma_block", counting)
    t_matrix_series_green(s, arr, 0.1 + 2.5j)
    assert len(calls) == 1


def test_t_matrix_series_pole_at_omega0():
    s = diagonalize_bath(build_uniform_chain(4, 0.0, 1.0))
    arr = _pair(2.5, 0.3, 0, 3)
    with pytest.raises(PoleError, match="bare emitter pole"):
        t_matrix_series_green(s, arr, 2.5)


# ------------------------------------------------------------- det F roots


def test_det_f_roots_single_emitter_matches_bound_solver():
    s = diagonalize_bath(build_uniform_chain(30, 0.0, 1.0))
    e = EmitterSpec(2.5, 0.3, 11)
    arr = EmitterArraySpec(emitters=(e,))
    roots = det_f_roots(s, arr)
    ref = [b.energy for b in solve_dressed_bound_states(s, e) if not b.in_band]
    np.testing.assert_allclose(roots, ref, atol=1e-10)


def test_det_f_roots_count_matches_oracle():
    rng = np.random.default_rng(64)
    for _ in range(50):
        spec, s, bands = random_gapped_bath(rng)
        m = 2 if s.n_sites < 6 else int(rng.integers(2, 4))
        sites = rng.choice(s.n_sites, size=m, replace=False)
        omega0 = float(rng.uniform(-0.4, 0.4))
        g = float(rng.uniform(0.1, 0.4))
        arr = EmitterArraySpec(emitters=tuple(
            EmitterSpec(omega0, g, int(x)) for x in sites
        ))
        roots = det_f_roots(s, arr, bands)
        h = build_full_hamiltonian(spec, arr.emitters)
        oracle = _padded_gap_eigenvalues(h, bands)
        assert len(roots) == len(oracle)
        for r, w in zip(roots, oracle):
            assert abs(r - w) < 1e-9


@pytest.mark.parametrize("bad", [-1, 30])
def test_det_f_roots_rejects_out_of_range_sites(bad):
    # a negative site must not wrap around to the far end of the chain
    s = diagonalize_bath(build_uniform_chain(30, 0.0, 1.0))
    with pytest.raises(ValueError, match="out of range"):
        det_f_roots(s, _pair(2.5, 0.3, bad, 3))


# ------------------------------------------------------------ pole doublet


def test_two_atom_poles_equivalent_sites():
    s = diagonalize_bath(build_uniform_chain(12, 0.0, 1.0))
    bands = None
    arr = _pair(2.5, 0.3, 3, 8)
    poles = solve_two_atom_poles(s, arr)
    assert poles.omega_minus is not None and poles.omega_plus is not None
    assert poles.omega_minus < poles.omega_plus
    h = build_full_hamiltonian(s.source, arr.emitters)
    evals, evecs = np.linalg.eigh(h)
    for w, st in ((poles.omega_minus, poles.state_minus),
                  (poles.omega_plus, poles.state_plus)):
        k = int(np.argmin(np.abs(evals - w)))
        assert abs(evals[k] - w) < 1e-9
        assert abs(abs(np.vdot(evecs[:, k], st)) - 1.0) < 1e-9
    assert abs(np.vdot(poles.state_minus, poles.state_plus)) < 1e-9


def test_two_atom_poles_distant_atoms_degenerate():
    s = diagonalize_bath(build_uniform_chain(200, 0.0, 1.0))
    arr = _pair(2.5, 0.1, 50, 150)
    poles = solve_two_atom_poles(s, arr)
    assert poles.omega_plus - poles.omega_minus < 1e-8
    assert abs(np.vdot(poles.state_minus, poles.state_plus)) < 1e-10
    h = build_full_hamiltonian(s.source, arr.emitters)
    evals, evecs = np.linalg.eigh(h)
    cluster = evecs[:, np.abs(evals - poles.omega_minus) < 1e-6]
    assert cluster.shape[1] == 2
    for st in (poles.state_minus, poles.state_plus):
        assert np.linalg.norm(cluster.conj().T @ st) > 1 - 1e-9


def test_two_atom_states_keep_their_gram_schmidt_meaning():
    # reference: the null vectors of F(w), ordered by |eigenvalue|, applied to
    # the dressed kets from green_column, then Gram-Schmidt in that order
    for n, x1, x2 in ((200, 50, 150), (12, 3, 8)):
        s = diagonalize_bath(build_uniform_chain(n, 0.0, 1.0))
        arr = _pair(2.5, 0.1, x1, x2)
        poles = solve_two_atom_poles(s, arr)
        degenerate = poles.omega_plus - poles.omega_minus < 1e-8
        assert degenerate == (n == 200)
        refs = []
        for w in ((poles.omega_minus,) if degenerate else (poles.omega_minus, poles.omega_plus)):
            fvals, fvecs = np.linalg.eigh(f_matrix(s, arr, w).matrix)
            kets = np.zeros((2 + n, 2), dtype=np.complex128)
            for i, x in enumerate(arr.sites):
                kets[i, i] = 1.0 / arr.g
                kets[2:, i] = green_column(s, w, x)
            order = np.argsort(np.abs(fvals))
            refs += [kets @ fvecs[:, k] for k in order[:2 if degenerate else 1]]
        refs = [r / np.linalg.norm(r) for r in refs]
        if degenerate:
            refs[1] = refs[1] - np.vdot(refs[0], refs[1]) * refs[0]
            refs[1] = refs[1] / np.linalg.norm(refs[1])
        np.testing.assert_allclose(poles.state_minus, refs[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(poles.state_plus, refs[1], rtol=0, atol=1e-12)


def test_two_atom_splitting_scales_with_g_squared():
    s = diagonalize_bath(build_uniform_chain(60, 0.0, 1.0))
    gs = (0.02, 0.04, 0.08)
    splits = []
    for g in gs:
        poles = solve_two_atom_poles(s, _pair(2.5, g, 28, 32))
        splits.append(poles.omega_plus - poles.omega_minus)
    slope = (math.log(splits[-1]) - math.log(splits[0])) / (
        math.log(gs[-1]) - math.log(gs[0])
    )
    assert abs(slope - 2.0) < 0.05


def test_two_atom_poles_requires_two_emitters():
    s = diagonalize_bath(build_uniform_chain(5, 0.0, 1.0))
    with pytest.raises(ValueError, match="two emitters"):
        solve_two_atom_poles(s, EmitterArraySpec(emitters=(EmitterSpec(2.5, 0.3, 1),)))


# ---------------------------------------------------------------- residues


def test_residue_coefficients_reproduce_oracle_projectors():
    rng = np.random.default_rng(65)
    spec, s, bands = random_gapped_bath(rng, 4, 4)
    arr = _pair(0.1, 0.4, 1, 5)
    poles = solve_two_atom_poles(s, arr, bands)
    h = build_full_hamiltonian(spec, arr.emitters)
    evals, evecs = np.linalg.eigh(h)
    for w in (poles.omega_minus, poles.omega_plus):
        coeff = residue_coefficients(s, arr, w)
        kets = np.zeros((h.shape[0], 2), dtype=np.complex128)
        kets[0, 0] = kets[1, 1] = 1.0 / arr.g
        kets[2:, 0] = green_column(s, complex(w), arr.sites[0])
        kets[2:, 1] = green_column(s, complex(w), arr.sites[1])
        residue = kets @ coeff @ kets.conj().T
        k = int(np.argmin(np.abs(evals - w)))
        projector = np.outer(evecs[:, k], np.conj(evecs[:, k]))
        np.testing.assert_allclose(residue, projector, atol=1e-7)
        assert abs(np.trace(residue).real - 1.0) < 1e-9


def test_residue_coefficients_require_two_emitters():
    s = diagonalize_bath(build_uniform_chain(5, 0.0, 1.0))
    with pytest.raises(ValueError, match="two emitters"):
        residue_coefficients(s, EmitterArraySpec(emitters=(EmitterSpec(2.5, 0.3, 1),)), 2.6)


# ------------------------------------------------------- effective models


def test_effective_many_single_emitter():
    s = diagonalize_bath(build_uniform_chain(20, 0.0, 1.0))
    arr = EmitterArraySpec(emitters=(EmitterSpec(2.5, 0.2, 8),))
    ham = effective_hamiltonian_many(s, arr)
    gamma = bath_green_element(s, 2.5, 8, 8).real
    assert abs(ham.matrix[0, 0] - (2.5 + 0.04 * gamma)) < 1e-13
    assert len(ham.gamma_eigenvalues) == 1
    assert abs(ham.gamma_eigenvalues[0] - gamma) < 1e-13
    assert abs(np.linalg.norm(ham.basis[:, 0]) - 1.0) < 1e-10
    bands_dist = 2.5 - s.eigenvalues[-1]
    assert abs(ham.weak_coupling_ratio - abs(0.04 * gamma) / bands_dist) < 1e-10


def test_effective_many_is_frozen_green_submatrix():
    s = diagonalize_bath(build_uniform_chain(30, 0.0, 1.0))
    sites = (5, 12, 20)
    arr = EmitterArraySpec(emitters=tuple(EmitterSpec(2.5, 0.15, x) for x in sites))
    ham = effective_hamiltonian_many(s, arr)
    ref = 2.5 * np.eye(3, dtype=np.complex128)
    for i, xi in enumerate(sites):
        for j, xj in enumerate(sites):
            ref[i, j] += 0.15 ** 2 * bath_green_element(s, 2.5, xi, xj)
    np.testing.assert_allclose(ham.matrix, ref, atol=1e-13)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(ham.matrix)),
        2.5 + 0.15 ** 2 * np.asarray(ham.gamma_eigenvalues),
        atol=1e-12,
    )


def test_effective_many_tracks_oracle_at_quartic_order():
    s = diagonalize_bath(build_uniform_chain(150, 0.0, 1.0))
    errs = []
    for g in (0.05, 0.1):
        arr = EmitterArraySpec(emitters=tuple(EmitterSpec(2.5, g, x) for x in (60, 74, 75)))
        ham = effective_hamiltonian_many(s, arr)
        ev = np.sort(np.linalg.eigvalsh(ham.matrix))
        full = np.sort(np.linalg.eigvalsh(build_full_hamiltonian(s.source, arr.emitters)))
        orc = full[full > 2.2]
        assert orc.shape[0] == 3
        errs.append(float(np.max(np.abs(ev - orc))))
    assert errs[0] < 2e-5
    ratio = errs[1] / errs[0]
    assert 10.0 < ratio < 22.0   # quartic in g: doubling g gives ~16x


def test_effective_many_rejects_in_band_omega0():
    s = diagonalize_bath(build_uniform_chain(20, 0.0, 1.0))
    arr = EmitterArraySpec(emitters=(EmitterSpec(0.1, 0.2, 8),))
    with pytest.raises(RegimeError, match="inside a band"):
        effective_hamiltonian_many(s, arr)


def test_effective_models_raise_on_a_coupled_level_at_omega0():
    # omega0 within POLE_ATOL above the top level, inside the upper tail gap:
    # Gamma_S at omega0 refuses the level before the kets there are built
    s = diagonalize_bath(build_uniform_chain(40, 0.0, 1.0))
    omega0 = float(s.eigenvalues[-1]) + 0.5 * bath.POLE_ATOL
    for solve, sites in ((effective_hamiltonian_many, (3, 9, 14)),
                         (effective_hamiltonian_two, (3, 9))):
        arr = EmitterArraySpec(tuple(EmitterSpec(omega0, 0.1, x) for x in sites))
        with pytest.raises(PoleError, match="coincides with eigenvalue"):
            solve(s, arr)


def test_effective_two_equivalent_sites():
    s = diagonalize_bath(build_uniform_chain(12, 0.0, 1.0))
    arr = _pair(2.5, 0.3, 3, 8)
    ham = effective_hamiltonian_two(s, arr)
    assert ham.route == "analytic"
    dec = ham.decomposition
    # the antisymmetric piece dies for equivalent atoms
    assert np.max(np.abs(dec.h_a)) < 1e-12
    fm = f_matrix(s, arr, 2.5).matrix
    omega_bs = 2.5 - 0.09 * fm[0, 0].real
    compact = np.array([
        [omega_bs, -0.09 * fm[0, 1]],
        [-0.09 * np.conj(fm[0, 1]), omega_bs],
    ])
    np.testing.assert_allclose(ham.matrix, compact, atol=1e-12)
    np.testing.assert_allclose(ham.matrix, (dec.h_s + dec.h_a), atol=0)
    # same numbers as the frozen many-emitter route
    many = effective_hamiltonian_many(s, arr)
    np.testing.assert_allclose(ham.matrix, many.matrix, atol=1e-12)
    # and the bath reflection symmetry survives as swap invariance
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(swap @ ham.matrix @ swap, ham.matrix, atol=1e-10)


def _residue_assembly(s, arr, dec):
    """Doublet-times-residue form of the decomposition, from frozen pieces."""
    g2 = arr.g ** 2
    fm = f_matrix(s, arr, complex(arr.omega0)).matrix
    fprime = overlap_matrix(s, arr, arr.omega0)
    n1, n2 = float(np.real(fprime[0, 0])), float(np.real(fprime[1, 1]))
    scale = np.sqrt(np.array([n1, n2]))
    to_basis = np.outer(scale, scale)
    acc = np.zeros((2, 2), dtype=np.complex128)
    for sign, beta in ((+1.0, dec.beta_plus), (-1.0, dec.beta_minus)):
        omega_hat = dec.shifted_center + sign * dec.splitting
        residue = np.array([
            [dec.asymmetry + sign * dec.splitting, -g2 * fm[0, 1]],
            [-g2 * fm[1, 0], -dec.asymmetry + sign * dec.splitting],
        ], dtype=np.complex128) / beta
        acc += omega_hat * (residue * to_basis)
    return acc


def test_effective_two_decomposition_identity():
    # the channel split must re-sum to the doublet-times-residue form exactly,
    # for strongly asymmetric sites and for a chirally symmetric mid-gap case
    cases = []
    s1 = diagonalize_bath(build_uniform_chain(40, 0.0, 1.0))
    cases.append((s1, _pair(2.5, 0.15, 1, 6)))
    s2 = diagonalize_bath(build_ssh_chain(20, 0.0, 1.0, 0.6))
    cases.append((s2, _pair(0.0, 0.15, 8, 13)))
    for s, arr in cases:
        ham = effective_hamiltonian_two(s, arr)
        dec = ham.decomposition
        lhs = dec.h_s + dec.h_a
        rhs = _residue_assembly(s, arr, dec)
        scale = max(np.max(np.abs(lhs)), 1.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale
        np.testing.assert_allclose(ham.matrix, lhs, atol=0)


def test_effective_two_unresolved_center_leaves_omegas_undefined():
    # ROADMAP 6: at omega_c of the topological chain the shifted center is
    # rounding noise (~1e-17), and Omega_i = split**2/center + -asym read -3e12
    s = diagonalize_bath(build_ssh_chain(100, 0.0, 0.5, 1.0))
    dec = effective_hamiltonian_two(s, _pair(0.0, 0.1, 99, 102)).decomposition
    assert abs(dec.shifted_center) < 1e-15
    assert math.isnan(dec.omega_1) and math.isnan(dec.omega_2)
    # a resolved center keeps its Omega_i
    s = diagonalize_bath(build_uniform_chain(40, 0.0, 1.0))
    dec = effective_hamiltonian_two(s, _pair(2.5, 0.15, 1, 6)).decomposition
    assert dec.shifted_center > 2.0
    assert dec.omega_1 == dec.splitting ** 2 / dec.shifted_center + dec.asymmetry
    assert dec.omega_2 == dec.splitting ** 2 / dec.shifted_center - dec.asymmetry


def test_effective_two_degenerate_beta_falls_back():
    # fully decoupled levels: asymmetry and splitting both vanish and the
    # analytic channel split divides by zero; the residue route must take over
    spec = BathSpec(n_sites=2, frequencies=(1.5, 1.5), hoppings=())
    s = diagonalize_bath(spec)
    arr = _pair(0.0, 0.1, 0, 1)
    ham = effective_hamiltonian_two(s, arr)
    assert ham.route == "residue"
    assert np.all(np.isfinite(ham.matrix))
    np.testing.assert_allclose(ham.matrix, ham.matrix.conj().T, atol=1e-14)
    # both atoms bind at the detuned level, off-diagonals stay empty
    assert abs(ham.matrix[0, 1]) < 1e-14
    assert abs(ham.matrix[0, 0] - (-2.0 * 0.01 / 3.0)) < 5e-5
    many = effective_hamiltonian_many(s, arr)
    np.testing.assert_allclose(ham.matrix, many.matrix, atol=1e-4)


def test_effective_two_is_hermitian():
    rng = np.random.default_rng(66)
    for _ in range(10):
        spec, s, bands = random_gapped_bath(rng)
        sites = rng.choice(s.n_sites, size=2, replace=False)
        arr = _pair(float(rng.uniform(-0.3, 0.3)), float(rng.uniform(0.1, 0.3)),
                    int(sites[0]), int(sites[1]))
        ham = effective_hamiltonian_two(s, arr, bands)
        np.testing.assert_allclose(ham.matrix, ham.matrix.conj().T, atol=1e-12)
        assert np.all(np.isfinite(ham.matrix))


def test_effective_two_requires_two_emitters():
    s = diagonalize_bath(build_uniform_chain(5, 0.0, 1.0))
    with pytest.raises(ValueError, match="two emitters"):
        effective_hamiltonian_two(s, EmitterArraySpec(emitters=(EmitterSpec(2.5, 0.3, 1),)))


@pytest.mark.parametrize("k_max", [-1, 2.5])
def test_t_matrix_series_rejects_k_max_that_is_no_order(k_max):
    s = diagonalize_bath(build_uniform_chain(8, 0.0, 1.0))
    with pytest.raises(ValueError, match="k_max"):
        t_matrix_series_green(s, _pair(2.5, 0.1, 2, 4), 0.1 + 1.0j, k_max=k_max)


def _array_bath(name):
    """Spec, spectral data, the solver's bands and the physical band intervals of a bath.

    The physical bands of the topological SSH chain leave out its edge pair,
    which ``detect_bands`` reads as a zero-width band (ROADMAP 3(ii)).
    """
    if name.startswith("gapped"):
        spec, s, bands = random_gapped_bath(np.random.default_rng(int(name[-1])), 5, 5)
        return spec, s, bands, bands.bands
    spec = {"chain": lambda: build_uniform_chain(200, 0.0, 1.0),
            "ssh-trivial": lambda: build_ssh_chain(100, 0.0, 1.0, 0.5),
            "ssh-topological": lambda: build_ssh_chain(100, 0.0, 0.5, 1.0)}[name]()
    s = diagonalize_bath(spec)
    bands = bath.detect_bands(s)
    lv, half = s.eigenvalues, s.n_sites // 2
    physical = {"chain": [(lv[0], lv[-1])],
                "ssh-trivial": [(lv[0], lv[half - 1]), (lv[half], lv[-1])],
                "ssh-topological": [(lv[0], lv[half - 2]), (lv[half + 1], lv[-1])]}[name]
    return spec, s, bands, physical


_EDGE_PAIR_MISSED = pytest.mark.xfail(
    strict=True, reason="ROADMAP 3(ii): the edge pair read as a band hides two in-gap levels")


@pytest.mark.parametrize("m", [3, 8])
@pytest.mark.parametrize("name, omega0", [
    ("chain", 2.3), ("chain", 2.0005), ("ssh-trivial", 0.0), ("ssh-trivial", 0.2),
    ("gapped-0", 0.1), ("gapped-1", 0.1), ("gapped-2", 0.1), ("gapped-3", 0.1),
    pytest.param("ssh-topological", 0.2, marks=_EDGE_PAIR_MISSED),
])
def test_bound_states_at_det_f_roots_match_dense_eigensystem(name, omega0, m):
    """The builder's states at every root of an array: count, energies, residuals, orthonormality.

    On the trivial SSH chain at omega0 = 0 every site of one sublattice has
    Gamma(0) = 0, so all M branches share the root 0 and its states come from
    M null vectors at once.
    """
    spec, s, bands, physical = _array_bath(name)
    sites = list(range(m)) if s.n_sites < 40 else [40 + 8 * k for k in range(m)]
    arr = EmitterArraySpec(tuple(EmitterSpec(omega0, 0.1, x) for x in sites))
    w, states, _ = impurity._bound_states(arr._contact(s), det_f_roots(s, arr, bands))
    h = build_full_hamiltonian(spec, arr)
    width = s.spectral_width
    # bath levels of a cluster no site touches stay levels of H, on a band edge to rounding
    pad = 1e-12 * width
    dense = [x for x in np.linalg.eigvalsh(h)
             if all(x < lo - pad or x > hi + pad for lo, hi in physical)]
    assert len(w) == len(dense)
    np.testing.assert_allclose(w, dense, rtol=0, atol=1e-13 * width)
    for x, v in zip(w, states):
        assert np.linalg.norm(h @ v - x * v) < 1e-12 * width
    vecs = np.array(states).T
    np.testing.assert_allclose(np.conj(vecs.T) @ vecs, np.eye(len(w)), rtol=0, atol=1e-12)
