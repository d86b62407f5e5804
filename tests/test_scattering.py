"""The batched scattering core against the single-mode scattering states.

Impurity, vacancy, zero strength and emitter all go through
``impurity._contact_scattering`` over index arrays; a chunk of one mode must
reproduce the single-mode functions, and a batch must agree with them to
rounding.
"""

import json

import numpy as np
import pytest

import dressedgf
from conftest import random_bath_spec
from dressedgf import (
    VACANCY,
    EmitterSpec,
    ImpuritySpec,
    build_ssh_chain,
    build_uniform_chain,
    cli,
    compare,
    default_delta,
    diagonalize_bath,
    dressed_scattering_state,
    impurity_scattering_state,
)
from dressedgf import impurity
from dressedgf.bath import POLE_ATOL
from dressedgf.dressed import scattering_scalars


def _baths():
    # a chain with node modes at its centre, a topological SSH chain whose
    # edge pair is split by less than POLE_ATOL, and a random complex graph
    topo = build_ssh_chain(44, 0.0, 0.5, 1.0)
    return [
        ("chain", build_uniform_chain(41, 0.0, 1.0), (20, 7)),
        ("ssh", topo, (0, 1, 44)),
        ("random", random_bath_spec(np.random.default_rng(91), 40), (3, 17)),
    ]


@pytest.fixture(scope="module", params=_baths(), ids=lambda b: b[0])
def bath(request):
    name, spec, sites = request.param
    s = diagonalize_bath(spec)
    if name == "ssh":
        edge = np.sort(np.abs(s.eigenvalues))[:2]
        assert edge[1] < POLE_ATOL  # both edge levels sit within POLE_ATOL of 0
    return s, sites


def _close(batch, single, mode):
    # rounding of the GEMM columns scales with |coupling| * ||G_B(z)|x>||,
    # which is the size of the correction added to the mode
    scale = 1.0 + np.linalg.norm(single - mode)
    assert np.linalg.norm(batch - single) <= 1e-12 * scale


@pytest.mark.parametrize("strength", [0.8, -1.3, VACANCY, 0.0])
def test_batched_impurity_matches_single_modes(bath, strength, monkeypatch):
    s, sites = bath
    monkeypatch.setattr(impurity, "SCATTER_CHUNK", 16)  # several chunks
    delta = default_delta(s)
    for site in sites:
        spec = ImpuritySpec(site=site, strength=strength)
        chunks = list(impurity._contact_scattering(
            spec._contact(s), range(s.n_sites), delta))
        assert [c[0].size for c in chunks][:-1] == [16] * (len(chunks) - 1)
        for ks, omega, regular, states in chunks:
            residuals = impurity._scattering_residuals(s, spec, omega, states)
            for i, k in enumerate(ks):
                single = impurity_scattering_state(s, spec, int(k))
                assert single.energy == omega[i]
                assert single.regular == regular[i]
                _close(states[:, i], single.vector, s.eigenvectors[:, k])
                assert abs(residuals[i] - single.residual) <= 1e-12


@pytest.mark.parametrize("omega0,g", [(0.3, 0.2), (2.6, 0.5), (0.0, 0.1)])
def test_batched_emitter_matches_single_modes(bath, omega0, g, monkeypatch):
    s, sites = bath
    monkeypatch.setattr(impurity, "SCATTER_CHUNK", 16)
    for site in sites:
        e = EmitterSpec(omega0=omega0, g=g, site=site)
        energy, amplitude, regular, residual = scattering_scalars(s, e, range(s.n_sites))
        for k in range(s.n_sites):
            single = dressed_scattering_state(s, e, k)
            assert single.energy == energy[k]
            assert single.regular == regular[k]
            assert abs(residual[k] - single.residual) <= 1e-12
            tol = 1e-12 * (1.0 + np.linalg.norm(single.photonic - s.eigenvectors[:, k]))
            assert abs(amplitude[k] - single.atomic_amplitude) <= tol


def test_chunk_of_one_mode_is_the_single_mode_state(bath):
    s, sites = bath
    e = EmitterSpec(omega0=0.3, g=0.2, site=sites[0])
    for k in (0, s.n_sites // 2, s.n_sites - 1):
        single = dressed_scattering_state(s, e, k)
        energy, amplitude, regular, residual = scattering_scalars(s, e, [k])
        assert (energy[0], amplitude[0], regular[0], residual[0]) == (
            single.energy, single.atomic_amplitude, single.regular, single.residual)


def test_untouched_mode_passes_through_bit_for_bit():
    # chain(3) with exact eigenvectors; the zero mode has a signed zero on
    # the centre, where the vacancy makes it untouched
    r = 1.0 / np.sqrt(2.0)
    s = dressedgf.SpectralData(
        eigenvalues=np.array([-np.sqrt(2.0), 0.0, np.sqrt(2.0)]),
        eigenvectors=np.array([[0.5, r, 0.5], [r, -0.0, -r], [0.5, -r, 0.5]],
                              dtype=np.complex128),
        source=build_uniform_chain(3, 0.0, 1.0),
    )
    st = impurity_scattering_state(s, ImpuritySpec(site=1, strength=VACANCY), 1)
    assert not st.regular
    assert st.vector.tobytes() == s.eigenvectors[:, 1].tobytes()


def test_scalars_keep_the_order_of_the_indices():
    s = diagonalize_bath(build_uniform_chain(30, 0.0, 1.0))
    e = EmitterSpec(omega0=0.4, g=0.3, site=4)
    ks = [29, 3, 3, 17, 0]
    energy, amplitude, _, _ = scattering_scalars(s, e, ks)
    np.testing.assert_array_equal(energy, s.eigenvalues[ks])
    for i, k in enumerate(ks):
        assert amplitude[i] == dressed_scattering_state(s, e, k).atomic_amplitude
    empty = scattering_scalars(s, e, [])
    assert all(a.size == 0 for a in empty)


def test_core_rejects_bad_index_site_and_delta():
    s = diagonalize_bath(build_uniform_chain(6, 0.0, 1.0))
    spec = ImpuritySpec(site=2, strength=1.0)

    def run(ks, site=2, delta=1e-8):
        contact = ImpuritySpec(site=site, strength=spec.strength)._contact(s)
        return list(impurity._contact_scattering(contact, ks, delta))

    with pytest.raises(ValueError, match="k_index 6"):
        run([0, 6])
    with pytest.raises(ValueError, match="k_index -1"):
        run([-1])
    with pytest.raises(ValueError, match="out of range"):
        run([0], site=6)
    with pytest.raises(ValueError, match="delta"):
        run([0], delta=0.0)


def _count_calls(monkeypatch, names):
    """Wrap every package-level binding of ``names``; returns the call counter."""
    calls = {name: 0 for name in names}
    for module in (dressedgf.bath, dressedgf.impurity, dressedgf.dressed,
                   dressedgf.multi, dressedgf.oracle, dressedgf.cli):
        for name in names:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


def test_scattering_makes_no_per_mode_column_or_pole_function_calls(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, ("green_column", "pole_function_F",
                                       "dressed_scattering_state"))
    spec = build_uniform_chain(31, 0.0, 1.0)
    report = compare(spec, (EmitterSpec(2.6, 0.3, 15),), checks=("scattering_residuals",))
    assert report.all_passed
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "bath": {"builder": "chain", "n_sites": 31, "omega_c": 0.0, "j": 1.0},
        "emitters": [{"omega0": 0.3, "g": 0.2, "site": 15}],
    }))
    assert cli.main(["scattering", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert calls == {"green_column": 0, "pole_function_F": 0, "dressed_scattering_state": 0}


def test_scattering_csv_is_byte_identical_across_runs(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "bath": {"builder": "ssh", "n_cells": 44, "omega_c": 0.0, "j1": 0.5, "j2": 1.0},
        "emitters": [{"omega0": 0.05, "g": 0.2, "site": 1}],
    }))
    for run in ("a", "b"):
        assert cli.main(["scattering", "--config", str(cfg), "--out", str(tmp_path / run)]) == 0
    first = (tmp_path / "a" / "scattering.csv").read_bytes()
    assert first == (tmp_path / "b" / "scattering.csv").read_bytes()
    assert len(first.splitlines()) == 2 + 88
