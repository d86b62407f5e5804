"""Dense reference path and the cross-check orchestrator."""

import json
import math
import warnings

import numpy as np
import pytest

import dressedgf.multi
import dressedgf.oracle
from dressedgf import (
    BathSpec,
    EmitterSpec,
    PoleError,
    build_full_hamiltonian,
    build_uniform_chain,
    compare,
    diagonalize_bath,
    direct_resolvent,
    exact_eigensystem,
)
from dressedgf.oracle import _spectral_resolvent

from conftest import random_bath_spec, random_gapped_bath


def _single_mode_bath(freq=0.0):
    return BathSpec(n_sites=1, frequencies=(freq,), hoppings=())


def test_full_hamiltonian_single_mode_resonant():
    h = build_full_hamiltonian(_single_mode_bath(), (EmitterSpec(0.0, 1.0, 0),))
    np.testing.assert_allclose(h, [[0.0, 1.0], [1.0, 0.0]], atol=0)


def test_full_hamiltonian_chain3_centre_spectrum():
    spec = build_uniform_chain(3, 0.0, 1.0)
    evals, _ = exact_eigensystem(spec, (EmitterSpec(0.0, 0.5, 1),))
    split = math.sqrt(2.0 + 0.25)
    np.testing.assert_allclose(evals, [-split, 0.0, 0.0, split], atol=1e-12)


def test_full_hamiltonian_trace_identity():
    rng = np.random.default_rng(41)
    spec = random_bath_spec(rng, 9)
    emitters = (EmitterSpec(1.3, 0.4, 2), EmitterSpec(1.3, 0.4, 7))
    h = build_full_hamiltonian(spec, emitters)
    expected = 2 * 1.3 + sum(spec.frequencies)
    assert abs(np.trace(h).real - expected) < 1e-12


def test_full_hamiltonian_site_validation():
    spec = build_uniform_chain(3, 0.0, 1.0)
    with pytest.raises(ValueError, match="two emitters on site"):
        build_full_hamiltonian(spec, (EmitterSpec(0.0, 1.0, 1), EmitterSpec(0.0, 1.0, 1)))
    with pytest.raises(ValueError, match="out of range"):
        build_full_hamiltonian(spec, (EmitterSpec(0.0, 1.0, 5),))


def test_exact_eigensystem_reconstructs():
    rng = np.random.default_rng(42)
    spec = random_bath_spec(rng, 7)
    emitters = (EmitterSpec(0.5, 0.6, 1), EmitterSpec(0.5, 0.6, 4))
    evals, evecs = exact_eigensystem(spec, emitters)
    h = build_full_hamiltonian(spec, emitters)
    np.testing.assert_allclose(evecs.conj().T @ evecs, np.eye(9), atol=1e-10)
    np.testing.assert_allclose(evecs @ np.diag(evals) @ evecs.conj().T, h, atol=1e-10)


def test_direct_resolvent_closed_form():
    got = direct_resolvent(_single_mode_bath(), (EmitterSpec(0.0, 1.0, 0),), 2j)
    ref = np.array([[2j, 1.0], [1.0, 2j]]) / (-5.0)
    np.testing.assert_allclose(got, ref, atol=1e-14)


def test_direct_resolvent_rejects_eigenvalue():
    with pytest.raises(PoleError, match="cond"):
        direct_resolvent(_single_mode_bath(), (EmitterSpec(0.0, 1.0, 0),), 1.0)


def _guard_case():
    """A complex two-emitter Hamiltonian and shifts on, next to and off its levels."""
    rng = np.random.default_rng(44)
    spec = random_bath_spec(rng, 8)
    emitters = (EmitterSpec(0.3, 0.5, 2), EmitterSpec(-0.4, 0.7, 6))
    h = build_full_hamiltonian(spec, emitters)
    evals = np.linalg.eigvalsh(h)
    width = evals[-1] - evals[0]
    zs = [complex(w) for w in evals]
    zs += [complex(w + 1e-15 * width) for w in evals]
    zs += [w + 1e-6j for w in evals]
    zs += [complex(a, b) for a, b in zip(
        rng.uniform(evals[0] - 0.5 * width, evals[-1] + 0.5 * width, 10),
        rng.uniform(0.05, 0.5, 10) * width * rng.choice([-1.0, 1.0], 10))]
    zs += [complex(0.5 * (a + b)) for a, b in zip(evals, evals[1:])]
    return spec, emitters, h, zs


def _raises_pole_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except PoleError as exc:
            assert "cond" in str(exc)
            return True
    return False


def test_direct_resolvent_guard_matches_svd():
    # the spectral guard must refuse exactly the shifts the SVD condition
    # number refuses, without leaking a warning when z sits on an eigenvalue
    spec, emitters, h, zs = _guard_case()
    raised = []
    for z in zs:
        cond = np.linalg.cond(z * np.eye(h.shape[0]) - h)
        expected = not np.isfinite(cond) or cond > 1e14
        got = _raises_pole_error(lambda: direct_resolvent(spec, emitters, z))
        assert got == expected, f"z={z}: cond={cond:.3e}"
        raised.append(got)
    assert any(raised) and not all(raised)


def test_spectral_resolvent_guard_matches_direct_resolvent():
    spec, emitters, _, zs = _guard_case()
    evals, evecs = exact_eigensystem(spec, emitters)
    for z in zs:
        direct = _raises_pole_error(lambda: direct_resolvent(spec, emitters, z))
        spectral = _raises_pole_error(lambda: _spectral_resolvent(evals, evecs, z))
        assert spectral == direct, f"z={z}"


@pytest.mark.parametrize("bath", ["chain", "complex"])
@pytest.mark.parametrize("m", [1, 2])
def test_spectral_resolvent_matches_dense_inverse(bath, m):
    rng = np.random.default_rng(45 + m)
    spec = build_uniform_chain(12, 0.0, 1.0) if bath == "chain" else random_bath_spec(rng, 10)
    emitters = (EmitterSpec(0.4, 0.5, 2), EmitterSpec(0.4, 0.5, 7))[:m]
    h = build_full_hamiltonian(spec, emitters)
    evals, evecs = exact_eigensystem(spec, emitters)
    assert np.any(evecs.imag) == (bath == "complex")
    width = max(evals[-1] - evals[0], 1.0)
    zs = rng.uniform(evals[0] - 0.5 * width, evals[-1] + 0.5 * width, 10) + 1j * (
        rng.uniform(0.05, 0.5, 10) * width * rng.choice([-1.0, 1.0], 10))
    for z in zs:
        inv = np.linalg.inv(z * np.eye(h.shape[0]) - h)
        err = np.max(np.abs(_spectral_resolvent(evals, evecs, z) - inv))
        assert err <= 1e-12 * (1.0 + np.linalg.norm(inv))


def test_compare_builds_hamiltonian_once(monkeypatch):
    calls = []
    original = dressedgf.oracle.build_full_hamiltonian

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dressedgf.oracle, "build_full_hamiltonian", counting)
    spec, _, _ = random_gapped_bath(np.random.default_rng(43), 4, 4)
    cases = [
        (build_uniform_chain(3, 0.0, 1.0), (EmitterSpec(0.0, 0.5, 1),), 1,
         "scattering_residuals"),
        (spec, (EmitterSpec(0.1, 0.3, 1), EmitterSpec(0.1, 0.3, 5)), 2, "two_atom_poles"),
    ]
    for bath, emitters, seed, last_check in cases:
        calls.clear()
        report = compare(bath, emitters, rng=np.random.default_rng(seed))
        assert len(calls) == 1
        assert report.checks[-1].name == last_check
        assert report.all_passed, report.to_dict()


@pytest.mark.parametrize("m", [1, 2])
def test_compare_makes_no_full_size_solve(monkeypatch, m):
    # the resolvent identity takes its reference from the eigensystem
    # compare already holds, not from one dense solve per z
    shapes = []
    solve = np.linalg.solve

    def recording_solve(a, b):
        shapes.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    spec = build_uniform_chain(30, 0.0, 1.0)
    emitters = (EmitterSpec(2.5, 0.3, 4), EmitterSpec(2.5, 0.3, 9))[:m]
    report = compare(spec, emitters, checks=("resolvent_identity",),
                     rng=np.random.default_rng(5), num_z=6)
    assert report.all_passed, report.to_dict()
    assert shapes and (30 + m, 30 + m) not in shapes


def test_compare_single_emitter_all_pass():
    # centre-coupled odd chain: exercises the in-band stationary state too
    spec = build_uniform_chain(3, 0.0, 1.0)
    report = compare(spec, (EmitterSpec(0.0, 0.5, 1),), rng=np.random.default_rng(1))
    names = [c.name for c in report.checks]
    assert names == [
        "resolvent_identity",
        "bound_state_energies",
        "bound_state_fidelity",
        "normalization",
        "scattering_residuals",
    ]
    for c in report.checks:
        assert c.passed, f"{c.name}: error={c.error:.3e} ({c.detail})"
    assert report.all_passed


def test_compare_two_emitters_all_pass():
    rng = np.random.default_rng(43)
    spec, s, bands = random_gapped_bath(rng, 4, 4)
    emitters = (EmitterSpec(0.1, 0.3, 1), EmitterSpec(0.1, 0.3, 5))
    report = compare(spec, emitters, rng=np.random.default_rng(2))
    names = [c.name for c in report.checks]
    assert names == ["resolvent_identity", "two_atom_poles"]
    assert report.all_passed, report.to_dict()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP 3(iii): the dense tail level 7.1e-15 below the lowest"
                   " level lies inside the scan's first margin")
def test_compare_finds_the_root_next_to_a_level_of_weight_4e_14():
    # 11 sites; the lowest level has weight 4.3e-14 on site 10
    spec = random_bath_spec(np.random.default_rng(13668))
    top = float(diagonalize_bath(spec).eigenvalues[-1])
    report = compare(spec, (EmitterSpec(top + 1.0, 1.0, 10),))
    assert report.all_passed, report.to_dict()  # today: count mismatch, solver 1 vs oracle 2


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP 3(xi): the dense solve puts dark cluster levels just"
                   " outside their band, and the oracle counts them as in-gap levels")
def test_compare_does_not_count_dark_levels_as_in_gap():
    # 7 sites; the lower cluster has no weight at site 3, and its edge levels
    # come out 8.9e-16 below and 2.2e-16 above their band in the dense solve
    spec, _, _ = random_gapped_bath(np.random.default_rng(1))
    report = compare(spec, (EmitterSpec(0.0, 0.5, 3),))
    assert report.all_passed, report.to_dict()  # today: count mismatch, solver 2 vs oracle 4


def test_compare_rejects_unknown_check():
    spec = build_uniform_chain(3, 0.0, 1.0)
    with pytest.raises(ValueError, match="unknown checks"):
        compare(spec, (EmitterSpec(0.0, 0.5, 1),), checks=("nope",))


def test_compare_negative_control(monkeypatch):
    # corrupt the formula-side bath resolvent; the dense reference must notice
    original = dressedgf.impurity.green_matrix

    def crooked(s, z):
        out = original(s, z)
        return out + 1e-6

    # multi_green takes G_B(z) through the contact resolvent of impurity.py
    monkeypatch.setattr(dressedgf.impurity, "green_matrix", crooked)
    spec = build_uniform_chain(5, 0.0, 1.0)
    report = compare(
        spec, (EmitterSpec(2.5, 0.4, 2),), checks=("resolvent_identity",),
        rng=np.random.default_rng(3),
    )
    assert not report.all_passed
    assert report.checks[0].error > 1e-7


def test_report_to_dict_is_json_ready():
    spec = build_uniform_chain(3, 0.0, 1.0)
    report = compare(spec, (EmitterSpec(2.5, 0.4, 1),), rng=np.random.default_rng(4))
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["all_passed"] is True
    assert {c["name"] for c in doc["checks"]} <= {
        "resolvent_identity",
        "bound_state_energies",
        "bound_state_fidelity",
        "normalization",
        "scattering_residuals",
        "two_atom_poles",
    }
