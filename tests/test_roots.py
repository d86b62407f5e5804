"""Gap search intervals, scan points, branch brackets and the one contact root finder."""

import math

import numpy as np
import pytest

from dressedgf import (
    VACANCY,
    EmitterArraySpec,
    EmitterSpec,
    ImpuritySpec,
    build_ssh_chain,
    build_uniform_chain,
    det_f_roots,
    detect_bands,
    diagonalize_bath,
    solve_dressed_bound_states,
    solve_impurity_bound_state,
)
from dressedgf import _kernels, _roots
from dressedgf.bath import BandStructure

from conftest import random_bath_spec

INF = math.inf
# three bands, so two inner gaps between the two half-infinite tails
BANDS = BandStructure(
    bands=((-3.0, -2.0), (-1.0, 1.0), (2.0, 3.0)),
    gaps=((-INF, -3.0), (-2.0, -1.0), (1.0, 2.0), (3.0, INF)),
)
INNER = [(-2.0, -1.0, True, True), (1.0, 2.0, True, True)]


def test_gap_intervals_attractive_tail():
    got = _roots.gap_intervals(BANDS, -5.0, None)
    assert got == [(-5.0, -3.0, False, True)] + INNER


def test_gap_intervals_repulsive_tail():
    got = _roots.gap_intervals(BANDS, None, 5.0)
    assert got == INNER + [(3.0, 5.0, True, False)]


def test_gap_intervals_vacancy_has_no_tails():
    assert _roots.gap_intervals(BANDS, None, None) == INNER


def test_bisect_finds_rising_crossing():
    root = 0.3
    f = lambda w: w - root  # noqa: E731
    got = _roots.bisect(f, 0.0, 1.0)
    assert abs(got - root) <= 1e-12
    assert abs(f(got)) <= 1e-12


def test_branch_with_no_negative_scan_value_has_no_root():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    assert _roots.branch_bracket(xs, np.array([1.0, 2.0, 3.0, 4.0])) is None
    # nor does a branch negative at every point
    assert _roots.branch_bracket(xs, np.array([-4.0, -3.0, -2.0, -1.0])) is None


def test_branch_bracket_runs_from_last_negative_value():
    # rounding may wiggle a branch across zero; its one bracket ends at the
    # point after the last negative value
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    assert _roots.branch_bracket(xs, np.array([-1.0, 2.0, -1e-17, 4.0])) == (2.0, 3.0)


def test_sign_change_brackets_exact_zero_on_grid_point():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    # the zero is the root, also on the first point with no negative value
    assert _roots.branch_bracket(xs, np.array([-1.0, 0.0, 2.0, 3.0])) == (1.0, 1.0)
    assert _roots.branch_bracket(xs, np.array([0.0, 1.0, 2.0, 3.0])) == (0.0, 0.0)
    # through the finder: F(w) = w - 1/w is exactly zero at the closed end 1.0,
    # which the next interval leaves open: the root is found once
    weights, energies = np.ones((1, 1, 1)), np.zeros(1)
    intervals = [(0.5, 1.0, False, False), (1.0, 3.0, True, False)]
    assert _roots.contact_roots(weights, energies, 1.0, 0.0, intervals) == [1.0]


def test_roots_on_either_side_of_a_pole_are_both_kept():
    # F(w) = w - 1e-24/w has one branch with the roots -1e-12 and +1e-12, one
    # per interval; no tolerance merges them
    roots = _roots.contact_roots(np.full((1, 1, 1), 1e-24), np.zeros(1), 1.0, 0.0,
                                 [(-1.0, 0.0, False, True), (0.0, 1.0, True, False)])
    assert len(roots) == 2
    np.testing.assert_allclose(roots, [-1e-12, 1e-12], rtol=1e-8)


def test_sign_change_brackets_skip_non_finite_values():
    xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    for bad in (math.inf, -math.inf, math.nan):
        assert _roots.branch_bracket(xs, np.array([-2.0, -1.0, bad, 1.0, 2.0])) is None


def test_sign_change_brackets_zero_at_last_point():
    xs = np.array([0.0, 1.0, 2.0])
    assert _roots.branch_bracket(xs, np.array([-2.0, -1.0, 0.0])) == (2.0, 2.0)


def test_grid_margins_stay_inside_open_ends():
    a, b = 2.0, 2.5
    xs = _roots.scan_points(a, b, True, True, 8)
    assert xs.size == 8 and np.all(np.diff(xs) > 0.0)
    assert xs[0] == a + 1e-13 * (b - a) and xs[-1] == b - 1e-13 * (b - a)
    # length * 1e-13 is below half the spacing of floats at 2.0: the inner
    # points are the nearest floats inside
    b = 2.001
    xs = _roots.scan_points(a, b, True, True, 8)
    assert a + 1e-13 * (b - a) == a
    assert xs[0] == np.nextafter(a, b) and xs[-1] == np.nextafter(b, a)
    closed = _roots.scan_points(a, b, False, False, 8)
    assert closed[0] == a and closed[-1] == b


def test_interval_with_no_float_inside_is_skipped():
    a = 2.0
    for b in (a, np.nextafter(a, 3.0), 1.5):
        for ends in ((True, True), (False, False)):
            assert _roots.scan_points(a, b, *ends, 8) is None
    # one float inside is scanned
    b = np.nextafter(np.nextafter(a, 3.0), 3.0)
    assert np.all(_roots.scan_points(a, b, True, True, 8) == np.nextafter(a, 3.0))
    weights, energies = np.ones((1, 1, 2)), np.array([a, b])
    assert _roots.contact_roots(weights, energies, 1.0, 0.0, [(a, np.nextafter(a, 3.0), True,
                                                              True)]) == []


def _loop_sum(weights, energies, z):
    return sum(w / (z - e) for w, e in zip(weights, energies))


def test_gamma_grid_matches_loop():
    rng = np.random.default_rng(13)
    weights = rng.normal(size=25) + 1j * rng.normal(size=25)
    energies = np.sort(rng.uniform(-2.0, 2.0, 25))
    grid = np.linspace(2.5, 4.0, 101)
    # a 2 x 2 block: on a real grid the kernel sums a 1 x 1 block in real arithmetic
    pair = np.zeros((2, 2, 25), dtype=np.complex128)
    pair[0, 1] = weights
    got = _kernels.mode_sum(pair, energies, grid)[:, 0, 1]
    ref = np.array([_loop_sum(weights, energies, z) for z in grid])
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def test_pole_function_roots_bisection_is_root():
    rng = np.random.default_rng(15)
    weights = np.abs(rng.normal(size=10)) + 0.05
    energies = np.sort(rng.uniform(-1.5, 1.5, 10))
    omega0, g = 2.2, 0.4
    slope, offset = 1.0 / g**2, -omega0 / g**2
    roots = _roots.contact_roots(
        weights[None, None], energies, slope, offset, [(1.6, 6.0, False, False)]
    )
    assert len(roots) == 1
    # the returned root really is a root of the increasing pole function
    w = roots[0]
    val = slope * w + offset - sum(wk / (w - ek) for wk, ek in zip(weights, energies))
    assert abs(val) < 1e-9


def test_contact_roots_bisection_is_root():
    rng = np.random.default_rng(14)
    weights = np.abs(rng.normal(size=20)) + 0.01
    energies = np.sort(rng.uniform(-2.0, 2.0, 20))
    a, b = 2.1, 5.0
    for omega0, g in [(2.5, 0.3), (-3.0, 0.7)]:
        slope, offset = 1.0 / g**2, -omega0 / g**2

        def f(w):
            return slope * w + offset - _loop_sum(weights, energies, w)

        roots = _roots.contact_roots(
            weights[None, None], energies, slope, offset, [(a, b, False, False)]
        )
        # f increases on (a, b): one root exactly when the ends differ in sign
        assert len(roots) == int(f(a) < 0.0 < f(b))
        for w in roots:
            assert abs(f(w)) < 1e-9


def _random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _two_emitter_levels(vecs, energies, sites, omega0, g):
    """Eigenvalues of the dense emitters-plus-bath matrix behind the pair weights."""
    n, m = energies.shape[0], len(sites)
    h = np.zeros((m + n, m + n), dtype=np.complex128)
    h[:m, :m] = omega0 * np.eye(m)
    h[m:, m:] = (vecs * energies) @ vecs.conj().T
    for i, x in enumerate(sites):
        h[i, m + x] = h[m + x, i] = g
    return np.linalg.eigvalsh(h)


def _pair_roots(vecs, energies, sites, omega0, g):
    v = vecs[list(sites), :]
    lo, hi = float(np.min(energies)), float(np.max(energies))
    inner = sorted(energies)
    gap = (inner[5], inner[6])
    intervals = [(lo - 5.0, lo, False, True), (gap[0], gap[1], True, True),
                 (hi, hi + 5.0, True, False)]
    roots = _roots.contact_roots(
        v[:, None, :] * np.conj(v[None, :, :]), energies, 1.0 / g**2, -omega0 / g**2, intervals
    )
    levels = _two_emitter_levels(vecs, energies, sites, omega0, g)
    in_gap = levels[(levels < lo) | (levels > hi) | ((levels > gap[0]) & (levels < gap[1]))]
    return roots, in_gap


def test_contact_roots_two_sites_match_dense_levels():
    rng = np.random.default_rng(16)
    energies = np.concatenate((rng.uniform(-2.0, -1.0, 6), rng.uniform(1.0, 2.0, 6)))
    vecs = _random_unitary(rng, 12)
    roots, ref = _pair_roots(vecs, energies, (0, 5), 0.2, 0.5)
    assert len(roots) == len(ref) >= 3
    np.testing.assert_allclose(roots, ref, rtol=0, atol=1e-9)


def test_contact_roots_root_on_two_branches_is_listed_twice():
    # two disconnected copies of one bath: Gamma_S = gamma * identity, so
    # both branches carry every root
    rng = np.random.default_rng(17)
    half = np.concatenate((rng.uniform(-2.0, -1.0, 3), rng.uniform(1.0, 2.0, 3)))
    block = _random_unitary(rng, 6)
    vecs = np.zeros((12, 12), dtype=np.complex128)
    vecs[:6, :6] = vecs[6:, 6:] = block
    energies = np.concatenate((half, half))
    roots, ref = _pair_roots(vecs, energies, (0, 6), -0.1, 0.4)
    assert len(roots) == len(ref) >= 6
    np.testing.assert_allclose(roots, ref, rtol=0, atol=1e-9)
    np.testing.assert_allclose(roots[::2], roots[1::2], rtol=0, atol=1e-12)


# conftest-style baths: a uniform chain, SSH in both phases, a random complex graph
SCAN_BATHS = {
    "chain": build_uniform_chain(40, 0.0, 1.0),
    "ssh-trivial": build_ssh_chain(20, 0.0, 1.0, 0.5),
    "ssh-topological": build_ssh_chain(20, 0.0, 0.5, 1.0),
    "random": random_bath_spec(np.random.default_rng(7), 12),
}


def _every_search(s):
    """Roots of every kind of contact on ``s``: impurities, vacancy, one emitter, arrays."""
    bands = detect_bands(s)
    width, top = s.spectral_width, float(s.eigenvalues[-1])
    inner = [gap for gap in bands.gaps if all(map(math.isfinite, gap))]
    in_gap = 0.5 * sum(inner[0]) if inner else top + 0.3 * width
    site = s.n_sites // 3
    out = {}
    for strength in (1.5, -1.5, VACANCY):
        states = solve_impurity_bound_state(s, ImpuritySpec(site, strength), bands)
        out[f"impurity {strength}"] = [b.energy for b in states]
    for where, omega0 in (("in a gap", in_gap), ("near an edge", top + 1e-6 * width),
                          ("at omega_c", 0.0)):
        states = solve_dressed_bound_states(s, EmitterSpec(omega0, 0.2, site), bands)
        out[f"emitter {where}"] = [b.energy for b in states]
    for sites in ((site, site + 1), (site, site + 2, site + 5)):
        arr = EmitterArraySpec(tuple(EmitterSpec(in_gap, 0.2, x) for x in sites))
        out[f"M={len(sites)}"] = det_f_roots(s, arr, bands)
    return out


@pytest.mark.parametrize("name", SCAN_BATHS)
def test_roots_do_not_depend_on_the_scan_size(name, monkeypatch):
    # each branch increases between poles, so a scan of the two inner ends
    # alone brackets every root the default scan finds
    s = diagonalize_bath(SCAN_BATHS[name])
    default = _every_search(s)
    monkeypatch.setattr(_roots, "SCAN_POINTS", (2, 2))
    ends_only = _every_search(s)
    assert sum(map(len, default.values())) > 0
    for case, roots in default.items():
        assert len(ends_only[case]) == len(roots), case
        np.testing.assert_allclose(ends_only[case], roots, rtol=0,
                                   atol=1e-13 * s.spectral_width, err_msg=case)
