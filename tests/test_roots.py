"""Gap search intervals, bracketing and the one contact root finder."""

import math

import numpy as np

from dressedgf import _kernels, _roots
from dressedgf.bath import BandStructure

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


def test_gap_intervals_split_inner_gap():
    got = _roots.gap_intervals(BANDS, -5.0, 5.0, split=1.5)
    assert got == [
        (-5.0, -3.0, False, True),
        (-2.0, -1.0, True, True),
        (1.0, 1.5, True, False),
        (1.5, 2.0, False, True),
        (3.0, 5.0, True, False),
    ]


def test_gap_intervals_split_tail_gap():
    got = _roots.gap_intervals(BANDS, -5.0, 5.0, split=4.0)
    assert got == [(-5.0, -3.0, False, True)] + INNER + [
        (3.0, 4.0, True, False),
        (4.0, 5.0, False, False),
    ]


def test_gap_intervals_split_inside_band_cuts_nothing():
    got = _roots.gap_intervals(BANDS, -5.0, 5.0, split=0.0)
    assert got == [(-5.0, -3.0, False, True)] + INNER + [(3.0, 5.0, True, False)]


def test_bisect_finds_rising_and_falling_crossings():
    root = 0.3
    for sign in (1.0, -1.0):
        f = lambda w: sign * (w - root)  # noqa: E731
        got = _roots.bisect(f, 0.0, 1.0, f(0.0), f(1.0), xtol=1e-13)
        assert abs(got - root) <= 1e-12
        assert abs(f(got)) <= 1e-12


def test_sign_change_brackets_both_directions():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    roots, brackets = _roots.sign_change_brackets(xs, np.array([-1.0, 2.0, 3.0, -4.0]))
    assert roots == []
    assert brackets == [(0.0, 1.0, -1.0, 2.0), (2.0, 3.0, 3.0, -4.0)]


def test_sign_change_brackets_exact_zero_on_grid_point():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    roots, brackets = _roots.sign_change_brackets(xs, np.array([-1.0, 0.0, 2.0, 3.0]))
    # the zero is the root; neither neighbour pair brackets it again
    assert roots == [1.0]
    assert brackets == []


def test_sign_change_brackets_skip_non_finite_values():
    xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    for bad in (math.inf, -math.inf, math.nan):
        roots, brackets = _roots.sign_change_brackets(xs, np.array([-1.0, bad, 1.0, -1.0, -2.0]))
        assert roots == []
        assert brackets == [(2.0, 3.0, 1.0, -1.0)]


def test_sign_change_brackets_zero_at_last_point():
    xs = np.array([0.0, 1.0, 2.0])
    roots, brackets = _roots.sign_change_brackets(xs, np.array([-2.0, -1.0, 0.0]))
    assert roots == [2.0]
    assert brackets == []


def test_grid_margins_stay_inside_open_ends():
    # length * 1e-13 is below half the spacing of floats at 2.0
    a, b = 2.0, 2.001
    xs = _roots.grid_for_interval(a, b, True, True, 8)
    assert xs[0] == np.nextafter(a, b)
    assert xs[-1] == np.nextafter(b, a)
    closed = _roots.grid_for_interval(a, b, False, False, 8)
    assert closed[0] == a and closed[-1] == b


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
        weights[None, None], energies, slope, offset, [(1.6, 6.0, False, False)], xtol=1e-13
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
            weights[None, None], energies, slope, offset, [(a, b, False, False)], xtol=1e-13
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
