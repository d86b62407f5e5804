"""Gap search intervals and the one bisection behind every root search."""

import math

import numpy as np

from dressedgf import _roots
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


def test_pole_function_roots_bisection_is_root():
    rng = np.random.default_rng(15)
    weights = np.abs(rng.normal(size=10)) + 0.05
    energies = np.sort(rng.uniform(-1.5, 1.5, 10))
    omega0, g = 2.2, 0.4
    slope, offset = 1.0 / g**2, -omega0 / g**2
    roots = _roots.pole_function_roots(
        weights, energies, slope, offset, [(1.6, 6.0, False, False)], xtol=1e-13
    )
    assert len(roots) == 1
    # the returned root really is a root of the increasing pole function
    w = roots[0]
    val = slope * w + offset - sum(wk / (w - ek) for wk, ek in zip(weights, energies))
    assert abs(val) < 1e-9
