"""Grids carry their integer form and still pickle as their fields.

A regular grid's progression is computed from its fields, and an explicit
``DualGrid`` keeps the split of its points as a derived field, which its
pickle leaves out and loading rebuilds. So grids, and the results that
hold one, pickle to the bytes pinned here: each pin is the sha256 of the
digests (``test_fixtures._digest``) of one case's outputs, cut to 16 hex
digits.
"""

import pickle
import random
from fractions import Fraction as F

import pytest

from lftlab import fixtures
from lftlab.grids import DualGrid, RegularGrid
from lftlab.multi import canonical_nd_dual_grids, lft_nd_regular
from lftlab.qlft import run_qlft_1d_regular
from lftlab.qlft_nd import run_qlft_nd_regular
from lftlab.transform import ADAPTIVE_VARIANTS, lft_adaptive, lft_regular, regular_dual_grid

from test_fixtures import _digest, _pin

# an int, a float and a Fraction point; the first is also s0
MIXED = (-2, 1 / 10, F(1, 3), 3)


def _explicit_nd():
    f = fixtures.random_convex_quadratic_nd(random.Random(5), d=2, n=5, coupling=2)
    copies = [DualGrid.from_points(g.points()) for g in canonical_nd_dual_grids(f, (4, 6))]
    return lft_nd_regular(f, copies)


CASES = {
    "regular dual grid": lambda: [
        regular_dual_grid((F(-1, 3), F(5, 2)), 7),
        regular_dual_grid((F(3, 4), F(3, 4)), 3),
        RegularGrid(x0=F(-1, 6), gamma=F(1, 4), n=5),
    ],
    "explicit dual grid": lambda: [DualGrid.from_points(MIXED), DualGrid.from_points([F(1, 2)] * 3)],
    "lft_adaptive": lambda: [
        lft_adaptive(f, v)
        for f in (fixtures.ex3(), fixtures.random_convex_spec(random.Random(2), 12))
        for v in ADAPTIVE_VARIANTS
    ],
    "lft_regular explicit": lambda: [lft_regular(fixtures.ex3(), DualGrid.from_points(MIXED), clamp=True)],
    "lft_nd_regular explicit": lambda: [_explicit_nd()],
    "run_qlft_1d_regular": lambda: [run_qlft_1d_regular(fixtures.ex3(), 5, rng_seed=7)],
    "run_qlft_nd_regular 2D": lambda: [
        run_qlft_nd_regular(fixtures.separable_sum(d=2, n=5), (5, 5), rng_seed=7),
        run_qlft_nd_regular(fixtures.random_convex_quadratic_nd(random.Random(3), 2, 4, 2), (4, 4)),
    ],
}
PINS = {
    "regular dual grid": "884bd1ef60f23abc",
    "explicit dual grid": "e2a354de7e314049",
    "lft_adaptive": "98d80b63d7031eeb",
    "lft_regular explicit": "4c092f36235ab69e",
    "lft_nd_regular explicit": "2a049938b6054cff",
    "run_qlft_1d_regular": "6ea6f2ed4cd4f593",
    "run_qlft_nd_regular 2D": "35c3817ae542b2ef",
}


@pytest.mark.parametrize("case", list(CASES))
def test_pickles_are_pinned(case):
    assert _pin([_digest(out) for out in CASES[case]()]) == PINS[case]


def test_an_explicit_grid_keeps_its_split_through_a_pickle():
    dual = DualGrid.from_points(MIXED)
    assert dual.ratios == ([-2, 3602879701896397, 1, 3], [1, 36028797018963968, 3, 1])
    loaded = pickle.loads(pickle.dumps(dual, protocol=4))
    assert loaded.ratios == dual.ratios
    assert pickle.dumps(loaded, protocol=4) == pickle.dumps(dual, protocol=4)
    f = fixtures.ex3()
    assert lft_regular(f, loaded, clamp=True) == lft_regular(f, dual, clamp=True)


def test_equality_hash_and_repr_read_the_fields_only():
    dual = DualGrid.from_points([F(1, 2), 1])
    same = DualGrid(s0=F(1, 2), gamma_s=0, k=2, kind="adaptive", explicit=(F(1, 2), F(1)))
    assert dual == same and hash(dual) == hash(same)
    assert repr(dual) == (
        "DualGrid(s0=Fraction(1, 2), gamma_s=Fraction(0, 1), k=2, kind='adaptive', "
        "explicit=(Fraction(1, 2), Fraction(1, 1)))"
    )
    assert regular_dual_grid((0, 1), 3).ratios is None


@pytest.mark.parametrize(
    "grid",
    [
        RegularGrid(x0=F(-1, 6), gamma=F(1, 4), n=5),
        regular_dual_grid((F(-1, 3), F(5, 2)), 7),
        regular_dual_grid((F(3, 4), F(3, 4)), 3),
        DualGrid.from_points(MIXED),
    ],
    ids=["primal", "dual", "zero-spacing", "explicit"],
)
def test_the_integer_form_gives_the_points(grid):
    points = list(grid.points())
    if isinstance(grid, DualGrid):
        assert [F(p, q) for p, q in zip(*grid.point_ratios())] == points
    if getattr(grid, "kind", "regular") == "regular":
        a, p, den = grid.progression
        assert [F(a + j * p, den) for j in range(len(points))] == points
