"""The 1D fast path's results, pinned byte for byte.

``lft_regular``, ``optimizer_map`` and ``lft_adaptive`` (every variant)
pickle to the bytes pinned here: each pin is the sha256 of the digests
(``test_fixtures._digest``) of one case's outputs, cut to 16 hex digits. A
change to a value, an optimizer index, the returned dual grid or which
objects a result shares fails here.

``_conjugate_values`` builds the values per optimizer run; ``ref_values``
keeps the per-index formula it replaced, and the run loop must equal it
for any counts, zero counts included.
"""

import random
from fractions import Fraction as F
from itertools import repeat
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from lftlab import fixtures
from lftlab.grids import DualGrid, FunctionSpec, RegularGrid
from lftlab.multi import lft_brute
from lftlab.rational import reduced, split
from lftlab.transform import (
    ADAPTIVE_VARIANTS,
    _checked_counts,
    _conjugate_values,
    _gradients,
    _repeat_indices,
    discrete_gradients,
    lft_adaptive,
    lft_regular,
    optimizer_map,
    regular_dual_grid,
)

from test_fixtures import _digest, _pin
from test_registers import rationals, same

FLOATS = (2.5, 0.75, 0.125, 0.0625, 0.5, 1.75, 0.1 * 37)


def _outputs(f, plan):
    """Each (dual, clamp) of the plan through ``lft_regular`` and
    ``optimizer_map``, then every adaptive variant."""
    g = discrete_gradients(f)
    out = []
    for dual, clamp in plan:
        out += [lft_regular(f, dual, clamp=clamp), optimizer_map(g, dual, clamp=clamp)]
    return out + [lft_adaptive(f, v) for v in ADAPTIVE_VARIANTS]


def _canonical_and_wide(f):
    g = discrete_gradients(f)
    width = g.hi - g.lo
    plan = [(regular_dual_grid((g.lo, g.hi), k), False) for k in (16, 64, 256)]
    return plan + [(regular_dual_grid((g.lo - width / 8, g.hi + width / 8), 256), True)]


def _seeded(make):
    fs = [make(random.Random(seed), 64) for seed in (1, 2, 3)]
    return [(f, _canonical_and_wide(f)) for f in fs]


def _explicit():
    f = fixtures.random_convex_spec(random.Random(4), 64)
    g = discrete_gradients(f)
    mid = (g.lo + g.hi) / 2
    points = [g.lo - 3, g.lo - 3, g.lo, g.c[5], g.c[5], mid, mid, mid, 0.5, g.hi, g.hi + F(1, 7), g.hi + F(1, 7)]
    return [
        (f, [(DualGrid.from_points(sorted(points)), True)]),
        (fixtures.ex1(), [(DualGrid.from_points([-5, -2, -2, F(-1, 3), 0.25, 0.25, 1, 3, 7]), True)]),
    ]


def _constant():
    plan = [(regular_dual_grid((0, 0), k), False) for k in (2, 5)]
    plan.append((DualGrid(s0=F(1, 3), gamma_s=0, k=3), True))
    return [(f, plan) for f in (fixtures.constant(), fixtures.constant(F(-3, 2), n=7))]


def _floats():
    f = FunctionSpec(grid=fixtures.unit_grid(len(FLOATS)), samples=FLOATS)
    g = discrete_gradients(f)
    plan = [
        (regular_dual_grid((g.lo, g.hi), 9), False),
        (regular_dual_grid((g.lo - 1, g.hi + 1), 13), True),
        (DualGrid.from_points([-2.0, -1.75, 0, 0.3, 0.3, 12.5]), True),
    ]
    return [(f, plan)]


def _ex3_flat_top():
    plan = [
        (regular_dual_grid((0, 1), 5), True),
        (regular_dual_grid((-1, 2), 16), True),
        (DualGrid.from_points([-2, F(-1, 2), 0, F(1, 2), 1, F(3, 2), 3]), True),
        (DualGrid(s0=0, gamma_s=0, k=3), True),
    ]
    return [(f, plan) for f in (fixtures.ex3(), fixtures.ex3(9))]


# each case is a list of (samples, [(dual grid, clamp), ...])
CASES = {
    "random_convex_spec": lambda: _seeded(fixtures.random_convex_spec),
    "random_quadratic_spec": lambda: _seeded(fixtures.random_quadratic_spec),
    "explicit repeated and clamped": _explicit,
    "constant zero spacing": _constant,
    "float samples": _floats,
    "ex3 flat top": _ex3_flat_top,
}
PINS = {
    "random_convex_spec": "25e1e0ad01a32707",
    "random_quadratic_spec": "c319f718d0625394",
    "explicit repeated and clamped": "065a16baaa3f2830",
    "constant zero spacing": "5400ffb82abd4f11",
    "float samples": "4e6ecb9672e49899",
    "ex3 flat top": "4d7270141fdd33da",
}


@pytest.mark.parametrize("case", list(CASES))
def test_pickles_are_pinned(case):
    digests = [_digest(out) for f, plan in CASES[case]() for out in _outputs(f, plan)]
    assert _pin(digests) == PINS[case]


@pytest.mark.parametrize("case", list(CASES))
def test_pinned_values_are_the_brute_values(case):
    for f, plan in CASES[case]():
        for dual, clamp in plan:
            assert lft_regular(f, dual, clamp=clamp).values == lft_brute(f, dual).values
        for v in ADAPTIVE_VARIANTS:
            res = lft_adaptive(f, v)
            assert res.values == lft_brute(f, res.dual).values


def ref_values(f, dual, idx):
    """s_j x_i - f_i for i = idx[j], per dual point: three N-long lists of
    the samples over lcm(xd, q_i), then one ``reduced`` per point."""
    fn, fd = f.ratios
    a, dx, xd = f.grid.progression
    ls = [lcm(xd, q) for q in fd]
    xs = [(a + i * dx) * (m // xd) for i, m in enumerate(ls)]
    fs = [p * (m // q) for p, q, m in zip(fn, fd, ls)]
    if dual.ratios is not None:
        sn, sd = dual.ratios
        nums = [n * xs[i] - fs[i] * d for n, d, i in zip(sn, sd, idx)]
        dens = [ls[i] * d for d, i in zip(sd, idx)]
    else:
        s0, step, sd = dual.progression
        fs, ls = [v * sd for v in fs], [m * sd for m in ls]
        sn = range(s0, s0 + dual.k * step, step) if step else repeat(s0, dual.k)
        nums = [n * xs[i] - fs[i] for n, i in zip(sn, idx)]
        dens = [ls[i] for i in idx]
    return tuple(map(reduced, nums, dens))


@st.composite
def samples(draw):
    """Any samples, convex or not, ints, floats and Fractions, on a grid
    that may start below zero, so numerators of both signs occur."""
    gamma = draw(st.builds(F, st.integers(1, 30), st.integers(1, 11)))
    grid = RegularGrid(draw(rationals(40, 9)), gamma, draw(st.integers(2, 9)))
    values = st.one_of(rationals(10**12, 10**6), st.integers(-50, 50), st.floats(-1e6, 1e6))
    return FunctionSpec(grid, tuple(draw(values) for _ in range(grid.n)))


@st.composite
def grids(draw):
    """A regular grid with positive or zero spacing, or explicit points
    with repeats."""
    k = draw(st.integers(1, 20))
    kind = draw(st.sampled_from(["regular", "zero spacing", "explicit"]))
    if kind == "explicit":
        return DualGrid.from_points(sorted(draw(rationals(10**6, 10**3)) for _ in range(k)))
    gamma = 0 if kind == "zero spacing" else draw(st.builds(F, st.integers(1, 10**4), st.integers(1, 99)))
    return DualGrid(s0=draw(rationals(10**6, 10**3)), gamma_s=gamma, k=k)


@given(f=samples(), dual=grids(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_runs_equal_the_per_index_formula(f, dual, data):
    # any split of the K points into n runs, empty ones included
    cuts = sorted(data.draw(st.lists(st.integers(0, dual.k), min_size=f.n - 1, max_size=f.n - 1)))
    counts = [b - a for a, b in zip([0, *cuts], [*cuts, dual.k])]
    got = _conjugate_values(f, dual, counts)
    assert same(got, ref_values(f, dual, _repeat_indices(counts)))


@pytest.mark.parametrize("case", list(CASES))
def test_rule_runs_equal_the_per_index_formula(case):
    # the rule's own counts: clamped, explicit and zero-spacing grids, runs
    # longer than one point and indices that optimize no dual point
    for f, plan in CASES[case]():
        for dual, clamp in plan:
            counts = _checked_counts(_gradients(f), dual, clamp)
            got = _conjugate_values(f, dual, counts)
            assert same(got, ref_values(f, dual, _repeat_indices(counts)))


def test_the_adaptive_grid_is_the_from_points_grid():
    for f in (fixtures.ex1(), fixtures.ex3(), fixtures.random_quadratic_spec(random.Random(7), 64)):
        for v in ADAPTIVE_VARIANTS:
            dual = lft_adaptive(f, v).dual
            built = DualGrid.from_points(dual.explicit)
            assert dual == built and hash(dual) == hash(built)
            assert same(dual, built)
            assert dual.ratios == built.ratios == split(dual.explicit)


def test_from_points_still_checks_the_order():
    with pytest.raises(ValueError, match="dual points must be sorted"):
        DualGrid.from_points([F(1, 2), F(1, 3)])
