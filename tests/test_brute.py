"""The brute judge, pinned byte for byte.

``lft_nd_brute``, ``lft_brute`` and the simulator's ``VerificationReport``s
pickle to the bytes pinned here: each pin is the sha256 of the digests
(``test_fixtures._digest``) of one case's outputs, cut to 16 hex digits. A
change to a value, an optimizer, the returned dual points or which of
them are one shared object fails here.

The brute compares one packed int key per candidate, value * M + (M - 1 -
offset) over M primal points; the tests below pin its tie break and its
signs.
"""

import math
import random
from fractions import Fraction as F

import pytest

from lftlab import fixtures
from lftlab.grids import DualGrid, FunctionSpec, RegularGrid
from lftlab.multi import (
    RatTensor,
    TensorGrid,
    TensorSamples,
    canonical_nd_dual_grids,
    lft_brute,
    lft_nd_brute,
    product_dual_points,
)
from lftlab.qlft_nd import run_qlft_nd_adaptive, run_qlft_nd_regular
from lftlab.transform import regular_dual_grid

from test_fixtures import _digest, _pin
from test_multi import _reference_brute


def _nd_verify_inputs():
    """The benchmark's nd-verify seed-1 coupled inputs and its run seed."""
    rng = random.Random("nd-verify:1")
    coupled2 = fixtures.random_convex_quadratic_nd(rng, d=2, n=16, coupling=2)
    coupled3 = fixtures.random_convex_quadratic_nd(rng, d=3, n=6, coupling=1)
    return coupled2, coupled3, rng.randrange(1 << 30)


def _products():
    coupled2, coupled3, _ = _nd_verify_inputs()
    plan = [(coupled2, (16, 16)), (coupled2, (32, 32)), (coupled3, (6, 6, 6))]
    return [lft_nd_brute(f, product_dual_points(canonical_nd_dual_grids(f, ks))) for f, ks in plan]


def _adaptive_labels():
    out = []
    for f in _nd_verify_inputs()[:2]:
        run = run_qlft_nd_adaptive(f)
        out += [lft_nd_brute(f, [lab.get("s") for lab, _ in run.final_state.entries]), run.verification]
    return out


def _regular_reports():
    coupled2, coupled3, seed = _nd_verify_inputs()
    sep = fixtures.separable_sum(d=2, n=5)
    plan = [(coupled2, (16, 16)), (coupled3, (6, 6, 6)), (sep, (4, 4)), (sep, (5, 5))]
    return [run_qlft_nd_regular(f, ks, rng_seed=seed).verification for f, ks in plan]


def _tensor(shape, flat, gamma=F(1), x0=F(0)):
    axes = tuple(RegularGrid(x0=x0, gamma=gamma, n=n) for n in shape)
    return TensorSamples(grid=TensorGrid(axes=axes), values=RatTensor(shape, tuple(flat)))


def _repeated():
    f = fixtures.separable_sum("pwl-ex2", d=2, n=4)
    half, other_half = F(1, 2), F(2, 4)
    # one object twice, an equal object, and a point repeated apart
    pts = [(half, 0), (1, half), (half, 0), (other_half, 0), (1, other_half), (-1, 3), (1, half)]
    one = FunctionSpec(grid=fixtures.unit_grid(5), samples=fixtures.ex1().samples)
    return [
        lft_nd_brute(f, pts),
        lft_nd_brute(f, [pts[0]] * 4),
        lft_brute(one, DualGrid.from_points([0, half, half, other_half, 2, 2])),
    ]


def _ints_and_floats():
    f = fixtures.random_convex_quadratic_nd(random.Random(4), d=3, n=4, coupling=1)
    pts = [(0, 1, -2), (0.5, 0.25, 3.0), (F(1, 3), 2, 0.75), (-1.5, F(-7, 2), 1), (2.0, 2, 2)]
    floats = FunctionSpec(grid=fixtures.unit_grid(6), samples=(0.5, -1.25, 3.0, 1e-3, 2.5, 0.0))
    return [
        lft_nd_brute(f, pts),
        lft_brute(floats, DualGrid.from_points([-3, -0.5, 0, F(1, 3), 4.0])),
        lft_brute(floats, regular_dual_grid((F(-5), F(5)), 9)),
    ]


def _nonconvex_ties():
    rng = random.Random(11)
    f = _tensor((3, 4), [F(rng.choice([0, 1, -1, 2])) for _ in range(12)], gamma=F(1, 2))
    g = _tensor((2, 3, 2), [F(rng.choice([0, 0, 1]), rng.choice([1, 2])) for _ in range(12)], x0=F(-1))
    h = _tensor((4,), [F(0), F(2), F(0), F(2)])
    comps = [0, 1, -1, F(1, 2), 2]
    return [
        lft_nd_brute(f, [(a, b) for a in comps for b in comps]),
        lft_nd_brute(g, [(a, b, c) for a in comps[:3] for b in comps[:3] for c in comps[::2]]),
        lft_nd_brute(h, [(s,) for s in (-2, 0, F(1, 2), 2)]),
        lft_nd_brute(f, []),
    ]


def _ex3_flat_top():
    f = fixtures.ex3()
    return [
        lft_brute(f, DualGrid.from_points([-2, F(-1, 2), 0, F(1, 2), 1, F(3, 2), 3])),
        lft_brute(f, regular_dual_grid((F(0), F(1)), 5)),
        lft_brute(f, DualGrid(s0=0, gamma_s=0, k=3)),
    ]


CASES = {
    "nd-verify products": _products,
    "nd-verify adaptive labels": _adaptive_labels,
    "nd-verify regular reports": _regular_reports,
    "repeated points": _repeated,
    "int and float components": _ints_and_floats,
    "nonconvex ties": _nonconvex_ties,
    "ex3 flat top": _ex3_flat_top,
}
PINS = {
    "nd-verify products": "7ff46ad65260b17b",
    "nd-verify adaptive labels": "5f4b749a31ddc026",
    "nd-verify regular reports": "da91bc2f3269f778",
    "repeated points": "9a495b5445f18254",
    "int and float components": "2d9f80dc2596135a",
    "nonconvex ties": "e5495ca4ea5f4461",
    "ex3 flat top": "36b1c1e83b87e835",
}


@pytest.mark.parametrize("case", list(CASES))
def test_pickles_are_pinned(case):
    assert _pin([_digest(out) for out in CASES[case]()]) == PINS[case]


@pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 2, 2), (2, 2, 3, 2)])
@pytest.mark.parametrize("c", [F(0), F(-7, 3), F(5)])
def test_an_all_tie_tensor_takes_the_first_point(shape, c):
    # at s = 0 every candidate is -c: all M keys tie on the value
    f = _tensor(shape, [c] * math.prod(shape), gamma=F(1, 3), x0=F(-2))
    res = lft_nd_brute(f, [(0,) * len(shape), (F(0),) * len(shape)])
    assert res.values.flat == (-c, -c)
    assert res.optimizer == ((0,) * len(shape),) * 2


@pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 2)])
def test_all_negative_values(shape):
    # every candidate is below 0, so every key is negative and divmod
    # floors it; small alphabets leave ties among the negative values
    rng = random.Random(sum(shape))
    flat = [F(rng.choice([40, 41, 83]), rng.choice([1, 2])) for _ in range(math.prod(shape))]
    f = _tensor(shape, flat, x0=F(-3, 2))
    comps = [-2, F(-1, 3), 0, F(1, 2), 3]
    pts = [tuple(rng.choice(comps) for _ in shape) for _ in range(12)]
    res = lft_nd_brute(f, pts)
    values, optimizer = _reference_brute(f, pts)
    assert all(v < 0 for v in res.values.flat)
    assert res.values.flat == values
    assert res.optimizer == optimizer


def test_one_axis_with_more_dual_points_than_primal_points():
    f = _tensor((3,), [F(1), F(-1, 2), F(1)], gamma=F(1, 2), x0=F(-1))
    pts = [(F(j, 2) - 3,) for j in range(12)]
    res = lft_nd_brute(f, pts)
    assert (res.values.flat, res.optimizer) == _reference_brute(f, pts)
    dual = DualGrid.from_points([p for (p,) in pts])
    one = lft_brute(FunctionSpec(grid=f.grid.axes[0], samples=f.values.flat), dual)
    assert one.values == res.values.flat
    assert one.optimizer_index == tuple(i for (i,) in res.optimizer)


def test_a_point_repeated_apart_shares_one_value():
    f = fixtures.random_convex_quadratic_nd(random.Random(8), d=2, n=4, coupling=2)
    # the same point as one object, as an equal Fraction and as floats
    pts = [(F(1, 2), 1), (0, 3), (F(1, 2), 1), (-1, 0), (F(2, 4), F(1)), (0.5, 1.0)]
    res = lft_nd_brute(f, pts)
    first = res.values.flat[0]
    assert all(res.values.flat[j] is first for j in (2, 4, 5))
    assert res.values.flat[1] is not first
    assert len({res.optimizer[j] for j in (0, 2, 4, 5)}) == 1
    exact = [tuple(map(F, p)) for p in pts]
    assert (res.values.flat, res.optimizer) == _reference_brute(f, exact)
