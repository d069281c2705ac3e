"""The integer 1D kernel against two references: a per-point sweep of the
half-open gradient rule written out here, and the brute oracle."""

from fractions import Fraction as F
from math import floor
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from conftest import rule_index
from lftlab.errors import DegenerateGrid, NonConvexInput, OutOfRangeDual
from lftlab.grids import DualGrid, FunctionSpec, GradientVector, RegularGrid
from lftlab.multi import lft_brute
from lftlab.rational import split
from lftlab.transform import (
    adaptive_dual_points,
    discrete_gradients,
    lft_adaptive,
    lft_regular,
    optimizer_map,
    regular_dual_grid,
)
from lftlab.witness import (
    assignment_counts,
    dual_index,
    in_acceptance_set,
    witness_params,
)

rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 9))
primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


@st.composite
def primal_grids(draw, n):
    x0 = draw(rationals)
    gamma = F(draw(st.integers(1, 12)), draw(st.integers(1, 7)))
    return RegularGrid(x0=x0, gamma=gamma, n=n)


@st.composite
def convex_instances(draw, min_n=3, max_n=12):
    """Exact convex samples: repeated gradients, non-unit spacing, nonzero
    x0, high-bit quadratics, or samples over distinct prime denominators."""
    n = draw(st.integers(min_n, max_n))
    grid = draw(primal_grids(n))
    shape = draw(st.sampled_from(["quadratic", "steps", "coprime"]))
    if shape == "coprime":
        # 2 i^2 keeps every second difference >= 3 under the 1/p terms
        ps = draw(st.lists(st.sampled_from(primes), min_size=n, max_size=n))
        samples = tuple(2 * i * i + F(1, p) for i, p in enumerate(ps))
    elif shape == "quadratic":
        a = F(draw(st.integers(1, 2**40)), draw(st.integers(1, 2**30)))
        b = F(draw(st.integers(-(2**40), 2**40)), draw(st.integers(1, 2**30)))
        c = F(draw(st.integers(-(2**40), 2**40)), draw(st.integers(1, 2**30)))
        samples = tuple(a * x * x + b * x + c for x in grid.points())
    else:
        denom = draw(st.sampled_from([1, 2, 3, 8]))
        steps = draw(st.lists(st.integers(0, 3), min_size=n - 2, max_size=n - 2))
        c = [draw(rationals)]
        for step in steps:
            c.append(c[-1] + F(step, denom))
        samples = [draw(rationals)]
        for ci in c:
            samples.append(samples[-1] + grid.gamma * ci)
        samples = tuple(samples)
    return FunctionSpec(grid=grid, samples=samples)


@st.composite
def dual_grids(draw, f):
    """Clamped regular grids reaching beyond [c_0, c_{n-2}], regular grids
    wholly at or below c_0 or at or above c_{n-2} with K up to 4n (every
    count then sits in the clamped head or tail, or at the top cap),
    zero-spacing grids, and explicit grids with points on the gradients."""
    c = [(b - a) / f.grid.gamma for a, b in zip(f.samples, f.samples[1:])]
    kind = draw(st.sampled_from(["regular", "below", "above", "zero", "explicit"]))
    if kind in ("below", "above"):
        k = draw(st.integers(2, 4 * f.n))
        width = c[-1] - c[0] + 1
        gap = width * F(draw(st.integers(0, 8)), 8)
        span = width * F(draw(st.integers(1, 8)), 4)
        if kind == "below":
            return regular_dual_grid((c[0] - gap - span, c[0] - gap), k)
        return regular_dual_grid((c[-1] + gap, c[-1] + gap + span), k)
    k = draw(st.integers(1 if kind == "explicit" else 2, 20))
    if kind == "regular":
        width = c[-1] - c[0] + 1
        lo = c[0] - width * F(draw(st.integers(0, 4)), 8)
        hi = c[-1] + width * F(draw(st.integers(0, 4)), 8)
        return regular_dual_grid((lo, hi), k)
    if kind == "zero":
        return DualGrid(s0=draw(st.sampled_from(c + [c[0] - 1, c[-1] + 1])), gamma_s=0, k=k)
    pool = c + [(a + b) / 2 for a, b in zip(c, c[1:])] + [c[0] - 1, c[-1] + 1]
    return DualGrid.from_points(sorted(draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))))


def sweep_map(f, dual):
    """Per-point half-open rule: s <= c_0 -> 0, s >= c_{n-2} -> n-1, else the
    smallest i with s <= c_i."""
    c = [(b - a) / f.grid.gamma for a, b in zip(f.samples, f.samples[1:])]
    out = []
    for s in dual.points():
        if s <= c[0]:
            out.append(0)
        elif s >= c[-1]:
            out.append(f.n - 1)
        else:
            out.append(next(i for i, ci in enumerate(c) if s <= ci))
    return tuple(out)


def check_against_references(f, exact, dual):
    """Kernel on ``f`` against both references: the sweep built on the
    exact samples and the brute on ``f`` itself."""
    idx = sweep_map(exact, dual)
    xs = exact.grid.points()
    values = tuple(s * xs[i] - exact.samples[i] for s, i in zip(dual.points(), idx))
    counts = tuple(idx.count(i) for i in range(f.n))

    res = lft_regular(f, dual, clamp=True)
    assert res.optimizer_index == idx
    brute = lft_brute(f, dual).values
    assert res.values == values == brute
    assert all(type(v) is F for v in res.values + brute)

    g = discrete_gradients(f)
    assert optimizer_map(g, dual, clamp=True) == idx
    assert tuple(rule_index(g.c, s) for s in dual.points()) == idx
    assert assignment_counts(g, dual) == counts
    if dual.kind == "adaptive" or dual.gamma_s > 0:
        report = witness_params(g, dual)
        assert report.w == max(counts)
        assert report.success_probability == F(dual.k, f.n * max(counts))
        jump = max(b - a for a, b in zip(g.c, g.c[1:]))
        assert report.w_floor == (floor(jump / dual.gamma_s) if dual.kind == "regular" else None)
    first = 0
    for i, cnt in enumerate(counts):
        for m in range(max(counts) + 1):
            assert in_acceptance_set(i, m, g, dual) == (m < cnt)
            assert dual_index(i, m, g, dual) == (first + m if m < cnt else None)
        first += cnt


@given(data=st.data(), f=convex_instances())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_sweep_and_brute(data, f):
    check_against_references(f, f, data.draw(dual_grids(f)))


@given(data=st.data(), f=convex_instances())
@settings(max_examples=60, deadline=None)
def test_float_samples_convert_exactly(data, f):
    floats = FunctionSpec(grid=f.grid, samples=tuple(float(v) for v in f.samples))
    exact = FunctionSpec(grid=f.grid, samples=tuple(F(v) for v in floats.samples))
    s = exact.samples
    if any(u - 2 * v + w < 0 for u, v, w in zip(s, s[1:], s[2:])):
        # rounding can bend the samples; the exact check, which has no
        # tolerance, then rejects them
        with pytest.raises(NonConvexInput):
            lft_regular(floats, DualGrid.from_points([F(0)]), clamp=True)
        return
    check_against_references(floats, exact, data.draw(dual_grids(exact)))
    assert lft_adaptive(floats) == lft_adaptive(exact)


def test_brute_converts_float_samples_exactly():
    floats = FunctionSpec(RegularGrid(0, 1 / 2, 3), (0.1, 0.0, 0.1))
    exact = FunctionSpec(floats.grid, tuple(map(F, floats.samples)))
    dual = DualGrid.from_points([1 / 10])
    brute = lft_brute(floats, dual)
    assert brute == lft_brute(exact, dual)
    assert brute.values == lft_regular(floats, dual).values
    assert type(brute.values[0]) is F


@given(f=convex_instances(), variant=st.sampled_from(["centered", "right", "left"]))
@settings(max_examples=80, deadline=None)
def test_adaptive_kernel_matches_references(f, variant):
    c = [(b - a) / f.grid.gamma for a, b in zip(f.samples, f.samples[1:])]
    pts = {
        "centered": [c[0], *((a + b) / 2 for a, b in zip(c, c[1:])), c[-1]],
        "right": c + [c[-1]],
        "left": [c[0]] + c,
    }[variant]
    xs = f.grid.points()
    res = lft_adaptive(f, variant)
    assert res.dual.points() == tuple(pts) == adaptive_dual_points(discrete_gradients(f), variant)
    assert res.optimizer_index == tuple(range(f.n))
    assert res.values == tuple(s * x - v for s, x, v in zip(pts, xs, f.samples))
    assert res.values == lft_brute(f, res.dual).values


@given(f=convex_instances(min_n=4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_rejections_keep_their_types(f, data):
    i = data.draw(st.integers(1, f.n - 2))
    bent = list(f.samples)
    bent[i] = 1 + abs(bent[i - 1]) + abs(bent[i + 1])
    bent = FunctionSpec(grid=f.grid, samples=tuple(bent))
    dual = DualGrid.from_points([F(0)])
    for call in (discrete_gradients, lft_adaptive, lambda h: lft_regular(h, dual, clamp=True)):
        with pytest.raises(NonConvexInput):
            call(bent)

    g = discrete_gradients(f)
    off = DualGrid.from_points([g.lo, g.hi + data.draw(st.integers(1, 5))])
    with pytest.raises(OutOfRangeDual):
        lft_regular(f, off)
    with pytest.raises(OutOfRangeDual):
        optimizer_map(g, off)

    tiny = FunctionSpec(grid=RegularGrid(x0=f.grid.x0, gamma=f.grid.gamma, n=2), samples=f.samples[:2])
    for call in (discrete_gradients, lft_adaptive, lambda h: lft_regular(h, dual, clamp=True)):
        with pytest.raises(DegenerateGrid):
            call(tiny)


def test_brute_tie_at_top_gradient_differs_from_rule_in_index_only(ex1):
    # at s = c_{n-2} the rule pins n-1; lft_brute keeps the smallest
    # maximizing index, n-2 here, and both attain the same value
    g = discrete_gradients(ex1)
    dual = DualGrid.from_points([g.hi])
    rule = lft_regular(ex1, dual)
    brute = lft_brute(ex1, dual)
    assert rule.optimizer_index == (ex1.n - 1,)
    assert brute.optimizer_index == (ex1.n - 2,)
    assert rule.values == brute.values == (F(1, 4),)


# floats, small ints and rationals over wide coprime prime denominators
gradient_words = st.one_of(
    st.floats(-1e6, 1e6),
    st.integers(-50, 50),
    st.builds(F, st.integers(-(2**70), 2**70), st.sampled_from([1009, 1013, 2**61 - 1])),
)


@given(words=st.lists(gradient_words, min_size=2, max_size=8), presort=st.booleans())
@settings(max_examples=200, deadline=None)
def test_gradient_vector_carries_the_kernel_ratios(words, presort):
    if presort:
        words = sorted(words, key=F)
    c = tuple(words)
    if any(F(a) > F(b) for a, b in zip(c, c[1:])):
        with pytest.raises(NonConvexInput):
            GradientVector(c=c)
        return
    g = GradientVector(c=c)
    assert g.ratios == split(g.c)
    # the ratios are derived: equality, hashing and the repr see only c and grid
    assert g == GradientVector(c=c) and hash(g) == hash((g.c, None))
    assert repr(g) == f"GradientVector(c={g.c!r}, grid=None)"
    again = pickle.loads(pickle.dumps(g))
    assert again == g and again.ratios == g.ratios


@given(words=st.lists(gradient_words, min_size=2, max_size=8))
@settings(max_examples=200, deadline=None)
def test_function_spec_carries_the_kernel_ratios(words):
    grid = RegularGrid(x0=0, gamma=1, n=len(words))
    f = FunctionSpec(grid=grid, samples=tuple(words))
    assert f.ratios == split(f.samples)
    # float samples convert exactly: each ratio is the float's own value
    assert all(F(p, q) == v for p, q, v in zip(*f.ratios, f.samples))
    # the ratios are derived: equality, hashing and the repr see only the fields
    assert f == FunctionSpec(grid=grid, samples=tuple(words))
    assert hash(f) == hash((grid, f.samples, None))
    assert repr(f) == f"FunctionSpec(grid={grid!r}, samples={f.samples!r}, closed_form=None)"
    again = pickle.loads(pickle.dumps(f))
    assert again == f and again.ratios == f.ratios
