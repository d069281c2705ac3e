import gc
import math
import pickle
import random
import tracemalloc
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lftlab import fixtures, grids, multi, rational, transform
from lftlab.errors import NonConvexSlice
from lftlab.grids import DualGrid, FunctionSpec, RegularGrid
from lftlab.hardness import HiddenStringInstance
from lftlab.multi import (
    RatTensor,
    TensorGrid,
    TensorSamples,
    axis_transform,
    canonical_nd_dual_grids,
    lft_brute,
    lft_nd_adaptive,
    lft_nd_brute,
    lft_nd_regular,
    product_dual_points,
)
from lftlab.transform import lft_adaptive, lft_regular, regular_dual_grid

from conftest import canonical_dual


def as_tensor_1d(f):
    return TensorSamples(
        grid=TensorGrid(axes=(f.grid,)), values=RatTensor((f.n,), f.samples)
    )


def generator_case(seed):
    """A seeded convex quadratic on 2 or 3 axes and its dual size per axis."""
    r = random.Random(seed)
    d = r.choice([2, 3])
    n = r.randint(3, 8 if d == 2 else 5)
    k = r.choice([2, 3, n, 2 * n])
    c = r.randint(1, 3)
    return fixtures.random_convex_quadratic_nd(r, d, n, c), (k,) * d


def assert_attained(f, res):
    """Every optimizer of a regular result attains its value."""
    for pos, jidx in enumerate(res.values.indices()):
        s, opt = res.dual_point(jidx), res.optimizer[pos]
        achieved = sum(a * b for a, b in zip(s, f.grid.point(opt))) - f.values.get(opt)
        assert achieved == res.values.get(jidx)


class TestPartialTransform:
    def test_separable_splits(self, rng):
        # g(x0, s1) = q(x0) - q*(s1) for f = q(x0) + q(x1)
        f = fixtures.separable_sum("quadratic-ex1", d=2, n=5)
        q = fixtures.ex1()
        dual = canonical_dual(q, 4)
        values = axis_transform(f.values, 1, f.grid.axes[1], dual)
        qstar = lft_brute(q, dual)
        for i0 in range(5):
            for j in range(4):
                expected = q.samples[i0] - qstar.values[j]
                assert values.get((i0, j)) == expected

    def test_d1_equals_negated_transform(self, ex1):
        t = as_tensor_1d(ex1)
        dual = canonical_dual(ex1, 4)
        values = axis_transform(t.values, 0, t.grid.axes[0], dual)
        ref = lft_regular(ex1, dual)
        assert tuple(values.flat) == tuple(-v for v in ref.values)

    def test_slicewise_against_brute(self, rng):
        f = fixtures.random_convex_quadratic_nd(rng, d=2, n=5)
        dual = regular_dual_grid((F(-1), F(1)), 4)
        values = axis_transform(f.values, 1, f.grid.axes[1], dual)
        for i0 in range(5):
            line = tuple(f.values.get((i0, i1)) for i1 in range(5))
            spec = fixtures.FunctionSpec(
                grid=f.grid.axes[1], samples=line
            )
            brute = lft_brute(spec, dual)
            got = [values.get((i0, j)) for j in range(4)]
            assert got == [-v for v in brute.values]

    def test_nonconvex_slice_equals_brute(self):
        # the line at (0,) is not convex; the pass takes its exact maximum
        grid = TensorGrid(axes=(fixtures.unit_grid(3), fixtures.unit_grid(3)))
        values = RatTensor((3, 3), tuple(map(F, (0, 1, 0, 0, 0, 0, 0, 0, 0))))
        t = TensorSamples(grid=grid, values=values)
        dual = DualGrid.from_points([F(-3), F(0), F(1, 2), F(3)])
        got = axis_transform(t.values, 1, t.grid.axes[1], dual)
        for i0 in range(3):
            line = tuple(t.values.get((i0, i1)) for i1 in range(3))
            brute = lft_brute(fixtures.FunctionSpec(grid=t.grid.axes[1], samples=line), dual)
            assert [got.get((i0, j)) for j in range(dual.k)] == [-v for v in brute.values]


class TestNdRegular:
    def test_separable_ex1_square(self):
        f = fixtures.separable_sum("quadratic-ex1", d=2, n=5)
        duals = (
            regular_dual_grid((F(-1, 2), F(1)), 4),
            regular_dual_grid((F(-1, 2), F(1)), 4),
        )
        res = lft_nd_regular(f, duals)
        qstar = (F(-1, 2), F(-3, 8), F(-1, 8), F(1, 4))
        for j0 in range(4):
            for j1 in range(4):
                assert res.values.get((j0, j1)) == qstar[j0] + qstar[j1]

    def test_zero_function_single_dual(self):
        grid = TensorGrid(axes=(fixtures.unit_grid(2), fixtures.unit_grid(2)))
        f = TensorSamples(grid=grid, values=RatTensor((2, 2), (F(0),) * 4))
        res = lft_nd_brute(f, [(F(0), F(0))])
        assert res.values.flat == (F(0),)
        single = DualGrid(s0=F(0), gamma_s=F(0), k=1)
        nested = lft_nd_regular(f, (single, single))
        assert nested.values.flat == (F(0),)

    def test_matches_brute_on_random_quadratics(self, rng):
        for _ in range(12):
            d = rng.choice([2, 2, 3])
            n = rng.choice([4, 6, 8]) if d == 2 else 4
            f = fixtures.random_convex_quadratic_nd(rng, d=d, n=n, coupling=rng.choice([1, 2]))
            ks = tuple(rng.choice([3, 4, 5]) for _ in range(d))
            duals = canonical_nd_dual_grids(f, ks)
            res = lft_nd_regular(f, duals)
            brute = lft_nd_brute(f, product_dual_points(duals))
            assert tuple(res.values.flat) == brute.values.flat

    def test_axis_order_independence(self, rng):
        # both nesting orders must equal the brute values
        f = fixtures.random_convex_quadratic_nd(rng, d=2, n=4)
        duals = canonical_nd_dual_grids(f, (4, 4))
        res = lft_nd_regular(f, duals)
        brute = lft_nd_brute(f, product_dual_points(duals))
        assert tuple(res.values.flat) == brute.values.flat
        # reversed-axis nesting via transpose
        fT = TensorSamples(
            grid=TensorGrid(axes=(f.grid.axes[1], f.grid.axes[0])),
            values=RatTensor(
                (4, 4),
                tuple(
                    f.values.get((i1, i0))
                    for i0 in range(4)
                    for i1 in range(4)
                ),
            ),
        )
        resT = lft_nd_regular(fT, (duals[1], duals[0]))
        for j0 in range(4):
            for j1 in range(4):
                assert resT.values.get((j1, j0)) == res.values.get((j0, j1))

    def test_fenchel_young_all_pairs(self, rng):
        f = fixtures.random_convex_quadratic_nd(rng, d=2, n=4)
        duals = canonical_nd_dual_grids(f, (4, 4))
        res = lft_nd_regular(f, duals)
        for jidx in res.values.indices():
            s = res.dual_point(jidx)
            v = res.values.get(jidx)
            for pidx in f.values.indices():
                x = f.grid.point(pidx)
                assert f.values.get(pidx) + v >= sum(a * b for a, b in zip(s, x))

    def test_optimizer_multi_indices_achieve_value(self, rng):
        f = fixtures.random_convex_quadratic_nd(rng, d=2, n=4)
        duals = canonical_nd_dual_grids(f, (3, 5))
        assert_attained(f, lft_nd_regular(f, duals))

    @pytest.mark.parametrize("seed", [5, 56, 138, 139])
    def test_explicit_copies_of_the_grids_give_the_same_result(self, seed, monkeypatch):
        f, ks = generator_case(seed)
        duals = canonical_nd_dual_grids(f, ks)
        copies = [DualGrid.from_points(g.points()) for g in duals]
        want = lft_nd_regular(f, duals)
        calls = []
        for module in (transform, multi, grids):

            def recording(values, name=module.__name__):
                values = list(values)
                calls.append((name, values))
                return rational.split(values)

            monkeypatch.setattr(module, "split", recording, raising=False)
        got = lft_nd_regular(f, copies)
        # the copies were split once, when they were built: the passes build
        # no grid and split none of the copies' points (multi splits only
        # the samples and the envelopes of nonconvex lines)
        points = {id(s) for g in copies for s in g.explicit}
        again = [name for name, v in calls if name != "lftlab.multi" or points & set(map(id, v))]
        assert again == []
        assert pickle.dumps((got.values, got.optimizer), protocol=4) == pickle.dumps(
            (want.values, want.optimizer), protocol=4
        )

    # generator seeds whose axis-1 (or axis-2) pass leaves a discretely
    # nonconvex intermediate line
    @pytest.mark.parametrize("seed", [5, 56, 138, 139, 178, 186])
    def test_nonconvex_intermediate_lines_match_the_brute(self, seed):
        f, ks = generator_case(seed)
        duals = canonical_nd_dual_grids(f, ks)
        res = lft_nd_regular(f, duals)
        assert res.values.flat == lft_nd_brute(f, product_dual_points(duals)).values.flat
        assert_attained(f, res)


class TestNdAdaptive:
    def test_separable_sum_matches_1d_composition(self):
        f = fixtures.separable_sum("quadratic-ex1", d=2, n=5)
        res = lft_nd_adaptive(f)
        one = lft_adaptive(fixtures.ex1())
        for i0 in range(5):
            for i1 in range(5):
                assert res.values.get((i0, i1)) == one.values[i0] + one.values[i1]
                assert res.dual_point((i0, i1)) == (
                    one.dual.points()[i0],
                    one.dual.points()[i1],
                )

    def test_d1_reduction(self, ex2):
        t = as_tensor_1d(ex2)
        res = lft_nd_adaptive(t)
        ref = lft_adaptive(ex2)
        assert tuple(res.values.flat) == ref.values
        assert tuple(p[0] for p in res.dual_points) == ref.dual.points()

    def test_equality_at_own_index(self, rng):
        # the centered points need convex intermediate lines
        for _ in range(20):
            f = fixtures.random_convex_quadratic_nd(rng, d=2, n=4, coupling=2)
            try:
                res = lft_nd_adaptive(f)
                break
            except NonConvexSlice:
                continue
        else:
            raise AssertionError("no draw kept its intermediate lines convex")
        for idx in res.values.indices():
            s = res.dual_point(idx)
            x = f.grid.point(idx)
            lhs = f.values.get(idx) + res.values.get(idx)
            assert lhs == sum(a * b for a, b in zip(s, x))


class TestNdBrute:
    def test_hypercube_identity(self):
        f = HiddenStringInstance((1, 0, 1)).sample_tensor()
        e2 = (0, 1, 0)
        res = lft_nd_brute(f, [e2])
        assert res.values.flat == (F(0),)

    def test_single_primal_point(self):
        grid = TensorGrid(axes=(RegularGrid(x0=F(2), gamma=F(1), n=2),))
        f = TensorSamples(grid=grid, values=RatTensor((2,), (F(5), F(100))))
        res = lft_nd_brute(f, [(F(1),)])
        assert res.values.flat == (F(-3),)

    def test_lexicographic_tie_break(self):
        grid = TensorGrid(axes=(fixtures.unit_grid(2), fixtures.unit_grid(2)))
        f = TensorSamples(grid=grid, values=RatTensor((2, 2), (F(0),) * 4))
        res = lft_nd_brute(f, [(F(0), F(0))])
        assert res.optimizer == ((0, 0),)

    @pytest.mark.parametrize("point", [(F(1),), (F(1), F(0), F(0))])
    def test_rejects_dual_points_of_wrong_length(self, point):
        f = fixtures.separable_sum("quadratic-ex1", d=2, n=4)
        with pytest.raises(ValueError, match=f"has {len(point)} components; the samples have 2"):
            lft_nd_brute(f, [(F(0), F(0)), point])

    def test_one_axis_brute_holds_no_product_table(self):
        # a K x N table of the products s_j x_i peaks near 11 MB at
        # N = K = 512; a last-axis row is made only when read, as a range,
        # so this brute holds O(N + K) words
        n = 512
        grid = RegularGrid(x0=F(-1), gamma=F(2, n - 1), n=n)
        f = TensorSamples(
            grid=TensorGrid(axes=(grid,)), values=RatTensor((n,), tuple(x * x for x in grid.points()))
        )
        pts = [(s,) for s in regular_dual_grid((F(-2), F(2)), n).points()]
        tracemalloc.start()
        try:
            lft_nd_brute(f, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_leaves_no_cyclic_garbage(self):
        # perfbench pauses the cyclic GC during a pass: tables kept alive by
        # a reference cycle would stay until the next collection
        f = fixtures.separable_sum("quadratic-ex1", d=2, n=4)
        pts = product_dual_points(canonical_nd_dual_grids(f, (4, 4)))
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            lft_nd_brute(f, pts)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


# pairwise coprime prime denominators: the shared denominator of the integer
# core is their product, past 4096 bits once 2**4423 - 1 is among them
WIDE_PRIMES = [1009, 1013, 2**61 - 1, 2**89 - 1, 2**127 - 1, 2**4423 - 1]


def _outcome(fn):
    try:
        return fn()
    except NonConvexSlice as exc:
        return NonConvexSlice, str(exc)


@st.composite
def tensors(draw):
    """Row-major tensors with d = 1..4 distinct sides and small rationals,
    some over wide coprime prime denominators."""
    shape = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=4, unique=True)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    dens = [1, 2, 3, 4] + (WIDE_PRIMES if draw(st.booleans()) else [])
    flat = (F(rng.randint(-32, 32), rng.choice(dens)) for _ in range(math.prod(shape)))
    return RatTensor(shape, tuple(flat))


def _reference_pick(line, xs, s):
    """The index a pass takes on a line at dual point s, from the maxima
    alone: the first maximizer of s x_i - line_i, or the last one once s
    reaches the lower convex envelope's last slope and passes its first.
    On a convex line this is the clamped gradient rule."""
    vals = [s * x - v for x, v in zip(xs, line)]
    best = max(vals)
    first = min((v - line[0]) / (x - xs[0]) for v, x in zip(line[1:], xs[1:]))
    last = max((line[-1] - v) / (xs[-1] - x) for v, x in zip(line[:-1], xs))
    if s >= last and s > first:
        return len(vals) - 1 - vals[::-1].index(best)
    return vals.index(best)


def complements(shape, axis):
    """The fixed coordinates of every line along ``axis``, in row-major order."""
    return product(*(range(s) for a, s in enumerate(shape) if a != axis))


def at(comp, axis, i):
    """The multi-index with ``i`` on ``axis`` and ``comp`` on the other axes."""
    return (*comp[:axis], i, *comp[axis:])


class TestStridedLines:
    @settings(max_examples=60, deadline=None)
    @given(
        t=tensors(),
        data=st.data(),
        x0=st.fractions(-2, 2, max_denominator=3),
        gamma=st.sampled_from([F(1), F(1, 2), F(3)]),
        points=st.lists(st.fractions(-30, 30, max_denominator=3), min_size=1, max_size=5),
        regular=st.booleans(),
    )
    def test_axis_transform_equals_per_element_reference(
        self, t, data, x0, gamma, points, regular
    ):
        axis = data.draw(st.integers(0, len(t.shape) - 1))
        x_axis = RegularGrid(x0=x0, gamma=gamma, n=t.shape[axis])
        points = sorted(points)
        if regular:
            dual = DualGrid(s0=points[0], gamma_s=abs(points[-1] - points[0]) / 3, k=len(points))
        else:
            dual = DualGrid.from_points(points)

        got = axis_transform(t, axis, x_axis, dual)
        *_, counts, taken = multi._pass(t.shape, multi._lift(t.flat), axis, x_axis, dual)
        new_shape = (*t.shape[:axis], dual.k, *t.shape[axis + 1 :])
        ref, ref_counts, ref_taken = {}, {}, {}
        for comp in complements(t.shape, axis):
            line = [t.get(at(comp, axis, i)) for i in range(t.shape[axis])]
            with pytest.raises(IndexError):  # one past the line's end
                t.get(at(comp, axis, t.shape[axis]))
            xs = [x_axis.point(i) for i in range(t.shape[axis])]
            ref_counts[comp] = [0] * t.shape[axis]
            for j in range(dual.k):
                s = dual.point(j)
                i = _reference_pick(line, xs, s)
                # the pass carries g = -(s x_i - f_i)
                ref[at(comp, axis, j)] = line[i] - s * x_axis.point(i)
                # the flat offset, in the input, of the element taken
                ref_taken[at(comp, axis, j)] = t.offset(at(comp, axis, i))
                ref_counts[comp][i] += 1
        assert got == RatTensor.build(new_shape, ref.__getitem__)
        assert counts == ref_counts
        assert taken == [ref_taken[idx] for idx in sorted(ref_taken)]


def _reference_brute(f, dual_points):
    """The exhaustive max as one flat loop over (dual point, primal point)
    pairs in row-major order, keeping the first strict maximum."""
    values, optimizer = [], []
    for s in dual_points:
        best = best_idx = None
        for idx in f.values.indices():
            x = f.grid.point(idx)
            cand = sum(si * xi for si, xi in zip(s, x)) - f.values.get(idx)
            if best is None or cand > best:
                best, best_idx = cand, idx
        values.append(best)
        optimizer.append(best_idx)
    return tuple(values), tuple(optimizer)


def _reference_adaptive(f):
    """The nested centered passes per element on Fractions, last axis first:
    each line must have nonnegative second differences; its points are c_0,
    the midpoints of neighboring gradients and c_{n-2}; g = v - s * x."""
    t = dict(zip(f.values.indices(), f.values.flat))
    s = {idx: [None] * f.d for idx in t}
    for axis in reversed(range(f.d)):
        for comp in complements(f.values.shape, axis):
            idxs = [(*comp[:axis], i, *comp[axis:]) for i in range(f.grid.shape[axis])]
            line = [t[idx] for idx in idxs]
            if any(u - 2 * v + w < 0 for u, v, w in zip(line, line[1:], line[2:])):
                raise NonConvexSlice(f"axis {axis} line at {comp} is not discretely convex")
            c = [(b - a) / f.grid.gamma for a, b in zip(line, line[1:])]
            pts = [c[0], *((a + b) / 2 for a, b in zip(c, c[1:])), c[-1]]
            for i, (idx, p) in enumerate(zip(idxs, pts)):
                s[idx][axis] = p
                t[idx] = line[i] - p * f.grid.axes[axis].point(i)
    order = list(f.values.indices())
    return tuple(-t[idx] for idx in order), tuple(tuple(s[idx]) for idx in order)


# small alphabets make ties between primal points common; the prime
# denominators make the shared denominator wide
SAMPLE_ALPHABET = [F(0), F(1), F(-1), F(1, 2), F(-3, 2)] + [
    F(1, 1009), F(-1, 2**61 - 1), F(1, 2**127 - 1), F(-1, 2**4423 - 1)
]
DUAL_ALPHABET = [0, 1, -1, F(1, 2), F(-2, 3), F(2), F(3), F(1, 1013), F(-1, 2**89 - 1)]


@st.composite
def brute_cases(draw):
    """Samples on d = 1..4 axes with one non-unit spacing and per-axis
    offsets, nonconvex or a convex bowl plus the same perturbations, and
    either a product dual set, with its per-axis components, or an arbitrary
    list (repeated points and the empty list included) and None."""
    shape = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=4)))
    gamma = draw(st.sampled_from([F(1), F(1, 2), F(2, 3), F(3)]))
    axes = tuple(
        RegularGrid(x0=draw(st.fractions(-2, 2, max_denominator=3)), gamma=gamma, n=n)
        for n in shape
    )
    size = math.prod(shape)
    flat = draw(st.lists(st.sampled_from(SAMPLE_ALPHABET), min_size=size, max_size=size))
    # second differences of 8 outweigh any perturbation of the alphabet
    bowl = draw(st.sampled_from([0, 0, 4]))
    idxs = product(*(range(n) for n in shape))
    flat = [v + bowl * sum(i * i for i in idx) for v, idx in zip(flat, idxs)]
    f = TensorSamples(grid=TensorGrid(axes=axes), values=RatTensor(shape, tuple(flat)))
    comp = st.sampled_from(DUAL_ALPHABET)
    if draw(st.booleans()):
        per_axis = [draw(st.lists(comp, min_size=1, max_size=3)) for _ in shape]
        return f, list(product(*per_axis)), per_axis
    pts = draw(st.lists(st.tuples(*(comp for _ in shape)), max_size=8))
    if pts:
        pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return f, pts, None


class TestBruteAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(case=brute_cases())
    def test_equals_flat_reference_loop(self, case):
        f, pts, per_axis = case
        res = lft_nd_brute(f, pts)
        values, optimizer = _reference_brute(f, pts)
        assert res.values.shape == (len(pts),)
        assert res.values.flat == values
        assert all(isinstance(v, F) for v in res.values.flat)
        assert res.optimizer == optimizer
        assert res.dual_points == tuple(pts)
        if per_axis is not None:
            # the nested passes are exact on these samples, convex or not
            duals = [DualGrid.from_points(sorted(set(comps))) for comps in per_axis]
            nested = lft_nd_regular(f, duals)
            assert nested.values.flat == lft_nd_brute(f, product_dual_points(duals)).values.flat
            assert_attained(f, nested)
        # the canonical range of every pass is ordered, convex or not
        ks = [2 + i % 2 for i in range(f.d)]
        canonical = lft_nd_regular(f, canonical_nd_dual_grids(f, ks))
        assert canonical.values.flat == lft_nd_brute(f, product_dual_points(canonical.duals)).values.flat
        assert_attained(f, canonical)

        def adaptive():
            res = lft_nd_adaptive(f)
            return res.values.flat, res.dual_points

        want = _outcome(lambda: _reference_adaptive(f))
        assert _outcome(adaptive) == want


@st.composite
def brute_1d_cases(draw):
    """1D samples, nonconvex, convex, or floats across 2^-200..2^200, and a
    dual grid: regular from c_0 to c_{n-2} (its last point is the tie
    s = c_{n-2}) or wider, zero-spacing, or explicit with repeated points.
    Returns the samples, the grid and whether the samples are convex."""
    n = draw(st.integers(2, 7))
    gamma = draw(st.sampled_from([F(1), F(1, 2), F(2, 3), F(3)]))
    grid = RegularGrid(x0=draw(st.fractions(-2, 2, max_denominator=3)), gamma=gamma, n=n)
    kind = draw(st.sampled_from(["nonconvex", "convex", "float"]))
    if kind == "float":
        word = st.builds(math.ldexp, st.integers(-(2**20), 2**20), st.integers(-200, 200))
        samples = draw(st.lists(word, min_size=n, max_size=n))
    else:
        samples = draw(st.lists(st.sampled_from(SAMPLE_ALPHABET), min_size=n, max_size=n))
        if kind == "convex":
            # second differences of 8 outweigh any perturbation of the alphabet
            samples = [v + 4 * i * i for i, v in enumerate(samples)]
    f = FunctionSpec(grid=grid, samples=tuple(samples))
    exact = list(map(F, f.samples))
    c = [(b - a) / gamma for a, b in zip(exact, exact[1:])]
    lo, hi = min(c[0], c[-1]), max(c[0], c[-1])
    dual_kind = draw(st.sampled_from(["range", "wide", "zero", "explicit"]))
    k = draw(st.integers(2, 9))
    if dual_kind == "range":
        dual = regular_dual_grid((lo, hi), k)
    elif dual_kind == "wide":
        width = (hi - lo + 1) * F(draw(st.integers(1, 8)), 8)
        dual = regular_dual_grid((lo - width, hi + width), k)
    elif dual_kind == "zero":
        dual = DualGrid(s0=draw(st.sampled_from(c + DUAL_ALPHABET)), gamma_s=0, k=k)
    else:
        pts = draw(st.lists(st.sampled_from(c + DUAL_ALPHABET), min_size=1, max_size=k))
        pts += draw(st.lists(st.sampled_from(pts), min_size=1, max_size=3))
        dual = DualGrid.from_points(sorted(pts))
    return f, dual, kind == "convex"


class TestOneAxisBrute:
    @settings(max_examples=200, deadline=None)
    @given(case=brute_1d_cases())
    def test_equals_flat_reference_loop(self, case):
        f, dual, convex = case
        res = lft_brute(f, dual)
        # the reference reads exact samples: a float less a Fraction is a float
        exact = TensorSamples(
            grid=TensorGrid(axes=(f.grid,)), values=RatTensor((f.n,), tuple(map(F, f.samples)))
        )
        values, optimizer = _reference_brute(exact, [(s,) for s in dual.points()])
        assert res.dual == dual
        assert res.values == values
        assert all(type(v) is F for v in res.values)
        assert res.optimizer_index == tuple(i for (i,) in optimizer)
        if convex:
            # at s = c_{n-2} the first maximum is the first i with c_i = c_{n-2}
            c = [(b - a) / f.grid.gamma for a, b in zip(f.samples, f.samples[1:])]
            for s, i in zip(dual.points(), res.optimizer_index):
                if s == c[-1]:
                    assert i == c.index(c[-1])
