from fractions import Fraction as F

import pytest

from lftlab import fixtures, lft_brute
from lftlab.errors import (
    DegenerateGrid,
    InvalidK,
    NonConvexInput,
    OutOfRangeDual,
)
from lftlab.grids import DualGrid, FunctionSpec, RegularGrid
from lftlab.transform import (
    discrete_gradients,
    double_transform,
    lft_adaptive,
    lft_regular,
    nontrivial_dual_range,
    optimizer_map,
    regular_dual_grid,
)

from conftest import canonical_dual


class TestDiscreteGradients:
    def test_ex1_gradients(self, ex1):
        g = discrete_gradients(ex1)
        assert g.c == (F(-1, 2), F(0), F(1, 2), F(1))

    def test_constant_function_all_zero(self):
        g = discrete_gradients(fixtures.constant(F(3, 4), n=5))
        assert g.c == (F(0),) * 4

    def test_random_quadratic_matches_direct_quotients(self, rng):
        f = fixtures.random_quadratic_spec(rng, 8)
        g = discrete_gradients(f)
        for i in range(7):
            assert g.c[i] == (f.samples[i + 1] - f.samples[i]) / f.grid.gamma

    def test_rejects_nonconvex(self):
        f = FunctionSpec(grid=fixtures.unit_grid(3), samples=(F(0), F(1), F(0)))
        with pytest.raises(NonConvexInput):
            discrete_gradients(f)

    def test_rejects_tiny_grid(self):
        f = FunctionSpec(
            grid=RegularGrid(x0=F(0), gamma=F(1), n=2), samples=(F(0), F(1))
        )
        with pytest.raises(DegenerateGrid):
            discrete_gradients(f)


class TestDualRangeAndGrid:
    def test_ex1_range(self, ex1):
        assert nontrivial_dual_range(discrete_gradients(ex1)) == (F(-1, 2), F(1))

    def test_ex3_range(self, ex3):
        assert nontrivial_dual_range(discrete_gradients(ex3)) == (F(0), F(1))

    def test_constant_range_is_single_point(self):
        g = discrete_gradients(fixtures.constant(0, n=4))
        assert nontrivial_dual_range(g) == (F(0), F(0))

    def test_regular_grid_ex1(self):
        grid = regular_dual_grid((F(-1, 2), F(1)), 4)
        assert grid.points() == (F(-1, 2), F(0), F(1, 2), F(1))

    def test_regular_grid_ex2(self):
        grid = regular_dual_grid((F(0), F(3, 4)), 5)
        assert grid.points() == (F(0), F(3, 16), F(6, 16), F(9, 16), F(3, 4))

    def test_degenerate_range(self):
        grid = regular_dual_grid((F(0), F(0)), 2)
        assert grid.points() == (F(0), F(0))
        assert grid.gamma_s == 0

    def test_k_below_two_rejected(self):
        with pytest.raises(InvalidK):
            regular_dual_grid((F(0), F(1)), 1)


class TestOptimizerMap:
    def test_ex1_assignment(self, ex1):
        g = discrete_gradients(ex1)
        dual = regular_dual_grid(nontrivial_dual_range(g), 4)
        idx = optimizer_map(g, dual)
        assert idx == (0, 1, 2, 4)
        xs = ex1.grid.points()
        assert tuple(xs[i] for i in idx) == (F(0), F(1, 4), F(1, 2), F(1))

    def test_ex3_assignment_with_flat_piece(self, ex3):
        g = discrete_gradients(ex3)
        dual = regular_dual_grid(nontrivial_dual_range(g), 5)
        assert optimizer_map(g, dual) == (0, 1, 1, 3, 4)

    def test_tie_on_constant_gradients_picks_first_interval(self):
        f = FunctionSpec(
            grid=RegularGrid(x0=F(0), gamma=F(1, 2), n=3),
            samples=(F(0), F(1, 2), F(1)),
        )
        g = discrete_gradients(f)
        dual = DualGrid.from_points([F(1)])
        assert optimizer_map(g, dual) == (0,)

    def test_monotone_in_j(self, rng):
        for _ in range(25):
            f = fixtures.random_convex_spec(rng, rng.randint(3, 12))
            g = discrete_gradients(f)
            dual = canonical_dual(f, rng.randint(2, 17))
            idx = optimizer_map(g, dual)
            assert all(a <= b for a, b in zip(idx, idx[1:]))

    def test_out_of_range_raises_and_clamp_pins(self, ex1):
        g = discrete_gradients(ex1)
        dual = DualGrid.from_points([F(-2), F(2)])
        with pytest.raises(OutOfRangeDual):
            optimizer_map(g, dual)
        assert optimizer_map(g, dual, clamp=True) == (0, 4)


class TestRegularTransform:
    def test_ex1_values(self, ex1):
        res = lft_regular(ex1, canonical_dual(ex1, 4))
        assert res.values == (F(-1, 2), F(-3, 8), F(-1, 8), F(1, 4))

    def test_ex2_values(self, ex2):
        res = lft_regular(ex2, canonical_dual(ex2, 5))
        assert res.values == (F(0), F(3, 64), F(1, 8), F(15, 64), F(6, 16))

    def test_ex3_values(self, ex3):
        res = lft_regular(ex3, canonical_dual(ex3, 5))
        assert res.values == (F(0), F(1, 16), F(1, 8), F(5, 16), F(1, 2))

    def test_constant_function_degenerate_dual(self):
        f = fixtures.constant(F(2, 3), n=4)
        res = lft_regular(f, canonical_dual(f, 2))
        assert res.values == (F(-2, 3), F(-2, 3))


class TestAdaptiveTransform:
    def test_ex1_centered(self, ex1):
        res = lft_adaptive(ex1, "centered")
        assert res.dual.points() == (F(-1, 2), F(-1, 4), F(1, 4), F(3, 4), F(1))
        assert res.values == (F(-1, 2), F(-7, 16), F(-1, 4), F(1, 16), F(1, 4))
        assert res.optimizer_index == (0, 1, 2, 3, 4)

    def test_ex2_right(self, ex2):
        res = lft_adaptive(ex2, "right")
        assert res.dual.points() == (F(0), F(1, 4), F(1, 2), F(3, 4), F(3, 4))
        assert res.values == (F(0), F(1, 16), F(3, 16), F(6, 16), F(6, 16))

    def test_ex2_centered(self, ex2):
        res = lft_adaptive(ex2, "centered")
        assert res.dual.points() == (F(0), F(1, 8), F(3, 8), F(5, 8), F(3, 4))
        assert res.values == (F(0), F(1, 32), F(1, 8), F(9, 32), F(6, 16))

    def test_ex3_centered_and_right(self, ex3):
        cen = lft_adaptive(ex3, "centered")
        assert cen.dual.points() == (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
        assert cen.values == (F(0), F(1, 16), F(1, 8), F(5, 16), F(1, 2))
        right = lft_adaptive(ex3, "right")
        assert right.dual.points() == (F(0), F(1, 2), F(1, 2), F(1), F(1))
        assert right.values == (F(0), F(1, 8), F(1, 8), F(1, 2), F(1, 2))

    def test_left_variant_points(self, ex2):
        res = lft_adaptive(ex2, "left")
        assert res.dual.points() == (F(0), F(0), F(1, 4), F(1, 2), F(3, 4))

    def test_adaptive_values_are_true_conjugates(self, rng):
        # each adaptive value must agree with brute force at its dual point
        for _ in range(20):
            f = fixtures.random_convex_spec(rng, rng.randint(3, 10))
            for variant in ("centered", "right", "left"):
                res = lft_adaptive(f, variant)
                brute = lft_brute(f, res.dual)
                assert res.values == brute.values


class TestBruteOracle:
    def test_ex1_agreement(self, ex1):
        dual = canonical_dual(ex1, 4)
        assert lft_brute(ex1, dual).values == lft_regular(ex1, dual).values

    def test_single_dual_point_constant(self):
        f = fixtures.constant(0, n=4)
        res = lft_brute(f, DualGrid.from_points([F(0)]))
        assert res.values == (F(0),)
        assert res.optimizer_index == (0,)

    def test_accepts_nonconvex(self):
        f = FunctionSpec(grid=fixtures.unit_grid(3), samples=(F(0), F(1), F(0)))
        res = lft_brute(f, DualGrid.from_points([F(0)]))
        assert res.values == (F(0),)

    def test_oracle_agreement_sweep(self, rng):
        for _ in range(50):
            f = fixtures.random_convex_spec(rng, rng.randint(3, 16))
            dual = canonical_dual(f, rng.randint(2, 24))
            fast = lft_regular(f, dual)
            brute = lft_brute(f, dual)
            assert fast.values == brute.values
            # optimizers agree except at value ties, where both are optimal
            for j, (fi, bi) in enumerate(
                zip(fast.optimizer_index, brute.optimizer_index)
            ):
                s = dual.point(j)
                xs = f.grid.points()
                assert s * xs[fi] - f.samples[fi] == s * xs[bi] - f.samples[bi]


class TestDoubleTransform:
    def test_values_never_exceed_samples_at_shared_points(self, rng):
        for _ in range(20):
            f = fixtures.random_convex_spec(rng, rng.randint(4, 10))
            second = double_transform(f)
            xs = {x: v for x, v in zip(f.grid.points(), f.samples)}
            for s, v in second.pairs():
                if s in xs:
                    assert v <= xs[s]


class TestFloatMode:
    def test_float_samples_get_no_tolerance(self):
        vals = [0.0, 0.5000000000001, 1.0]  # curvature about -2e-13
        f = FunctionSpec(grid=fixtures.unit_grid(3), samples=tuple(vals))
        with pytest.raises(NonConvexInput):
            discrete_gradients(f)

    def test_float_transform_tracks_exact(self, ex1):
        dual = canonical_dual(ex1, 4)
        f_float = FunctionSpec(
            grid=ex1.grid, samples=tuple(float(v) for v in ex1.samples)
        )
        res = lft_regular(f_float, dual)
        exact = lft_regular(ex1, dual)
        for a, b in zip(res.values, exact.values):
            assert abs(float(a) - float(b)) < 1e-12
