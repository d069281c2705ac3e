from fractions import Fraction as F
from math import floor

import pytest
from hypothesis import given, settings, strategies as st

from lftlab import fixtures
from lftlab.errors import IndexOutOfRange, ZeroSpacing
from lftlab.grids import DualGrid, GradientVector
from lftlab.transform import discrete_gradients, optimizer_map, regular_dual_grid
from lftlab.witness import (
    assignment_counts,
    dual_index,
    in_acceptance_set,
    witness_params,
)

from conftest import canonical_dual


def test_ex2_witness(ex2):
    g = discrete_gradients(ex2)
    report = witness_params(g, canonical_dual(ex2, 5))
    assert report.w == 1
    assert report.w_floor == 1  # floor((1/4)/(3/16)) = floor(4/3)
    assert report.success_probability == 1
    assert report.nu == F(3, 4)


def test_ex3_witness(ex3):
    g = discrete_gradients(ex3)
    report = witness_params(g, canonical_dual(ex3, 5))
    assert report.w == 2
    assert report.w_floor == 2  # floor((1/2)/(1/4))
    assert report.success_probability == F(1, 2)
    assert report.nu == F(1)


def test_ex1_witness_by_direct_count(ex1):
    g = discrete_gradients(ex1)
    dual = canonical_dual(ex1, 4)
    counts = assignment_counts(g, dual)
    report = witness_params(g, dual)
    assert report.w == max(counts) == 1
    assert report.success_probability == F(4, 5)


def test_kappa_bound_passthrough(ex1):
    g = discrete_gradients(ex1)
    report = witness_params(g, canonical_dual(ex1, 4), lipschitz=2, strong_convexity=2)
    assert report.kappa_bound == 1


def test_zero_spacing_rejected():
    f = fixtures.constant(0, n=4)
    g = discrete_gradients(f)
    with pytest.raises(ZeroSpacing):
        witness_params(g, canonical_dual(f, 2))


def test_floor_formula_can_undercount_on_misaligned_gradients():
    # gradient jumps 0.9 / 1.2 / 0.9 against spacing 1: the middle interval
    # holds two dual points although floor(1.2/1) = 1
    g = GradientVector(c=(F(0), F(9, 10), F(21, 10), F(3)), grid=fixtures.unit_grid(5))
    dual = regular_dual_grid((F(0), F(3)), 4)
    report = witness_params(g, dual)
    assert report.w_floor == 1
    assert report.w == 2  # direct count is authoritative


def test_floor_formula_can_overcount_on_flat_top():
    # top gradient repeats, so the last dual point is pinned to the boundary
    g = GradientVector(c=(F(0), F(1), F(1)), grid=fixtures.unit_grid(4))
    dual = regular_dual_grid((F(0), F(1)), 3)
    report = witness_params(g, dual)
    assert report.w_floor == 2
    assert report.w == 1


gradient_words = st.builds(F, st.integers(-(10**9), 10**9), st.sampled_from([1, 6, 1009, 2**61 - 1]))


@given(
    c=st.lists(gradient_words, min_size=2, max_size=10).map(sorted),
    s0=gradient_words,
    gamma_s=st.builds(F, st.integers(1, 10**6), st.integers(1, 10**6)).filter(lambda v: v != 1),
    k=st.integers(1, 12),
)
@settings(max_examples=200, deadline=None)
def test_w_floor_is_the_floor_of_the_reduced_jumps(c, s0, gamma_s, k):
    g = GradientVector(c=tuple(c), grid=fixtures.unit_grid(len(c) + 1))
    report = witness_params(g, DualGrid(s0=s0, gamma_s=gamma_s, k=k))
    assert report.w_floor == max(floor((b - a) / gamma_s) for a, b in zip(c, c[1:]))


class TestAcceptanceSet:
    def test_boundary_slots(self, ex3):
        g = discrete_gradients(ex3)
        dual = canonical_dual(ex3, 5)
        assert in_acceptance_set(0, 0, g, dual)
        assert not in_acceptance_set(0, 1, g, dual)
        assert in_acceptance_set(4, 0, g, dual)

    def test_ex3_member_count_equals_k(self, ex3):
        g = discrete_gradients(ex3)
        dual = canonical_dual(ex3, 5)
        w = witness_params(g, dual).w
        members = [
            (i, m)
            for i in range(g.n)
            for m in range(w)
            if in_acceptance_set(i, m, g, dual)
        ]
        assert len(members) == dual.k == 5

    def test_index_bounds(self, ex3):
        g = discrete_gradients(ex3)
        dual = canonical_dual(ex3, 5)
        with pytest.raises(IndexOutOfRange):
            in_acceptance_set(-1, 0, g, dual)
        with pytest.raises(IndexOutOfRange):
            dual_index(5, 0, g, dual)
        with pytest.raises(IndexOutOfRange):
            dual_index(0, -1, g, dual)

    def test_branch_values(self, ex3):
        g = discrete_gradients(ex3)
        dual = canonical_dual(ex3, 5)
        assert dual_index(0, 0, g, dual) == 0
        assert dual_index(g.n - 1, 0, g, dual) == dual.k - 1
        assert dual_index(2, 0, g, dual) is None  # flat piece owns no dual point

    def test_bijection_and_composition(self, ex3):
        g = discrete_gradients(ex3)
        dual = canonical_dual(ex3, 5)
        w = witness_params(g, dual).w
        mapping = {
            (i, m): dual_index(i, m, g, dual)
            for i in range(g.n)
            for m in range(w)
            if in_acceptance_set(i, m, g, dual)
        }
        assert sorted(mapping.values()) == list(range(dual.k))
        assignment = optimizer_map(g, dual)
        for (i, _), j in mapping.items():
            assert assignment[j] == i

    def test_bijection_random_instances(self, rng):
        for _ in range(25):
            f = fixtures.random_convex_spec(rng, rng.randint(3, 10))
            g = discrete_gradients(f)
            dual = canonical_dual(f, rng.randint(2, 14))
            if dual.gamma_s == 0:
                continue
            w = witness_params(g, dual).w
            js = [
                dual_index(i, m, g, dual)
                for i in range(g.n)
                for m in range(w)
                if in_acceptance_set(i, m, g, dual)
            ]
            assert sorted(js) == list(range(dual.k))
