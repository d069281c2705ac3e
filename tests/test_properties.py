"""Property suites over randomly drawn convex instances."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from conftest import rule_index
from lftlab import fixtures, lft_brute
from lftlab.grids import FunctionSpec
from lftlab.qlft import (
    attach_gradients,
    finalize_conjugate,
    indicator_postselect,
    prepare_superposition,
    run_qlft_1d_regular,
)
from lftlab.transform import (
    DegenerateGrid,
    discrete_gradients,
    double_transform,
    lft_adaptive,
    lft_regular,
    nontrivial_dual_range,
    optimizer_map,
    regular_dual_grid,
)
from lftlab.witness import dual_index, in_acceptance_set, witness_params


@st.composite
def convex_specs(draw, min_n=3, max_n=10):
    n = draw(st.integers(min_n, max_n))
    denom = draw(st.sampled_from([2, 3, 4, 8]))
    start = F(draw(st.integers(-3 * denom, 3 * denom)), denom)
    increments = draw(
        st.lists(st.integers(0, 2 * denom), min_size=n - 2, max_size=n - 2)
    )
    c = [start]
    for inc in increments:
        c.append(c[-1] + F(inc, denom))
    grid = fixtures.unit_grid(n)
    samples = [F(draw(st.integers(-denom, denom)), denom)]
    for ci in c:
        samples.append(samples[-1] + grid.gamma * ci)
    return FunctionSpec(grid=grid, samples=tuple(samples))


def nondegenerate_dual(f, k):
    g = discrete_gradients(f)
    dual = regular_dual_grid(nontrivial_dual_range(g), k)
    return g, dual


@given(f=convex_specs(), k=st.integers(2, 12))
@settings(max_examples=120, deadline=None)
def test_fenchel_young_nonneg_with_equality_at_assignment(f, k):
    g, dual = nondegenerate_dual(f, k)
    res = lft_regular(f, dual)
    xs = f.grid.points()
    for j in range(dual.k):
        s = dual.point(j)
        slack_at_opt = None
        for i in range(f.n):
            slack = f.samples[i] + res.values[j] - s * xs[i]
            assert slack >= 0
            if i == res.optimizer_index[j]:
                slack_at_opt = slack
        assert slack_at_opt == 0


@given(f=convex_specs(), k=st.integers(2, 12))
@settings(max_examples=120, deadline=None)
def test_oracle_equivalence(f, k):
    _, dual = nondegenerate_dual(f, k)
    assert lft_regular(f, dual).values == lft_brute(f, dual).values


@given(f=convex_specs(), k=st.integers(2, 12))
@settings(max_examples=100, deadline=None)
def test_monotone_assignment(f, k):
    g, dual = nondegenerate_dual(f, k)
    idx = optimizer_map(g, dual)
    assert all(a <= b for a, b in zip(idx, idx[1:]))


@given(f=convex_specs(), k=st.integers(2, 12))
@settings(max_examples=100, deadline=None)
def test_single_point_assignment_matches_batch(f, k):
    g, dual = nondegenerate_dual(f, k)
    batch = optimizer_map(g, dual)
    assert batch == tuple(rule_index(g.c, s) for s in dual.points())


@given(f=convex_specs(), k=st.integers(3, 12))
@settings(max_examples=100, deadline=None)
def test_conjugate_discretely_convex(f, k):
    _, dual = nondegenerate_dual(f, k)
    if dual.gamma_s == 0:
        return
    v = lft_regular(f, dual).values
    for j in range(1, len(v) - 1):
        assert v[j + 1] - 2 * v[j] + v[j - 1] >= 0


@given(f=convex_specs(), k=st.integers(2, 10))
@settings(max_examples=80, deadline=None)
def test_acceptance_bijection_and_composition(f, k):
    g, dual = nondegenerate_dual(f, k)
    if dual.gamma_s == 0:
        return
    w = witness_params(g, dual).w
    mapping = {}
    for i in range(g.n):
        for m in range(w):
            if in_acceptance_set(i, m, g, dual):
                mapping[(i, m)] = dual_index(i, m, g, dual)
            else:
                assert dual_index(i, m, g, dual) is None
    assert sorted(mapping.values()) == list(range(dual.k))
    assignment = optimizer_map(g, dual)
    for (i, _m), j in mapping.items():
        assert assignment[j] == i


@given(f=convex_specs(), k=st.integers(2, 10))
@settings(max_examples=60, deadline=None)
def test_success_probability_in_unit_interval(f, k):
    g, dual = nondegenerate_dual(f, k)
    if dual.gamma_s == 0:
        return
    report = witness_params(g, dual)
    assert report.w >= 1
    assert 0 < report.success_probability <= 1
    assert report.success_probability == F(dual.k, f.n * report.w)


@given(f=convex_specs(), k=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_every_simulator_step_preserves_norm(f, k, seed):
    _, dual = nondegenerate_dual(f, k)
    state = prepare_superposition(f)
    assert state.norm_sq() == 1
    state = attach_gradients(state)
    assert state.norm_sq() == 1
    state, _ = indicator_postselect(state, dual, rng_seed=seed)
    assert state.norm_sq() == 1
    state = finalize_conjugate(state, dual)
    assert state.norm_sq() == 1


@given(f=convex_specs(), k=st.integers(2, 8), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_seed_determinism_of_runs(f, k, seed):
    assert run_qlft_1d_regular(f, k, rng_seed=seed) == run_qlft_1d_regular(
        f, k, rng_seed=seed
    )


@given(f=convex_specs(min_n=4))
@settings(max_examples=60, deadline=None)
def test_double_transform_below_original(f):
    try:
        second = double_transform(f)
    except DegenerateGrid:
        return
    by_point = dict(zip(f.grid.points(), f.samples))
    for s, v in second.pairs():
        if s in by_point:
            assert v <= by_point[s]


@given(f=convex_specs(), variant=st.sampled_from(["centered", "right", "left"]))
@settings(max_examples=80, deadline=None)
def test_adaptive_identity_assignment_is_optimal(f, variant):
    res = lft_adaptive(f, variant)
    assert res.values == lft_brute(f, res.dual).values


@given(f=convex_specs())
@settings(max_examples=80, deadline=None)
def test_instance_documents_round_trip(f):
    from lftlab.io import parse_instance, serialize_instance

    doc = serialize_instance(f)
    again = parse_instance(doc)
    assert again == f
    assert serialize_instance(again) == doc


@given(f=convex_specs(), k=st.integers(2, 10))
@settings(max_examples=120, deadline=None)
def test_w_floor_cross_check_within_one(f, k):
    # per gradient interval the direct count differs from floor(jump/gamma_s)
    # by at most one (lattice alignment up, boundary pinning down), so the
    # maxima stay within one of each other
    g, dual = nondegenerate_dual(f, k)
    if dual.gamma_s == 0:
        return
    report = witness_params(g, dual)
    assert report.w_floor is not None
    assert abs(report.w - report.w_floor) <= 1
