from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from lftlab import fixtures
from lftlab import hardness
from lftlab.errors import RecoveryFailed, ZeroXi
from lftlab.grids import DualGrid, FunctionSpec, RegularGrid
from lftlab.hardness import (
    HiddenStringInstance,
    recover_via_point_queries,
    recover_via_sampling,
    rescale_instance,
    rescaling_checks,
    sample_conjugate_pair,
)
from lftlab.multi import lft_nd_brute
from lftlab.transform import discrete_gradients, lft_regular, nontrivial_dual_range

from conftest import canonical_dual, raises_exactly


class TestPointQueries:
    def test_d3_example(self):
        inst = HiddenStringInstance.for_point_queries((1, 0, 1))
        assert recover_via_point_queries(inst) == (1, 0, 1)
        assert inst.query_counter == 3 * 8

    def test_d1(self):
        inst = HiddenStringInstance.for_point_queries((0,))
        assert recover_via_point_queries(inst) == (0,)

    def test_d8_random_exact_recovery(self, rng):
        z = tuple(rng.randint(0, 1) for _ in range(8))
        inst = HiddenStringInstance.for_point_queries(z)
        assert recover_via_point_queries(inst) == z
        assert inst.query_counter == 8 * 2**8

    def test_all_strings_small_d(self):
        for d in (1, 2, 3, 4):
            for bits in range(2**d):
                z = tuple((bits >> i) & 1 for i in range(d))
                inst = HiddenStringInstance.for_point_queries(z)
                assert recover_via_point_queries(inst) == z
                assert inst.query_counter == d * 2**d

    def test_counter_monotone(self):
        inst = HiddenStringInstance.for_point_queries((1, 1))
        before = inst.query_counter
        inst.evaluate((0, 0))
        assert inst.query_counter == before + 1

    @pytest.mark.parametrize("value", [F(1, 2), F(1)])
    def test_broken_identity_raises(self, monkeypatch, value):
        # a non-bit conjugate value, or a bit that disagrees with z, is an
        # explicit error (it must not vanish under python -O)
        fake = SimpleNamespace(values=SimpleNamespace(flat=(value,)))
        monkeypatch.setattr(hardness, "lft_nd_brute", lambda samples, duals: fake)
        with pytest.raises(RecoveryFailed):
            recover_via_point_queries(HiddenStringInstance.for_point_queries((0,)))


def _distance(inst, x):
    """The oracle's definition, scale * max_i |x_i - z_i|, in Fractions."""
    return inst.scale * max(abs(F(xi) - zi) for xi, zi in zip(x, inst.z))


class TestOracle:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_every_vertex_as_tuple_and_list(self, d):
        vertices = [tuple((bits >> i) & 1 for i in range(d)) for bits in range(2**d)]
        for z in vertices:
            for scale in (F(1), F(2) ** d, F(3, 7)):
                inst = HiddenStringInstance(z=z, scale=scale)
                for x in vertices:
                    for point in (x, list(x)):
                        before = inst.query_counter
                        value = inst.evaluate(point)
                        assert inst.query_counter == before + 1
                        assert isinstance(value, F)
                        assert value == _distance(inst, x) == (0 if x == z else scale)

    @pytest.mark.parametrize(
        "x",
        [
            (F(1, 2), 0, 1),
            (0.5, 1, 0),
            (2, 0, 1),
            (-1, 1, 1),
            (1, 0, -1),
            (F(1), 0, 1),
            (1.0, 0.0, 1.0),
            (True, False, True),
            (1, 0),  # zip reads the shorter point's coordinates only
            (1, 0, 1, 1),
        ],
    )
    def test_other_points_keep_the_formula(self, x):
        for scale in (F(1), F(8), F(3, 7)):
            inst = HiddenStringInstance(z=(1, 0, 1), scale=scale)
            assert inst.evaluate(x) == _distance(inst, x)
            assert inst.query_counter == 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: HiddenStringInstance(z=()), "hidden string must be a nonempty 0/1 tuple"),
        (lambda: HiddenStringInstance(z=(0, 2)), "hidden string must be a nonempty 0/1 tuple"),
        (
            lambda: recover_via_point_queries(HiddenStringInstance.for_sampling((1, 0))),
            "point-query recovery expects the unscaled instance",
        ),
        (
            lambda: sample_conjugate_pair(HiddenStringInstance.for_point_queries((1, 0))),
            "sampling expects the 2^d-scaled instance",
        ),
    ],
    ids=["empty-z", "z-not-bits", "point-queries-scaled", "sampling-unscaled"],
)
def test_an_instance_check_raises_its_message(build, message):
    raises_exactly(build, ValueError, message)


class TestSampling:
    def test_zero_string_gives_zero(self):
        inst = HiddenStringInstance.for_sampling((1, 0, 1))
        for seed in range(50):
            s, v = sample_conjugate_pair(inst, rng_seed=seed)
            if s == (0, 0, 0):
                assert v == 0
                return
        pytest.skip("all-zero dual never drawn")

    def test_identity_against_brute(self, rng):
        z = (1, 0, 1)
        inst = HiddenStringInstance.for_sampling(z)
        samples = inst.sample_tensor()
        for seed in range(10):
            s, v = sample_conjugate_pair(inst, rng_seed=seed)
            brute = lft_nd_brute(samples, [s]).values.flat[0]
            assert v == brute == sum(a * b for a, b in zip(z, s))

    def test_uniform_distribution_3sigma(self):
        d = 3
        inst = HiddenStringInstance.for_sampling(tuple([1] * d))
        trials = 10_000
        counts: dict = {}
        for seed in range(trials):
            s, _ = sample_conjugate_pair(inst, rng_seed=seed)
            counts[s] = counts.get(s, 0) + 1
        p = 1 / 2**d
        sigma = (p * (1 - p) * trials) ** 0.5
        for s, c in counts.items():
            assert abs(c - trials * p) <= 3 * sigma, (s, c)

    def test_recovery_rate_d4_t6(self):
        z = (1, 0, 1, 1)
        successes = 0
        for seed in range(500):
            inst = HiddenStringInstance.for_sampling(z)
            out = recover_via_sampling(inst, t=6, rng_seed=seed * 997)
            if out.success:
                assert out.recovered == z
                successes += 1
        assert successes / 500 >= 1 - 2**-6 - 0.03

    def test_d8_recovery_exact_on_success(self, rng):
        z = tuple(rng.randint(0, 1) for _ in range(8))
        inst = HiddenStringInstance.for_sampling(z)
        hits = 0
        for seed in range(30):
            out = recover_via_sampling(inst, t=10, rng_seed=seed * 1013)
            if out.success:
                assert out.recovered == z
                hits += 1
        assert hits >= 25

    def test_d1_t0_single_equation(self):
        # s=1 draws recover z immediately; s=0 draws are rank deficient
        inst = HiddenStringInstance.for_sampling((1,))
        saw = set()
        for seed in range(40):
            s, _ = sample_conjugate_pair(inst, rng_seed=seed)
            out = recover_via_sampling(inst, t=0, rng_seed=seed)
            saw.add(s)
            if s == (1,):
                assert out.success and out.recovered == (1,)
            else:
                assert not out.success and out.rank == 0
        assert saw == {(0,), (1,)}

    @pytest.mark.parametrize("t", [-1, -10])
    def test_negative_t_rejected(self, t):
        inst = HiddenStringInstance.for_sampling((1, 0, 1, 1))
        with pytest.raises(ValueError, match="t >= 0"):
            recover_via_sampling(inst, t=t)

    def test_rank_deficient_is_failure_outcome(self):
        inst = HiddenStringInstance.for_sampling((1, 0))
        # t=0 with d=2: some seeds draw dependent rows
        outcomes = [recover_via_sampling(inst, t=0, rng_seed=s) for s in range(200)]
        failures = [o for o in outcomes if not o.success]
        assert failures, "expected occasional rank deficiency"
        for o in failures:
            assert o.recovered is None
            assert o.rank < 2


class TestRescaling:
    def test_ex3_w_invariant(self, ex3):
        dual = canonical_dual(ex3, 5)
        checks = rescaling_checks(rescale_instance(ex3, dual))
        assert checks["w"] == checks["w_rescaled"] == 2
        assert checks["mapping_exact"]
        assert checks["xi"] == 2

    def test_already_normalized_identity(self):
        grid = RegularGrid(x0=F(0), gamma=F(1), n=4)
        # gradients 0,1,2: xi = 1 on a unit grid
        f = FunctionSpec(grid=grid, samples=(F(0), F(0), F(1), F(3)))
        dual = canonical_dual(f, 3)
        r = rescale_instance(f, dual)
        assert r.xi == 1 and r.value_scale == 1
        assert r.rescaled.samples == f.samples
        assert r.rescaled_dual.points() == dual.points()

    def test_value_scale_is_xi_on_unit_grids(self, rng):
        for _ in range(20):
            n = rng.randint(4, 10)
            grid = RegularGrid(x0=F(0), gamma=F(1), n=n)
            base = fixtures.random_convex_spec(rng, n)
            f = FunctionSpec(grid=grid, samples=base.samples)
            dual = canonical_dual(f, rng.randint(3, 9))
            if dual.gamma_s == 0:
                continue
            try:
                r = rescale_instance(f, dual)
            except ZeroXi:
                continue
            assert r.value_scale == r.xi
            checks = rescaling_checks(r)
            assert checks["w_invariant"] and checks["mapping_exact"]

    def test_mapping_exact_on_random_grids(self, rng):
        for _ in range(25):
            f = fixtures.random_convex_spec(rng, rng.randint(4, 10))
            dual = canonical_dual(f, rng.randint(3, 9))
            if dual.gamma_s == 0:
                continue
            try:
                r = rescale_instance(f, dual)
            except ZeroXi:
                continue
            checks = rescaling_checks(r)
            assert checks["w_invariant"]
            assert checks["mapping_exact"]
            orig = lft_regular(f, dual)
            resc = lft_regular(r.rescaled, r.rescaled_dual)
            for ov, rv in zip(orig.values, resc.values):
                assert ov == r.value_scale * rv

    def test_explicit_grids_keep_w_and_map_values_exactly(self, ex3, rng):
        # ex3's gradient range is [0, 1]; points outside it are clamped
        cases = [(ex3, DualGrid.from_points([-1, 0, F(1, 3), F(1, 2), F(3, 4), 1, 2]))]
        for _ in range(10):
            f = fixtures.random_convex_spec(rng, rng.randint(4, 10))
            lo, hi = nontrivial_dual_range(discrete_gradients(f))
            points = sorted(lo + (hi - lo) * F(rng.randint(-2, 12), 10) for _ in range(rng.randint(1, 8)))
            cases.append((f, DualGrid.from_points(points)))
        for f, dual in cases:
            try:
                r = rescale_instance(f, dual)
            except ZeroXi:
                continue
            s_scale = r.xi * f.grid.gamma
            assert r.rescaled_dual == DualGrid.from_points([p / s_scale for p in dual.points()])
            checks = rescaling_checks(r)
            assert checks["w"] == checks["w_rescaled"] >= 1
            assert checks["w_invariant"] and checks["mapping_exact"]
            orig = lft_regular(f, dual, clamp=True).values
            resc = lft_regular(r.rescaled, r.rescaled_dual, clamp=True).values
            assert orig == tuple(r.value_scale * v for v in resc)
        assert rescaling_checks(rescale_instance(*cases[0]))["w"] == 2

    def test_float_samples_map_exactly(self):
        floats = FunctionSpec(RegularGrid(0, F(1, 3), 4), (0.0, 0.1, 0.3, 0.7))
        exact = FunctionSpec(floats.grid, tuple(map(F, floats.samples)))
        dual = canonical_dual(floats, 5)
        r = rescale_instance(floats, dual)
        assert r.rescaled == rescale_instance(exact, dual).rescaled
        assert all(type(v) is F for v in r.rescaled.samples)
        assert rescaling_checks(r)["mapping_exact"]

    def test_affine_rejected(self):
        grid = RegularGrid(x0=F(0), gamma=F(1, 2), n=4)
        f = FunctionSpec(grid=grid, samples=(F(0), F(1), F(2), F(3)))
        dual = canonical_dual(f, 3)
        with pytest.raises(ZeroXi):
            rescale_instance(f, dual)
