import random
from fractions import Fraction as F

import pytest

from lftlab import fixtures
from lftlab.errors import NotPowerOfTwo
from lftlab.grids import FunctionSpec
from lftlab.multi import TensorGrid, TensorSamples, canonical_nd_dual_grids
from lftlab.qlft import conjugate_pairs, run_qlft_1d_adaptive, run_qlft_1d_regular
from lftlab.qlft_nd import MATCH, MISMATCH, run_qlft_nd_adaptive, run_qlft_nd_regular

from test_multi import as_tensor_1d, random_convex_tensor


class TestSeparableRegular:
    def test_kappa_one_perfect_acceptance_and_match(self):
        f = fixtures.separable_sum("quadratic-ex1", d=2, n=4)
        run = run_qlft_nd_regular(f, ks=(4, 4), rng_seed=11)
        assert run.pass_acceptances == (F(1), F(1))
        assert run.success_probability == 1
        assert run.attempts == 1
        assert run.verification.status == MATCH

    def test_values_equal_oracle(self):
        f = fixtures.separable_sum("quadratic-ex1", d=2, n=4)
        run = run_qlft_nd_regular(f, ks=(4, 4), rng_seed=11)
        from lftlab.multi import lft_nd_regular

        duals = canonical_nd_dual_grids(f, (4, 4))
        classical = lft_nd_regular(f, duals)
        got = {lab.get("j"): lab.get("fstar") for lab, _ in run.final_state.entries}
        for idx in classical.values.indices():
            assert got[idx] == classical.values.get(idx)


def _separable_4x4():
    """x^2 + 3y^2 on the 4x4 unit grid: the axes have different dual points."""
    grid = TensorGrid(axes=(fixtures.unit_grid(4), fixtures.unit_grid(4)))
    return TensorSamples.from_function(grid, lambda x, y: x * x + 3 * y * y)


class TestRegisterLayout:
    STEPS = (("superposition", 16), ("pass-axis1", 16), ("pass-axis0", 16), ("negate", 16))

    def test_regular_final_registers(self):
        run = run_qlft_nd_regular(_separable_4x4(), ks=(4, 4), rng_seed=3)
        assert tuple((s.name, s.label_count) for s in run.step_trace) == self.STEPS
        duals = run.verification.dual_grids
        assert duals[0].points() != duals[1].points()
        for lab, _ in run.final_state.entries:
            assert lab.reg_names() == ("j", "fstar", "s")
            assert tuple(k for k, _ in lab.garbage) == ("i1", "m1", "i0", "m0")
            j = lab.get("j")
            assert lab.get("s") == (duals[0].point(j[0]), duals[1].point(j[1]))

    def test_adaptive_final_registers(self):
        run = run_qlft_nd_adaptive(_separable_4x4())
        assert tuple((s.name, s.label_count) for s in run.step_trace) == self.STEPS
        xs = fixtures.unit_grid(4).points()
        per_axis = [
            run_qlft_1d_adaptive(FunctionSpec(fixtures.unit_grid(4), tuple(c * x * x for x in xs)))
            for c in (1, 3)
        ]
        s_of = [tuple(lab.get("s") for lab, _ in one.final_state.entries) for one in per_axis]
        assert s_of[0] != s_of[1]
        for lab, _ in run.final_state.entries:
            assert lab.reg_names() == ("j", "fstar", "s")
            assert tuple(k for k, _ in lab.garbage) == ("i1", "i0")
            j = lab.get("j")
            assert lab.get("s") == (s_of[0][j[0]], s_of[1][j[1]])


class TestStepNorms:
    def test_every_step_of_a_completed_run_has_norm_one(self):
        runs = [run_qlft_nd_adaptive(_separable_4x4())]
        for seed in range(12):
            local = random.Random(seed)
            f = fixtures.random_convex_quadratic_nd(local, d=local.choice([2, 3]), n=4, coupling=2)
            runs.append(run_qlft_nd_adaptive(f))
            runs.append(run_qlft_nd_regular(f, ks=(4,) * f.d, rng_seed=seed))
        completed = [run for run in runs if run.final_state is not None]
        assert len(completed) > len(runs) // 2
        for run in completed:
            assert run.step_trace[-1].name == "negate"
            assert all(s.norm_sq == 1 for s in run.step_trace)


class TestStrictPow2:
    def test_rejects_non_power_of_two_grid_and_dual_sizes(self):
        five = fixtures.separable_sum("quadratic-ex1", d=2, n=5)
        four = fixtures.separable_sum("quadratic-ex1", d=2, n=4)
        with pytest.raises(NotPowerOfTwo, match="N0 = 5"):
            run_qlft_nd_regular(five, ks=(4, 4), strict_pow2=True)
        with pytest.raises(NotPowerOfTwo, match="N0 = 5"):
            run_qlft_nd_adaptive(five, strict_pow2=True)
        with pytest.raises(NotPowerOfTwo, match="K1 = 6"):
            run_qlft_nd_regular(four, ks=(4, 6), strict_pow2=True)
        assert run_qlft_nd_regular(five, ks=(4, 6)).verification is not None
        assert run_qlft_nd_regular(four, ks=(4, 4), strict_pow2=True).verification.status == MATCH
        assert run_qlft_nd_adaptive(four, strict_pow2=True).verification.status == MATCH


class TestD1Reduction:
    def test_regular_matches_1d_run(self, ex3):
        t = as_tensor_1d(ex3)
        nd = run_qlft_nd_regular(t, ks=(5,), rng_seed=21)
        one = run_qlft_1d_regular(ex3, 5, rng_seed=21)
        assert nd.success_probability == one.success_probability == F(1, 2)
        nd_pairs = sorted(
            (lab.get("j")[0], lab.get("fstar")) for lab, _ in nd.final_state.entries
        )
        assert tuple(nd_pairs) == conjugate_pairs(one)
        assert nd.verification.status == MATCH

    def test_adaptive_matches_1d_run(self, ex1):
        t = as_tensor_1d(ex1)
        nd = run_qlft_nd_adaptive(t)
        one = run_qlft_1d_adaptive(ex1)
        nd_vals = tuple(lab.get("fstar") for lab, _ in nd.final_state.entries)
        one_vals = tuple(lab.get("fstar") for lab, _ in one.final_state.entries)
        assert nd_vals == one_vals
        assert nd.verification.status == MATCH


class TestVerificationReporting:
    def test_reports_always_produced(self, rng):
        statuses = []
        for seed in range(25):
            local = random.Random(seed)
            f = fixtures.random_convex_quadratic_nd(
                local, d=2, n=4, coupling=local.choice([1, 2, 3])
            )
            try:
                run = run_qlft_nd_regular(f, ks=(4, 4), rng_seed=seed)
            except Exception as exc:  # only the convexity guard may fire
                from lftlab.errors import NonConvexSlice

                assert isinstance(exc, NonConvexSlice)
                continue
            assert run.verification is not None
            assert run.verification.rng_seed == seed
            statuses.append(run.verification.status)
        assert statuses, "no instance produced a report"
        assert set(statuses) <= {MATCH, MISMATCH}

    def test_mismatch_records_detail(self):
        # strongly coupled quadratic: the neighbor-row shortcut goes wrong
        found = None
        for seed in range(60):
            local = random.Random(seed)
            f = fixtures.random_convex_quadratic_nd(local, d=2, n=4, coupling=3)
            try:
                run = run_qlft_nd_regular(f, ks=(4, 4), rng_seed=seed)
            except Exception:
                continue
            if run.verification.status == MISMATCH:
                found = run
                break
        assert found is not None, "expected at least one mismatching instance"
        v = found.verification
        assert v.missing or v.extra or v.value_mismatches

    def test_aborted_pass_is_reported_not_raised(self):
        # K < N leaves many indices without dual points; the neighbor-slot
        # condition then rejects every branch on some instances
        aborted = None
        for seed in range(80):
            local = random.Random(seed)
            f = fixtures.random_convex_quadratic_nd(local, d=2, n=8, coupling=1)
            try:
                run = run_qlft_nd_regular(f, ks=(4, 4), rng_seed=seed)
            except Exception:
                continue
            if run.final_state is None:
                aborted = run
                break
        assert aborted is not None
        assert aborted.success_probability == 0
        last = aborted.step_trace[-1]
        assert last.name.startswith("pass-axis") and last.acceptance == 0
        assert last.label_count == 0 and last.norm_sq == 0
        assert all(s.norm_sq == 1 for s in aborted.step_trace[:-1])
        assert aborted.verification.status == MISMATCH
        assert aborted.verification.missing  # everything is missing

    def test_aborted_run_verifies_on_the_cascade_grids(self):
        # the fill-in cascade must apply the aborted axis before deriving
        # later brackets: this 3x3 instance aborts its first pass (k=2 never
        # reaches the middle index, so the neighbor-slot condition rejects
        # everything) and its axis-0 gradient minimum sits only in the middle
        # column, so skipping the axis-1 transform would widen the bracket
        from lftlab.multi import RatTensor, TensorGrid, TensorSamples
        from lftlab.multi import axis_bracket, axis_transform
        from lftlab.transform import regular_dual_grid

        grid = TensorGrid(axes=(fixtures.unit_grid(3), fixtures.unit_grid(3)))
        vals = tuple(map(F, (0, 0, 1, 1, 0, 2, 3, 1, 4)))
        f = TensorSamples(grid=grid, values=RatTensor((3, 3), vals))
        run = run_qlft_nd_regular(f, ks=(2, 2), rng_seed=0)
        assert run.final_state is None
        assert run.pass_acceptances == (F(0),)
        t = f.values
        expected = [None, None]
        for axis in (1, 0):
            bracket = axis_bracket(t, axis, grid.gamma)
            expected[axis] = regular_dual_grid(bracket, 2)
            t = axis_transform(t, axis, grid.axes[axis], expected[axis], check_convex=False)
        assert run.verification.dual_grids == tuple(expected)
        assert run.verification.dual_grids[0].points() == (F(2), F(4))
        # the untransformed tensor would have given (0, 4) instead
        assert axis_bracket(f.values, 0, grid.gamma) == (F(0), F(4))

    def test_nonconvex_intermediate_line_runs_unchecked(self):
        # a coupled quadratic whose axis-1 pass leaves axis-0 lines discretely
        # nonconvex: the checked cascade refuses it, while the simulator runs
        # the same cascade unchecked and reports what the gate culled
        from lftlab.errors import NonConvexSlice
        from lftlab.multi import RatTensor, TensorGrid, TensorSamples

        vals = (
            "0 1/16 5/4 57/16 7 7/16 1 43/16 11/2 151/16 5/4 37/16 9/2 125/16 "
            "49/4 39/16 4 107/16 21/2 247/16 4 97/16 37/4 217/16 19"
        ).split()
        grid = TensorGrid(axes=(fixtures.unit_grid(5), fixtures.unit_grid(5)))
        f = TensorSamples(grid=grid, values=RatTensor((5, 5), tuple(map(F, vals))))
        f.require_convex_axes()
        with pytest.raises(NonConvexSlice, match=r"axis 0 line at \(2,\)"):
            canonical_nd_dual_grids(f, (5, 5))
        run = run_qlft_nd_regular(f, ks=(5, 5), rng_seed=0)
        v = run.verification
        assert v.status == MISMATCH
        assert not v.extra and not v.value_mismatches
        assert v.missing == (
            (0, 0), (0, 1), (0, 4), (1, 0), (1, 4), (2, 1),
            (2, 4), (3, 1), (3, 4), (4, 1), (4, 3), (4, 4),
        )
        assert run.pass_acceptances == (F(13, 50), F(1, 3))
        axis0 = (F(7, 4), F(39, 8), F(8), F(89, 8), F(57, 4))
        axis1 = (F(1, 4), F(45, 8), F(11), F(131, 8), F(87, 4))
        assert tuple(g.points() for g in v.dual_grids) == (axis0, axis1)


class TestAdaptiveNd:
    def test_separable_match(self):
        f = fixtures.separable_sum("quadratic-ex1", d=2, n=4)
        run = run_qlft_nd_adaptive(f)
        assert run.success_probability == 1
        assert run.attempts == 1
        assert run.verification.status == MATCH

    def test_fenchel_young_equality_per_label(self, rng):
        f = random_convex_tensor(rng, d=2, n=4, coupling=2)
        run = run_qlft_nd_adaptive(f)
        for lab, _ in run.final_state.entries:
            idx = lab.get("j")
            s = lab.get("s")
            x = f.grid.point(idx)
            assert f.values.get(idx) + lab.get("fstar") == sum(
                a * b for a, b in zip(s, x)
            )

    def test_deterministic(self):
        f = fixtures.separable_sum("pwl-ex3", d=2, n=5)
        assert run_qlft_nd_adaptive(f) == run_qlft_nd_adaptive(f)


class TestAcceptanceStatisticsNd:
    def test_per_pass_ratio_is_exact_count_ratio(self, rng):
        f = random_convex_tensor(rng, d=2, n=4, coupling=1)
        run = run_qlft_nd_regular(f, ks=(4, 4), rng_seed=0)
        for p in run.pass_acceptances:
            assert 0 <= p <= 1
        # empirical acceptance of the whole run over seeded trials
        p = run.success_probability
        if 0 < p < 1:
            trials = 10_000
            from lftlab.qlft import first_attempt_successes

            hits = first_attempt_successes(p, trials, seed=77)
            sigma = (float(p) * (1 - float(p)) / trials) ** 0.5
            assert abs(hits / trials - float(p)) <= 3 * sigma
