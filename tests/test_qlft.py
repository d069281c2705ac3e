import random
from fractions import Fraction as F

import pytest

from lftlab import fixtures
from lftlab.errors import (
    AllZeroValues,
    DegenerateGrid,
    EmptyAcceptance,
    MalformedState,
    NonConvexInput,
    NotPowerOfTwo,
)
from lftlab.grids import DualGrid, FunctionSpec, RegularGrid
from lftlab.qlft import (
    attach_gradients,
    conjugate_pairs,
    digital_to_analog,
    finalize_conjugate,
    geometric_attempts,
    indicator_postselect,
    prepare_superposition,
    retry_totals,
    run_qlft_1d_adaptive,
    run_qlft_1d_regular,
)
from lftlab.qstate import UNDEFINED, QState, label
from lftlab.transform import (
    discrete_gradients,
    lft_adaptive,
    lft_regular,
    optimizer_map,
)

from conftest import canonical_dual, first_attempt_successes, reg_names


def ex1_first_four():
    grid = RegularGrid(x0=F(0), gamma=F(1, 4), n=4)
    return FunctionSpec(
        grid=grid, samples=tuple(fixtures.ex1_function(grid.point(i)) for i in range(4))
    )


class TestPrepare:
    def test_uniform_amplitudes_n4(self):
        state = prepare_superposition(fixtures.constant(0, n=4))
        assert len(state) == 4
        for _, amp in state.entries:
            assert amp.sq == F(1, 4)  # amplitude 1/2 each
        assert state.norm_sq() == 1

    def test_interior_label_carries_neighbors(self):
        state = prepare_superposition(ex1_first_four())
        lab = next(l for l, _ in state.entries if l.get("i") == 1)
        assert (lab.get("f_prev"), lab.get("f"), lab.get("f_next")) == (
            F(1, 2),
            F(3, 8),
            F(3, 8),
        )

    def test_boundary_sentinels(self, ex1):
        state = prepare_superposition(ex1)
        first = next(l for l, _ in state.entries if l.get("i") == 0)
        last = next(l for l, _ in state.entries if l.get("i") == 4)
        assert first.get("x_prev") == UNDEFINED
        assert first.get("f_prev") == UNDEFINED
        assert last.get("x_next") == UNDEFINED

    def test_norm_exact_on_random_instance(self, rng):
        f = fixtures.random_convex_spec(rng, 7)
        assert prepare_superposition(f).norm_sq() == 1

    def test_strict_pow2(self, ex1):
        # the runs check N and K before they prepare the superposition
        with pytest.raises(NotPowerOfTwo, match="N = 5"):
            run_qlft_1d_regular(ex1, 4, strict_pow2=True)
        with pytest.raises(NotPowerOfTwo, match="N = 5"):
            run_qlft_1d_adaptive(ex1, strict_pow2=True)
        four = ex1_first_four()
        with pytest.raises(NotPowerOfTwo, match="K = 5"):
            run_qlft_1d_regular(four, 5, strict_pow2=True)
        assert run_qlft_1d_regular(four, 4, strict_pow2=True) == run_qlft_1d_regular(four, 4)
        assert run_qlft_1d_adaptive(four, strict_pow2=True) == run_qlft_1d_adaptive(four)


class TestConvexityCheck:
    @pytest.mark.parametrize("run", [run_qlft_1d_adaptive, lambda f: run_qlft_1d_regular(f, 4)])
    def test_nonconvex_rejected_with_second_differences(self, run):
        f = FunctionSpec(RegularGrid(0, 1, 4), (F(0), F(2), F(1), F(5)))
        with pytest.raises(NonConvexInput, match=r"^second differences go negative \(min -3\)$"):
            run(f)

    def test_float_nonconvex_keeps_float_message(self):
        f = FunctionSpec(RegularGrid(0, 1, 4), (0.0, 2.0, 1.0, 5.0))
        with pytest.raises(NonConvexInput, match=r"^second differences go negative \(min -3\.0\)$"):
            prepare_superposition(f)

    @pytest.mark.parametrize("run", [run_qlft_1d_adaptive, lambda f: run_qlft_1d_regular(f, 4)])
    def test_float_nonconvex_runs_keep_float_message(self, run):
        f = FunctionSpec(RegularGrid(0, 1, 4), (0.0, 2.0, 1.0, 5.0))
        with pytest.raises(NonConvexInput, match=r"^second differences go negative \(min -3\.0\)$"):
            run(f)

    def test_two_points(self):
        # both runs refuse two points with the kernel's error, as lft_adaptive does
        f = FunctionSpec(RegularGrid(0, 1, 2), (F(1), F(3)))
        for run in (run_qlft_1d_adaptive, lambda f: run_qlft_1d_regular(f, 4), lft_adaptive):
            with pytest.raises(DegenerateGrid, match=r"^need n >= 3 primal points, got 2$"):
                run(f)


class TestFloatSamples:
    def floats(self):
        return FunctionSpec(RegularGrid(0, 1 / 3, 4), (0.0, 0.1, 0.3, 0.7))

    def test_regular_run_equals_kernel(self):
        f = self.floats()
        pairs = conjugate_pairs(run_qlft_1d_regular(f, 4))
        assert tuple(v for _, v in pairs) == lft_regular(f, canonical_dual(f, 4)).values
        assert pairs[-1] == (3, F(9007199254740991, 18014398509481984))
        assert all(type(v) is F for _, v in pairs)

    def test_adaptive_run_equals_kernel(self):
        f = self.floats()
        labs = run_qlft_1d_adaptive(f).final_state.labels()
        ref = lft_adaptive(f)
        assert tuple(lab.get("fstar") for lab in labs) == ref.values
        assert tuple(lab.get("s") for lab in labs) == ref.dual.points()


class TestCanonicalDual:
    def test_default_dual_is_the_canonical_grid(self, rng):
        specs = [
            fixtures.constant(1, n=4),
            FunctionSpec(RegularGrid(0, 1 / 3, 4), (0.0, 0.1, 0.3, 0.7)),
        ]
        for n in (3, 5, 8):
            coprime = [i * i + F(1, p) for i, p in zip(range(n), [1009, 1013, 2**61 - 1] * n)]
            specs += [
                fixtures.random_convex_spec(rng, n),
                FunctionSpec(RegularGrid(0, 0.75, n), tuple(i * i / 3 for i in range(n))),
                FunctionSpec(RegularGrid(F(1, 3), F(2, 7), n), tuple(coprime)),
            ]
        for f in specs:
            for k in (2, f.n, 2 * f.n + 1):
                # the same steps, by hand, on the grid the classical path builds
                dual = canonical_dual(f, k)
                state = attach_gradients(prepare_superposition(f))
                state, post = indicator_postselect(state, dual, rng_seed=k)
                run = run_qlft_1d_regular(f, k, rng_seed=k)
                assert run.final_state == finalize_conjugate(state, dual)
                assert run.success_probability == post.success_probability
                assert run.pass_acceptances == (post.success_probability,)
                assert run.attempts == post.attempts


class TestAttachGradients:
    def test_ex1_label_i2(self, ex1):
        state = attach_gradients(prepare_superposition(ex1))
        lab = next(l for l, _ in state.entries if l.get("i") == 2)
        assert (lab.get("c_lo"), lab.get("c_hi")) == (F(0), F(1, 2))

    def test_constant_gradients_with_boundary_sentinel(self):
        state = attach_gradients(prepare_superposition(fixtures.constant(1, n=4)))
        for lab, _ in state.entries:
            i = lab.get("i")
            if i == 0:
                assert lab.get("c_lo") == UNDEFINED
            elif i == 3:
                assert lab.get("c_hi") == UNDEFINED
            else:
                assert lab.get("c_lo") == 0 and lab.get("c_hi") == 0

    def test_gradient_registers_match_classical(self, rng):
        f = fixtures.random_convex_spec(rng, 9)
        g = discrete_gradients(f)
        state = attach_gradients(prepare_superposition(f))
        for lab, _ in state.entries:
            i = lab.get("i")
            if i < f.n - 1:
                assert lab.get("c_hi") == g.c[i]
            if i > 0:
                assert lab.get("c_lo") == g.c[i - 1]

    def test_requires_prepared_state(self, ex1):
        mangled = prepare_superposition(ex1).map_labels(
            lambda lab: label(*lab.regs[:2])
        )
        with pytest.raises(MalformedState):
            attach_gradients(mangled)


class TestPostselect:
    def test_ex2_always_succeeds(self, ex2):
        state = attach_gradients(prepare_superposition(ex2))
        dual = canonical_dual(ex2, 5)
        for seed in range(20):
            _, outcome = indicator_postselect(state, dual, rng_seed=seed)
            assert outcome.success_probability == 1
            assert outcome.attempts == 1

    def test_ex3_success_half(self, ex3):
        state = attach_gradients(prepare_superposition(ex3))
        _, outcome = indicator_postselect(state, canonical_dual(ex3, 5), rng_seed=0)
        assert outcome.success_probability == F(1, 2)
        assert outcome.w == 2
        assert outcome.expanded == 10
        assert outcome.accepted == 5

    def test_post_state_matches_optimizer_map(self, rng):
        f = fixtures.random_convex_spec(rng, 8)
        dual = canonical_dual(f, 6)
        if dual.gamma_s == 0:
            pytest.skip("degenerate draw")
        state = attach_gradients(prepare_superposition(f))
        post, _ = indicator_postselect(state, dual, rng_seed=3)
        assignment = optimizer_map(discrete_gradients(f), dual)
        xs = f.grid.points()
        got = {(lab.get("j"), lab.get("x_star")) for lab, _ in post.entries}
        expect = {(j, xs[i]) for j, i in enumerate(assignment)}
        assert got == expect

    @staticmethod
    def hand_built(c_hi, at=None):
        """Branches i (0.. unless ``at`` names them) on the integer grid with
        the given c_hi words; postselection reads no other gradient register."""
        return QState.uniform(
            label(("i", i), ("x", F(i)), ("f", F(0)), ("c_hi", c))
            for i, c in zip(at or range(len(c_hi)), c_hi)
        )

    def test_hand_built_state_counts_as_the_kernel_does(self):
        c = [F(-1), F(1, 2), F(1, 2), F(3)]
        dual = DualGrid.from_points([F(-2), F(0), F(1, 2), F(1), F(4)])
        post, outcome = indicator_postselect(self.hand_built([*c, UNDEFINED]), dual)
        assert [lab.get("i") for lab in post.labels()] == [0, 1, 1, 3, 4]
        assert outcome.w == 2 and outcome.accepted == 5

    def test_decreasing_gradient_words_raise(self):
        dual = DualGrid.from_points([F(0), F(1)])
        with pytest.raises(NonConvexInput, match=r"^gradients must be nondecreasing$"):
            indicator_postselect(self.hand_built([F(0), F(2), F(1), UNDEFINED]), dual)

    def test_one_gradient_raises(self):
        dual = DualGrid.from_points([F(0), F(1)])
        with pytest.raises(DegenerateGrid, match=r"^need at least two discrete gradients$"):
            indicator_postselect(self.hand_built([F(1), UNDEFINED]), dual)

    @pytest.mark.parametrize("at", [None, (0, 2, 3, 4)])
    def test_missing_gradient_word_raises(self, at):
        # an UNDEFINED interior word, or no branch 1 at all
        c_hi = [F(0), UNDEFINED if at is None else F(1), F(2), UNDEFINED]
        with pytest.raises(MalformedState, match=r"^gradient registers are incomplete$"):
            indicator_postselect(self.hand_built(c_hi, at), DualGrid.from_points([F(0), F(1)]))

    def test_post_state_renormalized(self, ex3):
        state = attach_gradients(prepare_superposition(ex3))
        post, _ = indicator_postselect(state, canonical_dual(ex3, 5), rng_seed=0)
        assert post.norm_sq() == 1
        assert len(post) == 5


class TestFinalize:
    def test_ex1_conjugate_labels(self, ex1):
        dual = canonical_dual(ex1, 4)
        state = attach_gradients(prepare_superposition(ex1))
        post, _ = indicator_postselect(state, dual, rng_seed=0)
        final = finalize_conjugate(post, dual)
        pairs = sorted((lab.get("j"), lab.get("fstar")) for lab, _ in final.entries)
        assert pairs == [(0, F(-1, 2)), (1, F(-3, 8)), (2, F(-1, 8)), (3, F(1, 4))]

    def test_garbage_section_retained(self, ex1):
        dual = canonical_dual(ex1, 4)
        post, _ = indicator_postselect(
            attach_gradients(prepare_superposition(ex1)), dual, rng_seed=0
        )
        final = finalize_conjugate(post, dual)
        for lab, _ in final.entries:
            assert reg_names(lab) == ("j", "fstar")
            assert tuple(k for k, _ in lab.garbage) == ("x_star", "m", "i")

    def test_constant_single_point(self):
        f = fixtures.constant(F(1, 3), n=4)
        dual = DualGrid.from_points([F(0)])
        post, _ = indicator_postselect(
            attach_gradients(prepare_superposition(f)), dual, rng_seed=0
        )
        final = finalize_conjugate(post, dual)
        assert len(final) == 1
        lab = final.entries[0][0]
        assert lab.get("fstar") == F(-1, 3)

    def test_fenchel_young_equality_at_each_label(self, rng):
        f = fixtures.random_convex_spec(rng, 8)
        dual = canonical_dual(f, 8)
        if dual.gamma_s == 0:
            pytest.skip("degenerate draw")
        post, _ = indicator_postselect(
            attach_gradients(prepare_superposition(f)), dual, rng_seed=1
        )
        final = finalize_conjugate(post, dual)
        samples = dict(zip(f.grid.points(), f.samples))
        for lab, _ in final.entries:
            s = dual.point(lab.get("j"))
            x = lab.get("x_star")
            assert samples[x] + lab.get("fstar") == s * x


    def test_steps_take_an_empty_state_to_an_empty_state(self):
        # no branch to read registers from: the steps read them by name
        empty = QState(entries=())
        assert attach_gradients(empty) == empty
        assert finalize_conjugate(empty, DualGrid.from_points([F(0)])) == empty


class TestRegularRuns:
    def test_values_equal_classical(self, rng):
        for _ in range(15):
            f = fixtures.random_convex_spec(rng, rng.randint(3, 12))
            k = rng.randint(2, 14)
            dual = canonical_dual(f, k)
            if dual.gamma_s == 0:
                continue
            run = run_qlft_1d_regular(f, k, rng_seed=rng.randint(0, 10**6))
            classical = lft_regular(f, dual)
            assert tuple(v for _, v in conjugate_pairs(run)) == classical.values

    def test_w1_quadratic_runs_at_probability_one(self):
        # power-of-two sizes under strict checking: unitary-like run
        f = fixtures.ex1(8)
        run = run_qlft_1d_regular(f, 8, rng_seed=5, strict_pow2=True)
        assert run.success_probability == 1
        assert run.attempts == 1
        assert run.expected_aa_repetitions == 1
        classical = lft_regular(f, canonical_dual(f, 8))
        assert tuple(v for _, v in conjugate_pairs(run)) == classical.values

    def test_ex2_resampled_at_power_of_two(self):
        # resampling moves the kinks off the grid: W grows to 2, success
        # drops to 1/2, but the values still agree with the classical path
        f = fixtures.ex2(8)
        run = run_qlft_1d_regular(f, 8, rng_seed=0, strict_pow2=True)
        assert run.success_probability == F(1, 2)
        classical = lft_regular(f, canonical_dual(f, 8))
        assert tuple(v for _, v in conjugate_pairs(run)) == classical.values

    def test_seed_determinism(self, ex3):
        a = run_qlft_1d_regular(ex3, 5, rng_seed=99)
        b = run_qlft_1d_regular(ex3, 5, rng_seed=99)
        assert a == b

    def test_step_trace_norms_exact(self, ex3):
        run = run_qlft_1d_regular(ex3, 5, rng_seed=4)
        assert [rec.norm_sq for rec in run.step_trace] == [1, 1, 1, 1]
        names = [rec.name for rec in run.step_trace]
        assert names == ["superposition", "gradients", "postselect", "conjugate"]


class TestAdaptiveRuns:
    def test_ex1_labels(self, ex1):
        run = run_qlft_1d_adaptive(ex1)
        assert run.success_probability == 1 and run.attempts == 1
        duals = tuple(lab.get("s") for lab, _ in run.final_state.entries)
        vals = tuple(lab.get("fstar") for lab, _ in run.final_state.entries)
        assert duals == (F(-1, 2), F(-1, 4), F(1, 4), F(3, 4), F(1))
        assert vals == (F(-1, 2), F(-7, 16), F(-1, 4), F(1, 16), F(1, 4))

    def test_no_garbage(self, ex1):
        run = run_qlft_1d_adaptive(ex1)
        for lab, _ in run.final_state.entries:
            assert lab.garbage == ()
            assert reg_names(lab) == ("i", "x", "s", "fstar")

    def test_constant_function(self):
        f = fixtures.constant(F(1, 2), n=4)
        run = run_qlft_1d_adaptive(f)
        for lab, _ in run.final_state.entries:
            assert lab.get("s") == 0
            assert lab.get("fstar") == -F(1, 2)

    def test_matches_classical_on_random_instances(self, rng):
        for _ in range(30):
            f = fixtures.random_convex_spec(rng, rng.randint(3, 12))
            run = run_qlft_1d_adaptive(f)
            ref = lft_adaptive(f)
            assert tuple(l.get("fstar") for l, _ in run.final_state.entries) == ref.values
            assert tuple(l.get("s") for l, _ in run.final_state.entries) == ref.dual.points()


class TestAcceptanceStatistics:
    def test_ex3_empirical_within_3_sigma(self, ex3):
        p = F(1, 2)
        trials = 10_000
        hits = first_attempt_successes(p, trials, seed=2024)
        assert abs(hits / trials - 0.5) <= 0.015

    def test_ex1_empirical_within_3_sigma(self, ex1):
        run = run_qlft_1d_regular(ex1, 4, rng_seed=0)
        p = float(run.success_probability)  # 4/5
        trials = 10_000
        hits = first_attempt_successes(run.success_probability, trials, seed=55)
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(hits / trials - p) <= 3 * sigma

    def test_probability_one_always_hits(self):
        assert first_attempt_successes(F(1), 1000, seed=3) == 1000


class TestRetryTotals:
    @pytest.mark.parametrize("p", [F(1, 2), F(4, 5), F(3, 16)])
    def test_first_trials_of_a_draw_are_the_shorter_draw(self, p):
        # trials come in turn off one stream, each a geometric_attempts draw
        rng = random.Random(2024)
        attempts = [geometric_attempts(p, rng) for _ in range(200)]
        for t in (1, 2, 17, 199, 200):
            head = attempts[:t]
            assert retry_totals(p, random.Random(2024), t) == (sum(head), head.count(1))

    def test_a_split_draw_continues_the_stream(self):
        rng = random.Random(7)
        (a, a1), (b, b1) = retry_totals(F(1, 2), rng, 30), retry_totals(F(1, 2), rng, 70)
        assert (a + b, a1 + b1) == retry_totals(F(1, 2), random.Random(7), 100)

    def test_probability_one_draws_nothing(self):
        rng = random.Random(3)
        before = rng.getstate()
        assert retry_totals(F(1), rng, 10**12) == (10**12, 10**12)
        assert rng.getstate() == before

    def test_zero_probability_raises(self):
        with pytest.raises(EmptyAcceptance):
            retry_totals(F(0), random.Random(0), 5)


class TestSentinelWord:
    def test_undefined_register_resists_arithmetic(self, ex1):
        state = prepare_superposition(ex1)
        boundary = next(l for l, _ in state.entries if l.get("i") == 0)
        with pytest.raises(TypeError):
            boundary.get("f_prev") - boundary.get("f")


class TestDigitalToAnalog:
    def test_constant_values_omega_one(self):
        run = run_qlft_1d_adaptive(fixtures.constant(F(1, 2), n=4))
        state = run.final_state.map_labels(
            lambda lab: label(("j", lab.get("i")), ("fstar", lab.get("fstar")))
        )
        enc = digital_to_analog(state)
        assert enc.omega == 1
        for _, amp in enc.state.entries:
            assert amp.sq == F(1, 4)

    def test_ex1_conjugate_omega(self, ex1):
        run = run_qlft_1d_regular(ex1, 4, rng_seed=0)
        enc = digital_to_analog(run.final_state)
        assert enc.omega == F(15, 32)
        assert enc.state.norm_sq() == 1
        signs = [amp.sign for _, amp in enc.state.entries]
        assert signs == [-1, -1, -1, 1]

    def test_all_zero_rejected(self):
        run = run_qlft_1d_adaptive(fixtures.constant(0, n=4))
        state = run.final_state.map_labels(
            lambda lab: label(("j", lab.get("i")), ("fstar", lab.get("fstar")))
        )
        with pytest.raises(AllZeroValues, match="^cannot amplitude-encode the zero vector$"):
            digital_to_analog(state)
