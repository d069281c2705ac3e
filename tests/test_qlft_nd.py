import ast
import math
import os
import pickle
import random
import re
import runpy
import sys
from fractions import Fraction as F
from itertools import accumulate, product
from unittest import mock

import pytest

from lftlab import fixtures, multi, qlft_nd
from lftlab.errors import InvalidK, NonConvexSlice, NotPowerOfTwo
from lftlab.grids import DualGrid, FunctionSpec, RegularGrid
from lftlab.multi import RatTensor, TensorGrid, TensorSamples, canonical_nd_dual_grids
from lftlab.qlft import (
    _trace,
    conjugate_pairs,
    run_qlft_1d_adaptive,
    run_qlft_1d_regular,
)
from lftlab.qlft_nd import MATCH, MISMATCH, run_qlft_nd_adaptive, run_qlft_nd_regular
from lftlab.qstate import UNDEFINED, BasisLabel, QState, _schema, is_undefined, label

from conftest import first_attempt_successes, raises_exactly, reg_names
from test_brute import _nd_verify_inputs
from test_multi import (
    WIDE_PRIMES,
    _outcome,
    _reference_pick,
    as_tensor_1d,
    at,
    complements,
    generator_case,
)


class TestSeparableRegular:
    def test_kappa_one_perfect_acceptance_and_match(self):
        f = fixtures.separable_sum("quadratic-ex1", d=2, n=4)
        run = run_qlft_nd_regular(f, ks=(4, 4), rng_seed=11)
        assert run.pass_acceptances == (F(1), F(1))
        assert run.success_probability == 1
        assert run.attempts == 1
        assert run.verification.status == MATCH

    @pytest.mark.parametrize(
        "n, k, status, missing, accepts",
        [
            (5, 5, MATCH, 0, (F(1), F(1))),
            # K != N: the gates cull labels of a kappa = 1 input
            (5, 4, MISMATCH, 8, (F(2, 5), F(4, 5))),
            (8, 16, MISMATCH, 64, (F(1, 2), F(2, 3))),
        ],
    )
    def test_kappa_one_matches_only_at_k_equal_n(self, n, k, status, missing, accepts):
        f = fixtures.separable_sum("quadratic-ex1", d=2, n=n)
        run = run_qlft_nd_regular(f, ks=(k, k), rng_seed=1)
        assert run.verification.status == status
        assert len(run.verification.missing) == missing
        assert run.pass_acceptances == accepts

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
            assert reg_names(lab) == ("j", "fstar", "s")
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
            assert reg_names(lab) == ("j", "fstar", "s")
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

    @pytest.mark.parametrize("n", [4, 5, 8, 16])
    def test_random_convex_inputs_match_the_1d_runs(self, n):
        for seed in range(5):
            f = fixtures.random_convex_spec(random.Random(seed), n)
            t = as_tensor_1d(f)
            for k in (2, 4, n, 2 * n):
                nd = run_qlft_nd_regular(t, ks=(k,), rng_seed=1)
                one = run_qlft_1d_regular(f, k, rng_seed=1)
                assert nd.success_probability == one.success_probability
                assert (nd.attempts, nd.expected_aa_repetitions) == (one.attempts, one.expected_aa_repetitions)
                nd_labels = {(lab.get("j")[0], lab.get("fstar")) for lab, _ in nd.final_state.entries}
                assert nd_labels == set(conjugate_pairs(one))
            nd = run_qlft_nd_adaptive(t)
            one = run_qlft_1d_adaptive(f)
            assert (nd.attempts, nd.expected_aa_repetitions) == (one.attempts, one.expected_aa_repetitions)
            nd_labels = {
                (lab.get("j")[0], lab.get("fstar"), lab.get("s")[0]) for lab, _ in nd.final_state.entries
            }
            one_labels = {(lab.get("i"), lab.get("fstar"), lab.get("s")) for lab, _ in one.final_state.entries}
            assert nd_labels == one_labels


class TestVerificationReporting:
    def test_reports_always_produced(self, rng):
        statuses = []
        for seed in range(25):
            local = random.Random(seed)
            f = fixtures.random_convex_quadratic_nd(
                local, d=2, n=4, coupling=local.choice([1, 2, 3])
            )
            run = run_qlft_nd_regular(f, ks=(4, 4), rng_seed=seed)
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
            run = run_qlft_nd_regular(f, ks=(4, 4), rng_seed=seed)
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
            run = run_qlft_nd_regular(f, ks=(4, 4), rng_seed=seed)
            if run.final_state is None:
                aborted = run
                break
        assert aborted is not None
        assert aborted.success_probability == 0
        assert aborted.attempts == 0 and aborted.expected_aa_repetitions == 0
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
        from lftlab.multi import _bracket, _lift, _lines, axis_transform
        from lftlab.transform import regular_dual_grid

        def axis_bracket(values, axis, gamma):
            flat, D = _lift(values.flat)
            return _bracket(list(_lines(values.shape, flat, axis, check_convex=False)), D, gamma)

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
            t = axis_transform(t, axis, grid.axes[axis], expected[axis])
        assert run.verification.dual_grids == tuple(expected)
        assert run.verification.dual_grids[0].points() == (F(2), F(4))
        # the untransformed tensor would have given (0, 4) instead
        assert axis_bracket(f.values, 0, grid.gamma) == (F(0), F(4))

    def test_nonconvex_intermediate_line_equals_brute(self):
        # a coupled quadratic whose axis-1 pass leaves the axis-0 line at (2,)
        # discretely nonconvex: the cascade takes that line's exact maximum,
        # and the simulator reports what the gate culled
        vals = (
            "0 1/16 5/4 57/16 7 7/16 1 43/16 11/2 151/16 5/4 37/16 9/2 125/16 "
            "49/4 39/16 4 107/16 21/2 247/16 4 97/16 37/4 217/16 19"
        ).split()
        grid = TensorGrid(axes=(fixtures.unit_grid(5), fixtures.unit_grid(5)))
        f = TensorSamples(grid=grid, values=RatTensor((5, 5), tuple(map(F, vals))))
        f.require_convex_axes()
        run = run_qlft_nd_regular(f, ks=(5, 5), rng_seed=0)
        v = run.verification
        assert canonical_nd_dual_grids(f, (5, 5)) == v.dual_grids
        nested = multi.lft_nd_regular(f, v.dual_grids)
        brute = multi.lft_nd_brute(f, multi.product_dual_points(v.dual_grids))
        assert nested.values.flat == brute.values.flat
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

    @pytest.mark.parametrize(
        "seed, missing, accepts",
        [(138, 43, (F(7, 18), F(101, 448))), (178, 113, (F(55, 294), F(83, 495)))],
    )
    def test_nonconvex_intermediate_line_gates_on_exact_counts(self, seed, missing, accepts):
        # an axis-0 line the axis-1 pass leaves nonconvex: the gate reads the
        # exact assignment's counts there, so no label carries a wrong value
        f, ks = generator_case(seed)
        run = run_qlft_nd_regular(f, ks, rng_seed=seed)
        v = run.verification
        assert (v.status, len(v.missing), v.extra, v.value_mismatches) == (MISMATCH, missing, (), ())
        assert run.pass_acceptances == accepts


class TestAdaptiveNd:
    def test_separable_match(self):
        f = fixtures.separable_sum("quadratic-ex1", d=2, n=4)
        run = run_qlft_nd_adaptive(f)
        assert run.success_probability == 1
        assert run.attempts == 1
        assert run.verification.status == MATCH

    def test_fenchel_young_equality_per_label(self, rng):
        f = fixtures.random_convex_quadratic_nd(rng, d=2, n=4, coupling=2)
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

    def test_nonconvex_intermediate_line_is_judged_by_the_brute(self):
        # max(2, 1 - 2x + 2y) on the 3x3 grid over [0, 1]^2: its axis lines
        # are convex, but the axis-1 pass leaves a nonconvex axis-0 line.
        # Both routes take their points from the input's lines, so both run
        # it and give the same labels; each is judged against the brute
        # maximum at its own s
        grid = TensorGrid(axes=(fixtures.unit_grid(3), fixtures.unit_grid(3)))
        vals = (2, 2, 3, 2, 2, 2, 2, 2, 2)
        f = TensorSamples(grid=grid, values=RatTensor((3, 3), tuple(map(F, vals))))
        run = run_qlft_nd_adaptive(f)
        labels = [lab for lab, _ in run.final_state.entries]
        assert _run_labels(f) == _classical_labels(f)
        brute = multi.lft_nd_brute(f, [lab.get("s") for lab in labels]).values.flat
        below = tuple(
            (lab.get("j"), lab.get("fstar"), b) for lab, b in zip(labels, brute) if lab.get("fstar") != b
        )
        v = run.verification
        assert v.status == MISMATCH
        assert not v.missing and not v.extra
        assert v.value_mismatches == below
        assert [(j, fstar) for j, fstar, _ in below] == [((0, 1), F(-3, 2)), ((1, 2), F(-5, 2))]
        assert all(fstar < b for _, fstar, b in below)


def _run_labels(f):
    """An adaptive run's labels as (j, s, fstar), in order."""
    run = run_qlft_nd_adaptive(f)
    return [(lab.get("j"), lab.get("s"), lab.get("fstar")) for lab in run.final_state.labels()]


def _classical_labels(f):
    """``lft_nd_adaptive``'s (index, dual point, value), in row-major order."""
    res = multi.lft_nd_adaptive(f)
    return [(j, res.dual_point(j), res.values.get(j)) for j in res.values.indices()]


def _centered_quotient(f, idx, axis):
    """The input's centered difference quotient along ``axis`` at ``idx``:
    the mean of the forward quotients on either side of it, or the one
    side there is at a line end."""
    i, gamma = idx[axis], f.grid.gamma
    line = [f.values.get((*idx[:axis], h, *idx[axis + 1 :])) for h in range(f.grid.shape[axis])]
    sides = [(b - a) / gamma for a, b in zip(line, line[1:])][max(i - 1, 0) : i + 1]
    return sum(sides) / len(sides)


class TestAdaptiveClosedForm:
    """Each adaptive label's s_a is the input's centered difference quotient
    along axis a at j, and fstar = <s, x_j> - f(j)."""

    @staticmethod
    def _cases():
        for seed in range(12):
            for separable in (False, True):
                f, _ = _wide_tensor(seed, separable)
                yield f
            # the axis-0 line through the origin, as a one-axis tensor
            n = f.grid.shape[0]
            line = tuple(f.values.get((i, *(0,) * (f.d - 1))) for i in range(n))
            yield TensorSamples(TensorGrid(f.grid.axes[:1]), RatTensor((n,), line))

    def test_labels_hold_the_inputs_centered_quotients(self):
        dims = set()
        for f in self._cases():
            dims.add(f.d)

            for route in (_run_labels, _classical_labels):
                got = _outcome(lambda: route(f))
                assert [j for j, _, _ in got] == list(f.values.indices())
                for j, s, fstar in got:
                    assert s == tuple(_centered_quotient(f, j, a) for a in range(f.d))
                    assert fstar == sum(a * x for a, x in zip(s, f.grid.point(j))) - f.values.get(j)
        assert dims == {1, 2, 3}


def _sweep_inputs():
    """The adaptive CI sweep's inputs (scripts/nd_verification_sweep.py,
    --instances 60 --n 8)."""
    for seed in range(60):
        rng = random.Random(seed)
        coupling = rng.choice([1, 2, 3])
        yield fixtures.random_convex_quadratic_nd(rng, d=2, n=8, coupling=coupling)


# the coupled 2D 16x16 and 3D 6x6x6 inputs of nd-verify, separable sums
# on two and three axes
ONE_RULE_CASES = {
    "ci sweep": lambda: list(_sweep_inputs()),
    "nd-verify seed 1": lambda: _nd_verify_inputs(1)[:2],
    "nd-verify seed 20061": lambda: _nd_verify_inputs(20061)[:2],
    "separable sums": lambda: [
        fixtures.separable_sum(base, d=d, n=n)
        for base in ("quadratic-ex1", "pwl-ex2", "pwl-ex3")
        for d, n in ((2, 5), (3, 4))
    ],
}


class TestOneAdaptiveRule:
    """The classical adaptive route and the simulator take one rule: the
    run's labels are ``lft_nd_adaptive``'s (dual point, value) at every
    index, and only a line end can leave a value below the brute."""

    @pytest.mark.parametrize("case", list(ONE_RULE_CASES))
    def test_labels_equal_the_classical_route(self, case):
        for f in ONE_RULE_CASES[case]():
            assert _run_labels(f) == _classical_labels(f)

    @pytest.mark.parametrize("case", list(ONE_RULE_CASES))
    def test_interior_values_equal_the_brute(self, case):
        for f in ONE_RULE_CASES[case]():
            res = multi.lft_nd_adaptive(f)
            brute = multi.lft_nd_brute(f, res.dual_points).values.flat
            interior = [
                pos for pos, j in enumerate(res.values.indices())
                if all(0 < i < n - 1 for i, n in zip(j, f.grid.shape))
            ]
            assert interior
            assert [res.values.flat[p] for p in interior] == [brute[p] for p in interior]


class TestAdaptiveConvexityWalk:
    """An adaptive run and ``lft_nd_adaptive`` walk every input line once,
    and that walk is the convexity check: its first NonConvexSlice is the
    one ``require_convex_axes`` raises."""

    def test_each_input_line_is_walked_once(self):
        f = _separable_4x4()
        real, walked = multi._lines, []

        def counted(shape, flat, axis, check_convex):
            for line in real(shape, flat, axis, check_convex):
                walked.append((axis, line[0], check_convex))
                yield line

        for route in (run_qlft_nd_adaptive, multi.lft_nd_adaptive):
            walked.clear()
            with mock.patch.object(multi, "_lines", counted):
                route(f)
            assert walked == [(axis, (c,), True) for axis in range(2) for c in range(4)]

    def test_nonconvex_along_axis_1_names_the_first_line(self):
        # 8 x^2 plus a bump along axis 1 in row 1: every axis-0 line is
        # convex, the axis-1 line at (1,) is not
        grid = TensorGrid(axes=(RegularGrid(F(0), F(1), 3), RegularGrid(F(0), F(1), 4)))
        vals = (0, 0, 0, 0, 8, 11, 9, 10, 32, 32, 32, 32)
        f = TensorSamples(grid=grid, values=RatTensor((3, 4), tuple(map(F, vals))))
        message = "axis 1 line at (1,) is not discretely convex"
        routes = (f.require_convex_axes, lambda: run_qlft_nd_adaptive(f), lambda: multi.lft_nd_adaptive(f))
        for run in routes:
            with pytest.raises(NonConvexSlice) as exc:
                run()
            assert str(exc.value) == message


class TestOneWalkPerPass:
    """A canonical pass walks each line once, for its bracket and its rule
    alike, and the samples are lifted once, when they are built."""

    def test_each_line_is_walked_and_enveloped_once_per_pass(self):
        f, ks = generator_case(5)  # 5x5x5, K = 5, one nonconvex line
        real_lines, real_envelope = multi._lines, multi._envelope
        walked, enveloped = [], []

        def lines(shape, flat, axis, check_convex):
            for line in real_lines(shape, flat, axis, check_convex):
                walked.append(axis)
                yield line

        def envelope(line):
            enveloped.append(line)
            return real_envelope(line)

        with mock.patch.object(multi, "_lines", lines), mock.patch.object(multi, "_envelope", envelope):
            canonical_nd_dual_grids(f, ks)
        assert sorted(walked) == [0] * 25 + [1] * 25 + [2] * 25
        assert len(enveloped) == 1

    def test_a_regular_run_lifts_its_input_once(self):
        # the samples lift their values when they are built; no nD route
        # lifts them again, the brute judge included
        case, ks = generator_case(5)
        real_lift = multi._lift
        lifted = []

        def lift(values):
            lifted.append(values)
            return real_lift(values)

        with mock.patch.object(multi, "_lift", lift):
            f = TensorSamples(grid=case.grid, values=case.values)
            assert len(lifted) == 1 and lifted[0] is f.values.flat
            run_qlft_nd_regular(f, ks, rng_seed=5)
            run_qlft_nd_adaptive(f)
            duals = canonical_nd_dual_grids(f, ks)
            multi.lft_nd_regular(f, duals)
            multi.lft_nd_adaptive(f)
            multi.lft_nd_brute(f, multi.product_dual_points(duals))
            f.require_convex_axes()
        assert len(lifted) == 1


class TestCarriedRegisters:
    """A branch of either mode carries j, f and the s registers of the axes
    already passed, and no neighbor rows."""

    @staticmethod
    def _traced(run):
        states = []

        def record(steps, name, state, acceptance=None):
            states.append((name, state))
            _trace(steps, name, state, acceptance)

        with mock.patch.object(qlft_nd, "_trace", record):
            run()
        return [(name, state) for name, state in states if state.entries]

    @staticmethod
    def _instances():
        for seed in range(6):
            rng = random.Random(seed)
            yield fixtures.random_convex_quadratic_nd(rng, d=2 + seed % 2, n=4, coupling=2)

    @staticmethod
    def _rows(lab):
        return tuple(n for n in lab.schema.names if n.startswith(("f_prev", "f_next")))

    def _check_layout(self, states, d):
        assert states[0][0] == "superposition"
        for name, state in states:
            for lab, _ in state.entries:
                assert self._rows(lab) == ()
                if name == "negate":
                    assert reg_names(lab) == ("j", "fstar", "s")
                elif name == "superposition":
                    assert reg_names(lab) == ("j", "f")
                else:
                    axis = int(name.removeprefix("pass-axis"))
                    assert reg_names(lab) == ("j", "f", *(f"s{a}" for a in range(axis, d)))

    def test_regular_states_hold_no_rows(self):
        for f in self._instances():
            d = f.d
            self._check_layout(self._traced(lambda: run_qlft_nd_regular(f, ks=(4,) * d, rng_seed=1)), d)

    def test_adaptive_states_hold_no_rows(self):
        for f in self._instances():
            d = f.d
            states = self._traced(lambda: run_qlft_nd_adaptive(f))
            assert [name for name, _ in states] == [
                "superposition", *(f"pass-axis{a}" for a in reversed(range(d))), "negate"
            ]
            self._check_layout(states, d)
            for step, (_, state) in enumerate(states[1:-1]):
                garbage = tuple(f"i{a}" for a in reversed(range(d - 1 - step, d)))
                for lab, _ in state.entries:
                    assert tuple(k for k, _ in lab.garbage) == garbage


class TestAcceptanceStatisticsNd:
    def test_per_pass_ratio_is_exact_count_ratio(self, rng):
        f = fixtures.random_convex_quadratic_nd(rng, d=2, n=4, coupling=1)
        run = run_qlft_nd_regular(f, ks=(4, 4), rng_seed=0)
        for p in run.pass_acceptances:
            assert 0 <= p <= 1
        # empirical acceptance of the whole run over seeded trials
        p = run.success_probability
        if 0 < p < 1:
            trials = 10_000
            hits = first_attempt_successes(p, trials, seed=77)
            sigma = (float(p) * (1 - float(p)) / trials) ** 0.5
            assert abs(hits / trials - float(p)) <= 3 * sigma


# The register arithmetic of the nested passes per branch on Fractions: every
# value register maps v -> v - s * x_i with the branch's own s and x_i, an
# adaptive branch takes the mean of its two row gradients (at a line end the
# one it has), and negate flips the sign. A regular branch carries j, f and
# the s registers only; an adaptive one here also the rows of the axes not
# yet passed, which the simulator's branches do not carry: it reads each
# centered point off the input's lines, so the two agree only if the rows'
# differences stay the input's. The simulator computes the same words on
# ints over a shared denominator; the reference keeps the plain form to
# compare against.


def _ref_advance(lab, axis, i, s, x_i):
    """An adaptive branch after the pass along ``axis``: the axis' two rows
    give way to s{axis}, the garbage gains i{axis}, and f and every row
    still carried map with the branch's own optimizer."""
    shift = s * x_i
    names, values = lab.schema.names, lab.values
    lo = 2 + 2 * axis
    schema = _schema(
        ("j", "f", *names[2:lo], f"s{axis}", *names[lo + 2 :], f"i{axis}"), lab.schema.n_regs - 1
    )
    rows = [v if is_undefined(v) else v - shift for v in values[2:lo]]
    return BasisLabel(schema, (values[0], values[1] - shift, *rows, s, *values[lo + 2 :], i))


def _ref_cascade(f, duals):
    """The classical nested passes per element on Fractions over ``duals``,
    last axis first, each line under ``_reference_pick`` (convex or not).
    Returns, per pass, each line's counts keyed by its fixed coordinates and
    each output element's flat offset, in the pass's input, of the element
    it took; and each final element's optimizer, the primal multi-index its
    taken elements lead back to. Elements are in row-major order."""
    t = dict(zip(f.values.indices(), f.values.flat))
    origin = {idx: idx for idx in t}
    shape, passes = list(f.values.shape), []
    for axis in reversed(range(f.d)):
        n, dual, x_axis = shape[axis], duals[axis], f.grid.axes[axis]
        offset = {idx: pos for pos, idx in enumerate(sorted(t))}
        out, taken, carried, counts = {}, {}, {}, {}
        for comp in complements(shape, axis):
            line = [t[at(comp, axis, i)] for i in range(n)]
            xs = [x_axis.point(i) for i in range(n)]
            counts[comp] = [0] * n
            for j in range(dual.k):
                s = dual.point(j)
                i = _reference_pick(line, xs, s)
                out[at(comp, axis, j)] = line[i] - s * x_axis.point(i)
                taken[at(comp, axis, j)] = offset[at(comp, axis, i)]
                carried[at(comp, axis, j)] = origin[at(comp, axis, i)]
                counts[comp][i] += 1
        t, origin, shape[axis] = out, carried, dual.k
        passes.append((counts, [taken[idx] for idx in sorted(taken)]))
    return passes, [origin[idx] for idx in sorted(origin)]


def _ref_regular_pass(state, f, axis, dual, line_counts):
    n_axis = f.grid.shape[axis]
    w = max(map(max, line_counts.values()))
    names = reg_names(state.entries[0][0])
    kept = []
    for lab, _ in state.entries:
        coords = lab.get("j")
        counts = line_counts[coords[:axis] + coords[axis + 1 :]]
        firsts = list(accumulate(counts, initial=0))
        i = coords[axis]
        for m in range(counts[i]):
            neighbors = [h for h in (i - 1, i + 1) if 0 <= h < n_axis]
            if axis > 0 and any(m >= counts[h] for h in neighbors):
                continue
            j = firsts[i] + m
            s = dual.point(j)
            kept.append(
                label(
                    ("j", (*coords[:axis], j, *coords[axis + 1 :])),
                    ("f", lab.get("f") - s * f.grid.axes[axis].point(i)),
                    (f"s{axis}", s),
                    *((name, lab.get(name)) for name in names[2:]),
                    garbage=(*lab.garbage, (f"i{axis}", i), (f"m{axis}", m)),
                )
            )
    kept.sort(key=lambda lab: lab.get("j"))
    acceptance = F(len(kept), len(state) * w)
    return (QState.uniform(kept) if kept else QState(entries=())), acceptance


def _ref_adaptive_pass(state, f, axis):
    gamma = f.grid.gamma

    def step(lab):
        i = lab.get("j")[axis]
        center, lo_v, hi_v = lab.get("f"), lab.get(f"f_prev{axis}"), lab.get(f"f_next{axis}")
        c_lo = UNDEFINED if is_undefined(lo_v) else (center - lo_v) / gamma
        c_hi = UNDEFINED if is_undefined(hi_v) else (hi_v - center) / gamma
        s = c_hi if is_undefined(c_lo) else c_lo if is_undefined(c_hi) else (c_lo + c_hi) / 2
        return _ref_advance(lab, axis, i, s, f.grid.axes[axis].point(i))

    return state.map_labels(step)


def _reference_run(f, mode, ks=None, rng_seed=0):
    """(final state, step records, pass acceptances, verification report,
    the regular cascade's per-pass counts and taken offsets) of the nested
    passes computed per branch on Fractions."""
    f.require_convex_axes()
    shape, steps, accepts = f.values.shape, [], []
    labels = []
    for idx in f.values.indices():
        rows = []
        for axis, i in enumerate(idx if mode == "adaptive" else ()):
            for name, h in ((f"f_prev{axis}", i - 1), (f"f_next{axis}", i + 1)):
                nb = (*idx[:axis], h, *idx[axis + 1 :])
                rows.append((name, f.values.get(nb) if 0 <= h < shape[axis] else UNDEFINED))
        labels.append(label(("j", idx), ("f", f.values.get(idx)), *rows))
    state = QState.uniform(labels)
    _trace(steps, "superposition", state)
    duals, passes = None, []
    if mode == "regular":
        duals = canonical_nd_dual_grids(f, ks)
        passes, _ = _ref_cascade(f, duals)
    for step, axis in enumerate(reversed(range(f.d))):
        if mode == "regular":
            counts = passes[step][0]
            state, acceptance = _ref_regular_pass(state, f, axis, duals[axis], counts)
        else:
            state, acceptance = _ref_adaptive_pass(state, f, axis), F(1)
        accepts.append(acceptance)
        _trace(steps, f"pass-axis{axis}", state, acceptance)
        if not state.entries:
            break
    final = None
    if state.entries:
        names = state.entries[0][0].schema.names
        schema = _schema(("j", "fstar", "s", *names[2 + f.d :]), 3)
        d = f.d
        final = state.map_labels(
            lambda lab: BasisLabel(
                schema, (lab.values[0], -lab.values[1], lab.values[2 : 2 + d], *lab.values[2 + d :])
            )
        )
        _trace(steps, "negate", final)
    report = qlft_nd._verify(f, duals, final, rng_seed)
    return final, tuple(steps), tuple(accepts), report, passes


def _wide_tensor(seed, separable=False):
    """A convex coupled bowl on 2 or 3 axes with non-unit spacing, nonzero
    offsets and perturbations over prime denominators; odd seeds may draw
    2**4423 - 1, which puts the shared denominator past 4096 bits. A
    ``separable`` bowl has no coupling and one perturbation per axis index,
    so it is a sum of one-axis functions."""
    rng = random.Random(seed)
    shape = tuple(rng.randint(2, 4) for _ in range(rng.choice([2, 2, 3])))
    gamma = rng.choice([F(1, 2), F(2, 3), F(3), F(5, 7)])
    axes = tuple(
        RegularGrid(x0=F(rng.choice([-5, -1, 2, 4]), rng.choice([1, 3, 7])), gamma=gamma, n=n)
        for n in shape
    )
    dens = [1, 2, 3] + (WIDE_PRIMES if seed % 2 else WIDE_PRIMES[:-1])
    coupling = rng.randint(1, 3)
    # second differences of 16 outweigh the perturbations' at most 12
    if separable:
        bumps = [[F(rng.choice([-3, -1, 1, 2, 3]), rng.choice(dens)) for _ in range(n)] for n in shape]
        flat = tuple(
            sum(8 * i * i + bump[i] for i, bump in zip(idx, bumps))
            for idx in product(*map(range, shape))
        )
    else:
        flat = tuple(
            8 * sum(i * i for i in idx) + coupling * idx[0] * idx[-1]
            + F(rng.choice([-3, -1, 1, 2, 3]), rng.choice(dens))
            for idx in product(*map(range, shape))
        )
    f = TensorSamples(TensorGrid(axes), RatTensor(shape, flat))
    return f, tuple(rng.randint(2, 5) for _ in shape)


class TestRegistersAgainstFractionReference:
    SEEDS = range(10)
    SEPARABLE_SEEDS = (10, 11)  # adaptive runs verify as MATCH on these

    def test_wide_tensors_pass_4096_bits(self):
        # the int core meets the Fraction references at a denominator this wide
        widths = [
            math.lcm(*(v.denominator for v in _wide_tensor(seed)[0].values.flat)).bit_length()
            for seed in self.SEEDS
        ]
        assert max(widths) > 4096

    @pytest.mark.parametrize("mode", ["regular", "adaptive"])
    def test_runs_equal_the_reference(self, mode):
        cascade_pass = multi._pass
        statuses = set()
        cases = [(seed, False) for seed in self.SEEDS] + [(seed, True) for seed in self.SEPARABLE_SEEDS]
        for seed, separable in cases:
            f, ks = _wide_tensor(seed, separable)
            rng_seed = seed if mode == "regular" else 0  # adaptive runs draw nothing

            def simulate():
                # each cascade pass's counts and taken offsets
                passes = []

                def recorded(*args):
                    out = cascade_pass(*args)
                    passes.append(out[3:])
                    return out

                with mock.patch.object(multi, "_pass", recorded):
                    if mode == "regular":
                        run = run_qlft_nd_regular(f, ks, rng_seed=rng_seed)
                    else:
                        run = run_qlft_nd_adaptive(f)
                labels = () if run.final_state is None else run.final_state.labels()
                return run, [pickle.dumps(lab) for lab in labels], passes

            got = _outcome(simulate)
            want = _outcome(lambda: _reference_run(f, mode, ks, rng_seed))
            if want[0] is NonConvexSlice:
                assert got == want
                continue
            (run, pickles, passes), (final, steps, accepts, report, ref_passes) = got, want
            # every line's counts and, for every (line, j), the index taken
            assert passes == ref_passes
            assert run.final_state == final
            # pickles compare the words' types too: Fractions, never ints
            ref_labels = () if final is None else final.labels()
            assert pickles == [pickle.dumps(lab) for lab in ref_labels]
            assert run.step_trace == steps
            assert run.pass_acceptances == accepts
            assert run.success_probability == math.prod(accepts)
            assert run.verification == report
            statuses.add(report.status)
        assert len(statuses) > 1


class TestCascadeOptimizers:
    @pytest.mark.parametrize("shape", [(3, 5), (2, 4, 3)])
    def test_regular_optimizers_equal_the_reference(self, shape):
        """``lft_nd_regular`` returns the primal multi-indices that the
        reference passes compose, ties included: the samples do not depend
        on x_0, so every axis-0 line of the last pass is constant and its
        dual point 0 ties every index."""
        d = len(shape)
        axes = tuple(RegularGrid(x0=F(-1 - a, 3), gamma=F(1, 2), n=n) for a, n in enumerate(shape))
        f = TensorSamples.from_function(
            TensorGrid(axes), lambda *xs: sum(8 * x * x for x in xs[1:]) + xs[1] * xs[-1]
        )
        # the grids of axes 1.. reach past both ends of every line's gradients
        duals = (
            DualGrid(s0=F(-2), gamma_s=F(1), k=5),
            *(DualGrid(s0=F(-12), gamma_s=F(4), k=9) for _ in range(d - 1)),
        )
        _, want = _ref_cascade(f, duals)
        assert multi.lft_nd_regular(f, duals).optimizer == tuple(want)
        # the cascade carries each optimizer as one int, its flat offset
        carried = multi._cascade(f, duals)[2]
        assert all(type(pos) is int for pos in carried)


SWEEP = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "nd_verification_sweep.py")
# seed:#missing of every regular discrepancy at n = 8, K = 8, seeds 0..59;
# none has a value difference
SWEEP_REGULAR_MISSING = """
0:14 1:20 2:20 3:44 5:46 6:44 7:42 8:42 11:60 13:20 14:60 15:60 16:20 18:42 19:42 22:44
23:54 24:17 25:56 26:54 27:10 29:42 30:42 32:20 33:58 34:56 35:42 36:40 38:60 39:42 40:54
41:20 42:46 44:54 45:10 46:20 48:46 50:42 51:60 52:56 53:54 55:44 56:55 57:20 58:56 59:20
"""
# seed:#value-diffs of every adaptive discrepancy: each has all 64 labels,
# and the diffs are the labels below the brute maximum at their own s
SWEEP_ADAPTIVE_VALUES = """
0:14 1:2 2:2 3:2 5:14 6:14 7:2 8:2 11:26 13:2 14:26 15:26 16:2 17:2 18:2 19:26 22:2 23:14
24:14 25:14 26:14 27:2 29:26 30:26 32:2 33:26 34:26 35:26 36:14 37:2 38:26 39:2 40:26 41:2
42:14 44:26 45:2 46:2 48:26 50:2 51:26 52:26 53:26 55:2 56:14 57:2 58:26 59:2
"""


class TestCiSweepTally:
    """The outcome tally of the sweep CI runs; a change in representation or
    arithmetic must not move a finding."""

    def _sweep(self, mode, monkeypatch, capsys):
        argv = ["nd_verification_sweep.py", "--instances", "60", "--n", "8", "--k", "8"]
        monkeypatch.setattr(sys, "argv", [*argv, "--mode", mode])
        runpy.run_path(SWEEP, run_name="__main__")
        out = capsys.readouterr().out
        baseline = re.search(r"status=(\w+) pass_acceptances=(\[.*\])", out).groups()
        tally = {(int(c), s): int(n) for c, s, n in re.findall(r"coupling=(\d) (\w+) +(\d+)", out)}
        repro = [ast.literal_eval(line.strip()) for line in out.splitlines() if line.startswith("  (")]
        for _, _, status, _, _ in repro:
            assert status == MISMATCH
        return baseline, tally, {seed: (missing, diffs) for seed, _, _, missing, diffs in repro}

    def test_regular(self, monkeypatch, capsys):
        baseline, tally, found = self._sweep("regular", monkeypatch, capsys)
        assert baseline == (MATCH, "['1', '1']")
        assert tally == {
            (1, MATCH): 7, (1, MISMATCH): 15, (2, MATCH): 3, (2, MISMATCH): 14,
            (3, MATCH): 4, (3, MISMATCH): 17,
        }
        pairs = (entry.split(":") for entry in SWEEP_REGULAR_MISSING.split())
        assert found == {int(seed): (int(missing), 0) for seed, missing in pairs}
        assert len(found) == 46

    def test_adaptive(self, monkeypatch, capsys):
        baseline, tally, found = self._sweep("adaptive", monkeypatch, capsys)
        assert baseline == (MATCH, "['1', '1']")
        assert tally == {
            (1, MATCH): 7, (1, MISMATCH): 15, (2, MATCH): 3, (2, MISMATCH): 14,
            (3, MATCH): 2, (3, MISMATCH): 19,
        }
        pairs = (entry.split(":") for entry in SWEEP_ADAPTIVE_VALUES.split())
        assert found == {int(seed): (0, int(diffs)) for seed, diffs in pairs}
        assert len(found) == 48


@pytest.mark.parametrize(
    "ks, error, message",
    [((4,), ValueError, "need one dual size per axis"), ((4, 1), InvalidK, "need k >= 2 per axis")],
    ids=["count", "k-1"],
)
def test_regular_runs_check_their_sizes(ks, error, message):
    four = fixtures.separable_sum("quadratic-ex1", d=2, n=4)
    raises_exactly(lambda: run_qlft_nd_regular(four, ks), error, message)
