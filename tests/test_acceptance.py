"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` (or via
``scripts/acceptance_report.py``) to see the PASS/FAIL lines and timings.

Criterion 7's fine-grid reference constant is expected to fail: the
published constant 1841/9920 does not satisfy omega's own definition,
whose continuum limit for this instance is 1841/4805 (the companion test
pins the implementation to that limit). See notes in the README.
"""

import random
import time
from fractions import Fraction as F

import pytest

from lftlab import fixtures
from lftlab.grids import DualGrid, FunctionSpec, RegularGrid
from lftlab.multi import (
    canonical_nd_dual_grids,
    lft_nd_brute,
    lft_nd_regular,
    product_dual_points,
)
from lftlab.qlft import (
    conjugate_pairs,
    digital_to_analog,
    geometric_attempts,
    run_qlft_1d_adaptive,
    run_qlft_1d_regular,
)
from lftlab.qlft_nd import MATCH, run_qlft_nd_regular
from lftlab.hardness import (
    HiddenStringInstance,
    recover_via_point_queries,
    recover_via_sampling,
    rescale_instance,
    rescaling_checks,
)
from lftlab.transform import (
    convergence_gap,
    discrete_gradients,
    lft_adaptive,
    lft_brute,
    lft_regular,
)
from lftlab.witness import dual_index, in_acceptance_set, witness_params

from conftest import canonical_dual, first_attempt_successes


def report(num, budget, started, detail=""):
    elapsed = time.time() - started
    line = f"ACCEPTANCE C{num} PASS ({elapsed:.2f}s, budget {budget}s)"
    if detail:
        line += f": {detail}"
    print(line)
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def sweep_1d_instances(count=170, seed=2718):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice([4, 5, 8, 13, 16, 27, 32, 64, 101, 128, 256])
        k = rng.choice([4, 5, 8, 13, 16, 27, 32, 64, 101, 128, 256])
        if rng.random() < 0.5:
            f = fixtures.random_convex_spec(rng, n)
        else:
            f = fixtures.random_quadratic_spec(rng, n)
        out.append((f, k))
    return out


def sweep_nd_instances(seed=577):
    rng = random.Random(seed)
    out = []
    for _ in range(20):
        n = rng.choice([4, 8, 16])
        f = fixtures.random_convex_quadratic_nd(rng, d=2, n=n, coupling=rng.choice([1, 2]))
        ks = tuple(rng.choice([4, 8, 16]) for _ in range(2))
        out.append((f, ks))
    for _ in range(10):
        n = rng.choice([4, 8])
        f = fixtures.random_convex_quadratic_nd(rng, d=3, n=n, coupling=1)
        ks = (4, 4, 4)
        out.append((f, ks))
    return out


def test_criterion_1_example1_reproduction():
    started = time.time()
    f = fixtures.ex1()
    regular = lft_regular(f, canonical_dual(f, 4))
    assert regular.values == (F(-1, 2), F(-3, 8), F(-1, 8), F(1, 4))
    adaptive = lft_adaptive(f, "centered")
    assert adaptive.dual.points() == (F(-1, 2), F(-1, 4), F(1, 4), F(3, 4), F(1))
    assert adaptive.values == (F(-1, 2), F(-7, 16), F(-1, 4), F(1, 16), F(1, 4))
    report(1, 1, started, "ex1 regular K=4 and centered adaptive, exact")


def test_criterion_2_example2_reproduction():
    started = time.time()
    f = fixtures.ex2()
    dual = canonical_dual(f, 5)
    assert lft_regular(f, dual).values == (F(0), F(3, 64), F(1, 8), F(15, 64), F(6, 16))
    w = witness_params(discrete_gradients(f), dual)
    assert w.w == 1
    run = run_qlft_1d_regular(f, 5, rng_seed=0)
    assert run.success_probability == 1
    attempts = [
        geometric_attempts(run.success_probability, random.Random(1000 + t))
        for t in range(10_000)
    ]
    assert all(a == 1 for a in attempts)
    report(2, 5, started, "ex2 exact values, W=1, attempts == 1 across 10^4 trials")


def test_criterion_3_example3_reproduction():
    started = time.time()
    f = fixtures.ex3()
    dual = canonical_dual(f, 5)
    assert lft_regular(f, dual).values == (F(0), F(1, 16), F(1, 8), F(5, 16), F(1, 2))
    w = witness_params(discrete_gradients(f), dual)
    assert w.w == 2
    run = run_qlft_1d_regular(f, 5, rng_seed=0)
    assert run.success_probability == F(1, 2)
    trials = 10_000
    hits = first_attempt_successes(F(1, 2), trials, seed=31415)
    assert abs(hits / trials - 0.5) <= 0.015
    report(3, 10, started, f"ex3 exact, W=2, p=1/2, empirical {hits / trials:.4f}")


def test_criterion_4_oracle_equivalence_sweep():
    started = time.time()
    ones = sweep_1d_instances()
    for f, k in ones:
        dual = canonical_dual(f, k)
        if dual.gamma_s == 0:
            continue
        assert lft_regular(f, dual).values == lft_brute(f, dual).values
    nds = sweep_nd_instances()
    for f, ks in nds:
        duals = canonical_nd_dual_grids(f, ks)
        nested = lft_nd_regular(f, duals)
        brute = lft_nd_brute(f, product_dual_points(duals))
        assert tuple(nested.values.flat) == brute.values.flat
    report(
        4, 60, started,
        f"{len(ones)} 1D + {len(nds)} 2D/3D instances, fast == brute elementwise",
    )


def test_criterion_5_quantum_classical_agreement_1d():
    started = time.time()
    checked = 0
    for f, k in sweep_1d_instances(count=60):
        dual = canonical_dual(f, min(k, 64))
        if dual.gamma_s == 0:
            continue
        run = run_qlft_1d_regular(f, dual.k, rng_seed=checked)
        classical = lft_regular(f, dual)
        assert tuple(v for _, v in conjugate_pairs(run)) == classical.values
        run_a = run_qlft_1d_adaptive(f)
        ref_a = lft_adaptive(f)
        assert (
            tuple(lab.get("fstar") for lab, _ in run_a.final_state.entries)
            == ref_a.values
        )
        assert (
            tuple(lab.get("s") for lab, _ in run_a.final_state.entries)
            == ref_a.dual.points()
        )
        checked += 1
    assert checked >= 50
    report(5, 60, started, f"{checked} instances, simulator == classical exactly")


def test_criterion_6_nd_verification_reports():
    started = time.time()
    produced = 0
    separable_checked = 0
    mismatch_log = []
    for seed in range(10):
        f = fixtures.separable_sum("quadratic-ex1", d=2, n=random.Random(seed).choice([4, 8]))
        run = run_qlft_nd_regular(f, ks=f.grid.shape, rng_seed=seed)
        assert run.verification is not None
        produced += 1
        assert run.verification.status == MATCH, "kappa=1 separable must match"
        separable_checked += 1
    rng = random.Random(99)
    for seed in range(45):
        f = fixtures.random_convex_quadratic_nd(
            rng, d=2, n=rng.choice([4, 8]), coupling=rng.choice([1, 2, 3])
        )
        run = run_qlft_nd_regular(f, ks=(4, 4), rng_seed=seed)
        assert run.verification is not None
        produced += 1
        if run.verification.status != MATCH:
            mismatch_log.append(
                (run.verification.rng_seed, len(run.verification.missing),
                 len(run.verification.value_mismatches))
            )
    assert produced >= 50
    detail = (
        f"{produced} reports, {separable_checked} separable all MATCH, "
        f"{len(mismatch_log)} mismatches recorded with seeds"
    )
    if mismatch_log:
        detail += f" (first: seed={mismatch_log[0][0]})"
    report(6, 60, started, detail)


def test_criterion_7a_analog_omega_example1():
    started = time.time()
    run = run_qlft_1d_regular(fixtures.ex1(), 4, rng_seed=0)
    enc = digital_to_analog(run.final_state)
    assert enc.omega == F(15, 32)
    report("7a", 5, started, "ex1 K=4 omega = 15/32 exact")


def _fine_grid_omega():
    k = 2**12
    f = fixtures.ex1(2**12 + 1)
    dual = DualGrid(s0=F(-1, 2), gamma_s=(F(1) - F(-1, 2)) / (k - 1), k=k)
    res = lft_regular(f, dual, clamp=True)
    vmax = max(abs(v) for v in res.values)
    return sum((v / vmax) ** 2 for v in res.values) / k


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated reference constant 1841/9920 contradicts omega's definition; "
        "the measured fine-grid value converges to 1841/4805 (~0.3831). "
        "Kept failing on purpose; see README notes."
    ),
)
def test_criterion_7b_fine_grid_omega_stated_constant():
    omega = _fine_grid_omega()
    assert abs(float(omega) - float(F(1841, 9920))) < 1e-3


def test_criterion_7b_fine_grid_omega_definition_limit():
    # pins the implementation to the value omega's definition actually takes
    started = time.time()
    omega = _fine_grid_omega()
    assert abs(float(omega) - float(F(1841, 4805))) < 1e-3
    report("7b", 5, started, f"fine-grid omega {float(omega):.5f} -> 1841/4805")


def test_criterion_8_hardness_identities():
    started = time.time()
    for d in range(1, 9):
        for bits in range(2**d):
            z = tuple((bits >> i) & 1 for i in range(d))
            inst = HiddenStringInstance.for_point_queries(z)
            assert recover_via_point_queries(inst) == z
    successes = 0
    z4 = (1, 0, 1, 1)
    for seed in range(500):
        out = recover_via_sampling(
            HiddenStringInstance.for_sampling(z4), t=6, rng_seed=seed * 7919
        )
        if out.success:
            assert out.recovered == z4
            successes += 1
    assert successes / 500 >= 1 - 2**-6 - 0.03
    rng = random.Random(424242)
    rescale_checked = 0
    while rescale_checked < 50:
        n = rng.randint(4, 10)
        base = fixtures.random_convex_spec(rng, n)
        f = FunctionSpec(
            grid=RegularGrid(x0=F(0), gamma=F(1), n=n), samples=base.samples
        )
        dual = canonical_dual(f, rng.randint(3, 9))
        if dual.gamma_s == 0:
            continue
        try:
            r = rescale_instance(f, dual)
        except Exception:
            continue
        assert r.value_scale == r.xi  # unit spacing: the mapping is xi itself
        checks = rescaling_checks(r)
        assert checks["w_invariant"] and checks["mapping_exact"]
        rescale_checked += 1
    report(
        8, 60, started,
        f"all strings d<=8 exact, recovery {successes / 500:.3f}, "
        f"{rescale_checked} rescalings exact",
    )


def test_criterion_9_convergence():
    started = time.time()
    cc = fixtures.conjugate_of("quadratic-ex1")
    lipschitz = F(5, 4)
    previous = None
    gaps = []
    for e in range(3, 11):
        n = 2**e
        f = fixtures.ex1(n)
        gap = convergence_gap(f, cc, canonical_dual(f, n))
        assert gap <= 2 * lipschitz * f.grid.gamma
        if previous is not None:
            assert gap <= previous
        previous = gap
        gaps.append(float(gap))
    report(9, 10, started, f"gap nonincreasing {gaps[0]:.2e} -> {gaps[-1]:.2e}")


def test_criterion_10_property_bundle():
    started = time.time()
    rng = random.Random(161803)
    for _ in range(25):
        f = fixtures.random_convex_spec(rng, rng.randint(3, 12))
        dual = canonical_dual(f, rng.randint(2, 12))
        if dual.gamma_s == 0:
            continue
        res = lft_regular(f, dual)
        xs = f.grid.points()
        # Fenchel-Young nonneg, equality at the assignment
        for j in range(dual.k):
            s = dual.point(j)
            for i in range(f.n):
                slack = f.samples[i] + res.values[j] - s * xs[i]
                assert slack >= 0
                if i == res.optimizer_index[j]:
                    assert slack == 0
        # conjugate discrete convexity
        for j in range(1, dual.k - 1):
            assert res.values[j + 1] - 2 * res.values[j] + res.values[j - 1] >= 0
        # acceptance bijection onto the dual indices
        g = discrete_gradients(f)
        w = witness_params(g, dual).w
        js = [
            dual_index(i, m, g, dual)
            for i in range(f.n)
            for m in range(w)
            if in_acceptance_set(i, m, g, dual)
        ]
        assert sorted(js) == list(range(dual.k))
        # simulator norms exact and transcripts seed-deterministic
        run1 = run_qlft_1d_regular(f, dual.k, rng_seed=7)
        run2 = run_qlft_1d_regular(f, dual.k, rng_seed=7)
        assert run1 == run2
        assert all(rec.norm_sq == 1 for rec in run1.step_trace)
    report(10, 60, started, "FY, convexity, bijection, norms, determinism")
