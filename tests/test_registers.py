"""The simulator's integer register arithmetic against the Fraction formulas.

The ``ref_*`` functions below are the 1D simulator as it was written on
``Fraction`` words: grid points as x0 + i*gamma, gradients, conjugates and
centered duals by Fraction operators, omega as sum((v/vmax)^2)/K and norms as
Fraction sums. The integer registers must give pickle-equal states, step
records and encodings, so values, types and sharing all agree.
"""

import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from lftlab import fixtures, qlft
from lftlab.errors import DegenerateGrid
from lftlab.grids import DualGrid, FunctionSpec, RegularGrid
from lftlab.qlft import (
    AnalogEncoding,
    SimRun,
    StepRecord,
    attach_gradients,
    centered_dual,
    digital_to_analog,
    finalize_conjugate,
    geometric_attempts,
    indicator_postselect,
    prepare_superposition,
    run_qlft_1d_adaptive,
    run_qlft_1d_regular,
)
from lftlab.qstate import UNDEFINED, Amplitude, QState, label
from lftlab.transform import discrete_gradients

from conftest import canonical_dual, reg_names


def ref_prepare(f):
    xs = tuple(f.grid.x0 + i * f.grid.gamma for i in range(f.n))
    labels = []
    for i in range(f.n):
        labels.append(
            label(
                ("i", i),
                ("x_prev", xs[i - 1] if i > 0 else UNDEFINED),
                ("x", xs[i]),
                ("x_next", xs[i + 1] if i < f.n - 1 else UNDEFINED),
                ("f_prev", f.samples[i - 1] if i > 0 else UNDEFINED),
                ("f", f.samples[i]),
                ("f_next", f.samples[i + 1] if i < f.n - 1 else UNDEFINED),
            )
        )
    return QState.uniform(labels)


def ref_gradients(state):
    def add(lab):
        x, fv = lab.get("x"), lab.get("f")
        x_prev, f_prev = lab.get("x_prev"), lab.get("f_prev")
        x_next, f_next = lab.get("x_next"), lab.get("f_next")
        c_lo = UNDEFINED if x_prev == UNDEFINED else (fv - f_prev) / (x - x_prev)
        c_hi = UNDEFINED if x_next == UNDEFINED else (f_next - fv) / (x_next - x)
        return label(*lab.regs, ("c_lo", c_lo), ("c_hi", c_hi))

    return state.map_labels(add)


def ref_centered(c_lo, c_hi):
    if c_lo == UNDEFINED:
        return c_hi
    if c_hi == UNDEFINED:
        return c_lo
    return (c_lo + c_hi) / 2


def ref_point(dual, j):
    return dual.explicit[j] if dual.kind == "adaptive" else dual.s0 + j * dual.gamma_s


def ref_finalize(state, dual):
    def fin(lab):
        j = lab.get("j")
        fstar = ref_point(dual, j) * lab.get("x_star") - lab.get("f_at_star")
        return label(
            ("j", j),
            ("fstar", fstar),
            garbage=(("x_star", lab.get("x_star")), ("m", lab.get("m")), ("i", lab.get("i"))),
        )

    return state.map_labels(fin)


def ref_record(name, state, acceptance=None):
    return StepRecord(name, len(state), sum((a.sq for _, a in state.entries), F(0)), acceptance)


def ref_run_regular(f, k, rng_seed):
    steps = []
    state = ref_prepare(f)
    steps.append(ref_record("superposition", state))
    state = ref_gradients(state)
    steps.append(ref_record("gradients", state))
    dual = canonical_dual(f, k)
    state, post = indicator_postselect(state, dual, rng_seed=rng_seed)
    p = post.success_probability
    steps.append(ref_record("postselect", state, p))
    state = ref_finalize(state, dual)
    steps.append(ref_record("conjugate", state))
    aa = math.ceil((math.pi / 4) * math.sqrt(1 / float(p)))
    return SimRun(state, p, post.attempts, aa, rng_seed, tuple(steps), (p,))


def ref_run_adaptive(f):
    steps = []
    state = ref_prepare(f)
    steps.append(ref_record("superposition", state))
    state = ref_gradients(state)
    steps.append(ref_record("gradients", state))
    state = state.map_labels(
        lambda lab: label(
            ("i", lab.get("i")),
            ("x", lab.get("x")),
            ("f", lab.get("f")),
            ("s", ref_centered(lab.get("c_lo"), lab.get("c_hi"))),
        )
    )
    steps.append(ref_record("adaptive-dual", state))
    state = state.map_labels(
        lambda lab: label(
            ("i", lab.get("i")),
            ("x", lab.get("x")),
            ("s", lab.get("s")),
            ("fstar", lab.get("s") * lab.get("x") - lab.get("f")),
        )
    )
    steps.append(ref_record("conjugate", state))
    return SimRun(state, F(1), 1, 1, 0, tuple(steps), (F(1),))


def ref_analog(state, rng_seed):
    values = [lab.get("fstar") for lab, _ in state.entries]
    vmax = max(abs(v) for v in values)
    omega = sum((v / vmax) ** 2 for v in values) / len(values)
    alpha = sum(v * v for v in values)
    entries = tuple(
        (label(("j", lab.get("j"))), Amplitude(sign=1 if v > 0 else -1, sq=v * v / alpha))
        for (lab, _), v in zip(state.entries, values)
        if v != 0
    )
    attempts = geometric_attempts(omega, random.Random(rng_seed))
    return AnalogEncoding(QState(entries), omega, math.sqrt(1 / float(omega)), attempts)


def same(a, b):
    return pickle.dumps(a, protocol=4) == pickle.dumps(b, protocol=4)


def rationals(max_num, max_den):
    return st.builds(F, st.integers(-max_num, max_num), st.integers(1, max_den))


@st.composite
def specs(draw, min_n=2, max_n=9):
    n = draw(st.integers(min_n, max_n))
    x0 = draw(rationals(40, 9))
    gamma = draw(st.builds(F, st.integers(1, 30), st.integers(1, 11)))
    grid = RegularGrid(x0, gamma, n)
    if draw(st.booleans()):
        # high-bit quadratic a x^2 + b x + c
        a = F(draw(st.integers(0, 10**12)), draw(st.integers(1, 10**9)))
        b, c = draw(rationals(10**15, 10**7)), draw(rationals(10**6, 10**4))
        samples = tuple(a * x * x + b * x + c for x in grid.points())
    else:
        # from nondecreasing gradients
        slopes = [draw(rationals(20, 8))]
        for _ in range(n - 2):
            slopes.append(slopes[-1] + abs(draw(rationals(20, 8))))
        samples = [draw(rationals(10, 6))]
        for c in slopes:
            samples.append(samples[-1] + gamma * c)
    return FunctionSpec(grid, tuple(samples))


@st.composite
def duals(draw, f):
    """The canonical grid (None), a clamped regular grid or explicit points."""
    g = discrete_gradients(f)
    kind = draw(st.sampled_from(["canonical", "clamped", "explicit"]))
    k = draw(st.integers(2, 2 * f.n + 3))
    if kind == "canonical":
        return k, None
    pad = draw(st.builds(F, st.integers(1, 9), st.integers(1, 5)))
    if kind == "clamped":
        return k, DualGrid(s0=g.lo - pad, gamma_s=(g.hi - g.lo + 2 * pad) / (k - 1), k=k)
    lo, hi = g.lo - pad, g.hi + pad
    pts = sorted(lo + (hi - lo) * F(draw(st.integers(0, 64)), 64) for _ in range(k))
    return k, DualGrid.from_points(pts)


@given(f=specs())
@settings(max_examples=120, deadline=None)
def test_gradient_registers_and_undefined_slots(f):
    state = prepare_superposition(f)
    assert same(state, ref_prepare(f))
    got = attach_gradients(state)
    assert same(got, ref_gradients(state))
    first, last = got.entries[0][0], got.entries[-1][0]
    assert first.get("c_lo") is UNDEFINED and last.get("c_hi") is UNDEFINED


@given(f=specs(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_conjugate_registers_and_omega(f, data):
    if f.n < 3:
        with pytest.raises(DegenerateGrid):
            run_qlft_1d_regular(f, 4)
        return
    k, dual = data.draw(duals(f))
    seed = data.draw(st.integers(0, 2**20))
    # the run builds the canonical grid; the steps also take the drawn one
    assert same(run_qlft_1d_regular(f, k, rng_seed=seed), ref_run_regular(f, k, seed))
    grid = dual or canonical_dual(f, k)
    post, _ = indicator_postselect(attach_gradients(prepare_superposition(f)), grid, seed)
    final = finalize_conjugate(post, grid)
    assert same(final, ref_finalize(post, grid))
    if any(lab.get("fstar") != 0 for lab in final.labels()):
        assert same(digital_to_analog(final, rng_seed=seed), ref_analog(final, seed))


@given(f=specs())
@settings(max_examples=120, deadline=None)
def test_centered_dual_registers(f):
    assert same(run_qlft_1d_adaptive(f), ref_run_adaptive(f))
    for lab in ref_gradients(prepare_superposition(f)).labels():
        c_lo, c_hi = lab.get("c_lo"), lab.get("c_hi")
        assert same(centered_dual(c_lo, c_hi), ref_centered(c_lo, c_hi))


def reordered(state, order):
    """The state with every label's registers rebuilt through label() in ``order``."""
    return QState(tuple((label(*((n, lab.get(n)) for n in order)), a) for lab, a in state.entries))


@given(f=specs(min_n=3), data=st.data())
@settings(max_examples=80, deadline=None)
def test_steps_read_registers_in_any_order(f, data):
    # each step finds its input registers by name once, not at fixed offsets
    def moved(state):
        return reordered(state, data.draw(st.permutations(reg_names(state.entries[0][0]))))

    k, dual = data.draw(duals(f))
    dual = dual or canonical_dual(f, k)
    seed = data.draw(st.integers(0, 2**20))
    prepared = moved(prepare_superposition(f))
    grads = attach_gradients(prepared)
    assert same(grads, ref_gradients(prepared))
    ref_post = indicator_postselect(ref_gradients(ref_prepare(f)), dual, seed)
    post = indicator_postselect(moved(grads), dual, seed)
    assert same(post, ref_post)
    assert same(finalize_conjugate(moved(post[0]), dual), ref_finalize(ref_post[0], dual))
    # the adaptive steps, fed a gradient state in reversed register order
    names = reg_names(grads.entries[0][0])[::-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qlft, "attach_gradients", lambda state: reordered(attach_gradients(state), names))
        assert same(run_qlft_1d_adaptive(f), ref_run_adaptive(f))


@given(f=specs(min_n=3), data=st.data())
@settings(max_examples=80, deadline=None)
def test_postselect_ignores_entry_order(f, data):
    k, dual = data.draw(duals(f))
    dual = dual or canonical_dual(f, k)
    grads = attach_gradients(prepare_superposition(f))
    shuffled = QState(tuple(data.draw(st.permutations(grads.entries))))
    assert same(indicator_postselect(shuffled, dual, 5), indicator_postselect(grads, dual, 5))


def seeded(kind, seed, n):
    rng = random.Random(seed)
    make = fixtures.random_convex_spec if kind == "convex" else fixtures.random_quadratic_spec
    return make(rng, n)


CASES = [("ex1", fixtures.ex1()), ("ex2", fixtures.ex2()), ("ex3", fixtures.ex3())] + [
    (f"{kind}-{seed}", seeded(kind, seed, n))
    for kind in ("convex", "quadratic")
    for seed, n in ((1, 8), (2, 33), (3, 64))
]


@pytest.mark.parametrize("name,f", CASES, ids=[c[0] for c in CASES])
def test_runs_equal_fraction_pipeline(name, f):
    for k, seed in ((f.n, 0), (2 * f.n - 1, 17)):
        run = run_qlft_1d_regular(f, k, rng_seed=seed)
        assert same(run, ref_run_regular(f, k, seed))
        assert same(digital_to_analog(run.final_state, seed), ref_analog(run.final_state, seed))
    assert same(run_qlft_1d_adaptive(f), ref_run_adaptive(f))
