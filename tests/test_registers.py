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
from hypothesis import assume, given, settings, strategies as st

from lftlab import fixtures, qlft
from lftlab.errors import DegenerateGrid
from lftlab.grids import DualGrid, FunctionSpec, RegularGrid
from lftlab.qlft import (
    AnalogEncoding,
    SimRun,
    StepRecord,
    attach_gradients,
    digital_to_analog,
    finalize_conjugate,
    geometric_attempts,
    indicator_postselect,
    prepare_superposition,
    run_qlft_1d_adaptive,
    run_qlft_1d_regular,
)
from lftlab.qstate import UNDEFINED, Amplitude, QState, label
from lftlab.transform import _adaptive_points, _slopes, discrete_gradients

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
    """Gradients by the Fraction formulas. Branch i's c_lo, when equal to
    branch i-1's c_hi, is that very word: an interior gradient is one word
    held by two branches."""
    c_hi = {}
    for lab in state.labels():
        x, x_next = lab.get("x"), lab.get("x_next")
        slope = UNDEFINED if x_next == UNDEFINED else (lab.get("f_next") - lab.get("f")) / (x_next - x)
        c_hi[lab.get("i")] = slope

    def add(lab):
        i, x, fv = lab.get("i"), lab.get("x"), lab.get("f")
        x_prev, f_prev = lab.get("x_prev"), lab.get("f_prev")
        c_lo = UNDEFINED if x_prev == UNDEFINED else (fv - f_prev) / (x - x_prev)
        if c_lo != UNDEFINED and c_lo == c_hi.get(i - 1):
            c_lo = c_hi[i - 1]
        return label(*lab.regs, ("c_lo", c_lo), ("c_hi", c_hi[i]))

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
    if f.n < 3:
        # the kernel needs three points; the run refuses two as it does
        with pytest.raises(DegenerateGrid, match=r"^need n >= 3 primal points, got 2$"):
            run_qlft_1d_adaptive(f)
        return
    assert same(run_qlft_1d_adaptive(f), ref_run_adaptive(f))
    # the kernel's centered points, which the adaptive run reads
    points = list(map(F, *_adaptive_points(_slopes(f.ratios, f.grid.gamma), "centered")))
    labs = ref_gradients(prepare_superposition(f)).labels()
    assert points == [ref_centered(lab.get("c_lo"), lab.get("c_hi")) for lab in labs]


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


def exact(f):
    """The spec over the exact Fraction values of its samples."""
    return FunctionSpec(f.grid, tuple(map(F, f.samples)))


EDGES = {
    # floats convert exactly: dyadic samples, and samples like 0.1 whose
    # binary expansions need wide denominators
    "float-dyadic": FunctionSpec(RegularGrid(F(-3, 2), F(1, 2), 6), (2.25, 1.0, 0.25, 0.0, 0.25, 1.0)),
    "float-wide": FunctionSpec(RegularGrid(0, F(1, 3), 4), (0.0, 0.1, 0.3, 0.7)),
    # its dual range is one point: the canonical grid has zero spacing
    "constant": fixtures.constant(F(-5, 3), n=5),
    # refused by both runs, as by the kernel
    "two-points": FunctionSpec(RegularGrid(F(-3, 2), F(2, 7), 2), (F(1, 3), F(-2, 5))),
    # gradients -1, 0, 0, 2: zero words in the gradient and dual registers
    "zero-gradient": FunctionSpec(RegularGrid(0, 1, 5), (F(2), F(1), F(1), F(1), F(3))),
    "negative-x0": FunctionSpec(
        RegularGrid(F(-17, 6), F(3, 4), 6), tuple(F(i * i, 5) - F(7, 3) * i for i in range(6))
    ),
    # pairwise coprime sample denominators: no two words share a denominator
    "coprime-denominators": FunctionSpec(
        RegularGrid(F(-2, 3), F(5, 7), 6),
        tuple(i * i + F(1, p) for i, p in enumerate((1009, 1013, 1019, 1021, 1031, 1033))),
    ),
}


@pytest.mark.parametrize("f", EDGES.values(), ids=EDGES.keys())
def test_edge_inputs_equal_fraction_pipeline(f):
    ref = exact(f)
    if f.n < 3:
        for run in (run_qlft_1d_adaptive, lambda f: run_qlft_1d_regular(f, 3)):
            with pytest.raises(DegenerateGrid, match=r"^need n >= 3 primal points, got 2$"):
                run(f)
        return
    for k, seed in ((f.n, 3), (2 * f.n + 1, 11)):
        assert same(run_qlft_1d_regular(f, k, rng_seed=seed), ref_run_regular(ref, k, seed))
    assert same(run_qlft_1d_adaptive(f), ref_run_adaptive(ref))


def counted_calls(run, f, *args):
    """How often ``run`` calls ``qlft.reduced`` and ``Fraction.as_integer_ratio``."""
    calls = {"reduced": 0, "as_integer_ratio": 0}
    reduced, ratio = qlft.reduced, F.as_integer_ratio

    def counting(name, fn):
        def wrapped(*a):
            calls[name] += 1
            return fn(*a)

        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qlft, "reduced", counting("reduced", reduced))
        mp.setattr(F, "as_integer_ratio", counting("as_integer_ratio", ratio))
        run(f, *args)
    return calls


@pytest.mark.parametrize("kind", ["convex", "quadratic"])
def test_one_call_runs_make_one_fraction_per_final_word(kind):
    # the runs compute on ints: one reduced per final word plus O(1), and
    # no word's ratio read per branch
    n = 64
    f = seeded(kind, 5, n)
    for k in (n, 3 * n):
        calls = counted_calls(run_qlft_1d_regular, f, k)
        assert calls["reduced"] <= k + n + 3
        assert calls["as_integer_ratio"] <= 8
    calls = counted_calls(run_qlft_1d_adaptive, f)
    assert calls["reduced"] <= 3 * n
    assert calls["as_integer_ratio"] <= 8


def primes_above(lo, count):
    """The ``count`` least primes above ``lo``."""
    found, p = [], lo
    while len(found) < count:
        p += 1
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            found.append(p)
    return found


def widest_denominator(run, f, *args):
    """The bit length of the widest denominator ``run`` passes to ``qlft.reduced``."""
    widest = 0
    reduced = qlft.reduced

    def measuring(n, d):
        nonlocal widest
        widest = max(widest, d.bit_length())
        return reduced(n, d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qlft, "reduced", measuring)
        run(f, *args)
    return widest


NARROW = {
    # f_i = i^2 + 1/p_i over distinct primes p_i: one denominator for all
    # samples would hold all n primes and grow with n; each word here holds
    # a few of them and the width of the dual grid's spacing
    "coprime": (
        FunctionSpec(RegularGrid(0, 1, 64), tuple(i * i + F(1, p) for i, p in enumerate(primes_above(1000, 64)))),
        80,
        80,
    ),
    # samples over one q = 1009 * 1013 (20 bits): each slope and centered
    # point stays over q times the grid's factors, not over q^2 or q^4
    "one-denominator": (
        FunctionSpec(
            RegularGrid(F(-2, 3), F(5, 7), 64), tuple(F(7 * i * i + 3 * i + 1, 1009 * 1013) for i in range(64))
        ),
        56,
        32,
    ),
}


@pytest.mark.parametrize("f,regular,adaptive", NARROW.values(), ids=NARROW.keys())
def test_register_words_stay_narrow(f, regular, adaptive):
    assert widest_denominator(run_qlft_1d_regular, f, f.n) <= regular
    assert widest_denominator(run_qlft_1d_adaptive, f) <= adaptive


def fresh(word):
    """An equal word that is a distinct object (UNDEFINED stays itself)."""
    return word if word == UNDEFINED else F(word.numerator, word.denominator)


@given(f=specs())
@settings(max_examples=60, deadline=None)
def test_gradients_computes_each_interior_gradient_once(f):
    calls = []
    slope = qlft._slope
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qlft, "_slope", lambda *words: calls.append(words) or slope(*words))
        got = attach_gradients(prepare_superposition(f))
    assert len(calls) == f.n - 1
    labs = got.labels()
    for lo, hi in zip(labs, labs[1:]):
        assert hi.get("c_lo") is lo.get("c_hi")


@given(f=specs(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_gradients_of_rebuilt_or_permuted_branches_follow_the_formulas(f, data):
    # branches whose neighbor words are equal but distinct objects, or that
    # come in another order, compute their own gradients
    prepared = prepare_superposition(f)
    names = reg_names(prepared.entries[0][0])
    rebuilt = data.draw(st.sets(st.integers(0, f.n - 1)))
    entries = [
        (label(*((n, lab.get(n) if n == "i" else fresh(lab.get(n))) for n in names)), a)
        if lab.get("i") in rebuilt
        else (lab, a)
        for lab, a in prepared.entries
    ]
    state = QState(tuple(data.draw(st.permutations(entries))))
    got = attach_gradients(state)
    assert [lab.get("i") for lab in got.labels()] == [lab.get("i") for lab in state.labels()]
    by_i = {lab.get("i"): lab for lab in got.labels()}
    for ref in ref_gradients(state).labels():
        lab = by_i[ref.get("i")]
        assert lab == ref
        assert all(type(lab.get(c)) is type(ref.get(c)) for c in ("c_lo", "c_hi"))
    assert by_i[0].get("c_lo") is UNDEFINED and by_i[f.n - 1].get("c_hi") is UNDEFINED


def fstar_state(values):
    return QState.uniform(label(("j", j), ("fstar", v)) for j, v in enumerate(values))


HIGH = F(3**90 + 1, 7**40)
ANALOG_CASES = {
    "negative-max": [F(1), F(-5), F(3, 2), F(0), F(-9, 2)],
    "tied-max": [F(4, 3), F(1, 7), F(-4, 3), F(0)],
    "tied-max-negative-first": [F(-8, 6), F(4, 3), F(1, 2)],
    "single-nonzero": [F(0), F(0), F(-7, 3), F(0)],
    "single-branch": [F(5, 11)],
    "high-bit": [HIGH, -HIGH / 3, F(2**200 - 1, 3**101), F(-(2**130), 5**50), F(1, 10**40)],
}


@pytest.mark.parametrize("values", ANALOG_CASES.values(), ids=ANALOG_CASES.keys())
def test_analog_encoding_edge_cases(values):
    state = fstar_state(values)
    for seed in (0, 7):
        assert same(digital_to_analog(state, rng_seed=seed), ref_analog(state, seed))


@given(values=st.lists(rationals(10**30, 10**20), min_size=1, max_size=12), seed=st.integers(0, 99))
@settings(max_examples=100, deadline=None)
def test_analog_encoding_equals_fraction_formulas(values, seed):
    assume(any(v != 0 for v in values))
    state = fstar_state(values)
    assert same(digital_to_analog(state, rng_seed=seed), ref_analog(state, seed))
