"""Register-level simulation of the one-dimensional quantum transforms.

The stochastic regular pipeline mirrors the four algorithmic steps:
uniform superposition with three-point stencils, gradient registers,
copy-slot expansion with an acceptance indicator that is measured and
post-selected, and the final conjugate arithmetic with uncomputation.
Post-selection success has exactly rational probability K/(N W). The 1D
post-selection and each regular nD pass (``qlft_nd``) keep copy slots by
one rule (``_keep``). Every run ends in one record (``_finish``): geometric
retries from a seeded generator and an expected amplitude-amplification
count (accounted, not simulated at gate level), both at the product of its
pass acceptances and 0 when a pass rejected every branch.

The adaptive pipeline is deterministic: each branch derives its own dual
point from its local gradient registers and finishes garbage-free.

The one-call runs compute on int words, as the nD simulator does: x_i =
X_i / den on the grid's ``progression``, f_i = F_i / D over D, the lcm of
the samples' denominators, the gradients c_i = G_i / (D p) and the
centered points S_i / (2 D p). Nondecreasing G is a run's one convexity
check, and post-selection counts on the G with the rule kernel
(``transform._rule``). A ``Fraction`` is made once per final word, through
``rational.reduced``. The public steps (``prepare_superposition``,
``attach_gradients``, ``indicator_postselect``, ``finalize_conjugate``)
are the boundary for hand-built states of ``Fraction`` or float words: each
builds its output schema once, reads its registers at positions looked up
by name once, and passes the words' integer ratios (``as_integer_ratio``,
exact for floats) to the int formulas the runs use: the slope ``_rise``,
the centered point ``_mid`` and s*x - f ``_value``. There an interior
gradient c_i is one word, held by branch i as ``c_hi`` and by branch i + 1
as ``c_lo``, and post-selection checks the gathered ``c_hi`` words as
``GradientVector`` does (``grids._checked_ratios``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from typing import Optional, Sequence

from .errors import (
    AcceptanceMismatch,
    AllZeroValues,
    EmptyAcceptance,
    MalformedState,
    NotPowerOfTwo,
)
from .grids import DualGrid, FunctionSpec, _checked_ratios
from .qstate import UNDEFINED, Amplitude, BasisLabel, QState, Schema, _schema, is_undefined
from .rational import Vec, exact_sum, nondecreasing, reduced, split
from .transform import _gradients, _rule, regular_dual_grid


@dataclass(frozen=True)
class StepRecord:
    name: str
    label_count: int
    norm_sq: Fraction
    acceptance: Optional[Fraction] = None


@dataclass(frozen=True)
class PostSelection:
    success_probability: Fraction
    attempts: int
    w: int
    expanded: int
    accepted: int


@dataclass(frozen=True)
class SimRun:
    final_state: QState
    success_probability: Fraction
    attempts: int
    expected_aa_repetitions: int
    rng_seed: int
    step_trace: tuple[StepRecord, ...]
    pass_acceptances: tuple[Fraction, ...] = ()
    verification: Optional["object"] = None


def _check_pow2(n: int, what: str, strict: bool) -> None:
    # The algorithmic statement sizes registers as qubits, which wants
    # powers of two; the register-level simulation has no such need, so the
    # check is opt-in (the worked 5-point examples are simulated as-is).
    if strict and not (n >= 1 and (n & (n - 1)) == 0):
        raise NotPowerOfTwo(f"{what} = {n} is not a power of two")


def prepare_superposition(f: FunctionSpec) -> QState:
    """Uniform superposition over i with three adjacent points per branch."""
    if f.n > 2:  # two points are always convex; the kernel needs three
        _gradients(f)
    return _superposed(f.grid.points(), f.samples)


def _superposed(xs: Sequence, fs: Sequence) -> QState:
    """The superposition over the points' and the samples' words; the
    out-of-grid neighbors of branches 0 and n - 1 are UNDEFINED."""
    schema = _schema(("i", "x_prev", "x", "x_next", "f_prev", "f", "f_next"), 7)
    rows = zip(
        range(len(xs)), (UNDEFINED, *xs[:-1]), xs, (*xs[1:], UNDEFINED),
        (UNDEFINED, *fs[:-1]), fs, (*fs[1:], UNDEFINED),
    )
    return QState.uniform([BasisLabel(schema, values) for values in rows])


def _read(state: QState, *names: str) -> tuple[Schema, list[int]]:
    """A step's input schema and the positions of the registers it reads,
    looked up once; an empty state reads them from a schema of just those."""
    state.require_regs(*names)
    schema = state.entries[0][0].schema if state.entries else _schema(names, len(names))
    return schema, [schema.index[name] for name in names]


def attach_gradients(state: QState) -> QState:
    """Append the two local gradients (c_{i-1}, c_i) to every branch.

    A branch whose (x_prev, f_prev, x, f) are the very words the branch
    before it held as (x, f, x_next, f_next), as in a prepared state, takes
    that branch's c_hi as its c_lo: the interior gradient is one word. Any
    other branch computes its c_lo from its own words.
    """
    schema, (_, px, pf, pxn, pfn, pxp, pfp) = _read(
        state, "i", "x", "f", "x_next", "f_next", "x_prev", "f_prev"
    )
    n = schema.n_regs
    out = _schema((*schema.names[:n], "c_lo", "c_hi"), n + 2)
    entries = []
    # the previous branch's (x, f, x_next, f_next) and c_hi
    x0 = f0 = x1 = f1 = c_prev = None
    for lab, amp in state.entries:
        v = lab._values
        x, fv, x_prev, f_prev, x_next, f_next = v[px], v[pf], v[pxp], v[pfp], v[pxn], v[pfn]
        if is_undefined(x_prev):
            c_lo = UNDEFINED
        elif x_prev is x0 and f_prev is f0 and x is x1 and fv is f1:
            c_lo = c_prev
        else:
            c_lo = _slope(x_prev, f_prev, x, fv)
        c_hi = UNDEFINED if is_undefined(x_next) else _slope(x, fv, x_next, f_next)
        entries.append((BasisLabel(out, (*v[:n], c_lo, c_hi)), amp))
        x0, f0, x1, f1, c_prev = x, fv, x_next, f_next, c_hi
    return QState(entries=tuple(entries))


def _rise(x0: int, x1: int, xd: int, y0: int, y1: int, yd: int) -> tuple[int, int]:
    """The slope (y1 - y0) / (x1 - x0) of words x over xd and y over yd,
    unreduced."""
    return (y1 - y0) * xd, (x1 - x0) * yd


def _mid(lo: int, hi: int, d: int) -> tuple[int, int]:
    """The centered dual point (lo + hi) / (2 d) of two gradients over d,
    unreduced."""
    return lo + hi, 2 * d


def _value(sn: int, fn: int, d: int, xn: int, xd: int) -> Fraction:
    """s*x - f for s = sn/d and f = fn/d over one d and x = xn/xd, one
    Fraction."""
    return reduced(sn * xn - fn * xd, d * xd)


def _slope(x0, y0, x1, y1) -> Fraction:
    """``_rise`` of Fraction or float words, on their integer ratios."""
    (a, b), (c, d) = x0.as_integer_ratio(), x1.as_integer_ratio()
    (e, g), (h, k) = y0.as_integer_ratio(), y1.as_integer_ratio()
    return reduced(*_rise(a * d, c * b, b * d, e * k, h * g, g * k))


def _dual_value(sn: int, sd: int, x, f) -> Fraction:
    """``_value`` at s = sn/sd for Fraction or float words x and f."""
    (xn, xd), (fn, fd) = x.as_integer_ratio(), f.as_integer_ratio()
    return _value(sn * fd, fn * sd, sd * fd, xn, xd)


def _gather_gradients(state: QState) -> Vec:
    """Reassemble c_0..c_{n-2} from the branch gradient registers, as the
    ratios the rule kernel reads, split once and checked as a
    ``GradientVector``'s are."""
    _, (pi, pc) = _read(state, "i", "c_hi")
    n = len(state)
    c: list = [None] * (n - 1)
    for lab, _ in state.entries:
        i = lab._values[pi]
        if i < n - 1:
            c[i] = lab._values[pc]
    if any(v is None or is_undefined(v) for v in c):
        raise MalformedState("gradient registers are incomplete")
    return _checked_ratios(c)


def centered_dual(c_lo, c_hi):
    """A branch's centered adaptive dual point from its two local gradients;
    a boundary branch, whose missing gradient is UNDEFINED, takes the other."""
    if is_undefined(c_lo):
        return c_hi
    if is_undefined(c_hi):
        return c_lo
    (a, b), (c, d) = c_lo.as_integer_ratio(), c_hi.as_integer_ratio()
    return reduced(*_mid(a * d, c * b, b * d))


def retry_totals(p: Fraction, rng: random.Random, trials: int) -> tuple[int, int]:
    """(total tries, first-try successes) of ``trials`` trials drawn in turn
    from ``rng``, each retrying post-selection until its first success.

    A trial's tries are its draws up to the first one below p, so the first
    T' trials of a T-trial draw are a T'-trial draw from the same stream.
    At p = 1 every trial succeeds at once and nothing is drawn.
    """
    if p <= 0:
        raise EmptyAcceptance("success probability is zero")
    pf = float(p)
    if pf >= 1:
        return trials, trials
    draw = rng.random
    total = first = 0
    for _ in range(trials):
        attempts = 1
        while draw() >= pf:
            attempts += 1
        total += attempts
        first += attempts == 1
    return total, first


def geometric_attempts(p: Fraction, rng: random.Random) -> int:
    """Number of post-selection tries until the first success."""
    return retry_totals(p, rng, 1)[0]


def aa_repetitions(p: Fraction) -> int:
    """Amplitude-amplification rounds at success probability p > 0."""
    return math.ceil((math.pi / 4) * math.sqrt(1 / float(p)))


def indicator_postselect(
    state: QState, dual: DualGrid, rng_seed: int = 0
) -> tuple[QState, PostSelection]:
    """Expand copy slots, measure the membership flag, keep the 1-branch.

    The success branch holds exactly K labels, renormalized to a uniform
    superposition and relabeled by dual index with optimizer registers.
    """
    counts = _rule(dual)(_gather_gradients(state))
    post, success, w = _slots(state, counts, dual.k)
    return post, PostSelection(
        success_probability=success,
        attempts=geometric_attempts(success, random.Random(rng_seed)),
        w=w,
        expanded=len(state) * w,
        accepted=dual.k,
    )


def _slots(state: QState, counts: list[int], k: int) -> tuple[QState, Fraction, int]:
    """Expand branch i into its counts[i] accepted copy slots (j, x_star,
    f_at_star, m, i), j counting on from the slots of the branches before
    it, and keep them (``_keep``): the post-selected state, its acceptance
    and w = max(counts). The slots must number k."""
    firsts = list(accumulate(counts, initial=0))
    accepted = firsts[-1]
    if accepted == 0:
        raise EmptyAcceptance("no (index, copy) pair is accepted")
    if accepted != k:
        raise AcceptanceMismatch(f"{accepted} accepted pairs for {k} dual points")
    w = max(counts)
    _, (pi, px, pf) = _read(state, "i", "x", "f")
    out = _schema(("j", "x_star", "f_at_star", "m", "i"), 5)
    kept = []
    for lab, _ in state.entries:
        v = lab._values
        i, x, fv = v[pi], v[px], v[pf]
        kept.extend(BasisLabel(out, (firsts[i] + m, x, fv, m, i)) for m in range(counts[i]))
    return (*_keep(kept, len(state), w), w)


def _keep(kept: list, branches: int, w: int) -> tuple[QState, Fraction]:
    """The accepted copy slots, sorted by their first register j and
    renormalized (the zero state if none survive), and the acceptance
    survivors / (branches * w)."""
    kept.sort(key=lambda lab: lab._values[0])
    post = QState.uniform(kept) if kept else QState(entries=())
    return post, reduced(len(kept), branches * w)


def finalize_conjugate(state: QState, dual: DualGrid) -> QState:
    """Compute f*(s_j) = s_j x*_j - f(x*_j), uncompute f, keep garbage."""
    _, (pj, px, pf, pm, pi) = _read(state, "j", "x_star", "f_at_star", "m", "i")
    out = _schema(("j", "fstar", "x_star", "m", "i"), 2)
    sn, sd = dual.point_ratios()

    def fin(lab: BasisLabel) -> BasisLabel:
        v = lab._values
        j, x = v[pj], v[px]
        return BasisLabel(out, (j, _dual_value(sn[j], sd[j], x, v[pf]), x, v[pm], v[pi]))

    return state.map_labels(fin)


def _trace(steps: list[StepRecord], name: str, state: QState, acceptance=None) -> None:
    steps.append(StepRecord(name, len(state), state.norm_sq(), acceptance))


def _finish(state, steps, success, pass_acceptances, rng_seed=0, verification=None) -> SimRun:
    """Every route's run record: one geometric draw from ``rng_seed`` and
    ``aa_repetitions`` at ``success``, 0 and 0 if no branch survived."""
    survived = state is not None
    return SimRun(
        final_state=state,
        success_probability=success,
        attempts=geometric_attempts(success, random.Random(rng_seed)) if survived else 0,
        expected_aa_repetitions=aa_repetitions(success) if survived else 0,
        rng_seed=rng_seed,
        step_trace=tuple(steps),
        pass_acceptances=pass_acceptances,
        verification=verification,
    )


def _int_gradients(f: FunctionSpec, steps: list[StepRecord]) -> tuple:
    """A one-call run's superposition and gradient steps on int words:
    x_i = xs[i] / den on the grid's ``progression``, f_i = fs[i] / d over d,
    the lcm of the samples' denominators, and c_i = g[i] / gd[i], where
    every gd[i] is p * d. The int gradients are the run's one convexity
    check; on a decrease ``_gradients`` raises its exact error."""
    a, p, den = f.grid.progression
    fn, fd = f.ratios
    d = lcm(*set(fd))
    xs = list(range(a, a + f.n * p, p))
    fs = [v * (d // q) for v, q in zip(fn, fd)]
    g, gd = zip(*map(_rise, xs, xs[1:], repeat(den), fs, fs[1:], repeat(d)))
    if not nondecreasing((g, gd)):
        _gradients(f)
    state = _superposed(xs, fs)
    _trace(steps, "superposition", state)
    out = _schema((*state.entries[0][0].schema.names, "c_lo", "c_hi"), 9)
    state = QState.uniform([
        BasisLabel(out, (*lab._values, lo, hi))
        for (lab, _), lo, hi in zip(state.entries, (UNDEFINED, *g), (*g, UNDEFINED))
    ])
    _trace(steps, "gradients", state)
    return state, xs, fs, den, d, g, gd


def run_qlft_1d_regular(
    f: FunctionSpec, k: int, rng_seed: int = 0, strict_pow2: bool = False
) -> SimRun:
    """Full stochastic pipeline on the canonical regular dual grid, on int
    words; each final word is made a ``Fraction`` once."""
    _check_pow2(f.n, "N", strict_pow2)
    _check_pow2(k, "K", strict_pow2)
    steps: list[StepRecord] = []
    state, xs, _, den, d, g, gd = _int_gradients(f, steps)
    dual = regular_dual_grid((reduced(g[0], gd[0]), reduced(g[-1], gd[-1])), k)
    if f.n < 3:
        _checked_ratios(g)  # raises DegenerateGrid: one gradient
    state, success, _ = _slots(state, _rule(dual)((g, gd)), k)
    _trace(steps, "postselect", state, acceptance=success)
    # s_j = (sa + j*sp) / sd and f_i = fs[i] / d, both over sd * d
    sa, sp, sd = dual.progression
    sa, sp, sdd = sa * d, sp * d, sd * d
    words = [reduced(x, den) for x in xs]  # the slots of a branch share its x_star
    out = _schema(("j", "fstar", "x_star", "m", "i"), 2)
    state = QState.uniform([
        BasisLabel(out, (j, _value(sa + j * sp, fv * sd, sdd, x, den), words[i], m, i))
        for j, x, fv, m, i in [lab._values for lab, _ in state.entries]
    ])
    _trace(steps, "conjugate", state)
    return _finish(state, steps, success, (success,), rng_seed=rng_seed)


def run_qlft_1d_adaptive(f: FunctionSpec, strict_pow2: bool = False) -> SimRun:
    """Deterministic adaptive pipeline on int words; no garbage registers
    remain, and each final word is made a ``Fraction`` once."""
    _check_pow2(f.n, "N", strict_pow2)
    steps: list[StepRecord] = []
    state, xs, fs, den, d, g, gd = _int_gradients(f, steps)
    # a boundary branch's point is its one gradient, the midpoint of it and itself
    s, sd = zip(*map(_mid, (g[0], *g), (*g, g[-1]), repeat(gd[0])))
    picked = _schema(("i", "x", "f", "s"), 4)
    state = QState.uniform([BasisLabel(picked, row) for row in zip(range(f.n), xs, fs, s)])
    _trace(steps, "adaptive-dual", state)
    # at n = 2 both branches' point is c_0, one word
    points = [reduced(v, q) for v, q in zip(s, sd)] if f.n > 2 else [reduced(s[0], sd[0])] * 2
    lift = sd[0] // d  # f_i = fs[i] * lift / sd[i]
    final = _schema(("i", "x", "s", "fstar"), 4)
    state = QState.uniform([
        BasisLabel(final, (i, reduced(x, den), pt, _value(v, fv * lift, q, x, den)))
        for i, x, fv, v, q, pt in zip(range(f.n), xs, fs, s, sd, points)
    ])
    _trace(steps, "conjugate", state)
    return _finish(state, steps, Fraction(1), (Fraction(1),))


@dataclass(frozen=True)
class AnalogEncoding:
    state: QState
    omega: Fraction
    expected_attempts: float
    attempts: int


def digital_to_analog(state: QState, rng_seed: int = 0) -> AnalogEncoding:
    """Move register values into amplitudes: (1/sqrt(a)) sum_j v_j |j>.

    omega = (1/K) sum_j (v_j / max|v|)^2 = alpha / (K max|v|^2) is the
    per-try success weight; the expected repetition count is modeled as
    sqrt(1/omega).
    """
    _, (pj, pv) = _read(state, "j", "fstar")
    nums, dens = split(lab._values[pv] for lab, _ in state.entries)
    sq_nums, sq_dens = [p * p for p in nums], [q * q for q in dens]
    mn, md = 0, 1  # max v^2, by cross products
    for p2, q2 in zip(sq_nums, sq_dens):
        if p2 * md > mn * q2:
            mn, md = p2, q2
    if mn == 0:
        raise AllZeroValues("cannot amplitude-encode the zero vector")
    alpha = exact_sum(sq_nums, sq_dens)
    an, ad = alpha.as_integer_ratio()
    omega = reduced(an * md, ad * len(nums) * mn)
    one = _schema(("j",), 1)
    entries = []
    for (lab, _), p, p2, q2 in zip(state.entries, nums, sq_nums, sq_dens):
        if p == 0:
            continue  # zero-amplitude branches drop out of the support
        # v^2 / alpha for v = p/q
        amp = Amplitude(sign=1 if p > 0 else -1, sq=reduced(p2 * ad, q2 * an))
        entries.append((BasisLabel(one, (lab._values[pj],)), amp))
    encoded = QState(entries=tuple(entries))
    rng = random.Random(rng_seed)
    attempts = geometric_attempts(omega, rng)
    return AnalogEncoding(
        state=encoded,
        omega=omega,
        expected_attempts=math.sqrt(1 / float(omega)),
        attempts=attempts,
    )


def conjugate_pairs(run: SimRun) -> tuple[tuple[int, Fraction], ...]:
    """(j, f*(s_j)) pairs of a successful regular run, sorted by j."""
    return tuple(sorted((lab.get("j"), lab.get("fstar")) for lab, _ in run.final_state.entries))
