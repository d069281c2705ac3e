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

Each step, like each nD pass, builds its output schema once and reads its
registers at positions looked up by name once. Register arithmetic runs on
the words' integer ratios (``as_integer_ratio``, exact for float samples
too) and makes one ``Fraction`` per distinct word written, through
``rational.reduced``: an interior gradient c_i is one word, held by branch
i as ``c_hi`` and by branch i + 1 as ``c_lo``. Post-selection splits the
gathered ``c_hi`` words once and checks them on those ratios with the same
check as ``GradientVector`` (``grids._checked_ratios``), then counts with
the rule kernel (``transform._rule``) on the same ratios. The conjugate
step reads the dual points' ratios off the grid (``DualGrid.point_ratios``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .errors import (
    AcceptanceMismatch,
    AllZeroValues,
    EmptyAcceptance,
    MalformedState,
    NotPowerOfTwo,
)
from .grids import DualGrid, FunctionSpec, _checked_ratios
from .qstate import UNDEFINED, Amplitude, BasisLabel, QState, Schema, _schema, is_undefined
from .rational import Vec, exact_sum, reduced, split
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
    schema = _schema(("i", "x_prev", "x", "x_next", "f_prev", "f", "f_next"), 7)
    xs, fs = f.grid.points(), f.samples
    rows = zip(
        range(f.n), (UNDEFINED, *xs[:-1]), xs, (*xs[1:], UNDEFINED),
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


def _slope(x0, y0, x1, y1) -> Fraction:
    """(y1 - y0) / (x1 - x0) on the words' integer ratios."""
    (a, b), (c, d) = x0.as_integer_ratio(), x1.as_integer_ratio()
    (e, g), (h, k) = y0.as_integer_ratio(), y1.as_integer_ratio()
    return reduced((h * g - e * k) * b * d, g * k * (c * b - a * d))


def _dual_value(s: tuple[int, int], x, f) -> Fraction:
    """s*x - f for s = sn/sd on the words' integer ratios."""
    (sn, sd), (xn, xd), (fn, fd) = s, x.as_integer_ratio(), f.as_integer_ratio()
    return reduced(sn * xn * fd - fn * sd * xd, sd * xd * fd)


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
    return reduced(a * d + c * b, 2 * b * d)


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
    firsts = list(accumulate(counts, initial=0))
    accepted = firsts[-1]
    if accepted == 0:
        raise EmptyAcceptance("no (index, copy) pair is accepted")
    if accepted != dual.k:
        raise AcceptanceMismatch(f"{accepted} accepted pairs for {dual.k} dual points")
    w = max(counts)
    _, (pi, px, pf) = _read(state, "i", "x", "f")
    out = _schema(("j", "x_star", "f_at_star", "m", "i"), 5)
    kept = []
    for lab, _ in state.entries:
        v = lab._values
        i, x, fv = v[pi], v[px], v[pf]
        kept.extend(BasisLabel(out, (firsts[i] + m, x, fv, m, i)) for m in range(counts[i]))
    post, success = _keep(kept, len(state), w)
    return post, PostSelection(
        success_probability=success,
        attempts=geometric_attempts(success, random.Random(rng_seed)),
        w=w,
        expanded=len(state) * w,
        accepted=accepted,
    )


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
        return BasisLabel(out, (j, _dual_value((sn[j], sd[j]), x, v[pf]), x, v[pm], v[pi]))

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


def run_qlft_1d_regular(
    f: FunctionSpec, k: int, rng_seed: int = 0, strict_pow2: bool = False
) -> SimRun:
    """Full stochastic pipeline on the canonical regular dual grid."""
    _check_pow2(f.n, "N", strict_pow2)
    _check_pow2(k, "K", strict_pow2)
    steps: list[StepRecord] = []
    state = prepare_superposition(f)
    _trace(steps, "superposition", state)
    state = attach_gradients(state)
    _trace(steps, "gradients", state)
    # the range [c_0, c_{n-2}] is in the c_hi registers of branches 0 and n-2
    lo, hi = (state.entries[i][0].get("c_hi") for i in (0, f.n - 2))
    dual = regular_dual_grid((lo, hi), k)
    state, post = indicator_postselect(state, dual, rng_seed=rng_seed)
    _trace(steps, "postselect", state, acceptance=post.success_probability)
    state = finalize_conjugate(state, dual)
    _trace(steps, "conjugate", state)
    success = post.success_probability
    return _finish(state, steps, success, (success,), rng_seed=rng_seed)


def run_qlft_1d_adaptive(f: FunctionSpec, strict_pow2: bool = False) -> SimRun:
    """Deterministic adaptive pipeline; no garbage registers remain."""
    _check_pow2(f.n, "N", strict_pow2)
    steps: list[StepRecord] = []
    state = prepare_superposition(f)
    _trace(steps, "superposition", state)
    state = attach_gradients(state)
    _trace(steps, "gradients", state)

    _, (pi, px, pf, plo, phi) = _read(state, "i", "x", "f", "c_lo", "c_hi")
    picked = _schema(("i", "x", "f", "s"), 4)

    def pick_dual(lab: BasisLabel) -> BasisLabel:
        v = lab._values
        return BasisLabel(picked, (v[pi], v[px], v[pf], centered_dual(v[plo], v[phi])))

    state = state.map_labels(pick_dual)
    _trace(steps, "adaptive-dual", state)
    qi, qx, qf, qs = (picked.index[name] for name in ("i", "x", "f", "s"))
    final = _schema(("i", "x", "s", "fstar"), 4)

    def fin(lab: BasisLabel) -> BasisLabel:
        v = lab._values
        s, x = v[qs], v[qx]
        return BasisLabel(final, (v[qi], x, s, _dual_value(s.as_integer_ratio(), x, v[qf])))

    state = state.map_labels(fin)
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
