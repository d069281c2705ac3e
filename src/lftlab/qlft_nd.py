"""Register-level simulation of the nested multidimensional quantum passes.

Each pass applies the one-dimensional machinery along one axis (last axis
first). A branch carries the function value at its center and at the
remaining axes' neighbor offsets; after accepting copy slot m at dual
index j, the branch maps ALL carried rows with its own center optimizer:

    new_value[row] = old_value[row] - s_j * x_{i*}

which is exact for the center row and an unverified shortcut for the
neighbor rows (their own optimizer may differ). Passes that still have
axes left to transform additionally require the copy slot to be accepted
by the immediate neighbor slots ("three-point" condition, evaluated only
over in-range neighbors). Because of this shortcut every run is VERIFIED
against the brute maximum (``multi.lft_nd_brute``) at the dual points the
run itself names: the product of a regular run's per-axis grids, each
adaptive label's own s registers. The outcome is reported, never assumed:
a MISMATCH is a finding, not a crash.

Pass structure (shared dual grids, per-slice acceptance counts and first
dual indices) comes from one classical cascade of the nested passes, run
before the passes over the exact intermediate tensors; branch values flow
through the stated register arithmetic only.

Branches are the labels of one ``QState`` per step: registers j (the
coordinates), f (the center value), f_prev{axis}/f_next{axis} per axis not
yet passed and s{axis} per passed axis, garbage i{axis} (and m{axis} in
regular mode). Each step records its computed norm, 0 if nothing survives.
The value registers f and f_prev/f_next hold ints over one shared
denominator D per run, widened once per pass as in ``multi`` (Fractions
over D = 1 past ``multi.MAX_SHARED_BITS``); the s registers hold the dual
points, and the negate step makes the Fractions fstar = -f / D.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from typing import Optional, Sequence

from .errors import InvalidK
from .grids import DualGrid
from .multi import TensorSamples, lft_nd_brute
from .multi import _brute, _cascade, _dual_products, _lift, _rescale
from .qlft import SimRun, StepRecord, _check_pow2, _trace, geometric_attempts
from .rational import progression
from .qstate import UNDEFINED, BasisLabel, QState, Schema, _schema, is_undefined

MATCH = "MATCH"
MISMATCH = "MISMATCH"


@dataclass(frozen=True)
class VerificationReport:
    status: str
    missing: tuple
    extra: tuple
    value_mismatches: tuple
    rng_seed: int
    dual_grids: tuple = ()  # per-axis grids the comparison ran on (regular mode)


def _superposition(shape: tuple[int, ...], flat: list) -> QState:
    """Uniform superposition over the grid indices j; each branch carries its
    center value f and, per axis, the rows f_prev{axis} and f_next{axis}."""
    names = ("j", "f", *(f"f_{s}{axis}" for axis in range(len(shape)) for s in ("prev", "next")))
    schema = _schema(names, len(names))
    # per axis: the last index and the flat stride
    axes = [(n - 1, math.prod(shape[axis + 1 :])) for axis, n in enumerate(shape)]
    labels = []
    for pos, idx in enumerate(product(*map(range, shape))):
        values = [idx, flat[pos]]
        for i, (last, stride) in zip(idx, axes):
            values.append(flat[pos - stride] if i > 0 else UNDEFINED)
            values.append(flat[pos + stride] if i < last else UNDEFINED)
        labels.append(BasisLabel(schema, tuple(values)))
    return QState.uniform(labels)


def _run_nd(f: TensorSamples, rng_seed: int, mode: str, ks: Optional[tuple] = None) -> SimRun:
    f.require_convex_axes()
    rng = random.Random(rng_seed)
    steps: list[StepRecord] = []
    flat, *den = _lift(f.values.flat)
    state = _superposition(f.values.shape, flat)
    _trace(steps, "superposition", state)
    pass_accepts: list[Fraction] = []
    duals = None
    if mode == "regular":
        # the pass structure; intermediate lines may be discretely nonconvex,
        # where the cascade's rule still defines the counts the passes gate on
        duals, counts, _, _ = _cascade(f, ks=ks, check_convex=False)

    for axis in range(f.d - 1, -1, -1):
        if mode == "regular":
            state, acceptance, den = _regular_pass(state, f, axis, den, duals[axis], counts[axis])
        else:
            state, acceptance, den = _adaptive_pass(state, f, axis, den)
        pass_accepts.append(acceptance)
        _trace(steps, f"pass-axis{axis}", state, acceptance)
        if not state.entries:
            # The neighbor-slot condition rejected every branch; the
            # stated measurement can never show outcome 1. Reported,
            # not raised: the verification marks every label missing.
            break

    success = math.prod(pass_accepts, start=Fraction(1))

    if not state.entries:
        final_state, attempts, expected_aa = None, 0, 0
    else:
        attempts = geometric_attempts(success, rng) if success < 1 else 1
        # registers j, f, s0..s{d-1}, then the garbage
        schema = state.entries[0][0].schema
        final = _schema(("j", "fstar", "s", *schema.names[2 + f.d :]), 3)
        D = den[0]

        def negate(lab: BasisLabel) -> BasisLabel:
            v = lab.values
            return BasisLabel(final, (v[0], Fraction(-v[1], D), v[2 : 2 + f.d], *v[2 + f.d :]))

        final_state = state.map_labels(negate)
        _trace(steps, "negate", final_state)
        expected_aa = math.ceil((math.pi / 4) * math.sqrt(1 / float(success)))

    verification = _verify(f, duals, final_state, rng_seed)
    return SimRun(
        final_state=final_state, success_probability=success, attempts=attempts,
        expected_aa_repetitions=expected_aa, rng_seed=rng_seed, step_trace=tuple(steps),
        pass_acceptances=tuple(pass_accepts), verification=verification,
    )


def _regular_pass(
    state: QState, f: TensorSamples, axis: int, den: list, dual: DualGrid, line_counts: dict
) -> tuple[QState, Fraction, list]:
    """Expand w copy slots per branch, keep the (branch, slot m) pairs the
    gates accept (slots m >= counts[i] fail membership and are not built),
    and renormalize over the survivors, sorted by j. ``line_counts`` are
    the cascade's counts of this pass, keyed by each line's fixed
    coordinates. Values arrive over den = [D, make] and leave over the
    returned one."""
    n_axis = f.grid.shape[axis]
    structure = {c: (k, list(accumulate(k, initial=0))) for c, k in line_counts.items()}
    w = max(map(max, line_counts.values()))
    three_point = axis > 0  # neighbor rows are still needed downstream
    schema = _pass_schema(state.entries[0][0].schema, axis, regular=True)
    points = dual.points()
    D, make, scale, _, sx = _dual_products(points, f.grid.axes[axis], *den)
    kept = []
    for lab, _ in state.entries:
        coords = lab.get("j")
        counts, firsts = structure[coords[:axis] + coords[axis + 1 :]]
        i = coords[axis]
        for m in range(counts[i]):
            if three_point and any(m >= counts[h] for h in (i - 1, i + 1) if 0 <= h < n_axis):
                continue
            j = firsts[i] + m
            kept.append(_advance(schema, lab, axis, j, points[j], sx[j][i], scale, (i, m)))
    kept.sort(key=lambda lab: lab.get("j"))
    acceptance = Fraction(len(kept), len(state) * w)
    return (QState.uniform(kept) if kept else QState(entries=())), acceptance, [D, make]


def _adaptive_pass(state: QState, f: TensorSamples, axis: int, den: list) -> tuple:
    """Each branch takes the centered dual point of its own axis rows: with
    gamma = p / dx and row values over D it is u * dx / (w * p * D), u the
    row difference across the branch and w 2 inside, 1 at a boundary, as
    ``multi.lft_nd_adaptive`` computes it."""
    D, make = den
    a0, p, dx = progression(f.grid.axes[axis].x0, f.grid.gamma)
    D2, make, scale = _rescale(D, make, 2 * p * D)
    # s * x_i = u * (a0 + i * p) / (w * p * D), over D2 per w
    per_w = (None, make(D2, p * D), make(D2, 2 * p * D))
    schema = _pass_schema(state.entries[0][0].schema, axis, regular=False)

    def step(lab: BasisLabel) -> BasisLabel:
        v = lab.values
        i = v[0][axis]
        # f, then the rows of axes 0..axis in pairs
        center, lo_v, hi_v = v[1], v[2 + 2 * axis], v[3 + 2 * axis]
        if is_undefined(lo_v):
            u, w = hi_v - center, 1
        elif is_undefined(hi_v):
            u, w = center - lo_v, 1
        else:
            u, w = hi_v - lo_v, 2
        s = Fraction(u * dx, w * p * D)
        return _advance(schema, lab, axis, i, s, u * (a0 + i * p) * per_w[w], scale, (i,))

    return state.map_labels(step), Fraction(1), [D2, make]


def _pass_schema(schema: Schema, axis: int, regular: bool) -> Schema:
    """The register layout after the pass along ``axis``: its two rows give
    way to s{axis}, and the garbage gains i{axis} (and m{axis} when regular).

    Registers run j, f, the rows of axes 0..axis in pairs, then the s of the
    axes already passed, and the garbage follows them.
    """
    names, n = schema.names, schema.n_regs
    added = (f"i{axis}", f"m{axis}") if regular else (f"i{axis}",)
    out = ("j", "f", *names[2 : 2 + 2 * axis], f"s{axis}", *names[4 + 2 * axis :], *added)
    return _schema(out, n - 1)


def _advance(
    schema: Schema, lab: BasisLabel, axis: int, j: int, s, shift, scale, added: tuple
) -> BasisLabel:
    """Relabel one branch after the pass along ``axis`` into ``schema``: the
    axis coordinate of j becomes the dual index, s{axis} holds the dual
    point, the axis' own rows are dropped, the garbage gains ``added``, and
    f and every row still carried map with the center optimizer onto the
    pass's denominator: value -> value * scale - shift, shift = s * x_i."""
    values = lab.values
    coords = list(values[0])
    coords[axis] = j
    rows = [v if is_undefined(v) else v * scale - shift for v in values[2 : 2 + 2 * axis]]
    return BasisLabel(
        schema,
        (tuple(coords), values[1] * scale - shift, *rows, s, *values[4 + 2 * axis :], *added),
    )


def _verify(f, duals, final_state, rng_seed) -> VerificationReport:
    """Judge the run's labels by the brute maximum at the dual points the
    run names: every multi-index of the product of a regular run's grids
    ``duals``, and each adaptive label (``duals`` None) at its own s.

    A multi-index no label reached is missing, a label outside the product
    is extra, and a label whose fstar differs from the brute value is a
    value mismatch, recorded as (j, fstar, brute value).
    """
    entries = () if final_state is None else final_state.entries
    got = {lab.get("j"): lab.get("fstar") for lab, _ in entries}
    if duals is not None:
        keys = list(product(*(range(g.k) for g in duals)))
        values, _ = _brute(f, [g.points() for g in duals], keys)
    else:
        keys = [lab.get("j") for lab, _ in entries]
        values = lft_nd_brute(f, [lab.get("s") for lab, _ in entries]).values.flat
    expect = dict(zip(keys, values))
    missing = tuple(sorted(set(expect) - set(got)))
    extra = tuple(sorted(set(got) - set(expect)))
    mismatches = tuple(
        (idx, got[idx], expect[idx])
        for idx in sorted(set(got) & set(expect))
        if got[idx] != expect[idx]
    )
    status = MATCH if not (missing or extra or mismatches) else MISMATCH
    return VerificationReport(
        status, missing, extra, mismatches, rng_seed, dual_grids=tuple(duals) if duals else ()
    )


def run_qlft_nd_regular(
    f: TensorSamples, ks: Sequence[int], rng_seed: int = 0, strict_pow2: bool = False
) -> SimRun:
    """Nested stochastic passes over shared regular dual grids.

    The returned run carries per-pass acceptance probabilities and a
    VerificationReport against the brute maximum on the product of the
    run's grids; agreement is reported, not assumed.
    """
    if len(ks) != f.d:
        raise ValueError("need one dual size per axis")
    if any(k < 2 for k in ks):
        raise InvalidK("need k >= 2 per axis")
    for axis, n in enumerate(f.grid.shape):
        _check_pow2(n, f"N{axis}", strict_pow2)
    for axis, k in enumerate(ks):
        _check_pow2(k, f"K{axis}", strict_pow2)
    return _run_nd(f, rng_seed, "regular", ks=tuple(ks))


def run_qlft_nd_adaptive(f: TensorSamples, strict_pow2: bool = False) -> SimRun:
    """Deterministic nested adaptive passes; the VerificationReport judges
    each label against the brute maximum at its own s registers."""
    for axis, n in enumerate(f.grid.shape):
        _check_pow2(n, f"N{axis}", strict_pow2)
    return _run_nd(f, 0, "adaptive")
