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
over in-range neighbors). Because of this shortcut the multidimensional
results are VERIFIED against the classical nested transform and the
outcome is reported, never assumed: a MISMATCH is a finding, not a crash.

Pass structure (shared dual grids, per-slice acceptance counts and first
dual indices) comes from one classical cascade of the nested passes, run
before the passes over the exact intermediate tensors; branch values flow
through the stated register arithmetic only.

Branches are the labels of one ``QState`` per step: registers j (the
coordinates), f (the center value), f_prev{axis}/f_next{axis} per axis not
yet passed and s{axis} per passed axis, garbage i{axis} (and m{axis} in
regular mode). Each step records its computed norm, 0 if nothing survives.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from typing import Optional, Sequence

from .errors import InvalidK, NonConvexSlice
from .grids import DualGrid
from .multi import TensorSamples, lft_nd_adaptive, lft_nd_brute, product_dual_points, _cascade
from .qlft import SimRun, StepRecord, _check_pow2, _trace, centered_dual, geometric_attempts
from .qstate import UNDEFINED, BasisLabel, QState, Schema, _schema, is_undefined, label

MATCH = "MATCH"
MISMATCH = "MISMATCH"
UNVERIFIED = "UNVERIFIED"


@dataclass(frozen=True)
class VerificationReport:
    status: str
    missing: tuple
    extra: tuple
    value_mismatches: tuple
    rng_seed: int
    note: str = ""
    dual_grids: tuple = ()  # per-axis grids the comparison ran on (regular mode)

    @property
    def ok(self) -> bool:
        return self.status == MATCH


def _superposition(f: TensorSamples) -> QState:
    """Uniform superposition over the grid indices j; each branch carries its
    center value f and, per axis, the rows f_prev{axis} and f_next{axis}."""
    shape, flat = f.values.shape, f.values.flat
    # per axis: the row names, the last index and the flat stride
    axes = [
        (f"f_prev{axis}", f"f_next{axis}", n - 1, math.prod(shape[axis + 1 :]))
        for axis, n in enumerate(shape)
    ]
    labels = []
    for pos, idx in enumerate(f.values.indices()):
        rows = []
        for i, (prev, nxt, last, stride) in zip(idx, axes):
            rows.append((prev, flat[pos - stride] if i > 0 else UNDEFINED))
            rows.append((nxt, flat[pos + stride] if i < last else UNDEFINED))
        labels.append(label(("j", idx), ("f", flat[pos]), *rows))
    return QState.uniform(labels)


def _run_nd(
    f: TensorSamples,
    rng_seed: int,
    mode: str,
    ks: Optional[Sequence[int]] = None,
) -> SimRun:
    f.require_convex_axes()
    rng = random.Random(rng_seed)
    steps: list[StepRecord] = []
    state = _superposition(f)
    _trace(steps, "superposition", state)
    pass_accepts: list[Fraction] = []
    duals = None
    if mode == "regular":
        # the pass structure; intermediate lines may be discretely nonconvex,
        # where the cascade's rule still defines the counts the passes gate on
        duals, assigns, _ = _cascade(f, ks=ks, check_convex=False)

    for axis in range(f.d - 1, -1, -1):
        if mode == "regular":
            state, acceptance = _regular_pass(state, f, axis, duals[axis], assigns[axis])
        else:
            state, acceptance = _adaptive_pass(state, f, axis), Fraction(1)
        pass_accepts.append(acceptance)
        _trace(steps, f"pass-axis{axis}", state, acceptance)
        if not state.entries:
            # The neighbor-slot condition rejected every branch; the
            # stated measurement can never show outcome 1. Reported,
            # not raised: the verification marks every label missing.
            break

    success = math.prod(pass_accepts, start=Fraction(1))

    if not state.entries:
        final_state = None
        attempts = 0
        expected_aa = 0
    else:
        attempts = geometric_attempts(success, rng) if success < 1 else 1
        # registers j, f, s0..s{d-1}, then the garbage
        schema = state.entries[0][0].schema
        final = _schema(("j", "fstar", "s", *schema.names[2 + f.d :]), 3)

        def negate(lab: BasisLabel) -> BasisLabel:
            v = lab.values
            return BasisLabel(final, (v[0], -v[1], v[2 : 2 + f.d], *v[2 + f.d :]))

        final_state = state.map_labels(negate)
        _trace(steps, "negate", final_state)
        expected_aa = math.ceil((math.pi / 4) * math.sqrt(1 / float(success)))

    verification = _verify(f, mode, duals, final_state, rng_seed)
    return SimRun(
        final_state=final_state,
        success_probability=success,
        attempts=attempts,
        expected_aa_repetitions=expected_aa,
        rng_seed=rng_seed,
        step_trace=tuple(steps),
        pass_acceptances=tuple(pass_accepts),
        verification=verification,
    )


def _regular_pass(
    state: QState, f: TensorSamples, axis: int, dual: DualGrid, assign: dict
) -> tuple[QState, Fraction]:
    """Expand w copy slots per branch, keep the (branch, slot m) pairs the
    gates accept (slots m >= counts[i] fail membership and are not built),
    and renormalize over the survivors, sorted by j."""
    n_axis = f.grid.shape[axis]
    counts_of: dict = {}
    for (comp, _), i in assign.items():
        counts_of.setdefault(comp, [0] * n_axis)[i] += 1
    structure = {c: (k, list(accumulate(k, initial=0))) for c, k in counts_of.items()}
    w = max(map(max, counts_of.values()))
    three_point = axis > 0  # neighbor rows are still needed downstream
    schema = _pass_schema(state.entries[0][0].schema, axis, regular=True)
    kept = []
    for lab, _ in state.entries:
        coords = lab.get("j")
        counts, firsts = structure[coords[:axis] + coords[axis + 1 :]]
        i = coords[axis]
        x_i = f.grid.axes[axis].point(i)
        for m in range(counts[i]):
            if three_point and any(m >= counts[h] for h in (i - 1, i + 1) if 0 <= h < n_axis):
                continue
            j = firsts[i] + m
            kept.append(_advance(schema, lab, axis, i, j, dual.point(j), x_i, m))
    kept.sort(key=lambda lab: lab.get("j"))
    acceptance = Fraction(len(kept), len(state) * w)
    return (QState.uniform(kept) if kept else QState(entries=())), acceptance


def _adaptive_pass(state: QState, f: TensorSamples, axis: int) -> QState:
    """Each branch takes the centered dual point of its own axis rows."""
    gamma = f.grid.gamma
    lo_name, hi_name = f"f_prev{axis}", f"f_next{axis}"
    schema = _pass_schema(state.entries[0][0].schema, axis, regular=False)

    def step(lab: BasisLabel) -> BasisLabel:
        i = lab.get("j")[axis]
        center, lo_v, hi_v = lab.get("f"), lab.get(lo_name), lab.get(hi_name)
        c_lo = UNDEFINED if is_undefined(lo_v) else (center - lo_v) / gamma
        c_hi = UNDEFINED if is_undefined(hi_v) else (hi_v - center) / gamma
        s = centered_dual(c_lo, c_hi)
        return _advance(schema, lab, axis, i, i, s, f.grid.axes[axis].point(i))

    return state.map_labels(step)


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
    schema: Schema, lab: BasisLabel, axis: int, i: int, j: int, s, x_i, m=None
) -> BasisLabel:
    """Relabel one branch after the pass along ``axis`` into ``schema``: the
    axis coordinate of j becomes the dual index, s{axis} holds the dual
    point, the axis' own rows are dropped, and f and every row still
    carried map with the center optimizer: value -> value - s * x_i."""
    shift = s * x_i
    values = lab.values
    coords = list(values[0])
    coords[axis] = j
    rows = [v if is_undefined(v) else v - shift for v in values[2 : 2 + 2 * axis]]
    added = (i,) if m is None else (i, m)
    return BasisLabel(
        schema, (tuple(coords), values[1] - shift, *rows, s, *values[4 + 2 * axis :], *added)
    )


def _verify(f, mode, duals, final_state, rng_seed) -> VerificationReport:
    """Compare the simulated label set against the classical nested result.

    Adaptive runs must also reproduce the classically chosen dual points,
    so their comparison key includes the s registers.
    """
    entries = () if final_state is None else final_state.entries
    if mode == "regular":
        # the brute evaluation over the same product dual set is the total
        # oracle (it equals the nested classical transform wherever that one
        # is defined, and never refuses an instance)
        shape = tuple(g.k for g in duals)
        pts = product_dual_points(duals)
        brute = lft_nd_brute(f, pts)
        expect = {
            idx: brute.values.flat[pos]
            for pos, idx in enumerate(product(*(range(s) for s in shape)))
        }
        got = {lab.get("j"): lab.get("fstar") for lab, _ in entries}
    else:
        try:
            classical = lft_nd_adaptive(f)
        except NonConvexSlice as exc:
            return VerificationReport(
                status=UNVERIFIED,
                missing=(),
                extra=(),
                value_mismatches=(),
                rng_seed=rng_seed,
                note=f"classical adaptive reference unavailable: {exc}",
            )
        expect = {
            idx: (classical.dual_point(idx), classical.values.get(idx))
            for idx in classical.values.indices()
        }
        got = {
            lab.get("j"): (lab.get("s"), lab.get("fstar"))
            for lab, _ in entries
        }
    missing = tuple(sorted(set(expect) - set(got)))
    extra = tuple(sorted(set(got) - set(expect)))
    mismatches = tuple(
        (idx, got[idx], expect[idx])
        for idx in sorted(set(got) & set(expect))
        if got[idx] != expect[idx]
    )
    status = MATCH if not (missing or extra or mismatches) else MISMATCH
    return VerificationReport(
        status=status,
        missing=missing,
        extra=extra,
        value_mismatches=mismatches,
        rng_seed=rng_seed,
        dual_grids=tuple(duals) if duals else (),
    )


def run_qlft_nd_regular(
    f: TensorSamples,
    ks: Sequence[int],
    rng_seed: int = 0,
    strict_pow2: bool = False,
) -> SimRun:
    """Nested stochastic passes over shared regular dual grids.

    The returned run carries per-pass acceptance probabilities and a
    VerificationReport against the classical nested transform on the same
    grids; agreement is reported, not assumed.
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
    """Deterministic nested adaptive passes with the same verification contract."""
    for axis, n in enumerate(f.grid.shape):
        _check_pow2(n, f"N{axis}", strict_pow2)
    return _run_nd(f, 0, "adaptive")
