"""Register-level simulation of the nested multidimensional quantum passes.

Each pass applies the one-dimensional machinery along one axis (last axis
first). A branch carries its coordinates j, its value f and the dual point
s{axis} of every axis already passed.

Regular mode: a pass expands each branch into w copy slots and keeps slot
m of index i when the line assigns i more than m dual points. Passes that
still have axes left to transform additionally require the in-range
neighbor indices i +- 1 of the same line to have more than m dual points
("three-point" condition). Both gates read the counts of one classical
cascade of the nested passes, run before the passes over the exact
intermediate tensors; it also gives the shared dual grids and each line's
first dual indices. No step reads a neighbor value, so regular branches
carry none.

Adaptive mode: the pass along an axis gives each branch s{axis}, the
input's centered difference quotient along that axis at j (one-sided at a
line end), and maps f with its optimizer by ``multi._centered_step``. So
fstar = <s, x_j> - f(j). Branches that carried neighbor rows and mapped
each with their own optimizer would leave every row-center difference as
in the input, so they carry no rows. ``multi.lft_nd_adaptive`` is the
same rule: it takes the same points (``multi._centered``, every axis from
the input's lines) through the same step, so its (dual point, value) at
each index is the run's label there.

Off the separable case neither mode is known to be correct, so every run
is VERIFIED against the brute maximum (``multi.lft_nd_brute``'s core,
``multi._brute``) at the dual points the run itself names: the product of a
regular run's per-axis grids, each adaptive label's own s registers, told
apart per axis as ``lft_nd_brute`` tells them (``multi._components``). The
judge reads the final labels' j, fstar and s words directly and the
samples' lift, so it builds no brute result. The outcome is reported,
never assumed: a MISMATCH is a finding, not a crash.

Branches are the labels of one ``QState`` per step, with garbage i{axis}
(and m{axis} in regular mode) per passed axis. Each step records its
computed norm, 0 if nothing survives. A pass keeps its copy slots, and a
run ends, as a 1D run does (``qlft._keep``, ``qlft._finish``). The value
registers hold ints over one shared denominator D per run, widened once
per pass as in ``multi`` from the samples' lift (``TensorSamples.lifted``);
the s registers hold the dual points, and the negate step makes the
Fractions fstar = -f / D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from typing import Optional, Sequence

from .errors import InvalidK
from .grids import DualGrid
from .multi import TensorSamples, _brute, _cascade, _centered, _centered_step, _components, _dual_products
from .qlft import SimRun, StepRecord, _check_pow2, _finish, _keep, _read, _trace
from .qstate import BasisLabel, QState, _schema
from .rational import reduced

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


def _superposition(shape: tuple[int, ...], flat: Sequence) -> QState:
    """Uniform superposition over the grid indices j; each branch carries
    its value f, in row-major order of j."""
    schema = _schema(("j", "f"), 2)
    return QState.uniform(BasisLabel(schema, pair) for pair in zip(product(*map(range, shape)), flat))


def _run_nd(f: TensorSamples, rng_seed: int, ks: Optional[tuple] = None) -> SimRun:
    """Regular nested passes over dual sizes ``ks``; adaptive without them."""
    steps: list[StepRecord] = []
    flat, D = f.lifted
    duals = None
    if ks is not None:
        f.require_convex_axes()
        duals, counts, _, _ = _cascade(f, ks)
    else:
        centered = _centered(f)  # walking the input's lines is the convexity check
    state = _superposition(f.values.shape, flat)
    _trace(steps, "superposition", state)
    pass_accepts: list[Fraction] = []

    for axis in range(f.d - 1, -1, -1):
        if duals is not None:
            state, acceptance, D = _regular_pass(state, f, axis, D, duals[axis], counts[axis])
        else:
            state, acceptance, D = _adaptive_pass(state, f, axis, D, centered[axis])
        pass_accepts.append(acceptance)
        _trace(steps, f"pass-axis{axis}", state, acceptance)
        if not state.entries:
            # The neighbor-slot condition rejected every branch; the
            # stated measurement can never show outcome 1. Reported,
            # not raised: the verification marks every label missing.
            break

    final_state = None
    if state.entries:
        # registers j, f, s0..s{d-1}, then the garbage
        d, schema = f.d, state.entries[0][0].schema
        final = _schema(("j", "fstar", "s", *schema.names[2 + d :]), 3)
        rows = [(lab._values, amp) for lab, amp in state.entries]
        final_state = QState(entries=tuple(
            (BasisLabel(final, (v[0], reduced(-v[1], D), v[2 : 2 + d], *v[2 + d :])), amp)
            for v, amp in rows
        ))
        _trace(steps, "negate", final_state)

    return _finish(
        final_state, steps, math.prod(pass_accepts, start=Fraction(1)), tuple(pass_accepts),
        rng_seed=rng_seed, verification=_verify(f, duals, final_state, rng_seed),
    )


def _regular_pass(
    state: QState, f: TensorSamples, axis: int, D: int, dual: DualGrid, line_counts: dict
) -> tuple[QState, Fraction, int]:
    """Expand w copy slots per branch, keep the (branch, slot m) pairs the
    gates accept (slots m >= counts[i] fail membership and are not built),
    and renormalize over the survivors, sorted by j. ``line_counts`` are
    the cascade's counts of this pass, keyed by each line's fixed
    coordinates. A kept pair becomes (j with the axis coordinate set to
    the dual index, f mapped with the optimizer x_i, s{axis}, the registers
    the branch held, i{axis}, m{axis}). Values arrive as ints over D and
    leave over the returned denominator."""
    n_axis = f.grid.shape[axis]
    structure = {c: (k, list(accumulate(k, initial=0))) for c, k in line_counts.items()}
    w = max(map(max, line_counts.values()))
    three_point = axis > 0  # the gate reads the neighbors' counts, not their values
    held = state.entries[0][0].schema
    names = ("j", "f", f"s{axis}", *held.names[2:], f"i{axis}", f"m{axis}")
    schema = _schema(names, held.n_regs + 1)
    points = dual.points()
    D, scale, sx = _dual_products(dual, f.grid.axes[axis], D)
    kept = []
    for lab, _ in state.entries:
        coords, value, *rest = lab._values
        counts, firsts = structure[coords[:axis] + coords[axis + 1 :]]
        i = coords[axis]
        for m in range(counts[i]):
            if three_point and any(m >= counts[h] for h in (i - 1, i + 1) if 0 <= h < n_axis):
                continue
            j = firsts[i] + m
            new = (*coords[:axis], j, *coords[axis + 1 :])
            kept.append(BasisLabel(schema, (new, value * scale - sx[j][i], points[j], *rest, i, m)))
    return (*_keep(kept, len(state), w), D)


def _adaptive_pass(state: QState, f: TensorSamples, axis: int, D: int, centered: tuple) -> tuple:
    """Each branch takes its centered dual point along ``axis`` and maps f
    with its optimizer by ``multi._centered_step``. ``centered`` is this
    axis's (us, ws, D0) from ``multi._centered``, in the row-major order of
    j that the adaptive states keep. The branch gains s{axis} and the
    garbage i{axis}."""
    idx = [lab._values[0][axis] for lab, _ in state.entries]
    values = [lab._values[1] for lab, _ in state.entries]
    values, D, points = _centered_step(values, idx, centered, D, f.grid.axes[axis])
    held = state.entries[0][0].schema
    schema = _schema(("j", "f", f"s{axis}", *held.names[2:], f"i{axis}"), held.n_regs + 1)
    entries = []
    for (lab, amp), value, s, i in zip(state.entries, values, points, idx):
        j, _, *rest = lab._values
        entries.append((BasisLabel(schema, (j, value, s, *rest, i)), amp))
    return QState(entries=tuple(entries)), Fraction(1), D


def _verify(f, duals, final_state, rng_seed) -> VerificationReport:
    """Judge the run's labels by the brute maximum at the dual points the
    run names: every multi-index of the product of a regular run's grids
    ``duals``, and each adaptive label (``duals`` None) at its own s.

    A multi-index no label reached is missing, a label outside the product
    is extra, and a label whose fstar differs from the brute value is a
    value mismatch, recorded as (j, fstar, brute value).
    """
    rows = []
    if final_state is not None:
        _, (pj, pv, ps) = _read(final_state, "j", "fstar", "s")
        rows = [(lab._values[pj], lab._values[pv], lab._values[ps]) for lab, _ in final_state.entries]
    got = {j: fstar for j, fstar, _ in rows}
    if duals is not None:
        keys = list(product(*(range(g.k) for g in duals)))
        values, _ = _brute(f, [g.point_ratios() for g in duals], keys)
    else:
        keys = [j for j, *_ in rows]
        _, comps, points = _components([s for *_, s in rows], f.d)
        values, _ = _brute(f, comps, points)
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
    return _run_nd(f, rng_seed, ks=tuple(ks))


def run_qlft_nd_adaptive(f: TensorSamples, strict_pow2: bool = False) -> SimRun:
    """Deterministic nested adaptive passes; the VerificationReport judges
    each label against the brute maximum at its own s registers."""
    for axis, n in enumerate(f.grid.shape):
        _check_pow2(n, f"N{axis}", strict_pow2)
    return _run_nd(f, 0)
