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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from typing import Optional, Sequence

from .errors import InvalidK, NonConvexSlice, NotPowerOfTwo
from .multi import TensorSamples, lft_nd_adaptive, lft_nd_brute, product_dual_points, _cascade
from .qlft import SimRun, StepRecord, centered_dual, geometric_attempts, is_power_of_two
from .qstate import UNDEFINED, BasisLabel, QState, is_undefined

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


@dataclass(frozen=True)
class _Branch:
    coords: tuple[int, ...]
    center: Fraction
    rows: tuple  # ((axis, step), value) for untransformed-axis neighbors
    s_regs: tuple
    garbage: tuple

    def row(self, axis: int, step: int):
        for key, value in self.rows:
            if key == (axis, step):
                return value
        return UNDEFINED


def _initial_branches(f: TensorSamples) -> list[_Branch]:
    branches = []
    d = f.d
    for idx in f.values.indices():
        rows = []
        for axis in range(d):
            for step in (-1, 1):
                nb = list(idx)
                nb[axis] += step
                if 0 <= nb[axis] < f.grid.shape[axis]:
                    rows.append(((axis, step), f.values.get(tuple(nb))))
                else:
                    rows.append(((axis, step), UNDEFINED))
        branches.append(
            _Branch(
                coords=idx,
                center=f.values.get(idx),
                rows=tuple(rows),
                s_regs=(),
                garbage=(),
            )
        )
    return branches


def _comp_of(coords: tuple[int, ...], axis: int) -> tuple[int, ...]:
    return tuple(v for a, v in enumerate(coords) if a != axis)


def _run_nd(
    f: TensorSamples,
    rng_seed: int,
    mode: str,
    ks: Optional[Sequence[int]] = None,
) -> SimRun:
    d = f.d
    f.require_convex_axes()
    rng = random.Random(rng_seed)
    steps: list[StepRecord] = []
    branches = _initial_branches(f)
    steps.append(StepRecord("superposition", len(branches), Fraction(1)))
    gamma = f.grid.gamma
    pass_accepts: list[Fraction] = []
    aborted = False
    duals = None
    if mode == "regular":
        # the pass structure; intermediate lines may be discretely nonconvex,
        # where the cascade's rule still defines the counts the passes gate on
        duals, assigns, _ = _cascade(f, ks=ks, check_convex=False)

    for axis in range(d - 1, -1, -1):
        if mode == "regular":
            dual = duals[axis]
            n_axis = f.grid.shape[axis]
            counts_of: dict = {}
            for (comp, _), i in assigns[axis].items():
                counts_of.setdefault(comp, [0] * n_axis)[i] += 1
            structure = {c: (k, list(accumulate(k, initial=0))) for c, k in counts_of.items()}
            w = max(map(max, counts_of.values()))
            new_branches = []
            accepted = 0
            three_point = axis > 0  # neighbor rows are still needed downstream
            for br in branches:
                comp = _comp_of(br.coords, axis)
                counts, firsts = structure[comp]
                i = br.coords[axis]
                for m in range(w):
                    if m >= counts[i]:
                        continue
                    if three_point:
                        hs = [h for h in (i - 1, i, i + 1) if 0 <= h < n_axis]
                        if any(m >= counts[h] for h in hs):
                            continue
                    accepted += 1
                    j = firsts[i] + m
                    new_branches.append(
                        _advance(br, axis, i, j, dual.point(j), f, m)
                    )
            total = len(branches) * w
            acceptance = Fraction(accepted, total)
            pass_accepts.append(acceptance)
            branches = sorted(new_branches, key=lambda b: b.coords)
            steps.append(
                StepRecord(
                    f"pass-axis{axis}", len(branches), Fraction(1), acceptance
                )
            )
            if accepted == 0:
                # The neighbor-slot condition rejected every branch; the
                # stated measurement can never show outcome 1. Reported,
                # not raised: the verification marks every label missing.
                aborted = True
                break
        else:  # adaptive
            new_branches = []
            for br in branches:
                i = br.coords[axis]
                lo_v, hi_v = br.row(axis, -1), br.row(axis, 1)
                c_lo = UNDEFINED if is_undefined(lo_v) else (br.center - lo_v) / gamma
                c_hi = UNDEFINED if is_undefined(hi_v) else (hi_v - br.center) / gamma
                s = centered_dual(c_lo, c_hi)
                new_branches.append(_advance(br, axis, i, i, s, f, m=None))
            pass_accepts.append(Fraction(1))
            branches = sorted(new_branches, key=lambda b: b.coords)
            steps.append(
                StepRecord(f"pass-axis{axis}", len(branches), Fraction(1), Fraction(1))
            )

    success = Fraction(1)
    for p in pass_accepts:
        success *= p

    if aborted:
        final_state = None
        attempts = 0
        expected_aa = 0
    else:
        attempts = geometric_attempts(success, rng) if success < 1 else 1
        labels = []
        for br in branches:
            fstar = -br.center
            regs = (
                ("j", br.coords),
                ("fstar", fstar),
                ("s", tuple(v for _, v in sorted(br.s_regs))),
            )
            labels.append(BasisLabel(regs=regs, garbage=br.garbage))
        final_state = QState.uniform(labels)
        steps.append(StepRecord("negate", len(labels), Fraction(1)))
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


def _advance(br: _Branch, axis: int, i: int, j: int, s, f: TensorSamples, m):
    """Relabel one branch after a pass, mapping every carried row with the
    center optimizer: value -> value - s * x_i."""
    x_i = f.grid.axes[axis].point(i)
    shift = s * x_i
    coords = list(br.coords)
    coords[axis] = j
    rows = tuple(
        (key, (UNDEFINED if is_undefined(value) else value - shift))
        for key, value in br.rows
        if key[0] < axis
    )
    garbage = br.garbage + ((f"i{axis}", i),)
    if m is not None:
        garbage = garbage + ((f"m{axis}", m),)
    return _Branch(
        coords=tuple(coords),
        center=br.center - shift,
        rows=rows,
        s_regs=br.s_regs + ((axis, s),),
        garbage=garbage,
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


def _require_pow2(sizes) -> None:
    for n in sizes:
        if not is_power_of_two(n):
            raise NotPowerOfTwo(f"size {n} is not a power of two")


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
    if strict_pow2:
        _require_pow2((*f.grid.shape, *ks))
    return _run_nd(f, rng_seed, "regular", ks=tuple(ks))


def run_qlft_nd_adaptive(f: TensorSamples, strict_pow2: bool = False) -> SimRun:
    """Deterministic nested adaptive passes with the same verification contract."""
    if strict_pow2:
        _require_pow2(f.grid.shape)
    return _run_nd(f, 0, "adaptive")
