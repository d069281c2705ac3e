"""The four benchmark workloads: seeded inputs, a fixed op list, an exact
oracle check per op, and the exact counters a pass must repeat.

Every op is a call into the public API of ``lftlab``. ``op.run(tr)``
does the work; with a tracer it also spans each layer call (and makes
the extra phase calls the per-layer metrics need). ``op.check(out)``
runs outside the timed region and raises ``CheckFailed`` when the output
is not ``Fraction``-equal to its oracle. Oracles are computed lazily on
the first check and kept for later passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Any, Callable

import lftlab
from lftlab import (
    DualGrid,
    HiddenStringInstance,
    attach_gradients,
    canonical_nd_dual_grids,
    digital_to_analog,
    discrete_gradients,
    dual_index,
    finalize_conjugate,
    in_acceptance_set,
    indicator_postselect,
    lft_adaptive,
    lft_brute,
    lft_nd_adaptive,
    lft_nd_brute,
    lft_nd_regular,
    lft_regular,
    nontrivial_dual_range,
    optimizer_map,
    prepare_superposition,
    product_dual_points,
    recover_via_point_queries,
    recover_via_sampling,
    regular_dual_grid,
    run_qlft_1d_adaptive,
    run_qlft_1d_regular,
    run_qlft_nd_adaptive,
    run_qlft_nd_regular,
    witness_params,
)
from lftlab import cli, fixtures
from lftlab import io as lio

from spans import call

F = Fraction
BRUTE_SAMPLE = 4  # dual points per fast-1d op checked against lft_brute


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among exact values."""
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


def lazy(fn: Callable[[], Any]) -> Callable[[], Any]:
    box: list = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


@dataclass
class Op:
    kind: str  # op group: names the op's root span and its latency group
    label: str  # one line naming the op and its instance
    run: Callable[[Any], Any]  # run(tracer or None) -> output
    check: Callable[[Any], None]  # raises CheckFailed
    meta: Any = None  # the op's instance, where counters need it


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Callable[[], None]
    inputs_digest: Callable[[], str]
    properties: Callable[[], dict]
    counters: Callable[[list], dict]  # pass outputs -> exact per-layer counts
    findings: Callable[[list], list[str]] = lambda outs: []
    cleanup: Callable[[], None] = lambda: None


def outside_share(g, duals) -> Fraction:
    """Share of dual points outside [c_0, c_{n-2}]."""
    outside = total = 0
    for dual in duals:
        total += dual.k
        outside += sum(1 for s in dual.points() if s < g.lo or s > g.hi)
    return F(outside, total)


def rule_counts(f, dual) -> list[int]:
    """Dual points per primal index under the documented gradient rule,
    in closed form for a regular dual grid with positive spacing.

    A point s goes to index 0 when s <= c_0, to n-1 when s >= c_{n-2},
    and otherwise to the smallest i with s <= c_i. N<=(t) and N<(t) count
    the grid points at most and below t; no per-point sweep is made.
    """
    c = [(f.samples[i + 1] - f.samples[i]) / f.grid.gamma for i in range(f.n - 1)]
    s0, gamma, k = dual.s0, dual.gamma_s, dual.k

    def at_most(t):
        return min(max(math.floor((t - s0) / gamma) + 1, 0), k)

    def below(t):
        return min(max(math.ceil((t - s0) / gamma), 0), k)

    top = below(c[-1])
    counts = [at_most(c[0])]
    counts += [max(0, min(at_most(c[i]), top) - at_most(c[i - 1])) for i in range(1, f.n - 1)]
    counts.append(k - top)
    return counts


# --------------------------------------------------------------- fast-1d


def fast_1d(seed: int, root: str) -> Workload:
    n = 1 << 14
    rng = random.Random(f"fast-1d:{seed}")
    specs = {
        "lowbit": fixtures.random_convex_spec(rng, n),
        "highbit": fixtures.random_quadratic_spec(rng, n),
    }
    small = fixtures.random_convex_spec(rng, 128)
    small_g = discrete_gradients(small)
    small_dual = regular_dual_grid(nontrivial_dual_range(small_g), 128)
    small_w = witness_params(small_g, small_dual).w
    check_seed = rng.randrange(1 << 30)

    ops: list[Op] = []
    checked_regular: dict[str, Any] = {}
    grids: dict[str, list] = {}
    gradients: dict[str, Any] = {}

    def regular_op(kind, f, k, dual, clamp):
        label = f"lft_regular {kind} K={k}" + (" clamped-wide" if clamp else "")

        def run(tr):
            if tr is not None:
                g = tr.call("transform.gradients_s", discrete_gradients, f)
                tr.call("transform.assign_s", optimizer_map, g, dual, clamp=clamp)
            return call(tr, "transform.regular_s", lft_regular, f, dual, clamp=clamp)

        @lazy
        def oracle():
            srng = random.Random(f"{check_seed}:{label}")
            idx = sorted({0, dual.k - 1, *srng.sample(range(dual.k), BRUTE_SAMPLE - 2)})
            return idx, lft_brute(f, DualGrid.from_points([dual.point(j) for j in idx]))

        counts = lazy(lambda: rule_counts(f, dual))

        def check(res):
            expect(res.dual == dual and len(res.values) == dual.k, f"{label}: wrong dual grid")
            idx, brute = oracle()
            for t, j in enumerate(idx):
                expect(res.values[j] == brute.values[t], f"{label}: value at j={j} != lft_brute")
            opt = res.optimizer_index
            expect(all(a <= b for a, b in zip(opt, opt[1:])), f"{label}: optimizer map not monotone")
            got = Counter(opt)
            expect(
                all(got.get(i, 0) == cnt for i, cnt in enumerate(counts())),
                f"{label}: optimizer map != gradient rule",
            )
            checked_regular[label] = counts()

        return label, Op("lft_regular", label, run, check)

    def witness_op(kind, g, k, dual, regular_label):
        label = f"witness_params {kind} K={k}"

        def run(tr):
            return call(tr, "witness.params_s", witness_params, g, dual)

        def check(rep):
            counts = checked_regular.get(regular_label)
            expect(counts is not None, f"{label}: its lft_regular op did not pass")
            w = max(counts)
            expect(rep.w == w, f"{label}: W={rep.w}, checked optimizer map gives {w}")
            expect(rep.success_probability == F(dual.k, g.n * w), f"{label}: success != K/(N W)")
            span = g.grid.hi - g.grid.x0
            expect(rep.nu == (g.hi - g.lo) / span, f"{label}: nu")

        return Op("witness_params", label, run, check)

    def adaptive_op(kind, f):
        label = f"lft_adaptive {kind}"

        def run(tr):
            return call(tr, "transform.adaptive_s", lft_adaptive, f)

        @lazy
        def oracle():
            c = [(f.samples[i + 1] - f.samples[i]) / f.grid.gamma for i in range(f.n - 1)]
            pts = (c[0], *((c[i - 1] + c[i]) / 2 for i in range(1, f.n - 1)), c[-1])
            srng = random.Random(f"{check_seed}:{label}")
            idx = sorted({0, f.n - 1, *srng.sample(range(f.n), BRUTE_SAMPLE - 2)})
            return pts, idx, lft_brute(f, DualGrid.from_points([pts[j] for j in idx]))

        def check(res):
            pts, idx, brute = oracle()
            expect(res.dual.points() == pts, f"{label}: adaptive dual points")
            for t, j in enumerate(idx):
                expect(res.values[j] == brute.values[t], f"{label}: value at j={j} != lft_brute")

        return Op("lft_adaptive", label, run, check)

    for kind, f in specs.items():
        g = discrete_gradients(f)
        gradients[kind] = g
        width = g.hi - g.lo
        plan = [
            (n // 4, regular_dual_grid((g.lo, g.hi), n // 4), False),
            (n, regular_dual_grid((g.lo - width / 8, g.hi + width / 8), n), True),
            (4 * n, regular_dual_grid((g.lo, g.hi), 4 * n), False),
        ]
        grids[kind] = [dual for _, dual, _ in plan]
        for k, dual, clamp in plan:
            reg_label, reg = regular_op(kind, f, k, dual, clamp)
            ops.append(reg)
            ops.append(witness_op(kind, g, k, dual, reg_label))
        ops.append(adaptive_op(kind, f))

    def enumerate_pairs(g, dual, w):
        out = []
        for i in range(g.n):
            for m in range(w):
                if in_acceptance_set(i, m, g, dual):
                    out.append((i, m, dual_index(i, m, g, dual)))
        return out

    @lazy
    def acceptance_oracle():
        counts = rule_counts(small, small_dual)
        firsts, acc = [], 0
        for c in counts:
            firsts.append(acc)
            acc += c
        return counts, [(i, m, firsts[i] + m) for i in range(small.n) for m in range(counts[i])]

    def acceptance_check(pairs):
        counts, expected = acceptance_oracle()
        expect(max(counts) == small_w, "acceptance: W != largest gradient-rule multiplicity")
        expect(pairs == expected, "acceptance: member pairs or dual indices != gradient rule")
        expect(sorted(j for _, _, j in pairs) == list(range(small_dual.k)), "acceptance: not a bijection onto [K]")

    ops.append(
        Op(
            "acceptance",
            "in_acceptance_set + dual_index N=K=128",
            lambda tr: call(tr, "witness.acceptance_s", enumerate_pairs, small_g, small_dual, small_w),
            acceptance_check,
        )
    )

    def counters(outs):
        c = {"transform.dual_points": 0, "transform.max_bits": 0, "witness.pairs": 0, "witness.w": 0}
        bits = [max_bits(f.samples) for f in specs.values()]
        for op, out in zip(ops, outs):
            if out is None:
                continue
            if op.kind in ("lft_regular", "lft_adaptive"):
                c["transform.dual_points"] += out.dual.k
                bits.append(max_bits(out.values))
            elif op.kind == "witness_params":
                c["witness.w"] = max(c["witness.w"], out.w)
            else:
                c["witness.pairs"] = len(out)
        c["transform.max_bits"] = max(bits)
        return c

    def properties():
        out = {"N": n, "K": [n // 4, n, 4 * n], "d": 1, "acceptance N=K": 128, "acceptance W": small_w}
        for kind, f in specs.items():
            g = gradients[kind]
            out[f"{kind} max_bits"] = max_bits(f.samples)
            out[f"{kind} W per K"] = [max(rule_counts(f, d)) for d in grids[kind]]
            out[f"{kind} share outside [c0,c_n-2]"] = float(outside_share(g, grids[kind]))
        return out

    return Workload(
        name="fast-1d",
        ops=ops,
        warmup=lambda: ops[0].run(None),
        inputs_digest=lambda: digest(*(f.samples for f in specs.values()), small.samples),
        properties=properties,
        counters=counters,
    )


# ---------------------------------------------------------------- sim-1d


@dataclass(frozen=True)
class SimOut:
    """What a simulator op yields, the same for the one-call and the
    step-by-step (traced) route."""

    final_state: Any
    success_probability: Fraction
    attempts: int
    label_counts: tuple
    norms: tuple


def _sim_out(run) -> SimOut:
    return SimOut(
        run.final_state,
        run.success_probability,
        run.attempts,
        tuple(r.label_count for r in run.step_trace),
        tuple(r.norm_sq for r in run.step_trace),
    )


def sim_1d(seed: int, root: str) -> Workload:
    n = 1 << 12
    rng = random.Random(f"sim-1d:{seed}")
    specs = {
        "lowbit": fixtures.random_convex_spec(rng, n),
        "highbit": fixtures.random_quadratic_spec(rng, n),
    }
    rng_seeds = {kind: rng.randrange(1 << 30) for kind in specs}
    last_regular: dict[str, SimOut] = {}
    first_final: dict[str, Any] = {}
    ops: list[Op] = []

    def regular_steps(tr, f, rng_seed):
        dual = regular_dual_grid(nontrivial_dual_range(discrete_gradients(f)), n)
        s1 = tr.call("qlft.superposition_s", prepare_superposition, f)
        s2 = tr.call("qlft.gradients_s", attach_gradients, s1)
        s3, post = tr.call("qlft.postselect_s", indicator_postselect, s2, dual, rng_seed=rng_seed)
        s4 = tr.call("qlft.conjugate_s", finalize_conjugate, s3, dual)
        states = (s1, s2, s3, s4)
        return SimOut(
            s4,
            post.success_probability,
            post.attempts,
            tuple(len(s) for s in states),
            tuple(s.norm_sq() for s in states),
        )

    for kind, f in specs.items():
        rng_seed = rng_seeds[kind]

        @lazy
        def reg_oracle(f=f):
            dual = regular_dual_grid(nontrivial_dual_range(discrete_gradients(f)), n)
            return lft_regular(f, dual)

        def run_regular(tr, f=f, kind=kind, rng_seed=rng_seed):
            if tr is None:
                out = _sim_out(run_qlft_1d_regular(f, n, rng_seed=rng_seed))
            else:
                out = regular_steps(tr, f, rng_seed)
            last_regular[kind] = out
            return out

        def check_regular(out, kind=kind, oracle=reg_oracle):
            # The first pass is never traced, so the step-by-step route's
            # final state is compared with the one-call run's.
            first = first_final.setdefault(kind, out.final_state)
            expect(out.final_state == first, f"qlft regular {kind}: final state differs from the first pass")
            ref = oracle()
            pairs = sorted((lab.get("j"), lab.get("fstar")) for lab, _ in out.final_state.entries)
            expect(pairs == list(enumerate(ref.values)), f"qlft regular {kind}: conjugate_pairs != lft_regular")
            w = max(Counter(ref.optimizer_index).values())
            expect(out.success_probability == F(n, n * w), f"qlft regular {kind}: acceptance != K/(N W)")
            expect(all(v == 1 for v in out.norms), f"qlft regular {kind}: a step's norm_sq != 1")
            expect(out.label_counts == (n, n, n, n), f"qlft regular {kind}: label counts {out.label_counts}")

        def run_analog(tr, kind=kind, rng_seed=rng_seed):
            return call(tr, "qlft.analog_s", digital_to_analog, last_regular[kind].final_state, rng_seed=rng_seed)

        @lazy
        def analog_oracle(oracle=reg_oracle):
            values = oracle().values
            vmax = max(abs(v) for v in values)
            alpha = sum(v * v for v in values)
            omega = sum((v / vmax) ** 2 for v in values) / len(values)
            return omega, [(j, 1 if v > 0 else -1, v * v / alpha) for j, v in enumerate(values) if v != 0]

        def check_analog(enc, kind=kind, oracle=analog_oracle):
            omega, want = oracle()
            expect(enc.omega == omega, f"analog {kind}: omega")
            got = [(lab.get("j"), a.sign, a.sq) for lab, a in enc.state.entries]
            expect(got == want, f"analog {kind}: amplitudes != v_j/sqrt(alpha)")
            expect(enc.state.norm_sq() == 1, f"analog {kind}: norm_sq != 1")

        @lazy
        def ad_oracle(f=f):
            return lft_adaptive(f)

        def run_adaptive(tr, f=f):
            return _sim_out(call(tr, "qlft.adaptive_s", run_qlft_1d_adaptive, f))

        def check_adaptive(out, kind=kind, oracle=ad_oracle):
            ref = oracle()
            labs = [lab for lab, _ in out.final_state.entries]
            expect([lab.get("fstar") for lab in labs] == list(ref.values), f"qlft adaptive {kind}: values != lft_adaptive")
            expect([lab.get("s") for lab in labs] == list(ref.dual.points()), f"qlft adaptive {kind}: dual points")
            expect(all(v == 1 for v in out.norms), f"qlft adaptive {kind}: a step's norm_sq != 1")

        ops.append(Op("qlft_regular", f"run_qlft_1d_regular {kind} N=K={n}", run_regular, check_regular))
        ops.append(Op("analog", f"digital_to_analog {kind}", run_analog, check_analog))
        ops.append(Op("qlft_adaptive", f"run_qlft_1d_adaptive {kind} N={n}", run_adaptive, check_adaptive))

    def counters(outs):
        peak = attempts = bits = 0
        accept = []
        for op, out in zip(ops, outs):
            if out is None:
                continue
            if op.kind == "analog":
                attempts += out.attempts
                continue
            peak = max(peak, *out.label_counts)
            bits = max(bits, max_bits(lab.get("fstar") for lab, _ in out.final_state.entries))
            if op.kind == "qlft_regular":
                accept.append(out.success_probability)
                attempts += out.attempts
        return {
            "qstate.labels_peak": peak,
            "qlft.accept_ratio": sum(accept, F(0)) / len(accept) if accept else F(0),
            "qlft.attempts": attempts,
            "transform.max_bits": max(bits, *(max_bits(f.samples) for f in specs.values())),
        }

    def properties():
        out = {"N": n, "K": n, "d": 1}
        for kind, f in specs.items():
            g = discrete_gradients(f)
            dual = regular_dual_grid(nontrivial_dual_range(g), n)
            out[f"{kind} max_bits"] = max_bits(f.samples)
            out[f"{kind} W"] = max(rule_counts(f, dual))
            out[f"{kind} share outside [c0,c_n-2]"] = float(outside_share(g, [dual]))
        return out

    return Workload(
        name="sim-1d",
        ops=ops,
        warmup=lambda: run_qlft_1d_adaptive(specs["lowbit"]),
        inputs_digest=lambda: digest(*(f.samples for f in specs.values()), rng_seeds),
        properties=properties,
        counters=counters,
    )


# ------------------------------------------------------------- nd-verify


def nd_verify(seed: int, root: str) -> Workload:
    rng = random.Random(f"nd-verify:{seed}")
    coupled2 = fixtures.random_convex_quadratic_nd(rng, d=2, n=16, coupling=2)
    # condition number 1: the separable case whose MATCH is the package's contract
    base = "quadratic-ex1"
    separable = fixtures.separable_sum(base=base, d=2, n=16)
    coupled3 = fixtures.random_convex_quadratic_nd(rng, d=3, n=6, coupling=1)
    rng_seed = rng.randrange(1 << 30)
    tensors = {"2d-coupled": coupled2, f"2d-separable({base})": separable, "3d-coupled": coupled3}
    regular_plan = [
        ("2d-coupled", coupled2, (16, 16)),
        ("2d-coupled", coupled2, (32, 32)),
        (f"2d-separable({base})", separable, (16, 16)),
        ("3d-coupled", coupled3, (6, 6, 6)),
    ]
    checked_brute: dict[str, Any] = {}
    checked_adaptive: dict[str, Any] = {}
    adaptive_memos: dict[str, dict] = {}
    ops: list[Op] = []

    def verified_nested(tr, f, ks):
        duals = call(tr, "multi.grids_s", canonical_nd_dual_grids, f, ks)
        nested = call(tr, "multi.nested_s", lft_nd_regular, f, duals)
        brute = call(tr, "multi.brute_s", lambda: lft_nd_brute(f, product_dual_points(duals)))
        return duals, nested, brute

    for name, f, ks in regular_plan:
        label = f"{name} K={'x'.join(map(str, ks))}"
        separable_run = name.startswith("2d-separable")

        def check_nested(out, label=label, ks=ks):
            duals, nested, brute = out
            expect(tuple(g.k for g in duals) == ks, f"nested {label}: dual sizes")
            expect(list(nested.values.flat) == list(brute.values.flat), f"nested {label}: nested != lft_nd_brute")
            checked_brute[label] = out

        def check_qreg(run, label=label, separable_run=separable_run):
            ref = checked_brute.get(label)
            expect(ref is not None, f"qlft_nd regular {label}: its verified nested op did not pass")
            duals, _, brute = ref
            rep = run.verification
            expect(rep.dual_grids == tuple(duals), f"qlft_nd regular {label}: verifier ran on other dual grids")
            shape = tuple(g.k for g in duals)
            expect_vals = dict(zip(product(*(range(k) for k in shape)), brute.values.flat))
            got = {lab.get("j"): lab.get("fstar") for lab, _ in (run.final_state.entries if run.final_state else ())}
            expect(set(got) <= set(expect_vals), f"qlft_nd regular {label}: labels outside the dual product")
            expect(all(got[j] == expect_vals[j] for j in got), f"qlft_nd regular {label}: value != lft_nd_brute")
            expect(
                set(rep.missing) == set(expect_vals) - set(got) and not rep.extra and not rep.value_mismatches,
                f"qlft_nd regular {label}: report disagrees with lft_nd_brute",
            )
            expect(rep.status in (lftlab.MATCH, lftlab.MISMATCH), f"qlft_nd regular {label}: status {rep.status}")
            if separable_run:
                expect(rep.status == lftlab.MATCH, f"qlft_nd regular {label}: separable input must MATCH")

        ops.append(Op("nested_verified", f"canonical grids + lft_nd_regular + lft_nd_brute {label}",
                      lambda tr, f=f, ks=ks: verified_nested(tr, f, ks), check_nested, f))
        ops.append(Op("qlft_nd_regular", f"run_qlft_nd_regular {label}",
                      lambda tr, f=f, ks=ks: call(tr, "qlft_nd.regular_s", run_qlft_nd_regular, f, ks, rng_seed=rng_seed),
                      check_qreg))

    for name, f in tensors.items():
        separable_run = name.startswith("2d-separable")
        memo = adaptive_memos[name] = {}

        def check_nd_adaptive(res, name=name, f=f, memo=memo, separable_run=separable_run):
            # Contract: each value is attained at the identically indexed
            # primal point. It is the conjugate (the brute maximum) only
            # where that point is optimal; off the separable case the gap
            # to lft_nd_brute is a finding, not a failed op.
            for idx in res.values.indices():
                s, x = res.dual_point(idx), f.grid.point(idx)
                expect(
                    res.values.get(idx) == sum(a * b for a, b in zip(s, x)) - f.values.get(idx),
                    f"lft_nd_adaptive {name}: value at {idx} not attained at its own index",
                )
            pts = [res.dual_point(idx) for idx in res.values.indices()]
            if not memo:
                memo["pts"], memo["values"] = pts, list(lft_nd_brute(f, pts).values.flat)
            expect(pts == memo["pts"], f"lft_nd_adaptive {name}: dual points changed between passes")
            below = sum(v != b for v, b in zip(res.values.flat, memo["values"]))
            if separable_run:
                expect(below == 0, f"lft_nd_adaptive {name}: value != lft_nd_brute on a separable input")
            memo["below_brute"] = below
            checked_adaptive[name] = res

        def check_qad(run, name=name, separable_run=separable_run):
            ref = checked_adaptive.get(name)
            expect(ref is not None, f"qlft_nd adaptive {name}: its lft_nd_adaptive op did not pass")
            rep = run.verification
            labels = {lab.get("j") for lab, _ in run.final_state.entries}
            expect(labels <= set(ref.values.indices()), f"qlft_nd adaptive {name}: labels outside the grid")
            expect(rep.status in (lftlab.MATCH, lftlab.MISMATCH), f"qlft_nd adaptive {name}: status {rep.status}")
            if separable_run:
                expect(rep.status == lftlab.MATCH, f"qlft_nd adaptive {name}: separable input must MATCH")
                got = {lab.get("j"): (lab.get("s"), lab.get("fstar")) for lab, _ in run.final_state.entries}
                expect(
                    all(got[idx] == (ref.dual_point(idx), ref.values.get(idx)) for idx in ref.values.indices()),
                    f"qlft_nd adaptive {name}: value != lft_nd_adaptive",
                )

        ops.append(Op("nd_adaptive", f"lft_nd_adaptive {name}",
                      lambda tr, f=f: call(tr, "multi.adaptive_s", lft_nd_adaptive, f), check_nd_adaptive))
        ops.append(Op("qlft_nd_adaptive", f"run_qlft_nd_adaptive {name}",
                      lambda tr, f=f: call(tr, "qlft_nd.adaptive_s", run_qlft_nd_adaptive, f), check_qad))

    def counters(outs):
        evals = missing = runs = matches = 0
        accept = []
        bits = [max_bits(t.values.flat) for t in tensors.values()]
        for op, out in zip(ops, outs):
            if out is None:
                continue
            if op.kind == "nested_verified":
                _, nested, brute = out
                evals += op.meta.grid.total * len(brute.values.flat)
                bits.append(max_bits(nested.values.flat))
            elif op.kind in ("qlft_nd_regular", "qlft_nd_adaptive"):
                runs += 1
                matches += out.verification.status == lftlab.MATCH
                missing += len(out.verification.missing)
                if op.kind == "qlft_nd_regular":
                    accept.append(out.success_probability)
        return {
            "multi.brute_evals": evals,
            "qlft_nd.pass_accept": sum(accept, F(0)) / len(accept) if accept else F(0),
            "qlft_nd.missing": missing,
            "qlft_nd.match": F(matches, runs) if runs else F(0),
            "transform.max_bits": max(bits),
        }

    def findings(outs):
        lines = [
            f"lft_nd_adaptive {name}: below the lft_nd_brute maximum at {memo['below_brute']} of "
            f"{len(memo['values'])} dual points"
            for name, memo in adaptive_memos.items()
            if memo.get("below_brute")
        ]
        for op, out in zip(ops, outs):
            if op.kind in ("qlft_nd_regular", "qlft_nd_adaptive") and out is not None:
                rep = out.verification
                if rep.status != lftlab.MATCH:
                    lines.append(
                        f"{op.label}: {rep.status} missing={len(rep.missing)} extra={len(rep.extra)} "
                        f"value_mismatches={len(rep.value_mismatches)}"
                    )
        return lines

    def properties():
        out = {"instances": [f"{name} n={'x'.join(map(str, f.grid.shape))}" for name, f in tensors.items()],
               "K per regular run": ["x".join(map(str, ks)) for _, _, ks in regular_plan]}
        for name, f in tensors.items():
            out[f"{name} d"] = f.d
            out[f"{name} max_bits"] = max_bits(f.values.flat)
        return out

    return Workload(
        name="nd-verify",
        ops=ops,
        warmup=lambda: run_qlft_nd_adaptive(coupled3),
        inputs_digest=lambda: digest(*(t.values.flat for t in tensors.values()), rng_seed),
        properties=properties,
        counters=counters,
        findings=findings,
    )


# ------------------------------------------------------------- cli-small


def _centered_points(f):
    c = [(f.samples[i + 1] - f.samples[i]) / f.grid.gamma for i in range(f.n - 1)]
    return [c[0], *((c[i - 1] + c[i]) / 2 for i in range(1, f.n - 1)), c[-1]]


def _canonical_points(f, k):
    lo = (f.samples[1] - f.samples[0]) / f.grid.gamma
    hi = (f.samples[-1] - f.samples[-2]) / f.grid.gamma
    return [lo + j * (hi - lo) / (k - 1) for j in range(k)]


def _brute(f, pts):
    return lft_brute(f, DualGrid.from_points(pts))


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_small(seed: int, root: str) -> Workload:
    rng = random.Random(f"cli-small:{seed}")
    tmp = os.path.join(root, ".perfbench_out", f"cli-{os.getpid()}")
    fixdir = os.path.join(tmp, "fixtures")
    emitdir = os.path.join(tmp, "emit")
    os.makedirs(tmp, exist_ok=True)

    def path(name):
        return os.path.join(tmp, name)

    names = {"ex1": "quadratic-ex1", "ex2": "pwl-ex2", "ex3": "pwl-ex3"}
    ex = {short: fixtures.sampled(name) for short, name in names.items()}
    qseed = rng.randrange(1000)
    z8 = "".join(rng.choice("01") for _ in range(8))
    z4 = "".join(rng.choice("01") for _ in range(4))
    sep_base = rng.choice(tuple(names.values()))
    rand_seed = rng.randrange(10**6)
    rand_spec = fixtures.random_quadratic_spec(random.Random(rand_seed), 8)
    input_bits = max(max_bits(f.samples) for f in (*ex.values(), rand_spec))
    bump_at, bump = rng.randint(1, 4), rng.randint(1, 9)
    nonconvex = [3, 1, 0, 0, 1, 3]
    nonconvex[bump_at] += bump
    documents = {
        "sep2d.json": json.dumps({"kind": "builtin", "name": "separable-sum",
                                  "params": {"d": 2, "n": 4, "base": sep_base}}),
        "rand1d.json": json.dumps({"kind": "builtin", "name": "random-convex-quadratic",
                                   "params": {"seed": rand_seed, "n": 8}}),
        "nonconvex.json": json.dumps({"kind": "samples", "grid": [{"x0": "0", "gamma_x": "1/5", "n": 6}],
                                      "samples": [str(v) for v in nonconvex]}),
        "malformed.json": '{"kind": "samples", "grid": [{"x0": "%d", ' % rng.randrange(100),
    }
    for name, text in documents.items():
        with open(path(name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def fx(short):
        return os.path.join(fixdir, f"{short}.json")

    def load_doc(p):
        with open(p, encoding="utf-8") as fh:
            return json.load(fh)

    def fracs(items):
        return [F(v) for v in items]

    def w_of(f, k):
        pts = _canonical_points(f, k)
        return max(rule_counts(f, DualGrid(s0=pts[0], gamma_s=pts[1] - pts[0], k=k)))

    def io_spans(instance_path):
        def extra(tr):
            inst = tr.call("io.load_s", lio.load_instance, instance_path)
            tr.call("io.dump_s", lambda: lio.dump_document(lio.serialize_instance(inst)))
        return extra

    ops: list[Op] = []

    def add(kind, label, argv, check, extra=None, out_file=None):
        argv = list(argv) + (["--out", out_file] if out_file else [])
        span = f"cli.{argv[0]}_ms"

        def run(tr):
            if tr is not None and extra is not None:
                extra(tr)
            return call(tr, span, _invoke, argv)

        def checked(res):
            code, _, err = res
            if kind != "rejected":
                expect(code == 0, f"{label}: exit {code}: {err.strip()}")
            check(res, load_doc(out_file) if out_file else None)

        ops.append(Op(kind, label, run, checked))

    # lft --brute on ex1 (README line) and on a seeded builtin
    def check_lft_regular(f, k):
        def check(res, doc):
            dual = fracs(doc["dual"])
            expect(dual == _canonical_points(f, k), "lft: dual grid")
            expect(fracs(doc["values"]) == list(_brute(f, dual).values), "lft: values != lft_brute")
            expect(doc["brute_check"] == "MATCH", "lft: brute_check")
        return check

    add("lft", "lft ex1 --dual regular:4 --brute", ["lft", fx("ex1"), "--dual", "regular:4", "--brute"],
        check_lft_regular(ex["ex1"], 4), io_spans(fx("ex1")), path("o-lft1.json"))
    add("lft", f"lft random-convex-quadratic(seed={rand_seed}) --dual regular:8 --brute",
        ["lft", path("rand1d.json"), "--dual", "regular:8", "--brute"],
        check_lft_regular(rand_spec, 8), io_spans(path("rand1d.json")), path("o-lft2.json"))

    def check_lft_adaptive(res, doc):
        pts = _centered_points(ex["ex2"])
        expect(fracs(doc["dual"]) == pts, "lft adaptive: dual points")
        expect(fracs(doc["values"]) == list(_brute(ex["ex2"], pts).values), "lft adaptive: values != lft_brute")

    add("lft", "lft ex2 --dual adaptive:centered", ["lft", fx("ex2"), "--dual", "adaptive:centered"],
        check_lft_adaptive, io_spans(fx("ex2")), path("o-lft3.json"))

    def check_qlft_trials(res, doc):
        f = ex["ex3"]
        expect(doc["verification"] == "MATCH", "qlft regular: verification")
        w = w_of(f, 5)
        expect(F(doc["success_probability"]) == F(5, f.n * w), "qlft regular: acceptance != K/(N W)")
        expect(all(r["norm"] == "1" for r in doc["step_trace"]), "qlft regular: norm != 1")
        expect(doc["trials"] == 10000, "qlft regular: trials")

    add("qlft", f"qlft ex3 --mode regular --dual-size 5 --seed {qseed} --trials 10000",
        ["qlft", fx("ex3"), "--mode", "regular", "--dual-size", "5", "--seed", str(qseed), "--trials", "10000"],
        check_qlft_trials, io_spans(fx("ex3")), path("o-qlft1.json"))

    def check_omega(res, doc):
        f = ex["ex1"]
        values = _brute(f, _centered_points(f)).values
        vmax = max(abs(v) for v in values)
        expect(doc["verification"] == "MATCH", "qlft adaptive: verification")
        expect(F(doc["omega"]) == sum((v / vmax) ** 2 for v in values) / len(values), "qlft --omega: omega")

    add("qlft", "qlft ex1 --mode adaptive --omega", ["qlft", fx("ex1"), "--mode", "adaptive", "--omega"],
        check_omega, io_spans(fx("ex1")), path("o-qlft2.json"))

    transcript = path("run.jsonl")

    def check_transcript(res, doc):
        with open(transcript, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        expect(doc["verification"] == "MATCH", "qlft transcript: verification")
        expect([r["step"] for r in records] == ["superposition", "gradients", "postselect", "conjugate"],
               "qlft transcript: steps")
        expect([r["labels"] for r in records] == [5, 5, 5, 5], "qlft transcript: label counts")
        expect(all(r["norm"] == "1" for r in records), "qlft transcript: norm != 1")

    add("qlft", "qlft ex3 --dual-size 5 --transcript run.jsonl",
        ["qlft", fx("ex3"), "--dual-size", "5", "--transcript", transcript],
        check_transcript, io_spans(fx("ex3")), path("o-qlft3.json"))

    def check_sep(res, doc):
        expect(doc["n"] == [4, 4], "qlft 2D: shape")
        expect(doc["verification"] == "MATCH", "qlft 2D: separable input must MATCH")

    add("qlft", f"qlft separable-sum({sep_base}) d=2 n=4", ["qlft", path("sep2d.json")],
        check_sep, io_spans(path("sep2d.json")), path("o-qlft4.json"))

    def check_pq(res, doc):
        expect(doc["recovered"] == z8, "point-queries: recovered != z")
        expect(doc["queries"] == 8 * 2**8, "point-queries: query count != d 2^d")

    def pq_extra(tr):
        tr.call("hardness.point_queries_s", recover_via_point_queries,
                HiddenStringInstance.for_point_queries(tuple(map(int, z8))))

    add("hardness", f"hardness point-queries --d 8 --z {z8}", ["hardness", "point-queries", "--d", "8", "--z", z8],
        check_pq, pq_extra, path("o-h1.json"))

    def check_sampling(res, doc):
        expect(doc["equations"] == 10, "sampling: equations != d + t")
        if doc["success"]:
            expect(doc["recovered"] == z4, "sampling: recovered != z")
        else:
            expect(doc["rank"] < 4, "sampling: failure with full rank")

    def sampling_extra(tr):
        tr.call("hardness.sampling_s", recover_via_sampling,
                HiddenStringInstance.for_sampling(tuple(map(int, z4))), t=6, rng_seed=qseed)

    add("hardness", f"hardness sampling --d 4 --t 6 --seed {qseed} --z {z4}",
        ["hardness", "sampling", "--d", "4", "--t", "6", "--seed", str(qseed), "--z", z4],
        check_sampling, sampling_extra, path("o-h2.json"))

    def check_rescale(res, doc):
        f = ex["ex3"]
        w = w_of(f, f.n)
        expect(doc["mapping"] == "exact", "rescale: value mapping")
        expect(doc["w"] == w and doc["w_rescaled"] == w, "rescale: W != gradient-rule multiplicity")

    add("hardness", "hardness rescale ex3", ["hardness", "rescale", fx("ex3")],
        check_rescale, io_spans(fx("ex3")), path("o-h3.json"))

    def check_emit(res, doc):
        _, out, _ = res
        expect(len(out.split()) == 6, "fixtures emit: expected 6 files")
        for short, f in ex.items():
            emitted = load_doc(os.path.join(emitdir, f"{short}.json"))
            expect(fracs(emitted["samples"]) == list(f.samples), f"fixtures emit: {short} samples")
            with open(os.path.join(emitdir, f"{short}_conjugate.csv"), encoding="utf-8") as fh:
                rows = [line.strip().split(",") for line in fh][1:]
            pts = _canonical_points(f, 4 if short == "ex1" else 5)
            expect(fracs(r[0] for r in rows) == pts, f"fixtures emit: {short} plot dual grid")
            expect(fracs(r[1] for r in rows) == list(_brute(f, pts).values), f"fixtures emit: {short} plot values")

    add("fixtures", "fixtures emit --plot-data", ["fixtures", "emit", "--plot-data", "--out-dir", emitdir],
        check_emit)

    def check_rejected(code):
        def check(res, doc):
            got, _, err = res
            expect(got == code, f"rejection: exit {got}, documented {code}")
            expect(err.startswith("error: ") and err.count("\n") == 1, "rejection: one-line diagnostic")
        return check

    add("rejected", "lft malformed JSON (exit 1)", ["lft", path("malformed.json")], check_rejected(1))
    add("rejected", "lft nonconvex instance (exit 2)", ["lft", path("nonconvex.json"), "--dual", "regular:4"],
        check_rejected(2))

    def counters(outs):
        c = {"cli.rejected": 0, "hardness.queries": 0, "hardness.recovered_ratio": F(0)}
        for op, out in zip(ops, outs):
            if out is None:
                continue
            if op.kind == "rejected":
                c["cli.rejected"] += 1
            elif op.label.startswith("hardness point-queries"):
                c["hardness.queries"] = load_doc(path("o-h1.json"))["queries"]
            elif op.label.startswith("hardness sampling"):
                c["hardness.recovered_ratio"] = F(int(load_doc(path("o-h2.json"))["success"]))
        c["transform.max_bits"] = input_bits
        return c

    def warmup():
        code, _, err = _invoke(["fixtures", "emit", "--which", "all", "--out-dir", fixdir])
        if code != 0:
            raise RuntimeError(f"fixtures emit failed: {err}")

    def cleanup():
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)

    return Workload(
        name="cli-small",
        ops=ops,
        warmup=warmup,
        inputs_digest=lambda: digest(documents, qseed, z8, z4),
        properties=lambda: {"N": [5, 8, "4x4"], "K": [4, 5, 8, "4x4"], "d": [1, 2, 4, 8],
                            "hidden strings": [z8, z4], "max_bits": input_bits},
        counters=counters,
        cleanup=cleanup,
    )


BUILDERS = {"fast-1d": fast_1d, "sim-1d": sim_1d, "nd-verify": nd_verify, "cli-small": cli_small}
