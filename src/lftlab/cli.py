"""Command-line surface: transforms, simulator runs, hardness reductions,
and fixture emission with plot-ready CSV.

Exit codes: 0 success; 1 parse or usage errors (any ``ValueError``,
``ParseError`` included, or an ``OSError`` on an output path; also a size
list that is not one integer or one per axis, ``qlft --dual-size`` without
``--mode regular``, ``qlft --omega``, ``lft --clamp`` and
``lft --dual adaptive:right|left`` on an nD instance, ``lft --clamp`` with an
adaptive dual, ``hardness --d`` below 1, ``hardness sampling --t`` below 0,
and an ``OverflowError``, such as a dual size too large to index); 2 domain
rejections (any ``LftError``, such as nonconvex input, a power-of-two
violation under --strict-pow2 or the hardness dimension cap). ``main`` maps
both once and writes one ``error: ...`` line to stderr.

``lft`` and ``qlft`` each build one result document for 1D and nD
instances; only running the transform or the simulator differs by kind.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io as _io
import os
import random
import sys

from . import fixtures
from .errors import LftError, NonConvexInput
from .grids import DualGrid, FunctionSpec
from .io import (
    ParseError,
    document_to_csv,
    dump_document,
    load_instance,
    serialize_instance,
    step_records,
    transcript_jsonl,
    with_decimals,
)
from .hardness import (
    HiddenStringInstance,
    recover_via_point_queries,
    recover_via_sampling,
    rescale_instance,
    rescaling_checks,
)
from .multi import (
    TensorSamples,
    canonical_nd_dual_grids,
    lft_brute,
    lft_nd_adaptive,
    lft_nd_brute,
    lft_nd_regular,
)
from .qlft import (
    digital_to_analog,
    retry_totals,
    run_qlft_1d_adaptive,
    run_qlft_1d_regular,
)
from .qlft_nd import run_qlft_nd_adaptive, run_qlft_nd_regular
from .qstate import label
from .rational import format_rational, frac
from .transform import (
    check_adaptive_variant,
    discrete_gradients,
    lft_adaptive,
    lft_regular,
    nontrivial_dual_range,
    regular_dual_grid,
)
from .witness import witness_params

HARDNESS_DIM_CAP = 16


def _default_seed() -> int:
    return int(os.environ.get("LFTLAB_SEED", "0"))


def _emit(doc: dict, args) -> None:
    if getattr(args, "precision", None) is not None:
        fields = ("values", "dual", "dual_points", "success_probability", "pass_acceptances")
        doc = with_decimals(doc, fields, args.precision)
    if args.format == "csv":
        text = document_to_csv(doc)
    else:
        text = dump_document(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_dual_option(spec: str, f: FunctionSpec):
    """regular:K | adaptive:centered|right|left | list:p,q,r, as (mode,
    dual grid or adaptive variant, gradients); only regular:K computes the
    gradients, which its grid and diagnostics need."""
    mode, _, arg = spec.partition(":")
    if mode == "regular":
        (k,) = _axis_sizes("--dual regular", arg, 1)
        g = discrete_gradients(f)
        return "regular", regular_dual_grid(nontrivial_dual_range(g), k), g
    if mode == "adaptive":
        return "adaptive", arg or "centered", None
    if mode == "list":
        try:
            return "list", DualGrid.from_points([frac(p) for p in arg.split(",") if p]), None
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad --dual option {spec!r}: {exc}") from exc
    raise ParseError(f"bad --dual option {spec!r}")


def cmd_lft(args) -> int:
    instance = load_instance(args.instance)
    one_d = isinstance(instance, FunctionSpec)
    if args.clamp and not one_d:
        return _fail("--clamp needs a one-dimensional instance", 1)
    if args.clamp and args.dual.partition(":")[0] == "adaptive":
        return _fail("--clamp needs a regular or list dual", 1)
    doc, values, duals = (_lft_1d if one_d else _lft_nd)(args, instance)
    if args.brute:
        brute = lft_brute(instance, duals) if one_d else lft_nd_brute(instance, duals)
        brute_values = brute.values if one_d else brute.values.flat
        doc["brute_check"] = "MATCH" if brute_values == values else "MISMATCH"
    _emit(doc, args)
    return 0


def _lft_1d(args, instance: FunctionSpec):
    mode, arg, g = _parse_dual_option(args.dual, instance)
    if mode == "adaptive":
        result = lft_adaptive(instance, arg)
    else:
        result = lft_regular(instance, arg, clamp=args.clamp)
    doc = {
        "command": "lft",
        "dual": [format_rational(s) for s in result.dual.points()],
        "values": [format_rational(v) for v in result.values],
        "optimizer_index": list(result.optimizer_index),
    }
    if g is not None and result.dual.gamma_s > 0:
        w = witness_params(g, result.dual)
        doc["diagnostics"] = {
            "w": w.w,
            "w_floor": w.w_floor,
            "nu": format_rational(w.nu),
            "success_probability": format_rational(w.success_probability),
        }
    return doc, result.values, result.dual


def _lft_nd(args, instance: TensorSamples):
    mode, _, arg = args.dual.partition(":")
    if mode == "regular":
        duals = canonical_nd_dual_grids(instance, _axis_sizes("--dual regular", arg, instance.d))
        result = lft_nd_regular(instance, duals)
    elif mode == "adaptive":
        variant = arg or "centered"
        check_adaptive_variant(variant)
        if variant != "centered":  # lft_nd_adaptive takes centered points only
            raise ParseError(f"--dual {args.dual} needs a one-dimensional instance")
        result = lft_nd_adaptive(instance)
    else:
        raise ParseError(f"--dual {args.dual!r} unsupported for tensors")
    points = [result.dual_point(idx) for idx in result.values.indices()]
    doc = {
        "command": "lft",
        "shape": list(result.values.shape),
        "dual_points": [[format_rational(c) for c in p] for p in points],
        "values": [format_rational(v) for v in result.values.flat],
        "optimizer_index": [list(o) for o in result.optimizer],
    }
    return doc, result.values.flat, points


def _axis_sizes(flag: str, spec: str, d: int) -> list[int]:
    """K per axis of a d-axis instance from "K" (every axis) or "K0,K1,..."
    (one per axis); a malformed spec is reported against ``flag``."""
    try:
        ks = [int(p) for p in spec.split(",")]
    except ValueError:
        ks = []
    if len(ks) not in (1, d):
        per_axis = f" or {d} comma-separated integers" if d > 1 else ""
        raise ParseError(f"{flag} needs an integer K{per_axis}, got {spec!r}")
    return ks * d if len(ks) == 1 else ks


def cmd_qlft(args) -> int:
    instance = load_instance(args.instance)
    seed = args.seed if args.seed is not None else _default_seed()
    trials = args.trials
    if trials < 1:
        return _fail("--trials must be at least 1", 1)
    one_d = isinstance(instance, FunctionSpec)
    if args.omega and not one_d:
        return _fail("--omega needs a one-dimensional instance", 1)
    if args.dual_size and args.mode == "adaptive":
        return _fail("--dual-size needs --mode regular", 1)
    run, verification = (_qlft_1d if one_d else _qlft_nd)(args, instance, seed)
    p = run.success_probability
    # trials are drawn in turn from one stream, so trial 0 is the run's own draw
    if p > 0:
        total, first = retry_totals(p, random.Random(seed), trials)
    else:  # a pass rejected every branch
        total = first = 0
    doc = {
        "command": "qlft",
        "mode": args.mode,
        "seed": seed,
        "trials": trials,
        "n": [instance.n] if one_d else list(instance.grid.shape),
        "success_probability": format_rational(p),
        "expected_aa_repetitions": run.expected_aa_repetitions,
        "mean_attempts": total / trials,
        # a trial's first draw decides whether it succeeds at once, so this
        # is the first-try success rate of the same trials, not an estimate
        "empirical_acceptance": first / trials,
        "verification": verification,
        "step_trace": step_records(run),
    }
    if not one_d:
        doc["pass_acceptances"] = [format_rational(q) for q in run.pass_acceptances]
        doc["verification_missing"] = len(run.verification.missing)
        doc["verification_value_mismatches"] = len(run.verification.value_mismatches)
    elif args.omega:
        state = run.final_state
        if args.mode == "adaptive":  # adaptive runs label by i; the encoding reads j
            state = state.map_labels(
                lambda lab: label(("j", lab.get("i")), ("fstar", lab.get("fstar")))
            )
        enc = digital_to_analog(state)
        doc["omega"] = format_rational(enc.omega)
        doc["omega_expected_attempts"] = enc.expected_attempts
    if args.transcript:
        with open(args.transcript, "w", encoding="utf-8") as fh:
            fh.write(transcript_jsonl(run))
    _emit(doc, args)
    return 0


def _qlft_1d(args, instance: FunctionSpec, seed: int):
    """Run the 1D simulator, then check its values against the classical transform."""
    if args.mode == "adaptive":
        run = run_qlft_1d_adaptive(instance, strict_pow2=args.strict_pow2)
        classical = lft_adaptive(instance)
    else:
        k = _axis_sizes("--dual-size", args.dual_size, 1)[0] if args.dual_size else instance.n
        run = run_qlft_1d_regular(instance, k, rng_seed=seed, strict_pow2=args.strict_pow2)
        dual = regular_dual_grid(nontrivial_dual_range(discrete_gradients(instance)), k)
        classical = lft_regular(instance, dual)
    values = tuple(lab.get("fstar") for lab, _ in run.final_state.entries)
    return run, "MATCH" if values == classical.values else "MISMATCH"


def _qlft_nd(args, instance: TensorSamples, seed: int):
    if args.mode == "adaptive":
        run = run_qlft_nd_adaptive(instance, strict_pow2=args.strict_pow2)
    else:
        ks = list(instance.grid.shape)
        if args.dual_size:
            ks = _axis_sizes("--dual-size", args.dual_size, instance.d)
        run = run_qlft_nd_regular(instance, ks=ks, rng_seed=seed, strict_pow2=args.strict_pow2)
    return run, run.verification.status


def cmd_hardness(args) -> int:
    if args.sub != "rescale" and args.d < 1:
        return _fail(f"--d must be at least 1, got {args.d}", 1)
    if args.sub != "rescale" and args.d > HARDNESS_DIM_CAP:
        return _fail(f"dimension {args.d} exceeds cap {HARDNESS_DIM_CAP}", 2)
    if args.sub == "point-queries":
        z = _parse_z(args.z, args.d)
        if z is None:
            return _fail(f"--z must be a 0/1 string of length {args.d}", 1)
        inst = HiddenStringInstance.for_point_queries(z)
        recovered = recover_via_point_queries(inst)
        doc = {
            "command": "hardness",
            "sub": "point-queries",
            "d": args.d,
            "z": "".join(map(str, z)),
            "recovered": "".join(map(str, recovered)),
            "queries": inst.query_counter,
        }
    elif args.sub == "sampling":
        seed = args.seed if args.seed is not None else _default_seed()
        z = _parse_z(args.z, args.d) if args.z else tuple(
            random.Random(seed ^ 0x5EED).randint(0, 1) for _ in range(args.d)
        )
        if z is None:
            return _fail(f"--z must be a 0/1 string of length {args.d}", 1)
        inst = HiddenStringInstance.for_sampling(z)
        out = recover_via_sampling(inst, t=args.t, rng_seed=seed)
        doc = {
            "command": "hardness",
            "sub": "sampling",
            "d": args.d,
            "t": args.t,
            "seed": seed,
            "success": out.success,
            "recovered": "".join(map(str, out.recovered)) if out.recovered else None,
            "equations": out.equations,
            "rank": out.rank,
        }
    else:  # rescale
        instance = load_instance(args.instance)
        if not isinstance(instance, FunctionSpec):
            return _fail("rescale expects a one-dimensional instance", 1)
        g = discrete_gradients(instance)
        k = instance.n if args.k is None else args.k
        dual = regular_dual_grid(nontrivial_dual_range(g), k)
        checks = rescaling_checks(rescale_instance(instance, dual))
        doc = {
            "command": "hardness",
            "sub": "rescale",
            "w": checks["w"],
            "w_rescaled": checks["w_rescaled"],
            "mapping": "exact" if checks["mapping_exact"] else "broken",
            "xi": format_rational(checks["xi"]),
            "value_scale": format_rational(checks["value_scale"]),
        }
    _emit(doc, args)
    return 0


def _parse_z(z: str, d: int):
    if z is None or len(z) != d or any(ch not in "01" for ch in z):
        return None
    return tuple(int(ch) for ch in z)


def cmd_fixtures(args) -> int:
    which = ("ex1", "ex2", "ex3") if args.which == "all" else (args.which,)
    names = {"ex1": "quadratic-ex1", "ex2": "pwl-ex2", "ex3": "pwl-ex3"}
    os.makedirs(args.out_dir, exist_ok=True)
    written = []
    for short in which:
        spec = fixtures.sampled(names[short])
        path = os.path.join(args.out_dir, f"{short}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_document(serialize_instance(spec)))
        written.append(path)
        if args.plot_data:
            path_csv = os.path.join(args.out_dir, f"{short}_conjugate.csv")
            _write_plot_csv(path_csv, spec, names[short])
            written.append(path_csv)
    for path in written:
        print(path)
    return 0


def _write_plot_csv(path: str, spec, name: str) -> None:
    g = discrete_gradients(spec)
    dual = regular_dual_grid(nontrivial_dual_range(g), 4 if name == "quadratic-ex1" else 5)
    discrete = lft_regular(spec, dual)
    continuous = fixtures.conjugate_of(name)
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["s", "fstar_discrete", "fstar_continuous"])
    for j in range(dual.k):
        s = dual.point(j)
        writer.writerow(
            [format_rational(s), format_rational(discrete.values[j]), format_rational(continuous(s))]
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ParseError, so they reach stderr as one line."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared by every later
    ``main`` call in the process: ``parse_args`` returns a fresh namespace
    and leaves the parser unchanged."""
    parser = _Parser(
        prog="lftlab",
        description="Discrete Legendre-Fenchel transforms, simulator runs, and hardness reductions",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="write the result document here")
    parser.add_argument("--precision", type=int, default=None, help="add decimal renderings")
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # subcommand-side absence from clobbering a top-level value
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--precision", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_lft = sub.add_parser("lft", help="classical discrete transform", parents=[common])
    p_lft.add_argument("instance")
    p_lft.add_argument("--dual", default="regular:5", help="regular:K | adaptive:centered|right|left | list:p,q,...")
    p_lft.add_argument("--brute", action="store_true", help="cross-check against brute force")
    p_lft.add_argument("--clamp", action="store_true", help="pin out-of-range dual points to the boundary")
    p_lft.set_defaults(fn=cmd_lft)

    p_q = sub.add_parser("qlft", help="register-level simulator runs", parents=[common])
    p_q.add_argument("instance")
    p_q.add_argument("--mode", choices=("regular", "adaptive"), default="regular")
    p_q.add_argument("--dual-size", default=None, help="K (or per-axis K0,K1,...)")
    p_q.add_argument("--seed", type=int, default=None)
    p_q.add_argument("--trials", type=int, default=1)
    p_q.add_argument(
        "--omega", action="store_true", help="report the analog-encoding weight (1D instances only)"
    )
    p_q.add_argument("--strict-pow2", action="store_true", help="reject non-power-of-two sizes")
    p_q.add_argument("--transcript", default=None, help="write the step log here, one JSON record per line")
    p_q.set_defaults(fn=cmd_qlft)

    p_h = sub.add_parser("hardness", help="hidden-string reductions", parents=[common])
    hsub = p_h.add_subparsers(dest="sub", required=True)
    h_pq = hsub.add_parser("point-queries", parents=[common])
    h_pq.add_argument("--d", type=int, required=True)
    h_pq.add_argument("--z", required=True)
    h_s = hsub.add_parser("sampling", parents=[common])
    h_s.add_argument("--d", type=int, required=True)
    h_s.add_argument("--t", type=int, default=6)
    h_s.add_argument("--z", default=None)
    h_s.add_argument("--seed", type=int, default=None)
    h_r = hsub.add_parser("rescale", parents=[common])
    h_r.add_argument("instance")
    h_r.add_argument("--k", type=int, default=None)
    for p in (h_pq, h_s, h_r):
        p.set_defaults(fn=cmd_hardness)

    p_f = sub.add_parser("fixtures", help="emit instance files and plot data", parents=[common])
    fsub = p_f.add_subparsers(dest="sub", required=True)
    f_e = fsub.add_parser("emit", parents=[common])
    f_e.add_argument("--which", choices=("ex1", "ex2", "ex3", "all"), default="all")
    f_e.add_argument("--plot-data", action="store_true")
    f_e.add_argument("--out-dir", default="fixtures")
    f_e.set_defaults(fn=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit:  # --help prints and exits 0; usage errors raise ParseError
        return 0
    except NonConvexInput as exc:
        return _fail(f"nonconvex input: {exc}", 2)
    except LftError as exc:
        return _fail(str(exc), 2)
    except (ValueError, OSError, OverflowError) as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
