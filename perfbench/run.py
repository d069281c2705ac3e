#!/usr/bin/env python3
"""lftlab benchmark: four seeded, oracle-checked workloads.

    python3 perfbench/run.py --workload fast-1d --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Load model: one caller in one process, closed loop, each op
issued after the previous one returns. A run repeats the workload's
fixed op list ("a pass") until ``--seconds`` is used up. Every op output
is checked against its exact oracle outside the timed region.

``--trace 0`` prints the end-to-end metrics (and, not bounded, raw
``run_s`` and the op latency percentiles); ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, the
self-time table and the tracing overhead, and writes the spans to
``.perfbench_out/``. The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See
perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("fast-1d", "sim-1d", "nd-verify", "cli-small")
DEFAULT_SEED = 1
HELDOUT_SEED = 20061  # for confirming a claimed gain on inputs it was not tuned on
# set-ups per run (this process plus fresh ones): at least SETUP_MIN, then
# more while their total stays under SETUP_BUDGET_S, up to SETUP_MAX; cheap
# set-ups are noisier relative to their length and get more samples
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
MIN_PASSES = 3  # best-of-passes needs a few; the determinism check needs two
REF_TERMS = 500  # harmonic-sum terms of the host reference loop, about 1 ms

END_TO_END = {
    "setup_s": "s",
    "run_rel": "ref",
    "peak_rss_mb": "MB",
}

# name -> unit; "s" metrics are per-pass span totals, "ms" metrics the
# median duration of one span, the rest exact counts or exact ratios
PER_LAYER = {
    "transform.gradients_s": "s",
    "transform.assign_s": "s",
    "transform.regular_s": "s",
    "transform.values_s": "s",
    "transform.adaptive_s": "s",
    "transform.dual_points": "count",
    "transform.max_bits": "bits",
    "witness.params_s": "s",
    "witness.acceptance_s": "s",
    "witness.pairs": "count",
    "witness.w": "count",
    "qlft.superposition_s": "s",
    "qlft.gradients_s": "s",
    "qlft.postselect_s": "s",
    "qlft.conjugate_s": "s",
    "qlft.adaptive_s": "s",
    "qlft.analog_s": "s",
    "qlft.accept_ratio": "ratio",
    "qlft.attempts": "count",
    "qstate.labels_peak": "count",
    "multi.grids_s": "s",
    "multi.nested_s": "s",
    "multi.adaptive_s": "s",
    "multi.brute_s": "s",
    "multi.brute_evals": "count",
    "qlft_nd.regular_s": "s",
    "qlft_nd.passes_s": "s",
    "qlft_nd.adaptive_s": "s",
    "qlft_nd.pass_accept": "ratio",
    "qlft_nd.missing": "count",
    "qlft_nd.match": "ratio",
    "hardness.point_queries_s": "s",
    "hardness.queries": "count",
    "hardness.sampling_s": "s",
    "hardness.recovered_ratio": "ratio",
    "io.load_s": "s",
    "io.dump_s": "s",
    "cli.lft_ms": "ms",
    "cli.qlft_ms": "ms",
    "cli.hardness_ms": "ms",
    "cli.fixtures_ms": "ms",
    "cli.rejected": "count",
    "trace.overhead_s": "s",
    "host.ref_ms": "ms",
}

# derived per-layer times: name -> (minuend, subtrahends)
DERIVED = {
    "transform.values_s": ("transform.regular_s", ("transform.gradients_s", "transform.assign_s")),
    "qlft_nd.passes_s": ("qlft_nd.regular_s", ("multi.brute_s",)),
}


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 0, ordered[0]


def setup_probe(workload: str, seed: int) -> dict:
    """Set the workload up in a fresh interpreter; returns its timing and digest."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(wl, seconds: float, traced: bool, tracer) -> list[dict]:
    """Repeat the op list until ``seconds`` run out; odd passes are traced
    when ``traced`` is set."""
    passes: list[dict] = []
    start = perf_counter()
    # As timeit does, the cyclic collector is paused while ops run and run
    # between passes: its pauses scale with the whole heap and made single
    # op timings swing by up to 80 % on a shared 2-core machine.
    gc.disable()
    try:
        while not passes or not stop(passes, start, seconds):
            passes.append(one_pass(wl, tracer if traced and len(passes) % 2 == 1 else None, tracer))
    finally:
        gc.enable()
    return passes


def stop(passes, start: float, seconds: float) -> bool:
    """True once another pass as long as the last would overrun ``seconds``."""
    return len(passes) >= MIN_PASSES and perf_counter() - start + passes[-1]["wall"] > seconds


def one_pass(wl, tr, tracer) -> dict:
    """Run the op list once, spanned when ``tr`` is set. Each output is
    checked right after its op returns, outside the op's timing."""
    from workloads import CheckFailed

    gc.collect()
    mark = len(tracer.spans) if tr is not None else 0
    began = perf_counter()
    latencies, outs, fails, refs = [], [], [], []
    for op in wl.ops:
        t0 = perf_counter()
        try:
            if tr is None:
                out = op.run(None)
            else:
                tr.op_id += 1
                out = tr.call("op." + op.kind, op.run, tr)
        except Exception as exc:  # a raising op is a failed op, not a crash
            latencies.append(perf_counter() - t0)
            outs.append(None)
            fails.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            continue
        latencies.append(perf_counter() - t0)
        try:
            op.check(out)
        except CheckFailed as exc:
            fails.append(str(exc))
            out = None
        outs.append(out)
        refs.append(reference_chunk())
    return {
        "traced": tr is not None,
        "latencies": latencies,
        "refs": refs,
        "fails": fails,
        "counters": wl.counters(outs),
        "findings": wl.findings(outs),
        "span_totals": dict(tracer.totals(mark)) if tr is not None else {},
        "wall": perf_counter() - began,
    }


def reference_chunk() -> float:
    """Seconds for a fixed exact-rational loop that does not touch lftlab.

    Run after every op, it samples the host's speed through the run; its
    fastest sample is the unit of ``run_rel``. On the shared reference
    host this loop slowed by half for minutes at a time, moving raw
    seconds with it.
    """
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, REF_TERMS):
        acc += Fraction(1, i)
    return perf_counter() - t0


def host_reference(passes: list[dict]) -> float:
    """The host reference loop at its fastest over the passes, in seconds."""
    return min(r for p in passes for r in p["refs"])


def run_time(passes: list[dict]) -> float:
    """One pass of the op list: each op at its fastest over the passes, summed.

    On the shared reference machine other tenants slow everything by up
    to half for seconds at a time. A run fits only three or four passes of
    the heavier workloads, so a median still carries such a window; the
    best of the passes drops it unless it covers the whole run.
    """
    return sum(min(lat) for lat in zip(*(p["latencies"] for p in passes)))


def per_layer(passes: list[dict], tracer) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            values[name] = median(p["span_totals"].get(name, 0.0) for p in traced)
        elif unit == "ms":
            durations = [s["end"] - s["start"] for s in tracer.spans if s["name"] == name]
            values[name] = 1000 * median(durations) if durations else 0.0
        else:
            values[name] = float(traced[-1]["counters"].get(name, 0))
    for name, (whole, parts) in DERIVED.items():
        values[name] = median(
            p["span_totals"].get(whole, 0.0) - sum(p["span_totals"].get(q, 0.0) for q in parts) for p in traced
        )
    values["trace.overhead_s"] = run_time(traced) - run_time(plain)
    values["host.ref_ms"] = 1000 * host_reference(plain)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"input seed; {HELDOUT_SEED} is held out")
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lftlab", "__init__.py")):
        print(f"error: no lftlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    t0 = perf_counter()
    import workloads  # imports lftlab: part of set-up

    wl = workloads.BUILDERS[args.workload](args.seed, ROOT)
    try:
        wl.warmup()
        setup_here = perf_counter() - t0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_here, "digest": wl.inputs_digest()}))
            return 0
        return report(args, wl, setup_here)
    finally:
        wl.cleanup()


def report(args, wl, setup_here: float) -> int:
    import lftlab
    from spans import Tracer

    if not os.path.abspath(lftlab.__file__).startswith(SRC + os.sep):
        print(f"error: lftlab imported from {lftlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    digest = wl.inputs_digest()
    setups, same_inputs = [setup_here], True
    started = perf_counter()
    while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX and perf_counter() - started < SETUP_BUDGET_S):
        probe = setup_probe(args.workload, args.seed)
        setups.append(probe["setup_s"])
        same_inputs &= probe["digest"] == digest

    tracer = Tracer() if args.trace else None
    passes = measure(wl, args.seconds, bool(args.trace), tracer)
    plain = [p for p in passes if not p["traced"]]
    attempted = len(passes) * len(wl.ops)
    fails = [f for p in passes for f in p["fails"]]
    deterministic = all(p["counters"] == passes[0]["counters"] for p in passes)
    correct = not fails and deterministic and same_inputs

    print(f"workload {wl.name}  seed {args.seed}  passes {len(passes)} ({len(wl.ops)} ops each)  trace {args.trace}")
    for key, value in wl.properties().items():
        print(f"  input {key}: {value}")
    print(f"  fail_ratio {len(fails)}/{attempted} = {len(fails) / attempted:.4g}")
    for line in fails[:20]:
        print(f"    FAILED {line}")
    for line in dict.fromkeys(f for p in passes for f in p["findings"]):
        print(f"    finding {line}")
    print(f"  inputs identical across {len(setups)} set-ups: {same_inputs}")
    print(f"  exact counters identical across {len(passes)} passes: {deterministic}")
    for key, value in passes[0]["counters"].items():
        print(f"    {key} = {value}")

    if args.trace:
        metrics = per_layer(passes, tracer)
        os.makedirs(OUT, exist_ok=True)
        dump = os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.jsonl")
        tracer.dump(dump)
        print(f"  self time over {len(tracer.spans)} spans (written to {os.path.relpath(dump, ROOT)}):")
        print(f"    {'span':28} {'count':>6} {'total_s':>10} {'self_s':>10}")
        for name, (count, total, self_s) in sorted(tracer.self_times().items(), key=lambda kv: -kv[1][2]):
            print(f"    {name:28} {count:6d} {total:10.4f} {self_s:10.4f}")
        print("  per-layer metrics (median over traced passes):")
        for name, value in metrics.items():
            derived = "  (derived)" if name in DERIVED else ""
            print(f"    {name:28} {value:.6g} {PER_LAYER[name]}{derived}")
        print(
            f"  tracing overhead: traced run_s {run_time([p for p in passes if p['traced']]):.4f} s - "
            f"untraced run_s {run_time(plain):.4f} s = {metrics['trace.overhead_s']:.4f} s"
        )
        units = PER_LAYER
    else:
        run_s, host = run_time(plain), host_reference(plain)
        metrics = {
            "setup_s": median(setups),
            "run_rel": run_s / host,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        basis = {
            "setup_s": f"median of {len(setups)} set-ups",
            "run_rel": f"run_s over the host reference loop, {1000 * host:.4f} ms at best",
            "peak_rss_mb": "ru_maxrss",
        }
        for name, value in metrics.items():
            print(f"  {name:12} {value:12.4f} {END_TO_END[name]:3} ({basis[name]})")
        # printed, not bounded: raw seconds move with the host, and the op
        # mixes are multi-modal (see README)
        print(f"  {'run_s':12} {run_s:12.4f} s    (sum over ops of the best of {len(plain)} passes)")
        latencies = [x for p in plain for x in p["latencies"]]
        print(f"  {'op_p50_ms':12} {1000 * median(latencies):12.4f} ms  (n={len(latencies)} ops)")
        pct, tail_s = tail(latencies)
        print(f"  {'op_tail_ms':12} {1000 * tail_s:12.4f} ms  (p{pct}, n={len(latencies)} ops)")
        units = END_TO_END
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(fails),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
