#!/usr/bin/env python3
"""Reproduce the three worked-example tables end to end.

For each fixture: gradients, nontrivial dual range, regular and adaptive
conjugates, witness diagnostics, a seeded simulator run checked against
the classical values, and the analog-encoding weight of the conjugate.
"""

import argparse
from lftlab import fixtures, lft_brute
from lftlab.qlft import conjugate_pairs, digital_to_analog, run_qlft_1d_regular
from lftlab.rational import format_rational as fmt
from lftlab.transform import (
    discrete_gradients,
    lft_adaptive,
    lft_regular,
    nontrivial_dual_range,
    regular_dual_grid,
)
from lftlab.witness import witness_params

CASES = (
    ("ex1 (quadratic)", "quadratic-ex1", 4),
    ("ex2 (piecewise linear, W=1)", "pwl-ex2", 5),
    ("ex3 (piecewise linear, W=2)", "pwl-ex3", 5),
)


def row(label, values):
    print(f"  {label:<28} {', '.join(fmt(v) for v in values)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for title, name, k in CASES:
        f = fixtures.sampled(name)
        g = discrete_gradients(f)
        dual = regular_dual_grid(nontrivial_dual_range(g), k)
        reg = lft_regular(f, dual)
        brute = lft_brute(f, dual)
        adaptive = lft_adaptive(f, "centered")
        w = witness_params(g, dual)
        run = run_qlft_1d_regular(f, k, rng_seed=args.seed)
        sim_vals = tuple(v for _, v in conjugate_pairs(run))
        enc = digital_to_analog(run.final_state)

        print(f"\n{title}")
        row("samples", f.samples)
        row("gradients", g.c)
        row("dual (regular)", dual.points())
        row("conjugate (regular)", reg.values)
        row("conjugate (brute)", brute.values)
        row("dual (adaptive centered)", adaptive.dual.points())
        row("conjugate (adaptive)", adaptive.values)
        print(f"  {'W / nu / success':<28} {w.w} / {fmt(w.nu)} / {fmt(w.success_probability)}")
        print(
            f"  {'simulator':<28} attempts={run.attempts}, "
            f"p={fmt(run.success_probability)}, "
            f"values {'==' if sim_vals == reg.values else '!='} classical"
        )
        print(f"  {'analog omega':<28} {fmt(enc.omega)}")

    print()


if __name__ == "__main__":
    main()
