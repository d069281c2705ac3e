#!/usr/bin/env python3
"""Empirical verification sweep for the nested multidimensional runs.

In regular mode the multidimensional pipeline gates copy slots on the
neighbor-slot condition, which reads the neighbors' counts from the
classical cascade. Branches of neither mode carry neighbor rows: an
adaptive branch's s on each axis is the input's centered partial
gradient at its index, which is what rows mapped with the branch's own
optimizer would give. Whether either mode reproduces the true conjugate
off the separable case is an open empirical question here. This sweep runs many 2D instances, tabulates MATCH / MISMATCH /
aborted outcomes per coupling strength, and prints a reproducing seed for
every discrepancy.
"""

import argparse
import random
from collections import Counter

from lftlab import fixtures
from lftlab.qlft_nd import MATCH, run_qlft_nd_adaptive, run_qlft_nd_regular


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=60)
    parser.add_argument("--n", type=int, default=4, help="grid points per axis")
    parser.add_argument("--k", type=int, default=4, help="dual points per axis")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("regular", "adaptive"), default="regular")
    args = parser.parse_args()

    print(f"mode={args.mode} n={args.n} k={args.k} instances={args.instances}\n")
    print("separable baseline (expected MATCH):")
    f = fixtures.separable_sum("quadratic-ex1", d=2, n=args.n)
    run = (
        run_qlft_nd_regular(f, ks=(args.k, args.k), rng_seed=args.seed)
        if args.mode == "regular"
        else run_qlft_nd_adaptive(f)
    )
    print(
        f"  status={run.verification.status} "
        f"pass_acceptances={[str(p) for p in run.pass_acceptances]}\n"
    )

    tally = Counter()
    repro = []
    for i in range(args.instances):
        seed = args.seed + i
        rng = random.Random(seed)
        coupling = rng.choice([1, 2, 3])
        f = fixtures.random_convex_quadratic_nd(rng, d=2, n=args.n, coupling=coupling)
        if args.mode == "regular":
            run = run_qlft_nd_regular(f, ks=(args.k, args.k), rng_seed=seed)
        else:
            run = run_qlft_nd_adaptive(f)
        status = run.verification.status
        if run.final_state is None:
            status = "ABORTED"
        tally[(coupling, status)] += 1
        if status != MATCH:
            repro.append(
                (
                    seed,
                    coupling,
                    status,
                    len(run.verification.missing),
                    len(run.verification.value_mismatches),
                )
            )

    print("outcome tally by coupling:")
    for (coupling, status), count in sorted(tally.items()):
        print(f"  coupling={coupling} {status:<9} {count}")
    if repro:
        print("\ndiscrepancies (seed, coupling, status, #missing, #value-diffs):")
        for entry in repro:
            print(f"  {entry}")
    else:
        print("\nno discrepancies observed")


if __name__ == "__main__":
    main()
