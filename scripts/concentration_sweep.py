#!/usr/bin/env python3
"""Sweep universe sizes and tabulate cross-intersection margins.

For each m, runs the concentration driver and reports how far the worst
regular and special cross intersections sit above (or below) the exact
expectations, in units of eps*m, plus the number of instances with any
low-intersection event.

Usage: python scripts/concentration_sweep.py [--sizes 160 1600 16000] [--n 4]
       [--trials 20] [--eps 0.002] [--seed 0]
"""

import argparse

from bxoslab.lab import ExperimentConfig, verify_concentration
from bxoslab.valuations import cross_floors, eps_fraction


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", type=int, nargs="+", default=[160, 1600, 16000, 160000])
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--eps", type=float, default=0.002)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"{'m':>9} {'reg_min':>12} {'reg_exact':>12} {'spec_min':>12} "
          f"{'spec_exact':>12} {'margin/eps*m':>13} {'low_events':>10}")
    for m in args.sizes:
        cfg = ExperimentConfig(m=m, n=args.n, eps=args.eps, trials=args.trials, seed=args.seed)
        measured = next(c["measured"] for c in verify_concentration(cfg)["checks"] if c["name"] == "cross_intersection_floors")
        reg_min, spec_min = measured["regular_min"], measured["special_min"]
        reg_exact, spec_exact = cross_floors(m)
        margin = min(reg_min - reg_exact, spec_min - spec_exact) / (eps_fraction(args.eps) * m)
        print(f"{m:>9} {reg_min:>12} {float(reg_exact):>12.1f} {spec_min:>12} "
              f"{float(spec_exact):>12.1f} {float(margin):>13.2f} {measured['instances_with_low_event']:>10}")


if __name__ == "__main__":
    main()
