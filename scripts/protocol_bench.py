#!/usr/bin/env python3
"""Compare the registered protocols over a batch of sampled instances.

Runs the protocol driver once per registered protocol (every protocol sees
the same instances) and prints per-protocol welfare-ratio statistics, round
counts, communication, and how often the ratio clears 179/240 + eps (the
level at which an allocation pins down the special copy).

Usage: python scripts/protocol_bench.py [--m 160] [--n 8] [--trials 50]
       [--eps 0.002] [--seed 0]
"""

import argparse
from fractions import Fraction

from bxoslab.lab import ExperimentConfig, run_protocol_experiment
from bxoslab.protocols import PROTOCOL_NAMES
from bxoslab.valuations import recovery_threshold


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--m", type=int, default=160)
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--eps", type=float, default=0.002)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    bar = recovery_threshold(args.m, args.eps) / args.m
    print(f"m={args.m} n={args.n} trials={args.trials} recovery bar={float(bar):.4f}")
    print(f"{'protocol':>15} {'ratio_mean':>11} {'ratio_min':>10} {'rounds':>7} "
          f"{'cc_max':>8} {'P[ratio>bar]':>13}")
    for name in PROTOCOL_NAMES:
        cfg = ExperimentConfig(m=args.m, n=args.n, eps=args.eps, trials=args.trials, seed=args.seed, protocol=name)
        measured = next(c["measured"] for c in run_protocol_experiment(cfg)["checks"] if c["name"] == "protocol_outcomes")
        print(f"{name:>15} {measured['ratio_mean']:>11.4f} {float(Fraction(measured['ratio_min'])):>10.4f} "
              f"{'/'.join(map(str, measured['rounds'])):>7} {measured['cc_bits_max']:>8} "
              f"{measured['exceedance_probability']:>13.2f}")


if __name__ == "__main__":
    main()
