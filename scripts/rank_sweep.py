#!/usr/bin/env python3
"""Sweep random chain maps over a parameter grid and tabulate observed ranks.

For each (n, m, characteristic, grading) cell the script perturbs the
multiplicative baseline map `trials` times, records the minimum observed
rank over the fraction field, and compares it with the improved lower bound
2(n + floor(n/3)) and the classical linear one.

Usage:
    python scripts/rank_sweep.py --max-n 6 --trials 25 --seed 0
"""

import argparse
import random
import sys

from koszulrank.certificates import classical_bound, improved_bound
from koszulrank.chain_maps import GradingMode, RankMethod, random_chain_map, rank
from koszulrank.cli import MAX_N, check_inputs
from koszulrank.polynomials import Char


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--m", type=int, nargs="*", default=[1, 2])
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    check_inputs(parser, {"--max-n": args.max_n, "--m": args.m, "--trials": args.trials},
                 {"--max-n": (2, MAX_N)})  # the sweep starts at n = 2
    if not args.m:
        parser.exit(2, "error: --m needs at least one level\n")

    header = f"{'n':>2} {'m':>2} {'char':>4} {'grading':>8} {'min rank':>9} {'improved':>9} {'classical':>10}"
    print(header)
    print("-" * len(header))
    for n in range(2, args.max_n + 1):
        for m in args.m:
            for char in (Char.ZERO, Char.TWO):
                gradings = [GradingMode.FULL, None] if char is Char.ZERO else [None]
                for grading in gradings:
                    rng = random.Random(f"{args.seed}:{n}:{m}:{char.value}:{grading}")
                    observed = min(
                        rank(random_chain_map(n, m, char, rng, grading=grading),
                             RankMethod.MODULAR, rng)
                        for _ in range(args.trials)
                    )
                    label = grading.value if grading else "none"
                    marker = "" if observed >= improved_bound(n) else "  <-- below improved bound"
                    print(
                        f"{n:>2} {m:>2} {char.value:>4} {label:>8} {observed:>9} "
                        f"{improved_bound(n):>9} {classical_bound(n):>10}{marker}"
                    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
