#!/usr/bin/env python3
"""Collect cancellation-graph statistics over random maps and coefficients.

Reports how often the greedy pairing produces edges at all, the edge-count
histogram, and the distribution of 3-sink vertices, confirming along the way
that every expansion stays nonzero, every graph is 3-acyclic and every sink is
a valid 3-sink (the verdict of ``koszulrank cancellation``).

Usage:
    python scripts/cancellation_stats.py --n 9 --m 1 --trials 300 --seed 0
"""

import argparse
import random
import sys
from collections import Counter

from koszulrank.cancellation import contradiction_witness, random_coeffs
from koszulrank.chain_maps import random_chain_map
from koszulrank.cli import MAX_M, MAX_N, check_inputs
from koszulrank.polynomials import Char

# Largest --max-terms: every index set draws up to this many homotopy terms,
# so a trial's cost grows linearly in it.  One trial at 1000 takes about
# 0.8 s at --n 9 and 7.7 s at --n 12 (0.2 s at --n 9 with 100) on 2 shared
# cores with CPython 3.11; 10^8 runs past any time limit.
MAX_TERMS = 1000

# random_chain_map's default max_terms, which every trial of the CLI draws.
CLI_MAX_TERMS = 3

# Largest 2^n * max_terms * (m + 1), the size of the CLI's largest
# cancellation cell; the three costs multiply, so a run above it is refused
# even with each flag in range.  One trial at --n 12 --m 1000 --max-terms 1000
# took 170 s on 2 shared cores with CPython 3.11, and the CLI's
# cancellation --n 12 --m 1000 0.7 s.
LARGEST_CELL = 2 ** MAX_N * CLI_MAX_TERMS * (MAX_M + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=9)
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--char", type=int, choices=(0, 2), default=0)
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-terms", type=int, default=CLI_MAX_TERMS,
                        help="homotopy support size (larger = more rest terms)")
    args = parser.parse_args()
    check_inputs(parser, {"--n": args.n, "--m": args.m, "--trials": args.trials, "--max-terms": args.max_terms},
                 {"--n": (3, MAX_N), "--max-terms": (0, MAX_TERMS)})
    allowed = LARGEST_CELL // (2 ** args.n * (args.m + 1))
    if args.max_terms > allowed:
        parser.exit(2, f"error: --max-terms must be at most {allowed} at --n {args.n} and --m {args.m} "
                       f"(2^n * max_terms * (m + 1) at most {LARGEST_CELL})\n")
    char = Char(args.char)

    edge_counts = Counter()
    sink_counts = Counter()
    uncancelled_counts = Counter()
    for trial in range(args.trials):
        rng = random.Random(f"{args.seed}:{trial}")
        g = random_chain_map(args.n, args.m, char, rng, max_terms=args.max_terms)
        coeffs = random_coeffs(args.n, args.m, char, rng)
        witness = contradiction_witness(g, coeffs)
        if not witness.holds:
            print(f"FALSIFICATION at trial {trial}; dumping map")
            print(g.to_json())
            return 3
        edge_counts[len(witness.analysis.graph.edges)] += 1
        sink_counts[",".join(map(str, witness.sink_vertex))] += 1
        uncancelled_counts[len(witness.analysis.uncancelled)] += 1

    print(f"{args.trials} trials at n={args.n}, m={args.m}, char={args.char}: all nonzero, all 3-acyclic, all valid 3-sinks")
    print("edge count histogram:", dict(sorted(edge_counts.items())))
    print("uncancelled-regular histogram:", dict(sorted(uncancelled_counts.items())))
    print("3-sink distribution:", dict(sorted(sink_counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
