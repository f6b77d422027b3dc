#!/usr/bin/env python3
"""Record a BENCH_*.json: medians of repeated benchmark runs plus field micro-timings.

End-to-end numbers come only from the benchmark, ``perfbench/run.py``: it is
run ``--runs`` times with ``--workload all`` (one process per workload, each
for the benchmark's own run length), and the median of each metric over the runs is recorded.  With ``--baseline DIR``
(another checkout, such as the parent commit's) the runs alternate between
that checkout and this one, each side going first in every other pair, and
the record also holds the baseline medians, each metric's median change and
how many of the pairs this checkout won.  Both sides run under the same
bytecode condition, the one of a fresh checkout: ``PYTHONDONTWRITEBYTECODE=1``
and an empty ``PYTHONPYCACHEPREFIX`` directory per run, so every run
compiles koszulrank from source and none reads bytecode another run wrote.

Layer micro-timings run in this process on fixed seeded inputs: one fully
graded n=8 bound matrix per characteristic, evaluated once in each field
(F_p at a 31-bit prime; GF(2^16), GF(2^32) and GF(2^64)).  ``mul`` over the
evaluated entries, the field's ``evaluate`` of each nonzero polynomial entry
at the point (``eval_ns``, per entry) and ``point_rank`` of the evaluated
rows (the CLI's rank path) are timed ``REPEAT`` times each, and the medians
are kept.  ``homology_dims`` is timed
per characteristic up to the default truncation for m=1 on two n=4
complexes: a shuffled level-0 Koszul complex, the ``lift`` workload's middle
complex, which is ranked strand by strand (``homology_s``), and the Koszul
complex on the linear forms t_i + t_(i+1), which is not Z^n-graded and so is
ranked by eliminating whole degrees (``elimination_s``).  ``koszul_s`` times
``truncated_homology_dim`` of K_10(1) per characteristic, where ranking the
strand classes is most of the cost.  Each repetition ranks a fresh complex,
so no kept ranks are reused.  ``construct_alpha`` is timed on the same two
complexes, whose ranks are computed beforehand so only the lifting solves
are timed: in one multidegree strand on the middle complex (``alpha_s``),
by whole degrees on the linear-forms complex (``alpha_fallback_s``).  The
exact rank of the lift's composite map is timed as ``exact_rank_s`` (a full
evaluation rank decides it), next to fraction-free elimination of the same
matrix (``bareiss_s``).  ``certify``
holds in-process seconds per trial of ``certify --m 1 --grading full --seed
7`` per characteristic at n = 8 and 9: one ``cli.main`` call of ``REPEAT``
trials, its time divided by ``REPEAT``.  ``draws`` holds the median seconds
per ``random_homotopy`` call at the shape of each ``cli`` benchmark cell
(one batch of ``DRAW_SEEDS`` calls per repetition, from freshly seeded
generators, divided by the batch size).  ``bound`` holds the median seconds
per ``chain_maps.rank`` call on fully graded m=1 maps per characteristic at
n = 8 and 9 (a fresh map from ``MICRO_SEED`` per repetition), with the
median entry counts, at one 31-bit point per map, of the boundary matrix
that decides a full rank (``boundary_entries``) and of the full matrix
(``full_entries``).

Usage:
    python scripts/bench.py --out BENCH.json --runs 3
    python scripts/bench.py --out BENCH.json --runs 10 --baseline ../parent-checkout
    python scripts/bench.py --out BENCH.json --runs 0      # micro-timings only
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from koszulrank import chain_maps, cli
from koszulrank.chain_maps import GradingMode, RankMethod, matrix_of_images, random_chain_map, random_homotopy, rank
from koszulrank.hb_model import (
    compose_to_gamma,
    construct_alpha,
    default_truncation,
    koszul_filt_complex,
    linear_forms_koszul_complex,
    shuffled_complex,
)
from koszulrank.koszul import ComplexDescriptor, truncated_homology_dim
from koszulrank.linalg import PrimeField, bareiss_rank, gf2_field, point_rank, random_prime
from koszulrank.polynomials import Char, power_tables

ROOT = Path(__file__).resolve().parent.parent
MICRO_N = 8
MICRO_SEED = 0xBE7C
REPEAT = 5  # repetitions of each micro-timing
HOMOLOGY_N = 4
HOMOLOGY_M = 1
KOSZUL_N = 10  # truncated_homology_dim of K_KOSZUL_N(HOMOLOGY_M)
CERTIFY_NS = (8, 9)
CERTIFY_M = 1
CERTIFY_SEED = 7
DRAW_CELLS = {  # (n, m, char, grading) of the cli workload's cells
    "certify-q": (8, 1, Char.ZERO, GradingMode.FULL),
    "certify-f2": (6, 1, Char.TWO, GradingMode.FULL),
    "cancel-q-m1": (9, 1, Char.ZERO, None),
    "cancel-q-m2": (9, 2, Char.ZERO, None),
    "cancel-f2-m1": (9, 1, Char.TWO, None),
    "cancel-f2-m2": (9, 2, Char.TWO, None),
}
DRAW_SEEDS = 20
# the environment of every benchmark run, plus a fresh empty PYTHONPYCACHEPREFIX
BYTECODE = {"PYTHONDONTWRITEBYTECODE": "1"}
BOUND_NS = (8, 9)


def commit_of(checkout: Path) -> dict:
    def git(*args):
        result = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return result.stdout.strip() if result.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(status) if status is not None else None}


def run_benchmark(checkout: Path) -> dict:
    """Metrics of one ``perfbench/run.py --workload all`` run of a checkout,
    compiled from source (see ``BYTECODE``)."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", "all"]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as pycache:
        env = {**os.environ, **BYTECODE, "PYTHONPYCACHEPREFIX": pycache}
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout}: benchmark verdicts failed ({result['failed']} trials)")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def medians(runs: list[dict]) -> dict:
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def end_to_end(runs: int, baseline: Path | None) -> dict:
    """Medians over ``runs`` benchmark runs; alternating with the baseline if given."""
    directions = {
        entry["name"]: entry["better"]
        for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    ours, theirs = [], []
    for k in range(runs):
        if baseline is not None and k % 2 == 0:  # alternate which side runs first
            theirs.append(run_benchmark(baseline))
        ours.append(run_benchmark(ROOT))
        if baseline is not None and k % 2 == 1:
            theirs.append(run_benchmark(baseline))
        print(f"run {k + 1}/{runs} done", file=sys.stderr, flush=True)
    record = {
        "runs": runs,
        "environment": {**BYTECODE, "PYTHONPYCACHEPREFIX": "a fresh empty directory per run"},
        "medians": medians(ours),
        "per_run": ours,
    }
    if baseline is not None:
        base = medians(theirs)
        wins = {}
        for name in base:
            lower = directions[name.split(".", 1)[1]] == "lower"
            wins[name] = sum((a < b) if lower else (a > b) for a, b in zip(
                (run[name] for run in ours), (run[name] for run in theirs)))
        record["baseline"] = {
            "path": str(baseline),
            **commit_of(baseline),
            "medians": base,
            "per_run": theirs,
            "change": {name: record["medians"][name] / base[name] - 1 for name in base if base[name]},
            "pairs_won": wins,
        }
    return record


def _timed(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def micro(repeat: int) -> dict:
    """Per-field ``mul``, ``evaluate`` and ``point_rank`` timings on fixed n=8 bound matrices."""
    rng = random.Random(MICRO_SEED)
    out = {}
    for char in (Char.ZERO, Char.TWO):
        g = random_chain_map(MICRO_N, 1, char, rng, grading=GradingMode.FULL)
        matrix = matrix_of_images(g.target, [g.images[i] for i in g.source.index_sets()])
        max_exp = [max(exps) for exps in zip(*(m for row in matrix for e in row for m in e.terms))]
        polys = [e for row in matrix for e in row if e.terms]
        if char is Char.ZERO:
            fields = {"F_p(31 bits)": PrimeField(random_prime(31, rng))}
        else:
            fields = {f"GF(2^{k})": gf2_field(k) for k in (16, 32, 64)}
        for name, field in fields.items():
            point = [field.random_nonzero(rng) for _ in range(MICRO_N)]
            pows = power_tables(point, max_exp, field.mul)
            rows = [{j: v for j, e in enumerate(row) if e.terms and (v := field.evaluate(e, pows))}
                    for row in matrix]
            values = [v for row in rows for v in row.values()]
            pairs = list(zip(values, reversed(values)))

            def muls(mul=field.mul, pairs=pairs):
                for a, b in pairs:
                    mul(a, b)

            def evals(evaluate=field.evaluate, pows=pows):
                for e in polys:
                    evaluate(e, pows)

            out[name] = {
                "entries": len(values),
                "rank": point_rank(rows, field),
                "mul_ns": _timed(muls, repeat) / len(pairs) * 1e9,
                "eval_ns": _timed(evals, repeat) / len(polys) * 1e9,
                "rank_s": _timed(lambda: point_rank(rows, field), repeat),
            }
    return out


def homology(repeat: int) -> dict:
    """Median ``homology_dims`` seconds per characteristic and path, one fresh complex per repetition."""
    rng = random.Random(MICRO_SEED)
    out = {}
    for char in (Char.ZERO, Char.TWO):
        base = koszul_filt_complex(ComplexDescriptor(HOMOLOGY_N, 0, char))
        max_degree = default_truncation(HOMOLOGY_N, HOMOLOGY_M, char)
        strands = iter([shuffled_complex(base, rng)[0] for _ in range(repeat)])
        eliminated = iter([linear_forms_koszul_complex(HOMOLOGY_N, char) for _ in range(repeat)])
        koszul = ComplexDescriptor(KOSZUL_N, HOMOLOGY_M, char)
        out[str(char.value)] = {
            "max_degree": max_degree,
            "homology_s": _timed(lambda: next(strands).homology_dims(max_degree), repeat),
            "elimination_s": _timed(lambda: next(eliminated).homology_dims(max_degree), repeat),
            "koszul_s": _timed(lambda: truncated_homology_dim(koszul), repeat),
        }
    return out


def lift(repeat: int) -> dict:
    """Median lifting and exact-rank seconds per characteristic on the ``lift`` workload's complexes."""
    rng = random.Random(MICRO_SEED)
    out = {}
    for char in (Char.ZERO, Char.TWO):
        max_degree = default_truncation(HOMOLOGY_N, HOMOLOGY_M, char)
        middle, unshuffle = shuffled_complex(koszul_filt_complex(ComplexDescriptor(HOMOLOGY_N, 0, char)), rng)
        linear_forms = linear_forms_koszul_complex(HOMOLOGY_N, char)
        for c in (middle, linear_forms):
            c.homology_dims(max_degree)  # kept on the complex: construct_alpha ranks nothing again
        gamma = compose_to_gamma(construct_alpha(middle, HOMOLOGY_M), unshuffle)
        matrix = matrix_of_images(gamma.target, [gamma.images[i] for i in gamma.source.index_sets()])
        out[str(char.value)] = {
            "alpha_s": _timed(lambda: construct_alpha(middle, HOMOLOGY_M), repeat),
            "alpha_fallback_s": _timed(lambda: construct_alpha(linear_forms, HOMOLOGY_M), repeat),
            "exact_rank_s": _timed(lambda: rank(gamma, RankMethod.EXACT), repeat),
            "bareiss_s": _timed(lambda: bareiss_rank(matrix), repeat),
        }
    return out


def certify(repeat: int) -> dict:
    """In-process seconds per ``certify`` trial, per characteristic and n."""
    gf2_field(32)  # built once per process (about 50 ms); no trial should pay for it
    out = {}
    for char in (Char.ZERO, Char.TWO):
        out[str(char.value)] = entry = {}
        for n in CERTIFY_NS:
            argv = ["certify", "--n", str(n), "--m", str(CERTIFY_M), "--char", str(char.value),
                    "--grading", "full", "--seed", str(CERTIFY_SEED), "--trials", str(repeat),
                    "--out", os.devnull]
            start = perf_counter()
            code = cli.main(argv)
            seconds = perf_counter() - start
            if code != cli.EXIT_OK:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
            entry[str(n)] = seconds / repeat
    return out


def draws(repeat: int) -> dict:
    """Median seconds per ``random_homotopy`` call at each cli cell's shape."""
    out = {}
    for label, (n, m, char, grading) in DRAW_CELLS.items():
        source = ComplexDescriptor(n, m, char)
        batches = iter([[random.Random(seed) for seed in range(DRAW_SEEDS)] for _ in range(repeat)])

        def batch(source=source, grading=grading, batches=batches):
            for rng in next(batches):
                random_homotopy(source, rng, grading=grading)

        out[label] = _timed(batch, repeat) / DRAW_SEEDS
    return out


def bound(repeat: int) -> dict:
    """Median ``chain_maps.rank`` seconds per characteristic and n, and the
    median entry counts of the boundary and full matrices at a point."""
    gf2_field(32)  # built once per process; no rank should pay for it
    out = {}
    for char in (Char.ZERO, Char.TWO):
        out[str(char.value)] = entry = {}
        for n in BOUND_NS:
            rng = random.Random(MICRO_SEED)
            maps = [random_chain_map(n, 1, char, rng, grading=GradingMode.FULL) for _ in range(repeat)]
            boundary_entries, full_entries = [], []
            for g in maps:
                field = PrimeField(random_prime(31, rng)) if char is Char.ZERO else gf2_field(31)
                point = [field.random_nonzero(rng) for _ in range(n)]
                rows, boundary = chain_maps._point_evaluation(g, None)(field, point)
                boundary_entries.append(sum(map(len, boundary())))
                full_entries.append(sum(map(len, rows())))
            fresh = iter([random_chain_map(n, 1, char, rng, grading=GradingMode.FULL) for _ in range(repeat)])
            entry[str(n)] = {
                "rank_s": _timed(lambda: rank(next(fresh)), repeat),
                "boundary_entries": statistics.median(boundary_entries),
                "full_entries": statistics.median(full_entries),
            }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="path of the JSON record to write")
    parser.add_argument("--runs", type=int, default=3, help="benchmark runs (0: micro-timings only)")
    parser.add_argument("--baseline", type=Path, default=None, help="checkout to alternate runs with")
    args = parser.parse_args()
    cli.check_inputs(parser, {"--runs": args.runs}, {"--runs": (0, None)})
    if args.baseline is not None and not (args.baseline / "perfbench" / "run.py").is_file():
        parser.error(f"--baseline {args.baseline} has no perfbench/run.py")

    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
        **commit_of(ROOT),
        "micro": {
            "n": MICRO_N,
            "seed": MICRO_SEED,
            "repeat": REPEAT,
            "fields": micro(REPEAT),
            "homology": {"n": HOMOLOGY_N, "m": HOMOLOGY_M, "koszul_n": KOSZUL_N, "chars": homology(REPEAT)},
            "lift": {"n": HOMOLOGY_N, "m": HOMOLOGY_M, "chars": lift(REPEAT)},
            "certify": {"m": CERTIFY_M, "grading": "full", "seed": CERTIFY_SEED, "trials": REPEAT,
                        "chars": certify(REPEAT)},
            "draws": draws(REPEAT),
            "bound": {"m": 1, "grading": "full", "seed": MICRO_SEED, "chars": bound(REPEAT)},
        },
    }
    if args.runs:
        record["end_to_end"] = end_to_end(args.runs, args.baseline)
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
