"""Batch front-end: verify complexes, certify random maps, analyze cancellation.

Every command emits JSON lines (one object per trial plus a trailing summary
object) to stdout or to --out.  A fixed seed makes the output byte-identical
across runs: each trial draws from its own generator derived from the master
seed and the trial index, so results do not depend on execution order.

Exit codes: 0 all checks passed, 1 check failure, 2 usage error (including
an --n above MAX_N and an --out path that cannot be opened for writing, both
checked before any trial, and an --out or stdout write that fails after the
trials, e.g. on a full disk), 3 falsification event (a certified property
failed on a verified map; the offending map is dumped in full).

The environment variable KOSZUL_PRIME_BITS (default 31, range 2..64) sets the
bit size of the random evaluation fields used by the modular rank method: the
prime's bit length in characteristic 0; in characteristic 2 it picks the field
of ``linalg.gf2_field``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import random
import sys
from dataclasses import dataclass

from .cancellation import contradiction_witness, random_coeffs
from .certificates import (
    CertificateFamily,
    Submodule,
    bound_report,
    certificate_generators,
    check_injectivity,
    improved_bound,
)
from .chain_maps import (
    GradingMode,
    RankMethod,
    prime_bits,
    random_chain_map,
    verify_chain_map,
)
from .koszul import (
    ComplexDescriptor,
    random_homogeneous_kelem,
    random_kelem,
    truncated_homology_dim,
)
from .polynomials import Char, Poly

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_FALSIFICATION = 3

# Largest --n: a complex has 2^n basis elements, and one trial at n = 12
# takes up to about 45 s (certify in characteristic 2) on 2 shared cores
# with CPython 3.11, several times what n = 11 takes; a larger n would run
# for minutes to hours per trial, so it is a usage error, not a hang.
MAX_N = 12


@dataclass
class RunConfig:
    command: str
    n: int
    m: int
    char: Char
    seed: int
    trials: int
    rank_method: RankMethod
    grading: GradingMode | None
    out: str | None


def _trial_rng(cfg: RunConfig, trial: int) -> random.Random:
    return random.Random(f"{cfg.seed}:{cfg.command}:{trial}")


def _run_trials(cfg: RunConfig, trial) -> tuple[int, list[dict]]:
    """The trial protocol of every batch command: one line per trial, then a summary.

    ``trial(rng)`` returns the map, its line and ``None``, or, on a falsification,
    the command's extra replay fields.  The first falsification ends the run; its
    line carries the map in full and whether it verifies as a chain map.
    """
    lines: list[dict] = []
    falsifications = 0
    for k in range(cfg.trials):
        g, line, replay = trial(_trial_rng(cfg, k))
        line["trial"] = k
        lines.append(line)
        if replay is not None:
            falsifications = 1
            line.update(replay, falsification=True, gamma=g.to_json_dict(),
                        chain_map_verified=verify_chain_map(g).passed)
            break
    summary = {
        "summary": True,
        "command": cfg.command,
        "n": cfg.n,
        "m": cfg.m,
        "char": cfg.char.value,
        "seed": cfg.seed,
        "trials_run": len(lines),
        "falsifications": falsifications,
    }
    return (EXIT_FALSIFICATION if falsifications else EXIT_OK), [*lines, summary]


# ---------------------------------------------------------------------------
# verify-complex
# ---------------------------------------------------------------------------


def cmd_verify_complex(cfg: RunConfig) -> tuple[int, list[dict]]:
    desc = ComplexDescriptor(cfg.n, cfg.m, cfg.char)
    rng = _trial_rng(cfg, 0)
    failures: list[str] = []

    d_squared_ok = True
    for indices in desc.index_sets():
        if not desc.generator(indices).differential().differential().is_zero():
            d_squared_ok = False
            failures.append(f"d(d(s{{{','.join(map(str, indices))}}})) != 0")
    for i in range(cfg.trials):
        x = random_kelem(desc, rng)
        if not x.differential().differential().is_zero():
            d_squared_ok = False
            failures.append(f"d(d(random element {i})) != 0")

    leibniz_ok = True
    degree_ok = True
    for i in range(cfg.trials):
        a = random_homogeneous_kelem(desc, rng)
        b = random_kelem(desc, rng)
        if a.is_zero():
            continue
        deg = a.graded_degree()
        sign = -1 if (deg % 2 and cfg.char is Char.ZERO) else 1
        lhs = a.wedge(b).differential()
        rhs = a.differential().wedge(b) + a.wedge(b.differential()).scale(
            Poly.constant(cfg.n, cfg.char, sign)
        )
        if lhs != rhs:
            leibniz_ok = False
            failures.append(f"Leibniz rule fails on random pair {i}")
        da = a.differential()
        if not da.is_zero() and da.graded_degree() != deg + 1:
            degree_ok = False
            failures.append(f"differential is not degree +1 on random element {i}")

    wordlength_ok = True
    for indices in desc.index_sets():
        dx = desc.generator(indices).differential()
        if dx.wordlengths() - {len(indices) - 1}:
            wordlength_ok = False
            failures.append(f"word-length drop fails at s{{{','.join(map(str, indices))}}}")

    dims = truncated_homology_dim(desc)
    total = sum(dims.values())
    expected = (cfg.m + 1) ** cfg.n
    homology_ok = total == expected
    if not homology_ok:
        failures.append(f"homology total {total} != {expected}")

    passed = d_squared_ok and leibniz_ok and degree_ok and wordlength_ok and homology_ok
    line = {
        "command": "verify-complex",
        "n": cfg.n,
        "m": cfg.m,
        "char": cfg.char.value,
        "d_squared_ok": d_squared_ok,
        "leibniz_ok": leibniz_ok,
        "degree_ok": degree_ok,
        "wordlength_ok": wordlength_ok,
        "homology_total": total,
        "homology_expected": expected,
        "homology_ok": homology_ok,
        "passed": passed,
        "failures": failures,
    }
    return (EXIT_OK if passed else EXIT_CHECK_FAILURE), [line]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _certificate_suite(cfg: RunConfig) -> list[tuple[str, Submodule]]:
    """The named, nonempty certificate families checked on every trial."""
    families = [
        ("triple-diffs", CertificateFamily.TRIPLE_DIFFS, None),
        ("block-diffs-4", CertificateFamily.BLOCK_DIFFS, 4),
        ("block-diffs-5", CertificateFamily.BLOCK_DIFFS, 5),
        ("mixed-base", CertificateFamily.MIXED_BASE, None),
    ]
    if cfg.char is Char.ZERO and cfg.grading is GradingMode.FULL:
        families.append(("mixed-full", CertificateFamily.MIXED_FULL, None))
    suite = []
    for name, family, block_size in families:
        sub = certificate_generators(family, cfg.n, cfg.m, cfg.char, block_size=block_size)
        if len(sub):
            suite.append((name, sub))
    return suite


def cmd_certify(cfg: RunConfig) -> tuple[int, list[dict]]:
    suite = _certificate_suite(cfg)
    full_char0 = cfg.char is Char.ZERO and cfg.grading is GradingMode.FULL

    def trial(rng):
        g = random_chain_map(cfg.n, cfg.m, cfg.char, rng, grading=cfg.grading)
        reports = {name: check_injectivity(g, sub, rng) for name, sub in suite}
        bound = bound_report(g, method=cfg.rank_method, rng=rng)
        # an evaluation rank below 2^n is only a lower bound, and a certified
        # injective mixed-full family (theorem_A members) proves the bound
        # anyway; an exact or full rank is not overridden, so a bound report
        # that contradicts the certificate is still a falsification
        lower_bound_only = cfg.rank_method is RankMethod.MODULAR and bound.rank < 2 ** cfg.n
        if lower_bound_only and "mixed-full" in reports and reports["mixed-full"].injective:
            bound = dataclasses.replace(bound, satisfies_A=True)
        # both hypotheses (mixed-full's and Theorem A's) need a fully graded map
        full = bound.grading == "full"
        falsified = full_char0 and full and not bound.satisfies_A
        certificates = {}
        for name, report in reports.items():
            entry = {"injective": report.injective, "rank": report.rank, "expected": report.expected}
            if not report.injective:
                if name != "mixed-full" or full:
                    falsified = True
                else:
                    entry["hypothesis_sensitive"] = True
            certificates[name] = entry
        return g, {"certificates": certificates, **bound.to_json_dict()}, {} if falsified else None

    code, lines = _run_trials(cfg, trial)
    lines[-1].update(
        min_rank=min(line["rank"] for line in lines[:-1]),
        grading=cfg.grading.value if cfg.grading else "none",
        rank_method=cfg.rank_method.value,
        theorem_A=improved_bound(cfg.n),
    )
    return code, lines


# ---------------------------------------------------------------------------
# cancellation
# ---------------------------------------------------------------------------


def cmd_cancellation(cfg: RunConfig) -> tuple[int, list[dict]]:
    def trial(rng):
        g = random_chain_map(cfg.n, cfg.m, cfg.char, rng, grading=cfg.grading)
        coeffs = random_coeffs(cfg.n, cfg.m, cfg.char, rng)
        witness = contradiction_witness(g, coeffs)
        graph = witness.analysis.graph
        line = {
            "nonzero": witness.nonzero,
            "acyclic3": witness.acyclic3,
            "sink": ",".join(map(str, witness.sink_vertex)) if witness.sink_vertex else None,
            "sink_valid": witness.sink_valid,
            "surviving_term": witness.surviving_term,
            "vertices": len(graph.vertices),
            "edges": len(graph.edges),
        }
        if witness.holds:
            return g, line, None
        return g, line, {
            "coeffs": {",".join(map(str, t)): str(p) for t, p in coeffs.items()},
            "scheme": witness.analysis.to_json_dict(),
        }

    code, lines = _run_trials(cfg, trial)
    lines[-1]["max_edges"] = max(line["edges"] for line in lines[:-1])
    return code, lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="koszulrank",
        description="Exact Koszul-complex checks, rank certificates and cancellation analysis.",
        epilog="KOSZUL_PRIME_BITS overrides the evaluation field size (default 31, range 2..64).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify-complex", "check differential, Leibniz and homology dimensions"),
        ("certify", "run injectivity certificates and rank bounds on random maps"),
        ("cancellation", "run cancellation-graph analysis on random maps"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, required=True, help=f"number of variables (1 to {MAX_N})")
        p.add_argument("--m", type=int, default=1, help="source level (default 1)")
        p.add_argument("--char", type=int, choices=(0, 2), default=0, help="characteristic")
        p.add_argument("--seed", type=int, default=0, help="master seed (reproducible output)")
        p.add_argument("--trials", type=int, default=50, help="number of random trials")
        p.add_argument(
            "--rank-method", choices=("modular", "exact"), default="modular",
            help="rank computation backend",
        )
        p.add_argument(
            "--grading", choices=("full", "parity", "none"), default="none",
            help="degree constraint for random map generation",
        )
        p.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _config_from_args(args) -> RunConfig:
    grading = {"full": GradingMode.FULL, "parity": GradingMode.PARITY, "none": None}[args.grading]
    return RunConfig(
        command=args.command,
        n=args.n,
        m=args.m,
        char=Char(args.char),
        seed=args.seed,
        trials=args.trials,
        rank_method=RankMethod(args.rank_method),
        grading=grading,
        out=args.out,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.exit(EXIT_USAGE, "error: --n must be at least 1\n")
    if args.n > MAX_N:
        parser.exit(EXIT_USAGE, f"error: --n must be at most {MAX_N}\n")
    if args.m < 0:
        parser.exit(EXIT_USAGE, "error: --m must be non-negative\n")
    if args.trials < 1:
        parser.exit(EXIT_USAGE, "error: --trials must be at least 1\n")
    if args.command == "cancellation" and args.n < 3:
        parser.exit(EXIT_USAGE, "error: cancellation requires --n >= 3 (no triple exists)\n")
    try:
        prime_bits()
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"error: {exc}\n")
    cfg = _config_from_args(args)
    runner = {
        "verify-complex": cmd_verify_complex,
        "certify": cmd_certify,
        "cancellation": cmd_cancellation,
    }[cfg.command]

    def cannot_write(exc: OSError) -> None:
        parser.exit(EXIT_USAGE, f"error: cannot write --out {cfg.out}: {exc.strerror or exc}\n")

    try:
        sink = open(cfg.out, "w") if cfg.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        cannot_write(exc)
    lines = None
    try:
        with sink as handle:
            code, lines = runner(cfg)
            handle.write("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))
            handle.flush()
    except OSError as exc:
        if lines is None:  # raised by a trial
            raise
        if cfg.out:
            cannot_write(exc)  # the write or the close failed, e.g. on a full disk
        _discard_stdout()
        parser.exit(EXIT_USAGE, f"error: cannot write stdout: {exc.strerror or exc}\n")
    return code


def _discard_stdout() -> None:
    """Point the stdout file descriptor at the null device, so the flush at
    interpreter shutdown drops what a failed write left buffered instead of
    failing a second time."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # no descriptor behind sys.stdout, or it is closed
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
