"""The benchmark's workloads: seeded inputs, one verdict record per trial, verdict checks.

Each workload drives koszulrank through its public entry points only.  A trial
runs a fixed set of cells (one certify or cancellation call, or one field of
the lift pipeline) at one seed, so trial times have one mode rather than one
per cell.  It returns a verdict record per cell: the fields that decide the
answer, never timings.  Each workload's ``check`` lists what is wrong with a
record (empty when it is right).

Importing this module puts the checkout's ``src`` directory first on
``sys.path`` so the package under test is the one next to the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from koszulrank import certificates, chain_maps, cli, hb_model, koszul  # noqa: E402
from koszulrank.polynomials import Char  # noqa: E402


def trial_seed(workload: str, seed: int, index: int) -> int:
    """Program seed of one trial, derived from the workload seed and trial index."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def verdict_digest(records: list) -> str:
    """Digest over verdict records in trial order."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def certify_verdict(code: int, line: dict) -> dict:
    return {
        "exit": code,
        "rank": line["rank"],
        "theorem_A": line["theorem_A"],
        "satisfies_A": line["satisfies_A"],
        "grading": line["grading"],
        "certificates": {
            name: [c["injective"], c["rank"], c["expected"]]
            for name, c in line["certificates"].items()
        },
    }


def certify_problems(record: dict) -> list[str]:
    problems = []
    if record["exit"] != cli.EXIT_OK:
        problems.append(f"exit code {record['exit']}")
    if not record["certificates"]:
        problems.append("no certificate ran")
    for name, (injective, rank, expected) in record["certificates"].items():
        if not injective or rank != expected:
            problems.append(f"certificate {name}: injective={injective} rank {rank} != {expected}")
    if record["rank"] < record["theorem_A"]:
        problems.append(f"rank {record['rank']} < theorem_A {record['theorem_A']}")
    return problems


def cancellation_verdict(code: int, line: dict) -> dict:
    keys = ("nonzero", "acyclic3", "sink", "sink_valid", "surviving_term", "vertices", "edges")
    return {"exit": code, **{k: line[k] for k in keys}}


def cancellation_problems(record: dict) -> list[str]:
    problems = []
    if record["exit"] != cli.EXIT_OK:
        problems.append(f"exit code {record['exit']}")
    problems.extend(k for k in ("nonzero", "acyclic3", "sink_valid") if record[k] is not True)
    return problems


# CLI subcommand -> (verdict from exit code and trial line, problems of a verdict)
COMMANDS = {
    "certify": (certify_verdict, certify_problems),
    "cancellation": (cancellation_verdict, cancellation_problems),
}


class CliWorkload:
    """Per trial, one in-process ``cli.main([... --trials 1 --out <file>])``
    call per cell, all at the trial's seed."""

    def __init__(self, name: str, cells: dict[str, list[str]]):
        self.name = name
        self.cells = cells  # label -> argv without --seed, --trials and --out
        self.out = None

    def setup(self, scratch: Path) -> None:
        self.out = scratch / f"{self.name}.jsonl"

    def call(self, argv, seed: int, index: int) -> tuple[int, dict]:
        """(exit code, trial line) of one ``--trials 1`` run at the trial's seed."""
        code = cli.main(list(argv) + [
            "--seed", str(trial_seed(self.name, seed, index)),
            "--trials", "1",
            "--out", str(self.out),
        ])
        lines = [json.loads(line) for line in self.out.read_text().splitlines()]
        *trials, summary = lines
        if len(trials) != 1 or not summary.get("summary"):
            raise ValueError(f"expected one trial line and a summary, got {len(lines)} lines")
        return code, trials[0]

    def trial(self, seed: int, index: int) -> dict:
        return {
            label: COMMANDS[argv[0]][0](*self.call(argv, seed, index))
            for label, argv in self.cells.items()
        }

    def check(self, record: dict) -> list[str]:
        return [
            f"{label}: {problem}"
            for label, argv in self.cells.items()
            for problem in COMMANDS[argv[0]][1](record[label])
        ]


class LiftWorkload:
    """Library pipeline over both fields: lift K_n(m) into a shuffled K_n(0),
    compose back, rank exactly."""

    name = "lift"
    n = 4
    m = 1

    def setup(self, scratch: Path) -> None:
        self.complexes = {
            char: hb_model.koszul_filt_complex(koszul.ComplexDescriptor(self.n, 0, char))
            for char in Char
        }

    def trial(self, seed: int, index: int) -> dict:
        return {char.value: self.lift(char, random.Random(trial_seed(self.name, seed, index)))
                for char in Char}

    def lift(self, char: Char, rng: random.Random) -> dict:
        middle, unshuffle = hb_model.shuffled_complex(self.complexes[char], rng)
        alpha = hb_model.construct_alpha(middle, self.m)
        alpha_report = hb_model.verify_alpha(alpha)
        gamma = hb_model.compose_to_gamma(alpha, unshuffle)
        gamma_report = chain_maps.verify_chain_map(gamma)
        bound = certificates.bound_report(gamma, method=chain_maps.RankMethod.EXACT)
        dims = koszul.truncated_homology_dim(koszul.ComplexDescriptor(self.n, self.m, char))
        return {
            "alpha_ok": alpha_report.passed,
            "gamma_ok": gamma_report.passed,
            "rank": bound.rank,
            "theorem_A": bound.theorem_A,
            "middle_generators": len(middle.generators),
            "homology": sorted(dims.items()),
        }

    def check(self, record: dict) -> list[str]:
        return [f"char {char}: {problem}" for char, field in record.items() for problem in self.problems(field)]

    def problems(self, record: dict) -> list[str]:
        problems = []
        if not record["alpha_ok"]:
            problems.append("verify_alpha failed")
        if not record["gamma_ok"]:
            problems.append("verify_chain_map failed")
        total = sum(v for _, v in record["homology"])
        if total != (self.m + 1) ** self.n:
            problems.append(f"homology total {total} != {(self.m + 1) ** self.n}")
        if not record["theorem_A"] <= record["rank"] <= record["middle_generators"]:
            problems.append(
                f"rank {record['rank']} outside [{record['theorem_A']}, {record['middle_generators']}]"
            )
        return problems


def cli_cells(certify_q: int, certify_f2: int, cancellation: int) -> dict[str, list[str]]:
    """Certify over Q and over F2, and cancellation at every (char, m) pair of
    acceptance criterion 07, at the given n."""
    cells = {
        "certify-q": ["certify", "--n", str(certify_q), "--m", "1", "--char", "0", "--grading", "full"],
        "certify-f2": ["certify", "--n", str(certify_f2), "--m", "1", "--char", "2", "--grading", "full"],
    }
    for char, field in (("0", "q"), ("2", "f2")):
        for m in ("1", "2"):
            cells[f"cancel-{field}-m{m}"] = ["cancellation", "--n", str(cancellation), "--char", char, "--m", m]
    return cells


_FACTORIES = {
    "cli": lambda: CliWorkload("cli", cli_cells(8, 6, 9)),
    "lift": LiftWorkload,
}
WORKLOADS = tuple(_FACTORIES)


def make_workload(name: str):
    """A fresh workload object by name; raises KeyError for unknown names."""
    return _FACTORIES[name]()
