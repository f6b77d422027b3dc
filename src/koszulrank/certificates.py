"""Injectivity certificates and the rank bound report.

Each certificate is a finite family of elements of the level-m complex whose
images must stay independent over the fraction field for every admissible
map.  Injectivity of the localized map on such a family gives a lower bound
on its rank equal to the family size; the mixed full family has exactly
2(n + floor(n/3)) members, which is the improved bound this package checks.

Checks are one call into ``chain_maps._column_rank``, the rank decision
every chain-map rank shares: a full evaluation rank certifies injectivity
outright, and a deficient one triggers the authoritative fraction-free
elimination, whose one echelon gives the exact rank and, on genuine
failure, an exact kernel combination as a witness.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from enum import Enum

from .chain_maps import (
    ChainMap,
    GradingMode,
    RankMethod,
    _boundary_of,
    _column_rank,
    is_degree_preserving,
    random_chain_map,
    rank as chain_map_rank,
)
from .koszul import ComplexDescriptor, KElem, disjoint_blocks
from .linalg import bareiss_rank, evaluation_rank, kernel_vector  # noqa: F401  perfbench/tracing.py patches these
from .polynomials import Char, Poly

__all__ = [
    "CertificateFamily",
    "Submodule",
    "InjectivityReport",
    "BoundReport",
    "certificate_generators",
    "check_injectivity",
    "bound_report",
    "improved_bound",
    "classical_bound",
    "grading_label",
    "search_noninjective_char2",
]


class CertificateFamily(Enum):
    """The four generator families used by the certificate suite."""

    TRIPLE_DIFFS = "triple-diffs"      # boundaries of disjoint consecutive triples
    BLOCK_DIFFS = "block-diffs"        # boundaries of disjoint blocks of a given size
    MIXED_BASE = "mixed-base"          # valid in both characteristics
    MIXED_FULL = "mixed-full"          # characteristic 0, degree-preserving maps


@dataclass
class Submodule:
    """A labelled list of pairwise distinct generators of the source complex."""

    generators: list[KElem]
    labels: list[str]

    def __post_init__(self):
        if len(self.generators) != len(self.labels):
            raise ValueError("generators and labels must have equal length")
        for i, a in enumerate(self.generators):
            for b in self.generators[i + 1 :]:
                if a == b:
                    raise ValueError("generators must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.generators)


def certificate_generators(
    family: CertificateFamily,
    n: int,
    m: int,
    char: Char,
    block_size: int | None = None,
) -> Submodule:
    """Build one generator family on the level-m complex.

    Blocks are consecutive and start at 1; leftover indices stay unused.
    For n too small to hold a block the corresponding section is empty,
    which is not an error.
    """
    desc = ComplexDescriptor(n, m, char)
    gens: list[KElem] = []
    labels: list[str] = []

    def add(elem: KElem, label: str) -> None:
        gens.append(elem)
        labels.append(label)

    def add_block_diffs(size: int) -> None:
        for block in disjoint_blocks(n, size):
            add(_boundary_of(desc, block), f"d s{{{','.join(map(str, block))}}}")

    if family is CertificateFamily.TRIPLE_DIFFS:
        add_block_diffs(3)
    elif family is CertificateFamily.BLOCK_DIFFS:
        if block_size is None or not 3 <= block_size:
            raise ValueError("block-diffs requires block_size >= 3")
        add_block_diffs(block_size)
    elif family in (CertificateFamily.MIXED_BASE, CertificateFamily.MIXED_FULL):
        add(desc.one(), "1")
        singletons = n if family is CertificateFamily.MIXED_FULL else 1
        for i in range(1, singletons + 1):
            add(desc.generator((i,)), f"s{{{i}}}")
        for j in range(2, n + 1):
            add(desc.generator((1, j)), f"s{{1,{j}}}")
        add_block_diffs(3)
        for block in disjoint_blocks(n):
            add(desc.generator(block), f"s{{{','.join(map(str, block))}}}")
    else:
        raise ValueError(f"unknown certificate family {family}")
    return Submodule(gens, labels)


def expected_family_size(family: CertificateFamily, n: int, block_size: int | None = None) -> int:
    """Closed-form size of each family."""
    if family is CertificateFamily.TRIPLE_DIFFS:
        return n // 3
    if family is CertificateFamily.BLOCK_DIFFS:
        return n // block_size
    if family is CertificateFamily.MIXED_BASE:
        return (n + 1) + 2 * (n // 3)
    if family is CertificateFamily.MIXED_FULL:
        return 2 * n + 2 * (n // 3)
    raise ValueError(f"unknown certificate family {family}")


@dataclass
class InjectivityReport:
    injective: bool
    rank: int
    expected: int
    witness: list[Poly] | None = None


def check_injectivity(g: ChainMap, sub: Submodule, rng=None) -> InjectivityReport:
    """Whether the localized map is injective on the span of the generators.

    Assumes the generators themselves are independent (true by construction
    for every family produced here).  The modular evaluation draws from
    ``rng`` at ``prime_bits()`` bits; a full rank certifies injectivity.
    Otherwise one fraction-free elimination decides (an unlucky evaluation
    then reports the full rank), and on genuine failure the witness is an
    exact kernel combination of the generators.
    """
    expected = len(sub.generators)
    rank, witness = _column_rank(g, sub.generators, RankMethod.MODULAR, rng, witness=True)
    return InjectivityReport(rank == expected, rank, expected, witness)


def improved_bound(n: int) -> int:
    """The rank bound 2(n + floor(n/3)) established by the certificate suite."""
    return 2 * (n + n // 3)


def classical_bound(n: int) -> int:
    """The strongest previously known linear comparator for each n."""
    if n <= 1:
        return 2
    if n == 2:
        return 4
    return 2 * (n + 1)


def grading_label(g: ChainMap) -> str:
    if is_degree_preserving(g, GradingMode.FULL):
        return "full"
    if is_degree_preserving(g, GradingMode.PARITY):
        return "parity"
    return "none"


@dataclass
class BoundReport:
    n: int
    m: int
    char: int
    rank: int
    theorem_A: int
    eqn07: int
    satisfies_A: bool
    grading: str

    def to_json_dict(self) -> dict:
        return asdict(self)


def bound_report(g: ChainMap, method: RankMethod = RankMethod.MODULAR, rng=None) -> BoundReport:
    """Rank of the map compared against the improved and classical bounds."""
    n = g.source.nvars
    r = chain_map_rank(g, method=method, rng=rng)
    return BoundReport(
        n=n,
        m=g.source.level,
        char=g.source.char.value,
        rank=r,
        theorem_A=improved_bound(n),
        eqn07=classical_bound(n),
        satisfies_A=r >= improved_bound(n),
        grading=grading_label(g),
    )


def search_noninjective_char2(trials: int = 100, rng=None, n: int = 3, m: int = 1):
    """Randomized search for a characteristic-2 map that fails injectivity on
    the span of d(s_{1,2,3}) and d(s_{1,2}).

    Such maps exist for n=3, m=1, but random perturbation is not guaranteed
    to find one; returns (map, report) on success, None otherwise.
    """
    if rng is None:
        rng = random.Random(0xF2)
    desc = ComplexDescriptor(n, m, Char.TWO)
    sub = Submodule(
        [_boundary_of(desc, (1, 2, 3)), _boundary_of(desc, (1, 2))],
        ["d s{1,2,3}", "d s{1,2}"],
    )
    for _ in range(trials):
        g = random_chain_map(n, m, Char.TWO, rng)
        report = check_injectivity(g, sub, rng)
        if not report.injective:
            return g, report
    return None
