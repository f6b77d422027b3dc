"""Koszul complexes of pure power sequences, with grading and products.

The complex of level m on n variables is the free module over the polynomial
ring with basis the exterior monomials s_I (I a strictly increasing index
set), equipped with the differential sending each degree-one generator s_i
to t_i^(m+1) and extended as a derivation.  Removing the j-th smallest index
of I contributes the sign (-1)^(j-1); in characteristic 2 all signs are +1.
:func:`faces` is the one definition of that rule; :meth:`ComplexDescriptor.boundary`
and the point evaluator of ``chain_maps`` both read it.

Elements are sparse maps from index sets to polynomial coefficients.  All
values are immutable after construction and safe to share.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Mapping

from .linalg import field_rank  # noqa: F401  re-exported: perfbench/tracing.py patches it here
from .polynomials import Char, Poly, UndefinedDegreeError, add_into, scale_map

IndexSet = tuple  # strictly increasing tuple of 1-based variable indices

__all__ = [
    "IndexSet",
    "ComplexDescriptor",
    "KElem",
    "disjoint_blocks",
    "merge_index_sets",
    "faces",
    "truncated_homology_dim",
    "default_max_degree",
]


def _check_index_set(indices: IndexSet, nvars: int) -> IndexSet:
    indices = tuple(indices)
    if any(indices[i] >= indices[i + 1] for i in range(len(indices) - 1)):
        raise ValueError(f"index set {indices} is not strictly increasing")
    if indices and (indices[0] < 1 or indices[-1] > nvars):
        raise ValueError(f"index set {indices} out of range 1..{nvars}")
    return indices


def merge_index_sets(left: IndexSet, right: IndexSet):
    """Merge two disjoint index sets; returns (merged, sign) or None on overlap.

    The sign counts the transpositions needed to sort the concatenation, i.e.
    the pairs (a, b) in left x right with a > b.
    """
    if set(left) & set(right):
        return None
    inversions = sum(1 for a in left for b in right if a > b)
    merged = tuple(sorted(left + right))
    return merged, (-1) ** inversions


def disjoint_blocks(n: int, size: int = 3) -> list[IndexSet]:
    """The consecutive disjoint blocks (1..size), (size+1..2 size), ... within 1..n.

    Leftover indices past the last whole block stay unused.
    """
    return [tuple(range(k * size + 1, k * size + size + 1)) for k in range(n // size)]


def faces(indices: IndexSet) -> list[tuple[IndexSet, int, int]]:
    """The terms of d(s_I) as (I without its j-th index i, i - 1, j % 2), j = 0, 1, ...:
    the face, the 0-based variable and the sign parity of the coefficient (-1)^j t_i^(level+1)."""
    return [(indices[:j] + indices[j + 1 :], i - 1, j & 1) for j, i in enumerate(indices)]


@dataclass(frozen=True)
class ComplexDescriptor:
    """Shape of a Koszul complex: variable count, level and characteristic."""

    nvars: int
    level: int
    char: Char

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("nvars must be at least 1")
        if self.level < 0:
            raise ValueError("level must be non-negative")
        # +-t_i^(level+1) for d(s_I), read by index i and sign parity; not a
        # field, so equality and hashing see only the three fields above
        powers = [self.t(i, self.level + 1) for i in range(1, self.nvars + 1)]
        object.__setattr__(self, "_signed_powers", [(p, -p) for p in powers])

    @property
    def s_degree(self) -> int:
        return self.char.s_degree(self.level)

    def index_sets(self) -> Iterator[IndexSet]:
        """All 2^n exterior basis index sets, by word-length then lexicographic."""
        for k in range(self.nvars + 1):
            yield from combinations(range(1, self.nvars + 1), k)

    def zero(self) -> KElem:
        return KElem(self, {})

    def one(self) -> KElem:
        return KElem(self, {(): Poly.one(self.nvars, self.char)})

    def generator(self, indices) -> KElem:
        """The basis monomial s_I with coefficient 1."""
        return KElem(self, {tuple(indices): Poly.one(self.nvars, self.char)})

    def t(self, index: int, exponent: int = 1) -> Poly:
        return Poly.t_power(self.nvars, self.char, index, exponent)

    def boundary(self, indices: IndexSet) -> list[tuple[IndexSet, Poly]]:
        """The terms of d(s_I) as (face, (-1)^j t_i^(level+1)), by :func:`faces`; + in characteristic 2."""
        signed = self._signed_powers
        return [(face, signed[i][odd]) for face, i, odd in faces(indices)]

    def monomial(self, indices: IndexSet) -> Poly:
        """The baseline coefficient prod_{i in I} t_i^level of s_I."""
        exps = [0] * self.nvars
        for i in indices:
            exps[i - 1] = self.level
        return Poly._raw(self.nvars, self.char, {tuple(exps): 1})


class KElem:
    """Element of a Koszul complex: sparse map from index sets to polynomials."""

    __slots__ = ("desc", "coeffs")

    def __init__(self, desc: ComplexDescriptor, coeffs: Mapping[IndexSet, Poly]):
        canonical: dict[IndexSet, Poly] = {}
        for indices, poly in coeffs.items():
            indices = _check_index_set(indices, desc.nvars)
            if poly.nvars != desc.nvars or poly.char is not desc.char:
                raise ValueError("coefficient polynomial does not match the complex")
            if poly.terms:
                canonical[indices] = poly
        object.__setattr__(self, "desc", desc)
        object.__setattr__(self, "coeffs", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("KElem is immutable")

    @classmethod
    def _raw(cls, desc: ComplexDescriptor, coeffs: dict) -> KElem:
        x = cls.__new__(cls)
        object.__setattr__(x, "desc", desc)
        object.__setattr__(x, "coeffs", coeffs)
        return x

    # ---------- predicates ----------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KElem):
            return NotImplemented
        return self.desc == other.desc and self.coeffs == other.coeffs

    __hash__ = None

    def _check_compatible(self, other: KElem) -> None:
        if self.desc != other.desc:
            raise ValueError(f"complex mismatch: {self.desc} vs {other.desc}")

    # ---------- module structure ----------

    def __add__(self, other: KElem) -> KElem:
        self._check_compatible(other)
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        out = dict(self.coeffs)
        for indices, poly in other.coeffs.items():
            add_into(out, indices, poly)
        return KElem._raw(self.desc, out)

    def __neg__(self) -> KElem:
        if self.desc.char is Char.TWO:
            return self
        return KElem._raw(self.desc, {i: -p for i, p in self.coeffs.items()})

    def __sub__(self, other: KElem) -> KElem:
        return self + (-other)

    def scale(self, poly: Poly) -> KElem:
        return KElem._raw(self.desc, scale_map(self.coeffs, poly))

    def __mul__(self, other):
        if isinstance(other, Poly):
            return self.scale(other)
        if isinstance(other, KElem):
            return self.wedge(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Poly):
            return self.scale(other)
        return NotImplemented

    # ---------- graded algebra ----------

    def wedge(self, other: KElem) -> KElem:
        """Graded-commutative product; repeated exterior indices annihilate."""
        self._check_compatible(other)
        out: dict[IndexSet, Poly] = {}
        for left, p in self.coeffs.items():
            for right, q in other.coeffs.items():
                merged = merge_index_sets(left, right)
                if merged is None:
                    continue
                indices, sign = merged
                prod = p * q
                if sign < 0:
                    prod = -prod
                add_into(out, indices, prod)
        return KElem._raw(self.desc, out)

    def differential(self) -> KElem:
        """Apply the differential; each term loses exactly one exterior index."""
        desc = self.desc
        out: dict[IndexSet, Poly] = {}
        for indices, poly in self.coeffs.items():
            for face, coeff in desc.boundary(indices):
                add_into(out, face, poly * coeff)
        return KElem._raw(desc, out)

    def project_wordlength(self, length: int) -> KElem:
        """Keep exactly the terms whose index set has the given size."""
        return KElem._raw(
            self.desc, {i: p for i, p in self.coeffs.items() if len(i) == length}
        )

    def wordlengths(self) -> set:
        return {len(i) for i in self.coeffs}

    def graded_degree(self):
        """Common graded degree of all monomial terms, or None if mixed."""
        if not self.coeffs:
            raise UndefinedDegreeError("the zero element has no graded degree")
        desc = self.desc
        td = desc.char.t_degree
        sd = desc.s_degree
        degrees = set()
        for indices, poly in self.coeffs.items():
            base = sd * len(indices)
            for mono in poly.terms:
                degrees.add(base + td * sum(mono))
                if len(degrees) > 1:
                    return None
        return degrees.pop()

    # ---------- text form ----------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for indices in sorted(self.coeffs, key=lambda i: (len(i), i)):
            poly = self.coeffs[indices]
            text = str(poly)
            if len(poly.terms) > 1 or text.startswith("-"):
                text = f"({text})"
            parts.append(f"{text} * s{{{','.join(map(str, indices))}}}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"KElem[n={self.desc.nvars}, m={self.desc.level}]({self})"

    @classmethod
    def parse(cls, text: str, desc: ComplexDescriptor) -> KElem:
        """Inverse of str(); multi-term coefficients must be parenthesized."""
        s = text.strip()
        if s == "0":
            return desc.zero()
        coeffs: dict[IndexSet, Poly] = {}
        for piece in _split_top_level(s):
            m = re.fullmatch(r"(.*?)\s*\*\s*s\{([\d,\s]*)\}", piece.strip())
            if not m:
                raise ValueError(f"cannot parse element term {piece!r}")
            poly_text = m.group(1).strip()
            if poly_text.startswith("(") and poly_text.endswith(")"):
                poly_text = poly_text[1:-1]
            poly = Poly.parse(poly_text, desc.nvars, desc.char)
            idx_text = m.group(2).strip()
            indices = tuple(int(v) for v in idx_text.split(",")) if idx_text else ()
            if indices in coeffs:
                coeffs[indices] = coeffs[indices] + poly
            else:
                coeffs[indices] = poly
        return cls(desc, coeffs)


def random_kelem(desc: ComplexDescriptor, rng, max_terms: int = 4, max_exp: int = 2) -> KElem:
    """Random sparse element, for property checks and verification sweeps."""
    if max_terms < 0 or max_exp < 0:
        raise ValueError("max_terms and max_exp must be non-negative")
    n = desc.nvars
    population = range(1, n + 1)
    coeffs: dict[IndexSet, Poly] = {}
    for _ in range(rng.randint(0, max_terms)):
        indices = tuple(sorted(rng.sample(population, rng.randint(0, n))))
        mono = tuple([rng.randint(0, max_exp) for _ in range(n)])
        coeff = 1 if desc.char is Char.TWO else rng.choice((1, -1, 2))
        add_into(coeffs, indices, Poly.monomial(n, desc.char, mono, coeff))
    return KElem(desc, coeffs)


def random_monomial(rng, nvars: int, total: int) -> tuple:
    """Random exponent vector of the given total degree, one variable drawn per unit."""
    exps = [0] * nvars
    for _ in range(total):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def random_homogeneous_kelem(desc: ComplexDescriptor, rng, max_terms: int = 3, max_exp: int = 2) -> KElem:
    """Random element whose terms all share one graded degree (possibly zero)."""
    n = desc.nvars
    population = range(1, n + 1)
    size = rng.randint(0, n)
    tdeg = rng.randint(0, max_exp * 2)
    coeffs: dict[IndexSet, Poly] = {}
    for _ in range(rng.randint(1, max_terms)):
        indices = tuple(sorted(rng.sample(population, size)))
        mono = random_monomial(rng, n, tdeg)
        coeff = 1 if desc.char is Char.TWO else rng.choice((1, -1))
        add_into(coeffs, indices, Poly.monomial(n, desc.char, mono, coeff))
    return KElem(desc, coeffs)


def _split_top_level(text: str) -> list[str]:
    """Split on ' + ' at parenthesis depth zero."""
    parts = []
    depth = 0
    start = 0
    i = 0
    while i < len(text):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", i):
            parts.append(text[start:i])
            i += 3
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


# ---------------------------------------------------------------------------
# degreewise homology
# ---------------------------------------------------------------------------


def default_max_degree(desc: ComplexDescriptor) -> int:
    """Truncation covering the full homology plus a sanity band of zeros."""
    return (desc.level + 1) * desc.nvars * desc.char.t_degree + desc.s_degree


def truncated_homology_dim(desc: ComplexDescriptor, max_degree: int | None = None) -> dict[int, int]:
    """Homology dimension per graded degree, by exact kernel/image ranks.

    When the truncation covers the top degree of the quotient ring the totals
    sum to (level+1)^nvars.  This is the Koszul case of
    :meth:`hb_model.FiltComplex.homology_dims`.
    """
    from .hb_model import koszul_filt_complex  # function-level: avoids the koszul <-> hb_model import cycle

    if max_degree is None:
        max_degree = default_max_degree(desc)
    return koszul_filt_complex(desc).homology_dims(max_degree)
