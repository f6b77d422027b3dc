"""Exact polynomial arithmetic over the rationals or over F2.

A polynomial in t1..tn is a sparse map from exponent tuples to nonzero
coefficients.  In characteristic 0 coefficients are exact rationals (plain
ints where possible, Fraction otherwise); in characteristic 2 a coefficient
can only be 1, so a polynomial is effectively the set of its monomials.
No floating point is used anywhere.

Complex elements one level up (Koszul elements, elements of filtered free
complexes, homotopy values) are in turn sparse maps from basis keys to
nonzero polynomials; :func:`add_into`, :func:`add_scaled` and
:func:`scale_map` are the one place that keeps those maps free of zero values.

The characteristic also fixes the grading: deg t_i = 1 in characteristic 2
and deg t_i = 2 in characteristic 0.  An exterior generator of level m has
degree m respectively 2m+1; that convention lives on :class:`Char` so every
module grades consistently.

Polynomials are evaluated at points only by the fields of :mod:`linalg`
(their ``evaluate``); this module gives them :func:`power_tables` and the
:class:`UnluckyPrimeError` raised when a denominator vanishes mod a prime.
"""

from __future__ import annotations

import functools
import re
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

Mono = tuple  # exponent tuple, one non-negative int per variable

__all__ = [
    "Char",
    "Mono",
    "Poly",
    "UndefinedDegreeError",
    "UnluckyPrimeError",
    "add_into",
    "add_scaled",
    "grlex_key",
    "monomials_of_degree",
    "poly_divexact",
    "power_tables",
    "scale_map",
]


class UndefinedDegreeError(ValueError):
    """Raised when the graded degree of the zero polynomial is requested."""


class UnluckyPrimeError(ArithmeticError):
    """A denominator vanished modulo the chosen prime; retry with a new one."""


class Char(Enum):
    """Coefficient characteristic; fixes the grading conventions."""

    ZERO = 0
    TWO = 2

    @property
    def t_degree(self) -> int:
        """Graded degree of each polynomial variable t_i."""
        return 1 if self is Char.TWO else 2

    def s_degree(self, level: int) -> int:
        """Graded degree of an exterior generator carrying the given level."""
        return level if self is Char.TWO else 2 * level + 1


def grlex_key(mono: Mono) -> tuple:
    """Sort key for graded-lexicographic monomial order (ascending)."""
    return (sum(mono), mono)


def _norm_coeff(char: Char, value):
    """Bring a raw coefficient into canonical form for the characteristic."""
    if char is Char.TWO:
        if isinstance(value, Fraction):
            if value.denominator % 2 == 0:
                raise ValueError("coefficient has even denominator in characteristic 2")
            value = value.numerator
        return value & 1
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


class Poly:
    """Sparse multivariate polynomial with exact coefficients.

    Instances are immutable by convention: no method mutates ``terms`` after
    construction, so values may be shared freely.
    """

    __slots__ = ("nvars", "char", "terms")

    def __init__(self, nvars: int, char: Char, terms: Mapping[Mono, object] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        canonical: dict[Mono, object] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != nvars:
                    raise ValueError(f"exponent tuple {mono} has wrong length for nvars={nvars}")
                c = _norm_coeff(char, coeff)
                if c:
                    canonical[mono] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "char", char)
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # ---------- constructors ----------

    @classmethod
    def zero(cls, nvars: int, char: Char) -> Poly:
        return cls(nvars, char)

    @classmethod
    def constant(cls, nvars: int, char: Char, value) -> Poly:
        return cls(nvars, char, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int, char: Char) -> Poly:
        return cls.constant(nvars, char, 1)

    @classmethod
    def variable(cls, nvars: int, char: Char, index: int) -> Poly:
        """The variable t_index (1-based)."""
        return cls.t_power(nvars, char, index, 1)

    @classmethod
    def t_power(cls, nvars: int, char: Char, index: int, exponent: int) -> Poly:
        """The monomial t_index**exponent (1-based index)."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        exps = [0] * nvars
        exps[index - 1] = exponent
        return cls(nvars, char, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, char: Char, mono: Sequence[int], coeff=1) -> Poly:
        return cls(nvars, char, {tuple(mono): coeff})

    # ---------- predicates ----------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.nvars: 1}

    def _check_compatible(self, other: Poly) -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")
        if self.char is not other.char:
            raise ValueError(f"characteristic mismatch: {self.char} vs {other.char}")

    # ---------- arithmetic ----------

    def __add__(self, other: Poly) -> Poly:
        self._check_compatible(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        if self.char is Char.TWO:
            for mono in other.terms:
                if mono in out:
                    del out[mono]
                else:
                    out[mono] = 1
        else:
            for mono, coeff in other.terms.items():
                s = out.get(mono, 0) + coeff
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return self._raw(self.nvars, self.char, out)

    def __neg__(self) -> Poly:
        if self.char is Char.TWO:
            return self
        return self._raw(self.nvars, self.char, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly) and isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        if not self.terms or not other.terms:
            return Poly.zero(self.nvars, self.char)
        out: dict[Mono, object] = {}
        if self.char is Char.TWO:
            for ma in self.terms:
                for mb in other.terms:
                    m = tuple(x + y for x, y in zip(ma, mb))
                    if m in out:
                        del out[m]
                    else:
                        out[m] = 1
        else:
            for ma, ca in self.terms.items():
                for mb, cb in other.terms.items():
                    m = tuple(x + y for x, y in zip(ma, mb))
                    s = out.get(m, 0) + ca * cb
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return self._raw(self.nvars, self.char, out)

    __rmul__ = __mul__

    def scale(self, coeff) -> Poly:
        c = _norm_coeff(self.char, coeff)
        if not c:
            return Poly.zero(self.nvars, self.char)
        if self.char is Char.TWO:
            return self
        if c == 1:
            return self
        return self._raw(self.nvars, self.char, {m: v * c for m, v in self.terms.items()})

    @classmethod
    def _raw(cls, nvars: int, char: Char, terms: dict) -> Poly:
        """Internal: wrap an already-canonical term dict without re-checking."""
        p = cls.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "char", char)
        object.__setattr__(p, "terms", terms)
        return p

    # ---------- structure ----------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.char is other.char
            and self.terms == other.terms
        )

    __hash__ = None  # mutable dict inside; not intended as a mapping key

    def graded_degree(self):
        """Common graded degree of all terms, or None if non-homogeneous.

        Raises UndefinedDegreeError on the zero polynomial.
        """
        if not self.terms:
            raise UndefinedDegreeError("the zero polynomial has no graded degree")
        td = self.char.t_degree
        degrees = {td * sum(m) for m in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def leading(self) -> tuple:
        """(mono, coeff) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=grlex_key)
        return mono, self.terms[mono]

    def sorted_terms(self) -> list:
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    # ---------- text form ----------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for mono, coeff in self.sorted_terms():
            parts = []
            for i, e in enumerate(mono):
                if e == 1:
                    parts.append(f"t{i + 1}")
                elif e > 1:
                    parts.append(f"t{i + 1}^{e}")
            var_str = "*".join(parts)
            if not var_str:
                rendered.append(str(coeff))
            elif coeff == 1:
                rendered.append(var_str)
            elif coeff == -1:
                rendered.append("-" + var_str)
            else:
                rendered.append(f"{coeff}*{var_str}")
        out = rendered[0]
        for term in rendered[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self.char.name}, {self})"

    @classmethod
    def parse(cls, text: str, nvars: int, char: Char) -> Poly:
        """Inverse of str(); accepts the printed sum-of-terms format."""
        s = text.replace(" ", "")
        if s in ("", "0"):
            return cls.zero(nvars, char)
        chunks = re.findall(r"[+-]?[^+-]+", s)
        if "".join(chunks) != s:
            raise ValueError(f"cannot parse polynomial text: {text!r}")
        terms: dict[Mono, object] = {}
        for chunk in chunks:
            sign = 1
            if chunk.startswith("+"):
                chunk = chunk[1:]
            elif chunk.startswith("-"):
                sign = -1
                chunk = chunk[1:]
            coeff: object = sign
            exps = [0] * nvars
            for factor in chunk.split("*"):
                m = re.fullmatch(r"t(\d+)(?:\^(\d+))?", factor)
                if m:
                    idx = int(m.group(1))
                    if not 1 <= idx <= nvars:
                        raise ValueError(f"variable t{idx} out of range in {text!r}")
                    exps[idx - 1] += int(m.group(2)) if m.group(2) else 1
                elif re.fullmatch(r"\d+/\d+", factor):
                    num, den = factor.split("/")
                    coeff = coeff * Fraction(int(num), int(den))
                elif re.fullmatch(r"\d+", factor):
                    coeff = coeff * int(factor)
                else:
                    raise ValueError(f"bad factor {factor!r} in polynomial text {text!r}")
            mono = tuple(exps)
            terms[mono] = terms.get(mono, 0) + coeff
        return cls(nvars, char, terms)


def add_into(out: dict, key, poly: Poly) -> None:
    """``out[key] += poly`` on a sparse map of nonzero polynomials.

    The key is dropped when the sum vanishes, so ``out`` never holds a zero.
    """
    prev = out.get(key)
    total = poly if prev is None else prev + poly
    if total.terms:
        out[key] = total
    else:
        out.pop(key, None)


def add_scaled(out: dict, coeffs: Mapping, poly: Poly) -> None:
    """``out += poly * coeffs`` on sparse polynomial maps, through :func:`add_into`.

    Zero products are skipped; this is the linear extension of a map from its
    generator images.
    """
    if not poly.terms:
        return
    for key, coeff in coeffs.items():
        prod = poly * coeff
        if prod.terms:
            add_into(out, key, prod)


def scale_map(coeffs: Mapping, poly: Poly) -> dict:
    """``poly`` times every value of a sparse polynomial map, zero products dropped."""
    out: dict = {}
    add_scaled(out, coeffs, poly)
    return out


def poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact polynomial division a / b; raises ValueError if b does not divide a."""
    a._check_compatible(b)
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return a
    lead_mono, lead_coeff = b.leading()
    quotient: dict[Mono, object] = {}
    rem = a
    while rem.terms:
        rm, rc = rem.leading()
        qm = tuple(x - y for x, y in zip(rm, lead_mono))
        if any(e < 0 for e in qm):
            raise ValueError("inexact polynomial division")
        if a.char is Char.TWO:
            qc = 1
        else:
            qc = _norm_coeff(a.char, Fraction(rc) / Fraction(lead_coeff))
        quotient[qm] = qc
        rem = rem - Poly.monomial(a.nvars, a.char, qm, qc) * b
    return Poly(a.nvars, a.char, quotient)


def power_tables(point: Sequence[int], tops: Sequence[int], mul) -> list[list[int]]:
    """pows[i][e] = point[i]^e for e up to tops[i], multiplying with ``mul``."""
    pows = []
    for v, top in zip(point, tops):
        row = [1] * (top + 1)
        for e in range(1, top + 1):
            row[e] = mul(row[e - 1], v)
        pows.append(row)
    return pows


@functools.cache
def monomials_of_degree(nvars: int, total: int) -> tuple[Mono, ...]:
    """All exponent tuples of the given total degree, in a fixed order
    (first exponent ascending, then the rest recursively); memoized."""
    if nvars == 1:
        return ((total,),)
    return tuple(
        (first,) + rest
        for first in range(total + 1)
        for rest in monomials_of_degree(nvars - 1, total - first)
    )
