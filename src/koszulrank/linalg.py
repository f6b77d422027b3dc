"""Exact linear algebra used throughout the package.

Three layers live here:

* sparse Gaussian elimination: one leading-coordinate loop, ``_reduce``,
  ranks and solves over Q and F2 (degreewise homology, lifting problems)
  and ranks evaluated matrices over F_p and GF(2^k); each field supplies
  sub, mul and inv, and F2 rows are coordinate sets reduced by XOR;
* fraction-free (Bareiss) elimination over the polynomial ring itself, the
  authoritative rank/determinant/kernel routines over the fraction field;
* randomized evaluation ranks: matrices of polynomials are evaluated at
  random points of a large prime field (characteristic 0) or of GF(2^k)
  (characteristic 2) and ranked there.  The characteristic only picks the
  field; each field draws its point and evaluates the nonzero entries into
  sparse rows, which are reduced sparsest first.  An evaluation rank never
  exceeds the true rank, so a full evaluation rank certifies the exact answer.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import inf

from .polynomials import Char, Poly, UnluckyPrimeError, eval_terms_mod_p, poly_divexact, power_tables

__all__ = [
    "field_rank",
    "solve_linear",
    "GF2k",
    "random_prime",
    "bareiss_rank",
    "bareiss_det",
    "kernel_vector",
    "evaluation_rank",
]


# ---------------------------------------------------------------------------
# sparse elimination over a field
# ---------------------------------------------------------------------------


class Rationals:
    """The field Q on ints and Fractions.  ``inv`` keeps unit pivots integral,
    so integer rows stay integer rows."""

    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)

    @staticmethod
    def inv(a):
        if a == 1 or a == -1:
            return int(a)
        inv = Fraction(1) / a
        return inv.numerator if inv.denominator == 1 else inv


class PrimeField:
    """The integers modulo a prime, encoded as ints in [0, prime)."""

    __slots__ = ("prime",)

    def __init__(self, prime: int):
        self.prime = prime

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.prime

    def mul(self, a: int, b: int) -> int:
        return a * b % self.prime

    def inv(self, a: int) -> int:
        return pow(a, -1, self.prime)

    def random_nonzero(self, rng) -> int:
        return rng.randrange(1, self.prime)

    def evaluate(self, p: Poly, pows: list[list[int]]) -> int:
        """Value of a characteristic-0 polynomial at the point whose power
        tables are ``pows``; raises UnluckyPrimeError on a vanishing denominator."""
        return eval_terms_mod_p(p, pows, self.prime)


_Q = Rationals()
_F2 = PrimeField(2)  # its vectors are coordinate sets, reduced by symmetric difference


def _reduce(vectors, field, upper: int | None = None) -> dict:
    """Echelon form of a family of sparse vectors: leading coordinate -> pivot.

    Vectors map coordinate -> nonzero field element (coordinate sets over
    F2).  Each is reduced by its smallest coordinate against the pivots found
    so far, scaled to lead 1, until it vanishes or becomes a new pivot, so
    nearly block-diagonal families eliminate with almost no fill-in.  Stops
    once ``upper`` pivots are found.  ``field`` supplies sub, mul and inv.
    """
    pivots: dict = {}
    if field is _F2:
        for vec in vectors:
            row = set(vec)
            while row:
                lead = min(row)
                p = pivots.get(lead)
                if p is None:
                    pivots[lead] = row
                    if len(pivots) == upper:
                        return pivots
                    break
                row ^= p
        return pivots
    sub, mul, inv = field.sub, field.mul, field.inv
    for vec in vectors:
        row = dict(vec)
        while row:
            lead = min(row)
            p = pivots.get(lead)
            if p is None:
                f = inv(row[lead])
                pivots[lead] = row if f == 1 else {c: mul(v, f) for c, v in row.items()}
                if len(pivots) == upper:
                    return pivots
                break
            f = row[lead]
            for c, v in p.items():
                s = sub(row.get(c, 0), mul(f, v))
                if s:
                    row[c] = s
                else:
                    row.pop(c, None)
    return pivots


def _base_field(char: Char):
    return _F2 if char is Char.TWO else _Q


def field_rank(vectors, char: Char) -> int:
    """Rank of a family of sparse vectors over the base field.

    Characteristic 0 vectors are dicts mapping coordinate -> int/Fraction;
    characteristic 2 vectors are sets (or dicts) of coordinates.
    """
    return len(_reduce(vectors, _base_field(char)))


_RHS = inf  # right-hand-side coordinate: sorts after every unknown index


def solve_linear(rows, char: Char):
    """Solve a sparse linear system over the base field.

    ``rows`` is a list of (coeffs, rhs) pairs where coeffs maps unknown index
    (an int) -> coefficient; in characteristic 2 only the keys of coeffs
    count.  Returns one solution as a dict (free unknowns omitted, i.e. set
    to zero), or None if the system is inconsistent.
    """
    two = char is Char.TWO
    if two:
        vectors = (set(coeffs) | {_RHS} if rhs & 1 else coeffs for coeffs, rhs in rows)
    else:
        vectors = ({**coeffs, _RHS: rhs} if rhs else coeffs for coeffs, rhs in rows)
    pivots = _reduce(vectors, _base_field(char))
    if _RHS in pivots:
        return None  # some row reduced to 0 = nonzero
    solution: dict = {}
    for lead in sorted(pivots, reverse=True):
        prow = pivots[lead]
        if two:
            acc = sum(1 for c in prow if c is _RHS or c in solution) & 1
        else:
            acc = prow.get(_RHS, 0) - sum(v * solution[c] for c, v in prow.items() if c in solution)
        if acc:
            solution[lead] = acc
    return solution


# ---------------------------------------------------------------------------
# GF(2^k)
# ---------------------------------------------------------------------------


def _gf2_poly_mulmod(a: int, b: int, mod: int, degree: int) -> int:
    top = 1 << degree
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= mod
    return acc


def _gf2_poly_gcd(a: int, b: int) -> int:
    while b:
        while a.bit_length() >= b.bit_length() and a:
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _gf2_irreducible(degree: int) -> int:
    """Smallest irreducible trinomial/pentanomial x^degree + ... + 1 over F2."""

    def is_irreducible(f: int) -> bool:
        # Rabin test: x^(2^degree) == x mod f, and for every prime q | degree
        # gcd(x^(2^(degree/q)) - x, f) == 1.
        h = 2  # the polynomial x
        for _ in range(degree):
            h = _gf2_poly_mulmod(h, h, f, degree)
        if h != 2:
            return False
        for q in _prime_factors(degree):
            h = 2
            for _ in range(degree // q):
                h = _gf2_poly_mulmod(h, h, f, degree)
            if _gf2_poly_gcd(h ^ 2, f) != 1:
                return False
        return True

    base = (1 << degree) | 1
    for j in range(1, degree):
        f = base | (1 << j)
        if is_irreducible(f):
            return f
    for j in range(1, degree):
        for k in range(j + 1, degree):
            for l in range(k + 1, degree):
                f = base | (1 << j) | (1 << k) | (1 << l)
                if is_irreducible(f):
                    return f
    raise ValueError(f"no sparse irreducible polynomial of degree {degree} found")


class GF2k:
    """The field with 2^k elements, encoded as ints below 2^k."""

    _cache: dict[int, "GF2k"] = {}

    def __new__(cls, bits: int):
        cached = cls._cache.get(bits)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        self.bits = bits
        self.order = 1 << bits
        self.modulus = _gf2_irreducible(bits)
        cls._cache[bits] = self
        return self

    def sub(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return _gf2_poly_mulmod(a, b, self.modulus, self.bits)

    def inv(self, a: int) -> int:
        """Inverse by the extended Euclidean algorithm over GF(2)[x].

        Invariant: u = g1 * a and v = g2 * a modulo the field polynomial.
        """
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^k)")
        u, v = a, self.modulus
        g1, g2 = 1, 0
        while u != 1:
            shift = u.bit_length() - v.bit_length()
            if shift < 0:
                u, v, g1, g2 = v, u, g2, g1
                shift = -shift
            u ^= v << shift
            g1 ^= g2 << shift
        return g1

    def pow(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def random_nonzero(self, rng) -> int:
        return rng.randrange(1, self.order)

    def evaluate(self, p: Poly, pows: list[list[int]]) -> int:
        """Value of a characteristic-2 polynomial at the point whose power
        tables are ``pows``."""
        total = 0
        for mono in p.terms:
            c = 1
            for i, e in enumerate(mono):
                if e:
                    c = self.mul(c, pows[i][e])
            total ^= c
        return total


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int, rng) -> int:
    """A uniform random prime with exactly the given bit length."""
    while True:
        candidate = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if _is_prime(candidate):
            return candidate


# ---------------------------------------------------------------------------
# fraction-free elimination over the polynomial ring
# ---------------------------------------------------------------------------


def _bareiss_echelon(matrix: list[list[Poly]]):
    """Fraction-free forward elimination with full pivoting.

    Returns (pivot count, row permutation, column permutation, sign, last
    pivot, rows) where the permutations map elimination position -> original
    index and sign is the parity of the swaps made.  The last pivot is the
    leading principal minor of the permuted matrix of size pivot count, so on
    a nonsingular square matrix sign * last pivot is the determinant, whatever
    the pivot rule.  The first pivot-count ``rows`` are the permuted echelon
    form, pivots on the diagonal.  The input is not modified.
    """
    rows = [list(r) for r in matrix]
    nrows, ncols = len(rows), len(rows[0])
    row_perm = list(range(nrows))
    col_perm = list(range(ncols))
    sample = rows[0][0]
    prev = Poly.one(sample.nvars, sample.char)
    sign = 1
    k = 0
    while k < min(nrows, ncols):
        best = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                e = rows[i][j]
                if e.terms and (best is None or len(e.terms) < best[0]):
                    best = (len(e.terms), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != k:
            rows[k], rows[pi] = rows[pi], rows[k]
            row_perm[k], row_perm[pi] = row_perm[pi], row_perm[k]
            sign = -sign
        if pj != k:
            for r in rows:
                r[k], r[pj] = r[pj], r[k]
            col_perm[k], col_perm[pj] = col_perm[pj], col_perm[k]
            sign = -sign
        pivot = rows[k][k]
        prev_is_one = prev.is_one()
        row_k = rows[k]
        for i in range(k + 1, nrows):
            row_i = rows[i]
            head = row_i[k]
            for j in range(k + 1, ncols):
                num = pivot * row_i[j] - head * row_k[j]
                row_i[j] = num if (prev_is_one or not num.terms) else poly_divexact(num, prev)
            row_i[k] = Poly.zero(pivot.nvars, pivot.char)
        prev = pivot
        k += 1
    return k, row_perm, col_perm, sign, prev, rows


def bareiss_rank(matrix: list[list[Poly]]) -> int:
    """Exact rank over the fraction field via fraction-free elimination."""
    if not matrix or not matrix[0]:
        return 0
    return _bareiss_echelon(matrix)[0]


def bareiss_det(matrix: list[list[Poly]]) -> Poly:
    """Exact determinant of a square polynomial matrix."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix has no determinant")
    if any(len(r) != n for r in matrix):
        raise ValueError("determinant requires a square matrix")
    k, _, _, sign, last, _ = _bareiss_echelon(matrix)
    if k < n:
        return Poly.zero(last.nvars, last.char)
    return -last if sign < 0 else last


def kernel_vector(matrix: list[list[Poly]]):
    """One exact kernel vector of a polynomial matrix, or None if injective.

    The vector has entries in the polynomial ring (Cramer-style determinant
    scaling), indexed like the columns of the input: the smallest non-pivot
    column gets the last pivot, the other non-pivot columns zero, and exact
    back-substitution over the echelon rows gives the pivot columns.
    """
    if not matrix or not matrix[0]:
        return None
    ncols = len(matrix[0])
    k, _, col_perm, _, last, rows = _bareiss_echelon(matrix)
    if k == ncols:
        return None
    sample = matrix[0][0]
    free_pos = col_perm.index(min(col_perm[k:]))
    # x[pos] is the entry of the column at elimination position pos
    x = [Poly.zero(sample.nvars, sample.char)] * ncols
    x[free_pos] = last
    for i in reversed(range(k)):
        row = rows[i]
        acc = Poly.zero(sample.nvars, sample.char)
        for pos in [free_pos, *range(i + 1, k)]:
            if row[pos].terms and x[pos].terms:
                acc = acc + row[pos] * x[pos]
        x[i] = -poly_divexact(acc, row[i])
    vec = [v for _, v in sorted(zip(col_perm, x))]  # column indices are distinct
    # sanity: the vector must lie in the kernel of every row
    for row in matrix:
        acc = Poly.zero(sample.nvars, sample.char)
        for entry, v in zip(row, vec):
            if entry.terms and v.terms:
                acc = acc + entry * v
        if acc.terms:
            raise AssertionError("kernel extraction produced a non-kernel vector")
    return vec


# ---------------------------------------------------------------------------
# randomized evaluation ranks
# ---------------------------------------------------------------------------


def evaluation_rank(matrix: list[list[Poly]], char: Char, rng, trials: int = 5, bits: int = 31) -> int:
    """Probabilistic rank of a polynomial matrix over the fraction field.

    Every variable is evaluated at an independent uniform nonzero element of
    a field of size >= 2^(bits-1): a fresh random prime field in
    characteristic 0, GF(2^bits) in characteristic 2 (evaluation must stay in
    the same characteristic for minors to keep vanishing).  The maximum rank
    over the given number of independent trials is returned; it is a certain
    lower bound for the true rank and equals it with overwhelming probability.

    Only nonzero entries are evaluated, and rows are reduced in increasing
    order of their nonzero count, which keeps fill-in low on sparse matrices.
    """
    if not matrix or not matrix[0]:
        return 0
    nvars = matrix[0][0].nvars
    entries = sorted(
        ([(j, e) for j, e in enumerate(row) if e.terms] for row in matrix),
        key=len,
    )
    max_exp = [0] * nvars
    for row in entries:
        for _, e in row:
            for i, m in enumerate(e.max_exponents()):
                if m > max_exp[i]:
                    max_exp[i] = m
    best = 0
    upper = min(len(matrix), len(matrix[0]))
    for _ in range(trials):
        while True:
            field = PrimeField(random_prime(bits, rng)) if char is Char.ZERO else GF2k(bits)
            point = [field.random_nonzero(rng) for _ in range(nvars)]
            pows = power_tables(point, max_exp, field.mul)
            try:
                rows = [{j: v for j, e in row if (v := field.evaluate(e, pows))} for row in entries]
            except UnluckyPrimeError:
                continue  # a coefficient denominator vanished: draw a new prime
            break
        rank = len(_reduce(rows, field, upper))
        if rank > best:
            best = rank
        if best == upper:
            break
    return best
