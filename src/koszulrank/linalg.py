"""Exact linear algebra used throughout the package.

Three layers live here:

* sparse Gaussian elimination over the base field: one leading-coordinate
  loop, ``_reduce``, ranks and solves over Q and F2 (degreewise homology,
  lifting problems).  Callers pass rows as dicts; over F2 only their keys
  count, and the coordinate sets reduced by XOR are internal to ``_reduce``;
* fraction-free (Bareiss) elimination over the polynomial ring itself, the
  authoritative rank/determinant/kernel routines over the fraction field,
  all read from one echelon, ``_bareiss_echelon``;
* randomized evaluation ranks: one loop, ``rank_at_points``, draws up to
  ``EVALUATION_TRIALS`` random points, each in a field of ``DEFAULT_BITS``
  bits unless the caller asks otherwise: a prime field (characteristic 0)
  or GF(2^k) (characteristic 2; log tables up to GF(2^16), quadratic
  towers above), and asks the caller's ``rank_at(field, point)`` for the
  rank of the matrix's values there.  Each field evaluates a polynomial
  itself (``evaluate``; ``PrimeField`` lifts rational coefficients), the
  only polynomial evaluator.  The callback returns that rank, an int, and
  reduces whatever sparse rows it builds with ``point_rank``, the one
  sparsest-first elimination of evaluated rows: each row is reduced in a
  dense list, against pivot rows that its field prepared once (``pivot``)
  and subtracts in one flat loop (``update``).  ``chain_maps`` ranks
  every chain map this way, first on a half-size matrix of boundary
  values when that can decide it; ``evaluation_rank`` ranks the evaluated
  entries of a matrix of polynomials.  The characteristic only picks the
  field.  An evaluation rank never exceeds the true rank, so a full
  evaluation rank certifies the exact answer.
"""

from __future__ import annotations

from array import array
from collections import Counter
from fractions import Fraction
from math import inf

from .polynomials import Char, Poly, UnluckyPrimeError, poly_divexact, power_tables

__all__ = [
    "field_rank",
    "solve_linear",
    "GF2Log",
    "GF2Tower",
    "GF2TableTower",
    "gf2_field",
    "random_prime",
    "bareiss_rank",
    "bareiss_det",
    "kernel_vector",
    "evaluation_rank",
    "rank_at_points",
]


# ---------------------------------------------------------------------------
# sparse elimination over a field
# ---------------------------------------------------------------------------


class Rationals:
    """The field Q on ints and Fractions, as ``_reduce`` eliminates over it.
    ``inv`` keeps unit pivots integral, so integer rows stay integer rows."""

    @staticmethod
    def inv(a):
        if a == 1 or a == -1:
            return int(a)
        inv = Fraction(1) / a
        return inv.numerator if inv.denominator == 1 else inv

    @staticmethod
    def axpy(row: dict, f, pivot: dict) -> None:
        """``row -= f * pivot`` in place, zeros dropped (f and pivot entries nonzero)."""
        get = row.get
        for c, v in pivot.items():
            s = get(c, 0) - f * v
            if s:
                row[c] = s
            else:
                del row[c]


class PrimeField:
    """The integers modulo a prime, encoded as ints in [0, prime)."""

    __slots__ = ("prime",)

    def __init__(self, prime: int):
        self.prime = prime

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.prime

    def neg(self, a: int) -> int:
        return -a % self.prime

    def mul(self, a: int, b: int) -> int:
        return a * b % self.prime

    def inv(self, a: int) -> int:
        return pow(a, -1, self.prime)

    @property
    def order(self) -> int:
        return self.prime

    def pivot(self, acc: list, lead: int) -> list:
        """The nonzero entries after ``lead`` of a dense row, reduced: a pivot
        row for :meth:`update`."""
        p = self.prime
        return [(c, v) for c in range(lead + 1, len(acc)) if (v := acc[c] % p)]

    @staticmethod
    def update(acc: list, f: int, pivot: list) -> None:
        """``acc -= f * pivot``, left unreduced: :func:`point_rank` reduces an
        entry when it reads it."""
        for c, v in pivot:
            acc[c] -= f * v

    def random_nonzero(self, rng) -> int:
        return rng.randrange(1, self.prime)

    def evaluate(self, p: Poly, pows: list[list[int]]) -> int:
        """Value of a characteristic-0 polynomial at the point whose power
        tables are ``pows``: a rational coefficient is lifted through the
        inverse of its denominator; a denominator that vanishes mod the
        prime raises UnluckyPrimeError, so the caller draws a new prime."""
        prime = self.prime
        total = 0
        for mono, coeff in p.terms.items():
            if isinstance(coeff, Fraction):
                den = coeff.denominator % prime
                if den == 0:
                    raise UnluckyPrimeError(f"denominator {coeff.denominator} vanishes mod {prime}")
                c = coeff.numerator % prime * pow(den, -1, prime) % prime
            else:
                c = coeff % prime
            for i, e in enumerate(mono):
                if e:
                    c = c * pows[i][e] % prime
            total = (total + c) % prime
        return total


def _reduce(vectors, char: Char) -> dict:
    """Echelon form of a family of sparse vectors: leading coordinate -> pivot.

    Vectors map coordinate -> nonzero field element of the base field.  In
    characteristic 2 only the keys count: each vector is copied into a
    coordinate set and reduced by XOR, and the pivots returned are such
    sets.  Each vector is reduced by its smallest coordinate against the
    pivots found so far, scaled to lead 1, until it vanishes or becomes a
    new pivot, so nearly block-diagonal families eliminate with almost no
    fill-in.
    """
    pivots: dict = {}
    if char is Char.TWO:
        for vec in vectors:
            row = set(vec)
            while row:
                lead = min(row)
                p = pivots.get(lead)
                if p is None:
                    pivots[lead] = row
                    break
                row ^= p
        return pivots
    inv, axpy = Rationals.inv, Rationals.axpy
    for vec in vectors:
        row = dict(vec)
        while row:
            lead = min(row)
            p = pivots.get(lead)
            if p is None:
                f = inv(row[lead])
                pivots[lead] = row if f == 1 else {c: v * f for c, v in row.items()}
                break
            axpy(row, row[lead], p)
    return pivots


def field_rank(vectors, char: Char) -> int:
    """Rank of a family of sparse vectors over the base field.

    Vectors are dicts mapping coordinate -> nonzero int/Fraction; in
    characteristic 2 only their keys count.
    """
    return len(_reduce(vectors, char))


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
    pivots = _reduce(vectors, char)
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
# characteristic-2 evaluation fields
# ---------------------------------------------------------------------------

# k -> (modulus, primitive element) of GF(2^k) = F2[x]/(modulus), elements
# encoded as ints below 2^k (bit i is the coefficient of x^i).  Each modulus
# is the first irreducible trinomial of degree k, else the first pentanomial,
# ordered by their middle exponents; the element x (2) is primitive except for
# k = 9, 12, 14 and 16, where x has order 73, 45, 5461 and 21845.
_GF2_MODULI = {
    2: (0x7, 2), 3: (0xB, 2), 4: (0x13, 2), 5: (0x25, 2), 6: (0x43, 2),
    7: (0x83, 2), 8: (0x187, 2), 9: (0x203, 7), 10: (0x409, 2), 11: (0x805, 2),
    12: (0x1009, 3), 13: (0x2027, 2), 14: (0x4021, 7), 15: (0x8003, 2), 16: (0x10047, 3),
}


class _Char2Field:
    """What every characteristic-2 field shares: elements are ints below
    ``order``, and addition and subtraction are XOR."""

    __slots__ = ()

    def random_nonzero(self, rng) -> int:
        return rng.randrange(1, self.order)

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    @staticmethod
    def neg(a: int) -> int:
        return a

    def pow(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def trace(self, a: int) -> int:
        """The absolute trace a + a^2 + a^4 + ... + a^(2^(k-1)), which is 0 or 1."""
        total = 0
        for _ in range(self.bits):
            total ^= a
            a = self.mul(a, a)
        return total

    @staticmethod
    def pivot(acc: list, lead: int) -> list:
        """The nonzero entries after ``lead`` of a dense row: a pivot row for
        :meth:`update`."""
        return [(c, v) for c in range(lead + 1, len(acc)) if (v := acc[c])]

    def update(self, acc: list, f: int, pivot: list) -> None:
        """``acc -= f * pivot``."""
        mul = self.mul
        for c, v in pivot:
            acc[c] ^= mul(f, v)

    def evaluate(self, p: Poly, pows: list[list[int]]) -> int:
        """Value of a characteristic-2 polynomial at the point whose power
        tables are ``pows``."""
        mul = self.mul
        total = 0
        for mono in p.terms:
            c = 1
            for i, e in enumerate(mono):
                if e:
                    c = mul(c, pows[i][e])
            total ^= c
        return total


class GF2Log(_Char2Field):
    """GF(2^k) for k <= 16, multiplied through log/antilog tables.

    ``exp`` holds two periods of the powers of a primitive element, so the
    sum of two logs needs no reduction, then one period of zeros; ``log``
    of 0 is the sentinel 2(2^k - 1), the first of those zeros, so a sum
    with one sentinel log reads 0 (the tower's update relies on it).  The
    tables are arrays of 16- and 32-bit entries (about 0.6 MB at k = 16),
    built here by repeated multiplication by the primitive element.
    """

    __slots__ = ("bits", "order", "modulus", "log", "exp")

    def __init__(self, bits: int):
        modulus, generator = _GF2_MODULI[bits]
        q = 1 << bits
        exp = array("H", [0]) * (3 * (q - 1))
        log = array("I", [2 * (q - 1)]) * q
        x = 1
        for i in range(q - 1):
            exp[i] = exp[i + q - 1] = x
            log[x] = i
            product, g = 0, generator  # x *= generator, one shift-and-reduce per bit
            while g:
                if g & 1:
                    product ^= x
                g >>= 1
                x <<= 1
                if x & q:
                    x ^= modulus
            x = product
        self.bits = bits
        self.order = q
        self.modulus = modulus
        self.log = log
        self.exp = exp

    def mul(self, a: int, b: int) -> int:
        return self.exp[self.log[a] + self.log[b]] if a and b else 0

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError(f"inverse of 0 in GF(2^{self.bits})")
        return self.exp[self.order - 1 - self.log[a]]

    def pivot(self, acc: list, lead: int) -> list:
        """The logs of the nonzero entries after ``lead`` of a dense row."""
        log = self.log
        return [(c, log[v]) for c in range(lead + 1, len(acc)) if (v := acc[c])]

    def update(self, acc: list, f: int, pivot: list) -> None:
        """``acc -= f * pivot``, one table read per entry (f nonzero)."""
        exp, lf = self.exp, self.log[f]
        for c, lv in pivot:
            acc[c] ^= exp[lf + lv]


class GF2Tower(_Char2Field):
    """GF(2^2h) = GF(2^h)[y]/(y^2 + y + c), the element a1*y + a0 encoded a1*2^h + a0.

    y^2 + y + c is irreducible over the base exactly when the trace of c is 1;
    c is the first power of x with that trace.  Products take three base
    multiplications (Karatsuba): with m1 = a1*b1, m0 = a0*b0 and
    mm = (a1 + a0)(b1 + b0), (a1 y + a0)(b1 y + b0) = (mm + m0) y + m0 + c*m1.
    The inverse of a1 y + a0 is (a1 y + a0 + a1) / N, N = a0^2 + a0 a1 + c a1^2.
    """

    __slots__ = ("base", "bits", "order", "half", "mask", "c")

    def __init__(self, base):
        self.base = base
        self.half = base.bits
        self.mask = (1 << base.bits) - 1
        self.bits = 2 * base.bits
        self.order = 1 << self.bits
        self.c = next(1 << j for j in range(base.bits) if base.trace(1 << j))

    def mul(self, a: int, b: int) -> int:
        h, mask, bmul = self.half, self.mask, self.base.mul
        a1, a0, b1, b0 = a >> h, a & mask, b >> h, b & mask
        m0 = bmul(a0, b0)
        return ((bmul(a1 ^ a0, b1 ^ b0) ^ m0) << h) | (m0 ^ bmul(self.c, bmul(a1, b1)))

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError(f"inverse of 0 in GF(2^{self.bits})")
        h, base = self.half, self.base
        a1, a0 = a >> h, a & self.mask
        n = base.inv(base.mul(a0, a0 ^ a1) ^ base.mul(self.c, base.mul(a1, a1)))
        return (base.mul(a1, n) << h) | base.mul(a0 ^ a1, n)


class GF2TableTower(GF2Tower):
    """A :class:`GF2Tower` over a :class:`GF2Log` base whose row update reads
    the base tables inline.  A pivot row keeps the base logs of each entry's
    halves a0, a1 + a0 and a1 (the sentinel log for a zero half), and an
    update takes the logs of f's halves once; then each entry costs the
    three Karatsuba products as three table reads, with no branch and no
    call."""

    __slots__ = ()

    def pivot(self, acc: list, lead: int) -> list:
        h, mask, log = self.half, self.mask, self.base.log
        return [
            (c, log[v & mask], log[(v >> h) ^ (v & mask)], log[v >> h])
            for c in range(lead + 1, len(acc))
            if (v := acc[c])
        ]

    def update(self, acc: list, f: int, pivot: list) -> None:
        base, h = self.base, self.half
        exp, log = base.exp, base.log
        f1, f0 = f >> h, f & self.mask
        if not (f1 and f0 and f1 != f0):  # a sentinel on both sides would read past the zeros
            mul = self.mul
            for c, l0, _, l1 in pivot:
                acc[c] ^= mul(f, (exp[l1] << h) | exp[l0])
            return
        k0, ks = log[f0], log[f1 ^ f0]
        k1c = (log[f1] + log[self.c]) % (base.order - 1)
        for c, l0, ls, l1 in pivot:
            m0 = exp[k0 + l0]
            acc[c] ^= ((exp[ks + ls] ^ m0) << h) | (m0 ^ exp[k1c + l1])


_GF2_FIELDS: dict = {}  # k -> GF(2^k), built on first use (the 16-bit tables take ~50 ms)


def gf2_field(bits: int):
    """The characteristic-2 evaluation field for a bit size from 2 to 64.

    GF(2^bits) from its own log tables up to 16 bits, GF(2^32) from 17 to 32
    bits (the default 31 included) and GF(2^64) from 33 to 64, so the field
    always has at least 2^(bits-1) elements.  The two wider fields are
    quadratic extensions of GF(2^16) and GF(2^32).  Fields are built when
    first asked for, never at import.
    """
    if not 2 <= bits <= 64:
        raise ValueError(f"no characteristic-2 evaluation field for {bits} bits")
    k = bits if bits <= 16 else 32 if bits <= 32 else 64
    field = _GF2_FIELDS.get(k)
    if field is None:
        if k <= 16:
            field = GF2Log(k)
        else:
            base = gf2_field(k // 2)
            field = GF2TableTower(base) if isinstance(base, GF2Log) else GF2Tower(base)
        _GF2_FIELDS[k] = field
    return field


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
    """One exact kernel vector of a polynomial matrix, or None if injective."""
    return _rank_and_kernel(matrix)[1]


def _rank_and_kernel(matrix: list[list[Poly]]):
    """(exact rank, one kernel vector or None if injective), from one echelon.

    The vector has entries in the polynomial ring (Cramer-style determinant
    scaling), indexed like the columns of the input: the smallest non-pivot
    column gets the last pivot, the other non-pivot columns zero, and exact
    back-substitution over the echelon rows gives the pivot columns.
    """
    if not matrix or not matrix[0]:
        return 0, None
    ncols = len(matrix[0])
    k, _, col_perm, _, last, rows = _bareiss_echelon(matrix)
    if k == ncols:
        return k, None
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
    return k, vec


# ---------------------------------------------------------------------------
# randomized evaluation ranks
# ---------------------------------------------------------------------------


# Points drawn per evaluation rank (fewer once one is full) and their fields' default bits.
EVALUATION_TRIALS = 5
DEFAULT_BITS = 31

# Unlucky draws in a row that end a trial.  With P_b primes of b bits, one of
# them usable, the chance is at most (1 - 1/P_b)^1500 < 2^-50 for P_b <= 43
# (b <= 9); wider sizes get there only if 97.7% of their primes are unlucky.
MAX_UNLUCKY_DRAWS = 1500


def rank_at_points(rank_at, nvars: int, char: Char, rng, upper: int, bits: int = DEFAULT_BITS) -> int:
    """Probabilistic rank over the fraction field of a matrix given by its values at points.

    The one evaluation loop.  Each of ``EVALUATION_TRIALS`` trials draws
    its field (a fresh random prime of ``bits`` bits in characteristic 0,
    ``gf2_field(bits)`` in characteristic 2; evaluation must stay in the
    same characteristic for minors to keep vanishing), then one uniform
    nonzero element per variable, and asks ``rank_at(field, point)`` for
    the rank of the matrix's values at that point (see :func:`point_rank`).
    A ``rank_at`` that raises UnluckyPrimeError (a coefficient denominator
    vanished) makes the trial draw a new prime and point, up to
    ``MAX_UNLUCKY_DRAWS`` times in a row; then UnluckyPrimeError names the
    bit size.  ``upper`` is min(rows, columns); a matrix without rows or
    columns has rank 0 and draws nothing.  The maximum rank over the trials
    is returned, stopping at the first full one; it is a certain lower bound
    for the true rank and equals it with overwhelming probability.
    """
    if not upper:
        return 0
    best = 0
    for _ in range(EVALUATION_TRIALS):
        for _ in range(MAX_UNLUCKY_DRAWS):
            field = PrimeField(random_prime(bits, rng)) if char is Char.ZERO else gf2_field(bits)
            point = [field.random_nonzero(rng) for _ in range(nvars)]
            try:
                rank = rank_at(field, point)
            except UnluckyPrimeError:
                continue  # a coefficient denominator vanished: draw a new prime
            break
        else:
            raise UnluckyPrimeError(
                f"{MAX_UNLUCKY_DRAWS} {bits}-bit primes drawn in a row each divide a coefficient denominator"
            )
        if rank > best:
            best = rank
        if best == upper:
            break
    return best


def point_rank(rows, field, upper: int | None = None) -> int:
    """Rank over ``field`` of sparse rows, dicts from column key to nonzero value.

    Column keys are relabelled 0, 1, ... by increasing nonzero count (ties
    by key), and rows are reduced in increasing order of their nonzero
    count, so each row leads with its sparsest column (a static Markowitz
    order); the rank depends on neither order.  Each row is copied into a
    dense list and swept once from its first label up: an entry read
    nonzero (modulo ``field.order``, which reduces an accumulated F_p entry
    and leaves a GF(2^k) element as it is) is cancelled by the pivot row of
    that label, or makes the row the pivot there.  A pivot row keeps the
    inverse of its lead and what ``field.pivot`` prepared from its later
    entries; ``field.update(acc, f, pivot)`` subtracts f times it.  Stops
    once ``upper`` pivots are found.

    Cost, in-process on 2 shared cores with CPython 3.11: the 128-square
    boundary matrix of a fully graded n=8 map (about 1.4k nonzero entries)
    reduces in 1.5-2.5 ms over a 31-bit prime, as the host's speed drifts.
    """
    counts = Counter(c for row in rows for c in row)
    label = {c: k for k, c in enumerate(sorted(counts, key=lambda c: (counts[c], c)))}
    size = len(label)
    order, mul, inv, pivot, update = field.order, field.mul, field.inv, field.pivot, field.update
    pivots: list = [None] * size  # label -> (inverse of the lead, prepared row)
    rank = 0
    for row in sorted(rows, key=len):
        if not row:
            continue
        acc = [0] * size
        for c, v in row.items():
            acc[label[c]] = v
        for lead in range(min(map(label.__getitem__, row)), size):
            x = acc[lead] % order
            if x:
                p = pivots[lead]
                if p is None:
                    pivots[lead] = (inv(x), pivot(acc, lead))
                    rank += 1
                    if rank == upper:
                        return rank
                    break
                update(acc, mul(x, p[0]), p[1])
    return rank


def evaluation_rank(matrix: list[list[Poly]], char: Char, rng, bits: int = DEFAULT_BITS) -> int:
    """Probabilistic rank of a polynomial matrix over the fraction field.

    :func:`rank_at_points` with the matrix's nonzero entries evaluated at
    each point; the draws, the fields and the meaning of the answer are
    that loop's.

    Cost of reducing the full matrix (a chain map's whole rank usually
    reduces only a half-size boundary matrix, see
    ``chain_maps._column_rank``), in-process on 2 shared cores with
    CPython 3.11: a fully graded n=8 bound matrix (256 x 256, about 3k
    nonzero entries) reduces in about 0.006 s over a 31-bit prime, 0.011 s
    over GF(2^16), 0.04 s over GF(2^32) and 0.5 s over GF(2^64), whose
    update multiplies each entry through the generic tower product.
    """
    if not matrix or not matrix[0]:
        return 0
    nvars = matrix[0][0].nvars
    entries = [[(j, e) for j, e in enumerate(row) if e.terms] for row in matrix]
    monos = [mono for row in entries for _, e in row for mono in e.terms]
    max_exp = [max(exps) for exps in zip(*monos)] or [0] * nvars

    upper = min(len(matrix), len(matrix[0]))

    def rank_at(field, point):
        pows = power_tables(point, max_exp, field.mul)
        rows = [{j: v for j, e in row if (v := field.evaluate(e, pows))} for row in entries]
        return point_rank(rows, field, upper)

    return rank_at_points(rank_at, nvars, char, rng, upper, bits)
