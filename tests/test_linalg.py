import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from koszulrank import linalg
from koszulrank.linalg import (
    EVALUATION_TRIALS,
    GF2Log,
    GF2TableTower,
    GF2Tower,
    PrimeField,
    Rationals,
    _bareiss_echelon,
    _is_prime,
    bareiss_det,
    bareiss_rank,
    evaluation_rank,
    field_rank,
    gf2_field,
    kernel_vector,
    point_rank,
    random_prime,
    solve_linear,
)
from koszulrank.polynomials import Char, Poly


def _p(text, nvars=2, char=Char.ZERO):
    return Poly.parse(text, nvars, char)


def test_field_rank_rational():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}]
    assert field_rank(rows, Char.ZERO) == 2
    assert field_rank([], Char.ZERO) == 0
    assert field_rank([{0: Fraction(1, 2)}], Char.ZERO) == 1


def test_field_rank_f2():
    rows = [{0, 1}, {1, 2}, {0, 2}]  # third is the sum of the first two
    assert field_rank(rows, Char.TWO) == 2


@pytest.mark.parametrize("char", [Char.ZERO, Char.TWO])
def test_field_rank_matches_bareiss_on_constants(char):
    rng = random.Random(13)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [
            {j: rng.choice((-3, -1, 1, 2, 5)) for j in range(ncols) if rng.random() < 0.35}
            for _ in range(nrows)
        ]
        rows.append({})
        rows.append(dict(rng.choice(rows)))
        rng.shuffle(rows)
        matrix = [[Poly.constant(1, char, row.get(j, 0)) for j in range(ncols)] for row in rows]
        if char is Char.TWO:
            vectors = [{j for j, v in row.items() if v % 2} for row in rows]
        else:
            vectors = rows
        assert field_rank(vectors, char) == bareiss_rank(matrix)


def test_solve_linear_rational():
    # x0 + x1 = 3, x1 = 1
    sol = solve_linear([({0: 1, 1: 1}, 3), ({1: 1}, 1)], Char.ZERO)
    assert sol == {0: 2, 1: 1}
    assert solve_linear([({0: 1}, 1), ({0: 1}, 2)], Char.ZERO) is None


def test_solve_linear_f2():
    sol = solve_linear([({0: 1, 1: 1}, 1), ({1: 1}, 1)], Char.TWO)
    assert sol == {1: 1}
    assert solve_linear([({0: 1, 1: 1}, 0), ({0: 1, 1: 1}, 1)], Char.TWO) is None


def test_solve_underdetermined_consistent():
    sol = solve_linear([({0: 1, 1: 1}, 2)], Char.ZERO)
    total = sum(sol.get(i, 0) for i in (0, 1))
    assert total == 2


@pytest.mark.parametrize("char", [Char.ZERO, Char.TWO])
def test_solve_linear_ignores_row_order(char):
    rng = random.Random(7)
    values = (1, -1, 2, Fraction(1, 2)) if char is Char.ZERO else (1,)
    for _ in range(400):
        nvars = rng.randint(1, 6)
        x = {j: rng.choice(values) for j in range(nvars) if rng.random() < 0.6}
        rows = []
        for _ in range(rng.randint(0, 8)):
            coeffs = {j: rng.choice(values) for j in rng.sample(range(nvars), rng.randint(0, nvars))}
            if rng.random() < 0.8:  # consistent with x
                rhs = sum(v * x.get(j, 0) for j, v in coeffs.items())
            else:
                rhs = rng.choice(values)
            rows.append((coeffs, rhs % 2 if char is Char.TWO else rhs))
        expected = solve_linear(rows, char)
        if expected is not None:
            for coeffs, rhs in rows:
                lhs = sum(v * expected.get(j, 0) for j, v in coeffs.items())
                assert (lhs - rhs) % 2 == 0 if char is Char.TWO else lhs == rhs
        for _ in range(3):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert solve_linear(shuffled, char) == expected


# every level of the characteristic-2 fields: the log-table fields GF(2^k),
# k <= 16, and the towers GF(2^32) and GF(2^64)
GF2_LEVELS = [*range(2, 17), 32, 64]


def test_gf2k_field_axioms():
    rng = random.Random(0)
    for bits in GF2_LEVELS:
        field = gf2_field(bits)
        assert field.bits == bits
        for _ in range(100):
            a = field.random_nonzero(rng)
            b = field.random_nonzero(rng)
            c = field.random_nonzero(rng)
            assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
            assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.mul(a, field.inv(a)) == 1
            assert field.mul(1, a) == a and field.mul(0, a) == 0


def test_gf2k_small_fields():
    # every nonzero element of GF(2^k) has order dividing 2^k - 1
    for bits in range(2, 11):
        field = gf2_field(bits)
        for a in range(1, field.order):
            assert field.pow(a, field.order - 1) == 1


def test_gf2k_inverse_matches_fermat():
    for bits in range(2, 11):  # exhaustive
        field = gf2_field(bits)
        for a in range(1, field.order):
            assert field.inv(a) == field.pow(a, field.order - 2)
            assert field.mul(a, field.inv(a)) == 1


def test_gf2_inverse_of_zero_raises():
    for bits in GF2_LEVELS:
        with pytest.raises(ZeroDivisionError):
            gf2_field(bits).inv(0)


def test_gf2_16_log_exp_round_trip():
    field = gf2_field(16)
    q = field.order
    assert isinstance(field, GF2Log) and field.modulus == 0x10047
    assert sorted(field.exp[: q - 1]) == list(range(1, q))  # the generator is primitive
    assert all(field.exp[field.log[a]] == a for a in range(1, q))
    assert field.exp[q - 1 : 2 * (q - 1)] == field.exp[: q - 1]
    # the sentinel log of 0 reads a zero plus any log, as the tower's update needs
    assert field.log[0] == 2 * (q - 1) and len(field.exp) == 3 * (q - 1)
    assert not any(field.exp[2 * (q - 1) :])


# the moduli the bit-serial GF(2^k) arithmetic used before the log tables
# (its first irreducible trinomial or pentanomial of each degree), recorded
PRE_TABLE_MODULI = {
    2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x187, 9: 0x203,
    10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x2027, 14: 0x4021, 15: 0x8003, 16: 0x10047,
}


def test_gf2_small_fields_keep_their_moduli():
    # multiplication by x is the shift reduced by the old modulus
    for bits in range(2, 17):
        field = gf2_field(bits)
        assert field.modulus == PRE_TABLE_MODULI[bits]
        for a in range(1, field.order, max(1, field.order >> 6)):
            shifted = a << 1
            if shifted & field.order:
                shifted ^= field.modulus
            assert field.mul(a, 2) == shifted


def test_gf2_towers():
    for bits, half in ((32, 16), (64, 32)):
        field = gf2_field(bits)
        assert isinstance(field, GF2Tower) and field.base is gf2_field(half)
        assert field.base.trace(field.c) == 1  # y^2 + y + c is irreducible


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2**31 - 1), *map(gf2_field, (3, 16, 32, 64))],
                         ids=["Q", "F_p", "GF(2^3)", "GF(2^16)", "GF(2^32)", "GF(2^64)"])
def test_axpy_is_row_minus_f_times_pivot(field):
    """The row update of every field: ``Rationals.axpy`` on the dict rows of
    ``_reduce``, and the evaluation fields' ``update`` of a pivot row that
    their ``pivot`` hook prepared from a dense row, as ``point_rank`` runs
    them.  Tower elements with a zero or repeated half take the sentinel
    logs and, as the factor f, the fallback branch."""
    rng = random.Random(5)
    if isinstance(field, Rationals):
        elements = [rng.choice((1, -1, 2, Fraction(1, 3))) for _ in range(40)]
        for f in elements[:8]:
            pivot = {c: rng.choice(elements) for c in rng.sample(range(30), 15)}
            row = {c: rng.choice(elements) for c in rng.sample(range(30), 15)}
            for c in rng.sample(sorted(pivot), 3):  # entries that cancel
                row[c] = f * pivot[c]
            expected = {c: v for c in {*row, *pivot} if (v := row.get(c, 0) - f * pivot.get(c, 0))}
            field.axpy(row, f, pivot)
            assert row == expected
        return
    if isinstance(field, PrimeField):
        p = field.prime
        elements = [rng.randrange(1, p) for _ in range(40)]
        sub = lambda a, b: (a - b) % p  # noqa: E731
        unreduced = lambda v: v + rng.randint(-3, 3) * p  # noqa: E731  (as point_rank's rows accumulate)
    else:
        h = field.bits // 2
        special = [1, 1 << h, (1 << h) | 1, ((1 << h) - 1) * ((1 << h) + 1)]
        elements = special + [field.random_nonzero(rng) for _ in range(40)]
        sub = operator.xor
        unreduced = lambda v: v  # noqa: E731
    for f in elements[:8]:
        lead = rng.randrange(6)
        prow = [0] * 30
        for c in rng.sample(range(30), 15):
            prow[c] = rng.choice(elements)
        acc = [0] * 30
        for c in rng.sample(range(30), 15):
            acc[c] = rng.choice(elements)
        for c in rng.sample([c for c in range(lead + 1, 30) if prow[c]], 3):  # entries that cancel
            acc[c] = field.mul(f, prow[c])
        expected = [sub(a, field.mul(f, v)) if c > lead else a for c, (a, v) in enumerate(zip(acc, prow))]
        prepared = field.pivot([unreduced(v) for v in prow], lead)
        field.update(acc, f, prepared)
        assert [v % field.order for v in acc] == expected


def _dense_rank(rows, field) -> int:
    """Rank of sparse rows by plain dense Gauss-Jordan elimination with the
    field's own operations: the oracle for ``point_rank``."""
    cols = sorted({c for row in rows for c in row})
    matrix = [[row.get(c, 0) for c in cols] for row in rows]
    rank = 0
    for j in range(len(cols)):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][j]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        scale = field.inv(matrix[rank][j])
        matrix[rank] = [field.mul(scale, v) for v in matrix[rank]]
        for i in range(len(matrix)):
            if i != rank and matrix[i][j]:
                f = field.neg(matrix[i][j])
                matrix[i] = [field.add(a, field.mul(f, b)) for a, b in zip(matrix[i], matrix[rank])]
        rank += 1
    return rank


POINT_RANK_FIELDS = {
    "F_2": PrimeField(2), "F_3": PrimeField(3), "F_7": PrimeField(7), "F_p(31)": PrimeField(2**31 - 1),
    "F_p(64)": PrimeField(2**64 - 59), "GF(2^2)": 2, "GF(2^8)": 8, "GF(2^16)": 16, "GF(2^32)": 32, "GF(2^64)": 64,
}


@pytest.mark.parametrize("name", POINT_RANK_FIELDS)
def test_point_rank_matches_dense_elimination(name):
    field = POINT_RANK_FIELDS[name]
    if isinstance(field, int):
        field = gf2_field(field)
        assert type(field) is {2: GF2Log, 8: GF2Log, 16: GF2Log, 32: GF2TableTower, 64: GF2Tower}[field.bits]
        h = field.bits // 2
        elements = [1, 1 << h, (1 << h) | 1, field.order - 1]  # tower halves zero or repeated
    else:
        elements = [1, field.prime - 1]
    rng = random.Random(sum(map(ord, name)))
    for trial in range(60):
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)
        keys = rng.sample(range(1000), ncols)  # column keys need not be 0..ncols-1
        density = rng.random()
        rows = [
            {c: rng.choice(elements) if rng.random() < 0.2 else field.random_nonzero(rng)
             for c in keys if rng.random() < density}
            for _ in range(nrows)
        ]
        rows.append({})  # an empty row
        for _ in range(rng.randint(0, 3)):  # planted dependencies: a*r + b*s, scaled copies and their sum
            r, s = rng.choice(rows), rng.choice(rows)
            a, b = field.random_nonzero(rng), rng.choice((0, field.random_nonzero(rng)))
            combo = {c: field.add(field.mul(a, r.get(c, 0)), field.mul(b, s.get(c, 0))) for c in {*r, *s}}
            rows.append({c: v for c, v in combo.items() if v})
        if rows[0]:  # an exact cancellation: a row that differs from a multiple of row 0 in one entry only
            f = field.random_nonzero(rng)
            near = {c: field.mul(f, v) for c, v in rows[0].items()}
            near[rng.choice(keys)] = field.random_nonzero(rng)
            rows.append(near)
        rng.shuffle(rows)
        rank = _dense_rank(rows, field)
        assert point_rank(rows, field) == rank, (name, trial)
        for upper in (1, rank, rank + 1, max(rank - 1, 1)):  # early exit once upper pivots are found
            assert point_rank(rows, field, upper) == min(rank, upper), (name, trial, upper)
    assert point_rank([], field) == point_rank([{}, {}], field, 3) == 0


@pytest.mark.parametrize("bits, level", [(2, 2), (16, 16), (17, 32), (31, 32), (32, 32), (33, 64), (64, 64)])
def test_gf2_field_for_bits(bits, level):
    field = gf2_field(bits)
    assert field.bits == level and field.order >= 1 << (bits - 1)
    assert gf2_field(bits) is field


def test_no_gf2_tables_at_import():
    code = "import koszulrank, koszulrank.linalg as l; print(len(l._GF2_FIELDS))"
    src = str(Path(linalg.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"


def test_random_prime():
    rng = random.Random(7)
    for bits in (20, 31):
        p = random_prime(bits, rng)
        assert p.bit_length() == bits
        assert _is_prime(p)
    assert not _is_prime(561)  # Carmichael number
    assert _is_prime(2**31 - 1)


def _naive_det(matrix):
    n = len(matrix)
    sample = matrix[0][0]
    total = Poly.zero(sample.nvars, sample.char)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Poly.one(sample.nvars, sample.char)
        for i in range(n):
            term = term * matrix[i][perm[i]]
        if inversions % 2 and sample.char is Char.ZERO:
            term = -term
        total = total + term
    return total


def test_bareiss_det_matches_expansion_by_permutations():
    rng = random.Random(3)
    for char in (Char.ZERO, Char.TWO):
        for _ in range(10):
            matrix = [
                [
                    Poly(
                        2,
                        char,
                        {
                            (rng.randint(0, 1), rng.randint(0, 1)): rng.choice((1, -1, 0))
                            for _ in range(2)
                        },
                    )
                    for _ in range(3)
                ]
                for _ in range(3)
            ]
            assert bareiss_det(matrix) == _naive_det(matrix)


def test_bareiss_rank_and_evaluation_agree():
    t1, t2 = _p("t1"), _p("t2")
    one, zero = _p("1"), _p("0")
    cases = [
        ([[t1, t2], [t2, t1]], 2),
        ([[t1, t1 * t2], [one, t2]], 1),
        ([[zero, zero], [zero, zero]], 0),
        ([[t1 * t1, t1 * t2], [t1 * t2, t2 * t2]], 1),
    ]
    rng = random.Random(5)
    for matrix, expected in cases:
        assert bareiss_rank([row[:] for row in matrix]) == expected
        assert evaluation_rank(matrix, Char.ZERO, rng) == expected


def test_kernel_vector_dependent_columns():
    t1, t2 = _p("t1"), _p("t2")
    one = _p("1")
    matrix = [[t1, t1 * t2], [one, t2]]
    vec = kernel_vector(matrix)
    assert vec is not None
    for row in matrix:
        acc = Poly.zero(2, Char.ZERO)
        for entry, v in zip(row, vec):
            acc = acc + entry * v
        assert acc.is_zero()


def test_kernel_vector_zero_column_is_unit():
    t1 = _p("t1")
    zero = _p("0")
    matrix = [[t1, zero], [zero, zero]]
    vec = kernel_vector(matrix)
    assert vec[0].is_zero() and not vec[1].is_zero()


def test_kernel_vector_full_rank_none():
    t1, t2 = _p("t1"), _p("t2")
    assert kernel_vector([[t1, t2], [t2, t1]]) is None


def _cramer_kernel_vector(matrix):
    """Reference kernel vector from Cramer minors: over the echelon's pivot rows,
    the smallest non-pivot column gets the pivot-column minor and each pivot
    column minus the minor with itself swapped for that free column."""
    ncols = len(matrix[0])
    k, row_perm, col_perm, *_ = _bareiss_echelon(matrix)
    if k == ncols:
        return None
    sample = matrix[0][0]
    pivot_rows, pivot_cols = row_perm[:k], col_perm[:k]
    free_col = min(set(range(ncols)) - set(pivot_cols))

    def minor(cols):
        if not cols:
            return Poly.one(sample.nvars, sample.char)
        return bareiss_det([[matrix[r][c] for c in cols] for r in pivot_rows])

    vec = [Poly.zero(sample.nvars, sample.char) for _ in range(ncols)]
    vec[free_col] = minor(pivot_cols)
    for pos, col in enumerate(pivot_cols):
        swapped = list(pivot_cols)
        swapped[pos] = free_col
        vec[col] = -minor(swapped)
    return vec


@pytest.mark.parametrize("char", [Char.ZERO, Char.TWO])
def test_kernel_vector_matches_cramer_minors(char):
    rng = random.Random(47)
    zero = Poly.zero(3, char)
    matrices = [[[zero] * 3 for _ in range(2)]]  # all zero
    matrices.append([[Poly.variable(3, char, 1), zero], [Poly.one(3, char), zero]])  # zero column
    matrices += [_random_sparse_matrix(rng, char) for _ in range(80)]
    deficient = 0
    for matrix in matrices:
        expected = _cramer_kernel_vector(matrix)
        deficient += expected is not None
        assert kernel_vector(matrix) == expected
    assert deficient >= 20


def test_evaluation_rank_char2():
    t1 = Poly.variable(2, Char.TWO, 1)
    t2 = Poly.variable(2, Char.TWO, 2)
    one = Poly.one(2, Char.TWO)
    rng = random.Random(11)
    assert evaluation_rank([[t1, t2], [t2, t1]], Char.TWO, rng) == 2
    # dependent over F2(t): second column is t2/t1 times the first
    assert evaluation_rank([[t1, t2], [t1 * t1, t1 * t2]], Char.TWO, rng) == 1
    assert bareiss_rank([[t1, t2], [t1 * t1, t1 * t2]]) == 1
    assert evaluation_rank([[one]], Char.TWO, rng) == 1


def _random_entry(rng, nvars, char):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        mono = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[mono] = 1 if char is Char.TWO else rng.choice((1, -1, 2))
    return Poly(nvars, char, terms)


def _random_sparse_matrix(rng, char, nvars=3):
    """Sparse polynomial matrix, possibly with zero rows and columns and
    rows that are polynomial combinations of earlier rows."""
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    zero = Poly.zero(nvars, char)
    matrix = [
        [_random_entry(rng, nvars, char) if rng.random() < 0.4 else zero for _ in range(ncols)]
        for _ in range(nrows)
    ]
    for i in range(1, nrows):
        if rng.random() < 0.3:  # planted deficiency
            row = [zero] * ncols
            for k in rng.sample(range(i), rng.randint(1, i)):
                q = _random_entry(rng, nvars, char)
                row = [a + q * b for a, b in zip(row, matrix[k])]
            matrix[i] = row
    if rng.random() < 0.3:
        matrix[rng.randrange(nrows)] = [zero] * ncols
    if rng.random() < 0.3:
        col = rng.randrange(ncols)
        for row in matrix:
            row[col] = zero
    return matrix


@pytest.mark.parametrize("char", [Char.ZERO, Char.TWO])
def test_evaluation_rank_matches_exact_rank(char):
    rng = random.Random(41)
    deficient = 0
    for _ in range(60):
        matrix = _random_sparse_matrix(rng, char)
        expected = bareiss_rank(matrix)
        deficient += expected < min(len(matrix), len(matrix[0]))
        assert evaluation_rank(matrix, char, rng) == expected
    assert deficient >= 10  # the planted dependencies are exercised


@pytest.mark.parametrize("char", [Char.ZERO, Char.TWO])
def test_evaluation_rank_draw_order(char):
    """Per trial: a random prime (characteristic 0), then one nonzero field
    element per variable; a deficient rank draws all EVALUATION_TRIALS
    trials, a full rank stops after the first."""
    nvars = 3
    t1, t2, t3 = (Poly.variable(nvars, char, i) for i in (1, 2, 3))
    deficient = [[t1, t2], [t1 * t3, t2 * t3]]
    full = [[t1, t2], [t2, t3]]

    def replay(seed, trials):
        rng = random.Random(seed)
        for _ in range(trials):
            top = random_prime(31, rng) if char is Char.ZERO else 1 << 32
            for _ in range(nvars):
                rng.randrange(1, top)
        return rng.getstate()

    assert EVALUATION_TRIALS == 5  # the draws of every seeded run depend on it
    rng = random.Random(43)
    assert evaluation_rank(deficient, char, rng) == 1
    assert rng.getstate() == replay(43, EVALUATION_TRIALS)
    rng = random.Random(47)
    assert evaluation_rank(full, char, rng) == 2
    assert rng.getstate() == replay(47, 1)
