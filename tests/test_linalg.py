import random
from fractions import Fraction
from itertools import permutations

import pytest

from koszulrank.linalg import (
    GF2k,
    _bareiss_echelon,
    _is_prime,
    bareiss_det,
    bareiss_rank,
    evaluation_rank,
    field_rank,
    kernel_vector,
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


def test_gf2k_field_axioms():
    field = GF2k(31)
    assert field.modulus == (1 << 31) | (1 << 3) | 1  # x^31 + x^3 + 1
    rng = random.Random(0)
    for _ in range(50):
        a = field.random_nonzero(rng)
        b = field.random_nonzero(rng)
        c = field.random_nonzero(rng)
        assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
        assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)
        assert field.mul(a, field.inv(a)) == 1
    assert field.mul(1, 12345) == 12345
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_gf2k_small_fields():
    # GF(8): x^3 + x + 1; every nonzero element has order dividing 7
    field = GF2k(3)
    for a in range(1, 8):
        assert field.pow(a, 7) == 1


def test_gf2k_inverse_matches_fermat():
    for bits in range(2, 11):
        field = GF2k(bits)
        for a in range(1, field.order):
            assert field.inv(a) == field.pow(a, field.order - 2)
    field = GF2k(31)
    rng = random.Random(31)
    for _ in range(2000):
        a = field.random_nonzero(rng)
        assert field.inv(a) == field.pow(a, field.order - 2)
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


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
    element per variable; a full rank stops after the first trial."""
    nvars = 3
    t1, t2, t3 = (Poly.variable(nvars, char, i) for i in (1, 2, 3))
    deficient = [[t1, t2], [t1 * t3, t2 * t3]]
    full = [[t1, t2], [t2, t3]]

    def replay(seed, trials):
        rng = random.Random(seed)
        for _ in range(trials):
            top = random_prime(31, rng) if char is Char.ZERO else 1 << 31
            for _ in range(nvars):
                rng.randrange(1, top)
        return rng.getstate()

    rng = random.Random(43)
    assert evaluation_rank(deficient, char, rng, trials=4) == 1
    assert rng.getstate() == replay(43, 4)
    rng = random.Random(47)
    assert evaluation_rank(full, char, rng, trials=4) == 2
    assert rng.getstate() == replay(47, 1)
