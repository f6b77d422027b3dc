from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from koszulrank.polynomials import (
    Char,
    Poly,
    UndefinedDegreeError,
    UnluckyPrimeError,
    add_into,
    add_scaled,
    monomials_of_degree,
    poly_divexact,
    power_tables,
    scale_map,
)
from koszulrank.linalg import PrimeField

from strategies import chars, polys


def t(i, nvars=2, char=Char.ZERO):
    return Poly.variable(nvars, char, i)


def test_monomial_product():
    assert t(1) * t(1) == Poly.monomial(2, Char.ZERO, (2, 0))


def test_char2_cross_terms_cancel():
    a = t(1, char=Char.TWO) + t(2, char=Char.TWO)
    assert a * a == Poly(2, Char.TWO, {(2, 0): 1, (0, 2): 1})


def test_difference_of_squares():
    one = Poly.one(1, Char.ZERO)
    x = Poly.variable(1, Char.ZERO, 1)
    assert (x + one) * (x - one) == Poly(1, Char.ZERO, {(2,): 1, (0,): -1})


def test_graded_degree_conventions():
    p = Poly.monomial(2, Char.TWO, (2, 1))
    assert p.graded_degree() == 3
    q = Poly.monomial(2, Char.ZERO, (2, 1))
    assert q.graded_degree() == 6


def test_graded_degree_nonhomogeneous_and_zero():
    mixed = t(1) + Poly.monomial(2, Char.ZERO, (0, 2))
    assert mixed.graded_degree() is None
    with pytest.raises(UndefinedDegreeError):
        Poly.zero(2, Char.ZERO).graded_degree()


def eval_mod(p, point, prime):
    """Value of a characteristic-0 polynomial at a point of F_prime, through
    PrimeField.evaluate on power tables up to each variable's top exponent."""
    field = PrimeField(prime)
    tops = [max((mono[i] for mono in p.terms), default=0) for i in range(p.nvars)]
    return field.evaluate(p, power_tables(point, tops, field.mul))


def test_eval_examples():
    assert eval_mod(t(1) * t(2), [2, 3], 10007) == 6
    assert eval_mod(Poly.zero(2, Char.ZERO), [5, 7], 10007) == 0
    half = Poly(1, Char.ZERO, {(1,): Fraction(1, 2)})
    assert eval_mod(half, [4], 10007) == 2


def test_eval_unlucky_prime():
    half = Poly(1, Char.ZERO, {(1,): Fraction(1, 2)})
    with pytest.raises(UnluckyPrimeError):
        eval_mod(half, [1], 2)


def test_nvars_mismatch():
    with pytest.raises(ValueError):
        t(1, nvars=2) * t(1, nvars=3)


def test_char_mismatch():
    with pytest.raises(ValueError):
        t(1, char=Char.ZERO) + t(1, char=Char.TWO)


def test_no_zero_coefficients_stored():
    p = Poly(2, Char.ZERO, {(1, 0): 0, (0, 1): 2})
    assert (1, 0) not in p.terms
    assert (t(1) - t(1)).terms == {}


@given(st.data())
def test_ring_axioms(data):
    char = data.draw(chars)
    a = data.draw(polys(nvars=2, char=char))
    b = data.draw(polys(nvars=2, char=char))
    c = data.draw(polys(nvars=2, char=char))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(polys())
def test_add_negate_is_zero(p):
    assert (p + (-p)).terms == {}


@given(polys(nvars=2, char=Char.ZERO), polys(nvars=2, char=Char.ZERO),
       st.lists(st.integers(0, 10**6), min_size=2, max_size=2))
def test_eval_is_ring_homomorphism(a, b, point):
    prime = 10**9 + 7
    lhs = eval_mod(a * b, point, prime)
    rhs = eval_mod(a, point, prime) * eval_mod(b, point, prime) % prime
    assert lhs == rhs
    lhs_add = eval_mod(a + b, point, prime)
    rhs_add = (eval_mod(a, point, prime) + eval_mod(b, point, prime)) % prime
    assert lhs_add == rhs_add


@given(polys())
@settings(max_examples=200)
def test_text_round_trip(p):
    assert Poly.parse(str(p), p.nvars, p.char) == p


def test_text_golden():
    p = Poly(2, Char.ZERO, {(2, 1): 1, (0, 0): Fraction(-1, 2), (1, 0): -3})
    text = str(p)
    assert text == "t1^2*t2 - 3*t1 - 1/2"
    assert Poly.parse(text, 2, Char.ZERO) == p
    assert str(Poly.zero(2, Char.ZERO)) == "0"
    assert Poly.parse("0", 2, Char.TWO).is_zero()


@given(st.data())
def test_divexact_recovers_factor(data):
    char = data.draw(chars)
    a = data.draw(polys(nvars=2, char=char))
    b = data.draw(polys(nvars=2, char=char))
    if b.is_zero():
        return
    assert poly_divexact(a * b, b) == a


def test_divexact_rejects_inexact():
    with pytest.raises(ValueError):
        poly_divexact(t(1), t(2))


@pytest.mark.parametrize("char", [Char.ZERO, Char.TWO])
def test_add_into_inserts_and_drops(char):
    x = t(1, char=char)
    y = t(2, char=char)
    out = {}
    add_into(out, "a", x)
    assert out == {"a": x}
    add_into(out, "b", y)
    add_into(out, "a", y)
    assert out == {"a": x + y, "b": y}
    add_into(out, "b", -y)  # in characteristic 2, -y is y and y + y cancels too
    assert out == {"a": x + y}
    add_into(out, "c", Poly.zero(2, char))
    assert out == {"a": x + y}


@given(st.data())
def test_add_into_never_stores_zero(data):
    char = data.draw(chars)
    out = {}
    expected = {}
    for _ in range(data.draw(st.integers(0, 12))):
        key = data.draw(st.integers(0, 3))
        poly = data.draw(polys(nvars=2, char=char, max_terms=2, max_exp=1))
        add_into(out, key, poly)
        expected[key] = expected.get(key, Poly.zero(2, char)) + poly
        assert all(p.terms for p in out.values())
    assert out == {k: p for k, p in expected.items() if p.terms}


@pytest.mark.parametrize("char", [Char.ZERO, Char.TWO])
def test_scale_map(char):
    coeffs = {"a": t(1, char=char), "b": t(1, char=char) + t(2, char=char)}
    assert scale_map(coeffs, Poly.zero(2, char)) == {}
    factor = t(2, char=char) + Poly.one(2, char)
    assert scale_map(coeffs, factor) == {k: factor * p for k, p in coeffs.items()}
    assert scale_map({}, factor) == {}


@given(st.data())
def test_add_scaled_equals_sequential_add_into(data):
    char = data.draw(chars)
    keyed = st.dictionaries(st.integers(0, 3), polys(nvars=2, char=char, max_terms=2, max_exp=1), max_size=4)
    out = {k: p for k, p in data.draw(keyed).items() if p.terms}
    expected = dict(out)
    coeffs = data.draw(keyed)
    factor = data.draw(polys(nvars=2, char=char, max_terms=2, max_exp=1))
    add_scaled(out, coeffs, factor)
    for key, coeff in coeffs.items():
        add_into(expected, key, factor * coeff)
    assert out == expected
    assert all(p.terms for p in out.values())


@pytest.mark.parametrize("char", [Char.ZERO, Char.TWO])
def test_add_scaled_by_zero_leaves_out_unchanged(char):
    out = {"a": t(1, char=char)}
    add_scaled(out, {"a": t(2, char=char), "b": Poly.one(2, char)}, Poly.zero(2, char))
    assert out == {"a": t(1, char=char)}


def _reference_monomials(nvars, total):
    if nvars == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _reference_monomials(nvars - 1, total - first):
            yield (first,) + rest


@pytest.mark.parametrize("nvars, total", [(1, 0), (1, 4), (2, 3), (3, 0), (3, 4), (4, 5)])
def test_monomials_of_degree(nvars, total):
    monos = monomials_of_degree(nvars, total)
    assert len(monos) == len(set(monos)) == comb(total + nvars - 1, nvars - 1)
    assert all(len(m) == nvars and sum(m) == total for m in monos)
    # basis positions follow this order, and they decide which lift solve_diff returns
    assert list(monos) == list(_reference_monomials(nvars, total))
