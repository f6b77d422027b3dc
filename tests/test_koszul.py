import gc
import random
import weakref
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from koszulrank.chain_maps import _faces
from koszulrank.hb_model import elem_to_kelem, koszul_filt_complex
from koszulrank.koszul import (
    ComplexDescriptor,
    KElem,
    default_max_degree,
    merge_index_sets,
    random_homogeneous_kelem,
    random_kelem,
    truncated_homology_dim,
)
from koszulrank.polynomials import Char, Poly, UndefinedDegreeError

from strategies import kelems


D31 = ComplexDescriptor(3, 1, Char.ZERO)


def test_differential_single_generator():
    ds1 = D31.generator((1,)).differential()
    assert ds1 == KElem(D31, {(): D31.t(1, 2)})


def test_differential_pair_signs():
    d = D31.generator((1, 2)).differential()
    assert d == KElem(D31, {(2,): D31.t(1, 2), (1,): -D31.t(2, 2)})


def test_differential_squares_to_zero_on_triple():
    assert D31.generator((1, 2, 3)).differential().differential().is_zero()


def _alternating_boundary(desc, indices):
    """d(s_I) written out: removing the j-th index i gives (-1)^j t_i^(m+1)."""
    terms = []
    for j, i in enumerate(indices):
        exps = [0] * desc.nvars
        exps[i - 1] = desc.level + 1
        sign = 1 if desc.char is Char.TWO else (-1) ** j
        terms.append((indices[:j] + indices[j + 1 :], Poly.monomial(desc.nvars, desc.char, exps, sign)))
    return terms


@pytest.mark.parametrize("char", [Char.ZERO, Char.TWO])
def test_boundary_is_the_alternating_sum(char):
    for n, level in product(range(1, 7), range(3)):
        desc = ComplexDescriptor(n, level, char)
        for indices in desc.index_sets():
            assert desc.boundary(indices) == _alternating_boundary(desc, indices)
            # the point evaluator's table reads the same rule
            assert [(face, (-1) ** odd * desc.t(i + 1, level + 1)) for face, i, odd in _faces(n)[indices]] == (
                desc.boundary(indices))
            assert desc.monomial(indices) == Poly.monomial(
                n, char, [level if i + 1 in indices else 0 for i in range(n)]
            )


def test_descriptors_are_freed_and_compare_by_their_fields():
    desc = ComplexDescriptor(5, 3, Char.ZERO)
    desc.boundary((1, 3, 5))
    assert desc == ComplexDescriptor(5, 3, Char.ZERO)
    assert hash(desc) == hash(ComplexDescriptor(5, 3, Char.ZERO))
    assert repr(desc) == "ComplexDescriptor(nvars=5, level=3, char=<Char.ZERO: 0>)"
    ref = weakref.ref(desc)
    del desc
    gc.collect()
    assert ref() is None  # no cache keeps a descriptor alive


@pytest.mark.parametrize("char", [Char.ZERO, Char.TWO])
@pytest.mark.parametrize("n, level", [(1, 0), (3, 1), (4, 2), (5, 1)])
def test_filtered_koszul_differential_matches_kelem_differential(n, level, char):
    desc = ComplexDescriptor(n, level, char)
    c = koszul_filt_complex(desc)
    for g, indices in enumerate(desc.index_sets()):
        assert elem_to_kelem(c, c.apply_diff(c.gen_elem(g))) == desc.generator(indices).differential()


def test_wedge_ordered_indices():
    assert D31.generator((1,)).wedge(D31.generator((2,))) == D31.generator((1, 2))


def test_wedge_anticommutes_char0():
    assert D31.generator((2,)).wedge(D31.generator((1,))) == -D31.generator((1, 2))


def test_wedge_repeated_index_vanishes():
    assert D31.generator((1,)).wedge(D31.generator((1,))).is_zero()


def test_merge_sign():
    assert merge_index_sets((2,), (1,)) == ((1, 2), -1)
    assert merge_index_sets((1,), (1,)) is None


def test_project_wordlength():
    x = KElem(D31, {(2,): D31.t(1), (1, 2): Poly.one(3, Char.ZERO)})
    assert x.project_wordlength(1) == KElem(D31, {(2,): D31.t(1)})
    assert x.project_wordlength(0).is_zero()


@given(kelems(), st.integers(0, 3))
def test_projection_idempotent(x, length):
    once = x.project_wordlength(length)
    assert once.project_wordlength(length) == once


@given(kelems())
def test_projections_decompose(x):
    total = x.desc.zero()
    for length in range(x.desc.nvars + 1):
        total = total + x.project_wordlength(length)
    assert total == x


@given(kelems())
@settings(max_examples=150)
def test_differential_squares_to_zero(x):
    assert x.differential().differential().is_zero()


@given(kelems())
def test_differential_drops_wordlength_by_one(x):
    lengths = x.wordlengths()
    for term_len in x.differential().wordlengths():
        assert term_len + 1 in lengths


def test_differential_raises_degree_by_one():
    rng = random.Random(0)
    for char in (Char.ZERO, Char.TWO):
        for n, m in product((1, 2, 3), (0, 1, 2)):
            desc = ComplexDescriptor(n, m, char)
            for _ in range(20):
                x = random_homogeneous_kelem(desc, rng)
                dx = x.differential()
                if x.is_zero() or dx.is_zero():
                    continue
                assert dx.graded_degree() == x.graded_degree() + 1


def test_leibniz_rule_seeded():
    rng = random.Random(1)
    for char in (Char.ZERO, Char.TWO):
        for n, m in product((2, 3), (0, 1, 2)):
            desc = ComplexDescriptor(n, m, char)
            for _ in range(30):
                a = random_homogeneous_kelem(desc, rng)
                b = random_kelem(desc, rng)
                if a.is_zero():
                    continue
                sign = -1 if (a.graded_degree() % 2 and char is Char.ZERO) else 1
                lhs = a.wedge(b).differential()
                rhs = a.differential().wedge(b) + a.wedge(b.differential()).scale(
                    Poly.constant(n, char, sign)
                )
                assert lhs == rhs


def test_zero_element_degree_error():
    with pytest.raises(UndefinedDegreeError):
        D31.zero().graded_degree()


def test_descriptor_mismatch():
    other = ComplexDescriptor(3, 0, Char.ZERO)
    with pytest.raises(ValueError):
        D31.one() + other.one()


def test_homology_examples():
    assert sum(truncated_homology_dim(ComplexDescriptor(1, 0, Char.TWO)).values()) == 1
    assert sum(truncated_homology_dim(ComplexDescriptor(2, 1, Char.TWO)).values()) == 4
    assert sum(truncated_homology_dim(ComplexDescriptor(3, 1, Char.ZERO)).values()) == 8


def _quotient_dims(n, m, char):
    """Independent oracle: count monomials with all exponents <= m per degree."""
    td = char.t_degree
    dims = {}
    for exps in product(range(m + 1), repeat=n):
        degree = td * sum(exps)
        dims[degree] = dims.get(degree, 0) + 1
    return dims


def test_homology_per_degree_matches_monomial_count():
    for char in (Char.ZERO, Char.TWO):
        for n, m in product((1, 2, 3), (0, 1, 2)):
            desc = ComplexDescriptor(n, m, char)
            computed = truncated_homology_dim(desc)
            expected = _quotient_dims(n, m, char)
            for degree, dim in computed.items():
                assert dim == expected.get(degree, 0), (n, m, char, degree)


def test_homology_truncation_is_callers_choice():
    desc = ComplexDescriptor(2, 1, Char.TWO)
    partial = truncated_homology_dim(desc, max_degree=1)
    assert set(partial) == {0, 1}
    full = truncated_homology_dim(desc)
    assert max(full) == default_max_degree(desc)


@given(kelems())
@settings(max_examples=150)
def test_kelem_text_round_trip(x):
    assert KElem.parse(str(x), x.desc) == x


def test_kelem_text_golden():
    x = KElem(D31, {(2, 3): Poly.parse("t1^2*t2", 3, Char.ZERO)})
    assert str(x) == "t1^2*t2 * s{2,3}"
    y = x + D31.one()
    assert str(y) == "1 * s{} + t1^2*t2 * s{2,3}"
    assert KElem.parse(str(y), D31) == y
    assert str(D31.zero()) == "0"
    assert KElem.parse("0", D31).is_zero()
