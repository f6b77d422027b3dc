"""Oracle tests for the random draws of the package.

The cold draws (``random_kelem``, ``random_homogeneous_kelem``,
``random_monomial`` and ``cancellation.random_coeffs``) call
``random.Random``'s own methods.  The one hot loop,
``chain_maps._draw_terms``, which makes a homotopy's draws, reads
``rng.getrandbits`` itself and copies CPython's ``randrange``, ``choice``
and ``sample`` algorithms.  The reference functions below are the
``random.py``-based bodies of the draw sites; fixed-seed output stays
byte-identical only while the package makes exactly their draws.  The
comparison runs against this interpreter's ``random`` module, so a CPython
that changes ``randrange``, ``choice`` or ``sample`` fails here before it
silently changes a golden.
"""

import ast
import random
from itertools import product
from pathlib import Path

import pytest

import koszulrank
from koszulrank.cancellation import random_coeffs
from koszulrank.chain_maps import GradingMode, _draw_terms, random_homotopy
from koszulrank.cli import MAX_N
from koszulrank.koszul import (
    ComplexDescriptor,
    KElem,
    disjoint_blocks,
    random_homogeneous_kelem,
    random_kelem,
    random_monomial,
)
from koszulrank.polynomials import Char, Poly, add_into

SEEDS = (0, 1, 2)
GRADINGS = (None, GradingMode.FULL, GradingMode.PARITY)


# ---------------------------------------------------------------------------
# the reference draw sites, made through random.py
# ---------------------------------------------------------------------------


def reference_random_monomial(rng, nvars, total):
    exps = [0] * nvars
    for _ in range(total):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def reference_random_term(rng, desc, word_degree, grading):
    n = desc.nvars
    char = desc.char
    target = word_degree - 1
    s0 = char.s_degree(0)
    cap = 2 * (desc.level + 1)
    if grading is GradingMode.FULL:
        if char is Char.TWO:
            if target < 0:
                return None
            size = rng.randint(0, n)
            tdeg = target
        else:
            sizes = [k for k in range(n + 1) if k <= target and (target - k) % 2 == 0]
            if not sizes:
                return None
            size = rng.choice(sizes)
            tdeg = (target - size) // 2
    elif grading is GradingMode.PARITY:
        if char is Char.TWO:
            size = rng.randint(0, n)
            tdeg = rng.randrange(0, cap)
            if (tdeg - target) % 2:
                tdeg += 1
        else:
            size = rng.randint(0, n)
            if (size * s0 - target) % 2:
                size = size + 1 if size < n else size - 1
            tdeg = rng.randrange(0, cap)
    else:
        size = rng.randint(0, n)
        tdeg = rng.randrange(0, cap)
    jset = tuple(sorted(rng.sample(range(1, n + 1), size)))
    return jset, reference_random_monomial(rng, n, tdeg)


def reference_homotopy_draws(source, rng, grading=None, max_terms=3):
    two = source.char is Char.TWO
    sd = source.s_degree
    draws = {}
    for indices in source.index_sets():
        if not indices:
            continue
        terms = []
        for _ in range(rng.randint(0, max_terms)):
            term = reference_random_term(rng, source, sd * len(indices), grading)
            if term is None:
                continue
            jset, mono = term
            terms.append((jset, mono, 1 if two else rng.choice((1, -1))))
        if terms:
            draws[indices] = terms
    return draws


def reference_random_kelem(desc, rng, max_terms=4, max_exp=2):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        size = rng.randint(0, desc.nvars)
        indices = tuple(sorted(rng.sample(range(1, desc.nvars + 1), size)))
        mono = tuple(rng.randint(0, max_exp) for _ in range(desc.nvars))
        coeff = 1 if desc.char is Char.TWO else rng.choice((1, -1, 2))
        add_into(coeffs, indices, Poly.monomial(desc.nvars, desc.char, mono, coeff))
    return KElem(desc, coeffs)


def reference_random_homogeneous_kelem(desc, rng, max_terms=3, max_exp=2):
    size = rng.randint(0, desc.nvars)
    tdeg = rng.randint(0, max_exp * 2)
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        indices = tuple(sorted(rng.sample(range(1, desc.nvars + 1), size)))
        mono = reference_random_monomial(rng, desc.nvars, tdeg)
        coeff = 1 if desc.char is Char.TWO else rng.choice((1, -1))
        add_into(coeffs, indices, Poly.monomial(desc.nvars, desc.char, mono, coeff))
    return KElem(desc, coeffs)


def reference_random_coeffs(n, m, char, rng):
    triples = disjoint_blocks(n)
    while True:
        coeffs = {}
        for triple in triples:
            terms = {}
            for _ in range(rng.randint(0, 2)):
                mono = tuple(rng.randint(0, m + 1) for _ in range(n))
                terms[mono] = 1 if char is Char.TWO else rng.choice((1, -1))
            coeffs[triple] = Poly(n, char, terms)
        if any(p.terms for p in coeffs.values()):
            return {t: p for t, p in coeffs.items() if p.terms}


def _twins(seed):
    return random.Random(seed), random.Random(seed)


# ---------------------------------------------------------------------------
# the draw sites against their references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 10))
def test_homotopy_draws_match_random_py(n):
    for m, char, grading, seed in product(range(3), (Char.ZERO, Char.TWO), GRADINGS, SEEDS):
        source = ComplexDescriptor(n, m, char)
        ours, theirs = _twins(seed)
        h = random_homotopy(source, ours, grading=grading)
        assert h.draws == reference_homotopy_draws(source, theirs, grading), (m, char, grading, seed)
        assert ours.getstate() == theirs.getstate(), (m, char, grading, seed)


@pytest.mark.parametrize("n", range(10, MAX_N + 1))
def test_homotopy_draws_match_random_py_up_to_the_cli_maximum(n):
    # one seed per (char, grading); the level cycles through 0, 1 and 2
    for k, (char, grading) in enumerate(product((Char.ZERO, Char.TWO), GRADINGS)):
        source = ComplexDescriptor(n, k % 3, char)
        ours, theirs = _twins(k)
        h = random_homotopy(source, ours, grading=grading)
        assert h.draws == reference_homotopy_draws(source, theirs, grading), (char, grading)
        assert ours.getstate() == theirs.getstate(), (char, grading)


def test_term_draws_above_the_pool_threshold_match_random_py():
    # populations above 21 take CPython's sample branches through rng.sample
    for nvars, seed in product((22, 40, 90), SEEDS):
        ours, theirs = _twins(seed)
        tables = [(range(nvars + 1), range(4)), ([(k, 2) for k in range(0, nvars + 1, 3)], None), None]
        slots = [(k, tables[k % 3]) for k in range(12)]
        draws = _draw_terms(ours, slots, 3, nvars, signed=True)
        expected = {}
        for key, table in slots:
            count = theirs.randint(0, 3)
            if table is None or not count:
                continue
            sizes, tdegs = table
            terms = expected[key] = []
            for _ in range(count):
                size, tdeg = theirs.choice(sizes) if tdegs is None else (theirs.choice(sizes), theirs.choice(tdegs))
                jset = tuple(sorted(theirs.sample(range(1, nvars + 1), size)))
                terms.append((jset, reference_random_monomial(theirs, nvars, tdeg), theirs.choice((1, -1))))
        assert draws == expected, (nvars, seed)
        assert ours.getstate() == theirs.getstate(), (nvars, seed)


@pytest.mark.parametrize("max_terms", [0, 1, 5])
def test_homotopy_draws_match_random_py_at_other_term_caps(max_terms):
    for n, grading, seed in product((3, 6), GRADINGS, SEEDS):
        source = ComplexDescriptor(n, 1, Char.ZERO)
        ours, theirs = _twins(seed)
        h = random_homotopy(source, ours, grading=grading, max_terms=max_terms)
        assert h.draws == reference_homotopy_draws(source, theirs, grading, max_terms)
        assert ours.getstate() == theirs.getstate()


def test_element_and_coefficient_draws_match_random_py():
    for n, m, char, seed in product(range(1, 10), range(3), (Char.ZERO, Char.TWO), SEEDS):
        desc = ComplexDescriptor(n, m, char)
        ours, theirs = _twins(seed)
        assert random_kelem(desc, ours) == reference_random_kelem(desc, theirs)
        assert random_kelem(desc, ours, max_terms=6, max_exp=0) == reference_random_kelem(desc, theirs, 6, 0)
        assert random_homogeneous_kelem(desc, ours) == reference_random_homogeneous_kelem(desc, theirs)
        assert random_monomial(ours, n, 2 * m + 3) == reference_random_monomial(theirs, n, 2 * m + 3)
        if n >= 3:
            assert random_coeffs(n, m, char, ours) == reference_random_coeffs(n, m, char, theirs)
        assert ours.getstate() == theirs.getstate(), (n, m, char, seed)


# ---------------------------------------------------------------------------
# empty ranges raise instead of redrawing forever
# ---------------------------------------------------------------------------


class _BoundedRandom(random.Random):
    """A generator that fails the test instead of hanging after too many draws."""

    def getrandbits(self, k):
        self.calls = getattr(self, "calls", 0) + 1
        assert self.calls < 1000, "drawing without end"
        return super().getrandbits(k)


@pytest.mark.parametrize("seed", SEEDS)
def test_negative_term_caps_raise_at_once(seed):
    desc = ComplexDescriptor(3, 1, Char.ZERO)
    with pytest.raises(ValueError):
        random_homotopy(desc, _BoundedRandom(seed), max_terms=-1)
    with pytest.raises(ValueError):
        random_kelem(desc, _BoundedRandom(seed), max_terms=-1)
    with pytest.raises(ValueError):
        random_kelem(desc, _BoundedRandom(seed), max_exp=-1)
    with pytest.raises(ValueError):
        random_homogeneous_kelem(desc, _BoundedRandom(seed), max_terms=0)


def test_monomials_of_no_variables_match_random_py():
    ours, theirs = _twins(0)
    assert random_monomial(ours, 0, 0) == reference_random_monomial(theirs, 0, 0) == ()
    for rng, draw in ((ours, random_monomial), (theirs, reference_random_monomial)):
        with pytest.raises(ValueError):
            draw(rng, 0, 1)


# ---------------------------------------------------------------------------
# one copy of CPython's draw algorithm
# ---------------------------------------------------------------------------


def _getrandbits_readers(node, scope, readers):
    """Add to ``readers`` the qualified name of each scope under ``node`` that reads ``.getrandbits``."""
    if isinstance(node, ast.Attribute) and node.attr == "getrandbits":
        readers.add(".".join(scope))
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = [*scope, node.name]
    for child in ast.iter_child_nodes(node):
        _getrandbits_readers(child, scope, readers)
    return readers


def test_only_the_homotopy_term_loop_reads_getrandbits():
    # every other draw goes through random.Random's own methods, so the
    # package holds one hand copy of CPython's draw algorithm
    readers = set()
    for path in Path(koszulrank.__file__).parent.glob("*.py"):
        _getrandbits_readers(ast.parse(path.read_text()), [path.stem], readers)
    assert readers == {"chain_maps._draw_terms"}
