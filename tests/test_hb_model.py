import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from koszulrank import hb_model
from koszulrank.chain_maps import RankMethod, iota, rank, verify_chain_map
from koszulrank.certificates import bound_report
from koszulrank.hb_model import (
    ComplexMap,
    FiltComplex,
    Generator,
    TruncationError,
    VanishingHypothesisError,
    compose_to_gamma,
    construct_alpha,
    default_truncation,
    identity_map,
    koszul_filt_complex,
    linear_forms_koszul_complex,
    rank_two_model,
    shuffled_complex,
    twisted_two_var_model,
    verify_alpha,
    verify_beta,
    verify_filtration,
)
from koszulrank.koszul import ComplexDescriptor, faces
from koszulrank.polynomials import Char, Poly, add_into


def _complex_map_of(g, source_filt, target_filt):
    """View a generator-image chain map as a map of filtered complexes."""
    images = []
    for indices in source_filt.koszul_descriptor.index_sets():
        img = g.images[indices]
        position = {s: i for i, s in enumerate(target_filt.koszul_descriptor.index_sets())}
        images.append({position[jset]: poly for jset, poly in img.coeffs.items()})
    return ComplexMap(source_filt, target_filt, images)


# ---------------------------------------------------------------------------
# filtration verification
# ---------------------------------------------------------------------------


def test_koszul_word_length_filtration_passes():
    for desc in (ComplexDescriptor(3, 0, Char.ZERO), ComplexDescriptor(2, 2, Char.TWO)):
        report = verify_filtration(koszul_filt_complex(desc))
        assert report.passed, report.violations


def test_level_violation_is_reported():
    bad = FiltComplex(
        1,
        Char.ZERO,
        [Generator("1", 0, 0), Generator("a", 1, 1), Generator("b", 2, 1)],
        {2: [(1, Poly.variable(1, Char.ZERO, 1))]},
        [1, 0, 0],
    )
    report = verify_filtration(bad)
    assert not report.lowering_ok
    assert any("level" in v for v in report.violations)


def test_differential_must_have_degree_one():
    with pytest.raises(ValueError, match="degree"):
        FiltComplex(
            1,
            Char.ZERO,
            [Generator("1", 0, 0), Generator("a", 2, 1)],
            {1: [(0, Poly.variable(1, Char.ZERO, 1))]},  # deg t1 = 2, but d must raise degree by 1
            [1, 0],
        )


def test_zero_differential_passes_lowering():
    c = FiltComplex(1, Char.ZERO, [Generator("1", 0, 0)], {}, [1])
    report = verify_filtration(c)
    assert report.passed


def test_d_squared_violation_detected():
    t = Poly.variable(1, Char.ZERO, 1)
    bad = FiltComplex(
        1,
        Char.ZERO,
        [Generator("1", 0, 0), Generator("a", 1, 1), Generator("b", 2, 2)],
        {1: [(0, t)], 2: [(1, t)]},
        [1, 0, 0],
    )
    report = verify_filtration(bad)
    assert not report.d_squared_ok


def test_fixture_models_pass():
    assert verify_filtration(rank_two_model(1, Char.TWO)).passed
    assert verify_filtration(rank_two_model(0, Char.ZERO)).passed
    for char in (Char.ZERO, Char.TWO):
        assert verify_filtration(twisted_two_var_model(char)).passed


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


def _counting_field_rank(monkeypatch) -> list:
    calls = []
    field_rank = hb_model.field_rank

    def counting(rows, char):
        calls.append(char)
        return field_rank(rows, char)

    monkeypatch.setattr(hb_model, "field_rank", counting)
    return calls


def _degree_minus_one_complex(char) -> FiltComplex:
    # d(w) = a with w in degree -1, so a is a boundary and H^0 is spanned by 1
    gens = [Generator("1", 0, 0), Generator("a", 0, 0), Generator("w", -1, 1)]
    return FiltComplex(1, char, gens, {2: [(1, Poly.one(1, char))]}, [1, 0, 0])


@pytest.mark.parametrize("char", list(Char))
def test_homology_counts_boundaries_from_degree_minus_one(char):
    c = _degree_minus_one_complex(char)
    assert verify_filtration(c).passed
    for complex_ in (c, FiltComplex.from_json(c.to_json())):
        assert complex_.homology_dims(3)[0] == 1


@pytest.mark.parametrize("char", list(Char))
def test_verify_alpha_reuses_the_ranks_of_construct_alpha(monkeypatch, char):
    c = koszul_filt_complex(ComplexDescriptor(2, 0, char))
    alpha = construct_alpha(c, 1)
    calls = _counting_field_rank(monkeypatch)
    assert verify_alpha(alpha).passed
    assert calls == []


@pytest.mark.parametrize("char", list(Char))
def test_homology_dims_in_any_call_order_matches_a_fresh_complex(char):
    desc = ComplexDescriptor(2, 1, char)
    top = default_truncation(desc.nvars, desc.level, char)
    c = koszul_filt_complex(desc)
    for max_degree in (3, top, 2, top + 2):
        assert c.homology_dims(max_degree) == koszul_filt_complex(desc).homology_dims(max_degree)


def test_warm_ranks_do_not_hide_a_hypothesis_failure():
    c = koszul_filt_complex(ComplexDescriptor(2, 1, Char.ZERO))
    c.homology_dims(1)
    report = verify_alpha(identity_map(c))
    assert not report.hypothesis_ok and not report.passed


def test_copies_of_a_complex_rank_their_own_degrees(monkeypatch):
    c = koszul_filt_complex(ComplexDescriptor(2, 0, Char.TWO))
    calls = _counting_field_rank(monkeypatch)
    dims = c.homology_dims(4)
    ranked = len(calls)
    assert ranked
    shuffled, _ = shuffled_complex(c, random.Random(3))
    for copy in (shuffled, FiltComplex.from_json(c.to_json())):
        calls.clear()
        assert copy.homology_dims(4) == dims
        assert len(calls) == ranked  # every strand ranked again, none taken from c


def _counting_degree_piece(monkeypatch) -> list:
    calls = []
    degree_piece = FiltComplex.degree_piece

    def counting(self, degree):
        calls.append(degree)
        return degree_piece(self, degree)

    monkeypatch.setattr(FiltComplex, "degree_piece", counting)
    return calls


def _without_strands(c: FiltComplex, run, monkeypatch):
    """run(copy) on a fresh copy of c with the strand path switched off."""
    copy = FiltComplex(c.nvars, c.char, c.generators, c.diff, c.augmentation)
    with monkeypatch.context() as patch:
        patch.setattr(FiltComplex, "_multidegrees", None)
        return run(copy)


def _eliminated_dims(c: FiltComplex, max_degree: int, monkeypatch) -> dict:
    """homology_dims of a fresh copy of c with the strand path switched off."""
    return _without_strands(c, lambda copy: copy.homology_dims(max_degree), monkeypatch)


def _monomial_koszul_complex(monomials, char) -> FiltComplex:
    """The Koszul complex of a sequence of monomials f_1, ..., f_k (exponent tuples).

    s_I has degree sum_(i in I) (t_degree |f_i| - 1) and level |I|, and
    d(s_I) = sum_j (-1)^j f_(I_j) s_(I without I_j), so the multidegree of
    s_I is sum_(i in I) f_i: its coordinates take uneven steps and many cuts.
    """
    nvars, td = len(monomials[0]), char.t_degree
    k = len(monomials)
    index_sets = [s for size in range(k + 1) for s in combinations(range(1, k + 1), size)]
    position = {s: i for i, s in enumerate(index_sets)}
    gens = [
        Generator(f"s{list(s)}", sum(td * sum(monomials[i - 1]) - 1 for i in s), len(s))
        for s in index_sets
    ]
    diff = {}
    for s in index_sets:
        entries = []
        for face, i, odd in faces(s):
            f = Poly.monomial(nvars, char, monomials[i])
            entries.append((position[face], -f if odd else f))
        diff[position[s]] = entries
    return FiltComplex(nvars, char, gens, diff, [1] + [0] * (len(index_sets) - 1))


# sequences whose multidegree coordinates have three or more cuts and uneven
# widths, so classes with equal least |b| and height count their strands differently
MONOMIAL_SEQUENCES = [
    [(1, 1), (0, 3), (2, 0)],  # t1 t2, t2^3, t1^2
    [(1, 0), (0, 2), (3, 1)],  # t1, t2^2, t1^3 t2
    [(2, 0, 1), (0, 1, 2), (1, 3, 0), (0, 0, 1)],
    [(1, 2, 0), (3, 0, 0), (0, 1, 1)],
]


def _homology_fixtures(char):
    rng = random.Random(11)
    koszul = [
        koszul_filt_complex(ComplexDescriptor(n, m, char))
        for n in range(1, 5)
        for m in range(3)
    ]
    return (
        koszul
        + [shuffled_complex(c, rng)[0] for c in koszul]
        + [rank_two_model(m, char) for m in range(3)]
        + [twisted_two_var_model(char), _degree_minus_one_complex(char)]
        + [_monomial_koszul_complex(monomials, char) for monomials in MONOMIAL_SEQUENCES]
    )


@pytest.mark.parametrize("char", list(Char))
def test_strands_and_elimination_give_the_same_homology(monkeypatch, char):
    pieces = _counting_degree_piece(monkeypatch)
    for c in _homology_fixtures(char):
        max_degree = default_truncation(c.nvars, 1, char) + 1
        assert c._multidegrees is not None
        pieces.clear()
        dims = c.homology_dims(max_degree)
        assert pieces == []  # ranked by strands
        assert dims == _eliminated_dims(c, max_degree, monkeypatch)
        assert pieces  # the reference eliminated degree pieces


@pytest.mark.parametrize("char", list(Char))
def test_complex_that_is_not_multigraded_falls_back_to_elimination(monkeypatch, char):
    c = linear_forms_koszul_complex(3, char)
    assert verify_filtration(c).passed
    assert c._multidegrees is None
    pieces = _counting_degree_piece(monkeypatch)
    max_degree = default_truncation(3, 1, char)
    dims = c.homology_dims(max_degree)
    assert pieces == list(range(-1, max_degree + 1))
    assert dims == koszul_filt_complex(ComplexDescriptor(3, 0, char)).homology_dims(max_degree)


@pytest.mark.parametrize("char", list(Char))
def test_monomials_that_disagree_around_a_cycle_are_not_multigraded(monkeypatch, char):
    # d(x) = t1 u + t1 v and d(y) = t1 u + t2 v: the walk x -> u -> y -> v -> x
    # asks for mdeg(v) + e1 = mdeg(x) = mdeg(y) = mdeg(v) + e2
    t1, t2 = Poly.variable(2, char, 1), Poly.variable(2, char, 2)
    sd = char.s_degree(0)
    gens = [Generator("u", 0, 0), Generator("v", 0, 0), Generator("x", sd, 1), Generator("y", sd, 1)]
    c = FiltComplex(2, char, gens, {2: [(0, t1), (1, t1)], 3: [(0, t1), (1, t2)]}, [1, 0, 0, 0])
    assert verify_filtration(c).passed
    assert c._multidegrees is None
    pieces = _counting_degree_piece(monkeypatch)
    dims = c.homology_dims(4)
    assert pieces == list(range(-1, 5))
    assert dims[0] == 2  # u and v: d(x) and d(y) are independent, so no cocycle among x, y


@pytest.mark.parametrize("char", list(Char))
def test_degree_piece_holds_exactly_the_coefficients_of_d(char):
    complexes = [
        linear_forms_koszul_complex(3, char),
        linear_forms_koszul_complex(4, char),
        shuffled_complex(koszul_filt_complex(ComplexDescriptor(3, 1, char)), random.Random(17))[0],
        twisted_two_var_model(char),
    ]
    for c in complexes:
        for degree in range(-1, 7):
            basis, equations = c.degree_piece(degree)
            assert basis == c.basis_at(degree)
            key = c._coordinate_key(degree + 1)
            expected: dict = {}
            for j, (mono, g) in enumerate(basis):
                image = c.apply_diff({g: Poly.monomial(c.nvars, char, mono)})
                for row, poly in image.items():
                    for pm, coeff in poly.terms.items():
                        expected.setdefault(key(pm, row), {})[j] = coeff
            assert equations == expected


def _texts(solutions) -> list:
    """Solutions (element dicts, or None) in printed form, generators in order."""
    return [
        None if x is None else sorted((g, str(poly)) for g, poly in x.items())
        for x in solutions
    ]


def _lifting_fixtures(char):
    """(target, m) pairs that construct_alpha lifts into."""
    rng = random.Random(13)
    koszul = [koszul_filt_complex(ComplexDescriptor(n, 0, char)) for n in range(1, 5)]
    targets = koszul + [shuffled_complex(c, rng)[0] for c in koszul]
    # H(rank_two_model(k)) lives in degrees 0..k * t_degree
    return [(c, m) for c in targets for m in (1, 2)] + [
        (rank_two_model(k, char), k * char.t_degree) for k in range(3)
    ]


@pytest.mark.parametrize("char", list(Char))
def test_strand_lifting_matches_elimination(monkeypatch, char):
    pieces = _counting_degree_piece(monkeypatch)
    for c, m in _lifting_fixtures(char):
        pieces.clear()
        alpha = construct_alpha(c, m)
        assert pieces == []  # every solve, the unit cocycle's too, stayed in one strand
        reference = _without_strands(c, lambda copy: construct_alpha(copy, m), monkeypatch)
        assert pieces  # the reference solved degree pieces
        assert alpha.images == reference.images
        assert _texts(alpha.images) == _texts(reference.images)


@pytest.mark.parametrize("char", list(Char))
def test_strand_solves_match_elimination(monkeypatch, char):
    # the twisted model never lifts, so pose its equations directly: the
    # unit cocycle, d of each coordinate (solvable) and each coordinate itself
    targets = [c for c, _ in _lifting_fixtures(char)] + [twisted_two_var_model(char)]
    for c in targets:
        problems = [(0, {}, 1)]
        for degree in range(-1, 2 + char.t_degree):
            for mono, g in c.basis_at(degree):
                coordinate = {g: Poly.monomial(c.nvars, char, mono)}
                problems.append((degree, c.apply_diff(coordinate), None))
                problems.append((degree - 1, coordinate, None))

        def solve(complex_, problems=problems):
            return [complex_.solve_diff(*problem) for problem in problems]

        solutions = solve(c)
        assert _texts(solutions) == _texts(_without_strands(c, solve, monkeypatch))
        for (_, rhs, _), x in zip(problems[1:], solutions[1:]):
            assert x is None or c.apply_diff(x) == rhs


@pytest.mark.parametrize("char", list(Char))
def test_rhs_spanning_two_strands_falls_back_to_the_degree_piece(monkeypatch, char):
    c = koszul_filt_complex(ComplexDescriptor(2, 0, char))  # 1, s1, s2, s12
    t1, t2 = Poly.variable(2, char, 1), Poly.variable(2, char, 2)
    degree = c.generators[1].degree + char.t_degree
    parts = [c.apply_diff({1: t1}), c.apply_diff({2: t2})]  # strands 2e1 and 2e2
    rhs = c.apply_diff({1: t1, 2: t2})
    pieces = _counting_degree_piece(monkeypatch)
    solution = c.solve_diff(degree, rhs)
    assert pieces == [degree]
    assert c.apply_diff(solution) == rhs
    reference = _without_strands(c, lambda copy: copy.solve_diff(degree, rhs), monkeypatch)
    assert _texts([solution]) == _texts([reference])
    pieces.clear()
    summed: dict = {}
    for part in parts:  # the degree's matrix is block-diagonal by strand
        for g, poly in c.solve_diff(degree, part).items():
            add_into(summed, g, poly)
    assert pieces == []
    assert summed == solution


@pytest.mark.parametrize("char", list(Char))
def test_augmentation_spanning_two_strands_falls_back_to_the_degree_piece(monkeypatch, char):
    # 1 and v both augment to 1, and d(e) = t1 1 - t2 v puts them in the
    # strands of multidegrees (0, 1) and (1, 0)
    t1, t2 = Poly.variable(2, char, 1), Poly.variable(2, char, 2)
    gens = [Generator("1", 0, 0), Generator("v", 0, 0), Generator("e", char.s_degree(0), 1)]
    c = FiltComplex(2, char, gens, {2: [(0, t1), (1, -t2)]}, [1, 1, 0])
    assert c._multidegrees == [(0, 1), (1, 0), (1, 1)]
    pieces = _counting_degree_piece(monkeypatch)
    report = verify_filtration(c)
    assert report.passed, report.violations
    assert pieces == [0]
    assert report.unit == c.gen_elem(0)


@pytest.mark.parametrize("char", list(Char))
def test_linear_forms_complex_lifts_through_elimination(monkeypatch, char):
    c = linear_forms_koszul_complex(3, char)
    max_degree = default_truncation(3, 1, char)
    pieces = _counting_degree_piece(monkeypatch)
    alpha = construct_alpha(c, 1)
    assert verify_alpha(alpha).passed
    # one piece per ranked degree -1..max_degree, and one per solve: the
    # unit cocycle and a lift of each of the 7 other generators of K_3(1)
    assert len(pieces) == (max_degree + 2) + 2 ** 3


# ---------------------------------------------------------------------------
# inbound maps
# ---------------------------------------------------------------------------


def test_identity_alpha_passes_where_hypothesis_holds():
    # level 0: cohomology is the base field in degree 0
    c = koszul_filt_complex(ComplexDescriptor(2, 0, Char.ZERO))
    report = verify_alpha(identity_map(c))
    assert report.passed, report.failures
    # characteristic 2, one variable: cohomology lives in degrees <= level
    c = koszul_filt_complex(ComplexDescriptor(1, 2, Char.TWO))
    report = verify_alpha(identity_map(c))
    assert report.passed, report.failures


def test_identity_alpha_reports_hypothesis_separately():
    c = koszul_filt_complex(ComplexDescriptor(2, 1, Char.ZERO))
    report = verify_alpha(identity_map(c))
    assert report.chain_map_ok and report.projection_ok
    assert not report.hypothesis_ok  # classes of t^a survive above the level
    assert not report.passed


def test_alpha_with_unit_in_augmentation_kernel_fails_projection():
    # multiplication by t1 commutes with the differential but sends 1 into
    # the augmentation kernel
    c = koszul_filt_complex(ComplexDescriptor(2, 0, Char.ZERO))
    t1 = Poly.variable(2, Char.ZERO, 1)
    a = ComplexMap(c, c, [{i: t1} for i in range(len(c.generators))])
    report = verify_alpha(a)
    assert report.chain_map_ok
    assert not report.projection_ok


def test_construct_alpha_on_level0_target():
    for char in (Char.ZERO, Char.TWO):
        c = koszul_filt_complex(ComplexDescriptor(2, 0, char))
        alpha = construct_alpha(c, 1)
        report = verify_alpha(alpha)
        assert report.passed, report.failures


def test_construct_alpha_solves_the_unit_cocycle_once(monkeypatch):
    calls = []
    solve_diff = FiltComplex.solve_diff

    def counting(self, degree, rhs, augment_to=None):
        calls.append(augment_to)
        return solve_diff(self, degree, rhs, augment_to)

    monkeypatch.setattr(FiltComplex, "solve_diff", counting)
    for c in (rank_two_model(1, Char.TWO), koszul_filt_complex(ComplexDescriptor(2, 0, Char.ZERO))):
        calls.clear()
        assert verify_alpha(construct_alpha(c, 1)).passed
        assert calls.count(1) == 1


def test_construct_alpha_on_rank_two_model():
    c = rank_two_model(1, Char.TWO)
    alpha = construct_alpha(c, 1)
    assert verify_alpha(alpha).passed
    # the image of s1 solves d(x) = t1^2 * alpha(1), i.e. x = e up to a cocycle
    image = alpha.images[1]
    assert c.apply_diff(image) == {0: Poly.t_power(1, Char.TWO, 1, 2)}
    difference = dict(image)
    add_into(difference, 1, -Poly.one(1, Char.TWO))
    assert c.apply_diff(difference) == {}


def test_construct_alpha_hypothesis_failure():
    free_rank_one = FiltComplex(1, Char.ZERO, [Generator("1", 0, 0)], {}, [1])
    with pytest.raises(VanishingHypothesisError):
        construct_alpha(free_rank_one, 1)
    with pytest.raises(VanishingHypothesisError):
        construct_alpha(twisted_two_var_model(Char.ZERO), 0)


def test_construct_alpha_truncation_error():
    c = koszul_filt_complex(ComplexDescriptor(2, 0, Char.ZERO))
    with pytest.raises(TruncationError):
        construct_alpha(c, 1, max_degree=2)


# ---------------------------------------------------------------------------
# outbound maps
# ---------------------------------------------------------------------------


def test_identity_beta_passes():
    c = koszul_filt_complex(ComplexDescriptor(2, 0, Char.ZERO))
    assert verify_beta(identity_map(c)).passed


def test_beta_filtration_violation():
    c = koszul_filt_complex(ComplexDescriptor(2, 0, Char.ZERO))
    images = [c.gen_elem(i) for i in range(len(c.generators))]
    index_sets = list(c.koszul_descriptor.index_sets())
    top = index_sets.index((1, 2))
    images[index_sets.index((1,))] = c.gen_elem(top)  # level 1 -> word-length 2
    report = verify_beta(ComplexMap(c, c, images))
    assert not report.filtration_ok


def test_beta_on_rank_two_model():
    m = 1
    c = rank_two_model(m, Char.TWO)
    k0 = koszul_filt_complex(ComplexDescriptor(1, 0, Char.TWO))
    beta = ComplexMap(
        c, k0, [k0.gen_elem(0), {1: Poly.t_power(1, Char.TWO, 1, m)}]
    )
    assert verify_beta(beta).passed


def test_beta_on_twisted_model():
    c = twisted_two_var_model(Char.ZERO)
    k0 = koszul_filt_complex(ComplexDescriptor(2, 0, Char.ZERO))
    pos = {s: i for i, s in enumerate(k0.koszul_descriptor.index_sets())}
    images = [
        k0.gen_elem(pos[()]),
        k0.gen_elem(pos[(1,)]),
        k0.gen_elem(pos[(2,)]),
        {},  # the twist generator dies
        k0.gen_elem(pos[(1, 2)]),
    ]
    report = verify_beta(ComplexMap(c, k0, images))
    assert report.passed, report.failures


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_identity_alpha_composed_with_multiplicative_beta():
    desc_m = ComplexDescriptor(2, 1, Char.ZERO)
    desc_0 = ComplexDescriptor(2, 0, Char.ZERO)
    km = koszul_filt_complex(desc_m)
    k0 = koszul_filt_complex(desc_0)
    base = iota(2, 1, Char.ZERO)
    beta = _complex_map_of(base, km, k0)
    gamma = compose_to_gamma(identity_map(km), beta)
    assert gamma == base


def test_toy_pipeline_rank_two():
    m = 1
    c = rank_two_model(m, Char.TWO)
    alpha = construct_alpha(c, m)
    k0 = koszul_filt_complex(ComplexDescriptor(1, 0, Char.TWO))
    beta = ComplexMap(
        c, k0, [k0.gen_elem(0), {1: Poly.t_power(1, Char.TWO, 1, m)}]
    )
    assert verify_beta(beta).passed
    gamma = compose_to_gamma(alpha, beta)
    assert verify_chain_map(gamma).passed
    assert rank(gamma, RankMethod.EXACT) == 2


def test_pipeline_n3_satisfies_bound():
    for char in (Char.ZERO, Char.TWO):
        k30 = koszul_filt_complex(ComplexDescriptor(3, 0, char))
        alpha = construct_alpha(k30, 1)
        gamma = compose_to_gamma(alpha, identity_map(k30))
        assert verify_chain_map(gamma).passed
        report = bound_report(gamma, rng=random.Random(0))
        assert report.satisfies_A
        assert rank(gamma, RankMethod.EXACT) <= len(k30.generators)


def test_rank_bounded_by_middle_complex_size():
    m = 1
    c = rank_two_model(m, Char.TWO)
    alpha = construct_alpha(c, m)
    k0 = koszul_filt_complex(ComplexDescriptor(1, 0, Char.TWO))
    beta = ComplexMap(
        c, k0, [k0.gen_elem(0), {1: Poly.t_power(1, Char.TWO, 1, m)}]
    )
    gamma = compose_to_gamma(alpha, beta)
    assert rank(gamma, RankMethod.EXACT) <= len(c.generators)


def test_construct_alpha_rank_invariant_under_basis_order():
    rng = random.Random(5)
    base = koszul_filt_complex(ComplexDescriptor(3, 0, Char.ZERO))
    ranks = set()
    for _ in range(5):
        shuffled, unshuffle = shuffled_complex(base, rng)
        alpha = construct_alpha(shuffled, 1)
        gamma = compose_to_gamma(alpha, unshuffle)
        ranks.add(rank(gamma, RankMethod.EXACT))
    assert len(ranks) == 1


def test_compose_requires_matching_middle():
    c = rank_two_model(1, Char.TWO)
    other = rank_two_model(2, Char.TWO)
    alpha = construct_alpha(c, 1)
    k0 = koszul_filt_complex(ComplexDescriptor(1, 0, Char.TWO))
    beta = ComplexMap(
        other, k0, [k0.gen_elem(0), {1: Poly.t_power(1, Char.TWO, 1, 2)}]
    )
    with pytest.raises(ValueError):
        compose_to_gamma(alpha, beta)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_json_round_trip():
    for c in (
        twisted_two_var_model(Char.ZERO),
        rank_two_model(2, Char.TWO),
        koszul_filt_complex(ComplexDescriptor(2, 1, Char.ZERO)),
    ):
        again = FiltComplex.from_json(c.to_json())
        assert again == c


@pytest.mark.parametrize("char", list(Char))
def test_repeated_differential_entries_are_summed(char):
    c = rank_two_model(0, char)  # d(e) = t1
    data = c.to_json_dict()
    data["diff"] = data["diff"] * 2
    loaded = FiltComplex.from_json(json.dumps(data))
    t1 = Poly.variable(1, char, 1)
    merged = FiltComplex(1, char, c.generators, {1: [(0, t1 + t1)]}, c.augmentation)
    assert loaded == merged
    # 2 t1 over Q; over F2 the pair cancels and no entry is left
    expected = [] if char is Char.TWO else [[0, 1, str(t1 + t1)]]
    assert loaded.to_json_dict()["diff"] == expected
    assert FiltComplex.from_json(loaded.to_json()) == merged
    assert loaded.homology_dims(4) == merged.homology_dims(4)


def test_json_augmentation_scalars_follow_the_characteristic():
    data = rank_two_model(1, Char.TWO).to_json_dict()
    data["augmentation"] = ["1/2", "0"]
    with pytest.raises(ValueError, match="even denominator"):
        FiltComplex.from_json_dict(data)
    data["augmentation"] = ["1/3", "0"]
    assert FiltComplex.from_json_dict(data).augmentation == [1, 0]
    gens = [Generator("1", 0, 0)]
    assert FiltComplex(1, Char.ZERO, gens, {}, ["1/3"]).augmentation == [Fraction(1, 3)]


def test_json_loader_rejects_invalid_complex():
    bad = FiltComplex(
        1,
        Char.ZERO,
        [Generator("1", 0, 0), Generator("a", 1, 1), Generator("b", 2, 1)],
        {2: [(1, Poly.variable(1, Char.ZERO, 1))]},
        [1, 0, 0],
    )
    with pytest.raises(ValueError):
        FiltComplex.from_json(bad.to_json())


def test_the_law_of_a_complex_map_is_checked_once(monkeypatch):
    middle, unshuffle = shuffled_complex(koszul_filt_complex(ComplexDescriptor(3, 0, Char.ZERO)), random.Random(5))
    alpha = construct_alpha(middle, 1)
    calls = []
    apply_diff = FiltComplex.apply_diff

    def counting(self, a):
        calls.append(self)
        return apply_diff(self, a)

    monkeypatch.setattr(FiltComplex, "apply_diff", counting)
    assert alpha.commutes_with_diff() == [] and calls
    calls.clear()
    assert alpha.commutes_with_diff() == [] and not calls
    compose_to_gamma(alpha, unshuffle)  # alpha's law is not evaluated again; beta's is, once
    assert calls == [unshuffle.target] * len(unshuffle.source.generators)
    broken = ComplexMap(middle, middle, [middle.gen_elem(0)] * len(middle.generators))
    failures = broken.commutes_with_diff()
    assert failures
    failures.clear()  # the kept outcome is not the caller's list
    assert broken.commutes_with_diff()
