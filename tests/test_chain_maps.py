import dataclasses
import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from koszulrank import chain_maps, linalg
from koszulrank.certificates import (
    CertificateFamily,
    bound_report,
    certificate_generators,
    check_injectivity,
    grading_label,
)
from koszulrank.chain_maps import (
    ChainMap,
    GradingMode,
    Homotopy,
    RankMethod,
    homotopy_perturb,
    iota,
    is_degree_preserving,
    matrix_of_images,
    pair_coefficient,
    pair_has_multiplicative_form,
    random_chain_map,
    random_homotopy,
    rank,
    restricted_rank,
    verify_chain_map,
)
from koszulrank.hb_model import compose_to_gamma, construct_alpha, koszul_filt_complex, shuffled_complex
from koszulrank.koszul import ComplexDescriptor, KElem, random_kelem
from koszulrank.linalg import PrimeField, bareiss_rank, evaluation_rank, gf2_field, point_rank, random_prime
from koszulrank.polynomials import Char, Poly, power_tables


def test_iota_images_and_unitality():
    g = iota(2, 3, Char.ZERO)
    assert g.images[()] == g.target.one()
    expected = KElem(g.target, {(1, 2): Poly.monomial(2, Char.ZERO, (3, 3))})
    assert g.images[(1, 2)] == expected


def _perturbed_plain_iota() -> ChainMap:
    base = iota(3, 1, Char.ZERO)
    base = ChainMap(base.source, base.target, dict(base.images))
    return homotopy_perturb(base, random_homotopy(base.source, random.Random(5)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: iota(3, 1, Char.ZERO).images,
        lambda: random_chain_map(3, 1, Char.ZERO, random.Random(4)).images,
        lambda: _perturbed_plain_iota().images,
        lambda: random_homotopy(ComplexDescriptor(3, 1, Char.ZERO), random.Random(4)).values,
    ],
    ids=["iota", "random", "perturbed-dict", "homotopy-values"],
)
def test_iota_images_hold_exactly_the_index_sets(make):
    images = make()
    assert list(images) == list(ComplexDescriptor(3, 1, Char.ZERO).index_sets())
    assert len(images) == 8
    assert all(indices in images for indices in images)
    assert [1] not in images
    for key in [(2, 1), (1, 1), (0,), (4,), (1, "2"), "1"]:
        assert key not in images
        with pytest.raises(KeyError):
            images[key]


def test_lazy_images_are_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        g = random_chain_map(3, 1, Char.ZERO, random.Random(2))
        assert len(list(g.images.values())) == 8
        del g
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_iota_passes_verification():
    for char in (Char.ZERO, Char.TWO):
        report = verify_chain_map(iota(3, 1, char))
        assert report.unital and report.commutes and report.lifts_projection
        assert not report.failures


def test_iota_rank_is_full():
    g = iota(3, 1, Char.ZERO)
    assert rank(g, RankMethod.EXACT) == 8
    assert rank(g, RankMethod.MODULAR, random.Random(0)) == 8


def test_apply_examples():
    g = iota(3, 2, Char.ZERO)
    assert g.apply(g.source.generator((1,))) == KElem(g.target, {(1,): g.target.t(1, 2)})
    assert g.apply(g.source.one()) == g.target.one()
    assert g.apply(g.source.zero()).is_zero()


def test_apply_is_linear():
    rng = random.Random(2)
    g = random_chain_map(3, 1, Char.ZERO, rng)
    x = random_kelem(g.source, rng)
    y = random_kelem(g.source, rng)
    p = Poly.parse("t1 + 2*t3", 3, Char.ZERO)
    assert g.apply(x.scale(p) + y) == g.apply(x).scale(p) + g.apply(y)


def test_broken_map_reported():
    g = iota(2, 1, Char.ZERO)
    images = dict(g.images)
    images[(1,)] = g.target.zero()
    broken = ChainMap(g.source, g.target, images)
    report = verify_chain_map(broken)
    assert report.unital
    assert not report.commutes
    assert any("I={1}" in failure for failure in report.failures)


def test_chain_law_on_random_elements():
    rng = random.Random(3)
    for char in (Char.ZERO, Char.TWO):
        g = random_chain_map(3, 1, char, rng)
        assert verify_chain_map(g).passed
        for _ in range(200):
            x = random_kelem(g.source, rng)
            assert g.apply(x).differential() == g.apply(x.differential())


def test_perturb_by_zero_returns_equal_map():
    g = iota(3, 1, Char.ZERO)
    assert homotopy_perturb(g, Homotopy({})) == g


def test_perturb_keeps_chain_law():
    g = iota(3, 1, Char.ZERO)
    h = Homotopy({(1, 2): KElem(g.target, {(3,): Poly.parse("t1*t2 - 2", 3, Char.ZERO)})})
    perturbed = homotopy_perturb(g, h)
    report = verify_chain_map(perturbed)
    assert report.passed
    assert perturbed.images[()] == g.target.one()


def test_perturb_rejects_unit_correction():
    g = iota(2, 1, Char.ZERO)
    with pytest.raises(ValueError):
        Homotopy({(): g.target.one()})
    bad = Homotopy({})
    bad.values[()] = g.target.one()  # bypass the constructor check
    with pytest.raises(ValueError):
        homotopy_perturb(g, bad)


def test_random_perturbations_verify():
    rng = random.Random(4)
    for char in (Char.ZERO, Char.TWO):
        for grading in (GradingMode.FULL, GradingMode.PARITY, None):
            g = random_chain_map(3, 1, char, rng, grading=grading)
            assert verify_chain_map(g).passed


def test_iota_is_degree_preserving_both_modes():
    for char in (Char.ZERO, Char.TWO):
        g = iota(3, 1, char)
        assert is_degree_preserving(g, GradingMode.FULL)
        assert is_degree_preserving(g, GradingMode.PARITY)


def test_degree_constrained_sampling():
    rng = random.Random(5)
    for char in (Char.ZERO, Char.TWO):
        for _ in range(10):
            g = random_chain_map(3, 1, char, rng, grading=GradingMode.FULL)
            assert is_degree_preserving(g, GradingMode.FULL)
            g = random_chain_map(3, 1, char, rng, grading=GradingMode.PARITY)
            assert is_degree_preserving(g, GradingMode.PARITY)


def test_inhomogeneous_correction_breaks_full_grading():
    g = iota(3, 1, Char.ZERO)
    h = Homotopy({(1,): KElem(g.target, {(): Poly.parse("t1^3 + 1", 3, Char.ZERO)})})
    perturbed = homotopy_perturb(g, h)
    assert verify_chain_map(perturbed).passed
    assert not is_degree_preserving(perturbed, GradingMode.FULL)


def _degenerate_map(char=Char.ZERO) -> ChainMap:
    """Every image but the unit's is zero: rank 1."""
    g = iota(2, 1, char)
    images = {indices: g.target.zero() for indices in g.source.index_sets()}
    images[()] = g.target.one()
    return ChainMap(g.source, g.target, images)


def test_rank_of_degenerate_matrix():
    degenerate = _degenerate_map()
    assert rank(degenerate, RankMethod.EXACT) == 1
    assert rank(degenerate, RankMethod.MODULAR, random.Random(1)) == 1


def _exact_rank_cases(char) -> list[ChainMap]:
    """Full-rank maps and deficient ones (the degenerate map; a map whose
    images repeat, so its rank is below 2^n)."""
    rng = random.Random(31)
    full = [iota(3, 1, char)] + [random_chain_map(n, 1, char, rng, max_terms=2) for n in (2, 3, 4)]
    g = full[1]
    repeated = {indices: g.images[(1,) if indices == (2,) else indices] for indices in g.source.index_sets()}
    return full + [_degenerate_map(char), ChainMap(g.source, g.target, repeated)]


def _bareiss_of(g: ChainMap) -> int:
    return bareiss_rank(matrix_of_images(g.target, [g.images[i] for i in g.source.index_sets()]))


@pytest.mark.parametrize("char", list(Char))
def test_exact_rank_equals_bareiss_on_full_and_deficient_maps(char):
    ranks = [(rank(g, RankMethod.EXACT), _bareiss_of(g)) for g in _exact_rank_cases(char)]
    assert all(exact == bareiss for exact, bareiss in ranks), ranks
    assert ranks[0][0] == 8 and ranks[-2][0] == 1 and ranks[-1][0] < 4


def test_exact_rank_runs_bareiss_only_after_a_deficient_evaluation(monkeypatch):
    calls = []
    bareiss = chain_maps.bareiss_rank

    def counting(matrix):
        calls.append(len(matrix))
        return bareiss(matrix)

    monkeypatch.setattr(chain_maps, "bareiss_rank", counting)
    g = iota(3, 1, Char.ZERO)
    assert rank(g, RankMethod.EXACT) == 8
    assert calls == []  # the evaluation was full
    assert rank(_degenerate_map(), RankMethod.EXACT) == 1
    assert calls == [4]  # a deficient evaluation proves nothing
    monkeypatch.setattr(chain_maps, "rank_at_points", lambda *args, **kwargs: 7)
    assert rank(g, RankMethod.EXACT) == 8
    assert calls == [4, 8]


@pytest.mark.parametrize("char", list(Char))
def test_exact_bound_report_leaves_the_callers_rng_alone(char):
    rng = random.Random(37)
    g = random_chain_map(3, 1, char, rng)
    state = rng.getstate()
    report = bound_report(g, RankMethod.EXACT, rng=rng)
    assert rng.getstate() == state
    assert report.rank == _bareiss_of(g)


@pytest.mark.parametrize("bits", ["2", "abc", "65"])
def test_exact_rank_ignores_prime_bits(monkeypatch, bits):
    # KOSZUL_PRIME_BITS sizes the modular method's fields only; an invalid
    # value is the CLI's usage error, never a library exact rank's
    cases = _exact_rank_cases(Char.ZERO) + _exact_rank_cases(Char.TWO)
    monkeypatch.delenv("KOSZUL_PRIME_BITS", raising=False)
    expected = [rank(g, RankMethod.EXACT) for g in cases]
    monkeypatch.setenv("KOSZUL_PRIME_BITS", bits)
    assert [rank(g, RankMethod.EXACT) for g in cases] == expected


def test_rank_methods_agree_on_random_maps():
    rng = random.Random(6)
    for char in (Char.ZERO, Char.TWO):
        for n in (2, 3, 4):
            g = random_chain_map(n, 1, char, rng, max_terms=2)
            exact = rank(g, RankMethod.EXACT)
            modular = rank(g, RankMethod.MODULAR, rng)
            assert exact == modular, (char, n, exact, modular)


def test_restricted_rank_examples():
    g = iota(3, 1, Char.ZERO)
    boundary = g.source.generator((1, 2, 3)).differential()
    assert restricted_rank(g, [boundary], RankMethod.EXACT) == 1
    assert restricted_rank(g, [g.source.one()], RankMethod.EXACT) == 1
    assert restricted_rank(g, [boundary, boundary], RankMethod.EXACT) == 1


def test_serialization_round_trip_is_bit_exact():
    rng = random.Random(7)
    for char in (Char.ZERO, Char.TWO):
        g = random_chain_map(3, 2, char, rng)
        text = g.to_json()
        again = ChainMap.from_json(text)
        assert again == g
        assert again.to_json() == text
        parsed = json.loads(text)
        assert set(parsed) == {"n", "m", "char", "images"}


def test_pair_coefficient_nonzero_for_valid_maps():
    rng = random.Random(8)
    for char in (Char.ZERO, Char.TWO):
        for _ in range(20):
            g = random_chain_map(4, 1, char, rng)
            for i in range(1, 4):
                for j in range(i + 1, 5):
                    assert not pair_coefficient(g, i, j).is_zero(), (char, i, j)


def test_pair_multiplicative_form_is_reported_not_required():
    g = iota(3, 1, Char.ZERO)
    assert pair_has_multiplicative_form(g, 1, 2)
    rng = random.Random(9)
    observed = [
        pair_has_multiplicative_form(random_chain_map(3, 1, Char.ZERO, rng), 1, 2)
        for _ in range(10)
    ]
    assert all(isinstance(v, bool) for v in observed)


def test_single_index_images_are_cocycle_corrections():
    # the chain-map law forces gamma(s_i) - t_i^m s_i to be a cocycle
    rng = random.Random(11)
    for char in (Char.ZERO, Char.TWO):
        g = random_chain_map(3, 2, char, rng)
        for i in (1, 2, 3):
            baseline = KElem(g.target, {(i,): g.target.t(i, 2)})
            assert (g.images[(i,)] - baseline).differential().is_zero()


def test_homotopy_linear_extension():
    rng = random.Random(10)
    source = ComplexDescriptor(3, 1, Char.ZERO)
    h = random_homotopy(source, rng)
    target = ComplexDescriptor(3, 0, Char.ZERO)
    x = random_kelem(source, rng)
    y = random_kelem(source, rng)
    assert h.applied_to(x + y, target) == h.applied_to(x, target) + h.applied_to(y, target)


def _perturbations(char, grading, rng):
    """(map, base, homotopy) for n = 1..6 and m = 0..2: iota perturbed by a
    drawn homotopy; without a grading also iota perturbed by a user dict
    homotopy, and that user-perturbed map perturbed by a drawn homotopy."""
    for n in range(1, 7):
        for m in range(3):
            base = iota(n, m, char)
            state = rng.getstate()
            g = random_chain_map(n, m, char, rng, grading=grading)
            replay = random.Random()
            replay.setstate(state)
            h = random_homotopy(base.source, replay, grading=grading)
            assert rng.getstate() == replay.getstate()
            yield g, base, h
            if grading is None:
                user = Homotopy({
                    indices: random_kelem(base.target, rng)
                    for indices in base.source.index_sets()
                    if indices and rng.random() < 0.5
                })
                perturbed = homotopy_perturb(base, user)
                yield perturbed, base, user
                drawn = random_homotopy(base.source, rng)
                yield homotopy_perturb(perturbed, drawn), perturbed, drawn


@pytest.mark.parametrize("char", [Char.ZERO, Char.TWO])
@pytest.mark.parametrize("grading", [GradingMode.FULL, GradingMode.PARITY, None])
def test_perturbed_images_match_eager_formula(char, grading):
    for g, base, h in _perturbations(char, grading, random.Random(23)):
        order = list(base.source.index_sets())
        random.Random(0).shuffle(order)  # images must not depend on the read order
        for indices in order:
            x = base.source.generator(indices)
            expected = (
                base.apply(x)
                + h.applied_to(x, base.target).differential()
                + h.applied_to(x.differential(), base.target)
            )
            assert g.images[indices] == expected, (g.source, indices)
        assert list(g.images) == list(base.source.index_sets())
        assert ChainMap.from_json_dict(g.to_json_dict()) == g


def test_reading_one_perturbed_image_computes_only_that_image():
    base = iota(9, 1, Char.ZERO)
    h = random_homotopy(base.source, random.Random(29))
    g = homotopy_perturb(base, h)
    caches = (g.images._cache, base.images._cache, h.values._cache)

    def built():
        return [{key: id(val) for key, val in cache.items()} for cache in caches]

    g.images[(1, 2)]
    assert set(g.images._cache) == set(base.images._cache) == {(1, 2)}
    # h(s_12), the faces h(s_1) and h(s_2), and h(1), which the perturbation checks
    assert set(h.values._cache) <= {(), (1, 2), (1,), (2,)}
    before = built()
    g.images[(1, 2)]
    assert built() == before  # a second read builds nothing


def test_a_homotopy_cannot_swap_its_values_under_its_draws():
    h = random_homotopy(ComplexDescriptor(3, 1, Char.ZERO), random.Random(1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        h.values = {}  # a perturbation would then be ranked from draws of other values


def test_perturb_rejects_homotopy_in_wrong_complex():
    g = iota(2, 1, Char.ZERO)
    wrong = ComplexDescriptor(2, 1, Char.ZERO)
    with pytest.raises(ValueError):
        homotopy_perturb(g, Homotopy({(1,): wrong.one()}))


# ---------------------------------------------------------------------------
# ranks and gradings read from the homotopy draws
# ---------------------------------------------------------------------------


_GRADINGS = [GradingMode.FULL, GradingMode.PARITY, None]


def _point_fields(char, rng):
    """F_p at 31 bits and at 2 and 3 bits; GF(2^2), GF(2^16) and GF(2^32)."""
    if char is Char.ZERO:
        return [PrimeField(random_prime(bits, rng)) for bits in (31, 2, 3)]
    return [gf2_field(bits) for bits in (2, 16, 32)]


def _point_grid(char, grading, rng):
    """Drawn maps for m = 0..2 and n = 1..5, each with a few source elements."""
    for m in range(3):
        for n in range(1, 6):
            g = random_chain_map(n, m, char, rng, grading=grading)
            generators = [random_kelem(g.source, rng) for _ in range(3)] + [g.source.generator((n,))]
            yield g, generators


def _plain_maps(char, rng):
    """Maps that are not drawn perturbations, each with a few source elements:
    iota, a JSON round trip, a perturbation by a user Homotopy dict, and
    lift's gamma on a shuffled K_4(0)."""
    middle, unshuffle = shuffled_complex(koszul_filt_complex(ComplexDescriptor(4, 0, char)), rng)
    user_values = dict(random_homotopy(ComplexDescriptor(3, 2, char), rng).values)
    maps = [
        iota(3, 1, char),
        ChainMap.from_json(random_chain_map(3, 1, char, rng).to_json()),
        homotopy_perturb(iota(3, 2, char), Homotopy(user_values)),
        compose_to_gamma(construct_alpha(middle, 1), unshuffle),
    ]
    for g in maps:
        assert getattr(g.images, "draws", None) is None
        generators = [random_kelem(g.source, rng) for _ in range(3)] + [g.source.generator((1, 2))]
        yield g, generators


def _dense_at(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


@pytest.mark.parametrize("char", list(Char))
@pytest.mark.parametrize("grading", _GRADINGS, ids=["full", "parity", "none"])
def test_columns_from_draws_equal_the_evaluated_images(char, grading):
    rng = random.Random(53)
    plain = list(_plain_maps(char, rng)) if grading is None else []
    for g, generators in [*_point_grid(char, grading, rng), *plain]:
        drawn = getattr(g.images, "draws", None) is not None
        for field in _point_fields(char, rng):
            point = [field.random_nonzero(rng) for _ in range(g.source.nvars)]
            for gens in (None, generators):
                rows = chain_maps._point_evaluation(g, gens)(field, point)[0]()
                assert not (drawn and g.images._cache)  # no polynomial image was built
                matrix = chain_maps._image_matrix(g, gens)
                monos = [mono for row in matrix for e in row for mono in e.terms]
                max_exp = [max(exps) for exps in zip(*monos)] or [0] * g.source.nvars
                pows = power_tables(point, max_exp, field.mul)
                expected = [[field.evaluate(e, pows) for e in row] for row in matrix]
                assert _dense_at(rows, len(matrix[0])) == expected, (g.source, field)
                if drawn:
                    g.images._cache.clear()


@pytest.mark.parametrize("char", list(Char))
@pytest.mark.parametrize("bits", ["31", "3", "2"])
def test_ranks_from_draws_draw_like_the_polynomial_matrix(char, bits, monkeypatch):
    # tiny fields make deficient trials, so several draws are compared
    monkeypatch.setenv("KOSZUL_PRIME_BITS", bits)
    rng = random.Random(59)
    cases = [case for grading in _GRADINGS for case in _point_grid(char, grading, rng)]
    for g, generators in cases + list(_plain_maps(char, rng)):
        clone = random.Random()
        clone.setstate(rng.getstate())
        assert rank(g, rng=rng) == evaluation_rank(
            chain_maps._image_matrix(g, None), char, clone, bits=int(bits))
        assert rng.getstate() == clone.getstate()
        assert restricted_rank(g, generators, rng=rng) == evaluation_rank(
            matrix_of_images(g.target, [g.apply(x) for x in generators]), char, clone, bits=int(bits))
        assert rng.getstate() == clone.getstate()


@pytest.mark.parametrize(
    "make",
    [lambda: iota(3, 1, Char.ZERO), lambda: random_chain_map(3, 1, Char.ZERO, random.Random(4))],
    ids=["iota", "random"],
)
def test_restricted_rank_rejects_elements_of_another_complex(make):
    g = make()
    with pytest.raises(ValueError, match="source complex"):
        restricted_rank(g, [g.source.one(), g.target.generator((1,))])


@pytest.mark.parametrize("char", list(Char))
def test_deficient_exact_rank_of_a_drawn_map_falls_back_to_bareiss(char, monkeypatch):
    calls = []
    bareiss = chain_maps.bareiss_rank
    def counting(matrix):
        calls.append(len(matrix))
        return bareiss(matrix)

    monkeypatch.setattr(chain_maps, "bareiss_rank", counting)
    base = _degenerate_map(char)
    g = homotopy_perturb(base, random_homotopy(base.source, random.Random(3), max_terms=0))
    assert g.images.draws is not None
    assert rank(g, RankMethod.EXACT) == 1
    assert calls == [4]


@pytest.mark.parametrize("char", list(Char))
@pytest.mark.parametrize("grading", _GRADINGS, ids=["full", "parity", "none"])
def test_grading_from_draws_equals_grading_from_images(char, grading):
    rng = random.Random(67)
    for g, _ in _point_grid(char, grading, rng):
        label = grading_label(g)
        plain = ChainMap(g.source, g.target, dict(g.images))
        assert label == grading_label(plain)
        if grading is not None:
            assert is_degree_preserving(g, grading)


def test_grading_from_draws_reads_the_base_map():
    base = iota(3, 1, Char.ZERO)
    h = Homotopy({(1,): KElem(base.target, {(): Poly.parse("t1^3 + 1", 3, Char.ZERO)})})
    drawn = random_homotopy(base.source, random.Random(71), GradingMode.FULL)
    g = homotopy_perturb(homotopy_perturb(base, h), drawn)
    assert g.images.draws is not None
    assert not is_degree_preserving(g, GradingMode.FULL)
    assert grading_label(g) == grading_label(ChainMap(g.source, g.target, dict(g.images))) == "parity"


@pytest.mark.parametrize("char", list(Char))
def test_bound_report_of_a_graded_drawn_map_builds_no_image(char):
    rng = random.Random(61)
    g = random_chain_map(6, 1, char, rng, grading=GradingMode.FULL)
    for family in (CertificateFamily.TRIPLE_DIFFS, CertificateFamily.MIXED_BASE):
        assert check_injectivity(g, certificate_generators(family, 6, 1, char), rng).injective
    report = bound_report(g, rng=rng)
    assert (report.grading, report.rank) == ("full", 64)
    assert not g.images._cache


# ---------------------------------------------------------------------------
# ranks decided on the boundaries
# ---------------------------------------------------------------------------


def _one_variable_map(char, unit: int, s1: int) -> ChainMap:
    """The n=1, m=1 map 1 -> unit * 1, s_1 -> s1 * s_1 (a chain map only if unit t1 = s1)."""
    source, target = ComplexDescriptor(1, 1, char), ComplexDescriptor(1, 0, char)
    images = {(): target.one().scale(Poly.constant(1, char, unit)),
              (1,): target.generator((1,)).scale(Poly.constant(1, char, s1))}
    return ChainMap(source, target, images)


@pytest.mark.parametrize("char", list(Char))
@pytest.mark.parametrize("method", list(RankMethod))
def test_a_full_boundary_matrix_does_not_decide_a_map_that_breaks_the_law(char, method):
    # 1 -> 1, s_1 -> 0 has pi gamma D_s = (p^2) nonsingular; 1 -> 0, s_1 -> s_1
    # has pi D_t (B + H D_s) = (p) nonsingular.  Neither is a chain map, both
    # have rank 1, and only the law check keeps the boundary rank from saying 2
    for unit, s1 in ((1, 0), (0, 1)):
        g = _one_variable_map(char, unit, s1)
        assert not verify_chain_map(g).commutes
        assert rank(g, method, random.Random(83)) == 1
        field = PrimeField(random_prime(31, random.Random(1))) if char is Char.ZERO else gf2_field(16)
        rows, boundary = chain_maps._point_evaluation(g, None)(field, [5])
        assert boundary() is None and point_rank(rows(), field) == 1


@pytest.mark.parametrize("char", list(Char))
def test_the_boundary_matrix_is_full_exactly_when_the_map_is(char):
    rng = random.Random(89)
    deficient = dict.fromkeys((2, 3, 31), 0)
    for bits in deficient:
        for grading in _GRADINGS:
            for n in range(1, 7):
                g = random_chain_map(n, n % 3, char, rng, grading=grading)
                at = chain_maps._point_evaluation(g, None)
                for _ in range(3):
                    field = PrimeField(random_prime(bits, rng)) if char is Char.ZERO else gf2_field(bits)
                    rows, boundary = at(field, [field.random_nonzero(rng) for _ in range(n)])
                    boundary_rows = boundary()
                    assert boundary_rows is not None and len(boundary_rows) == 1 << (n - 1)
                    full = point_rank(rows(), field) == 1 << n
                    assert (point_rank(boundary_rows, field) == 1 << (n - 1)) == full, (char, bits, grading, n)
                    deficient[bits] += not full
    assert deficient[2], "no point reached the full rows after a deficient boundary matrix"


@pytest.mark.parametrize("denominator", [5, 7])
def test_unlucky_primes_redraw_like_the_polynomial_matrix(denominator, monkeypatch):
    # 3-bit primes are 5 and 7 (every 2-bit prime is 3, and a 1/3 would never
    # evaluate); each rank must meet the unlucky prime where the image
    # matrix does and draw the same next prime and point
    monkeypatch.setenv("KOSZUL_PRIME_BITS", "3")
    primes = []
    draw_prime = linalg.random_prime

    def recording(bits, rng):
        primes.append(draw_prime(bits, rng))
        return primes[-1]

    monkeypatch.setattr(linalg, "random_prime", recording)
    rng = random.Random(97)
    base = iota(3, 1, Char.ZERO)
    fraction = Poly.parse(f"1/{denominator}*t3", 3, Char.ZERO)
    fractional = homotopy_perturb(base, Homotopy({(1, 2): KElem(base.target, {(1,): fraction})}))
    broken = dict(base.images)
    broken[(2,)] = KElem(base.target, {(2,): fraction})  # an image the boundary matrix never reads
    maps = [
        fractional,  # a chain map that is its own base
        homotopy_perturb(fractional, random_homotopy(fractional.source, rng)),  # a drawn one on it
        ChainMap(base.source, base.target, broken),  # breaks the law: the full rows decide
    ]
    for g in maps:
        for _ in range(4):
            clone = random.Random()
            clone.setstate(rng.getstate())
            assert rank(g, rng=rng) == evaluation_rank(chain_maps._image_matrix(g, None), Char.ZERO, clone, bits=3)
            assert rng.getstate() == clone.getstate()
    assert denominator in primes


def test_a_rank_that_meets_only_unlucky_primes_ends_with_an_error():
    # every 2-bit prime is 3, so a 1/3 coefficient never evaluates; the rank
    # must raise after the capped redraws, not hang (a subprocess, so a
    # regression fails by timeout instead of stalling the suite)
    script = "\n".join([
        "from koszulrank.chain_maps import Homotopy, homotopy_perturb, iota, rank",
        "from koszulrank.koszul import KElem",
        "from koszulrank.polynomials import Char, Poly, UnluckyPrimeError",
        "g = iota(3, 1, Char.ZERO)",
        "third = Poly.parse('1/3*t3', 3, Char.ZERO)",
        "try:",
        "    rank(homotopy_perturb(g, Homotopy({(1, 2): KElem(g.target, {(1,): third})})))",
        "except UnluckyPrimeError as error:",
        "    print(error)",
    ])
    env = {**os.environ, "KOSZUL_PRIME_BITS": "2"}
    src = str(Path(chain_maps.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.startswith(f"{linalg.MAX_UNLUCKY_DRAWS} 2-bit primes drawn in a row"), result.stdout
