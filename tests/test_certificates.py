import random

import pytest

from koszulrank.certificates import (
    CertificateFamily,
    Submodule,
    bound_report,
    certificate_generators,
    check_injectivity,
    classical_bound,
    expected_family_size,
    grading_label,
    improved_bound,
    search_noninjective_char2,
)
from koszulrank import chain_maps, linalg
from koszulrank.chain_maps import (
    GradingMode,
    RankMethod,
    iota,
    matrix_of_images,
    random_chain_map,
    rank,
    restricted_rank,
)
from koszulrank.koszul import ComplexDescriptor
from koszulrank.linalg import bareiss_rank, random_prime
from koszulrank.polynomials import Char, Poly


def test_triple_diffs_layout():
    sub = certificate_generators(CertificateFamily.TRIPLE_DIFFS, 6, 1, Char.ZERO)
    assert len(sub) == 2
    assert sub.labels == ["d s{1,2,3}", "d s{4,5,6}"]
    desc = ComplexDescriptor(6, 1, Char.ZERO)
    assert sub.generators[0] == desc.generator((1, 2, 3)).differential()


def test_mixed_full_count_example():
    sub = certificate_generators(CertificateFamily.MIXED_FULL, 6, 1, Char.ZERO)
    assert len(sub) == 16


def test_mixed_base_n4_content():
    sub = certificate_generators(CertificateFamily.MIXED_BASE, 4, 2, Char.TWO)
    assert sub.labels == [
        "1",
        "s{1}",
        "s{1,2}",
        "s{1,3}",
        "s{1,4}",
        "d s{1,2,3}",
        "s{1,2,3}",
    ]
    assert len(sub) == 7


def test_family_sizes_match_formulas():
    for n in range(1, 13):
        for family, block_size in (
            (CertificateFamily.TRIPLE_DIFFS, None),
            (CertificateFamily.BLOCK_DIFFS, 4),
            (CertificateFamily.BLOCK_DIFFS, 5),
            (CertificateFamily.MIXED_BASE, None),
            (CertificateFamily.MIXED_FULL, None),
        ):
            sub = certificate_generators(family, n, 1, Char.ZERO, block_size=block_size)
            assert len(sub) == expected_family_size(family, n, block_size), (family, n)


def test_small_n_gives_empty_triple_section():
    assert len(certificate_generators(CertificateFamily.TRIPLE_DIFFS, 2, 1, Char.ZERO)) == 0
    assert len(certificate_generators(CertificateFamily.BLOCK_DIFFS, 3, 1, Char.ZERO, block_size=4)) == 0
    assert len(certificate_generators(CertificateFamily.MIXED_BASE, 2, 1, Char.ZERO)) == 3


def test_block_size_validation():
    with pytest.raises(ValueError):
        certificate_generators(CertificateFamily.BLOCK_DIFFS, 6, 1, Char.ZERO, block_size=2)


def test_submodule_validation():
    desc = ComplexDescriptor(2, 1, Char.ZERO)
    with pytest.raises(ValueError):
        Submodule([desc.one(), desc.one()], ["a", "b"])
    with pytest.raises(ValueError):
        Submodule([desc.one()], ["a", "b"])


def test_injectivity_of_iota_on_triples():
    g = iota(3, 1, Char.ZERO)
    sub = certificate_generators(CertificateFamily.TRIPLE_DIFFS, 3, 1, Char.ZERO)
    report = check_injectivity(g, sub, random.Random(0))
    assert report.injective and report.rank == 1 and report.expected == 1


def test_injectivity_of_iota_on_mixed_full():
    g = iota(3, 1, Char.ZERO)
    sub = certificate_generators(CertificateFamily.MIXED_FULL, 3, 1, Char.ZERO)
    report = check_injectivity(g, sub, random.Random(0))
    assert report.injective and report.rank == 8


def test_check_injectivity_draws_one_evaluation_trial(monkeypatch):
    """A full-rank family costs one random prime and one point, from the caller's rng."""
    monkeypatch.delenv("KOSZUL_PRIME_BITS", raising=False)
    n = 4
    g = random_chain_map(n, 1, Char.ZERO, random.Random(3), grading=GradingMode.FULL)
    sub = certificate_generators(CertificateFamily.MIXED_BASE, n, 1, Char.ZERO)
    rng = random.Random(11)
    assert check_injectivity(g, sub, rng).injective
    replay = random.Random(11)
    prime = random_prime(31, replay)
    for _ in range(n):
        replay.randrange(1, prime)
    assert rng.getstate() == replay.getstate()


def test_char2_check_injectivity_draws_one_point(monkeypatch):
    """A full-rank char-2 family costs one point of the 32-bit field: nvars draws."""
    monkeypatch.delenv("KOSZUL_PRIME_BITS", raising=False)
    n = 4
    g = random_chain_map(n, 1, Char.TWO, random.Random(3))
    sub = certificate_generators(CertificateFamily.MIXED_BASE, n, 1, Char.TWO)
    rng = random.Random(11)
    assert check_injectivity(g, sub, rng).injective
    replay = random.Random(11)
    for _ in range(n):
        replay.randrange(1, 1 << 32)
    assert rng.getstate() == replay.getstate()


def test_zero_generator_produces_unit_witness(monkeypatch):
    g = iota(2, 1, Char.ZERO)
    sub = Submodule([g.source.one(), g.source.zero()], ["1", "0"])
    echelons = []
    echelon = linalg._bareiss_echelon
    monkeypatch.setattr(linalg, "_bareiss_echelon", lambda matrix: echelons.append(1) or echelon(matrix))
    report = check_injectivity(g, sub, random.Random(0))
    assert len(echelons) == 1  # one elimination gives the rank and the witness
    assert not report.injective
    matrix = matrix_of_images(g.target, [g.apply(x) for x in sub.generators])
    assert report.rank == 1 == bareiss_rank(matrix)
    assert report.witness is not None
    assert report.witness[0].is_zero() and not report.witness[1].is_zero()
    for row in matrix:
        assert sum((entry * v for entry, v in zip(row, report.witness)), Poly.zero(2, Char.ZERO)).is_zero()


@pytest.mark.parametrize(("n", "seed", "bits"), [(4, 1, "2"), (3, 4, "3")])
def test_tiny_field_certificates_report_like_31_bits(monkeypatch, n, seed, bits):
    # over F_3 (2 bits) or F_5 and F_7 (3 bits) some evaluations stay
    # deficient; exact elimination must then give the 31-bit report
    rng = random.Random(seed)
    maps = [random_chain_map(n, 1, Char.ZERO, rng, grading=GradingMode.FULL) for _ in range(6)]
    families = (CertificateFamily.MIXED_BASE, CertificateFamily.MIXED_FULL)

    def reports():
        out = []
        for k, g in enumerate(maps):
            check_rng = random.Random(k)
            for family in families:
                r = check_injectivity(g, certificate_generators(family, n, 1, Char.ZERO), check_rng)
                out.append((r.injective, r.rank, r.expected))
        return out

    monkeypatch.setenv("KOSZUL_PRIME_BITS", "31")
    expected = reports()
    fallbacks = []
    exact = chain_maps._rank_and_kernel
    monkeypatch.setattr(chain_maps, "_rank_and_kernel", lambda matrix: fallbacks.append(1) or exact(matrix))
    monkeypatch.setenv("KOSZUL_PRIME_BITS", bits)
    assert reports() == expected
    assert fallbacks  # some evaluation was deficient, so the exact fallback decided


def test_bound_values():
    assert improved_bound(3) == 8
    assert improved_bound(4) == 10
    assert improved_bound(5) == 12
    assert improved_bound(6) == 16
    assert classical_bound(1) == 2
    assert classical_bound(2) == 4
    assert classical_bound(3) == 8
    assert classical_bound(6) == 14


def test_bound_report_fields():
    g = iota(3, 1, Char.ZERO)
    report = bound_report(g, method=RankMethod.EXACT)
    data = report.to_json_dict()
    assert data == {
        "n": 3,
        "m": 1,
        "char": 0,
        "rank": 8,
        "theorem_A": 8,
        "eqn07": 8,
        "satisfies_A": True,
        "grading": "full",
    }


def test_grading_label_modes():
    rng = random.Random(1)
    assert grading_label(iota(3, 1, Char.ZERO)) == "full"
    g = random_chain_map(3, 1, Char.ZERO, rng, grading=GradingMode.PARITY)
    assert grading_label(g) in ("full", "parity")


def test_rank_dominates_restricted_rank():
    rng = random.Random(2)
    for char in (Char.ZERO, Char.TWO):
        g = random_chain_map(4, 1, char, rng)
        total = rank(g, RankMethod.MODULAR, rng)
        for family in (CertificateFamily.TRIPLE_DIFFS, CertificateFamily.MIXED_BASE):
            sub = certificate_generators(family, 4, 1, char)
            assert total >= restricted_rank(g, sub.generators, RankMethod.MODULAR, rng)


def test_char0_full_grading_sweep():
    rng = random.Random(3)
    for n in (3, 4):
        sub = certificate_generators(CertificateFamily.MIXED_FULL, n, 1, Char.ZERO)
        for _ in range(10):
            g = random_chain_map(n, 1, Char.ZERO, rng, grading=GradingMode.FULL)
            report = check_injectivity(g, sub, rng)
            assert report.injective
            assert rank(g, RankMethod.MODULAR, rng) >= improved_bound(n)


def test_char2_mixed_base_sweep():
    rng = random.Random(4)
    for n in (3, 4):
        sub = certificate_generators(CertificateFamily.MIXED_BASE, n, 1, Char.TWO)
        for _ in range(10):
            g = random_chain_map(n, 1, Char.TWO, rng)
            assert check_injectivity(g, sub, rng).injective


def test_search_harness_runs():
    result = search_noninjective_char2(trials=20, rng=random.Random(5))
    if result is not None:
        g, report = result
        assert not report.injective
        assert report.witness is not None
