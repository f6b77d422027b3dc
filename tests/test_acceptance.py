"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines including runtimes.  Every tolerance and trial count is pinned here;
a falsification (a certified property failing on a verified random map)
aborts with a full dump of the offending map.
"""

import json
import random
import time
from itertools import product

from koszulrank.cancellation import contradiction_witness, random_3_acyclic, random_dag
from koszulrank.certificates import (
    CertificateFamily,
    certificate_generators,
    check_injectivity,
    improved_bound,
)
from koszulrank.chain_maps import (
    GradingMode,
    RankMethod,
    iota,
    random_chain_map,
    rank,
    verify_chain_map,
)
from koszulrank.cli import EXIT_OK, main
from koszulrank.hb_model import (
    ComplexMap,
    compose_to_gamma,
    construct_alpha,
    identity_map,
    koszul_filt_complex,
    rank_two_model,
    verify_beta,
)
from koszulrank.certificates import bound_report
from koszulrank.koszul import (
    ComplexDescriptor,
    random_homogeneous_kelem,
    random_kelem,
    truncated_homology_dim,
)
from koszulrank.polynomials import Char, Poly

BOTH_CHARS = (Char.ZERO, Char.TWO)


def _finish(number, label, start, budget, ok, detail=""):
    elapsed = time.time() - start
    line_ok = ok and elapsed < budget
    print(f"[{'PASS' if line_ok else 'FAIL'}] criterion {number}: {label} "
          f"({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def _dump(g, context):
    return f"{context}; offending map: {json.dumps(g.to_json_dict(), sort_keys=True)}"


def test_criterion_01_complex_correctness():
    start = time.time()
    rng = random.Random(101)
    ok = True
    detail = ""
    for n, m, char in product(range(1, 6), range(0, 4), BOTH_CHARS):
        desc = ComplexDescriptor(n, m, char)
        for indices in desc.index_sets():
            if not desc.generator(indices).differential().differential().is_zero():
                ok, detail = False, f"d^2 != 0 at s{indices}, n={n} m={m} {char}"
                break
        for _ in range(200):
            x = random_kelem(desc, rng)
            if not x.differential().differential().is_zero():
                ok, detail = False, f"d^2 != 0 on random element, n={n} m={m} {char}"
                break
        for _ in range(200):
            a = random_homogeneous_kelem(desc, rng)
            b = random_kelem(desc, rng)
            if a.is_zero():
                continue
            sign = -1 if (a.graded_degree() % 2 and char is Char.ZERO) else 1
            lhs = a.wedge(b).differential()
            rhs = a.differential().wedge(b) + a.wedge(b.differential()).scale(
                Poly.constant(n, char, sign)
            )
            if lhs != rhs:
                ok, detail = False, f"Leibniz fails, n={n} m={m} {char}"
                break
        if not ok:
            break
    _finish(1, "differential squares to zero and Leibniz holds", start, 60, ok, detail)


def test_criterion_02_homology_dimensions():
    start = time.time()
    ok = True
    detail = ""
    for n, m, char in product(range(1, 5), range(0, 3), BOTH_CHARS):
        total = sum(truncated_homology_dim(ComplexDescriptor(n, m, char)).values())
        expected = (m + 1) ** n
        if total != expected:
            ok, detail = False, f"total {total} != {expected} at n={n} m={m} {char}"
            break
    _finish(2, "homology totals equal (m+1)^n", start, 120, ok, detail)


def test_criterion_03_baseline_rank():
    start = time.time()
    rng = random.Random(103)
    ok = True
    detail = ""
    for char in BOTH_CHARS:
        for n in range(1, 7):
            g = iota(n, 1, char)
            exact = rank(g, RankMethod.EXACT)
            modular = rank(g, RankMethod.MODULAR, rng)
            if not exact == modular == 2**n:
                ok = False
                detail = f"rank(iota) n={n} {char}: exact={exact} modular={modular}"
                break
        if not ok:
            break
    _finish(3, "baseline map has full rank 2^n under both methods", start, 60, ok, detail)


def test_criterion_04_triple_and_block_certificates():
    start = time.time()
    ok = True
    detail = ""
    families = [
        (CertificateFamily.TRIPLE_DIFFS, None),
        (CertificateFamily.BLOCK_DIFFS, 4),
        (CertificateFamily.BLOCK_DIFFS, 5),
    ]
    for n, m, char in product(range(3, 7), (1, 2), BOTH_CHARS):
        subs = [
            certificate_generators(family, n, m, char, block_size=bs)
            for family, bs in families
        ]
        subs = [sub for sub in subs if len(sub)]
        rng = random.Random(f"crit4:{n}:{m}:{char.value}")
        for trial in range(100):
            g = random_chain_map(n, m, char, rng)
            for sub in subs:
                report = check_injectivity(g, sub, rng)
                if not report.injective:
                    ok = False
                    detail = _dump(g, f"certificate failed at n={n} m={m} {char} trial {trial}")
                    break
            if not ok:
                break
        if not ok:
            break
    _finish(4, "triple/block boundary certificates always injective", start, 600, ok, detail)


def test_criterion_05_mixed_base_certificate():
    start = time.time()
    ok = True
    detail = ""
    for n, m, char in product(range(2, 6), (1, 2), BOTH_CHARS):
        sub = certificate_generators(CertificateFamily.MIXED_BASE, n, m, char)
        rng = random.Random(f"crit5:{n}:{m}:{char.value}")
        for trial in range(100):
            g = random_chain_map(n, m, char, rng)
            report = check_injectivity(g, sub, rng)
            if not report.injective:
                ok = False
                detail = _dump(g, f"mixed-base failed at n={n} m={m} {char} trial {trial}")
                break
        if not ok:
            break
    _finish(5, "mixed base certificate injective in both characteristics", start, 600, ok, detail)


def test_criterion_06_full_grading_bound():
    start = time.time()
    ok = True
    detail = ""
    expected_bounds = {3: 8, 4: 10, 5: 12, 6: 16}
    for n in range(3, 7):
        if improved_bound(n) != expected_bounds[n]:
            ok, detail = False, f"bound formula mismatch at n={n}"
            break
        for m in (1, 2):
            sub = certificate_generators(CertificateFamily.MIXED_FULL, n, m, Char.ZERO)
            rng = random.Random(f"crit6:{n}:{m}")
            for trial in range(100):
                g = random_chain_map(n, m, Char.ZERO, rng, grading=GradingMode.FULL)
                report = check_injectivity(g, sub, rng)
                if not report.injective:
                    ok = False
                    detail = _dump(g, f"mixed-full failed at n={n} m={m} trial {trial}")
                    break
                observed = rank(g, RankMethod.MODULAR, rng)
                if observed < expected_bounds[n]:
                    ok = False
                    detail = _dump(g, f"rank {observed} < {expected_bounds[n]} at n={n} m={m}")
                    break
            if not ok:
                break
        if not ok:
            break
    _finish(6, "degree-preserving maps meet the improved bound", start, 900, ok, detail)


def test_criterion_07_cancellation_machinery():
    start = time.time()
    ok = True
    detail = ""
    n = 9
    triples = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
    for m in (1, 2):
        rng = random.Random(f"crit7:{m}")
        for trial in range(500):
            char = BOTH_CHARS[trial % 2]
            g = random_chain_map(n, m, char, rng)
            coeffs = {}
            while not any(p.terms for p in coeffs.values()):
                for triple in triples:
                    terms = {}
                    for _ in range(rng.randint(0, 2)):
                        mono = tuple(rng.randint(0, m) for _ in range(n))
                        terms[mono] = 1 if char is Char.TWO else rng.choice((1, -1))
                    coeffs[triple] = Poly(n, char, terms)
            coeffs = {t: p for t, p in coeffs.items() if p.terms}
            witness = contradiction_witness(g, coeffs)
            if not witness.nonzero:
                ok = False
                detail = _dump(g, f"expansion vanished at m={m} trial {trial} coeffs={coeffs}")
                break
            if not witness.acyclic3:
                ok = False
                detail = _dump(g, f"cancellation graph not 3-acyclic at m={m} trial {trial}")
                break
            if not witness.analysis.graph.is_3_sink(witness.sink_vertex):
                ok = False
                detail = _dump(g, f"walk returned a non-3-sink at m={m} trial {trial}")
                break
        if not ok:
            break
    _finish(7, "expansions stay nonzero with 3-acyclic graphs and valid 3-sinks",
            start, 600, ok, detail)


def test_criterion_08_graph_walks():
    start = time.time()
    rng = random.Random(108)
    ok = True
    detail = ""
    for i in range(1000):
        dag = random_dag(rng)
        sink = dag.find_sink()
        if dag.out_neighbors(sink):
            ok, detail = False, f"find_sink returned non-sink on DAG {i}"
            break
    if ok:
        for i in range(1000):
            g = random_3_acyclic(rng)
            vertex = g.find_3_sink()
            if not g.is_3_sink(vertex):
                ok, detail = False, f"find_3_sink returned non-3-sink on graph {i}"
                break
    _finish(8, "walks return verified sinks and 3-sinks on random graphs", start, 60, ok, detail)


def test_criterion_09_pipeline():
    start = time.time()
    ok = True
    detail = ""
    # toy pipeline on one variable: rank 2 matches the bound 2(1 + 0)
    m = 1
    toy = rank_two_model(m, Char.TWO)
    alpha = construct_alpha(toy, m)
    k0 = koszul_filt_complex(ComplexDescriptor(1, 0, Char.TWO))
    beta = ComplexMap(
        toy, k0, [k0.gen_elem(0), {1: Poly.t_power(1, Char.TWO, 1, m)}]
    )
    if not verify_beta(beta).passed:
        ok, detail = False, "toy outbound map failed verification"
    gamma = compose_to_gamma(alpha, beta)
    toy_rank = rank(gamma, RankMethod.EXACT)
    if ok and (not verify_chain_map(gamma).passed or toy_rank != 2 or improved_bound(1) != 2):
        ok, detail = False, f"toy pipeline rank {toy_rank} != 2"
    if ok:
        for char in BOTH_CHARS:
            k30 = koszul_filt_complex(ComplexDescriptor(3, 0, char))
            alpha = construct_alpha(k30, 1)
            gamma = compose_to_gamma(alpha, identity_map(k30))
            report = bound_report(gamma, rng=random.Random(109))
            if not (verify_chain_map(gamma).passed and report.satisfies_A):
                ok, detail = False, f"n=3 fixture pipeline fails satisfies_A in {char}"
                break
    _finish(9, "fixture pipelines compose to maps meeting the bound", start, 60, ok, detail)


def test_criterion_10_reproducibility(tmp_path):
    start = time.time()
    argv = ["certify", "--n", "3", "--m", "1", "--char", "0",
            "--grading", "full", "--trials", "5", "--seed", "2024"]
    out_a = tmp_path / "run_a.jsonl"
    out_b = tmp_path / "run_b.jsonl"
    code_a = main(argv + ["--out", str(out_a)])
    code_b = main(argv + ["--out", str(out_b)])
    ok = code_a == code_b == EXIT_OK and out_a.read_bytes() == out_b.read_bytes()
    _finish(10, "fixed-seed certify output is byte-identical", start, 60, ok,
            "" if ok else "runs differ")
