import random

import pytest

from koszulrank.cancellation import (
    CyclicGraphError,
    DiGraph,
    LayoutError,
    build_cancellation_graph,
    classify_terms,
    contradiction_witness,
    random_3_acyclic,
    random_coeffs,
    random_dag,
)
from koszulrank import cli
from koszulrank.chain_maps import GradingMode, Homotopy, homotopy_perturb, iota, random_chain_map
from koszulrank.koszul import ComplexDescriptor, KElem
from koszulrank.polynomials import Char, Poly


def test_two_cycle_is_3_acyclic_but_not_acyclic():
    g = DiGraph(edges=[("a", "b"), ("b", "a")])
    assert g.is_l_acyclic(3)
    assert not g.is_l_acyclic(2)


def test_triangle_has_long_cycle():
    g = DiGraph(edges=[(1, 2), (2, 3), (3, 1)])
    assert not g.is_l_acyclic(3)
    assert not g.is_l_acyclic(2)


def test_dag_is_2_acyclic():
    g = DiGraph(edges=[(1, 2), (1, 3), (2, 3)])
    assert g.is_l_acyclic(2)


def test_l_acyclic_requires_l_at_least_2():
    with pytest.raises(ValueError):
        DiGraph().is_l_acyclic(1)


def test_no_self_loops():
    with pytest.raises(ValueError):
        DiGraph(edges=[(1, 1)])


def test_find_sink_on_path():
    g = DiGraph(edges=[("a", "b"), ("b", "c")])
    assert g.find_sink() == "c"


def test_find_sink_single_vertex():
    g = DiGraph(vertices=["v"])
    assert g.find_sink() == "v"


def test_find_sink_rejects_cycles():
    g = DiGraph(edges=[(1, 2), (2, 3), (3, 1)])
    with pytest.raises(CyclicGraphError):
        g.find_sink()
    with pytest.raises(CyclicGraphError):
        g.find_3_sink()


def test_find_3_sink_on_two_cycle():
    g = DiGraph(edges=[("a", "b"), ("b", "a")])
    sink = g.find_3_sink()
    assert sink in ("a", "b")
    assert g.is_3_sink(sink)


def test_sink_is_also_3_sink():
    g = DiGraph(edges=[("a", "b"), ("b", "c")])
    assert g.find_3_sink() == "c"


def test_acyclicity_matches_topological_sort():
    rng = random.Random(0)
    for _ in range(300):
        g = random_dag(rng)
        assert g.is_l_acyclic(2)
        # duplicating an edge backwards always makes a 2-cycle
        if g.edges:
            u, v = sorted(g.edges)[0]
            g.add_edge(v, u)
            assert not g.is_l_acyclic(2)


def test_random_3_acyclic_and_walk():
    rng = random.Random(1)
    for _ in range(300):
        g = random_3_acyclic(rng)
        assert g.is_l_acyclic(3)
        sink = g.find_3_sink()
        assert g.is_3_sink(sink)


def test_edge_text_round_trip():
    g = DiGraph(vertices=["lonely"], edges=[("a", "b"), ("b", "a"), ("b", "c")])
    again = DiGraph.from_edge_text(g.to_edge_text())
    assert again.to_edge_text() == g.to_edge_text()
    dot = g.to_dot()
    assert '"a" -> "b";' in dot and '"lonely";' in dot


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _one(n, char=Char.ZERO):
    return Poly.one(n, char)


def test_classification_of_multiplicative_map():
    g = iota(6, 1, Char.ZERO)
    tc = classify_terms(g, {(1, 2, 3): _one(6), (4, 5, 6): _one(6)})
    assert len(tc.regular) == 6
    assert all(elem.is_zero() for _, elem in tc.rest)
    assert tc.vertices() == [(1, 2, 3), (4, 5, 6)]


def test_classification_single_vertex():
    g = iota(6, 1, Char.ZERO)
    tc = classify_terms(g, {(1, 2, 3): _one(6)})
    assert len(tc.regular) == 3
    assert len(tc.rest) == 3


def test_classification_rejects_bad_layout():
    g = iota(6, 1, Char.ZERO)
    with pytest.raises(LayoutError):
        classify_terms(g, {(1, 2, 4): _one(6)})
    with pytest.raises(ValueError):
        classify_terms(g, {(1, 2, 3): Poly.zero(6, Char.ZERO)})


def test_classification_reconstructs_expansion():
    rng = random.Random(2)
    for char in (Char.ZERO, Char.TWO):
        g = random_chain_map(6, 1, char, rng)
        coeffs = {
            (1, 2, 3): Poly.parse("t1 + 1", 6, char),
            (4, 5, 6): Poly.parse("t4^2", 6, char),
        }
        tc = classify_terms(g, coeffs)
        total = g.target.zero()
        for vertex, elem in tc.regular:
            total = total + elem.scale(tc.coeffs[vertex])
        for vertex, elem in tc.rest:
            total = total + elem.scale(tc.coeffs[vertex])
        direct = g.target.zero()
        for vertex, poly in coeffs.items():
            image = g.apply(g.source.generator(vertex).differential())
            direct = direct + image.project_wordlength(2).scale(poly)
        assert total == direct


def test_graph_of_multiplicative_map_has_no_edges():
    g = iota(6, 1, Char.ZERO)
    tc = classify_terms(g, {(1, 2, 3): _one(6), (4, 5, 6): _one(6)})
    analysis = build_cancellation_graph(tc)
    assert not analysis.graph.edges
    assert len(analysis.uncancelled) == 6
    assert not analysis.scheme


def test_graph_single_vertex_is_empty():
    g = iota(6, 1, Char.ZERO)
    tc = classify_terms(g, {(1, 2, 3): _one(6)})
    analysis = build_cancellation_graph(tc)
    assert not analysis.graph.edges
    assert analysis.graph.vertices == [(1, 2, 3)]


def test_engineered_correction_creates_one_edge():
    n, m = 6, 1
    g = iota(n, m, Char.ZERO)
    target = ComplexDescriptor(n, 0, Char.ZERO)
    value = KElem(target, {(2, 3): g.source.t(1, m + 1) * g.source.t(2, m) * g.source.t(3, m)})
    perturbed = homotopy_perturb(g, Homotopy({(6,): value}))
    tc = classify_terms(perturbed, {(1, 2, 3): _one(n), (4, 5, 6): _one(n)})
    analysis = build_cancellation_graph(tc)
    assert analysis.graph.edges == {((1, 2, 3), (4, 5, 6))}
    assert len(analysis.scheme) == 1
    assert analysis.scheme[0]["regular"]["vertex"] == "1,2,3"


def test_witness_on_multiplicative_map():
    g = iota(6, 1, Char.ZERO)
    report = contradiction_witness(g, {(1, 2, 3): _one(6), (4, 5, 6): _one(6)})
    assert report.nonzero
    assert report.acyclic3
    assert len(report.analysis.uncancelled) == 6
    assert report.sink_vertex in ((1, 2, 3), (4, 5, 6))
    assert report.surviving_term is not None


def test_witness_with_coefficient_outside_triple_support():
    g = iota(9, 1, Char.ZERO)
    coeffs = {(1, 2, 3): Poly.variable(9, Char.ZERO, 7)}
    report = contradiction_witness(g, coeffs)
    assert report.nonzero


def test_witness_random_trials():
    rng = random.Random(3)
    for char in (Char.ZERO, Char.TWO):
        for _ in range(25):
            g = random_chain_map(9, 1, char, rng)
            coeffs = {}
            for k in range(3):
                triple = (3 * k + 1, 3 * k + 2, 3 * k + 3)
                mono = tuple(rng.randint(0, 1) for _ in range(9))
                coeffs[triple] = Poly.monomial(9, char, mono)
            report = contradiction_witness(g, coeffs)
            assert report.nonzero, (char, coeffs)
            assert report.acyclic3
            assert report.analysis.graph.is_3_sink(report.sink_vertex)


def _expansion_from_images(g, coeffs):
    """The word-length-2 part of g(sum_T c_T d s_T), read from the images of g:
    the oracle of a witness's value."""
    expansion = g.target.zero()
    for triple, poly in coeffs.items():
        image = g.apply(g.source.generator(triple).differential())
        expansion = expansion + image.project_wordlength(2).scale(poly)
    return expansion


@pytest.mark.parametrize("char", list(Char))
def test_witness_value_equals_the_expansion_of_the_images(char):
    rng = random.Random(101)
    for n in range(3, 10):
        for m in range(3):
            for grading in (None, GradingMode.FULL):
                g = random_chain_map(n, m, char, rng, grading=grading)
                coeffs = random_coeffs(n, m, char, rng)
                assert contradiction_witness(g, coeffs).value == _expansion_from_images(g, coeffs), (n, m, grading)


@pytest.mark.parametrize("args", [
    "cancellation --n 9 --trials 5 --seed 7",
    "cancellation --n 9 --char 2 --m 2 --trials 5 --seed 7",
])
def test_witness_value_equals_the_expansion_of_the_images_on_the_golden_runs(args, monkeypatch, capsys):
    # the runs whose stdout digests tests/test_cli.py pins
    values = []
    witness = cli.contradiction_witness

    def checking(g, coeffs):
        report = witness(g, coeffs)
        values.append(report.value == _expansion_from_images(g, coeffs))
        return report

    monkeypatch.setattr(cli, "contradiction_witness", checking)
    assert cli.main(args.split()) == cli.EXIT_OK
    assert values == [True] * 5
