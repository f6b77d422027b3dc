"""Directed-graph bookkeeping for cancellation analysis of triple images.

Applying a map to a combination of triple boundaries and projecting to
word-length two yields, per triple, three canonical monomial summands (the
"regular terms", each carrying the (m+1)-st power of one triple index and the
m-th powers of the other two) plus three residual cocycle contributions (the
"rest terms").  Because the triples are pairwise disjoint, a regular term can
only ever be cancelled by a rest summand of a *different* triple; pairing up
matching summands and drawing an edge from the regular term's vertex to the
rest term's vertex produces a directed graph that is 3-acyclic for every
valid map, and a 3-sink of that graph pins down a surviving summand.

Several identical summands can make the pairing ambiguous, so a fixed greedy
scheme is used: regular terms are visited in ascending triple order and
descending graded-lex order of their monomials, and each takes the first
unused rest summand (same exterior support, monomial comparable by exact
divisibility) from another vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chain_maps import ChainMap
from .koszul import KElem, disjoint_blocks
from .polynomials import Char, Poly, add_scaled

__all__ = [
    "DiGraph",
    "CyclicGraphError",
    "LayoutError",
    "TermClassification",
    "CancellationAnalysis",
    "WitnessReport",
    "classify_terms",
    "build_cancellation_graph",
    "contradiction_witness",
    "random_coeffs",
    "random_dag",
    "random_3_acyclic",
]


class CyclicGraphError(ValueError):
    """A walk precondition (acyclicity or 3-acyclicity) does not hold."""


class LayoutError(ValueError):
    """Triple coefficients do not follow the canonical disjoint layout."""


class DiGraph:
    """Finite directed graph without self-loops.

    Vertices are arbitrary hashable values and keep their insertion order,
    which makes the walk procedures deterministic.
    """

    def __init__(self, vertices=(), edges=()):
        self.vertices: list = []
        self._index: dict = {}
        self.edges: set = set()
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    def add_vertex(self, v) -> None:
        if v not in self._index:
            self._index[v] = len(self.vertices)
            self.vertices.append(v)

    def add_edge(self, u, v) -> None:
        if u == v:
            raise ValueError("self-loops are not allowed")
        self.add_vertex(u)
        self.add_vertex(v)
        self.edges.add((u, v))

    def out_neighbors(self, u) -> list:
        outs = [v for (x, v) in self.edges if x == u]
        outs.sort(key=self._index.__getitem__)
        return outs

    def __eq__(self, other):
        if not isinstance(other, DiGraph):
            return NotImplemented
        return set(self.vertices) == set(other.vertices) and self.edges == other.edges

    __hash__ = None

    # ---------- cycle structure ----------

    def is_acyclic(self) -> bool:
        """Standard test via Kahn topological sort."""
        indeg = {v: 0 for v in self.vertices}
        for _, v in self.edges:
            indeg[v] += 1
        queue = [v for v in self.vertices if indeg[v] == 0]
        seen = 0
        while queue:
            u = queue.pop()
            seen += 1
            for w in self.out_neighbors(u):
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return seen == len(self.vertices)

    def has_cycle_of_length_at_least(self, length: int) -> bool:
        """Whether some simple directed cycle has at least the given length.

        Each cycle is searched from its minimal vertex only, which keeps the
        path enumeration from re-finding rotations.
        """
        index = self._index
        succ: dict = {v: [] for v in self.vertices}
        for u, v in self.edges:
            succ[u].append(v)
        for start in self.vertices:
            base = index[start]
            on_path = {start}
            path = [start]
            # iterative DFS over simple paths through vertices of index >= base
            frames = [iter(succ[start])]
            while frames:
                try:
                    w = next(frames[-1])
                except StopIteration:
                    frames.pop()
                    on_path.discard(path.pop())
                    continue
                if w == start:
                    if len(path) >= length:
                        return True
                    continue
                if index[w] < base or w in on_path:
                    continue
                path.append(w)
                on_path.add(w)
                frames.append(iter(succ[w]))
        return False

    def is_l_acyclic(self, length: int) -> bool:
        """No directed cycle of length >= the given bound (>= 2)."""
        if length < 2:
            raise ValueError("l-acyclicity is defined for l >= 2")
        if length == 2:
            return self.is_acyclic()
        return not self.has_cycle_of_length_at_least(length)

    # ---------- sinks ----------

    def find_sink(self):
        """Walk along edges until a vertex without outgoing edges is reached."""
        if not self.vertices:
            raise ValueError("empty graph has no sink")
        if not self.is_acyclic():
            raise CyclicGraphError("graph has a directed cycle; no sink walk possible")
        u = self.vertices[0]
        for _ in range(len(self.vertices) + 1):
            outs = self.out_neighbors(u)
            if not outs:
                return u
            u = outs[0]
        raise RuntimeError("sink walk failed to terminate on an acyclic graph")

    def find_3_sink(self):
        """Walk along edges ignoring return trips until stuck.

        The vertex reached has only ingoing edges except for at most one
        bidirectional pair.
        """
        if not self.vertices:
            raise ValueError("empty graph has no 3-sink")
        if not self.is_l_acyclic(3):
            raise CyclicGraphError("graph has a directed cycle of length >= 3")
        u = self.vertices[0]
        prev = None
        for _ in range(2 * len(self.vertices) + 2):
            options = [w for w in self.out_neighbors(u) if w != prev]
            if not options:
                return u
            prev, u = u, options[0]
        raise RuntimeError("3-sink walk failed to terminate on a 3-acyclic graph")

    def is_3_sink(self, v) -> bool:
        """Exhaustive predicate: at most one outgoing edge, and only inside a 2-cycle."""
        outs = self.out_neighbors(v)
        if not outs:
            return True
        return len(outs) == 1 and (outs[0], v) in self.edges

    # ---------- text forms ----------

    def to_edge_text(self) -> str:
        """One `u -> v` line per edge; isolated vertices appear on their own line."""
        lines = []
        touched = {u for u, _ in self.edges} | {v for _, v in self.edges}
        for v in self.vertices:
            if v not in touched:
                lines.append(str(v))
        for u, v in sorted(self.edges, key=lambda e: (self._index[e[0]], self._index[e[1]])):
            lines.append(f"{u} -> {v}")
        return "\n".join(lines)

    @classmethod
    def from_edge_text(cls, text: str) -> "DiGraph":
        g = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if "->" in line:
                u, v = (part.strip() for part in line.split("->", 1))
                g.add_edge(u, v)
            else:
                g.add_vertex(line)
        return g

    def to_dot(self, name: str = "G") -> str:
        lines = [f"digraph {name} {{"]
        touched = {u for u, _ in self.edges} | {v for _, v in self.edges}
        for v in self.vertices:
            if v not in touched:
                lines.append(f'  "{v}";')
        for u, v in sorted(self.edges, key=lambda e: (self._index[e[0]], self._index[e[1]])):
            lines.append(f'  "{u}" -> "{v}";')
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# random graphs (walk-property test harness)
# ---------------------------------------------------------------------------


def random_dag(rng, max_vertices: int = 10, edge_prob: float = 0.3) -> DiGraph:
    """Random directed acyclic graph on 1..max_vertices vertices."""
    n = rng.randint(1, max_vertices)
    order = list(range(n))
    rng.shuffle(order)
    g = DiGraph(vertices=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                g.add_edge(order[i], order[j])
    return g


def _reachable_avoiding_direct(g: DiGraph, u, v) -> bool:
    """Whether a directed path u -> ... -> v of length >= 2 exists."""
    frontier = [w for w in g.out_neighbors(u) if w != v]
    seen = set(frontier)
    while frontier:
        x = frontier.pop()
        if x == v:
            return True
        for w in g.out_neighbors(x):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return False


def random_3_acyclic(rng, max_vertices: int = 10, edge_prob: float = 0.3, flips: int = 4) -> DiGraph:
    """Random 3-acyclic graph: a DAG plus safe 2-cycle insertions.

    Reversing an edge (u, v) adds only a 2-cycle as long as the only current
    path from u to v is that edge, so each insertion is checked before it is
    applied and 3-acyclicity is preserved throughout.
    """
    g = random_dag(rng, max_vertices, edge_prob)
    for _ in range(flips):
        if not g.edges:
            break
        u, v = rng.choice(sorted(g.edges, key=lambda e: (g._index[e[0]], g._index[e[1]])))
        if (v, u) not in g.edges and not _reachable_avoiding_direct(g, u, v):
            g.add_edge(v, u)
    return g


# ---------------------------------------------------------------------------
# term classification
# ---------------------------------------------------------------------------


@dataclass
class TermClassification:
    """Per-vertex split of the word-length-2 expansion into regular and rest parts.

    Entries are unscaled by the combination coefficients; ``coeffs`` keeps
    those separately so the full expansion can be reconstructed exactly.
    """

    chain_map: ChainMap
    coeffs: dict
    regular: list  # (triple, single-monomial KElem)
    rest: list     # (triple, KElem)

    def vertices(self) -> list:
        return sorted(self.coeffs)


def classify_terms(g: ChainMap, coeffs: dict) -> TermClassification:
    """Split each vertex contribution into 3 regular and 3 rest summands.

    The coefficients map canonical disjoint triples (1,2,3), (4,5,6), ... to
    polynomial multipliers; vertices with zero coefficient are dropped and at
    least one nonzero coefficient must remain.
    """
    n = g.source.nvars
    allowed = set(disjoint_blocks(n))
    live: dict = {}
    for triple, poly in coeffs.items():
        triple = tuple(triple)
        if triple not in allowed:
            raise LayoutError(f"triple {triple} is not part of the canonical disjoint layout")
        if poly.nvars != n or poly.char is not g.source.char:
            raise ValueError("coefficient polynomial does not match the map")
        if poly.terms:
            live[triple] = poly
    if not live:
        raise ValueError("all triple coefficients vanish")

    regular = []
    rest = []
    for triple in sorted(live):
        rest_sum = g.target.zero()
        for pair, coeff in g.source.boundary(triple):
            pair_mono = g.source.monomial(pair)
            regular_elem = KElem(g.target, {pair: pair_mono * coeff})
            image2 = g.images[pair].project_wordlength(2)
            rest_elem = (image2 - KElem(g.target, {pair: pair_mono})).scale(coeff)
            regular.append((triple, regular_elem))
            rest.append((triple, rest_elem))
            rest_sum = rest_sum + rest_elem
        if not rest_sum.differential().is_zero():
            raise ValueError(
                f"rest parts of vertex {triple} are not closed; the input map is not a chain map"
            )
    return TermClassification(g, live, regular, rest)


# ---------------------------------------------------------------------------
# cancellation scheme and witness
# ---------------------------------------------------------------------------


@dataclass
class CancellationAnalysis:
    graph: DiGraph
    scheme: list
    uncancelled: list

    def to_json_dict(self) -> dict:
        return {
            "edges": sorted(
                f"{','.join(map(str, u))} -> {','.join(map(str, v))}" for u, v in self.graph.edges
            ),
            "scheme": self.scheme,
            "uncancelled": self.uncancelled,
        }


def _mono_divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def build_cancellation_graph(tc: TermClassification) -> CancellationAnalysis:
    """Pair matching regular and rest summands across vertices; edges record them.

    A regular summand of one vertex may pair with a rest summand of a
    different vertex when both carry the same exterior support and one
    monomial divides the other (cancellation up to ring multiples).  The
    pairing is greedy and deterministic; every pair adds the edge
    (regular's vertex, rest's vertex).  Regular terms left unmatched are
    reported; with at least two of them at a 3-sink the expansion cannot
    vanish.
    """
    graph = DiGraph(vertices=tc.vertices())
    # explode rest elements into monomial records
    pool = []
    for vertex, elem in tc.rest:
        for jset, poly in elem.coeffs.items():
            for mono, coeff in poly.terms.items():
                pool.append({"vertex": vertex, "jset": jset, "mono": mono, "used": False})
    pool.sort(key=lambda r: (r["vertex"], -sum(r["mono"]), tuple(-x for x in r["mono"]), r["jset"]))

    regular_records = []
    for vertex, elem in tc.regular:
        (jset, poly), = elem.coeffs.items()
        (mono, coeff), = poly.terms.items()
        regular_records.append({"vertex": vertex, "jset": jset, "mono": mono})
    regular_records.sort(key=lambda r: (r["vertex"], -sum(r["mono"]), tuple(-x for x in r["mono"])))

    scheme = []
    uncancelled = []
    for reg in regular_records:
        partner = None
        for cand in pool:
            if cand["used"] or cand["vertex"] == reg["vertex"] or cand["jset"] != reg["jset"]:
                continue
            if _mono_divides(reg["mono"], cand["mono"]) or _mono_divides(cand["mono"], reg["mono"]):
                partner = cand
                break
        if partner is None:
            uncancelled.append(_record_label(reg))
        else:
            partner["used"] = True
            graph.add_edge(reg["vertex"], partner["vertex"])
            scheme.append({"regular": _record_label(reg), "rest": _record_label(partner)})
    return CancellationAnalysis(graph, scheme, uncancelled)


def _record_label(record: dict) -> dict:
    mono_parts = [
        f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}"
        for i, e in enumerate(record["mono"])
        if e
    ]
    return {
        "vertex": ",".join(map(str, record["vertex"])),
        "term": f"{'*'.join(mono_parts) or '1'} * s{{{','.join(map(str, record['jset']))}}}",
    }


@dataclass
class WitnessReport:
    nonzero: bool
    sink_vertex: tuple | None
    surviving_term: str | None
    acyclic3: bool
    analysis: CancellationAnalysis
    value: KElem = field(repr=False, default=None)

    @property
    def sink_valid(self) -> bool:
        """The sink exists and is a 3-sink of the cancellation graph."""
        return self.sink_vertex is not None and self.analysis.graph.is_3_sink(self.sink_vertex)

    @property
    def holds(self) -> bool:
        """The verdict: the expansion is nonzero, the graph 3-acyclic and the sink valid."""
        return self.nonzero and self.acyclic3 and self.sink_valid


def random_coeffs(n: int, m: int, char: Char, rng) -> dict:
    """Nonzero random multipliers of the canonical triples, redrawn until one exists:
    up to two monomials each, exponents in 0..m+1, coefficients +-1 (1 in char 2)."""
    triples = disjoint_blocks(n)
    if not triples:
        raise ValueError("need n >= 3 for a canonical triple")
    while True:
        coeffs = {}
        for triple in triples:
            terms = {}
            for _ in range(rng.randint(0, 2)):
                mono = tuple([rng.randint(0, m + 1) for _ in range(n)])
                terms[mono] = 1 if char is Char.TWO else rng.choice((1, -1))
            coeffs[triple] = Poly(n, char, terms)
        if any(p.terms for p in coeffs.values()):
            return {t: p for t, p in coeffs.items() if p.terms}


def contradiction_witness(g: ChainMap, coeffs: dict) -> WitnessReport:
    """Expand the combination of triple boundaries and exhibit a survivor.

    The word-length-2 part of g(d s_T) is the sum of the vertex's regular
    and rest summands (they split coeff * g(s_pair) per pair); a zero result
    would be a falsification event and is returned with the full scheme
    attached so callers can surface it loudly.  When nonzero, the 3-sink of
    the cancellation graph and one of its surviving regular summands realize
    the counting argument on the concrete instance.
    """
    tc = classify_terms(g, coeffs)
    expansion: dict = {}
    for vertex, elem in tc.regular + tc.rest:
        add_scaled(expansion, elem.coeffs, tc.coeffs[vertex])
    value = KElem._raw(g.target, expansion)
    analysis = build_cancellation_graph(tc)
    acyclic3 = analysis.graph.is_l_acyclic(3)
    nonzero = not value.is_zero()
    sink = None
    surviving = None
    if acyclic3 and analysis.graph.vertices:
        sink = analysis.graph.find_3_sink()
        sink_label = ",".join(map(str, sink))
        for entry in analysis.uncancelled:
            if entry["vertex"] == sink_label:
                surviving = entry["term"]
                break
        if surviving is None and nonzero:
            # fall back to any regular summand of the sink whose scaled
            # expansion still appears in the value
            for vertex, elem in tc.regular:
                if vertex != sink:
                    continue
                scaled = elem.scale(tc.coeffs[vertex])
                for jset, poly in scaled.coeffs.items():
                    present = value.coeffs.get(jset)
                    if present and any(monomial in present.terms for monomial in poly.terms):
                        (jkey, jpoly), = elem.coeffs.items()
                        (mono, _), = jpoly.terms.items()
                        surviving = _record_label({"vertex": vertex, "jset": jkey, "mono": mono})["term"]
                        break
                if surviving:
                    break
    return WitnessReport(nonzero, sink, surviving, acyclic3, analysis, value)
