"""Filtered free cochain complexes over the polynomial ring, and the maps
that route a level-m Koszul complex through such a complex down to level 0.

A complex here is free on finitely many graded generators, with a twisted
differential given by a polynomial matrix, a filtration level per generator
(the differential must lower levels), and an augmentation to the base field
that is onto in cohomology.  Complexes of this shape admit a map in from the
level-m Koszul complex whenever their cohomology vanishes above m, and a
filtration-preserving map out to the level-0 Koszul complex; composing the
two yields a unital chain map whose rank is bounded by the number of
generators.  This module verifies instances of all three statements and
constructs the inbound map by solving the lifting equations with exact
linear algebra, one multidegree strand at a time where the complex is
Z^n-graded.

Elements are plain sparse dicts mapping generator index -> polynomial
coefficient, updated through :func:`polynomials.add_into` and
:func:`polynomials.add_scaled`.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .chain_maps import ChainMap
from .koszul import ComplexDescriptor, KElem, IndexSet
from .linalg import field_rank, solve_linear
from .polynomials import Char, Poly, _norm_coeff, add_into, add_scaled, monomials_of_degree, scale_map

__all__ = [
    "Generator",
    "FiltComplex",
    "ComplexMap",
    "FiltrationReport",
    "AlphaReport",
    "BetaReport",
    "VanishingHypothesisError",
    "TruncationError",
    "LiftingError",
    "verify_filtration",
    "verify_alpha",
    "construct_alpha",
    "verify_beta",
    "compose_to_gamma",
    "koszul_filt_complex",
    "rank_two_model",
    "twisted_two_var_model",
    "linear_forms_koszul_complex",
    "shuffled_complex",
    "identity_map",
]


class VanishingHypothesisError(ValueError):
    """Cohomology fails to vanish above the requested level."""


class TruncationError(ValueError):
    """The degree truncation is too small for the requested construction."""


class LiftingError(RuntimeError):
    """A lifting equation turned out unsolvable (inconsistent input complex)."""


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    level: int


def _interval_counts(widths: list, limit: int) -> list[int]:
    """counts[s] = #{c in N^n : |c| = s, c_i < widths[i]} for s = 0..limit.

    A width of None leaves its coordinate unbounded; the counts are the
    coefficients of the product of the polynomials 1 + x + ... + x^(w - 1).
    """
    counts = [1] + [0] * limit
    for width in widths:
        running = 0
        spread = []
        for s in range(limit + 1):
            running += counts[s]
            if width is not None and s >= width:
                running -= counts[s - width]
            spread.append(running)
        counts = spread
    return counts


def _bits(mask: int):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiltComplex:
    """Free graded complex over the polynomial ring with filtration and augmentation.

    When every differential entry is one scalar times one monomial, and the
    monomials agree around every cycle of entries, d is Z^n-graded: each
    generator gets a multidegree (``_multidegrees``) and every graded degree
    splits into small multidegree strands, on which d is the scalar matrix
    ``_scalar_columns``.  Which generators a strand holds is read from the
    bitmasks of ``_admission``.  ``homology_dims`` ranks strand classes
    instead of whole degrees, and counts the strands once per group of
    classes that count their strands alike (``_strand_pieces``);
    ``solve_diff`` solves in the one strand its right-hand side lies in.
    ``degree_piece`` writes one graded degree as sparse equations; it is
    ranked and solved only for complexes that are not Z^n-graded, and
    solved for right-hand sides that span several strands.

    An instance must not be mutated after construction: the multidegrees
    and the ranks ``homology_dims`` has computed are kept on the instance
    and read back.
    """

    def __init__(self, nvars: int, char: Char, generators, diff, augmentation):
        self.nvars = nvars
        self.char = char
        self.generators: list[Generator] = list(generators)
        # diff maps column generator index -> list of (row generator index, Poly),
        # one nonzero Poly per (row, column): repeated entries are summed
        self.diff: dict[int, list] = {}
        for col, entries in diff.items():
            merged: dict = {}
            for row, poly in entries:
                if poly.nvars != nvars or poly.char is not char:
                    raise ValueError("differential entry does not match the complex")
                merged[row] = merged[row] + poly if row in merged else poly
            if kept := [(row, poly) for row, poly in merged.items() if poly.terms]:
                self.diff[col] = kept
        self.augmentation: list = [
            _norm_coeff(char, Fraction(v) if isinstance(v, str) else v) for v in augmentation
        ]
        if len(self.augmentation) != len(self.generators):
            raise ValueError("augmentation vector length must match the basis")
        for col, entries in self.diff.items():
            for row, poly in entries:
                if not 0 <= row < len(self.generators) or not 0 <= col < len(self.generators):
                    raise ValueError("differential index out of range")
                shift = self.generators[col].degree + 1 - self.generators[row].degree
                if any(char.t_degree * sum(pm) != shift for pm in poly.terms):
                    raise ValueError(f"d({self.generators[col].name}) has a term not of degree +1")
        self.koszul_descriptor: ComplexDescriptor | None = None
        # (basis size, rank of d) for degrees -1, 0, 1, ...; see homology_dims
        self._pieces: list[tuple[int, int]] = []

    def __eq__(self, other):
        if not isinstance(other, FiltComplex):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.char is other.char
            and self.generators == other.generators
            and {c: sorted(e, key=lambda rp: rp[0]) for c, e in self.diff.items()}
            == {c: sorted(e, key=lambda rp: rp[0]) for c, e in other.diff.items()}
            and self.augmentation == other.augmentation
        )

    __hash__ = None

    # ---------- elements ----------

    def gen_elem(self, index: int) -> dict:
        return {index: Poly.one(self.nvars, self.char)}

    def apply_diff(self, a: dict) -> dict:
        out: dict = {}
        for g, coeff in a.items():
            for row, poly in self.diff.get(g, ()):
                prod = coeff * poly
                if not prod.terms:
                    continue
                add_into(out, row, prod)
        return out

    def augment(self, a: dict):
        """Evaluate the augmentation (variables act trivially, so t -> 0)."""
        zero_mono = (0,) * self.nvars
        total = 0
        for g, poly in a.items():
            c = poly.terms.get(zero_mono)
            if c:
                total = total + c * self.augmentation[g]
        if self.char is Char.TWO:
            total &= 1
        return total

    def max_level(self) -> int:
        return max((g.level for g in self.generators), default=0)

    # ---------- graded pieces ----------

    def basis_at(self, degree: int) -> list:
        """(mono, generator index) pairs spanning one graded degree."""
        td = self.char.t_degree
        out = []
        for idx, gen in enumerate(self.generators):
            rem = degree - gen.degree
            if rem < 0 or rem % td:
                continue
            for mono in monomials_of_degree(self.nvars, rem // td):
                out.append((mono, idx))
        return out

    def _coordinate_key(self, degree: int):
        """An injective int key on the (mono, generator index) coordinates of one degree.

        The key is linear in mono: key(mono + pm, g) = key(mono, 0) + key(pm, g)
        whenever mono + pm is a coordinate of that degree.
        """
        lowest = min((g.degree for g in self.generators), default=0)
        radix = max(1, (degree - lowest) // self.char.t_degree + 1)  # > any exponent
        ngens = len(self.generators)

        def key(mono, gidx: int) -> int:
            code = 0
            for e in mono:
                code = code * radix + e
            return code * ngens + gidx

        return key

    def degree_piece(self, degree: int):
        """The differential on one graded degree, as sparse equations over the field.

        Returns (basis, equations): basis is ``basis_at(degree)``, and
        equations maps the ``_coordinate_key(degree + 1)`` of each coordinate
        of degree + 1 that d reaches to the row of d there, a dict from basis
        position to coefficient.  d has one entry per (row, column) and the
        key is injective, so each position enters each row at most once.
        """
        basis = self.basis_at(degree)
        key = self._coordinate_key(degree + 1)
        shifts = {
            gidx: [(key(pm, row), coeff) for row, poly in entries for pm, coeff in poly.terms.items()]
            for gidx, entries in self.diff.items()
        }
        equations: dict = {}
        for j, (mono, gidx) in enumerate(basis):
            base = key(mono, 0)
            for shift, coeff in shifts.get(gidx, ()):
                equations.setdefault(base + shift, {})[j] = coeff
        return basis, equations

    def homology_dims(self, max_degree: int) -> dict[int, int]:
        """Cohomology dimension per degree 0..max_degree by exact ranks.

        A Z^n-graded complex is ranked strand by strand (``_strand_pieces``);
        any other complex by eliminating each graded degree's
        ``degree_piece``.  The basis size and the rank of d of each degree,
        from degree -1 (whose boundaries land in degree 0) up, are kept on
        the instance, so a later call ranks only degrees not seen before.
        """
        pieces = self._pieces
        if self._multidegrees is not None and len(pieces) - 1 <= max_degree:
            pieces.extend(self._strand_pieces(len(pieces) - 1, max_degree))
        for degree in range(len(pieces) - 1, max_degree + 1):
            basis, equations = self.degree_piece(degree)
            # popping hands each row over to the elimination, so the rows and
            # the echelon form built from them never both exist in full
            rank = field_rank((equations.pop(k) for k in list(equations)), self.char)
            pieces.append((len(basis), rank))
        return {
            degree: pieces[degree + 1][0] - pieces[degree + 1][1] - pieces[degree][1]
            for degree in range(max_degree + 1)
        }

    @cached_property
    def _multidegrees(self) -> list[tuple] | None:
        """A multidegree in N^n per generator making d Z^n-graded, or None.

        An entry c t^e from column g to row r asks for mdeg(g) = mdeg(r) + e.
        A breadth-first walk over the entries assigns the multidegrees, and
        each connected component is shifted so every coordinate's minimum is
        0.  None when some entry has more than one term or two walks
        disagree.
        """
        links: list[list] = [[] for _ in self.generators]
        for col, entries in self.diff.items():
            for row, poly in entries:
                if len(poly.terms) != 1:
                    return None
                (exps,) = poly.terms
                links[col].append((row, tuple(-e for e in exps)))
                links[row].append((col, exps))
        mdeg: list = [None] * len(self.generators)
        for root in range(len(mdeg)):
            if mdeg[root] is not None:
                continue
            mdeg[root] = (0,) * self.nvars
            component = [root]
            for g in component:  # grows while it is walked: breadth first
                for other, step in links[g]:
                    want = tuple(a + e for a, e in zip(mdeg[g], step))
                    if mdeg[other] is None:
                        mdeg[other] = want
                        component.append(other)
                    elif mdeg[other] != want:
                        return None
            lowest = [min(exps) for exps in zip(*(mdeg[g] for g in component))]
            for g in component:
                mdeg[g] = tuple(a - low for a, low in zip(mdeg[g], lowest))
        return mdeg

    @cached_property
    def _admission(self) -> tuple[list, dict]:
        """Bitmasks of generators (bit g for generator g) that decide strand membership.

        Returns (coordinates, by_height).  coordinates holds, per coordinate,
        its cuts (the distinct exponents of the multidegrees, ascending, so
        the first is 0) and per cut the mask of the generators whose exponent
        is at most that cut; by_height maps each height deg g - t_degree *
        |mdeg g| to the mask of its generators.  The strand of b admits the
        AND, over the coordinates, of the mask of the largest cut <= b_i.
        Only meaningful when ``_multidegrees`` is not None.
        """
        mdeg = self._multidegrees
        coordinates = []
        for exps in zip(*mdeg):
            at: dict[int, int] = {}
            for g, e in enumerate(exps):
                at[e] = at.get(e, 0) | 1 << g
            cuts = sorted(at)
            masks, mask = [], 0
            for cut in cuts:
                mask |= at[cut]
                masks.append(mask)
            coordinates.append((cuts, masks))
        td = self.char.t_degree
        by_height: dict[int, int] = {}
        for g, (gen, exps) in enumerate(zip(self.generators, mdeg)):
            h = gen.degree - td * sum(exps)
            by_height[h] = by_height.get(h, 0) | 1 << g
        return coordinates, by_height

    @cached_property
    def _scalar_columns(self) -> dict:
        """The scalar column of d at each generator of a Z^n-graded complex.

        Maps column generator -> {row generator: coefficient}; on every
        strand d is this matrix restricted to the strand's generators.  Only
        meaningful when ``_multidegrees`` is not None (every entry has one
        term).
        """
        return {
            col: {row: coeff for row, poly in entries for coeff in poly.terms.values()}
            for col, entries in self.diff.items()
        }

    def _strand_pieces(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """(basis size, rank of d) of degrees lo..hi, summed over multidegree strands.

        The strand of b in N^n is spanned by t^(b - mdeg g) g over the
        generators g with mdeg g <= b; that element has degree
        t_degree * |b| + height(g), and d acts on the strand by the scalar
        matrix of d.  Along one coordinate, every b_i from one cut (generator
        exponent) up to the next admits the same generators, so the strands
        fall into finitely many classes, each admitting the AND of one
        ``_admission`` mask per coordinate.  A class is ranked once per
        height through ``field_rank``; classes starting beyond ``hi`` are
        skipped.  A class's strands with a given |b| = least + s number
        ``_interval_counts(widths, ...)[s]``, a product of interval
        polynomials (stars and bars) that depends only on the multiset of
        its widths and on its least |b|.  So every class with the same sorted
        widths, least |b| and height adds the same counts to the same
        degrees: their basis sizes and ranks are summed first, exactly, and
        the strands are counted once per such group.
        """
        td = self.char.t_degree
        coordinates, by_height = self._admission
        columns = self._scalar_columns
        pieces = [[0, 0] for _ in range(lo, hi + 1)]
        lowest = min(by_height, default=0)
        top = (hi - lowest) // td  # no strand with a larger |b| reaches degree hi

        def span(widths: tuple, least: int, h: int) -> range:
            """The s >= 0 whose strands, |b| = least + s at height h, land in
            lo..hi and number more than 0."""
            first = max(0, -((td * least + h - lo) // td))
            last = (hi - h) // td - least
            if 0 not in widths:  # every width bounded: counts[s] = 0 beyond sum(width - 1)
                last = min(last, sum(widths) - len(widths))
            return range(first, last + 1)

        # (admitted generators, least |b|, widths) per class; an unbounded width is 0
        classes = [((1 << len(self.generators)) - 1, 0, ())]
        for cuts, masks in coordinates:
            steps = [b - a for a, b in zip(cuts, cuts[1:])] + [0]
            classes = [
                (admitted & mask, least + cut, widths + (width,))
                for admitted, least, widths in classes
                for cut, mask, width in zip(cuts, masks, steps)
                if admitted & mask and td * (least + cut) + lowest <= hi
            ]
        groups: dict[tuple, list] = {}  # (sorted widths, least, height) -> [size, rank]
        for admitted, least, widths in classes:
            widths = tuple(sorted(widths))
            for h, mask in by_height.items():
                cols = admitted & mask
                if not cols or not span(widths, least, h):
                    continue
                vectors = [columns[g] for g in _bits(cols) if g in columns]
                group = groups.setdefault((widths, least, h), [0, 0])
                group[0] += cols.bit_count()
                group[1] += field_rank(vectors, self.char) if vectors else 0
        counted: dict[tuple, list] = {}
        for (widths, least, h), (size, rank) in groups.items():
            counts = counted.get((widths, least))
            if counts is None:
                unbounded = [width or None for width in widths]
                counts = counted[widths, least] = _interval_counts(unbounded, top - least)
            for s in span(widths, least, h):
                piece = pieces[td * (least + s) + h - lo]
                piece[0] += counts[s] * size
                piece[1] += counts[s] * rank
        return [tuple(piece) for piece in pieces]

    def solve_diff(self, degree: int, rhs: dict, augment_to=None) -> dict | None:
        """An x in one graded degree with d(x) = rhs, or None if none exists.

        With ``augment_to`` given, x must also augment to that value.  When
        ``_strand_of`` finds one strand holding the problem, only that
        strand's scalar system is solved; otherwise the whole
        ``degree_piece``.  Both give the same x: ``solve_linear`` returns the
        solution supported on the leading coordinates of the row space, and
        the degree's matrix is block-diagonal by strand, with each strand's
        unknowns in the same relative order as their basis positions.
        """
        td = self.char.t_degree
        for gidx, poly in rhs.items():
            if any(self.generators[gidx].degree + td * sum(pm) != degree + 1 for pm in poly.terms):
                return None  # d(x) has no term outside degree + 1
        strand = self._strand_of(degree, rhs, augment_to)
        if strand is None:
            coordinates, system = self._degree_system(degree, rhs)
        else:
            coordinates, system = self._strand_system(degree, strand, rhs)
        if augment_to is not None:
            zero_mono = (0,) * self.nvars
            aug_row = {
                j: self.augmentation[gidx]
                for j, (mono, gidx) in coordinates.items()
                if mono == zero_mono and self.augmentation[gidx]
            }
            system.append((aug_row, augment_to))
        solution = solve_linear(system, self.char)
        if solution is None:
            return None
        elem: dict = {}
        for j, value in solution.items():
            mono, gidx = coordinates[j]
            add_into(elem, gidx, Poly.monomial(self.nvars, self.char, mono, value))
        return elem

    def _strand_of(self, degree: int, rhs: dict, augment_to) -> tuple | None:
        """The multidegree b whose strand holds every term of rhs and, with
        ``augment_to``, every generator of this degree that augments nonzero.

        None when the complex is not Z^n-graded or no single strand holds
        them all (they span several strands, or there are none).
        """
        mdeg = self._multidegrees
        if mdeg is None:
            return None
        strands = {
            tuple(a + e for a, e in zip(mdeg[gidx], pm))
            for gidx, poly in rhs.items()
            for pm in poly.terms
        }
        if augment_to is not None:
            strands.update(
                mdeg[g] for g, gen in enumerate(self.generators)
                if gen.degree == degree and self.augmentation[g]
            )
        return strands.pop() if len(strands) == 1 else None

    def _degree_system(self, degree: int, rhs: dict) -> tuple[dict, list]:
        """The equations d(x) = rhs over the whole degree, from ``degree_piece``.

        Returns (unknown -> (mono, generator index), system); the unknowns
        are the basis positions and the system is ``solve_linear``'s rows.
        """
        basis, equations = self.degree_piece(degree)
        key = self._coordinate_key(degree + 1)
        system = [
            (equations.pop(key(pm, gidx), {}), coeff)
            for gidx, poly in rhs.items()
            for pm, coeff in poly.terms.items()
        ]
        system.extend((eq, 0) for eq in equations.values())
        return dict(enumerate(basis)), system

    def _strand_system(self, degree: int, b: tuple, rhs: dict) -> tuple[dict, list]:
        """The equations d(x) = rhs within the strand of multidegree b, which holds rhs.

        Returns what ``_degree_system`` does.  The unknowns are the
        generators g with mdeg g <= b in this degree, read from ``_admission``
        in increasing g, each standing for the coordinate t^(b - mdeg g) g;
        the equations are the scalar columns of d, indexed by row generator.
        A strand holds each generator at most once, so each generator of rhs
        has one term here.
        """
        mdeg = self._multidegrees
        cuts_masks, by_height = self._admission
        # every unknown g has height deg g - td |mdeg g| = degree - td |b|
        admitted = by_height.get(degree - self.char.t_degree * sum(b), 0)
        for (cuts, masks), f in zip(cuts_masks, b):
            admitted &= masks[bisect_right(cuts, f) - 1]
        coordinates = {g: (tuple(f - e for f, e in zip(b, mdeg[g])), g) for g in _bits(admitted)}
        equations: dict = {}  # row generator -> its row over the unknowns
        for g in coordinates:
            for row, coeff in self._scalar_columns.get(g, {}).items():
                equations.setdefault(row, {})[g] = coeff
        system = [
            (equations.pop(gidx, {}), coeff)
            for gidx, poly in rhs.items()
            for coeff in poly.terms.values()
        ]
        system.extend((eq, 0) for eq in equations.values())
        return coordinates, system

    def unit_cocycle(self) -> dict | None:
        """A degree-0 cocycle with augmentation 1, or None if none exists."""
        return self.solve_diff(0, {}, augment_to=1)

    # ---------- serialization ----------

    def to_json_dict(self) -> dict:
        return {
            "n": self.nvars,
            "char": self.char.value,
            "basis": [
                {"name": g.name, "degree": g.degree, "level": g.level}
                for g in self.generators
            ],
            "diff": sorted(
                [row, col, str(poly)]
                for col, entries in self.diff.items()
                for row, poly in entries
            ),
            "augmentation": [str(v) for v in self.augmentation],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiltComplex":
        char = Char(data["char"])
        nvars = data["n"]
        gens = [Generator(b["name"], b["degree"], b["level"]) for b in data["basis"]]
        diff: dict[int, list] = {}
        for row, col, text in data["diff"]:
            diff.setdefault(col, []).append((row, Poly.parse(text, nvars, char)))
        c = cls(nvars, char, gens, diff, data["augmentation"])
        report = verify_filtration(c)
        if not report.passed:
            raise ValueError("complex file violates invariants: " + "; ".join(report.violations))
        return c

    @classmethod
    def from_json(cls, text: str) -> "FiltComplex":
        return cls.from_json_dict(json.loads(text))


@dataclass
class FiltrationReport:
    d_squared_ok: bool
    levels_ok: bool
    lowering_ok: bool
    augmentation_ok: bool
    surjection_ok: bool
    violations: list[str] = field(default_factory=list)
    unit: dict | None = None  # the degree-0 cocycle with augmentation 1 that was found

    @property
    def passed(self) -> bool:
        return (
            self.d_squared_ok
            and self.levels_ok
            and self.lowering_ok
            and self.augmentation_ok
            and self.surjection_ok
        )


def verify_filtration(c: FiltComplex) -> FiltrationReport:
    """Check the complex axioms: d^2 = 0, level bookkeeping, lowering, augmentation."""
    violations: list[str] = []
    d_cols = [dict(c.diff.get(col, ())) for col in range(len(c.generators))]
    d_squared_ok = True
    for col, d_col in enumerate(d_cols):
        if c.apply_diff(d_col):
            d_squared_ok = False
            violations.append(f"d(d({c.generators[col].name})) != 0")
    top = c.max_level()
    used_levels = {g.level for g in c.generators}
    levels_ok = all(0 <= g.level for g in c.generators) and used_levels == set(range(top + 1))
    if not levels_ok:
        violations.append("filtration levels do not form a contiguous partition 0..L")
    lowering_ok = True
    for col, entries in c.diff.items():
        lvl = c.generators[col].level
        for row, poly in entries:
            if c.generators[row].level >= lvl:
                lowering_ok = False
                violations.append(
                    f"d({c.generators[col].name}) hits level {c.generators[row].level} >= {lvl}"
                )
    augmentation_ok = True
    for idx, gen in enumerate(c.generators):
        if c.augmentation[idx] and gen.degree != 0:
            augmentation_ok = False
            violations.append(f"augmentation supported on {gen.name} of degree {gen.degree}")
    for col, d_col in enumerate(d_cols):
        if c.augment(d_col):
            augmentation_ok = False
            violations.append(f"augmentation does not annihilate d({c.generators[col].name})")
    unit = c.unit_cocycle()
    surjection_ok = unit is not None
    if not surjection_ok:
        violations.append("no degree-0 cocycle with augmentation 1")
    return FiltrationReport(
        d_squared_ok, levels_ok, lowering_ok, augmentation_ok, surjection_ok, violations, unit
    )


class ComplexMap:
    """Linear map between free complexes, stored on the source basis.

    Not to be mutated after construction: ``commutes_with_diff`` keeps its outcome.
    """

    def __init__(self, source: FiltComplex, target: FiltComplex, images: list[dict]):
        if source.nvars != target.nvars or source.char is not target.char:
            raise ValueError("source and target must share variables and characteristic")
        if len(images) != len(source.generators):
            raise ValueError("need one image per source generator")
        self.source = source
        self.target = target
        self.images = [
            {g: p for g, p in img.items() if p.terms} for img in images
        ]
        self._law_failures: list[str] | None = None

    def apply(self, elem: dict) -> dict:
        out: dict = {}
        for g, poly in elem.items():
            add_scaled(out, self.images[g], poly)
        return out

    def commutes_with_diff(self) -> list[str]:
        """Names of the source generators where d(f(x)) != f(d(x)); checked on the first call."""
        if self._law_failures is None:
            self._law_failures = [
                gen.name
                for col, gen in enumerate(self.source.generators)
                if self.target.apply_diff(self.images[col]) != self.apply(dict(self.source.diff.get(col, ())))
            ]
        return list(self._law_failures)


def identity_map(c: FiltComplex) -> ComplexMap:
    return ComplexMap(c, c, [c.gen_elem(i) for i in range(len(c.generators))])


# ---------------------------------------------------------------------------
# Koszul complexes as filtered complexes
# ---------------------------------------------------------------------------


def koszul_filt_complex(desc: ComplexDescriptor) -> FiltComplex:
    """The Koszul complex with its word-length filtration and unit augmentation."""
    index_sets = list(desc.index_sets())
    position = {s: i for i, s in enumerate(index_sets)}
    gens = [
        Generator(
            name=f"s{{{','.join(map(str, indices))}}}",
            degree=desc.s_degree * len(indices),
            level=len(indices),
        )
        for indices in index_sets
    ]
    diff = {
        position[indices]: [(position[face], coeff) for face, coeff in desc.boundary(indices)]
        for indices in index_sets
    }
    augmentation = [1 if not indices else 0 for indices in index_sets]
    c = FiltComplex(desc.nvars, desc.char, gens, diff, augmentation)
    c.koszul_descriptor = desc
    return c


def elem_to_kelem(c: FiltComplex, elem: dict) -> KElem:
    """Convert an element of a Koszul-built complex back to the sparse form."""
    desc = c.koszul_descriptor
    if desc is None:
        raise ValueError("complex was not built from a Koszul descriptor")
    index_sets = list(desc.index_sets())
    return KElem(desc, {index_sets[g]: poly for g, poly in elem.items()})


# ---------------------------------------------------------------------------
# the inbound map alpha
# ---------------------------------------------------------------------------


@dataclass
class AlphaReport:
    hypothesis_ok: bool
    chain_map_ok: bool
    projection_ok: bool
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.hypothesis_ok and self.chain_map_ok and self.projection_ok


def default_truncation(nvars: int, m: int, char: Char) -> int:
    return (m + 2) * nvars * char.t_degree


def verify_alpha(a: ComplexMap, max_degree: int | None = None) -> AlphaReport:
    """Verify a map from a level-m Koszul complex into a filtered complex.

    Checks the chain-map law on every source generator, that the augmentation
    of the image of 1 is 1 (so the induced map on cohomology composed with
    the augmentation is the canonical projection: classes of t^a with a != 0
    augment to zero because variables act trivially), and that the target
    cohomology vanishes above the source level throughout the truncation
    range.
    """
    src = a.source
    if src.koszul_descriptor is None:
        raise ValueError("the source must be a Koszul complex")
    m = src.koszul_descriptor.level
    if max_degree is None:
        max_degree = default_truncation(src.nvars, m, src.char)
    failures: list[str] = []
    dims = a.target.homology_dims(max_degree)
    bad = {d: v for d, v in dims.items() if d > m and v}
    hypothesis_ok = not bad
    if bad:
        failures.append(f"cohomology does not vanish above level {m}: {bad}")
    chain_failures = a.commutes_with_diff()
    chain_map_ok = not chain_failures
    failures.extend(f"differential law fails at {name}" for name in chain_failures)
    unit_index = list(src.koszul_descriptor.index_sets()).index(())
    unit_image = a.images[unit_index]
    projection_ok = a.target.augment(unit_image) == 1
    if not projection_ok:
        failures.append("augmentation of the image of 1 is not 1")
    else:
        for i in range(1, src.nvars + 1):
            scaled = scale_map(unit_image, Poly.variable(src.nvars, src.char, i))
            if a.target.augment(scaled) != 0:
                projection_ok = False
                failures.append(f"class of t{i} is not killed by the augmentation")
    return AlphaReport(hypothesis_ok, chain_map_ok, projection_ok, failures)


def construct_alpha(c: FiltComplex, m: int, max_degree: int | None = None) -> ComplexMap:
    """Build a chain map from the level-m Koszul complex into the complex.

    The image of 1 is a degree-0 cocycle with augmentation 1; the image of
    each s_I solves d(x) = image of d(s_I), one exact degreewise linear
    system per generator in increasing word-length.  Solvability at each step
    is exactly the cohomology-vanishing hypothesis, which is verified up
    front; degrees beyond the truncation raise TruncationError.
    """
    if max_degree is None:
        max_degree = default_truncation(c.nvars, m, c.char)
    filt_report = verify_filtration(c)
    if not filt_report.passed:
        raise ValueError("target complex is invalid: " + "; ".join(filt_report.violations))
    desc = ComplexDescriptor(c.nvars, m, c.char)
    top_degree = desc.s_degree * c.nvars + 1
    if top_degree > max_degree:
        raise TruncationError(
            f"need degrees up to {top_degree} but truncation is {max_degree}"
        )
    dims = c.homology_dims(max_degree)
    bad = {d: v for d, v in dims.items() if d > m and v}
    if bad:
        raise VanishingHypothesisError(
            f"cohomology does not vanish above level {m}: first at degree {min(bad)}"
        )
    source = koszul_filt_complex(desc)
    images = [filt_report.unit]  # s_{} comes first in the word-length order
    for g in range(1, len(source.generators)):
        rhs: dict = {}
        for row, poly in source.diff[g]:
            add_scaled(rhs, images[row], poly)
        degree = source.generators[g].degree
        solution = c.solve_diff(degree, rhs)
        if solution is None:
            raise LiftingError(
                f"no lift at degree {degree} although cohomology vanishes there"
            )
        images.append(solution)
    return ComplexMap(source, c, images)


# ---------------------------------------------------------------------------
# the outbound map beta
# ---------------------------------------------------------------------------


@dataclass
class BetaReport:
    chain_map_ok: bool
    filtration_ok: bool
    augmentation_ok: bool
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.chain_map_ok and self.filtration_ok and self.augmentation_ok


def verify_beta(b: ComplexMap) -> BetaReport:
    """Verify an outbound map: chain law, filtration preservation, augmentations."""
    failures: list[str] = []
    chain_failures = b.commutes_with_diff()
    chain_map_ok = not chain_failures
    failures.extend(f"differential law fails at {name}" for name in chain_failures)
    filtration_ok = True
    for idx, gen in enumerate(b.source.generators):
        for g, poly in b.images[idx].items():
            if b.target.generators[g].level > gen.level:
                filtration_ok = False
                failures.append(
                    f"image of {gen.name} (level {gen.level}) hits level "
                    f"{b.target.generators[g].level}"
                )
    augmentation_ok = True
    for idx, gen in enumerate(b.source.generators):
        if b.target.augment(b.images[idx]) != b.source.augmentation[idx]:
            augmentation_ok = False
            failures.append(f"augmentation mismatch at {gen.name}")
    return BetaReport(chain_map_ok, filtration_ok, augmentation_ok, failures)


def compose_to_gamma(a: ComplexMap, b: ComplexMap) -> ChainMap:
    """Compose an inbound and an outbound map into a generator-image chain map.

    The rank of the result is bounded by the number of generators of the
    middle complex, since the matrix factors through it.
    """
    if a.target != b.source:
        raise ValueError("maps are not composable: middle complexes differ")
    if a.source.koszul_descriptor is None or b.target.koszul_descriptor is None:
        raise ValueError("composition must go from a Koszul complex to a Koszul complex")
    if b.target.koszul_descriptor.level != 0:
        raise ValueError("the outbound target must be the level-0 complex")
    if a.commutes_with_diff() or b.commutes_with_diff():
        raise ValueError("both maps must commute with the differentials")
    source_desc = a.source.koszul_descriptor
    target_desc = b.target.koszul_descriptor
    images: dict[IndexSet, KElem] = {}
    for idx, indices in enumerate(source_desc.index_sets()):
        through = b.apply(a.images[idx])
        images[indices] = elem_to_kelem(b.target, through)
    return ChainMap(source_desc, ComplexDescriptor(target_desc.nvars, 0, target_desc.char), images)


# ---------------------------------------------------------------------------
# fixture catalogue
# ---------------------------------------------------------------------------


def rank_two_model(m: int, char: Char) -> FiltComplex:
    """Free on two generators 1, e with d(e) = t1^(m+1); the smallest example."""
    gens = [Generator("1", 0, 0), Generator("e", char.s_degree(m), 1)]
    diff = {1: [(0, Poly.t_power(1, char, 1, m + 1))]}
    return FiltComplex(1, char, gens, diff, [1, 0])


def twisted_two_var_model(char: Char) -> FiltComplex:
    """Five generators with a twisted top differential d(e12) = t1 e2 - t2 e1 + f."""
    sd = char.s_degree(0)
    td = char.t_degree
    gens = [
        Generator("1", 0, 0),
        Generator("e1", sd, 1),
        Generator("e2", sd, 1),
        Generator("f", sd + td - 1 + 1, 1),
        Generator("e12", sd + td - 1, 2),
    ]
    t1 = Poly.variable(2, char, 1)
    t2 = Poly.variable(2, char, 2)
    diff = {
        1: [(0, t1)],
        2: [(0, t2)],
        4: [(2, t1), (1, -t2), (3, Poly.one(2, char))],
    }
    return FiltComplex(2, char, gens, diff, [1, 0, 0, 0, 0])


def linear_forms_koszul_complex(n: int, char: Char) -> FiltComplex:
    """K_n(0) with each t_i replaced by t_i + t_(i+1) (t_n stays t_n).

    d^2 = 0 holds for the Koszul complex of any forms, and this change of
    variables is invertible, so the homology is that of K_n(0); but the
    entries have two terms, so d is not Z^n-graded.
    """
    koszul = koszul_filt_complex(ComplexDescriptor(n, 0, char))
    diff = {}
    for col, entries in koszul.diff.items():
        diff[col] = []
        for row, poly in entries:
            ((exps, coeff),) = poly.terms.items()
            if exps[-1] == 0:  # t_i with i < n: add t_(i+1)
                poly = poly + Poly(n, char, {exps[-1:] + exps[:-1]: coeff})
            diff[col].append((row, poly))
    return FiltComplex(n, char, koszul.generators, diff, koszul.augmentation)


def shuffled_complex(c: FiltComplex, rng):
    """Same complex with the basis randomly reordered, plus the unshuffling map."""
    order = list(range(len(c.generators)))
    rng.shuffle(order)
    inverse = [0] * len(order)
    for new, old in enumerate(order):
        inverse[old] = new
    gens = [c.generators[old] for old in order]
    diff = {}
    for col, entries in c.diff.items():
        diff[inverse[col]] = [(inverse[row], poly) for row, poly in entries]
    augmentation = [c.augmentation[old] for old in order]
    shuffled = FiltComplex(c.nvars, c.char, gens, diff, augmentation)
    unshuffle = ComplexMap(shuffled, c, [c.gen_elem(order[new]) for new in range(len(order))])
    return shuffled, unshuffle
