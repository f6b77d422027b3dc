"""Module maps from a level-m Koszul complex down to level 0.

A map is stored by its images on the 2^n exterior basis monomials and
extended linearly over the polynomial ring, so linearity holds by
construction and only the differential law needs runtime verification.
The multiplicative baseline map sends s_I to the product of the t_i^m over
I times s_I; every admissible map arises from it by homotopy perturbation,
which is also how random maps are generated here.

Ranks are taken over the fraction field of the polynomial ring, either
exactly (a full evaluation rank, else fraction-free elimination) or by
randomized evaluation in a large field of the same characteristic (fast; a
full answer is certain, a deficient answer is wrong with negligible
probability).  One function, ``_column_rank``, decides every rank and every
certificate check from the map's columns at random points; random maps are
evaluated from their homotopy draws, so neither a rank nor a full grading
check builds their images.

Every value that is built when first read is held by one lazy mapping,
:class:`_LazyImages`: the images of :func:`iota` and :func:`homotopy_perturb`
and the values of :func:`random_homotopy`.  A perturbed image is built from
the boundary terms of :meth:`koszul.ComplexDescriptor.boundary`, as the point
evaluator builds its column.
"""

from __future__ import annotations

import functools
import json
import os
import random
from dataclasses import dataclass, field
from enum import Enum
from collections.abc import Mapping, Sequence
from itertools import combinations

from .koszul import ComplexDescriptor, IndexSet, KElem, _check_index_set, faces
from .linalg import DEFAULT_BITS, _rank_and_kernel, bareiss_rank, point_rank, rank_at_points
from .linalg import evaluation_rank  # noqa: F401  re-exported: perfbench/tracing.py patches it here
from .polynomials import Char, Poly, add_into, add_scaled, power_tables

__all__ = [
    "GradingMode",
    "RankMethod",
    "ChainMap",
    "Homotopy",
    "ChainMapReport",
    "iota",
    "verify_chain_map",
    "homotopy_perturb",
    "is_degree_preserving",
    "rank",
    "restricted_rank",
    "matrix_of_images",
    "random_homotopy",
    "random_chain_map",
    "pair_coefficient",
    "pair_has_multiplicative_form",
    "prime_bits",
]


class GradingMode(Enum):
    FULL = "full"
    PARITY = "parity"


class RankMethod(Enum):
    MODULAR = "modular"
    EXACT = "exact"


def prime_bits() -> int:
    """Bit size for modular evaluation fields (env KOSZUL_PRIME_BITS, else DEFAULT_BITS).

    In characteristic 0 it is the bit length of the random prime; in
    characteristic 2 it picks the field of ``linalg.gf2_field``.  Raises
    ValueError unless the value is an integer from 2 to 64: no prime has a
    single bit, and much wider fields make the prime search take minutes
    without making a deficient answer noticeably less likely.
    """
    text = os.environ.get("KOSZUL_PRIME_BITS", str(DEFAULT_BITS))
    try:
        bits = int(text)
    except ValueError:
        bits = 0
    if not 2 <= bits <= 64:
        raise ValueError(f"KOSZUL_PRIME_BITS must be an integer from 2 to 64, got {text!r}")
    return bits


class ChainMap:
    """Linear map between Koszul complexes, stored on exterior generators.

    The constructor checks only shape (every basis monomial has an image in
    the level-0 target); the algebraic laws are checked by
    :func:`verify_chain_map` so that deliberately broken maps can still be
    built, e.g. as plain matrices for rank experiments.  ``images`` is a
    read-only mapping: a plain dict for maps given image by image, or the
    lazily built images of :func:`iota` and :func:`homotopy_perturb`.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source: ComplexDescriptor, target: ComplexDescriptor, images: Mapping[IndexSet, KElem]):
        if source.nvars != target.nvars or source.char is not target.char:
            raise ValueError("source and target must share variables and characteristic")
        if target.level != 0:
            raise ValueError("target must be the level-0 complex")
        if isinstance(images, _LazyImages) and (images.source, images.target) == (source, target):
            fixed = images  # keys and targets are right by construction
        else:
            fixed = {}
            for indices in source.index_sets():
                if indices not in images:
                    raise ValueError(f"missing image for basis monomial s{set(indices) or '{}'}")
                img = images[indices]
                if img.desc != target:
                    raise ValueError(f"image of {indices} lives in the wrong complex")
                fixed[indices] = img
        self.source = source
        self.target = target
        self.images = fixed

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    __hash__ = None

    def apply(self, x: KElem) -> KElem:
        """Linear extension of the generator images."""
        if x.desc != self.source:
            raise ValueError("element does not live in the source complex")
        out: dict[IndexSet, Poly] = {}
        for indices, poly in x.coeffs.items():
            add_scaled(out, self.images[indices].coeffs, poly)
        return KElem._raw(self.target, out)

    # ---------- serialization ----------

    def to_json_dict(self) -> dict:
        return {
            "n": self.source.nvars,
            "m": self.source.level,
            "char": self.source.char.value,
            "images": {
                ",".join(map(str, indices)): str(img)
                for indices, img in self.images.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> ChainMap:
        char = Char(data["char"])
        source = ComplexDescriptor(data["n"], data["m"], char)
        target = ComplexDescriptor(data["n"], 0, char)
        images = {}
        for key, text in data["images"].items():
            indices = tuple(int(v) for v in key.split(",")) if key else ()
            images[indices] = KElem.parse(text, target)
        return cls(source, target, images)

    @classmethod
    def from_json(cls, text: str) -> ChainMap:
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class Homotopy:
    """Generator-indexed values of a degree -1 correction term.

    The empty index set must map to zero so perturbed maps stay unital.
    ``values`` is a dict, or the :class:`_LazyImages` of
    :func:`random_homotopy`, each built from its random draws when first
    read.  ``draws`` is set by :func:`random_homotopy` alone: each index set
    mapped to its ``(jset, mono, sign)`` terms in draw order (None
    otherwise).  Frozen, so the draws always describe the values.
    """

    values: Mapping[IndexSet, KElem] = field(default_factory=dict)
    draws: dict[IndexSet, list[tuple]] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        empty = self.values.get(())
        if empty is not None and not empty.is_zero():
            raise ValueError("a homotopy must vanish on the unit")

    def applied_to(self, x: KElem, target: ComplexDescriptor) -> KElem:
        """Linear extension to an arbitrary source element."""
        out: dict[IndexSet, Poly] = {}
        for indices, poly in x.coeffs.items():
            val = self.values.get(indices)
            if val is not None:
                add_scaled(out, val.coeffs, poly)
        return KElem._raw(target, out)


@dataclass
class ChainMapReport:
    unital: bool
    commutes: bool
    lifts_projection: bool
    failures: list[str]

    @property
    def passed(self) -> bool:
        return self.unital and self.commutes


def _is_index_set(indices, nvars: int) -> bool:
    """Whether ``indices`` is an index set of a complex in ``nvars`` variables."""
    if not isinstance(indices, tuple):
        return False
    try:
        _check_index_set(indices, nvars)
    except (TypeError, ValueError):
        return False
    return True


class _LazyImages(Mapping):
    """Values on the index sets of ``source``, each an element of ``target``
    built by ``build(indices)`` when first read and then cached: the images
    of :func:`iota` and :func:`homotopy_perturb`, and the values of
    :func:`random_homotopy`.

    Keys are the source's index sets in ``index_sets()`` order; any other key
    raises KeyError here, before ``build`` runs.  Reading every value
    (``items()``, ``==``, serialization) builds them all.  A perturbation
    also keeps its ``base`` map and, when its homotopy is drawn by
    :func:`random_homotopy`, the homotopy's ``draws``, from which ranks and
    gradings are read without building images (``draws`` is None
    otherwise).
    """

    __slots__ = ("source", "target", "_build", "_cache", "base", "draws")

    def __init__(self, source: ComplexDescriptor, target: ComplexDescriptor, build, base=None, draws=None):
        self.source = source
        self.target = target
        self._build = build
        self._cache: dict[IndexSet, KElem] = {}
        self.base = base
        self.draws = draws

    def __getitem__(self, indices: IndexSet) -> KElem:
        img = self._cache.get(indices)
        if img is None:
            if not _is_index_set(indices, self.source.nvars):
                raise KeyError(indices)
            img = self._cache[indices] = self._build(indices)
        return img

    def __contains__(self, indices) -> bool:
        return _is_index_set(indices, self.source.nvars)

    def __iter__(self):
        return self.source.index_sets()

    def __len__(self) -> int:
        return 1 << self.source.nvars


def iota(n: int, m: int, char: Char) -> ChainMap:
    """The multiplicative baseline map s_I -> (prod_{i in I} t_i^m) s_I.

    Its images are built when first read (see :class:`_LazyImages`).
    """
    source = ComplexDescriptor(n, m, char)
    target = ComplexDescriptor(n, 0, char)

    def build(indices: IndexSet) -> KElem:
        return KElem._raw(target, {indices: source.monomial(indices)})

    return ChainMap(source, target, _LazyImages(source, target, build))


def verify_chain_map(g: ChainMap) -> ChainMapReport:
    """Check unitality and the differential law on every generator.

    The homology of the level-0 target is spanned by the class of 1, so a
    unital map commuting with differentials automatically lifts the canonical
    projection in homology; the report states that conjunction.
    """
    failures: list[str] = []
    unital = g.images[()] == g.target.one()
    if not unital:
        failures.append("gamma(1) != 1")
    commutes = True
    for indices in g.source.index_sets():
        if not indices:
            continue
        left = g.images[indices].differential()
        right = g.apply(_boundary_of(g.source, indices))
        if left != right:
            commutes = False
            failures.append(f"differential law fails at I={{{','.join(map(str, indices))}}}")
    return ChainMapReport(unital, commutes, unital and commutes, failures)


def _boundary_of(desc: ComplexDescriptor, indices: IndexSet) -> KElem:
    """d(s_I) in ``desc``, from the terms of :meth:`koszul.ComplexDescriptor.boundary`."""
    return KElem._raw(desc, dict(desc.boundary(indices)))


def homotopy_perturb(g: ChainMap, h: Homotopy) -> ChainMap:
    """The perturbed map x -> g(x) + d(h(x)) + h(d(x)) on generators.

    Perturbation preserves the chain-map law and unitality, so the result of
    perturbing a valid map is again valid by construction.  Each image is
    computed when it is first read (see :class:`_LazyImages`), in one
    accumulator from the terms of :meth:`koszul.ComplexDescriptor.boundary`,
    as the point evaluator builds its column (B + H D_s) s_I + D_t h_I:
    g(s_I), then +-t_i^(m+1) h(I without i), then d(h(s_I)).  The values of
    :func:`random_homotopy` lie in their target by construction, and the map
    keeps the homotopy's draws for evaluation ranks; other values are
    checked here.
    """
    values, source, target = h.values, g.source, g.target
    empty = values.get(())
    if empty is not None and not empty.is_zero():
        raise ValueError("perturbing with a homotopy that hits the unit breaks unitality")
    drawn = h.draws is not None and values.target == target
    if not drawn and any(val.desc != target for val in values.values()):
        raise ValueError("homotopy values must lie in the target complex")

    def build(indices: IndexSet) -> KElem:
        out = dict(g.images[indices].coeffs)
        for face, coeff in source.boundary(indices):
            val = values.get(face)
            if val is not None:
                add_scaled(out, val.coeffs, coeff)
        val = values.get(indices)
        if val is not None:
            for jset, poly in val.coeffs.items():
                add_scaled(out, dict(target.boundary(jset)), poly)
        return KElem._raw(target, out)

    return ChainMap(source, target, _LazyImages(source, target, build, g, h.draws if drawn else None))


def is_degree_preserving(g: ChainMap, mode: GradingMode) -> bool:
    """Whether every generator image is homogeneous of the expected degree.

    FULL compares graded degrees on the nose; PARITY only mod 2.  Both use
    the grading convention of the map's characteristic.  A perturbation by
    drawn homotopy values is decided from its draws when every drawn term
    has the degree of its s_I minus one and the base map preserves degrees:
    d raises degree by one in source and target alike, so then every
    summand of every image has the degree of its s_I, and no image is
    built.  Otherwise the images are read.
    """
    sd = g.source.s_degree
    td = g.source.char.t_degree
    s0 = g.source.char.s_degree(0)

    def fits(jset: IndexSet, mono: tuple, expected: int) -> bool:
        degree = s0 * len(jset) + td * sum(mono)
        return degree == expected if mode is GradingMode.FULL else (degree - expected) % 2 == 0

    images = g.images
    if (
        isinstance(images, _LazyImages)
        and images.draws is not None
        and all(
            fits(jset, mono, sd * len(indices) - 1)
            for indices, terms in images.draws.items()
            for jset, mono, _ in terms
        )
        and is_degree_preserving(images.base, mode)
    ):
        return True
    return all(
        fits(jset, mono, sd * len(indices))
        for indices, img in images.items()
        for jset, poly in img.coeffs.items()
        for mono in poly.terms
    )


def matrix_of_images(target: ComplexDescriptor, columns: Sequence[KElem]) -> list[list[Poly]]:
    """Coefficient matrix of target elements over the exterior basis.

    Rows are indexed by the target's index sets in (word-length, lex) order.
    """
    zero = Poly.zero(target.nvars, target.char)
    row_of = {jset: i for i, jset in enumerate(target.index_sets())}
    matrix = [[zero] * len(columns) for _ in row_of]
    for j, col in enumerate(columns):
        for jset, poly in col.coeffs.items():
            matrix[row_of[jset]][j] = poly
    return matrix


def _image_matrix(g: ChainMap, generators: Sequence[KElem] | None) -> list[list[Poly]]:
    """The polynomial matrix whose columns are the images of the generators
    (of every s_I when None)."""
    if generators is None:
        columns = [g.images[indices] for indices in g.source.index_sets()]
    else:
        columns = [g.apply(gen) for gen in generators]
    return matrix_of_images(g.target, columns)


@functools.cache
def _faces(nvars: int) -> dict[IndexSet, list[tuple[IndexSet, int, int]]]:
    """Index set I -> :func:`koszul.faces` of I, for every I in ``nvars``
    variables, so the boundary values at a point are read from a table of
    the 2n signed powers.  Every level shares the table."""
    variables = range(1, nvars + 1)
    return {indices: faces(indices) for k in range(nvars + 1) for indices in combinations(variables, k)}


def _point_evaluation(g: ChainMap, generators: Sequence[KElem] | None):
    """``at(field, point) -> (rows, boundary)``: the map's values at a point,
    without building any perturbed image, as two thunks sharing one
    evaluation of the base map and the homotopy draws.

    ``rows()`` gives the rows of :func:`_image_matrix` at the point, in the
    target's index-set order.  A perturbation by drawn homotopy values is
    read from its base map and its draws: the column of s_I is (B + H D_s)
    s_I + D_t h_I, that is base_I(p) + the sum over the faces of I of
    +-p_i^(m+1) h_(I without i)(p) + D(p) h_I(p), with the differentials of
    :func:`koszul.faces`.  Any other map is its own base with no draws, so
    its columns are the values of its images.  A generator x gives sum_I
    x_I(p) col_I(p), over the columns it touches.

    ``boundary`` is None unless the columns are all the s_I.  Then
    ``boundary()`` checks the differential law D_t B = B D_s of the base
    map exactly at the point and returns None if it fails; otherwise it
    returns the rows of the 2^(n-1)-square boundary matrix M = pi D_t (B +
    H D_s): its columns are the index sets I that contain 1, its rows the
    target index sets J that do not (pi keeps those coordinates), each in
    index-set order.  With the law in force M = pi gamma(p) D_s, the map
    on the boundaries (see :func:`_column_rank`).  Each base value and each
    (B + H D_s) s_I is computed once per point, whichever thunks read it.

    Drawn values have coefficients +-1; only a base map or generator with
    fractional coefficients can raise UnluckyPrimeError.  Every base image
    of a touched s_I is evaluated before either thunk runs, so whether a
    prime is unlucky depends on the prime alone.
    """
    images, source, target = g.images, g.source, g.target
    drawn = isinstance(images, _LazyImages) and images.draws is not None
    base, draws = (images.base, images.draws) if drawn else (g, {})
    face_terms = _faces(source.nvars)
    whole = generators is None
    if whole:
        needed = list(source.index_sets())
    else:
        needed = list(dict.fromkeys(indices for gen in generators for indices in gen.coeffs))
    homotopy = set(needed).union(face for indices in needed for face, _, _ in face_terms[indices]).intersection(draws)
    polys = [poly for indices in needed for poly in base.images[indices].coeffs.values()]
    polys += [poly for gen in generators or () for poly in gen.coeffs.values()]
    monos = [mono for poly in polys for mono in poly.terms]
    monos += [mono for indices in homotopy for _, mono, _ in draws[indices]]
    # the source differential reads t_i^(m+1), the target's reads t_i
    top = source.level + 1
    max_exp = [max(exps) for exps in zip((top,) * source.nvars, *monos)]
    row_of = {jset: r for r, jset in enumerate(target.index_sets())}
    if whole:
        # pi D_t: a J that holds 1 reaches the coordinates without 1 only by dropping 1
        projected = {jset: terms[:1] if jset[:1] == (1,) else terms for jset, terms in face_terms.items()}
        with_one = [indices for indices in needed if indices[:1] == (1,)]
        boundary_row_of = {jset: r for r, jset in enumerate(j for j in row_of if j[:1] != (1,))}

    def at(field, point):
        pows = power_tables(point, max_exp, field.mul)
        mul, add, neg = field.mul, field.add, field.neg
        dt = [(row[1], neg(row[1])) for row in pows]  # +-p_i, the target's boundary values
        ds = [(row[top], neg(row[top])) for row in pows]  # +-p_i^(m+1), the source's

        def add_scaled_into(acc: dict, f: int, vec: dict) -> None:
            for key, v in vec.items():
                acc[key] = add(acc.get(key, 0), mul(f, v))

        def differential_into(acc: dict, vec: dict, terms_of: dict = face_terms) -> dict:
            """acc += D_t vec, over the faces that ``terms_of`` lists; returns acc."""
            for jset, v in vec.items():
                if v:
                    for face, i, odd in terms_of[jset]:
                        acc[face] = add(acc.get(face, 0), mul(dt[i][odd], v))
            return acc

        def faces_into(acc: dict, indices: IndexSet, vecs: dict, flip: int = 0) -> dict:
            """acc += (-1)^flip V D_s s_I, for the map V whose values are ``vecs``; returns acc."""
            for face, i, odd in face_terms[indices]:
                vec = vecs.get(face)
                if vec:
                    add_scaled_into(acc, ds[i][odd ^ flip], vec)
            return acc

        h: dict[IndexSet, dict] = {}  # drawn homotopy values at the point
        for indices in homotopy:
            vec = h[indices] = {}
            for jset, mono, sign in draws[indices]:
                v = 1
                for i, e in enumerate(mono):
                    if e:
                        v = mul(v, pows[i][e])
                vec[jset] = add(vec.get(jset, 0), v if sign > 0 else neg(v))
        evaluate = field.evaluate
        based = {  # base images at the point
            indices: {jset: evaluate(poly, pows) for jset, poly in base.images[indices].coeffs.items()}
            for indices in needed
        }
        lowered: dict[IndexSet, dict] = {}

        def lower(indices: IndexSet) -> dict:
            """(B + H D_s) s_I, shared by its full column and its boundary column."""
            vec = lowered.get(indices)
            if vec is None:
                vec = lowered[indices] = faces_into(dict(based[indices]), indices, h)
            return vec

        def rows() -> list[dict]:
            cols = [differential_into(dict(lower(indices)), h.get(indices, {})) for indices in needed]
            if not whole:
                columns = dict(zip(needed, cols))
                cols = [{} for _ in generators]
                for col, gen in zip(cols, generators):
                    for indices, coeff in gen.coeffs.items():
                        f = evaluate(coeff, pows)
                        if f:
                            add_scaled_into(col, f, columns[indices])
            return _scatter(cols, row_of)

        def law_holds() -> bool:
            for indices, vec in based.items():
                residual = faces_into(differential_into({}, vec), indices, based, flip=1)  # (D_t B - B D_s) s_I
                if any(residual.values()):
                    return False
            return True

        def boundary() -> list[dict] | None:
            if not law_holds():
                return None
            return _scatter([differential_into({}, lower(indices), projected) for indices in with_one], boundary_row_of)

        return rows, boundary if whole else None

    return at


def _scatter(columns, row_of: dict) -> list[dict]:
    """The rows, as dicts from column position to nonzero value, of the
    columns given as dicts from row key to value; ``row_of`` numbers the
    row keys."""
    rows: list[dict] = [{} for _ in row_of]
    for j, col in enumerate(columns):
        for key, v in col.items():
            if v:
                rows[row_of[key]][j] = v
    return rows


def _column_rank(
    g: ChainMap, generators: Sequence[KElem] | None, method: RankMethod, rng, witness: bool = False
) -> tuple[int, list[Poly] | None]:
    """Rank of the images of the generators (of every s_I when None), and a
    kernel witness when asked for: the one place a chain-map rank is decided.

    The rank is first evaluated at random points (see :func:`rank_at_points`).
    The modular method evaluates in fields of ``prime_bits()`` bits, drawing
    from ``rng`` (a fixed-seed generator when None).  The exact method
    evaluates at ``DEFAULT_BITS`` bits from its own fixed-seed generator,
    so neither ``rng`` nor KOSZUL_PRIME_BITS matters.  A full evaluation
    rank is the exact rank (a minor nonzero at a point is a nonzero minor).
    A deficient one proves nothing: under the exact method, or when a
    witness is asked for (then any rank below the column count is owed one),
    the image matrix is built and one fraction-free elimination decides.
    Its echelon gives the witness: a kernel vector, None when injective.

    The rank of all 2^n columns at a point p with nonzero coordinates is
    first decided on the boundaries.  There both Koszul differentials, D_s
    on K_n(m) and D_t on K_n(0), are exact, so the cycles Z_s = ker D_s are
    im D_s, of dimension 2^(n-1).  Suppose D_t A = A D_s for A = gamma(p).
    Then A is invertible iff it is injective on Z_s: if A v = 0, then
    A D_s v = D_t A v = 0, so D_s v = 0 by injectivity on Z_s; hence v lies
    in Z_s, and v = 0.  The D_s s_I for I containing 1 are a basis of Z_s
    (dropping the 1 is the only term of D_s s_I on the coordinates J
    without 1, with coefficient +-p_1^(m+1)), and A maps Z_s into Z_t =
    im D_t, on which the projection pi onto those J is an isomorphism for
    the same reason.  So A is invertible iff the 2^(n-1)-square M =
    pi A D_s on those s_I is.  For A = B + D_t H + H D_s (a base map and
    drawn homotopy values; H = 0 for other maps), d^2 = 0 gives
    D_t A - A D_s = D_t B - B D_s, and, when that vanishes, M = pi D_t (B +
    H D_s), built from B and H without a column of A.  The law is checked
    exactly on B at each point, so a full M is the rank 2^n; a failed law
    or a deficient M builds the full rows at the same field and point, and
    every per-point rank, and so every draw, is the full rows' rank.
    """
    if generators is not None and any(gen.desc != g.source for gen in generators):
        raise ValueError("element does not live in the source complex")
    cols = 1 << g.source.nvars if generators is None else len(generators)
    upper = min(1 << g.target.nvars, cols)
    if method is RankMethod.EXACT:
        rng, bits = random.Random(0x5EED), DEFAULT_BITS
    else:
        rng, bits = random.Random(0x5EED) if rng is None else rng, prime_bits()
    at = _point_evaluation(g, generators)

    def rank_at(field, point):
        rows, boundary = at(field, point)
        if boundary is not None:
            m_rows = boundary()
            if m_rows is not None and point_rank(m_rows, field, upper // 2) == upper // 2:
                return upper
        return point_rank(rows(), field, upper)

    evaluated = rank_at_points(rank_at, g.target.nvars, g.target.char, rng, upper, bits)
    if evaluated == (cols if witness else upper) or (method is RankMethod.MODULAR and not witness):
        return evaluated, None
    matrix = _image_matrix(g, generators)
    return _rank_and_kernel(matrix) if witness else (bareiss_rank(matrix), None)


def rank(g: ChainMap, method: RankMethod = RankMethod.MODULAR, rng=None) -> int:
    """Rank of the map over the fraction field of the polynomial ring."""
    return _column_rank(g, None, method, rng)[0]


def restricted_rank(
    g: ChainMap,
    generators: Sequence[KElem],
    method: RankMethod = RankMethod.MODULAR,
    rng=None,
) -> int:
    """Rank of the images of the given source elements over the fraction field.

    Equals len(generators) exactly when the localized map is injective on
    their span (provided the generators themselves are independent).
    """
    return _column_rank(g, generators, method, rng)[0]


# ---------------------------------------------------------------------------
# structure of pair images
# ---------------------------------------------------------------------------


def pair_coefficient(g: ChainMap, i: int, j: int) -> Poly:
    """Coefficient of s_{i,j} in the image of s_{i,j} (word-length 2 part)."""
    if not 1 <= i < j <= g.source.nvars:
        raise ValueError("need 1 <= i < j <= nvars")
    img = g.images[(i, j)].project_wordlength(2)
    poly = img.coeffs.get((i, j))
    return poly if poly is not None else Poly.zero(g.source.nvars, g.source.char)


def pair_has_multiplicative_form(g: ChainMap, i: int, j: int) -> bool:
    """Whether that coefficient equals t_i^m t_j^m exactly (reported, not required)."""
    return pair_coefficient(g, i, j) == g.source.monomial((i, j))


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------


def _term_tables(desc: ComplexDescriptor, word_degree: int, grading) -> tuple | None:
    """What one (index_set, mono) term of a correction of ``word_degree`` is drawn from.

    None when no term fits the degree constraint (such a term draws nothing).
    Otherwise ``(sizes, tdegs)``: the term chooses its index-set size from
    ``sizes``, then its total t-degree from ``tdegs``.  Under the full grading
    the size fixes the t-degree, so ``tdegs`` is None and ``sizes`` holds
    ``(size, tdeg)`` pairs.  The other tables hold one entry per value that
    ``randint(0, n)`` or ``randrange(cap)`` can draw, already adjusted for
    parity, so a choice from a table makes the same draw.  The tables depend
    only on the word length, so :func:`random_homotopy` builds them once.
    """
    n = desc.nvars
    char = desc.char
    target = word_degree - 1  # the correction lowers degree by one
    s0 = char.s_degree(0)
    cap = 2 * (desc.level + 1)
    if grading is GradingMode.FULL:
        if char is Char.TWO:
            # exterior generators of level 0 have degree 0
            pairs = [(size, target) for size in range(n + 1)] if target >= 0 else []
        else:
            pairs = [(k, (target - k) // 2) for k in range(n + 1) if k <= target and (target - k) % 2 == 0]
        return (pairs, None) if pairs else None
    if grading is GradingMode.PARITY:
        if char is Char.TWO:
            return range(n + 1), [t + 1 if (t - target) % 2 else t for t in range(cap)]
        sizes = [k if (k * s0 - target) % 2 == 0 else k + 1 if k < n else k - 1 for k in range(n + 1)]
        return sizes, range(cap)
    return range(n + 1), range(cap)


def _draw_terms(rng, slots, max_terms: int, nvars: int, signed: bool) -> dict:
    """A homotopy's random terms in one pass: key -> [(jset, monomial, sign), ...].

    Per ``(key, (sizes, tdegs) or None)`` slot (tables of :func:`_term_tables`):
    ``count = rng.randint(0, max_terms)``, then unless the table is None,
    ``count`` terms of ``choice(sizes)`` (a (size, tdeg) pair when ``tdegs``
    is None, else the size, then ``choice(tdegs)``), ``sorted(sample(range(1,
    nvars + 1), size))``, ``koszul.random_monomial(rng, nvars, tdeg)`` and,
    when ``signed``, ``choice((1, -1))``.  Keys without terms are left out.

    The loop makes exactly those ``random.Random`` draws and leaves ``rng``
    in the same state, but takes them from ``rng.getrandbits`` itself, by
    CPython's ``_randbelow_with_getrandbits`` (unchanged from 3.10 through
    3.13): take ``k.bit_length()`` bits and draw again while the value is k
    or more.  The bit widths are taken once.  A population of at most 21 is
    always sampled by CPython's pool branch, inlined here; a larger one,
    which CPython may sample by its set branch, goes through ``rng.sample``.
    ``tests/test_draws.py`` compares the loop with ``random.py`` on the
    running interpreter.
    """
    if max_terms < 0:
        raise ValueError(f"negative term cap {max_terms}")
    getrandbits = rng.getrandbits
    widths = [k.bit_length() for k in range(nvars + 1)]
    population = list(range(1, nvars + 1))
    pooled = nvars <= 21  # CPython's setsize is at least 21: always the pool branch
    cbits = (max_terms + 1).bit_length()
    draws: dict = {}
    for key, table in slots:
        count = getrandbits(cbits)
        while count > max_terms:
            count = getrandbits(cbits)
        if table is None or not count:
            continue
        sizes, tdegs = table
        nsizes = len(sizes)
        sbits = nsizes.bit_length()
        if tdegs is not None:
            ntdegs = len(tdegs)
            tbits = ntdegs.bit_length()
        terms = draws[key] = []
        for _ in range(count):
            j = getrandbits(sbits)
            while j >= nsizes:
                j = getrandbits(sbits)
            if tdegs is None:
                size, tdeg = sizes[j]
            else:
                size = sizes[j]
                j = getrandbits(tbits)
                while j >= ntdegs:
                    j = getrandbits(tbits)
                tdeg = tdegs[j]
            if pooled:
                pool = population[:]
                jset = []
                for left in range(nvars, nvars - size, -1):
                    bits = widths[left]
                    j = getrandbits(bits)
                    while j >= left:
                        j = getrandbits(bits)
                    jset.append(pool[j])
                    pool[j] = pool[left - 1]
            else:
                jset = rng.sample(population, size)
            jset.sort()
            exps = [0] * nvars
            bits = widths[nvars]
            for _ in range(tdeg):
                j = getrandbits(bits)
                while j >= nvars:
                    j = getrandbits(bits)
                exps[j] += 1
            sign = 1
            if signed:
                j = getrandbits(2)
                while j >= 2:
                    j = getrandbits(2)
                sign = -1 if j else 1
            terms.append((tuple(jset), tuple(exps), sign))
    return draws


def random_homotopy(
    source: ComplexDescriptor,
    rng,
    grading: GradingMode | None = None,
    max_terms: int = 3,
) -> Homotopy:
    """Random sparse correction term, degree-constrained per grading mode.

    Each nonempty index set receives at most ``max_terms`` random monomial
    summands with coefficients +-1 (always 1 in characteristic 2); small
    supports keep exact rank computations tractable.  Every draw is made
    here, in index-set order and in one pass (:func:`_draw_terms`, from the
    tables of :func:`_term_tables`), and kept as the homotopy's ``draws``; each
    value is built when first read (see :class:`_LazyImages`) by summing its
    index set's drawn terms through :func:`add_into`, and is a zero element
    where nothing was drawn.
    """
    n = source.nvars
    tables = [_term_tables(source, source.s_degree * k, grading) for k in range(n + 1)]
    slots = [(indices, tables[len(indices)]) for indices in source.index_sets() if indices]
    draws: dict[IndexSet, list[tuple]] = _draw_terms(rng, slots, max_terms, n, source.char is not Char.TWO)
    target = ComplexDescriptor(n, 0, source.char)

    def build(indices: IndexSet) -> KElem:
        coeffs: dict[IndexSet, Poly] = {}
        for jset, mono, sign in draws.get(indices, ()):
            add_into(coeffs, jset, Poly._raw(n, source.char, {mono: sign}))
        return KElem._raw(target, coeffs)

    h = Homotopy(_LazyImages(source, target, build))
    object.__setattr__(h, "draws", draws)  # frozen; no other constructor sets draws
    return h


def random_chain_map(
    n: int,
    m: int,
    char: Char,
    rng,
    grading: GradingMode | None = None,
    max_terms: int = 3,
) -> ChainMap:
    """A random valid map: the baseline perturbed by a random homotopy."""
    base = iota(n, m, char)
    h = random_homotopy(base.source, rng, grading=grading, max_terms=max_terms)
    return homotopy_perturb(base, h)
