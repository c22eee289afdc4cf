"""Convex rational polytopes and finite unions of them.

A :class:`ConvexPolytope` is stored in both representations at once: the
extreme points, and integer facet inequalities ``normal . x <= offset``
together with the integer equations of the affine hull. ``from_vertices``
derives everything from a point list with the double description method
on integer-scaled data, which is exact and also yields which points are
tight on each facet. Every body takes the same path: the points are
projected onto the pivot coordinates of their affine hull, where they
are full-dimensional, and each facet found there is read back with a
normal that is zero on the other coordinates. The body keeps those masks
as its ``incidence``, which answers every combinatorial question without
elimination: which points are vertices, and the faces, graded by one
routine. A face is its vertex mask, an int, and its grade is its
dimension. ``face_lattice`` holds them all, built on first use and kept;
``faces_within`` gives those inside a vertex mask, filtered from a kept
lattice or else graded alone, which is how ``indices`` reads the faces
of the non-integral vertices, and ``face_span`` derives a face's affine
span, kept nowhere. The hull and the grading charge the kernel's
``DEFAULT_BUDGET``: a unit per candidate ray pair tested, and one per
AND of a closed set with a facet mask; an overdraw raises
``BudgetExceeded``. A body likewise keeps its integer ``bounds`` (the
hull's, a translate's and a product's set as built), the integer ``rows`` that
count its dilates, the counts made of them and its fitted
quasi-polynomial, and a union its counts, its fit and the stacked rows of
its counted intersections (see ``counting``). Translates and products are
composed directly, without re-running the hull, so high-dimensional
product bodies stay cheap: ``product`` puts each factor on the
coordinates after the previous one's. Whether a body is a product is read
off its inequalities alone, by the kernel's ``coordinate_blocks``, and a
product is counted as the product of its factors' counts.

All objects are immutable after construction, but for what they keep of
their own on first use, and all operations are pure. A body and a union
are named tuples of their fields, which alone compare and hash them: what
they keep sits in their ``__dict__``, outside the tuple.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, reduce
from operator import add, and_, mul
from typing import Iterable, Sequence

from ._enum_py import DEFAULT_BUDGET, Rows
from .errors import BudgetExceeded, DimensionMismatch, InvalidInput
from .linalg import (
    AffineSubspace,
    Vector,
    _scaled_inverse,
    as_vector,
    canonical_equation,
    independent_rows,
    pivots_and_nullspace,
    vdot,
)

Facet = tuple[tuple[int, ...], int]  # (normal, offset): normal . x <= offset


def _frozen(self, name, value):
    raise AttributeError(f"cannot assign to {name!r}: a {type(self).__name__} is immutable")


class ConvexPolytope(
    namedtuple("ConvexPolytope", "ambient_dim vertices facets span intrinsic_dim")
):
    """A body: its ``vertices`` (tuples of ``Fraction``), its ``facets``
    (``Facet`` pairs), its affine hull ``span`` and that hull's dimension."""

    __setattr__ = _frozen  # what it keeps on first use is written to its __dict__

    def __repr__(self) -> str:  # large product bodies would flood output
        return (
            f"ConvexPolytope(ambient_dim={self.ambient_dim}, "
            f"intrinsic_dim={self.intrinsic_dim}, "
            f"{len(self.vertices)} vertices, {len(self.facets)} facets)"
        )

    @cached_property
    def bounds(self) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """``(scale, least, greatest, rhs)``: the least and greatest vertex
        coordinate per axis and the hull right-hand sides ``a . v``, as
        integers over the vertices' common denominator ``scale``; the hull,
        a translate and a product set them as they build the body."""
        return _bounds(*_scaled(self.vertices), self.span.rows)

    @cached_property
    def rows(self) -> Rows:
        """The integer rows of every dilate's counting system: the facet
        normals, then each hull equation's row ``a`` followed by ``-a``.
        Built on first use and kept with the body, with the walk's level
        skeletons."""
        return Rows(
            [a for a, _ in self.facets] + [r for a in self.span.rows for r in (a, [-x for x in a])]
        )

    @cached_property
    def dilate_counts(self) -> dict[tuple[int, int], int]:
        """The counts ``L(k)`` that ``counting`` has made of this body, keyed
        by signed ``(k, budget)``; a count that overdrew its budget is not
        kept."""
        return {}

    @cached_property
    def fits(self) -> dict[int, tuple]:
        """The ``counting.fitted`` result for this body, by budget; a fit
        that raised is not kept."""
        return {}

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        """Per facet, the bitmask of its vertices (bit ``i`` for ``vertices[i]``):
        the hull's own, else dot products on the integer-scaled vertices."""
        scale, scaled = _scaled(self.vertices)
        return tuple(
            sum(1 << i for i, v in enumerate(scaled) if _dot(a, v) == c * scale)
            for a, c in self.facets
        )

    @cached_property
    def face_lattice(self) -> tuple[tuple[int, ...], ...]:
        """Every nonempty face as its vertex mask (bit ``i`` for
        ``vertices[i]``), graded: ``[d]`` holds the ``d``-faces in order of
        their vertex indices, and ``[intrinsic_dim]`` is the polytope
        itself. Built on first use and kept with the body; it is
        ``faces_within`` at the mask of every vertex."""
        return self._graded((1 << len(self.vertices)) - 1)

    def faces_within(self, within: int) -> tuple[tuple[int, ...], ...]:
        """The masks of the faces whose vertices all lie in the bitmask
        ``within``, graded as in ``face_lattice``: its own grades when it is
        kept or ``within`` holds every vertex, else graded alone and not kept."""
        if within == (1 << len(self.vertices)) - 1:
            return self.face_lattice
        if "face_lattice" not in vars(self):
            return self._graded(within)
        return tuple(tuple(m for m in grade if m & within == m) for grade in self.face_lattice)

    def face_span(self, mask: int) -> AffineSubspace:
        """The affine span of the face with vertex mask ``mask``: the body's
        span and the facets tight on the face, whose rows may be dependent.
        Since ``aff(F)`` is ``aff(P)`` cut by every facet hyperplane through
        ``F``, a vertex's span is the vertex alone, and ``aff(F)`` lies in
        ``aff(G)`` for every face ``G`` containing ``F``: the vertex rule and
        the coface rule by which ``indices.index_sequence`` fixes most faces
        without a solve."""
        tight = [f for f, pf in zip(self.facets, self.incidence) if pf & mask == mask]
        return AffineSubspace(
            self.ambient_dim,
            self.span.rows + tuple(a for a, _ in tight),
            self.span.rhs + tuple(c for _, c in tight),
        )

    def _graded(self, within: int) -> tuple[tuple[int, ...], ...]:
        """The faces inside the vertex mask ``within``, graded.

        Every face is an intersection of facets, so the faces inside
        ``within`` are among the closure of ``{within}`` under ``&`` with
        the facet masks of ``incidence``. A closed set ``s`` is a face when
        the AND of the facet masks containing it is ``s`` itself. The empty
        mask has grade -1, and a face one more than the largest of its
        intersections with the facets not containing it, which are faces
        again; so a face is graded from faces alone, smaller ones first.
        """
        per_facet = self.incidence
        closed = {within} if within else set()
        queue = list(closed)
        left = DEFAULT_BUDGET
        while queue:
            s = queue.pop()
            left -= len(per_facet)  # one unit per AND with a facet mask
            if left < 0:
                raise BudgetExceeded(f"the faces charge more than their budget of {DEFAULT_BUDGET}")
            for pf in per_facet:
                t = s & pf
                if t and t not in closed:
                    closed.add(t)
                    queue.append(t)

        everything = (1 << len(self.vertices)) - 1
        out: list[list[int]] = [[] for _ in range(self.intrinsic_dim + 1)]
        grade = {0: -1}  # of the faces only
        for s in sorted(closed, key=int.bit_count):
            top, hull = -1, everything
            for pf in per_facet:
                t = s & pf
                if t == s:
                    hull &= pf
                elif t in grade and grade[t] > top:  # only a face's grade is read
                    top = grade[t]
            if hull == s:
                grade[s] = top + 1
                out[top + 1].append(s)
        # in vertex-index order: of two faces of a grade, which never nest,
        # the first holds the lowest vertex where they differ
        return tuple(tuple(sorted(g, key=lambda m: bin(m)[:1:-1], reverse=True)) for g in out)

    def contains(self, point: Sequence) -> bool:
        """Exact membership: affine-hull equations plus facet inequalities."""
        x = as_vector(point)
        if len(x) != self.ambient_dim:
            raise DimensionMismatch(f"point dim {len(x)} vs {self.ambient_dim}")
        if not self.span.contains(x):
            return False
        return all(vdot(a, x) <= c for a, c in self.facets)

    def translate(self, shift: Sequence[int]) -> "ConvexPolytope":
        """Translate by an integer vector (lattice-point counts are unchanged);
        a non-integral entry raises ``InvalidInput``."""
        exact = as_vector(shift)
        if any(x.denominator != 1 for x in exact):
            raise InvalidInput("translation shift must be an integer vector")
        t = tuple(int(x) for x in exact)
        if len(t) != self.ambient_dim:
            raise DimensionMismatch(f"shift dim {len(t)} vs {self.ambient_dim}")
        body = ConvexPolytope(
            self.ambient_dim,
            tuple(tuple(x + y for x, y in zip(v, t)) for v in self.vertices),
            tuple((a, c + _dot(a, t)) for a, c in self.facets),
            AffineSubspace(
                self.ambient_dim,
                self.span.rows,
                tuple(b + _dot(row, t) for row, b in zip(self.span.rows, self.span.rhs)),
            ),
            self.intrinsic_dim,
        )
        scale, *parts = self.bounds  # shifted, they fill the cached_property: no vertex scan
        steps = [[x * scale for x in t]] * 2 + [[_dot(a, t) * scale for a in self.span.rows]]
        vars(body)["bounds"] = scale, *[tuple(map(add, p, d)) for p, d in zip(parts, steps)]
        return body


class PolytopalUnion(namedtuple("PolytopalUnion", "ambient_dim pieces")):
    """A finite union of full-dimensional convex pieces.

    When the facets of every piece split into several coordinate blocks
    (``coordinate_blocks``), as those of the bodies ``product`` builds
    do, the union is counted by inclusion-exclusion; every overlap
    that it subtracts is counted from the pieces' own inequalities, kept
    stacked in ``term_rows``.
    """

    __setattr__ = _frozen

    def __new__(cls, ambient_dim: int, pieces: tuple[ConvexPolytope, ...]):
        if not pieces:
            raise InvalidInput("a union needs at least one piece")
        for piece in pieces:
            if piece.ambient_dim != ambient_dim:
                raise DimensionMismatch("piece ambient dimension mismatch")
            if piece.intrinsic_dim != ambient_dim:
                raise InvalidInput("union pieces must be full-dimensional")
        return tuple.__new__(cls, (ambient_dim, pieces))

    @cached_property
    def dilate_counts(self) -> dict[tuple[int, str, int], int]:
        """The lattice-point counts ``counting`` has made of this union's
        dilates, keyed ``(k, strategy, budget)``; a count that overdrew its
        budget is not kept."""
        return {}

    @cached_property
    def fits(self) -> dict[int, tuple]:
        """The ``counting.fitted`` result for this union, by budget; a fit
        that raised is not kept."""
        return {}

    @cached_property
    def term_rows(self) -> dict[tuple[int, ...], Rows]:
        """Per intersection of pieces that ``counting`` has counted, keyed by
        the piece indices: the pieces' stacked rows, which keep their
        coordinate blocks and walk skeletons."""
        return {}

    def __repr__(self) -> str:
        return (
            f"PolytopalUnion(ambient_dim={self.ambient_dim}, "
            f"{len(self.pieces)} pieces)"
        )

    def contains(self, point: Sequence) -> bool:
        return any(piece.contains(point) for piece in self.pieces)


# ---------------------------------------------------------------------------
# Construction from vertex lists
# ---------------------------------------------------------------------------


def from_vertices(points: Iterable[Sequence]) -> ConvexPolytope:
    """Build a polytope from points: dedupe, find facets, drop non-extreme points.

    The points are scaled once by the lcm ``L`` of their denominators, so
    everything below the vertex tuples and the span's right-hand sides
    runs on integers. Facets come from the double description method, run
    on the scaled points projected onto the pivot coordinates ``S`` of
    their directions ``p - pts[0]``. The projection is one-to-one on the
    affine hull, so a facet ``g . y <= c`` found there is the ambient
    facet whose normal is ``g`` on ``S`` and 0 elsewhere; a
    full-dimensional body has every coordinate in ``S``. A point is kept
    as a vertex exactly when no other point lies on every facet through
    it; the facets' masks, less the dropped points, are its ``incidence``.
    """
    given = [as_vector(p) for p in points]
    if not given:
        raise ValueError("need at least one point")
    n = len(given[0])
    if any(len(p) != n for p in given):
        raise DimensionMismatch("ragged vertex list")

    scale, keys = _scaled(given)
    # deduped by the integer keys, whose sort is the points' sort and the
    # double description's insertion order, which keeps its cones small:
    # shuffled, barn(9,2)'s 512-point box piece takes 23 s, not 0.04 s (2 cores)
    scaled, pts = zip(*sorted(dict(zip(keys, given)).items()))
    base = scaled[0]
    dirs = [tuple(x - y for x, y in zip(p, base)) for p in scaled[1:]]
    chosen = independent_rows(dirs)
    dim = len(chosen)
    # S and the hull equations, from the rows that span the directions
    coords, kernel = pivots_and_nullspace([dirs[i] for i in chosen], n)
    rows = tuple(canonical_equation(a) for a in kernel)
    span = AffineSubspace(n, rows, tuple(Fraction(_dot(a, base), scale) for a in rows))
    if dim == 0:
        return ConvexPolytope(n, (pts[0],), (), span, 0)

    local = [tuple(p[j] for j in coords) for p in scaled]
    rays = _double_description(local, scale, [0] + [i + 1 for i in chosen])
    zeros = (0,) * n
    facets, masks = zip(*sorted(((_placed(zeros, coords, g), c), m) for (g, c), m in rays))

    everything = (1 << len(pts)) - 1
    kept = [  # the AND of the masks through a point is its minimal face
        i for i in range(len(pts))
        if reduce(and_, (m for m in masks if m >> i & 1), everything) == 1 << i
    ]
    if len(kept) < len(pts):  # a dropped point may be tight on a facet: drop its bit
        masks = tuple(sum(1 << j for j, i in enumerate(kept) if m >> i & 1) for m in masks)
    body = ConvexPolytope(n, tuple(pts[i] for i in kept), facets, span, dim)
    # fill the cached_properties: no dot products, no vertex scan
    vars(body)["incidence"] = masks
    vars(body)["bounds"] = _bounds(scale, [scaled[i] for i in kept], rows)
    return body


def _double_description(
    local: Sequence[tuple[int, ...]], scale: int, simplex: Sequence[int]
) -> list[tuple[Facet, int]]:
    """Facets ``g . x <= c`` of the hull of the full-dimensional points
    ``local / scale``, each with the bitmask of the points tight on it.

    Every integer point ``v`` of ``local`` is the homogeneous constraint
    ``(-v, scale) . (g, c) >= 0`` on the candidate inequality ``(g, c)``;
    the extreme rays of the cone of valid inequalities are exactly the
    facets of a bounded body. The cone starts as that of the simplex on
    the points indexed by ``simplex``: the constraints of its ``d + 1``
    points form a nonsingular square integer matrix ``R``, and the facet
    opposite point ``i`` is the ray vanishing on every other row of ``R``
    and positive on row ``i``, that is, column ``i`` of ``R``'s inverse.
    One fraction-free Gauss-Jordan inversion (:func:`_scaled_inverse`)
    gives all ``d + 1`` columns, up to one common factor. The other points
    are then added one at a time (Motzkin et al. 1953; Fukuda & Prodon
    1996). Rays are normalized by their gcd, and two rays are adjacent
    exactly when no third ray vanishes on every constraint that both
    vanish on. Each ray carries its zero set as a bitmask over ``local``,
    which ends as the set of points tight on the facet.
    """
    rows = [tuple(-x for x in v) + (scale,) for v in local]
    width = len(rows[0])

    det, inverse = _scaled_inverse([rows[i] for i in simplex])
    start_mask = sum(1 << i for i in simplex)
    rays: list[tuple[tuple[int, ...], int]] = []
    for k, i in enumerate(simplex):
        ray = tuple(row[k] if det > 0 else -row[k] for row in inverse)
        g = math.gcd(*ray)
        rays.append((tuple(x // g for x in ray), start_mask & ~(1 << i)))

    in_simplex = set(simplex)
    left = DEFAULT_BUDGET
    for i, row in enumerate(rows):
        if i in in_simplex:
            continue
        bit = 1 << i
        plus, zero, minus = [], [], []
        for ray, mask in rays:
            s = _dot(row, ray)
            if s > 0:
                plus.append((ray, mask, s))
            elif s < 0:
                minus.append((ray, mask, s))
            else:
                zero.append((ray, mask | bit))
        left -= len(plus) * len(minus)  # one unit per candidate pair tested
        if left < 0:
            raise BudgetExceeded(f"the hull charges more than its budget of {DEFAULT_BUDGET}")
        masks = [mask for _, mask in rays]
        fresh = []
        for rp, mp, sp in plus:
            for rm, mm, sm in minus:
                common = mp & mm
                if common.bit_count() < width - 2:
                    continue  # too few shared zeros to be adjacent: skip the scan
                if any(m & common == common and m != mp and m != mm for m in masks):
                    continue
                ray = tuple(sp * y - sm * x for x, y in zip(rp, rm))
                g = math.gcd(*ray)
                fresh.append((tuple(x // g for x in ray), common | bit))
        rays = [(ray, mask) for ray, mask, _ in plus] + zero + fresh
    return [((ray[:-1], ray[-1]), mask) for ray, mask in rays]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _placed(base: tuple, coords: Sequence[int], values: Sequence) -> tuple:
    """``base`` with ``values`` written at the positions ``coords``."""
    out = list(base)
    for i, x in zip(coords, values):
        out[i] = x
    return tuple(out)


def _scaled(points: Sequence[Vector]) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm ``L`` of the points' coordinate denominators, and the points
    times ``L`` as integer tuples."""
    scale = math.lcm(*(x.denominator for p in points for x in p))
    return scale, [tuple(x.numerator * (scale // x.denominator) for x in p) for p in points]


def _bounds(scale: int, scaled: list[tuple[int, ...]], rows: Sequence) -> tuple:
    """``bounds`` of the vertices ``scaled / scale`` on the hull of ``rows``,
    over the vertices' own common denominator, which divides ``scale``."""
    g = math.gcd(scale, *[x for v in scaled for x in v])
    axes = list(zip(*scaled)) if g == 1 else [[x // g for x in axis] for axis in zip(*scaled)]
    rhs = tuple(_dot(a, scaled[0]) // g for a in rows)
    return scale // g, tuple(map(min, axes)), tuple(map(max, axes)), rhs


# ---------------------------------------------------------------------------
# Composed operators
# ---------------------------------------------------------------------------


def product(*factors: ConvexPolytope) -> ConvexPolytope:
    """Cartesian product, each factor on the coordinates after the previous
    factor's; lattice-point counts multiply dilate by dilate.

    Vertices, facets, hull equations and ``bounds`` all compose by
    concatenation, so this never invokes hull enumeration and scales to
    high-dimensional boxes. The result records nothing of its factors:
    ``coordinate_blocks`` reads them back off its facets, split further
    where a factor is a product.
    """
    ambient = sum(f.ambient_dim for f in factors)
    verts: list[tuple] = [()]
    facets: list[Facet] = []
    span_rows: list[tuple[int, ...]] = []
    span_rhs: list[Fraction] = []
    scale = math.lcm(*[f.bounds[0] for f in factors])
    scaled: list[tuple] = [(), (), ()]  # least, greatest, rhs over ``scale``
    before = 0
    for factor in factors:
        head, tail = (0,) * before, (0,) * (ambient - before - factor.ambient_dim)
        verts = [v + fv for v in verts for fv in factor.vertices]
        facets += [(head + a + tail, c) for a, c in factor.facets]
        span_rows += [head + row + tail for row in factor.span.rows]
        span_rhs += factor.span.rhs
        s, *parts = factor.bounds
        scaled = [have + tuple(x * (scale // s) for x in new) for have, new in zip(scaled, parts)]
        before += factor.ambient_dim

    body = ConvexPolytope(
        ambient,
        tuple(sorted(verts)),
        tuple(sorted(facets)),
        AffineSubspace(ambient, tuple(span_rows), tuple(span_rhs)),
        sum(f.intrinsic_dim for f in factors),
    )
    vars(body)["bounds"] = scale, *scaled  # fills the cached_property: no vertex scan
    return body


# ---------------------------------------------------------------------------
# Faces
# ---------------------------------------------------------------------------


def faces(poly: ConvexPolytope, dim: int) -> list[int]:
    """The vertex masks of all ``dim``-dimensional faces: one grade of the
    body's ``face_lattice``."""
    if not 0 <= dim <= poly.intrinsic_dim:
        raise ValueError(f"face dimension {dim} out of range")
    return list(poly.face_lattice[dim])


# ---------------------------------------------------------------------------
# Predicates shared by polytopes and unions
# ---------------------------------------------------------------------------


def is_integral(obj: ConvexPolytope | PolytopalUnion) -> bool:
    """True when every vertex (of every piece) is an integer point."""
    return denominator(obj) == 1


def denominator(obj: ConvexPolytope | PolytopalUnion) -> int:
    """lcm of all vertex-coordinate denominators, of every piece for a
    union: a body's is the scale of its ``bounds``. A body's coefficient
    periods all divide it; a union's need not, as an overlap of its pieces
    can have a vertex denominator that none of them has."""
    if isinstance(obj, PolytopalUnion):
        return math.lcm(*(denominator(p) for p in obj.pieces))
    return obj.bounds[0]


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def polytope_to_dict(poly: ConvexPolytope) -> dict:
    return {
        "ambient_dim": poly.ambient_dim,
        "vertices": [[str(c) for c in v] for v in poly.vertices],
    }


def _json_field(data, key: str, what: str, kind: type | None = None):
    """``data[key]`` of a JSON object read from outside the program, of
    type ``kind`` when given; anything else raises ``InvalidInput``."""
    if not isinstance(data, dict):
        raise InvalidInput(f"{what}: expected a JSON object")
    if key not in data:
        raise InvalidInput(f"{what}: missing key {key!r}")
    value = data[key]
    if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
        noun = "an integer" if kind is int else f"a {kind.__name__}"
        raise InvalidInput(f"{what}: {key!r} must be {noun}, not {type(value).__name__}")
    return value


# the digit count Python reads in an int by default: a numerator or
# denominator with more digits, or a decimal exponent past it (a power of
# ten that long), is refused
_MAX_DIGITS = 4300


def _bounded(text: str) -> str:
    if len(text) > _MAX_DIGITS:  # a shorter text holds no more digits
        digits = max(sum(map(str.isdigit, part)) for part in text.split("/"))
        if digits > _MAX_DIGITS:
            raise InvalidInput(f"number of {digits} digits, beyond {_MAX_DIGITS}")
    return text


def exact_integer(text: str) -> int:
    """The integer a JSON integer literal names. One of more than
    ``_MAX_DIGITS`` digits raises ``InvalidInput``."""
    return int(_bounded(text))


def exact_rational(text: str) -> Fraction:
    """The rational a ``num/den`` or decimal text names, read as written:
    ``"0.1"`` is 1/10, not the nearest binary float. A numerator or
    denominator of more than ``_MAX_DIGITS`` digits, or an exponent beyond
    that, raises ``InvalidInput``; malformed text ``ValueError``."""
    exponent = ("e" in _bounded(text) or "E" in text) and text.lower().partition("e")[2]
    if exponent and abs(int(exponent)) > _MAX_DIGITS:
        raise InvalidInput(f"number {text}: exponent beyond {_MAX_DIGITS}")
    return Fraction(text)


def _coordinate(c, what: str) -> Fraction:
    if isinstance(c, bool) or not isinstance(c, (int, Fraction, float, str)):
        raise InvalidInput(f"{what}: coordinate {c!r} is not a number")
    try:
        return exact_rational(c) if isinstance(c, str) else Fraction(c)
    except InvalidInput as exc:
        raise InvalidInput(f"{what}: {exc}") from None
    except (ValueError, ZeroDivisionError, OverflowError):
        raise InvalidInput(f"{what}: coordinate {c!r} is not a rational number") from None


def polytope_from_dict(data: dict, what: str = "polytope") -> ConvexPolytope:
    """The hull of the listed vertices, each of ``ambient_dim`` coordinates;
    malformed data raises ``InvalidInput`` naming ``what``."""
    ambient = _json_field(data, "ambient_dim", what, int)
    verts = _json_field(data, "vertices", what, list)
    if ambient < 1 or not verts:
        raise InvalidInput(f"{what}: needs ambient_dim >= 1 and at least one vertex")
    for v in verts:
        if not isinstance(v, list) or len(v) != ambient:
            raise InvalidInput(f"{what}: every vertex must be a list of {ambient} coordinates")
    return from_vertices([tuple(_coordinate(c, what) for c in v) for v in verts])


def union_to_dict(union: PolytopalUnion) -> dict:
    return {
        "ambient_dim": union.ambient_dim,
        "pieces": [polytope_to_dict(p) for p in union.pieces],
    }


def union_from_dict(data: dict) -> PolytopalUnion:
    """Rebuild a union, each piece read as a polytope is; malformed data
    raises ``InvalidInput``. Other keys, such as the ``intersections`` and
    ``product_structure`` of older files, are ignored."""
    ambient = _json_field(data, "ambient_dim", "union", int)
    pieces = _json_field(data, "pieces", "union", list)
    return PolytopalUnion(
        ambient, tuple(polytope_from_dict(d, f"piece {i}") for i, d in enumerate(pieces))
    )
