"""Convex rational polytopes and finite unions of them.

A :class:`ConvexPolytope` is stored in both representations at once: the
extreme points, and integer facet inequalities ``normal . x <= offset``
together with the integer equations of the affine hull. ``from_vertices``
derives everything from a point list with the double description method
on integer-scaled data, which is exact and also yields which points are
tight on each facet (hulls are capped at dimension 5). ``faces`` closes
the facets' vertex sets under intersection and reads each face's
dimension off the grading of that lattice. Dilates, translates, products
and pyramids are composed directly, without re-running the hull, so
high-dimensional product bodies stay cheap to build.

All objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BadApex, DimensionCapExceeded, DimensionMismatch, EhrhartError
from .linalg import (
    AffineSubspace,
    Vector,
    as_vector,
    canonical_equation,
    independent_rows,
    integerize,
    nullspace,
    rank,
    solve_rational,
    vadd,
    vdot,
    vscale,
    vsub,
)

HULL_DIM_CAP = 5  # largest hull from_vertices builds; caps the hull-based families too
FACE_ENUM_CAP = 4

Facet = tuple[tuple[int, ...], int]  # (normal, offset): normal . x <= offset


@dataclass(frozen=True)
class ConvexPolytope:
    ambient_dim: int
    vertices: tuple[Vector, ...]
    facets: tuple[Facet, ...]
    span: AffineSubspace
    intrinsic_dim: int

    def __repr__(self) -> str:  # large product bodies would flood output
        return (
            f"ConvexPolytope(ambient_dim={self.ambient_dim}, "
            f"intrinsic_dim={self.intrinsic_dim}, "
            f"{len(self.vertices)} vertices, {len(self.facets)} facets)"
        )

    def contains(self, point: Sequence) -> bool:
        """Exact membership: affine-hull equations plus facet inequalities."""
        x = as_vector(point)
        if len(x) != self.ambient_dim:
            raise DimensionMismatch(f"point dim {len(x)} vs {self.ambient_dim}")
        if not self.span.contains(x):
            return False
        return all(vdot(a, x) <= c for a, c in self.facets)

    def dilate(self, k: int) -> "ConvexPolytope":
        """The dilate ``k * self`` for a positive integer ``k``."""
        if not isinstance(k, int) or k < 1:
            raise ValueError("dilation factor must be a positive integer")
        if k == 1:
            return self
        return ConvexPolytope(
            self.ambient_dim,
            tuple(vscale(v, k) for v in self.vertices),
            tuple((a, c * k) for a, c in self.facets),
            self.span.scaled(k),
            self.intrinsic_dim,
        )

    def translate(self, shift: Sequence[int]) -> "ConvexPolytope":
        """Translate by an integer vector (lattice-point counts are unchanged)."""
        t = tuple(int(s) for s in shift)
        if len(t) != self.ambient_dim:
            raise DimensionMismatch(f"shift dim {len(t)} vs {self.ambient_dim}")
        return ConvexPolytope(
            self.ambient_dim,
            tuple(sorted(vadd(v, t) for v in self.vertices)),
            tuple(sorted((a, c + sum(ai * ti for ai, ti in zip(a, t))) for a, c in self.facets)),
            AffineSubspace(
                self.ambient_dim,
                self.span.rows,
                tuple(b + vdot(row, t) for row, b in zip(self.span.rows, self.span.rhs)),
            ),
            self.intrinsic_dim,
        )


@dataclass(frozen=True)
class Face:
    """A face of a polytope: its vertex indices, affine span and dimension."""

    vertex_indices: tuple[int, ...]
    span: AffineSubspace
    dim: int


# one factor of a product body: the coordinates it occupies, and its shape
FactorBlock = tuple[tuple[int, ...], ConvexPolytope]
Factorization = tuple[FactorBlock, ...]


@dataclass(frozen=True)
class PolytopalUnion:
    """A finite union of full-dimensional convex pieces.

    ``intersections`` optionally records pairwise intersections
    ``(i, j, piece_i & piece_j)``; ``product_structure`` optionally records
    a factorization of each piece (and ``intersection_products`` of each
    recorded intersection) into lower-dimensional factors on disjoint
    coordinate blocks, which unlocks multiplicative counting.
    """

    ambient_dim: int
    pieces: tuple[ConvexPolytope, ...]
    intersections: tuple[tuple[int, int, ConvexPolytope], ...] | None = None
    product_structure: tuple[Factorization | None, ...] | None = None
    intersection_products: tuple[Factorization | None, ...] | None = None

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("a union needs at least one piece")
        for piece in self.pieces:
            if piece.ambient_dim != self.ambient_dim:
                raise DimensionMismatch("piece ambient dimension mismatch")
            if piece.intrinsic_dim != self.ambient_dim:
                raise ValueError("union pieces must be full-dimensional")
        if self.product_structure is not None:
            if len(self.product_structure) != len(self.pieces):
                raise ValueError("product_structure must have one entry per piece")
            for fact in self.product_structure:
                if fact is not None:
                    _check_factorization(fact, self.ambient_dim)
        if self.intersections is not None:
            for i, j, body in self.intersections:
                if not (0 <= i < j < len(self.pieces)):
                    raise ValueError("intersection indices out of range")
                if body.ambient_dim != self.ambient_dim:
                    raise DimensionMismatch("intersection ambient dimension mismatch")
            if self.intersection_products is not None and len(
                self.intersection_products
            ) != len(self.intersections):
                raise ValueError("intersection_products must match intersections")

    def __repr__(self) -> str:
        return (
            f"PolytopalUnion(ambient_dim={self.ambient_dim}, "
            f"{len(self.pieces)} pieces)"
        )

    def contains(self, point: Sequence) -> bool:
        return any(piece.contains(point) for piece in self.pieces)


def _check_factorization(fact: Factorization, ambient_dim: int) -> None:
    seen: list[int] = []
    for coords, factor in fact:
        if len(coords) != factor.ambient_dim:
            raise DimensionMismatch("factor block width mismatch")
        seen.extend(coords)
    if sorted(seen) != list(range(ambient_dim)):
        raise ValueError("factor blocks must partition the coordinates")


# ---------------------------------------------------------------------------
# Construction from vertex lists
# ---------------------------------------------------------------------------


def affine_hull(points: Sequence[Vector], ambient_dim: int) -> tuple[AffineSubspace, int]:
    """Integer equations of the affine hull of a point set, and its dimension."""
    base = points[0]
    dirs = [vsub(p, base) for p in points[1:]]
    dirs = [d for d in dirs if any(x != 0 for x in d)]
    if dirs:
        normals = nullspace(dirs)
        dim = ambient_dim - len(normals)
    else:
        normals = nullspace([], ambient_dim)
        dim = 0
    rows = []
    rhs = []
    for a in normals:
        a = canonical_equation(a)
        rows.append(a)
        rhs.append(vdot(a, base))
    sub = AffineSubspace.from_rational_rows(ambient_dim, rows, rhs)
    return sub, dim


def from_vertices(points: Iterable[Sequence]) -> ConvexPolytope:
    """Build a polytope from points: dedupe, find facets, drop non-extreme points.

    Facets come from the double description method. Lower-dimensional
    inputs are first projected to local coordinates on a basis of their
    affine hull, and the facets found there are lifted back. A point is
    kept as a vertex exactly when its tight facet normals span the
    intrinsic dimension.
    """
    pts = sorted({as_vector(p) for p in points})
    if not pts:
        raise ValueError("need at least one point")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise DimensionMismatch("ragged vertex list")

    span, dim = affine_hull(pts, n)
    if dim == 0:
        return ConvexPolytope(n, (pts[0],), (), span, 0)
    if dim > HULL_DIM_CAP:
        raise DimensionCapExceeded(
            f"hull enumeration capped at dimension {HULL_DIM_CAP}, got {dim}"
        )

    base = pts[0]
    dirs = [vsub(p, base) for p in pts[1:]]
    chosen = independent_rows(dirs)
    if dim == n:
        local = pts  # full-dimensional: ambient coordinates already work
    else:
        basis = [dirs[i] for i in chosen]
        cols = [[basis[j][i] for j in range(dim)] for i in range(n)]
        local = [(Fraction(0),) * dim] + [solve_rational(cols, d) for d in dirs]

    simplex = [0] + [i + 1 for i in chosen]
    rays = _double_description(local, simplex)
    if dim < n:
        lifted = []
        for (g, c), mask in rays:
            a = solve_rational(basis, g)
            lifted.append((_int_facet(a, vdot(a, base) + c), mask))
        rays = lifted
    facets = sorted(facet for facet, _ in rays)

    extreme = []
    for i, p in enumerate(pts):
        tight = [a for (a, _), mask in rays if mask >> i & 1]
        if rank(tight) == dim:
            extreme.append(p)
    return ConvexPolytope(n, tuple(extreme), tuple(facets), span, dim)


def _double_description(
    local: Sequence[Vector], simplex: Sequence[int]
) -> list[tuple[Facet, int]]:
    """Facets ``g . x <= c`` of the hull of full-dimensional points, each
    with the bitmask of the points tight on it.

    Every point ``v`` is the homogeneous constraint ``(-g, c) . (v, 1) >= 0``
    on the candidate inequality ``(g, c)``; the extreme rays of the cone of
    valid inequalities are exactly the facets of a bounded body. The cone
    starts as that of the simplex on the points indexed by ``simplex``,
    whose rays are its facets, and the other points are added one at a
    time (Motzkin et al. 1953; Fukuda & Prodon 1996). All data is scaled
    to integers, rays are normalized by their gcd, and two rays are
    adjacent exactly when no third ray vanishes on every constraint that
    both vanish on. Each ray carries its zero set as a bitmask over
    ``local``, which ends as the set of points tight on the facet.
    """
    rows = []
    for v in local:
        scale = math.lcm(*(x.denominator for x in v))
        rows.append(tuple(-int(x * scale) for x in v) + (scale,))
    width = len(rows[0])

    rays: list[tuple[tuple[int, ...], int]] = []
    start_mask = sum(1 << i for i in simplex)
    for i in simplex:
        others = [rows[j] for j in simplex if j != i]
        ray = integerize(nullspace(others, ncols=width)[0])
        if _dot(rows[i], ray) < 0:
            ray = tuple(-x for x in ray)
        rays.append((ray, start_mask & ~(1 << i)))

    in_simplex = set(simplex)
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
        if not minus:
            rays = [(ray, mask) for ray, mask, _ in plus] + zero
            continue
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
    return sum(x * y for x, y in zip(u, v))


def _int_facet(normal: Sequence, offset) -> Facet:
    joint = integerize(list(normal) + [offset])
    return joint[:-1], joint[-1]


# ---------------------------------------------------------------------------
# Composed operators
# ---------------------------------------------------------------------------


def embed_product(blocks: Factorization, ambient_dim: int) -> ConvexPolytope:
    """Product of factors occupying given coordinate blocks.

    Vertices, facets and hull equations all compose directly, so this
    never invokes hull enumeration and scales to high-dimensional boxes.
    """
    _check_factorization(blocks, ambient_dim)
    zero = Fraction(0)

    verts: list[list[Fraction]] = [[zero] * ambient_dim]
    for coords, factor in blocks:
        verts = [
            [*(v[i] if i not in coords else fv[coords.index(i)] for i in range(ambient_dim))]
            for v in verts
            for fv in factor.vertices
        ]

    facets: list[Facet] = []
    span_rows: list[tuple[int, ...]] = []
    span_rhs: list[Fraction] = []
    intrinsic = 0
    for coords, factor in blocks:
        intrinsic += factor.intrinsic_dim
        for a, c in factor.facets:
            normal = [0] * ambient_dim
            for idx, coeff in zip(coords, a):
                normal[idx] = coeff
            facets.append((tuple(normal), c))
        for row, b in zip(factor.span.rows, factor.span.rhs):
            normal = [0] * ambient_dim
            for idx, coeff in zip(coords, row):
                normal[idx] = coeff
            span_rows.append(tuple(normal))
            span_rhs.append(b)

    return ConvexPolytope(
        ambient_dim,
        tuple(sorted(tuple(v) for v in verts)),
        tuple(sorted(facets)),
        AffineSubspace(ambient_dim, tuple(span_rows), tuple(span_rhs)),
        intrinsic,
    )


def product(first: ConvexPolytope, second: ConvexPolytope) -> ConvexPolytope:
    """Cartesian product; lattice-point counts multiply dilate by dilate."""
    a, b = first.ambient_dim, second.ambient_dim
    return embed_product(
        ((tuple(range(a)), first), (tuple(range(a, a + b)), second)),
        a + b,
    )


def pyramid(base: ConvexPolytope, apex: Sequence[int]) -> ConvexPolytope:
    """Pyramid: hull of ``base x {0}`` and an integer apex at height 1."""
    apex_t = tuple(int(x) for x in apex)
    if len(apex_t) != base.ambient_dim + 1:
        raise DimensionMismatch("apex must live one dimension above the base")
    if apex_t[-1] != 1:
        raise BadApex("apex final coordinate must equal 1")
    lifted = [v + (Fraction(0),) for v in base.vertices]
    return from_vertices(lifted + [apex_t])


# ---------------------------------------------------------------------------
# Faces
# ---------------------------------------------------------------------------


def faces(poly: ConvexPolytope, dim: int, cap: int = FACE_ENUM_CAP) -> list[Face]:
    """All ``dim``-dimensional faces, via closure of tight vertex sets.

    Every nonempty face is an intersection of facets and is recovered as
    the set of vertices tight on those facets; ``dim == intrinsic_dim``
    returns the polytope itself as its own face. Dimensions come from the
    grading of this lattice: a vertex has dimension 0, and any other face
    one more than the largest face it strictly contains, which is its
    intersection with some facet.
    """
    if poly.intrinsic_dim > cap:
        raise DimensionCapExceeded(
            f"face enumeration capped at dimension {cap}, got {poly.intrinsic_dim}"
        )
    if not 0 <= dim <= poly.intrinsic_dim:
        raise ValueError(f"face dimension {dim} out of range")
    scale = math.lcm(*(x.denominator for v in poly.vertices for x in v))
    scaled = [[int(x * scale) for x in v] for v in poly.vertices]
    per_facet = [
        frozenset(i for i, v in enumerate(scaled) if _dot(a, v) == c * scale)
        for a, c in poly.facets
    ]
    everything = frozenset(range(len(poly.vertices)))
    closed = {everything}
    queue = [everything]
    while queue:
        s = queue.pop()
        for pf in per_facet:
            t = s & pf
            if t and t not in closed:
                closed.add(t)
                queue.append(t)

    grade: dict[frozenset, int] = {}
    for idx_set in sorted(closed, key=len):
        below = (grade[t] for t in (idx_set & pf for pf in per_facet) if t and t != idx_set)
        grade[idx_set] = 1 + max(below, default=-1)

    out = []
    for idx_set in sorted(closed, key=sorted):
        if grade[idx_set] == dim:
            subset = [poly.vertices[i] for i in sorted(idx_set)]
            sub_span, _ = affine_hull(subset, poly.ambient_dim)
            out.append(Face(tuple(sorted(idx_set)), sub_span, dim))
    return out


# ---------------------------------------------------------------------------
# Predicates shared by polytopes and unions
# ---------------------------------------------------------------------------


def is_integral(obj: ConvexPolytope | PolytopalUnion) -> bool:
    """True when every vertex (of every piece) is an integer point."""
    if isinstance(obj, PolytopalUnion):
        return all(is_integral(p) for p in obj.pieces)
    return all(c.denominator == 1 for v in obj.vertices for c in v)


def denominator(obj: ConvexPolytope | PolytopalUnion) -> int:
    """lcm of all vertex-coordinate denominators; every coefficient period
    of the dilate-count quasi-polynomial divides it."""
    if isinstance(obj, PolytopalUnion):
        return math.lcm(*(denominator(p) for p in obj.pieces))
    return math.lcm(*(c.denominator for v in obj.vertices for c in v))


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def _frac_str(x: Fraction) -> str:
    return str(x)


def polytope_to_dict(poly: ConvexPolytope) -> dict:
    return {
        "ambient_dim": poly.ambient_dim,
        "vertices": [[_frac_str(c) for c in v] for v in poly.vertices],
    }


def polytope_from_dict(data: dict) -> ConvexPolytope:
    verts = [tuple(Fraction(c) for c in v) for v in data["vertices"]]
    poly = from_vertices(verts)
    if poly.ambient_dim != data["ambient_dim"]:
        raise DimensionMismatch("ambient_dim does not match vertex width")
    return poly


def _factorization_to_list(fact: Factorization | None):
    if fact is None:
        return None
    return [
        {"coords": list(coords), "factor": polytope_to_dict(factor)}
        for coords, factor in fact
    ]


def _factorization_from_list(data, ambient_dim: int) -> Factorization | None:
    if data is None:
        return None
    return tuple(
        (tuple(entry["coords"]), polytope_from_dict(entry["factor"])) for entry in data
    )


def union_to_dict(union: PolytopalUnion) -> dict:
    out: dict = {
        "ambient_dim": union.ambient_dim,
        "pieces": [polytope_to_dict(p) for p in union.pieces],
    }
    if union.product_structure is not None:
        out["product_structure"] = [
            _factorization_to_list(f) for f in union.product_structure
        ]
    if union.intersections is not None:
        inter = []
        for idx, (i, j, body) in enumerate(union.intersections):
            entry = {"i": i, "j": j, "polytope": polytope_to_dict(body)}
            if union.intersection_products is not None:
                entry["product_structure"] = _factorization_to_list(
                    union.intersection_products[idx]
                )
            inter.append(entry)
        out["intersections"] = inter
    return out


def _product_body(fact: Factorization, listed: dict, ambient_dim: int, what: str) -> ConvexPolytope:
    """The product body of ``fact``, checked against the vertices listed for it."""
    body = embed_product(fact, ambient_dim)  # avoids hull enumeration
    vertices = sorted(tuple(Fraction(c) for c in v) for v in listed["vertices"])
    if vertices != list(body.vertices):
        raise EhrhartError(f"{what}: listed vertices disagree with its product_structure")
    return body


def union_from_dict(data: dict) -> PolytopalUnion:
    """Rebuild a union; product-structured pieces and intersections are built
    from their factors, and their listed vertices must match."""
    ambient = data["ambient_dim"]
    structure = data.get("product_structure")
    pieces = []
    piece_facts = []
    for idx, pdata in enumerate(data["pieces"]):
        fact = _factorization_from_list(structure[idx], ambient) if structure else None
        piece_facts.append(fact)
        if fact is not None:
            pieces.append(_product_body(fact, pdata, ambient, f"piece {idx}"))
        else:
            pieces.append(polytope_from_dict(pdata))
    intersections = None
    inter_facts = None
    if "intersections" in data:
        intersections = []
        inter_facts = []
        for idx, entry in enumerate(data["intersections"]):
            fact = _factorization_from_list(entry.get("product_structure"), ambient)
            inter_facts.append(fact)
            if fact is not None:
                body = _product_body(fact, entry["polytope"], ambient, f"intersection {idx}")
            else:
                body = polytope_from_dict(entry["polytope"])
            intersections.append((entry["i"], entry["j"], body))
        intersections = tuple(intersections)
        inter_facts = tuple(inter_facts)
    return PolytopalUnion(
        ambient,
        tuple(pieces),
        intersections,
        tuple(piece_facts) if structure else None,
        inter_facts,
    )
