"""Generators for the polytope families with prescribed period behaviour.

Everything is parameterized by a positive integer ``p`` (the period to be
realized) with the derived constant ``q = p**2 - p + 1``, and where
applicable by the ambient dimension ``n``. The building blocks are a
segment with a rational endpoint and a pentagon whose dilate counts
cancel the segment's periodic parts; pyramids, prisms and hulls assemble
them into higher-dimensional bodies, and a two-piece product union glues
box-scaled copies along an integral intersection using an ideal
equal-power-sum pair.

``p = 1`` is admitted everywhere and degenerates every family to an
integral polytope (all periods 1); generators do not special-case it
beyond vertex deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .counting import count_convex, count_union
from .errors import DimensionCapExceeded, EhrhartError, SizeMismatch, UnverifiedSolution
from .polytope import (
    ConvexPolytope,
    Factorization,
    HULL_DIM_CAP,
    PolytopalUnion,
    embed_product,
    from_vertices,
    is_integral,
    product,
)
from .pte import PteSolution, verify as pte_verify


def q_value(p: int) -> int:
    """The derived constant ``q = p**2 - p + 1``; coprime to ``p``."""
    _check_p(p)
    return p * p - p + 1


def _check_p(p: int) -> None:
    if not isinstance(p, int) or p < 1:
        raise ValueError("p must be a positive integer")


def _check_n(n: int, minimum: int = 3) -> None:
    if not isinstance(n, int) or n < minimum:
        raise ValueError(f"n must be an integer >= {minimum}")


def interval(lo: int, hi: int) -> ConvexPolytope:
    """The segment ``[lo, hi]`` in R^1 (a point when lo == hi)."""
    return from_vertices([(lo,), (hi,)])


def segment(p: int) -> ConvexPolytope:
    """``[-1/p, 0]`` in R^1; its dilate count is ``floor(k/p) + 1``."""
    _check_p(p)
    return from_vertices([(Fraction(-1, p),), (0,)])


def pentagon(p: int) -> ConvexPolytope:
    """Pentagon with vertices ``(+-q, 0)``, ``(+-(q-1), 1)``, ``(0, q/p)``.

    Its dilate counts are complementary to the segment's: the periodic
    parts cancel in the sum. Degenerates to a triangle at ``p = 1``.
    """
    q = q_value(p)
    return from_vertices(
        [
            (q, 0),
            (-q, 0),
            (q - 1, 1),
            (-(q - 1), 1),
            (0, Fraction(q, p)),
        ]
    )


def rectangle(p: int) -> ConvexPolytope:
    """``[-q, q] x segment(p)`` in R^2."""
    return product(interval(-q_value(p), q_value(p)), segment(p))


def heptagon(p: int) -> ConvexPolytope:
    """Hull of the rectangle and the pentagon; period sequence ``(1, p, 1)``.

    The two overlap exactly in the lattice segment ``[-q, q] x {0}``, so
    the hull is their union and the periodic parts interact only through
    the box factor.
    """
    r = rectangle(p)
    pent = pentagon(p)
    return from_vertices(list(r.vertices) + list(pent.vertices))


def simplex(n: int, p: int) -> ConvexPolytope:
    """``conv{0, -(1/p)e_1, e_2, ..., e_(n-1)}`` in R^(n-1).

    An ``(n-2)``-fold pyramid over the segment; period sequence
    ``(p, 1, ..., 1)``.
    """
    _check_n(n)
    _check_p(p)
    d = n - 1
    verts: list[tuple] = [tuple([0] * d), (Fraction(-1, p),) + (0,) * (d - 1)]
    for i in range(1, d):
        e = [0] * d
        e[i] = 1
        verts.append(tuple(e))
    return from_vertices(verts)


def prism(n: int, p: int) -> ConvexPolytope:
    """``([-q, q] x simplex(n, p)) - q e_2`` in R^n.

    The translation drops the prism just below the hyperplane ``x_2 = 0``
    so the hull with the pentagon pyramid is easy to slice.
    """
    _check_n(n)
    q = q_value(p)
    body = embed_product(
        (((0,), interval(-q, q)), (tuple(range(1, n)), simplex(n, p))), n
    )
    shift = [0] * n
    shift[1] = -q
    return body.translate(shift)


def pentagon_pyramid(n: int, p: int) -> ConvexPolytope:
    """``conv(pentagon x {0} u {e_3, ..., e_n})`` in R^n: iterated pyramids."""
    _check_n(n)
    if n > HULL_DIM_CAP:
        raise DimensionCapExceeded(f"pentagon pyramid capped at n <= {HULL_DIM_CAP}")
    verts = [v + (0,) * (n - 2) for v in pentagon(p).vertices]
    for i in range(2, n):
        e = [0] * n
        e[i] = 1
        verts.append(tuple(e))
    return from_vertices(verts)


def hull(n: int, p: int) -> ConvexPolytope:
    """Hull of the prism and the pentagon pyramid; periods ``(1, p, 1, ..., 1)``."""
    _check_n(n)
    if n > HULL_DIM_CAP:
        raise DimensionCapExceeded(f"hull family capped at n <= {HULL_DIM_CAP}")
    return from_vertices(
        list(prism(n, p).vertices) + list(pentagon_pyramid(n, p).vertices)
    )


def prism_shared_facet(n: int, p: int) -> ConvexPolytope:
    """The prism facet on ``x_2 = -q``: ``conv{+-q e_1 (+ e_j)} - q e_2``."""
    _check_n(n)
    q = q_value(p)
    verts = []
    for sign in (q, -q):
        base = [0] * n
        base[0] = sign
        base[1] = -q
        verts.append(tuple(base))
        for j in range(2, n):
            v = list(base)
            v[j] = 1
            verts.append(tuple(v))
    return from_vertices(verts)


def pyramid_shared_facet(n: int, p: int) -> ConvexPolytope:
    """The pyramid facet on ``x_2 = 0``: ``conv{+-q e_1, e_3, ..., e_n}``."""
    _check_n(n)
    q = q_value(p)
    verts = [(q,) + (0,) * (n - 1), (-q,) + (0,) * (n - 1)]
    for j in range(2, n):
        e = [0] * n
        e[j] = 1
        verts.append(tuple(e))
    return from_vertices(verts)


def middle(n: int, p: int) -> ConvexPolytope:
    """Hull of the two shared facets: the integral slab between prism and pyramid."""
    _check_n(n)
    if n > HULL_DIM_CAP:
        raise DimensionCapExceeded(f"middle family capped at n <= {HULL_DIM_CAP}")
    return from_vertices(
        list(prism_shared_facet(n, p).vertices)
        + list(pyramid_shared_facet(n, p).vertices)
    )


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of the hull = prism u middle u pyramid count identity."""

    n: int
    p: int
    k_max: int
    ok: bool
    first_failing_k: int | None
    integral_middle: bool
    integral_prism_side: bool
    integral_pyramid_side: bool
    counts: dict

    def __bool__(self) -> bool:
        return self.ok


def decomposition_check(n: int, p: int, k_max: int, budget: int | None = None) -> DecompositionReport:
    """Verify count(hull) = count(prism) + count(middle) + count(pyramid)
    minus the two shared facets, for every dilate up to ``k_max``.

    The shared facets are exactly the pairwise intersections of the three
    pieces, and both must be (and are checked to be) integral.
    """
    _check_n(n)
    if n > 4:
        raise DimensionCapExceeded("decomposition check supported for n <= 4")
    bodies = {
        "hull": hull(n, p),
        "prism": prism(n, p),
        "middle": middle(n, p),
        "pyramid": pentagon_pyramid(n, p),
        "prism_facet": prism_shared_facet(n, p),
        "pyramid_facet": pyramid_shared_facet(n, p),
    }
    counts: dict = {name: [] for name in bodies}
    first_fail = None
    for k in range(1, k_max + 1):
        row = {name: count_convex(body, k, budget) for name, body in bodies.items()}
        for name in bodies:
            counts[name].append(row[name])
        lhs = row["hull"]
        rhs = (
            row["prism"]
            + row["middle"]
            + row["pyramid"]
            - row["prism_facet"]
            - row["pyramid_facet"]
        )
        if lhs != rhs and first_fail is None:
            first_fail = k
    flags = (
        is_integral(bodies["middle"]),
        is_integral(bodies["prism_facet"]),
        is_integral(bodies["pyramid_facet"]),
    )
    return DecompositionReport(
        n,
        p,
        k_max,
        first_fail is None and all(flags),
        first_fail,
        *flags,
        counts,
    )


def barn(n: int, p: int, sol: PteSolution, check: bool = True) -> PolytopalUnion:
    """Two-piece product union with period sequence ``(1, ..., 1, p, 1)``.

    Piece one is the box ``prod [0, s_i]`` times the segment (coordinates
    ``1..n-1`` and ``n``); piece two is the box ``prod [0, t_j]`` times
    the pentagon (coordinates ``1..n-2`` and ``(n-1, n)``). They meet in
    the integral box ``prod [0, min(s_i, t_i)] x [0, min(s_(n-1), q)] x {0}``,
    recorded together with the product structure so dilate counts come
    from inclusion-exclusion over per-factor counts.

    Requires a verified equal-power-sum pair of size ``n - 1``. For
    ``n <= 4`` (and ``check=True``) the recorded intersection is
    cross-checked against full enumeration at dilates 1 and 2.
    """
    _check_n(n)
    _check_p(p)
    if sol.size != n - 1:
        raise SizeMismatch(f"need a solution of size {n - 1}, got {sol.size}")
    if not pte_verify(sol):
        raise UnverifiedSolution("equal-power-sum solution failed verification")
    q = q_value(p)
    s, t = sol.s, sol.t

    blocks1: list = [((i,), interval(0, s[i])) for i in range(n - 1)]
    blocks1.append(((n - 1,), segment(p)))
    fact1: Factorization = tuple(blocks1)

    blocks2: list = [((j,), interval(0, t[j])) for j in range(n - 2)]
    blocks2.append(((n - 2, n - 1), pentagon(p)))
    fact2: Factorization = tuple(blocks2)

    inter_blocks: list = [((i,), interval(0, min(s[i], t[i]))) for i in range(n - 2)]
    inter_blocks.append(((n - 2,), interval(0, min(s[n - 2], q))))
    inter_blocks.append(((n - 1,), interval(0, 0)))
    fact_inter: Factorization = tuple(inter_blocks)

    union = PolytopalUnion(
        ambient_dim=n,
        pieces=(embed_product(fact1, n), embed_product(fact2, n)),
        intersections=((0, 1, embed_product(fact_inter, n)),),
        product_structure=(fact1, fact2),
        intersection_products=(fact_inter,),
    )
    if check and n <= 4:
        for k in (1, 2):
            direct = count_union(union, k, strategy="enumerate")
            fast = count_union(union, k, strategy="inclusion-exclusion")
            if direct != fast:
                raise EhrhartError(
                    f"recorded intersection is wrong: enumeration {direct} != "
                    f"inclusion-exclusion {fast} at k={k}"
                )
    return union


# ---------------------------------------------------------------------------
# Family registry (CLI surface)
# ---------------------------------------------------------------------------

FAMILIES = (
    "segment",
    "pentagon",
    "rectangle",
    "heptagon",
    "simplex",
    "prism",
    "pentagon-pyramid",
    "hull",
    "middle",
    "barn",
)

_NEEDS_N = {"simplex", "prism", "pentagon-pyramid", "hull", "middle", "barn"}


def build(family: str, p: int, n: int | None = None):
    """Build a family member; returns ``(object, provenance dict)``."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    if family in _NEEDS_N:
        if n is None:
            raise ValueError(f"family {family!r} needs --n")
        provenance = {"family": family, "p": p, "n": n}
    else:
        provenance = {"family": family, "p": p}
    if family == "segment":
        return segment(p), provenance
    if family == "pentagon":
        return pentagon(p), provenance
    if family == "rectangle":
        return rectangle(p), provenance
    if family == "heptagon":
        return heptagon(p), provenance
    if family == "simplex":
        return simplex(n, p), provenance
    if family == "prism":
        return prism(n, p), provenance
    if family == "pentagon-pyramid":
        return pentagon_pyramid(n, p), provenance
    if family == "hull":
        return hull(n, p), provenance
    if family == "middle":
        return middle(n, p), provenance
    from .pte import table_lookup

    sol = table_lookup(n - 1)
    provenance["pte_solution"] = {"s": list(sol.s), "t": list(sol.t)}
    return barn(n, p, sol), provenance
