"""Generators for the polytope families with prescribed period behaviour.

Everything is parameterized by a positive integer ``p`` (the period to be
realized) with the derived constant ``q = p**2 - p + 1``, and where
applicable by the ambient dimension ``n``. The building blocks are a
segment with a rational endpoint and a pentagon whose dilate counts
cancel the segment's periodic parts; pyramids, prisms and hulls assemble
them into higher-dimensional bodies, and a two-piece product union glues
box-scaled copies along an integral intersection using an ideal
equal-power-sum pair. Every product (``rectangle``, ``prism`` and both
barn pieces) is one ``product`` call, its factors on consecutive
coordinates in the order written.

``p = 1`` is admitted everywhere and degenerates every family to an
integral polytope (all periods 1); generators do not special-case it
beyond vertex deduplication.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInput, SizeMismatch, UnverifiedSolution
from .polytope import ConvexPolytope, PolytopalUnion, from_vertices, product
from .pte import PteSolution, table_lookup, verify as pte_verify


def q_value(p: int) -> int:
    """The derived constant ``q = p**2 - p + 1``; coprime to ``p``."""
    _check_p(p)
    return p * p - p + 1


def _check_p(p: int) -> None:
    if not isinstance(p, int) or p < 1:
        raise InvalidInput("p must be a positive integer")


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 3:
        raise InvalidInput("n must be an integer >= 3")


def interval(lo: int, hi: int) -> ConvexPolytope:
    """The segment ``[lo, hi]`` in R^1 (a point when lo == hi)."""
    return from_vertices([(lo,), (hi,)])


def segment(p: int) -> ConvexPolytope:
    """``[-1/p, 0]`` in R^1; its dilate count is ``floor(k/p) + 1``."""
    _check_p(p)
    return from_vertices([(Fraction(-1, p),), (0,)])


def _unit(n: int, i: int) -> tuple[int, ...]:
    """The ``i``-th unit vector of R^n."""
    return tuple(int(j == i) for j in range(n))


def _pentagon_points(p: int) -> list[tuple]:
    q = q_value(p)
    return [(q, 0), (-q, 0), (q - 1, 1), (-(q - 1), 1), (0, Fraction(q, p))]


def pentagon(p: int) -> ConvexPolytope:
    """Pentagon with vertices ``(+-q, 0)``, ``(+-(q-1), 1)``, ``(0, q/p)``.

    Its dilate counts are complementary to the segment's: the periodic
    parts cancel in the sum. Degenerates to a triangle at ``p = 1``.
    """
    return from_vertices(_pentagon_points(p))


def rectangle(p: int) -> ConvexPolytope:
    """``[-q, q] x segment(p)`` in R^2."""
    return product(interval(-q_value(p), q_value(p)), segment(p))


def heptagon(p: int) -> ConvexPolytope:
    """Hull of the rectangle and the pentagon; period sequence ``(1, p, 1)``.

    The two overlap exactly in the lattice segment ``[-q, q] x {0}``, so
    the hull is their union and the periodic parts interact only through
    the box factor.
    """
    q = q_value(p)
    corners = [(x, y) for x in (q, -q) for y in (Fraction(-1, p), 0)]  # the rectangle's
    return from_vertices(corners + _pentagon_points(p))


def simplex(n: int, p: int) -> ConvexPolytope:
    """``conv{0, -(1/p)e_1, e_2, ..., e_(n-1)}`` in R^(n-1).

    An ``(n-2)``-fold pyramid over the segment; period sequence
    ``(p, 1, ..., 1)``.
    """
    return from_vertices(_simplex_points(n, p))


def _simplex_points(n: int, p: int) -> list[tuple]:
    _check_n(n)
    _check_p(p)
    d = n - 1
    return [(0,) * d, (Fraction(-1, p),) + (0,) * (d - 1)] + [_unit(d, i) for i in range(1, d)]


def prism(n: int, p: int) -> ConvexPolytope:
    """``([-q, q] x simplex(n, p)) - q e_2`` in R^n.

    The translation drops the prism just below the hyperplane ``x_2 = 0``
    so the hull with the pentagon pyramid is easy to slice.
    """
    _check_n(n)
    q = q_value(p)
    return product(interval(-q, q), simplex(n, p)).translate((0, -q) + (0,) * (n - 2))


def _pentagon_pyramid_points(n: int, p: int) -> list[tuple]:
    _check_n(n)
    return [v + (0,) * (n - 2) for v in _pentagon_points(p)] + [_unit(n, i) for i in range(2, n)]


def pentagon_pyramid(n: int, p: int) -> ConvexPolytope:
    """``conv(pentagon x {0} u {e_3, ..., e_n})`` in R^n: iterated pyramids."""
    return from_vertices(_pentagon_pyramid_points(n, p))


def _prism_points(n: int, p: int) -> list[tuple]:
    """The prism's points: ``+-q`` times the simplex's, dropped by ``q e_2``
    as ``prism`` drops them."""
    q = q_value(p)
    return [(x, v[0] - q) + v[1:] for x in (q, -q) for v in _simplex_points(n, p)]


def hull(n: int, p: int) -> ConvexPolytope:
    """Hull of the prism and the pentagon pyramid; periods ``(1, p, 1, ..., 1)``."""
    return from_vertices(_prism_points(n, p) + _pentagon_pyramid_points(n, p))


def _prism_facet_points(n: int, p: int) -> list[tuple]:
    return [v for v in _prism_points(n, p) if v[1] == -q_value(p)]


def _pyramid_facet_points(n: int, p: int) -> list[tuple]:
    return [v for v in _pentagon_pyramid_points(n, p) if v[1] == 0]


def prism_shared_facet(n: int, p: int) -> ConvexPolytope:
    """The prism facet on ``x_2 = -q``: ``conv{+-q e_1 (+ e_j)} - q e_2``."""
    return from_vertices(_prism_facet_points(n, p))


def pyramid_shared_facet(n: int, p: int) -> ConvexPolytope:
    """The pyramid facet on ``x_2 = 0``: ``conv{+-q e_1, e_3, ..., e_n}``."""
    return from_vertices(_pyramid_facet_points(n, p))


def middle(n: int, p: int) -> ConvexPolytope:
    """Hull of the two shared facets: the integral slab between prism and pyramid."""
    return from_vertices(_prism_facet_points(n, p) + _pyramid_facet_points(n, p))


def barn(n: int, p: int, sol: PteSolution) -> PolytopalUnion:
    """Two-piece product union with period sequence ``(1, ..., 1, p, 1)``.

    Piece one is the box ``prod [0, s_i]`` times the segment, piece two
    the box ``prod [0, t_j]`` over ``j < n - 1`` times the pentagon; each
    factor takes the coordinates after the previous one's, so the segment
    sits on coordinate ``n`` and the pentagon on ``(n-1, n)``. They meet in
    the integral box ``prod [0, min(s_i, t_i)] x [0, min(s_(n-1), q)] x {0}``.
    The facets of both pieces split into these blocks, so dilate counts
    come from inclusion-exclusion, whose terms split the same way.

    Requires a verified equal-power-sum pair of size ``n - 1``.
    """
    _check_n(n)
    _check_p(p)
    if sol.size != n - 1:
        raise SizeMismatch(f"need a solution of size {n - 1}, got {sol.size}")
    if not pte_verify(sol):
        raise UnverifiedSolution("equal-power-sum solution failed verification")
    return PolytopalUnion(
        ambient_dim=n,
        pieces=(
            product(*(interval(0, x) for x in sol.s), segment(p)),
            product(*(interval(0, x) for x in sol.t[:-1]), pentagon(p)),
        ),
    )


# ---------------------------------------------------------------------------
# Family registry (CLI surface)
# ---------------------------------------------------------------------------

# family -> (constructor, whether it takes n), in the order ``FAMILIES``,
# the CLI's choices and the unknown-family error list them
_BUILDERS = {
    "segment": (segment, False),
    "pentagon": (pentagon, False),
    "rectangle": (rectangle, False),
    "heptagon": (heptagon, False),
    "simplex": (simplex, True),
    "prism": (prism, True),
    "pentagon-pyramid": (pentagon_pyramid, True),
    "hull": (hull, True),
    "middle": (middle, True),
    "barn": (barn, True),
}
FAMILIES = tuple(_BUILDERS)


def build(family: str, p: int, n: int | None = None):
    """Build a family member; returns ``(object, provenance dict)``.

    A family that takes no dimension refuses ``n``, as one that takes one
    needs it. A barn takes the tabulated PTE solution of size ``n - 1``,
    which its provenance records.
    """
    if family not in _BUILDERS:
        raise InvalidInput(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    make, needs_n = _BUILDERS[family]
    if needs_n != (n is not None):
        raise InvalidInput(f"family {family!r} {'needs' if needs_n else 'takes no'} --n")
    if not needs_n:
        return make(p), {"family": family, "p": p}
    provenance = {"family": family, "p": p, "n": n}
    if family != "barn":
        return make(n, p), provenance
    sol = table_lookup(n - 1)
    provenance["pte_solution"] = {"s": list(sol.s), "t": list(sol.t)}
    return make(n, p, sol), provenance
