"""Face index sequences and the divisibility bound on coefficient periods.

The ``i``-index of a polytope is the least dilate whose every
``i``-dimensional face carries a lattice point in its affine span; the
indices form a divisibility chain from the top dimension down, and each
coefficient period of the dilate-count quasi-polynomial divides the
index of matching degree. ``mcmullen_check`` computes both sequences
independently and reports the comparison: indices from the body's faces
(graded within the budget), periods from the fit of raw counts that
``counting.fitted`` keeps with the body. A face's minimal dilate divides
its vertices' denominators and is divided by that of each face
containing it. So a face with an integral vertex has index 1, and only
the vertex masks of the faces whose vertices are all non-integral are
read (``ConvexPolytope.faces_within``: taken from a kept face lattice,
else graded alone); most are fixed by their vertices and cofaces, and
only the rest have their span derived (``ConvexPolytope.face_span``) and
are solved over the integer lattice by
``linalg.min_dilate_with_lattice_point``.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .counting import fitted
from .errors import InvalidInput
from .linalg import min_dilate_with_lattice_point
from .polytope import ConvexPolytope, PolytopalUnion
from .quasipoly import period_sequence


class IndexSequence(namedtuple("IndexSequence", "values")):
    """``values[i]`` is the i-index; lowest dimension first."""

    __slots__ = ()


def index_sequence(poly: ConvexPolytope) -> IndexSequence:
    """The index sequence ``(g_0, ..., g_d)`` over the intrinsic dimension.

    Write ``m(F)`` for a face's minimal dilate, whose multiples are the
    dilates whose span holds a lattice point, and ``den(v)`` for the lcm
    of the coordinate denominators of vertex ``v``. Two rules are exact:

    - ``m(F)`` divides ``den(v)`` for every vertex ``v`` of ``F``, as
      ``den(v) * v`` lies in ``aff(den(v) * F)``; a vertex has
      ``m = den(v)``, as ``aff(m * v)`` is the point ``m * v``;
    - ``m(G)`` divides ``m(F)`` for every face ``G`` containing ``F``.

    By the first, a face with an integral vertex has ``m = 1`` and adds
    nothing to an lcm. So only the faces whose vertices are all
    non-integral are walked, from the top grade down, and a grade with
    none has index 1. A face is fixed when the lcm of its walked cofaces'
    indices one grade up (1 if none) equals the gcd of its vertices'
    ``den``, as it must when that gcd is 1. Only the other faces are
    solved, in closed form from an integer echelon basis of the lattice
    spanned by the columns of their span equations. Convex inputs only;
    the ``i``-index of a union is not defined here.
    """
    if isinstance(poly, PolytopalUnion):
        raise InvalidInput("index sequences are defined for convex polytopes only")
    dens = [math.lcm(*(x.denominator for x in v)) for v in poly.vertices]
    lattice = poly.faces_within(sum(1 << i for i, d in enumerate(dens) if d > 1))
    values, above = [], []
    for dim in reversed(range(len(lattice))):
        here = []
        for mask in lattice[dim]:
            m = math.gcd(*(d for i, d in enumerate(dens) if mask >> i & 1))
            if dim and m > 1 and m != math.lcm(*(g for s, g in above if s & mask == mask)):
                m = min_dilate_with_lattice_point(poly.face_span(mask))
            here.append((mask, m))
        values.append(math.lcm(*(m for _, m in here)))
        above = here
    return IndexSequence(tuple(reversed(values)))


def chain_check(seq: IndexSequence) -> bool:
    """Divisibility chain: each index divides the next lower one."""
    values = seq.values
    return all(values[i + 1] != 0 and values[i] % values[i + 1] == 0 for i in range(len(values) - 1))


McMullenReport = namedtuple(
    "McMullenReport", "period_sequence index_sequence period_divides_index chain_ok ok"
)


def mcmullen_check(poly: ConvexPolytope, budget: int | None = None) -> McMullenReport:
    """Compare the period sequence against the index sequence.

    The two sequences come from independent routes: periods from the
    body's ``fitted`` quasi-polynomial, indices from face spans. The report
    records whether every period divides the matching index and whether
    the chain invariant holds.
    """
    indices = index_sequence(poly).values  # first: it refuses a union before any fit
    periods = period_sequence(fitted(poly, budget)[0])
    divides = tuple(g % p == 0 for p, g in zip(periods, indices))
    chain_ok = chain_check(IndexSequence(indices))
    return McMullenReport(periods, indices, divides, chain_ok, all(divides) and chain_ok)
