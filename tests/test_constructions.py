from fractions import Fraction
from functools import partial

import pytest

from ehrhart import constructions as C
from ehrhart._enum_py import coordinate_blocks
from ehrhart.counting import count, count_convex, count_union, fitted
from ehrhart.errors import NotAvailable, SizeMismatch, UnverifiedSolution
from ehrhart.polytope import denominator, from_vertices, is_integral
from ehrhart.pte import PteSolution, table_lookup
from ehrhart.quasipoly import fit, period_sequence

F = Fraction


def test_q_value():
    assert [C.q_value(p) for p in (1, 2, 3, 5)] == [1, 3, 7, 21]


def test_segment_family():
    assert C.segment(2).vertices == ((F(-1, 2),), (F(0),))
    assert C.segment(1).vertices == ((F(-1),), (F(0),))
    assert is_integral(C.segment(1))
    for p in range(1, 6):
        assert denominator(C.segment(p)) == p


def test_pentagon_vertices_p3():
    assert set(C.pentagon(3).vertices) == {
        (7, 0),
        (-7, 0),
        (6, 1),
        (-6, 1),
        (0, F(7, 3)),
    }


def test_heptagon_has_seven_vertices():
    assert len(C.heptagon(2).vertices) == 7
    assert set(C.heptagon(2).vertices) == {
        (3, F(-1, 2)),
        (-3, F(-1, 2)),
        (3, 0),
        (-3, 0),
        (2, 1),
        (-2, 1),
        (0, F(3, 2)),
    }


def test_simplex_vertices():
    assert set(C.simplex(3, 2).vertices) == {(0, 0), (F(-1, 2), 0), (0, 1)}
    s4 = C.simplex(4, 3)
    assert set(s4.vertices) == {
        (0, 0, 0),
        (F(-1, 3), 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    }


def test_simplex_period_sequence():
    qp = fit(partial(count, C.simplex(4, 3)), 3, 3)
    assert period_sequence(qp) == (3, 1, 1, 1)


def test_prism_vertices_match_formula():
    assert set(C.prism(3, 2).vertices) == {
        (3, -3, 0),
        (-3, -3, 0),
        (3, F(-7, 2), 0),
        (-3, F(-7, 2), 0),
        (3, -3, 1),
        (-3, -3, 1),
    }


@pytest.mark.parametrize("p", [1, 2, 3, 6])
def test_point_formulas_restate_the_families_they_hull(p):
    # heptagon writes out the rectangle's corners and hull the prism's
    # points, as formulas that skip building those bodies
    assert C.heptagon(p) == from_vertices(C.rectangle(p).vertices + C.pentagon(p).vertices)
    for n in range(3, 7):
        points = C.prism(n, p).vertices + C.pentagon_pyramid(n, p).vertices
        assert C.hull(n, p) == from_vertices(points)


def test_middle_is_integral_lattice_polytope():
    for n, p in [(3, 2), (3, 3), (4, 2)]:
        assert is_integral(C.middle(n, p))
        assert is_integral(C.prism_shared_facet(n, p))
        assert is_integral(C.pyramid_shared_facet(n, p))


def test_hull_count_spot_value():
    assert count_convex(C.hull(3, 2), 1) == 49


def test_hull_built_families_build_past_5_d():
    assert [C.hull(6, 2).intrinsic_dim, C.middle(6, 2).intrinsic_dim] == [6, 6]
    assert C.pentagon_pyramid(6, 2).intrinsic_dim == 6
    assert period_sequence(fitted(C.hull(6, 2))[0]) == (1, 2, 1, 1, 1, 1, 1)


def test_decomposition_identity_at_p_1():
    # the decomposition claim's default grid has no p = 1, where every piece is integral
    n, p = 3, 1
    pieces = [C.build(f, p, n)[0] for f in ("hull", "prism", "middle", "pentagon-pyramid")]
    pieces += [C.prism_shared_facet(n, p), C.pyramid_shared_facet(n, p)]
    for k in range(1, 5):
        hull, prism, middle, pyramid, prism_facet, pyramid_facet = (
            count_convex(body, k) for body in pieces
        )
        assert hull == prism + middle + pyramid - prism_facet - pyramid_facet


def test_shared_facets_are_slices_of_their_bodies():
    n, p = 3, 2
    q = C.q_value(p)
    prism_facet = C.prism_shared_facet(n, p)
    pyramid_facet = C.pyramid_shared_facet(n, p)
    body_prism = C.prism(n, p)
    body_pyramid = C.pentagon_pyramid(n, p)
    for v in prism_facet.vertices:
        assert v[1] == -q
        assert body_prism.contains(v)
        assert C.middle(n, p).contains(v)
    for v in pyramid_facet.vertices:
        assert v[1] == 0
        assert body_pyramid.contains(v)
        assert C.middle(n, p).contains(v)


def test_barn_structure():
    union = C.barn(3, 2, PteSolution((1, 2), (3, 0)))
    assert union.ambient_dim == 3
    assert len(union.pieces) == 2
    # piece 1 = [0,1] x [0,2] x segment, piece 2 = [0,3] x pentagon
    assert count_convex(union.pieces[0], 1) == 6
    assert count_convex(union.pieces[1], 1) == 48
    # they overlap in the integral box [0,1] x [0,2] x {0} of 6 points
    assert count_union(union, 1, strategy="enumerate") == 6 + 48 - 6
    # the facets of each piece split into the blocks it was built from
    assert [
        [cols for cols, _ in coordinate_blocks([a for a, _ in piece.facets])]
        for piece in union.pieces
    ] == [[(0,), (1,), (2,)], [(0,), (1, 2)]]


def test_barn_p1_is_integral_with_trivial_periods():
    union = C.barn(3, 1, PteSolution((1, 2), (3, 0)))
    assert is_integral(union)
    qp = fit(partial(count, union), 3, denominator(union))
    assert period_sequence(qp) == (1, 1, 1, 1)


def test_barn_size_mismatch():
    with pytest.raises(SizeMismatch):
        C.barn(4, 2, PteSolution((1, 2), (3, 0)))


def test_barn_unverified_solution():
    with pytest.raises(UnverifiedSolution):
        C.barn(3, 2, PteSolution((1, 2), (2, 0)))


def test_barn_high_dimension_well_formed():
    union = C.barn(13, 2, table_lookup(12))
    assert union.ambient_dim == 13
    assert count(union, 1) > 0


def test_build_registry():
    obj, provenance = C.build("pentagon", 3)
    assert provenance == {"family": "pentagon", "p": 3}
    assert set(obj.vertices) == set(C.pentagon(3).vertices)
    with pytest.raises(ValueError):
        C.build("simplex", 2)  # missing n
    with pytest.raises(ValueError):
        C.build("dodecahedron", 2)
    with pytest.raises(NotAvailable):
        C.build("barn", 2, n=12)
