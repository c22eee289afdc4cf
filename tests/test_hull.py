"""The double-description hull and the graded face lattice against the
brute-force oracles they replaced."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_faces, brute_force_hull, facet_vertex_masks, rank, vertex_indices
from strategies import clouds

from ehrhart import constructions as C
from ehrhart.linalg import min_dilate_with_lattice_point
from ehrhart.polytope import ConvexPolytope, denominator, faces, from_vertices, product

F = Fraction


def _family_point_lists():
    """The point lists the hull-built families hand to ``from_vertices``."""
    lists = []
    for p in (1, 2, 3):
        lists.append((f"pentagon p={p}", list(C.pentagon(p).vertices)))
        lists.append((
            f"heptagon p={p}",
            list(C.rectangle(p).vertices) + list(C.pentagon(p).vertices),
        ))
    for p in (1, 2):
        for n in (3, 4):
            pyr = list(C.pentagon_pyramid(n, p).vertices)
            lists.append((f"pentagon-pyramid n={n} p={p}", pyr))
            lists.append((f"hull n={n} p={p}", list(C.prism(n, p).vertices) + pyr))
            prism_facet = list(C.prism_shared_facet(n, p).vertices)
            pyramid_facet = list(C.pyramid_shared_facet(n, p).vertices)
            lists.append((f"prism-shared-facet n={n} p={p}", prism_facet))
            lists.append((f"pyramid-shared-facet n={n} p={p}", pyramid_facet))
            lists.append((f"middle n={n} p={p}", prism_facet + pyramid_facet))
            lists.append((f"simplex n={n} p={p}", list(C.simplex(n, p).vertices)))
    lists.append(("simplex n=5 p=2", list(C.simplex(5, 2).vertices)))
    return lists


FAMILY_POINT_LISTS = _family_point_lists()

# embedded bodies whose pivot coordinates are not the leading ones
EMBEDDED_POINT_LISTS = [
    (
        "polygon in R^4 with x0 constant and x3 fractional in x1, x2",
        [(3, x1, x2, F(x1 - 2 * x2, 3) + F(1, 2))
         for x1, x2 in ((0, 0), (3, 0), (4, 2), (1, 3), (-1, 1), (1, 1))],
    ),
    (
        "segment in R^3 along (0, 2, 1/3)",
        [(1, -1 + 2 * t, t / 3) for t in (F(0), F(1, 2), F(1), F(3))],
    ),
]


@pytest.mark.parametrize("points", [pts for _, pts in FAMILY_POINT_LISTS + EMBEDDED_POINT_LISTS],
                         ids=[name for name, _ in FAMILY_POINT_LISTS + EMBEDDED_POINT_LISTS])
def test_from_vertices_equals_brute_force_on_family_points(points):
    assert from_vertices(points) == brute_force_hull(points)


@settings(max_examples=150)
@given(clouds(max_den=12))  # coprime denominators make the common scale large
def test_from_vertices_equals_brute_force_on_random_clouds(points):
    assert from_vertices(points) == brute_force_hull(points)


def test_a_non_extreme_point_on_a_facet_leaves_no_bit_in_its_mask():
    # the midpoint (1, 0) is tight on y >= 0 but no vertex
    body = from_vertices([(0, 0), (1, 0), (2, 0), (0, 2), (2, 2)])
    assert (1, 0) not in body.vertices
    assert body.incidence == facet_vertex_masks(body)


@settings(max_examples=100)
@given(clouds(max_den=12), st.data())
def test_the_hull_hands_the_body_its_facet_masks(points, data):
    # a midpoint of two vertices lies on every facet through both: a point
    # the hull drops, whose bit the masks must drop too
    body = from_vertices(points)
    pair = st.tuples(st.sampled_from(body.vertices), st.sampled_from(body.vertices))
    pairs = data.draw(st.lists(pair, max_size=4), label="pairs")
    more = from_vertices(points + [tuple((x + y) / 2 for x, y in zip(u, v)) for u, v in pairs])
    assert more == body
    assert body.incidence == more.incidence == facet_vertex_masks(body)


def _face_bodies():
    rng = random.Random(11)
    bodies = [
        C.segment(2),
        C.pentagon(3),
        C.heptagon(2),
        C.simplex(4, 2),
        C.hull(3, 2),
        C.hull(4, 2),
        C.middle(4, 2),
        C.pentagon_pyramid(4, 3),
        C.prism_shared_facet(4, 2),  # lower-dimensional
        product(*(C.interval(0, 1) for _ in range(4))),
        from_vertices([(F(1, 2), 3, 0)]),
    ]
    for dim in (2, 3, 4):
        pts = [tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(dim))
               for _ in range(dim + 5)]
        bodies.append(from_vertices(pts))
    return bodies


def _assert_faces_match_oracle(body, dim, got, want):
    """The masks ``got`` of grade ``dim`` have the oracle's vertex sets, in
    order, and its dimension; spans equal as sets, since each contains the
    face's vertices and has the face's dimension."""
    assert [vertex_indices(m) for m in got] == [f.vertex_indices for f in want]
    assert all(f.dim == dim for f in want)
    for mask, oracle in zip(got, want):
        span = body.face_span(mask)
        for s in (span, oracle.span):
            assert all(s.contains(body.vertices[i]) for i in oracle.vertex_indices)
            assert rank(s.rows) == body.ambient_dim - dim
        assert min_dilate_with_lattice_point(span) == min_dilate_with_lattice_point(oracle.span)


@pytest.mark.parametrize("body", _face_bodies(), ids=repr)
def test_faces_equal_closure_and_affine_hull_oracle(body):
    for dim in range(body.intrinsic_dim + 1):
        _assert_faces_match_oracle(body, dim, faces(body, dim), brute_force_faces(body, dim))


@settings(max_examples=60)
@given(clouds(max_dim=4))
def test_face_lattice_equals_oracle_on_random_clouds(points):
    body = from_vertices(points)
    lattice = body.face_lattice
    assert len(lattice) == body.intrinsic_dim + 1
    for dim, grade in enumerate(lattice):
        _assert_faces_match_oracle(body, dim, grade, brute_force_faces(body, dim))


@pytest.mark.parametrize("body", _face_bodies(), ids=repr)
def test_translates_and_products_have_the_dot_product_masks(body):
    moved = body.translate((3, -1, 2, 0)[:body.ambient_dim])
    assert body.incidence == moved.incidence == facet_vertex_masks(moved)
    assert body.incidence == facet_vertex_masks(body)
    with_segment = product(moved, C.segment(2))
    assert with_segment.incidence == facet_vertex_masks(with_segment)


@settings(max_examples=60)
@given(clouds(max_dim=4, max_den=12), st.data())
def test_faces_within_a_mask_are_the_lattice_faces_inside_it(points, data):
    body = from_vertices(points)
    everything = (1 << len(body.vertices)) - 1
    within = data.draw(st.integers(0, everything), label="within")
    if data.draw(st.booleans(), label="lattice first"):
        lattice = body.face_lattice
        sub = body.faces_within(within)  # the kept lattice's own faces
    else:
        sub = body.faces_within(within)  # graded from the facets alone
        lattice = body.face_lattice
    assert sub == tuple(tuple(m for m in grade if m & within == m) for grade in lattice)
    assert sub == from_vertices(points).faces_within(within)
    assert body.faces_within(everything) is body.face_lattice


def _vertex_extremes(body):
    return tuple(map(min, zip(*body.vertices))), tuple(map(max, zip(*body.vertices))), body.span.rhs


@settings(max_examples=60)
@given(clouds(max_dim=3), clouds(max_dim=3), st.data())
def test_bounds_are_the_least_and_greatest_vertex_coordinates(first, second, data):
    # the bounds, and the hull right-hand sides, are integers over the
    # body's denominator; a product's are its factors' joined in order, the
    # hull's kept from the points it scaled, reduced where a dropped point
    # had a larger denominator, as the cloud's centroid may, and a
    # translate's shifted: all are those a copy of the body, which keeps
    # nothing, finds from its vertices. Composing three factors at once or
    # two at a time gives one body
    centroid = tuple(sum(x) / len(first) for x in zip(*first))
    body, other = from_vertices(first + [centroid]), from_vertices(second)
    assert all("bounds" in vars(b) for b in (body, other) if b.intrinsic_dim)
    pair = product(body, other)
    triple = product(body, other, body)
    assert triple == product(pair, body)
    shift = data.draw(st.lists(st.integers(-5, 5), min_size=pair.ambient_dim,
                               max_size=pair.ambient_dim), label="shift")
    moved = pair.translate(shift), body.translate(shift[:body.ambient_dim])
    assert all("bounds" in vars(each) for each in moved)
    for each in (body, pair, triple, *moved):
        scale, *scaled = each.bounds
        assert scale == denominator(each)
        assert all(type(x) is int for part in scaled for x in part)
        assert tuple(tuple(Fraction(x, scale) for x in part) for part in scaled) == _vertex_extremes(each)
        assert each.bounds == ConvexPolytope(*each).bounds
