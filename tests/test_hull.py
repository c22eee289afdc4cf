"""The double-description hull and the graded face lattice against the
brute-force oracles they replaced."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_faces, brute_force_hull

from ehrhart import constructions as C
from ehrhart.polytope import embed_product, faces, from_vertices

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


@pytest.mark.parametrize("points", [pts for _, pts in FAMILY_POINT_LISTS],
                         ids=[name for name, _ in FAMILY_POINT_LISTS])
def test_from_vertices_equals_brute_force_on_family_points(points):
    assert from_vertices(points) == brute_force_hull(points)


rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def clouds(draw):
    """Rational point clouds with duplicates and interior points, in their
    own dimension or affinely embedded in a larger one."""
    intrinsic = draw(st.integers(1, 5))
    ambient = draw(st.integers(intrinsic, 5))
    size = draw(st.integers(intrinsic + 1, intrinsic + 4))
    pts = [tuple(draw(rationals) for _ in range(intrinsic)) for _ in range(size)]
    for _ in range(draw(st.integers(0, 2))):
        pts.append(draw(st.sampled_from(pts)))  # duplicate
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        pts.append(tuple((x + y) / 2 for x, y in zip(a, b)))  # never a new vertex
    if ambient == intrinsic:
        return pts
    matrix = [[draw(st.integers(-2, 2)) for _ in range(intrinsic)] for _ in range(ambient)]
    shift = [draw(rationals) for _ in range(ambient)]
    return [
        tuple(sum(m * x for m, x in zip(row, p)) + t for row, t in zip(matrix, shift))
        for p in pts
    ]


@settings(max_examples=150, deadline=None)
@given(clouds())
def test_from_vertices_equals_brute_force_on_random_clouds(points):
    assert from_vertices(points) == brute_force_hull(points)


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
        embed_product(tuple(((i,), C.interval(0, 1)) for i in range(4)), 4),
        from_vertices([(F(1, 2), 3, 0)]),
    ]
    for dim in (2, 3, 4):
        pts = [tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(dim))
               for _ in range(dim + 5)]
        bodies.append(from_vertices(pts))
    return bodies


@pytest.mark.parametrize("body", _face_bodies(), ids=repr)
def test_faces_equal_closure_and_affine_hull_oracle(body):
    for dim in range(body.intrinsic_dim + 1):
        assert faces(body, dim) == brute_force_faces(body, dim)
