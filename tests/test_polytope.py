import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import in_hull, rank, vertex_indices, vsub
from strategies import clouds

from ehrhart import constructions as C, polytope
from ehrhart.counting import count_union
from ehrhart.errors import BudgetExceeded, DimensionMismatch, InvalidInput
from ehrhart.indices import index_sequence
from ehrhart.linalg import vdot
from ehrhart.polytope import (
    PolytopalUnion,
    denominator,
    faces,
    from_vertices,
    is_integral,
    polytope_from_dict,
    polytope_to_dict,
    product,
    union_from_dict,
    union_to_dict,
)
from ehrhart.pte import table_lookup

F = Fraction


def test_pentagon_facets_frozen():
    # derived by hand from the edge pairs of (+-3,0), (+-2,1), (0,3/2)
    pent = C.pentagon(2)
    assert len(pent.vertices) == 5
    assert set(pent.facets) == {
        ((0, -1), 0),
        ((1, 1), 3),
        ((-1, 1), 3),
        ((1, 4), 6),
        ((-1, 4), 6),
    }


def test_pentagon_p1_degenerates_to_triangle():
    tri = C.pentagon(1)
    assert set(tri.vertices) == {(1, 0), (-1, 0), (0, 1)}
    assert len(tri.facets) == 3


def test_single_point():
    # one point in three forms: the integer-scaled keys dedupe it
    pt = from_vertices([(F(1, 2), 3), ("2/4", 3.0), (0.5, F(6, 2))])
    assert pt.vertices == ((F(1, 2), 3),)
    assert pt.intrinsic_dim == 0
    assert pt.facets == ()
    assert pt.contains((F(1, 2), 3))
    assert not pt.contains((0, 3))


def test_ragged_input_rejected():
    with pytest.raises(DimensionMismatch):
        from_vertices([(1, 2), (1, 2, 3)])


def test_contains_examples():
    pent = C.pentagon(2)
    assert pent.contains((0, 0))
    assert pent.contains((0, F(3, 2)))  # vertex
    assert not pent.contains((3, 1))  # violates the facet through (3,0), (2,1)
    with pytest.raises(DimensionMismatch):
        pent.contains((0, 0, 0))


def test_contains_matches_barycentric_oracle():
    rng = random.Random(3)
    bodies = [C.pentagon(2), C.heptagon(3), C.simplex(3, 2), C.middle(3, 2)]
    for body in bodies:
        for _ in range(25):
            point = tuple(
                F(rng.randint(-8, 8), rng.choice([1, 2, 3])) for _ in range(body.ambient_dim)
            )
            assert body.contains(point) == in_hull(point, body.vertices)


def test_every_vertex_satisfies_every_facet():
    for body in [C.pentagon(3), C.heptagon(2), C.simplex(4, 2), C.hull(3, 2), C.middle(4, 3)]:
        for v in body.vertices:
            assert body.span.contains(v)
            for a, c in body.facets:
                assert vdot(a, v) <= c


def test_facets_tight_on_enough_independent_vertices():
    for body in [C.pentagon(2), C.hull(3, 2), C.simplex(4, 3), C.prism(3, 2)]:
        d = body.intrinsic_dim
        for a, c in body.facets:
            tight = [v for v in body.vertices if vdot(a, v) == c]
            assert tight, "facet not tight anywhere"
            dirs = [vsub(v, tight[0]) for v in tight[1:]]
            assert rank(dirs) == d - 1  # the facet is a (d-1)-face


def test_no_vertex_is_convex_combination_of_others():
    for body in [C.pentagon(2), C.heptagon(3), C.simplex(3, 3)]:
        for i, v in enumerate(body.vertices):
            others = [w for j, w in enumerate(body.vertices) if j != i]
            assert not in_hull(v, others)


def test_interior_points_are_dropped():
    square = from_vertices([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (2, 1)])
    assert set(square.vertices) == {(0, 0), (2, 0), (0, 2), (2, 2)}


def test_round_trip_reproduces_facets():
    # products compose without the hull, which must rebuild them as they are
    composed = [product(C.interval(-1, 2), C.pentagon(2), C.segment(3))]
    for n, p in ((4, 2), (5, 3)):
        composed += C.barn(n, p, table_lookup(n - 1)).pieces
    for body in [C.pentagon(2), C.heptagon(3), C.hull(3, 2), C.middle(3, 2), C.prism(3, 3)] + composed:
        again = from_vertices(body.vertices)
        assert set(again.facets) == set(body.facets)
        assert again.vertices == body.vertices


def test_translate_matches_prism_construction():
    q = C.q_value(2)
    body = product(C.interval(-q, q), C.simplex(3, 2)).translate([0, -q, 0])
    assert body.vertices == C.prism(3, 2).vertices
    assert set(body.facets) == set(C.prism(3, 2).facets)


def test_translate_rejects_non_integral_shift():
    with pytest.raises(InvalidInput):
        C.pentagon(2).translate([1 / 2, 3 / 2])
    with pytest.raises(InvalidInput):
        C.pentagon(2).translate([F(1, 3), 0])
    moved = C.pentagon(2).translate([F(2), 1.0])
    assert moved.vertices == C.pentagon(2).translate([2, 1]).vertices


def test_product_box():
    box = product(C.interval(0, 1), C.interval(0, 2))
    assert len(box.vertices) == 4
    assert set(box.vertices) == {(0, 0), (0, 2), (1, 0), (1, 2)}


def test_product_with_point_embeds():
    pt = from_vertices([(0,)])
    emb = product(pt, C.pentagon(2))
    assert emb.ambient_dim == 3
    assert emb.intrinsic_dim == 2
    assert len(emb.vertices) == 5
    assert emb.contains((0, 2, 1))
    assert not emb.contains((1, 2, 1))


def test_rectangle_is_box_times_segment():
    rect = C.rectangle(2)
    assert set(rect.vertices) == {(-3, F(-1, 2)), (-3, 0), (3, F(-1, 2)), (3, 0)}


def lifted_pyramid(base, apex):
    return from_vertices([v + (0,) for v in base.vertices] + [apex])


def test_pyramid_over_segment_is_simplex():
    pyr = lifted_pyramid(C.segment(2), (0, 1))
    assert set(pyr.vertices) == set(C.simplex(3, 2).vertices)


def test_pyramid_over_pentagon_matches_family():
    pyr = lifted_pyramid(C.pentagon(2), (0, 0, 1))
    assert set(pyr.vertices) == set(C.pentagon_pyramid(3, 2).vertices)


def test_pyramid_over_point_is_segment():
    pyr = lifted_pyramid(from_vertices([(2,)]), (0, 1))
    assert set(pyr.vertices) == {(2, 0), (0, 1)}


def test_faces_of_pentagon():
    pent = C.pentagon(2)
    assert len(faces(pent, 0)) == 5
    edges = faces(pent, 1)
    assert len(edges) == 5
    spans = {(span.rows, tuple(span.rhs)) for span in map(pent.face_span, edges)}
    assert (((1, 4),), (F(6),)) in spans  # edge from (2,1) to (0,3/2)
    assert vertex_indices(faces(pent, 2)[0]) == tuple(range(5))


def test_faces_of_segment_top_dim_is_self():
    seg = C.segment(2)
    top = faces(seg, 1)
    assert len(top) == 1
    assert vertex_indices(top[0]) == (0, 1)


def test_six_cube_faces_under_the_default_budget(monkeypatch):
    # its lattice charges 729 closed sets times 12 facets = 8,748
    def cube():
        return product(*(C.interval(0, 1) for _ in range(6)))

    monkeypatch.setattr(polytope, "DEFAULT_BUDGET", 8_747)
    with pytest.raises(BudgetExceeded):
        cube().face_lattice
    monkeypatch.setattr(polytope, "DEFAULT_BUDGET", 8_748)
    assert [len(faces(cube(), i)) for i in range(7)] == [64, 192, 240, 160, 60, 12, 1]


def test_moment_curve_hull_charges_its_candidate_pairs(monkeypatch):
    # (x, ..., x^8) for x = 0..15 tests 67,616 candidate ray pairs
    points = [[x**e for e in range(1, 9)] for x in range(16)]
    monkeypatch.setattr(polytope, "DEFAULT_BUDGET", 10_000)
    with pytest.raises(BudgetExceeded, match="the hull charges more than its budget of 10000"):
        from_vertices(points)
    monkeypatch.setattr(polytope, "DEFAULT_BUDGET", 67_616)
    assert len(from_vertices(points).facets) == 660
    monkeypatch.undo()
    assert len(from_vertices(points).facets) == 660


def test_face_lattice_is_built_once_and_shared_by_every_reader():
    body = C.pentagon_pyramid(3, 2)
    lattice = body.face_lattice
    grades = [faces(body, i) for i in range(body.intrinsic_dim + 1)]
    index_sequence(body)
    assert body.face_lattice is lattice
    assert grades == [faces(body, i) for i in range(len(lattice))] == list(map(list, lattice))


def test_faces_returns_a_copy_of_its_grade():
    body = C.pentagon(2)
    edges = faces(body, 1)
    edges.clear()
    assert len(body.face_lattice[1]) == len(faces(body, 1)) == 5


def test_face_lattice_over_its_budget_raises_on_every_access(monkeypatch):
    cube = product(*(C.interval(0, 1) for _ in range(6)))
    monkeypatch.setattr(polytope, "DEFAULT_BUDGET", 1_000)
    for _ in range(2):
        with pytest.raises(BudgetExceeded, match="the faces charge more than their budget"):
            cube.face_lattice
    assert "face_lattice" not in vars(cube)


def test_face_counts_of_cube():
    cube = product(*(C.interval(0, 1) for _ in range(3)))
    assert [len(faces(cube, i)) for i in range(4)] == [8, 12, 6, 1]


def test_face_counts_of_nonsimple_apex():
    # the pyramid apex lies on five facets at once; the closure must still
    # recover every face exactly once (Euler characteristic 2)
    pyr = C.pentagon_pyramid(3, 2)
    counts = [len(faces(pyr, i)) for i in range(4)]
    assert counts == [6, 10, 6, 1]


def test_is_integral():
    assert is_integral(C.middle(3, 2))
    assert not is_integral(C.segment(2))
    assert is_integral(C.segment(1))


def test_denominator():
    assert denominator(C.pentagon(3)) == 3  # vertex (0, 7/3)
    assert denominator(C.middle(4, 2)) == 1
    assert denominator(C.barn(3, 2, _sol2())) == 2


def _sol2():
    from ehrhart.pte import PteSolution

    return PteSolution((1, 2), (3, 0))


def test_union_requires_full_dimensional_pieces():
    flat = from_vertices([(0, 0), (1, 0)])  # a segment inside the plane
    with pytest.raises(ValueError):
        PolytopalUnion(2, (flat,))


def test_polytope_json_round_trip():
    pent = C.pentagon(3)
    data = json.loads(json.dumps(polytope_to_dict(pent)))
    again = polytope_from_dict(data)
    assert again.vertices == pent.vertices
    assert set(again.facets) == set(pent.facets)


def _translated_barn(n, shift):
    barn = C.barn(n, 2, table_lookup(n - 1))
    return PolytopalUnion(n, tuple(piece.translate(shift) for piece in barn.pieces))


@st.composite
def unions(draw):
    """Unions of 1-3 full-dimensional pieces in 2-D to 4-D, each the hull
    of a random cloud or a translated ``product`` of a random cloud and
    intervals. A product's coordinates may be shuffled: such a piece, whose
    blocks are not contiguous, is the hull of the permuted vertices."""
    n = draw(st.integers(2, 4))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, n))  # the cloud's dimension
        cloud = from_vertices(draw(clouds(max_dim=m, bound=2).filter(lambda ps: len(ps[0]) == m)))
        intervals = []
        for _ in range(n - m):
            lo = draw(st.integers(-2, 2))
            intervals.append(C.interval(lo, lo + draw(st.integers(1, 2))))
        shift = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        piece = product(cloud, *intervals).translate(shift)
        coords = draw(st.permutations(range(n)))  # block coordinate i goes to coords[i]
        if coords != list(range(n)):
            piece = from_vertices(tuple(x for _, x in sorted(zip(coords, v))) for v in piece.vertices)
        assume(piece.intrinsic_dim == n)
        pieces.append(piece)
    return PolytopalUnion(n, tuple(pieces))


def _read_back(data):
    return union_from_dict(json.loads(json.dumps(data)))


@settings(max_examples=60)
@given(unions())
@example(C.barn(4, 2, table_lookup(3)))
@example(_translated_barn(6, [3, -1, 0, 2, -5, 1]))
def test_a_union_reads_back_from_its_vertices_as_itself(union):
    data = union_to_dict(union)
    assert list(data) == ["ambient_dim", "pieces"]
    again = _read_back(data)
    assert again == union
    assert [p.incidence for p in again.pieces] == [p.incidence for p in union.pieces]
    # the same 'auto' route, read off the rebuilt pieces' facets
    assert [count_union(again, k) for k in (1, 2)] == [count_union(union, k) for k in (1, 2)]
    assert list(again.dilate_counts) == list(union.dilate_counts)


# the ``product_structure`` an older writer gave barn(3,2): the factors of
# each piece and their coordinates
OLD_PRODUCT_STRUCTURE = [
    [
        {"coords": [0], "factor": {"ambient_dim": 1, "vertices": [["0"], ["1"]]}},
        {"coords": [1], "factor": {"ambient_dim": 1, "vertices": [["0"], ["2"]]}},
        {"coords": [2], "factor": {"ambient_dim": 1, "vertices": [["-1/2"], ["0"]]}},
    ],
    [
        {"coords": [0], "factor": {"ambient_dim": 1, "vertices": [["0"], ["3"]]}},
        {"coords": [1, 2], "factor": {"ambient_dim": 2, "vertices": [
            ["-3", "0"], ["-2", "1"], ["0", "3/2"], ["2", "1"], ["3", "0"],
        ]}},
    ],
]


@pytest.mark.parametrize("agrees", [True, False], ids=["agreeing", "disagreeing"])
def test_an_older_union_file_reads_as_its_listed_vertices(agrees):
    barn = C.barn(3, 2, _sol2())
    structure = json.loads(json.dumps(OLD_PRODUCT_STRUCTURE))
    if not agrees:  # a factor that the listed vertices do not have
        structure[0][0]["factor"]["vertices"] = [["5"], ["7"]]
    data = {**union_to_dict(barn), "product_structure": structure}
    # older files also list recorded overlaps; reading ignores them
    data["intersections"] = [{"i": 0, "j": 5, "polytope": "not a polytope"}]
    assert _read_back(data) == barn


# the units the hull charges to rebuild each piece of barn(n, 2) from its
# vertices, as a union file is read
HULL_CHARGE_PINS = {5: (98, 306), 7: (642, 1_900), 9: (3_586, 10_214)}


@pytest.mark.parametrize("n", sorted(HULL_CHARGE_PINS))
def test_the_hull_charges_the_pinned_units_for_each_barn_piece(monkeypatch, n):
    pieces = C.barn(n, 2, table_lookup(n - 1)).pieces
    for piece, charge in zip(pieces, HULL_CHARGE_PINS[n], strict=True):
        monkeypatch.setattr(polytope, "DEFAULT_BUDGET", charge)
        assert from_vertices(piece.vertices) == piece
        monkeypatch.setattr(polytope, "DEFAULT_BUDGET", charge - 1)
        with pytest.raises(BudgetExceeded, match="the hull charges more than its budget"):
            from_vertices(piece.vertices)


def test_rational_serialization_format():
    assert str(F(3, 2)) == "3/2"
    assert str(F(4, 1)) == "4"
    payload = polytope_to_dict(C.segment(2))
    assert payload["vertices"] == [["-1/2"], ["0"]]
