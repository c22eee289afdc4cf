import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from oracles import brute_min_dilate, vertex_indices
from strategies import clouds

from ehrhart import cli, constructions as C, indices, polytope
from ehrhart.errors import InvalidInput
from ehrhart.indices import IndexSequence, chain_check, index_sequence, mcmullen_check
from ehrhart.linalg import min_dilate_with_lattice_point
from ehrhart.polytope import denominator, faces, from_vertices, is_integral, product
from ehrhart.pte import PteSolution


def test_segment_indices():
    for p in (1, 2, 3):
        assert index_sequence(C.segment(p)).values == (p, 1)


def test_pentagon_indices():
    # only the apex (0, 3/2) needs dilate 2; every edge span has a lattice point
    assert index_sequence(C.pentagon(2)).values == (2, 1, 1)


def test_heptagon_indices():
    # the bottom edge lies on x_2 = -1/2, so the 1-index is 2 as well
    assert index_sequence(C.heptagon(2)).values == (2, 2, 1)


def test_integral_polytope_indices_all_ones():
    cube = product(*(C.interval(0, 1) for _ in range(3)))
    assert index_sequence(cube).values == (1, 1, 1, 1)
    report = mcmullen_check(cube)
    assert report.ok
    assert report.period_sequence == (1, 1, 1, 1)


def test_simplex_mcmullen():
    report = mcmullen_check(C.simplex(3, 2))
    assert report.period_sequence == (2, 1, 1)
    assert report.index_sequence == (2, 1, 1)
    assert report.ok


def test_heptagon_mcmullen():
    report = mcmullen_check(C.heptagon(2))
    assert report.period_sequence == (1, 2, 1)
    assert report.index_sequence == (2, 2, 1)
    assert report.period_divides_index == (True, True, True)
    assert report.chain_ok and report.ok


def test_chain_check():
    assert chain_check(IndexSequence((2, 1, 1)))
    assert chain_check(IndexSequence((4, 2, 1)))
    assert not chain_check(IndexSequence((2, 4, 1)))


def test_zeroth_index_is_denominator():
    for body in [C.segment(3), C.pentagon(3), C.heptagon(2), C.simplex(4, 2), C.middle(3, 2)]:
        assert index_sequence(body).values[0] == denominator(body)


def test_per_face_dilates_match_brute_force():
    for body in [C.pentagon(2), C.heptagon(2), C.simplex(3, 2)]:
        for i in range(body.intrinsic_dim + 1):
            for face in faces(body, i):
                span = body.face_span(face)
                m = min_dilate_with_lattice_point(span)
                assert m <= denominator(body)
                found = brute_min_dilate(span.rows, span.rhs, m_max=denominator(body), box=30)
                assert found == m


def test_index_divisibility_lcm_structure():
    # the 0-index is the lcm of the per-vertex dilates
    body = C.heptagon(2)
    per_vertex = [
        min_dilate_with_lattice_point(body.face_span(face)) for face in faces(body, 0)
    ]
    assert math.lcm(*per_vertex) == index_sequence(body).values[0]


def test_union_rejected():
    union = C.barn(3, 2, PteSolution((1, 2), (3, 0)))
    with pytest.raises(ValueError):
        index_sequence(union)


def test_mcmullen_check_refuses_a_union_before_fitting_it():
    union = C.barn(3, 2, PteSolution((1, 2), (3, 0)))
    with pytest.raises(InvalidInput, match="convex polytopes only"):
        mcmullen_check(union)
    assert union.fits == {}


def test_period_divides_index_on_random_polygons():
    # the divisibility bound must hold for arbitrary rational polytopes,
    # not just the shipped families
    import random
    from fractions import Fraction

    from ehrhart.polytope import from_vertices

    rng = random.Random(99)
    checked = 0
    while checked < 15:
        pts = [
            (
                Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])),
                Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])),
            )
            for _ in range(rng.randint(3, 6))
        ]
        body = from_vertices(pts)
        if body.intrinsic_dim != 2:
            continue
        report = mcmullen_check(body)
        assert report.ok, (pts, report)
        checked += 1


def test_period_divides_index_on_random_tetrahedra():
    import random
    from fractions import Fraction

    from ehrhart.polytope import from_vertices

    rng = random.Random(123)
    checked = 0
    while checked < 6:
        pts = [
            tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(3))
            for _ in range(4)
        ]
        body = from_vertices(pts)
        if body.intrinsic_dim != 3:
            continue
        report = mcmullen_check(body)
        assert report.ok, (pts, report)
        checked += 1


def test_five_dimensional_hull_is_within_the_face_cap():
    report = mcmullen_check(C.hull(5, 2))
    assert report.period_sequence == (1, 2, 1, 1, 1, 1)
    assert report.index_sequence == (2, 2, 1, 1, 1, 1)
    assert report.ok


def solved_index_sequence(body):
    """The index sequence with every face solved, no face skipped."""
    return tuple(
        math.lcm(*(min_dilate_with_lattice_point(body.face_span(face)) for face in grade))
        for grade in body.face_lattice
    )


def vertex_gcd(body, face):
    """gcd over the face's vertices of their coordinate-denominator lcm."""
    return math.gcd(*(
        math.lcm(*(x.denominator for x in body.vertices[i])) for i in vertex_indices(face)
    ))


def test_vertex_denominator_rule_agrees_with_the_solve_on_every_mcmullen_target():
    for label, body in cli._mcmullen_targets((1, 2, 3), (3, 4, 5)):
        assert index_sequence(body).values == solved_index_sequence(body), label


@settings(max_examples=150)
@given(clouds(max_dim=4, max_den=12))  # ambient up to 4-D, lower-dimensional clouds embedded
def test_vertex_denominator_rule_agrees_with_the_solve_on_random_clouds(points):
    body = from_vertices(points)
    assert index_sequence(body).values == solved_index_sequence(body)
    for grade in body.face_lattice:
        for face in grade:
            # the minimal dilate divides every vertex denominator
            assert vertex_gcd(body, face) % min_dilate_with_lattice_point(body.face_span(face)) == 0


@pytest.mark.parametrize("make, expected", [
    (lambda: C.segment(2), (2, 1)),  # the vertex -1/2
    # every vertex is non-integral, yet the span x = y holds (1, 1)
    (lambda: from_vertices([(Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(3, 2))]), (2, 1)),
], ids=["segment", "half-integral-diagonal"])
def test_faces_whose_vertex_denominators_share_a_factor_are_solved(make, expected):
    body = make()
    assert any(vertex_gcd(body, face) > 1 for grade in body.face_lattice for face in grade)
    assert index_sequence(body).values == expected == solved_index_sequence(body)


def test_pentagon_apex_needs_the_solve():
    body = C.pentagon(2)
    (apex,) = [
        face for face in body.face_lattice[0]
        if body.vertices[vertex_indices(face)[0]] == (0, Fraction(3, 2))
    ]
    assert vertex_gcd(body, apex) == 2
    assert index_sequence(body).values[0] == min_dilate_with_lattice_point(body.face_span(apex)) == 2


@settings(max_examples=150)
@given(clouds(max_dim=4, max_den=12))
def test_face_minimal_dilates_obey_the_vertex_and_coface_rules(points):
    # the two divisibilities index_sequence fixes faces by, read off the
    # solve alone: m(vertex) = den(vertex), and m(G) | m(F) for F inside G
    body = from_vertices(points)
    solved = [
        {vertex_indices(face): min_dilate_with_lattice_point(body.face_span(face)) for face in grade}
        for grade in body.face_lattice
    ]
    for (i,), m in solved[0].items():
        assert m == math.lcm(*(x.denominator for x in body.vertices[i]))
    for lower, upper in zip(solved, solved[1:]):
        for face, m in lower.items():
            cofaces = [g for g in upper if set(face) <= set(g)]
            assert cofaces
            assert all(m % upper[g] == 0 for g in cofaces)


def counted_solves(monkeypatch, body):
    """``index_sequence(body)`` and the number of faces it solved."""
    calls = []

    def solve(span):
        calls.append(span)
        return min_dilate_with_lattice_point(span)

    monkeypatch.setattr(indices, "min_dilate_with_lattice_point", solve)
    return index_sequence(body).values, len(calls)


def test_only_the_undecided_faces_are_solved(monkeypatch):
    half = Fraction(1, 2)
    triangle = from_vertices([(0, 0, half), (1, 0, half), (0, 1, half)])
    # every vertex has den 2; the triangle's span z = 1/2 has no lattice point
    # undilated, and each edge is fixed at 2 by the triangle above it
    assert counted_solves(monkeypatch, triangle) == ((2, 2, 2), 1)
    cube = product(*(C.interval(0, 1) for _ in range(3)))
    assert counted_solves(monkeypatch, cube) == ((1, 1, 1, 1), 0)
    # the vertex -1/2 is fixed at its den 2, above its coface's index 1
    segment = C.segment(2)
    assert counted_solves(monkeypatch, segment) == ((2, 1), 0)
    monkeypatch.undo()
    for body in (triangle, cube, segment):
        assert index_sequence(body).values == solved_index_sequence(body)


def test_the_index_of_a_family_body_reads_only_its_non_integral_faces():
    body = C.hull(4, 2)
    values = index_sequence(body).values
    assert "face_lattice" not in vars(body)
    assert values == solved_index_sequence(body)


@settings(max_examples=100)
@given(clouds(max_dim=4))  # small denominators: some vertices integral, some not
def test_the_index_is_the_same_with_the_face_lattice_built_first(points):
    # the order of the hull-faces benchmark: every face, then the index
    fresh, built = from_vertices(points), from_vertices(points)
    built.face_lattice
    assert index_sequence(built) == index_sequence(fresh)


@pytest.mark.parametrize("family", ["pentagon", "heptagon", "simplex", "hull", "middle"])
def test_a_family_index_is_the_same_with_the_face_lattice_built_first(family):
    n = None if family in ("pentagon", "heptagon") else 4
    fresh, built = (C.build(family, 3, n)[0] for _ in range(2))
    built.face_lattice
    assert index_sequence(built) == index_sequence(fresh)


def test_an_integral_body_has_index_one_without_deriving_a_span(monkeypatch):
    body = C.middle(4, 2)
    assert is_integral(body)

    def no_span(self, mask):
        raise AssertionError("a face span was derived")

    monkeypatch.setattr(polytope.ConvexPolytope, "face_span", no_span)
    assert index_sequence(body).values == (1, 1, 1, 1, 1)
    assert "face_lattice" not in vars(body)


def counted_spans_and_solves(body):
    """The numbers of face spans ``index_sequence(body)`` derives and of
    minimal dilates it solves."""
    spans, solves = [], []
    face_span = polytope.ConvexPolytope.face_span

    def span(self, mask):
        spans.append(mask)
        return face_span(self, mask)

    def solve(s):
        solves.append(s)
        return min_dilate_with_lattice_point(s)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(polytope.ConvexPolytope, "face_span", span)
        patched.setattr(indices, "min_dilate_with_lattice_point", solve)
        index_sequence(body)
    return len(spans), len(solves)


def test_a_family_index_derives_a_span_only_for_each_face_it_solves():
    counts = {
        label: counted_spans_and_solves(body)
        for label, body in cli._mcmullen_targets((1, 2, 3), (3, 4, 5))
    }
    assert all(spans == solves for spans, solves in counts.values()), counts
    assert sum(solves for _, solves in counts.values()) > 0


@settings(max_examples=100)
@given(clouds(max_dim=4, max_den=12))
def test_an_index_derives_a_span_only_for_each_face_it_solves(points):
    # each span is read once, so keeping it would save nothing
    spans, solves = counted_spans_and_solves(from_vertices(points))
    assert spans == solves
