import itertools
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import brute_count, brute_count_interior, brute_count_union
from strategies import clouds, rationals

from ehrhart import constructions as C
from ehrhart.counting import (
    DEFAULT_BUDGET,
    count,
    count_convex,
    count_union,
    fitted,
)
from ehrhart.errors import BudgetExceeded, InvalidInput, VerificationFailed
from ehrhart.polytope import (
    PolytopalUnion,
    denominator,
    from_vertices,
    product,
)
from ehrhart.pte import PteSolution
from ehrhart.quasipoly import fit, period_sequence

SOL2 = PteSolution((1, 2), (3, 0))
SOL3 = PteSolution((1, 2, 6), (4, 5, 0))


def routes(union):
    """The routes ``count_union`` has counted ``union`` by, read off the
    keys of its ``dilate_counts``."""
    return {route for _, route, _ in union.dilate_counts}


def test_segment_counts():
    seg = C.segment(2)
    assert [count_convex(seg, k) for k in (1, 2, 5)] == [1, 2, 3]
    assert [count_convex(seg, k) for k in range(1, 9)] == [k // 2 + 1 for k in range(1, 9)]


def test_pentagon_counts():
    pent = C.pentagon(2)
    assert count_convex(pent, 1) == 12
    assert count_convex(pent, 2) == 34


def test_heptagon_counts():
    hep = C.heptagon(2)
    assert [count_convex(hep, k) for k in range(1, 5)] == [12, 47, 88, 165]


def test_counts_match_barycentric_oracle():
    for body in [C.pentagon(2), C.simplex(3, 2), C.middle(3, 2), C.pentagon_pyramid(3, 2)]:
        for k in (1, 2):
            assert count_convex(body, k) == brute_count(body.vertices, k)


def test_counts_at_consecutive_dilates():
    assert [count(C.segment(3), k) for k in range(1, 5)] == [1, 1, 2, 2]
    origin = from_vertices([(0, 0)])
    assert [count(origin, k) for k in range(1, 6)] == [1] * 5
    assert [count(C.simplex(3, 2), k) for k in range(1, 5)] == [2, 4, 6, 9]


def test_count_rejects_nonpositive_dilates():
    with pytest.raises(ValueError):
        count_convex(C.segment(2), 0)


def test_lower_dimensional_and_off_lattice():
    # the segment x = 1/2 in the plane has lattice points only at even dilates
    flat = from_vertices([(Fraction(1, 2), 0), (Fraction(1, 2), 1)])
    assert [count_convex(flat, k) for k in range(1, 5)] == [0, 3, 0, 5]


def test_point_counts():
    half = from_vertices([(Fraction(1, 2),)])
    assert [count_convex(half, k) for k in range(1, 5)] == [0, 1, 0, 1]


def test_union_counts_and_strategy_equivalence():
    union = C.barn(3, 2, SOL2)
    assert count_union(union, 1) == 48
    assert count_union(union, 2) == 253
    for k in range(1, 5):
        assert count_union(union, k, strategy="enumerate") == count_union(
            union, k, strategy="inclusion-exclusion"
        )
    union4 = C.barn(4, 2, SOL3)
    for k in range(1, 5):
        assert count_union(union4, k, strategy="enumerate") == count_union(
            union4, k, strategy="inclusion-exclusion"
        )


def test_union_matches_brute_oracle():
    union = C.barn(3, 2, SOL2)
    piece_vertices = [p.vertices for p in union.pieces]
    assert count_union(union, 1) == brute_count_union(piece_vertices, 1)


def test_single_piece_union_equals_convex():
    pent = C.pentagon(2)
    union = PolytopalUnion(2, (pent,))
    for k in (1, 2, 3):
        assert count_union(union, k) == count_convex(pent, k)


def test_union_of_equal_boxes_counts_each_point_once():
    # two copies of the [0,1]^2 box overlap in all of it; the union has the
    # box's counts, not twice them
    box = product(C.interval(0, 1), C.interval(0, 1))
    union = PolytopalUnion(2, (box, box))
    assert [count(union, k) for k in (1, 2, 3)] == [4, 9, 16]
    assert routes(union) == {"inclusion-exclusion"}


def test_overlaps_of_product_pieces_are_computed():
    box1 = product(C.interval(0, 2), C.interval(0, 2))
    box2 = product(C.interval(1, 3), C.interval(0, 2))
    union = PolytopalUnion(2, (box1, box2))
    count(union, 1)
    assert routes(union) == {"inclusion-exclusion"}
    for strategy in ("inclusion-exclusion", "enumerate"):
        assert count_union(union, 1, strategy=strategy) == 12  # [0,3] x [0,2]


def test_many_overlapping_product_pieces_count_alike_on_both_routes():
    # ten translates of [0,4]^3 by the first ten vectors of {0,1,2}^3: every
    # piece splits, so 'auto' takes inclusion-exclusion, where all 1023
    # intersections hold points; enumeration walks the box once
    cube = product(product(C.interval(0, 4), C.interval(0, 4)), C.interval(0, 4))
    shifts = list(itertools.product(range(3), repeat=3))[:10]
    union = PolytopalUnion(3, tuple(cube.translate(v) for v in shifts))
    assert count(union, 1) == 270
    assert routes(union) == {"inclusion-exclusion"}
    for k, points in ((1, 270), (2, 1683)):
        for strategy in ("inclusion-exclusion", "enumerate"):
            assert count_union(union, k, strategy=strategy) == points


def test_three_piece_union_counts_its_triple_overlap():
    # [0,2]x[0,2], [1,3]x[0,2] and [2,4]x[0,2]: the pairwise terms give
    # 27 - 15 = 12, but the union [0,4]x[0,2] has 15 points, because all
    # three boxes share the column x = 2
    boxes = [product(C.interval(a, a + 2), C.interval(0, 2)) for a in (0, 1, 2)]
    union = PolytopalUnion(2, tuple(boxes))
    assert [count_union(union, k) for k in (1, 2)] == [15, 45]
    assert routes(union) == {"inclusion-exclusion"}
    assert [count_union(union, k, strategy="enumerate") for k in (1, 2)] == [15, 45]


def test_a_union_with_no_box_point_at_a_dilate_counts_zero_there():
    # x in [2/5, 3/5] holds no integer at k = 1 or 3, so every piece's
    # dilated box is empty there and both routes return 0 before any walk
    side = from_vertices([(Fraction(2, 5),), (Fraction(3, 5),)])
    pieces = (product(side, C.interval(0, 3)), product(side, C.interval(1, 2)))
    union = PolytopalUnion(2, pieces)
    expected = [0, 7, 0, 13, 32]
    assert [brute_count_union([p.vertices for p in pieces], k) for k in range(1, 6)] == expected
    for strategy in ("enumerate", "inclusion-exclusion"):
        assert [count_union(union, k, strategy=strategy) for k in range(1, 6)] == expected
        assert [count_union(union, k, 0, strategy) for k in (1, 3)] == [0, 0]


def test_overlap_terms_split_into_uncoupled_coordinate_blocks():
    # each row of a cube rebuilt as a hull reads one coordinate, so
    # 'auto' takes inclusion-exclusion, and every term is a product of 1-D
    # counts, which walk no nodes: the three terms cost one node each,
    # while enumerating the union's box walks far more than the budget
    unit = C.interval(0, 1)
    cube = from_vertices(product(unit, product(unit, unit)).vertices)
    union = PolytopalUnion(3, (cube, cube.translate([1, 0, 0])))
    count(union, 1)
    assert routes(union) == {"inclusion-exclusion"}
    # [0,2k] x [0,k] x [0,k]
    assert count_union(union, 20, budget=10, strategy="inclusion-exclusion") == 41 * 21 * 21
    with pytest.raises(BudgetExceeded):
        count_union(union, 20, budget=10, strategy="enumerate")


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_union_terms_are_charged_against_the_budget(m):
    # m equal product boxes: every one of the 2^m - 1 subsets is a term, and
    # each costs one node (its 1-D walks cost none)
    box = product(C.interval(0, 1), C.interval(0, 1))
    union = PolytopalUnion(2, (box,) * m)
    assert count_union(union, 1, budget=2**m - 1) == 4
    with pytest.raises(BudgetExceeded):
        count_union(union, 1, budget=2**m - 2)


def test_many_overlapping_pieces_stop_at_the_budget():
    box = product(C.interval(0, 1), C.interval(0, 1))
    with pytest.raises(BudgetExceeded):
        count_union(PolytopalUnion(2, (box,) * 30), 1, budget=1000)


def test_walks_of_one_union_share_its_budget():
    # three equal copies of pentagon(2) x [0,1] at k=60: 7 terms, each
    # counting one pentagon slice over y in [0, 90], whose envelopes bend
    # once, at y = 61, on both sides of x: 2 pieces, so 7 + 7 * 2 nodes
    piece = product(C.pentagon(2), C.interval(0, 1))
    union = PolytopalUnion(3, (piece,) * 3)
    expected = count_union(union, 60, strategy="enumerate")
    assert count_union(union, 60, budget=21) == expected
    with pytest.raises(BudgetExceeded):
        count_union(union, 60, budget=20)


def test_budget_exceeded():
    # hull(3, 2) at k=60 walks the 61 values of its narrowest coordinate
    # and charges 182 envelope pieces for the slices they leave
    with pytest.raises(BudgetExceeded):
        count_convex(C.hull(3, 2), 60, budget=100)
    with pytest.raises(BudgetExceeded):
        count_union(C.barn(3, 2, SOL2), 50, budget=10, strategy="enumerate")


def test_negative_budget_is_rejected():
    with pytest.raises(ValueError):
        count_convex(C.segment(2), 5, budget=-3)
    with pytest.raises(ValueError):
        count_union(C.barn(3, 2, SOL2), 1, budget=-1)
    with pytest.raises(ValueError):
        count_union(C.barn(3, 2, SOL2), 1, budget=-1, strategy="enumerate")
    # a zero budget stays valid: a 1-D count charges nothing
    assert count_convex(C.segment(2), 5, budget=0) == 3


@pytest.mark.parametrize(
    "body, k, expected, charged",
    [
        # 8.0e9-point box: 2001 values of x, then one column per slice
        (from_vertices([(0, 0, 0), (1, 1, 1)]), 2000, 2001, 4002),
        (C.segment(2), 10**10, 5 * 10**9 + 1, 0),  # 1-D: no nodes at all
        (from_vertices([(0, 0, 0, 0), (1, 1, 1, 1), (1, 1, 1, 2)]), 1000, 501501, 3003),  # 2.0e12
    ],
    ids=["diagonal-segment", "segment-2", "thin-4d-triangle"],
)
def test_budget_counts_walked_nodes_not_box_points(body, k, expected, charged):
    # each box is far above DEFAULT_BUDGET points, but each walk is small
    # and charges exactly its nodes and envelope pieces
    assert count_convex(body, k) == expected
    assert count_convex(body, k, budget=charged) == expected
    if charged:
        with pytest.raises(BudgetExceeded):
            count_convex(body, k, budget=charged - 1)


def test_a_body_past_the_hull_cap_counts_under_a_small_budget():
    # a 10-D product of two pentagon pyramids at k = 8 is counted as the
    # square of one pyramid's count: its two walks charge 364 in all, where
    # one walk of the whole body charged 25023
    body = product(C.pentagon_pyramid(5, 2), C.pentagon_pyramid(5, 2))
    assert count_convex(body, 8, budget=10**5) == 84805681


def test_a_product_fits_from_its_factors_walks():
    # each count walks hull(3, 2) and pentagon(3) apart and charges at most
    # 93; one walk of the 5-D body charged up to 227679 at one sample
    hull, pentagon = C.hull(3, 2), C.pentagon(3)
    _, samples = fitted(product(hull, pentagon), budget=1000)
    assert samples == {k: count(hull, k) * count(pentagon, k) for k in samples}


@pytest.mark.parametrize(
    "first, second",
    [
        (C.heptagon(2), C.heptagon(3)),
        (C.simplex(3, 2), C.pentagon(3)),
        (C.segment(2), C.pentagon_pyramid(3, 2)),
        (C.prism(3, 2), C.interval(-1, 2)),
    ],
    ids=["heptagon(2)xheptagon(3)", "simplex(3,2)xpentagon(3)", "segment(2)xpyramid", "prism(3,2)xinterval"],
)
def test_a_product_counts_as_its_factors_on_both_sides_of_zero(first, second):
    body = product(first, second)
    for k in (1, 2, 3, -1, -2, -3):
        assert count_convex(body, k) == count(first, k) * count(second, k)


def test_prism_law():
    for n in (3, 4):
        for p in (2, 3):
            q = C.q_value(p)
            prism_body = C.prism(n, p)
            simplex_body = C.simplex(n, p)
            for k in range(1, 9):
                assert count_convex(prism_body, k) == (2 * q * k + 1) * count_convex(
                    simplex_body, k
                )


def test_pyramid_prefix_sum_law():
    for p in (1, 2, 3):
        for base in (C.segment(p), C.pentagon(p)):
            apex = (0,) * base.ambient_dim + (1,)
            pyr = from_vertices([v + (0,) for v in base.vertices] + [apex])
            for k in range(1, 9):
                expected = 1 + sum(count_convex(base, j) for j in range(1, k + 1))
                assert count_convex(pyr, k) == expected


def test_product_count_multiplicativity():
    rng = random.Random(11)
    for _ in range(10):
        a = C.interval(rng.randint(-3, 0), rng.randint(1, 4))
        b = C.pentagon(rng.choice([1, 2, 3]))
        prod_body = product(a, b)
        for k in range(1, 7):
            assert count_convex(prod_body, k) == count_convex(a, k) * count_convex(b, k)


def test_translation_invariance():
    rng = random.Random(13)
    for body in [C.pentagon(2), C.simplex(3, 3), C.heptagon(3)]:
        shift = [rng.randint(-5, 5) for _ in range(body.ambient_dim)]
        moved = body.translate(shift)
        for k in range(1, 7):
            assert count_convex(moved, k) == count_convex(body, k)


def test_monotone_in_k_for_bodies_containing_origin():
    for body in [C.simplex(3, 2), C.heptagon(2), product(C.interval(-1, 1), C.interval(0, 2))]:
        assert body.contains((0,) * body.ambient_dim)
        series = [count(body, k) for k in range(1, 9)]
        assert all(a <= b for a, b in zip(series, series[1:]))


def test_count_keeps_each_count_with_its_route():
    pentagon = C.pentagon(2)
    assert count(pentagon, 2) == 34
    assert pentagon.dilate_counts == {(2, DEFAULT_BUDGET): 34}
    barn = C.barn(3, 2, SOL2)
    assert count(barn, 1) == 48
    assert barn.dilate_counts == {(1, "inclusion-exclusion", DEFAULT_BUDGET): 48}
    # 'auto' reads the route off the pieces' facets: a translate keeps the
    # barn's blocks, but a piece of one block makes the union enumerate
    moved = translated_union(barn, [2, -3, 1])
    count(moved, 1)
    assert routes(moved) == {"inclusion-exclusion"}
    box = product(C.interval(0, 1), C.interval(0, 1))
    mixed = PolytopalUnion(2, (box, C.pentagon(2)))
    count(mixed, 1)
    assert routes(mixed) == {"enumerate"}


INTERIOR_BODIES = [
    C.segment(2),
    C.pentagon(2),
    C.heptagon(3),
    C.simplex(3, 2),
    C.middle(3, 2),
    C.pentagon_pyramid(3, 2),
    C.hull(3, 2),
    C.prism_shared_facet(3, 2),  # lower-dimensional
    from_vertices([(Fraction(1, 2), 0), (Fraction(1, 2), 1)]),  # off-lattice segment
    from_vertices([(Fraction(1, 2), 3, 0)]),  # a point is its own relative interior
]


@pytest.mark.parametrize("body", INTERIOR_BODIES, ids=repr)
def test_interior_counts_match_strict_oracle(body):
    # ``count`` at -k is the interior count of k * body, signed
    for k in (1, 2, 3):
        interior = brute_count_interior(body.vertices, k)
        assert count(body, -k) == (-1) ** body.intrinsic_dim * interior


@settings(max_examples=100)
@given(clouds(max_dim=3, bound=2), st.integers(1, 2))
def test_interior_counts_match_strict_oracle_on_random_clouds(points, k):
    body = from_vertices(points)
    interior = brute_count_interior(body.vertices, k)
    assert count(body, -k) == (-1) ** body.intrinsic_dim * interior


@settings(max_examples=40)
@given(clouds(max_dim=2, bound=2))
def test_two_sided_fit_equals_positive_fit_on_random_clouds(points):
    # reciprocity: the counts at k >= 1 and the signed interior counts
    # at k <= -1 lie on one quasi-polynomial
    body = from_vertices(points)
    args = (partial(count, body), body.intrinsic_dim, denominator(body))
    assert fit(*args, two_sided=True) == fit(*args)


# a shuffled run of signed dilates, each |k| at both signs and each dilate twice
signed_dilates = (
    st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True)
    .map(lambda ks: [sign * k for k in ks for sign in (1, -1)] * 2)
    .flatmap(st.permutations)
)


@settings(max_examples=60, deadline=None)
@given(clouds(max_dim=2, bound=2), signed_dilates)
def test_one_body_counts_signed_dilates_like_a_fresh_one(points, dilates):
    # the kept counts must keep k and -k apart, and a repeat must read its own
    body = from_vertices(points)
    sign = (-1) ** body.intrinsic_dim
    oracle = {}
    for k in set(dilates):
        if k > 0:
            oracle[k] = brute_count(body.vertices, k)
        else:
            oracle[k] = sign * brute_count_interior(body.vertices, -k)
    for k in dilates:
        assert count(body, k) == count(from_vertices(points), k) == oracle[k]


def test_count_at_negative_dilates_uses_reciprocity():
    for body in (C.pentagon(2), C.simplex(3, 2), C.prism_shared_facet(3, 2)):
        for k in (1, 2):
            expected = (-1) ** body.intrinsic_dim * brute_count_interior(body.vertices, k)
            assert count(body, -k) == count_convex(body, -k) == expected
            assert (-k, DEFAULT_BUDGET) in body.dilate_counts
    with pytest.raises(InvalidInput):
        count(C.segment(2), 0)


def test_fitted_keeps_one_fit_per_object_and_budget():
    body = C.pentagon(2)
    qp, samples = fitted(body)
    assert fitted(body) is fitted(body, DEFAULT_BUDGET) is body.fits[DEFAULT_BUDGET]
    assert fit(partial(count, body), 2, 2, two_sided=True) == qp
    assert min(samples) < 0 < max(samples)  # a body is fitted on both sides of zero
    assert all(count(body, k) == value for k, value in samples.items())
    fitted(body, 10**6)
    assert sorted(body.fits) == [10**6, DEFAULT_BUDGET]
    barn = C.barn(3, 2, SOL2)
    qp, samples = fitted(barn)
    assert list(barn.fits) == [DEFAULT_BUDGET]
    assert qp.degree == 3 and min(samples) == 1  # a union at positive dilates only


def test_a_fit_that_overdraws_its_budget_is_not_kept():
    body = C.pentagon_pyramid(3, 2)
    with pytest.raises(BudgetExceeded):
        fitted(body, budget=20)
    assert body.fits == {}
    with pytest.raises(BudgetExceeded):
        fitted(body, budget=10)
    assert body.fits == {}
    fitted(body)
    assert list(body.fits) == [DEFAULT_BUDGET]


@pytest.mark.xfail(
    strict=True,
    raises=VerificationFailed,
    reason="ROADMAP item 1: a union is fitted with the lcm of its pieces' denominators, "
    "which misses a denominator that only an overlap has",
)
def test_a_union_whose_overlap_has_a_new_denominator_fits_its_periods():
    # both triangles are integral, but they meet in conv{(0,0), (1/2,1/2), (0,1)}
    union = PolytopalUnion(2, (
        from_vertices([(0, 0), (1, 0), (0, 1)]),
        from_vertices([(0, 0), (1, 1), (-1, 1)]),
    ))
    counts = [count(union, k) for k in range(1, 6)]
    assert counts == [5, 11, 20, 31, 45]
    qp, _ = fitted(union)  # raises: "fitted value 32 != sample 31 at k=4"
    assert period_sequence(qp) == (2, 1, 1)
    assert [qp.evaluate(k) for k in range(1, 6)] == counts


def translated_union(union, shift):
    """``union + shift``, piece by piece."""
    return PolytopalUnion(union.ambient_dim, tuple(p.translate(shift) for p in union.pieces))


translated_barns = st.builds(
    lambda p, shift: translated_union(C.barn(3, p, SOL2), shift),
    st.integers(1, 3),
    st.lists(st.integers(-20, 20), min_size=3, max_size=3),
)


widths = st.builds(Fraction, st.integers(1, 3), st.integers(1, 3))


@st.composite
def mixed_unions(draw):
    """Unions of 1-3 pieces in the plane or in space: boxes built by
    ``product``, the same boxes rebuilt as hulls (whose facets are
    the same separable rows), and hulls of random clouds."""
    n = draw(st.integers(2, 3))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("product", "separable", "hull")))
        if kind == "hull":
            points = draw(clouds(max_dim=n, bound=1).filter(lambda ps: len(ps[0]) == n))
            piece = from_vertices(points)
            assume(piece.intrinsic_dim == n)
        else:
            sides = [(draw(rationals(1)), draw(widths)) for _ in range(n)]
            piece = product(*(from_vertices([(a,), (a + w,)]) for a, w in sides))
            if kind == "separable":
                piece = from_vertices(piece.vertices)
        pieces.append(piece)
    return PolytopalUnion(n, tuple(pieces))


@settings(max_examples=100)
@given(st.one_of(mixed_unions(), translated_barns), st.integers(1, 4))
def test_union_enumeration_equals_inclusion_exclusion_on_translates(union, k):
    # the union kernel against inclusion-exclusion over the stacked systems
    # of every overlap, on translated barns and on random unions
    assert count_union(union, k, strategy="enumerate") == count_union(
        union, k, strategy="inclusion-exclusion"
    )


def test_count_rejects_nonpositive_dilates_of_unions():
    barn = C.barn(3, 2, SOL2)
    for k in (-1, 0):
        with pytest.raises(InvalidInput):
            count(barn, k)  # reciprocity fails for unions


# Rational bodies whose box widths change order from dilate to dilate: the
# tetrahedron walks only its last coordinate at k=1 and five orders over
# k=1..6; the triangle is lower-dimensional, so its rows hold span pairs.
ORDER_FLIPPING_BODIES = [
    [
        (Fraction(5, 3), Fraction(3, 2), 0),
        (Fraction(8, 3), Fraction(5, 4), 0),
        (Fraction(5, 4), Fraction(7, 4), Fraction(1, 4)),
        (2, Fraction(1, 2), 1),
    ],
    [
        (0, 0, 0),
        (Fraction(3, 2), Fraction(1, 3), 1),
        (Fraction(1, 2), Fraction(4, 3), Fraction(2, 3)),
    ],
]


@pytest.mark.parametrize("vertices", ORDER_FLIPPING_BODIES, ids=["tetrahedron", "triangle"])
def test_one_body_counts_every_walk_order_like_a_fresh_one(vertices):
    # the body keeps one level skeleton per walk order; each dilate must
    # read the skeleton of its own order, counting forward and back
    body = from_vertices(vertices)
    dilates = range(1, 7)
    closed = {k: brute_count(vertices, k) for k in dilates}
    interior = {k: brute_count_interior(vertices, k) for k in dilates}
    for k in [*dilates, *reversed(dilates)]:
        assert count_convex(body, k) == closed[k] == count_convex(from_vertices(vertices), k)
        assert (-1) ** body.intrinsic_dim * count_convex(body, -k) == interior[k]
    assert len(body.rows.skeletons) >= 3


def test_union_terms_keep_their_pieces_when_a_piece_is_empty():
    # the thin piece's x-side [2k/5, 3k/5] holds no integer at k = 1 and 3,
    # so only two pieces have box points there; the blocks kept for each
    # term must still be those of its own pieces
    thin = product(from_vertices([(Fraction(2, 5),), (Fraction(3, 5),)]), C.interval(0, 3))
    wide = product(C.interval(0, 2), C.interval(1, 2))
    tall = product(C.interval(1, 2), C.interval(0, 4))
    union = PolytopalUnion(2, (thin, wide, tall))
    count(union, 1)
    assert routes(union) == {"inclusion-exclusion"}
    vertex_lists = [piece.vertices for piece in union.pieces]
    expected = {k: brute_count_union(vertex_lists, k) for k in range(1, 5)}
    for k in (1, 2, 3, 4, 3, 1):
        assert count_union(union, k) == count_union(union, k, strategy="enumerate") == expected[k]


def _least_budget(count, upper):
    """The least budget under which ``count(budget)`` does not raise."""
    lo, hi = 0, upper
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            count(mid)
            hi = mid
        except BudgetExceeded:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("first_fails", [False, True], ids=["pass-first", "fail-first"])
def test_a_kept_count_still_refuses_a_smaller_budget(first_fails):
    k = 12
    least = _least_budget(lambda b: count_convex(C.hull(3, 2), k, budget=b), 10**6)
    barn = C.barn(3, 2, SOL2)
    union_least = _least_budget(
        lambda b: count_union(PolytopalUnion(3, barn.pieces), k, budget=b), 10**6
    )
    body, union = C.hull(3, 2), PolytopalUnion(3, barn.pieces)
    calls = [
        (lambda b: count_convex(body, k, budget=b), least, body, (k, least - 1)),
        (lambda b: count_union(union, k, budget=b), union_least, union,
         (k, "inclusion-exclusion", union_least - 1)),
    ]
    for run, budget, target, refused in calls:
        if first_fails:
            with pytest.raises(BudgetExceeded):
                run(budget - 1)
            assert refused not in target.dilate_counts
        assert run(budget) == run(None)
        with pytest.raises(BudgetExceeded):
            run(budget - 1)
        assert refused not in target.dilate_counts
