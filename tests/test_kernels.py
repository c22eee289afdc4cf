"""The enumeration kernel against a point-by-point scan of the box and, on
boxes too wide to scan, against a plain walk; its closed-form 2-D slices,
whose pieces, alone or along a run, are the reference envelope's, and
``floor_sum``; its invariance under the signed permutations and
translations that keep a count; and its budget."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import _envelope, walk_count

from ehrhart import _enum_py
from ehrhart import constructions as C
from ehrhart.counting import _dilated_system, count_convex, kernel_name
from ehrhart.errors import BudgetExceeded


def scan(lo, hi, systems):
    """Box points satisfying every row of at least one system; independent
    of the kernel's pruning and interval logic."""
    return sum(
        any(
            all(sum(a * v for a, v in zip(row, x)) <= c for row, c in zip(normals, offsets))
            for normals, offsets in systems
        )
        for x in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi)))
    )


def box_points(lo, hi):
    return math.prod(max(h - l + 1, 0) for l, h in zip(lo, hi))


@st.composite
def boxes(draw):
    """A box of dimension 1-4; a side of length -1 makes it empty."""
    n = draw(st.integers(1, 4))
    lo = [draw(st.integers(-5, 2)) for _ in range(n)]
    hi = [l + draw(st.integers(-1, 5)) for l in lo]
    return lo, hi


def systems(n):
    """``(normals, offsets)`` with 0-5 rows in dimension ``n``."""
    rows = st.lists(
        st.tuples(st.lists(st.integers(-4, 4), min_size=n, max_size=n), st.integers(-5, 20)),
        max_size=5,
    )
    return rows.map(lambda rs: ([list(a) for a, _ in rs], [c for _, c in rs]))


@st.composite
def box_with_systems(draw):
    lo, hi = draw(boxes())
    return lo, hi, draw(st.lists(systems(len(lo)), min_size=1, max_size=3))


@settings(max_examples=300)
@given(box_with_systems())
@example(([0, 0], [3, -1], [([[1, 1]], [2])]))  # empty box
@example(([-2, 0, 1], [1, 2, 3], [([], [])]))  # no rows: the whole box
@example(([-2, 0], [1, 2], [([[1, 0]], [-5]), ([], [])]))  # empty piece, full piece
@example(([0, 3, 1], [0, 3, 1], [([[1, -1, 2]], [0])]))  # one-point box: fixed, not walked
def test_kernels_against_pointwise_scan(case):
    # a budget of the box's points never refuses a count: a walk visits
    # fewer nodes than that, so no count a box-size cap admitted is refused
    lo, hi, union = case
    budget = box_points(lo, hi)
    for normals, offsets in union:
        assert _enum_py.count_box(lo, hi, normals, offsets, budget) == scan(
            lo, hi, [(normals, offsets)]
        )
    assert _enum_py.count_box_union(lo, hi, union, budget) == scan(lo, hi, union)


@st.composite
def moved_cases(draw):
    """A box with systems, and a signed column permutation plus translation."""
    lo, hi, union = draw(box_with_systems())
    n = len(lo)
    order = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    shift = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    return lo, hi, union, order, signs, shift


def moved(lo, hi, union, order, signs, shift):
    """The box and systems in ``y`` with ``y[i] = signs[i] * x[order[i]] + shift[i]``:
    the map ``count-deep`` applies to its bodies; an empty box stays empty."""
    new_lo = [(lo[j] if s > 0 else -hi[j]) + t for j, s, t in zip(order, signs, shift)]
    new_hi = [(hi[j] if s > 0 else -lo[j]) + t for j, s, t in zip(order, signs, shift)]
    new_union = []
    for normals, offsets in union:
        rows = [[s * a[j] for j, s in zip(order, signs)] for a in normals]
        shifted = [c + sum(r * t for r, t in zip(row, shift)) for row, c in zip(rows, offsets)]
        new_union.append((rows, shifted))
    return new_lo, new_hi, new_union


@settings(max_examples=300)
@given(moved_cases())
# tied widths: the walk order of the moved box differs only by the tie-break
@example(
    ([0, 0, 0], [3, 3, 3], [([[1, 2, -1], [-1, 0, 1]], [4, 1])], [2, 0, 1], [1, -1, 1], [5, -2, 0])
)
# a zero-width coordinate, walked first
@example(
    (
        [0, 2, -1], [4, 2, 3], [([[1, 1, 1]], [5]), ([[0, -1, 2]], [0])],
        [1, 2, 0], [-1, 1, -1], [3, 0, -7],
    )
)
def test_kernels_invariant_under_signed_permutation_and_translation(case):
    lo, hi, union, *move = case
    new_lo, new_hi, new_union = moved(lo, hi, union, *move)
    budget = box_points(lo, hi)
    for (normals, offsets), (new_normals, new_offsets) in zip(union, new_union):
        assert _enum_py.count_box(
            new_lo, new_hi, new_normals, new_offsets, budget
        ) == _enum_py.count_box(lo, hi, normals, offsets, budget)
    assert _enum_py.count_box_union(
        new_lo, new_hi, new_union, budget
    ) == _enum_py.count_box_union(lo, hi, union, budget)


def test_far_translate_counts_with_big_integers():
    # a translate by a huge vector takes every partial sum past 64 bits;
    # counts must be unchanged (translation invariance)
    body = C.pentagon(2)
    far = body.translate([10**20, -(10**20)])
    for k in (1, 2, 3):
        assert count_convex(far, k) == count_convex(body, k)


def test_union_kernel_merges_intervals_once():
    # two overlapping boxes: the row merge must not double-count overlap
    lo, hi = [0, 0], [5, 5]
    box_a = ([[1, 0], [-1, 0], [0, 1], [0, -1]], [3, 0, 5, 0])
    box_b = ([[1, 0], [-1, 0], [0, 1], [0, -1]], [5, -2, 5, 0])
    merged = _enum_py.count_box_union(lo, hi, [box_a, box_b], box_points(lo, hi))
    assert merged == 6 * 6  # the union is the whole [0,5] x [0,5] box


@pytest.mark.parametrize("widths", [(1, 2, 3), (2, 5, 9), (3, 4, 5)])
def test_budget_is_the_exact_node_count(widths):
    # a box with side widths a < b < c, listed out of order, and one row
    # that couples all three coordinates but never binds: the walk charges
    # a + 1 values of the narrowest coordinate, and each leaves a slice over
    # the other two whose envelopes are the box's sides, one piece each; a
    # union of that one system charges the same
    a, b, c = widths
    lo, hi = [0, -3, 7], [b, c - 3, 7 + a]
    system = ([[1, 1, 1]], [sum(hi) + 1])
    charged = (a + 1) + (a + 1)
    points = (a + 1) * (b + 1) * (c + 1)
    assert _enum_py.walk_box(lo, hi, [system], charged) == (points, charged)
    assert _enum_py.count_box_union(lo, hi, [system], charged) == points
    with pytest.raises(BudgetExceeded):
        _enum_py.count_box(lo, hi, *system, charged - 1)
    with pytest.raises(BudgetExceeded):
        _enum_py.count_box_union(lo, hi, [system], charged - 1)
    # without the row no coordinate is read: the count is the product of
    # the widths, and charges nothing
    assert _enum_py.walk_box(lo, hi, [([], [])], 0) == (points, 0)


def test_a_union_charges_pieces_where_one_system_is_live():
    # u <= 2, and u >= 2 with v <= 3 and v + w <= 11, in a box of widths
    # 4 < 6 < 9. The first piece is live alone at u = 0, 1, and the second
    # at u = 3, 4: each slice charges one node where it is entered. The
    # slice at u = 0 is one envelope piece, and the one at u = 3 two
    # (w <= 11 - v takes over from the side w <= 9 at v = 3). Neither piece
    # reads u below it, so the slices at u = 1 and u = 4 reuse those for
    # only their entry node. At u = 2 both are live: the walk charges that
    # value, then the slice v = 0..3, where both are live, as the ranges of
    # their merged envelopes, v = 0..2 and v = 3, where the second's
    # w <= 11 - v starts, and one envelope piece for the slice v = 4..6,
    # where the first is live alone.
    lo, hi = [0, 0, 0], [4, 6, 9]
    pieces = [([[1, 0, 0]], [2]), ([[-1, 0, 0], [0, 1, 0], [0, 1, 1]], [-2, 3, 11])]
    charged = (1 + 1 + 1) + (1 + 2 + 1) + (1 + 2 + 1)
    points = scan(lo, hi, pieces)
    assert _enum_py.count_box_union(lo, hi, pieces, charged) == points
    assert _enum_py.walk_box(lo, hi, pieces, charged) == (points, charged)
    with pytest.raises(BudgetExceeded):
        _enum_py.count_box_union(lo, hi, pieces, charged - 1)


def test_a_stretch_with_one_live_piece_is_a_slice_in_closed_form():
    # x <= 12 with x + y <= 25, and x >= 5 with y <= x, in [0, 20]^2. At the
    # second-to-last level, x, the first piece is live alone on x = 0..4
    # and the second on x = 13..20. Each stretch is one slice in closed
    # form, charged its one envelope piece: the side y <= 20 there, and the
    # line y <= x. On x = 5..12, where both are live, each upper envelope is
    # one line, 25 - x and x, which cross at 12.5, past the stretch, and
    # the lower ones are both y >= 0: the merged slice is one range
    lo, hi = [0, 0], [20, 20]
    pieces = [([[1, 0], [1, 1]], [12, 25]), ([[-1, 0], [-1, 1]], [-5, 0])]
    charged = 1 + 1 + 1
    points = scan(lo, hi, pieces)
    assert _enum_py.walk_box(lo, hi, pieces, charged) == (points, charged)
    with pytest.raises(BudgetExceeded):
        _enum_py.walk_box(lo, hi, pieces, charged - 1)


@st.composite
def union_slices(draw):
    """A 2-D or 3-D box, whose last two walked coordinates are a slice, and
    2-6 systems of up to five rows."""
    n = draw(st.integers(2, 3))
    lo = [draw(st.integers(-4, 2)) for _ in range(n)]
    hi = [l + draw(st.integers(0, 12 if n == 2 else 5)) for l in lo]
    return lo, hi, draw(st.lists(systems(n), min_size=2, max_size=6))


@settings(max_examples=200)
@given(union_slices())
# y <= x and y >= x: intervals that meet at one integer, y = x, counted once
@example(([0, 0], [6, 10], [([[-1, 1]], [0]), ([[1, -1]], [0])]))
# identical copies
@example(([0, 0], [5, 9], [([[1, 1], [-1, 0], [0, -1]], [7, 0, 0])] * 3))
# x - 2 <= y <= x and 0 <= y <= 6 - x: the upper bounds cross at x = 3,
# where a range starts on which x is the greater
@example(([0, -2], [6, 9], [([[-1, 1], [1, -1]], [0, 2]), ([[1, 1], [0, -1]], [6, 0])]))
# y >= 2x - 3 with y <= 8 - x is empty from x = 4 on, where y <= 2 is still live
@example(([0, 0], [6, 10], [([[0, 1]], [2]), ([[2, -1], [1, 1]], [3, 8])]))
# the wedge -x <= y <= x opens at x = 0, beside y <= -4
@example(([-3, -5], [3, 5], [([[-1, 1], [-1, -1]], [0, 0]), ([[0, 1]], [-4])]))
# parallel bands x - 1..x + 1, x + 2..x + 4 and x + 1..x + 3: the first two
# do not meet, the third meets both where their bounds are its own
@example(([0, 0], [4, 10], [
    ([[-1, 1], [1, -1]], [1, 1]), ([[-1, 1], [1, -1]], [4, -2]), ([[-1, 1], [1, -1]], [3, -1]),
]))
# x <= 0, and x >= 0 with y <= 4 - x: both are live over one column, x = 0
@example(([-3, 0], [3, 9], [([[1, 0]], [0]), ([[-1, 0], [1, 1]], [0, 4])]))
# y <= 0 with z <= 2, and y >= 0 with 1 <= z <= 5 - x: at each x both are
# live over the one column y = 0 of the slice over (y, z)
@example(([0, -2, 0], [2, 2, 4], [
    ([[0, 1, 0], [0, 0, 1]], [0, 2]), ([[0, -1, 0], [0, 0, -1], [1, 0, 1]], [0, -1, 5]),
]))
def test_a_slice_where_several_systems_are_live_counts_their_union(case):
    # the merged envelopes of the systems live over a stretch count each
    # point of a column once, as the plain walk and the scan do, under a
    # budget of the box's points
    lo, hi, union = case
    found = _enum_py.count_box_union(lo, hi, union, box_points(lo, hi))
    assert found == walk_count(lo, hi, union) == scan(lo, hi, union)


def test_three_copies_of_a_box_count_their_slices_in_closed_form():
    # three copies of [6,24]x[9,32]x[-19,-5]x[0,26], each given as its eight
    # facet rows, in that box. The walk takes x2 (15 values), x0 (19), x1
    # (24), then x3, and all three copies are live everywhere: it charges
    # the 15 values of x2, the 15 * 19 of x0 below them, and each slice
    # over (x1, x3) one range, as its envelopes are the single lines
    # x3 <= 26 and x3 >= 0, the same for every copy. Walked value by value,
    # the slices charged 15 * 19 * 24 = 6840, 7140 in all
    lo, hi = [6, 9, -19, 0], [24, 32, -5, 26]
    rows = [[s * (i == j) for j in range(4)] for i in range(4) for s in (1, -1)]
    box = (rows, [b for l, h in zip(lo, hi) for b in (h, -l)])
    charged = 15 + 15 * 19 + 15 * 19
    assert _enum_py.walk_box(lo, hi, [box] * 3, charged) == (19 * 24 * 15 * 27, charged)
    with pytest.raises(BudgetExceeded):
        _enum_py.walk_box(lo, hi, [box] * 3, charged - 1)


@pytest.mark.parametrize(
    "lo, hi, systems, charged, clips",
    [
        ([-3, 0], [3, 9], [([[1, 0]], [0]), ([[-1, 0], [1, 1]], [0, 4])], 3, 2),
        ([0, -2, 0], [2, 2, 4], [
            ([[0, 1, 0], [0, 0, 1]], [0, 2]), ([[0, -1, 0], [0, 0, -1], [1, 0, 1]], [0, -1, 5]),
        ], 12, 8),
        ([-3, 0], [3, 9], [([[1, 0]], [0]), ([[-1, 0], [1, 0], [1, 1]], [-1, 1, 4])], 2, 2),
        ([0, 0], [3, 5], [([[1, 0], [-1, 0], [1, 1]], [0, 0, 4])], 1, 1),
    ],
    ids=["several-live", "several-live-3d", "alone-in-a-union", "alone"],
)
def test_a_slice_of_one_column_is_counted_in_closed_form(lo, hi, systems, charged, clips):
    # the first two are the @examples above, the third a union whose second
    # system is live alone at x = 1 only, the last a body with x = 0. A
    # slice one column wide is one range of the merged envelopes, or one
    # envelope piece, charged as the one value walked below it would be,
    # and clips no system at the last level
    found = scan(lo, hi, systems)
    assert found == walk_count(lo, hi, systems)
    assert clipped_walk(lo, hi, systems) == (clips, (found, charged))
    assert _enum_py.walk_box(lo, hi, systems, charged) == (found, charged)
    with pytest.raises(BudgetExceeded):
        _enum_py.walk_box(lo, hi, systems, charged - 1)


def test_last_coordinate_costs_no_nodes():
    lo, hi = [-(10**12)], [10**12]
    assert _enum_py.count_box(lo, hi, [[1]], [0], 0) == 10**12 + 1
    assert _enum_py.count_box_union(lo, hi, [([[1]], [0]), ([[-1]], [0])], 0) == 2 * 10**12 + 1


@settings(max_examples=200)
@given(st.integers(-5, 2), st.integers(-1, 5), systems(1))
@example(0, 9, ([[0], [1]], [-1, 5]))  # a zero row with a negative offset
@example(0, 9, ([[0], [-2]], [0, -3]))  # a zero row that holds
@example(4, -1, ([[1]], [10]))  # an empty box
def test_one_coordinate_system_is_one_clip(start, width, system):
    # a single system over a 1-D box is clipped, not walked, and charges 0
    lo, hi = [start], [start + width]
    assert _enum_py.walk_box(lo, hi, [system], 0) == (scan(lo, hi, [system]), 0)


def test_one_coordinate_count_at_a_huge_dilate_charges_nothing():
    lo, hi, normals, offsets = _dilated_system(C.segment(2), 10**10)
    found = walk_count(lo, hi, [(normals, offsets)])
    assert found == 10**10 // 2 + 1
    assert _enum_py.walk_box(lo, hi, [(normals, offsets)], 0) == (found, 0)


@settings(max_examples=300)
@given(
    st.integers(0, 40),
    st.integers(1, 25),
    st.integers(-100, 100),
    st.integers(-(10**6), 10**6),
)
@example(0, 7, -5, -3)  # no terms
@example(9, 4, -13, -100)  # both negative
def test_floor_sum_is_the_direct_sum(n, m, a, b):
    assert _enum_py.floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


@st.composite
def planes(draw):
    """A 2-D box and up to six rows, drawn free, without one coordinate,
    as a copy of an earlier row or parallel to it with another offset."""
    lo = [draw(st.integers(-6, 3)) for _ in range(2)]
    hi = [l + draw(st.integers(1, 12)) for l in lo]
    normals, offsets = [], []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("free", "axis", "copy", "parallel")))
        if kind in ("copy", "parallel") and normals:
            i = draw(st.integers(0, len(normals) - 1))
            scale = 1 if kind == "copy" else draw(st.integers(1, 3))
            normals.append([scale * a for a in normals[i]])
            offsets.append(scale * offsets[i] + (kind == "parallel") * draw(st.integers(-6, 6)))
            continue
        row = [draw(st.integers(-5, 5)) for _ in range(2)]
        if kind == "axis":
            row[draw(st.integers(0, 1))] = 0
        normals.append(row)
        offsets.append(draw(st.integers(-15, 30)))
    return lo, hi, normals, offsets


@settings(max_examples=400)
@given(planes())
@example(([0, -10], [6, 10], [[1, -2], [-1, 2]], [0, 0]))  # x = 2y: only even x
@example(([0, 0], [4, 9], [[3, 0], [0, 0], [1, 1]], [7, 0, 20]))  # rows without y clip x
@example(([0, 0], [9, 9], [[1, 1], [1, 1], [2, 2]], [5, 5, 11]))  # equal, parallel
@example(([-3, -3], [3, 3], [[1, 1], [-1, -1]], [-1, -1]))  # empty strip
def test_plane_counts_against_pointwise_scan(case):
    lo, hi, normals, offsets = case
    found, charged = _enum_py.walk_box(lo, hi, [(normals, offsets)], box_points(lo, hi))
    assert found == scan(lo, hi, [(normals, offsets)])
    # one slice: at most one envelope piece per value of the narrower
    # coordinate, and at least one when it has points and a row couples
    # the two; else each coordinate is a block of its own, counted alone
    coupled = any(all(row) for row in normals)
    assert (found > 0 and coupled) <= charged <= min(h - l for l, h in zip(lo, hi)) + 1
    far = [10**20, -3 * 10**20]
    assert (
        _enum_py.count_box(
            [l + t for l, t in zip(lo, far)],
            [h + t for h, t in zip(hi, far)],
            normals,
            [c + sum(a * t for a, t in zip(row, far)) for row, c in zip(normals, offsets)],
            charged,
        )
        == found
    )


def test_a_slice_charges_one_piece_per_envelope_line():
    # y <= 10 + x meets the box side y <= 10 at x = 0 and never binds: the
    # upper envelope is the side alone, so the slice is one piece
    assert _enum_py.walk_box([0, 0], [5, 10], [([[-1, 1]], [10])], 1) == (66, 1)
    # y <= 11 - x takes over from the side at x = 2: two pieces
    assert _enum_py.walk_box([0, 0], [5, 10], [([[1, 1], [-1, 1]], [11, 10])], 2) == (56, 2)


@st.composite
def slice_lines(draw):
    """One to six lines ``(a, b, c)`` of one side of a slice, ``b > 0``: drawn
    free, as a box side ``(0, 1, c)``, as a copy of an earlier line scaled
    by 1-3, or parallel to one with another offset."""
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("free", "side", "copy", "parallel")))
        if kind in ("copy", "parallel") and lines:
            a, b, c = lines[draw(st.integers(0, len(lines) - 1))]
            scale = draw(st.integers(1, 3))
            shift = (kind == "parallel") * draw(st.integers(-6, 6))
            lines.append((scale * a, scale * b, scale * c + shift))
        elif kind == "side":
            lines.append((0, 1, draw(st.integers(-20, 20))))
        else:
            a, b = draw(st.integers(-5, 5)), draw(st.integers(1, 5))
            lines.append((a, b, draw(st.integers(-30, 30))))
    return lines


def by_slope(lines, first=0):
    """The lines as a walk's skeleton hands them to ``_order``: ``(a, b, i)``
    sorted by ``a/b``, stably, line ``k``'s offset at ``i = first + k``."""
    return sorted(
        ((a, b, first + k) for k, (a, b, _) in enumerate(lines)), key=lambda l: Fraction(l[0], l[1])
    )


@settings(max_examples=500)
@given(slice_lines(), st.integers(-12, 12), st.integers(0, 15))
@example([(1, 1, 4), (0, 1, 4), (2, 1, 4)], 0, 5)  # three lines through (0, 4)
@example([(1, 1, 4), (2, 2, 8), (1, 1, 3)], 0, 5)  # equal, then parallel and lower
@example([(0, 1, 10), (1, 1, 10), (2, 1, 11)], 0, 9)  # a member with no integer
def test_pieces_are_the_reference_envelopes(lines, x_lo, width):
    # the envelope of a slice is read from its line order: the same pieces
    # as the reference rebuilds from the lines, each tie going the same way
    rem, x_hi = [c for _, _, c in lines], x_lo + width
    members = _enum_py._order(by_slope(lines), rem)[0]
    assert _enum_py._pieces(members, rem, x_lo, x_hi) == _envelope(lines, x_lo, x_hi)


@st.composite
def moving_lines(draw):
    """One side of a slice, a column by which each line's offset falls per
    unit of ``t`` (a box side's often 0), and the value ``x`` of ``t`` at
    the drawn offsets."""
    lines = draw(slice_lines())
    col = [
        0 if line[:2] == (0, 1) and draw(st.booleans()) else draw(st.integers(-4, 4))
        for line in lines
    ]
    return lines, col, draw(st.integers(-20, 20))


@settings(max_examples=500)
@given(moving_lines())
# three lines through (0, 4) at t = 0, where the middle one, 4 - x, is no
# member; it joins the order at t = 1, with the side line 4 + t above them
@example(([(1, 1, 4), (0, 1, 4), (2, 1, 4)], [0, -1, 0], 0))
# a parallel pair, 10 + t and 12 - t, equal at t = 1, where the earlier
# line stays the member, and swapped from t = 2
@example(([(1, 1, 10), (1, 1, 12)], [-1, 1], 0))
# the middle line, 7 - t, meets the others' crossing at t = -3 and drops out
@example(([(-1, 1, 10), (0, 1, 7), (1, 1, 10)], [0, 1, 0], 0))
def test_an_order_holds_over_its_horizon(case):
    # every comparison _order makes keeps its outcome over the values of t
    # it returns, so the members are the ones built anew at each of them,
    # and their breakpoints strictly increase there
    lines, col, x = case
    ordered = by_slope(lines)
    members, lo, hi = _enum_py._order(ordered, [c for _, _, c in lines], col, x)
    assert lo <= x <= hi
    for t in range(max(lo, x - 40), min(hi, x + 40) + 1):
        rem = [c - (t - x) * k for (_, _, c), k in zip(lines, col)]
        assert _enum_py._order(ordered, rem)[0] == members
        breaks = [
            Fraction(rem[i] * b0 - rem[i0] * b, d)
            for (_, b0, i0, _), (_, b, i, d) in zip(members, members[1:])
        ]
        assert breaks == sorted(set(breaks))


@st.composite
def slice_runs(draw):
    """Both sides of a slice whose line offsets move with its parent's value
    ``t`` as ``base - col * t``, a box side's and some others' ``col`` 0,
    a range of ``x``, and a run of 20-60 consecutive values of ``t``, rising
    or falling."""
    sides = [draw(slice_lines()), draw(slice_lines())]
    cols = []
    for side in sides:
        steps = draw(st.lists(st.integers(-4, 4), min_size=len(side), max_size=len(side)))
        fixed = [line[:2] == (0, 1) and draw(st.booleans()) for line in side]
        cols.append([0 if f else k for f, k in zip(fixed, steps)])
    x_lo, width = draw(st.integers(-12, 12)), draw(st.integers(1, 15))
    start, length = draw(st.integers(-30, 30)), draw(st.integers(20, 60))
    step = draw(st.sampled_from((1, -1)))
    return sides, cols, (x_lo, x_lo + width), range(start, start + step * length, step)


def run_orders(plans, levels, rem, at):
    """The line orders the slice at ``at = (base, t)`` of a run reads, as
    ``walk_box`` finds them: those its run record keeps while ``t`` is
    within their horizon, else what ``_run`` sets there."""
    kept = plans.setdefault(id(levels), [None] * 6 + [math.inf, -math.inf])
    if not kept[6] <= at[1] <= kept[7]:
        _enum_py._run(kept, levels[-2][5], rem, levels[-3][2], at[1])
    return kept[5]


@settings(max_examples=300)
@given(slice_runs())
# the middle upper line rises through the others' crossing at t = 0, where
# three lines meet and it leaves the order
@example(([[(-1, 1, 10), (0, 1, 10), (1, 1, 10)], [(0, 1, 5)]], [[0, -1, 0], [0]], (-5, 5),
          range(-25, 5)))
@example(([[(-1, 1, 10), (0, 1, 10), (1, 1, 10)], [(0, 1, 5)]], [[0, 1, 0], [0]], (-5, 5),
          range(25, -5, -1)))
# the middle line falls, 10 + t, to just below the others' crossing, 10.5
# at x = 0.5, at t = 0: it joins the order one step past the horizon
@example(([[(-1, 1, 10), (0, 1, 10), (1, 1, 11)], [(0, 1, 5)]], [[0, -1, 0], [0]], (-5, 5),
          range(25, -5, -1)))
def test_a_run_reads_the_reference_envelopes_at_every_value(case):
    # a run keeps its line orders up to their horizon: at every value of
    # the parent the kept orders are the ones built there, and their pieces
    # the reference's, whichever way the run goes
    sides, cols, (x_lo, x_hi), run = case
    base = [c for side in sides for _, _, c in side]
    col = [c for side_cols in cols for c in side_cols]
    up, down = by_slope(sides[0]), by_slope(sides[1], len(sides[0]))
    # the parent level's column and the slice level's sides, as _run reads them
    levels = [(None, None, col), (None, None, None, None, None, (up, down)), None]
    plans = {}
    for t in run:
        rem = [b - c * t for b, c in zip(base, col)]
        orders = run_orders(plans, levels, rem, (base, t))
        assert list(orders) == [_enum_py._order(up, rem)[0], _enum_py._order(down, rem)[0]]
        moved = [
            [(a, b, c - k * t) for (a, b, c), k in zip(side, side_cols)]
            for side, side_cols in zip(sides, cols)
        ]
        for members, lines in zip(orders, moved):
            assert _enum_py._pieces(members, rem, x_lo, x_hi) == _envelope(lines, x_lo, x_hi)


@pytest.mark.parametrize(
    "normals, offsets, members",
    [
        # row 1 joins the upper envelope at t = 2 and leaves it at t = 5
        (
            [[0, 2, 2], [-1, -1, 1], [-2, -2, 1], [2, -3, 1]],
            [17, 12, 13, 33],
            [[3, 2, 0]] * 2 + [[3, 2, 1, 0]] * 2 + [[3, 1, 0], [3, 0], [3, 0]],
        ),
        # rows 0 and 1 are parallel in (x, y), and their offsets 20 - t and
        # 14 + t trade places at t = 3, where the earlier row takes the tie
        ([[1, 1, 1], [-1, 1, 1], [0, 1, -2]], [20, 14, 4], [[3, 1]] * 3 + [[3, 0]] * 4),
    ],
    ids=["enters-and-leaves", "parallel-swap"],
)
def test_a_run_through_an_order_event_counts_as_the_plain_walk(normals, offsets, members):
    # t, walked first, is the parent of the slices over (x, y); y's upper
    # envelope changes its line order partway through the run of t
    lo, hi = [0, 0, 0], [6, 10, 16]
    levels, rem = _enum_py._levels(lo, hi, _enum_py.Rows(normals), offsets)
    up = levels[1][5][0]
    rems = [[r - a * t for r, a in zip(rem, levels[0][2])] for t in range(7)]
    assert [[m[2] for m in _enum_py._order(up, r)[0]] for r in rems] == members
    found, _ = _enum_py.walk_box(lo, hi, [(normals, offsets)], 10**9)
    assert found == walk_count(lo, hi, [(normals, offsets)]) == scan(lo, hi, [(normals, offsets)])


@st.composite
def wide_boxes(draw, max_systems=1):
    """A 3-D or 4-D box with sides up to 40, beyond a point scan, and
    1 to ``max_systems`` systems of up to six rows."""
    n = draw(st.integers(3, 4))
    lo = [draw(st.integers(-30, 10)) for _ in range(n)]
    hi = [l + draw(st.integers(0, 40)) for l in lo]
    rows = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    union = []
    for _ in range(draw(st.integers(1, max_systems))):
        normals = draw(st.lists(rows, max_size=6))
        union.append((normals, [draw(st.integers(-60, 200)) for _ in normals]))
    return lo, hi, union


@settings(max_examples=150)
@given(wide_boxes())
def test_count_box_against_plain_walk_on_wide_boxes(case):
    lo, hi, [(normals, offsets)] = case
    assert _enum_py.count_box(lo, hi, normals, offsets, box_points(lo, hi)) == walk_count(
        lo, hi, [(normals, offsets)]
    )


@settings(max_examples=60)
@given(wide_boxes(max_systems=3))
def test_count_box_union_against_plain_walk_on_wide_boxes(case):
    lo, hi, union = case
    assert _enum_py.count_box_union(lo, hi, union, box_points(lo, hi)) == walk_count(lo, hi, union)


@st.composite
def split_systems(draw):
    """Two systems on disjoint coordinates, the first ``a`` and the next
    ``b`` (1-3 each), in a box with one more coordinate, read by no row;
    when ``empty``, the second has a row that no box point satisfies."""
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lo = [draw(st.integers(-5, 2)) for _ in range(a + b + 1)]
    hi = [l + draw(st.integers(0, 5)) for l in lo]
    first, second = draw(systems(a)), draw(systems(b))
    empty = draw(st.booleans())
    if empty:
        second[0].append([1] + [0] * (b - 1))
        second[1].append(lo[a] - 1)
    return a, lo, hi, first, second, empty


@settings(max_examples=200)
@given(split_systems())
def test_a_system_on_disjoint_coordinates_is_the_product_of_its_blocks(case):
    # the stacked system counts the product of its parts' counts and the
    # unread coordinate's width, charges the sum of their charges under
    # one budget, and stops at a part that no box point satisfies before
    # it walks any
    a, lo, hi, (normals_a, offsets_a), (normals_b, offsets_b), empty = case
    b = len(lo) - a - 1
    found_a, charged_a = _enum_py.walk_box(lo[:a], hi[:a], [(normals_a, offsets_a)], 10**9)
    found_b, charged_b = _enum_py.walk_box(lo[a:-1], hi[a:-1], [(normals_b, offsets_b)], 10**9)
    assert found_a == scan(lo[:a], hi[:a], [(normals_a, offsets_a)])
    assert found_b == scan(lo[a:-1], hi[a:-1], [(normals_b, offsets_b)])
    stacked = [row + [0] * (b + 1) for row in normals_a] + [[0] * a + row + [0] for row in normals_b]
    system = (stacked, offsets_a + offsets_b)
    found, charged = _enum_py.walk_box(lo, hi, [system], 10**9)
    assert found == found_a * found_b * (hi[-1] - lo[-1] + 1)
    if empty:
        assert (found, charged) == (0, 0)
    elif found:
        assert charged == charged_a + charged_b
        if charged:
            with pytest.raises(BudgetExceeded):
                _enum_py.walk_box(lo, hi, [system], charged - 1)
    else:
        assert charged <= charged_a + charged_b


FAMILY_BODIES = {
    "pentagon": C.pentagon(3),
    "heptagon": C.heptagon(2),
    "simplex": C.simplex(3, 3),
    "prism": C.prism(3, 2),
    "pentagon-pyramid": C.pentagon_pyramid(3, 2),
    "hull": C.hull(4, 2),
}


@pytest.mark.parametrize("sign", [1, -1], ids=["closed", "interior"])
@pytest.mark.parametrize("family", sorted(FAMILY_BODIES))
def test_families_against_plain_walk(family, sign):
    for k in (1, 2, 5, 9):
        system = _dilated_system(FAMILY_BODIES[family], sign * k)
        assert _enum_py.count_box(*system, 10**9) == walk_count(*system[:2], [system[2:]])


def test_kernel_name_reports_backend():
    assert kernel_name() == "python"


# ``walk_box`` ``(count, charge)`` of one body's system at signed dilates.
# The counts were recorded from the plain walk, before it kept or summed
# its sub-walks; the charges are those of the walk that charges one node
# per sub-walk it enters, a reused one included, and nothing for a
# position summed along a line, each at most the plain walk's
WALK_PINS = {
    "hull(4,2)": (C.hull(4, 2), {
        1: (65, 7), -1: (0, 0), 2: (440, 14), -2: (0, 1), 5: (8671, 29), -5: (2206, 16),
    }),
    "hull(4,3)": (C.hull(4, 3), {
        1: (264, 8), -1: (0, 0), 2: (1974, 14), -2: (0, 1), 5: (41916, 29), -5: (11676, 16),
    }),
    "pentagon_pyramid(4,3)": (C.pentagon_pyramid(4, 3), {
        1: (33, 7), -1: (0, 1), 2: (168, 13), -2: (0, 5), 5: (2535, 29), -5: (342, 21),
    }),
    "hull(5,2)": (C.hull(5, 2), {
        1: (81, 9), -1: (0, 0), 2: (671, 17), -2: (0, 1), 5: (20950, 35), -5: (1323, 15),
    }),
    "pentagon_pyramid(5,2)": (C.pentagon_pyramid(5, 2), {
        1: (15, 12), -1: (0, 1), 2: (76, 17), -2: (0, 3), 5: (1474, 35), -5: (25, 21),
    }),
    # deeper walks, which sum their sub-walks along lines
    "pentagon_pyramid(4,2)": (C.pentagon_pyramid(4, 2), {
        20: (104236, 103), 21: (125169, 107), -20: (60066, 93),
    }),
    "hull(4,3) deep": (C.hull(4, 3), {12: (1035811, 64), -12: (619087, 51)}),
    "hull(5,3)": (C.hull(5, 3), {6: (220836, 41), -6: (25684, 21)}),
    "pentagon_pyramid(5,3)": (C.pentagon_pyramid(5, 3), {8: (29403, 59), -8: (3266, 46)}),
    # its level-3 sub-walk reads x1 + x2 + x3 and x2 + x3, a pair that
    # neither a line nor a block split covers: only the memo reuses it
    "middle(5,1)": (C.middle(5, 1), {9: (29326, 796), -9: (5348, 354)}),
    # long runs of 2-D slices below one walked coordinate, 301 of them in
    # the pyramid, each reading the line orders its run keeps
    "hull(3,2) run": (C.hull(3, 2), {60: (4081051, 243), -60: (3911849, 236)}),
    "hull(3,3) run": (C.hull(3, 3), {41: (6434582, 167), -41: (6109778, 160)}),
    "pentagon_pyramid(3,2) run": (
        C.pentagon_pyramid(3, 2), {300: (54473851, 902), -300: (53528849, 898)}
    ),
}


@pytest.mark.parametrize("name", sorted(WALK_PINS))
def test_walks_find_and_charge_the_pinned_counts(name):
    body, pins = WALK_PINS[name]
    for k, (found, charged) in pins.items():
        lo, hi, normals, offsets = _dilated_system(body, k)
        assert _enum_py.walk_box(lo, hi, [(normals, offsets)], 10**9) == (found, charged)
        # the charge is exact: a budget one below it is refused
        assert _enum_py.walk_box(lo, hi, [(normals, offsets)], charged) == (found, charged)
        if charged:
            with pytest.raises(BudgetExceeded):
                _enum_py.walk_box(lo, hi, [(normals, offsets)], charged - 1)


def test_pieces_with_equal_offsets_on_different_rows_keep_apart():
    # x0 <= 1 with x1 + x2 + x3 <= 5, and x0 >= 2 with x1 + 2*x2 - x3 <= 5:
    # each piece is alone on its values of x0, and below x0 both read one
    # row, x0-free, with the remaining offset 5. Their sub-walks share the
    # level and the offsets but not the rows, so neither may reuse the other
    lo, hi = [0, 0, 0, 0], [3, 4, 5, 6]
    pieces = [
        ([[1, 0, 0, 0], [0, 1, 1, 1]], [1, 5]),
        ([[-1, 0, 0, 0], [0, 1, 2, -1]], [-2, 5]),
    ]
    found, _ = _enum_py.walk_box(lo, hi, pieces, 10**9)
    assert found == walk_count(lo, hi, pieces) == scan(lo, hi, pieces)
    # what the first piece's sub-walk, reused at all four x0, would give
    assert found != 4 * scan(lo[1:], hi[1:], [([[1, 1, 1]], [5])])


@st.composite
def recurring_walks(draw):
    """A 3-D or 4-D box with sides up to 40 whose first coordinate is the
    narrowest, walked but at most 11 wide, with rows in that coordinate
    alone and sparse rows in the others: every value of the first
    coordinate leaves the same sub-walk."""
    n = draw(st.integers(3, 4))
    lo = [draw(st.integers(-30, 10)) for _ in range(n)]
    first = draw(st.integers(1, 10))
    hi = [lo[0] + first] + [l + first + draw(st.integers(0, 30)) for l in lo[1:]]
    entry = st.integers(-9, 9) | st.just(0)
    rest = draw(st.lists(st.lists(entry, min_size=n - 1, max_size=n - 1), max_size=6))
    own = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), max_size=2))
    normals = [[a] + [0] * (n - 1) for a in own] + [[0] + row for row in rest]
    offsets = [draw(st.integers(-60, 200)) for _ in normals]
    return lo, hi, normals, offsets


@settings(max_examples=100)
@given(recurring_walks())
def test_a_coordinate_only_its_own_rows_read_is_a_factor_of_the_count(case):
    # the rows reading the first coordinate read no other, so it is a block
    # of its own, counted by one clip: the count is its values times the
    # count of the other coordinates, and only their walk charges. A block
    # without values is found before any walk, which then charges nothing
    lo, hi, normals, offsets = case
    own = len(normals) - sum(1 for row in normals if row[0] == 0)
    values = sum(
        all(row[0] * x <= c for row, c in zip(normals[:own], offsets))
        for x in range(lo[0], hi[0] + 1)
    )
    rest = [row[1:] for row in normals[own:]]
    found, charged = _enum_py.walk_box(lo[1:], hi[1:], [(rest, offsets[own:])], 10**9)
    whole = _enum_py.walk_box(lo, hi, [(normals, offsets)], 10**9)
    assert whole[0] == walk_count(lo, hi, [(normals, offsets)]) == values * found
    assert whole[1] == (charged if values else 0)
    if whole[1]:
        with pytest.raises(BudgetExceeded):
            _enum_py.walk_box(lo, hi, [(normals, offsets)], whole[1] - 1)


@st.composite
def lined_walks(draw):
    """A 3- to 5-D box walked in coordinate order (widths increase), whose
    rows reading coordinate t or a later one have, in each coordinate
    before t - 1, an integer multiple (negative ones too) of their column
    at t - 1, and free rows in the coordinates before t. So every prefix of
    values puts the sub-walk from level t at a position on one line; the
    free rows clip the outer ranges, which may leave gaps on it."""
    n = draw(st.integers(3, 5))
    t = draw(st.integers(min(2, n - 2), n - 2))
    widths = sorted(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n, unique=True)))
    lo = [draw(st.integers(-6, 3)) for _ in range(n)]
    hi = [l + w for l, w in zip(lo, widths)]
    multiples = [draw(st.integers(-6, 6)) for _ in range(t - 1)]
    entry = st.integers(-4, 4)
    normals = []
    for _ in range(draw(st.integers(1, 4))):
        step = draw(entry)
        rest = draw(st.lists(entry, min_size=n - t, max_size=n - t))
        normals.append([m * step for m in multiples] + [step] + rest)
    for _ in range(draw(st.integers(0, 3))):
        normals.append(draw(st.lists(entry, min_size=t, max_size=t)) + [0] * (n - t))
    offsets = [draw(st.integers(-20, 60)) for _ in normals]
    return lo, hi, normals, offsets


@settings(max_examples=200)
@given(lined_walks())
# the rows reading x2 or x3 read x0 and x1 alike, with the non-primitive
# step (3, 6, 0, 3, 6): the position is x0 + x1
@example((
    [0, 0, 0, 0], [2, 3, 5, 8],
    [[3, 3, 1, -1], [6, 6, 4, -1], [0, 0, -1, 0], [3, 3, 1, 1], [6, 6, 4, 1], [1, 1, 0, 0]],
    [20, 30, 0, 24, 40, 4],
))
# a negative multiple: below level 2 the position is x2 - 2*x1
@example((
    [0, 0, 0, 0, 0], [1, 2, 3, 5, 7],
    [[0, -2, 1, 1, 1], [0, 2, -1, -1, -1], [0, 0, 0, 1, -1], [1, 1, 0, 0, 0]],
    [6, 4, 2, 2],
))
# x1 walks 0..1 and the position is 5*x0 + x1: x0 = 0 holds 0..1, x0 = 1
# holds 5..6, a gap on the line, walked as without the sums
@example((
    [0, 0, 0, 0], [2, 3, 6, 8],
    [[5, 1, 1, 1], [-5, -1, -1, -2], [0, 1, 0, 0]],
    [30, 0, 1],
))
# one row reads every coordinate, so the sub-walks below x2 lie on one
# line: the first range of x2 walks its positions -3..1, the next two
# extend the run down to -9, then one extends it up to 3, and the last two
# lie within it
@example((
    [-1, -5, -3, -4, -2], [0, -3, 1, 1, 5], [[-2, 3, -1, 4, -1]], [1],
))
# the run below x2 holds positions -1..3 when ranges take -7..-3 and
# -13..-9, gaps it walks position by position; later ranges extend the
# run up to 7, then down to -9, taking what the gaps walked
@example((
    [3, 2, -1, -5, 3], [4, 4, 3, 0, 11], [[4, -6, 1, -3, 1]], [38],
))
def test_a_lined_walk_counts_as_walked_and_charges_no_more(case):
    # the sub-walks along one line are summed, not walked one by one; the
    # count is still that of the walk which visits each of them, the charge
    # at most that walk's, and the charge still refuses a budget one below it
    lo, hi, normals, offsets = case
    found, charged = _enum_py.walk_box(lo, hi, [(normals, offsets)], 10**9)
    assert found == walk_count(lo, hi, [(normals, offsets)])
    with mock.patch.object(_enum_py, "_line", lambda rows, prefix: None):
        unsummed = _enum_py.walk_box(lo, hi, [(normals, offsets)], 10**9)
    assert unsummed[0] == found and charged <= unsummed[1]
    assert _enum_py.walk_box(lo, hi, [(normals, offsets)], charged) == (found, charged)
    if charged:
        with pytest.raises(BudgetExceeded):
            _enum_py.walk_box(lo, hi, [(normals, offsets)], charged - 1)


def test_a_position_walked_off_its_run_is_walked_once():
    # the lined walk of the example above: its run keys the positions its
    # gaps walk, and a range that rejoins the run takes them for their
    # entry node. The union's runs key their positions as a body's do, from
    # their first gap, and its walk charges 787 where the plain walk, which
    # keeps and sums nothing, charges 975
    lo, hi, normals, offsets = [3, 2, -1, -5, 3], [4, 4, 3, 0, 11], [[4, -6, 1, -3, 1]], [38]
    assert _enum_py.walk_box(lo, hi, [(normals, offsets)], 10**9) == (1620, 55)
    assert walk_count(lo, hi, [(normals, offsets)]) == 1620
    lo, hi = [-4, -7, -9, -10], [33, 7, 28, 12]
    pieces = [([[-9, 0, 0, 1]], [39]), ([[-9, 0, 0, 1], [6, 7, 9, 9]], [55, -57])]
    assert _enum_py.walk_box(lo, hi, pieces, 10**9) == (493168, 787)
    assert plain_walk(lo, hi, pieces) == (493168, 975)
    assert walk_count(lo, hi, pieces) == 493168


def plain_walk(lo, hi, systems):
    """``walk_box`` with no keyed level: every prefix of columns reports full
    rank, so no sub-walk is kept or summed, and each is walked wherever it
    recurs."""
    with mock.patch.object(_enum_py, "independent_rows", lambda rows: list(range(len(rows)))):
        return _enum_py.walk_box(lo, hi, systems, 10**9)


def one_system(case):
    lo, hi, normals, offsets = case
    return lo, hi, [(normals, offsets)]


@pytest.mark.parametrize(
    "walks",
    [recurring_walks().map(one_system), lined_walks().map(one_system), box_with_systems()],
    ids=["recurring", "lined", "union"],
)
@settings(max_examples=150)
@given(data=st.data())
def test_a_kept_or_summed_sub_walk_charges_at_most_the_plain_walk(walks, data):
    # a reused sub-walk charges only the node where it is entered, which
    # walking it charges too, and a position summed along a line nothing
    lo, hi, systems = data.draw(walks)
    found, charged = _enum_py.walk_box(lo, hi, systems, 10**9)
    plain = plain_walk(lo, hi, systems)
    assert found == plain[0] and charged <= plain[1]


@pytest.mark.parametrize(
    "walks",
    [recurring_walks().map(one_system), lined_walks().map(one_system), box_with_systems()],
    ids=["recurring", "lined", "union"],
)
@settings(max_examples=150)
@given(data=st.data())
def test_the_budget_bounds_the_clips_a_walk_makes(walks, data):
    # every clip but the first of each walk follows a charged node, so the
    # charge bounds the work the walk does, not only the nodes it names. A
    # walk of several systems clips each live one once, and hands a stretch
    # where one is live alone to the single-system path with its clip. One
    # system walks each block of two or more coordinates from one uncharged
    # root clip; a block of one coordinate is counted without a clip
    lo, hi, systems = data.draw(walks)
    clips, (_, charged) = clipped_walk(lo, hi, systems)
    if len(systems) > 1:
        assert clips <= len(systems) * (charged + 1)
    else:
        walked = sum(len(cols) > 1 for cols, _, _ in _enum_py.Rows(systems[0][0]).blocks)
        assert clips <= charged + walked
    # and the other way: the plain walk charges one node per sub-walk it
    # enters, each of which clips, one per envelope piece of a slice, and
    # one per range of a slice where several systems are live
    pieces = 0

    def counted(plane):
        def wrapped(*args):
            nonlocal pieces
            found = plane(*args)
            pieces += found[1]
            return found

        return wrapped

    with (
        mock.patch.object(_enum_py, "_plane", counted(_enum_py._plane)),
        mock.patch.object(_enum_py, "_planes", counted(_enum_py._planes)),
    ):
        clips, (_, charged) = clipped_walk(lo, hi, systems, plain_walk)
    assert charged <= clips + pieces


@pytest.mark.parametrize(
    "body",
    [C.pentagon_pyramid(4, 2), C.pentagon_pyramid(5, 3), C.hull(4, 3), C.hull(5, 3)],
    ids=["pentagon_pyramid(4,2)", "pentagon_pyramid(5,3)", "hull(4,3)", "hull(5,3)"],
)
def test_a_lined_walk_charges_a_few_nodes_per_clip(body):
    # a position summed along a line costs nothing, so as k grows the charge
    # follows the clips the walk makes, not the widths of the ranges it sums
    for k in (5, 20, 80, -80):
        clips, (_, charged) = clipped_walk(*one_system(_dilated_system(body, k)))
        assert charged <= 3 * clips


def test_each_block_of_one_system_takes_one_clip_without_a_charge():
    # x0 = 0 with x0 + x1 <= 5, and x2 = 0 with x2 + x3 <= 5: two blocks,
    # each walked from one uncharged root clip, which leaves one value of
    # its first coordinate: a slice of one column, counted in closed form
    # and charged its one envelope piece
    lo, hi = [0, 0, 0, 0], [1, 1, 1, 1]
    block = [[1, 0], [-1, 0], [1, 1]]
    normals = [row + [0, 0] for row in block] + [[0, 0] + row for row in block]
    clips, walked = clipped_walk(lo, hi, [(normals, [0, 0, 5] * 2)])
    assert walked == (4, 2)
    assert clips == 2


def test_no_systems_hold_no_point():
    assert _enum_py.walk_box([0, 0], [3, 3], [], 10) == (0, 0)


def clipped_walk(lo, hi, systems, walk=None):
    """The number of ``_clip`` calls of one ``walk_box``, or of ``walk``, and
    its result."""
    clips = 0
    clip = _enum_py._clip

    def counted(level, rem):
        nonlocal clips
        clips += 1
        return clip(level, rem)

    with mock.patch.object(_enum_py, "_clip", counted):
        walked = walk(lo, hi, systems) if walk else _enum_py.walk_box(lo, hi, systems, 10**9)
    return clips, walked


def test_a_system_left_alone_is_not_clipped_again():
    # both systems are clipped at the first level, where the second allows
    # nothing (x <= 0 and x >= 1), so the first goes on alone with its clip
    clips, walked = clipped_walk([0, 0], [1, 0], [([], []), ([[1, 0], [-1, 0]], [0, -1])])
    assert walked == (2, 0)
    assert clips == 2
    # nor is its stretch cut where the empty clip would start or end: alone
    # over its whole clip, it is one slice of one envelope piece
    pieces = [([], []), ([[1, 0], [-1, 0]], [-1, 0])]
    assert _enum_py.walk_box([-1, 0], [0, 1], pieces, 1) == (4, 1)


@pytest.mark.parametrize(
    "body, lined",
    [(C.pentagon_pyramid(4, 2), [1]), (C.hull(4, 2), [1]), (C.hull(3, 2), [])],
    ids=["pentagon_pyramid(4,2)", "hull(4,2)", "hull(3,2)"],
)
def test_the_families_sum_their_sub_walks_along_lines(body, lined):
    # the apex coordinates, walked first, enter the facet normals with equal
    # columns, so level 1 sums the keyed sub-walks below it along a line.
    # In 3-D only level 1 can be keyed, where level 0's column vanishes on
    # the rows it reads, so no line has a step
    for k in (2, 20, -20):
        levels, _ = _enum_py._levels(*_dilated_system(body, k))
        assert [t for t, level in enumerate(levels) if level[7] is not None] == lined
