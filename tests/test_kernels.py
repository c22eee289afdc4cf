"""The enumeration kernel against a point-by-point scan of the box, its
invariance under the signed permutations and translations that keep a count,
and its node budget."""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehrhart import _enum_py
from ehrhart import constructions as C
from ehrhart.counting import count_convex, kernel_name
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
    # row-free box with side widths a < b < c, listed out of order: the walk
    # takes a + 1 values of the narrowest coordinate and (a + 1)(b + 1) of
    # the middle one, and counts the widest in closed form
    a, b, c = widths
    lo, hi = [0, -3, 7], [b, c - 3, 7 + a]
    nodes = (a + 1) + (a + 1) * (b + 1)
    points = (a + 1) * (b + 1) * (c + 1)
    assert _enum_py.count_box(lo, hi, [], [], nodes) == points
    assert _enum_py.count_box_union(lo, hi, [([], [])], nodes) == points
    with pytest.raises(BudgetExceeded):
        _enum_py.count_box(lo, hi, [], [], nodes - 1)
    with pytest.raises(BudgetExceeded):
        _enum_py.count_box_union(lo, hi, [([], [])], nodes - 1)


def test_last_coordinate_costs_no_nodes():
    lo, hi = [-(10**12)], [10**12]
    assert _enum_py.count_box(lo, hi, [[1]], [0], 0) == 10**12 + 1
    assert _enum_py.count_box_union(lo, hi, [([[1]], [0]), ([[-1]], [0])], 0) == 2 * 10**12 + 1


def test_kernel_name_reports_backend():
    assert kernel_name() == "python"
