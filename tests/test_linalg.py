import random
from fractions import Fraction

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    bareiss_det,
    brute_has_integer_solution,
    brute_min_dilate,
    integer_solution,
    minor_gcd_diagonal,
    smith_normal_form,
    snf_min_dilate,
)
from strategies import rationals

from ehrhart.errors import Infeasible
from ehrhart.linalg import (
    AffineSubspace,
    independent_rows,
    integerize,
    min_dilate_with_lattice_point,
    pivots_and_nullspace,
    vdot,
)


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def assert_snf(matrix):
    U, S, V = smith_normal_form(matrix)
    prod = mat_mul(mat_mul([list(r) for r in U], [list(r) for r in matrix]), [list(r) for r in V])
    assert prod == [list(r) for r in S]
    assert abs(bareiss_det(U)) == 1
    assert abs(bareiss_det(V)) == 1
    m, n = len(matrix), len(matrix[0])
    diag = [S[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert S[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
    return diag


def test_snf_gcd_example():
    diag = assert_snf([[2, 4], [6, 8]])
    assert diag == [2, 4]
    assert diag == minor_gcd_diagonal([[2, 4], [6, 8]])


def test_snf_identity():
    diag = assert_snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert diag == [1, 1, 1]


def test_snf_zero_matrix():
    assert assert_snf([[0]]) == [0]


def test_snf_random_matches_minor_gcds():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        diag = assert_snf(matrix)
        assert diag == minor_gcd_diagonal(matrix)


def test_min_dilate_half_integer_vertex():
    sub = AffineSubspace(1, ((1,),), (Fraction(3, 2),))
    assert min_dilate_with_lattice_point(sub) == 2


def test_min_dilate_origin():
    sub = AffineSubspace(2, ((1, 0), (0, 1)), (Fraction(0), Fraction(0)))
    assert min_dilate_with_lattice_point(sub) == 1


def test_min_dilate_edge_line():
    sub = AffineSubspace(2, ((1, 4),), (Fraction(6),))
    assert min_dilate_with_lattice_point(sub) == 1
    assert integer_solution(sub.rows, sub.rhs) is not None


def test_min_dilate_infeasible():
    # x = 0 and x = 1 cannot both hold
    sub = AffineSubspace(1, ((1,), (1,)), (Fraction(0), Fraction(1)))
    with pytest.raises(Infeasible):
        min_dilate_with_lattice_point(sub)


def test_min_dilate_no_rows_is_one():
    sub = AffineSubspace(3, (), ())
    assert min_dilate_with_lattice_point(sub) == 1


def test_min_dilate_small_examples_match_brute_force():
    # desk-scale instances whose solutions provably fit the search box
    cases = [
        (((1,),), (Fraction(3, 2),), 2),
        (((1, 4),), (Fraction(6),), 1),
        (((2,),), (Fraction(1, 3),), 6),
        (((1, 0), (0, 2)), (Fraction(1, 2), Fraction(1)), 2),
    ]
    for rows, rhs, expected in cases:
        sub = AffineSubspace(len(rows[0]), rows, rhs)
        assert min_dilate_with_lattice_point(sub) == expected
        assert brute_min_dilate(rows, rhs, m_max=6, box=12) == expected


def test_min_dilate_random_witness_and_minimality():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 2))]
        if all(all(x == 0 for x in row) for row in rows):
            continue
        point = [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for _ in range(n)]
        rhs = [vdot(row, point) for row in rows]  # guarantees rational feasibility
        sub = AffineSubspace(n, tuple(rows), tuple(rhs))
        m = min_dilate_with_lattice_point(sub)
        # the claimed dilate has an explicit integer witness
        witness = integer_solution(sub.rows, tuple(b * m for b in sub.rhs))
        assert witness is not None
        assert all(vdot(row, witness) == b * m for row, b in zip(sub.rows, sub.rhs))
        # no smaller dilate admits one (box search can only ever disprove minimality)
        for smaller in range(1, min(m, 6)):
            target = [b * smaller for b in sub.rhs]
            assert not brute_has_integer_solution(sub.rows, target, box=12)


def test_nullspace_dimensions():
    basis = pivots_and_nullspace([[1, 1, 0]], 3)[1]
    assert len(basis) == 2
    for vec in basis:
        assert vdot([1, 1, 0], vec) == 0


def test_integerize():
    assert integerize([Fraction(1, 2), Fraction(-3, 4)]) == (2, -3)
    assert integerize([Fraction(2), Fraction(4)]) == (1, 2)
    assert integerize([0, 0]) == (0, 0)


def test_vector_dimension_guard():
    from ehrhart.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        vdot((1, 2), (1, 2, 3))


def test_rational_exactness():
    # associativity on awkward denominators; nothing ever rounds
    xs = [Fraction(1, 3), Fraction(1, 7), Fraction(-5, 21)]
    assert (xs[0] + xs[1]) + xs[2] == xs[0] + (xs[1] + xs[2]) == Fraction(5, 21)


@st.composite
def rational_matrices(draw):
    """1-6 rows and columns of small rationals, with zero rows, scaled
    copies of earlier rows and zero columns mixed in."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "random", "zero", "copy"]))
        if kind == "copy" and rows:
            scale = draw(rationals(4).filter(bool))
            rows.append([scale * x for x in draw(st.sampled_from(rows))])
        elif kind == "zero":
            rows.append([Fraction(0)] * ncols)
        else:
            rows.append([draw(rationals(6)) for _ in range(ncols)])
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for row in rows:
            row[c] = Fraction(0)
    return rows


@settings(max_examples=400)
@given(rational_matrices())
def test_rank_nullspace_and_independent_rows_equal_rref_oracle(rows):
    ncols = len(rows[0])
    pivots, nullspace = pivots_and_nullspace(rows, ncols)
    assert len(pivots) == oracles.rank(rows)
    assert nullspace == oracles.nullspace(rows, ncols)
    assert independent_rows(rows) == oracles.independent_rows(rows)


@st.composite
def integer_systems(draw):
    """``(rows, rhs)``: 1-3 random integer rows in 1-5 unknowns, plus up to
    three integer combinations of them, shuffled; the right-hand side is
    consistent by construction, the same with one entry moved, or random."""
    n = draw(st.integers(1, 5))
    base = [[draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(draw(st.integers(1, 3)))]
    rows = list(base)
    for _ in range(draw(st.integers(0, 3))):
        coeffs = [draw(st.integers(-2, 2)) for _ in base]
        rows.append([sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(n)])
    rows = draw(st.permutations(rows))
    kind = draw(st.sampled_from(["consistent", "moved", "random"]))
    if kind == "random":
        rhs = [draw(rationals(6)) for _ in rows]
    else:
        point = [draw(rationals(6)) for _ in range(n)]
        rhs = [vdot(row, point) for row in rows]
        if kind == "moved":
            rhs[draw(st.integers(0, len(rows) - 1))] += draw(rationals(3).filter(bool))
    return tuple(tuple(row) for row in rows), tuple(rhs)


@settings(max_examples=400)
@given(integer_systems())
@example((((2,),), (Fraction(1, 3),)))  # a column with a common factor: 6, not 3
@example((((1, 0), (1, 0)), (Fraction(0), Fraction(1))))  # dependent rows, inconsistent
def test_min_dilate_equals_smith_closed_form(system):
    rows, rhs = system
    sub = AffineSubspace(len(rows[0]), rows, rhs)
    want = snf_min_dilate(rows, rhs)
    if want is None:
        with pytest.raises(Infeasible):
            min_dilate_with_lattice_point(sub)
    else:
        assert min_dilate_with_lattice_point(sub) == want
