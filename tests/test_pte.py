import pytest

from ehrhart.errors import NotAvailable, SizeMismatch
from ehrhart.pte import (
    PteSolution,
    available_sizes,
    difference_polynomial,
    power_sum,
    product_identity_check,
    table_lookup,
    verify,
)


def test_power_sum():
    assert power_sum(2, [1, 2, 6]) == 41
    assert power_sum(0, [1, 2, 6]) == 3
    assert power_sum(5, []) == 0


def test_difference_polynomial_returns_plain_ints():
    sol = table_lookup(12)
    diff = difference_polynomial(sol)
    assert diff and all(type(c) is int for c in diff)


def test_verify_examples():
    assert verify(PteSolution((1, 2), (3, 0)))
    assert verify(PteSolution((1, 2, 6), (4, 5, 0)))
    assert not verify(PteSolution((1, 2), (2, 0)))
    assert not verify(PteSolution((1, 2), (0, 3)))  # zero must come last
    assert not verify(PteSolution((1, -2), (-1, 0)))
    # below size 2 there is no ideal solution, as table_lookup says
    assert not verify(PteSolution((1,), (0,)))
    assert not verify(PteSolution((), ()))


def test_table_sizes():
    assert available_sizes() == [2, 3, 4, 5, 6, 7, 8, 9, 10, 12]


def test_table_entries_all_verify():
    for size in available_sizes():
        sol = table_lookup(size)
        assert sol.size == size
        assert verify(sol)
        assert product_identity_check(sol)


def test_table_small_witnesses():
    assert table_lookup(2) == PteSolution((1, 2), (3, 0))
    assert table_lookup(3) == PteSolution((1, 2, 6), (4, 5, 0))
    assert table_lookup(4) == PteSolution((1, 2, 9, 10), (4, 7, 11, 0))


def test_table_lookup_unavailable():
    with pytest.raises(NotAvailable):
        table_lookup(11)
    with pytest.raises(NotAvailable):
        table_lookup(13)
    with pytest.raises(NotAvailable):
        table_lookup(1)


def test_shift_invariance():
    for size in available_sizes():
        sol = table_lookup(size)
        for shift in (1, 2, 3):
            a = [x + shift for x in sol.s]
            b = [x + shift for x in sol.t]
            assert all(power_sum(k, a) == power_sum(k, b) for k in range(size))


def test_newton_consistency():
    # equal power sums through m-1 force equal elementary symmetric
    # functions, the coefficients of prod(1 + s_i x) and prod(1 + t_i x)
    for size in available_sizes():
        diff = difference_polynomial(table_lookup(size))
        assert diff[: size - 1] == [0] * (size - 1)


def test_product_identity_witnesses():
    # (x+1)(2x+1) - (3x+1) = 2x^2 and (x+1)(2x+1)(6x+1) - (4x+1)(5x+1) = 12x^3
    assert product_identity_check(PteSolution((1, 2), (3, 0)))
    assert product_identity_check(PteSolution((1, 2, 6), (4, 5, 0)))
    assert not product_identity_check(PteSolution((1, 3), (5, 0)))  # sums differ
    assert difference_polynomial(PteSolution((1, 2), (3, 0))) == [0, 0, 2]
    assert difference_polynomial(PteSolution((1, 2, 6), (4, 5, 0))) == [0, 0, 0, 12]
    # (x+1)(3x+1) - (5x+1) = -x + 3x^2
    assert difference_polynomial(PteSolution((1, 3), (5, 0))) == [0, -1, 3]


def test_solution_size_validation():
    with pytest.raises(SizeMismatch):
        PteSolution((1, 2, 3), (3, 0))
