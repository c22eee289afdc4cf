from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
from oracles import lagrange_interpolate
from strategies import rationals

from ehrhart.polynomials import interpolate, poly_mul, poly_trim

# distinct nonzero nodes of both signs, as the two-sided fit takes them
NODES = st.lists(st.integers(-12, 12).filter(bool), min_size=1, max_size=8, unique=True)


@given(NODES, st.data())
def test_interpolate_equals_lagrange_reference(xs, data):
    # fraction-free: integer numerators over one positive denominator
    values = st.integers(-10**6, 10**6) | rationals(50)
    ys = [data.draw(values) for _ in xs]
    nums, den = interpolate(xs, ys)
    assert den > 0
    assert all(type(n) is int for n in nums)
    assert [Fraction(n, den) for n in nums] == lagrange_interpolate(xs, ys)


def test_poly_mul_and_trim_keep_integer_coefficients():
    prod = poly_mul([1, 2], [3, 0, -1])
    assert prod == [3, 6, -1, -2]
    assert all(type(c) is int for c in prod)
    trimmed = poly_trim([4, 0, 0])
    assert trimmed == [4] and type(trimmed[0]) is int


def test_poly_mul_keeps_fraction_coefficients():
    prod = poly_mul([Fraction(1, 2)], [Fraction(2), Fraction(1, 3)])
    assert prod == [1, Fraction(1, 6)]
    assert all(type(c) is Fraction for c in prod)
