from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import clouds

from ehrhart import constructions as C
from ehrhart.counting import count, count_convex
from ehrhart.errors import NonterminatingNumerator
from ehrhart.polytope import denominator, from_vertices
from ehrhart.quasipoly import fit
from ehrhart.series import (
    EhrhartSeries,
    expansion,
    from_quasipolynomial,
    negate,
    normalized,
    pyramid_transform,
    refit,
    series_equivalent,
    to_dict,
)

F = Fraction


def series_of(body):
    qp = fit(partial(count, body), body.intrinsic_dim, denominator(body))
    return from_quasipolynomial(qp)


def test_segment_series_numerator():
    E = series_of(C.segment(2))
    assert E.numerator == (F(1), F(1))  # (1 + t) / (1 - t^2)^2
    assert E.modulus == 2 and E.power == 2
    # expansion recheck well past the numerator degree
    values = expansion(E, 12)
    assert values[0] == 1
    assert [int(v) for v in values[1:]] == [count_convex(C.segment(2), k) for k in range(1, 13)]


def test_point_series_is_geometric():
    E = series_of(from_vertices([(0, 0)]))
    assert E.numerator == (F(1),)
    assert E.modulus == 1 and E.power == 1
    assert expansion(E, 5) == [F(1)] * 6


def test_unit_segment_series():
    E = series_of(C.interval(0, 1))
    assert E.numerator == (F(1),)
    assert E.power == 2
    assert [int(v) for v in expansion(E, 4)] == [1, 2, 3, 4, 5]


def test_nonterminating_numerator_detected():
    class Fake:
        degree = 0
        modulus = 1

        def evaluate(self, k):
            return 2**k  # not a quasi-polynomial

    with pytest.raises(NonterminatingNumerator):
        from_quasipolynomial(Fake())


def test_round_trip_refit():
    for body in [C.segment(3), C.pentagon(2), C.simplex(3, 2)]:
        qp = fit(partial(count, body), body.intrinsic_dim, denominator(body))
        E = from_quasipolynomial(qp)
        back = refit(E)
        span = 3 * E.modulus * E.power
        assert all(back.evaluate(k) == qp.evaluate(k) for k in range(span + 1))


@settings(max_examples=30)
@given(clouds(max_dim=3, bound=4), st.booleans())
def test_fit_series_refit_round_trip_on_random_clouds(points, two_sided):
    body = from_vertices(points)
    qp = fit(partial(count, body), body.intrinsic_dim, denominator(body), two_sided=two_sided)
    assert refit(from_quasipolynomial(qp)) == qp


def test_pyramid_transform_matches_enumeration():
    E = pyramid_transform(series_of(C.segment(2)), 1)
    values = expansion(E, 8)
    assert values[2] == 4 == count_convex(C.simplex(3, 2), 2)
    assert [int(v) for v in values[1:]] == [
        count_convex(C.simplex(3, 2), k) for k in range(1, 9)
    ]


def test_pyramid_transform_composition():
    E = series_of(C.segment(2))
    twice = pyramid_transform(pyramid_transform(E, 1), 1)
    once = pyramid_transform(E, 2)
    assert expansion(twice, 12) == expansion(once, 12)
    with pytest.raises(ValueError):
        pyramid_transform(E, 0)


def test_pyramid_transform_of_geometric_series():
    E = EhrhartSeries((F(1),), 1, 1)  # 1 / (1 - t)
    out = pyramid_transform(E, 1)
    assert out.power == 2
    assert [int(v) for v in expansion(out, 4)] == [1, 2, 3, 4, 5]


def test_series_equivalence_pyramids():
    left = series_of(C.pentagon_pyramid(3, 2))
    right = negate(series_of(C.simplex(3, 2)))
    assert series_equivalent(left, right)
    assert series_equivalent(left, left)
    assert not series_equivalent(series_of(C.segment(2)), series_of(C.segment(3)))


def test_pyramid_transform_preserves_negated_equivalence():
    # the pentagon/segment cancellation survives any number of pyramid steps
    for p in (2, 3):
        pent = series_of(C.pentagon(p))
        seg = series_of(C.segment(p))
        for folds in (1, 2, 3):
            assert series_equivalent(
                pyramid_transform(pent, folds), negate(pyramid_transform(seg, folds))
            )


def test_normalized_preserves_expansion():
    E = series_of(C.segment(2))
    bigger = normalized(E, 4, 3)
    assert bigger.modulus == 4 and bigger.power == 3
    assert expansion(bigger, 16) == expansion(E, 16)


def test_to_dict():
    payload = to_dict(series_of(C.segment(2)))
    assert payload == {"numerator": [1, 1], "modulus": 2, "power": 2}
