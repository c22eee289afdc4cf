from fractions import Fraction
from functools import partial

import pytest

from ehrhart import constructions as C
from ehrhart.counting import count, count_convex, fitted
from ehrhart.errors import VerificationFailed
from ehrhart.polytope import denominator, product
from ehrhart.quasipoly import (
    QuasiPolynomial,
    coefficient_period,
    equivalent,
    fit,
    negate,
    period_sequence,
    to_dict,
)

F = Fraction


def fit_body(body, budget=None):
    return fit(partial(count, body, budget=budget), body.intrinsic_dim, denominator(body))


def test_fit_segment():
    qp = fit_body(C.segment(2))
    assert qp.coeffs[1] == (F(1, 2), F(1, 2))  # slope 1/2 on both residues
    assert qp.coeffs[0] == (F(1), F(1, 2))  # 1 on even, 1/2 on odd
    assert qp.evaluate(7) == count_convex(C.segment(2), 7)
    assert qp.evaluate(0) == 1


def test_fit_pentagon():
    qp = fit_body(C.pentagon(2))
    assert qp.coeffs[2] == (F(6), F(6))  # leading term = area
    assert qp.coeffs[1] == (F(9, 2), F(9, 2))
    assert qp.coeffs[0] == (F(1), F(3, 2))
    assert qp.evaluate(1) == 12 and qp.evaluate(2) == 34
    # identity on the whole sample window, not just the interpolation nodes
    for k in range(1, 12):
        assert qp.evaluate(k) == count_convex(C.pentagon(2), k)


def test_fit_constant_counter():
    qp = fit(lambda k: 1, 0, 1)
    assert qp.coeffs == ((F(1),),)
    assert qp.evaluate(17) == 1


def test_fit_off_lattice_point():
    # a single point at 1/2 is hit only by even dilates: degree 0, period 2
    from ehrhart.polytope import from_vertices

    half = from_vertices([(F(1, 2),)])
    qp = fit(partial(count, half), 0, 2)
    assert qp.coeffs == ((F(1), F(0)),)
    assert period_sequence(qp) == (2,)


@pytest.mark.parametrize("two_sided", [False, True])
def test_fit_detects_wrong_modulus(two_sided):
    # the text ``cli.entry`` prints on exit 3
    text = r"fitted value .* != sample .* at k=-?\d+"
    with pytest.raises(VerificationFailed, match=text):
        fit(partial(count, C.segment(2)), 1, 1, two_sided=two_sided)  # true modulus is 2
    with pytest.raises(VerificationFailed, match=text):
        fit(partial(count, C.heptagon(3)), 2, 1, two_sided=two_sided)  # true modulus is 3


def test_fit_takes_a_fraction_valued_counter():
    # as ``series.refit`` passes: the values are scaled to integers first
    qp = fit(lambda k: Fraction(k, 2) + Fraction(1, 3), 1, 1)
    assert qp.coeffs == ((Fraction(1, 3),), (Fraction(1, 2),))


@pytest.mark.parametrize("two_sided", [False, True])
def test_fit_detects_wrong_degree(two_sided):
    with pytest.raises(VerificationFailed):
        fit(partial(count, C.pentagon(2)), 1, 2, two_sided=two_sided)  # true degree is 2


def test_fit_sample_points():
    # nodes per residue, then degree + 2 checks beyond every node's |k|
    asked = []
    segment = C.segment(2)
    fit(lambda k: asked.append(k) or count(segment, k), 1, 2)
    assert sorted(asked) == [1, 2, 3, 4, 5, 6, 7]
    assert list(fitted(C.segment(2))[1]) == [-3, -2, -1, 1, 2, 3, 4]
    # residues 1, 2, 0 fill at 4, -4, 6; 5 and -5 fall in full residues
    assert list(fitted(C.heptagon(3))[1]) == [-8, -7, -4, -3, -2, -1, 1, 2, 3, 4, 6, 7, 8]


def test_coefficient_periods_segment():
    qp = fit_body(C.segment(2))
    assert coefficient_period(qp, 0) == 2
    assert coefficient_period(qp, 1) == 1


def test_period_sequence_examples():
    assert period_sequence(fit_body(C.heptagon(2))) == (1, 2, 1)
    assert period_sequence(fit_body(C.simplex(3, 2))) == (2, 1, 1)
    square = product(C.interval(0, 1), C.interval(0, 1))
    assert period_sequence(fit_body(square)) == (1, 1, 1)


def test_heptagon_middle_coefficient_values():
    qp = fit_body(C.heptagon(2))
    assert qp.coefficient(1, 1) == 2  # odd dilates
    assert qp.coefficient(1, 2) == 5  # even dilates


def test_equivalence_pentagon_segment():
    fp = fit_body(C.pentagon(2))
    fl = fit_body(C.segment(2))
    assert equivalent(fp, negate(fl))
    assert equivalent(fp, fp)
    assert not equivalent(fit_body(C.segment(2)), fit_body(C.segment(3)))


def test_equivalent_implies_same_period_sequence():
    pairs = [
        (fit_body(C.pentagon(2)), negate(fit_body(C.segment(2)))),
        (fit_body(C.simplex(3, 3)), negate(fit_body(C.pentagon_pyramid(3, 3)))),
    ]
    for f, g in pairs:
        assert equivalent(f, g)
        # pad to a common degree before comparing
        top = max(f.degree, g.degree)
        pf = period_sequence(f) + (1,) * (top - f.degree)
        pg = period_sequence(g) + (1,) * (top - g.degree)
        assert pf == pg


def test_negate_cancels_every_count():
    f = fit_body(C.pentagon(3))
    g = negate(f)
    assert g.coeffs == tuple(tuple(-c for c in row) for row in f.coeffs)
    assert all(f.evaluate(k) + g.evaluate(k) == 0 for k in range(-4, 9))


def test_arithmetic_rectangle_identity():
    # (2qk + 1) * segment count = rectangle count
    assert count(C.rectangle(2), 2) == 26 == (1 + 2 * 3 * 2) * count(C.segment(2), 2)
    for p in (2, 3, 4):
        q = C.q_value(p)
        for k in range(1, 8):
            assert count(C.rectangle(p), k) == (1 + 2 * q * k) * count(C.segment(p), k)


def test_additivity_over_integral_intersection():
    # heptagon = rectangle u pentagon glued along a lattice segment, so the
    # difference of counts is minus the segment's: a polynomial, fit with
    # modulus 1
    hept, rect, pent = C.heptagon(2), C.rectangle(2), C.pentagon(2)
    diff = fit(lambda k: count(hept, k) - count(rect, k) - count(pent, k), 1, 1)
    assert diff.coeffs == ((F(-1),), (F(-6),))  # -(6k + 1)


def test_leading_coefficient_constant_and_positive():
    for body in [C.pentagon(2), C.heptagon(3), C.simplex(3, 2), C.hull(3, 2)]:
        qp = fit_body(body)
        leading = set(qp.coeffs[qp.degree])
        assert len(leading) == 1
        assert leading.pop() > 0


def test_evaluate_row_validation():
    with pytest.raises(ValueError):
        QuasiPolynomial(1, 2, ((F(1),),))


def test_to_dict_serialization():
    payload = to_dict(fit_body(C.segment(2)))
    assert payload == {
        "degree": 1,
        "modulus": 2,
        "coeffs": [["1", "1/2"], ["1/2", "1/2"]],
        "period_sequence": [2, 1],
    }
