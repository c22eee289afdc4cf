"""The contracts of the value types, which are named tuples: equality and
hashing by value, immutable fields, their ``repr`` and their construction
checks. Bodies and unions compare the same before and after they fill
what they keep on first use."""

import copy
import pickle
from fractions import Fraction

import pytest

from ehrhart import constructions as C
from ehrhart.cli import VerificationReport
from ehrhart.counting import fitted
from ehrhart.errors import DimensionMismatch, InvalidInput, SizeMismatch
from ehrhart.indices import IndexSequence, McMullenReport
from ehrhart.linalg import AffineSubspace
from ehrhart.polytope import PolytopalUnion, from_vertices
from ehrhart.pte import PteSolution
from ehrhart.quasipoly import QuasiPolynomial
from ehrhart.series import EhrhartSeries

F = Fraction


def _square():
    return from_vertices([(0, 0), (2, 0), (0, 2), (2, 2)])


def _union():
    square = _square()
    return PolytopalUnion(2, (square, square.translate((1, 1))))


def _fill_body(body):
    fitted(body)
    body.face_lattice, body.bounds, body.rows


# name: (build a value, its repr, constructions that must raise, fill its caches)
CASES = {
    "VerificationReport": (
        lambda: VerificationReport("heptagon", {"p": [1]}, "pass", {"ok": [True]}),
        "VerificationReport(claim='heptagon', params={'p': [1]}, outcome='pass', "
        "witness={'ok': [True]})",
        [],
        None,
    ),
    "IndexSequence": (lambda: IndexSequence((2, 2, 1)), "IndexSequence(values=(2, 2, 1))", [], None),
    "McMullenReport": (
        lambda: McMullenReport((2, 1), (2, 1), (True, True), True, True),
        "McMullenReport(period_sequence=(2, 1), index_sequence=(2, 1), "
        "period_divides_index=(True, True), chain_ok=True, ok=True)",
        [],
        None,
    ),
    "AffineSubspace": (
        lambda: AffineSubspace(2, ((1, 0),), (F(1, 2),)),
        "AffineSubspace(ambient_dim=2, rows=((1, 0),), rhs=(Fraction(1, 2),))",
        [],
        None,
    ),
    "ConvexPolytope": (
        lambda: from_vertices(C.pentagon(2).vertices),  # a hull of its own
        "ConvexPolytope(ambient_dim=2, intrinsic_dim=2, 5 vertices, 5 facets)",
        [],
        _fill_body,
    ),
    "PolytopalUnion": (
        _union,
        "PolytopalUnion(ambient_dim=2, 2 pieces)",
        [
            (InvalidInput, lambda: PolytopalUnion(2, ())),
            (DimensionMismatch, lambda: PolytopalUnion(3, (_square(),))),
            (InvalidInput, lambda: PolytopalUnion(2, (from_vertices([(0, 0), (1, 1)]),))),
        ],
        fitted,
    ),
    "PteSolution": (
        lambda: PteSolution((1, 5), (4, 0)),
        "PteSolution(s=(1, 5), t=(4, 0))",
        [(SizeMismatch, lambda: PteSolution((1, 5), (6,)))],
        None,
    ),
    "QuasiPolynomial": (
        lambda: QuasiPolynomial(1, 2, ((F(1), F(1, 2)), (F(1), F(1)))),
        "QuasiPolynomial(degree=1, modulus=2, coeffs=((Fraction(1, 1), Fraction(1, 2)), "
        "(Fraction(1, 1), Fraction(1, 1))))",
        [
            (ValueError, lambda: QuasiPolynomial(-1, 1, ())),
            (ValueError, lambda: QuasiPolynomial(1, 1, ((F(1),),))),
            (ValueError, lambda: QuasiPolynomial(0, 2, ((F(1),),))),
        ],
        None,
    ),
    "EhrhartSeries": (
        lambda: EhrhartSeries((F(1), F(1)), 1, 2),
        "EhrhartSeries(numerator=(Fraction(1, 1), Fraction(1, 1)), modulus=1, power=2)",
        [
            (ValueError, lambda: EhrhartSeries((F(1),), 0, 1)),
            (ValueError, lambda: EhrhartSeries((F(1),), 1, 0)),
        ],
        None,
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_value_type_contract(name):
    build, text, bad, fill = CASES[name]
    value, twin = build(), build()
    assert type(value).__name__ == name and value is not twin
    assert value == twin and repr(value) == text
    # a named tuple: it equals the plain tuple of its fields
    assert value == tuple(value) and len(value) == len(value._fields)
    if name == "VerificationReport":  # it holds dicts
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)
    # the fields, what a value keeps outside the tuple, and any new name
    # all refuse assignment
    for name in (*value._fields, *getattr(value, "__dict__", ()), "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for error, construct in bad:
        with pytest.raises(error):
            construct()
    if fill is not None:
        kept = set(vars(value))
        fill(value)
        assert set(vars(value)) > kept
        assert value == twin and twin == value and hash(value) == hash(twin)


def test_reports_without_a_witness_get_a_dict_each():
    first, second = VerificationReport("mcmullen", {}, "pass"), VerificationReport("pte", {}, "pass")
    assert first.witness == {} and first.witness is not second.witness


def test_a_body_pickles_and_copies_with_what_it_keeps():
    body = C.pentagon(2)
    body.face_lattice
    for again in (pickle.loads(pickle.dumps(body)), copy.deepcopy(body)):
        assert again == body and again is not body
        assert again.face_lattice == body.face_lattice
