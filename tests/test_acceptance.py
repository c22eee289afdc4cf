"""Acceptance suite: one test per criterion, exact equality throughout.

All arithmetic in the library is rational, so every assertion here is an
exact comparison (tolerance zero). Each test prints a single pass line
once its criterion holds; fitted quasi-polynomials are cached in a
module-level store because several criteria share the same bodies.
"""

from functools import partial

import pytest

from ehrhart import constructions as C
from ehrhart import pte
from ehrhart.cli import run_claim
from ehrhart.counting import count, count_convex, count_union
from ehrhart.errors import NotAvailable
from ehrhart.indices import mcmullen_check
from ehrhart.polytope import denominator, is_integral
from ehrhart.pte import PteSolution, product_identity_check, table_lookup, verify
from ehrhart.quasipoly import equivalent, fit, negate, period_sequence
from ehrhart.series import from_quasipolynomial, series_equivalent

_FITS: dict = {}


def fitted(body):
    """Fit (and cache) the dilate-count quasi-polynomial of a body."""
    if body not in _FITS:
        counter = partial(count, body)
        degree = body.intrinsic_dim if hasattr(body, "intrinsic_dim") else body.ambient_dim
        qp = fit(counter, degree, denominator(body))
        # five fresh dilates beyond the fitting and verification window
        top = (degree + 1) * denominator(body) + degree + 2
        for k in range(top + 1, top + 6):
            assert qp.evaluate(k) == counter(k)
        _FITS[body] = qp
    return _FITS[body]


def report(line):
    print(f"PASS {line}")


def test_criterion_1_pentagon_cancellation():
    for p in (1, 2, 3, 4, 5):
        assert equivalent(fitted(C.pentagon(p)), negate(fitted(C.segment(p))))
    report("criterion 1: pentagon/segment cancellation for p in 1..5")


def test_criterion_2_heptagon_warmup():
    for p in (2, 3, 4, 5):
        assert period_sequence(fitted(C.heptagon(p))) == (1, p, 1)
    qp = fitted(C.heptagon(2))
    assert [count_convex(C.heptagon(2), k) for k in (1, 2, 3, 4)] == [12, 47, 88, 165]
    assert qp.coefficient(1, 1) == 2  # odd dilates
    assert qp.coefficient(1, 2) == 5  # even dilates
    report("criterion 2: heptagon period sequence (1, p, 1) with middle values 2/5 at p=2")


def test_criterion_3_hull_periods():
    for n, p in ((3, 2), (3, 3), (4, 2)):
        expected = (1, p) + (1,) * (n - 1)
        assert period_sequence(fitted(C.hull(n, p))) == expected
    assert count_convex(C.hull(3, 2), 1) == 49
    report("criterion 3: hull period sequences (1, p, 1, ..., 1) and spot count 49")


def test_criterion_4_decomposition():
    rep = run_claim("decomposition")
    assert rep.outcome == "pass"
    for n, p in ((3, 2), (3, 3), (4, 2)):
        entry = rep.witness[f"n={n},p={p}"]
        assert entry["ok"] and entry["first_failing_k"] is None
        assert is_integral(C.middle(n, p))
        assert is_integral(C.prism_shared_facet(n, p))
        assert is_integral(C.pyramid_shared_facet(n, p))
    report("criterion 4: hull = prism u middle u pyramid with integral seams, k <= 4")


def test_criterion_5_prism_identity():
    for n in (3, 4):
        for p in (2, 3):
            q = C.q_value(p)
            prism_body = C.prism(n, p)
            simplex_body = C.simplex(n, p)
            for k in range(1, 9):
                assert count_convex(prism_body, k) == (2 * q * k + 1) * count_convex(
                    simplex_body, k
                )
    report("criterion 5: prism counts equal (2qk + 1) times simplex counts, k <= 8")


def test_criterion_6_pyramid_equivalence():
    for p in (2, 3):
        for i in (1, 2):
            n = 2 + i
            left = from_quasipolynomial(fitted(C.pentagon_pyramid(n, p)))
            right = from_quasipolynomial(negate(fitted(C.simplex(n, p))))
            assert series_equivalent(left, right)
    for n in (3, 4):
        for p in (2, 3):
            assert equivalent(
                fitted(C.simplex(n, p)), negate(fitted(C.pentagon_pyramid(n, p)))
            )
    report("criterion 6: pyramid series equivalence and simplex/pyramid cancellation")


def test_criterion_7_barn_periods_and_range():
    for n in (3, 4, 5):
        for p in (2, 3):
            union = C.barn(n, p, table_lookup(n - 1))
            expected = (1,) * (n - 1) + (p, 1)
            assert period_sequence(fitted(union)) == expected
    union = C.barn(3, 2, table_lookup(2))
    assert [count(union, k) for k in (1, 2)] == [48, 253]
    for k in (1, 2):
        assert count_union(union, k, strategy="enumerate") == count_union(
            union, k, strategy="inclusion-exclusion"
        )
    for n in list(range(3, 12)) + [13]:
        built = C.barn(n, 2, table_lookup(n - 1))
        assert built.ambient_dim == n
    with pytest.raises(NotAvailable):
        table_lookup(11)  # blocks n = 12
    report("criterion 7: barn periods (1, ..., 1, p, 1); builds for n in 3..11, 13; 12 unavailable")


def test_criterion_8_pte_table():
    for size in pte.available_sizes():
        sol = table_lookup(size)
        assert verify(sol)
        assert product_identity_check(sol)
    assert table_lookup(2) == PteSolution((1, 2), (3, 0))
    assert table_lookup(3) == PteSolution((1, 2, 6), (4, 5, 0))
    from ehrhart.polynomials import poly_mul

    def expand(xs):
        out = [1]
        for x in xs:
            out = [int(c) for c in poly_mul(out, [1, x])]
        return out

    left2, right2 = expand([1, 2]), expand([3])
    assert [l - r for l, r in zip(left2, right2 + [0])] == [0, 0, 2]
    left3, right3 = expand([1, 2, 6]), expand([4, 5])
    assert [l - r for l, r in zip(left3, right3 + [0])] == [0, 0, 0, 12]
    report("criterion 8: every table entry verifies; witness differences 2x^2 and 12x^3")


def test_criterion_9_mcmullen_bounds():
    targets = []
    for p in (1, 2, 3):
        targets += [C.segment(p), C.pentagon(p), C.rectangle(p), C.heptagon(p)]
        targets += [C.simplex(n, p) for n in (3, 4, 5)]
        for n in (3, 4):
            targets += [
                C.prism(n, p),
                C.pentagon_pyramid(n, p),
                C.hull(n, p),
                C.middle(n, p),
            ]
    for body in targets:
        assert body.intrinsic_dim <= 4
        rep = mcmullen_check(body)
        assert rep.ok, (body, rep)
        assert rep.index_sequence[0] == denominator(body)
    report(f"criterion 9: period divides index and chain holds on {len(targets)} bodies")


def test_criterion_10_simplex_baseline():
    for n in (3, 4, 5):
        for p in (2, 3):
            expected = (p,) + (1,) * (n - 1)
            assert period_sequence(fitted(C.simplex(n, p))) == expected
    assert [count_convex(C.simplex(3, 2), k) for k in (1, 2, 3, 4)] == [2, 4, 6, 9]
    report("criterion 10: simplex period sequences (p, 1, ..., 1) with counts 2, 4, 6, 9")


def test_cli_verification_driver_passes():
    # the CLI driver reruns every claim and must agree with the suite
    from ehrhart.cli import verify_all

    reports = verify_all()
    assert [r.claim for r in reports] == list(__import__("ehrhart.cli", fromlist=["CLAIMS"]).CLAIMS)
    failed = [r.claim for r in reports if r.outcome != "pass"]
    assert not failed, failed
    report("verification driver: all CLI claims pass")
