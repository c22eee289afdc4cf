"""Quasi-polynomials: fitting, minimal periods and equivalence.

A quasi-polynomial of degree ``n`` and modulus ``D`` is
``f(k) = sum_i c[i][k mod D] * k**i`` with rational coefficient tables.
``fit`` reconstructs one from exact dilate counts by interpolating each
residue class separately, as integer numerators over one denominator,
so its checks run on integers. It never samples ``k = 0``, so no convention
for the count at 0 ever enters the fit. For a convex body the counter is
also defined at negative ``k`` by Ehrhart-Macdonald reciprocity, and
``fit(..., two_sided=True)`` takes its nodes from ``1, -1, 2, -2, ...``,
which about halves the largest dilate it has to count. Two
quasi-polynomials are *equivalent* when their difference is an honest
polynomial (all periodic parts cancel); equivalent functions share a
period sequence, which is the fact the verification suite leans on.
Taking a pyramid is a transform of the generating function, not of the
quasi-polynomial: see ``series.pyramid_transform``.

Period sequences are reported constant term first: position ``i`` holds
the minimal period of the coefficient of ``k**i``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Callable

from .errors import VerificationFailed
from .polynomials import interpolate

Counter = Callable[[int], object]  # k != 0 -> exact count or rational value


class QuasiPolynomial(namedtuple("QuasiPolynomial", "degree modulus coeffs")):
    """``coeffs[i][r]`` is the coefficient of ``k**i`` on ``k = r (mod modulus)``."""

    __slots__ = ()

    def __new__(cls, degree: int, modulus: int, coeffs: tuple[tuple[Fraction, ...], ...]):
        if degree < 0 or modulus < 1:
            raise ValueError("degree must be >= 0 and modulus >= 1")
        if len(coeffs) != degree + 1:
            raise ValueError("need one coefficient row per power")
        if any(len(row) != modulus for row in coeffs):
            raise ValueError("each coefficient row needs one entry per residue")
        return tuple.__new__(cls, (degree, modulus, coeffs))

    def evaluate(self, k: int) -> Fraction:
        r = k % self.modulus
        acc = Fraction(0)
        power = 1
        for i in range(self.degree + 1):
            acc += self.coeffs[i][r] * power
            power *= k
        return acc

    def coefficient(self, i: int, k: int) -> Fraction:
        """Value of the coefficient function of ``k**i`` at argument ``k``."""
        if not 0 <= i <= self.degree:
            return Fraction(0)
        return self.coeffs[i][k % self.modulus]


def _dilates(two_sided: bool):
    """Candidate sample points in the order ``fit`` takes them."""
    k = 1
    while True:
        yield k
        if two_sided:
            yield -k
        k += 1


def fit(
    counter: Counter,
    degree: int,
    modulus: int,
    two_sided: bool = False,
) -> QuasiPolynomial:
    """Reconstruct the quasi-polynomial behind ``counter`` exactly.

    Candidates are walked in the order ``1, 2, 3, ...``, or with
    ``two_sided`` in the order ``1, -1, 2, -2, ...`` (the counter must then
    be defined at negative ``k``); ``0`` is never used. Each residue ``r``
    mod ``D`` takes the first ``degree + 1`` candidates ``k = r (mod D)``
    and interpolates its polynomial through them, fraction-free: integers
    ``n_i`` over one ``den``. Every fit is then verified: the next
    ``degree + 2`` candidates whose ``|k|`` exceeds every interpolation
    node are checked as ``sum(n_i * k**i) == den * L(k)``, and any
    mismatch raises :class:`VerificationFailed`, which signals a wrong
    degree or modulus.
    """
    if degree < 0 or modulus < 1:
        raise ValueError("degree must be >= 0 and modulus >= 1")
    nodes: list[list[int]] = [[] for _ in range(modulus)]
    taken = 0
    for k in _dilates(two_sided):
        residue = nodes[k % modulus]
        if len(residue) <= degree:
            residue.append(k)
            taken += 1
            if taken == (degree + 1) * modulus:
                break
    forms = [interpolate(xs, [counter(x) for x in xs]) for xs in nodes]
    table = tuple(tuple(Fraction(nums[i], den) for nums, den in forms) for i in range(degree + 1))
    top = max(abs(k) for xs in nodes for k in xs)
    fresh = (k for k in _dilates(two_sided) if abs(k) > top)
    for _, k in zip(range(degree + 2), fresh):
        value, (nums, den) = counter(k), forms[k % modulus]
        fitted = sum(n * k**i for i, n in enumerate(nums))
        if fitted * value.denominator != den * value.numerator:
            raise VerificationFailed(
                f"fitted value {Fraction(fitted, den)} != sample {value} at k={k}; "
                "degree or modulus is wrong"
            )
    return QuasiPolynomial(degree, modulus, table)


def coefficient_period(f: QuasiPolynomial, i: int) -> int:
    """Minimal period of the coefficient function of ``k**i``."""
    if not 0 <= i <= f.degree:
        raise ValueError(f"coefficient index {i} out of range")
    row = f.coeffs[i]
    for d in range(1, f.modulus + 1):
        if f.modulus % d:
            continue
        if all(row[r] == row[r % d] for r in range(f.modulus)):
            return d
    return f.modulus


def period_sequence(f: QuasiPolynomial) -> tuple[int, ...]:
    """Minimal periods, constant coefficient first: ``(p_0, ..., p_n)``."""
    return tuple(coefficient_period(f, i) for i in range(f.degree + 1))


def equivalent(f: QuasiPolynomial, g: QuasiPolynomial) -> bool:
    """True when ``f - g`` is a polynomial, i.e. all periodic parts agree.

    Degrees may differ; missing coefficients are treated as zero.
    """
    span = math.lcm(f.modulus, g.modulus)
    for i in range(max(f.degree, g.degree) + 1):
        deltas = {f.coefficient(i, r) - g.coefficient(i, r) for r in range(span)}
        if len(deltas) > 1:
            return False
    return True


def negate(f: QuasiPolynomial) -> QuasiPolynomial:
    return QuasiPolynomial(
        f.degree, f.modulus, tuple(tuple(-c for c in row) for row in f.coeffs)
    )


def to_dict(f: QuasiPolynomial) -> dict:
    return {
        "degree": f.degree,
        "modulus": f.modulus,
        "coeffs": [[str(c) for c in row] for row in f.coeffs],
        "period_sequence": list(period_sequence(f)),
    }
