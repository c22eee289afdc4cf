"""Dilate-count generating functions as exact rational series.

A series is stored in the normal form ``N(t) / (1 - t^D)^m`` with an
explicit numerator polynomial. For a quasi-polynomial of degree ``n``
and modulus ``D`` the canonical denominator is ``(1 - t^D)^(n+1)``; the
numerator then has degree below ``D * (n + 1)``, because on each residue
class modulo ``D`` the values form a polynomial of degree at most ``n``,
whose series over ``(1 - t^D)^(n+1)`` has a numerator of degree at most
``n`` in ``t^D``. Taking a pyramid over the underlying body divides the
series by ``1 - t``, realized here by multiplying the numerator by
``1 + t + ... + t^(D-1)`` and raising the denominator power.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .polynomials import poly_mul, poly_trim
from .quasipoly import QuasiPolynomial, equivalent, fit


class EhrhartSeries(namedtuple("EhrhartSeries", "numerator modulus power")):
    """Ascending ``numerator`` coefficients over ``(1 - t^modulus)^power``."""

    __slots__ = ()

    def __new__(cls, numerator: tuple[Fraction, ...], modulus: int, power: int):
        if modulus < 1 or power < 1:
            raise ValueError("modulus and power must be positive")
        return tuple.__new__(cls, (numerator, modulus, power))


def from_quasipolynomial(f: QuasiPolynomial) -> EhrhartSeries:
    """The series ``sum_k f(k) t^k`` over the denominator ``(1-t^D)^(n+1)``.

    The numerator is ``(1 - t^D)^(n+1)`` times the series of ``f``, of
    which only the terms below ``t^(D*(n+1))`` can be nonzero; the value at
    0 comes from evaluating the residue-0 polynomial, which is 1 for
    genuine dilate counts.
    """
    D = f.modulus
    power = f.degree + 1
    values = [f.evaluate(k) for k in range(D * power)]
    coeffs = [
        sum((-1) ** j * math.comb(power, j) * values[k - j * D] for j in range(k // D + 1))
        for k in range(D * power)
    ]
    return EhrhartSeries(tuple(poly_trim(coeffs)), D, power)


def expansion(series: EhrhartSeries, k_max: int) -> list[Fraction]:
    """Power-series coefficients at ``t^0 .. t^k_max``."""
    D, m = series.modulus, series.power
    out = []
    for k in range(k_max + 1):
        acc = Fraction(0)
        for j in range(k // D + 1):
            idx = k - j * D
            if idx < len(series.numerator):
                acc += math.comb(m - 1 + j, m - 1) * series.numerator[idx]
        out.append(acc)
    return out


def pyramid_transform(series: EhrhartSeries, i: int) -> EhrhartSeries:
    """Divide by ``(1 - t)^i``: the series of an ``i``-fold pyramid."""
    if i < 1:
        raise ValueError("pyramid transform needs i >= 1")
    ones = [Fraction(1)] * series.modulus
    numerator = list(series.numerator)
    for _ in range(i):
        numerator = poly_mul(numerator, ones)
    return EhrhartSeries(tuple(numerator), series.modulus, series.power + i)


def refit(series: EhrhartSeries) -> QuasiPolynomial:
    """Recover the quasi-polynomial from the expansion coefficients."""
    degree = series.power - 1
    D = series.modulus
    need = D * (degree + 1) + degree + 2
    values = expansion(series, need)
    return fit(lambda k: values[k], degree, D)


def series_equivalent(first: EhrhartSeries, second: EhrhartSeries) -> bool:
    """Equivalence of the underlying quasi-polynomials (difference is a polynomial)."""
    return equivalent(refit(first), refit(second))


def to_dict(series: EhrhartSeries) -> dict:
    return {
        "numerator": [
            int(c) if c.denominator == 1 else str(c) for c in series.numerator
        ],
        "modulus": series.modulus,
        "power": series.power,
    }
