"""Dense univariate polynomial helpers (ascending coefficient lists)."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def poly_neg(p: Sequence) -> list:
    return [-Fraction(c) for c in p]


def poly_mul(p: Sequence, q: Sequence) -> list:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        a = Fraction(a)
        for j, b in enumerate(q):
            out[i + j] += a * Fraction(b)
    return out


def poly_trim(p: Sequence) -> list:
    out = [Fraction(c) for c in p]
    while out and out[-1] == 0:
        out.pop()
    return out


def interpolate(xs: Sequence, ys: Sequence) -> list:
    """Exact Lagrange interpolation through distinct nodes."""
    if len(xs) != len(ys):
        raise ValueError("node/value length mismatch")
    out: list = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = [Fraction(1)]
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = poly_mul(num, [-Fraction(xj), Fraction(1)])
            den *= Fraction(xi) - Fraction(xj)
        w = Fraction(yi) / den
        for t, c in enumerate(num):
            out[t] += w * c
    return out
