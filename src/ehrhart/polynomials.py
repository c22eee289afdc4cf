"""Dense univariate polynomial helpers (ascending coefficient lists).

The arithmetic helpers keep their input type: integer coefficients give
integer results and ``Fraction`` coefficients give ``Fraction`` results.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def poly_mul(p: Sequence, q: Sequence) -> list:
    if not p or not q:
        return []
    out = [0 * p[0] * q[0]] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_trim(p: Sequence) -> list:
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return out


def interpolate(xs: Sequence, ys: Sequence) -> list:
    """Exact interpolation through distinct nodes, as ``Fraction``
    coefficients: Newton divided differences, then the Newton form
    expanded by Horner's rule, both in O(n^2) operations."""
    if len(xs) != len(ys):
        raise ValueError("node/value length mismatch")
    n = len(xs)
    diffs = [Fraction(y) for y in ys]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - level])
    out: list = diffs[n - 1:]
    for i in range(n - 2, -1, -1):  # out <- out * (x - xs[i]) + diffs[i]
        out = [diffs[i] - xs[i] * out[0]] + [
            lo - xs[i] * hi for lo, hi in zip(out, out[1:])
        ] + [out[-1]]
    return out
