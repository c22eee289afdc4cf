"""Dense univariate polynomial helpers (ascending coefficient lists).

The arithmetic helpers keep their input type, integers or ``Fraction``;
``interpolate`` is fraction-free, integer numerators over one denominator.
"""

from __future__ import annotations

from math import lcm, prod
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


def interpolate(xs: Sequence[int], ys: Sequence) -> tuple[list[int], int]:
    """The polynomial through ``(xs[i], ys[i])``, at distinct integer nodes,
    as ``(nums, den)``: ``sum(nums[i] * x**i) / den``, integer ``nums`` and
    ``den > 0``. Rational values are scaled to integers first; then the
    Lagrange form over the lcm of the node weights ``prod(x_i - x_j)``, by
    synthetic division: O(n^2) integer operations."""
    scale = lcm(*[y.denominator for y in ys])
    full = [1]  # prod(x - x_j), ascending
    for xj in xs:
        full = [-xj * full[0]] + [a - xj * b for a, b in zip(full, full[1:])] + [1]
    weights = [prod([xi - xj for xj in xs if xj != xi]) for xi in xs]
    den = lcm(*weights)
    nums = [0] * len(xs)
    for xi, y, w in zip(xs, ys, weights, strict=True):
        c, q = y.numerator * (scale // y.denominator) * (den // w), 0
        for t in range(len(xs), 0, -1):  # full / (x - xi), from the top
            q = full[t] + xi * q
            nums[t - 1] += c * q
    return nums, den * scale
