"""Lattice-point enumeration kernel.

Counts integer points in an axis-aligned box subject to integer linear
inequalities ``a . x <= c``. The walk first orders the coordinates by box
width, narrowest first (ties by index), so the widest coordinate comes
last; a count does not depend on the order, only its cost does. It then
fixes coordinates in that order, keeping one remaining offset
``c - a . (fixed part)`` per inequality. At every level each row's test
``a_j * x + (least contribution of the later coordinates) <= remaining``
is monotone in ``x``, so the feasible values of the coordinate form one
interval, computed exactly by floor division; the walk visits only that
interval, and the last coordinate's interval is counted, not iterated.
It runs on Python integers and therefore never overflows. A coordinate
the box fixes (``lo == hi``) is substituted into the offsets, not walked.

The walk's cost is its nodes: a node is one value of a non-last
coordinate that the walk visits. Each kernel takes a budget of nodes,
subtracts every interval it is about to walk (for the union kernel, the
hull of the live systems' intervals) before walking it, and raises
``BudgetExceeded`` once the budget is overdrawn; the last coordinate
costs nothing, so a 1-D count never touches the budget. A walk never
visits more nodes than its box has points, so a budget of box points
never refuses a count.

``count_box`` counts one system, and ``walk_box`` also returns the nodes
its walk visited; ``count_box_union`` counts the points lying in at least
one of several systems. The test suite checks both
against a point-by-point scan of the box.
"""

from __future__ import annotations

from typing import Sequence

from .errors import BudgetExceeded

# One level of the walk: the coordinate's box bounds, its column of
# coefficients, and ``(row, |a|, minrest)`` for the rows whose coefficient
# ``a`` is positive, then negative; ``minrest`` is the least contribution
# of the later coordinates to that row.
Level = tuple[int, int, list[int], tuple, tuple]


def _levels(
    lo: Sequence[int], hi: Sequence[int], normals: Sequence[Sequence[int]], offsets: Sequence[int]
) -> tuple[list[Level], list[int]] | None:
    """Walk order, per-level rows and root offsets of one system; None when
    no box point satisfies it. The root offsets have the fixed coordinates
    substituted. Rows with a zero coefficient at a level need no test
    there: the level above, or this root check, already made it."""
    rem = [
        c - sum(a * l for a, l, h in zip(row, lo, hi) if l == h) for row, c in zip(normals, offsets)
    ]
    order = sorted((j for j in range(len(lo)) if lo[j] < hi[j]), key=lambda j: (hi[j] - lo[j], j))
    minrest = [0] * len(normals)
    levels = []
    for j in reversed(order):
        col = [row[j] for row in normals]
        pos = tuple((i, a, minrest[i]) for i, a in enumerate(col) if a > 0)
        neg = tuple((i, -a, minrest[i]) for i, a in enumerate(col) if a < 0)
        levels.append((lo[j], hi[j], col, pos, neg))
        minrest = [r + min(a * lo[j], a * hi[j]) for r, a in zip(minrest, col)]
    if any(r > c for r, c in zip(minrest, rem)):
        return None
    return levels[::-1], rem


def _clip(level: Level, rem: list[int]) -> tuple[int, int]:
    """Values ``x`` of the level's coordinate that every row still allows."""
    x_lo, x_hi, _, pos, neg = level
    for i, a, mr in pos:
        q = (rem[i] - mr) // a
        if q < x_hi:
            x_hi = q
    for i, b, mr in neg:
        q = -((rem[i] - mr) // b)  # ceil((rem - mr) / -b)
        if q > x_lo:
            x_lo = q
    return x_lo, x_hi


def count_box(
    lo: Sequence[int],
    hi: Sequence[int],
    normals: Sequence[Sequence[int]],
    offsets: Sequence[int],
    budget: int,
) -> int:
    """Number of integer ``x`` with ``lo <= x <= hi`` and ``normals @ x <= offsets``;
    raises ``BudgetExceeded`` before the walk visits a ``budget + 1``-th node."""
    return walk_box(lo, hi, normals, offsets, budget)[0]


def walk_box(
    lo: Sequence[int],
    hi: Sequence[int],
    normals: Sequence[Sequence[int]],
    offsets: Sequence[int],
    budget: int,
) -> tuple[int, int]:
    """``count_box``'s count and the number of nodes its walk visited."""
    if any(l > h for l, h in zip(lo, hi)):
        return 0, 0
    root = _levels(lo, hi, normals, offsets)
    if root is None:
        return 0, 0
    levels, rem = root
    if not levels:
        return 1, 0
    last = len(levels) - 1
    left = budget

    def walk(j: int, rem: list[int]) -> int:
        nonlocal left
        x_lo, x_hi = _clip(levels[j], rem)
        if x_hi < x_lo:
            return 0
        if j == last:
            return x_hi - x_lo + 1
        left -= x_hi - x_lo + 1
        if left < 0:
            raise BudgetExceeded(f"the walk visits more than {budget} nodes")
        col = levels[j][2]
        total = 0
        for x in range(x_lo, x_hi + 1):
            total += walk(j + 1, [r - a * x for r, a in zip(rem, col)])
        return total

    found = walk(0, rem)
    return found, budget - left


def count_box_union(
    lo: Sequence[int],
    hi: Sequence[int],
    systems: Sequence[tuple[Sequence[Sequence[int]], Sequence[int]]],
    budget: int,
) -> int:
    """Points of the box lying in at least one of the inequality systems.

    Each system is an ``(normals, offsets)`` pair over the same box. Every
    level clips one interval per live system and walks their hull, passing
    a system down only inside its own interval; the last coordinate's
    intervals are merged, so a point in several pieces is counted once.
    Raises ``BudgetExceeded`` before the walk visits a ``budget + 1``-th node.
    """
    if any(l > h for l, h in zip(lo, hi)):
        return 0
    roots = [root for normals, offsets in systems if (root := _levels(lo, hi, normals, offsets))]
    if not roots:
        return 0
    last = len(roots[0][0]) - 1
    if last < 0:
        return 1
    left = budget

    def walk(j: int, live: list[tuple[list[Level], list[int]]]) -> int:
        nonlocal left
        spans = []
        for levels, rem in live:
            x_lo, x_hi = _clip(levels[j], rem)
            if x_hi >= x_lo:
                spans.append((x_lo, x_hi, levels, rem))
        if not spans:
            return 0
        spans.sort(key=lambda s: s[0])
        if j == last:
            total = 0
            cur_lo, cur_hi = spans[0][:2]
            for s_lo, s_hi, _, _ in spans[1:]:
                if s_lo > cur_hi + 1:
                    total += cur_hi - cur_lo + 1
                    cur_lo, cur_hi = s_lo, s_hi
                else:
                    cur_hi = max(cur_hi, s_hi)
            return total + cur_hi - cur_lo + 1
        first, top = spans[0][0], max(s[1] for s in spans)
        left -= top - first + 1
        if left < 0:
            raise BudgetExceeded(f"the walk visits more than {budget} nodes")
        total = 0
        for x in range(first, top + 1):
            nxt = [
                (levels, [r - a * x for r, a in zip(rem, levels[j][2])])
                for x_lo, x_hi, levels, rem in spans
                if x_lo <= x <= x_hi
            ]
            if nxt:
                total += walk(j + 1, nxt)
        return total

    return walk(0, roots)
