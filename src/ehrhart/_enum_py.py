"""Lattice-point enumeration kernel.

Counts integer points in an axis-aligned box subject to integer linear
inequalities ``a . x <= c``. The walk fixes coordinates left to right,
keeping one running partial sum per inequality, prunes subtrees whose
best-case remainder already violates a constraint, and resolves the last
coordinate by exact interval clipping instead of iterating it. It runs on
Python integers and therefore never overflows.

``count_box`` counts one system; ``count_box_union`` counts the points
lying in at least one of several systems. The test suite checks both
against a point-by-point scan of the box.
"""

from __future__ import annotations

from typing import Sequence


def count_box(
    lo: Sequence[int],
    hi: Sequence[int],
    normals: Sequence[Sequence[int]],
    offsets: Sequence[int],
) -> int:
    """Number of integer ``x`` with ``lo <= x <= hi`` and ``normals @ x <= offsets``."""
    n = len(lo)
    m = len(normals)
    if any(l > h for l, h in zip(lo, hi)):
        return 0

    # minrest[i][j]: smallest possible contribution of coordinates >= j to row i
    minrest = [[0] * (n + 1) for _ in range(m)]
    for i in range(m):
        for j in range(n - 1, -1, -1):
            a = normals[i][j]
            minrest[i][j] = minrest[i][j + 1] + min(a * lo[j], a * hi[j])

    def last_coord(partial: list[int]) -> int:
        x_lo, x_hi = lo[n - 1], hi[n - 1]
        for i in range(m):
            a = normals[i][n - 1]
            rem = offsets[i] - partial[i]
            if a > 0:
                q = rem // a
                if q < x_hi:
                    x_hi = q
            elif a < 0:
                q = -(rem // -a)  # ceil(rem / a) for negative a
                if q > x_lo:
                    x_lo = q
            elif rem < 0:
                return 0
        return x_hi - x_lo + 1 if x_hi >= x_lo else 0

    def walk(j: int, partial: list[int]) -> int:
        if j == n - 1:
            return last_coord(partial)
        total = 0
        nxt = [partial[i] + normals[i][j] * lo[j] for i in range(m)]
        for x in range(lo[j], hi[j] + 1):
            if x > lo[j]:
                for i in range(m):
                    nxt[i] += normals[i][j]
            if all(nxt[i] + minrest[i][j + 1] <= offsets[i] for i in range(m)):
                total += walk(j + 1, list(nxt))
        return total

    if n == 0:
        return 1 if all(c >= 0 for c in offsets) else 0
    return walk(0, [0] * m)


def count_box_union(
    lo: Sequence[int],
    hi: Sequence[int],
    systems: Sequence[tuple[Sequence[Sequence[int]], Sequence[int]]],
) -> int:
    """Points of the box lying in at least one of the inequality systems.

    Each system is an ``(normals, offsets)`` pair over the same box. Rows
    are resolved by merging the per-system intervals for the last
    coordinate, so a point in several pieces is counted once.
    """
    n = len(lo)
    if any(l > h for l, h in zip(lo, hi)):
        return 0
    mats = []
    for normals, offsets in systems:
        m = len(normals)
        minrest = [[0] * (n + 1) for _ in range(m)]
        for i in range(m):
            for j in range(n - 1, -1, -1):
                a = normals[i][j]
                minrest[i][j] = minrest[i][j + 1] + min(a * lo[j], a * hi[j])
        mats.append((normals, offsets, minrest, m))

    def last_intervals(partials: list[list[int] | None]) -> int:
        spans = []
        for (normals, offsets, _, m), partial in zip(mats, partials):
            if partial is None:
                continue
            x_lo, x_hi = lo[n - 1], hi[n - 1]
            dead = False
            for i in range(m):
                a = normals[i][n - 1]
                rem = offsets[i] - partial[i]
                if a > 0:
                    q = rem // a
                    if q < x_hi:
                        x_hi = q
                elif a < 0:
                    q = -(rem // -a)
                    if q > x_lo:
                        x_lo = q
                elif rem < 0:
                    dead = True
                    break
            if not dead and x_hi >= x_lo:
                spans.append((x_lo, x_hi))
        if not spans:
            return 0
        spans.sort()
        total = 0
        cur_lo, cur_hi = spans[0]
        for s_lo, s_hi in spans[1:]:
            if s_lo > cur_hi + 1:
                total += cur_hi - cur_lo + 1
                cur_lo, cur_hi = s_lo, s_hi
            else:
                cur_hi = max(cur_hi, s_hi)
        return total + cur_hi - cur_lo + 1

    def walk(j: int, partials: list[list[int] | None]) -> int:
        if j == n - 1:
            return last_intervals(partials)
        total = 0
        for x in range(lo[j], hi[j] + 1):
            nxt: list[list[int] | None] = []
            alive = False
            for (normals, offsets, minrest, m), partial in zip(mats, partials):
                if partial is None:
                    nxt.append(None)
                    continue
                upd = [partial[i] + normals[i][j] * x for i in range(m)]
                if all(upd[i] + minrest[i][j + 1] <= offsets[i] for i in range(m)):
                    nxt.append(upd)
                    alive = True
                else:
                    nxt.append(None)
            if alive:
                total += walk(j + 1, nxt)
        return total

    return walk(0, [[0] * m for (_, _, _, m) in mats])
