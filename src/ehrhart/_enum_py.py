"""Lattice-point enumeration kernel.

Counts the integer points of an axis-aligned box that satisfy at least
one of several systems of integer linear inequalities ``a . x <= c``;
``count_box`` is the case of one system, ``count_box_union`` that of
several, and ``walk_box``, the one walk behind both, also returns what it
charged. The walk first orders the coordinates by box width, narrowest
first (ties by index), so the widest coordinate comes last; a count does
not depend on the order, only its cost does. It then fixes coordinates in
that order, keeping per live system one remaining offset
``c - a . (fixed part)`` per inequality. At every level each row's test
``a_j * x + (least contribution of the later coordinates) <= remaining``
is monotone in ``x``, so each system's feasible values of the coordinate
form one interval, computed exactly by floor division. It runs on Python
integers and therefore never overflows. A coordinate the box fixes
(``lo == hi``) is substituted into the offsets, not walked.

One system, be it a body, an intersection of pieces or a piece alone,
is counted as the product of its ``coordinate_blocks``, which no row
couples. If a row of some block holds at no box point, the count is 0
before any walk; else each block is walked alone, under the budget the
earlier ones left. A block of one coordinate is one clip, not a walk.

Several systems are walked together, never split. Each level is cut at
the start of every live system's interval and after its end. A stretch
between two cuts where one system is live goes to that system's own
walk; one where several are is walked value by value, or at the last
coordinate adds its width, so a point in several systems is counted
once. Gaps are neither walked nor charged.

A 2-D slice over the last two coordinates ``(x, y)`` in which a single
system is live, over more than one value of ``x``, is counted in closed
form. The system's rows without ``y`` have clipped ``x``; every other
row, and each side of the box in ``y``, bounds ``y`` above or below by a
line in ``x``. The least upper line and the greatest lower line on the
integers of ``x`` are piecewise linear, found with integer
cross-multiplication only. On each piece of their merge, one linear
inequality keeps the ``x`` where the upper bound ``U`` reaches the lower
bound ``L``, and there the column counts are ``floor(U) - ceil(L) + 1``,
summed by ``floor_sum``. Elsewhere the walk reaches the last coordinate
and counts its interval.

A walk needs per level the coordinate's column and the rows split by the
sign of their coefficient, and at the second-to-last level the slice's
lines. These depend only on the rows and the walk order, so ``Rows``, a
system's rows, keeps one such skeleton per order it is walked in; a body
counted at many dilates builds it once per order (the order follows the
box, so it may change with ``k``). ``Rows`` likewise keeps its blocks,
each with its own ``Rows``. Per count the walk fills in only the box
bounds, the root offsets and each row's least contribution of the later
coordinates.

One walk counts each sub-walk once. Below the root and above the last
level, what the walk of a single live system finds is a function of the
remaining offsets of the rows it reads, those with a nonzero coefficient
at its level or a later one: within one walk the box, the order and
every ``minrest`` are fixed, and every clip and slice below reads only
those offsets. So ``walk_box`` keeps, for the length of one call, the
count per system, level and those offsets, and a repeat adds the count;
nothing outlives the call. A level is keyed only where a repeat can
happen, where the columns of the earlier coordinates on those rows are
linearly dependent; the skeleton holds the rows, or None. A stretch of a
union's level where a system is live alone over only part of its
interval is not the whole sub-walk from that level, so it neither reads
nor writes the memo there.

A keyed sub-walk recurs along a line when, on the rows it reads, every
earlier column is an integer multiple of its parent level's column
``col``: every prefix then leaves those rows the offsets ``base - m *
col`` for one ``base`` per system, and the values ``x = first..top`` of
the parent read consecutive positions ``m``. The skeleton marks such a
parent with one row on which ``col`` is nonzero, which tells the
position. For each line ``walk_box`` keeps, again for one call, prefix
sums of the counts over one run of consecutive positions. A range of the
parent walks, through the keyed path, only the positions it adds to the
run, and its count is the difference of two prefix sums. A range that
would leave a gap on its line walks each position as before. So a family
whose apex coordinates enter the normals with equal columns loops over
their widths, not over their product, and every count is still that of
the plain walk.

The walk takes a budget and raises ``BudgetExceeded`` once its charges
overdraw it. It has one charge rule: one node per sub-walk entered below
the root (a value of a walked coordinate, a position a line walks, a
repeat taken from the memo), and one per merged envelope piece of a
slice counted in closed form, at most one per value of ``x``. Nothing
else is charged, not even a position summed from prefix sums, so no walk
charges more than the plain walk, a 1-D count never touches the budget,
a charge never exceeds the points of the box, and a budget of box points
never refuses a count.

The test suite checks the walk against a point-by-point scan of the box
and, on wider boxes, against a plain row-by-row walk.
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from operator import gt
from typing import Sequence

from .errors import BudgetExceeded
from .linalg import independent_rows

DEFAULT_BUDGET = 10**9  # a walk's budget when none is given; hulls and face lattices always

# One level of the walk: the coordinate's box bounds, its column of
# coefficients, ``(row, |a|, minrest)`` for the rows whose coefficient
# ``a`` is positive, then negative (``minrest`` is the least contribution
# of the later coordinates to that row), at the second-to-last level only
# the lines of a slice over it and the last coordinate, where a sub-walk
# from this level can recur, the rows it reads (else None), and, where the
# keyed sub-walks below this level lie on one line, a row on which this
# level's column is nonzero (else None).
Level = tuple[
    int, int, list[int], list, list, tuple | None, tuple[int, ...] | None, int | None
]


def _skeleton(normals: Sequence[Sequence[int]], order: tuple[int, ...]) -> tuple[list, list]:
    """What the levels of a walk in ``order`` take from the rows alone: the
    nonzero ``(row, a)`` of each coordinate the box fixes, and per level,
    in walk order, the coordinate, its column, ``(row, |a|)`` for the rows
    whose coefficient ``a`` is positive, then negative, the slice lines
    (None but at the second-to-last level), the rows a sub-walk from that
    level reads (None where it cannot recur), and the row that tells the
    position of the next level's sub-walk on its line (None where they lie
    on none)."""
    walked = set(order)
    fixed = [
        (j, [(i, row[j]) for i, row in enumerate(normals) if row[j]])
        for j in range(len(normals[0]) if normals else 0)
        if j not in walked
    ]
    levels = []
    for j in order:
        col = [row[j] for row in normals]
        pos = tuple((i, a) for i, a in enumerate(col) if a > 0)
        neg = tuple((i, -a) for i, a in enumerate(col) if a < 0)
        levels.append([j, col, pos, neg, None, None, None])
    if len(levels) > 1:
        # the rows of a slice over (x, y), y the last coordinate: an upper
        # line for y for each positive coefficient of y, a lower one for
        # each negative one, as (coefficient of x, |coefficient of y|,
        # row); rows without y clip x
        col = levels[-2][1]
        y_pos, y_neg = levels[-1][2:4]
        levels[-2][4] = [(col[i], b, i) for i, b in y_pos], [(col[i], b, i) for i, b in y_neg]
    # the rows a sub-walk from level t reads are those with a nonzero
    # coefficient there or later. Between the root and the last level, it
    # recurs where two prefixes of t values leave those rows the same
    # offsets, which needs the prefix's t columns, on those rows, to be
    # linearly dependent; elsewhere every key would be new
    reads = set()
    for t in range(len(levels) - 1, 0, -1):
        reads.update(i for i, _ in levels[t][2] + levels[t][3])
        rows = sorted(reads)
        prefix = [[normals[i][j] for i in rows] for j in order[:t]]
        if t < len(levels) - 1 and len(independent_rows(prefix)) < t:
            levels[t][5] = tuple(rows)
            levels[t - 1][6] = _line(rows, prefix)
    return fixed, levels


def _line(rows: list[int], prefix: list[list[int]]) -> int | None:
    """A row on which the last of the ``prefix`` columns is nonzero, when
    every earlier column is an integer multiple of the last one (on
    ``rows``); else None. Then every prefix of values leaves the offsets
    of ``rows`` on one line, stepped by the last column."""
    *earlier, step = prefix
    p = next((i for i, a in enumerate(step) if a), None)
    if p is None:
        return None
    for col in earlier:
        m, r = divmod(col[p], step[p])
        if r or any(a != m * b for a, b in zip(col, step)):
            return None
    return rows[p]


def coordinate_blocks(rows: Sequence[Sequence]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The finest split of the coordinates that no row couples: each block's
    coordinates and the indices of the rows that read them, by least
    coordinate. A body whose facet rows split into several blocks is the
    product of its projections onto them. A coordinate no row reads, or a
    row that reads none, is a block of its own."""
    blocks = [({j}, []) for j in range(len(rows[0]) if rows else 0)]
    for i, row in enumerate(rows):
        cols, members = {j for j, a in enumerate(row) if a}, [i]
        for block in [b for b in blocks if b[0] & cols]:
            blocks.remove(block)
            cols |= block[0]
            members += block[1]
        blocks.append((cols, members))
    return sorted((tuple(sorted(cols)), tuple(sorted(members))) for cols, members in blocks)


class Rows(tuple):
    """The integer rows of one system, keeping its ``blocks`` and the
    skeleton of every walk order they are walked in: rows counted at many
    dilates split and build each skeleton once. ``walk_box`` wraps plain
    row lists once per call."""

    def __new__(cls, rows: Sequence[Sequence[int]]) -> "Rows":
        self = super().__new__(cls, map(tuple, rows))
        self.skeletons = {}
        return self

    @cached_property
    def blocks(self) -> list[tuple[tuple[int, ...], tuple[int, ...], "Rows"]]:
        """The ``coordinate_blocks`` of the rows, each with its own rows
        restricted to its coordinates; a single block is these rows
        themselves, not a copy."""
        split = coordinate_blocks(self)
        if len(split) == 1:
            return [(*split[0], self)]
        return [
            (cols, members, Rows([[self[i][j] for j in cols] for i in members]))
            for cols, members in split
        ]

    def skeleton(self, order: tuple[int, ...]) -> tuple[list, list]:
        found = self.skeletons.get(order)
        if found is None:
            found = self.skeletons[order] = _skeleton(self, order)
        return found


def _levels(
    lo: Sequence[int], hi: Sequence[int], normals: Rows, offsets: Sequence[int]
) -> tuple[list[Level], list[int]] | None:
    """Per-level rows and root offsets of one system, in walk order; None
    when no box point satisfies it. The root offsets have the fixed
    coordinates substituted. Rows with a zero coefficient at a level need
    no test there: the level above, or this root check, already made it."""
    walked = [j for j in range(len(lo)) if lo[j] < hi[j]]
    order = tuple(sorted(walked, key=lambda j: (hi[j] - lo[j], j)))
    fixed, skeleton = normals.skeleton(order)
    rem = list(offsets)
    for j, nonzero in fixed:
        for i, a in nonzero:
            rem[i] -= a * lo[j]
    minrest = [0] * len(rem)
    levels = []
    for j, col, pos, neg, lines, reads, line in reversed(skeleton):
        x_lo, x_hi = lo[j], hi[j]
        levels.append((
            x_lo,
            x_hi,
            col,
            [(i, a, minrest[i]) for i, a in pos],
            [(i, b, minrest[i]) for i, b in neg],
            lines,
            reads,
            line,
        ))
        for i, a in pos:
            minrest[i] += a * x_lo
        for i, b in neg:
            minrest[i] -= b * x_hi
    if any(map(gt, minrest, rem)):
        return None
    return levels[::-1], rem


def _clip(level: Level, rem: list[int]) -> tuple[int, int]:
    """Values ``x`` of the level's coordinate that every row still allows."""
    x_lo, x_hi, _, pos, neg, _, _, _ = level
    for i, a, mr in pos:
        q = (rem[i] - mr) // a
        if q < x_hi:
            x_hi = q
    for i, b, mr in neg:
        q = -((rem[i] - mr) // b)  # ceil((rem - mr) / -b)
        if q > x_lo:
            x_lo = q
    return x_lo, x_hi


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """``sum(floor((a*i + b) / m) for i in range(n))`` for ``m > 0`` and any
    signs of ``a`` and ``b``, in O(log m) steps (the AtCoder Library's
    Euclid-like reduction)."""
    total = 0
    while n > 0:
        total += n * (n - 1) // 2 * (a // m) + n * (b // m)
        a, b = a % m, b % m
        top = a * n + b
        if top < m:
            break
        # count the lattice points under the line from the other axis
        n, b, m, a = top // m, top % m, a, m
    return total


def _envelope(lines: list[tuple[int, int, int]], x_lo: int, x_hi: int) -> list:
    """Pieces of the least of the lines ``(c - a*x) / b`` (``b > 0``) on the
    integers ``x_lo..x_hi``: ``(start, a, b, c)`` with increasing starts,
    the first at ``x_lo``, each line least from its start to the next one.
    Of lines equal at a start, the piece takes the one falling fastest,
    which stays least to the right. Integer cross-multiplication only."""
    x = x_lo
    a, b, c = lines[0]
    v = c - a * x
    for a2, b2, c2 in lines:
        v2 = c2 - a2 * x
        if v2 * b < v * b2 or (v2 * b == v * b2 and a2 * b > a * b2):
            a, b, c, v = a2, b2, c2, v2
    pieces = [(x, a, b, c)]
    while True:
        # the first integer where a faster-falling line drops below the
        # current one; of the lines that do so there, the least takes over
        x = x_hi + 1
        for a2, b2, c2 in lines:
            d = a2 * b - a * b2
            if d > 0:
                t = (c2 * b - c * b2) // d + 1
                if t < x:
                    x, line = t, (a2, b2, c2)
                elif t == x and x <= x_hi:
                    a3, b3, c3 = line
                    v2, v3 = (c2 - a2 * t) * b3, (c3 - a3 * t) * b2
                    if v2 < v3 or (v2 == v3 and a2 * b3 > a3 * b2):
                        line = (a2, b2, c2)
        if x > x_hi:
            return pieces
        a, b, c = line
        pieces.append((x, a, b, c))


def _plane(x_lo: int, x_hi: int, upper: list, lower: list) -> tuple[int, int]:
    """Points ``(x, y)`` with ``x_lo <= x <= x_hi``, ``y <= (c - a*x) / b`` for
    every ``upper`` line and ``-y <= (c - a*x) / b`` for every ``lower`` one
    (all ``b > 0``), and the number of pieces of the merged envelopes."""
    ups = _envelope(upper, x_lo, x_hi)
    downs = _envelope(lower, x_lo, x_hi)
    ups.append((x_hi + 1,))
    downs.append((x_hi + 1,))
    total = pieces = i = j = 0
    s = x_lo
    while s <= x_hi:
        _, au, bu, cu = ups[i]
        _, ad, bd, cd = downs[j]
        lo, hi = s, min(ups[i + 1][0], downs[j + 1][0]) - 1
        s = hi + 1
        pieces += 1
        if ups[i + 1][0] == s:
            i += 1
        if downs[j + 1][0] == s:
            j += 1
        # floor(U) - ceil(L) + 1 counts the column at x exactly where the
        # real bounds meet, U(x) >= L(x): x * slope <= offset
        slope, offset = bd * au + bu * ad, bd * cu + bu * cd
        if slope > 0:
            hi = min(hi, offset // slope)
        elif slope < 0:
            lo = max(lo, -(offset // -slope))
        elif offset < 0:
            continue
        n = hi - lo + 1
        if n > 0:
            total += floor_sum(n, bu, -au, cu - au * lo) + floor_sum(n, bd, -ad, cd - ad * lo) + n
    return total, pieces


def count_box(
    lo: Sequence[int],
    hi: Sequence[int],
    normals: Sequence[Sequence[int]],
    offsets: Sequence[int],
    budget: int,
) -> int:
    """Number of integer ``x`` with ``lo <= x <= hi`` and ``normals @ x <= offsets``;
    raises ``BudgetExceeded`` once the walk charges more than ``budget``."""
    return walk_box(lo, hi, [(normals, offsets)], budget)[0]


def count_box_union(
    lo: Sequence[int],
    hi: Sequence[int],
    systems: Sequence[tuple[Sequence[Sequence[int]], Sequence[int]]],
    budget: int,
) -> int:
    """Points of the box lying in at least one of the ``(normals, offsets)``
    systems; raises ``BudgetExceeded`` once the walk charges more than ``budget``."""
    return walk_box(lo, hi, systems, budget)[0]


def walk_box(
    lo: Sequence[int],
    hi: Sequence[int],
    systems: Sequence[tuple[Sequence[Sequence[int]], Sequence[int]]],
    budget: int,
) -> tuple[int, int]:
    """Points of the box lying in at least one of the ``(normals, offsets)``
    systems, and what the walk charged for them. One system is counted as
    the product of its blocks; several are walked together, unsplit, and
    none give ``(0, 0)``."""
    if any(map(gt, lo, hi)):
        return 0, 0
    systems = [(n if isinstance(n, Rows) else Rows(n), offsets) for n, offsets in systems]
    if len(systems) != 1:
        roots = [root for rows, offsets in systems if (root := _levels(lo, hi, rows, offsets))]
        if not roots:
            return 0, 0
        found, parts = 1, [roots]
    elif not systems[0][0]:
        return prod(h - l + 1 for l, h in zip(lo, hi)), 0
    else:
        # each block alone, after a root check of every block; one coordinate is one clip
        [(rows, offsets)] = systems
        found, parts = 1, []
        for cols, members, sub in rows.blocks:
            if len(cols) == 1:
                x_lo, x_hi = lo[cols[0]], hi[cols[0]]
                for (a,), i in zip(sub, members):
                    if a > 0:
                        x_hi = min(x_hi, offsets[i] // a)
                    else:
                        x_lo = max(x_lo, -(offsets[i] // -a))
                if x_hi < x_lo:
                    return 0, 0
                found *= x_hi - x_lo + 1
            elif root := _levels(
                [lo[j] for j in cols], [hi[j] for j in cols], sub, [offsets[i] for i in members]
            ):
                parts.append([root])
            else:
                return 0, 0
    left = budget
    memo = {}
    runs = {}

    def walk(j: int, live: list[tuple[list[Level], list[int]]]) -> int:
        # between two cuts the same systems are live: one walks its stretch
        # alone, several walk each value, or merge at the last level. An
        # empty clip makes no cut, which would split another's stretch
        nonlocal left
        if j:
            left -= 1
            if left < 0:
                raise BudgetExceeded(f"the walk charges more than its budget of {budget}")
        spans = [(*_clip(levels[j], rem), levels, rem) for levels, rem in live]
        spans = [s for s in spans if s[0] <= s[1]]
        cuts = sorted({s[0] for s in spans} | {s[1] + 1 for s in spans})
        total = 0
        for start, stop in zip(cuts, cuts[1:]):
            here = [s for s in spans if s[0] <= start and stop <= s[1] + 1]
            if len(here) == 1:
                # only a stretch over the whole clip is the sub-walk from here
                x_lo, x_hi, levels, rem = here[0]
                total += one(j, levels, rem, (start, stop - 1), x_lo == start and x_hi == stop - 1)
            elif here and j == len(live[0][0]) - 1:
                total += stop - start
            elif here:
                for x in range(start, stop):
                    total += walk(j + 1, [
                        (levels, [r - a * x for r, a in zip(rem, levels[j][2])])
                        for _, _, levels, rem in here
                    ])
        return total

    def one(
        j: int, levels: list[Level], rem: list[int], clip: tuple | None = None, whole: bool = True
    ) -> int:
        nonlocal left
        # a stretch handed over with its clip was entered by the union's walk
        if j and clip is None:
            left -= 1
            if left < 0:
                raise BudgetExceeded(f"the walk charges more than its budget of {budget}")
        level = levels[j]
        # a sub-walk that can recur is walked once per walk, and a repeat
        # takes its count; each system and block has its own ``levels`` for
        # the whole walk, so their id tells them apart
        reads = level[6] if whole else None
        if reads is not None:
            key = (id(levels), j, *[rem[i] for i in reads])
            if (found := memo.get(key)) is not None:
                return found
        first, top = _clip(level, rem) if clip is None else clip
        if top < first:
            return 0
        if j == len(levels) - 1:
            return top - first + 1
        # a slice of one column costs less as one more clip below
        if level[5] is not None and first < top:
            upper, lower = level[5]
            found, pieces = _plane(
                first,
                top,
                [(a, b, rem[i]) for a, b, i in upper] + [(0, 1, levels[-1][1])],
                [(a, b, rem[i]) for a, b, i in lower] + [(0, 1, -levels[-1][0])],
            )
            left -= pieces
            if left < 0:
                raise BudgetExceeded(f"the walk charges more than its budget of {budget}")
        else:
            found = None if level[7] is None else along(j, levels, rem, first, top)
            if found is None:
                col = level[2]
                found = 0
                for x in range(first, top + 1):
                    found += one(j + 1, levels, [r - a * x for r, a in zip(rem, col)])
        if reads is not None:
            memo[key] = found
        return found

    def along(j: int, levels: list[Level], rem: list[int], first: int, top: int) -> int | None:
        # the sub-walks below x = first..top sit at consecutive positions of
        # one line per system and level, kept as prefix sums of their counts
        # over one run of positions; the range walks only what it adds to
        # the run. None where the range would leave a gap on the line
        level = levels[j]
        p, col = level[7], level[2]
        run = runs.get((id(levels), j))
        if run is None:
            run = runs[id(levels), j] = [rem[p], first, first - 1, {first: 0}]
        base, lo, hi, sums = run
        # x's sub-walk reads the offsets base - m * col at m = x + shift,
        # which are origin - m * col on every row
        shift = (base - rem[p]) // col[p]
        a, b = first + shift, top + shift
        if a > hi + 1 or b < lo - 1:
            return None
        origin = [r + c * shift for r, c in zip(rem, col)]
        for m in range(lo - 1, a - 1, -1):
            sums[m] = sums[m + 1] - one(j + 1, levels, [r - c * m for r, c in zip(origin, col)])
        for m in range(hi + 1, b + 1):
            sums[m + 1] = sums[m] + one(j + 1, levels, [r - c * m for r, c in zip(origin, col)])
        run[1], run[2] = min(lo, a), max(hi, b)
        return sums[b + 1] - sums[a]

    for part in parts:
        if part[0][0]:  # else the root check found the part's one box point
            found *= one(0, *part[0]) if len(part) == 1 else walk(0, part)
        if not found:
            break
    return found, budget - left
