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
walk; one where several are is walked value by value, is one slice at
the second-to-last level, or at the last adds its width, so a point in
several systems is counted once. Gaps are neither walked nor charged.

A 2-D slice over the last two coordinates ``(x, y)`` in which a single
system is live is counted in closed form. The system's rows without
``y`` have clipped ``x``; every other row, and each side of the box in
``y``, bounds ``y`` above or below by a line in ``x``; the offsets carry
the box sides' after the rows'. The least upper line and the greatest
lower line on the integers of ``x`` are piecewise linear, read from each
side's line order (the lines of the full-line envelope by slope) at its
integer breakpoints, with integer cross-multiplication only. On each
piece of their merge, one linear inequality keeps the ``x`` where the
upper bound ``U`` reaches the lower bound ``L``, and there the column
counts are ``floor(U) - ceil(L) + 1``, summed by ``floor_sum``.
Where several systems are live the slice is cut where an envelope piece
starts or a bound stops being at least another (the upper, if one is);
on each range the intervals that meet, ties included, form fixed groups,
each summed from its extremes.

A walk needs per level the coordinate's column and the rows split by the
sign of their coefficient, and at the second-to-last level the slice's
lines. These depend only on the rows and the walk order, so ``Rows``, a
system's rows, keeps one such skeleton per order it is walked in (the
order follows the box, so it may change with ``k``), and likewise its
blocks, each with its own ``Rows``. Per count the walk fills in only the
box bounds, the root offsets and each row's least contribution of the
later coordinates.

The sub-walks at consecutive values ``t`` of one level form a run, in
which the offsets are ``base - col * t``. One loop walks a run, stepping
the offsets by the column in place and counting its slices itself, and
each level of a system keeps one run record for the length of one call
of ``walk_box``. Above the slices it holds their two line orders and
their horizon: each comparison that built an order is linear in the
offsets, so in ``t``, and keeps its outcome on an interval of ``t``
found by floor division, and where every one keeps its outcome the same
comparisons build the same order. A run reads its orders within their
horizon, either way, and else builds new ones; every piece, ties
included, is the one the envelope rebuilt from the lines gives.

Below the root and above the last level, what the walk of a single live
system finds is a function of the offsets of the rows it reads, those
with a nonzero coefficient at its level or a later one. It can recur
only where the earlier columns on those rows are linearly dependent;
there the skeleton holds the rows, and ``walk_box`` keeps the count per
system, level and their offsets, so a repeat adds it. Where every
earlier column is, on those rows, an integer multiple of the parent's
column ``col``, every prefix leaves them the offsets ``base - m * col``
of one line, and the parent's values read consecutive positions ``m``,
told by a row the skeleton marks. The parent's run then keeps prefix
sums of the counts over the consecutive positions it walked; a range
walks only the positions it adds, and its count is the difference of two
prefix sums, so a family whose apex coordinates enter the normals with
equal columns loops over their widths, not over their product. A
position recurs only off the run, where a range would leave a gap and
walks each position, so a run keys its positions from its first gap.

The walk takes a budget and raises ``BudgetExceeded`` once its charges
overdraw it. It has one charge rule: one node per sub-walk entered below
the root (a value or position a run walks, a repeat taken from the
memo), and one per merged envelope piece of a slice counted in closed
form, or per range where several systems are live, at most one per value
of ``x``. Nothing else is charged, not even a position summed from prefix
sums, so no walk charges more than the plain walk, a 1-D count never
touches the budget, a charge never exceeds the points of the box, and a
budget of box points never refuses a count.
"""

from __future__ import annotations

from functools import cached_property, cmp_to_key
from math import inf, lcm, prod
from operator import gt
from typing import Sequence

from .errors import BudgetExceeded
from .linalg import independent_rows

DEFAULT_BUDGET = 10**9  # a walk's budget when none is given; hulls and face lattices always

# One level of the walk: the coordinate's box bounds, its column of
# coefficients, ``(row, |a|, minrest)`` for the rows whose coefficient
# ``a`` is positive, then negative (``minrest`` is the least contribution
# of the later coordinates to that row), at the second-to-last level only
# the lines of a slice over it and the last coordinate, each side's sorted
# by slope, where a sub-walk from this level can recur, the rows it reads
# (else None), where the keyed sub-walks below this level lie on one line,
# a row on which this level's column is nonzero (else None), and the run
# record of the sub-walks below it: ``[base, lo, hi, sums, keyed, orders,
# since, until]``, the line's base offset on that row, the positions lo..hi
# its prefix sums cover, whether it keys its positions, and the slices'
# two line orders with their horizon ``since..until``, the values over
# which the comparisons that built them keep their outcomes.
Level = tuple[
    int, int, list[int], list, list, tuple | None, tuple[int, ...] | None, int | None, list
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
        # two zeros for the box sides of a slice, which the offsets carry last
        col = [row[j] for row in normals] + [0, 0]
        pos = [(i, a) for i, a in enumerate(col) if a > 0]
        neg = [(i, -a) for i, a in enumerate(col) if a < 0]
        levels.append([j, col, pos, neg, None, None, None])
    if len(levels) > 1:
        # the rows of a slice over (x, y), y the last coordinate: an upper
        # line for y for each positive coefficient of y, a lower one for
        # each negative one, as (coefficient of x, |coefficient of y|,
        # row), then the box side, whose offset follows the rows', each
        # side sorted by a/b, stably; rows without y clip x
        col, box = levels[-2][1], len(normals)
        by_slope = cmp_to_key(lambda l, m: l[0] * m[1] - m[0] * l[1])
        levels[-2][4] = (
            sorted([(col[i], b, i) for i, b in levels[-1][2]] + [(0, 1, box)], key=by_slope),
            sorted([(col[i], b, i) for i, b in levels[-1][3]] + [(0, 1, box + 1)], key=by_slope),
        )
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
    coordinates substituted, and end with those of a slice's box sides.
    Rows with a zero coefficient at a level need no test there: the level
    above, or this root check, already made it."""
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
        pos_rest = [(i, a, minrest[i]) for i, a in pos]
        neg_rest = [(i, b, minrest[i]) for i, b in neg]
        run = [None, None, None, None, None, None, inf, -inf]
        levels.append((x_lo, x_hi, col, pos_rest, neg_rest, lines, reads, line, run))
        for i, a in pos:
            minrest[i] += a * x_lo
        for i, b in neg:
            minrest[i] -= b * x_hi
    if any(map(gt, minrest, rem)):
        return None
    if len(order) > 1:
        # the box sides of a slice, y <= hi and -y <= -lo, as two more offsets
        rem += [hi[order[-1]], -lo[order[-1]]]
    return levels[::-1], rem


def _clip(level: Level, rem: list[int]) -> tuple[int, int]:
    """Values ``x`` of the level's coordinate that every row still allows."""
    x_lo, x_hi, _, pos, neg, _, _, _, _ = level
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


def _order(lines: list[tuple], rem: list[int], col: list[int] | None = None, x: int = 0) -> tuple:
    """The lower envelope of the full lines ``(rem[i] - a*x) / b``, ``b > 0``,
    given as ``(a, b, i)`` sorted by ``a/b``: its members left to right as
    ``(a, b, i, d)``, ``d = a*b' - a'*b > 0`` with the member before (0 for
    the first), and the values ``t``, as ``lo, hi``, over which every
    comparison made keeps its outcome, and so the members, when the offsets
    are ``rem - (t - x) * col``. Each comparison is linear in the offsets,
    so its bound is one floor division; without ``col`` nothing bounds
    ``t``. Of equal slopes only the lowest line, the earliest of equal ones,
    can be a member, and breakpoints strictly increase."""
    hull, lo, hi = [], -inf, inf
    for a, b, i in lines:
        c, d = rem[i], 0
        while hull:
            a2, b2, i2, d2 = hull[-1]
            c2 = rem[i2]
            d = a * b2 - a2 * b
            if d:
                # the last member stays if its breakpoint with the one before
                # lies strictly left of its breakpoint with the new line
                if len(hull) == 1:
                    break
                a1, b1, i1, _ = hull[-2]
                v = (c * b2 - c2 * b) * d2 - (c2 * b1 - rem[i1] * b2) * d - 1
                f = col and (col[i] * b2 - col[i2] * b) * d2 - (col[i2] * b1 - col[i1] * b2) * d
            else:
                # parallel: a line not lower is no member
                v = c * b2 - c2 * b
                f = col and col[i] * b2 - col[i2] * b
            if f:
                # the outcome holds while v, or ~v = -1 - v where v < 0, stays
                # >= 0; it falls by f per unit of t
                s, f = (v, f) if v >= 0 else (~v, -f)
                if f > 0:
                    hi = min(hi, x + s // f)
                else:
                    lo = max(lo, x - s // -f)
            if v >= 0:
                break
            hull.pop()
            d = 0
        if d or not hull:
            hull.append((a, b, i, d))
    return hull, lo, hi


def _pieces(members: list[tuple], rem: list[int], x_lo: int, x_hi: int) -> list:
    """Pieces of the least of the lines on the integers ``x_lo..x_hi``, from
    their ``_order``: ``(start, a, b, c)`` with increasing starts, the first
    at ``x_lo``, each line least from its start to the next one. Where
    lines are equal at ``x_lo`` the piece takes the one falling fastest, and
    at a breakpoint the next member takes over at the first integer where
    it is strictly below; a member with no integer of its own gives none."""
    s = x_lo
    pieces = []
    for a2, b2, i2, d in members:
        c2 = rem[i2]
        # d is 0 only for the first member; else the breakpoint is p / d
        if d and (p := c2 * b - c * b2) > s * d:
            pieces.append((s, a, b, c))
            s = p // d + 1
            if s > x_hi:
                return pieces
        a, b, c = a2, b2, c2
    pieces.append((s, a, b, c))
    return pieces


def _run(kept: list, lines: tuple, rem: list[int], col: list[int], t: int) -> None:
    """Sets in a run's record ``kept`` the line orders of its slice at value
    ``t``, at ``rem``, the offsets falling by ``col`` per unit of ``t``, with
    the values over which both hold, as ``kept[5:8] = (up, down), since,
    until``."""
    up, lo, hi = _order(lines[0], rem, col, t)
    down, since, until = _order(lines[1], rem, col, t)
    kept[5:8] = (up, down), max(lo, since), min(hi, until)


def _plane(x_lo: int, x_hi: int, orders: tuple, rem: list[int]) -> tuple[int, int]:
    """Points ``(x, y)`` with ``x_lo <= x <= x_hi``, ``y <= (c - a*x) / b`` for
    every upper line and ``-y <= (c - a*x) / b`` for every lower one, of
    which ``orders`` holds the two ``_order``s, and the number of pieces of
    their merged envelopes."""
    ups, downs = orders
    ups, downs = _pieces(ups, rem, x_lo, x_hi), _pieces(downs, rem, x_lo, x_hi)
    ups.append((x_hi + 1,))
    downs.append((x_hi + 1,))
    total = pieces = i = j = 0
    s = x_lo
    while s <= x_hi:
        _, au, bu, cu = ups[i]
        _, ad, bd, cd = downs[j]
        up_next, down_next = ups[i + 1][0], downs[j + 1][0]
        lo, hi = s, (up_next if up_next < down_next else down_next) - 1
        s = hi + 1
        pieces += 1
        if up_next == s:
            i += 1
        if down_next == s:
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
            # sum floor(U) and floor(-L) over the n columns; a line with b = 1,
            # as a box side is, sums in closed form
            half = n * (n - 1) // 2
            cu, cd = cu - au * lo, cd - ad * lo
            up = cu * n - au * half if bu == 1 else floor_sum(n, bu, -au, cu)
            down = cd * n - ad * half if bd == 1 else floor_sum(n, bd, -ad, cd)
            total += up + down + n
    return total, pieces


def _planes(x_lo: int, x_hi: int, slices: list[tuple[tuple, list[int]]]) -> tuple[int, int]:
    """Points ``(x, y)``, ``x_lo <= x <= x_hi``, in at least one of the
    ``slices``, each its upper and lower lines and offsets, and the number
    of ranges summed, on each of which the intervals that meet are fixed."""
    # the pieces of y <= (c - a*x) / b per slice, then those of -y <= (c - a*x) / b
    sides = [_pieces(_order(both[h], rem)[0], rem, x_lo, x_hi) for h in (0, 1) for both, rem in slices]
    starts, m = sorted({p[0] for side in sides for p in side}) + [x_hi + 1], len(slices)
    at, signs, total, ranges = [0] * 2 * m, [1] * m + [-1] * m, 0, 0
    for s, stop in zip(starts, starts[1:]):
        at = [i + (i + 1 < len(side) and side[i + 1][0] == s) for i, side in zip(at, sides)]
        lines = [side[i] for i, side in zip(at, sides)]
        big = lcm(*[p[2] for p in lines])  # each bound (base - fall * x) / big, a lower one negated
        fall = [g * a * (big // b) for g, (_, a, b, _) in zip(signs, lines)]
        base = [g * c * (big // b) for g, (_, _, b, c) in zip(signs, lines)]
        cuts = {s, stop}
        for p in range(2 * m if len(set(fall)) > 1 else 0):  # parallel lines never cross
            for q in range(p + 1, 2 * m):
                # p's bound, the upper if one is, is at least q's where x * d >= f
                d, f = fall[q] - fall[p], base[q] - base[p]
                if d and s < (x := -(-f // d) if d > 0 else f // d + 1) < stop:
                    cuts.add(x)
        for lo, hi in zip(cuts := sorted(cuts), cuts[1:]):
            # the bounds at lo, then their steps, which order ties as past lo
            keys = [(c - a * lo, -a) for a, c in zip(fall, base)]
            groups = []  # [greatest upper bound, its index, least lower bound's]
            for k in sorted(range(m), key=lambda k: keys[k + m]):
                if groups and keys[k + m][0] <= groups[-1][0][0]:
                    groups[-1][:2] = max(groups[-1][:2], [keys[k], k])
                elif keys[k][0] >= keys[k + m][0]:  # else empty
                    groups.append([keys[k], k, k + m])
            total += (hi - lo) * len(groups)  # floor(U) + floor(-L) + 1 per column
            for _, a, b, c in [lines[i] for group in groups for i in group[1:]]:
                total += floor_sum(hi - lo, b, -a, c - a * lo)
            ranges += 1
    return total, ranges


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

    def overdrawn():
        raise BudgetExceeded(f"the walk charges more than its budget of {budget}")

    def walk(j: int, live: list[tuple[list[Level], list[int]]]) -> int:
        # between two cuts the same systems are live: one walks its stretch
        # alone, several walk each value, count a slice, or merge at the last
        # level. An empty clip makes no cut, which would split another's
        # stretch
        nonlocal left
        if j:
            left -= 1
            if left < 0:
                overdrawn()
        spans = [(*_clip(levels[j], rem), levels, rem) for levels, rem in live]
        spans = [s for s in spans if s[0] <= s[1]]
        cuts = sorted({s[0] for s in spans} | {s[1] + 1 for s in spans})
        total = 0
        for start, stop in zip(cuts, cuts[1:]):
            here = [s for s in spans if s[0] <= start and stop <= s[1] + 1]
            if len(here) == 1:
                _, _, levels, rem = here[0]
                total += one(j, levels, rem, start, stop - 1)
            elif here and j == len(live[0][0]) - 1:
                total += stop - start
            elif here and live[0][0][j][5] is not None:
                found, ranges = _planes(start, stop - 1, [(lv[j][5], rem) for *_, lv, rem in here])
                total, left = total + found, left - ranges
                if left < 0:
                    overdrawn()
            elif here:
                for x in range(start, stop):
                    total += walk(j + 1, [
                        (levels, [r - a * x for r, a in zip(rem, levels[j][2])])
                        for _, _, levels, rem in here
                    ])
        return total

    def one(j: int, levels: list[Level], rem: list[int], first=None, top=None, reads=None) -> int:
        # the sub-walk from level j, which its caller charged, clipped where
        # it gives the clip; keyed on the offsets of ``reads``, a repeat takes
        # the count
        nonlocal left
        if reads is not None:
            # each system and block has its own levels for the whole walk
            key = (id(levels), j, *[rem[i] for i in reads])
            if (found := memo.get(key)) is None:
                found = memo[key] = one(j, levels, rem, first, top)
            return found
        level = levels[j]
        if first is None:
            first, top = _clip(level, rem)
        if top < first:
            return 0
        if j == len(levels) - 1:
            return top - first + 1
        if level[5] is not None:
            # a slice alone builds its line orders
            found, pieces = _plane(first, top, [_order(side, rem)[0] for side in level[5]], rem)
            left -= pieces
            if left < 0:
                overdrawn()
            return found
        col, p, kept = level[2], level[7], level[8]
        if p is None:
            # a run of its own, whose positions are the values x: a horizon
            # kept from another base holds nothing here
            kept[6], kept[7] = inf, -inf
            below = [r - a * first for r, a in zip(rem, col)]
            return sum(steps(j, levels, below, first, top, levels[j + 1][6]))
        # the sub-walks below x = first..top sit at the positions m = x +
        # shift of the level's line, on which the run keeps prefix sums of
        # the counts over the consecutive positions lo..hi
        if kept[0] is None:
            kept[:5] = rem[p], first, first - 1, {first: 0}, False
        base, lo, hi, sums = kept[:4]
        shift = (base - rem[p]) // col[p]
        a, b = first + shift, top + shift
        if a > hi + 1 or b < lo - 1:
            # a range that would leave a gap walks each position; from then
            # on the run keys what it walks, for a position walked off the run
            # may recur
            kept[4] = True
            below = [r - c * first for r, c in zip(rem, col)]
            return sum(steps(j, levels, below, a, b, levels[j + 1][6]))
        # the range walks the positions it adds, down the line and then up:
        # that order tells which later ranges leave gaps
        keyed = levels[j + 1][6] if kept[4] else None
        for m, n, d in ((lo - 1, a, -1), (hi + 1, b, 1)):
            if (n - m) * d >= 0:
                s = sums[m + (d < 0)]
                below = [r - c * (m - shift) for r, c in zip(rem, col)]
                for t, found in zip(range(m, n + d, d), steps(j, levels, below, m, n, keyed)):
                    s += d * found
                    sums[t + (d > 0)] = s
        kept[1], kept[2] = min(lo, a), max(hi, b)
        return sums[b + 1] - sums[a]

    def steps(j: int, levels: list[Level], below: list[int], m: int, n: int, reads) -> list[int]:
        # the counts of the sub-walks at positions m to n, either way, of
        # level j's run, each charged where it is entered and keyed on
        # ``reads``; ``below`` holds the offsets at m and steps by the column
        # in place. A slice reads the line orders its run keeps within their
        # horizon
        nonlocal left
        level, sub = levels[j], levels[j + 1]
        col, kept, lines = level[2], level[8], sub[5]
        d = 1 if m <= n else -1
        counts = []
        for t in range(m, n + d, d):
            if t != m:
                for i, a, _ in level[3]:
                    below[i] -= d * a
                for i, a, _ in level[4]:
                    below[i] += d * a
            left -= 1
            if left < 0:
                overdrawn()
            if lines is None or reads is not None:
                found = one(j + 1, levels, below, None, None, reads)
            elif (x := _clip(sub, below))[1] < x[0]:
                found = 0
            else:
                if not kept[6] <= t <= kept[7]:
                    _run(kept, lines, below, col, t)
                found, pieces = _plane(*x, kept[5], below)
                left -= pieces
                if left < 0:
                    overdrawn()
            counts.append(found)
        return counts

    for part in parts:
        if part[0][0]:  # else the root check found the part's one box point
            found *= one(0, *part[0]) if len(part) == 1 else walk(0, part)
        if not found:
            break
    return found, budget - left
