"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the production code paths: hull
membership is decided by barycentric coordinates over vertex subsets,
facets by testing every spanning subset of points, the vertices on each
facet by rational dot products, face dimensions by the affine hull of
every closed vertex set, interior counts from strict facet inequalities
of that brute-force hull, determinants come from Bareiss elimination,
Smith diagonals from minor gcds, and minimal dilates from explicit small
searches. Lattice points of boxes too wide to scan are
counted by a plain coordinate-by-coordinate walk. Interpolation is
Lagrange's, against the library's Newton form. Rank, nullspace,
solves and affine hulls come from a Fraction reduced row echelon form,
and minimal dilates also in closed form from a Smith normal form with
unimodular transforms: two eliminations that the library itself no
longer uses. ``_envelope`` is the kernel's former piece builder for a 2-D
slice, rebuilt from its lines at every slice.
"""

from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, lcm
from typing import NamedTuple

from ehrhart.linalg import (
    AffineSubspace,
    as_vector,
    canonical_equation,
    integerize,
    vdot,
)
from ehrhart.polytope import ConvexPolytope


def rref(rows):
    """Reduced row echelon form with deterministic column-major pivoting.

    Returns the reduced matrix and the list of pivot columns. The pivot in
    each column is the first nonzero entry scanning rows top to bottom.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * p for a, p in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rank(rows):
    return len(rref(rows)[1])


def vsub(u, v):
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(u, v, strict=True))


def vscale(u, c):
    return tuple(Fraction(a) * Fraction(c) for a in u)


def lagrange_interpolate(xs, ys):
    """Interpolating coefficients, constant first, as the sum of the
    Lagrange basis polynomials weighted by the values."""
    out = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = [Fraction(1)]
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            shifted = [Fraction(0)] + num  # num * (x - xj)
            num = [a - xj * b for a, b in zip(shifted, num + [Fraction(0)])]
            den *= Fraction(xi) - Fraction(xj)
        w = Fraction(yi) / den
        for t, c in enumerate(num):
            out[t] += w * c
    return out


def nullspace(rows, ncols):
    """Basis of ``{x : rows @ x = 0}`` read off the reduced form: per free
    column in order, that variable 1 and the other free variables 0."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(ncols)) for i in range(ncols)]
    mat, pivots = rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -mat[i][free]
        basis.append(tuple(vec))
    return basis


def solve_rational(rows, rhs):
    """The solution of ``A x = b`` with free variables zero, or None when
    the system is inconsistent."""
    ncols = len(rows[0])
    mat, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = mat[i][ncols]
    return tuple(x)


def independent_rows(rows):
    """Indices of a maximal linearly independent subset, greedily in order."""
    chosen = []
    for i, row in enumerate(rows):
        if rank([rows[j] for j in chosen] + [row]) > len(chosen):
            chosen.append(i)
    return chosen


def affine_hull(points, ambient_dim):
    """Integer equations of the affine hull of a point set, and its dimension."""
    base = points[0]
    normals = nullspace([vsub(p, base) for p in points[1:]], ambient_dim)
    rows = tuple(canonical_equation(a) for a in normals)
    span = AffineSubspace(ambient_dim, rows, tuple(vdot(a, base) for a in rows))
    return span, ambient_dim - len(rows)


def in_hull(point, vertices):
    """Membership in conv(vertices) by barycentric coordinates.

    Tries every (m+1)-subset of the vertices, m the dimension of their
    affine hull; the point is inside iff some affinely independent subset
    carries it with nonnegative weights summing to one (Caratheodory).
    Such a subset's weights are unique. A larger subset of a
    lower-dimensional set would not do: its weights are not unique, and
    the one solution tried may be negative for a point inside.
    """
    d = len(point)
    m = rank([vsub(v, vertices[0]) for v in vertices[1:]])
    for sub in combinations(vertices, m + 1):
        k = len(sub)
        rows = [[Fraction(sub[j][i]) for j in range(k)] for i in range(d)]
        rows.append([Fraction(1)] * k)
        lam = solve_rational(rows, list(point) + [1])
        if lam is None:
            continue
        residual_ok = all(
            sum(Fraction(sub[j][i]) * lam[j] for j in range(k)) == point[i]
            for i in range(d)
        )
        if residual_ok and all(l >= 0 for l in lam):
            return True
    return False


def brute_count(vertices, k):
    """Lattice points of the k-th dilate by box scan + hull membership."""
    scaled = [tuple(Fraction(c) * k for c in v) for v in vertices]
    d = len(scaled[0])
    ranges = []
    for i in range(d):
        coords = [v[i] for v in scaled]
        ranges.append(range(ceil(min(coords)), floor(max(coords)) + 1))

    def rec(i, prefix):
        if i == d:
            return 1 if in_hull(prefix, scaled) else 0
        return sum(rec(i + 1, prefix + (x,)) for x in ranges[i])

    return rec(0, ())


def brute_count_union(vertex_lists, k):
    """Same, counting points inside at least one hull."""
    pieces = [[tuple(Fraction(c) * k for c in v) for v in vs] for vs in vertex_lists]
    d = len(pieces[0][0])
    ranges = []
    for i in range(d):
        coords = [v[i] for piece in pieces for v in piece]
        ranges.append(range(ceil(min(coords)), floor(max(coords)) + 1))

    def rec(i, prefix):
        if i == d:
            return 1 if any(in_hull(prefix, piece) for piece in pieces) else 0
        return sum(rec(i + 1, prefix + (x,)) for x in ranges[i])

    return rec(0, ())


def walk_count(lo, hi, systems):
    """Integer points of the box ``lo..hi`` lying in at least one of the
    ``(normals, offsets)`` systems, by a walk that fixes one coordinate at
    a time, narrowest side first. Each level clips one interval per system
    to the values its rows still allow once the later coordinates take
    their most favourable values, and walks the hull of those intervals,
    passing a system down only inside its own; the last coordinate's
    intervals are merged rather than iterated. It sums no 2-D slice in
    closed form and has no budget, so it checks ``count_box`` and
    ``count_box_union`` on boxes too wide for a point scan."""
    n = len(lo)
    if any(l > h for l, h in zip(lo, hi)):
        return 0
    order = sorted(range(n), key=lambda j: (hi[j] - lo[j], j))
    live = []
    for normals, offsets in systems:
        # least[t]: per row, the least contribution of the coordinates order[t:]
        least = [[0] * len(normals)]
        for j in reversed(order):
            least.insert(
                0, [m + min(r[j] * lo[j], r[j] * hi[j]) for m, r in zip(least[0], normals)]
            )
        if all(c >= m for c, m in zip(offsets, least[0])):
            live.append((normals, least, list(offsets)))
    if not live or n == 0:
        return int(bool(live))

    def walk(t, live):
        j = order[t]
        spans = []
        for normals, least, rem in live:
            x_lo, x_hi = lo[j], hi[j]
            for row, r, m in zip(normals, rem, least[t + 1]):
                if row[j] > 0:
                    x_hi = min(x_hi, (r - m) // row[j])
                elif row[j] < 0:
                    x_lo = max(x_lo, -((r - m) // -row[j]))
            if x_lo <= x_hi:
                spans.append((x_lo, x_hi, normals, least, rem))
        if not spans:
            return 0
        if t == n - 1:
            # each value once, however many intervals hold it
            total, end = 0, lo[j] - 1
            for x_lo, x_hi in sorted(s[:2] for s in spans):
                total += max(x_hi - max(x_lo, end + 1) + 1, 0)
                end = max(end, x_hi)
            return total
        return sum(
            walk(
                t + 1,
                [
                    (normals, least, [r - row[j] * x for r, row in zip(rem, normals)])
                    for x_lo, x_hi, normals, least, rem in spans
                    if x_lo <= x <= x_hi
                ],
            )
            for x in range(min(s[0] for s in spans), max(s[1] for s in spans) + 1)
        )

    return walk(0, live)


# The kernel's envelope of a 2-D slice before it kept line orders over a
# run of slices, kept verbatim as the reference its piece builder must
# reproduce, ties included.
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


def bareiss_det(matrix):
    """Exact integer determinant (fraction-free elimination)."""
    n = len(matrix)
    m = [[int(x) for x in row] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minor_gcd_diagonal(matrix):
    """Smith diagonal via gcds of k x k minors: s_k = d_k / d_(k-1)."""
    rows, cols = len(matrix), len(matrix[0])
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsub in combinations(range(rows), k):
            for csub in combinations(range(cols), k):
                minor = bareiss_det([[matrix[i][j] for j in csub] for i in rsub])
                g = gcd(g, abs(minor))
        if g == 0:
            out.append(0)  # all further invariant factors vanish
            prev = 0
        else:
            out.append(g // prev)
            prev = g
    return out


def smith_normal_form(matrix):
    """Smith normal form ``U @ A @ V = S`` over the integers.

    ``U`` and ``V`` are unimodular; ``S`` is diagonal with nonnegative
    entries satisfying ``s1 | s2 | ...``. Pivots are chosen as the smallest
    nonzero absolute value in the remaining submatrix, ties broken
    row-major.
    """
    if not matrix or not matrix[0]:
        raise ValueError("matrix must be nonempty")
    m, n = len(matrix), len(matrix[0])
    S = [[int(x) for x in row] for row in matrix]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_sub(dst, src, q):
        S[dst] = [a - q * b for a, b in zip(S[dst], S[src])]
        U[dst] = [a - q * b for a, b in zip(U[dst], U[src])]

    def col_sub(dst, src, q):
        for row in S:
            row[dst] -= q * row[src]
        for row in V:
            row[dst] -= q * row[src]

    for t in range(min(m, n)):
        pivot = min(
            ((abs(S[i][j]), i, j) for i in range(t, m) for j in range(t, n) if S[i][j]),
            default=None,
        )
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            for i in range(t + 1, m):
                if S[i][t]:
                    row_sub(i, t, S[i][t] // S[t][t])
            for j in range(t + 1, n):
                if S[t][j]:
                    col_sub(j, t, S[t][j] // S[t][t])
            leftovers = [
                (abs(S[i][t]), i, -1) for i in range(t + 1, m) if S[i][t]
            ] + [
                (abs(S[t][j]), -1, j) for j in range(t + 1, n) if S[t][j]
            ]
            if leftovers:
                # a remainder smaller than the pivot survived; promote it
                _, i, j = min(leftovers)
                if i >= 0:
                    swap_rows(t, i)
                else:
                    swap_cols(t, j)
                continue
            bad = next(
                (
                    i
                    for i in range(t + 1, m)
                    for j in range(t + 1, n)
                    if S[i][j] % S[t][t]
                ),
                None,
            )
            if bad is None:
                break
            row_sub(t, bad, -1)  # fold the offending row in and re-reduce
        if S[t][t] < 0:
            S[t] = [-x for x in S[t]]
            U[t] = [-x for x in U[t]]

    freeze = lambda rows: tuple(tuple(row) for row in rows)
    return freeze(U), freeze(S), freeze(V)


def _mat_vec(rows, v):
    return tuple(sum((Fraction(a) * b for a, b in zip(row, v)), Fraction(0)) for row in rows)


def integer_solution(rows, rhs):
    """An integer solution of ``A x = c`` via Smith back-substitution, or None."""
    if not rows:
        return ()
    U, S, V = smith_normal_form(rows)
    m, n = len(rows), len(rows[0])
    uc = _mat_vec(U, as_vector(rhs))
    diag = [S[i][i] for i in range(min(m, n))]
    r = sum(1 for d in diag if d != 0)
    if any(uc[i] != 0 for i in range(r, m)):
        return None
    y = [Fraction(0)] * n
    for i in range(r):
        q = uc[i] / diag[i]
        if q.denominator != 1:
            return None
        y[i] = q
    return tuple(int(c) for c in _mat_vec(V, y))


def snf_min_dilate(rows, rhs):
    """Least ``m >= 1`` with an integer solution of ``A x = m b``, in closed
    form from ``U A V = S``, or None when the system is inconsistent.

    Rational consistency needs ``(U b)_i = 0`` beyond the rank; then ``m``
    is the lcm of the denominators of ``(U b)_i / s_i`` over the nonzero
    diagonal.
    """
    if not rows:
        return 1
    U, S, _ = smith_normal_form(rows)
    ub = _mat_vec(U, as_vector(rhs))
    diag = [d for d in (S[i][i] for i in range(min(len(S), len(S[0])))) if d]
    if any(ub[i] != 0 for i in range(len(diag), len(rows))):
        return None
    return lcm(*((ub[i] / d).denominator for i, d in enumerate(diag)))


def brute_has_integer_solution(rows, target, box=12):
    """Whether A x = target has an integer solution with |x_i| <= box.

    Only sound in one direction: finding a solution proves existence,
    while an empty box search proves nothing outside the box.
    """
    if not rows:
        return True  # no constraints: x = 0 solves
    n = len(rows[0])
    target = [Fraction(t) for t in target]

    def rec(i, partials):
        if i == n:
            return all(p == t for p, t in zip(partials, target))
        for x in range(-box, box + 1):
            nxt = [p + Fraction(rows[r][i]) * x for r, p in enumerate(partials)]
            if rec(i + 1, nxt):
                return True
        return False

    return rec(0, [Fraction(0)] * len(rows))


def brute_min_dilate(rows, rhs, m_max, box=12):
    """Smallest m <= m_max whose system has a box-bounded integer solution.

    Reliable on desk-scale instances whose solutions are known to fit the
    box; None when no m <= m_max works within it.
    """
    for m in range(1, m_max + 1):
        if brute_has_integer_solution(rows, [Fraction(b) * m for b in rhs], box):
            return m
    return None


def _int_facet(normal, offset):
    joint = integerize(list(normal) + [offset])
    return joint[:-1], joint[-1]


def _direction_basis(points):
    base = points[0]
    basis = []
    r = 0
    for p in points[1:]:
        d = vsub(p, base)
        if any(x != 0 for x in d):
            new_rank = rank(basis + [d])
            if new_rank > r:
                basis.append(d)
                r = new_rank
    return basis


def brute_force_hull(points):
    """``from_vertices`` by testing every spanning subset for one-sidedness.

    Every affinely independent subset spanning a hyperplane of the affine
    hull is a facet candidate; it is kept when all points lie on one side.
    Lower-dimensional inputs are projected to local coordinates and the
    facets lifted back; a point is a vertex when its tight facet normals
    span the intrinsic dimension.
    """
    pts = sorted({as_vector(p) for p in points})
    n = len(pts[0])
    span, dim = affine_hull(pts, n)
    if dim == 0:
        return ConvexPolytope(n, (pts[0],), (), span, 0)

    if dim == n:
        local = pts
    else:
        basis = _direction_basis(pts)
        cols = [[basis[j][i] for j in range(dim)] for i in range(n)]
        base = pts[0]
        local = [solve_rational(cols, vsub(p, base)) for p in pts]

    local_facets = set()
    for subset in combinations(range(len(local)), dim):
        anchor = local[subset[0]]
        dirs = [vsub(local[s], anchor) for s in subset[1:]]
        kernel = nullspace(dirs, dim)
        if len(kernel) != 1:
            continue  # not a hyperplane of the hull
        g = kernel[0]
        c = vdot(g, anchor)
        signs = [vdot(g, p) - c for p in local]
        if all(s <= 0 for s in signs):
            pass
        elif all(s >= 0 for s in signs):
            g, c = vscale(g, -1), -c
        else:
            continue
        local_facets.add(_int_facet(g, c))

    if dim == n:
        facets = sorted(local_facets)
    else:
        lifted = set()
        for g, c in sorted(local_facets):
            a = solve_rational([list(b) for b in basis], g)
            lifted.add(_int_facet(a, vdot(a, base) + c))
        facets = sorted(lifted)

    extreme = []
    for p in pts:
        tight = [a for a, c in facets if vdot(a, p) == c]
        if rank(tight) == dim:
            extreme.append(p)
    return ConvexPolytope(n, tuple(extreme), tuple(facets), span, dim)


class OracleFace(NamedTuple):
    """A face as the oracle finds it: its vertex indices, span and dimension."""

    vertex_indices: tuple[int, ...]
    span: AffineSubspace
    dim: int


def vertex_indices(mask):
    """The set bits of a face's vertex mask, increasing: its vertex indices."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def facet_vertex_masks(poly):
    """``ConvexPolytope.incidence`` from exact rational dot products: per
    facet, the bitmask of the vertices on its hyperplane."""
    return tuple(
        sum(1 << i for i, v in enumerate(poly.vertices) if vdot(a, v) == c)
        for a, c in poly.facets
    )


def brute_force_faces(poly, dim):
    """``faces`` by closing the facet vertex sets under intersection and
    taking the affine hull of every closed set."""
    per_facet = [
        frozenset(i for i, v in enumerate(poly.vertices) if vdot(a, v) == c)
        for a, c in poly.facets
    ]
    everything = frozenset(range(len(poly.vertices)))
    closed = {everything}
    queue = [everything]
    while queue:
        s = queue.pop()
        for pf in per_facet:
            t = s & pf
            if t and t not in closed:
                closed.add(t)
                queue.append(t)
    out = []
    for idx_set in sorted(closed, key=sorted):
        subset = [poly.vertices[i] for i in sorted(idx_set)]
        sub_span, sub_dim = affine_hull(subset, poly.ambient_dim)
        if sub_dim == dim:
            out.append(OracleFace(tuple(sorted(idx_set)), sub_span, sub_dim))
    return out


def brute_count_interior(vertices, k):
    """Lattice points in the relative interior of the k-th dilate.

    Scans the dilate's bounding box and keeps the points on its affine
    hull that satisfy every facet inequality of ``brute_force_hull``
    strictly.
    """
    hull = brute_force_hull(vertices)
    scaled = [tuple(Fraction(c) * k for c in v) for v in hull.vertices]
    ranges = [
        range(ceil(min(v[i] for v in scaled)), floor(max(v[i] for v in scaled)) + 1)
        for i in range(hull.ambient_dim)
    ]
    equations = list(zip(hull.span.rows, hull.span.rhs))
    return sum(
        1
        for x in product(*ranges)
        if all(vdot(row, x) == k * b for row, b in equations)
        and all(vdot(a, x) < k * c for a, c in hull.facets)
    )
