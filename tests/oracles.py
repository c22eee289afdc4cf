"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the production code paths: hull
membership is decided by barycentric coordinates over vertex subsets,
facets by testing every spanning subset of points, face dimensions by the
affine hull of every closed vertex set, determinants come from Bareiss
elimination, Smith diagonals from minor gcds, and minimal dilates from
explicit small searches.
"""

from fractions import Fraction
from itertools import combinations
from math import ceil, floor, gcd

from ehrhart.linalg import (
    as_vector,
    integerize,
    nullspace,
    rank,
    solve_rational,
    vdot,
    vscale,
    vsub,
)
from ehrhart.polytope import ConvexPolytope, Face, affine_hull


def _solve_exact(rows, rhs):
    """Tiny deterministic Gaussian solver (None when inconsistent)."""
    m, n = len(rows), len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x


def in_hull(point, vertices):
    """Membership in conv(vertices) by barycentric coordinates.

    Tries every (d+1)-subset of the vertices; the point is inside iff
    some affinely independent subset carries it with nonnegative weights
    summing to one (Caratheodory).
    """
    d = len(point)
    for sub in combinations(vertices, min(d + 1, len(vertices))):
        k = len(sub)
        rows = [[Fraction(sub[j][i]) for j in range(k)] for i in range(d)]
        rows.append([Fraction(1)] * k)
        lam = _solve_exact(rows, list(point) + [1])
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
        kernel = nullspace(dirs, ncols=dim) if dirs else nullspace([], dim)
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
            out.append(Face(tuple(sorted(idx_set)), sub_span, sub_dim))
    return out
