"""Exact rational linear algebra.

Every operation is exact; no floating point appears anywhere. Rational
values are :class:`fractions.Fraction` where they meet the caller:
``vdot`` returns one, the nullspace basis vectors are tuples of them,
and ``as_vector`` coerces any sequence of numbers into such a tuple. Matrices are sequences of rows of ``int`` or ``Fraction``.
Inside, the work is on Python ints, in two eliminations. The first, an
integer row echelon form reached by unimodular row steps, carries every
solver: nullspace, independent rows, and the lattice-solvability query
used for face indices, the least dilate ``m`` for which ``A x = m b``
admits an integer solution, which substitutes on integers over one
running denominator. Since the steps are unimodular, the echelon rows
span the lattice of the input rows, which is what that query needs. The
second, a fraction-free Gauss-Jordan elimination, inverts a nonsingular
integer matrix up to its determinant; the hull reads the facets of its
starting simplex off that inverse.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, Infeasible

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


def as_vector(coords: Iterable) -> Vector:
    """Coerce an iterable of numbers into a tuple of Fractions; a Fraction
    is kept as it is."""
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coords)


def vdot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"dim {len(u)} vs {len(v)}")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def integerize(vals: Iterable) -> IntVector:
    """Scale a rational tuple by a positive factor to coprime integers.

    The all-zero tuple is returned unchanged. Only positive scaling is
    applied, so inequality orientation survives.
    """
    fracs = [Fraction(v) for v in vals]
    scale = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * scale) for f in fracs]
    g = math.gcd(*ints) if ints else 0
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def canonical_equation(coeffs: Iterable) -> IntVector:
    """Like :func:`integerize` but with sign fixed: first nonzero entry > 0."""
    ints = integerize(coeffs)
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = tuple(-x for x in ints)
    return ints


# ---------------------------------------------------------------------------
# Integer eliminations
# ---------------------------------------------------------------------------


def _echelon(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Integer row echelon form and its pivot columns.

    Every caller passes integer rows; ``Fraction`` entries work too, and
    stay fractions. Elimination uses unimodular steps only: swapping two
    rows, or subtracting an integer multiple of one row from another. Per
    column, the row with the least nonzero absolute value below the
    finished rows is moved up and the others are reduced modulo it, until
    one nonzero entry is left (Euclid's algorithm on the column). Rows
    are never divided, so the echelon rows span the same lattice as the
    input, not only the same rational space. The pivot columns are those
    of the rational row echelon form, and the rows from ``len(pivots)``
    on are zero.
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        r = len(pivots)
        live = [i for i in range(r, len(mat)) if mat[i][c]]
        if not live:
            continue
        while True:
            top = min(live, key=lambda i: abs(mat[i][c]))
            mat[r], mat[top] = mat[top], mat[r]
            if len(live) == 1:
                break
            prow, p = mat[r], mat[r][c]
            for i in range(r + 1, len(mat)):
                q = mat[i][c] // p
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], prow)]
            live = [i for i in range(r, len(mat)) if mat[i][c]]
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    return mat, pivots


def _scaled_inverse(matrix: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """``(d, d * matrix^-1)`` for a nonsingular square integer matrix,
    where ``d`` is its determinant up to sign, by fraction-free (Bareiss)
    Gauss-Jordan elimination on ``[matrix | I]``: every division is
    exact, and after the last column the left block is ``d * I``."""
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    prev = 1
    for k in range(n):
        top = next(i for i in range(k, n) if aug[i][k])
        aug[k], aug[top] = aug[top], aug[k]
        prow, p = aug[k], aug[k][k]
        for i in range(n):
            if i != k:
                a = aug[i][k]
                aug[i] = [(p * x - a * y) // prev for x, y in zip(aug[i], prow)]
        prev = p
    return prev, [row[n:] for row in aug]


def pivots_and_nullspace(rows: Sequence[Sequence], ncols: int) -> tuple[list[int], list[Vector]]:
    """The pivot columns of ``rows`` and a basis of ``{x : rows @ x = 0}``,
    from one elimination: per free column in order, the solution with
    that variable 1 and the other free variables 0. ``rows`` may be empty."""
    mat, pivots = _echelon(rows)
    basis = []
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for row, c in reversed(list(zip(mat, pivots))):  # back substitution
            rest = sum(row[j] * x[j] for j in range(c + 1, ncols) if row[j])
            x[c] = Fraction(-rest, row[c])
        basis.append(tuple(x))
    return pivots, basis


def independent_rows(rows: Sequence[Sequence]) -> list[int]:
    """Indices of a maximal linearly independent subset, scanned in order:
    the pivot columns of the transpose."""
    return _echelon(list(zip(*rows)))[1]


# ---------------------------------------------------------------------------
# Affine subspaces and the minimal integral dilate
# ---------------------------------------------------------------------------


class AffineSubspace(namedtuple("AffineSubspace", "ambient_dim rows rhs")):
    """The solution set ``{x : A x = b}``: ``rows`` are the integer rows
    of ``A`` (tuples), ``rhs`` the ``Fraction`` entries of ``b``.

    A body's span has gcd-reduced rows; a face span also carries the
    normals of the facets tight on it, which need not be (the facet
    ``2x <= 1`` gives the row ``(2,)``). ``rows`` may be empty, in which
    case the subspace is all of R^n.
    """

    __slots__ = ()

    def contains(self, point: Sequence) -> bool:
        if len(point) != self.ambient_dim:
            raise DimensionMismatch(f"point dim {len(point)} vs {self.ambient_dim}")
        return all(vdot(row, point) == b for row, b in zip(self.rows, self.rhs))



def min_dilate_with_lattice_point(sub: AffineSubspace) -> int:
    """Least ``m >= 1`` such that ``A x = m b`` has an integer solution.

    The integer echelon form of the columns of ``A`` is a basis ``H`` of
    the lattice they span, so ``A x = m b`` has an integer solution
    exactly when ``m y`` is integral for the unique ``y`` with
    ``H y = b``. Forward substitution over the pivot rows finds ``y`` as
    integers ``Y`` over one running denominator ``den``, so ``m`` is
    ``den / gcd(den, Y)``. Raises :class:`Infeasible` when a row without
    a pivot leaves a nonzero residual, that is, when the subspace is
    empty over the rationals (a precondition violation).
    """
    if not sub.rows:
        return 1
    basis, pivots = _echelon(list(zip(*sub.rows)))
    rhs_den = math.lcm(*(b.denominator for b in sub.rhs))
    lift = 1  # y = Y / den with den = lift * rhs_den
    ys: list[int] = []
    for t, b in enumerate(sub.rhs):
        residual = b.numerator * (rhs_den // b.denominator) * lift - sum(
            c * basis[j][t] for j, c in enumerate(ys)
        )
        if len(ys) < len(pivots) and pivots[len(ys)] == t:
            p = basis[len(ys)][t]
            ys = [c * abs(p) for c in ys]
            ys.append(residual if p > 0 else -residual)
            lift *= abs(p)
        elif residual:
            raise Infeasible("affine subspace is empty over the rationals")
    den = lift * rhs_den
    return den // math.gcd(den, *ys)
