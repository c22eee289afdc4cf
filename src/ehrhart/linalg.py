"""Exact rational linear algebra.

Scalars are :class:`fractions.Fraction` throughout (aliased ``Rational``),
so every operation in the package is exact; no floating point appears
anywhere. Vectors are plain tuples of Fractions, matrices are sequences of
rows. On top of that this module provides deterministic Gaussian
elimination, integer Smith normal form with unimodular transforms, and the
lattice-solvability query used for face indices: the least dilate ``m``
for which ``A x = m b`` admits an integer solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, Infeasible, NoSolution

Rational = Fraction

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]


def as_vector(coords: Iterable) -> Vector:
    """Coerce an iterable of numbers into a tuple of Fractions."""
    return tuple(Fraction(c) for c in coords)


def _check_dims(u: Sequence, v: Sequence) -> None:
    if len(u) != len(v):
        raise DimensionMismatch(f"dim {len(u)} vs {len(v)}")


def vadd(u: Sequence, v: Sequence) -> Vector:
    _check_dims(u, v)
    return tuple(Fraction(a) + Fraction(b) for a, b in zip(u, v))


def vsub(u: Sequence, v: Sequence) -> Vector:
    _check_dims(u, v)
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(u, v))


def vscale(u: Sequence, c) -> Vector:
    return tuple(Fraction(a) * Fraction(c) for a in u)


def vdot(u: Sequence, v: Sequence) -> Fraction:
    _check_dims(u, v)
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def mat_vec(rows: Sequence[Sequence], v: Sequence) -> Vector:
    return tuple(vdot(row, v) for row in rows)


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
# Gaussian elimination over the rationals
# ---------------------------------------------------------------------------


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with deterministic column-major pivoting.

    Returns the reduced matrix and the list of pivot columns. The pivot in
    each column is the first nonzero entry scanning rows top to bottom, so
    results are reproducible across runs.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
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


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence], ncols: int | None = None) -> list[Vector]:
    """Basis of ``{x : rows @ x = 0}``, deterministic free-variable order."""
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty row set")
        return [tuple(Fraction(int(i == j)) for j in range(ncols)) for i in range(ncols)]
    ncols = len(rows[0])
    mat, pivots = rref(rows)
    basis = []
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -mat[i][free]
        basis.append(tuple(vec))
    return basis


def solve_rational(rows: Sequence[Sequence], rhs: Sequence) -> Vector:
    """Exact solution of ``A x = b``.

    Underdetermined systems get free variables set to zero, with pivots
    chosen in column-major order, so the returned solution is deterministic.
    Raises :class:`NoSolution` when the system is inconsistent.
    """
    if not rows:
        raise ValueError("need at least one row")
    _check_dims(rows, rhs)
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    mat, pivots = rref(aug)
    for i in range(len(mat)):
        if all(x == 0 for x in mat[i][:ncols]) and mat[i][ncols] != 0:
            raise NoSolution("inconsistent linear system")
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        if c == ncols:
            raise NoSolution("inconsistent linear system")
        x[c] = mat[i][ncols]
    return tuple(x)


def independent_rows(rows: Sequence[Sequence]) -> list[int]:
    """Indices of a maximal linearly independent subset, scanned in order."""
    chosen: list[int] = []
    current: list[Sequence] = []
    current_rank = 0
    for i, row in enumerate(rows):
        if current_rank == len(row):
            break  # full rank: no later row can be independent
        if any(Fraction(x) != 0 for x in row):
            r = rank(current + [row])
            if r > current_rank:
                chosen.append(i)
                current.append(row)
                current_rank = r
    return chosen


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form ``U @ A @ V = S`` over the integers.

    ``U`` and ``V`` are unimodular; ``S`` is diagonal with nonnegative
    entries satisfying ``s1 | s2 | ...``. Pivots are chosen as the smallest
    nonzero absolute value in the remaining submatrix, ties broken
    row-major, which keeps both the output and the intermediate growth
    reproducible. Suited to desk-scale matrices (tens of rows).
    """
    if not matrix or not matrix[0]:
        raise ValueError("matrix must be nonempty")
    m, n = len(matrix), len(matrix[0])
    S = [[int(x) for x in row] for row in matrix]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i: int, j: int) -> None:
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i: int, j: int) -> None:
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_sub(dst: int, src: int, q: int) -> None:
        S[dst] = [a - q * b for a, b in zip(S[dst], S[src])]
        U[dst] = [a - q * b for a, b in zip(U[dst], U[src])]

    def col_sub(dst: int, src: int, q: int) -> None:
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


def integer_solution(rows: Sequence[Sequence[int]], rhs: Sequence) -> IntVector | None:
    """An integer solution of ``A x = c`` via Smith back-substitution, or None."""
    if not rows:
        return ()
    U, S, V = smith_normal_form(rows)
    m, n = len(rows), len(rows[0])
    uc = mat_vec(U, as_vector(rhs))
    diag = [S[i][i] for i in range(min(m, n))]
    r = sum(1 for d in diag if d != 0)
    for i in range(r, m):
        if uc[i] != 0:
            return None
    y = [Fraction(0)] * n
    for i in range(r):
        q = uc[i] / diag[i]
        if q.denominator != 1:
            return None
        y[i] = q
    x = mat_vec(V, y)
    return tuple(int(c) for c in x)


# ---------------------------------------------------------------------------
# Affine subspaces and the minimal integral dilate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineSubspace:
    """The solution set ``{x : A x = b}`` with integer, gcd-reduced rows.

    ``rows`` may be empty, in which case the subspace is all of R^n.
    """

    ambient_dim: int
    rows: IntMatrix
    rhs: Vector

    @classmethod
    def from_rational_rows(cls, ambient_dim: int, rows: Sequence[Sequence], rhs: Sequence) -> "AffineSubspace":
        """Build from rational equations, clearing denominators row by row."""
        norm_rows = []
        norm_rhs = []
        for row, b in zip(rows, rhs):
            fr = [Fraction(x) for x in row]
            b = Fraction(b)
            scale = math.lcm(*(f.denominator for f in fr)) if fr else 1
            ints = [int(f * scale) for f in fr]
            b = b * scale
            g = math.gcd(*ints) if ints else 0
            if g > 1:
                ints = [x // g for x in ints]
                b = b / g
            norm_rows.append(tuple(ints))
            norm_rhs.append(b)
        return cls(ambient_dim, tuple(norm_rows), tuple(norm_rhs))

    def contains(self, point: Sequence) -> bool:
        if len(point) != self.ambient_dim:
            raise DimensionMismatch(f"point dim {len(point)} vs {self.ambient_dim}")
        return all(vdot(row, point) == b for row, b in zip(self.rows, self.rhs))

    def scaled(self, k: int) -> "AffineSubspace":
        """The subspace of the dilate: ``{x : A x = k b}``."""
        return AffineSubspace(self.ambient_dim, self.rows, tuple(b * k for b in self.rhs))


def min_dilate_with_lattice_point(sub: AffineSubspace) -> int:
    """Least ``m >= 1`` such that ``A x = m b`` has an integer solution.

    Closed form from the Smith decomposition ``U A V = S``: consistency
    over the rationals requires ``(U b)_i = 0`` beyond the rank, and then
    ``m`` is the lcm of the denominators of ``(U b)_i / s_i`` over the
    nonzero diagonal. Raises :class:`Infeasible` when the subspace is
    empty over the rationals (a precondition violation).
    """
    if not sub.rows:
        return 1
    U, S, _ = smith_normal_form(sub.rows)
    m, n = len(sub.rows), sub.ambient_dim
    ub = mat_vec(U, sub.rhs)
    diag = [S[i][i] for i in range(min(m, n))]
    r = sum(1 for d in diag if d != 0)
    for i in range(r, m):
        if ub[i] != 0:
            raise Infeasible("affine subspace is empty over the rationals")
    out = 1
    for i in range(r):
        out = math.lcm(out, (ub[i] / diag[i]).denominator)
    return out
