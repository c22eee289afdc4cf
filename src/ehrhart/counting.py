"""Exact lattice-point counting in dilates of polytopes and unions.

The enumeration strategy is: scale all data to integers (dilate the facet
system by ``k``), intersect with the integer bounding box of the dilate,
and walk it with the per-row interval kernel of ``_enum_py`` on Python
integers, which never overflow. The budget (``DEFAULT_BUDGET`` unless a
caller passes ``budget``) caps the nodes that walk visits, not the points
of the box; the kernel raises ``BudgetExceeded`` once a walk overdraws it.

A union of at most two pieces with recorded intersections and some piece
that carries factors (a body built by ``embed_product``) is counted by
inclusion-exclusion, each term the product of its factors' counts, which
is what makes high-dimensional product bodies tractable. Only pairwise
intersections are recorded, so larger unions are enumerated. The
enumeration path never looks at recorded intersections or factors, so
the two routes check each other; ``count_convex`` enumerates even a body
with factors.

Interior counts (``interior=True``) feed Ehrhart-Macdonald reciprocity:
for a convex rational polytope ``P``, ``L_P(-k) = (-1)**dim P`` times the
number of lattice points in the relative interior of ``kP``, so a
``CountFunction`` of a convex body is defined at every ``k != 0``.
"""

from __future__ import annotations

import math

from . import _enum_py
from .errors import MissingIntersection
from .polytope import ConvexPolytope, PolytopalUnion

DEFAULT_BUDGET = 10**9


def kernel_name() -> str:
    """Name of the kernel that counts lattice points: always 'python'."""
    return "python"


def _dilated_system(poly: ConvexPolytope, k: int, interior: bool = False):
    """Integer box and inequality system of ``k * poly``; None when empty.

    Affine-hull equations are emitted as inequality pairs; a hull equation
    whose scaled right-hand side is not an integer proves the dilate has
    no lattice points at all. With ``interior`` the facet inequalities are
    strict: facet normals and offsets are integers, so on lattice points
    ``a.x < k*c`` is ``a.x <= k*c - 1``.
    """
    n = poly.ambient_dim
    lo = []
    hi = []
    for j in range(n):
        coords = [v[j] * k for v in poly.vertices]
        lo.append(math.ceil(min(coords)))
        hi.append(math.floor(max(coords)))
        if lo[j] > hi[j]:
            return None
    normals = [list(a) for a, _ in poly.facets]
    strict = 1 if interior else 0
    offsets = [c * k - strict for _, c in poly.facets]
    for row, b in zip(poly.span.rows, poly.span.rhs):
        rhs = b * k
        if rhs.denominator != 1:
            return None
        rhs = int(rhs)
        normals.append(list(row))
        offsets.append(rhs)
        normals.append([-x for x in row])
        offsets.append(-rhs)
    return lo, hi, normals, offsets


def count_convex(
    poly: ConvexPolytope, k: int, budget: int | None = None, interior: bool = False
) -> int:
    """``|k * poly intersect Z^n|`` by direct enumeration, exactly.

    With ``interior`` only the points of the relative interior of
    ``k * poly`` are counted.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("dilation factor must be a positive integer")
    budget = DEFAULT_BUDGET if budget is None else budget
    system = _dilated_system(poly, k, interior)
    if system is None:
        return 0
    return _enum_py.count_box(*system, budget)


def _count_term(body: ConvexPolytope, k: int, budget: int | None) -> int:
    """One inclusion-exclusion term: the product of its factors' counts
    when it has factors, else ``count_convex``."""
    if body.factors is None:
        return count_convex(body, k, budget)
    out = 1
    for _, factor in body.factors:
        out *= count_convex(factor, k, budget)
        if out == 0:
            return 0
    return out


def _union_enumerate(union: PolytopalUnion, k: int, budget: int | None) -> int:
    budget = DEFAULT_BUDGET if budget is None else budget
    systems = []
    los = []
    his = []
    for piece in union.pieces:
        system = _dilated_system(piece, k)
        if system is None:
            continue
        lo, hi, normals, offsets = system
        los.append(lo)
        his.append(hi)
        systems.append((normals, offsets))
    if not systems:
        return 0
    lo = [min(l[j] for l in los) for j in range(union.ambient_dim)]
    hi = [max(h[j] for h in his) for j in range(union.ambient_dim)]
    return _enum_py.count_box_union(lo, hi, systems, budget)


def _union_inclusion_exclusion(union: PolytopalUnion, k: int, budget: int | None) -> int:
    if len(union.pieces) > 2:
        raise MissingIntersection(
            "inclusion-exclusion over pairwise intersections is exact for at most "
            f"two pieces, not {len(union.pieces)}"
        )
    if len(union.pieces) > 1 and union.intersections is None:
        raise MissingIntersection(
            "inclusion-exclusion needs recorded pairwise intersections"
        )
    return sum(_count_term(piece, k, budget) for piece in union.pieces) - sum(
        _count_term(body, k, budget) for _, _, body in union.intersections or ()
    )


def _union_strategy(union: PolytopalUnion) -> str:
    """What ``'auto'`` means for ``union``: inclusion-exclusion when it has
    at most two pieces, its intersections are recorded and some piece has
    factors, else enumeration."""
    pairwise = len(union.pieces) <= 2 and union.intersections is not None
    if pairwise and any(p.factors is not None for p in union.pieces):
        return "inclusion-exclusion"
    return "enumerate"


def count_union(
    union: PolytopalUnion,
    k: int,
    budget: int | None = None,
    strategy: str = "auto",
) -> int:
    """Lattice points of ``k * union``, each point counted once.

    With ``strategy='auto'`` recorded intersections together with pieces
    that have factors select inclusion-exclusion over the pieces and
    intersections, for a union of at most two pieces: only the pairwise
    terms are recorded, and with three or more pieces the higher ones are
    missing. Otherwise the union's bounding box is enumerated, counting
    points lying in at least one piece (immune to wrongly recorded
    intersections, and used as the cross-check).
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("dilation factor must be a positive integer")
    if strategy == "auto":
        strategy = _union_strategy(union)
    if strategy == "enumerate":
        return _union_enumerate(union, k, budget)
    if strategy == "inclusion-exclusion":
        return _union_inclusion_exclusion(union, k, budget)
    raise ValueError(f"unknown strategy {strategy!r}")


def count(obj: ConvexPolytope | PolytopalUnion, k: int, budget: int | None = None) -> int:
    if isinstance(obj, PolytopalUnion):
        return count_union(obj, k, budget)
    return count_convex(obj, k, budget)


def count_series(
    obj: ConvexPolytope | PolytopalUnion, k_max: int, budget: int | None = None
) -> list[int]:
    """Counts at dilates ``1..k_max``."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    return [count(obj, k, budget) for k in range(1, k_max + 1)]


class CountFunction:
    """Memoized ``k -> |kX intersect Z^n|`` with its strategy recorded.

    The strategy tag only documents how values are produced; the counting
    routes agree wherever both are defined, which the tests enforce. For a
    convex body a negative ``k`` gives the Ehrhart quasi-polynomial's value
    there by reciprocity, ``(-1)**dim`` times the interior count of
    ``|k| * X``; a union, where reciprocity fails, takes ``k >= 1`` only.
    """

    def __init__(self, target: ConvexPolytope | PolytopalUnion, budget: int | None = None) -> None:
        self.target = target
        self.budget = budget
        if isinstance(target, PolytopalUnion):
            self.strategy = _union_strategy(target)
        else:
            self.strategy = "enumerate"
        self._memo: dict[int, int] = {}

    def __call__(self, k: int) -> int:
        if k not in self._memo:
            if isinstance(self.target, PolytopalUnion):
                self._memo[k] = count_union(self.target, k, self.budget, self.strategy)
            elif k < 0:
                sign = (-1) ** self.target.intrinsic_dim
                self._memo[k] = sign * count_convex(self.target, -k, self.budget, interior=True)
            else:
                self._memo[k] = count_convex(self.target, k, self.budget)
        return self._memo[k]

    def samples(self) -> dict[int, int]:
        """All values computed so far, by dilate (report witness data).

        A negative key ``-k`` holds ``L(-k)``, not a count: it is
        ``(-1)**dim`` times the interior count of ``k * X``.
        """
        return dict(sorted(self._memo.items()))
