"""Exact lattice-point counting in dilates of polytopes and unions.

The enumeration strategy is: scale all data to integers (dilate the facet
system by ``k``), intersect with the integer bounding box of the dilate,
and walk it with the per-row interval kernel. Whenever every partial sum
provably fits in 64 bits the compiled kernel is used; otherwise, or when
the extension is not built, the pure-Python kernel takes over with
arbitrary-precision integers. Set ``EHRHART_PURE=1`` to force the pure
kernel.

Product-structured unions are counted by inclusion-exclusion with each
term split multiplicatively over its factors, which is what makes
high-dimensional product bodies tractable. The enumeration path never
looks at recorded intersections, so the two routes check each other.
"""

from __future__ import annotations

import math
import os
from typing import Sequence

from . import _enum_py
from .errors import BudgetExceeded, MissingIntersection
from .polytope import ConvexPolytope, Factorization, PolytopalUnion

if os.environ.get("EHRHART_PURE") == "1":
    _fast = None
else:
    try:
        from . import _enum_cy as _fast
    except ImportError:
        _fast = None

DEFAULT_BUDGET = int(os.environ.get("EHRHART_BUDGET", 10**9))

# conservative: every reachable partial sum must stay below 2**62
_INT64_SAFE = 2**62


def kernel_name() -> str:
    """Which kernel backs the int64-safe path: 'compiled' or 'python'."""
    return _fast.KERNEL_NAME if _fast is not None else _enum_py.KERNEL_NAME


def _dilated_system(poly: ConvexPolytope, k: int):
    """Integer box and inequality system of ``k * poly``; None when empty.

    Affine-hull equations are emitted as inequality pairs; a hull equation
    whose scaled right-hand side is not an integer proves the dilate has
    no lattice points at all.
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
    offsets = [c * k for _, c in poly.facets]
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


def _box_size(lo: Sequence[int], hi: Sequence[int]) -> int:
    size = 1
    for l, h in zip(lo, hi):
        size *= h - l + 1
    return size


def _fits_int64(lo, hi, normals, offsets) -> bool:
    for row, c in zip(normals, offsets):
        reach = sum(max(abs(a * l), abs(a * h)) for a, l, h in zip(row, lo, hi))
        if reach + abs(c) >= _INT64_SAFE:
            return False
    return all(abs(b) < _INT64_SAFE for b in list(lo) + list(hi))


def count_convex(poly: ConvexPolytope, k: int, budget: int | None = None) -> int:
    """``|k * poly intersect Z^n|`` by direct enumeration, exactly."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("dilation factor must be a positive integer")
    budget = DEFAULT_BUDGET if budget is None else budget
    system = _dilated_system(poly, k)
    if system is None:
        return 0
    lo, hi, normals, offsets = system
    if _box_size(lo, hi) > budget:
        raise BudgetExceeded(
            f"bounding box of {k} * polytope has {_box_size(lo, hi)} points (budget {budget})"
        )
    if _fast is not None and _fits_int64(lo, hi, normals, offsets):
        return _fast.count_box(lo, hi, normals, offsets)
    return _enum_py.count_box(lo, hi, normals, offsets)


def _count_factored(fact: Factorization, k: int, budget: int | None) -> int:
    out = 1
    for _, factor in fact:
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
    if _box_size(lo, hi) > budget:
        raise BudgetExceeded(
            f"union bounding box has {_box_size(lo, hi)} points (budget {budget})"
        )
    return _enum_py.count_box_union(lo, hi, systems)


def _union_inclusion_exclusion(union: PolytopalUnion, k: int, budget: int | None) -> int:
    if len(union.pieces) > 1 and union.intersections is None:
        raise MissingIntersection(
            "inclusion-exclusion needs recorded pairwise intersections"
        )
    total = 0
    for idx, piece in enumerate(union.pieces):
        fact = None
        if union.product_structure is not None:
            fact = union.product_structure[idx]
        total += (
            _count_factored(fact, k, budget)
            if fact is not None
            else count_convex(piece, k, budget)
        )
    for idx, (_, _, body) in enumerate(union.intersections or ()):
        fact = None
        if union.intersection_products is not None:
            fact = union.intersection_products[idx]
        total -= (
            _count_factored(fact, k, budget)
            if fact is not None
            else count_convex(body, k, budget)
        )
    return total


def count_union(
    union: PolytopalUnion,
    k: int,
    budget: int | None = None,
    strategy: str = "auto",
) -> int:
    """Lattice points of ``k * union``, each point counted once.

    With ``strategy='auto'`` a recorded product structure selects
    inclusion-exclusion over the pieces and recorded intersections;
    otherwise the union's bounding box is enumerated, counting points
    lying in at least one piece (immune to wrongly recorded
    intersections, and used as the cross-check).
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("dilation factor must be a positive integer")
    if strategy == "auto":
        strategy = (
            "inclusion-exclusion" if union.product_structure is not None else "enumerate"
        )
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
    routes agree wherever both are defined, which the tests enforce.
    """

    def __init__(
        self,
        target: ConvexPolytope | PolytopalUnion,
        budget: int | None = None,
        strategy: str = "auto",
    ) -> None:
        self.target = target
        self.budget = budget
        if isinstance(target, PolytopalUnion):
            if strategy == "auto":
                strategy = (
                    "inclusion-exclusion"
                    if target.product_structure is not None
                    else "enumerate"
                )
            self.strategy = strategy
        else:
            self.strategy = "enumerate"
        self._memo: dict[int, int] = {}

    def __call__(self, k: int) -> int:
        if k not in self._memo:
            if isinstance(self.target, PolytopalUnion):
                self._memo[k] = count_union(self.target, k, self.budget, self.strategy)
            else:
                self._memo[k] = count_convex(self.target, k, self.budget)
        return self._memo[k]

    def samples(self) -> dict[int, int]:
        """All counts computed so far, by dilate (report witness data)."""
        return dict(sorted(self._memo.items()))
