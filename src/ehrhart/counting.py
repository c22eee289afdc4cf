"""Exact lattice-point counting in dilates of polytopes and unions.

The enumeration strategy is: scale all data to integers (dilate the facet
system by ``k``), intersect with the integer bounding box of the dilate,
and walk it with the per-row interval kernel of ``_enum_py`` on Python
integers, which never overflow; a body and a union enumerate through the
same walk. The budget (``DEFAULT_BUDGET`` unless a caller passes
``budget``, which must not be negative) caps what that walk charges: a
node per sub-walk entered below the root and per envelope piece or range
of a slice, not the points of the box. An overdraw raises ``BudgetExceeded``.
Hulls and face lattices charge their own work under the default alone.

Product structure is read off inequalities alone: the kernel counts
every single system as the product of its counts on its coordinate
blocks, those that no inequality couples (``_enum_py.coordinate_blocks``),
which is what makes high-dimensional product bodies tractable. When the
facets of every piece split into at least two blocks, as those of the
barns' product pieces do, the union is counted by inclusion-exclusion
over every intersection of its pieces (Beck & Robins, *Computing the
Continuous Discretely*). An intersection of H-polytopes is their stacked
inequality system, so each term is one system, counted from the pieces'
own inequalities. A subset is extended only while its intersection has
lattice points. The terms share one budget: each subset visited costs
one node plus what its walks charge. Any other union enumerates its
points directly, walking its pieces' systems together; that walk never
splits a system, so the two routes still check each other. The split
itself is checked against a plain walk (``oracles.walk_count``) and a
point-by-point scan in the tests.

What a count does not need ``k`` for is built once and kept with the
body or union, never in a module-level cache. A body keeps its integer
``rows`` (with the kernel's blocks and level skeletons) and its
``dilate_counts``, so each signed ``(k, budget)`` is counted once; a
union keeps its ``dilate_counts`` by ``(k, strategy, budget)`` and the
``term_rows`` of each intersection of pieces, by piece indices. Both
keep their ``fitted`` quasi-polynomial in ``fits``, by budget. A count
or fit that overdraws its budget is never kept, so a smaller budget
still raises. Per dilate only the box, offsets and walk are computed.

``count(obj, k)`` is ``L(k)``. Ehrhart-Macdonald reciprocity defines it
for a convex body at every ``k != 0``: ``L_P(-k) = (-1)**dim P`` times the
lattice points in the relative interior of ``kP``, which strict facet
inequalities count, so ``fitted`` samples a body on both sides of zero.
A union, where reciprocity fails, takes ``k >= 1`` only.
"""

from __future__ import annotations

from . import _enum_py
from ._enum_py import DEFAULT_BUDGET
from .errors import BudgetExceeded, InvalidInput
from .polytope import ConvexPolytope, PolytopalUnion, denominator
from .quasipoly import QuasiPolynomial, fit


def kernel_name() -> str:
    """Name of the kernel that counts lattice points: always 'python'."""
    return "python"


def _budget(budget: int | None) -> int:
    """The budget a count runs under: ``DEFAULT_BUDGET`` for None."""
    if budget is None:
        return DEFAULT_BUDGET
    if budget < 0:
        raise InvalidInput(f"budget must be non-negative, got {budget}")
    return budget


def _dilated_system(poly: ConvexPolytope, k: int):
    """Integer box, rows and offsets of ``k * poly``, or of the relative
    interior of ``|k| * poly`` for ``k < 0``; None when empty.

    The rows are the body's own ``rows``, the same at every dilate: its
    facet normals, then each affine-hull equation as an inequality pair.
    The box and the equations' right-hand sides are the integer ``bounds``
    times ``k``, floor-divided by their scale; a remainder on a right-hand
    side proves the dilate has no lattice points. For ``k < 0`` the facet
    inequalities are strict: facet normals and offsets are integers, so
    on lattice points ``a.x < |k|*c`` is ``a.x <= |k|*c - 1``.
    """
    strict, k = (1, -k) if k < 0 else (0, k)
    scale, least, greatest, rhs = poly.bounds
    lo = [-(-x * k // scale) for x in least]
    hi = [x * k // scale for x in greatest]
    if any(l > h for l, h in zip(lo, hi)):
        return None
    offsets = [c * k - strict for _, c in poly.facets]
    for b in rhs:
        q, r = divmod(b * k, scale)
        if r:
            return None
        offsets += (q, -q)
    return lo, hi, poly.rows, offsets


def count_convex(poly: ConvexPolytope, k: int, budget: int | None = None) -> int:
    """``L(k)`` by direct enumeration, exactly: ``|k * poly intersect Z^n|``
    for ``k >= 1``, ``(-1)**dim`` times the relative-interior count of
    ``|k| * poly`` for ``k <= -1``. Each ``(k, budget)`` is counted once
    per body and kept in its ``dilate_counts``."""
    if not isinstance(k, int) or k == 0:
        raise InvalidInput(f"a body's dilation factor must be a nonzero integer, got {k!r}")
    budget = _budget(budget)
    key = (k, budget)
    found = poly.dilate_counts.get(key)
    if found is None:
        system = _dilated_system(poly, k)
        found = 0 if system is None else _enum_py.count_box(*system, budget)
        if k < 0:
            found *= (-1) ** poly.intrinsic_dim
        poly.dilate_counts[key] = found
    return found


def _piece_systems(union: PolytopalUnion, k: int):
    """The dilated systems of the pieces of ``k * union``, None for a piece
    without box points, and the box that holds them all; None when every
    piece is empty, which either route counts as 0."""
    systems = [_dilated_system(piece, k) for piece in union.pieces]
    found = [s for s in systems if s is not None]
    if not found:
        return None
    lo = [min(s[0][j] for s in found) for j in range(union.ambient_dim)]
    hi = [max(s[1][j] for s in found) for j in range(union.ambient_dim)]
    return systems, lo, hi


def _union_enumerate(union: PolytopalUnion, systems: list, lo: list, hi: list, budget: int) -> int:
    return _enum_py.count_box_union(lo, hi, [s[2:] for s in systems if s is not None], budget)


def _union_inclusion_exclusion(
    union: PolytopalUnion, systems: list, lo: list, hi: list, budget: int
) -> int:
    left = budget
    overdrawn = f"inclusion-exclusion costs more than {budget} nodes"

    def terms(term: tuple[int, ...], lo: list[int], hi: list[int], offsets: list) -> int:
        """Sum over nonempty sets T of pieces after those of ``term`` of
        ``(-1)**(|T| + 1)`` times the points of the intersection of
        ``term``'s pieces that lie in every member of T."""
        nonlocal left
        total = 0
        for i in range(term[-1] + 1 if term else 0, len(systems)):
            if systems[i] is None:
                continue
            left -= 1
            if left < 0:
                raise BudgetExceeded(overdrawn)
            s_lo, s_hi, _, s_offsets = systems[i]
            lo_i = [max(a, b) for a, b in zip(lo, s_lo)]
            hi_i = [min(a, b) for a, b in zip(hi, s_hi)]
            term_i, offsets_i = term + (i,), offsets + s_offsets
            rows = union.term_rows.get(term_i)
            if rows is None:
                rows = union.term_rows[term_i] = _enum_py.Rows(
                    [row for j in term_i for row in union.pieces[j].rows]
                )
            # a walk overdraws what is left, but the caller gave ``budget``
            try:
                here, walked = _enum_py.walk_box(lo_i, hi_i, [(rows, offsets_i)], left)
            except BudgetExceeded:
                raise BudgetExceeded(overdrawn) from None
            left -= walked
            if here:  # else every larger intersection is empty too
                total += here - terms(term_i, lo_i, hi_i, offsets_i)
        return total

    return terms((), lo, hi, [])


def _union_strategy(union: PolytopalUnion) -> str:
    """What ``'auto'`` means for ``union``: inclusion-exclusion when the
    facets of every piece split into at least two coordinate blocks, else
    enumeration. A piece is full-dimensional, so its rows are its facets."""
    if all(len(piece.rows.blocks) > 1 for piece in union.pieces):
        return "inclusion-exclusion"
    return "enumerate"


def count_union(
    union: PolytopalUnion,
    k: int,
    budget: int | None = None,
    strategy: str = "auto",
) -> int:
    """Lattice points of ``k * union``, each point counted once.

    With ``strategy='auto'``, pieces whose facets all split into several
    coordinate blocks select inclusion-exclusion over every intersection
    of the pieces, each counted from their stacked inequalities. Otherwise
    the union's bounding box is enumerated, counting points lying in at
    least one piece once; that route is also the cross-check. ``'auto'``
    reads the pieces' structure alone: ``m`` overlapping product pieces
    give ``2**m - 1`` terms, where ``strategy='enumerate'`` walks once.
    """
    if not isinstance(k, int) or k < 1:
        raise InvalidInput(f"a union's dilation factor must be a positive integer, got {k!r}")
    budget = _budget(budget)
    routes = {"enumerate": _union_enumerate, "inclusion-exclusion": _union_inclusion_exclusion}
    if strategy == "auto":
        strategy = _union_strategy(union)
    route = routes.get(strategy)
    if route is None:
        raise InvalidInput(f"unknown strategy {strategy!r}; choose from auto, {', '.join(routes)}")
    key = (k, strategy, budget)
    found = union.dilate_counts.get(key)
    if found is None:
        pieces = _piece_systems(union, k)
        found = union.dilate_counts[key] = 0 if pieces is None else route(union, *pieces, budget)
    return found


def count(obj: ConvexPolytope | PolytopalUnion, k: int, budget: int | None = None) -> int:
    """``L(k)``: ``count_union`` of a union, ``count_convex`` of a body."""
    if isinstance(obj, PolytopalUnion):
        return count_union(obj, k, budget)
    return count_convex(obj, k, budget)


def fitted(
    obj: ConvexPolytope | PolytopalUnion, budget: int | None = None
) -> tuple[QuasiPolynomial, dict[int, int]]:
    """The dilate-count quasi-polynomial of ``obj`` and the samples it was
    fitted from, by dilate (report witness data), kept in ``obj.fits``.

    The degree is the intrinsic dimension of a body and the ambient one of
    a union, the modulus its ``denominator``. A body is sampled on both
    sides of zero, so a negative key ``-k`` holds ``L(-k)``; a union at
    positive dilates only.
    """
    budget = _budget(budget)
    found = obj.fits.get(budget)
    if found is None:
        samples = {}

        def counter(k: int) -> int:
            samples[k] = count(obj, k, budget)
            return samples[k]

        union = isinstance(obj, PolytopalUnion)
        degree = obj.ambient_dim if union else obj.intrinsic_dim
        qp = fit(counter, degree, denominator(obj), two_sided=not union)
        found = obj.fits[budget] = qp, dict(sorted(samples.items()))
    return found
