"""Inputs, tasks and output checks of the benchmark workloads.

Inputs are plain data made from ``(workload, seed, round)`` alone: vertex
lists after a seeded signed coordinate permutation and integer
translation, which keep every lattice-point count and face index. The
library receives only those lists. Checks use invariants and recorded
values, never witness bytes, so they survive changes that keep results.

- ``verify-p2``: ``ehrhart verify <claim> --max-p 2`` for every claim, in
  one process, which is the work of ``verify all --max-p 2``. It touches
  every layer and has no generated inputs.
- ``count-deep``: single large-dilate counts (``ehrhart count --k``). The
  kernel's cost depends mostly on which coordinate it resolves last, so
  each round counts every body once with each coordinate last; the other
  coordinates, signs and translation are seeded.
- ``hull-faces``: ``from_vertices`` -> ``faces`` in every dimension ->
  ``index_sequence`` -> ``chain_check`` on family point lists and seeded
  rational clouds with non-extreme points. It counts nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ehrhart import cli, counting, indices, polytope, pte
from ehrhart import constructions as C
from ehrhart.polytope import PolytopalUnion

@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


def rng_for(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def family_points(family: str, p: int, n: int | None = None) -> list[tuple]:
    """The point list a family constructor hands to ``from_vertices``."""
    if family == "pentagon":
        return list(C.pentagon(p).vertices)
    if family == "heptagon":
        return list(C.rectangle(p).vertices) + list(C.pentagon(p).vertices)
    if family == "hull":
        return list(C.prism(n, p).vertices) + list(C.pentagon_pyramid(n, p).vertices)
    if family == "pentagon-pyramid":
        return list(C.pentagon_pyramid(n, p).vertices)
    if family == "middle":
        return list(C.prism_shared_facet(n, p).vertices) + list(
            C.pyramid_shared_facet(n, p).vertices
        )
    if family == "simplex":
        return list(C.simplex(n, p).vertices)
    raise ValueError(f"no point list for family {family!r}")


def orientation(rng: random.Random, dim: int, last: int | None = None):
    """A seeded signed permutation and translation; ``last`` fixes the last coordinate."""
    order = [j for j in range(dim) if j != last]
    rng.shuffle(order)
    if last is not None:
        order.append(last)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    shift = [rng.randint(-5, 5) for _ in range(dim)]
    return order, signs, shift


def orient(points, order, signs, shift) -> list[tuple]:
    return [tuple(s * p[j] + t for j, s, t in zip(order, signs, shift)) for p in points]


# ---------------------------------------------------------------------------
# verify-p2
# ---------------------------------------------------------------------------


def _run_claim(claim: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", claim, "--max-p", "2"])
    return code, out.getvalue()


def check_claim(output) -> str | None:
    code, text = output
    try:
        outcome = json.loads(text)["outcome"]
    except (ValueError, KeyError, TypeError):
        return f"unreadable report (exit {code})"
    if outcome != "pass":  # "skipped: budget exceeded" is a failure too
        return f"outcome {outcome!r} (exit {code})"
    return None if code == 0 else f"exit code {code}"


def verify_tasks() -> list[Task]:
    return [Task(claim, lambda c=claim: _run_claim(c), check_claim) for claim in cli.CLAIMS]


# ---------------------------------------------------------------------------
# count-deep
# ---------------------------------------------------------------------------

# (family, p, n, {dilate: recorded count}); the five cases of
# benchmarks/bench_kernels.py come first, each also one dilate deeper
COUNT_CASES = (
    ("pentagon", 3, None, {2000: 84017335, 2001: 84101364}),
    ("heptagon", 2, None, {1200: 12966001, 1201: 12984012}),
    ("hull", 2, 3, {60: 4081051, 61: 4286959}),
    ("hull", 2, 4, {16: 618897, 17: 779961}),
    ("hull", 3, 4, {12: 1035811, 13: 1401960}),
    ("pentagon", 2, None, {1999: 23985003, 2000: 24009001}),
    ("heptagon", 3, None, {1500: 57763501, 1501: 57833531}),
    ("hull", 3, 3, {40: 5979121, 41: 6434582}),
    ("pentagon-pyramid", 2, 4, {20: 104236, 21: 125169}),
    ("pentagon-pyramid", 3, 4, {16: 152928, 17: 191763}),
)
BARN_CASE = (4, 2, {6: 200839, 7: 359388})  # (n, p, {dilate: count}), counted by enumeration


def count_inputs(seed: int, round_index: int) -> list[dict]:
    """One item per oriented body, with the dilates to count it at."""
    rng = rng_for("count-deep", seed, round_index)
    inputs = []
    for family, p, n, counts in COUNT_CASES:
        points = family_points(family, p, n)
        dim = len(points[0])
        label = f"{family}({p})" if n is None else f"{family}({n},{p})"
        for last in range(dim):
            inputs.append({
                "name": f"{label} last=x{last}",
                "points": orient(points, *orientation(rng, dim, last)),
                "counts": counts,
            })
    n, p, counts = BARN_CASE
    inputs.append({
        "name": f"barn({n},{p}) enumerate",
        "union_shift": [rng.randint(-5, 5) for _ in range(n)],
        "counts": counts,
    })
    return inputs


def _expect(expected: int) -> Callable[[object], str | None]:
    return lambda count: None if count == expected else f"count {count} != recorded {expected}"


def count_tasks(inputs: list[dict]) -> list[Task]:
    tasks = []
    for item in inputs:
        if "union_shift" in item:
            # Rebuilding the barn's 16- and 20-vertex pieces through the hull
            # costs seconds per orientation, so the union is only translated.
            n, p, _ = BARN_CASE
            barn = C.barn(n, p, pte.table_lookup(n - 1))
            union = PolytopalUnion(n, tuple(piece.translate(item["union_shift"]) for piece in barn.pieces))
            for k, expected in item["counts"].items():
                run = lambda union=union, k=k: counting.count_union(union, k, strategy="enumerate")
                tasks.append(Task(f"{item['name']} k={k}", run, _check_union(barn, k, expected)))
        else:
            poly = polytope.from_vertices(item["points"])
            for k, expected in item["counts"].items():
                run = lambda poly=poly, k=k: counting.count_convex(poly, k)
                tasks.append(Task(f"{item['name']} k={k}", run, _expect(expected)))
    return tasks


def _check_union(barn, k: int, expected: int) -> Callable[[object], str | None]:
    def check(count) -> str | None:
        error = _expect(expected)(count)
        if error:
            return error
        other = counting.count_union(barn, k, strategy="inclusion-exclusion")
        return None if other == count else f"enumeration {count} != inclusion-exclusion {other}"

    return check


# ---------------------------------------------------------------------------
# hull-faces
# ---------------------------------------------------------------------------

# Sorted by cost, seven tasks sit below the middle(4,p) pair and seven
# above, and over three rounds the hull(4,p) group holds fifteen samples:
# the pooled median and the tail (the eleventh largest) each fall inside
# one family rather than in the gap between two.
HULL_FAMILIES = (
    ("simplex", 2, 5), ("simplex", 3, 5), ("hull", 2, 3), ("hull", 3, 3),
    ("middle", 2, 4), ("middle", 3, 4),
    ("hull", 2, 4), ("hull", 3, 4), ("hull", 4, 4), ("hull", 5, 4), ("hull", 6, 4),
)
CLOUDS = ((3, 0), (3, 1), (3, 2), (4, 0), (4, 1))  # (dimension, index)
CLOUD_EXTREME = 9  # random points per cloud, before the centroids
CLOUD_INNER = 3  # centroids of three random points: never vertices


def point_cloud(rng: random.Random, dim: int) -> list[tuple]:
    while True:
        pts = [
            tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(dim))
            for _ in range(CLOUD_EXTREME)
        ]
        if affine_rank(pts) == dim:
            break
    for _ in range(CLOUD_INNER):
        a, b, c = rng.sample(pts[:CLOUD_EXTREME], 3)
        pts.append(tuple((x + y + z) / 3 for x, y, z in zip(a, b, c)))
    return pts


def hull_inputs(seed: int, round_index: int) -> list[dict]:
    rng = rng_for("hull-faces", seed, round_index)
    inputs = []
    for family, p, n in HULL_FAMILIES:
        points = family_points(family, p, n)
        inputs.append({
            "name": f"{family}({n},{p})",
            "points": orient(points, *orientation(rng, len(points[0]))),
        })
    for dim, index in CLOUDS:
        inputs.append({"name": f"cloud{dim}d-{index}", "points": point_cloud(rng, dim)})
    return inputs


def _hull_pipeline(points):
    poly = polytope.from_vertices(points)
    fvector = [len(polytope.faces(poly, i)) for i in range(poly.intrinsic_dim + 1)]
    seq = indices.index_sequence(poly)
    return poly, fvector, seq, indices.chain_check(seq)


def affine_rank(points) -> int:
    """Dimension of the affine hull, by exact elimination (independent of the library)."""
    rows = [[Fraction(x) - Fraction(b) for x, b in zip(p, points[0])] for p in points[1:]]
    rank = 0
    ncols = len(points[0])
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def check_hull(points) -> Callable[[object], str | None]:
    def check(output) -> str | None:
        poly, fvector, seq, chain_ok = output
        d = poly.intrinsic_dim
        if d != affine_rank(points):
            return f"intrinsic dimension {d} != {affine_rank(points)}"
        for x in points:
            if not poly.span.contains(x):
                return f"input point {x} is off the affine hull"
            for a, c in poly.facets:
                if sum(ai * xi for ai, xi in zip(a, x)) > c:
                    return f"input point {x} violates facet {a} <= {c}"
        for a, c in poly.facets:
            tight = [v for v in poly.vertices if sum(ai * vi for ai, vi in zip(a, v)) == c]
            if affine_rank(tight) != d - 1:
                return f"facet {a} <= {c} lacks {d} independent tight vertices"
        euler = sum((-1) ** i * f for i, f in enumerate(fvector[:d]))
        if euler != 1 - (-1) ** d:
            return f"f-vector {fvector} breaks Euler-Poincare"
        if fvector[d - 1] != len(poly.facets):
            return f"f-vector {fvector} disagrees with {len(poly.facets)} facets"
        if not chain_ok:
            return f"index chain {seq.values} does not hold"
        return None

    return check


def hull_tasks(inputs: list[dict]) -> list[Task]:
    return [
        Task(item["name"], lambda pts=item["points"]: _hull_pipeline(pts), check_hull(item["points"]))
        for item in inputs
    ]


# ---------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, round_index: int) -> list[dict]:
    """The plain-data inputs of one round; the same arguments give the same inputs."""
    if workload == "verify-p2":
        return []
    if workload == "count-deep":
        return count_inputs(seed, round_index)
    if workload == "hull-faces":
        return hull_inputs(seed, round_index)
    raise ValueError(f"unknown workload {workload!r}")


def make_tasks(workload: str, inputs: list[dict]) -> list[Task]:
    """Library objects for one round; count-deep builds its bodies here, untimed."""
    if workload == "verify-p2":
        return verify_tasks()
    if workload == "count-deep":
        return count_tasks(inputs)
    return hull_tasks(inputs)
