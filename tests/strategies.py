"""Shared ``hypothesis`` strategies for the property tests."""

from fractions import Fraction

from hypothesis import strategies as st


def rationals(bound, max_den=3):
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, max_den))


@st.composite
def clouds(draw, max_dim=5, bound=6, max_den=3):
    """Rational point clouds with duplicates and interior points, in their
    own dimension or affinely embedded in a larger one; intrinsic and
    ambient dimension at most ``max_dim``, numerators at most ``bound``,
    denominators at most ``max_den``."""
    intrinsic = draw(st.integers(1, max_dim))
    ambient = draw(st.integers(intrinsic, max_dim))
    size = draw(st.integers(intrinsic + 1, intrinsic + 4))
    pts = [tuple(draw(rationals(bound, max_den)) for _ in range(intrinsic)) for _ in range(size)]
    for _ in range(draw(st.integers(0, 2))):
        pts.append(draw(st.sampled_from(pts)))  # duplicate
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        pts.append(tuple((x + y) / 2 for x, y in zip(a, b)))  # never a new vertex
    if ambient == intrinsic:
        return pts
    matrix = [[draw(st.integers(-2, 2)) for _ in range(intrinsic)] for _ in range(ambient)]
    shift = [draw(rationals(bound, max_den)) for _ in range(ambient)]
    return [
        tuple(sum(m * x for m, x in zip(row, p)) + t for row, t in zip(matrix, shift))
        for p in pts
    ]
