"""Ideal equal-power-sum pairs (Prouhet-Tarry-Escott solutions).

An ideal solution of size ``m`` is a pair of integer multisets
``s_1..s_m`` and ``t_1..t_m`` with equal power sums through degree
``m - 1``, stored here in the shape the union construction
needs: all ``s_i > 0``, all ``t_j > 0`` except a single trailing
``t_m = 0``. Shifting every entry by a constant preserves all the power
sum identities, so any pair whose overall minimum is attained once can
be shifted into this shape.

The table of sizes 2-10 and 12 is the literal ``_ENTRIES``; no search is
implemented. It is built on the first lookup, never at import, and
refused whole with ``UnverifiedSolution`` unless every entry passes both
the power-sum check and the product identity below.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from typing import Sequence

from .errors import NotAvailable, SizeMismatch, UnverifiedSolution
from .polynomials import poly_mul, poly_trim


class PteSolution(namedtuple("PteSolution", "s t")):
    __slots__ = ()

    def __new__(cls, s: tuple[int, ...], t: tuple[int, ...]):
        if len(s) != len(t):
            raise SizeMismatch(f"sides have sizes {len(s)} and {len(t)}")
        return tuple.__new__(cls, (s, t))

    @property
    def size(self) -> int:
        return len(self.s)


def power_sum(k: int, xs: Sequence[int]) -> int:
    """``p_k``: sum of k-th powers; ``p_0`` counts the variables."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    return sum(x**k for x in xs)


def verify(sol: PteSolution) -> bool:
    """Power sums equal through degree ``size - 1``, plus the sign shape; a
    pair of size below 2 is no ideal solution, as in ``table_lookup``."""
    m = sol.size
    if m < 2 or any(x <= 0 for x in sol.s):
        return False
    if sol.t[-1] != 0 or any(x <= 0 for x in sol.t[:-1]):
        return False
    return all(power_sum(k, sol.s) == power_sum(k, sol.t) for k in range(m))


def difference_polynomial(sol: PteSolution) -> list[int]:
    """Coefficients of ``prod(s_i x + 1) - prod(t_j x + 1)``, constant first.

    Trailing zeros are trimmed. The trailing ``t_m = 0`` contributes the
    constant factor 1 and is skipped.
    """
    left = [1]
    for x in sol.s:
        left = poly_mul(left, [1, x])
    right = [1]
    for x in sol.t[:-1]:
        right = poly_mul(right, [1, x])
    right += [0] * (len(left) - len(right))
    return poly_trim([l - r for l, r in zip(left, right)])


def product_identity_check(sol: PteSolution) -> bool:
    """``prod(s_i x + 1) - prod(t_j x + 1)`` collapses to ``(prod s_i) x^m``.

    Newton's identities turn the equal power sums into equal elementary
    symmetric functions below the top degree, so every mixed term of the
    two expanded products cancels.
    """
    return difference_polynomial(sol) == [0] * sol.size + [math.prod(sol.s)]


# One ideal pair per size, normalized so that t ends with its single zero
# and all other entries are positive. Entries are transcribed from the
# classical published lists of ideal solutions (sizes 7-10 and 12 are the
# well-known symmetric ones); ``_table`` re-verifies every entry, so the
# verifier is the source of truth, not the transcription.
_ENTRIES = {
    2: ((1, 2), (3, 0)),
    3: ((1, 2, 6), (4, 5, 0)),
    4: ((1, 2, 9, 10), (4, 7, 11, 0)),
    5: ((1, 2, 10, 14, 18), (4, 8, 16, 17, 0)),
    6: ((1, 2, 10, 12, 20, 21), (5, 6, 16, 17, 22, 0)),
    7: ((1, 13, 38, 44, 75, 84, 102), (18, 27, 58, 64, 89, 101, 0)),
    8: ((1, 2, 11, 20, 30, 39, 48, 49), (4, 9, 23, 27, 41, 46, 50, 0)),
    9: ((1, 17, 41, 65, 112, 115, 168, 174, 198), (24, 30, 83, 86, 133, 157, 181, 197, 0)),
    10: (
        (5, 6, 133, 182, 242, 384, 444, 493, 620, 621),
        (12, 125, 213, 214, 412, 413, 501, 614, 626, 0),
    ),
    12: (
        (3, 5, 30, 57, 104, 116, 186, 198, 245, 272, 297, 299),
        (11, 24, 65, 90, 129, 173, 212, 237, 278, 291, 302, 0),
    ),
}


@lru_cache(maxsize=None)
def _table() -> dict[int, PteSolution]:
    table: dict[int, PteSolution] = {}
    for size, (s, t) in _ENTRIES.items():
        sol = PteSolution(s, t)
        if sol.size != size:
            raise UnverifiedSolution(f"table entry {size} has size {sol.size}")
        if not verify(sol):
            raise UnverifiedSolution(f"table entry of size {size} fails power sums")
        if not product_identity_check(sol):
            raise UnverifiedSolution(f"table entry of size {size} fails product identity")
        table[size] = sol
    return table


def available_sizes() -> list[int]:
    return sorted(_table())


def table_lookup(size: int) -> PteSolution:
    """A shipped, verified solution of the given size.

    Raises :class:`NotAvailable` for sizes with no known ideal solution
    (below 2, 11, and above 12): the table holds 2-10 and 12.
    """
    if size < 2:
        raise NotAvailable(f"no ideal solutions of size {size}")
    sol = _table().get(size)
    if sol is None:
        raise NotAvailable(f"no ideal solution of size {size} is known")
    return sol
