"""Ideal equal-power-sum pairs (Prouhet-Tarry-Escott solutions).

An ideal solution of size ``m`` is a pair of integer multisets
``s_1..s_m`` and ``t_1..t_m`` with equal power sums through degree
``m - 1``, stored here in the shape the union construction
needs: all ``s_i > 0``, all ``t_j > 0`` except a single trailing
``t_m = 0``. Shifting every entry by a constant preserves all the power
sum identities, so any pair whose overall minimum is attained once can
be shifted into this shape.

The shipped table covers sizes 2-10 and 12, transcribed from the
classical published solution lists; no search is implemented and the
verifier, not the transcription, is the source of truth: the table load
hard-fails unless every entry passes both the power-sum check and the
product identity below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Sequence

from .errors import NotAvailable, SizeMismatch, UnverifiedSolution
from .polynomials import poly_mul, poly_trim


@dataclass(frozen=True)
class PteSolution:
    s: tuple[int, ...]
    t: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.s) != len(self.t):
            raise SizeMismatch(f"sides have sizes {len(self.s)} and {len(self.t)}")

    @property
    def size(self) -> int:
        return len(self.s)


def power_sum(k: int, xs: Sequence[int]) -> int:
    """``p_k``: sum of k-th powers; ``p_0`` counts the variables."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    return sum(x**k for x in xs)


def verify(sol: PteSolution) -> bool:
    """Power sums equal through degree ``size - 1``, plus the sign shape."""
    m = sol.size
    if any(x <= 0 for x in sol.s):
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


@lru_cache(maxsize=None)
def _table() -> dict[int, PteSolution]:
    text = resources.files("ehrhart").joinpath("data/pte_table.txt").read_text()
    table: dict[int, PteSolution] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        size_part, rest = line.split(":", 1)
        s_part, t_part = rest.split(";")
        sol = PteSolution(
            tuple(int(x) for x in s_part.split(",")),
            tuple(int(x) for x in t_part.split(",")),
        )
        if sol.size != int(size_part):
            raise UnverifiedSolution(f"table entry size mismatch on line {line!r}")
        if not verify(sol):
            raise UnverifiedSolution(f"table entry of size {sol.size} fails power sums")
        if not product_identity_check(sol):
            raise UnverifiedSolution(f"table entry of size {sol.size} fails product identity")
        table[sol.size] = sol
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
