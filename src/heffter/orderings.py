"""Compatible row/column orderings of a simple Heffter array.

When at least one dimension is odd, the rows and columns of a simple m x n
Heffter array can be cyclically ordered so that composing the two orderings
permutes all mn cells in a single cycle.  For odd n = 2t+1: rows run left to
right, columns 1..t+1 run top to bottom and columns t+2..n bottom to top.
For even n (and odd m) the same construction applied to the transpose gives,
re-expressed on the original array, rows 1..(m+1)/2 left to right, the
remaining rows right to left, and every column top to bottom.

The composed step moves along the row ordering first and then along the
column ordering, so from h_{1,1} it visits h_{2,2}, h_{3,3}, ... with the
vertical direction flipping once the reversed region is entered.  Each full
sweep across the n columns shifts the row index by exactly one, which is why
the orbit covers all mn cells.  A zero-sum line with partial sums s_1, ...,
s_k (s_k = 0) reversed has partial sums -s_{k-1}, ..., -s_1, 0, so it is
simple exactly when the line is, and each part is checked on its forward line.
When m and n are both even no compatible orderings exist (the proof is at
:class:`~heffter.errors.NoCompatibleConstructionError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, TypeVar

from .core import HeffterArray, VerificationReport, verify_heffter
from .errors import (
    NoCompatibleConstructionError,
    NotHeffterError,
    NotSimpleError,
    OrderingMismatchError,
)

Cell = tuple[int, int]  # 0-based (row, column)
Parts = tuple[tuple[Cell, ...], ...]

T = TypeVar("T")


@dataclass(frozen=True)
class CyclicOrdering:
    """One cyclic sequence of cells per row (or per column) of an array."""

    array: HeffterArray
    parts: Parts

    def successor(self) -> dict[Cell, Cell]:
        """The permutation of cells sending each cell to the next in its part."""
        succ: dict[Cell, Cell] = {}
        for part in self.parts:
            for k, cell in enumerate(part):
                succ[cell] = part[(k + 1) % len(part)]
        return succ


@dataclass(frozen=True)
class CompatibleOrderingPair:
    """Row and column orderings whose composition is one cycle on all cells."""

    omega_r: CyclicOrdering
    omega_c: CyclicOrdering
    composition_cycle: tuple[Cell, ...]


def compose(omega_r: CyclicOrdering, omega_c: CyclicOrdering) -> dict[Cell, Cell]:
    """The composed cell permutation: a row step followed by a column step.

    Matches the published trajectory of the construction (from h_{1,1} the
    orbit continues h_{2,2}, h_{3,3}, ..., with the vertical direction
    flipping after the top-to-bottom columns end).
    """
    if omega_r.array != omega_c.array:
        raise OrderingMismatchError("orderings belong to different arrays")
    succ_r = omega_r.successor()
    succ_c = omega_c.successor()
    if set(succ_r) != set(succ_c):
        raise OrderingMismatchError("orderings cover different cell sets")
    return {cell: succ_c[succ_r[cell]] for cell in succ_r}


def is_single_cycle(perm: Mapping[T, T]) -> bool:
    """True iff the permutation has exactly one orbit covering its domain."""
    return bool(perm) and len(orbit(perm, next(iter(perm)))) == len(perm)


def orbit(perm: Mapping[T, T], start: T) -> tuple[T, ...]:
    """The orbit of ``start`` under repeated application of ``perm``."""
    out = [start]
    cur = perm[start]
    while cur != start:
        out.append(cur)
        cur = perm[cur]
    return tuple(out)


def _lines(m: int, n: int, reversed_from: int, columns: bool = False) -> Parts:
    """Rows (or columns) of an m x n grid; lines from ``reversed_from`` on run backwards."""
    parts = []
    for a in range(n if columns else m):
        cells = tuple((b, a) for b in range(m)) if columns else tuple((a, b) for b in range(n))
        parts.append(cells[::-1] if a >= reversed_from else cells)
    return tuple(parts)


def _checked_lines(H: HeffterArray) -> tuple[VerificationReport, int, int]:
    """``verify_heffter(H)`` and the first backward row and column (m or n if none).

    Raises NoCompatibleConstructionError when both dimensions are even, then,
    rows before columns, NotHeffterError for a part that does not sum to 0
    and NotSimpleError for one with a repeated partial sum on its forward line.
    """
    m, n, v = H.m, H.n, H.modulus
    if m % 2 == 0 and n % 2 == 0:
        raise NoCompatibleConstructionError(
            f"both dimensions even ({m} x {n}): no compatible orderings exist, since "
            f"they compose to an even permutation and a cycle on all {m * n} cells is odd"
        )
    report = verify_heffter(H)
    for what, sums_ok, simple in (
        ("row", report.row_sum_ok, report.row_simple),
        ("column", report.col_sum_ok, report.col_simple),
    ):
        for k, (sum_ok, is_simple) in enumerate(zip(sums_ok, simple), 1):
            if not sum_ok:
                raise NotHeffterError(f"{what} part {k} does not sum to 0 mod {v}")
            if not is_simple:
                raise NotSimpleError(f"{what} part {k} has a repeated partial sum mod {v}")
    # Odd n = 2t+1 runs columns t+2..n backward, even n (odd m) rows (m+3)/2..m.
    return (report, m, (n + 1) // 2) if n % 2 == 1 else (report, (m + 1) // 2, n)


def compatible_orderings(H: HeffterArray) -> CompatibleOrderingPair:
    """Build compatible simple orderings for H; needs m or n odd.

    The composition cycle starts at cell (0, 0) and needs no length check:
    each sweep of n composed steps (or m, for even n) moves the walk one row
    (or column), so the orbit covers all mn cells whenever m or n is odd.
    Raises what :func:`_checked_lines` raises, in its order.
    """
    _, row_from, col_from = _checked_lines(H)
    omega_r = CyclicOrdering(H, _lines(H.m, H.n, row_from))
    omega_c = CyclicOrdering(H, _lines(H.m, H.n, col_from, columns=True))
    return CompatibleOrderingPair(omega_r, omega_c, orbit(compose(omega_r, omega_c), (0, 0)))
