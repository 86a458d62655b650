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
the orbit covers all mn cells.  Reversing or rotating a cyclic sequence
permutes its partial-sum differences, so every reversed part stays simple;
this is nevertheless re-checked defensively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, TypeVar

from .core import HeffterArray
from .errors import (
    NoCompatibleConstructionError,
    OrderingMismatchError,
    SimplicityLostError,
)
from .modmath import _is_simple

Cell = tuple[int, int]  # 0-based (row, column)

T = TypeVar("T")


@dataclass(frozen=True)
class CyclicOrdering:
    """One cyclic sequence of cells per row (or per column) of an array."""

    array: HeffterArray
    parts: tuple[tuple[Cell, ...], ...]

    def successor(self) -> dict[Cell, Cell]:
        """The permutation of cells sending each cell to the next in its part."""
        succ: dict[Cell, Cell] = {}
        for part in self.parts:
            for k, cell in enumerate(part):
                succ[cell] = part[(k + 1) % len(part)]
        return succ

    def element_parts(self) -> tuple[tuple[int, ...], ...]:
        """The parts as sequences of array entries instead of coordinates."""
        cells = self.array.cells
        return tuple(tuple(cells[i][j] for i, j in part) for part in self.parts)


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


def _row_parts(m: int, n: int, reversed_from: int | None = None) -> tuple[tuple[Cell, ...], ...]:
    parts = []
    for i in range(m):
        cells = tuple((i, j) for j in range(n))
        if reversed_from is not None and i >= reversed_from:
            cells = cells[::-1]
        parts.append(cells)
    return tuple(parts)


def _col_parts(m: int, n: int, reversed_from: int | None = None) -> tuple[tuple[Cell, ...], ...]:
    parts = []
    for j in range(n):
        cells = tuple((i, j) for i in range(m))
        if reversed_from is not None and j >= reversed_from:
            cells = cells[::-1]
        parts.append(cells)
    return tuple(parts)


def _check_parts_simple(ordering: CyclicOrdering, what: str) -> None:
    v = ordering.array.modulus
    for k, seq in enumerate(ordering.element_parts()):
        if not _is_simple(seq, v):
            raise SimplicityLostError(
                f"{what} part {k + 1} has a repeated partial sum mod {v}"
            )


def compatible_orderings(H: HeffterArray) -> CompatibleOrderingPair:
    """Build compatible simple orderings for H; needs m or n odd.

    The returned composition cycle starts at cell (0, 0) and has length mn.
    Raises NoCompatibleConstructionError when both dimensions are even and
    SimplicityLostError if any constructed part fails the simplicity check
    (which requires H to be simple in the natural orders to begin with).
    """
    m, n = H.m, H.n
    if n % 2 == 1:
        t = (n - 1) // 2
        omega_r = CyclicOrdering(H, _row_parts(m, n))
        omega_c = CyclicOrdering(H, _col_parts(m, n, reversed_from=t + 1))
    elif m % 2 == 1:
        half = (m + 1) // 2
        omega_r = CyclicOrdering(H, _row_parts(m, n, reversed_from=half))
        omega_c = CyclicOrdering(H, _col_parts(m, n))
    else:
        raise NoCompatibleConstructionError(
            f"both dimensions even ({m} x {n}): no ordering construction known"
        )
    _check_parts_simple(omega_r, "row")
    _check_parts_simple(omega_c, "column")
    perm = compose(omega_r, omega_c)
    cycle = orbit(perm, (0, 0))
    if len(cycle) != m * n:
        raise NoCompatibleConstructionError(
            f"composition splits into several cycles (orbit {len(cycle)} of {m * n})"
        )
    return CompatibleOrderingPair(omega_r, omega_c, cycle)
