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
the orbit covers all mn cells.  Reversing or rotating a zero-sum cyclic
sequence permutes its partial-sum differences, so every reversed part of a
Heffter array stays simple; both the zero sum and the simplicity are checked.
When m and n are both even no compatible orderings exist (the proof is at
:class:`~heffter.errors.NoCompatibleConstructionError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, TypeVar

from .core import HeffterArray
from .errors import (
    NoCompatibleConstructionError,
    NotHeffterError,
    NotSimpleError,
    OrderingMismatchError,
)
from .modmath import _partial_sums

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


def _lines(m: int, n: int, reversed_from: int, columns: bool = False) -> Parts:
    """Rows (or columns) of an m x n grid; lines from ``reversed_from`` on run backwards."""
    parts = []
    for a in range(n if columns else m):
        cells = tuple((b, a) for b in range(m)) if columns else tuple((a, b) for b in range(n))
        parts.append(cells[::-1] if a >= reversed_from else cells)
    return tuple(parts)


def _ordering_parts(m: int, n: int) -> tuple[Parts, Parts]:
    """Row and column parts of the construction; both sides even has none (see the error)."""
    if n % 2 == 1:
        return _lines(m, n, m), _lines(m, n, (n + 1) // 2, columns=True)
    if m % 2 == 1:
        return _lines(m, n, (m + 1) // 2), _lines(m, n, n, columns=True)
    raise NoCompatibleConstructionError(
        f"both dimensions even ({m} x {n}): no compatible orderings exist, since "
        f"they compose to an even permutation and a cycle on all {m * n} cells is odd"
    )


def _check_parts_simple(ordering: CyclicOrdering, what: str) -> None:
    v = ordering.array.modulus
    for k, seq in enumerate(ordering.element_parts()):
        sums = _partial_sums(seq, v)
        if sums[-1]:
            raise NotHeffterError(f"{what} part {k + 1} does not sum to 0 mod {v}")
        if len(set(sums)) != len(sums):
            raise NotSimpleError(
                f"{what} part {k + 1} has a repeated partial sum mod {v}"
            )


def compatible_orderings(H: HeffterArray) -> CompatibleOrderingPair:
    """Build compatible simple orderings for H; needs m or n odd.

    The composition cycle starts at cell (0, 0) and needs no length check:
    each sweep of n composed steps (or m, for even n) moves the walk one row
    (or column), so the orbit covers all mn cells whenever m or n is odd.
    Raises NoCompatibleConstructionError when both dimensions are even,
    NotHeffterError if a row or column does not sum to 0, and NotSimpleError
    if a constructed part has a repeated partial sum.
    """
    omega_r, omega_c = (CyclicOrdering(H, parts) for parts in _ordering_parts(H.m, H.n))
    _check_parts_simple(omega_r, "row")
    _check_parts_simple(omega_c, "column")
    return CompatibleOrderingPair(omega_r, omega_c, orbit(compose(omega_r, omega_c), (0, 0)))
