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
the orbit covers all mn cells.  Every line runs forward or backward, so the
walk needs only the first backward row and column: :func:`compose` takes
those two thresholds and walks the mn steps directly, with no table of
successors.  It keeps the name of the permutation it walks because the
benchmark's tracer (``perfbench/tracer.py``) times it as ``orderings.compose``.
A zero-sum line with partial sums s_1, ..., s_k (s_k = 0) reversed has
partial sums -s_{k-1}, ..., -s_1, 0, so it is simple exactly when the line
is, and each part is checked on its forward line.
When m and n are both even no compatible orderings exist (the proof is at
:class:`~heffter.errors.NoCompatibleConstructionError`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import HeffterArray, VerificationReport, verify_heffter
from .errors import NoCompatibleConstructionError, NotHeffterError, NotSimpleError

Cell = tuple[int, int]  # 0-based (row, column)
Parts = tuple[tuple[Cell, ...], ...]


@dataclass(frozen=True)
class CompatibleOrderingPair:
    """Row and column parts, each a cyclic sequence of cells, and the one cycle they compose to."""

    row_parts: Parts
    col_parts: Parts
    composition_cycle: tuple[Cell, ...]


def compose(m: int, n: int, row_from: int, col_from: int) -> tuple[Cell, ...]:
    """The orbit of cell (0, 0) under a row step followed by a column step.

    Rows from ``row_from`` and columns from ``col_from`` run backward.  From
    (i, j) the row step goes to column j + 1, or j - 1 on a backward row, and
    the column step then to row i + 1, or i - 1 on a backward column.  With
    the thresholds of :func:`_checked_lines` the mn cells walked are distinct
    (see :func:`compatible_orderings`), so they are the whole orbit.
    """
    cycle: list[Cell] = []
    i = j = 0
    for _ in range(m * n):
        cycle.append((i, j))
        j = (j - 1 if i >= row_from else j + 1) % n
        i = (i - 1 if j >= col_from else i + 1) % m
    return tuple(cycle)


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
    m, n = H.m, H.n
    return CompatibleOrderingPair(
        _lines(m, n, row_from), _lines(m, n, col_from, columns=True), compose(m, n, row_from, col_from)
    )
