"""Heffter array data model, axiom verification, and column reordering.

An m x n Heffter array holds canonical nonzero residues mod v = 2mn + 1 such
that every row and every column sums to 0 mod v and the mn entries form a
half-set of Z_v.  Rows are checked for simplicity left to right and columns
top to bottom by :func:`verify_heffter`, the one reader of an array's
lines: its report carries their partial sums beside the flags read off them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Sequence

from .errors import InvalidEntryError, InvalidPermutationError, TooLargeError
from .modmath import _is_half_set, _partial_sums, half_bound

MIN_DIMENSION = 3  # everything in scope has at least 3 rows and 3 columns
EXPAND_LIMIT = 2_000_000  # most integers a listing may hold: m x n cells, develop --expand mnv, embed --expand 2mnv


def check_listing(count: int, what: str) -> None:
    """Raise TooLargeError, naming ``what``, when a listing of ``count`` integers exceeds EXPAND_LIMIT."""
    if count > EXPAND_LIMIT:
        raise TooLargeError(f"{what} would list {count} integers, more than {EXPAND_LIMIT}")


@dataclass(frozen=True)
class HeffterArray:
    """Immutable m x n grid of canonical residues mod v = 2mn + 1.

    ``cells`` is the one way in: row i is ``cells[i]``, the columns are
    ``zip(*cells)``.  Construction stores a tuple of tuples, so the array is
    hashable and equal to any array with the same rows, and checks shape,
    entry types and entry ranges only; :func:`verify_heffter` checks the
    axioms (zero sums, half-set), so broken candidates stay representable.
    """

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", _grid(self.cells))
        if len(self.cells) < MIN_DIMENSION:
            raise InvalidEntryError(f"need at least {MIN_DIMENSION} rows")
        widths = {len(row) for row in self.cells}
        if len(widths) != 1:
            raise InvalidEntryError("ragged rows")
        if min(widths) < MIN_DIMENSION:
            raise InvalidEntryError(f"need at least {MIN_DIMENSION} columns")
        v = self.modulus
        bound = half_bound(v)
        for i, row in enumerate(self.cells):
            for j, x in enumerate(row):
                if type(x) is not int or x == 0 or not -bound <= x <= bound:
                    what = f"a canonical nonzero residue mod {v}" if type(x) is int else "an integer"
                    raise InvalidEntryError(f"cell ({i + 1},{j + 1}) = {x!r} is not {what}")

    @property
    def m(self) -> int:
        return len(self.cells)

    @property
    def n(self) -> int:
        return len(self.cells[0])

    @property
    def modulus(self) -> int:
        return 2 * len(self.cells) * len(self.cells[0]) + 1


def _grid(rows: Sequence[Sequence[int]], what: str = "rows") -> tuple[tuple[int, ...], ...]:
    """``rows`` as a tuple of tuples; InvalidEntryError naming ``what`` when one is not iterable."""
    try:
        return tuple(map(tuple, rows))
    except TypeError:
        raise InvalidEntryError(f"{what} must be sequences of integers") from None


def _check_type(value: object, cls: type) -> None:
    """Raise InvalidEntryError unless ``value`` is a ``cls``, so a wrong type is a HeffterError."""
    if not isinstance(value, cls):
        raise InvalidEntryError(f"expected a {cls.__name__}, got {type(value).__name__}")


def from_rows(rows: Sequence[Sequence[int]]) -> HeffterArray:
    """Build a HeffterArray from any nested integer sequences.

    Entries are converted with ``operator.index``, so a float or a string
    cell raises InvalidEntryError instead of being truncated or parsed, and
    so do rows, or a row, that cannot be iterated.
    """
    return HeffterArray(tuple(tuple(index(x) if hasattr(type(x), "__index__") else x for x in row)
                              for row in _grid(rows)))


@dataclass(frozen=True)
class VerificationReport:
    """Per-row / per-column axiom and simplicity flags, and the partial sums read."""

    row_sum_ok: tuple[bool, ...]
    col_sum_ok: tuple[bool, ...]
    half_set_ok: bool
    row_simple: tuple[bool, ...]
    col_simple: tuple[bool, ...]
    row_partial_sums: tuple[tuple[int, ...], ...]
    col_partial_sums: tuple[tuple[int, ...], ...]

    @property
    def is_heffter(self) -> bool:
        """True iff the sum and half-set axioms all hold."""
        return all(self.row_sum_ok) and all(self.col_sum_ok) and self.half_set_ok

    @property
    def is_simple(self) -> bool:
        """True iff every row (left to right) and column (top to bottom) is simple."""
        return all(self.row_simple) and all(self.col_simple)

    @property
    def all_ok(self) -> bool:
        return self.is_heffter and self.is_simple


def verify_heffter(H: HeffterArray) -> VerificationReport:
    """Check every Heffter axiom of H and report each flag and partial sum.

    A line sums to 0 iff its last partial sum is 0, and is simple iff its
    partial sums are distinct, so each line is summed exactly once.  Raises
    InvalidEntryError when H is not a HeffterArray.
    """
    _check_type(H, HeffterArray)
    v = H.modulus
    row_sums = tuple(tuple(_partial_sums(row, v)) for row in H.cells)
    col_sums = tuple(tuple(_partial_sums(col, v)) for col in zip(*H.cells))
    return VerificationReport(
        row_sum_ok=tuple(s[-1] == 0 for s in row_sums),
        col_sum_ok=tuple(s[-1] == 0 for s in col_sums),
        half_set_ok=_is_half_set([x for row in H.cells for x in row], v),
        row_simple=tuple(len(set(s)) == len(s) for s in row_sums),
        col_simple=tuple(len(set(s)) == len(s) for s in col_sums),
        row_partial_sums=row_sums,
        col_partial_sums=col_sums,
    )


def reorder_columns(H: HeffterArray, order: Sequence[int]) -> HeffterArray:
    """Apply the column reordering (a_1, ..., a_n).

    Column a_j of H becomes column j of the result, so each row is reordered
    by the same permutation while columns move as unbroken units.  Raises
    InvalidEntryError when H is not a HeffterArray.
    """
    _check_type(H, HeffterArray)
    try:
        perm = tuple(order)
    except TypeError:  # not iterable: reported as given
        perm = order
    if (not isinstance(perm, tuple) or any(type(a) is not int for a in perm)
            or sorted(perm) != list(range(1, H.n + 1))):
        raise InvalidPermutationError(f"{perm!r} is not a permutation of 1..{H.n}")
    return HeffterArray(
        tuple(tuple(row[a - 1] for a in perm) for row in H.cells)
    )


def transpose(H: HeffterArray) -> HeffterArray:
    """The n x m array with cells[j][i] = H.cells[i][j]; same modulus."""
    _check_type(H, HeffterArray)
    return HeffterArray(tuple(zip(*H.cells)))
