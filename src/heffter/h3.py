"""Construction of a simple 3 x n Heffter array for every n >= 3.

The builder reproduces the published case analysis modulo 8: each residue
class has a fixed lead block ``A`` (entries linear in the scale parameter m),
a 3 x 4 repeated block ``A_r`` (entries linear in m and the block index r,
with an alternating global sign), and a column reordering given by step-4
progressions with explicit heads and tails.  The paper's interval tables,
which predict the partial sums of every reordered row, check the proof and
build nothing; they are test data in ``tests/paper_tables.py``.

All block entries are stored as coefficient pairs / triples so each printed
number is auditable one-for-one.  :func:`_residue_class`, every builder's entry,
gives the class and scale m of n and checks n >= 3 and 3n <= ``core.EXPAND_LIMIT``
before anything is built.  Every raw entry lies in [-3n, 3n] \\ {0}, as
tests/test_h3.py proves for all n, so :func:`construct_raw_h3` reduces none mod 6n+1.

n = 3 and n = 4 are explicit simple arrays; n = 8 keeps its published
explicit reordering because the general residue-0 tail differs from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .core import HeffterArray, check_listing, reorder_columns
from .errors import OutOfRangeError

Lin = tuple[int, int]  # (a, b) -> a*m + b
LinR = tuple[int, int, int]  # (a, b, c) -> a*m + b*r + c

H33 = ((-8, -2, -9), (7, -3, -4), (1, 5, -6))
H34 = ((1, 2, 3, -6), (8, -12, -7, 11), (-9, 10, 4, -5))

# Explicit reordering of the published n = 8 example.
R8 = (1, 2, 6, 8, 5, 3, 4, 7)

# A reordering group: explicit head columns, then an arithmetic progression
# start..end (bounds linear in n as (coef, const), step +-4), then a tail.
Group = tuple[tuple[int, ...], Lin, Lin, int, tuple[int, ...]]


@dataclass(frozen=True)
class _Case:
    """One residue class of the main construction."""

    lead: tuple[tuple[Lin, ...], ...]
    repeat: tuple[tuple[LinR, ...], ...]
    groups: tuple[Group, ...]


_CASES: dict[int, _Case] = {
    0: _Case(
        lead=(
            ((-12, -13), (-10, -11), (4, 6), (4, 3)),
            ((4, 4), (-8, -7), (18, 17), (18, 19)),
            ((8, 9), (18, 18), (-22, -23), (-22, -22)),
        ),
        repeat=(
            ((8, 1, 10), (-8, 2, -8), (14, -1, 14), (-4, 2, -1)),
            ((8, -2, 5), (-16, -1, -16), (-4, 2, -2), (-18, -1, -20)),
            ((-16, 1, -15), (24, -1, 24), (-10, -1, -12), (22, -1, 21)),
        ),
        groups=(
            ((), (0, 9), (1, -3), 4, ()),
            ((1,), (0, 11), (1, -1), 4, ()),
            ((2,), (0, 10), (1, -2), 4, ()),
            ((6,), (0, 8), (1, 0), 4, (5, 3, 7, 4)),
        ),
    ),
    1: _Case(
        lead=(
            ((8, 7), (10, 12), (16, 18), (4, 6), (4, 3)),
            ((8, 10), (8, 9), (-12, -14), (-22, -26), (18, 22)),
            ((-16, -17), (-18, -21), (-4, -4), (18, 20), (-22, -25)),
        ),
        repeat=(
            ((-8, 2, -5), (-10, -1, -13), (-24, 1, -27), (-4, 2, -1)),
            ((16, -1, 16), (-4, 2, -2), (8, -2, 8), (-18, -1, -23)),
            ((-8, -1, -11), (14, -1, 15), (16, 1, 19), (22, -1, 24)),
        ),
        groups=(
            ((), (0, 8), (1, -1), 4, ()),
            ((), (0, 3), (1, -2), 4, ()),
            ((5,), (0, 6), (1, -3), 4, ()),
            ((1,), (0, 9), (1, 0), 4, (2, 4)),
        ),
    ),
    2: _Case(
        lead=(
            ((24, 30), (16, 21), (10, 13), (8, 8), (4, 5), (8, 9)),
            ((24, 29), (-8, -11), (-10, -14), (12, 16), (16, 20), (12, 17)),
            ((0, 2), (-8, -10), (0, 1), (-20, -24), (-20, -25), (-20, -26)),
        ),
        repeat=(
            ((-8, 2, -7), (10, 1, 15), (-22, 1, -27), (-8, 2, -6)),
            ((16, -1, 19), (4, -2, 3), (4, -2, 4), (-16, -1, -22)),
            ((-8, -1, -12), (-14, 1, -18), (18, 1, 23), (24, -1, 28)),
        ),
        groups=(
            ((), (0, 10), (1, 0), 4, ()),
            ((), (1, -3), (0, 7), -4, ()),
            ((4, 6), (0, 8), (1, -2), 4, ()),
            ((5,), (0, 9), (1, -1), 4, (2, 3, 1)),
        ),
    ),
    3: _Case(
        lead=(
            ((24, 33), (8, 11), (8, 13), (4, 6), (0, 1), (-12, -17), (8, 10)),
            ((24, 32), (-16, -23), (-12, -18), (10, 15), (20, 27), (-8, -9), (14, 20)),
            ((0, 2), (8, 12), (4, 5), (-14, -21), (-20, -28), (20, 26), (-22, -30)),
        ),
        repeat=(
            ((-16, 1, -22), (24, -1, 31), (4, -2, 4), (-4, 2, -3)),
            ((8, -2, 8), (-8, 2, -7), (-22, 1, -29), (-10, -1, -16)),
            ((8, 1, 14), (-16, -1, -24), (18, 1, 25), (14, -1, 19)),
        ),
        groups=(
            ((), (0, 9), (1, -2), 4, ()),
            ((), (0, 8), (1, -3), 4, ()),
            ((1,), (0, 11), (1, 0), 4, ()),
            ((6, 7), (0, 10), (1, -1), 4, (5, 2, 3, 4)),
        ),
    ),
    4: _Case(
        lead=(
            ((8, 13), (10, 16), (22, 34), (-4, -5), (4, 7), (-22, -35), (-12, -18), (0, -1)),
            ((4, 6), (8, 11), (-4, -8), (22, 33), (-14, -22), (4, 10), (0, -2), (-20, -30)),
            ((-12, -19), (-18, -27), (-18, -26), (-18, -28), (10, 15), (18, 25), (12, 20), (20, 31)),
        ),
        repeat=(
            ((-16, 1, -23), (-8, 2, -12), (14, -1, 21), (4, -2, 3)),
            ((8, 1, 14), (-16, -1, -24), (-10, -1, -17), (18, 1, 29)),
            ((8, -2, 9), (24, -1, 36), (-4, 2, -4), (-22, 1, -32)),
        ),
        groups=(
            ((), (0, 9), (1, -3), 4, ()),
            ((), (0, 11), (1, -1), 4, ()),
            ((4,), (0, 10), (1, -2), 4, ()),
            ((), (0, 12), (1, 0), 4, (1, 2, 6, 5, 7, 8, 3)),
        ),
    ),
    5: _Case(
        lead=(
            ((8, 6), (10, 7), (-16, -10), (-4, -4), (4, 1)),
            ((-16, -9), (8, 5), (4, 2), (-18, -11), (18, 13)),
            ((8, 3), (-18, -12), (12, 8), (22, 15), (-22, -14)),
        ),
        repeat=(
            ((-8, 2, -1), (-14, 1, -8), (16, 1, 11), (4, -2, -1)),
            ((16, -1, 8), (4, -2, 0), (8, -2, 4), (18, 1, 14)),
            ((-8, -1, -7), (10, 1, 8), (-24, 1, -15), (-22, 1, -13)),
        ),
        groups=(
            ((), (0, 9), (1, 0), 4, ()),
            ((5,), (0, 6), (1, -3), 4, ()),
            ((), (0, 3), (1, -2), 4, ()),
            ((1,), (0, 8), (1, -1), 4, (4, 2)),
        ),
    ),
    6: _Case(
        lead=(
            ((24, 18), (-16, -13), (0, -1), (8, 4), (-4, -3), (-8, -5)),
            ((0, 2), (8, 6), (-10, -8), (-20, -14), (-16, -12), (-12, -11)),
            ((24, 17), (8, 7), (10, 9), (12, 10), (20, 15), (20, 16)),
        ),
        repeat=(
            ((-8, 2, -3), (-4, 2, -1), (-4, 2, -2), (8, -2, 2)),
            ((16, -1, 11), (-10, -1, -10), (22, -1, 16), (16, 1, 14)),
            ((-8, -1, -8), (14, -1, 11), (-18, -1, -14), (-24, 1, -16)),
        ),
        groups=(
            ((), (0, 10), (1, 0), 4, ()),
            ((2,), (0, 9), (1, -1), 4, ()),
            ((4,), (0, 7), (1, -3), 4, ()),
            ((1,), (0, 8), (1, -2), 4, (5, 3, 6)),
        ),
    ),
    7: _Case(
        lead=(
            ((24, 21), (16, 15), (4, 3), (-4, -4), (-20, -18), (-12, -11), (-8, -6)),
            ((0, 2), (-8, -8), (-12, -12), (14, 14), (0, 1), (20, 16), (-14, -13)),
            ((24, 20), (-8, -7), (8, 9), (-10, -10), (20, 17), (-8, -5), (22, 19)),
        ),
        repeat=(
            ((-16, 1, -14), (-8, 2, -3), (-18, -1, -16), (4, -2, 1)),
            ((8, 1, 10), (-16, -1, -16), (22, -1, 18), (10, 1, 11)),
            ((8, -2, 4), (24, -1, 19), (-4, 2, -2), (-14, 1, -12)),
        ),
        groups=(
            ((), (0, 10), (1, -1), 4, ()),
            ((2,), (0, 8), (1, -3), 4, ()),
            ((6,), (0, 11), (1, 0), 4, ()),
            # The published reordering prints the tail (4,3,1,5) as a fifth group.
            ((7,), (0, 9), (1, -2), 4, (4, 3, 1, 5)),
        ),
    ),
}


def _lin(e: Lin, m: int) -> int:
    return e[0] * m + e[1]


def _residue_class(n: int) -> tuple[_Case, int]:
    """The residue class of n mod 8 and the scale m at which its forms are read.

    m = n // 8 - (n % 8 < 5) is (n - f) // 8 for the smallest n >= 5 of the
    class, f = n % 8 for classes 5..7 and n % 8 + 8 for classes 0..4, so
    m >= 0 for every n >= 5.  n = 3, 4 (m = -1) are the callers' own cases,
    taken after this call: 3.0 == 3, but only an int n is a size.
    """
    if type(n) is not int or n < 3:
        raise OutOfRangeError(f"no 3 x n Heffter array for n={n!r} < 3")
    check_listing(3 * n, f"a 3 x {n} array")
    return _CASES[n % 8], n // 8 - (n % 8 < 5)


def _expand_group(group: Group, n: int) -> list[int]:
    head, start, end, step, tail = group
    return [*head, *range(_lin(start, n), _lin(end, n) + (1 if step > 0 else -1), step), *tail]


def construct_raw_h3(n: int) -> HeffterArray:
    """The published (unreordered) 3 x n Heffter array over Z_{6n+1}."""
    case, m = _residue_class(n)
    if n == 3:
        return HeffterArray(H33)
    if n == 4:
        return HeffterArray(H34)
    rows = [[_lin(e, m) for e in lead] for lead in case.lead]
    for r in range((n - len(case.lead[0])) // 4):  # the 3 x 4 blocks A_r fill the rest
        sign = -1 if r % 2 else 1
        for row, block in zip(rows, case.repeat):
            row.extend(sign * (a * m + b * r + c) for a, b, c in block)
    return HeffterArray(rows)  # unreduced: HeffterArray raises on a cell outside [-3n, 3n] \ {0}


def standard_reordering(n: int) -> tuple[int, ...]:
    """The column permutation that makes the raw 3 x n array simple.

    Identity for n = 3, 4 (those arrays are simple as printed); the explicit
    published permutation for n = 8; otherwise the residue class's step-4
    progression groups, with empty progressions dropped.
    """
    case, _ = _residue_class(n)
    if n in (3, 4):
        return tuple(range(1, n + 1))
    if n == 8:
        return R8
    return tuple(chain.from_iterable(_expand_group(group, n) for group in case.groups))


def simple_h3(n: int) -> HeffterArray:
    """A simple 3 x n Heffter array for any n >= 3."""
    return reorder_columns(construct_raw_h3(n), standard_reordering(n))

