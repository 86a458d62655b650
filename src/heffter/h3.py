"""Construction of a simple 3 x n Heffter array for every n >= 3.

The builder reproduces the published case analysis modulo 8: each residue
class has a fixed lead block ``A`` (entries linear in the scale parameter m),
a 3 x 4 repeated block ``A_r`` (entries linear in m and the block index r,
with an alternating global sign), a column reordering given by step-4
progressions with explicit heads and tails, and interval tables predicting
the partial sums of every reordered row.

All block entries and interval bounds are stored as coefficient pairs /
triples so each printed number is auditable one-for-one.  The printed
interval tables contain a handful of typos; they are kept verbatim and the
corrections, established by direct partial-sum computation, live in
:data:`TABLE_ERRATA` (see :func:`table_errata`).

n = 3 and n = 4 are explicit simple arrays; n = 8 keeps its published
explicit reordering because the general residue-0 tail differs from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable

from .core import HeffterArray, from_rows, reorder_columns
from .errors import OutOfRangeError, UnsupportedError
from .modmath import _canon_all

Lin = tuple[int, int]  # (a, b) -> a*m + b
LinR = tuple[int, int, int]  # (a, b, c) -> a*m + b*r + c

# Interval atoms for the partial-sum tables: ("i", lo, hi) is {lo..hi},
# ("i2", lo, hi) is {lo, lo+2, ..., hi}, ("s", x) a singleton; bounds are Lin.
Atom = tuple

H33 = ((-8, -2, -9), (7, -3, -4), (1, 5, -6))
H34 = ((1, 2, 3, -6), (8, -12, -7, 11), (-9, 10, 4, -5))

# Explicit reordering and printed partial-sum sets for the published n = 8 example.
R8 = (1, 2, 6, 8, 5, 3, 4, 7)
SUMS8 = (
    frozenset({36, 25, 17, 16, 26, 32, 35, 0}),
    frozenset({4, 46, 30, 10, 15, 32, 2, 0}),
    frozenset({9, 27, 2, 23, 8, 34, 12, 0}),
)

# A reordering group: explicit head columns, then an arithmetic progression
# start..end (bounds linear in n as (coef, const), step +-4), then a tail.
Group = tuple[tuple[int, ...], Lin, Lin, int, tuple[int, ...]]


@dataclass(frozen=True)
class _Case:
    """One residue class of the main construction."""

    first_n: int  # smallest n of the class; m = (n - first_n) / 8
    lead: tuple[tuple[Lin, ...], ...]
    repeat: tuple[tuple[LinR, ...], ...]
    groups: tuple[Group, ...]
    sums: tuple[tuple[tuple[Atom, ...], ...], ...]  # [row][group] -> atoms

    def scale(self, n: int) -> int:
        m, rem = divmod(n - self.first_n, 8)
        if rem or m < 0:
            raise OutOfRangeError(f"n={n} is not in this residue class")
        return m


_CASES: dict[int, _Case] = {
    0: _Case(
        first_n=8,
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
        sums=(
            (
                (("i", (39, 39), (40, 38)), ("i", (0, 1), (1, 0))),
                (("i", (36, 36), (37, 36)), ("i", (23, 23), (24, 22))),
                (("i2", (26, 25), (28, 25)), ("i2", (32, 33), (34, 31))),
                (
                    ("i2", (16, 16), (18, 16)),
                    ("i2", (18, 17), (20, 17)),
                    ("s", (26, 26)),
                    ("s", (30, 32)),
                    ("s", (0, 0)),
                ),
            ),
            (
                (("i2", (40, 46), (42, 44)), ("i2", (46, 49), (48, 47))),
                (("i2", (2, 4), (4, 6)), ("i2", (4, 8), (6, 4))),
                (("i", (12, 14), (13, 13)), ("i", (43, 46), (44, 45))),
                (
                    ("i", (27, 30), (28, 30)),
                    ("i", (8, 10), (9, 10)),
                    ("s", (16, 15)),
                    ("s", (34, 32)),
                    ("s", (30, 30)),
                    ("s", (0, 0)),
                ),
            ),
            (
                (("i", (0, 1), (1, 0)), ("i", (15, 15), (16, 14))),
                (("i", (8, 9), (9, 9)), ("i", (19, 22), (20, 21))),
                (("i", (2, 4), (3, 3)), ("i", (25, 27), (26, 27))),
                (
                    ("i", (1, 2), (2, 2)),
                    ("i", (22, 22), (23, 23)),
                    ("s", (6, 8)),
                    ("s", (32, 34)),
                    ("s", (0, 0)),
                ),
            ),
        ),
    ),
    1: _Case(
        first_n=9,
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
        sums=(
            (
                (("i", (24, 28), (25, 28)), ("i", (47, 55), (48, 54))),
                (("i", (41, 46), (42, 46)), ("i", (30, 33), (31, 33))),
                (("i2", (32, 36), (34, 36)), ("i2", (26, 31), (28, 31))),
                (
                    ("i2", (34, 38), (36, 38)),
                    ("i2", (32, 37), (34, 37)),
                    ("s", (44, 49)),
                    ("s", (0, 0)),
                ),
            ),
            (
                (("i", (0, 2), (2, 0)), ("i", (6, 8), (8, 8))),
                (("i2", (38, 47), (40, 47)), ("i2", (40, 49), (42, 49))),
                (("i", (10, 14), (11, 14)), ("i", (25, 30), (26, 30))),
                (
                    ("i", (14, 17), (15, 17)),
                    ("i", (33, 40), (34, 40)),
                    ("s", (22, 26)),
                    ("s", (0, 0)),
                ),
            ),
            (
                (("i", (47, 54), (48, 54)), ("i", (16, 19), (17, 19))),
                (("i", (13, 15), (14, 15)), ("i", (26, 30), (27, 30))),
                (("i", (43, 49), (44, 49)), ("i", (4, 5), (5, 5))),
                (
                    ("i", (27, 32), (28, 32)),
                    ("i", (0, 1), (1, 1)),
                    ("s", (30, 35)),
                    ("s", (0, 0)),
                ),
            ),
        ),
    ),
    2: _Case(
        first_n=10,
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
        sums=(
            (
                (("i2", (40, 55), (42, 55)), ("i2", (46, 61), (48, 59))),
                (
                    ("i2", (36, 48), (38, 48)),
                    ("i2", (42, 57), (44, 55)),
                    ("s", (44, 56)),
                ),
                (("i", (3, 4), (4, 4)), ("i", (14, 19), (15, 19))),
                (
                    ("i", (18, 24), (19, 24)),
                    ("i", (45, 58), (46, 58)),
                    ("s", (14, 18)),
                    ("s", (24, 31)),
                    ("s", (0, 0)),
                ),
            ),
            (
                (("i", (0, 1), (1, 0)), ("i", (31, 39), (32, 39))),
                (
                    ("i", (45, 58), (46, 58)),
                    ("i", (30, 39), (31, 38)),
                    ("s", (10, 13)),
                ),
                (("i2", (22, 30), (24, 30)), ("i2", (24, 33), (26, 33))),
                (
                    ("i2", (40, 53), (42, 53)),
                    ("i2", (42, 57), (44, 57)),
                    ("s", (34, 46)),
                    ("s", (24, 32)),
                    ("s", (0, 0)),
                ),
            ),
            (
                (("i", (0, 1), (1, 0)), ("i", (23, 28), (24, 28))),
                (
                    ("i", (13, 16), (14, 16)),
                    ("i", (22, 28), (23, 27)),
                    ("s", (42, 53)),
                ),
                (("i", (8, 9), (9, 9)), ("i", (21, 27), (22, 27))),
                (
                    ("i", (7, 7), (8, 7)),
                    ("i", (36, 45), (37, 45)),
                    ("s", (48, 58)),
                    ("s", (48, 59)),
                    ("s", (0, 0)),
                ),
            ),
        ),
    ),
    3: _Case(
        first_n=11,
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
        sums=(
            (
                (("i", (0, 1), (1, 0)), ("i", (23, 31), (24, 31))),
                (("i", (7, 9), (8, 9)), ("i", (22, 31), (23, 30))),
                (("i2", (28, 39), (30, 39)), ("i2", (30, 42), (32, 42))),
                (
                    ("s", (18, 22)),
                    ("i2", (26, 32), (28, 32)),
                    ("i2", (28, 38), (30, 36)),
                    ("s", (28, 36)),
                    ("s", (28, 37)),
                    ("s", (36, 48)),
                    ("s", (44, 61)),
                    ("s", (0, 0)),
                ),
            ),
            (
                (("i2", (40, 60), (42, 60)), ("i2", (46, 67), (48, 65))),
                (("i2", (42, 62), (44, 60)), ("i2", (0, 1), (2, 1))),
                (("i", (13, 17), (14, 17)), ("i", (24, 33), (25, 33))),
                (
                    ("s", (5, 8)),
                    ("i", (45, 66), (46, 66)),
                    ("i", (18, 28), (19, 28)),
                    ("s", (18, 26)),
                    ("s", (2, 3)),
                    ("s", (38, 52)),
                    ("s", (0, 0)),
                ),
            ),
            (
                (("i", (0, 1), (1, 0)), ("i", (31, 43), (32, 43))),
                (("i", (30, 43), (31, 42)), ("i", (39, 57), (40, 57))),
                (("i", (40, 59), (41, 59)), ("i", (5, 11), (6, 11))),
                (
                    ("s", (25, 37)),
                    ("i", (2, 7), (3, 7)),
                    ("i", (21, 32), (22, 32)),
                    ("s", (2, 4)),
                    ("s", (10, 16)),
                    ("s", (14, 21)),
                    ("s", (0, 0)),
                ),
            ),
        ),
    ),
    4: _Case(
        first_n=12,
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
        sums=(
            (
                (("i", (32, 50), (33, 50)), ("i", (47, 73), (48, 72))),
                (("i", (46, 71), (47, 71)), ("i", (33, 51), (34, 50))),
                (("i2", (34, 54), (36, 54)), ("i2", (40, 66), (42, 66))),
                (
                    ("i2", (38, 59), (40, 57)),
                    ("i2", (36, 56), (38, 54)),
                    ("s", (38, 57)),
                    ("s", (38, 58)),
                    ("s", (46, 70)),
                    ("s", (8, 13)),
                    ("s", (34, 51)),
                    ("s", (26, 40)),
                    ("s", (26, 39)),
                    ("s", (0, 0)),
                ),
            ),
            (
                (("i", (8, 14), (9, 14)), ("i", (47, 73), (48, 72))),
                (("i", (9, 15), (10, 14)), ("i", (46, 70), (47, 70))),
                (("i", (3, 6), (4, 6)), ("i", (20, 30), (21, 30))),
                (
                    ("i", (2, 6), (3, 5)),
                    ("i", (21, 35), (22, 35)),
                    ("s", (26, 41)),
                    ("s", (34, 52)),
                    ("s", (38, 62)),
                    ("s", (24, 40)),
                    ("s", (24, 38)),
                    ("s", (4, 8)),
                    ("s", (0, 0)),
                ),
            ),
            (
                (("i2", (0, 2), (2, 0)), ("i2", (6, 9), (8, 7))),
                (("i2", (2, 5), (4, 5)), ("i2", (4, 9), (6, 7))),
                (("i", (9, 13), (10, 13)), ("i", (34, 50), (35, 50))),
                (
                    ("i", (8, 13), (9, 12)),
                    ("i", (35, 54), (36, 54)),
                    ("s", (24, 35)),
                    ("s", (6, 8)),
                    ("s", (24, 33)),
                    ("s", (34, 48)),
                    ("s", (46, 38)),
                    ("s", (18, 26)),
                    ("s", (0, 0)),
                ),
            ),
        ),
    ),
    5: _Case(
        first_n=5,
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
        sums=(
            (
                (("i2", (0, 2), (2, 0)), ("i2", (2, 1), (4, -1))),
                (("i2", (46, 31), (48, 29)), ("i2", (4, 1), (6, 1))),
                (("i", (35, 22), (36, 22)), ("i", (22, 14), (23, 13))),
                (
                    ("i", (42, 28), (43, 28)),
                    ("i", (11, 8), (12, 7)),
                    ("s", (38, 24)),
                    ("s", (0, 0)),
                ),
            ),
            (
                (("i", (47, 31), (48, 30)), ("i", (18, 14), (19, 13))),
                (("i", (17, 13), (18, 13)), ("i", (32, 22), (33, 21))),
                (("i2", (22, 15), (24, 15)), ("i2", (24, 17), (26, 15))),
                (
                    ("i2", (8, 6), (10, 6)),
                    ("i2", (14, 12), (16, 10)),
                    ("s", (40, 26)),
                    ("s", (0, 0)),
                ),
            ),
            (
                (("i", (47, 31), (48, 30)), ("i", (26, 18), (27, 17))),
                (("i", (16, 11), (17, 10)), ("i", (25, 17), (26, 17))),
                (("i", (0, 2), (1, 1)), ("i", (37, 25), (38, 25))),
                (
                    ("i", (21, 13), (22, 12)),
                    ("i", (44, 28), (45, 28)),
                    ("s", (18, 12)),
                    ("s", (0, 0)),
                ),
            ),
        ),
    ),
    6: _Case(
        first_n=6,
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
        sums=(
            (
                (("i2", (0, 2), (2, 0)), ("i2", (6, 4), (8, 2))),
                (("i2", (30, 22), (32, 20)), ("i2", (32, 24), (34, 24))),
                (("i2", (32, 25), (34, 23)), ("i2", (38, 28), (40, 28))),
                (
                    ("i2", (10, 8), (12, 6)),
                    ("i2", (12, 9), (14, 9)),
                    ("s", (8, 6)),
                    ("s", (8, 5)),
                    ("s", (0, 0)),
                ),
            ),
            (
                (("i", (16, 14), (7, 13)), ("i", (47, 37), (48, 36))),
                (("i", (7, 6), (8, 6)), ("i", (28, 23), (29, 22))),
                (("i", (36, 29), (37, 29)), ("i", (3, 4), (4, 3))),
                (
                    ("i", (26, 22), (27, 21)),
                    ("i", (37, 31), (38, 31)),
                    ("s", (22, 19)),
                    ("s", (12, 11)),
                    ("s", (0, 0)),
                ),
            ),
            (
                (("i", (24, 21), (25, 20)), ("i", (47, 37), (48, 36))),
                (("i", (36, 31), (37, 30)), ("i", (7, 7), (8, 7))),
                (("i", (20, 17), (21, 17)), ("i", (11, 10), (12, 9))),
                (
                    ("i", (10, 9), (11, 8)),
                    ("i", (45, 34), (46, 34)),
                    ("s", (18, 12)),
                    ("s", (28, 21)),
                    ("s", (0, 0)),
                ),
            ),
        ),
    ),
    7: _Case(
        first_n=7,
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
            # The published reordering prints the tail (4,3,1,5) as a fifth
            # group; its sums are tabulated with the fourth.
            ((7,), (0, 9), (1, -2), 4, (4, 3, 1, 5)),
        ),
        sums=(
            (
                (("i", (0, 1), (1, 0)), ("i", (29, 28), (30, 27))),
                (("i", (1, 1), (2, 0)), ("i", (16, 15), (17, 15))),
                # The second bound is printed truncated ("8m+"); 8m+5 is the
                # completion established by the partial-sum oracle.
                (("i2", (6, 7), (8, 5)), ("i2", (4, 4), (6, 4))),
                (
                    ("i2", (38, 38), (40, 36)),
                    ("i2", (44, 41), (46, 41)),
                    ("s", (40, 37)),
                    ("s", (44, 40)),
                    ("s", (20, 18)),
                    ("s", (0, 0)),
                ),
            ),
            (
                (("i", (0, 1), (1, 0)), ("i", (21, 19), (22, 18))),
                (("i", (1, 2), (2, 1)), ("i", (40, 35), (41, 35))),
                (("i", (11, 8), (12, 8)), ("i", (22, 19), (23, 18))),
                (
                    ("i", (45, 38), (46, 38)),
                    ("i", (28, 23), (29, 22)),
                    ("s", (12, 9)),
                    ("s", (48, 40)),
                    ("s", (48, 42)),
                    ("s", (0, 0)),
                ),
            ),
            (
                (("i2", (46, 43), (48, 41)), ("i2", (44, 41), (46, 39))),
                (("i2", (44, 42), (46, 40)), ("i2", (38, 36), (40, 36))),
                (("i", (18, 19), (19, 18)), ("i", (31, 31), (32, 31))),
                (
                    ("i", (5, 7), (6, 7)),
                    ("i", (28, 27), (29, 26)),
                    ("s", (44, 40)),
                    ("s", (4, 6)),
                    ("s", (28, 26)),
                    ("s", (0, 0)),
                ),
            ),
        ),
    ),
}


def _lin(e: Lin, m: int) -> int:
    return e[0] * m + e[1]


def _expand_group(group: Group, n: int) -> list[int]:
    head, start, end, step, tail = group
    a = start[0] * n + start[1]
    b = end[0] * n + end[1]
    cols = list(head)
    if step > 0:
        cols.extend(range(a, b + 1, step))
    else:
        cols.extend(range(a, b - 1, step))
    cols.extend(tail)
    return cols


def construct_raw_h3(n: int) -> HeffterArray:
    """The published (unreordered) 3 x n Heffter array over Z_{6n+1}."""
    if n < 3:
        raise OutOfRangeError(f"no 3 x n Heffter array for n={n} < 3")
    if n == 3:
        return from_rows(H33)
    if n == 4:
        return from_rows(H34)
    case = _CASES[n % 8]
    m = case.scale(n)
    v = 6 * n + 1
    rows: list[list[int]] = [[], [], []]
    for i in range(3):
        rows[i].extend(_lin(e, m) for e in case.lead[i])
    for r in range((n - len(case.lead[0])) // 4):  # the 3 x 4 blocks A_r fill the rest
        sign = -1 if r % 2 else 1
        for i in range(3):
            rows[i].extend(sign * (a * m + b * r + c) for a, b, c in case.repeat[i])
    return from_rows([_canon_all(row, v) for row in rows])


def standard_reordering(n: int) -> tuple[int, ...]:
    """The column permutation that makes the raw 3 x n array simple.

    Identity for n = 3, 4 (those arrays are simple as printed); the explicit
    published permutation for n = 8; otherwise the residue class's step-4
    progression groups, with empty progressions dropped.
    """
    if n < 3:
        raise OutOfRangeError(f"no 3 x n Heffter array for n={n} < 3")
    if n in (3, 4):
        return tuple(range(1, n + 1))
    if n == 8:
        return R8
    case = _CASES[n % 8]
    case.scale(n)  # range check
    perm: list[int] = []
    for group in case.groups:
        perm.extend(_expand_group(group, n))
    assert sorted(perm) == list(range(1, n + 1)), f"reordering not a permutation at n={n}"
    return tuple(perm)


def simple_h3(n: int) -> HeffterArray:
    """A simple 3 x n Heffter array for any n >= 3."""
    return reorder_columns(construct_raw_h3(n), standard_reordering(n))


def _instantiate(atoms: Iterable[Atom], m: int, v: int) -> frozenset[int]:
    """The residues mod v of a union of atoms at scale m; ("s", x) is [x, x]."""
    out: set[int] = set()
    for atom in atoms:
        step = 2 if atom[0] == "i2" else 1
        out.update(x % v for x in range(_lin(atom[1], m), _lin(atom[-1], m) + 1, step))
    return frozenset(out)


def _table_support(n: int) -> tuple[_Case, int]:
    """The (case, m) pair whose printed tables cover n, else UnsupportedError."""
    if n < 3:
        raise OutOfRangeError(f"no 3 x n Heffter array for n={n} < 3")
    if n == 8:
        raise UnsupportedError("n=8 uses the printed literal sums")
    if n < 9:
        raise UnsupportedError(f"no partial-sum tables cover n={n}")
    case = _CASES[n % 8]
    return case, case.scale(n)


def _row_table(n: int, row: int, atoms: Callable[[_Case], Iterable[Atom]]) -> frozenset[int]:
    """Row 1..3's partial-sum table at n, built from the atoms of n's class."""
    if row not in (1, 2, 3):
        raise OutOfRangeError(f"row must be 1..3, got {row}")
    if n == 8:
        return SUMS8[row - 1]
    case, m = _table_support(n)
    return _instantiate(atoms(case), m, 6 * n + 1)


def predicted_row_sums(n: int, row: int) -> frozenset[int]:
    """The printed partial-sum set for row 1..3 of the reordered array.

    This is the published interval table instantiated at the class's m and
    reduced mod 6n+1, kept verbatim (typos included); the documented
    corrections are available via :func:`table_errata`.  n = 8 returns the
    printed literal sets.
    """
    return _row_table(n, row, lambda case: chain.from_iterable(case.sums[row - 1]))


# Known misprints in the published partial-sum tables, established by
# comparing the printed sets against the partial sums actually produced by
# simple_h3 (the direct computation is authoritative).  Keyed by
# (n % 8, row); each entry holds a note, the atoms to add ("missing" from
# the printed table), and the printed atoms to drop ("spurious").
TABLE_ERRATA: dict[tuple[int, int], tuple[str, tuple[Atom, ...], tuple[Atom, ...]]] = {
    (0, 1): (
        "printed P_1 omits the tail partial sum 44m+46",
        (("s", (44, 46)),),
        (),
    ),
    (0, 2): (
        "printed P_2 omits the tail partial sum 44m+46",
        (("s", (44, 46)),),
        (),
    ),
    (1, 2): (
        "both intervals of P_{2,1} are step-2, printed without the subscript",
        (("i2", (0, 2), (2, 0)), ("i2", (6, 8), (8, 8))),
        (("i", (0, 2), (2, 0)), ("i", (6, 8), (8, 8))),
    ),
    (1, 3): (
        "first interval of P_{3,1} starts at 47m+55, printed as 47m+54",
        (("i", (47, 55), (48, 54)),),
        (("i", (47, 54), (48, 54)),),
    ),
    (4, 3): (
        "P_3 omits 8m+9; its singleton 46m+38 should read 46m+68",
        (("s", (8, 9)), ("s", (46, 68))),
        (("s", (46, 38)),),
    ),
    (6, 2): (
        "first interval of P_{2,1} is [16m+14, 17m+13], printed with an inconsistent upper bound 7m+13",
        (("i", (16, 14), (17, 13)),),
        (("i", (16, 14), (7, 13)),),
    ),
    (7, 1): (
        "upper bound of [6m+7, ...]_2 in P_{1,3} is truncated in print; "
        "completed to 8m+5 (stored directly in the table)",
        (),
        (),
    ),
}


_NO_ERRATA: tuple[str, tuple[Atom, ...], tuple[Atom, ...]] = ("", (), ())


def _corrected_atoms(case: _Case, residue: int, row: int) -> list[Atom]:
    """Printed atoms with the documented errata applied."""
    _, missing_atoms, spurious_atoms = TABLE_ERRATA.get((residue, row), _NO_ERRATA)
    atoms = [a for g in case.sums[row - 1] for a in g if a not in spurious_atoms]
    atoms.extend(missing_atoms)
    return atoms


def corrected_row_sums(n: int, row: int) -> frozenset[int]:
    """The printed partial-sum table with all documented errata applied.

    Equals the true partial-sum set of row 1..3 of ``simple_h3(n)``; the
    uncorrected prediction is :func:`predicted_row_sums`.
    """
    return _row_table(n, row, lambda case: _corrected_atoms(case, n % 8, row))


def table_errata(n: int, row: int) -> tuple[frozenset[int], frozenset[int]]:
    """Instantiated deviations of the printed table at (n, row).

    Returns (missing, spurious): residues the printed table omits and
    residues it lists wrongly.  Because printed atoms may overlap, a
    nominally spurious residue can still belong to the true sum set via
    another atom; the authoritative corrected set is
    :func:`corrected_row_sums`.  Both sets are empty when the printed table
    is exact.
    """
    if n == 8:
        return frozenset(), frozenset()
    _, m = _table_support(n)
    _, missing_atoms, spurious_atoms = TABLE_ERRATA.get((n % 8, row), _NO_ERRATA)
    v = 6 * n + 1
    return _instantiate(missing_atoms, m, v), _instantiate(spurious_atoms, m, v)
