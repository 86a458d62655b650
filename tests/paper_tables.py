"""The paper's printed partial-sum tables for the 3 x n construction, as test data.

For each residue class of n mod 8 the paper prints interval tables that
predict the partial sums of every row of ``simple_h3(n)``.  They check the
proof and build nothing, so they live with the tests; acceptance criterion 3
compares them with the partial sums.  Bounds are coefficient pairs
(a, b) -> a*m + b, so each printed number is auditable one-for-one, read at
the scale m of :func:`heffter.h3._residue_class`.  The tables are verbatim,
misprints included; :data:`TABLE_ERRATA` holds the corrections, established
by direct partial-sum computation.  The tables cover rows 1..3 at n = 8,
printed as literal sets, and at every n >= 9.
"""

from __future__ import annotations

from typing import Iterable

from heffter.h3 import _lin, _residue_class

# Interval atoms: ("i", lo, hi) is {lo..hi}, ("i2", lo, hi) is {lo, lo+2, ..., hi},
# ("s", x) a singleton; bounds are (a, b) -> a*m + b.
Atom = tuple
# A misprint's note, the atoms the printed table omits, and its printed atoms to drop.
Erratum = tuple[str, tuple[Atom, ...], tuple[Atom, ...]]

# The printed partial-sum sets of the reordered published n = 8 example.
SUMS8 = (
    frozenset({36, 25, 17, 16, 26, 32, 35, 0}),
    frozenset({4, 46, 30, 10, 15, 32, 2, 0}),
    frozenset({9, 27, 2, 23, 8, 34, 12, 0}),
)

# Residue class of n mod 8 -> [row][reordering group] -> the printed atoms.
PRINTED: dict[int, tuple[tuple[tuple[Atom, ...], ...], ...]] = {
    0: (
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
    1: (
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
    2: (
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
    3: (
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
    4: (
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
    5: (
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
    6: (
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
    # The published reordering prints class 7's tail (4,3,1,5) as a fifth
    # group; its sums are tabulated with the fourth.
    7: (
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
}

# Known misprints in the printed tables, established by comparing the
# printed sets against the partial sums actually produced by simple_h3 (the
# direct computation is authoritative).  Keyed by (n % 8, row); each entry
# holds a note, the atoms to add ("missing" from the printed table), and the
# printed atoms to drop ("spurious").
TABLE_ERRATA: dict[tuple[int, int], Erratum] = {
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


def _instantiate(atoms: Iterable[Atom], m: int, v: int) -> frozenset[int]:
    """The residues mod v of a union of atoms at scale m; ("s", x) is [x, x]."""
    out: set[int] = set()
    for atom in atoms:
        step = 2 if atom[0] == "i2" else 1
        out.update(x % v for x in range(_lin(atom[1], m), _lin(atom[-1], m) + 1, step))
    return frozenset(out)


_NO_ERRATA: Erratum = ("", (), ())


def _row_table(n: int, row: int, erratum: Erratum) -> frozenset[int]:
    """Row ``row``'s printed table at n with ``erratum`` applied; n = 8 is the printed literal."""
    _, m = _residue_class(n)
    if n == 8:
        return SUMS8[row - 1]
    _, missing, spurious = erratum
    atoms = [a for group in PRINTED[n % 8][row - 1] for a in group if a not in spurious]
    return _instantiate([*atoms, *missing], m, 6 * n + 1)


def predicted_row_sums(n: int, row: int) -> frozenset[int]:
    """The printed partial-sum set of row 1..3 of ``simple_h3(n)``, misprints included."""
    return _row_table(n, row, _NO_ERRATA)


def corrected_row_sums(n: int, row: int) -> frozenset[int]:
    """The printed set with its erratum applied: the true partial-sum set of the row."""
    return _row_table(n, row, TABLE_ERRATA.get((n % 8, row), _NO_ERRATA))


def table_errata(n: int, row: int) -> tuple[frozenset[int], frozenset[int]]:
    """(missing, spurious): the true residues the printed table omits, and those it adds."""
    corrected = corrected_row_sums(n, row)
    predicted = predicted_row_sums(n, row)
    return corrected - predicted, predicted - corrected
