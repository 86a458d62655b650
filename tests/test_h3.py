from __future__ import annotations

import hashlib
import re
import tracemalloc
from itertools import chain

import pytest

from heffter.arrayfile import serialize_array
from heffter.core import verify_heffter
from heffter.errors import OutOfRangeError, TooLargeError
from heffter.h3 import (
    H33,
    H34,
    _CASES,
    _residue_class,
    construct_raw_h3,
    simple_h3,
    standard_reordering,
)
from heffter.modmath import partial_sums
from paper_tables import TABLE_ERRATA, corrected_row_sums, predicted_row_sums, table_errata

H35 = ((6, 7, -10, -4, 1), (-9, 5, 2, -11, 13), (3, -12, 8, 15, -14))
H38 = (
    (-13, -11, 6, 3, 10, -8, 14, -1),
    (4, -7, 17, 19, 5, -16, -2, -20),
    (9, 18, -23, -22, -15, 24, -12, 21),
)
H38_REORDERED = (
    (-13, -11, -8, -1, 10, 6, 3, 14),
    (4, -7, -16, -20, 5, 17, 19, -2),
    (9, 18, 24, 21, -15, -23, -22, -12),
)


def test_raw_construction_reproduces_published_arrays() -> None:
    assert construct_raw_h3(5).cells == H35
    assert construct_raw_h3(8).cells == H38
    assert construct_raw_h3(3).cells == H33
    assert construct_raw_h3(4).cells == H34


def test_out_of_range() -> None:
    for n in (0, 1, 2, -5):
        with pytest.raises(OutOfRangeError):
            construct_raw_h3(n)
        with pytest.raises(OutOfRangeError):
            standard_reordering(n)


def test_standard_reorderings() -> None:
    assert standard_reordering(8) == (1, 2, 6, 8, 5, 3, 4, 7)
    assert standard_reordering(5) == (5, 3, 1, 4, 2)
    assert standard_reordering(3) == (1, 2, 3)
    assert standard_reordering(4) == (1, 2, 3, 4)


@pytest.mark.parametrize("n", range(3, 60))
def test_standard_reordering_is_permutation(n: int) -> None:
    assert sorted(standard_reordering(n)) == list(range(1, n + 1))


def test_standard_reordering_is_a_permutation_for_every_n() -> None:
    # Induction on n within each residue class mod 8.  Every group is a head,
    # a step-4 progression and a tail; the heads and tails are constants, and
    # one end of each progression is a constant k, the other n + d.  The four
    # d of a class are 0, -1, -2, -3 and k = n + d mod 4, so once every
    # progression is non-empty, n -> n + 8 appends n + d + 4 and n + d + 8 to
    # each: exactly n + 1 .. n + 8, once each.  The base cases are checked
    # directly, up to the first n of each class with no empty progression.
    last_base = 0
    for c, case in _CASES.items():
        ends = []
        for _head, start, end, step, _tail in case.groups:
            (k_coef, k), (d_coef, d) = (start, end) if step > 0 else (end, start)
            assert (k_coef, d_coef, abs(step)) == (0, 1, 4)
            assert (k - c - d) % 4 == 0
            ends.append((k, d))
        assert sorted(d for _k, d in ends) == [-3, -2, -1, 0]
        n = next(n for n in range(c or 8, 10**6, 8)
                 if n not in (3, 4, 8) and all(n + d >= k for k, d in ends))
        last_base = max(last_base, n)
    for n in range(3, last_base + 1):
        assert sorted(standard_reordering(n)) == list(range(1, n + 1))


def test_simple_h3_published_goldens() -> None:
    assert simple_h3(8).cells == H38_REORDERED
    assert simple_h3(4).cells == H34


def test_simple_h3_row_sum_sets_are_disjoint_except_zero() -> None:
    # Each row's 13 partial sums are pairwise distinct sets at n=13.
    H = simple_h3(13)
    sets = [frozenset(partial_sums(H.cells[i], H.modulus)) for i in range(3)]
    assert all(len(s) == 13 for s in sets)
    assert len(set(sets)) == 3


@pytest.mark.parametrize("n", list(range(3, 120)))
def test_simple_h3_verifies_and_is_simple(n: int) -> None:
    H = simple_h3(n)
    report = verify_heffter(H)
    assert report.is_heffter
    assert report.is_simple


@pytest.mark.parametrize("n", range(5, 80))
def test_raw_entries_cover_exact_half_set(n: int) -> None:
    raw = construct_raw_h3(n)
    assert sorted(abs(x) for row in raw.cells for x in row) == list(range(1, 3 * n + 1))


def _first_n(c: int) -> int:
    """The smallest n >= 5 in residue class c mod 8."""
    return c if c >= 5 else c + 8


def test_residue_class_scale_starts_at_zero_and_steps_every_eight() -> None:
    for c, case in _CASES.items():
        assert _residue_class(_first_n(c)) == (case, 0)
        assert _residue_class(_first_n(c) + 8) == (case, 1)
        assert _residue_class(_first_n(c) + 8 * 37) == (case, 37)


# A size that is not an int is refused too; 3.0 == 3 and 8.0 == 8, so the
# type is checked before the n = 3, 4, 8 cases.
@pytest.mark.parametrize("n", (2, -1, 5.0, 3.0, 4.0, 8.0, 9.5, "5", None))
def test_every_entry_point_gives_one_message_below_3(n: object) -> None:
    for entry in (construct_raw_h3, standard_reordering, simple_h3):
        with pytest.raises(OutOfRangeError,
                           match=rf"^no 3 x n Heffter array for n={re.escape(repr(n))} < 3$"):
            entry(n)


@pytest.mark.parametrize("entry", (construct_raw_h3, standard_reordering, simple_h3))
def test_every_entry_point_builds_up_to_the_listing_limit(monkeypatch: pytest.MonkeyPatch, entry) -> None:
    sizes = (3, 4, 8, 13)  # the explicit arrays, the explicit reordering, the general case
    built = {n: entry(n) for n in sizes}
    for n in sizes:
        monkeypatch.setattr("heffter.core.EXPAND_LIMIT", 3 * n)
        assert entry(n) == built[n]
        monkeypatch.setattr("heffter.core.EXPAND_LIMIT", 3 * n - 1)
        with pytest.raises(TooLargeError, match=rf"^a 3 x {n} array would list {3 * n} integers, more than {3 * n - 1}$"):
            entry(n)
    monkeypatch.setattr("heffter.core.EXPAND_LIMIT", 0)
    with pytest.raises(OutOfRangeError, match="^no 3 x n Heffter array for n=2 < 3$"):  # refused before its size
        entry(2)


@pytest.mark.parametrize("entry", (construct_raw_h3, standard_reordering, simple_h3))
def test_every_entry_point_refuses_more_than_the_limit_before_allocating(entry) -> None:
    # 150,000,000 cells would take gigabytes; refused before any is built.
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError,
                           match="^a 3 x 50000000 array would list 150000000 integers, more than 2000000$"):
            entry(50_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _canonical_from(slope: int, intercept: int, n0: int) -> bool:
    """slope*t + intercept is nonzero, of one sign and within 3(n0 + 8t) for every t >= 0."""
    return (intercept != 0 and slope * intercept >= 0
            and abs(intercept) <= 3 * n0 and abs(slope) <= 24)


def test_raw_entries_are_canonical_for_every_n() -> None:
    # construct_raw_h3 reduces no entry, because each lies in [-3n, 3n] \ {0}
    # (3n = (v-1)/2).  In class c, n = f + 8m with f the first n >= 5 of the
    # class.  A lead entry is a*m + b for m >= 0.  Block r of R = (n - L)/4 =
    # 2m + k, with L lead columns, is +-(a*m + b*r + c): linear in r, so it is
    # nonzero and bounded when its two r-endpoints are, with one sign.  Each
    # endpoint is linear in m from the first m with a block, and a line
    # s*t + i keeps its sign and |s*t + i| = |i| + |s|t <= 3(n0 + 8t) when
    # i != 0, s is 0 or has the sign of i, |i| <= 3 n0 and |s| <= 24.
    for c, case in _CASES.items():
        f, lead_cols = _first_n(c), len(case.lead[0])
        k, rest = divmod(f - lead_cols, 4)
        assert rest == 0 and k in (0, 1), c
        for a, b in chain.from_iterable(case.lead):
            assert _canonical_from(a, b, f), (c, a, b)
        m0 = 1 - k  # the first m with R >= 1
        n0 = f + 8 * m0
        for a, b, c0 in chain.from_iterable(case.repeat):
            first = (a, a * m0 + c0)  # r = 0
            last = (a + 2 * b, (a + 2 * b) * m0 + b * (k - 1) + c0)  # r = R - 1 = 2m + k - 1
            assert _canonical_from(*first, n0) and _canonical_from(*last, n0), (c, a, b, c0)
            assert first[1] * last[1] > 0, (c, a, b, c0)


def test_simple_h3_and_reordering_digest_for_n_up_to_300() -> None:
    # sha256 over the serialized array and the repr of its column order, n = 3..300.
    digest = hashlib.sha256()
    for n in range(3, 301):
        digest.update(serialize_array(simple_h3(n)).encode())
        digest.update(repr(standard_reordering(n)).encode())
    assert digest.hexdigest() == "c0bbcabfa50149bd095267d932a61538fafe9b23259a8cb8c08e2e039e43e182"


def test_repeated_blocks_alternate_signs() -> None:
    # Consecutive repeated blocks of the raw array differ by a global sign
    # flip and the linear-in-r increments; the (1,1) block entry is
    # (-1)^r * (8m + r + 10) in the residue-0 class.
    raw = construct_raw_h3(24)  # residue 0, m = 2: blocks at columns 5..24
    m = 2
    for r in range(5):
        first = raw.cells[0][4 + 4 * r]
        assert first == (-1) ** r * (8 * m + r + 10)


def test_predicted_row_sums_n8_literal_sets() -> None:
    assert predicted_row_sums(8, 1) == {36, 25, 17, 16, 26, 32, 35, 0}
    assert predicted_row_sums(8, 2) == {4, 46, 30, 10, 15, 32, 2, 0}
    assert predicted_row_sums(8, 3) == {9, 27, 2, 23, 8, 34, 12, 0}


def test_predicted_row_sums_n13_derived_golden() -> None:
    assert predicted_row_sums(13, 1) == {0, 2, 3, 5, 7, 19, 36, 57, 58, 62, 70, 71, 77}


def test_tables_match_direct_sums_up_to_errata() -> None:
    for n in range(8, 121):
        predicted = [predicted_row_sums(n, i) for i in (1, 2, 3)]
        H = simple_h3(n)
        v = H.modulus
        for i in (1, 2, 3):
            actual = frozenset(partial_sums(H.cells[i - 1], v))
            assert corrected_row_sums(n, i) == actual, (n, i)
            # The errata are exactly the deviations of the printed table.
            deviations = (actual - predicted[i - 1], predicted[i - 1] - actual)
            assert table_errata(n, i) == deviations, (n, i)
            if not TABLE_ERRATA.get((n % 8, i)):
                assert predicted[i - 1] == actual, (n, i)


def test_table_errata_lists_no_residue_that_the_tables_agree_on() -> None:
    # (9, 2): the misprinted intervals of P_{2,1} cover the same residues at m = 0.
    assert predicted_row_sums(9, 2) == corrected_row_sums(9, 2)
    assert table_errata(9, 2) == (frozenset(), frozenset())
    assert table_errata(8, 1) == (frozenset(), frozenset())  # the printed literal n = 8


def test_errata_registry_is_minimal() -> None:
    # Only the documented misprints deviate; every registered entry (except
    # the note-only truncation record) changes at least one residue somewhere.
    for (residue, row), (note, missing, spurious) in TABLE_ERRATA.items():
        assert note
        if not missing and not spurious:
            assert (residue, row) == (7, 1)  # truncated bound, fixed in-table
