from __future__ import annotations

import inspect

import pytest
from hypothesis import given
from hypothesis import strategies as st

import heffter
from heffter.core import (
    HeffterArray,
    from_rows,
    reorder_columns,
    transpose,
    verify_heffter,
)
from heffter.errors import HeffterError, InvalidEntryError, InvalidPermutationError
from heffter.h3 import H33, H34
from heffter.search import check_oracle_size

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


def test_array_metadata() -> None:
    H = from_rows(H35)
    assert (H.m, H.n, H.modulus) == (3, 5, 31)
    assert H.cells[0] == (6, 7, -10, -4, 1)
    assert tuple(zip(*H.cells))[2] == (-10, 2, 8)


def test_construction_rejects_bad_entries() -> None:
    with pytest.raises(InvalidEntryError, match=r"^cell \(1,1\) = 0 is not"):
        from_rows([[0, 1, 2], [3, 4, 5], [6, 7, 8]])  # zero cell
    with pytest.raises(
        InvalidEntryError, match=r"^cell \(1,3\) = 99 is not a canonical nonzero residue mod 19$"
    ):
        from_rows([[1, 2, 99], [3, 4, 5], [6, 7, 8]])  # out of range mod 19
    with pytest.raises(InvalidEntryError, match=r"^cell \(3,2\) = -10 is not"):
        from_rows([[1, 2, 3], [4, 5, 6], [7, -10, 8]])  # just below -(v-1)/2
    with pytest.raises(InvalidEntryError, match="^need at least 3 rows$"):
        from_rows([[1, 2], [3, 4]])  # below minimum dimensions
    with pytest.raises(InvalidEntryError, match="^need at least 3 columns$"):
        from_rows([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(InvalidEntryError):
        from_rows([[1, 2, 3], [4, 5], [6, 7, 8]])  # ragged


@pytest.mark.parametrize("bad, shown", ((1.7, "1.7"), ("a", "'a'"), ("3", "'3'")))
def test_construction_rejects_non_integer_entries(bad: object, shown: str) -> None:
    # Not truncated, not parsed: the cell is named and rejected.
    rows = [[1, 2, 3], [4, 5, 6], [7, bad, 9]]
    with pytest.raises(InvalidEntryError, match=rf"^cell \(3,2\) = {shown} is not an integer$"):
        from_rows(rows)


def test_constructor_rejects_non_integer_cells() -> None:
    with pytest.raises(InvalidEntryError, match=r"^cell \(1,1\) = 1\.5 is not an integer$"):
        HeffterArray(((1.5, 2, 3), (4, 5, 6), (7, 8, 9)))
    with pytest.raises(InvalidEntryError, match=r"^cell \(2,3\) = True is not an integer$"):
        HeffterArray(((1, 2, 3), (4, 5, True), (7, 8, 9)))


def test_from_rows_converts_integer_like_cells_before_naming_the_bad_one() -> None:
    assert type(from_rows([[True, 2, 3], [4, 5, 6], [7, 8, 9]]).cells[0][0]) is int
    with pytest.raises(InvalidEntryError, match=r"^cell \(1,2\) = 2\.5 is not an integer$"):
        from_rows(row for row in [[True, 2.5, 3]] * 3)


NOT_ROWS = ((1, 2, 3), None, ((1, 2, 3), 5, (7, 8, 9)))


@pytest.mark.parametrize("rows", NOT_ROWS)
def test_from_rows_rejects_rows_that_are_not_sequences(rows: object) -> None:
    with pytest.raises(InvalidEntryError, match="^rows must be sequences of integers$"):
        from_rows(rows)


@pytest.mark.parametrize("rows", NOT_ROWS)
def test_constructor_rejects_rows_that_are_not_sequences(rows: object) -> None:
    with pytest.raises(InvalidEntryError, match="^rows must be sequences of integers$"):
        HeffterArray(rows)  # type: ignore[arg-type]


def test_constructor_stores_list_cells_as_tuples() -> None:
    rows = [[1, 2, -3], [4, -6, 2], [-5, 4, 1]]
    H = HeffterArray(rows)  # type: ignore[arg-type]
    assert H.cells == ((1, 2, -3), (4, -6, 2), (-5, 4, 1))
    assert H == from_rows(rows) and hash(H) == hash(from_rows(rows))
    with pytest.raises(TypeError):
        H.cells[0][0] = 0  # type: ignore[index]
    rows[0][0] = 0  # the caller's lists are not the array's cells
    assert H.cells[0][0] == 1


def test_verify_published_arrays() -> None:
    for rows in (H35, H33, H34, H38, H38_REORDERED):
        report = verify_heffter(from_rows(rows))
        assert report.is_heffter


def test_verify_h33_simple_everywhere() -> None:
    report = verify_heffter(from_rows(H33))
    assert report.is_heffter and report.is_simple
    assert report.row_simple == (True, True, True)
    assert report.col_simple == (True, True, True)


def test_single_perturbation_breaks_sums_and_half_set() -> None:
    rows = [list(r) for r in H35]
    rows[0][0] = 5  # was 6: duplicates |5| and unbalances row 1, column 1
    report = verify_heffter(from_rows(rows))
    assert not report.half_set_ok
    assert report.row_sum_ok == (False, True, True)
    assert report.col_sum_ok == (False, True, True, True, True)
    assert not report.is_heffter


def test_is_simple_published_examples() -> None:
    assert verify_heffter(from_rows(H38_REORDERED)).is_simple
    assert not verify_heffter(from_rows(H38)).is_simple
    assert verify_heffter(from_rows(H34)).is_simple


def test_reorder_columns_published_example() -> None:
    assert reorder_columns(from_rows(H38), (1, 2, 6, 8, 5, 3, 4, 7)).cells == H38_REORDERED


def test_reorder_columns_identity_and_gather() -> None:
    H = from_rows(H35)
    assert reorder_columns(H, (1, 2, 3, 4, 5)) == H
    assert reorder_columns(H, (5, 3, 1, 4, 2)).cells[0] == (1, -10, 6, -4, 7)


def test_reorder_columns_rejects_non_permutations() -> None:
    H = from_rows(H35)
    for bad in ((1, 2, 3), (1, 1, 2, 3, 4), (0, 1, 2, 3, 4), (2, 3, 4, 5, 6)):
        with pytest.raises(InvalidPermutationError):
            reorder_columns(H, bad)


@pytest.mark.parametrize("bad, shown", (
    ([1, 2, 3.0], r"\(1, 2, 3\.0\)"),
    ([True, 2, 3], r"\(True, 2, 3\)"),
    (["1", "2", "3"], r"\('1', '2', '3'\)"),
    (None, "None"),
    (5, "5"),
))
def test_reorder_columns_rejects_non_int_or_non_iterable_orders(bad: object, shown: str) -> None:
    with pytest.raises(InvalidPermutationError, match=rf"^{shown} is not a permutation of 1\.\.3$"):
        reorder_columns(from_rows(H33), bad)


def test_transpose_involution_and_flags() -> None:
    H = from_rows(H35)
    assert transpose(transpose(H)) == H
    T = transpose(H)
    assert (T.m, T.n, T.modulus) == (5, 3, 31)
    report_h = verify_heffter(H)
    report_t = verify_heffter(T)
    assert report_t.row_sum_ok == report_h.col_sum_ok
    assert report_t.col_sum_ok == report_h.row_sum_ok
    assert report_t.row_simple == report_h.col_simple
    assert report_t.half_set_ok == report_h.half_set_ok


def test_transpose_of_h33_still_verifies() -> None:
    assert verify_heffter(transpose(from_rows(H33))).is_heffter


@given(st.permutations(list(range(1, 9))))
def test_reorder_preserves_heffter_axioms(perm: list[int]) -> None:
    H = from_rows(H38)
    report = verify_heffter(reorder_columns(H, perm))
    assert report.is_heffter


@pytest.mark.parametrize("H", ([[1]], None, "x", H35))
def test_verify_heffter_rejects_an_argument_that_is_not_an_array(H: object) -> None:
    with pytest.raises(InvalidEntryError, match=f"^expected a HeffterArray, got {type(H).__name__}$"):
        verify_heffter(H)


def test_cells_are_immutable() -> None:
    H = from_rows(H35)
    assert isinstance(H.cells, tuple)
    with pytest.raises(TypeError):
        H.cells[0][0] = 3  # type: ignore[index]


def test_the_package_exports_the_one_base_of_its_errors() -> None:
    assert heffter.HeffterError is HeffterError and "HeffterError" in heffter.__all__
    with pytest.raises(heffter.HeffterError):  # a size refusal, caught from the package itself
        heffter.simple_h3(50_000_000)


PUBLIC = {**{name: getattr(heffter, name) for name in heffter.__all__ if name != "HeffterError"},  # caught, not called
          "check_oracle_size": check_oracle_size}


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_every_public_callable_fails_as_a_heffter_error(name: str) -> None:
    # Each wrong-type first argument returns or raises a HeffterError, never a bare
    # TypeError or AttributeError; every other required positional argument is 7.
    fn = PUBLIC[name]
    required = [p for p in inspect.signature(fn).parameters.values()
                if p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    for first in (None, 5, "x", [[1]]):
        try:
            fn(first, *[7] * (len(required) - 1))
        except HeffterError:
            pass
