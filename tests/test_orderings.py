from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heffter.core import HeffterArray, from_rows, reorder_columns, transpose
from heffter.errors import (
    HeffterError,
    NoCompatibleConstructionError,
    NotHeffterError,
    NotSimpleError,
)
from heffter.h3 import construct_raw_h3, simple_h3
from heffter.orderings import compatible_orderings, compose
from heffter.search import SearchConfig, generate_heffter
from oracles import check_ordering_parts, composition_orbit, ordering_parts


def test_published_trajectory_for_n5() -> None:
    # Composition starts h_{1,1} -> h_{2,2} -> h_{3,3} -> h_{2,4}: the
    # vertical direction flips when the walk enters the reversed columns.
    pair = compatible_orderings(simple_h3(5))
    assert pair.composition_cycle[:4] == ((0, 0), (1, 1), (2, 2), (1, 3))
    assert len(pair.composition_cycle) == 15


def test_direction_split_of_columns_for_odd_n() -> None:
    pair = compatible_orderings(simple_h3(5))
    # n = 5 = 2t+1 with t = 2: columns 1..3 run top-down, columns 4..5 bottom-up.
    parts = pair.col_parts
    assert parts[0] == ((0, 0), (1, 0), (2, 0))
    assert parts[2] == ((0, 2), (1, 2), (2, 2))
    assert parts[3] == ((2, 3), (1, 3), (0, 3))
    assert parts[4] == ((2, 4), (1, 4), (0, 4))


def test_even_n_uses_transposed_construction() -> None:
    # n = 4 even, m = 3 odd: rows 1..2 run left-right, row 3 right-left,
    # every column top-down; the composition is a single 12-cycle.
    pair = compatible_orderings(simple_h3(4))
    assert len(set(pair.composition_cycle)) == 12
    assert pair.row_parts[0] == ((0, 0), (0, 1), (0, 2), (0, 3))
    assert pair.row_parts[2] == ((2, 3), (2, 2), (2, 1), (2, 0))
    assert pair.col_parts[0] == ((0, 0), (1, 0), (2, 0))


@pytest.mark.parametrize("n", range(3, 40))
def test_composition_single_cycle_of_length_3n(n: int) -> None:
    cycle = compatible_orderings(simple_h3(n)).composition_cycle
    assert len(set(cycle)) == 3 * n
    assert cycle == composition_orbit(*ordering_parts(3, n))


def test_orbit_length_for_n7() -> None:
    # With every line of a 7 x 7 grid forward, the composition is
    # (i, j) -> (i + 1, j + 1): seven diagonal 7-cycles, not one 49-cycle.
    rows = tuple(tuple((i, j) for j in range(7)) for i in range(7))
    cols = tuple(tuple((i, j) for i in range(7)) for j in range(7))
    diagonal = tuple((k, k) for k in range(7))
    assert composition_orbit(rows, cols) == diagonal
    assert compose(7, 7, 7, 7) == diagonal * 7


def test_compose_is_a_bijection() -> None:
    # simple_h3(9): every row forward, columns 6..9 backward.
    cycle = compose(3, 9, 3, 5)
    assert sorted(cycle) == [(i, j) for i in range(3) for j in range(9)]


def test_both_even_rejected() -> None:
    H = generate_heffter(4, 4, SearchConfig(node_budget=2_000_000))
    with pytest.raises(NoCompatibleConstructionError):
        compatible_orderings(H)


def _zero_sum_grid(m: int, n: int) -> HeffterArray:
    """Cells r_i * c_j with r = (1, ..., 1, 1 - m) and c = (1, ..., 1, 1 - n).

    Row i has partial sums r_i * (1, 2, ..., n - 1, 0), so it sums to 0, and
    its sums stay distinct mod v = 2mn + 1 because (m - 1)(n - 1) < mn; the
    same holds for the columns.  compatible_orderings accepts the grid,
    though it is no half-set.
    """
    r = [1] * (m - 1) + [1 - m]
    c = [1] * (n - 1) + [1 - n]
    return from_rows([[a * b for b in c] for a in r])


@pytest.mark.parametrize("m", range(3, 16))
def test_construction_composes_to_one_mn_cycle_whenever_a_side_is_odd(m: int) -> None:
    # compatible_orderings walks mn steps without checking that the cells are
    # distinct; this is the proof's test.  The entries do not matter, so a
    # zero-sum grid stands in for H.
    for n in range(3, 16):
        grid = _zero_sum_grid(m, n)
        if m % 2 == 0 and n % 2 == 0:
            with pytest.raises(NoCompatibleConstructionError):
                compatible_orderings(grid)
            continue
        pair = compatible_orderings(grid)
        assert (pair.row_parts, pair.col_parts) == ordering_parts(m, n), (m, n)
        assert len(set(pair.composition_cycle)) == m * n, (m, n)
        assert pair.composition_cycle == composition_orbit(*ordering_parts(m, n)), (m, n)


def test_non_simple_input_detected() -> None:
    # The original published H(3,8) has a non-simple first row.
    with pytest.raises(NotSimpleError):
        compatible_orderings(construct_raw_h3(8))


def test_transposed_array_composes_too() -> None:
    # transpose(simple_h3(5)) is 5 x 3: n = 3 is odd, so the direct branch
    # applies and still composes into one 15-cycle.
    pair_t = compatible_orderings(transpose(simple_h3(5)))
    assert len(set(pair_t.composition_cycle)) == 15


def _reorder_rows(H: HeffterArray, order: tuple[int, ...]) -> HeffterArray:
    return transpose(reorder_columns(transpose(H), order))


def _swap(H: HeffterArray, a: tuple[int, int], b: tuple[int, int]) -> HeffterArray:
    cells = [list(row) for row in H.cells]
    cells[a[0]][a[1]], cells[b[0]][b[1]] = cells[b[0]][b[1]], cells[a[0]][a[1]]
    return from_rows(cells)


def _outcome(check, H: HeffterArray) -> tuple[type, str] | None:
    try:
        check(H)
    except HeffterError as exc:
        return type(exc), str(exc)
    return None


RAW8 = construct_raw_h3(8)  # 3 x 8, zero-sum; row 1 has a repeated partial sum

# (array, what the part-by-part check raises): odd n, even n with odd m and
# both even, each with a failing forward and a failing reversed part.
ORDERING_CASES = [
    (simple_h3(5), None),
    (simple_h3(4), None),
    (RAW8, NotSimpleError),
    # Rows 1..2 of a 3 x 8 array run forward, row 3 backward.
    (_reorder_rows(RAW8, (2, 3, 1)), NotSimpleError),
    # 8 x 3: columns 1..2 run top to bottom, column 3 bottom to top.
    (reorder_columns(transpose(RAW8), (2, 3, 1)), NotSimpleError),
    (from_rows(((1, 2, 3), (4, 5, 6), (7, 8, 9))), NotHeffterError),
    # Swapping two cells of row 1 keeps the row sums and breaks two columns.
    (_swap(simple_h3(5), (0, 0), (0, 4)), NotHeffterError),
    (_swap(simple_h3(4), (2, 0), (2, 3)), NotHeffterError),
    (generate_heffter(4, 4, SearchConfig(seed=1)), NoCompatibleConstructionError),
    (_swap(generate_heffter(4, 4, SearchConfig(seed=1)), (0, 0), (1, 1)), NoCompatibleConstructionError),
]


@pytest.mark.parametrize("H, raised", ORDERING_CASES)
def test_compatible_orderings_matches_part_by_part_check(H: HeffterArray, raised: type | None) -> None:
    expected = _outcome(check_ordering_parts, H)
    assert (expected and expected[0]) == raised
    assert _outcome(compatible_orderings, H) == expected


@lru_cache(maxsize=None)
def _heffter_pool() -> tuple[HeffterArray, ...]:
    generated = [
        generate_heffter(m, n, SearchConfig(seed=seed))
        for m, n, seed in ((3, 4, 1), (4, 3, 2), (3, 7, 0), (4, 4, 1), (5, 4, 0), (4, 5, 0), (5, 5, 0))
    ]
    return (*generated, *(simple_h3(n) for n in range(3, 10)), RAW8, transpose(RAW8))


@st.composite
def _rearranged_arrays(draw: st.DrawFn) -> HeffterArray:
    """A pool array with its rows and columns permuted, and maybe two cells swapped.

    Permuting columns changes which rows are simple and permuting rows which
    columns are; a swap of two distinct cells breaks one or two line sums.
    """
    H = draw(st.sampled_from(_heffter_pool()))
    H = reorder_columns(H, draw(st.permutations(range(1, H.n + 1))))
    H = _reorder_rows(H, tuple(draw(st.permutations(range(1, H.m + 1)))))
    if draw(st.booleans()):
        cell = st.tuples(st.integers(0, H.m - 1), st.integers(0, H.n - 1))
        H = _swap(H, draw(cell), draw(cell))
    return H


@settings(max_examples=150, deadline=None)
@given(_rearranged_arrays())
@example(RAW8)
def test_compatible_orderings_agrees_with_part_by_part_oracle(H: HeffterArray) -> None:
    # compatible_orderings reads the forward lines of verify_heffter; the
    # oracle sums every part in the direction it runs.
    assert _outcome(compatible_orderings, H) == _outcome(check_ordering_parts, H)
