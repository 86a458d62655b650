from __future__ import annotations

import hashlib
import random
import re
import tracemalloc
from itertools import pairwise

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heffter.arrayfile import serialize_array
from heffter.core import from_rows, reorder_columns, verify_heffter
from heffter.errors import (
    BudgetExceededError,
    InvalidEntryError,
    NotHeffterError,
    OutOfRangeError,
    TooLargeError,
)
from heffter.h3 import construct_raw_h3, simple_h3
from heffter.modmath import canon, is_simple
from heffter.search import (
    NODE_BUDGET,
    _fill_schedule,
    _generate_attempt,
    _search_backtracking,
    brute_force_oracle,
    find_simple_column_permutation,
    generate_heffter,
    simple_column_permutations,
)
from oracles import generate_attempt_reference, search_backtracking_reference


def test_config_validation() -> None:
    H = construct_raw_h3(8)
    with pytest.raises(OutOfRangeError, match="^unknown strategy 'simulated-annealing'$"):
        find_simple_column_permutation(H, strategy="simulated-annealing")
    with pytest.raises(OutOfRangeError, match=r"^unknown strategy \[\]$"):
        find_simple_column_permutation(H, strategy=[])
    with pytest.raises(OutOfRangeError, match="^node_budget must be positive, got 0$"):
        find_simple_column_permutation(H, node_budget=0)
    with pytest.raises(OutOfRangeError, match="^node_budget must be positive, got 0$"):
        generate_heffter(5, 6, node_budget=0)
    # The strategy is read before the budget, and the budget before the input.
    bad = from_rows(((1, 2, 3), (4, 5, 6), (7, 8, 9)))  # no line sums to 0 mod 19
    with pytest.raises(OutOfRangeError, match="^unknown strategy 'x'$"):
        find_simple_column_permutation(bad, strategy="x", node_budget=0)
    with pytest.raises(OutOfRangeError, match="^node_budget must be positive, got 0$"):
        find_simple_column_permutation(bad, node_budget=0)
    with pytest.raises(OutOfRangeError, match="^node_budget must be positive, got -1$"):
        generate_heffter(2, 2, node_budget=-1)
    for budget in (1e6, 5.0, "5", None, True):  # only an int is a budget
        message = rf"^node_budget must be positive, got {re.escape(repr(budget))}$"
        with pytest.raises(OutOfRangeError, match=message):
            find_simple_column_permutation(H, node_budget=budget)
        with pytest.raises(OutOfRangeError, match=message):
            generate_heffter(3, 3, node_budget=budget)
    # Each function takes only the knobs it reads, by keyword.
    with pytest.raises(TypeError):
        find_simple_column_permutation(H, seed=1)
    with pytest.raises(TypeError):
        generate_heffter(5, 6, strategy="exhaustive")
    with pytest.raises(TypeError):
        generate_heffter(5, 6, 1)


def test_search_fixes_the_published_h38() -> None:
    H = construct_raw_h3(8)
    outcome = find_simple_column_permutation(H)
    assert outcome.permutation is not None
    reordered = reorder_columns(H, outcome.permutation)
    assert verify_heffter(reordered).is_simple
    # The published reordering is one of the valid candidates.
    assert verify_heffter(reorder_columns(H, (1, 2, 6, 8, 5, 3, 4, 7))).is_simple


def test_search_returns_identity_on_already_simple_arrays() -> None:
    outcome = find_simple_column_permutation(simple_h3(4))
    assert outcome.permutation == (1, 2, 3, 4)


def test_exhaustive_and_backtracking_agree() -> None:
    for H in (construct_raw_h3(5), construct_raw_h3(8), simple_h3(6)):
        pruned = find_simple_column_permutation(H)
        full = find_simple_column_permutation(H, strategy="exhaustive")
        assert pruned.permutation == full.permutation


def test_search_result_is_lexicographic_least_oracle_entry() -> None:
    for H in (construct_raw_h3(8), construct_raw_h3(7), simple_h3(3)):
        valid = brute_force_oracle(H)
        outcome = find_simple_column_permutation(H)
        assert valid, "oracle found no valid permutation"
        assert outcome.permutation == valid[0]


def test_oracle_contains_published_permutation() -> None:
    valid = brute_force_oracle(construct_raw_h3(8))
    assert (1, 2, 6, 8, 5, 3, 4, 7) in valid
    assert valid == sorted(valid)


def test_oracle_on_h33_contains_identity() -> None:
    valid = brute_force_oracle(simple_h3(3))
    assert (1, 2, 3) in valid


def test_oracle_rejects_large_n() -> None:
    with pytest.raises(TooLargeError):
        brute_force_oracle(simple_h3(10))


def test_budget_exhaustion_is_distinguished() -> None:
    H = construct_raw_h3(8)
    with pytest.raises(BudgetExceededError, match="^permutation search exceeded 3 nodes$"):
        find_simple_column_permutation(H, node_budget=3)
    with pytest.raises(BudgetExceededError, match="^exhaustive search exceeded 3 permutations$"):
        find_simple_column_permutation(H, strategy="exhaustive", node_budget=3)


def test_search_budget_of_exactly_the_nodes_it_takes_succeeds() -> None:
    H = construct_raw_h3(15)
    outcome = find_simple_column_permutation(H, node_budget=26164)
    assert outcome.permutation == (1, 2, 3, 4, 5, 6, 9, 7, 10, 8, 11, 12, 13, 15, 14)
    assert outcome.nodes == 26164
    with pytest.raises(BudgetExceededError, match="^permutation search exceeded 26163 nodes$"):
        find_simple_column_permutation(H, node_budget=26163)


def test_search_walks_the_deep_path_of_simple_h3_800() -> None:
    # One frame per depth: 800 columns fit under the default recursion limit of 1000.
    outcome = find_simple_column_permutation(simple_h3(800))
    assert (outcome.permutation, outcome.nodes) == (tuple(range(1, 801)), 800)


def test_search_agrees_with_oracle_on_generated_instances() -> None:
    # 20 random small arrays: the pruned search's verdict and answer match
    # the complete enumeration.
    for seed in range(20):
        n = 3 + seed % 4  # n in 3..6
        H = generate_heffter(3, n, seed=seed, node_budget=2_000_000)
        valid = brute_force_oracle(H)
        outcome = find_simple_column_permutation(H)
        if valid:
            assert outcome.permutation == valid[0]
        else:
            assert outcome.permutation is None


# A 6 x 6 Heffter array over Z_73 whose row r holds a zero-sum triple on
# the columns of UNFIXABLE_TRIPLES[r], and so another on the other three.
UNFIXABLE = (
    (31, 13, 29, -35, -36, -2),
    (28, -22, -34, -6, 14, 20),
    (8, 24, -16, -1, -32, 17),
    (15, 26, -3, -12, -33, 7),
    (-30, -18, 5, -9, 25, 27),
    (21, -23, 19, -10, -11, 4),
)
UNFIXABLE_TRIPLES = ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5))


def test_none_exists_verdict_on_unfixable_grid() -> None:
    # Six entries of distinct absolute value that sum to 0 repeat a partial
    # sum iff three consecutive ones sum to 0, and every column order puts
    # one of the six row splits on three consecutive columns.
    grid = from_rows(UNFIXABLE)
    assert verify_heffter(grid).is_heffter
    for row, triple in zip(grid.cells, UNFIXABLE_TRIPLES):
        assert sum(row[j - 1] for j in triple) % grid.modulus == 0
    assert brute_force_oracle(grid) == []
    outcome = find_simple_column_permutation(grid)
    assert outcome.permutation is None
    exhaustive = find_simple_column_permutation(grid, strategy="exhaustive")
    assert (exhaustive.permutation, exhaustive.nodes) == (None, 720)


def _kernel_outcome(search, H, budget: int):
    try:
        return search(H, budget)
    except BudgetExceededError as exc:
        return str(exc)


# name: (a thunk building the array, the node budget)
KERNEL_CORPUS = {
    **{f"raw_h3({n})": (lambda n=n: construct_raw_h3(n), 100_000) for n in range(3, 27)},
    **{f"simple_h3({n})": (lambda n=n: simple_h3(n), NODE_BUDGET) for n in (50, 200, 500, 800)},
    **{
        f"generate({m},{n},seed={s})": (lambda m=m, n=n, s=s: generate_heffter(m, n, seed=s), NODE_BUDGET)
        for m in range(3, 7)
        for n in range(3, 8)
        for s in range(3)
    },
    "UNFIXABLE": (lambda: from_rows(UNFIXABLE), NODE_BUDGET),
}


@pytest.mark.parametrize("name", KERNEL_CORPUS)
def test_search_kernel_visits_the_nodes_of_the_reference(name: str) -> None:
    # Equal (permutation, nodes), or the same budget message: the kernel walks
    # only the unused columns and stops a column at its first repeated row sum,
    # but tries the same columns in the same order as the reference.
    build, budget = KERNEL_CORPUS[name]
    H = build()
    expected = _kernel_outcome(search_backtracking_reference, H, budget)
    assert _kernel_outcome(_search_backtracking, H, budget) == expected


NOT_HEFFTER = (
    # no line sums to 0 mod 19
    (((1, 2, 3), (4, 5, 6), (7, 8, 9)), "row 1 does not sum to 0 mod 19"),
    # H(3,5) with two entries of row 1 swapped: every row sum kept, two columns broken
    (
        ((7, 6, -10, -4, 1), (-9, 5, 2, -11, 13), (3, -12, 8, 15, -14)),
        "column 1 does not sum to 0 mod 31",
    ),
    # every line sums to 0 mod 19, but the absolute values repeat
    (((1, 1, -2), (1, 1, -2), (-2, -2, 4)), "entries do not form a half-set of Z_19"),
)


@pytest.mark.parametrize("strategy", ("backtracking", "exhaustive"))
@pytest.mark.parametrize("rows, message", NOT_HEFFTER)
def test_search_rejects_input_that_is_not_a_heffter_array(
    strategy: str, rows: tuple, message: str
) -> None:
    with pytest.raises(NotHeffterError, match=rf"^{message}$"):
        find_simple_column_permutation(from_rows(rows), strategy=strategy)


def test_search_determinism() -> None:
    H = construct_raw_h3(8)
    first = find_simple_column_permutation(H)
    second = find_simple_column_permutation(H)
    assert first.permutation == second.permutation
    assert first.nodes == second.nodes


def test_generate_small_arrays_verify() -> None:
    for m, n in ((3, 3), (5, 4)):
        H = generate_heffter(m, n)
        assert (H.m, H.n) == (m, n)
        assert verify_heffter(H).is_heffter


def test_generate_rejects_small_dimensions() -> None:
    with pytest.raises(OutOfRangeError):
        generate_heffter(2, 2)
    with pytest.raises(OutOfRangeError):
        generate_heffter(3, 2)
    for m, n in ((3.0, 3), ("3", 3), (3, 4.0), (5, None)):  # only an int is a size
        message = rf"^Heffter arrays need m, n >= 3, got {re.escape(repr(m))} x {re.escape(repr(n))}$"
        with pytest.raises(OutOfRangeError, match=message):
            generate_heffter(m, n)


@pytest.mark.parametrize("seed", (1.5, "a", True, 1.0, (1,)))
def test_generate_rejects_a_seed_that_is_not_an_int(seed: object) -> None:
    with pytest.raises(OutOfRangeError, match=rf"^seed must be an int or None, got {re.escape(repr(seed))}$"):
        generate_heffter(3, 3, seed=seed)


def test_search_rejects_an_argument_that_is_not_an_array() -> None:
    for H in ("x", [[1]], None):
        with pytest.raises(InvalidEntryError, match=rf"^expected a HeffterArray, got {type(H).__name__}$"):
            find_simple_column_permutation(H)


def test_generate_determinism() -> None:
    first = generate_heffter(5, 4, seed=7)
    second = generate_heffter(5, 4, seed=7)
    assert first.cells == second.cells
    default_first = generate_heffter(5, 4)
    default_second = generate_heffter(5, 4)
    assert default_first.cells == default_second.cells


def test_generate_budget_error() -> None:
    with pytest.raises(BudgetExceededError):
        generate_heffter(5, 6, node_budget=50)
    # 1,600 cells: one schedule step per cell is deeper than the recursion limit.
    with pytest.raises(BudgetExceededError):
        generate_heffter(40, 40, node_budget=10_000)


@pytest.mark.parametrize("seed", (None, 3))
def test_generate_refuses_an_unreachable_budget_before_allocating(seed: int | None) -> None:
    # Success places all (m-1)(n-1) = 159,201 free cells, one node each, so a
    # budget of 10 cannot succeed and nothing of size mn may be built first.
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="^generator exceeded 10 nodes for 400 x 400$"):
            generate_heffter(400, 400, seed=seed, node_budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_generate_budget_of_exactly_the_free_cells_can_succeed() -> None:
    # Seed 31 fills the 2 x 2 free cells of a 3 x 3 array without backtracking.
    H = generate_heffter(3, 3, seed=31, node_budget=4)
    assert verify_heffter(H).is_heffter
    with pytest.raises(BudgetExceededError, match="^generator exceeded 3 nodes for 3 x 3$"):
        generate_heffter(3, 3, seed=31, node_budget=3)


def test_generate_builds_up_to_the_listing_limit(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr("heffter.core.EXPAND_LIMIT", 3 * 4)
    assert verify_heffter(generate_heffter(3, 4, seed=1)).is_heffter
    monkeypatch.setattr("heffter.core.EXPAND_LIMIT", 3 * 4 - 1)
    with pytest.raises(TooLargeError, match="^a 3 x 4 array would list 12 integers, more than 11$"):
        generate_heffter(3, 4, seed=1)
    # The budget check comes first: a budget below the 6 free cells is still a budget error.
    with pytest.raises(BudgetExceededError, match="^generator exceeded 5 nodes for 3 x 4$"):
        generate_heffter(3, 4, seed=1, node_budget=5)


def test_generate_refuses_more_than_the_listing_limit_before_allocating() -> None:
    # 400,000,000 nodes cover the 399,960,001 free cells, so only the size refuses.
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError, match="^a 20000 x 20000 array would list 400000000 integers, more than 2000000$"):
            generate_heffter(20_000, 20_000, seed=1, node_budget=400_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("m", range(3, 13))
@pytest.mark.parametrize("n", range(3, 13))
def test_fill_schedule_closes_each_line_with_its_border_cell(m: int, n: int) -> None:
    cells = _fill_schedule(m, n)
    assert sorted(cells) == [(i, j) for i in range(m) for j in range(n)]
    position = {cell: k for k, cell in enumerate(cells)}
    row_last = [max(range(n), key=lambda j: position[i, j]) for i in range(m)]
    col_last = [max(range(m), key=lambda i: position[i, j]) for j in range(n)]
    # A last-row cell comes after the rest of its column, any other
    # last-column cell after the rest of its row, and the corner last of all;
    # no free cell is the last of its row or column.
    assert col_last == [m - 1] * n
    assert row_last == [n - 1] * m
    assert cells[-1] == (m - 1, n - 1)


@pytest.mark.parametrize("m", range(3, 13))
@pytest.mark.parametrize("n", range(3, 13))
def test_fill_schedule_follows_each_free_cell_but_the_last_with_at_most_its_own_closure(m: int, n: int) -> None:
    # _generate_attempt writes a free cell together with the one forced cell
    # after it, which closes the free cell's own row or column, and settles
    # the last free cell's row, column and corner in one scan.
    cells = _fill_schedule(m, n)
    free = [k for k, (i, j) in enumerate(cells) if i < m - 1 and j < n - 1]
    assert free[0] == 0
    assert cells[free[-1] :] == [(m - 2, n - 2), (m - 2, n - 1), (m - 1, n - 2), (m - 1, n - 1)]
    for k, after in pairwise(free):
        i, j = cells[k]
        forced = cells[k + 1 : after]
        assert forced in ([], [(i, n - 1)], [(m - 1, j)])


def test_generate_attempt_returns_none_when_its_values_run_out() -> None:
    # Four magnitudes cannot fill nine cells of distinct |x|, and the four free
    # cells take at most 8 * 6 * 4 * 2 nodes, so the attempt searches its whole
    # space well inside the budget and ends with no cell left to back into.
    assert _generate_attempt(3, 3, [1, -1, 2, -2, 3, -3, 4, -4], 10**6) is None
    grid = _generate_attempt(3, 3, [s * a for a in range(1, 10) for s in (1, -1)], 10**6)
    assert grid is not None and verify_heffter(from_rows(grid)).is_heffter


def _value_order(m: int, n: int, seed: int | None, magnitudes: int | None = None) -> list[int]:
    """generate_heffter's value order for ``seed``, over the first ``magnitudes`` magnitudes (all mn by default)."""
    values = [s * a for a in range(1, (magnitudes or m * n) + 1) for s in (1, -1)]
    if seed is not None:
        random.Random(seed).shuffle(values)
    return values


def _first_grid_budget(m: int, n: int, values: list[int], cap: int) -> int | None:
    """The least budget at which ``_generate_attempt`` returns a grid, or None when it returns none at ``cap``."""
    if _generate_attempt(m, n, values, cap) is None:
        return None
    lo, hi = 0, cap  # None at lo, a grid at hi: more budget never takes a grid away
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _generate_attempt(m, n, values, mid) is not None else (mid, hi)
    return hi


# On every size each free cell walks the linked list of unplaced values, and
# resumes from its current value after the cells below it have relinked theirs.
@pytest.mark.parametrize("m", range(3, 9))
def test_generate_attempt_stops_where_the_reference_does(m: int) -> None:
    # The same grid or None at every budget: None below the reference's first
    # grid and that grid from there on, checked at each budget below 40 and
    # on both sides of the first grid; at the cap, where no grid is found,
    # both return None.
    cap = 3_000
    for n in range(3, 9):
        for seed in (None, 0, 1):
            values = _value_order(m, n, seed)
            stop = _first_grid_budget(m, n, values, cap)
            if stop is None:
                assert generate_attempt_reference(m, n, values, cap) is None
                continue
            grid = generate_attempt_reference(m, n, values, stop)
            assert grid is not None and _generate_attempt(m, n, values, stop) == grid
            assert generate_attempt_reference(m, n, values, stop - 1) is None
            for budget in range(1, min(stop, 40)):
                assert _generate_attempt(m, n, values, budget) is None
                assert generate_attempt_reference(m, n, values, budget) is None


# Shapes that backtrack far past the 3,000 nodes above, as (m, n, seed, the
# first-grid budget or None when the cap finds no grid, cap).
DEEP_ATTEMPTS = (
    (10, 10, 0, 141_375, 150_000),
    (5, 12, 0, 17_806, 20_000),
    (5, 12, 1, 5_740, 20_000),
    (12, 5, 0, 1_490, 20_000),
    (9, 9, 0, None, 20_000),
    (20, 20, 0, None, 20_000),
    (40, 40, 0, None, 20_000),
)


@pytest.mark.parametrize("m, n, seed, stop, cap", DEEP_ATTEMPTS)
def test_generate_attempt_backtracks_far_where_the_reference_does(
    m: int, n: int, seed: int, stop: int | None, cap: int
) -> None:
    # The same grid or None at the first-grid budget, one node below it, and the cap.
    values = _value_order(m, n, seed)
    expected = {cap: generate_attempt_reference(m, n, values, cap)}
    if stop is not None:
        expected[stop] = generate_attempt_reference(m, n, values, stop)
        expected[stop - 1] = generate_attempt_reference(m, n, values, stop - 1)
        assert expected[stop] is not None and expected[stop - 1] is None
    assert (expected[cap] is None) == (stop is None)
    for budget, grid in expected.items():
        assert _generate_attempt(m, n, values, budget) == grid


def test_generate_attempt_runs_out_where_the_reference_does() -> None:
    # Every budget of the four-magnitude list, which no budget completes,
    # and of two nine-magnitude orders, past their first grids (9 and 128).
    for values in ([1, -1, 2, -2, 3, -3, 4, -4], _value_order(3, 3, None), _value_order(3, 3, 5)):
        for budget in range(1, 8 * 6 * 4 * 2 + 2):
            assert _generate_attempt(3, 3, values, budget) == generate_attempt_reference(3, 3, values, budget)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 7), st.integers(3, 7), st.integers(0, 2**32), st.integers(1, 2_000),
    st.none() | st.integers(2, 60),
)
def test_generate_attempt_matches_the_reference(m: int, n: int, seed: int, budget: int, magnitudes: int | None) -> None:
    # A truncated magnitude list runs cells out of values early, so their
    # exhaustion counts decide where later budget stops fall.
    values = _value_order(m, n, seed, magnitudes and min(magnitudes, m * n))
    assert _generate_attempt(m, n, values, budget) == generate_attempt_reference(m, n, values, budget)


def test_generated_h5n_admit_simple_reorderings() -> None:
    for n in (3, 4):
        H = generate_heffter(5, n)
        outcome = find_simple_column_permutation(H)
        assert outcome.permutation is not None
        assert verify_heffter(reorder_columns(H, outcome.permutation)).is_simple


def test_columns_of_short_arrays_always_simple() -> None:
    # Distinct nonzero residues summing to 0: 3- and 5-element columns cannot
    # repeat a partial sum, so column-unit reorderings preserve simplicity.
    for m, n, seed in ((3, 5, 1), (5, 3, 2)):
        H = generate_heffter(m, n, seed=seed)
        assert all(verify_heffter(H).col_simple)


# Recorded before the generator became a single loop.  Each (m, n, seed) run
# stops with BudgetExceededError at GENERATOR_STOPS[m, n, seed] - 1 nodes and
# succeeds at exactly that many; every other run of the grid stops at
# GENERATOR_CAP.  Seed None runs the restart ladder, whose first slice (the
# plain ascending order) is the whole budget below 20,000 nodes; each
# LADDER_STOPS case succeeds in a later 20,000-node slice.
GENERATOR_CAP = 5_000
GENERATOR_STOPS = {
    (3, 3, None): 128, (3, 3, 0): 34, (3, 3, 1): 12, (3, 3, 2): 387, (3, 4, None): 960,
    (3, 4, 0): 155, (3, 4, 1): 91, (3, 4, 2): 101, (3, 5, 0): 6257, (3, 5, 1): 1428,
    (3, 5, 2): 46, (3, 6, 1): 9233, (3, 7, 0): 68, (3, 7, 2): 8413, (4, 3, None): 1360,
    (4, 3, 0): 483, (4, 3, 1): 431, (4, 3, 2): 333, (4, 4, None): 263, (4, 4, 0): 506,
    (4, 4, 1): 49, (4, 4, 2): 1455, (4, 5, None): 3092, (4, 5, 0): 66, (4, 5, 1): 258,
    (4, 5, 2): 3991, (4, 6, 0): 4603, (4, 6, 2): 9906, (4, 7, None): 4414, (4, 9, None): 6412,
    (4, 9, 1): 7961, (5, 3, 0): 6823, (5, 3, 1): 1308, (5, 3, 2): 366, (5, 4, None): 191,
    (5, 4, 0): 166, (5, 4, 1): 1043, (5, 4, 2): 8547, (5, 5, 0): 1941, (5, 5, 2): 3417,
    (5, 6, 0): 3679, (5, 6, 1): 871, (5, 7, 1): 4569, (5, 7, 2): 8310, (7, 3, 0): 30,
    (7, 3, 2): 8483, (7, 4, None): 2525, (7, 4, 1): 2345, (7, 6, None): 3554, (7, 6, 1): 2230,
}
LADDER_STOPS = {(3, 9, None): 90_908, (7, 5, None): 35_028}
GENERATOR_DIGEST = "7be1d6019e1aeca56fc7bff24890aa24839cc96ec3c3c3bc74f65137519bb9a4"


def test_generator_reproduces_recorded_corpus() -> None:
    digest = hashlib.sha256()
    for m in (3, 4, 5, 7):
        for n in (3, 4, 5, 6, 7, 9):
            for seed in (None, 0, 1, 2):
                if (m, n, seed) not in GENERATOR_STOPS:
                    with pytest.raises(BudgetExceededError):
                        generate_heffter(m, n, seed=seed, node_budget=GENERATOR_CAP)
    for (m, n, seed), stop in (GENERATOR_STOPS | LADDER_STOPS).items():
        with pytest.raises(BudgetExceededError):
            generate_heffter(m, n, seed=seed, node_budget=stop - 1)
        H = generate_heffter(m, n, seed=seed, node_budget=stop)
        digest.update(serialize_array(H).encode())
    assert digest.hexdigest() == GENERATOR_DIGEST


def test_generator_corpus_arrays_are_heffter() -> None:
    # generate_heffter returns its grid unverified; the proof is in its docstring.
    for (m, n, seed), stop in (GENERATOR_STOPS | LADDER_STOPS).items():
        H = generate_heffter(m, n, seed=seed, node_budget=stop)
        assert verify_heffter(H).is_heffter, (m, n, seed)


def _outcome(H, strategy: str):
    try:
        return find_simple_column_permutation(H, strategy=strategy).permutation
    except AssertionError as exc:
        return exc


def test_search_results_pass_the_verification_the_search_no_longer_runs() -> None:
    # The search verifies H once and then checks only its column flags: a column
    # order keeps every line sum and the half-set, and both strategies accept
    # only orders with simple rows.  Here the full verification is run anyway.
    # The AssertionError of a non-simple column is a known defect (ROADMAP
    # item 1), due to become a NotSimpleError raised before the search.
    arrays = [from_rows(UNFIXABLE), generate_heffter(7, 3, seed=1)]  # 7 x 3: a non-simple column
    for m in range(3, 8):
        for n in range(3, 7):
            for seed in (0, 1):
                try:
                    arrays.append(generate_heffter(m, n, seed=seed, node_budget=20_000))
                except BudgetExceededError:
                    pass
    seen = set()
    for H in arrays:
        valid = brute_force_oracle(H)
        columns_simple = all(verify_heffter(H).col_simple)
        for strategy in ("backtracking", "exhaustive"):
            result = _outcome(H, strategy)
            if isinstance(result, AssertionError):
                assert valid and not columns_simple
                seen.add("assert")
            elif result is None:
                assert not valid
                seen.add("none")
            else:
                assert columns_simple and result == valid[0]
                assert verify_heffter(reorder_columns(H, result)).all_ok
                seen.add("found")
    assert seen == {"assert", "none", "found"}
    with pytest.raises(AssertionError, match=r"^search returned \(1, 2, 3\) but re-verification failed$"):
        find_simple_column_permutation(generate_heffter(7, 3, seed=1))


# The listing's tests come last: tests/mutants.py stops this file at its first
# failure, and a broken generator can hang in generate_heffter below.
@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda h: st.tuples(st.just(h), st.lists(st.integers(-h, h).filter(bool), min_size=1, max_size=12), st.integers(0, 12))
))
def test_simplicity_of_a_zero_sum_line_ignores_rotation_and_reversal(case: tuple[int, list[int], int]) -> None:
    h, head, k = case
    v = 2 * h + 1
    assume(sum(head) % v)
    line = [*head, canon(-sum(head), v)]  # any nonzero entries, closed to sum 0
    k %= len(line)
    assert is_simple(line[k:] + line[:k], v) == is_simple(line, v) == is_simple(line[::-1], v)


def test_listing_refuses_a_row_that_does_not_sum_to_0() -> None:
    # A row that does not sum to 0 can be simple in one rotation only.
    line = (2, -2, 1)  # mod 11: sums 2, 0, 1; rotated to (1, 2, -2): 1, 3, 1
    assert is_simple(line, 11) and not is_simple(line[2:] + line[:2], 11)
    bad = from_rows(((1, 2, 3), (4, 5, 6), (7, 8, 9)))  # no line sums to 0 mod 19
    with pytest.raises(NotHeffterError, match="^row 1 does not sum to 0 mod 19$"):
        simple_column_permutations(bad)
    with pytest.raises(TooLargeError, match="^oracle enumerates n! permutations; n=10 > 9$"):
        simple_column_permutations(simple_h3(10))


@pytest.mark.parametrize("n", range(3, 10))
def test_listing_equals_the_oracle_on_h3(n: int) -> None:
    for H in (construct_raw_h3(n), simple_h3(n)):
        assert simple_column_permutations(H) == brute_force_oracle(H)


@pytest.mark.parametrize("m", range(3, 6))
def test_listing_equals_the_oracle_on_generated_arrays(m: int) -> None:
    compared = 0
    for n in range(3, 9):
        for seed in (None, 0, 1):
            try:
                H = generate_heffter(m, n, seed=seed, node_budget=200_000)
            except BudgetExceededError:  # 3 x 8 at seeds 0 and 1
                continue
            assert simple_column_permutations(H) == brute_force_oracle(H)
            compared += 1
    assert compared >= 16
    assert simple_column_permutations(from_rows(UNFIXABLE)) == []
