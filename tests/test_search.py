from __future__ import annotations

import hashlib

import pytest

from heffter.arrayfile import serialize_array
from heffter.core import from_rows, is_simple_array, reorder_columns, verify_heffter
from heffter.errors import BudgetExceededError, OutOfRangeError, TooLargeError
from heffter.h3 import construct_raw_h3, simple_h3
from heffter.search import (
    SearchConfig,
    brute_force_oracle,
    find_simple_column_permutation,
    generate_heffter,
)


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        SearchConfig(strategy="simulated-annealing")
    with pytest.raises(ValueError):
        SearchConfig(node_budget=0)


def test_search_fixes_the_published_h38() -> None:
    H = construct_raw_h3(8)
    outcome = find_simple_column_permutation(H)
    assert outcome.permutation is not None
    reordered = reorder_columns(H, outcome.permutation)
    assert is_simple_array(reordered)
    # The published reordering is one of the valid candidates.
    assert is_simple_array(reorder_columns(H, (1, 2, 6, 8, 5, 3, 4, 7)))


def test_search_returns_identity_on_already_simple_arrays() -> None:
    outcome = find_simple_column_permutation(simple_h3(4))
    assert outcome.permutation == (1, 2, 3, 4)


def test_exhaustive_and_backtracking_agree() -> None:
    for H in (construct_raw_h3(5), construct_raw_h3(8), simple_h3(6)):
        pruned = find_simple_column_permutation(H)
        full = find_simple_column_permutation(H, SearchConfig(strategy="exhaustive"))
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
    with pytest.raises(BudgetExceededError):
        find_simple_column_permutation(H, SearchConfig(node_budget=3))


def test_search_agrees_with_oracle_on_generated_instances() -> None:
    # 20 random small arrays: the pruned search's verdict and answer match
    # the complete enumeration.
    for seed in range(20):
        n = 3 + seed % 4  # n in 3..6
        H = generate_heffter(3, n, SearchConfig(node_budget=2_000_000, seed=seed))
        valid = brute_force_oracle(H)
        outcome = find_simple_column_permutation(H)
        if valid:
            assert outcome.permutation == valid[0]
        else:
            assert outcome.permutation is None


def test_none_exists_verdict_on_unfixable_grid() -> None:
    # Hand-crafted 3 x 3 grid (not a Heffter array: the search mechanism is
    # exercised past its usual precondition): a length-3 row collides under
    # the order (x, y, z) iff y + z = 0, and here every choice of first
    # column zeroes a pair in some row, so no permutation works.
    grid = from_rows(((1, -1, 5), (2, 6, -2), (7, 3, -3)))
    assert brute_force_oracle(grid) == []
    outcome = find_simple_column_permutation(grid)
    assert outcome.permutation is None
    exhaustive = find_simple_column_permutation(grid, SearchConfig(strategy="exhaustive"))
    assert exhaustive.permutation is None


def test_search_determinism() -> None:
    H = construct_raw_h3(8)
    cfg = SearchConfig()
    first = find_simple_column_permutation(H, cfg)
    second = find_simple_column_permutation(H, cfg)
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


def test_generate_determinism() -> None:
    cfg = SearchConfig(seed=7)
    first = generate_heffter(5, 4, cfg)
    second = generate_heffter(5, 4, cfg)
    assert first.cells == second.cells
    default_first = generate_heffter(5, 4)
    default_second = generate_heffter(5, 4)
    assert default_first.cells == default_second.cells


def test_generate_budget_error() -> None:
    with pytest.raises(BudgetExceededError):
        generate_heffter(5, 6, SearchConfig(node_budget=50))
    # 1,600 cells: one schedule step per cell is deeper than the recursion limit.
    with pytest.raises(BudgetExceededError):
        generate_heffter(40, 40, SearchConfig(node_budget=10_000))


def test_generated_h5n_admit_simple_reorderings() -> None:
    for n in (3, 4):
        H = generate_heffter(5, n)
        outcome = find_simple_column_permutation(H)
        assert outcome.permutation is not None
        assert is_simple_array(reorder_columns(H, outcome.permutation))


def test_columns_of_short_arrays_always_simple() -> None:
    # Distinct nonzero residues summing to 0: 3- and 5-element columns cannot
    # repeat a partial sum, so column-unit reorderings preserve simplicity.
    for m, n, seed in ((3, 5, 1), (5, 3, 2)):
        H = generate_heffter(m, n, SearchConfig(seed=seed))
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
                        generate_heffter(m, n, SearchConfig(node_budget=GENERATOR_CAP, seed=seed))
    for (m, n, seed), stop in (GENERATOR_STOPS | LADDER_STOPS).items():
        with pytest.raises(BudgetExceededError):
            generate_heffter(m, n, SearchConfig(node_budget=stop - 1, seed=seed))
        H = generate_heffter(m, n, SearchConfig(node_budget=stop, seed=seed))
        digest.update(serialize_array(H).encode())
    assert digest.hexdigest() == GENERATOR_DIGEST
