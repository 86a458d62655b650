from __future__ import annotations

import pytest

from heffter.core import from_rows, transpose
from heffter.errors import (
    NoCompatibleConstructionError,
    NotSimpleError,
    OrderingMismatchError,
)
from heffter.h3 import construct_raw_h3, simple_h3
from heffter.orderings import (
    CyclicOrdering,
    _ordering_parts,
    compatible_orderings,
    compose,
    is_single_cycle,
    orbit,
)
from heffter.search import SearchConfig, generate_heffter


def test_published_trajectory_for_n5() -> None:
    # Composition starts h_{1,1} -> h_{2,2} -> h_{3,3} -> h_{2,4}: the
    # vertical direction flips when the walk enters the reversed columns.
    pair = compatible_orderings(simple_h3(5))
    assert pair.composition_cycle[:4] == ((0, 0), (1, 1), (2, 2), (1, 3))
    assert len(pair.composition_cycle) == 15


def test_direction_split_of_columns_for_odd_n() -> None:
    pair = compatible_orderings(simple_h3(5))
    # n = 5 = 2t+1 with t = 2: columns 1..3 run top-down, columns 4..5 bottom-up.
    parts = pair.omega_c.parts
    assert parts[0] == ((0, 0), (1, 0), (2, 0))
    assert parts[2] == ((0, 2), (1, 2), (2, 2))
    assert parts[3] == ((2, 3), (1, 3), (0, 3))
    assert parts[4] == ((2, 4), (1, 4), (0, 4))


def test_even_n_uses_transposed_construction() -> None:
    # n = 4 even, m = 3 odd: rows 1..2 run left-right, row 3 right-left,
    # every column top-down; the composition is a single 12-cycle.
    pair = compatible_orderings(simple_h3(4))
    assert len(pair.composition_cycle) == 12
    assert pair.omega_r.parts[0] == ((0, 0), (0, 1), (0, 2), (0, 3))
    assert pair.omega_r.parts[2] == ((2, 3), (2, 2), (2, 1), (2, 0))
    assert pair.omega_c.parts[0] == ((0, 0), (1, 0), (2, 0))


@pytest.mark.parametrize("n", range(3, 40))
def test_composition_single_cycle_of_length_3n(n: int) -> None:
    pair = compatible_orderings(simple_h3(n))
    assert len(pair.composition_cycle) == 3 * n
    assert is_single_cycle(compose(pair.omega_r, pair.omega_c))


def test_orbit_length_for_n7() -> None:
    pair = compatible_orderings(simple_h3(7))
    perm = compose(pair.omega_r, pair.omega_c)
    assert len(orbit(perm, (0, 0))) == 21


def test_compose_is_a_bijection() -> None:
    pair = compatible_orderings(simple_h3(9))
    perm = compose(pair.omega_r, pair.omega_c)
    assert len(set(perm.values())) == len(perm) == 27


def test_is_single_cycle_small_cases() -> None:
    assert is_single_cycle({1: 2, 2: 3, 3: 1})
    assert not is_single_cycle({1: 1, 2: 2})
    assert not is_single_cycle({})


def test_both_even_rejected() -> None:
    H = generate_heffter(4, 4, SearchConfig(node_budget=2_000_000))
    with pytest.raises(NoCompatibleConstructionError):
        compatible_orderings(H)


@pytest.mark.parametrize("m", range(3, 16))
def test_construction_composes_to_one_mn_cycle_whenever_a_side_is_odd(m: int) -> None:
    # compatible_orderings does not check the orbit length; this is the proof's
    # test.  The entries do not matter, so a grid of 1..mn stands in for H.
    for n in range(3, 16):
        if m % 2 == 0 and n % 2 == 0:
            with pytest.raises(NoCompatibleConstructionError):
                _ordering_parts(m, n)
            continue
        grid = from_rows([[i * n + j + 1 for j in range(n)] for i in range(m)])
        rows, cols = _ordering_parts(m, n)
        perm = compose(CyclicOrdering(grid, rows), CyclicOrdering(grid, cols))
        assert len(perm) == m * n and is_single_cycle(perm), (m, n)


def test_non_simple_input_detected() -> None:
    # The original published H(3,8) has a non-simple first row.
    with pytest.raises(NotSimpleError):
        compatible_orderings(construct_raw_h3(8))


def test_compose_rejects_mismatched_arrays() -> None:
    pair5 = compatible_orderings(simple_h3(5))
    pair7 = compatible_orderings(simple_h3(7))
    with pytest.raises(OrderingMismatchError):
        compose(pair5.omega_r, pair7.omega_c)


def test_element_parts_match_cells() -> None:
    H = simple_h3(5)
    pair = compatible_orderings(H)
    assert pair.omega_r.element_parts()[0] == H.row(0)
    assert pair.omega_c.element_parts()[4] == tuple(reversed(H.column(4)))


def test_transposed_array_composes_too() -> None:
    # transpose(simple_h3(5)) is 5 x 3: n = 3 is odd, so the direct branch
    # applies and still composes into one 15-cycle.
    pair_t = compatible_orderings(transpose(simple_h3(5)))
    assert len(pair_t.composition_cycle) == 15


def test_manual_ordering_roundtrip() -> None:
    H = from_rows(((1, 2, 3, -6), (8, -12, -7, 11), (-9, 10, 4, -5)))
    rows = CyclicOrdering(H, tuple(tuple((i, j) for j in range(4)) for i in range(3)))
    succ = rows.successor()
    assert succ[(0, 3)] == (0, 0)
    assert succ[(2, 1)] == (2, 2)
