from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heffter.errors import ModulusMismatchError, OutOfRangeError, ZeroResidueError
from heffter.modmath import canon, is_half_set, is_simple, partial_sums

# Rows of the published H(3,5) over Z_31 and the reordered H(3,8) over Z_49.
H35_ROW1 = (6, 7, -10, -4, 1)
H35_ENTRIES = [6, 7, -10, -4, 1, -9, 5, 2, -11, 13, 3, -12, 8, 15, -14]
H38_REORDERED_ROW1 = (-13, -11, -8, -1, 10, 6, 3, 14)
H38_ORIGINAL_ROW1 = (-13, -11, 6, 3, 10, -8, 14, -1)


def test_canon_reduces_into_symmetric_range() -> None:
    assert canon(36, 31) == 5
    assert canon(-16, 31) == 15
    assert canon(16, 31) == -15
    assert canon(1, 7) == 1


def test_canon_rejects_zero_class() -> None:
    with pytest.raises(ZeroResidueError):
        canon(62, 31)
    with pytest.raises(ZeroResidueError):
        canon(0, 7)


@given(st.integers(-10**6, 10**6), st.sampled_from([7, 19, 31, 49, 121]))
def test_canon_idempotent(x: int, v: int) -> None:
    if x % v == 0:
        return
    assert canon(canon(x, v), v) == canon(x, v)


def test_half_set_examples() -> None:
    assert is_half_set(H35_ENTRIES, 31)
    assert is_half_set({1, 2, 3}, 7)
    assert not is_half_set({1, -1, 2}, 7)
    assert not is_half_set({1, 2}, 7)  # wrong cardinality


def test_half_set_rejects_out_of_range_elements() -> None:
    with pytest.raises(ModulusMismatchError):
        is_half_set({1, 2, 16}, 31)


def test_partial_sums_published_row() -> None:
    assert partial_sums(H38_REORDERED_ROW1, 49) == [36, 25, 17, 16, 26, 32, 35, 0]


def test_partial_sums_small_cases() -> None:
    assert partial_sums((1, -1), 31) == [1, 0]
    assert partial_sums(H35_ROW1, 31) == [6, 13, 3, 30, 0]


def test_partial_sums_requires_nonempty_canonical_input() -> None:
    with pytest.raises(OutOfRangeError, match="^partial sums of an empty sequence are undefined$"):
        partial_sums((), 31)
    with pytest.raises(OutOfRangeError):
        is_simple([], 7)
    for bad in ((1, 40), (1, 0), (-16, 1)):
        with pytest.raises(ModulusMismatchError):
            partial_sums(bad, 31)
        with pytest.raises(ModulusMismatchError):
            is_simple(bad, 31)
    with pytest.raises(ModulusMismatchError):
        partial_sums((1, -1), 30)  # even modulus


def test_modmath_rejects_values_whose_type_is_not_int() -> None:
    # A float, or a bool, is neither a residue nor a modulus, even when it
    # compares equal to one.
    with pytest.raises(ModulusMismatchError, match=r"^1\.5 is not an integer residue mod 7$"):
        canon(1.5, 7)
    with pytest.raises(ModulusMismatchError, match=r"^True is not an integer residue mod 7$"):
        canon(True, 7)
    with pytest.raises(ModulusMismatchError,
                       match=r"^modulus must be an odd integer >= 3, got 7\.0$"):
        canon(1, 7.0)
    with pytest.raises(ModulusMismatchError,
                       match=r"^True is not a canonical nonzero residue mod 7$"):
        partial_sums([True, 2, -3], 7)
    with pytest.raises(ModulusMismatchError, match=r"^2\.0 is not a canonical"):
        is_simple([1, 2.0, -3], 7)
    with pytest.raises(ModulusMismatchError,
                       match=r"^modulus must be an odd integer >= 3, got True$"):
        is_half_set([1], True)


def test_is_simple_published_examples() -> None:
    assert is_simple(H38_REORDERED_ROW1, 49)
    # s_1 = s_6 = 36 in the original first row
    sums = partial_sums(H38_ORIGINAL_ROW1, 49)
    assert sums[0] == sums[5] == 36
    assert not is_simple(H38_ORIGINAL_ROW1, 49)


def test_short_sequences_are_simple() -> None:
    assert is_simple((5,), 31)
    assert is_simple((5, 7), 31)


def test_zero_total_iff_last_sum_zero() -> None:
    assert partial_sums((6, 7, -10, -4, 1), 31)[-1] == 0
    assert partial_sums((6, 7), 31)[-1] != 0


def _close_to_zero_sum(seq: list[int], v: int) -> list[int]:
    """Append the balancing element so the sequence sums to 0 mod v."""
    t = (-sum(seq)) % v
    if t == 0:
        return seq
    return seq + [canon(t, v)]


# Cyclic orderings of zero-sum parts: the setting where rotation/reversal
# invariance holds (for a nonzero total, wrapping breaks both).
_zero_sum_seqs = st.lists(
    st.integers(-24, 24).filter(lambda x: x != 0), min_size=1, max_size=12
).map(lambda seq: _close_to_zero_sum(seq, 49))


@given(_zero_sum_seqs)
def test_simplicity_invariant_under_rotation(seq: list[int]) -> None:
    # Rotating shifts every partial sum by a constant, preserving distinctness.
    rotated = seq[1:] + seq[:1]
    assert is_simple(seq, 49) == is_simple(rotated, 49)


@given(_zero_sum_seqs)
def test_simplicity_invariant_under_reversal(seq: list[int]) -> None:
    # Reversed partial sums are -s_{k-i}, a bijection of the originals.
    assert is_simple(seq, 49) == is_simple(seq[::-1], 49)


def test_invariances_need_the_zero_sum_hypothesis() -> None:
    # (3, -3, 5) mod 31 is simple but its reversal repeats a partial sum.
    assert is_simple((3, -3, 5), 31)
    assert not is_simple((5, -3, 3), 31)


def test_public_functions_read_a_one_shot_iterator_once() -> None:
    assert partial_sums(iter([1, 2, -3]), 7) == [1, 3, 0]
    assert not is_simple(iter([1, -1, 1]), 7)  # partial sums 1, 0, 1
    assert is_simple((x for x in (1, 2, -3)), 7)
    assert is_half_set(iter([1, 2, -3]), 7)
    assert not is_half_set(iter([1, -1, 2]), 7)


@pytest.mark.parametrize("fn", (is_half_set, partial_sums, is_simple))
def test_input_that_cannot_be_iterated_is_a_modulus_mismatch(fn) -> None:
    with pytest.raises(ModulusMismatchError, match=r"^5 is not an iterable of residues mod 7$"):
        fn(5, 7)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)


@given(st.lists(st.integers(-8, 8), max_size=6), st.sampled_from([7, 8, 13]))
def test_an_iterator_gives_the_outcome_of_its_list(seq: list[int], v: int) -> None:
    for fn in (is_half_set, partial_sums, is_simple):
        assert _outcome(fn, iter(seq), v) == _outcome(fn, seq, v) == _outcome(fn, tuple(seq), v)
