"""Exact arithmetic in Z_v for odd v, using symmetric nonzero representatives.

A nonzero class of Z_v is stored as the unique integer in
[-(v-1)/2, (v-1)/2] \\ {0}; a *half-set* is a set of (v-1)/2 such residues
containing exactly one of {x, -x} for every pair.  Partial sums are reported
as least nonnegative residues, so a zero-sum sequence always ends in 0.

Validation contract: the public functions read their input once, from any
iterable, and check that the modulus and every input are ints (bools
excluded) and that every input is a canonical nonzero residue.
The ``_``-prefixed kernels check nothing; they assume canonical input, as
found in a validated :class:`~heffter.core.HeffterArray`, and are what the
package's own hot paths call.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Sequence

from .errors import ModulusMismatchError, OutOfRangeError, ZeroResidueError


def check_modulus(v: int) -> None:
    """Reject moduli that are not odd integers >= 3 (a bool is not one)."""
    if type(v) is not int or v < 3 or v % 2 == 0:
        raise ModulusMismatchError(f"modulus must be an odd integer >= 3, got {v!r}")


def half_bound(v: int) -> int:
    """Largest absolute value of a canonical residue mod v, i.e. (v-1)/2."""
    return (v - 1) // 2


def canon(x: int, v: int) -> int:
    """Reduce x to its canonical representative in [-(v-1)/2, (v-1)/2].

    Raises ZeroResidueError when x is a multiple of v: 0 has no sign pair
    and never appears in a half-set.
    """
    check_modulus(v)
    if type(x) is not int:
        raise ModulusMismatchError(f"{x!r} is not an integer residue mod {v}")
    r = x % v
    if r == 0:
        raise ZeroResidueError(f"{x} is congruent to 0 mod {v}")
    return r if r <= half_bound(v) else r - v


def _canonical(seq: Iterable[int], v: int) -> list[int]:
    check_modulus(v)
    try:
        members = list(seq)
    except TypeError:
        raise ModulusMismatchError(f"{seq!r} is not an iterable of residues mod {v}") from None
    bound = half_bound(v)
    for x in members:
        if type(x) is not int or x == 0 or not -bound <= x <= bound:
            raise ModulusMismatchError(f"{x!r} is not a canonical nonzero residue mod {v}")
    return members


def is_half_set(elements: Iterable[int], v: int) -> bool:
    """True iff the elements form a half-set of Z_v.

    Exactly (v-1)/2 residues, no repeats, and for each pair {x, -x} exactly
    one member present -- equivalently, all absolute values distinct.
    """
    return _is_half_set(_canonical(elements, v), v)


def _is_half_set(members: Sequence[int], v: int) -> bool:
    return len(members) == half_bound(v) and len({abs(x) for x in members}) == len(members)


def partial_sums(seq: Iterable[int], v: int) -> list[int]:
    """Running sums of seq as least nonnegative residues mod v.

    The last sum is 0 exactly when the sequence is a zero-sum part of a
    Heffter system.
    """
    members = _canonical(seq, v)
    if not members:
        raise OutOfRangeError("partial sums of an empty sequence are undefined")
    return _partial_sums(members, v)


def _partial_sums(seq: Iterable[int], v: int) -> list[int]:
    return [s % v for s in accumulate(seq)]


def is_simple(seq: Iterable[int], v: int) -> bool:
    """True iff all partial sums of seq are distinct mod v."""
    sums = partial_sums(seq, v)
    return len(set(sums)) == len(sums)
