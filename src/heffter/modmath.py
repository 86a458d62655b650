"""Exact arithmetic in Z_v for odd v, using symmetric nonzero representatives.

A nonzero class of Z_v is stored as the unique integer in
[-(v-1)/2, (v-1)/2] \\ {0}; a *half-set* is a set of (v-1)/2 such residues
containing exactly one of {x, -x} for every pair.  Partial sums are reported
as least nonnegative residues, so a zero-sum sequence always ends in 0.

Validation contract: the public functions check the modulus and that every
input is a canonical nonzero residue, computing the bound once per call.
The ``_``-prefixed kernels check nothing; they assume canonical input, as
found in a validated :class:`~heffter.core.HeffterArray`, and are what the
package's own hot paths call.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Sequence

from .errors import ModulusMismatchError, ZeroResidueError


def check_modulus(v: int) -> None:
    """Reject moduli that are not odd integers >= 3."""
    if v < 3 or v % 2 == 0:
        raise ModulusMismatchError(f"modulus must be odd and >= 3, got {v}")


def half_bound(v: int) -> int:
    """Largest absolute value of a canonical residue mod v, i.e. (v-1)/2."""
    return (v - 1) // 2


def canon(x: int, v: int) -> int:
    """Reduce x to its canonical representative in [-(v-1)/2, (v-1)/2].

    Raises ZeroResidueError when x is a multiple of v: 0 has no sign pair
    and never appears in a half-set.
    """
    check_modulus(v)
    if x % v == 0:
        raise ZeroResidueError(f"{x} is congruent to 0 mod {v}")
    return _canon_all((x,), v)[0]


def _canon_all(seq: Iterable[int], v: int) -> list[int]:
    """Canonical representatives of seq; a multiple of v becomes 0."""
    bound = half_bound(v)
    return [r if r <= bound else r - v for r in (x % v for x in seq)]


def _require_canonical(seq: Iterable[int], v: int) -> None:
    check_modulus(v)
    bound = half_bound(v)
    for x in seq:
        if x == 0 or not -bound <= x <= bound:
            raise ModulusMismatchError(
                f"{x} is not a canonical nonzero residue mod {v}"
            )


def is_half_set(elements: Iterable[int], v: int) -> bool:
    """True iff the elements form a half-set of Z_v.

    Exactly (v-1)/2 residues, no repeats, and for each pair {x, -x} exactly
    one member present -- equivalently, all absolute values distinct.
    """
    members = list(elements)
    _require_canonical(members, v)
    return _is_half_set(members, v)


def _is_half_set(members: Sequence[int], v: int) -> bool:
    return len(members) == half_bound(v) and len({abs(x) for x in members}) == len(members)


def partial_sums(seq: Sequence[int], v: int) -> list[int]:
    """Running sums of seq as least nonnegative residues mod v.

    The last sum is 0 exactly when the sequence is a zero-sum part of a
    Heffter system.
    """
    if not seq:
        raise ValueError("partial sums of an empty sequence are undefined")
    _require_canonical(seq, v)
    return _partial_sums(seq, v)


def _partial_sums(seq: Iterable[int], v: int) -> list[int]:
    return [s % v for s in accumulate(seq)]


def is_simple(seq: Sequence[int], v: int) -> bool:
    """True iff all partial sums of seq are distinct mod v."""
    sums = partial_sums(seq, v)
    return len(set(sums)) == len(sums)
