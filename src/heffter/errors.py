"""Exception hierarchy shared by all heffter modules.

Every error raised by this package derives from :class:`HeffterError`, so
callers can catch one base class.  Input-validation errors additionally
derive from :class:`ValueError`.
"""

from __future__ import annotations


class HeffterError(Exception):
    """Base class for all errors raised by this package."""


class ZeroResidueError(HeffterError, ValueError):
    """An integer congruent to 0 was given where a nonzero residue is required."""


class ModulusMismatchError(HeffterError, ValueError):
    """A modulus or residue is not an int, or lies outside the canonical range."""


class InvalidEntryError(HeffterError, ValueError):
    """An array cell is not a canonical nonzero residue for the array modulus."""


class InvalidPermutationError(HeffterError, ValueError):
    """A column reordering is not a permutation of 1..n."""


class OutOfRangeError(HeffterError, ValueError):
    """A size parameter is outside the supported range (e.g. n < 3)."""


class NoCompatibleConstructionError(HeffterError):
    """No compatible orderings, because both dimensions are even.

    This is the only cause: the row and column orderings compose to a
    permutation of sign (-1)^(m+n) = +1, and an mn-cycle is odd.  With m or
    n odd the construction always composes to one mn-cycle.
    """


class NotSimpleError(HeffterError):
    """A Heffter-system part has repeated partial sums and cannot be developed."""


class NotHeffterError(HeffterError):
    """Input parts do not form a Heffter system (bad sums or not a half-set)."""


class NotAnEmbeddingError(HeffterError):
    """The face set fails arc-exactness: an arc is a loop or lies on no face or on several."""


class InconsistentRotationError(HeffterError):
    """A vertex's corner-successor map is not a permutation of its neighbors."""


class PinchPointError(HeffterError):
    """A vertex rotation splits into several cycles (pseudosurface, not a surface)."""


class BudgetExceededError(HeffterError):
    """A search exhausted its node budget before reaching a verdict."""


class TooLargeError(HeffterError, ValueError):
    """A refused size: a listing above core.EXPAND_LIMIT, the oracle above n = 9, a genus too long to print."""


class ArrayFormatError(HeffterError, ValueError):
    """A Heffter array file is malformed.

    Carries 1-based ``line`` and ``column`` positions when they are known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where = f" ({where})"
        super().__init__(message + where)
