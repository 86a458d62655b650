"""Plain-text Heffter array files.

Format (ASCII, LF line endings, single spaces):

    heffter <m> <n> <v>
    <n space-separated integers>   x m rows
    # optional trailing comment lines

Every number is an ASCII decimal integer, an optional "-" then digits.
Entries must be canonical nonzero residues mod v (|x| <= (v-1)/2) with
pairwise distinct absolute values, and v must equal 2mn + 1.  Parsing
reports 1-based line/column positions on every rejection.
"""

from __future__ import annotations

import re

from .core import MIN_DIMENSION, HeffterArray, from_rows
from .errors import ArrayFormatError
from .modmath import half_bound

# Integers between single spaces; int() alone also reads "+1", "1_9" and "\u0661".
_INTEGERS = re.compile(r"-?[0-9]+(?: -?[0-9]+)*")


def _integer(token: str) -> int:
    if not _INTEGERS.fullmatch(token):
        raise ValueError(token)
    return int(token)


def parse_array(text: str) -> HeffterArray:
    """Parse an array file; reject malformed or non-half-set data."""
    lines = text.splitlines()
    if not lines:
        raise ArrayFormatError("empty file", line=1)
    header = lines[0].split()
    if len(header) != 4 or header[0] != "heffter":
        raise ArrayFormatError('header must be "heffter m n v"', line=1)
    try:
        m, n, v = (_integer(t) for t in header[1:])
    except ValueError:
        raise ArrayFormatError("header dimensions must be integers", line=1) from None
    if m < MIN_DIMENSION or n < MIN_DIMENSION:
        raise ArrayFormatError(f"need m, n >= {MIN_DIMENSION}, got {m} x {n}", line=1)
    if v != 2 * m * n + 1:
        raise ArrayFormatError(f"modulus must be 2*{m}*{n}+1 = {2 * m * n + 1}, got {v}", line=1)
    if len(lines) < 1 + m:
        raise ArrayFormatError(f"expected {m} data rows, found {len(lines) - 1}", line=len(lines))

    bound = half_bound(v)
    rows: list[list[int]] = []
    seen_abs: dict[int, tuple[int, int]] = {}
    for i in range(m):
        lineno = i + 2
        tokens = lines[1 + i].split()
        if len(tokens) != n:
            raise ArrayFormatError(f"expected {n} entries, found {len(tokens)}", line=lineno)
        # One match checks the whole row; only a row that fails it is read token by token.
        to_int = int if _INTEGERS.fullmatch(" ".join(tokens)) else _integer
        row: list[int] = []
        for j, token in enumerate(tokens):
            col = j + 1
            try:
                x = to_int(token)
            except ValueError:
                raise ArrayFormatError(f"{token!r} is not an integer", lineno, col) from None
            if x == 0:
                raise ArrayFormatError("zero entry", lineno, col)
            if abs(x) > bound:
                raise ArrayFormatError(f"|{x}| exceeds (v-1)/2 = {bound}", lineno, col)
            if abs(x) in seen_abs:
                first = seen_abs[abs(x)]
                raise ArrayFormatError(
                    f"absolute value {abs(x)} already used at line {first[0]}, column {first[1]}",
                    lineno,
                    col,
                )
            seen_abs[abs(x)] = (lineno, col)
            row.append(x)
        rows.append(row)

    for extra_index, extra in enumerate(lines[1 + m :], start=m + 2):
        if extra.strip() and not extra.lstrip().startswith("#"):
            raise ArrayFormatError("unexpected data after array rows", line=extra_index)
    return from_rows(rows)


def serialize_array(H: HeffterArray) -> str:
    """Render an array in the file format; inverse of parse_array."""
    out = [f"heffter {H.m} {H.n} {H.modulus}"]
    out.extend(" ".join(str(x) for x in row) for row in H.cells)
    return "\n".join(out) + "\n"
