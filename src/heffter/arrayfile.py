"""Plain-text Heffter array files.

Format (ASCII, LF line endings, single spaces):

    heffter <m> <n> <v>
    <n space-separated integers>   x m rows
    # optional trailing comment lines

Every number is an ASCII decimal integer, an optional "-" then digits.
Entries must be canonical nonzero residues mod v (|x| <= (v-1)/2) with
pairwise distinct absolute values, and v must equal 2mn + 1.  Parsing
reports the 1-based line of every rejection, and a column where one applies:
an entry's position in its row, or the character position of any whitespace
other than a single space between two fields.  Only LF ends a line, so a CR
or any other line break is such whitespace.
"""

from __future__ import annotations

import re

from .core import MIN_DIMENSION, HeffterArray, _check_type
from .errors import ArrayFormatError
from .modmath import half_bound

# Integers between single spaces; int() alone also reads "+1", "1_9" and "\u0661".
_INTEGERS = re.compile(r"-?[0-9]+(?: -?[0-9]+)*")
# Whitespace that is not a single space between two fields.
_BAD_SPACE = re.compile(r"\A\s|\s\Z|(?<=\s)\s|[^\S ]")


def _integer(token: str) -> int:
    if not _INTEGERS.fullmatch(token):
        raise ValueError(token)
    return int(token)


def _fields(line: str, lineno: int) -> list[str]:
    """The fields of a header or data line, which only single spaces may separate."""
    bad = _BAD_SPACE.search(line)
    if bad:
        message = f"unexpected whitespace {bad.group()!r}; fields are separated by single spaces"
        raise ArrayFormatError(message, lineno, bad.start() + 1)
    return line.split()


def parse_array(text: str) -> HeffterArray:
    """Parse an array file; reject malformed or non-half-set data, and text that is not a str."""
    if not isinstance(text, str):
        raise ArrayFormatError(f"expected the file text as a str, got {type(text).__name__}")
    if not text:
        raise ArrayFormatError("empty file", line=1)
    lines = text.removesuffix("\n").split("\n")
    header = _fields(lines[0], 1)
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
        line = lines[1 + i]
        # One match checks the whole row; only a row that fails it is read field by field.
        if _INTEGERS.fullmatch(line):
            tokens, to_int = line.split(" "), int
        else:
            tokens, to_int = _fields(line, lineno), _integer
        if len(tokens) != n:
            raise ArrayFormatError(f"expected {n} entries, found {len(tokens)}", line=lineno)
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
        if not extra.isascii():
            raise ArrayFormatError("non-ASCII text; the format is ASCII-only", line=extra_index)
        if extra.strip() and not extra.lstrip().startswith("#"):
            raise ArrayFormatError("unexpected data after array rows", line=extra_index)
    return HeffterArray(rows)


def serialize_array(H: HeffterArray) -> str:
    """Render an array in the file format; inverse of parse_array."""
    _check_type(H, HeffterArray)
    out = [f"heffter {H.m} {H.n} {H.modulus}"]
    out.extend(" ".join(str(x) for x in row) for row in H.cells)
    return "\n".join(out) + "\n"
