"""Slow, independent oracles for checks the package reads off a quotient.

Every check of :mod:`heffter.embedding` on all v(m+n) expanded faces,
O(v^2), the checks of :func:`heffter.orderings.compatible_orderings` on
each part as it runs, reversed or not, and its composition cycle from
successor tables: the differential tests compare the package against these.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator

from heffter.core import HeffterArray
from heffter.embedding import CycleSystem, EmbeddingCertificate, FaceSet, Walk, _certificate, orbit
from heffter.errors import (
    InconsistentRotationError,
    NoCompatibleConstructionError,
    NotAnEmbeddingError,
    NotHeffterError,
    NotSimpleError,
    PinchPointError,
)
from heffter.orderings import Cell, Parts


def ordering_parts(m: int, n: int) -> tuple[Parts, Parts]:
    """The construction's row and column parts of an m x n grid, as its proof states them.

    Odd n = 2t+1: rows left to right, columns 1..t+1 top to bottom and the
    rest bottom to top.  Even n, odd m: rows 1..(m+1)/2 left to right, the
    rest right to left, and every column top to bottom.
    """
    rows = [tuple((i, j) for j in range(n)) for i in range(m)]
    cols = [tuple((i, j) for i in range(m)) for j in range(n)]
    if n % 2 == 1:
        cols[(n + 1) // 2 :] = [col[::-1] for col in cols[(n + 1) // 2 :]]
    elif m % 2 == 1:
        rows[(m + 1) // 2 :] = [row[::-1] for row in rows[(m + 1) // 2 :]]
    else:
        raise NoCompatibleConstructionError(
            f"both dimensions even ({m} x {n}): no compatible orderings exist, since "
            f"they compose to an even permutation and a cycle on all {m * n} cells is odd"
        )
    return tuple(rows), tuple(cols)


def composition_orbit(row_parts: Parts, col_parts: Parts) -> tuple[Cell, ...]:
    """The orbit of cell (0, 0) under a row step then a column step, from successor tables.

    Each part sends a cell to the next one in the part, cyclically; the two
    tables are composed over every cell before the orbit is walked.
    """
    succ_r, succ_c = (
        {cell: part[(k + 1) % len(part)] for part in parts for k, cell in enumerate(part)}
        for parts in (row_parts, col_parts)
    )
    return orbit({cell: succ_c[succ_r[cell]] for cell in succ_r}, (0, 0))


def check_ordering_parts(H: HeffterArray) -> None:
    """The checks of ``compatible_orderings`` run on the parts themselves.

    Sums every row part, then every column part, in the direction the part
    runs, so reversed parts are checked without the reversal argument.
    """
    v = H.modulus
    for what, parts in zip(("row", "column"), ordering_parts(H.m, H.n)):
        for k, part in enumerate(parts, 1):
            sums = [s % v for s in accumulate(H.cells[i][j] for i, j in part)]
            if sums[-1]:
                raise NotHeffterError(f"{what} part {k} does not sum to 0 mod {v}")
            if len(set(sums)) != len(sums):
                raise NotSimpleError(f"{what} part {k} has a repeated partial sum mod {v}")


def _arc_counts(v: int, faces: Iterator[Walk]) -> bytearray:
    """Explicit per-arc counters, indexed u * v + w; saturates at 255."""
    counts = bytearray(v * v)
    for walk in faces:
        for a, b in zip(walk, walk[1:] + walk[:1]):
            if a == b:
                raise NotAnEmbeddingError(f"degenerate arc at vertex {a}")
            i = a * v + b
            if counts[i] < 255:
                counts[i] += 1
    return counts


def _successors_exhaustive(F: FaceSet) -> tuple[dict[int, int], ...]:
    """The successor map at every vertex, read off every corner of every face."""
    v = F.v
    succ: list[dict[int, int]] = [dict() for _ in range(v)]
    for walk in F.faces():
        k = len(walk)
        for idx, u in enumerate(walk):
            a = walk[idx - 1]
            if a in succ[u]:
                raise InconsistentRotationError(
                    f"two faces define the corner after ({a},{u})"
                )
            succ[u][a] = walk[(idx + 1) % k]
    for u in range(v):
        if len(succ[u]) != v - 1 or len(set(succ[u].values())) != v - 1:
            raise InconsistentRotationError(
                f"successor map at vertex {u} is not a permutation of its neighbors"
            )
        length = len(orbit(succ[u], next(iter(succ[u]))))
        if length != v - 1:
            raise PinchPointError(
                f"rotation at vertex {u} splits (orbit {length} of {v - 1})"
            )
    return tuple(succ)


def _pair_coverage_exhaustive(system: CycleSystem) -> bool:
    """:func:`exact_pair_coverage` by listing the edges of every cycle."""
    edges: set[tuple[int, int]] = set()
    for walk in system:
        for a, b in zip(walk, walk[1:] + walk[:1]):
            edge = (a, b) if a < b else (b, a)
            if edge in edges:
                return False
            edges.add(edge)
    return len(edges) == system.v * (system.v - 1) // 2


def certify_exhaustive(F: FaceSet) -> EmbeddingCertificate:
    """:func:`certify` by full expansion of every face; the slow oracle.

    Counts every arc of every face in a v x v table, builds the successor
    map at every vertex, and counts the undirected edges of each color.
    """
    v = F.v
    counts = _arc_counts(v, F.faces())  # raises on a loop arc, so the diagonal is 0
    for u in range(v):
        for w in range(v):
            c = counts[u * v + w]
            if c != 1 and u != w:
                raise NotAnEmbeddingError(
                    f"arc ({u},{w}) lies on {c} faces, expected exactly 1"
                )
    _successors_exhaustive(F)
    bicolor = _pair_coverage_exhaustive(F.rows) and _pair_coverage_exhaustive(F.cols)
    return _certificate(F, bicolor)
