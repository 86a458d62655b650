"""Slow, independent oracles for checks the package reads off a quotient.

Every check of :mod:`heffter.embedding` and the Euler data of its
certificate on all v(m+n) expanded faces, O(v^2), the checks of
:func:`heffter.orderings.compatible_orderings` on each part as it runs,
reversed or not, its composition cycle from successor tables, the node
count of the column search by the kernel it replaced, and the CLI parser
written out per subcommand: the differential tests compare the package
against these.
"""

from __future__ import annotations

import argparse
from itertools import accumulate, chain
from typing import Iterator

from heffter import __version__
from heffter.cli import (
    _cmd_develop,
    _cmd_embed,
    _cmd_gen3,
    _cmd_generate,
    _cmd_genus,
    _cmd_orderings,
    _cmd_reorder,
    _cmd_search,
    _cmd_verify,
)
from heffter.core import HeffterArray
from heffter.embedding import EmbeddingCertificate, FaceSet, Walk, orbit
from heffter.errors import (
    BudgetExceededError,
    InconsistentRotationError,
    NoCompatibleConstructionError,
    NotAnEmbeddingError,
    NotHeffterError,
    NotSimpleError,
    PinchPointError,
)
from heffter.orderings import Cell, Parts
from heffter.search import NODE_BUDGET, STRATEGIES


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
    for walk in chain(F.rows, F.cols):
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


def _edges(faces: list[Walk]) -> list[tuple[int, int]]:
    """The undirected edge of every side of every face, smaller end first."""
    return [(a, b) if a < b else (b, a) for walk in faces for a, b in zip(walk, walk[1:] + walk[:1])]


def _pair_coverage_exhaustive(faces: list[Walk], v: int) -> bool:
    """:func:`exact_pair_coverage` by listing the edges of every cycle."""
    edges = _edges(faces)
    return len(set(edges)) == len(edges) == v * (v - 1) // 2


def certify_exhaustive(F: FaceSet) -> EmbeddingCertificate:
    """:func:`certify` by full expansion of every face; the slow oracle.

    Counts every arc of every face in a v x v table, builds the successor
    map at every vertex, and counts the undirected edges of each color.  The
    Euler data are counted on the expanded faces too: the vertices they
    visit, their distinct edges and the faces themselves; the 3 x n closed
    form 1 + (6n+1)(n-2) is compared when every column face is a triangle
    and every row face an n-gon with v = 6n + 1.  No step of it is shared
    with :mod:`heffter.embedding`.
    """
    v = F.v
    rows, cols = list(F.rows), list(F.cols)
    counts = _arc_counts(v, chain(rows, cols))  # raises on a loop arc, so the diagonal is 0
    for u in range(v):
        for w in range(v):
            c = counts[u * v + w]
            if c != 1 and u != w:
                raise NotAnEmbeddingError(
                    f"arc ({u},{w}) lies on {c} faces, expected exactly 1"
                )
    _successors_exhaustive(F)
    vertices = len({x for walk in chain(rows, cols) for x in walk})
    edges = len(set(_edges(rows + cols)))
    faces = len(rows) + len(cols)
    euler = vertices - edges + faces
    genus = (2 - euler) // 2
    n = (v - 1) // 6
    matches = None
    if {len(walk) for walk in cols} == {3} and {len(walk) for walk in rows} == {n} and v == 6 * n + 1:
        matches = genus == 1 + (6 * n + 1) * (n - 2)
    return EmbeddingCertificate(
        num_row_faces=len(rows),
        num_col_faces=len(cols),
        vertices=vertices,
        edges=edges,
        faces=faces,
        euler_characteristic=euler,
        genus=genus,
        edge_bicolor_ok=_pair_coverage_exhaustive(rows, v) and _pair_coverage_exhaustive(cols, v),
        genus_matches_formula=matches,
    )


def search_backtracking_reference(
    H: HeffterArray, budget: int
) -> tuple[tuple[int, ...] | None, int]:
    """The column search as it was first written; the reference for its nodes.

    Scans all n columns at every depth and skips the used ones, sums every
    row of a child before it checks any.  A node is one unused column tried
    at one depth, so :func:`heffter.search._search_backtracking` must return
    the same ``(permutation, nodes)`` or raise the same budget message.
    """
    v = H.modulus
    rows = H.cells
    n = H.n
    nodes = 0
    prefix: list[int] = []
    used = [False] * (n + 1)
    seen: list[set[int]] = [set() for _ in rows]

    def extend(sums: list[int]) -> tuple[int, ...] | None:
        nonlocal nodes
        if len(prefix) == n:
            return tuple(prefix)
        for col in range(1, n + 1):
            if used[col]:
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"permutation search exceeded {budget} nodes")
            new = [(s + row[col - 1]) % v for s, row in zip(sums, rows)]
            if any(x in seen_i for x, seen_i in zip(new, seen)):
                continue  # a repeated partial sum can never be repaired
            for x, seen_i in zip(new, seen):
                seen_i.add(x)
            used[col] = True
            prefix.append(col)
            found = extend(new)
            if found is not None:
                return found
            prefix.pop()
            used[col] = False
            for x, seen_i in zip(new, seen):
                seen_i.remove(x)
        return None

    return extend([0] * len(rows)), nodes


def build_parser_reference() -> argparse.ArgumentParser:
    """The CLI parser written out one block per subcommand.

    :func:`heffter.cli.build_parser` declares each subcommand through one
    helper; it must print the same help and parse every argv to the same
    namespace, or fail with the same usage error, as this one.
    """
    parser = argparse.ArgumentParser(
        prog="heffter",
        description="Construct, verify, and biembed Heffter arrays.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen3", help="emit a simple 3 x n Heffter array")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_gen3)

    p = sub.add_parser("verify", help="verify the Heffter axioms and simplicity of an array file")
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reorder", help="apply a column permutation to an array file")
    p.add_argument("--file", required=True)
    p.add_argument("--perm", required=True, help='e.g. "1,2,6,8,5,3,4,7"')
    p.set_defaults(func=_cmd_reorder)

    p = sub.add_parser("orderings", help="build compatible row/column orderings")
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_orderings)

    p = sub.add_parser("develop", help="develop the row or column cycle system mod v")
    p.add_argument("--file", required=True)
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--rows", dest="source", action="store_const", const="rows")
    direction.add_argument("--cols", dest="source", action="store_const", const="cols")
    p.add_argument("--expand", action="store_true", help="list every developed cycle")
    p.set_defaults(func=_cmd_develop)

    p = sub.add_parser("embed", help="assemble and certify the orientable biembedding")
    p.add_argument("--file", required=True)
    p.add_argument("--expand", action="store_true", help="list every face explicitly")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("genus", help="closed-form genus of the K_{6n+1} biembedding")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("search", help="find a column permutation making every row simple")
    p.add_argument("--file", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="backtracking")
    p.add_argument("--budget", type=int, default=NODE_BUDGET)
    p.add_argument("--all", action="store_true", help="also list every valid permutation (n <= 9)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("generate", help="generate an m x n Heffter array by backtracking")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=NODE_BUDGET)
    p.set_defaults(func=_cmd_generate)
    return parser

