"""Search for simple reorderings of Heffter arrays, and a generic generator.

A single column permutation reorders every row simultaneously while moving
columns as units, so the columns of a column-simple array stay simple and
only row simplicity has to be searched.  Partial sums of a fixed prefix of
columns never change when the prefix is extended, so a prefix with a
repeated sum in any row can be pruned exactly: no completion can repair it.
The pruned depth-first search therefore finds the lexicographically least
valid permutation, or proves that none exists.

``generate_heffter`` builds m x n Heffter arrays from scratch by
backtracking over signed value placements on the free (m-1) x (n-1)
subgrid; the last cell of every row and column is forced by a zero-sum
constraint the moment its line fills, following a schedule that spreads
those forced closures as evenly as possible through the search.  Each
attempt is one loop over the schedule with an explicit stack of the values
each step has left to try, so its depth is bounded by memory, not by the
interpreter's recursion limit.  Since an H(m,n) exists for every
m, n >= 3 and an attempt can reach each one, the generator's only failure
is a spent node budget (proof at :func:`generate_heffter`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Sequence

from .core import (
    HeffterArray,
    from_rows,
    reorder_columns,
    verify_heffter,
)
from .errors import BudgetExceededError, OutOfRangeError, TooLargeError
from .modmath import half_bound

ORACLE_MAX_COLUMNS = 9  # n! complete checks beyond this are not desk-scale


@dataclass(frozen=True)
class SearchConfig:
    """Search strategy and resource limits.

    ``strategy`` selects pruned backtracking or plain exhaustive enumeration
    (both complete; both return the lexicographically least solution).  The
    seed only randomizes value order in ``generate_heffter``; permutation
    search is always deterministic.
    """

    strategy: str = "backtracking"
    node_budget: int = 5_000_000
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.strategy not in ("backtracking", "exhaustive"):
            raise OutOfRangeError(f"unknown strategy {self.strategy!r}")
        if self.node_budget <= 0:
            raise OutOfRangeError(f"node_budget must be positive, got {self.node_budget}")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a permutation search.

    ``permutation`` is None when the search space was exhausted without a
    solution (a nonexistence verdict, not an error).  A returned permutation
    has passed re-verification, so the reordered array is a simple Heffter array.
    """

    permutation: tuple[int, ...] | None
    nodes: int


def _search_backtracking(H: HeffterArray, budget: int) -> tuple[tuple[int, ...] | None, int]:
    v = H.modulus
    rows = H.cells
    n = H.n
    nodes = 0
    prefix: list[int] = []
    used = [False] * (n + 1)
    sums = [0] * len(rows)
    seen: list[set[int]] = [set() for _ in rows]

    def extend() -> tuple[int, ...] | None:
        nonlocal nodes
        if len(prefix) == n:
            return tuple(prefix)
        for col in range(1, n + 1):
            if used[col]:
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"permutation search exceeded {budget} nodes"
                )
            new = [(s + row[col - 1]) % v for s, row in zip(sums, rows)]
            if any(x in seen_i for x, seen_i in zip(new, seen)):
                continue  # a repeated partial sum can never be repaired
            old = sums[:]
            for i, x in enumerate(new):
                sums[i] = x
                seen[i].add(x)
            used[col] = True
            prefix.append(col)
            found = extend()
            if found is not None:
                return found
            prefix.pop()
            used[col] = False
            for i, x in enumerate(new):
                sums[i] = old[i]
                seen[i].remove(x)
        return None

    return extend(), nodes


def _rows_simple(rows: Sequence[Sequence[int]], order: Sequence[int], v: int) -> bool:
    for row in rows:
        acc = 0
        sums = set()
        for col in order:
            acc = (acc + row[col - 1]) % v
            if acc in sums:
                return False
            sums.add(acc)
    return True


def _search_exhaustive(H: HeffterArray, budget: int) -> tuple[tuple[int, ...] | None, int]:
    v = H.modulus
    nodes = 0
    for perm in permutations(range(1, H.n + 1)):
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"exhaustive search exceeded {budget} permutations")
        if _rows_simple(H.cells, perm, v):
            return perm, nodes
    return None, nodes


def find_simple_column_permutation(
    H: HeffterArray, cfg: SearchConfig = SearchConfig()
) -> SearchOutcome:
    """Find a column permutation making every row of H simple.

    Deterministic for a fixed configuration: both strategies explore columns
    in ascending order and return the lexicographically least valid
    permutation.  The returned permutation is re-verified through
    ``verify_heffter`` (soundness is checked, never trusted); ``permutation``
    is None when the full space was exhausted without a solution.  Raises
    BudgetExceededError when the node budget runs out first.
    """
    if cfg.strategy == "exhaustive":
        perm, nodes = _search_exhaustive(H, cfg.node_budget)
    else:
        perm, nodes = _search_backtracking(H, cfg.node_budget)
    if perm is not None:
        report = verify_heffter(reorder_columns(H, perm))
        if not (report.is_heffter and report.is_simple):
            raise AssertionError(f"search returned {perm} but re-verification failed")
    return SearchOutcome(permutation=perm, nodes=nodes)


def check_oracle_size(n: int) -> None:
    """Raise TooLargeError when :func:`brute_force_oracle` cannot run on n columns."""
    if n > ORACLE_MAX_COLUMNS:
        raise TooLargeError(f"oracle enumerates n! permutations; n={n} > {ORACLE_MAX_COLUMNS}")


def brute_force_oracle(H: HeffterArray) -> list[tuple[int, ...]]:
    """Every valid column permutation of H, in lexicographic order.

    Independent of the pruned search: enumerates all n! permutations and
    checks each one's rows from scratch.  Restricted to n <= 9.
    """
    check_oracle_size(H.n)
    v = H.modulus
    return [
        perm
        for perm in permutations(range(1, H.n + 1))
        if _rows_simple(H.cells, perm, v)
    ]


def _fill_schedule(m: int, n: int) -> list[tuple[str, int, int]]:
    """Cell schedule for the generator: early, evenly spread line closures.

    Free cells live in the (m-1) x (n-1) top-left subgrid; the last cell of
    every row and column is forced by a zero-sum axiom.  Unevenly many rows
    and columns would otherwise pile several forced cells at the end of the
    search, where they act as a nearly unsatisfiable wall, so the surplus
    lines of the longer dimension are filled and closed one by one first and
    the remaining square subgrid is walked in L-shaped bands (a row strip,
    close that row, a column strip, close that column).  Every forced value
    is then reserved as high up the search tree as possible, and the only
    consecutive closures left are the final row, column, and corner.
    """
    R, C = m - 1, n - 1
    schedule: list[tuple[str, int, int]] = []
    extra_cols = max(0, C - R)
    extra_rows = max(0, R - C)
    for j in range(extra_cols):
        schedule.extend(("free", i, j) for i in range(R))
        schedule.append(("close-col", m - 1, j))
    for i in range(extra_rows):
        schedule.extend(("free", i, j) for j in range(C))
        schedule.append(("close-row", i, n - 1))
    # L-shaped bands over the remaining square block.
    size = min(R, C)
    for b in range(size):
        i0 = extra_rows + b
        j0 = extra_cols + b
        schedule.extend(("free", i0, j) for j in range(j0, C))
        schedule.append(("close-row", i0, n - 1))
        schedule.extend(("free", i, j0) for i in range(i0 + 1, R))
        schedule.append(("close-col", m - 1, j0))
    schedule.append(("close-row", m - 1, n - 1))  # corner; column n-1 then sums to 0
    return schedule


def _generate_attempt(
    m: int, n: int, values: list[int], budget: int
) -> list[list[int]] | None:
    """One bounded depth-first pass over the fill schedule, as a single loop.

    ``tries[k]`` iterates the values step k has still to try: every value at
    a free cell, at most the one value closing the line at a forced cell.
    Nodes are counted at free cells only.  A step with nothing left to try
    hands control back to the step before it, which takes its own value back
    off ``grid`` and tries its next one.  Returns the solved grid, or None
    when ``budget`` nodes are spent or the space is searched to its end.
    """
    v = 2 * m * n + 1
    bound = half_bound(v)  # == m*n
    schedule = _fill_schedule(m, n)
    grid = [[0] * n for _ in range(m)]
    used = [False] * (bound + 1)
    row_sums = [0] * m
    col_sums = [0] * n
    tries: list[Iterator[int]] = []
    nodes = 0
    step = 0
    while step < len(schedule):
        kind, i, j = schedule[step]
        if step == len(tries):
            if kind == "free":
                tries.append(iter(values))
            else:
                r = -(row_sums[i] if kind == "close-row" else col_sums[j]) % v
                tries.append(iter((r if r <= bound else r - v,) if r else ()))
        else:  # back from step + 1: undo this cell
            x = grid[i][j]
            grid[i][j] = 0
            used[abs(x)] = False
            row_sums[i] -= x
            col_sums[j] -= x
        for x in tries[step]:
            if not used[abs(x)]:
                break
        else:
            tries.pop()
            if not tries:
                return None
            step -= 1
            continue
        if kind == "free":
            nodes += 1
            if nodes > budget:
                return None
        grid[i][j] = x
        used[abs(x)] = True
        row_sums[i] += x
        col_sums[j] += x
        step += 1
    return grid


def generate_heffter(
    m: int, n: int, cfg: SearchConfig = SearchConfig()
) -> HeffterArray:
    """Backtracking construction of an m x n Heffter array over Z_{2mn+1}.

    Places signed values of distinct absolute value 1..mn on the free
    (m-1) x (n-1) subgrid following :func:`_fill_schedule`; every other cell
    is forced by a row or column zero sum the moment its line completes.

    With ``cfg.seed`` set, a single pass is run with that seed's shuffled
    value order and the full node budget.  Otherwise a fixed restart ladder
    is used: the plain ascending order first, then value orders shuffled
    with seeds 0, 1, 2, ..., each capped at a slice of the budget.  Both
    modes are fully deterministic for a fixed configuration.  Raises
    BudgetExceededError when every attempt has spent its budget.

    No other outcome is possible, because an H(m,n) exists for every
    m, n >= 3 (Archdeacon, Boothby & Dinitz, J. Combin. Des. 25 (2017)) and
    an attempt that runs to its end has tried all of them: it gives the free
    cells every assignment of distinct signed values, and each forced cell
    can only hold the one canonical residue that closes its line.
    """
    if m < 3 or n < 3:
        raise OutOfRangeError(f"Heffter arrays need m, n >= 3, got {m} x {n}")
    v = 2 * m * n + 1
    ascending = [s * a for a in range(1, half_bound(v) + 1) for s in (1, -1)]

    def restart_ladder() -> Iterator[tuple[list[int], int]]:
        per_restart = max(20_000, cfg.node_budget // 25)
        remaining = cfg.node_budget
        restart = -1  # first attempt: plain ascending order
        while remaining > 0:
            values = list(ascending)
            if restart >= 0:
                random.Random(restart).shuffle(values)
            slice_budget = min(per_restart, remaining)
            yield values, slice_budget
            remaining -= slice_budget
            restart += 1

    if cfg.seed is not None:
        seeded = list(ascending)
        random.Random(cfg.seed).shuffle(seeded)
        attempts: Iterator[tuple[list[int], int]] = iter([(seeded, cfg.node_budget)])
    else:
        attempts = restart_ladder()

    for values, budget in attempts:
        grid = _generate_attempt(m, n, values, budget)
        if grid is not None:
            break
    else:
        raise BudgetExceededError(
            f"generator exceeded {cfg.node_budget} nodes for {m} x {n}"
        )
    H = from_rows(grid)
    report = verify_heffter(H)
    if not report.is_heffter:
        raise AssertionError("generator produced a grid failing the axiom checker")
    return H
