"""Search for simple reorderings of Heffter arrays, and a generic generator.

A single column permutation reorders every row simultaneously while moving
columns as units, so the columns of a column-simple array stay simple and
only row simplicity has to be searched.  The search first checks that its
input is a Heffter array at all, since no column order can repair a line
sum or a repeated absolute value.  Partial sums of a fixed prefix of
columns never change when the prefix is extended, so a prefix with a
repeated sum in any row can be pruned exactly: no completion can repair it.
The pruned depth-first search therefore finds the lexicographically least
valid permutation, or proves that none exists.  A node is one unused
column tried at one depth.  The search recurses one frame per column, so n
near 1000 still ends in RecursionError, a known defect (ROADMAP item 1).

``generate_heffter`` builds m x n Heffter arrays from scratch by
backtracking over signed value placements on the free (m-1) x (n-1)
subgrid; the last cell of every row and column is forced by a zero-sum
constraint the moment its line fills, following a schedule that spreads
those forced closures as evenly as possible through the search.  Each
attempt is one loop over the free cells with an explicit stack of the
values each has left to try, so its depth is bounded by memory, not by the
interpreter's recursion limit.  A free cell tries only the values still
unplaced, filtered from a list made higher on its path rather than from
all 2mn; a cell sees the same placements each time it moves to its next
value, because the cells below it take back all they placed first.  When
the cell closes a line, values whose closing residue is already placed are
dropped in the same pass.  A node is still one unplaced value tried at a
free cell, counted by position, so budget stops fall where a scan of every
value puts them.  Since an H(m,n) exists for every
m, n >= 3 and an attempt can reach each one, the generator's only failure
is a spent node budget, and what it returns is a Heffter array (proofs at
:func:`generate_heffter`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, compress, count, permutations
from typing import Iterable, Iterator, Sequence

from .core import MIN_DIMENSION, HeffterArray, _check_type, check_listing, verify_heffter
from .errors import BudgetExceededError, NotHeffterError, OutOfRangeError, TooLargeError
from .modmath import half_bound

ORACLE_MAX_COLUMNS = 9  # n! complete checks beyond this are not desk-scale
NODE_BUDGET = 5_000_000  # default node budget of the search and the generator


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a permutation search.

    ``permutation`` is None when the search space was exhausted without a
    solution (a nonexistence verdict, not an error).  A returned permutation
    makes a simple Heffter array: proved for the rows, checked for the columns.
    """

    permutation: tuple[int, ...] | None
    nodes: int


def _search_backtracking(H: HeffterArray, budget: int) -> tuple[tuple[int, ...] | None, int]:
    v = H.modulus
    columns = [None, *zip(*H.cells)]  # columns[col] holds column col's entries, top to bottom
    nodes = 0
    prefix: list[int] = []
    left = list(range(1, H.n + 1))  # the unused columns, ascending
    seen: list[set[int]] = [set() for _ in H.cells]

    def extend(sums: list[int]) -> tuple[int, ...] | None:
        nonlocal nodes
        if not left:
            return tuple(prefix)
        for k in range(len(left)):  # left is whole again before each index is read
            col = left[k]
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"permutation search exceeded {budget} nodes")
            new = []
            for s, a, seen_i in zip(sums, columns[col], seen):
                x = (s + a) % v
                if x in seen_i:
                    break  # a repeated partial sum can never be repaired
                new.append(x)
            else:
                for x, seen_i in zip(new, seen):
                    seen_i.add(x)
                del left[k]
                prefix.append(col)
                found = extend(new)
                if found is not None:
                    return found
                prefix.pop()
                left.insert(k, col)
                for x, seen_i in zip(new, seen):
                    seen_i.remove(x)
        return None

    return extend([0] * len(seen)), nodes


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
    for nodes, perm in enumerate(permutations(range(1, H.n + 1)), 1):
        if nodes > budget:
            raise BudgetExceededError(f"exhaustive search exceeded {budget} permutations")
        if _rows_simple(H.cells, perm, v):
            return perm, nodes
    return None, nodes  # n >= 3, so the loop ran and bound nodes


STRATEGIES = {"backtracking": _search_backtracking, "exhaustive": _search_exhaustive}


def _check_budget(node_budget: int) -> None:
    if type(node_budget) is not int or node_budget <= 0:
        raise OutOfRangeError(f"node_budget must be positive, got {node_budget!r}")


def find_simple_column_permutation(
    H: HeffterArray, *, strategy: str = "backtracking", node_budget: int = NODE_BUDGET
) -> SearchOutcome:
    """Find a column permutation making every row of H simple.

    ``strategy`` selects pruned backtracking or plain exhaustive enumeration;
    both are complete, explore columns in ascending order and return the
    lexicographically least valid permutation, so the search is deterministic.
    An unknown strategy, then a budget that is not an int >= 1, raises
    OutOfRangeError before H is read.  Raises NotHeffterError when H is not
    a Heffter array, naming the first row, else the first column, that does
    not sum to 0, else the half-set.  A returned permutation makes the rows
    simple by proof; the columns, which no column order changes, are checked;
    ``permutation`` is None when the full space was exhausted without a
    solution.  Raises BudgetExceededError when ``node_budget`` nodes are spent first.
    """
    if type(strategy) is not str or strategy not in STRATEGIES:
        raise OutOfRangeError(f"unknown strategy {strategy!r}")
    _check_budget(node_budget)
    report = verify_heffter(H)
    v = H.modulus
    for what, sum_ok in (("row", report.row_sum_ok), ("column", report.col_sum_ok)):
        for k, ok in enumerate(sum_ok, 1):
            if not ok:
                raise NotHeffterError(f"{what} {k} does not sum to 0 mod {v}")
    if not report.half_set_ok:
        raise NotHeffterError(f"entries do not form a half-set of Z_{v}")
    perm, nodes = STRATEGIES[strategy](H, node_budget)
    # Only the columns can fail: the gate passed and a permutation keeps line sums and the
    # half-set; column j of the result is column perm[j] of H, in order; backtracking adds each
    # row's sums to ``seen`` without a repeat, exhaustive returns only orders passing _rows_simple.
    if perm is not None and not all(report.col_simple):
        raise AssertionError(f"search returned {perm} but re-verification failed")
    return SearchOutcome(permutation=perm, nodes=nodes)


def check_oracle_size(n: int) -> None:
    """Raise OutOfRangeError unless n is an int, TooLargeError when the oracle cannot run on n."""
    if type(n) is not int:
        raise OutOfRangeError(f"column count must be an int, got {n!r}")
    if n > ORACLE_MAX_COLUMNS:
        raise TooLargeError(f"oracle enumerates n! permutations; n={n} > {ORACLE_MAX_COLUMNS}")


def brute_force_oracle(H: HeffterArray) -> list[tuple[int, ...]]:
    """Every valid column permutation of H, in lexicographic order.

    Independent of the pruned search: enumerates all n! permutations and
    checks each one's rows from scratch.  Restricted to n <= 9.  Raises
    InvalidEntryError when H is not a HeffterArray.
    """
    _check_type(H, HeffterArray)
    check_oracle_size(H.n)
    v = H.modulus
    return [
        perm
        for perm in permutations(range(1, H.n + 1))
        if _rows_simple(H.cells, perm, v)
    ]


def _fill_schedule(m: int, n: int) -> list[tuple[int, int]]:
    """Cell order for the generator: every cell once, with early, evenly spread line closures.

    Free cells live in the (m-1) x (n-1) top-left subgrid; the cells of the
    last row and column are forced by a zero-sum axiom, each listed after
    every other cell of the line it closes.  Unevenly many rows and columns
    would otherwise pile several forced cells at the end of the search, where
    they act as a nearly unsatisfiable wall, so the surplus lines of the
    longer dimension are walked first, each to its border cell, and the
    remaining square block in L-shaped bands (a row strip to column n-1, then
    a column strip to row m-1).  Every forced value is then reserved as high
    up the search tree as possible, and the only consecutive closures left
    are the final row, column, and corner.
    """
    x, y = max(0, n - m), max(0, m - n)  # surplus columns, surplus rows
    cells = [(i, j) for j in range(x) for i in range(m)]
    cells += [(i, j) for i in range(y) for j in range(n)]
    for b in range(min(m, n) - 1):
        cells += [(y + b, j) for j in range(x + b, n)]
        cells += [(i, x + b) for i in range(y + b + 1, m)]
    cells.append((m - 1, n - 1))
    return cells


def _generate_attempt(
    m: int, n: int, values: list[int], budget: int
) -> list[list[int]] | None:
    """One bounded depth-first pass over the fill schedule, as a single loop.

    A cell is free iff it lies off the last row and column.  A last-row cell
    closes its column and any other last-column cell closes its row; so the
    corner closes column n-1, which gives the residue closing row m-1 too:
    with every other line at 0, both sum to the total of the placed cells.
    ``cells[k]`` is free cell k with the forced cells that follow it in the
    schedule; the first of them closes cell k's own line, since each strip
    of :func:`_fill_schedule` ends in its border cell.  ``avail[x]`` says
    whether |x| is unplaced, indexed by the signed value: ``avail[-x]`` is
    ``avail[v - x]``, so a residue r in -2mn..2mn is looked up as
    ``avail[r]``, and ``avail[0]`` is False.

    ``tries[k]`` iterates the candidates of free cell k, as (position, x)
    with the position among the values still unplaced when cell k was
    entered, in the order of ``values``.  A cell reads them from the list
    made last on the path, filtered by ``avail``: it lists them afresh when
    they are at most half of that list, so the lists held on a path sum to
    at most 4mn integers, and otherwise streams that list lazily, reading
    under twice the values left unplaced of all 2mn.  The two agree because
    a cell sees the same ``avail`` each time it moves on: the cells below it
    take back all they placed before control returns, and it takes back its
    own value first.  When a forced cell follows, the candidates are only
    the x whose closing residue need - x is unplaced and nonzero, found in
    the same pass; the rare x with residue x or -x is placed and taken back
    by the forced check.  A node is still one unplaced value tried at a free
    cell: choosing the value at position p adds p minus the position of the
    value before it, and running out adds the unplaced values left after
    that, so every budget stop falls where a cell-by-cell scan puts it.
    Returns the solved grid, or None when ``budget`` nodes are spent or the
    space is searched to its end.
    """
    v = 2 * m * n + 1
    bound = half_bound(v)  # == m*n
    cells: list[tuple[int, int, list[tuple[int, int]], bool]] = []  # (i, j, forced cells, listed)
    made = 2 * bound  # values left when the last list was made, as if ``values`` held all 2mn
    for step, (i, j) in enumerate(_fill_schedule(m, n)):
        if i < m - 1 and j < n - 1:
            left = 2 * (bound - step)
            listed = 2 * left <= made
            made = left if listed else made
            cells.append((i, j, [], listed))
        else:
            cells[-1][2].append((i, j))
    grid = [[0] * n for _ in range(m)]
    avail = [True] * v
    avail[0] = False
    look = avail.__getitem__
    row_sums = [0] * m
    col_sums = [0] * n

    def take_back(i: int, j: int, forced: Iterable[tuple[int, int]]) -> None:
        """Take back free cell (i, j), then the forced cells it closed."""
        x = grid[i][j]
        avail[x] = avail[-x] = True
        row_sums[i] -= x
        col_sums[j] -= x
        for i, j in forced:
            y = grid[i][j]
            avail[y] = avail[-y] = True
            row_sums[i] -= y
            col_sums[j] -= y

    lists = [values]  # the lists made on the path, ``values`` first
    tries: list[Iterator[tuple[int, int]]] = []
    lasts: list[int] = []  # lasts[k]: the position of cell k's current value
    nodes = 0
    k = 0
    while True:
        i, j, forced, listed = cells[k]
        if k == len(tries):
            src = lists[-1]
            if listed:
                src = list(compress(src, map(look, src)))
                lists.append(src)
            tried = enumerate(src if listed else compress(src, map(look, src)), 1)
            if forced:
                need = -(col_sums[j] if forced[0][0] == m - 1 else row_sums[i]) % v
                need = need - v if need > bound else need
                residues = map(need.__sub__, src if listed else compress(src, map(look, src)))
                tried = compress(tried, map(look, residues))
            tries.append(tried)
            lasts.append(0)
        else:  # back from cell k + 1
            take_back(i, j, forced)
        for num, x in tries[k]:
            nodes += num - lasts[k]
            lasts[k] = num
            if nodes > budget:
                return None
            grid[i][j] = x
            avail[x] = avail[-x] = False
            row_sums[i] += x
            col_sums[j] += x
            closed = 0
            for fi, fj in forced:
                r = -(col_sums[fj] if fi == m - 1 else row_sums[fi]) % v
                if not avail[r]:
                    break
                r = r - v if r > bound else r
                grid[fi][fj] = r
                avail[r] = avail[-r] = False
                row_sums[fi] += r
                col_sums[fj] += r
                closed += 1
            else:
                break
            take_back(i, j, forced[:closed])
        else:
            src = lists.pop() if listed else lists[-1]
            nodes += (len(src) if listed else sum(map(look, src))) - lasts.pop()
            tries.pop()
            if nodes > budget or not tries:
                return None
            k -= 1
            continue
        k += 1
        if k == len(cells):
            return grid


def generate_heffter(
    m: int, n: int, *, seed: int | None = None, node_budget: int = NODE_BUDGET
) -> HeffterArray:
    """Backtracking construction of an m x n Heffter array over Z_{2mn+1}.

    Places signed values of distinct absolute value 1..mn on the free
    (m-1) x (n-1) subgrid following :func:`_fill_schedule`; every other cell
    is forced by a row or column zero sum the moment its line completes.

    Every attempt is a ``(seed, budget)`` rung of one list, run in order:
    a seed shuffles the ascending value order, and None keeps it.  With
    ``seed`` set the list is that seed with all ``node_budget`` nodes.
    Otherwise it is None, then seeds 0, 1, 2, ..., each with a slice of
    max(20,000, node_budget // 25) nodes, the last one with what is left.
    Both modes are fully deterministic for fixed arguments.  A budget that is
    not an int >= 1, then a size that is not an int >= 3, then a seed that is
    neither an int nor None, raises OutOfRangeError.  Raises BudgetExceededError when every rung has spent
    its budget, and before it allocates anything when no rung can fill the
    (m-1)(n-1) free cells, since each placement there is one node.

    No other outcome is possible, because an H(m,n) exists for every
    m, n >= 3 (Archdeacon, Boothby & Dinitz, J. Combin. Des. 25 (2017)) and
    an attempt that runs to its end has tried all of them: it gives the free
    cells every assignment of distinct signed values, and each forced cell
    can only hold the one canonical residue that closes its line.  A returned
    grid needs no verifying: each free cell takes an unused |x| in 1..mn and
    each forced cell the unused nonzero residue closing its line, so the mn
    cells are a half-set; rows 0..m-2 and columns 0..n-1 are closed
    explicitly, and row m-1 sums to 0 since row and column sums share a total.

    After the budget check and still before it allocates anything, raises
    TooLargeError when the mn cells are more than ``core.EXPAND_LIMIT`` integers.
    """
    _check_budget(node_budget)
    if type(m) is not int or type(n) is not int or min(m, n) < MIN_DIMENSION:
        raise OutOfRangeError(f"Heffter arrays need m, n >= {MIN_DIMENSION}, got {m!r} x {n!r}")
    if seed is not None and type(seed) is not int:
        raise OutOfRangeError(f"seed must be an int or None, got {seed!r}")
    per = max(20_000, node_budget // 25)
    rungs = [(seed, node_budget)] if seed is not None else [
        (rung_seed, min(per, node_budget - start))
        for rung_seed, start in zip(chain([None], count()), range(0, node_budget, per))
    ]
    exceeded = f"generator exceeded {node_budget} nodes for {m} x {n}"
    if max(b for _, b in rungs) < (m - 1) * (n - 1):
        raise BudgetExceededError(exceeded)
    check_listing(m * n, f"a {m} x {n} array")
    ascending = [s * a for a in range(1, m * n + 1) for s in (1, -1)]
    for rung_seed, b in rungs:
        values = list(ascending)
        if rung_seed is not None:
            random.Random(rung_seed).shuffle(values)
        grid = _generate_attempt(m, n, values, b)
        if grid is not None:
            return HeffterArray(grid)
    raise BudgetExceededError(exceeded)
