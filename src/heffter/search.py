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
The permutation is assembled as the recursion returns, last column first.
Every valid permutation, the list ``search --all`` prints, comes from
:func:`simple_column_permutations`: when every row sums to 0, simplicity
depends only on the cyclic column order up to reversal, so it checks
(n-1)!/2 orders, one per class, and lists the 2n orders of each valid
class.  :func:`brute_force_oracle` checks all n! orders independently.

``generate_heffter`` builds m x n Heffter arrays from scratch by
backtracking over signed value placements on the free (m-1) x (n-1)
subgrid; the last cell of every row and column is forced by a zero-sum
constraint the moment its line fills, following a schedule that spreads
those forced closures as evenly as possible through the search.  Each
attempt is one loop over the free cells that keeps its path in the grid, so
its depth is bounded by memory, not by the interpreter's recursion limit.
The unplaced values sit on one doubly linked list in the value order
(Knuth's dancing links), O(mn) integers for the whole attempt.  Each free
cell but the last has one walk of that list, from the value in its grid
cell, valid on resume since no other cell writes there and the cells below
relink all they unlinked.  The walk checks each closure before anything is
written: a cell that closes its line takes a value only if the closing
residue is unplaced and neither the value nor its negative; a plain cell
takes the first value.  One write block places the value, then its residue,
unlinking each and its negative in O(1); one take-back block relinks them
in reverse.  The last free cell settles its row, its column and the corner
in one scan, each value's three closing residues being affine in it.  A
node is one unplaced value visited at a free cell, taken or not, so budget
stops fall where a scan of every value puts them: the budget is checked at
a chosen value and when a cell runs out.  Since an H(m,n) exists for every
m, n >= 3 and an attempt can reach each one, the generator's only failure
is a spent node budget, and what it returns is a Heffter array (proofs at
:func:`generate_heffter`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, count, pairwise, permutations
from typing import Sequence

from .core import MIN_DIMENSION, HeffterArray, _check_type, check_listing, verify_heffter
from .errors import BudgetExceededError, NotHeffterError, OutOfRangeError, TooLargeError
from .modmath import half_bound

ORACLE_MAX_COLUMNS = 9  # --all checks (n-1)!/2 orders but may list n!: 134,928 for raw H(3,9)
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
    left = list(range(1, H.n + 1))  # the unused columns, ascending
    seen: list[set[int]] = [set() for _ in H.cells]

    def extend(sums: list[int]) -> list[int] | None:  # the columns chosen from this depth down, last first
        nonlocal nodes
        if not left:
            return []
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
                found = extend(new)
                if found is not None:
                    found.append(col)
                    return found
                left.insert(k, col)
                for x, seen_i in zip(new, seen):
                    seen_i.remove(x)
        return None

    found = extend([0] * len(seen))
    return None if found is None else tuple(reversed(found)), nodes


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


def simple_column_permutations(H: HeffterArray) -> list[tuple[int, ...]]:
    """Every valid column permutation of H, in lexicographic order: :func:`brute_force_oracle`'s list.

    When every row sums to 0, simplicity of a column order depends only on
    its cyclic order up to reversal.  With S_k a row's k-th partial sum, S_0 = S_n = 0:
    - rotating the order to start at column k+1 translates the row's set of partial sums by -S_k;
    - reversing the order negates that set, since its sums are S_n - S_(n-k) = -S_(n-k).
    Both keep the sums distinct, so each class of 2n orders (distinct for
    n >= 3) is valid or not as a whole.  Only the class representative
    that starts with column 1 and whose second column is less than its
    last is checked, (n-1)!/2 orders; a valid one brings its n rotations
    and the n rotations of its reversal.  Raises InvalidEntryError when H
    is not a HeffterArray, then OutOfRangeError or TooLargeError as
    :func:`check_oracle_size`, then NotHeffterError naming the first row
    that does not sum to 0.
    """
    _check_type(H, HeffterArray)
    check_oracle_size(H.n)
    v = H.modulus
    for k, ok in enumerate(verify_heffter(H).row_sum_ok, 1):
        if not ok:
            raise NotHeffterError(f"row {k} does not sum to 0 mod {v}")
    found = []
    for rest in permutations(range(2, H.n + 1)):
        if rest[0] < rest[-1] and _rows_simple(H.cells, (1, *rest), v):
            for order in ((1, *rest), (*rest[::-1], 1)):
                found += (order[k:] + order[:k] for k in range(H.n))
    found.sort()
    return found


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
    In :func:`_fill_schedule` every free cell but the last is followed by at
    most one forced cell, which closes the free cell's own line, since each
    strip ends in its border cell; ``cells[k]`` is free cell k with that
    forced cell or None, and the cell its take-back starts at, the forced
    cell or else itself.  The last free cell, (m-2, n-2), is followed by
    (m-2, n-1), (m-1, n-2) and the corner.  ``avail[x]`` says whether |x| is
    unplaced, indexed by the signed value: ``avail[-x]`` is ``avail[v - x]``,
    so a residue r in -2mn..2mn is looked up as ``avail[r]``, and
    ``avail[0]`` is False.

    The unplaced values lie on one circular doubly linked list in the order
    of ``values``: ``nxt[x]`` and ``prv[x]`` are the values after and before
    the signed value x, indexed like ``avail``, and 0, which is never placed,
    is the head.  A value not in ``values`` is linked to itself, so it
    unlinks and relinks in place; the values are distinct, so only a list
    shorter than all 2mn of them leaves one out and needs that scan over v
    values.  The two lists hold 2v integers for the whole attempt, O(mn).
    The grid holds each free cell's value: x is cell k's, 0 before its first,
    read back from (i, j) when cell k + 1 runs out, as only cell k writes there.
    The cells below relink all they unlinked, and cell k its own value, so the
    walk resumes at ``nxt[x]`` on the list that cell k was entered with.

    Each closure is checked in the one walk of a cell, before anything is
    written: a cell that closes a line with residue ``need`` takes x only if
    need - x is unplaced and neither x nor -x (``need`` is not 0 and need - 2x
    is not 0 mod v); at a plain cell the check always passes.  One write
    block runs for x, then at a closing cell for r = need - x, unlinking each
    value, then its negative; one take-back block relinks them in the reverse
    order and stops at x, which r never equals.  The last free cell settles
    its row, its column and the corner from three affine residues of x,
    c1 - x, c2 - x and c3 + x, with the c's read off the line sums on entry:
    it takes the first x whose three residues are unplaced and whose four
    magnitudes are distinct, and the grid is complete.  A node is one
    unplaced value visited at a free cell, taken or not, so every budget
    stop falls where a cell-by-cell scan puts it: the budget is checked at a
    chosen value and when a cell runs out.  Returns the solved grid, or None
    when ``budget`` nodes are spent or the space is searched to its end.
    """
    v = 2 * m * n + 1
    bound = half_bound(v)  # == m*n
    cells: list[tuple[int, int, tuple[int, int] | None, tuple[int, int]]] = []  # (i, j, forced, back)
    for cell in _fill_schedule(m, n)[:-4]:  # the last free cell and its three closures are settled apart
        i, j = cell
        if i < m - 1 and j < n - 1:
            cells.append((i, j, None, cell))
        else:
            cells[-1] = (*cells[-1][:2], cell, cell)
    last = len(cells)
    grid = [[0] * n for _ in range(m)]
    avail = [True] * v
    avail[0] = False
    row_sums = [0] * m
    col_sums = [0] * n
    nxt: list[int | None] = [None] * v
    prv: list[int | None] = [None] * v
    for x, y in pairwise(chain((0,), values, (0,))):
        nxt[x] = y
        prv[y] = x
    if len(values) < 2 * bound:  # a truncated list, which only tests pass
        for x in range(-bound, bound + 1):
            if nxt[x] is None:  # x is not in ``values``
                nxt[x] = prv[x] = x
    nodes = 0
    k = x = 0
    while True:
        if k == last:  # x closes row m-2 with c1 - x, column n-2 with c2 - x, then column n-1 with c3 + x
            c1 = (bound - row_sums[m - 2]) % v - bound  # canonical residues, in -bound..bound
            c2 = (bound - col_sums[n - 2]) % v - bound
            c3 = (bound - col_sums[n - 1] - c1) % v - bound
            while x := nxt[x]:
                nodes += 1
                if not (avail[c1 - x] and avail[c2 - x] and avail[c3 + x]):
                    continue
                r1, r2, r3 = ((r + bound) % v - bound for r in (c1 - x, c2 - x, c3 + x))
                if len({abs(x), abs(r1), abs(r2), abs(r3)}) < 4:
                    continue
                if nodes > budget:
                    return None
                grid[m - 2][n - 2 :] = x, r1
                grid[m - 1][n - 2 :] = r2, r3
                return grid
        else:
            i, j, forced, back = cells[k]
            if x:  # back to cell k: take back the residue at its forced cell, then x
                a, b = back
                while True:
                    y = grid[a][b]
                    avail[y] = avail[-y] = True
                    row_sums[a] -= y
                    col_sums[b] -= y
                    nxt[prv[-y]] = prv[nxt[-y]] = -y
                    nxt[prv[y]] = prv[nxt[y]] = y
                    if y == x:
                        break
                    a, b = i, j
            if forced:
                need = (bound - (col_sums[j] if forced[0] == m - 1 else row_sums[i])) % v - bound
            while x := nxt[x]:
                nodes += 1
                if not forced or avail[need - x] and need and (need - 2 * x) % v:
                    break
            if x:
                if nodes > budget:
                    return None
                while True:  # write x at (i, j); a closing cell then writes its residue at the forced cell
                    grid[i][j] = x
                    avail[x] = avail[-x] = False
                    row_sums[i] += x
                    col_sums[j] += x
                    nxt[prv[x]], prv[nxt[x]] = nxt[x], prv[x]
                    nxt[prv[-x]], prv[nxt[-x]] = nxt[-x], prv[-x]
                    if not forced:
                        break
                    (i, j), x, forced = forced, (need - x + bound) % v - bound, None
                k += 1
                x = 0
                continue
        if nodes > budget or not k:  # cell k ran out: back to the cell before it, at its value
            return None
        k -= 1
        x = grid[cells[k][0]][cells[k][1]]


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
