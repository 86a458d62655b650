"""Independent output checks for the heffter CLI.

Standard library only; nothing here imports ``heffter``.  Every check
recomputes what it can from the array text itself (partial sums, zero sums,
the half-set, Euler's formula) instead of trusting the program's flags, and
raises :class:`CheckError` on the first mismatch.
"""

from __future__ import annotations

from typing import Sequence


class CheckError(Exception):
    """An output of the program disagrees with the bench's own recomputation."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


class Array:
    """An m x n array over Z_v as read back from the array file format."""

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = [list(r) for r in rows]
        self.m = len(self.rows)
        self.n = len(self.rows[0])
        self.v = 2 * self.m * self.n + 1

    def column(self, j: int) -> list[int]:
        return [row[j] for row in self.rows]


def parse(text: str) -> Array:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    require(bool(lines), "empty array output")
    head = lines[0].split()
    require(len(head) == 4 and head[0] == "heffter", f"bad header {lines[0]!r}")
    m, n, v = int(head[1]), int(head[2]), int(head[3])
    require(v == 2 * m * n + 1, f"header modulus {v} != 2*{m}*{n}+1")
    require(len(lines) == m + 1, f"expected {m} rows, got {len(lines) - 1}")
    rows = [[int(t) for t in ln.split()] for ln in lines[1:]]
    require(all(len(r) == n for r in rows), "ragged rows")
    return Array(rows)


def partial_sums(seq: Sequence[int], v: int) -> list[int]:
    out, acc = [], 0
    for x in seq:
        acc = (acc + x) % v
        out.append(acc)
    return out


def is_simple(seq: Sequence[int], v: int) -> bool:
    sums = partial_sums(seq, v)
    return len(set(sums)) == len(sums)


def heffter(A: Array) -> None:
    """Zero row and column sums mod v, and the entries form a half-set."""
    v = A.v
    require(all(sum(r) % v == 0 for r in A.rows), "a row does not sum to 0")
    require(all(sum(A.column(j)) % v == 0 for j in range(A.n)), "a column does not sum to 0")
    absolutes = sorted(abs(x) for r in A.rows for x in r)
    require(absolutes == list(range(1, A.m * A.n + 1)), "entries are not a half-set")


def simple(A: Array) -> None:
    require(all(is_simple(r, A.v) for r in A.rows), "a row is not simple")
    require(all(is_simple(A.column(j), A.v) for j in range(A.n)), "a column is not simple")


def gen3(text: str, n: int) -> Array:
    A = parse(text)
    require((A.m, A.n) == (3, n), f"gen3 --n {n} gave a {A.m} x {A.n} array")
    heffter(A)
    simple(A)
    return A


def generated(text: str, m: int, n: int) -> Array:
    A = parse(text)
    require((A.m, A.n) == (m, n), f"generate gave {A.m} x {A.n}, asked {m} x {n}")
    heffter(A)
    return A


def reordered(text: str, src: Array, perm: Sequence[int]) -> Array:
    A = parse(text)
    expect = [[row[p - 1] for p in perm] for row in src.rows]
    require(A.rows == expect, f"reorder --perm {list(perm)} moved the wrong cells")
    return A


def _meta(doc: dict, A: Array) -> None:
    require(doc["array"] == {"m": A.m, "n": A.n, "v": A.v}, "array metadata mismatch")


def verify(doc: dict, A: Array) -> None:
    _meta(doc, A)
    for key in ("row_sum_ok", "col_sum_ok", "row_simple", "col_simple"):
        require(all(doc[key]), f"verify: {key} has a false entry")
    for key in ("half_set_ok", "is_heffter", "is_simple"):
        require(doc[key] is True, f"verify: {key} is not true")
    rows = [partial_sums(r, A.v) for r in A.rows]
    cols = [partial_sums(A.column(j), A.v) for j in range(A.n)]
    require(all(len(set(s)) == len(s) for s in rows + cols), "own partial sums repeat")
    require(doc["row_partial_sums"] == rows, "verify: row partial sums differ")
    require(doc["col_partial_sums"] == cols, "verify: column partial sums differ")


def orderings(doc: dict, A: Array) -> None:
    _meta(doc, A)
    mn = A.m * A.n
    require(doc["single_cycle"] is True and doc["orbit_length"] == mn, "orderings: not one cycle")
    every = {(i + 1, j + 1) for i in range(A.m) for j in range(A.n)}
    cycle = [tuple(c) for c in doc["composition_cycle"]]
    require(len(cycle) == mn and set(cycle) == every, "orderings: cycle misses cells")
    for key, count in (("row_parts", A.m), ("col_parts", A.n)):
        parts = doc[key]
        require(len(parts) == count, f"orderings: {count} {key} expected")
        cells = [tuple(c) for part in parts for c in part]
        require(len(cells) == mn and set(cells) == every, f"orderings: {key} do not partition")
        for part in parts:
            seq = [A.rows[i - 1][j - 1] for i, j in part]
            sums = partial_sums(seq, A.v)
            require(sums[-1] == 0 and len(set(sums)) == len(sums), f"orderings: {key} part not simple")


def develop(doc: dict, A: Array, rows: bool) -> None:
    parts = A.rows if rows else [A.column(j) for j in range(A.n)]
    require(doc["source"] == ("rows" if rows else "cols"), "develop: wrong source")
    require(doc["pair_coverage_ok"] is True, "develop: pair_coverage_ok is not true")
    require(doc["translation_closed"] is True, "develop: translation_closed is not true")
    require(doc["v"] == A.v and doc["k"] == len(parts[0]), "develop: v or k mismatch")
    require(doc["cycle_count"] == A.v * len(parts), "develop: wrong cycle count")
    # Each listed cycle must be a translate of a base walk (0, s_1, ..., s_{k-1}).
    bases = [[0, *partial_sums(p, A.v)[:-1]] for p in parts]
    listed = doc["base_cycles"]
    require(bool(listed), "develop: no cycles listed")
    for cycle in listed:
        t = cycle[0]
        require(any(cycle == [(x + t) % A.v for x in b] for b in bases),
                "develop: a listed cycle is no translate of a base walk")


def genus_3n(n: int) -> int:
    return 1 + (6 * n + 1) * (n - 2)


def embed(doc: dict, A: Array) -> None:
    """Every check true; V, E, F from the array size; genus from Euler (and the 3 x n closed form)."""
    _meta(doc, A)
    v = A.v
    V, E, F = v, v * (v - 1) // 2, v * (A.m + A.n)
    require((doc["V"], doc["E"], doc["F"]) == (V, E, F), "embed: V, E or F mismatch")
    require(doc["face_counts"] == {"row_color": v * A.m, "col_color": v * A.n, "total": F},
            "embed: face counts mismatch")
    require(doc["euler_characteristic"] == V - E + F, "embed: Euler characteristic mismatch")
    require((2 - V + E - F) % 2 == 0 and doc["genus"] == (2 - V + E - F) // 2,
            "embed: genus is not (2 - V + E - F)/2")
    checks = doc["checks"]
    for key in ("arc_coverage_ok", "edge_bicolor_ok", "rotations_ok"):
        require(checks[key] is True, f"embed: {key} is not true")
    if A.m == 3:
        require(doc["genus"] == genus_3n(A.n), "embed: genus is not 1 + (6n+1)(n-2)")
        require(checks["genus_matches_formula"] is True, "embed: genus_matches_formula is not true")
    else:
        require(checks["genus_matches_formula"] is None, "embed: closed form claimed for m != 3")
    require(len(doc["base_row_faces"]) == A.m and len(doc["base_col_faces"]) == A.n,
            "embed: wrong number of base faces")


def _valid_perm(perm: Sequence[int], A: Array) -> bool:
    return sorted(perm) == list(range(1, A.n + 1)) and all(
        is_simple([row[p - 1] for p in perm], A.v) for row in A.rows
    )


def search(doc: dict, A: Array, budget: int | None = None) -> None:
    """A found permutation is re-checked by the bench's own partial-sum test."""
    _meta(doc, A)
    if doc["status"] == "budget_exceeded":
        require(budget is not None and doc["node_budget"] == budget, "search: unexpected budget stop")
        return
    require(doc["status"] == "found", f"search: status {doc['status']!r}")
    require(_valid_perm(doc["permutation"], A), "search: permutation leaves a row non-simple")
    require(doc["reordered_is_heffter"] is True and doc["reordered_is_simple"] is True,
            "search: reordered flags are not true")
    require(isinstance(doc["nodes"], int) and doc["nodes"] >= A.n, "search: node count below n")


def search_all(doc: dict, A: Array) -> None:
    """Every listed permutation is valid, in order, and the first is ``permutation``."""
    search(doc, A)
    perms = doc["all_permutations"]
    require(bool(perms) and perms[0] == doc["permutation"], "search --all: first is not permutation")
    require(all(a < b for a, b in zip(perms, perms[1:])), "search --all: not strictly sorted")
    require(all(_valid_perm(p, A) for p in perms), "search --all: an invalid permutation is listed")
