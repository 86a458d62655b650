"""Mutation check of the fast paths: each kept mutant must fail the test file that guards it.

Run from anywhere with ``python tests/mutants.py``; it needs pytest and
hypothesis, like the tests.  Every row of ``MUTANTS`` names one edit of a
fast path: the file, an old text that occurs there exactly once, the new
text that replaces it, the test file that must catch it, and its class.

- ``killed``: the test file must fail on the mutant.
- ``speed-only``: an equivalent mutant, which changes no result the tests
  can see.  Only the benchmark can tell it apart, so it is run and reported
  but may pass.

Each run copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md``
(whose example a test runs) to a fresh temporary directory, never editing
the checkout, applies at most one mutant there and runs its test file with
``pytest -x``.  Each test file is first run once unmutated, so a kill
cannot come from a broken copy.  A run that takes longer than
``TIMEOUT_S`` seconds is stopped and reported as ``timed out`` under its
mutant's or test file's name.  Exits 1 when an old text is missing or
repeated (a refactor that moves a mutated line updates this table in the
same change), when an unmutated run fails or times out, when a ``killed``
mutant passes, or when pytest times out or exits with anything but 0
(passed) or 1 (failed); exits 0 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("killed", "speed-only")
TIMEOUT_S = 60  # per pytest run; the slowest test file takes about 10 s unmutated


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the checkout
    old: str
    new: str
    test: str  # the test file that must catch it, relative to the root
    kind: str  # one of KINDS


SEARCH = "src/heffter/search.py"
SEARCH_TESTS = "tests/test_search.py"
# How the generator takes one value y at (a, b) back; a resumed cell does it
# for the residue at its forced cell, then for its own value x.
TAKE_BACK = (
    "                    y = grid[a][b]\n"
    "                    avail[y] = avail[-y] = True\n"
    "                    row_sums[a] -= y\n"
    "                    col_sums[b] -= y\n"
    "                    nxt[prv[-y]] = prv[nxt[-y]] = -y\n"
    "                    nxt[prv[y]] = prv[nxt[y]] = y\n"
)
# The check a cell makes before it writes x: a plain cell passes it; at a closing
# cell need - x is unplaced, and neither -x nor x.
CLOSES = "if not forced or avail[need - x] and need and (need - 2 * x) % v:"
ARRAYFILE = "src/heffter/arrayfile.py"
CLI_TESTS = "tests/test_cli.py"
CORE = "src/heffter/core.py"
CORE_TESTS = "tests/test_core.py"

MUTANTS = (
    Mutant(
        "generator: values skipped by the residue filter are not counted as nodes",
        SEARCH,
        "                nodes += 1\n"
        f"                {CLOSES}\n"
        "                    break\n",
        f"                {CLOSES}\n"
        "                    nodes += 1\n"
        "                    break\n",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "generator: values skipped by the last cell's scan are not counted as nodes",
        SEARCH,
        "                nodes += 1\n                if not (avail[c1 - x]",
        "                if not (avail[c1 - x]",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        # At any other cell, >= only stops early an attempt that the last cell's check stops anyway.
        "generator: the budget is compared with >=",
        SEARCH,
        "                if nodes > budget:\n                    return None\n                grid[m - 2]",
        "                if nodes >= budget:\n                    return None\n                grid[m - 2]",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "generator: a resumed cell restarts its walk at the head",
        SEARCH,
        "                    a, b = i, j\n            if forced:\n",
        "                    a, b = i, j\n            x = 0\n            if forced:\n",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "generator: a cell that runs out resumes the cell before it at the head",
        SEARCH,
        "        x = grid[cells[k][0]][cells[k][1]]\n",
        "        x = 0\n",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "generator: a resumed cell takes back x before the residue at its forced cell",
        SEARCH,
        "                a, b = back\n                while True:\n" + TAKE_BACK
        + "                    if y == x:\n                        break\n                    a, b = i, j\n",
        "                a, b = i, j\n                while True:\n" + TAKE_BACK
        + "                    if (a, b) == back:\n                        break\n                    a, b = back\n",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "generator: the residue filter of a closing cell is off",
        SEARCH,
        CLOSES,
        "if not forced or need and (need - 2 * x) % v:",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "generator: a closing cell takes x whose residue is -x",
        SEARCH,
        CLOSES,
        "if not forced or avail[need - x] and (need - 2 * x) % v:",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "generator: a closing cell takes x whose residue is x",
        SEARCH,
        CLOSES,
        "if not forced or avail[need - x] and need:",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "generator: the last cell takes three distinct magnitudes of four",
        SEARCH,
        "if len({abs(x), abs(r1), abs(r2), abs(r3)}) < 4:",
        "if len({abs(x), abs(r1), abs(r2), abs(r3)}) < 3:",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "generator: the corner's residue adds the closure of row m-2",
        SEARCH,
        "c3 = (bound - col_sums[n - 1] - c1) % v - bound",
        "c3 = (bound - col_sums[n - 1] + c1) % v - bound",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "generator: the last cell skips the budget check when it succeeds",
        SEARCH,
        "                if nodes > budget:\n                    return None\n                grid[m - 2]",
        "                grid[m - 2]",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "column search: a repeated partial sum does not prune",
        SEARCH,
        "                if x in seen_i:\n                    break",
        "                if False:\n                    break",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "column search: the permutation is returned in unwind order",
        SEARCH,
        "tuple(reversed(found))",
        "tuple(found)",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "column listing: a valid class lists its rotations but not those of its reversal",
        SEARCH,
        "for order in ((1, *rest), (*rest[::-1], 1)):",
        "for order in ((1, *rest),):",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "certify: a repeated arc is accepted",
        "src/heffter/embedding.py",
        "if not len(arcs) == len(steps) == v - 1:",
        "if not len(steps) == v - 1:",
        "tests/test_embedding.py",
        "killed",
    ),
    Mutant(
        "rotations: a zero step is accepted",
        "src/heffter/embedding.py",
        "if arcs[0]:",
        "if False:",
        "tests/test_embedding.py",
        "killed",
    ),
    Mutant(
        "_encode: object keys are written unsorted",
        "src/heffter/cli.py",
        "for key in sorted(value)]",
        "for key in value]",
        CLI_TESTS,
        "killed",
    ),
    Mutant(
        "_write: a raw write that takes part of the result is not retried",
        "src/heffter/cli.py",
        "while data:",
        "if data:",
        CLI_TESTS,
        "killed",
    ),
    Mutant(
        "parse_array: an integer may carry a + sign",
        ARRAYFILE,
        'r"-?[0-9]+(?: -?[0-9]+)*"',
        'r"[-+]?[0-9]+(?: [-+]?[0-9]+)*"',
        CLI_TESTS,
        "killed",
    ),
    Mutant(
        "parse_array: a repeated absolute value is accepted",
        ARRAYFILE,
        "if abs(x) in seen_abs:",
        "if False:",
        CLI_TESTS,
        "killed",
    ),
    Mutant(
        "parse_array: data after the rows is accepted",
        ARRAYFILE,
        'if extra.strip() and not extra.lstrip().startswith("#"):',
        "if False:",
        CLI_TESTS,
        "killed",
    ),
    Mutant(
        "verify_heffter: column simplicity is read off the row sums",
        CORE,
        "col_simple=tuple(len(set(s)) == len(s) for s in col_sums),",
        "col_simple=tuple(len(set(s)) == len(s) for s in row_sums),",
        CORE_TESTS,
        "killed",
    ),
    Mutant(
        "verify_heffter: every column sum is accepted",
        CORE,
        "col_sum_ok=tuple(s[-1] == 0 for s in col_sums),",
        "col_sum_ok=tuple(True for s in col_sums),",
        CORE_TESTS,
        "killed",
    ),
    Mutant(
        "h3 tables: the corrected first interval of P_{3,1} keeps its misprinted start",
        "tests/paper_tables.py",
        '(("i", (47, 55), (48, 54)),),',
        '(("i", (47, 54), (48, 54)),),',
        "tests/test_h3.py",
        "killed",
    ),
)


def run_tests(test: str, mutant: Mutant | None = None) -> int | None:
    """Run ``test`` with ``pytest -x`` in a temporary copy, with ``mutant`` applied.

    Returns pytest's exit code, or None when the run took longer than ``TIMEOUT_S`` seconds and was stopped.
    """
    with tempfile.TemporaryDirectory(prefix="heffter-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, copy)
        if mutant is not None:
            path = copy / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test]
        try:
            return subprocess.run(
                argv, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S
            ).returncode
        except subprocess.TimeoutExpired:
            return None


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        count = (ROOT / mutant.file).read_text().count(mutant.old)
        if count != 1 or mutant.kind not in KINDS:
            print(f"BAD TABLE  {mutant.name}: old text occurs {count} times in {mutant.file}, class {mutant.kind!r}")
            bad += 1
    if bad:
        return 1
    for test in dict.fromkeys(m.test for m in MUTANTS):
        code = run_tests(test)
        if code is None:
            print(f"BROKEN     {test} timed out unmutated after {TIMEOUT_S} s")
            bad += 1
        elif code != 0:
            print(f"BROKEN     {test} fails unmutated (pytest exit {code})")
            bad += 1
    for mutant in MUTANTS:
        start = time.perf_counter()
        code = run_tests(mutant.test, mutant)
        verdict = "timed out" if code is None else {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
        ok = verdict == "killed" or (verdict == "survived" and mutant.kind == "speed-only")
        bad += not ok
        print(f"{'ok' if ok else 'FAIL':10} {mutant.name}: {verdict} in {time.perf_counter() - start:.1f} s ({mutant.kind})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
