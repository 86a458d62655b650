"""Mutation check of the fast paths: each kept mutant must fail the test file that guards it.

Run from anywhere with ``python tests/mutants.py``; it needs pytest and
hypothesis, like the tests.  Every row of ``MUTANTS`` names one edit of a
fast path: the file, an old text that occurs there exactly once, the new
text that replaces it, the test file that must catch it, and its class.

- ``killed``: the test file must fail on the mutant.
- ``speed-only``: an equivalent mutant, which changes no result the tests
  can see.  Only the benchmark can tell it apart, so it is run and reported
  but may pass.

Each run copies ``src/``, ``tests/`` and ``pyproject.toml`` to a fresh
temporary directory, never editing the checkout, applies at most one
mutant there and runs its test file with ``pytest -x``.  Each test file is
first run once unmutated, so a kill cannot come from a broken copy.  Exits
1 when an old text is missing or repeated (a refactor that moves a
mutated line updates this table in the same change), when an unmutated
run fails, when a ``killed`` mutant passes, or when pytest exits with
anything but 0 (passed) or 1 (failed); exits 0 otherwise.
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


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the checkout
    old: str
    new: str
    test: str  # the test file that must catch it, relative to the root
    kind: str  # one of KINDS


SEARCH = "src/heffter/search.py"
SEARCH_TESTS = "tests/test_search.py"
# How the generator takes a resumed cell back: its forced cells last-first, then its own value.
FORCED_BACK = (
    "            while closed:\n"
    "                closed -= 1\n"
    "                fi, fj = forced[closed]\n"
    "                y = grid[fi][fj]\n"
    "                avail[y] = avail[-y] = True\n"
    "                row_sums[fi] -= y\n"
    "                col_sums[fj] -= y\n"
    "                nxt[prv[-y]] = prv[nxt[-y]] = -y\n"
    "                nxt[prv[y]] = prv[nxt[y]] = y\n"
)
FREE_BACK = (
    "            avail[x] = avail[-x] = True\n"
    "            row_sums[i] -= x\n"
    "            col_sums[j] -= x\n"
    "            nxt[prv[-x]] = prv[nxt[-x]] = -x\n"
    "            nxt[prv[x]] = prv[nxt[x]] = x\n"
)

MUTANTS = (
    Mutant(
        "generator: values skipped by the residue filter are not counted as nodes",
        SEARCH,
        "            nodes += 1\n"
        "            if forced and not avail[need - x]:\n"
        "                continue\n",
        "            if forced and not avail[need - x]:\n"
        "                continue\n"
        "            nodes += 1\n",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "generator: the budget is compared with >=",
        SEARCH,
        "            if nodes > budget:\n                return None\n            grid[i][j] = x\n",
        "            if nodes >= budget:\n                return None\n            grid[i][j] = x\n",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "generator: a resumed cell restarts its walk at the head",
        SEARCH,
        "            nxt[prv[x]] = prv[nxt[x]] = x\n        else:\n            x = 0\n",
        "            nxt[prv[x]] = prv[nxt[x]] = x\n        x = 0\n",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "generator: the free cell is taken back before its forced cells",
        SEARCH,
        FORCED_BACK + FREE_BACK,
        FREE_BACK + FORCED_BACK,
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        "generator: forced cells are taken back in placement order",
        SEARCH,
        "            while closed:\n"
        "                closed -= 1\n"
        "                fi, fj = forced[closed]\n",
        "            for fi, fj in forced[:closed]:\n",
        SEARCH_TESTS,
        "killed",
    ),
    Mutant(
        # The filter only skips values that the forced check rejects at no node cost.
        "generator: the residue filter of a closing cell is off",
        SEARCH,
        "            if forced and not avail[need - x]:\n                continue\n",
        "",
        SEARCH_TESTS,
        "speed-only",
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
        "certify: a repeated arc is accepted",
        "src/heffter/embedding.py",
        "if not len(arcs) == len(steps) == v - 1:",
        "if not len(steps) == v - 1:",
        "tests/test_embedding.py",
        "killed",
    ),
    Mutant(
        "_encode: object keys are written unsorted",
        "src/heffter/cli.py",
        "for key in sorted(value)]",
        "for key in value]",
        "tests/test_cli.py",
        "killed",
    ),
)


def run_tests(test: str, mutant: Mutant | None = None) -> int:
    """Run ``test`` with ``pytest -x`` in a temporary copy, with ``mutant`` applied; return pytest's exit code."""
    with tempfile.TemporaryDirectory(prefix="heffter-mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant is not None:
            path = copy / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test]
        return subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


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
        if code != 0:
            print(f"BROKEN     {test} fails unmutated (pytest exit {code})")
            bad += 1
    for mutant in MUTANTS:
        start = time.perf_counter()
        code = run_tests(mutant.test, mutant)
        verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
        ok = verdict == "killed" or (verdict == "survived" and mutant.kind == "speed-only")
        bad += not ok
        print(f"{'ok' if ok else 'FAIL':10} {mutant.name}: {verdict} in {time.perf_counter() - start:.1f} s ({mutant.kind})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
