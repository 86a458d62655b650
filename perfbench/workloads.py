"""The four workloads, made of operations that chain CLI subcommands.

An operation (op) calls ``heffter.cli.main(argv)`` in-process once per
subcommand and passes arrays between subcommands through files, the way a
shell pipeline such as ``heffter gen3 --n 8 > a.txt; heffter embed --file
a.txt`` does.  An op function only runs the CLI; it returns a closure that
checks the outputs afterwards, so checking is not part of the op's latency.

A workload is a sequence of rounds.  Every round of a workload runs the
same mix of op kinds and sizes in a seed-shuffled order, so runs of any
seed see the same mix and differ only in order and in the seed-chosen
values (the sweep's n within each block of ten, the generator seeds).
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable

import checks

# Node cap for `generate`: the generator's cost over seeds has a heavy tail
# (a 7 x 3 seed can take a million nodes).  Capping it keeps the cost of a
# run steady across seeds; a capped run is the CLI's own budget outcome.
# At this cap about one op in sixteen stops at it.
GENERATE_BUDGET = 50_000
# Node cap for the raw arrays (n = 23, 26) that the search cannot finish
# quickly: these ops measure pure node throughput.
SEARCH_BUDGET = 100_000

# Generator shapes.  Every m here is at most 5: a column of at most five
# distinct-magnitude entries that sums to 0 is always simple, so the search
# (which checks rows only) cannot hand back an order whose re-verification
# fails on a column.  Larger m can hit that AssertionError (selfcheck.py).
PIPELINE_M = (3, 5)
PIPELINE_N = range(3, 8)

RAW_BUSHY = range(5, 23)
RAW_ORACLE = range(3, 9)  # n = 9 alone would take two thirds of a round
RAW_CAPPED = (23, 26)
# Deep single paths, well below the interpreter's recursion limit; n = 1000
# exceeds it (selfcheck.py).
SIMPLE_DEEP = range(200, 801, 75)

# Rounds of 35 ops (search-h3) and 45 ops (embed-3xn), each op of its own
# cost: with 10k + 5 ops of distinct cost in a round, p50 and p90 fall in the
# middle of the samples of one op, not on the edge between two ops.
EMBED_N = (*range(3, 46), 60, 100)

Check = Callable[[], None]


class ExitStatus(Exception):
    """A subcommand exited non-zero where success was expected."""

    def __init__(self, command: str, code: object):
        super().__init__(f"heffter {command} exited {code}")
        self.command = command
        self.code = code


class Session:
    """Runs CLI subcommands in-process and keeps the counters ops report."""

    def __init__(self, work: Path, inputs: dict[str, str]):
        self.work = work
        self.inputs = inputs  # file name -> text, for the checks
        self.tracer = None
        self.nodes = 0
        self.nodes_busy = 0.0
        self.path_n = 0
        self.budget_exceeded = 0
        self.outputs: list[str] = []

    def run(self, argv: list[str]) -> tuple[int, str, str]:
        import heffter.cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = heffter.cli.main(argv)
        self.outputs.append(out.getvalue())
        return code, out.getvalue(), err.getvalue()

    def call(self, argv: list[str]) -> str:
        code, out, _ = self.run(argv)
        if code != 0:
            raise ExitStatus(argv[0], code)
        return out

    def write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text, encoding="ascii")
        return str(path)

    def path(self, name: str) -> str:
        return str(self.work / name)

    def search(self, argv: list[str], n: int, budget: int | None = None) -> dict:
        """Run `search`; accept a budget stop only when a budget was given."""
        stat = self.tracer.stats["search.find_simple_column_permutation"] if self.tracer else None
        before = stat.busy if stat else 0.0
        code, out, _ = self.run(argv)
        doc = json.loads(out) if out else {}
        if code == 1 and budget is not None and doc.get("status") == "budget_exceeded":
            self.budget_exceeded += 1
            nodes = budget  # the search stops once it passes this many nodes
        elif code == 0:
            nodes = doc["nodes"]
            self.path_n += n
        else:
            raise ExitStatus(argv[0], code)
        self.nodes += nodes
        if stat:
            self.nodes_busy += stat.busy - before
        return doc


def sweep_op(s: Session, n: int) -> Check:
    text = s.call(["gen3", "--n", str(n)])
    path = s.write("a.txt", text)
    verify = s.call(["verify", "--file", path])
    orderings = s.call(["orderings", "--file", path])

    def check() -> None:
        A = checks.gen3(text, n)
        checks.verify(json.loads(verify), A)
        checks.orderings(json.loads(orderings), A)

    return check


def embed_op(s: Session, n: int) -> Check:
    text = s.call(["gen3", "--n", str(n)])
    path = s.write("a.txt", text)
    rows = s.call(["develop", "--file", path, "--rows"])
    cols = s.call(["develop", "--file", path, "--cols"])
    embed = s.call(["embed", "--file", path])

    def check() -> None:
        A = checks.gen3(text, n)
        checks.develop(json.loads(rows), A, rows=True)
        checks.develop(json.loads(cols), A, rows=False)
        checks.embed(json.loads(embed), A)

    return check


def pipeline_op(s: Session, m: int, n: int, seed: int) -> Check:
    argv = ["generate", "--m", str(m), "--n", str(n), "--seed", str(seed),
            "--budget", str(GENERATE_BUDGET)]
    code, text, err = s.run(argv)
    if code == 1 and f"exceeded {GENERATE_BUDGET} nodes" in err:
        s.budget_exceeded += 1
        return lambda: checks.require(text == "", "generate: output despite a budget stop")
    if code != 0:
        raise ExitStatus("generate", code)
    path = s.write("g.txt", text)
    found = s.search(["search", "--file", path], n)
    perm = found["permutation"]
    reordered = s.call(["reorder", "--file", path, "--perm", ",".join(map(str, perm))])
    simple_path = s.write("s.txt", reordered)
    embed = s.call(["embed", "--file", simple_path])

    def check() -> None:
        A = checks.generated(text, m, n)
        checks.search(found, A)
        B = checks.reordered(reordered, A, perm)
        checks.simple(B)
        checks.embed(json.loads(embed), B)

    return check


def search_op(s: Session, name: str, n: int, flags: tuple[str, ...] = ()) -> Check:
    budget = int(flags[1]) if flags[:1] == ("--budget",) else None
    doc = s.search(["search", "--file", s.path(name), *flags], n, budget)

    def check() -> None:
        A = checks.parse(s.inputs[name])
        if "--all" in flags:
            checks.search_all(doc, A)
        else:
            checks.search(doc, A, budget)

    return check


def _sweep_round(rng: random.Random) -> list[tuple]:
    # One n from each block of ten in 3..1000, at each of the ten offsets
    # within a block ten times: every round has the same spread of sizes
    # and of residues.
    offsets = [k % 10 for k in range(100)]
    rng.shuffle(offsets)
    return [(sweep_op, (min(lo + off, 1000),)) for lo, off in zip(range(3, 1001, 10), offsets)]


def _embed_round(rng: random.Random) -> list[tuple]:
    return [(embed_op, (n,)) for n in EMBED_N]


def _pipeline_round(rng: random.Random) -> list[tuple]:
    return [(pipeline_op, (m, n, rng.randrange(1 << 30))) for m in PIPELINE_M for n in PIPELINE_N]


def _search_round(rng: random.Random) -> list[tuple]:
    return [
        *[(search_op, (f"raw{n}.txt", n)) for n in RAW_BUSHY],
        *[(search_op, (f"raw{n}.txt", n, ("--all",))) for n in RAW_ORACLE],
        *[(search_op, (f"raw{n}.txt", n, ("--budget", str(SEARCH_BUDGET)))) for n in RAW_CAPPED],
        *[(search_op, (f"simple{n}.txt", n)) for n in SIMPLE_DEEP],
    ]


ROUNDS = {
    "sweep-h3": _sweep_round,
    "embed-3xn": _embed_round,
    "generate-pipeline": _pipeline_round,
    "search-h3": _search_round,
}


def plan(workload: str, seed: int, r: int) -> list[tuple]:
    """Round ``r`` of a workload: its ops in a seed-chosen order."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    ops = ROUNDS[workload](rng)
    rng.shuffle(ops)
    return ops


def write_inputs(workload: str, work: Path) -> dict[str, str]:
    """Write the array files a workload reads; return them by file name.

    Only `search-h3` reads prepared files; the other workloads make their
    arrays inside each op with `gen3` or `generate`.
    """
    from heffter import construct_raw_h3, serialize_array, simple_h3

    texts: dict[str, str] = {}
    if workload == "search-h3":
        for n in sorted({*RAW_BUSHY, *RAW_ORACLE, *RAW_CAPPED}):
            texts[f"raw{n}.txt"] = serialize_array(construct_raw_h3(n))
        for n in SIMPLE_DEEP:
            texts[f"simple{n}.txt"] = serialize_array(simple_h3(n))
    for name, text in texts.items():
        (work / name).write_text(text, encoding="ascii")
    return texts
