"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs a slice of a few ops of every workload, untraced and traced, and
checks that each result names every metric of BENCHMARK.json with its
unit.  Feeds the output checks deliberately
corrupted outputs and checks that they are reported as failed ops, runs the
inputs of the program's known defects (which the timed workloads leave out)
and checks that each is counted as a failure with its origin, and checks
that the benchmark refuses to run where there is no program.
Exits 1 on the first problem.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import run
import tracer
from workloads import ROUNDS

SLICE_OPS = 3

# Inputs on which the program fails at the time of writing, with the failure
# the benchmark should report for each.  The timed workloads leave them out,
# so that every op of a run can succeed.
KNOWN_DEFECTS = (
    ("pipeline_op", (7, 3, 1), "AssertionError@search.find_simple_column_permutation"),
    ("search_op", ("simple1000.txt", 1000), "RecursionError@search.find_simple_column_permutation"),
)


def fail(msg: str) -> None:
    print(f"selfcheck FAILED: {msg}")
    sys.exit(1)


def expect(cond: bool, msg: str) -> None:
    if not cond:
        fail(msg)


def metrics_named(spec: dict) -> None:
    for workload in ROUNDS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            out = io.StringIO()
            with redirect_stdout(out):
                code = run.bench(workload, seed=1, seconds=0, trace=trace, limit=SLICE_OPS)
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            expect(code == 0 and result["correct"], f"{workload} trace={trace}: outputs failed checks")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                                f"units {[n for n in want if n in got and got[n] != want[n]]}")
            print(f"ok  {workload} trace={int(trace)}: {len(got)} metrics, {result['attempted']} ops")


def corrupted_outputs() -> None:
    sys.path.insert(0, str(run.SRC))
    import checks
    import workloads
    from workloads import Session, embed_op, search_op, write_inputs
    from heffter import serialize_array, simple_h3

    work = run.WORK / "selfcheck"
    work.mkdir(parents=True, exist_ok=True)
    try:
        session = Session(work, write_inputs("search-h3", work))
        session.inputs["simple1000.txt"] = serialize_array(simple_h3(1000))
        session.write("simple1000.txt", session.inputs["simple1000.txt"])
        loop = run.Loop(session, tracer.code_names())

        def corrupt_genus(s, n):
            embed_op(s, n)
            doc = json.loads(s.outputs[-1])
            doc["genus"] += 1
            return lambda: checks.embed(doc, checks.gen3(s.outputs[0], n))

        def corrupt_perm(s, name, n):
            search_op(s, name, n)
            doc = json.loads(s.outputs[-1])
            identity = list(range(1, n + 1))
            # The search returns the least valid permutation, so the identity is invalid here.
            expect(doc["permutation"] != identity, f"{name} is simple as given")
            doc["permutation"] = identity
            return lambda: checks.search(doc, checks.parse(s.inputs[name]))

        loop.run((embed_op, (5,)))
        expect(loop.good == 1 and not loop.mismatches, "a genuine embed output failed its check")
        loop.run((corrupt_genus, (5,)))
        expect(len(loop.mismatches) == 1 and "genus" in loop.mismatches[0],
               f"a changed genus was not reported: {loop.mismatches}")
        loop.run((corrupt_perm, ("raw6.txt", 6)))
        expect(len(loop.mismatches) == 2, "an invalid permutation was not reported")
        for name, args, failure in KNOWN_DEFECTS:
            loop.run((getattr(workloads, name), args))
            expect(loop.failures[failure] == 1,
                   f"known defect {name}{args} was not counted as {failure}: {dict(loop.failures)}")
        expect(sum(loop.failures.values()) == 2 + len(KNOWN_DEFECTS) and loop.good == 1,
               f"tally {dict(loop.failures)}")
        print("ok  corrupted outputs and known-defect inputs are counted as failed ops")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def refuses_without_program() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, bare / run.BENCH.name,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, f"{run.BENCH.name}/run.py", "--workload", "sweep-h3",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        expect(done.returncode != 0 and '"correct"' not in done.stdout,
               f"ran without the program: exit {done.returncode}, stdout {done.stdout[-200:]!r}")
        print(f"ok  without src/ the benchmark exits {done.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    metrics_named(spec)
    corrupted_outputs()
    refuses_without_program()
    try:
        run.WORK.rmdir()
    except OSError:
        pass
    print("selfcheck passed")


if __name__ == "__main__":
    main()
