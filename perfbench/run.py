"""Benchmark of the heffter CLI: closed loop, one client, in-process.

    python3 perfbench/run.py --workload sweep-h3 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``heffter`` from its
``src/``.  Ops of the chosen workload (workloads.py) run one after another
in whole rounds, until ``--seconds`` of op time have passed and at least
MIN_OPS ops have run.  Every output is checked independently (checks.py);
an op fails when an exception escapes, when a subcommand exits non-zero
where success was expected, or when a check fails.

The end-to-end times are scaled to a reference machine speed: each op, and
each set-up, is bracketed by two runs of a fixed pure-Python loop
(:func:`probe_seconds`), and its wall time is multiplied by
REFERENCE_PROBE_S over the mean of the two.  On a shared host the speed
changes from one second to the next by more than the bounds of
BENCHMARK.json; the scaled times cancel most of that.  The wall times are
printed beside them.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` it holds per-layer metrics: every op runs twice, once plain
and once with timing wrappers installed (tracer.py); the difference between
the two is the tracing overhead.

The last line of standard output is the result as one JSON object; the
lines before it record the environment and the failures by kind.  The exit
code is 0 when every output check passed, 1 when one failed, and 2 when the
program cannot be found or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import checks
import tracer as tracing
from workloads import ROUNDS, ExitStatus, Session, plan, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

MIN_OPS = 100  # so that p90 has at least ten samples beyond it
SETUP_SAMPLES = 11
# Time of probe_seconds() at the reference speed; an Intel Xeon vCPU of a
# quiet 2-vCPU host takes about this long.
REFERENCE_PROBE_S = 0.0003


def git_state() -> tuple[str | None, bool | None]:
    """Commit and dirty flag of ROOT, or (None, None) when ROOT is no repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, env=env, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top.strip()).resolve() != ROOT:
        return None, None
    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return (head.strip() if head else None), (bool(status.strip()) if status is not None else None)


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to others since boot, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def speed_probe_ms() -> float:
    """Best of three timings of a fixed pure-Python loop: the machine's speed right now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        sum(i * i % 7 for i in range(200_000))
        times.append(1e3 * (time.perf_counter() - t0))
    return min(times)


def probe_seconds() -> float:
    """Median of five timings of a fixed pure-Python loop over ints, a set, a
    dict and a list: the kind of work the program does, and none of the
    program's code.  The median follows the speed the host gives most of
    the time and leaves out a timing that an interrupt happened to land in."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        seen: set[int] = set()
        buckets: dict[int, int] = {}
        values = []
        for i in range(1000):
            x = i * 7919 % 10007
            if x not in seen:
                seen.add(x)
            buckets[x & 255] = buckets.get(x & 255, 0) + x
            values.append(x)
        values.sort()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def speed_scale(before: float, after: float) -> float:
    """Factor taking a wall time between two probes to the reference speed."""
    return 2 * REFERENCE_PROBE_S / (before + after)


def environment() -> dict:
    commit, dirty = git_state()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "steal_s_start": steal_seconds(),
        "speed_probe_ms_start": speed_probe_ms(),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def setup_seconds(workload: str, work: Path) -> tuple[float, float]:
    """Median time, scaled and wall, of fresh processes that start Python,
    import heffter.cli and write the workload's input files."""
    scaled, wall = [], []
    for k in range(SETUP_SAMPLES):
        target = work / f"setup{k}"
        target.mkdir()
        before = probe_seconds()
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, str(BENCH / "setup_child.py"), workload, str(target)],
                              stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
        wall.append(time.perf_counter() - t0)
        scaled.append(wall[-1] * speed_scale(before, probe_seconds()))
        if done.returncode != 0:
            raise RuntimeError(f"setup process failed: {done.stderr.decode(errors='replace')}")
        shutil.rmtree(target)
    return statistics.median(scaled), statistics.median(wall)


def failure_origin(exc: BaseException, code_names: dict) -> str:
    """The deepest wrapped function in the traceback: where the exception escaped from."""
    if isinstance(exc, ExitStatus):
        return f"cli.main[{exc.command} exit {exc.code}]"
    origin = "bench"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        origin = code_names.get(frame.f_code, origin)
    return origin


class Loop:
    """Runs ops, times them, checks their outputs and tallies the outcomes."""

    def __init__(self, session, code_names: dict):
        self.session = session
        self.code_names = code_names
        self.verdicts: dict[tuple, str | None] = {}  # (op, digest of outputs) -> error or None
        self.latencies: list[float] = []  # wall seconds
        self.scaled: list[float] = []  # seconds at the reference speed
        self.good = 0
        self.failures: Counter[str] = Counter()
        self.mismatches: list[str] = []

    def run(self, op: tuple) -> None:
        fn, args = op
        s = self.session
        s.outputs = []
        check = None
        gc.collect()  # no op pays for the garbage of the one before it
        before = probe_seconds()
        if s.tracer:
            s.tracer.install()
        t0 = time.perf_counter()
        try:
            check = fn(s, *args)
        except (Exception, SystemExit) as exc:
            failure = f"{type(exc).__name__}@{failure_origin(exc, self.code_names)}"
        self.latencies.append(time.perf_counter() - t0)
        if s.tracer:
            s.tracer.uninstall()
        self.scaled.append(self.latencies[-1] * speed_scale(before, probe_seconds()))
        if check is not None:
            digest = hashlib.blake2b("\0".join(s.outputs).encode(), digest_size=16).digest()
            key = (op, digest)
            if key not in self.verdicts:
                try:
                    check()
                    self.verdicts[key] = None
                except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
                    self.verdicts[key] = f"{type(exc).__name__}: {exc}"
            error = self.verdicts[key]
            if error is None:
                self.good += 1
                return
            failure = f"CheckError@{fn.__name__}{args}"
            self.mismatches.append(f"{fn.__name__}{args}: {error}")
        self.failures[failure] += 1


def run_rounds(loops: list[Loop], workload: str, seed: int, seconds: float, min_ops: int,
               limit: int | None) -> None:
    """Whole rounds until ``seconds`` of op time and ``min_ops`` ops per loop;
    with ``limit``, only the first ``limit`` ops of the first round.  With a
    plain and a traced loop, every op runs in both, and which goes first
    alternates from op to op so that warm-up favours neither side of the
    overhead."""
    r = 0
    while True:
        for i, op in enumerate(plan(workload, seed, r)[:limit]):
            for loop in (loops if i % 2 == 0 else loops[::-1]):
                loop.run(op)
        r += 1
        done = loops[0].latencies
        if limit or (sum(sum(loop.latencies) for loop in loops) >= seconds and len(done) >= min_ops):
            return


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timings(setup_s: float, good: int, seconds: list[float]) -> dict:
    ms = [1e3 * t for t in seconds]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (good / sum(seconds), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (percentile(ms, 90), "ms"),
    }


def end_to_end(loop: Loop, setup_s: float) -> dict:
    """The end-to-end metrics, with times at the reference speed."""
    return {
        **timings(setup_s, loop.good, loop.scaled),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(traced: Loop, untraced: Loop, tracer) -> dict:
    """Layer metrics of the traced runs, per op."""
    s = traced.session
    ops = len(traced.latencies)
    out: dict[str, tuple[float, str]] = {}
    for name, st in tracer.stats.items():
        out[f"{name}.calls"] = (st.calls / ops, "count/op")
        out[f"{name}.busy_ms"] = (1e3 * st.busy / ops, "ms/op")
        out[f"{name}.self_ms"] = (1e3 * st.self / ops, "ms/op")
        out[f"{name}.failed"] = (st.failed / ops, "count/op")
    out["search.nodes"] = (s.nodes / ops, "count/op")
    out["search.nodes_per_s"] = (s.nodes / s.nodes_busy if s.nodes_busy else 0.0, "1/s")
    out["search.path_over_nodes"] = (s.path_n / s.nodes if s.nodes else 0.0, "ratio")
    out["search.budget_exceeded"] = (s.budget_exceeded / ops, "count/op")
    for key, value in tracer.counts.items():
        out[key] = (value / ops, "B/op" if key.endswith("_bytes") else "count/op")
    traced_s, untraced_s = sum(traced.latencies), sum(untraced.latencies)
    out["trace.ops"] = (ops, "count")
    out["trace.op_ms"] = (1e3 * traced_s / ops, "ms/op")
    out["trace.overhead_ms"] = (1e3 * (traced_s - untraced_s) / ops, "ms/op")
    out["trace.overhead_pct"] = (100 * (traced_s - untraced_s) / untraced_s, "%")
    out["op.failed_ratio"] = (sum(traced.failures.values()) / ops, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


def bench(workload: str, seed: int, seconds: float, trace: bool, limit: int | None = None) -> int:
    """Run one workload and print its result; ``limit`` runs only a slice of ``limit`` ops."""
    if not (SRC / "heffter" / "__init__.py").is_file():
        print(f"error: no heffter sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import heffter.cli  # noqa: F401  (the program under test)

    if not Path(sys.modules["heffter"].__file__).resolve().is_relative_to(SRC):
        print("error: heffter was imported from outside this checkout", file=sys.stderr)
        return 2
    if workload not in ROUNDS:
        print(f"error: unknown workload {workload!r}; choose from {sorted(ROUNDS)}", file=sys.stderr)
        return 2

    env = environment()
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_s, setup_wall_s = (0.0, 0.0) if trace else setup_seconds(workload, work)
        session = Session(work, write_inputs(workload, work))
        code_names = tracing.code_names()
        loops = [Loop(session, code_names)]
        if trace:
            traced = Session(work, session.inputs)
            traced.tracer = tracing.Tracer()
            loops.append(Loop(traced, code_names))
        run_rounds(loops, workload, seed, seconds, 1 if trace else MIN_OPS, limit)
        if trace:
            metrics = per_layer(loops[1], loops[0], traced.tracer)
        else:
            metrics = end_to_end(loops[0], setup_s)
            wall = timings(setup_wall_s, loops[0].good, loops[0].latencies)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass

    env["loadavg_end"] = list(os.getloadavg())
    env["steal_s_end"] = steal_seconds()
    env["speed_probe_ms_end"] = speed_probe_ms()
    attempted = sum(len(loop.latencies) for loop in loops)
    failures = sum((loop.failures for loop in loops), Counter())
    mismatches = [m for loop in loops for m in loop.mismatches]
    failed = sum(failures.values())
    print("env " + json.dumps(env, sort_keys=True))
    if trace:
        print("trace: unwrapped (their time is in the caller's self time): " + ", ".join(tracing.UNWRAPPED))
    print(f"ops: attempted {attempted}, failed {failed}, failed_ratio {failed / attempted:.4f}")
    for kind, count in sorted(failures.items()):
        print(f"failure: {kind} x{count}")
    for line in mismatches[:20]:
        print(f"check failed: {line}")
    for name, (value, unit) in metrics.items():
        print(f"metric: {name} = {value:.6g} {unit}")
    if not trace:
        scale = statistics.median(a / b for a, b in zip(loops[0].scaled, loops[0].latencies) if b)
        print(f"wall: median speed scale {scale:.4g}; unscaled "
              + ", ".join(f"{name} = {value:.6g} {unit}" for name, (value, unit) in wall.items()))
    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
