from __future__ import annotations

import argparse
import errno
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import heffter
from heffter import cli
from heffter.arrayfile import parse_array, serialize_array
from heffter.cli import main
from heffter.core import EXPAND_LIMIT, HeffterArray, from_rows
from heffter.errors import ArrayFormatError
from heffter.h3 import construct_raw_h3, simple_h3
from heffter.modmath import partial_sums
from heffter.search import brute_force_oracle, find_simple_column_permutation, generate_heffter
from oracles import build_parser_reference
from test_search import UNFIXABLE

H35_FILE = """heffter 3 5 31
6 7 -10 -4 1
-9 5 2 -11 13
3 -12 8 15 -14
"""


def test_parse_serialize_round_trip() -> None:
    H = parse_array(H35_FILE)
    assert H.cells == ((6, 7, -10, -4, 1), (-9, 5, 2, -11, 13), (3, -12, 8, 15, -14))
    assert serialize_array(H) == H35_FILE
    assert parse_array(serialize_array(H)) == H


def test_parse_accepts_trailing_comments() -> None:
    assert parse_array(H35_FILE + "# published example\n\n").modulus == 31


def test_parse_rejects_a_non_ascii_trailing_line() -> None:
    with pytest.raises(ArrayFormatError, match=r"^non-ASCII text; the format is ASCII-only \(line 6\)$"):
        parse_array(H35_FILE + "# published example\n# caf\xe9\n")


def test_cli_keeps_its_byte_check_for_a_non_ascii_trailing_line(tmp_path: Path) -> None:
    path = tmp_path / "h35.txt"
    path.write_bytes((H35_FILE + "# caf\xe9\n").encode("utf-8"))
    code, out, err = _run(["verify", "--file", str(path)])
    assert (code, out, err) == (2, "", "error: non-ASCII byte 0xc3 (line 5, column 6)\n")


@pytest.mark.parametrize("text", (5, None, H35_FILE.encode("ascii")), ids=("int", "None", "bytes"))
def test_parse_rejects_file_text_that_is_not_a_str(text: object) -> None:
    with pytest.raises(ArrayFormatError, match=f"^expected the file text as a str, got {type(text).__name__}$"):
        parse_array(text)


def test_parse_rejects_malformed_inputs() -> None:
    cases = {
        "": "empty",
        "heffter 3 5\n": "header",
        "heffter 3 5 32\n": "modulus",
        "steiner 3 5 31\n": "header",
        "heffter 2 5 21\n": "m, n >=",
        H35_FILE + "1 2 3 4 5\n": r"^unexpected data after array rows \(line 5\)$",
    }
    for text, hint in cases.items():
        with pytest.raises(ArrayFormatError, match=hint):
            parse_array(text)


def test_parse_rejects_bad_entries_with_positions() -> None:
    zero = H35_FILE.replace("6 7 -10 -4 1", "0 7 -10 -4 1")
    with pytest.raises(ArrayFormatError) as err:
        parse_array(zero)
    assert err.value.line == 2 and err.value.column == 1

    out_of_range = H35_FILE.replace("-11", "-19")
    with pytest.raises(ArrayFormatError) as err:
        parse_array(out_of_range)
    assert err.value.line == 3 and err.value.column == 4

    duplicate = H35_FILE.replace("-12", "7")  # |7| already at line 2, column 2
    with pytest.raises(ArrayFormatError) as err:
        parse_array(duplicate)
    assert err.value.line == 4 and err.value.column == 2
    assert "line 2, column 2" in str(err.value)

    short_row = H35_FILE.replace("-9 5 2 -11 13", "-9 5 2 -11")
    with pytest.raises(ArrayFormatError) as err:
        parse_array(short_row)
    assert err.value.line == 3


# int() reads each of these as the integer the format spells without the
# "+", the "_" or the Arabic-Indic digits.
@pytest.mark.parametrize(
    "row, spelled, line, column",
    (
        ("6 7 -10 -4 1", "+6 7 -10 -4 1", 2, 1),
        ("-9 5 2 -11 13", "-9 5 2 -11 1_3", 3, 5),
        ("6 7 -10 -4 1", "\u0666 7 -10 -4 1", 2, 1),
    ),
)
def test_parse_rejects_integer_spellings_the_format_does_not_define(
    row: str, spelled: str, line: int, column: int
) -> None:
    with pytest.raises(ArrayFormatError) as err:
        parse_array(H35_FILE.replace(row, spelled))
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value).startswith(f"{spelled.split()[column - 1]!r} is not an integer")


@pytest.mark.parametrize("v", ("+31", "3_1", "\u0663\u0661"))
def test_parse_rejects_header_integer_spellings_the_format_does_not_define(v: str) -> None:
    with pytest.raises(ArrayFormatError, match="header dimensions must be integers"):
        parse_array(H35_FILE.replace("heffter 3 5 31", f"heffter 3 5 {v}"))


@pytest.mark.parametrize(
    "text, line, column",
    (
        ("heffter 3 3 19\n1  2\t-3\n4 5 6\n7 8 9\n", 2, 3),
        (H35_FILE.replace("heffter 3", "heffter  3"), 1, 9),
        (H35_FILE.replace("heffter 3", "heffter\t3"), 1, 8),
        (H35_FILE.replace("5 31", "5 31 "), 1, 15),
        (H35_FILE.replace("6 7 -10", " 6 7 -10"), 2, 1),
        (H35_FILE.replace("-4 1", "-4 1 "), 2, 13),
        (H35_FILE.replace("-9 5 2 -11", "-9 5 2\t-11"), 3, 7),
        # LF alone ends a line: other line breaks are whitespace inside one.
        (H35_FILE.replace("\n", "\r\n"), 1, 15),
        (H35_FILE.replace("\n", "\r"), 1, 15),
        (H35_FILE.replace("\n", "\u2028"), 1, 15),
        (H35_FILE.replace("-9 5 2", "-9 5\x0c2"), 3, 5),
    ),
)
def test_parse_rejects_whitespace_other_than_single_spaces(
    text: str, line: int, column: int
) -> None:
    with pytest.raises(ArrayFormatError, match="fields are separated by single spaces") as err:
        parse_array(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_cli_rejects_a_tab_in_an_array_file_with_exit_2(tmp_path: Path) -> None:
    path = tmp_path / "tab.txt"
    path.write_text(H35_FILE.replace("-9 5 2 -11", "-9 5 2\t-11"))
    code, out, err = _run(["embed", "--file", str(path)])
    assert (code, out) == (2, "")
    assert err == (
        "error: unexpected whitespace '\\t'; fields are separated by single spaces"
        " (line 3, column 7)\n"
    )


def test_cli_verify_rejects_a_crlf_array_file_with_exit_2(tmp_path: Path) -> None:
    path = tmp_path / "crlf.txt"
    path.write_bytes(H35_FILE.replace("\n", "\r\n").encode("ascii"))
    assert _run(["verify", "--file", str(path)]) == (
        2,
        "",
        "error: unexpected whitespace '\\r'; fields are separated by single spaces"
        " (line 1, column 15)\n",
    )


def test_cli_genus_prints_published_value(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["genus", "--n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "94"


@pytest.mark.parametrize("n", (-3, 0, 1, 2))
def test_cli_genus_rejects_n_below_3(n: int) -> None:
    code, out, err = _run(["genus", "--n", str(n)])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_genus_with_more_digits_than_str_allows_is_usage_error() -> None:
    digits = "9" * 2200  # parses, but the genus has about 4,400 digits
    n = int(digits)
    limited = hasattr(sys, "set_int_max_str_digits")  # False on interpreters without the limit
    old = sys.get_int_max_str_digits() if limited else 0
    try:
        if limited:
            sys.set_int_max_str_digits(4300)
            assert _run(["genus", "--n", digits]) == (
                2, "", "error: the genus has too many digits to print as a decimal\n"
            )
            sys.set_int_max_str_digits(0)
        code, out, err = _run(["genus", "--n", digits])
        assert (code, err) == (0, "") and int(out) == 1 + (6 * n + 1) * (n - 2)
    finally:
        if limited:
            sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "argv",
    (
        ["gen3", "--n", "2"],
        ["genus", "--n", "2"],
        ["generate", "--m", "40", "--n", "40", "--budget", "10000"],
        ["generate", "--m", "3", "--n", "3", "--budget", "0"],
    ),
    ids=("gen3", "genus", "generate-budget", "generate-zero-budget"),
)
def test_cli_failures_that_read_no_file_print_only_an_error_line(argv: list[str]) -> None:
    code, out, err = _run(argv)
    assert code in (1, 2) and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


class _ClosedPipe(io.StringIO):
    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv", (["gen3", "--n", "3"], ["genus", "--n", "5"], ["verify", "--file", "h35.txt"]), ids=lambda a: a[0]
)
def test_cli_a_failed_write_is_an_error_line_and_exit_2(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, argv: list[str]
) -> None:
    """An array, the genus text and a report that stdout refuses each end in exit 2."""
    monkeypatch.chdir(tmp_path)
    Path("h35.txt").write_text(H35_FILE, encoding="ascii")
    err = io.StringIO()
    with redirect_stdout(_ClosedPipe()), redirect_stderr(err):
        assert main(argv) == 2
    assert err.getvalue() == "error: [Errno 32] Broken pipe\n"


def _closed_pipe() -> int:
    """The write end of a pipe whose reader has already exited."""
    read, write = os.pipe()
    os.close(read)
    return write


# A child imports this heffter, and without PYTHONUNBUFFERED its stdout is buffered as a user's
# file or pipe is: write-through would fail inside main even without the flush there.  With it
# (python -u) the binary layer under stdout is the raw file, whose write can take part of a result.
_CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
_CHILD_ENV["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(cli.__file__).parents[1]), os.getenv("PYTHONPATH"))))
_CHILD_ENVS = {"buffered": _CHILD_ENV, "unbuffered": {**_CHILD_ENV, "PYTHONUNBUFFERED": "1"}}
_STDOUTS = {
    "full-disk": (lambda: os.open("/dev/full", os.O_WRONLY), "error: [Errno 28] No space left on device\n"),
    "closed-pipe": (_closed_pipe, "error: [Errno 32] Broken pipe\n"),
    "closed-stdout": (None, "error: [Errno 9] Bad file descriptor: '<stdout>'\n"),
}


@pytest.mark.parametrize(
    "stdout, env",
    [pytest.param(s, e, id=s if e == "buffered" else f"{s}-{e}") for e in sorted(_CHILD_ENVS) for s in sorted(_STDOUTS)],
)
@pytest.mark.parametrize(
    "argv", (["gen3", "--n", "3"], ["genus", "--n", "5"], ["verify", "--file", "h35.txt"]), ids=lambda a: a[0]
)
def test_cli_a_stdout_that_refuses_the_result_is_exit_2_in_a_real_process(
    tmp_path: Path, argv: list[str], stdout: str, env: str
) -> None:
    """A buffered stdout flushes in main, not at interpreter exit, so its failure is one error line."""
    if stdout == "full-disk" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    (tmp_path / "h35.txt").write_text(H35_FILE, encoding="ascii")
    opener, expected = _STDOUTS[stdout]  # no opener: the child closes its fd 1 before it starts
    fd = opener() if opener else subprocess.DEVNULL
    try:
        done = subprocess.run(
            [sys.executable, "-m", "heffter.cli", *argv], cwd=tmp_path, env=_CHILD_ENVS[env], stdout=fd,
            stderr=subprocess.PIPE, text=True, preexec_fn=None if opener else lambda: os.close(1),
        )
    finally:
        if opener:
            os.close(fd)
    assert (done.returncode, done.stderr) == (2, expected)


@pytest.mark.parametrize("env", sorted(_CHILD_ENVS))
def test_cli_a_reader_that_stops_early_is_exit_2_in_a_real_process(env: str) -> None:
    """The reader of a pipe exits with most of a 3.6 MB result unread, as ``| head -c 5`` does."""
    child = subprocess.Popen(
        [sys.executable, "-m", "heffter.cli", "gen3", "--n", "200000"], env=_CHILD_ENVS[env],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = child.stdout.read(5)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (head, child.wait(), err) == (b"hefft", 2, b"error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("env", sorted(_CHILD_ENVS))
def test_cli_a_full_non_blocking_pipe_is_exit_2_in_a_real_process(env: str) -> None:
    """A non-blocking pipe nobody reads fills with the first 64 KiB of a 3.6 MB result, then refuses."""
    read, write = os.pipe()
    os.set_blocking(write, False)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "heffter.cli", "gen3", "--n", "200000"], env=_CHILD_ENVS[env],
            stdout=write, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write)
        os.close(read)
    assert done.returncode == 2 and done.stderr.startswith(f"error: [Errno {errno.EAGAIN}] ".encode())
    assert done.stderr.count(b"\n") == 1


def test_cli_an_input_error_leaves_stdout_to_the_caller(tmp_path: Path) -> None:
    """Only a failed write points fd 1 at os.devnull; an in-process caller keeps its stdout."""
    code = "from heffter.cli import main; print(main(['verify', '--file', 'missing.txt']), 'and stdout still writes')"
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_CHILD_ENV, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "2 and stdout still writes\n")


def test_the_readme_library_example_runs(tmp_path: Path) -> None:
    """The README's one ```python block, run as written in a child that imports this heffter."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    _, code = readme.split("```python\n")
    code = code.split("\n```", 1)[0]
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_CHILD_ENV, capture_output=True, text=True)
    refusal = "a 3 x 50000000 array would list 150000000 integers, more than 2000000\n"
    assert (done.returncode, done.stdout, done.stderr) == (0, refusal, "")


def test_console_script_parses() -> None:
    """``bash -n`` on tests/console_script.sh, so a syntax error fails here before it fails in CI."""
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("no bash")
    done = subprocess.run([bash, "-n", str(Path(__file__).with_name("console_script.sh"))], capture_output=True)
    assert done.returncode == 0, done.stderr


def test_the_version_is_the_one_pyproject_declares(capsys: pytest.CaptureFixture[str]) -> None:
    tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert version == heffter.__version__
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out == f"heffter {version}\n"


def test_cli_zero_budget_is_usage_error(tmp_path: Path) -> None:
    path = tmp_path / "raw6.txt"
    path.write_text(serialize_array(construct_raw_h3(6)), encoding="ascii")
    bad_lines = tmp_path / "ns.txt"
    bad_lines.write_text(NON_ZERO_SUM, encoding="ascii")
    for argv in (
        ["search", "--file", str(path), "--budget", "0"],
        ["search", "--file", str(bad_lines), "--budget", "0"],  # the budget is read first
        ["generate", "--m", "3", "--n", "3", "--budget", "0"],
        ["generate", "--m", "2", "--n", "3", "--budget", "0"],  # before the dimensions
    ):
        assert _run(argv) == (2, "", "error: node_budget must be positive, got 0\n")


def test_cli_gen3_verify_pipeline(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["gen3", "--n", "8"]) == 0
    array_text = capsys.readouterr().out
    path = tmp_path / "h38.txt"
    path.write_text(array_text, encoding="ascii")

    assert main(["verify", "--file", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_heffter"] and doc["is_simple"]
    assert doc["row_partial_sums"][0] == [36, 25, 17, 16, 26, 32, 35, 0]
    assert doc["row_partial_sums"][1] == [4, 46, 30, 10, 15, 32, 2, 0]
    assert doc["row_partial_sums"][2] == [9, 27, 2, 23, 8, 34, 12, 0]


def test_cli_verify_flags_non_simple_array(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    path = tmp_path / "raw38.txt"
    path.write_text(serialize_array(construct_raw_h3(8)), encoding="ascii")
    assert main(["verify", "--file", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_heffter"] and not doc["is_simple"]
    assert doc["row_simple"] == [False, True, True]


def test_cli_reorder_applies_published_permutation(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    path = tmp_path / "raw38.txt"
    path.write_text(serialize_array(construct_raw_h3(8)), encoding="ascii")
    assert main(["reorder", "--file", str(path), "--perm", "1,2,6,8,5,3,4,7"]) == 0
    out = capsys.readouterr().out
    assert parse_array(out) == simple_h3(8)


def test_cli_reorder_rejects_bad_permutation(tmp_path: Path, capsys) -> None:
    path = tmp_path / "raw38.txt"
    path.write_text(serialize_array(construct_raw_h3(8)), encoding="ascii")
    assert main(["reorder", "--file", str(path), "--perm", "1,1,2,3,4,5,6,7"]) == 2


# int() reads "+1", "1_0" and "\u0661" (ARABIC-INDIC DIGIT ONE); the array file format does not.
@pytest.mark.parametrize(
    "perm", ("x", "1,2,3,4,5,6,7,x", "1.5", "+1,2,3,4,5,6,7,8", "1_0", "\u0661,2,3,4,5,6,7,8")
)
def test_cli_reorder_rejects_non_integer_permutation(tmp_path: Path, perm: str) -> None:
    path = tmp_path / "raw38.txt"
    path.write_text(serialize_array(construct_raw_h3(8)), encoding="ascii")
    assert _run(["reorder", "--file", str(path), "--perm", perm]) == (
        2, "", f"error: --perm must list integers, got {perm!r}\n"
    )


# Every numeric option is spelled as in the array file and --perm; int() would
# also read "+5", "1_0", " 5", "\u0665" (ARABIC-INDIC DIGIT FIVE) and "\uff15" (FULLWIDTH DIGIT FIVE).
@pytest.mark.parametrize("spelling", ("+5", "1_0", " 5", "\u0665", "\uff15"))
@pytest.mark.parametrize(
    "argv, option",
    (
        (["gen3", "--n", "5"], "--n"),
        (["genus", "--n", "5"], "--n"),
        *((["generate", "--m", "5", "--n", "5", "--seed", "1", "--budget", "1000"], option)
          for option in ("--m", "--n", "--seed", "--budget")),
        (["search", "--file", "a.txt", "--budget", "5"], "--budget"),
    ),
)
def test_cli_numeric_options_refuse_spellings_the_format_does_not_define(
    argv: list[str], option: str, spelling: str
) -> None:
    cli.build_parser().parse_args(argv)  # the unchanged command line parses
    argv = list(argv)
    argv[argv.index(option) + 1] = spelling
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, out.getvalue()) == (2, "")
    assert err.getvalue().endswith(f"error: argument {option}: invalid int value: {spelling!r}\n")


@pytest.mark.parametrize("cmd", (["verify"], ["orderings"], ["develop", "--rows"], ["embed"], ["search"]))
def test_cli_non_ascii_file_is_usage_error(tmp_path: Path, cmd: list[str]) -> None:
    path = tmp_path / "h35.txt"
    path.write_bytes(H35_FILE.replace("-9 5", "-9 \xff5").encode("latin-1"))
    code, out, err = _run([*cmd, "--file", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: non-ASCII byte 0xff (line 3, column 4)\n"


def test_cli_orderings_reports_single_cycle(tmp_path: Path, capsys) -> None:
    path = tmp_path / "h35.txt"
    path.write_text(H35_FILE, encoding="ascii")
    assert main(["orderings", "--file", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["single_cycle"] and doc["orbit_length"] == 15
    assert doc["composition_cycle"][:4] == [[1, 1], [2, 2], [3, 3], [2, 4]]


def test_cli_develop_rows_and_cols(tmp_path: Path, capsys) -> None:
    path = tmp_path / "h35.txt"
    path.write_text(H35_FILE, encoding="ascii")
    assert main(["develop", "--file", str(path), "--cols"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 3 and doc["cycle_count"] == 155
    assert doc["pair_coverage_ok"] and doc["translation_closed"]

    assert main(["develop", "--file", str(path), "--rows", "--expand"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 5 and doc["cycle_count"] == 93
    assert len(doc["cycles"]) == 93


def test_cli_embed_certifies_and_reports_genus(tmp_path: Path, capsys) -> None:
    for n, genus in ((3, 20), (5, 94)):
        path = tmp_path / f"h3{n}.txt"
        path.write_text(serialize_array(simple_h3(n)), encoding="ascii")
        assert main(["embed", "--file", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["genus"] == genus
        assert all(doc["checks"].values())


def test_cli_search_found_and_none(tmp_path: Path, capsys) -> None:
    path = tmp_path / "raw38.txt"
    path.write_text(serialize_array(construct_raw_h3(8)), encoding="ascii")
    assert main(["search", "--file", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "found"
    assert doc["reordered_is_simple"]

    assert main(["search", "--file", str(path), "--budget", "2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "budget_exceeded"

    grid = from_rows(UNFIXABLE)
    path = tmp_path / "unfixable.txt"
    path.write_text(serialize_array(grid), encoding="ascii")
    for strategy in ("backtracking", "exhaustive"):
        assert main(["search", "--file", str(path), "--strategy", strategy]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "none_exists"
        assert doc["nodes"] == find_simple_column_permutation(grid, strategy=strategy).nodes
    assert doc["nodes"] == 720  # exhaustive: every one of the 6! orders


@pytest.mark.parametrize("n", range(3, 9))
def test_cli_search_all_writes_the_oracle_report(tmp_path: Path, n: int) -> None:
    H = construct_raw_h3(n)
    path = tmp_path / f"raw{n}.txt"
    path.write_text(serialize_array(H), encoding="ascii")
    outcome = find_simple_column_permutation(H)
    report = {
        "array": {"m": 3, "n": n, "v": 6 * n + 1},
        "strategy": "backtracking",
        "status": "found",
        "nodes": outcome.nodes,
        "permutation": list(outcome.permutation),
        "reordered_is_heffter": True,
        "reordered_is_simple": True,
        "all_permutations": [list(p) for p in brute_force_oracle(H)],
    }
    expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert _run(["search", "--file", str(path), "--all"]) == (0, expected, "")


def test_cli_generate_emits_parseable_array(capsys) -> None:
    assert main(["generate", "--m", "5", "--n", "4", "--seed", "3"]) == 0
    H = parse_array(capsys.readouterr().out)
    assert (H.m, H.n, H.modulus) == (5, 4, 41)


def test_cli_missing_file_is_usage_error(capsys) -> None:
    assert main(["verify", "--file", "/nonexistent/path.txt"]) == 2


def test_cli_malformed_file_is_usage_error(tmp_path: Path, capsys) -> None:
    path = tmp_path / "bad.txt"
    path.write_text("heffter 3 5 31\n1 2 3\n", encoding="ascii")
    assert main(["verify", "--file", str(path)]) == 2


def test_cli_unknown_subcommand_exits_2() -> None:
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_embed_rejects_even_by_even(tmp_path: Path) -> None:
    # A 4 x 4 array has no compatible orderings: check failure exit code.
    path = tmp_path / "h44.txt"
    path.write_text(serialize_array(generate_heffter(4, 4)), encoding="ascii")
    for cmd in ("orderings", "embed"):
        assert _run([cmd, "--file", str(path)]) == (
            1,
            "",
            "error: both dimensions even (4 x 4): no compatible orderings exist, since "
            "they compose to an even permutation and a cycle on all 16 cells is odd\n",
        )


# Distinct absolute values, so it parses, but no line sums to 0 mod 19.
NON_ZERO_SUM = "heffter 3 3 19\n1 2 3\n4 5 6\n7 8 9\n"


@pytest.mark.parametrize("flags", ([], ["--all"], ["--strategy", "exhaustive"]))
def test_cli_search_rejects_non_zero_sum_lines(tmp_path: Path, flags: list[str]) -> None:
    path = tmp_path / "ns.txt"
    path.write_text(NON_ZERO_SUM, encoding="ascii")
    assert _run(["search", "--file", str(path), *flags]) == (
        1, "", "error: row 1 does not sum to 0 mod 19\n"
    )
    # Swapping two entries of row 1 keeps every row sum and breaks two columns.
    path.write_text(H35_FILE.replace("6 7 -10", "7 6 -10"), encoding="ascii")
    assert _run(["search", "--file", str(path), *flags]) == (
        1, "", "error: column 1 does not sum to 0 mod 31\n"
    )


def test_cli_search_all_rejects_more_than_nine_columns_before_searching(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    path = tmp_path / "raw26.txt"
    path.write_text(serialize_array(construct_raw_h3(26)), encoding="ascii")
    expected = (2, "", "error: oracle enumerates n! permutations; n=26 > 9\n")
    assert _run(["search", "--file", str(path), "--all", "--budget", "100000"]) == expected

    def no_search(*args: object) -> None:
        raise AssertionError("search --all searched an array the oracle cannot enumerate")

    monkeypatch.setattr("heffter.cli.find_simple_column_permutation", no_search)
    assert _run(["search", "--file", str(path), "--all"]) == expected


def test_cli_orderings_rejects_non_zero_sum_lines(tmp_path: Path) -> None:
    path = tmp_path / "ns.txt"
    path.write_text(NON_ZERO_SUM, encoding="ascii")
    assert _run(["orderings", "--file", str(path)]) == (
        1, "", "error: row part 1 does not sum to 0 mod 19\n"
    )


def test_cli_generate_past_the_recursion_limit_stops_at_budget() -> None:
    code, out, err = _run(["generate", "--m", "40", "--n", "40", "--budget", "10000"])
    assert (code, out) == (1, "")
    assert err == "error: generator exceeded 10000 nodes for 40 x 40\n"


@pytest.mark.parametrize(
    "argv, n, listed",
    (
        (["embed", "--expand"], 236, 2 * 3 * 236 * 1417),  # 235 lists 1,989,510
        (["develop", "--rows", "--expand"], 334, 3 * 334 * 2005),  # 333 lists 1,997,001
        (["develop", "--cols", "--expand"], 334, 3 * 334 * 2005),
    ),
)
def test_cli_expand_refuses_more_than_the_limit_before_building(
    tmp_path: Path, argv: list[str], n: int, listed: int
) -> None:
    path = tmp_path / "big.txt"
    path.write_text(serialize_array(simple_h3(n)), encoding="ascii")
    tracemalloc.start()
    try:
        result = _run([argv[0], "--file", str(path), *argv[1:]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (2, "", f"error: --expand would list {listed} integers, more than 2000000\n")
    assert peak < 1_000_000  # the listing itself would take hundreds of MB


@pytest.mark.parametrize("argv, listed", ((["embed"], 2 * 3 * 4 * 25), (["develop", "--cols"], 3 * 4 * 25)))
def test_cli_expand_lists_up_to_the_limit(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch, argv: list[str], listed: int
) -> None:
    path = tmp_path / "h3_4.txt"
    path.write_text(serialize_array(simple_h3(4)), encoding="ascii")
    command = [argv[0], "--file", str(path), *argv[1:], "--expand"]
    monkeypatch.setattr("heffter.core.EXPAND_LIMIT", listed)
    code, out, _ = _run(command)
    doc = json.loads(out)
    lists = doc["faces"].values() if "faces" in doc else [doc["cycles"]]
    assert code == 0 and sum(len(c) for cycles in lists for c in cycles) == listed
    monkeypatch.setattr("heffter.core.EXPAND_LIMIT", listed - 1)
    assert _run(command)[0] == 2


def test_cli_gen3_refuses_more_than_the_limit_before_building() -> None:
    # 150,000,000 cells would take gigabytes; refused before any is built.
    assert _run(["gen3", "--n", "50000000"]) == (2, "", "error: a 3 x 50000000 array would list 150000000 integers, more than 2000000\n")


def test_cli_gen3_lists_up_to_the_limit(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr("heffter.core.EXPAND_LIMIT", 3 * 8)
    code, out, _ = _run(["gen3", "--n", "8"])
    assert code == 0 and parse_array(out) == simple_h3(8)
    assert _run(["gen3", "--n", "9"]) == (2, "", "error: a 3 x 9 array would list 27 integers, more than 24\n")


def test_cli_generate_refuses_a_budget_below_the_free_cells() -> None:
    # 639,201 free cells cannot be filled in 10 nodes: refused before any
    # 800 x 800 grid or value list is built.
    code, out, err = _run(["generate", "--m", "800", "--n", "800", "--budget", "10"])
    assert (code, out) == (1, "")
    assert err == "error: generator exceeded 10 nodes for 800 x 800\n"


def test_cli_generate_refuses_more_than_the_listing_limit() -> None:
    # The budget covers the free cells, so the size check refuses, exit 2.
    assert _run(["generate", "--m", "20000", "--n", "20000", "--seed", "1", "--budget", "400000000"]) == (
        2, "", "error: a 20000 x 20000 array would list 400000000 integers, more than 2000000\n")


@st.composite
def _signed_arrays(draw: st.DrawFn) -> tuple[str, str]:
    """A parsable m x n array (m, n <= 5) and a column permutation for it."""
    m, n = draw(st.integers(3, 5)), draw(st.integers(3, 5))
    values = draw(st.permutations(range(1, m * n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=m * n, max_size=m * n))
    entries = [s * x for s, x in zip(signs, values)]
    H = from_rows([entries[i * n : (i + 1) * n] for i in range(m)])
    perm = draw(st.permutations(range(1, n + 1)))
    return serialize_array(H), ",".join(map(str, perm))


def _assert_file_commands_end_in_an_exit_code(data: bytes, perm: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "a.txt")
        Path(path).write_bytes(data)
        for cmd in (
            ["verify"],
            ["reorder", "--perm", perm],
            ["orderings"],
            ["develop", "--rows"],
            ["develop", "--cols", "--expand"],
            ["embed", "--expand"],
            ["search"],
            ["search", "--all"],
            ["search", "--strategy", "exhaustive"],
        ):
            code, out, err = _run([*cmd, "--file", path])
            assert code in (0, 1, 2)
            assert err == "" or (err.startswith("error:") and err.count("\n") == 1 and out == "")


@settings(max_examples=60, deadline=None)
@given(_signed_arrays())
def test_cli_file_commands_end_in_an_exit_code(case: tuple[str, str]) -> None:
    # Columns of at most 5 distinct-|x| entries summing to 0 are always simple,
    # so search never meets an array whose rows it can fix but columns it cannot.
    text, perm = case
    _assert_file_commands_end_in_an_exit_code(text.encode("ascii"), perm)


# Valid files to mutate: simple Heffter arrays, which reach every subcommand's
# success path, beside the random signed arrays of _signed_arrays.
_HEFFTER_FILES = (H35_FILE, *(serialize_array(simple_h3(n)) for n in (3, 4, 5)))
_FUZZ_CHARS = "0123456789- \n#+_\t\rxh\u0661"


@st.composite
def _mutated_files(draw: st.DrawFn) -> tuple[str, str]:
    """A valid m x n file (m, n <= 5) after up to four character edits, and a permutation."""
    text, perm = draw(_signed_arrays() | st.sampled_from(_HEFFTER_FILES).map(lambda t: (t, "1,2,3")))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(st.text(_FUZZ_CHARS, max_size=3)) + text[at + cut :]
    return text, perm


@settings(max_examples=200, deadline=None)
@given(_mutated_files())
def test_parse_array_on_mutated_files_returns_an_array_or_a_format_error(case: tuple[str, str]) -> None:
    try:
        assert isinstance(parse_array(case[0]), HeffterArray)
    except ArrayFormatError:
        pass


@settings(max_examples=100, deadline=None)
@given(_mutated_files())
def test_cli_file_commands_on_mutated_files_end_in_an_exit_code(case: tuple[str, str]) -> None:
    text, perm = case
    try:
        assume(parse_array(text).m <= 5)  # longer columns wait for the column-search fix
    except ArrayFormatError:
        pass
    _assert_file_commands_end_in_an_exit_code(text.encode("utf-8"), perm)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _golden_corpus(tmp: Path) -> dict[str, tuple[int, str, str]]:
    """Exit code, sha256 of stdout, and stderr of every command in a fixed corpus.

    ``develop`` is hashed with its ``base_cycles`` key removed; that key is
    checked structurally by its own test.
    """
    results: dict[str, tuple[int, str, str]] = {}

    def record(name: str, argv: list[str]) -> str:
        code, out, err = _run(argv)
        hashed = out
        if argv[0] == "develop" and code == 0:
            doc = json.loads(out)
            del doc["base_cycles"]
            hashed = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        results[name] = (code, hashlib.sha256(hashed.encode()).hexdigest(), err)
        return out

    def array_file(name: str, text: str) -> str:
        path = tmp / name
        path.write_text(text, encoding="ascii")
        return str(path)

    for n in (3, 4, 5, 8, 13):
        path = array_file(f"h3_{n}.txt", record(f"gen3 {n}", ["gen3", "--n", str(n)]))
        for cmd in ("verify", "orderings", "embed"):
            record(f"{cmd} {n}", [cmd, "--file", path])
    record("embed --expand 4", ["embed", "--file", str(tmp / "h3_4.txt"), "--expand"])
    record("develop --cols --expand 5", ["develop", "--file", str(tmp / "h3_5.txt"), "--cols", "--expand"])
    raw6 = array_file("raw6.txt", serialize_array(construct_raw_h3(6)))
    record("search --all raw6", ["search", "--file", raw6, "--all"])
    record("search exhaustive raw6", ["search", "--file", raw6, "--strategy", "exhaustive"])
    record("generate 5x4 seed 3", ["generate", "--m", "5", "--n", "4", "--seed", "3"])
    # Failing inputs: a non-simple array and an out-of-range entry.
    raw8 = array_file("raw8.txt", serialize_array(construct_raw_h3(8)))
    for cmd in ("verify", "orderings", "embed"):
        record(f"{cmd} raw8", [cmd, "--file", raw8])
    record("develop --rows raw8", ["develop", "--file", raw8, "--rows"])
    bad = array_file("bad.txt", H35_FILE.replace("-11", "-19"))
    record("verify bad entry", ["verify", "--file", bad])
    return results


# Recorded from the CLI before the validation and kernel refactor; stdout must
# stay byte-identical (develop's base_cycles excepted, see _golden_corpus).
GOLDEN = {'gen3 3': (0, '821200b81f158285f57faa784d3f6ddfae552f7183591a3d3da7908fb9d91e12', ''),
 'verify 3': (0, '5eb8f6558c48010c3dce8e2f344e2584b77fb93853fe3313011e6fab26efa838', ''),
 'orderings 3': (0, 'ae9eecc7190be63a9dc2002b0dd5c6c69ba047f11138d7edee8f7fb0cc6eda47', ''),
 'embed 3': (0, 'e4cfc4f0c014da8f539996d5b7e024bd546fc287cb58c93b4a7d0ef8310124d3', ''),
 'gen3 4': (0, '1bd55e110e7eb5b1b2872a0878ca8bb49c73df08b68de113eaaba3e5095f304a', ''),
 'verify 4': (0, '763e62851126bdc998cc9ad075b2920468a2eeb0a1ea9dd10f79470b27a4be4c', ''),
 'orderings 4': (0, 'cd38fa8a907dcdc221d7143b69706b94382970f95920c00922b3219172a953da', ''),
 'embed 4': (0, 'bfd7973e6e4320e2732be32996ba102ece56c0491c9017a0dbb351680e700a96', ''),
 'gen3 5': (0, '23454a848d1fd85f4160ebab826e9694db8d5113cf145a03e289aa29dda895aa', ''),
 'verify 5': (0, 'c450c1e4bc8568ac9795423239edf2421090e00314685bcfff70f0934d3a018d', ''),
 'orderings 5': (0, 'bf23e383a9ed22b4303e8966f5d131f4f136d47c049055c82dcb269b536bafff', ''),
 'embed 5': (0, '52b449a9f61fe936094bb9b9f1d872f7b324d4febb47657dc165e750219eea7d', ''),
 'gen3 8': (0, 'b9742929b66557cf6e4230af22ea60dee262f6fcd6170f5d4e609d8b98e7f5b8', ''),
 'verify 8': (0, 'bff9bc893afe5a5ed1c05818275d1b6c70356d8578dc54fdd3b3ef4114fb1b30', ''),
 'orderings 8': (0, '9e9795b99a915960d71411d09fb644cd26a2afbd049fda2eb063ad652abe9e0f', ''),
 'embed 8': (0, '264d1f04d0c592fef6588e59107621a8a924fc4acceb9451bfb30db62822a24c', ''),
 'gen3 13': (0, '20d9b0bcdf50e0bd0bee8ac9b43a6cd64d74fa48c930316c0bfbb10d0098d0e8', ''),
 'verify 13': (0, '06b40a7fea9b3b4bf2e73a05d7a78cd850ce52a0c90aa86833f37f8147674db0', ''),
 'orderings 13': (0, '47fc2dc42480c9c2c3c64d93c7036ecc4a508a45ecc3d3329155ef16a531dfdf', ''),
 'embed 13': (0, '9cbfd2a2512973b61ed2265d2e3afe1af3cf70b641482d6cb2f3b7f54e850ccb', ''),
 'embed --expand 4': (0, '7317d79fecac7766581e378eb38042d7b3c82da23ad998e1d4cd08a9735ff0e6', ''),
 'develop --cols --expand 5': (0, '95a595fa5e21c5f91f42a75211352fb4e830bceda0e5e6011c27cb536c4d218e', ''),
 'search --all raw6': (0, '638247eb224553ab4c83c5fa159fc5b9f68f1a988fb77eebd25d78cb29c7b861', ''),
 'search exhaustive raw6': (0, '3117e0ae157ac7a7b9f98cebdc0a196c7ba1cbd1f603650646d7e4de76f7aac9', ''),
 'generate 5x4 seed 3': (0, '98bf6712c147e0a3756f4def10b0bbfedb16c77c58d42664c4c2f658d78c8781', ''),
 'verify raw8': (1, '442534f1c34c5cf4bd3fda79da85bd6029ebdb372c05dd58f5d3212394b2896a', ''),
 'orderings raw8': (1,
                    'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                    'error: row part 1 has a repeated partial sum mod 49\n'),
 'embed raw8': (1,
                'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                'error: row part 1 has a repeated partial sum mod 49\n'),
 'develop --rows raw8': (1,
                         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                         'error: part (-13, -11, 6, 3, 10, -8, 14, -1) has repeated partial sums mod 49\n'),
 'verify bad entry': (2,
                      'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                      'error: |-19| exceeds (v-1)/2 = 15 (line 3, column 4)\n')}


def test_cli_golden_corpus(tmp_path: Path) -> None:
    assert _golden_corpus(tmp_path) == GOLDEN


def test_cli_develop_lists_one_base_walk_per_part(tmp_path: Path) -> None:
    H = simple_h3(5)
    path = tmp_path / "h35.txt"
    path.write_text(serialize_array(H), encoding="ascii")
    for flag, parts in (("--rows", H.cells), ("--cols", tuple(zip(*H.cells)))):
        code, out, _ = _run(["develop", "--file", str(path), flag])
        assert code == 0
        expected = [[0, *partial_sums(part, H.modulus)[:-1]] for part in parts]
        assert json.loads(out)["base_cycles"] == expected


@pytest.fixture
def checked_reports(monkeypatch: pytest.MonkeyPatch) -> list[dict]:
    """Every report the CLI prints while the test runs, each checked on the way out.

    The bytes ``_print_json`` writes must be those of ``json.dumps(doc,
    indent=2, sort_keys=True)`` and a newline.
    """
    docs: list[dict] = []
    print_json = cli._print_json

    def checked(doc: dict) -> None:
        out = io.StringIO()
        with redirect_stdout(out):
            print_json(doc)
        assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        docs.append(doc)
        sys.stdout.write(out.getvalue())

    monkeypatch.setattr(cli, "_print_json", checked)
    return docs


def test_cli_golden_corpus_reports_are_json_dumps_bytes(tmp_path: Path, checked_reports: list[dict]) -> None:
    _golden_corpus(tmp_path)
    assert len(checked_reports) == 20  # the corpus commands that print a report


def test_cli_reports_are_json_dumps_bytes_at_every_size(tmp_path: Path, checked_reports: list[dict]) -> None:
    arrays = [simple_h3(n) for n in (3, 4, 8, 100, 1000)] + [generate_heffter(5, 5, seed=1)]
    for H in arrays:
        path = tmp_path / f"{H.m}x{H.n}.txt"
        path.write_text(serialize_array(H), encoding="ascii")
        expand = ["--expand"] if 2 * H.m * H.n * H.modulus <= EXPAND_LIMIT else []  # embed lists 2mnv integers
        for argv in (["verify"], ["orderings"], ["embed"], ["embed", *expand], ["develop", "--rows", *expand],
                     ["develop", "--cols", *expand]):
            assert _run([*argv, "--file", str(path)])[::2] == (0, "")
    assert len(checked_reports) == 6 * len(arrays)


_json_text = st.text(st.sampled_from(',[]{}":\\ \n\taé\u2028\U0001f600'), max_size=6) | st.text(max_size=3)
_json_ints = st.integers(-(2**70), 2**70) | st.booleans() | st.none()


def _leaves_at_depth(depth: int) -> st.SearchStrategy[object]:
    """Non-empty lists nested ``depth`` deep around ints, bools and None: the re-indented case."""
    lists = _json_ints
    for _ in range(depth):
        lists = st.lists(lists, min_size=1, max_size=3)
    return lists


_json_values = st.recursive(
    _json_text | _json_ints | st.lists(_json_ints, max_size=4) | st.integers(1, 5).flatmap(_leaves_at_depth),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_json_text, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_report_encoder_writes_the_bytes_of_json_dumps(value: object) -> None:
    assert cli._encode(value) == json.dumps(value, indent=2, sort_keys=True)


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_parser_prints_the_help_of_the_reference() -> None:
    parser, reference = cli.build_parser(), build_parser_reference()
    assert parser.format_help() == reference.format_help()
    subs, reference_subs = _subparsers(parser), _subparsers(reference)
    assert list(subs) == list(reference_subs) and len(subs) == 9
    for name, sub in subs.items():
        assert sub.format_help() == reference_subs[name].format_help(), name


@pytest.mark.parametrize(
    "argv",
    (
        ["gen3", "--n", "7"],
        ["verify", "--file", "a.txt"],
        ["reorder", "--file", "a.txt", "--perm", "2,1,3"],
        ["orderings", "--file", "a.txt"],
        ["develop", "--file", "a.txt", "--rows"],
        ["develop", "--file", "a.txt", "--cols", "--expand"],
        ["embed", "--file", "a.txt", "--expand"],
        ["genus", "--n", "5"],
        ["search", "--file", "a.txt"],
        ["search", "--file", "a.txt", "--strategy", "exhaustive", "--budget", "7", "--all"],
        ["generate", "--m", "3", "--n", "5"],
        ["generate", "--m", "5", "--n", "7", "--seed", "1", "--budget", "90"],
    ),
    ids=" ".join,
)
def test_parser_parses_as_the_reference(argv: list[str]) -> None:
    assert vars(cli.build_parser().parse_args(argv)) == vars(build_parser_reference().parse_args(argv))


def _usage_error(parser: argparse.ArgumentParser, argv: list[str]) -> tuple[object, str]:
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, err.getvalue()


@pytest.mark.parametrize(
    "argv",
    (
        ["search"],
        ["develop", "--file", "a.txt", "--rows", "--cols"],
        ["search", "--file", "a.txt", "--strategy", "bogus"],
        ["gen3", "--n", "x"],
        [],
    ),
    ids=lambda argv: " ".join(argv) or "no-subcommand",
)
def test_parser_refuses_as_the_reference(argv: list[str]) -> None:
    code, err = _usage_error(cli.build_parser(), argv)
    assert code == 2 and err.startswith("usage: heffter")
    assert (code, err) == _usage_error(build_parser_reference(), argv)
