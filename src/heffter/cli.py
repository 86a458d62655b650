"""Command-line interface.

Subcommands: gen3, verify, reorder, orderings, develop, embed, genus,
search, generate.  Each ``_cmd_*`` handler returns its result and exit
code: a report, an array, or the genus text.  ``main`` is the one reader of
the array file (``--file``) and the one writer of stdout, so stdout holds a
whole result or nothing, and an error is one ``error:`` line on stderr.
Array output uses the plain-text array file format; reports are canonical
JSON, byte-identical to ``json.dumps(doc, indent=2, sort_keys=True)``, so
they are deterministic and diffable.  ``_encode`` produces them without
json's pure-Python encoder, which ``indent`` selects;
``test_report_encoder_writes_the_bytes_of_json_dumps`` and the report
tests beside it in tests/test_cli.py hold it to that.  Exit codes: 0 when
every requested check passed, 1 when a verification or search failed, 2
for usage or input errors.  A stdout that cannot take the result (a full
disk, a closed pipe, a closed stdout) is exit 2 with one ``error:`` line.
Every success path re-runs the relevant certifier or reports a flag its
producer proves (each such constant names its proof); nothing is reported
as passing without one or the other.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import suppress
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence

from . import __version__
from .arrayfile import _integer, parse_array, serialize_array
from .core import HeffterArray, check_listing, reorder_columns, verify_heffter
from .embedding import build_face_set, certify, develop_cycles, genus_closed_form
from .errors import (
    ArrayFormatError,
    BudgetExceededError,
    HeffterError,
    InvalidPermutationError,
    TooLargeError,
)
from .h3 import simple_h3
from .orderings import compatible_orderings
from .search import (
    NODE_BUDGET,
    STRATEGIES,
    brute_force_oracle,
    check_oracle_size,
    find_simple_column_permutation,
    generate_heffter,
)

# A handler's report, array or genus text, and its exit code; main writes the first.
Result = tuple[dict | HeffterArray | str, int]


_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def _encode(value: object, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, nested ``indent`` deep.

    ``indent=2`` makes json use its pure-Python encoder.  Here a dict is
    laid out one key at a time, and a list of non-string leaves nested to
    one depth is encoded by the C encoder and re-indented with
    ``str.replace``: with no ``"`` in the text every ``,`` and bracket is
    structural, and with every leaf at the same depth each comma has as many
    ``]`` before it as ``[`` after it.  Any other list, which no report
    holds, goes to ``json.dumps`` itself; json escapes a newline inside a
    string, so each one it writes is structural and takes the nesting indent.
    """
    if not isinstance(value, (dict, list, tuple)):
        return _compact(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    if isinstance(value, dict):
        inner = indent + "  "
        items = [f"{encode_basestring_ascii(key)}: {_encode(value[key], inner)}" for key in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    text = _compact(value)
    depth = len(text) - len(text.lstrip("["))
    if '"' in text or "{" in text or "[]" in text or any(
        len({text.count("]" * a + ","), text.count("," + "[" * a), text.count("]" * a + "," + "[" * a)}) > 1
        for a in range(1, depth + 1)
    ):
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)
    pad = [indent + "  " * level for level in range(depth + 1)]

    def opened(a: int) -> str:  # the lists at levels depth - a + 1 .. depth open
        return "".join("[\n" + pad[level] for level in range(depth - a + 1, depth + 1))

    def closed(a: int) -> str:  # the lists at levels depth .. depth - a + 1 close
        return "".join("\n" + pad[level - 1] + "]" for level in range(depth, depth - a, -1))

    body = text[depth:-depth].replace(",", ",\n" + pad[depth])
    for a in range(depth - 1, 0, -1):  # longest runs first: "],[" also occurs inside "]],[["
        body = body.replace("]" * a + ",\n" + pad[depth] + "[" * a, closed(a) + ",\n" + pad[depth - a] + opened(a))
    return opened(depth) + body + closed(depth)


def _number(token: str) -> int:  # a numeric option, spelled as in the array file
    return _integer(token)


_number.__name__ = "int"  # so argparse still reports "invalid int value"


def _write(text: str) -> None:
    """Write ``text`` to stdout and flush it, so a stdout that refuses it fails here, not at exit.

    A stdout with a binary ``buffer`` is given the encoded bytes until it has taken them all: under
    ``python -u`` that buffer is the raw file, whose write can take part of them and return, as when
    the reader of a pipe exits mid-write, or take none and return None, as a full non-blocking pipe
    does.  After a failed write fd 1 points at ``os.devnull``, so the exit-time flush has nothing
    to fail on.
    """
    if sys.stdout is None:  # the interpreter started with fd 1 closed
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
    try:
        raw = getattr(sys.stdout, "buffer", None)
        if raw is None:  # an in-process caller's StringIO
            sys.stdout.write(text)
        else:
            sys.stdout.flush()  # whatever the text layer holds goes first
            data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
            while data:
                taken = raw.write(data)
                if taken is None:  # a non-blocking fd that is full; waiting on it would spin
                    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
                data = data[taken:]
        sys.stdout.flush()
    except OSError:
        with suppress(OSError):  # an in-process caller's StringIO has no fd
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise


def _print_json(doc: dict) -> None:
    _write(_encode(doc) + "\n")


def _array_meta(H: HeffterArray) -> dict:
    return {"m": H.m, "n": H.n, "v": H.modulus}


def _load_array(path: str) -> HeffterArray:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        raise ArrayFormatError(
            f"non-ASCII byte 0x{data[exc.start]:02x}",
            line=data.count(b"\n", 0, exc.start) + 1,
            column=exc.start - line_start + 1,
        ) from None
    return parse_array(text)


def _cmd_gen3(args: argparse.Namespace) -> Result:
    return simple_h3(args.n), 0


def _cmd_verify(args: argparse.Namespace, H: HeffterArray) -> Result:
    report = verify_heffter(H)
    flags = {"is_heffter": report.is_heffter, "is_simple": report.is_simple}
    return {"array": _array_meta(H), **vars(report), **flags}, 0 if report.all_ok else 1


def _cmd_reorder(args: argparse.Namespace, H: HeffterArray) -> Result:
    try:
        perm = tuple(_integer(t) for t in args.perm.replace(",", " ").split())
    except ValueError:
        raise InvalidPermutationError(f"--perm must list integers, got {args.perm!r}") from None
    return reorder_columns(H, perm), 0


def _cmd_orderings(args: argparse.Namespace, H: HeffterArray) -> Result:
    pair = compatible_orderings(H)
    cycle = pair.composition_cycle
    doc = {
        "array": _array_meta(H),
        "row_parts": [[[i + 1, j + 1] for i, j in part] for part in pair.row_parts],
        "col_parts": [[[i + 1, j + 1] for i, j in part] for part in pair.col_parts],
        "composition_cycle": [[i + 1, j + 1] for i, j in cycle],
        "orbit_length": len(cycle),
        "single_cycle": True,  # compatible_orderings proves the orbit covers all mn cells
    }
    return doc, 0


def _cmd_develop(args: argparse.Namespace, H: HeffterArray) -> Result:
    v = H.modulus
    if args.expand:
        check_listing(H.m * H.n * v, "--expand")
    system = develop_cycles(H.cells if args.source == "rows" else tuple(zip(*H.cells)), v)
    doc = {
        "source": args.source,
        "v": system.v,
        "k": system.k,
        "cycle_count": v * len(system.bases),
        "base_cycles": [list(c) for c in system.bases],
        "developed": f"translates mod {v}",
        # develop_cycles accepts only zero-sum simple parts partitioning a
        # half-set, so the base steps are exactly those entries and hit each
        # class {d, -d} once; the translates of a base are closed under +1.
        "pair_coverage_ok": True,
        "translation_closed": True,
    }
    if args.expand:
        doc["cycles"] = [list(c) for c in system]
    return doc, 0


def _cmd_embed(args: argparse.Namespace, H: HeffterArray) -> Result:
    if args.expand:
        check_listing(2 * H.m * H.n * H.modulus, "--expand")
    face_set = build_face_set(H)
    cert = certify(face_set)
    doc = {
        "array": _array_meta(H),
        "orientation": "columns-reversed",  # the only convention build_face_set uses
        "base_row_faces": [list(w) for w in face_set.rows.bases],
        "base_col_faces": [list(w) for w in face_set.cols.bases],
        "developed": f"translates mod {face_set.v}",
        "face_counts": {
            "row_color": cert.num_row_faces,
            "col_color": cert.num_col_faces,
            "total": cert.faces,
        },
        "V": cert.vertices,
        "E": cert.edges,
        "F": cert.faces,
        "euler_characteristic": cert.euler_characteristic,
        "genus": cert.genus,
        # certify raises when arc coverage or a vertex rotation fails
        "checks": {
            "arc_coverage_ok": True,
            "edge_bicolor_ok": cert.edge_bicolor_ok,
            "rotations_ok": True,
            "genus_matches_formula": cert.genus_matches_formula,
        },
    }
    if args.expand:
        doc["faces"] = {
            "row_color": [list(w) for w in face_set.rows],
            "col_color": [list(w) for w in face_set.cols],
        }
    return doc, 0 if cert.all_ok else 1


def _cmd_genus(args: argparse.Namespace) -> Result:
    genus = genus_closed_form(args.n)
    try:
        return f"{genus}\n", 0
    except ValueError:  # the interpreter's limit on int-to-decimal conversion
        raise TooLargeError("the genus has too many digits to print as a decimal") from None


def _cmd_search(args: argparse.Namespace, H: HeffterArray) -> Result:
    if args.all:
        check_oracle_size(H.n)
    doc: dict = {"array": _array_meta(H), "strategy": args.strategy}
    try:
        outcome = find_simple_column_permutation(H, strategy=args.strategy, node_budget=args.budget)
    except BudgetExceededError:
        doc.update({"status": "budget_exceeded", "node_budget": args.budget})
    else:
        doc.update({"status": "none_exists", "nodes": outcome.nodes})
        if outcome.permutation is not None:
            doc.update(
                {
                    "status": "found",
                    "permutation": list(outcome.permutation),
                    # the search proves its rows simple and checks the columns it cannot move
                    "reordered_is_heffter": True,
                    "reordered_is_simple": True,
                }
            )
            if args.all:
                doc["all_permutations"] = [list(p) for p in brute_force_oracle(H)]
    return doc, 0 if doc["status"] == "found" else 1


def _cmd_generate(args: argparse.Namespace) -> Result:
    return generate_heffter(args.m, args.n, seed=args.seed, node_budget=args.budget), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heffter",
        description="Construct, verify, and biembed Heffter arrays.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable[..., Result], help: str, *, file: bool = True) -> argparse.ArgumentParser:
        """Add subcommand ``name``, run by ``func``; it takes a required ``--file`` unless ``file`` is false."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if file:
            p.add_argument("--file", required=True)
        return p

    p = command("gen3", _cmd_gen3, "emit a simple 3 x n Heffter array", file=False)
    p.add_argument("--n", type=_number, required=True)
    command("verify", _cmd_verify, "verify the Heffter axioms and simplicity of an array file")
    p = command("reorder", _cmd_reorder, "apply a column permutation to an array file")
    p.add_argument("--perm", required=True, help='e.g. "1,2,6,8,5,3,4,7"')
    command("orderings", _cmd_orderings, "build compatible row/column orderings")

    p = command("develop", _cmd_develop, "develop the row or column cycle system mod v")
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--rows", dest="source", action="store_const", const="rows")
    direction.add_argument("--cols", dest="source", action="store_const", const="cols")
    p.add_argument("--expand", action="store_true", help="list every developed cycle")

    p = command("embed", _cmd_embed, "assemble and certify the orientable biembedding")
    p.add_argument("--expand", action="store_true", help="list every face explicitly")
    p = command("genus", _cmd_genus, "closed-form genus of the K_{6n+1} biembedding", file=False)
    p.add_argument("--n", type=_number, required=True)

    p = command("search", _cmd_search, "find a column permutation making every row simple")
    p.add_argument("--strategy", choices=STRATEGIES, default="backtracking")
    p.add_argument("--budget", type=_number, default=NODE_BUDGET)
    p.add_argument("--all", action="store_true", help="also list every valid permutation (n <= 9)")

    p = command("generate", _cmd_generate, "generate an m x n Heffter array by backtracking", file=False)
    p.add_argument("--m", type=_number, required=True)
    p.add_argument("--n", type=_number, required=True)
    p.add_argument("--seed", type=_number, default=None)
    p.add_argument("--budget", type=_number, default=NODE_BUDGET)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result, code = args.func(args, _load_array(args.file)) if "file" in args else args.func(args)
        if isinstance(result, dict):
            _print_json(result)
        else:
            _write(serialize_array(result) if isinstance(result, HeffterArray) else result)
        return code
    except (OSError, HeffterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (OSError, ValueError)) else 1  # bad input, or a failed check


if __name__ == "__main__":
    sys.exit(main())
