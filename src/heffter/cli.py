"""Command-line interface.

Subcommands: gen3, verify, reorder, orderings, develop, embed, genus,
search, generate.  Array output uses the plain-text array file format;
reports are canonical JSON (sorted keys, 2-space indent) so they are
deterministic and diffable.  Exit codes: 0 when every requested check
passed, 1 when a verification or search failed, 2 for usage or input
errors.  Every success path re-runs the relevant certifier or reports a
flag its producer proves (each such constant names its proof); nothing is
reported as passing without one or the other.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import __version__
from .arrayfile import parse_array, serialize_array
from .core import HeffterArray, reorder_columns, verify_heffter
from .embedding import build_face_set, certify, develop_cycles, genus_closed_form
from .errors import (
    ArrayFormatError,
    BudgetExceededError,
    HeffterError,
    InvalidPermutationError,
    NotHeffterError,
)
from .h3 import simple_h3
from .orderings import compatible_orderings
from .search import (
    SearchConfig,
    brute_force_oracle,
    check_oracle_size,
    find_simple_column_permutation,
    generate_heffter,
)


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


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


def _cmd_gen3(args: argparse.Namespace) -> int:
    H = simple_h3(args.n)
    sys.stdout.write(serialize_array(H))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    H = _load_array(args.file)
    report = verify_heffter(H)
    flags = {"is_heffter": report.is_heffter, "is_simple": report.is_simple}
    _print_json({"array": _array_meta(H), **vars(report), **flags})
    return 0 if report.all_ok else 1


def _cmd_reorder(args: argparse.Namespace) -> int:
    H = _load_array(args.file)
    try:
        perm = tuple(int(t) for t in args.perm.replace(",", " ").split())
    except ValueError:
        raise InvalidPermutationError(f"--perm must list integers, got {args.perm!r}") from None
    sys.stdout.write(serialize_array(reorder_columns(H, perm)))
    return 0


def _cmd_orderings(args: argparse.Namespace) -> int:
    H = _load_array(args.file)
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
    _print_json(doc)
    return 0


def _cmd_develop(args: argparse.Namespace) -> int:
    H = _load_array(args.file)
    v = H.modulus
    if args.rows:
        parts = [H.row(i) for i in range(H.m)]
        source = "rows"
    else:
        parts = [H.column(j) for j in range(H.n)]
        source = "cols"
    system = develop_cycles(parts, v)
    doc = {
        "source": source,
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
    _print_json(doc)
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    H = _load_array(args.file)
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
    _print_json(doc)
    return 0 if cert.all_ok else 1


def _cmd_genus(args: argparse.Namespace) -> int:
    print(genus_closed_form(args.n))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    H = _load_array(args.file)
    if args.all:
        check_oracle_size(H.n)
    # The search re-verifies its answer as a Heffter array; a parsed array is
    # already a half-set, so only the line sums are left to check.
    report = verify_heffter(H)
    for what, sum_ok in (("row", report.row_sum_ok), ("column", report.col_sum_ok)):
        for k, ok in enumerate(sum_ok, 1):
            if not ok:
                raise NotHeffterError(f"{what} {k} does not sum to 0 mod {H.modulus}")
    cfg = SearchConfig(strategy=args.strategy, node_budget=args.budget)
    doc: dict = {"array": _array_meta(H), "strategy": args.strategy}
    try:
        outcome = find_simple_column_permutation(H, cfg)
    except BudgetExceededError:
        doc.update({"status": "budget_exceeded", "node_budget": args.budget})
        _print_json(doc)
        return 1
    if outcome.permutation is None:
        doc.update({"status": "none_exists", "nodes": outcome.nodes})
        _print_json(doc)
        return 1
    doc.update(
        {
            "status": "found",
            "permutation": list(outcome.permutation),
            "nodes": outcome.nodes,
            # the search re-verifies its permutation and raises if it fails
            "reordered_is_heffter": True,
            "reordered_is_simple": True,
        }
    )
    if args.all:
        doc["all_permutations"] = [list(p) for p in brute_force_oracle(H)]
    _print_json(doc)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    H = generate_heffter(args.m, args.n, SearchConfig(node_budget=args.budget, seed=args.seed))
    sys.stdout.write(serialize_array(H))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heffter",
        description="Construct, verify, and biembed Heffter arrays.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen3", help="emit a simple 3 x n Heffter array")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_gen3)

    p = sub.add_parser("verify", help="verify the Heffter axioms and simplicity of an array file")
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reorder", help="apply a column permutation to an array file")
    p.add_argument("--file", required=True)
    p.add_argument("--perm", required=True, help='e.g. "1,2,6,8,5,3,4,7"')
    p.set_defaults(func=_cmd_reorder)

    p = sub.add_parser("orderings", help="build compatible row/column orderings")
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_orderings)

    p = sub.add_parser("develop", help="develop the row or column cycle system mod v")
    p.add_argument("--file", required=True)
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--rows", action="store_true")
    direction.add_argument("--cols", action="store_true")
    p.add_argument("--expand", action="store_true", help="list every developed cycle")
    p.set_defaults(func=_cmd_develop)

    p = sub.add_parser("embed", help="assemble and certify the orientable biembedding")
    p.add_argument("--file", required=True)
    p.add_argument("--expand", action="store_true", help="list every face explicitly")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("genus", help="closed-form genus of the K_{6n+1} biembedding")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("search", help="find a column permutation making every row simple")
    p.add_argument("--file", required=True)
    p.add_argument("--strategy", choices=("backtracking", "exhaustive"), default="backtracking")
    p.add_argument("--budget", type=int, default=SearchConfig.node_budget)
    p.add_argument("--all", action="store_true", help="also list every valid permutation (n <= 9)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("generate", help="generate an m x n Heffter array by backtracking")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=SearchConfig.node_budget)
    p.set_defaults(func=_cmd_generate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HeffterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if _is_check_failure(exc) else 2


def _is_check_failure(exc: HeffterError) -> bool:
    """Distinguish failed mathematical checks (exit 1) from bad input (exit 2)."""
    return not isinstance(exc, ValueError)


if __name__ == "__main__":
    sys.exit(main())
